//! **Table IV** — Spearman's rank correlation between learned term
//! weights and the ground-truth discriminativeness `score(t)` (§VII-E).
//!
//! `score(t)` is the fraction of term `t`'s incident record pairs that
//! truly match. A good term-weighting scheme ranks terms the same way;
//! the paper contrasts PageRank (near-zero correlation — hub salience is
//! not discrimination power) with ITER (0.76–0.96).
//!
//! The per-term ground-truth pass runs on the shared worker pool
//! (`ER_THREADS` workers); each term is independent, so the pooled fill
//! matches the serial loop exactly.
//!
//! Run: `cargo bench --bench table4_spearman`.

use er_baselines::TwIdfScorer;
use er_bench::{bench_datasets, bench_threads, prepare, scale_factor};
use er_core::{run_iter, IterConfig};
use er_eval::{spearman_rho, term_discriminativeness};
use er_pool::WorkerPool;

fn main() {
    let scale = scale_factor();
    let pool = WorkerPool::new(bench_threads());
    println!("Table IV — Spearman's rank correlation coefficient (scale factor {scale})");
    println!("{:<12} {:>16} {:>16}", "Dataset", "PageRank", "ITER");
    println!("{}", "-".repeat(60));
    let paper_ref = [(0.30, 0.96), (0.02, 0.76), (0.08, 0.80)];

    for (bench, (ref_pr, ref_iter)) in bench_datasets(scale).into_iter().zip(paper_ref) {
        let prepared = prepare(&bench);
        let graph = &prepared.graph;
        let truth = &prepared.truth;

        // Ground truth score(t) per term (None when P_t = 0), fanned out
        // over term chunks: each term's score is independent and each
        // chunk writes a disjoint subslice, so the pooled fill is
        // identical to the serial loop at any thread count.
        let score_of = |t: u32| {
            let pairs: Vec<(u32, u32)> = graph
                .pairs_of_term(t)
                .iter()
                .map(|&p| {
                    let pair = graph.pair(p);
                    (pair.a, pair.b)
                })
                .collect();
            term_discriminativeness(&pairs, |a, b| truth.is_match(a, b))
        };
        let mut scores: Vec<Option<f64>> = vec![None; graph.term_count()];
        if pool.is_serial() {
            for (t, s) in scores.iter_mut().enumerate() {
                *s = score_of(t as u32);
            }
        } else {
            let ranges = er_pool::chunk_ranges(scores.len(), pool.threads(), 64);
            pool.scope(|sc| {
                let mut rest = scores.as_mut_slice();
                for r in ranges {
                    let (chunk, tail) = rest.split_at_mut(r.len());
                    rest = tail;
                    let start = r.start;
                    let score_of = &score_of;
                    sc.submit(move || {
                        for (k, s) in chunk.iter_mut().enumerate() {
                            *s = score_of((start + k) as u32);
                        }
                    });
                }
            });
        }

        // ITER weights (first fusion round: uniform p).
        let iter_out = run_iter(
            graph,
            &vec![1.0; graph.pair_count()],
            &IterConfig::default(),
            &pool,
        );
        // PageRank (TW-IDF) term salience on the co-occurrence graph.
        let pagerank = TwIdfScorer::default().term_salience(&prepared.corpus);

        // Restrict the correlation to terms with a defined score(t).
        let mut gt = Vec::new();
        let mut w_iter = Vec::new();
        let mut w_pr = Vec::new();
        for (t, s) in scores.iter().enumerate() {
            if let Some(s) = s {
                gt.push(*s);
                w_iter.push(iter_out.term_weights[t]);
                w_pr.push(pagerank[t]);
            }
        }
        let rho_iter = spearman_rho(&w_iter, &gt);
        let rho_pr = spearman_rho(&w_pr, &gt);
        println!(
            "{:<12} {:>8.3} [{:>4.2}] {:>8.3} [{:>4.2}]   ({} scored terms)",
            bench.dataset.name,
            rho_pr,
            ref_pr,
            rho_iter,
            ref_iter,
            gt.len()
        );
    }
    println!("\nPaper values in brackets. ITER must correlate strongly; PageRank weakly.");
}
