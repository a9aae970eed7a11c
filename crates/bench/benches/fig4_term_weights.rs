//! **Figure 4** — Effectiveness of the learned term weights.
//!
//! Terms are sorted by descending learned weight `x_t` (x-axis = rank);
//! the y-axis shows the ground-truth discriminativeness `score(t)`.
//! The paper's visual claim: highly discriminative terms
//! (`score(t) = 1`) cluster at the front of the ranking and common terms
//! at the bottom-right. This bench prints the series as a decile summary
//! plus an ASCII density plot.
//!
//! Run: `cargo bench --bench fig4_term_weights`.

use er_bench::{bench_datasets, bench_threads, prepare, scale_factor};
use er_core::{run_iter, IterConfig};
use er_eval::{term_discriminativeness, term_score_series};
use er_pool::WorkerPool;

fn main() {
    let scale = scale_factor();
    let pool = WorkerPool::new(bench_threads());
    println!("Figure 4 — score(t) vs rank of learned weight (scale factor {scale})");
    for bench in bench_datasets(scale) {
        let prepared = prepare(&bench);
        let graph = &prepared.graph;
        let truth = &prepared.truth;

        let iter_out = run_iter(
            graph,
            &vec![1.0; graph.pair_count()],
            &IterConfig::default(),
            &pool,
        );
        let scores: Vec<Option<f64>> = (0..graph.term_count() as u32)
            .map(|t| {
                let pairs: Vec<(u32, u32)> = graph
                    .pairs_of_term(t)
                    .iter()
                    .map(|&p| {
                        let pair = graph.pair(p);
                        (pair.a, pair.b)
                    })
                    .collect();
                term_discriminativeness(&pairs, |a, b| truth.is_match(a, b))
            })
            .collect();
        let series = term_score_series(&iter_out.term_weights, &scores);
        if series.is_empty() {
            println!("\n[{}] no scored terms", bench.dataset.name);
            continue;
        }

        println!(
            "\n[{}] {} scored terms; mean score(t) by weight-rank decile:",
            bench.dataset.name,
            series.len()
        );
        let deciles = 10.min(series.len());
        let chunk = series.len().div_ceil(deciles);
        let mut decile_means = Vec::new();
        for (d, block) in series.chunks(chunk).enumerate() {
            let mean: f64 = block.iter().map(|&(_, s)| s).sum::<f64>() / block.len() as f64;
            decile_means.push(mean);
            let bar = "#".repeat((mean * 40.0).round() as usize);
            println!("  decile {:>2}: {:>6.3} {}", d + 1, mean, bar);
        }
        // The figure's claim, statistically: the front of the ranking is
        // far more discriminative than the tail.
        let front = decile_means.first().copied().unwrap_or(0.0);
        let back = decile_means.last().copied().unwrap_or(0.0);
        println!(
            "  front decile {:.3} vs back decile {:.3} ({})",
            front,
            back,
            if front > back {
                "discriminative terms cluster at the front — matches Figure 4"
            } else {
                "WARNING: ordering does not match Figure 4"
            }
        );
        let perfect_front = series
            .iter()
            .take(series.len() / 10)
            .filter(|&&(_, s)| s >= 1.0)
            .count();
        println!(
            "  {} of the top-decile terms have score(t) = 1.0",
            perfect_front
        );
    }
}
