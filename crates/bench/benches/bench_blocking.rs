//! **bench_blocking** — candidate-generation scaling curves on the
//! census dataset.
//!
//! Builds the corpus, then runs capped token blocking, banding LSH and
//! the meta-blocking pipeline, over a ladder of census sizes (100 k →
//! 1 M records at `ER_SCALE=paper`). The `corpus` run of each size
//! times `CorpusBuilder` (tokenize, intern, filter and index) under its
//! `corpus.build` span. The blocking runs record: the wall time of what every
//! resolve pays — candidate generation plus the term–pair graph build
//! (`candidate_graph`) — then, from an untimed `candidate_pairs` call,
//! candidate count, candidates-per-record, reduction ratio and pair
//! completeness. The quality metrics land in the BenchFile schema as
//! first-class `reduction_ratio` / `pair_completeness` run fields, so
//! `cargo xtask bench-diff` tracks them release to release
//! (`BENCH_blocking.json`).
//!
//! The acceptance bar of the blocking layer is printed as a summary:
//! the meta strategy's candidates-per-record must stay within 2× across
//! the ladder (near-linear growth) at ≥ 0.95 pair completeness.
//! The `blocking` gate of the `smoke` bench enforces the same invariant
//! in CI at 20 k and 60 k records; this harness measures the full curve.
//!
//! Run: `ER_SCALE=paper cargo bench -p er-bench --bench bench_blocking`.

use std::time::{Duration, Instant};

use er_bench::{
    bench_threads, census, dispatch_mode, fmt_duration, print_header, recorded_run, scale_factor,
};
use er_obs::{BenchFile, BenchRun};
use er_pool::WorkerPool;
use er_text::blocking::{reduction_ratio, BlockingStrategy, MetaBlocking};
use er_text::{CorpusBuilder, LshParams, MetaConfig};
use unsupervised_er::pipeline::DEFAULT_MAX_DF_FRACTION;

/// The size ladder, in records (scaled by `ER_SCALE`).
const SIZES: [usize; 3] = [100_000, 316_000, 1_000_000];

/// The strategies under measurement.
fn strategies() -> Vec<(&'static str, BlockingStrategy)> {
    let lsh = LshParams::for_threshold(0.5, 64);
    vec![
        ("token", BlockingStrategy::Token { max_block_size: 64 }),
        (
            "lsh",
            BlockingStrategy::Lsh {
                params: lsh,
                max_block_size: 128,
            },
        ),
        (
            "meta",
            BlockingStrategy::Meta(MetaBlocking {
                token_blocks: true,
                lsh: Some(lsh),
                config: MetaConfig::default(),
            }),
        ),
    ]
}

/// Fraction of ground-truth pairs present in the sorted candidate list.
fn pair_completeness(candidates: &[(u32, u32)], truth: &[(u32, u32)]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let found = truth
        .iter()
        .filter(|p| candidates.binary_search(p).is_ok())
        .count();
    found as f64 / truth.len() as f64
}

fn main() {
    let scale = scale_factor();
    let threads = bench_threads();
    let out_path =
        std::env::var("ER_BENCH_OUT").unwrap_or_else(|_| "BENCH_blocking.json".to_owned());
    er_obs::set_recording(true);
    let pool = WorkerPool::new(threads);
    println!("BENCH_blocking — candidate generation at scale factor {scale}, {threads} threads");
    print_header(
        "blocking",
        &[
            ("records", 9),
            ("strategy", 10),
            ("time", 9),
            ("candidates", 12),
            ("cand/rec", 9),
            ("red.ratio", 10),
            ("pair-compl", 10),
        ],
    );

    let mut file = BenchFile::default();
    let mut meta_curve: Vec<(usize, f64, f64)> = Vec::new();
    for base in SIZES {
        let n = er_datasets::scaled(base, scale);
        let dataset = census(n);
        let mut corpus = None;
        let mut elapsed = Duration::ZERO;
        let run = recorded_run("blocking", &format!("n{base}"), "corpus", threads, || {
            let t = Instant::now();
            corpus = Some(
                CorpusBuilder::new()
                    .extend_texts(dataset.texts())
                    .max_df_fraction(DEFAULT_MAX_DF_FRACTION)
                    .build(),
            );
            elapsed = t.elapsed();
        });
        let corpus = corpus.expect("the corpus run builds the corpus");
        println!(
            "{:<9} {:<10} {:<9} {} terms",
            n,
            "corpus",
            fmt_duration(elapsed),
            corpus.vocab_len()
        );
        file.runs.push(run);
        let mut truth: Vec<(u32, u32)> = dataset
            .matching_pairs()
            .iter()
            .map(|&(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        truth.sort_unstable();

        for (mode, strategy) in strategies() {
            er_obs::reset();
            let t = Instant::now();
            let graph = strategy.candidate_graph(&corpus, &pool, None, None);
            let elapsed = t.elapsed();
            let report = er_obs::snapshot();
            drop(graph);
            let pairs = strategy.candidate_pairs(&corpus, &pool);
            let rr = reduction_ratio(n, pairs.len());
            let pc = pair_completeness(&pairs, &truth);
            let cpr = pairs.len() as f64 / n as f64;
            println!(
                "{:<9} {:<10} {:<9} {:<12} {:<9.2} {:<10.6} {:<10.4}",
                n,
                mode,
                fmt_duration(elapsed),
                pairs.len(),
                cpr,
                rr,
                pc
            );
            if mode == "meta" {
                meta_curve.push((n, cpr, pc));
            }
            file.runs.push(BenchRun {
                label: "blocking".to_owned(),
                dataset: format!("n{base}"),
                mode: mode.to_owned(),
                threads: threads as u64,
                scaling_ratio: None,
                dispatch_mode: dispatch_mode(&report),
                reduction_ratio: Some(rr),
                pair_completeness: Some(pc),
                report,
            });
        }
    }

    // Acceptance summary for the meta strategy: candidates-per-record
    // within 2× across the ladder, pair completeness ≥ 0.95 everywhere.
    let cpr_min = meta_curve.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
    let cpr_max = meta_curve.iter().map(|c| c.1).fold(0.0f64, f64::max);
    let pc_min = meta_curve.iter().map(|c| c.2).fold(f64::INFINITY, f64::min);
    let growth = if cpr_min > 0.0 {
        cpr_max / cpr_min
    } else {
        1.0
    };
    println!(
        "meta: candidates-per-record spread {growth:.2}x across {} sizes, min pair-completeness {pc_min:.4}",
        meta_curve.len()
    );
    if growth > 2.0 {
        eprintln!("FAIL: meta candidates-per-record grew {growth:.2}x (> 2x) across the ladder");
        std::process::exit(1);
    }
    if pc_min < 0.95 {
        eprintln!("FAIL: meta pair completeness dropped to {pc_min:.4} (< 0.95)");
        std::process::exit(1);
    }

    std::fs::write(&out_path, file.to_json()).expect("write BENCH_blocking.json");
    println!("wrote {out_path} ({} runs)", file.runs.len());
}
