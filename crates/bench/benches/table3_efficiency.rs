//! **Table III** — Efficiency of ITER + CliqueRank.
//!
//! Per dataset: the record graph's node and edge counts, the total
//! running time of the 5-round fusion, the time spent in ITER, and the
//! speedup of CliqueRank over RSS.
//!
//! RSS's full simulation is `O(M · S · n³)` and impractical on the dense
//! Paper graph (the paper's very argument), so its running time is
//! measured on a sample of up to 2 000 edges and extrapolated linearly —
//! the per-edge cost is independent across edges, so the extrapolation
//! is exact in expectation.
//!
//! The fusion run is timed twice: once serially (`threads = 1`) and once
//! on a 4-thread shared worker pool. Both runs produce bit-identical
//! outcomes (asserted), so the reported pool speedup is a pure wall-clock
//! comparison of the same computation.
//!
//! Timings come from er-obs recording snapshots, so every run in
//! **BENCH_table3.json** (override with `ER_BENCH_OUT`) carries the full
//! `er-obs/v1` report — the fusion phase span tree, pipeline counters,
//! and (for the pooled run) per-worker utilization — in the same schema
//! as `BENCH_fusion.json`.
//!
//! Run: `cargo bench --bench table3_efficiency`.

use std::time::Duration;

use er_bench::{bench_datasets, fmt_duration, fusion_config, prepare, recorded_run, scale_factor};
use er_core::{run_rss_subset, FusionConfig, Resolver, RssConfig};
use er_graph::RecordGraph;
use er_obs::{BenchFile, BenchRun, GaugeStat};
use er_pool::WorkerPool;

/// Pool size for the serial-vs-pool fusion comparison.
const POOL_THREADS: usize = 4;

/// The bench fusion configuration pinned to a specific thread count.
fn fusion_config_threads(threads: usize) -> FusionConfig {
    let mut cfg = fusion_config();
    cfg.threads = threads;
    cfg
}

/// Total wall time of the run's top-level `path` span as a `Duration`.
fn span_duration(run: &BenchRun, path: &str) -> Duration {
    Duration::from_nanos(run.report.span(path).map_or(0, |s| s.total_ns))
}

fn main() {
    let scale = scale_factor();
    let out_path = std::env::var("ER_BENCH_OUT").unwrap_or_else(|_| "BENCH_table3.json".to_owned());
    er_obs::set_recording(true);
    println!("Table III — Efficiency of ITER+CliqueRank (scale factor {scale})");
    println!(
        "Paper reference (full scale): Restaurant 858n/5,320e 1.1min (ITER 3s, 1.3x vs RSS); \
         Product 2173n/151,939e 21.6min (ITER 20s, 1.5x); \
         Paper 1865n/980,780e 24.2min (ITER 58s, 60x)\n"
    );
    println!(
        "{:<12} {:>8} {:>10} {:>12} {:>10} {:>16} {:>12} {:>12} {:>10}",
        "Dataset",
        "nodes",
        "edges",
        "total time",
        "ITER time",
        "RSS est. time",
        "speedup",
        "pool time",
        "pool spd"
    );
    println!("{}", "-".repeat(112));

    let mut file = BenchFile::default();
    for bench in bench_datasets(scale) {
        let prepared = prepare(&bench);
        let name = bench.dataset.name.as_str();

        // Full fusion run, timed serially (threads = 1).
        let mut outcome = None;
        let serial_run = recorded_run("table3_fusion", name, "serial", 1, || {
            outcome = Some(Resolver::new(fusion_config_threads(1)).resolve(&prepared.graph));
        });
        let outcome = outcome.expect("resolve ran");
        let total = span_duration(&serial_run, "fusion");
        let iter_time = span_duration(&serial_run, "fusion/iter");

        // Same fusion on the shared worker pool; the parallel phases are
        // deterministic, so the outcome must match bit for bit.
        let mut pooled = None;
        let mut pooled_run = recorded_run("table3_fusion", name, "pooled", POOL_THREADS, || {
            pooled =
                Some(Resolver::new(fusion_config_threads(POOL_THREADS)).resolve(&prepared.graph));
        });
        let pooled = pooled.expect("resolve ran");
        assert_eq!(
            outcome.matching_probabilities, pooled.matching_probabilities,
            "pooled fusion diverged from serial on {name}"
        );
        let pool_total = span_duration(&pooled_run, "fusion");
        let pool_speedup = total.as_secs_f64() / pool_total.as_secs_f64().max(1e-9);
        // t4/t1 on the top-level fusion span; > 1.0 means the pool made
        // the run slower (the inversion `--gate-scaling` rejects).
        if total.as_secs_f64() > 0.0 {
            pooled_run.scaling_ratio = Some(pool_total.as_secs_f64() / total.as_secs_f64());
        }
        // The paper's "edges in Gr" is the candidate graph (pairs sharing
        // >= 1 term); the admitted per-round graph is smaller.
        let edges = prepared.graph.pair_count();
        let admitted = outcome.rounds.last().map_or(0, |r| r.record_graph_edges);
        file.runs.push(serial_run);
        file.runs.push(pooled_run);

        // RSS vs CliqueRank on the same graph the paper compares them
        // on: the full candidate record graph Gr (every pair sharing a
        // term, weighted by the final ITER similarities).
        let gr = RecordGraph::from_pair_scores(
            prepared.graph.record_count(),
            prepared.graph.pairs(),
            &outcome.pair_similarities,
        );
        let pool = WorkerPool::new(er_core::default_threads());
        let mut cliquerank_run = recorded_run("table3_cliquerank", name, "full", 1, || {
            let _span = er_obs::span("cliquerank_full");
            let _ = er_core::run_cliquerank(&gr, &fusion_config().cliquerank, &pool);
        });
        let cliquerank_full = span_duration(&cliquerank_run, "cliquerank_full");

        let n_edges = gr.pairs().len().max(1);
        let sample = 2000.min(n_edges);
        let stride = (n_edges / sample).max(1);
        let sampled: Vec<u32> = (0..n_edges).step_by(stride).map(|i| i as u32).collect();
        let mut rss_run = recorded_run("table3_rss", name, "sample", 1, || {
            let _ = run_rss_subset(&gr, &RssConfig::default(), &sampled, &pool);
        });
        let rss_sample_time = span_duration(&rss_run, "rss");
        let rss_full = rss_sample_time.mul_f64(n_edges as f64 / sampled.len() as f64);
        let speedup = rss_full.as_secs_f64() / cliquerank_full.as_secs_f64().max(1e-9);
        rss_run.report.gauges.push(GaugeStat {
            name: "rss_estimated_full_seconds".to_owned(),
            value: rss_full.as_secs_f64(),
        });
        cliquerank_run.report.gauges.push(GaugeStat {
            name: "cliquerank_speedup_vs_rss".to_owned(),
            value: speedup,
        });
        file.runs.push(cliquerank_run);
        file.runs.push(rss_run);

        println!(
            "{:<12} {:>8} {:>10} {:>12} {:>10} {:>16} {:>11.1}x {:>12} {:>9.2}x   ({} admitted)",
            name,
            prepared.graph.record_count(),
            edges,
            fmt_duration(total),
            fmt_duration(iter_time),
            fmt_duration(rss_full),
            speedup,
            fmt_duration(pool_total),
            pool_speedup,
            admitted
        );
    }
    er_obs::set_recording(false);
    println!(
        "\nNotes: speedup compares one CliqueRank pass vs RSS (extrapolated from a\n\
         <=2000-edge sample) on the same full candidate graph, as in the paper.\n\
         Our per-component block decomposition makes CliqueRank much faster than\n\
         the paper's full-matrix implementation, so absolute speedups exceed the\n\
         paper's 1.3x/1.5x/60x; the shape — RSS cost grows with per-edge walk\n\
         work while CliqueRank reuses M^(k-1) — is preserved.\n\
         'pool time'/'pool spd' re-run the same fusion on a {POOL_THREADS}-thread shared\n\
         worker pool; outcomes are asserted bit-identical, so the speedup is\n\
         wall-clock only (expect ~1x on single-core CI hosts)."
    );
    std::fs::write(&out_path, file.to_json())
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {} runs to {out_path}", file.runs.len());
}
