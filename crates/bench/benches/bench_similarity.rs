//! **BENCH_similarity.json** — batch string-similarity engine telemetry
//! in the `er-obs/v1` schema.
//!
//! For each bench dataset, every [`SimKernel`] is timed two ways over
//! the full candidate-pair list:
//!
//! * `per_pair` — the pre-batching path:
//!   [`BatchScorer::score_pair_reference`] in a plain loop (fresh
//!   strings per pair, scalar DP, no memoization). One serial run.
//! * `batch` — the string-tape engine ([`BatchScorer::score_into`])
//!   at threads ∈ {1, 2, 4}, with er-obs recording on so the
//!   `simeng.batch.{pairs,cells}_total` counters and per-kernel spans
//!   land in each run's report.
//!
//! Every run carries a `simeng_cups` gauge — DP cell updates per
//! second, where the cell count is the tape-derived
//! [`BatchScorer::cells`] (Σ |a|·|b| over the batch), the same estimate
//! the engine's dispatch uses. Batch runs add `simeng_batch_speedup`
//! (per-pair seconds / batch seconds) and, past threads = 1 on runs
//! that actually fanned out, the `scaling_ratio` consumed by
//! `cargo xtask bench-diff --gate-scaling`.
//! Batch output is asserted bit-identical to the per-pair oracle at
//! every thread count before any timing is recorded.
//!
//! Run: `cargo bench -p er-bench --bench bench_similarity`. Output goes
//! to `BENCH_similarity.json` in the current directory (override with
//! `ER_BENCH_OUT`); `cargo xtask bench-diff` consumes it in CI.

use er_bench::{bench_datasets, prepare, recorded_run, scale_factor, time_min};
use er_obs::{BenchFile, GaugeStat};
use er_pool::WorkerPool;
use er_text::{BatchScorer, SimKernel};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn cups_gauge(cells: u64, secs: f64) -> GaugeStat {
    GaugeStat {
        name: "simeng_cups".to_owned(),
        value: if secs > 0.0 { cells as f64 / secs } else { 0.0 },
    }
}

fn main() {
    let scale = scale_factor();
    let out_path =
        std::env::var("ER_BENCH_OUT").unwrap_or_else(|_| "BENCH_similarity.json".to_owned());
    println!("BENCH_similarity — batch string-similarity engine at scale factor {scale}");
    er_obs::set_recording(true);

    // CI scale finishes a per-pair Smith-Waterman sweep in well under a
    // second, so best-of-3 is affordable; paper scale drops to a single
    // rep for the per-pair side (a 60 s Monge-Elkan sweep self-averages,
    // and tripling it triples the suite). Batch timings are sub-second
    // to a few seconds at every scale and feed the scaling gate, so
    // they always get best-of-3 — a single sample on a 0.8 s sweep can
    // show 30% scheduler jitter that reads as a t2 inversion.
    let per_pair_reps = if scale < 0.7 { 3 } else { 1 };
    let batch_reps = 3;

    let mut file = BenchFile::default();
    for bench in bench_datasets(scale) {
        let prepared = prepare(&bench);
        let name = bench.dataset.name.clone();
        let scorer = BatchScorer::new(&prepared.corpus);
        let idx: Vec<(u32, u32)> = prepared.graph.pairs().iter().map(|p| (p.a, p.b)).collect();
        let cells = scorer.cells(&idx);
        println!(
            "  {name}: {} pairs, {cells} DP cells on the tape",
            idx.len()
        );

        for kernel in SimKernel::ALL {
            // Per-pair oracle: the path every caller used before the
            // batch engine, and the correctness reference below.
            let mut oracle = vec![0.0f64; idx.len()];
            let per_pair_secs = time_min(per_pair_reps, || {
                for (v, &(a, b)) in oracle.iter_mut().zip(&idx) {
                    *v = scorer.score_pair_reference(kernel, a, b);
                }
            });
            let mut run = recorded_run("similarity_perpair", &name, kernel.name(), 1, || {});
            run.report.gauges.push(cups_gauge(cells, per_pair_secs));
            file.runs.push(run);

            let mut out = vec![0.0f64; idx.len()];
            let mut t1_secs: Option<f64> = None;
            for threads in THREAD_COUNTS {
                let pool = WorkerPool::new(threads);
                // Correctness before timing: the batch engine must be
                // bit-identical to the per-pair oracle at every thread
                // count (also pinned by the engine's proptests).
                scorer.score_into(kernel, &idx, &mut out, &pool);
                let ob: Vec<u64> = oracle.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    ob,
                    bb,
                    "{}: batch diverged from per-pair oracle on {name} at threads={threads}",
                    kernel.name()
                );

                let mut batch_secs = f64::INFINITY;
                let mut run =
                    recorded_run("similarity_batch", &name, kernel.name(), threads, || {
                        batch_secs = time_min(batch_reps, || {
                            scorer.score_into(kernel, &idx, &mut out, &pool);
                        });
                    });
                run.report.gauges.push(cups_gauge(cells, batch_secs));
                run.report.gauges.push(GaugeStat {
                    name: "simeng_batch_speedup".to_owned(),
                    value: per_pair_secs / batch_secs,
                });
                // tN/t1 only where the run actually fanned out: the
                // memoized kernel stays serial-inline at every thread
                // count by design, and a ratio of two identical serial
                // sweeps would gate on pure noise.
                let pooled = run.dispatch_mode.as_deref() == Some("pooled");
                match t1_secs {
                    None => t1_secs = Some(batch_secs),
                    Some(t1) if t1 > 0.0 && pooled => {
                        run.scaling_ratio = Some(batch_secs / t1);
                    }
                    Some(_) => {}
                }
                println!(
                    "    {:<15} threads={threads}  per-pair {per_pair_secs:.4}s  batch {batch_secs:.4}s  ({:.1}x, {:.0} MCUPS)",
                    kernel.name(),
                    per_pair_secs / batch_secs,
                    cells as f64 / batch_secs / 1e6,
                );
                file.runs.push(run);
            }
        }
    }
    er_obs::set_recording(false);

    let json = file.to_json();
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {} runs to {out_path}", file.runs.len());
}
