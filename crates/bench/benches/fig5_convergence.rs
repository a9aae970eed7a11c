//! **Figure 5** — Convergence of ITER.
//!
//! Plots (as an ASCII chart) the total weight update per ITER iteration
//! for the first fusion round on each dataset: a sharp early peak from
//! the random initialization, then rapid convergence — the paper's
//! Figure 5 pattern.
//!
//! Run: `cargo bench --bench fig5_convergence`.

use er_bench::{bench_datasets, bench_threads, prepare, scale_factor};
use er_core::{run_iter, IterConfig};
use er_pool::WorkerPool;

fn main() {
    let scale = scale_factor();
    let pool = WorkerPool::new(bench_threads());
    println!("Figure 5 — Convergence of ITER (scale factor {scale})");
    for bench in bench_datasets(scale) {
        let prepared = prepare(&bench);
        let out = run_iter(
            &prepared.graph,
            &vec![1.0; prepared.graph.pair_count()],
            &IterConfig {
                max_iterations: 20,
                tolerance: 0.0, // run all 20 iterations like the figure
                ..Default::default()
            },
            &pool,
        );
        println!(
            "\n[{}] L1 weight update per iteration (first 20):",
            bench.dataset.name
        );
        let max = out
            .deltas
            .iter()
            .copied()
            .fold(f64::MIN, f64::max)
            .max(1e-12);
        for (i, &d) in out.deltas.iter().enumerate() {
            let bar = "#".repeat(((d / max) * 50.0).round() as usize);
            println!("  iter {:>2}: {:>12.4} {}", i + 1, d, bar);
        }
        // The figure's claim: a sharp peak within the first few
        // iterations, then monotone-ish decay to near zero.
        let peak = out
            .deltas
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map_or(0, |(i, _)| i);
        let tail = out.deltas.last().copied().unwrap_or(0.0);
        println!(
            "  peak at iteration {}, final update {:.2e} ({}x below peak)",
            peak + 1,
            tail,
            (max / tail.max(1e-300)) as u64
        );
    }
}
