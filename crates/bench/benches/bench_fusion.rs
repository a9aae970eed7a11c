//! **BENCH_fusion.json** — fusion pipeline telemetry in the `er-obs/v1`
//! schema.
//!
//! For each bench dataset and each thread count in {1, 2, 4}, the full
//! 5-round fusion is run once with er-obs recording on — seeded by the
//! batch string-similarity engine (`pipeline::seed_similarities`, so
//! the `simeng.batch.*` counters appear next to the phase spans); the
//! resulting
//! [`er_obs::Report`] snapshot — phase span tree (`fusion`,
//! `fusion/iter`, `fusion/cliquerank`, nested sweeps), per-worker pool
//! utilization, and the pipeline's solver counters — becomes one
//! [`BenchRun`] in the output file. Every parallel path is bit-identical
//! to the serial one, so runs across thread counts time the *same*
//! computation; outcome equality is asserted.
//!
//! Three extra run families ride along:
//!
//! * `cliquerank` (mode `round1`) — one CliqueRank solve per dataset of
//!   the round-1 record graph, timed by the `cliquerank_solve` span.
//! * `steady_alloc` — repeat solve of the dataset's largest component on
//!   warm scratch with the binary's counting allocator armed; the
//!   `cliquerank_steady_allocs` gauge must be 0 (the zero-allocation
//!   contract also pinned by `tests/zero_alloc.rs`). Recording is
//!   suspended during the armed window so telemetry itself cannot
//!   contribute allocations.
//! * `matmul` (mode `packed`, datasets `n256`/`n512`) — the packed
//!   register-tiled kernel, single-threaded.
//!
//! Run: `cargo bench -p er-bench --bench bench_fusion`. Output goes to
//! `BENCH_fusion.json` in the current directory (override with
//! `ER_BENCH_OUT`); `cargo xtask bench-diff` consumes it in CI.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use er_bench::{bench_datasets, fusion_config, prepare, recorded_run, scale_factor};
use er_core::{run_cliquerank, run_iter, solve_component_into, CliqueScratch, Resolver};
use er_graph::RecordGraph;
use er_matrix::Matrix;
use er_obs::{BenchFile, BenchRun, GaugeStat, Report, SpanStat};
use er_pool::WorkerPool;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Counts heap allocations while armed — evidence for the
/// `cliquerank_steady_allocs` gauge.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure delegation to the system allocator plus atomic counter
// bumps; upholds the `GlobalAlloc` contract exactly as `System` does.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: `alloc` is unsafe by trait signature; the body only
    // counts and delegates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout, delegated verbatim to the system allocator.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `dealloc` is unsafe by trait signature; delegation only.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this exact layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn span_seconds(report: &Report, path: &str) -> f64 {
    report.span(path).map_or(0.0, SpanStat::total_seconds)
}

fn main() {
    let scale = scale_factor();
    let out_path = std::env::var("ER_BENCH_OUT").unwrap_or_else(|_| "BENCH_fusion.json".to_owned());
    println!("BENCH_fusion — fusion phase telemetry at scale factor {scale}");
    er_obs::set_recording(true);

    let mut file = BenchFile::default();
    for bench in bench_datasets(scale) {
        let prepared = prepare(&bench);
        let name = bench.dataset.name.clone();
        let mut baseline: Option<Vec<f64>> = None;
        let mut t1_seconds: Option<f64> = None;
        for threads in THREAD_COUNTS {
            // Sub-second fusions are single-sample noise-dominated — a
            // one-shot inversion on a 0.2 s phase is scheduler jitter,
            // not a regression — so they get best-of-3 (whole report
            // kept from the fastest rep); multi-second runs
            // self-average and stay single-rep.
            let mut best: Option<(f64, er_obs::BenchRun)> = None;
            let mut reps = 1;
            let mut rep = 0;
            while rep < reps {
                let mut cfg = fusion_config();
                cfg.threads = threads;
                let mut outcome = None;
                // The seed step runs inside the recorded window so the
                // engine's simeng.batch.* counters and kernel span land
                // in the fusion report alongside the ITER/CliqueRank
                // phases.
                let run = recorded_run("fusion", &name, "pooled", threads, || {
                    let pool = WorkerPool::with_policy(cfg.threads, cfg.dispatch);
                    let seed = unsupervised_er::pipeline::seed_similarities(
                        &prepared.corpus,
                        &prepared.graph,
                        &pool,
                    );
                    outcome = Some(Resolver::new(cfg).resolve_seeded(&prepared.graph, &seed));
                });
                let outcome = outcome.expect("resolve ran");
                match &baseline {
                    None => baseline = Some(outcome.matching_probabilities.clone()),
                    Some(b) => assert_eq!(
                        b, &outcome.matching_probabilities,
                        "fusion outcome changed with threads={threads} on {name}"
                    ),
                }
                let secs = span_seconds(&run.report, "fusion");
                if rep == 0 && secs < 1.0 {
                    reps = 3;
                }
                let better = match &best {
                    None => true,
                    Some((b, _)) => secs < *b,
                };
                if better {
                    best = Some((secs, run));
                }
                rep += 1;
            }
            let (secs, mut run) = best.expect("at least one rep ran");
            // tN/t1 on the top-level fusion span; the t1 run itself
            // carries no ratio. `bench-diff --gate-scaling` fails CI
            // when any committed ratio exceeds 1 + tolerance.
            match t1_seconds {
                None => t1_seconds = Some(secs),
                Some(t1) if t1 > 0.0 => run.scaling_ratio = Some(secs / t1),
                Some(_) => {}
            }
            println!(
                "  {name:<12} threads={threads}  fusion {:.3}s  iter {:.3}s  cliquerank {:.3}s  ({} pool jobs, t/t1 {})",
                secs,
                span_seconds(&run.report, "fusion/iter"),
                span_seconds(&run.report, "fusion/cliquerank"),
                run.report.counter("pool_jobs_total"),
                run.scaling_ratio
                    .map_or_else(|| "-".to_owned(), |r| format!("{r:.2}")),
            );
            file.runs.push(run);
        }
        cliquerank_and_alloc_runs(&prepared.graph, &name, &mut file);
    }
    matmul_runs(&mut file);
    er_obs::set_recording(false);

    let json = file.to_json();
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {} runs to {out_path}", file.runs.len());
}

/// One CliqueRank solve of the round-1 record graph and the
/// steady-state allocation gauge for one dataset.
fn cliquerank_and_alloc_runs(graph: &er_graph::BipartiteGraph, name: &str, file: &mut BenchFile) {
    let cfg = fusion_config();
    let cr = cfg.cliquerank;
    let pool = WorkerPool::new(1);
    // Round-1 similarities give the record graph the fused pipeline
    // would hand to CliqueRank.
    let uniform = vec![1.0f64; graph.pair_count()];
    let iter_out = run_iter(graph, &uniform, &cfg.iter, &pool);
    let gr = RecordGraph::from_pair_scores(
        graph.record_count(),
        graph.pairs(),
        &iter_out.pair_similarities,
    );

    let solve_run = recorded_run("cliquerank", name, "round1", 1, || {
        er_obs::time("cliquerank_solve", || {
            std::hint::black_box(run_cliquerank(&gr, &cr, &pool))
        });
    });
    println!(
        "  {name:<12} cliquerank solve {:.3}s",
        span_seconds(&solve_run.report, "cliquerank_solve"),
    );
    file.runs.push(solve_run);

    // Steady-state allocation count: repeat solve of the largest
    // component on warm scratch must allocate nothing. Recording is
    // suspended for the armed window so the telemetry layer itself is
    // excluded (its steady state is also allocation-free, but this
    // gauge pins the *solver* contract, not the registry's).
    let comps = gr.components();
    let Some(members) = comps
        .iter()
        .filter(|m| m.len() >= 2)
        .max_by_key(|m| m.len())
    else {
        return;
    };
    let mut local_of = vec![u32::MAX; gr.node_count()];
    for (li, &g) in members.iter().enumerate() {
        local_of[g as usize] = li as u32;
    }
    let mut out = vec![0.0f64; gr.pairs().len()];
    let mut scratch = CliqueScratch::default();
    solve_component_into(&gr, members, &local_of, &cr, &mut out, &mut scratch);
    er_obs::set_recording(false);
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let t = Instant::now();
    solve_component_into(&gr, members, &local_of, &cr, &mut out, &mut scratch);
    let steady_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    er_obs::set_recording(true);
    assert_eq!(allocs, 0, "steady-state solve allocated on {name}");

    // The armed window ran with recording off, so this run's report is
    // assembled directly from the measured values.
    let report = Report {
        spans: vec![SpanStat {
            path: "cliquerank_steady_solve".to_owned(),
            count: 1,
            total_ns: steady_ns,
            min_ns: steady_ns,
            max_ns: steady_ns,
        }],
        counters: Vec::new(),
        gauges: vec![
            GaugeStat {
                name: "cliquerank_steady_allocs".to_owned(),
                value: allocs as f64,
            },
            GaugeStat {
                name: "cliquerank_component_size".to_owned(),
                value: members.len() as f64,
            },
        ],
        workers: Vec::new(),
    };
    println!(
        "  {name:<12} steady-state solve ({} nodes): {allocs} allocations",
        members.len()
    );
    file.runs.push(BenchRun {
        label: "steady_alloc".to_owned(),
        dataset: name.to_owned(),
        mode: "warm".to_owned(),
        threads: 1,
        scaling_ratio: None,
        dispatch_mode: None,
        reduction_ratio: None,
        pair_completeness: None,
        report,
    });
}

/// Packed single-threaded matmul at n ∈ {256, 512}; three reps, so the
/// span carries count=3 with min/max per rep.
fn matmul_runs(file: &mut BenchFile) {
    for n in [256usize, 512] {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut a = Matrix::zeros(n, n);
        let mut b = Matrix::zeros(n, n);
        for m in [&mut a, &mut b] {
            for v in m.data_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            }
        }
        let dataset = format!("n{n}");
        let packed_run = recorded_run("matmul", &dataset, "packed", 1, || {
            for _ in 0..3 {
                let _span = er_obs::span("matmul_kernel");
                std::hint::black_box(a.matmul(&b));
            }
        });
        // Best-of-3 (min), the least noisy figure.
        let packed_s = packed_run
            .report
            .span("matmul_kernel")
            .map_or(f64::INFINITY, |s| s.min_ns as f64 / 1e9);
        println!("  matmul n={n}: packed {packed_s:.4}s");
        file.runs.push(packed_run);
    }
}
