//! Batch workloads: raw texts to clusters through the program's batch
//! entry points, `pipeline::prepare_with_strategy` →
//! `pipeline::seed_similarities` → `Resolver::resolve_seeded`.

use std::time::{Duration, Instant};

use er_pool::WorkerPool;
use unsupervised_er::core::{FusionConfig, FusionOutcome, Resolver};
use unsupervised_er::datasets::Dataset;
use unsupervised_er::eval::{evaluate_pairs, TruthPairs};
use unsupervised_er::graph::BipartiteGraph;
use unsupervised_er::pipeline::{self, Prepared};
use unsupervised_er::text::{Corpus, CorpusBuilder};

use crate::counts;
use crate::run::{self, Outcome, Params};
use crate::stats;
use crate::workload::{hide_labels, truth_prefix, BatchSpec, Workload, SETUP_REPS};

/// Resolves that end within this much of the measured window warm the
/// caches and allocator and are not timed: the first resolves of a
/// process ran up to 60% slower for about 1.5 s. A resolve longer than
/// this always counts, so the slow workloads lose no measurement.
const WARMUP: Duration = Duration::from_secs(2);

/// Lookups served from each resolve's result before the next resolve
/// starts, so the query samples spread over the whole run.
const QUERY_BURST: Duration = Duration::from_millis(20);

/// Lookup time per run at least; what the bursts leave is served from
/// the last result after the timed resolves.
const QUERY_TOTAL: Duration = Duration::from_secs(1);

/// What one workload run resolves, and with what.
struct Batch<'a> {
    spec: &'a BatchSpec,
    config: &'a FusionConfig,
    hidden: &'a Dataset,
    pool: &'a WorkerPool,
    truth: &'a TruthPairs,
}

/// Per-layer times of one traced resolve, in seconds.
#[derive(Debug)]
struct Layers {
    wall: f64,
    tokenize: f64,
    /// Blocking as the program ran it inside the resolve (0 when the
    /// strategy enumerates candidates inside the graph build).
    blocking_inside: f64,
    blocking: f64,
    graph: f64,
    seed: f64,
    iter: f64,
    cliquerank: f64,
    fusion_other: f64,
    cells: f64,
}

pub fn run(workload: Workload, p: &Params) -> Outcome {
    let spec = workload.batch_spec().expect("a batch workload");
    let threads = workload.threads();
    let config = FusionConfig {
        threads,
        ..FusionConfig::default()
    };

    // Set-up: generate the records, hide their labels, start the pool.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        let (dataset, fingerprint) = workload.input(p.seed, p.scale);
        let hidden = hide_labels(&dataset, dataset.len());
        let pool = WorkerPool::with_policy(threads, config.dispatch);
        setup.push(t.elapsed().as_secs_f64());
        state = Some((dataset, fingerprint, hidden, pool));
    }
    let (dataset, fingerprint, hidden, pool) = state.expect("at least one set-up");
    let n = dataset.len();
    let mut out = Outcome::new(workload, &dataset, fingerprint, p);
    let truth = truth_prefix(&dataset, n);
    let batch = Batch {
        spec: &spec,
        config: &config,
        hidden: &hidden,
        pool: &pool,
        truth: &truth,
    };
    let resolver = Resolver::new(config.clone());
    let keys = run::query_keys(&truth, n, p.seed);
    let mut queries = run::Queries::new(&keys);
    let mut queried = Duration::ZERO;

    let mut untraced: Vec<f64> = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    let mut first: Option<Vec<u64>> = None;
    let mut f1 = f64::NAN;
    let mut last: Option<(Prepared, FusionOutcome)> = None;
    let start = Instant::now();
    let mut wall = 0.0;
    // A traced run alternates untraced and traced resolves, so the
    // tracing overhead is measured within one process. Once each kind
    // has a sample, a resolve starts only if one as long as the last
    // would end inside the window.
    for rep in 0usize.. {
        let timed = !untraced.is_empty() && (!p.trace || !traced.is_empty());
        if timed && start.elapsed().as_secs_f64() + wall >= p.seconds {
            break;
        }
        drop(last.take());
        let traced_rep = p.trace && rep % 2 == 1;
        if traced_rep {
            er_obs::reset();
            er_obs::set_recording(true);
        }
        out.tracer.set_enabled(traced_rep);

        let t0 = Instant::now();
        let root = out.tracer.open("resolve", None);
        let (prepared, prep_id) = out.tracer.span("prepare", root, || {
            pipeline::prepare_with_strategy(&hidden, spec.max_df_fraction, &spec.strategy, &pool)
        });
        let (seed, seed_id) = out.tracer.span("seed", root, || {
            pipeline::seed_similarities(&prepared.corpus, &prepared.graph, &pool)
        });
        let (outcome, fusion_id) = out.tracer.span("fusion", root, || {
            resolver.resolve_seeded(&prepared.graph, &seed)
        });
        out.tracer.close(root);
        wall = t0.elapsed().as_secs_f64();
        out.attempted += 1;
        er_obs::set_recording(false);

        // Every resolve must reproduce the first one bit for bit.
        let bits: Vec<u64> = outcome
            .matching_probabilities
            .iter()
            .map(|v| v.to_bits())
            .collect();
        // Every later resolve is bitwise rep 0, so F1 is judged once.
        match &first {
            None => {
                f1 = evaluate_pairs(outcome.matches.iter().copied(), &truth).f1();
                if f1 < spec.f1_floor {
                    out.fail(format!("F1 {f1:.4} below floor {}", spec.f1_floor));
                }
                first = Some(bits);
            }
            Some(b) if *b != bits => {
                out.fail(format!("rep {rep}: probabilities differ from rep 0"));
            }
            Some(_) => {}
        }

        if start.elapsed() < WARMUP {
            last = Some((prepared, outcome));
            continue;
        }
        if traced_rep {
            let report = er_obs::snapshot();
            let (layers, candidates) = batch.attribute(
                &mut out,
                &report,
                &outcome,
                [prep_id, seed_id, fusion_id],
                wall,
            );
            if traced.is_empty() {
                batch.set_work_counts(&mut out, &prepared, &outcome, &candidates, &layers);
            }
            traced.push(layers);
        } else {
            untraced.push(wall);
            let t = Instant::now();
            queries.run_until(t + QUERY_BURST, &mut lookup_in(&prepared, &outcome));
            queried += t.elapsed();
        }
        last = Some((prepared, outcome));
    }
    out.tracer.set_enabled(p.trace);
    let (prepared, outcome) = last.as_ref().expect("at least one resolve");
    let top_up = QUERY_TOTAL.saturating_sub(queried);
    queries.run_until(Instant::now() + top_up, &mut lookup_in(prepared, outcome));
    queries.report(&mut out, p.trace);

    if p.trace {
        set_layer_metrics(&mut out, &traced, &untraced, n);
        return out;
    }
    out.set("setup_s", stats::median(&setup));
    out.set("resolve_s", stats::median(&untraced));
    set_freshness(&mut out, "freshness_p50_ms", &untraced, n, 0.50);
    out.set("f1", f1);
    out.set("peak_rss_mb", run::peak_rss_mb());
    out
}

/// Every record of a batch is due when its resolve starts and is
/// published when it ends, so each resolve adds one freshness sample per
/// record, equal to its wall time.
fn set_freshness(out: &mut Outcome, name: &'static str, walls: &[f64], n: usize, q: f64) {
    let walls = stats::sorted(walls);
    let v = stats::percentile_by(walls.len() * n, q, |i| walls[i / n] * 1e3);
    out.set(name, v.unwrap_or(f64::NAN));
}

/// A match-probability lookup on a batch result, through the graph's
/// own pair index.
fn lookup_in<'r>(
    prepared: &'r Prepared,
    outcome: &'r FusionOutcome,
) -> impl FnMut(u32, u32) -> Option<f64> + 'r {
    |a, b| {
        let i = prepared.graph.pair_id(a, b)?;
        Some(outcome.matching_probabilities[i as usize])
    }
}

impl Batch<'_> {
    /// Splits one traced resolve into layers. Tokenize and blocking
    /// have no span inside `prepare_with_strategy`, so they are timed by
    /// calling the same layer entry points on the same inputs right
    /// after it; blocking that runs inside the resolve (LSH and meta
    /// strategies) is taken from the program's own `blocking.candidates`
    /// span instead. Returns the candidate pairs of that blocking call.
    fn attribute(
        &self,
        out: &mut Outcome,
        report: &er_obs::Report,
        outcome: &FusionOutcome,
        [prep_id, seed_id, fusion_id]: [Option<usize>; 3],
        wall: f64,
    ) -> (Layers, Vec<(u32, u32)>) {
        let (corpus, tok_id) = out.tracer.span("tokenize", None, || {
            CorpusBuilder::new()
                .extend_texts(self.hidden.texts())
                .max_df_fraction(self.spec.max_df_fraction)
                .build()
        });
        let (candidates, blk_id) = out.tracer.span("blocking", None, || {
            self.spec.strategy.candidate_pairs(&corpus, self.pool)
        });
        let tokenize = out.tracer.duration_s(tok_id);
        let inside = report
            .span("blocking.candidates")
            .map_or(0.0, er_obs::SpanStat::total_seconds);
        let blocking = if inside > 0.0 {
            inside
        } else {
            out.tracer.duration_s(blk_id)
        };
        out.tracer.measured(prep_id, "tokenize", tokenize);
        out.tracer.measured(prep_id, "blocking", inside);
        for r in &outcome.rounds {
            out.tracer
                .measured(fusion_id, "iter", r.iter_time.as_secs_f64());
            out.tracer
                .measured(fusion_id, "cliquerank", r.cliquerank_time.as_secs_f64());
        }
        let t = &out.tracer;
        let layers = Layers {
            wall,
            tokenize,
            blocking_inside: inside,
            blocking,
            graph: t.self_s(prep_id),
            seed: t.duration_s(seed_id),
            iter: t.measured_s(fusion_id, "iter"),
            cliquerank: t.measured_s(fusion_id, "cliquerank"),
            fusion_other: t.self_s(fusion_id),
            cells: report.counter("simeng.batch.cells_total") as f64,
        };
        (layers, candidates)
    }

    /// Work counts of the resolve, taken once and outside every timed
    /// window (every resolve does identical work).
    fn set_work_counts(
        &self,
        out: &mut Outcome,
        prepared: &Prepared,
        outcome: &FusionOutcome,
        candidates: &[(u32, u32)],
        layers: &Layers,
    ) {
        set_blocking_counts(out, candidates, self.truth, prepared.corpus.len());
        set_graph_counts(out, &prepared.corpus, &prepared.graph);
        let iterations: usize = outcome.rounds.iter().map(|r| r.iter_iterations).sum();
        set_iter_counts(out, iterations, &prepared.graph, layers.iter);
        let reported = outcome.rounds.last().map_or(0, |r| r.record_graph_edges);
        set_cliquerank_counts(
            out,
            &prepared.graph,
            self.config,
            Some(&outcome.pair_similarities),
            reported,
            outcome.rounds.len(),
            layers.cliquerank,
        );
    }
}

pub fn set_blocking_counts(
    out: &mut Outcome,
    candidates: &[(u32, u32)],
    truth: &TruthPairs,
    records: usize,
) {
    let found = truth
        .iter()
        .filter(|p| candidates.binary_search(p).is_ok())
        .count();
    out.set("blocking.candidates", candidates.len() as f64);
    out.set(
        "blocking.candidates_per_record",
        candidates.len() as f64 / records as f64,
    );
    out.set(
        "blocking.pair_completeness",
        found as f64 / truth.total().max(1) as f64,
    );
}

pub fn set_graph_counts(out: &mut Outcome, corpus: &Corpus, graph: &BipartiteGraph) {
    let enumerated = counts::enumerated_pairs(corpus);
    out.set("graph.enumerated_pairs", enumerated as f64);
    out.set("graph.pairs", graph.pair_count() as f64);
    out.set(
        "graph.pair_yield",
        graph.pair_count() as f64 / enumerated.max(1) as f64,
    );
}

/// ITER visits every term–pair edge once per iteration.
pub fn set_iter_counts(out: &mut Outcome, iterations: usize, graph: &BipartiteGraph, iter_s: f64) {
    out.set("iter.iterations", iterations as f64);
    out.set(
        "iter.edge_visits_per_s",
        iterations as f64 * graph.edge_count() as f64 / iter_s,
    );
}

/// Record-graph counts. `reported_edges` is the program's own edge
/// count for the final round, which the rebuilt edge list must
/// reproduce; a difference is noted.
pub fn set_cliquerank_counts(
    out: &mut Outcome,
    graph: &BipartiteGraph,
    config: &FusionConfig,
    similarities: Option<&[f64]>,
    reported_edges: usize,
    rounds: usize,
    cliquerank_s: f64,
) {
    let edges = counts::record_graph_edges(graph, config.min_shared_terms, similarities);
    if edges.len() != reported_edges {
        out.notes.push(format!(
            "record graph: {} edges rebuilt, program reports {reported_edges}",
            edges.len()
        ));
    }
    let n = graph.record_count();
    let wedges = counts::wedges(n, &edges);
    out.set("cliquerank.record_graph_edges", reported_edges as f64);
    out.set(
        "cliquerank.largest_component",
        counts::largest_component(n, &edges) as f64,
    );
    out.set("cliquerank.wedges", wedges as f64);
    // One pass over the final round's wedges per round.
    out.set(
        "cliquerank.wedges_per_s",
        wedges as f64 * rounds as f64 / cliquerank_s,
    );
}

fn set_layer_metrics(out: &mut Outcome, traced: &[Layers], untraced: &[f64], n: usize) {
    let med = |f: fn(&Layers) -> f64| stats::median(&traced.iter().map(f).collect::<Vec<_>>());
    let tokenize = med(|l| l.tokenize);
    out.set("tokenize.time_s", tokenize);
    out.set("tokenize.records_per_s", n as f64 / tokenize);
    out.set("blocking.time_s", med(|l| l.blocking));
    out.set("graph.time_s", med(|l| l.graph));
    let (seed, cells) = (med(|l| l.seed), med(|l| l.cells));
    out.set("seed.time_s", seed);
    out.set("seed.cells", cells);
    out.set("seed.gcups", cells / seed / 1e9);
    out.set("iter.time_s", med(|l| l.iter));
    out.set("cliquerank.time_s", med(|l| l.cliquerank));
    out.set("fusion.other_s", med(|l| l.fusion_other));
    // A batch workload publishes once per resolve: its epochs are its
    // resolves, each cold, each with the whole input as backlog, and it
    // keeps neither a component cache nor a signature cache.
    let walls: Vec<f64> = traced.iter().map(|l| l.wall).collect();
    let traced_wall = stats::median(&walls);
    let all: Vec<f64> = walls.iter().chain(untraced).copied().collect();
    set_freshness(out, "serve.freshness_p99_ms", &all, n, 0.99);
    out.set("serve.epochs", (traced.len() + untraced.len()) as f64);
    out.set("serve.epoch_p50_ms", traced_wall * 1e3);
    out.set(
        "serve.epoch_max_ms",
        stats::sorted(&walls)[walls.len() - 1] * 1e3,
    );
    out.set("serve.backlog_max", n as f64);
    out.set("serve.cache_hit_ratio", 0.0);
    out.set("serve.signature_reuse_ratio", 0.0);
    let coverage =
        med(|l| (l.tokenize + l.blocking_inside + l.seed + l.iter + l.cliquerank) / l.wall);
    run::set_trace_metrics(out, coverage, traced_wall / stats::median(untraced) - 1.0);
}
