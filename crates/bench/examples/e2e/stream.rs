//! The census stream: records arrive on a fixed schedule into er-serve's
//! `ServeEngine` while one reader queries the published snapshots.
//!
//! The load is an **open loop**: record *i* is due at `i / rate` seconds
//! after the measured window opens, whether or not the engine has kept
//! up. The single writer ingests everything due, resolves (which
//! publishes a snapshot), and repeats. A record's freshness runs from
//! its due time to the publish of the first snapshot that contains it,
//! so a stall is charged to every record that waits behind it.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use er_pool::WorkerPool;
use unsupervised_er::datasets::Dataset;
use unsupervised_er::eval::{evaluate_pairs, TruthPairs};
use unsupervised_er::pipeline;
use unsupervised_er::serve::{resolve_batch, ServeConfig, ServeEngine};
use unsupervised_er::text::BlockingStrategy;

use crate::batch::{set_blocking_counts, set_cliquerank_counts, set_graph_counts, set_iter_counts};
use crate::run::{self, Outcome, Params};
use crate::stats;
use crate::workload::{hide_labels, truth_prefix, Workload, SETUP_REPS};

/// The reader's pace: one group of lookups per millisecond (100,000
/// lookups per second), issued on schedule whatever the writer does.
/// A reader spinning flat out would instead compete with the writer for
/// the host's second core and its caches.
const QUERY_PERIOD: Duration = Duration::from_millis(1);

/// Cold `resolve_batch` runs over the final texts; `resolve_s` is their
/// median.
const COLD_RESOLVES: usize = 5;

/// What the open loop measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Per record, due time to publish, in ms.
    pub freshness_ms: Vec<f64>,
    /// Per epoch, wall time of its ingest and resolve, in ms.
    pub epoch_ms: Vec<f64>,
    /// Most records due but unpublished when an epoch started.
    pub backlog_max: usize,
}

/// Drives `records` arrivals at `rate` per second through `epoch`, which
/// ingests and resolves the given range of arrivals. `clock` reads
/// seconds since the window opened; `wait_until` idles until a time.
pub fn open_loop(
    records: usize,
    rate: f64,
    clock: &mut dyn FnMut() -> f64,
    wait_until: &mut dyn FnMut(f64),
    epoch: &mut dyn FnMut(Range<usize>),
) -> LoopStats {
    let due_at = |i: usize| i as f64 / rate;
    let mut stats = LoopStats::default();
    let mut done = 0;
    while done < records {
        let start = clock();
        let due = ((start * rate).floor() as usize + 1).min(records);
        if due <= done {
            wait_until(due_at(done));
            continue;
        }
        stats.backlog_max = stats.backlog_max.max(due - done);
        epoch(done..due);
        let published = clock();
        stats
            .freshness_ms
            .extend((done..due).map(|i| (published - due_at(i)) * 1e3));
        stats.epoch_ms.push((published - start) * 1e3);
        done = due;
    }
    stats
}

/// The last epoch of a traced stream: the program's er-obs report and
/// the benchmark's span ids.
struct LastEpoch {
    report: er_obs::Report,
    root: Option<usize>,
    ingest: Option<usize>,
    resolve: Option<usize>,
}

pub fn run(workload: Workload, p: &Params) -> Outcome {
    let spec = workload.stream_spec(p.scale).expect("the stream workload");
    let mut config = ServeConfig {
        strategy: BlockingStrategy::meta_default(),
        ..ServeConfig::default()
    };
    // One engine thread; the query reader is the second.
    config.fusion.threads = 1;

    // Set-up: generate the records, start an engine and resolve the
    // preload.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        let (dataset, fingerprint) = workload.input(p.seed, p.scale);
        let mut engine = ServeEngine::new(config.clone());
        engine.ingest_batch(dataset.texts().take(spec.preload));
        engine.resolve();
        setup.push(t.elapsed().as_secs_f64());
        state = Some((dataset, fingerprint, engine));
    }
    let (dataset, fingerprint, mut engine) = state.expect("at least one set-up");
    let live = spec
        .live
        .min((spec.rate * p.seconds).round() as usize)
        .max(1);
    let total = spec.preload + live;
    let mut out = Outcome::new(workload, &dataset, fingerprint, p);
    out.records = total;
    let truth = truth_prefix(&dataset, total);
    let keys = run::query_keys(&truth, total, p.seed);
    let texts: Vec<&str> = dataset.texts().take(total).collect();
    let (hits0, misses0) = (engine.cache().hits(), engine.cache().misses());
    let (reused0, recomputed0) = (
        engine.signatures().reused(),
        engine.signatures().recomputed(),
    );

    let stop = AtomicBool::new(false);
    let mut last: Option<LastEpoch> = None;
    let (stats, queries) = std::thread::scope(|s| {
        let mut handle = engine.query_handle();
        let (keys, stop) = (&keys, &stop);
        let reader = s.spawn(move || {
            // What `QueryHandle::match_probability` runs, without its
            // er-obs span: with recording on (traced runs) that span
            // takes the registry lock on every lookup and would throttle
            // the writer.
            let mut lookup = |a, b| handle.snapshot().match_probability(a, b);
            let mut queries = run::Queries::new(keys);
            let start = Instant::now();
            for k in 1u32.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                queries.group(&mut lookup);
                let due = start + QUERY_PERIOD * k;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
            }
            queries
        });
        let t0 = Instant::now();
        let mut clock = || t0.elapsed().as_secs_f64();
        let mut wait_until = |until: f64| {
            let now = t0.elapsed().as_secs_f64();
            if until > now {
                std::thread::sleep(Duration::from_secs_f64(until - now));
            }
        };
        let mut epoch = |range: Range<usize>| {
            if p.trace {
                er_obs::reset();
                er_obs::set_recording(true);
            }
            let arrivals = &texts[spec.preload + range.start..spec.preload + range.end];
            let root = out.tracer.open("epoch", None);
            let (_, ingest) = out.tracer.span("ingest", root, || {
                engine.ingest_batch(arrivals.iter().copied())
            });
            let (_, resolve) = out.tracer.span("resolve", root, || engine.resolve());
            out.tracer.close(root);
            if p.trace {
                er_obs::set_recording(false);
                last = Some(LastEpoch {
                    report: er_obs::snapshot(),
                    root,
                    ingest,
                    resolve,
                });
            }
        };
        let stats = open_loop(live, spec.rate, &mut clock, &mut wait_until, &mut epoch);
        stop.store(true, Ordering::Relaxed);
        (stats, reader.join().expect("query reader"))
    });
    out.attempted += stats.epoch_ms.len() as u64;
    queries.report(&mut out, p.trace);
    // Read before the resolves below, which hold a second resolution.
    let peak_rss_mb = run::peak_rss_mb();

    // The final snapshot must be the batch resolution of the same texts.
    // Those cold resolves, raw texts to clusters, are `resolve_s`: the
    // median epoch instead sits on a ramp (epochs slow down as the
    // corpus grows) and moved by a fifth from run to run.
    let snapshot = engine.snapshot();
    let mut cold = Vec::with_capacity(COLD_RESOLVES);
    for _ in 0..COLD_RESOLVES {
        let t = Instant::now();
        let batch = resolve_batch(texts.iter().copied(), engine.config());
        cold.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        if !snapshot.bitwise_eq(&batch) {
            out.fail("final snapshot differs from resolve_batch over the same texts".to_owned());
        }
    }
    let cold_s = stats::median(&cold);
    let f1 = evaluate_pairs(snapshot.matches().iter().copied(), &truth).f1();
    if f1 < spec.f1_floor {
        out.fail(format!("F1 {f1:.4} below floor {}", spec.f1_floor));
    }

    if p.trace {
        er_obs::reset();
        er_obs::set_recording(true);
        let t = Instant::now();
        let traced_cold = resolve_batch(texts.iter().copied(), engine.config());
        let traced_cold_s = t.elapsed().as_secs_f64();
        er_obs::set_recording(false);
        if !snapshot.bitwise_eq(&traced_cold) {
            out.fail("traced resolve_batch differs from the final snapshot".to_owned());
        }
        drop(traced_cold);
        let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
        out.set(
            "serve.cache_hit_ratio",
            ratio(
                (engine.cache().hits() - hits0) as u64,
                (engine.cache().misses() - misses0) as u64,
            ),
        );
        out.set(
            "serve.signature_reuse_ratio",
            ratio(
                engine.signatures().reused() - reused0,
                engine.signatures().recomputed() - recomputed0,
            ),
        );
        let fresh = stats::sorted(&stats.freshness_ms);
        run::set_percentile(&mut out, "serve.freshness_p99_ms", &fresh, 0.99);
        let hidden = hide_labels(&dataset, total);
        let last = last.expect("at least one epoch");
        let overhead = traced_cold_s / cold_s - 1.0;
        set_layer_metrics(&mut out, &engine, &hidden, &truth, &last, &stats, overhead);
        return out;
    }

    out.set("setup_s", stats::median(&setup));
    out.set("resolve_s", cold_s);
    let fresh = stats::sorted(&stats.freshness_ms);
    run::set_percentile(&mut out, "freshness_p50_ms", &fresh, 0.50);
    out.set("f1", f1);
    out.set("peak_rss_mb", peak_rss_mb);
    out
}

/// Per-layer metrics of a traced stream. Layer times are the last
/// epoch's, from the program's own er-obs spans under `serve.resolve`;
/// work counts are of the final input, which is exactly the last
/// epoch's input. Graph build has no span in the engine: it is the
/// resolve's time that no child span covers.
fn set_layer_metrics(
    out: &mut Outcome,
    engine: &ServeEngine,
    hidden: &Dataset,
    truth: &TruthPairs,
    last: &LastEpoch,
    stats: &LoopStats,
    overhead: f64,
) {
    let span = |path: &str| {
        last.report
            .span(path)
            .map_or(0.0, er_obs::SpanStat::total_seconds)
    };
    let materialize = span("serve.resolve/streaming.materialize");
    let blocking = span("serve.resolve/blocking.candidates");
    let seed = span("serve.resolve/simeng.kernel.jaro_winkler");
    let fusion = span("serve.resolve/fusion");
    let iter = span("serve.resolve/fusion/iter");
    let cliquerank = span("serve.resolve/fusion/cliquerank");
    for (name, s) in [
        ("materialize", materialize),
        ("blocking", blocking),
        ("seed", seed),
        ("fusion", fusion),
    ] {
        out.tracer.measured(last.resolve, name, s);
    }
    let ingest = out.tracer.duration_s(last.ingest);
    let n = hidden.len();
    out.set("tokenize.time_s", ingest + materialize);
    out.set("tokenize.records_per_s", n as f64 / (ingest + materialize));
    out.set("blocking.time_s", blocking);
    out.set("graph.time_s", out.tracer.self_s(last.resolve));
    let cells = last.report.counter("simeng.batch.cells_total") as f64;
    out.set("seed.time_s", seed);
    out.set("seed.cells", cells);
    out.set("seed.gcups", cells / seed / 1e9);
    out.set("iter.time_s", iter);
    out.set("cliquerank.time_s", cliquerank);
    out.set("fusion.other_s", fusion - iter - cliquerank);

    // Work counts of the final input through the batch entry point,
    // which builds the same corpus, candidates and graph as the
    // engine's last resolve (checked against its candidate pairs).
    let config = engine.config();
    let pool = WorkerPool::with_policy(config.fusion.threads, config.fusion.dispatch);
    let prepared =
        pipeline::prepare_with_strategy(hidden, config.max_df_fraction, &config.strategy, &pool);
    let snapshot = engine.snapshot();
    let same_pairs = prepared
        .graph
        .pairs()
        .iter()
        .map(|q| (q.a, q.b))
        .eq(snapshot.pairs().iter().copied());
    if !same_pairs {
        out.notes
            .push("batch-path graph differs from the engine's final candidate pairs".to_owned());
    }
    let candidates = config.strategy.candidate_pairs(&prepared.corpus, &pool);
    set_blocking_counts(out, &candidates, truth, n);
    set_graph_counts(out, &prepared.corpus, &prepared.graph);
    let iterations = last.report.counter("iter_iterations_total") as usize;
    set_iter_counts(out, iterations, &prepared.graph, iter);
    let reported = last.report.gauge("record_graph_edges").unwrap_or(0.0) as usize;
    set_cliquerank_counts(
        out,
        &prepared.graph,
        &config.fusion,
        None,
        reported,
        config.fusion.rounds,
        cliquerank,
    );

    let epochs = stats::sorted(&stats.epoch_ms);
    out.set("serve.epochs", epochs.len() as f64);
    out.set("serve.epoch_p50_ms", stats::median(&epochs));
    out.set("serve.epoch_max_ms", epochs[epochs.len() - 1]);
    out.set("serve.backlog_max", stats.backlog_max as f64);
    let measured = ingest + materialize + blocking + seed + iter + cliquerank;
    let coverage = measured / out.tracer.duration_s(last.root);
    run::set_trace_metrics(out, coverage, overhead);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn stalls_are_charged_to_every_record_due_during_them() {
        // 100 records/s; epochs cost 50 ms, except the third, which
        // stalls for 2 s.
        let now = Cell::new(0.0f64);
        let epochs = Cell::new(0usize);
        let mut published: Vec<(Range<usize>, f64)> = Vec::new();
        let (stall_from, stall_to) = (Cell::new(0.0), Cell::new(0.0));
        let stats = open_loop(
            500,
            100.0,
            &mut || now.get(),
            &mut |t| now.set(now.get().max(t)),
            &mut |range| {
                let k = epochs.get();
                epochs.set(k + 1);
                let cost = if k == 2 { 2.0 } else { 0.05 };
                if k == 2 {
                    stall_from.set(now.get());
                    stall_to.set(now.get() + cost);
                }
                now.set(now.get() + cost);
                published.push((range, now.get()));
            },
        );
        assert_eq!(
            stats.freshness_ms.len(),
            500,
            "every record is charged once"
        );
        assert_eq!(stats.epoch_ms.len(), published.len());
        // Freshness is publish time minus due time, record by record.
        for (range, at) in &published {
            for i in range.clone() {
                let want = (at - i as f64 / 100.0) * 1e3;
                assert!((stats.freshness_ms[i] - want).abs() < 1e-9);
            }
        }
        // Every record due during the stall waited at least until it
        // ended, and the backlog it built is visible.
        let (from, to) = (stall_from.get(), stall_to.get());
        let during: Vec<usize> = (0..500)
            .filter(|&i| (from..to).contains(&(i as f64 / 100.0)))
            .collect();
        assert!(
            during.len() >= 190,
            "{} records due in the stall",
            during.len()
        );
        for &i in &during {
            assert!(stats.freshness_ms[i] >= (to - i as f64 / 100.0) * 1e3);
        }
        assert!(stats.backlog_max >= during.len());
        let worst = stats.freshness_ms.iter().copied().fold(0.0, f64::max);
        assert!(
            worst >= 2_000.0,
            "the first record behind the stall waits it out"
        );
    }

    #[test]
    fn an_idle_engine_waits_for_the_next_arrival() {
        let now = Cell::new(0.0f64);
        let stats = open_loop(
            10,
            10.0,
            &mut || now.get(),
            &mut |t| now.set(now.get().max(t)),
            &mut |_| now.set(now.get() + 0.001),
        );
        // One record per epoch, each published 1 ms after it was due.
        assert_eq!(stats.epoch_ms.len(), 10);
        assert!(stats.freshness_ms.iter().all(|&f| (f - 1.0).abs() < 1e-6));
        assert_eq!(stats.backlog_max, 1);
    }
}
