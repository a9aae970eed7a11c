//! **smoke** — the release-mode CI gates, in one binary.
//!
//! `main` runs every gate of [`GATES`] in order. A gate prints its
//! measurements, asserts its bit-identity contract (a divergence
//! panics) and returns the bounds it missed. `main` then prints every
//! gate's verdict and exits 1 if any gate failed, so a failing gate
//! does not hide the gates after it. Sizes are fixed (no `ER_SCALE`) so
//! readings compare across CI runs; `ER_THREADS` sets the thread count
//! of the pooled paths, which never changes a result.
//!
//! * `simrank` — the CSR-flattened bipartite SimRank (§III-A, Eq. 1–2)
//!   against its HashMap reference oracle on a synthetic record–term
//!   graph: scores bit-identical, and the flat kernel (universe
//!   construction included) at least as fast as the oracle. The pooled
//!   ratio is reported, not gated.
//! * `similarity` — the batch string-similarity engine against the
//!   per-pair reference path (fresh strings, scalar DP, no memo) on a
//!   restaurant-style candidate list, single thread: output
//!   bit-identical, batch at least as fast in aggregate and on at least
//!   2 of the 4 kernels (shared runners are too noisy to gate all four).
//! * `blocking` — meta-blocking on census at 20 k and 60 k records:
//!   candidates per record grow at most 2× (the generator pins block
//!   sizes across scales, so superlinear blocking shows at once) and
//!   pair completeness is at least 0.95 at both sizes.
//! * `serve` — 2,400 census records streamed through er-serve in five
//!   uneven micro-batches: after each one the snapshot is bitwise equal
//!   to `resolve_batch` of the same prefix, the CliqueRank cache and the
//!   signature cache each hit at least once (so the incremental path
//!   runs), and ingest plus resolve sustains at least 100 records/s.
//!
//! Run: `cargo bench -p er-bench --bench smoke`.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use er_bench::{bench_threads, census, fmt_duration, time_min};
use er_datasets::{generators, RestaurantConfig};
use er_graph::simrank::{bipartite_simrank_pooled, reference, SimRankConfig};
use er_pool::WorkerPool;
use er_serve::{resolve_batch, ServeConfig, ServeEngine};
use er_text::blocking::{reduction_ratio, BlockingStrategy};
use er_text::{BatchScorer, CorpusBuilder, SimKernel};
use unsupervised_er::pipeline::{self, DEFAULT_MAX_DF_FRACTION};

/// A gate prints its measurements and returns the bounds it missed.
type Gate = fn() -> Vec<String>;

const GATES: [(&str, Gate); 4] = [
    ("simrank", simrank),
    ("similarity", similarity),
    ("blocking", blocking),
    ("serve", serve),
];

/// Flat SimRank's speed over the HashMap oracle.
const SIMRANK_MIN_SPEEDUP: f64 = 1.0;
/// Batch similarity's speed over per-pair, in aggregate and per kernel.
const SIMILARITY_MIN_SPEEDUP: f64 = 1.0;
/// Kernels that must reach [`SIMILARITY_MIN_SPEEDUP`] on their own.
const SIMILARITY_MIN_KERNELS: usize = 2;
/// Candidates-per-record growth from the small blocking size to the large.
const BLOCKING_MAX_GROWTH: f64 = 2.0;
/// Pair completeness at every blocking size.
const BLOCKING_MIN_COMPLETENESS: f64 = 0.95;
/// Records per second over the serve stream's ingests and resolves.
const SERVE_MIN_THROUGHPUT: f64 = 100.0;

fn main() -> ExitCode {
    let mut verdicts = Vec::with_capacity(GATES.len());
    for (name, gate) in GATES {
        println!("\n== {name}");
        let failures = gate();
        for failure in &failures {
            eprintln!("FAIL [{name}]: {failure}");
        }
        verdicts.push((name, failures.is_empty()));
    }
    println!("\n== verdicts");
    for &(name, ok) in &verdicts {
        println!("  {name:<11} {}", if ok { "OK" } else { "FAIL" });
    }
    if verdicts.iter().all(|&(_, ok)| ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const SIMRANK_RECORDS: usize = 1500;
const SIMRANK_TERMS: usize = 600;
const TERMS_PER_RECORD: usize = 6;

/// Deterministic synthetic corpus: each record draws `TERMS_PER_RECORD`
/// term ids from an LCG, skewed toward low ids (min of two draws) so a
/// head of common terms produces realistic co-occurrence blocks while
/// the tail stays discriminative.
fn synthetic_record_terms() -> Vec<Vec<u32>> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..SIMRANK_RECORDS)
        .map(|_| {
            let mut terms: Vec<u32> = (0..TERMS_PER_RECORD)
                .map(|_| {
                    let a = next() % SIMRANK_TERMS as u32;
                    let b = next() % SIMRANK_TERMS as u32;
                    a.min(b)
                })
                .collect();
            terms.sort_unstable();
            terms.dedup();
            terms
        })
        .collect()
}

fn simrank() -> Vec<String> {
    let owned = synthetic_record_terms();
    let record_terms: Vec<&[u32]> = owned.iter().map(Vec::as_slice).collect();
    let cfg = SimRankConfig::default();
    let flat_on = |pool: &WorkerPool| {
        bipartite_simrank_pooled(&record_terms, SIMRANK_TERMS, &cfg, None, pool)
    };
    let oracle =
        || reference::bipartite_simrank_reference(&record_terms, SIMRANK_TERMS, &cfg, None);

    // Correctness first: one run of each, compared bit-for-bit.
    let (ref_records, ref_terms) = oracle();
    let serial = WorkerPool::new(1);
    let flat = flat_on(&serial);
    assert_eq!(
        flat.tracked_record_pairs(),
        ref_records.len(),
        "flat kernel tracks a different record-pair universe than the oracle"
    );
    for (pair, s) in flat.record_entries() {
        assert_eq!(
            s.to_bits(),
            ref_records[&pair].to_bits(),
            "record scores diverged at {pair:?}"
        );
    }
    for (pair, s) in flat.term_entries() {
        assert_eq!(
            s.to_bits(),
            ref_terms[&pair].to_bits(),
            "term scores diverged at {pair:?}"
        );
    }
    println!(
        "  bit-identity OK over {} record pairs / {} tracked term pairs",
        ref_records.len(),
        ref_terms.len()
    );

    let hashmap_s = time_min(2, || {
        std::hint::black_box(oracle());
    });
    let flat_s = time_min(3, || {
        std::hint::black_box(flat_on(&serial));
    });
    let pool = WorkerPool::new(bench_threads());
    let pooled_s = time_min(3, || {
        std::hint::black_box(flat_on(&pool));
    });
    let ratio = hashmap_s / flat_s;
    println!(
        "  hashmap {hashmap_s:.4}s  flat {flat_s:.4}s  speedup {ratio:.2}x  \
         (pooled {pooled_s:.4}s, {:.2}x at {} threads)",
        hashmap_s / pooled_s,
        pool.threads()
    );
    let mut failures = Vec::new();
    if ratio < SIMRANK_MIN_SPEEDUP {
        failures.push(format!(
            "flattened SimRank at {ratio:.2}x the HashMap reference (min {SIMRANK_MIN_SPEEDUP}x)"
        ));
    }
    failures
}

fn similarity() -> Vec<String> {
    let dataset = generators::restaurant::generate(&RestaurantConfig {
        records: 400,
        duplicate_pairs: 60,
        seed: 17,
    });
    let prepared = pipeline::prepare(&dataset);
    let scorer = BatchScorer::new(&prepared.corpus);
    let idx: Vec<(u32, u32)> = prepared.graph.pairs().iter().map(|p| (p.a, p.b)).collect();
    let pool = WorkerPool::new(1);
    println!(
        "  {} pairs, {} DP cells, single thread",
        idx.len(),
        scorer.cells(&idx)
    );

    let mut total_per_pair = 0.0;
    let mut total_batch = 0.0;
    let mut kernels_ok = 0usize;
    for kernel in SimKernel::ALL {
        let mut oracle = vec![0.0f64; idx.len()];
        let per_pair = |out: &mut [f64]| {
            for (v, &(a, b)) in out.iter_mut().zip(&idx) {
                *v = scorer.score_pair_reference(kernel, a, b);
            }
        };
        per_pair(&mut oracle);
        let mut out = vec![0.0f64; idx.len()];
        scorer.score_into(kernel, &idx, &mut out, &pool);
        let ob: Vec<u64> = oracle.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            ob,
            bb,
            "{}: batch engine diverged from the per-pair reference",
            kernel.name()
        );

        let per_pair_s = time_min(3, || per_pair(&mut oracle));
        let batch_s = time_min(3, || scorer.score_into(kernel, &idx, &mut out, &pool));
        let ratio = per_pair_s / batch_s;
        total_per_pair += per_pair_s;
        total_batch += batch_s;
        if ratio >= SIMILARITY_MIN_SPEEDUP {
            kernels_ok += 1;
        }
        println!(
            "  {:<15} per-pair {per_pair_s:.4}s  batch {batch_s:.4}s  speedup {ratio:.2}x",
            kernel.name()
        );
    }

    let aggregate = total_per_pair / total_batch;
    println!(
        "  aggregate: per-pair {total_per_pair:.4}s  batch {total_batch:.4}s  ({aggregate:.2}x), \
         {kernels_ok}/{} kernels at ≥ {SIMILARITY_MIN_SPEEDUP}x",
        SimKernel::ALL.len()
    );
    let mut failures = Vec::new();
    if aggregate < SIMILARITY_MIN_SPEEDUP {
        failures.push(format!(
            "batch engine at {aggregate:.2}x per-pair in aggregate (min {SIMILARITY_MIN_SPEEDUP}x)"
        ));
    }
    if kernels_ok < SIMILARITY_MIN_KERNELS {
        failures.push(format!(
            "only {kernels_ok} kernels at ≥ {SIMILARITY_MIN_SPEEDUP}x batch speedup \
             (min {SIMILARITY_MIN_KERNELS})"
        ));
    }
    failures
}

const BLOCKING_SIZES: [usize; 2] = [20_000, 60_000];

fn blocking() -> Vec<String> {
    let pool = WorkerPool::new(bench_threads());
    let strategy = BlockingStrategy::meta_default();
    let mut failures = Vec::new();
    let mut cand_per_record = [0.0; BLOCKING_SIZES.len()];
    for (n, cpr_slot) in BLOCKING_SIZES.into_iter().zip(&mut cand_per_record) {
        let dataset = census(n);
        let corpus = CorpusBuilder::new()
            .extend_texts(dataset.texts())
            .max_df_fraction(DEFAULT_MAX_DF_FRACTION)
            .build();
        let mut truth = dataset.matching_pairs();
        truth.sort_unstable();

        let t = Instant::now();
        let pairs = strategy.candidate_pairs(&corpus, &pool);
        let elapsed = t.elapsed();
        let found = truth
            .iter()
            .filter(|p| pairs.binary_search(p).is_ok())
            .count();
        let pc = found as f64 / truth.len() as f64;
        let cpr = pairs.len() as f64 / n as f64;
        println!(
            "  n={n:<6} candidates={:<9} cand/rec={cpr:<7.2} red.ratio={:<9.6} pair-compl={pc:.4} ({})",
            pairs.len(),
            reduction_ratio(n, pairs.len()),
            fmt_duration(elapsed)
        );
        if pc < BLOCKING_MIN_COMPLETENESS {
            failures.push(format!(
                "pair completeness {pc:.4} at n={n} (min {BLOCKING_MIN_COMPLETENESS}): \
                 pruning is dropping duplicates"
            ));
        }
        *cpr_slot = cpr;
    }

    let [small, large] = BLOCKING_SIZES;
    let growth = cand_per_record[1] / cand_per_record[0];
    println!(
        "  cand/rec growth {}k -> {}k: {growth:.2}x",
        small / 1000,
        large / 1000
    );
    if growth > BLOCKING_MAX_GROWTH {
        failures.push(format!(
            "candidates per record grew {growth:.2}x from {small} to {large} records \
             (max {BLOCKING_MAX_GROWTH}x): blocking is superlinear"
        ));
    }
    failures
}

/// Uneven micro-batches: resolve cadence in a real stream is not
/// uniform, and unequal prefixes catch df-cap-flip bugs a fixed cadence
/// can miss.
const SERVE_CHUNKS: [usize; 5] = [400, 73, 927, 600, 400];

fn serve() -> Vec<String> {
    let records: usize = SERVE_CHUNKS.iter().sum();
    let threads = bench_threads();
    let texts: Vec<String> = census(records).texts().map(str::to_owned).collect();
    let mut config = ServeConfig {
        strategy: BlockingStrategy::meta_default(),
        ..ServeConfig::default()
    };
    config.fusion.threads = threads;
    config.fusion.rounds = 2;
    println!(
        "  {records} census records in {} chunks, {threads} threads",
        SERVE_CHUNKS.len()
    );

    let mut engine = ServeEngine::new(config);
    let mut failures = Vec::new();
    let mut offset = 0usize;
    let stream_start = Instant::now();
    let mut stream_time = Duration::ZERO;
    for chunk in SERVE_CHUNKS {
        let end = offset + chunk;
        let t = Instant::now();
        engine.ingest_batch(texts[offset..end].iter().map(String::as_str));
        let snap = engine.resolve();
        stream_time += t.elapsed();
        let batch = resolve_batch(texts[..end].iter().cloned(), engine.config());
        let ok = snap.bitwise_eq(&batch);
        println!(
            "  records={end:<5} matches={:<5} clusters={:<5} epoch={} {}",
            snap.matches().len(),
            snap.clusters().len(),
            snap.epoch(),
            if ok { "≡ batch" } else { "DIVERGED" },
        );
        if !ok {
            failures.push(format!(
                "incremental resolution diverged from the batch reference at {end} records"
            ));
        }
        offset = end;
    }
    let total = stream_start.elapsed();

    let throughput = records as f64 / stream_time.as_secs_f64();
    let (hits, reused) = (engine.cache().hits(), engine.signatures().reused());
    println!(
        "  stream: {} ingest+resolve ({} with batch checks), {throughput:.0} rec/s, \
         cache hits={hits} misses={}, signatures reused={reused}",
        fmt_duration(stream_time),
        fmt_duration(total),
        engine.cache().misses(),
    );
    if hits == 0 {
        failures.push(
            "CliqueRank cache never replayed a component: the incremental path did not run"
                .to_owned(),
        );
    }
    if reused == 0 {
        failures.push("MinHash signature cache never reused a signature".to_owned());
    }
    if throughput < SERVE_MIN_THROUGHPUT {
        failures.push(format!(
            "sustained ingest throughput {throughput:.0} rec/s (min {SERVE_MIN_THROUGHPUT})"
        ));
    }
    failures
}
