//! The observability layer must never perturb results: a fusion run with
//! er-obs recording ON is bitwise identical to the same run with
//! recording OFF, at every thread count. This is the contract that lets
//! the bench harness record telemetry on the measured runs themselves
//! instead of on a shadow run.
//!
//! `er-bench` pins the `obs` feature on all first-party crates, so this
//! test exercises the *instrumented* code paths with the runtime flag in
//! both positions — the compiled-out stub path is covered by the
//! `--no-default-features` build gate in `cargo xtask analyze`.

use std::sync::Mutex;

use er_bench::fusion_config;
use er_core::Resolver;
use er_graph::{BipartiteGraph, BipartiteGraphBuilder};
use proptest::prelude::*;

/// The recording flag and registry are process-global; the harness runs
/// tests on parallel threads, so every test serializes on this lock
/// (poison is irrelevant — a panicked holder already failed its test).
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// A random bipartite structure: up to 12 terms over up to 16 records.
fn bipartite() -> impl Strategy<Value = BipartiteGraph> {
    proptest::collection::vec(proptest::collection::btree_set(0u32..16, 0..6), 1..12).prop_map(
        |postings| {
            let lists: Vec<Vec<u32>> = postings
                .iter()
                .map(|s| s.iter().copied().collect())
                .collect();
            let mut builder = BipartiteGraphBuilder::new(16, lists.len());
            for (t, p) in lists.iter().enumerate() {
                builder = builder.postings(t as u32, p);
            }
            builder.build()
        },
    )
}

fn resolve_bits(graph: &BipartiteGraph, threads: usize, recording: bool) -> Vec<u64> {
    er_obs::set_recording(recording);
    er_obs::reset();
    let mut cfg = fusion_config();
    cfg.threads = threads;
    let outcome = Resolver::new(cfg).resolve(graph);
    let bits = outcome
        .matching_probabilities
        .iter()
        .map(|p| p.to_bits())
        .collect();
    er_obs::set_recording(false);
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recording_never_perturbs_fusion(graph in bipartite()) {
        let _guard = REGISTRY_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let baseline = resolve_bits(&graph, 1, false);
        for threads in [1usize, 2, 8] {
            for recording in [false, true] {
                let bits = resolve_bits(&graph, threads, recording);
                prop_assert_eq!(
                    &bits,
                    &baseline,
                    "fusion diverged at threads={} recording={}",
                    threads,
                    recording
                );
            }
        }
    }
}

/// Sanity check that the proptest above is exercising a live registry:
/// with recording on, the instrumented resolve must actually produce a
/// `fusion` span and round counters (otherwise "identical with obs on"
/// would be vacuously true).
#[test]
fn recording_actually_records() {
    let _guard = REGISTRY_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let graph = BipartiteGraphBuilder::new(4, 2)
        .postings(0, &[0, 1, 2])
        .postings(1, &[1, 2, 3])
        .build();
    er_obs::set_recording(true);
    er_obs::reset();
    let _ = Resolver::new(fusion_config()).resolve(&graph);
    let report = er_obs::snapshot();
    er_obs::set_recording(false);
    assert!(report.span("fusion").is_some(), "fusion span missing");
    assert!(
        report.counter("fusion_rounds_total") > 0,
        "round counter missing"
    );
}

/// The batch corpus build records one `corpus.build` span however its
/// texts arrive (one bulk `extend_texts` or a `push_text` per record),
/// with the interned tokens and the vocabulary size beside it.
#[test]
fn corpus_build_records_one_span_per_build() {
    let _guard = REGISTRY_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let texts = ["fenix at the argyle", "fenix sunset blvd", "", "la la land"];
    er_obs::set_recording(true);
    er_obs::reset();
    let bulk = er_text::CorpusBuilder::new().extend_texts(texts).build();
    let bulk_report = er_obs::snapshot();
    er_obs::reset();
    let mut builder = er_text::CorpusBuilder::new();
    for text in texts {
        builder = builder.push_text(text);
    }
    let one_by_one = builder.max_df_fraction(0.5).build();
    let report = er_obs::snapshot();
    er_obs::set_recording(false);
    for (report, corpus) in [(&bulk_report, &bulk), (&report, &one_by_one)] {
        let span = report.span("corpus.build").expect("corpus.build span");
        assert_eq!(span.count, 1, "one span per build, not per record");
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.counter("corpus_tokens_total"), 10);
        assert_eq!(
            report.gauge("corpus_terms"),
            Some(corpus.vocab_len() as f64)
        );
    }
    assert_eq!(bulk.vocab_len(), 8);
}
