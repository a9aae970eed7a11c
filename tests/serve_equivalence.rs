//! The serving engine's core contract: incremental resolution is
//! **bit-identical** to a from-scratch batch run over the same record
//! prefix — at every prefix, at 1/2/8 threads, and on both sides of the
//! serial/parallel dispatch cutover.
//!
//! The chain underneath: the streaming corpus materializes exactly the
//! batch corpus (er-text `prop_streaming`), the signature-cached
//! blocking paths emit exactly the batch candidate lists, and fusion is
//! the seeded batch resolver on the rebuilt graph and seeds.

use er_pool::DispatchPolicy;
use er_serve::{resolve_batch, ServeConfig, ServeEngine};
use er_text::BlockingStrategy;
use proptest::prelude::*;

fn serve_config(threads: usize, dispatch: DispatchPolicy) -> ServeConfig {
    let mut config = ServeConfig {
        // Generated texts are tiny; a permissive frequent-term cap keeps
        // enough terms for candidates to exist (the batch path uses the
        // identical cap, so the comparison is still exact).
        max_df_fraction: 0.6,
        ..ServeConfig::default()
    };
    config.fusion.threads = threads;
    config.fusion.dispatch = dispatch;
    config.fusion.rounds = 2;
    config
}

fn record_texts() -> impl Strategy<Value = Vec<String>> {
    // Clustered near-duplicates: a small pool of base tokens yields
    // overlapping term sets, moving df caps, and multi-record
    // components — the regime where incremental caching can go wrong.
    // Some entries become degenerate records instead: empty,
    // whitespace-only and punctuation-only texts normalize to no
    // tokens, and a run of up to 12 copies of one text pushes its terms
    // past the df cap.
    let entry = (
        0u8..8,
        "[a-h]{2,4}( [a-h]{2,4}){1,5}",
        "[ \t]{1,3}",
        "[.,;:!?-]{1,4}",
        2usize..=12,
    );
    proptest::collection::vec(entry, 2..14).prop_map(|entries| {
        entries
            .into_iter()
            .flat_map(|(kind, text, blank, punct, run)| match kind {
                0 => vec![String::new()],
                1 => vec![blank],
                2 => vec![punct],
                3 => vec![text; run],
                _ => vec![text],
            })
            .collect()
    })
}

proptest! {
    // Each case runs the full prefix ladder; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn incremental_equals_batch_across_threads_and_dispatch(texts in record_texts()) {
        for (threads, dispatch) in [
            (1usize, DispatchPolicy::always_serial()),
            (2, DispatchPolicy::always_parallel()),
            (8, DispatchPolicy::always_parallel()),
        ] {
            let config = serve_config(threads, dispatch);
            let mut engine = ServeEngine::new(config);
            for (i, t) in texts.iter().enumerate() {
                engine.ingest(t);
                let snap = engine.resolve();
                let batch = resolve_batch(texts[..=i].iter().cloned(), engine.config());
                prop_assert!(
                    snap.bitwise_eq(&batch),
                    "threads={threads} prefix={i}"
                );
            }
        }
    }

    #[test]
    fn incremental_equals_batch_under_meta_blocking(texts in record_texts()) {
        let mut config = serve_config(2, DispatchPolicy::always_parallel());
        config.strategy = BlockingStrategy::meta_default();
        let mut engine = ServeEngine::new(config);
        for (i, t) in texts.iter().enumerate() {
            engine.ingest(t);
            let snap = engine.resolve();
            let batch = resolve_batch(texts[..=i].iter().cloned(), engine.config());
            prop_assert!(snap.bitwise_eq(&batch), "prefix={i}");
        }
    }
}

#[test]
fn census_stream_equals_batch_with_micro_batches() {
    // A realistic stream: the census generator's duplicate-heavy
    // records, ingested in uneven micro-batches with a resolve after
    // each, against the batch reference — across thread counts and
    // dispatch policies. All runs must agree bitwise with each other
    // (thread/dispatch invariance) and with the batch run (incremental
    // invariance).
    let dataset = er_datasets::generators::census::generate(&er_datasets::CensusConfig {
        records: 120,
        duplicate_rate: 0.3,
        seed: 0xC0FFEE,
    });
    let texts: Vec<String> = dataset.texts().map(str::to_owned).collect();
    let chunks = [7usize, 1, 23, 40, 5, 44];
    let mut reference: Option<Vec<u64>> = None;
    for (threads, dispatch) in [
        (1usize, DispatchPolicy::always_serial()),
        (2, DispatchPolicy::always_parallel()),
        (8, DispatchPolicy::always_parallel()),
    ] {
        let config = serve_config(threads, dispatch);
        let mut engine = ServeEngine::new(config);
        let mut offset = 0usize;
        for &chunk in &chunks {
            let end = (offset + chunk).min(texts.len());
            engine.ingest_batch(texts[offset..end].iter().map(String::as_str));
            offset = end;
            let snap = engine.resolve();
            let batch = resolve_batch(texts[..end].iter().cloned(), engine.config());
            assert!(snap.bitwise_eq(&batch), "threads={threads} records={end}");
        }
        assert_eq!(offset, texts.len(), "chunks must cover the dataset");
        let bits: Vec<u64> = engine
            .snapshot()
            .probabilities()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(r, &bits, "threads={threads}"),
        }
    }
}
