//! Property tests for the streaming corpus and the signature cache: at
//! every ingest prefix the materialized snapshot must be *identical* to
//! what the batch [`CorpusBuilder`] produces from the same texts in the
//! same order, and the cached candidate-generation paths must emit the
//! same pairs as their batch counterparts. This is the foundation of the
//! serving engine's incremental ≡ batch bit-identity guarantee.

use er_pool::WorkerPool;
use er_text::blocking::{BlockingStrategy, MetaBlocking};
use er_text::lsh::{lsh_blocking, minhash_band_keys, LshParams, SignatureCache};
use er_text::{Corpus, CorpusBuilder, StreamingCorpus, TermId};
use proptest::prelude::*;

fn texts() -> impl Strategy<Value = Vec<String>> {
    // A small alphabet keeps document frequencies high enough for the
    // moving df cap to actually flip terms in and out across prefixes.
    // Some entries become degenerate records instead: empty,
    // whitespace-only and punctuation-only texts normalize to no
    // tokens, and a run of up to 12 copies of one text pushes its terms
    // past the df cap.
    let entry = (
        0u8..8,
        "[a-e]( [a-e]){0,5}",
        "[ \t]{1,3}",
        "[.,;:!?-]{1,4}",
        2usize..=12,
    );
    proptest::collection::vec(entry, 1..20).prop_map(|entries| {
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

/// Field-by-field equality through the public accessors.
fn assert_same(a: &Corpus, b: &Corpus) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.vocab_len(), b.vocab_len());
    for i in 0..a.vocab_len() {
        let t = TermId(i as u32);
        assert_eq!(a.vocab().term(t), b.vocab().term(t));
        assert_eq!(a.vocab().doc_freq(t), b.vocab().doc_freq(t));
        assert_eq!(a.postings(t), b.postings(t));
    }
    for r in 0..a.len() {
        assert_eq!(a.tokens(r), b.tokens(r));
        assert_eq!(a.term_set(r), b.term_set(r));
    }
    assert_eq!(a.removed_terms(), b.removed_terms());
}

proptest! {
    #[test]
    fn streaming_materialize_equals_batch_at_every_prefix(
        texts in texts(),
        df in 0.2f64..1.0,
    ) {
        let mut s = StreamingCorpus::new();
        for (i, t) in texts.iter().enumerate() {
            s.push_record(t);
            let batch = CorpusBuilder::new()
                .extend_texts(texts[..=i].iter().cloned())
                .max_df_fraction(df)
                .build();
            assert_same(&s.materialize(df), &batch);
        }
    }

    #[test]
    fn signature_cache_tracks_growing_corpus(texts in texts()) {
        // Warm the cache across every prefix of a growing corpus (the
        // serving ingest pattern): cached keys must equal a fresh
        // computation each time.
        let pool = WorkerPool::new(1);
        let params = LshParams::default();
        let mut s = StreamingCorpus::new();
        let mut cache = SignatureCache::new();
        for t in &texts {
            s.push_record(t);
            let c = s.materialize(0.5);
            let cached = er_text::lsh::minhash_band_keys_cached(&c, &params, &pool, &mut cache)
                .to_vec();
            prop_assert_eq!(cached, minhash_band_keys(&c, &params, &pool));
        }
    }

    #[test]
    fn cached_blocking_equals_plain_while_ingesting(texts in texts()) {
        let pool = WorkerPool::new(1);
        let params = LshParams::default();
        let strategies = [
            BlockingStrategy::Lsh { params, max_block_size: 64 },
            BlockingStrategy::Meta(MetaBlocking::default()),
        ];
        for strategy in &strategies {
            let mut s = StreamingCorpus::new();
            let mut graph_cache = SignatureCache::new();
            let mut lsh_cache = SignatureCache::new();
            for t in &texts {
                s.push_record(t);
                let c = s.materialize(0.5);
                // The candidate graph through a warm cache equals the
                // plain one pair for pair and term for term.
                let cached = strategy.candidate_graph(&c, &pool, Some(&mut graph_cache), None);
                let plain = strategy.candidate_graph(&c, &pool, None, None);
                prop_assert_eq!(cached.pairs(), plain.pairs(), "{}", strategy.name());
                for p in 0..plain.pair_count() as u32 {
                    prop_assert_eq!(cached.terms_of_pair(p), plain.terms_of_pair(p));
                }
                // So do the LSH candidates and buckets beneath it.
                prop_assert_eq!(
                    lsh_blocking(&c, &params, 64, &pool, Some(&mut lsh_cache)),
                    lsh_blocking(&c, &params, 64, &pool, None)
                );
            }
        }
    }
}
