//! Property tests for the blocking strategies.

use er_pool::{DispatchPolicy, WorkerPool};
use er_text::blocking::{
    blocking_key, blocking_key_into, reduction_ratio, seed_similarities, sorted_neighborhood,
    token_blocking, BlockingStrategy, SEED_KERNEL,
};
use er_text::{BatchScorer, CorpusBuilder};
use proptest::prelude::*;

fn texts() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-d]( [a-d]){0,4}", 2..20)
}

/// Record texts mixing shared words (records in candidate pairs), a word
/// of the record's own (a record in no pair) and no token at all.
fn seeded_texts() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec((0u32..5, "[a-c]( [a-eé]){0,4}"), 0..24).prop_map(|drawn| {
        drawn
            .into_iter()
            .enumerate()
            .map(|(r, (kind, text))| match kind {
                0 => String::new(),
                1 => format!("solo{r}"),
                _ => text,
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn token_blocking_pairs_share_a_term(texts in texts()) {
        let corpus = CorpusBuilder::new().extend_texts(texts).build();
        let pairs = token_blocking(&corpus, 64);
        for (a, b) in pairs {
            prop_assert!(a < b);
            prop_assert!(
                corpus.shared_term_count(a as usize, b as usize) >= 1,
                "blocked pair ({}, {}) shares no term", a, b
            );
        }
    }

    #[test]
    fn token_blocking_is_complete_without_cap(texts in texts()) {
        // With an unbounded cap, token blocking finds EVERY pair that
        // shares a term.
        let corpus = CorpusBuilder::new().extend_texts(texts).build();
        let pairs = token_blocking(&corpus, usize::MAX);
        for a in 0..corpus.len() as u32 {
            for b in a + 1..corpus.len() as u32 {
                if corpus.shared_term_count(a as usize, b as usize) >= 1 {
                    prop_assert!(pairs.binary_search(&(a, b)).is_ok());
                }
            }
        }
    }

    #[test]
    fn smaller_cap_never_adds_pairs(texts in texts(), cap in 2usize..10) {
        let corpus = CorpusBuilder::new().extend_texts(texts).build();
        let small = token_blocking(&corpus, cap);
        let big = token_blocking(&corpus, cap * 4);
        for p in &small {
            prop_assert!(big.binary_search(p).is_ok(), "cap widening lost pair {:?}", p);
        }
        prop_assert!(small.len() <= big.len());
    }

    #[test]
    fn sorted_neighborhood_bounds(texts in texts(), window in 2usize..6) {
        let corpus = CorpusBuilder::new().extend_texts(texts).build();
        let pairs = sorted_neighborhood(&corpus, window);
        // At most (window - 1) * n pairs, all ordered and distinct.
        prop_assert!(pairs.len() <= (window - 1) * corpus.len());
        for w in pairs.windows(2) {
            prop_assert!(w[0] < w[1], "pairs must be sorted and deduplicated");
        }
        for &(a, b) in &pairs {
            prop_assert!(a < b);
            prop_assert!((b as usize) < corpus.len());
        }
    }

    #[test]
    fn wider_window_is_superset(texts in texts()) {
        let corpus = CorpusBuilder::new().extend_texts(texts).build();
        let narrow = sorted_neighborhood(&corpus, 2);
        let wide = sorted_neighborhood(&corpus, 5);
        for p in &narrow {
            prop_assert!(wide.binary_search(p).is_ok());
        }
    }

    #[test]
    fn keys_are_deterministic(texts in texts()) {
        let corpus = CorpusBuilder::new().extend_texts(texts).build();
        for r in 0..corpus.len() {
            prop_assert_eq!(blocking_key(&corpus, r), blocking_key(&corpus, r));
        }
    }

    #[test]
    fn key_tape_matches_allocating_keys(texts in texts()) {
        // The zero-alloc buffer-reuse form builds the same keys as the
        // fresh-String wrapper, record by record, across any tape.
        let corpus = CorpusBuilder::new().extend_texts(texts).build();
        let mut terms = Vec::new();
        let mut tape = String::new();
        let mut bounds = vec![0usize];
        for r in 0..corpus.len() {
            blocking_key_into(&corpus, r, &mut terms, &mut tape);
            bounds.push(tape.len());
        }
        for r in 0..corpus.len() {
            prop_assert_eq!(&tape[bounds[r]..bounds[r + 1]], blocking_key(&corpus, r));
        }
    }

    #[test]
    fn reduction_ratio_in_unit_range(n in 2usize..100, c in 0usize..5000) {
        let universe = n * (n - 1) / 2;
        let c = c.min(universe);
        let rr = reduction_ratio(n, c);
        prop_assert!((0.0..=1.0).contains(&rr));
    }

    /// Seeding builds text only for the records its pairs name, and
    /// scores every pair exactly as a scorer over every record does.
    #[test]
    fn seed_similarities_equal_full_tape_scores(texts in seeded_texts()) {
        let corpus = CorpusBuilder::new().extend_texts(texts).build();
        let serial = WorkerPool::with_policy(1, DispatchPolicy::always_serial());
        let full = BatchScorer::new(&corpus);
        for strategy in [BlockingStrategy::TokenGraph, BlockingStrategy::meta_default()] {
            let graph = strategy.candidate_graph(&corpus, &serial, None, None);
            let pairs: Vec<(u32, u32)> = graph.pairs().iter().map(|p| (p.a, p.b)).collect();
            let want = full.score(SEED_KERNEL, &pairs, &serial);
            for threads in [1usize, 2] {
                let pool = WorkerPool::with_policy(threads, DispatchPolicy::always_parallel());
                let got = seed_similarities(&corpus, &graph, &pool);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got), bits(&want), "{} at {} threads", strategy.name(), threads);
            }
        }
    }
}
