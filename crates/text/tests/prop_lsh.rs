//! Property tests for MinHash/LSH banding and the meta-blocking
//! pipeline: recall against the banding bound, and bit-identical output
//! across thread counts and dispatch policies.

use er_pool::{DispatchPolicy, WorkerPool};
use er_text::blocking::{token_blocking, BlockingStrategy, MetaBlocking};
use er_text::lsh::{lsh_blocking, LshParams};
use er_text::metablocking::{meta_block, BlockCollection, MetaConfig, Pruning, WeightScheme};
use er_text::CorpusBuilder;
use proptest::prelude::*;

fn texts() -> impl Strategy<Value = Vec<String>> {
    // A small alphabet with 1–6 tokens per record gives a dense mix of
    // identical, overlapping and disjoint term sets.
    proptest::collection::vec("[a-e]( [a-e]){0,5}", 2..24)
}

/// Exact Jaccard similarity of two records' (post-filter) term sets.
fn jaccard(corpus: &er_text::Corpus, a: usize, b: usize) -> f64 {
    let (ta, tb) = (corpus.term_set(a), corpus.term_set(b));
    if ta.is_empty() && tb.is_empty() {
        return 0.0;
    }
    let shared = corpus.shared_term_count(a, b);
    let union = ta.len() + tb.len() - shared;
    shared as f64 / union as f64
}

proptest! {
    /// The banding bound at work: a pair whose collision probability is
    /// essentially 1 (within 1e-9) must be an LSH candidate. With
    /// 16 bands × 2 rows, identical sets collide with probability 1 and
    /// high-Jaccard sets are within rounding of it — the "expected
    /// rate" of the bound at its ceiling, where a miss is impossible
    /// rather than merely unlikely.
    #[test]
    fn high_jaccard_pairs_are_candidates(texts in texts()) {
        let corpus = CorpusBuilder::new().extend_texts(texts).build();
        let params = LshParams::new(16, 2);
        let pool = WorkerPool::new(1);
        let pairs = lsh_blocking(&corpus, &params, usize::MAX, &pool, None);
        for a in 0..corpus.len() {
            for b in a + 1..corpus.len() {
                let p = params.collision_probability(jaccard(&corpus, a, b));
                if p >= 1.0 - 1e-9 {
                    prop_assert!(
                        pairs.binary_search(&(a as u32, b as u32)).is_ok(),
                        "pair ({a}, {b}) collides with probability {p} but was missed"
                    );
                }
            }
        }
    }

    /// LSH candidates always share at least one band — and band keys
    /// are a function of the term set, so zero-similarity pairs (no
    /// shared term ⇒ jaccard 0 ⇒ rows can only agree by hash collision,
    /// which the 64-bit key space makes negligible) stay out.
    #[test]
    fn lsh_candidates_are_plausible(texts in texts()) {
        let corpus = CorpusBuilder::new().extend_texts(texts).build();
        let pool = WorkerPool::new(1);
        let pairs = lsh_blocking(&corpus, &LshParams::new(4, 4), usize::MAX, &pool, None);
        for w in pairs.windows(2) {
            prop_assert!(w[0] < w[1], "sorted + deduplicated");
        }
        for &(a, b) in &pairs {
            prop_assert!(a < b);
            prop_assert!(
                corpus.shared_term_count(a as usize, b as usize) >= 1,
                "LSH paired disjoint records ({a}, {b})"
            );
        }
    }

    /// The full blocking pipeline (MinHash → banding → block graph →
    /// purge/filter/prune) is bit-identical at 1/2/8 threads and across
    /// serial/parallel dispatch.
    #[test]
    fn pipeline_is_thread_and_dispatch_invariant(texts in texts()) {
        let corpus = CorpusBuilder::new().extend_texts(texts).build();
        let strategy = BlockingStrategy::meta_default();
        let reference = strategy.candidate_pairs(
            &corpus,
            &WorkerPool::with_policy(1, DispatchPolicy::always_serial()),
        );
        for threads in [1usize, 2, 8] {
            for policy in [DispatchPolicy::always_serial(), DispatchPolicy::always_parallel()] {
                let pool = WorkerPool::with_policy(threads, policy);
                prop_assert_eq!(
                    &reference,
                    &strategy.candidate_pairs(&corpus, &pool),
                    "threads={} policy={:?}", threads, policy
                );
            }
        }
    }

    /// A neutral meta-blocking config (no filtering, weight floor 1,
    /// same purge cap) over the token block collection reproduces plain
    /// token blocking exactly — the pipeline only ever *removes*
    /// candidates.
    #[test]
    fn neutral_meta_config_is_token_blocking(texts in texts(), cap in 2usize..16) {
        let corpus = CorpusBuilder::new().extend_texts(texts).build();
        let pool = WorkerPool::new(1);
        let blocks = BlockCollection::from_token_blocks(&corpus);
        let neutral = MetaConfig {
            max_block_size: cap,
            filter_ratio: 1.0,
            weight: WeightScheme::Cbs,
            prune: Pruning::MinWeight(1),
        };
        prop_assert_eq!(
            meta_block(&blocks, corpus.len(), &neutral, &pool),
            token_blocking(&corpus, cap)
        );
    }

    /// Meta-blocking output is always a subset of the union of its
    /// source collections' within-block pairs, whatever the config.
    #[test]
    fn meta_never_invents_pairs(texts in texts(), floor in 1u64..4) {
        let corpus = CorpusBuilder::new().extend_texts(texts).build();
        let pool = WorkerPool::new(1);
        let strategy = BlockingStrategy::Meta(MetaBlocking {
            token_blocks: true,
            lsh: Some(LshParams::new(8, 2)),
            config: MetaConfig {
                prune: Pruning::MinWeight(floor),
                ..MetaConfig::default()
            },
        });
        let meta = strategy.candidate_pairs(&corpus, &pool);
        let token = token_blocking(&corpus, usize::MAX);
        let lsh = lsh_blocking(&corpus, &LshParams::new(8, 2), usize::MAX, &pool, None);
        for &p in &meta {
            prop_assert!(
                token.binary_search(&p).is_ok() || lsh.binary_search(&p).is_ok(),
                "meta pair {:?} is in neither source collection", p
            );
        }
    }
}
