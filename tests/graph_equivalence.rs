//! The one graph builder every resolve path shares,
//! `BlockingStrategy::candidate_graph`, against an oracle written here:
//! the postings enumeration with the candidate policy and the strategy's
//! candidate list combined into one `pair_filter` closure. Pairs and
//! per-pair term lists must be identical for single-source and
//! cross-source corpora under every strategy, with and without a
//! signature cache; and the batch pipeline and the serving engine's
//! batch reference must build the same candidate pairs.

use er_datasets::{Dataset, Record, SourcePolicy};
use er_graph::{BipartiteGraph, BipartiteGraphBuilder};
use er_pool::WorkerPool;
use er_serve::{resolve_batch, ServeConfig};
use er_text::{BlockingStrategy, Corpus, CorpusBuilder, LshParams, SignatureCache, TermId};
use proptest::prelude::*;
use unsupervised_er::pipeline;

type Keep<'a> = Option<&'a (dyn Fn(u32, u32) -> bool + Sync)>;

fn strategies() -> [BlockingStrategy; 4] {
    [
        BlockingStrategy::TokenGraph,
        BlockingStrategy::Token { max_block_size: 4 },
        BlockingStrategy::Lsh {
            params: LshParams::new(8, 2),
            max_block_size: 64,
        },
        BlockingStrategy::meta_default(),
    ]
}

/// The graph as the pipeline built it before the shared builder: one
/// closure applying the policy and a binary search over the candidates
/// to every enumerated pair.
fn oracle(
    corpus: &Corpus,
    strategy: &BlockingStrategy,
    pool: &WorkerPool,
    keep: Keep<'_>,
) -> BipartiteGraph {
    let allowed = match strategy {
        BlockingStrategy::TokenGraph => None,
        _ => Some(strategy.candidate_pairs(corpus, pool)),
    };
    let mut builder = BipartiteGraphBuilder::new(corpus.len(), corpus.vocab_len());
    for t in 0..corpus.vocab_len() as u32 {
        builder = builder.postings(t, corpus.postings(TermId(t)));
    }
    builder
        .pair_filter(move |a, b| {
            keep.is_none_or(|k| k(a, b))
                && allowed
                    .as_ref()
                    .is_none_or(|al| al.binary_search(&(a.min(b), a.max(b))).is_ok())
        })
        .build()
}

fn assert_same_graph(got: &BipartiteGraph, want: &BipartiteGraph) {
    assert_eq!(got.pairs(), want.pairs());
    for p in 0..want.pair_count() as u32 {
        assert_eq!(got.terms_of_pair(p), want.terms_of_pair(p), "pair {p}");
    }
}

fn records() -> impl Strategy<Value = Vec<(String, u8)>> {
    proptest::collection::vec(("[a-f]{1,3}( [a-f]{1,3}){0,5}", 0u8..2), 2..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shared_builder_matches_combined_filter_oracle(records in records()) {
        let corpus = CorpusBuilder::new()
            .extend_texts(records.iter().map(|(t, _)| t.as_str()))
            .max_df_fraction(0.6)
            .build();
        let sources: Vec<u8> = records.iter().map(|&(_, s)| s).collect();
        let cross_source = |a: u32, b: u32| sources[a as usize] != sources[b as usize];
        let pool = WorkerPool::new(1);
        for strategy in &strategies() {
            for keep in [None, Some(&cross_source as &(dyn Fn(u32, u32) -> bool + Sync))] {
                let want = oracle(&corpus, strategy, &pool, keep);
                assert_same_graph(&strategy.candidate_graph(&corpus, &pool, None, keep), &want);
                let mut cache = SignatureCache::new();
                assert_same_graph(
                    &strategy.candidate_graph(&corpus, &pool, Some(&mut cache), keep),
                    &want,
                );
            }
        }
    }

    #[test]
    fn batch_pipeline_and_serve_reference_build_the_same_pairs(records in records()) {
        let dataset = Dataset::new(
            "graph-equivalence",
            records
                .iter()
                .enumerate()
                .map(|(i, (text, _))| Record {
                    id: i as u32,
                    source: 0,
                    entity: i as u32,
                    text: text.clone(),
                })
                .collect(),
            SourcePolicy::WithinSingleSource,
        );
        let pool = WorkerPool::new(1);
        for strategy in strategies() {
            let mut config = ServeConfig {
                strategy,
                max_df_fraction: 0.6,
                ..ServeConfig::default()
            };
            config.fusion.threads = 1;
            config.fusion.rounds = 1;
            let prepared = pipeline::prepare_with_strategy(
                &dataset,
                config.max_df_fraction,
                &config.strategy,
                &pool,
            );
            let snapshot = resolve_batch(dataset.texts(), &config);
            let pairs: Vec<(u32, u32)> = prepared.graph.pairs().iter().map(|p| (p.a, p.b)).collect();
            prop_assert_eq!(pairs.as_slice(), snapshot.pairs(), "{}", config.strategy.name());
        }
    }
}
