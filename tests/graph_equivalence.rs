//! The one graph builder every resolve path shares,
//! `BlockingStrategy::candidate_graph`, against an oracle written here
//! that shares no code with the graph layer: a map from each pair node
//! to its shared terms, filled from every term's postings pairs that the
//! candidate policy accepts and, for every strategy but `TokenGraph`,
//! that the strategy's candidate list contains. Both sides of the graph
//! (pairs with their terms, terms with their pairs and `P_t`) must match
//! it for single-source and cross-source corpora under every strategy,
//! with and without a signature cache; and the batch pipeline and the
//! serving engine's batch reference must build the same candidate pairs.

use std::collections::BTreeMap;

use er_datasets::{Dataset, Record, SourcePolicy};
use er_graph::BipartiteGraph;
use er_pool::WorkerPool;
use er_serve::{resolve_batch, ServeConfig};
use er_text::{BlockingStrategy, Corpus, CorpusBuilder, LshParams, SignatureCache, TermId};
use proptest::prelude::*;
use unsupervised_er::pipeline;

type Keep<'a> = Option<&'a (dyn Fn(u32, u32) -> bool + Sync)>;

fn strategies() -> [BlockingStrategy; 5] {
    [
        BlockingStrategy::TokenGraph,
        BlockingStrategy::Token { max_block_size: 4 },
        // The only strategy whose candidates include pairs sharing no
        // term, which the graph must drop.
        BlockingStrategy::SortedNeighborhood { window: 3 },
        BlockingStrategy::Lsh {
            params: LshParams::new(8, 2),
            max_block_size: 64,
        },
        BlockingStrategy::meta_default(),
    ]
}

/// Each pair node `(a, b)` with its shared terms in ascending order: the
/// postings pairs of every term, kept when the policy accepts them and
/// the strategy's candidate list (if any) contains them.
fn oracle(
    corpus: &Corpus,
    strategy: &BlockingStrategy,
    pool: &WorkerPool,
    keep: Keep<'_>,
) -> BTreeMap<(u32, u32), Vec<u32>> {
    let allowed = match strategy {
        BlockingStrategy::TokenGraph => None,
        _ => Some(strategy.candidate_pairs(corpus, pool)),
    };
    let mut graph: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
    for t in 0..corpus.vocab_len() as u32 {
        let records = corpus.postings(TermId(t));
        for (i, &a) in records.iter().enumerate() {
            for &b in &records[i + 1..] {
                let listed = allowed.as_ref().is_none_or(|al| al.contains(&(a, b)));
                if listed && keep.is_none_or(|k| k(a, b)) {
                    graph.entry((a, b)).or_default().push(t);
                }
            }
        }
    }
    graph
}

fn assert_same_graph(got: &BipartiteGraph, want: &BTreeMap<(u32, u32), Vec<u32>>) {
    let pairs: Vec<(u32, u32)> = got.pairs().iter().map(|p| (p.a, p.b)).collect();
    assert_eq!(pairs, want.keys().copied().collect::<Vec<_>>());
    let mut term_rows: Vec<Vec<u32>> = vec![Vec::new(); got.term_count()];
    for (p, terms) in want.values().enumerate() {
        assert_eq!(got.terms_of_pair(p as u32), terms.as_slice(), "pair {p}");
        for &t in terms {
            term_rows[t as usize].push(p as u32);
        }
    }
    for (t, row) in term_rows.iter().enumerate() {
        assert_eq!(got.pairs_of_term(t as u32), row.as_slice(), "term {t}");
        assert_eq!(got.pt(t as u32) as usize, row.len(), "pt of term {t}");
    }
}

/// `(text, source)` records. Some entries become degenerate records:
/// empty, whitespace-only and punctuation-only texts normalize to no
/// tokens, and a run of 2–12 copies of one text (alternating sources)
/// pushes its terms past the df cap.
fn records() -> impl Strategy<Value = Vec<(String, u8)>> {
    let entry = (
        (0u8..8, 0u8..2),
        "[a-f]{1,3}( [a-f]{1,3}){0,5}",
        "[ \t]{1,3}",
        "[.,;:!?-]{1,4}",
        2u8..=12,
    );
    proptest::collection::vec(entry, 2..24).prop_map(|entries| {
        entries
            .into_iter()
            .flat_map(|((kind, source), text, blank, punct, run)| match kind {
                0 => vec![(String::new(), source)],
                1 => vec![(blank, source)],
                2 => vec![(punct, source)],
                3 => (0..run).map(|k| (text.clone(), (source + k) % 2)).collect(),
                _ => vec![(text, source)],
            })
            .collect()
    })
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
