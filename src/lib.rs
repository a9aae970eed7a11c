//! # unsupervised-er
//!
//! A from-scratch Rust reproduction of *"A Graph-Theoretic Fusion
//! Framework for Unsupervised Entity Resolution"* (ICDE 2018): the
//! **ITER** term/pair ranking algorithm, the **RSS** random-surfer
//! sampler, the **CliqueRank** matrix walk, the fusion loop that
//! reinforces them, every baseline the paper compares against, synthetic
//! analogues of its three benchmark datasets, and a bench harness that
//! regenerates every table and figure of the evaluation section.
//!
//! This facade crate re-exports the workspace and provides the
//! [`pipeline`] glue from a raw [`Dataset`](er_datasets::Dataset) to a
//! resolved set of entities:
//!
//! ```
//! use unsupervised_er::pipeline;
//! use unsupervised_er::prelude::*;
//!
//! // A tiny restaurant-style dataset (42 records, 6 duplicate pairs).
//! let dataset = er_datasets::generators::restaurant::generate(&RestaurantConfig {
//!     records: 42,
//!     duplicate_pairs: 6,
//!     seed: 7,
//! });
//! let mut config = FusionConfig::default();
//! config.threads = 1;
//! let run = pipeline::resolve_dataset(&dataset, &config);
//! let f1 = run.evaluate().f1();
//! // 42 records is a demo-sized corpus; at benchmark scale the fusion
//! // framework reaches ≈ 0.9 F1 (see EXPERIMENTS.md).
//! assert!(f1 > 0.6, "fusion should resolve most duplicates: {f1}");
//! ```

#![deny(unsafe_code)]

pub use er_baselines as baselines;
pub use er_core as core;
pub use er_crowd as crowd;
pub use er_datasets as datasets;
pub use er_eval as eval;
pub use er_graph as graph;
pub use er_matrix as matrix;
pub use er_ml as ml;
pub use er_serve as serve;
pub use er_text as text;

pub mod explain;

/// The types most applications need.
pub mod prelude {
    pub use crate::explain::{explain_pair, rank_candidates};
    pub use er_core::{
        BoostMode, CliqueRankConfig, FusionConfig, FusionOutcome, IterConfig, Resolver, RssConfig,
    };
    pub use er_datasets::{
        Dataset, PaperConfig, ProductConfig, Record, RestaurantConfig, SourcePolicy,
    };
    pub use er_eval::{ConfusionCounts, TruthPairs};
    pub use er_graph::{BipartiteGraph, BipartiteGraphBuilder};
    pub use er_serve::{QueryHandle, ServeConfig, ServeEngine};
    pub use er_text::{Corpus, CorpusBuilder};
}

pub mod pipeline {
    //! End-to-end glue: dataset → corpus → bipartite graph → fusion.

    use er_core::{FusionConfig, FusionOutcome, Resolver};
    use er_datasets::{Dataset, SourcePolicy};
    use er_eval::{evaluate_pairs, ConfusionCounts, TruthPairs};
    use er_graph::BipartiteGraph;
    use er_pool::WorkerPool;
    use er_text::{BlockingStrategy, Corpus, CorpusBuilder};

    pub use er_text::{seed_similarities, DEFAULT_MAX_DF_FRACTION, SEED_KERNEL};

    /// The prepared inputs shared by the fusion framework and every
    /// baseline: the tokenized corpus, the candidate bipartite graph and
    /// the ground-truth pairs.
    #[derive(Debug)]
    pub struct Prepared {
        /// Tokenized, frequency-filtered corpus.
        pub corpus: Corpus,
        /// Term ↔ record-pair bipartite graph over the candidate pairs.
        pub graph: BipartiteGraph,
        /// Ground-truth matching pairs (within the candidate policy).
        pub truth: TruthPairs,
    }

    /// Tokenizes a dataset and builds its candidate bipartite graph with
    /// the default frequent-term filter.
    pub fn prepare(dataset: &Dataset) -> Prepared {
        prepare_with(dataset, DEFAULT_MAX_DF_FRACTION)
    }

    /// [`prepare`] with an explicit frequent-term cap.
    pub fn prepare_with(dataset: &Dataset, max_df_fraction: f64) -> Prepared {
        let pool = WorkerPool::new(1);
        prepare_with_strategy(
            dataset,
            max_df_fraction,
            &BlockingStrategy::TokenGraph,
            &pool,
        )
    }

    /// [`prepare_with`] under an explicit [`BlockingStrategy`]: the
    /// strategy generates the candidate universe, restricted by the
    /// dataset's candidate policy, and
    /// [`BlockingStrategy::candidate_graph`] builds the bipartite graph
    /// over it. [`BlockingStrategy::TokenGraph`] is [`prepare_with`]; the
    /// scalable strategies (LSH, meta-blocking) shrink the graph before
    /// ITER/CliqueRank ever see it.
    pub fn prepare_with_strategy(
        dataset: &Dataset,
        max_df_fraction: f64,
        strategy: &BlockingStrategy,
        pool: &WorkerPool,
    ) -> Prepared {
        let corpus = CorpusBuilder::new()
            .extend_texts(dataset.texts())
            .max_df_fraction(max_df_fraction)
            .build();
        let sources = dataset.sources();
        let cross_source = |a: u32, b: u32| sources[a as usize] != sources[b as usize];
        let keep = (dataset.policy == SourcePolicy::CrossSourceOnly)
            .then_some(&cross_source as &(dyn Fn(u32, u32) -> bool + Sync));
        let graph = strategy.candidate_graph(&corpus, pool, None, keep);
        let truth = TruthPairs::from_pairs(dataset.matching_pairs());
        Prepared {
            corpus,
            graph,
            truth,
        }
    }

    /// A completed fusion run with its inputs, ready for evaluation.
    #[derive(Debug)]
    pub struct ResolvedRun {
        /// The prepared inputs.
        pub prepared: Prepared,
        /// The fusion outcome.
        pub outcome: FusionOutcome,
    }

    impl ResolvedRun {
        /// Pairwise confusion counts of the fusion matches against the
        /// dataset's ground truth.
        pub fn evaluate(&self) -> ConfusionCounts {
            evaluate_pairs(self.outcome.matches.iter().copied(), &self.prepared.truth)
        }
    }

    /// Prepares a dataset and runs the full fusion loop.
    pub fn resolve_dataset(dataset: &Dataset, config: &FusionConfig) -> ResolvedRun {
        let prepared = prepare(dataset);
        let outcome = Resolver::new(config.clone()).resolve(&prepared.graph);
        ResolvedRun { prepared, outcome }
    }

    /// [`resolve_dataset`] with ITER's first round seeded by batched
    /// string similarities ([`seed_similarities`]) instead of the
    /// uniform §V-C initialization: the reinforcement starts from
    /// informed edge weights, computed on the batch engine in one sweep
    /// over the candidate list.
    pub fn resolve_dataset_seeded(dataset: &Dataset, config: &FusionConfig) -> ResolvedRun {
        resolve_dataset_seeded_with(dataset, config, &BlockingStrategy::TokenGraph)
    }

    /// [`resolve_dataset_seeded`] with the candidate universe generated
    /// by an explicit [`BlockingStrategy`]: blocking, seeding and the
    /// fusion loop all share one worker pool, and the seeded ITER round
    /// only ever scores pairs the strategy admitted.
    pub fn resolve_dataset_seeded_with(
        dataset: &Dataset,
        config: &FusionConfig,
        strategy: &BlockingStrategy,
    ) -> ResolvedRun {
        let pool = WorkerPool::with_policy(config.threads, config.dispatch);
        let prepared = prepare_with_strategy(dataset, DEFAULT_MAX_DF_FRACTION, strategy, &pool);
        let seed = seed_similarities(&prepared.corpus, &prepared.graph, &pool);
        let outcome = Resolver::new(config.clone()).resolve_seeded(&prepared.graph, &seed);
        ResolvedRun { prepared, outcome }
    }

    /// Ground truth as entity labels, with the recall denominator
    /// restricted to the dataset's candidate policy (cross-source
    /// datasets do not charge same-source within-entity pairs).
    pub fn entity_labels(dataset: &Dataset) -> er_eval::EntityLabels {
        let labels: Vec<u32> = dataset.records.iter().map(|r| r.entity).collect();
        er_eval::EntityLabels::with_total(labels, dataset.matching_pairs().len())
    }
}

pub mod incremental {
    //! Incremental resolution: append records, re-resolve.
    //!
    //! The workspace has one incremental resolver, er-serve's
    //! [`ServeEngine`]; this module is the facade's path to it. After an
    //! ingest the engine re-runs the batch resolver over its warm MinHash
    //! signatures; with nothing ingested since the last resolve it
    //! republishes that snapshot. Its snapshots are bit-identical to
    //! [`resolve_batch`] over the same texts — on a single-source
    //! dataset, also to the seeded batch [`pipeline`](crate::pipeline)
    //! at the same frequent-term cap.

    pub use er_serve::{resolve_batch, QueryHandle, ServeConfig, ServeEngine, Snapshot};

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::pipeline;
        use er_core::Resolver;
        use er_datasets::{generators::restaurant, Dataset, RestaurantConfig};

        fn config(max_df_fraction: f64) -> ServeConfig {
            let mut config = ServeConfig {
                max_df_fraction,
                ..ServeConfig::default()
            };
            config.fusion.threads = 1;
            config.fusion.rounds = 2;
            config
        }

        fn seed_data() -> Dataset {
            restaurant::generate(&RestaurantConfig {
                records: 90,
                duplicate_pairs: 12,
                seed: 21,
            })
        }

        fn seeded_engine(d: &Dataset) -> ServeEngine {
            let mut engine = ServeEngine::new(config(0.035));
            engine.ingest_batch(d.texts());
            engine
        }

        #[test]
        fn matches_batch_pipeline() {
            let d = seed_data();
            let incremental = seeded_engine(&d).resolve();
            let prepared = pipeline::prepare_with(&d, 0.035);
            let pool = er_pool::WorkerPool::new(1);
            let seed = pipeline::seed_similarities(&prepared.corpus, &prepared.graph, &pool);
            let batch = Resolver::new(config(0.035).fusion).resolve_seeded(&prepared.graph, &seed);
            assert!(!batch.matches.is_empty());
            assert_eq!(incremental.matches(), batch.matches.as_slice());
        }

        #[test]
        fn second_resolve_hits_the_cache() {
            let d = seed_data();
            let mut engine = seeded_engine(&d);
            let first = engine.resolve();
            // Append one isolated record (shares nothing): a miss that
            // changes no match.
            engine.ingest("zzqqy unique gibberish tokens");
            let second = engine.resolve();
            assert_eq!(
                first.matches(),
                second.matches(),
                "an isolated record changes nothing"
            );
            assert_eq!((engine.cache().hits(), engine.cache().misses()), (0, 2));
            // Nothing ingested since: a hit, republishing the same bits.
            let third = engine.resolve();
            assert!(third.bitwise_eq(&second));
            assert_eq!(third.epoch(), second.epoch() + 1);
            assert_eq!((engine.cache().hits(), engine.cache().misses()), (1, 2));
        }

        #[test]
        fn appending_a_duplicate_links_it() {
            let d = seed_data();
            let mut engine = seeded_engine(&d);
            engine.resolve();
            // Append a copy of record 0 — it must match it.
            let new_id = engine.ingest(&d.records[0].text);
            let snapshot = engine.resolve();
            assert!(
                snapshot.is_match(0, new_id),
                "appended duplicate must link to its original"
            );
            let texts = d.texts().chain([d.records[0].text.as_str()]);
            assert!(snapshot.bitwise_eq(&resolve_batch(texts, engine.config())));
        }

        #[test]
        fn resolve_is_idempotent_without_changes() {
            let mut engine = ServeEngine::new(config(0.05));
            engine.ingest("alpha beta 123");
            engine.ingest("alpha beta 123 gamma");
            let first = engine.resolve();
            let second = engine.resolve();
            assert!(second.bitwise_eq(&first));
            assert_eq!(second.epoch(), first.epoch() + 1);
        }

        #[test]
        fn empty_resolver() {
            let mut engine = ServeEngine::new(config(0.05));
            assert!(engine.is_empty());
            let snapshot = engine.resolve();
            assert!(snapshot.matches().is_empty());
            assert_eq!(snapshot.records(), 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::pipeline;
    use er_core::FusionConfig;
    use er_datasets::generators::restaurant;
    use er_datasets::RestaurantConfig;

    #[test]
    fn prepare_builds_consistent_structures() {
        let d = restaurant::generate(&RestaurantConfig {
            records: 60,
            duplicate_pairs: 8,
            seed: 11,
        });
        let p = pipeline::prepare(&d);
        assert_eq!(p.corpus.len(), 60);
        assert_eq!(p.graph.record_count(), 60);
        assert_eq!(p.truth.total(), 8);
        assert!(p.graph.pair_count() > 0);
    }

    #[test]
    fn cross_source_policy_flows_through() {
        let d = er_datasets::generators::product::generate(
            &er_datasets::ProductConfig::default().scaled(0.05),
        );
        let p = pipeline::prepare(&d);
        for pair in p.graph.pairs() {
            assert!(
                d.is_candidate(pair.a, pair.b),
                "pair ({}, {}) violates the cross-source policy",
                pair.a,
                pair.b
            );
        }
    }

    #[test]
    fn end_to_end_fusion_beats_random() {
        let d = restaurant::generate(&RestaurantConfig {
            records: 80,
            duplicate_pairs: 10,
            seed: 3,
        });
        let cfg = FusionConfig {
            threads: 1,
            rounds: 2,
            ..Default::default()
        };
        let run = pipeline::resolve_dataset(&d, &cfg);
        let counts = run.evaluate();
        assert!(counts.f1() > 0.7, "{counts:?}");
    }

    #[test]
    fn seed_similarities_align_with_candidate_pairs() {
        let d = restaurant::generate(&RestaurantConfig {
            records: 60,
            duplicate_pairs: 8,
            seed: 5,
        });
        let p = pipeline::prepare(&d);
        let pool = er_pool::WorkerPool::new(1);
        let seed = pipeline::seed_similarities(&p.corpus, &p.graph, &pool);
        assert_eq!(seed.len(), p.graph.pair_count());
        assert!(seed.iter().all(|s| (0.0..=1.0).contains(s)), "{seed:?}");
        // Jaro-Winkler over near-duplicate texts should not be flat.
        let spread =
            seed.iter().fold(0.0f64, |m, &s| m.max(s)) - seed.iter().fold(1.0f64, |m, &s| m.min(s));
        assert!(spread > 0.1, "seed similarities are flat: {spread}");
    }

    #[test]
    fn seeded_fusion_resolves_duplicates() {
        let d = restaurant::generate(&RestaurantConfig {
            records: 80,
            duplicate_pairs: 10,
            seed: 3,
        });
        let cfg = FusionConfig {
            threads: 1,
            rounds: 2,
            ..Default::default()
        };
        let run = pipeline::resolve_dataset_seeded(&d, &cfg);
        let counts = run.evaluate();
        assert!(counts.f1() > 0.7, "{counts:?}");
    }

    #[test]
    fn token_graph_strategy_matches_default_prepare() {
        let d = restaurant::generate(&RestaurantConfig {
            records: 60,
            duplicate_pairs: 8,
            seed: 11,
        });
        let pool = er_pool::WorkerPool::new(1);
        let a = pipeline::prepare(&d);
        let b = pipeline::prepare_with_strategy(
            &d,
            pipeline::DEFAULT_MAX_DF_FRACTION,
            &er_text::BlockingStrategy::TokenGraph,
            &pool,
        );
        assert_eq!(a.graph.pairs(), b.graph.pairs());
    }

    #[test]
    fn meta_strategy_restricts_the_graph_and_still_resolves() {
        let d = restaurant::generate(&RestaurantConfig {
            records: 80,
            duplicate_pairs: 10,
            seed: 3,
        });
        let pool = er_pool::WorkerPool::new(1);
        let full = pipeline::prepare(&d);
        let meta = pipeline::prepare_with_strategy(
            &d,
            pipeline::DEFAULT_MAX_DF_FRACTION,
            &er_text::BlockingStrategy::meta_default(),
            &pool,
        );
        assert!(meta.graph.pair_count() <= full.graph.pair_count());
        // Every surviving pair must be in the token-graph universe.
        let universe: std::collections::BTreeSet<(u32, u32)> =
            full.graph.pairs().iter().map(|p| (p.a, p.b)).collect();
        for p in meta.graph.pairs() {
            assert!(universe.contains(&(p.a, p.b)));
        }
        let cfg = FusionConfig {
            threads: 1,
            rounds: 2,
            ..Default::default()
        };
        let run = pipeline::resolve_dataset_seeded_with(
            &d,
            &cfg,
            &er_text::BlockingStrategy::meta_default(),
        );
        let counts = run.evaluate();
        assert!(counts.f1() > 0.7, "{counts:?}");
    }

    #[test]
    fn seeded_fusion_is_thread_count_invariant() {
        let d = restaurant::generate(&RestaurantConfig {
            records: 60,
            duplicate_pairs: 8,
            seed: 9,
        });
        let mut matches: Vec<Vec<(u32, u32)>> = Vec::new();
        for threads in [1usize, 4] {
            let cfg = FusionConfig {
                threads,
                rounds: 2,
                ..Default::default()
            };
            let run = pipeline::resolve_dataset_seeded(&d, &cfg);
            matches.push(run.outcome.matches.clone());
        }
        assert_eq!(matches[0], matches[1]);
    }
}
