//! The single-writer ingest/resolve engine.
//!
//! [`ServeEngine`] owns the growing state — the [`StreamingCorpus`] and
//! the MinHash [`SignatureCache`] behind the blocking strategy — and
//! re-resolves on demand. A resolve after an ingest runs the batch
//! resolver on the rebuilt candidate graph and seeds: ITER's term
//! weights are global (§V), so a new candidate pair moves every
//! similarity bit and leaves no component solution to reuse. What
//! stays warm is the MinHash signature of every unchanged record. A
//! resolve with nothing ingested since the last one republishes that
//! snapshot under the new epoch. Either way the result is **exactly**
//! the batch resolution of the same texts in the same order
//! ([`resolve_batch`]), a property pinned by this crate's tests and the
//! workspace-level `serve_equivalence` proptest.

use std::ops::Range;
use std::sync::Arc;

use er_core::{FusionConfig, FusionOutcome, Resolver};
use er_graph::BipartiteGraph;
use er_pool::WorkerPool;
use er_text::lsh::SignatureCache;
use er_text::{seed_similarities, BlockingStrategy, Corpus, CorpusBuilder, StreamingCorpus};

use crate::snapshot::{QueryHandle, SharedState, Snapshot};

pub use er_text::{DEFAULT_MAX_DF_FRACTION, SEED_KERNEL};

/// Configuration of a [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Fusion-loop settings (rounds, η, thread count, dispatch policy —
    /// the engine's worker pool is built from `fusion.threads` and
    /// `fusion.dispatch`).
    pub fusion: FusionConfig,
    /// Candidate-generation strategy. [`BlockingStrategy::TokenGraph`]
    /// is paper-exact; the LSH/meta strategies scale further and keep
    /// their MinHash signatures warm across resolves.
    pub strategy: BlockingStrategy,
    /// Frequent-term cap forwarded to
    /// [`StreamingCorpus::materialize`].
    pub max_df_fraction: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            fusion: FusionConfig::default(),
            strategy: BlockingStrategy::TokenGraph,
            max_df_fraction: DEFAULT_MAX_DF_FRACTION,
        }
    }
}

/// How a [`ServeEngine`]'s resolves were served: a hit republished the
/// previous snapshot because nothing was ingested since, a miss ran the
/// pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResolveCache {
    hits: usize,
    misses: usize,
}

impl ResolveCache {
    /// Resolves that republished the previous snapshot.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Resolves that ran the pipeline.
    pub fn misses(&self) -> usize {
        self.misses
    }
}

/// Streaming entity-resolution engine: ingest records one at a time or
/// in micro-batches, [`Self::resolve`] when a fresh view is needed, and
/// answer match/cluster queries concurrently through [`QueryHandle`]s.
#[derive(Debug)]
pub struct ServeEngine {
    config: ServeConfig,
    pool: WorkerPool,
    corpus: StreamingCorpus,
    signatures: SignatureCache,
    cache: ResolveCache,
    shared: Arc<SharedState>,
    /// Record count covered by the last published snapshot.
    resolved_records: usize,
    resolves: u64,
}

impl ServeEngine {
    /// An empty engine. The initial published snapshot is epoch 0 with
    /// no records.
    pub fn new(config: ServeConfig) -> Self {
        let pool = WorkerPool::with_policy(config.fusion.threads, config.fusion.dispatch);
        Self {
            config,
            pool,
            corpus: StreamingCorpus::new(),
            signatures: SignatureCache::new(),
            cache: ResolveCache::default(),
            shared: Arc::new(SharedState::new()),
            resolved_records: 0,
            resolves: 0,
        }
    }

    /// Number of ingested records (resolved or not).
    pub fn len(&self) -> usize {
        self.corpus.len()
    }

    /// True when nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.corpus.is_empty()
    }

    /// Records not yet covered by a published snapshot.
    pub fn pending(&self) -> usize {
        self.corpus.len() - self.resolved_records
    }

    /// Resolves run so far.
    pub fn resolves(&self) -> u64 {
        self.resolves
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Resolve hit/miss statistics (see [`ResolveCache`]).
    pub fn cache(&self) -> &ResolveCache {
        &self.cache
    }

    /// The MinHash signature cache (reuse statistics).
    pub fn signatures(&self) -> &SignatureCache {
        &self.signatures
    }

    /// Ingests one record's raw text, returning its record id.
    pub fn ingest(&mut self, text: &str) -> u32 {
        let _span = er_obs::span("serve.ingest");
        er_obs::counter_add("serve.records_ingested", 1);
        self.corpus.push_record(text)
    }

    /// Ingests a micro-batch, returning the contiguous id range it was
    /// assigned.
    pub fn ingest_batch<I, S>(&mut self, texts: I) -> Range<u32>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let _span = er_obs::span("serve.ingest");
        let start = self.corpus.len() as u32;
        let mut n = 0u64;
        for t in texts {
            self.corpus.push_record(t.as_ref());
            n += 1;
        }
        er_obs::counter_add("serve.records_ingested", n);
        start..self.corpus.len() as u32
    }

    /// Re-resolves everything ingested so far and publishes the result
    /// as a new epoch. Returns the published snapshot.
    ///
    /// The resolution is **bit-identical** to [`resolve_batch`] over the
    /// same texts: the streaming corpus materializes exactly the batch
    /// corpus, the signature-cached blocking paths emit exactly the
    /// batch candidate lists, and fusion is the same seeded batch
    /// resolver. When nothing was ingested since the last resolve, the
    /// texts and the configuration are those of the published snapshot,
    /// so it is republished under the new epoch without running the
    /// pipeline (a [`ResolveCache`] hit).
    pub fn resolve(&mut self) -> Arc<Snapshot> {
        let _span = er_obs::span("serve.resolve");
        let epoch = self.shared.epoch.load(std::sync::atomic::Ordering::Relaxed) + 1;
        let snapshot = if self.resolves > 0 && self.pending() == 0 {
            self.cache.hits += 1;
            Arc::new(self.snapshot().with_epoch(epoch))
        } else {
            self.cache.misses += 1;
            let corpus = self.corpus.materialize(self.config.max_df_fraction);
            if corpus.is_empty() {
                Arc::new(Snapshot::empty(epoch))
            } else {
                let graph = self.config.strategy.candidate_graph(
                    &corpus,
                    &self.pool,
                    Some(&mut self.signatures),
                    None,
                );
                let outcome = resolve_graph(&corpus, &graph, &self.config.fusion, &self.pool);
                Arc::new(Snapshot::from_outcome(epoch, corpus.len(), &graph, outcome))
            }
        };
        er_obs::gauge_set("serve.epoch", epoch as f64);
        self.shared.publish(snapshot.clone());
        self.resolved_records = snapshot.records();
        self.resolves += 1;
        snapshot
    }

    /// The latest published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.slot.lock().clone()
    }

    /// A concurrent reader over the engine's published resolutions.
    /// Handles are `Send` + `Clone`; queries on the steady state take no
    /// lock.
    pub fn query_handle(&self) -> QueryHandle {
        QueryHandle::new(Arc::clone(&self.shared))
    }
}

/// The batch reference resolution: builds the corpus, candidates, seed
/// similarities and fusion outcome from scratch — the from-scratch run
/// [`ServeEngine::resolve`] must equal bit-for-bit.
pub fn resolve_batch<I, S>(texts: I, config: &ServeConfig) -> Snapshot
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let pool = WorkerPool::with_policy(config.fusion.threads, config.fusion.dispatch);
    let corpus = CorpusBuilder::new()
        .extend_texts(texts)
        .max_df_fraction(config.max_df_fraction)
        .build();
    if corpus.is_empty() {
        return Snapshot::empty(0);
    }
    let graph = config.strategy.candidate_graph(&corpus, &pool, None, None);
    let outcome = resolve_graph(&corpus, &graph, &config.fusion, &pool);
    Snapshot::from_outcome(0, corpus.len(), &graph, outcome)
}

/// Seeds ITER with batched [`SEED_KERNEL`] similarities and runs the
/// fusion loop.
fn resolve_graph(
    corpus: &Corpus,
    graph: &BipartiteGraph,
    config: &FusionConfig,
    pool: &WorkerPool,
) -> FusionOutcome {
    let seed = seed_similarities(corpus, graph, pool);
    Resolver::new(config.clone()).resolve_seeded(graph, &seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts() -> Vec<&'static str> {
        vec![
            "fenix at the argyle 8358 sunset blvd",
            "fenix 8358 sunset blvd west hollywood",
            "grill on the alley 9560 dayton way",
            "the grill alley 9560 dayton",
            "la la land sunset strip",
            "art de cuisine 9777 melrose ave",
            "arts delicatessen 12224 ventura blvd",
            "art delicatessen 12224 ventura blvd studio city",
        ]
    }

    fn small_config() -> ServeConfig {
        let mut config = ServeConfig {
            // Tiny corpora need a permissive cap or everything is a
            // "frequent" term.
            max_df_fraction: 0.6,
            ..ServeConfig::default()
        };
        config.fusion.threads = 1;
        config.fusion.rounds = 2;
        config
    }

    #[test]
    fn incremental_resolve_matches_batch_at_every_prefix() {
        let mut engine = ServeEngine::new(small_config());
        for (i, t) in texts().iter().enumerate() {
            assert_eq!(engine.ingest(t), i as u32);
            let snap = engine.resolve();
            let batch = resolve_batch(texts()[..=i].iter().copied(), engine.config());
            assert!(snap.bitwise_eq(&batch), "prefix {i}");
            assert_eq!(snap.epoch(), i as u64 + 1);
        }
    }

    #[test]
    fn micro_batch_ingest_assigns_contiguous_ids() {
        let mut engine = ServeEngine::new(small_config());
        let r = engine.ingest_batch(texts().iter().take(3));
        assert_eq!(r, 0..3);
        let r = engine.ingest_batch(texts().iter().skip(3));
        assert_eq!(r, 3..texts().len() as u32);
        assert_eq!(engine.pending(), texts().len());
        engine.resolve();
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn queries_see_published_epochs_only() {
        let mut engine = ServeEngine::new(small_config());
        let mut handle = engine.query_handle();
        assert_eq!(handle.snapshot().epoch(), 0);
        assert!(!handle.is_match(0, 1));
        engine.ingest_batch(texts().iter().take(2));
        // Ingest alone publishes nothing.
        assert_eq!(handle.snapshot().epoch(), 0);
        let snap = engine.resolve();
        assert_eq!(handle.snapshot().epoch(), 1);
        assert_eq!(
            handle.is_match(0, 1),
            snap.is_match(0, 1),
            "handle and snapshot agree"
        );
        let c = handle.cluster_of(0).unwrap();
        assert!(c.contains(&0));
    }

    #[test]
    fn handles_work_across_threads_during_ingest() {
        let mut engine = ServeEngine::new(small_config());
        engine.ingest_batch(texts().iter().take(4));
        engine.resolve();
        let mut handle = engine.query_handle();
        let reader = std::thread::spawn(move || {
            let mut seen = 0u64;
            for _ in 0..100 {
                let s = handle.snapshot();
                assert!(s.epoch() >= seen, "epochs are monotonic");
                seen = s.epoch();
                // Internal consistency: every match's records share a
                // cluster in the same snapshot.
                for &(a, b) in s.matches() {
                    assert_eq!(s.cluster_id(a), s.cluster_id(b));
                }
            }
            seen
        });
        for t in texts().iter().skip(4) {
            engine.ingest(t);
            engine.resolve();
        }
        let seen = reader.join().expect("reader thread");
        assert!(seen >= 1);
    }

    #[test]
    fn meta_strategy_serves_identically_to_batch() {
        let mut config = small_config();
        config.strategy = BlockingStrategy::meta_default();
        let mut engine = ServeEngine::new(config);
        for (i, t) in texts().iter().enumerate() {
            engine.ingest(t);
            let snap = engine.resolve();
            let batch = resolve_batch(texts()[..=i].iter().copied(), engine.config());
            assert!(snap.bitwise_eq(&batch), "prefix {i}");
        }
        assert!(
            engine.signatures().reused() > 0,
            "unchanged records must reuse signatures"
        );
    }

    #[test]
    fn empty_resolve_publishes_empty_snapshot() {
        let mut engine = ServeEngine::new(small_config());
        let snap = engine.resolve();
        assert_eq!(snap.records(), 0);
        assert_eq!(snap.epoch(), 1);
        assert!(engine.is_empty());
    }

    fn restaurant_texts() -> Vec<String> {
        er_datasets::generators::restaurant::generate(&er_datasets::RestaurantConfig {
            records: 90,
            duplicate_pairs: 12,
            seed: 21,
        })
        .texts()
        .map(str::to_owned)
        .collect()
    }

    fn restaurant_config() -> ServeConfig {
        let mut config = ServeConfig {
            max_df_fraction: 0.035,
            ..ServeConfig::default()
        };
        config.fusion.threads = 1;
        config.fusion.rounds = 2;
        config
    }

    #[test]
    fn isolated_record_is_a_miss_and_an_idle_resolve_a_hit() {
        let mut engine = ServeEngine::new(restaurant_config());
        engine.ingest_batch(restaurant_texts());
        let first = engine.resolve();
        // Shares no term with the corpus, so it changes no match; it was
        // ingested, so the resolve runs the pipeline.
        engine.ingest("zzqqy unique gibberish tokens");
        let second = engine.resolve();
        assert_eq!(first.matches(), second.matches());
        assert_eq!((engine.cache().hits(), engine.cache().misses()), (0, 2));
        // Nothing ingested since: the next resolve republishes the same
        // bits under the next epoch.
        let third = engine.resolve();
        assert!(third.bitwise_eq(&second));
        assert_eq!(third.epoch(), second.epoch() + 1);
        assert_eq!((engine.cache().hits(), engine.cache().misses()), (1, 2));
    }

    #[test]
    fn appended_duplicate_links_to_its_original() {
        let mut texts = restaurant_texts();
        let mut engine = ServeEngine::new(restaurant_config());
        engine.ingest_batch(&texts);
        engine.resolve();
        let copy = engine.ingest(&texts[0]);
        let snap = engine.resolve();
        assert!(snap.is_match(0, copy), "a copy of record 0 must match it");
        texts.push(texts[0].clone());
        assert!(snap.bitwise_eq(&resolve_batch(texts, engine.config())));
    }
}
