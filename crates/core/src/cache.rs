//! Component-level CliqueRank cache for incremental resolution.
//!
//! CliqueRank is component-local: a component's probabilities depend only
//! on its own weighted edges. The cache keys each component by a content
//! hash of `(members, edges, similarities)` and replays the stored edge
//! probabilities on a hit — so re-resolving a corpus where most of the
//! record graph is unchanged (the common case when appending records)
//! skips the matrix work everywhere except the components actually
//! touched. Any change to a member, an edge, or a similarity changes the
//! key: similarities enter the hash as their exact `f64` bits, so a
//! replayed component is **bit-identical** to a recomputation — the
//! contract `er-serve` pins incremental resolution against a
//! from-scratch batch run with. The cache is an argument of
//! [`crate::run_cliquerank`] (and of [`crate::Resolver::resolve_cached`]).
//!
//! For long-lived engines the cache also tracks a **generation** (bumped
//! once per resolve): every hit or insert stamps the entry, and
//! [`CliqueRankCache::evict_stale`] drops entries that have not been
//! touched for a caller-chosen number of generations — components whose
//! content keeps changing (dirtied by ingest) would otherwise pile up
//! dead keys forever.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use er_graph::RecordGraph;

use crate::cliquerank::CliqueScratch;
use crate::config::CliqueRankConfig;

/// One cached component: probabilities in local edge order, plus the
/// generation that last touched it (for stale-entry eviction).
#[derive(Debug)]
struct CacheEntry {
    values: Vec<f64>,
    last_used: u64,
}

/// Cache of solved components, keyed by content hash.
#[derive(Debug, Default)]
pub struct CliqueRankCache {
    /// hash → per-edge probabilities in the component's local edge order
    /// (pairs sorted ascending within the component).
    map: HashMap<u64, CacheEntry>,
    hits: usize,
    misses: usize,
    /// Monotone resolve counter; entries are stamped with it on every
    /// hit or insert.
    generation: u64,
    /// Solver scratch reused across cache misses — an incremental resolve
    /// that recomputes a handful of components allocates matrix buffers
    /// only until the arena reaches its high-water mark.
    scratch: CliqueScratch,
}

impl CliqueRankCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Components served from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Components computed and inserted so far.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Stored component count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops all entries (keeps the hit/miss counters).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// The current generation (bumped by the owner once per resolve).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Advances the generation clock. Call once per resolve epoch; the
    /// entries touched afterwards are stamped with the new value.
    pub fn bump_generation(&mut self) {
        self.generation += 1;
    }

    /// The stored probabilities of component `key`, stamped with the
    /// current generation; counts a hit, or a miss when absent.
    pub(crate) fn replay(&mut self, key: u64) -> Option<&[f64]> {
        match self.map.get_mut(&key) {
            Some(entry) => {
                self.hits += 1;
                er_obs::counter_add("cliquerank_cache_hits_total", 1);
                entry.last_used = self.generation;
                Some(&entry.values)
            }
            None => {
                self.misses += 1;
                er_obs::counter_add("cliquerank_cache_misses_total", 1);
                None
            }
        }
    }

    /// Stores a solved component's probabilities (local edge order).
    pub(crate) fn store(&mut self, key: u64, values: Vec<f64>) {
        let last_used = self.generation;
        self.map.insert(key, CacheEntry { values, last_used });
    }

    /// The solver scratch reused across misses.
    pub(crate) fn scratch(&mut self) -> &mut CliqueScratch {
        &mut self.scratch
    }

    /// Evicts entries not touched within the last `max_age` generations
    /// (a dirtied component's old content key is never looked up again),
    /// returning how many were dropped. `max_age = 0` keeps only entries
    /// touched in the current generation.
    pub fn evict_stale(&mut self, max_age: u64) -> usize {
        let before = self.map.len();
        let generation = self.generation;
        self.map
            .retain(|_, e| generation.saturating_sub(e.last_used) <= max_age);
        before - self.map.len()
    }
}

/// Content hash of one component: members, local edges, similarities and
/// the solver configuration knobs that affect the result.
pub(crate) fn component_hash(
    graph: &RecordGraph,
    members: &[u32],
    config: &CliqueRankConfig,
) -> u64 {
    let mut h = DefaultHasher::new();
    config.alpha.to_bits().hash(&mut h);
    config.steps.hash(&mut h);
    config.neighbor_mask.hash(&mut h);
    config.clamp.hash(&mut h);
    std::mem::discriminant(&config.recurrence).hash(&mut h);
    match config.boost {
        crate::config::BoostMode::Off => 0u64.hash(&mut h),
        crate::config::BoostMode::Fixed(b) => {
            1u64.hash(&mut h);
            b.to_bits().hash(&mut h);
        }
        crate::config::BoostMode::Expected { quadrature_points } => {
            2u64.hash(&mut h);
            quadrature_points.hash(&mut h);
        }
    }
    members.hash(&mut h);
    for &g in members {
        let (neighbors, sims) = graph.neighbors(g);
        neighbors.hash(&mut h);
        for &s in sims {
            s.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::bipartite::PairNode;
    use er_pool::WorkerPool;

    fn pairs(ps: &[(u32, u32)]) -> Vec<PairNode> {
        ps.iter().map(|&(a, b)| PairNode::new(a, b)).collect()
    }

    fn graph(scores: &[f64]) -> RecordGraph {
        RecordGraph::from_pair_scores(6, &pairs(&[(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)]), scores)
    }

    fn cfg() -> CliqueRankConfig {
        CliqueRankConfig::default()
    }

    /// CliqueRank on a 1-thread pool through `cache`.
    fn run_cached(
        g: &RecordGraph,
        config: &CliqueRankConfig,
        cache: &mut CliqueRankCache,
    ) -> Vec<f64> {
        crate::run_cliquerank(g, config, &WorkerPool::new(1), Some(cache))
    }

    /// Uncached CliqueRank on a 1-thread pool.
    fn run_plain(g: &RecordGraph, config: &CliqueRankConfig) -> Vec<f64> {
        crate::run_cliquerank(g, config, &WorkerPool::new(1), None)
    }

    #[test]
    fn cached_equals_uncached() {
        let g = graph(&[1.0, 0.9, 0.8, 0.7, 0.6]);
        let plain = run_plain(&g, &cfg());
        let mut cache = CliqueRankCache::new();
        let cached = run_cached(&g, &cfg(), &mut cache);
        assert_eq!(plain, cached);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn second_run_hits_everything() {
        let g = graph(&[1.0, 0.9, 0.8, 0.7, 0.6]);
        let mut cache = CliqueRankCache::new();
        let first = run_cached(&g, &cfg(), &mut cache);
        let second = run_cached(&g, &cfg(), &mut cache);
        assert_eq!(first, second);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn touching_one_component_recomputes_only_it() {
        let g1 = graph(&[1.0, 0.9, 0.8, 0.7, 0.6]);
        let mut cache = CliqueRankCache::new();
        let _ = run_cached(&g1, &cfg(), &mut cache);
        // Change a similarity in the second component only.
        let g2 = graph(&[1.0, 0.9, 0.8, 0.7, 0.65]);
        let out = run_cached(&g2, &cfg(), &mut cache);
        assert_eq!(cache.hits(), 1, "first component unchanged");
        assert_eq!(cache.misses(), 3, "second component recomputed");
        assert_eq!(out, run_plain(&g2, &cfg()));
    }

    #[test]
    fn config_changes_invalidate() {
        let g = graph(&[1.0, 0.9, 0.8, 0.7, 0.6]);
        let mut cache = CliqueRankCache::new();
        let _ = run_cached(&g, &cfg(), &mut cache);
        let other = CliqueRankConfig { steps: 7, ..cfg() };
        let out = run_cached(&g, &other, &mut cache);
        assert_eq!(cache.hits(), 0);
        assert_eq!(out, run_plain(&g, &other));
    }

    #[test]
    fn clear_drops_entries() {
        let g = graph(&[1.0, 0.9, 0.8, 0.7, 0.6]);
        let mut cache = CliqueRankCache::new();
        let _ = run_cached(&g, &cfg(), &mut cache);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn sub_quantum_drift_misses_and_recomputes_bitwise() {
        let base = [1.0, 0.9, 0.8, 0.7, 0.6];
        // Perturb one similarity by far less than any rounding quantum.
        let mut drifted = base;
        drifted[4] += 1e-9;
        let mut cache = CliqueRankCache::new();
        let _ = run_cached(&graph(&base), &cfg(), &mut cache);
        let out = run_cached(&graph(&drifted), &cfg(), &mut cache);
        assert_eq!(cache.hits(), 1, "only the untouched component replays");
        assert_eq!(cache.misses(), 3);
        // The cache's answer is bitwise the uncached one.
        assert_eq!(out, run_plain(&graph(&drifted), &cfg()));
    }

    #[test]
    fn generation_stamps_and_evicts_stale_entries() {
        let g1 = graph(&[1.0, 0.9, 0.8, 0.7, 0.6]);
        let mut cache = CliqueRankCache::new();
        assert_eq!(cache.generation(), 0);
        let _ = run_cached(&g1, &cfg(), &mut cache);
        assert_eq!(cache.len(), 2);

        // Epoch 1: the second component's content changes (dirtied), the
        // first replays. Its old key goes cold.
        cache.bump_generation();
        assert_eq!(cache.generation(), 1);
        let g2 = graph(&[1.0, 0.9, 0.8, 0.7, 0.65]);
        let _ = run_cached(&g2, &cfg(), &mut cache);
        assert_eq!(cache.len(), 3, "old second-component entry lingers");

        // max_age 1 keeps everything (the cold key is one epoch old)…
        assert_eq!(cache.evict_stale(1), 0);
        // …max_age 0 drops exactly the entry no longer being looked up.
        assert_eq!(cache.evict_stale(0), 1);
        assert_eq!(cache.len(), 2);

        // The survivors still replay bit-identically.
        cache.bump_generation();
        let out = run_cached(&g2, &cfg(), &mut cache);
        assert_eq!(out, run_plain(&g2, &cfg()));
        assert_eq!(cache.misses(), 3, "no recomputation after eviction");
    }

    #[test]
    fn eviction_after_repeated_dirtying_bounds_the_cache() {
        // Dirty the same component every epoch; with age-0 eviction the
        // cache never holds more than live-components entries.
        let mut cache = CliqueRankCache::new();
        for i in 0..10 {
            cache.bump_generation();
            let s = 0.6 + (i as f64) * 0.01;
            let g = graph(&[1.0, 0.9, 0.8, 0.7, s]);
            let _ = run_cached(&g, &cfg(), &mut cache);
            cache.evict_stale(0);
            assert_eq!(cache.len(), 2, "epoch {i}");
        }
        assert_eq!(cache.hits(), 9, "clean component replays every epoch");
    }
}
