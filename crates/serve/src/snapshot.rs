//! Published resolution state and the lock-free query path.
//!
//! The engine is a single writer: every [`crate::ServeEngine::resolve`]
//! builds a fresh immutable [`Snapshot`] and publishes it through an
//! epoch/`Arc` handoff. Readers hold a [`QueryHandle`]: in the steady
//! state a query is **one atomic load** (the epoch check) plus reads of
//! the handle's cached `Arc<Snapshot>` — no lock is taken. Only when
//! the epoch moved does the handle briefly lock the publish slot to
//! swap its cached `Arc`; the writer holds that lock only to store an
//! already-built `Arc`, so queries never wait on a resolve in progress
//! and always see a complete, internally consistent resolution.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use er_core::FusionOutcome;
use er_graph::BipartiteGraph;
use parking_lot::Mutex;

/// One immutable, internally consistent resolution of everything
/// ingested up to some epoch: the candidate pairs with their matching
/// probabilities, the decided matches, and the entity clusters.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    epoch: u64,
    records: usize,
    /// Candidate pairs, sorted ascending (`a < b`).
    pairs: Vec<(u32, u32)>,
    /// Matching probability per candidate pair, aligned with `pairs`.
    probabilities: Vec<f64>,
    /// Decided matches (`p ≥ η`), sorted ascending.
    matches: Vec<(u32, u32)>,
    /// Record → cluster index (every record belongs to exactly one
    /// cluster; singletons included).
    cluster_of: Vec<u32>,
    /// Cluster index → sorted members, ordered by smallest member.
    clusters: Vec<Vec<u32>>,
}

impl Snapshot {
    /// The empty resolution published before the first resolve.
    pub(crate) fn empty(epoch: u64) -> Self {
        Self {
            epoch,
            ..Self::default()
        }
    }

    /// Assembles a snapshot from a fusion outcome over `graph`.
    pub(crate) fn from_outcome(
        epoch: u64,
        records: usize,
        graph: &BipartiteGraph,
        outcome: FusionOutcome,
    ) -> Self {
        let pairs: Vec<(u32, u32)> = graph.pairs().iter().map(|p| (p.a, p.b)).collect();
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "pairs sorted");
        let mut cluster_of = vec![0u32; records];
        for (c, members) in outcome.clusters.iter().enumerate() {
            for &r in members {
                cluster_of[r as usize] = c as u32;
            }
        }
        Self {
            epoch,
            records,
            pairs,
            probabilities: outcome.matching_probabilities,
            matches: outcome.matches,
            cluster_of,
            clusters: outcome.clusters,
        }
    }

    /// This resolution republished under `epoch`.
    pub(crate) fn with_epoch(&self, epoch: u64) -> Self {
        Self {
            epoch,
            ..self.clone()
        }
    }

    /// The epoch this snapshot was published at (0 = nothing resolved).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of records covered by this resolution.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Candidate pairs, sorted ascending.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Matching probabilities aligned with [`Self::pairs`].
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Decided matches, sorted ascending.
    pub fn matches(&self) -> &[(u32, u32)] {
        &self.matches
    }

    /// Entity clusters (sorted members, ordered by smallest member).
    pub fn clusters(&self) -> &[Vec<u32>] {
        &self.clusters
    }

    /// Whether `(a, b)` was decided a match at this epoch.
    pub fn is_match(&self, a: u32, b: u32) -> bool {
        let key = if a < b { (a, b) } else { (b, a) };
        self.matches.binary_search(&key).is_ok()
    }

    /// The matching probability of `(a, b)` — `None` when the pair was
    /// not a candidate (blocked pairs have probability 0 by
    /// construction).
    pub fn match_probability(&self, a: u32, b: u32) -> Option<f64> {
        let key = if a < b { (a, b) } else { (b, a) };
        self.pairs
            .binary_search(&key)
            .ok()
            .map(|i| self.probabilities[i])
    }

    /// The cluster index of record `r` (`None` for records past this
    /// snapshot's coverage — ingested but not yet resolved).
    pub fn cluster_id(&self, r: u32) -> Option<u32> {
        self.cluster_of.get(r as usize).copied()
    }

    /// Members of cluster `c`, sorted ascending.
    pub fn cluster_members(&self, c: u32) -> &[u32] {
        &self.clusters[c as usize]
    }

    /// Records in the same entity cluster as `r` (including `r`), or
    /// `None` when `r` is not covered yet.
    pub fn cluster_of(&self, r: u32) -> Option<&[u32]> {
        self.cluster_id(r).map(|c| self.cluster_members(c))
    }

    /// Bitwise result equality, ignoring the epoch stamp: candidate
    /// pairs, probabilities (`f64::to_bits`), matches and clusters all
    /// identical. This is the incremental ≡ batch contract the serve
    /// tests pin.
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        self.records == other.records
            && self.pairs == other.pairs
            && self.probabilities.len() == other.probabilities.len()
            && self
                .probabilities
                .iter()
                .zip(&other.probabilities)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.matches == other.matches
            && self.clusters == other.clusters
    }
}

/// The single-writer publish slot shared between an engine and its
/// query handles.
#[derive(Debug)]
pub(crate) struct SharedState {
    /// Monotonic publication epoch; readers re-sync when it moves.
    pub(crate) epoch: AtomicU64,
    /// The latest published snapshot.
    pub(crate) slot: Mutex<Arc<Snapshot>>,
}

impl SharedState {
    pub(crate) fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(Snapshot::empty(0))),
        }
    }

    /// Publishes `snapshot`: slot first, then the epoch store (release)
    /// that readers acquire on. A reader that observes the new epoch is
    /// therefore guaranteed to find a snapshot at least that new in the
    /// slot.
    pub(crate) fn publish(&self, snapshot: Arc<Snapshot>) {
        let epoch = snapshot.epoch();
        *self.slot.lock() = snapshot;
        self.epoch.store(epoch, Ordering::Release);
    }
}

/// A cheaply cloneable, `Send` reader over the engine's published
/// resolutions. Steady-state queries are lock-free: one atomic epoch
/// load, then reads of the cached `Arc<Snapshot>`.
#[derive(Debug, Clone)]
pub struct QueryHandle {
    shared: Arc<SharedState>,
    cached: Arc<Snapshot>,
    seen: u64,
}

impl QueryHandle {
    pub(crate) fn new(shared: Arc<SharedState>) -> Self {
        let cached = shared.slot.lock().clone();
        let seen = cached.epoch();
        Self {
            shared,
            cached,
            seen,
        }
    }

    /// The current snapshot, re-synced if the engine published a newer
    /// epoch since the last call. The returned reference is stable until
    /// the next `&mut self` call; clone the `Arc` to hold it longer.
    pub fn snapshot(&mut self) -> &Arc<Snapshot> {
        let epoch = self.shared.epoch.load(Ordering::Acquire);
        if epoch != self.seen {
            self.cached = self.shared.slot.lock().clone();
            // The slot may already hold something newer than the epoch
            // we loaded; trust the snapshot's own stamp.
            self.seen = self.cached.epoch();
        }
        &self.cached
    }

    /// Whether `(a, b)` is a match in the freshest published resolution.
    pub fn is_match(&mut self, a: u32, b: u32) -> bool {
        let _span = er_obs::span("serve.query");
        self.snapshot().is_match(a, b)
    }

    /// Matching probability of `(a, b)` in the freshest published
    /// resolution (`None` when the pair was not a candidate).
    pub fn match_probability(&mut self, a: u32, b: u32) -> Option<f64> {
        let _span = er_obs::span("serve.query");
        self.snapshot().match_probability(a, b)
    }

    /// The entity cluster containing `r` (`None` when `r` is not
    /// resolved yet), as an owned sorted member list.
    pub fn cluster_of(&mut self, r: u32) -> Option<Vec<u32>> {
        let _span = er_obs::span("serve.query");
        self.snapshot().cluster_of(r).map(<[u32]>::to_vec)
    }

    /// The epoch of the snapshot this handle currently reads from.
    pub fn epoch(&self) -> u64 {
        self.seen
    }
}
