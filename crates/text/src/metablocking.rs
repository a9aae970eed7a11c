//! Meta-blocking: block purging, block filtering and edge-weight
//! pruning over the block graph (Papadakis et al., the
//! blocking-and-filtering survey).
//!
//! Blocking schemes emit a *block collection* — overlapping sets of
//! records ([`BlockCollection`]; token blocks, LSH buckets, or both
//! concatenated). Meta-blocking treats the collection as a graph whose
//! nodes are records and whose edges connect records co-occurring in at
//! least one block, then shrinks it in three stages:
//!
//! 1. **Block purging** drops oversized blocks (quadratic, nearly
//!    information-free — the hash-space analogue of stop terms).
//! 2. **Block filtering** keeps each record only in its `⌈ratio · d⌉`
//!    smallest blocks (the most discriminative ones); an edge survives
//!    only through blocks both endpoints kept.
//! 3. **Edge weighting + pruning** scores every surviving edge — CBS
//!    (count of common blocks) or JS (Jaccard of the two records'
//!    kept-block sets) — and discards edges below a floor or below the
//!    collection-wide mean.
//!
//! All weights are exact integers (JS is quantized to parts-per-million
//! by integer division; the mean comparison cross-multiplies in
//! `u128`), comparisons are total orders, and every stage iterates
//! sorted structures — so the surviving candidate list is bit-identical
//! at any thread count and across serial/parallel dispatch.

use std::ops::Range;

use er_pool::{chunk_ranges, WorkerPool};

use crate::corpus::Corpus;
use crate::lsh::{lsh_bucket_entries, LshParams, SignatureCache};
use crate::tokenize::TermId;

/// An overlapping collection of record blocks in CSR form.
#[derive(Debug, Clone, Default)]
pub struct BlockCollection {
    /// `offsets[i]..offsets[i+1]` indexes block `i`'s records.
    offsets: Vec<usize>,
    /// Concatenated per-block record ids.
    records: Vec<u32>,
}

impl BlockCollection {
    /// An empty collection.
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            records: Vec::new(),
        }
    }

    /// Appends one block (ignored when it holds fewer than 2 records —
    /// singleton blocks generate no pairs).
    pub fn push_block(&mut self, records: &[u32]) {
        if records.len() < 2 {
            return;
        }
        self.records.extend_from_slice(records);
        self.offsets.push(self.records.len());
    }

    /// One block per post-filter term with document frequency ≥ 2, in
    /// term order — the block view of token blocking.
    pub fn from_token_blocks(corpus: &Corpus) -> Self {
        let postings = || {
            (0..corpus.vocab_len())
                .map(|i| corpus.postings(TermId(i as u32)))
                .filter(|p| p.len() >= 2)
        };
        let mut blocks = Self::new();
        blocks.offsets.reserve_exact(postings().count());
        blocks
            .records
            .reserve_exact(postings().map(<[u32]>::len).sum());
        for p in postings() {
            blocks.push_block(p);
        }
        blocks
    }

    /// One block per LSH band bucket with ≥ 2 records, in bucket-key
    /// order, each block's records ascending; the entries of singleton
    /// buckets are never stored. `signatures`, when given, recomputes
    /// band keys only for records whose term set changed since the cache
    /// last saw them; the blocks are the same either way.
    pub fn from_lsh(
        corpus: &Corpus,
        params: &LshParams,
        pool: &WorkerPool,
        signatures: Option<&mut SignatureCache>,
    ) -> Self {
        Self::from_bucket_entries(&lsh_bucket_entries(corpus, params, pool, signatures))
    }

    /// Groups sorted colliding `(bucket key, record)` entries (every
    /// bucket holds at least 2) into blocks.
    fn from_bucket_entries(entries: &[(u64, u32)]) -> Self {
        let mut blocks = Self::new();
        blocks.records.reserve_exact(entries.len());
        for bucket in entries.chunk_by(|x, y| x.0 == y.0) {
            blocks.records.extend(bucket.iter().map(|e| e.1));
            blocks.offsets.push(blocks.records.len());
        }
        blocks
    }

    /// Appends every block of `other` after this collection's blocks.
    pub fn extend_from(&mut self, other: &Self) {
        self.offsets.reserve_exact(other.len());
        self.records.reserve_exact(other.records.len());
        for b in 0..other.len() {
            self.push_block(other.block(b));
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the collection holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The records of block `i`.
    pub fn block(&self, i: usize) -> &[u32] {
        &self.records[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Edge-weight scheme over the block graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightScheme {
    /// Common-blocks scheme: the number of kept blocks shared by the
    /// pair. Integer.
    Cbs,
    /// Jaccard scheme: `cbs / (kept(a) + kept(b) − cbs)`, quantized to
    /// parts-per-million by integer division (exact and ordered).
    Js,
}

/// JS weights are scaled to parts-per-million integers.
pub const JS_SCALE: u64 = 1_000_000;

/// Edge-pruning rule applied to the weighted block graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pruning {
    /// Keep edges whose weight is at least this floor (CBS: a block
    /// count; JS: parts-per-million of [`JS_SCALE`]).
    MinWeight(u64),
    /// Weight-edge pruning: keep edges at or above the mean edge
    /// weight, compared exactly by cross-multiplication.
    MeanWeight,
}

/// Meta-blocking configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetaConfig {
    /// Block purging: blocks larger than this are dropped outright.
    pub max_block_size: usize,
    /// Block filtering: each record keeps its `⌈ratio · d⌉` smallest
    /// blocks (`d` = blocks containing it). `1.0` disables filtering.
    pub filter_ratio: f64,
    /// Edge-weight scheme.
    pub weight: WeightScheme,
    /// Edge-pruning rule.
    pub prune: Pruning,
}

impl Default for MetaConfig {
    /// Survey-flavored defaults: purge past 128 records, keep the 80%
    /// smallest blocks per record, CBS weights, and require an edge to
    /// be supported by at least 2 common blocks.
    fn default() -> Self {
        Self {
            max_block_size: 128,
            filter_ratio: 0.8,
            weight: WeightScheme::Cbs,
            prune: Pruning::MinWeight(2),
        }
    }
}

/// Runs the meta-blocking pipeline over a block collection: purging →
/// filtering → exact-weight edge pruning. Returns sorted, deduplicated
/// `(a, b)` candidate pairs with `a < b`, bit-identical at any thread
/// count.
///
/// `n_records` is the corpus size (for the reduction-ratio gauges and
/// the record→block index).
pub fn meta_block(
    blocks: &BlockCollection,
    n_records: usize,
    config: &MetaConfig,
    pool: &WorkerPool,
) -> Vec<(u32, u32)> {
    let _span = er_obs::span("blocking.meta");
    assert!(
        (0.0..=1.0).contains(&config.filter_ratio),
        "filter_ratio must be in [0, 1], got {}",
        config.filter_ratio
    );

    // 1. Block purging.
    let surviving = purge(blocks, config.max_block_size);
    er_obs::counter_add(
        "blocking.meta.purged_blocks",
        (blocks.len() - surviving.len()) as u64,
    );
    er_obs::counter_add("blocking.meta.blocks", surviving.len() as u64);

    // 2. Block filtering: each record keeps its top-⌈ratio·d⌉ blocks by
    // (size, id) — smallest (most discriminative) first.
    let kept = filter_blocks(blocks, &surviving, n_records, config.filter_ratio);

    // 3. Count common blocks per pair (CBS), weight and prune.
    let (pairs, edges) = weighted_pairs(&kept, config, pool);
    er_obs::counter_add("blocking.meta.edges", edges);
    er_obs::counter_add("blocking.meta.pruned_edges", edges - pairs.len() as u64);
    crate::blocking::note_blocking_stats("meta", n_records, pairs.len());
    pairs
}

/// The blocks of size `2..=max_block_size`, by index.
fn purge(blocks: &BlockCollection, max_block_size: usize) -> Vec<u32> {
    (0..blocks.len())
        .filter(|&b| (2..=max_block_size).contains(&blocks.block(b).len()))
        .map(|b| b as u32)
        .collect()
}

/// Kept block memberships after filtering: for each surviving block, the
/// records that retained it (ascending), plus each record's kept-block
/// count (the JS denominator).
struct KeptBlocks {
    /// CSR offsets over `records`, aligned with the surviving-block
    /// list passed to [`filter_blocks`].
    offsets: Vec<usize>,
    records: Vec<u32>,
    /// Kept-block count per record.
    kept_degree: Vec<u32>,
}

impl KeptBlocks {
    /// The ascending records that kept surviving block `b`.
    fn block(&self, b: usize) -> &[u32] {
        &self.records[self.offsets[b]..self.offsets[b + 1]]
    }
}

/// Prefix sums of `counts`: row `i` of the CSR is
/// `offsets[i]..offsets[i + 1]`.
fn prefix_offsets(counts: impl ExactSizeIterator<Item = usize>) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut end = 0usize;
    offsets.push(end);
    for c in counts {
        end += c;
        offsets.push(end);
    }
    offsets
}

fn filter_blocks(
    blocks: &BlockCollection,
    surviving: &[u32],
    n_records: usize,
    ratio: f64,
) -> KeptBlocks {
    let _span = er_obs::span("blocking.meta.filter");
    // Record → surviving-block incidence (CSR by counting sort; block
    // index here is the position in `surviving`).
    let mut degree = vec![0usize; n_records];
    for &b in surviving {
        for &r in blocks.block(b as usize) {
            degree[r as usize] += 1;
        }
    }
    let rec_offsets = prefix_offsets(degree.iter().copied());
    let mut rec_blocks = vec![0u32; rec_offsets[n_records]];
    let mut cursor = degree;
    cursor.copy_from_slice(&rec_offsets[..n_records]);
    for (si, &b) in surviving.iter().enumerate() {
        for &r in blocks.block(b as usize) {
            rec_blocks[cursor[r as usize]] = si as u32;
            cursor[r as usize] += 1;
        }
    }
    drop(cursor);

    // Per record: keep the ⌈ratio·d⌉ smallest blocks, the first `quota`
    // of its row once the row is sorted by the packed key
    // `(size << 32) | surviving index` — one integer order that makes
    // the choice deterministic and biased toward discriminative blocks.
    let size: Vec<u32> = surviving
        .iter()
        .map(|&b| u32::try_from(blocks.block(b as usize).len()).unwrap_or(u32::MAX))
        .collect();
    let mut kept_degree = vec![0u32; n_records];
    let mut dropped = 0u64;
    for (r, kept) in kept_degree.iter_mut().enumerate() {
        let row = &mut rec_blocks[rec_offsets[r]..rec_offsets[r + 1]];
        if row.is_empty() {
            continue;
        }
        let quota = ((ratio * row.len() as f64).ceil() as usize).clamp(1, row.len());
        row.sort_unstable_by_key(|&si| u64::from(size[si as usize]) << 32 | u64::from(si));
        *kept = quota as u32;
        dropped += (row.len() - quota) as u64;
    }
    er_obs::counter_add("blocking.meta.filtered_memberships", dropped);
    let kept_row = |r: usize| {
        let start = rec_offsets[r];
        &rec_blocks[start..start + kept_degree[r] as usize]
    };

    // Invert back to block → kept records. Iterating records in
    // ascending order keeps every block's record list sorted.
    let mut block_kept = vec![0usize; surviving.len()];
    for r in 0..n_records {
        for &si in kept_row(r) {
            block_kept[si as usize] += 1;
        }
    }
    let offsets = prefix_offsets(block_kept.iter().copied());
    let mut records = vec![0u32; offsets[surviving.len()]];
    let mut bcursor = block_kept;
    bcursor.copy_from_slice(&offsets[..surviving.len()]);
    for r in 0..n_records {
        for &si in kept_row(r) {
            records[bcursor[si as usize]] = r as u32;
            bcursor[si as usize] += 1;
        }
    }
    KeptBlocks {
        offsets,
        records,
        kept_degree,
    }
}

/// Records per pooled chunk of the per-record edge scan: each record's
/// row holds a few dozen partners at census scale, so a chunk this size
/// is well past the queue-coordination break-even. Unit tests use
/// one-record chunks, so that their small collections split.
const EDGE_MIN_CHUNK: usize = if cfg!(test) { 1 } else { 4096 };

/// Each record's larger co-members over the kept blocks, as CSR rows
/// (`offsets`, `partners`): record `recs[i]` of a kept block of `k`
/// ascending records gets `recs[i + 1..]`. The rows hold Σ C(k, 2)
/// entries in all; a partner listed `n` times in a row shares `n` kept
/// blocks with the row's record.
fn partner_rows(kept: &KeptBlocks) -> (Vec<usize>, Vec<u32>) {
    let n_records = kept.kept_degree.len();
    let n_blocks = kept.offsets.len() - 1;
    let mut count = vec![0usize; n_records];
    for b in 0..n_blocks {
        let recs = kept.block(b);
        for (i, &a) in recs.iter().enumerate() {
            count[a as usize] += recs.len() - 1 - i;
        }
    }
    let offsets = prefix_offsets(count.iter().copied());
    let mut partners = vec![0u32; offsets[n_records]];
    let mut cursor = count;
    cursor.copy_from_slice(&offsets[..n_records]);
    for b in 0..n_blocks {
        let recs = kept.block(b);
        for (i, &a) in recs.iter().enumerate() {
            let larger = &recs[i + 1..];
            let at = cursor[a as usize];
            partners[at..at + larger.len()].copy_from_slice(larger);
            cursor[a as usize] += larger.len();
        }
    }
    (offsets, partners)
}

/// What one record range of the edge scan found: its distinct edges,
/// the exact sum of their weights (under [`Pruning::MeanWeight`]) and
/// the pairs it kept.
#[derive(Debug, Default)]
struct RangeEdges {
    edges: u64,
    weight_sum: u128,
    pairs: Vec<(u32, u32)>,
}

/// Counts common kept blocks per pair (CBS) without materializing the
/// block graph: record `a`'s sorted partner row holds edge `(a, c)` as a
/// run of `c` whose length is the pair's CBS, so the edges come out in
/// ascending `(a, c)` order. Applies the weight scheme and the pruning
/// rule on the way; [`Pruning::MinWeight`] keeps edges during the one
/// scan, [`Pruning::MeanWeight`] scans twice (the exact `u128` weight
/// sum and edge count first, then the edges at or above the mean).
///
/// Past the pool's dispatch cutover both scans fan out over disjoint
/// record ranges, whose outputs concatenate in range order. Returns the
/// kept pairs and the number of distinct edges.
fn weighted_pairs(
    kept: &KeptBlocks,
    config: &MetaConfig,
    pool: &WorkerPool,
) -> (Vec<(u32, u32)>, u64) {
    let _span = er_obs::span("blocking.meta.edges");
    let (offsets, mut partners) = partner_rows(kept);
    er_obs::counter_add("blocking.meta.partners", partners.len() as u64);
    let n_records = kept.kept_degree.len();
    let pool = pool.dispatch(partners.len()).is_parallel().then_some(pool);
    let parts = pool.map_or(1, WorkerPool::threads);
    let ranges = chunk_ranges(n_records, parts, EDGE_MIN_CHUNK);
    let weight = |a: u32, c: u32, cbs: u64| match config.weight {
        WeightScheme::Cbs => cbs,
        WeightScheme::Js => {
            let union = u64::from(kept.kept_degree[a as usize])
                + u64::from(kept.kept_degree[c as usize])
                - cbs;
            (cbs * JS_SCALE).checked_div(union).unwrap_or(0)
        }
    };
    // Calls `edge(a, c, w)` for every edge of the (sorted) rows of
    // `recs`, in ascending order.
    let scan = |recs: Range<usize>, rows: &[u32], edge: &mut dyn FnMut(u32, u32, u64)| {
        let base = offsets[recs.start];
        for a in recs {
            let row = &rows[offsets[a] - base..offsets[a + 1] - base];
            for run in row.chunk_by(|x, y| x == y) {
                let (a, c) = (a as u32, run[0]);
                edge(a, c, weight(a, c, run.len() as u64));
            }
        }
    };

    // First scan: sort every row, count the edges, and keep those over
    // the floor or sum the weights for the mean.
    let floor = match config.prune {
        Pruning::MinWeight(floor) => Some(floor),
        Pruning::MeanWeight => None,
    };
    let first = per_range(pool, &offsets, &mut partners, &ranges, |recs, rows| {
        let base = offsets[recs.start];
        for a in recs.clone() {
            rows[offsets[a] - base..offsets[a + 1] - base].sort_unstable();
        }
        let mut out = RangeEdges::default();
        scan(recs, rows, &mut |a, c, w| {
            out.edges += 1;
            match floor {
                Some(floor) => {
                    if w >= floor {
                        out.pairs.push((a, c));
                    }
                }
                None => out.weight_sum += u128::from(w),
            }
        });
        out
    });
    let edges: u64 = first.iter().map(|r| r.edges).sum();
    if floor.is_some() {
        return (concat(first), edges);
    }

    // Second scan: w ≥ sum/m  ⇔  w·m ≥ sum, exactly.
    let sum: u128 = first.iter().map(|r| r.weight_sum).sum();
    let m = u128::from(edges);
    let second = per_range(pool, &offsets, &mut partners, &ranges, |recs, rows| {
        let mut out = RangeEdges::default();
        scan(recs, rows, &mut |a, c, w| {
            if u128::from(w) * m >= sum {
                out.pairs.push((a, c));
            }
        });
        out
    });
    (concat(second), edges)
}

/// Runs `job` on each record range of `ranges` with that range's slice
/// of the partner rows, on `pool` when given, and returns the results in
/// range order.
fn per_range<T: Default + Send>(
    pool: Option<&WorkerPool>,
    offsets: &[usize],
    partners: &mut [u32],
    ranges: &[Range<usize>],
    job: impl Fn(Range<usize>, &mut [u32]) -> T + Sync,
) -> Vec<T> {
    let mut results: Vec<T> = ranges.iter().map(|_| T::default()).collect();
    let Some(pool) = pool else {
        for (r, slot) in ranges.iter().zip(results.iter_mut()) {
            let rows = &mut partners[offsets[r.start]..offsets[r.end]];
            *slot = job(r.clone(), rows);
        }
        return results;
    };
    let job = &job;
    // er-lint: allow(dispatch) -- `weighted_pairs` passes the pool only past `dispatch(partners.len())`
    pool.scope(|s| {
        let mut rest = partners;
        for (r, slot) in ranges.iter().zip(results.iter_mut()) {
            let (rows, tail) = rest.split_at_mut(offsets[r.end] - offsets[r.start]);
            rest = tail;
            let r = r.clone();
            s.submit(move || *slot = job(r, rows));
        }
    });
    results
}

/// The ranges' kept pairs, in range order.
fn concat(ranges: Vec<RangeEdges>) -> Vec<(u32, u32)> {
    let mut pairs = Vec::with_capacity(ranges.iter().map(|r| r.pairs.len()).sum());
    for r in ranges {
        pairs.extend_from_slice(&r.pairs);
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::token_blocking;
    use crate::corpus::CorpusBuilder;

    fn corpus() -> Corpus {
        CorpusBuilder::new()
            .push_text("fenix sunset 8358 hollywood")
            .push_text("fenix sunset 8358 west hollywood")
            .push_text("grill dayton 9560 beverly")
            .push_text("grill dayton 9560 hills beverly")
            .push_text("unrelated words only")
            .build()
    }

    /// A config that disables every stage: meta-blocking then equals
    /// plain within-block pair enumeration.
    fn neutral(cap: usize) -> MetaConfig {
        MetaConfig {
            max_block_size: cap,
            filter_ratio: 1.0,
            weight: WeightScheme::Cbs,
            prune: Pruning::MinWeight(1),
        }
    }

    #[test]
    fn neutral_meta_equals_token_blocking() {
        let c = corpus();
        let pool = WorkerPool::new(1);
        let blocks = BlockCollection::from_token_blocks(&c);
        let meta = meta_block(&blocks, c.len(), &neutral(64), &pool);
        assert_eq!(meta, token_blocking(&c, 64));
    }

    #[test]
    fn purging_drops_large_blocks() {
        let c = CorpusBuilder::new()
            .extend_texts(["x a b", "x c d", "x e f", "x g h"])
            .build();
        let pool = WorkerPool::new(1);
        let blocks = BlockCollection::from_token_blocks(&c);
        // The x-block has 4 records; cap 3 purges it, and nothing else
        // is shared.
        let pairs = meta_block(&blocks, c.len(), &neutral(3), &pool);
        assert!(pairs.is_empty(), "{pairs:?}");
    }

    #[test]
    fn cbs_floor_requires_multiple_common_blocks() {
        let c = corpus();
        let pool = WorkerPool::new(1);
        let blocks = BlockCollection::from_token_blocks(&c);
        let cfg = MetaConfig {
            prune: Pruning::MinWeight(3),
            filter_ratio: 1.0,
            ..MetaConfig::default()
        };
        let pairs = meta_block(&blocks, c.len(), &cfg, &pool);
        // (0,1) share fenix/sunset/8358/hollywood (4 blocks); (2,3)
        // share grill/dayton/9560/beverly (4 blocks). Both survive a
        // floor of 3; nothing else shares ≥3 terms.
        assert_eq!(pairs, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn js_weights_match_kept_degrees() {
        let c = corpus();
        let pool = WorkerPool::new(1);
        let blocks = BlockCollection::from_token_blocks(&c);
        // Records 0/1: 4 common blocks; record 0 sits in 4 blocks with
        // df >= 2, record 1 in 5 (incl. "west"? no — west is unique).
        // JS = 4 / (4 + 4 - 4) = 1.0 for a full-overlap pair.
        let cfg = MetaConfig {
            weight: WeightScheme::Js,
            prune: Pruning::MinWeight(JS_SCALE), // JS == 1.0 exactly
            filter_ratio: 1.0,
            max_block_size: 64,
        };
        let pairs = meta_block(&blocks, c.len(), &cfg, &pool);
        // Only the full-overlap pairs reach JS = 1.0: each record of
        // (0,1) and (2,3) sits in exactly the 4 blocks the pair shares
        // (the leftover terms are df-1 and form no block).
        assert_eq!(pairs, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn mean_weight_pruning_keeps_heavy_edges() {
        let c = corpus();
        let pool = WorkerPool::new(1);
        let blocks = BlockCollection::from_token_blocks(&c);
        let cfg = MetaConfig {
            prune: Pruning::MeanWeight,
            filter_ratio: 1.0,
            ..MetaConfig::default()
        };
        let pairs = meta_block(&blocks, c.len(), &cfg, &pool);
        // The 4-common-block pairs dominate the mean over any stray
        // 1-block edges.
        assert!(pairs.contains(&(0, 1)), "{pairs:?}");
        assert!(pairs.contains(&(2, 3)), "{pairs:?}");
    }

    #[test]
    fn filtering_is_deterministic_and_reduces_memberships() {
        let c = corpus();
        let pool = WorkerPool::new(1);
        let blocks = BlockCollection::from_token_blocks(&c);
        let cfg = MetaConfig {
            filter_ratio: 0.5,
            prune: Pruning::MinWeight(1),
            ..MetaConfig::default()
        };
        let a = meta_block(&blocks, c.len(), &cfg, &pool);
        let b = meta_block(&blocks, c.len(), &cfg, &pool);
        assert_eq!(a, b);
        let unfiltered = meta_block(&blocks, c.len(), &neutral(128), &pool);
        assert!(a.len() <= unfiltered.len());
    }

    #[test]
    fn thread_and_dispatch_invariant() {
        let c = corpus();
        let blocks = BlockCollection::from_token_blocks(&c);
        let cfg = MetaConfig::default();
        let reference = meta_block(
            &blocks,
            c.len(),
            &cfg,
            &WorkerPool::with_policy(1, er_pool::DispatchPolicy::always_serial()),
        );
        for threads in [1usize, 2, 8] {
            let pool = WorkerPool::with_policy(threads, er_pool::DispatchPolicy::always_parallel());
            assert_eq!(reference, meta_block(&blocks, c.len(), &cfg, &pool));
        }
    }

    /// The filter and edge stages that counted common blocks through
    /// one global pair buffer, kept as the oracle: each record's
    /// memberships flagged kept or dropped in a `Vec<bool>`, then every
    /// within-block pair filled into one buffer, sorted, and counted as
    /// runs into a weighted edge list. Returns the kept pairs and the
    /// number of distinct edges.
    mod oracle {
        use super::super::*;

        pub(super) fn meta_block(
            blocks: &BlockCollection,
            n_records: usize,
            config: &MetaConfig,
        ) -> (Vec<(u32, u32)>, u64) {
            let surviving = purge(blocks, config.max_block_size);
            let kept = filter_blocks(blocks, &surviving, n_records, config.filter_ratio);
            weighted_pairs(&kept, config)
        }

        fn filter_blocks(
            blocks: &BlockCollection,
            surviving: &[u32],
            n_records: usize,
            ratio: f64,
        ) -> KeptBlocks {
            let mut degree = vec![0u32; n_records];
            for &b in surviving {
                for &r in blocks.block(b as usize) {
                    degree[r as usize] += 1;
                }
            }
            let mut rec_offsets = vec![0usize; n_records + 1];
            for r in 0..n_records {
                rec_offsets[r + 1] = rec_offsets[r] + degree[r] as usize;
            }
            let mut rec_blocks = vec![0u32; rec_offsets[n_records]];
            let mut cursor = rec_offsets.clone();
            for (si, &b) in surviving.iter().enumerate() {
                for &r in blocks.block(b as usize) {
                    rec_blocks[cursor[r as usize]] = si as u32;
                    cursor[r as usize] += 1;
                }
            }
            let mut keep = vec![false; rec_blocks.len()];
            let mut kept_degree = vec![0u32; n_records];
            for r in 0..n_records {
                let slice = &mut rec_blocks[rec_offsets[r]..rec_offsets[r + 1]];
                if slice.is_empty() {
                    continue;
                }
                let quota = ((ratio * slice.len() as f64).ceil() as usize).clamp(1, slice.len());
                slice.sort_unstable_by_key(|&si| {
                    (blocks.block(surviving[si as usize] as usize).len(), si)
                });
                kept_degree[r] = quota as u32;
                for (i, flag) in keep[rec_offsets[r]..rec_offsets[r + 1]]
                    .iter_mut()
                    .enumerate()
                {
                    *flag = i < quota;
                }
            }
            let mut block_kept_count = vec![0u32; surviving.len()];
            for r in 0..n_records {
                for (i, &si) in rec_blocks[rec_offsets[r]..rec_offsets[r + 1]]
                    .iter()
                    .enumerate()
                {
                    if keep[rec_offsets[r] + i] {
                        block_kept_count[si as usize] += 1;
                    }
                }
            }
            let mut offsets = vec![0usize; surviving.len() + 1];
            for si in 0..surviving.len() {
                offsets[si + 1] = offsets[si] + block_kept_count[si] as usize;
            }
            let mut records = vec![0u32; offsets[surviving.len()]];
            let mut bcursor = offsets.clone();
            for r in 0..n_records {
                for (i, &si) in rec_blocks[rec_offsets[r]..rec_offsets[r + 1]]
                    .iter()
                    .enumerate()
                {
                    if keep[rec_offsets[r] + i] {
                        records[bcursor[si as usize]] = r as u32;
                        bcursor[si as usize] += 1;
                    }
                }
            }
            KeptBlocks {
                offsets,
                records,
                kept_degree,
            }
        }

        fn weighted_pairs(kept: &KeptBlocks, config: &MetaConfig) -> (Vec<(u32, u32)>, u64) {
            let n_blocks = kept.offsets.len() - 1;
            let mut raw: Vec<(u32, u32)> = Vec::new();
            for b in 0..n_blocks {
                let recs = kept.block(b);
                for (i, &a) in recs.iter().enumerate() {
                    for &c in &recs[i + 1..] {
                        raw.push(if a < c { (a, c) } else { (c, a) });
                    }
                }
            }
            raw.sort_unstable();
            let mut edges: Vec<(u32, u32, u64)> = Vec::new();
            let mut i = 0usize;
            while i < raw.len() {
                let pair = raw[i];
                let mut j = i + 1;
                while j < raw.len() && raw[j] == pair {
                    j += 1;
                }
                let cbs = (j - i) as u64;
                let w = match config.weight {
                    WeightScheme::Cbs => cbs,
                    WeightScheme::Js => {
                        let union = u64::from(kept.kept_degree[pair.0 as usize])
                            + u64::from(kept.kept_degree[pair.1 as usize])
                            - cbs;
                        (cbs * JS_SCALE).checked_div(union).unwrap_or(0)
                    }
                };
                edges.push((pair.0, pair.1, w));
                i = j;
            }
            let kept_pairs: Vec<(u32, u32)> = match config.prune {
                Pruning::MinWeight(floor) => edges
                    .iter()
                    .filter(|&&(_, _, w)| w >= floor)
                    .map(|&(a, b, _)| (a, b))
                    .collect(),
                Pruning::MeanWeight => {
                    let sum: u128 = edges.iter().map(|&(_, _, w)| u128::from(w)).sum();
                    let m = edges.len() as u128;
                    edges
                        .iter()
                        .filter(|&&(_, _, w)| u128::from(w) * m >= sum)
                        .map(|&(a, b, _)| (a, b))
                        .collect()
                }
            };
            (kept_pairs, edges.len() as u64)
        }
    }

    mod props {
        use super::super::*;
        use super::oracle;
        use crate::corpus::CorpusBuilder;
        use er_pool::DispatchPolicy;
        use proptest::prelude::*;

        /// Random collections: 0–12 blocks of 2–20 distinct records over
        /// at most 40 records, each in rotated order, plus repeats of
        /// some of them.
        fn random_blocks() -> impl Strategy<Value = (BlockCollection, usize)> {
            (2usize..=40).prop_flat_map(|n| {
                let block = (
                    proptest::collection::btree_set(0..n as u32, 2..n.min(20) + 1),
                    0usize..20,
                );
                (
                    proptest::collection::vec(block, 0..12),
                    proptest::collection::vec(0usize..64, 0..4),
                )
                    .prop_map(move |(list, repeats)| {
                        let list: Vec<Vec<u32>> = list
                            .into_iter()
                            .map(|(set, turn)| {
                                let mut block: Vec<u32> = set.into_iter().collect();
                                let turn = turn % block.len();
                                block.rotate_left(turn);
                                block
                            })
                            .collect();
                        let mut blocks = BlockCollection::new();
                        for b in &list {
                            blocks.push_block(b);
                        }
                        for i in repeats.iter().filter(|_| !list.is_empty()) {
                            blocks.push_block(&list[i % list.len()]);
                        }
                        (blocks, n)
                    })
            })
        }

        /// Token ∪ LSH unions over small corpora of a few shared words,
        /// some records without a token.
        fn corpus_blocks() -> impl Strategy<Value = (BlockCollection, usize)> {
            proptest::collection::vec("[a-f]{0,1}( [a-f]){0,5}", 2..32).prop_map(|texts| {
                let corpus = CorpusBuilder::new().extend_texts(texts).build();
                let pool = WorkerPool::new(1);
                let mut blocks = BlockCollection::from_token_blocks(&corpus);
                let lsh = BlockCollection::from_lsh(&corpus, &LshParams::new(8, 2), &pool, None);
                blocks.extend_from(&lsh);
                (blocks, corpus.len())
            })
        }

        /// Caps 2–16, ratios {0, 0.3, 0.8, 1}, CBS and JS weights,
        /// `MinWeight(0..=4)` and `MeanWeight`.
        fn config() -> impl Strategy<Value = MetaConfig> {
            (2usize..=16, 0usize..4, 0usize..2, 0u64..=5).prop_map(
                |(max_block_size, ratio, weight, prune)| MetaConfig {
                    max_block_size,
                    filter_ratio: [0.0, 0.3, 0.8, 1.0][ratio],
                    weight: [WeightScheme::Cbs, WeightScheme::Js][weight],
                    prune: if prune == 5 {
                        Pruning::MeanWeight
                    } else {
                        Pruning::MinWeight(prune)
                    },
                },
            )
        }

        /// `meta_block` and the staged pipeline it runs equal the oracle
        /// — the same pairs and the same distinct-edge count — at 1, 2
        /// and 8 threads under serial and parallel dispatch.
        fn check(blocks: &BlockCollection, n: usize, config: &MetaConfig) {
            let (want, want_edges) = oracle::meta_block(blocks, n, config);
            for threads in [1usize, 2, 8] {
                for policy in [
                    DispatchPolicy::always_serial(),
                    DispatchPolicy::always_parallel(),
                ] {
                    let pool = WorkerPool::with_policy(threads, policy);
                    let surviving = purge(blocks, config.max_block_size);
                    let kept = filter_blocks(blocks, &surviving, n, config.filter_ratio);
                    let (pairs, edges) = weighted_pairs(&kept, config, &pool);
                    prop_assert_eq!(&pairs, &want, "threads={} policy={:?}", threads, policy);
                    prop_assert_eq!(edges, want_edges, "threads={} policy={:?}", threads, policy);
                    prop_assert_eq!(&meta_block(blocks, n, config, &pool), &want);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn random_collections_match_oracle((blocks, n) in random_blocks(), config in config()) {
                check(&blocks, n, &config);
            }

            #[test]
            fn token_and_lsh_unions_match_oracle((blocks, n) in corpus_blocks(), config in config()) {
                check(&blocks, n, &config);
            }
        }
    }

    #[test]
    fn collections_compose() {
        let c = corpus();
        let pool = WorkerPool::new(1);
        let mut blocks = BlockCollection::from_token_blocks(&c);
        let before = blocks.len();
        let lsh = BlockCollection::from_lsh(&c, &LshParams::default(), &pool, None);
        blocks.extend_from(&lsh);
        assert_eq!(blocks.len(), before + lsh.len());
        assert!(!blocks.is_empty());
        // Duplicate listings collide in LSH, so the union collection
        // still finds them after meta-blocking.
        let pairs = meta_block(&blocks, c.len(), &MetaConfig::default(), &pool);
        assert!(pairs.contains(&(0, 1)), "{pairs:?}");
        assert!(pairs.contains(&(2, 3)), "{pairs:?}");
    }
}
