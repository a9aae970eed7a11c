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
        let mut blocks = Self::new();
        for i in 0..corpus.vocab_len() {
            blocks.push_block(corpus.postings(TermId(i as u32)));
        }
        blocks
    }

    /// One block per LSH band bucket with ≥ 2 records, in bucket-key
    /// order (see [`lsh_bucket_entries`]). `signatures`, when given,
    /// recomputes band keys only for records whose term set changed
    /// since the cache last saw them; the blocks are the same either way.
    pub fn from_lsh(
        corpus: &Corpus,
        params: &LshParams,
        pool: &WorkerPool,
        signatures: Option<&mut SignatureCache>,
    ) -> Self {
        Self::from_bucket_entries(&lsh_bucket_entries(corpus, params, pool, signatures))
    }

    /// Groups sorted `(bucket key, record)` entries into blocks.
    fn from_bucket_entries(entries: &[(u64, u32)]) -> Self {
        let mut blocks = Self::new();
        let mut start = 0usize;
        while start < entries.len() {
            let key = entries[start].0;
            let mut end = start + 1;
            while end < entries.len() && entries[end].0 == key {
                end += 1;
            }
            if end - start >= 2 {
                blocks
                    .records
                    .extend(entries[start..end].iter().map(|e| e.1));
                blocks.offsets.push(blocks.records.len());
            }
            start = end;
        }
        blocks
    }

    /// Appends every block of `other` after this collection's blocks.
    pub fn extend_from(&mut self, other: &Self) {
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
    let surviving: Vec<u32> = (0..blocks.len())
        .filter(|&b| {
            let s = blocks.block(b).len();
            (2..=config.max_block_size).contains(&s)
        })
        .map(|b| b as u32)
        .collect();
    er_obs::counter_add(
        "blocking.meta.purged_blocks",
        (blocks.len() - surviving.len()) as u64,
    );
    er_obs::counter_add("blocking.meta.blocks", surviving.len() as u64);

    // 2. Block filtering: record → surviving blocks (CSR), then keep
    // each record's top-⌈ratio·d⌉ blocks by (size, id) — smallest (most
    // discriminative) first.
    let kept = filter_blocks(blocks, &surviving, n_records, config.filter_ratio);

    // 3. Enumerate within-block pairs over kept memberships, count
    // common blocks per pair (CBS), weight and prune.
    let pairs = weighted_pairs(&kept, config, pool);
    crate::blocking::note_blocking_stats("meta", n_records, pairs.len());
    pairs
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

fn filter_blocks(
    blocks: &BlockCollection,
    surviving: &[u32],
    n_records: usize,
    ratio: f64,
) -> KeptBlocks {
    let _span = er_obs::span("blocking.meta.filter");
    // Record → surviving-block incidence (CSR by counting sort; block
    // index here is the position in `surviving`).
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

    // Per record: keep the ⌈ratio·d⌉ smallest blocks. Sorting the
    // record's slice by (block size, surviving index) makes the choice
    // deterministic and biased toward discriminative blocks.
    let mut keep = vec![false; rec_blocks.len()];
    let mut kept_degree = vec![0u32; n_records];
    let mut dropped = 0u64;
    for r in 0..n_records {
        let slice = &mut rec_blocks[rec_offsets[r]..rec_offsets[r + 1]];
        if slice.is_empty() {
            continue;
        }
        let quota = ((ratio * slice.len() as f64).ceil() as usize).clamp(1, slice.len());
        slice.sort_unstable_by_key(|&si| (blocks.block(surviving[si as usize] as usize).len(), si));
        kept_degree[r] = quota as u32;
        dropped += (slice.len() - quota) as u64;
        for (i, flag) in keep[rec_offsets[r]..rec_offsets[r + 1]]
            .iter_mut()
            .enumerate()
        {
            *flag = i < quota;
        }
    }
    er_obs::counter_add("blocking.meta.filtered_memberships", dropped);

    // Invert back to block → kept records. Iterating records in
    // ascending order keeps every block's record list sorted.
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

/// Enumerates within-block pairs over kept memberships, counts common
/// blocks, applies the weight scheme and pruning rule.
fn weighted_pairs(kept: &KeptBlocks, config: &MetaConfig, pool: &WorkerPool) -> Vec<(u32, u32)> {
    let _span = er_obs::span("blocking.meta.edges");
    let n_blocks = kept.offsets.len() - 1;
    // Two-pass disjoint fill: per-block pair counts → prefix offsets →
    // parallel fill of each block's precomputed output range.
    let mut pair_offsets = vec![0usize; n_blocks + 1];
    for b in 0..n_blocks {
        let k = kept.offsets[b + 1] - kept.offsets[b];
        pair_offsets[b + 1] = pair_offsets[b] + k * k.saturating_sub(1) / 2;
    }
    let total_pairs = pair_offsets[n_blocks];
    let mut raw: Vec<(u32, u32)> = vec![(0, 0); total_pairs];
    let fill_block = |b: usize, out: &mut [(u32, u32)]| {
        let recs = &kept.records[kept.offsets[b]..kept.offsets[b + 1]];
        let mut w = 0usize;
        for (i, &a) in recs.iter().enumerate() {
            for &c in &recs[i + 1..] {
                out[w] = if a < c { (a, c) } else { (c, a) };
                w += 1;
            }
        }
    };
    if pool.dispatch(total_pairs).is_parallel() {
        // Chunk over the pair index space so one giant block cannot
        // serialize the fill; blocks are assigned whole to the chunk
        // holding their range start.
        let ranges = chunk_ranges(n_blocks, pool.threads(), 1);
        let chunks: Vec<std::ops::Range<usize>> = ranges
            .iter()
            .map(|r| pair_offsets[r.start]..pair_offsets[r.end])
            .collect();
        let pair_offsets = &pair_offsets;
        pool.scope(|s| {
            let mut rest = raw.as_mut_slice();
            for (br, pr) in ranges.iter().zip(&chunks) {
                let (chunk, tail) = rest.split_at_mut(pr.len());
                rest = tail;
                let br = br.clone();
                s.submit(move || {
                    let base = pair_offsets[br.start];
                    for b in br {
                        fill_block(
                            b,
                            &mut chunk[pair_offsets[b] - base..pair_offsets[b + 1] - base],
                        );
                    }
                });
            }
        });
    } else {
        for b in 0..n_blocks {
            fill_block(b, &mut raw[pair_offsets[b]..pair_offsets[b + 1]]);
        }
    }

    // Sort; runs of the same pair give CBS (common kept blocks).
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
    er_obs::counter_add("blocking.meta.edges", edges.len() as u64);

    let kept_pairs: Vec<(u32, u32)> = match config.prune {
        Pruning::MinWeight(floor) => edges
            .iter()
            .filter(|&&(_, _, w)| w >= floor)
            .map(|&(a, b, _)| (a, b))
            .collect(),
        Pruning::MeanWeight => {
            let sum: u128 = edges.iter().map(|&(_, _, w)| u128::from(w)).sum();
            let m = edges.len() as u128;
            // w ≥ sum/m  ⇔  w·m ≥ sum, exactly.
            edges
                .iter()
                .filter(|&&(_, _, w)| u128::from(w) * m >= sum)
                .map(|&(a, b, _)| (a, b))
                .collect()
        }
    };
    er_obs::counter_add(
        "blocking.meta.pruned_edges",
        (edges.len() - kept_pairs.len()) as u64,
    );
    kept_pairs
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
