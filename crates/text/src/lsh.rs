//! MinHash signatures and banding LSH — sub-quadratic candidate
//! generation for million-record corpora.
//!
//! Token blocking ([`crate::blocking::token_blocking`]) is exact but its
//! candidate count tracks the square of the posting-list lengths; at
//! 10⁶ records even mid-frequency terms produce quadratic blocks. LSH
//! trades exactness for scale: every record's term set is summarized by
//! a MinHash signature of `bands × rows` hash minima, the signature is
//! cut into `bands` bands of `rows` values each, and two records become
//! candidates iff at least one band hashes identically. A pair with
//! Jaccard similarity `s` collides with probability `1 − (1 − sʳ)ᵇ`
//! (the *banding bound*) — an S-curve whose inflection point
//! `(1/b)^(1/r)` is the scheme's effective similarity threshold, which
//! is how [`LshParams::for_threshold`] derives `(b, r)` from a target
//! threshold.
//!
//! Everything here is deterministic: the hash family is a seeded
//! splitmix64 mixer (no `RandomState`, no per-process salt), parallel
//! signature generation writes disjoint output ranges, and bucketing is
//! a serial sort over the `(band key, record)` entries — so the
//! candidate list is bit-identical at any thread count and across
//! serial/parallel dispatch (pinned by `tests/prop_lsh.rs`).

use std::ops::Range;

use er_pool::{chunk_ranges, ScratchSlot, WorkerPool};

use crate::corpus::Corpus;
use crate::tokenize::TermId;

/// Fixed hash-family seed: stable signatures across runs and platforms.
pub const DEFAULT_LSH_SEED: u64 = 0x5EED_0F1B_ADCA_FE00;

/// 64-bit avalanche mixer (the splitmix64 / MurmurHash3 finalizer).
/// Bijective, so distinct inputs never merge before bucketing.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Odd multiplicative constant (2⁶⁴/φ) separating hash-function indexes.
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

/// Banding parameters: `bands × rows` MinHash values per record, one
/// bucket key per band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LshParams {
    /// Number of bands (each contributes one bucketing attempt).
    pub bands: usize,
    /// MinHash rows per band (all must agree for a band collision).
    pub rows: usize,
    /// Hash-family seed.
    pub seed: u64,
}

impl LshParams {
    /// Parameters with the default seed.
    pub fn new(bands: usize, rows: usize) -> Self {
        assert!(bands >= 1 && rows >= 1, "bands and rows must be >= 1");
        Self {
            bands,
            rows,
            seed: DEFAULT_LSH_SEED,
        }
    }

    /// Derives `(bands, rows)` from a target Jaccard threshold: among
    /// all factorizations `b · r = signature_len`, picks the one whose
    /// banding-bound inflection point `(1/b)^(1/r)` is closest to
    /// `threshold` (ties resolve toward fewer rows — the higher-recall
    /// side). Deterministic for fixed inputs.
    pub fn for_threshold(threshold: f64, signature_len: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0, 1], got {threshold}"
        );
        assert!(signature_len >= 1, "signature_len must be >= 1");
        let mut best = (1usize, signature_len); // r = 1, b = n
        let mut best_gap = f64::INFINITY;
        for rows in 1..=signature_len {
            if !signature_len.is_multiple_of(rows) {
                continue;
            }
            let bands = signature_len / rows;
            let t = (1.0 / bands as f64).powf(1.0 / rows as f64);
            let gap = (t - threshold).abs();
            if gap < best_gap {
                best_gap = gap;
                best = (rows, bands);
            }
        }
        Self {
            bands: best.1,
            rows: best.0,
            seed: DEFAULT_LSH_SEED,
        }
    }

    /// Total MinHash values per record (`bands × rows`).
    pub fn signature_len(&self) -> usize {
        self.bands * self.rows
    }

    /// The banding bound's inflection point `(1/b)^(1/r)` — the Jaccard
    /// similarity at which a pair collides with probability ≈ 1 − 1/e.
    pub fn threshold(&self) -> f64 {
        (1.0 / self.bands as f64).powf(1.0 / self.rows as f64)
    }

    /// Probability that a pair with Jaccard similarity `s` shares at
    /// least one band bucket: `1 − (1 − sʳ)ᵇ`.
    pub fn collision_probability(&self, s: f64) -> f64 {
        1.0 - (1.0 - s.powi(self.rows as i32)).powi(self.bands as i32)
    }
}

impl Default for LshParams {
    /// 16 bands × 4 rows (64 hashes): threshold ≈ 0.5, the permissive
    /// regime meta-blocking expects from its recall-oriented source.
    fn default() -> Self {
        Self::new(16, 4)
    }
}

/// Records per parallel signature chunk: each record costs
/// `|term_set| × signature_len` mixes, so chunks this size comfortably
/// exceed the queue-coordination break-even.
const SIG_MIN_CHUNK: usize = 1024;

/// Fills `keys[i * bands + band]` with the band bucket key of record
/// `range.start + i`, using `sig` as the reusable signature row.
fn band_keys_for_range(
    corpus: &Corpus,
    params: &LshParams,
    range: Range<usize>,
    keys: &mut [u64],
    sig: &mut Vec<u64>,
) {
    let sig_len = params.signature_len();
    sig.clear();
    sig.resize(sig_len, u64::MAX);
    for (i, r) in range.enumerate() {
        sig.fill(u64::MAX);
        for &t in corpus.term_set(r) {
            // One base mix per term, then one mix per hash function:
            // h_k(t) = mix(base_t ^ k·φ).
            let base = mix64(params.seed ^ (u64::from(t.0) + 1).wrapping_mul(PHI));
            for (k, slot) in sig.iter_mut().enumerate() {
                let h = mix64(base ^ (k as u64).wrapping_mul(PHI));
                if h < *slot {
                    *slot = h;
                }
            }
        }
        for band in 0..params.bands {
            // Fold the band's rows; mixing the band index in keeps
            // identical row values in different bands apart.
            let mut acc = mix64(params.seed ^ (band as u64 + 1).wrapping_mul(PHI));
            for &v in &sig[band * params.rows..(band + 1) * params.rows] {
                acc = mix64(acc ^ v);
            }
            keys[i * params.bands + band] = acc;
        }
    }
}

/// MinHash band bucket keys for every record, row-major:
/// `keys[r * bands + band]`. Records with empty (post-filter) term sets
/// get the same degenerate all-max signature; bucketing skips them,
/// since they cannot share a term with anything.
///
/// Parallelized over disjoint record ranges behind the pool's cost
/// model, with the signature row as per-worker scratch
/// ([`ScratchSlot`]) — bit-identical at any thread count.
pub fn minhash_band_keys(corpus: &Corpus, params: &LshParams, pool: &WorkerPool) -> Vec<u64> {
    let _span = er_obs::span("blocking.lsh.signatures");
    let n = corpus.len();
    let mut keys = vec![0u64; n * params.bands];
    let total_terms: usize = (0..n).map(|r| corpus.term_set(r).len()).sum();
    let work = total_terms.saturating_mul(params.signature_len());
    let scratch: ScratchSlot<Vec<u64>> = ScratchSlot::new();
    if pool.dispatch(work).is_parallel() {
        let ranges = chunk_ranges(n, pool.threads(), SIG_MIN_CHUNK);
        let scratch = &scratch;
        pool.scope(|s| {
            let mut rest = keys.as_mut_slice();
            for r in ranges {
                let (chunk, tail) = rest.split_at_mut(r.len() * params.bands);
                rest = tail;
                s.submit(move || {
                    let mut sig = scratch.checkout();
                    band_keys_for_range(corpus, params, r, chunk, &mut sig);
                });
            }
        });
    } else {
        let mut sig = scratch.checkout();
        band_keys_for_range(corpus, params, 0..n, &mut keys, &mut sig);
    }
    keys
}

/// Incremental per-record MinHash maintenance: caches every record's
/// band keys alongside a copy of the (post-filter) term set they were
/// computed from, and recomputes a record's signature only when its
/// term set changed — a record newly ingested, or one whose kept terms
/// flipped because the growing corpus moved the frequent-term cap.
///
/// `band_keys_for_range` is a pure function of the term set, so a
/// reused row is **bit-identical** to a recomputed one; routing blocking
/// through the cache never changes a candidate list (pinned by the
/// tests below and `er-serve`'s incremental ≡ batch property).
#[derive(Debug, Default)]
pub struct SignatureCache {
    /// Parameters the cached keys were computed with; any change resets.
    params: Option<LshParams>,
    /// Band keys, row-major (`keys[r * bands + band]`).
    keys: Vec<u64>,
    /// The exact term set each cached row was computed from. Stored as a
    /// full copy rather than a hash: a fingerprint collision would
    /// silently break the bit-identity contract.
    term_sets: Vec<Vec<TermId>>,
    reused: u64,
    recomputed: u64,
}

impl SignatureCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record signatures served from the cache so far.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Record signatures (re)computed so far.
    pub fn recomputed(&self) -> u64 {
        self.recomputed
    }

    /// Number of records with cached signatures.
    pub fn len(&self) -> usize {
        self.term_sets.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.term_sets.is_empty()
    }
}

/// [`minhash_band_keys`] through a [`SignatureCache`]: bit-identical
/// output, but only records whose term set changed since the previous
/// call pay the `|term_set| × signature_len` mixing cost. The first
/// call (or a parameter change) fills the whole cache on the pool; the
/// steady state recomputes the dirty rows serially — in a streaming
/// engine those are the handful of records touched by the last ingest.
pub fn minhash_band_keys_cached<'c>(
    corpus: &Corpus,
    params: &LshParams,
    pool: &WorkerPool,
    cache: &'c mut SignatureCache,
) -> &'c [u64] {
    let n = corpus.len();
    if cache.params != Some(*params) {
        cache.params = Some(*params);
        cache.keys = minhash_band_keys(corpus, params, pool);
        cache.term_sets = (0..n).map(|r| corpus.term_set(r).to_vec()).collect();
        cache.recomputed += n as u64;
        er_obs::counter_add("blocking.lsh.signatures_recomputed", n as u64);
        return &cache.keys;
    }
    let _span = er_obs::span("blocking.lsh.signatures_incremental");
    // Rows past the previously cached length must always compute: a new
    // record with an *empty* post-filter term set would otherwise
    // compare equal to the resize-initialized empty cache row and
    // "reuse" a zero key instead of the degenerate all-max signature.
    let cached_rows = cache.term_sets.len().min(n);
    cache.keys.resize(n * params.bands, 0);
    cache.term_sets.resize_with(n, Vec::new);
    let mut sig = Vec::new();
    let (mut reused, mut recomputed) = (0u64, 0u64);
    for r in 0..n {
        if r < cached_rows && cache.term_sets[r].as_slice() == corpus.term_set(r) {
            reused += 1;
            continue;
        }
        let row = &mut cache.keys[r * params.bands..(r + 1) * params.bands];
        band_keys_for_range(corpus, params, r..r + 1, row, &mut sig);
        cache.term_sets[r] = corpus.term_set(r).to_vec();
        recomputed += 1;
    }
    cache.reused += reused;
    cache.recomputed += recomputed;
    er_obs::counter_add("blocking.lsh.signatures_reused", reused);
    er_obs::counter_add("blocking.lsh.signatures_recomputed", recomputed);
    &cache.keys
}

/// Passes of [`entries_from_keys`] over the band keys. Each pass
/// scatters about `1 / GROUPING_PASSES` of the entries into one reused
/// buffer, so the buffer stays a fixed fraction of the entries and the
/// pass count does not grow with the corpus.
const GROUPING_PASSES: usize = 4;

/// Target entries per key partition, so that each partition's key-count
/// table and sort stay in cache. Unit tests use tiny partitions, so that
/// their small inputs cross partition and pass boundaries.
const PARTITION_ENTRIES: usize = if cfg!(test) { 4 } else { 4096 };

/// At most 2¹⁶ partitions: the per-partition counts stay small next to
/// the keys.
const MAX_PARTITION_BITS: u32 = 16;

/// Groups row-major band keys into the sorted, deduplicated
/// `(bucket key, record)` entries of the buckets that hold at least 2
/// distinct entries, skipping records with empty (post-filter) term
/// sets. A singleton entry is never stored.
///
/// The entries are split into partitions by the top bits of their key,
/// and `passes` runs of consecutive partitions are each scattered into
/// one reused buffer. Each partition then keeps the entries whose key
/// it holds at least twice ([`KeyCounts`]), sorts them on its own, and
/// drops the runs of fewer than 2 distinct entries. Partitions follow
/// key order, so the runs' outputs concatenate in sorted order. A
/// partition larger than a pass (many equal keys) takes a pass of its
/// own.
fn entries_from_keys(
    corpus: &Corpus,
    params: &LshParams,
    keys: &[u64],
    passes: usize,
) -> Vec<(u64, u32)> {
    let _span = er_obs::span("blocking.lsh.bucket_sort");
    // Each record's band keys, for the records with a non-empty term set.
    let rows = || {
        keys.chunks_exact(params.bands)
            .enumerate()
            .filter(|&(r, _)| !corpus.term_set(r).is_empty())
    };
    let total = rows().count() * params.bands;
    let bits = total
        .div_ceil(PARTITION_ENTRIES)
        .next_power_of_two()
        .trailing_zeros()
        .min(MAX_PARTITION_BITS);
    // The key's top `bits` bits, shifted in two steps so that `bits = 0`
    // (a single partition) needs no branch.
    let partition = |key: u64| ((key >> 1) >> (63 - bits)) as usize;
    let n_parts = 1usize << bits;
    let mut starts = vec![0usize; n_parts + 1];
    for (_, row) in rows() {
        for &key in row {
            starts[partition(key) + 1] += 1;
        }
    }
    for p in 0..n_parts {
        starts[p + 1] += starts[p];
    }

    // Pass `i` ends at the first partition boundary holding at least
    // `i / passes` of the entries.
    let passes = passes.max(1);
    let mut runs: Vec<Range<usize>> = Vec::with_capacity(passes);
    let mut lo = 0usize;
    for i in 1..=passes {
        let hi = if i == passes {
            n_parts
        } else {
            let goal = total / passes * i + total % passes * i / passes;
            starts.partition_point(|&s| s < goal).clamp(lo, n_parts)
        };
        if starts[hi] > starts[lo] {
            runs.push(lo..hi);
        }
        lo = hi;
    }
    let buf_len = runs
        .iter()
        .map(|run| starts[run.end] - starts[run.start])
        .max()
        .unwrap_or(0);
    let mut buf = vec![(0u64, 0u32); buf_len];
    let mut cursor = vec![0usize; n_parts];
    let mut counts = KeyCounts::default();
    let mut out: Vec<(u64, u32)> = Vec::new();
    for run in runs {
        let base = starts[run.start];
        let pass = &mut buf[..starts[run.end] - base];
        for p in run.clone() {
            cursor[p] = starts[p] - base;
        }
        for (r, row) in rows() {
            for &key in row {
                let p = partition(key);
                if p.wrapping_sub(run.start) < run.len() {
                    pass[cursor[p]] = (key, r as u32);
                    cursor[p] += 1;
                }
            }
        }
        // Each partition moves the entries of its repeated keys to its
        // front, in place, and sorts them; `cursor[p]` becomes their
        // count.
        for p in run.clone() {
            let part = &mut pass[starts[p] - base..starts[p + 1] - base];
            counts.fill(part);
            let mut kept = 0;
            for i in 0..part.len() {
                if counts.get(part[i].0) >= 2 {
                    part[kept] = part[i];
                    kept += 1;
                }
            }
            part[..kept].sort_unstable();
            cursor[p] = kept;
        }
        // Equal keys share a partition, so no bucket straddles two.
        let buckets = || {
            run.clone().flat_map(|p| {
                let at = starts[p] - base;
                pass[at..at + cursor[p]].chunk_by(|x, y| x.0 == y.0)
            })
        };
        out.reserve_exact(buckets().map(|b| colliding(b).count()).sum());
        for bucket in buckets() {
            out.extend(colliding(bucket));
        }
    }
    er_obs::counter_add("blocking.lsh.colliding_entries", out.len() as u64);
    out
}

/// How often each key occurs in one partition's entries: an
/// open-addressing table (linear probing, at most half full, slots
/// picked by [`mix64`] of the key), reused from partition to partition.
#[derive(Debug, Default)]
struct KeyCounts {
    /// `keys[s]` is meaningful only where `counts[s] > 0`.
    keys: Vec<u64>,
    counts: Vec<u32>,
}

impl KeyCounts {
    /// Counts the keys of `entries`, forgetting every earlier partition.
    fn fill(&mut self, entries: &[(u64, u32)]) {
        let slots = (2 * entries.len()).next_power_of_two();
        self.counts.clear();
        self.counts.resize(slots, 0);
        self.keys.resize(slots, 0);
        for &(key, _) in entries {
            let s = self.slot(key);
            self.keys[s] = key;
            self.counts[s] = self.counts[s].saturating_add(1);
        }
    }

    /// Occurrences of `key` among the entries last filled.
    fn get(&self, key: u64) -> u32 {
        self.counts[self.slot(key)]
    }

    /// The slot holding `key`, or the empty slot where it would go.
    fn slot(&self, key: u64) -> usize {
        let mask = self.counts.len() - 1;
        let mut s = mix64(key) as usize & mask;
        while self.counts[s] != 0 && self.keys[s] != key {
            s = (s + 1) & mask;
        }
        s
    }
}

/// The distinct entries of one sorted bucket, or none when it holds
/// fewer than 2 distinct entries. Entries of a bucket differ only in
/// their record, so the bucket collides iff its first and last record
/// differ.
fn colliding(bucket: &[(u64, u32)]) -> impl Iterator<Item = (u64, u32)> + '_ {
    let collides = bucket.first().map(|e| e.1) != bucket.last().map(|e| e.1);
    bucket
        .iter()
        .enumerate()
        .filter(move |&(i, e)| collides && (i == 0 || bucket[i - 1] != *e))
        .map(|(_, &e)| e)
}

/// Sorted `(bucket key, record)` entries of the LSH buckets that hold at
/// least 2 distinct records — one entry per (record, band) of a record
/// with a non-empty term set, kept only when another record shares the
/// band's key. Equal keys form an LSH bucket; the sort makes downstream
/// grouping deterministic. The entries of singleton buckets are never
/// stored.
///
/// `signatures`, when given, maintains the band keys incrementally
/// ([`minhash_band_keys_cached`]); the output is identical either way.
pub(crate) fn lsh_bucket_entries(
    corpus: &Corpus,
    params: &LshParams,
    pool: &WorkerPool,
    signatures: Option<&mut SignatureCache>,
) -> Vec<(u64, u32)> {
    match signatures {
        Some(cache) => {
            let keys = minhash_band_keys_cached(corpus, params, pool, cache);
            entries_from_keys(corpus, params, keys, GROUPING_PASSES)
        }
        None => entries_from_keys(
            corpus,
            params,
            &minhash_band_keys(corpus, params, pool),
            GROUPING_PASSES,
        ),
    }
}

/// Banding LSH blocking: candidates are all record pairs sharing at
/// least one band bucket, with buckets above `max_block_size` skipped
/// (an oversized bucket is the hash-space image of a stop-term block —
/// quadratic and nearly information-free).
///
/// `signatures`, when given, keeps MinHash band keys warm across calls,
/// so a steady-state call only recomputes signatures for records whose
/// term set changed; the candidate list is the same either way.
///
/// Returns sorted, deduplicated `(a, b)` pairs with `a < b`, identical
/// at every thread count.
pub fn lsh_blocking(
    corpus: &Corpus,
    params: &LshParams,
    max_block_size: usize,
    pool: &WorkerPool,
    signatures: Option<&mut SignatureCache>,
) -> Vec<(u32, u32)> {
    let _span = er_obs::span("blocking.lsh");
    er_obs::gauge_set("blocking.lsh.bands", params.bands as f64);
    er_obs::gauge_set("blocking.lsh.rows", params.rows as f64);
    let entries = lsh_bucket_entries(corpus, params, pool, signatures);
    pairs_from_entries(corpus, &entries, max_block_size)
}

/// Expands sorted colliding bucket entries (every bucket holds at
/// least 2) into the sorted, deduplicated candidate-pair list, skipping
/// oversized buckets.
fn pairs_from_entries(
    corpus: &Corpus,
    entries: &[(u64, u32)],
    max_block_size: usize,
) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut buckets = 0u64;
    let mut oversized = 0u64;
    for bucket in entries.chunk_by(|x, y| x.0 == y.0) {
        buckets += 1;
        if bucket.len() > max_block_size {
            oversized += 1;
            continue;
        }
        for (i, &(_, a)) in bucket.iter().enumerate() {
            for &(_, b) in &bucket[i + 1..] {
                pairs.push(if a < b { (a, b) } else { (b, a) });
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    er_obs::counter_add("blocking.lsh.buckets", buckets);
    er_obs::counter_add("blocking.lsh.oversized_buckets", oversized);
    crate::blocking::note_blocking_stats("lsh", corpus.len(), pairs.len());
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;

    fn corpus() -> Corpus {
        CorpusBuilder::new()
            .push_text("fenix sunset 8358 hollywood grill")
            .push_text("fenix sunset 8358 hollywood diner")
            .push_text("completely different words here now")
            .push_text("fenix sunset 8358 hollywood grill")
            .build()
    }

    #[test]
    fn for_threshold_picks_closest_factorization() {
        let p = LshParams::for_threshold(0.5, 64);
        assert_eq!(p.bands * p.rows, 64);
        // Every other factorization must be at least as far from 0.5.
        for rows in 1..=64usize {
            if 64 % rows != 0 {
                continue;
            }
            let t = (1.0 / (64 / rows) as f64).powf(1.0 / rows as f64);
            assert!(
                (p.threshold() - 0.5).abs() <= (t - 0.5).abs() + 1e-12,
                "rows={rows} beats the chosen ({}, {})",
                p.bands,
                p.rows
            );
        }
    }

    #[test]
    fn collision_probability_is_monotone() {
        let p = LshParams::default();
        let mut last = -1.0;
        for i in 0..=10 {
            let s = i as f64 / 10.0;
            let c = p.collision_probability(s);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= last, "not monotone at s={s}");
            last = c;
        }
        assert!(p.collision_probability(1.0) > 0.999_999);
    }

    #[test]
    fn identical_records_always_collide() {
        let c = corpus();
        let pool = WorkerPool::new(1);
        let pairs = lsh_blocking(&c, &LshParams::default(), usize::MAX, &pool, None);
        assert!(pairs.contains(&(0, 3)), "{pairs:?}"); // identical texts
        assert!(pairs.contains(&(0, 1)), "{pairs:?}"); // 4/6 Jaccard
    }

    #[test]
    fn dissimilar_records_do_not_collide() {
        let c = corpus();
        let pool = WorkerPool::new(1);
        let pairs = lsh_blocking(&c, &LshParams::new(8, 8), usize::MAX, &pool, None);
        assert!(!pairs.iter().any(|&(a, b)| a == 2 || b == 2), "{pairs:?}");
    }

    #[test]
    fn band_keys_thread_invariant() {
        let c = corpus();
        let p = LshParams::default();
        let serial = minhash_band_keys(&c, &p, &WorkerPool::new(1));
        let pooled = minhash_band_keys(
            &c,
            &p,
            &WorkerPool::with_policy(4, er_pool::DispatchPolicy::always_parallel()),
        );
        assert_eq!(serial, pooled);
    }

    #[test]
    fn cached_blocking_matches_plain_and_reuses_clean_rows() {
        let c = corpus();
        let pool = WorkerPool::new(1);
        let p = LshParams::default();
        let mut cache = SignatureCache::new();
        let plain = lsh_blocking(&c, &p, usize::MAX, &pool, None);
        let cold = lsh_blocking(&c, &p, usize::MAX, &pool, Some(&mut cache));
        assert_eq!(plain, cold);
        assert_eq!(cache.recomputed(), c.len() as u64);
        // Same corpus again: every row reuses.
        let warm = lsh_blocking(&c, &p, usize::MAX, &pool, Some(&mut cache));
        assert_eq!(plain, warm);
        assert_eq!(cache.reused(), c.len() as u64);
        // A grown corpus recomputes only the new record.
        let grown = CorpusBuilder::new()
            .push_text("fenix sunset 8358 hollywood grill")
            .push_text("fenix sunset 8358 hollywood diner")
            .push_text("completely different words here now")
            .push_text("fenix sunset 8358 hollywood grill")
            .push_text("fenix sunset 8358 hollywood tavern")
            .build();
        let incr = lsh_blocking(&grown, &p, usize::MAX, &pool, Some(&mut cache));
        assert_eq!(incr, lsh_blocking(&grown, &p, usize::MAX, &pool, None));
        assert_eq!(cache.recomputed(), c.len() as u64 + 1);
        assert_eq!(cache.reused(), 2 * c.len() as u64);
    }

    #[test]
    fn cache_resets_on_parameter_change() {
        let c = corpus();
        let pool = WorkerPool::new(1);
        let mut cache = SignatureCache::new();
        let _ = minhash_band_keys_cached(&c, &LshParams::default(), &pool, &mut cache);
        let other = LshParams::new(8, 8);
        let keys = minhash_band_keys_cached(&c, &other, &pool, &mut cache).to_vec();
        assert_eq!(keys, minhash_band_keys(&c, &other, &pool));
        assert_eq!(cache.recomputed(), 2 * c.len() as u64);
    }

    #[test]
    fn cache_detects_term_set_changes_in_place() {
        // Same record count, but record 1's kept term set shrinks (the
        // way a moving frequent-term cap flips terms out of a streaming
        // corpus): only that row recomputes, and the keys must equal a
        // fresh computation.
        let pool = WorkerPool::new(1);
        let p = LshParams::default();
        let a = CorpusBuilder::new()
            .extend_texts(["alpha beta gamma", "delta epsilon zeta"])
            .build();
        let b = CorpusBuilder::new()
            .extend_texts(["alpha beta gamma", "delta epsilon"])
            .build();
        let mut cache = SignatureCache::new();
        let _ = minhash_band_keys_cached(&a, &p, &pool, &mut cache);
        let keys = minhash_band_keys_cached(&b, &p, &pool, &mut cache).to_vec();
        assert_eq!(keys, minhash_band_keys(&b, &p, &pool));
        assert_eq!(cache.reused(), 1);
        assert_eq!(cache.recomputed(), a.len() as u64 + 1);
    }

    #[test]
    fn bucket_cap_drops_oversized_buckets() {
        // Ten identical records form one 10-record bucket per band.
        let mut b = CorpusBuilder::new();
        for _ in 0..10 {
            b = b.push_text("alpha beta gamma delta");
        }
        let c = b.build();
        let pool = WorkerPool::new(1);
        let uncapped = lsh_blocking(&c, &LshParams::default(), usize::MAX, &pool, None);
        assert_eq!(uncapped.len(), 45); // C(10, 2)
        let capped = lsh_blocking(&c, &LshParams::default(), 4, &pool, None);
        assert!(capped.is_empty(), "{capped:?}");
    }

    /// The grouping the partitioned passes replaced, kept as the oracle:
    /// every entry sorted and deduplicated, then buckets with fewer than
    /// 2 distinct entries dropped.
    fn all_entries_oracle(corpus: &Corpus, params: &LshParams, keys: &[u64]) -> Vec<(u64, u32)> {
        let mut entries: Vec<(u64, u32)> = Vec::new();
        for r in 0..corpus.len() {
            if corpus.term_set(r).is_empty() {
                continue;
            }
            for band in 0..params.bands {
                entries.push((keys[r * params.bands + band], r as u32));
            }
        }
        entries.sort_unstable();
        entries.dedup();
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < entries.len() {
            let mut end = start + 1;
            while end < entries.len() && entries[end].0 == entries[start].0 {
                end += 1;
            }
            if end - start >= 2 {
                out.extend_from_slice(&entries[start..end]);
            }
            start = end;
        }
        out
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// `n` records, each holding one term of its own, except those
        /// `empty` marks, which hold none.
        fn records(empty: &[bool]) -> Corpus {
            let texts: Vec<String> = empty
                .iter()
                .enumerate()
                .map(|(r, &e)| if e { String::new() } else { format!("w{r}") })
                .collect();
            CorpusBuilder::new().extend_texts(texts).build()
        }

        /// Row-major keys of one of four shapes: all equal, differing
        /// only in their low bits, drawn from a few values spread over
        /// the whole key range, or a mix of those.
        fn keys(len: usize) -> impl Strategy<Value = Vec<u64>> {
            (
                0usize..4,
                proptest::collection::vec((0u64..8, 0u64..8, 0u64..3), len),
            )
                .prop_map(|(shape, draws)| {
                    draws
                        .into_iter()
                        .map(|(hi, lo, pick)| match (shape, pick) {
                            (0, _) => 0x5EED_5EED_5EED_5EED,
                            (1, _) | (3, 0) => 0xABCD_0000_0000_0000 | lo,
                            _ => hi.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ lo,
                        })
                        .collect()
                })
        }

        fn input() -> impl Strategy<Value = (Vec<bool>, usize, Vec<u64>)> {
            (proptest::collection::vec(0u32..6, 0..40), 1usize..5).prop_flat_map(
                |(marks, bands)| {
                    let empty: Vec<bool> = marks.iter().map(|&m| m == 0).collect();
                    let len = empty.len() * bands;
                    (Just(empty), Just(bands), keys(len))
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The partitioned grouping equals the oracle at 1, 2, 3 and
            /// 7 passes and at the default.
            #[test]
            fn grouping_matches_sort_everything_oracle((empty, bands, keys) in input()) {
                let corpus = records(&empty);
                let params = LshParams::new(bands, 1);
                let want = all_entries_oracle(&corpus, &params, &keys);
                for passes in [1usize, 2, 3, 7, GROUPING_PASSES] {
                    let got = entries_from_keys(&corpus, &params, &keys, passes);
                    prop_assert_eq!(&got, &want, "passes={}", passes);
                }
            }
        }
    }

    #[test]
    fn grouping_handles_empty_and_single_bucket_inputs() {
        let params = LshParams::new(4, 1);
        let none = CorpusBuilder::new().build();
        assert!(entries_from_keys(&none, &params, &[], 3).is_empty());
        // Three records with the same key in every band: one bucket
        // holding all twelve entries is a partition larger than any pass.
        let c = CorpusBuilder::new().extend_texts(["a", "b", "c"]).build();
        let keys = vec![7u64; 12];
        for passes in [1usize, 2, 3, 7] {
            let got = entries_from_keys(&c, &params, &keys, passes);
            assert_eq!(got, vec![(7, 0), (7, 1), (7, 2)], "passes={passes}");
        }
    }

    #[test]
    fn empty_records_never_pair() {
        let c = CorpusBuilder::new()
            .extend_texts(["shared words", "shared words", "", ""])
            .build();
        let pool = WorkerPool::new(1);
        let pairs = lsh_blocking(&c, &LshParams::default(), usize::MAX, &pool, None);
        assert_eq!(pairs, vec![(0, 1)]);
    }
}
