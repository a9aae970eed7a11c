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
/// get the same degenerate all-max signature; [`lsh_bucket_entries`]
/// skips them, since they cannot share a term with anything.
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

/// Groups row-major band keys into sorted `(bucket key, record)`
/// entries, skipping records with empty (post-filter) term sets.
fn entries_from_keys(corpus: &Corpus, params: &LshParams, keys: &[u64]) -> Vec<(u64, u32)> {
    let _span = er_obs::span("blocking.lsh.bucket_sort");
    let mut entries: Vec<(u64, u32)> = Vec::with_capacity(keys.len());
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
    entries
}

/// Sorted `(bucket key, record)` entries — one per (record, band) for
/// records with non-empty term sets. Equal keys form an LSH bucket; the
/// sort makes downstream grouping deterministic.
///
/// `signatures`, when given, maintains the band keys incrementally
/// ([`minhash_band_keys_cached`]); the output is identical either way.
pub fn lsh_bucket_entries(
    corpus: &Corpus,
    params: &LshParams,
    pool: &WorkerPool,
    signatures: Option<&mut SignatureCache>,
) -> Vec<(u64, u32)> {
    match signatures {
        Some(cache) => {
            let keys = minhash_band_keys_cached(corpus, params, pool, cache);
            entries_from_keys(corpus, params, keys)
        }
        None => entries_from_keys(corpus, params, &minhash_band_keys(corpus, params, pool)),
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

/// Expands sorted bucket entries into the sorted, deduplicated
/// candidate-pair list, skipping oversized buckets.
fn pairs_from_entries(
    corpus: &Corpus,
    entries: &[(u64, u32)],
    max_block_size: usize,
) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut buckets = 0u64;
    let mut oversized = 0u64;
    let mut start = 0usize;
    while start < entries.len() {
        let key = entries[start].0;
        let mut end = start + 1;
        while end < entries.len() && entries[end].0 == key {
            end += 1;
        }
        let size = end - start;
        if size >= 2 {
            buckets += 1;
            if size > max_block_size {
                oversized += 1;
            } else {
                for i in start..end {
                    for j in i + 1..end {
                        let (a, b) = (entries[i].1, entries[j].1);
                        pairs.push(if a < b { (a, b) } else { (b, a) });
                    }
                }
            }
        }
        start = end;
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
