//! Batched string-similarity engine.
//!
//! Every similarity consumer in the pipeline used to score one pair at
//! a time over per-record `String`s: each call re-derived character
//! vectors, re-allocated DP rows, and chased a fresh pointer per
//! record. This module replaces that shape with two pieces:
//!
//! * [`StrTape`] — an arena holding every record text contiguously as
//!   decoded `char`s, with one offset table and a per-record BMP flag.
//!   Built once per dataset; per-pair access is two offset loads and a
//!   slice.
//! * [`BatchScorer`] — scores a slice of `(a, b)` record-index pairs
//!   against the tape in one call. DP scratch is amortized across the
//!   batch through [`er_pool::ScratchSlot`] (one [`SimScratch`] per
//!   worker, reused pair to pair), the pool fan-out is the repo's
//!   deterministic contiguous-chunk contract, and the
//!   [`WorkerPool::dispatch`] cost estimate is derived from the tape
//!   (the sum of actual string-length products — the DP cell count —
//!   instead of a per-pair constant).
//!
//! The kernels are the PR 4 per-pair fast paths lifted out of the
//! feature extractor: block-Myers bit-parallel Levenshtein, the
//! bit-parallel Jaro matcher, the i16 antidiagonal Smith-Waterman, and
//! memoized Monge-Elkan. Each is bit-identical to its reference metric
//! in [`crate::metrics`] (pinned by proptests at 1/2/8 threads), so
//! the per-pair metric functions remain the oracles and every batch
//! result can be checked against them.
//!
//! Like `er-matrix`'s packed GEMM, the kernels adapt to the compiled
//! ISA through `cfg!(target_feature)` constants ([`SW_LANES`],
//! [`MASK_SPARSE_ROWS`]). The constants only pick *between bitwise-
//! equivalent strategies* (antidiagonal vs rolling-row DP, sparse vs
//! dense mask reset), so results never depend on the target.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use er_pool::{ScratchSlot, WorkerPool};

use crate::corpus::Corpus;
use crate::metrics::{
    jaro_winkler, levenshtein_similarity, monge_elkan, smith_waterman_similarity,
};

/// Minimum pairs per pooled scoring chunk — below this, chunk setup
/// (scratch checkout, task dispatch) dominates the DP work.
const BATCH_MIN_CHUNK: usize = 64;

/// i16 lanes per vector register in the antidiagonal Smith-Waterman
/// kernel. Pairs whose shorter string holds fewer characters than one
/// vector of interior cells pay the antidiagonal bookkeeping (three
/// rotating buffers, border cells, a reversed copy of `b`) without ever
/// filling a vector, so they take the scalar rolling-row DP instead —
/// the two kernels produce the identical doubled-integer score, this
/// cutover is purely a speed choice.
pub const SW_LANES: usize = if cfg!(target_feature = "avx512bw") {
    32
} else if cfg!(target_feature = "avx2") {
    16
} else {
    8
};

/// Sparse-reset cutover for the bit-parallel mask table. The Myers and
/// Jaro kernels share a dense 128-row ASCII position-mask table that
/// must be zeroed between pairs; with wide vector stores the full-table
/// memset is nearly free, while on narrow targets it dominates short
/// strings. When the previous string touched at most this many distinct
/// ASCII rows, only those rows are re-zeroed (tracked in a 128-bit
/// seen-set); otherwise the whole table is memset. Either reset leaves
/// the same all-zero table, so this never changes results.
pub const MASK_SPARSE_ROWS: usize = if cfg!(target_feature = "avx512f") {
    16
} else if cfg!(target_feature = "avx") {
    24
} else {
    32
};

/// Multiply-xor hasher for the Monge-Elkan memo keys (packed token-id
/// pairs). The keys are already well-mixed small integers; SipHash's
/// collision resistance buys nothing here and its latency is the whole
/// cost of a memo hit.
#[derive(Debug, Default, Clone)]
struct PairKeyHasher(u64);

impl std::hash::Hasher for PairKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
        self.0 = h;
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }
}

/// Small per-term memo: `other id -> value`. Keyed per leading term so
/// each map stays cache-resident instead of one huge DRAM-bound table.
type TermCache = HashMap<u32, f64, BuildHasherDefault<PairKeyHasher>>;

/// Reusable per-worker buffers for batched scoring: bit-parallel state,
/// DP rows, Jaro match buffers, and the two Monge-Elkan memo levels.
/// One per scoring chunk; never shared across threads. All buffers grow
/// to the batch's high-water mark and are reused pair to pair — at
/// steady state over a warm scratch no kernel allocates.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Jaro-Winkler over interned tokens: `jw_by_term[x][y] = jw(x, y)`.
    jw_by_term: Vec<TermCache>,
    /// Monge-Elkan inner maximum: `best_by_term[x][record] = max_y jw`.
    best_by_term: Vec<TermCache>,
    /// Per-character position bitmasks: dense rows for ASCII, stamped
    /// map rows for the rest (see [`CharMasks`]).
    mask_ascii: Vec<u64>,
    mask_other: HashMap<char, (u64, Vec<u64>)>,
    /// ASCII rows the previous [`build_masks`] touched, as a 128-bit
    /// set — drives the sparse reset (see [`MASK_SPARSE_ROWS`]).
    mask_seen: u128,
    /// Generation stamp distinguishing current from stale
    /// `mask_other` rows (cleared lazily, never dropped).
    mask_gen: u64,
    /// Myers-Levenshtein vertical delta words.
    lev_vp: Vec<u64>,
    lev_vn: Vec<u64>,
    /// Jaro matched-position bitmask over `b`.
    taken: Vec<u64>,
    /// Smith-Waterman antidiagonal buffers (current, −1, −2), the pair's
    /// code units and the reversed second string.
    sw_d0: Vec<i16>,
    sw_d1: Vec<i16>,
    sw_d2: Vec<i16>,
    sw_a: Vec<u16>,
    sw_b: Vec<u16>,
    sw_rev: Vec<u16>,
    sw_row: Vec<i32>,
    a_matches: Vec<char>,
    b_matches: Vec<char>,
}

/// The per-character position bitmasks of one string, `words` `u64`s per
/// character — shared input format of the Myers-Levenshtein kernel and
/// the bit-parallel Jaro matcher. Borrows the scratch buffers.
struct CharMasks<'s> {
    ascii: &'s [u64],
    other: &'s HashMap<char, (u64, Vec<u64>)>,
    gen: u64,
    words: usize,
}

impl CharMasks<'_> {
    /// Bitmask row for `c`; `None` when `c` never occurs in the string.
    fn row(&self, c: char) -> Option<&[u64]> {
        if (c as u32) < 128 {
            Some(&self.ascii[c as usize * self.words..(c as usize + 1) * self.words])
        } else {
            self.other
                .get(&c)
                .and_then(|(stamp, row)| (*stamp == self.gen).then_some(row.as_slice()))
        }
    }
}

/// Fills the scratch mask table with the position bitmasks of `chars`.
///
/// Reset strategy: ASCII rows are zeroed sparsely (only the rows the
/// previous string touched) when that set is small, densely otherwise
/// ([`MASK_SPARSE_ROWS`]). Non-ASCII rows are never dropped — each map
/// row carries a generation stamp, and a stale row is re-zeroed in
/// place on first touch — so a warm scratch builds masks without
/// allocating even for non-ASCII text.
// er-lint: zero-alloc
fn build_masks<'s>(
    mask_ascii: &'s mut Vec<u64>,
    mask_other: &'s mut HashMap<char, (u64, Vec<u64>)>,
    mask_seen: &mut u128,
    mask_gen: &mut u64,
    chars: &[char],
    words: usize,
) -> CharMasks<'s> {
    let dense_len = 128 * words;
    let prev = *mask_seen;
    if mask_ascii.len() == dense_len && (prev.count_ones() as usize) <= MASK_SPARSE_ROWS {
        // Invariant: only rows recorded in `mask_seen` are nonzero, so
        // zeroing exactly those restores the all-zero table.
        let mut rest = prev;
        while rest != 0 {
            let c = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            mask_ascii[c * words..(c + 1) * words].fill(0);
        }
    } else {
        mask_ascii.clear();
        mask_ascii.resize(dense_len, 0);
    }
    *mask_gen += 1;
    let gen = *mask_gen;
    let mut seen = 0u128;
    for (i, &c) in chars.iter().enumerate() {
        let bit = 1u64 << (i & 63);
        if (c as u32) < 128 {
            mask_ascii[c as usize * words + (i >> 6)] |= bit;
            seen |= 1u128 << (c as u32);
        } else {
            let (stamp, row) = mask_other
                .entry(c)
                // er-lint: allow(zero_alloc) -- first sight of a non-ASCII char allocates its row; stamped reuse thereafter
                .or_insert_with(|| (0, Vec::new()));
            if *stamp != gen {
                *stamp = gen;
                row.clear();
                row.resize(words, 0);
            }
            row[i >> 6] |= bit;
        }
    }
    *mask_seen = seen;
    CharMasks {
        ascii: mask_ascii,
        other: mask_other,
        gen,
        words,
    }
}

/// Levenshtein distance via Myers' bit-parallel algorithm, block form —
/// the `calculateBlock` update popularized by edlib. Vertical deltas
/// live in `VP`/`VN` words over the pattern; per text character the
/// horizontal delta chains across words through `hp`/`hn` carry bits
/// (the boundary column contributes the constant `+1` carry into word
/// 0). Computes the exact integer distance of the reference DP.
// er-lint: zero-alloc
pub fn myers_distance(pattern: &[char], text: &[char], scratch: &mut SimScratch) -> usize {
    let m = pattern.len();
    let words = m.div_ceil(64);
    let SimScratch {
        mask_ascii,
        mask_other,
        mask_seen,
        mask_gen,
        lev_vp,
        lev_vn,
        ..
    } = scratch;
    let masks = build_masks(mask_ascii, mask_other, mask_seen, mask_gen, pattern, words);
    lev_vp.clear();
    lev_vp.resize(words, !0u64);
    lev_vn.clear();
    lev_vn.resize(words, 0);
    let mut score = m;
    let last = words - 1;
    let last_bit = 1u64 << ((m - 1) & 63);
    for &c in text {
        let eq_row = masks.row(c);
        let mut hp_in = 1u64;
        let mut hn_in = 0u64;
        for j in 0..words {
            let eq = eq_row.map_or(0, |r| r[j]);
            let pv = lev_vp[j];
            let nv = lev_vn[j];
            let xv = eq | nv;
            let eq_h = eq | hn_in;
            let xh = ((eq_h & pv).wrapping_add(pv) ^ pv) | eq_h;
            let hp = nv | !(xh | pv);
            let hn = pv & xh;
            if j == last {
                if hp & last_bit != 0 {
                    score += 1;
                } else if hn & last_bit != 0 {
                    score -= 1;
                }
            }
            let hp_out = hp >> 63;
            let hn_out = hn >> 63;
            let hp = (hp << 1) | hp_in;
            let hn = (hn << 1) | hn_in;
            hp_in = hp_out;
            hn_in = hn_out;
            lev_vp[j] = hn | !(xv | hp);
            lev_vn[j] = hp & xv;
        }
    }
    score
}

/// [`levenshtein_similarity`] via [`myers_distance`], pattern = the
/// shorter string. The distance is the same exact integer the reference
/// DP produces — Levenshtein is symmetric — so the similarity is
/// bit-identical.
// er-lint: zero-alloc
pub fn levenshtein_prepared(a: &[char], b: &[char], scratch: &mut SimScratch) -> f64 {
    let max = a.len().max(b.len());
    if max == 0 {
        return 1.0;
    }
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let dist = if short.is_empty() {
        long.len()
    } else {
        myers_distance(short, long, scratch)
    };
    1.0 - dist as f64 / max as f64
}

/// `jaro` with the match scan bit-parallelized: `b`'s positions live in
/// per-character bitmasks, matched positions in a `taken` bitmask, so
/// "first unmatched occurrence of `ca` inside the window" is a masked
/// word scan + `trailing_zeros` — the same position the reference's
/// linear scan picks, so the same matches, transpositions, and bits.
// er-lint: zero-alloc
pub fn jaro_prepared(a: &[char], b: &[char], scratch: &mut SimScratch) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    if a.len() == 1 && b.len() == 1 {
        return if a[0] == b[0] { 1.0 } else { 0.0 };
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let words = b.len().div_ceil(64);
    let SimScratch {
        mask_ascii,
        mask_other,
        mask_seen,
        mask_gen,
        taken,
        a_matches,
        b_matches,
        ..
    } = scratch;
    let masks = build_masks(mask_ascii, mask_other, mask_seen, mask_gen, b, words);
    taken.clear();
    taken.resize(words, 0);
    a_matches.clear();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        if lo >= hi {
            continue;
        }
        let Some(eq) = masks.row(ca) else { continue };
        let w_lo = lo >> 6;
        let w_hi = (hi - 1) >> 6;
        for w in w_lo..=w_hi {
            let mut cand = eq[w] & !taken[w];
            if w == w_lo {
                cand &= !((1u64 << (lo & 63)) - 1);
            }
            if w == w_hi {
                let top = hi - (w << 6);
                if top < 64 {
                    cand &= (1u64 << top) - 1;
                }
            }
            if cand != 0 {
                taken[w] |= cand & cand.wrapping_neg();
                a_matches.push(ca);
                break;
            }
        }
    }
    let m = a_matches.len();
    if m == 0 {
        return 0.0;
    }
    b_matches.clear();
    for (w, &tw) in taken.iter().enumerate() {
        let mut tw = tw;
        while tw != 0 {
            b_matches.push(b[(w << 6) + tw.trailing_zeros() as usize]);
            tw &= tw - 1;
        }
    }
    let transpositions = a_matches
        .iter()
        .zip(b_matches.iter())
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = m as f64;
    let t = transpositions as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// [`jaro_winkler`] on top of [`jaro_prepared`] — same prefix bonus.
// er-lint: zero-alloc
pub fn jaro_winkler_prepared(a: &[char], b: &[char], scratch: &mut SimScratch) -> f64 {
    let j = jaro_prepared(a, b, scratch);
    let prefix = a
        .iter()
        .zip(b.iter())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Doubled-integer Smith-Waterman, rolling-row form — the fallback for
/// non-BMP texts and for pairs too short to fill a vector of
/// antidiagonal cells. `row[j]` holds the previous row's value until
/// overwritten; the diagonal is carried in a local.
// er-lint: zero-alloc
pub fn sw_scalar(a: &[char], b: &[char], scratch: &mut SimScratch) -> i32 {
    let row = &mut scratch.sw_row;
    row.clear();
    row.resize(b.len(), 0);
    let mut best = 0i32;
    for &ac in a {
        let mut diag = 0i32;
        let mut left = 0i32;
        for (&bc, cell) in b.iter().zip(row.iter_mut()) {
            let up = *cell;
            let sub = if ac == bc { 2 } else { -2 };
            let v = (diag + sub).max(up.max(left) - 1).max(0);
            *cell = v;
            diag = up;
            left = v;
            best = best.max(v);
        }
    }
    best
}

/// Doubled-integer Smith-Waterman over antidiagonals. Cells on one
/// antidiagonal depend only on the two previous antidiagonals, so the
/// inner loop carries no dependency and LLVM auto-vectorizes the i16
/// lanes. Same max/add integers as [`sw_scalar`], just reassociated
/// cell order — the result is the identical `best`.
// er-lint: zero-alloc
pub fn sw_antidiag(a: &[u16], b: &[u16], scratch: &mut SimScratch) -> i32 {
    let (n, m) = (a.len(), b.len());
    let SimScratch {
        sw_d0,
        sw_d1,
        sw_d2,
        sw_rev,
        ..
    } = scratch;
    // Reverse `b` so the antidiagonal's `b[d - i]` reads become forward
    // loads: with `br[k] = b[m-1-k]`, `b[d - i] = br[m-1-d+i]`.
    sw_rev.clear();
    sw_rev.extend(b.iter().rev());
    for buf in [&mut *sw_d0, &mut *sw_d1, &mut *sw_d2] {
        buf.clear();
        buf.resize(n, 0);
    }
    let mut best = 0i16;
    for d in 0..n + m - 1 {
        let i_lo = (d + 1).saturating_sub(m);
        let i_hi = d.min(n - 1);
        // Border cells (first row / first column): missing neighbors
        // are the zero boundary.
        if i_lo == 0 {
            let left = if d >= 1 { sw_d1[0] } else { 0 };
            let sub = if a[0] == b[d] { 2 } else { -2 };
            sw_d0[0] = sub.max(left - 1).max(0);
        }
        if i_hi == d && d >= 1 {
            let up = sw_d1[d - 1];
            let sub = if a[d] == b[0] { 2 } else { -2 };
            sw_d0[d] = sub.max(up - 1).max(0);
        }
        // Interior: all three neighbors in-matrix, straight-line zips.
        let lo = i_lo.max(1);
        let hi = i_hi.min(d.wrapping_sub(1));
        if d >= 2 && lo <= hi {
            let len = hi - lo + 1;
            let k0 = (m + lo - 1) - d;
            let (diags, ups, up_lefts) = (
                &sw_d2[lo - 1..lo - 1 + len],
                &sw_d1[lo..lo + len],
                &sw_d1[lo - 1..lo - 1 + len],
            );
            let (acs, bcs) = (&a[lo..lo + len], &sw_rev[k0..k0 + len]);
            let out = &mut sw_d0[lo..lo + len];
            let neighbors = diags.iter().zip(ups).zip(up_lefts);
            let chars = acs.iter().zip(bcs);
            for ((o, ((&dg, &up), &ul)), (&ac, &bc)) in out.iter_mut().zip(neighbors).zip(chars) {
                let sub = if ac == bc { 2i16 } else { -2 };
                *o = (dg + sub).max(up.max(ul) - 1).max(0);
            }
        }
        let mut diag_best = 0i16;
        for &v in &sw_d0[i_lo..=i_hi] {
            diag_best = diag_best.max(v);
        }
        best = best.max(diag_best);
        std::mem::swap(sw_d1, sw_d2);
        std::mem::swap(sw_d0, sw_d1);
    }
    i32::from(best)
}

/// [`smith_waterman_similarity`] with the default scoring (match 1.0,
/// mismatch −1.0, gap −0.5) on a doubled-integer DP. Every cell of the
/// reference float DP is an exact multiple of 0.5, so doubling the
/// increments (+2/−2/−1, floor 0) gives `cell × 2` exactly, and halving
/// the best score reproduces the float result bit for bit. When `bmp`
/// says both texts are BMP-only ([`StrTape::bmp`]) and the pair is long
/// enough to fill a vector ([`SW_LANES`]), the pair is converted into the
/// scratch's `u16` buffers for the antidiagonal kernel; the rolling-row
/// char DP covers the rest (identical integers either way).
// er-lint: zero-alloc
pub fn smith_waterman_prepared(a: &[char], b: &[char], bmp: bool, scratch: &mut SimScratch) -> f64 {
    let min_len = a.len().min(b.len());
    if min_len == 0 {
        return if a.is_empty() && b.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    // The doubled i16 cells are bounded by 2·min_len; stay far from
    // saturation before trusting the i16 kernel.
    let best = if bmp && (SW_LANES..=8000).contains(&min_len) {
        // Each BMP char is one code unit; the buffers leave the scratch
        // while the kernel borrows it, keeping their capacity.
        let (mut wa, mut wb) = (
            std::mem::take(&mut scratch.sw_a),
            std::mem::take(&mut scratch.sw_b),
        );
        wa.clear();
        wa.extend(a.iter().map(|&c| c as u16));
        wb.clear();
        wb.extend(b.iter().map(|&c| c as u16));
        let best = sw_antidiag(&wa, &wb, scratch);
        (scratch.sw_a, scratch.sw_b) = (wa, wb);
        best
    } else {
        sw_scalar(a, b, scratch)
    };
    let score = f64::from(best) / 2.0;
    (score / min_len as f64).clamp(0.0, 1.0)
}

/// [`monge_elkan`] with two memo levels over interned ids: the inner
/// Jaro-Winkler depends only on the two token ids, and each direction's
/// inner maximum `max_y jw(x, y)` depends only on `(x, partner record)`
/// — both deterministic functions of their key, so caching repeats the
/// exact value the reference recomputes. The outer fold order over `xs`
/// is unchanged.
pub fn monge_elkan_memoized(corpus: &Corpus, a: usize, b: usize, scratch: &mut SimScratch) -> f64 {
    let toks_a = corpus.tokens(a);
    let toks_b = corpus.tokens(b);
    if toks_a.is_empty() && toks_b.is_empty() {
        return 1.0;
    }
    if toks_a.is_empty() || toks_b.is_empty() {
        return 0.0;
    }
    let n_terms = corpus.vocab_len();
    if scratch.jw_by_term.len() < n_terms {
        scratch.jw_by_term.resize_with(n_terms, TermCache::default);
        scratch
            .best_by_term
            .resize_with(n_terms, TermCache::default);
    }
    let SimScratch {
        jw_by_term,
        best_by_term,
        ..
    } = scratch;
    let vocab = corpus.vocab();
    let mut dir = |xs: &[crate::TermId], other: u32, ys: &[crate::TermId]| -> f64 {
        let mut total = 0.0f64;
        for &x in xs {
            let best = if let Some(&v) = best_by_term[x.index()].get(&other) {
                v
            } else {
                let jw_x = &mut jw_by_term[x.index()];
                let mut best = 0.0f64;
                for &y in ys {
                    let jw = if let Some(&v) = jw_x.get(&y.0) {
                        v
                    } else {
                        let v = jaro_winkler(vocab.term(x), vocab.term(y));
                        jw_x.insert(y.0, v);
                        v
                    };
                    best = best.max(jw);
                }
                best_by_term[x.index()].insert(other, best);
                best
            };
            total += best;
        }
        total / xs.len() as f64
    };
    0.5 * (dir(toks_a, b as u32, toks_b) + dir(toks_b, a as u32, toks_a))
}

/// Contiguous string arena over one dataset: every record text lives in
/// one tape of decoded `char`s (the DP/Jaro input), addressed by one
/// offset table, with a per-record flag telling whether every character
/// fits in the BMP (the vectorized Smith-Waterman's precondition). Built
/// once; per-pair access is two offset loads and a slice, with zero
/// per-pair allocation.
#[derive(Debug)]
pub struct StrTape {
    chars: Vec<char>,
    char_offsets: Vec<u32>,
    bmp: Vec<bool>,
}

impl Default for StrTape {
    fn default() -> Self {
        Self::new()
    }
}

impl StrTape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// An empty tape with room for `records` rows holding `chars`
    /// characters in all.
    fn with_capacity(records: usize, chars: usize) -> Self {
        let mut char_offsets = Vec::with_capacity(records + 1);
        char_offsets.push(0);
        Self {
            chars: Vec::with_capacity(chars),
            char_offsets,
            bmp: Vec::with_capacity(records),
        }
    }

    /// Tape over explicit texts, in order.
    pub fn from_texts<S: AsRef<str>>(texts: &[S]) -> Self {
        let mut tape = Self::new();
        for t in texts {
            tape.push(t.as_ref());
        }
        tape
    }

    /// Tape over a corpus: record `r`'s text is its post-filter tokens
    /// joined by single spaces — exactly the reconstruction the metric
    /// oracles and the feature extractor score.
    pub fn from_corpus(corpus: &Corpus) -> Self {
        Self::from_corpus_rows(corpus, |_| true)
    }

    /// [`StrTape::from_corpus`] with a text row only for the records
    /// `named` accepts. Every other record gets an empty row, so record
    /// ids still index the tape. The tape is sized exactly before the
    /// rows are written.
    pub(crate) fn from_corpus_rows(corpus: &Corpus, named: impl Fn(usize) -> bool) -> Self {
        let _span = er_obs::span("simeng.tape");
        let vocab = corpus.vocab();
        let (mut rows, mut chars) = (0usize, 0usize);
        for r in (0..corpus.len()).filter(|&r| named(r)) {
            let tokens = corpus.tokens(r);
            rows += 1;
            chars += tokens.len().saturating_sub(1);
            for &t in tokens {
                chars += vocab.term(t).chars().count();
            }
        }
        let mut tape = Self::with_capacity(corpus.len(), chars);
        for r in 0..corpus.len() {
            if named(r) {
                for (i, &t) in corpus.tokens(r).iter().enumerate() {
                    if i > 0 {
                        tape.chars.push(' ');
                    }
                    tape.chars.extend(vocab.term(t).chars());
                }
            }
            tape.end_row();
        }
        er_obs::counter_add("simeng.tape.records", rows as u64);
        tape
    }

    /// Appends one record text to the tape.
    pub fn push(&mut self, text: &str) {
        self.chars.extend(text.chars());
        self.end_row();
    }

    /// Closes the row whose characters were appended since the last
    /// row ended: records its end offset and its BMP flag.
    fn end_row(&mut self) {
        let start = self.char_offsets[self.bmp.len()] as usize;
        let bmp = self.chars[start..].iter().all(|&c| c <= '\u{ffff}');
        self.bmp.push(bmp);
        // er-lint: allow(panic) -- 4 Gi-character tape capacity is a documented limit; overflow is unrecoverable corpus misuse
        let end = u32::try_from(self.chars.len()).expect("string tape exceeds u32 offsets");
        self.char_offsets.push(end);
    }

    /// Number of records on the tape.
    pub fn len(&self) -> usize {
        self.bmp.len()
    }

    /// True when the tape holds no records.
    pub fn is_empty(&self) -> bool {
        self.bmp.is_empty()
    }

    /// Record `r`'s text, rebuilt from its characters. Reference paths
    /// only: the kernels read [`StrTape::chars`].
    pub fn text(&self, r: usize) -> String {
        self.chars(r).iter().collect()
    }

    /// Record `r`'s decoded characters.
    pub fn chars(&self, r: usize) -> &[char] {
        &self.chars[self.char_offsets[r] as usize..self.char_offsets[r + 1] as usize]
    }

    /// True when every character of record `r` fits in the BMP, so
    /// each is one UTF-16 code unit.
    pub fn bmp(&self, r: usize) -> bool {
        self.bmp[r]
    }

    /// Character count of record `r`.
    pub fn char_len(&self, r: usize) -> usize {
        (self.char_offsets[r + 1] - self.char_offsets[r]) as usize
    }

    /// DP cell count of a pair batch — Σ `|a|·|b|` over the actual
    /// tape lengths. This is both the CUPS denominator and the
    /// [`WorkerPool::dispatch`] work estimate for batched scoring
    /// (replacing the old flat per-pair constant).
    // er-lint: zero-alloc
    pub fn batch_cells(&self, pairs: &[(u32, u32)]) -> u64 {
        pairs
            .iter()
            .map(|&(a, b)| self.char_len(a as usize) as u64 * self.char_len(b as usize) as u64)
            .sum()
    }
}

/// The four batched kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimKernel {
    /// Block-Myers bit-parallel Levenshtein similarity.
    Levenshtein,
    /// Bit-parallel Jaro matcher with the Winkler prefix bonus.
    JaroWinkler,
    /// Doubled-integer antidiagonal Smith-Waterman (scalar fallback).
    SmithWaterman,
    /// Memoized Monge-Elkan with inner Jaro-Winkler over interned
    /// tokens.
    MongeElkan,
}

impl SimKernel {
    /// All four kernels, in bench/report order.
    pub const ALL: [SimKernel; 4] = [
        SimKernel::Levenshtein,
        SimKernel::JaroWinkler,
        SimKernel::SmithWaterman,
        SimKernel::MongeElkan,
    ];

    /// Stable snake_case identifier (bench labels, JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            SimKernel::Levenshtein => "levenshtein",
            SimKernel::JaroWinkler => "jaro_winkler",
            SimKernel::SmithWaterman => "smith_waterman",
            SimKernel::MongeElkan => "monge_elkan",
        }
    }

    /// The kernel's er-obs span name.
    fn span_name(self) -> &'static str {
        match self {
            SimKernel::Levenshtein => "simeng.kernel.levenshtein",
            SimKernel::JaroWinkler => "simeng.kernel.jaro_winkler",
            SimKernel::SmithWaterman => "simeng.kernel.smith_waterman",
            SimKernel::MongeElkan => "simeng.kernel.monge_elkan",
        }
    }
}

/// Batched pair scorer over a [`StrTape`].
///
/// Owns the tape and a [`ScratchSlot`] of per-worker [`SimScratch`]es;
/// [`BatchScorer::score_into`] scores a whole slice of pair indices in
/// one call — serial-inline when the tape-derived cell count is below
/// the pool's dispatch threshold, otherwise fanned out in the repo's
/// deterministic contiguous chunks (disjoint output ranges, serial
/// per-pair work), so results are bit-identical at any thread count.
#[derive(Debug)]
pub struct BatchScorer<'c> {
    corpus: &'c Corpus,
    tape: StrTape,
    scratch: ScratchSlot<SimScratch>,
}

impl<'c> BatchScorer<'c> {
    /// Builds the scorer: one tape pass over the corpus (the only
    /// allocation phase — scoring itself is allocation-free at steady
    /// state).
    pub fn new(corpus: &'c Corpus) -> Self {
        Self::for_records(corpus, |_| true)
    }

    /// A scorer whose tape holds text only for the records `named`
    /// accepts ([`StrTape::from_corpus_rows`]): it scores pairs of those
    /// records exactly as [`BatchScorer::new`] does. Monge-Elkan reads
    /// the corpus's tokens, not the tape.
    pub(crate) fn for_records(corpus: &'c Corpus, named: impl Fn(usize) -> bool) -> Self {
        Self {
            corpus,
            tape: StrTape::from_corpus_rows(corpus, named),
            scratch: ScratchSlot::new(),
        }
    }

    /// The underlying tape.
    pub fn tape(&self) -> &StrTape {
        &self.tape
    }

    /// Work estimate for a batch, in DP cells ([`StrTape::batch_cells`]).
    pub fn cells(&self, pairs: &[(u32, u32)]) -> u64 {
        self.tape.batch_cells(pairs)
    }

    /// Scores `pairs` with `kernel` into a fresh vector.
    pub fn score(&self, kernel: SimKernel, pairs: &[(u32, u32)], pool: &WorkerPool) -> Vec<f64> {
        let mut out = vec![0.0f64; pairs.len()];
        self.score_into(kernel, pairs, &mut out, pool);
        out
    }

    /// Scores `pairs` with `kernel` into `out` (`out.len()` must equal
    /// `pairs.len()`). `out[i]` equals the kernel's per-pair oracle on
    /// `pairs[i]` bit for bit, at any thread count.
    pub fn score_into(
        &self,
        kernel: SimKernel,
        pairs: &[(u32, u32)],
        out: &mut [f64],
        pool: &WorkerPool,
    ) {
        assert_eq!(
            pairs.len(),
            out.len(),
            "output slice must match the pair batch"
        );
        let _span = er_obs::span(kernel.span_name());
        let cells = self.cells(pairs);
        er_obs::counter_add("simeng.batch.pairs_total", pairs.len() as u64);
        er_obs::counter_add("simeng.batch.cells_total", cells);
        // Tape-derived dispatch estimate: actual DP cells, not a flat
        // per-pair constant — small batches of short strings stay
        // serial-inline even when the pair count looks large.
        //
        // Monge-Elkan is priced separately: its memo shares term-pair
        // DPs across the *whole batch*, so the raw cell count
        // overstates its cost by orders of magnitude, and chunking
        // re-derives each unique term pair once per chunk (measured:
        // a 4-way fan-out runs 20× slower than the shared-memo serial
        // sweep at mid corpus scale). The memoized kernel therefore
        // reports zero work and keeps the serial sweep under any
        // size-based policy.
        let work = match kernel {
            SimKernel::MongeElkan => 0,
            _ => usize::try_from(cells).unwrap_or(usize::MAX),
        };
        if !pool.dispatch(work).is_parallel() {
            let mut scratch = self.scratch.checkout();
            self.score_range(kernel, pairs, out, &mut scratch);
            return;
        }
        let ranges = er_pool::chunk_ranges(pairs.len(), pool.threads(), BATCH_MIN_CHUNK);
        pool.scope(|s| {
            let mut rest = out;
            for r in ranges {
                let (chunk, tail) = rest.split_at_mut(r.len());
                rest = tail;
                let ps = &pairs[r];
                s.submit(move || {
                    let mut scratch = self.scratch.checkout();
                    self.score_range(kernel, ps, chunk, &mut scratch);
                });
            }
        });
    }

    /// Serial kernel sweep over one contiguous chunk.
    // er-lint: zero-alloc
    fn score_range(
        &self,
        kernel: SimKernel,
        pairs: &[(u32, u32)],
        out: &mut [f64],
        scratch: &mut SimScratch,
    ) {
        for (o, &(a, b)) in out.iter_mut().zip(pairs) {
            *o = self.score_pair(kernel, a, b, scratch);
        }
    }

    /// Scores one pair on the batch kernels (callers loop this with a
    /// warm scratch; [`BatchScorer::score_into`] does exactly that).
    // er-lint: zero-alloc
    pub fn score_pair(&self, kernel: SimKernel, a: u32, b: u32, scratch: &mut SimScratch) -> f64 {
        let (a, b) = (a as usize, b as usize);
        match kernel {
            SimKernel::Levenshtein => {
                levenshtein_prepared(self.tape.chars(a), self.tape.chars(b), scratch)
            }
            SimKernel::JaroWinkler => {
                jaro_winkler_prepared(self.tape.chars(a), self.tape.chars(b), scratch)
            }
            SimKernel::SmithWaterman => smith_waterman_prepared(
                self.tape.chars(a),
                self.tape.chars(b),
                self.tape.bmp(a) && self.tape.bmp(b),
                scratch,
            ),
            SimKernel::MongeElkan => monge_elkan_memoized(self.corpus, a, b, scratch),
        }
    }

    /// The kernel's per-pair oracle: the original `crate::metrics` call
    /// over freshly materialized strings — per-call allocation, scalar
    /// DP, no memo. This is both the proptest reference and the
    /// "per-pair" side of the CUPS speedup benchmarks.
    pub fn score_pair_reference(&self, kernel: SimKernel, a: u32, b: u32) -> f64 {
        let (a, b) = (a as usize, b as usize);
        match kernel {
            SimKernel::Levenshtein => {
                levenshtein_similarity(&self.tape.text(a), &self.tape.text(b))
            }
            SimKernel::JaroWinkler => jaro_winkler(&self.tape.text(a), &self.tape.text(b)),
            SimKernel::SmithWaterman => {
                smith_waterman_similarity(&self.tape.text(a), &self.tape.text(b))
            }
            SimKernel::MongeElkan => {
                let vocab = self.corpus.vocab();
                let ta: Vec<&str> = self
                    .corpus
                    .tokens(a)
                    .iter()
                    .map(|&t| vocab.term(t))
                    .collect();
                let tb: Vec<&str> = self
                    .corpus
                    .tokens(b)
                    .iter()
                    .map(|&t| vocab.term(t))
                    .collect();
                monge_elkan(&ta, &tb, jaro_winkler)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;

    fn corpus() -> Corpus {
        CorpusBuilder::new()
            .push_text("sony turntable pslx350h belt drive")
            .push_text("sony pslx350h turntable")
            .push_text("panasonic microwave oven family size")
            .push_text("grill on the alley dayton")
            .build()
    }

    fn all_pairs(n: u32) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                pairs.push((a, b));
            }
        }
        pairs
    }

    #[test]
    fn tape_round_trips_texts() {
        let texts = ["abc def", "", "héllo 日本", "x"];
        let tape = StrTape::from_texts(&texts);
        assert_eq!(tape.len(), texts.len());
        for (r, t) in texts.iter().enumerate() {
            assert_eq!(tape.text(r), *t);
            let chars: Vec<char> = t.chars().collect();
            assert_eq!(tape.chars(r), chars.as_slice());
            assert_eq!(tape.char_len(r), chars.len());
        }
        // "日本" is BMP; a supplementary-plane char is not.
        assert!((0..texts.len()).all(|r| tape.bmp(r)));
        let supp = StrTape::from_texts(&["a😀b", "ab"]);
        assert!(!supp.bmp(0));
        assert!(supp.bmp(1));
        assert_eq!(supp.chars(0).len(), 3);
        assert_eq!(supp.text(0), "a😀b");
    }

    #[test]
    fn tape_matches_corpus_reconstruction() {
        let c = corpus();
        let tape = StrTape::from_corpus(&c);
        for r in 0..c.len() {
            let want: Vec<&str> = c.tokens(r).iter().map(|&t| c.vocab().term(t)).collect();
            assert_eq!(tape.text(r), want.join(" "));
        }
    }

    #[test]
    fn batch_cells_sums_length_products() {
        let tape = StrTape::from_texts(&["abcd", "xy", ""]);
        assert_eq!(tape.batch_cells(&[(0, 1)]), 8);
        assert_eq!(tape.batch_cells(&[(0, 1), (1, 2)]), 8);
        assert_eq!(tape.batch_cells(&[(0, 0), (0, 1), (0, 2)]), 24);
    }

    #[test]
    fn batch_matches_reference_on_all_kernels() {
        let c = corpus();
        let scorer = BatchScorer::new(&c);
        let pairs = all_pairs(c.len() as u32);
        let pool = WorkerPool::new(1);
        for kernel in SimKernel::ALL {
            let got = scorer.score(kernel, &pairs, &pool);
            for (&(a, b), g) in pairs.iter().zip(&got) {
                let want = scorer.score_pair_reference(kernel, a, b);
                assert_eq!(
                    want.to_bits(),
                    g.to_bits(),
                    "{} diverged on ({a}, {b}): {want} vs {g}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn pooled_scoring_is_thread_count_invariant() {
        let c = corpus();
        let scorer = BatchScorer::new(&c);
        let pairs = all_pairs(c.len() as u32);
        for kernel in SimKernel::ALL {
            let serial = scorer.score(kernel, &pairs, &WorkerPool::new(1));
            for threads in [2usize, 8] {
                let pool =
                    WorkerPool::with_policy(threads, er_pool::DispatchPolicy::always_parallel());
                let pooled = scorer.score(kernel, &pairs, &pool);
                assert_eq!(serial, pooled, "{} at {threads} threads", kernel.name());
            }
        }
    }

    #[test]
    fn sparse_mask_reset_is_clean_across_ragged_pairs() {
        // Alternate long and short strings so the sparse reset must
        // clear rows the short string never touches; any stale bit
        // would corrupt the Myers/Jaro words.
        let texts = [
            "abcdefghijklmnopqrstuvwxyz abcdefghijklmnopqrstuvwxyz",
            "zz",
            "ab",
            "ponmlkjihgfedcba",
        ];
        let tape = StrTape::from_texts(&texts);
        let mut scratch = SimScratch::default();
        for _round in 0..3 {
            for a in 0..texts.len() {
                for b in 0..texts.len() {
                    let got = levenshtein_prepared(tape.chars(a), tape.chars(b), &mut scratch);
                    let want = levenshtein_similarity(texts[a], texts[b]);
                    assert_eq!(want.to_bits(), got.to_bits(), "({a}, {b})");
                    let got = jaro_winkler_prepared(tape.chars(a), tape.chars(b), &mut scratch);
                    let want = jaro_winkler(texts[a], texts[b]);
                    assert_eq!(want.to_bits(), got.to_bits(), "jw ({a}, {b})");
                }
            }
        }
    }

    #[test]
    fn stamped_non_ascii_rows_survive_reuse() {
        // The stamped mask_other rows are re-zeroed in place, never
        // dropped: interleave disjoint non-ASCII alphabets so stale
        // rows from the previous pair must be invisible.
        let texts = ["日本語テキスト", "éàçéàç", "日éa", ""];
        let tape = StrTape::from_texts(&texts);
        let mut scratch = SimScratch::default();
        for _round in 0..3 {
            for a in 0..texts.len() {
                for b in 0..texts.len() {
                    let got = levenshtein_prepared(tape.chars(a), tape.chars(b), &mut scratch);
                    let want = levenshtein_similarity(texts[a], texts[b]);
                    assert_eq!(want.to_bits(), got.to_bits(), "({a}, {b})");
                }
            }
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Ragged lengths over a small alphabet (dense matches) plus
        /// non-ASCII characters (the stamped-row fallback), including
        /// empty strings and texts crossing the 64/128-char word
        /// boundaries of the bit-parallel kernels.
        fn text_strategy() -> impl Strategy<Value = String> {
            proptest::collection::vec(
                (0usize..6).prop_map(|i| ['a', 'b', 'c', ' ', 'é', '日'][i]),
                0..200,
            )
            .prop_map(|cs| cs.into_iter().collect())
        }

        fn texts_strategy() -> impl Strategy<Value = Vec<String>> {
            proptest::collection::vec(text_strategy(), 2..12)
        }

        proptest! {
            #[test]
            fn myers_matches_reference_levenshtein(a in text_strategy(), b in text_strategy()) {
                let ca: Vec<char> = a.chars().collect();
                let cb: Vec<char> = b.chars().collect();
                let mut scratch = SimScratch::default();
                let fast = levenshtein_prepared(&ca, &cb, &mut scratch);
                let reference = levenshtein_similarity(&a, &b);
                prop_assert_eq!(fast.to_bits(), reference.to_bits());
            }

            #[test]
            fn antidiagonal_sw_matches_scalar_and_reference(
                a in text_strategy(),
                b in text_strategy(),
            ) {
                let ca: Vec<char> = a.chars().collect();
                let cb: Vec<char> = b.chars().collect();
                let mut scratch = SimScratch::default();
                let min_len = ca.len().min(cb.len());
                let fast = if min_len == 0 {
                    if ca.is_empty() && cb.is_empty() { 1.0 } else { 0.0 }
                } else {
                    let wa: Vec<u16> = ca.iter().map(|&c| c as u16).collect();
                    let wb: Vec<u16> = cb.iter().map(|&c| c as u16).collect();
                    let anti = sw_antidiag(&wa, &wb, &mut scratch);
                    let scalar = sw_scalar(&ca, &cb, &mut scratch);
                    prop_assert_eq!(anti, scalar);
                    (f64::from(anti) / 2.0 / min_len as f64).clamp(0.0, 1.0)
                };
                let reference = smith_waterman_similarity(&a, &b);
                prop_assert_eq!(fast.to_bits(), reference.to_bits());
            }

            #[test]
            fn bit_parallel_jaro_matches_reference(a in text_strategy(), b in text_strategy()) {
                let ca: Vec<char> = a.chars().collect();
                let cb: Vec<char> = b.chars().collect();
                let mut scratch = SimScratch::default();
                let fast = jaro_winkler_prepared(&ca, &cb, &mut scratch);
                let reference = jaro_winkler(&a, &b);
                prop_assert_eq!(fast.to_bits(), reference.to_bits());
            }

            /// Batch-vs-oracle bitwise identity for all four kernels at
            /// 1, 2, and 8 threads over arbitrary corpora.
            #[test]
            fn batch_matches_oracle_at_every_thread_count(texts in texts_strategy()) {
                let mut builder = CorpusBuilder::new();
                for t in &texts {
                    builder = builder.push_text(t.clone());
                }
                let c = builder.build();
                let scorer = BatchScorer::new(&c);
                let pairs = all_pairs(c.len() as u32);
                for kernel in SimKernel::ALL {
                    let want: Vec<f64> = pairs
                        .iter()
                        .map(|&(a, b)| scorer.score_pair_reference(kernel, a, b))
                        .collect();
                    for threads in [1usize, 2, 8] {
                        let pool = WorkerPool::with_policy(
                            threads,
                            er_pool::DispatchPolicy::always_parallel(),
                        );
                        let got = scorer.score(kernel, &pairs, &pool);
                        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                            prop_assert_eq!(
                                w.to_bits(),
                                g.to_bits(),
                                "{} diverged at {} threads on pair {:?}: {} vs {}",
                                kernel.name(), threads, pairs[i], w, g
                            );
                        }
                    }
                }
            }
        }
    }
}
