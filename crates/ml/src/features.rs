//! Per-pair feature extraction.
//!
//! The supervised competitors the paper cites hand-craft features from
//! string-similarity metrics; this extractor reproduces that family over
//! the shared corpus representation.
//!
//! Two paths produce identical vectors:
//!
//! * [`FeatureExtractor::features`] — the reference path, calling the
//!   `er-text` metric functions directly per pair. Kept as the oracle.
//! * [`FeatureExtractor::extract_all`] — the batch path the Table II
//!   harness uses. A record participates in hundreds of candidate
//!   pairs, so everything derivable from one record (the contiguous
//!   string tape, padded-bigram multisets, per-term Soundex codes) is
//!   computed once at construction; the per-pair string kernels are the
//!   shared batch engine's ([`er_text::simeng`] — bit-parallel
//!   Levenshtein/Jaro, antidiagonal Smith-Waterman, memoized
//!   Monge-Elkan on reusable [`SimScratch`] buffers). Each shortcut
//!   preserves the reference value bit for bit (the tests compare both
//!   paths over whole corpora), and per-pair work is pure, so the
//!   pooled fan-out is deterministic at any thread count.

use er_pool::WorkerPool;
use er_text::metrics::{smith_waterman_similarity, soundex, sounds_like};
use er_text::simeng::{
    jaro_winkler_prepared, levenshtein_prepared, monge_elkan_memoized, smith_waterman_prepared,
};
use er_text::{
    cosine_tokens, dice, jaccard, jaro_winkler, levenshtein_similarity, monge_elkan,
    ngram_similarity, overlap_coefficient, Corpus, SimScratch, StrTape, TfIdfModel,
};

/// Number of features produced per pair.
pub const N_FEATURES: usize = 12;

/// Minimum pairs per pooled extraction chunk.
const EXTRACT_MIN_CHUNK: usize = 64;

/// Reusable per-worker buffers for the batch path — the shared batch
/// engine's scratch (bit-parallel state, DP rows, Jaro match buffers,
/// and the two Monge-Elkan memo levels). One per extraction chunk;
/// never shared across threads.
pub type FeatureScratch = SimScratch;

/// Caches the per-corpus state (TF-IDF model, the reconstructed token
/// texts on a contiguous [`StrTape`], and the batch path's
/// per-record/per-term precomputations) so feature extraction over many
/// pairs is cheap.
#[derive(Debug)]
pub struct FeatureExtractor<'a> {
    corpus: &'a Corpus,
    tfidf: TfIdfModel,
    /// Every record text (post-filter tokens joined by spaces) on one
    /// tape: char slices for the DP/Jaro kernels, with the BMP flag that
    /// admits the vectorized Smith-Waterman, and owned texts rebuilt for
    /// the oracle metrics.
    tape: StrTape,
    token_strs: Vec<Vec<String>>,
    /// Per record: sorted `(packed bigram, count)` runs of the padded
    /// character-bigram multiset of the record text, plus the total.
    bigrams: Vec<Vec<(u64, u32)>>,
    bigram_totals: Vec<u32>,
    /// Per vocab term: its Soundex code, if the term encodes.
    term_soundex: Vec<Option<[u8; 4]>>,
}

impl<'a> FeatureExtractor<'a> {
    /// Builds the extractor (O(corpus)).
    pub fn new(corpus: &'a Corpus) -> Self {
        let tfidf = TfIdfModel::fit(corpus);
        let tape = StrTape::from_corpus(corpus);
        let mut token_strs = Vec::with_capacity(corpus.len());
        for r in 0..corpus.len() {
            let toks: Vec<String> = corpus
                .tokens(r)
                .iter()
                .map(|&t| corpus.vocab().term(t).to_owned())
                .collect();
            token_strs.push(toks);
        }
        let mut bigrams = Vec::with_capacity(corpus.len());
        let mut bigram_totals = Vec::with_capacity(corpus.len());
        for r in 0..corpus.len() {
            let (runs, total) = packed_bigram_runs(tape.chars(r));
            bigrams.push(runs);
            bigram_totals.push(total);
        }
        let term_soundex: Vec<Option<[u8; 4]>> = (0..corpus.vocab_len())
            .map(|i| {
                soundex(corpus.vocab().term(er_text::TermId(i as u32)))
                    .map(|code| code.into_bytes().try_into().expect("soundex is 4 bytes"))
            })
            .collect();
        Self {
            corpus,
            tfidf,
            tape,
            token_strs,
            bigrams,
            bigram_totals,
            term_soundex,
        }
    }

    /// Extracts the feature vector for records `(a, b)` — the reference
    /// path, calling each metric directly.
    pub fn features(&self, a: u32, b: u32) -> Vec<f64> {
        let (a, b) = (a as usize, b as usize);
        let sa = self.corpus.term_set(a);
        let sb = self.corpus.term_set(b);
        let ta: Vec<&str> = self.token_strs[a].iter().map(String::as_str).collect();
        let tb: Vec<&str> = self.token_strs[b].iter().map(String::as_str).collect();
        let (text_a, text_b) = (self.tape.text(a), self.tape.text(b));
        let len_a = ta.len().max(1) as f64;
        let len_b = tb.len().max(1) as f64;
        vec![
            jaccard(sa, sb),
            dice(sa, sb),
            overlap_coefficient(sa, sb),
            cosine_tokens(sa, sb),
            self.tfidf.cosine(a, b),
            levenshtein_similarity(&text_a, &text_b),
            jaro_winkler(&text_a, &text_b),
            ngram_similarity(&text_a, &text_b, 2),
            monge_elkan(&ta, &tb, jaro_winkler),
            smith_waterman_similarity(&text_a, &text_b),
            // Fraction of tokens in the shorter record with a Soundex
            // twin in the other — phonetic agreement.
            phonetic_overlap(&ta, &tb),
            len_a.min(len_b) / len_a.max(len_b),
        ]
    }

    /// Batch feature extraction over a candidate list, fanned out on the
    /// pool in deterministic contiguous chunks (disjoint output ranges,
    /// serial per-pair work — the same contract as
    /// `er_baselines::score_pairs_chunked`). `out[i]` equals
    /// `self.features(pairs[i].0, pairs[i].1)` bit for bit.
    pub fn extract_all(&self, pairs: &[(u32, u32)], pool: &WorkerPool) -> Vec<Vec<f64>> {
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); pairs.len()];
        if pool.is_serial() {
            let mut scratch = FeatureScratch::default();
            for (v, &(a, b)) in out.iter_mut().zip(pairs) {
                *v = self.features_prepared(a, b, &mut scratch);
            }
            return out;
        }
        let ranges = er_pool::chunk_ranges(pairs.len(), pool.threads(), EXTRACT_MIN_CHUNK);
        // er-lint: allow(dispatch) -- serial pools bypass above; sizing the pool is the caller's dispatch decision
        pool.scope(|s| {
            let mut rest = out.as_mut_slice();
            for r in ranges {
                let (chunk, tail) = rest.split_at_mut(r.len());
                rest = tail;
                let ps = &pairs[r];
                s.submit(move || {
                    let mut scratch = FeatureScratch::default();
                    for (v, &(a, b)) in chunk.iter_mut().zip(ps) {
                        *v = self.features_prepared(a, b, &mut scratch);
                    }
                });
            }
        });
        out
    }

    /// The batch path's per-pair kernel: every feature from precomputed
    /// record/term state and the shared-engine scratch, each
    /// bit-identical to its [`FeatureExtractor::features`] counterpart.
    fn features_prepared(&self, a: u32, b: u32, scratch: &mut FeatureScratch) -> Vec<f64> {
        let (a, b) = (a as usize, b as usize);
        let sa = self.corpus.term_set(a);
        let sb = self.corpus.term_set(b);
        let ca = self.tape.chars(a);
        let cb = self.tape.chars(b);
        let toks_a = self.corpus.tokens(a);
        let toks_b = self.corpus.tokens(b);
        let len_a = toks_a.len().max(1) as f64;
        let len_b = toks_b.len().max(1) as f64;
        vec![
            jaccard(sa, sb),
            dice(sa, sb),
            overlap_coefficient(sa, sb),
            cosine_tokens(sa, sb),
            self.tfidf.cosine(a, b),
            levenshtein_prepared(ca, cb, scratch),
            jaro_winkler_prepared(ca, cb, scratch),
            self.ngram_prepared(a, b),
            monge_elkan_memoized(self.corpus, a, b, scratch),
            smith_waterman_prepared(ca, cb, self.tape.bmp(a) && self.tape.bmp(b), scratch),
            self.phonetic_prepared(toks_a, toks_b),
            len_a.min(len_b) / len_a.max(len_b),
        ]
    }

    /// `ngram_similarity(…, 2)` over the precomputed sorted bigram runs:
    /// the same multiset totals and minimum-count intersection, summed in
    /// integers, so the same quotient.
    fn ngram_prepared(&self, a: usize, b: usize) -> f64 {
        let empty_a = self.tape.char_len(a) == 0;
        let empty_b = self.tape.char_len(b) == 0;
        if empty_a && empty_b {
            return 1.0;
        }
        if empty_a || empty_b {
            return 0.0;
        }
        let total = self.bigram_totals[a] + self.bigram_totals[b];
        if total == 0 {
            return 0.0;
        }
        let (ga, gb) = (&self.bigrams[a], &self.bigrams[b]);
        let mut inter = 0u32;
        let (mut ia, mut ib) = (0, 0);
        while ia < ga.len() && ib < gb.len() {
            match ga[ia].0.cmp(&gb[ib].0) {
                std::cmp::Ordering::Less => ia += 1,
                std::cmp::Ordering::Greater => ib += 1,
                std::cmp::Ordering::Equal => {
                    inter += ga[ia].1.min(gb[ib].1);
                    ia += 1;
                    ib += 1;
                }
            }
        }
        2.0 * f64::from(inter) / f64::from(total)
    }

    /// `phonetic_overlap` over precomputed per-term Soundex codes.
    fn phonetic_prepared(&self, toks_a: &[er_text::TermId], toks_b: &[er_text::TermId]) -> f64 {
        if toks_a.is_empty() && toks_b.is_empty() {
            return 1.0;
        }
        let (short, long) = if toks_a.len() <= toks_b.len() {
            (toks_a, toks_b)
        } else {
            (toks_b, toks_a)
        };
        if short.is_empty() {
            return 0.0;
        }
        let hits = short
            .iter()
            .filter(|s| {
                self.term_soundex[s.index()].is_some_and(|cs| {
                    long.iter()
                        .any(|l| self.term_soundex[l.index()] == Some(cs))
                })
            })
            .count();
        hits as f64 / short.len() as f64
    }
}

/// The padded character-bigram multiset of a text as sorted
/// `(packed gram, count)` runs plus the total gram count — the batch
/// form of `er_text::ngram_multiset(…, 2)` (chars packed into a `u64`
/// instead of `Vec<char>` keys).
fn packed_bigram_runs(chars: &[char]) -> (Vec<(u64, u32)>, u32) {
    if chars.is_empty() {
        return (Vec::new(), 0);
    }
    let mut grams: Vec<u64> = Vec::with_capacity(chars.len() + 1);
    let mut prev = '#';
    for &c in chars.iter().chain(std::iter::once(&'#')) {
        grams.push((u64::from(prev as u32) << 32) | u64::from(c as u32));
        prev = c;
    }
    grams.sort_unstable();
    let mut runs: Vec<(u64, u32)> = Vec::new();
    let total = grams.len() as u32;
    for g in grams {
        match runs.last_mut() {
            Some((last, count)) if *last == g => *count += 1,
            _ => runs.push((g, 1)),
        }
    }
    (runs, total)
}

/// Fraction of the shorter token list with a Soundex-equivalent token in
/// the other list.
fn phonetic_overlap(a: &[&str], b: &[&str]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return 0.0;
    }
    let hits = short
        .iter()
        .filter(|s| long.iter().any(|l| sounds_like(s, l)))
        .count();
    hits as f64 / short.len() as f64
}

/// One-shot convenience for a single pair.
pub fn pair_features(corpus: &Corpus, a: u32, b: u32) -> Vec<f64> {
    FeatureExtractor::new(corpus).features(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_text::CorpusBuilder;

    fn corpus() -> Corpus {
        CorpusBuilder::new()
            .push_text("sony turntable pslx350h belt drive")
            .push_text("sony pslx350h turntable")
            .push_text("panasonic microwave oven family size")
            .build()
    }

    #[test]
    fn feature_count_and_bounds() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let f = fx.features(0, 1);
        assert_eq!(f.len(), N_FEATURES);
        for (i, v) in f.iter().enumerate() {
            assert!((0.0..=1.0 + 1e-9).contains(v), "feature {i}: {v}");
        }
    }

    #[test]
    fn matching_pair_dominates_nonmatching() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let fm = fx.features(0, 1);
        let fn_ = fx.features(0, 2);
        // Every set-based feature must favor the matching pair.
        for i in 0..5 {
            assert!(fm[i] > fn_[i], "feature {i}: {} vs {}", fm[i], fn_[i]);
        }
    }

    #[test]
    fn symmetric() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let ab = fx.features(0, 1);
        let ba = fx.features(1, 0);
        for (x, y) in ab.iter().zip(&ba) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn one_shot_matches_cached() {
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        assert_eq!(fx.features(0, 2), pair_features(&c, 0, 2));
    }

    /// A mid-size synthetic corpus with the noise channels that exercise
    /// every feature: shared tokens, typo'd variants, reordering,
    /// abbreviations, and empty-ish records.
    fn synthetic_corpus() -> Corpus {
        let vocab = [
            "sony",
            "turntable",
            "pslx350h",
            "belt",
            "drive",
            "panasonic",
            "microwave",
            "oven",
            "family",
            "size",
            "grill",
            "alley",
            "dayton",
            "beverly",
            "hills",
            "deluxe",
            "stereo",
            "sterio",
            "blvd",
            "boulevard",
            "smith",
            "smyth",
            "q7",
            "x200",
        ];
        let mut state = 0x5851_f42d_4c95_7f2du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut builder = CorpusBuilder::new();
        for i in 0..40 {
            // Vary length widely so texts cross the 64- and 128-char
            // word boundaries of the bit-parallel kernels.
            let n_tokens = 2 + next() % (3 + (i % 4) * 9);
            let text: Vec<&str> = (0..n_tokens).map(|_| vocab[next() % vocab.len()]).collect();
            builder = builder.push_text(text.join(" "));
        }
        builder.build()
    }

    #[test]
    fn batch_path_matches_reference_bitwise() {
        let c = synthetic_corpus();
        let fx = FeatureExtractor::new(&c);
        let mut pairs = Vec::new();
        for a in 0..c.len() as u32 {
            for b in (a + 1)..c.len() as u32 {
                pairs.push((a, b));
            }
        }
        let pool = WorkerPool::new(1);
        let batch = fx.extract_all(&pairs, &pool);
        assert_eq!(batch.len(), pairs.len());
        for (&(a, b), got) in pairs.iter().zip(&batch) {
            let want = fx.features(a, b);
            for (i, (w, g)) in want.iter().zip(got).enumerate() {
                assert_eq!(
                    w.to_bits(),
                    g.to_bits(),
                    "feature {i} diverged on pair ({a}, {b}): {w} vs {g}"
                );
            }
        }
    }

    #[test]
    fn pooled_extraction_matches_serial() {
        let c = synthetic_corpus();
        let fx = FeatureExtractor::new(&c);
        let mut pairs = Vec::new();
        for a in 0..c.len() as u32 {
            for b in (a + 1)..c.len() as u32 {
                pairs.push((a, b));
            }
        }
        let serial = fx.extract_all(&pairs, &WorkerPool::new(1));
        for threads in [2usize, 8] {
            let pooled = fx.extract_all(&pairs, &WorkerPool::new(threads));
            assert_eq!(serial, pooled, "diverged at {threads} threads");
        }
    }

    #[test]
    fn scratch_reuse_across_pairs_is_clean() {
        // Pairs with very different text lengths back to back: stale
        // scratch contents must never leak into the next pair.
        let c = corpus();
        let fx = FeatureExtractor::new(&c);
        let mut scratch = FeatureScratch::default();
        let dirty: Vec<Vec<f64>> = [(0u32, 1u32), (1, 2), (0, 2)]
            .iter()
            .map(|&(a, b)| fx.features_prepared(a, b, &mut scratch))
            .collect();
        for (&(a, b), got) in [(0u32, 1u32), (1, 2), (0, 2)].iter().zip(&dirty) {
            assert_eq!(&fx.features(a, b), got, "pair ({a}, {b})");
        }
    }
}
