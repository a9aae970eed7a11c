//! # er-baselines
//!
//! The unsupervised baseline matchers the paper evaluates against
//! (Table II):
//!
//! * [`jaccard`] — Jaccard coefficient over term sets (§II-A; the
//!   machine-side filter of the crowd methods).
//! * [`tfidf`] — TF-IDF cosine (Cohen's word-based representation \[2\]).
//! * [`simrank`] — bipartite SimRank on the record–term graph
//!   (§III-A, Eq. 1–2, C1 = C2 = 0.8).
//! * [`twidf`] — TW-IDF: PageRank term salience on the sliding-window
//!   co-occurrence graph, combined with IDF (§III-B, Eq. 3–4, φ = 0.85).
//! * [`hybrid`] — the linear fusion of SimRank and TW-IDF scores
//!   (§III-C, Eq. 5, β = 0.5).
//!
//! Every matcher implements [`PairScorer`]; decisions use the
//! optimal-threshold sweep of `er_eval::sweep_threshold`, matching the
//! paper's protocol ("an upper bound of manually tuned parameters").

#![deny(unsafe_code)]

pub mod hybrid;
pub mod jaccard;
pub mod simrank;
pub mod strsim;
pub mod tfidf;
pub mod twidf;

use er_eval::{sweep_threshold_iter, SweepResult, TruthPairs};
use er_graph::bipartite::PairNode;
use er_pool::WorkerPool;
use er_text::{BlockingStrategy, Corpus};

pub use hybrid::HybridScorer;
pub use jaccard::JaccardScorer;
pub use simrank::SimRankScorer;
pub use strsim::StringSimScorer;
pub use tfidf::TfIdfScorer;
pub use twidf::TwIdfScorer;

/// A baseline matcher: assigns a similarity score to each candidate pair.
pub trait PairScorer {
    /// Matcher name as it appears in Table II.
    fn name(&self) -> &'static str;

    /// Scores each candidate pair (parallel to `pairs`). Scores need not
    /// be normalized; the threshold sweep handles arbitrary ranges.
    fn score_pairs(&self, corpus: &Corpus, pairs: &[PairNode]) -> Vec<f64>;

    /// Scores each candidate pair on a shared worker pool.
    ///
    /// **Determinism contract:** implementations split the candidate
    /// list into deterministic chunks, write disjoint output ranges, and
    /// keep every per-pair computation serial, so the result is
    /// bit-identical to [`PairScorer::score_pairs`] at any pool size
    /// (asserted by the Table II harness on every run). The default
    /// simply runs the serial path.
    fn score_pairs_pooled(
        &self,
        corpus: &Corpus,
        pairs: &[PairNode],
        pool: &WorkerPool,
    ) -> Vec<f64> {
        let _ = pool;
        self.score_pairs(corpus, pairs)
    }
}

/// Minimum candidate pairs per pooled scoring chunk: per-pair scoring is
/// cheap relative to SimRank slots, so chunks are coarser.
const SCORE_MIN_CHUNK: usize = 256;

/// Dispatch work estimate for scorers that walk the two records' term
/// vectors per pair: the sum of the actual term-set lengths over the
/// batch (the merge-walk op count), not a flat per-pair constant. The
/// string-kernel analogue is `er_text::StrTape::batch_cells` (sum of
/// string-length products).
pub fn term_walk_work(corpus: &Corpus, pairs: &[PairNode]) -> usize {
    pairs
        .iter()
        .map(|p| corpus.term_set(p.a as usize).len() + corpus.term_set(p.b as usize).len())
        .sum()
}

/// Fills `out[i] = score(pairs[i])` by splitting `pairs` into
/// deterministic contiguous chunks on `pool` and concatenating in order
/// (each chunk writes its own disjoint subslice). Since every per-pair
/// score is computed serially, the result is bit-identical to the serial
/// loop at any thread count. The shared chunking helper behind every
/// [`PairScorer::score_pairs_pooled`] implementation.
///
/// `work` is the caller's elementary-op estimate for the whole batch —
/// derived from the data actually scored (e.g. [`term_walk_work`], or
/// `er_text::StrTape::batch_cells` for DP kernels) so small batches of
/// small records stay serial-inline even when the pair count is large.
pub fn score_pairs_chunked<F>(
    pairs: &[PairNode],
    work: usize,
    pool: &WorkerPool,
    score: F,
) -> Vec<f64>
where
    F: Fn(&PairNode) -> f64 + Sync,
{
    let mut out = vec![0.0f64; pairs.len()];
    if !pool.dispatch(work).is_parallel() {
        for (v, p) in out.iter_mut().zip(pairs) {
            *v = score(p);
        }
        return out;
    }
    let ranges = er_pool::chunk_ranges(pairs.len(), pool.threads(), SCORE_MIN_CHUNK);
    let score = &score;
    pool.scope(|s| {
        let mut rest = out.as_mut_slice();
        for r in ranges {
            let (chunk, tail) = rest.split_at_mut(r.len());
            rest = tail;
            let ps = &pairs[r];
            s.submit(move || {
                for (v, p) in chunk.iter_mut().zip(ps) {
                    *v = score(p);
                }
            });
        }
    });
    out
}

/// Enumerates the candidate pairs of a corpus: all record pairs sharing
/// at least one (post-filter) term, optionally restricted by a policy
/// (e.g. cross-source only). This is the same candidate universe the
/// fusion framework's bipartite graph uses, so baselines and framework
/// are compared on equal footing.
pub fn candidate_pairs(
    corpus: &Corpus,
    pair_filter: Option<&(dyn Fn(u32, u32) -> bool + Sync)>,
) -> Vec<PairNode> {
    BlockingStrategy::TokenGraph
        .candidate_graph(corpus, &WorkerPool::new(1), None, pair_filter)
        .pairs()
        .to_vec()
}

/// Runs a scorer and sweeps the optimal threshold (1 000 quanta, the
/// paper's protocol).
pub fn evaluate_scorer(
    scorer: &dyn PairScorer,
    corpus: &Corpus,
    pairs: &[PairNode],
    truth: &TruthPairs,
) -> SweepResult {
    let scores = scorer.score_pairs(corpus, pairs);
    sweep_scores(pairs, &scores, truth)
}

/// [`evaluate_scorer`] with the scoring stage on a shared worker pool.
/// Bit-identical to the serial evaluation (see
/// [`PairScorer::score_pairs_pooled`]).
pub fn evaluate_scorer_pooled(
    scorer: &dyn PairScorer,
    corpus: &Corpus,
    pairs: &[PairNode],
    truth: &TruthPairs,
    pool: &WorkerPool,
) -> SweepResult {
    let scores = scorer.score_pairs_pooled(corpus, pairs, pool); // er-lint: allow(dispatch) -- delegation; the scorer impl decides
    sweep_scores(pairs, &scores, truth)
}

/// Sweeps parallel `pairs`/`scores` slices without materializing a
/// `ScoredPair` buffer.
pub fn sweep_scores(pairs: &[PairNode], scores: &[f64], truth: &TruthPairs) -> SweepResult {
    assert_eq!(pairs.len(), scores.len(), "one score per candidate pair");
    sweep_threshold_iter(
        pairs.iter().zip(scores).map(|(p, &s)| (p.a, p.b, s)),
        truth,
        1000,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_text::CorpusBuilder;

    #[test]
    fn candidate_pairs_match_shared_terms() {
        let corpus = CorpusBuilder::new()
            .push_text("alpha beta")
            .push_text("beta gamma")
            .push_text("delta")
            .build();
        let pairs = candidate_pairs(&corpus, None);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0], PairNode::new(0, 1));
    }

    #[test]
    fn pooled_scoring_matches_serial_for_every_scorer() {
        let corpus = CorpusBuilder::new()
            .push_text("fenix argyle 8358 sunset blvd")
            .push_text("fenix 8358 sunset blvd hollywood")
            .push_text("grill alley 9560 dayton way")
            .push_text("grill on alley 9560 dayton")
            .push_text("unrelated words entirely here")
            .build();
        let pairs = candidate_pairs(&corpus, None);
        assert!(!pairs.is_empty());
        let mut scorers: Vec<Box<dyn PairScorer>> = vec![
            Box::new(JaccardScorer),
            Box::new(TfIdfScorer),
            Box::new(SimRankScorer::default()),
            Box::new(TwIdfScorer::default()),
            Box::new(HybridScorer::default()),
        ];
        for s in StringSimScorer::all() {
            scorers.push(Box::new(s));
        }
        for scorer in &scorers {
            let serial = scorer.score_pairs(&corpus, &pairs);
            for threads in [2, 4] {
                let pool = WorkerPool::new(threads);
                let pooled = scorer.score_pairs_pooled(&corpus, &pairs, &pool);
                let a: Vec<u64> = serial.iter().map(|s| s.to_bits()).collect();
                let b: Vec<u64> = pooled.iter().map(|s| s.to_bits()).collect();
                assert_eq!(a, b, "{} diverged at threads={threads}", scorer.name());
            }
        }
    }

    #[test]
    fn candidate_pairs_respect_filter() {
        let corpus = CorpusBuilder::new()
            .push_text("x common")
            .push_text("x common")
            .push_text("x common")
            .build();
        let sources = [0u8, 0, 1];
        let filter = |a: u32, b: u32| sources[a as usize] != sources[b as usize];
        let pairs = candidate_pairs(&corpus, Some(&filter));
        assert_eq!(pairs.len(), 2); // (0,2), (1,2)
        assert!(pairs.iter().all(|p| p.b == 2));
    }
}
