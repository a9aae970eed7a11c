//! Blocking — scalable candidate-pair generation.
//!
//! Enumerating all `n(n−1)/2` record pairs is quadratic; real ER systems
//! *block* records so only pairs inside a block become candidates. The
//! fusion framework's bipartite construction is itself **token
//! blocking** (a pair is a candidate iff it shares a post-filter term);
//! this module makes that explicit and adds the other classic scheme,
//! **sorted-neighborhood**, for corpora too large to token-block. The
//! scalable schemes — banding LSH ([`crate::lsh`]) and meta-blocking
//! over the block graph ([`crate::metablocking`]) — plug in through the
//! same [`BlockingStrategy`] switch.
//!
//! All strategies produce sorted `(a, b)` candidate pairs, and
//! [`BlockingStrategy::candidate_graph`] turns them into the term–pair
//! bipartite graph (§V-B) that every resolve path — the batch pipeline,
//! the serving engine and the baselines — feeds to fusion.

use er_graph::BipartiteGraph;
use er_pool::WorkerPool;

use crate::corpus::Corpus;
use crate::lsh::{lsh_blocking, LshParams, SignatureCache};
use crate::metablocking::{meta_block, BlockCollection, MetaConfig};
use crate::simeng::{BatchScorer, SimKernel};
use crate::tokenize::TermId;

/// Default frequent-term filter (§VII-A): drop terms occurring in more
/// than this fraction of records.
///
/// The paper only says it removes "very frequent" terms, but its Table
/// III graph statistics pin the regime down: the Restaurant record graph
/// has just 5 320 edges out of 367 653 candidate pairs, which requires
/// cutting domain words (cuisines, cities, street suffixes) and not only
/// stop words. 5 % reproduces that regime; callers override it per
/// dataset through [`crate::CorpusBuilder::max_df_fraction`].
pub const DEFAULT_MAX_DF_FRACTION: f64 = 0.05;

/// The kernel used for ITER's seed-similarity step: Jaro-Winkler is the
/// cheapest of the batch kernels (bit-parallel match scan, no full DP
/// matrix) and its prefix bonus suits the record texts' name-first
/// token order.
pub const SEED_KERNEL: SimKernel = SimKernel::JaroWinkler;

/// Batched seed similarities for every candidate pair of `graph`,
/// aligned with `graph.pairs()`: [`SEED_KERNEL`] over the record texts
/// on the string tape. The tape holds text only for the records the
/// pairs name; the scores equal [`BatchScorer::new`]'s bit for bit, at
/// any thread count.
pub fn seed_similarities(corpus: &Corpus, graph: &BipartiteGraph, pool: &WorkerPool) -> Vec<f64> {
    let idx: Vec<(u32, u32)> = graph.pairs().iter().map(|p| (p.a, p.b)).collect();
    let mut named = vec![false; corpus.len()];
    for &(a, b) in &idx {
        named[a as usize] = true;
        named[b as usize] = true;
    }
    let scorer = BatchScorer::for_records(corpus, |r| named[r]);
    scorer.score(SEED_KERNEL, &idx, pool)
}

/// The pluggable candidate-generation stage consumed by the batch
/// pipeline (`unsupervised_er::pipeline`), the serving engine and the
/// baselines' candidate stage: which blocking scheme produces the pair
/// universe.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockingStrategy {
    /// The bipartite token-graph construction: every pair sharing at
    /// least one post-filter term is a candidate (no block-size cap
    /// beyond the frequent-term filter). Exact — the paper-scale
    /// default.
    TokenGraph,
    /// [`token_blocking`] with an explicit per-term block-size cap.
    Token {
        /// Terms with more postings than this are skipped.
        max_block_size: usize,
    },
    /// [`sorted_neighborhood`] over the rarest-first blocking key.
    SortedNeighborhood {
        /// Sliding-window width (≥ 2).
        window: usize,
    },
    /// Banding MinHash LSH ([`lsh_blocking`]).
    Lsh {
        /// Band/row parameters (see [`LshParams::for_threshold`]).
        params: LshParams,
        /// Buckets larger than this are skipped.
        max_block_size: usize,
    },
    /// Meta-blocking over the block graph of token blocks and/or LSH
    /// buckets ([`meta_block`]).
    Meta(MetaBlocking),
}

/// Configuration of [`BlockingStrategy::Meta`]: which block collections
/// feed the block graph, plus the purge/filter/prune parameters applied
/// over it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaBlocking {
    /// Include the token blocks (one block per post-filter term).
    pub token_blocks: bool,
    /// Include LSH band buckets generated with these parameters.
    pub lsh: Option<LshParams>,
    /// Purge cap, filter ratio, weight scheme and pruning rule.
    pub config: MetaConfig,
}

impl Default for MetaBlocking {
    /// Token blocks ∪ default-LSH buckets under the default
    /// [`MetaConfig`] — the recall-oriented gather stage feeding the
    /// precision-oriented graph pruning.
    fn default() -> Self {
        Self {
            token_blocks: true,
            lsh: Some(LshParams::default()),
            config: MetaConfig::default(),
        }
    }
}

impl BlockingStrategy {
    /// The scalable default: token blocks + LSH buckets under
    /// meta-blocking with CBS pruning.
    pub fn meta_default() -> Self {
        Self::Meta(MetaBlocking::default())
    }

    /// Generates this strategy's sorted, deduplicated `(a, b)` candidate
    /// pairs (`a < b`), bit-identical at any thread count.
    pub fn candidate_pairs(&self, corpus: &Corpus, pool: &WorkerPool) -> Vec<(u32, u32)> {
        self.candidates(corpus, pool, None, None)
    }

    /// [`Self::candidate_pairs`] restricted to the pairs `keep` accepts,
    /// with the LSH and meta strategies reusing MinHash band keys from
    /// `signatures` for records whose term set is unchanged since the
    /// cache last saw them; the other strategies compute no signatures
    /// and ignore it. The output is the same either way.
    fn candidates(
        &self,
        corpus: &Corpus,
        pool: &WorkerPool,
        signatures: Option<&mut SignatureCache>,
        keep: Option<&(dyn Fn(u32, u32) -> bool + Sync)>,
    ) -> Vec<(u32, u32)> {
        let _span = er_obs::span("blocking.candidates");
        let mut pairs = match self {
            // The token strategies apply `keep` while enumerating, so the
            // uncapped list never holds a rejected pair.
            Self::TokenGraph => return token_pairs(corpus, usize::MAX, keep),
            Self::Token { max_block_size } => return token_pairs(corpus, *max_block_size, keep),
            Self::SortedNeighborhood { window } => sorted_neighborhood(corpus, *window),
            Self::Lsh {
                params,
                max_block_size,
            } => lsh_blocking(corpus, params, *max_block_size, pool, signatures),
            Self::Meta(m) => {
                // The LSH buckets are grouped before the token blocks
                // exist, so the grouping's band keys and pass buffer
                // never sit beside them; the union still lists the token
                // blocks first.
                let buckets = m
                    .lsh
                    .map(|params| BlockCollection::from_lsh(corpus, &params, pool, signatures));
                let mut blocks = if m.token_blocks {
                    BlockCollection::from_token_blocks(corpus)
                } else {
                    BlockCollection::new()
                };
                if let Some(buckets) = buckets {
                    blocks.extend_from(&buckets);
                }
                meta_block(&blocks, corpus.len(), &m.config, pool)
            }
        };
        if let Some(keep) = keep {
            pairs.retain(|&(a, b)| keep(a, b));
        }
        pairs
    }

    /// The term ↔ pair bipartite graph of `corpus` over this strategy's
    /// candidates — the one place a corpus becomes a graph.
    ///
    /// `signatures`, when given, keeps MinHash band keys warm across
    /// calls; the output is the same either way. `keep` is the candidate
    /// policy (e.g. cross-source only). The strategy's candidate list,
    /// restricted by `keep`, goes to [`BipartiteGraph::from_candidates`]
    /// over the corpus's term sets, so the build costs the candidates'
    /// term-set lengths; a candidate sharing no term (possible under
    /// sorted-neighborhood, LSH and meta-blocking) gets no pair node.
    pub fn candidate_graph(
        &self,
        corpus: &Corpus,
        pool: &WorkerPool,
        signatures: Option<&mut SignatureCache>,
        keep: Option<&(dyn Fn(u32, u32) -> bool + Sync)>,
    ) -> BipartiteGraph {
        let candidates = self.candidates(corpus, pool, signatures, keep);
        let _span = er_obs::span("graph.bipartite_build");
        BipartiteGraph::from_candidates(corpus.len(), corpus.vocab_len(), &candidates, |r| {
            corpus.term_set(r as usize)
        })
    }

    /// Short scheme name for bench labels and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            Self::TokenGraph => "token_graph",
            Self::Token { .. } => "token",
            Self::SortedNeighborhood { .. } => "sorted_neighborhood",
            Self::Lsh { .. } => "lsh",
            Self::Meta(_) => "meta",
        }
    }
}

/// Token blocking: candidates are all pairs co-occurring in at least one
/// term's postings, with terms above `max_block_size` skipped (their
/// blocks are quadratic and nearly information-free).
///
/// Uses the repo's canonical sort+dedup construction — per-term pair runs
/// are concatenated in term order, then sorted and deduplicated — which
/// has a deterministic construction order and beats hash-set insertion at
/// paper scale (no rehashing, no probe misses; just one sort over a flat
/// buffer).
///
/// Returns sorted, deduplicated `(a, b)` pairs with `a < b`.
pub fn token_blocking(corpus: &Corpus, max_block_size: usize) -> Vec<(u32, u32)> {
    token_pairs(corpus, max_block_size, None)
}

/// [`token_blocking`] keeping only the pairs `keep` accepts, tested as
/// each pair is enumerated.
fn token_pairs(
    corpus: &Corpus,
    max_block_size: usize,
    keep: Option<&(dyn Fn(u32, u32) -> bool + Sync)>,
) -> Vec<(u32, u32)> {
    let _span = er_obs::span("token_blocking");
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for i in 0..corpus.vocab_len() {
        let postings = corpus.postings(TermId(i as u32));
        if postings.len() < 2 || postings.len() > max_block_size {
            continue;
        }
        for (k, &a) in postings.iter().enumerate() {
            for &b in &postings[k + 1..] {
                if keep.is_none_or(|keep| keep(a, b)) {
                    pairs.push((a, b));
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    note_blocking_stats("token", corpus.len(), pairs.len());
    pairs
}

/// Sorted-neighborhood blocking: records are sorted by a blocking key and
/// every pair within a sliding window of `window` records becomes a
/// candidate.
///
/// The key here is the record's rarest-first term sequence (terms sorted
/// by ascending document frequency, then lexicographically), which puts
/// records sharing discriminative terms next to each other — the
/// standard "most distinguishing prefix" key choice.
///
/// Returns sorted, deduplicated `(a, b)` pairs with `a < b`.
pub fn sorted_neighborhood(corpus: &Corpus, window: usize) -> Vec<(u32, u32)> {
    assert!(window >= 2, "window must cover at least two records");
    let _span = er_obs::span("sorted_neighborhood");
    // One key tape for the whole corpus: every record's key is appended
    // to a single `String` and sliced back out by offset — no
    // per-record `String` allocation.
    let mut tape = String::new();
    let mut bounds: Vec<usize> = Vec::with_capacity(corpus.len() + 1);
    let mut terms: Vec<TermId> = Vec::new();
    bounds.push(0);
    for r in 0..corpus.len() {
        blocking_key_into(corpus, r, &mut terms, &mut tape);
        bounds.push(tape.len());
    }
    let key = |r: u32| &tape[bounds[r as usize]..bounds[r as usize + 1]];
    let mut order: Vec<u32> = (0..corpus.len() as u32).collect();
    order.sort_by(|&a, &b| key(a).cmp(key(b)));
    // Canonical sort+dedup: concatenate per-window runs, sort, dedup.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (i, &a) in order.iter().enumerate() {
        for &b in order.iter().skip(i + 1).take(window - 1) {
            pairs.push(if a < b { (a, b) } else { (b, a) });
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    note_blocking_stats("sorted_neighborhood", corpus.len(), pairs.len());
    pairs
}

/// Publishes the survey-standard blocking telemetry: candidate count and
/// reduction ratio, gauged per scheme.
pub(crate) fn note_blocking_stats(scheme: &str, n_records: usize, n_candidates: usize) {
    if !er_obs::recording() {
        return;
    }
    er_obs::gauge_set(
        &format!("blocking_{scheme}_candidate_pairs"),
        n_candidates as f64,
    );
    er_obs::gauge_set(
        &format!("blocking_{scheme}_reduction_ratio"),
        reduction_ratio(n_records, n_candidates),
    );
}

/// The sorted-neighborhood blocking key of record `r`, **appended** to
/// `out`: its shareable terms (document frequency ≥ 2 — unique terms
/// cannot match anything and would scatter the sort) ordered by
/// ascending document frequency, rarest first, joined by spaces.
///
/// `terms` and `out` are caller-owned reusable buffers — `terms` is
/// cleared and refilled, the key is appended to `out` (a key tape when
/// called in a loop) — so the steady state allocates nothing per
/// record.
// er-lint: zero-alloc
pub fn blocking_key_into(corpus: &Corpus, r: usize, terms: &mut Vec<TermId>, out: &mut String) {
    terms.clear();
    for &t in corpus.term_set(r) {
        if corpus.filtered_doc_freq(t) >= 2 {
            terms.push(t);
        }
    }
    terms.sort_unstable_by_key(|&t| (corpus.filtered_doc_freq(t), corpus.vocab().term(t)));
    for (i, &t) in terms.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(corpus.vocab().term(t));
    }
}

/// [`blocking_key_into`] into a fresh `String` — for tests and one-off
/// callers; hot paths reuse buffers via the `_into` form.
pub fn blocking_key(corpus: &Corpus, r: usize) -> String {
    let mut terms = Vec::new();
    let mut out = String::new();
    blocking_key_into(corpus, r, &mut terms, &mut out);
    out
}

/// Reduction ratio of a candidate set versus the full pair universe:
/// `1 − |candidates| / (n(n−1)/2)`. The standard blocking quality metric
/// (paired with pair completeness, i.e. recall of true pairs).
///
/// The pair universe is computed in `u128`: `n(n−1)` overflows a 32-bit
/// `usize` beyond ~65 k records and a 64-bit one beyond ~4.3 G records,
/// and blocking is exactly the feature aimed at multi-million-record
/// corpora.
pub fn reduction_ratio(n_records: usize, n_candidates: usize) -> f64 {
    let n = n_records as u128;
    let universe = n * n.saturating_sub(1) / 2;
    if universe == 0 {
        return 0.0;
    }
    1.0 - n_candidates as f64 / universe as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;

    fn corpus() -> Corpus {
        CorpusBuilder::new()
            .push_text("fenix sunset 8358")
            .push_text("fenix sunset 8358 hollywood")
            .push_text("grill dayton 9560")
            .push_text("grill dayton 9560 beverly")
            .push_text("unrelated words only")
            .build()
    }

    #[test]
    fn token_blocking_finds_sharing_pairs() {
        let pairs = token_blocking(&corpus(), 10);
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(2, 3)));
        assert!(!pairs.contains(&(0, 2)), "no shared term");
        assert!(!pairs.iter().any(|&(a, b)| a == 4 || b == 4));
    }

    #[test]
    fn block_size_cap_prunes_stop_terms() {
        let c = CorpusBuilder::new()
            .extend_texts(["x a", "x b", "x c", "x d", "x e"])
            .build();
        let capped = token_blocking(&c, 3);
        assert!(capped.is_empty(), "the x-block exceeds the cap: {capped:?}");
        let uncapped = token_blocking(&c, 10);
        assert_eq!(uncapped.len(), 10); // C(5,2)
    }

    #[test]
    fn sorted_neighborhood_pairs_similar_keys() {
        let pairs = sorted_neighborhood(&corpus(), 2);
        // Records 0/1 and 2/3 share their rarest terms, so their keys are
        // adjacent in the sort.
        assert!(pairs.contains(&(0, 1)), "{pairs:?}");
        assert!(pairs.contains(&(2, 3)), "{pairs:?}");
    }

    #[test]
    fn window_size_controls_candidate_count() {
        let c = corpus();
        let narrow = sorted_neighborhood(&c, 2);
        let wide = sorted_neighborhood(&c, 4);
        assert!(narrow.len() < wide.len());
        // Window w over n records yields at most (w-1)*n pairs.
        assert!(wide.len() <= 3 * c.len());
    }

    #[test]
    fn blocking_key_puts_rarest_shareable_first() {
        let c = CorpusBuilder::new()
            .push_text("common rare extra")
            .push_text("common rare")
            .push_text("common third")
            .push_text("common third")
            .build();
        // "extra" is unique (df 1) and must be excluded; "rare" (df 2) is
        // rarer than "common" (df 4) and leads.
        let key = blocking_key(&c, 0);
        assert_eq!(key, "rare common");
    }

    #[test]
    fn reduction_ratio_bounds() {
        assert_eq!(reduction_ratio(0, 0), 0.0);
        assert_eq!(reduction_ratio(10, 0), 1.0);
        assert!((reduction_ratio(10, 45) - 0.0).abs() < 1e-12);
        assert!((reduction_ratio(10, 9) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn reduction_ratio_survives_huge_corpora() {
        // 5 billion records: n(n−1) overflows u64 multiplication; the
        // u128 universe math must stay finite and near 1 for any sane
        // candidate count.
        let n = 5_000_000_000usize;
        let rr = reduction_ratio(n, 1_000_000_000);
        assert!(rr.is_finite());
        assert!(rr > 0.999_999, "{rr}");
        assert!(rr <= 1.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn tiny_window_rejected() {
        sorted_neighborhood(&corpus(), 1);
    }

    #[test]
    fn blocking_key_into_appends_and_matches_allocating_form() {
        let c = corpus();
        let mut terms = Vec::new();
        let mut tape = String::new();
        let mut bounds = vec![0usize];
        for r in 0..c.len() {
            blocking_key_into(&c, r, &mut terms, &mut tape);
            bounds.push(tape.len());
        }
        for r in 0..c.len() {
            assert_eq!(&tape[bounds[r]..bounds[r + 1]], blocking_key(&c, r));
        }
    }

    #[test]
    fn strategy_dispatches_to_named_schemes() {
        let c = corpus();
        let pool = WorkerPool::new(1);
        assert_eq!(
            BlockingStrategy::Token { max_block_size: 10 }.candidate_pairs(&c, &pool),
            token_blocking(&c, 10)
        );
        assert_eq!(
            BlockingStrategy::SortedNeighborhood { window: 2 }.candidate_pairs(&c, &pool),
            sorted_neighborhood(&c, 2)
        );
        assert_eq!(
            BlockingStrategy::TokenGraph.candidate_pairs(&c, &pool),
            token_blocking(&c, usize::MAX)
        );
        assert_eq!(BlockingStrategy::meta_default().name(), "meta");
    }

    #[test]
    fn cached_candidates_match_plain_for_every_strategy() {
        let c = corpus();
        let pool = WorkerPool::new(1);
        let strategies = [
            BlockingStrategy::TokenGraph,
            BlockingStrategy::Token { max_block_size: 10 },
            BlockingStrategy::SortedNeighborhood { window: 2 },
            BlockingStrategy::Lsh {
                params: LshParams::default(),
                max_block_size: 64,
            },
            BlockingStrategy::meta_default(),
        ];
        for s in &strategies {
            let mut cache = SignatureCache::new();
            let plain = s.candidate_pairs(&c, &pool);
            // Cold cache, then warm cache: both must match the plain path.
            assert_eq!(
                s.candidates(&c, &pool, Some(&mut cache), None),
                plain,
                "{} cold",
                s.name()
            );
            assert_eq!(
                s.candidates(&c, &pool, Some(&mut cache), None),
                plain,
                "{} warm",
                s.name()
            );
        }
    }

    #[test]
    fn meta_strategy_keeps_duplicate_pairs() {
        let c = corpus();
        let pool = WorkerPool::new(1);
        let pairs = BlockingStrategy::meta_default().candidate_pairs(&c, &pool);
        assert!(pairs.contains(&(0, 1)), "{pairs:?}");
        assert!(pairs.contains(&(2, 3)), "{pairs:?}");
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
    }
}
