//! Explaining resolution decisions and ranking query candidates.
//!
//! Production deduplication needs to answer *why* two records were
//! matched (for review UIs and audits) and *which existing records a new
//! one most likely matches* (for point lookups without a full resolve).
//! Both ride on the framework's own learned artifacts: the per-term
//! discrimination weights and the matching probabilities.

use er_core::FusionOutcome;
use er_graph::BipartiteGraph;
use er_text::{Corpus, TermId};

/// One shared term in a match explanation.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedTerm {
    /// The term's text.
    pub term: String,
    /// ITER's learned discrimination power `x_t ∈ (0, 1)`.
    pub weight: f64,
    /// Number of candidate pairs the term touches (`P_t`) — high values
    /// mean a common, weakly informative term.
    pub pair_count: u32,
}

/// Why a pair was (or wasn't) matched.
#[derive(Debug, Clone)]
pub struct MatchExplanation {
    /// The records in question.
    pub pair: (u32, u32),
    /// Shared terms, most discriminative first.
    pub shared_terms: Vec<SharedTerm>,
    /// ITER similarity `s(ri, rj)` — the sum of the shared weights.
    pub similarity: f64,
    /// CliqueRank matching probability `p(ri, rj)`.
    pub probability: f64,
}

/// Explains the decision for records `(a, b)` given a resolved outcome.
/// Returns `None` when the pair shares no term (it was never a
/// candidate, so its probability is 0 by construction).
pub fn explain_pair(
    corpus: &Corpus,
    graph: &BipartiteGraph,
    outcome: &FusionOutcome,
    a: u32,
    b: u32,
) -> Option<MatchExplanation> {
    let pair_id = graph.pair_id(a, b)?;
    let mut shared_terms: Vec<SharedTerm> = graph
        .terms_of_pair(pair_id)
        .iter()
        .map(|&t| SharedTerm {
            term: corpus.vocab().term(TermId(t)).to_owned(),
            weight: outcome.term_weights[t as usize],
            pair_count: graph.pt(t),
        })
        .collect();
    shared_terms.sort_by(|x, y| y.weight.partial_cmp(&x.weight).expect("finite weights"));
    Some(MatchExplanation {
        pair: (a.min(b), a.max(b)),
        shared_terms,
        similarity: outcome.pair_similarities[pair_id as usize],
        probability: outcome.matching_probabilities[pair_id as usize],
    })
}

/// A candidate record for a query, scored by learned term weights.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCandidate {
    /// Record id in the resolved corpus.
    pub record: u32,
    /// Sum of learned weights of the terms shared with the query — the
    /// same `s(·, ·)` ITER would assign to the (query, record) pair.
    pub score: f64,
    /// The shared terms (text form), most discriminative first.
    pub shared_terms: Vec<String>,
}

/// Ranks the records of a resolved corpus against a free-text query,
/// using ITER's learned discrimination weights (so a shared model code
/// outranks five shared marketing words). Returns the top `limit`
/// candidates with a positive score, best first.
pub fn rank_candidates(
    corpus: &Corpus,
    outcome: &FusionOutcome,
    query: &str,
    limit: usize,
) -> Vec<QueryCandidate> {
    // Map the query's tokens onto known vocabulary.
    let mut query_terms: Vec<TermId> = er_text::tokenize_normalized(query)
        .iter()
        .filter_map(|tok| corpus.vocab().get(tok))
        .collect();
    query_terms.sort_unstable();
    query_terms.dedup();

    // Accumulate weight per record via the inverted index.
    let mut scores: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    for &t in &query_terms {
        let w = outcome.term_weights[t.index()];
        if w <= 0.0 {
            continue;
        }
        for &r in corpus.postings(t) {
            *scores.entry(r).or_insert(0.0) += w;
        }
    }
    let mut ranked: Vec<(u32, f64)> = scores.into_iter().collect();
    ranked.sort_by(|x, y| {
        y.1.partial_cmp(&x.1)
            .expect("finite scores")
            .then(x.0.cmp(&y.0))
    });
    ranked
        .into_iter()
        .take(limit)
        .map(|(record, score)| {
            let mut shared: Vec<(f64, String)> = query_terms
                .iter()
                .filter(|&&t| corpus.term_set(record as usize).contains(&t))
                .map(|&t| {
                    (
                        outcome.term_weights[t.index()],
                        corpus.vocab().term(t).to_owned(),
                    )
                })
                .filter(|(w, _)| *w > 0.0)
                .collect();
            shared.sort_by(|x, y| y.0.partial_cmp(&x.0).expect("finite weights"));
            QueryCandidate {
                record,
                score,
                shared_terms: shared.into_iter().map(|(_, t)| t).collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline;
    use er_core::{FusionConfig, Resolver};
    use er_datasets::{Dataset, Record, SourcePolicy};

    fn setup() -> (Dataset, pipeline::Prepared, FusionOutcome) {
        let records = vec![
            Record {
                id: 0,
                source: 0,
                entity: 0,
                text: "sony pslx350h turntable belt drive".into(),
            },
            Record {
                id: 1,
                source: 0,
                entity: 0,
                text: "sony turntable pslx350h".into(),
            },
            Record {
                id: 2,
                source: 0,
                entity: 1,
                text: "sony wm100 walkman cassette".into(),
            },
            Record {
                id: 3,
                source: 0,
                entity: 2,
                text: "panasonic nnh765 microwave oven".into(),
            },
            Record {
                id: 4,
                source: 0,
                entity: 1,
                text: "sony walkman wm100".into(),
            },
        ];
        let d = Dataset::new("t", records, SourcePolicy::WithinSingleSource);
        let prepared = pipeline::prepare_with(&d, 1.0);
        let cfg = FusionConfig {
            threads: 1,
            ..Default::default()
        };
        let outcome = Resolver::new(cfg).resolve(&prepared.graph);
        (d, prepared, outcome)
    }

    #[test]
    fn explanation_orders_terms_by_discrimination() {
        let (_, prepared, outcome) = setup();
        let e = explain_pair(&prepared.corpus, &prepared.graph, &outcome, 0, 1)
            .expect("pair shares terms");
        assert_eq!(e.pair, (0, 1));
        assert!(e.probability > 0.9, "{e:?}");
        // The model code must outrank the brand name "sony" (df 4).
        let model_pos = e.shared_terms.iter().position(|t| t.term == "pslx350h");
        let sony_pos = e.shared_terms.iter().position(|t| t.term == "sony");
        assert!(
            model_pos.unwrap() < sony_pos.unwrap(),
            "{:?}",
            e.shared_terms
        );
        // Similarity equals the sum of shared weights.
        let sum: f64 = e.shared_terms.iter().map(|t| t.weight).sum();
        assert!((e.similarity - sum).abs() < 1e-9);
    }

    #[test]
    fn non_candidate_pairs_have_no_explanation() {
        let (_, prepared, outcome) = setup();
        // Records 1 and 3 share no term.
        assert!(explain_pair(&prepared.corpus, &prepared.graph, &outcome, 1, 3).is_none());
    }

    #[test]
    fn query_ranks_model_code_match_first() {
        let (_, prepared, outcome) = setup();
        let hits = rank_candidates(&prepared.corpus, &outcome, "PSLX350H turntable", 10);
        assert!(!hits.is_empty());
        assert!(
            hits[0].record == 0 || hits[0].record == 1,
            "model-code records must rank first: {hits:?}"
        );
        assert!(hits[0].shared_terms.contains(&"pslx350h".to_owned()));
    }

    #[test]
    fn query_with_unknown_terms_returns_nothing() {
        let (_, prepared, outcome) = setup();
        let hits = rank_candidates(&prepared.corpus, &outcome, "zzz unknown tokens", 10);
        assert!(hits.is_empty());
    }

    #[test]
    fn limit_respected_and_sorted() {
        let (_, prepared, outcome) = setup();
        let hits = rank_candidates(&prepared.corpus, &outcome, "sony", 2);
        assert!(hits.len() <= 2);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
