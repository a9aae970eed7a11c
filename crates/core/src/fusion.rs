//! The fusion loop (§IV, Figure 2): ITER ⇄ CliqueRank reinforcement.
//!
//! Round r:
//! 1. ITER runs on the bipartite graph with edge weights `p` (uniform 1 on
//!    the first round) → term weights `x_t`, pair similarities `s`.
//! 2. The record graph `Gr` is rebuilt from `s`; CliqueRank turns the
//!    topology into matching probabilities `p`, which become the next
//!    round's edge weights.
//!
//! Shared terms of non-matching pairs are thereby punished (their pairs
//! carry low `p`) and terms occurring only in matching pairs promoted —
//! the reinforcement the paper quantifies in Table V. After `R` rounds,
//! pairs with `p ≥ η` are declared matches and clustered transitively.

use std::mem;
use std::time::{Duration, Instant};

use er_graph::{BipartiteGraph, PairNode, RecordGraph, UnionFind};
use er_pool::WorkerPool;

use crate::cliquerank::run_cliquerank;
use crate::config::FusionConfig;
use crate::iter::{run_iter_into, IterScratch};

/// Per-round diagnostics.
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// 1-based round number.
    pub round: usize,
    /// ITER iterations until convergence.
    pub iter_iterations: usize,
    /// ITER per-iteration L1 weight change (Figure 5 trace).
    pub iter_deltas: Vec<f64>,
    /// Whether ITER reached its tolerance before the iteration cap
    /// ([`IterOutcome::converged`](crate::IterOutcome::converged)).
    pub iter_converged: bool,
    /// Wall time of the ITER phase.
    pub iter_time: Duration,
    /// Wall time of the CliqueRank phase.
    pub cliquerank_time: Duration,
    /// L1 change of the probability vector versus the previous round
    /// (the fusion loop's own convergence signal).
    pub probability_delta: f64,
    /// Number of edges in this round's record graph.
    pub record_graph_edges: usize,
}

/// Final output of the fusion framework.
#[derive(Debug, Clone)]
pub struct FusionOutcome {
    /// Learned term discrimination power from the final ITER run.
    pub term_weights: Vec<f64>,
    /// Final pair similarities, aligned with [`BipartiteGraph::pairs`].
    pub pair_similarities: Vec<f64>,
    /// Final matching probabilities, aligned with
    /// [`BipartiteGraph::pairs`].
    pub matching_probabilities: Vec<f64>,
    /// Record pairs with `p ≥ η`, as `(smaller id, larger id)`.
    pub matches: Vec<(u32, u32)>,
    /// Entity clusters induced by the matches (transitive closure);
    /// singletons included, sorted by smallest member.
    pub clusters: Vec<Vec<u32>>,
    /// Per-round diagnostics.
    pub rounds: Vec<RoundStats>,
    /// Per-round probability vectors (only when
    /// [`FusionConfig::record_round_probabilities`] is set) — used by the
    /// Table V reinforcement bench.
    pub round_probabilities: Vec<Vec<f64>>,
}

/// The fusion-framework driver.
///
/// ```
/// use er_core::{FusionConfig, Resolver};
/// use er_graph::BipartiteGraphBuilder;
///
/// let graph = BipartiteGraphBuilder::new(2, 2)
///     .postings(0, &[0, 1])
///     .postings(1, &[0, 1])
///     .build();
/// let outcome = Resolver::new(FusionConfig::default()).resolve(&graph);
/// assert_eq!(outcome.matches, vec![(0, 1)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Resolver {
    config: FusionConfig,
}

impl Resolver {
    /// Creates a resolver with the given configuration.
    pub fn new(config: FusionConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &FusionConfig {
        &self.config
    }

    /// Runs the full fusion loop on a prepared bipartite graph.
    ///
    /// One worker pool of [`FusionConfig::threads`] threads is created
    /// here and shared by the pooled phases of every round (ITER and
    /// CliqueRank) — persistent workers instead of per-phase thread
    /// spawns. Every phase is deterministic, so the outcome is
    /// bit-identical at any thread count.
    pub fn resolve(&self, graph: &BipartiteGraph) -> FusionOutcome {
        self.fuse(graph, None)
    }

    /// [`Resolver::resolve`] with externally seeded first-round edge
    /// weights.
    ///
    /// §V-C initializes `p(ri, rj) ≡ 1`, treating every candidate pair
    /// as equally plausible until the first CliqueRank feedback. When a
    /// cheap pair similarity is already available — e.g. batched
    /// Jaro-Winkler over the record texts (`er-text`'s similarity
    /// engine) — seeding ITER's first round with it starts the
    /// reinforcement from informed edge weights instead of uniform
    /// ones. `seed` is aligned with [`BipartiteGraph::pairs`]; values
    /// must lie in `[0, 1]`. Everything downstream is unchanged and the
    /// outcome remains bit-identical at any thread count.
    pub fn resolve_seeded(&self, graph: &BipartiteGraph, seed: &[f64]) -> FusionOutcome {
        self.fuse(graph, Some(seed))
    }

    /// The fusion loop behind [`Resolver::resolve`] (`seed = None`) and
    /// [`Resolver::resolve_seeded`].
    fn fuse(&self, graph: &BipartiteGraph, seed: Option<&[f64]>) -> FusionOutcome {
        if let Some(s) = seed {
            assert_eq!(
                s.len(),
                graph.pair_count(),
                "one seed weight per candidate pair"
            );
            assert!(
                s.iter().all(|&v| (0.0..=1.0).contains(&v)),
                "seed weights must be probabilities"
            );
        }
        let cfg = &self.config;
        if let Err(e) = cfg.validate() {
            panic!("{e}"); // er-lint: allow(panic) -- an invalid config is a caller bug; `validate` checks it up front
        }
        let _fusion_span = er_obs::span("fusion");
        let pool = WorkerPool::with_policy(cfg.threads, cfg.dispatch);
        let n_pairs = graph.pair_count();
        // Structural edge admission: pairs sharing fewer than
        // `min_shared_terms` terms never enter Gr (stable across rounds).
        let admitted: Vec<bool> = (0..n_pairs as u32)
            .map(|p| graph.terms_of_pair(p).len() >= cfg.min_shared_terms)
            .collect();
        // §V-C: p(ri, rj) is initialized to 1 before CliqueRank runs —
        // unless the caller seeded the first round's edge weights.
        let mut prob = match seed {
            None => vec![1.0f64; n_pairs],
            Some(s) => s.to_vec(),
        };
        let mut rounds = Vec::with_capacity(cfg.rounds);
        let mut round_probabilities = Vec::new();
        let mut last_iter = None;
        // Round-loop sweep buffers, allocated once and reused: the ITER
        // scratch recycles the previous round's outcome, `gr_scores` and
        // `new_prob` are refilled in place.
        let mut iter_scratch = IterScratch::new();
        let mut gr_scores = vec![0.0f64; n_pairs];
        let mut new_prob = vec![0.0f64; n_pairs];

        for round in 1..=cfg.rounds {
            if let Some(prev) = last_iter.take() {
                iter_scratch.recycle(prev);
            }
            let t0 = Instant::now();
            let iter_out = {
                let _span = er_obs::span("iter");
                run_iter_into(graph, &prob, &cfg.iter, &pool, &mut iter_scratch)
            };
            let iter_time = t0.elapsed();
            er_obs::counter_add("iter_iterations_total", iter_out.iterations as u64);

            let t1 = Instant::now();
            let (gr, edge_probs) = {
                let _span = er_obs::span("cliquerank");
                // Admission rule: the structural shared-term minimum. A
                // pair it rejects scores 0, and `RecordGraph` keeps only
                // positive scores.
                for ((slot, &s), &ok) in gr_scores
                    .iter_mut()
                    .zip(&iter_out.pair_similarities)
                    .zip(&admitted)
                {
                    *slot = if ok { s } else { 0.0 };
                }
                let gr =
                    RecordGraph::from_pair_scores(graph.record_count(), graph.pairs(), &gr_scores);
                let edge_probs = {
                    let _span = er_obs::span("solve");
                    run_cliquerank(&gr, &cfg.cliquerank, &pool)
                };
                (gr, edge_probs)
            };
            let cliquerank_time = t1.elapsed();
            er_obs::counter_add("fusion_rounds_total", 1);
            er_obs::gauge_set("record_graph_edges", gr.edge_count() as f64);

            // Map probabilities back onto the bipartite pair indexing;
            // pairs whose similarity dropped to 0 keep probability 0.
            scatter_edge_probabilities(graph.pairs(), gr.pairs(), &edge_probs, &mut new_prob);
            let probability_delta = prob.iter().zip(&new_prob).map(|(a, b)| (a - b).abs()).sum();
            mem::swap(&mut prob, &mut new_prob);

            rounds.push(RoundStats {
                round,
                iter_iterations: iter_out.iterations,
                iter_deltas: iter_out.deltas.clone(),
                iter_converged: iter_out.converged,
                iter_time,
                cliquerank_time,
                probability_delta,
                record_graph_edges: gr.edge_count(),
            });
            if cfg.record_round_probabilities {
                round_probabilities.push(prob.clone());
            }
            last_iter = Some(iter_out);
        }

        let iter_out = last_iter.expect("at least one round ran"); // er-lint: allow(panic) -- cfg.rounds >= 1 asserted at entry
        let (matches, clusters) = decide_matches(graph, &prob, cfg.eta);
        FusionOutcome {
            term_weights: iter_out.term_weights,
            pair_similarities: iter_out.pair_similarities,
            matching_probabilities: prob,
            matches,
            clusters,
            rounds,
            round_probabilities,
        }
    }
}

/// Writes each record-graph edge's probability `probs[e]` at the position
/// of its pair `edges[e]` in `pairs`, and 0 at every other position of
/// `out`. `edges` is an ascending subsequence of the ascending `pairs`
/// (`Gr` keeps the bipartite pairs of positive similarity, in order), so
/// one merge walk finds every position.
fn scatter_edge_probabilities(
    pairs: &[PairNode],
    edges: &[PairNode],
    probs: &[f64],
    out: &mut [f64],
) {
    let mut next = edges.iter().zip(probs).peekable();
    for (pair, slot) in pairs.iter().zip(out.iter_mut()) {
        *slot = match next.peek() {
            Some(&(edge, &p)) if edge == pair => {
                next.next();
                p
            }
            _ => 0.0,
        };
    }
    assert!(
        next.next().is_none(),
        "record-graph edge must be a bipartite pair"
    );
}

/// Thresholds probabilities at `eta` and clusters matches transitively.
pub fn decide_matches(
    graph: &BipartiteGraph,
    probabilities: &[f64],
    eta: f64,
) -> (Vec<(u32, u32)>, Vec<Vec<u32>>) {
    let mut matches = Vec::new();
    let mut uf = UnionFind::new(graph.record_count());
    for (pair, &p) in graph.pairs().iter().zip(probabilities) {
        if p >= eta {
            matches.push((pair.a, pair.b));
            uf.union(pair.a, pair.b);
        }
    }
    (matches, uf.into_sets())
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::BipartiteGraphBuilder;

    /// Six records, two true entities {0,1,2} and {3,4}, plus noise
    /// record 5. Terms 0–2 are discriminative for entity A, terms 3–4 for
    /// entity B; term 5 is a common word shared across entities.
    fn two_entity_graph() -> BipartiteGraph {
        BipartiteGraphBuilder::new(6, 6)
            .postings(0, &[0, 1, 2]) // entity A model code
            .postings(1, &[0, 1, 2]) // entity A street number
            .postings(2, &[0, 2]) // entity A extra token
            .postings(3, &[3, 4]) // entity B phone
            .postings(4, &[3, 4]) // entity B name
            .postings(5, &[0, 1, 3, 5]) // common word
            .build()
    }

    fn quick_config() -> FusionConfig {
        FusionConfig {
            threads: 1,
            ..FusionConfig::default()
        }
    }

    #[test]
    fn resolves_two_entities() {
        let out = Resolver::new(quick_config()).resolve(&two_entity_graph());
        assert!(out.matches.contains(&(0, 1)), "matches: {:?}", out.matches);
        assert!(out.matches.contains(&(0, 2)));
        assert!(out.matches.contains(&(1, 2)));
        assert!(out.matches.contains(&(3, 4)));
        assert!(!out.matches.contains(&(0, 3)));
        // Clusters: {0,1,2}, {3,4}, {5}.
        assert!(out.clusters.contains(&vec![0, 1, 2]));
        assert!(out.clusters.contains(&vec![3, 4]));
        assert!(out.clusters.contains(&vec![5]));
    }

    #[test]
    fn probabilities_aligned_and_bounded() {
        let g = two_entity_graph();
        let out = Resolver::new(quick_config()).resolve(&g);
        assert_eq!(out.matching_probabilities.len(), g.pair_count());
        for &p in &out.matching_probabilities {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn round_stats_recorded() {
        let mut cfg = quick_config();
        cfg.record_round_probabilities = true;
        let out = Resolver::new(cfg).resolve(&two_entity_graph());
        assert_eq!(out.rounds.len(), 5);
        assert_eq!(out.round_probabilities.len(), 5);
        for (i, r) in out.rounds.iter().enumerate() {
            assert_eq!(r.round, i + 1);
            assert!(r.iter_iterations >= 1);
            assert_eq!(r.iter_deltas.len(), r.iter_iterations);
            // ITER stops early exactly when its last delta is below the
            // tolerance; on this small graph every round converges.
            let tolerance = quick_config().iter.tolerance;
            assert_eq!(r.iter_converged, r.iter_deltas.last().unwrap() < &tolerance);
            assert!(r.iter_converged, "round {}: {:?}", r.round, r.iter_deltas);
        }
        // A one-sweep cap stops every round short of the tolerance.
        let mut capped = quick_config();
        capped.iter.max_iterations = 1;
        let out = Resolver::new(capped).resolve(&two_entity_graph());
        assert!(out.rounds.iter().all(|r| !r.iter_converged));
        // Reinforcement converges: the last round changes p less than the
        // first feedback round did.
        assert!(out.rounds.last().unwrap().probability_delta <= out.rounds[0].probability_delta);
    }

    #[test]
    fn single_round_works() {
        let mut cfg = quick_config();
        cfg.rounds = 1;
        let out = Resolver::new(cfg).resolve(&two_entity_graph());
        assert_eq!(out.rounds.len(), 1);
        assert!(out.matches.contains(&(0, 1)));
    }

    #[test]
    fn discriminative_terms_end_up_heavier_than_common() {
        let out = Resolver::new(quick_config()).resolve(&two_entity_graph());
        let w = &out.term_weights;
        assert!(
            w[0] > w[5] && w[3] > w[5],
            "discriminative {w:?} must outweigh the cross-entity common term"
        );
    }

    #[test]
    fn reinforcement_demotes_common_term_further() {
        let g = two_entity_graph();
        let mut one = quick_config();
        one.rounds = 1;
        let r1 = Resolver::new(one).resolve(&g);
        let r5 = Resolver::new(quick_config()).resolve(&g);
        let ratio = |o: &FusionOutcome| o.term_weights[5] / o.term_weights[0];
        assert!(
            ratio(&r5) < ratio(&r1) + 1e-12,
            "five rounds {} vs one round {}",
            ratio(&r5),
            ratio(&r1)
        );
    }

    #[test]
    fn empty_graph_resolves_to_nothing() {
        let g = BipartiteGraphBuilder::new(3, 1).build();
        let out = Resolver::new(quick_config()).resolve(&g);
        assert!(out.matches.is_empty());
        assert_eq!(out.clusters.len(), 3);
    }

    #[test]
    fn eta_one_is_strictest() {
        let g = two_entity_graph();
        let mut strict = quick_config();
        strict.eta = 1.0;
        let loose_out = Resolver::new(quick_config()).resolve(&g);
        let strict_out = Resolver::new(strict).resolve(&g);
        assert!(strict_out.matches.len() <= loose_out.matches.len());
    }

    #[test]
    fn outcome_identical_at_every_thread_count() {
        let g = two_entity_graph();
        let serial = Resolver::new(FusionConfig {
            threads: 1,
            ..quick_config()
        })
        .resolve(&g);
        for threads in [2, 4] {
            let parallel = Resolver::new(FusionConfig {
                threads,
                ..quick_config()
            })
            .resolve(&g);
            assert_eq!(
                serial.matching_probabilities,
                parallel.matching_probabilities
            );
            assert_eq!(serial.term_weights, parallel.term_weights);
            assert_eq!(serial.matches, parallel.matches);
            assert_eq!(serial.clusters, parallel.clusters);
        }
    }

    #[test]
    #[should_panic(expected = "at least one fusion round")]
    fn zero_rounds_rejected() {
        let mut cfg = quick_config();
        cfg.rounds = 0;
        Resolver::new(cfg).resolve(&two_entity_graph());
    }

    #[test]
    fn uniform_seed_matches_unseeded() {
        let g = two_entity_graph();
        let resolver = Resolver::new(quick_config());
        let plain = resolver.resolve(&g);
        let seeded = resolver.resolve_seeded(&g, &vec![1.0; g.pair_count()]);
        assert_eq!(plain.matching_probabilities, seeded.matching_probabilities);
        assert_eq!(plain.term_weights, seeded.term_weights);
        assert_eq!(plain.matches, seeded.matches);
    }

    #[test]
    fn seeded_outcome_identical_at_every_thread_count() {
        let g = two_entity_graph();
        // A deterministic, non-uniform seed exercising the informed
        // first round.
        let seed: Vec<f64> = (0..g.pair_count())
            .map(|i| 0.25 + 0.5 * ((i % 3) as f64) / 2.0)
            .collect();
        let serial = Resolver::new(FusionConfig {
            threads: 1,
            ..quick_config()
        })
        .resolve_seeded(&g, &seed);
        assert!(serial.matches.contains(&(0, 1)), "{:?}", serial.matches);
        for threads in [2, 4] {
            let parallel = Resolver::new(FusionConfig {
                threads,
                ..quick_config()
            })
            .resolve_seeded(&g, &seed);
            assert_eq!(
                serial.matching_probabilities,
                parallel.matching_probabilities
            );
            assert_eq!(serial.matches, parallel.matches);
        }
    }

    #[test]
    #[should_panic(expected = "one seed weight per candidate pair")]
    fn misaligned_seed_rejected() {
        let g = two_entity_graph();
        Resolver::new(quick_config()).resolve_seeded(&g, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn out_of_range_seed_rejected() {
        let g = two_entity_graph();
        Resolver::new(quick_config()).resolve_seeded(&g, &vec![1.5; g.pair_count()]);
    }
}
