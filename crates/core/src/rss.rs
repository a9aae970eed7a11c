//! RSS — Random-Surfer Sampling (§VI-B, Algorithms 2–3).
//!
//! For every edge `(ri, rj)` of the record graph, RSS simulates `M`
//! rectified random walks (half starting from each endpoint) and
//! estimates `p(ri, rj)` as the fraction that reach the other endpoint
//! within `S` steps. The walk is rectified three ways:
//!
//! 1. **Non-linear transitions** (Eq. 11): the next node is drawn with
//!    probability ∝ `s(cur, next)^α`, championing high-similarity edges.
//! 2. **Target bonus** (Eq. 12): before each step, the edge toward the
//!    target is boosted by `(1 + b)` with `b ~ U(0, 1)` — without it, a
//!    walk inside a 192-record clique would need far more than `S` steps
//!    to hit one specific member.
//! 3. **Early stop**: stepping to a node that is not adjacent to the
//!    target means the surfer left the target's clique — fail immediately.
//!
//! RSS is `O(M · S · n³)` in the worst case; CliqueRank replaces it in
//! production. It is retained both as the reference the matrix form is
//! validated against and for the Table III speedup comparison.
//!
//! # Parallelism and determinism
//!
//! Edges are embarrassingly parallel: each edge's `M` walks touch only
//! that edge's probability slot. Every edge gets its own [`SmallRng`]
//! derived from `(config.seed, edge id)`, so the sampled walks do not
//! depend on which worker simulates which edge — the output is
//! bit-identical at every thread count (including 1), and a subset run
//! reproduces exactly the probabilities the full run assigns to the same
//! edges.
//!
//! The α-scaled transition powers `(s / (2 · rowmax))^α` depend only on
//! the graph, so they are computed once per run (`EdgePowers`) instead
//! of per step; a step then costs one `powf` (for the sampled bonus) plus
//! a multiply on the target entry, rather than `powf` per neighbor.

use er_graph::RecordGraph;
use er_pool::WorkerPool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::RssConfig;
use crate::sparse_kernel::row_scaled;

/// Result of an RSS run.
#[derive(Debug, Clone)]
pub struct RssOutcome {
    /// Estimated matching probability per edge, aligned with
    /// [`RecordGraph::pairs`].
    pub probabilities: Vec<f64>,
    /// Total walks simulated.
    pub walks: usize,
}

/// Runs RSS over every edge of `graph` (Algorithm 2) on the caller's
/// worker pool.
pub fn run_rss(graph: &RecordGraph, config: &RssConfig, pool: &WorkerPool) -> RssOutcome {
    let all: Vec<u32> = (0..graph.pairs().len() as u32).collect();
    run_rss_subset(graph, config, &all, pool)
}

/// Runs RSS for a subset of edges (by index into [`RecordGraph::pairs`]).
///
/// Walks still traverse the full graph; only the sampled edges are
/// estimated. The Table III bench uses this to extrapolate RSS's running
/// time on dense graphs where the full `O(M · S · n³)` simulation is
/// impractical — the very point the paper's speedup comparison makes.
///
/// Edge chunks become pool jobs, each writing its own disjoint slice of
/// the probability vector; a 1-thread pool runs them inline. Per-edge
/// seeding makes the result bit-identical at any thread count.
pub fn run_rss_subset(
    graph: &RecordGraph,
    config: &RssConfig,
    edges: &[u32],
    pool: &WorkerPool,
) -> RssOutcome {
    validate(config);
    let _span = er_obs::span("rss");
    let powers = EdgePowers::build(graph, config.alpha);
    let mut probabilities = vec![0.0f64; edges.len()];
    // Work estimate: every edge runs `walks_per_edge` walks of up to
    // `steps` hops; sub-cutover subsets run inline on the caller.
    let work = edges
        .len()
        .saturating_mul(config.walks_per_edge)
        .saturating_mul(config.steps);
    if pool.dispatch(work).is_parallel() {
        // ~16 edges per job keeps scheduling overhead negligible while
        // still load-balancing walks whose cost varies with clique size.
        let ranges = er_pool::chunk_ranges(edges.len(), pool.threads() * 4, 16);
        let powers = &powers;
        pool.scope(|s| {
            let mut rest: &mut [f64] = &mut probabilities;
            for range in ranges {
                let (chunk, tail) = rest.split_at_mut(range.len());
                rest = tail;
                let edge_ids = &edges[range];
                s.submit(move || estimate_edges(graph, config, powers, edge_ids, chunk));
            }
        });
    } else {
        estimate_edges(graph, config, &powers, edges, &mut probabilities);
    }
    let half = config.walks_per_edge / 2;
    er_obs::counter_add("rss_edges_total", edges.len() as u64);
    er_obs::counter_add("rss_walks_total", (edges.len() * 2 * half) as u64);
    RssOutcome {
        probabilities,
        walks: edges.len() * 2 * half,
    }
}

fn validate(config: &RssConfig) {
    assert!(config.alpha > 0.0, "alpha must be positive");
    assert!(config.steps >= 1, "need at least one step");
    assert!(
        config.walks_per_edge >= 2,
        "need at least one walk per direction"
    );
}

/// Simulates all walks for `edge_ids`, writing one probability per edge
/// into `out`. Each edge draws from its own RNG seeded by
/// `(config.seed, edge id)`, so the result does not depend on how edges
/// are grouped into calls.
fn estimate_edges(
    graph: &RecordGraph,
    config: &RssConfig,
    powers: &EdgePowers,
    edge_ids: &[u32],
    out: &mut [f64],
) {
    debug_assert_eq!(edge_ids.len(), out.len());
    let half = config.walks_per_edge / 2;
    for (&e, slot) in edge_ids.iter().zip(out) {
        let pair = graph.pairs()[e as usize];
        let mut rng = SmallRng::seed_from_u64(edge_seed(config.seed, e));
        let mut successes = 0usize;
        for _ in 0..half {
            successes += random_walk(graph, powers, pair.a, pair.b, config, &mut rng);
            successes += random_walk(graph, powers, pair.b, pair.a, config, &mut rng);
        }
        *slot = successes as f64 / (2 * half) as f64;
    }
}

/// Mixes the run seed with the edge id (splitmix64-style odd multiplier)
/// so adjacent edges get uncorrelated RNG streams.
fn edge_seed(seed: u64, edge_id: u32) -> u64 {
    seed ^ (edge_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Precomputed α-scaled transition weights, aligned with the record
/// graph's adjacency: `pow[k] = (s_k / (2 · rowmax))^α` for the k-th
/// directed edge, plus each row's weight sum. Shared read-only by all
/// walk workers; replaces a `powf` per neighbor per step with one table
/// lookup.
struct EdgePowers {
    /// CSR-style row offsets into `pow` (`n + 1` entries).
    offsets: Vec<usize>,
    /// Per-directed-edge α-scaled weight, in adjacency order.
    pow: Vec<f64>,
    /// Per-node sum of that row's entries of `pow`.
    row_sum: Vec<f64>,
}

impl EdgePowers {
    fn build(graph: &RecordGraph, alpha: f64) -> Self {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut pow = Vec::new();
        let mut row_sum = Vec::with_capacity(n);
        for u in 0..n as u32 {
            let (_, sims) = graph.neighbors(u);
            // CliqueRank's row scaling: divide by twice the row maximum
            // before exponentiating so α = 20 cannot overflow regardless
            // of similarity magnitudes (the scaling cancels in the
            // sampling normalization).
            let row_max = sims.iter().fold(0.0f64, |m, &v| m.max(v));
            let mut sum = 0.0;
            for &sim in sims {
                let w = row_scaled(sim, row_max).powf(alpha);
                pow.push(w);
                sum += w;
            }
            offsets.push(pow.len());
            row_sum.push(sum);
        }
        Self {
            offsets,
            pow,
            row_sum,
        }
    }

    #[inline]
    fn row(&self, u: u32) -> &[f64] {
        &self.pow[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }
}

/// One rectified random walk (Algorithm 3). Returns 1 on reaching
/// `target` within `config.steps` steps, 0 otherwise.
fn random_walk(
    graph: &RecordGraph,
    powers: &EdgePowers,
    start: u32,
    target: u32,
    config: &RssConfig,
    rng: &mut SmallRng,
) -> usize {
    let mut cur = start;
    for _ in 0..config.steps {
        let (neighbors, _) = graph.neighbors(cur);
        debug_assert!(!neighbors.is_empty(), "walk node must have neighbors");
        let row = powers.row(cur);
        // Line 3–4: random bonus on the edge toward the target. Drawn
        // unconditionally (when enabled) so the per-walk RNG stream does
        // not depend on the current node's adjacency.
        let bonus: f64 = if config.boost {
            1.0 + rng.random_range(0.0..1.0)
        } else {
            1.0
        };
        // Transition weights ∝ (boosted similarity)^α (Eq. 11–12). The
        // unboosted powers come from the precomputed table; only the
        // target entry needs a fresh powf for the sampled bonus.
        let target_pos = neighbors.binary_search(&target).ok();
        let (bonus_pow, total) = match target_pos {
            Some(tp) if config.boost => {
                let bp = bonus.powf(config.alpha);
                (bp, powers.row_sum[cur as usize] + (bp - 1.0) * row[tp])
            }
            _ => (1.0, powers.row_sum[cur as usize]),
        };
        if total <= 0.0 {
            return 0;
        }
        // Line 5: sample the next node.
        let mut draw = rng.random_range(0.0..total);
        let mut chosen = neighbors.len() - 1;
        for (i, &w0) in row.iter().enumerate() {
            let w = if Some(i) == target_pos {
                bonus_pow * w0
            } else {
                w0
            };
            if draw < w {
                chosen = i;
                break;
            }
            draw -= w;
        }
        let next = neighbors[chosen];
        // Lines 6–7: success.
        if next == target {
            return 1;
        }
        // Lines 8–9: early stop on leaving the target's neighborhood.
        if config.early_stop && !graph.has_edge(next, target) {
            return 0;
        }
        cur = next;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::bipartite::PairNode;

    fn pairs(ps: &[(u32, u32)]) -> Vec<PairNode> {
        ps.iter().map(|&(a, b)| PairNode::new(a, b)).collect()
    }

    /// Two tight cliques {0,1,2} and {3,4}, joined by one weak edge 2–3.
    fn two_cliques() -> RecordGraph {
        let p = pairs(&[(0, 1), (0, 2), (1, 2), (3, 4), (2, 3)]);
        let s = [1.0, 1.0, 1.0, 1.0, 0.05];
        RecordGraph::from_pair_scores(5, &p, &s)
    }

    /// RSS on a 1-thread pool: every edge runs inline.
    fn rss(g: &RecordGraph, config: &RssConfig) -> RssOutcome {
        run_rss(g, config, &WorkerPool::new(1))
    }

    fn edge_prob(g: &RecordGraph, out: &RssOutcome, a: u32, b: u32) -> f64 {
        let idx = g
            .pairs()
            .iter()
            .position(|p| *p == PairNode::new(a, b))
            .expect("edge present");
        out.probabilities[idx]
    }

    #[test]
    fn clique_members_reach_each_other() {
        let g = two_cliques();
        let out = rss(&g, &RssConfig::default());
        assert!(edge_prob(&g, &out, 0, 1) > 0.9, "{out:?}");
        assert!(edge_prob(&g, &out, 3, 4) > 0.9);
    }

    #[test]
    fn weak_bridge_scores_low() {
        let g = two_cliques();
        let out = rss(&g, &RssConfig::default());
        let bridge = edge_prob(&g, &out, 2, 3);
        let clique = edge_prob(&g, &out, 0, 1);
        assert!(
            bridge < clique - 0.3,
            "bridge {bridge} should be well below clique edge {clique}"
        );
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let g = two_cliques();
        let out = rss(&g, &RssConfig::default());
        for &p in &out.probabilities {
            assert!((0.0..=1.0).contains(&p));
        }
        assert_eq!(out.walks, g.pairs().len() * 100);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = two_cliques();
        let a = rss(&g, &RssConfig::default());
        let b = rss(&g, &RssConfig::default());
        assert_eq!(a.probabilities, b.probabilities);
    }

    #[test]
    fn boost_rescues_large_cliques() {
        // A 24-clique with uniform weights: without the bonus, hitting one
        // specific member within S=8 steps is unlikely; with it, near-certain.
        let n = 24u32;
        let mut p = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                p.push((i, j));
            }
        }
        let pr = pairs(&p);
        let s = vec![1.0; pr.len()];
        let g = RecordGraph::from_pair_scores(n as usize, &pr, &s);
        let base = RssConfig {
            steps: 8,
            walks_per_edge: 50,
            ..Default::default()
        };
        let with = rss(&g, &base);
        let without = rss(
            &g,
            &RssConfig {
                boost: false,
                ..base
            },
        );
        let mean =
            |o: &RssOutcome| o.probabilities.iter().sum::<f64>() / o.probabilities.len() as f64;
        assert!(
            mean(&with) > mean(&without) + 0.2,
            "boost {} must clearly beat no-boost {}",
            mean(&with),
            mean(&without)
        );
        assert!(mean(&with) > 0.8, "{}", mean(&with));
    }

    #[test]
    fn corner_case_single_edge_component() {
        // A node with exactly one neighbor always walks to it — the paper's
        // corner case motivating bi-directional walks. Probability 1.
        let g = RecordGraph::from_pair_scores(2, &pairs(&[(0, 1)]), &[0.3]);
        let out = rss(&g, &RssConfig::default());
        assert_eq!(out.probabilities, vec![1.0]);
    }

    #[test]
    fn early_stop_reduces_cross_clique_probability() {
        let g = two_cliques();
        let base = RssConfig::default();
        let with = rss(&g, &base);
        let without = rss(
            &g,
            &RssConfig {
                early_stop: false,
                ..base
            },
        );
        let bridge_with = edge_prob(&g, &with, 2, 3);
        let bridge_without = edge_prob(&g, &without, 2, 3);
        assert!(bridge_with <= bridge_without + 0.05);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let g = two_cliques();
        let serial = rss(&g, &RssConfig::default());
        for threads in [2, 3, 4] {
            let parallel = run_rss(&g, &RssConfig::default(), &WorkerPool::new(threads));
            assert_eq!(
                serial.probabilities, parallel.probabilities,
                "threads={threads}"
            );
            assert_eq!(serial.walks, parallel.walks);
        }
    }

    #[test]
    fn subset_reproduces_full_run_per_edge() {
        // Per-edge seeding: estimating a subset must give exactly the
        // probabilities the full run assigns to those edges.
        let g = two_cliques();
        let config = RssConfig::default();
        let full = rss(&g, &config);
        let subset = [3u32, 0, 4];
        let out = run_rss_subset(&g, &config, &subset, &WorkerPool::new(1));
        for (i, &e) in subset.iter().enumerate() {
            assert_eq!(out.probabilities[i], full.probabilities[e as usize]);
        }
    }

    #[test]
    fn pooled_entry_point_matches_dispatch() {
        // Forced-parallel dispatch fans edge chunks out as pool jobs; the
        // result must equal the inline run bit for bit.
        let g = two_cliques();
        let config = RssConfig::default();
        let pool = WorkerPool::with_policy(3, er_pool::DispatchPolicy::always_parallel());
        let pooled = run_rss(&g, &config, &pool);
        assert_eq!(pooled.probabilities, rss(&g, &config).probabilities);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        let g = two_cliques();
        rss(
            &g,
            &RssConfig {
                alpha: 0.0,
                ..Default::default()
            },
        );
    }
}
