//! ITER — Iterative Term-Entity Ranking (§V, Algorithm 1).
//!
//! On the bipartite graph between terms and record-pair nodes, ITER
//! alternates two propagation rules until the term weights converge:
//!
//! * pair update (Eq. 7): `s(ri, rj) ← Σ_{t ∈ ri ∧ t ∈ rj} x_t`
//! * term update (Eq. 6): `x_t ← Σ_{(ri,rj) ∋ t} p(ri, rj) · s(ri, rj) / P_t`
//!
//! followed by the normalization `x_t ← 1 / (1 + 1/x_t)` (line 7). The
//! `P_t` denominator is the decisive difference from PageRank-style
//! propagation: it dilutes common terms by the number of pairs they touch,
//! which is exactly what makes `x_t` estimate discrimination power rather
//! than hub centrality (§V-C).
//!
//! The matching probability `p(ri, rj)` enters as the bipartite edge
//! weight — uniform 1 on the first fusion round, CliqueRank's output on
//! later rounds.
//!
//! # Parallelism and determinism
//!
//! Both propagation rules are elementwise: each pair similarity depends
//! only on the previous term weights, and each term weight only on the
//! fresh similarities. The parallel path therefore splits the output
//! vectors into disjoint CSR ranges — one pool job per range — while the
//! scalar reductions (L2 norm, convergence delta) stay serial, so every
//! thread count produces bit-identical weights. The two iteration
//! vectors (`x`, `new_x`) are allocated once and swapped per iteration
//! instead of reallocating `new_x` every pass.

use std::mem;

use er_graph::BipartiteGraph;
use er_pool::WorkerPool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{IterConfig, Normalization};

/// Minimum terms/pairs per pool job; below this, scheduling overhead
/// exceeds the loop body.
const MIN_CHUNK: usize = 512;

/// Reusable buffers for [`run_iter_into`].
///
/// An ITER run needs four working vectors (`x`, `new_x`, `s`, `deltas`).
/// Three of them leave the run inside the [`IterOutcome`]; the scratch
/// keeps the fourth, and [`IterScratch::recycle`] puts a consumed
/// outcome's vectors back. A caller that recycles the previous round's
/// outcome before the next run (as the fusion loop does) therefore runs
/// every ITER sweep after the first with zero steady-state allocations.
#[derive(Debug, Default)]
pub struct IterScratch {
    x: Vec<f64>,
    new_x: Vec<f64>,
    s: Vec<f64>,
    deltas: Vec<f64>,
}

impl IterScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a consumed outcome's vectors to the scratch so the next
    /// run reuses their capacity.
    pub fn recycle(&mut self, outcome: IterOutcome) {
        self.x = outcome.term_weights;
        self.s = outcome.pair_similarities;
        self.deltas = outcome.deltas;
    }
}

/// Result of one ITER run.
#[derive(Debug, Clone)]
pub struct IterOutcome {
    /// Learned discrimination power `x_t` per term (0 for terms with no
    /// incident pair, i.e. `P_t = 0`). Normalized into `(0, 1)`.
    pub term_weights: Vec<f64>,
    /// Learned similarity `s(ri, rj)` per pair node, aligned with
    /// [`BipartiteGraph::pairs`].
    pub pair_similarities: Vec<f64>,
    /// Iterations executed before convergence (or the cap).
    pub iterations: usize,
    /// Per-iteration L1 change of the term-weight vector — the trace
    /// behind Figure 5.
    pub deltas: Vec<f64>,
    /// True when the tolerance was reached before the iteration cap.
    pub converged: bool,
}

/// Runs ITER on the caller's worker pool.
///
/// * `graph` — the term ↔ pair bipartite graph.
/// * `edge_prob` — `p(ri, rj)` per pair node (the edge weight shared by
///   all edges incident to that pair node), aligned with
///   [`BipartiteGraph::pairs`]. Pass all-ones for the first fusion round.
///
/// A 1-thread pool runs every sweep inline; any other pool produces
/// bit-identical weights.
///
/// # Panics
/// If `edge_prob` is not aligned with the graph's pair nodes, or contains
/// values outside `[0, 1]`.
pub fn run_iter(
    graph: &BipartiteGraph,
    edge_prob: &[f64],
    config: &IterConfig,
    pool: &WorkerPool,
) -> IterOutcome {
    run_iter_into(graph, edge_prob, config, pool, &mut IterScratch::default())
}

/// [`run_iter`] on caller-owned scratch buffers — the zero-allocation
/// entry point for repeated runs.
pub fn run_iter_into(
    graph: &BipartiteGraph,
    edge_prob: &[f64],
    config: &IterConfig,
    pool: &WorkerPool,
    scratch: &mut IterScratch,
) -> IterOutcome {
    assert_eq!(
        edge_prob.len(),
        graph.pair_count(),
        "edge_prob must hold one probability per pair node"
    );
    for (i, &p) in edge_prob.iter().enumerate() {
        assert!((0.0..=1.0).contains(&p), "p out of [0,1] for pair {i}: {p}");
    }
    let n_terms = graph.term_count();
    let n_pairs = graph.pair_count();

    // One dispatch decision per run: both sweep halves walk every
    // (term, pair) edge, so the posting count estimates the per-sweep
    // work. Below the cutover the pool is dropped here and the whole
    // loop — sweeps and double-buffer swaps — runs inline with zero
    // coordination (restaurant/cora-sized graphs lost more to scope
    // bookkeeping per iteration than the chunks earned back).
    let pool = Some(pool).filter(|p| p.dispatch(graph.edge_count()).is_parallel());

    // Line 1: random initialization of x_t in (0, 1). Terms with P_t = 0
    // never receive mass and stay 0. The working vectors come from the
    // scratch so repeat runs reuse their capacity.
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut x = mem::take(&mut scratch.x);
    x.clear();
    x.extend((0..n_terms).map(|t| {
        if graph.pt(t as u32) == 0 {
            0.0
        } else {
            rng.random_range(0.01..1.0)
        }
    }));

    let mut s = mem::take(&mut scratch.s);
    s.clear();
    s.resize(n_pairs, 0.0);
    // Double buffer for the term weights: swapped with `x` each
    // iteration instead of allocating a fresh vector per pass.
    let mut new_x = mem::take(&mut scratch.new_x);
    new_x.clear();
    new_x.resize(n_terms, 0.0);
    let mut deltas = mem::take(&mut scratch.deltas);
    deltas.clear();
    let mut converged = false;
    let mut iterations = 0;

    while iterations < config.max_iterations {
        iterations += 1;
        let _sweep = er_obs::span("sweep");
        // Line 3–4: pair similarities from current term weights.
        update_similarities(graph, &x, &mut s, pool);
        // Line 5–7: term weights from pair similarities, then normalize.
        // The convergence delta is measured on the *normalized* weights —
        // those are what the fixed point is defined over.
        update_terms(graph, edge_prob, &s, config.normalization, &mut new_x, pool);
        if config.normalization == Normalization::L2 {
            let norm: f64 = new_x.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm > 0.0 {
                for v in &mut new_x {
                    *v /= norm;
                }
            }
        }
        let delta: f64 = x
            .iter()
            .zip(&new_x)
            .map(|(old, new)| (old - new).abs())
            .sum();
        mem::swap(&mut x, &mut new_x);
        deltas.push(delta);
        if delta < config.tolerance {
            converged = true;
            break;
        }
    }
    // Final similarities from the converged weights, so callers see a
    // consistent (x, s) fixed-point pair.
    update_similarities(graph, &x, &mut s, pool);

    // `x`, `s`, `deltas` leave inside the outcome (and come back via
    // `IterScratch::recycle`); the spare double buffer stays here.
    scratch.new_x = new_x;
    IterOutcome {
        term_weights: x,
        pair_similarities: s,
        iterations,
        deltas,
        converged,
    }
}

/// Pair update (Eq. 7) over pair range `p_start..p_start + out.len()`,
/// writing into the matching slice of the similarity vector.
// er-lint: zero-alloc
fn similarities_range(graph: &BipartiteGraph, x: &[f64], out: &mut [f64], p_start: u32) {
    for (i, slot) in out.iter_mut().enumerate() {
        let p = p_start + i as u32;
        *slot = graph.terms_of_pair(p).iter().map(|&t| x[t as usize]).sum();
    }
}

fn update_similarities(
    graph: &BipartiteGraph,
    x: &[f64],
    s: &mut [f64],
    pool: Option<&WorkerPool>,
) {
    match pool {
        Some(pool) if s.len() >= 2 * MIN_CHUNK => {
            let ranges = er_pool::chunk_ranges(s.len(), pool.threads() * 4, MIN_CHUNK);
            // er-lint: allow(dispatch) -- pool param is pre-gated by the per-run dispatch decision in `run_iter_into`
            pool.scope(|scope| {
                let mut rest: &mut [f64] = s;
                for range in ranges {
                    let (chunk, tail) = rest.split_at_mut(range.len());
                    rest = tail;
                    scope.submit(move || similarities_range(graph, x, chunk, range.start as u32));
                }
            });
        }
        _ => similarities_range(graph, x, s, 0),
    }
}

/// Term update + normalization (Eq. 6, line 7) over term range
/// `t_start..t_start + out.len()`. Every slot is written (terms with
/// `P_t = 0` get 0), so the swapped-in buffer needs no clearing.
fn terms_range(
    graph: &BipartiteGraph,
    edge_prob: &[f64],
    s: &[f64],
    normalization: Normalization,
    out: &mut [f64],
    t_start: u32,
) {
    for (i, slot) in out.iter_mut().enumerate() {
        let t = t_start + i as u32;
        let pt = graph.pt(t);
        if pt == 0 {
            *slot = 0.0;
            continue;
        }
        let mut acc = 0.0;
        for &p in graph.pairs_of_term(t) {
            acc += edge_prob[p as usize] * s[p as usize];
        }
        let raw = acc / pt as f64;
        *slot = match normalization {
            // 1/(1 + 1/x) = x/(1+x); continuous at 0.
            Normalization::Reciprocal => raw / (1.0 + raw),
            Normalization::L2 => raw, // normalized by the caller
        };
    }
}

fn update_terms(
    graph: &BipartiteGraph,
    edge_prob: &[f64],
    s: &[f64],
    normalization: Normalization,
    new_x: &mut [f64],
    pool: Option<&WorkerPool>,
) {
    match pool {
        Some(pool) if new_x.len() >= 2 * MIN_CHUNK => {
            let ranges = er_pool::chunk_ranges(new_x.len(), pool.threads() * 4, MIN_CHUNK);
            // er-lint: allow(dispatch) -- pool param is pre-gated by the per-run dispatch decision in `run_iter_into`
            pool.scope(|scope| {
                let mut rest: &mut [f64] = new_x;
                for range in ranges {
                    let (chunk, tail) = rest.split_at_mut(range.len());
                    rest = tail;
                    scope.submit(move || {
                        terms_range(
                            graph,
                            edge_prob,
                            s,
                            normalization,
                            chunk,
                            range.start as u32,
                        );
                    });
                }
            });
        }
        _ => terms_range(graph, edge_prob, s, normalization, new_x, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::BipartiteGraphBuilder;

    /// Term 0 ("model code"): appears only in the matching pair (0, 1).
    /// Term 1 ("common word"): appears in records 0..4, so in 6 pairs
    /// among {0,1,2,3}, most of which do not match.
    fn discriminative_vs_common() -> BipartiteGraph {
        BipartiteGraphBuilder::new(4, 2)
            .postings(0, &[0, 1])
            .postings(1, &[0, 1, 2, 3])
            .build()
    }

    fn uniform_prob(graph: &BipartiteGraph) -> Vec<f64> {
        vec![1.0; graph.pair_count()]
    }

    /// ITER on a 1-thread pool: every sweep runs inline.
    fn run(graph: &BipartiteGraph, edge_prob: &[f64], config: &IterConfig) -> IterOutcome {
        run_iter(graph, edge_prob, config, &WorkerPool::new(1))
    }

    #[test]
    fn discriminative_term_outranks_common_term() {
        let g = discriminative_vs_common();
        let out = run(&g, &uniform_prob(&g), &IterConfig::default());
        assert!(out.converged, "should converge: deltas {:?}", out.deltas);
        assert!(
            out.term_weights[0] > out.term_weights[1],
            "model code {} must outweigh common word {}",
            out.term_weights[0],
            out.term_weights[1]
        );
    }

    #[test]
    fn pair_sharing_more_terms_scores_higher() {
        // Pair (0,1) shares both terms; (2,3) shares only the common term.
        let g = discriminative_vs_common();
        let out = run(&g, &uniform_prob(&g), &IterConfig::default());
        let p01 = g.pair_id(0, 1).unwrap() as usize;
        let p23 = g.pair_id(2, 3).unwrap() as usize;
        assert!(out.pair_similarities[p01] > out.pair_similarities[p23]);
    }

    #[test]
    fn weights_in_unit_interval() {
        let g = discriminative_vs_common();
        let out = run(&g, &uniform_prob(&g), &IterConfig::default());
        for (t, &w) in out.term_weights.iter().enumerate() {
            assert!((0.0..1.0).contains(&w), "term {t}: {w}");
        }
    }

    #[test]
    fn converges_independently_of_seed() {
        let g = discriminative_vs_common();
        let mut results = Vec::new();
        for seed in [1, 42, 123456] {
            let cfg = IterConfig {
                seed,
                ..Default::default()
            };
            let out = run(&g, &uniform_prob(&g), &cfg);
            assert!(out.converged);
            results.push(out.term_weights);
        }
        // Algorithm 1's fixed point is the principal eigenvector direction
        // (Theorem 1) — independent of the random start.
        for w in &results[1..] {
            for (a, b) in results[0].iter().zip(w) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn low_probability_edges_suppress_term_weight() {
        let g = discriminative_vs_common();
        // Tell ITER that the pairs sharing the common term do not match
        // (p = 0), except the true pair (0, 1).
        let mut prob = vec![0.0; g.pair_count()];
        prob[g.pair_id(0, 1).unwrap() as usize] = 1.0;
        let out = run(&g, &prob, &IterConfig::default());
        let uniform = run(&g, &uniform_prob(&g), &IterConfig::default());
        // Common term is further demoted relative to the discriminative one.
        let ratio_fed = out.term_weights[1] / out.term_weights[0];
        let ratio_uniform = uniform.term_weights[1] / uniform.term_weights[0];
        assert!(
            ratio_fed < ratio_uniform,
            "feedback must demote the common term: {ratio_fed} vs {ratio_uniform}"
        );
    }

    #[test]
    fn zero_probability_isolates_pairs() {
        let g = discriminative_vs_common();
        let out = run(&g, &vec![0.0; g.pair_count()], &IterConfig::default());
        // No mass ever flows back to terms: all weights collapse to 0.
        assert!(out.term_weights.iter().all(|&w| w == 0.0));
    }

    #[test]
    fn deltas_trace_matches_iterations() {
        let g = discriminative_vs_common();
        let out = run(&g, &uniform_prob(&g), &IterConfig::default());
        assert_eq!(out.deltas.len(), out.iterations);
        // Monotone-ish decay: final delta below the first.
        assert!(out.deltas.last().unwrap() < out.deltas.first().unwrap());
    }

    #[test]
    fn l2_normalization_also_converges() {
        let g = discriminative_vs_common();
        let cfg = IterConfig {
            normalization: Normalization::L2,
            ..Default::default()
        };
        let out = run(&g, &uniform_prob(&g), &cfg);
        assert!(out.converged);
        let norm: f64 = out.term_weights.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
        assert!(out.term_weights[0] > out.term_weights[1]);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraphBuilder::new(0, 0).build();
        let out = run(&g, &[], &IterConfig::default());
        assert!(out.term_weights.is_empty());
        assert!(out.pair_similarities.is_empty());
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // Large enough that the parallel path actually chunks the term
        // update (> 2 × MIN_CHUNK terms).
        let n_terms = 2 * MIN_CHUNK + 77;
        let n_records = 40u32;
        let mut state = 0x5eed_u64;
        let posting_store: Vec<[u32; 2]> = (0..n_terms)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = ((state >> 33) % n_records as u64) as u32;
                let b = (a + 1 + ((state >> 13) % (n_records as u64 - 1)) as u32) % n_records;
                [a.min(b), a.max(b)]
            })
            .collect();
        let mut builder = BipartiteGraphBuilder::new(n_records as usize, n_terms);
        for (t, post) in posting_store.iter().enumerate() {
            builder = builder.postings(t as u32, post);
        }
        let g = builder.build();
        let prob = uniform_prob(&g);
        let serial = run(&g, &prob, &IterConfig::default());
        for threads in [2, 4] {
            let pool = WorkerPool::with_policy(threads, er_pool::DispatchPolicy::always_parallel());
            let parallel = run_iter(&g, &prob, &IterConfig::default(), &pool);
            assert_eq!(
                serial.term_weights, parallel.term_weights,
                "threads={threads}"
            );
            assert_eq!(serial.pair_similarities, parallel.pair_similarities);
            assert_eq!(serial.iterations, parallel.iterations);
            assert_eq!(serial.deltas, parallel.deltas);
        }
    }

    #[test]
    #[should_panic(expected = "one probability per pair")]
    fn misaligned_probabilities_rejected() {
        let g = discriminative_vs_common();
        run(&g, &[1.0], &IterConfig::default());
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn out_of_range_probability_rejected() {
        let g = discriminative_vs_common();
        run(&g, &vec![1.5; g.pair_count()], &IterConfig::default());
    }
}
