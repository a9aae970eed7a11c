//! CliqueRank — matrix-form reachability probabilities (§VI-C).
//!
//! CliqueRank computes what RSS samples: the probability that a rectified
//! random walk starting at `ri` reaches `rj` within `S` steps. All
//! matrices are built from the non-linearly normalized edge powers of
//! Eq. 11 (`a_ij ∝ s(ri, rj)^α`).
//!
//! # Recurrences
//!
//! [`Recurrence::FirstPassage`](crate::Recurrence::FirstPassage) is the
//! exact matrix transcription of RSS's walk. In RSS, each step toward
//! target `j` renormalizes the whole row with the boosted target entry
//! (Eq. 12):
//!
//! ```text
//! P(step v→j)     = β·a_vj / (β·a_vj + rowsum_v − a_vj)   =: H[v,j]
//! P(step v→u), u≠j = a_vu  / (β·a_vj + rowsum_v − a_vj)   = Mt[v,u]·C[v,j]
//! ```
//!
//! with `C[v,j] = rowsum_v / (β·a_vj + rowsum_v − a_vj)` the continuation
//! scale. Since the per-step bonus `b ~ U(0,1)` is independent across
//! steps, the expectation of a walk's success factorizes over steps, so
//! averaging `H` and `C` over `b` (midpoint quadrature) gives the exact
//! expected-walk probabilities. The within-`S`-steps first-passage matrix
//! then satisfies
//!
//! ```text
//! G¹ = H,    G^k = H + C ⊙ (Mt × (G^{k−1} ⊙ Mn))
//! ```
//!
//! where the `⊙ Mn` mask (1 exactly on edges) zeroes the continuation
//! through nodes not adjacent to the target — RSS's early stop. Every
//! entry is a genuine probability (≤ 1) and `p(ri, rj) =
//! (G^S[i,j] + G^S[j,i]) / 2` needs no clamping.
//!
//! [`Recurrence::PaperEq15`](crate::Recurrence::PaperEq15) (default) is
//! the paper's literal formulation (`M¹ = Mb`,
//! `M^k = Mt × (M^{k−1} ⊙ Mn)`, `p = Σ_k …`), the one that
//! reproduces its Table II: it boosts only the hop entering the target
//! and uses the unboosted `Mt` elsewhere, so rows whose edges are all
//! weak-but-equal over-count and need clamping (see the first-passage
//! row of the `ablation_components` bench and DESIGN.md §3.3).
//!
//! # Block decomposition and kernels
//!
//! Walks never leave the connected component they start in, so all
//! matrices are block-diagonal under a component permutation. The solver
//! runs the recurrence **per connected component** — exact, and far
//! cheaper than one n × n product on sparse record graphs — over the
//! component's edge set: the adjacency, or every ordered pair with the
//! neighbor mask off. One builder, one recurrence driver and one
//! write-out serve both kernels ([`crate::sparse_kernel`]), which differ
//! only in how a step forms `Mt × M`: a column gather at `Σ_i deg(i)²`
//! multiply-adds, or a packed GEMM at `nc³`. `component_cost` picks one
//! per component, and both stop early once a step changes nothing. A
//! masked two-record component needs neither: its walk saturates, and
//! `p = 1.0` is exactly what the solve would compute.

use std::cmp::Reverse;

use er_graph::{bipartite::PairNode, ComponentLabels, RecordGraph};
use er_matrix::{MatrixArena, PackScratch};
use er_pool::{ScratchSlot, WorkerPool};

use crate::config::{BoostMode, CliqueRankConfig, Kernel};
use crate::sparse_kernel::{sparse_step_cost, Product, SparseScratch};

/// Reusable working memory for the CliqueRank component solver.
///
/// One scratch serves a *stream* of components on one thread: the edge
/// set's CSR and per-edge vectors are rebuilt in place, the gather
/// reuses its column buffers, the GEMM step draws its three operands
/// from the size-bucketed [`MatrixArena`] and the packed matmul reuses
/// [`PackScratch`] — so after the first component of each size bucket,
/// solving allocates nothing (see `tests/zero_alloc.rs` at the
/// workspace root). Parallel component scheduling checks one out per
/// pool job via [`er_pool::ScratchSlot`].
#[derive(Debug, Default)]
pub struct CliqueScratch {
    arena: MatrixArena,
    pack: PackScratch,
    /// The bonus factors of a [`solve_component_into`] call; a
    /// [`run_cliquerank`] run computes its factors once and lends them
    /// to every solve instead.
    bonus: Vec<f64>,
    /// The gather's dense column buffers: `nc` doubles per row band (one
    /// band for a serial step), all `+0.0` between rows.
    cols: Vec<f64>,
    edges: SparseScratch,
}

/// Runs CliqueRank on the caller's worker pool; returns the matching
/// probability per edge, aligned with [`RecordGraph::pairs`].
///
/// A two-record component under the neighbor mask is decided in closed
/// form: its edge gets `p = 1.0`, exactly what the solve would compute,
/// with no solve (DESIGN.md §3.3). Every other component of two or more
/// records is solved with fresh scratch, through one cost-ordered
/// scheduler whatever the pool: below the pool's dispatch cutover every
/// component is solved inline; above it, components too
/// big for a fair per-worker share run largest-first on the caller
/// thread with the pool parallelizing *inside* the recurrence (pooled
/// GEMM row strips / sparse CSR row ranges), and the rest fan out as
/// per-worker chunks. Components are independent and every kernel is
/// deterministic, so the output is bit-identical at any thread count.
pub fn run_cliquerank(
    graph: &RecordGraph,
    config: &CliqueRankConfig,
    pool: &WorkerPool,
) -> Vec<f64> {
    if let Err(e) = config.validate() {
        panic!("{e}"); // er-lint: allow(panic) -- an invalid config is a caller bug; `validate` checks it up front
    }
    let comps = graph.components();
    let mut out = vec![0.0f64; graph.pairs().len()];
    let mut general = Vec::new();
    let pair_components = split_components(graph, &comps, config, &mut general, &mut out);
    er_obs::counter_add(
        "cliquerank_components_total",
        (general.len() + pair_components) as u64,
    );
    er_obs::counter_add("cliquerank_pair_components_total", pair_components as u64);
    let largest = comps.largest();
    er_obs::gauge_set(
        "cliquerank_largest_component",
        if largest >= 2 { largest as f64 } else { 0.0 },
    );
    // The `(1 + b)^α` factors depend on the config alone: one set serves
    // every component of the run.
    let mut bonus = Vec::new();
    bonus_samples_into(config, &mut bonus);
    let mut scratch = CliqueScratch::default();
    solve_components(
        graph,
        &comps,
        &general,
        config,
        &bonus,
        pool,
        &mut out,
        &mut scratch,
    );
    out
}

/// Whether a component is decided in closed form: two records under the
/// neighbor mask.
///
/// Such a component's walk saturates at `p = 1` whatever its weight
/// (§VI-B), and the general solve computes exactly `1.0`. Each record's
/// one weight scales to `w / 2w = 0.5` (halved first past
/// `f64::MAX / 2`, which gives the same `0.5`), so `a = 0.5^α`,
/// positive for `α < 1024`, and `rest = a − a = 0`. Every bonus sample
/// then gives `H = (β·a) / (β·a) = 1.0` in both directions, and `Mt` is
/// `a / a = 1.0`. The first product pairs each edge only with the
/// diagonal, which the mask zeroes, so it is all zero under either
/// kernel: Eq. 15 stops with the sum at `H`, first passage at the fixed
/// point `H + C · 0 = H`. The write-out gives `0.5 · (1 + 1) = 1.0`,
/// clamped or not. With the mask off the general solve runs.
fn in_closed_form(members: &[u32], config: &CliqueRankConfig) -> bool {
    config.neighbor_mask && members.len() == 2
}

/// The per-component pass of [`run_cliquerank`]: writes `p = 1.0` for
/// the edge of every component decided in closed form
/// ([`in_closed_form`]) and lists every other component of two or more
/// records in `general`, in id order. Returns the number decided in
/// closed form. A two-record component has exactly one edge, so the
/// closed form reads each edge's component straight from the labels
/// instead of searching the pair list. Every other component holds at
/// least one of the remaining edges, so `general` is reserved once to
/// that count and the component loop never grows it.
// er-lint: zero-alloc
fn split_components(
    graph: &RecordGraph,
    comps: &ComponentLabels,
    config: &CliqueRankConfig,
    general: &mut Vec<u32>,
    out: &mut [f64],
) -> usize {
    let mut closed = 0;
    for (slot, pair) in out.iter_mut().zip(graph.pairs()) {
        let c = comps.label[pair.a as usize] as usize;
        if in_closed_form(comps.members(c), config) {
            *slot = 1.0;
            closed += 1;
        }
    }
    general.reserve(graph.pairs().len() - closed);
    for (c, members) in comps.iter().enumerate() {
        if members.len() >= 2 && !in_closed_form(members, config) {
            general.push(c as u32);
        }
    }
    closed
}

/// Kernel choice and estimated solve cost of one component.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ComponentCost {
    /// Step with the column gather rather than the packed GEMM.
    pub(crate) sparse: bool,
    /// Estimated elementary operations of the whole recurrence.
    pub(crate) work: usize,
}

/// Picks one component's kernel and prices its solve — the estimate the
/// dispatch decision, the scheduler and [`solve_component`] all read.
///
/// With the neighbor mask on, [`Kernel::Auto`] picks the column gather
/// when its per-step cost, `Σ_i deg(i)²` multiply-adds, times 16 is
/// below the GEMM's `nc³`; with it off, every component takes the GEMM.
/// The 16 is the old 8× credit for the GEMM's vectorized inner loop
/// against the two-pointer merge's `2 Σ_i deg(i)²` steps, kept so the
/// cutover does not move: the two steps agree bit for bit only below
/// `KC` = 256 records (past it the GEMM sums in `KC` panels), so moving
/// it could move bits. The work is the chosen kernel's per-step cost
/// times the step count.
// er-lint: zero-alloc
fn component_cost(
    graph: &RecordGraph,
    members: &[u32],
    config: &CliqueRankConfig,
) -> ComponentCost {
    let nc = members.len();
    let dense = nc * nc * nc;
    let sparse_step = (config.neighbor_mask && config.kernel != Kernel::Dense)
        .then(|| sparse_step_cost(graph, members));
    let sparse = match (config.kernel, sparse_step) {
        (_, None) => false,
        (Kernel::Sparse, Some(_)) => true,
        (_, Some(step)) => step.saturating_mul(16) < dense,
    };
    let per_step = match sparse_step {
        Some(step) if sparse => step,
        _ => dense / 8,
    };
    ComponentCost {
        sparse,
        work: per_step.saturating_mul(config.steps.max(1)),
    }
}

/// The component scheduler: solves the components of `comps` listed in
/// `ids` into `out` with the run's bonus factors `bonus`, with `scratch`
/// serving the caller thread's solves.
#[allow(clippy::too_many_arguments)]
fn solve_components(
    graph: &RecordGraph,
    comps: &ComponentLabels,
    ids: &[u32],
    config: &CliqueRankConfig,
    bonus: &[f64],
    pool: &WorkerPool,
    out: &mut [f64],
    scratch: &mut CliqueScratch,
) {
    let members = |i: usize| comps.members(ids[i] as usize);
    let costs: Vec<ComponentCost> = (0..ids.len())
        .map(|i| component_cost(graph, members(i), config))
        .collect();
    let total_cost = costs.iter().fold(0usize, |s, c| s.saturating_add(c.work));
    let mut local_of = vec![u32::MAX; graph.node_count()];
    if !pool.dispatch(total_cost).is_parallel() {
        for (i, &cost) in costs.iter().enumerate() {
            solve_mapped(
                graph,
                members(i),
                cost,
                &mut local_of,
                config,
                bonus,
                None,
                out,
                scratch,
            );
        }
        return;
    }

    // Descending-cost order; the stable sort keeps equal costs in
    // original order, so the schedule is deterministic. A component is
    // "big" when it exceeds a fair per-worker share of the phase — with
    // component-level chunking it would straddle the phase's critical
    // path — and is itself past the dispatch cutover.
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by_key(|&i| Reverse(costs[i].work));
    let serial_below = pool.policy().serial_below;
    let is_big = |i: usize| {
        let c = costs[i].work;
        c.saturating_mul(pool.threads()) > total_cost && c >= serial_below
    };
    let (big, small) = order.split_at(order.partition_point(|&i| is_big(i)));
    if !big.is_empty() {
        er_obs::counter_add("cliquerank_intra_parallel_solves_total", big.len() as u64);
    }
    for &i in big {
        let _span = er_obs::span("component_large");
        solve_mapped(
            graph,
            members(i),
            costs[i],
            &mut local_of,
            config,
            bonus,
            Some(pool),
            out,
            scratch,
        );
    }
    if small.is_empty() {
        return;
    }

    // Small components fan out round-robin in descending-cost order (for
    // rough load balance). Their solves get no pool — parallelism lives
    // at the component level here, and nested pooled products would
    // only fight the component jobs for the same workers. Each job
    // checks out a per-worker scratch, so a worker's whole component
    // stream reuses the same grown buffers.
    let workers = pool.threads().clamp(1, small.len());
    let mut chunks: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for (pos, &i) in small.iter().enumerate() {
        chunks[pos % workers].push(i);
    }
    let mut results: Vec<Vec<(usize, f64)>> = vec![Vec::new(); workers];
    let scratch_slot: ScratchSlot<CliqueScratch> = ScratchSlot::new();
    pool.scope(|s| {
        for (chunk, result) in chunks.iter().zip(results.iter_mut()) {
            let (costs, scratch_slot, members) = (&costs, &scratch_slot, &members);
            s.submit(move || {
                let mut scratch = scratch_slot.checkout();
                let mut local_out = vec![0.0f64; graph.pairs().len()];
                let mut local_of = vec![u32::MAX; graph.node_count()];
                let mut edges = Vec::new();
                for &i in chunk {
                    solve_mapped(
                        graph,
                        members(i),
                        costs[i],
                        &mut local_of,
                        config,
                        bonus,
                        None,
                        &mut local_out,
                        &mut scratch,
                    );
                    component_edges_into(graph, members(i), &mut edges);
                }
                *result = edges.into_iter().map(|idx| (idx, local_out[idx])).collect();
            });
        }
    });
    for (idx, p) in results.into_iter().flatten() {
        out[idx] = p;
    }
}

/// Position of the record-graph edge `(a, b)` in [`RecordGraph::pairs`].
pub(crate) fn pair_index(graph: &RecordGraph, a: u32, b: u32) -> usize {
    graph
        .pairs()
        .binary_search(&PairNode::new(a, b))
        .expect("edge must correspond to a retained pair") // er-lint: allow(panic) -- every graph edge comes from the retained pair universe
}

/// Appends the positions in [`RecordGraph::pairs`] of one component's
/// edges to `edges`, in ascending order.
fn component_edges_into(graph: &RecordGraph, members: &[u32], edges: &mut Vec<usize>) {
    for &g in members {
        for &nb in graph.neighbors(g).0 {
            if nb > g {
                edges.push(pair_index(graph, g, nb));
            }
        }
    }
}

/// [`solve_component`] with `members` mapped to their local ids in
/// `local_of` (all `u32::MAX` before and after) for the solve.
#[allow(clippy::too_many_arguments)]
fn solve_mapped(
    graph: &RecordGraph,
    members: &[u32],
    cost: ComponentCost,
    local_of: &mut [u32],
    config: &CliqueRankConfig,
    bonus: &[f64],
    pool: Option<&WorkerPool>,
    out: &mut [f64],
    scratch: &mut CliqueScratch,
) {
    for (li, &g) in members.iter().enumerate() {
        local_of[g as usize] = li as u32;
    }
    solve_component(
        graph, members, local_of, cost, config, bonus, pool, out, scratch,
    );
    for &g in members {
        local_of[g as usize] = u32::MAX;
    }
}

/// Solves one connected component serially on caller-owned scratch,
/// writing the symmetrized edge probabilities into `out` (indexed by
/// [`RecordGraph::pairs`] position). `members` must be one of
/// the graph's connected components and `local_of[g]` its local index
/// for each member `g` (`u32::MAX` elsewhere).
///
/// After one warm-up solve per component-size bucket, repeated calls
/// through the same `scratch` perform **zero allocations** — the
/// contract pinned by `tests/zero_alloc.rs`.
pub fn solve_component_into(
    graph: &RecordGraph,
    members: &[u32],
    local_of: &[u32],
    config: &CliqueRankConfig,
    out: &mut [f64],
    scratch: &mut CliqueScratch,
) {
    let cost = component_cost(graph, members, config);
    let mut bonus = std::mem::take(&mut scratch.bonus);
    bonus_samples_into(config, &mut bonus);
    solve_component(
        graph, members, local_of, cost, config, &bonus, None, out, scratch,
    );
    scratch.bonus = bonus;
}

/// Solves one connected component with the kernel `cost` picked and the
/// bonus factors `bonus` ([`bonus_samples_into`]), writing edge
/// probabilities into `out`, and returns the recurrence steps run. The
/// edge set, the coefficients, the recurrence and the write-out are the
/// same for both kernels; only the step's product differs (see
/// [`crate::sparse_kernel`]). `pool`, when given, runs the steps in
/// parallel past its dispatch cutover.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_component(
    graph: &RecordGraph,
    members: &[u32],
    local_of: &[u32],
    cost: ComponentCost,
    config: &CliqueRankConfig,
    bonus: &[f64],
    pool: Option<&WorkerPool>,
    out: &mut [f64],
    scratch: &mut CliqueScratch,
) -> usize {
    let CliqueScratch {
        arena,
        pack,
        bonus: _,
        cols,
        edges,
    } = scratch;
    edges.build(
        graph,
        members,
        local_of,
        config.alpha,
        bonus,
        config.neighbor_mask,
    );
    let mut product = if cost.sparse {
        er_obs::counter_add("cliquerank_sparse_solves_total", 1);
        // The gather steps fan out only when the whole recurrence is
        // worth the coordination.
        let pool = pool.filter(|p| p.dispatch(cost.work).is_parallel());
        Product::gather(edges, pool, cols)
    } else {
        er_obs::counter_add("cliquerank_dense_solves_total", 1);
        Product::gemm(edges, arena, pool, pack)
    };
    let steps_run = edges.recur(config, &mut product);
    product.recycle(arena);
    if cost.sparse {
        er_obs::counter_add("cliquerank_sparse_steps_total", steps_run as u64);
        er_obs::counter_add(
            "cliquerank_gather_terms_total",
            (steps_run * sparse_step_cost(graph, members)) as u64,
        );
    }
    edges.write_out(graph, members, local_of, config, out);
    steps_run
}

/// The `(1 + b)^α` bonus factors the boosted matrices average over,
/// written into a reusable buffer.
pub(crate) fn bonus_samples_into(config: &CliqueRankConfig, out: &mut Vec<f64>) {
    out.clear();
    match config.boost {
        BoostMode::Off => out.push(1.0),
        BoostMode::Fixed(b) => {
            assert!((0.0..=1.0).contains(&b), "bonus b must be in [0, 1]");
            out.push((1.0 + b).powf(config.alpha));
        }
        BoostMode::Expected { quadrature_points } => {
            assert!(quadrature_points >= 1, "need at least one quadrature point");
            for m in 0..quadrature_points {
                let b = (m as f64 + 0.5) / quadrature_points as f64;
                out.push((1.0 + b).powf(config.alpha));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CliqueRankConfig, Recurrence};
    use er_pool::DispatchPolicy;
    use proptest::prelude::*;

    fn pairs(ps: &[(u32, u32)]) -> Vec<PairNode> {
        ps.iter().map(|&(a, b)| PairNode::new(a, b)).collect()
    }

    /// Two tight cliques {0,1,2} and {3,4} joined by a weak bridge 2–3.
    fn two_cliques() -> RecordGraph {
        let p = pairs(&[(0, 1), (0, 2), (1, 2), (3, 4), (2, 3)]);
        let s = [1.0, 1.0, 1.0, 1.0, 0.05];
        RecordGraph::from_pair_scores(5, &p, &s)
    }

    fn edge_prob(g: &RecordGraph, probs: &[f64], a: u32, b: u32) -> f64 {
        let idx = g
            .pairs()
            .iter()
            .position(|p| *p == PairNode::new(a, b))
            .expect("edge present");
        probs[idx]
    }

    fn cfg() -> CliqueRankConfig {
        CliqueRankConfig::default()
    }

    /// CliqueRank on a 1-thread pool.
    fn run(g: &RecordGraph, config: &CliqueRankConfig) -> Vec<f64> {
        run_cliquerank(g, config, &WorkerPool::new(1))
    }

    fn fp_cfg() -> CliqueRankConfig {
        CliqueRankConfig {
            recurrence: Recurrence::FirstPassage,
            ..cfg()
        }
    }

    #[test]
    fn clique_edges_near_one_bridge_near_zero() {
        let g = two_cliques();
        let p = run(&g, &cfg());
        assert!(edge_prob(&g, &p, 0, 1) > 0.9, "{p:?}");
        assert!(edge_prob(&g, &p, 3, 4) > 0.9, "{p:?}");
        assert!(edge_prob(&g, &p, 2, 3) < 0.2, "{p:?}");
    }

    #[test]
    fn first_passage_within_unit_interval_without_clamping() {
        let g = two_cliques();
        let p = run(
            &g,
            &CliqueRankConfig {
                clamp: false,
                ..fp_cfg()
            },
        );
        for &v in &p {
            assert!((0.0..=1.0 + 1e-9).contains(&v), "{v}");
        }
    }

    #[test]
    fn agrees_with_rss_statistically() {
        // First-passage CliqueRank is the exact expectation of RSS — on a
        // small graph with many walks the two must agree within noise.
        let g = two_cliques();
        let cr = run(&g, &fp_cfg());
        let rss = crate::rss::run_rss(
            &g,
            &crate::config::RssConfig {
                walks_per_edge: 4000,
                ..Default::default()
            },
            &WorkerPool::new(1),
        );
        for (i, pair) in g.pairs().iter().enumerate() {
            assert!(
                (cr[i] - rss.probabilities[i]).abs() < 0.06,
                "pair {:?}: cliquerank {} vs rss {}",
                pair,
                cr[i],
                rss.probabilities[i]
            );
        }
    }

    #[test]
    fn noise_record_with_equal_weak_edges_stays_below_threshold() {
        // Node 3 attaches to a 3-clique by three equal weak edges (a
        // record whose only shared term is a common word). The paper's
        // Eq. 15 recursion over-counts here; first passage must keep the
        // symmetrized probability near 0.5 (one direction succeeds via the
        // boost, the other nearly never walks to the noise record).
        let p = pairs(&[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]);
        let s = [1.0, 1.0, 1.0, 0.1, 0.1, 0.1];
        let g = RecordGraph::from_pair_scores(4, &p, &s);
        let probs = run(&g, &fp_cfg());
        for &(a, b) in &[(0u32, 3u32), (1, 3), (2, 3)] {
            let v = edge_prob(&g, &probs, a, b);
            assert!(
                v < 0.75,
                "noise edge ({a},{b}) must stay below threshold: {v}"
            );
        }
        // While the paper's literal recurrence, clamped, saturates them.
        let paper = run(
            &g,
            &CliqueRankConfig {
                recurrence: Recurrence::PaperEq15,
                ..cfg()
            },
        );
        let fp_mean = probs.iter().sum::<f64>() / probs.len() as f64;
        let paper_mean = paper.iter().sum::<f64>() / paper.len() as f64;
        assert!(paper_mean >= fp_mean - 1e-9);
    }

    #[test]
    fn big_clique_needs_boost() {
        // 30-clique with uniform weights and S = 8: the plain walk has
        // ~1/29 chance per step of hitting one specific member.
        let n = 30u32;
        let mut ps = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                ps.push((i, j));
            }
        }
        let pr = pairs(&ps);
        let g = RecordGraph::from_pair_scores(n as usize, &pr, &vec![1.0; pr.len()]);
        let short = CliqueRankConfig { steps: 8, ..cfg() };
        let with = run(&g, &short);
        let without = run(
            &g,
            &CliqueRankConfig {
                boost: BoostMode::Off,
                ..short
            },
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&with) > mean(&without) + 0.3,
            "boost {} vs no boost {}",
            mean(&with),
            mean(&without)
        );
    }

    #[test]
    fn components_are_independent() {
        // Solving two components together or as separate graphs must agree.
        let p_all = pairs(&[(0, 1), (0, 2), (1, 2), (3, 4)]);
        let s_all = [0.9, 0.8, 0.7, 0.6];
        let g_all = RecordGraph::from_pair_scores(5, &p_all, &s_all);
        let got_all = run(&g_all, &cfg());

        let p_a = pairs(&[(0, 1), (0, 2), (1, 2)]);
        let g_a = RecordGraph::from_pair_scores(3, &p_a, &[0.9, 0.8, 0.7]);
        let got_a = run(&g_a, &cfg());
        for (i, pair) in g_a.pairs().iter().enumerate() {
            let full = edge_prob(&g_all, &got_all, pair.a, pair.b);
            assert!((full - got_a[i]).abs() < 1e-12);
        }

        let p_b = pairs(&[(0, 1)]);
        let g_b = RecordGraph::from_pair_scores(2, &p_b, &[0.6]);
        let got_b = run(&g_b, &cfg());
        let full = edge_prob(&g_all, &got_all, 3, 4);
        assert!((full - got_b[0]).abs() < 1e-12);
    }

    #[test]
    fn paper_recurrence_unclamped_can_exceed_one() {
        let p = pairs(&[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]);
        let s = [1.0, 1.0, 1.0, 0.1, 0.1, 0.1];
        let g = RecordGraph::from_pair_scores(4, &p, &s);
        let probs = run(
            &g,
            &CliqueRankConfig {
                recurrence: Recurrence::PaperEq15,
                clamp: false,
                ..cfg()
            },
        );
        assert!(probs.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(
            probs.iter().any(|&v| v > 1.0),
            "Eq. 15 over-counting should be visible unclamped: {probs:?}"
        );
    }

    #[test]
    fn deterministic() {
        let g = two_cliques();
        assert_eq!(run(&g, &cfg()), run(&g, &cfg()));
    }

    #[test]
    fn isolated_nodes_and_empty_graph() {
        let g = RecordGraph::from_pair_scores(3, &[], &[]);
        assert!(run(&g, &cfg()).is_empty());
    }

    #[test]
    fn threaded_matches_single_threaded() {
        let g = two_cliques();
        let single = run(&g, &cfg());
        let multi = run_cliquerank(&g, &cfg(), &WorkerPool::new(4));
        for (a, b) in single.iter().zip(&multi) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// 60 cliques of 12 = 720 members: crosses the parallel threshold.
    fn many_cliques() -> RecordGraph {
        let mut ps = Vec::new();
        let mut scores = Vec::new();
        for c in 0..60u32 {
            let base = c * 12;
            for i in 0..12u32 {
                for j in i + 1..12u32 {
                    ps.push(PairNode::new(base + i, base + j));
                    scores.push(1.0 + (i + j) as f64 * 0.01);
                }
            }
        }
        RecordGraph::from_pair_scores(720, &ps, &scores)
    }

    #[test]
    fn parallel_components_match_serial_on_large_graphs() {
        let g = many_cliques();
        let serial = run(&g, &cfg());
        let parallel = run_cliquerank(&g, &cfg(), &WorkerPool::new(3));
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn pooled_matches_serial_exactly() {
        // Components path (many small cliques) and matmul path (one big
        // component) must both be bit-identical to the serial solve.
        let mut big_ps = Vec::new();
        for i in 0..80u32 {
            for j in i + 1..80u32 {
                big_ps.push(PairNode::new(i, j));
            }
        }
        let big_scores: Vec<f64> = (0..big_ps.len())
            .map(|i| 1.0 + (i % 7) as f64 * 0.02)
            .collect();
        let big = RecordGraph::from_pair_scores(80, &big_ps, &big_scores);
        let pool = WorkerPool::new(3);
        for g in [&many_cliques(), &big] {
            let serial = run(g, &cfg());
            let pooled = run_cliquerank(g, &cfg(), &pool);
            assert_eq!(serial, pooled);
        }
    }

    #[test]
    fn fixed_boost_modes_work() {
        let g = two_cliques();
        for boost in [BoostMode::Fixed(0.0), BoostMode::Fixed(0.5), BoostMode::Off] {
            let p = run(&g, &CliqueRankConfig { boost, ..cfg() });
            assert!(
                p.iter().all(|v| (0.0..=1.0).contains(v)),
                "{boost:?}: {p:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_past_the_finite_range_rejected() {
        // The top quadrature bonus (1 + 15/16)^1074 overflows to
        // infinity, which would make the probabilities NaN.
        run(
            &two_cliques(),
            &CliqueRankConfig {
                alpha: 1074.0,
                ..cfg()
            },
        );
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn infinite_alpha_rejected() {
        run(
            &two_cliques(),
            &CliqueRankConfig {
                alpha: f64::INFINITY,
                ..cfg()
            },
        );
    }

    #[test]
    fn largest_alpha_is_finite_and_equal_on_both_kernels() {
        // α = 1023 with the largest bonus: (1 + 1)^α = 2^1023 is finite
        // and each row's largest weight (1/2)^α = 2^-1023 is nonzero.
        let g = two_cliques();
        for recurrence in [Recurrence::PaperEq15, Recurrence::FirstPassage] {
            let mk = |kernel| CliqueRankConfig {
                alpha: 1023.0,
                boost: BoostMode::Fixed(1.0),
                recurrence,
                kernel,
                ..cfg()
            };
            let dense = run(&g, &mk(Kernel::Dense));
            let sparse = run(&g, &mk(Kernel::Sparse));
            assert!(dense.iter().all(|p| p.is_finite()), "{dense:?}");
            assert_eq!(bits(&dense), bits(&sparse), "{recurrence:?}");
        }
    }

    #[test]
    fn single_step_is_hit_matrix() {
        let g = two_cliques();
        let one = CliqueRankConfig {
            steps: 1,
            clamp: false,
            ..cfg()
        };
        let p = run(&g, &one);
        for &v in &p {
            assert!(v > 0.0 && v <= 1.0);
        }
    }

    /// One component shape of [`mixed_graph`].
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Pair,
        Path(u32),
        Star(u32),
        Triangle,
    }

    impl Shape {
        fn from_code(code: u8, size: u32) -> Self {
            match code {
                0 => Shape::Pair,
                1 => Shape::Path(3 + size),
                2 => Shape::Star(3 + size),
                _ => Shape::Triangle,
            }
        }

        fn nodes(self) -> u32 {
            match self {
                Shape::Pair => 2,
                Shape::Path(n) => n,
                Shape::Star(leaves) => leaves + 1,
                Shape::Triangle => 3,
            }
        }

        /// Edges over local ids `0..nodes()`.
        fn edges(self) -> Vec<(u32, u32)> {
            match self {
                Shape::Pair => vec![(0, 1)],
                Shape::Path(n) => (0..n - 1).map(|i| (i, i + 1)).collect(),
                Shape::Star(leaves) => (1..=leaves).map(|i| (0, i)).collect(),
                Shape::Triangle => vec![(0, 1), (0, 2), (1, 2)],
            }
        }
    }

    /// One weight draw: mostly spread over ten orders of magnitude, some
    /// subnormal, some exactly `f64::MAX / 2` (the largest whose double
    /// is finite) and some past it, up to `f64::MAX`.
    fn weight(code: u8, x: f64) -> f64 {
        match code {
            0 | 1 => f64::MIN_POSITIVE * x.max(1e-15),
            2 => f64::MAX / 2.0,
            3 => f64::MAX * (0.51 + 0.49 * x),
            _ => 10f64.powf(-10.0 * x),
        }
    }

    /// A record graph mixing two-record components, paths, stars and
    /// triangles, plus isolated records, with the node ids shuffled so
    /// the components interleave.
    fn mixed_graph() -> impl Strategy<Value = RecordGraph> {
        let shapes = proptest::collection::vec((0u8..4, 0u32..3), 1..9);
        shapes
            .prop_flat_map(|shapes| {
                let shapes: Vec<Shape> = shapes
                    .into_iter()
                    .map(|(code, size)| Shape::from_code(code, size))
                    .collect();
                let n = shapes.iter().map(|s| s.nodes()).sum::<u32>() + 2;
                let keys = proptest::collection::vec(0u64..u64::MAX, n as usize);
                let draws = proptest::collection::vec((0u8..24, 0.0f64..1.0), 40);
                (Just(shapes), keys, draws)
            })
            .prop_map(|(shapes, keys, draws)| {
                let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
                perm.sort_by_key(|&i| keys[i as usize]);
                let (mut base, mut k) = (0u32, 0usize);
                let mut scored = Vec::new();
                for shape in shapes {
                    for (a, b) in shape.edges() {
                        let (code, x) = draws[k % draws.len()];
                        k += 1;
                        let p = PairNode::new(perm[(base + a) as usize], perm[(base + b) as usize]);
                        scored.push((p, weight(code, x)));
                    }
                    base += shape.nodes();
                }
                scored.sort_by_key(|&(p, _)| p);
                let (ps, ws): (Vec<PairNode>, Vec<f64>) = scored.into_iter().unzip();
                RecordGraph::from_pair_scores(keys.len(), &ps, &ws)
            })
    }

    /// Every component of two or more records solved on its own by the
    /// general solve, [`solve_component_into`].
    fn solve_each_component(g: &RecordGraph, cfg: &CliqueRankConfig) -> Vec<f64> {
        let mut out = vec![0.0; g.pairs().len()];
        let mut local_of = vec![u32::MAX; g.node_count()];
        let mut scratch = CliqueScratch::default();
        let comps = g.components();
        for members in comps.iter().filter(|m| m.len() >= 2) {
            for (li, &r) in members.iter().enumerate() {
                local_of[r as usize] = li as u32;
            }
            solve_component_into(g, members, &local_of, cfg, &mut out, &mut scratch);
            for &r in members {
                local_of[r as usize] = u32::MAX;
            }
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|p| p.to_bits()).collect()
    }

    /// Both recurrences × boost Off, Fixed and Expected × clamp on and
    /// off × the three kernels × the neighbor mask on and off, at `steps`.
    fn all_configs(steps: usize) -> Vec<CliqueRankConfig> {
        let mut configs = Vec::new();
        for recurrence in [Recurrence::PaperEq15, Recurrence::FirstPassage] {
            for boost in [BoostMode::Off, BoostMode::Fixed(0.5), BoostMode::default()] {
                for clamp in [true, false] {
                    for kernel in [Kernel::Auto, Kernel::Dense, Kernel::Sparse] {
                        for neighbor_mask in [true, false] {
                            configs.push(CliqueRankConfig {
                                steps,
                                recurrence,
                                boost,
                                clamp,
                                kernel,
                                neighbor_mask,
                                ..cfg()
                            });
                        }
                    }
                }
            }
        }
        configs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `run_cliquerank`, which decides masked two-record components
        /// in closed form, equals the general solve of every component
        /// bit for bit, serial and pooled, for weights up to `f64::MAX`.
        #[test]
        fn run_cliquerank_equals_the_general_solve_bit_for_bit(
            g in mixed_graph(),
            steps in 1usize..=20,
        ) {
            let serial = WorkerPool::with_policy(1, DispatchPolicy::always_serial());
            let pooled = WorkerPool::with_policy(3, DispatchPolicy::always_parallel());
            for cfg in all_configs(steps) {
                let want = bits(&solve_each_component(&g, &cfg));
                let got = bits(&run_cliquerank(&g, &cfg, &serial));
                prop_assert_eq!(&got, &want, "{:?}", cfg);
                let got = bits(&run_cliquerank(&g, &cfg, &pooled));
                prop_assert_eq!(&got, &want, "pooled {:?}", cfg);
            }
        }
    }

    #[test]
    fn masked_two_record_components_read_one_exactly() {
        let ps = pairs(&[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]);
        let ws = [
            f64::MIN_POSITIVE / 8.0,
            1e-300,
            0.37,
            f64::MAX / 2.0,
            0.75 * f64::MAX,
            f64::MAX,
        ];
        let g = RecordGraph::from_pair_scores(12, &ps, &ws);
        for cfg in all_configs(20).into_iter().filter(|c| c.neighbor_mask) {
            assert_eq!(run(&g, &cfg), vec![1.0; 6], "{cfg:?}");
        }
    }

    #[test]
    fn weights_past_half_max_read_as_scaled_down() {
        // Every row's doubled maximum overflows. Halving before the
        // division gives the quotients of the same triangle scaled down
        // by 2^-4, whose doubled maxima are finite, so both read the
        // same bits: finite, and in [0, 1] where clamped, under both
        // kernels and RSS.
        let ps = pairs(&[(0, 1), (0, 2), (1, 2)]);
        let huge = [0.75 * f64::MAX, f64::MAX, 0.6 * f64::MAX];
        let small = huge.map(|w| w / 16.0);
        let g = RecordGraph::from_pair_scores(3, &ps, &huge);
        let scaled = RecordGraph::from_pair_scores(3, &ps, &small);
        for cfg in all_configs(20) {
            let p = run(&g, &cfg);
            assert_eq!(bits(&p), bits(&run(&scaled, &cfg)), "{cfg:?}");
            // Unclamped, the Eq. 15 sum over steps may pass 1.
            let range = if cfg.clamp { 0.0..=1.0 } else { 0.0..=f64::MAX };
            assert!(p.iter().all(|v| range.contains(v)), "{cfg:?}: {p:?}");
        }
        let pool = WorkerPool::new(1);
        let rss = crate::rss::run_rss(&g, &crate::config::RssConfig::default(), &pool);
        let want = crate::rss::run_rss(&scaled, &crate::config::RssConfig::default(), &pool);
        assert_eq!(bits(&rss.probabilities), bits(&want.probabilities));
        assert!(rss.probabilities.iter().all(|v| (0.0..=1.0).contains(v)));
        assert!(
            rss.probabilities.iter().any(|&v| v > 0.0),
            "{:?}",
            rss.probabilities
        );
    }
}
