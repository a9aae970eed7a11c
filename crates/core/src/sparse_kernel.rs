//! Edgewise sparse kernel for CliqueRank components.
//!
//! With the neighbor mask on, every matrix in the CliqueRank recurrence
//! is **edge-supported**: `M¹` is built from edges, and each step ends in
//! `⊙ Mn`, which zeroes everything off the adjacency. The product then
//! only ever needs edge positions:
//!
//! ```text
//! (Mt × masked)[i,j] = Σ_v Mt[i,v] · masked[v,j]
//!                    = Σ_{v ∈ N(i) ∩ N(j)} Mt[i,v] · M[v,j]
//! ```
//!
//! so one step costs `O(Σ_{(i,j)∈E} (deg i + deg j))` (two-pointer
//! intersection of sorted neighbor rows) instead of `O(n³)`. This is an
//! exact re-expression of the dense recurrence — the `kernels_agree`
//! tests pin the two against each other — and it is what makes the very
//! sparse Restaurant-style record graphs essentially free.
//!
//! All working vectors live in a caller-owned `SparseScratch` and are
//! rebuilt with `clear()` + `push`/`resize` inside their existing
//! capacity, so a stream of components solved through one scratch runs
//! with zero steady-state allocations.

use er_graph::RecordGraph;
use er_pool::WorkerPool;

use crate::cliquerank::pair_index;
use crate::config::{CliqueRankConfig, Recurrence};

/// Reusable buffers for the edgewise kernel: the local directed-edge CSR
/// plus the per-edge recurrence vectors. All sized by the component's
/// directed edge count and reused across components.
#[derive(Debug, Default)]
pub(crate) struct SparseScratch {
    /// Row offsets per local node (`nc + 1` entries).
    row_start: Vec<usize>,
    /// Target local id per directed edge, sorted within each row.
    tgt: Vec<u32>,
    /// Index of the opposite directed edge `(j→i)` for each `(i→j)`.
    rev: Vec<u32>,
    /// Row-normalized transition `Mt[i,j]` per directed edge.
    mt: Vec<f64>,
    /// α-scaled unnormalized weight per directed edge.
    a: Vec<f64>,
    /// Row sums of `a`.
    row_sum: Vec<f64>,
    /// Expected boosted hit probability per directed edge.
    hit: Vec<f64>,
    /// Expected continuation scale per directed edge.
    cont: Vec<f64>,
    /// Recurrence double buffers and the Eq. 15 accumulator.
    cur: Vec<f64>,
    next: Vec<f64>,
    acc: Vec<f64>,
}

impl SparseScratch {
    /// Rebuilds the local directed-edge CSR for one component inside the
    /// existing buffers.
    fn build_edges(&mut self, graph: &RecordGraph, members: &[u32], local_of: &[u32], alpha: f64) {
        let nc = members.len();
        self.row_start.clear();
        self.row_start.push(0);
        self.tgt.clear();
        self.a.clear();
        self.row_sum.clear();
        self.row_sum.resize(nc, 0.0);
        for (li, &g) in members.iter().enumerate() {
            let (neighbors, sims) = graph.neighbors(g);
            let row_max = sims.iter().fold(0.0f64, |m, &v| m.max(v));
            let scale = 2.0 * row_max;
            let mut sum = 0.0;
            for (&nb, &sim) in neighbors.iter().zip(sims) {
                // `members` is sorted ascending and local ids follow that
                // order, so global neighbor order == local target order.
                let lj = local_of[nb as usize];
                debug_assert!(lj != u32::MAX);
                let v = (sim / scale).powf(alpha);
                self.tgt.push(lj);
                self.a.push(v);
                sum += v;
            }
            self.row_sum[li] = sum;
            self.row_start.push(self.tgt.len());
        }
        self.mt.clear();
        for i in 0..nc {
            let (s, e) = (self.row_start[i], self.row_start[i + 1]);
            let denom = self.row_sum[i];
            for &v in &self.a[s..e] {
                self.mt.push(if denom > 0.0 { v / denom } else { 0.0 });
            }
        }
        // Reverse-edge indices via binary search in the opposite row.
        self.rev.clear();
        self.rev.resize(self.tgt.len(), 0);
        for i in 0..nc {
            for e in self.row_start[i]..self.row_start[i + 1] {
                let j = self.tgt[e] as usize;
                let (js, je) = (self.row_start[j], self.row_start[j + 1]);
                let pos = self.tgt[js..je]
                    .binary_search(&(i as u32))
                    .expect("undirected graph: reverse edge must exist"); // er-lint: allow(panic) -- CSR rows mirror every undirected edge in both directions
                self.rev[e] = (js + pos) as u32;
            }
        }
    }
}

/// `Σ_{v ∈ N(i) ∩ N(j)} Mt[i,v] · cur[(v→j)]` for the directed edge at
/// index `e = (i→j)`, by two-pointer merge of rows `i` and `j`.
// er-lint: zero-alloc
fn propagate(
    row_start: &[usize],
    tgt: &[u32],
    rev: &[u32],
    mt: &[f64],
    cur: &[f64],
    i: usize,
    e: usize,
) -> f64 {
    let j = tgt[e] as usize;
    let (mut pi, ei) = (row_start[i], row_start[i + 1]);
    let (mut pj, ej) = (row_start[j], row_start[j + 1]);
    let mut sum = 0.0;
    while pi < ei && pj < ej {
        match tgt[pi].cmp(&tgt[pj]) {
            std::cmp::Ordering::Less => pi += 1,
            std::cmp::Ordering::Greater => pj += 1,
            std::cmp::Ordering::Equal => {
                // Common neighbor v: row j's entry at pj is (j→v);
                // its reverse is (v→j), whose current value we need.
                let v_to_j = rev[pj] as usize;
                sum += mt[pi] * cur[v_to_j];
                pi += 1;
                pj += 1;
            }
        }
    }
    sum
}

/// Estimated per-step cost of the sparse kernel for a component:
/// `Σ_{(i,j) directed} (deg i + deg j)` two-pointer steps. Allocation-free
/// (it runs on every component, before kernel selection).
// er-lint: zero-alloc
pub(crate) fn sparse_step_cost(graph: &RecordGraph, members: &[u32]) -> usize {
    // Σ over directed edges (i,·) of (deg_i + deg_j) = 2 Σ_i deg_i².
    let sum_sq: usize = members
        .iter()
        .map(|&g| {
            let d = graph.neighbors(g).0.len();
            d * d
        })
        .sum();
    2 * sum_sq
}

/// Splits the local node rows into contiguous ranges of roughly equal
/// directed-edge count — the unit of work for the parallel recurrence
/// step. Depends only on the CSR shape and `parts`, never on timing.
fn edge_balanced_row_ranges(row_start: &[usize], parts: usize) -> Vec<std::ops::Range<usize>> {
    let nc = row_start.len().saturating_sub(1);
    if nc == 0 {
        return Vec::new();
    }
    let m = row_start[nc];
    let target = m.div_ceil(parts.max(1)).max(1);
    let mut ranges = Vec::new();
    let mut start_row = 0;
    while start_row < nc {
        let lo = row_start[start_row];
        let mut end_row = start_row + 1;
        while end_row < nc && row_start[end_row + 1] - lo <= target {
            end_row += 1;
        }
        ranges.push(start_row..end_row);
        start_row = end_row;
    }
    ranges
}

/// One parallel recurrence step: fills `next[e] = f(i, e)` for every
/// directed edge, with row ranges fanned out as pool jobs. Each job
/// writes the disjoint `next` subslice its rows own while reading the
/// shared `cur`, and every `next[e]` is computed by exactly the serial
/// formula — elementwise parallelism, bit-identical at any thread count.
fn step_rows_pooled(
    pool: &WorkerPool,
    row_ranges: &[std::ops::Range<usize>],
    row_start: &[usize],
    next: &mut [f64],
    f: &(dyn Fn(usize, usize) -> f64 + Sync),
) {
    // er-lint: allow(dispatch) -- `solve_component` gates the pool on `dispatch(cost.work)` before calling
    pool.scope(|s| {
        let mut rest = next;
        let mut consumed = 0;
        for rows in row_ranges {
            let hi = row_start[rows.end];
            let (chunk, tail) = rest.split_at_mut(hi - consumed);
            rest = tail;
            let lo = consumed;
            consumed = hi;
            let rows = rows.clone();
            s.submit(move || {
                for i in rows {
                    for e in row_start[i]..row_start[i + 1] {
                        chunk[e - lo] = f(i, e);
                    }
                }
            });
        }
    });
}

/// Solves one component with the edgewise recursion and writes the
/// symmetrized probabilities into `out`. Requires the neighbor mask.
/// `bonus` is the shared `(1 + b)^α` sample vector computed by the
/// caller; all working memory comes from `scratch`. With a pool (the
/// caller has already made the dispatch decision), each recurrence step
/// fans CSR row ranges out as jobs.
#[allow(clippy::too_many_arguments)] // mirrors the dense solver's signature plus the pool
pub(crate) fn solve_component_sparse(
    graph: &RecordGraph,
    members: &[u32],
    local_of: &[u32],
    config: &CliqueRankConfig,
    bonus: &[f64],
    pool: Option<&WorkerPool>,
    out: &mut [f64],
    scratch: &mut SparseScratch,
) {
    debug_assert!(config.neighbor_mask, "sparse kernel requires the mask");
    scratch.build_edges(graph, members, local_of, config.alpha);
    let SparseScratch {
        row_start,
        tgt,
        rev,
        mt,
        a,
        row_sum,
        hit,
        cont,
        cur,
        next,
        acc,
    } = scratch;
    let m = tgt.len();

    // Boosted per-edge quantities (same formulas as the dense kernel).
    hit.clear();
    hit.resize(m, 0.0);
    cont.clear();
    cont.resize(m, 1.0);
    for i in 0..members.len() {
        for e in row_start[i]..row_start[i + 1] {
            let aij = a[e];
            let rest = (row_sum[i] - aij).max(0.0);
            let (mut h, mut c) = (0.0, 0.0);
            for &beta in bonus {
                let denom = beta * aij + rest;
                h += beta * aij / denom;
                c += row_sum[i] / denom;
            }
            hit[e] = h / bonus.len() as f64;
            cont[e] = c / bonus.len() as f64;
        }
    }

    // From here on the CSR and per-edge coefficients are read-only;
    // reborrow shared so recurrence jobs can capture them.
    type SharedCsr<'a> = (
        &'a [usize],
        &'a [u32],
        &'a [u32],
        &'a [f64],
        &'a [f64],
        &'a [f64],
    );
    let (row_start, tgt, rev, mt, hit, cont): SharedCsr = (row_start, tgt, rev, mt, hit, cont);

    // Intra-component parallelism: fan row ranges out per step. The row
    // split is fixed up front (it depends only on the CSR), so steps
    // re-use it.
    let row_ranges = pool.map_or_else(Vec::new, |p| {
        edge_balanced_row_ranges(row_start, p.threads() * 2)
    });
    let par_pool = pool.filter(|_| row_ranges.len() > 1);

    // Recurrence over per-directed-edge vectors.
    let final_vals: &[f64] = match config.recurrence {
        Recurrence::PaperEq15 => {
            // M¹ = Mb = hit; acc += M^k.
            cur.clear();
            cur.extend_from_slice(hit);
            acc.clear();
            acc.extend_from_slice(hit);
            next.clear();
            next.resize(m, 0.0);
            for _ in 2..=config.steps {
                match par_pool {
                    Some(p) => {
                        let cur_ref: &[f64] = cur;
                        step_rows_pooled(p, &row_ranges, row_start, next, &|i, e| {
                            propagate(row_start, tgt, rev, mt, cur_ref, i, e)
                        });
                    }
                    None => {
                        for i in 0..members.len() {
                            let (lo, hi) = (row_start[i], row_start[i + 1]);
                            for (e, slot) in (lo..hi).zip(next[lo..hi].iter_mut()) {
                                *slot = propagate(row_start, tgt, rev, mt, cur, i, e);
                            }
                        }
                    }
                }
                for (av, &n) in acc.iter_mut().zip(next.iter()) {
                    *av += n;
                }
                std::mem::swap(cur, next);
            }
            acc
        }
        Recurrence::FirstPassage => {
            // G¹ = H; G^k = H + C ⊙ (Mt × masked(G^{k−1})).
            cur.clear();
            cur.extend_from_slice(hit);
            next.clear();
            next.resize(m, 0.0);
            for _ in 2..=config.steps {
                match par_pool {
                    Some(p) => {
                        let cur_ref: &[f64] = cur;
                        step_rows_pooled(p, &row_ranges, row_start, next, &|i, e| {
                            hit[e] + cont[e] * propagate(row_start, tgt, rev, mt, cur_ref, i, e)
                        });
                    }
                    None => {
                        for i in 0..members.len() {
                            for e in row_start[i]..row_start[i + 1] {
                                next[e] = hit[e]
                                    + cont[e] * propagate(row_start, tgt, rev, mt, cur, i, e);
                            }
                        }
                    }
                }
                std::mem::swap(cur, next);
            }
            cur
        }
    };

    // Symmetrize with per-direction clamping and write out.
    for (li, &g) in members.iter().enumerate() {
        for e in row_start[li]..row_start[li + 1] {
            let lj = tgt[e] as usize;
            let gj = members[lj];
            if gj <= g {
                continue;
            }
            let (mut fwd, mut bwd) = (final_vals[e], final_vals[rev[e] as usize]);
            if config.clamp {
                fwd = fwd.clamp(0.0, 1.0);
                bwd = bwd.clamp(0.0, 1.0);
            }
            out[pair_index(graph, g, gj)] = 0.5 * (fwd + bwd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Kernel;
    use er_graph::bipartite::PairNode;

    /// CliqueRank on a 1-thread pool, without a cache.
    fn run_cliquerank(g: &RecordGraph, config: &CliqueRankConfig) -> Vec<f64> {
        crate::run_cliquerank(g, config, &WorkerPool::new(1), None)
    }

    fn pairs(ps: &[(u32, u32)]) -> Vec<PairNode> {
        ps.iter().map(|&(a, b)| PairNode::new(a, b)).collect()
    }

    fn sample_graphs() -> Vec<RecordGraph> {
        vec![
            // Two cliques and a bridge.
            RecordGraph::from_pair_scores(
                5,
                &pairs(&[(0, 1), (0, 2), (1, 2), (3, 4), (2, 3)]),
                &[1.0, 1.0, 1.0, 1.0, 0.05],
            ),
            // A path (very sparse).
            RecordGraph::from_pair_scores(
                6,
                &pairs(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
                &[0.9, 0.4, 0.8, 0.3, 0.7],
            ),
            // A star.
            RecordGraph::from_pair_scores(
                5,
                &pairs(&[(0, 1), (0, 2), (0, 3), (0, 4)]),
                &[0.5, 0.6, 0.7, 0.8],
            ),
        ]
    }

    #[test]
    fn kernels_agree_eq15() {
        for g in sample_graphs() {
            let dense = run_cliquerank(
                &g,
                &CliqueRankConfig {
                    kernel: Kernel::Dense,
                    ..Default::default()
                },
            );
            let sparse = run_cliquerank(
                &g,
                &CliqueRankConfig {
                    kernel: Kernel::Sparse,
                    ..Default::default()
                },
            );
            for (a, b) in dense.iter().zip(&sparse) {
                assert!((a - b).abs() < 1e-10, "dense {a} vs sparse {b}");
            }
        }
    }

    #[test]
    fn kernels_agree_first_passage() {
        for g in sample_graphs() {
            let mk = |kernel| CliqueRankConfig {
                kernel,
                recurrence: Recurrence::FirstPassage,
                ..Default::default()
            };
            let dense = run_cliquerank(&g, &mk(Kernel::Dense));
            let sparse = run_cliquerank(&g, &mk(Kernel::Sparse));
            for (a, b) in dense.iter().zip(&sparse) {
                assert!((a - b).abs() < 1e-10, "dense {a} vs sparse {b}");
            }
        }
    }

    #[test]
    fn auto_matches_both() {
        for g in sample_graphs() {
            let auto = run_cliquerank(
                &g,
                &CliqueRankConfig {
                    kernel: Kernel::Auto,
                    ..Default::default()
                },
            );
            let dense = run_cliquerank(
                &g,
                &CliqueRankConfig {
                    kernel: Kernel::Dense,
                    ..Default::default()
                },
            );
            for (a, b) in auto.iter().zip(&dense) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn scratch_reuse_across_components_matches_fresh() {
        // The same scratch solving different graphs back to back must
        // give the same answers as a fresh scratch each time.
        let cfg = CliqueRankConfig {
            kernel: Kernel::Sparse,
            ..Default::default()
        };
        let fresh: Vec<Vec<f64>> = sample_graphs()
            .iter()
            .map(|g| run_cliquerank(g, &cfg))
            .collect();
        let mut scratch = crate::cliquerank::CliqueScratch::default();
        for (g, want) in sample_graphs().iter().zip(&fresh) {
            let mut out = vec![0.0; g.pairs().len()];
            let mut local_of = vec![u32::MAX; g.node_count()];
            for members in g.components().members.iter().filter(|m| m.len() >= 2) {
                for (li, &r) in members.iter().enumerate() {
                    local_of[r as usize] = li as u32;
                }
                crate::solve_component_into(g, members, &local_of, &cfg, &mut out, &mut scratch);
                for &r in members {
                    local_of[r as usize] = u32::MAX;
                }
            }
            assert_eq!(&out, want);
        }
    }

    #[test]
    fn cost_estimate_scales_with_density() {
        let path =
            RecordGraph::from_pair_scores(4, &pairs(&[(0, 1), (1, 2), (2, 3)]), &[1.0, 1.0, 1.0]);
        let clique = RecordGraph::from_pair_scores(
            4,
            &pairs(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            &[1.0; 6],
        );
        let members: Vec<u32> = (0..4).collect();
        assert!(sparse_step_cost(&path, &members) < sparse_step_cost(&clique, &members));
    }
}
