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
//! # The column gather
//!
//! Every per-edge vector of the recurrence is kept in **incoming-edge
//! order**: slot `p` of CSR row `j` holds the value of the edge
//! `tgt[p] → j`. One step walks the target rows. For row `j` it scatters
//! column `j` of the iterate into a dense buffer `y` of length `nc`
//! (`y[v] = M[v,j]` for `v ∈ N(j)`, `+0.0` elsewhere); for each
//! `i ∈ N(j)` it sums `Mt[i,v] · y[v]` over the whole of row `i`, in
//! ascending `v`; then it writes `+0.0` back into the entries it set.
//! The sum reads row `i`'s contiguous target and `Mt` slices and gathers
//! only from `y`, with no data-dependent branch, so a step costs
//! `Σ_i deg(i)²` multiply-adds instead of `O(n³)`.
//!
//! The gather is bitwise the two-pointer intersection of rows `i` and `j`
//! (kept as the test oracle): the terms with `v ∈ N(i) ∩ N(j)` are the
//! intersection's terms in the same ascending-`v` order, and every other
//! term is a finite `Mt` entry times the `+0.0` left in `y`, which is
//! `+0.0` and leaves the running sum's bits unchanged. That holds because
//! every iterate is finite and non-negative and rustc never contracts
//! `a * b + c` into an FMA. The `kernels_agree` tests pin the kernel to
//! the dense recurrence.
//!
//! # Exact early exit
//!
//! The recurrence stops as soon as a step provably changes nothing. Under
//! [`Recurrence::PaperEq15`] that is a step whose product is all zero:
//! every later product is then zero too, and the accumulator would only
//! gain `+0.0`. Under [`Recurrence::FirstPassage`] it is a step whose
//! iterate equals the previous one bit for bit: the step is a
//! deterministic map of the iterate, so it stays at that fixed point. A
//! component with no triangle stops after one step. The test reads the
//! whole vector after the step has joined, so a pooled and a serial solve
//! stop at the same step.
//!
//! All working vectors live in a caller-owned `SparseScratch` and are
//! rebuilt with `clear()` + `push`/`resize` inside their existing
//! capacity, so a stream of components solved through one scratch runs
//! with zero steady-state allocations.

use std::ops::Range;

use er_graph::RecordGraph;
use er_pool::WorkerPool;

use crate::cliquerank::pair_index;
use crate::config::{CliqueRankConfig, Recurrence};

/// Reusable buffers for the edgewise kernel: the local CSR, the per-edge
/// recurrence vectors, and the gather's column buffers. All sized by the
/// component and reused across components.
#[derive(Debug, Default)]
pub(crate) struct SparseScratch {
    /// Row offsets per local node (`nc + 1` entries).
    row_start: Vec<usize>,
    /// Neighbor local id per slot, sorted within each row.
    tgt: Vec<u32>,
    /// Mirror slot per slot: slot `(j, i)` for slot `(i, j)`.
    rev: Vec<u32>,
    /// Row-normalized transition `Mt[i, tgt[e]]` per slot `e` of row `i`.
    mt: Vec<f64>,
    /// α-scaled unnormalized weight per slot, laid out like `mt`.
    a: Vec<f64>,
    /// Row sums of `a`.
    row_sum: Vec<f64>,
    /// Expected boosted hit probability per edge, incoming-edge order.
    hit: Vec<f64>,
    /// Expected continuation scale per edge, incoming-edge order.
    cont: Vec<f64>,
    /// Recurrence double buffers and the Eq. 15 accumulator,
    /// incoming-edge order.
    cur: Vec<f64>,
    next: Vec<f64>,
    acc: Vec<f64>,
    /// The gather's dense column buffers: `nc` doubles per row band (one
    /// band for a serial step), all `+0.0` between rows.
    cols: Vec<f64>,
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

/// The read-only CSR a recurrence step gathers through.
#[derive(Debug, Clone, Copy)]
struct Csr<'a> {
    row_start: &'a [usize],
    tgt: &'a [u32],
    mt: &'a [f64],
}

/// One recurrence step over the target rows `rows`, the one step function
/// of both the serial and the pooled solve. For every slot `p` of those
/// rows — edge `i → j` with `i = tgt[p]` — writes
/// `f(p, Σ_{q ∈ row i} Mt[q] · y[tgt[q]])` into `next`, which starts at
/// the first slot of `rows`. `y` is column `j` of `cur`, scattered into
/// `col` (length `nc`, all `+0.0` on entry and on return).
// er-lint: zero-alloc
fn step_rows<F: Fn(usize, f64) -> f64>(
    csr: Csr<'_>,
    cur: &[f64],
    rows: Range<usize>,
    next: &mut [f64],
    col: &mut [f64],
    f: &F,
) {
    let Csr { row_start, tgt, mt } = csr;
    let base = row_start[rows.start];
    for j in rows {
        let (lo, hi) = (row_start[j], row_start[j + 1]);
        let sources = &tgt[lo..hi];
        for (&v, &m) in sources.iter().zip(&cur[lo..hi]) {
            col[v as usize] = m;
        }
        for ((p, &i), slot) in (lo..hi).zip(sources).zip(&mut next[lo - base..hi - base]) {
            let (s, e) = (row_start[i as usize], row_start[i as usize + 1]);
            let mut sum = 0.0;
            for (&v, &w) in tgt[s..e].iter().zip(&mt[s..e]) {
                sum += w * col[v as usize];
            }
            *slot = f(p, sum);
        }
        for &v in sources {
            col[v as usize] = 0.0;
        }
    }
}

/// One recurrence step into `next`: inline over every row, or with one
/// pool job per row band, each writing its own contiguous `next` slice
/// through its own `nc`-double column buffer of `cols`. Every slot is
/// computed by [`step_rows`] either way, so the bits do not depend on
/// the band split.
fn step<F: Fn(usize, f64) -> f64 + Sync>(
    csr: Csr<'_>,
    bands: &[Range<usize>],
    pool: Option<&WorkerPool>,
    cur: &[f64],
    next: &mut [f64],
    cols: &mut [f64],
    f: &F,
) {
    let nc = csr.row_start.len() - 1;
    let Some(pool) = pool else {
        step_rows(csr, cur, 0..nc, next, &mut cols[..nc], f);
        return;
    };
    // er-lint: allow(dispatch) -- `solve_component` gates the pool on `dispatch(cost.work)` before calling
    pool.scope(|s| {
        let mut rest = next;
        for (rows, col) in bands.iter().zip(cols.chunks_exact_mut(nc)) {
            let len = csr.row_start[rows.end] - csr.row_start[rows.start];
            let (chunk, tail) = rest.split_at_mut(len);
            rest = tail;
            let rows = rows.clone();
            s.submit(move || step_rows(csr, cur, rows, chunk, col, f));
        }
    });
}

/// Estimated per-step cost of the sparse kernel for a component: the
/// gather's `Σ_i deg(i)²` multiply-adds. Allocation-free (it runs on
/// every component, before kernel selection).
// er-lint: zero-alloc
pub(crate) fn sparse_step_cost(graph: &RecordGraph, members: &[u32]) -> usize {
    members
        .iter()
        .map(|&g| {
            let d = graph.neighbors(g).0.len();
            d * d
        })
        .sum()
}

/// Splits the local node rows into contiguous ranges of roughly equal
/// directed-edge count — the row bands of the pooled recurrence step.
/// Depends only on the CSR shape and `parts`, never on timing.
fn edge_balanced_row_ranges(row_start: &[usize], parts: usize) -> Vec<Range<usize>> {
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

/// Solves one component with the edgewise recursion and writes the
/// symmetrized probabilities into `out`. Requires the neighbor mask.
/// `bonus` is the shared `(1 + b)^α` sample vector computed by the
/// caller; all working memory comes from `scratch`. With a pool (the
/// caller has already made the dispatch decision), each recurrence step
/// fans row bands out as jobs. Returns the number of recurrence steps
/// run: `config.steps − 1`, or fewer after an early exit.
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
) -> usize {
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
        cols,
    } = scratch;
    let nc = members.len();
    let m = tgt.len();

    // Boosted per-edge quantities (same formulas as the dense kernel),
    // stored at the edge's incoming-order slot `rev[e]`.
    hit.clear();
    hit.resize(m, 0.0);
    cont.clear();
    cont.resize(m, 1.0);
    for i in 0..nc {
        for e in row_start[i]..row_start[i + 1] {
            let aij = a[e];
            let rest = (row_sum[i] - aij).max(0.0);
            let (mut h, mut c) = (0.0, 0.0);
            for &beta in bonus {
                let denom = beta * aij + rest;
                h += beta * aij / denom;
                c += row_sum[i] / denom;
            }
            let p = rev[e] as usize;
            hit[p] = h / bonus.len() as f64;
            cont[p] = c / bonus.len() as f64;
        }
    }

    // From here on the CSR and per-edge coefficients are read-only;
    // reborrow shared so recurrence jobs can capture them.
    let csr = Csr { row_start, tgt, mt };
    let (rev, hit, cont): (&[u32], &[f64], &[f64]) = (rev, hit, cont);

    // Intra-component parallelism: fan row bands out per step. The split
    // is fixed up front (it depends only on the CSR), so steps re-use it.
    let bands = pool.map_or_else(Vec::new, |p| {
        edge_balanced_row_ranges(row_start, p.threads() * 2)
    });
    let pool = pool.filter(|_| bands.len() > 1);
    cols.clear();
    cols.resize(nc * bands.len().max(1), 0.0);

    // Recurrence over per-edge vectors, until `config.steps` or the
    // early exit.
    cur.clear();
    cur.extend_from_slice(hit);
    next.clear();
    next.resize(m, 0.0);
    let mut steps_run = 0;
    let final_vals: &[f64] = match config.recurrence {
        Recurrence::PaperEq15 => {
            // M¹ = Mb = hit; acc += M^k while the product is nonzero.
            acc.clear();
            acc.extend_from_slice(hit);
            for _ in 2..=config.steps {
                step(csr, &bands, pool, cur, next, cols, &|_, g| g);
                steps_run += 1;
                if next.iter().all(|&v| v == 0.0) {
                    break;
                }
                for (av, &n) in acc.iter_mut().zip(next.iter()) {
                    *av += n;
                }
                std::mem::swap(cur, next);
            }
            acc
        }
        Recurrence::FirstPassage => {
            // G¹ = H; G^k = H + C ⊙ (Mt × masked(G^{k−1})) until a fixed
            // point.
            for _ in 2..=config.steps {
                step(csr, &bands, pool, cur, next, cols, &|p, g| {
                    hit[p] + cont[p] * g
                });
                steps_run += 1;
                let fixed = next
                    .iter()
                    .zip(cur.iter())
                    .all(|(n, c)| n.to_bits() == c.to_bits());
                std::mem::swap(cur, next);
                if fixed {
                    break;
                }
            }
            cur
        }
    };
    er_obs::counter_add("cliquerank_sparse_steps_total", steps_run as u64);
    er_obs::counter_add(
        "cliquerank_gather_terms_total",
        (steps_run * sparse_step_cost(graph, members)) as u64,
    );
    if steps_run + 1 < config.steps {
        er_obs::counter_add("cliquerank_early_exits_total", 1);
    }

    // Symmetrize with per-direction clamping and write out. Slot `e` of
    // row `li` holds `lj → li`; `li → lj` sits at its mirror slot.
    for (li, &g) in members.iter().enumerate() {
        for e in row_start[li]..row_start[li + 1] {
            let lj = tgt[e] as usize;
            let gj = members[lj];
            if gj <= g {
                continue;
            }
            let (mut fwd, mut bwd) = (final_vals[rev[e] as usize], final_vals[e]);
            if config.clamp {
                fwd = fwd.clamp(0.0, 1.0);
                bwd = bwd.clamp(0.0, 1.0);
            }
            out[pair_index(graph, g, gj)] = 0.5 * (fwd + bwd);
        }
    }
    steps_run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cliquerank::bonus_samples_into;
    use crate::config::{BoostMode, Kernel};
    use er_graph::bipartite::PairNode;
    use proptest::prelude::*;

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

    /// `Σ_{v ∈ N(i) ∩ N(j)} Mt[i,v] · cur[(v→j)]` for the directed edge at
    /// index `e = (i→j)`, by two-pointer merge of rows `i` and `j`, with
    /// `cur` in out-edge order.
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

    /// The two-pointer merge recurrence the gather replaced, kept as its
    /// bitwise oracle: per-edge vectors in out-edge order (slot `e` of row
    /// `i` is the edge `i → tgt[e]`), every one of the `steps − 1` steps,
    /// no early exit.
    fn solve_component_merge(
        graph: &RecordGraph,
        members: &[u32],
        local_of: &[u32],
        config: &CliqueRankConfig,
        bonus: &[f64],
        out: &mut [f64],
    ) {
        let mut scratch = SparseScratch::default();
        scratch.build_edges(graph, members, local_of, config.alpha);
        let SparseScratch {
            row_start,
            tgt,
            rev,
            mt,
            a,
            row_sum,
            ..
        } = &scratch;
        let m = tgt.len();
        let mut hit = vec![0.0; m];
        let mut cont = vec![1.0; m];
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
        let step = |cur: &[f64], f: &dyn Fn(usize, f64) -> f64| -> Vec<f64> {
            (0..members.len())
                .flat_map(|i| (row_start[i]..row_start[i + 1]).map(move |e| (i, e)))
                .map(|(i, e)| f(e, propagate(row_start, tgt, rev, mt, cur, i, e)))
                .collect()
        };
        let final_vals = match config.recurrence {
            Recurrence::PaperEq15 => {
                let mut cur = hit.clone();
                let mut acc = hit.clone();
                for _ in 2..=config.steps {
                    cur = step(&cur, &|_, g| g);
                    for (av, &n) in acc.iter_mut().zip(&cur) {
                        *av += n;
                    }
                }
                acc
            }
            Recurrence::FirstPassage => {
                let mut cur = hit.clone();
                for _ in 2..=config.steps {
                    cur = step(&cur, &|e, g| hit[e] + cont[e] * g);
                }
                cur
            }
        };
        for (li, &g) in members.iter().enumerate() {
            for e in row_start[li]..row_start[li + 1] {
                let gj = members[tgt[e] as usize];
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

    /// Runs `solve` on every component of `g` with its members mapped to
    /// local ids; returns the edge probabilities and each solve's result.
    fn solve_each<R>(
        g: &RecordGraph,
        mut solve: impl FnMut(&[u32], &[u32], &mut [f64]) -> R,
    ) -> (Vec<f64>, Vec<R>) {
        let mut out = vec![0.0; g.pairs().len()];
        let mut local_of = vec![u32::MAX; g.node_count()];
        let mut results = Vec::new();
        for members in g.components().members.iter().filter(|m| m.len() >= 2) {
            for (li, &r) in members.iter().enumerate() {
                local_of[r as usize] = li as u32;
            }
            results.push(solve(members, &local_of, &mut out));
            for &r in members {
                local_of[r as usize] = u32::MAX;
            }
        }
        (out, results)
    }

    /// Both recurrences × boost `Expected`, `Fixed(0.0)` and `Off` × clamp
    /// on and off, at `steps`.
    fn oracle_configs(steps: usize) -> Vec<CliqueRankConfig> {
        let mut configs = Vec::new();
        for recurrence in [Recurrence::PaperEq15, Recurrence::FirstPassage] {
            for boost in [BoostMode::default(), BoostMode::Fixed(0.0), BoostMode::Off] {
                for clamp in [true, false] {
                    configs.push(CliqueRankConfig {
                        steps,
                        recurrence,
                        boost,
                        clamp,
                        ..Default::default()
                    });
                }
            }
        }
        configs
    }

    /// Asserts that the serial gather and the gather pooled over row bands
    /// both equal the merge oracle bit for bit on every component of `g`,
    /// and stop at the same step; returns each component's step count.
    fn assert_gather_matches_merge(
        g: &RecordGraph,
        cfg: &CliqueRankConfig,
        pool: &WorkerPool,
    ) -> Vec<usize> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mut bonus = Vec::new();
        bonus_samples_into(cfg, &mut bonus);
        let (want, _) = solve_each(g, |members, local_of, out| {
            solve_component_merge(g, members, local_of, cfg, &bonus, out);
        });
        let mut scratch = SparseScratch::default();
        let (serial, steps) = solve_each(g, |members, local_of, out| {
            solve_component_sparse(g, members, local_of, cfg, &bonus, None, out, &mut scratch)
        });
        let (pooled, pooled_steps) = solve_each(g, |members, local_of, out| {
            let pool = Some(pool);
            solve_component_sparse(g, members, local_of, cfg, &bonus, pool, out, &mut scratch)
        });
        assert_eq!(
            bits(&serial),
            bits(&want),
            "serial gather vs merge: {cfg:?}"
        );
        assert_eq!(
            bits(&pooled),
            bits(&want),
            "pooled gather vs merge: {cfg:?}"
        );
        assert_eq!(steps, pooled_steps, "pooled and serial stop apart: {cfg:?}");
        steps
    }

    /// A random graph over up to 30 nodes whose weights span 21 orders of
    /// magnitude, so α = 20 drives some `Mt` entries to subnormal or zero.
    fn spread_graph() -> impl Strategy<Value = RecordGraph> {
        (2u32..=30).prop_flat_map(|n| {
            let draws = (n * n / 2).max(2) as usize;
            proptest::collection::btree_map((0..n, 0..n), -20.0f64..1.0, 1..draws).prop_map(
                move |m| {
                    let (ps, ws): (Vec<PairNode>, Vec<f64>) = m
                        .into_iter()
                        .filter(|&((a, b), _)| a < b)
                        .map(|((a, b), exp)| (PairNode::new(a, b), 10f64.powf(exp)))
                        .unzip();
                    RecordGraph::from_pair_scores(n as usize, &ps, &ws)
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn gather_equals_merge_bit_for_bit(g in spread_graph(), steps in 1usize..=20) {
            let pool = WorkerPool::new(3);
            for cfg in oracle_configs(steps) {
                assert_gather_matches_merge(&g, &cfg, &pool);
            }
        }
    }

    /// Triangle-free graphs: a path, a star, an even cycle, a complete
    /// bipartite graph and a single edge.
    fn triangle_free_graphs() -> Vec<RecordGraph> {
        let build = |n: usize, ps: Vec<(u32, u32)>| {
            let ws: Vec<f64> = (0..ps.len())
                .map(|k| 0.2 + 0.7 * ((k * 7) % 11) as f64 / 11.0)
                .collect();
            RecordGraph::from_pair_scores(n, &pairs(&ps), &ws)
        };
        vec![
            build(10, (0..9).map(|i| (i, i + 1)).collect()),
            build(8, (1..8).map(|i| (0, i)).collect()),
            build(12, (0..12).map(|i| (i, (i + 1) % 12)).collect()),
            build(
                9,
                (0..4).flat_map(|a| (4..9).map(move |b| (a, b))).collect(),
            ),
            build(2, vec![(0, 1)]),
        ]
    }

    #[test]
    fn triangle_free_components_stop_after_one_step() {
        let pool = WorkerPool::new(3);
        for g in triangle_free_graphs() {
            for steps in 1..=20 {
                for cfg in oracle_configs(steps) {
                    let ran = assert_gather_matches_merge(&g, &cfg, &pool);
                    assert!(
                        ran.iter().all(|&r| r == steps.min(2) - 1),
                        "steps={steps} ran={ran:?} {cfg:?}"
                    );
                }
            }
        }
    }
}
