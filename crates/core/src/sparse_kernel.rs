//! The CliqueRank recurrence over a component's edge set, and its two
//! kernels.
//!
//! Every matrix the recurrence reads is **supported on the edge set**:
//! with the neighbor mask on, `M¹` is built from edges and each step ends
//! in `⊙ Mn`, which zeroes everything off the adjacency; with the mask
//! off, the edge set is every ordered pair of the component, diagonal
//! included. So one builder, one recurrence driver and one write-out
//! serve both kernels, which differ only in how a step forms the product
//!
//! ```text
//! (Mt × M)[i,j] = Σ_v Mt[i,v] · M[v,j]
//! ```
//!
//! for every slot `(i, j)` of the edge set.
//!
//! # The iterate in incoming-edge order
//!
//! `SparseScratch::build` lays the component out as a local CSR over
//! the edge set, with `Mt` per slot (slot `p` of row `i` is `i → tgt[p]`).
//! Every per-edge vector of the recurrence (`H`, `C`, the iterate and the
//! Eq. 15 sum) is kept in **incoming-edge order**: slot `p` of row `j`
//! holds the value of the edge `tgt[p] → j`, so row `j` of the iterate is
//! column `j` of `M`.
//!
//! # The column gather
//!
//! For row `j`, the gather scatters column `j` of the iterate into a
//! dense buffer `y` of length `nc` (`y[v] = M[v,j]` on the edge set,
//! `+0.0` elsewhere); for each slot `i → j` it sums `Mt[i,v] · y[v]` over
//! the whole of row `i`, in ascending `v`; then it writes `+0.0` back
//! into the entries it set. The sum reads row `i`'s contiguous target and
//! `Mt` slices and gathers only from `y`, with no data-dependent branch,
//! so a step costs `Σ_i deg(i)²` multiply-adds instead of `O(n³)`.
//!
//! The gather is bitwise the two-pointer intersection of rows `i` and `j`
//! (kept as the test oracle): the terms with `v ∈ N(i) ∩ N(j)` are the
//! intersection's terms in the same ascending-`v` order, and every other
//! term is a finite `Mt` entry times the `+0.0` left in `y`, which is
//! `+0.0` and leaves the running sum's bits unchanged. That holds because
//! every iterate is finite and non-negative and rustc never contracts
//! `a * b + c` into an FMA.
//!
//! # The GEMM step on the transpose
//!
//! Row `j` of the iterate is row `j` of `Mᵀ`, so the packed-GEMM step
//! scatters the iterate row by row into `Y = Mᵀ` (zero off the edge set,
//! which is the `⊙ Mn` mask), forms `Z = Y × Mtᵀ` with
//! [`er_matrix::matmul_into`], and gathers slot `i → j` back from
//! `Z[j, i]`. `Mtᵀ` is scattered once per component. `Z[j, i]` sums the
//! products `M[v,j] · Mt[i,v]` of `(Mt × M)[i,j]` = `matmul_into(Mt, M)`
//! in the same ascending `v` and the same `KC` panels, and `a · b = b · a`
//! exactly, so at every component size it is bitwise the dense product
//! of `Mt` and the masked iterate. Below `KC` it also equals the gather
//! bit for bit.
//!
//! # Exact early exit
//!
//! The recurrence stops as soon as a step provably changes nothing,
//! whichever kernel forms the product. Under [`Recurrence::PaperEq15`]
//! that is a step whose product is all zero: every later product is then
//! zero too, and the sum would only gain `+0.0`. Under
//! [`Recurrence::FirstPassage`] it is a step whose iterate equals the
//! previous one bit for bit: the step is a deterministic map of the
//! iterate, so it stays at that fixed point. A masked component with no
//! triangle stops after one step. The test reads the whole vector after
//! the step has joined, so a pooled and a serial solve stop at the same
//! step.
//!
//! All working vectors live in a caller-owned `SparseScratch` and are
//! rebuilt with `clear()` + `push`/`resize` inside their existing
//! capacity, so a stream of components solved through one scratch runs
//! with zero steady-state allocations.

use std::ops::Range;

use er_graph::RecordGraph;
use er_matrix::{matmul_into, Matrix, MatrixArena, PackScratch};
use er_pool::WorkerPool;

use crate::cliquerank::pair_index;
use crate::config::{CliqueRankConfig, Recurrence};

/// Reusable buffers for one component's recurrence: the local CSR over
/// the edge set, the per-edge coefficients and the recurrence vectors.
/// All sized by the component and reused across components.
#[derive(Debug, Default)]
pub(crate) struct SparseScratch {
    /// Row offsets per local node (`nc + 1` entries).
    row_start: Vec<usize>,
    /// Target local id per slot, ascending within each row.
    tgt: Vec<u32>,
    /// Mirror slot per slot: slot `(j, i)` for slot `(i, j)`.
    rev: Vec<u32>,
    /// Row-normalized transition `Mt[i, tgt[p]]` per slot `p` of row `i`.
    mt: Vec<f64>,
    /// Expected boosted hit probability per edge (`H`, which is Eq. 12's
    /// `Mb`), incoming-edge order.
    hit: Vec<f64>,
    /// Expected continuation scale per edge (`C`), incoming-edge order.
    cont: Vec<f64>,
    /// Recurrence double buffers and the Eq. 15 sum, incoming-edge
    /// order. The final values end in `cur`.
    cur: Vec<f64>,
    next: Vec<f64>,
    acc: Vec<f64>,
}

impl SparseScratch {
    /// Rebuilds the local CSR over one component's edge set and every
    /// per-edge coefficient inside the existing buffers. The edge set is
    /// the adjacency with `mask` on, and every ordered pair (diagonal
    /// included, weight 0 off the graph's edges) with it off. `bonus` is
    /// the `(1 + b)^α` sample vector.
    pub(crate) fn build(
        &mut self,
        graph: &RecordGraph,
        members: &[u32],
        local_of: &[u32],
        alpha: f64,
        bonus: &[f64],
        mask: bool,
    ) {
        let nc = members.len();
        self.row_start.clear();
        self.row_start.push(0);
        self.tgt.clear();
        for &g in members {
            if mask {
                // `members` is sorted ascending and local ids follow that
                // order, so global neighbor order == local target order.
                let neighbors = graph.neighbors(g).0;
                self.tgt
                    .extend(neighbors.iter().map(|&nb| local_of[nb as usize]));
            } else {
                self.tgt.extend(0..nc as u32);
            }
            self.row_start.push(self.tgt.len());
        }
        let m = self.tgt.len();
        // Mirror slots via binary search in the opposite row.
        self.rev.clear();
        for i in 0..nc {
            for &j in &self.tgt[self.row_start[i]..self.row_start[i + 1]] {
                let (js, je) = (self.row_start[j as usize], self.row_start[j as usize + 1]);
                let pos = self.tgt[js..je]
                    .binary_search(&(i as u32))
                    .expect("undirected graph: reverse edge must exist"); // er-lint: allow(panic) -- CSR rows mirror every undirected edge in both directions
                self.rev.push((js + pos) as u32);
            }
        }

        // Row by row: the α-scaled edge powers a = (w / (2 · rowmax))^α
        // (Eq. 11, [`row_scaled`]) into `mt`, summed in neighbor order;
        // then `H` and `C` (Eq. 12) where a > 0, at the edge's
        // incoming-order slot; then `mt` normalized in place. Where a = 0,
        // `H = 0` and `C = 1`: the boost does not apply and the row is
        // normalized without a boosted entry.
        self.mt.clear();
        self.mt.resize(m, 0.0);
        self.hit.clear();
        self.hit.resize(m, 0.0);
        self.cont.clear();
        self.cont.resize(m, 1.0);
        for (li, &g) in members.iter().enumerate() {
            let (s, e) = (self.row_start[li], self.row_start[li + 1]);
            let row = &mut self.mt[s..e];
            let (neighbors, sims) = graph.neighbors(g);
            let row_max = sims.iter().fold(0.0f64, |m, &v| m.max(v));
            debug_assert!(row_max > 0.0, "component member with no positive edge");
            let mut sum = 0.0;
            for (k, (&nb, &sim)) in neighbors.iter().zip(sims).enumerate() {
                let v = row_scaled(sim, row_max).powf(alpha);
                let slot = if mask {
                    k
                } else {
                    local_of[nb as usize] as usize
                };
                row[slot] = v;
                sum += v;
            }
            for (&aij, &p) in row.iter().zip(&self.rev[s..e]) {
                if aij <= 0.0 {
                    continue;
                }
                let rest = (sum - aij).max(0.0);
                let (mut h, mut c) = (0.0, 0.0);
                for &beta in bonus {
                    let denom = beta * aij + rest;
                    h += beta * aij / denom;
                    c += sum / denom;
                }
                self.hit[p as usize] = h / bonus.len() as f64;
                self.cont[p as usize] = c / bonus.len() as f64;
            }
            for v in row {
                *v /= sum;
            }
        }
        er_matrix::invariant::debug_validate("CliqueRank transition matrix Mt", || {
            validate_row_stochastic(&self.row_start, &self.mt, 1e-9)
        });
    }

    /// Runs the recurrence from the built coefficients until
    /// `config.steps` or the early exit, each step forming its product
    /// through `product`. Leaves the final per-edge values (the Eq. 15
    /// sum, or the first-passage iterate) in `cur`, in incoming-edge
    /// order, and returns the number of steps run: `config.steps − 1`,
    /// or fewer after an early exit.
    pub(crate) fn recur(&mut self, config: &CliqueRankConfig, product: &mut Product<'_>) -> usize {
        let SparseScratch {
            row_start,
            tgt,
            mt,
            hit,
            cont,
            cur,
            next,
            acc,
            ..
        } = self;
        // The CSR and the coefficients are read-only from here on;
        // reborrow shared so recurrence jobs can capture them.
        let csr = Csr { row_start, tgt, mt };
        let (hit, cont): (&[f64], &[f64]) = (hit, cont);
        cur.clear();
        cur.extend_from_slice(hit);
        next.clear();
        next.resize(tgt.len(), 0.0);
        let mut steps_run = 0;
        match config.recurrence {
            Recurrence::PaperEq15 => {
                // M¹ = Mb = H; the sum gains M^k while the product is
                // nonzero.
                acc.clear();
                acc.extend_from_slice(hit);
                for _ in 2..=config.steps {
                    product.step(csr, cur, next, &|_, g| g);
                    steps_run += 1;
                    if next.iter().all(|&v| v == 0.0) {
                        break;
                    }
                    for (av, &n) in acc.iter_mut().zip(next.iter()) {
                        *av += n;
                    }
                    std::mem::swap(cur, next);
                }
                std::mem::swap(cur, acc);
            }
            Recurrence::FirstPassage => {
                // G¹ = H; G^k = H + C ⊙ (Mt × masked(G^{k−1})) until a
                // fixed point.
                for _ in 2..=config.steps {
                    product.step(csr, cur, next, &|p, g| hit[p] + cont[p] * g);
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
            }
        }
        if steps_run + 1 < config.steps {
            er_obs::counter_add("cliquerank_early_exits_total", 1);
        }
        steps_run
    }

    /// Symmetrizes the final values with per-direction clamping and
    /// writes each of the component's graph edges into `out`. Slot `p`
    /// of row `li` holds `tgt[p] → li`; the opposite direction sits at
    /// its mirror slot. With the mask off the edge set also holds
    /// non-edges, so each graph edge finds its slot by binary search.
    pub(crate) fn write_out(
        &self,
        graph: &RecordGraph,
        members: &[u32],
        local_of: &[u32],
        config: &CliqueRankConfig,
        out: &mut [f64],
    ) {
        for (li, &g) in members.iter().enumerate() {
            let s = self.row_start[li];
            let row = &self.tgt[s..self.row_start[li + 1]];
            for &nb in graph.neighbors(g).0 {
                if nb <= g {
                    continue;
                }
                let p = s + row
                    .binary_search(&local_of[nb as usize])
                    .expect("every graph edge is in the edge set"); // er-lint: allow(panic) -- `build` puts every neighbor in its row
                let (mut fwd, mut bwd) = (self.cur[self.rev[p] as usize], self.cur[p]);
                if config.clamp {
                    fwd = fwd.clamp(0.0, 1.0);
                    bwd = bwd.clamp(0.0, 1.0);
                }
                out[pair_index(graph, g, nb)] = 0.5 * (fwd + bwd);
            }
        }
    }
}

/// Eq. 11's row scaling `w / (2 · row_max)`, shared by CliqueRank and
/// RSS. It keeps `powf` in range for any similarity magnitude (it cancels
/// in the row's normalization), and the factor 2 leaves headroom for the
/// `(1 + b) ≤ 2` bonus. Where `2 · row_max` overflows, for a weight above
/// `f64::MAX / 2`, `w` is halved before the division instead, so the
/// quotient stays in `[0, 1/2]`; wherever `2 · row_max` is finite the
/// bits are those of the plain division.
pub(crate) fn row_scaled(w: f64, row_max: f64) -> f64 {
    let scale = 2.0 * row_max;
    if scale.is_finite() {
        w / scale
    } else {
        0.5 * w / row_max
    }
}

/// Checks that every CSR row of `mt` is a probability distribution:
/// entries in `[0, 1]` and each row summing to 1 within `tol`, or to
/// exactly 0.
fn validate_row_stochastic(row_start: &[usize], mt: &[f64], tol: f64) -> Result<(), String> {
    for (i, w) in row_start.windows(2).enumerate() {
        let row = &mt[w[0]..w[1]];
        if let Some(v) = row.iter().find(|v| !(0.0..=1.0 + tol).contains(*v)) {
            return Err(format!(
                "row {i} has transition probability {v} outside [0, 1]"
            ));
        }
        let sum: f64 = row.iter().sum();
        if sum != 0.0 && (sum - 1.0).abs() > tol {
            return Err(format!(
                "row {i} sums to {sum} (want 1 ± {tol} or exactly 0)"
            ));
        }
    }
    Ok(())
}

/// The read-only CSR a recurrence step reads.
#[derive(Debug, Clone, Copy)]
struct Csr<'a> {
    row_start: &'a [usize],
    tgt: &'a [u32],
    mt: &'a [f64],
}

/// How a recurrence step multiplies the iterate by `Mt`: the one place
/// the two kernels differ.
#[derive(Debug)]
pub(crate) enum Product<'s> {
    /// The column gather, inline or with one pool job per row band, each
    /// band with its own `nc`-double column buffer of `cols`.
    Gather {
        bands: Vec<Range<usize>>,
        pool: Option<&'s WorkerPool>,
        cols: &'s mut [f64],
    },
    /// The packed GEMM `Z = Y × Mtᵀ`, with `Y = Mᵀ` scattered from the
    /// iterate each step.
    Gemm {
        y: Matrix,
        mtt: Matrix,
        z: Matrix,
        pool: Option<&'s WorkerPool>,
        pack: &'s mut PackScratch,
    },
}

impl<'s> Product<'s> {
    /// The gather over `edges`' CSR, its column buffers in `cols`. With a
    /// pool (the caller has already made the dispatch decision), each
    /// step fans row bands out as jobs; the split depends only on the
    /// CSR, so every step reuses it.
    pub(crate) fn gather(
        edges: &SparseScratch,
        pool: Option<&'s WorkerPool>,
        cols: &'s mut Vec<f64>,
    ) -> Self {
        let bands = pool.map_or_else(Vec::new, |p| {
            edge_balanced_row_ranges(&edges.row_start, p.threads() * 2)
        });
        let pool = pool.filter(|_| bands.len() > 1);
        let nc = edges.row_start.len() - 1;
        cols.clear();
        cols.resize(nc * bands.len().max(1), 0.0);
        Self::Gather { bands, pool, cols }
    }

    /// The GEMM over `edges`, its three `nc × nc` operands from `arena`
    /// and `Mtᵀ` scattered once. `matmul_into` takes the pool and makes
    /// its own dispatch decision per product.
    pub(crate) fn gemm(
        edges: &SparseScratch,
        arena: &mut MatrixArena,
        pool: Option<&'s WorkerPool>,
        pack: &'s mut PackScratch,
    ) -> Self {
        let nc = edges.row_start.len() - 1;
        let y = arena.take(nc, nc);
        let mut mtt = arena.take(nc, nc);
        let z = arena.take(nc, nc);
        for i in 0..nc {
            for p in edges.row_start[i]..edges.row_start[i + 1] {
                mtt.set(edges.tgt[p] as usize, i, edges.mt[p]);
            }
        }
        Self::Gemm {
            y,
            mtt,
            z,
            pool,
            pack,
        }
    }

    /// Returns the GEMM operands to `arena`.
    pub(crate) fn recycle(self, arena: &mut MatrixArena) {
        if let Self::Gemm { y, mtt, z, .. } = self {
            arena.recycle(y);
            arena.recycle(mtt);
            arena.recycle(z);
        }
    }

    /// One recurrence step: for every slot `p` of every row `j` (edge
    /// `i → j` with `i = tgt[p]`), writes `f(p, (Mt × M)[i, j])` into
    /// `next[p]`, where `M` is the iterate `cur`.
    fn step<F: Fn(usize, f64) -> f64 + Sync>(
        &mut self,
        csr: Csr<'_>,
        cur: &[f64],
        next: &mut [f64],
        f: &F,
    ) {
        match self {
            Self::Gather { bands, pool, cols } => gather(csr, bands, *pool, cur, next, cols, f),
            Self::Gemm {
                y,
                mtt,
                z,
                pool,
                pack,
            } => {
                let Csr { row_start, tgt, .. } = csr;
                let nc = row_start.len() - 1;
                for j in 0..nc {
                    let (lo, hi) = (row_start[j], row_start[j + 1]);
                    let y_row = y.row_mut(j);
                    for (&v, &m) in tgt[lo..hi].iter().zip(&cur[lo..hi]) {
                        y_row[v as usize] = m;
                    }
                }
                matmul_into(y, mtt, z, *pool, pack);
                for j in 0..nc {
                    let (lo, hi) = (row_start[j], row_start[j + 1]);
                    let z_row = z.row(j);
                    for ((p, &i), slot) in (lo..hi).zip(&tgt[lo..hi]).zip(&mut next[lo..hi]) {
                        *slot = f(p, z_row[i as usize]);
                    }
                }
            }
        }
    }
}

/// The gather over the target rows `rows`, the one row function of both
/// the serial and the pooled gather. For every slot `p` of those rows —
/// edge `i → j` with `i = tgt[p]` — writes
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

/// One gather step into `next`: inline over every row, or with one pool
/// job per row band, each writing its own contiguous `next` slice
/// through its own `nc`-double column buffer of `cols`. Every slot is
/// computed by [`step_rows`] either way, so the bits do not depend on
/// the band split.
fn gather<F: Fn(usize, f64) -> f64 + Sync>(
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
    // er-lint: allow(dispatch) -- `solve_component` gates the pool on `dispatch(cost.work)` before building the gather
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

/// Estimated per-step cost of the gather for a component: its
/// `Σ_i deg(i)²` multiply-adds. Allocation-free (it runs on every
/// component, before kernel selection).
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
/// directed-edge count — the row bands of the pooled gather. Depends
/// only on the CSR shape and `parts`, never on timing.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cliquerank::{bonus_samples_into, solve_component, CliqueScratch, ComponentCost};
    use crate::config::{BoostMode, Kernel};
    use er_graph::bipartite::PairNode;
    use er_matrix::matmul_naive;
    use proptest::prelude::*;

    /// CliqueRank on a 1-thread pool, without a cache.
    fn run_cliquerank(g: &RecordGraph, config: &CliqueRankConfig) -> Vec<f64> {
        crate::run_cliquerank(g, config, &WorkerPool::new(1))
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
            let comps = g.components();
            for members in comps.iter().filter(|m| m.len() >= 2) {
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
        scratch.build(graph, members, local_of, config.alpha, bonus, true);
        let SparseScratch {
            row_start,
            tgt,
            rev,
            mt,
            hit,
            cont,
            ..
        } = &scratch;
        // The builder lays `H` and `C` out in incoming-edge order; the
        // merge reads them in out-edge order.
        let hit: Vec<f64> = rev.iter().map(|&p| hit[p as usize]).collect();
        let cont: Vec<f64> = rev.iter().map(|&p| cont[p as usize]).collect();
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
        let comps = g.components();
        for members in comps.iter().filter(|m| m.len() >= 2) {
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

    /// The dense recurrence the GEMM step replaced, kept as the oracle of
    /// both steps: its own Eq. 11–12 build into `nc × nc` matrices, the
    /// `⊙ Mn` mask (none with the mask off), `matmul_naive`, every one of
    /// the `steps − 1` steps with no early exit, and the symmetrizing
    /// write-out.
    fn solve_component_dense(
        graph: &RecordGraph,
        members: &[u32],
        local_of: &[u32],
        config: &CliqueRankConfig,
        bonus: &[f64],
        out: &mut [f64],
    ) {
        let nc = members.len();
        let mut a = Matrix::zeros(nc, nc);
        let mut edge = vec![false; nc * nc];
        let mut row_sums = vec![0.0; nc];
        for (li, &g) in members.iter().enumerate() {
            let (neighbors, sims) = graph.neighbors(g);
            let row_max = sims.iter().fold(0.0f64, |m, &v| m.max(v));
            for (&nb, &sim) in neighbors.iter().zip(sims) {
                let lj = local_of[nb as usize] as usize;
                let v = row_scaled(sim, row_max).powf(config.alpha);
                a.set(li, lj, v);
                edge[li * nc + lj] = true;
                row_sums[li] += v;
            }
        }
        let mut mt = Matrix::zeros(nc, nc);
        let mut h = Matrix::zeros(nc, nc);
        let mut c = Matrix::from_fn(nc, nc, |_, _| 1.0);
        for (i, &sum) in row_sums.iter().enumerate() {
            for j in 0..nc {
                let aij = a.get(i, j);
                if aij <= 0.0 {
                    continue;
                }
                mt.set(i, j, aij / sum);
                let rest = (sum - aij).max(0.0);
                let (mut hit, mut cont) = (0.0, 0.0);
                for &beta in bonus {
                    let denom = beta * aij + rest;
                    hit += beta * aij / denom;
                    cont += sum / denom;
                }
                h.set(i, j, hit / bonus.len() as f64);
                c.set(i, j, cont / bonus.len() as f64);
            }
        }
        let product = |m: &Matrix| {
            let masked = Matrix::from_fn(nc, nc, |i, j| {
                if edge[i * nc + j] || !config.neighbor_mask {
                    m.get(i, j)
                } else {
                    0.0
                }
            });
            matmul_naive(&mt, &masked)
        };
        let fin = match config.recurrence {
            Recurrence::PaperEq15 => {
                let (mut m, mut acc) = (h.clone(), h.clone());
                for _ in 2..=config.steps {
                    m = product(&m);
                    acc = acc.add(&m);
                }
                acc
            }
            Recurrence::FirstPassage => {
                let mut g = h.clone();
                for _ in 2..=config.steps {
                    let p = product(&g);
                    g = Matrix::from_fn(nc, nc, |i, j| p.get(i, j) * c.get(i, j) + h.get(i, j));
                }
                g
            }
        };
        for (li, &g) in members.iter().enumerate() {
            for &nb in graph.neighbors(g).0 {
                if nb <= g {
                    continue;
                }
                let lj = local_of[nb as usize] as usize;
                let (mut fwd, mut bwd) = (fin.get(li, lj), fin.get(lj, li));
                if config.clamp {
                    fwd = fwd.clamp(0.0, 1.0);
                    bwd = bwd.clamp(0.0, 1.0);
                }
                out[pair_index(graph, g, nb)] = 0.5 * (fwd + bwd);
            }
        }
    }

    /// Solves one component through `solve_component` with its step
    /// forced: the gather for [`Kernel::Sparse`] (over `pool`'s row bands
    /// when given), the GEMM otherwise. Returns the steps run.
    #[allow(clippy::too_many_arguments)]
    fn solve_forced(
        g: &RecordGraph,
        members: &[u32],
        local_of: &[u32],
        cfg: &CliqueRankConfig,
        kernel: Kernel,
        pool: Option<&WorkerPool>,
        out: &mut [f64],
        scratch: &mut CliqueScratch,
    ) -> usize {
        let cost = ComponentCost {
            sparse: kernel == Kernel::Sparse,
            work: usize::MAX,
        };
        let mut bonus = Vec::new();
        bonus_samples_into(cfg, &mut bonus);
        solve_component(g, members, local_of, cost, cfg, &bonus, pool, out, scratch)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts that the serial gather and the gather pooled over row bands
    /// both equal the merge oracle bit for bit on every component of `g`,
    /// and stop at the same step; returns each component's step count.
    fn assert_gather_matches_merge(
        g: &RecordGraph,
        cfg: &CliqueRankConfig,
        pool: &WorkerPool,
    ) -> Vec<usize> {
        let mut bonus = Vec::new();
        bonus_samples_into(cfg, &mut bonus);
        let (want, _) = solve_each(g, |members, local_of, out| {
            solve_component_merge(g, members, local_of, cfg, &bonus, out);
        });
        let mut scratch = CliqueScratch::default();
        let (serial, steps) = solve_each(g, |members, local_of, out| {
            solve_forced(
                g,
                members,
                local_of,
                cfg,
                Kernel::Sparse,
                None,
                out,
                &mut scratch,
            )
        });
        let (pooled, pooled_steps) = solve_each(g, |members, local_of, out| {
            let pool = Some(pool);
            solve_forced(
                g,
                members,
                local_of,
                cfg,
                Kernel::Sparse,
                pool,
                out,
                &mut scratch,
            )
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

    /// Asserts that the gather and the GEMM step both equal the dense
    /// oracle bit for bit on every component of `g` (below `KC`, where
    /// `matmul_naive` and the packed kernel sum in the same order), and
    /// stop at the same step; returns each component's step count.
    fn assert_steps_match_dense(g: &RecordGraph, cfg: &CliqueRankConfig) -> Vec<usize> {
        let mut bonus = Vec::new();
        bonus_samples_into(cfg, &mut bonus);
        let (want, _) = solve_each(g, |members, local_of, out| {
            solve_component_dense(g, members, local_of, cfg, &bonus, out);
        });
        let mut scratch = CliqueScratch::default();
        let (gather, gather_steps) = solve_each(g, |members, local_of, out| {
            solve_forced(
                g,
                members,
                local_of,
                cfg,
                Kernel::Sparse,
                None,
                out,
                &mut scratch,
            )
        });
        let (gemm, gemm_steps) = solve_each(g, |members, local_of, out| {
            solve_forced(
                g,
                members,
                local_of,
                cfg,
                Kernel::Dense,
                None,
                out,
                &mut scratch,
            )
        });
        assert_eq!(bits(&gather), bits(&want), "gather vs dense: {cfg:?}");
        assert_eq!(bits(&gemm), bits(&want), "GEMM vs dense: {cfg:?}");
        assert_eq!(
            gather_steps, gemm_steps,
            "gather and GEMM stop apart: {cfg:?}"
        );
        gemm_steps
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

        #[test]
        fn gather_and_gemm_equal_the_dense_oracle_bit_for_bit(
            g in spread_graph(),
            steps in 1usize..=20,
        ) {
            for neighbor_mask in [true, false] {
                for cfg in oracle_configs(steps) {
                    assert_steps_match_dense(&g, &CliqueRankConfig { neighbor_mask, ..cfg });
                }
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
                    let gemm = assert_steps_match_dense(&g, &cfg);
                    assert_eq!(gemm, ran, "GEMM steps: steps={steps} {cfg:?}");
                }
            }
        }
    }
}
