//! ITER — Iterative Term-Entity Ranking (§V, Algorithm 1).
//!
//! On the bipartite graph between terms and record-pair nodes, ITER
//! alternates two propagation rules until the term weights converge:
//!
//! * pair update (Eq. 7): `s(ri, rj) ← Σ_{t ∈ ri ∧ t ∈ rj} x_t`
//! * term update (Eq. 6): `x_t ← Σ_{(ri,rj) ∋ t} p(ri, rj) · s(ri, rj) / P_t`
//!
//! followed by the normalization `x_t ← 1 / (1 + 1/x_t)` (line 7). `P_t`
//! is the number of candidate pairs incident to `t`
//! ([`BipartiteGraph::pt`]). The `P_t` denominator is the decisive
//! difference from PageRank-style propagation: it dilutes common terms by
//! the number of pairs they touch, which is exactly what makes `x_t`
//! estimate discrimination power rather than hub centrality (§V-C).
//!
//! The matching probability `p(ri, rj)` enters as the bipartite edge
//! weight — uniform 1 (or a seed similarity) on the first fusion round,
//! CliqueRank's output on later rounds.
//!
//! # What a sweep visits
//!
//! A pair at `p = 0` adds exactly `+0.0` to Eq. 6, and a term with
//! `P_t = 0` keeps the weight 0. After the first fusion round CliqueRank
//! leaves `p = 0` on every pair outside the record graph (96% of the
//! candidates on an Abt-Buy-like product set), so a sweep visits only
//! what can move. Each run first fills a compact live view in its
//! [`IterScratch`]: the `P_t > 0` terms get dense local ids in ascending
//! term order, with their weight and the sweep's Eq. 6 sum interleaved
//! as `[x, acc]` per term; each `p > 0` pair's term row is rewritten in
//! those local ids; and the live pairs' `p` fill the front of the `s`
//! buffer, which the final Eq. 7 pass overwrites.
//!
//! A sweep is one pass over the live pairs in ascending id order. It
//! zeroes every `acc`, then for each live pair sums `x` over the pair's
//! row (Eq. 7) and adds `p · s` to each of those terms' `acc`, so the row
//! is read twice while it is in cache. It then walks the live terms
//! once: `acc / P_t` with the full `P_t`, the normalization (L2 takes a
//! second walk for its norm), and the convergence delta in ascending
//! term order, updating `x` in place.
//!
//! No bit moves against a sweep over every edge. Every term row lists
//! its pair ids ascending ([`BipartiteGraph::validate`]), so each `acc`
//! receives the same addends in the same order as a gather over the
//! term's row, and a dead pair only ever added `+0.0` to that
//! non-negative sum. A `P_t = 0` term adds `+0.0` to the norm and to the
//! delta, which moves only the sign of a zero (`sum_over_terms`). The
//! random initialization draws for the live terms in ascending order,
//! the draws the `P_t > 0` terms take in a walk over every term, and the
//! final Eq. 7 pass covers every pair, so
//! [`IterOutcome::pair_similarities`] holds `s` for every pair.
//!
//! Two variants lost to this layout (2-vCPU host, one thread). Storing
//! `p · s` in a pair pass and scattering it in a second pass reads every
//! row twice from memory instead of once while it is in cache: ITER on
//! the e2e paper workload rose from 0.057 to 0.083 s. Keeping the
//! graph's term ids in the rows spreads the live weights over the whole
//! term range, dead terms included, so more of the gather and scatter
//! misses cache: census ITER read 0.078–0.100 s against the compact
//! ids' 0.070 s.
//!
//! # Parallelism and determinism
//!
//! A scatter into `acc` cannot be split across threads without ordering
//! the adds, so a pooled run (past the live-edge dispatch cutover) keeps
//! the two-pass gather over the same view: the pool splits the live
//! pairs into jobs that write disjoint `split_at_mut` ranges of a `p · s`
//! buffer, then the live terms into jobs that sum that buffer over the
//! view's transpose into their `acc`. The transpose lists each term's
//! live pairs ascending, the order the fused sweep adds them in, and is
//! built only when the run is pooled. The term walk (division,
//! normalization, delta) stays serial, so every thread count produces
//! bit-identical weights.

use std::mem;
use std::ops::Range;

use er_graph::BipartiteGraph;
use er_pool::WorkerPool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{IterConfig, Normalization};

/// Minimum terms/pairs per pool job; below this, scheduling overhead
/// exceeds the loop body.
const MIN_CHUNK: usize = 512;

/// Most sweeps whose deltas a run reserves before its first sweep: far
/// past any sweep cap in use, and a bound on what an unbounded
/// `max_iterations` reserves.
const RESERVED_SWEEPS: usize = 1 << 16;

/// Reusable buffers for [`run_iter_into`].
///
/// An ITER run needs three working vectors (`x`, `s`, `deltas`) and the
/// live view of the graph its sweeps visit. The vectors leave the run
/// inside the [`IterOutcome`]; the scratch keeps the live view, and
/// [`IterScratch::recycle`] puts a consumed outcome's vectors back. A
/// caller that recycles the previous round's outcome before the next run
/// (as the fusion loop does) therefore runs every ITER sweep after the
/// first with zero steady-state allocations.
#[derive(Debug, Default)]
pub struct IterScratch {
    x: Vec<f64>,
    s: Vec<f64>,
    deltas: Vec<f64>,
    live: LiveView,
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

/// The part of the graph one run's sweeps read, renumbered densely: the
/// terms with `P_t > 0`, the pairs with `p > 0` and the term–pair edges
/// between them (see the module doc). The buffers stay in the scratch
/// for the next run, so each grows to exactly what it holds: doubling
/// slack would stay allocated for the whole fusion.
#[derive(Debug, Default)]
struct LiveView {
    /// Terms with `P_t > 0`, ascending: term `terms[j]` has local id `j`.
    terms: Vec<u32>,
    /// Local id of each term of the graph; read only for live terms.
    local: Vec<u32>,
    /// `[x, acc]` per live term: its weight, and the sweep's Eq. 6 sum.
    xa: Vec<[f64; 2]>,
    /// `rows[offsets[i]..offsets[i + 1]]` holds the local term ids of the
    /// `i`-th live pair (in ascending pair id order), ascending.
    offsets: Vec<u32>,
    rows: Vec<u32>,
    /// The pooled sweep's buffers, filled only when the run is pooled.
    pooled: Transpose,
}

/// The transpose of the live rows and the pooled pair pass's output.
#[derive(Debug, Default)]
struct Transpose {
    /// `pairs[offsets[j]..offsets[j + 1]]` holds the live pair indices of
    /// local term `j`, ascending.
    offsets: Vec<u32>,
    pairs: Vec<u32>,
    /// `p · s` per live pair.
    ps: Vec<f64>,
}

impl LiveView {
    /// Refills the view for `graph` under `edge_prob`, and `p` with the
    /// live pairs' probabilities in pair id order.
    fn fill(&mut self, graph: &BipartiteGraph, edge_prob: &[f64], p: &mut Vec<f64>) {
        let n_terms = graph.term_count();
        refill(
            &mut self.terms,
            (0..n_terms as u32).filter(|&t| graph.pt(t) > 0),
        );
        resize_exact(&mut self.local, n_terms, 0);
        for (j, &t) in self.terms.iter().enumerate() {
            self.local[t as usize] = j as u32;
        }
        let live = || {
            edge_prob
                .iter()
                .enumerate()
                .filter(|(_, &prob)| prob > 0.0)
                .map(|(i, &prob)| (graph.terms_of_pair(i as u32), prob))
        };
        let (n_live, edges) = live().fold((0, 0), |(n, e), (row, _)| (n + 1, e + row.len()));
        // Refuse a view `u32` offsets cannot index before allocating it.
        edge_offset(edges);
        p.clear();
        p.reserve_exact(edge_prob.len());
        self.offsets.clear();
        self.offsets.reserve_exact(n_live + 1);
        self.offsets.push(0);
        self.rows.clear();
        self.rows.reserve_exact(edges);
        let local = &self.local;
        for (row, prob) in live() {
            p.push(prob);
            self.rows.extend(row.iter().map(|&t| local[t as usize]));
            self.offsets.push(edge_offset(self.rows.len()));
        }
    }

    /// Fills [`Transpose`] by a counting sort of the rows: each term's
    /// live pairs come out in ascending order, the order the fused sweep
    /// adds them to its `acc`.
    fn fill_transpose(&mut self) {
        let n_terms = self.terms.len();
        let n_pairs = self.offsets.len() - 1;
        let t = &mut self.pooled;
        resize_exact(&mut t.offsets, n_terms + 1, 0);
        for &j in &self.rows {
            t.offsets[j as usize + 1] += 1;
        }
        for j in 0..n_terms {
            t.offsets[j + 1] += t.offsets[j];
        }
        // Placing a pair moves its term's offset one slot on, so each
        // offset ends at its row's end, the next row's start; shifting by
        // one slot restores the starts.
        resize_exact(&mut t.pairs, self.rows.len(), 0);
        for (i, w) in self.offsets.windows(2).enumerate() {
            for &j in &self.rows[w[0] as usize..w[1] as usize] {
                let slot = &mut t.offsets[j as usize];
                t.pairs[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        t.offsets.copy_within(..n_terms, 1);
        t.offsets[0] = 0;
        resize_exact(&mut t.ps, n_pairs, 0.0);
    }
}

/// Sets `v`'s length to `n`, growing it to exactly `n` when it must grow;
/// new slots get `value`.
fn resize_exact<T: Copy>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.reserve_exact(n);
    v.resize(n, value);
}

/// `n` as a `u32` offset into the view's rows.
///
/// # Panics
/// If the live view holds more than `u32::MAX` term–pair edges.
fn edge_offset(n: usize) -> u32 {
    // er-lint: allow(panic) -- refused by name before the view is allocated
    u32::try_from(n).expect("ITER live view: more than u32::MAX live term–pair edges")
}

/// Refills `v` with `items`, growing it to exactly their count.
fn refill(v: &mut Vec<u32>, items: impl Iterator<Item = u32> + Clone) {
    v.clear();
    v.reserve_exact(items.clone().count());
    v.extend(items);
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
    // The live pairs' `p` fill the front of `s` until the final pass.
    let mut s = mem::take(&mut scratch.s);
    let live = &mut scratch.live;
    live.fill(graph, edge_prob, &mut s);

    // One dispatch decision per run: every sweep walks each live
    // (term, pair) edge twice, so the live edge count estimates the
    // per-sweep work. Below the cutover the pool is dropped here and the
    // whole loop runs inline with zero coordination (restaurant/cora-sized
    // graphs lost more to scope bookkeeping per iteration than the chunks
    // earned back).
    let pool = Some(pool).filter(|p| p.dispatch(live.rows.len()).is_parallel());
    if pool.is_some() {
        live.fill_transpose();
    }

    // Line 1: random initialization of x_t in (0, 1) for the terms with
    // P_t > 0, in ascending order; the others never receive mass and
    // stay 0.
    let mut rng = SmallRng::seed_from_u64(config.seed);
    live.xa.clear();
    live.xa.reserve_exact(live.terms.len());
    live.xa.extend(
        live.terms
            .iter()
            .map(|_| [rng.random_range(0.01..1.0), 0.0]),
    );
    // Reserved up front: a later fusion round may sweep longer than the
    // first.
    let mut deltas = mem::take(&mut scratch.deltas);
    deltas.clear();
    deltas.reserve_exact(config.max_iterations.min(RESERVED_SWEEPS));
    let mut converged = false;
    let mut iterations = 0;

    while iterations < config.max_iterations {
        iterations += 1;
        let _sweep = er_obs::span("sweep");
        // Line 3–6: Eq. 7 for the live pairs, and each live term's sum of
        // `p · s` into its `acc`.
        match pool {
            None => fused_sweep(&live.offsets, &live.rows, &s, &mut live.xa),
            Some(pool) => pooled_sweep(live, &s, pool),
        }
        // Line 6–7: divide, normalize, and measure the delta on the
        // *normalized* weights — those are what the fixed point is
        // defined over.
        let delta = term_walk(graph, &live.terms, &mut live.xa, config.normalization);
        deltas.push(delta);
        if delta < config.tolerance {
            converged = true;
            break;
        }
    }
    er_obs::counter_add(
        "iter_edge_visits_total",
        (live.rows.len() * iterations) as u64,
    );
    let mut x = mem::take(&mut scratch.x);
    x.clear();
    x.resize(n_terms, 0.0);
    for (&t, slot) in live.terms.iter().zip(&live.xa) {
        x[t as usize] = slot[0];
    }
    // Final similarities from the converged weights, over every pair, so
    // callers see a consistent (x, s) fixed-point pair.
    s.resize(graph.pair_count(), 0.0);
    fan_out(pool, &mut s, |pairs, out| {
        similarities_range(graph, &x, out, pairs.start);
    });

    IterOutcome {
        term_weights: x,
        pair_similarities: s,
        iterations,
        deltas,
        converged,
    }
}

/// One serial sweep (see the module doc): zeroes every `acc`, then for
/// each live pair, in ascending id order, sums `x` over its row (Eq. 7)
/// and adds `p · s` to each of those terms' `acc`. `p` holds the live
/// pairs' probabilities at its front.
// er-lint: zero-alloc
fn fused_sweep(offsets: &[u32], rows: &[u32], p: &[f64], xa: &mut [[f64; 2]]) {
    for slot in xa.iter_mut() {
        slot[1] = 0.0;
    }
    for (w, &p) in offsets.windows(2).zip(p) {
        let row = &rows[w[0] as usize..w[1] as usize];
        let ps = p * local_similarity(row, xa);
        for &j in row {
            xa[j as usize][1] += ps;
        }
    }
}

/// The pooled sweep: [`pair_rows`] into the transpose's `p · s` buffer,
/// then [`term_rows`] into each live term's `acc`, each pass split into
/// pool jobs over disjoint ranges.
fn pooled_sweep(live: &mut LiveView, p: &[f64], pool: &WorkerPool) {
    let LiveView {
        offsets,
        rows,
        xa,
        pooled: t,
        ..
    } = live;
    let (offsets, rows, x) = (&offsets[..], &rows[..], &xa[..]);
    fan_out(Some(pool), &mut t.ps[..], |items, out| {
        pair_rows(offsets, rows, p, x, items, out);
    });
    let (t_offsets, pairs, ps) = (&t.offsets[..], &t.pairs[..], &t.ps[..]);
    fan_out(Some(pool), &mut xa[..], |terms, out| {
        term_rows(t_offsets, pairs, ps, terms, out);
    });
}

/// Eq. 7 over a live pair's local term ids.
fn local_similarity(row: &[u32], xa: &[[f64; 2]]) -> f64 {
    row.iter().map(|&j| xa[j as usize][0]).sum()
}

/// Eq. 7 for the live pairs `items`, scaled by `p`:
/// `out[i − items.start] = p_i · s_i`, which is the product the term
/// update adds.
// er-lint: zero-alloc
fn pair_rows(
    offsets: &[u32],
    rows: &[u32],
    p: &[f64],
    xa: &[[f64; 2]],
    items: Range<usize>,
    out: &mut [f64],
) {
    for (i, slot) in items.zip(out) {
        let row = &rows[offsets[i] as usize..offsets[i + 1] as usize];
        *slot = p[i] * local_similarity(row, xa);
    }
}

/// Each live term's sum of `ps` (the `p · s` of [`pair_rows`]) over its
/// live pairs, ascending, into its `acc`: `out[j − terms.start][1]`.
// er-lint: zero-alloc
fn term_rows(
    offsets: &[u32],
    pairs: &[u32],
    ps: &[f64],
    terms: Range<usize>,
    out: &mut [[f64; 2]],
) {
    for (j, slot) in terms.zip(out) {
        let mut acc = 0.0;
        for &i in &pairs[offsets[j] as usize..offsets[j + 1] as usize] {
            acc += ps[i as usize];
        }
        slot[1] = acc;
    }
}

/// Eq. 6's division by the full `P_t` and line 7's normalization for
/// every live term, from the sum in its `acc`, with `x` updated in place.
/// Returns the L1 change of the weights over every term.
// er-lint: zero-alloc
fn term_walk(
    graph: &BipartiteGraph,
    terms: &[u32],
    xa: &mut [[f64; 2]],
    normalization: Normalization,
) -> f64 {
    let n_terms = graph.term_count();
    let raw = |slot: &[f64; 2], t: u32| slot[1] / f64::from(graph.pt(t));
    let step = |slot: &mut [f64; 2], new: f64| {
        let d = (slot[0] - new).abs();
        slot[0] = new;
        d
    };
    match normalization {
        // 1/(1 + 1/x) = x/(1+x); continuous at 0.
        Normalization::Reciprocal => sum_over_terms(
            n_terms,
            xa.iter_mut().zip(terms).map(|(slot, &t)| {
                let r = raw(slot, t);
                step(slot, r / (1.0 + r))
            }),
        ),
        Normalization::L2 => {
            let norm = sum_over_terms(
                n_terms,
                xa.iter_mut().zip(terms).map(|(slot, &t)| {
                    slot[1] = raw(slot, t);
                    slot[1] * slot[1]
                }),
            )
            .sqrt();
            sum_over_terms(
                n_terms,
                xa.iter_mut().map(|slot| {
                    let new = if norm > 0.0 { slot[1] / norm } else { slot[1] };
                    step(slot, new)
                }),
            )
        }
    }
}

/// `Σ` of the live terms' values in ascending term order, with the bits
/// of the same sum over every term. Each `P_t = 0` term adds `+0.0`,
/// which leaves a non-negative sum unchanged except for the sign of a
/// zero: `Iterator::sum` over no term is `−0.0`, over `+0.0`s it is
/// `+0.0`. Every value must be non-negative and not `−0.0`.
fn sum_over_terms(n_terms: usize, live: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n_live = live.len();
    let sum: f64 = live.sum();
    if n_live < n_terms {
        sum + 0.0
    } else {
        sum
    }
}

/// Runs `job(items, out_part)` over the items `0..out.len()`, where item
/// `i` writes only `out[i]`: inline as one job without a pool, or as pool
/// jobs over disjoint `split_at_mut` parts of `out`, where the part of
/// `items` is `out[items]`.
fn fan_out<T, J>(pool: Option<&WorkerPool>, out: &mut [T], job: J)
where
    T: Send,
    J: Fn(Range<usize>, &mut [T]) + Sync,
{
    let n = out.len();
    match pool {
        Some(pool) if n >= 2 * MIN_CHUNK => {
            let ranges = er_pool::chunk_ranges(n, pool.threads() * 4, MIN_CHUNK);
            let job = &job;
            // er-lint: allow(dispatch) -- pool param is pre-gated by the per-run dispatch decision in `run_iter_into`
            pool.scope(|scope| {
                let mut rest: &mut [T] = out;
                for items in ranges {
                    let (part, tail) = rest.split_at_mut(items.len());
                    rest = tail;
                    scope.submit(move || job(items, part));
                }
            });
        }
        _ => job(0..n, out),
    }
}

/// Eq. 7: `s(ri, rj) = Σ_{t ∈ ri ∧ t ∈ rj} x_t` for pair `p`.
fn similarity(graph: &BipartiteGraph, x: &[f64], p: u32) -> f64 {
    graph.terms_of_pair(p).iter().map(|&t| x[t as usize]).sum()
}

/// Pair update (Eq. 7) over pair range `base..base + out.len()`, writing
/// into the matching slice of the similarity vector.
// er-lint: zero-alloc
fn similarities_range(graph: &BipartiteGraph, x: &[f64], out: &mut [f64], base: usize) {
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = similarity(graph, x, (base + i) as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::BipartiteGraphBuilder;
    use er_pool::DispatchPolicy;
    use proptest::prelude::*;

    /// The full sweep the live view replaced, kept as the oracle: every
    /// pair and every term in every sweep, on the caller thread.
    fn full_sweep(graph: &BipartiteGraph, edge_prob: &[f64], config: &IterConfig) -> IterOutcome {
        let n_terms = graph.term_count();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut x: Vec<f64> = (0..n_terms)
            .map(|t| {
                if graph.pt(t as u32) == 0 {
                    0.0
                } else {
                    rng.random_range(0.01..1.0)
                }
            })
            .collect();
        let mut s = vec![0.0; graph.pair_count()];
        let mut new_x = vec![0.0; n_terms];
        let mut deltas = Vec::new();
        let mut converged = false;
        let mut iterations = 0;
        while iterations < config.max_iterations {
            iterations += 1;
            similarities_range(graph, &x, &mut s, 0);
            for (t, slot) in new_x.iter_mut().enumerate() {
                let pt = graph.pt(t as u32);
                if pt == 0 {
                    *slot = 0.0;
                    continue;
                }
                let mut acc = 0.0;
                for &p in graph.pairs_of_term(t as u32) {
                    acc += edge_prob[p as usize] * s[p as usize];
                }
                let raw = acc / pt as f64;
                *slot = match config.normalization {
                    Normalization::Reciprocal => raw / (1.0 + raw),
                    Normalization::L2 => raw,
                };
            }
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
        similarities_range(graph, &x, &mut s, 0);
        IterOutcome {
            term_weights: x,
            pair_similarities: s,
            iterations,
            deltas,
            converged,
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `run` equals `oracle` bit for bit.
    fn assert_same(run: &IterOutcome, oracle: &IterOutcome, label: &str) {
        assert_eq!(
            bits(&run.term_weights),
            bits(&oracle.term_weights),
            "{label}: term_weights"
        );
        assert_eq!(
            bits(&run.pair_similarities),
            bits(&oracle.pair_similarities),
            "{label}: pair_similarities"
        );
        assert_eq!(bits(&run.deltas), bits(&oracle.deltas), "{label}: deltas");
        assert_eq!(run.iterations, oracle.iterations, "{label}: iterations");
        assert_eq!(run.converged, oracle.converged, "{label}: converged");
    }

    /// Term–pair edges of the pairs with `p > 0`: ITER's dispatch estimate.
    fn live_edges(graph: &BipartiteGraph, prob: &[f64]) -> usize {
        (0..graph.pair_count() as u32)
            .filter(|&p| prob[p as usize] > 0.0)
            .map(|p| graph.terms_of_pair(p).len())
            .sum()
    }

    /// Up to 3,000 terms over up to 120 records, each term in 0–4
    /// records, so many terms have `P_t = 0` and the larger graphs hold
    /// more than `2 × MIN_CHUNK` live terms and pairs, which splits both
    /// passes into pool jobs.
    fn graph_strategy() -> impl Strategy<Value = BipartiteGraph> {
        (2u32..120, 0usize..3000).prop_flat_map(|(n_records, n_terms)| {
            proptest::collection::vec(proptest::collection::btree_set(0..n_records, 0..5), n_terms)
                .prop_map(move |postings| {
                    let lists: Vec<Vec<u32>> = postings
                        .iter()
                        .map(|set| set.iter().copied().collect())
                        .collect();
                    let mut builder = BipartiteGraphBuilder::new(n_records as usize, lists.len());
                    for (t, list) in lists.iter().enumerate() {
                        builder = builder.postings(t as u32, list);
                    }
                    builder.build()
                })
        })
    }

    /// A graph with probabilities that are all zero, all one, mostly
    /// live or mostly dead: exact zeros of both signs, ones, and values
    /// in `[0, 1)`.
    fn graph_and_prob() -> impl Strategy<Value = (BipartiteGraph, Vec<f64>)> {
        graph_strategy()
            .prop_flat_map(|graph| {
                let draws = proptest::collection::vec((0u8..10, 0.0f64..1.0), graph.pair_count());
                (Just(graph), 0u8..4, draws)
            })
            .prop_map(|(graph, mode, draws)| {
                let prob = draws
                    .into_iter()
                    .map(|(code, v)| match (mode, code) {
                        (0, _) | (2, 0) | (3, 0..=6) => 0.0,
                        (2, 1) | (3, 7) => -0.0,
                        (1, _) | (2, 2..=4) | (3, 8) => 1.0,
                        _ => v,
                    })
                    .collect();
                (graph, prob)
            })
    }

    /// ITER equals the full sweep bit for bit under both normalizations,
    /// at 1, 2 and 8 threads, serial, pooled, and on both sides of the
    /// live-edge cutover.
    fn assert_matches_full_sweep(
        graph: &BipartiteGraph,
        prob: &[f64],
        seed: u64,
        max_iterations: usize,
    ) {
        let work = live_edges(graph, prob);
        let policies = [
            DispatchPolicy::always_serial(),
            DispatchPolicy::always_parallel(),
            DispatchPolicy::new(work.saturating_add(1)),
            DispatchPolicy::new(work.max(1)),
        ];
        for normalization in [Normalization::Reciprocal, Normalization::L2] {
            let cfg = IterConfig {
                seed,
                max_iterations,
                normalization,
                ..Default::default()
            };
            let oracle = full_sweep(graph, prob, &cfg);
            for threads in [1, 2, 8] {
                for policy in policies {
                    let pool = WorkerPool::with_policy(threads, policy);
                    let run = run_iter(graph, prob, &cfg, &pool);
                    let label = format!("{normalization:?} threads={threads} policy={policy:?}");
                    assert_same(&run, &oracle, &label);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn live_sweep_matches_full_sweep(
            (graph, prob) in graph_and_prob(),
            seed in 0u64..1000,
            max_iterations in 1usize..60,
        ) {
            assert_matches_full_sweep(&graph, &prob, seed, max_iterations);
        }
    }

    #[test]
    fn scatter_cases_match_full_sweep() {
        // Pairs (0,1) = 0 and (0,2) = 1 share term 0, so the fused sweep
        // adds to its `acc` twice back to back; (0,5), (3,4) and (4,5)
        // share one term each; term 5 has P_t = 0.
        let g = BipartiteGraphBuilder::new(6, 6)
            .postings(0, &[0, 1, 2])
            .postings(1, &[0, 1])
            .postings(2, &[3, 4])
            .postings(3, &[4, 5])
            .postings(4, &[0, 5])
            .postings(5, &[2])
            .build();
        assert_eq!(g.pair_id(0, 1), Some(0));
        assert_eq!(g.pair_id(0, 2), Some(1));
        assert_eq!(g.pair_id(4, 5), Some(5));
        assert_eq!((g.pt(3), g.pt(5)), (1, 0));
        let probs: [[f64; 6]; 5] = [
            // Term 3 is live, and its one pair (4, 5) is dead.
            [1.0, 0.5, 0.25, 0.75, 1.0, 0.0],
            [1.0; 6],
            [0.0; 6],
            [-0.0; 6],
            [0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
        ];
        for prob in &probs {
            for max_iterations in [1, 7, 100] {
                for seed in [0, 1] {
                    assert_matches_full_sweep(&g, prob, seed, max_iterations);
                }
            }
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "more than u32::MAX live term–pair edges")]
    fn edge_offsets_past_u32_are_refused() {
        assert_eq!(edge_offset(u32::MAX as usize), u32::MAX);
        edge_offset(u32::MAX as usize + 1);
    }

    #[test]
    fn no_live_term_keeps_the_full_sums_sign() {
        // `Iterator::sum` of no term is −0.0, of +0.0s it is +0.0: a graph
        // whose terms all have P_t = 0 must report the full sum's +0.0,
        // and an empty term universe its −0.0.
        let no_pairs = BipartiteGraphBuilder::new(3, 3)
            .postings(0, &[0])
            .postings(2, &[1])
            .build();
        let empty = BipartiteGraphBuilder::new(0, 0).build();
        for normalization in [Normalization::Reciprocal, Normalization::L2] {
            let cfg = IterConfig {
                normalization,
                ..Default::default()
            };
            for graph in [&no_pairs, &empty] {
                let out = run(graph, &[], &cfg);
                assert_same(&out, &full_sweep(graph, &[], &cfg), "no live term");
            }
            let out = run(&no_pairs, &[], &cfg);
            assert_eq!(out.deltas[0].to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn pt_counts_dead_pairs() {
        // Term 1 touches six pairs, five of them at p = 0: its weight
        // divides the one live product by P_1 = 6, not by its live row.
        let g = BipartiteGraphBuilder::new(4, 2)
            .postings(0, &[0, 1])
            .postings(1, &[0, 1, 2, 3])
            .build();
        assert_eq!(g.pt(1), 6);
        let mut prob = vec![0.0; g.pair_count()];
        let p01 = g.pair_id(0, 1).unwrap() as usize;
        prob[p01] = 1.0;
        let cfg = IterConfig {
            max_iterations: 1,
            ..Default::default()
        };
        let out = run(&g, &prob, &cfg);
        assert_same(&out, &full_sweep(&g, &prob, &cfg), "dead pairs");
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let x0: [f64; 2] = [rng.random_range(0.01..1.0), rng.random_range(0.01..1.0)];
        let raw = (x0[0] + x0[1]) / 6.0;
        assert_eq!(out.term_weights[1].to_bits(), (raw / (1.0 + raw)).to_bits());
    }

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
