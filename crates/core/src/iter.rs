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
//! what can move. Each run first fills a live view in its
//! [`IterScratch`]: the `P_t > 0` terms in ascending order, the `p > 0`
//! pairs, and, when most term–pair edges are dead, each live term's
//! `p > 0` pairs in CSR order. A sweep then computes Eq. 7 for the live
//! pairs, storing `p · s` (a dead pair's slot stays `+0.0`); Eq. 6 over
//! the live terms' compacted rows, or over the graph's own rows when most
//! edges are live, divided by the full `P_t`; and the L2 norm and the
//! convergence delta over the `P_t > 0` terms in ascending term order.
//! No bit moves: a dead pair adds `±0.0` to a non-negative running sum,
//! and a `P_t = 0` term adds `+0.0` to the norm and to the delta. A sweep
//! reads the live edges in its pair pass and at most twice as many in its
//! term pass. The random initialization and the final Eq. 7 pass still
//! cover every term and every pair, so [`IterOutcome::pair_similarities`]
//! holds `s` for every pair.
//!
//! # Parallelism and determinism
//!
//! Both propagation rules are elementwise: each pair similarity depends
//! only on the previous term weights, and each term weight only on the
//! fresh similarities. The parallel path therefore splits the live pairs
//! (or terms) into pool jobs that write disjoint `split_at_mut` ranges of
//! the output vector, running the same row function the serial path
//! runs, while the scalar reductions (L2 norm, convergence delta) stay
//! serial, so every thread count produces bit-identical weights. The two
//! iteration vectors (`x`, `new_x`) are allocated once and swapped per
//! iteration instead of reallocating `new_x` every pass.

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

/// Reusable buffers for [`run_iter_into`].
///
/// An ITER run needs four working vectors (`x`, `new_x`, `s`, `deltas`)
/// and the live view of the graph its sweeps visit. Three of the vectors
/// leave the run inside the [`IterOutcome`]; the scratch keeps the fourth
/// and the live view, and [`IterScratch::recycle`] puts a consumed
/// outcome's vectors back. A caller that recycles the previous round's
/// outcome before the next run (as the fusion loop does) therefore runs
/// every ITER sweep after the first with zero steady-state allocations.
#[derive(Debug, Default)]
pub struct IterScratch {
    x: Vec<f64>,
    new_x: Vec<f64>,
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

/// The part of the graph one run's sweeps read: the terms with
/// `P_t > 0`, the pairs with `p > 0` and the term–pair edges between
/// them (see the module doc). The buffers stay in the scratch for the
/// next run, so each grows to exactly what it holds: doubling slack would
/// stay allocated for the whole fusion.
#[derive(Debug, Default)]
struct LiveView {
    /// Terms with `P_t > 0`, ascending.
    terms: Vec<u32>,
    /// True when every pair has `p > 0`: `pairs` stays empty and the
    /// `i`-th live pair is pair `i`.
    all_pairs: bool,
    /// Pairs with `p > 0`, ascending.
    pairs: Vec<u32>,
    /// `row_pairs[row_offsets[j]..row_offsets[j + 1]]` holds the `p > 0`
    /// pairs of `terms[j]` in CSR order. Filled only when most edges are
    /// dead, where it spares the term pass more than half its reads;
    /// otherwise both stay empty and the term pass reads the graph's own
    /// rows, in which a dead pair finds `+0.0` in the sweep's `p · s`, at
    /// the cost of no more dead reads than live ones.
    row_offsets: Vec<usize>,
    row_pairs: Vec<u32>,
    /// Term–pair edges of the live pairs.
    edges: usize,
}

impl LiveView {
    /// Refills the view for `graph` under `edge_prob`.
    fn fill(&mut self, graph: &BipartiteGraph, edge_prob: &[f64]) {
        let live = |p: &u32| edge_prob[*p as usize] > 0.0;
        refill(
            &mut self.terms,
            (0..graph.term_count() as u32).filter(|&t| graph.pt(t) > 0),
        );
        let pair_ids = 0..graph.pair_count() as u32;
        self.all_pairs = pair_ids.clone().all(|p| live(&p));
        if self.all_pairs {
            self.pairs.clear();
            self.edges = graph.edge_count();
        } else {
            refill(&mut self.pairs, pair_ids.filter(live));
            self.edges = self
                .pairs
                .iter()
                .map(|&p| graph.terms_of_pair(p).len())
                .sum();
        }
        self.row_offsets.clear();
        self.row_pairs.clear();
        if 2 * self.edges < graph.edge_count() {
            self.row_offsets.reserve_exact(self.terms.len() + 1);
            self.row_pairs.reserve_exact(self.edges);
            self.row_offsets.push(0);
            for &t in &self.terms {
                self.row_pairs
                    .extend(graph.pairs_of_term(t).iter().filter(|p| live(p)));
                self.row_offsets.push(self.row_pairs.len());
            }
        }
    }

    /// Number of live pairs.
    fn pair_count(&self, graph: &BipartiteGraph) -> usize {
        if self.all_pairs {
            graph.pair_count()
        } else {
            self.pairs.len()
        }
    }

    /// The `i`-th live pair.
    fn pair(&self, i: usize) -> u32 {
        if self.all_pairs {
            i as u32
        } else {
            self.pairs[i]
        }
    }

    /// The pairs the term pass reads for `terms[j]`, in CSR order: its
    /// live pairs, or its whole row when the rows were not compacted.
    fn row<'a>(&'a self, graph: &'a BipartiteGraph, j: usize) -> &'a [u32] {
        if self.row_offsets.is_empty() {
            graph.pairs_of_term(self.terms[j])
        } else {
            &self.row_pairs[self.row_offsets[j]..self.row_offsets[j + 1]]
        }
    }
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
    let n_pairs = graph.pair_count();
    scratch.live.fill(graph, edge_prob);
    let live = &scratch.live;

    // One dispatch decision per run: both sweep halves walk every live
    // (term, pair) edge, so the live edge count estimates the per-sweep
    // work. Below the cutover the pool is dropped here and the whole
    // loop — sweeps and double-buffer swaps — runs inline with zero
    // coordination (restaurant/cora-sized graphs lost more to scope
    // bookkeeping per iteration than the chunks earned back).
    let pool = Some(pool).filter(|p| p.dispatch(live.edges).is_parallel());

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

    // Between the sweeps `s` holds `p · s` for the live pairs and keeps
    // `+0.0` at the dead ones, which the term pass reads when it walks the
    // graph's own rows; the final pass overwrites every slot with `s`.
    let mut s = mem::take(&mut scratch.s);
    s.clear();
    s.resize(n_pairs, 0.0);
    // Double buffer for the term weights: swapped with `x` each
    // iteration instead of allocating a fresh vector per pass. The
    // sweeps write only the live terms, so both buffers keep 0 at the
    // `P_t = 0` terms.
    let mut new_x = mem::take(&mut scratch.new_x);
    new_x.clear();
    new_x.resize(n_terms, 0.0);
    let mut deltas = mem::take(&mut scratch.deltas);
    deltas.clear();
    let mut converged = false;
    let mut iterations = 0;

    let n_live_pairs = live.pair_count(graph);
    let n_live_terms = live.terms.len();
    while iterations < config.max_iterations {
        iterations += 1;
        let _sweep = er_obs::span("sweep");
        // Line 3–4: `p · s` for the live pairs from the current weights.
        fan_out(
            pool,
            n_live_pairs,
            |i| live.pair(i) as usize,
            &mut s,
            |items, out, base| pair_rows(graph, edge_prob, live, &x, items, out, base),
        );
        // Line 5–7: term weights from the live rows, then normalize.
        // The convergence delta is measured on the *normalized* weights —
        // those are what the fixed point is defined over.
        fan_out(
            pool,
            n_live_terms,
            |j| live.terms[j] as usize,
            &mut new_x,
            |rows, out, base| term_rows(graph, live, &s, config.normalization, rows, out, base),
        );
        if config.normalization == Normalization::L2 {
            let norm = sum_over_terms(n_terms, &live.terms, |t| new_x[t] * new_x[t]).sqrt();
            if norm > 0.0 {
                for &t in &live.terms {
                    new_x[t as usize] /= norm;
                }
            }
        }
        let delta = sum_over_terms(n_terms, &live.terms, |t| (x[t] - new_x[t]).abs());
        mem::swap(&mut x, &mut new_x);
        deltas.push(delta);
        if delta < config.tolerance {
            converged = true;
            break;
        }
    }
    er_obs::counter_add("iter_edge_visits_total", (live.edges * iterations) as u64);
    // Final similarities from the converged weights, over every pair, so
    // callers see a consistent (x, s) fixed-point pair.
    fan_out(
        pool,
        n_pairs,
        |p| p,
        &mut s,
        |_, out, base| {
            similarities_range(graph, &x, out, base);
        },
    );

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

/// `Σ f(t)` over the live terms in ascending order, with the bits of the
/// same sum over every term. Each `P_t = 0` term adds `+0.0`, which leaves
/// a non-negative sum unchanged except for the sign of a zero:
/// `Iterator::sum` over no term is `−0.0`, over `+0.0`s it is `+0.0`.
/// Every `f(t)` must be non-negative and not `−0.0`.
fn sum_over_terms(n_terms: usize, live_terms: &[u32], f: impl Fn(usize) -> f64) -> f64 {
    let sum: f64 = live_terms.iter().map(|&t| f(t as usize)).sum();
    if live_terms.len() < n_terms {
        sum + 0.0
    } else {
        sum
    }
}

/// Runs `job(items, out_part, base)` over the items `0..n`, where item
/// `i` writes only `out[key(i)]` and `key` ascends: inline as one job
/// (`base = 0`) without a pool, or as pool jobs over disjoint
/// `split_at_mut` parts of `out`. Each part starts at its first item's
/// key (the first part at 0) and ends where the next part starts, and
/// its job writes `out_part[key(i) − base]`.
fn fan_out<K, J>(pool: Option<&WorkerPool>, n: usize, key: K, out: &mut [f64], job: J)
where
    K: Fn(usize) -> usize,
    J: Fn(Range<usize>, &mut [f64], usize) + Sync,
{
    match pool {
        Some(pool) if n >= 2 * MIN_CHUNK => {
            let ranges = er_pool::chunk_ranges(n, pool.threads() * 4, MIN_CHUNK);
            let job = &job;
            // er-lint: allow(dispatch) -- pool param is pre-gated by the per-run dispatch decision in `run_iter_into`
            pool.scope(|scope| {
                let mut rest: &mut [f64] = out;
                let mut base = 0;
                for (k, items) in ranges.iter().enumerate() {
                    let end = ranges
                        .get(k + 1)
                        .map_or(base + rest.len(), |next| key(next.start));
                    let (part, tail) = rest.split_at_mut(end - base);
                    rest = tail;
                    let items = items.clone();
                    scope.submit(move || job(items, part, base));
                    base = end;
                }
            });
        }
        _ => job(0..n, out, 0),
    }
}

/// Eq. 7: `s(ri, rj) = Σ_{t ∈ ri ∧ t ∈ rj} x_t` for pair `p`.
fn similarity(graph: &BipartiteGraph, x: &[f64], p: u32) -> f64 {
    graph.terms_of_pair(p).iter().map(|&t| x[t as usize]).sum()
}

/// Eq. 7 for the live pairs `items`, scaled by `p`:
/// `out[p − base] = p(ri, rj) · s(ri, rj)`, which is the product the term
/// update adds.
// er-lint: zero-alloc
fn pair_rows(
    graph: &BipartiteGraph,
    edge_prob: &[f64],
    live: &LiveView,
    x: &[f64],
    items: Range<usize>,
    out: &mut [f64],
    base: usize,
) {
    for i in items {
        let p = live.pair(i);
        out[p as usize - base] = edge_prob[p as usize] * similarity(graph, x, p);
    }
}

/// Term update and normalization (Eq. 6, line 7) for the live terms
/// `terms[rows]`: `out[t − base]` gets the sum of `ps` (the `p · s` of
/// [`pair_rows`]) over the term's live row, divided by the full `P_t`.
// er-lint: zero-alloc
fn term_rows(
    graph: &BipartiteGraph,
    live: &LiveView,
    ps: &[f64],
    normalization: Normalization,
    rows: Range<usize>,
    out: &mut [f64],
    base: usize,
) {
    for j in rows {
        let t = live.terms[j];
        let mut acc = 0.0;
        for &p in live.row(graph, j) {
            acc += ps[p as usize];
        }
        let raw = acc / f64::from(graph.pt(t));
        out[t as usize - base] = match normalization {
            // 1/(1 + 1/x) = x/(1+x); continuous at 0.
            Normalization::Reciprocal => raw / (1.0 + raw),
            Normalization::L2 => raw, // normalized by the caller
        };
    }
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
    /// in `[0, 1)`. Mostly-dead probabilities make the sweep compact its
    /// term rows; mostly-live ones make it read the graph's rows past
    /// dead pairs.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn live_sweep_matches_full_sweep(
            (graph, prob) in graph_and_prob(),
            seed in 0u64..1000,
            max_iterations in 1usize..60,
        ) {
            let work = live_edges(&graph, &prob);
            let policies = [
                DispatchPolicy::always_serial(),
                DispatchPolicy::always_parallel(),
                DispatchPolicy::new(work.saturating_add(1)),
                DispatchPolicy::new(work.max(1)),
            ];
            for normalization in [Normalization::Reciprocal, Normalization::L2] {
                let cfg = IterConfig { seed, max_iterations, normalization, ..Default::default() };
                let oracle = full_sweep(&graph, &prob, &cfg);
                for threads in [1, 2, 8] {
                    for policy in policies {
                        let pool = WorkerPool::with_policy(threads, policy);
                        let run = run_iter(&graph, &prob, &cfg, &pool);
                        let label = format!("{normalization:?} threads={threads} policy={policy:?}");
                        assert_same(&run, &oracle, &label);
                    }
                }
            }
        }
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
        // Term 1 touches six pairs, five of them at p = 0 (most edges are
        // dead, so the sweep compacts its rows): its weight divides the
        // one live product by P_1 = 6, not by its live row.
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
