//! Property tests for the dispatch cost model: the serial/parallel
//! cutover must never change a result, only where it is computed.
//!
//! Every test pins the same contract from a different angle: a pooled
//! run under an explicit [`DispatchPolicy`] — forced inline, forced
//! parallel, or a threshold the generated input straddles — is bitwise
//! identical to the plain serial run at 1, 2, and 8 threads. The
//! policies are constructed directly rather than read from the
//! environment so the tests cover both sides of the cutover on every
//! input, whatever `ER_DISPATCH` says. CliqueRank runs under both
//! recurrences, on random graphs and on triangle-free ones whose sparse
//! recurrence exits after one step.

use er_core::{run_cliquerank, run_iter, CliqueRankConfig, IterConfig, Kernel, Recurrence};
use er_graph::bipartite::PairNode;
use er_graph::{BipartiteGraph, BipartiteGraphBuilder, RecordGraph};
use er_pool::{DispatchPolicy, WorkerPool};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

/// A random bipartite structure: up to 10 terms over up to 12 records.
fn bipartite() -> impl Strategy<Value = BipartiteGraph> {
    proptest::collection::vec(proptest::collection::btree_set(0u32..12, 0..5), 1..10).prop_map(
        |postings| {
            let lists: Vec<Vec<u32>> = postings
                .iter()
                .map(|s| s.iter().copied().collect())
                .collect();
            let mut builder = BipartiteGraphBuilder::new(12, lists.len());
            for (t, p) in lists.iter().enumerate() {
                builder = builder.postings(t as u32, p);
            }
            builder.build()
        },
    )
}

/// A random bipartite structure with ITER edge probabilities that are
/// all zero, all one, or mixed (exact zeros, ones and values in
/// between), so the sweeps meet pairs at `p = 0` and terms whose every
/// pair is at `p = 0`.
fn bipartite_with_prob() -> impl Strategy<Value = (BipartiteGraph, Vec<f64>)> {
    bipartite()
        .prop_flat_map(|graph| {
            let draws = proptest::collection::vec((0u8..4, 0.0f64..1.0), graph.pair_count());
            (Just(graph), 0u8..3, draws)
        })
        .prop_map(|(graph, mode, draws)| {
            let prob = draws
                .into_iter()
                .map(|(code, v)| match (mode, code) {
                    (0, _) | (2, 0) => 0.0,
                    (1, _) | (2, 1) => 1.0,
                    _ => v,
                })
                .collect();
            (graph, prob)
        })
}

/// A random weighted record graph over up to 10 nodes.
fn record_graph() -> impl Strategy<Value = RecordGraph> {
    proptest::collection::btree_map((0u32..10, 0u32..10), 0.05f64..2.0, 1..25).prop_map(|m| {
        let mut pairs = Vec::new();
        let mut scores = Vec::new();
        for ((a, b), w) in m {
            if a < b {
                pairs.push(PairNode::new(a, b));
                scores.push(w);
            }
        }
        RecordGraph::from_pair_scores(10, &pairs, &scores)
    })
}

/// A random weighted bipartite record graph — records 0..5 on one side,
/// 5..10 on the other — so it has no triangle and the sparse kernel's
/// early exit stops every component after one step.
fn triangle_free_graph() -> impl Strategy<Value = RecordGraph> {
    proptest::collection::btree_map((0u32..5, 5u32..10), 0.05f64..2.0, 1..25).prop_map(|m| {
        let (pairs, scores): (Vec<PairNode>, Vec<f64>) = m
            .into_iter()
            .map(|((a, b), w)| (PairNode::new(a, b), w))
            .unzip();
        RecordGraph::from_pair_scores(10, &pairs, &scores)
    })
}

/// The recurrence axis of the CliqueRank tests.
const RECURRENCES: [Recurrence; 2] = [Recurrence::PaperEq15, Recurrence::FirstPassage];

/// Policies covering both forced modes and thresholds an input of
/// estimated work `w` sits below, exactly at, and above.
fn straddling_policies(work: usize) -> Vec<DispatchPolicy> {
    vec![
        DispatchPolicy::always_serial(),
        DispatchPolicy::always_parallel(),
        // work < serial_below → inline: the input sits just below the bar.
        DispatchPolicy::new(work.saturating_add(1)),
        // work == serial_below → parallel: the input sits exactly at it.
        DispatchPolicy::new(work.max(1)),
    ]
}

/// Pins CliqueRank's driver for one configuration: at every thread
/// count and policy, a pooled run (its components solved inline, on the
/// caller with the pool inside, or fanned out across workers) equals
/// the serial run bitwise.
fn cliquerank_bit_identical(graph: &RecordGraph, cfg: &CliqueRankConfig) {
    let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let serial = bits(run_cliquerank(graph, cfg, &WorkerPool::new(1)));
    for threads in THREADS {
        // Component cost estimates are internal, so straddle with a
        // spread of thresholds from forced-inline down to
        // forced-parallel (1 puts every nonempty component above the
        // bar, exercising the intra-parallel big-component path).
        for policy in [
            DispatchPolicy::always_serial(),
            DispatchPolicy::new(64),
            DispatchPolicy::new(1),
            DispatchPolicy::always_parallel(),
        ] {
            let pool = WorkerPool::with_policy(threads, policy);
            let pooled = bits(run_cliquerank(graph, cfg, &pool));
            prop_assert_eq!(&serial, &pooled, "threads={} policy={:?}", threads, policy);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn iter_bit_identical_across_the_cutover((graph, prob) in bipartite_with_prob(), seed in 0u64..1000) {
        // ITER's dispatch estimate is the live posting count (the edges
        // of the pairs at p > 0), so policies built from it land the run
        // on either side of the cutover deterministically.
        let live_edges: usize = (0..graph.pair_count() as u32)
            .filter(|&p| prob[p as usize] > 0.0)
            .map(|p| graph.terms_of_pair(p).len())
            .sum();
        let cfg = IterConfig { seed, ..Default::default() };
        let serial = run_iter(&graph, &prob, &cfg, &WorkerPool::new(1));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for threads in THREADS {
            for policy in straddling_policies(live_edges) {
                let pool = WorkerPool::with_policy(threads, policy);
                let pooled = run_iter(&graph, &prob, &cfg, &pool);
                prop_assert_eq!(
                    bits(&serial.term_weights),
                    bits(&pooled.term_weights),
                    "threads={} policy={:?}",
                    threads,
                    policy
                );
                prop_assert_eq!(bits(&serial.pair_similarities), bits(&pooled.pair_similarities));
                prop_assert_eq!(bits(&serial.deltas), bits(&pooled.deltas));
                prop_assert_eq!(serial.iterations, pooled.iterations);
                prop_assert_eq!(serial.converged, pooled.converged);
            }
        }
    }

    #[test]
    fn cliquerank_dense_bit_identical_across_the_cutover(
        graph in record_graph(),
        triangle_free in triangle_free_graph(),
        steps in 1usize..8,
    ) {
        for recurrence in RECURRENCES {
            let cfg = CliqueRankConfig { steps, recurrence, kernel: Kernel::Dense, ..Default::default() };
            cliquerank_bit_identical(&graph, &cfg);
            cliquerank_bit_identical(&triangle_free, &cfg);
        }
    }

    #[test]
    fn cliquerank_sparse_bit_identical_across_the_cutover(
        graph in record_graph(),
        triangle_free in triangle_free_graph(),
        steps in 1usize..8,
    ) {
        for recurrence in RECURRENCES {
            let cfg = CliqueRankConfig { steps, recurrence, kernel: Kernel::Sparse, ..Default::default() };
            cliquerank_bit_identical(&graph, &cfg);
            cliquerank_bit_identical(&triangle_free, &cfg);
        }
    }
}
