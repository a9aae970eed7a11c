//! Property tests for ITER, RSS, and CliqueRank on randomly generated
//! structures: bounds, determinism, convergence, and cross-checks
//! between the stochastic and matrix formulations.

use er_core::{run_cliquerank, run_iter, run_rss, CliqueRankConfig, IterConfig, RssConfig};
use er_graph::bipartite::PairNode;
use er_graph::{BipartiteGraph, BipartiteGraphBuilder, RecordGraph};
use er_pool::WorkerPool;
use proptest::prelude::*;

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

/// A 1-thread pool: every phase runs inline.
fn one_thread() -> WorkerPool {
    WorkerPool::new(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn iter_weights_bounded_and_deterministic(graph in bipartite(), seed in 0u64..1000) {
        let prob = vec![1.0; graph.pair_count()];
        let cfg = IterConfig { seed, ..Default::default() };
        let a = run_iter(&graph, &prob, &cfg, &one_thread());
        let b = run_iter(&graph, &prob, &cfg, &one_thread());
        prop_assert_eq!(&a.term_weights, &b.term_weights);
        for (t, &w) in a.term_weights.iter().enumerate() {
            prop_assert!((0.0..1.0).contains(&w), "term {}: {}", t, w);
            if graph.pt(t as u32) == 0 {
                prop_assert_eq!(w, 0.0);
            }
        }
        // Pair similarity equals the sum of its terms' weights.
        for p in 0..graph.pair_count() as u32 {
            let sum: f64 = graph.terms_of_pair(p).iter().map(|&t| a.term_weights[t as usize]).sum();
            prop_assert!((a.pair_similarities[p as usize] - sum).abs() < 1e-9);
        }
    }

    #[test]
    fn iter_fixed_point_is_seed_independent(graph in bipartite()) {
        // Theorem 1: the iteration converges to the principal eigenvector
        // direction regardless of the random start.
        let prob = vec![1.0; graph.pair_count()];
        let tight = |seed| IterConfig { seed, tolerance: 1e-12, max_iterations: 500, ..Default::default() };
        let a = run_iter(&graph, &prob, &tight(1), &one_thread());
        let b = run_iter(&graph, &prob, &tight(987654), &one_thread());
        if a.converged && b.converged {
            for (x, y) in a.term_weights.iter().zip(&b.term_weights) {
                prop_assert!((x - y).abs() < 1e-4, "{} vs {}", x, y);
            }
        }
    }

    #[test]
    fn cliquerank_outputs_probabilities(graph in record_graph(), steps in 1usize..12) {
        let cfg = CliqueRankConfig { steps, ..Default::default() };
        let p = run_cliquerank(&graph, &cfg, &one_thread());
        prop_assert_eq!(p.len(), graph.pairs().len());
        for &v in &p {
            prop_assert!((0.0..=1.0).contains(&v), "{}", v);
        }
        // Determinism.
        prop_assert_eq!(p, run_cliquerank(&graph, &cfg, &one_thread()));
    }

    #[test]
    fn cliquerank_first_passage_monotone_in_steps(graph in record_graph()) {
        // More steps can only increase a first-passage probability.
        let cfg = |steps| CliqueRankConfig {
            steps,
            recurrence: er_core::Recurrence::FirstPassage,
            ..Default::default()
        };
        let short = run_cliquerank(&graph, &cfg(3), &one_thread());
        let long = run_cliquerank(&graph, &cfg(10), &one_thread());
        for (s, l) in short.iter().zip(&long) {
            prop_assert!(l + 1e-9 >= *s, "steps must not reduce reach probability: {} -> {}", s, l);
        }
    }

    #[test]
    fn sparse_and_dense_kernels_agree(graph in record_graph(), steps in 1usize..10) {
        use er_core::Kernel;
        let mk = |kernel| CliqueRankConfig { kernel, steps, ..Default::default() };
        let dense = run_cliquerank(&graph, &mk(Kernel::Dense), &one_thread());
        let sparse = run_cliquerank(&graph, &mk(Kernel::Sparse), &one_thread());
        for (a, b) in dense.iter().zip(&sparse) {
            prop_assert!((a - b).abs() < 1e-9, "dense {} vs sparse {}", a, b);
        }
    }

    #[test]
    fn rss_within_bounds_and_deterministic(graph in record_graph()) {
        let cfg = RssConfig { walks_per_edge: 20, ..Default::default() };
        let a = run_rss(&graph, &cfg, &one_thread());
        prop_assert_eq!(a.probabilities.len(), graph.pairs().len());
        for &v in &a.probabilities {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        let b = run_rss(&graph, &cfg, &one_thread());
        prop_assert_eq!(a.probabilities, b.probabilities);
    }

    #[test]
    fn iter_pooled_bit_identical_across_threads((graph, prob) in bipartite_with_prob(), seed in 0u64..1000) {
        // The worker pool must never change ITER's result, only its
        // wall clock: every float written in parallel lands in a
        // disjoint slot and reductions stay serial.
        let cfg = IterConfig { seed, ..Default::default() };
        let serial = run_iter(&graph, &prob, &cfg, &one_thread());
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let pooled = run_iter(&graph, &prob, &cfg, &pool);
            prop_assert_eq!(&serial.term_weights, &pooled.term_weights, "threads={}", threads);
            prop_assert_eq!(&serial.pair_similarities, &pooled.pair_similarities);
            prop_assert_eq!(&serial.deltas, &pooled.deltas);
            prop_assert_eq!(serial.iterations, pooled.iterations);
        }
    }

    #[test]
    fn rss_pooled_bit_identical_across_threads(graph in record_graph(), seed in 0u64..1000) {
        // Each edge draws from its own (seed, edge_id)-derived RNG, so
        // the estimate is independent of how edges are sharded.
        let cfg = RssConfig { walks_per_edge: 8, seed, ..Default::default() };
        let serial = run_rss(&graph, &cfg, &one_thread());
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let pooled = run_rss(&graph, &cfg, &pool);
            prop_assert_eq!(&serial.probabilities, &pooled.probabilities, "threads={}", threads);
        }
    }

    #[test]
    fn cliquerank_pooled_bit_identical_across_threads(graph in record_graph(), steps in 1usize..10) {
        // Components are solved independently, so their assignment to
        // workers cannot change any probability.
        let cfg = CliqueRankConfig { steps, ..Default::default() };
        let serial = run_cliquerank(&graph, &cfg, &one_thread());
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let pooled = run_cliquerank(&graph, &cfg, &pool);
            prop_assert_eq!(&serial, &pooled, "threads={}", threads);
        }
    }

    #[test]
    fn isolated_two_cliques_always_resolve(w1 in 0.2f64..3.0, w2 in 0.2f64..3.0) {
        // Two disjoint triangles with arbitrary (uniform) weights: every
        // edge is intra-clique and must get probability ~1 regardless of
        // the absolute similarity scale (scale invariance).
        let pairs = vec![
            PairNode::new(0, 1), PairNode::new(0, 2), PairNode::new(1, 2),
            PairNode::new(3, 4), PairNode::new(3, 5), PairNode::new(4, 5),
        ];
        let scores = vec![w1, w1, w1, w2, w2, w2];
        let graph = RecordGraph::from_pair_scores(6, &pairs, &scores);
        let p = run_cliquerank(&graph, &CliqueRankConfig::default(), &one_thread());
        for &v in &p {
            prop_assert!(v > 0.95, "intra-clique edge below threshold: {}", v);
        }
    }
}
