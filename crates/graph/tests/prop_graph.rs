//! Property tests for the graph substrates: structural invariants that
//! must hold for any generated graph.

use std::collections::HashSet;

use er_graph::{components, BipartiteGraphBuilder, CsrGraph, PairNode, RecordGraph, UnionFind};
use proptest::prelude::*;

/// Pulls the CSR arrays back out of a valid graph so the mutation tests
/// can reassemble corrupted variants through `from_raw_parts`.
fn raw_parts(g: &CsrGraph) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    let mut offsets = vec![0usize];
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    for u in 0..g.node_count() as u32 {
        targets.extend_from_slice(g.neighbors(u));
        weights.extend_from_slice(g.neighbor_weights(u));
        offsets.push(targets.len());
    }
    (offsets, targets, weights)
}

/// Random undirected edge list over `n` nodes without duplicates or
/// self-loops.
fn edges(n: u32, max_edges: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32, f64)>)> {
    proptest::collection::btree_set((0..n, 0..n), 0..max_edges).prop_map(move |set| {
        let edges: Vec<(u32, u32, f64)> = set
            .into_iter()
            .filter(|&(a, b)| a < b)
            .enumerate()
            .map(|(i, (a, b))| (a, b, 0.1 + (i % 7) as f64 * 0.3))
            .collect();
        (n, edges)
    })
}

/// An edge list in sorted order and the same edges in a random order,
/// each given in a random orientation.
#[allow(clippy::type_complexity)]
fn sorted_and_shuffled() -> impl Strategy<Value = (u32, Vec<(u32, u32, f64)>, Vec<(u32, u32, f64)>)>
{
    edges(40, 160)
        .prop_flat_map(|(n, es)| {
            let k = es.len();
            let keys = proptest::collection::vec((0u64..u64::MAX, 0u8..2), k);
            (Just(n), Just(es), keys)
        })
        .prop_map(|(n, sorted, keys)| {
            let mut order: Vec<usize> = (0..sorted.len()).collect();
            order.sort_by_key(|&i| keys[i].0);
            let shuffled = order
                .into_iter()
                .map(|i| {
                    let (a, b, w) = sorted[i];
                    if keys[i].1 == 1 {
                        (b, a, w)
                    } else {
                        (a, b, w)
                    }
                })
                .collect();
            (n, sorted, shuffled)
        })
}

proptest! {
    #[test]
    fn csr_from_shuffled_edges_equals_sorted((n, sorted, shuffled) in sorted_and_shuffled()) {
        let want = CsrGraph::from_undirected_edges(n as usize, &sorted);
        let got = CsrGraph::from_undirected_edges(n as usize, &shuffled);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn csr_degree_sum_is_twice_edges((n, es) in edges(24, 60)) {
        let g = CsrGraph::from_undirected_edges(n as usize, &es);
        let degree_sum: usize = (0..n).map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        prop_assert_eq!(g.edge_count(), es.len());
    }

    #[test]
    fn csr_neighbors_sorted_and_symmetric((n, es) in edges(24, 60)) {
        let g = CsrGraph::from_undirected_edges(n as usize, &es);
        for u in 0..n {
            let nbrs = g.neighbors(u);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            for &v in nbrs {
                prop_assert!(g.has_edge(v, u), "symmetry broken for ({u},{v})");
                prop_assert_eq!(g.edge_weight(u, v), g.edge_weight(v, u));
            }
        }
    }

    #[test]
    fn csr_edges_iterator_round_trips((n, es) in edges(24, 60)) {
        let g = CsrGraph::from_undirected_edges(n as usize, &es);
        let mut want: Vec<(u32, u32, f64)> = es.clone();
        want.sort_by_key(|e| (e.0, e.1));
        let mut got: Vec<(u32, u32, f64)> = g.edges().collect();
        got.sort_by_key(|e| (e.0, e.1));
        prop_assert_eq!(want, got);
    }

    #[test]
    fn components_partition_nodes((n, es) in edges(24, 60)) {
        let g = CsrGraph::from_undirected_edges(n as usize, &es);
        let comps = components(&g);
        let total: usize = comps.iter().map(<[u32]>::len).sum();
        prop_assert_eq!(total, n as usize);
        let distinct: HashSet<u32> = comps.iter().flatten().copied().collect();
        prop_assert_eq!(distinct.len(), n as usize);
        // Every edge stays within one component.
        for (u, v, _) in g.edges() {
            prop_assert_eq!(comps.label[u as usize], comps.label[v as usize]);
        }
    }

    #[test]
    fn components_agree_with_union_find((n, es) in edges(24, 60)) {
        let g = CsrGraph::from_undirected_edges(n as usize, &es);
        let comps = components(&g);
        let mut uf = UnionFind::new(n as usize);
        for (u, v, _) in g.edges() {
            uf.union(u, v);
        }
        prop_assert_eq!(comps.count(), uf.set_count());
        for a in 0..n {
            for b in 0..n {
                let same_comp = comps.label[a as usize] == comps.label[b as usize];
                prop_assert_eq!(same_comp, uf.connected(a, b), "nodes {} {}", a, b);
            }
        }
    }

    #[test]
    fn union_find_set_sizes_sum(n in 1usize..40, ops in proptest::collection::vec((0u32..40, 0u32..40), 0..60)) {
        let mut uf = UnionFind::new(n);
        for (a, b) in ops {
            let (a, b) = (a % n as u32, b % n as u32);
            if a != b {
                uf.union(a, b);
            }
        }
        let sets = uf.into_sets();
        let total: usize = sets.iter().map(Vec::len).sum();
        prop_assert_eq!(total, n);
    }

    #[test]
    fn bipartite_duality_holds(postings in proptest::collection::vec(
        proptest::collection::btree_set(0u32..16, 0..5), 1..10)
    ) {
        let lists: Vec<Vec<u32>> = postings
            .iter()
            .map(|s| s.iter().copied().collect())
            .collect();
        let mut builder = BipartiteGraphBuilder::new(16, lists.len());
        for (t, p) in lists.iter().enumerate() {
            builder = builder.postings(t as u32, p);
        }
        let g = builder.build();
        // Edge count from both sides must agree.
        let from_terms: usize = (0..g.term_count() as u32)
            .map(|t| g.pairs_of_term(t).len())
            .sum();
        let from_pairs: usize = (0..g.pair_count() as u32)
            .map(|p| g.terms_of_pair(p).len())
            .sum();
        prop_assert_eq!(from_terms, from_pairs);
        prop_assert_eq!(from_terms, g.edge_count());
        // P_t equals the incident pair count, and every pair lookup works.
        for t in 0..g.term_count() as u32 {
            prop_assert_eq!(g.pt(t) as usize, g.pairs_of_term(t).len());
        }
        for (i, pair) in g.pairs().iter().enumerate() {
            prop_assert_eq!(g.pair_id(pair.a, pair.b), Some(i as u32));
            prop_assert!(pair.a < pair.b);
        }
        // Every term listed for a pair must contain both records.
        for p in 0..g.pair_count() as u32 {
            let pair = g.pair(p);
            for &t in g.terms_of_pair(p) {
                prop_assert!(lists[t as usize].contains(&pair.a));
                prop_assert!(lists[t as usize].contains(&pair.b));
            }
        }
        // ...and the structure passes its own invariant validator.
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn constructed_csr_validates((n, es) in edges(24, 60)) {
        let g = CsrGraph::from_undirected_edges(n as usize, &es);
        prop_assert!(g.validate().is_ok());
        let (offsets, targets, weights) = raw_parts(&g);
        prop_assert!(CsrGraph::from_raw_parts(offsets, targets, weights).validate().is_ok());
    }

    #[test]
    fn asymmetric_weight_fails_validation((n, es) in edges(24, 60)) {
        if es.is_empty() {
            return;
        }
        let g = CsrGraph::from_undirected_edges(n as usize, &es);
        let (offsets, targets, mut weights) = raw_parts(&g);
        // Bump one stored direction only: its mirror keeps the old weight.
        weights[0] += 1.0;
        let bad = CsrGraph::from_raw_parts(offsets, targets, weights);
        prop_assert!(bad.validate().is_err());
    }

    #[test]
    fn unsorted_neighbors_fail_validation((n, es) in edges(24, 60)) {
        let g = CsrGraph::from_undirected_edges(n as usize, &es);
        let Some(victim) = (0..n).find(|&u| g.degree(u) >= 2) else {
            return;
        };
        let start: usize = (0..victim).map(|u| g.degree(u)).sum();
        let (offsets, mut targets, weights) = raw_parts(&g);
        targets.swap(start, start + 1);
        let bad = CsrGraph::from_raw_parts(offsets, targets, weights);
        prop_assert!(bad.validate().is_err());
    }

    #[test]
    fn nan_weight_fails_validation((n, es) in edges(24, 60), pick in 0usize..1024) {
        if es.is_empty() {
            return;
        }
        let g = CsrGraph::from_undirected_edges(n as usize, &es);
        let (offsets, targets, mut weights) = raw_parts(&g);
        let i = pick % weights.len();
        weights[i] = f64::NAN;
        let bad = CsrGraph::from_raw_parts(offsets, targets, weights);
        prop_assert!(bad.validate().is_err());
    }

    #[test]
    fn dropped_mirror_fails_validation((n, es) in edges(24, 60)) {
        if es.is_empty() {
            return;
        }
        let g = CsrGraph::from_undirected_edges(n as usize, &es);
        let (mut offsets, mut targets, mut weights) = raw_parts(&g);
        // Remove the first node's first incident direction; its mirror
        // survives elsewhere, so symmetry is broken.
        let u = (0..n as usize).find(|&u| offsets[u + 1] > offsets[u]).unwrap();
        let at = offsets[u];
        targets.remove(at);
        weights.remove(at);
        for o in offsets.iter_mut().skip(u + 1) {
            *o -= 1;
        }
        let bad = CsrGraph::from_raw_parts(offsets, targets, weights);
        prop_assert!(bad.validate().is_err());
    }

    #[test]
    fn record_graph_validates((n, es) in edges(24, 60)) {
        let pairs: Vec<PairNode> = es.iter().map(|&(a, b, _)| PairNode::new(a, b)).collect();
        let scores: Vec<f64> = es.iter().map(|&(_, _, w)| w).collect();
        let g = RecordGraph::from_pair_scores(n as usize, &pairs, &scores);
        prop_assert!(g.validate().is_ok());
    }
}
