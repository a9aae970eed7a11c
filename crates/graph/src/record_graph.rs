//! The weighted record graph `Gr` of §VI-A.
//!
//! Nodes are records; an edge connects two records iff they form a pair
//! node in the bipartite graph (i.e. share at least one term), weighted by
//! the ITER similarity `s(ri, rj)`. RSS walks this graph directly;
//! CliqueRank materializes per-component transition matrices from it.

use crate::bipartite::PairNode;
use crate::components::{components, ComponentLabels};
use crate::csr::CsrGraph;
use crate::invariant::{debug_validate, InvariantViolation};

/// Weighted record graph with a pair-id ↔ edge mapping.
#[derive(Debug, Clone)]
pub struct RecordGraph {
    csr: CsrGraph,
    /// The pair list this graph was built from (edge `e` ↔ `pairs[e]`).
    pairs: Vec<PairNode>,
}

impl RecordGraph {
    /// Builds `Gr` over `n_records` nodes from pair nodes and their
    /// similarity scores (parallel slices). Pairs with non-positive
    /// similarity are dropped: a zero-similarity edge would have zero
    /// transition probability anyway and would only bloat the matrices.
    pub fn from_pair_scores(n_records: usize, pairs: &[PairNode], scores: &[f64]) -> Self {
        assert_eq!(
            pairs.len(),
            scores.len(),
            "pairs and scores must be parallel"
        );
        let _span = er_obs::span("record_graph_build");
        let mut edges: Vec<(u32, u32, f64)> = pairs
            .iter()
            .zip(scores)
            .filter(|(_, &s)| s > 0.0)
            .map(|(p, &s)| (p.a, p.b, s))
            .collect();
        // Sort so `pairs()` is binary-searchable regardless of input
        // order. In the pipeline the input comes from the bipartite
        // graph's sorted pair list, so this check skips the sort, and
        // the sorted list gives the CSR build ascending rows.
        if !edges
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1))
        {
            edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
        }
        let kept_pairs: Vec<PairNode> = edges.iter().map(|&(a, b, _)| PairNode { a, b }).collect();
        let graph = Self {
            csr: CsrGraph::from_undirected_edges(n_records, &edges),
            pairs: kept_pairs,
        };
        debug_validate("RecordGraph::from_pair_scores", || graph.validate());
        graph
    }

    /// Checks the record-graph invariants on top of the CSR ones:
    ///
    /// * the adjacency passes [`CsrGraph::validate`] (sorted in-bounds
    ///   neighbor lists, no duplicates, symmetric finite weights);
    /// * every weight is strictly positive (non-positive pairs are
    ///   dropped at construction — a zero-weight edge would give a
    ///   zero-probability transition row in CliqueRank);
    /// * `pairs` is strictly ascending (binary-searchable), one entry per
    ///   edge, and each entry is an actual edge of the adjacency.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        self.csr.validate()?;
        let err = |detail: String| Err(InvariantViolation::new("RecordGraph", detail));
        if let Some((u, v, w)) = self.csr.edges().find(|&(_, _, w)| w <= 0.0) {
            return err(format!("non-positive similarity {w} on edge {{{u}, {v}}}"));
        }
        if self.pairs.len() != self.csr.edge_count() {
            return err(format!(
                "{} pairs for {} edges",
                self.pairs.len(),
                self.csr.edge_count()
            ));
        }
        if let Some(w) = self.pairs.windows(2).find(|w| w[0] >= w[1]) {
            return err(format!(
                "pair list not strictly ascending: {:?} then {:?}",
                w[0], w[1]
            ));
        }
        if let Some(p) = self.pairs.iter().find(|p| !self.csr.has_edge(p.a, p.b)) {
            return err(format!("pair {p:?} has no corresponding edge"));
        }
        Ok(())
    }

    /// The underlying CSR adjacency.
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Number of records (nodes).
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// Number of edges (surviving pairs).
    pub fn edge_count(&self) -> usize {
        self.csr.edge_count()
    }

    /// The retained pairs, sorted ascending (binary-searchable) and
    /// aligned with the edge-probability vectors produced by RSS and
    /// CliqueRank.
    pub fn pairs(&self) -> &[PairNode] {
        &self.pairs
    }

    /// Similarity weight of edge `{u, v}` if present.
    pub fn similarity(&self, u: u32, v: u32) -> Option<f64> {
        self.csr.edge_weight(u, v)
    }

    /// Sorted neighbors of `u` with aligned weights.
    pub fn neighbors(&self, u: u32) -> (&[u32], &[f64]) {
        (self.csr.neighbors(u), self.csr.neighbor_weights(u))
    }

    /// True when `{u, v}` is an edge (records share a term and have
    /// positive similarity).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.csr.has_edge(u, v)
    }

    /// Connected components of `Gr` (the blocks CliqueRank iterates over).
    pub fn components(&self) -> ComponentLabels {
        components(&self.csr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(ps: &[(u32, u32)]) -> Vec<PairNode> {
        ps.iter().map(|&(a, b)| PairNode::new(a, b)).collect()
    }

    #[test]
    fn builds_weighted_graph() {
        let p = pairs(&[(0, 1), (1, 2), (3, 4)]);
        let g = RecordGraph::from_pair_scores(5, &p, &[0.9, 0.2, 0.7]);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.similarity(0, 1), Some(0.9));
        assert_eq!(g.similarity(1, 0), Some(0.9));
        assert_eq!(g.similarity(0, 2), None);
    }

    #[test]
    fn drops_zero_similarity_pairs() {
        // Only positive scores become edges: zero, a tiny negative
        // (rounding below zero) and NaN are all dropped.
        let p = pairs(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let g = RecordGraph::from_pair_scores(5, &p, &[0.5, 0.0, -1e-12, f64::NAN]);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(1, 2));
        assert!(!g.has_edge(2, 3));
        assert!(!g.has_edge(3, 4));
        assert_eq!(g.pairs().len(), 1);
    }

    #[test]
    fn component_decomposition() {
        let p = pairs(&[(0, 1), (1, 2), (3, 4)]);
        let g = RecordGraph::from_pair_scores(6, &p, &[1.0, 1.0, 1.0]);
        let comps = g.components();
        assert_eq!(comps.count(), 3); // {0,1,2}, {3,4}, {5}
        assert_eq!(comps.largest(), 3);
    }

    #[test]
    fn neighbors_aligned() {
        let p = pairs(&[(0, 1), (0, 2)]);
        let g = RecordGraph::from_pair_scores(3, &p, &[0.4, 0.6]);
        let (ns, ws) = g.neighbors(0);
        assert_eq!(ns, &[1, 2]);
        assert_eq!(ws, &[0.4, 0.6]);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_slices_panic() {
        RecordGraph::from_pair_scores(3, &pairs(&[(0, 1)]), &[]);
    }

    #[test]
    fn reversed_input_builds_the_sorted_graph() {
        // A mix of kept and dropped scores, given once in ascending pair
        // order and once reversed: the reversed list takes the sort.
        let n = 1500u32;
        let mut ps = Vec::new();
        for i in 0..n {
            for j in i + 1..(i + 8).min(n) {
                ps.push(PairNode::new(i, j));
            }
        }
        let scores: Vec<f64> = (0..ps.len()).map(|i| ((i % 5) as f64) * 0.2).collect();
        let sorted = RecordGraph::from_pair_scores(n as usize, &ps, &scores);
        ps.reverse();
        let reversed_scores: Vec<f64> = scores.iter().rev().copied().collect();
        let reversed = RecordGraph::from_pair_scores(n as usize, &ps, &reversed_scores);
        assert_eq!(sorted.pairs(), reversed.pairs());
        for u in 0..n {
            assert_eq!(sorted.neighbors(u), reversed.neighbors(u));
        }
    }
}
