//! Compressed sparse row storage for weighted undirected graphs.

use crate::invariant::{check_offsets, debug_validate, InvariantViolation};

/// A weighted undirected graph in CSR form.
///
/// Each undirected edge `{u, v}` is stored twice (once per direction).
/// Neighbor lists are sorted by target id, enabling `O(log deg)` edge
/// membership tests — which RSS's early-stop rule performs on every step.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<f64>,
}

impl CsrGraph {
    /// Builds from an undirected edge list over nodes `0..n`.
    ///
    /// Edges must be distinct as unordered pairs (duplicates are debug-
    /// asserted against); self-loops are rejected. Weights must be finite.
    ///
    /// Rows are filled in edge-list order and sorted in place; a row that
    /// is already ascending is left as it is. An edge list sorted by
    /// `(u, v)` with `u < v` (every pair list of the pipeline) fills
    /// every row ascending — the lower neighbors in order, then the upper
    /// ones — so the build then makes four allocations whatever `n`: the
    /// degree counts, the offsets and the two entry arrays.
    pub fn from_undirected_edges(n: usize, edges: &[(u32, u32, f64)]) -> Self {
        // `cursor[u]` counts node `u`'s degree, then walks its row.
        let mut cursor = vec![0usize; n];
        for &(u, v, w) in edges {
            assert!(u != v, "self-loop on node {u}");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range"
            );
            assert!(w.is_finite(), "non-finite weight on edge ({u},{v})");
            cursor[u as usize] += 1;
            cursor[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0usize;
        offsets.push(0usize);
        for c in &mut cursor {
            let start = total;
            total += *c;
            offsets.push(total);
            *c = start;
        }
        let mut targets = vec![0u32; total];
        let mut weights = vec![0f64; total];
        for &(u, v, w) in edges {
            targets[cursor[u as usize]] = v;
            weights[cursor[u as usize]] = w;
            cursor[u as usize] += 1;
            targets[cursor[v as usize]] = u;
            weights[cursor[v as usize]] = w;
            cursor[v as usize] += 1;
        }
        // Sort each row by target for binary-search membership tests.
        // Targets are distinct within a row, so the order, and with it
        // every weight's slot, does not depend on the sort.
        let mut row_buf: Vec<(u32, f64)> = Vec::new();
        for u in 0..n {
            let (start, end) = (offsets[u], offsets[u + 1]);
            let row = &mut targets[start..end];
            if row.windows(2).all(|w| w[0] < w[1]) {
                continue;
            }
            row_buf.clear();
            row_buf.extend(row.iter().copied().zip(weights[start..end].iter().copied()));
            row_buf.sort_unstable_by_key(|&(t, _)| t);
            for ((t, w), &(st, sw)) in row.iter_mut().zip(&mut weights[start..end]).zip(&row_buf) {
                *t = st;
                *w = sw;
            }
            debug_assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "duplicate edge incident to node {u}"
            );
        }
        let graph = Self {
            offsets,
            targets,
            weights,
        };
        debug_validate("CsrGraph::from_undirected_edges", || graph.validate());
        graph
    }

    /// Assembles a graph directly from its CSR arrays, **without
    /// validating them**. This is the raw seam the property tests use to
    /// build deliberately corrupted instances for [`CsrGraph::validate`];
    /// everything else should use [`CsrGraph::from_undirected_edges`].
    pub fn from_raw_parts(offsets: Vec<usize>, targets: Vec<u32>, weights: Vec<f64>) -> Self {
        Self {
            offsets,
            targets,
            weights,
        }
    }

    /// Checks every structural invariant of the undirected CSR form:
    ///
    /// * `offsets` is monotone from 0 and consistent with the target and
    ///   weight array lengths;
    /// * each neighbor list is strictly ascending (sorted, no duplicate
    ///   edges), in bounds, and free of self-loops;
    /// * every weight is finite;
    /// * **symmetry**: each stored direction `(u, v, w)` has its mirror
    ///   `(v, u)` present with the identical weight — the two directions
    ///   of one undirected edge.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        let err = |detail: String| Err(InvariantViolation::new("CsrGraph", detail));
        let n = self.offsets.len().saturating_sub(1);
        check_offsets(
            "CsrGraph",
            "adjacency",
            &self.offsets,
            n,
            self.targets.len(),
        )?;
        if self.weights.len() != self.targets.len() {
            return err(format!(
                "{} weights for {} targets",
                self.weights.len(),
                self.targets.len()
            ));
        }
        for u in 0..n {
            let row = &self.targets[self.offsets[u]..self.offsets[u + 1]];
            if let Some(w) = row.windows(2).find(|w| w[0] >= w[1]) {
                return err(format!(
                    "neighbors of {u} not strictly ascending: {} then {}",
                    w[0], w[1]
                ));
            }
            for &v in row {
                if v as usize >= n {
                    return err(format!("edge ({u}, {v}) out of bounds (n = {n})"));
                }
                if v as usize == u {
                    return err(format!("self-loop on node {u}"));
                }
            }
        }
        if let Some((i, &w)) = self
            .weights
            .iter()
            .enumerate()
            .find(|(_, w)| !w.is_finite())
        {
            return err(format!("weight #{i} is {w} (want finite)"));
        }
        for u in 0..n {
            let row = &self.targets[self.offsets[u]..self.offsets[u + 1]];
            for (i, &v) in row.iter().enumerate() {
                let w = self.weights[self.offsets[u] + i];
                match self.edge_weight(v, u as u32) {
                    Some(back) if back == w => {}
                    Some(back) => {
                        return err(format!(
                            "asymmetric weights on edge {{{u}, {v}}}: {w} vs {back}"
                        ));
                    }
                    None => {
                        return err(format!(
                            "edge ({u}, {v}) stored without its mirror ({v}, {u})"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of node `u`.
    pub fn degree(&self, u: u32) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Sorted neighbor ids of `u`.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.targets[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Weights aligned with [`CsrGraph::neighbors`].
    pub fn neighbor_weights(&self, u: u32) -> &[f64] {
        &self.weights[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Weight of edge `{u, v}` if present (binary search, O(log deg)).
    pub fn edge_weight(&self, u: u32, v: u32) -> Option<f64> {
        let row = self.neighbors(u);
        row.binary_search(&v)
            .ok()
            .map(|i| self.weights[self.offsets[u as usize] + i])
    }

    /// True when `{u, v}` is an edge.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates each undirected edge once as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.node_count() as u32).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .zip(self.neighbor_weights(u))
                .filter(move |(&v, _)| u < v)
                .map(move |(&v, &w)| (u, v, w))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> CsrGraph {
        // 0-1, 1-2, 0-2 (triangle), 2-3 (tail)
        CsrGraph::from_undirected_edges(4, &[(0, 1, 0.5), (1, 2, 0.7), (0, 2, 0.9), (2, 3, 0.1)])
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle_plus_tail();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn neighbors_sorted_with_aligned_weights() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbor_weights(2), &[0.9, 0.7, 0.1]);
    }

    #[test]
    fn edge_lookup() {
        let g = triangle_plus_tail();
        assert_eq!(g.edge_weight(0, 1), Some(0.5));
        assert_eq!(g.edge_weight(1, 0), Some(0.5));
        assert_eq!(g.edge_weight(0, 3), None);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn edges_iterator_yields_each_once() {
        let g = triangle_plus_tail();
        let mut edges: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn isolated_nodes_allowed() {
        let g = CsrGraph::from_undirected_edges(3, &[(0, 1, 1.0)]);
        assert_eq!(g.degree(2), 0);
        assert!(g.neighbors(2).is_empty());
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_undirected_edges(0, &[]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        CsrGraph::from_undirected_edges(2, &[(1, 1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        CsrGraph::from_undirected_edges(2, &[(0, 5, 1.0)]);
    }
}
