//! Connected components of a [`CsrGraph`].
//!
//! CliqueRank's matrix recurrence is block-diagonal under a component
//! permutation of `Gr` — a random walk can never leave the component it
//! starts in — so the framework decomposes `Gr` into components and runs
//! the dense matrix iteration per block. This is an exact optimization,
//! not an approximation (documented in DESIGN.md §3.3).

use crate::csr::CsrGraph;

/// Component labelling of a graph's nodes, with every component's
/// members in one flat CSR table.
#[derive(Debug, Clone)]
pub struct ComponentLabels {
    /// `label[u]` is the component id of node `u` (ids are dense, 0-based,
    /// assigned in order of the smallest node in each component).
    pub label: Vec<u32>,
    /// Component `c`'s members are `members[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<usize>,
    /// Every node once, grouped by component in id order, each group
    /// sorted ascending.
    members: Vec<u32>,
}

impl ComponentLabels {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Size of the largest component (0 for an empty graph).
    pub fn largest(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// Members of component `c`, sorted ascending.
    pub fn members(&self, c: usize) -> &[u32] {
        &self.members[self.offsets[c]..self.offsets[c + 1]]
    }

    /// Every component's members, in component id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.offsets
            .windows(2)
            .map(move |w| &self.members[w[0]..w[1]])
    }
}

/// Computes connected components with an iterative BFS (no recursion, so
/// arbitrarily large components are safe).
///
/// The member table doubles as the BFS queue: each component is appended
/// as it is discovered and then sorted in place. The result takes three
/// allocations whatever the graph: the labels, the members and the
/// offsets, each sized exactly.
pub fn components(graph: &CsrGraph) -> ComponentLabels {
    let n = graph.node_count();
    const UNVISITED: u32 = u32::MAX;
    let mut label = vec![UNVISITED; n];
    let mut members: Vec<u32> = Vec::with_capacity(n);
    let mut count = 0u32;
    for start in 0..n as u32 {
        if label[start as usize] != UNVISITED {
            continue;
        }
        let head = members.len();
        label[start as usize] = count;
        members.push(start);
        let mut next = head;
        while let Some(&u) = members.get(next) {
            next += 1;
            for &v in graph.neighbors(u) {
                if label[v as usize] == UNVISITED {
                    label[v as usize] = count;
                    members.push(v);
                }
            }
        }
        members[head..].sort_unstable();
        count += 1;
    }
    // Component ids ascend along `members`; each id change starts a
    // component.
    let mut offsets = Vec::with_capacity(count as usize + 1);
    offsets.push(0);
    for (k, w) in members.windows(2).enumerate() {
        if label[w[0] as usize] != label[w[1] as usize] {
            offsets.push(k + 1);
        }
    }
    if n > 0 {
        offsets.push(n);
    }
    ComponentLabels {
        label,
        offsets,
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-component BFS the flat table replaced, kept as its oracle:
    /// labels in order of each component's smallest node, one sorted
    /// `Vec` per component.
    fn components_bfs(graph: &CsrGraph) -> (Vec<u32>, Vec<Vec<u32>>) {
        let n = graph.node_count();
        const UNVISITED: u32 = u32::MAX;
        let mut label = vec![UNVISITED; n];
        let mut members: Vec<Vec<u32>> = Vec::new();
        let mut queue: Vec<u32> = Vec::new();
        for start in 0..n as u32 {
            if label[start as usize] != UNVISITED {
                continue;
            }
            let comp_id = members.len() as u32;
            let mut comp = vec![start];
            label[start as usize] = comp_id;
            queue.clear();
            queue.push(start);
            while let Some(u) = queue.pop() {
                for &v in graph.neighbors(u) {
                    if label[v as usize] == UNVISITED {
                        label[v as usize] = comp_id;
                        comp.push(v);
                        queue.push(v);
                    }
                }
            }
            comp.sort_unstable();
            members.push(comp);
        }
        (label, members)
    }

    #[test]
    fn two_components_and_isolate() {
        // {0,1,2} triangle, {3,4} edge, {5} isolated
        let g = CsrGraph::from_undirected_edges(
            6,
            &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0)],
        );
        let c = components(&g);
        assert_eq!(c.count(), 3);
        assert_eq!(c.members(0), &[0, 1, 2]);
        assert_eq!(c.members(1), &[3, 4]);
        assert_eq!(c.members(2), &[5]);
        assert_eq!(c.label[4], 1);
        assert_eq!(c.largest(), 3);
    }

    #[test]
    fn single_component_chain() {
        let edges: Vec<(u32, u32, f64)> = (0..99).map(|i| (i, i + 1, 1.0)).collect();
        let g = CsrGraph::from_undirected_edges(100, &edges);
        let c = components(&g);
        assert_eq!(c.count(), 1);
        assert_eq!(c.members(0).len(), 100);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_undirected_edges(0, &[]);
        let c = components(&g);
        assert_eq!(c.count(), 0);
        assert_eq!(c.largest(), 0);
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn all_isolated() {
        let g = CsrGraph::from_undirected_edges(4, &[]);
        let c = components(&g);
        assert_eq!(c.count(), 4);
        assert_eq!(c.largest(), 1);
    }

    #[test]
    fn labels_consistent_with_members() {
        let g = CsrGraph::from_undirected_edges(7, &[(0, 6, 1.0), (2, 4, 1.0), (4, 5, 1.0)]);
        let c = components(&g);
        for (cid, members) in c.iter().enumerate() {
            for &u in members {
                assert_eq!(c.label[u as usize], cid as u32);
            }
        }
        let total: usize = c.iter().map(<[u32]>::len).sum();
        assert_eq!(total, 7);
    }

    /// Random graphs over up to 40 nodes: isolated nodes, pairs, paths
    /// and denser blobs, with the edges given in any order.
    fn graph() -> impl Strategy<Value = CsrGraph> {
        (0u32..=40).prop_flat_map(|n| {
            let pairs = proptest::collection::btree_set((0..n.max(1), 0..n.max(1)), 0..60);
            pairs.prop_map(move |set| {
                let edges: Vec<(u32, u32, f64)> = set
                    .into_iter()
                    .filter(|&(a, b)| a < b && b < n)
                    .map(|(a, b)| (a, b, 1.0))
                    .collect();
                CsrGraph::from_undirected_edges(n as usize, &edges)
            })
        })
    }

    proptest! {
        #[test]
        fn flat_table_equals_the_bfs_oracle(g in graph()) {
            let (label, members) = components_bfs(&g);
            let c = components(&g);
            prop_assert_eq!(&c.label, &label);
            prop_assert_eq!(c.count(), members.len());
            let flat: Vec<Vec<u32>> = c.iter().map(<[u32]>::to_vec).collect();
            prop_assert_eq!(&flat, &members);
            for (cid, want) in members.iter().enumerate() {
                prop_assert_eq!(c.members(cid), want.as_slice());
            }
            prop_assert_eq!(c.largest(), members.iter().map(Vec::len).max().unwrap_or(0));
        }
    }
}
