//! The term ↔ record-pair bipartite graph of §V-B (Figure 3).
//!
//! One side holds **term nodes**, the other **pair nodes** — each pair
//! node is an unordered pair of records that share at least one term.
//! Term `t` connects to pair `(ri, rj)` iff `t ∈ ri ∧ t ∈ rj`. Pairs
//! sharing no term are excluded entirely (the paper treats them as
//! non-matching by construction).
//!
//! [`BipartiteGraph::from_candidates`] is the one assembly: it takes a
//! sorted candidate list (whatever blocking and the candidate policy kept)
//! and each record's sorted term set, and merges the two term sets of
//! every candidate. Its cost is the candidates' term-set lengths, not the
//! Σ C(df, 2) postings pairs. Pair ids are positions among the candidates
//! that share a term, so the pair universe is sorted and
//! binary-searchable; the term side is a counting-sort transpose of the
//! pair rows. [`BipartiteGraphBuilder`] is a postings-based front end for
//! tests and examples: it enumerates every postings pair as the candidate
//! list and calls the same assembly.

use crate::invariant::{check_offsets, debug_validate, InvariantViolation};

/// A pair node: an unordered record pair with `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairNode {
    /// Smaller record id.
    pub a: u32,
    /// Larger record id.
    pub b: u32,
}

impl PairNode {
    /// Creates a pair node, normalizing the order.
    pub fn new(x: u32, y: u32) -> Self {
        assert!(x != y, "pair node of a record with itself");
        if x < y {
            Self { a: x, b: y }
        } else {
            Self { a: y, b: x }
        }
    }
}

/// Immutable bipartite graph in dual-CSR form.
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    n_records: usize,
    n_terms: usize,
    pairs: Vec<PairNode>,
    // pair -> terms
    pair_offsets: Vec<usize>,
    pair_terms: Vec<u32>,
    // term -> pairs
    term_offsets: Vec<usize>,
    term_pairs: Vec<u32>,
    // P_t per term: number of pair nodes incident to the term.
    pt: Vec<u32>,
}

impl BipartiteGraph {
    /// Number of records in the underlying universe.
    pub fn record_count(&self) -> usize {
        self.n_records
    }

    /// Size of the term universe (including terms with no edges).
    pub fn term_count(&self) -> usize {
        self.n_terms
    }

    /// Number of pair nodes.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Number of term–pair edges.
    pub fn edge_count(&self) -> usize {
        self.pair_terms.len()
    }

    /// The pair node with id `p`.
    pub fn pair(&self, p: u32) -> PairNode {
        self.pairs[p as usize]
    }

    /// All pair nodes, indexed by pair id.
    pub fn pairs(&self) -> &[PairNode] {
        &self.pairs
    }

    /// Term ids incident to pair `p` (the shared terms of the two records).
    pub fn terms_of_pair(&self, p: u32) -> &[u32] {
        &self.pair_terms[self.pair_offsets[p as usize]..self.pair_offsets[p as usize + 1]]
    }

    /// Pair ids incident to term `t`.
    pub fn pairs_of_term(&self, t: u32) -> &[u32] {
        &self.term_pairs[self.term_offsets[t as usize]..self.term_offsets[t as usize + 1]]
    }

    /// `P_t`: the number of pair nodes connected to term `t` (§V-A). In a
    /// single-source dataset with no candidate filtering this equals
    /// `N_t (N_t − 1) / 2`; with a candidate policy (e.g. cross-source
    /// only) it is the filtered pair count, the natural generalization.
    pub fn pt(&self, t: u32) -> u32 {
        self.pt[t as usize]
    }

    /// Looks up the pair id of records `(x, y)` if they form a pair node.
    pub fn pair_id(&self, x: u32, y: u32) -> Option<u32> {
        let key = PairNode::new(x, y);
        self.pairs.binary_search(&key).ok().map(|i| i as u32)
    }

    /// Assembles the graph over a candidate list — the one function that
    /// assigns pair ids and fills both CSR sides.
    ///
    /// `candidates` must be strictly ascending with `a < b < n_records`,
    /// and `terms_of(r)` must return record `r`'s sorted, deduplicated
    /// term ids (each below `n_terms`). Every candidate's two term rows
    /// are merged; a candidate sharing no term gets no pair node, and
    /// pair ids are positions among the survivors, so `pairs` stays
    /// sorted. The term side is a counting-sort transpose of the pair
    /// rows and `pt` is each term's degree. The cost is the candidates'
    /// term-set lengths plus the edges; every vector is sized exactly.
    pub fn from_candidates<'t, T, F>(
        n_records: usize,
        n_terms: usize,
        candidates: &[(u32, u32)],
        terms_of: F,
    ) -> Self
    where
        T: Copy + Ord + Into<u32> + 't,
        F: Fn(u32) -> &'t [T],
    {
        let mut pairs = Vec::with_capacity(candidates.len());
        let mut pair_offsets = Vec::with_capacity(candidates.len() + 1);
        let mut pair_terms: Vec<u32> = Vec::with_capacity(candidates.len());
        pair_offsets.push(0);
        for &(a, b) in candidates {
            let (x, y) = (terms_of(a), terms_of(b));
            let (mut i, mut j) = (0, 0);
            let before = pair_terms.len();
            while i < x.len() && j < y.len() {
                match x[i].cmp(&y[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        pair_terms.push(x[i].into());
                        i += 1;
                        j += 1;
                    }
                }
            }
            if pair_terms.len() > before {
                pairs.push(PairNode { a, b });
                pair_offsets.push(pair_terms.len());
            }
        }
        pairs.shrink_to_fit();
        pair_offsets.shrink_to_fit();
        pair_terms.shrink_to_fit();

        // Pairs are visited in id order, so every term row is ascending.
        let pair_rows = pair_offsets.windows(2).map(|w| &pair_terms[w[0]..w[1]]);
        let (term_offsets, term_pairs) = transpose(pair_rows, n_terms);
        let pt = term_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as u32)
            .collect();
        let graph = Self {
            n_records,
            n_terms,
            pairs,
            pair_offsets,
            pair_terms,
            term_offsets,
            term_pairs,
            pt,
        };
        debug_validate("BipartiteGraph::from_candidates", || graph.validate());
        graph
    }

    /// Checks every structural invariant of the dual-CSR form:
    ///
    /// * `pairs` is strictly ascending with `a < b < n_records` — the
    ///   canonical binary-searchable pair universe;
    /// * both offset arrays are monotone from 0 and consistent with one
    ///   shared edge count (each term–pair edge appears once per side);
    /// * adjacency rows are strictly ascending and in bounds on both
    ///   sides (candidate-order assembly plus the counting-sort
    ///   transpose guarantee it);
    /// * the two sides agree edge-for-edge: `p ∈ pairs_of_term(t)` iff
    ///   `t ∈ terms_of_pair(p)`;
    /// * `pt[t]` equals term `t`'s degree.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        let err = |detail: String| Err(InvariantViolation::new("BipartiteGraph", detail));
        if let Some(w) = self.pairs.windows(2).find(|w| w[0] >= w[1]) {
            return err(format!(
                "pair universe not strictly ascending: {:?} then {:?}",
                w[0], w[1]
            ));
        }
        if let Some(p) = self
            .pairs
            .iter()
            .find(|p| p.a >= p.b || p.b as usize >= self.n_records)
        {
            return err(format!(
                "malformed pair node {p:?} (want a < b < {})",
                self.n_records
            ));
        }
        let n_edges = self.pair_terms.len();
        if self.term_pairs.len() != n_edges {
            return err(format!(
                "side edge counts disagree: {} pair->term vs {} term->pair",
                n_edges,
                self.term_pairs.len()
            ));
        }
        check_offsets(
            "BipartiteGraph",
            "pair->term",
            &self.pair_offsets,
            self.pairs.len(),
            n_edges,
        )?;
        check_offsets(
            "BipartiteGraph",
            "term->pair",
            &self.term_offsets,
            self.n_terms,
            n_edges,
        )?;
        if self.pt.len() != self.n_terms {
            return err(format!(
                "{} pt entries for {} terms",
                self.pt.len(),
                self.n_terms
            ));
        }
        for p in 0..self.pairs.len() {
            let row = &self.pair_terms[self.pair_offsets[p]..self.pair_offsets[p + 1]];
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return err(format!("terms of pair {p} not strictly ascending"));
            }
            if let Some(&t) = row.last().filter(|&&t| t as usize >= self.n_terms) {
                return err(format!("pair {p} lists out-of-bounds term {t}"));
            }
        }
        for t in 0..self.n_terms {
            let row = &self.term_pairs[self.term_offsets[t]..self.term_offsets[t + 1]];
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return err(format!("pairs of term {t} not strictly ascending"));
            }
            if self.pt[t] as usize != row.len() {
                return err(format!(
                    "pt[{t}] = {} but term degree is {}",
                    self.pt[t],
                    row.len()
                ));
            }
            for &p in row {
                if p as usize >= self.pairs.len() {
                    return err(format!("term {t} lists out-of-bounds pair {p}"));
                }
                // Dual consistency (both rows sorted → binary search).
                let terms = &self.pair_terms
                    [self.pair_offsets[p as usize]..self.pair_offsets[p as usize + 1]];
                if terms.binary_search(&(t as u32)).is_err() {
                    return err(format!(
                        "edge (term {t}, pair {p}) missing from the pair side"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`BipartiteGraph`] from postings lists (term → sorted
/// records): every pair of records sharing a term becomes a candidate.
#[derive(Debug)]
pub struct BipartiteGraphBuilder<'a> {
    n_records: usize,
    n_terms: usize,
    postings: Vec<&'a [u32]>,
}

impl<'a> BipartiteGraphBuilder<'a> {
    /// Starts a builder over `n_records` records and `n_terms` terms.
    pub fn new(n_records: usize, n_terms: usize) -> Self {
        Self {
            n_records,
            n_terms,
            postings: vec![&[]; n_terms],
        }
    }

    /// Sets the postings (sorted record ids) of term `t`.
    pub fn postings(mut self, t: u32, records: &'a [u32]) -> Self {
        debug_assert!(
            records.windows(2).all(|w| w[0] < w[1]),
            "postings must be sorted"
        );
        self.postings[t as usize] = records;
        self
    }

    /// Builds the graph through [`BipartiteGraph::from_candidates`]: the
    /// candidates are every postings pair, sorted and deduplicated, and
    /// each record's term row is read off the postings.
    pub fn build(self) -> BipartiteGraph {
        let (row_offsets, row_terms) = transpose(self.postings.iter().copied(), self.n_records);
        let mut candidates: Vec<(u32, u32)> = Vec::new();
        for recs in &self.postings {
            for (i, &a) in recs.iter().enumerate() {
                candidates.extend(recs[i + 1..].iter().map(|&b| (a, b)));
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        BipartiteGraph::from_candidates(self.n_records, self.n_terms, &candidates, |r| {
            &row_terms[row_offsets[r as usize]..row_offsets[r as usize + 1]]
        })
    }
}

/// Counting-sort transpose of an adjacency given as rows: row `c` of the
/// result lists, ascending, the ids of the input rows containing `c`.
/// Returns the `n_cols + 1` offsets and the flat entries, both sized
/// exactly.
fn transpose<'r>(
    rows: impl Iterator<Item = &'r [u32]> + Clone,
    n_cols: usize,
) -> (Vec<usize>, Vec<u32>) {
    let mut offsets = vec![0usize; n_cols + 1];
    for &c in rows.clone().flatten() {
        offsets[c as usize + 1] += 1;
    }
    for c in 0..n_cols {
        offsets[c + 1] += offsets[c];
    }
    let mut cursor = offsets[..n_cols].to_vec();
    let mut entries = vec![0u32; offsets[n_cols]];
    for (i, row) in rows.enumerate() {
        for &c in row {
            entries[cursor[c as usize]] = i as u32;
            cursor[c as usize] += 1;
        }
    }
    (offsets, entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records: 0 = {a, b}, 1 = {a, b, c}, 2 = {c, d}, 3 = {e}.
    /// Postings: a→{0,1}, b→{0,1}, c→{1,2}, d→{2}, e→{3}.
    fn sample() -> BipartiteGraph {
        BipartiteGraphBuilder::new(4, 5)
            .postings(0, &[0, 1])
            .postings(1, &[0, 1])
            .postings(2, &[1, 2])
            .postings(3, &[2])
            .postings(4, &[3])
            .build()
    }

    #[test]
    fn pair_nodes_are_pairs_sharing_terms() {
        let g = sample();
        assert_eq!(g.pair_count(), 2);
        assert_eq!(g.pair(0), PairNode::new(0, 1));
        assert_eq!(g.pair(1), PairNode::new(1, 2));
        assert!(g.pair_id(0, 2).is_none(), "no shared term → no pair node");
        assert!(g.pair_id(0, 3).is_none());
    }

    #[test]
    fn edges_follow_shared_terms() {
        let g = sample();
        let p01 = g.pair_id(0, 1).unwrap();
        let mut terms: Vec<u32> = g.terms_of_pair(p01).to_vec();
        terms.sort_unstable();
        assert_eq!(terms, vec![0, 1], "records 0,1 share terms a and b");
        let p12 = g.pair_id(1, 2).unwrap();
        assert_eq!(g.terms_of_pair(p12), &[2]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn pt_counts_incident_pairs() {
        let g = sample();
        assert_eq!(g.pt(0), 1);
        assert_eq!(g.pt(2), 1);
        assert_eq!(g.pt(3), 0, "singleton postings create no pairs");
        assert_eq!(g.pt(4), 0);
    }

    #[test]
    fn pt_is_nt_choose_2_without_filter() {
        let g = BipartiteGraphBuilder::new(4, 1)
            .postings(0, &[0, 1, 2, 3])
            .build();
        assert_eq!(g.pt(0), 6); // 4*3/2
        assert_eq!(g.pair_count(), 6);
    }

    #[test]
    fn from_candidates_drops_pairs_sharing_no_term() {
        // Same records as `sample`; (0, 2) and (2, 3) share no term.
        let rows: [&[u32]; 4] = [&[0, 1], &[0, 1, 2], &[2, 3], &[4]];
        let g = BipartiteGraph::from_candidates(4, 5, &[(0, 1), (0, 2), (1, 2), (2, 3)], |r| {
            rows[r as usize]
        });
        assert_eq!(g.pairs(), &[PairNode::new(0, 1), PairNode::new(1, 2)]);
        assert_eq!(g.terms_of_pair(0), &[0, 1]);
        assert_eq!(g.terms_of_pair(1), &[2]);
        assert_eq!(g.pairs_of_term(2), &[1]);
        assert_eq!(g.pt(3), 0);
        let b = sample();
        assert_eq!(g.pairs(), b.pairs());
        for t in 0..5 {
            assert_eq!(g.pairs_of_term(t), b.pairs_of_term(t), "term {t}");
            assert_eq!(g.pt(t), b.pt(t), "term {t}");
        }
    }

    #[test]
    fn candidate_list_restricts_the_pair_universe() {
        // Cross-source policy applied to the candidates: records 0,1 in
        // source A; 2,3 in source B; all four share term 0.
        let rows: [&[u32]; 4] = [&[0], &[0], &[0], &[0]];
        let g = BipartiteGraph::from_candidates(4, 1, &[(0, 2), (0, 3), (1, 2), (1, 3)], |r| {
            rows[r as usize]
        });
        assert_eq!(g.pair_count(), 4);
        assert!(g.pair_id(0, 1).is_none());
        assert!(g.pair_id(2, 3).is_none());
        assert_eq!(g.pairs_of_term(0), &[0, 1, 2, 3]);
        assert_eq!(g.pt(0), 4);
    }

    #[test]
    fn pairs_sorted_and_binary_searchable() {
        let g = sample();
        let ps = g.pairs();
        assert!(ps.windows(2).all(|w| w[0] < w[1]));
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(g.pair_id(p.a, p.b), Some(i as u32));
            assert_eq!(
                g.pair_id(p.b, p.a),
                Some(i as u32),
                "order-insensitive lookup"
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraphBuilder::new(0, 0).build();
        assert_eq!(g.pair_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "record with itself")]
    fn pair_node_rejects_self() {
        PairNode::new(3, 3);
    }
}
