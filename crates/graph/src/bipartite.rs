//! The term ↔ record-pair bipartite graph of §V-B (Figure 3).
//!
//! One side holds **term nodes**, the other **pair nodes** — each pair
//! node is an unordered pair of records that share at least one term.
//! Term `t` connects to pair `(ri, rj)` iff `t ∈ ri ∧ t ∈ rj`. Pairs
//! sharing no term are excluded entirely (the paper treats them as
//! non-matching by construction).
//!
//! The builder consumes postings lists (term → sorted records) — exactly
//! what `er_text::Corpus` produces — and enumerates, per term, all record
//! pairs in its postings that the candidate policy accepts (e.g. only
//! cross-source pairs for the two-source Product dataset).
//!
//! Construction is sort-based rather than hash-based: terms enumerate
//! `(term, pair)` edges in term order, pair ids come from a sort + dedup
//! of the pair keys, and both CSR sides fill in one term-major pass. The
//! result is canonical because ids come from the sorted pair universe.

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

    /// Checks every structural invariant of the dual-CSR form:
    ///
    /// * `pairs` is strictly ascending with `a < b < n_records` — the
    ///   canonical binary-searchable pair universe;
    /// * both offset arrays are monotone from 0 and consistent with one
    ///   shared edge count (each term–pair edge appears once per side);
    /// * adjacency rows are strictly ascending and in bounds on both
    ///   sides (a consequence of the term-major construction);
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

/// Builder for [`BipartiteGraph`].
pub struct BipartiteGraphBuilder<'a> {
    n_records: usize,
    n_terms: usize,
    postings: Vec<&'a [u32]>,
    pair_filter: Option<Box<dyn Fn(u32, u32) -> bool + 'a>>,
}

impl std::fmt::Debug for BipartiteGraphBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BipartiteGraphBuilder")
            .field("n_records", &self.n_records)
            .field("n_terms", &self.n_terms)
            .field("has_pair_filter", &self.pair_filter.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a> BipartiteGraphBuilder<'a> {
    /// Starts a builder over `n_records` records and `n_terms` terms.
    pub fn new(n_records: usize, n_terms: usize) -> Self {
        Self {
            n_records,
            n_terms,
            postings: vec![&[]; n_terms],
            pair_filter: None,
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

    /// Restricts which record pairs become pair nodes (candidate policy).
    /// For the two-source Product dataset this is "records from different
    /// sources only".
    pub fn pair_filter(mut self, f: impl Fn(u32, u32) -> bool + 'a) -> Self {
        self.pair_filter = Some(Box::new(f));
        self
    }

    /// Enumerates pair nodes and builds the dual-CSR structure.
    pub fn build(self) -> BipartiteGraph {
        // Phase 1: raw (term, pair) edges the candidate policy accepts,
        // term-major.
        let mut edges: Vec<(u32, PairNode)> = Vec::new();
        for (t, recs) in self.postings.iter().enumerate() {
            for (i, &ra) in recs.iter().enumerate() {
                for &rb in &recs[i + 1..] {
                    if let Some(f) = &self.pair_filter {
                        if !f(ra, rb) {
                            continue;
                        }
                    }
                    edges.push((t as u32, PairNode::new(ra, rb)));
                }
            }
        }

        // Phase 2: canonical pair universe — sorted, deduplicated pair
        // keys. Ids are positions in this sorted list, so `pairs` is
        // binary-searchable and iteration order is independent of the
        // postings order.
        let mut sorted_pairs: Vec<PairNode> = edges.iter().map(|&(_, p)| p).collect();
        sorted_pairs.sort_unstable();
        sorted_pairs.dedup();

        // Phase 3: resolve each edge's pair id.
        let edges: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(t, p)| {
                // er-lint: allow(panic) -- sorted_pairs was built from these same edges
                let id = sorted_pairs.binary_search(&p).expect("id from universe");
                (t, id as u32)
            })
            .collect();

        // CSR for term -> pairs.
        let mut term_deg = vec![0usize; self.n_terms];
        let mut pair_deg = vec![0usize; sorted_pairs.len()];
        for &(t, p) in &edges {
            term_deg[t as usize] += 1;
            pair_deg[p as usize] += 1;
        }
        let prefix = |deg: &[usize]| {
            let mut off = Vec::with_capacity(deg.len() + 1);
            let mut total = 0usize;
            off.push(0usize);
            for &d in deg {
                total += d;
                off.push(total);
            }
            off
        };
        let term_offsets = prefix(&term_deg);
        let pair_offsets = prefix(&pair_deg);
        let mut term_pairs = vec![0u32; edges.len()];
        let mut pair_terms = vec![0u32; edges.len()];
        let mut tcur = term_offsets.clone();
        let mut pcur = pair_offsets.clone();
        for &(t, p) in &edges {
            term_pairs[tcur[t as usize]] = p;
            tcur[t as usize] += 1;
            pair_terms[pcur[p as usize]] = t;
            pcur[p as usize] += 1;
        }
        let pt = term_deg.iter().map(|&d| d as u32).collect();
        let graph = BipartiteGraph {
            n_records: self.n_records,
            n_terms: self.n_terms,
            pairs: sorted_pairs,
            pair_offsets,
            pair_terms,
            term_offsets,
            term_pairs,
            pt,
        };
        debug_validate("BipartiteGraphBuilder::build", || graph.validate());
        graph
    }
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
    fn pair_filter_restricts_candidates() {
        // Cross-source policy: records 0,1 in source A; 2,3 in source B.
        let source = [0u8, 0, 1, 1];
        let g = BipartiteGraphBuilder::new(4, 1)
            .postings(0, &[0, 1, 2, 3])
            .pair_filter(move |a, b| source[a as usize] != source[b as usize])
            .build();
        assert_eq!(g.pair_count(), 4); // 0-2, 0-3, 1-2, 1-3
        assert!(g.pair_id(0, 1).is_none());
        assert!(g.pair_id(2, 3).is_none());
        assert!(g.pair_id(0, 2).is_some());
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
