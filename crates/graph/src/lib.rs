//! # er-graph
//!
//! Graph substrates for the unsupervised entity-resolution framework:
//!
//! * [`csr`] — compressed sparse row adjacency for weighted undirected
//!   graphs; the backbone of every other structure here.
//! * [`union_find`] — disjoint sets, used for clustering matched pairs and
//!   by the component decomposition.
//! * [`mod@components`] — connected components of a [`CsrGraph`]; CliqueRank
//!   runs per component because random walks cannot cross components.
//! * [`bipartite`] — the term ↔ record-pair bipartite graph of §V-B
//!   (Figure 3) that ITER iterates on.
//! * [`record_graph`] — the weighted record graph `Gr` of §VI-A that
//!   CliqueRank and RSS walk on.
//! * [`mod@pagerank`] — damped PageRank (Eq. 3) for the TW-IDF baseline and
//!   the Table IV comparison.
//! * [`simrank`] — pruned bipartite SimRank (Eq. 1–2) for the
//!   graph-theoretic baseline of §III-A, on CSR-flattened pair universes
//!   with pooled, bit-deterministic iterations.
//! * [`cooccur`] — sliding-window term co-occurrence graph (§III-B).
//!
//! The crate is index-based: records and terms are dense `u32`/`usize`
//! ids, so it has no dependency on the text layer.

#![deny(unsafe_code)]

pub mod bipartite;
pub mod components;
pub mod cooccur;
pub mod csr;
pub mod invariant;
pub mod pagerank;
pub mod record_graph;
pub mod simrank;
pub mod union_find;

pub use bipartite::{BipartiteGraph, BipartiteGraphBuilder, PairNode};
pub use components::{components, ComponentLabels};
pub use cooccur::cooccurrence_graph;
pub use csr::CsrGraph;
pub use invariant::InvariantViolation;
pub use pagerank::{pagerank, PageRankConfig};
pub use record_graph::RecordGraph;
pub use simrank::{
    bipartite_simrank, bipartite_simrank_pooled, simrank_flat, PairUniverse, SimRankConfig,
    SimRankScores, SimRankScratch, SimRankUniverse,
};
pub use union_find::UnionFind;
