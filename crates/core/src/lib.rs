//! # er-core
//!
//! The paper's primary contribution: a graph-theoretic fusion framework
//! for unsupervised entity resolution ("A Graph-Theoretic Fusion Framework
//! for Unsupervised Entity Resolution", ICDE 2018).
//!
//! Three algorithms and the loop that fuses them:
//!
//! * [`iter`] — **ITER** (Iterative Term-Entity Ranking, §V, Algorithm 1):
//!   propagates salience between term nodes and record-pair nodes of a
//!   bipartite graph, jointly learning term discrimination power `x_t` and
//!   pair similarity `s(ri, rj)`.
//! * [`rss`] — **RSS** (Random-Surfer Sampling, §VI-B, Algorithms 2–3):
//!   estimates the matching probability `p(ri, rj)` by simulating
//!   rectified random walks on the record graph.
//! * [`cliquerank`] — **CliqueRank** (§VI-C): the matrix-form replacement
//!   for RSS; computes the same reachability probabilities with `S − 1`
//!   multiplications per connected component, reusing `M^{k−1}` and the
//!   dense kernels of `er-matrix`.
//! * [`fusion`] — the reinforcement loop of §IV: ITER's similarities feed
//!   CliqueRank's record graph; CliqueRank's probabilities come back as
//!   the bipartite edge weights; repeat for `R` rounds and threshold at
//!   `η` to decide matches.
//!
//! ```
//! use er_core::{FusionConfig, Resolver};
//! use er_graph::BipartiteGraphBuilder;
//!
//! // Records 0 and 1 share two discriminative terms; record 2 is noise.
//! let graph = BipartiteGraphBuilder::new(3, 3)
//!     .postings(0, &[0, 1])
//!     .postings(1, &[0, 1])
//!     .postings(2, &[1, 2])
//!     .build();
//! let outcome = Resolver::new(FusionConfig::default()).resolve(&graph);
//! assert!(outcome.matches.contains(&(0, 1)));
//! ```

#![deny(unsafe_code)]

pub mod cliquerank;
pub mod config;
pub mod fusion;
pub mod iter;
pub mod rss;
pub mod sparse_kernel;

pub use cliquerank::{run_cliquerank, solve_component_into, CliqueScratch};
pub use config::{
    default_threads, BoostMode, CliqueRankConfig, FusionConfig, IterConfig, Kernel, Normalization,
    Recurrence, RssConfig,
};
pub use fusion::{FusionOutcome, Resolver, RoundStats};
pub use iter::{run_iter, run_iter_into, IterOutcome, IterScratch};
pub use rss::{run_rss, run_rss_subset, RssOutcome};
