//! # er-serve
//!
//! Streaming/incremental serving engine for the graph-theoretic fusion
//! framework: ingest records one at a time or in micro-batches, resolve
//! incrementally, and answer match/cluster queries concurrently from a
//! snapshot-consistent view.
//!
//! Three pieces:
//!
//! * [`ServeEngine`] — the single writer. It maintains the growing
//!   corpus state ([`er_text::StreamingCorpus`]) and keeps MinHash
//!   signatures warm across resolves ([`er_text::lsh::SignatureCache`]).
//!   A [`ServeEngine::resolve`] after an ingest re-runs the batch
//!   resolver on the rebuilt candidate graph and seeds; one with nothing
//!   ingested since republishes the last snapshot. Either way it is
//!   **bit-identical** to a from-scratch batch run ([`resolve_batch`])
//!   over the same record stream.
//! * [`Snapshot`] — one immutable, internally consistent resolution
//!   (candidate pairs + probabilities, matches, entity clusters),
//!   published under a monotonically increasing epoch.
//! * [`QueryHandle`] — a `Send + Clone` reader. Steady-state queries are
//!   lock-free: one atomic epoch load against the handle's cached
//!   `Arc<Snapshot>`; only an epoch change takes a brief lock to swap
//!   the `Arc`. Queries never block on a resolve in progress.
//!
//! ```
//! use er_serve::{ServeConfig, ServeEngine};
//!
//! let mut config = ServeConfig::default();
//! config.fusion.threads = 1;
//! config.fusion.rounds = 2;
//! config.max_df_fraction = 0.6; // tiny demo corpus
//! let mut engine = ServeEngine::new(config);
//! let mut queries = engine.query_handle();
//!
//! engine.ingest("fenix at the argyle 8358 sunset blvd");
//! engine.ingest("fenix 8358 sunset blvd west hollywood");
//! engine.resolve();
//! assert_eq!(queries.snapshot().epoch(), 1);
//! assert_eq!(queries.cluster_of(0).is_some(), true);
//! ```

#![deny(unsafe_code)]

pub mod engine;
pub mod snapshot;

pub use engine::{
    resolve_batch, ResolveCache, ServeConfig, ServeEngine, DEFAULT_MAX_DF_FRACTION, SEED_KERNEL,
};
pub use snapshot::{QueryHandle, Snapshot};
