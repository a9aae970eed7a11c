//! # er-text
//!
//! Text substrate for the unsupervised entity-resolution framework.
//!
//! The paper ("A Graph-Theoretic Fusion Framework for Unsupervised Entity
//! Resolution", ICDE 2018) treats every record as a bag of normalized terms
//! produced by tokenizing its textual content and removing very frequent
//! terms (§VII-A). This crate provides:
//!
//! * [`mod@normalize`] — lowercasing / punctuation folding used before
//!   tokenization.
//! * [`mod@tokenize`] — whitespace tokenization plus a [`Vocabulary`] that
//!   interns terms into dense [`TermId`]s and tracks document frequency.
//! * [`corpus`] — a [`Corpus`] of tokenized records with frequent-term
//!   filtering, inverted indexes, and TF/IDF statistics.
//! * [`blocking`] — scalable candidate generation (token blocking,
//!   sorted-neighborhood, and the [`BlockingStrategy`] switch), the
//!   term–pair graph built over its candidates
//!   ([`BlockingStrategy::candidate_graph`]) and ITER's
//!   [`seed_similarities`].
//! * [`lsh`] — MinHash signatures + banding LSH bucketing for
//!   million-record candidate generation, plus the [`SignatureCache`]
//!   that keeps MinHash band keys warm across resolves.
//! * [`metablocking`] — block purging / filtering / edge-weight pruning
//!   over the block graph.
//! * [`streaming`] — an append-only [`StreamingCorpus`] for the serving
//!   engine's ingest path, materializing batch-identical [`Corpus`]
//!   snapshots on demand.
//! * [`metrics`] — the string-similarity metrics used by the paper's
//!   string-distance baselines (Jaccard, TF-IDF cosine) and by the
//!   supervised baselines' feature extractors (edit distance, Jaro,
//!   Jaro-Winkler, n-gram overlap, Monge-Elkan, SoftTFIDF, …).
//! * [`simeng`] — the batched similarity engine: a [`StrTape`] arena
//!   holding every record text contiguously and a [`BatchScorer`] that
//!   scores slices of pair indices against it with the bit-parallel /
//!   antidiagonal DP kernels, bit-identical to the [`metrics`] oracles.
//!
//! Everything here is deterministic and allocation-conscious: records are
//! interned once and all downstream algorithms work with integer term ids.
//!
//! ```
//! use er_text::{Corpus, CorpusBuilder};
//!
//! let corpus: Corpus = CorpusBuilder::new()
//!     .push_text("Fenix at the Argyle 8358 Sunset Blvd")
//!     .push_text("Fenix 8358 Sunset Blvd West Hollywood")
//!     .build();
//! assert_eq!(corpus.len(), 2);
//! let shared = corpus.shared_terms(0, 1);
//! assert!(shared.len() >= 3); // fenix, 8358, sunset, blvd
//! ```

#![deny(unsafe_code)]

pub mod blocking;
pub mod corpus;
pub mod lsh;
pub mod metablocking;
pub mod metrics;
pub mod normalize;
pub mod simeng;
pub mod streaming;
pub mod tokenize;

pub use blocking::{
    seed_similarities, sorted_neighborhood, token_blocking, BlockingStrategy, MetaBlocking,
    DEFAULT_MAX_DF_FRACTION, SEED_KERNEL,
};
pub use corpus::{validate_max_df_fraction, Corpus, CorpusBuilder};
pub use lsh::{
    lsh_blocking, minhash_band_keys, minhash_band_keys_cached, LshParams, SignatureCache,
};
pub use metablocking::{meta_block, BlockCollection, MetaConfig, Pruning, WeightScheme};
pub use metrics::{
    cosine_tokens, dice, jaccard, jaro, jaro_winkler, levenshtein, levenshtein_similarity,
    monge_elkan, ngram_similarity, overlap_coefficient, soft_tfidf, StringMetric, TfIdfModel,
};
pub use normalize::normalize;
pub use simeng::{BatchScorer, SimKernel, SimScratch, StrTape};
pub use streaming::StreamingCorpus;
pub use tokenize::{tokenize, tokenize_normalized, TermId, Vocabulary};
