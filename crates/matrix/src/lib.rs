//! # er-matrix
//!
//! Dense matrix kernels for the CliqueRank algorithm (§VI-C).
//!
//! The paper offloads its `S − 1` repeated multiplications of `n × n`
//! transition matrices to Eigen with multi-threading; this crate is the
//! equivalent substrate: a row-major dense [`Matrix`] with two multiply
//! kernels — the [`matmul_naive`] oracle and the packed register-tiled
//! [`matmul_into`] (optionally split across a shared worker pool) — and
//! the size-bucketed [`MatrixArena`] that lends CliqueRank's GEMM step
//! its operands. CliqueRank applies its `⊙ Mn` mask itself, by
//! scattering only the edge set into the GEMM's operand, and keeps its
//! own per-component CSR for the gather step.
//!
//! ```
//! use er_matrix::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

#![deny(unsafe_code)]

pub mod arena;
pub mod dense;
pub mod invariant;
pub mod matmul;
pub mod pack;

pub use arena::MatrixArena;
pub use dense::Matrix;
pub use invariant::InvariantViolation;
pub use matmul::{matmul_into, matmul_naive};
pub use pack::{PackScratch, KC, MR, NR};
