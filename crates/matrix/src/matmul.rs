//! Matrix multiplication kernels.
//!
//! CliqueRank performs `S − 1` products of `n × n` matrices per connected
//! component per fusion round, so this is the framework's hottest kernel.
//! Two implementations, producing identical results:
//!
//! * [`matmul_naive`] — reference i-k-j loop over row slices; the oracle
//!   the other is tested against.
//! * [`matmul_into`] — the packed register-tiled microkernel
//!   ([`crate::pack`]) into a caller-owned output, optionally split into
//!   row strips on a shared [`er_pool::WorkerPool`] (standing in for
//!   Eigen's multi-threaded GEMM on the paper's 32-core server, so
//!   pipeline phases reuse one set of persistent workers).
//!   [`Matrix::matmul`] is its allocating convenience.
//!
//! Row strips are computed independently, so the pooled split is
//! bit-identical to the serial kernel at any thread count. For depths
//! `k ≤ `[`KC`](crate::pack::KC) both kernels are bit-identical (each
//! output element accumulates its products in ascending `k` order); past
//! one packed panel the packed kernel differs from naive only by
//! panel-boundary rounding.
//!
//! [`matmul_into`] writes into a caller-owned [`Matrix`] (reshaped in
//! place) and borrows a [`PackScratch`], so hot recurrences reach zero
//! steady-state allocations.

use er_pool::WorkerPool;

use crate::dense::Matrix;
use crate::invariant::debug_validate;
use crate::pack::{self, matmul_packed_rows, PackScratch};

/// Reference product (`O(n³)`, no blocking): i-k-j order over row
/// slices, so the baseline pays neither per-element bounds checks nor
/// the strided column walk of the textbook i-j-k loop. Each output
/// element still accumulates its `k` products in strictly ascending
/// order, so this is bit-identical to the i-j-k scalar formulation.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let (m, n) = (a.rows(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (p, &aval) in a_row.iter().enumerate() {
            for (o, &bv) in out_row.iter_mut().zip(b.row(p)) {
                *o += aval * bv;
            }
        }
    }
    out
}

/// Packed product `a × b` into a caller-owned output (reshaped in place)
/// using caller-owned packing buffers; allocation-free once `out` and
/// `scratch` have grown to the largest shape they serve.
///
/// Without a pool the product runs the serial packed kernel. With one,
/// the serial/parallel decision goes through the pool's
/// [`er_pool::DispatchPolicy`] on the product's multiply-add count
/// (`m·n·k`), so sub-cutover products still run serially with zero pool
/// coordination. Parallel products pack each `B` panel **once** on the
/// caller thread and fan `MR`-aligned row strips out as jobs; each job
/// checks a private `A`-strip buffer out of the scratch's
/// [`er_pool::ScratchSlot`], so nothing is allocated or re-packed per
/// band at steady state. Per-element accumulation order is unchanged by
/// the strip split, so results are bit-identical at any thread count.
pub fn matmul_into(
    a: &Matrix,
    b: &Matrix,
    out: &mut Matrix,
    pool: Option<&WorkerPool>,
    scratch: &mut PackScratch,
) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    debug_validate("matmul (lhs)", || a.validate());
    debug_validate("matmul (rhs)", || b.validate());
    let (m, n) = (a.rows(), b.cols());
    let k = a.cols();
    let work = m.saturating_mul(n).saturating_mul(k);
    out.reset(m, n);
    let Some(pool) = pool.filter(|p| p.dispatch(work).is_parallel()) else {
        er_obs::counter_add("matmul_packed_total", 1);
        matmul_packed_rows(a, b, out.data_mut(), 0, m, scratch);
        return;
    };
    let _span = er_obs::span("matmul");
    er_obs::counter_add("matmul_pooled_total", 1);
    if m == 0 || n == 0 {
        return;
    }
    // MR-aligned strips, ~2 per worker for balance: strip boundaries on
    // MR multiples mean no A tile is packed by two jobs.
    let strip_rows = m.div_ceil(pool.threads() * 2).div_ceil(pack::MR).max(1) * pack::MR;
    let out_data = out.data_mut();
    for kk in (0..k).step_by(pack::KC) {
        let kc = pack::KC.min(k - kk);
        pack::pack_b(b, kk, kc, &mut scratch.b_pack);
        let b_pack: &[f64] = &scratch.b_pack;
        let strip_a = &scratch.strip_a;
        pool.scope(|s| {
            for (t, band) in out_data.chunks_mut(strip_rows * n).enumerate() {
                let row_start = t * strip_rows;
                let row_end = (row_start + strip_rows).min(m);
                s.submit(move || {
                    let mut a_buf = strip_a.checkout();
                    pack::matmul_rows_prepacked_b(
                        a, b_pack, n, kk, kc, band, row_start, row_end, &mut a_buf,
                    );
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::KC;

    fn deterministic(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Cheap LCG so tests need no RNG dependency.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
    }

    /// [`matmul_into`] into a fresh output and scratch.
    fn product(a: &Matrix, b: &Matrix, pool: Option<&WorkerPool>) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        matmul_into(a, b, &mut out, pool, &mut PackScratch::default());
        out
    }

    #[test]
    fn small_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let expect = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]);
        assert_eq!(matmul_naive(&a, &b), expect);
        assert_eq!(a.matmul(&b), expect);
        assert_eq!(product(&a, &b, Some(&WorkerPool::new(4))), expect);
    }

    #[test]
    fn packed_is_bit_identical_to_naive_single_panel() {
        // k ≤ KC: one packed panel, so per-element accumulation order is
        // identical across the kernels (see crate::pack docs).
        let n = 97;
        assert!(n <= KC);
        let a = deterministic(n, n, 11);
        let b = deterministic(n, n, 12);
        assert_eq!(a.matmul(&b), matmul_naive(&a, &b));
    }

    #[test]
    fn packed_into_reuses_buffers_across_shapes() {
        let mut out = Matrix::zeros(0, 0);
        let mut scratch = PackScratch::default();
        for (m, k, n) in [(33, 20, 11), (5, 5, 5), (20, 40, 20)] {
            let a = deterministic(m, k, 20);
            let b = deterministic(k, n, 21);
            matmul_into(&a, &b, &mut out, None, &mut scratch);
            assert_eq!(out, matmul_naive(&a, &b));
        }
    }

    #[test]
    fn rectangular_shapes() {
        let a = deterministic(3, 7, 1);
        let b = deterministic(7, 5, 2);
        let naive = matmul_naive(&a, &b);
        assert!(a.matmul(&b).approx_eq(&naive, 1e-12));
        assert_eq!(naive.rows(), 3);
        assert_eq!(naive.cols(), 5);
    }

    #[test]
    fn pooled_is_bit_identical_to_packed() {
        let n = 97;
        let a = deterministic(n, n, 5);
        let b = deterministic(n, n, 6);
        let single = product(&a, &b, None);
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            assert_eq!(product(&a, &b, Some(&pool)), single, "threads={threads}");
        }
    }

    #[test]
    fn deep_k_pooled_matches_serial_packed() {
        // k > KC exercises the multi-panel write-back; band splits must
        // still be bit-identical to the serial packed kernel.
        let (m, k, n) = (70, 2 * KC + 3, 40);
        let a = deterministic(m, k, 30);
        let b = deterministic(k, n, 31);
        let single = product(&a, &b, None);
        let pool = WorkerPool::new(4);
        assert_eq!(product(&a, &b, Some(&pool)), single);
        assert!(single.approx_eq(&matmul_naive(&a, &b), 1e-9));
    }

    #[test]
    fn pooled_handles_reused_pool_across_products() {
        let pool = WorkerPool::new(4);
        for seed in 0..6 {
            let a = deterministic(70 + seed as usize, 80, seed);
            let b = deterministic(80, 90, seed + 100);
            assert!(product(&a, &b, Some(&pool)).approx_eq(&matmul_naive(&a, &b), 1e-9));
        }
    }

    #[test]
    fn zero_and_identity() {
        let a = deterministic(10, 10, 7);
        let z = Matrix::zeros(10, 10);
        assert!(a.matmul(&z).approx_eq(&z, 0.0));
        assert!(a.matmul(&Matrix::identity(10)).approx_eq(&a, 1e-12));
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[3.0]]);
        let b = Matrix::from_rows(&[&[4.0]]);
        assert_eq!(a.matmul(&b).get(0, 0), 12.0);
    }

    #[test]
    fn empty_dims() {
        let a = Matrix::zeros(0, 0);
        let out = a.matmul(&a);
        assert_eq!(out.rows(), 0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_inner_dims() {
        Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }
}
