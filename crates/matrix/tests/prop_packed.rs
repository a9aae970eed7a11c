//! Property tests for the packed register-tiled matmul: ragged shapes
//! straddling the MR/NR tile edges and the KC depth panel must produce
//! *bit-identical* results to the naive i-k-j reference (both accumulate
//! per output element in ascending-k order, so for k ≤ KC there is no
//! rounding slack at all), and the pooled row-strip splits must be
//! bit-identical to the serial packed kernel at every thread count.

use er_matrix::{matmul_into, matmul_naive, Matrix, PackScratch, KC, MR, NR};
use er_pool::{DispatchPolicy, WorkerPool};
use proptest::prelude::*;

/// Dimensions that exercise every tail case: degenerate sizes, the NR
/// panel edges, the MR strip edges, and a cache-block boundary.
const DIMS: [usize; 13] = [
    1,
    2,
    3,
    4,
    5,
    NR - 1,
    NR + 1,
    MR - 1,
    MR,
    MR + 1,
    63,
    64,
    65,
];

fn ragged_dim() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

fn matrix_of(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f64..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// [`matmul_into`] into a fresh output and scratch.
fn pooled(a: &Matrix, b: &Matrix, pool: &WorkerPool) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    matmul_into(a, b, &mut out, Some(pool), &mut PackScratch::default());
    out
}

fn ragged_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (ragged_dim(), ragged_dim(), ragged_dim())
        .prop_flat_map(|(m, k, n)| (matrix_of(m, k), matrix_of(k, n)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn packed_bit_identical_to_naive_on_ragged_shapes((a, b) in ragged_pair()) {
        // All sampled k are ≤ KC (single depth panel), so the packed
        // kernel's per-element sum runs in the same ascending-k order as
        // the naive kernel: results must match to the last bit.
        prop_assert!(a.cols() <= KC);
        let packed = a.matmul(&b);
        let naive = matmul_naive(&a, &b);
        prop_assert_eq!(packed.data(), naive.data());
    }

    #[test]
    fn packed_into_matches_packed_with_dirty_scratch(
        (a, b) in ragged_pair(),
        (a2, b2) in ragged_pair(),
    ) {
        // Scratch reuse across unrelated shapes must not leak state.
        let mut scratch = PackScratch::default();
        let mut out = Matrix::zeros(1, 1);
        matmul_into(&a2, &b2, &mut out, None, &mut scratch);
        matmul_into(&a, &b, &mut out, None, &mut scratch);
        prop_assert_eq!(out.data(), a.matmul(&b).data());
        prop_assert_eq!(out.rows(), a.rows());
        prop_assert_eq!(out.cols(), b.cols());
    }

    #[test]
    fn pooled_bit_identical_at_any_thread_count((a, b) in ragged_pair()) {
        let serial = a.matmul(&b);
        for threads in [1usize, 2, 8] {
            let pool = WorkerPool::with_policy(threads, DispatchPolicy::always_parallel());
            let p = pooled(&a, &b, &pool);
            prop_assert_eq!(p.data(), serial.data(), "pooled threads={}", threads);
        }
    }

    #[test]
    fn deep_k_row_bands_match_serial(
        m in ragged_dim(),
        n in ragged_dim(),
        a_seed in proptest::collection::vec(-1.0f64..1.0, 16),
    ) {
        // k > KC engages the multi-panel accumulate path; row-band splits
        // must still be bit-identical to the serial packed result because
        // each output row is computed independently.
        let k = KC + 7;
        let a = Matrix::from_fn(m, k, |i, j| a_seed[(i * 31 + j * 17) % 16] * 0.5);
        let b = Matrix::from_fn(k, n, |i, j| a_seed[(i * 13 + j * 29) % 16] * 0.25);
        let serial = a.matmul(&b);
        for threads in [2usize, 8] {
            let pool = WorkerPool::with_policy(threads, DispatchPolicy::always_parallel());
            let p = pooled(&a, &b, &pool);
            prop_assert_eq!(p.data(), serial.data(), "threads={}", threads);
        }
    }
}
