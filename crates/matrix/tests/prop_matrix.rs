//! Property tests for the matrix kernels: algebraic identities checked
//! against the naive reference implementation.

use er_matrix::{matmul_into, matmul_naive, Matrix, PackScratch};
use er_pool::{DispatchPolicy, WorkerPool};
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f64..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

fn square(n: usize) -> impl Strategy<Value = Matrix> {
    matrix(n, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_equals_naive(a in matrix(5, 9), b in matrix(9, 4)) {
        let fast = a.matmul(&b);
        let slow = matmul_naive(&a, &b);
        prop_assert!(fast.approx_eq(&slow, 1e-10));
    }

    #[test]
    fn pooled_equals_packed(a in square(17), b in square(17), threads in 1usize..5) {
        let pool = WorkerPool::with_policy(threads, DispatchPolicy::always_parallel());
        let mut t = Matrix::zeros(0, 0);
        matmul_into(&a, &b, &mut t, Some(&pool), &mut PackScratch::default());
        let s = a.matmul(&b);
        prop_assert!(t.approx_eq(&s, 1e-12));
    }

    #[test]
    fn matmul_associative(a in square(6), b in square(6), c in square(6)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.approx_eq(&right, 1e-8));
    }

    #[test]
    fn matmul_distributes_over_add(a in square(6), b in square(6), c in square(6)) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn transpose_of_product(a in matrix(4, 7), b in matrix(7, 5)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    #[test]
    fn identity_is_neutral(a in square(8)) {
        let i = Matrix::identity(8);
        prop_assert!(a.matmul(&i).approx_eq(&a, 1e-12));
        prop_assert!(i.matmul(&a).approx_eq(&a, 1e-12));
    }
}
