//! Property tests for the matrix kernels: algebraic identities checked
//! against the naive reference implementation.

use er_matrix::{matmul_into, matmul_naive, CsrMatrix, Matrix, PackScratch};
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

    #[test]
    fn sparse_round_trip(a in square(8)) {
        // Sparsify: zero out small entries to get genuine sparsity.
        let mut m = a.clone();
        for v in m.data_mut() {
            if v.abs() < 1.0 {
                *v = 0.0;
            }
        }
        let s = CsrMatrix::from_dense(&m);
        prop_assert!(s.to_dense().approx_eq(&m, 0.0));
        prop_assert_eq!(s.nnz(), m.data().iter().filter(|v| **v != 0.0).count());
    }

    #[test]
    fn sparse_times_dense_equals_dense_product(a in square(8), b in square(8)) {
        let mut m = a.clone();
        for v in m.data_mut() {
            if v.abs() < 1.0 {
                *v = 0.0;
            }
        }
        let s = CsrMatrix::from_dense(&m);
        let sparse_prod = s.matmul_dense(&b);
        let dense_prod = matmul_naive(&m, &b);
        prop_assert!(sparse_prod.approx_eq(&dense_prod, 1e-10));
    }

    #[test]
    fn matvec_is_single_column_matmul(a in square(8), x in proptest::collection::vec(-2.0f64..2.0, 8)) {
        let mut m = a.clone();
        for v in m.data_mut() {
            if v.abs() < 0.8 {
                *v = 0.0;
            }
        }
        let s = CsrMatrix::from_dense(&m);
        let y = s.matvec(&x);
        let col = Matrix::from_vec(8, 1, x.clone());
        let y2 = matmul_naive(&m, &col);
        for (i, &v) in y.iter().enumerate() {
            prop_assert!((v - y2.get(i, 0)).abs() < 1e-10);
        }
    }
}
