//! Property tests for the dense structural validator that `matmul_into`
//! runs on its operands under `debug_assertions`: every finite matrix
//! passes `Matrix::validate()`, and one injected NaN is caught.

use er_matrix::Matrix;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_finite_validates(a in proptest::collection::vec(-2.0f64..2.0, 6 * 5)) {
        let m = Matrix::from_vec(6, 5, a);
        prop_assert!(m.validate().is_ok());
    }

    #[test]
    fn dense_nan_fails(a in proptest::collection::vec(-2.0f64..2.0, 6 * 5),
                       pick in 0usize..1024) {
        let mut m = Matrix::from_vec(6, 5, a);
        let i = pick % m.data().len();
        m.data_mut()[i] = f64::NAN;
        prop_assert!(m.validate().is_err());
    }
}
