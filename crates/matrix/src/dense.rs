//! Row-major dense matrix.

use crate::invariant::InvariantViolation;
use crate::matmul::matmul_into;
use crate::pack::PackScratch;

/// A row-major dense `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds from row slices (all must share one length).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Takes ownership of a row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Releases the underlying row-major buffer (capacity preserved),
    /// for recycling through a [`crate::MatrixArena`].
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Reshapes in place to a zeroed `rows × cols` matrix, reusing the
    /// existing buffer. Allocation-free whenever the buffer's capacity
    /// already covers `rows × cols` — the property every `*_into` kernel
    /// relies on for zero steady-state allocations.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Matrix product using the packed register-tiled kernel; allocates
    /// the output and a transient [`PackScratch`] (hot loops call
    /// [`crate::matmul_into`] instead).
    pub fn matmul(&self, rhs: &Self) -> Self {
        let mut out = Self::zeros(0, 0);
        matmul_into(self, rhs, &mut out, None, &mut PackScratch::default());
        out
    }

    /// Element-wise sum.
    pub fn add(&self, rhs: &Self) -> Self {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Checks the structural invariants of the dense form: the buffer
    /// holds exactly `rows × cols` elements and every element is finite.
    /// Kernel boundaries (`matmul_*`) run this under `debug_assertions` —
    /// a NaN entering a matrix product silently poisons every downstream
    /// similarity score, so it is caught at the door instead.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        if self.data.len() != self.rows * self.cols {
            return Err(InvariantViolation::new(
                "Matrix",
                format!(
                    "buffer holds {} elements for a {}x{} matrix",
                    self.data.len(),
                    self.rows,
                    self.cols
                ),
            ));
        }
        if let Some((i, &v)) = self.data.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(InvariantViolation::new(
                "Matrix",
                format!(
                    "element ({}, {}) is {v} (want finite)",
                    i / self.cols.max(1),
                    i % self.cols.max(1)
                ),
            ));
        }
        Ok(())
    }

    /// True when all elements differ by at most `tol`.
    pub fn approx_eq(&self, rhs: &Self, tol: f64) -> bool {
        self.rows == rhs.rows
            && self.cols == rhs.cols
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.matmul(&Matrix::identity(2)), m);
        assert_eq!(Matrix::identity(2).matmul(&m), m);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(4, 2), m.get(2, 4));
    }

    #[test]
    fn add_is_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, -1.0]]);
        let b = Matrix::from_rows(&[&[2.0, 3.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[3.0, 2.0]]));
    }

    #[test]
    fn approx_eq_respects_tolerance() {
        let a = Matrix::from_rows(&[&[1.0, -3.0], &[2.0, 0.0]]);
        let mut b = a.clone();
        b.set(0, 0, 1.0 + 1e-12);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-15));
    }

    #[test]
    fn reset_reuses_capacity_and_zeroes() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let cap = m.data.capacity();
        m.reset(1, 3);
        assert_eq!((m.rows(), m.cols()), (1, 3));
        assert_eq!(m.data(), &[0.0, 0.0, 0.0]);
        assert_eq!(m.data.capacity(), cap);
        assert_eq!(m.into_vec().capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_mismatch() {
        Matrix::zeros(2, 2).add(&Matrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }
}
