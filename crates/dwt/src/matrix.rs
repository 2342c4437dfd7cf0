//! Dense row-major matrix used for images and wavelet sub-bands.

use crate::error::{DwtError, Result};

/// A dense, row-major `f64` matrix.
///
/// This is the image/sub-band container used throughout the crate. It is
/// deliberately simple — contiguous storage, row slices, and the handful
/// of operations the transforms need — so that the parallel code can hand
/// out disjoint row stripes without aliasing issues.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wrap an existing row-major buffer. Errors if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(DwtError::DimensionMismatch {
                detail: format!(
                    "buffer of {} elements cannot back a {rows}x{cols} matrix",
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Copy column `c` into `out` (which must have `rows` elements).
    pub fn copy_col_into(&self, c: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.rows);
        for (r, slot) in out.iter_mut().enumerate() {
            *slot = self.data[r * self.cols + c];
        }
    }

    /// Write `col` into column `c`.
    pub fn set_col(&mut self, c: usize, col: &[f64]) {
        debug_assert_eq!(col.len(), self.rows);
        for (r, &v) in col.iter().enumerate() {
            self.data[r * self.cols + c] = v;
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Extract the sub-matrix of size `h x w` whose top-left corner is
    /// `(r0, c0)`.
    pub fn submatrix(&self, r0: usize, c0: usize, h: usize, w: usize) -> Result<Matrix> {
        if r0 + h > self.rows || c0 + w > self.cols {
            return Err(DwtError::DimensionMismatch {
                detail: format!(
                    "sub-matrix {h}x{w}@({r0},{c0}) exceeds a {}x{} matrix",
                    self.rows, self.cols
                ),
            });
        }
        let mut out = Matrix::zeros(h, w);
        for r in 0..h {
            let src = (r0 + r) * self.cols + c0;
            out.row_mut(r).copy_from_slice(&self.data[src..src + w]);
        }
        Ok(out)
    }

    /// Paste `block` with its top-left corner at `(r0, c0)`.
    pub fn paste(&mut self, r0: usize, c0: usize, block: &Matrix) -> Result<()> {
        if r0 + block.rows > self.rows || c0 + block.cols > self.cols {
            return Err(DwtError::DimensionMismatch {
                detail: format!(
                    "paste of {}x{}@({r0},{c0}) exceeds a {}x{} matrix",
                    block.rows, block.cols, self.rows, self.cols
                ),
            });
        }
        for r in 0..block.rows {
            let dst = (r0 + r) * self.cols + c0;
            self.data[dst..dst + block.cols].copy_from_slice(block.row(r));
        }
        Ok(())
    }

    /// Sum of squared elements (signal energy).
    pub fn energy(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Largest absolute element difference against `other`.
    ///
    /// Returns `None` when shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Option<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_indexes_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn from_vec_rejects_wrong_size() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(4, 2), m.get(2, 4));
    }

    #[test]
    fn column_copy_and_set() {
        let mut m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64);
        let mut col = vec![0.0; 4];
        m.copy_col_into(1, &mut col);
        assert_eq!(col, vec![1.0, 4.0, 7.0, 10.0]);
        m.set_col(1, &[9.0, 9.0, 9.0, 9.0]);
        assert_eq!(m.get(2, 1), 9.0);
        assert_eq!(m.get(2, 0), 6.0);
    }

    #[test]
    fn submatrix_and_paste() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let s = m.submatrix(1, 2, 2, 2).unwrap();
        assert_eq!(s.data(), &[6.0, 7.0, 10.0, 11.0]);
        let mut z = Matrix::zeros(4, 4);
        z.paste(2, 0, &s).unwrap();
        assert_eq!(z.get(2, 0), 6.0);
        assert_eq!(z.get(3, 1), 11.0);
        assert!(m.submatrix(3, 3, 2, 2).is_err());
        assert!(z.clone().paste(3, 3, &s).is_err());
    }

    #[test]
    fn energy_is_sum_of_squares() {
        let m = Matrix::from_vec(1, 3, vec![1.0, 2.0, 2.0]).unwrap();
        assert_eq!(m.energy(), 9.0);
    }

    #[test]
    fn max_abs_diff_detects_shape_mismatch() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(a.max_abs_diff(&b).is_none());
        let c = Matrix::from_vec(2, 2, vec![0.0, 0.5, 0.0, -2.0]).unwrap();
        assert_eq!(a.max_abs_diff(&c), Some(2.0));
    }
}
