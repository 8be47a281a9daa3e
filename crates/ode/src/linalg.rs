//! Small dense linear algebra: just enough to hold the system matrix of a
//! [`LinearSystem`](crate::system::LinearSystem) or
//! [`AffineSystem`](crate::system::AffineSystem) — a row-major [`Matrix`]
//! read by `(row, column)` index.

use std::ops::Index;

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use urt_ode::linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(a, Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
/// assert_eq!(a[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_indexing() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!((a.rows(), a.cols()), (2, 3));
        assert!(!a.is_square());
        assert_eq!(a[(1, 2)], 6.0);
        assert_eq!(a, Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        assert!(Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).is_square());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn from_rows_rejects_ragged_rows() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }
}
