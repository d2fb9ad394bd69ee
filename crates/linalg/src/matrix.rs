//! Row-major dense matrices.

use crate::{parallel, LinalgError, Result};

/// A dense, row-major matrix of `f64` values.
///
/// Rows are contiguous, so per-node embedding rows (`X_v`, `Y_v`) are cheap
/// slices — the access pattern dominating the NRP reweighting loops.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a closure over `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidParameter(format!(
                "data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidParameter(
                "matrix needs at least one row".into(),
            ));
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::InvalidParameter(
                "rows have inconsistent lengths".into(),
            ));
        }
        let data = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
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

    /// Shape as a `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Value at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets the value at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = value;
    }

    /// Adds `value` to the entry at `(i, j)`.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] += value;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` as an owned vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// The underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The underlying row-major data, mutably.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
        out
    }

    /// Matrix product `self * other` on the calling thread.
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        self.matmul_exec(other, &parallel::Exec::sequential())
    }

    /// Product `selfᵀ * other` without materializing the transpose.
    pub fn transpose_matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                operation: "transpose_matmul".into(),
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (i, &a_ri) in a_row.iter().enumerate() {
                if a_ri == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (j, &b_rj) in b_row.iter().enumerate() {
                    out_row[j] += a_ri * b_rj;
                }
            }
        }
        Ok(out)
    }

    /// Product `self * otherᵀ` without materializing the transpose.
    pub fn matmul_transpose(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                operation: "matmul_transpose".into(),
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let dot: f64 = a_row.iter().zip(b_row).map(|(a, b)| a * b).sum();
                out.set(i, j, dot);
            }
        }
        Ok(out)
    }

    /// Gram matrix `selfᵀ * self`.
    pub fn gram(&self) -> DenseMatrix {
        self.transpose_matmul(self)
            .expect("gram shapes always agree")
    }

    /// Matrix product `self * other` under an [`parallel::Exec`] policy.
    ///
    /// Every output row is produced by one worker with a fixed i-k-j inner
    /// loop (streaming over `other`'s rows, cache friendly for row-major
    /// data), so the result is bitwise identical for every thread budget and
    /// execution policy.
    pub fn matmul_exec(&self, other: &DenseMatrix, exec: &parallel::Exec) -> Result<DenseMatrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                operation: "matmul".into(),
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = parallel::par_fill_rows_exec(self.rows, other.cols, exec, |i, out_row| {
            let a_row = self.row(i);
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ik * b_kj;
                }
            }
        });
        DenseMatrix::from_vec(self.rows, other.cols, data)
    }

    /// `selfᵀ * other` as a deterministic chunked map-reduce under an
    /// [`parallel::Exec`] policy.
    ///
    /// The accumulation over rows is grouped into fixed chunks
    /// ([`parallel::REDUCE_CHUNK`]) folded in order, so the result is bitwise
    /// identical for every thread budget — including 1, which is why even the
    /// single-threaded path goes through the chunked grouping rather than
    /// falling back to [`DenseMatrix::transpose_matmul`] (whose row-by-row
    /// grouping differs in the last ulp).
    pub fn transpose_matmul_exec(
        &self,
        other: &DenseMatrix,
        exec: &parallel::Exec,
    ) -> Result<DenseMatrix> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                operation: "transpose_matmul".into(),
                left: self.shape(),
                right: other.shape(),
            });
        }
        let partial = |range: std::ops::Range<usize>| -> DenseMatrix {
            let mut out = DenseMatrix::zeros(self.cols, other.cols);
            for r in range {
                let a_row = self.row(r);
                let b_row = other.row(r);
                for (i, &a_ri) in a_row.iter().enumerate() {
                    if a_ri == 0.0 {
                        continue;
                    }
                    let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                    for (j, &b_rj) in b_row.iter().enumerate() {
                        out_row[j] += a_ri * b_rj;
                    }
                }
            }
            out
        };
        let folded = parallel::par_reduce_exec(
            self.rows,
            parallel::REDUCE_CHUNK,
            exec,
            partial,
            |mut a, b| {
                a.axpy(1.0, &b).expect("partials share a shape");
                a
            },
        );
        Ok(folded.unwrap_or_else(|| DenseMatrix::zeros(self.cols, other.cols)))
    }

    /// Gram matrix `selfᵀ * self` under an [`parallel::Exec`] policy (see
    /// [`DenseMatrix::transpose_matmul_exec`] for the determinism contract).
    pub fn gram_exec(&self, exec: &parallel::Exec) -> DenseMatrix {
        self.transpose_matmul_exec(self, exec)
            .expect("gram shapes always agree")
    }

    /// Element-wise scaling in place.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                operation: "add".into(),
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `self - other`.
    pub fn sub(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                operation: "sub".into(),
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// In-place `self += factor * other`.
    pub fn axpy(&mut self, factor: f64, other: &DenseMatrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                operation: "axpy".into(),
                left: self.shape(),
                right: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += factor * b;
        }
        Ok(())
    }

    /// Scales row `i` by `factor`.
    pub fn scale_row(&mut self, i: usize, factor: f64) {
        for v in self.row_mut(i) {
            *v *= factor;
        }
    }

    /// Multiplies each row `i` by `factors[i]` (i.e. left-multiplication by a
    /// diagonal matrix).
    pub fn scale_rows(&mut self, factors: &[f64]) -> Result<()> {
        if factors.len() != self.rows {
            return Err(LinalgError::InvalidParameter(format!(
                "expected {} row factors, got {}",
                self.rows,
                factors.len()
            )));
        }
        for (i, &f) in factors.iter().enumerate() {
            self.scale_row(i, f);
        }
        Ok(())
    }

    /// Multiplies each column `j` by `factors[j]` (right-multiplication by a
    /// diagonal matrix).
    pub fn scale_cols(&mut self, factors: &[f64]) -> Result<()> {
        if factors.len() != self.cols {
            return Err(LinalgError::InvalidParameter(format!(
                "expected {} column factors, got {}",
                self.cols,
                factors.len()
            )));
        }
        for i in 0..self.rows {
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (v, &f) in row.iter_mut().zip(factors) {
                *v *= f;
            }
        }
        Ok(())
    }

    /// Keeps the first `k` columns, dropping the rest.
    pub fn truncate_cols(&self, k: usize) -> DenseMatrix {
        let k = k.min(self.cols);
        let mut out = DenseMatrix::zeros(self.rows, k);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[..k]);
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hstack(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                operation: "hstack".into(),
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        Ok(out)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()))
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Dot product of two rows of (possibly different) matrices.
    pub fn row_dot(a: &DenseMatrix, i: usize, b: &DenseMatrix, j: usize) -> f64 {
        a.row(i).iter().zip(b.row(j)).map(|(x, y)| x * y).sum()
    }
}

/// Dot product of two slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{Exec, WorkerPool};
    use std::sync::Arc;

    fn approx_eq(a: &DenseMatrix, b: &DenseMatrix, tol: f64) -> bool {
        a.shape() == b.shape()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn identity_matmul_is_identity_map() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let i = DenseMatrix::identity(2);
        assert!(approx_eq(&a.matmul(&i).unwrap(), &a, 1e-12));
    }

    #[test]
    fn matmul_known_values() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = DenseMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert!(approx_eq(&c, &expected, 1e-12));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[1.0, 0.5], &[0.0, 2.0], &[1.0, 1.0]]).unwrap();
        let fast = a.transpose_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert!(approx_eq(&fast, &slow, 1e-12));
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[1.0, 0.0, 1.0], &[2.0, 1.0, 0.0]]).unwrap();
        let fast = a.matmul_transpose(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert!(approx_eq(&fast, &slow, 1e-12));
    }

    #[test]
    fn gram_is_symmetric() {
        let a = DenseMatrix::from_fn(5, 3, |i, j| (i * 3 + j) as f64 * 0.3 - 1.0);
        let g = a.gram();
        for i in 0..3 {
            for j in 0..3 {
                assert!((g.get(i, j) - g.get(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = DenseMatrix::from_fn(4, 7, |i, j| (i + 2 * j) as f64);
        assert!(approx_eq(&a.transpose().transpose(), &a, 0.0));
    }

    #[test]
    fn add_sub_axpy() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]).unwrap();
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.get(0, 0), 1.5);
        let diff = a.sub(&b).unwrap();
        assert_eq!(diff.get(1, 1), 3.5);
        let mut c = a.clone();
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c.get(0, 1), 3.0);
    }

    #[test]
    fn scale_rows_and_cols() {
        let mut a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        a.scale_rows(&[2.0, 0.5]).unwrap();
        assert_eq!(a.get(0, 1), 4.0);
        assert_eq!(a.get(1, 0), 1.5);
        a.scale_cols(&[1.0, 10.0]).unwrap();
        assert_eq!(a.get(0, 1), 40.0);
    }

    #[test]
    fn scale_rows_length_checked() {
        let mut a = DenseMatrix::zeros(2, 2);
        assert!(a.scale_rows(&[1.0]).is_err());
        assert!(a.scale_cols(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn truncate_and_hstack() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = a.truncate_cols(2);
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.get(1, 1), 5.0);
        let h = t.hstack(&t).unwrap();
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h.get(0, 3), 2.0);
    }

    #[test]
    fn norms() {
        let a = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
        assert!(a.is_finite());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_checks_consistency() {
        assert!(DenseMatrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
        assert!(DenseMatrix::from_rows(&[]).is_err());
    }

    #[test]
    fn row_dot_and_slice_helpers() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(DenseMatrix::row_dot(&a, 0, &a, 1), 11.0);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    fn pooled(threads: usize) -> Exec {
        Exec::pooled(Arc::new(WorkerPool::new(threads)), threads)
    }

    #[test]
    fn matmul_exec_is_bitwise_equal_to_sequential() {
        let a = DenseMatrix::from_fn(67, 31, |i, j| ((i * 31 + j) % 13) as f64 * 0.37 - 1.1);
        let b = DenseMatrix::from_fn(31, 9, |i, j| ((i + 2 * j) % 7) as f64 * 0.21 + 0.4);
        let sequential = a.matmul(&b).unwrap();
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(
                a.matmul_exec(&b, &pooled(threads)).unwrap(),
                sequential,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn transpose_matmul_exec_is_thread_invariant_and_accurate() {
        let a = DenseMatrix::from_fn(143, 5, |i, j| ((i * 5 + j) % 11) as f64 * 0.3 - 0.9);
        let b = DenseMatrix::from_fn(143, 4, |i, j| ((i + j) % 9) as f64 * 0.17 + 0.2);
        let reference = a.transpose_matmul_exec(&b, &Exec::sequential()).unwrap();
        for threads in [2usize, 4, 7] {
            assert_eq!(
                a.transpose_matmul_exec(&b, &pooled(threads)).unwrap(),
                reference
            );
        }
        // Numerically the chunked grouping agrees with the plain product.
        let plain = a.transpose_matmul(&b).unwrap();
        assert!(reference.sub(&plain).unwrap().max_abs() < 1e-10);
        assert_eq!(
            a.gram_exec(&pooled(3)),
            a.transpose_matmul_exec(&a, &Exec::sequential()).unwrap()
        );
    }

    #[test]
    fn parallel_products_check_shapes() {
        let a = DenseMatrix::zeros(3, 4);
        let b = DenseMatrix::zeros(5, 2);
        assert!(a.matmul_exec(&b, &pooled(2)).is_err());
        assert!(a.transpose_matmul_exec(&b, &pooled(2)).is_err());
    }

    #[test]
    fn col_extraction() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        assert_eq!(a.col(1), vec![2.0, 4.0, 6.0]);
    }
}
