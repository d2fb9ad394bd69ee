//! CSR sparse matrices with `f64` values.
//!
//! [`SparseMatrix`] is used where a *weighted* sparse matrix must be built
//! explicitly — most prominently the truncated PPR proximity matrix assembled
//! by the STRAP baseline — while plain graph adjacency structures are wrapped
//! by the operators in [`crate::operator`] without copying.

use crate::{parallel, DenseMatrix, LinalgError, Result};

/// A CSR sparse matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds a sparse matrix from `(row, col, value)` triplets; duplicate
    /// coordinates are summed (in the order they appear in `triplets`).
    ///
    /// Assembly is a two-pass stable counting sort — first by column, then by
    /// row — followed by one in-place compaction of duplicate coordinates:
    /// `O(nnz + rows + cols)` time, no comparison sort.  Because both passes
    /// are stable, entries with equal coordinates keep their input order, so
    /// the floating-point accumulation of duplicates is bitwise identical to
    /// a comparison-sort assembly (the unit tests' reference).
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        Self::check_triplets(rows, cols, triplets)?;
        let nnz = triplets.len();

        // Pass 1: stable counting sort by column.  `col_pos[c]` walks from
        // the first slot of column c to one past its last.
        let mut col_pos = vec![0usize; cols + 1];
        for &(_, c, _) in triplets {
            col_pos[c + 1] += 1;
        }
        for c in 0..cols {
            col_pos[c + 1] += col_pos[c];
        }
        let mut by_col: Vec<(usize, usize, f64)> = vec![(0, 0, 0.0); nnz];
        for &(r, c, v) in triplets {
            by_col[col_pos[c]] = (r, c, v);
            col_pos[c] += 1;
        }

        // Pass 2: stable counting sort of the column-ordered entries by row.
        // Stability makes each row's slice ascending in column, with
        // duplicate coordinates adjacent and still in input order.
        let mut indptr = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            indptr[r + 1] += 1;
        }
        for r in 0..rows {
            indptr[r + 1] += indptr[r];
        }
        let mut row_pos: Vec<usize> = indptr[..rows].to_vec();
        let mut indices = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        for &(r, c, v) in &by_col {
            let p = row_pos[r];
            indices[p] = c;
            values[p] = v;
            row_pos[r] = p + 1;
        }

        // Pass 3: compact duplicates in place.  After pass 2, `row_pos[r]`
        // equals the old `indptr[r + 1]`, so the original segment of row r is
        // recoverable even as `indptr` is rewritten to the compacted offsets
        // (the write cursor never overtakes the read cursor).
        let mut write = 0usize;
        for r in 0..rows {
            let seg_start = indptr[r];
            let seg_end = row_pos[r];
            indptr[r] = write;
            let mut read = seg_start;
            while read < seg_end {
                let c = indices[read];
                // Seed with 0.0 and add, exactly like the comparison-sort
                // reference — seeding with the first value directly would
                // preserve a -0.0 sign bit the reference normalizes away.
                let mut acc = 0.0f64;
                while read < seg_end && indices[read] == c {
                    acc += values[read];
                    read += 1;
                }
                indices[write] = c;
                values[write] = acc;
                write += 1;
            }
        }
        indptr[rows] = write;
        indices.truncate(write);
        values.truncate(write);
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Reference assembly by stable comparison sort, the oracle the unit
    /// tests compare [`SparseMatrix::from_triplets`] against.  Identical
    /// output, `O(nnz log nnz)` time.
    #[cfg(test)]
    fn from_triplets_comparison(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        Self::check_triplets(rows, cols, triplets)?;
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut iter = sorted.into_iter().peekable();
        for r in 0..rows {
            while let Some(&(tr, c, _)) = iter.peek() {
                if tr != r {
                    break;
                }
                let mut acc = 0.0;
                while let Some(&(dr, dc, dv)) = iter.peek() {
                    if dr != r || dc != c {
                        break;
                    }
                    acc += dv;
                    iter.next();
                }
                indices.push(c);
                values.push(acc);
            }
            indptr[r + 1] = indices.len();
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    fn check_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Result<()> {
        for &(r, c, _) in triplets {
            if r >= rows || c >= cols {
                return Err(LinalgError::InvalidParameter(format!(
                    "triplet ({r}, {c}) out of bounds for {rows}x{cols} matrix"
                )));
            }
        }
        Ok(())
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

    /// Number of stored (possibly zero-valued) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The non-zero entries of row `i` as parallel `(column, value)` slices.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let range = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[range.clone()], &self.values[range])
    }

    /// Retrieves an entry (O(row nnz)).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Transpose, as one direct CSR-to-CSC counting pass: `O(nnz + cols)`
    /// with no triplet round-trip.  Scattering rows in ascending order keeps
    /// each transposed row's column indices sorted.
    pub fn transpose(&self) -> SparseMatrix {
        let nnz = self.nnz();
        let mut indptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            indptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            indptr[c + 1] += indptr[c];
        }
        let mut pos: Vec<usize> = indptr[..self.cols].to_vec();
        let mut indices = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let p = pos[c];
                indices[p] = r;
                values[p] = v;
                pos[c] = p + 1;
            }
        }
        SparseMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Iterates over `(row, col, value)` of all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Sparse × dense product `self * x` on the calling thread.
    pub fn matmul_dense(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        self.matmul_dense_exec(x, &parallel::Exec::sequential())
    }

    /// Sparse × dense product `self * x` under an [`parallel::Exec`] policy.
    ///
    /// Each output row is one CSR-row gather produced by a single worker in
    /// ascending column order, so the result is bitwise identical for every
    /// thread budget and execution policy.
    pub fn matmul_dense_exec(&self, x: &DenseMatrix, exec: &parallel::Exec) -> Result<DenseMatrix> {
        if self.cols != x.rows() {
            return Err(LinalgError::ShapeMismatch {
                operation: "sparse * dense".into(),
                left: (self.rows, self.cols),
                right: x.shape(),
            });
        }
        let data = parallel::par_fill_rows_exec(self.rows, x.cols(), exec, |r, out_row| {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let x_row = x.row(c);
                for (o, &xv) in out_row.iter_mut().zip(x_row) {
                    *o += v * xv;
                }
            }
        });
        DenseMatrix::from_vec(self.rows, x.cols(), data)
    }

    /// Sparse-transpose × dense product `selfᵀ * x`.
    pub fn transpose_matmul_dense(&self, x: &DenseMatrix) -> Result<DenseMatrix> {
        if self.rows != x.rows() {
            return Err(LinalgError::ShapeMismatch {
                operation: "sparseᵀ * dense".into(),
                left: (self.cols, self.rows),
                right: x.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.cols, x.cols());
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            let x_row = x.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let out_row = out.row_mut(c);
                for (o, &xv) in out_row.iter_mut().zip(x_row) {
                    *o += v * xv;
                }
            }
        }
        Ok(out)
    }

    /// Densifies (tests / tiny matrices only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.add_to(r, c, v);
        }
        out
    }

    /// Frobenius norm of the stored entries.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseMatrix {
        SparseMatrix::from_triplets(3, 4, &[(0, 1, 2.0), (0, 3, 1.0), (1, 0, -1.0), (2, 2, 5.0)])
            .unwrap()
    }

    #[test]
    fn get_and_nnz() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(2, 2), 5.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]).unwrap();
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn interleaved_cross_row_duplicates_accumulate_correctly() {
        // Regression for the historical duplicate-accumulation branch: the
        // duplicates of one coordinate arrive interleaved with entries of
        // *other* rows and columns (never adjacent in the input), and several
        // coordinates have duplicates at once.
        let triplets = [
            (1, 2, 1.0),
            (0, 1, 10.0),
            (2, 0, 100.0),
            (1, 2, 2.0),
            (0, 3, 5.0),
            (1, 0, 7.0),
            (0, 1, 20.0),
            (2, 0, 200.0),
            (1, 2, 4.0),
            (0, 1, 30.0),
        ];
        let m = SparseMatrix::from_triplets(3, 4, &triplets).unwrap();
        assert_eq!(m.get(0, 1), 60.0);
        assert_eq!(m.get(0, 3), 5.0);
        assert_eq!(m.get(1, 0), 7.0);
        assert_eq!(m.get(1, 2), 7.0);
        assert_eq!(m.get(2, 0), 300.0);
        assert_eq!(m.nnz(), 5, "each coordinate stored once");
        // Row slices stay sorted by column.
        for r in 0..3 {
            let (cols, _) = m.row(r);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r}: {cols:?}");
        }
        // And the counting-sort assembly matches the comparison-sort
        // reference bit for bit.
        let reference = SparseMatrix::from_triplets_comparison(3, 4, &triplets).unwrap();
        assert_eq!(m, reference);
    }

    #[test]
    fn counting_and_comparison_assembly_agree_on_random_triplets() {
        // Pseudo-random triplets with a high duplicate rate; both assemblies
        // must produce identical structure and bitwise identical values.
        let mut triplets = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let r = (next() % 23) as usize;
            let c = (next() % 17) as usize;
            let v = (next() % 1000) as f64 * 0.37 - 150.0;
            triplets.push((r, c, v));
        }
        let counting = SparseMatrix::from_triplets(23, 17, &triplets).unwrap();
        let comparison = SparseMatrix::from_triplets_comparison(23, 17, &triplets).unwrap();
        assert_eq!(counting, comparison);
        assert_eq!(counting.transpose(), comparison.transpose());
        assert_eq!(counting.transpose().transpose(), counting);
    }

    #[test]
    fn negative_zero_values_assemble_bitwise_like_the_reference() {
        // `assert_eq!` on f64 treats -0.0 == 0.0, so check the bits: both
        // assemblies seed accumulation with +0.0, normalizing a lone -0.0.
        let triplets = [(0usize, 0usize, -0.0f64), (1, 1, -0.0), (1, 1, -0.0)];
        let counting = SparseMatrix::from_triplets(2, 2, &triplets).unwrap();
        let comparison = SparseMatrix::from_triplets_comparison(2, 2, &triplets).unwrap();
        for (r, c) in [(0usize, 0usize), (1, 1)] {
            assert_eq!(
                counting.get(r, c).to_bits(),
                comparison.get(r, c).to_bits(),
                "({r},{c})"
            );
            assert_eq!(counting.get(r, c).to_bits(), 0.0f64.to_bits(), "({r},{c})");
        }
    }

    #[test]
    fn out_of_bounds_rejected() {
        assert!(SparseMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(SparseMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn empty_rows_handled() {
        let m = SparseMatrix::from_triplets(4, 4, &[(3, 3, 1.0)]).unwrap();
        assert_eq!(m.row(0).0.len(), 0);
        assert_eq!(m.row(3).0, &[3]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.get(1, 0), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_dense_matches_dense_matmul() {
        let m = sample();
        let x = DenseMatrix::from_fn(4, 3, |i, j| (i + j) as f64 * 0.5);
        let sparse_result = m.matmul_dense(&x).unwrap();
        let dense_result = m.to_dense().matmul(&x).unwrap();
        assert!(sparse_result.sub(&dense_result).unwrap().frobenius_norm() < 1e-12);
    }

    #[test]
    fn transpose_matmul_dense_matches() {
        let m = sample();
        let x = DenseMatrix::from_fn(3, 2, |i, j| (2 * i + j) as f64);
        let fast = m.transpose_matmul_dense(&x).unwrap();
        let slow = m.to_dense().transpose().matmul(&x).unwrap();
        assert!(fast.sub(&slow).unwrap().frobenius_norm() < 1e-12);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let m = sample();
        let x = DenseMatrix::zeros(3, 3);
        assert!(m.matmul_dense(&x).is_err());
        let y = DenseMatrix::zeros(4, 2);
        assert!(m.transpose_matmul_dense(&y).is_err());
    }

    #[test]
    fn iter_yields_all_entries() {
        let m = sample();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries.len(), 4);
        assert!(entries.contains(&(1, 0, -1.0)));
    }

    #[test]
    fn frobenius_norm_value() {
        let m = SparseMatrix::from_triplets(2, 2, &[(0, 0, 3.0), (1, 1, 4.0)]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
