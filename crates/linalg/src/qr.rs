//! Thin QR factorization and orthonormal range bases.
//!
//! Randomized SVD only needs an orthonormal basis of the sketch's column
//! space.  Gram–Schmidt with one re-orthogonalization pass ("twice is
//! enough", Giraud et al.) delivers orthogonality to machine precision for
//! the well-conditioned sketches produced by Gaussian test matrices, at a
//! fraction of the implementation complexity of Householder reflections.
//! Two variants exist:
//!
//! * [`thin_qr`] / [`orthonormalize`] — sequential modified Gram–Schmidt,
//!   which also returns `R`;
//! * [`orthonormalize_exec`] — panel-blocked classical Gram–Schmidt (BCGS2)
//!   whose block products run under an [`parallel::Exec`] policy and are
//!   bitwise identical for every thread budget.

use crate::matrix::{dot, norm2};
use crate::{kernels, parallel, DenseMatrix, LinalgError, Result};

/// Result of a thin QR factorization `A = Q R` with `Q` having orthonormal
/// columns.
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// The `m x k` orthonormal factor (`k <= min(m, n)`, rank-deficient
    /// columns are dropped).
    pub q: DenseMatrix,
    /// The `k x n` upper-triangular factor.
    pub r: DenseMatrix,
}

/// Computes a thin QR factorization of `a` (`m x n`, `m >= n` expected but
/// not required). Columns that are (numerically) linearly dependent on
/// earlier columns are dropped from `Q`.
pub fn thin_qr(a: &DenseMatrix) -> Result<QrFactors> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::InvalidParameter("qr of empty matrix".into()));
    }
    // Work with columns: copy A into column-major vectors.
    let mut cols: Vec<Vec<f64>> = (0..n).map(|j| a.col(j)).collect();
    let mut q_cols: Vec<Vec<f64>> = Vec::with_capacity(n);
    let mut r = DenseMatrix::zeros(n, n);
    let mut kept: Vec<usize> = Vec::with_capacity(n);
    let norm_scale = a.frobenius_norm().max(1.0);
    let tol = 1e-12 * norm_scale;
    for j in 0..n {
        let mut v = std::mem::take(&mut cols[j]);
        // Two passes of modified Gram–Schmidt against the kept columns.
        for _pass in 0..2 {
            for (qi, &orig_col) in q_cols.iter().zip(&kept) {
                let coeff = dot(qi, &v);
                r.add_to(orig_col, j, coeff);
                for (vk, qk) in v.iter_mut().zip(qi) {
                    *vk -= coeff * qk;
                }
            }
        }
        let norm = norm2(&v);
        if norm > tol {
            r.set(j, j, norm);
            for vk in &mut v {
                *vk /= norm;
            }
            q_cols.push(v);
            kept.push(j);
        }
        // else: dependent column, dropped from Q (R row stays zero).
    }
    let k = q_cols.len();
    let mut q = DenseMatrix::zeros(m, k);
    for (jq, col) in q_cols.iter().enumerate() {
        for (i, &val) in col.iter().enumerate() {
            q.set(i, jq, val);
        }
    }
    // Compact R: keep only the rows corresponding to kept pivots.
    let mut r_compact = DenseMatrix::zeros(k, n);
    for (new_row, &orig) in kept.iter().enumerate() {
        r_compact.row_mut(new_row).copy_from_slice(r.row(orig));
    }
    Ok(QrFactors { q, r: r_compact })
}

/// Returns an orthonormal basis of the column space of `a` (just the `Q`
/// factor of [`thin_qr`]).
pub fn orthonormalize(a: &DenseMatrix) -> Result<DenseMatrix> {
    Ok(thin_qr(a)?.q)
}

/// Width of the column panels [`orthonormalize_exec`] projects as blocks.
/// A constant, never derived from the thread budget: it fixes which columns
/// are projected together, and therefore every floating-point grouping.
const PANEL: usize = 32;

/// Returns an orthonormal basis of the column space of `a` under an
/// [`parallel::Exec`] policy.
///
/// Uses panel-blocked classical Gram–Schmidt run twice (BCGS2, "twice is
/// enough" — Giraud et al.).  Columns are taken in panels of a fixed width
/// of 32.  Each panel `P` is projected twice against the basis `Q` kept so
/// far with two matrix-shaped products, `C = QᵀP` and `P ← P − QC`, then
/// orthonormalized column by column with CGS2 inside the panel; its kept
/// columns are written straight into the output.  Nearly all the flops land
/// in the two block products, which stream `Q` once per panel pass instead
/// of once per column.
///
/// Every floating-point grouping is fixed by the problem shape alone, so the
/// result is **bitwise identical for every thread budget and execution
/// policy, and with or without AVX2** — the property the randomized SVD's
/// thread-invariance contract relies on:
///
/// * `C = QᵀP` is a sum over fixed [`parallel::REDUCE_CHUNK`]-row chunks,
///   each accumulated in row order by one worker and folded in chunk order;
/// * `P ← P − QC` is independent per row, each row accumulating over `Q`'s
///   columns in ascending order;
/// * both products run register-tiled kernels whose portable and AVX2
///   copies perform the same multiplies and subtractions in the same order
///   (never fused);
/// * inside a panel, CGS2 runs on the calling thread: each projection
///   coefficient is one whole-column dot product, and each element of the
///   update accumulates over the earlier columns in ascending order.
///
/// The result differs in the last ulps from the modified-Gram–Schmidt
/// [`orthonormalize`], which is why the two are separate entry points:
/// callers pick one and stay with it.
///
/// Columns numerically dependent on earlier columns — in the same panel or
/// an earlier one — are dropped, with the same tolerance as [`thin_qr`]
/// (`1e-12 · max(‖A‖_F, 1)` on the projected norm).
pub fn orthonormalize_exec(a: &DenseMatrix, exec: &parallel::Exec) -> Result<DenseMatrix> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::InvalidParameter("qr of empty matrix".into()));
    }
    let tol = 1e-12 * a.frobenius_norm().max(1.0);
    // Kept columns fill `q` (row-major, row stride `n`) from the left; the
    // columns right of `kept` are unused until the final compaction.
    let mut q = vec![0.0; m * n];
    let mut kept = 0;
    for start in (0..n).step_by(PANEL) {
        let width = PANEL.min(n - start);
        let mut panel = Vec::with_capacity(m * width);
        for r in 0..m {
            panel.extend_from_slice(&a.row(r)[start..start + width]);
        }
        if kept > 0 {
            for _pass in 0..2 {
                panel = project_out(&q, n, kept, &panel, width, exec);
            }
        }
        // Panel rows → columns → kept basis columns, moved row by row.
        let mut cols = vec![vec![0.0; m]; width];
        for (r, row) in panel.chunks_exact(width).enumerate() {
            for (col, &val) in cols.iter_mut().zip(row) {
                col[r] = val;
            }
        }
        let new_cols = cgs2_columns(cols, tol);
        for (r, q_row) in q.chunks_exact_mut(n).enumerate() {
            for (slot, col) in q_row[kept..].iter_mut().zip(&new_cols) {
                *slot = col[r];
            }
        }
        kept += new_cols.len();
    }
    if kept < n {
        for r in 1..m {
            q.copy_within(r * n..r * n + kept, r * kept);
        }
        q.truncate(m * kept);
    }
    DenseMatrix::from_vec(m, kept, q)
}

/// `P − Q(QᵀP)` for the row-major `m × width` panel `P` and the first `kept`
/// columns of the row-major basis `q` (row stride `stride`).
fn project_out(
    q: &[f64],
    stride: usize,
    kept: usize,
    panel: &[f64],
    width: usize,
    exec: &parallel::Exec,
) -> Vec<f64> {
    let m = panel.len() / width;
    // C = QᵀP (kept × width), a sum of per-row outer products.
    let partial = |rows: std::ops::Range<usize>| {
        let mut c = vec![0.0; kept * width];
        kernels::atb(q, stride, kept, panel, width, rows, &mut c);
        c
    };
    let c = parallel::par_reduce_exec(m, parallel::REDUCE_CHUNK, exec, partial, |mut acc, c| {
        for (a, b) in acc.iter_mut().zip(&c) {
            *a += b;
        }
        acc
    })
    .unwrap_or_default();
    // P − QC, row by row.
    parallel::par_fill_rows_exec(m, width, exec, |r, out| {
        out.copy_from_slice(&panel[r * width..(r + 1) * width]);
        kernels::row_sub(out, &q[r * stride..r * stride + kept], &c);
    })
}

/// Column-by-column CGS2 of `cols` among themselves, on the calling thread:
/// returns the normalized columns that keep a projected norm above `tol`,
/// in input order.
fn cgs2_columns(cols: Vec<Vec<f64>>, tol: f64) -> Vec<Vec<f64>> {
    let mut q_cols: Vec<Vec<f64>> = Vec::with_capacity(cols.len());
    let mut coeffs = vec![0.0; cols.len()];
    for mut v in cols {
        for _pass in 0..2 {
            if q_cols.is_empty() {
                break;
            }
            // coeffs[i] = q_i · v, then v ← v − Σᵢ coeffs[i] · qᵢ with every
            // element accumulating over i in ascending order.
            let coeffs = &mut coeffs[..q_cols.len()];
            kernels::dots(&q_cols, &v, coeffs);
            kernels::sub_combination(&mut v, coeffs, &q_cols);
        }
        let norm = norm2(&v);
        if norm > tol {
            for vk in &mut v {
                *vk /= norm;
            }
            q_cols.push(v);
        }
        // else: dependent column, dropped.
    }
    q_cols
}

/// Measures how far the columns of `q` are from orthonormality:
/// `max |QᵀQ - I|`.
pub fn orthogonality_defect(q: &DenseMatrix) -> f64 {
    let gram = q.gram();
    let k = gram.rows();
    let mut defect = 0.0_f64;
    for i in 0..k {
        for j in 0..k {
            let target = if i == j { 1.0 } else { 0.0 };
            defect = defect.max((gram.get(i, j) - target).abs());
        }
    }
    defect
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{Exec, WorkerPool};
    use crate::random::gaussian_matrix;
    use std::sync::Arc;

    fn pooled(threads: usize) -> Exec {
        Exec::pooled(Arc::new(WorkerPool::new(threads)), threads)
    }

    #[test]
    fn qr_reconstructs_input() {
        let a = gaussian_matrix(20, 6, 3);
        let QrFactors { q, r } = thin_qr(&a).unwrap();
        let approx = q.matmul(&r).unwrap();
        let err = approx.sub(&a).unwrap().frobenius_norm();
        assert!(err < 1e-10, "reconstruction error {err}");
    }

    #[test]
    fn q_is_orthonormal() {
        let a = gaussian_matrix(50, 8, 11);
        let q = orthonormalize(&a).unwrap();
        assert!(orthogonality_defect(&q) < 1e-12);
        assert_eq!(q.shape(), (50, 8));
    }

    #[test]
    fn rank_deficient_columns_are_dropped() {
        // Third column = first + second.
        let a = DenseMatrix::from_rows(&[
            &[1.0, 0.0, 1.0],
            &[0.0, 1.0, 1.0],
            &[1.0, 1.0, 2.0],
            &[2.0, 0.0, 2.0],
        ])
        .unwrap();
        let q = orthonormalize(&a).unwrap();
        assert_eq!(q.cols(), 2);
        assert!(orthogonality_defect(&q) < 1e-12);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = gaussian_matrix(10, 5, 7);
        let QrFactors { q: _, r } = thin_qr(&a).unwrap();
        for i in 0..r.rows() {
            for j in 0..i.min(r.cols()) {
                assert!(r.get(i, j).abs() < 1e-12, "R[{i},{j}] = {}", r.get(i, j));
            }
        }
    }

    #[test]
    fn orthonormalize_is_idempotent_up_to_rotation() {
        let a = gaussian_matrix(30, 4, 2);
        let q1 = orthonormalize(&a).unwrap();
        let q2 = orthonormalize(&q1).unwrap();
        // Column spaces must agree: projector difference should vanish.
        let p1 = q1.matmul(&q1.transpose()).unwrap();
        let p2 = q2.matmul(&q2.transpose()).unwrap();
        assert!(p1.sub(&p2).unwrap().frobenius_norm() < 1e-10);
    }

    #[test]
    fn empty_matrix_rejected() {
        let a = DenseMatrix::zeros(0, 0);
        assert!(thin_qr(&a).is_err());
        assert!(orthonormalize_exec(&a, &pooled(4)).is_err());
    }

    #[test]
    fn cgs2_basis_is_orthonormal_and_spans_the_input() {
        let a = gaussian_matrix(60, 9, 17);
        let q = orthonormalize_exec(&a, &pooled(3)).unwrap();
        assert_eq!(q.shape(), (60, 9));
        assert!(orthogonality_defect(&q) < 1e-12);
        // Same column space as the MGS basis: projectors agree.
        let q_mgs = orthonormalize(&a).unwrap();
        let p1 = q.matmul(&q.transpose()).unwrap();
        let p2 = q_mgs.matmul(&q_mgs.transpose()).unwrap();
        assert!(p1.sub(&p2).unwrap().frobenius_norm() < 1e-10);
    }

    /// A tall matrix spanning three panels and three row-reduction chunks
    /// whose column 40 (second panel) is a combination of columns 3 and 17
    /// (first panel).
    fn multi_panel_input() -> DenseMatrix {
        let (rows, cols) = (2 * parallel::REDUCE_CHUNK + 808, 2 * PANEL + 6);
        let mut a = gaussian_matrix(rows, cols, 29);
        for r in 0..rows {
            let v = 2.0 * a.get(r, 3) - 0.5 * a.get(r, 17);
            a.set(r, 40, v);
        }
        a
    }

    #[test]
    fn cgs2_is_bitwise_invariant_across_thread_counts() {
        for a in [gaussian_matrix(123, 11, 23), multi_panel_input()] {
            let reference = orthonormalize_exec(&a, &Exec::sequential()).unwrap();
            for exec in [pooled(2), pooled(4), pooled(8)] {
                let q = orthonormalize_exec(&a, &exec).unwrap();
                assert_eq!(q, reference, "{:?} under {exec:?}", a.shape());
            }
        }
    }

    #[test]
    fn cgs2_drops_dependent_columns() {
        let a = DenseMatrix::from_rows(&[
            &[1.0, 0.0, 1.0],
            &[0.0, 1.0, 1.0],
            &[1.0, 1.0, 2.0],
            &[2.0, 0.0, 2.0],
        ])
        .unwrap();
        let q = orthonormalize_exec(&a, &pooled(2)).unwrap();
        assert_eq!(q.cols(), 2);
        assert!(orthogonality_defect(&q) < 1e-12);
        // A column dependent on an earlier panel is removed by the block
        // projections, and the basis still spans the input.
        let a = multi_panel_input();
        let q = orthonormalize_exec(&a, &pooled(2)).unwrap();
        assert_eq!(q.shape(), (a.rows(), a.cols() - 1));
        assert!(orthogonality_defect(&q) < 1e-13);
        let projected = q.matmul(&q.transpose_matmul(&a).unwrap()).unwrap();
        let residual = a.sub(&projected).unwrap().frobenius_norm();
        assert!(residual < 1e-10 * a.frobenius_norm(), "residual {residual}");
    }
}
