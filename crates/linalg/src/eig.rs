//! Symmetric eigendecomposition by Householder tridiagonalisation plus
//! implicit-shift QL.
//!
//! The matrices we decompose are the small dense projections produced by the
//! randomized SVD: `k' x k'`, or `(q+1)·l x (q+1)·l` for block Krylov (480
//! wide for `k = 64` on a 10k-node graph).  The solver is the
//! EISPACK `tred2` + `tql2` pair (LAPACK's `dsytrd` + `dsteqr` pattern):
//!
//! 1. `tred2` reduces `A` to a symmetric tridiagonal `T = Zᵀ A Z` with
//!    Householder reflections and accumulates `Z` — about `(8/3)·n³` flops.
//! 2. `tql2` diagonalises `T` with implicitly shifted QL sweeps, applying each
//!    Givens rotation to the accumulated vectors — about `6·n³` flops in
//!    total, against cyclic Jacobi's `~6·n³` *per sweep*.
//!
//! Eigenvectors are held as the **rows** of the working array (the transpose
//! of the textbook column layout), so every inner loop of both phases — the
//! Householder updates and the QL rotations — walks contiguous memory.
//!
//! The solver runs on the calling thread with a fixed operation order, so its
//! output depends only on the input bits.  Non-finite input is rejected up
//! front, and the QL phase has a bounded iteration budget, so a call either
//! returns a finite decomposition or a typed [`LinalgError`].

use crate::{DenseMatrix, LinalgError, Result};

/// Eigendecomposition of a symmetric matrix: `a = V diag(λ) Vᵀ` with
/// eigenvalues sorted in descending order and eigenvectors stored as the
/// columns of `vectors`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Matrix whose `j`-th column is the eigenvector for `values[j]`.
    pub vectors: DenseMatrix,
}

/// QL iterations allowed per eigenvalue, as a total budget of
/// `MAX_QL_ITERATIONS_PER_EIGENVALUE · n` (LAPACK `dsteqr`'s rule).  Implicit
/// shifts converge cubically, so real inputs use one to three per eigenvalue.
const MAX_QL_ITERATIONS_PER_EIGENVALUE: usize = 30;

/// Computes the eigendecomposition of a symmetric matrix.
///
/// The input is symmetrized (`(A + Aᵀ)/2`) to absorb round-off asymmetry from
/// upstream Gram-matrix computations.  Returns
/// [`LinalgError::NonFinite`] if any entry is NaN or infinite, and
/// [`LinalgError::NoConvergence`] if the QL iteration exceeds its budget.
pub fn symmetric_eigen(a: &DenseMatrix) -> Result<SymmetricEigen> {
    let (n, m) = a.shape();
    if n != m {
        return Err(LinalgError::ShapeMismatch {
            operation: "symmetric_eigen".into(),
            left: (n, m),
            right: (n, n),
        });
    }
    if n == 0 {
        return Err(LinalgError::InvalidParameter(
            "eigen of empty matrix".into(),
        ));
    }
    if let Some(pos) = a.data().iter().position(|v| !v.is_finite()) {
        return Err(LinalgError::NonFinite {
            operation: "symmetric_eigen",
            row: pos / n,
            col: pos % n,
        });
    }
    // Work on a symmetrized copy; row `j` of `z` ends up as eigenvector `j`.
    let mut z: Vec<f64> = (0..n * n)
        .map(|p| 0.5 * (a.get(p / n, p % n) + a.get(p % n, p / n)))
        .collect();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tred2(n, &mut z, &mut d, &mut e);
    tql2(n, &mut z, &mut d, &mut e)?;

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let vectors = DenseMatrix::from_fn(n, n, |i, j| z[order[j] * n + i]);
    Ok(SymmetricEigen { values, vectors })
}

/// Householder reduction of the symmetric `n x n` array `z` to tridiagonal
/// form (EISPACK `tred2`, indices transposed so inner loops run along rows).
///
/// On return `d` holds the diagonal, `e[1..]` the sub-diagonal (`e[0] = 0`)
/// and row `j` of `z` the `j`-th column of the orthogonal transformation.
fn tred2(n: usize, z: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    for j in 0..n {
        d[j] = z[j * n + n - 1];
    }
    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|v| v.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = z[j * n + i - 1];
                z[j * n + i] = 0.0;
                z[i * n + j] = 0.0;
            }
        } else {
            // Generate the Householder vector in d[..i].
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // e = A·u on the leading i x i block (lower triangle stored in
            // rows: z[j][k] for k >= j).
            for j in 0..i {
                let f = d[j];
                z[i * n + j] = f;
                let row = &z[j * n..j * n + i];
                let mut g = e[j] + row[j] * f;
                for k in j + 1..i {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            // Rank-2 update A ← A − u·eᵀ − e·uᵀ of the lower triangle.
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut z[j * n..j * n + i];
                for k in j..i {
                    row[k] -= f * e[k] + g * d[k];
                }
                d[j] = row[i - 1];
                z[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the transformations.
    for i in 0..n - 1 {
        z[i * n + n - 1] = z[i * n + i];
        z[i * n + i] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            let (head, tail) = z.split_at_mut((i + 1) * n);
            let u = &tail[..i + 1];
            for k in 0..=i {
                d[k] = u[k] / h;
            }
            for j in 0..=i {
                let row = &mut head[j * n..j * n + i + 1];
                let g: f64 = u.iter().zip(row.iter()).map(|(a, b)| a * b).sum();
                for (r, dk) in row.iter_mut().zip(&d[..=i]) {
                    *r -= g * dk;
                }
            }
        }
        z[(i + 1) * n..(i + 1) * n + i + 1].fill(0.0);
    }
    for j in 0..n {
        d[j] = z[j * n + n - 1];
        z[j * n + n - 1] = 0.0;
    }
    z[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Diagonalises the tridiagonal `(d, e)` from [`tred2`] by implicitly shifted
/// QL (EISPACK `tql2`), rotating the rows of `z` along.  On return `d` holds
/// the eigenvalues (unsorted) and row `j` of `z` the eigenvector of `d[j]`.
fn tql2(n: usize, z: &mut [f64], d: &mut [f64], e: &mut [f64]) -> Result<()> {
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    let budget = MAX_QL_ITERATIONS_PER_EIGENVALUE * n;
    let mut iterations = 0;
    let mut f = 0.0;
    let mut tst1 = 0.0_f64;
    for l in 0..n {
        // Find a negligible sub-diagonal element e[m]; e[n - 1] = 0 stops it.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while e[m].abs() > f64::EPSILON * tst1 {
            m += 1;
        }
        if m > l {
            loop {
                iterations += 1;
                if iterations > budget {
                    return Err(LinalgError::NoConvergence {
                        routine: "tridiagonal QL eigen",
                        iterations: budget,
                    });
                }
                // Wilkinson-style implicit shift from the leading 2 x 2.
                let g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for di in &mut d[l + 2..n] {
                    *di -= h;
                }
                f += h;
                // Implicit QL sweep from m - 1 down to l.
                p = d[m];
                let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0, 0.0);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    let (head, tail) = z.split_at_mut((i + 1) * n);
                    let zi = &mut head[i * n..];
                    for (a, b) in zi.iter_mut().zip(&mut tail[..n]) {
                        let h = *b;
                        *b = s * *a + c * h;
                        *a = c * *a - s * h;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if e[l].abs() <= f64::EPSILON * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

/// Computes only the top-`k` eigenpairs (convenience wrapper; the full
/// decomposition is computed internally since the matrices are small).
pub fn top_k_eigen(a: &DenseMatrix, k: usize) -> Result<SymmetricEigen> {
    let full = symmetric_eigen(a)?;
    let k = k.min(full.values.len());
    Ok(SymmetricEigen {
        values: full.values[..k].to_vec(),
        vectors: full.vectors.truncate_cols(k),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qr::{orthogonality_defect, orthonormalize};
    use crate::random::gaussian_matrix;

    fn reconstruct(e: &SymmetricEigen) -> DenseMatrix {
        let n = e.vectors.rows();
        let k = e.values.len();
        let mut scaled = e.vectors.clone();
        for j in 0..k {
            for i in 0..n {
                scaled.set(i, j, scaled.get(i, j) * e.values[j]);
            }
        }
        scaled.matmul_transpose(&e.vectors).unwrap()
    }

    /// The cyclic Jacobi eigensolver this module used before the QL solver:
    /// slow (`O(n³)` per sweep) but simple and unconditionally stable, kept
    /// as the reference the QL solver is checked against.  Returns the
    /// eigenvalues in descending order.
    fn jacobi_eigenvalues(a: &DenseMatrix) -> Vec<f64> {
        let n = a.rows();
        let mut s: Vec<f64> = (0..n * n)
            .map(|p| 0.5 * (a.get(p / n, p % n) + a.get(p % n, p / n)))
            .collect();
        let tol = 1e-14 * s.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for _sweep in 0..100 {
            let mut off_diag = 0.0_f64;
            for p in 0..n {
                for q in p + 1..n {
                    off_diag = off_diag.max(s[p * n + q].abs());
                }
            }
            if off_diag <= tol {
                let mut values: Vec<f64> = (0..n).map(|i| s[i * n + i]).collect();
                values.sort_by(|x, y| y.total_cmp(x));
                return values;
            }
            for p in 0..n {
                for q in p + 1..n {
                    let apq = s[p * n + q];
                    if apq.abs() <= tol * 1e-2 {
                        continue;
                    }
                    let theta = (s[q * n + q] - s[p * n + p]) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let sn = t * c;
                    for k in 0..n {
                        let (skp, skq) = (s[k * n + p], s[k * n + q]);
                        s[k * n + p] = c * skp - sn * skq;
                        s[k * n + q] = sn * skp + c * skq;
                    }
                    for k in 0..n {
                        let (spk, sqk) = (s[p * n + k], s[q * n + k]);
                        s[p * n + k] = c * spk - sn * sqk;
                        s[q * n + k] = sn * spk + c * sqk;
                    }
                }
            }
        }
        panic!("jacobi oracle did not converge");
    }

    /// Checks the QL solver against the Jacobi oracle: eigenvalues agree to
    /// 1e-10 relative, every residual `‖Av − λv‖` is within 1e-12 of the
    /// spectral scale, and the eigenvectors are orthonormal to 1e-12.
    fn assert_agrees_with_jacobi(a: &DenseMatrix, label: &str) {
        let n = a.rows();
        let e = symmetric_eigen(a).unwrap();
        let oracle = jacobi_eigenvalues(a);
        let scale = oracle.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        for (j, (got, want)) in e.values.iter().zip(&oracle).enumerate() {
            assert!(
                (got - want).abs() <= 1e-10 * scale,
                "{label}: eigenvalue {j}: QL {got} vs Jacobi {want}"
            );
        }
        let sym = DenseMatrix::from_fn(n, n, |i, j| 0.5 * (a.get(i, j) + a.get(j, i)));
        let av = sym.matmul(&e.vectors).unwrap();
        for j in 0..n {
            let residual = (0..n)
                .map(|i| (av.get(i, j) - e.values[j] * e.vectors.get(i, j)).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(
                residual <= 1e-12 * scale,
                "{label}: residual {residual} for eigenpair {j} (scale {scale})"
            );
        }
        let defect = orthogonality_defect(&e.vectors);
        assert!(defect <= 1e-12, "{label}: orthogonality defect {defect}");
    }

    /// `Q diag(values) Qᵀ` for a random orthogonal `Q`.
    fn with_spectrum(values: &[f64], seed: u64) -> DenseMatrix {
        let n = values.len();
        let q = orthonormalize(&gaussian_matrix(n, n, seed)).unwrap();
        let mut qd = q.clone();
        qd.scale_cols(values).unwrap();
        qd.matmul_transpose(&q).unwrap()
    }

    #[test]
    fn agrees_with_jacobi_on_random_symmetric_matrices() {
        for (n, seed) in [(2, 1), (3, 2), (7, 3), (12, 4), (31, 5), (64, 6)] {
            let g = gaussian_matrix(n, n, seed);
            let a = g.add(&g.transpose()).unwrap();
            assert_agrees_with_jacobi(&a, &format!("random {n}x{n}"));
        }
    }

    #[test]
    fn agrees_with_jacobi_on_repeated_and_clustered_eigenvalues() {
        let repeated = [3.0, 3.0, 3.0, 1.0, 1.0, -2.0, -2.0, 0.0, 0.0, 0.0];
        assert_agrees_with_jacobi(&with_spectrum(&repeated, 11), "repeated");
        let clustered: Vec<f64> = (0..8)
            .map(|k| 1.0 + k as f64 * 1e-9)
            .chain((0..8).map(|k| -0.5 + k as f64 * 1e-11))
            .collect();
        assert_agrees_with_jacobi(&with_spectrum(&clustered, 12), "clustered");
    }

    #[test]
    fn agrees_with_jacobi_on_degenerate_inputs() {
        assert_agrees_with_jacobi(&DenseMatrix::zeros(5, 5), "zero 5x5");
        let one = DenseMatrix::from_rows(&[&[4.2]]).unwrap();
        assert_agrees_with_jacobi(&one, "1x1");
        let e = symmetric_eigen(&one).unwrap();
        assert_eq!((e.values[0], e.vectors.get(0, 0)), (4.2, 1.0));
        let diag = [3.0, -1.0, 0.0, 7.0, 7.0, -1e-3];
        let a = DenseMatrix::from_fn(6, 6, |i, j| if i == j { diag[i] } else { 0.0 });
        assert_agrees_with_jacobi(&a, "diagonal");
    }

    #[test]
    fn agrees_with_jacobi_on_a_480_wide_psd_gram_matrix() {
        // The block-Krylov projection shape of the embed benchmark: the Gram
        // matrix of a 480-column basis image, with a decaying spectrum.
        let mut g = gaussian_matrix(960, 480, 7);
        let decay: Vec<f64> = (0..480).map(|j| 0.99_f64.powi(j)).collect();
        g.scale_cols(&decay).unwrap();
        assert_agrees_with_jacobi(&g.gram(), "480-wide gram");
    }

    #[test]
    fn non_finite_input_is_rejected() {
        let nan = DenseMatrix::from_rows(&[&[1.0, f64::NAN], &[f64::NAN, 2.0]]).unwrap();
        assert_eq!(
            symmetric_eigen(&nan).unwrap_err(),
            LinalgError::NonFinite {
                operation: "symmetric_eigen",
                row: 0,
                col: 1,
            }
        );
        let inf = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, f64::INFINITY]]).unwrap();
        assert!(matches!(
            symmetric_eigen(&inf),
            Err(LinalgError::NonFinite { row: 1, col: 1, .. })
        ));
    }

    #[test]
    fn ql_iteration_is_capped() {
        // A NaN on the tridiagonal never converges; the budget stops it.
        let mut z = vec![1.0, 0.0, 0.0, 1.0];
        let mut d = vec![f64::NAN, 1.0];
        let mut e = vec![0.0, 1.0];
        assert!(matches!(
            tql2(2, &mut z, &mut d, &mut e),
            Err(LinalgError::NoConvergence { iterations: 60, .. })
        ));
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, -1.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2_eigenvalues() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_matches_input() {
        let g = gaussian_matrix(12, 12, 5);
        let a = g.add(&g.transpose()).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        let err = reconstruct(&e).sub(&a).unwrap().frobenius_norm() / a.frobenius_norm();
        assert!(err < 1e-10, "relative reconstruction error {err}");
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let g = gaussian_matrix(10, 10, 8);
        let a = g.add(&g.transpose()).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!(orthogonality_defect(&e.vectors) < 1e-10);
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let g = gaussian_matrix(15, 15, 21);
        let a = g.add(&g.transpose()).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn trace_is_preserved() {
        let g = gaussian_matrix(9, 9, 33);
        let a = g.add(&g.transpose()).unwrap();
        let trace: f64 = (0..9).map(|i| a.get(i, i)).sum();
        let e = symmetric_eigen(&a).unwrap();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }

    #[test]
    fn top_k_truncates() {
        let g = gaussian_matrix(8, 8, 13);
        let a = g.add(&g.transpose()).unwrap();
        let e = top_k_eigen(&a, 3).unwrap();
        assert_eq!(e.values.len(), 3);
        assert_eq!(e.vectors.shape(), (8, 3));
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMatrix::zeros(3, 4);
        assert!(symmetric_eigen(&a).is_err());
    }

    #[test]
    fn psd_gram_matrix_has_nonnegative_eigenvalues() {
        let g = gaussian_matrix(20, 6, 4);
        let gram = g.gram();
        let e = symmetric_eigen(&gram).unwrap();
        for &v in &e.values {
            assert!(v > -1e-9);
        }
    }
}
