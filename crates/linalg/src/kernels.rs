//! Register-tiled micro-kernels for the dense products of the randomized
//! SVD tail.
//!
//! Two row-major kernels carry nearly all of `orthonormalize_exec`'s and
//! `gram_exec`'s flops:
//!
//! * [`atb`] — `C += AᵀB` over a range of rows (the chunk partials of
//!   `transpose_matmul_exec` and BCGS2's `QᵀP`), and [`ata_upper`], its
//!   upper-triangle form for `gram_exec`;
//! * [`row_add`] / [`row_sub`] — `out ± a·C` for one output row against a
//!   small matrix (the rows of `matmul_exec` and BCGS2's `P − QC`).
//!
//! Two column kernels serve the in-panel CGS2 of `orthonormalize_exec`:
//! [`dots`] (`qᵢ · v` for every kept column) and [`sub_combination`]
//! (`v − Σᵢ cᵢ qᵢ`).
//!
//! All of them keep their accumulators in registers — a 4×4 tile over
//! 128-row blocks for `AᵀB`, 8-wide tiles for the updates, four dot
//! products side by side — but every output element still receives exactly
//! the sequence of IEEE `mul` and `add`/`sub` of the plain loops they
//! replace, in the same order.  Only loads and stores move, so results are
//! **bitwise identical** to those loops.
//!
//! Each kernel body is `#[inline(always)]` and runs through
//! [`parallel::run_kernel`], which compiles it a second time with AVX2
//! enabled and picks that copy when the CPU has it.  Wider vectors change
//! nothing but speed: no fused multiply-add is ever enabled or called
//! (nrp-lint rule D004), so both copies produce the same bits.

use std::ops::Range;

use crate::matrix::dot;
use crate::parallel::{self, Kernel};

/// Rows per block of [`atb`]: one block of `A` and `B` stays cache resident
/// while every 4×4 tile of `C` streams over it.
const ROW_BLOCK: usize = 128;

/// `c += aᵀ·b` over `rows`: for every `i < ka`, `j < nb`,
/// `c[i·nb + j] += a[r·lda + i] · b[r·nb + j]` for `r` in `rows`, ascending.
///
/// `a` is row-major with row stride `lda` (its first `ka` columns are used),
/// `b` is row-major `· × nb`, and `c` is row-major `ka × nb`.
pub(crate) fn atb(
    a: &[f64],
    lda: usize,
    ka: usize,
    b: &[f64],
    nb: usize,
    rows: Range<usize>,
    c: &mut [f64],
) {
    parallel::run_kernel(AtB {
        a,
        lda,
        ka,
        b,
        nb,
        rows,
        c,
        upper: false,
    });
}

/// [`atb`] with `b = a` and `lda = nb = k`, computing at least every entry
/// `c[i·k + j]` with `j ≥ i`; entries below the diagonal may be left as they
/// were.  Entry `(i, j)` sums the same products as `(j, i)` (IEEE
/// multiplication commutes) in the same order, so mirroring the upper
/// triangle gives bitwise the full product.
pub(crate) fn ata_upper(a: &[f64], k: usize, rows: Range<usize>, c: &mut [f64]) {
    parallel::run_kernel(AtB {
        a,
        lda: k,
        ka: k,
        b: a,
        nb: k,
        rows,
        c,
        upper: true,
    });
}

/// `out[j] += Σₖ a[k] · c[k·n + j]` with `n = out.len()`, over `k`
/// ascending, skipping every `k` with `a[k] == 0` (the product's zero skip).
pub(crate) fn row_add(out: &mut [f64], a: &[f64], c: &[f64]) {
    parallel::run_kernel(RowUpdate::<false> { out, a, c });
}

/// `out[j] −= Σₖ a[k] · c[k·n + j]` with `n = out.len()`, over `k`
/// ascending, one subtraction per term.
pub(crate) fn row_sub(out: &mut [f64], a: &[f64], c: &[f64]) {
    parallel::run_kernel(RowUpdate::<true> { out, a, c });
}

/// `out[i] = dot(&qs[i], v)` for every `i`, bitwise.
pub(crate) fn dots(qs: &[Vec<f64>], v: &[f64], out: &mut [f64]) {
    parallel::run_kernel(Dots { qs, v, out });
}

/// `v[k] −= coeffs[i] · qs[i][k]` for `i` ascending, for every `k`.
pub(crate) fn sub_combination(v: &mut [f64], coeffs: &[f64], qs: &[Vec<f64>]) {
    parallel::run_kernel(SubCombination { v, coeffs, qs });
}

/// The arguments of [`atb`] and [`ata_upper`] (`upper`: skip the 4×4
/// tiles that lie strictly below the diagonal).
struct AtB<'a> {
    a: &'a [f64],
    lda: usize,
    ka: usize,
    b: &'a [f64],
    nb: usize,
    rows: Range<usize>,
    c: &'a mut [f64],
    upper: bool,
}

impl Kernel for AtB<'_> {
    #[inline(always)]
    fn run(self) {
        let AtB {
            a,
            lda,
            ka,
            b,
            nb,
            rows,
            c,
            upper,
        } = self;
        let (ka4, nb4) = (ka - ka % 4, nb - nb % 4);
        let mut start = rows.start;
        while start < rows.end {
            let block = start..rows.end.min(start + ROW_BLOCK);
            for i0 in (0..ka4).step_by(4) {
                let first = if upper { i0 } else { 0 };
                for j0 in (first..nb4).step_by(4) {
                    atb_tile(a, lda, b, nb, block.clone(), i0, j0, c);
                }
                atb_edge(a, lda, b, nb, block.clone(), i0..i0 + 4, nb4..nb, c);
            }
            atb_edge(a, lda, b, nb, block.clone(), ka4..ka, 0..nb, c);
            start = block.end;
        }
    }
}

/// One 4×4 tile of `c` at `(i0, j0)`, accumulated in registers over `rows`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn atb_tile(
    a: &[f64],
    lda: usize,
    b: &[f64],
    nb: usize,
    rows: Range<usize>,
    i0: usize,
    j0: usize,
    c: &mut [f64],
) {
    let mut acc = [[0.0; 4]; 4];
    for (ii, acc_i) in acc.iter_mut().enumerate() {
        let at = (i0 + ii) * nb + j0;
        acc_i.copy_from_slice(&c[at..at + 4]);
    }
    // Whole-row chunks plus these bounds let the row loop run free of
    // per-row bounds checks.
    assert!(i0 + 4 <= lda && j0 + 4 <= nb);
    let a_rows = a[rows.start * lda..rows.end * lda].chunks_exact(lda);
    let b_rows = b[rows.start * nb..rows.end * nb].chunks_exact(nb);
    for (a_r, b_r) in a_rows.zip(b_rows) {
        let a_r = &a_r[i0..i0 + 4];
        let b_r = &b_r[j0..j0 + 4];
        for (acc_i, &a_ri) in acc.iter_mut().zip(a_r) {
            for (acc_ij, &b_rj) in acc_i.iter_mut().zip(b_r) {
                *acc_ij += a_ri * b_rj;
            }
        }
    }
    for (ii, acc_i) in acc.iter().enumerate() {
        let at = (i0 + ii) * nb + j0;
        c[at..at + 4].copy_from_slice(acc_i);
    }
}

/// The plain loop over a ragged edge `is × js` of `c`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn atb_edge(
    a: &[f64],
    lda: usize,
    b: &[f64],
    nb: usize,
    rows: Range<usize>,
    is: Range<usize>,
    js: Range<usize>,
    c: &mut [f64],
) {
    if is.is_empty() || js.is_empty() {
        return;
    }
    for r in rows {
        let b_r = &b[r * nb + js.start..r * nb + js.end];
        for i in is.clone() {
            let a_ri = a[r * lda + i];
            for (c_ij, &b_rj) in c[i * nb + js.start..i * nb + js.end].iter_mut().zip(b_r) {
                *c_ij += a_ri * b_rj;
            }
        }
    }
}

/// The arguments of [`row_add`] (`SUB = false`) and [`row_sub`]
/// (`SUB = true`).
struct RowUpdate<'a, const SUB: bool> {
    out: &'a mut [f64],
    a: &'a [f64],
    c: &'a [f64],
}

impl<const SUB: bool> Kernel for RowUpdate<'_, SUB> {
    #[inline(always)]
    fn run(self) {
        let RowUpdate { out, a, c } = self;
        let n = out.len();
        if n == 0 {
            return;
        }
        let mut tiles = out.chunks_exact_mut(8);
        for (t, tile) in (&mut tiles).enumerate() {
            let j0 = 8 * t;
            let mut acc = [0.0; 8];
            acc.copy_from_slice(tile);
            assert!(j0 + 8 <= n);
            for (c_k, &a_k) in c.chunks_exact(n).zip(a) {
                update::<SUB>(&mut acc, a_k, &c_k[j0..j0 + 8]);
            }
            tile.copy_from_slice(&acc);
        }
        let rest = tiles.into_remainder();
        let j0 = n - rest.len();
        for (c_k, &a_k) in c.chunks_exact(n).zip(a) {
            update::<SUB>(rest, a_k, &c_k[j0..]);
        }
    }
}

/// The arguments of [`dots`].
struct Dots<'a> {
    qs: &'a [Vec<f64>],
    v: &'a [f64],
    out: &'a mut [f64],
}

impl Kernel for Dots<'_> {
    #[inline(always)]
    fn run(self) {
        let Dots { qs, v, out } = self;
        let m = v.len();
        let mut groups = qs.chunks_exact(4);
        let mut outs = out.chunks_exact_mut(4);
        for (q, o) in (&mut groups).zip(&mut outs) {
            let (q0, q1, q2, q3) = (&q[0][..m], &q[1][..m], &q[2][..m], &q[3][..m]);
            // Four independent chains, each `dot`'s fold from `-0.0`
            // (the neutral element of `f64: Sum`), in ascending `k`.
            let mut acc = [-0.0; 4];
            for k in 0..m {
                let v_k = v[k];
                acc[0] += q0[k] * v_k;
                acc[1] += q1[k] * v_k;
                acc[2] += q2[k] * v_k;
                acc[3] += q3[k] * v_k;
            }
            o.copy_from_slice(&acc);
        }
        for (q, o) in groups.remainder().iter().zip(outs.into_remainder()) {
            *o = dot(q, v);
        }
    }
}

/// The arguments of [`sub_combination`].
struct SubCombination<'a> {
    v: &'a mut [f64],
    coeffs: &'a [f64],
    qs: &'a [Vec<f64>],
}

impl Kernel for SubCombination<'_> {
    #[inline(always)]
    fn run(self) {
        let SubCombination { v, coeffs, qs } = self;
        let m = v.len();
        let mut tiles = v.chunks_exact_mut(8);
        for (t, tile) in (&mut tiles).enumerate() {
            let k0 = 8 * t;
            let mut acc = [0.0; 8];
            acc.copy_from_slice(tile);
            for (q, &c) in qs.iter().zip(coeffs) {
                update::<true>(&mut acc, c, &q[k0..k0 + 8]);
            }
            tile.copy_from_slice(&acc);
        }
        let rest = tiles.into_remainder();
        let k0 = m - rest.len();
        for (q, &c) in qs.iter().zip(coeffs) {
            update::<true>(rest, c, &q[k0..]);
        }
    }
}

/// `acc ∓= a_k · c_k`, skipping a zero `a_k` when adding.
#[inline(always)]
fn update<const SUB: bool>(acc: &mut [f64], a_k: f64, c_k: &[f64]) {
    if SUB {
        for (o, &c_kj) in acc.iter_mut().zip(c_k) {
            *o -= a_k * c_kj;
        }
    } else if a_k != 0.0 {
        for (o, &c_kj) in acc.iter_mut().zip(c_k) {
            *o += a_k * c_kj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::gaussian_matrix;

    /// `transpose_matmul_exec`'s former chunk partial, with its zero skip.
    fn reference_atb_skipping_zeros(
        a: &[f64],
        lda: usize,
        b: &[f64],
        nb: usize,
        rows: Range<usize>,
        c: &mut [f64],
    ) {
        for r in rows {
            let a_row = &a[r * lda..(r + 1) * lda];
            let b_row = &b[r * nb..(r + 1) * nb];
            for (i, &a_ri) in a_row.iter().enumerate() {
                if a_ri == 0.0 {
                    continue;
                }
                let out_row = &mut c[i * nb..(i + 1) * nb];
                for (j, &b_rj) in b_row.iter().enumerate() {
                    out_row[j] += a_ri * b_rj;
                }
            }
        }
    }

    /// BCGS2's former `QᵀP` partial: the first `ka` columns of `a`.
    fn reference_atb(
        a: &[f64],
        lda: usize,
        ka: usize,
        b: &[f64],
        nb: usize,
        rows: Range<usize>,
        c: &mut [f64],
    ) {
        if nb == 0 {
            return;
        }
        for r in rows {
            let p = &b[r * nb..(r + 1) * nb];
            for (c_i, &q_ri) in c.chunks_exact_mut(nb).zip(&a[r * lda..r * lda + ka]) {
                for (c_ij, &p_j) in c_i.iter_mut().zip(p) {
                    *c_ij += q_ri * p_j;
                }
            }
        }
    }

    /// `matmul_exec`'s former row loop.
    fn reference_row_add(out: &mut [f64], a: &[f64], c: &[f64]) {
        for (k, &a_k) in a.iter().enumerate() {
            if a_k == 0.0 {
                continue;
            }
            let c_row = &c[k * out.len()..(k + 1) * out.len()];
            for (o, &c_kj) in out.iter_mut().zip(c_row) {
                *o += a_k * c_kj;
            }
        }
    }

    /// BCGS2's former `P − QC` row loop.
    fn reference_row_sub(out: &mut [f64], a: &[f64], c: &[f64]) {
        if out.is_empty() {
            return;
        }
        for (c_i, &q_ri) in c.chunks_exact(out.len()).zip(a) {
            for (o, &c_ij) in out.iter_mut().zip(c_i) {
                *o -= q_ri * c_ij;
            }
        }
    }

    /// The instruction-set paths available here: portable always, AVX2
    /// when the CPU has it.
    fn paths() -> Vec<bool> {
        let mut paths = vec![false];
        if parallel::avx2_detected() {
            paths.push(true);
        }
        paths
    }

    /// Seeded Gaussian data with exact `0.0` and `-0.0` sprinkled in.
    fn data_with_zeros(rows: usize, cols: usize, seed: u64) -> Vec<f64> {
        let mut v = gaussian_matrix(rows.max(1), cols.max(1), seed).data()[..rows * cols].to_vec();
        for (i, x) in v.iter_mut().enumerate() {
            match i % 7 {
                2 => *x = 0.0,
                5 => *x = -0.0,
                _ => {}
            }
        }
        v
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const WIDTHS: [usize; 7] = [0, 1, 3, 4, 5, 8, 13];

    fn row_ranges(m: usize) -> Vec<Range<usize>> {
        vec![0..0, 0..m, 1..m.min(130), m / 3..m, m..m]
    }

    #[test]
    fn atb_is_bitwise_the_plain_loop_on_every_path() {
        let m = 301;
        for &ka in &WIDTHS {
            for extra in [0, 2] {
                let lda = ka + extra;
                let a = data_with_zeros(m, lda, 11 + lda as u64);
                for &nb in &WIDTHS {
                    let b = data_with_zeros(m, nb, 23 + nb as u64);
                    let c0 = data_with_zeros(ka, nb, 31);
                    for rows in row_ranges(m) {
                        let mut want = c0.clone();
                        reference_atb(&a, lda, ka, &b, nb, rows.clone(), &mut want);
                        for avx2 in paths() {
                            let mut got = c0.clone();
                            parallel::run_kernel_on(
                                AtB {
                                    a: &a,
                                    lda,
                                    ka,
                                    b: &b,
                                    nb,
                                    rows: rows.clone(),
                                    c: &mut got,
                                    upper: false,
                                },
                                avx2,
                            );
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "ka {ka} lda {lda} nb {nb} rows {rows:?} avx2 {avx2}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn atb_drops_the_zero_skip_without_changing_a_bit() {
        // From a zero partial, skipping `0.0 · b` or `-0.0 · b` terms is
        // bit-neutral on finite input: the sum never becomes `-0.0`.
        let m = 2 * ROW_BLOCK + 45;
        for &ka in &WIDTHS {
            let a = data_with_zeros(m, ka, 41);
            for &nb in &WIDTHS {
                let b = data_with_zeros(m, nb, 43);
                let mut want = vec![0.0; ka * nb];
                reference_atb_skipping_zeros(&a, ka, &b, nb, 0..m, &mut want);
                for avx2 in paths() {
                    let mut got = vec![0.0; ka * nb];
                    parallel::run_kernel_on(
                        AtB {
                            a: &a,
                            lda: ka,
                            ka,
                            b: &b,
                            nb,
                            rows: 0..m,
                            c: &mut got,
                            upper: false,
                        },
                        avx2,
                    );
                    assert_eq!(bits(&got), bits(&want), "ka {ka} nb {nb} avx2 {avx2}");
                }
            }
        }
    }

    #[test]
    fn ata_upper_is_bitwise_the_plain_loop_on_and_above_the_diagonal() {
        let m = ROW_BLOCK + 45;
        for &k in &WIDTHS {
            let a = data_with_zeros(m, k, 71 + k as u64);
            for rows in row_ranges(m) {
                let mut want = vec![0.0; k * k];
                reference_atb_skipping_zeros(&a, k, &a, k, rows.clone(), &mut want);
                for avx2 in paths() {
                    let mut got = vec![0.0; k * k];
                    parallel::run_kernel_on(
                        AtB {
                            a: &a,
                            lda: k,
                            ka: k,
                            b: &a,
                            nb: k,
                            rows: rows.clone(),
                            c: &mut got,
                            upper: true,
                        },
                        avx2,
                    );
                    for i in 0..k {
                        for j in 0..k {
                            // The mirrored entry is what `gram_exec` keeps.
                            let kept = if j >= i {
                                got[i * k + j]
                            } else {
                                got[j * k + i]
                            };
                            assert_eq!(
                                kept.to_bits(),
                                want[i * k + j].to_bits(),
                                "k {k} rows {rows:?} ({i}, {j}) avx2 {avx2}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn column_kernels_are_bitwise_the_plain_loops_on_every_path() {
        for m in [0, 1, 7, 8, 13, 301] {
            let mut v = data_with_zeros(1, m, 97);
            for x in v.iter_mut().skip(1).step_by(4) {
                *x = -0.0;
            }
            let mut qs: Vec<Vec<f64>> = (0..9).map(|t| data_with_zeros(1, m, 81 + t)).collect();
            // A column whose products with `v` are all `-0.0` checks the
            // fold's starting value.
            qs[5] = v
                .iter()
                .map(|x| if x.is_sign_negative() { 0.0 } else { -0.0 })
                .collect();
            for count in [0, 1, 3, 4, 5, 9] {
                let qs = &qs[..count];
                let want_dots: Vec<f64> = qs.iter().map(|q| dot(q, &v)).collect();
                let coeffs = data_with_zeros(1, count, 101);
                let mut want_v = v.clone();
                for (q, &c) in qs.iter().zip(&coeffs) {
                    for (v_k, &q_k) in want_v.iter_mut().zip(q) {
                        *v_k -= c * q_k;
                    }
                }
                for avx2 in paths() {
                    let mut got = vec![f64::NAN; count];
                    parallel::run_kernel_on(
                        Dots {
                            qs,
                            v: &v,
                            out: &mut got,
                        },
                        avx2,
                    );
                    assert_eq!(bits(&got), bits(&want_dots), "dots m {m} count {count}");
                    let mut got = v.clone();
                    parallel::run_kernel_on(
                        SubCombination {
                            v: &mut got,
                            coeffs: &coeffs,
                            qs,
                        },
                        avx2,
                    );
                    assert_eq!(bits(&got), bits(&want_v), "update m {m} count {count}");
                }
            }
        }
    }

    #[test]
    fn row_updates_are_bitwise_the_plain_loops_on_every_path() {
        for &k in &WIDTHS {
            let a = data_with_zeros(1, k, 51 + k as u64);
            for n in [0, 1, 3, 5, 8, 13, 16, 21] {
                let c = data_with_zeros(k, n, 53 + n as u64);
                let out0 = data_with_zeros(1, n, 59);
                let mut want_add = out0.clone();
                reference_row_add(&mut want_add, &a, &c);
                let mut want_sub = out0.clone();
                reference_row_sub(&mut want_sub, &a, &c);
                for avx2 in paths() {
                    let mut got = out0.clone();
                    parallel::run_kernel_on(
                        RowUpdate::<false> {
                            out: &mut got,
                            a: &a,
                            c: &c,
                        },
                        avx2,
                    );
                    assert_eq!(bits(&got), bits(&want_add), "add k {k} n {n} avx2 {avx2}");
                    let mut got = out0.clone();
                    parallel::run_kernel_on(
                        RowUpdate::<true> {
                            out: &mut got,
                            a: &a,
                            c: &c,
                        },
                        avx2,
                    );
                    assert_eq!(bits(&got), bits(&want_sub), "sub k {k} n {n} avx2 {avx2}");
                }
            }
        }
    }
}
