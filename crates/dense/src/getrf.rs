//! LU factorization with partial pivoting (`getrf`).
//!
//! This is the sequential reference factorization: the distributed schedules
//! in the `factor` crate are validated against it, and COnfLUX's tournament
//! pivoting factors its winning pivot block with the unblocked variant
//! (candidate selection is the tournament's own elimination,
//! `factor::tourn::local_select`, which this variant's operation order is
//! the oracle for).

use crate::gemm::{gemm, Trans};
use crate::matrix::{MatMut, Matrix};
use crate::trsm::{trsm, Diag, Side, Uplo};
use crate::{Error, Result};

/// Unblocked right-looking LU with partial pivoting on an `m × n` view
/// (`m ≥ n` panels supported). On return the strictly-lower part holds `L`
/// (unit diagonal implicit) and the upper part holds `U`; `ipiv[k]` is the
/// row swapped with row `k` at step `k` (LAPACK convention, 0-based).
pub fn getrf_unblocked(mut a: MatMut<'_>, ipiv: &mut Vec<usize>) -> Result<()> {
    let m = a.rows();
    let n = a.cols();
    let steps = m.min(n);
    crate::flops::tally(crate::flops::getrf_flops(m, n));
    ipiv.clear();
    ipiv.reserve(steps);
    for k in 0..steps {
        // Pivot: the largest |entry| in column k at or below the diagonal.
        let mut p = k;
        let mut best = a.get(k, k).abs();
        for i in k + 1..m {
            let v = a.get(i, k).abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best == 0.0 {
            return Err(Error::SingularAt(k));
        }
        ipiv.push(p);
        if p != k {
            swap_rows(&mut a, k, p);
        }
        let akk = a.get(k, k);
        for i in k + 1..m {
            let lik = a.get(i, k) / akk;
            a.set(i, k, lik);
            if lik == 0.0 {
                continue;
            }
            // Trailing row update: a[i, k+1..] -= lik * a[k, k+1..].
            for j in k + 1..n {
                let akj = a.get(k, j);
                a.add(i, j, -lik * akj);
            }
        }
    }
    Ok(())
}

/// Blocked right-looking LU with partial pivoting on a square matrix.
///
/// `nb` is the panel width; `nb = 0` selects a default (64, wide enough
/// that the packed-GEMM trailing update `A11 −= L10·U01` dominates the
/// scalar panel work). Returns the pivot sequence in LAPACK convention
/// (see [`getrf_unblocked`]).
pub fn getrf(a: &mut Matrix, nb: usize) -> Result<Vec<usize>> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "getrf: matrix must be square");
    let nb = if nb == 0 { 64.min(n.max(1)) } else { nb };
    let mut ipiv = Vec::with_capacity(n);
    let mut panel_piv = Vec::new();

    let mut k0 = 0;
    while k0 < n {
        let kb = nb.min(n - k0);
        // Factor the panel a[k0.., k0..k0+kb] unblocked.
        getrf_unblocked(a.block_mut(k0, k0, n - k0, kb), &mut panel_piv)?;
        // Apply the panel's row swaps to the rest of the matrix (both the
        // already-factored left part and the trailing right part).
        for (i, &p) in panel_piv.iter().enumerate() {
            let r1 = k0 + i;
            let r2 = k0 + p;
            ipiv.push(r2);
            if r1 != r2 {
                // Left of the panel.
                swap_row_range(a, r1, r2, 0, k0);
                // Right of the panel.
                swap_row_range(a, r1, r2, k0 + kb, n);
            }
        }
        let end = k0 + kb;
        if end < n {
            // U01 = L00⁻¹ · A01. Small owned copies keep the borrows simple;
            // this is the sequential reference path, not the hot simulator.
            let l00 = a.block(k0, k0, kb, kb).to_owned();
            trsm(
                Side::Left,
                Uplo::Lower,
                Trans::N,
                Diag::Unit,
                1.0,
                l00.as_ref(),
                a.block_mut(k0, end, kb, n - end),
            );
            // A11 -= L10 · U01.
            let l10 = a.block(end, k0, n - end, kb).to_owned();
            let u01 = a.block(k0, end, kb, n - end).to_owned();
            gemm(
                Trans::N,
                Trans::N,
                -1.0,
                l10.as_ref(),
                u01.as_ref(),
                1.0,
                a.block_mut(end, end, n - end, n - end),
            );
        }
        k0 = end;
    }
    Ok(ipiv)
}

/// Convert a LAPACK-style swap sequence into an explicit permutation vector:
/// `perm[i]` is the original row that ends up in row `i` of `P·A`.
#[cfg(test)]
pub(crate) fn permutation_vector(n: usize, ipiv: &[usize]) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for (k, &p) in ipiv.iter().enumerate() {
        perm.swap(k, p);
    }
    perm
}

/// Apply a LAPACK-style swap sequence to the rows of `b` (forward order),
/// i.e. compute `P·B` for the permutation produced by [`getrf`].
pub(crate) fn apply_row_pivots(b: &mut Matrix, ipiv: &[usize]) {
    for (k, &p) in ipiv.iter().enumerate() {
        if k != p {
            let mut v = b.as_mut();
            swap_rows(&mut v, k, p);
        }
    }
}

fn swap_rows(a: &mut MatMut<'_>, r1: usize, r2: usize) {
    if r1 == r2 {
        return;
    }
    for j in 0..a.cols() {
        let t = a.get(r1, j);
        a.set(r1, j, a.get(r2, j));
        a.set(r2, j, t);
    }
}

fn swap_row_range(a: &mut Matrix, r1: usize, r2: usize, c0: usize, c1: usize) {
    for j in c0..c1 {
        let t = a[(r1, j)];
        a[(r1, j)] = a[(r2, j)];
        a[(r2, j)] = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_matrix;
    use crate::norms::lu_residual;

    #[test]
    fn unblocked_factors_small_matrix() {
        let a0 = random_matrix(12, 12, 1);
        let mut a = a0.clone();
        let mut ipiv = Vec::new();
        getrf_unblocked(a.as_mut(), &mut ipiv).unwrap();
        assert_eq!(ipiv.len(), 12);
        assert!(lu_residual(&a0, &a, &ipiv) < 1e-12);
    }

    #[test]
    fn blocked_matches_reference_residual() {
        for &n in &[1usize, 5, 16, 33, 64, 100] {
            let a0 = random_matrix(n, n, n as u64);
            let mut a = a0.clone();
            let ipiv = getrf(&mut a, 8).unwrap();
            assert_eq!(ipiv.len(), n);
            assert!(lu_residual(&a0, &a, &ipiv) < 1e-11, "n={n}");
        }
    }

    #[test]
    fn blocked_and_unblocked_agree() {
        let a0 = random_matrix(40, 40, 77);
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        let ip1 = getrf(&mut a1, 7).unwrap();
        let mut ip2 = Vec::new();
        getrf_unblocked(a2.as_mut(), &mut ip2).unwrap();
        assert_eq!(ip1, ip2, "same pivots");
        for i in 0..40 {
            for j in 0..40 {
                assert!((a1[(i, j)] - a2[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn tall_panel_factorization() {
        let a0 = random_matrix(30, 6, 3);
        let mut a = a0.clone();
        let mut ipiv = Vec::new();
        getrf_unblocked(a.as_mut(), &mut ipiv).unwrap();
        assert_eq!(ipiv.len(), 6);
        // Reconstruct P·A0 restricted to the 6 columns: L(30×6 unit lower
        // trapezoid)·U(6×6 upper).
        let mut pa = a0.clone();
        apply_row_pivots(&mut pa, &ipiv);
        for i in 0..30 {
            for j in 0..6 {
                let mut acc = 0.0;
                for k in 0..=j.min(i) {
                    let lik = if k == i { 1.0 } else { a[(i, k)] };
                    if k <= j {
                        acc += lik
                            * if k == j && k == i {
                                a[(i, j)]
                            } else {
                                a[(k, j)]
                            };
                    }
                }
                // Careful reconstruction: L[i][k] (k<min(i,6)), U[k][j] (k<=j).
                let mut acc2 = 0.0;
                for k in 0..6.min(i + 1).min(j + 1) {
                    let l = if k == i { 1.0 } else { a[(i, k)] };
                    acc2 += l * a[(k, j)];
                }
                let _ = acc;
                assert!((acc2 - pa[(i, j)]).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn pivoting_actually_selects_largest() {
        // First column forces a pivot from the last row.
        let mut a = Matrix::from_fn(4, 4, |i, j| ((i + j) as f64).sin());
        a[(0, 0)] = 0.001;
        a[(3, 0)] = 100.0;
        let mut ipiv = Vec::new();
        getrf_unblocked(a.as_mut(), &mut ipiv).unwrap();
        assert_eq!(ipiv[0], 3);
    }

    #[test]
    fn singular_matrix_reports_error() {
        let mut a = Matrix::zeros(5, 5);
        // Column 2 entirely zero below step 2 once rows are eliminated.
        for i in 0..5 {
            a[(i, 0)] = 1.0 + i as f64;
            a[(i, 1)] = 2.0 * (1.0 + i as f64); // linearly dependent on col 0
            for j in 2..5 {
                a[(i, j)] = ((i * j) as f64).cos();
            }
        }
        let err = getrf(&mut a, 2).unwrap_err();
        match err {
            Error::SingularAt(k) => assert!(k <= 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn permutation_vector_is_consistent_with_swaps() {
        let a0 = random_matrix(10, 10, 5);
        let mut a = a0.clone();
        let ipiv = getrf(&mut a, 4).unwrap();
        let perm = permutation_vector(10, &ipiv);
        let mut pa_swaps = a0.clone();
        apply_row_pivots(&mut pa_swaps, &ipiv);
        for i in 0..10 {
            for j in 0..10 {
                assert_eq!(pa_swaps[(i, j)], a0[(perm[i], j)]);
            }
        }
    }
}
