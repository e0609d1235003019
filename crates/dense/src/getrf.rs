//! LU factorization with partial pivoting (`getrf`).
//!
//! This is the sequential reference factorization: the distributed schedules
//! in the `factor` crate are validated against it. Its unblocked variant is
//! the one partial-pivoting elimination of the workspace: the blocked
//! [`getrf`] factors its panels with it, and COnfLUX's tournament
//! (`factor::tourn`) selects its candidate pivot rows and factors its
//! winning pivot block with it.

use crate::gemm::{gemm, Trans};
use crate::matrix::{MatMut, Matrix};
use crate::trsm::{trsm, Diag, Side, Uplo};
use crate::{Error, Result};

/// Unblocked right-looking LU with partial pivoting on an `m × n` view
/// (`m ≥ n` panels supported), one row slice at a time. On return the
/// strictly-lower part holds `L` (unit diagonal implicit) and the upper part
/// holds `U`; `ipiv[k]` is the row swapped with row `k` at step `k` (LAPACK
/// convention, 0-based).
///
/// Step `k < min(m, n)` swaps up the row with the largest `|a[·][k]|` at or
/// below row `k` (the first on a tie), stores each lower row's multiplier
/// `l = a[i][k] / a[k][k]` in its column `k` and subtracts `l·a[k][j]` from
/// its columns `j > k` — not at all where `l` is exactly zero. So every row
/// below the first `min(m, n)` ends as its `L` row:
/// `x_k ← ((a_k − l_0·u_0k) − l_1·u_1k) − …`, then `l_k = x_k / u_kk`.
///
/// # Errors
/// [`Error::SingularAt`] names the first step whose column was exactly zero
/// at and below the diagonal. Like LAPACK, the factorization carries on past
/// such a step — it swaps and eliminates nothing — so `a` and `ipiv` are
/// complete either way.
pub fn getrf_unblocked(mut a: MatMut<'_>, ipiv: &mut Vec<usize>) -> Result<()> {
    let (m, n) = (a.rows(), a.cols());
    crate::flops::tally(crate::flops::getrf_flops(m, n));
    ipiv.clear();
    let mut zero_at = None;
    for k in 0..m.min(n) {
        // Partial pivot: the first largest |a[·][k]| at or below row `k`.
        let (mut p, mut best) = (k, a.row(k)[k].abs());
        for i in k + 1..m {
            if a.row(i)[k].abs() > best {
                (p, best) = (i, a.row(i)[k].abs());
            }
        }
        ipiv.push(p);
        let (mut head, mut below) = a.rb_mut().split_rows(k + 1);
        let pivot = head.row_mut(k);
        if p != k {
            pivot.swap_with_slice(below.row_mut(p - k - 1));
        }
        let akk = pivot[k];
        if akk == 0.0 {
            zero_at.get_or_insert(k);
            continue;
        }
        for i in 0..below.rows() {
            let row = below.row_mut(i);
            let l = row[k] / akk;
            row[k] = l;
            if l == 0.0 {
                continue;
            }
            for (x, &u) in row[k + 1..].iter_mut().zip(&pivot[k + 1..]) {
                *x -= l * u;
            }
        }
    }
    zero_at.map_or(Ok(()), |k| Err(Error::SingularAt(k)))
}

/// Blocked right-looking LU with partial pivoting on a square matrix.
///
/// `nb` is the panel width; `nb = 0` selects a default (64, wide enough
/// that the packed-GEMM trailing update `A11 −= L10·U01` dominates the
/// scalar panel work). Returns the pivot sequence in LAPACK convention
/// (see [`getrf_unblocked`]).
///
/// # Errors
/// [`Error::SingularAt`] the first exactly-zero elimination step, counted
/// over the whole matrix.
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
        getrf_unblocked(a.block_mut(k0, k0, n - k0, kb), &mut panel_piv).map_err(|e| match e {
            Error::SingularAt(k) => Error::SingularAt(k0 + k),
            other => other,
        })?;
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
pub(crate) fn permutation_vector(n: usize, ipiv: &[usize]) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for (k, &p) in ipiv.iter().enumerate() {
        perm.swap(k, p);
    }
    perm
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
    use crate::gen::tests::digest;
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
        let perm = permutation_vector(30, &ipiv);
        let pa = Matrix::from_fn(30, 6, |i, j| a0[(perm[i], j)]);
        for i in 0..30 {
            for j in 0..6 {
                // L[i][k] (unit diagonal, k < min(i + 1, 6)) · U[k][j] (k ≤ j).
                let mut acc = 0.0;
                for k in 0..6.min(i + 1).min(j + 1) {
                    let l = if k == i { 1.0 } else { a[(i, k)] };
                    acc += l * a[(k, j)];
                }
                assert!((acc - pa[(i, j)]).abs() < 1e-10, "({i},{j})");
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
        for (k, &p) in ipiv.iter().enumerate() {
            swap_row_range(&mut pa_swaps, k, p, 0, 10);
        }
        for i in 0..10 {
            for j in 0..10 {
                assert_eq!(pa_swaps[(i, j)], a0[(perm[i], j)]);
            }
        }
    }

    #[test]
    fn a_singular_step_is_counted_over_the_whole_matrix() {
        // Column 70 lies in the second 64-wide panel, at its step 6.
        let mut a0 = random_matrix(100, 100, 5);
        (0..100).for_each(|i| a0[(i, 70)] = 0.0);
        for nb in [64, 100, 7] {
            let mut a = a0.clone();
            assert_eq!(getrf(&mut a, nb), Err(Error::SingularAt(70)), "nb={nb}");
        }
        // Unblocked, like LAPACK, the zero step swaps and eliminates nothing
        // and every later step runs.
        let (mut a, mut ipiv) = (a0.clone(), Vec::new());
        let err = getrf_unblocked(a.as_mut(), &mut ipiv);
        assert_eq!(
            (err, ipiv.len(), ipiv[70]),
            (Err(Error::SingularAt(70)), 100, 70)
        );
        assert!(a[(99, 99)] != a0[(99, 99)], "the last step ran");
    }

    /// Recorded when `getrf_unblocked` was a scalar `get`/`set` loop beside
    /// the tournament's own row-slice elimination.
    #[test]
    fn factor_bits_are_pinned() {
        for (m, n, seed, want) in [
            (12, 12, 1, 0x0da4_8205_c281_7fda),
            (200, 32, 2, 0xd09c_55eb_7c12_5917),
            (300, 64, 3, 0xd45f_b378_5729_11d2),
            (97, 40, 4, 0xa4da_fe48_c60e_dc4a),
        ] {
            let mut a = random_matrix(m, n, seed);
            getrf_unblocked(a.as_mut(), &mut Vec::new()).unwrap();
            assert_eq!(digest(&a), want, "getrf_unblocked({m}x{n}, seed {seed})");
        }
        let mut a = random_matrix(512, 512, 9);
        getrf(&mut a, 0).unwrap();
        assert_eq!(digest(&a), 0x7c63_1e75_7088_ccbd, "getrf(512)");
    }
}
