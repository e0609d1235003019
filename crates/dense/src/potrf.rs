//! Cholesky factorization (`potrf`, lower variant).
//!
//! `A = L·Lᵀ` for symmetric positive-definite `A`. Only the lower triangle of
//! the input is referenced; on return it holds `L`. The strictly-upper part
//! is left untouched (callers that want a clean `L` should zero it).

use crate::gemm::{gemmt, CUplo, Trans};
use crate::matrix::{MatMut, Matrix};
use crate::trsm::{trsm, Diag, Side, Uplo};
use crate::{Error, Result};

/// Unblocked lower Cholesky on a square view, in row slices: every sum of
/// `l_kj²` or `l_ij·l_kj` runs over ascending `j < k`.
///
/// # Errors
/// [`Error::NotPositiveDefinite`] at the first pivot that is not positive.
pub fn potrf_unblocked(mut a: MatMut<'_>) -> Result<()> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "potrf: matrix must be square");
    crate::flops::tally(crate::flops::potrf_flops(n));
    for k in 0..n {
        let (mut head, mut below) = a.rb_mut().split_rows(k + 1);
        let (lk, akk) = head.row_mut(k).split_at_mut(k);
        let d = lk.iter().fold(akk[0], |d, &l| d - l * l);
        if d <= 0.0 {
            return Err(Error::NotPositiveDefinite(k));
        }
        akk[0] = d.sqrt();
        for i in 0..below.rows() {
            let (li, aik) = below.row_mut(i).split_at_mut(k);
            let s = li.iter().zip(&*lk).fold(aik[0], |s, (&x, &y)| s - x * y);
            aik[0] = s / akk[0];
        }
    }
    Ok(())
}

/// Blocked right-looking lower Cholesky. `nb = 0` selects a default panel
/// width (64, so the packed trailing update dominates the scalar diagonal
/// factorization). The trailing update uses [`gemmt`], matching the paper's
/// observation that the symmetric update halves the flops of LU's GEMM.
pub fn potrf(a: &mut Matrix, nb: usize) -> Result<()> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "potrf: matrix must be square");
    let nb = if nb == 0 { 64.min(n.max(1)) } else { nb };

    let mut k0 = 0;
    while k0 < n {
        let kb = nb.min(n - k0);
        // Diagonal block.
        potrf_unblocked(a.block_mut(k0, k0, kb, kb)).map_err(|e| match e {
            Error::NotPositiveDefinite(k) => Error::NotPositiveDefinite(k0 + k),
            other => other,
        })?;
        let end = k0 + kb;
        if end < n {
            // Panel: L10 = A10 · L00⁻ᵀ.
            let l00 = a.block(k0, k0, kb, kb).to_owned();
            trsm(
                Side::Right,
                Uplo::Lower,
                Trans::T,
                Diag::NonUnit,
                1.0,
                l00.as_ref(),
                a.block_mut(end, k0, n - end, kb),
            );
            // Trailing symmetric update: A11 -= L10 · L10ᵀ (lower only).
            let l10 = a.block(end, k0, n - end, kb).to_owned();
            gemmt(
                CUplo::Lower,
                Trans::N,
                Trans::T,
                -1.0,
                l10.as_ref(),
                l10.as_ref(),
                1.0,
                a.block_mut(end, end, n - end, n - end),
            );
        }
        k0 = end;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_spd;
    use crate::norms::po_residual;

    #[test]
    fn unblocked_factors_spd() {
        let a0 = random_spd(15, 1);
        let mut a = a0.clone();
        potrf_unblocked(a.as_mut()).unwrap();
        assert!(po_residual(&a0, &a) < 1e-12);
    }

    #[test]
    fn blocked_matches_residual_various_sizes() {
        for &n in &[1usize, 4, 17, 32, 63, 96] {
            let a0 = random_spd(n, n as u64 + 10);
            let mut a = a0.clone();
            potrf(&mut a, 8).unwrap();
            assert!(po_residual(&a0, &a) < 1e-11, "n={n}");
        }
    }

    #[test]
    fn blocked_and_unblocked_agree() {
        let a0 = random_spd(29, 3);
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        potrf(&mut a1, 5).unwrap();
        potrf_unblocked(a2.as_mut()).unwrap();
        for i in 0..29 {
            for j in 0..=i {
                assert!((a1[(i, j)] - a2[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn indefinite_matrix_reports_error() {
        let mut a = random_spd(8, 4);
        a[(5, 5)] = -100.0; // break positive definiteness
        let err = potrf(&mut a, 4).unwrap_err();
        match err {
            Error::NotPositiveDefinite(k) => assert!(k <= 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn upper_triangle_left_untouched() {
        let mut a = random_spd(10, 6);
        let sentinel = a[(2, 7)];
        potrf(&mut a, 4).unwrap();
        assert_eq!(a[(2, 7)], sentinel);
    }

    /// Recorded when `potrf_unblocked` was still a scalar `get`/`set` loop.
    #[test]
    fn factor_bits_are_pinned() {
        use crate::gen::tests::digest;
        for (n, seed, want) in [
            (12, 1, 0x5a78_4218_1802_ac0b),
            (64, 2, 0x3a7a_2fc2_fa07_4aec),
            (97, 3, 0x7fcf_8c69_52ad_2afb),
        ] {
            let mut a = random_spd(n, seed);
            potrf_unblocked(a.as_mut()).unwrap();
            assert_eq!(digest(&a), want, "potrf_unblocked({n}, seed {seed})");
        }
        let mut a = random_spd(193, 43);
        potrf(&mut a, 0).unwrap();
        assert_eq!(digest(&a), 0xce30_2062_24ae_d193, "potrf(193)");
    }
}
