//! Property-based tests of the dense kernels: algebraic identities that
//! must hold for arbitrary shapes and data, not just unit-test fixtures.

use dense::gemm::{gemm, Trans};
use dense::gen::{random_matrix, random_spd};
use dense::norms::{frobenius, lu_residual, max_abs_diff, po_residual};
use dense::trsm::{trsm, Diag, Side, Uplo};
use dense::{getrf, potrf, Matrix};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// (A·B)·C = A·(B·C) for conforming shapes.
    #[test]
    fn gemm_is_associative(m in 1usize..12, k in 1usize..12, l in 1usize..12, n in 1usize..12, seed in 0u64..500) {
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, l, seed + 1);
        let c = random_matrix(l, n, seed + 2);
        let mut ab = Matrix::zeros(m, l);
        gemm(Trans::N, Trans::N, 1.0, a.as_ref(), b.as_ref(), 0.0, ab.as_mut());
        let mut ab_c = Matrix::zeros(m, n);
        gemm(Trans::N, Trans::N, 1.0, ab.as_ref(), c.as_ref(), 0.0, ab_c.as_mut());
        let mut bc = Matrix::zeros(k, n);
        gemm(Trans::N, Trans::N, 1.0, b.as_ref(), c.as_ref(), 0.0, bc.as_mut());
        let mut a_bc = Matrix::zeros(m, n);
        gemm(Trans::N, Trans::N, 1.0, a.as_ref(), bc.as_ref(), 0.0, a_bc.as_mut());
        let scale = frobenius(&ab_c).max(1.0);
        prop_assert!(max_abs_diff(&ab_c, &a_bc) / scale < 1e-12);
    }

    /// Transpose identity: (A·B)ᵀ = Bᵀ·Aᵀ, exercised through gemm's trans
    /// arguments.
    #[test]
    fn gemm_transpose_identity(m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..500) {
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed + 9);
        let mut ab = Matrix::zeros(m, n);
        gemm(Trans::N, Trans::N, 1.0, a.as_ref(), b.as_ref(), 0.0, ab.as_mut());
        // Compute BᵀAᵀ via trans flags on the untransposed operands.
        let mut btat = Matrix::zeros(n, m);
        gemm(Trans::T, Trans::T, 1.0, b.as_ref(), a.as_ref(), 0.0, btat.as_mut());
        let abt = Matrix::from_fn(n, m, |i, j| ab[(j, i)]);
        prop_assert!(max_abs_diff(&abt, &btat) < 1e-12);
    }

    /// trsm really inverts: op(A)·(trsm result) reproduces the RHS.
    #[test]
    fn trsm_inverts_triangular_systems(n in 1usize..12, nrhs in 1usize..8, seed in 0u64..500, upper in proptest::bool::ANY) {
        let uplo = if upper { Uplo::Upper } else { Uplo::Lower };
        let mut a = random_matrix(n, n, seed);
        for i in 0..n {
            a[(i, i)] = 3.0 + a[(i, i)].abs();
        }
        let b = random_matrix(n, nrhs, seed + 1);
        let mut x = b.clone();
        trsm(Side::Left, uplo, Trans::N, Diag::NonUnit, 1.0, a.as_ref(), x.as_mut());
        // Rebuild op(A)·x using only the referenced triangle.
        let tri = Matrix::from_fn(n, n, |i, j| {
            let keep = if upper { j >= i } else { j <= i };
            if keep { a[(i, j)] } else { 0.0 }
        });
        let mut lhs = Matrix::zeros(n, nrhs);
        gemm(Trans::N, Trans::N, 1.0, tri.as_ref(), x.as_ref(), 0.0, lhs.as_mut());
        prop_assert!(max_abs_diff(&lhs, &b) < 1e-9);
    }

    /// getrf residual stays tiny for any size and panel width.
    #[test]
    fn getrf_residual_small(n in 1usize..40, nb in 1usize..12, seed in 0u64..500) {
        let a = random_matrix(n, n, seed);
        let mut f = a.clone();
        let ipiv = getrf(&mut f, nb).unwrap();
        prop_assert!(lu_residual(&a, &f, &ipiv) < 1e-10);
    }

    /// potrf residual stays tiny for SPD inputs of any size.
    #[test]
    fn potrf_residual_small(n in 1usize..40, nb in 1usize..12, seed in 0u64..500) {
        let a = random_spd(n, seed);
        let mut f = a.clone();
        potrf(&mut f, nb).unwrap();
        prop_assert!(po_residual(&a, &f) < 1e-10);
    }

    /// The Cholesky factor's determinant relation: det(A) = (∏ L_ii)².
    #[test]
    fn cholesky_diagonal_product_squares_to_determinant(n in 1usize..10, seed in 0u64..200) {
        let a = random_spd(n, seed);
        // det(A) via LU.
        let mut f = a.clone();
        let ipiv = getrf(&mut f, 4).unwrap();
        let mut det: f64 = (0..n).map(|i| f[(i, i)]).product();
        let swaps = ipiv.iter().enumerate().filter(|&(k, &p)| k != p).count();
        if swaps % 2 == 1 {
            det = -det;
        }
        let mut c = a.clone();
        potrf(&mut c, 4).unwrap();
        let prod: f64 = (0..n).map(|i| c[(i, i)]).product();
        let rel = ((prod * prod - det) / det.abs().max(1e-300)).abs();
        prop_assert!(rel < 1e-8, "det {det} vs (∏L_ii)² {}", prod * prod);
    }
}
