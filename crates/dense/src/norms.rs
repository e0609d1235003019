//! Norms and factorization residuals used for validation.

use crate::gemm::{gemm, Trans};
use crate::getrf::permutation_vector;
use crate::matrix::Matrix;

/// Frobenius norm `‖A‖_F`.
pub fn frobenius(a: &Matrix) -> f64 {
    a.data().iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Max-absolute-entry norm `‖A‖_max`.
pub fn max_abs(a: &Matrix) -> f64 {
    a.data().iter().fold(0.0_f64, |m, x| m.max(x.abs()))
}

/// Largest entrywise difference between two same-shaped matrices.
pub fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    a.data()
        .iter()
        .zip(b.data())
        .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
}

/// Extract unit-lower `L` and upper `U` from a packed LU factor.
pub fn unpack_lu(lu: &Matrix) -> (Matrix, Matrix) {
    let n = lu.rows();
    let l = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            1.0
        } else if j < i {
            lu[(i, j)]
        } else {
            0.0
        }
    });
    let u = Matrix::from_fn(n, n, |i, j| if j >= i { lu[(i, j)] } else { 0.0 });
    (l, u)
}

/// Relative LU residual `‖P·A − L·U‖_F / ‖A‖_F` for a packed factor and a
/// LAPACK-style pivot sequence: [`lu_residual_perm`] of its permutation.
pub fn lu_residual(a: &Matrix, lu: &Matrix, ipiv: &[usize]) -> f64 {
    lu_residual_perm(a, lu, &permutation_vector(a.rows(), ipiv))
}

/// Relative LU residual for a factorization returned as an explicit
/// permutation: `perm[i]` is the original row placed at position `i`.
pub fn lu_residual_perm(a: &Matrix, lu: &Matrix, perm: &[usize]) -> f64 {
    let n = a.rows();
    let (l, u) = unpack_lu(lu);
    let pa = Matrix::from_fn(n, n, |i, j| a[(perm[i], j)]);
    let mut prod = Matrix::zeros(n, n);
    gemm(
        Trans::N,
        Trans::N,
        1.0,
        l.as_ref(),
        u.as_ref(),
        0.0,
        prod.as_mut(),
    );
    let diff = Matrix::from_fn(n, n, |i, j| pa[(i, j)] - prod[(i, j)]);
    frobenius(&diff) / frobenius(a).max(f64::MIN_POSITIVE)
}

/// Relative Cholesky residual `‖A − L·Lᵀ‖_F / ‖A‖_F` where `L` is read from
/// the lower triangle of `chol`.
pub fn po_residual(a: &Matrix, chol: &Matrix) -> f64 {
    let n = a.rows();
    let l = Matrix::from_fn(n, n, |i, j| if j <= i { chol[(i, j)] } else { 0.0 });
    let mut prod = Matrix::zeros(n, n);
    gemm(
        Trans::N,
        Trans::T,
        1.0,
        l.as_ref(),
        l.as_ref(),
        0.0,
        prod.as_mut(),
    );
    let diff = Matrix::from_fn(n, n, |i, j| a[(i, j)] - prod[(i, j)]);
    frobenius(&diff) / frobenius(a).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frobenius_of_identity() {
        let i = Matrix::identity(9);
        assert!((frobenius(&i) - 3.0).abs() < 1e-15);
    }

    #[test]
    fn max_abs_finds_extreme() {
        let mut m = Matrix::zeros(4, 4);
        m[(2, 3)] = -7.5;
        assert_eq!(max_abs(&m), 7.5);
    }

    #[test]
    fn unpack_roundtrip_on_identity_factor() {
        let lu = Matrix::identity(5);
        let (l, u) = unpack_lu(&lu);
        assert_eq!(l, Matrix::identity(5));
        assert_eq!(u, Matrix::identity(5));
    }

    #[test]
    fn residual_zero_for_exact_factor() {
        // A = L·U with known factors, no pivoting needed.
        let l = Matrix::from_fn(3, 3, |i, j| {
            if i == j {
                1.0
            } else if j < i {
                0.5
            } else {
                0.0
            }
        });
        let u = Matrix::from_fn(3, 3, |i, j| if j >= i { (1 + i + j) as f64 } else { 0.0 });
        let mut a = Matrix::zeros(3, 3);
        gemm(
            Trans::N,
            Trans::N,
            1.0,
            l.as_ref(),
            u.as_ref(),
            0.0,
            a.as_mut(),
        );
        let packed = Matrix::from_fn(3, 3, |i, j| if j < i { 0.5 } else { u[(i, j)] });
        assert!(lu_residual(&a, &packed, &[0, 1, 2]) < 1e-15);
    }
}
