//! Solve helper on top of packed LU factors: forward/backward substitution
//! in pivoted row coordinates (the step [`crate::refine`] iterates).

use crate::gemm::Trans;
use crate::matrix::Matrix;
use crate::trsm::{trsm, Diag, Side, Uplo};

/// Solve `A·X = B` given a packed LU factor in *pivoted row coordinates*
/// with an explicit permutation (`perm[s]` = original row at position `s`),
/// the representation COnfLUX produces. `B` is consumed; `X` is returned.
pub(crate) fn lu_solve_perm(packed: &Matrix, perm: &[usize], b: &Matrix) -> Matrix {
    let n = packed.rows();
    assert_eq!(packed.cols(), n);
    assert_eq!(b.rows(), n);
    assert_eq!(perm.len(), n);
    let mut x = Matrix::from_fn(n, b.cols(), |i, j| b[(perm[i], j)]);
    trsm(
        Side::Left,
        Uplo::Lower,
        Trans::N,
        Diag::Unit,
        1.0,
        packed.as_ref(),
        x.as_mut(),
    );
    trsm(
        Side::Left,
        Uplo::Upper,
        Trans::N,
        Diag::NonUnit,
        1.0,
        packed.as_ref(),
        x.as_mut(),
    );
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;
    use crate::gen::random_matrix;
    use crate::getrf::getrf;
    use crate::norms::max_abs_diff;

    fn residual(a: &Matrix, x: &Matrix, b: &Matrix) -> f64 {
        let mut ax = Matrix::zeros(b.rows(), b.cols());
        gemm(
            Trans::N,
            Trans::N,
            1.0,
            a.as_ref(),
            x.as_ref(),
            0.0,
            ax.as_mut(),
        );
        max_abs_diff(&ax, b)
    }

    #[test]
    fn lu_solve_recovers_solution() {
        let n = 24;
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, 3, 2);
        let mut f = a.clone();
        let ipiv = getrf(&mut f, 6).unwrap();
        let perm = crate::getrf::permutation_vector(n, &ipiv);
        let x = lu_solve_perm(&f, &perm, &b);
        assert!(residual(&a, &x, &b) < 1e-9);
    }
}
