//! Distributed CholeskyQR2 — the algorithm behind the paper's CAPITAL
//! comparison target (Hutter & Solomonik, "Communication-avoiding
//! CholeskyQR2 for rectangular matrices", IPDPS'19).
//!
//! For a tall-skinny `m × n` matrix distributed 1D by row blocks:
//!
//! 1. `G = AᵀA` — local Gram matrix plus one all-reduce (`n²` words, the
//!    only communication),
//! 2. `G = L·Lᵀ` — redundant local Cholesky of the tiny Gram matrix,
//! 3. `Q = A·L⁻ᵀ` — local triangular solve, `R = Lᵀ`.
//!
//! One pass loses orthogonality like `κ(A)²·ε`; running the pass *twice*
//! (the "2" in CholeskyQR2) restores it to `O(ε)` — demonstrated by the
//! `single_pass_loses_orthogonality_qr2_restores_it` test. Communication is
//! `O(n² log P)` per rank, independent of `m` — the communication-avoiding
//! property CAPITAL builds on.

use crate::common::{phase, phase_end};
use dense::gemm::{gemm, Trans};
use dense::potrf::potrf;
use dense::trsm::{trsm, Diag, Side, Uplo};
use dense::{Error, Matrix};
use xmpi::WorldStats;

/// Configuration for a CholeskyQR run.
#[derive(Debug, Clone)]
pub struct CholQrConfig {
    /// Row count (tall dimension).
    pub m: usize,
    /// Column count (`n ≤ m`).
    pub n: usize,
    /// Rank count (1D row-block distribution).
    pub p: usize,
    /// Number of CholeskyQR passes (2 = CholeskyQR2; 1 exposes the
    /// classical instability).
    pub passes: usize,
}

impl CholQrConfig {
    /// Standard CholeskyQR2.
    pub fn new(m: usize, n: usize, p: usize) -> Self {
        assert!(n <= m, "matrix must be tall (m ≥ n)");
        assert!(p >= 1);
        CholQrConfig { m, n, p, passes: 2 }
    }
}

/// Result of a distributed CholeskyQR factorization.
pub struct CholQrOutput {
    /// The orthogonal factor (`m × n`), reassembled.
    pub q: Matrix,
    /// The upper-triangular factor (`n × n`).
    pub r: Matrix,
    /// Measured communication statistics.
    pub stats: WorldStats,
}

/// Factor `a = Q·R` with (multi-pass) CholeskyQR on the simulated machine.
///
/// # Errors
/// [`Error::NotPositiveDefinite`] if the Gram matrix fails to factor
/// (numerically rank-deficient input).
///
/// # Panics
/// If `a`'s shape disagrees with the configuration.
pub fn cholesky_qr(cfg: &CholQrConfig, a: &Matrix) -> Result<CholQrOutput, Error> {
    assert_eq!(a.rows(), cfg.m);
    assert_eq!(a.cols(), cfg.n);
    let (m, n, p) = (cfg.m, cfg.n, cfg.p);
    // Row-block distribution bounds per rank.
    let rows_of = |r: usize| -> (usize, usize) {
        let base = m / p;
        let extra = m % p;
        let lo = r * base + r.min(extra);
        let hi = lo + base + usize::from(r < extra);
        (lo, hi)
    };

    let out = xmpi::run(p, |comm| -> Result<(Matrix, Matrix), Error> {
        let r = comm.rank();
        let (lo, hi) = rows_of(r);
        let mut local = a.block(lo, 0, hi - lo, n).to_owned();
        let mut r_total = Matrix::identity(n);
        for _pass in 0..cfg.passes {
            phase(comm, "gram_allreduce");
            // Local Gram contribution, summed across ranks.
            let mut g = Matrix::zeros(n, n);
            gemm(
                Trans::T,
                Trans::N,
                1.0,
                local.as_ref(),
                local.as_ref(),
                0.0,
                g.as_mut(),
            );
            let mut flat = g.into_vec();
            comm.allreduce_sum(&mut flat);
            let mut g = Matrix::from_vec(n, n, flat);
            phase(comm, "local_chol_trsm");
            // Redundant tiny Cholesky on every rank (no communication).
            potrf(&mut g, 0)?;
            // Q_local = A_local · L⁻ᵀ.
            trsm(
                Side::Right,
                Uplo::Lower,
                Trans::T,
                Diag::NonUnit,
                1.0,
                g.as_ref(),
                local.as_mut(),
            );
            // Accumulate R = Lᵀ · R_prev.
            let lt = Matrix::from_fn(n, n, |i, j| if j >= i { g[(j, i)] } else { 0.0 });
            let mut rnew = Matrix::zeros(n, n);
            gemm(
                Trans::N,
                Trans::N,
                1.0,
                lt.as_ref(),
                r_total.as_ref(),
                0.0,
                rnew.as_mut(),
            );
            r_total = rnew;
        }
        phase_end(comm);
        Ok((local, r_total))
    });

    let mut q = Matrix::zeros(m, n);
    let mut r_final = Matrix::identity(n);
    for (rank, res) in out.results.into_iter().enumerate() {
        let (local, rt) = res?;
        let (lo, _) = rows_of(rank);
        for i in 0..local.rows() {
            q.row_mut(lo + i).copy_from_slice(local.row(i));
        }
        if rank == 0 {
            r_final = rt;
        }
    }
    Ok(CholQrOutput {
        q,
        r: r_final,
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen::random_matrix;
    use dense::norms::{frobenius, max_abs_diff};

    fn orthogonality(q: &Matrix) -> f64 {
        let n = q.cols();
        let mut qtq = Matrix::zeros(n, n);
        gemm(
            Trans::T,
            Trans::N,
            1.0,
            q.as_ref(),
            q.as_ref(),
            0.0,
            qtq.as_mut(),
        );
        let i = Matrix::identity(n);
        max_abs_diff(&qtq, &i)
    }

    fn reconstruction(a: &Matrix, q: &Matrix, r: &Matrix) -> f64 {
        let mut qr = Matrix::zeros(a.rows(), a.cols());
        gemm(
            Trans::N,
            Trans::N,
            1.0,
            q.as_ref(),
            r.as_ref(),
            0.0,
            qr.as_mut(),
        );
        let diff = Matrix::from_fn(a.rows(), a.cols(), |i, j| a[(i, j)] - qr[(i, j)]);
        frobenius(&diff) / frobenius(a)
    }

    #[test]
    fn qr2_factors_tall_skinny_matrices() {
        for (m, n, p) in [(120usize, 8usize, 4usize), (200, 16, 5), (64, 4, 1)] {
            let a = random_matrix(m, n, (m + n) as u64);
            let out = cholesky_qr(&CholQrConfig::new(m, n, p), &a).unwrap();
            assert!(orthogonality(&out.q) < 1e-12, "m={m} n={n} p={p}");
            assert!(
                reconstruction(&a, &out.q, &out.r) < 1e-12,
                "m={m} n={n} p={p}"
            );
            // R upper triangular.
            for i in 0..n {
                for j in 0..i {
                    assert_eq!(out.r[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn single_pass_loses_orthogonality_qr2_restores_it() {
        // Ill-conditioned tall matrix with genuinely skewed column space:
        // the last column is a combination of the others plus a tiny
        // independent component (κ ≈ 1e6 — diagonal scaling alone would be
        // benign for Cholesky-based orthogonalization).
        let (m, n, p) = (160usize, 6usize, 4usize);
        let mut a = random_matrix(m, n, 9);
        let noise = random_matrix(m, 1, 10);
        for i in 0..m {
            let mix: f64 = (0..n - 1).map(|j| a[(i, j)]).sum();
            a[(i, n - 1)] = mix + 1e-6 * noise[(i, 0)];
        }
        let qr2 = CholQrConfig::new(m, n, p);
        let mut qr1 = qr2.clone();
        qr1.passes = 1;
        let one = cholesky_qr(&qr1, &a).unwrap();
        let two = cholesky_qr(&qr2, &a).unwrap();
        let (o1, o2) = (orthogonality(&one.q), orthogonality(&two.q));
        assert!(
            o2 < 1e-12,
            "QR2 must be orthogonal to machine precision, got {o2}"
        );
        assert!(
            o1 > 100.0 * o2,
            "single pass should be visibly worse: {o1} vs {o2}"
        );
    }

    #[test]
    fn communication_is_independent_of_m() {
        // The communication-avoiding property: volume per rank depends on
        // n², not m.
        let (n, p) = (8usize, 4usize);
        let short = cholesky_qr(&CholQrConfig::new(128, n, p), &random_matrix(128, n, 1)).unwrap();
        let tall = cholesky_qr(&CholQrConfig::new(1024, n, p), &random_matrix(1024, n, 2)).unwrap();
        assert_eq!(
            short.stats.total_bytes_sent(),
            tall.stats.total_bytes_sent(),
            "volume must not depend on m"
        );
    }

    #[test]
    fn rank_deficient_input_errors() {
        let (m, n, p) = (64usize, 4usize, 2usize);
        let mut a = random_matrix(m, n, 3);
        for i in 0..m {
            // Zero column: the Gram matrix gets an exactly-zero row/column,
            // so the offending Cholesky pivot is exactly 0 regardless of
            // rounding (a duplicated column is also singular, but its pivot
            // is a roundoff-sized value of either sign).
            a[(i, 3)] = 0.0;
        }
        assert!(matches!(
            cholesky_qr(&CholQrConfig::new(m, n, p), &a),
            Err(Error::NotPositiveDefinite(_))
        ));
    }
}
