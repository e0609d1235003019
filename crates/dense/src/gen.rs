//! Deterministic workload generators.
//!
//! All generators are seeded so every experiment in the repository is
//! reproducible bit-for-bit.

use crate::gemm::{gemmt, CUplo, Trans};
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform random matrix with entries in `[-1, 1)`.
pub fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// Random symmetric positive-definite matrix: `B·Bᵀ + n·I` for a random `B`.
///
/// The diagonal shift keeps the condition number modest so Cholesky residuals
/// stay near machine precision across the sizes the test-suite uses.
///
/// Only the lower triangle of `B·Bᵀ` is computed ([`gemmt`], which fans out
/// over the Rayon pool at these sizes); the upper triangle is its mirror
/// image. That is bitwise the full product: entry `(j, i)` of it sums
/// `b_jk·b_ik` over `k` in the same order as entry `(i, j)` sums `b_ik·b_jk`.
pub fn random_spd(n: usize, seed: u64) -> Matrix {
    /// Side of the square blocks the mirror copies, so both the rows it
    /// reads down a column and the rows it writes stay in cache.
    const MIRROR: usize = 32;
    let b = random_matrix(n, n, seed);
    let mut a = Matrix::zeros(n, n);
    gemmt(
        CUplo::Lower,
        Trans::N,
        Trans::T,
        1.0,
        b.as_ref(),
        b.as_ref(),
        0.0,
        a.as_mut(),
    );
    let d = a.data_mut();
    for i0 in (0..n).step_by(MIRROR) {
        for j0 in (i0..n).step_by(MIRROR) {
            for i in i0..(i0 + MIRROR).min(n) {
                for j in (i + 1).max(j0)..(j0 + MIRROR).min(n) {
                    d[i * n + j] = d[j * n + i];
                }
            }
        }
    }
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// Random diagonally-dominant matrix — well conditioned for LU even without
/// pivoting, which makes it a fair workload when comparing pivoting
/// strategies (any instability is then attributable to the schedule).
pub fn well_conditioned(n: usize, seed: u64) -> Matrix {
    let mut a = random_matrix(n, n, seed);
    for i in 0..n {
        let row_sum: f64 = a.row(i).iter().map(|x| x.abs()).sum();
        a[(i, i)] = row_sum + 1.0;
    }
    a
}

/// A matrix engineered to punish naive (non-)pivoting: tiny leading pivots
/// force any correct partial-pivoting scheme to select off-diagonal rows at
/// every step.
pub fn needs_pivoting(n: usize, seed: u64) -> Matrix {
    let mut a = random_matrix(n, n, seed);
    for i in 0..n {
        a[(i, i)] *= 1e-12;
        // Put the big entry for column i somewhere below the diagonal.
        let big_row = (i + 1 + (seed as usize + i * 7) % (n - i).max(1)).min(n - 1);
        if big_row != i {
            a[(big_row, i)] = 10.0 + (i as f64);
        }
    }
    a
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::norms::max_abs_diff;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            max_abs_diff(&random_matrix(10, 10, 5), &random_matrix(10, 10, 5)),
            0.0
        );
        assert_eq!(max_abs_diff(&random_spd(8, 2), &random_spd(8, 2)), 0.0);
    }

    #[test]
    fn different_seeds_differ() {
        assert!(max_abs_diff(&random_matrix(6, 6, 1), &random_matrix(6, 6, 2)) > 0.0);
    }

    #[test]
    fn spd_is_symmetric_with_heavy_diagonal() {
        let a = random_spd(12, 9);
        for i in 0..12 {
            for j in 0..12 {
                assert_eq!(a[(i, j)].to_bits(), a[(j, i)].to_bits());
            }
            assert!(a[(i, i)] >= 12.0);
        }
    }

    /// FNV-1a over the bit patterns of a matrix's entries, row-major.
    pub(crate) fn digest(m: &Matrix) -> u64 {
        let words = m.data().iter().map(|x| x.to_bits());
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn spd_bits_are_pinned() {
        // Recorded when `random_spd` still formed both triangles with one
        // sequential `gemm`. 384² · 384 clears the fan-out threshold, so the
        // last case runs `gemmt`'s blocks on the Rayon pool.
        for (n, seed, want) in [
            (12, 2, 0x627b_1e7b_3646_c954),
            (193, 43, 0x9b09_6a33_aa05_f585),
            (384, 7, 0xc4fa_cfad_e02a_c728),
        ] {
            assert_eq!(
                digest(&random_spd(n, seed)),
                want,
                "random_spd({n}, {seed})"
            );
        }
    }

    /// The seed-1 inputs of the benchmark's four workloads (`lu_p1` and
    /// `lu_p8` share one). Release-mode only: `cargo test --release -p dense
    /// --lib -- --ignored`.
    #[test]
    #[ignore = "seconds in a debug build; CI runs it in release mode"]
    fn workload_inputs_are_pinned() {
        assert_eq!(digest(&random_spd(1536, 2)), 0x9569_3f3d_99d6_916f);
        assert_eq!(digest(&random_matrix(1024, 1024, 1)), 0xec8d_d3aa_36e5_fdad);
        assert_eq!(digest(&random_matrix(512, 512, 1)), 0x69f8_2d01_0b60_92d9);
    }

    #[test]
    fn diag_dominant_really_dominates() {
        let a = well_conditioned(10, 3);
        for i in 0..10 {
            let off: f64 = (0..10).filter(|&j| j != i).map(|j| a[(i, j)].abs()).sum();
            assert!(a[(i, i)].abs() > off);
        }
    }

    #[test]
    fn pivot_stress_matrix_has_tiny_diagonal() {
        let a = needs_pivoting(8, 1);
        for i in 0..7 {
            assert!(a[(i, i)].abs() < 1e-10);
        }
    }
}
