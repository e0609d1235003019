//! Analytic flop counts for the kernels in this crate, plus a per-thread
//! running tally.
//!
//! The simulated time-to-solution model in the benchmark harness combines
//! the runtime's *measured* byte counts with per-rank flop counts; these
//! helpers give the standard operation counts so call sites can account for
//! their local computation without instrumenting inner loops.
//!
//! Every kernel in this crate also *credits* its analytic count to a
//! thread-local tally at entry (`tally`). Because `xmpi` runs each
//! simulated rank on its own OS thread, [`thread_flops`] read on a rank
//! thread is that rank's cumulative local computation — the number
//! `Comm::set_phase_with_flops` embeds in event traces so the `xtrace`
//! analyses can attribute computation to phases. Counting happens at kernel
//! *entry* on the calling thread (not inside parallel workers) so flops done
//! by a fanned-out product's Rayon helpers are still credited to the rank
//! that issued the call.

use std::cell::Cell;

thread_local! {
    static TALLY: Cell<u64> = const { Cell::new(0) };
}

/// Credit `n` flops to the calling thread's tally (kernels call this at
/// entry; call sites normally never need to).
#[inline]
pub(crate) fn tally(n: u64) {
    TALLY.with(|t| t.set(t.get().wrapping_add(n)));
}

/// The calling thread's cumulative flop count since thread start.
pub fn thread_flops() -> u64 {
    TALLY.with(Cell::get)
}

/// Flops for `C ← α·A·B + β·C` with `A: m×k`, `B: k×n` (one multiply and one
/// add per inner-product step).
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * (m as u64) * (n as u64) * (k as u64)
}

/// Flops for `gemmt` on an `n×n` output with inner dimension `k`: only one
/// triangle (n(n+1)/2 entries) is computed.
pub fn gemmt_flops(n: usize, k: usize) -> u64 {
    (n as u64) * (n as u64 + 1) * (k as u64)
}

/// Flops for a triangular solve with an `n×n` operand and `m` right-hand
/// sides (`n²·m` multiply-adds).
pub fn trsm_flops(n: usize, m: usize) -> u64 {
    (n as u64) * (n as u64) * (m as u64)
}

/// Flops for partial-pivoting LU on an `m×n` panel (`m ≥ n`):
/// standard count `mn² − n³/3` (times 2 for multiply+add, folded in).
pub fn getrf_flops(m: usize, n: usize) -> u64 {
    let m = m as u64;
    let n = n as u64;
    // Σ_{k=0}^{n-1} 2(m-k-1)(n-k-1) + (m-k-1)  ≈ 2mn²/2 …; use the closed
    // approximation used by LAPACK working notes: mn² − n³/3.
    (m * n * n).saturating_sub(n * n * n / 3)
}

/// Flops for Cholesky on an `n×n` matrix: `n³/3`.
pub fn potrf_flops(n: usize) -> u64 {
    let n = n as u64;
    n * n * n / 3
}

/// Total flops of a full LU factorization of an `n×n` matrix: `2n³/3`.
pub fn lu_total_flops(n: usize) -> u64 {
    let n = n as u64;
    2 * n * n * n / 3
}

/// Total flops of a full Cholesky factorization of an `n×n` matrix: `n³/3`.
pub fn cholesky_total_flops(n: usize) -> u64 {
    let n = n as u64;
    n * n * n / 3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_accumulates_per_thread() {
        let before = thread_flops();
        tally(10);
        tally(5);
        assert_eq!(thread_flops() - before, 15);
        // Another thread starts from zero.
        let other = std::thread::spawn(thread_flops).join().unwrap();
        assert_eq!(other, 0);
    }

    #[test]
    fn kernels_credit_the_tally() {
        use crate::gemm::{gemm, Trans};
        use crate::gen::random_matrix;
        use crate::matrix::Matrix;
        let before = thread_flops();
        let a = random_matrix(8, 4, 1);
        let b = random_matrix(4, 6, 2);
        let mut c = Matrix::zeros(8, 6);
        gemm(
            Trans::N,
            Trans::N,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        assert_eq!(thread_flops() - before, gemm_flops(8, 6, 4));
    }

    #[test]
    fn par_gemm_credits_full_count_to_calling_thread() {
        use crate::gemm::par_gemm;
        use crate::gen::random_matrix;
        use crate::matrix::Matrix;
        // Large enough to clear the ~1 Mflop fan-out threshold, so the product really fans out to Rayon workers — the
        // calling (rank) thread must still be credited the whole count.
        let n = 160;
        let a = random_matrix(n, n, 7);
        let b = random_matrix(n, n, 8);
        let mut c = Matrix::zeros(n, n);
        let before = thread_flops();
        par_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        assert_eq!(
            thread_flops() - before,
            gemm_flops(n, n, n),
            "rank thread must see the full GEMM count despite Rayon fan-out"
        );
    }

    #[test]
    fn gemmt_credits_its_count_once_to_the_calling_thread() {
        use crate::gemm::{gemmt, CUplo, Trans};
        use crate::gen::random_matrix;
        use crate::matrix::Matrix;
        // 300² · 64 clears the fan-out threshold and 300 rows make two MC
        // blocks, so the blocks run on Rayon workers as well as here.
        let (n, k) = (300, 64);
        let a = random_matrix(n, k, 9);
        let mut c = Matrix::zeros(n, n);
        let before = thread_flops();
        gemmt(
            CUplo::Lower,
            Trans::N,
            Trans::T,
            -1.0,
            a.as_ref(),
            a.as_ref(),
            1.0,
            c.as_mut(),
        );
        assert_eq!(thread_flops() - before, gemmt_flops(n, k));
    }

    #[test]
    fn gemm_count_is_symmetric_in_m_n() {
        assert_eq!(gemm_flops(3, 5, 7), gemm_flops(5, 3, 7));
        assert_eq!(gemm_flops(10, 10, 10), 2000);
    }

    #[test]
    fn gemmt_is_roughly_half_of_gemm() {
        let full = gemm_flops(100, 100, 8);
        let tri = gemmt_flops(100, 8);
        assert!(tri > full / 2 && tri < full / 2 + gemm_flops(1, 100, 8));
    }

    #[test]
    fn lu_is_twice_cholesky() {
        assert_eq!(lu_total_flops(300), 2 * cholesky_total_flops(300));
    }

    #[test]
    fn square_getrf_matches_total() {
        // mn² − n³/3 with m=n gives 2n³/3.
        assert_eq!(getrf_flops(600, 600), lu_total_flops(600));
    }
}
