//! Property tests pinning the packed, register-blocked GEMM path against
//! the retained triple-loop reference ([`dense::naive_gemm`]):
//!
//! * all four transpose combinations,
//! * strided sub-views of larger matrices (the distributed schedules run
//!   kernels in place on tiles of local buffers),
//! * ragged sizes straddling the MR/NR/KC packing boundaries, where the
//!   zero-padded edge tiles live,
//! * `par_gemm` bitwise equality with the sequential kernel at a fixed
//!   worker count,
//! * the row-mapped in-place update `gemm_rows` / `par_gemm_rows` against
//!   the two-pass formulation it replaces (product into a zeroed scratch,
//!   then add the scratch rows), bitwise.

use dense::gemm::{gemm, gemm_rows, naive_gemm, par_gemm, par_gemm_rows, Trans};
use dense::gen::random_matrix;
use dense::norms::{frobenius, max_abs_diff};
use dense::pack::{KC, MC, MR, NR};
use dense::Matrix;
use proptest::prelude::*;

fn trans_strategy() -> impl Strategy<Value = Trans> {
    prop_oneof![Just(Trans::N), Just(Trans::T)]
}

/// Sizes clustered on the packing boundaries: 1, MR−1, MR+1, NR−1, NR+1,
/// KC+3 and friends, plus a few arbitrary fillers.
fn boundary_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1),
        Just(MR - 1),
        Just(MR),
        Just(MR + 1),
        Just(NR - 1),
        Just(NR + 1),
        Just(2 * NR + 3),
        1usize..40,
    ]
}

/// K dims additionally straddle the KC cache-block edge (kept rare because
/// KC-sized products dominate the test's runtime).
fn boundary_k() -> impl Strategy<Value = usize> {
    prop_oneof![
        4 => boundary_dim().boxed(),
        1 => prop_oneof![Just(KC - 1), Just(KC), Just(KC + 3)].boxed(),
    ]
}

fn shaped(ta: Trans, m: usize, k: usize, seed: u64) -> Matrix {
    match ta {
        Trans::N => random_matrix(m, k, seed),
        Trans::T => random_matrix(k, m, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Packed gemm equals the naive triple loop for every transpose
    /// combination and ragged shapes around the packing boundaries.
    #[test]
    fn packed_matches_naive_reference(
        ta in trans_strategy(),
        tb in trans_strategy(),
        m in boundary_dim(),
        n in boundary_dim(),
        k in boundary_k(),
        alpha in -2.0f64..2.0,
        beta in prop_oneof![Just(0.0), Just(1.0), -1.5f64..1.5],
        seed in 0u64..1000,
    ) {
        let a = shaped(ta, m, k, seed);
        let b = shaped(tb, k, n, seed + 1);
        let c0 = random_matrix(m, n, seed + 2);
        let mut packed = c0.clone();
        gemm(ta, tb, alpha, a.as_ref(), b.as_ref(), beta, packed.as_mut());
        let mut reference = c0.clone();
        naive_gemm(ta, tb, alpha, a.as_ref(), b.as_ref(), beta, reference.as_mut());
        let scale = frobenius(&reference).max(1.0);
        prop_assert!(
            max_abs_diff(&packed, &reference) / scale < 1e-12,
            "ta={ta:?} tb={tb:?} m={m} n={n} k={k}"
        );
    }

    /// Packed gemm on strided sub-views of a larger allocation equals the
    /// same product on owned copies, and never writes outside the window.
    #[test]
    fn packed_on_strided_subviews(
        ta in trans_strategy(),
        tb in trans_strategy(),
        m in 1usize..14,
        n in 1usize..14,
        k in 1usize..14,
        (r0, c0) in (0usize..5, 0usize..5),
        seed in 0u64..1000,
    ) {
        let (am, an) = if ta == Trans::N { (m, k) } else { (k, m) };
        let (bm, bn) = if tb == Trans::N { (k, n) } else { (n, k) };
        let big_a = random_matrix(am + 7, an + 7, seed);
        let big_b = random_matrix(bm + 7, bn + 7, seed + 1);
        let mut big_c = random_matrix(m + 9, n + 9, seed + 2);
        let c_before = big_c.clone();

        let a = big_a.block(r0, c0, am, an);
        let b = big_b.block(c0, r0, bm, bn);
        gemm(ta, tb, 1.25, a, b, -0.5, big_c.block_mut(r0, c0, m, n));

        let mut reference = c_before.block(r0, c0, m, n).to_owned();
        naive_gemm(ta, tb, 1.25, a, b, -0.5, reference.as_mut());
        let window = big_c.block(r0, c0, m, n).to_owned();
        let scale = frobenius(&reference).max(1.0);
        prop_assert!(max_abs_diff(&window, &reference) / scale < 1e-12);

        // Everything outside the C window is untouched.
        for i in 0..big_c.rows() {
            for j in 0..big_c.cols() {
                let inside = (r0..r0 + m).contains(&i) && (c0..c0 + n).contains(&j);
                if !inside {
                    prop_assert_eq!(big_c[(i, j)], c_before[(i, j)], "splash at ({}, {})", i, j);
                }
            }
        }
    }
}

/// `par_gemm` must be *bitwise* equal to `gemm` — the distributed schedules
/// (and `lookahead_equivalence`) rely on local kernels being deterministic
/// functions of their inputs, independent of worker count.
#[test]
fn par_gemm_is_bitwise_deterministic_at_fixed_thread_count() {
    // The rayon shim sizes its pool from RAYON_NUM_THREADS when the pool
    // starts (the first parallel call of the process); ask for helpers so
    // the test exercises a multi-worker fan-out on any machine.
    std::env::set_var("RAYON_NUM_THREADS", "4");
    // Sizes chosen to clear the ~1 Mflop parallel threshold and to leave a
    // ragged final row chunk (m not a multiple of MC).
    let (m, n, k) = (2 * MC + 17, 120, 90);
    let a = random_matrix(m, k, 100);
    let b = random_matrix(k, n, 101);
    for (alpha, beta) in [(1.0, 0.0), (-0.75, 1.0), (2.0, 0.25)] {
        let c0 = random_matrix(m, n, 102);
        let mut c_seq = c0.clone();
        gemm(
            Trans::N,
            Trans::N,
            alpha,
            a.as_ref(),
            b.as_ref(),
            beta,
            c_seq.as_mut(),
        );
        let mut c_par = c0.clone();
        par_gemm(alpha, a.as_ref(), b.as_ref(), beta, c_par.as_mut());
        assert_eq!(
            c_seq.data(),
            c_par.data(),
            "par_gemm diverged bitwise at alpha={alpha} beta={beta}"
        );
        // And again, to catch any run-to-run nondeterminism in the fan-out.
        let mut c_par2 = c0.clone();
        par_gemm(alpha, a.as_ref(), b.as_ref(), beta, c_par2.as_mut());
        assert_eq!(c_par.data(), c_par2.data());

        // The row-mapped update forks over the same MC-row blocks.
        let (rows, crows) = ascending_rows(m, 103);
        let r0 = random_matrix(crows, n, 104);
        let mut r_seq = r0.clone();
        gemm_rows(alpha, a.as_ref(), b.as_ref(), &rows, r_seq.as_mut());
        let mut r_par = r0.clone();
        par_gemm_rows(alpha, a.as_ref(), b.as_ref(), &rows, r_par.as_mut());
        assert_eq!(
            r_seq.data(),
            r_par.data(),
            "par_gemm_rows diverged bitwise at alpha={alpha}"
        );
    }
}

/// A strictly ascending row map of length `m` with pseudo-random gaps of
/// 0..=3 skipped rows before each entry (derived from `seed`), and the
/// number of rows a `C` needs to hold it plus a few untouched trailing rows.
fn ascending_rows(m: usize, seed: u64) -> (Vec<usize>, usize) {
    let gaps = random_matrix(m, 1, seed);
    let mut next = 0;
    let rows: Vec<usize> = (0..m)
        .map(|i| {
            let r = next + (gaps[(i, 0)].abs() * 4.0) as usize % 4;
            next = r + 1;
            r
        })
        .collect();
    (rows, next + 2)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `gemm_rows` adds to the mapped rows of a strided window of `C`
    /// exactly — bit for bit — what "`par_gemm` into a zeroed scratch, then
    /// add scratch row `i` to row `rows[i]`" adds, for any single-KC-block
    /// inner dimension; `par_gemm_rows` equals it bitwise on both sides of
    /// its fork threshold; and no element outside the mapped rows of the
    /// window changes.
    #[test]
    fn gemm_rows_equals_scratch_then_scatter_bitwise(
        m in prop_oneof![
            Just(1), Just(MR - 1), Just(MR + 1), Just(MC - 1), Just(MC), Just(MC + 1),
            Just(2 * MC + 17), 1usize..40,
        ],
        n in prop_oneof![Just(1), Just(NR - 1), Just(NR + 1), Just(2 * NR + 3), Just(130), 1usize..40],
        k in prop_oneof![Just(1), Just(16), Just(33), Just(KC), 1usize..40],
        alpha in prop_oneof![Just(1.0), -2.0f64..2.0],
        c0 in 0usize..5,
        seed in 0u64..1000,
    ) {
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed + 1);
        let (rows, crows) = ascending_rows(m, seed + 2);
        let before = random_matrix(crows, n + 6, seed + 3);

        let mut scratch = Matrix::zeros(m, n);
        par_gemm(alpha, a.as_ref(), b.as_ref(), 0.0, scratch.as_mut());
        let mut expect = before.clone();
        for (i, &r) in rows.iter().enumerate() {
            for j in 0..n {
                expect[(r, c0 + j)] += scratch[(i, j)];
            }
        }

        let mut seq = before.clone();
        gemm_rows(alpha, a.as_ref(), b.as_ref(), &rows, seq.block_mut(0, c0, crows, n));
        let mut par = before.clone();
        par_gemm_rows(alpha, a.as_ref(), b.as_ref(), &rows, par.block_mut(0, c0, crows, n));
        for (what, got) in [("gemm_rows", &seq), ("par_gemm_rows", &par)] {
            for (at, (x, y)) in got.data().iter().zip(expect.data()).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "{} differs at ({}, {}), m={} n={} k={}", what, at / (n + 6), at % (n + 6), m, n, k
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "gemm_rows: rows must be strictly ascending")]
fn gemm_rows_rejects_a_non_ascending_row_map() {
    let (a, b) = (random_matrix(3, 2, 1), random_matrix(2, 4, 2));
    let mut c = Matrix::zeros(6, 4);
    gemm_rows(1.0, a.as_ref(), b.as_ref(), &[0, 4, 4], c.as_mut());
}

#[test]
#[should_panic(expected = "gemm_rows: row index out of range")]
fn par_gemm_rows_rejects_a_row_outside_c() {
    // Big enough to take the parallel path: the check must not depend on it.
    let (m, n, k) = (2 * MC, 128, 64);
    let (a, b) = (random_matrix(m, k, 1), random_matrix(k, n, 2));
    let mut c = Matrix::zeros(m, n);
    let mut rows: Vec<usize> = (0..m).collect();
    rows[m - 1] = m;
    par_gemm_rows(1.0, a.as_ref(), b.as_ref(), &rows, c.as_mut());
}
