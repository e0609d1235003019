//! Property tests pinning the packed, register-blocked GEMM path against
//! the retained triple-loop reference ([`dense::naive_gemm`]):
//!
//! * all four transpose combinations,
//! * strided sub-views of larger matrices (the distributed schedules run
//!   kernels in place on tiles of local buffers),
//! * ragged sizes straddling the MR/NR/KC packing boundaries, where the
//!   zero-padded edge tiles live,
//! * fanned-out `gemm` and `gemm_rows` bitwise equal to the same products
//!   in row slices small enough to run inline, at a fixed worker count,
//! * the row-mapped in-place update `gemm_rows` against the two-pass
//!   formulation it replaces (product into a zeroed scratch, then add the
//!   scratch rows), bitwise,
//! * whole products against the same products in small pieces, bitwise,
//!   under every microkernel, on shapes whose blocks sit either side of the
//!   loop-order crossover and straddle the MR/NR/MC/NC/KC edges,
//! * a product against a prepacked operand (`gemm_prepacked`) against the
//!   `gemm(N, T)` on the block of `B` it stands for, bitwise, for column
//!   ranges that start and end inside register-tile panels.

use dense::gemm::{gemm, gemm_prepacked, gemm_rows, naive_gemm, par_gemm, Trans};
use dense::gen::random_matrix;
use dense::norms::{frobenius, max_abs_diff};
use dense::pack::{KC, MC, MR, NC, NR};
use dense::tuning;
use dense::ukernel::{Isa, Variant};
use dense::{Matrix, PackedB};
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
        gemm(ta, tb, 1.25, a, b, -0.5, big_c.as_mut().block(r0, c0, m, n));

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

/// A fanned-out product must be *bitwise* equal to the same product run
/// inline in row slices — the distributed schedules
/// (and the factors' bit pins) rely on local kernels being deterministic
/// functions of their inputs, independent of worker count.
#[test]
fn par_gemm_is_bitwise_deterministic_at_fixed_thread_count() {
    // The rayon shim sizes its pool from RAYON_NUM_THREADS when the pool
    // starts (the first parallel call of the process); ask for helpers so
    // the test exercises a multi-worker fan-out on any machine.
    std::env::set_var("RAYON_NUM_THREADS", "4");
    // Sizes chosen to clear the ~1 Mflop parallel threshold and to leave a
    // ragged final row chunk (m not a multiple of MC); the second shape is
    // wider than one NC block of the shared packed `B` and ends mid-panel.
    for (m, n, k) in [(2 * MC + 17, 120, 90), (MC + 5, NC + NR + 3, 33)] {
        par_kernels_equal_sequential(m, n, k);
    }
}

/// Row slices of an `m`-row product with inner dimension `k` and `n`
/// columns small enough to run inline: below `m·n·k` = 2²⁰, where `gemm`
/// fans out.
fn inline_slices(m: usize, n: usize, k: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let s = (((1 << 20) - 1) / (n * k)).max(1);
    assert!(s * n * k < 1 << 20 && m * n * k >= 1 << 20);
    (0..m).step_by(s).map(move |r0| r0..(r0 + s).min(m))
}

fn par_kernels_equal_sequential(m: usize, n: usize, k: usize) {
    let a = random_matrix(m, k, 100);
    let b = random_matrix(k, n, 101);
    for (alpha, beta) in [(1.0, 0.0), (-0.75, 1.0), (2.0, 0.25)] {
        let c0 = random_matrix(m, n, 102);
        let mut c_seq = c0.clone();
        for r in inline_slices(m, n, k) {
            gemm(
                Trans::N,
                Trans::N,
                alpha,
                a.block(r.start, 0, r.len(), k),
                b.as_ref(),
                beta,
                c_seq.as_mut().block(r.start, 0, r.len(), n),
            );
        }
        let mut c_par = c0.clone();
        par_gemm(alpha, a.as_ref(), b.as_ref(), beta, c_par.as_mut());
        assert_eq!(
            c_seq.data(),
            c_par.data(),
            "the fanned-out gemm diverged bitwise at alpha={alpha} beta={beta}"
        );
        // And again, to catch any run-to-run nondeterminism in the fan-out.
        let mut c_par2 = c0.clone();
        par_gemm(alpha, a.as_ref(), b.as_ref(), beta, c_par2.as_mut());
        assert_eq!(c_par.data(), c_par2.data());

        // The row-mapped update forks over the same MC-row blocks.
        let (rows, crows) = ascending_rows(m, 103);
        let r0 = random_matrix(crows, n, 104);
        let mut r_seq = r0.clone();
        for r in inline_slices(m, n, k) {
            let a = a.block(r.start, 0, r.len(), k);
            gemm_rows(alpha, a, b.as_ref(), &rows[r], r_seq.as_mut());
        }
        let mut r_par = r0.clone();
        gemm_rows(alpha, a.as_ref(), b.as_ref(), &rows, r_par.as_mut());
        assert_eq!(
            r_seq.data(),
            r_par.data(),
            "the fanned-out gemm_rows diverged bitwise at alpha={alpha}"
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
    /// exactly — bit for bit — what "`gemm` into a zeroed scratch, then
    /// add scratch row `i` to row `rows[i]`" adds, for any single-KC-block
    /// inner dimension, on both sides of the fan-out size; and no element
    /// outside the mapped rows of the window changes.
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
        gemm(Trans::N, Trans::N, alpha, a.as_ref(), b.as_ref(), 0.0, scratch.as_mut());
        let mut expect = before.clone();
        for (i, &r) in rows.iter().enumerate() {
            for j in 0..n {
                expect[(r, c0 + j)] += scratch[(i, j)];
            }
        }

        let mut got = before.clone();
        gemm_rows(alpha, a.as_ref(), b.as_ref(), &rows, got.as_mut().block(0, c0, crows, n));
        for (at, (x, y)) in got.data().iter().zip(expect.data()).enumerate() {
            prop_assert_eq!(
                x.to_bits(), y.to_bits(),
                "differs at ({}, {}), m={} n={} k={}", at / (n + 6), at % (n + 6), m, n, k
            );
        }
    }
}

/// Every microkernel this CPU runs, scalar first.
fn kernels() -> Vec<&'static Variant> {
    let levels = [Isa::Scalar, Isa::Avx2, Isa::Avx512];
    levels.into_iter().filter_map(Isa::variant).collect()
}

/// The macro-kernel's loop order is chosen from the block it is handed
/// (`kc·nc` against a fixed slab size), and MC / NC only tile the output:
/// neither may move a bit. Each shape is run whole — its blocks on either
/// side of the loop-order crossover and across the MR / NR / MC / NC / KC
/// edges — and in `(MR − 1)×(NR + 3)` pieces, whose small blocks all take
/// the row order and cut the register tiles elsewhere, under every kernel
/// this CPU has; all must write the scalar kernel's pieces' bits.
#[test]
fn loop_order_and_blocking_never_change_bits() {
    // The whole products' blocks (kc·nc): 32·1024 and 64·1024 take the row
    // order, 250·300 the column order, and the last but one takes both —
    // 256·1024 by columns, its 3-deep and 16-wide remainders by rows.
    let shapes = [
        (2 * MC + MR + 1, NC + 76, 32),
        (MC - 1, NC, 64),
        (MC + 1, NC + NR, 64),
        (3 * MR + 2, 300, KC - 6),
        (MC + 1, NC + NR, KC + 3),
        (1, NR + 1, 1),
    ];
    for (m, n, k) in shapes {
        let a = random_matrix(m, k, 7);
        let b = random_matrix(k, n, 8);
        let c0 = random_matrix(m, n, 9);
        let run = |variant: &'static Variant, pieces: bool| {
            let mut c = c0.clone();
            let (pm, pn) = if pieces { (MR - 1, NR + 3) } else { (m, n) };
            tuning::with_override(variant, || {
                for i in (0..m).step_by(pm) {
                    for j in (0..n).step_by(pn) {
                        let (h, w) = (pm.min(m - i), pn.min(n - j));
                        let (a, b) = (a.block(i, 0, h, k), b.block(0, j, k, w));
                        let c = c.as_mut().block(i, j, h, w);
                        gemm(Trans::N, Trans::N, -1.0, a, b, 1.0, c);
                    }
                }
            });
            c
        };
        let want = run(tuning::scalar_baseline(), true);
        for variant in kernels() {
            for pieces in [false, true] {
                assert_eq!(
                    run(variant, pieces).data(),
                    want.data(),
                    "{} (pieces: {pieces}) changed bits at m={m} n={n} k={k}",
                    variant.id
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `gemm_prepacked` on columns `c0..c0 + w` of a packed `Bᵀ` adds to a
    /// strided window of `C` exactly what `gemm(N, T)` on rows `c0..c0 + w`
    /// of `B` adds — for tile sides like the unit tests' `v` = 4, 8, 12 that
    /// are not multiples of NR, so ranges start and end inside panels — and
    /// one packing serves every range.
    #[test]
    fn prepacked_operand_equals_gemm_nt_bitwise(
        v in prop_oneof![Just(4usize), Just(8), Just(12), Just(5), Just(NR + 1)],
        tiles in 1usize..7,
        m in prop_oneof![Just(1), Just(MR - 1), Just(MR + 1), Just(12), 1usize..40],
        k in prop_oneof![Just(1), Just(2), Just(32), 1usize..40],
        alpha in prop_oneof![Just(-1.0), -2.0f64..2.0],
        seed in 0u64..1000,
    ) {
        let a = random_matrix(m, k, seed);
        let b = random_matrix(tiles * v, k, seed + 1);
        let mut packed = PackedB::new();
        packed.pack(Trans::T, b.as_ref());
        let before = random_matrix(m + 2, tiles * v + 3, seed + 2);
        for t0 in 0..tiles {
            for t1 in t0 + 1..=tiles {
                let (c0, w) = (t0 * v, (t1 - t0) * v);
                let mut want = before.clone();
                gemm(
                    Trans::N, Trans::T, alpha, a.as_ref(), b.block(c0, 0, w, k), 1.0,
                    want.as_mut().block(1, 2, m, w),
                );
                let mut got = before.clone();
                gemm_prepacked(alpha, a.as_ref(), &packed, c0..c0 + w, got.as_mut().block(1, 2, m, w));
                for (at, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "columns {}..{} of {} tiles of {}: element {}", c0, c0 + w, tiles, v, at
                    );
                }
            }
        }
    }
}

/// A wide operand spans several NC blocks of the packed `B`, a deep one
/// several KC blocks: the prepacked product walks both like `gemm` does,
/// under every kernel this CPU has.
#[test]
fn prepacked_operand_spanning_cache_blocks_equals_gemm() {
    let (m, n, k) = (2 * MR + 1, NC + 2 * NR + 5, KC + 37);
    let (a, b) = (random_matrix(m, k, 1), random_matrix(k, n, 2));
    let c0 = random_matrix(m, n - 9, 3);
    for variant in kernels() {
        let (mut want, mut got) = (c0.clone(), c0.clone());
        tuning::with_override(variant, || {
            gemm(
                Trans::N,
                Trans::N,
                0.5,
                a.as_ref(),
                b.block(0, 5, k, n - 9),
                1.0,
                want.as_mut(),
            );
            let mut packed = PackedB::new();
            packed.pack(Trans::N, b.as_ref());
            gemm_prepacked(0.5, a.as_ref(), &packed, 5..n - 4, got.as_mut());
        });
        assert_eq!(got.data(), want.data(), "{}", variant.id);
    }
}

#[test]
#[should_panic(expected = "gemm_prepacked: columns outside op(B)")]
fn gemm_prepacked_rejects_columns_outside_the_operand() {
    let (a, b) = (random_matrix(3, 2, 1), random_matrix(2, 4, 2));
    let mut packed = PackedB::new();
    packed.pack(Trans::N, b.as_ref());
    let mut c = Matrix::zeros(3, 3);
    gemm_prepacked(1.0, a.as_ref(), &packed, 2..5, c.as_mut());
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
fn fanned_out_gemm_rows_rejects_a_row_outside_c() {
    // Big enough to fan out: the check must not depend on it.
    let (m, n, k) = (2 * MC, 128, 64);
    let (a, b) = (random_matrix(m, k, 1), random_matrix(k, n, 2));
    let mut c = Matrix::zeros(m, n);
    let mut rows: Vec<usize> = (0..m).collect();
    rows[m - 1] = m;
    gemm_rows(1.0, a.as_ref(), b.as_ref(), &rows, c.as_mut());
}
