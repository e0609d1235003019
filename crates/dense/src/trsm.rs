//! Triangular solve with multiple right-hand sides (`trsm`).
//!
//! Used by both factorizations: LU computes `L10 = A10·U00⁻¹` and
//! `U01 = L00⁻¹·A01`; Cholesky computes `L10 = A10·L00⁻ᵀ`.
//!
//! The solve is blocked recursively: the triangular operand is split into
//! quadrants, the two diagonal sub-solves recurse, and the coupling term is
//! a rectangular product routed through the packed GEMM engine
//! ([`crate::pack`]). Blocks at or below `TRSM_BASE` (32) are solved by
//! substitution, eight right-hand sides at a time with their running
//! values held in registers.

use crate::gemm::Trans;
use crate::matrix::{MatMut, MatRef};
use crate::pack;

/// Diagonal block size at or below which the recursion switches to
/// substitution. A 32×32 triangle is 8 KiB, L1-resident next to a strip of
/// right-hand sides; above it the packed engine's rate more than pays for
/// its per-call packing.
const TRSM_BASE: usize = 32;

/// Right-hand sides one substitution pass solves together: their running
/// values are one `[f64; STRIP]` accumulator (two AVX2 registers) per step.
const STRIP: usize = 8;

/// Which side the triangular operand appears on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Solve `op(A)·X = α·B` (A multiplies from the left).
    Left,
    /// Solve `X·op(A) = α·B` (A multiplies from the right).
    Right,
}

/// Which triangle of the operand holds the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uplo {
    /// Lower triangular.
    Lower,
    /// Upper triangular.
    Upper,
}

/// Whether the triangular operand has an implicit unit diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diag {
    /// Diagonal entries are read from storage.
    NonUnit,
    /// Diagonal entries are assumed to be 1 and never read.
    Unit,
}

/// Solve a triangular system in place: on return `B` holds `X` where
/// `op(A)·X = α·B` (`Side::Left`) or `X·op(A) = α·B` (`Side::Right`).
///
/// `A` must be square; only its `uplo` triangle is read (plus the diagonal
/// unless `Diag::Unit`).
///
/// Every stored entry of the triangle takes part in the arithmetic, exact
/// zeros included (as in the packed coupling products), so a non-finite
/// right-hand side spreads by IEEE rules — `0·∞ = NaN` — to every
/// right-hand-side row the elimination order couples it with.
///
/// # Panics
/// On shape mismatch.
pub fn trsm(
    side: Side,
    uplo: Uplo,
    ta: Trans,
    diag: Diag,
    alpha: f64,
    a: MatRef<'_>,
    mut b: MatMut<'_>,
) {
    assert_eq!(a.rows(), a.cols(), "trsm: A must be square");
    let n = a.rows();
    match side {
        Side::Left => assert_eq!(b.rows(), n, "trsm: B rows must match A"),
        Side::Right => assert_eq!(b.cols(), n, "trsm: B cols must match A"),
    }

    if alpha != 1.0 {
        for i in 0..b.rows() {
            for x in b.row_mut(i) {
                *x *= alpha;
            }
        }
    }
    if n == 0 || b.rows() == 0 || b.cols() == 0 {
        return;
    }
    let nrhs = match side {
        Side::Left => b.cols(),
        Side::Right => b.rows(),
    };
    crate::flops::tally(crate::flops::trsm_flops(n, nrhs));
    trsm_rec(side, uplo, ta, diag, a, &mut b);
}

/// `op(A)` is lower triangular iff the stored triangle and the transpose
/// flag agree this way.
fn eff_uplo(uplo: Uplo, ta: Trans) -> Uplo {
    match (uplo, ta) {
        (Uplo::Lower, Trans::N) | (Uplo::Upper, Trans::T) => Uplo::Lower,
        (Uplo::Upper, Trans::N) | (Uplo::Lower, Trans::T) => Uplo::Upper,
    }
}

/// Recursive quadrant solve. `alpha` has already been applied and the flop
/// tally credited; all GEMM coupling updates go through the packed engine
/// directly (no re-tally).
fn trsm_rec(side: Side, uplo: Uplo, ta: Trans, diag: Diag, a: MatRef<'_>, b: &mut MatMut<'_>) {
    let n = a.rows();
    if n <= TRSM_BASE {
        trsm_base(side, uplo, ta, diag, a, b.rb_mut());
        return;
    }
    // Split the diagonal at a TRSM_BASE multiple so recursion leaves are
    // uniformly sized.
    let h = (n / 2).next_multiple_of(TRSM_BASE).min(n - 1);
    let a11 = a.block(0, 0, h, h);
    let a22 = a.block(h, h, n - h, n - h);
    match (side, eff_uplo(uplo, ta)) {
        // Forward: X1 = op(A11)⁻¹B1; B2 −= op(A)₂₁·X1; X2 = op(A22)⁻¹B2.
        (Side::Left, Uplo::Lower) => {
            let (mut b1, mut b2) = b.rb_mut().split_rows(h);
            trsm_rec(side, uplo, ta, diag, a11, &mut b1);
            pack::gemm_packed_rows(
                ta,
                Trans::N,
                -1.0,
                ta.op_block(a, h, 0, n - h, h),
                b1.rb(),
                None,
                b2.rb_mut(),
            );
            trsm_rec(side, uplo, ta, diag, a22, &mut b2);
        }
        // Backward: X2 = op(A22)⁻¹B2; B1 −= op(A)₁₂·X2; X1 = op(A11)⁻¹B1.
        (Side::Left, Uplo::Upper) => {
            let (mut b1, mut b2) = b.rb_mut().split_rows(h);
            trsm_rec(side, uplo, ta, diag, a22, &mut b2);
            pack::gemm_packed_rows(
                ta,
                Trans::N,
                -1.0,
                ta.op_block(a, 0, h, h, n - h),
                b2.rb(),
                None,
                b1.rb_mut(),
            );
            trsm_rec(side, uplo, ta, diag, a11, &mut b1);
        }
        // X·op(A) = B, op(A) lower: X2 = B2·op(A22)⁻¹; B1 −= X2·op(A)₂₁;
        // X1 = B1·op(A11)⁻¹. Column halves of B alias in memory, so the
        // solved half is copied out for the coupling product (O(m·n) copy
        // against O(m·n²) solve flops).
        (Side::Right, Uplo::Lower) => {
            let bm = b.rows();
            {
                let mut b2 = b.rb_mut().block(0, h, bm, n - h);
                trsm_rec(side, uplo, ta, diag, a22, &mut b2);
            }
            let x2 = b.rb().block(0, h, bm, n - h).to_owned();
            let mut b1 = b.rb_mut().block(0, 0, bm, h);
            pack::gemm_packed_rows(
                Trans::N,
                ta,
                -1.0,
                x2.as_ref(),
                ta.op_block(a, h, 0, n - h, h),
                None,
                b1.rb_mut(),
            );
            trsm_rec(side, uplo, ta, diag, a11, &mut b1);
        }
        // X·op(A) = B, op(A) upper: X1 = B1·op(A11)⁻¹; B2 −= X1·op(A)₁₂;
        // X2 = B2·op(A22)⁻¹.
        (Side::Right, Uplo::Upper) => {
            let bm = b.rows();
            {
                let mut b1 = b.rb_mut().block(0, 0, bm, h);
                trsm_rec(side, uplo, ta, diag, a11, &mut b1);
            }
            let x1 = b.rb().block(0, 0, bm, h).to_owned();
            let mut b2 = b.rb_mut().block(0, h, bm, n - h);
            pack::gemm_packed_rows(
                Trans::N,
                ta,
                -1.0,
                x1.as_ref(),
                ta.op_block(a, 0, h, h, n - h),
                None,
                b2.rb_mut(),
            );
            trsm_rec(side, uplo, ta, diag, a22, &mut b2);
        }
    }
}

/// Substitution base case for all sixteen variants (`n ≤ TRSM_BASE`).
///
/// Every variant is the same problem `T·Y = S` for a strip `Y` of [`STRIP`]
/// right-hand sides: with `Side::Left`, `T = op(A)` and the strip is
/// `STRIP` columns of `B`; with `Side::Right`, `X·op(A) = B` reads
/// `op(A)ᵀ·Xᵀ = Bᵀ`, so `T = op(A)ᵀ` and the strip is `STRIP` rows of `B`,
/// transposed on the way in and out. `T`'s triangle is copied once into a
/// contiguous buffer (absorbing both transposes and the unit diagonal), so
/// the solve loops index nothing but that buffer and the strip.
fn trsm_base(side: Side, uplo: Uplo, ta: Trans, diag: Diag, a: MatRef<'_>, mut b: MatMut<'_>) {
    let n = a.rows();
    let transposed = (ta == Trans::T) != (side == Side::Right);
    let lower = (uplo == Uplo::Lower) != transposed;
    let unit = diag == Diag::Unit;

    let mut t = [0.0; TRSM_BASE * TRSM_BASE];
    for i in 0..n {
        // The stored triangle's part of row i, without the diagonal of a
        // unit triangle (which is never read).
        let stored = match uplo {
            Uplo::Lower => 0..i + usize::from(!unit),
            Uplo::Upper => i + usize::from(unit)..n,
        };
        let src = &a.row(i)[stored.clone()];
        if transposed {
            for (j, &x) in stored.zip(src) {
                t[j * n + i] = x;
            }
        } else {
            t[i * n..][stored].copy_from_slice(src);
        }
    }

    let mut s = [[0.0; STRIP]; TRSM_BASE];
    match side {
        Side::Left => {
            for c0 in (0..b.cols()).step_by(STRIP) {
                let w = STRIP.min(b.cols() - c0);
                for (i, si) in s[..n].iter_mut().enumerate() {
                    si[..w].copy_from_slice(&b.row(i)[c0..c0 + w]);
                }
                solve_strip(&t, n, lower, unit, &mut s);
                for (i, si) in s[..n].iter().enumerate() {
                    b.row_mut(i)[c0..c0 + w].copy_from_slice(&si[..w]);
                }
            }
        }
        Side::Right => {
            for r0 in (0..b.rows()).step_by(STRIP) {
                let w = STRIP.min(b.rows() - r0);
                for l in 0..w {
                    for (sj, &x) in s.iter_mut().zip(b.row(r0 + l)) {
                        sj[l] = x;
                    }
                }
                solve_strip(&t, n, lower, unit, &mut s);
                for l in 0..w {
                    for (sj, x) in s.iter().zip(b.row_mut(r0 + l)) {
                        *x = sj[l];
                    }
                }
            }
        }
    }
}

/// Solve `T·Y = S` in place on the strip `s[..n]` (row `i` of `S`, then of
/// `Y`, is `s[i]`) by forward (`lower`) or backward substitution. `t` holds
/// the `n × n` triangle `T` row-major. Lanes past a strip's width carry
/// whatever the caller left there; lanes never mix.
fn solve_strip(t: &[f64], n: usize, lower: bool, unit: bool, s: &mut [[f64; STRIP]; TRSM_BASE]) {
    for step in 0..n {
        let (i, solved) = if lower {
            (step, 0..step)
        } else {
            (n - 1 - step, n - step..n)
        };
        let row = &t[i * n..(i + 1) * n];
        let mut acc = s[i];
        for k in solved {
            let (tik, yk) = (row[k], s[k]);
            for (x, y) in acc.iter_mut().zip(yk) {
                *x -= tik * y;
            }
        }
        if !unit {
            for x in &mut acc {
                *x /= row[i];
            }
        }
        s[i] = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;
    use crate::gen::random_matrix;
    use crate::matrix::Matrix;
    use crate::norms::max_abs_diff;

    /// Build a well-conditioned triangular matrix.
    fn tri(n: usize, uplo: Uplo, unit: bool, seed: u64) -> Matrix {
        let r = random_matrix(n, n, seed);
        Matrix::from_fn(n, n, |i, j| {
            let keep = match uplo {
                Uplo::Lower => j <= i,
                Uplo::Upper => j >= i,
            };
            if !keep {
                0.0
            } else if i == j {
                if unit {
                    1.0
                } else {
                    2.0 + r[(i, j)].abs()
                }
            } else {
                0.3 * r[(i, j)]
            }
        })
    }

    fn opm(ta: Trans, a: &Matrix) -> Matrix {
        match ta {
            Trans::N => a.clone(),
            Trans::T => a.transposed(),
        }
    }

    fn check_all_variants(n: usize, nrhs: usize, tol: f64) {
        for &side in &[Side::Left, Side::Right] {
            for &uplo in &[Uplo::Lower, Uplo::Upper] {
                for &ta in &[Trans::N, Trans::T] {
                    for &diag in &[Diag::NonUnit, Diag::Unit] {
                        let a = tri(n, uplo, diag == Diag::Unit, 5);
                        let (br, bc) = match side {
                            Side::Left => (n, nrhs),
                            Side::Right => (nrhs, n),
                        };
                        let b0 = random_matrix(br, bc, 6);
                        let mut x = b0.clone();
                        trsm(side, uplo, ta, diag, 2.0, a.as_ref(), x.as_mut());
                        // Verify op(A)·X = 2·B (or X·op(A) = 2·B).
                        let opa = opm(ta, &a);
                        let mut lhs = Matrix::zeros(br, bc);
                        match side {
                            Side::Left => gemm(
                                Trans::N,
                                Trans::N,
                                1.0,
                                opa.as_ref(),
                                x.as_ref(),
                                0.0,
                                lhs.as_mut(),
                            ),
                            Side::Right => gemm(
                                Trans::N,
                                Trans::N,
                                1.0,
                                x.as_ref(),
                                opa.as_ref(),
                                0.0,
                                lhs.as_mut(),
                            ),
                        }
                        let rhs = Matrix::from_fn(br, bc, |i, j| 2.0 * b0[(i, j)]);
                        assert!(
                            max_abs_diff(&lhs, &rhs) < tol,
                            "variant {side:?} {uplo:?} {ta:?} {diag:?} n={n} failed"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn trsm_all_sixteen_variants_solve_their_systems() {
        check_all_variants(13, 7, 1e-9);
    }

    #[test]
    fn trsm_all_variants_through_blocked_path() {
        // n > TRSM_BASE exercises the recursive quadrant splits and the
        // packed GEMM coupling updates in every variant.
        check_all_variants(TRSM_BASE * 2 + 5, 9, 1e-8);
    }

    /// Variant `i` of the sixteen: one bit each for side, triangle,
    /// transpose and diagonal.
    fn variant(i: usize) -> (Side, Uplo, Trans, Diag) {
        (
            [Side::Left, Side::Right][i & 1],
            [Uplo::Lower, Uplo::Upper][(i >> 1) & 1],
            [Trans::N, Trans::T][(i >> 2) & 1],
            [Diag::NonUnit, Diag::Unit][(i >> 3) & 1],
        )
    }

    /// Right-hand sides are independent: solving them one at a time must
    /// give the bits of solving them together, whatever the strip they fall
    /// in. `B` is the window at `(r0, c0)` of a larger matrix, so every view
    /// is strided, and nothing outside the window may change.
    fn together_equals_one_at_a_time(
        (side, uplo, ta, diag): (Side, Uplo, Trans, Diag),
        (n, nrhs): (usize, usize),
        (r0, c0): (usize, usize),
        seed: u64,
    ) {
        let a = tri(n, uplo, diag == Diag::Unit, seed);
        let (br, bc) = match side {
            Side::Left => (n, nrhs),
            Side::Right => (nrhs, n),
        };
        let big = random_matrix(r0 + br + 1, c0 + bc + 2, seed + 1);
        let mut together = big.clone();
        let window = together.block_mut(r0, c0, br, bc);
        trsm(side, uplo, ta, diag, 1.0, a.as_ref(), window);
        let mut singly = big.clone();
        for q in 0..nrhs {
            let one = match side {
                Side::Left => singly.block_mut(r0, c0 + q, n, 1),
                Side::Right => singly.block_mut(r0 + q, c0, 1, n),
            };
            trsm(side, uplo, ta, diag, 1.0, a.as_ref(), one);
        }
        assert!(
            together.data() == singly.data(),
            "{side:?} {uplo:?} {ta:?} {diag:?} n={n} nrhs={nrhs} at ({r0},{c0})"
        );
        let inside = |i, j| (r0..r0 + br).contains(&i) && (c0..c0 + bc).contains(&j);
        for i in 0..big.rows() {
            for j in 0..big.cols() {
                assert!(inside(i, j) || together[(i, j)] == big[(i, j)]);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Triangles straddling `TRSM_BASE`, strips straddling `STRIP`, any
        /// variant, any window offset.
        #[test]
        fn rhs_are_solved_independently(
            i in 0usize..16,
            dn in 0usize..4,
            nrhs in 1usize..2 * STRIP + 2,
            r0 in 0usize..3,
            c0 in 0usize..5,
            seed in 0u64..1000,
        ) {
            let n = [TRSM_BASE - 1, TRSM_BASE, TRSM_BASE + 1, 2 * TRSM_BASE + 5][dn];
            together_equals_one_at_a_time(variant(i), (n, nrhs), (r0, c0), seed);
        }
    }

    #[test]
    fn trsm_multiplies_exact_zeros_of_the_triangle() {
        // Row 1 of L has a zero below-diagonal entry and x0 is infinite:
        // x1 = (b1 − 0·∞)/l11 is NaN by IEEE rules — stored zeros are not
        // skipped, in the base case as in the packed coupling products.
        let l = Matrix::from_fn(2, 2, |i, j| if i == j { 2.0 } else { 0.0 });
        let mut b = Matrix::from_fn(2, 1, |i, _| if i == 0 { f64::INFINITY } else { 1.0 });
        trsm(
            Side::Left,
            Uplo::Lower,
            Trans::N,
            Diag::NonUnit,
            1.0,
            l.as_ref(),
            b.as_mut(),
        );
        assert_eq!(b[(0, 0)], f64::INFINITY);
        assert!(b[(1, 0)].is_nan());
    }

    #[test]
    fn trsm_unit_diag_never_reads_diagonal() {
        // Poison the diagonal; Unit solves must not read it. Use a blocked
        // size so the recursion's GEMM updates are covered too.
        let n = TRSM_BASE + 9;
        let mut a = tri(n, Uplo::Lower, true, 9);
        for i in 0..n {
            a[(i, i)] = f64::NAN;
        }
        let mut b = random_matrix(n, 3, 10);
        trsm(
            Side::Left,
            Uplo::Lower,
            Trans::N,
            Diag::Unit,
            1.0,
            a.as_ref(),
            b.as_mut(),
        );
        assert!(b.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn trsm_on_strided_blocks() {
        let a = tri(5, Uplo::Upper, false, 11);
        let mut big = Matrix::zeros(10, 10);
        let b0 = random_matrix(5, 4, 12);
        big.block_mut(3, 2, 5, 4).copy_from(b0.as_ref());
        trsm(
            Side::Left,
            Uplo::Upper,
            Trans::N,
            Diag::NonUnit,
            1.0,
            a.as_ref(),
            big.block_mut(3, 2, 5, 4),
        );
        let x = big.block(3, 2, 5, 4).to_owned();
        let mut lhs = Matrix::zeros(5, 4);
        gemm(
            Trans::N,
            Trans::N,
            1.0,
            a.as_ref(),
            x.as_ref(),
            0.0,
            lhs.as_mut(),
        );
        assert!(max_abs_diff(&lhs, &b0) < 1e-9);
        // Outside the window untouched.
        assert_eq!(big[(0, 0)], 0.0);
        assert_eq!(big[(9, 9)], 0.0);
    }

    #[test]
    fn trsm_zero_rhs() {
        let a = tri(4, Uplo::Lower, false, 13);
        let mut b = Matrix::zeros(4, 0);
        trsm(
            Side::Left,
            Uplo::Lower,
            Trans::N,
            Diag::NonUnit,
            1.0,
            a.as_ref(),
            b.as_mut(),
        );
    }
}
