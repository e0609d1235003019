//! General matrix multiplication (`gemm`) and its triangular-output variant
//! (`gemmt`).
//!
//! The paper's trailing-matrix updates are rank-`v` GEMM calls (LU) and
//! GEMMT calls (Cholesky, which only updates one triangle). Both route
//! through the packed, register-blocked engine in [`crate::pack`]: operands
//! are copied into microkernel-ordered buffers (absorbing either transpose
//! case), and every flop runs in an `MR×NR` register tile.
//!
//! One size rule decides every product's fan-out: from `m·n·k` = 2²⁰ on,
//! [`gemm`] and [`gemm_rows`] pack `op(B)` once on the calling thread and
//! send MC-row blocks of `C` to the Rayon pool — bitwise identically to
//! running inline, because row-slicing `C` does not change any element's
//! accumulation order — and [`gemm_prepacked`] lets a caller that reuses one
//! `B` across many products skip the packing. [`gemmt`] fans out from the
//! same size on, one MC-row diagonal block per task: its blocks need
//! different column ranges of `op(B)`, so each packs its own, into scratch
//! the call frees. Blocks are cut at the constant [`crate::pack::MC`]; all a
//! pool worker takes from its caller is the microkernel
//! ([`crate::tuning::with_override`]), carried by the packed operand or the
//! `gemmt` call.
//!
//! [`naive_gemm`] retains the textbook triple loop as the reference the
//! packed path is validated and benchmarked against
//! (`floors kernels`).

use crate::matrix::{MatMut, MatRef};
use crate::pack::{self, PackedB, MC};
use crate::ukernel::Variant;
use rayon::prelude::*;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::ops::Range;

/// Transposition selector, as in BLAS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    N,
    /// Use the transpose of the operand.
    T,
}

impl Trans {
    #[inline]
    pub(crate) fn dims(self, m: MatRef<'_>) -> (usize, usize) {
        match self {
            Trans::N => (m.rows(), m.cols()),
            Trans::T => (m.cols(), m.rows()),
        }
    }

    #[inline]
    pub(crate) fn at(self, m: MatRef<'_>, i: usize, j: usize) -> f64 {
        match self {
            Trans::N => m.get(i, j),
            Trans::T => m.get(j, i),
        }
    }

    /// The stored block of `op(M)` covering op-rows `r0..r0+nr` and
    /// op-columns `c0..c0+nc`, as a view plus the trans flag to use with it.
    #[inline]
    pub(crate) fn op_block(
        self,
        m: MatRef<'_>,
        r0: usize,
        c0: usize,
        nr: usize,
        nc: usize,
    ) -> MatRef<'_> {
        match self {
            Trans::N => m.block(r0, c0, nr, nc),
            Trans::T => m.block(c0, r0, nc, nr),
        }
    }
}

/// `C ← α·op(A)·op(B) + β·C`.
///
/// Shapes must conform: `op(A)` is `m×k`, `op(B)` is `k×n`, `C` is `m×n`.
/// When `β = 0`, `C` is overwritten without being read (BLAS semantics:
/// NaN/Inf garbage in an uninitialized `C` is ignored).
///
/// # Panics
/// On shape mismatch.
pub fn gemm(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    mut c: MatMut<'_>,
) {
    let (m, ka) = ta.dims(a);
    let (kb, n) = tb.dims(b);
    assert_eq!(ka, kb, "gemm: inner dimensions must match");
    assert_eq!(c.rows(), m, "gemm: C row count mismatch");
    assert_eq!(c.cols(), n, "gemm: C column count mismatch");
    let k = ka;

    scale(&mut c, beta);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    product(ta, tb, alpha, a, b, None, c);
}

/// The retained triple-loop reference kernel: `C ← α·op(A)·op(B) + β·C`
/// computed one dot product at a time, with per-element transpose dispatch.
///
/// This is deliberately the slow, obviously-correct formulation. It is what
/// the packed path is property-tested against, and what `bench --bin
/// kernels` measures the packed speedup relative to. It does not credit the
/// flop tally (it is a test/benchmark oracle, not a production kernel).
pub fn naive_gemm(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    mut c: MatMut<'_>,
) {
    let (m, ka) = ta.dims(a);
    let (kb, n) = tb.dims(b);
    assert_eq!(ka, kb, "naive_gemm: inner dimensions must match");
    assert_eq!(c.rows(), m, "naive_gemm: C row count mismatch");
    assert_eq!(c.cols(), n, "naive_gemm: C column count mismatch");
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..ka {
                acc += ta.at(a, i, kk) * tb.at(b, kk, j);
            }
            let old = if beta == 0.0 { 0.0 } else { beta * c.get(i, j) };
            c.set(i, j, alpha * acc + old);
        }
    }
}

/// `C ← β·C` with BLAS `β = 0` semantics: zero is *stored*, not multiplied,
/// so NaN/Inf garbage in an uninitialized `C` never propagates.
fn scale(c: &mut MatMut<'_>, beta: f64) {
    if beta == 1.0 {
        return;
    }
    if beta == 0.0 {
        for i in 0..c.rows() {
            c.row_mut(i).fill(0.0);
        }
        return;
    }
    for i in 0..c.rows() {
        for x in c.row_mut(i) {
            *x *= beta;
        }
    }
}

/// Triangle selector for [`gemmt`] output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CUplo {
    /// Only the lower triangle of `C` (including diagonal) is referenced.
    Lower,
    /// Only the upper triangle of `C` (including diagonal) is referenced.
    Upper,
}

/// `gemmt`: like [`gemm`] but only the `uplo` triangle of the square matrix
/// `C` is computed and written; the other triangle is left untouched.
///
/// This is the kernel Cholesky's trailing update uses: it halves the flops of
/// the symmetric update `C ← C − L·Lᵀ` while needing the same inputs —
/// exactly the observation behind Table 1 of the paper (same communication,
/// half the computation).
///
/// Implementation: the output is cut into MC-row diagonal blocks, each
/// independent of the others. Everything of a block strictly inside the
/// triangle is a rectangular product that goes straight through the packed
/// engine; only the tile straddling the diagonal is computed into a scratch
/// tile and clipped to the triangle on write-back. From the size at which
/// [`gemm`] fans out (`n²·k` ≥ 2²⁰), the blocks go to the Rayon pool,
/// largest first, running the microkernel resolved on the calling thread and
/// with scratch that is freed when the call returns; smaller products run
/// them on the calling thread. Either way every element accumulates in the
/// same order, so the result is bitwise the same, and the flops are credited
/// to the calling thread.
///
/// # Panics
/// If `C` is not square or shapes do not conform.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS gemmt signature
pub fn gemmt(
    uplo: CUplo,
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    c: MatMut<'_>,
) {
    let (m, ka) = ta.dims(a);
    let (kb, n) = tb.dims(b);
    assert_eq!(m, n, "gemmt: C must be square");
    assert_eq!(ka, kb, "gemmt: inner dimensions must match");
    assert_eq!(c.rows(), m);
    assert_eq!(c.cols(), n);
    crate::flops::tally(crate::flops::gemmt_flops(n, ka));
    if n == 0 {
        return;
    }

    // One kernel for every block, resolved here (see `product`). Diagonal
    // block size: one MC row-block, so the rectangular parts hand the packed
    // engine full-height slabs.
    let t = Gemmt {
        uplo,
        ta,
        tb,
        alpha,
        a,
        b,
        beta,
        variant: crate::tuning::active().variant,
    };
    let (mut blocks, _) = row_blocks(c, n, None);
    if !fans_out(n, n, ka) {
        GEMMT_SCRATCH.with(|s| {
            let s = &mut s.borrow_mut();
            blocks
                .into_iter()
                .for_each(|(d, blk)| t.block(d.start, blk, s));
        });
        return;
    }
    // Largest first (rows times triangle columns), so the last block a
    // thread picks up is a short one.
    blocks.sort_by_key(|(d, _)| {
        let width = match uplo {
            CUplo::Lower => d.end,
            CUplo::Upper => n - d.start,
        };
        Reverse(d.len() * width)
    });
    blocks
        .into_par_iter()
        .for_each(|(d, blk)| t.block(d.start, blk, &mut DiagScratch::default()));
}

/// One [`gemmt`] call's operands, shared by its diagonal blocks.
struct Gemmt<'a> {
    uplo: CUplo,
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'a>,
    b: MatRef<'a>,
    beta: f64,
    variant: &'static Variant,
}

/// A diagonal block's scratch: the packed-B block buffer and the diagonal
/// tile's product.
#[derive(Default)]
struct DiagScratch {
    slab: PackedB,
    tile: Vec<f64>,
}

impl Gemmt<'_> {
    /// Block row `d0..d0 + c.rows()` of `C` (`c` holds all its columns).
    fn block(&self, d0: usize, mut c: MatMut<'_>, s: &mut DiagScratch) {
        let (db, n, beta) = (c.rows(), c.cols(), self.beta);
        // Block row `d0` of `op(A)` times `w` columns of `op(B)` from `j0`,
        // added into `c`.
        let product = |slab: &mut PackedB, j0: usize, w: usize, c: MatMut<'_>| {
            let (ta, tb, k) = (self.ta, self.tb, self.ta.dims(self.a).1);
            let (a, b) = (
                ta.op_block(self.a, d0, 0, db, k),
                tb.op_block(self.b, 0, j0, k, w),
            );
            pack::gemm_packed_in(slab, self.variant, ta, tb, self.alpha, a, b, None, c);
        };
        // Rectangular part of this block-row strictly inside the triangle.
        let (rect_j0, rect_w) = match self.uplo {
            CUplo::Lower => (0, d0),
            CUplo::Upper => (d0 + db, n - d0 - db),
        };
        if rect_w > 0 {
            let mut crect = c.rb_mut().block(0, rect_j0, db, rect_w);
            scale(&mut crect, beta);
            product(&mut s.slab, rect_j0, rect_w, crect);
        }
        // Diagonal block: compute the full db×db product into the scratch
        // tile, then write back only the triangle half.
        s.tile.clear();
        s.tile.resize(db * db, 0.0);
        let tile = MatMut::from_slice(&mut s.tile, db, db, db);
        product(&mut s.slab, d0, db, tile);
        for (i, prod) in s.tile.chunks_exact(db).enumerate() {
            let tri = match self.uplo {
                CUplo::Lower => 0..i + 1,
                CUplo::Upper => i..db,
            };
            let crow = &mut c.row_mut(i)[d0..d0 + db];
            for (dst, &p) in crow[tri.clone()].iter_mut().zip(&prod[tri]) {
                *dst = p + if beta == 0.0 { 0.0 } else { beta * *dst };
            }
        }
    }
}

thread_local! {
    /// [`gemmt`]'s scratch when it runs its blocks on the calling thread,
    /// reused across calls.
    static GEMMT_SCRATCH: RefCell<DiagScratch> = RefCell::default();
}

/// The one fan-out rule of the parallel kernels: a product of at least
/// `m·n·k` = 2²⁰ (~1 Mflop) goes to the Rayon pool; below it the fork/join
/// costs more than the second core saves.
fn fans_out(m: usize, n: usize, k: usize) -> bool {
    m * n * k >= 1 << 20
}

/// [`gemm`] without transposes, under the name the frozen benchmark calls.
/// [`gemm`] decides its own fan-out.
pub fn par_gemm(alpha: f64, a: MatRef<'_>, b: MatRef<'_>, beta: f64, c: MatMut<'_>) {
    gemm(Trans::N, Trans::N, alpha, a, b, beta, c);
}

/// Row-mapped in-place update `C[rows[i], :] += α·(A·B)[i, :]`: the product
/// of `A` (`m×k`) and `B` (`k×n`) is accumulated into the `m` rows of `C`
/// that the strictly ascending `rows` names; every other row of `C` is left
/// untouched. This is the shape of a Schur update under row masking: the
/// active rows of a local matrix are an index list, not a contiguous block.
///
/// Each touched element receives exactly the value [`gemm`] with `β = 1`
/// would add to it (same microkernel, same k-order); for `k` within one KC
/// block that is one addition of the finished dot product, i.e. bitwise
/// what "product into zeroed scratch, then add the scratch row" gives.
/// It fans out from the same size as [`gemm`].
///
/// # Panics
/// On shape mismatch, or if `rows` is not strictly ascending or names a row
/// outside `C`.
pub fn gemm_rows(alpha: f64, a: MatRef<'_>, b: MatRef<'_>, rows: &[usize], c: MatMut<'_>) {
    assert_eq!(a.cols(), b.rows(), "gemm_rows: inner dimensions must match");
    assert_eq!(rows.len(), a.rows(), "gemm_rows: one C row per row of A");
    assert_eq!(c.cols(), b.cols(), "gemm_rows: C column count mismatch");
    assert!(
        rows.windows(2).all(|w| w[0] < w[1]),
        "gemm_rows: rows must be strictly ascending"
    );
    assert!(
        rows.last().is_none_or(|&r| r < c.rows()),
        "gemm_rows: row index out of range"
    );
    product(Trans::N, Trans::N, alpha, a, b, Some(rows), c);
}

/// The product driver of [`gemm`] and [`gemm_rows`]: `C += α·op(A)·op(B)`,
/// product row `i` into row `rows[i]` of `C` under a row map, with the flops
/// credited to the calling thread (the contract in [`crate::flops`]).
///
/// Below [`fans_out`] it runs inline, packing `op(B)` one cache block at a
/// time. From there `op(B)` is packed once, on the calling thread, and
/// MC-row blocks of the product go to the Rayon pool. The microkernel is
/// resolved on the calling thread and travels with the packed operand: a
/// thread-local override the caller installed (e.g. the forced-scalar
/// benchmark baseline) is not visible on pool threads, and every block must
/// run one kernel. Row-slicing `C` does not change any element's
/// accumulation order, so both paths give the same bits.
fn product(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    rows: Option<&[usize]>,
    c: MatMut<'_>,
) {
    let (m, k) = ta.dims(a);
    let n = tb.dims(b).1;
    crate::flops::tally(crate::flops::gemm_flops(m, n, k));
    if !fans_out(m, n, k) {
        pack::gemm_packed_rows(ta, tb, alpha, a, b, rows, c);
        return;
    }
    // The blocks borrow the rebased map: a helper thread that runs a block
    // frees nothing the calling (rank) thread allocated.
    let (blocks, rel) = row_blocks(c, m, rows);
    let rel = rel.as_deref();
    pack::with_packed_b(tb, b, |pb| {
        blocks.into_par_iter().for_each(|(i, cblk)| {
            let ablk = ta.op_block(a, i.start, 0, i.len(), k);
            let map = rel.map(|map| &map[i]);
            pack::gemm_prepacked(ta, alpha, ablk, pb, 0..n, map, cblk);
        });
    });
}

/// Blocks of a product's rows, each with the slice of `C` it writes.
type RowBlocks<'c> = Vec<(Range<usize>, MatMut<'c>)>;

/// The MC-row blocks of an `m`-row product into `c`, each with the slice
/// of `c` it writes. Without a row map block `q` writes rows `q·MC..`;
/// under one, its slice runs from its first mapped row to the next block's
/// (disjoint, because the map ascends), and the map is returned rebased on
/// each block's own slice.
fn row_blocks<'c>(
    c: MatMut<'c>,
    m: usize,
    rows: Option<&[usize]>,
) -> (RowBlocks<'c>, Option<Vec<usize>>) {
    let at = |i: usize| rows.map_or(i, |map| map[i]);
    let mut rel = rows.map(<[usize]>::to_vec);
    let mut blocks = Vec::with_capacity(m.div_ceil(MC));
    let (_, mut rest) = c.split_rows(at(0));
    let mut base = at(0);
    for i0 in (0..m).step_by(MC) {
        let i1 = (i0 + MC).min(m);
        let end = if i1 < m { at(i1) } else { base + rest.rows() };
        let (cblk, tail) = rest.split_rows(end - base);
        if let Some(rel) = &mut rel {
            rel[i0..i1].iter_mut().for_each(|r| *r -= base);
        }
        blocks.push((i0..i1, cblk));
        (rest, base) = (tail, end);
    }
    (blocks, rel)
}

/// `C += α·A·P[:, cols]` for an operand `P = op(B)` packed beforehand
/// ([`PackedB::pack`]): what `gemm(Trans::N, tb, α, A, B[…], 1, C)` on the
/// corresponding block of `B` computes, bit for bit, without packing `B`
/// again. For a caller that multiplies many `A`s by column ranges of one `B`
/// — COnfCHOX's trailing update multiplies every owned tile row by the same
/// `L10ᵀ`. `cols` may start and end anywhere, not only on tile boundaries.
///
/// # Panics
/// On shape mismatch, or if `cols` reaches outside `P`.
pub fn gemm_prepacked(alpha: f64, a: MatRef<'_>, b: &PackedB, cols: Range<usize>, c: MatMut<'_>) {
    assert_eq!(c.rows(), a.rows(), "gemm_prepacked: C row count mismatch");
    crate::flops::tally(crate::flops::gemm_flops(a.rows(), cols.len(), a.cols()));
    pack::gemm_prepacked(Trans::N, alpha, a, b, cols, None, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_matrix;
    use crate::matrix::Matrix;
    use crate::norms::max_abs_diff;

    /// Straightforward triple-loop reference (owned-matrix wrapper around
    /// [`naive_gemm`]).
    fn naive(
        ta: Trans,
        tb: Trans,
        alpha: f64,
        a: &Matrix,
        b: &Matrix,
        beta: f64,
        c: &Matrix,
    ) -> Matrix {
        let mut out = c.clone();
        let (m, _) = ta.dims(a.as_ref());
        let (_, n) = tb.dims(b.as_ref());
        assert_eq!(out.rows(), m);
        assert_eq!(out.cols(), n);
        naive_gemm(ta, tb, alpha, a.as_ref(), b.as_ref(), beta, out.as_mut());
        out
    }

    #[test]
    fn gemm_matches_naive_all_transposes() {
        for &(ta, tb) in &[
            (Trans::N, Trans::N),
            (Trans::N, Trans::T),
            (Trans::T, Trans::N),
            (Trans::T, Trans::T),
        ] {
            let (m, n, k) = (37, 23, 51);
            let (ar, ac) = if ta == Trans::N { (m, k) } else { (k, m) };
            let (br, bc) = if tb == Trans::N { (k, n) } else { (n, k) };
            let a = random_matrix(ar, ac, 1);
            let b = random_matrix(br, bc, 2);
            let c0 = random_matrix(m, n, 3);
            let expect = naive(ta, tb, 1.5, &a, &b, -0.5, &c0);
            let mut c = c0.clone();
            gemm(ta, tb, 1.5, a.as_ref(), b.as_ref(), -0.5, c.as_mut());
            assert!(
                max_abs_diff(&c, &expect) < 1e-10,
                "mismatch for {ta:?},{tb:?}"
            );
        }
    }

    #[test]
    fn gemm_beta_zero_ignores_garbage_c() {
        let a = random_matrix(8, 8, 10);
        let b = random_matrix(8, 8, 11);
        // NaN garbage: `0.0 * NaN` is NaN, so a multiplying scale would
        // poison the output — β = 0 must *store* zeros, never read C.
        let mut c = Matrix::from_fn(8, 8, |i, j| {
            if (i + j) % 2 == 0 {
                f64::NAN
            } else {
                f64::INFINITY
            }
        });
        gemm(
            Trans::N,
            Trans::N,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        assert!(c.data().iter().all(|x| x.is_finite()));
        let expect = naive(Trans::N, Trans::N, 1.0, &a, &b, 0.0, &Matrix::zeros(8, 8));
        assert!(max_abs_diff(&c, &expect) < 1e-10);
    }

    #[test]
    fn gemmt_beta_zero_ignores_garbage_c_triangle() {
        let a = random_matrix(9, 4, 40);
        let mut c = Matrix::from_fn(9, 9, |_, _| f64::NAN);
        gemmt(
            CUplo::Lower,
            Trans::N,
            Trans::T,
            1.0,
            a.as_ref(),
            a.as_ref(),
            0.0,
            c.as_mut(),
        );
        for i in 0..9 {
            for j in 0..=i {
                assert!(c[(i, j)].is_finite(), "({i},{j}) must ignore NaN old C");
            }
        }
    }

    #[test]
    fn gemm_on_blocks_of_larger_matrix() {
        let big = random_matrix(20, 20, 7);
        let a = big.block(2, 3, 5, 6);
        let b = big.block(8, 1, 6, 4);
        let mut c = Matrix::zeros(5, 4);
        gemm(Trans::N, Trans::N, 1.0, a, b, 0.0, c.as_mut());
        let an = a.to_owned();
        let bn = b.to_owned();
        let expect = naive(Trans::N, Trans::N, 1.0, &an, &bn, 0.0, &Matrix::zeros(5, 4));
        assert!(max_abs_diff(&c, &expect) < 1e-12);
    }

    #[test]
    fn gemm_sizes_straddling_every_block_boundary() {
        use crate::pack::{KC, MR, NR};
        for &m in &[1, MR - 1, MR, MR + 1, MC - 1, MC + 1] {
            for &n in &[1, NR - 1, NR + 1] {
                for &k in &[1, KC - 1, KC + 3] {
                    let a = random_matrix(m, k, (m * n + k) as u64);
                    let b = random_matrix(k, n, (m + n * k) as u64);
                    let c0 = random_matrix(m, n, 3);
                    let expect = naive(Trans::N, Trans::N, 1.0, &a, &b, 1.0, &c0);
                    let mut c = c0.clone();
                    gemm(
                        Trans::N,
                        Trans::N,
                        1.0,
                        a.as_ref(),
                        b.as_ref(),
                        1.0,
                        c.as_mut(),
                    );
                    assert!(
                        max_abs_diff(&c, &expect) < 1e-9,
                        "mismatch at m={m} n={n} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemmt_only_touches_requested_triangle() {
        let a = random_matrix(9, 4, 20);
        let mut c = Matrix::from_fn(9, 9, |_, _| 99.0);
        gemmt(
            CUplo::Lower,
            Trans::N,
            Trans::T,
            1.0,
            a.as_ref(),
            a.as_ref(),
            0.0,
            c.as_mut(),
        );
        for i in 0..9 {
            for j in 0..9 {
                if j > i {
                    assert_eq!(c[(i, j)], 99.0, "upper triangle must be untouched");
                }
            }
        }
        // Lower triangle agrees with full gemm.
        let mut full = Matrix::zeros(9, 9);
        gemm(
            Trans::N,
            Trans::T,
            1.0,
            a.as_ref(),
            a.as_ref(),
            0.0,
            full.as_mut(),
        );
        for i in 0..9 {
            for j in 0..=i {
                assert!((c[(i, j)] - full[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gemmt_upper_variant() {
        let a = random_matrix(7, 3, 21);
        let mut c = Matrix::zeros(7, 7);
        gemmt(
            CUplo::Upper,
            Trans::N,
            Trans::T,
            -1.0,
            a.as_ref(),
            a.as_ref(),
            1.0,
            c.as_mut(),
        );
        for i in 0..7 {
            for j in 0..7 {
                if j < i {
                    assert_eq!(c[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn gemmt_spanning_multiple_diagonal_blocks() {
        // n > MC so the blocked gemmt exercises rectangle + diagonal parts.
        let n = MC + 37;
        let k = 19;
        for &uplo in &[CUplo::Lower, CUplo::Upper] {
            let a = random_matrix(n, k, 50);
            let b = random_matrix(n, k, 51);
            let c0 = random_matrix(n, n, 52);
            let mut c = c0.clone();
            gemmt(
                uplo,
                Trans::N,
                Trans::T,
                -1.5,
                a.as_ref(),
                b.as_ref(),
                0.5,
                c.as_mut(),
            );
            let full = naive(Trans::N, Trans::T, -1.5, &a, &b, 0.5, &c0);
            for i in 0..n {
                for j in 0..n {
                    let in_tri = match uplo {
                        CUplo::Lower => j <= i,
                        CUplo::Upper => j >= i,
                    };
                    if in_tri {
                        assert!(
                            (c[(i, j)] - full[(i, j)]).abs() < 1e-9,
                            "{uplo:?} ({i},{j})"
                        );
                    } else {
                        assert_eq!(c[(i, j)], c0[(i, j)], "{uplo:?} ({i},{j}) untouched");
                    }
                }
            }
        }
    }

    #[test]
    fn par_gemm_matches_sequential() {
        let a = random_matrix(130, 120, 30);
        let b = random_matrix(120, 110, 31);
        let c0 = random_matrix(130, 110, 32);
        let mut c_par = c0.clone();
        par_gemm(2.0, a.as_ref(), b.as_ref(), 0.25, c_par.as_mut());
        let mut c_seq = c0.clone();
        gemm(
            Trans::N,
            Trans::N,
            2.0,
            a.as_ref(),
            b.as_ref(),
            0.25,
            c_seq.as_mut(),
        );
        assert_eq!(c_par.data(), c_seq.data(), "must be bitwise identical");
    }

    #[test]
    fn par_gemm_large_enough_to_fork() {
        // Exceeds the 1 Mflop threshold so the parallel path actually runs.
        let a = random_matrix(160, 160, 40);
        let b = random_matrix(160, 160, 41);
        let mut c = Matrix::zeros(160, 160);
        par_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
        let expect = naive(
            Trans::N,
            Trans::N,
            1.0,
            &a,
            &b,
            0.0,
            &Matrix::zeros(160, 160),
        );
        assert!(max_abs_diff(&c, &expect) < 1e-8);
    }

    #[test]
    fn zero_dim_gemm_is_noop() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        let mut c = Matrix::zeros(0, 3);
        gemm(
            Trans::N,
            Trans::N,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        let a = Matrix::zeros(4, 0);
        let b = Matrix::zeros(0, 3);
        let mut c = Matrix::from_fn(4, 3, |_, _| 2.0);
        gemm(
            Trans::N,
            Trans::N,
            1.0,
            a.as_ref(),
            b.as_ref(),
            1.0,
            c.as_mut(),
        );
        assert_eq!(c[(0, 0)], 2.0, "k=0 with beta=1 leaves C unchanged");
    }

    #[test]
    fn row_blocks_cover_all_rows() {
        let mut m = Matrix::from_fn(2 * MC + 3, 3, |i, _| i as f64);
        let (blocks, rel) = row_blocks(m.as_mut(), 2 * MC + 3, None);
        assert!(rel.is_none());
        let cuts: Vec<_> = blocks
            .iter()
            .map(|(r, c)| (r.clone(), c.get(0, 0) as usize))
            .collect();
        assert_eq!(
            cuts,
            [(0..MC, 0), (MC..2 * MC, MC), (2 * MC..2 * MC + 3, 2 * MC)]
        );
        // Under a map, a block's slice runs to the next block's first row.
        let rows: Vec<usize> = (0..=MC).map(|i| 2 * i + 1).collect();
        let (blocks, rel) = row_blocks(m.as_mut(), MC + 1, Some(&rows));
        let cuts: Vec<_> = blocks
            .iter()
            .map(|(r, c)| (r.clone(), c.rows(), c.get(0, 0) as usize))
            .collect();
        assert_eq!(cuts, [(0..MC, 2 * MC, 1), (MC..MC + 1, 2, 2 * MC + 1)]);
        let want: Vec<usize> = (0..MC).map(|i| 2 * i).chain([0]).collect();
        assert_eq!(rel.unwrap(), want);
    }

    /// Recorded when `gemm` always ran inline; 300·200·64 fans out now.
    #[test]
    fn fanned_out_bits_are_pinned() {
        use crate::gen::tests::digest;
        let (m, n, k) = (300, 200, 64);
        assert!(fans_out(m, n, k));
        // `op(X)` is `rows × cols`.
        let op = |t, rows, cols, seed| match t {
            Trans::N => random_matrix(rows, cols, seed),
            Trans::T => random_matrix(cols, rows, seed),
        };
        for (ta, tb, want) in [
            (Trans::N, Trans::N, 0x3279_5df4_3953_fc1f),
            (Trans::T, Trans::N, 0x832d_ddb0_29d9_5625),
            (Trans::N, Trans::T, 0x753a_84d9_6c56_f078),
            (Trans::T, Trans::T, 0x9508_e539_cfa3_7a28),
        ] {
            let (a, b) = (op(ta, m, k, 11), op(tb, k, n, 12));
            let mut c = random_matrix(m, n, 13);
            gemm(ta, tb, -1.5, a.as_ref(), b.as_ref(), 0.5, c.as_mut());
            assert_eq!(digest(&c), want, "{ta:?}{tb:?}");
        }
    }
}
