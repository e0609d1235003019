//! Operand packing and the blocked macro-kernel behind [`crate::gemm()`].
//!
//! This module implements the Goto/BLIS decomposition of matrix multiply
//! ("Anatomy of High-Performance Matrix Multiplication"): the operands are
//! copied into contiguous, microkernel-ordered buffers — `op(B)` once per
//! use, a block of `op(A)` once per cache block — and all flops run in an
//! `MR×NR` register tile supplied by the [`crate::ukernel`] variant family,
//! which adds `α·acc` into `C` itself.
//!
//! ```text
//!   packed op(B), KC×NC slab          packed op(A), MC×KC block
//!   NR-column panels  q = 0,1,…       MR-row panels  p = 0,1,…
//!
//!   large slab (KC·NC > ROW_ORDER_MAX_SLAB):  for q { for p { tile(p, q) } }
//!     one KC×NR panel of B stays in L1 across every row panel, the A block
//!     streams from L2, and C is touched down a column of tiles — amortised
//!     over KC flops per element, which a deep product can afford.
//!
//!   small slab (the factorizations' rank-32 updates): for p { for q { tile(p, q) } }
//!     one MR×KC panel of A stays in L1, the slab streams from L2, and the MR
//!     rows of C under the panel are read and written left to right — with
//!     only ~KC flops per element of C, walking C along its rows instead of
//!     down row-stride-apart columns is what the update's rate is made of.
//! ```
//!
//! The loop order is a function of the block's shape alone (`row_order`);
//! both orders compute every element of `C` from the same packed panels in
//! the same `k` order, so they agree to the bit.
//!
//! The constants below are the whole blocking. Which microkernel runs is
//! decided per call by [`crate::tuning::active`] — the one this CPU
//! dispatches, unless a test or the harness overrides it — and travels with
//! the packed operand to whichever thread multiplies it.
//!
//! Packing zero-pads ragged edges up to the next `MR`/`NR` multiple, so the
//! microkernel never branches on tile shape; a tile overhanging `C` is
//! clipped (`ukernel::Kernel::tile`). Both transpose cases of
//! either operand are absorbed by the packing routines — after packing there
//! is no per-element transpose dispatch anywhere on the flop path.
//!
//! An operand is packed once per use. [`PackedB`] is `op(B)` in packed form:
//! a fanned-out [`crate::gemm()`] or [`crate::gemm_rows`] fills this
//! thread's on the calling thread and lends it to every worker, and a caller
//! that multiplies many `A`s by column ranges of one `B` (COnfCHOX's step
//! operand `L10ᵀ`) holds its own and passes it to [`crate::gemm_prepacked`].
//! Pack buffers are thread-local or caller-owned and reused across calls, so
//! steady-state GEMMs allocate nothing — except a fanned-out
//! [`crate::gemmt`], whose blocks pack into scratch of their own that the
//! call frees, so no pool thread keeps a buffer grown on a caller's behalf.

use crate::gemm::Trans;
use crate::matrix::{MatMut, MatRef};
use crate::tuning;
use crate::ukernel::{Kernel, Variant, MR_MAX};
use std::cell::RefCell;
use std::ops::Range;

/// Microkernel tile rows the blocking is sized for: the `6`-row SIMD tiles
/// (the scalar `4×8` kernel runs at the same blocking).
pub const MR: usize = 6;
/// Microkernel tile columns of the widest tile, AVX-512's `6×16` (the AVX2
/// `6×8` and scalar `4×8` tiles divide it).
pub const NR: usize = 16;
/// K-dimension cache block: one `KC×NR` panel of packed B (32 KiB at the
/// AVX-512 tile, 16 KiB at the AVX2 one) stays in L1 while a microkernel
/// runs; `MC×KC` of packed A (384 KiB) targets L2.
/// The one blocking constant a result bit depends on: the microkernel adds
/// `α·acc` into `C` once per KC block, so a different KC regroups the
/// k-summation of every product with `k > KC`. Every trailing update in the
/// factorizations has `k ≤ 256` (the panel width cap), so any `kc ≥ 256`
/// sees those products as a single block and the grouping — hence every
/// factor bit — is unchanged; a smaller one moves them.
pub const KC: usize = 256;
/// M-dimension cache block (rows of packed A per inner loop).
pub const MC: usize = 192;
/// N-dimension cache block (columns of packed B per outer loop).
pub const NC: usize = 1024;

const _: () = assert!(MC.is_multiple_of(MR), "MC must be a multiple of MR");
const _: () = assert!(NC.is_multiple_of(NR), "NC must be a multiple of NR");

/// Largest packed-B slab, in values (`kc·nc`), the macro-kernel walks
/// row-panel-outer: `kc` ≤ 64 against a full `NC` slab. Measured on the
/// reference VM through the row-mapped product on a 1024² `C`, both orders
/// alternated in one process (EXPERIMENTS.md, "The loop-order crossover"):
/// the row order is +45…+55 % at `kc` = 32 and more at 16, between −10 and
/// +30 % at 64, level at 128 and −20…−30 % at 256, where re-streaming a
/// 2 MiB slab per row panel costs more than the column walk of `C` does.
const ROW_ORDER_MAX_SLAB: usize = 64 * 1024;

/// Does a `kc×nc` block of packed B get the row-panel-outer loop order?
#[inline]
fn row_order(kc: usize, nc: usize) -> bool {
    kc * nc <= ROW_ORDER_MAX_SLAB
}

thread_local! {
    /// Reused packed-A scratch, grown on demand and kept for the life of the
    /// thread.
    static PACK_A: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// This thread's reused packed `op(B)`: one cache block at a time under
    /// [`gemm_packed_rows`], all of `B` under [`with_packed_b`].
    static PACK_B: RefCell<PackedB> = RefCell::new(PackedB::new());
}

#[inline]
fn round_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

/// Pack the `mc×kc` block of `op(A)` whose top-left op-coordinate is
/// `(i0, k0)` into `mr`-row panels: `buf[p·mr·kc + k·mr + r]` holds
/// `op(A)(i0 + p·mr + r, k0 + k)`, zero-padded for `r` past `mc`.
#[allow(clippy::too_many_arguments)] // BLAS-style block coordinates + runtime tile width
fn pack_a(
    ta: Trans,
    a: MatRef<'_>,
    i0: usize,
    mc: usize,
    k0: usize,
    kc: usize,
    mr: usize,
    buf: &mut [f64],
) {
    let panels = mc.div_ceil(mr);
    for p in 0..panels {
        let pbase = p * mr * kc;
        let rows = mr.min(mc - p * mr);
        match ta {
            // op(A) = A: read `mr` contiguous source rows, write strided.
            Trans::N => {
                for r in 0..rows {
                    let src = &a.row(i0 + p * mr + r)[k0..k0 + kc];
                    for (k, &v) in src.iter().enumerate() {
                        buf[pbase + k * mr + r] = v;
                    }
                }
            }
            // op(A) = Aᵀ: op-rows are stored columns; read each stored row
            // (one k) contiguously, write one mr group at a time.
            Trans::T => {
                for k in 0..kc {
                    let src = &a.row(k0 + k)[i0 + p * mr..i0 + p * mr + rows];
                    let dst = &mut buf[pbase + k * mr..pbase + k * mr + rows];
                    dst.copy_from_slice(src);
                }
            }
        }
        if rows < mr {
            for k in 0..kc {
                for r in rows..mr {
                    buf[pbase + k * mr + r] = 0.0;
                }
            }
        }
    }
}

/// Pack the `kc×nc` block of `op(B)` whose top-left op-coordinate is
/// `(k0, j0)` into `nr`-column panels: `buf[q·nr·kc + k·nr + c]` holds
/// `op(B)(k0 + k, j0 + q·nr + c)`, zero-padded for `c` past `nc`.
#[allow(clippy::too_many_arguments)] // BLAS-style block coordinates + runtime tile width
fn pack_b(
    tb: Trans,
    b: MatRef<'_>,
    k0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    nr: usize,
    buf: &mut [f64],
) {
    let panels = nc.div_ceil(nr);
    for q in 0..panels {
        let qbase = q * nr * kc;
        let cols = nr.min(nc - q * nr);
        match tb {
            // op(B) = B: each packed k-group is a contiguous slice of a
            // stored row.
            Trans::N => {
                for k in 0..kc {
                    let src = &b.row(k0 + k)[j0 + q * nr..j0 + q * nr + cols];
                    let dst = &mut buf[qbase + k * nr..qbase + k * nr + cols];
                    dst.copy_from_slice(src);
                }
            }
            // op(B) = Bᵀ: op-columns are stored rows; read each contiguously,
            // write strided.
            Trans::T => {
                for c in 0..cols {
                    let src = &b.row(j0 + q * nr + c)[k0..k0 + kc];
                    for (k, &v) in src.iter().enumerate() {
                        buf[qbase + k * nr + c] = v;
                    }
                }
            }
        }
        if cols < nr {
            for k in 0..kc {
                for c in cols..nr {
                    buf[qbase + k * nr + c] = 0.0;
                }
            }
        }
    }
}

/// `op(B)` (`k×n`) in the packed engine's layout, packed once and multiplied
/// many times ([`crate::gemm_prepacked`]): the operand of every product that
/// would otherwise re-pack the same `B` — per MC-row block of a fanned-out
/// [`crate::gemm()`] or [`crate::gemm_rows`], per owned tile row in
/// COnfCHOX's trailing update. Its storage is reused by the next
/// [`PackedB::pack`]; it carries the microkernel it was packed for, and
/// products against it run that kernel.
///
/// Layout: KC-row blocks in ascending `k`; within a block, `NR`-column
/// panels over all of `n` (the last zero-padded), each `kc×NR` row-major.
#[derive(Debug)]
pub struct PackedB {
    data: Vec<f64>,
    k: usize,
    n: usize,
    variant: &'static Variant,
}

impl Default for PackedB {
    fn default() -> Self {
        PackedB::new()
    }
}

impl PackedB {
    /// An empty (`0×0`) operand owning no storage yet.
    pub fn new() -> Self {
        PackedB {
            data: Vec::new(),
            k: 0,
            n: 0,
            variant: tuning::active().variant,
        }
    }

    /// Replace the contents by `op(B)`, packed for the microkernel active
    /// on this thread. Grows the storage if needed, never shrinks it.
    pub fn pack(&mut self, tb: Trans, b: MatRef<'_>) {
        let (k, n) = tb.dims(b);
        self.fill(tuning::active().variant, tb, b, 0..k, 0..n);
    }

    /// Replace the contents by the block `op(B)[ks, js]`, packed for `variant`.
    fn fill(
        &mut self,
        variant: &'static Variant,
        tb: Trans,
        b: MatRef<'_>,
        ks: Range<usize>,
        js: Range<usize>,
    ) {
        (self.k, self.n, self.variant) = (ks.len(), js.len(), variant);
        let width = self.width();
        if self.data.len() < self.k * width {
            self.data.resize(self.k * width, 0.0);
        }
        for k0 in (0..self.k).step_by(KC) {
            let kcb = KC.min(self.k - k0);
            let slab = &mut self.data[k0 * width..(k0 + kcb) * width];
            pack_b(
                tb,
                b,
                ks.start + k0,
                kcb,
                js.start,
                self.n,
                variant.nr,
                slab,
            );
        }
    }

    /// `n` rounded up to whole panels: the values per packed `k`.
    fn width(&self) -> usize {
        round_up(self.n, self.variant.nr)
    }
}

/// Pack all of `op(B)` into this thread's reused [`PackedB`] and lend it to
/// `f` — which may share it with other threads, but must not itself start a
/// product that packs a `B` on this thread.
pub(crate) fn with_packed_b<R>(tb: Trans, b: MatRef<'_>, f: impl FnOnce(&PackedB) -> R) -> R {
    PACK_B.with(|pb| {
        pb.borrow_mut().pack(tb, b);
        f(&pb.borrow())
    })
}

/// Multiply the packed `mc×kc` A block by `nc = c.cols()` columns of a packed
/// B slab — column `j` of `c` is column `off + j` of the panels `pb` starts
/// with — and accumulate `α·(A·B)` into `c`, one [`Kernel::tile`] per
/// register tile. Product row `i` lands in row `i` of `c`, or in row
/// `rows[i]` when a row map is given. `row_outer` is the loop order — the
/// caller's [`row_order`] of this block — and changes no bit of the result.
#[allow(clippy::too_many_arguments)] // BLAS-style block coordinates + runtime tile width
fn macro_kernel(
    kernel: Kernel,
    row_outer: bool,
    mc: usize,
    kc: usize,
    alpha: f64,
    pa: &[f64],
    pb: &[f64],
    off: usize,
    rows: Option<&[usize]>,
    mut c: MatMut<'_>,
) {
    let (mr, nr) = (kernel.mr, kernel.nr);
    let (nc, stride) = (c.cols(), c.stride());
    let (mpanels, npanels) = (mc.div_ceil(mr), (off + nc).div_ceil(nr));
    // Everything the tile calls below rely on, checked once per block.
    assert!(pa.len() >= mpanels * mr * kc, "packed A block too short");
    assert!(pb.len() >= npanels * nr * kc, "packed B slab too short");
    match rows {
        Some(map) => assert!(map.len() == mc && map.iter().all(|&r| r < c.rows())),
        None => assert!(mc <= c.rows()),
    }
    let base = c.as_mut_ptr();
    // The C rows under row panel `p` (null past the block's last row).
    let crows = |p: usize| {
        let mut ptrs = [std::ptr::null_mut(); MR_MAX];
        for (r, ptr) in ptrs.iter_mut().enumerate().take(mr.min(mc - p * mr)) {
            let i = p * mr + r;
            // SAFETY: row `i`, or the row it maps to, is a row of `c`.
            *ptr = unsafe { base.add(rows.map_or(i, |map| map[i]) * stride) };
        }
        ptrs
    };
    let tile = |ptrs: &[*mut f64; MR_MAX], p: usize, q: usize| {
        // Packed columns q·nr.. of this tile, clipped to off..off+nc.
        let lo = off.saturating_sub(q * nr);
        let hi = nr.min(off + nc - q * nr);
        // SAFETY: the panels hold kc·mr and kc·nr values (asserted above);
        // the first `msub` pointers are rows of `c`, and tile columns
        // `lo..hi` are its columns `q·nr + lo − off ..`, inside `0..nc`; `c`
        // is exclusively borrowed for the call.
        unsafe {
            kernel.tile(
                kc,
                &pa[p * mr * kc..(p + 1) * mr * kc],
                &pb[q * nr * kc..(q + 1) * nr * kc],
                alpha,
                ptrs,
                q * nr + lo - off,
                mr.min(mc - p * mr),
                lo..hi,
            )
        }
    };
    if row_outer {
        for p in 0..mpanels {
            let ptrs = crows(p);
            for q in 0..npanels {
                tile(&ptrs, p, q);
            }
        }
    } else {
        for q in 0..npanels {
            for p in 0..mpanels {
                tile(&crows(p), p, q);
            }
        }
    }
}

/// Packed three-level-blocked `C += α·op(A)·op(B)` (no β handling, no flop
/// tally): the shared engine behind [`crate::gemm`], [`crate::gemmt`] and
/// the blocked [`crate::trsm`] updates. The microkernel comes from
/// [`crate::tuning::active`]. With `rows = Some(map)` the product's row
/// `i` is accumulated into `C[map[i], :]` instead of `C[i, :]`
/// ([`crate::gemm::gemm_rows`] validates the map). Only the write-back
/// addresses change, not one flop or its order.
///
/// Deterministic by construction: each element of `C` accumulates its
/// k-products in ascending order regardless of how callers slice `C` by
/// rows, which is what makes a fanned-out [`crate::gemm`] bitwise equal to
/// an inline one.
///
/// `op(B)` goes through this thread's [`PackedB`] one `KC×NC` block at a
/// time, so the scratch stays cache-block sized whatever `B` is.
pub(crate) fn gemm_packed_rows(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    rows: Option<&[usize]>,
    c: MatMut<'_>,
) {
    PACK_B.with(|pb| {
        let variant = tuning::active().variant;
        gemm_packed_in(&mut pb.borrow_mut(), variant, ta, tb, alpha, a, b, rows, c);
    });
}

/// [`gemm_packed_rows`] running `variant`, with `pb` as the `KC×NC` block
/// buffer: for a product that runs on a pool thread on behalf of another
/// thread, whose kernel it must run and whose scratch must not outlive the
/// call ([`crate::gemmt`]'s diagonal blocks).
#[allow(clippy::too_many_arguments)] // gemm_packed_rows plus its scratch and kernel
pub(crate) fn gemm_packed_in(
    pb: &mut PackedB,
    variant: &'static Variant,
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    rows: Option<&[usize]>,
    mut c: MatMut<'_>,
) {
    let (m, k) = ta.dims(a);
    let (_, n) = tb.dims(b);
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    let crows = c.rows();
    for jc in (0..n).step_by(NC) {
        let ncb = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kcb = KC.min(k - pc);
            pb.fill(variant, tb, b, pc..pc + kcb, jc..jc + ncb);
            let ablk = ta.op_block(a, 0, pc, m, kcb);
            let cblk = c.rb_mut().block(0, jc, crows, ncb);
            gemm_prepacked(ta, alpha, ablk, pb, 0..ncb, rows, cblk);
        }
    }
}

/// `C += α·op(A)·P[:, cols]` for an already packed `P = op(B)`, with the row
/// map of [`gemm_packed_rows`]; `c` is `cols.len()` wide. `cols` need not
/// start or end on a panel boundary: the first and last panels are clipped
/// like any edge tile. Runs the microkernel `P` was packed for, whose ISA is
/// checked here, once.
pub(crate) fn gemm_prepacked(
    ta: Trans,
    alpha: f64,
    a: MatRef<'_>,
    pb: &PackedB,
    cols: Range<usize>,
    rows: Option<&[usize]>,
    mut c: MatMut<'_>,
) {
    let (m, k) = ta.dims(a);
    assert_eq!(k, pb.k, "gemm_prepacked: inner dimensions must match");
    assert!(cols.end <= pb.n, "gemm_prepacked: columns outside op(B)");
    assert_eq!(
        c.cols(),
        cols.len(),
        "gemm_prepacked: C column count mismatch"
    );
    if m == 0 || cols.is_empty() || k == 0 || alpha == 0.0 {
        return;
    }
    let kernel = pb.variant.kernel();
    let (mr, nr) = (kernel.mr, kernel.nr);
    let (width, crows) = (pb.width(), c.rows());
    // Columns per NC block: whole panels, so only a block's ends clip.
    let span = NC / nr * nr;
    PACK_A.with(|pa| {
        let mut pa = pa.borrow_mut();
        let mut j = cols.start;
        while j < cols.end {
            let (q, off) = (j / nr, j % nr);
            let ncb = (span - off).min(cols.end - j);
            for k0 in (0..k).step_by(KC) {
                let kcb = KC.min(k - k0);
                let slab = &pb.data[k0 * width..(k0 + kcb) * width];
                let panels = &slab[q * nr * kcb..];
                for ic in (0..m).step_by(MC) {
                    let mcb = MC.min(m - ic);
                    let need = round_up(mcb, mr) * kcb;
                    if pa.len() < need {
                        pa.resize(need, 0.0);
                    }
                    pack_a(ta, a, ic, mcb, k0, kcb, mr, &mut pa);
                    let (cj, cblk) = (j - cols.start, c.rb_mut());
                    let (map, cblk) = match rows {
                        Some(map) => (Some(&map[ic..ic + mcb]), cblk.block(0, cj, crows, ncb)),
                        None => (None, cblk.block(ic, cj, mcb, ncb)),
                    };
                    let order = row_order(kcb, ncb);
                    macro_kernel(kernel, order, mcb, kcb, alpha, &pa, panels, off, map, cblk);
                }
            }
            j += ncb;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_matrix;

    #[test]
    fn pack_a_layout_and_padding() {
        // 5×3 op(A) block with mr=4: two panels, second padded to mr rows.
        let a = crate::Matrix::from_fn(6, 4, |i, j| (10 * i + j) as f64);
        let (mc, kc, mr) = (5, 3, 4);
        let mut buf = vec![f64::NAN; round_up(mc, mr) * kc];
        pack_a(Trans::N, a.as_ref(), 1, mc, 1, kc, mr, &mut buf);
        // Panel 0, k=0, r=0 → op(A)(1,1) = 11.
        assert_eq!(buf[0], 11.0);
        // Panel 0, k=2, r=3 → op(A)(4,3) = 43.
        assert_eq!(buf[2 * mr + 3], 43.0);
        // Panel 1 holds op-row 5 then zero padding.
        assert_eq!(buf[mr * kc], 51.0);
        assert_eq!(buf[mr * kc + 1], 0.0, "padded rows must be zero");
    }

    #[test]
    fn pack_b_transpose_matches_direct() {
        let b = random_matrix(9, 7, 3);
        let bt = b.transposed();
        let (kc, nc) = (7, 9);
        let mut direct = vec![0.0; round_up(nc, NR) * kc];
        let mut viat = vec![1.0; round_up(nc, NR) * kc];
        pack_b(Trans::N, bt.as_ref(), 0, kc, 0, nc, NR, &mut direct);
        pack_b(Trans::T, b.as_ref(), 0, kc, 0, nc, NR, &mut viat);
        assert_eq!(direct, viat);
    }

    #[test]
    fn pack_a_transpose_matches_direct() {
        let a = random_matrix(6, 10, 4);
        let at = a.transposed();
        let (mc, kc) = (6, 10);
        let mut direct = vec![0.0; round_up(mc, MR) * kc];
        let mut viat = vec![1.0; round_up(mc, MR) * kc];
        pack_a(Trans::N, a.as_ref(), 0, mc, 0, kc, MR, &mut direct);
        pack_a(Trans::T, at.as_ref(), 0, mc, 0, kc, MR, &mut viat);
        assert_eq!(direct, viat);
    }

    #[test]
    fn pack_a_handles_non_default_mr() {
        // mr=8: 9 op-rows make two panels, the second padded to 8.
        let a = crate::Matrix::from_fn(10, 5, |i, j| (10 * i + j) as f64);
        let (mc, kc, mr) = (9, 5, 8);
        let mut buf = vec![f64::NAN; round_up(mc, mr) * kc];
        pack_a(Trans::N, a.as_ref(), 0, mc, 0, kc, mr, &mut buf);
        assert_eq!(buf[0], 0.0); // op(A)(0,0)
        assert_eq!(buf[kc * mr], 80.0); // panel 1 first row = op-row 8
        assert_eq!(buf[kc * mr + 1], 0.0, "rows past mc are zero padding");
    }

    #[test]
    fn macro_kernel_agrees_across_variants() {
        // The same block packed for and run through the scalar 4×8 kernel
        // and the kernel this CPU dispatches must produce bitwise-equal C.
        let (m, n, k) = (13, 11, 9);
        let a = random_matrix(m, k, 5);
        let b = random_matrix(k, n, 6);
        let run = |variant: &Variant| {
            let kernel = variant.kernel();
            let (mr, nr) = (kernel.mr, kernel.nr);
            let mut pa = vec![0.0; round_up(m, mr) * k];
            let mut pb = vec![0.0; round_up(n, nr) * k];
            pack_a(Trans::N, a.as_ref(), 0, m, 0, k, mr, &mut pa);
            pack_b(Trans::N, b.as_ref(), 0, k, 0, n, nr, &mut pb);
            let mut c = crate::Matrix::zeros(m, n);
            macro_kernel(kernel, false, m, k, 1.5, &pa, &pb, 0, None, c.as_mut());
            c
        };
        let (want, got) = (
            run(tuning::scalar_baseline()),
            run(tuning::active().variant),
        );
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn both_loop_orders_write_the_same_bits() {
        // A ragged block, a column window that starts inside a panel, a row
        // map with gaps: everything the two orders could disagree about.
        let (m, n, k, off) = (2 * MR + 1, 3 * NR + 2, 11, 3);
        let a = random_matrix(m, k, 15);
        let b = random_matrix(k, off + n, 16);
        let kernel = tuning::active().variant.kernel();
        let (mr, nr) = (kernel.mr, kernel.nr);
        let mut pa = vec![0.0; round_up(m, mr) * k];
        let mut pb = vec![0.0; round_up(off + n, nr) * k];
        pack_a(Trans::N, a.as_ref(), 0, m, 0, k, mr, &mut pa);
        pack_b(Trans::N, b.as_ref(), 0, k, 0, off + n, nr, &mut pb);
        let map: Vec<usize> = (0..m).map(|i| 2 * i + 1).collect();
        let run = |row_outer: bool| {
            let mut c = random_matrix(2 * m + 1, n, 17);
            macro_kernel(
                kernel,
                row_outer,
                m,
                k,
                -1.0,
                &pa,
                &pb,
                off,
                Some(&map),
                c.as_mut(),
            );
            c
        };
        let (by_rows, by_cols) = (run(true), run(false));
        assert_eq!(by_rows.data(), by_cols.data());
        // And it is the product: C[map[i], j] −= (A·B)[i, off + j].
        let mut want = random_matrix(2 * m + 1, n, 17);
        for (i, &r) in map.iter().enumerate() {
            for j in 0..n {
                let dot: f64 = (0..k).fold(0.0, |s, kk| s + a[(i, kk)] * b[(kk, off + j)]);
                want[(r, j)] += -dot;
            }
        }
        assert_eq!(by_rows.data(), want.data());
    }

    #[test]
    fn the_loop_order_follows_the_slab_and_nothing_else() {
        // The factorizations' update (k = 32 against a full NC slab) walks
        // C along rows; a KC-deep slab keeps B's panel in L1 instead.
        assert!(row_order(32, NC));
        assert!(!row_order(KC, NC));
        assert!(row_order(KC, ROW_ORDER_MAX_SLAB / KC));
        assert!(!row_order(KC, ROW_ORDER_MAX_SLAB / KC + 1));
    }

    #[test]
    fn a_packed_operand_runs_the_kernel_it_was_packed_for() {
        // Packed under the forced-scalar override (8-column panels), then
        // multiplied after it ended, as a pool worker multiplies its
        // caller's operand: still the scalar kernel the panels are laid for.
        let (m, k, n) = (MR + 1, 9, 3 * NR + 5);
        let (a, b) = (random_matrix(m, k, 10), random_matrix(k, n, 11));
        let mut pb = PackedB::new();
        tuning::with_override(tuning::scalar_baseline(), || pb.pack(Trans::N, b.as_ref()));
        assert_eq!(pb.variant.id, "scalar_4x8_u1");
        assert_eq!(pb.width(), round_up(n, 8));
        let mut got = crate::Matrix::zeros(m, n);
        gemm_prepacked(Trans::N, 1.0, a.as_ref(), &pb, 0..n, None, got.as_mut());
        let mut want = crate::Matrix::zeros(m, n);
        let (a, b, c) = (a.as_ref(), b.as_ref(), want.as_mut());
        gemm_packed_rows(Trans::N, Trans::N, 1.0, a, b, None, c);
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn a_column_range_of_a_packed_operand_is_clipped_at_both_ends() {
        // Columns 3..14 of a 17-wide op(B): the range starts inside panel 0
        // and ends inside panel 1, and C's neighbours must not be touched.
        let (m, k, n) = (7, 5, 17);
        let a = random_matrix(m, k, 8);
        let b = random_matrix(n, k, 9);
        let mut pb = PackedB::new();
        pb.pack(Trans::T, b.as_ref());
        let mut got = crate::Matrix::from_fn(m + 2, 13, |_, _| 7.0);
        gemm_prepacked(
            Trans::N,
            -1.0,
            a.as_ref(),
            &pb,
            3..14,
            None,
            got.block_mut(1, 1, m, 11),
        );
        let mut want = crate::Matrix::from_fn(m + 2, 13, |_, _| 7.0);
        gemm_packed_rows(
            Trans::N,
            Trans::T,
            -1.0,
            a.as_ref(),
            b.block(3, 0, 11, k),
            None,
            want.block_mut(1, 1, m, 11),
        );
        assert_eq!(got.data(), want.data());
    }
}
