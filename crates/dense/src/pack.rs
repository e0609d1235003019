//! Operand packing and the blocked macro-kernel behind [`crate::gemm()`].
//!
//! This module implements the Goto/BLIS decomposition of matrix multiply
//! ("Anatomy of High-Performance Matrix Multiplication"): the operands are
//! copied once per cache block into contiguous, microkernel-ordered buffers,
//! and all flops run in an `MR×NR` register tile supplied by the
//! [`crate::ukernel`] variant family.
//!
//! ```text
//!        jc ∈ 0..n step NC           pc ∈ 0..k step KC        ic ∈ 0..m step MC
//!  ┌───────────────────────┐   ┌───────────────────────┐   ┌──────────────────┐
//!  │ C column slab (NC)    │ × │ pack_b: KC×NC slab of │ × │ pack_a: MC×KC    │
//!  │                       │   │ op(B) → NR-col panels │   │ slab of op(A) →  │
//!  │                       │   │ (streamed from L2/L3) │   │ MR-row panels    │
//!  └───────────────────────┘   └───────────────────────┘   └──────────────────┘
//!                                         │                        │
//!                                         └────────┬───────────────┘
//!                                                  ▼
//!                              microkernel: MR×NR accumulator tile,
//!                              k-loop over packed panels, C += α·acc
//! ```
//!
//! Which microkernel runs, and which (KC, MC, NC) blocking tiles the loops,
//! is decided per call by [`crate::tuning::active`]: the per-machine tuning
//! registry when a valid entry exists, conservative defaults otherwise. The
//! constants below are those defaults — the exact configuration the engine
//! shipped with before auto-tuning existed.
//!
//! Packing zero-pads ragged edges up to the next `MR`/`NR` multiple, so the
//! microkernel never branches on tile shape; the write-back clips to the
//! valid sub-tile. Both transpose cases of either operand are absorbed by
//! the packing routines — after packing there is no per-element transpose
//! dispatch anywhere on the flop path.
//!
//! Pack buffers are thread-local and reused across calls, so steady-state
//! GEMMs allocate nothing. Rayon workers (see [`crate::par_gemm`]) each get
//! their own buffers via the same thread-local.

use crate::gemm::Trans;
use crate::matrix::{MatMut, MatRef};
use crate::tuning::{self, KernelConfig};
use crate::ukernel::Acc;
use std::cell::RefCell;

/// Default microkernel tile rows (the untuned scalar kernel's MR).
pub const MR: usize = 4;
/// Default microkernel tile columns (the untuned scalar kernel's NR).
pub const NR: usize = 8;
/// Default K-dimension cache block: one `KC×NR` slice of packed B (16 KiB)
/// stays in L1 while a microkernel runs; `MC×KC` of packed A (256 KiB)
/// targets L2. Also the floor tuned configs must respect
/// ([`crate::tuning::KC_MIN_EXACT`]) to keep factorizations bitwise-stable.
pub const KC: usize = 256;
/// Default M-dimension cache block (rows of packed A per inner loop).
pub const MC: usize = 128;
/// Default N-dimension cache block (columns of packed B per outer loop).
pub const NC: usize = 512;

const _: () = assert!(MC.is_multiple_of(MR), "MC must be a multiple of MR");
const _: () = assert!(NC.is_multiple_of(NR), "NC must be a multiple of NR");

thread_local! {
    /// Reused (packed A, packed B) scratch, grown on demand and kept for the
    /// life of the thread.
    static PACK_BUFS: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
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

/// Multiply the packed `mc×kc` A block by the packed `kc×nc` B block and
/// accumulate `α·(A·B)` into `c`, calling `cfg.variant`'s microkernel per
/// register tile. Product row `i` lands in row `i` of `c` (an `mc×nc` view),
/// or in row `rows[i]` when a row map is given (`c` then is `nc` wide and
/// tall enough for every mapped row). The `jr` loop is outer so one NR-panel
/// of packed B stays L1-resident across all row panels.
#[allow(clippy::too_many_arguments)] // BLAS-style block coordinates + runtime tile width
fn macro_kernel(
    cfg: &KernelConfig,
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: f64,
    pa: &[f64],
    pb: &[f64],
    rows: Option<&[usize]>,
    mut c: MatMut<'_>,
) {
    let (mr, nr) = (cfg.variant.mr, cfg.variant.nr);
    let mut acc: Acc = [0.0; crate::ukernel::MR_MAX * crate::ukernel::NR_MAX];
    for q in 0..nc.div_ceil(nr) {
        let j0 = q * nr;
        let nsub = nr.min(nc - j0);
        let pbq = &pb[q * nr * kc..(q + 1) * nr * kc];
        for p in 0..mc.div_ceil(mr) {
            let i0 = p * mr;
            let msub = mr.min(mc - i0);
            let pap = &pa[p * mr * kc..(p + 1) * mr * kc];
            cfg.variant.call(kc, pap, pbq, &mut acc);
            for r in 0..msub {
                let ci = rows.map_or(i0 + r, |map| map[i0 + r]);
                let crow = &mut c.row_mut(ci)[j0..j0 + nsub];
                let accrow = &acc[r * nr..r * nr + nsub];
                for (dst, &v) in crow.iter_mut().zip(accrow.iter()) {
                    *dst += alpha * v;
                }
            }
        }
    }
}

/// Packed three-level-blocked `C += α·op(A)·op(B)` (no β handling, no flop
/// tally): the shared engine behind [`crate::gemm`], [`crate::gemmt`],
/// [`crate::par_gemm`] and the blocked [`crate::trsm`] updates. The
/// microkernel variant and blocking come from [`crate::tuning::active`].
///
/// Deterministic by construction: each element of `C` accumulates its
/// k-products in ascending order regardless of how callers slice `C` by
/// rows, which is what makes `par_gemm` bitwise equal to `gemm`.
pub(crate) fn gemm_packed(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: MatMut<'_>,
) {
    gemm_packed_rows(ta, tb, alpha, a, b, None, c);
}

/// [`gemm_packed`] with an optional row map: with `rows = Some(map)` the
/// product's row `i` is accumulated into `C[map[i], :]` instead of
/// `C[i, :]` ([`crate::gemm::gemm_rows`] validates the map). Only the
/// write-back addresses change, not one flop or its order.
pub(crate) fn gemm_packed_rows(
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
    let cfg = tuning::active();
    let (mr, nr) = (cfg.variant.mr, cfg.variant.nr);
    PACK_BUFS.with(|bufs| {
        let mut bufs = bufs.borrow_mut();
        let (pa_buf, pb_buf) = &mut *bufs;
        for jc in (0..n).step_by(cfg.nc) {
            let ncb = cfg.nc.min(n - jc);
            for pc in (0..k).step_by(cfg.kc) {
                let kcb = cfg.kc.min(k - pc);
                let need_b = round_up(ncb, nr) * kcb;
                if pb_buf.len() < need_b {
                    pb_buf.resize(need_b, 0.0);
                }
                pack_b(tb, b, pc, kcb, jc, ncb, nr, pb_buf);
                for ic in (0..m).step_by(cfg.mc) {
                    let mcb = cfg.mc.min(m - ic);
                    let need_a = round_up(mcb, mr) * kcb;
                    if pa_buf.len() < need_a {
                        pa_buf.resize(need_a, 0.0);
                    }
                    pack_a(ta, a, ic, mcb, pc, kcb, mr, pa_buf);
                    let (crows, cblk) = match rows {
                        Some(map) => {
                            let all = c.rows();
                            (Some(&map[ic..ic + mcb]), c.rb_mut().block(0, jc, all, ncb))
                        }
                        None => (None, c.rb_mut().block(ic, jc, mcb, ncb)),
                    };
                    macro_kernel(&cfg, mcb, ncb, kcb, alpha, pa_buf, pb_buf, crows, cblk);
                }
            }
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
        let kc = 3;
        let mc = 5;
        let mut buf = vec![f64::NAN; round_up(mc, MR) * kc];
        pack_a(Trans::N, a.as_ref(), 1, mc, 1, kc, MR, &mut buf);
        // Panel 0, k=0, r=0 → op(A)(1,1) = 11.
        assert_eq!(buf[0], 11.0);
        // Panel 0, k=2, r=3 → op(A)(4,3) = 43.
        assert_eq!(buf[2 * MR + 3], 43.0);
        // Panel 1 holds op-row 5 then zero padding.
        assert_eq!(buf[MR * kc], 51.0);
        assert_eq!(buf[MR * kc + 1], 0.0, "padded rows must be zero");
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
        // mr=6: 7 op-rows make two panels, the second padded to 6.
        let a = crate::Matrix::from_fn(8, 5, |i, j| (10 * i + j) as f64);
        let (mc, kc, mr) = (7, 5, 6);
        let mut buf = vec![f64::NAN; round_up(mc, mr) * kc];
        pack_a(Trans::N, a.as_ref(), 0, mc, 0, kc, mr, &mut buf);
        assert_eq!(buf[0], 0.0); // op(A)(0,0)
        assert_eq!(buf[kc * mr], 60.0); // panel 1 first row = op-row 6
        assert_eq!(buf[kc * mr + 1], 0.0, "rows past mc are zero padding");
    }

    #[test]
    fn macro_kernel_agrees_across_variants() {
        // The same packed block through the default config and through a
        // differently-shaped exact variant must produce bitwise-equal C.
        let (m, n, k) = (13, 11, 9);
        let a = random_matrix(m, k, 5);
        let b = random_matrix(k, n, 6);
        let run = |variant_id: &str| {
            let variant = crate::ukernel::find(variant_id).unwrap();
            let cfg = KernelConfig {
                variant,
                ..crate::tuning::scalar_baseline()
            };
            let (mr, nr) = (variant.mr, variant.nr);
            let mut pa = vec![0.0; round_up(m, mr) * k];
            let mut pb = vec![0.0; round_up(n, nr) * k];
            pack_a(Trans::N, a.as_ref(), 0, m, 0, k, mr, &mut pa);
            pack_b(Trans::N, b.as_ref(), 0, k, 0, n, nr, &mut pb);
            let mut c = crate::Matrix::zeros(m, n);
            macro_kernel(&cfg, m, n, k, 1.5, &pa, &pb, None, c.as_mut());
            c
        };
        let want = run("scalar_4x8_u1");
        for id in ["scalar_6x4_u2", "scalar_8x8_u4"] {
            assert_eq!(run(id).data(), want.data(), "variant {id}");
        }
    }
}
