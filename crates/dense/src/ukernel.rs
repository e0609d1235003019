//! The microkernel variant family behind [`crate::pack`].
//!
//! PR 3's packed GEMM ran one hard-coded scalar `4×8` register tile and
//! relied on LLVM autovectorizing it — which, at the default `x86-64`
//! baseline, means 2-lane SSE2 and roughly a third of what the machine can
//! do. This module replaces the single microkernel with a *family* of
//! variants generated over an `(MR, NR, K-unroll, prefetch-distance)` grid
//! at three ISA levels:
//!
//! * [`Isa::Scalar`] — the portable reference formulation, identical in
//!   accumulation order to PR 3's microkernel. Always available.
//! * [`Isa::Avx2`] — explicit 256-bit `std::arch` intrinsics using separate
//!   multiply and add. **Bitwise-identical** to the scalar kernel: each
//!   `acc[r][c]` accumulates `a·b` products for ascending `k` with one IEEE
//!   rounding per multiply and one per add, exactly like the scalar loop,
//!   just four lanes at a time (lanes are independent `c` columns, never a
//!   reduction).
//! * [`Isa::Avx2Fma`] — the same tile shapes using fused multiply-add. One
//!   rounding per step instead of two, so results are *more* accurate but
//!   **not** bitwise-equal to the scalar path. FMA variants are therefore
//!   excluded from tuning by default (see `docs/TUNING.md`) and the
//!   dispatcher refuses them unless explicitly opted in.
//!
//! Every variant shares one calling convention: multiply an `MR`-row packed
//! A panel by an `NR`-column packed B panel over `kc` steps in registers,
//! then add `α·acc` into `C` *itself* through `MR` row pointers — a vector
//! multiply and a vector add per `C` vector, the same two roundings as the
//! scalar `c += α·acc`, so every exact variant stays exact, and a
//! row-mapped `C` (see [`crate::gemm_rows`]) costs nothing extra because the
//! rows were never assumed adjacent. Zero-padded edge packing (see
//! [`crate::pack`]) means variants never see a partial tile: a tile that
//! overhangs `C` is computed into a scratch [`Acc`] by the same function and
//! clipped from there (`Kernel::tile`).
//!
//! The register budget that shapes the grid: an AVX2 body holds `MR·NR/4`
//! accumulators, `NR/4` vectors of the current B row and one broadcast of an
//! A element in the 16 ymm registers. `6×8` is the largest tile that fits
//! (12 + 2 + 1 = 15) and the default ([`crate::tuning::default_config`]);
//! `8×8` (16 + 2 + 1) spills and is kept so the tuner can show it losing.
//!
//! The grid is instantiated by macro into concrete `#[target_feature]`
//! functions (stable Rust has no `std::simd`, and `#[target_feature]`
//! cannot be applied to generic functions), with a const-generic body doing
//! the actual work so each shape is fully unrolled at compile time. On
//! non-x86-64 targets the SIMD entries compile to the scalar body and
//! report themselves unavailable, so the table shape is
//! platform-independent.

/// Largest microkernel tile rows in the family.
pub const MR_MAX: usize = 8;
/// Largest microkernel tile columns in the family.
pub const NR_MAX: usize = 8;

/// One `MR×NR` product tile stored row-major with stride equal to the
/// variant's `NR` (the tail of the array is unused for smaller shapes): what
/// [`reference_microkernel`] returns, and the scratch an edge tile is
/// computed into before it is clipped.
pub type Acc = [f64; MR_MAX * NR_MAX];

/// Instruction-set level of a variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar formulation (LLVM may still autovectorize it).
    Scalar,
    /// Explicit AVX2 intrinsics, separate multiply + add (bitwise-exact).
    Avx2,
    /// Explicit AVX2 + FMA intrinsics (single rounding per step; inexact
    /// relative to the scalar reference).
    Avx2Fma,
}

impl Isa {
    /// Can this ISA level run on the current CPU?
    pub fn available(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// Signature shared by every microkernel instantiation: for `r < MR`,
/// `j < NR`, `*c[r].add(col + j) += alpha · Σ_k pa[k·MR + r]·pb[k·NR + j]`.
///
/// # Safety
/// `pa` must hold at least `kc·MR` values and `pb` at least `kc·NR`; each of
/// the first `MR` pointers of `c`, advanced by `col`, must be valid for
/// reads and writes of `NR` values that nothing else accesses during the
/// call; and a SIMD variant must only run on a CPU where its [`Isa`] is
/// available. [`Variant::kernel`] checks the last once, [`Kernel::tile`]'s
/// callers owe the rest.
type MicroFn =
    unsafe fn(kc: usize, pa: &[f64], pb: &[f64], alpha: f64, c: &[*mut f64; MR_MAX], col: usize);

/// One point of the microkernel grid.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Stable identifier, e.g. `"avx2_6x8_u2_pf0"` — the key stored in
    /// `registry/tuning.json`.
    pub id: &'static str,
    /// Register-tile rows.
    pub mr: usize,
    /// Register-tile columns (a multiple of 4 for the SIMD levels).
    pub nr: usize,
    /// K-loop unroll factor (same accumulation order as unroll 1; purely a
    /// scheduling hint to the compiler).
    pub unroll: usize,
    /// Software prefetch distance in k-iterations (0 = no prefetch).
    pub prefetch: usize,
    /// ISA level.
    pub isa: Isa,
    func: MicroFn,
}

impl Variant {
    /// Is this variant runnable on the current CPU?
    pub fn available(&self) -> bool {
        self.isa.available()
    }

    /// Is this variant bitwise-equal to the scalar reference kernel?
    ///
    /// True for everything except [`Isa::Avx2Fma`]: fused multiply-add
    /// performs one rounding where the reference performs two, so FMA
    /// results differ in the last bits (they are *more* accurate, not
    /// less — but bitwise reproducibility across machines is the contract
    /// the factorization conformance suites pin).
    pub fn exact(&self) -> bool {
        self.isa != Isa::Avx2Fma
    }

    /// The variant as something that can run: its ISA checked against this
    /// CPU here, once, so the macro-kernel's per-tile calls check nothing.
    ///
    /// # Panics
    /// If the variant's ISA is not available on this CPU.
    pub(crate) fn kernel(&self) -> Kernel {
        assert!(
            self.available(),
            "microkernel {} needs {:?}, unavailable on this CPU",
            self.id,
            self.isa
        );
        Kernel {
            func: self.func,
            mr: self.mr,
            nr: self.nr,
        }
    }

    /// Run the microkernel on one tile of `C` given as its rows (adjacent or
    /// not): `c[r][j] += alpha · Σ_k pa[k·mr + r]·pb[k·nr + j]`. Fewer than
    /// `mr` rows, or rows shorter than `nr`, make it an edge tile: the
    /// product's leading rows and columns are kept.
    ///
    /// # Panics
    /// If the variant's ISA is not available on this CPU, the packed panels
    /// are shorter than `kc` steps, or `c` is larger than the tile or ragged.
    pub fn call(&self, kc: usize, pa: &[f64], pb: &[f64], alpha: f64, c: &mut [&mut [f64]]) {
        let kernel = self.kernel();
        assert!(pa.len() >= kc * self.mr, "packed A panel too short");
        assert!(pb.len() >= kc * self.nr, "packed B panel too short");
        let nsub = c.first().map_or(0, |row| row.len());
        assert!(c.len() <= self.mr && nsub <= self.nr, "C exceeds the tile");
        assert!(c.iter().all(|row| row.len() == nsub), "ragged C tile");
        let mut rows = [std::ptr::null_mut(); MR_MAX];
        for (p, row) in rows.iter_mut().zip(c.iter_mut()) {
            *p = row.as_mut_ptr();
        }
        // SAFETY: panel lengths checked above; the first `c.len()` pointers
        // are exclusive borrows of `nsub` values each, which is the clip
        // passed.
        unsafe { kernel.tile(kc, pa, pb, alpha, &rows, 0, c.len(), 0..nsub) }
    }
}

/// A [`Variant`] whose ISA has been checked ([`Variant::kernel`]): what the
/// macro-kernel calls per register tile.
#[derive(Clone, Copy)]
pub(crate) struct Kernel {
    func: MicroFn,
    /// Register-tile rows.
    pub(crate) mr: usize,
    /// Register-tile columns.
    pub(crate) nr: usize,
}

impl Kernel {
    /// One register tile: for `r < msub` and `j ∈ cols`,
    /// `*c[r].add(col + j − cols.start) += alpha · Σ_k pa[k·mr + r]·pb[k·nr + j]`.
    /// A full tile (`msub = mr`, `cols = 0..nr`) is written by the
    /// microkernel itself. Any other is an edge: the microkernel runs with
    /// `α = 1` onto a zeroed scratch tile — `0 + 1·acc` is `acc` to the bit —
    /// and the clip adds `alpha · acc` from there, the scalar statement the
    /// vector write-back reproduces.
    ///
    /// # Safety
    /// `pa` holds at least `kc·mr` values and `pb` at least `kc·nr`; for
    /// `r < msub`, `c[r].add(col)` is valid for reads and writes of
    /// `cols.len()` values nothing else accesses during the call;
    /// `msub ≤ mr` and `cols.end ≤ nr`.
    #[inline]
    #[allow(clippy::too_many_arguments)] // one tile's operands, destination and clip
    pub(crate) unsafe fn tile(
        &self,
        kc: usize,
        pa: &[f64],
        pb: &[f64],
        alpha: f64,
        c: &[*mut f64; MR_MAX],
        col: usize,
        msub: usize,
        cols: std::ops::Range<usize>,
    ) {
        debug_assert!(pa.len() >= kc * self.mr && pb.len() >= kc * self.nr);
        debug_assert!(msub <= self.mr && cols.end <= self.nr);
        if msub == self.mr && cols == (0..self.nr) {
            return (self.func)(kc, pa, pb, alpha, c, col);
        }
        let mut scratch: Acc = [0.0; MR_MAX * NR_MAX];
        let mut rows = [std::ptr::null_mut(); MR_MAX];
        for (r, p) in rows.iter_mut().enumerate().take(self.mr) {
            *p = scratch.as_mut_ptr().add(r * self.nr);
        }
        (self.func)(kc, pa, pb, 1.0, &rows, 0);
        for (r, &crow) in c.iter().enumerate().take(msub) {
            let dst = std::slice::from_raw_parts_mut(crow.add(col), cols.len());
            let acc = &scratch[r * self.nr + cols.start..r * self.nr + cols.end];
            for (d, &v) in dst.iter_mut().zip(acc) {
                *d += alpha * v;
            }
        }
    }
}

/// The scalar body: PR 3's microkernel generalized over the tile shape.
/// Each `acc[r][c]` is an independent sum accumulated in ascending `k`
/// order with separate multiply and add, then added to `C` as
/// `c += alpha · acc` — the rounding-order contract every exact variant
/// reproduces.
#[inline(always)]
unsafe fn scalar_body<const MR: usize, const NR: usize, const UNROLL: usize>(
    kc: usize,
    pa: &[f64],
    pb: &[f64],
    alpha: f64,
    c: &[*mut f64; MR_MAX],
    col: usize,
) {
    // Exactly-sized tile: MRxNR doubles fit the SSE register file, so the
    // accumulators live in registers across the whole k loop. A max-sized
    // [[f64; NR_MAX]; MR_MAX] tile spills to the stack and halves throughput.
    let mut tile = [[0.0f64; NR]; MR];
    // Iterate the panels with `chunks_exact` rather than computed slice
    // indices: the iterator shape is what lets LLVM drop the bounds checks
    // and keep the inner MRxNR loops vectorized (computed `&pa[kk*MR..]`
    // slices measurably halve throughput). The outer chunk is UNROLL
    // k-steps wide; k order is sequential either way, so the accumulation
    // order — and hence the bitwise result — does not depend on UNROLL.
    let pa = &pa[..kc * MR];
    let pb = &pb[..kc * NR];
    let mut fuse = |ak: &[f64], bk: &[f64]| {
        for r in 0..MR {
            let ar = ak[r];
            for c in 0..NR {
                tile[r][c] += ar * bk[c];
            }
        }
    };
    let mut ca = pa.chunks_exact(MR * UNROLL);
    let mut cb = pb.chunks_exact(NR * UNROLL);
    for (ab, bb) in ca.by_ref().zip(cb.by_ref()) {
        for (ak, bk) in ab.chunks_exact(MR).zip(bb.chunks_exact(NR)) {
            fuse(ak, bk);
        }
    }
    for (ak, bk) in ca
        .remainder()
        .chunks_exact(MR)
        .zip(cb.remainder().chunks_exact(NR))
    {
        fuse(ak, bk);
    }
    for (row, &crow) in tile.iter().zip(c) {
        // SAFETY: the caller guarantees NR writable values at `crow + col`.
        let dst = std::slice::from_raw_parts_mut(crow.add(col), NR);
        for (d, &v) in dst.iter_mut().zip(row) {
            *d += alpha * v;
        }
    }
}

/// The AVX2 body shared by the exact and FMA levels — the one body per ISA
/// level every stamped variant of that level instantiates. `NR/4` ymm
/// accumulators per row; lanes are independent output columns, so there is
/// never a cross-lane reduction and the exact (`FMA = false`) level keeps
/// the scalar rounding order per element.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn avx2_body<
    const MR: usize,
    const NR: usize,
    const UNROLL: usize,
    const PF: usize,
    const FMA: bool,
>(
    kc: usize,
    pa: &[f64],
    pb: &[f64],
    alpha: f64,
    c: &[*mut f64; MR_MAX],
    col: usize,
) {
    use std::arch::x86_64::*;
    const LANES: usize = 4;
    let nv = NR / LANES;
    // Fixed-size register file (max shape); only the [0..MR][0..nv] corner
    // is touched, so mem2reg keeps the live accumulators in ymm registers.
    let mut accv = [[_mm256_setzero_pd(); NR_MAX / LANES]; MR_MAX];
    let mut k = 0usize;
    while k < kc {
        let steps = if kc - k >= UNROLL { UNROLL } else { 1 };
        for u in 0..steps {
            let kk = k + u;
            if PF > 0 {
                // wrapping_add: the tail prefetches run past the panel end;
                // prefetch never faults, and wrapping arithmetic keeps the
                // out-of-bounds pointer formation defined.
                _mm_prefetch(
                    pa.as_ptr().wrapping_add((kk + PF) * MR) as *const i8,
                    _MM_HINT_T0,
                );
                _mm_prefetch(
                    pb.as_ptr().wrapping_add((kk + PF) * NR) as *const i8,
                    _MM_HINT_T0,
                );
            }
            let mut bv = [_mm256_setzero_pd(); NR_MAX / LANES];
            for (j, b) in bv.iter_mut().enumerate().take(nv) {
                *b = _mm256_loadu_pd(pb.as_ptr().add(kk * NR + LANES * j));
            }
            for (r, accr) in accv.iter_mut().enumerate().take(MR) {
                let av = _mm256_set1_pd(*pa.get_unchecked(kk * MR + r));
                for (a, &b) in accr.iter_mut().zip(bv.iter()).take(nv) {
                    *a = if FMA {
                        _mm256_fmadd_pd(av, b, *a)
                    } else {
                        _mm256_add_pd(*a, _mm256_mul_pd(av, b))
                    };
                }
            }
        }
        k += steps;
    }
    // C += α·acc, a multiply then an add per vector at every level: the
    // write-back is not part of the k-loop's fused/unfused distinction, and
    // the exact level must round as the scalar `c += alpha * acc` does.
    let alphav = _mm256_set1_pd(alpha);
    for (accr, &crow) in accv.iter().zip(c).take(MR) {
        for (j, &a) in accr.iter().enumerate().take(nv) {
            let dst = crow.add(col + LANES * j);
            _mm256_storeu_pd(
                dst,
                _mm256_add_pd(_mm256_loadu_pd(dst), _mm256_mul_pd(alphav, a)),
            );
        }
    }
}

/// Stamp one concrete microkernel function per grid point. The SIMD levels
/// need concrete (non-generic) functions because `#[target_feature]` does
/// not apply to generics; off x86-64 they fall back to the scalar body and
/// are filtered out by [`Variant::available`].
macro_rules! ukernel_fn {
    (Scalar, $f:ident, $mr:literal, $nr:literal, $un:literal, $pf:literal) => {
        unsafe fn $f(
            kc: usize,
            pa: &[f64],
            pb: &[f64],
            alpha: f64,
            c: &[*mut f64; MR_MAX],
            col: usize,
        ) {
            scalar_body::<$mr, $nr, $un>(kc, pa, pb, alpha, c, col)
        }
    };
    (Avx2, $f:ident, $mr:literal, $nr:literal, $un:literal, $pf:literal) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $f(
            kc: usize,
            pa: &[f64],
            pb: &[f64],
            alpha: f64,
            c: &[*mut f64; MR_MAX],
            col: usize,
        ) {
            avx2_body::<$mr, $nr, $un, $pf, false>(kc, pa, pb, alpha, c, col)
        }
        #[cfg(not(target_arch = "x86_64"))]
        unsafe fn $f(
            kc: usize,
            pa: &[f64],
            pb: &[f64],
            alpha: f64,
            c: &[*mut f64; MR_MAX],
            col: usize,
        ) {
            scalar_body::<$mr, $nr, $un>(kc, pa, pb, alpha, c, col)
        }
    };
    (Avx2Fma, $f:ident, $mr:literal, $nr:literal, $un:literal, $pf:literal) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn $f(
            kc: usize,
            pa: &[f64],
            pb: &[f64],
            alpha: f64,
            c: &[*mut f64; MR_MAX],
            col: usize,
        ) {
            avx2_body::<$mr, $nr, $un, $pf, true>(kc, pa, pb, alpha, c, col)
        }
        #[cfg(not(target_arch = "x86_64"))]
        unsafe fn $f(
            kc: usize,
            pa: &[f64],
            pb: &[f64],
            alpha: f64,
            c: &[*mut f64; MR_MAX],
            col: usize,
        ) {
            scalar_body::<$mr, $nr, $un>(kc, pa, pb, alpha, c, col)
        }
    };
}

macro_rules! ukernels {
    ($( $id:literal => $isa:ident($f:ident, $mr:literal, $nr:literal, u = $un:literal, pf = $pf:literal); )*) => {
        $( ukernel_fn!($isa, $f, $mr, $nr, $un, $pf); )*

        /// The full microkernel grid, including variants the current CPU
        /// cannot run — filter with [`Variant::available`].
        static VARIANTS: &[Variant] = &[
            $( Variant {
                id: $id,
                mr: $mr,
                nr: $nr,
                unroll: $un,
                prefetch: $pf,
                isa: Isa::$isa,
                func: $f,
            }, )*
        ];
    };
}

// The grid: 6 tile shapes bounded by the 16-register ymm budget
// (MR·NR/4 accumulators + NR/4 B vectors + 1 broadcast must fit; 8×8 spills
// deliberately so the tuner can prove it loses), 3 unroll depths, and two
// prefetch distances for the SIMD levels. Scalar variants skip prefetch —
// without explicit loads to schedule around, a software prefetch in the
// autovectorized loop is pure overhead.
ukernels! {
    "scalar_4x4_u1" => Scalar(s_4x4_u1, 4, 4, u = 1, pf = 0);
    "scalar_4x4_u2" => Scalar(s_4x4_u2, 4, 4, u = 2, pf = 0);
    "scalar_4x4_u4" => Scalar(s_4x4_u4, 4, 4, u = 4, pf = 0);
    "scalar_4x8_u1" => Scalar(s_4x8_u1, 4, 8, u = 1, pf = 0);
    "scalar_4x8_u2" => Scalar(s_4x8_u2, 4, 8, u = 2, pf = 0);
    "scalar_4x8_u4" => Scalar(s_4x8_u4, 4, 8, u = 4, pf = 0);
    "scalar_6x4_u1" => Scalar(s_6x4_u1, 6, 4, u = 1, pf = 0);
    "scalar_6x4_u2" => Scalar(s_6x4_u2, 6, 4, u = 2, pf = 0);
    "scalar_6x4_u4" => Scalar(s_6x4_u4, 6, 4, u = 4, pf = 0);
    "scalar_6x8_u1" => Scalar(s_6x8_u1, 6, 8, u = 1, pf = 0);
    "scalar_6x8_u2" => Scalar(s_6x8_u2, 6, 8, u = 2, pf = 0);
    "scalar_6x8_u4" => Scalar(s_6x8_u4, 6, 8, u = 4, pf = 0);
    "scalar_8x4_u1" => Scalar(s_8x4_u1, 8, 4, u = 1, pf = 0);
    "scalar_8x4_u2" => Scalar(s_8x4_u2, 8, 4, u = 2, pf = 0);
    "scalar_8x4_u4" => Scalar(s_8x4_u4, 8, 4, u = 4, pf = 0);
    "scalar_8x8_u1" => Scalar(s_8x8_u1, 8, 8, u = 1, pf = 0);
    "scalar_8x8_u2" => Scalar(s_8x8_u2, 8, 8, u = 2, pf = 0);
    "scalar_8x8_u4" => Scalar(s_8x8_u4, 8, 8, u = 4, pf = 0);

    "avx2_4x4_u1_pf0" => Avx2(v_4x4_u1_p0, 4, 4, u = 1, pf = 0);
    "avx2_4x4_u2_pf0" => Avx2(v_4x4_u2_p0, 4, 4, u = 2, pf = 0);
    "avx2_4x4_u4_pf0" => Avx2(v_4x4_u4_p0, 4, 4, u = 4, pf = 0);
    "avx2_4x4_u2_pf4" => Avx2(v_4x4_u2_p4, 4, 4, u = 2, pf = 4);
    "avx2_4x4_u4_pf4" => Avx2(v_4x4_u4_p4, 4, 4, u = 4, pf = 4);
    "avx2_4x8_u1_pf0" => Avx2(v_4x8_u1_p0, 4, 8, u = 1, pf = 0);
    "avx2_4x8_u2_pf0" => Avx2(v_4x8_u2_p0, 4, 8, u = 2, pf = 0);
    "avx2_4x8_u4_pf0" => Avx2(v_4x8_u4_p0, 4, 8, u = 4, pf = 0);
    "avx2_4x8_u2_pf4" => Avx2(v_4x8_u2_p4, 4, 8, u = 2, pf = 4);
    "avx2_4x8_u4_pf4" => Avx2(v_4x8_u4_p4, 4, 8, u = 4, pf = 4);
    "avx2_6x4_u1_pf0" => Avx2(v_6x4_u1_p0, 6, 4, u = 1, pf = 0);
    "avx2_6x4_u2_pf0" => Avx2(v_6x4_u2_p0, 6, 4, u = 2, pf = 0);
    "avx2_6x4_u4_pf0" => Avx2(v_6x4_u4_p0, 6, 4, u = 4, pf = 0);
    "avx2_6x4_u2_pf4" => Avx2(v_6x4_u2_p4, 6, 4, u = 2, pf = 4);
    "avx2_6x4_u4_pf4" => Avx2(v_6x4_u4_p4, 6, 4, u = 4, pf = 4);
    "avx2_6x8_u1_pf0" => Avx2(v_6x8_u1_p0, 6, 8, u = 1, pf = 0);
    "avx2_6x8_u2_pf0" => Avx2(v_6x8_u2_p0, 6, 8, u = 2, pf = 0);
    "avx2_6x8_u4_pf0" => Avx2(v_6x8_u4_p0, 6, 8, u = 4, pf = 0);
    "avx2_6x8_u2_pf4" => Avx2(v_6x8_u2_p4, 6, 8, u = 2, pf = 4);
    "avx2_6x8_u4_pf4" => Avx2(v_6x8_u4_p4, 6, 8, u = 4, pf = 4);
    "avx2_8x4_u1_pf0" => Avx2(v_8x4_u1_p0, 8, 4, u = 1, pf = 0);
    "avx2_8x4_u2_pf0" => Avx2(v_8x4_u2_p0, 8, 4, u = 2, pf = 0);
    "avx2_8x4_u4_pf0" => Avx2(v_8x4_u4_p0, 8, 4, u = 4, pf = 0);
    "avx2_8x4_u2_pf4" => Avx2(v_8x4_u2_p4, 8, 4, u = 2, pf = 4);
    "avx2_8x4_u4_pf4" => Avx2(v_8x4_u4_p4, 8, 4, u = 4, pf = 4);
    "avx2_8x8_u1_pf0" => Avx2(v_8x8_u1_p0, 8, 8, u = 1, pf = 0);
    "avx2_8x8_u2_pf0" => Avx2(v_8x8_u2_p0, 8, 8, u = 2, pf = 0);

    "fma_4x8_u1_pf0" => Avx2Fma(f_4x8_u1_p0, 4, 8, u = 1, pf = 0);
    "fma_4x8_u2_pf0" => Avx2Fma(f_4x8_u2_p0, 4, 8, u = 2, pf = 0);
    "fma_4x8_u4_pf0" => Avx2Fma(f_4x8_u4_p0, 4, 8, u = 4, pf = 0);
    "fma_4x8_u2_pf4" => Avx2Fma(f_4x8_u2_p4, 4, 8, u = 2, pf = 4);
    "fma_6x8_u1_pf0" => Avx2Fma(f_6x8_u1_p0, 6, 8, u = 1, pf = 0);
    "fma_6x8_u2_pf0" => Avx2Fma(f_6x8_u2_p0, 6, 8, u = 2, pf = 0);
    "fma_6x8_u4_pf0" => Avx2Fma(f_6x8_u4_p0, 6, 8, u = 4, pf = 0);
    "fma_6x8_u2_pf4" => Avx2Fma(f_6x8_u2_p4, 6, 8, u = 2, pf = 4);
    "fma_8x4_u1_pf0" => Avx2Fma(f_8x4_u1_p0, 8, 4, u = 1, pf = 0);
    "fma_8x4_u2_pf0" => Avx2Fma(f_8x4_u2_p0, 8, 4, u = 2, pf = 0);
    "fma_8x4_u4_pf0" => Avx2Fma(f_8x4_u4_p0, 8, 4, u = 4, pf = 0);
    "fma_8x4_u2_pf4" => Avx2Fma(f_8x4_u2_p4, 8, 4, u = 2, pf = 4);
}

/// Look a variant up by its registry id.
pub fn find(id: &str) -> Option<&'static Variant> {
    VARIANTS.iter().find(|v| v.id == id)
}

/// The variants runnable on the current CPU.
pub fn available_variants() -> impl Iterator<Item = &'static Variant> {
    VARIANTS.iter().filter(|v| v.available())
}

/// Textbook reference for one microkernel call (plain nested loops, scalar
/// rounding order) — the oracle the variant family is property-tested
/// against.
pub fn reference_microkernel(mr: usize, nr: usize, kc: usize, pa: &[f64], pb: &[f64]) -> Acc {
    let mut acc = [0.0f64; MR_MAX * NR_MAX];
    for k in 0..kc {
        for r in 0..mr {
            let ar = pa[k * mr + r];
            for c in 0..nr {
                acc[r * nr + c] += ar * pb[k * nr + c];
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_consistent_with_parameters() {
        let mut seen = std::collections::HashSet::new();
        for v in VARIANTS {
            assert!(seen.insert(v.id), "duplicate id {}", v.id);
            assert!(v.id.contains(&format!("{}x{}", v.mr, v.nr)), "{}", v.id);
            assert!(v.id.contains(&format!("_u{}", v.unroll)), "{}", v.id);
            assert!(v.mr <= MR_MAX && v.nr <= NR_MAX);
            assert!(v.nr % 4 == 0, "{}: SIMD lanes need 4 | NR", v.id);
        }
    }

    #[test]
    fn scalar_variants_are_always_available_and_exact() {
        for v in VARIANTS.iter().filter(|v| v.isa == Isa::Scalar) {
            assert!(v.available());
            assert!(v.exact());
        }
        for v in VARIANTS.iter().filter(|v| v.isa == Isa::Avx2Fma) {
            assert!(!v.exact());
        }
    }

    #[test]
    fn the_pr3_microkernel_is_in_the_family() {
        let v = find("scalar_4x8_u1").expect("baseline variant exists");
        assert_eq!((v.mr, v.nr, v.unroll, v.prefetch), (4, 8, 1, 0));
        // And it reproduces the reference on a quick probe.
        let kc = 7;
        let pa: Vec<f64> = (0..kc * 4).map(|x| x as f64 * 0.5 - 1.0).collect();
        let pb: Vec<f64> = (0..kc * 8).map(|x| x as f64 * 0.25 + 0.5).collect();
        let mut c = [0.0; 32];
        let mut rows: Vec<&mut [f64]> = c.chunks_exact_mut(8).collect();
        v.call(kc, &pa, &pb, 1.0, &mut rows);
        let want = reference_microkernel(4, 8, kc, &pa, &pb);
        assert_eq!(c, want[..32]);
    }

    #[test]
    #[should_panic(expected = "packed A panel too short")]
    fn short_panels_are_rejected() {
        let v = find("scalar_4x4_u1").unwrap();
        v.call(3, &[0.0; 4], &[0.0; 16], 1.0, &mut []);
    }
}
