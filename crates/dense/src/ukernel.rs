//! The three microkernels behind [`crate::pack`], one per ISA level.
//!
//! * `scalar_4x8_u1` ([`Isa::Scalar`]) — the portable formulation: a `4×8`
//!   register tile in plain Rust that LLVM vectorizes as far as the build's
//!   baseline allows (2-lane SSE2 on `x86-64`). The only kernel on a CPU
//!   without AVX2, and the rounding order every test compares against.
//! * `avx2_6x8_u2_pf0` ([`Isa::Avx2`]) and `avx512_6x16_u2`
//!   ([`Isa::Avx512`]) — one body of explicit `std::arch` intrinsics,
//!   generic over the vector width (4-lane ymm, 8-lane zmm), with separate
//!   multiply and add on a `6 × 2·lanes` tile: 12 accumulators + 2 vectors of
//!   the current B row + 1 broadcast of an A element, the largest tile the 16
//!   ymm registers hold and the same shape in zmm (a `12×16` tile, which the
//!   32 zmm registers would hold, measured level with it: EXPERIMENTS.md,
//!   "Kernel dispatch").
//!   **Bitwise-identical** to the scalar kernel: each `acc[r][c]`
//!   accumulates `a·b` products for ascending `k` with one IEEE rounding per
//!   multiply and one per add, exactly like the scalar loop, just four or
//!   eight lanes at a time (lanes are independent `c` columns, never a
//!   reduction). A fused multiply-add would round once where the scalar
//!   rounds twice, which is why there is no FMA kernel (CI greps `dense` for
//!   one): hosts with and without AVX2 or AVX-512 must produce the same
//!   factor bits.
//!
//! Outside a [`crate::tuning::with_override`] the engine runs the widest
//! level the CPU reports, and that is the whole of dispatch. The two older
//! ids are the names those kernels had in the 57-point grid a per-machine
//! tuner once chose from (EXPERIMENTS.md, "Kernel dispatch"); `benchmark/`
//! records the id in its provenance block, so they stay.
//!
//! All three share one calling convention: multiply an `MR`-row packed A
//! panel by an `NR`-column packed B panel over `kc` steps in registers, then
//! add `α·acc` into `C` *itself* through `MR` row pointers — a vector
//! multiply and a vector add per `C` vector, the same two roundings as the
//! scalar `c += α·acc`, and a row-mapped `C` (see [`crate::gemm_rows`]) costs
//! nothing extra because the rows were never assumed adjacent. Zero-padded
//! edge packing (see [`crate::pack`]) means a kernel never sees a partial
//! tile: a tile that overhangs `C` is computed into a scratch [`Acc`] by the
//! same function and clipped from there (`Kernel::tile`).

/// Rows of the tallest register tile.
pub const MR_MAX: usize = 6;
/// Columns of the widest register tile (AVX-512's `6×16`).
pub const NR_MAX: usize = 16;

/// One `MR×NR` product tile stored row-major with stride equal to the
/// variant's `NR` (the tail of the array is unused for the smaller shapes):
/// what [`reference_microkernel`] returns, and the scratch an edge tile is
/// computed into before it is clipped.
pub type Acc = [f64; MR_MAX * NR_MAX];

/// Instruction-set level of a variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar formulation (LLVM may still autovectorize it).
    Scalar,
    /// Explicit AVX2 intrinsics, separate multiply + add.
    Avx2,
    /// Explicit AVX-512F intrinsics, separate multiply + add.
    Avx512,
}

impl Isa {
    /// Can this ISA level run on the current CPU?
    pub(crate) fn available(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 | Isa::Avx512 => false,
        }
    }

    /// This level's microkernel, if the current CPU can run it — how a test
    /// or a measurement puts a level other than the native one under
    /// [`crate::tuning::with_override`].
    pub fn variant(self) -> Option<&'static Variant> {
        if !self.available() {
            return None;
        }
        match self {
            Isa::Scalar => Some(&SCALAR_4X8),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => Some(&AVX2_6X8),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => Some(&AVX512_6X16),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 | Isa::Avx512 => None,
        }
    }
}

/// Signature shared by the three microkernels: for `r < MR`, `j < NR`,
/// `*c[r].add(col + j) += alpha · Σ_k pa[k·MR + r]·pb[k·NR + j]`.
///
/// # Safety
/// `pa` must hold at least `kc·MR` values and `pb` at least `kc·NR`; each of
/// the first `MR` pointers of `c`, advanced by `col`, must be valid for
/// reads and writes of `NR` values that nothing else accesses during the
/// call; and a SIMD kernel must only run on a CPU where its [`Isa`] is
/// available. [`Variant::kernel`] checks the last once, [`Kernel::tile`]'s
/// callers owe the rest.
type MicroFn =
    unsafe fn(kc: usize, pa: &[f64], pb: &[f64], alpha: f64, c: &[*mut f64; MR_MAX], col: usize);

/// One microkernel: its register tile, what it needs of the CPU, and the
/// function.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Stable identifier: `"scalar_4x8_u1"`, `"avx2_6x8_u2_pf0"` or
    /// `"avx512_6x16_u2"`.
    pub id: &'static str,
    /// Register-tile rows.
    pub mr: usize,
    /// Register-tile columns (a multiple of 4: a SIMD level's is two of its
    /// vectors).
    pub nr: usize,
    /// ISA level.
    pub isa: Isa,
    func: MicroFn,
}

impl Variant {
    /// Is this variant runnable on the current CPU?
    pub(crate) fn available(&self) -> bool {
        self.isa.available()
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

/// The scalar `4×8` kernel. Each `acc[r][c]` is an independent sum
/// accumulated in ascending `k` order with separate multiply and add, then
/// added to `C` as `c += alpha · acc` — the rounding-order contract the SIMD
/// kernels reproduce.
unsafe fn scalar_4x8(
    kc: usize,
    pa: &[f64],
    pb: &[f64],
    alpha: f64,
    c: &[*mut f64; MR_MAX],
    col: usize,
) {
    const MR: usize = 4;
    const NR: usize = 8;
    const UNROLL: usize = 1;
    // Exactly-sized tile: MR×NR doubles fit the SSE register file, so the
    // accumulators live in registers across the whole k loop. A max-sized
    // tile spills to the stack and halves throughput.
    let mut tile = [[0.0f64; NR]; MR];
    // Iterate the panels with `chunks_exact` rather than computed slice
    // indices: the iterator shape is what lets LLVM drop the bounds checks
    // and keep the inner MR×NR loops vectorized (computed `&pa[kk*MR..]`
    // slices measurably halve throughput). The outer chunk is UNROLL
    // k-steps wide with a remainder loop behind it; k order is sequential
    // either way. At UNROLL = 1 neither does anything for the result, but
    // this is the loop every recorded `gemm_scalar` / `tuned_speedup` was
    // measured on: flattened to one `zip`, LLVM unrolls k by two, the
    // scalar rate rises by half on the reference VM and `tuned_speedup`
    // falls from 3.0 to 1.8 (same bits) — a gain for the PR that claims and
    // measures it, not a by-product of this shape.
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

/// The AVX2 `6×8` kernel: [`simd_6x2v`] on 4-lane ymm vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_6x8(
    kc: usize,
    pa: &[f64],
    pb: &[f64],
    alpha: f64,
    c: &[*mut f64; MR_MAX],
    col: usize,
) {
    simd_6x2v::<std::arch::x86_64::__m256d>(kc, pa, pb, alpha, c, col)
}

/// The AVX-512 `6×16` kernel: [`simd_6x2v`] on 8-lane zmm vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_6x16(
    kc: usize,
    pa: &[f64],
    pb: &[f64],
    alpha: f64,
    c: &[*mut f64; MR_MAX],
    col: usize,
) {
    simd_6x2v::<std::arch::x86_64::__m512d>(kc, pa, pb, alpha, c, col)
}

/// One SIMD vector of `f64` lanes and the six operations [`simd_6x2v`] is
/// made of. Add and multiply are separate instructions on purpose: see the
/// module docs.
///
/// # Safety
/// Every method needs a CPU with the vector's ISA level, and the caller's
/// code compiled for it (the methods are inlined into a
/// `#[target_feature]` kernel); `load` and `store` need `N` readable or
/// writable values at `p`.
#[cfg(target_arch = "x86_64")]
trait Lanes: Copy {
    /// Lanes per vector.
    const N: usize;
    unsafe fn zero() -> Self;
    unsafe fn splat(x: f64) -> Self;
    unsafe fn load(p: *const f64) -> Self;
    unsafe fn store(self, p: *mut f64);
    unsafe fn add(self, b: Self) -> Self;
    unsafe fn mul(self, b: Self) -> Self;
}

#[cfg(target_arch = "x86_64")]
impl Lanes for std::arch::x86_64::__m256d {
    const N: usize = 4;
    #[inline(always)]
    unsafe fn zero() -> Self {
        std::arch::x86_64::_mm256_setzero_pd()
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        std::arch::x86_64::_mm256_set1_pd(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        std::arch::x86_64::_mm256_loadu_pd(p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        std::arch::x86_64::_mm256_storeu_pd(p, self)
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        std::arch::x86_64::_mm256_add_pd(self, b)
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        std::arch::x86_64::_mm256_mul_pd(self, b)
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for std::arch::x86_64::__m512d {
    const N: usize = 8;
    #[inline(always)]
    unsafe fn zero() -> Self {
        std::arch::x86_64::_mm512_setzero_pd()
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        std::arch::x86_64::_mm512_set1_pd(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        std::arch::x86_64::_mm512_loadu_pd(p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        std::arch::x86_64::_mm512_storeu_pd(p, self)
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        std::arch::x86_64::_mm512_add_pd(self, b)
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        std::arch::x86_64::_mm512_mul_pd(self, b)
    }
}

/// The body of both SIMD kernels: a `6 × 2·V::N` tile held as two vector
/// accumulators per row (12 in all, plus the 2 vectors of the current B row
/// and 1 broadcast of an A element — 15 registers). Lanes are independent
/// output columns, so there is never a cross-lane reduction and each
/// element keeps the scalar rounding order. The k loop advances two steps
/// at a time (the `u2` of the ids): same order, fewer loop branches.
///
/// Inlined into each `#[target_feature]` entry point, and the split is
/// deliberate: with the intrinsics opaque until this body lands in its
/// caller, LLVM keeps the k loop a two-trip loop with all 12 accumulators
/// in registers; written straight into the `#[target_feature]` function it
/// unrolls both trips and spills one accumulator to the stack every step.
///
/// # Safety
/// That of [`MicroFn`], and the CPU runs `V`'s ISA level.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn simd_6x2v<V: Lanes>(
    kc: usize,
    pa: &[f64],
    pb: &[f64],
    alpha: f64,
    c: &[*mut f64; MR_MAX],
    col: usize,
) {
    const MR: usize = 6;
    const NV: usize = 2;
    const UNROLL: usize = 2;
    let nr = NV * V::N;
    let mut accv = [[V::zero(); NV]; MR];
    let mut k = 0usize;
    while k < kc {
        let steps = if kc - k >= UNROLL { UNROLL } else { 1 };
        for u in 0..steps {
            let kk = k + u;
            let mut bv = [V::zero(); NV];
            for (j, b) in bv.iter_mut().enumerate() {
                *b = V::load(pb.as_ptr().add(kk * nr + V::N * j));
            }
            for (r, accr) in accv.iter_mut().enumerate() {
                let av = V::splat(*pa.get_unchecked(kk * MR + r));
                for (a, &b) in accr.iter_mut().zip(bv.iter()) {
                    *a = a.add(av.mul(b));
                }
            }
        }
        k += steps;
    }
    // C += α·acc, a multiply then an add per vector: it must round as the
    // scalar `c += alpha * acc` does.
    let alphav = V::splat(alpha);
    for (accr, &crow) in accv.iter().zip(c) {
        for (j, &a) in accr.iter().enumerate() {
            let dst = crow.add(col + V::N * j);
            V::load(dst).add(alphav.mul(a)).store(dst);
        }
    }
}

/// The scalar kernel: what a CPU without AVX2 runs, and the forced-scalar
/// baseline ([`crate::tuning::scalar_baseline`]).
pub(crate) static SCALAR_4X8: Variant = Variant {
    id: "scalar_4x8_u1",
    mr: 4,
    nr: 8,
    isa: Isa::Scalar,
    func: scalar_4x8,
};

#[cfg(target_arch = "x86_64")]
static AVX2_6X8: Variant = Variant {
    id: "avx2_6x8_u2_pf0",
    mr: 6,
    nr: 8,
    isa: Isa::Avx2,
    func: avx2_6x8,
};

#[cfg(target_arch = "x86_64")]
static AVX512_6X16: Variant = Variant {
    id: "avx512_6x16_u2",
    mr: 6,
    nr: 16,
    isa: Isa::Avx512,
    func: avx512_6x16,
};

/// The kernel this CPU runs: the widest level it reports.
pub(crate) fn native() -> &'static Variant {
    [Isa::Avx512, Isa::Avx2]
        .into_iter()
        .find_map(Isa::variant)
        .unwrap_or(&SCALAR_4X8)
}

/// Textbook reference for one microkernel call (plain nested loops, scalar
/// rounding order) — the oracle every kernel is property-tested against.
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

    /// Every level, narrowest first.
    const LEVELS: [Isa; 3] = [Isa::Scalar, Isa::Avx2, Isa::Avx512];

    #[test]
    fn ids_are_unique_and_consistent_with_parameters() {
        let runnable: Vec<&Variant> = LEVELS.into_iter().filter_map(Isa::variant).collect();
        for v in &runnable {
            assert!(v.id.contains(&format!("{}x{}", v.mr, v.nr)), "{}", v.id);
            assert!(v.mr <= MR_MAX && v.nr <= NR_MAX);
            assert!(v.nr % 4 == 0, "{}: SIMD lanes need 4 | NR", v.id);
        }
        let mut ids: Vec<_> = runnable.iter().map(|v| v.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), runnable.len(), "{ids:?}");
        for isa in LEVELS {
            assert_eq!(isa.variant().is_some(), isa.available(), "{isa:?}");
            assert!(isa.variant().is_none_or(|v| v.isa == isa), "{isa:?}");
        }
    }

    #[test]
    fn scalar_variants_are_always_available_and_exact() {
        assert!(Isa::Scalar.available() && SCALAR_4X8.available());
        // Exact means: the reference's bits.
        let kc = 7;
        let pa: Vec<f64> = (0..kc * 4).map(|x| x as f64 * 0.5 - 1.0).collect();
        let pb: Vec<f64> = (0..kc * 8).map(|x| x as f64 * 0.25 + 0.5).collect();
        let mut c = [0.0; 32];
        let mut rows: Vec<&mut [f64]> = c.chunks_exact_mut(8).collect();
        SCALAR_4X8.call(kc, &pa, &pb, 1.0, &mut rows);
        let want = reference_microkernel(4, 8, kc, &pa, &pb);
        assert_eq!(c, want[..32]);
    }

    #[test]
    fn the_pr3_microkernel_is_in_the_family() {
        // `benchmark/` records these ids, and every recorded `tuned_speedup`
        // was measured against this baseline shape.
        assert_eq!(
            (SCALAR_4X8.id, SCALAR_4X8.mr, SCALAR_4X8.nr),
            ("scalar_4x8_u1", 4, 8)
        );
        // What runs is the widest level this CPU reports.
        let widest = LEVELS.into_iter().rev().find(|isa| isa.available());
        assert_eq!(Some(native().isa), widest);
        let shape = |v: &Variant| (v.id, v.mr, v.nr);
        let want = match native().isa {
            Isa::Scalar => ("scalar_4x8_u1", 4, 8),
            Isa::Avx2 => ("avx2_6x8_u2_pf0", 6, 8),
            Isa::Avx512 => ("avx512_6x16_u2", 6, 16),
        };
        assert_eq!(shape(native()), want);
    }

    #[test]
    #[should_panic(expected = "packed A panel too short")]
    fn short_panels_are_rejected() {
        SCALAR_4X8.call(3, &[0.0; 4], &[0.0; 16], 1.0, &mut []);
    }
}
