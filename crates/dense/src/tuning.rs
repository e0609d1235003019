//! Kernel dispatch: which [`crate::ukernel::Variant`] the packed GEMM
//! engine runs.
//!
//! Every call into the engine (`pack::gemm_packed_rows`, behind
//! [`crate::gemm()`]) asks [`active`], which names the innermost
//! [`with_override`] on this thread — how `floors kernels` measures the
//! forced-scalar baseline and how tests put each microkernel under a product
//! — or else the kernel of the widest ISA level the CPU reports (AVX-512
//! `6×16`, AVX2 `6×8`, else scalar `4×8`). Nothing is read from a file or the
//! environment. The three kernels agree to the bit ([`crate::ukernel`]), so a
//! result does not depend on which machine computed it.
//!
//! The cache blocking is not dispatched: it is the constants
//! [`crate::pack::KC`], [`crate::pack::MC`] and [`crate::pack::NC`], which
//! [`active`] only reports. How they were chosen, and how to re-derive them
//! on new hardware: EXPERIMENTS.md, "Kernel dispatch".

use crate::ukernel::{self, Variant};
use std::cell::Cell;

/// Nothing reads this variable. The constant exists because the frozen
/// `benchmark/src/main.rs` still sets it before its first kernel call;
/// ROADMAP item 1's `[benchmark]` PR deletes it from both ends.
pub const ENV_TUNING_PATH: &str = "CONFLUX_TUNING_PATH";

/// What the packed engine runs on this thread: the microkernel, and the
/// three cache-blocking constants of [`crate::pack`] it runs at.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// The microkernel variant (defines MR×NR and the inner loop).
    pub variant: &'static Variant,
    /// K-dimension cache block ([`crate::pack::KC`]).
    pub kc: usize,
    /// M-dimension cache block ([`crate::pack::MC`]).
    pub mc: usize,
    /// N-dimension cache block ([`crate::pack::NC`]).
    pub nc: usize,
}

impl KernelConfig {
    /// One-line human-readable form, e.g.
    /// `avx512_6x16_u2 kc=256 mc=192 nc=1024`.
    pub fn describe(&self) -> String {
        format!(
            "{} kc={} mc={} nc={}",
            self.variant.id, self.kc, self.mc, self.nc
        )
    }
}

/// The forced-scalar baseline: the scalar 4×8 microkernel. This is what the
/// `tuned_speedup` KPI and the forced-scalar benchmark sample measure
/// against, and what a CPU without AVX2 runs.
pub fn scalar_baseline() -> &'static Variant {
    &ukernel::SCALAR_4X8
}

thread_local! {
    static OVERRIDE: Cell<Option<&'static Variant>> = const { Cell::new(None) };
}

/// What the packed engine runs on this thread right now: the innermost
/// [`with_override`]'s microkernel if one is active, else the widest this
/// CPU reports, at the blocking of [`crate::pack`].
pub fn active() -> KernelConfig {
    KernelConfig {
        variant: OVERRIDE.with(Cell::get).unwrap_or_else(ukernel::native),
        kc: crate::pack::KC,
        mc: crate::pack::MC,
        nc: crate::pack::NC,
    }
}

/// Run `f` with every packed-GEMM call on this thread dispatching `variant`
/// (the forced-scalar baseline, the cross-kernel tests). Overrides nest; the
/// previous one is restored even on panic. A fanned-out product's pool
/// workers run the kernel its caller resolved ([`crate::gemm()`]).
pub fn with_override<R>(variant: &'static Variant, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<&'static Variant>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _guard = Restore(OVERRIDE.with(|o| o.replace(Some(variant))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_override_nests_and_restores() {
        let base = active().variant.id;
        let avx2 = crate::ukernel::Isa::Avx2.variant();
        with_override(scalar_baseline(), || {
            assert_eq!(active().variant.id, "scalar_4x8_u1");
            if let Some(avx2) = avx2 {
                with_override(avx2, || assert_eq!(active().variant.id, avx2.id));
            }
            assert_eq!(active().variant.id, "scalar_4x8_u1");
        });
        assert_eq!(active().variant.id, base);
    }
}
