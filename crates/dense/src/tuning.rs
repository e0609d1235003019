//! Kernel dispatch: which [`crate::ukernel::Variant`] and which
//! (KC, MC, NC) cache blocking the packed GEMM engine runs.
//!
//! Every call into the engine (`pack::gemm_packed_rows`, behind
//! [`crate::gemm()`]) asks [`active`], which returns the innermost
//! [`with_override`] on this thread — how tests put small matrices across
//! KC/MC/NC edges and how `plans/kernels.toml` measures the forced-scalar
//! baseline — or else [`default_config`]: the kernel of the widest ISA level
//! the CPU reports (AVX-512 `6×16`, AVX2 `6×8`, else scalar `4×8`), at the
//! blocking constants of [`crate::pack`]. Nothing is read from a file or the
//! environment. The three kernels agree to the bit ([`crate::ukernel`]), so a
//! result does not depend on which machine computed it. How the constants
//! were chosen, and how to re-derive them on new hardware: EXPERIMENTS.md,
//! "Kernel dispatch".
//!
//! Under an override, MC and NC can take any value without moving a bit:
//! they tile the *output*, and each element of `C` belongs to exactly one
//! tile, so its accumulation order never depends on them — nor on the
//! macro-kernel's loop order, which is chosen from `kc·nc`
//! ([`crate::pack`]). KC is different; see [`crate::pack::KC`].

use crate::ukernel::{self, Variant};
use std::cell::Cell;

/// Nothing reads this variable. The constant exists because the frozen
/// `benchmark/src/main.rs` still sets it before its first kernel call;
/// ROADMAP item 1's `[benchmark]` PR deletes it from both ends.
pub const ENV_TUNING_PATH: &str = "CONFLUX_TUNING_PATH";

/// Everything the packed engine needs to run one GEMM: which microkernel,
/// and the three cache-blocking parameters.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// The microkernel variant (defines MR×NR and the inner loop).
    pub variant: &'static Variant,
    /// K-dimension cache block (packed-B panel depth).
    pub kc: usize,
    /// M-dimension cache block (rows of packed A per inner loop).
    pub mc: usize,
    /// N-dimension cache block (columns of packed B per outer loop).
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

/// The forced-scalar baseline: the scalar 4×8 microkernel PR 3 shipped, at
/// the default blocking. This is what the `tuned_speedup` KPI and the
/// forced-scalar benchmark sample measure against, and what a CPU without
/// AVX2 runs.
pub fn scalar_baseline() -> KernelConfig {
    KernelConfig {
        variant: &ukernel::SCALAR_4X8,
        kc: crate::pack::KC,
        mc: crate::pack::MC,
        nc: crate::pack::NC,
    }
}

/// The config every product runs outside a [`with_override`]: the kernel of
/// the widest level this CPU reports (AVX-512 `6×16`, AVX2 `6×8`, else
/// scalar `4×8`; [`crate::ukernel`]) at the blocking of [`scalar_baseline`],
/// so no product's k-grouping, and no bit of any result, depends on which of
/// the three kernels runs.
pub fn default_config() -> KernelConfig {
    KernelConfig {
        variant: ukernel::native(),
        ..scalar_baseline()
    }
}

thread_local! {
    static OVERRIDE: Cell<Option<KernelConfig>> = const { Cell::new(None) };
}

/// The config the packed engine should use on this thread right now: the
/// innermost [`with_override`] if one is active, else [`default_config`].
pub fn active() -> KernelConfig {
    OVERRIDE.with(|o| o.get()).unwrap_or_else(default_config)
}

/// Run `f` with every packed-GEMM call on this thread dispatching `cfg`
/// (the harness's forced-scalar baseline and the blocking-edge tests use
/// this). Overrides nest; the previous config is restored even on panic.
/// A fanned-out [`crate::gemm()`] packs `B` under the caller's override and
/// its Rayon workers run the config the packed operand carries, and
/// [`crate::gemmt`] hands its workers the config it resolved, so parallel
/// kernels honor it too.
pub fn with_override<R>(cfg: KernelConfig, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<KernelConfig>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _guard = Restore(OVERRIDE.with(|o| o.replace(Some(cfg))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_blocking_matches_the_pretuning_constants() {
        // Re-pinned when the default became the 6×8 tile: MC a multiple of
        // 6, NC one full row of the benchmark's updates, KC where it was —
        // the one constant a factor bit depends on.
        let d = default_config();
        assert_eq!((d.kc, d.mc, d.nc), (256, 192, 1024));
        assert_eq!(
            (d.kc, d.mc, d.nc),
            (crate::pack::KC, crate::pack::MC, crate::pack::NC)
        );
        // The kernel is the widest level this CPU reports, and the
        // blocking tiles it evenly.
        use crate::ukernel::Isa;
        let widest = [Isa::Avx512, Isa::Avx2, Isa::Scalar]
            .into_iter()
            .find_map(Isa::variant);
        assert_eq!(Some(d.variant.id), widest.map(|v| v.id));
        assert_eq!(d.mc % d.variant.mr, 0);
        assert_eq!(d.nc % d.variant.nr, 0);
        let s = scalar_baseline();
        assert_eq!(s.variant.id, "scalar_4x8_u1");
        assert_eq!((s.kc, s.mc, s.nc), (d.kc, d.mc, d.nc));
    }

    #[test]
    fn with_override_nests_and_restores() {
        let base = active().variant.id;
        let forced = scalar_baseline();
        with_override(forced, || {
            assert_eq!(active().variant.id, "scalar_4x8_u1");
            let inner = KernelConfig { kc: 999, ..forced };
            with_override(inner, || assert_eq!(active().kc, 999));
            assert_eq!(active().kc, forced.kc);
        });
        assert_eq!(active().variant.id, base);
    }
}
