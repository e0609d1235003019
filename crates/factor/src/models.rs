//! Analytic per-rank I/O cost models — Table 2 of the paper — plus the
//! machine-parameter conventions the experiments share.
//!
//! All models return **words** (multiply by 8 for bytes, as the paper does
//! when plotting). `n` is the matrix dimension, `p` the rank count and `m`
//! the per-rank memory in words. The paper's experiments always grant enough
//! memory for maximal replication (`M ≥ N²/P^(2/3)`, caption of Fig. 8);
//! [`MachineParams::paper_default`] reproduces that convention.
//!
//! Sources:
//! * COnfLUX / COnfCHOX — paper §7.4 (Lemma 10) and Table 1/2:
//!   `N³/(P√M) + O(N²/P)`.
//! * lower bounds — paper §6: `2N³/(3P√M)` (LU), `N³/(3P√M)` (Cholesky);
//!   the closed forms live in `pebbles::bounds`.
//! * MKL / SLATE — 2D partial-pivoting decomposition (paper §9 finds both
//!   behave identically): `≈ N²/√P` row+column panel traffic plus swap and
//!   panel-broadcast terms.
//! * CANDMC — Solomonik & Demmel's model, quoted by the paper as
//!   `5N³/(P√M)` ("COnfLUX communicates five times less").

/// Machine/problem parameters shared by the model functions.
#[derive(Debug, Clone, Copy)]
pub struct MachineParams {
    /// Matrix dimension `N`.
    pub n: usize,
    /// Number of ranks `P`.
    pub p: usize,
    /// Per-rank memory `M` in words.
    pub m: f64,
}

impl MachineParams {
    /// The paper's convention: enough memory for maximum replication
    /// `c = P^(1/3)`, i.e. `M = N²/P^(2/3)` (Fig. 8 caption).
    pub fn paper_default(n: usize, p: usize) -> Self {
        let m = (n as f64).powi(2) / (p as f64).powf(2.0 / 3.0);
        MachineParams { n, p, m }
    }

    /// Explicit memory (words per rank).
    pub fn with_memory(n: usize, p: usize, m: f64) -> Self {
        MachineParams { n, p, m }
    }

    /// Replication factor this memory affords: `c = P·M/N²`, at least 1.
    pub fn replication(&self) -> f64 {
        (self.p as f64 * self.m / (self.n as f64).powi(2)).max(1.0)
    }
}

fn cube(n: usize) -> f64 {
    (n as f64).powi(3)
}

fn sq(n: usize) -> f64 {
    (n as f64).powi(2)
}

/// COnfLUX cost model (paper Lemma 10): `N³/(P√M) + O(N²/P)`; the
/// second-order constant follows from summing the per-step `O(Nv/P)` terms
/// (pivot-row reduction, `A00` broadcasts) to `≈ 5N²/(2P)`.
pub fn conflux_model(mp: MachineParams) -> f64 {
    cube(mp.n) / (mp.p as f64 * mp.m.sqrt()) + 2.5 * sq(mp.n) / mp.p as f64
}

/// COnfCHOX cost model: Table 1 shows the same leading communication term
/// as COnfLUX (the symmetric update halves computation, not input volume),
/// restricted to the lower triangle for the panel terms.
pub fn confchox_model(mp: MachineParams) -> f64 {
    cube(mp.n) / (mp.p as f64 * mp.m.sqrt()) + 2.0 * sq(mp.n) / mp.p as f64
}

/// 2D partial-pivoting LU (MKL / SLATE): with a `√P×√P` grid and block size
/// `nb`, per-rank volume `≈ N²/√P` for each of the two panel-broadcast
/// directions (halved by the shrinking trailing matrix), plus `N·nb` panel
/// column broadcasts and `2N²/P` row swaps.
pub fn twod_lu_model(mp: MachineParams, nb: usize) -> f64 {
    let sp = (mp.p as f64).sqrt();
    sq(mp.n) / sp + (mp.n as f64) * nb as f64 + 2.0 * sq(mp.n) / mp.p as f64
}

/// 2D Cholesky (MKL / SLATE): same structure without pivot search or swaps,
/// on the lower triangle.
pub fn twod_cholesky_model(mp: MachineParams, nb: usize) -> f64 {
    0.5 * sq(mp.n) / (mp.p as f64).sqrt() + (mp.n as f64) * nb as f64
}

/// CANDMC 2.5D LU model as quoted by the paper: `5N³/(P√M)`.
pub fn candmc_model(mp: MachineParams) -> f64 {
    5.0 * cube(mp.n) / (mp.p as f64 * mp.m.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebbles::bounds::{cholesky_io_lower_bound, lu_io_lower_bound};

    #[test]
    fn conflux_is_1_5x_the_lu_lower_bound_leading_term() {
        // Small M relative to N so the N²/P terms vanish (√M/N → 0):
        // ratio → 3/2 (paper §7.4).
        let mp = MachineParams::with_memory(1 << 20, 64, 1e6);
        let ratio = conflux_model(mp) / lu_io_lower_bound(mp.n, mp.p, mp.m);
        assert!((ratio - 1.5).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn candmc_is_5x_conflux_leading_term() {
        let mp = MachineParams::with_memory(1 << 20, 64, 1e6);
        let ratio = candmc_model(mp) / conflux_model(mp);
        assert!((ratio - 5.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn conflux_beats_2d_at_scale_but_not_tiny_p() {
        // The paper's motivation: 2.5D wins clearly at large P.
        let big = MachineParams::paper_default(1 << 16, 4096);
        assert!(conflux_model(big) < twod_lu_model(big, 256));
        // Weak-scaling shape: at fixed work per node the 2D model grows
        // with P while 2.5D stays flat (Fig. 8b).
        let mp1 = MachineParams::paper_default(3200, 1);
        let mp64 = MachineParams::paper_default(3200 * 4, 64); // N=3200·∛64
        let r2d = twod_lu_model(mp64, 128) / twod_lu_model(mp1, 128);
        let r25d = conflux_model(mp64) / conflux_model(mp1);
        assert!(r25d < r2d, "2.5D must weak-scale better: {r25d} vs {r2d}");
    }

    #[test]
    fn replication_factor() {
        let mp = MachineParams::paper_default(1024, 64);
        assert!((mp.replication() - 4.0).abs() < 1e-9, "c = P^(1/3) = 4");
        let flat = MachineParams::with_memory(1024, 64, 1024.0 * 1024.0 / 64.0);
        assert!((flat.replication() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cholesky_lower_bound_is_half_of_lu_leading() {
        let mp = MachineParams::with_memory(1 << 20, 64, 1e6);
        let r = lu_io_lower_bound(mp.n, mp.p, mp.m) / cholesky_io_lower_bound(mp.n, mp.p, mp.m);
        assert!((r - 2.0).abs() < 0.05, "ratio {r}");
    }
}
