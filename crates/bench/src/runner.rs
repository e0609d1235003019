//! Run one factorization algorithm at one configuration and collect a
//! measurement record.

use dense::flops::{cholesky_total_flops, lu_total_flops};
use dense::gen::{random_matrix, random_spd};
use dense::Matrix;
use factor::confchox::ConfchoxConfig;
use factor::conflux::ConfluxConfig;
use factor::lu25d_swap::{lu25d_swap, SwapLuConfig};
use factor::models::{self, MachineParams};
use factor::twod::TwodConfig;
use factor::{confchox_cholesky, conflux_lu, twod_cholesky, twod_lu};
use serde::Serialize;
use xmpi::WorldStats;
use xtrace::Machine;

/// Algorithms the harness can run or model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[allow(missing_docs)]
pub enum Algo {
    /// COnfLUX (2.5D LU, tournament pivoting + row masking).
    Conflux,
    /// COnfCHOX (2.5D Cholesky).
    Confchox,
    /// 2D partial-pivoting LU — MKL / SLATE stand-in.
    TwodLu,
    /// 2D Cholesky — MKL / SLATE stand-in.
    TwodChol,
    /// 2.5D LU with explicit row swapping — CANDMC-style ablation.
    SwapLu,
}

impl Algo {
    /// Display name, with the library the paper compares it to.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Conflux => "COnfLUX",
            Algo::Confchox => "COnfCHOX",
            Algo::TwodLu => "2D LU (MKL/SLATE)",
            Algo::TwodChol => "2D Chol (MKL/SLATE)",
            Algo::SwapLu => "2.5D LU swap (CANDMC-like)",
        }
    }

    /// Total flops of the factorization this algorithm performs.
    pub fn total_flops(self, n: usize) -> f64 {
        match self {
            Algo::Conflux | Algo::TwodLu | Algo::SwapLu => lu_total_flops(n) as f64,
            Algo::Confchox | Algo::TwodChol => cholesky_total_flops(n) as f64,
        }
    }

    /// The Table 2 model for this algorithm (words per rank).
    pub(crate) fn model_words(self, mp: MachineParams, nb: usize) -> f64 {
        match self {
            Algo::Conflux => models::conflux_model(mp),
            Algo::Confchox => models::confchox_model(mp),
            Algo::TwodLu => models::twod_lu_model(mp, nb),
            Algo::TwodChol => models::twod_cholesky_model(mp, nb),
            Algo::SwapLu => models::candmc_model(mp),
        }
    }
}

/// One measured (or simulated-time) data point.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct Measurement {
    /// Algorithm.
    pub algo: Algo,
    /// Matrix dimension.
    pub n: usize,
    /// Rank count.
    pub p: usize,
    /// Block size used.
    pub block: usize,
    /// Replication depth (1 for 2D schedules).
    pub c: usize,
    /// Mean bytes (sent+received) per rank.
    pub bytes_per_rank: f64,
    /// Maximum bytes (sent+received) over ranks.
    pub bytes_max_rank: f64,
    /// Mean messages sent per rank.
    pub msgs_per_rank: f64,
    /// Simulated time-to-solution (s) under [`Machine`].
    pub sim_time: f64,
    /// Percent of machine peak at that simulated time.
    pub pct_peak: f64,
}

fn measurement(
    algo: Algo,
    n: usize,
    p: usize,
    block: usize,
    c: usize,
    stats: &WorldStats,
    mach: &Machine,
) -> Measurement {
    let bytes_max = stats.max_rank_bytes() as f64;
    let msgs = stats.total_msgs() as f64 / p as f64;
    let flops_rank = algo.total_flops(n) / p as f64;
    let t = mach.rank_time(flops_rank, bytes_max / 2.0, msgs);
    Measurement {
        algo,
        n,
        p,
        block,
        c,
        bytes_per_rank: stats.avg_rank_bytes(),
        bytes_max_rank: bytes_max,
        msgs_per_rank: msgs,
        sim_time: t,
        pct_peak: mach.pct_peak(algo.total_flops(n), p, t),
    }
}

/// Inputs reused across algorithms for one `(n, seed)` workload.
pub(crate) struct Workload {
    /// General matrix for LU.
    pub general: Matrix,
    /// SPD matrix for Cholesky.
    pub spd: Matrix,
}

impl Workload {
    /// Deterministic workload for dimension `n`.
    pub(crate) fn new(n: usize, seed: u64) -> Self {
        Workload {
            general: random_matrix(n, n, seed),
            spd: random_spd(n, seed + 1),
        }
    }
}

/// Run `algo` at `(n, p)` with automatic grid/block selection and measure.
///
/// # Panics
/// If the factorization fails (workloads are generated non-singular).
pub(crate) fn run_algo(
    algo: Algo,
    n: usize,
    p: usize,
    w: &Workload,
    mach: &Machine,
) -> Measurement {
    match algo {
        Algo::Conflux => {
            let cfg = ConfluxConfig::auto(n, p).volume_only();
            let out = conflux_lu(&cfg, &w.general).expect("conflux failed");
            measurement(algo, n, p, cfg.v, cfg.grid.pz, &out.stats, mach)
        }
        Algo::Confchox => {
            let cfg = ConfchoxConfig::auto(n, p).volume_only();
            let out = confchox_cholesky(&cfg, &w.spd).expect("confchox failed");
            measurement(algo, n, p, cfg.v, cfg.grid.pz, &out.stats, mach)
        }
        Algo::TwodLu => {
            let cfg = TwodConfig::auto(n, p).volume_only();
            let out = twod_lu(&cfg, &w.general).expect("2d lu failed");
            measurement(algo, n, p, cfg.nb, 1, &out.stats, mach)
        }
        Algo::TwodChol => {
            let cfg = TwodConfig::auto(n, p).volume_only();
            let out = twod_cholesky(&cfg, &w.spd).expect("2d chol failed");
            measurement(algo, n, p, cfg.nb, 1, &out.stats, mach)
        }
        Algo::SwapLu => {
            let auto = ConfluxConfig::auto(n, p);
            let cfg = SwapLuConfig::new(n, auto.v, auto.grid).volume_only();
            let out = lu25d_swap(&cfg, &w.general).expect("swap lu failed");
            measurement(algo, n, p, cfg.v, cfg.grid.pz, &out.stats, mach)
        }
    }
}

/// Memory-per-rank convention for model evaluation at a measured point:
/// the replication the run actually used, `M = c·N²/P`.
pub(crate) fn used_memory_words(n: usize, p: usize, c: usize) -> f64 {
    (c as f64) * (n as f64) * (n as f64) / p as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_each_algo_smoke() {
        let mach = Machine::piz_daint();
        let w = Workload::new(32, 7);
        for algo in [
            Algo::Conflux,
            Algo::Confchox,
            Algo::TwodLu,
            Algo::TwodChol,
            Algo::SwapLu,
        ] {
            let m = run_algo(algo, 32, 4, &w, &mach);
            assert!(m.sim_time > 0.0, "{algo:?}");
            assert!(
                m.pct_peak > 0.0 && m.pct_peak <= 100.0,
                "{algo:?}: {}",
                m.pct_peak
            );
            if m.p > 1 {
                assert!(m.bytes_per_rank > 0.0, "{algo:?}");
            }
        }
    }

    #[test]
    fn measurement_serializes() {
        let mach = Machine::piz_daint();
        let w = Workload::new(16, 3);
        let m = run_algo(Algo::Conflux, 16, 2, &w, &mach);
        let s = serde_json::to_string(&m).unwrap();
        assert!(s.contains("\"Conflux\""));
    }
}
