//! The one place a measured run is priced.
//!
//! [`FactorKpis`] are the deterministic numbers of one factorization run:
//!
//! | field | definition |
//! |---|---|
//! | `sim_time` | α-β-γ rank time on the busiest rank (s) |
//! | `model_pct_peak` | `% of P·γ` at the simulated time |
//! | `words_per_rank` | `avg (sent+recv)/2` per rank, in 8-byte words |
//! | `msgs_per_rank` | mean messages sent per rank |
//!
//! The two time-derived numbers are *modelled*: bytes and messages are
//! measured by the runtime, flops are the analytic counts, and time is
//! [`xtrace::Machine`]'s `T = flops/γ + bytes/β + messages·α` over them —
//! their names say so. [`factor_kpis`] is the only caller of
//! `Machine::rank_time` / `pct_peak` in this crate (the "One cell runner"
//! rule of `tests/design_rules.rs`): every figure, table and sweep reads
//! its result.
//!
//! Each is a pure function of the measured traffic and the analytic
//! machine model, so it is bit-stable across runs of the same commit — and
//! pinned exactly where it matters: per-rank bytes by
//! `results/golden_volumes.json`, the priced figures by the committed
//! `results/` files CI regenerates.

use crate::ablate::Algo;
use xmpi::WorldStats;
use xtrace::Machine;

/// One measured run priced under the α-β-γ model: the deterministic
/// numbers figures and tables read.
pub(crate) struct FactorKpis {
    /// α-β-γ time of the busiest rank, in seconds.
    pub sim_time: f64,
    pub model_pct_peak: f64,
    pub words_per_rank: f64,
    pub msgs_per_rank: f64,
}

/// Price one run of `algo` at `(n, p)`: flops from the analytic counts,
/// bytes and messages as measured, time from [`Machine::piz_daint`] over
/// them.
pub(crate) fn factor_kpis(algo: Algo, n: usize, p: usize, stats: &WorldStats) -> FactorKpis {
    let mach = Machine::piz_daint();
    let flops_total = algo.total_flops(n);
    let msgs = stats.total_msgs() as f64 / p as f64;
    let t = mach.rank_time(
        flops_total / p as f64,
        stats.max_rank_bytes() as f64 / 2.0,
        msgs,
    );
    FactorKpis {
        sim_time: t,
        model_pct_peak: mach.pct_peak(flops_total, p, t),
        words_per_rank: stats.avg_rank_bytes() / 16.0,
        msgs_per_rank: msgs,
    }
}

#[cfg(test)]
mod tests {
    use crate::ablate::{run_cell, Algo, Cell};

    #[test]
    fn factor_kpis_are_complete_and_positive() {
        let k = run_cell(&Cell::auto(Algo::Conflux, 32, 4), 7, false)
            .unwrap()
            .kpis;
        for (name, v) in [
            ("sim_time", k.sim_time),
            ("model_pct_peak", k.model_pct_peak),
            ("words_per_rank", k.words_per_rank),
            ("msgs_per_rank", k.msgs_per_rank),
        ] {
            assert!(v > 0.0, "{name} = {v}");
        }
        assert!(k.model_pct_peak <= 100.0);
    }
}
