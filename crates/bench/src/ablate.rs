//! The cell runner.
//!
//! [`run_cell`] is the one way this crate runs a factorization: a
//! [`Cell`] plus an input seed, either *plain* (what the figures and
//! tables do) or *traced* under the seeded [`xharness`] perturbation
//! `TRACE_PERTURB_SEED` (what `trace_report` does — a perturbed run must
//! produce identical traffic, which keeps the deterministic KPIs stable by
//! construction). It is the only code under `crates/bench/src` that builds
//! a factorization config and calls a plain driver (the "One cell runner"
//! rule of `tests/design_rules.rs`); what it returns is already priced, by
//! `kpi::factor_kpis`.
//!
//! A cell whose parameters are structurally invalid on its grid (block size
//! not dividing N, replication not dividing P, …) is an `Err` naming why,
//! so a sweep skips its infeasible corners instead of stopping at the
//! first.

use crate::kpi::{factor_kpis, FactorKpis};
use dense::flops::{cholesky_total_flops, lu_total_flops};
use dense::gen::{random_matrix, random_spd};
use dense::Matrix;
use factor::lu25d_swap::lu25d_swap;
use factor::{
    confchox_cholesky, conflux_lu, twod_cholesky, twod_lu, ConfchoxConfig, ConfluxConfig,
    TwodConfig,
};
use xharness::PerturbConfig;
use xmpi::trace::TraceConfig;
use xmpi::{Grid2, Grid3, WorldStats, WorldTrace};

/// The schedule-perturbation seed of a traced run. A perturbed run moves
/// the same bytes as a plain one, so the seed moves only host-clock
/// numbers.
const TRACE_PERTURB_SEED: u64 = 0;

/// Algorithms the harness can run or model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// The command-line name (`trace_report --algo`).
    pub fn name(self) -> &'static str {
        match self {
            Algo::Conflux => "conflux",
            Algo::Confchox => "confchox",
            Algo::TwodLu => "twod-lu",
            Algo::TwodChol => "twod-chol",
            Algo::SwapLu => "lu25d",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Algo> {
        use Algo::*;
        [Conflux, Confchox, TwodLu, TwodChol, SwapLu]
            .into_iter()
            .find(|a| a.name() == name)
    }

    /// Whether the algorithm factors an SPD input (the rest are LU).
    pub(crate) fn is_cholesky(self) -> bool {
        matches!(self, Algo::Confchox | Algo::TwodChol)
    }

    /// Total flops of the factorization this algorithm performs.
    pub(crate) fn total_flops(self, n: usize) -> f64 {
        if self.is_cholesky() {
            cholesky_total_flops(n) as f64
        } else {
            lu_total_flops(n) as f64
        }
    }
}

/// One factorization to run: an algorithm at a size, on a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The algorithm.
    pub algo: Algo,
    /// Matrix dimension.
    pub n: usize,
    /// Rank count.
    pub p: usize,
    /// Replication depth; 0 = automatic grid selection.
    pub c: usize,
    /// Block size; 0 = automatic.
    pub block: usize,
}

impl Cell {
    /// `algo` at `(n, p)` with automatic grid and block.
    pub fn auto(algo: Algo, n: usize, p: usize) -> Cell {
        Cell {
            algo,
            n,
            p,
            c: 0,
            block: 0,
        }
    }
}

/// Resolve the process grid and block size for a cell, honoring `c` and
/// `block` (`0` = automatic). A replicated grid is `near_square(p/c) × c`;
/// a 2D algorithm's is `near_square(p) × 1`.
fn grid_and_block(cell: &Cell) -> Result<(Grid3, usize), String> {
    let (n, p, c) = (cell.n, cell.p, cell.c);
    let (grid, auto_v) = if matches!(cell.algo, Algo::TwodLu | Algo::TwodChol) {
        if c > 1 {
            return Err(format!("2D algo cannot replicate (c={c})"));
        }
        let auto = TwodConfig::auto(n, p);
        (Grid3::new(auto.grid.rows, auto.grid.cols, 1), Some(auto.nb))
    } else if c == 0 {
        let auto = ConfluxConfig::auto(n, p);
        (auto.grid, Some(auto.v))
    } else {
        if !p.is_multiple_of(c) {
            return Err(format!("replication c={c} does not divide p={p}"));
        }
        let layer = Grid2::near_square(p / c);
        (
            Grid3::new(layer.rows, layer.cols, c),
            factor::choose_block(n, c, (4 * c).max(16)),
        )
    };
    let v = match cell.block {
        0 => auto_v.ok_or_else(|| format!("no valid block size for n={n}, c={c}"))?,
        block => block,
    };
    if !n.is_multiple_of(v) {
        return Err(format!("block v={v} does not divide n={n}"));
    }
    if !v.is_multiple_of(grid.pz) {
        return Err(format!("block v={v} is not a multiple of pz={}", grid.pz));
    }
    Ok((grid, v))
}

/// One executed factorization cell.
pub struct CellRun {
    /// Measured traffic of the run.
    pub stats: WorldStats,
    /// The event trace, for a traced run.
    pub trace: Option<WorldTrace>,
    /// The grid the run used (`rows × cols × 1` for the 2D algorithms).
    pub grid: Grid3,
    /// The block size the run used.
    pub v: usize,
    /// The run's traffic, priced.
    pub(crate) kpis: FactorKpis,
}

/// Run `cell` on the input `input_seed` generates — `random_matrix` at the
/// seed for the LU algorithms, `random_spd` at `seed + 1` for Cholesky; only
/// the one the algorithm reads is built. `traced` records the event trace
/// and perturbs the schedule from `TRACE_PERTURB_SEED`; otherwise the run
/// is plain. `Err` names why the cell is infeasible.
///
/// # Panics
/// If the factorization fails (inputs are generated non-singular).
pub fn run_cell(cell: &Cell, input_seed: u64, traced: bool) -> Result<CellRun, String> {
    let (grid, v) = grid_and_block(cell)?;
    let (algo, n) = (cell.algo, cell.n);
    let a = if algo.is_cholesky() {
        random_spd(n, input_seed + 1)
    } else {
        random_matrix(n, n, input_seed)
    };
    let (stats, trace) = if traced {
        let pert = PerturbConfig::new(TRACE_PERTURB_SEED);
        let (stats, mut traces) = xmpi::trace::capture(TraceConfig::default(), || {
            xharness::run_perturbed(&pert, || plain_stats(algo, n, v, grid, &a))
        });
        (stats, traces.pop())
    } else {
        (plain_stats(algo, n, v, grid, &a), None)
    };
    Ok(CellRun {
        kpis: factor_kpis(algo, n, cell.p, &stats),
        stats,
        trace,
        grid,
        v,
    })
}

fn plain_stats(algo: Algo, n: usize, v: usize, grid: Grid3, a: &Matrix) -> WorldStats {
    match algo {
        Algo::Conflux | Algo::SwapLu => {
            let cfg = ConfluxConfig::new(n, v, grid).volume_only();
            let out = if algo == Algo::SwapLu {
                lu25d_swap(&cfg, a)
            } else {
                conflux_lu(&cfg, a)
            };
            out.expect("lu failed").stats
        }
        Algo::Confchox => {
            let cfg = ConfchoxConfig::new(n, v, grid).volume_only();
            confchox_cholesky(&cfg, a).expect("confchox failed").stats
        }
        Algo::TwodLu | Algo::TwodChol => {
            let cfg = TwodConfig::new(n, v, Grid2::new(grid.px, grid.py)).volume_only();
            if algo == Algo::TwodLu {
                twod_lu(&cfg, a).expect("2d lu failed").stats
            } else {
                twod_cholesky(&cfg, a).expect("2d chol failed").stats
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every algorithm's command-line name parses back to it.
    #[test]
    fn algo_names_round_trip() {
        use Algo::*;
        for algo in [Conflux, Confchox, TwodLu, TwodChol, SwapLu] {
            assert_eq!(Algo::from_name(algo.name()), Some(algo));
        }
        assert_eq!(Algo::from_name("blas"), None);
    }

    /// Both front doors — a figure's plain point and `trace_report`'s traced
    /// cell — reach the same runner and carry the same price, for every
    /// algorithm.
    #[test]
    fn a_figures_point_and_the_traced_cell_agree() {
        use Algo::*;
        for algo in [Conflux, Confchox, TwodLu, TwodChol, SwapLu] {
            let figure = crate::experiments::measure(algo, 32, 4, 77);
            let traced = run_cell(&Cell::auto(algo, 32, 4), 77, true).unwrap();
            assert!(traced.trace.is_some() && figure.trace.is_none(), "{algo:?}");
            let peak = figure.kpis.model_pct_peak;
            assert!(figure.kpis.sim_time > 0.0, "{algo:?}");
            assert!(peak > 0.0 && peak <= 100.0, "{algo:?}: {peak}");
            assert_eq!(figure.stats.max_rank_bytes(), traced.stats.max_rank_bytes());
            let (f, t) = (&figure.kpis, &traced.kpis);
            for (kpi, a, b) in [
                ("sim_time", f.sim_time, t.sim_time),
                ("words_per_rank", f.words_per_rank, t.words_per_rank),
                ("msgs_per_rank", f.msgs_per_rank, t.msgs_per_rank),
                ("model_pct_peak", f.model_pct_peak, t.model_pct_peak),
            ] {
                assert_eq!(a, b, "{algo:?}: {kpi}");
            }
        }
    }

    /// Two perturbation seeds move the same traffic, so the price of a run
    /// does not depend on the seed it was perturbed from.
    #[test]
    fn deterministic_kpis_are_seed_invariant() {
        let cell = Cell::auto(Algo::Conflux, 32, 4);
        let (grid, v) = grid_and_block(&cell).unwrap();
        let a = random_matrix(32, 32, 77);
        let [s0, s3] = [0, 3].map(|seed| {
            xharness::run_perturbed(&PerturbConfig::new(seed), || {
                plain_stats(Algo::Conflux, 32, v, grid, &a)
            })
        });
        assert_eq!(s0.max_rank_bytes(), s3.max_rank_bytes());
        assert_eq!(s0.total_msgs(), s3.total_msgs());
        let [k0, k3] = [&s0, &s3].map(|s| factor_kpis(Algo::Conflux, 32, 4, s));
        for (kpi, a, b) in [
            ("sim_time", k0.sim_time, k3.sim_time),
            ("words_per_rank", k0.words_per_rank, k3.words_per_rank),
            ("msgs_per_rank", k0.msgs_per_rank, k3.msgs_per_rank),
            ("model_pct_peak", k0.model_pct_peak, k3.model_pct_peak),
        ] {
            assert_eq!(a, b, "{kpi} must not depend on the perturbation seed");
        }
    }

    #[test]
    fn tiny_grid_executes_and_extracts_kpis() {
        let run = run_cell(&Cell::auto(Algo::Conflux, 32, 4), 77, true).unwrap();
        assert!(run.kpis.model_pct_peak > 0.0);
        assert!(run.stats.total_bytes_sent() > 0);
        assert!(run.v > 0);
        let tk = xtrace::trace_kpis(run.trace.as_ref().expect("a traced run has a trace"));
        assert!((0.0..=1.0).contains(&tk.idle_frac), "{}", tk.idle_frac);
    }

    /// `experiments::ablations` skips a cell its grid cannot run on this
    /// `Err`.
    #[test]
    fn infeasible_cells_are_skipped_with_reasons() {
        let cell = Cell {
            c: 3, // 3 does not divide p = 4
            ..Cell::auto(Algo::Conflux, 32, 4)
        };
        let err = run_cell(&cell, 77, false).err().expect("infeasible");
        assert!(err.contains("does not divide"), "{err}");
        let cell = Cell {
            block: 24, // 24 does not divide n = 32
            ..Cell::auto(Algo::Conflux, 32, 4)
        };
        let err = run_cell(&cell, 77, false).err().expect("infeasible");
        assert!(err.contains("does not divide"), "{err}");
    }
}
