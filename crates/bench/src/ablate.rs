//! The cell runner and the ablation driver.
//!
//! [`run_cell`] is the one way this crate runs a factorization: a
//! [`Cell`] plus an input seed, either *plain* (what the figures and
//! tables do) or *traced* under the seeded [`xharness`] perturbation
//! `Cell::seed` names (what plan cells and `trace_report` do — the
//! perturbation seed matrix is an ordinary sweep axis; a perturbed run must
//! produce identical traffic, which keeps the deterministic KPIs stable by
//! construction). It is the only code under `crates/bench/src` that builds
//! a factorization config and calls a plain driver (the "One cell runner"
//! rule of `tests/design_rules.rs`); what it returns is already priced, by
//! `kpi::factor_kpis`.
//!
//! [`run_ablation`] executes a plan's grid through it and extracts KPI
//! records. Cells whose parameters are structurally invalid on this grid
//! (block size not dividing N, replication not dividing P, …) are *skipped
//! with a reason*, mirroring how the hand-written sweeps handled infeasible
//! corners — a sweep engine that errors out on the first infeasible corner
//! cannot sweep.

use crate::kpi::{comm_kpis, factor_kpis, kernel_kpis, transport_kpis, Algo, FactorKpis};
use crate::plan::{AblationPlan, Cell, PlanWorkload};
use dense::gen::{random_matrix, random_spd};
use dense::Matrix;
use factor::lu25d_swap::lu25d_swap;
use factor::{
    confchox_cholesky, confchox_cholesky_ft, conflux_lu, conflux_lu_ft, twod_cholesky, twod_lu,
    ConfchoxConfig, ConfluxConfig, FtConfig, TwodConfig,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use xharness::PerturbConfig;
use xmpi::trace::TraceConfig;
use xmpi::{Grid2, Grid3, WorldStats, WorldTrace};

/// Input-matrix seed of every plan cell: fixed so the workload — and
/// therefore every deterministic KPI — is comparable across commits. (The
/// `seed` axis perturbs the *schedule*, never the input.)
const INPUT_SEED: u64 = 77;

/// One executed cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The grid point.
    pub cell: Cell,
    /// Extracted KPI record.
    pub kpis: BTreeMap<String, f64>,
}

/// Result of executing a plan.
#[derive(Debug, Clone, Default)]
pub struct AblationRun {
    /// Plan name.
    pub plan: String,
    /// Plan hash.
    pub plan_hash: String,
    /// Executed cells, in grid order.
    pub outcomes: Vec<CellOutcome>,
    /// Infeasible/failed cells with reasons.
    pub skipped: Vec<(String, String)>,
}

impl AblationRun {
    /// Outcomes as `(cell id, kpis)` pairs, the shape the trend checker
    /// consumes.
    pub fn id_outcomes(&self) -> Vec<(String, BTreeMap<String, f64>)> {
        self.outcomes
            .iter()
            .map(|o| (o.cell.id(), o.kpis.clone()))
            .collect()
    }
}

/// Execute every cell of `plan`.
pub fn run_ablation(plan: &AblationPlan) -> AblationRun {
    let mut run = AblationRun {
        plan: plan.name.clone(),
        plan_hash: plan.hash(),
        ..AblationRun::default()
    };
    for cell in plan.cells() {
        let outcome = catch_unwind(AssertUnwindSafe(|| match plan.workload {
            PlanWorkload::Factor => factor_cell_kpis(&cell),
            micro => run_micro_cell(micro, &cell, plan.reps),
        }));
        match outcome {
            Ok(Ok(kpis)) => run.outcomes.push(CellOutcome { cell, kpis }),
            Ok(Err(reason)) => run.skipped.push((cell.id(), reason)),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".to_string());
                run.skipped.push((cell.id(), format!("panicked: {msg}")));
            }
        }
    }
    run
}

/// Resolve the process grid and block size for a cell, honoring the `c`
/// and `block` axes (`0` = automatic). A replicated grid is
/// `near_square(p/c) × c`; a 2D algorithm's is `near_square(p) × 1`.
fn grid_and_block(cell: &Cell, algo: Algo) -> Result<(Grid3, usize), String> {
    let (n, p, c) = (cell.n, cell.p, cell.c);
    let (grid, auto_v) = if matches!(algo, Algo::TwodLu | Algo::TwodChol) {
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
    /// Checksummed cells only: ABFT bytes over the unprotected twin − 1.
    pub checksum_byte_overhead: Option<f64>,
    /// The run's traffic, priced.
    pub(crate) kpis: FactorKpis,
}

/// Run `cell` on the input `input_seed` generates — `random_matrix` at the
/// seed for the LU algorithms, `random_spd` at `seed + 1` for Cholesky; only
/// the one the algorithm reads is built. `traced` records the event trace
/// and perturbs the schedule from `cell.seed`; otherwise the run is plain.
/// `Err` names why the cell is infeasible.
///
/// # Panics
/// If the factorization fails (inputs are generated non-singular).
pub fn run_cell(cell: &Cell, input_seed: u64, traced: bool) -> Result<CellRun, String> {
    let algo = Algo::from_name(&cell.algo).ok_or_else(|| format!("unknown algo {}", cell.algo))?;
    if cell.checksum && !matches!(algo, Algo::Conflux | Algo::Confchox) {
        return Err(format!(
            "checksum axis needs conflux|confchox, not {}",
            cell.algo
        ));
    }
    let (grid, v) = grid_and_block(cell, algo)?;
    let n = cell.n;
    let a = if algo.is_cholesky() {
        random_spd(n, input_seed + 1)
    } else {
        random_matrix(n, n, input_seed)
    };
    let pert = PerturbConfig::new(cell.seed);
    let factor = |checksums: bool| {
        if cell.checksum {
            ft_stats(algo, n, v, grid, checksums, &a)
        } else {
            plain_stats(algo, n, v, grid, &a)
        }
    };
    let (stats, trace) = if traced {
        let (stats, mut traces) = xmpi::trace::capture(TraceConfig::default(), || {
            xharness::run_perturbed(&pert, || factor(true))
        });
        (stats, traces.pop())
    } else {
        (factor(true), None)
    };
    // The ABFT byte tax: the same cell with checksums off, outside the trace.
    let checksum_byte_overhead = if cell.checksum {
        let twin = if traced {
            xharness::run_perturbed(&pert, || factor(false))
        } else {
            factor(false)
        };
        let plain = twin.avg_rank_bytes();
        (plain > 0.0).then(|| stats.avg_rank_bytes() / plain - 1.0)
    } else {
        None
    };
    Ok(CellRun {
        kpis: factor_kpis(algo, n, cell.p, grid.pz, &stats),
        stats,
        trace,
        grid,
        v,
        checksum_byte_overhead,
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

/// The ABFT fault-tolerant path, with or without its checksums.
fn ft_stats(
    algo: Algo,
    n: usize,
    v: usize,
    grid: Grid3,
    checksums: bool,
    a: &Matrix,
) -> WorldStats {
    let mut cfg = FtConfig::new(n, v, grid).checkpoint_every(0);
    if !checksums {
        cfg = cfg.no_checksums();
    }
    let mut report = match algo {
        Algo::Conflux => conflux_lu_ft(&cfg, a).expect("ft lu failed").report,
        _ => {
            confchox_cholesky_ft(&cfg, a)
                .expect("ft chol failed")
                .report
        }
    };
    report.attempt_stats.pop().expect("one attempt")
}

/// The KPI record of one factor-workload plan cell: traced, on the plans'
/// fixed input.
pub fn factor_cell_kpis(cell: &Cell) -> Result<BTreeMap<String, f64>, String> {
    Ok(run_cell(cell, INPUT_SEED, true)?.record())
}

/// A microbenchmark cell (`kernels`, `comm` or `transport` workload): run
/// the experiment at the cell's `(n, p)` — for the two transport workloads
/// `n` is the message size in f64 elements — persist its full report under
/// `results/` for the CI artifact upload, and pull the cell's KPI record.
///
/// The transport workload's socket half forks its rank processes from the
/// measuring call; they ship their timings home and never return into this
/// function, so only this process writes the report.
fn run_micro_cell(
    workload: PlanWorkload,
    cell: &Cell,
    reps: usize,
) -> Result<BTreeMap<String, f64>, String> {
    use crate::experiments::{comm::comm, kernels::kernels, transport::transport};
    let (name, n, p) = (workload.name(), cell.n, cell.p);
    if workload != PlanWorkload::Kernels && p < 2 {
        return Err(format!("{name} cells need p >= 2, got p={p}"));
    }
    // `needs`: the KPI a report that covers this cell cannot lack.
    let (report, kpis, needs) = match workload {
        PlanWorkload::Kernels => {
            let report = kernels(&[n], reps);
            let kpis = kernel_kpis(&report.json, n);
            (report, kpis, "gflops_gemm")
        }
        PlanWorkload::Comm => {
            let report = comm(&[p], &[n], reps);
            let kpis = comm_kpis(&report.json, n, p);
            (report, kpis, "bcast_speedup")
        }
        _ => {
            let report = transport(&[p], &[n], reps);
            let kpis = transport_kpis(&report.json, n, p);
            (report, kpis, "alpha_socket_us")
        }
    };
    report.save();
    if !kpis.contains_key(needs) {
        return Err(format!("{name} report has no {needs} at n={n}, p={p}"));
    }
    Ok(kpis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::parse_toml;

    fn tiny_plan(extra: &str) -> AblationPlan {
        tiny_plan_of("conflux", extra)
    }

    fn tiny_plan_of(algo: &str, extra: &str) -> AblationPlan {
        let text = format!(
            r#"
name = "tiny"
workload = "factor"
[axes]
algo = ["{algo}"]
n = [32]
p = [4]
{extra}
"#
        );
        AblationPlan::from_value(&parse_toml(&text).unwrap()).unwrap()
    }

    /// Both front doors — a figure's call and the one-cell plan — reach the
    /// same runner and the same price, for every algorithm.
    #[test]
    fn a_figures_point_and_the_equivalent_plan_cell_agree() {
        use Algo::*;
        for algo in [Conflux, Confchox, TwodLu, TwodChol, SwapLu] {
            let run = crate::experiments::measure(algo, 32, 4, INPUT_SEED);
            let peak = run.kpis.model_pct_peak;
            assert!(run.kpis.sim_time > 0.0, "{algo:?}");
            assert!(peak > 0.0 && peak <= 100.0, "{algo:?}: {peak}");
            let figure = run.record();

            let ablation = run_ablation(&tiny_plan_of(algo.name(), ""));
            assert_eq!(ablation.outcomes.len(), 1, "{:?}", ablation.skipped);
            for kpi in [
                "words_per_rank",
                "msgs_per_rank",
                "sim_time_ms",
                "model_gflops",
                "model_pct_peak",
            ] {
                let plan = ablation.outcomes[0].kpis[kpi];
                assert_eq!(figure[kpi], plan, "{algo:?}: {kpi}");
            }
        }
    }

    #[test]
    fn tiny_grid_executes_and_extracts_kpis() {
        let run = run_ablation(&tiny_plan(""));
        assert_eq!(run.outcomes.len(), 1, "skipped: {:?}", run.skipped);
        let kpis = &run.outcomes[0].kpis;
        assert!(kpis["model_gflops"] > 0.0);
        assert!(kpis["comm_factor"] >= 1.0);
        assert!(kpis.contains_key("idle_frac"), "trace KPIs present");
        assert!(kpis["v_used"] > 0.0);
    }

    #[test]
    fn deterministic_kpis_are_seed_invariant() {
        let plan = tiny_plan("seed = [0, 3]");
        let run = run_ablation(&plan);
        assert_eq!(run.outcomes.len(), 2, "skipped: {:?}", run.skipped);
        for kpi in [
            "model_gflops",
            "words_per_rank",
            "msgs_per_rank",
            "comm_factor",
        ] {
            assert_eq!(
                run.outcomes[0].kpis[kpi], run.outcomes[1].kpis[kpi],
                "{kpi} must not depend on the perturbation seed"
            );
        }
    }

    #[test]
    fn infeasible_cells_are_skipped_with_reasons() {
        let plan = tiny_plan("c = [3]"); // 3 does not divide p=4
        let run = run_ablation(&plan);
        assert!(run.outcomes.is_empty());
        assert_eq!(run.skipped.len(), 1);
        assert!(
            run.skipped[0].1.contains("does not divide"),
            "{:?}",
            run.skipped
        );
    }

    #[test]
    fn comm_cells_run_the_microbenchmark_and_record_the_speedup() {
        let text = r#"
name = "comm-unit"
workload = "comm"
[axes]
n = [256]
p = [4]
[fixed]
reps = 1
"#;
        let plan = AblationPlan::from_value(&parse_toml(text).unwrap()).unwrap();
        let run = run_ablation(&plan);
        assert_eq!(run.outcomes.len(), 1, "skipped: {:?}", run.skipped);
        let kpis = &run.outcomes[0].kpis;
        assert!(kpis["bcast_speedup"] > 0.0);
        assert!(kpis["bcast_tree_us"] > 0.0);
        assert!(kpis["p2p_latency_us"] > 0.0);
    }

    #[test]
    fn checksummed_cells_report_the_byte_tax() {
        let plan = tiny_plan("checksum = [true]");
        let run = run_ablation(&plan);
        assert_eq!(run.outcomes.len(), 1, "skipped: {:?}", run.skipped);
        let tax = run.outcomes[0].kpis["checksum_byte_overhead"];
        assert!(tax > 0.0 && tax < 1.0, "tax = {tax}");
    }
}
