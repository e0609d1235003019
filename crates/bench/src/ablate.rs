//! The ablation driver: execute a plan's grid through the existing
//! `runner` + [`xtrace::Machine`] measurement path and
//! extract KPI records.
//!
//! Every factor cell runs the real simulated factorization — traced (for
//! the schedule KPIs) and under a seeded [`xharness`] perturbation (so the
//! perturbation seed matrix is an ordinary sweep axis; a perturbed run must
//! produce identical traffic, which keeps the deterministic KPIs stable by
//! construction). Cells whose parameters are structurally invalid on this
//! grid (block size not dividing N, replication not dividing P, …) are
//! *skipped with a reason*, mirroring how the hand-written sweeps handled
//! infeasible corners — a sweep engine that errors out on the first
//! infeasible corner cannot sweep.

use crate::kpi::{algo_from_name, comm_kpis, factor_kpis, kernel_kpis, transport_kpis};
use crate::plan::{AblationPlan, Cell, PlanWorkload};
use crate::runner::{Algo, Workload};
use factor::lu25d_swap::{lu25d_swap, SwapLuConfig};
use factor::{
    confchox_cholesky, confchox_cholesky_ft, conflux_lu, conflux_lu_ft, twod_cholesky, twod_lu,
    ConfchoxConfig, ConfluxConfig, FtConfig, TwodConfig,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use xharness::PerturbConfig;
use xmpi::trace::TraceConfig;
use xmpi::{Grid2, Grid3, WorldStats, WorldTrace};
use xtrace::Machine;

/// Input-matrix seed: fixed so the workload — and therefore every
/// deterministic KPI — is comparable across commits. (The `seed` axis
/// perturbs the *schedule*, never the input.)
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
    let mach = Machine::piz_daint();
    let mut run = AblationRun {
        plan: plan.name.clone(),
        plan_hash: plan.hash(),
        ..AblationRun::default()
    };
    for cell in plan.cells() {
        let outcome = catch_unwind(AssertUnwindSafe(|| match plan.workload {
            PlanWorkload::Factor => run_factor_cell(&cell, &mach),
            PlanWorkload::Kernels => run_kernel_cell(&cell, plan.reps),
            PlanWorkload::Comm => run_comm_cell(&cell, plan.reps),
            PlanWorkload::Transport => run_transport_cell(&cell, plan.reps),
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

/// Resolve the 2.5D grid and block size for a cell, honoring the `c` and
/// `block` axes (`0` = automatic).
fn grid_and_block(cell: &Cell) -> Result<(Grid3, usize), String> {
    let (n, p) = (cell.n, cell.p);
    if cell.c == 0 {
        let auto = ConfluxConfig::auto(n, p);
        let (grid, mut v) = (auto.grid, auto.v);
        if cell.block > 0 {
            v = cell.block;
        }
        validate(n, v, grid)?;
        return Ok((grid, v));
    }
    let c = cell.c;
    if !p.is_multiple_of(c) {
        return Err(format!("replication c={c} does not divide p={p}"));
    }
    let layer = Grid2::near_square(p / c);
    if c > layer.rows.min(layer.cols) {
        return Err(format!(
            "replication c={c} exceeds the layer grid {}x{}",
            layer.rows, layer.cols
        ));
    }
    let grid = Grid3::new(layer.rows, layer.cols, c);
    let v = if cell.block > 0 {
        cell.block
    } else {
        factor::choose_block(n, c, (4 * c).max(16))
            .ok_or_else(|| format!("no valid block size for n={n}, c={c}"))?
    };
    validate(n, v, grid)?;
    Ok((grid, v))
}

fn validate(n: usize, v: usize, grid: Grid3) -> Result<(), String> {
    if v == 0 || !n.is_multiple_of(v) {
        return Err(format!("block v={v} does not divide n={n}"));
    }
    if !v.is_multiple_of(grid.pz) {
        return Err(format!("block v={v} is not a multiple of pz={}", grid.pz));
    }
    Ok(())
}

fn run_factor_cell(cell: &Cell, mach: &Machine) -> Result<BTreeMap<String, f64>, String> {
    let algo = algo_from_name(&cell.algo).ok_or_else(|| format!("unknown algo {}", cell.algo))?;
    let w = Workload::new(cell.n, INPUT_SEED);
    let pert = PerturbConfig::new(cell.seed);

    let (stats, trace, extra) = if cell.checksum {
        run_checksummed(cell, algo, &w, &pert)?
    } else {
        run_plain(cell, algo, &w, &pert)?
    };

    let c_used = match algo {
        Algo::TwodLu | Algo::TwodChol => 1,
        _ => grid_and_block(cell)?.0.pz,
    };
    let mut kpis = factor_kpis(algo, cell.n, cell.p, c_used, &stats, trace.as_ref(), mach);
    kpis.insert("c_used".into(), c_used as f64);
    kpis.extend(extra);
    Ok(kpis)
}

type CellRun = (WorldStats, Option<WorldTrace>, BTreeMap<String, f64>);

fn run_plain(
    cell: &Cell,
    algo: Algo,
    w: &Workload,
    pert: &PerturbConfig,
) -> Result<CellRun, String> {
    let (n, p) = (cell.n, cell.p);
    let run = |f: Box<dyn FnOnce() -> (WorldStats, f64) + '_>| {
        let ((stats, v_used), mut traces) =
            xharness::run_perturbed_traced(pert, TraceConfig::default(), f);
        let trace = traces.pop();
        let mut extra = BTreeMap::new();
        extra.insert("v_used".to_string(), v_used);
        (stats, trace, extra)
    };
    Ok(match algo {
        Algo::Conflux => {
            let (grid, v) = grid_and_block(cell)?;
            let mut cfg = ConfluxConfig::new(n, v, grid).volume_only();
            if !cell.lookahead {
                cfg = cfg.blocking();
            }
            run(Box::new(move || {
                let out = conflux_lu(&cfg, &w.general).expect("conflux failed");
                (out.stats, v as f64)
            }))
        }
        Algo::Confchox => {
            let (grid, v) = grid_and_block(cell)?;
            let mut cfg = ConfchoxConfig::new(n, v, grid).volume_only();
            if !cell.lookahead {
                cfg = cfg.blocking();
            }
            run(Box::new(move || {
                let out = confchox_cholesky(&cfg, &w.spd).expect("confchox failed");
                (out.stats, v as f64)
            }))
        }
        Algo::SwapLu => {
            let (grid, v) = grid_and_block(cell)?;
            let cfg = SwapLuConfig::new(n, v, grid).volume_only();
            run(Box::new(move || {
                let out = lu25d_swap(&cfg, &w.general).expect("lu25d failed");
                (out.stats, v as f64)
            }))
        }
        Algo::TwodLu | Algo::TwodChol => {
            if cell.c > 1 {
                return Err(format!("2D algo cannot replicate (c={})", cell.c));
            }
            let mut cfg = TwodConfig::auto(n, p).volume_only();
            if cell.block > 0 {
                cfg = TwodConfig::new(n, cell.block, cfg.grid).volume_only();
            }
            let nb = cfg.nb;
            run(Box::new(move || {
                let stats = if algo == Algo::TwodLu {
                    twod_lu(&cfg, &w.general).expect("2d lu failed").stats
                } else {
                    twod_cholesky(&cfg, &w.spd).expect("2d chol failed").stats
                };
                (stats, nb as f64)
            }))
        }
    })
}

/// The ABFT fault-tolerant path: run with checksums on, then (outside the
/// trace) with checksums off, and report the byte tax as its own KPI. The
/// lookahead axis does not apply — the ft schedules are blocking.
fn run_checksummed(
    cell: &Cell,
    algo: Algo,
    w: &Workload,
    pert: &PerturbConfig,
) -> Result<CellRun, String> {
    if !matches!(algo, Algo::Conflux | Algo::Confchox) {
        return Err(format!(
            "checksum axis needs conflux|confchox, not {}",
            cell.algo
        ));
    }
    let (grid, v) = grid_and_block(cell)?;
    let cfg = FtConfig::new(cell.n, v, grid).checkpoint_every(0);
    let plain_cfg = cfg.clone().no_checksums();

    let run_ft = |cfg: &FtConfig| -> WorldStats {
        match algo {
            Algo::Conflux => {
                let mut out = conflux_lu_ft(cfg, &w.general).expect("ft lu failed");
                out.report.attempt_stats.pop().expect("one attempt")
            }
            _ => {
                let mut out = confchox_cholesky_ft(cfg, &w.spd).expect("ft chol failed");
                out.report.attempt_stats.pop().expect("one attempt")
            }
        }
    };

    let (ck_stats, mut traces) =
        xharness::run_perturbed_traced(pert, TraceConfig::default(), || run_ft(&cfg));
    let plain_stats = xharness::run_perturbed(pert, || run_ft(&plain_cfg));

    let mut extra = BTreeMap::new();
    extra.insert("v_used".to_string(), v as f64);
    let plain = plain_stats.avg_rank_bytes();
    if plain > 0.0 {
        extra.insert(
            "checksum_byte_overhead".to_string(),
            ck_stats.avg_rank_bytes() / plain - 1.0,
        );
    }
    Ok((ck_stats, traces.pop(), extra))
}

fn run_kernel_cell(cell: &Cell, reps: usize) -> Result<BTreeMap<String, f64>, String> {
    let report = crate::experiments::kernels::kernels(&[cell.n], reps);
    // Keep the provenance-stamped BENCH_kernels.json artifact flowing for
    // consumers of results/ (the CI upload step among them). Socket-backend
    // child ranks replaying the plan never write artifacts.
    if !xmpi::launch::is_child() {
        if let Err(e) = report.save(std::path::Path::new("results")) {
            eprintln!("(could not save results/{}.json: {e})", report.id);
        }
    }
    let kpis = kernel_kpis(&report.json, cell.n);
    if kpis.is_empty() {
        return Err(format!("kernel report produced no KPIs at n={}", cell.n));
    }
    Ok(kpis)
}

/// A comm-workload cell: run the transport microbenchmark at the cell's
/// `(n, p)` — `n` is the broadcast message size in f64 elements — and pull
/// the matching KPI record. The full report (with the whole sweep grid and
/// the traced headline cell) is persisted under `results/` for the CI
/// artifact upload, same as the kernels path.
fn run_comm_cell(cell: &Cell, reps: usize) -> Result<BTreeMap<String, f64>, String> {
    if cell.p < 2 {
        return Err(format!("comm cells need p >= 2, got p={}", cell.p));
    }
    let report = crate::experiments::comm::comm(&[cell.p], &[cell.n], reps);
    if !xmpi::launch::is_child() {
        if let Err(e) = report.save(std::path::Path::new("results")) {
            eprintln!("(could not save results/{}.json: {e})", report.id);
        }
    }
    let kpis = comm_kpis(&report.json, cell.n, cell.p);
    if !kpis.contains_key("bcast_speedup") {
        return Err(format!(
            "comm report produced no bcast KPIs at n={}, p={}",
            cell.n, cell.p
        ));
    }
    Ok(kpis)
}

/// A transport-workload cell: measure the postal-model α-β of both the
/// in-process and the socket backend at the cell's `(n, p)` — `n` is the
/// probed message size in f64 elements — and record the fit (and its gap
/// to the simulated machine model) as KPIs.
///
/// The socket half re-executes the current binary, so this cell must be
/// reached deterministically from `main` (the `ablations` CLI qualifies;
/// libtest does not — unit tests cover only the local half). Artifact
/// writes are gated on [`xmpi::launch::is_child`]: a child rank replaying
/// an *earlier* plan cell to find its world must never rewrite the
/// parent's results.
fn run_transport_cell(cell: &Cell, reps: usize) -> Result<BTreeMap<String, f64>, String> {
    if cell.p < 2 {
        return Err(format!("transport cells need p >= 2, got p={}", cell.p));
    }
    let report = crate::experiments::transport::transport(&[cell.p], &[cell.n], reps);
    if !xmpi::launch::is_child() {
        if let Err(e) = report.save(std::path::Path::new("results")) {
            eprintln!("(could not save results/{}.json: {e})", report.id);
        }
    }
    let kpis = transport_kpis(&report.json, cell.n, cell.p);
    if !kpis.contains_key("alpha_socket_us") {
        return Err(format!(
            "transport report produced no socket fit at n={}, p={}",
            cell.n, cell.p
        ));
    }
    Ok(kpis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::parse_toml;

    fn tiny_plan(extra: &str) -> AblationPlan {
        let text = format!(
            r#"
name = "tiny"
workload = "factor"
[axes]
algo = ["conflux"]
n = [32]
p = [4]
{extra}
"#
        );
        AblationPlan::from_value(&parse_toml(&text).unwrap()).unwrap()
    }

    #[test]
    fn tiny_grid_executes_and_extracts_kpis() {
        let run = run_ablation(&tiny_plan(""));
        assert_eq!(run.outcomes.len(), 1, "skipped: {:?}", run.skipped);
        let kpis = &run.outcomes[0].kpis;
        assert!(kpis["gflops"] > 0.0);
        assert!(kpis["comm_factor"] >= 1.0);
        assert!(kpis.contains_key("idle_frac"), "trace KPIs present");
        assert!(kpis["v_used"] > 0.0);
    }

    #[test]
    fn deterministic_kpis_are_seed_invariant() {
        let plan = tiny_plan("seed = [0, 3]");
        let run = run_ablation(&plan);
        assert_eq!(run.outcomes.len(), 2, "skipped: {:?}", run.skipped);
        for kpi in ["gflops", "words_per_rank", "msgs_per_rank", "comm_factor"] {
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
