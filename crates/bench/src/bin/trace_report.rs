//! Trace one factorization run and report its profile.
//!
//! Runs the chosen algorithm as the plan cell `algo × n × p` (automatic
//! grid and block) through `bench::ablate::run_cell` — traced, under the
//! light seed-0 schedule perturbation plan cells run under — then:
//!
//! * writes `chrome.json` (open in Perfetto / `chrome://tracing`) and
//!   `profile.json` (provenance-stamped profile report) to `--out`;
//! * prints the per-phase and per-collective traffic tables — the same
//!   decomposition Table 1 of the paper reports per routine — plus idle-time
//!   attribution and the α-β-γ replay's predicted time-to-solution.
//!
//! With `--kpi`, skips the profile tables and instead emits the KPI record
//! `ablations run` emits for that cell — same runner, same fixed plan
//! input — so a hand-run trace can be appended to the trajectory: pass
//! `--registry DIR` to record it under the plan name `manual`. `--seed`
//! picks the *input matrix* of the profile modes; a plan cell's input is
//! fixed, so `--kpi` refuses it.
//!
//! Usage:
//!   trace_report [--algo conflux|confchox|twod-lu|twod-chol|lu25d] [--n N] [--p P]
//!                [--seed S] [--out DIR] [--pretty] [--kpi [--registry DIR]]

use std::collections::BTreeMap;

use bench::ablate::{factor_cell_kpis, run_cell};
use bench::plan::Cell;
use bench::table::{human_bytes, render};
use serde_json::json;
use xtrace::profile::{coll_bytes_from_trace, phase_bytes_from_trace};
use xtrace::{
    chrome_trace, critical_path, path_length, profile_report, replay, Machine, Provenance, Timeline,
};

struct Args {
    algo: String,
    n: usize,
    p: usize,
    seed: u64,
    out: Option<String>,
    pretty: bool,
    kpi: bool,
    registry: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        algo: "conflux".to_string(),
        n: 256,
        p: 8,
        seed: 0,
        out: None,
        pretty: false,
        kpi: false,
        registry: None,
    };
    let mut seed_given = false;
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--algo" => args.algo = val("--algo"),
            "--n" => args.n = val("--n").parse().expect("--n: integer"),
            "--p" => args.p = val("--p").parse().expect("--p: integer"),
            "--seed" => {
                args.seed = val("--seed").parse().expect("--seed: integer");
                seed_given = true;
            }
            "--out" => args.out = Some(val("--out")),
            "--pretty" => args.pretty = true,
            "--kpi" => args.kpi = true,
            "--registry" => args.registry = Some(val("--registry")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: trace_report [--algo conflux|confchox|twod-lu|twod-chol|lu25d] \
                     [--n N] [--p P] [--seed S] [--out DIR] [--pretty] \
                     [--kpi [--registry DIR]]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    // `--seed` picks the input matrix; a plan cell's is fixed, and the
    // cell id has no field that could tell the two apart.
    assert!(
        !(args.kpi && seed_given),
        "--kpi records the plan cell, whose input matrix is fixed: drop --seed"
    );
    args
}

/// `v` as `--pretty` asks for it.
fn dump(args: &Args, v: &serde_json::Value) -> String {
    if args.pretty {
        serde_json::to_string_pretty(v).unwrap()
    } else {
        serde_json::to_string(v).unwrap()
    }
}

/// The plan cell the arguments name.
fn cell_of(args: &Args) -> Cell {
    Cell::auto(&args.algo, args.n, args.p)
}

/// `--kpi` mode: the registry record of the plan cell the arguments name —
/// what `ablations run` stores for it, so hand-run traces land on the same
/// trajectory.
fn kpi_record(args: &Args) -> (Cell, BTreeMap<String, f64>) {
    let cell = cell_of(args);
    let kpis = factor_cell_kpis(&cell).unwrap_or_else(|e| panic!("{e}"));
    (cell, kpis)
}

fn emit_kpi_record(args: &Args) {
    let (cell, kpis) = kpi_record(args);
    let stamp = bench::provenance::Stamp::here(None);
    let (rows, record) = bench::registry::rows_for(&stamp, "manual", "manual", &cell.id(), &kpis);
    println!("{}", dump(args, &record));
    if let Some(dir) = &args.registry {
        let reg = bench::registry::Registry::new(dir);
        let outcome = reg.append(&rows, &[record]).expect("registry append");
        eprintln!(
            "registry {}: appended {} row(s), {} duplicate(s) skipped",
            reg.csv_path().display(),
            outcome.appended,
            outcome.deduped
        );
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    if args.kpi {
        emit_kpi_record(&args);
        return;
    }
    let run = run_cell(&cell_of(&args), args.seed, true).unwrap_or_else(|e| panic!("{e}"));
    let (trace, stats) = (run.trace.expect("a traced run has a trace"), run.stats);

    let prov = Provenance::here(
        json!({ "algo": args.algo, "n": args.n, "p": args.p }),
        Some(args.seed),
    );
    let report = profile_report(&trace, &stats, &prov);
    let chrome = chrome_trace(&trace);

    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).expect("create --out dir");
        std::fs::write(format!("{dir}/profile.json"), dump(&args, &report))
            .expect("write profile.json");
        std::fs::write(format!("{dir}/chrome.json"), dump(&args, &chrome))
            .expect("write chrome.json");
        println!("wrote {dir}/profile.json and {dir}/chrome.json\n");
    }

    println!(
        "{} n={} p={} seed={}  ({} events, {} bytes moved)\n",
        args.algo,
        args.n,
        args.p,
        args.seed,
        trace.num_events(),
        stats.total_bytes_sent(),
    );

    // Per-phase traffic: the per-routine decomposition of Table 1.
    let total = stats.total_bytes_sent().max(1);
    let phases: BTreeMap<String, (u64, u64)> = phase_bytes_from_trace(&trace);
    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|(label, &(sent, recv))| {
            vec![
                label.clone(),
                human_bytes(sent as f64),
                human_bytes(recv as f64),
                format!("{:.1}%", 100.0 * sent as f64 / total as f64),
            ]
        })
        .collect();
    println!("per-phase traffic");
    println!("{}", render(&["phase", "sent", "recv", "% of sent"], &rows));

    // Per-collective-kind traffic: must partition total_bytes_sent.
    let colls = coll_bytes_from_trace(&trace);
    let rows: Vec<Vec<String>> = colls
        .iter()
        .map(|(kind, &(bs, _br, ms, _mr))| {
            vec![
                kind.name().to_string(),
                human_bytes(bs as f64),
                ms.to_string(),
                format!("{:.1}%", 100.0 * bs as f64 / total as f64),
            ]
        })
        .collect();
    println!("per-collective traffic");
    println!(
        "{}",
        render(&["collective", "sent", "msgs", "% of sent"], &rows)
    );

    // Idle time per rank (measured, host clock).
    let tl = Timeline::build(&trace);
    let rows: Vec<Vec<String>> = tl
        .ranks
        .iter()
        .map(|r| {
            vec![
                r.rank.to_string(),
                format!("{:.3}", r.end as f64 / 1e6),
                format!("{:.3}", r.wait_time() as f64 / 1e6),
                r.total_flops().to_string(),
            ]
        })
        .collect();
    println!("per-rank timeline (host clock)");
    println!("{}", render(&["rank", "end ms", "wait ms", "flops"], &rows));

    let path = critical_path(&trace);
    println!(
        "critical path: {} segment(s), {:.3} ms on-path of {:.3} ms makespan\n",
        path.len(),
        path_length(&path) as f64 / 1e6,
        tl.makespan as f64 / 1e6,
    );

    // Predicted time-to-solution under the paper's machine model.
    let m = Machine::piz_daint();
    let rp = replay(&trace, &m);
    println!(
        "α-β-γ replay (α={:.1e}s, β={:.1e}B/s, γε={:.2e}flop/s): \
         predicted makespan {:.6}s{}",
        m.alpha,
        m.beta,
        m.gamma * m.epsilon,
        rp.makespan,
        if rp.complete {
            ""
        } else {
            "  [truncated trace: lower bound]"
        },
    );
    let comp: f64 = rp.comp.iter().sum::<f64>() / rp.comp.len().max(1) as f64;
    let wait: f64 = rp.wait.iter().sum::<f64>() / rp.wait.len().max(1) as f64;
    println!("  mean per-rank: compute {comp:.6}s, blocked {wait:.6}s");
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::ablate::run_ablation;
    use bench::plan::{parse_toml, AblationPlan};

    fn args(flags: &[&str]) -> Args {
        parse_args(flags.iter().map(|s| s.to_string()))
    }

    #[test]
    fn kpi_mode_emits_the_plan_cells_record() {
        let flags = ["--algo", "confchox", "--n", "32", "--p", "4", "--kpi"];
        let (cell, kpis) = kpi_record(&args(&flags));
        let plan = "name = \"t\"\nworkload = \"factor\"\n[axes]\nalgo = [\"confchox\"]\nn = [32]\np = [4]\n";
        let run = run_ablation(&AblationPlan::from_value(&parse_toml(plan).unwrap()).unwrap());
        assert_eq!(run.outcomes.len(), 1, "skipped: {:?}", run.skipped);
        let plan_cell = &run.outcomes[0];
        assert_eq!(cell, plan_cell.cell);
        assert!(kpis.keys().eq(plan_cell.kpis.keys()));
        for (name, v) in &kpis {
            // The three host-clock KPIs differ run to run.
            if !matches!(name.as_str(), "idle_frac" | "critpath_frac" | "makespan_ms") {
                assert_eq!(*v, plan_cell.kpis[name], "{name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "drop --seed")]
    fn kpi_mode_refuses_an_input_seed() {
        args(&["--kpi", "--seed", "7"]);
    }
}
