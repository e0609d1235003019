//! `bench ablate` — the declarative ablation CLI.
//!
//! Subcommands:
//!
//! * `run <plan> [--registry DIR] [--no-append]` — execute every cell of a
//!   plan file (`plans/*.toml` or `.json`), print the KPI table, and append
//!   provenance-stamped rows to the registry.
//! * `check <plan> [--registry DIR] [--append]` — run the plan and gate it
//!   against the plan's tolerances and the recorded cross-commit trend.
//!   Exits nonzero with a per-KPI regression report on any breach; with
//!   `--append` a *clean* run is recorded (the CI bless flow).
//! * `query [--plan NAME] [--kpi K] [--commit PREFIX] [--cell SUBSTR]` —
//!   print matching registry rows.
//! * `trend <plan> --kpi K [--cell SUBSTR]` — print the per-cell trajectory
//!   of one KPI, oldest first, with the current baseline.
//!
//! The regression gate this provides replaces the old ad-hoc
//! "packed ≥ 2× naive" assertion binary: the same floor now lives in
//! `plans/kernels.toml` as an ordinary tolerance.

use bench::ablate::run_ablation;
use bench::plan::AblationPlan;
use bench::provenance::Stamp;
use bench::registry::{rows_for, Query, RegRow, Registry};
use bench::table::render;
use bench::trend::{baseline, check_outcomes, series};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: ablations <subcommand>
  run   <plan.toml> [--registry DIR] [--no-append]   execute and record
  check <plan.toml> [--registry DIR] [--append]      execute and gate vs trend
  query [--registry DIR] [--plan NAME] [--kpi K] [--commit PREFIX] [--cell SUBSTR]
  trend <plan.toml> --kpi K [--registry DIR] [--cell SUBSTR]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest),
        Some("check") => cmd_check(rest),
        Some("query") => cmd_query(rest),
        Some("trend") => cmd_trend(rest),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal flag parser: positional plan path + `--flag [value]` pairs.
struct Flags {
    positional: Vec<String>,
    registry: String,
    plan: Option<String>,
    kpi: Option<String>,
    commit: Option<String>,
    cell: Option<String>,
    no_append: bool,
    append: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        positional: Vec::new(),
        registry: "registry".to_string(),
        plan: None,
        kpi: None,
        commit: None,
        cell: None,
        no_append: false,
        append: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--registry" => f.registry = val("--registry")?,
            "--plan" => f.plan = Some(val("--plan")?),
            "--kpi" => f.kpi = Some(val("--kpi")?),
            "--commit" => f.commit = Some(val("--commit")?),
            "--cell" => f.cell = Some(val("--cell")?),
            "--no-append" => f.no_append = true,
            "--append" => f.append = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => f.positional.push(other.to_string()),
        }
    }
    Ok(f)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn load_plan(flags: &Flags) -> Result<AblationPlan, String> {
    let path = flags
        .positional
        .first()
        .ok_or("expected a plan file argument")?;
    AblationPlan::load(Path::new(path))
}

/// Execute a plan and print the cell × KPI table plus any skipped cells.
fn execute(plan: &AblationPlan) -> bench::ablate::AblationRun {
    println!(
        "plan {} ({}): {} — {} cell(s)",
        plan.name,
        plan.hash(),
        plan.description,
        plan.cells().len()
    );
    let run = run_ablation(plan);

    let kpi_names: BTreeSet<String> = run
        .outcomes
        .iter()
        .flat_map(|o| o.kpis.keys().cloned())
        .collect();
    let headers: Vec<&str> = std::iter::once("cell")
        .chain(kpi_names.iter().map(String::as_str))
        .collect();
    let rows: Vec<Vec<String>> = run
        .outcomes
        .iter()
        .map(|o| {
            std::iter::once(o.cell.id())
                .chain(kpi_names.iter().map(|k| match o.kpis.get(k) {
                    Some(v) => format!("{v:.4}"),
                    None => "-".to_string(),
                }))
                .collect()
        })
        .collect();
    println!("{}", render(&headers, &rows));

    if !run.skipped.is_empty() {
        let rows: Vec<Vec<String>> = run
            .skipped
            .iter()
            .map(|(cell, why)| vec![cell.clone(), why.clone()])
            .collect();
        println!("skipped cells:");
        println!("{}", render(&["cell", "reason"], &rows));
    }
    run
}

fn append_run(
    reg: &Registry,
    plan: &AblationPlan,
    run: &bench::ablate::AblationRun,
) -> Result<(), String> {
    let stamp = Stamp::here(Some(run.plan_hash.clone()));
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for o in &run.outcomes {
        let (r, rec) = rows_for(&stamp, &plan.name, &run.plan_hash, &o.cell.id(), &o.kpis);
        rows.extend(r);
        records.push(rec);
    }
    let outcome = reg.append(&rows, &records)?;
    println!(
        "registry {}: appended {} row(s), {} duplicate(s) skipped",
        reg.csv_path().display(),
        outcome.appended,
        outcome.deduped
    );
    Ok(())
}

fn cmd_run(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let plan = match load_plan(&flags) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let run = execute(&plan);
    if run.outcomes.is_empty() {
        return fail("no cell executed successfully");
    }
    if !flags.no_append {
        if let Err(e) = append_run(&Registry::new(&flags.registry), &plan, &run) {
            return fail(&e);
        }
    }
    ExitCode::SUCCESS
}

fn cmd_check(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let plan = match load_plan(&flags) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    if plan.tolerances.is_empty() {
        return fail("plan declares no [tolerances.*] — nothing to check");
    }
    let reg = Registry::new(&flags.registry);
    // Load history *before* appending, so the trend baseline never includes
    // the run under test.
    let history = match reg.load() {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    let run = execute(&plan);
    if run.outcomes.is_empty() {
        return fail("no cell executed successfully");
    }
    let commit = bench::provenance::git_head();
    let machine = bench::provenance::machine_fingerprint();
    let report = check_outcomes(&plan, &run.id_outcomes(), &history, &commit, &machine);
    println!("{}", report.render());
    if !report.is_clean() {
        return ExitCode::FAILURE;
    }
    if flags.append {
        if let Err(e) = append_run(&reg, &plan, &run) {
            return fail(&e);
        }
    }
    ExitCode::SUCCESS
}

fn cmd_query(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let q = Query {
        plan: flags.plan.clone(),
        kpi: flags.kpi.clone(),
        commit: flags.commit.clone(),
        cell: flags.cell.clone(),
    };
    let rows = match Registry::new(&flags.registry).load() {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    let hits: Vec<&RegRow> = rows.iter().filter(|r| q.matches(r)).collect();
    let table: Vec<Vec<String>> = hits
        .iter()
        .map(|r| {
            vec![
                r.timestamp.clone(),
                r.commit[..r.commit.len().min(12)].to_string(),
                r.plan.clone(),
                r.cell.clone(),
                r.kpi.clone(),
                format!("{:.4}", r.value),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &["timestamp", "commit", "plan", "cell", "kpi", "value"],
            &table
        )
    );
    println!("{} of {} row(s) matched", hits.len(), rows.len());
    ExitCode::SUCCESS
}

fn cmd_trend(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let plan = match load_plan(&flags) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let Some(kpi) = flags.kpi.clone() else {
        return fail("trend requires --kpi");
    };
    let rows = match Registry::new(&flags.registry).load() {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    let plan_hash = plan.hash();
    let commit = bench::provenance::git_head();
    let cells: BTreeSet<String> = rows
        .iter()
        .filter(|r| r.plan_hash == plan_hash && r.kpi == kpi)
        .filter(|r| {
            flags
                .cell
                .as_ref()
                .is_none_or(|c| r.cell.contains(c.as_str()))
        })
        .map(|r| r.cell.clone())
        .collect();
    if cells.is_empty() {
        println!(
            "no trajectory for plan {} ({plan_hash}) kpi {kpi} in {}",
            plan.name,
            Registry::new(&flags.registry).csv_path().display()
        );
        return ExitCode::SUCCESS;
    }
    for cell in cells {
        let pts = series(&rows, &plan_hash, &cell, &kpi);
        println!("{cell}  ({kpi})");
        let table: Vec<Vec<String>> = pts
            .iter()
            .map(|p| {
                vec![
                    p.unix.to_string(),
                    p.commit[..p.commit.len().min(12)].to_string(),
                    format!("{:.4}", p.value),
                ]
            })
            .collect();
        println!("{}", render(&["unix", "commit", "value"], &table));
        match baseline(&pts, &commit) {
            Some(b) => println!("current baseline (median of trailing window): {b:.4}\n"),
            None => println!("no baseline yet (all points are from this commit)\n"),
        }
    }
    ExitCode::SUCCESS
}
