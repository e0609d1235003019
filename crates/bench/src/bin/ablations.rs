//! `ablations check <plan>` — run a declarative plan and gate it.
//!
//! Executes every cell of a plan file (`plans/*.toml` or `.json`), prints
//! the cell × KPI table and any skipped cells, then holds every KPI the plan
//! bounds to its absolute `min`/`max`. Exits nonzero with a per-KPI breach
//! report on any breach, or when a bounded KPI was produced by no cell.

use bench::ablate::{run_ablation, AblationRun};
use bench::gate::check;
use bench::plan::AblationPlan;
use bench::table::render;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: ablations check <plan.toml>   execute a plan and gate its KPI bounds";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["check", path] => match cmd_check(Path::new(path)) {
            Ok(code) => code,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        ["--help" | "-h"] => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_check(path: &Path) -> Result<ExitCode, String> {
    let plan = AblationPlan::load(path)?;
    if plan.tolerances.is_empty() {
        return Err("plan declares no [tolerances.*] — nothing to check".into());
    }
    let run = execute(&plan);
    if run.outcomes.is_empty() {
        return Err("no cell executed successfully".into());
    }
    let report = check(&plan, &run);
    println!("{}", report.render());
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Execute a plan and print the cell × KPI table plus any skipped cells.
fn execute(plan: &AblationPlan) -> AblationRun {
    println!(
        "plan {}: {} — {} cell(s)",
        plan.name,
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
