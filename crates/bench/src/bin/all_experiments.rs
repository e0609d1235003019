//! Run the experiment suite (every table and figure of the paper's
//! evaluation) and persist all raw data under `results/`:
//! `all_experiments [id …]` runs the named experiments in suite order, no
//! ids runs everything, and an unknown id exits nonzero listing the valid
//! ones. The suite below is the one place the sweep parameters live.
//!
//! Each experiment runs under a panic guard: one figure crashing no longer
//! silently truncates the rest of the suite. The run ends with a per-figure
//! status table and exits nonzero if anything failed.

use bench::experiments as ex;
use bench::table::render;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

type Experiment = (&'static str, Box<dyn FnOnce() -> ex::Report>);

fn suite() -> Vec<Experiment> {
    vec![
        ("bounds_report", Box::new(ex::bounds_report::run)),
        ("table1", Box::new(|| ex::table1::run(512, 8))),
        (
            "table2",
            Box::new(|| {
                ex::table2::run(&[
                    (256, 4),
                    (256, 16),
                    (512, 16),
                    (512, 32),
                    (512, 27),
                    (1024, 64),
                ])
            }),
        ),
        (
            "fig1",
            Box::new(|| ex::fig1::fig1(&[256, 512, 1024, 2048], &[4, 16, 64])),
        ),
        (
            "fig8a",
            Box::new(|| ex::fig8::fig8a(1024, &[4, 8, 16, 32, 64])),
        ),
        (
            "fig8b",
            Box::new(|| ex::fig8::fig8b(256, &[4, 8, 16, 32, 64])),
        ),
        (
            "fig8c",
            Box::new(|| ex::fig8::fig8c(&[256, 512, 1024], &[4, 16, 64])),
        ),
        ("fig9", Box::new(|| ex::fig9::fig9(&[4, 8, 16, 32, 64]))),
        ("fig10", Box::new(|| ex::fig9::fig10(&[4, 8, 16, 32, 64]))),
        (
            "fig11",
            Box::new(|| ex::fig1::fig11(&[256, 512, 1024, 2048], &[4, 16, 64])),
        ),
        // The three sweeps are plan axes: `block` and `c` at a fixed
        // `(p, c)` grid `near_square(p/c) × c`, and an algo pair over them.
        (
            "ablation_block",
            Box::new(|| ex::ablations::block_size(512, 8, 2, &[8, 16, 32, 64, 128])),
        ),
        (
            "ablation_replication",
            Box::new(|| ex::ablations::replication(512, 16, &[1, 2, 4])),
        ),
        (
            "ablation_pivoting",
            Box::new(|| ex::ablations::pivoting(256, &[(4, 1), (8, 2), (16, 4)])),
        ),
        ("generality", Box::new(ex::generality::run)),
    ]
}

/// The experiments `ids` name, in suite order; all of them for no ids.
fn select(suite: Vec<Experiment>, ids: &[String]) -> Result<Vec<Experiment>, String> {
    if let Some(bad) = ids
        .iter()
        .find(|id| suite.iter().all(|(name, _)| name != id))
    {
        let valid: Vec<&str> = suite.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown experiment `{bad}`; valid ids: {}",
            valid.join(" ")
        ));
    }
    Ok(suite
        .into_iter()
        .filter(|(name, _)| ids.is_empty() || ids.iter().any(|id| id == name))
        .collect())
}

fn main() -> ExitCode {
    let t0 = std::time::Instant::now();
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let suite = match select(suite(), &ids) {
        Ok(suite) => suite,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut outcomes: Vec<(&str, Result<(), String>)> = Vec::new();
    for (name, exp) in suite {
        let started = std::time::Instant::now();
        let result = catch_unwind(AssertUnwindSafe(exp));
        match result {
            Ok(report) => {
                report.emit();
                outcomes.push((name, Ok(())));
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic (non-string payload)".to_string());
                eprintln!(
                    "\n[{name}] FAILED after {:.1}s: {msg}\n",
                    started.elapsed().as_secs_f64()
                );
                outcomes.push((name, Err(msg)));
            }
        }
    }

    let failed = outcomes.iter().filter(|(_, r)| r.is_err()).count();
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|(name, r)| {
            vec![
                name.to_string(),
                match r {
                    Ok(()) => "ok".to_string(),
                    Err(msg) => format!("FAILED: {msg}"),
                },
            ]
        })
        .collect();
    println!("\nsuite summary");
    println!("{}", render(&["experiment", "status"], &rows));
    println!(
        "{} of {} experiment(s) succeeded in {:.1}s; raw data in results/",
        outcomes.len() - failed,
        outcomes.len(),
        t0.elapsed().as_secs_f64()
    );
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(ids: &[&str]) -> Result<Vec<&'static str>, String> {
        let ids: Vec<String> = ids.iter().map(|s| s.to_string()).collect();
        Ok(select(suite(), &ids)?.iter().map(|(n, _)| *n).collect())
    }

    #[test]
    fn id_filter_selects_subset_everything_or_fails() {
        // A subset comes back in suite order, whatever order it was named in.
        assert_eq!(names(&["fig9", "table1"]).unwrap(), ["table1", "fig9"]);
        let all = names(&[]).unwrap();
        assert_eq!(all.len(), 14);
        assert_eq!((all[0], all[13]), ("bounds_report", "generality"));
        let err = names(&["table1", "fig12"]).unwrap_err();
        assert!(err.contains("`fig12`"), "{err}");
        assert!(all.iter().all(|id| err.contains(id)), "{err}");
    }
}
