//! `ablations check` end to end: the real binary over a tiny factor plan
//! exits nonzero and names the KPI and the bound when a `min` is breached,
//! and exits 0 when every bound holds. Then the floors of the committed
//! plans, pinned by value.

use bench::plan::AblationPlan;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Run `ablations check` on a one-cell COnfLUX plan bounding
/// `model_gflops` below by `min`, from a directory of its own.
fn check_with_floor(tag: &str, min: &str) -> Output {
    let tmp = std::env::temp_dir().join(format!("ablations-check-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let plan = tmp.join("plan.toml");
    std::fs::write(
        &plan,
        format!(
            "name = \"floor\"\nworkload = \"factor\"\n[axes]\nalgo = [\"conflux\"]\n\
             n = [32]\np = [4]\n[tolerances.model_gflops]\nmin = {min}\n"
        ),
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ablations"))
        .args(["check", plan.to_str().unwrap()])
        .current_dir(&tmp)
        .output()
        .expect("spawn ablations");
    let _ = std::fs::remove_dir_all(&tmp);
    out
}

#[test]
fn a_breached_min_fails_check_and_names_the_kpi_and_bound() {
    let out = check_with_floor("breach", "1e12");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "a breach must exit nonzero:\n{stdout}"
    );
    let line = stdout
        .lines()
        .find(|l| l.contains("algo=conflux;n=32;p=4") && l.contains("model_gflops"))
        .unwrap_or_else(|| panic!("no breach row for the cell:\n{stdout}"));
    assert!(line.contains("min = 1000000000000"), "{line}");

    let out = check_with_floor("clean", "0.0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("all KPIs within bounds"), "{stdout}");
}

#[test]
fn check_is_the_only_subcommand_and_takes_no_flags() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_ablations"))
            .args(args)
            .output()
            .expect("spawn ablations")
            .status
            .success()
    };
    assert!(run(&["--help"]));
    assert!(!run(&["run", "plans/kernels.toml"]));
    assert!(!run(&["check", "plans/kernels.toml", "--append"]));
}

fn committed(name: &str) -> AblationPlan {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    AblationPlan::load(&root.join(Path::new("plans").join(format!("{name}.toml")))).unwrap()
}

/// Every bound of the committed plans, by value: a floor moves only in a
/// change that says so.
#[test]
fn committed_plans_pin_their_floors() {
    for (plan, bounds) in [
        (
            "kernels",
            &[
                ("gemm_speedup", Some(2.0), None),
                ("tuned_speedup", Some(1.5), None),
                ("update_vs_gemm", Some(0.70), None),
            ][..],
        ),
        ("comm", &[("bcast_speedup", Some(5.0), None)][..]),
        (
            "transport",
            &[
                ("gbps_local", Some(0.05), None),
                ("gbps_socket", Some(0.005), None),
                ("socket_over_local_alpha", None, Some(10000.0)),
            ][..],
        ),
    ] {
        let got: Vec<_> = committed(plan)
            .tolerances
            .iter()
            .map(|(kpi, t)| (kpi.clone(), t.min, t.max))
            .collect();
        let mut want: Vec<_> = bounds
            .iter()
            .map(|&(kpi, min, max)| (kpi.to_string(), min, max))
            .collect();
        want.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(got, want, "plans/{plan}.toml");
    }
}
