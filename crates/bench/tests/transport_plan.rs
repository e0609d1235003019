//! End-to-end transport-workload ablation: drive the real `ablations check`
//! over a tiny transport plan and assert the measured socket-backend α-β
//! fit reaches its KPI table and its report.
//!
//! This runs the socket half of `experiments::transport` in its production
//! shape, the `ablations` CLI: the rank processes forked for each socket
//! world ship their timings and leave inside it, and only the CLI's own
//! process prints the KPI table and writes `results/BENCH_transport.json`.

use std::process::Command;

#[test]
fn transport_plan_runs_cross_process_and_records_kpis() {
    let tmp = std::env::temp_dir().join(format!("xport-plan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let plan = tmp.join("plan.toml");
    std::fs::write(
        &plan,
        r#"
name = "transport-e2e"
description = "tiny cross-process alpha-beta cell"
workload = "transport"
[axes]
n = [256]
p = [2]
[fixed]
reps = 1
[tolerances.gbps_socket]
min = 0.0
"#,
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_ablations"))
        .args(["check", plan.to_str().unwrap()])
        .current_dir(&tmp) // results/ artifacts land in tmp, not the repo
        .output()
        .expect("spawn ablations");
    assert!(
        out.status.success(),
        "ablations check failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    // The KPI table, printed once by the parent, has both backends' fits.
    let stdout = String::from_utf8_lossy(&out.stdout);
    for kpi in [
        "alpha_local_us",
        "alpha_socket_us",
        "gbps_socket",
        "socket_over_local_alpha",
    ] {
        assert_eq!(
            stdout.matches(kpi).count(),
            1,
            "KPI table header should name {kpi} once:\n{stdout}"
        );
    }
    assert!(stdout.contains("all KPIs within bounds"), "{stdout}");

    // One report artifact, written by the parent only.
    let report = std::fs::read_to_string(tmp.join("results/BENCH_transport.json"))
        .expect("results/BENCH_transport.json");
    assert!(
        report.contains("\"socket\""),
        "report missing socket backend"
    );

    let _ = std::fs::remove_dir_all(&tmp);
}
