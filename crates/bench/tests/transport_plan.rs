//! `floors transport` end to end: the real binary measures the α-β fit of
//! both backends, the socket half across forked rank processes.
//!
//! The rank processes forked for each socket world ship their timings and
//! leave inside `xmpi::run`, so only the bin's own process prints the gated
//! numbers and writes `results/BENCH_transport.json`. The floors are
//! host-clock sanity bounds, and this test does not hold them: a breach
//! exits 1 and names itself; a panic, or a number printed twice, fails.

use std::process::Command;

#[test]
fn transport_plan_runs_cross_process_and_records_kpis() {
    let tmp = std::env::temp_dir().join(format!("floors-transport-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_floors"))
        .arg("transport")
        .current_dir(&tmp) // results/ artifacts land in tmp, not the repo
        .output()
        .expect("spawn floors");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let breaches = stdout.lines().filter(|l| l.starts_with("BREACH: ")).count();
    assert!(
        out.status.code() == Some(0) && breaches == 0
            || out.status.code() == Some(1) && breaches > 0,
        "floors transport: {}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    // The parent alone prints each gated number, and the fit table has one
    // socket row.
    for number in ["gbps_local", "gbps_socket", "socket_over_local_alpha"] {
        let lines = stdout.lines().filter(|l| l.starts_with(number)).count();
        assert_eq!(lines, 1, "{number} should be printed once:\n{stdout}");
    }
    let socket_rows = stdout.lines().filter(|l| l.contains(" socket |")).count();
    assert_eq!(socket_rows, 1, "one socket row in the fit table:\n{stdout}");

    // One report artifact, written by the parent only.
    let report = std::fs::read_to_string(tmp.join("results/BENCH_transport.json"))
        .expect("results/BENCH_transport.json");
    assert!(
        report.contains("\"socket\""),
        "report missing socket backend"
    );
    let written = std::fs::read_dir(tmp.join("results")).unwrap().count();
    assert_eq!(written, 1, "the run writes one file");

    let _ = std::fs::remove_dir_all(&tmp);
}
