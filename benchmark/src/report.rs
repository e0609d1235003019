//! What a run prints and records: the metric table, the one-line result,
//! and the provenance stamp of a result set.

use crate::{Options, WorkloadResult};
use serde_json::{json, Value};
use std::path::Path;
use std::process::Command;

/// `VmHWM` of this process, in KiB.
pub fn peak_rss_kb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    let kb = line.and_then(|l| l.trim().strip_suffix("kB")?.trim().parse().ok());
    kb.ok_or_else(|| "/proc/self/status has no VmHWM".into())
}

/// Every metric by name, with its unit.
pub fn print_table(result: &WorkloadResult) {
    println!("workload {}", result.name);
    for m in &result.metrics {
        println!("  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {} of {} factorizations failed; outputs {}",
        result.failed,
        result.attempted,
        if result.correct {
            "correct"
        } else {
            "INCORRECT"
        }
    );
}

/// The result object a run of one workload ends with.
pub fn contract_line(result: &WorkloadResult) -> Value {
    let metrics: Vec<(String, Value)> = result
        .metrics
        .iter()
        .map(|m| (m.name.clone(), json!({ "value": m.value, "unit": m.unit })))
        .collect();
    json!({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": Value::Object(metrics),
    })
}

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and how a result set was measured.
pub fn provenance(opts: &Options) -> Value {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = |args: &[&str]| stdout_of(Command::new("git").arg("-C").arg(&root).args(args));
    let commit = git(&["rev-parse", "HEAD"]).map(|head| match git(&["status", "--porcelain"]) {
        Some(changes) if changes.is_empty() => head,
        _ => head + "-dirty",
    });
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        });
    let kernel = dense::tuning::active();
    json!({
        "commit": commit.unwrap_or_else(|| "unknown".into()),
        "rustc": stdout_of(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into()),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "cpu_model": cpu_model.unwrap_or_else(|| "unknown".into()),
        "kernel": {
            "variant": kernel.variant.id,
            "kc": kernel.kc,
            "mc": kernel.mc,
            "nc": kernel.nc,
        },
        "seed": opts.seed,
        "seconds": opts.seconds,
        "setup_reps": crate::SETUP_REPS,
        "traced_reps": crate::TRACED_REPS,
        "smoke": opts.smoke,
    })
}
