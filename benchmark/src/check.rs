//! `check A.json B.json`: is result set B no worse than result set A? The
//! A/A check of one commit against itself, and the before/after comparison
//! of two commits.

use serde_json::Value;
use std::path::Path;

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// The workload entries of a result set, by name.
fn workloads(set: &Value) -> Result<Vec<(&str, &Value)>, String> {
    let list = set
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("result set has no workloads")?;
    list.iter()
        .map(|w| {
            Ok((
                w.get("workload")
                    .and_then(Value::as_str)
                    .ok_or("unnamed workload")?,
                w,
            ))
        })
        .collect()
}

fn metric(workload: &Value, name: &str) -> Option<f64> {
    workload.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// How one metric is gated.
enum Gate {
    /// May get worse by at most this share of A's value.
    Relative { bound: f64, lower_is_better: bool },
    /// A count: must be identical.
    Exact,
    /// `fail_ratio`: must not increase.
    NoIncrease,
}

/// The gated metrics: every end-to-end metric with its bound, every
/// per-layer metric that is a count of bytes or things, and `fail_ratio`.
fn gates(benchmark: &Value) -> Result<Vec<(String, Gate)>, String> {
    let list = |key: &str| {
        let found = benchmark.get(key).and_then(Value::as_array);
        found.ok_or(format!("BENCHMARK.json has no {key}"))
    };
    let field = |m: &Value, key: &str| -> Result<String, String> {
        let found = m.get(key).and_then(Value::as_str);
        Ok(found
            .ok_or(format!("BENCHMARK.json metric without {key}"))?
            .to_string())
    };
    let mut gates = Vec::new();
    for m in list("end_to_end")? {
        let bound = m
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or("end-to-end metric without bound")?;
        let lower_is_better = field(m, "better")? == "lower";
        gates.push((
            field(m, "name")?,
            Gate::Relative {
                bound,
                lower_is_better,
            },
        ));
    }
    for m in list("per_layer")? {
        let name = field(m, "name")?;
        if name == "fail_ratio" {
            gates.push((name, Gate::NoIncrease));
        } else if matches!(field(m, "unit")?.as_str(), "count" | "bytes") {
            gates.push((name, Gate::Exact));
        }
    }
    Ok(gates)
}

/// Compare `b` against `a` under the bounds in `benchmark`; prints one row
/// per workload and gated metric. `Ok(false)` on any breach.
pub fn check(benchmark: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let gates = gates(&load(benchmark)?)?;
    let (set_a, set_b) = (load(a)?, load(b)?);
    let (in_a, in_b) = (workloads(&set_a)?, workloads(&set_b)?);
    let mut breaches = 0;
    println!(
        "{:<14} {:<32} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for (name, wa) in &in_a {
        let Some((_, wb)) = in_b.iter().find(|(n, _)| n == name) else {
            println!("{name:<14} missing from B");
            breaches += 1;
            continue;
        };
        if wb.get("correct").and_then(Value::as_bool) != Some(true) {
            println!("{name:<14} B's outputs are not correct");
            breaches += 1;
        }
        for (metric_name, gate) in &gates {
            let (va, vb) = match (metric(wa, metric_name), metric(wb, metric_name)) {
                (Some(va), Some(vb)) => (va, vb),
                // Neither set measured it (a `--trace 0` or `--trace 1` set).
                (None, None) => continue,
                _ => {
                    println!("{name:<14} {metric_name:<32} is in only one of the sets");
                    breaches += 1;
                    continue;
                }
            };
            let change = (vb - va) / va;
            let (ok, limit) = match *gate {
                Gate::Relative {
                    bound,
                    lower_is_better,
                } => {
                    let worse = if lower_is_better { change } else { -change };
                    (worse <= bound, format!("within {:.0}%", bound * 100.0))
                }
                Gate::Exact => (va == vb, "exact".into()),
                Gate::NoIncrease => (vb <= va, "no increase".into()),
            };
            let verdict = if ok { "ok" } else { "BREACH" };
            let change = if va == vb { 0.0 } else { change * 100.0 };
            println!("{name:<14} {metric_name:<32} {va:>16.6} {vb:>16.6} {change:>+8.2}%  {verdict} ({limit})");
            breaches += usize::from(!ok);
        }
    }
    println!("{breaches} breach(es)");
    Ok(breaches == 0)
}
