//! Self-test: a `--smoke` run goes through every code path (all four
//! workloads, the socket one-shots, a traced repetition, every probe), and
//! what it reports is exactly what `BENCHMARK.json` declares; `check`
//! passes a result set against itself and catches a 30 % slower timing and a
//! changed byte count.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn run_sh(args: &[&str]) -> bool {
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("run.sh");
    let status = Command::new("bash")
        .arg(script)
        .args(args)
        .status()
        .expect("spawn run.sh");
    status.success()
}

fn names(list: &Value) -> Vec<(String, String)> {
    let entries = list.as_array().expect("a list of named entries");
    let field = |e: &Value, key: &str| e[key].as_str().unwrap_or_default().to_string();
    entries
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn fields_mut(v: &mut Value) -> &mut Vec<(String, Value)> {
    match v {
        Value::Object(fields) => fields,
        other => panic!("expected an object, found {other}"),
    }
}

fn get_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    let field = fields_mut(v).iter_mut().find(|(k, _)| k == key);
    &mut field.unwrap_or_else(|| panic!("no field {key}")).1
}

/// A copy of `set` at `path` with one metric's value multiplied or shifted.
fn write_changed(
    set: &Value,
    path: &Path,
    workload: &str,
    metric: &str,
    change: impl Fn(f64) -> f64,
) {
    let mut copy = set.clone();
    let Value::Array(workloads) = get_mut(&mut copy, "workloads") else {
        panic!("workloads is a list");
    };
    let entry = workloads
        .iter_mut()
        .find(|w| w["workload"] == workload)
        .expect("workload present");
    let value = get_mut(get_mut(get_mut(entry, "metrics"), metric), "value");
    *value = Value::Float(change(value.as_f64().expect("a number")));
    std::fs::write(path, copy.to_string()).expect("write changed result set");
}

#[test]
fn smoke_run_reports_what_benchmark_json_declares_and_check_gates_it() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let base = path("smoke.json");
    assert!(
        run_sh(&["run", "--smoke", "--out", &base]),
        "smoke run failed"
    );

    let read = |p: &Path| {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p:?}: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {p:?}: {e}"))
    };
    let declared = read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let set = read(Path::new(&base));

    let declared_workloads: Vec<String> = names(&declared["workloads"])
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let mut declared_metrics = names(&declared["end_to_end"]);
    declared_metrics.extend(names(&declared["per_layer"]));
    declared_metrics.sort();
    let workloads = set["workloads"].as_array().expect("workloads");
    let ran: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w["workload"].as_str())
        .collect();
    assert_eq!(ran, declared_workloads);
    for w in workloads {
        assert_eq!(w["correct"], true, "{} is not correct", w["workload"]);
        assert_eq!(w["failed"], 0u64);
        let mut reported: Vec<(String, String)> = w["metrics"]
            .as_object()
            .expect("metrics")
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m["unit"].as_str().unwrap_or_default().to_string(),
                )
            })
            .collect();
        reported.sort();
        assert_eq!(reported, declared_metrics, "metrics of {}", w["workload"]);
    }
    assert!(set["provenance"]["kernel"]["variant"].as_str().is_some());

    assert!(
        run_sh(&["check", &base, &base]),
        "a result set must pass against itself"
    );
    let slower = path("slower.json");
    write_changed(&set, Path::new(&slower), "lu_p1", "factor_wall_s", |s| {
        s * 1.3
    });
    assert!(
        !run_sh(&["check", &base, &slower]),
        "a 30% slower wall must breach (no bound exceeds 25%)"
    );
    assert!(
        run_sh(&["check", &slower, &base]),
        "a faster wall is no breach"
    );
    let more_bytes = path("more_bytes.json");
    write_changed(
        &set,
        Path::new(&more_bytes),
        "lu_p8",
        "comm_max_rank_bytes",
        |b| b + 1.0,
    );
    assert!(
        !run_sh(&["check", &base, &more_bytes]),
        "one more byte must breach"
    );
}
