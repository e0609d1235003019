//! Integration tests for the experiments engine: registry round-trips,
//! dedup, trend behavior on thin histories, and the committed negative
//! control — an injected GFLOP/s regression must trip `bench ablate check`.

use bench::ablate::run_ablation;
use bench::plan::{parse_toml, AblationPlan};
use bench::provenance::Stamp;
use bench::registry::{rows_for, Query, RegRow, Registry};
use bench::trend::{baseline, check_outcomes, series, BreachKind};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// A fresh registry directory per test (unique under the target temp dir).
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bench-registry-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stamp_at(commit: &str, unix: u64) -> Stamp {
    Stamp {
        commit: commit.to_string(),
        machine: "test-machine".to_string(),
        timestamp: format!("t{unix}"),
        unix_secs: unix,
        plan_hash: None,
    }
}

fn kpis(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

#[test]
fn append_then_query_round_trips() {
    let reg = Registry::new(scratch("roundtrip"));
    let stamp = stamp_at("abc123", 100);
    let m = kpis(&[("model_gflops", 1.5), ("comm_factor", 3.0)]);
    let (rows, record) = rows_for(&stamp, "unit", "hash1", "cell=a", &m);
    let out = reg.append(&rows, &[record]).unwrap();
    assert_eq!(out.appended, 2);
    assert_eq!(out.deduped, 0);

    let loaded = reg.load().unwrap();
    assert_eq!(loaded.len(), 2);
    let q = Query {
        kpi: Some("model_gflops".into()),
        commit: Some("abc".into()),
        ..Query::default()
    };
    let hits: Vec<&RegRow> = loaded.iter().filter(|r| q.matches(r)).collect();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].value, 1.5);
    assert_eq!(hits[0].plan, "unit");

    // The JSONL sidecar holds one parseable record per cell.
    let jsonl = std::fs::read_to_string(reg.jsonl_path()).unwrap();
    let rec = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
    assert_eq!(rec["provenance"]["commit"], "abc123");
    assert_eq!(rec["kpis"]["comm_factor"], 3.0);
}

#[test]
fn reappending_the_same_run_is_deduped() {
    let reg = Registry::new(scratch("dedup"));
    let stamp = stamp_at("abc123", 100);
    let m = kpis(&[("model_gflops", 1.5)]);
    let (rows, record) = rows_for(&stamp, "unit", "hash1", "cell=a", &m);
    assert_eq!(
        reg.append(&rows, std::slice::from_ref(&record))
            .unwrap()
            .appended,
        1
    );

    // Same (plan_hash, commit, cell, kpi): a CI retry must not double-count.
    let retry = reg.append(&rows, &[record]).unwrap();
    assert_eq!(retry.appended, 0);
    assert_eq!(retry.deduped, 1);
    assert_eq!(reg.load().unwrap().len(), 1);

    // A different commit is a new trajectory point, not a duplicate.
    let (rows2, rec2) = rows_for(&stamp_at("def456", 200), "unit", "hash1", "cell=a", &m);
    assert_eq!(reg.append(&rows2, &[rec2]).unwrap().appended, 1);
    assert_eq!(reg.load().unwrap().len(), 2);
}

#[test]
fn trend_on_empty_and_single_row_registries() {
    let reg = Registry::new(scratch("thin"));
    // Empty: loads fine, no trajectory, no baseline.
    let rows = reg.load().unwrap();
    assert!(rows.is_empty());
    let pts = series(&rows, "hash1", "cell=a", "model_gflops");
    assert!(pts.is_empty());
    assert_eq!(baseline(&pts, "me"), None);

    // Single foreign row: the baseline is that row.
    let (r, rec) = rows_for(
        &stamp_at("other", 100),
        "unit",
        "hash1",
        "cell=a",
        &kpis(&[("model_gflops", 2.0)]),
    );
    reg.append(&r, &[rec]).unwrap();
    let rows = reg.load().unwrap();
    let pts = series(&rows, "hash1", "cell=a", "model_gflops");
    assert_eq!(pts.len(), 1);
    assert_eq!(baseline(&pts, "me"), Some(2.0));
    // ... unless the single row is our own commit.
    assert_eq!(baseline(&pts, "other"), None);
}

#[test]
fn relative_checks_are_skipped_not_failed_without_history() {
    let plan = tiny_plan();
    let outcomes = vec![("cell=a".to_string(), kpis(&[("model_gflops", 1.0)]))];
    let report = check_outcomes(&plan, &outcomes, &[], "head", "test-machine");
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.no_baseline, 1);
}

fn tiny_plan() -> AblationPlan {
    let text = r#"
name = "negctl"
workload = "factor"
[axes]
algo = ["conflux"]
n = [32]
p = [4]
[tolerances.model_gflops]
rel_drop = 0.10
"#;
    AblationPlan::from_value(&parse_toml(text).unwrap()).unwrap()
}

/// The committed negative control: record a baseline, then present a run
/// whose GFLOP/s is 20% lower — `check` must breach and the report must
/// name the broken tolerance.
#[test]
fn injected_gflops_regression_trips_check() {
    let plan = tiny_plan();
    let reg = Registry::new(scratch("negctl"));

    // Run the real single-cell grid once to get a genuine outcome shape.
    let run = run_ablation(&plan);
    assert_eq!(run.outcomes.len(), 1, "skipped: {:?}", run.skipped);
    let cell_id = run.outcomes[0].cell.id();
    let measured = run.outcomes[0].kpis["model_gflops"];

    // Commit a doctored baseline 25% above the measured value, from an
    // earlier commit — the measured run is now a 20% regression.
    let doctored = kpis(&[("model_gflops", measured * 1.25)]);
    let (rows, rec) = rows_for(
        &stamp_at("baseline0", 100),
        &plan.name,
        &plan.hash(),
        &cell_id,
        &doctored,
    );
    reg.append(&rows, &[rec]).unwrap();

    let history = reg.load().unwrap();
    let report = check_outcomes(&plan, &run.id_outcomes(), &history, "head1", "test-machine");
    assert_eq!(report.breaches.len(), 1, "{}", report.render());
    let b = &report.breaches[0];
    assert_eq!(b.kpi, "model_gflops");
    assert_eq!(b.cell, cell_id);
    assert!(
        matches!(b.kind, BreachKind::DropVsTrend { rel_drop, .. } if rel_drop == 0.10),
        "{:?}",
        b.kind
    );
    // The rendered report names the breached tolerance per KPI.
    let text = report.render();
    assert!(text.contains("rel_drop"), "{text}");
    assert!(text.contains("model_gflops"), "{text}");

    // Control of the control: against an honest baseline the same run is
    // clean.
    let honest = check_outcomes(&plan, &run.id_outcomes(), &[], "head1", "test-machine");
    assert!(honest.is_clean());

    // A baseline from a different machine must not gate this run's
    // wall-clock-sensitive KPIs: the doctored history is invisible then.
    let other = check_outcomes(
        &plan,
        &run.id_outcomes(),
        &history,
        "head1",
        "other-machine",
    );
    assert!(other.is_clean(), "{}", other.render());
}

/// The committed registry is keyed the way the committed plans key a run
/// today: no cell id carries an axis the plans no longer have (`la=`, the
/// schedule axis), and every plan with a recorded history finds it under
/// its current hash, so `ablations trend` and `check` see their trajectory.
#[test]
fn committed_registry_rows_match_the_committed_plans() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    for file in ["ablations.csv", "ablations.jsonl"] {
        let text = std::fs::read_to_string(root.join("registry").join(file)).unwrap();
        let stale = text.lines().filter(|l| l.contains("la=")).count();
        assert_eq!(stale, 0, "{file}: {stale} row(s) carry `la=`");
    }
    let rows = Registry::new(root.join("registry")).load().unwrap();
    for name in ["smoke", "comm", "kernels"] {
        let plan = AblationPlan::load(&root.join(format!("plans/{name}.toml"))).unwrap();
        let hash = plan.hash();
        assert!(
            rows.iter().any(|r| r.plan == name && r.plan_hash == hash),
            "no {name} row under its current hash {hash}"
        );
    }
}

/// The committed smoke plan keeps its acceptance-criteria shape: it parses,
/// expands to at least 12 cells, and gates at least one deterministic KPI.
#[test]
fn committed_smoke_plan_is_a_12_plus_cell_grid() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../plans/smoke.toml");
    let plan = AblationPlan::load(&path).unwrap();
    assert!(
        plan.cells().len() >= 12,
        "smoke plan shrank to {} cells",
        plan.cells().len()
    );
    assert!(plan.tolerances.contains_key("model_gflops"));
    assert!(plan.tolerances.contains_key("comm_factor"));

    let kernels = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../plans/kernels.toml");
    let kplan = AblationPlan::load(&kernels).unwrap();
    let floor = kplan.tolerances["gemm_speedup"];
    assert_eq!(floor.min, Some(2.0), "the old CI floor must survive");
    for kpi in ["gflops_gemm", "gflops_trsm"] {
        assert!(kplan.tolerances.contains_key(kpi), "{kpi} left ungated");
    }
}
