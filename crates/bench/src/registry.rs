//! Append-only performance registry.
//!
//! Two files under the registry directory record every ablation run:
//!
//! * `ablations.csv` — one row per `(cell, kpi)` in long format, the
//!   queryable trajectory:
//!   `timestamp,unix,commit,machine,plan,plan_hash,cell,kpi,value`
//! * `ablations.jsonl` — one JSON object per cell with the full provenance
//!   stamp and KPI map, for consumers that want structure over grep.
//!
//! Rows are **never rewritten**: an append deduplicates on
//! `(plan_hash, commit, cell, kpi)` — re-running the same plan at the same
//! commit is a no-op, so CI retries cannot double-count a point — and
//! otherwise only ever adds lines. History is the product; losing it is
//! what this subsystem exists to prevent.

use crate::provenance::Stamp;
use serde_json::Value;
use std::collections::HashSet;
use std::io::Write;
use std::path::PathBuf;

/// CSV column header, also the format version marker.
const CSV_HEADER: &str = "timestamp,unix,commit,machine,plan,plan_hash,cell,kpi,value";

/// One `(cell, kpi)` observation.
#[derive(Debug, Clone, PartialEq)]
pub struct RegRow {
    /// ISO-8601 UTC timestamp of the run.
    pub timestamp: String,
    /// Seconds since the UNIX epoch (sortable form of `timestamp`).
    pub unix: u64,
    /// Git commit of the producing code.
    pub commit: String,
    /// Machine fingerprint.
    pub machine: String,
    /// Plan name.
    pub plan: String,
    /// Plan hash (experiment identity).
    pub plan_hash: String,
    /// Cell identity ([`crate::plan::Cell::id`]).
    pub cell: String,
    /// KPI name.
    pub kpi: String,
    /// KPI value.
    pub value: f64,
}

impl RegRow {
    /// The dedup key: one observation per (experiment, commit, cell, KPI).
    pub(crate) fn key(&self) -> (String, String, String, String) {
        (
            self.plan_hash.clone(),
            self.commit.clone(),
            self.cell.clone(),
            self.kpi.clone(),
        )
    }

    fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{}",
            self.timestamp,
            self.unix,
            self.commit,
            self.machine,
            self.plan,
            self.plan_hash,
            self.cell,
            self.kpi,
            self.value
        )
    }

    fn from_csv(line: &str) -> Result<RegRow, String> {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 9 {
            return Err(format!("expected 9 columns, got {}: {line:?}", f.len()));
        }
        Ok(RegRow {
            timestamp: f[0].to_string(),
            unix: f[1]
                .parse()
                .map_err(|e| format!("bad unix {:?}: {e}", f[1]))?,
            commit: f[2].to_string(),
            machine: f[3].to_string(),
            plan: f[4].to_string(),
            plan_hash: f[5].to_string(),
            cell: f[6].to_string(),
            kpi: f[7].to_string(),
            value: f[8]
                .parse()
                .map_err(|e| format!("bad value {:?}: {e}", f[8]))?,
        })
    }
}

/// Outcome of one append call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Rows written.
    pub appended: usize,
    /// Rows skipped because their key already existed.
    pub deduped: usize,
}

/// Handle on a registry directory.
#[derive(Debug, Clone)]
pub struct Registry {
    dir: PathBuf,
}

impl Registry {
    /// A registry rooted at `dir` (created lazily on first append).
    pub fn new(dir: impl Into<PathBuf>) -> Registry {
        Registry { dir: dir.into() }
    }

    /// Path of the CSV trajectory.
    pub fn csv_path(&self) -> PathBuf {
        self.dir.join("ablations.csv")
    }

    /// Path of the JSONL cell records.
    pub fn jsonl_path(&self) -> PathBuf {
        self.dir.join("ablations.jsonl")
    }

    /// Load every recorded row. A missing file is an empty registry, not an
    /// error; a malformed line is an error naming the line.
    pub fn load(&self) -> Result<Vec<RegRow>, String> {
        let path = self.csv_path();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        let mut rows = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if i == 0 && line == CSV_HEADER {
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            rows.push(
                RegRow::from_csv(line)
                    .map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?,
            );
        }
        Ok(rows)
    }

    /// Append rows (deduplicated against the existing file) and their JSONL
    /// cell records. The CSV header is written when the file is new.
    pub fn append(&self, rows: &[RegRow], cells: &[Value]) -> Result<AppendOutcome, String> {
        let existing: HashSet<_> = self.load()?.iter().map(RegRow::key).collect();
        let mut fresh: Vec<&RegRow> = Vec::new();
        let mut seen = existing.clone();
        for r in rows {
            if seen.insert(r.key()) {
                fresh.push(r);
            }
        }
        let outcome = AppendOutcome {
            appended: fresh.len(),
            deduped: rows.len() - fresh.len(),
        };
        if fresh.is_empty() {
            return Ok(outcome);
        }

        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("mkdir {}: {e}", self.dir.display()))?;
        let csv = self.csv_path();
        let new_file = !csv.exists();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&csv)
            .map_err(|e| format!("open {}: {e}", csv.display()))?;
        let mut buf = String::new();
        if new_file {
            buf.push_str(CSV_HEADER);
            buf.push('\n');
        }
        for r in &fresh {
            buf.push_str(&r.to_csv());
            buf.push('\n');
        }
        f.write_all(buf.as_bytes())
            .map_err(|e| format!("append {}: {e}", csv.display()))?;

        if !cells.is_empty() {
            let jl = self.jsonl_path();
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&jl)
                .map_err(|e| format!("open {}: {e}", jl.display()))?;
            let mut buf = String::new();
            for c in cells {
                buf.push_str(&serde_json::to_string(c).expect("cell record serializes"));
                buf.push('\n');
            }
            f.write_all(buf.as_bytes())
                .map_err(|e| format!("append {}: {e}", jl.display()))?;
        }
        Ok(outcome)
    }
}

/// Substring/equality filters for `bench ablate query`.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Exact plan name.
    pub plan: Option<String>,
    /// Exact KPI name.
    pub kpi: Option<String>,
    /// Commit prefix (so short hashes work).
    pub commit: Option<String>,
    /// Substring of the cell id.
    pub cell: Option<String>,
}

impl Query {
    /// Does `row` satisfy every set filter?
    pub fn matches(&self, row: &RegRow) -> bool {
        self.plan.as_ref().is_none_or(|p| &row.plan == p)
            && self.kpi.as_ref().is_none_or(|k| &row.kpi == k)
            && self
                .commit
                .as_ref()
                .is_none_or(|c| row.commit.starts_with(c.as_str()))
            && self
                .cell
                .as_ref()
                .is_none_or(|c| row.cell.contains(c.as_str()))
    }
}

/// Flatten one run's cell outcomes into registry rows plus JSONL records,
/// stamped with shared provenance.
pub fn rows_for(
    stamp: &Stamp,
    plan: &str,
    plan_hash: &str,
    cell: &str,
    kpis: &std::collections::BTreeMap<String, f64>,
) -> (Vec<RegRow>, Value) {
    let rows = kpis
        .iter()
        .map(|(k, &v)| RegRow {
            timestamp: stamp.timestamp.clone(),
            unix: stamp.unix_secs,
            commit: stamp.commit.clone(),
            machine: stamp.machine.clone(),
            plan: plan.to_string(),
            plan_hash: plan_hash.to_string(),
            cell: cell.to_string(),
            kpi: k.clone(),
            value: v,
        })
        .collect();
    let record = serde_json::json!({
        "provenance": stamp.to_json(),
        "plan": plan,
        "plan_hash": plan_hash,
        "cell": cell,
        "kpis": kpis,
    });
    (rows, record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_row_round_trips() {
        let r = RegRow {
            timestamp: "2026-08-08T00:00:00Z".into(),
            unix: 1,
            commit: "abc".into(),
            machine: "linux-x86_64-c8-h".into(),
            plan: "smoke".into(),
            plan_hash: "deadbeef".into(),
            cell: "algo=conflux;n=64;p=4;c=0;block=0;la=1;ck=0;seed=0".into(),
            kpi: "model_gflops".into(),
            value: 123.456,
        };
        let back = RegRow::from_csv(&r.to_csv()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn bad_lines_are_named() {
        assert!(RegRow::from_csv("too,few").unwrap_err().contains("columns"));
    }

    #[test]
    fn query_filters_compose() {
        let r = RegRow::from_csv("t,1,abcdef,m,smoke,h,cell=x,model_gflops,1.0").unwrap();
        let q = Query {
            plan: Some("smoke".into()),
            commit: Some("abc".into()),
            ..Query::default()
        };
        assert!(q.matches(&r));
        let q = Query {
            kpi: Some("comm_factor".into()),
            ..Query::default()
        };
        assert!(!q.matches(&r));
    }
}
