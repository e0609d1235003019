//! Declarative ablation plans.
//!
//! A plan is a TOML (or JSON) file describing a sweep grid plus the KPI
//! tolerances a `bench ablate check` run is held to:
//!
//! ```toml
//! name = "smoke"
//! description = "nightly smoke grid"
//! workload = "factor"              # factor|kernels|comm|transport
//!
//! [axes]                           # cartesian grid; missing axes default
//! algo = ["conflux", "confchox"]   # conflux|confchox|twod-lu|twod-chol|lu25d
//! n = [96, 128]                    # matrix dimension
//! p = [4, 8]                       # rank count
//! c = [0]                          # replication depth (M = c·N²/P); 0 = auto
//! block = [0]                      # block size v; 0 = auto
//! checksum = [false]               # true = ABFT fault-tolerant path
//! seed = [0]                       # perturbation seeds; or seed = "env"
//!
//! [tolerances.model_gflops]        # per-KPI gates for `check`
//! min = 0.5                        # absolute floor
//! rel_drop = 0.20                  # breach if < baseline·(1 − 0.20)
//! [tolerances.comm_factor]
//! max = 40.0                       # absolute ceiling
//! rel_rise = 0.25                  # breach if > baseline·(1 + 0.25)
//! ```
//!
//! The `seed` axis accepts [`xharness::seed_axis`] specs (`"env"` defers to
//! `XHARNESS_SEEDS`), so the seed-matrix convention of the perturbation
//! suite is an ordinary ablation axis here.
//!
//! The **plan hash** covers name, workload, axes, and fixed parameters —
//! the experiment's identity — and deliberately excludes tolerances:
//! tightening a gate must not orphan the recorded trajectory.
//!
//! The TOML support is a deliberate subset parsed in-tree (the build
//! environment has no registry access): comments, `[table]` /
//! `[table.sub]` headers, and single-line `key = value` pairs with string,
//! boolean, integer, float, and one-line array values.

use crate::provenance::fnv1a_hex;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// What a plan's cells execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanWorkload {
    /// Distributed factorizations through `ablate::run_cell`, priced under
    /// `xtrace::Machine`.
    Factor,
    /// Local dense-kernel throughput (`experiments::kernels`).
    Kernels,
    /// Transport microbenchmark (`experiments::comm`): p2p latency and
    /// tree-vs-linear broadcast wall-clock. `n` is the message size in f64
    /// elements, `p` the broadcast world size.
    Comm,
    /// Transport α-β calibration (`experiments::transport`): the measured
    /// postal-model constants of the in-process *and* socket backends next
    /// to the simulated machine's. `n` is the probed message size in f64
    /// elements, `p` the broadcast world size. Socket cells spawn child
    /// rank processes that re-execute the current binary.
    Transport,
}

impl PlanWorkload {
    pub(crate) fn name(self) -> &'static str {
        match self {
            PlanWorkload::Factor => "factor",
            PlanWorkload::Kernels => "kernels",
            PlanWorkload::Comm => "comm",
            PlanWorkload::Transport => "transport",
        }
    }
}

/// Per-KPI gate. Absolute bounds apply to every run; relative bounds apply
/// against the registry trend and are skipped when no history exists.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tolerance {
    /// Absolute floor on the KPI value.
    pub min: Option<f64>,
    /// Absolute ceiling on the KPI value.
    pub max: Option<f64>,
    /// Max allowed fractional drop below the trend baseline
    /// (for higher-is-better KPIs like GFLOP/s).
    pub rel_drop: Option<f64>,
    /// Max allowed fractional rise above the trend baseline
    /// (for lower-is-better KPIs like comm volume).
    pub rel_rise: Option<f64>,
}

/// One point of the expanded grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Algorithm name (`"kernels"` for the kernels workload).
    pub algo: String,
    /// Matrix dimension.
    pub n: usize,
    /// Rank count (1 for local-kernel cells).
    pub p: usize,
    /// Replication depth; 0 = automatic grid selection.
    pub c: usize,
    /// Block size; 0 = automatic.
    pub block: usize,
    /// ABFT-checksummed fault-tolerant path.
    pub checksum: bool,
    /// Schedule-perturbation seed.
    pub seed: u64,
}

impl Cell {
    /// `algo` at `(n, p)` with every other axis at its plan default:
    /// automatic grid and block, no checksums, seed 0.
    pub fn auto(algo: &str, n: usize, p: usize) -> Cell {
        Cell {
            algo: algo.to_string(),
            n,
            p,
            c: 0,
            block: 0,
            checksum: false,
            seed: 0,
        }
    }

    /// Canonical cell identity — the registry's dedup/trend key. Contains
    /// no commas, so it is safe inside a CSV column.
    pub fn id(&self) -> String {
        format!(
            "algo={};n={};p={};c={};block={};ck={};seed={}",
            self.algo, self.n, self.p, self.c, self.block, self.checksum as u8, self.seed
        )
    }
}

/// A parsed, validated ablation plan.
#[derive(Debug, Clone)]
pub struct AblationPlan {
    /// Unique plan name (the registry's `plan` column).
    pub name: String,
    /// Human description.
    pub description: String,
    /// What the cells execute.
    pub workload: PlanWorkload,
    /// Axis values, in canonical order.
    pub algos: Vec<String>,
    /// `n` axis.
    pub ns: Vec<usize>,
    /// `p` axis.
    pub ps: Vec<usize>,
    /// `c` axis.
    pub cs: Vec<usize>,
    /// `block` axis.
    pub blocks: Vec<usize>,
    /// `checksum` axis.
    pub checksums: Vec<bool>,
    /// `seed` axis.
    pub seeds: Vec<u64>,
    /// Timing repetitions for the kernels workload.
    pub reps: usize,
    /// Per-KPI gates.
    pub tolerances: BTreeMap<String, Tolerance>,
}

impl AblationPlan {
    /// Load a `.toml` or `.json` plan file.
    pub fn load(path: &Path) -> Result<AblationPlan, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let value = if path.extension().is_some_and(|e| e == "json") {
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?
        } else {
            parse_toml(&text).map_err(|e| format!("{}: {e}", path.display()))?
        };
        AblationPlan::from_value(&value)
    }

    /// Interpret a parsed document.
    pub fn from_value(v: &Value) -> Result<AblationPlan, String> {
        let name = str_field(v, "name")?;
        let description = v["description"].as_str().unwrap_or("").to_string();
        let workload = match v["workload"].as_str().unwrap_or("factor") {
            "factor" => PlanWorkload::Factor,
            "kernels" => PlanWorkload::Kernels,
            "comm" => PlanWorkload::Comm,
            "transport" => PlanWorkload::Transport,
            other => {
                return Err(format!(
                    "unknown workload {other:?} (factor|kernels|comm|transport)"
                ))
            }
        };
        let axes = v.get("axes").unwrap_or(&Value::Null);

        let algos = match workload {
            PlanWorkload::Kernels => vec!["kernels".to_string()],
            PlanWorkload::Comm => vec!["comm".to_string()],
            PlanWorkload::Transport => vec!["transport".to_string()],
            PlanWorkload::Factor => {
                let a = string_axis(axes, "algo")?
                    .ok_or("factor plans need an [axes] algo list".to_string())?;
                for name in &a {
                    if crate::kpi::Algo::from_name(name).is_none() {
                        return Err(format!("unknown algo {name:?} in axes"));
                    }
                }
                a
            }
        };
        let ns = usize_axis(axes, "n")?.ok_or("plans need an [axes] n list".to_string())?;
        let ps = usize_axis(axes, "p")?.unwrap_or_else(|| vec![1]);
        let cs = usize_axis(axes, "c")?.unwrap_or_else(|| vec![0]);
        let blocks = usize_axis(axes, "block")?.unwrap_or_else(|| vec![0]);
        let checksums = bool_axis(axes, "checksum")?.unwrap_or_else(|| vec![false]);
        let seeds = seed_axis_values(axes)?;
        let reps = v
            .get("fixed")
            .and_then(|f| f.get("reps"))
            .and_then(Value::as_u64)
            .unwrap_or(3) as usize;

        let mut tolerances = BTreeMap::new();
        if let Some(tols) = v.get("tolerances").and_then(Value::as_object) {
            for (kpi, spec) in tols {
                let t = Tolerance {
                    min: spec.get("min").and_then(Value::as_f64),
                    max: spec.get("max").and_then(Value::as_f64),
                    rel_drop: spec.get("rel_drop").and_then(Value::as_f64),
                    rel_rise: spec.get("rel_rise").and_then(Value::as_f64),
                };
                if t == Tolerance::default() {
                    return Err(format!(
                        "tolerance {kpi:?} declares no bound (min/max/rel_drop/rel_rise)"
                    ));
                }
                tolerances.insert(kpi.clone(), t);
            }
        }

        Ok(AblationPlan {
            name,
            description,
            workload,
            algos,
            ns,
            ps,
            cs,
            blocks,
            checksums,
            seeds,
            reps,
            tolerances,
        })
    }

    /// Stable plan hash over the experiment identity (name, workload, axes,
    /// fixed parameters) — tolerances excluded by design.
    pub fn hash(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "name={};workload={};algo={:?};n={:?};p={:?};c={:?};block={:?};ck={:?};seed={:?};reps={}",
            self.name,
            self.workload.name(),
            self.algos,
            self.ns,
            self.ps,
            self.cs,
            self.blocks,
            self.checksums,
            self.seeds,
            self.reps
        );
        fnv1a_hex(s.as_bytes())
    }

    /// Cartesian expansion of the grid, in canonical axis order.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for algo in &self.algos {
            for &n in &self.ns {
                for &p in &self.ps {
                    for &c in &self.cs {
                        for &block in &self.blocks {
                            for &checksum in &self.checksums {
                                for &seed in &self.seeds {
                                    out.push(Cell {
                                        algo: algo.clone(),
                                        n,
                                        p,
                                        c,
                                        block,
                                        checksum,
                                        seed,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v[key]
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("plan is missing the {key:?} string field"))
}

fn axis<'a>(axes: &'a Value, key: &str) -> Option<&'a Value> {
    axes.get(key)
}

fn string_axis(axes: &Value, key: &str) -> Result<Option<Vec<String>>, String> {
    match axis(axes, key) {
        None => Ok(None),
        Some(Value::Array(a)) => a
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("axis {key:?}: expected strings"))
            })
            .collect::<Result<_, _>>()
            .map(Some),
        Some(other) => Err(format!("axis {key:?}: expected an array, got {other}")),
    }
}

fn usize_axis(axes: &Value, key: &str) -> Result<Option<Vec<usize>>, String> {
    match axis(axes, key) {
        None => Ok(None),
        Some(Value::Array(a)) => a
            .iter()
            .map(|v| {
                v.as_u64()
                    .map(|u| u as usize)
                    .ok_or_else(|| format!("axis {key:?}: expected non-negative integers"))
            })
            .collect::<Result<_, _>>()
            .map(Some),
        Some(other) => Err(format!("axis {key:?}: expected an array, got {other}")),
    }
}

fn bool_axis(axes: &Value, key: &str) -> Result<Option<Vec<bool>>, String> {
    match axis(axes, key) {
        None => Ok(None),
        Some(Value::Array(a)) => a
            .iter()
            .map(|v| {
                v.as_bool()
                    .ok_or_else(|| format!("axis {key:?}: expected booleans"))
            })
            .collect::<Result<_, _>>()
            .map(Some),
        Some(other) => Err(format!("axis {key:?}: expected an array, got {other}")),
    }
}

/// The seed axis: an explicit integer list, or an [`xharness::seed_axis`]
/// spec string (`"env"`, `"N"`, `"list:a,b"`).
fn seed_axis_values(axes: &Value) -> Result<Vec<u64>, String> {
    match axis(axes, "seed") {
        None => Ok(vec![0]),
        Some(Value::Array(a)) => a
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| "axis \"seed\": expected non-negative integers".to_string())
            })
            .collect(),
        Some(Value::String(spec)) => xharness::seed_axis(spec, 2)
            .ok_or_else(|| format!("axis \"seed\": bad spec {spec:?} (env|N|list:a,b)")),
        Some(other) => Err(format!(
            "axis \"seed\": expected array or spec, got {other}"
        )),
    }
}

// ---------------------------------------------------------------------------
// TOML subset parser
// ---------------------------------------------------------------------------

/// Parse the supported TOML subset into a JSON document.
pub fn parse_toml(text: &str) -> Result<Value, String> {
    let mut root = Vec::new();
    let mut path: Vec<String> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let inner = header
                .strip_suffix(']')
                .ok_or_else(|| format!("line {lineno}: unterminated table header"))?;
            path = inner.split('.').map(|s| s.trim().to_string()).collect();
            if path.iter().any(String::is_empty) {
                return Err(format!("line {lineno}: empty table-path segment"));
            }
            table_at(&mut root, &path)?;
        } else if let Some((k, v)) = line.split_once('=') {
            let key = k.trim();
            if key.is_empty() {
                return Err(format!("line {lineno}: empty key"));
            }
            let value = parse_value(v.trim()).map_err(|e| format!("line {lineno}: {e}"))?;
            let table = table_at(&mut root, &path)?;
            if table.iter().any(|(k, _)| k == key) {
                return Err(format!("line {lineno}: duplicate key {key:?}"));
            }
            table.push((key.to_string(), value));
        } else {
            return Err(format!(
                "line {lineno}: expected `key = value` or `[table]`"
            ));
        }
    }
    Ok(Value::Object(root))
}

/// Walk/create the nested object at `path` (the shim's objects are
/// insertion-ordered `Vec<(key, value)>` entry lists).
fn table_at<'a>(
    root: &'a mut Vec<(String, Value)>,
    path: &[String],
) -> Result<&'a mut Vec<(String, Value)>, String> {
    let mut cur = root;
    for seg in path {
        let idx = match cur.iter().position(|(k, _)| k == seg) {
            Some(i) => i,
            None => {
                cur.push((seg.clone(), Value::Object(Vec::new())));
                cur.len() - 1
            }
        };
        cur = match &mut cur[idx].1 {
            Value::Object(o) => o,
            _ => return Err(format!("{seg:?} is both a value and a table")),
        };
    }
    Ok(cur)
}

/// Drop a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_escape = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' if !prev_escape => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_escape = ch == '\\' && !prev_escape;
    }
    line
}

fn parse_value(s: &str) -> Result<Value, String> {
    let s = s.trim();
    if s.is_empty() {
        return Err("empty value".into());
    }
    if let Some(body) = s.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or("arrays must close on the same line")?;
        let mut items = Vec::new();
        for part in split_top_level(body)? {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            items.push(parse_value(part)?);
        }
        return Ok(Value::Array(items));
    }
    if s.starts_with('"') {
        return parse_string(s);
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = s.parse::<f64>() {
        if !f.is_finite() {
            return Err(format!("non-finite float {s:?}"));
        }
        return Ok(Value::Float(f));
    }
    Err(format!("unsupported value {s:?}"))
}

fn parse_string(s: &str) -> Result<Value, String> {
    let inner = s
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| format!("unterminated string {s:?}"))?;
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(ch) = chars.next() {
        if ch == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                other => return Err(format!("bad escape \\{other:?}")),
            }
        } else if ch == '"' {
            return Err(format!("stray quote inside {s:?}"));
        } else {
            out.push(ch);
        }
    }
    Ok(Value::String(out))
}

/// Split an array body on commas not inside strings or nested brackets.
fn split_top_level(body: &str) -> Result<Vec<&str>, String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut prev_escape = false;
    let mut start = 0usize;
    for (i, ch) in body.char_indices() {
        match ch {
            '"' if !prev_escape => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth = depth.checked_sub(1).ok_or("unbalanced ]")?,
            ',' if !in_str && depth == 0 => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        prev_escape = ch == '\\' && !prev_escape;
    }
    if in_str {
        return Err("unterminated string in array".into());
    }
    parts.push(&body[start..]);
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAN: &str = r#"
# a smoke plan
name = "unit"
description = "test grid"   # trailing comment
workload = "factor"

[axes]
algo = ["conflux", "confchox"]
n = [64, 96]
p = [4]
seed = [0, 1]

[tolerances.model_gflops]
min = 0.1
rel_drop = 0.20
[tolerances.comm_factor]
rel_rise = 0.25
"#;

    #[test]
    fn toml_subset_round_trips() {
        let v = parse_toml(PLAN).unwrap();
        assert_eq!(v["name"], "unit");
        assert_eq!(v["axes"]["n"][1], 96);
        assert_eq!(v["tolerances"]["model_gflops"]["rel_drop"], 0.2);
    }

    #[test]
    fn plan_expands_the_cartesian_grid() {
        let plan = AblationPlan::from_value(&parse_toml(PLAN).unwrap()).unwrap();
        let cells = plan.cells();
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert!(cells
            .iter()
            .any(|c| c.id() == "algo=confchox;n=96;p=4;c=0;block=0;ck=0;seed=1"));
        // defaults filled in
        assert!(cells.iter().all(|c| !c.checksum));
    }

    #[test]
    fn hash_tracks_axes_not_tolerances() {
        let a = AblationPlan::from_value(&parse_toml(PLAN).unwrap()).unwrap();
        let mut loose = a.clone();
        loose.tolerances.clear();
        assert_eq!(
            a.hash(),
            loose.hash(),
            "tolerances must not change identity"
        );
        let mut widened = a.clone();
        widened.ns.push(128);
        assert_ne!(a.hash(), widened.hash(), "axes must change identity");
    }

    #[test]
    fn seed_axis_spec_string_expands() {
        let text = PLAN.replace("seed = [0, 1]", "seed = \"list:7\"");
        let plan = AblationPlan::from_value(&parse_toml(&text).unwrap()).unwrap();
        assert_eq!(plan.seeds, vec![7]);
    }

    #[test]
    fn errors_name_the_line() {
        let err = parse_toml("name = \"x\"\noops").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse_toml("a = [1,\n2]").unwrap_err();
        assert!(err.contains("same line"), "{err}");
    }

    #[test]
    fn unknown_algo_is_rejected() {
        let text = PLAN.replace("\"confchox\"", "\"blas\"");
        let err = AblationPlan::from_value(&parse_toml(&text).unwrap()).unwrap_err();
        assert!(err.contains("blas"), "{err}");
    }
}
