//! Golden-volume regression support.
//!
//! The paper's claims are exact per-rank byte counts, so the conformance
//! suite pins the measured traffic of fixed `(N, P, M)` runs to committed
//! golden values: any schedule change that alters traffic — an extra
//! broadcast, a widened panel, a collective swapped for another algorithm —
//! fails the diff explicitly instead of silently shifting the measured
//! curves. Golden files are blessed by rerunning with `GOLDEN_BLESS=1`,
//! which rewrites the entry and leaves the diff to code review.
//!
//! The serialized snapshot keeps per-rank totals *and* the per-phase
//! breakdown, so a regression names the phase that drifted (e.g.
//! `update_a11` grew on layer-0 ranks) rather than just the total.

use std::fs;
use std::path::Path;
use xmpi::WorldStats;

/// How [`check_golden`] treats a mismatch or missing entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenMode {
    /// Compare; mismatches and missing entries are errors.
    Check,
    /// Rewrite the entry with the measured values (then still return `Ok`).
    Bless,
}

/// Read the blessing switch: `GOLDEN_BLESS=1` in the environment selects
/// [`GoldenMode::Bless`].
pub fn golden_mode() -> GoldenMode {
    match std::env::var("GOLDEN_BLESS") {
        Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => GoldenMode::Bless,
        _ => GoldenMode::Check,
    }
}

/// Serialize a world's traffic into a canonical JSON value: per-rank
/// `{sent, recv, phases}` with phase keys sorted, so equal stats always
/// produce byte-identical JSON (the file diff in CI is meaningful).
pub fn snapshot(stats: &WorldStats) -> serde_json::Value {
    use serde_json::Value;
    let ranks: Vec<Value> = stats
        .ranks
        .iter()
        .map(|r| {
            let mut phases: Vec<(&String, &(u64, u64))> = r.per_phase.iter().collect();
            phases.sort_by_key(|(name, _)| name.as_str());
            let phase_obj: Vec<(String, Value)> = phases
                .into_iter()
                .map(|(name, &(s, v))| {
                    (
                        name.clone(),
                        Value::Array(vec![Value::UInt(s), Value::UInt(v)]),
                    )
                })
                .collect();
            Value::Object(vec![
                ("sent".to_string(), Value::UInt(r.bytes_sent)),
                ("recv".to_string(), Value::UInt(r.bytes_recv)),
                ("phases".to_string(), Value::Object(phase_obj)),
            ])
        })
        .collect();
    Value::Object(vec![("ranks".to_string(), Value::Array(ranks))])
}

/// Compare `stats` against the golden entry `key` in the JSON file at
/// `path` (an object keyed by run label). In [`GoldenMode::Bless`] the
/// entry (and file, if missing) is created or rewritten instead.
///
/// Errors carry a human-readable description of the first divergence —
/// which rank, which phase, expected vs measured bytes — plus the bless
/// instructions.
pub fn check_golden(
    path: &Path,
    key: &str,
    stats: &WorldStats,
    mode: GoldenMode,
) -> Result<(), String> {
    use serde_json::Value;
    let measured = snapshot(stats);

    let mut root = match fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text)
            .map_err(|e| format!("golden file {} is not valid JSON: {e}", path.display()))?,
        Err(_) if mode == GoldenMode::Bless => Value::Object(Vec::new()),
        Err(e) => {
            return Err(format!(
                "golden file {} unreadable ({e}); run with GOLDEN_BLESS=1 to create it",
                path.display()
            ))
        }
    };

    if mode == GoldenMode::Bless {
        let entries = match &mut root {
            Value::Object(entries) => entries,
            _ => return Err(format!("golden file {} is not an object", path.display())),
        };
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = measured,
            None => entries.push((key.to_string(), measured)),
        }
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
        let text = serde_json::to_string_pretty(&root).map_err(|e| e.to_string())?;
        fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
        return Ok(());
    }

    let golden = root.get(key).ok_or_else(|| {
        format!(
            "no golden entry {key:?} in {}; run with GOLDEN_BLESS=1 to record it",
            path.display()
        )
    })?;
    diff(key, golden, &measured)
}

/// First-divergence diff between a golden and a measured snapshot.
fn diff(key: &str, golden: &serde_json::Value, measured: &serde_json::Value) -> Result<(), String> {
    if golden == measured {
        return Ok(());
    }
    let g_ranks = golden.get("ranks").and_then(|v| v.as_array());
    let m_ranks = measured.get("ranks").and_then(|v| v.as_array());
    let detail = match (g_ranks, m_ranks) {
        (Some(g), Some(m)) if g.len() != m.len() => {
            format!(
                "world size changed: golden {} ranks, measured {}",
                g.len(),
                m.len()
            )
        }
        (Some(g), Some(m)) => {
            let mut msg = String::from("first divergence: ");
            'outer: {
                for (rank, (gr, mr)) in g.iter().zip(m).enumerate() {
                    for field in ["sent", "recv"] {
                        let gv = gr.get(field).and_then(|v| v.as_u64());
                        let mv = mr.get(field).and_then(|v| v.as_u64());
                        if gv != mv {
                            msg +=
                                &format!("rank {rank} {field}: golden {gv:?} B, measured {mv:?} B");
                            break 'outer;
                        }
                    }
                    let (gp, mp) = (gr.get("phases"), mr.get("phases"));
                    if gp != mp {
                        msg += &format!(
                            "rank {rank} per-phase breakdown: golden {}, measured {}",
                            gp.map(|v| v.to_string()).unwrap_or_default(),
                            mp.map(|v| v.to_string()).unwrap_or_default()
                        );
                        break 'outer;
                    }
                }
                msg += "snapshots differ structurally";
            }
            msg
        }
        _ => "snapshot missing 'ranks' array".to_string(),
    };
    Err(format!(
        "golden-volume mismatch for {key:?}: {detail}. If the traffic change is \
         intentional, rebless with GOLDEN_BLESS=1 and commit the diff."
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmpi::run;

    fn sample_stats(extra: bool) -> WorldStats {
        run(2, |c| {
            c.set_phase("talk");
            if c.rank() == 0 {
                c.send_f64(1, 0, &[1.0, 2.0]);
                if extra {
                    c.send_f64(1, 1, &[3.0]);
                }
            } else {
                c.recv_f64(0, 0);
                if extra {
                    c.recv_f64(0, 1);
                }
            }
        })
        .stats
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xharness-golden-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn bless_then_check_roundtrip() {
        let path = temp_path("roundtrip");
        let _ = fs::remove_file(&path);
        let stats = sample_stats(false);
        check_golden(&path, "k", &stats, GoldenMode::Bless).unwrap();
        check_golden(&path, "k", &stats, GoldenMode::Check).unwrap();
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn drifted_traffic_is_rejected_with_rank_detail() {
        let path = temp_path("drift");
        let _ = fs::remove_file(&path);
        check_golden(&path, "k", &sample_stats(false), GoldenMode::Bless).unwrap();
        let err = check_golden(&path, "k", &sample_stats(true), GoldenMode::Check).unwrap_err();
        assert!(err.contains("rank 0 sent"), "error was: {err}");
        assert!(err.contains("GOLDEN_BLESS"), "error was: {err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_entry_and_missing_file_are_actionable() {
        let path = temp_path("missing");
        let _ = fs::remove_file(&path);
        let stats = sample_stats(false);
        let err = check_golden(&path, "k", &stats, GoldenMode::Check).unwrap_err();
        assert!(err.contains("GOLDEN_BLESS"), "error was: {err}");
        check_golden(&path, "other", &stats, GoldenMode::Bless).unwrap();
        let err = check_golden(&path, "k", &stats, GoldenMode::Check).unwrap_err();
        assert!(err.contains("no golden entry"), "error was: {err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn snapshot_is_canonical_and_stable() {
        let a = snapshot(&sample_stats(false));
        let b = snapshot(&sample_stats(false));
        assert_eq!(
            serde_json::to_string_pretty(&a).unwrap(),
            serde_json::to_string_pretty(&b).unwrap()
        );
    }

    #[test]
    fn blessed_entries_stay_sorted() {
        let path = temp_path("sorted");
        let _ = fs::remove_file(&path);
        let stats = sample_stats(false);
        for key in ["zeta", "alpha", "mid"] {
            check_golden(&path, key, &stats, GoldenMode::Bless).unwrap();
        }
        let root = serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        let keys: Vec<&str> = root
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
        let _ = fs::remove_file(&path);
    }
}
