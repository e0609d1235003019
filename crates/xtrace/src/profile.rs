//! JSON profile reports with provenance.
//!
//! The per-phase and per-collective tables here are computed by walking the
//! *trace* (tracking each rank's active phase label and summing the bytes on
//! its send/receive events) — deliberately **not** copied from
//! [`xmpi::WorldStats`]. The runtime counts the same traffic through an
//! independent path (sharded atomics on the hot path), so equality between
//! the two is a real cross-check, and the integration tests assert it
//! exactly.

use std::collections::BTreeMap;
use std::process::Command;

use serde_json::{json, Value};
use xmpi::trace::Event;
use xmpi::{CollKind, WorldStats, WorldTrace};

use crate::critpath::{critical_path, path_length};
use crate::replay::{replay, Machine};
use crate::timeline::Timeline;

/// Where a profile came from: enough to reproduce the run.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Git commit of the code that produced the trace.
    pub commit: String,
    /// Run parameters (algorithm, N, P, ...), free-form.
    pub params: Value,
    /// RNG seed, when the run was seeded.
    pub seed: Option<u64>,
}

impl Provenance {
    /// Provenance stamped with the current `HEAD` commit (or `"unknown"`
    /// outside a git checkout).
    pub fn here(params: Value, seed: Option<u64>) -> Provenance {
        let commit = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            commit,
            params,
            seed,
        }
    }

    fn to_value(&self) -> Value {
        json!({
            "commit": self.commit,
            "params": self.params.clone(),
            "seed": match self.seed { Some(s) => json!(s), None => Value::Null },
        })
    }
}

/// Per-phase (sent, recv) byte totals derived purely from the trace.
///
/// Keyed by phase label; the pre-first-marker phase is `""` and, matching
/// [`xmpi::RankStats::per_phase`], phases with zero traffic are omitted.
pub fn phase_bytes_from_trace(trace: &WorldTrace) -> BTreeMap<String, (u64, u64)> {
    let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for rt in &trace.ranks {
        let mut cur = String::new();
        for e in &rt.events {
            match *e {
                Event::Phase { label, .. } => cur = trace.label(label).to_string(),
                Event::Send { bytes, .. } => totals.entry(cur.clone()).or_default().0 += bytes,
                Event::RecvDone { bytes, .. } => totals.entry(cur.clone()).or_default().1 += bytes,
                _ => {}
            }
        }
    }
    totals.retain(|_, &mut (s, r)| s != 0 || r != 0);
    totals
}

/// Per-collective-kind (bytes_sent, bytes_recv, msgs_sent, msgs_recv)
/// derived purely from the trace's send/receive event kinds.
pub fn coll_bytes_from_trace(trace: &WorldTrace) -> BTreeMap<CollKind, (u64, u64, u64, u64)> {
    let mut totals: BTreeMap<CollKind, (u64, u64, u64, u64)> = BTreeMap::new();
    for rt in &trace.ranks {
        for e in &rt.events {
            match *e {
                Event::Send { bytes, kind, .. } => {
                    let t = totals.entry(kind).or_default();
                    t.0 += bytes;
                    t.2 += 1;
                }
                Event::RecvDone { bytes, kind, .. } => {
                    let t = totals.entry(kind).or_default();
                    t.1 += bytes;
                    t.3 += 1;
                }
                _ => {}
            }
        }
    }
    totals
}

/// Build the full profile report for one traced run.
///
/// `stats` rides along for cross-checking: the report embeds the runtime's
/// own totals next to the trace-derived tables so a consumer (or a test)
/// can verify they agree.
pub fn profile_report(trace: &WorldTrace, stats: &WorldStats, prov: &Provenance) -> Value {
    let tl = Timeline::build(trace);
    let path = critical_path(trace);
    let machine = Machine::piz_daint();
    let rp = replay(trace, &machine);

    let per_phase = Value::Object(
        phase_bytes_from_trace(trace)
            .into_iter()
            .map(|(label, (sent, recv))| (label, json!({ "bytes_sent": sent, "bytes_recv": recv })))
            .collect(),
    );
    let per_coll = Value::Object(
        coll_bytes_from_trace(trace)
            .into_iter()
            .map(|(kind, (bs, br, ms, mr))| {
                (
                    kind.name().to_string(),
                    json!({
                        "bytes_sent": bs, "bytes_recv": br,
                        "msgs_sent": ms, "msgs_recv": mr,
                    }),
                )
            })
            .collect(),
    );

    let ranks: Vec<Value> = tl
        .ranks
        .iter()
        .map(|rt| {
            let st = &stats.ranks[rt.rank];
            let rank_phases = Value::Object(
                st.per_phase
                    .iter()
                    .map(|(k, &(s, r))| (k.clone(), json!({ "bytes_sent": s, "bytes_recv": r })))
                    .collect::<BTreeMap<_, _>>()
                    .into_iter()
                    .collect(),
            );
            json!({
                "rank": rt.rank as u64,
                "bytes_sent": st.bytes_sent,
                "bytes_recv": st.bytes_recv,
                "msgs_sent": st.msgs_sent,
                "msgs_recv": st.msgs_recv,
                "flops": rt.total_flops(),
                "wait_ns": rt.wait_time(),
                "end_ns": rt.end,
                "per_phase": rank_phases,
            })
        })
        .collect();

    json!({
        "schema": "xtrace-profile-v1",
        "provenance": prov.to_value(),
        "ranks": trace.ranks.len() as u64,
        "events": trace.num_events() as u64,
        "truncated": trace.truncated(),
        "makespan_ns": tl.makespan,
        "total_wait_ns": tl.total_wait(),
        "per_phase": per_phase,
        "per_coll": per_coll,
        "stats": {
            "total_bytes_sent": stats.total_bytes_sent(),
            "total_bytes_recv": stats.total_bytes_recv(),
            "total_msgs": stats.total_msgs(),
            "max_rank_bytes": stats.max_rank_bytes(),
        },
        "per_rank": ranks,
        "critical_path": {
            "length_ns": path_length(&path),
            "segments": path.iter().map(|s| json!({
                "rank": s.rank as u64, "start_ns": s.start, "end_ns": s.end,
            })).collect::<Vec<_>>(),
        },
        "replay": {
            "machine": {
                "alpha_s": machine.alpha, "beta_bytes_per_s": machine.beta,
                "gamma_flops_per_s": machine.gamma, "epsilon": machine.epsilon,
            },
            "makespan_s": rp.makespan,
            "complete": rp.complete,
            "comp_s": rp.comp.clone(),
            "comm_s": rp.comm.clone(),
            "wait_s": rp.wait.clone(),
            "hidden_s": rp.hidden.clone(),
            "phase_overlap": Value::Object(rp.phase_overlap.iter().map(|(label, po)| {
                (label.clone(), json!({ "exposed_s": po.exposed, "hidden_s": po.hidden }))
            }).collect()),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_run() -> (WorldTrace, WorldStats) {
        // A real 2-rank run so trace and stats come from the runtime's two
        // independent accounting paths.
        let (out, mut traces) = xmpi::trace::capture(xmpi::TraceConfig::default(), || {
            xmpi::run(2, |comm| {
                comm.set_phase("swap");
                if comm.world_rank() == 0 {
                    comm.send_f64(1, 4, &[1.0; 32]);
                    let _ = comm.recv_f64(1, 5);
                } else {
                    let _ = comm.recv_f64(0, 4);
                    comm.send_f64(0, 5, &[2.0; 16]);
                }
                comm.barrier();
            })
        });
        (traces.remove(0), out.stats)
    }

    #[test]
    fn trace_tables_match_runtime_stats_exactly() {
        let (trace, stats) = traced_run();

        let phases = phase_bytes_from_trace(&trace);
        let from_stats: BTreeMap<String, (u64, u64)> = stats.phase_totals().into_iter().collect();
        assert_eq!(phases, from_stats);

        let colls = coll_bytes_from_trace(&trace);
        let sent: u64 = colls.values().map(|t| t.0).sum();
        assert_eq!(sent, stats.total_bytes_sent());
        assert_eq!(colls[&CollKind::P2p].0, 32 * 8 + 16 * 8);
    }

    #[test]
    fn report_is_valid_json_with_provenance() {
        let (trace, stats) = traced_run();
        let prov = Provenance {
            commit: "deadbeef".into(),
            params: json!({ "algo": "unit", "n": 0 }),
            seed: Some(42),
        };
        let doc = profile_report(&trace, &stats, &prov);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let back = serde_json::from_str(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back["provenance"]["commit"].as_str(), Some("deadbeef"));
        assert_eq!(back["provenance"]["seed"].as_u64(), Some(42));
        assert_eq!(back["ranks"].as_u64(), Some(2));
        assert_eq!(
            back["per_phase"]["swap"]["bytes_sent"].as_u64(),
            Some(stats.total_bytes_sent()),
        );
    }

    #[test]
    fn provenance_here_finds_a_commit() {
        let p = Provenance::here(json!({}), None);
        assert!(!p.commit.is_empty());
    }
}
