//! Acceptance test: trace a full COnfLUX run (N = 256, P = 8) and verify
//! the profiler's trace-derived tables against the runtime's independent
//! atomic counters, exactly.

use std::collections::BTreeMap;

use factor::{conflux_lu, ConfluxConfig};
use xmpi::trace::{capture, TraceConfig};
use xmpi::{CollKind, Grid3};
use xtrace::profile::{coll_bytes_from_trace, phase_bytes_from_trace};
use xtrace::{chrome_trace, critical_path, profile_report, replay, Machine, Provenance, Timeline};

const N: usize = 256;
const SEED: u64 = 7;

fn traced_conflux() -> (xmpi::WorldTrace, xmpi::WorldStats) {
    let a = dense::gen::random_matrix(N, N, SEED);
    let cfg = ConfluxConfig::new(N, 32, Grid3::new(2, 2, 2)).volume_only();
    assert_eq!(cfg.grid.size(), 8);
    let (out, mut traces) = capture(TraceConfig::default(), || conflux_lu(&cfg, &a).unwrap());
    assert_eq!(traces.len(), 1, "one world run, one trace");
    (traces.pop().unwrap(), out.stats)
}

/// The profile's per-phase byte totals (derived from the trace) must equal
/// the aggregation of `RankStats::per_phase` (derived from the sharded
/// atomic counters) exactly — the two accounting paths are independent.
#[test]
fn per_phase_totals_match_rank_stats_exactly() {
    let (trace, stats) = traced_conflux();
    assert!(!trace.truncated(), "default ring must hold an N=256 run");

    let from_trace = phase_bytes_from_trace(&trace);
    let from_stats: BTreeMap<String, (u64, u64)> = stats.phase_totals().into_iter().collect();
    assert_eq!(from_trace, from_stats);

    // Every communicating phase of the schedule is represented
    // (panel_trsm / update_a11 are compute-only and correctly absent).
    for phase in [
        "reduce_col",
        "pivoting",
        "bcast_a00",
        "reduce_pivots",
        "scatter_panels",
    ] {
        assert!(from_trace.contains_key(phase), "missing phase {phase}");
    }

    // Per-rank cross-check, same two paths at rank granularity.
    for (rank, rt) in trace.ranks.iter().enumerate() {
        let mut sent: BTreeMap<String, u64> = BTreeMap::new();
        let mut cur = String::new();
        for e in &rt.events {
            match *e {
                xmpi::Event::Phase { label, .. } => cur = trace.label(label).to_string(),
                xmpi::Event::Send { bytes, .. } => *sent.entry(cur.clone()).or_default() += bytes,
                _ => {}
            }
        }
        for (phase, &(s, _)) in &stats.ranks[rank].per_phase {
            assert_eq!(
                sent.get(phase).copied().unwrap_or(0),
                s,
                "rank {rank} phase {phase}"
            );
        }
    }
}

/// The per-collective-kind breakdown must partition total traffic: kinds sum
/// to `total_bytes_sent`, and the trace-derived kinds equal the counters'.
#[test]
fn per_coll_breakdown_sums_to_total_bytes_sent() {
    let (trace, stats) = traced_conflux();

    let from_trace = coll_bytes_from_trace(&trace);
    let sent: u64 = from_trace.values().map(|t| t.0).sum();
    let recv: u64 = from_trace.values().map(|t| t.1).sum();
    assert_eq!(sent, stats.total_bytes_sent());
    assert_eq!(recv, stats.total_bytes_recv());

    for (kind, c) in stats.coll_totals() {
        let t = from_trace.get(&kind).copied().unwrap_or_default();
        assert_eq!(
            t,
            (c.bytes_sent, c.bytes_recv, c.msgs_sent, c.msgs_recv),
            "{}",
            kind.name()
        );
    }

    // COnfLUX moves real traffic through p2p, reductions, and broadcasts.
    assert!(from_trace[&CollKind::P2p].0 > 0);
    assert!(from_trace[&CollKind::Reduce].0 > 0);
    assert!(from_trace[&CollKind::Bcast].0 > 0);
}

/// The Chrome-trace export carries a span timeline for every rank.
#[test]
fn chrome_trace_has_all_rank_timelines() {
    let (trace, stats) = traced_conflux();
    let doc = chrome_trace(&trace);

    // Round-trips through text.
    let text = serde_json::to_string(&doc).unwrap();
    assert_eq!(serde_json::from_str(&text).unwrap(), doc);

    let events = doc["traceEvents"].as_array().unwrap();
    for rank in 0..8u64 {
        let spans = events.iter().filter(|e| {
            e["ph"].as_str() == Some("X")
                && e["cat"].as_str() == Some("phase")
                && e["pid"].as_u64() == Some(rank)
        });
        assert!(spans.count() >= 7, "rank {rank} missing phase spans");
    }

    // And the report ties it together with provenance.
    let prov = Provenance::here(
        serde_json::json!({ "algo": "conflux", "n": N, "p": 8 }),
        Some(SEED),
    );
    let report = profile_report(&trace, &stats, &prov);
    assert_eq!(report["ranks"].as_u64(), Some(8));
    assert_eq!(
        report["stats"]["total_bytes_sent"].as_u64(),
        Some(stats.total_bytes_sent())
    );
}

/// Derived analyses are well-formed on a real factorization trace: a
/// non-empty critical path within the makespan and a complete α-β-γ replay.
#[test]
fn analyses_hold_on_a_real_trace() {
    let (trace, _) = traced_conflux();

    let tl = Timeline::build(&trace);
    assert_eq!(tl.ranks.len(), 8);
    assert!(tl.makespan > 0);
    for rt in &tl.ranks {
        assert!(!rt.phases.is_empty());
        assert!(rt.end <= tl.makespan);
        for w in &rt.waits {
            assert!(w.start <= w.end);
        }
    }

    let path = critical_path(&trace);
    assert!(!path.is_empty());
    assert!(xtrace::path_length(&path) <= tl.makespan);
    for pair in path.windows(2) {
        assert!(pair[0].end <= pair[1].start, "segments must be ordered");
    }

    let rp = replay(&trace, &Machine::piz_daint());
    assert!(rp.complete, "untruncated trace must replay to completion");
    assert!(rp.makespan > 0.0);
}
