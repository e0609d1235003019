//! Transport microbenchmark: wall-clock cost of the `xmpi` hot path.
//!
//! The paper's schedules are communication-optimal in *volume*; this report
//! pins what the runtime makes of that in *time*. Three measurements:
//!
//! * **p2p** — ping-pong latency (1 element) and throughput (1 MiB) between
//!   two ranks, the α and 1/β of the transport itself;
//! * **bcast** — wall-clock per broadcast of a 512×64 panel ([`ELEMS`]
//!   f64s) at [`P`] = 16, comparing the zero-copy binomial tree
//!   ([`xmpi::Comm::bcast_buf_f64`]) against a *seed-style linear fan-out*
//!   reference in which the root deep-copies the payload once per
//!   destination, serialized — the schedule the transport shipped with.
//!   Their ratio is held to [`BCAST_SPEEDUP`]; CI's `comm-perf` job runs
//!   `floors comm`;
//! * **per-phase wall-clock** — the same cell traced with `xtrace`, linear
//!   and tree broadcast as separate phases, so the speedup is also visible
//!   as makespan attribution rather than a bare stopwatch ratio.
//!
//! Both schedules move identical bytes (`(P−1)·B` per broadcast — the
//! `linear_and_tree_bcast_volumes_match` test pins it), so the speedup is
//! pure schedule + copy discipline, not traffic reduction. The tree time
//! and the p2p numbers are reported, not gated.

use crate::experiments::Report;
use crate::floor::{Bound, Floor};
use crate::provenance::Stamp;
use crate::table::render;
use serde_json::json;
use std::time::Instant;
use xmpi::{Buf, Comm, TraceConfig};

/// Broadcast message size in f64 elements: a 512×64 panel.
pub const ELEMS: usize = 32_768;
/// Broadcast world size.
pub const P: usize = 16;
/// Timed blocks per measurement.
pub const REPS: usize = 5;

/// The tree over the linear fan-out, wall-clock: the acceptance floor of
/// the zero-copy tree collectives.
pub const BCAST_SPEEDUP: Floor = Floor {
    name: "bcast_speedup",
    bound: Bound::Min(5.0),
};

/// Tag namespace for the benchmark's hand-rolled exchanges, clear of the
/// collective tags.
const TAG_BENCH: u64 = 9_000_000;

/// Seed-style linear broadcast: the root sends the full buffer to every
/// other rank in turn — each send deep-copies the payload (slice-based
/// sends copy at the transport boundary), and the fan-out is serialized on
/// the root. This is the reference schedule the tree collective replaced.
pub(crate) fn linear_bcast_f64(comm: &Comm, root: usize, buf: &mut Vec<f64>) {
    if comm.rank() == root {
        for dst in 0..comm.size() {
            if dst != root {
                comm.send_f64(dst, TAG_BENCH, buf);
            }
        }
    } else {
        *buf = comm.recv_f64(root, TAG_BENCH);
    }
}

/// Back-to-back operations per timed block — amortizes the block's
/// `Instant` reads and the barrier-exit wakeup skew over a few ops.
const OPS_PER_BLOCK: usize = 4;

/// Wall-clock seconds per operation. Every rank builds its source buffer
/// *before* the timed region (constructing the payload is the caller's
/// cost, not the transport's), runs one untimed warmup, then `reps`
/// barrier-fenced blocks of [`OPS_PER_BLOCK`] calls each. Every rank keeps
/// its *best* block (scheduler preemptions only ever add time, so the
/// minimum is the cleanest estimate on a shared host), and the slowest
/// rank's best is the cost — the collective is not over until its last
/// rank is.
fn time_op<F>(p: usize, elems: usize, reps: usize, op: F) -> f64
where
    F: Fn(&Comm, &Buf<f64>) + Sync,
{
    let out = xmpi::run(p, |c| {
        let src = Buf::from(vec![1.0; elems]);
        op(c, &src); // warmup, excluded from timing
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            c.barrier();
            let t = Instant::now();
            for _ in 0..OPS_PER_BLOCK {
                op(c, &src);
            }
            best = best.min(t.elapsed().as_secs_f64() / OPS_PER_BLOCK as f64);
        }
        c.barrier();
        best
    });
    out.results.into_iter().fold(0.0, f64::max)
}

/// `(linear, tree)` µs per broadcast of `elems` f64s at `p`.
fn measure_bcast(p: usize, elems: usize, reps: usize) -> (f64, f64) {
    let linear = time_op(p, elems, reps, |c, src| {
        if c.rank() == 0 {
            for dst in 1..c.size() {
                c.send_f64(dst, TAG_BENCH, src);
            }
        } else {
            std::hint::black_box(c.recv_f64(0, TAG_BENCH).len());
        }
    });
    let tree = time_op(p, elems, reps, |c, src| {
        let mine = (c.rank() == 0).then_some(src);
        std::hint::black_box(c.bcast_shared_f64(0, mine).len());
    });
    (linear * 1e6, tree * 1e6)
}

/// Ping-pong between ranks 0 and 1: seconds per one-way message. The echo
/// sends the received buffer back, so both directions carry a real
/// transport-boundary copy.
fn pingpong_secs(elems: usize, reps: usize) -> f64 {
    let per_roundtrip = time_op(2, elems, reps, |c, src| {
        if c.rank() == 0 {
            c.send_f64(1, TAG_BENCH, src);
            std::hint::black_box(c.recv_f64(1, TAG_BENCH).len());
        } else {
            let got = c.recv_f64(0, TAG_BENCH);
            c.send_f64(0, TAG_BENCH, &got);
        }
    });
    per_roundtrip / 2.0
}

/// Traced run of the headline cell: linear and tree broadcast as separate
/// phases on the same world, so per-phase bytes (identical) and the xtrace
/// makespan/idle attribution land in one artifact.
fn traced_phases(p: usize, elems: usize) -> (f64, f64, u64, u64) {
    let (out, traces) = xmpi::trace::capture(TraceConfig::default(), || {
        xmpi::run(p, |c| {
            c.set_phase_with_flops("linear_bcast", 0);
            let mut buf = if c.rank() == 0 {
                vec![1.0; elems]
            } else {
                Vec::new()
            };
            linear_bcast_f64(c, 0, &mut buf);
            c.set_phase_with_flops("tree_bcast", 0);
            let data = if c.rank() == 0 { buf } else { Vec::new() };
            let b = c.bcast_buf_f64(0, data);
            c.set_phase_with_flops("_end", 0);
            std::hint::black_box(b.len());
        })
    });
    let tk = xtrace::trace_kpis(&traces[0]);
    let phases = out.stats.phase_totals();
    let linear_bytes = phases.get("linear_bcast").map_or(0, |&(s, _)| s);
    let tree_bytes = phases.get("tree_bcast").map_or(0, |&(s, _)| s);
    (
        tk.makespan_ns as f64 / 1e6,
        tk.idle_frac,
        linear_bytes,
        tree_bytes,
    )
}

/// The measured transport and the gated broadcast speedup.
pub struct CommRun {
    /// p2p, broadcast and traced numbers, written to
    /// `results/BENCH_comm.json`.
    pub report: Report,
    /// Linear over tree broadcast wall-clock.
    pub bcast_speedup: f64,
}

impl CommRun {
    /// The gated number with its floor.
    pub fn gated(&self) -> Vec<(Floor, f64)> {
        vec![(BCAST_SPEEDUP, self.bcast_speedup)]
    }
}

/// Measure the gated shape.
pub fn run() -> CommRun {
    measure(P, ELEMS, REPS)
}

/// p2p at `p = 2`, then the broadcast of `elems` f64s at `p`, best of
/// `reps` per measurement.
fn measure(p: usize, elems: usize, reps: usize) -> CommRun {
    // --- p2p --------------------------------------------------------------
    let lat_s = pingpong_secs(1, (reps * 40).max(100));
    let big_elems = 1 << 17; // 1 MiB of f64
    let thr_s = pingpong_secs(big_elems, reps.max(5));
    let p2p_latency_us = lat_s * 1e6;
    let p2p_gbps = (big_elems * 8) as f64 / thr_s / 1e9;

    // --- bcast, then traced -----------------------------------------------
    let (linear_us, tree_us) = measure_bcast(p, elems, reps);
    let speedup = linear_us / tree_us;
    let (makespan_ms, idle_frac, linear_bytes, tree_bytes) = traced_phases(p, elems);

    // --- render -----------------------------------------------------------
    let headers = vec!["P", "elems", "KiB", "linear µs", "tree µs", "speedup"];
    let row = vec![
        p.to_string(),
        elems.to_string(),
        format!("{:.0}", elems as f64 * 8.0 / 1024.0),
        format!("{linear_us:.1}"),
        format!("{tree_us:.1}"),
        format!("{speedup:.2}x"),
    ];
    let mut text = format!(
        "p2p ping-pong: latency {p2p_latency_us:.2} µs/msg, throughput {p2p_gbps:.2} GB/s \
         (1 MiB msgs)\n\nbroadcast wall-clock, slowest rank, best of {reps} reps:\n{}",
        render(&headers, &[row])
    );
    text.push_str(&format!(
        "\ntraced (P={p}, {elems} elems): makespan {makespan_ms:.2} ms, \
         idle {:.0}%, per-phase bytes linear={linear_bytes} tree={tree_bytes}\n",
        idle_frac * 100.0
    ));

    let report = Report {
        id: "BENCH_comm".into(),
        title: "transport microbenchmark: zero-copy tree vs seed linear fan-out".into(),
        json: json!({
            "provenance": Stamp::here().to_json(),
            "reps": reps,
            "p2p": { "latency_us": p2p_latency_us, "gbps": p2p_gbps },
            "bcast": [{
                "p": p, "elems": elems,
                "linear_us": linear_us, "tree_us": tree_us,
                "speedup": speedup,
            }],
            "traced": {
                "p": p, "elems": elems,
                "makespan_ms": makespan_ms, "idle_frac": idle_frac,
                "linear_bytes": linear_bytes, "tree_bytes": tree_bytes,
            },
        }),
        text,
    };
    CommRun {
        report,
        bcast_speedup: speedup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_reference_broadcasts_correctly() {
        let out = xmpi::run(5, |c| {
            let mut buf = if c.rank() == 2 {
                vec![3.0, 4.0]
            } else {
                vec![]
            };
            linear_bcast_f64(c, 2, &mut buf);
            buf
        });
        for r in out.results {
            assert_eq!(r, vec![3.0, 4.0]);
        }
    }

    /// The tree schedule must not change traffic: both broadcasts move
    /// exactly (P−1)·B bytes in total — the cross-run stats-equality
    /// guarantee the golden volumes rely on.
    #[test]
    fn linear_and_tree_bcast_volumes_match() {
        let elems = 256;
        let p = 8;
        let linear = xmpi::run(p, |c| {
            let mut buf = if c.rank() == 0 {
                vec![1.0; elems]
            } else {
                vec![]
            };
            linear_bcast_f64(c, 0, &mut buf);
        });
        let tree = xmpi::run(p, |c| {
            let data = if c.rank() == 0 {
                vec![1.0; elems]
            } else {
                vec![]
            };
            c.bcast_buf_f64(0, data);
        });
        let expect = ((p - 1) * elems * 8) as u64;
        assert_eq!(linear.stats.total_bytes_sent(), expect);
        assert_eq!(tree.stats.total_bytes_sent(), expect);
    }

    /// One small measurement (`p = 4`, 1024 elements, one rep) shared by the
    /// report tests.
    fn small_run() -> &'static CommRun {
        static RUN: std::sync::OnceLock<CommRun> = std::sync::OnceLock::new();
        RUN.get_or_init(|| measure(4, 1024, 1))
    }

    #[test]
    fn report_covers_the_grid_and_headline_kpis() {
        let r = &small_run().report;
        assert_eq!(r.id, "BENCH_comm");
        assert!(r.json["provenance"]["commit"].as_str().is_some());
        assert!(r.json["p2p"]["latency_us"].as_f64().unwrap() > 0.0);
        assert!(r.json["p2p"]["gbps"].as_f64().unwrap() > 0.0);
        let cells = r.json["bcast"].as_array().unwrap();
        assert_eq!(cells.len(), 1);
        assert!(
            cells[0]["tree_us"].as_f64().unwrap() > 0.0
                && cells[0]["linear_us"].as_f64().unwrap() > 0.0
        );
        // Identical per-phase volume in the traced cell.
        assert_eq!(
            r.json["traced"]["linear_bytes"].as_u64(),
            r.json["traced"]["tree_bytes"].as_u64()
        );
    }

    /// The gated speedup is the measured cell's linear over tree time, the
    /// number its report row carries.
    #[test]
    fn the_gated_speedup_is_linear_over_tree_at_the_measured_cell() {
        let run = small_run();
        let cell = &run.report.json["bcast"][0];
        assert_eq!(
            (cell["p"].as_u64(), cell["elems"].as_u64()),
            (Some(4), Some(1024))
        );
        let (linear, tree) = (cell["linear_us"].as_f64(), cell["tree_us"].as_f64());
        assert_eq!(
            Some(run.bcast_speedup),
            linear.zip(tree).map(|(l, t)| l / t)
        );
        assert_eq!(cell["speedup"].as_f64(), Some(run.bcast_speedup));
    }

    #[test]
    fn a_run_records_the_speedup_under_its_floor() {
        let run = small_run();
        assert!(run.bcast_speedup.is_finite() && run.bcast_speedup > 0.0);
        assert_eq!(run.gated(), [(BCAST_SPEEDUP, run.bcast_speedup)]);
        assert!(run.report.text.contains("speedup"), "{}", run.report.text);
    }
}
