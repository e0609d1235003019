//! Measured transport α-β: the first *real* wall-clock calibration of the
//! machine model's communication constants.
//!
//! Every performance figure in this repo converts measured traffic to time
//! through the analytic α-β-γ model ([`xtrace::Machine`]) — until
//! now the α and β in that model were literature constants, never numbers
//! this runtime produced. This experiment measures them, twice:
//!
//! * **local backend** — ranks are threads, delivery is an `Arc` move
//!   through a sharded mailbox. The measured α is the mailbox + wakeup
//!   cost; β is effectively memcpy bandwidth (the transport boundary copy).
//! * **socket backend** — ranks are child processes on a UNIX-domain
//!   socket mesh, every payload framed through the wire codec. The
//!   measured α adds two syscalls and a scheduler hop; β adds
//!   serialize + kernel copy + deserialize.
//!
//! Both backends run the *same* closures through [`xmpi::run`] —
//! the socket measurements are what the conformance suite's bitwise
//! equality makes meaningful (same bytes, same schedule, different clock).
//! The fit is the classic two-point postal model: α from a 1-element
//! ping-pong, β from a large-message ping-pong with the α share removed.
//!
//! The report records the model constants next to the measured ones, so
//! the registry tracks the measured-vs-simulated calibration gap as an
//! ordinary KPI trend (`plans/transport.toml` gates only sanity floors —
//! host-clock numbers on shared CI hardware must not carry tight bounds).

use crate::experiments::Report;
use crate::provenance::Stamp;
use crate::table::{ratio, render};
use serde_json::json;
use std::time::Instant;
use xmpi::{Buf, Comm};
use xtrace::Machine;

/// Tag namespace for the benchmark's exchanges, clear of collective tags
/// and of `experiments::comm`'s range.
const TAG_XPORT: u64 = 9_100_000;

/// Back-to-back operations per timed block (amortizes `Instant` reads and
/// barrier-exit wakeup skew).
const OPS_PER_BLOCK: usize = 4;

/// Wall-clock seconds per operation on the *ambient* backend: this is
/// [`crate::experiments::comm::comm`]'s protocol (best barrier-fenced
/// block per rank, slowest rank wins), so an armed
/// [`xmpi::Backend::Socket`] runs the same closure across child processes.
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

/// One-way seconds per message of `elems` f64s (half a ping-pong round
/// trip; the echo carries a real transport-boundary copy in each
/// direction).
fn pingpong_secs(elems: usize, reps: usize) -> f64 {
    let per_roundtrip = time_op(2, elems, reps, |c, src| {
        if c.rank() == 0 {
            c.send_f64(1, TAG_XPORT, src);
            std::hint::black_box(c.recv_f64(1, TAG_XPORT).len());
        } else {
            let got = c.recv_f64(0, TAG_XPORT);
            c.send_f64(0, TAG_XPORT, &got);
        }
    });
    per_roundtrip / 2.0
}

/// Tree-broadcast seconds at `(p, elems)`.
fn bcast_secs(p: usize, elems: usize, reps: usize) -> f64 {
    time_op(p, elems, reps, |c, src| {
        let mine = (c.rank() == 0).then_some(src);
        std::hint::black_box(c.bcast_shared_f64(0, mine).len());
    })
}

/// Measured postal-model constants for one backend.
struct BackendFit {
    label: &'static str,
    /// Per-message latency (µs): the 1-element one-way time.
    alpha_us: f64,
    /// Large-message bandwidth (GB/s) after removing the α share.
    gbps: f64,
    /// One-way µs per probed message size.
    oneway_us: Vec<(usize, f64)>,
    /// Tree-broadcast µs per `(p, elems)` cell.
    bcast_us: Vec<(usize, usize, f64)>,
}

/// Run the full measurement set on whatever backend is ambient when
/// `measure` is called.
fn measure(label: &'static str, ps: &[usize], sizes: &[usize], reps: usize) -> BackendFit {
    let alpha_s = pingpong_secs(1, (reps * 40).max(100));
    let big_elems = (1usize << 17).max(sizes.iter().copied().max().unwrap_or(0));
    let big_s = pingpong_secs(big_elems, reps.max(3));
    let beta_s_per_byte = (big_s - alpha_s).max(f64::EPSILON) / (big_elems * 8) as f64;

    let oneway_us = sizes
        .iter()
        .map(|&elems| (elems, pingpong_secs(elems, reps) * 1e6))
        .collect();
    let mut bcast_us = Vec::new();
    for &p in ps {
        for &elems in sizes {
            bcast_us.push((p, elems, bcast_secs(p, elems, reps) * 1e6));
        }
    }
    BackendFit {
        label,
        alpha_us: alpha_s * 1e6,
        gbps: 1.0 / beta_s_per_byte / 1e9,
        oneway_us,
        bcast_us,
    }
}

/// Run the transport α-β calibration: every measurement on the in-process
/// backend, then the identical sequence on the socket backend (rank
/// processes forked per world). `sizes` are message lengths in f64
/// elements; `ps` are broadcast world sizes.
pub(crate) fn transport(ps: &[usize], sizes: &[usize], reps: usize) -> Report {
    let reps = reps.max(1);
    let local = measure("local", ps, sizes, reps);
    let socket = xmpi::with_backend(xmpi::Backend::Socket, || measure("socket", ps, sizes, reps));
    let model = Machine::piz_daint();
    let model_alpha_us = model.alpha * 1e6;
    let model_gbps = model.beta / 1e9;

    let headers = vec!["backend", "α µs", "GB/s", "α/model", "GB/s / model"];
    let rows: Vec<Vec<String>> = [&local, &socket]
        .iter()
        .map(|b| {
            vec![
                b.label.to_string(),
                format!("{:.2}", b.alpha_us),
                format!("{:.2}", b.gbps),
                ratio(b.alpha_us, model_alpha_us),
                ratio(b.gbps, model_gbps),
            ]
        })
        .collect();
    let mut text = format!(
        "measured postal model vs the simulated machine (α {model_alpha_us:.1} µs, \
         β {model_gbps:.1} GB/s):\n{}",
        render(&headers, &rows)
    );
    text.push_str("\none-way µs per message size:\n");
    let headers = vec!["elems", "KiB", "local µs", "socket µs", "socket/local"];
    let rows: Vec<Vec<String>> = local
        .oneway_us
        .iter()
        .zip(&socket.oneway_us)
        .map(|(&(elems, l_us), &(_, s_us))| {
            vec![
                elems.to_string(),
                format!("{:.0}", elems as f64 * 8.0 / 1024.0),
                format!("{l_us:.1}"),
                format!("{s_us:.1}"),
                ratio(s_us, l_us),
            ]
        })
        .collect();
    text.push_str(&render(&headers, &rows));

    let backend_json = |b: &BackendFit| {
        json!({
            "backend": b.label,
            "alpha_us": b.alpha_us,
            "gbps": b.gbps,
            "oneway": b.oneway_us.iter().map(|&(elems, us)| json!({
                "elems": elems, "us": us,
            })).collect::<Vec<_>>(),
            "bcast": b.bcast_us.iter().map(|&(p, elems, us)| json!({
                "p": p, "elems": elems, "us": us,
            })).collect::<Vec<_>>(),
        })
    };
    Report {
        id: "BENCH_transport".into(),
        title: "measured transport α-β: in-process vs socket backend, vs the simulated model"
            .into(),
        json: json!({
            "provenance": Stamp::here(None).to_json(),
            "reps": reps,
            "model": { "alpha_us": model_alpha_us, "gbps": model_gbps },
            "backends": [backend_json(&local), backend_json(&socket)],
        }),
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-process half of the report (the socket path is covered by
    /// `tests/transport_plan.rs` driving the real `ablations` binary).
    #[test]
    fn local_measurement_produces_a_sane_fit() {
        let fit = measure("local", &[2], &[64], 1);
        assert!(fit.alpha_us > 0.0);
        assert!(fit.gbps > 0.0);
        assert_eq!(fit.oneway_us.len(), 1);
        assert_eq!(fit.bcast_us.len(), 1);
        assert!(fit.bcast_us[0].2 > 0.0);
    }
}
