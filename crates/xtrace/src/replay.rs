//! Simulated-time replay of a trace under the α-β-γ machine model.
//!
//! The simulation's wall-clock times reflect the host machine, not the
//! target; replay re-executes the *event structure* of the trace against the
//! paper's machine model instead: a message of `s` bytes costs
//! `α + s/β` (latency + inverse bandwidth), and `f` flops cost `f/(γ·ε)`
//! (peak rate derated by efficiency). Per-rank clocks advance through each
//! rank's event stream; a receive completes when both the receiver reaches
//! it and the message has arrived, which reproduces the dependency structure
//! (and hence the critical path) on the modelled machine.

//!
//! # Overlap semantics
//!
//! Every point-to-point call in a trace is blocking. A send is buffered, so
//! it charges the sender only the injection overhead α and puts the
//! payload's arrival at `sender_clock + α + s/β`; a receive
//! ([`Event::RecvDone`]) completes at `max(receiver_clock, arrival)`,
//! charging only the *residual* stall rather than the full β term at the
//! call site. A receiver that reaches its receive late — because its own
//! compute ran past the message's arrival — has already advanced its clock,
//! so the transfer time spent under that compute is *hidden*. The replay
//! reports it per phase in [`Replay::phase_overlap`]: for each receive,
//! `exposed` is the stall actually charged and `hidden` is
//! `max(0, (α + s/β) − exposed)` — what a fully-serialized receive would
//! have added but this schedule absorbed.

use std::collections::{BTreeMap, HashMap};
use xmpi::trace::Event;
use xmpi::WorldTrace;

/// α-β-γ machine constants, per rank. The paper measures wall-clock on Piz
/// Daint; a single-machine simulation cannot reproduce interconnect timing,
/// so every modelled time in the workspace — this module's event replay and
/// the experiment harness's closed forms ([`Machine::rank_time`],
/// [`Machine::pct_peak`]) — is *measured* traffic priced by these constants.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    /// Per-message latency, seconds.
    pub alpha: f64,
    /// Bandwidth, bytes/second.
    pub beta: f64,
    /// Peak compute rate, flops/second.
    pub gamma: f64,
    /// Sustained fraction of peak (ε in the paper's model).
    pub epsilon: f64,
}

impl Machine {
    /// The paper's evaluation machine (Piz Daint XC50 node):
    /// P100 peak 0.605 Tflop/s·ε0.7, 5 GB/s injection, 1.5 µs latency.
    pub fn piz_daint() -> Machine {
        Machine {
            alpha: 1.5e-6,
            beta: 5.0e9,
            gamma: 0.605e12,
            epsilon: 0.7,
        }
    }

    /// Time for `f` flops, seconds.
    fn flop_time(&self, f: u64) -> f64 {
        f as f64 / (self.gamma * self.epsilon)
    }

    /// End-to-end time for one `bytes`-sized message, seconds.
    fn xfer_time(&self, bytes: u64) -> f64 {
        self.alpha + bytes as f64 / self.beta
    }

    /// Closed-form time of one rank's whole workload with no overlap,
    /// `flops/(γ·ε) + bytes/β + msgs·α`; the maximum over ranks is the
    /// modelled time-to-solution. `ε` is the local-BLAS efficiency (the
    /// paper's best runs reach ≈55% of peak), so rankings between schedules
    /// are driven by the measured traffic.
    pub fn rank_time(&self, flops: f64, bytes: f64, msgs: f64) -> f64 {
        flops / (self.gamma * self.epsilon) + bytes / self.beta + msgs * self.alpha
    }

    /// Percent of machine peak achieved: `flops_total/(P·γ·T)·100`.
    pub fn pct_peak(&self, flops_total: f64, p: usize, t: f64) -> f64 {
        100.0 * flops_total / (p as f64 * self.gamma * t)
    }
}

/// Exposed vs hidden receive time attributed to one phase label.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseOverlap {
    /// Modelled receive time ranks actually stalled for, seconds.
    pub exposed: f64,
    /// Modelled transfer time hidden behind rank-local progress, seconds.
    pub hidden: f64,
}

/// Result of a replay.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Modelled completion time of each rank, seconds.
    pub rank_finish: Vec<f64>,
    /// Modelled makespan (max finish), seconds.
    pub makespan: f64,
    /// Per-rank modelled compute time, seconds.
    pub comp: Vec<f64>,
    /// Per-rank modelled send-overhead time, seconds.
    pub comm: Vec<f64>,
    /// Per-rank modelled blocked-receive time, seconds.
    pub wait: Vec<f64>,
    /// Per-rank modelled transfer time hidden behind compute (the β·s terms
    /// the schedule absorbed instead of stalling for), seconds.
    pub hidden: Vec<f64>,
    /// World-aggregate exposed/hidden receive time per phase label
    /// (receives before the first phase marker land under `""`).
    pub phase_overlap: BTreeMap<String, PhaseOverlap>,
    /// False if the replay stalled (possible only on truncated traces).
    pub complete: bool,
}

/// Replay `trace` on machine `m`.
pub fn replay(trace: &WorldTrace, m: &Machine) -> Replay {
    let p = trace.ranks.len();
    let mut clock = vec![0.0f64; p];
    let mut comp = vec![0.0f64; p];
    let mut comm = vec![0.0f64; p];
    let mut wait = vec![0.0f64; p];
    let mut hidden = vec![0.0f64; p];
    let mut cursor = vec![0usize; p];
    let mut prev_cum = vec![0u64; p];
    // Phase label each rank is currently in (u32::MAX before the first
    // marker), for attributing exposed/hidden receive time.
    let mut cur_label = vec![u32::MAX; p];
    let mut overlap: HashMap<u32, PhaseOverlap> = HashMap::new();
    // Modelled arrival times per channel, FIFO.
    let mut channel: HashMap<(usize, usize, u64, u64), Vec<f64>> = HashMap::new();

    let complete = loop {
        let mut progressed = false;
        for r in 0..p {
            let events = &trace.ranks[r].events;
            while cursor[r] < events.len() {
                match events[cursor[r]] {
                    Event::Phase {
                        label, cum_flops, ..
                    } => {
                        let dt = m.flop_time(cum_flops.saturating_sub(prev_cum[r]));
                        clock[r] += dt;
                        comp[r] += dt;
                        prev_cum[r] = cum_flops;
                        cur_label[r] = label;
                    }
                    // Sends are buffered, so the sender pays only the
                    // injection overhead and the payload arrives α + s/β
                    // later.
                    Event::Send {
                        peer,
                        ctx,
                        tag,
                        bytes,
                        ..
                    } => {
                        let arrival = clock[r] + m.xfer_time(bytes);
                        channel
                            .entry((r, peer, ctx, tag))
                            .or_default()
                            .push(arrival);
                        clock[r] += m.alpha;
                        comm[r] += m.alpha;
                    }
                    Event::RecvPost { .. } => {}
                    // A receive finishes at max(receiver progress, arrival);
                    // whatever part of the transfer the receiver's own
                    // progress already covered is hidden, the rest is an
                    // exposed stall.
                    Event::RecvDone {
                        peer,
                        ctx,
                        tag,
                        bytes,
                        ..
                    } => {
                        let q = channel.entry((peer, r, ctx, tag)).or_default();
                        if q.is_empty() {
                            // Sender hasn't reached its send yet in modelled
                            // time — blocked; revisit on the next sweep.
                            break;
                        }
                        let arrival = q.remove(0);
                        let exposed = (arrival - clock[r]).max(0.0);
                        if exposed > 0.0 {
                            wait[r] += exposed;
                            clock[r] = arrival;
                        }
                        let hid = (m.xfer_time(bytes) - exposed).max(0.0);
                        hidden[r] += hid;
                        let e = overlap.entry(cur_label[r]).or_default();
                        e.exposed += exposed;
                        e.hidden += hid;
                    }
                    Event::CollEnter { .. } | Event::CollExit { .. } => {}
                    // Fault markers carry no modelled cost: a crash ends the
                    // rank's event stream, and recovery traffic already
                    // appears as ordinary sends/receives between the
                    // markers.
                    Event::RankCrash { .. }
                    | Event::RecoveryBegin { .. }
                    | Event::RecoveryEnd { .. } => {}
                }
                cursor[r] += 1;
                progressed = true;
            }
        }
        if cursor
            .iter()
            .enumerate()
            .all(|(r, &c)| c == trace.ranks[r].events.len())
        {
            break true;
        }
        if !progressed {
            // Stalled: a receive whose send was evicted from a full ring.
            break false;
        }
    };
    let makespan = clock.iter().cloned().fold(0.0, f64::max);
    let phase_overlap = overlap
        .into_iter()
        .map(|(lbl, po)| {
            let name = if lbl == u32::MAX {
                String::new()
            } else {
                trace.label(lbl).to_string()
            };
            (name, po)
        })
        .collect();
    Replay {
        rank_finish: clock,
        makespan,
        comp,
        comm,
        wait,
        hidden,
        phase_overlap,
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmpi::{CollKind, RankTrace};

    #[test]
    fn machine_costs_are_the_model() {
        let m = Machine::piz_daint();
        assert!((m.xfer_time(5_000_000_000) - (1.5e-6 + 1.0)).abs() < 1e-9);
        let one_second_of_flops = (0.605e12 * 0.7) as u64;
        assert!((m.flop_time(one_second_of_flops) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_time_sums_terms() {
        let m = Machine {
            gamma: 1e9,
            epsilon: 0.5,
            beta: 1e9,
            alpha: 1e-6,
        };
        let t = m.rank_time(5e8, 1e9, 1000.0);
        assert!((t - (1.0 + 1.0 + 1e-3)).abs() < 1e-9);
    }

    #[test]
    fn pct_peak_is_100_at_perfect_execution() {
        let m = Machine {
            gamma: 1e9,
            epsilon: 1.0,
            beta: f64::INFINITY,
            alpha: 0.0,
        };
        let t = m.rank_time(1e9, 0.0, 0.0);
        assert!((m.pct_peak(4e9, 4, t) - 100.0).abs() < 1e-9);
    }

    /// Two ranks: rank 0 computes f flops then sends s bytes; rank 1 only
    /// receives. Modelled makespan must be exactly
    /// `f/(γε) + α + s/β` (receiver idle until the message lands).
    #[test]
    fn pipeline_makespan_is_exact() {
        let k = CollKind::P2p;
        let f = 1_000_000u64;
        let s = 80_000u64;
        let tr = WorldTrace {
            labels: vec!["w".into()],
            ranks: vec![
                RankTrace {
                    events: vec![
                        Event::Phase {
                            t: 5,
                            label: 0,
                            cum_flops: f,
                        },
                        Event::Send {
                            t: 6,
                            peer: 1,
                            ctx: 0,
                            tag: 1,
                            bytes: s,
                            kind: k,
                        },
                    ],
                    dropped: 0,
                },
                RankTrace {
                    events: vec![
                        Event::RecvPost {
                            t: 0,
                            peer: 0,
                            ctx: 0,
                            tag: 1,
                        },
                        Event::RecvDone {
                            t: 9,
                            peer: 0,
                            ctx: 0,
                            tag: 1,
                            bytes: s,
                            kind: k,
                        },
                    ],
                    dropped: 0,
                },
            ],
        };
        let m = Machine::piz_daint();
        let out = replay(&tr, &m);
        assert!(out.complete);
        let expect = m.flop_time(f) + m.xfer_time(s);
        assert!((out.rank_finish[1] - expect).abs() < 1e-12);
        assert!((out.makespan - expect).abs() < 1e-12);
        assert!((out.wait[1] - expect).abs() < 1e-12);
        assert_eq!(out.wait[0], 0.0);
    }

    /// A head-on exchange (both send, then both receive) must not stall.
    #[test]
    fn symmetric_exchange_replays() {
        let k = CollKind::Allreduce;
        let mk = |me: usize, peer: usize| RankTrace {
            events: vec![
                Event::Send {
                    t: 1,
                    peer,
                    ctx: 0,
                    tag: 9,
                    bytes: 400,
                    kind: k,
                },
                Event::RecvPost {
                    t: 2,
                    peer,
                    ctx: 0,
                    tag: 9,
                },
                Event::RecvDone {
                    t: 3,
                    peer,
                    ctx: 0,
                    tag: 9,
                    bytes: 400,
                    kind: k,
                },
                Event::Phase {
                    t: 4,
                    label: 0,
                    cum_flops: (me as u64 + 1) * 100,
                },
            ],
            dropped: 0,
        };
        let tr = WorldTrace {
            labels: vec!["p".into()],
            ranks: vec![mk(0, 1), mk(1, 0)],
        };
        let out = replay(&tr, &Machine::piz_daint());
        assert!(out.complete);
        assert!(out.makespan > 0.0);
    }

    /// A blocking receive reached only after enough local compute — the
    /// receiver's flops run past the message's arrival — charges no stall:
    /// the transfer is fully hidden, and the modelled makespan beats the
    /// receive-first order of the same events.
    #[test]
    fn overlapped_wait_hides_transfer_time() {
        let k = CollKind::P2p;
        let s = 50_000u64;
        let m = Machine::piz_daint();
        // Enough flops to outlast the transfer.
        let g = (m.xfer_time(s) * m.gamma * m.epsilon * 2.0) as u64;
        let sender = RankTrace {
            events: vec![Event::Send {
                t: 0,
                peer: 1,
                ctx: 0,
                tag: 4,
                bytes: s,
                kind: k,
            }],
            dropped: 0,
        };
        let compute = Event::Phase {
            t: 1,
            label: 0,
            cum_flops: g,
        };
        let post = Event::RecvPost {
            t: 2,
            peer: 0,
            ctx: 0,
            tag: 4,
        };
        let done = Event::RecvDone {
            t: 3,
            peer: 0,
            ctx: 0,
            tag: 4,
            bytes: s,
            kind: k,
        };
        let world = |receiver: Vec<Event>| WorldTrace {
            labels: vec!["update".into()],
            ranks: vec![
                sender.clone(),
                RankTrace {
                    events: receiver,
                    dropped: 0,
                },
            ],
        };
        let ov = replay(&world(vec![compute, post, done]), &m);
        let bl = replay(&world(vec![post, done, compute]), &m);
        assert!(ov.complete && bl.complete);
        // Compute first: zero stall, full transfer hidden, attributed to the
        // phase the rank was in when the receive completed.
        assert_eq!(ov.wait[1], 0.0);
        assert!((ov.hidden[1] - m.xfer_time(s)).abs() < 1e-12);
        let po = ov.phase_overlap["update"];
        assert_eq!(po.exposed, 0.0);
        assert!((po.hidden - m.xfer_time(s)).abs() < 1e-12);
        // Receive first: the full transfer is an exposed stall, and the
        // makespan is longer by exactly that stall.
        assert!((bl.wait[1] - m.xfer_time(s)).abs() < 1e-12);
        assert!((bl.makespan - ov.makespan - m.xfer_time(s)).abs() < 1e-12);
    }

    #[test]
    fn truncated_trace_reports_incomplete() {
        // A receive with no recorded send stalls and is reported as such.
        let tr = WorldTrace {
            labels: vec![],
            ranks: vec![RankTrace {
                events: vec![Event::RecvDone {
                    t: 1,
                    peer: 0,
                    ctx: 0,
                    tag: 0,
                    bytes: 8,
                    kind: CollKind::P2p,
                }],
                dropped: 1,
            }],
        };
        assert!(!replay(&tr, &Machine::piz_daint()).complete);
    }
}
