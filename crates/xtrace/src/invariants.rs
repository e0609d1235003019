//! Trace-based invariant checkers for the simulated runtime.
//!
//! The schedule-perturbation harness (`xharness`) reruns a factorization
//! under adversarial message timings and then asks: did the *runtime-level*
//! contract survive? This module answers from the recorded
//! [`WorldTrace`] and [`WorldStats`] alone, so any driver that can be traced
//! can be checked without modification:
//!
//! * **Byte conservation** ([`check_trace`]): for every channel
//!   `(src, dst, ctx, tag)`, the bytes recorded leaving the source
//!   ([`Event::Send`]) equal the bytes recorded arriving at the destination
//!   ([`Event::RecvDone`]). A perturbed schedule may reorder completions
//!   arbitrarily, but it must never create or lose a byte.
//! * **No lost requests** ([`check_trace`]): every posted receive
//!   ([`Event::RecvPost`]) is eventually completed on its channel. A
//!   receive that gave up — a `try_recv_*` that returned
//!   [`xmpi::XmpiError::Timeout`] in a world where no rank crashed — shows
//!   up as more posts than completions.
//! * **Collective bracketing** ([`check_trace`]): every
//!   [`Event::CollEnter`] has a matching [`Event::CollExit`] per rank and
//!   kind (a rank that panicked or stalled out of a collective leaves an
//!   unbalanced bracket).
//! * **Cross-seed equality** ([`check_stats_equal`]): two runs of the same
//!   deterministic schedule — e.g. the same `(N, P, M)` factorization under
//!   two perturbation seeds — must move *identical* per-rank and per-phase
//!   byte counts. The paper's volume claims are exact counts, not
//!   distributions; any drift across seeds means the schedule's
//!   communication depends on timing, which would invalidate the
//!   measurement methodology.
//!
//! Checks are sound only on complete traces: if any rank's ring buffer
//! evicted events ([`WorldTrace::truncated`]), send/receive pairs may be
//! missing one side, so [`check_trace`] reports `truncated = true` and
//! abstains from flagging violations rather than raising false alarms.

use std::collections::HashMap;
use std::fmt;
use xmpi::trace::Event;
use xmpi::{WorldStats, WorldTrace};

/// One invariant violation found by [`check_trace`] or
/// [`check_stats_equal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Bytes recorded sent on a channel differ from bytes recorded
    /// received: the transport (or the trace) created or lost data.
    ByteLeak {
        /// Sending world rank.
        src: usize,
        /// Receiving world rank.
        dst: usize,
        /// Communicator context id.
        ctx: u64,
        /// Message tag.
        tag: u64,
        /// Bytes recorded leaving `src` on this channel.
        sent: u64,
        /// Bytes recorded arriving at `dst` on this channel.
        received: u64,
    },
    /// A rank posted more receives on a channel than it completed — a
    /// receive that gave up before its message arrived.
    LostRequest {
        /// The rank that posted the receive.
        rank: usize,
        /// Source world rank the receive was posted on.
        peer: usize,
        /// Communicator context id.
        ctx: u64,
        /// Message tag.
        tag: u64,
        /// Receives posted on this channel.
        posted: u64,
        /// Completions recorded on this channel.
        completed: u64,
    },
    /// A rank entered a collective kind more (or fewer) times than it left
    /// it.
    UnbalancedCollective {
        /// The rank with the unbalanced bracket.
        rank: usize,
        /// Collective kind name (stable, from [`xmpi::CollKind::name`]).
        kind: &'static str,
        /// `CollEnter` events recorded.
        enters: u64,
        /// `CollExit` events recorded.
        exits: u64,
    },
    /// Two runs that must be communication-identical moved different total
    /// byte counts on a rank.
    VolumeMismatch {
        /// The diverging rank.
        rank: usize,
        /// (sent, received) bytes in the baseline run.
        baseline: (u64, u64),
        /// (sent, received) bytes in the other run.
        other: (u64, u64),
    },
    /// Two runs that must be communication-identical moved different byte
    /// counts within a named phase on a rank.
    PhaseMismatch {
        /// The diverging rank.
        rank: usize,
        /// Phase label (empty string = the unnamed default phase).
        phase: String,
        /// (sent, received) bytes in the baseline run (zeros if absent).
        baseline: (u64, u64),
        /// (sent, received) bytes in the other run (zeros if absent).
        other: (u64, u64),
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ByteLeak {
                src,
                dst,
                ctx,
                tag,
                sent,
                received,
            } => write!(
                f,
                "byte leak on channel {src}->{dst} ctx {ctx:#x} tag {tag}: \
                 {sent} B sent vs {received} B received"
            ),
            Violation::LostRequest {
                rank,
                peer,
                ctx,
                tag,
                posted,
                completed,
            } => write!(
                f,
                "lost request on rank {rank}: {posted} receive(s) posted from \
                 {peer} ctx {ctx:#x} tag {tag}, only {completed} completed"
            ),
            Violation::UnbalancedCollective {
                rank,
                kind,
                enters,
                exits,
            } => write!(
                f,
                "unbalanced {kind} on rank {rank}: {enters} enter(s), {exits} exit(s)"
            ),
            Violation::VolumeMismatch {
                rank,
                baseline,
                other,
            } => write!(
                f,
                "volume mismatch on rank {rank}: baseline sent/recv {}/{} B, \
                 other {}/{} B",
                baseline.0, baseline.1, other.0, other.1
            ),
            Violation::PhaseMismatch {
                rank,
                phase,
                baseline,
                other,
            } => write!(
                f,
                "phase '{phase}' mismatch on rank {rank}: baseline sent/recv \
                 {}/{} B, other {}/{} B",
                baseline.0, baseline.1, other.0, other.1
            ),
        }
    }
}

/// Result of a [`check_trace`] pass.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Violations found (empty on a clean trace).
    pub violations: Vec<Violation>,
    /// The trace was incomplete (ring eviction), so the checks abstained —
    /// an empty `violations` does **not** certify the run.
    pub truncated: bool,
    /// Distinct `(src, dst, ctx, tag)` channels checked for conservation.
    pub channels_checked: usize,
    /// Receive posts checked for completion.
    pub posts_checked: u64,
}

impl Report {
    /// Clean *and* sound: no violations on a complete trace.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }

    /// Panic with a readable listing if the report is not clean. The
    /// conformance suite calls this so a failure prints every violation,
    /// not just the first.
    ///
    /// # Panics
    /// If the trace was truncated or any violation was found.
    pub fn assert_clean(&self) {
        assert!(
            !self.truncated,
            "trace truncated (ring eviction): invariant checks are unsound; \
             raise TraceConfig::capacity"
        );
        if !self.violations.is_empty() {
            let listing: Vec<String> = self.violations.iter().map(|v| v.to_string()).collect();
            panic!(
                "{} runtime invariant violation(s):\n  {}",
                self.violations.len(),
                listing.join("\n  ")
            );
        }
    }
}

/// Per-channel send/receive byte totals and post/completion counts.
#[derive(Default)]
struct ChannelLedger {
    sent: u64,
    received: u64,
}

/// Check byte conservation, lost requests, and collective bracketing on a
/// finished trace. See the module docs for the exact invariants; on a
/// truncated trace the checks abstain (`Report::truncated`).
pub fn check_trace(trace: &WorldTrace) -> Report {
    if trace.truncated() {
        return Report {
            truncated: true,
            ..Report::default()
        };
    }

    // (src, dst, ctx, tag) -> bytes out / bytes in.
    let mut channels: HashMap<(usize, usize, u64, u64), ChannelLedger> = HashMap::new();
    // (rank, peer, ctx, tag) -> (posted, completed).
    let mut requests: HashMap<(usize, usize, u64, u64), (u64, u64)> = HashMap::new();
    // (rank, kind) -> (enters, exits).
    let mut brackets: HashMap<(usize, &'static str), (u64, u64)> = HashMap::new();
    let mut posts_checked = 0u64;
    // Any rank crashed: in-flight messages and posted receives legitimately
    // died with the world, so byte-conservation and lost-request checks
    // abstain (they would report the injected fault, not a runtime bug).
    let mut crashed = false;

    for (rank, rt) in trace.ranks.iter().enumerate() {
        for e in &rt.events {
            match *e {
                Event::Send {
                    peer,
                    ctx,
                    tag,
                    bytes,
                    ..
                } => {
                    channels.entry((rank, peer, ctx, tag)).or_default().sent += bytes;
                }
                Event::RecvDone {
                    peer,
                    ctx,
                    tag,
                    bytes,
                    ..
                } => {
                    channels.entry((peer, rank, ctx, tag)).or_default().received += bytes;
                    requests.entry((rank, peer, ctx, tag)).or_default().1 += 1;
                }
                Event::RecvPost { peer, ctx, tag, .. } => {
                    requests.entry((rank, peer, ctx, tag)).or_default().0 += 1;
                    posts_checked += 1;
                }
                Event::CollEnter { kind, .. } => {
                    brackets.entry((rank, kind.name())).or_default().0 += 1;
                }
                Event::CollExit { kind, .. } => {
                    brackets.entry((rank, kind.name())).or_default().1 += 1;
                }
                Event::RankCrash { .. } => {
                    crashed = true;
                }
                Event::RecoveryBegin { .. } | Event::RecoveryEnd { .. } => {}
                Event::Phase { .. } => {}
            }
        }
    }

    let mut violations = Vec::new();

    // Deterministic violation order: sort the key sets before reporting.
    let mut chan_keys: Vec<_> = channels.keys().copied().collect();
    chan_keys.sort_unstable();
    let channels_checked = chan_keys.len();
    if !crashed {
        for key in chan_keys {
            let ledger = &channels[&key];
            if ledger.sent != ledger.received {
                let (src, dst, ctx, tag) = key;
                violations.push(Violation::ByteLeak {
                    src,
                    dst,
                    ctx,
                    tag,
                    sent: ledger.sent,
                    received: ledger.received,
                });
            }
        }

        let mut req_keys: Vec<_> = requests.keys().copied().collect();
        req_keys.sort_unstable();
        for key in req_keys {
            let (posted, completed) = requests[&key];
            if posted > completed {
                let (rank, peer, ctx, tag) = key;
                violations.push(Violation::LostRequest {
                    rank,
                    peer,
                    ctx,
                    tag,
                    posted,
                    completed,
                });
            }
        }
    }

    let mut coll_keys: Vec<_> = brackets.keys().copied().collect();
    coll_keys.sort_unstable();
    for key in coll_keys {
        let (enters, exits) = brackets[&key];
        if enters != exits {
            let (rank, kind) = key;
            violations.push(Violation::UnbalancedCollective {
                rank,
                kind,
                enters,
                exits,
            });
        }
    }

    Report {
        violations,
        truncated: false,
        channels_checked,
        posts_checked,
    }
}

/// Check that two runs of the same deterministic schedule moved identical
/// per-rank totals and per-phase byte counts — the cross-seed equality
/// invariant (a perturbed run must change *when* bytes move, never *how
/// many*). Returns one violation per diverging rank/phase; empty means the
/// runs are communication-identical.
pub fn check_stats_equal(baseline: &WorldStats, other: &WorldStats) -> Vec<Violation> {
    let mut violations = Vec::new();
    assert_eq!(
        baseline.ranks.len(),
        other.ranks.len(),
        "check_stats_equal: runs have different world sizes ({} vs {})",
        baseline.ranks.len(),
        other.ranks.len()
    );
    for (rank, (a, b)) in baseline.ranks.iter().zip(&other.ranks).enumerate() {
        if (a.bytes_sent, a.bytes_recv) != (b.bytes_sent, b.bytes_recv) {
            violations.push(Violation::VolumeMismatch {
                rank,
                baseline: (a.bytes_sent, a.bytes_recv),
                other: (b.bytes_sent, b.bytes_recv),
            });
        }
        let mut phases: Vec<&String> = a.per_phase.keys().chain(b.per_phase.keys()).collect();
        phases.sort();
        phases.dedup();
        for phase in phases {
            let pa = a.per_phase.get(phase).copied().unwrap_or_default();
            let pb = b.per_phase.get(phase).copied().unwrap_or_default();
            if pa != pb {
                violations.push(Violation::PhaseMismatch {
                    rank,
                    phase: phase.clone(),
                    baseline: pa,
                    other: pb,
                });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmpi::trace::{RankTrace, TraceConfig};
    use xmpi::{run_traced, CollKind};

    /// A two-rank ping-pong plus collective traffic: everything posted is
    /// completed, so the trace must be clean.
    #[test]
    fn clean_world_passes() {
        let out = run_traced(2, &TraceConfig::default(), |c| {
            c.set_phase("talk");
            if c.rank() == 0 {
                c.send_f64(1, 7, &[1.0, 2.0, 3.0]);
                c.recv_f64(1, 8);
            } else {
                c.recv_f64(0, 7);
                c.send_f64(0, 8, &[4.0]);
            }
            let mut v = vec![c.rank() as f64];
            c.allreduce_sum(&mut v);
            c.barrier();
        });
        let report = check_trace(&out.trace);
        report.assert_clean();
        assert!(report.channels_checked > 0);
        assert!(report.posts_checked > 0);
    }

    /// A receive posted and never completed — what a `try_recv_*` that
    /// timed out leaves behind, here followed by a second receive that does
    /// get the message — must be flagged on exactly that channel.
    #[test]
    fn dropped_request_is_flagged_lost() {
        let mut trace = WorldTrace::default();
        trace.ranks.push(RankTrace {
            events: vec![Event::Send {
                t: 0,
                peer: 1,
                ctx: 0,
                tag: 5,
                bytes: 8,
                kind: CollKind::P2p,
            }],
            dropped: 0,
        });
        let post = Event::RecvPost {
            t: 1,
            peer: 0,
            ctx: 0,
            tag: 5,
        };
        trace.ranks.push(RankTrace {
            events: vec![
                post,
                post,
                Event::RecvDone {
                    t: 2,
                    peer: 0,
                    ctx: 0,
                    tag: 5,
                    bytes: 8,
                    kind: CollKind::P2p,
                },
            ],
            dropped: 0,
        });
        let report = check_trace(&trace);
        assert!(!report.truncated);
        assert_eq!(
            report.violations,
            vec![Violation::LostRequest {
                rank: 1,
                peer: 0,
                ctx: 0,
                tag: 5,
                posted: 2,
                completed: 1,
            }]
        );
    }

    /// A synthesized trace with a receive that was never sent must trip
    /// byte conservation (the real transport cannot produce this; the
    /// checker still has to catch a corrupted or hand-edited trace).
    #[test]
    fn synthesized_byte_leak_is_flagged() {
        let mut trace = WorldTrace::default();
        trace.ranks.push(RankTrace {
            events: vec![Event::Send {
                t: 0,
                peer: 1,
                ctx: 1,
                tag: 3,
                bytes: 16,
                kind: CollKind::P2p,
            }],
            dropped: 0,
        });
        trace.ranks.push(RankTrace {
            events: vec![Event::RecvDone {
                t: 1,
                peer: 0,
                ctx: 1,
                tag: 3,
                bytes: 8,
                kind: CollKind::P2p,
            }],
            dropped: 0,
        });
        let report = check_trace(&trace);
        assert_eq!(
            report.violations,
            vec![Violation::ByteLeak {
                src: 0,
                dst: 1,
                ctx: 1,
                tag: 3,
                sent: 16,
                received: 8,
            }]
        );
    }

    /// Ring eviction makes the checks unsound: the report must abstain.
    #[test]
    fn truncated_trace_abstains() {
        let out = run_traced(2, &TraceConfig { capacity: 2 }, |c| {
            if c.rank() == 0 {
                for i in 0..8 {
                    c.send_f64(1, i, &[0.0]);
                }
            } else {
                for i in 0..8 {
                    c.recv_f64(0, i);
                }
            }
        });
        assert!(out.trace.truncated());
        let report = check_trace(&out.trace);
        assert!(report.truncated);
        assert!(report.violations.is_empty());
        assert!(!report.is_clean());
    }

    #[test]
    fn stats_equality_flags_drift() {
        let run = |extra: bool| {
            xmpi::run(2, |c| {
                c.set_phase("a");
                if c.rank() == 0 {
                    c.send_f64(1, 0, &[1.0]);
                    if extra {
                        c.send_f64(1, 1, &[2.0, 3.0]);
                    }
                } else {
                    c.recv_f64(0, 0);
                    if extra {
                        c.recv_f64(0, 1);
                    }
                }
            })
            .stats
        };
        let a = run(false);
        let b = run(false);
        assert!(check_stats_equal(&a, &b).is_empty());
        let c = run(true);
        let viol = check_stats_equal(&a, &c);
        assert!(
            viol.iter()
                .any(|v| matches!(v, Violation::VolumeMismatch { rank: 0, .. })),
            "violations: {viol:?}"
        );
        assert!(
            viol.iter().any(
                |v| matches!(v, Violation::PhaseMismatch { rank: 1, phase, .. } if phase == "a")
            ),
            "violations: {viol:?}"
        );
    }
}
