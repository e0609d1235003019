//! Per-rank span timelines derived from an event trace.
//!
//! Three lanes per rank, mirroring what a Vampir/Perfetto view of a Score-P
//! trace shows:
//!
//! * **phases** — the span between consecutive phase markers, carrying the
//!   flops performed in it (first differences of the markers' cumulative
//!   counts);
//! * **waits** — receive-wait intervals, the rank's idle time: post →
//!   completion of each (blocking) receive;
//! * **collectives** — outermost collective calls (enter → exit).

use xmpi::trace::Event;
use xmpi::{CollKind, WorldTrace};

/// A phase span on one rank's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Phase label (`""` before the first marker).
    pub label: String,
    /// Start (ns since world epoch).
    pub start: u64,
    /// End (ns since world epoch).
    pub end: u64,
    /// Flops attributed to this span.
    pub flops: u64,
}

/// A receive-wait (idle) interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wait {
    /// Wait start = receive post time (ns).
    pub start: u64,
    /// Wait end = message delivery time (ns).
    pub end: u64,
    /// Source world rank waited on.
    pub peer: usize,
    /// Delivered payload size.
    pub bytes: u64,
    /// Phase label active when the wait began.
    pub phase: String,
}

impl Wait {
    /// Idle nanoseconds spent in this wait.
    pub fn idle(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An outermost collective call interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollSpan {
    /// Which collective.
    pub kind: CollKind,
    /// Enter time (ns).
    pub start: u64,
    /// Exit time (ns).
    pub end: u64,
}

/// One rank's derived timeline.
#[derive(Debug, Clone, Default)]
pub struct RankTimeline {
    /// World rank.
    pub rank: usize,
    /// Phase spans, in time order, covering `[0, end]`.
    pub phases: Vec<Span>,
    /// Receive-wait intervals, in time order.
    pub waits: Vec<Wait>,
    /// Outermost collective intervals, in time order.
    pub colls: Vec<CollSpan>,
    /// This rank's last event time (ns).
    pub end: u64,
}

impl RankTimeline {
    /// Total idle (receive-wait) nanoseconds.
    pub fn wait_time(&self) -> u64 {
        self.waits.iter().map(Wait::idle).sum()
    }

    /// Total flops attributed across phases.
    pub fn total_flops(&self) -> u64 {
        self.phases.iter().map(|s| s.flops).sum()
    }
}

/// All ranks' timelines plus the global makespan.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Per-rank timelines, indexed by world rank.
    pub ranks: Vec<RankTimeline>,
    /// Last event time across the world (ns).
    pub makespan: u64,
}

impl Timeline {
    /// Derive the timelines from a recorded trace.
    pub fn build(trace: &WorldTrace) -> Timeline {
        let makespan = trace.end_time();
        let ranks = trace
            .ranks
            .iter()
            .enumerate()
            .map(|(rank, rt)| build_rank(trace, rank, &rt.events, makespan))
            .collect();
        Timeline { ranks, makespan }
    }

    /// Aggregate idle time across ranks.
    pub(crate) fn total_wait(&self) -> u64 {
        self.ranks.iter().map(RankTimeline::wait_time).sum()
    }
}

fn build_rank(trace: &WorldTrace, rank: usize, events: &[Event], makespan: u64) -> RankTimeline {
    let mut tl = RankTimeline {
        rank,
        ..Default::default()
    };
    tl.end = events.last().map(Event::t).unwrap_or(0);

    // Open phase span: label + start + cumulative flops at its start.
    let mut cur_label = String::new();
    let mut cur_start = 0u64;
    let mut cur_cum = 0u64;
    // The rank's open receive post `(peer, ctx, tag, t)`. Receives block,
    // so a `RecvDone` completes the post right before it; a post that was
    // evicted or left dangling reads as no post.
    let mut post: Option<(usize, u64, u64, u64)> = None;
    let mut coll_open: Option<(CollKind, u64)> = None;

    let close_span = |tl: &mut RankTimeline, label: &str, start, end, flops| {
        if end > start || flops > 0 {
            tl.phases.push(Span {
                label: label.to_string(),
                start,
                end,
                flops,
            });
        }
    };

    for e in events {
        match *e {
            Event::Phase {
                t,
                label,
                cum_flops,
            } => {
                let flops = cum_flops.saturating_sub(cur_cum);
                close_span(&mut tl, &cur_label, cur_start, t, flops);
                cur_label = trace.label(label).to_string();
                cur_start = t;
                cur_cum = cum_flops;
            }
            Event::RecvPost { t, peer, ctx, tag } => post = Some((peer, ctx, tag, t)),
            Event::RecvDone {
                t,
                peer,
                ctx,
                tag,
                bytes,
                ..
            } => {
                if let Some((_, _, _, start)) = post
                    .take()
                    .filter(|&(p, c, g, _)| (p, c, g) == (peer, ctx, tag))
                {
                    tl.waits.push(Wait {
                        start,
                        end: t,
                        peer,
                        bytes,
                        phase: cur_label.clone(),
                    });
                }
            }
            Event::CollEnter { t, kind } => coll_open = Some((kind, t)),
            Event::CollExit { t, kind } => {
                if let Some((k, start)) = coll_open.take() {
                    debug_assert_eq!(k, kind);
                    tl.colls.push(CollSpan {
                        kind,
                        start,
                        end: t,
                    });
                }
            }
            Event::Send { .. } => {}
            // Crash/recovery markers have no span of their own; the recovery
            // bracket's traffic shows up as ordinary waits, attributed to
            // whatever phase the recovering rank declared.
            Event::RankCrash { .. } | Event::RecoveryBegin { .. } | Event::RecoveryEnd { .. } => {}
        }
    }
    // Close the trailing span at the makespan so every rank's timeline
    // covers the full run (residual flops only when no end marker exists).
    close_span(&mut tl, &cur_label, cur_start, makespan, 0);
    tl
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmpi::RankTrace;

    /// Hand-built 2-rank trace: rank 0 computes 1 µs then sends 800 bytes;
    /// rank 1 posts its receive at t=100 ns and is idle until delivery at
    /// t=1100 ns.
    fn two_rank_trace() -> WorldTrace {
        let k = CollKind::P2p;
        WorldTrace {
            labels: vec!["compute".into(), "exchange".into(), "_end".into()],
            ranks: vec![
                RankTrace {
                    events: vec![
                        Event::Phase {
                            t: 0,
                            label: 0,
                            cum_flops: 0,
                        },
                        Event::Phase {
                            t: 1000,
                            label: 1,
                            cum_flops: 2000,
                        },
                        Event::Send {
                            t: 1050,
                            peer: 1,
                            ctx: 0,
                            tag: 7,
                            bytes: 800,
                            kind: k,
                        },
                        Event::Phase {
                            t: 1200,
                            label: 2,
                            cum_flops: 2000,
                        },
                    ],
                    dropped: 0,
                },
                RankTrace {
                    events: vec![
                        Event::Phase {
                            t: 0,
                            label: 1,
                            cum_flops: 0,
                        },
                        Event::RecvPost {
                            t: 100,
                            peer: 0,
                            ctx: 0,
                            tag: 7,
                        },
                        Event::RecvDone {
                            t: 1100,
                            peer: 0,
                            ctx: 0,
                            tag: 7,
                            bytes: 800,
                            kind: k,
                        },
                        Event::Phase {
                            t: 1300,
                            label: 2,
                            cum_flops: 500,
                        },
                    ],
                    dropped: 0,
                },
            ],
        }
    }

    #[test]
    fn phases_waits_and_flops_are_exact() {
        let tr = two_rank_trace();
        let tl = Timeline::build(&tr);
        assert_eq!(tl.makespan, 1300);

        let r0 = &tl.ranks[0];
        assert_eq!(
            r0.phases,
            vec![
                Span {
                    label: "compute".into(),
                    start: 0,
                    end: 1000,
                    flops: 2000
                },
                Span {
                    label: "exchange".into(),
                    start: 1000,
                    end: 1200,
                    flops: 0
                },
                Span {
                    label: "_end".into(),
                    start: 1200,
                    end: 1300,
                    flops: 0
                },
            ]
        );
        assert_eq!(r0.wait_time(), 0);
        assert_eq!(r0.total_flops(), 2000);

        let r1 = &tl.ranks[1];
        // Exactly one wait of exactly 1000 ns, attributed to "exchange".
        assert_eq!(r1.waits.len(), 1);
        let w = &r1.waits[0];
        assert_eq!((w.start, w.end, w.peer, w.bytes), (100, 1100, 0, 800));
        assert_eq!(w.phase, "exchange");
        assert_eq!(r1.wait_time(), 1000);
        assert_eq!(tl.total_wait(), 1000);
        assert_eq!(r1.total_flops(), 500);
    }

    #[test]
    fn collective_spans_pair_enter_exit() {
        let tr = WorldTrace {
            labels: vec![],
            ranks: vec![RankTrace {
                events: vec![
                    Event::CollEnter {
                        t: 10,
                        kind: CollKind::Allreduce,
                    },
                    Event::CollExit {
                        t: 90,
                        kind: CollKind::Allreduce,
                    },
                ],
                dropped: 0,
            }],
        };
        let tl = Timeline::build(&tr);
        assert_eq!(
            tl.ranks[0].colls,
            vec![CollSpan {
                kind: CollKind::Allreduce,
                start: 10,
                end: 90
            }]
        );
    }
}
