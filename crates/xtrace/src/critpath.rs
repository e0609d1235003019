//! Critical-path extraction through the send/receive happens-before graph.
//!
//! The critical path is the chain of dependent work that determined the
//! makespan: starting from the globally last event, walk backwards on the
//! current rank until a receive whose message arrived *after* it was posted
//! (a sender-limited wait), then hop to the matching send on the sender and
//! continue there. Each maximal single-rank stretch becomes one
//! [`CpSegment`]; shortening work inside any segment would shorten the run.
//!
//! Send/receive matching uses the transport's own guarantee: per
//! `(src, dst, ctx, tag)` channel, messages are FIFO, so the *n*-th receive
//! completion on a channel matches the *n*-th send. Receives block, so a
//! completion's post is the rank's receive post right before it.

use std::collections::HashMap;
use xmpi::trace::Event;
use xmpi::WorldTrace;

/// One single-rank stretch of the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpSegment {
    /// The rank the path runs on.
    pub rank: usize,
    /// Stretch start (ns since world epoch).
    pub start: u64,
    /// Stretch end (ns).
    pub end: u64,
}

/// Sum of segment durations (≤ makespan; the gaps are message flight time).
pub fn path_length(path: &[CpSegment]) -> u64 {
    path.iter().map(|s| s.end - s.start).sum()
}

/// Matched-receive info: the send event location and the post time.
struct MatchedRecv {
    send_rank: usize,
    send_idx: usize,
    send_t: u64,
    post_t: u64,
}

/// Extract the critical path, earliest segment first. Empty for an empty
/// trace.
pub fn critical_path(trace: &WorldTrace) -> Vec<CpSegment> {
    // FIFO send queues per channel.
    type Key = (usize, usize, u64, u64); // (src, dst, ctx, tag)
    let mut sends: HashMap<Key, Vec<(usize, u64)>> = HashMap::new(); // (event idx, t)
    for (rank, rt) in trace.ranks.iter().enumerate() {
        for (i, e) in rt.events.iter().enumerate() {
            if let Event::Send {
                t, peer, ctx, tag, ..
            } = *e
            {
                sends
                    .entry((rank, peer, ctx, tag))
                    .or_default()
                    .push((i, t));
            }
        }
    }

    // Per-rank: match each RecvDone to its post and its send.
    let mut matched: Vec<HashMap<usize, MatchedRecv>> = Vec::with_capacity(trace.ranks.len());
    for (rank, rt) in trace.ranks.iter().enumerate() {
        let mut consumed: HashMap<Key, usize> = HashMap::new();
        // The open receive post `(peer, ctx, tag, t)`; an evicted or
        // dangling post reads as no post.
        let mut post: Option<(usize, u64, u64, u64)> = None;
        let mut by_idx = HashMap::new();
        for (i, e) in rt.events.iter().enumerate() {
            match *e {
                Event::RecvPost { t, peer, ctx, tag } => post = Some((peer, ctx, tag, t)),
                Event::RecvDone { peer, ctx, tag, .. } => {
                    let post_t = post
                        .take()
                        .filter(|&(p, c, g, _)| (p, c, g) == (peer, ctx, tag))
                        .map(|(_, _, _, t)| t);
                    let key: Key = (peer, rank, ctx, tag);
                    let n = consumed.entry(key).or_insert(0);
                    if let (Some(post_t), Some(&(send_idx, send_t))) =
                        (post_t, sends.get(&key).and_then(|q| q.get(*n)))
                    {
                        by_idx.insert(
                            i,
                            MatchedRecv {
                                send_rank: peer,
                                send_idx,
                                send_t,
                                post_t,
                            },
                        );
                    }
                    *n += 1;
                }
                _ => {}
            }
        }
        matched.push(by_idx);
    }

    // Start at the globally last event.
    let Some((mut rank, mut idx, mut end_t)) = trace
        .ranks
        .iter()
        .enumerate()
        .flat_map(|(r, rt)| {
            rt.events
                .iter()
                .enumerate()
                .map(move |(i, e)| (r, i, e.t()))
        })
        .max_by_key(|&(_, _, t)| t)
    else {
        return Vec::new();
    };

    let mut path = Vec::new();
    loop {
        // Walk backwards on `rank` looking for a sender-limited receive.
        let mut jump = None;
        for i in (0..=idx).rev() {
            if let Some(m) = matched[rank].get(&i) {
                if m.send_t > m.post_t {
                    jump = Some((trace.ranks[rank].events[i].t(), m));
                    break;
                }
            }
        }
        match jump {
            Some((done_t, m)) => {
                path.push(CpSegment {
                    rank,
                    start: done_t.min(end_t),
                    end: end_t,
                });
                rank = m.send_rank;
                idx = m.send_idx;
                end_t = m.send_t;
            }
            None => {
                // No blocking dependency left: the path begins with this
                // rank's work from the epoch.
                path.push(CpSegment {
                    rank,
                    start: 0,
                    end: end_t,
                });
                break;
            }
        }
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmpi::{CollKind, RankTrace};

    /// Rank 0 computes until t=1000, sends; rank 1 posted at t=100, gets
    /// the message at t=1100 and works until t=2000. The critical path is
    /// rank 0's [0,1000] then rank 1's [1100,2000].
    #[test]
    fn sender_limited_chain_is_extracted_exactly() {
        let k = CollKind::P2p;
        let tr = WorldTrace {
            labels: vec![],
            ranks: vec![
                RankTrace {
                    events: vec![Event::Send {
                        t: 1000,
                        peer: 1,
                        ctx: 0,
                        tag: 1,
                        bytes: 8,
                        kind: k,
                    }],
                    dropped: 0,
                },
                RankTrace {
                    events: vec![
                        Event::RecvPost {
                            t: 100,
                            peer: 0,
                            ctx: 0,
                            tag: 1,
                        },
                        Event::RecvDone {
                            t: 1100,
                            peer: 0,
                            ctx: 0,
                            tag: 1,
                            bytes: 8,
                            kind: k,
                        },
                        Event::Phase {
                            t: 2000,
                            label: 0,
                            cum_flops: 0,
                        },
                    ],
                    dropped: 0,
                },
            ],
        };
        let path = critical_path(&tr);
        assert_eq!(
            path,
            vec![
                CpSegment {
                    rank: 0,
                    start: 0,
                    end: 1000
                },
                CpSegment {
                    rank: 1,
                    start: 1100,
                    end: 2000
                },
            ]
        );
        assert_eq!(path_length(&path), 1900);
    }

    /// If the message was already waiting when the receive was posted, the
    /// receiver was never sender-limited: the path stays on the receiver.
    #[test]
    fn early_message_keeps_path_local() {
        let k = CollKind::P2p;
        let tr = WorldTrace {
            labels: vec![],
            ranks: vec![
                RankTrace {
                    events: vec![Event::Send {
                        t: 10,
                        peer: 1,
                        ctx: 0,
                        tag: 1,
                        bytes: 8,
                        kind: k,
                    }],
                    dropped: 0,
                },
                RankTrace {
                    events: vec![
                        Event::RecvPost {
                            t: 500,
                            peer: 0,
                            ctx: 0,
                            tag: 1,
                        },
                        Event::RecvDone {
                            t: 505,
                            peer: 0,
                            ctx: 0,
                            tag: 1,
                            bytes: 8,
                            kind: k,
                        },
                        Event::Phase {
                            t: 900,
                            label: 0,
                            cum_flops: 0,
                        },
                    ],
                    dropped: 0,
                },
            ],
        };
        let path = critical_path(&tr);
        assert_eq!(
            path,
            vec![CpSegment {
                rank: 1,
                start: 0,
                end: 900
            }]
        );
    }

    #[test]
    fn empty_trace_has_empty_path() {
        assert!(critical_path(&WorldTrace::default()).is_empty());
    }
}
