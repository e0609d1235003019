//! World launcher: spawns one OS thread per rank and collects results and
//! traffic statistics.

use crate::comm::{Comm, Shared};
use crate::error::XmpiError;
use crate::hooks;
use crate::liveness::{CrashUnwind, PoisonUnwind};
use crate::stats::WorldStats;
use crate::trace::{self, Recorder, TraceConfig, WorldTrace};
use std::sync::Arc;

/// Results of a finished world: each rank's return value plus the traffic
/// snapshot.
pub struct WorldResult<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank communication statistics.
    pub stats: WorldStats,
}

/// Results of a world that may have suffered injected rank crashes (see
/// [`run_ft`]): per-rank outcomes instead of bare values.
pub struct FtResult<R> {
    /// Per-rank outcomes, indexed by rank. A crashed rank is
    /// `Err(XmpiError::RankDead)` *naming itself*; a survivor whose blocking
    /// operation was cut short carries the error it observed
    /// (`RankDead { peer }` or `WorldPoisoned`).
    pub results: Vec<Result<R, XmpiError>>,
    /// Per-rank communication statistics (crashed ranks keep whatever they
    /// had counted before dying — a crashed send was never counted).
    pub stats: WorldStats,
    /// World ranks that crashed, ascending. Empty means every rank ran to
    /// completion and every entry of `results` is `Ok`.
    pub crashed: Vec<usize>,
}

/// Results of a finished *traced* world: [`WorldResult`] plus the event
/// trace.
pub struct TracedResult<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank communication statistics.
    pub stats: WorldStats,
    /// The recorded event trace.
    pub trace: WorldTrace,
}

/// Run an SPMD function on `p` ranks (one thread each) and wait for all of
/// them.
///
/// The closure receives this rank's world [`Comm`]. If any rank panics the
/// panic is propagated to the caller after the world is torn down.
///
/// If [`crate::trace::capture`] is armed on the calling thread the world is
/// recorded and its trace stashed with the capture, and if
/// [`crate::hooks::with_hooks`] is armed the schedule-perturbation hooks are
/// installed on the world; otherwise no recorder or hooks exist and the
/// transport pays no tracing or perturbation cost.
///
/// A fault sentinel reaching this join point means crash injection was armed
/// on a world launched without [`run_ft`] — that fails loudly with a pointer
/// at the right entry point instead of hanging or silently dropping a rank.
///
/// # Panics
/// If `p == 0`, or if any rank panics.
pub fn run<R, F>(p: usize, f: F) -> WorldResult<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    let out = run_ft(p, f);
    let results = out
        .results
        .into_iter()
        .enumerate()
        .map(|(rank, r)| match r {
            Ok(v) => v,
            Err(e) => panic!(
                "rank {rank} failed under fault injection: {e}; \
                 launch the world with xmpi::run_ft to handle rank crashes"
            ),
        })
        .collect();
    WorldResult {
        results,
        stats: out.stats,
    }
}

/// [`run`] returning the world's event trace (see [`crate::trace`]) next to
/// its results: [`crate::trace::capture`] around one [`run`], for callers
/// that own the launch site.
///
/// # Panics
/// As [`run`], and if capture is already armed on this thread.
pub fn run_traced<R, F>(p: usize, cfg: &TraceConfig, f: F) -> TracedResult<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    let (out, mut traces) = trace::capture(cfg.clone(), || run(p, f));
    TracedResult {
        results: out.results,
        stats: out.stats,
        trace: traces.pop().expect("one world launched, one trace stashed"),
    }
}

/// [`run`] for worlds that may suffer injected rank crashes: per-rank
/// outcomes instead of a propagated panic.
///
/// The crashing rank unwinds with an internal sentinel that the join point
/// maps to `Err(XmpiError::RankDead)` naming the rank itself; survivors cut
/// short by the poisoned world carry the precise error their blocking
/// operation observed. A *genuine* panic (an assertion failure, an
/// out-of-range send) is still re-raised unchanged — only the two fault
/// sentinels (`CrashUnwind`, `PoisonUnwind`) are absorbed, so bugs stay
/// loud under fault injection.
///
/// Composes with [`crate::trace::capture`] and [`crate::hooks::with_hooks`]
/// exactly like [`run`] — this is the one launch path, and it takes both
/// from the calling thread's ambient state — which is how a fault-tolerant
/// driver replays a seeded crash schedule under tracing.
///
/// # Panics
/// If `p == 0`, or if any rank panics with a non-sentinel payload.
pub fn run_ft<R, F>(p: usize, f: F) -> FtResult<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    assert!(p > 0, "world must have at least one rank");
    let recorder = trace::capture_config().map(|cfg| Recorder::new(p, &cfg));
    let shared = Shared::build(p, recorder, hooks::armed());

    let results: Vec<Result<R, XmpiError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..p)
            .map(|rank| {
                let shared = shared.clone();
                let f = &f;
                s.spawn(move || {
                    let comm = Comm::world(shared, rank);
                    f(&comm)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => Ok(r),
                Err(payload) => {
                    let payload = match payload.downcast::<CrashUnwind>() {
                        Ok(c) => return Err(XmpiError::RankDead { rank: c.rank }),
                        Err(other) => other,
                    };
                    match payload.downcast::<PoisonUnwind>() {
                        Ok(p) => Err(p.0),
                        Err(other) => std::panic::resume_unwind(other),
                    }
                }
            })
            .collect()
    });

    let stats = WorldStats {
        ranks: shared.counters.iter().map(|c| c.snapshot()).collect(),
    };
    let crashed = shared.liveness.dead_ranks();
    if shared.trace.is_some() {
        let shared = Arc::into_inner(shared)
            .expect("traced world: shared state must be exclusively owned after join");
        let recorder = shared.trace.expect("checked above");
        trace::capture_stash(recorder.finish());
    }
    FtResult {
        results,
        stats,
        crashed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::SchedHooks;

    #[test]
    fn single_rank_world() {
        let out = run(1, |c| {
            assert_eq!(c.size(), 1);
            42
        });
        assert_eq!(out.results, vec![42]);
        assert_eq!(out.stats.total_bytes_sent(), 0);
    }

    #[test]
    fn ranks_are_distinct_and_ordered() {
        let out = run(7, |c| c.rank());
        assert_eq!(out.results, (0..7).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn rank_panic_propagates() {
        run(3, |c| {
            if c.rank() == 1 {
                panic!("boom");
            }
        });
    }

    /// Kills `victim` at its first send attempt.
    struct CrashVictim {
        victim: usize,
    }
    impl SchedHooks for CrashVictim {
        fn crash_fate(&self, src: usize, _: usize, _: u64, _: u64) -> crate::hooks::CrashFate {
            if src == self.victim {
                crate::hooks::CrashFate::Crash
            } else {
                crate::hooks::CrashFate::Survive
            }
        }
    }

    #[test]
    fn run_ft_maps_crash_to_typed_errors() {
        let out = hooks::with_hooks(Arc::new(CrashVictim { victim: 0 }), || {
            run_ft(2, |c| {
                if c.rank() == 0 {
                    c.send_f64(1, 0, &[1.0]);
                    0.0
                } else {
                    c.recv_f64(0, 0)[0]
                }
            })
        });
        assert_eq!(out.crashed, vec![0]);
        // The victim names itself; the survivor blocked on the dead peer.
        assert_eq!(out.results[0], Err(XmpiError::RankDead { rank: 0 }));
        assert_eq!(out.results[1], Err(XmpiError::RankDead { rank: 0 }));
    }

    #[test]
    fn run_ft_without_faults_is_all_ok() {
        let out = run_ft(3, |c| {
            let mut v = vec![c.rank() as f64];
            c.allreduce_sum(&mut v);
            v[0]
        });
        assert!(out.crashed.is_empty());
        for r in out.results {
            assert_eq!(r, Ok(3.0));
        }
    }

    #[test]
    fn run_ft_still_propagates_real_panics() {
        let r = std::panic::catch_unwind(|| {
            run_ft(2, |c| {
                if c.rank() == 1 {
                    panic!("genuine bug");
                }
            });
        });
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "fault injection")]
    fn plain_run_rejects_crash_injection_loudly() {
        hooks::with_hooks(Arc::new(CrashVictim { victim: 0 }), || {
            run(2, |c| {
                if c.rank() == 0 {
                    c.send_f64(1, 0, &[1.0]);
                } else {
                    c.recv_f64(0, 0);
                }
            });
        });
    }

    #[test]
    fn delivered_messages_survive_poisoning() {
        // Rank 0 sends its payload and *then* crashes; rank 1 must still be
        // able to consume the already-delivered message before observing the
        // death on its second receive.
        struct CrashOnSecondSend(std::sync::atomic::AtomicUsize);
        impl SchedHooks for CrashOnSecondSend {
            fn crash_fate(&self, src: usize, _: usize, _: u64, _: u64) -> crate::hooks::CrashFate {
                use std::sync::atomic::Ordering;
                if src == 0 && self.0.fetch_add(1, Ordering::SeqCst) == 1 {
                    crate::hooks::CrashFate::Crash
                } else {
                    crate::hooks::CrashFate::Survive
                }
            }
        }
        let out = hooks::with_hooks(
            Arc::new(CrashOnSecondSend(std::sync::atomic::AtomicUsize::new(0))),
            || {
                run_ft(2, |c| {
                    if c.rank() == 0 {
                        c.send_f64(1, 0, &[7.0]);
                        c.send_f64(1, 1, &[8.0]); // dies here
                        vec![]
                    } else {
                        let first = c.try_recv_f64(0, 0).expect("delivered before crash");
                        let second = c.try_recv_f64(0, 1);
                        assert_eq!(second, Err(XmpiError::RankDead { rank: 0 }));
                        first
                    }
                })
            },
        );
        assert_eq!(out.crashed, vec![0]);
        assert_eq!(out.results[1], Ok(vec![7.0]));
    }

    #[test]
    fn traced_world_records_messaging_events() {
        use crate::trace::Event;
        use crate::CollKind;
        let out = run_traced(2, &TraceConfig::default(), |c| {
            c.set_phase("talk");
            if c.rank() == 0 {
                c.send_f64(1, 3, &[1.0, 2.0]);
            } else {
                c.recv_f64(0, 3);
            }
            c.barrier();
        });
        assert_eq!(out.trace.ranks.len(), 2);
        assert!(!out.trace.truncated());
        let r0 = &out.trace.ranks[0].events;
        let r1 = &out.trace.ranks[1].events;
        // Rank 0: phase marker, then the user send (p2p kind), then barrier.
        assert!(matches!(r0[0], Event::Phase { .. }));
        assert!(r0.iter().any(|e| matches!(
            *e,
            Event::Send {
                peer: 1,
                tag: 3,
                bytes: 16,
                kind: CollKind::P2p,
                ..
            }
        )));
        assert!(r0.iter().any(|e| matches!(
            *e,
            Event::CollEnter {
                kind: CollKind::Barrier,
                ..
            }
        )));
        // Rank 1: a post/done pair for the user receive.
        let post = r1
            .iter()
            .find_map(|e| match *e {
                Event::RecvPost {
                    t, peer: 0, tag: 3, ..
                } => Some(t),
                _ => None,
            })
            .expect("recv post recorded");
        let done = r1
            .iter()
            .find_map(|e| match *e {
                Event::RecvDone {
                    t,
                    peer: 0,
                    tag: 3,
                    bytes: 16,
                    ..
                } => Some(t),
                _ => None,
            })
            .expect("recv done recorded");
        assert!(done >= post);
        // Timestamps are monotone per rank (rank-local writers only here).
        for evs in [r0, r1] {
            for w in evs.windows(2) {
                assert!(w[1].t() >= w[0].t());
            }
        }
        // Barrier traffic is attributed to the barrier, the user message to
        // p2p, and kinds partition the totals.
        let r0s = &out.stats.ranks[0];
        assert_eq!(r0s.coll(CollKind::P2p).bytes_sent, 16);
        // Barrier messages are zero-byte; they still count as messages.
        assert!(r0s.coll(CollKind::Barrier).msgs_sent > 0);
        let kind_sum: u64 = r0s.per_coll.iter().map(|(_, c)| c.bytes_sent).sum();
        assert_eq!(kind_sum, r0s.bytes_sent);
    }

    #[test]
    fn untraced_world_records_nothing() {
        let out = run(2, |c| c.barrier());
        // Same stats as ever (barrier messages are zero-byte); there is
        // simply no trace to consult.
        assert!(out.stats.total_msgs() > 0);
    }

    #[test]
    fn capture_traces_nested_runs() {
        let (total, traces) = crate::trace::capture(TraceConfig::default(), || {
            let out = run(3, |c| {
                let mut v = vec![c.rank() as f64];
                c.allreduce_sum(&mut v);
                v[0]
            });
            out.results[0]
        });
        assert_eq!(total, 3.0);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].ranks.len(), 3);
        assert!(traces[0].num_events() > 0);
    }

    /// Both launch entry points take the recorder *and* the hooks from the
    /// calling thread: armed together, the world is perturbed (the hook's
    /// counter moves) and traced (one `WorldTrace`, events present).
    #[test]
    fn hooks_and_capture_compose_on_every_entry_point() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct CountSends(AtomicUsize);
        impl SchedHooks for CountSends {
            fn send_fate(&self, _: usize, _: usize, _: u64, _: u64, _: u64) -> hooks::SendFate {
                self.0.fetch_add(1, Ordering::Relaxed);
                hooks::SendFate::Deliver
            }
        }
        fn ping(c: &Comm) {
            if c.rank() == 0 {
                c.send_f64(1, 0, &[1.0]);
            } else {
                c.recv_f64(0, 0);
            }
        }
        type Entry = fn() -> usize;
        let entries: [(&str, Entry); 2] = [
            ("run", || run(2, ping).results.len()),
            ("run_ft", || run_ft(2, ping).results.len()),
        ];
        for (name, entry) in entries {
            let counter = Arc::new(CountSends(AtomicUsize::new(0)));
            let (ranks, traces) = trace::capture(TraceConfig::default(), || {
                hooks::with_hooks(counter.clone(), entry)
            });
            assert_eq!(ranks, 2, "{name}");
            assert_eq!(counter.0.load(Ordering::Relaxed), 1, "{name}: hooked");
            assert_eq!(traces.len(), 1, "{name}: traced");
            assert_eq!(traces[0].num_events(), 3, "{name}: send, post, done");
        }
    }

    #[test]
    fn stats_account_for_all_traffic() {
        let out = run(4, |c| {
            // Everyone sends rank-many elements to rank 0.
            if c.rank() != 0 {
                c.send_f64(0, 0, &vec![0.0; c.rank()]);
            } else {
                for src in 1..4 {
                    c.recv_f64(src, 0);
                }
            }
        });
        // 1+2+3 = 6 elements = 48 bytes.
        assert_eq!(out.stats.total_bytes_sent(), 48);
        assert_eq!(out.stats.total_bytes_recv(), 48);
        assert_eq!(out.stats.ranks[0].bytes_recv, 48);
        assert_eq!(out.stats.ranks[3].bytes_sent, 24);
    }
}
