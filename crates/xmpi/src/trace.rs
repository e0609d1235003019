//! Opt-in event tracing for the simulated runtime.
//!
//! When a world is launched inside [`capture`] — `capture(cfg, || run(p, f))`
//! for a world of your own, or around any driver that launches one — every
//! rank records typed events — sends, receive post/complete pairs, collective enter/exit, phase
//! markers with cumulative flop counts — into a per-rank ring buffer with
//! monotonic nanosecond timestamps measured from a world-global epoch. The finished
//! [`WorldTrace`] is the input to the `xtrace` crate's timeline, wait-time,
//! critical-path, and simulated-replay analyses, playing the role Score-P
//! traces play for real MPI codes.
//!
//! Tracing is strictly opt-in: an untraced world carries no recorder at all
//! (`Option::None` in the shared state), so the transport hot path pays a
//! single branch and takes no additional locks.

use crate::stats::CollKind;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::time::Instant;

/// One recorded event. Timestamps `t` are nanoseconds since the world's
/// epoch (world construction). `peer`, where present, is a *world* rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The rank declared a new phase. `label` indexes
    /// [`WorldTrace::labels`]; `cum_flops` is the rank's cumulative local
    /// flop count at the marker (per-phase flops are first differences).
    Phase {
        /// Nanoseconds since the world epoch.
        t: u64,
        /// Index into [`WorldTrace::labels`].
        label: u32,
        /// Cumulative local flops at this marker.
        cum_flops: u64,
    },
    /// A message left this rank (buffered send: the sender does not block).
    Send {
        /// Nanoseconds since the world epoch.
        t: u64,
        /// Destination world rank.
        peer: usize,
        /// Communicator context id.
        ctx: u64,
        /// Message tag.
        tag: u64,
        /// Payload size.
        bytes: u64,
        /// Collective kind in progress ([`CollKind::P2p`] outside any).
        kind: CollKind,
    },
    /// The rank posted a receive and started waiting for it.
    RecvPost {
        /// Nanoseconds since the world epoch.
        t: u64,
        /// Source world rank.
        peer: usize,
        /// Communicator context id.
        ctx: u64,
        /// Message tag.
        tag: u64,
    },
    /// The matching message was delivered; `t - post.t` is wait time.
    RecvDone {
        /// Nanoseconds since the world epoch.
        t: u64,
        /// Source world rank.
        peer: usize,
        /// Communicator context id.
        ctx: u64,
        /// Message tag.
        tag: u64,
        /// Payload size.
        bytes: u64,
        /// Collective kind in progress.
        kind: CollKind,
    },
    /// Entered an (outermost) collective call.
    CollEnter {
        /// Nanoseconds since the world epoch.
        t: u64,
        /// Which collective.
        kind: CollKind,
    },
    /// Left the collective entered by the matching [`Event::CollEnter`].
    CollExit {
        /// Nanoseconds since the world epoch.
        t: u64,
        /// Which collective.
        kind: CollKind,
    },
    /// This rank crashed here (injected [`crate::hooks::CrashFate::Crash`]):
    /// the last event the dead rank ever records. Its presence marks the
    /// whole trace as a crashed world — byte-conservation and lost-request
    /// checks abstain, because in-flight messages and posted receives
    /// legitimately die with the world.
    RankCrash {
        /// Nanoseconds since the world epoch.
        t: u64,
    },
    /// The rank began reconstructing state after a crash (a fault-tolerant
    /// driver brackets its recovery traffic with this and
    /// [`Event::RecoveryEnd`] so replay models can attribute recovery cost
    /// separately from algorithmic communication).
    RecoveryBegin {
        /// Nanoseconds since the world epoch.
        t: u64,
    },
    /// Recovery finished on this rank; `bytes` is the recovery traffic the
    /// driver attributes to the bracket (its wire bytes are *also* counted
    /// by the normal transport accounting under the driver's recovery
    /// phase — this field lets an analysis cross-check the bracket against
    /// the phase counters).
    RecoveryEnd {
        /// Nanoseconds since the world epoch.
        t: u64,
        /// Recovery bytes moved by this rank inside the bracket.
        bytes: u64,
    },
}

impl Event {
    /// The event's timestamp (ns since the world epoch).
    pub fn t(&self) -> u64 {
        match *self {
            Event::Phase { t, .. }
            | Event::Send { t, .. }
            | Event::RecvPost { t, .. }
            | Event::RecvDone { t, .. }
            | Event::CollEnter { t, .. }
            | Event::CollExit { t, .. }
            | Event::RankCrash { t }
            | Event::RecoveryBegin { t }
            | Event::RecoveryEnd { t, .. } => t,
        }
    }
}

/// Recorder configuration.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Ring-buffer capacity per rank (events beyond it evict the oldest and
    /// bump [`RankTrace::dropped`]).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        // 1Mi events ≈ 48 MiB per rank — ample for every workload in this
        // repository while still bounding a runaway trace.
        TraceConfig { capacity: 1 << 20 }
    }
}

/// Bounded per-rank event buffer. Oldest events are evicted once full so a
/// long run degrades to a suffix trace instead of unbounded memory.
struct Ring {
    events: Vec<Event>,
    /// Index of the logically-first event once the buffer has wrapped.
    head: usize,
    dropped: u64,
    cap: usize,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            events: Vec::new(),
            head: 0,
            dropped: 0,
            cap: cap.max(1),
        }
    }

    fn push(&mut self, e: Event) {
        if self.events.len() < self.cap {
            self.events.push(e);
        } else {
            self.events[self.head] = e;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    fn into_rank_trace(mut self) -> RankTrace {
        self.events.rotate_left(self.head);
        RankTrace {
            events: self.events,
            dropped: self.dropped,
        }
    }
}

/// The live recorder, shared by all ranks of a traced world.
pub(crate) struct Recorder {
    epoch: Instant,
    rings: Vec<Mutex<Ring>>,
    /// World-global phase-label interner (phase labels are identical across
    /// ranks in SPMD programs, so one table serves the whole world).
    labels: Mutex<Vec<String>>,
}

impl Recorder {
    pub(crate) fn new(p: usize, cfg: &TraceConfig) -> Self {
        Recorder {
            epoch: Instant::now(),
            rings: (0..p)
                .map(|_| Mutex::new(Ring::new(cfg.capacity)))
                .collect(),
            labels: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the world epoch.
    #[inline]
    pub(crate) fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Append an event to `world_rank`'s ring. Rings are per-rank mutexes,
    /// uncontended because a rank only ever writes its own ring.
    pub(crate) fn push(&self, world_rank: usize, e: Event) {
        self.rings[world_rank].lock().push(e);
    }

    /// Intern a phase label, returning its stable index.
    pub(crate) fn intern(&self, name: &str) -> u32 {
        let mut labels = self.labels.lock();
        match labels.iter().position(|l| l == name) {
            Some(i) => i as u32,
            None => {
                labels.push(name.to_string());
                (labels.len() - 1) as u32
            }
        }
    }

    /// Tear down into the immutable result (call after all ranks joined).
    pub(crate) fn finish(self) -> WorldTrace {
        WorldTrace {
            labels: self.labels.into_inner(),
            ranks: self
                .rings
                .into_iter()
                .map(|r| r.into_inner().into_rank_trace())
                .collect(),
        }
    }
}

/// One rank's recorded timeline.
#[derive(Debug, Clone, Default)]
pub struct RankTrace {
    /// Events in ring order (oldest surviving first), timestamps
    /// non-decreasing.
    pub events: Vec<Event>,
    /// Events evicted because the ring filled (0 = complete trace).
    pub dropped: u64,
}

/// A complete trace of a finished world.
#[derive(Debug, Clone, Default)]
pub struct WorldTrace {
    /// Interned phase labels; [`Event::Phase::label`] indexes this table.
    pub labels: Vec<String>,
    /// Per-rank event streams, indexed by world rank.
    pub ranks: Vec<RankTrace>,
}

impl WorldTrace {
    /// Resolve a phase-label index.
    pub fn label(&self, id: u32) -> &str {
        self.labels
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// Timestamp of the last event anywhere (the trace's makespan in ns).
    pub fn end_time(&self) -> u64 {
        self.ranks
            .iter()
            .flat_map(|r| r.events.iter().map(Event::t))
            .max()
            .unwrap_or(0)
    }

    /// Total events recorded (surviving in rings).
    pub fn num_events(&self) -> usize {
        self.ranks.iter().map(|r| r.events.len()).sum()
    }

    /// True if any rank's ring evicted events.
    pub fn truncated(&self) -> bool {
        self.ranks.iter().any(|r| r.dropped > 0)
    }
}

// Thread-local capture slot: `capture` arms it, `crate::run` (called on the
// same thread, e.g. deep inside a factorization routine) checks it and, when
// armed, records the world and stashes the finished trace here.
thread_local! {
    static CAPTURE: RefCell<Option<(TraceConfig, Vec<WorldTrace>)>> = const { RefCell::new(None) };
}

/// Trace every world launched by `f` on this thread, without changing `f`'s
/// signature — the way to trace an existing driver like
/// `factor::conflux_lu` that calls [`crate::run`] internally.
///
/// Returns `f`'s result plus one [`WorldTrace`] per world launched (most
/// drivers launch exactly one; e.g. the ScaLAPACK staging driver launches
/// two).
///
/// # Panics
/// If capture is already armed on this thread (nested captures are
/// ambiguous).
pub fn capture<R>(cfg: TraceConfig, f: impl FnOnce() -> R) -> (R, Vec<WorldTrace>) {
    CAPTURE.with(|slot| {
        let mut s = slot.borrow_mut();
        assert!(
            s.is_none(),
            "xmpi::trace::capture: already capturing on this thread"
        );
        *s = Some((cfg, Vec::new()));
    });
    // Disarm even if `f` panics so the thread is reusable.
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            CAPTURE.with(|slot| slot.borrow_mut().take());
        }
    }
    let disarm = Disarm;
    let result = f();
    let traces = CAPTURE
        .with(|slot| slot.borrow_mut().take())
        .map(|(_, traces)| traces)
        .unwrap_or_default();
    std::mem::forget(disarm);
    (result, traces)
}

/// Is capture armed on this thread? (Checked by [`crate::run`].)
pub(crate) fn capture_config() -> Option<TraceConfig> {
    CAPTURE.with(|slot| slot.borrow().as_ref().map(|(cfg, _)| cfg.clone()))
}

/// Stash a finished world's trace into the armed capture slot.
pub(crate) fn capture_stash(trace: WorldTrace) {
    CAPTURE.with(|slot| {
        if let Some((_, traces)) = slot.borrow_mut().as_mut() {
            traces.push(trace);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_events() {
        let mut r = Ring::new(3);
        for t in 0..5u64 {
            r.push(Event::CollEnter {
                t,
                kind: CollKind::Barrier,
            });
        }
        let rt = r.into_rank_trace();
        assert_eq!(rt.dropped, 2);
        let ts: Vec<u64> = rt.events.iter().map(Event::t).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn interner_is_stable() {
        let rec = Recorder::new(1, &TraceConfig::default());
        assert_eq!(rec.intern("a"), 0);
        assert_eq!(rec.intern("b"), 1);
        assert_eq!(rec.intern("a"), 0);
        let tr = rec.finish();
        assert_eq!(tr.label(1), "b");
        assert_eq!(tr.label(99), "?");
    }

    #[test]
    fn capture_disarms_after_use() {
        let ((), traces) = capture(TraceConfig::default(), || {});
        assert!(traces.is_empty());
        assert!(capture_config().is_none());
    }
}
