//! Per-rank communication counters — the Score-P substitute.
//!
//! Counters live in shared memory and are updated by the transport on every
//! send and receive, attributed to the *phase* the rank has currently
//! declared (see [`crate::Comm::set_phase`]) and to the collective kind in
//! progress (see [`CollKind`]). Phases give the per-routine breakdown used
//! to regenerate Table 1 of the paper; collective kinds give the
//! per-primitive breakdown a Score-P profile would show per MPI call site.
//!
//! The record path is lock-free: the active phase is an index into a
//! preallocated slab of atomic slots, so `record_send`/`record_recv` are a
//! handful of relaxed `fetch_add`s. Only `Counters::set_phase` (cold, a
//! few calls per factorization step) takes a lock — the rank's own — to
//! find the label's slot.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Maximum distinct phase labels per rank. The factorization schedules use
/// fewer than ten; the slab is preallocated so the record path can index it
/// without locking.
const MAX_PHASES: usize = 64;

/// The kind of communication primitive a byte was moved by.
///
/// Every send/receive is attributed to exactly one kind: plain
/// point-to-point traffic is [`CollKind::P2p`]; traffic inside a collective
/// is attributed to the *outermost* collective call (an `allreduce` that
/// internally broadcasts still counts as `Allreduce`, matching how a
/// profiler attributes to the user's call site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CollKind {
    /// Plain point-to-point message (outside any collective).
    P2p,
    /// Dissemination barrier.
    Barrier,
    /// Binomial-tree broadcast.
    Bcast,
    /// Binomial-tree reduction.
    Reduce,
    /// Recursive-doubling (or reduce+bcast) all-reduce.
    Allreduce,
    /// Fan-in gather.
    Gather,
    /// Fan-out scatter.
    Scatter,
    /// Ring all-gather.
    Allgather,
}

impl CollKind {
    /// Number of kinds (size of per-kind counter slabs).
    pub(crate) const COUNT: usize = 8;

    /// All kinds, in slab order.
    pub(crate) const ALL: [CollKind; CollKind::COUNT] = [
        CollKind::P2p,
        CollKind::Barrier,
        CollKind::Bcast,
        CollKind::Reduce,
        CollKind::Allreduce,
        CollKind::Gather,
        CollKind::Scatter,
        CollKind::Allgather,
    ];

    /// Slab index of this kind.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Kind at slab index `i`.
    ///
    /// # Panics
    /// If `i >= CollKind::COUNT`.
    pub(crate) fn from_index(i: usize) -> CollKind {
        CollKind::ALL[i]
    }

    /// Stable lowercase name (used in reports and exported profiles).
    pub fn name(self) -> &'static str {
        match self {
            CollKind::P2p => "p2p",
            CollKind::Barrier => "barrier",
            CollKind::Bcast => "bcast",
            CollKind::Reduce => "reduce",
            CollKind::Allreduce => "allreduce",
            CollKind::Gather => "gather",
            CollKind::Scatter => "scatter",
            CollKind::Allgather => "allgather",
        }
    }
}

/// One atomic (sent, received, msgs) cell of a per-kind slab.
#[derive(Default)]
struct CollCell {
    sent: AtomicU64,
    recv: AtomicU64,
    msgs_sent: AtomicU64,
    msgs_recv: AtomicU64,
}

/// Live counters for a single rank (shared, updated by the transport).
pub(crate) struct Counters {
    pub bytes_sent: AtomicU64,
    pub bytes_recv: AtomicU64,
    pub msgs_sent: AtomicU64,
    pub msgs_recv: AtomicU64,
    /// Slab index of the currently active phase (slot 0 = the unnamed "").
    current: AtomicUsize,
    /// Slab index of the collective kind in progress (0 = none → p2p).
    in_coll: AtomicUsize,
    /// This rank's phase labels, the callers' own `&'static str`s:
    /// `labels[i]` names slab slot `i`, up to [`MAX_PHASES`]. Locked only
    /// by [`Counters::set_phase`] and [`Counters::snapshot`] (cold paths).
    ///
    /// A label is never copied. A `String` per rank and world would be
    /// allocated on a rank thread and freed by the launching thread once
    /// the world is over; such a chunk stays in the launcher's malloc cache
    /// and pins the dead rank thread's arena wherever it happens to lie,
    /// which made whole benchmark runs differ by whether a one-rank world's
    /// tile stores were paged in again on every call (EXPERIMENTS.md,
    /// "Run-to-run steadiness"). A process-wide table of copies would be a
    /// lock a forked rank process could inherit held.
    labels: Mutex<Vec<&'static str>>,
    /// Per-phase bytes sent, indexed by label slot.
    phase_sent: [AtomicU64; MAX_PHASES],
    /// Per-phase bytes received, indexed by label slot.
    phase_recv: [AtomicU64; MAX_PHASES],
    /// Per-collective-kind traffic.
    coll: [CollCell; CollKind::COUNT],
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            bytes_sent: AtomicU64::new(0),
            bytes_recv: AtomicU64::new(0),
            msgs_sent: AtomicU64::new(0),
            msgs_recv: AtomicU64::new(0),
            current: AtomicUsize::new(0),
            in_coll: AtomicUsize::new(0),
            labels: Mutex::new({
                let mut labels = Vec::with_capacity(MAX_PHASES);
                labels.push("");
                labels
            }),
            phase_sent: [const { AtomicU64::new(0) }; MAX_PHASES],
            phase_recv: [const { AtomicU64::new(0) }; MAX_PHASES],
            coll: [const {
                CollCell {
                    sent: AtomicU64::new(0),
                    recv: AtomicU64::new(0),
                    msgs_sent: AtomicU64::new(0),
                    msgs_recv: AtomicU64::new(0),
                }
            }; CollKind::COUNT],
        }
    }
}

impl Counters {
    /// Lock-free record of a send: totals, active phase slot, active
    /// collective kind.
    pub(crate) fn record_send(&self, bytes: u64) {
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.phase_sent[self.current.load(Ordering::Relaxed)].fetch_add(bytes, Ordering::Relaxed);
        let cell = &self.coll[self.in_coll.load(Ordering::Relaxed)];
        cell.sent.fetch_add(bytes, Ordering::Relaxed);
        cell.msgs_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Lock-free record of a receive.
    pub(crate) fn record_recv(&self, bytes: u64) {
        self.bytes_recv.fetch_add(bytes, Ordering::Relaxed);
        self.msgs_recv.fetch_add(1, Ordering::Relaxed);
        self.phase_recv[self.current.load(Ordering::Relaxed)].fetch_add(bytes, Ordering::Relaxed);
        let cell = &self.coll[self.in_coll.load(Ordering::Relaxed)];
        cell.recv.fetch_add(bytes, Ordering::Relaxed);
        cell.msgs_recv.fetch_add(1, Ordering::Relaxed);
    }

    /// Switch the active phase, adding `name` to the label slab the first
    /// time. Cold path: called a few times per factorization step, never
    /// per message.
    ///
    /// # Panics
    /// If more than [`MAX_PHASES`] distinct labels are used.
    pub(crate) fn set_phase(&self, name: &'static str) {
        let mut labels = self.labels.lock();
        let idx = match labels.iter().position(|&l| l == name) {
            Some(i) => i,
            None => {
                assert!(
                    labels.len() < MAX_PHASES,
                    "too many distinct phase labels (max {MAX_PHASES})"
                );
                labels.push(name);
                labels.len() - 1
            }
        };
        self.current.store(idx, Ordering::Relaxed);
    }

    /// Mark entry into a collective of `kind`; returns the previous marker
    /// for [`Counters::exit_coll`]. Attribution goes to the *outermost*
    /// collective: nested entry keeps the outer kind.
    pub(crate) fn enter_coll(&self, kind: CollKind) -> usize {
        let prev = self.in_coll.load(Ordering::Relaxed);
        if prev == 0 {
            self.in_coll.store(kind.index(), Ordering::Relaxed);
        }
        prev
    }

    /// Restore the marker saved by [`Counters::enter_coll`].
    pub(crate) fn exit_coll(&self, prev: usize) {
        self.in_coll.store(prev, Ordering::Relaxed);
    }

    /// Is a collective currently in progress (and which)?
    pub(crate) fn current_coll(&self) -> CollKind {
        CollKind::from_index(self.in_coll.load(Ordering::Relaxed))
    }

    pub(crate) fn snapshot(&self) -> RankStats {
        let labels = self.labels.lock().clone();
        let mut per_phase = HashMap::new();
        for (i, label) in labels.iter().enumerate() {
            let s = self.phase_sent[i].load(Ordering::Relaxed);
            let r = self.phase_recv[i].load(Ordering::Relaxed);
            if s != 0 || r != 0 {
                per_phase.insert(label.to_string(), (s, r));
            }
        }
        let mut per_coll = Vec::new();
        for kind in CollKind::ALL {
            let cell = &self.coll[kind.index()];
            let counts = CollCounts {
                bytes_sent: cell.sent.load(Ordering::Relaxed),
                bytes_recv: cell.recv.load(Ordering::Relaxed),
                msgs_sent: cell.msgs_sent.load(Ordering::Relaxed),
                msgs_recv: cell.msgs_recv.load(Ordering::Relaxed),
            };
            if counts.bytes_sent != 0
                || counts.bytes_recv != 0
                || counts.msgs_sent != 0
                || counts.msgs_recv != 0
            {
                per_coll.push((kind, counts));
            }
        }
        RankStats {
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            msgs_recv: self.msgs_recv.load(Ordering::Relaxed),
            per_phase,
            per_coll,
        }
    }
}

/// Per-collective-kind traffic totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollCounts {
    /// Bytes sent inside this kind of primitive.
    pub bytes_sent: u64,
    /// Bytes received inside this kind of primitive.
    pub bytes_recv: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received.
    pub msgs_recv: u64,
}

/// Immutable snapshot of one rank's traffic after a world has finished.
#[derive(Debug, Clone, Default)]
pub struct RankStats {
    /// Total bytes this rank sent.
    pub bytes_sent: u64,
    /// Total bytes this rank received.
    pub bytes_recv: u64,
    /// Number of messages sent.
    pub msgs_sent: u64,
    /// Number of messages received.
    pub msgs_recv: u64,
    /// Per-phase (sent, received) byte breakdown.
    pub per_phase: HashMap<String, (u64, u64)>,
    /// Per-collective-kind breakdown (only kinds with traffic), in
    /// [`CollKind`] declaration order. The sent totals sum to `bytes_sent`, the
    /// received totals to `bytes_recv` — every byte has exactly one kind.
    pub per_coll: Vec<(CollKind, CollCounts)>,
}

impl RankStats {
    /// Total traffic through this rank (sent + received) — the quantity the
    /// paper plots as "communication volume per node".
    fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_recv
    }

    /// Traffic of a specific collective kind (zeros if unused).
    pub fn coll(&self, kind: CollKind) -> CollCounts {
        self.per_coll
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    }
}

/// Snapshot of all ranks' traffic for a finished world.
#[derive(Debug, Clone, Default)]
pub struct WorldStats {
    /// One entry per rank, indexed by rank id.
    pub ranks: Vec<RankStats>,
}

impl WorldStats {
    /// Sum of bytes sent over all ranks (equals total bytes received: every
    /// byte sent inside the world is received inside the world).
    pub fn total_bytes_sent(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_sent).sum()
    }

    /// Sum of bytes received over all ranks.
    pub fn total_bytes_recv(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_recv).sum()
    }

    /// Largest per-rank traffic (sent + received) — the load-bound rank.
    pub fn max_rank_bytes(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.total_bytes())
            .max()
            .unwrap_or(0)
    }

    /// Mean per-rank traffic (sent + received).
    pub fn avg_rank_bytes(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        self.ranks.iter().map(|r| r.total_bytes()).sum::<u64>() as f64 / self.ranks.len() as f64
    }

    /// Total messages sent across the world.
    pub fn total_msgs(&self) -> u64 {
        self.ranks.iter().map(|r| r.msgs_sent).sum()
    }

    /// Aggregate (sent, received) bytes per phase across all ranks.
    pub fn phase_totals(&self) -> HashMap<String, (u64, u64)> {
        let mut out: HashMap<String, (u64, u64)> = HashMap::new();
        for r in &self.ranks {
            for (k, (s, v)) in &r.per_phase {
                let e = out.entry(k.clone()).or_default();
                e.0 += s;
                e.1 += v;
            }
        }
        out
    }

    /// Aggregate per-collective-kind traffic across all ranks, in
    /// [`CollKind`] declaration order (only kinds with traffic).
    pub fn coll_totals(&self) -> Vec<(CollKind, CollCounts)> {
        let mut slab = [CollCounts::default(); CollKind::COUNT];
        for r in &self.ranks {
            for (kind, c) in &r.per_coll {
                let cell = &mut slab[kind.index()];
                cell.bytes_sent += c.bytes_sent;
                cell.bytes_recv += c.bytes_recv;
                cell.msgs_sent += c.msgs_sent;
                cell.msgs_recv += c.msgs_recv;
            }
        }
        CollKind::ALL
            .into_iter()
            .filter(|k| {
                let c = slab[k.index()];
                c.bytes_sent != 0 || c.bytes_recv != 0 || c.msgs_sent != 0 || c.msgs_recv != 0
            })
            .map(|k| (k, slab[k.index()]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = Counters::default();
        c.set_phase("a");
        c.record_send(100);
        c.record_recv(40);
        c.set_phase("b");
        c.record_send(1);
        let s = c.snapshot();
        assert_eq!(s.bytes_sent, 101);
        assert_eq!(s.bytes_recv, 40);
        assert_eq!(s.msgs_sent, 2);
        assert_eq!(s.msgs_recv, 1);
        assert_eq!(s.per_phase["a"], (100, 40));
        assert_eq!(s.per_phase["b"], (1, 0));
        assert_eq!(s.total_bytes(), 141);
    }

    #[test]
    fn a_label_is_stored_once_for_every_rank_and_world() {
        static LABEL: &str = "stored-once";
        let (a, b) = (Counters::default(), Counters::default());
        a.set_phase(LABEL);
        b.set_phase(LABEL);
        let (la, lb) = (a.labels.lock()[1], b.labels.lock()[1]);
        assert_eq!(la, "stored-once");
        assert!(std::ptr::eq(la, lb), "both ranks keep the caller's copy");
        // ... and naming phases never grows a rank's table.
        assert_eq!(a.labels.lock().capacity(), MAX_PHASES);
    }

    #[test]
    fn phase_interning_reuses_slots() {
        let c = Counters::default();
        c.set_phase("x");
        c.record_send(5);
        c.set_phase("y");
        c.record_send(7);
        c.set_phase("x");
        c.record_send(11);
        let s = c.snapshot();
        assert_eq!(s.per_phase["x"], (16, 0));
        assert_eq!(s.per_phase["y"], (7, 0));
        assert_eq!(s.per_phase.len(), 2);
    }

    #[test]
    fn collective_attribution_tracks_outermost_kind() {
        let c = Counters::default();
        c.record_send(8); // plain p2p
        let outer = c.enter_coll(CollKind::Allreduce);
        c.record_send(16);
        // Nested collective (allreduce falling back to bcast) keeps the
        // outer attribution.
        let inner = c.enter_coll(CollKind::Bcast);
        assert_eq!(c.current_coll(), CollKind::Allreduce);
        c.record_send(32);
        c.exit_coll(inner);
        c.exit_coll(outer);
        assert_eq!(c.current_coll(), CollKind::P2p);
        c.record_recv(4);

        let s = c.snapshot();
        assert_eq!(s.coll(CollKind::P2p).bytes_sent, 8);
        assert_eq!(s.coll(CollKind::Allreduce).bytes_sent, 48);
        assert_eq!(s.coll(CollKind::Bcast), CollCounts::default());
        assert_eq!(s.coll(CollKind::P2p).bytes_recv, 4);
        // Every byte has exactly one kind.
        let sum: u64 = s.per_coll.iter().map(|(_, c)| c.bytes_sent).sum();
        assert_eq!(sum, s.bytes_sent);
    }

    #[test]
    fn world_stats_aggregates() {
        let mk = |s, r| RankStats {
            bytes_sent: s,
            bytes_recv: r,
            ..Default::default()
        };
        let w = WorldStats {
            ranks: vec![mk(10, 20), mk(30, 40)],
        };
        assert_eq!(w.total_bytes_sent(), 40);
        assert_eq!(w.total_bytes_recv(), 60);
        assert_eq!(w.max_rank_bytes(), 70);
        assert!((w.avg_rank_bytes() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn coll_totals_aggregate_across_ranks() {
        let mk = |sent| RankStats {
            per_coll: vec![(
                CollKind::Bcast,
                CollCounts {
                    bytes_sent: sent,
                    ..Default::default()
                },
            )],
            ..Default::default()
        };
        let w = WorldStats {
            ranks: vec![mk(100), mk(50)],
        };
        let totals = w.coll_totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].0, CollKind::Bcast);
        assert_eq!(totals[0].1.bytes_sent, 150);
    }
}
