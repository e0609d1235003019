//! The seeded schedule perturbator: an [`xmpi::SchedHooks`] implementation
//! whose every decision is a pure function of `(seed, decision identity)`.
//!
//! # Determinism model
//!
//! A decision's identity is its *channel coordinates plus a per-channel
//! sequence number*. Sends on a channel `(src, dst, ctx, tag)` are issued by
//! the `src` rank's thread in program order, so the k-th send on a channel
//! is the same logical message in every run — its fate (deliver / delay /
//! drop-and-retransmit) therefore replays exactly under a fixed seed,
//! regardless of how the OS schedules the other threads. The same holds for
//! receive stalls (keyed by the receiver's per-channel receive sequence)
//! and phase stalls (keyed by the rank's count of phase markers).
//!
//! Every stall is *timing noise only*: no observable result (factor bits,
//! per-rank byte counts, event causality) can depend on it, because message
//! payloads and their per-channel order are already fixed. The conformance
//! suite's bitwise checks rest on the fates; the stalls just widen the
//! explored interleaving space.

use crate::rng::{hash, unit_f64};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;
use xmpi::launch::SharedFlag;
use xmpi::{CrashFate, SchedHooks, SendFate};

/// Decision-domain tags, hashed into every decision so the same sequence
/// number in different domains draws independent randomness. Crash and
/// corruption plans live in domains of their own, so arming them leaves
/// every existing seeded decision stream (fates, delays, stalls) bitwise
/// unchanged.
mod domain {
    pub(super) const SEND_FATE: u64 = 1;
    pub(super) const SEND_DELAY: u64 = 2;
    pub(super) const RECV: u64 = 3;
    pub(super) const PHASE: u64 = 5;
    pub(super) const CRASH: u64 = 6;
    pub(super) const CORRUPT: u64 = 7;
}

/// Injection rates and magnitudes for a [`Perturbator`].
///
/// Probabilities are per decision point; delays are drawn uniformly in
/// `1..=max_*_us` microseconds. The defaults ([`PerturbConfig::new`]) are
/// the `light` preset; [`PerturbConfig::aggressive`] is what the stress
/// suite runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbConfig {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Probability a message's visibility is delayed in flight.
    pub delay_prob: f64,
    /// Maximum in-flight delay (µs).
    pub max_delay_us: u64,
    /// Probability a message's first transmission is dropped (the simulated
    /// retransmission surfaces it after [`PerturbConfig::retransmit_us`]).
    pub drop_prob: f64,
    /// Simulated retransmission timeout (µs) for dropped messages.
    pub retransmit_us: u64,
    /// Probability of a stall after a blocking receive matches.
    pub recv_delay_prob: f64,
    /// Maximum receive stall (µs).
    pub max_stall_us: u64,
    /// Probability a rank is held back as it enters a phase.
    pub phase_stall_prob: f64,
    /// Maximum phase-boundary stall (µs).
    pub max_phase_stall_us: u64,
}

impl PerturbConfig {
    /// The `light` preset: sparse, small perturbations — enough to shake
    /// loose ordering assumptions without slowing a test run noticeably.
    pub fn new(seed: u64) -> Self {
        PerturbConfig {
            seed,
            delay_prob: 0.05,
            max_delay_us: 50,
            drop_prob: 0.01,
            retransmit_us: 100,
            recv_delay_prob: 0.02,
            max_stall_us: 20,
            phase_stall_prob: 0.05,
            max_phase_stall_us: 50,
        }
    }

    /// The `aggressive` preset: every fifth message delayed, one in twenty
    /// dropped, frequent receive stalls and phase skews. Used by the
    /// stress bin and the CI soak job.
    pub fn aggressive(seed: u64) -> Self {
        PerturbConfig {
            seed,
            delay_prob: 0.20,
            max_delay_us: 200,
            drop_prob: 0.05,
            retransmit_us: 400,
            recv_delay_prob: 0.10,
            max_stall_us: 100,
            phase_stall_prob: 0.25,
            max_phase_stall_us: 300,
        }
    }
}

/// A deterministic one-shot rank kill: `victim` dies at its
/// `after_sends`-th send attempt (program order on the victim's thread, so
/// the same logical instant in every run of the same program).
///
/// The plan fires **once per perturbator instance**: a fault-tolerant driver
/// reuses the instance across the crashed world and its restart, and the
/// restarted world must run fault-free to completion. The latch is a
/// [`SharedFlag`], so this holds when the victim is a forked rank process
/// too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// World rank to kill.
    pub victim: usize,
    /// Zero-based index of the victim's send attempt at which it dies.
    pub after_sends: u64,
}

impl CrashPlan {
    /// Seed-derived plan: a non-root victim (rank 0 usually owns staging and
    /// assembly, so killing it tests the driver, not the recovery protocol)
    /// killed at a send drawn from `0..max_after_sends`.
    pub fn from_seed(seed: u64, p: usize, max_after_sends: u64) -> CrashPlan {
        assert!(p > 1, "crash plan needs a non-root rank to kill");
        CrashPlan {
            victim: 1 + (hash(&[seed, domain::CRASH, 0]) as usize) % (p - 1),
            after_sends: hash(&[seed, domain::CRASH, 1]) % max_after_sends.max(1),
        }
    }
}

/// A deterministic one-shot in-flight corruption: the `on_send`-th *element*
/// payload of at least `min_len` elements sent by `victim` has one element
/// (seed-drawn index) perturbed by `delta`. `min_len` is how a test targets
/// only the big checksum-protected panel/tile messages and leaves small
/// control traffic alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptPlan {
    /// World rank whose outgoing payload is corrupted.
    pub victim: usize,
    /// Zero-based index among the victim's qualifying sends.
    pub on_send: u64,
    /// Only payloads of at least this many elements qualify.
    pub min_len: usize,
    /// Value added to the chosen element.
    pub delta: f64,
}

impl CorruptPlan {
    /// Seed-derived plan against payloads of at least `min_len` elements.
    pub fn from_seed(seed: u64, p: usize, min_len: usize, max_on_send: u64) -> CorruptPlan {
        assert!(p > 1, "corrupt plan needs a sending peer");
        CorruptPlan {
            victim: 1 + (hash(&[seed, domain::CORRUPT, 0]) as usize) % (p - 1),
            on_send: hash(&[seed, domain::CORRUPT, 1]) % max_on_send.max(1),
            min_len,
            delta: 1.0 + unit_f64(hash(&[seed, domain::CORRUPT, 2])),
        }
    }
}

/// Per-channel monotone sequence counters (the deterministic part of a
/// decision's identity).
#[derive(Default)]
struct SeqTable<K: std::hash::Hash + Eq + Copy> {
    map: Mutex<HashMap<K, u64>>,
}

impl<K: std::hash::Hash + Eq + Copy> SeqTable<K> {
    /// Next sequence number for `key` (0, 1, 2, … per key).
    fn next(&self, key: K) -> u64 {
        let mut map = self.map.lock().expect("seq table poisoned");
        let ctr = map.entry(key).or_insert(0);
        let seq = *ctr;
        *ctr += 1;
        seq
    }
}

/// The seeded perturbator. Install with [`crate::run_perturbed`] (or
/// [`xmpi::with_hooks`] directly); one instance per world — its
/// sequence counters are part of the replay identity, so reusing an
/// instance across worlds shifts every later decision.
pub struct Perturbator {
    cfg: PerturbConfig,
    send_seq: SeqTable<(usize, usize, u64, u64)>,
    recv_seq: SeqTable<(usize, usize, u64, u64)>,
    phase_seq: SeqTable<usize>,
    /// Armed crash plan plus its fired latch (one shot per instance).
    crash: Option<(CrashPlan, SharedFlag)>,
    /// Victim's program-ordered send-attempt counter for the crash plan.
    crash_seq: SeqTable<usize>,
    /// Armed corruption plan plus its fired latch.
    corrupt: Option<(CorruptPlan, SharedFlag)>,
    /// Victim's counter of qualifying element sends for the corruption plan.
    corrupt_seq: SeqTable<usize>,
}

impl Perturbator {
    /// A perturbator drawing every decision from `cfg`.
    pub fn new(cfg: PerturbConfig) -> Self {
        Perturbator {
            cfg,
            send_seq: SeqTable::default(),
            recv_seq: SeqTable::default(),
            phase_seq: SeqTable::default(),
            crash: None,
            crash_seq: SeqTable::default(),
            corrupt: None,
            corrupt_seq: SeqTable::default(),
        }
    }

    /// Arm a one-shot [`CrashPlan`]. Crash decisions draw from their own
    /// domain, so arming one leaves the seeded delay/drop/stall streams
    /// untouched — a crash run differs from its fault-free twin *only* by
    /// the kill.
    pub fn with_crash(mut self, plan: CrashPlan) -> Self {
        self.crash = Some((plan, SharedFlag::new()));
        self
    }

    /// Arm a one-shot [`CorruptPlan`] (same isolation as
    /// [`Perturbator::with_crash`]).
    pub fn with_corrupt(mut self, plan: CorruptPlan) -> Self {
        self.corrupt = Some((plan, SharedFlag::new()));
        self
    }

    /// Has the armed crash plan fired yet?
    pub fn crash_fired(&self) -> bool {
        self.crash.as_ref().is_some_and(|(_, fired)| fired.is_set())
    }

    /// Has the armed corruption plan fired yet?
    pub fn corrupt_fired(&self) -> bool {
        self.corrupt
            .as_ref()
            .is_some_and(|(_, fired)| fired.is_set())
    }

    /// The config this perturbator draws from.
    pub fn config(&self) -> &PerturbConfig {
        &self.cfg
    }

    /// Uniform draw in `[0,1)` for a decision identity.
    fn roll(&self, parts: &[u64]) -> f64 {
        let mut key = Vec::with_capacity(parts.len() + 1);
        key.push(self.cfg.seed);
        key.extend_from_slice(parts);
        unit_f64(hash(&key))
    }

    /// Uniform delay in `1..=max_us` microseconds for a decision identity.
    fn draw_us(&self, parts: &[u64], max_us: u64) -> Duration {
        let mut key = Vec::with_capacity(parts.len() + 1);
        key.push(self.cfg.seed);
        key.extend_from_slice(parts);
        Duration::from_micros(1 + hash(&key) % max_us.max(1))
    }
}

impl SchedHooks for Perturbator {
    fn send_fate(&self, src: usize, dst: usize, ctx: u64, tag: u64, _bytes: u64) -> SendFate {
        let seq = self.send_seq.next((src, dst, ctx, tag));
        let id = [src as u64, dst as u64, ctx, tag, seq];
        let mut fate = [domain::SEND_FATE].to_vec();
        fate.extend_from_slice(&id);
        let u = self.roll(&fate);
        if u < self.cfg.drop_prob {
            return SendFate::Drop {
                retransmit_after: Duration::from_micros(self.cfg.retransmit_us.max(1)),
            };
        }
        if u < self.cfg.drop_prob + self.cfg.delay_prob {
            let mut delay = [domain::SEND_DELAY].to_vec();
            delay.extend_from_slice(&id);
            return SendFate::Delay(self.draw_us(&delay, self.cfg.max_delay_us));
        }
        SendFate::Deliver
    }

    fn recv_delay(&self, rank: usize, src: usize, ctx: u64, tag: u64) -> Option<Duration> {
        let seq = self.recv_seq.next((rank, src, ctx, tag));
        let id = [domain::RECV, rank as u64, src as u64, ctx, tag, seq];
        (self.roll(&id) < self.cfg.recv_delay_prob)
            .then(|| self.draw_us(&id, self.cfg.max_stall_us))
    }

    fn phase_stall(&self, rank: usize, name: &str) -> Option<Duration> {
        let seq = self.phase_seq.next(rank);
        let name_h = name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
        let id = [domain::PHASE, rank as u64, name_h, seq];
        (self.roll(&id) < self.cfg.phase_stall_prob)
            .then(|| self.draw_us(&id, self.cfg.max_phase_stall_us))
    }

    fn crash_fate(&self, src: usize, _dst: usize, _ctx: u64, _tag: u64) -> CrashFate {
        let Some((plan, fired)) = self.crash.as_ref() else {
            return CrashFate::Survive;
        };
        if src != plan.victim {
            return CrashFate::Survive;
        }
        // The counter keeps advancing after the kill so a restarted world's
        // send indices stay well-defined; the latch makes the plan one-shot.
        let seq = self.crash_seq.next(src);
        if seq == plan.after_sends && fired.fire() {
            return CrashFate::Crash;
        }
        CrashFate::Survive
    }

    fn corrupt_send(
        &self,
        src: usize,
        dst: usize,
        ctx: u64,
        tag: u64,
        len: usize,
    ) -> Option<(usize, f64)> {
        let (plan, fired) = self.corrupt.as_ref()?;
        if src != plan.victim || len < plan.min_len {
            return None;
        }
        let seq = self.corrupt_seq.next(src);
        if seq != plan.on_send || !fired.fire() {
            return None;
        }
        let idx = hash(&[
            self.cfg.seed,
            domain::CORRUPT,
            src as u64,
            dst as u64,
            ctx,
            tag,
        ]) as usize
            % len;
        Some((idx, plan.delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replay the same scripted call sequence twice: identical fates.
    #[test]
    fn fates_replay_exactly_under_a_seed() {
        let script = |p: &Perturbator| -> Vec<SendFate> {
            let mut out = Vec::new();
            for msg in 0..200 {
                out.push(p.send_fate(msg % 4, (msg + 1) % 4, 1, msg as u64 % 3, 64));
            }
            out
        };
        let a = script(&Perturbator::new(PerturbConfig::aggressive(7)));
        let b = script(&Perturbator::new(PerturbConfig::aggressive(7)));
        assert_eq!(a, b);
    }

    /// Distinct seeds must explore distinct fault patterns.
    #[test]
    fn seeds_differentiate_fault_patterns() {
        let fates = |seed: u64| -> Vec<SendFate> {
            let p = Perturbator::new(PerturbConfig::aggressive(seed));
            (0..200).map(|i| p.send_fate(0, 1, 1, 0, i)).collect()
        };
        assert_ne!(fates(1), fates(2));
    }

    /// Per-channel sequences are independent: interleaving channels does
    /// not change either channel's decision stream.
    #[test]
    fn channels_draw_independent_streams() {
        let p = Perturbator::new(PerturbConfig::aggressive(11));
        let mut chan_a = Vec::new();
        let mut chan_b = Vec::new();
        for _ in 0..50 {
            chan_a.push(p.send_fate(0, 1, 1, 0, 8));
            chan_b.push(p.send_fate(2, 3, 1, 0, 8));
        }
        // Same stream when channel B never runs.
        let q = Perturbator::new(PerturbConfig::aggressive(11));
        let solo_a: Vec<_> = (0..50).map(|_| q.send_fate(0, 1, 1, 0, 8)).collect();
        assert_eq!(chan_a, solo_a);
        assert_ne!(chan_a, chan_b);
    }

    /// Rates actually bite: the aggressive preset must produce all three
    /// fates over a few hundred messages.
    #[test]
    fn aggressive_preset_produces_all_fates() {
        let p = Perturbator::new(PerturbConfig::aggressive(3));
        let fates: Vec<_> = (0..500).map(|i| p.send_fate(0, 1, 1, i, 8)).collect();
        assert!(fates.iter().any(|f| matches!(f, SendFate::Deliver)));
        assert!(fates.iter().any(|f| matches!(f, SendFate::Delay(_))));
        assert!(fates.iter().any(|f| matches!(f, SendFate::Drop { .. })));
    }

    #[test]
    fn crash_plan_fires_exactly_once_at_the_planned_send() {
        let p = Perturbator::new(PerturbConfig::new(9)).with_crash(CrashPlan {
            victim: 2,
            after_sends: 3,
        });
        assert!(!p.crash_fired());
        // Other ranks never crash and never advance the victim's counter.
        for i in 0..10 {
            assert_eq!(p.crash_fate(0, 1, 0, i), CrashFate::Survive);
        }
        for expect_crash in [false, false, false, true, false, false] {
            let fate = p.crash_fate(2, 0, 0, 0);
            assert_eq!(fate == CrashFate::Crash, expect_crash);
        }
        assert!(p.crash_fired());
        // A "restarted world" reusing the instance sees only survivals.
        for _ in 0..20 {
            assert_eq!(p.crash_fate(2, 0, 0, 0), CrashFate::Survive);
        }
    }

    #[test]
    fn corrupt_plan_targets_one_qualifying_send() {
        let p = Perturbator::new(PerturbConfig::new(4)).with_corrupt(CorruptPlan {
            victim: 1,
            on_send: 1,
            min_len: 100,
            delta: 2.5,
        });
        // Small payloads never qualify and never advance the counter.
        assert!(p.corrupt_send(1, 0, 0, 0, 8).is_none());
        assert!(p.corrupt_send(1, 0, 0, 0, 99).is_none());
        // Qualifying send 0: not yet.
        assert!(p.corrupt_send(1, 0, 0, 0, 100).is_none());
        // Qualifying send 1: fires, with an in-range index and the delta.
        let (idx, delta) = p.corrupt_send(1, 0, 0, 0, 128).expect("plan fires");
        assert!(idx < 128);
        assert_eq!(delta, 2.5);
        assert!(p.corrupt_fired());
        // One-shot thereafter.
        for _ in 0..10 {
            assert!(p.corrupt_send(1, 0, 0, 0, 128).is_none());
        }
    }

    #[test]
    fn seed_derived_plans_replay_and_avoid_root() {
        for seed in 0..50 {
            let a = CrashPlan::from_seed(seed, 8, 200);
            let b = CrashPlan::from_seed(seed, 8, 200);
            assert_eq!(a, b);
            assert!(a.victim >= 1 && a.victim < 8);
            assert!(a.after_sends < 200);
            let c = CorruptPlan::from_seed(seed, 8, 64, 40);
            assert!(c.victim >= 1 && c.victim < 8);
            assert!(c.delta >= 1.0 && c.delta < 2.0);
        }
    }

    #[test]
    fn arming_plans_leaves_seeded_streams_unchanged() {
        // The golden-volume suite depends on this: a crash-armed perturbator
        // must draw identical send fates to a plain one under the same seed.
        let plain = Perturbator::new(PerturbConfig::aggressive(13));
        let armed = Perturbator::new(PerturbConfig::aggressive(13)).with_crash(CrashPlan {
            victim: 3,
            after_sends: 1_000_000, // never actually fires
        });
        for i in 0..300 {
            assert_eq!(
                plain.send_fate(3, 1, 1, i % 5, 64),
                armed.send_fate(3, 1, 1, i % 5, 64)
            );
        }
    }

    #[test]
    fn zero_rate_config_is_transparent() {
        let mut cfg = PerturbConfig::new(5);
        cfg.delay_prob = 0.0;
        cfg.drop_prob = 0.0;
        cfg.recv_delay_prob = 0.0;
        cfg.phase_stall_prob = 0.0;
        let p = Perturbator::new(cfg);
        for i in 0..100 {
            assert_eq!(p.send_fate(0, 1, 1, i, 8), SendFate::Deliver);
            assert!(p.recv_delay(1, 0, 1, i).is_none());
            assert!(p.phase_stall(0, "x").is_none());
        }
    }
}
