//! The seeded perturbator: an [`xmpi::SchedHooks`] implementation whose
//! every decision — schedule, crash, corruption and wire fault — is a pure
//! function of `(seed, decision identity)`.
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
//! and phase stalls (keyed by the rank's count of phase markers). A wire
//! fault is keyed by its `(src, dst)` pair plus a per-pair frame sequence
//! number: the send path consults it once per non-self-send in program
//! order on the sender's thread, so the k-th frame from `src` to `dst` is
//! the same logical message on every run *and on every backend* — which is
//! what lets the chaos conformance suite run one seed against the
//! in-process mirror and the real socket mesh and compare outcomes.
//!
//! Every stall is *timing noise only*: no observable result (factor bits,
//! per-rank byte counts, event causality) can depend on it, because message
//! payloads and their per-channel order are already fixed. The conformance
//! suite's bitwise checks rest on the fates; the stalls just widen the
//! explored interleaving space. Torn writes are timing noise too: the
//! receiver reassembles a split frame.
//!
//! The fatal plans ([`CrashPlan`], [`ResetPlan`], [`HangPlan`]) and the
//! [`CorruptPlan`] are **one-shot per instance**: a fault-tolerant driver
//! reuses the instance across the broken world and its checkpoint-restart,
//! and the restarted world must run fault-free to completion. Their
//! latches are [`SharedFlag`]s, so a plan that fires in a forked rank
//! process reads as fired in the launcher and in every later world.

use crate::rng::{hash, unit_f64};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;
use xmpi::launch::SharedFlag;
use xmpi::{CrashFate, SchedHooks, SendFate, WireFault};

/// Decision-domain tags, hashed into every decision so the same sequence
/// number in different domains draws independent randomness. Every plan
/// lives in a domain of its own, so arming one leaves every other seeded
/// decision stream (fates, delays, stalls, torn writes) bitwise unchanged.
mod domain {
    pub(super) const SEND_FATE: u64 = 1;
    pub(super) const SEND_DELAY: u64 = 2;
    pub(super) const RECV: u64 = 3;
    pub(super) const PHASE: u64 = 5;
    pub(super) const CRASH: u64 = 6;
    pub(super) const CORRUPT: u64 = 7;
    pub(super) const WRITE: u64 = 8;
    pub(super) const RESET: u64 = 9;
    pub(super) const HANG: u64 = 10;
    pub(super) const MODE: u64 = 12;
}

/// Injection rates and magnitudes for a [`Perturbator`].
///
/// Probabilities are per decision point; delays are drawn uniformly in
/// `1..=max_*_us` microseconds. The defaults ([`PerturbConfig::new`]) are
/// the `light` preset; [`PerturbConfig::aggressive`] is what the stress
/// suite runs; [`PerturbConfig::chaos`] tears wire frames and leaves the
/// schedule alone.
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
    /// Probability an outbound frame is written in two pieces around a
    /// stall ([`WireFault::Torn`]).
    pub torn_prob: f64,
    /// Maximum mid-frame stall (µs) of a torn write.
    pub max_torn_stall_us: u64,
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
            torn_prob: 0.0,
            max_torn_stall_us: 0,
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
            torn_prob: 0.0,
            max_torn_stall_us: 0,
        }
    }

    /// The `chaos` preset: no schedule perturbation, roughly one frame in
    /// seven torn, mid-frame stalls up to 200 µs — enough to exercise every
    /// partial-read path without slowing a test run noticeably.
    pub fn chaos(seed: u64) -> Self {
        PerturbConfig {
            seed,
            delay_prob: 0.0,
            max_delay_us: 0,
            drop_prob: 0.0,
            retransmit_us: 0,
            recv_delay_prob: 0.0,
            max_stall_us: 0,
            phase_stall_prob: 0.0,
            max_phase_stall_us: 0,
            torn_prob: 0.15,
            max_torn_stall_us: 200,
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

/// A deterministic one-shot mid-frame connection reset: the `on_frame`-th
/// frame from `src` to `dst` is cut after a seed-drawn prefix and the
/// stream's write half shut down. The socket peer observes a mid-frame
/// EOF and classifies `src` dead; the in-process mirror kills `src` at
/// the same program-ordered send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResetPlan {
    /// Sending world rank (the rank that ends up dead).
    pub src: usize,
    /// Destination whose stream is reset.
    pub dst: usize,
    /// Zero-based index among `src→dst` frames at which the reset fires.
    pub on_frame: u64,
}

impl ResetPlan {
    /// Seed-derived plan: a non-root `src` (killing rank 0 tests the
    /// driver, not the recovery protocol), any other rank as `dst`, reset
    /// within the first few frames of the pair.
    pub fn from_seed(seed: u64, p: usize) -> ResetPlan {
        assert!(p > 1, "reset plan needs a peer pair");
        let src = 1 + (hash(&[seed, domain::RESET, 0]) as usize) % (p - 1);
        let d = (hash(&[seed, domain::RESET, 1]) as usize) % (p - 1);
        let dst = if d >= src { d + 1 } else { d };
        ResetPlan {
            src,
            dst,
            on_frame: hash(&[seed, domain::RESET, 2]) % 6,
        }
    }
}

/// A deterministic one-shot silent hang: after its `after_frames`-th
/// outbound frame, `victim` transmits nothing — data, `Fin`s, heartbeats —
/// while its process stays alive. Only the heartbeat failure detector can
/// classify this; the in-process mirror kills `victim` at the same
/// program-ordered send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HangPlan {
    /// World rank that goes silent.
    pub victim: usize,
    /// Zero-based index among the victim's outbound frames at which it
    /// hangs.
    pub after_frames: u64,
}

impl HangPlan {
    /// Seed-derived plan: a non-root victim hanging within its first few
    /// frames.
    pub fn from_seed(seed: u64, p: usize) -> HangPlan {
        assert!(p > 1, "hang plan needs a non-root victim");
        HangPlan {
            victim: 1 + (hash(&[seed, domain::HANG, 0]) as usize) % (p - 1),
            after_frames: hash(&[seed, domain::HANG, 1]) % 6,
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

/// The seeded perturbator. Install with [`crate::run_perturbed`], or build
/// one and arm it with [`xmpi::with_hooks`]; one instance
/// per world — its sequence counters are part of the replay identity, so
/// reusing an instance across worlds shifts every later decision. The
/// exception is a fault-tolerant driver's restart sequence, which must
/// share the instance so each one-shot plan fires once across it.
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
    /// Per-`(src, dst)` outbound-frame counter for wire faults.
    frame_seq: SeqTable<(usize, usize)>,
    /// Armed reset plan plus its fired latch.
    reset: Option<(ResetPlan, SharedFlag)>,
    /// Armed hang plan plus its fired latch.
    hang: Option<(HangPlan, SharedFlag)>,
    /// Victim's counter of *all* outbound frames for the hang plan.
    hang_seq: SeqTable<usize>,
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
            frame_seq: SeqTable::default(),
            reset: None,
            hang: None,
            hang_seq: SeqTable::default(),
        }
    }

    /// The chaos seed-matrix constructor: the [`PerturbConfig::chaos`]
    /// preset, plus — as the seed draws — one [`ResetPlan`], one
    /// [`HangPlan`], or neither, so a sweep over `XHARNESS_SEEDS` covers
    /// every wire-fault family and a failing seed replays its exact fault
    /// pattern. Two of the four draws are torn-only, so that every reset
    /// and hang seed keeps the plan it had when the fourth drew a
    /// connection fault.
    pub fn chaos_from_seed(seed: u64, p: usize) -> Self {
        let chaos = Perturbator::new(PerturbConfig::chaos(seed));
        match hash(&[seed, domain::MODE]) % 4 {
            1 => chaos.with_reset(ResetPlan::from_seed(seed, p)),
            2 => chaos.with_hang(HangPlan::from_seed(seed, p)),
            _ => chaos,
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

    /// Arm a one-shot [`ResetPlan`].
    pub fn with_reset(mut self, plan: ResetPlan) -> Self {
        self.reset = Some((plan, SharedFlag::new()));
        self
    }

    /// Arm a one-shot [`HangPlan`].
    pub fn with_hang(mut self, plan: HangPlan) -> Self {
        self.hang = Some((plan, SharedFlag::new()));
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

    /// Has the armed reset plan fired yet (in this process or a rank
    /// process forked from it)?
    pub fn reset_fired(&self) -> bool {
        self.reset.as_ref().is_some_and(|(_, fired)| fired.is_set())
    }

    /// The armed reset plan, if any.
    pub fn reset_plan(&self) -> Option<ResetPlan> {
        self.reset.as_ref().map(|(plan, _)| *plan)
    }

    /// The armed hang plan, if any.
    pub fn hang_plan(&self) -> Option<HangPlan> {
        self.hang.as_ref().map(|(plan, _)| *plan)
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

    fn wire_fault(&self, src: usize, dst: usize, frame_len: usize) -> WireFault {
        if self.cfg.torn_prob <= 0.0 && self.reset.is_none() && self.hang.is_none() {
            return WireFault::Deliver;
        }
        let seq = self.frame_seq.next((src, dst));
        // Fatal one-shot plans are checked before the torn noise so their
        // firing frame is exact. Counters keep advancing after a latch
        // fires, so a restarted world's frame indices stay well-defined.
        if let Some((plan, fired)) = &self.reset {
            if src == plan.src && dst == plan.dst && seq == plan.on_frame && fired.fire() {
                let prefix =
                    (hash(&[self.cfg.seed, domain::RESET, 3, seq]) as usize) % frame_len.max(1);
                return WireFault::Reset { prefix };
            }
        }
        if let Some((plan, fired)) = &self.hang {
            if src == plan.victim {
                let vseq = self.hang_seq.next(src);
                if vseq == plan.after_frames && fired.fire() {
                    return WireFault::Hang;
                }
            }
        }
        let id = [domain::WRITE, src as u64, dst as u64, seq];
        if frame_len >= 2 && self.roll(&id) < self.cfg.torn_prob {
            let h = hash(&[self.cfg.seed, domain::WRITE, src as u64, dst as u64, seq, 1]);
            return WireFault::Torn {
                prefix: 1 + (h as usize) % (frame_len - 1),
                stall: Duration::from_micros(1 + (h >> 32) % self.cfg.max_torn_stall_us.max(1)),
            };
        }
        WireFault::Deliver
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
            assert_eq!(p.wire_fault(0, 1, 8 + i as usize), WireFault::Deliver);
        }
        // With no torn rate, reset or hang armed, a wire decision touches
        // no counter.
        assert!(p.frame_seq.map.lock().unwrap().is_empty());
    }

    /// Replay the same scripted frame sequence twice: identical faults.
    #[test]
    fn wire_faults_replay_exactly_under_a_seed() {
        let script = |c: &Perturbator| -> Vec<WireFault> {
            (0..300)
                .map(|i| c.wire_fault(i % 4, (i + 1) % 4, 41 + 8 * (i % 13)))
                .collect()
        };
        let a = script(&Perturbator::chaos_from_seed(7, 4));
        let b = script(&Perturbator::chaos_from_seed(7, 4));
        assert_eq!(a, b);
    }

    /// Torn faults are well-formed: the split lands strictly inside the
    /// frame and the stall is bounded by the config.
    #[test]
    fn torn_faults_are_well_formed() {
        let c = Perturbator::new(PerturbConfig {
            torn_prob: 1.0,
            max_torn_stall_us: 50,
            ..PerturbConfig::chaos(3)
        });
        for i in 0..200 {
            let frame_len = 41 + 8 * (i % 9);
            match c.wire_fault(0, 1, frame_len) {
                WireFault::Torn { prefix, stall } => {
                    assert!(prefix >= 1 && prefix < frame_len);
                    assert!(stall >= Duration::from_micros(1));
                    assert!(stall <= Duration::from_micros(50));
                }
                f => panic!("torn_prob=1.0 must always tear, got {f:?}"),
            }
        }
    }

    #[test]
    fn reset_plan_fires_exactly_once_on_its_pair() {
        let c = Perturbator::new(PerturbConfig {
            torn_prob: 0.0,
            ..PerturbConfig::chaos(11)
        })
        .with_reset(ResetPlan {
            src: 2,
            dst: 0,
            on_frame: 2,
        });
        assert!(!c.reset_fired());
        // Other pairs never reset and never advance the pair's counter.
        for _ in 0..10 {
            assert_eq!(c.wire_fault(2, 1, 100), WireFault::Deliver);
            assert_eq!(c.wire_fault(0, 2, 100), WireFault::Deliver);
        }
        assert_eq!(c.wire_fault(2, 0, 100), WireFault::Deliver); // frame 0
        assert_eq!(c.wire_fault(2, 0, 100), WireFault::Deliver); // frame 1
        let f = c.wire_fault(2, 0, 100); // frame 2: fires
        let WireFault::Reset { prefix } = f else {
            panic!("expected reset, got {f:?}");
        };
        assert!(prefix < 100);
        assert!(c.reset_fired());
        // One-shot thereafter — a restarted world runs clean.
        for _ in 0..20 {
            assert_eq!(c.wire_fault(2, 0, 100), WireFault::Deliver);
        }
    }

    #[test]
    fn hang_plan_counts_all_victim_frames() {
        let c = Perturbator::new(PerturbConfig {
            torn_prob: 0.0,
            ..PerturbConfig::chaos(5)
        })
        .with_hang(HangPlan {
            victim: 1,
            after_frames: 3,
        });
        // Non-victim frames never hang and never advance the counter.
        for _ in 0..10 {
            assert_eq!(c.wire_fault(0, 1, 64), WireFault::Deliver);
        }
        // The victim's 4th outbound frame (index 3), across *different*
        // destinations, is the one that hangs.
        assert_eq!(c.wire_fault(1, 0, 64), WireFault::Deliver);
        assert_eq!(c.wire_fault(1, 2, 64), WireFault::Deliver);
        assert_eq!(c.wire_fault(1, 0, 64), WireFault::Deliver);
        assert_eq!(c.wire_fault(1, 2, 64), WireFault::Hang);
        assert!(c.hang.as_ref().unwrap().1.is_set());
        for _ in 0..20 {
            assert_eq!(c.wire_fault(1, 0, 64), WireFault::Deliver);
        }
    }

    #[test]
    fn seed_derived_plans_replay_avoid_root_and_stay_in_range() {
        for seed in 0..200 {
            let p = 2 + (seed as usize) % 7;
            let a = Perturbator::chaos_from_seed(seed, p);
            let b = Perturbator::chaos_from_seed(seed, p);
            assert_eq!(a.reset_plan(), b.reset_plan());
            assert_eq!(a.hang_plan(), b.hang_plan());
            assert!(a.reset_plan().is_none() || a.hang_plan().is_none());
            if let Some(r) = a.reset_plan() {
                assert!(r.src >= 1 && r.src < p);
                assert!(r.dst < p && r.dst != r.src);
                assert!(r.on_frame < 6);
            }
            if let Some(h) = a.hang_plan() {
                assert!(h.victim >= 1 && h.victim < p);
                assert!(h.after_frames < 6);
            }
        }
    }

    #[test]
    fn seed_matrix_covers_every_mode() {
        let mut seen = [false; 3];
        for seed in 0..64 {
            let c = Perturbator::chaos_from_seed(seed, 4);
            match (c.reset_plan(), c.hang_plan()) {
                (None, None) => seen[0] = true,
                (Some(_), _) => seen[1] = true,
                (_, Some(_)) => seen[2] = true,
            }
        }
        assert_eq!(seen, [true; 3], "64 seeds must cover torn, reset and hang");
    }

    /// The seeds the chaos sweeps single out keep the plans they had when
    /// a fourth mode armed connect faults: retiring it moved no other seed.
    #[test]
    fn seed_plans_survive_the_retired_connect_mode() {
        let hang = |victim, after_frames| {
            Some(HangPlan {
                victim,
                after_frames,
            })
        };
        for (seed, reset, hang) in [
            (8, None, hang(1, 1)),
            (9, None, hang(4, 1)),
            (11, None, hang(3, 4)),
            (
                13,
                Some(ResetPlan {
                    src: 2,
                    dst: 1,
                    on_frame: 4,
                }),
                None,
            ),
        ] {
            let c = Perturbator::chaos_from_seed(seed, 8);
            assert_eq!(
                (c.reset_plan(), c.hang_plan()),
                (reset, hang),
                "seed {seed}"
            );
        }
    }

    /// One fixed 300-call script per seed, folded into one hash: the
    /// send, receive and phase decisions of the aggressive preset and the
    /// wire decisions of the seed-derived chaos plan at p = 8.
    fn decision_fingerprint(seed: u64) -> u64 {
        let sched = Perturbator::new(PerturbConfig::aggressive(seed));
        let chaos = Perturbator::chaos_from_seed(seed, 8);
        let stall = |d: Option<Duration>| d.map_or(0, |d| 1 + d.as_nanos() as u64);
        let mut out = Vec::new();
        for i in 0..300u64 {
            let (src, tag) = ((i % 4) as usize, i % 3);
            out.push(match sched.send_fate(src, (src + 1) % 4, 1, tag, 64) {
                SendFate::Deliver => 0,
                SendFate::Delay(d) => 1 + d.as_nanos() as u64,
                SendFate::Drop { retransmit_after } => {
                    (1 << 40) + retransmit_after.as_nanos() as u64
                }
            });
            out.push(stall(sched.recv_delay((src + 1) % 4, src, 1, tag)));
            out.push(stall(sched.phase_stall(src, ["a", "b", "c"][tag as usize])));
            let (wsrc, hop) = ((i % 8) as usize, 1 + (i / 8) as usize % 7);
            let frame_len = 41 + 8 * (i as usize % 13);
            out.extend(match chaos.wire_fault(wsrc, (wsrc + hop) % 8, frame_len) {
                WireFault::Deliver => [0, 0, 0],
                WireFault::Torn { prefix, stall } => [1, prefix as u64, stall.as_nanos() as u64],
                WireFault::Reset { prefix } => [2, prefix as u64, 0],
                WireFault::Hang => [3, 0, 0],
            });
        }
        hash(&out)
    }

    /// The seeded decision streams are part of every replay recipe: a
    /// failing seed must inject the same faults in every later commit.
    #[test]
    fn decision_streams_are_pinned_across_commits() {
        // Recorded while the schedule and wire-fault plans were still two
        // separate hook implementations; a change here moves a seeded draw.
        const PINNED: [u64; 16] = [
            0xfa62e67d6cadef16,
            0x1383ced40a4d202c,
            0xe8c8e1a26c9013db,
            0xb3f9eff6f5f98074,
            0x5fb4b5332d10f923,
            0xd9c7d0e94d9b8aa6,
            0xe9e0874c0629737c,
            0xc95b146ba5709b07,
            0xc3c50e281e0f82ac,
            0xf24162fad894e3f7,
            0xc4051b3dee8e8fbd,
            0x4c33e71643cb9aa3,
            0xe8e4e8bf464edbd1,
            0xced02333e3311867,
            0x97eeca95c7713ce7,
            0x825b5a64df82fe18,
        ];
        for (seed, pinned) in (0..16).zip(PINNED) {
            assert_eq!(decision_fingerprint(seed), pinned, "seed {seed}");
        }
    }
}
