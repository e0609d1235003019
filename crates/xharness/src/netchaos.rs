//! The seeded network-chaos plan: an [`xmpi::NetFaults`] implementation
//! whose every wire- and dial-level decision is a pure function of
//! `(seed, decision identity)` — the transport-breaking counterpart of the
//! schedule-level [`crate::Perturbator`].
//!
//! # Determinism model
//!
//! A frame decision's identity is its `(src, dst)` pair plus a
//! per-`(src, dst)` frame sequence number. The shared send path consults
//! the plan once per non-self-send in program order on the sender's
//! thread, so the k-th frame from `src` to `dst` is the same logical
//! message on every run *and on every backend* — which is what lets the
//! chaos conformance suite run the same seed against the in-process
//! mirror and the real socket mesh and compare outcomes.
//!
//! The fatal plans ([`ResetPlan`], [`HangPlan`]) are **one-shot per
//! instance**, like [`crate::CrashPlan`]: a fault-tolerant driver reuses
//! the instance across the broken world and its checkpoint-restart, and
//! the restarted world must run fault-free to completion. Their latches
//! are [`SharedFlag`]s, so a plan that fires in a forked rank process
//! reads as fired in the launcher and in every later world. Torn-write
//! noise keeps flowing across restarts — it is observably benign by
//! contract (the receiver reassembles split frames), so it must never
//! change results, counts, or rosters.
//!
//! Connection faults ([`ConnectPlan`]) are pure functions of the dial
//! attempt index, so they need no latch: the first `refuse_first`
//! attempts at the planned listener are refused (each burning one bounded
//! retry without sleeping), the next is delayed, and the rest proceed.

use crate::rng::{hash, unit_f64};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;
use xmpi::launch::SharedFlag;
use xmpi::{ConnectFault, NetFaults, WireFault};

/// Decision-domain tags, disjoint from the [`crate::Perturbator`] domains
/// (1–7) so arming chaos never shifts a seeded schedule-perturbation
/// stream.
mod domain {
    pub(super) const WRITE: u64 = 8;
    pub(super) const RESET: u64 = 9;
    pub(super) const HANG: u64 = 10;
    pub(super) const CONNECT: u64 = 11;
    pub(super) const MODE: u64 = 12;
}

/// Rates and magnitudes for the always-on torn-write noise of a
/// [`NetChaos`] plan.
#[derive(Debug, Clone, PartialEq)]
pub struct NetChaosConfig {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Probability an outbound frame is written in two pieces around a
    /// stall.
    pub torn_prob: f64,
    /// Maximum mid-frame stall (µs) of a torn write.
    pub max_stall_us: u64,
}

impl NetChaosConfig {
    /// The default noise level: roughly one frame in seven torn, stalls up
    /// to 200 µs — enough to exercise every partial-read path without
    /// slowing a test run noticeably.
    pub fn new(seed: u64) -> Self {
        NetChaosConfig {
            seed,
            torn_prob: 0.15,
            max_stall_us: 200,
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

/// A deterministic bounded connect fault against one mesh listener: the
/// first `refuse_first` dial attempts at rank `dst` are refused (each
/// burning one bounded retry, without sleeping), the next attempt is
/// held back `delay_us`, and every later attempt proceeds — so the mesh
/// converges, just late. Unbounded refusal (for typed-failure tests) is
/// expressed by setting `refuse_first` at or above the dial budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectPlan {
    /// Rank whose listener misbehaves.
    pub dst: usize,
    /// Dial attempts refused before any can succeed.
    pub refuse_first: u64,
    /// Delay (µs) imposed on the first non-refused attempt.
    pub delay_us: u64,
}

impl ConnectPlan {
    /// Seed-derived plan: a listener that every higher rank must dial
    /// (`dst < p-1`), 1–3 refusals, a sub-millisecond delay.
    pub fn from_seed(seed: u64, p: usize) -> ConnectPlan {
        assert!(p > 1, "connect plan needs a dialed listener");
        ConnectPlan {
            dst: (hash(&[seed, domain::CONNECT, 0]) as usize) % (p - 1),
            refuse_first: 1 + hash(&[seed, domain::CONNECT, 1]) % 3,
            delay_us: hash(&[seed, domain::CONNECT, 2]) % 500,
        }
    }
}

/// Which fault family a seed-derived plan exercises (see
/// [`NetChaos::from_seed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Torn-write noise only — strictly observably benign.
    Torn,
    /// Noise plus one mid-frame connection reset.
    Reset,
    /// Noise plus one silent rank hang.
    Hang,
    /// Noise plus a bounded refuse/delay pattern on one mesh listener.
    Connect,
}

/// Per-key monotone sequence counters (the deterministic part of a frame
/// decision's identity).
#[derive(Default)]
struct SeqTable<K: std::hash::Hash + Eq + Copy> {
    map: Mutex<HashMap<K, u64>>,
}

impl<K: std::hash::Hash + Eq + Copy> SeqTable<K> {
    fn next(&self, key: K) -> u64 {
        let mut map = self.map.lock().expect("seq table poisoned");
        let ctr = map.entry(key).or_insert(0);
        let seq = *ctr;
        *ctr += 1;
        seq
    }
}

/// The seeded network-chaos plan. Install with [`crate::run_chaos`]
/// (ambient, covers every world a driver launches) or build one per
/// scripted scenario with the `with_*` constructors.
pub struct NetChaos {
    cfg: NetChaosConfig,
    mode: ChaosMode,
    /// Per-`(src, dst)` outbound-frame counter.
    frame_seq: SeqTable<(usize, usize)>,
    /// Per-src counter of *all* outbound frames, for the hang plan.
    hang_seq: SeqTable<usize>,
    reset: Option<(ResetPlan, SharedFlag)>,
    hang: Option<(HangPlan, SharedFlag)>,
    connect: Option<ConnectPlan>,
}

impl NetChaos {
    /// A plan with torn-write noise only.
    pub fn new(cfg: NetChaosConfig) -> Self {
        NetChaos {
            cfg,
            mode: ChaosMode::Torn,
            frame_seq: SeqTable::default(),
            hang_seq: SeqTable::default(),
            reset: None,
            hang: None,
            connect: None,
        }
    }

    /// Arm a one-shot [`ResetPlan`].
    pub fn with_reset(mut self, plan: ResetPlan) -> Self {
        self.reset = Some((plan, SharedFlag::new()));
        self.mode = ChaosMode::Reset;
        self
    }

    /// Arm a one-shot [`HangPlan`].
    pub fn with_hang(mut self, plan: HangPlan) -> Self {
        self.hang = Some((plan, SharedFlag::new()));
        self.mode = ChaosMode::Hang;
        self
    }

    /// Arm a [`ConnectPlan`] (stateless, no latch).
    pub fn with_connect(mut self, plan: ConnectPlan) -> Self {
        self.connect = Some(plan);
        self.mode = ChaosMode::Connect;
        self
    }

    /// The seed-matrix constructor: the seed picks one of the four
    /// [`ChaosMode`]s and derives that mode's plan, so a sweep over
    /// `XHARNESS_SEEDS` covers every fault family and a failing seed
    /// replays its exact fault pattern.
    pub fn from_seed(seed: u64, p: usize) -> NetChaos {
        let chaos = NetChaos::new(NetChaosConfig::new(seed));
        match hash(&[seed, domain::MODE]) % 4 {
            0 => chaos,
            1 => chaos.with_reset(ResetPlan::from_seed(seed, p)),
            2 => chaos.with_hang(HangPlan::from_seed(seed, p)),
            _ => chaos.with_connect(ConnectPlan::from_seed(seed, p)),
        }
    }

    /// Which fault family this plan exercises.
    pub fn mode(&self) -> ChaosMode {
        self.mode
    }

    /// The armed reset plan, if any.
    pub fn reset_plan(&self) -> Option<ResetPlan> {
        self.reset.as_ref().map(|(p, _)| *p)
    }

    /// The armed hang plan, if any.
    pub fn hang_plan(&self) -> Option<HangPlan> {
        self.hang.as_ref().map(|(p, _)| *p)
    }

    /// The armed connect plan, if any.
    pub fn connect_plan(&self) -> Option<ConnectPlan> {
        self.connect
    }

    /// Has the armed reset plan fired yet (in this process or a rank
    /// process forked from it)?
    pub fn reset_fired(&self) -> bool {
        self.reset.as_ref().is_some_and(|(_, fired)| fired.is_set())
    }

    /// Uniform draw in `[0,1)` for a decision identity.
    fn roll(&self, parts: &[u64]) -> f64 {
        let mut key = Vec::with_capacity(parts.len() + 1);
        key.push(self.cfg.seed);
        key.extend_from_slice(parts);
        unit_f64(hash(&key))
    }
}

impl NetFaults for NetChaos {
    fn wire_fault(&self, src: usize, dst: usize, frame_len: usize) -> WireFault {
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
                stall: Duration::from_micros(1 + (h >> 32) % self.cfg.max_stall_us.max(1)),
            };
        }
        WireFault::Deliver
    }

    fn connect_fault(&self, _src: usize, dst: usize, attempt: u64) -> ConnectFault {
        let Some(plan) = &self.connect else {
            return ConnectFault::Allow;
        };
        if dst != plan.dst {
            return ConnectFault::Allow;
        }
        if attempt < plan.refuse_first {
            return ConnectFault::Refuse;
        }
        if attempt == plan.refuse_first && plan.delay_us > 0 {
            return ConnectFault::Delay(Duration::from_micros(plan.delay_us));
        }
        ConnectFault::Allow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replay the same scripted frame sequence twice: identical faults.
    #[test]
    fn wire_faults_replay_exactly_under_a_seed() {
        let script = |c: &NetChaos| -> Vec<WireFault> {
            (0..300)
                .map(|i| c.wire_fault(i % 4, (i + 1) % 4, 41 + 8 * (i % 13)))
                .collect()
        };
        let a = script(&NetChaos::from_seed(7, 4));
        let b = script(&NetChaos::from_seed(7, 4));
        assert_eq!(a, b);
    }

    /// Torn faults are well-formed: the split lands strictly inside the
    /// frame and the stall is bounded by the config.
    #[test]
    fn torn_faults_are_well_formed() {
        let c = NetChaos::new(NetChaosConfig {
            seed: 3,
            torn_prob: 1.0,
            max_stall_us: 50,
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
        let c = NetChaos::new(NetChaosConfig {
            seed: 11,
            torn_prob: 0.0,
            max_stall_us: 1,
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
        let c = NetChaos::new(NetChaosConfig {
            seed: 5,
            torn_prob: 0.0,
            max_stall_us: 1,
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
    fn connect_plan_refuses_then_delays_then_allows() {
        let c = NetChaos::new(NetChaosConfig {
            seed: 9,
            torn_prob: 0.0,
            max_stall_us: 1,
        })
        .with_connect(ConnectPlan {
            dst: 0,
            refuse_first: 2,
            delay_us: 300,
        });
        assert_eq!(c.connect_fault(3, 1, 0), ConnectFault::Allow);
        assert_eq!(c.connect_fault(3, 0, 0), ConnectFault::Refuse);
        assert_eq!(c.connect_fault(3, 0, 1), ConnectFault::Refuse);
        assert_eq!(
            c.connect_fault(3, 0, 2),
            ConnectFault::Delay(Duration::from_micros(300))
        );
        assert_eq!(c.connect_fault(3, 0, 3), ConnectFault::Allow);
    }

    #[test]
    fn seed_derived_plans_replay_avoid_root_and_stay_in_range() {
        for seed in 0..200 {
            let p = 2 + (seed as usize) % 7;
            let a = NetChaos::from_seed(seed, p);
            let b = NetChaos::from_seed(seed, p);
            assert_eq!(a.mode(), b.mode());
            assert_eq!(a.reset_plan(), b.reset_plan());
            assert_eq!(a.hang_plan(), b.hang_plan());
            assert_eq!(a.connect_plan(), b.connect_plan());
            if let Some(r) = a.reset_plan() {
                assert!(r.src >= 1 && r.src < p);
                assert!(r.dst < p && r.dst != r.src);
                assert!(r.on_frame < 6);
            }
            if let Some(h) = a.hang_plan() {
                assert!(h.victim >= 1 && h.victim < p);
                assert!(h.after_frames < 6);
            }
            if let Some(cp) = a.connect_plan() {
                assert!(cp.dst < p - 1, "planned listener must actually be dialed");
                assert!((1..=3).contains(&cp.refuse_first));
                assert!(cp.delay_us < 500);
            }
        }
    }

    #[test]
    fn seed_matrix_covers_every_mode() {
        let mut seen = [false; 4];
        for seed in 0..64 {
            match NetChaos::from_seed(seed, 4).mode() {
                ChaosMode::Torn => seen[0] = true,
                ChaosMode::Reset => seen[1] = true,
                ChaosMode::Hang => seen[2] = true,
                ChaosMode::Connect => seen[3] = true,
            }
        }
        assert_eq!(seen, [true; 4], "64 seeds must cover all four modes");
    }
}
