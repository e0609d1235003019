//! Schedule-perturbation and fault-injection hook points.
//!
//! The factorization schedules are only ever observed under whatever thread
//! interleaving the OS happens to produce; the paper-conformance machinery
//! (the `xharness` crate) needs to *adversarially* explore interleavings and
//! message timings. This module provides the transport-level hook surface it
//! drives: a [`SchedHooks`] implementation installed on a world is consulted
//!
//! * at every **send** ([`SchedHooks::send_fate`]) — it may delay when the
//!   message becomes *matchable* at the destination, or drop the first
//!   transmission entirely and let the (simulated) retransmission surface it
//!   later. Either way the payload is enqueued immediately and the sender
//!   never blocks, so buffered-send semantics, per-channel FIFO order, and
//!   the byte accounting (one MPI-level message, counted once, like Score-P
//!   over a reliable transport) are all preserved — only the *schedule*
//!   changes;
//! * at every **receive match** ([`SchedHooks::recv_delay`]) — an artificial
//!   stall inserted after a blocking receive matches its message;
//! * at every **phase boundary** ([`SchedHooks::phase_stall`]) — a rank
//!   entering a named phase can be held back, skewing ranks against each
//!   other at exactly the points the schedules synchronize;
//! * at every **non-self send**, after all accounting
//!   ([`SchedHooks::wire_fault`]) — the wire itself may misbehave: torn
//!   (partially written) frames, mid-frame connection resets, and ranks
//!   that hang silently without closing their streams.
//!
//! # Wire faults
//!
//! A [`WireFault`] is decided once per non-self-send message in program
//! order on the sender's thread, on every backend, so the decision stream
//! replays exactly under a fixed seed on both. Its effect is
//! backend-specific:
//!
//! * on the **socket** backend the sending thread executes it literally
//!   as it writes the frame: a [`WireFault::Torn`] write splits the frame
//!   around a stall (the peer's frame reader reassembles it — torn writes
//!   are benign and must change nothing observable), a [`WireFault::Reset`]
//!   writes a prefix and shuts the stream down (the peer observes a
//!   mid-frame EOF), and a [`WireFault::Hang`] silences the rank entirely —
//!   data *and* heartbeats — until the failure detector declares it dead;
//! * on the **local** backend there is no wire, so the two fatal faults are
//!   mirrored as the sender's death at the same program-ordered send — the
//!   outcome the socket world converges to once the peers detect the
//!   fault — and torn writes are no-ops. This keeps the crashed-rank roster
//!   of a fault-tolerant driver identical across backends.
//!
//! There is no connection fault: the launcher makes the whole mesh before
//! it forks a rank (`crate::launch`), so no dial exists to refuse.
//!
//! Hooks are installed ambiently with [`with_hooks`], which arms a
//! thread-local slot that [`crate::run`] and [`crate::run_ft`] consult — so
//! a driver that launches its world internally (e.g. `factor::conflux_lu`)
//! is perturbed the same way as a bare closure, mirroring
//! [`crate::trace::capture`]; a socket-backend rank process, forked from
//! the launching thread, holds a copy of the slot. Un-hooked worlds carry
//! `None` and pay one branch per hook point.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

/// What happens to a sent message's *visibility* at the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFate {
    /// Deliver normally: matchable as soon as it is enqueued.
    Deliver,
    /// In-flight delay: matchable only after `Duration` has elapsed.
    /// Messages of the *same* channel `(src, ctx, tag)` still match in
    /// program order — a delayed message delays its channel successors'
    /// matching, never reorders them.
    Delay(Duration),
    /// First transmission is lost; the retransmission makes the payload
    /// matchable after the given timeout. Byte counters and the event trace
    /// see one message (MPI-level accounting over a reliable transport);
    /// only the completion schedule shifts.
    Drop {
        /// Simulated retransmission timeout until the payload surfaces.
        retransmit_after: Duration,
    },
}

impl SendFate {
    /// The visibility delay this fate imposes (`None` for immediate).
    pub(crate) fn delay(self) -> Option<Duration> {
        match self {
            SendFate::Deliver => None,
            SendFate::Delay(d) => Some(d),
            SendFate::Drop { retransmit_after } => Some(retransmit_after),
        }
    }
}

/// Whether the *sending rank itself* survives a send attempt — the hard-
/// failure counterpart of [`SendFate`]'s transient perturbations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashFate {
    /// The rank lives; the send proceeds (subject to [`SendFate`]).
    Survive,
    /// The rank dies *before* the message leaves it: nothing is enqueued,
    /// no bytes are counted, the world's liveness registry marks the rank
    /// dead and poisons the world, and the rank's thread unwinds with a
    /// crash sentinel that [`crate::run_ft`] turns into
    /// [`crate::XmpiError::RankDead`].
    Crash,
}

/// What happens to one outbound frame on the wire (see the module docs,
/// "Wire faults").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Write the frame normally.
    Deliver,
    /// Partial write: put `prefix` bytes on the wire, stall, then write the
    /// rest. The receiver's read loop reassembles the frame, so a torn
    /// write perturbs timing only — payload bytes, matching order, and byte
    /// counts are unchanged.
    Torn {
        /// Bytes written before the stall (`1..frame_len`).
        prefix: usize,
        /// How long the sender stalls mid-frame (reading its own inbound
        /// streams meanwhile).
        stall: Duration,
    },
    /// Connection reset mid-frame: write `prefix` bytes, then shut the
    /// stream down. The peer observes an EOF inside a header or body and
    /// classifies this rank as dead ([`crate::XmpiError::Truncated`] →
    /// `RankDead`), never panicking and never double-counting the torn
    /// frame's bytes.
    Reset {
        /// Bytes written before the stream is shut down (`0..frame_len`).
        prefix: usize,
    },
    /// The sending rank stalls silently: from this frame on it transmits
    /// nothing — no data, no heartbeats — while its process stays alive.
    /// Only the heartbeat failure detector can classify this (a hung rank
    /// never closes its streams).
    Hang,
}

/// Transport-level perturbation callbacks. All methods default to no-ops so
/// an implementation only overrides the points it wants to perturb.
///
/// Implementations must be deterministic functions of their own state and
/// the arguments if replayability is desired — the `xharness` perturbator
/// derives every decision from a seed and a per-channel sequence number, so
/// a failing seed replays the exact same injected faults.
pub trait SchedHooks: Send + Sync {
    /// Fate of a message from world rank `src` to world rank `dst` on
    /// channel `(ctx, tag)` carrying `bytes` payload bytes.
    fn send_fate(&self, src: usize, dst: usize, ctx: u64, tag: u64, bytes: u64) -> SendFate {
        let _ = (src, dst, ctx, tag, bytes);
        SendFate::Deliver
    }

    /// Stall inserted on world rank `rank` right after a blocking receive
    /// matches a message from `src` on `(ctx, tag)`.
    fn recv_delay(&self, rank: usize, src: usize, ctx: u64, tag: u64) -> Option<Duration> {
        let _ = (rank, src, ctx, tag);
        None
    }

    /// Stall inserted on world rank `rank` as it declares phase `name`.
    fn phase_stall(&self, rank: usize, name: &str) -> Option<Duration> {
        let _ = (rank, name);
        None
    }

    /// Hard-failure injection: does world rank `src` *die* at this send
    /// attempt (to `dst` on channel `(ctx, tag)`)? Consulted before any
    /// accounting — a crashed send never happened. Keyed on the sender's
    /// program-ordered send count by deterministic implementations, so the
    /// same seed kills the same rank at the same logical instant in every
    /// run.
    fn crash_fate(&self, src: usize, dst: usize, ctx: u64, tag: u64) -> CrashFate {
        let _ = (src, dst, ctx, tag);
        CrashFate::Survive
    }

    /// In-flight data corruption: flip element `index` of an element
    /// (`f64`) payload of `len` elements by adding `delta`, or `None` to
    /// deliver intact. Applied after byte accounting — the wire size is
    /// unchanged, only the value is wrong, which is exactly the fault an
    /// ABFT checksum layer must detect and locate. Index payloads are never
    /// corrupted (the hook is not consulted for them).
    fn corrupt_send(
        &self,
        src: usize,
        dst: usize,
        ctx: u64,
        tag: u64,
        len: usize,
    ) -> Option<(usize, f64)> {
        let _ = (src, dst, ctx, tag, len);
        None
    }

    /// Fate of the next frame from world rank `src` to world rank `dst`;
    /// `frame_len` is its full on-wire size (header + body bytes).
    /// Consulted once per non-self-send message, after every other hook —
    /// heartbeat and control frames are transport-internal and never
    /// consulted, so the decision stream is identical across backends up
    /// to the first fatal fault.
    fn wire_fault(&self, src: usize, dst: usize, frame_len: usize) -> WireFault {
        let _ = (src, dst, frame_len);
        WireFault::Deliver
    }
}

/// Sleep for a hook-requested stall, if any. Zero-duration stalls still
/// yield, so even a "0 delay" decision perturbs the interleaving slightly.
pub(crate) fn stall(d: Option<Duration>) {
    match d {
        Some(d) if d > Duration::ZERO => std::thread::sleep(d),
        Some(_) => std::thread::yield_now(),
        None => {}
    }
}

// Thread-local ambient hooks: `with_hooks` arms the slot, `crate::run`
// (called on the same thread, typically deep inside a factorization driver)
// installs the hooks into the world it launches.
thread_local! {
    static ARMED: RefCell<Option<Arc<dyn SchedHooks>>> = const { RefCell::new(None) };
}

/// Install `hooks` on every world launched by `f` on this thread, without
/// changing `f`'s signature — the way to perturb an existing driver like
/// `factor::conflux_lu` that calls [`crate::run`] internally. Composes with
/// [`crate::trace::capture`] (arm both to get a perturbed *and* traced run).
///
/// # Panics
/// If hooks are already armed on this thread (nested arming is ambiguous).
pub fn with_hooks<R>(hooks: Arc<dyn SchedHooks>, f: impl FnOnce() -> R) -> R {
    ARMED.with(|slot| {
        let mut s = slot.borrow_mut();
        assert!(
            s.is_none(),
            "xmpi::hooks::with_hooks: hooks already armed on this thread"
        );
        *s = Some(hooks);
    });
    // Disarm even if `f` panics so the thread stays reusable.
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            ARMED.with(|slot| slot.borrow_mut().take());
        }
    }
    let _disarm = Disarm;
    f()
}

/// The hooks armed on this thread, if any (checked by [`crate::run`]).
pub(crate) fn armed() -> Option<Arc<dyn SchedHooks>> {
    ARMED.with(|slot| slot.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Nop;
    impl SchedHooks for Nop {}

    #[test]
    fn defaults_are_noops() {
        let h = Nop;
        assert_eq!(h.send_fate(0, 1, 0, 0, 8), SendFate::Deliver);
        assert!(h.recv_delay(0, 1, 0, 0).is_none());
        assert!(h.phase_stall(0, "x").is_none());
        assert_eq!(h.crash_fate(0, 1, 0, 0), CrashFate::Survive);
        assert!(h.corrupt_send(0, 1, 0, 0, 64).is_none());
        assert_eq!(h.wire_fault(0, 1, 128), WireFault::Deliver);
    }

    #[test]
    fn fate_delay_views() {
        assert_eq!(SendFate::Deliver.delay(), None);
        assert_eq!(
            SendFate::Delay(Duration::from_micros(5)).delay(),
            Some(Duration::from_micros(5))
        );
        assert_eq!(
            SendFate::Drop {
                retransmit_after: Duration::from_micros(7)
            }
            .delay(),
            Some(Duration::from_micros(7))
        );
    }

    #[test]
    fn with_hooks_arms_and_disarms() {
        assert!(armed().is_none());
        let out = with_hooks(Arc::new(Nop), || {
            assert!(armed().is_some());
            42
        });
        assert_eq!(out, 42);
        assert!(armed().is_none());
    }

    /// Loses the first transmission of every message on `victim_tag`; the
    /// retransmission makes it matchable after `retransmit_after`.
    struct DropFirstOnTag {
        victim_tag: u64,
        retransmit_after: Duration,
        drops: AtomicUsize,
    }

    impl SchedHooks for DropFirstOnTag {
        fn send_fate(
            &self,
            _src: usize,
            _dst: usize,
            _ctx: u64,
            tag: u64,
            _bytes: u64,
        ) -> SendFate {
            if tag == self.victim_tag {
                self.drops.fetch_add(1, Ordering::Relaxed);
                SendFate::Drop {
                    retransmit_after: self.retransmit_after,
                }
            } else {
                SendFate::Deliver
            }
        }
    }

    /// A blocking receive of a `Drop`-fated message waits out the simulated
    /// retransmission and completes with the payload intact, counted once.
    #[test]
    fn drop_fate_is_survived_by_a_blocking_receive() {
        let hooks = Arc::new(DropFirstOnTag {
            victim_tag: 6,
            retransmit_after: Duration::from_millis(20),
            drops: AtomicUsize::new(0),
        });
        let out = with_hooks(hooks.clone(), || {
            crate::run(2, |c| {
                if c.rank() == 0 {
                    c.send_f64(1, 6, &[5.0, 6.0]);
                    vec![]
                } else {
                    c.recv_f64(0, 6)
                }
            })
        });
        assert_eq!(out.results[1], vec![5.0, 6.0]);
        assert_eq!(
            hooks.drops.load(Ordering::Relaxed),
            1,
            "one transmission dropped"
        );
        // Byte accounting is once per logical message, not per transmission.
        assert_eq!(out.stats.ranks[0].bytes_sent, 16);
        assert_eq!(out.stats.ranks[1].bytes_recv, 16);
    }

    #[test]
    fn with_hooks_disarms_on_panic() {
        let r = std::panic::catch_unwind(|| {
            with_hooks(Arc::new(Nop), || panic!("boom"));
        });
        assert!(r.is_err());
        assert!(armed().is_none());
    }

    #[test]
    #[should_panic(expected = "already armed")]
    fn nested_arming_is_rejected() {
        with_hooks(Arc::new(Nop), || {
            with_hooks(Arc::new(Nop), || {});
        });
    }
}
