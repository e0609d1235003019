//! Network-fault injection hook points for the socket transport.
//!
//! [`crate::hooks::SchedHooks`] perturbs the *schedule* — message
//! visibility, stalls, rank skews — without ever touching the bytes on the
//! wire. This module is the hard-failure counterpart at the *transport*
//! level: a [`NetFaults`] implementation armed on a world decides, per
//! outbound frame and per connection attempt, whether the wire itself
//! misbehaves — partial writes, mid-frame connection resets, hung (silent
//! but alive) ranks, and refused or delayed dials.
//!
//! The decisions are consulted in the shared send path
//! (`comm::push_message_inner`), once per non-self-send message, so the
//! decision stream is keyed by program-ordered per-`(src, dst)` frame
//! sequence numbers and replays exactly under a fixed seed on *both*
//! backends. The effect is backend-specific:
//!
//! * on the **socket** backend the fault is executed literally by the
//!   destination peer's writer thread: a [`WireFault::Torn`] write splits
//!   the frame around a stall (the peer's `read_full` loop reassembles it —
//!   torn writes are benign and must change nothing observable), a
//!   [`WireFault::Reset`] writes a prefix and shuts the stream down (the
//!   peer observes a mid-frame EOF), and a [`WireFault::Hang`] silences the
//!   rank entirely — data *and* heartbeats — until the failure detector
//!   declares it dead;
//! * on the **local** backend there is no wire, so the two fatal faults
//!   ([`WireFault::Reset`], [`WireFault::Hang`]) are mirrored as the
//!   sender's death at the same program-ordered send — the observable
//!   outcome the socket world converges to once the peers detect the fault
//!   — and torn writes are no-ops. This keeps the crashed-rank roster of a
//!   fault-tolerant driver identical across backends, which is what the
//!   chaos conformance suite pins.
//!
//! Connection faults ([`NetFaults::connect_fault`]) are consulted by the
//! socket mesh dialer per attempt; a refused attempt burns one retry of the
//! bounded backoff schedule without sleeping, so a persistently refusing
//! plan degrades into a *fast* typed [`crate::XmpiError::LaunchFailed`]
//! instead of a long hang.
//!
//! Arming mirrors [`crate::hooks::with_hooks`]: [`with_net_faults`] arms a
//! thread-local slot that every world launched inside the closure picks up,
//! including worlds launched deep inside factorization drivers; a
//! socket-backend rank process, forked from the launching thread, holds a
//! copy of the slot.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

/// What happens to one outbound frame on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Write the frame normally.
    Deliver,
    /// Partial write: put `prefix` bytes on the wire, stall, then write the
    /// rest. The receiver's read loop reassembles the frame, so a torn
    /// write perturbs timing only — payload bytes, matching order, and byte
    /// counts are unchanged (the property the strict chaos conformance
    /// modes assert).
    Torn {
        /// Bytes written before the stall (`1..frame_len`).
        prefix: usize,
        /// How long the writer stalls mid-frame.
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
    /// never closes its streams), which is exactly what the detector's CI
    /// gate demonstrates.
    Hang,
}

/// What happens to one dial attempt of the mesh handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectFault {
    /// Attempt the connection normally.
    Allow,
    /// Hold the dialer back before attempting (a slow-to-route connect).
    Delay(Duration),
    /// The attempt is refused outright (connection refused without a
    /// listener ever being consulted). Burns one bounded retry.
    Refuse,
}

/// Transport-level fault injection callbacks. All methods default to
/// fault-free so an implementation only overrides the surfaces it wants to
/// break.
///
/// Implementations must be deterministic functions of their own state and
/// the arguments — the `xharness` chaos plan derives every decision from a
/// seed and a per-`(src, dst)` frame sequence number, so a failing seed
/// replays its exact fault pattern (see `xharness::NetChaos`).
pub trait NetFaults: Send + Sync {
    /// Fate of the next frame from world rank `src` to world rank `dst`;
    /// `frame_len` is its full on-wire size (header + body bytes).
    ///
    /// Consulted once per non-self-send message in program order on the
    /// sender's thread, on every backend — heartbeat and control frames are
    /// transport-internal and never consulted, so the decision stream is
    /// identical across backends up to the first fatal fault.
    fn wire_fault(&self, src: usize, dst: usize, frame_len: usize) -> WireFault {
        let _ = (src, dst, frame_len);
        WireFault::Deliver
    }

    /// Fate of dial `attempt` (0-based) from rank `src` to rank `dst`'s
    /// mesh listener.
    fn connect_fault(&self, src: usize, dst: usize, attempt: u64) -> ConnectFault {
        let _ = (src, dst, attempt);
        ConnectFault::Allow
    }
}

// Thread-local ambient fault plan, mirroring `hooks::ARMED`: `with_net_faults`
// arms the slot, `Shared::build`/`build_with` (called on the same thread)
// install the plan into the world they construct.
thread_local! {
    static ARMED: RefCell<Option<Arc<dyn NetFaults>>> = const { RefCell::new(None) };
}

/// Install `faults` on every world launched by `f` on this thread — the way
/// to chaos-test an existing driver (e.g. `factor::conflux_lu_ft`) that
/// launches its worlds internally. Composes with
/// [`crate::hooks::with_hooks`]: arm both to perturb the schedule *and*
/// break the wire.
///
/// # Panics
/// If network faults are already armed on this thread (nested arming is
/// ambiguous).
pub fn with_net_faults<R>(faults: Arc<dyn NetFaults>, f: impl FnOnce() -> R) -> R {
    ARMED.with(|slot| {
        let mut s = slot.borrow_mut();
        assert!(
            s.is_none(),
            "xmpi::netfault::with_net_faults: network faults already armed on this thread"
        );
        *s = Some(faults);
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

/// The network-fault plan armed on this thread, if any (checked by
/// `Shared::build`).
pub(crate) fn armed() -> Option<Arc<dyn NetFaults>> {
    ARMED.with(|slot| slot.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl NetFaults for Nop {}

    #[test]
    fn defaults_are_fault_free() {
        let n = Nop;
        assert_eq!(n.wire_fault(0, 1, 128), WireFault::Deliver);
        assert_eq!(n.connect_fault(1, 0, 3), ConnectFault::Allow);
    }

    #[test]
    fn with_net_faults_arms_and_disarms() {
        assert!(armed().is_none());
        let out = with_net_faults(Arc::new(Nop), || {
            assert!(armed().is_some());
            7
        });
        assert_eq!(out, 7);
        assert!(armed().is_none());
    }

    #[test]
    fn with_net_faults_disarms_on_panic() {
        let r = std::panic::catch_unwind(|| {
            with_net_faults(Arc::new(Nop), || panic!("boom"));
        });
        assert!(r.is_err());
        assert!(armed().is_none());
    }

    #[test]
    #[should_panic(expected = "already armed")]
    fn nested_arming_is_rejected() {
        with_net_faults(Arc::new(Nop), || {
            with_net_faults(Arc::new(Nop), || {});
        });
    }
}
