//! Pluggable message transports.
//!
//! The shared runtime layer — sharded mailboxes, [`crate::buf::Buf`]
//! payloads, byte accounting, schedule hooks, crash liveness — is
//! backend-agnostic. A [`Transport`] only decides how a sent payload reaches
//! the destination rank's mailbox:
//!
//! * [`LocalTransport`] (the default): every rank is a thread of this
//!   process; delivery is a refcount bump into the destination's in-memory
//!   mailbox. Zero-copy, zero serialization.
//! * the `socket` module's `SocketTransport`: every rank is its own OS
//!   process; delivery frames the payload onto a UNIX-domain socket (see
//!   [`crate::wire`]) and the peer's reader thread enqueues it into the
//!   mailbox it hosts.
//!
//! Receives never go through the transport: matching always happens against
//! the mailbox the calling process hosts, so `take`/`scan` semantics (and
//! therefore per-channel FIFO, visibility delays, and poison draining) are
//! identical on every backend.

use crate::comm::{ChannelKey, Mailbox, Payload};
use crate::hooks::WireFault;
use std::time::{Duration, Instant};

/// A message transport connecting the ranks of one world.
///
/// Sends are *buffered* on every backend: `deliver` must never block on the
/// destination making progress.
pub(crate) trait Transport: Send + Sync {
    /// Number of ranks the transport connects.
    fn size(&self) -> usize;

    /// Deliver `payload` on channel `key` (`(source world rank, ctx, tag)`)
    /// into `dst_world`'s mailbox. `delay` is an injected in-flight
    /// visibility delay from the schedule hooks (`None` = matchable on
    /// arrival).
    fn deliver(&self, dst_world: usize, key: ChannelKey, payload: Payload, delay: Option<Duration>);

    /// [`Transport::deliver`] carrying an injected [`WireFault`] for this
    /// message. Backends with a real wire (the socket mesh) execute the
    /// fault literally; in-process backends ignore it — the send path has
    /// already mirrored fatal wire faults as the sender's death before
    /// calling this, and a torn write has no in-process meaning.
    fn deliver_faulted(
        &self,
        dst_world: usize,
        key: ChannelKey,
        payload: Payload,
        delay: Option<Duration>,
        fault: WireFault,
    ) {
        let _ = fault;
        self.deliver(dst_world, key, payload, delay);
    }

    /// Whether ranks live in separate OS processes joined by a real wire.
    /// The send path uses this to decide whether an injected [`WireFault`]
    /// can be executed literally or must be mirrored in-process.
    fn is_interprocess(&self) -> bool {
        false
    }

    /// The mailbox this process hosts for `world_rank`.
    ///
    /// # Panics
    /// If this process does not host the rank (receives are always local).
    fn mailbox(&self, world_rank: usize) -> &Mailbox;

    /// Propagate an injected crash of `src_world`: wake every receiver
    /// parked on a mailbox this process hosts (so blocked waits observe the
    /// poisoned world) and notify remote peers, if the backend has any.
    fn announce_crash(&self, src_world: usize);
}

/// The default in-process transport: one mailbox per rank, delivery is a
/// queue push under the destination shard's lock.
pub(crate) struct LocalTransport {
    mailboxes: Vec<Mailbox>,
}

impl LocalTransport {
    pub(crate) fn new(p: usize) -> Self {
        LocalTransport {
            mailboxes: (0..p).map(|_| Mailbox::default()).collect(),
        }
    }
}

impl Transport for LocalTransport {
    fn size(&self) -> usize {
        self.mailboxes.len()
    }

    fn deliver(
        &self,
        dst_world: usize,
        key: ChannelKey,
        payload: Payload,
        delay: Option<Duration>,
    ) {
        let visible_at = delay.map(|d| Instant::now() + d);
        self.mailboxes[dst_world].deliver(key, payload, visible_at);
    }

    fn mailbox(&self, world_rank: usize) -> &Mailbox {
        &self.mailboxes[world_rank]
    }

    fn announce_crash(&self, _src_world: usize) {
        for mbox in &self.mailboxes {
            mbox.wake();
        }
    }
}
