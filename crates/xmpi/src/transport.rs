//! Pluggable message transports.
//!
//! The shared runtime layer — sharded mailboxes, [`crate::buf::Buf`]
//! payloads, byte accounting, schedule hooks, crash liveness — is
//! backend-agnostic. A [`Transport`] decides how a sent payload reaches
//! the destination rank's mailbox, and how a receive waits for it:
//!
//! * [`LocalTransport`] (the default): every rank is a thread of this
//!   process; delivery is a refcount bump into the destination's in-memory
//!   mailbox, and a receive parks on its mailbox shard's condition
//!   variable. Zero-copy, zero serialization.
//! * the `socket` module's `SocketTransport`: every rank is its own OS
//!   process; the sending thread writes the payload onto a UNIX-domain
//!   socket (see [`crate::wire`]), and a receive with nothing to match
//!   reads the mesh itself into the mailbox its process hosts.
//!
//! Matching never goes through the transport: it always happens against
//! the mailbox the calling process hosts, so `take`/`scan` semantics (and
//! therefore per-channel FIFO, visibility delays, and poison draining) are
//! identical on every backend.

use crate::comm::{ChannelKey, Mailbox, Payload, Shard, ShardGuard};
use crate::hooks::WireFault;
use std::time::{Duration, Instant};

/// A message transport connecting the ranks of one world.
///
/// A send never waits for the destination to *receive*: in process,
/// `deliver` only enqueues; over sockets it writes the frame itself and may
/// wait while the destination's socket is full, reading this rank's own
/// inbound streams meanwhile (so two head-on senders cannot deadlock), and
/// a destination busy outside a comm call has its streams read within one
/// heartbeat period by its monitor thread.
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

    /// Wait, with `shard` locked as `channels`, until a message may have
    /// arrived in it or `until` passes (spurious returns are allowed: the
    /// receive re-scans either way), and hand the lock back. By default a
    /// receive parks on the shard's condition variable, which every
    /// delivery and wake notifies.
    fn await_arrival<'a>(
        &self,
        shard: &'a Shard,
        mut channels: ShardGuard<'a>,
        until: Instant,
    ) -> ShardGuard<'a> {
        shard.wait(&mut channels, until);
        channels
    }
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
