//! Point-to-point transport and communicators.
//!
//! Each rank owns a mailbox sharded by channel: a message's channel is its
//! `(source, context, tag)` triple, channels are hashed onto a small set of
//! shards, and each shard holds a mutex-protected map from channel to FIFO
//! queue plus a condition variable. A send appends to the destination's
//! channel queue and never blocks — the buffered-send semantics the paper's
//! asynchronous MPI usage assumes. A receive matches the *head* of its
//! channel queue in O(1) (amortized) instead of linearly scanning a single
//! queue under a single lock; per-channel FIFO order is preserved because a
//! sender's messages arrive in program order and only the head of a channel
//! is ever matchable. Concurrent senders and the receiver contend only when
//! their channels share a shard.
//!
//! Payloads are zero-copy: a [`Payload`] holds its elements in a shared
//! immutable [`Buf`], so enqueuing a send — and forwarding a broadcast down
//! its tree — is a refcount bump, not a deep copy. See [`crate::buf`].
//!
//! Communicators carry a *context id* so sub-communicators (grid rows,
//! columns, z-fibres, layers) get isolated message streams over the shared
//! mailboxes, mirroring MPI communicator semantics.

use crate::buf::Buf;
use crate::error::XmpiError;
use crate::hooks::{self, CrashFate, SchedHooks, WireFault};
use crate::liveness::{unwind_with, CrashUnwind, Liveness, PoisonUnwind};
use crate::stats::{CollKind, Counters};
use crate::trace::{Event, Recorder};
use crate::transport::{LocalTransport, Transport};
use parking_lot::{Condvar, Mutex};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Default deadlock timeout for blocking receives (a hung test is useless;
/// a loud failure is not).
const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a receive may wait before the runtime declares a deadlock and
/// panics with a diagnostic. Defaults to 120 s; override with the
/// `CONFLUX_RECV_TIMEOUT_MS` environment variable (socket backends on a
/// loaded CI machine can need a longer budget). Unparseable or zero values
/// fall back to the default. Read once per process.
pub(crate) fn recv_timeout() -> Duration {
    static CACHE: OnceLock<Duration> = OnceLock::new();
    *CACHE.get_or_init(|| {
        parse_recv_timeout_ms(std::env::var("CONFLUX_RECV_TIMEOUT_MS").ok().as_deref())
    })
}

/// Parse a `CONFLUX_RECV_TIMEOUT_MS` value into the receive deadline.
///
/// The fallback contract every blocking receive relies on:
///
/// * unset (`None`) → the 120 s default;
/// * a positive integer, with surrounding ASCII whitespace allowed
///   (`" 500 "`) → that many milliseconds;
/// * `"0"` → the default — zero would turn every receive into an instant
///   deadlock, so it is *not* a way to disable the timeout;
/// * anything that does not parse as `u64` — garbage, an empty string, a
///   negative or fractional number, a value past `u64::MAX` → the default.
///
/// Never panics or errors: this runs during world construction, where a
/// deterministic fallback beats unwinding on a malformed environment.
fn parse_recv_timeout_ms(var: Option<&str>) -> Duration {
    match var.and_then(|s| s.trim().parse::<u64>().ok()) {
        Some(ms) if ms > 0 => Duration::from_millis(ms),
        _ => DEFAULT_RECV_TIMEOUT,
    }
}

/// Message payloads. Both variants count 8 bytes per element, matching the
/// double-precision element size the paper uses when scaling its models.
///
/// The element storage is a shared immutable [`Buf`], so cloning a payload
/// (what every send enqueues and every broadcast tree forwards) bumps a
/// refcount instead of copying the buffer.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A buffer of matrix elements.
    F64(Buf<f64>),
    /// A buffer of indices (pivot rows, counts, displacements).
    U64(Buf<u64>),
}

impl Payload {
    /// Wire size in bytes.
    pub fn bytes(&self) -> u64 {
        match self {
            Payload::F64(b) => 8 * b.len() as u64,
            Payload::U64(b) => 8 * b.len() as u64,
        }
    }

    /// The element buffer this payload carries. `who` names the operation
    /// (and, where it has them, the channel coordinates) for the panic.
    ///
    /// # Panics
    /// If the payload carries indices instead of elements.
    pub(crate) fn into_f64(self, who: impl std::fmt::Display) -> Buf<f64> {
        match self {
            Payload::F64(b) => b,
            Payload::U64(_) => wrong_payload(&who, "an index"),
        }
    }

    /// The index buffer this payload carries (see [`Payload::into_f64`]).
    ///
    /// # Panics
    /// If the payload carries elements instead of indices.
    pub(crate) fn into_u64(self, who: impl std::fmt::Display) -> Buf<u64> {
        match self {
            Payload::U64(b) => b,
            Payload::F64(_) => wrong_payload(&who, "an element"),
        }
    }
}

/// The one "wrong payload kind" panic behind every typed receive and
/// broadcast.
#[cold]
fn wrong_payload(who: &dyn std::fmt::Display, got: &str) -> ! {
    panic!("{who}: got {got} payload")
}

// The one place borrowed or owned user buffers become shared payload
// storage: every send wrapper funnels through these
// conversions (via `impl Into<Payload>` bounds), so the Arc hand-off — and
// the single defensive copy for borrowed slices — is not repeated per entry
// point.
impl From<Vec<f64>> for Payload {
    fn from(v: Vec<f64>) -> Self {
        Payload::F64(v.into())
    }
}
impl From<Vec<u64>> for Payload {
    fn from(v: Vec<u64>) -> Self {
        Payload::U64(v.into())
    }
}
impl From<Buf<f64>> for Payload {
    fn from(b: Buf<f64>) -> Self {
        Payload::F64(b)
    }
}
impl From<Buf<u64>> for Payload {
    fn from(b: Buf<u64>) -> Self {
        Payload::U64(b)
    }
}
impl From<&[f64]> for Payload {
    fn from(s: &[f64]) -> Self {
        Payload::F64(Buf::from_slice(s))
    }
}
impl From<&[u64]> for Payload {
    fn from(s: &[u64]) -> Self {
        Payload::U64(Buf::from_slice(s))
    }
}

pub(crate) struct Message {
    payload: Payload,
    /// Earliest instant the message may be *matched* by a receive — the
    /// fault-injection hook's in-flight delay or simulated retransmission
    /// timeout ([`crate::hooks::SendFate`]). `None` = matchable now.
    /// Matching only ever takes the head of a channel queue, so a delayed
    /// message holds back its channel successors instead of being overtaken
    /// (per-channel FIFO is preserved under any perturbation).
    visible_at: Option<Instant>,
}

/// Outcome of scanning a channel for its next matchable message.
enum Scan {
    /// A matchable message was removed from the channel queue.
    Ready(Payload),
    /// The channel's next message exists but is still in flight.
    InFlight(Instant),
    /// No matching message has arrived.
    Absent,
}

/// A channel identity: `(source world rank, context, tag)`.
pub(crate) type ChannelKey = (usize, u64, u64);

/// Shards per mailbox. Enough that the concurrent senders of a broadcast
/// tree rarely collide on one lock; small enough that a timeout diagnostic
/// sweep stays readable.
const MAILBOX_SHARDS: usize = 16;

fn shard_index(key: &ChannelKey) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % MAILBOX_SHARDS
}

/// Remove and return the channel's head message if it is matchable,
/// respecting visibility. Drained channels are removed from the map so a
/// long run's mailbox does not accumulate empty queues.
fn scan_channel(channels: &mut HashMap<ChannelKey, VecDeque<Message>>, key: &ChannelKey) -> Scan {
    let Some(q) = channels.get_mut(key) else {
        return Scan::Absent;
    };
    let Some(head) = q.front() else {
        return Scan::Absent;
    };
    if let Some(t) = head.visible_at {
        if t > Instant::now() {
            return Scan::InFlight(t);
        }
    }
    let msg = q.pop_front().expect("channel head exists");
    if q.is_empty() {
        channels.remove(key);
    }
    Scan::Ready(msg.payload)
}

/// One mailbox shard: the channels hashing here, plus the condition variable
/// their receivers park on.
#[derive(Default)]
struct Shard {
    channels: Mutex<HashMap<ChannelKey, VecDeque<Message>>>,
    arrived: Condvar,
}

pub(crate) struct Mailbox {
    shards: Vec<Shard>,
}

impl Default for Mailbox {
    fn default() -> Self {
        Mailbox {
            shards: (0..MAILBOX_SHARDS).map(|_| Shard::default()).collect(),
        }
    }
}

impl Mailbox {
    fn shard_for(&self, key: &ChannelKey) -> &Shard {
        &self.shards[shard_index(key)]
    }

    /// Enqueue a message on channel `key` and wake the channel's shard —
    /// the single delivery primitive every [`crate::transport::Transport`]
    /// funnels into (a local send directly, a socket send via the peer's
    /// reader thread).
    pub(crate) fn deliver(&self, key: ChannelKey, payload: Payload, visible_at: Option<Instant>) {
        let shard = self.shard_for(&key);
        shard
            .channels
            .lock()
            .entry(key)
            .or_default()
            .push_back(Message {
                payload,
                visible_at,
            });
        shard.arrived.notify_all();
    }

    /// Wake every receiver parked on this mailbox. Each shard's lock is
    /// taken around its notify so a waiter between its poison check and its
    /// park cannot miss the wakeup.
    pub(crate) fn wake(&self) {
        for shard in &self.shards {
            let guard = shard.channels.lock();
            shard.arrived.notify_all();
            drop(guard);
        }
    }

    /// Total unmatched messages across all shards (diagnostics only; the
    /// count is a racy snapshot).
    fn pending(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.channels.lock().values().map(VecDeque::len).sum::<usize>())
            .sum()
    }

    /// Human-readable per-shard breakdown of what is stuck in this mailbox:
    /// every non-empty shard with its pending channels' `(src, ctx, tag)`
    /// coordinates and queue depths. Backs the deadlock-timeout panics.
    fn stuck_report(&self) -> String {
        let mut out = String::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let channels = shard.channels.lock();
            if channels.is_empty() {
                continue;
            }
            let mut keys: Vec<_> = channels.iter().collect();
            keys.sort_by_key(|(k, _)| **k);
            let _ = write!(out, "\n  shard {i:2}:");
            for ((src, ctx, tag), q) in keys {
                let _ = write!(
                    out,
                    " [src {src} ctx {ctx:#x} tag {tag}: {} msg(s)]",
                    q.len()
                );
            }
        }
        if out.is_empty() {
            out.push_str("\n  (all shards empty)");
        }
        out
    }
}

/// State shared by all ranks of a world (all ranks *this process hosts*,
/// for a multi-process backend).
pub(crate) struct Shared {
    /// The message backend: in-process mailboxes by default, a socket mesh
    /// for multi-process worlds. Receives always match against the mailbox
    /// this process hosts; only delivery is backend-specific.
    pub transport: Arc<dyn Transport>,
    pub counters: Vec<Counters>,
    /// Event recorder; `None` for untraced worlds, so the transport hot
    /// path pays one branch and no extra synchronization when tracing is
    /// off.
    pub trace: Option<Recorder>,
    /// Schedule-perturbation hooks; `None` for unperturbed worlds (one
    /// branch per hook point, no other cost).
    pub hooks: Option<Arc<dyn SchedHooks>>,
    /// Crash liveness registry (two relaxed atomic loads per receive in a
    /// healthy world). Shared with the transport's reader threads on
    /// multi-process backends, which is why it sits behind an `Arc`.
    pub liveness: Arc<Liveness>,
}

impl Shared {
    pub(crate) fn build(
        p: usize,
        trace: Option<Recorder>,
        hooks: Option<Arc<dyn SchedHooks>>,
    ) -> Arc<Self> {
        Self::build_with(
            Arc::new(LocalTransport::new(p)),
            Arc::new(Liveness::new(p)),
            trace,
            hooks,
        )
    }

    /// [`Shared::build`] over an explicit transport and liveness registry
    /// (the socket launcher constructs both before the world exists, so the
    /// transport's reader threads can share the registry).
    pub(crate) fn build_with(
        transport: Arc<dyn Transport>,
        liveness: Arc<Liveness>,
        trace: Option<Recorder>,
        hooks: Option<Arc<dyn SchedHooks>>,
    ) -> Arc<Self> {
        let p = transport.size();
        Arc::new(Shared {
            transport,
            counters: (0..p).map(|_| Counters::default()).collect(),
            trace,
            hooks,
            liveness,
        })
    }
}

/// A communicator: this rank's handle onto a group of ranks.
///
/// The world communicator spans all ranks; [`Comm::subcomm`] creates handles
/// over subsets (with local rank numbering), which is how the factorization
/// schedules address grid rows, columns, and z-fibres.
pub struct Comm {
    shared: Arc<Shared>,
    /// This rank's id within this communicator.
    rank: usize,
    /// World rank of each member, indexed by communicator-local rank.
    members: Arc<Vec<usize>>,
    /// Context id isolating this communicator's message stream.
    ctx: u64,
}

impl Comm {
    pub(crate) fn world(shared: Arc<Shared>, world_rank: usize) -> Self {
        let p = shared.transport.size();
        Comm {
            shared,
            rank: world_rank,
            members: Arc::new((0..p).collect()),
            ctx: 0,
        }
    }

    /// This rank's id within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// World rank of *this* rank.
    #[inline]
    pub fn world_rank(&self) -> usize {
        self.members[self.rank]
    }

    /// Declare the active measurement phase for this rank; all subsequent
    /// traffic is attributed to it (Table 1's per-routine breakdown).
    pub fn set_phase(&self, name: &'static str) {
        self.set_phase_with_flops(name, 0);
    }

    /// [`Comm::set_phase`] carrying the rank's *cumulative* local flop count
    /// at the marker, so a trace can attribute computation (as first
    /// differences) to the span between consecutive markers. Untraced
    /// worlds ignore the count.
    pub fn set_phase_with_flops(&self, name: &'static str, cum_flops: u64) {
        let w = self.world_rank();
        if let Some(h) = &self.shared.hooks {
            hooks::stall(h.phase_stall(w, name));
        }
        self.shared.counters[w].set_phase(name);
        if let Some(tr) = &self.shared.trace {
            let label = tr.intern(name);
            tr.push(
                w,
                Event::Phase {
                    t: tr.now(),
                    label,
                    cum_flops,
                },
            );
        }
    }

    /// Scoped marker for a collective call: attributes enclosed traffic to
    /// `kind` and (when tracing) brackets it with enter/exit events. Nested
    /// calls keep the outermost attribution, like a profiler attributing to
    /// the user-visible MPI call site.
    pub(crate) fn coll_scope(&self, kind: CollKind) -> CollScope<'_> {
        let w = self.world_rank();
        let prev = self.shared.counters[w].enter_coll(kind);
        if prev == 0 {
            if let Some(tr) = &self.shared.trace {
                tr.push(w, Event::CollEnter { t: tr.now(), kind });
            }
        }
        CollScope {
            comm: self,
            prev,
            kind,
        }
    }

    /// Build a sub-communicator from communicator-local member ranks.
    ///
    /// Every listed member must call `subcomm` with the *same* `salt` and the
    /// *same* member list (SPMD style); the position of a rank in `members`
    /// becomes its local rank in the new communicator. Ranks not listed must
    /// not call. `salt` disambiguates different sub-communicators over
    /// identical member sets.
    ///
    /// # Panics
    /// If the calling rank is not in `members`.
    pub fn subcomm(&self, salt: u64, members: &[usize]) -> Comm {
        let world_members: Vec<usize> = members.iter().map(|&r| self.members[r]).collect();
        let my_pos = members
            .iter()
            .position(|&r| r == self.rank)
            .expect("subcomm: calling rank must be a member");
        let mut h = DefaultHasher::new();
        self.ctx.hash(&mut h);
        salt.hash(&mut h);
        world_members.hash(&mut h);
        // Bit 63 marks non-world contexts so a world ctx of 0 can never
        // collide with a derived one.
        let ctx = h.finish() | (1 << 63);
        Comm {
            shared: self.shared.clone(),
            rank: my_pos,
            members: Arc::new(world_members),
            ctx,
        }
    }

    /// Send a buffer of matrix elements to local rank `dst` with `tag`.
    /// Buffered semantics: never blocks.
    pub fn send_f64(&self, dst: usize, tag: u64, data: &[f64]) {
        self.push_message(dst, tag, data.into());
    }

    /// Send an index buffer to local rank `dst` with `tag`.
    pub fn send_u64(&self, dst: usize, tag: u64, data: &[u64]) {
        self.push_message(dst, tag, data.into());
    }

    /// Send anything payload-convertible (a [`Payload`], a [`Buf`], an owned
    /// `Vec`, or a borrowed slice). Owned and shared inputs are enqueued
    /// without copying — what the collectives forward down their trees.
    pub(crate) fn send_payload(&self, dst: usize, tag: u64, payload: impl Into<Payload>) {
        self.push_message(dst, tag, payload.into());
    }

    /// Infallible transport wrapper: a send to a dead rank unwinds this
    /// thread with a poison sentinel (caught by [`crate::run_ft`]; a loud
    /// panic under plain [`crate::run`]).
    pub(crate) fn push_message(&self, dst: usize, tag: u64, payload: Payload) {
        if let Err(e) = self.push_message_inner(dst, tag, payload) {
            unwind_with(PoisonUnwind(e));
        }
    }

    /// Transport core behind every send: fault hooks, byte accounting, the
    /// [`Event::Send`] trace event and delivery.
    ///
    /// Fault-injection order matters here: the crash hook fires *before any
    /// accounting* (a crashed send never happened), the dead-destination
    /// check *before* counting (a refused send is not traffic), and the
    /// corruption hook *after* counting (the wire size is unchanged, only a
    /// value is wrong).
    pub(crate) fn push_message_inner(
        &self,
        dst: usize,
        tag: u64,
        mut payload: Payload,
    ) -> Result<(), XmpiError> {
        assert!(dst < self.size(), "send: destination {dst} out of range");
        let dst_world = self.members[dst];
        let src_world = self.world_rank();
        if let Some(h) = &self.shared.hooks {
            if h.crash_fate(src_world, dst_world, self.ctx, tag) == CrashFate::Crash {
                self.crash_self(src_world);
            }
        }
        if self.shared.liveness.is_dead(dst_world) {
            return Err(XmpiError::RankDead { rank: dst_world });
        }
        let bytes = payload.bytes();
        self.shared.counters[src_world].record_send(bytes);
        if let Some(tr) = &self.shared.trace {
            let kind = self.shared.counters[src_world].current_coll();
            tr.push(
                src_world,
                Event::Send {
                    t: tr.now(),
                    peer: dst_world,
                    ctx: self.ctx,
                    tag,
                    bytes,
                    kind,
                },
            );
        }
        // In-flight corruption: element payloads only, applied after the
        // byte accounting (the wire size is unchanged; only a value is
        // wrong — the fault an ABFT checksum layer must detect).
        // Copy-on-write: the payload storage may be shared with the sender's
        // local buffer and with sibling messages of a broadcast tree, and
        // only *this* transmission is corrupted — `make_mut` clones the
        // storage iff it is shared.
        if let Payload::F64(b) = &mut payload {
            if let Some(h) = &self.shared.hooks {
                if let Some((i, delta)) =
                    h.corrupt_send(src_world, dst_world, self.ctx, tag, b.len())
                {
                    if let Some(x) = b.make_mut().get_mut(i) {
                        *x += delta;
                    }
                }
            }
        }
        // Fault injection: the hook may hold the message in flight (delay)
        // or lose the first transmission (visible only after the simulated
        // retransmission timeout). The payload is enqueued either way — the
        // sender never blocks and bytes are counted exactly once.
        let delay = self.shared.hooks.as_ref().and_then(|h| {
            h.send_fate(src_world, dst_world, self.ctx, tag, bytes)
                .delay()
        });
        let key = (src_world, self.ctx, tag);
        // Wire-level chaos: consulted once per non-self-send in program
        // order, *after* all accounting (a torn or reset frame's bytes were
        // put on the wire and counted by the sender; they are simply never
        // credited to the receiver). The socket writer executes the fault
        // literally; in-process the two fatal faults are mirrored as this
        // sender's death — the outcome the socket world converges to once
        // peers detect the broken wire — and a torn write is a timing-only
        // no-op without a wire to tear.
        if dst_world != src_world {
            if let Some(h) = &self.shared.hooks {
                let frame_len = crate::wire::HEADER_LEN + bytes as usize;
                let fault = h.wire_fault(src_world, dst_world, frame_len);
                if fault != WireFault::Deliver {
                    if self.shared.transport.is_interprocess() {
                        self.shared
                            .transport
                            .deliver_faulted(dst_world, key, payload, delay, fault);
                        return Ok(());
                    }
                    if matches!(fault, WireFault::Reset { .. } | WireFault::Hang) {
                        self.crash_self(src_world);
                    }
                }
            }
        }
        self.shared
            .transport
            .deliver(dst_world, key, payload, delay);
        Ok(())
    }

    /// Execute an injected crash of this rank: mark it dead, poison the
    /// world, wake every blocked receiver (and notify remote peers, on a
    /// multi-process backend), record the trace event, and unwind with the
    /// crash sentinel that [`crate::run_ft`] maps to
    /// [`XmpiError::RankDead`].
    fn crash_self(&self, src_world: usize) -> ! {
        self.shared.liveness.kill(src_world);
        if let Some(tr) = &self.shared.trace {
            tr.push(src_world, Event::RankCrash { t: tr.now() });
        }
        self.shared.transport.announce_crash(src_world);
        unwind_with(CrashUnwind { rank: src_world });
    }

    /// Receive matrix elements from local rank `src` with `tag` (blocking).
    ///
    /// # Panics
    /// If the matching message carries indices instead of elements, or if no
    /// message arrives within the deadlock timeout.
    pub fn recv_f64(&self, src: usize, tag: u64) -> Vec<f64> {
        self.recv_buf_f64(src, tag).into_vec()
    }

    /// [`Comm::recv_f64`] without the copy-out: returns the shared buffer
    /// handle. Read it through `Deref` as `&[f64]`; converting to owned
    /// storage ([`Buf::into_vec`]) costs a copy only if the buffer is still
    /// shared (e.g. this rank forwarded it down a broadcast tree).
    pub(crate) fn recv_buf_f64(&self, src: usize, tag: u64) -> Buf<f64> {
        self.recv_payload(src, tag).into_f64(format_args!(
            "recv_f64: rank {} from {src} tag {tag}",
            self.rank
        ))
    }

    /// Receive an index buffer from local rank `src` with `tag` (blocking).
    pub fn recv_u64(&self, src: usize, tag: u64) -> Vec<u64> {
        self.recv_payload(src, tag)
            .into_u64(format_args!(
                "recv_u64: rank {} from {src} tag {tag}",
                self.rank
            ))
            .into_vec()
    }

    /// Receive any payload type from `(src, tag)` (blocking, with deadlock
    /// timeout): [`Comm::try_recv_payload`] whose failure is
    /// [`Comm::recv_failed`].
    pub(crate) fn recv_payload(&self, src: usize, tag: u64) -> Payload {
        self.try_recv_payload(src, tag)
            .unwrap_or_else(|e| self.recv_failed(src, tag, e))
    }

    /// How every blocking receive gives up: deadline expiry is a deadlock
    /// panic naming the channel and what is stuck in this rank's mailbox; a
    /// dead source or a poisoned world unwinds with a poison sentinel
    /// ([`crate::run_ft`] catches it; plain [`crate::run`] panics).
    fn recv_failed(&self, src: usize, tag: u64, e: XmpiError) -> ! {
        let XmpiError::Timeout { pending, .. } = e else {
            unwind_with(PoisonUnwind(e));
        };
        panic!(
            "xmpi deadlock: rank {} (world {}) waited {:?} for msg from local {} \
             (world {}) tag {} ctx {:#x}; {} unmatched message(s) pending:{}",
            self.rank,
            self.world_rank(),
            recv_timeout(),
            src,
            self.members[src],
            tag,
            self.ctx,
            pending,
            self.stuck_report()
        )
    }

    /// Per-shard breakdown of this rank's unmatched mailbox traffic, for
    /// deadlock diagnostics.
    fn stuck_report(&self) -> String {
        self.shared
            .transport
            .mailbox(self.world_rank())
            .stuck_report()
    }

    /// Core matching loop: block until the channel's next `(src, ctx, tag)`
    /// message (arrival order) is matchable, the world is poisoned
    /// ([`XmpiError::RankDead`] if the source itself died, else
    /// [`XmpiError::WorldPoisoned`]), or the receive timeout
    /// ([`recv_timeout`]) elapses ([`XmpiError::Timeout`]). Only the channel's own shard is locked while
    /// waiting.
    ///
    /// Already-delivered messages stay consumable in a poisoned world — the
    /// scan runs *before* the liveness check, so a survivor draining its
    /// mailbox during teardown or recovery sees everything that actually
    /// arrived; only a wait that would *block* observes the poison.
    fn take_deadline(&self, src_world: usize, tag: u64) -> Result<Payload, XmpiError> {
        let my_world = self.world_rank();
        let mbox = self.shared.transport.mailbox(my_world);
        let key = (src_world, self.ctx, tag);
        let shard = mbox.shard_for(&key);
        let deadline = Instant::now() + recv_timeout();
        let mut channels = shard.channels.lock();
        loop {
            let wake_at = match scan_channel(&mut channels, &key) {
                Scan::Ready(p) => return Ok(p),
                Scan::InFlight(t) => t.min(deadline),
                Scan::Absent => deadline,
            };
            if self.shared.liveness.is_poisoned() {
                return Err(if self.shared.liveness.is_dead(src_world) {
                    XmpiError::RankDead { rank: src_world }
                } else {
                    XmpiError::WorldPoisoned
                });
            }
            let now = Instant::now();
            if now >= deadline {
                // Release our shard before sweeping all shards for the
                // pending count (the sweep locks each in turn).
                drop(channels);
                return Err(XmpiError::Timeout {
                    src: src_world,
                    tag,
                    pending: mbox.pending(),
                });
            }
            // An in-flight visibility deadline wakes by timeout, a fresh
            // arrival (or a crash notification) wakes by notify, and either
            // way the loop re-scans.
            shard.arrived.wait_for(&mut channels, wake_at - now);
        }
    }

    /// [`Comm::recv_f64`] as a typed-error operation: `Err` on a dead
    /// source, a poisoned world, or deadline expiry, instead of a panic.
    pub fn try_recv_f64(&self, src: usize, tag: u64) -> Result<Vec<f64>, XmpiError> {
        match self.try_recv_payload(src, tag)? {
            Payload::F64(b) => Ok(b.into_vec()),
            Payload::U64(b) => Err(XmpiError::Truncated {
                expected: 0,
                got: b.len(),
                src: self.members[src],
                tag,
            }),
        }
    }

    /// The one blocking-receive body: [`Event::RecvPost`], match, the
    /// receive-match stall, receive accounting, [`Event::RecvDone`]. A dead
    /// source fails fast with [`XmpiError::RankDead`], a crash elsewhere
    /// with [`XmpiError::WorldPoisoned`], and deadline expiry with
    /// [`XmpiError::Timeout`] — no sentinel unwinds, so a fault-tolerant
    /// driver can branch on the outcome and keep the rank alive.
    fn try_recv_payload(&self, src: usize, tag: u64) -> Result<Payload, XmpiError> {
        assert!(src < self.size(), "recv: source {src} out of range");
        let src_world = self.members[src];
        let my_world = self.world_rank();
        if let Some(tr) = &self.shared.trace {
            tr.push(
                my_world,
                Event::RecvPost {
                    t: tr.now(),
                    peer: src_world,
                    ctx: self.ctx,
                    tag,
                },
            );
        }
        let payload = self.take_deadline(src_world, tag)?;
        if let Some(h) = &self.shared.hooks {
            hooks::stall(h.recv_delay(my_world, src_world, self.ctx, tag));
        }
        let bytes = payload.bytes();
        self.shared.counters[my_world].record_recv(bytes);
        if let Some(tr) = &self.shared.trace {
            let kind = self.shared.counters[my_world].current_coll();
            tr.push(
                my_world,
                Event::RecvDone {
                    t: tr.now(),
                    peer: src_world,
                    ctx: self.ctx,
                    tag,
                    bytes,
                    kind,
                },
            );
        }
        Ok(payload)
    }

    /// Trace marker: this rank starts reconstructing lost state. Pairs with
    /// [`Comm::mark_recovery_end`]; analyses use the bracket to attribute
    /// traffic to recovery rather than to the algorithm. No-op untraced.
    pub fn mark_recovery_begin(&self) {
        if let Some(tr) = &self.shared.trace {
            tr.push(self.world_rank(), Event::RecoveryBegin { t: tr.now() });
        }
    }

    /// Trace marker: recovery finished after moving `bytes` over the wire.
    pub fn mark_recovery_end(&self, bytes: u64) {
        if let Some(tr) = &self.shared.trace {
            tr.push(self.world_rank(), Event::RecoveryEnd { t: tr.now(), bytes });
        }
    }

    /// Simultaneous exchange with a partner rank: send `data`, receive the
    /// partner's buffer. Safe against head-on exchanges because sends are
    /// buffered — which also makes an exchange with *this* rank an ordinary
    /// send to self followed by its receive.
    pub fn sendrecv_f64(&self, partner: usize, tag: u64, data: &[f64]) -> Vec<f64> {
        self.send_f64(partner, tag, data);
        self.recv_f64(partner, tag)
    }

    /// Exchange a (elements, indices) pair with a partner — the message shape
    /// tournament pivoting uses (candidate rows + their global row ids).
    pub fn exchange_pair(
        &self,
        partner: usize,
        tag: u64,
        data: &[f64],
        idx: &[u64],
    ) -> (Vec<f64>, Vec<u64>) {
        self.send_f64(partner, tag, data);
        self.send_u64(partner, tag, idx);
        let d = self.recv_f64(partner, tag);
        let i = self.recv_u64(partner, tag);
        (d, i)
    }
}

/// RAII guard produced by [`Comm::coll_scope`]; restores the previous
/// collective attribution (and emits the exit event) on drop.
pub(crate) struct CollScope<'a> {
    comm: &'a Comm,
    prev: usize,
    kind: CollKind,
}

impl Drop for CollScope<'_> {
    fn drop(&mut self) {
        let w = self.comm.world_rank();
        if self.prev == 0 {
            if let Some(tr) = &self.comm.shared.trace {
                tr.push(
                    w,
                    Event::CollExit {
                        t: tr.now(),
                        kind: self.kind,
                    },
                );
            }
        }
        self.comm.shared.counters[w].exit_coll(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::run;

    #[test]
    fn payload_byte_sizes() {
        assert_eq!(Payload::from(vec![0.0f64; 10]).bytes(), 80);
        assert_eq!(Payload::from(vec![0u64; 3]).bytes(), 24);
    }

    #[test]
    fn recv_timeout_parse_edge_cases() {
        // The documented fallback contract, case by case.
        assert_eq!(parse_recv_timeout_ms(None), DEFAULT_RECV_TIMEOUT);
        assert_eq!(parse_recv_timeout_ms(Some("")), DEFAULT_RECV_TIMEOUT);
        assert_eq!(parse_recv_timeout_ms(Some("0")), DEFAULT_RECV_TIMEOUT);
        assert_eq!(parse_recv_timeout_ms(Some(" 0 ")), DEFAULT_RECV_TIMEOUT);
        assert_eq!(parse_recv_timeout_ms(Some("-5")), DEFAULT_RECV_TIMEOUT);
        assert_eq!(parse_recv_timeout_ms(Some("1.5")), DEFAULT_RECV_TIMEOUT);
        assert_eq!(parse_recv_timeout_ms(Some("12ms")), DEFAULT_RECV_TIMEOUT);
        assert_eq!(parse_recv_timeout_ms(Some("garbage")), DEFAULT_RECV_TIMEOUT);
        // One past u64::MAX does not parse; u64::MAX itself does.
        assert_eq!(
            parse_recv_timeout_ms(Some("18446744073709551616")),
            DEFAULT_RECV_TIMEOUT
        );
        assert_eq!(
            parse_recv_timeout_ms(Some("18446744073709551615")),
            Duration::from_millis(u64::MAX)
        );
        assert_eq!(
            parse_recv_timeout_ms(Some("500")),
            Duration::from_millis(500)
        );
        assert_eq!(
            parse_recv_timeout_ms(Some("\t 500 \n")),
            Duration::from_millis(500)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64, ..proptest::prelude::ProptestConfig::default()
        })]

        /// Whatever the environment holds, the parse never panics and the
        /// result is either the default or exactly the parsed millisecond
        /// count — nothing in between. The generated strings are junk-heavy
        /// (digits, whitespace, signs, letters) so both arms are exercised.
        #[test]
        fn recv_timeout_parse_never_panics(seed in 0u64..u64::MAX, len in 0usize..24) {
            const ALPHABET: &[u8] = b"0123456789999 \t-+.esmx\x7f";
            let mut z = seed;
            let mut s = String::new();
            for _ in 0..len {
                z = z.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                s.push(ALPHABET[(z >> 33) as usize % ALPHABET.len()] as char);
            }
            let d = parse_recv_timeout_ms(Some(&s));
            match s.trim().parse::<u64>() {
                Ok(ms) if ms > 0 => {
                    proptest::prop_assert_eq!(d, Duration::from_millis(ms))
                }
                _ => proptest::prop_assert_eq!(d, DEFAULT_RECV_TIMEOUT),
            }
        }

        #[test]
        fn recv_timeout_parse_accepts_any_positive(ms in 1u64..u64::MAX) {
            proptest::prop_assert_eq!(
                parse_recv_timeout_ms(Some(&ms.to_string())),
                Duration::from_millis(ms)
            );
        }
    }

    #[test]
    fn payload_clone_shares_storage() {
        let p = Payload::from(vec![1.0f64; 64]);
        let q = p.clone();
        let (Payload::F64(a), Payload::F64(b)) = (&p, &q) else {
            unreachable!()
        };
        assert_eq!(a.as_ptr(), b.as_ptr(), "payload clone must be zero-copy");
    }

    #[test]
    fn pingpong_preserves_data() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                c.send_f64(1, 7, &[1.0, 2.0, 3.0]);
                c.recv_f64(1, 8)
            } else {
                let v = c.recv_f64(0, 7);
                c.send_f64(0, 8, &[v.iter().sum()]);
                v
            }
        });
        assert_eq!(out.results[0], vec![6.0]);
        assert_eq!(out.results[1], vec![1.0, 2.0, 3.0]);
        assert_eq!(out.stats.ranks[0].bytes_sent, 24);
        assert_eq!(out.stats.ranks[0].bytes_recv, 8);
    }

    #[test]
    fn owned_send_is_zero_copy_end_to_end() {
        // A Vec sent as an owned payload and received by the only consumer
        // must come back as the *same allocation* — no transport copy.
        let out = run(2, |c| {
            if c.rank() == 0 {
                let v = vec![5.0; 100];
                let ptr = v.as_ptr() as usize;
                c.send_payload(1, 0, v);
                c.send_u64(1, 1, &[ptr as u64]);
                0
            } else {
                let got = c.recv_f64(0, 0);
                let sent_ptr = c.recv_u64(0, 1)[0];
                usize::from(got.as_ptr() as u64 == sent_ptr)
            }
        });
        assert_eq!(out.results[1], 1, "receiver must reclaim the sender's Vec");
    }

    #[test]
    fn tag_matching_is_out_of_order() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                c.send_f64(1, 1, &[1.0]);
                c.send_f64(1, 2, &[2.0]);
                vec![]
            } else {
                // Receive in reverse tag order.
                let b = c.recv_f64(0, 2);
                let a = c.recv_f64(0, 1);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out.results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn same_tag_is_fifo() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                for i in 0..5 {
                    c.send_f64(1, 0, &[i as f64]);
                }
                vec![]
            } else {
                (0..5).map(|_| c.recv_f64(0, 0)[0]).collect()
            }
        });
        assert_eq!(out.results[1], vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn many_channels_fifo_per_channel() {
        // Interleave sends over enough distinct channels to populate every
        // shard; each channel must still drain in program order, and
        // cross-channel receives in any order must see everything.
        let out = run(2, |c| {
            const CHANNELS: u64 = 64;
            const PER: u64 = 4;
            if c.rank() == 0 {
                for i in 0..PER {
                    for tag in 0..CHANNELS {
                        c.send_u64(1, tag, &[tag * 1000 + i]);
                    }
                }
                vec![]
            } else {
                // Drain channels in reverse tag order to exercise shard
                // isolation; within a channel, arrival order must hold.
                let mut got = Vec::new();
                for tag in (0..CHANNELS).rev() {
                    for i in 0..PER {
                        let v = c.recv_u64(0, tag);
                        assert_eq!(v, vec![tag * 1000 + i], "channel FIFO broken");
                        got.push(v[0]);
                    }
                }
                got
            }
        });
        assert_eq!(out.results[1].len(), 64 * 4);
    }

    #[test]
    fn sendrecv_self_roundtrips_and_counts() {
        // An exchange with oneself is a queued send + receive: it must
        // preserve the data, count one message out and one in, and record
        // exactly the three events of a mailbox round-trip.
        let (out, traces) = crate::trace::capture(crate::trace::TraceConfig::default(), || {
            run(2, |c| {
                if c.rank() == 0 {
                    c.sendrecv_f64(0, 3, &[1.5, 2.5])
                } else {
                    vec![]
                }
            })
        });
        assert_eq!(out.results[0], vec![1.5, 2.5]);
        assert_eq!(out.stats.ranks[0].bytes_sent, 16);
        assert_eq!(out.stats.ranks[0].bytes_recv, 16);
        assert_eq!(out.stats.ranks[0].msgs_sent, 1);
        assert_eq!(out.stats.ranks[0].msgs_recv, 1);
        assert!(matches!(
            traces[0].ranks[0].events[..],
            [
                Event::Send {
                    peer: 0,
                    tag: 3,
                    bytes: 16,
                    ..
                },
                Event::RecvPost {
                    peer: 0,
                    tag: 3,
                    ..
                },
                Event::RecvDone {
                    peer: 0,
                    tag: 3,
                    bytes: 16,
                    ..
                },
            ]
        ));
        assert!(traces[0].ranks[1].events.is_empty());
    }

    #[test]
    fn subcomm_isolates_contexts_and_renumbers() {
        let out = run(4, |c| {
            // Two disjoint pairs; both use the same tags over the same salt.
            let members = if c.rank() < 2 { vec![0, 1] } else { vec![2, 3] };
            let sub = c.subcomm(1, &members);
            assert_eq!(sub.size(), 2);
            if sub.rank() == 0 {
                sub.send_f64(1, 0, &[c.rank() as f64]);
                -1.0
            } else {
                sub.recv_f64(0, 0)[0]
            }
        });
        assert_eq!(out.results[1], 0.0);
        assert_eq!(out.results[3], 2.0);
    }

    #[test]
    fn nested_subcomms() {
        let out = run(8, |c| {
            let half = if c.rank() < 4 {
                vec![0, 1, 2, 3]
            } else {
                vec![4, 5, 6, 7]
            };
            let sub = c.subcomm(2, &half);
            let pair_local = if sub.rank() < 2 {
                vec![0, 1]
            } else {
                vec![2, 3]
            };
            let pair = sub.subcomm(3, &pair_local);
            if pair.rank() == 0 {
                pair.send_u64(1, 9, &[c.rank() as u64]);
                u64::MAX
            } else {
                pair.recv_u64(0, 9)[0]
            }
        });
        assert_eq!(out.results[1], 0);
        assert_eq!(out.results[3], 2);
        assert_eq!(out.results[5], 4);
        assert_eq!(out.results[7], 6);
    }

    #[test]
    fn exchange_pair_roundtrip() {
        let out = run(2, |c| {
            let me = c.rank() as f64;
            let (d, i) = c.exchange_pair(1 - c.rank(), 5, &[me], &[c.rank() as u64 * 10]);
            (d[0], i[0])
        });
        assert_eq!(out.results[0], (1.0, 10));
        assert_eq!(out.results[1], (0.0, 0));
    }

    #[test]
    #[should_panic(expected = "destination")]
    fn send_out_of_range_panics() {
        run(2, |c| {
            if c.rank() == 0 {
                c.send_f64(5, 0, &[1.0]);
            }
        });
    }

    #[test]
    fn stuck_report_names_channel_coords() {
        // Build a mailbox with known stuck traffic and check the diagnostic
        // names the channel, not just a bare total.
        let mbox = Mailbox::default();
        let key = (3usize, 0u64, 42u64);
        mbox.deliver(key, Payload::from(vec![1.0f64]), None);
        let report = mbox.stuck_report();
        assert!(report.contains("src 3"), "{report}");
        assert!(report.contains("tag 42"), "{report}");
        assert!(report.contains("1 msg(s)"), "{report}");
        assert_eq!(mbox.pending(), 1);
    }

    #[test]
    fn recv_timeout_parse_rules() {
        let def = DEFAULT_RECV_TIMEOUT;
        assert_eq!(parse_recv_timeout_ms(None), def);
        assert_eq!(parse_recv_timeout_ms(Some("")), def);
        assert_eq!(parse_recv_timeout_ms(Some("banana")), def);
        assert_eq!(parse_recv_timeout_ms(Some("0")), def);
        assert_eq!(parse_recv_timeout_ms(Some("-5")), def);
        assert_eq!(
            parse_recv_timeout_ms(Some("2500")),
            Duration::from_millis(2500)
        );
        assert_eq!(
            parse_recv_timeout_ms(Some("  750 ")),
            Duration::from_millis(750)
        );
    }
}
