//! Multi-process socket transport: ranks are OS processes joined by a
//! rank×rank UNIX-domain socket mesh.
//!
//! Topology: each pair of ranks shares one duplex stream, one end of a
//! `socketpair` the launcher made before it forked either rank
//! (`crate::launch`). A rank process starts holding its `p − 1` ends, so
//! there is nothing to dial, accept or name: the mesh is up from the rank's
//! first instruction, and only the two ranks of a pair hold its ends.
//!
//! ## The rank thread does its own I/O
//!
//! Every stream is nonblocking, and the thread that sends or receives
//! moves the bytes itself:
//!
//! * **Send.** The sending thread writes the whole frame onto the peer's
//!   stream under that peer's write lock: the header, then the payload's
//!   words straight from its buffer ([`wire::write_message`]). While the
//!   stream is full it reads its own inbound streams, so two ranks
//!   sending large payloads head-on cannot deadlock on full kernel
//!   buffers.
//! * **Receive.** A receive that finds nothing matchable in the mailbox
//!   reads the mesh itself: it `poll`s the peer streams and reads each
//!   message body straight into the buffer its payload will own
//!   ([`wire::FrameReader`]), delivering into the mailbox this process
//!   hosts — the *same* mailbox, scan loop and visibility handling as the
//!   in-process transport, so matching order, per-channel FIFO and poison
//!   draining are backend-invariant. One thread at a time reads the mesh
//!   (the inbound lock); a receive that finds another thread reading waits
//!   on its mailbox shard until that thread delivers or lets go.
//! * **The monitor** is the one service thread. Each heartbeat period it
//!   reads whatever arrived while no comm call was reading (it only
//!   try-locks), so a sender waits at most one period for a busy
//!   destination, and it sends the heartbeats.
//!
//! A wake pair (a `socketpair` the mesh polls) ends any wait on the mesh
//! at once when the world is poisoned, or when another thread of the
//! rank sends to it while a receive polls.
//!
//! Control frames that a thread other than the writer produces (`Crash`
//! notices, heartbeats) go to a per-peer outbox of whole frames, which
//! whoever holds the stream's write lock puts on the wire between data
//! frames; producing one never waits on a stream.
//!
//! Liveness over processes is three-layered:
//!
//! 1. **Crash frames.** A crashing rank broadcasts `Crash`; peers mark it
//!    dead, poison their world, and wake their receivers.
//! 2. **Stream death.** A hard-killed process can send nothing, so a stream
//!    reaching end-of-file *without* a `Fin` frame — or dying mid-frame
//!    ([`crate::XmpiError::Truncated`]) — marks the peer dead exactly like
//!    a `Crash`. The torn frame's bytes are dropped, never delivered and
//!    never counted.
//! 3. **Heartbeats.** A *hung* rank — alive but silent, its streams still
//!    open — defeats both of the above. The monitor thread sends a
//!    `Ping` control frame to every peer each `XMPI_HEARTBEAT_MS`
//!    (default 100, `0` disables the monitor) and suspects any peer not
//!    heard from — any frame counts — for `XMPI_SUSPECT_MS`
//!    (default 30000, `0` disables suspicion). A suspected peer is
//!    declared dead, so blocked receivers observe a typed
//!    [`crate::XmpiError::RankDead`] within the suspicion window instead
//!    of hanging until the receive deadlock timeout. Peers that sent `Fin`
//!    have finished cleanly and are exempt.
//!
//! First-hand death observations (truncation, EOF, suspicion) are
//! **gossiped**: the observer forwards one `Crash(victim)` frame to every
//! peer — including the victim, which then poisons its own world when it
//! reads it, so the victim's process unwinds typed instead of computing
//! into a torn mesh. [`crate::liveness::Liveness::kill`] returns whether
//! the kill was new, which bounds the gossip to one broadcast per victim
//! per process.
//!
//! Because each pair's frames travel one ordered stream, every message
//! sent before a death is ahead of the death on the stream, and a receive
//! that finds the world poisoned reads what the kernel already holds
//! before it fails — the delivered-messages-survive-poisoning property
//! the in-process backend guarantees by construction.
//!
//! ## Injected wire faults
//!
//! The sending thread executes the [`WireFault`] decided by the armed
//! [`crate::SchedHooks::wire_fault`] for its frame: a torn write splits
//! the frame around a stall, during which the sender reads the mesh (the
//! peer's reader reassembles it — observably benign), a reset writes a
//! prefix and shuts the stream's write half down (the peer observes layer
//! 2), and a hang latches the whole mesh silent — data, `Fin`s,
//! heartbeats — until the peers' failure detectors fire (layer 3).
//! Nothing can refuse a connection: the mesh has none to make.

use crate::comm::{ChannelKey, Mailbox, Payload, Shard, ShardGuard};
use crate::error::XmpiError;
use crate::hooks::WireFault;
use crate::liveness::Liveness;
use crate::sys::{self, PollFd};
use crate::transport::Transport;
use crate::wire::{self, Frame, FrameKind, FrameReader, Incoming, Step};
use parking_lot::Mutex;
use std::ffi::c_short;
use std::io::{self, IoSlice, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Heartbeat period (`XMPI_HEARTBEAT_MS`, default 100 ms; `0` disables the
/// monitor thread entirely — and with it suspicion). Read once per process.
fn heartbeat_ms() -> u64 {
    static CACHE: OnceLock<u64> = OnceLock::new();
    *CACHE.get_or_init(|| env_u64("XMPI_HEARTBEAT_MS", 100))
}

/// Suspicion window (`XMPI_SUSPECT_MS`, default 30000 ms; `0` disables
/// suspicion while keeping heartbeats flowing). Read once per process.
fn suspect_ms() -> u64 {
    static CACHE: OnceLock<u64> = OnceLock::new();
    *CACHE.get_or_init(|| env_u64("XMPI_SUSPECT_MS", 30_000))
}

/// Read every knob of this module now. The launcher calls this before it
/// forks, so a rank process finds them cached and never reads the
/// environment, whose lock another thread of the launcher may hold.
pub(crate) fn read_knobs() {
    heartbeat_ms();
    suspect_ms();
}

/// Parse an environment knob as `u64` (trimmed); unset or junk means
/// `default`, mirroring the `CONFLUX_RECV_TIMEOUT_MS` contract.
pub(crate) fn env_u64(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

/// One peer's end of the mesh.
struct Peer {
    /// The stream this rank shares with the peer (nonblocking). Read only
    /// under [`Mesh::inbound`], written only under `closed`.
    stream: UnixStream,
    /// The write lock, held for the whole of a frame so frames never
    /// interleave. `true` once the stream takes no more frames: after a
    /// write error, an injected reset, or this rank's final frame.
    closed: Mutex<bool>,
    /// Whole control frames waiting for the stream, put on the wire by the
    /// next holder of the write lock before its own frame.
    outbox: Mutex<Vec<u8>>,
}

/// The reading side of the mesh, held by the one thread reading it.
struct Inbound {
    /// Per peer, the frame reader of its stream; `None` at this rank and
    /// once the stream is done (`Fin`, end of stream, malformed frame).
    readers: Vec<Option<FrameReader>>,
    /// The `poll` set of one wait, kept to reuse its allocation.
    fds: Vec<PollFd>,
    /// The peer of each polled stream.
    polled: Vec<usize>,
}

/// State shared by this rank's threads: the rank program's and the
/// monitor.
struct Mesh {
    my_rank: usize,
    p: usize,
    own: Mailbox,
    liveness: Arc<Liveness>,
    /// Indexed by world rank (`None` at `my_rank`).
    peers: Vec<Option<Peer>>,
    inbound: Mutex<Inbound>,
    /// Receives parked on their mailbox shard because another thread held
    /// `inbound`; whoever lets go of it wakes them.
    waiters: AtomicUsize,
    /// A receive holds `inbound` to poll the mesh: a self-send from another
    /// thread must wake it.
    polling: AtomicBool,
    /// The wake pair: a byte written to `kick` ends any wait that polls
    /// `wake`.
    wake: UnixStream,
    kick: UnixStream,
    /// Milliseconds since `epoch` when each peer was last heard from (any
    /// frame counts, heartbeats included). Indexed by world rank.
    last_heard: Vec<AtomicU64>,
    /// Peers that closed cleanly with `Fin` — exempt from suspicion.
    finished: Vec<AtomicBool>,
    /// An injected [`WireFault::Hang`] fired: this rank transmits nothing
    /// from now on (data, `Fin`s, heartbeats) while staying alive. Only the
    /// peers' failure detectors can classify it.
    hung: AtomicBool,
    /// Mesh teardown has begun: stops the monitor.
    quit: AtomicBool,
    /// Time origin for `last_heard`.
    epoch: Instant,
}

impl Mesh {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn heard_from(&self, peer: usize) {
        self.last_heard[peer].store(self.now_ms(), Ordering::Relaxed);
    }

    fn peer(&self, rank: usize) -> &Peer {
        self.peers[rank].as_ref().expect("a peer rank")
    }

    /// End any wait on the mesh now.
    fn kick(&self) {
        let _ = (&self.kick).write(&[1]);
    }

    /// Let go of `inbound`, then wake the receives that waited for it.
    fn release(&self, inbound: parking_lot::MutexGuard<'_, Inbound>) {
        drop(inbound);
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.own.wake();
        }
    }

    /// First-hand death observation: mark `victim` dead, and — exactly once
    /// per victim per process — gossip a `Crash(victim)` frame to every
    /// peer (including the victim itself, which then poisons its own
    /// world). Always wakes local receivers.
    fn declare_dead(&self, victim: usize) {
        if self.liveness.kill(victim) {
            self.broadcast(FrameKind::Crash, victim);
        }
        self.kick();
        self.own.wake();
    }

    /// Queue a control frame naming `src` for every peer and put on the
    /// wire what the streams take now. Never waits on a stream.
    fn broadcast(&self, kind: FrameKind, src: usize) {
        for peer in self.peers.iter().flatten() {
            self.post(peer, kind, src);
        }
    }

    /// Queue a control frame naming `src` for `peer`, unless this rank is
    /// hung, and put what the stream takes on the wire if no other thread
    /// is writing to it.
    fn post(&self, peer: &Peer, kind: FrameKind, src: usize) {
        if self.hung.load(Ordering::SeqCst) {
            return;
        }
        wire::write_frame(&mut *peer.outbox.lock(), &Frame::control(kind, src))
            .expect("in-memory frame encode");
        if let Some(closed) = peer.closed.try_lock() {
            if !*closed {
                self.flush_outbox(peer, false);
            }
        }
    }

    /// With `peer`'s write lock held: write its outbox, waiting while the
    /// stream is full if `wait`, else as far as the stream takes it now
    /// (the rest stays queued, in order). `false` if the stream failed.
    fn flush_outbox(&self, peer: &Peer, wait: bool) -> bool {
        let bytes = std::mem::take(&mut *peer.outbox.lock());
        if bytes.is_empty() {
            return true;
        }
        let mut done = 0;
        while done < bytes.len() {
            match (&peer.stream).write(&bytes[done..]) {
                Ok(0) => return false,
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !wait {
                        peer.outbox
                            .lock()
                            .splice(0..0, bytes[done..].iter().copied());
                        return true;
                    }
                    self.await_writable(&peer.stream);
                }
                Err(_) => return false,
            }
        }
        true
    }

    /// Wait until `stream` may take more bytes, reading the mesh meanwhile
    /// so a peer blocked writing to this rank makes progress too.
    fn await_writable(&self, stream: &UnixStream) {
        let mut inbound = self.inbound.lock();
        self.progress(&mut inbound, Some((stream.as_raw_fd(), sys::POLLOUT)), None);
        self.release(inbound);
    }

    /// Wait `total`, reading the mesh meanwhile (a torn write's stall).
    fn pause(&self, total: Duration) {
        let until = Instant::now() + total;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            let mut inbound = self.inbound.lock();
            self.progress(&mut inbound, None, Some(left));
            self.release(inbound);
        }
    }

    /// One wait on the mesh, with `inbound` held: poll the wake pair, every
    /// open peer stream and `also`, for at most `timeout` (`None`: until
    /// one is ready), then read every ready stream as far as it has bytes.
    fn progress(
        &self,
        inbound: &mut Inbound,
        also: Option<(RawFd, c_short)>,
        timeout: Option<Duration>,
    ) {
        let Inbound {
            readers,
            fds,
            polled,
        } = inbound;
        fds.clear();
        polled.clear();
        let pollfd = |fd: RawFd, events: c_short| PollFd {
            fd,
            events,
            revents: 0,
        };
        fds.push(pollfd(self.wake.as_raw_fd(), sys::POLLIN));
        fds.extend(also.map(|(fd, events)| pollfd(fd, events)));
        let first = fds.len();
        for (rank, reader) in readers.iter().enumerate() {
            if reader.is_some() {
                fds.push(pollfd(self.peer(rank).stream.as_raw_fd(), sys::POLLIN));
                polled.push(rank);
            }
        }
        sys::wait_ready(fds, timeout);
        if fds[0].revents != 0 {
            let mut sink = [0u8; 64];
            while matches!((&self.wake).read(&mut sink), Ok(n) if n > 0) {}
        }
        for (k, &rank) in polled.iter().enumerate() {
            if fds[first + k].revents != 0 {
                self.read_peer(&mut readers[rank], rank);
            }
        }
    }

    /// Read `peer`'s stream as far as it has bytes, handling each whole
    /// frame. `Fin` is an orderly close; `Crash`, a malformed or torn
    /// frame, or an end of stream without `Fin` mark a rank dead
    /// (gossiping first-hand observations). Every frame — heartbeats
    /// included — refreshes the peer's liveness clock.
    fn read_peer(&self, slot: &mut Option<FrameReader>, peer: usize) {
        let Some(reader) = slot else { return };
        loop {
            match reader.read_from(&mut &self.peer(peer).stream) {
                Ok(Step::Pending) => return,
                Ok(Step::Frame(frame)) => {
                    self.heard_from(peer);
                    if !self.handle(frame, peer) {
                        *slot = None;
                        return;
                    }
                }
                // End of stream at a frame boundary without Fin (the
                // process died hard), or a stream cut mid-frame
                // (`Truncated` — a reset): the torn frame's bytes are
                // dropped, never double-counted.
                Ok(Step::Eof) | Err(_) => {
                    *slot = None;
                    self.declare_dead(peer);
                    return;
                }
            }
        }
    }

    /// Act on one frame from `peer`; whether to keep reading its stream.
    fn handle(&self, frame: Incoming, peer: usize) -> bool {
        let f = match frame {
            Incoming::Message {
                key,
                delay_ns,
                payload,
            } => {
                let visible_at =
                    (delay_ns > 0).then(|| Instant::now() + Duration::from_nanos(delay_ns));
                self.own.deliver(key, payload, visible_at);
                return true;
            }
            Incoming::Control(f) => f,
        };
        match f.kind {
            FrameKind::Ping => true,
            FrameKind::Fin => {
                self.finished[peer].store(true, Ordering::SeqCst);
                false
            }
            // The frame names the crashed rank (usually the peer itself,
            // but forwarded death notices — possibly naming *this* rank —
            // stay correct either way).
            FrameKind::Crash if (f.src as usize) < self.p => {
                self.declare_dead(f.src as usize);
                true
            }
            _ => {
                self.declare_dead(peer);
                false
            }
        }
    }

    /// Put one message frame on `dst`'s stream, after what its outbox
    /// holds, executing the injected `fault`. Waits (reading the mesh)
    /// while the stream is full.
    fn send(
        &self,
        dst: usize,
        key: ChannelKey,
        payload: &Payload,
        delay_ns: u64,
        fault: WireFault,
    ) {
        let peer = self.peer(dst);
        let mut closed = peer.closed.lock();
        if *closed || self.hung.load(Ordering::SeqCst) {
            return;
        }
        if !self.flush_outbox(peer, true) {
            *closed = true;
            return;
        }
        let frame_len = wire::HEADER_LEN + payload.bytes() as usize;
        let mut out = Outgoing { mesh: self, peer };
        let write = |mut w: &mut dyn Write| {
            wire::write_message(&mut w, key.0, key.1, key.2, delay_ns, payload)
        };
        let sent = match fault {
            WireFault::Deliver => write(&mut out),
            WireFault::Torn { prefix, stall } => write(&mut Torn {
                inner: &mut out,
                before: prefix.clamp(1, frame_len - 1),
                stall: Some(stall),
            }),
            WireFault::Reset { prefix } => {
                let _ = write(&mut Cut {
                    inner: &mut out,
                    left: prefix.min(frame_len - 1),
                });
                // Close only our write half: the peer observes a mid-frame
                // EOF, while frames the peer is still sending us stay
                // readable.
                let _ = peer.stream.shutdown(std::net::Shutdown::Write);
                Err(io::ErrorKind::ConnectionReset.into())
            }
            WireFault::Hang => {
                // Latch the whole mesh silent; this frame and every later
                // frame to ANY peer is dropped. Peers can only find out
                // via suspicion.
                self.hung.store(true, Ordering::SeqCst);
                return;
            }
        };
        // A failed write means the peer's process is gone (its death is
        // observed on the reading side) or the stream was reset.
        *closed = sent.is_err() || !self.flush_outbox(peer, false);
    }

    /// Put this rank's final frame (`Fin` or `Crash`) on `peer`'s stream,
    /// after its outbox, and take no more frames there.
    fn finish(&self, peer: &Peer, kind: FrameKind) {
        let mut closed = peer.closed.lock();
        if *closed || self.hung.load(Ordering::SeqCst) {
            return;
        }
        *closed = true;
        if self.flush_outbox(peer, true) {
            let mut frame = Vec::new();
            wire::write_frame(&mut frame, &Frame::control(kind, self.my_rank))
                .expect("in-memory frame encode");
            let _ = Outgoing { mesh: self, peer }.write_all(&frame);
        }
    }
}

/// A peer's stream as a blocking writer: while the stream is full, the
/// writing thread reads the mesh.
struct Outgoing<'a> {
    mesh: &'a Mesh,
    peer: &'a Peer,
}

impl Write for Outgoing<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        loop {
            match (&self.peer.stream).write_vectored(bufs) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.mesh.await_writable(&self.peer.stream);
                }
                done => return done,
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An injected torn write: the first `before` bytes, then a stall (the
/// writer reads the mesh through it), then the rest.
struct Torn<'a, 'm> {
    inner: &'a mut Outgoing<'m>,
    before: usize,
    stall: Option<Duration>,
}

impl Write for Torn<'_, '_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.before > 0 {
            let n = self.inner.write(&buf[..buf.len().min(self.before)])?;
            self.before -= n;
            return Ok(n);
        }
        if let Some(stall) = self.stall.take() {
            self.inner.mesh.pause(stall);
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An injected reset's prefix: `left` bytes, then a failed write.
struct Cut<'a, 'm> {
    inner: &'a mut Outgoing<'m>,
    left: usize,
}

impl Write for Cut<'_, '_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        let n = self.inner.write(&buf[..buf.len().min(self.left)])?;
        self.left -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The socket-mesh [`Transport`]: hosts exactly one rank's mailbox and
/// reaches every other rank over its stream.
pub(crate) struct SocketTransport {
    mesh: Arc<Mesh>,
    monitor: Mutex<Option<JoinHandle<()>>>,
}

/// Log a failure to start the mesh and map it to the typed launch error
/// the supervisor expects.
fn setup_failed(my_rank: usize, what: &str, e: &std::io::Error) -> XmpiError {
    eprintln!("xmpi socket mesh rank {my_rank}: {what}: {e}");
    XmpiError::LaunchFailed { rank: my_rank }
}

impl SocketTransport {
    /// The mesh of `my_rank` over `streams`, its stream to every peer
    /// indexed by world rank (`None` at `my_rank`): makes the streams
    /// nonblocking and starts the heartbeat monitor.
    ///
    /// # Errors
    /// [`XmpiError::LaunchFailed`] if a socket cannot be set up or the
    /// monitor thread cannot be spawned. Never panics.
    pub(crate) fn new(
        streams: Vec<Option<UnixStream>>,
        my_rank: usize,
        liveness: Arc<Liveness>,
    ) -> Result<Arc<SocketTransport>, XmpiError> {
        let p = streams.len();
        let failed = |what: &'static str| move |e: std::io::Error| setup_failed(my_rank, what, &e);
        let (wake, kick) = UnixStream::pair().map_err(failed("make the wake pair"))?;
        for s in streams.iter().flatten().chain([&wake, &kick]) {
            s.set_nonblocking(true)
                .map_err(failed("make a socket nonblocking"))?;
        }
        let readers = streams
            .iter()
            .map(|s| s.as_ref().map(|_| FrameReader::default()))
            .collect();
        let peers = streams
            .into_iter()
            .map(|s| {
                s.map(|stream| Peer {
                    stream,
                    closed: Mutex::new(false),
                    outbox: Mutex::new(Vec::new()),
                })
            })
            .collect();
        let mesh = Arc::new(Mesh {
            my_rank,
            p,
            own: Mailbox::default(),
            liveness,
            peers,
            inbound: Mutex::new(Inbound {
                readers,
                fds: Vec::with_capacity(p + 1),
                polled: Vec::with_capacity(p),
            }),
            waiters: AtomicUsize::new(0),
            polling: AtomicBool::new(false),
            wake,
            kick,
            last_heard: (0..p).map(|_| AtomicU64::new(0)).collect(),
            finished: (0..p).map(|_| AtomicBool::new(false)).collect(),
            hung: AtomicBool::new(false),
            quit: AtomicBool::new(false),
            epoch: Instant::now(),
        });
        let monitor = if heartbeat_ms() > 0 && p > 1 {
            let mesh_m = mesh.clone();
            Some(
                std::thread::Builder::new()
                    .name(format!("xmpi-hb{my_rank}"))
                    .spawn(move || monitor_loop(&mesh_m))
                    .map_err(failed("spawn the monitor thread"))?,
            )
        } else {
            None
        };
        Ok(Arc::new(SocketTransport {
            mesh,
            monitor: Mutex::new(monitor),
        }))
    }

    /// Tear the mesh down. A clean shutdown sends `Fin` to every peer and
    /// then reads until every peer has sent its own `Fin` or its stream
    /// ended (so no process closes a stream a sibling is still writing
    /// to); a crashed shutdown sends `Crash` and leaves without waiting —
    /// peers observe the frames (or the EOF) and poison themselves. A hung
    /// mesh transmits neither; peers find out through their failure
    /// detectors and the eventual EOF.
    pub(crate) fn shutdown(&self, crashed: bool) {
        let mesh = &self.mesh;
        let kind = if crashed {
            FrameKind::Crash
        } else {
            FrameKind::Fin
        };
        for peer in mesh.peers.iter().flatten() {
            mesh.finish(peer, kind);
        }
        mesh.quit.store(true, Ordering::SeqCst);
        if let Some(h) = self.monitor.lock().take() {
            // The monitor parks between heartbeats; wake it to see `quit`.
            h.thread().unpark();
            let _ = h.join();
        }
        if !crashed {
            let mut inbound = mesh.inbound.lock();
            while inbound.readers.iter().any(Option::is_some) {
                mesh.progress(&mut inbound, None, None);
            }
        }
    }
}

/// The failure detector, and the mesh's reader while no comm call reads
/// it: each `XMPI_HEARTBEAT_MS`, read what has arrived if the mesh is
/// free, ping every peer with nothing queued for it, and declare dead any
/// live, unfinished peer silent for longer than `XMPI_SUSPECT_MS`. Pings
/// bypass the chaos consult and the byte counters — they are
/// transport-internal, not traffic. Between beats the thread parks;
/// [`SocketTransport::shutdown`] unparks it.
fn monitor_loop(mesh: &Mesh) {
    let period = Duration::from_millis(heartbeat_ms());
    let suspect = suspect_ms();
    loop {
        let deadline = Instant::now() + period;
        loop {
            if mesh.quit.load(Ordering::SeqCst) {
                return;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::park_timeout(left);
        }
        if let Some(mut inbound) = mesh.inbound.try_lock() {
            mesh.progress(&mut inbound, None, Some(Duration::ZERO));
            mesh.release(inbound);
        }
        for peer in mesh.peers.iter().flatten() {
            if peer.outbox.lock().is_empty() {
                mesh.post(peer, FrameKind::Ping, mesh.my_rank);
            } else if let Some(closed) = peer.closed.try_lock() {
                if !*closed {
                    mesh.flush_outbox(peer, false);
                }
            }
        }
        if suspect == 0 {
            continue;
        }
        let now = mesh.now_ms();
        for r in 0..mesh.p {
            if r == mesh.my_rank
                || mesh.finished[r].load(Ordering::SeqCst)
                || mesh.liveness.is_dead(r)
                || mesh.peers[r].is_none()
            {
                continue;
            }
            if now.saturating_sub(mesh.last_heard[r].load(Ordering::Relaxed)) > suspect {
                eprintln!(
                    "xmpi rank {}: peer rank {r} silent for over {suspect} ms; declaring it dead",
                    mesh.my_rank
                );
                mesh.declare_dead(r);
            }
        }
    }
}

impl Transport for SocketTransport {
    fn size(&self) -> usize {
        self.mesh.p
    }

    fn deliver(
        &self,
        dst_world: usize,
        key: ChannelKey,
        payload: Payload,
        delay: Option<Duration>,
    ) {
        self.deliver_faulted(dst_world, key, payload, delay, WireFault::Deliver);
    }

    fn deliver_faulted(
        &self,
        dst_world: usize,
        key: ChannelKey,
        payload: Payload,
        delay: Option<Duration>,
        fault: WireFault,
    ) {
        let mesh = &self.mesh;
        if dst_world == mesh.my_rank {
            // Self-sends stay in-process and zero-copy (and are never
            // consulted for faults — there is no wire to break).
            let visible_at = delay.map(|d| Instant::now() + d);
            mesh.own.deliver(key, payload, visible_at);
            if mesh.polling.load(Ordering::SeqCst) {
                mesh.kick();
            }
            return;
        }
        let delay_ns = delay.map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        mesh.send(dst_world, key, &payload, delay_ns, fault);
    }

    fn is_interprocess(&self) -> bool {
        true
    }

    fn mailbox(&self, world_rank: usize) -> &Mailbox {
        assert_eq!(
            world_rank, self.mesh.my_rank,
            "socket transport hosts only rank {} in this process",
            self.mesh.my_rank
        );
        &self.mesh.own
    }

    fn announce_crash(&self, src_world: usize) {
        self.mesh.broadcast(FrameKind::Crash, src_world);
        self.mesh.kick();
        self.mesh.own.wake();
    }

    /// Read the mesh until `until` or until something arrives, if no other
    /// thread is reading it; else wait on `shard` for that thread to
    /// deliver or let go.
    fn await_arrival<'a>(
        &self,
        shard: &'a Shard,
        mut channels: ShardGuard<'a>,
        until: Instant,
    ) -> ShardGuard<'a> {
        let mesh = &self.mesh;
        // Counted before the try: a holder that lets go after a failed
        // try sees the count and wakes this shard.
        mesh.waiters.fetch_add(1, Ordering::SeqCst);
        let Some(mut inbound) = mesh.inbound.try_lock() else {
            shard.wait(&mut channels, until);
            mesh.waiters.fetch_sub(1, Ordering::SeqCst);
            return channels;
        };
        mesh.waiters.fetch_sub(1, Ordering::SeqCst);
        // Set while the shard is still locked: a self-send that lands after
        // the unlock sees it and kicks the poll.
        mesh.polling.store(true, Ordering::SeqCst);
        drop(channels);
        let left = until.saturating_duration_since(Instant::now());
        mesh.progress(&mut inbound, None, Some(left));
        mesh.polling.store(false, Ordering::SeqCst);
        mesh.release(inbound);
        shard.lock()
    }
}
