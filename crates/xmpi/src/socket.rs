//! Multi-process socket transport: ranks are OS processes joined by a
//! rank×rank UNIX-domain socket mesh.
//!
//! Topology: every rank binds a listener at `rank_<r>.sock` in the world's
//! scratch directory; rank `s` *connects* to every lower rank `r < s`
//! (opening the connection with a `Hello` frame naming itself) and
//! *accepts* one connection from every higher rank. Each pair shares one
//! duplex stream.
//!
//! Per peer, two service threads preserve the shared layer's contracts:
//!
//! * a **writer** thread drains an unbounded queue onto the socket, so
//!   `deliver` never blocks (buffered-send semantics) and two ranks
//!   head-on-sending large payloads cannot deadlock on full kernel buffers;
//! * a **reader** thread decodes frames and enqueues message payloads into
//!   the mailbox this process hosts — the *same* mailbox, scan loop, and
//!   visibility handling as the in-process transport, so matching order,
//!   per-channel FIFO, and poison draining are backend-invariant.
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
//!    open — defeats both of the above. A per-mesh monitor thread sends a
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
//! peer — including the victim, whose reader then poisons its own world so
//! the victim's process unwinds typed instead of computing into a torn
//! mesh. [`crate::liveness::Liveness::kill`] returns whether the kill was
//! new, which bounds the gossip to one broadcast per victim per process.
//!
//! Because each pair's frames travel one ordered stream, every message
//! delivered before a death is enqueued before the death is observed — the
//! delivered-messages-survive-poisoning property the in-process backend
//! guarantees by construction.
//!
//! ## Injected wire faults
//!
//! The writer threads execute [`WireFault`]s decided by an armed
//! [`crate::netfault::NetFaults`] plan (carried per-frame from the shared
//! send path): a torn write splits the frame around a stall (the peer's
//! read loop reassembles it — observably benign), a reset writes a prefix
//! and shuts the stream's write half down (the peer observes layer 2), and
//! a hang latches the whole mesh silent — data, `Fin`s, heartbeats — until
//! the peers' failure detectors fire (layer 3). Dial attempts consult
//! [`crate::netfault::NetFaults::connect_fault`] and are bounded by
//! `XMPI_CONNECT_RETRIES` capped-exponential-backoff attempts
//! ([`backoff_delay`]), degrading to a typed
//! [`XmpiError::LaunchFailed`] — never an unbounded dial loop.

use crate::comm::{ChannelKey, Mailbox, Payload};
use crate::error::XmpiError;
use crate::liveness::Liveness;
use crate::netfault::{ConnectFault, NetFaults, WireFault};
use crate::transport::Transport;
use crate::wire::{self, Frame, FrameKind};
use parking_lot::Mutex;
use std::io::Write as _;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
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

/// Mesh dial attempt budget (`XMPI_CONNECT_RETRIES`, default 120 — about
/// 27 s under [`backoff_delay`]). Read once per process.
fn connect_retries() -> u64 {
    static CACHE: OnceLock<u64> = OnceLock::new();
    *CACHE.get_or_init(|| env_u64("XMPI_CONNECT_RETRIES", 120).max(1))
}

/// Accept-side handshake deadline (`XMPI_HANDSHAKE_TIMEOUT_MS`, default
/// 30000 ms). Read once per process.
fn handshake_timeout() -> Duration {
    static CACHE: OnceLock<Duration> = OnceLock::new();
    *CACHE
        .get_or_init(|| Duration::from_millis(env_u64("XMPI_HANDSHAKE_TIMEOUT_MS", 30_000).max(1)))
}

/// Read every knob of this module now. The launcher calls this before it
/// forks, so a rank process finds them cached and never reads the
/// environment, whose lock another thread of the launcher may hold.
pub(crate) fn read_knobs() {
    heartbeat_ms();
    suspect_ms();
    connect_retries();
    handshake_timeout();
}

/// Parse an environment knob as `u64` (trimmed); unset or junk means
/// `default`, mirroring the `CONFLUX_RECV_TIMEOUT_MS` contract.
pub(crate) fn env_u64(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

/// Capped exponential backoff before dial attempt `attempt + 1`:
/// `min(100 µs << attempt, 250 ms)`. A dial that merely races a sibling's
/// `bind` retries within a tenth of a millisecond. Pure so the schedule is
/// unit-testable.
pub(crate) fn backoff_delay(attempt: u64) -> Duration {
    // From attempt 12 on, the shift is past the cap (and never overflows).
    Duration::from_micros((100u64 << attempt.min(12)).min(250_000))
}

/// Socket path for a rank's mesh listener.
pub(crate) fn rank_sock(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank_{rank}.sock"))
}

/// What a peer's writer thread is told to do next.
enum WriterMsg {
    /// Put this frame on the wire, subject to its injected fault.
    Frame(Frame, WireFault),
    /// Put this final frame (`Fin` or `Crash`) on the wire, flush, and exit.
    Close(Frame),
}

struct PeerTx {
    tx: mpsc::Sender<WriterMsg>,
}

/// State shared by this rank's service threads (writers, readers, monitor).
struct Mesh {
    my_rank: usize,
    p: usize,
    own: Mailbox,
    liveness: Arc<Liveness>,
    /// Per-peer writer queues, indexed by world rank (`None` at `my_rank`).
    peers: Vec<Option<PeerTx>>,
    /// Milliseconds since `epoch` when each peer was last heard from (any
    /// frame counts, heartbeats included). Indexed by world rank.
    last_heard: Vec<AtomicU64>,
    /// Peers that closed cleanly with `Fin` — exempt from suspicion.
    finished: Vec<AtomicBool>,
    /// An injected [`WireFault::Hang`] fired: this rank transmits nothing
    /// from now on (data, `Fin`s, heartbeats) while staying alive. Only the
    /// peers' failure detectors can classify it.
    hung: AtomicBool,
    /// Mesh teardown has begun: interrupts torn-write stalls and stops the
    /// monitor promptly.
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

    /// First-hand death observation: mark `victim` dead, and — exactly once
    /// per victim per process — gossip a `Crash(victim)` frame to every
    /// peer (including the victim itself, whose reader then poisons its own
    /// world). Always wakes local receivers.
    fn declare_dead(&self, victim: usize) {
        if self.liveness.kill(victim) {
            for peer in self.peers.iter().flatten() {
                let _ = peer.tx.send(WriterMsg::Frame(
                    Frame::control(FrameKind::Crash, victim),
                    WireFault::Deliver,
                ));
            }
        }
        self.own.wake();
    }
}

/// The socket-mesh [`Transport`]: hosts exactly one rank's mailbox and
/// reaches every other rank over its stream.
pub(crate) struct SocketTransport {
    mesh: Arc<Mesh>,
    writers: Mutex<Vec<JoinHandle<()>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    monitor: Mutex<Option<JoinHandle<()>>>,
}

/// Dial `peer`'s listener with a bounded capped-exponential-backoff budget,
/// consulting the ambient chaos plan per attempt.
///
/// An injected [`ConnectFault::Refuse`] burns an attempt *without*
/// sleeping, so a persistently refusing plan degrades into a fast typed
/// [`XmpiError::LaunchFailed`]; a real dial error sleeps
/// [`backoff_delay`] before the next attempt (the peer's process may still
/// be starting up).
fn connect_retry(
    dir: &Path,
    my_rank: usize,
    peer: usize,
    net: Option<&Arc<dyn NetFaults>>,
) -> Result<UnixStream, XmpiError> {
    let path = rank_sock(dir, peer);
    let budget = connect_retries();
    for attempt in 0..budget {
        match net.map_or(ConnectFault::Allow, |n| {
            n.connect_fault(my_rank, peer, attempt)
        }) {
            ConnectFault::Refuse => continue,
            ConnectFault::Delay(d) => std::thread::sleep(d),
            ConnectFault::Allow => {}
        }
        match UnixStream::connect(&path) {
            Ok(s) => return Ok(s),
            Err(_) => std::thread::sleep(backoff_delay(attempt)),
        }
    }
    Err(XmpiError::LaunchFailed {
        rank: peer,
        attempts: budget,
    })
}

/// Accept one stream from every rank above `my_rank`, each opening with a
/// `Hello` frame that says who dialed, into `streams`. Blocks in `accept`;
/// the handshake deadline is kept by a watchdog thread that parks until
/// then and, if the accepts are still pending, dials `listener` itself.
/// Its connection carries no `Hello`, so the handshake fails as timed out.
fn accept_peers(
    listener: &UnixListener,
    dir: &Path,
    my_rank: usize,
    deadline: Instant,
    streams: &mut [Option<UnixStream>],
) -> Result<(), XmpiError> {
    let p = streams.len();
    if my_rank + 1 >= p {
        return Ok(());
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let watchdog = std::thread::Builder::new()
            .name(format!("xmpi-accept{my_rank}"))
            .spawn_scoped(s, || {
                while !done.load(Ordering::SeqCst) {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        let _ = UnixStream::connect(rank_sock(dir, my_rank));
                        return;
                    }
                    std::thread::park_timeout(left);
                }
            })
            .map_err(|e| handshake_failed(my_rank, "spawn accept watchdog", &e))?;
        let accepted = (my_rank + 1..p).try_for_each(|_| {
            let (mut s, _) = listener
                .accept()
                .map_err(|e| handshake_failed(my_rank, "accept peer", &e))?;
            let hello = wire::read_frame(&mut s).ok().flatten();
            let peer = match hello {
                Some(f) if f.kind == FrameKind::Hello => f.src as usize,
                _ if Instant::now() >= deadline => {
                    return Err(handshake_failed(
                        my_rank,
                        "accept peer",
                        &std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "timed out waiting for higher ranks to dial in",
                        ),
                    ))
                }
                _ => {
                    return Err(handshake_failed(
                        my_rank,
                        "read Hello",
                        &std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "peer opened without a Hello frame",
                        ),
                    ))
                }
            };
            if peer >= p || streams[peer].is_some() {
                return Err(handshake_failed(
                    my_rank,
                    "validate Hello",
                    &std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bogus or duplicate Hello from rank {peer}"),
                    ),
                ));
            }
            streams[peer] = Some(s);
            Ok(())
        });
        done.store(true, Ordering::SeqCst);
        watchdog.thread().unpark();
        accepted
    })
}

/// Log a handshake I/O failure and map it to the typed launch error the
/// supervisor expects.
fn handshake_failed(my_rank: usize, what: &str, e: &std::io::Error) -> XmpiError {
    eprintln!("xmpi socket mesh rank {my_rank}: {what}: {e}");
    XmpiError::LaunchFailed {
        rank: my_rank,
        attempts: 1,
    }
}

impl SocketTransport {
    /// Build the mesh for `my_rank` of a `p`-rank world rooted at `dir`.
    /// Blocks until every pairwise stream is up (a natural start barrier).
    ///
    /// # Errors
    /// [`XmpiError::LaunchFailed`] if a sibling rank never comes up within
    /// the bounded dial budget, the accept deadline expires, or a
    /// handshake frame is malformed. Never hangs and never panics.
    pub(crate) fn connect(
        dir: &Path,
        my_rank: usize,
        p: usize,
        liveness: Arc<Liveness>,
    ) -> Result<Arc<SocketTransport>, XmpiError> {
        let net = crate::netfault::armed();
        let listener = UnixListener::bind(rank_sock(dir, my_rank))
            .map_err(|e| handshake_failed(my_rank, "bind listener", &e))?;
        let deadline = Instant::now() + handshake_timeout();

        // One stream per peer, indexed by world rank.
        let mut streams: Vec<Option<UnixStream>> = (0..p).map(|_| None).collect();
        // Dial every lower rank, announcing ourselves.
        for (r, slot) in streams.iter_mut().enumerate().take(my_rank) {
            let mut s = connect_retry(dir, my_rank, r, net.as_ref())?;
            wire::write_frame(&mut s, &Frame::control(FrameKind::Hello, my_rank))
                .and_then(|()| s.flush())
                .map_err(|e| handshake_failed(my_rank, "send Hello", &e))?;
            *slot = Some(s);
        }
        // Accept every higher rank; the Hello frame says who dialed.
        accept_peers(&listener, dir, my_rank, deadline, &mut streams)?;

        // Channels first, so the Mesh (which readers gossip through) is
        // complete before any service thread starts.
        let mut peers: Vec<Option<PeerTx>> = Vec::with_capacity(p);
        let mut rxs: Vec<Option<(UnixStream, mpsc::Receiver<WriterMsg>)>> = Vec::with_capacity(p);
        for slot in streams {
            match slot {
                Some(stream) => {
                    let (tx, rx) = mpsc::channel::<WriterMsg>();
                    peers.push(Some(PeerTx { tx }));
                    rxs.push(Some((stream, rx)));
                }
                None => {
                    peers.push(None);
                    rxs.push(None);
                }
            }
        }
        let epoch = Instant::now();
        let mesh = Arc::new(Mesh {
            my_rank,
            p,
            own: Mailbox::default(),
            liveness,
            peers,
            last_heard: (0..p).map(|_| AtomicU64::new(0)).collect(),
            finished: (0..p).map(|_| AtomicBool::new(false)).collect(),
            hung: AtomicBool::new(false),
            quit: AtomicBool::new(false),
            epoch,
        });

        let spawn_failed =
            |e: &std::io::Error| handshake_failed(my_rank, "spawn service thread", e);
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for (peer, slot) in rxs.into_iter().enumerate() {
            let Some((stream, rx)) = slot else { continue };
            let write_half = stream
                .try_clone()
                .map_err(|e| handshake_failed(my_rank, "clone stream", &e))?;
            let mesh_w = mesh.clone();
            writers.push(
                std::thread::Builder::new()
                    .name(format!("xmpi-w{my_rank}->{peer}"))
                    .spawn(move || writer_loop(&mesh_w, write_half, &rx))
                    .map_err(|e| spawn_failed(&e))?,
            );
            let mesh_r = mesh.clone();
            readers.push(
                std::thread::Builder::new()
                    .name(format!("xmpi-r{my_rank}<-{peer}"))
                    .spawn(move || reader_loop(&mesh_r, stream, peer))
                    .map_err(|e| spawn_failed(&e))?,
            );
        }
        let monitor = if heartbeat_ms() > 0 && p > 1 {
            let mesh_m = mesh.clone();
            Some(
                std::thread::Builder::new()
                    .name(format!("xmpi-hb{my_rank}"))
                    .spawn(move || monitor_loop(&mesh_m))
                    .map_err(|e| spawn_failed(&e))?,
            )
        } else {
            None
        };

        Ok(Arc::new(SocketTransport {
            mesh,
            writers: Mutex::new(writers),
            readers: Mutex::new(readers),
            monitor: Mutex::new(monitor),
        }))
    }

    /// Tear the mesh down. A clean shutdown sends `Fin` to every peer and
    /// then waits for every peer's own `Fin` (so no process closes a stream
    /// a sibling is still writing to); a crashed shutdown sends `Crash` and
    /// leaves without waiting — peers observe the frames (or the EOF) and
    /// poison themselves. A hung mesh transmits neither; peers find out
    /// through their failure detectors and the eventual EOF.
    pub(crate) fn shutdown(&self, crashed: bool) {
        self.mesh.quit.store(true, Ordering::SeqCst);
        let kind = if crashed {
            FrameKind::Crash
        } else {
            FrameKind::Fin
        };
        for peer in self.mesh.peers.iter().flatten() {
            let _ = peer
                .tx
                .send(WriterMsg::Close(Frame::control(kind, self.mesh.my_rank)));
        }
        for h in self.writers.lock().drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.monitor.lock().take() {
            // The monitor parks between heartbeats; wake it to see `quit`.
            h.thread().unpark();
            let _ = h.join();
        }
        if !crashed {
            for h in self.readers.lock().drain(..) {
                let _ = h.join();
            }
        }
    }
}

/// Sleep up to `total`, returning early when the mesh is tearing down (a
/// torn-write stall must not hold shutdown hostage).
fn interruptible_stall(mesh: &Mesh, total: Duration) {
    let deadline = Instant::now() + total;
    loop {
        if mesh.quit.load(Ordering::Relaxed) {
            return;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(1)));
    }
}

/// Drain the writer queue onto the socket, executing injected wire faults.
/// Write errors mean the peer's process is gone; its death is observed
/// (and reported) by the reader side, so the writer just stops
/// transmitting. Once the mesh is hung, *nothing* goes on the wire.
fn writer_loop(mesh: &Mesh, mut stream: UnixStream, rx: &mpsc::Receiver<WriterMsg>) {
    let mut broken = false;
    while let Ok(msg) = rx.recv() {
        if mesh.hung.load(Ordering::SeqCst) {
            if matches!(msg, WriterMsg::Close(_)) {
                return;
            }
            continue;
        }
        match msg {
            WriterMsg::Frame(f, fault) => {
                if broken {
                    continue;
                }
                match fault {
                    WireFault::Deliver => {
                        if wire::write_frame(&mut stream, &f).is_err() {
                            broken = true;
                        }
                    }
                    WireFault::Torn { prefix, stall } => {
                        // Pre-encode so the split lands at an exact byte.
                        let mut bytes = Vec::new();
                        wire::write_frame(&mut bytes, &f).expect("in-memory frame encode");
                        let cut = prefix.clamp(1, bytes.len() - 1);
                        if stream
                            .write_all(&bytes[..cut])
                            .and_then(|()| stream.flush())
                            .is_err()
                        {
                            broken = true;
                            continue;
                        }
                        interruptible_stall(mesh, stall);
                        if stream
                            .write_all(&bytes[cut..])
                            .and_then(|()| stream.flush())
                            .is_err()
                        {
                            broken = true;
                        }
                    }
                    WireFault::Reset { prefix } => {
                        let mut bytes = Vec::new();
                        wire::write_frame(&mut bytes, &f).expect("in-memory frame encode");
                        let cut = prefix.min(bytes.len() - 1);
                        let _ = stream
                            .write_all(&bytes[..cut])
                            .and_then(|()| stream.flush());
                        // Close only our write half: the peer observes a
                        // mid-frame EOF, while frames the peer is still
                        // sending us stay readable.
                        let _ = stream.shutdown(std::net::Shutdown::Write);
                        broken = true;
                    }
                    WireFault::Hang => {
                        // Latch the whole mesh silent; this frame and every
                        // later frame from ANY of this rank's writers is
                        // dropped. Peers can only find out via suspicion.
                        mesh.hung.store(true, Ordering::SeqCst);
                    }
                }
            }
            WriterMsg::Close(f) => {
                if !broken {
                    let _ = wire::write_frame(&mut stream, &f);
                    let _ = stream.flush();
                }
                return;
            }
        }
    }
}

/// Decode the peer's frames into the hosted mailbox until the stream ends.
/// `Fin` is an orderly close; `Crash`, a malformed or torn frame, or an
/// EOF without `Fin` all mark a rank dead (gossiping first-hand
/// observations) and wake any parked receiver. Every frame — heartbeats
/// included — refreshes the peer's liveness clock.
fn reader_loop(mesh: &Mesh, mut stream: UnixStream, peer: usize) {
    loop {
        match wire::read_frame(&mut stream) {
            Ok(Some(f)) => {
                mesh.heard_from(peer);
                match f.kind {
                    FrameKind::MsgF64 | FrameKind::MsgU64 => match wire::frame_payload(&f) {
                        Ok(payload) => {
                            let key: ChannelKey = (f.src as usize, f.ctx, f.tag);
                            let visible_at = (f.delay_ns > 0)
                                .then(|| Instant::now() + Duration::from_nanos(f.delay_ns));
                            mesh.own.deliver(key, payload, visible_at);
                        }
                        Err(_) => {
                            mesh.declare_dead(peer);
                            return;
                        }
                    },
                    FrameKind::Ping => {}
                    FrameKind::Fin => {
                        mesh.finished[peer].store(true, Ordering::SeqCst);
                        return;
                    }
                    // The frame names the crashed rank (usually the peer
                    // itself, but forwarded death notices — possibly naming
                    // *this* rank — stay correct either way).
                    FrameKind::Crash => {
                        mesh.declare_dead(f.src as usize);
                    }
                    FrameKind::Hello | FrameKind::Result => {
                        mesh.declare_dead(peer);
                        return;
                    }
                }
            }
            // EOF at a frame boundary without Fin (the process died hard),
            // or a stream cut mid-frame (`Truncated` — a reset): the torn
            // frame's bytes are dropped, never double-counted.
            Ok(None) | Err(_) => {
                mesh.declare_dead(peer);
                return;
            }
        }
    }
}

/// The failure detector: each `XMPI_HEARTBEAT_MS`, ping every peer and
/// declare dead any live, unfinished peer silent for longer than
/// `XMPI_SUSPECT_MS`. Pings bypass the chaos consult and the byte
/// counters — they are transport-internal, not traffic. Between beats the
/// thread parks; [`SocketTransport::shutdown`] unparks it.
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
        if !mesh.hung.load(Ordering::SeqCst) {
            for peer in mesh.peers.iter().flatten() {
                let _ = peer.tx.send(WriterMsg::Frame(
                    Frame::control(FrameKind::Ping, mesh.my_rank),
                    WireFault::Deliver,
                ));
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
        if dst_world == self.mesh.my_rank {
            // Self-sends stay in-process and zero-copy (and are never
            // consulted for faults — there is no wire to break).
            let visible_at = delay.map(|d| Instant::now() + d);
            self.mesh.own.deliver(key, payload, visible_at);
            return;
        }
        let delay_ns = delay.map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        let frame = wire::payload_frame(key.0, key.1, key.2, delay_ns, &payload);
        if let Some(peer) = &self.mesh.peers[dst_world] {
            // A closed queue means the mesh is shutting down; the liveness
            // layer has already recorded why.
            let _ = peer.tx.send(WriterMsg::Frame(frame, fault));
        }
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
        for peer in self.mesh.peers.iter().flatten() {
            let _ = peer.tx.send(WriterMsg::Frame(
                Frame::control(FrameKind::Crash, src_world),
                WireFault::Deliver,
            ));
        }
        self.mesh.own.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_capped_exponential() {
        assert_eq!(backoff_delay(0), Duration::from_micros(100));
        assert_eq!(backoff_delay(1), Duration::from_micros(200));
        assert_eq!(backoff_delay(5), Duration::from_micros(3_200));
        assert_eq!(backoff_delay(11), Duration::from_micros(204_800));
        // The cap: from attempt 12 on, every wait is 250 ms.
        assert_eq!(backoff_delay(12), Duration::from_millis(250));
        assert_eq!(backoff_delay(40), Duration::from_millis(250));
        // Shift widths past u64 must not wrap back to short waits.
        for attempt in [58, 61, 62, 63, 64, u64::MAX] {
            assert_eq!(backoff_delay(attempt), Duration::from_millis(250));
        }
    }

    #[test]
    fn dial_budget_totals_seconds_not_hours() {
        // The default budget's worst-case wall time: "about 27 s", roughly
        // the 30 s handshake window, never unbounded.
        let total: Duration = (0..connect_retries()).map(backoff_delay).sum();
        assert!(
            total >= Duration::from_secs(20),
            "budget too impatient: {total:?}"
        );
        assert!(
            total <= Duration::from_secs(40),
            "budget unbounded-ish: {total:?}"
        );
    }
}
