//! Backend selection and the multi-process rank launcher.
//!
//! [`run`] and [`run_ft`] are drop-in counterparts of [`crate::run`] /
//! [`crate::run_ft`] that additionally honour an ambient [`Backend`]: under
//! the default [`Backend::Local`] they delegate to the in-process thread
//! launcher unchanged; under [`Backend::Socket`] the calling process
//! becomes the *parent* of a multi-process world — it forks one child
//! process per rank, the children wire a rank×rank UNIX-socket mesh (the
//! `socket` module), run the SPMD closure, and ship their [`Wire`]-encoded
//! results and per-rank traffic statistics back over a control socket. A
//! child that dies without reporting is mapped to [`XmpiError::RankDead`].
//!
//! ## Launch and teardown
//!
//! Every wait on the way is a blocking call on an event, never a sleep:
//!
//! 1. The parent binds the control socket and forks the children. Each
//!    child binds its mesh listener, dials every lower rank (retrying a
//!    dial that raced the sibling's `bind` after 100 µs, doubling) and
//!    blocks in `accept` for every higher one; a watchdog thread parked
//!    until the handshake deadline dials the listener itself if a sibling
//!    never comes.
//! 2. Meanwhile one acceptor thread of the parent blocks on the control
//!    socket and reads each report inline as its child connects (every
//!    report into the same body buffer), handing the decoded outcome to
//!    the parent over a channel.
//! 3. A child whose rank program returns tears its mesh down (the
//!    heartbeat monitor, parked between beats, is unparked), encodes its
//!    report, and only then connects and ships it and exits.
//! 4. The parent returns once all `p` reports are in. Only a channel idle
//!    for a while makes it look at the children: all exited means whoever
//!    is missing died without reporting; past the world deadline, wedged
//!    children are killed. One connection from the parent then wakes the
//!    acceptor, which reads what is still queued and exits, and the
//!    children are reaped with a blocking `waitpid`.
//!
//! ## Forked ranks
//!
//! A rank process is a `fork` of the thread that called [`run`]/[`run_ft`]
//! (the `rusty-fork` idiom without its re-execution). It already holds the
//! closure, everything the closure captured and every ambient setting of
//! that thread — armed hooks and chaos plans included — so it joins the
//! mesh at once, runs the closure, ships its outcome and leaves with
//! `_exit`: it never returns into the caller's code, runs no exit handlers
//! and flushes no inherited stdio buffer. Its stdin and stdout are
//! `/dev/null`. What a rank writes to its memory reaches the parent, and
//! any later world, only through its shipped result — or through a
//! [`SharedFlag`], a one-shot latch that lives in a shared page.
//!
//! **Fork safety.** The child has one thread, a copy of the forking one; a
//! lock any other thread of the parent held at that instant stays held in
//! the child forever. So nothing a rank process runs may take a
//! process-global lock that another thread can hold:
//!
//! * phase labels are the callers' `&'static str`s, so naming a phase takes
//!   no process-wide table;
//! * the rayon shim keys its pool by process id, so a child starts its own
//!   instead of queueing on its parent's;
//! * the launcher, socket and receive knobs are read from the environment
//!   by the parent before its first fork and reach the child cached;
//! * every child is forked before the parent starts the world's acceptor
//!   thread.
//!
//! (libc's own fork handlers keep `malloc` usable in the child.)
//!
//! Limitation: event tracing ([`crate::trace::capture`]) is not supported
//! over the socket backend (it panics loudly).

use crate::comm::{Comm, Shared};
use crate::error::XmpiError;
use crate::hooks;
use crate::liveness::{CrashUnwind, Liveness, PoisonUnwind};
use crate::socket::SocketTransport;
use crate::stats::{RankStats, WorldStats};
use crate::trace;
use crate::transport::Transport;
use crate::wire::{self, Frame, FrameKind, Wire};
use crate::world::{FtResult, WorldResult};
use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::io::Write as _;
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Once, OnceLock};
use std::time::{Duration, Instant};

/// Which transport [`run`]/[`run_ft`] use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// Ranks are threads of this process (the default).
    #[default]
    Local,
    /// Ranks are processes forked from the launching thread, joined by a
    /// UNIX-socket mesh.
    Socket,
}

thread_local! {
    static BACKEND: Cell<Backend> = const { Cell::new(Backend::Local) };
}

/// Process-global launch counter, only for unique scratch-directory names.
static LAUNCH_DIRS: AtomicU64 = AtomicU64::new(0);

/// How long the parent's collect loop waits for a report before it looks at
/// its children (all exited? past the world deadline?). A world whose
/// reports keep arriving never pays that look.
const COLLECT_IDLE: Duration = Duration::from_millis(10);

/// Whole-world wall-clock budget in the parent's reap loop
/// (`XMPI_WORLD_DEADLINE_MS`, default 300000 ms; `0` disables). A world
/// that outlives it has wedged children killed and mapped to
/// [`XmpiError::RankDead`] — the launcher never hangs forever on a child
/// that neither exits nor reports. Read once per process.
fn world_deadline() -> Option<Duration> {
    static CACHE: OnceLock<Option<Duration>> = OnceLock::new();
    *CACHE.get_or_init(
        || match crate::socket::env_u64("XMPI_WORLD_DEADLINE_MS", 300_000) {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
    )
}

/// Run `f` with `backend` ambient on this thread (restored afterwards).
/// [`run`]/[`run_ft`] calls inside `f` — including those buried in library
/// code like the factorization drivers — use it.
pub fn with_backend<T>(backend: Backend, f: impl FnOnce() -> T) -> T {
    struct Restore(Backend);
    impl Drop for Restore {
        fn drop(&mut self) {
            BACKEND.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BACKEND.with(|b| b.replace(backend)));
    f()
}

/// [`Backend::Socket`]. The name is from the time rank processes
/// re-executed the binary; the benchmark package calls this function by
/// it, so it stays.
pub fn socket_backend_reexec() -> Backend {
    Backend::Socket
}

/// What a child ships back on the control socket (alongside its
/// [`RankStats`]).
enum Shipped<R> {
    /// The rank function returned a value.
    Ok(R),
    /// The rank unwound with a typed error (poisoned world, dead peer).
    Err(XmpiError),
    /// The rank suffered an injected crash ([`crate::hooks::CrashFate`]).
    Crashed { rank: usize },
    /// The rank hit a genuine panic; its message.
    Panicked(String),
}

impl<R: Wire> Wire for Shipped<R> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Shipped::Ok(v) => {
                out.push(0);
                v.encode(out);
            }
            Shipped::Err(e) => {
                out.push(1);
                e.encode(out);
            }
            Shipped::Crashed { rank } => {
                out.push(2);
                rank.encode(out);
            }
            Shipped::Panicked(msg) => {
                out.push(3);
                msg.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        match u8::decode(input)? {
            0 => Ok(Shipped::Ok(R::decode(input)?)),
            1 => Ok(Shipped::Err(XmpiError::decode(input)?)),
            2 => Ok(Shipped::Crashed {
                rank: usize::decode(input)?,
            }),
            3 => Ok(Shipped::Panicked(String::decode(input)?)),
            b => Err(XmpiError::Truncated {
                expected: 3,
                got: b as usize,
                src: 0,
                tag: 0,
            }),
        }
    }
}

/// [`crate::run`] honouring the ambient [`Backend`]. The extra [`Wire`]
/// bound lets a socket-backed world ship rank results between processes;
/// on the local backend behaviour is identical to [`crate::run`].
///
/// # Panics
/// As [`crate::run`]; additionally if a child process dies or panics, or
/// if event tracing is armed on the socket backend (unsupported).
pub fn run<R, F>(p: usize, f: F) -> WorldResult<R>
where
    R: Wire + Send,
    F: Fn(&Comm) -> R + Sync,
{
    match BACKEND.with(Cell::get) {
        Backend::Local => crate::world::run(p, f),
        Backend::Socket => {
            let out = socket_world(p, f);
            let results = out
                .results
                .into_iter()
                .enumerate()
                .map(|(rank, r)| match r {
                    Ok(v) => v,
                    Err(e) => panic!(
                        "rank {rank} failed under fault injection: {e}; \
                         launch the world with xmpi::run_ft to handle rank crashes"
                    ),
                })
                .collect();
            WorldResult {
                results,
                stats: out.stats,
            }
        }
    }
}

/// [`crate::run_ft`] honouring the ambient [`Backend`]: injected crashes
/// and hard child deaths become per-rank [`XmpiError::RankDead`] outcomes.
///
/// One behavioural difference from the in-process backend: a *genuine*
/// panic on a rank (not a fault sentinel) cannot cross the process
/// boundary as a payload, so it surfaces as a parent panic that names the
/// rank and carries the rank's panic message.
///
/// # Panics
/// If `p == 0`, a rank panics with a non-sentinel payload, or tracing is
/// armed on the socket backend.
pub fn run_ft<R, F>(p: usize, f: F) -> FtResult<R>
where
    R: Wire + Send,
    F: Fn(&Comm) -> R + Sync,
{
    match BACKEND.with(Cell::get) {
        Backend::Local => crate::world::run_ft(p, f),
        Backend::Socket => socket_world(p, f),
    }
}

/// The few libc calls the launcher makes; std links libc already. The
/// constants are Linux's.
mod sys {
    use std::ffi::{c_int, c_void};

    pub(super) const SIGKILL: c_int = 9;
    pub(super) const WNOHANG: c_int = 1;
    pub(super) const PROT_READ: c_int = 1;
    pub(super) const PROT_WRITE: c_int = 2;
    pub(super) const MAP_SHARED: c_int = 1;
    pub(super) const MAP_ANONYMOUS: c_int = 0x20;

    extern "C" {
        pub(super) fn fork() -> c_int;
        pub(super) fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
        pub(super) fn kill(pid: c_int, sig: c_int) -> c_int;
        pub(super) fn _exit(status: c_int) -> !;
        pub(super) fn dup2(old: c_int, new: c_int) -> c_int;
        pub(super) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub(super) fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A forked rank process. Once reaped, its pid may name another process,
/// so it is never waited on or signalled again.
struct RankProc {
    pid: c_int,
    reaped: bool,
}

impl RankProc {
    /// Reap the child if it has exited; whether it has.
    fn try_reap(&mut self) -> bool {
        if !self.reaped {
            let mut status = 0;
            // SAFETY: `pid` is an unreaped child of this process and
            // `status` a valid out-pointer. `-1` (no such child) counts as
            // reaped, so the pid is not touched again.
            self.reaped = unsafe { sys::waitpid(self.pid, &mut status, sys::WNOHANG) } != 0;
        }
        self.reaped
    }

    /// Block until the child has exited, and reap it.
    fn wait(&mut self) {
        while !self.reaped {
            let mut status = 0;
            // SAFETY: as in `try_reap`.
            let r = unsafe { sys::waitpid(self.pid, &mut status, 0) };
            self.reaped = r != -1
                || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted;
        }
    }

    /// Kill the child and reap it.
    fn kill(&mut self) {
        if !self.reaped {
            // SAFETY: an unreaped child's pid cannot have been reused, so
            // the signal reaches our child and nothing else.
            unsafe { sys::kill(self.pid, sys::SIGKILL) };
        }
        self.wait();
    }
}

/// Fork a rank process that runs `body` and leaves with `_exit` — status
/// 0, or 101 if `body` panicked. The child never unwinds into the caller.
fn fork_rank(body: impl FnOnce()) -> std::io::Result<RankProc> {
    // SAFETY: the child runs only `body`, on its copy of this thread, and
    // leaves through `_exit`; the module docs ("Fork safety") list what
    // keeps `body` off locks that other threads of the parent held.
    match unsafe { sys::fork() } {
        -1 => Err(std::io::Error::last_os_error()),
        0 => {
            let ok = catch_unwind(AssertUnwindSafe(|| {
                quiet_stdio();
                body();
            }))
            .is_ok();
            // SAFETY: ends this child without running destructors or exit
            // handlers, so nothing of the caller's runs twice.
            unsafe { sys::_exit(if ok { 0 } else { 101 }) }
        }
        pid => Ok(RankProc { pid, reaped: false }),
    }
}

/// Point the child's stdin and stdout at `/dev/null`, so that whatever a
/// rank prints cannot mix with a caller that reports on stdout.
fn quiet_stdio() {
    if let Ok(null) = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open("/dev/null")
    {
        for fd in [0, 1] {
            // SAFETY: duplicates an open descriptor onto a standard one.
            unsafe { sys::dup2(null.as_raw_fd(), fd) };
        }
    }
}

/// A one-shot flag that the rank processes of socket worlds share with the
/// process that made it: it lives in its own `MAP_SHARED` page, so once a
/// forked rank sets it, it reads as set in the parent and in every world
/// forked later. `xharness` latches its one-shot fault plans on it, so a
/// planned fault fires once per plan on either backend.
pub struct SharedFlag(NonNull<AtomicBool>);

// SAFETY: the one field points at an atomic in a mapping that lives until
// drop, and every access to it is an atomic operation.
unsafe impl Send for SharedFlag {}
// SAFETY: as for `Send`.
unsafe impl Sync for SharedFlag {}

impl SharedFlag {
    /// An unset flag on a fresh shared page.
    ///
    /// # Panics
    /// If the page cannot be mapped.
    pub fn new() -> SharedFlag {
        // SAFETY: a fresh anonymous mapping; no existing memory is touched.
        let page = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                std::mem::size_of::<AtomicBool>(),
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED | sys::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert_ne!(
            page as usize,
            usize::MAX,
            "map a shared flag: {}",
            std::io::Error::last_os_error()
        );
        // An anonymous page is zeroed, and a zero byte is an unset flag.
        SharedFlag(NonNull::new(page.cast()).expect("mmap returns a non-null page"))
    }

    /// Set the flag; whether this call was the one that set it.
    pub fn fire(&self) -> bool {
        !self.flag().swap(true, Ordering::SeqCst)
    }

    /// Whether the flag is set.
    pub fn is_set(&self) -> bool {
        self.flag().load(Ordering::SeqCst)
    }

    fn flag(&self) -> &AtomicBool {
        // SAFETY: the pointer is into the mapping made by `new`, which is
        // unmapped only by `drop`.
        unsafe { self.0.as_ref() }
    }
}

impl Default for SharedFlag {
    fn default() -> Self {
        SharedFlag::new()
    }
}

impl Drop for SharedFlag {
    fn drop(&mut self) {
        // SAFETY: unmaps the mapping `new` made, once; no reference into
        // it outlives `self`.
        unsafe {
            sys::munmap(
                self.0.as_ptr().cast::<c_void>(),
                std::mem::size_of::<AtomicBool>(),
            )
        };
    }
}

/// Child side: join the mesh as `my_rank`, run the rank program, and ship
/// the outcome and stats on the control socket.
fn child_world<R, F>(dir: &Path, p: usize, my_rank: usize, f: &F)
where
    R: Wire + Send,
    F: Fn(&Comm) -> R + Sync,
{
    let liveness = Arc::new(Liveness::new(p));
    let transport = match SocketTransport::connect(dir, my_rank, p, liveness.clone()) {
        Ok(t) => t,
        Err(e) => {
            // Graceful launch degradation: the mesh never came up within
            // the bounded dial/accept budget. Report the typed failure to
            // the parent instead of panicking the child.
            ship_result::<R>(dir, my_rank, &Shipped::Err(e), &RankStats::default(), &[]);
            return;
        }
    };
    let shared = Shared::build_with(
        transport.clone() as Arc<dyn Transport>,
        liveness,
        None,
        hooks::armed(),
    );
    let comm = Comm::world(shared.clone(), my_rank);
    let result = catch_unwind(AssertUnwindSafe(|| f(&comm)));
    drop(comm);
    let stats = shared.counters[my_rank].snapshot();
    let (shipped, crashed): (Shipped<R>, bool) = match result {
        Ok(v) => (Shipped::Ok(v), false),
        Err(payload) => {
            if let Some(c) = payload.downcast_ref::<CrashUnwind>() {
                (Shipped::Crashed { rank: c.rank }, true)
            } else if let Some(pu) = payload.downcast_ref::<PoisonUnwind>() {
                (Shipped::Err(pu.0), false)
            } else {
                // A genuine panic: tell the peers (Crash) so they fail fast
                // instead of timing out, and the parent (its message) so it
                // re-raises loudly.
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".into());
                (Shipped::Panicked(msg), true)
            }
        }
    };
    transport.shutdown(crashed);
    // Ship this process's view of the dead-rank roster: wire-level deaths
    // (resets, hung peers declared by the failure detector) are observed
    // by reader/monitor threads, not by an unwinding rank program, so the
    // parent reconstructs the world's `crashed` set as the union of every
    // child's view — mirroring the in-process backend, where the roster is
    // read straight off the shared liveness registry.
    let dead = shared.liveness.dead_ranks();
    ship_result(dir, my_rank, &shipped, &stats, &dead);
}

/// Connect the control socket and ship `(outcome, stats, dead roster)` to
/// the parent.
fn ship_result<R: Wire>(
    dir: &Path,
    my_rank: usize,
    shipped: &Shipped<R>,
    stats: &RankStats,
    dead: &[usize],
) {
    // Encode first: once connected, the parent's acceptor reads this
    // report and nothing else until it is complete.
    let mut frame = Frame::control(FrameKind::Result, my_rank);
    shipped.encode(&mut frame.body);
    stats.encode(&mut frame.body);
    dead.to_vec().encode(&mut frame.body);
    let Ok(mut ctl) = UnixStream::connect(dir.join("ctl.sock")) else {
        // Parent already gone; nothing useful to do but exit.
        return;
    };
    let _ = wire::write_frame(&mut ctl, &Frame::control(FrameKind::Hello, my_rank))
        .and_then(|()| wire::write_frame(&mut ctl, &frame))
        .and_then(|()| ctl.flush());
}

/// What the parent holds per child once it reports: outcome, traffic
/// stats, and the child's view of the dead-rank roster.
type Outcome<R> = (Shipped<R>, RankStats, Vec<usize>);

/// Parent side of one socket-backed world: fork one child per rank,
/// collect the outcomes they ship on the control socket as they arrive,
/// reap them, and assemble the world result.
fn socket_world<R, F>(p: usize, f: F) -> FtResult<R>
where
    R: Wire + Send,
    F: Fn(&Comm) -> R + Sync,
{
    assert!(p > 0, "world must have at least one rank");
    assert!(
        trace::capture_config().is_none(),
        "event tracing is not supported on the socket backend \
         (trace capture is armed); run this world on Backend::Local"
    );
    // Every knob a child reads is cached before the first fork.
    let deadline = world_deadline().map(|d| Instant::now() + d);
    crate::socket::read_knobs();
    crate::comm::recv_timeout();
    clean_stale_launch_dirs();
    let dir = std::env::temp_dir().join(format!(
        "xmpi-{}-{}",
        std::process::id(),
        LAUNCH_DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create socket mesh directory");
    let ctl_path = dir.join("ctl.sock");
    let ctl = UnixListener::bind(&ctl_path).expect("bind control socket");

    let mut children: Vec<RankProc> = Vec::with_capacity(p);
    for rank in 0..p {
        match fork_rank(|| child_world(&dir, p, rank, &f)) {
            Ok(child) => children.push(child),
            Err(e) => {
                // Graceful degradation: kill whatever came up, clean the
                // mesh directory, and give every rank the typed launch
                // failure — never a panic, never a half-forked world left
                // running.
                eprintln!("xmpi launch: fork rank {rank}: {e}");
                kill_all(&mut children);
                let _ = std::fs::remove_dir_all(&dir);
                let e = XmpiError::LaunchFailed { rank, attempts: 1 };
                return FtResult {
                    results: (0..p).map(|_| Err(e)).collect(),
                    stats: WorldStats {
                        ranks: (0..p).map(|_| RankStats::default()).collect(),
                    },
                    crashed: Vec::new(),
                };
            }
        }
    }

    // Collect by event. One acceptor thread blocks on the control socket
    // and reads each report as soon as its child connects; the decoded
    // outcome reaches this thread over a channel, and the world is
    // complete once all `p` are in. Only a channel idle for
    // `COLLECT_IDLE` makes this thread look at the children:
    // - once every child has exited, every report that will ever arrive
    //   is queued (a child connects before it exits), and whoever is
    //   missing after the acceptor's last drain died without reporting;
    // - past the world deadline, children that neither exit nor report
    //   (wedged beyond what the in-world failure detector resolves) are
    //   killed and mapped to dead ranks.
    // Either way every child connection is queued before `done` is set,
    // and one connection from this thread wakes the acceptor for exit.
    let mut outcomes: Vec<Option<Outcome<R>>> = (0..p).map(|_| None).collect();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        let (ctl, done) = (&ctl, &done);
        s.spawn(move || accept_reports(ctl, p, done, &tx));
        let mut missing = p;
        while missing > 0 {
            match rx.recv_timeout(COLLECT_IDLE) {
                Ok((rank, outcome)) => {
                    if outcomes[rank].replace(outcome).is_none() {
                        missing -= 1;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    let alive = children
                        .iter_mut()
                        .map(|c| !c.try_reap())
                        .filter(|&running| running)
                        .count();
                    if alive == 0 {
                        break;
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        eprintln!(
                            "xmpi launch: a {p}-rank world exceeded XMPI_WORLD_DEADLINE_MS \
                             with {alive} child process(es) wedged; killing them"
                        );
                        kill_all(&mut children);
                        break;
                    }
                }
                // The acceptor stopped early: nothing can collect the
                // remaining reports, so their children must not run on.
                Err(RecvTimeoutError::Disconnected) => {
                    kill_all(&mut children);
                    break;
                }
            }
        }
        done.store(true, Ordering::SeqCst);
        let _ = UnixStream::connect(&ctl_path);
        // Ends when the acceptor has drained the queue and dropped `tx`.
        for (rank, outcome) in rx.iter() {
            outcomes[rank] = Some(outcome);
        }
    });
    // Every child has reported or exited, or was killed: `wait` does not
    // block for long.
    for child in &mut children {
        child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut results = Vec::with_capacity(p);
    let mut stats = Vec::with_capacity(p);
    let mut crashed = Vec::new();
    for (rank, slot) in outcomes.into_iter().enumerate() {
        match slot {
            Some((Shipped::Ok(v), rs, dead)) => {
                results.push(Ok(v));
                stats.push(rs);
                crashed.extend(dead);
            }
            Some((Shipped::Err(e), rs, dead)) => {
                results.push(Err(e));
                stats.push(rs);
                crashed.extend(dead);
            }
            Some((Shipped::Crashed { rank: dead_rank }, rs, dead)) => {
                crashed.push(dead_rank);
                crashed.extend(dead);
                results.push(Err(XmpiError::RankDead { rank: dead_rank }));
                stats.push(rs);
            }
            Some((Shipped::Panicked(msg), _, _)) => {
                panic!("rank {rank} panicked in its child process: {msg}");
            }
            None => {
                // Died without reporting: a hard kill, a startup failure,
                // or a world-deadline kill. Same mapping as an injected
                // crash.
                crashed.push(rank);
                results.push(Err(XmpiError::RankDead { rank }));
                stats.push(RankStats::default());
            }
        }
    }
    crashed.sort_unstable();
    crashed.dedup();
    FtResult {
        results,
        stats: WorldStats { ranks: stats },
        crashed,
    }
}

/// Best-effort sweep of mesh scratch directories leaked by *dead* launcher
/// processes: a hard-killed test run leaves `$TMPDIR/xmpi-<pid>-<n>` trees
/// full of stale UNIX-socket files behind. Runs once per process, before
/// the first socket world creates its own directory. Only directories
/// whose embedded pid is provably not alive are removed, so concurrent
/// launcher processes never lose a live mesh.
fn clean_stale_launch_dirs() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| sweep_stale_launch_dirs(&std::env::temp_dir()));
}

/// The sweep behind [`clean_stale_launch_dirs`], parameterized for tests.
fn sweep_stale_launch_dirs(tmp: &Path) {
    let Ok(entries) = std::fs::read_dir(tmp) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(pid) = stale_dir_pid(name) else {
            continue;
        };
        if pid_is_dead(pid) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Parse the launcher pid out of an `xmpi-<pid>-<n>` scratch-directory
/// name; `None` for anything else (never touch foreign files).
fn stale_dir_pid(name: &str) -> Option<u32> {
    let rest = name.strip_prefix("xmpi-")?;
    let (pid, seq) = rest.split_once('-')?;
    if pid.is_empty() || seq.is_empty() || !seq.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    pid.parse().ok()
}

/// Whether `pid` is provably dead. Checked via procfs on Linux; on
/// platforms without it, claim alive so nothing is ever deleted.
fn pid_is_dead(pid: u32) -> bool {
    if pid == std::process::id() {
        return false;
    }
    if cfg!(target_os = "linux") {
        !Path::new(&format!("/proc/{pid}")).exists()
    } else {
        false
    }
}

/// Kill and reap every child.
fn kill_all(children: &mut [RankProc]) {
    for child in children {
        child.kill();
    }
}

/// The control socket's acceptor: read each connection's report inline, in
/// arrival order, and send its outcome to the collect loop. Once `done` is
/// set, read what is still queued without blocking, then return.
fn accept_reports<R: Wire>(
    ctl: &UnixListener,
    p: usize,
    done: &AtomicBool,
    tx: &mpsc::Sender<(usize, Outcome<R>)>,
) {
    // One body buffer serves every report.
    let mut body = Vec::new();
    while let Ok((stream, _)) = ctl.accept() {
        body = read_report(stream, p, body, tx);
        if done.load(Ordering::SeqCst) {
            if ctl.set_nonblocking(true).is_ok() {
                while let Ok((stream, _)) = ctl.accept() {
                    body = read_report(stream, p, body, tx);
                }
            }
            return;
        }
    }
}

/// Read one control connection — `Hello`, then the `Result` frame into
/// `body`'s allocation — and send its decoded outcome on `tx`. Anything
/// malformed is dropped: its rank counts as not having reported. Returns
/// the buffer for the next report.
fn read_report<R: Wire>(
    mut stream: UnixStream,
    p: usize,
    body: Vec<u8>,
    tx: &mpsc::Sender<(usize, Outcome<R>)>,
) -> Vec<u8> {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let rank = match wire::read_frame(&mut stream) {
        Ok(Some(hello)) if hello.kind == FrameKind::Hello => hello.src as usize,
        _ => return body,
    };
    let Ok(Some(result)) = wire::read_frame_into(&mut stream, body) else {
        return Vec::new();
    };
    if result.kind == FrameKind::Result && rank < p {
        if let Ok(outcome) = Outcome::<R>::decode(&mut &result.body[..]) {
            let _ = tx.send((rank, outcome));
        }
    }
    result.body
}

#[cfg(test)]
mod tests {
    #[test]
    fn stale_dir_names_parse_conservatively() {
        use super::stale_dir_pid;
        assert_eq!(stale_dir_pid("xmpi-1234-0"), Some(1234));
        assert_eq!(stale_dir_pid("xmpi-1-17"), Some(1));
        // Never claim a foreign or malformed name.
        assert_eq!(stale_dir_pid("xmpi-1234"), None);
        assert_eq!(stale_dir_pid("xmpi--0"), None);
        assert_eq!(stale_dir_pid("xmpi-abc-0"), None);
        assert_eq!(stale_dir_pid("xmpi-1234-"), None);
        assert_eq!(stale_dir_pid("xmpi-1234-x"), None);
        assert_eq!(stale_dir_pid("ympi-1234-0"), None);
        assert_eq!(stale_dir_pid("xmpi-99999999999-0"), None, "pid overflow");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn stale_sweep_removes_dead_pid_dirs_only() {
        use super::sweep_stale_launch_dirs;
        let tmp = std::env::temp_dir().join(format!("xmpi-sweep-test-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).expect("create sweep sandbox");
        // u32::MAX is far beyond any real Linux pid, so /proc/<pid> cannot
        // exist: a provably-dead launcher's leftovers.
        let dead = tmp.join(format!("xmpi-{}-3", u32::MAX));
        // Our own pid is alive: must survive the sweep.
        let live = tmp.join(format!("xmpi-{}-0", std::process::id()));
        // A foreign name: must never be touched.
        let foreign = tmp.join("xmpi-not-a-mesh");
        for d in [&dead, &live, &foreign] {
            std::fs::create_dir_all(d).expect("create test dir");
            std::fs::write(d.join("rank_0.sock"), b"").expect("plant stale socket file");
        }
        sweep_stale_launch_dirs(&tmp);
        assert!(!dead.exists(), "dead launcher's directory must be swept");
        assert!(live.exists(), "live launcher's directory must survive");
        assert!(foreign.exists(), "foreign names must never be touched");
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn backend_ambient_restores() {
        use super::*;
        let current = || BACKEND.with(Cell::get);
        assert_eq!(current(), Backend::Local);
        with_backend(Backend::Socket, || assert_eq!(current(), Backend::Socket));
        assert_eq!(current(), Backend::Local);
    }

    #[test]
    fn a_shared_flag_set_in_a_forked_child_reads_set_in_the_parent() {
        use super::*;
        let flag = SharedFlag::new();
        let mut child = fork_rank(|| assert!(flag.fire())).expect("fork");
        child.wait();
        assert!(flag.is_set(), "the child's write must reach the parent");
        assert!(!flag.fire(), "one shot: already fired");
    }
}
