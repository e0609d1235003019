//! Backend selection and the multi-process rank launcher.
//!
//! A world is launched one way, by [`crate::run`] / [`crate::run_ft`],
//! which read the ambient [`Backend`] that [`with_backend`] sets. Under
//! the default [`Backend::Local`] the ranks are threads of this process;
//! under [`Backend::Socket`] the calling process becomes the *parent* of a
//! multi-process world (this module's `socket_world`) — it makes every
//! socket of the world, forks one child process per rank, and each child
//! runs the SPMD closure over its ends of a rank×rank UNIX-socket mesh
//! (the `socket` module) and ships its [`Wire`]-encoded result and per-rank
//! traffic statistics back over its control socket. A child that dies
//! without reporting is mapped to [`XmpiError::RankDead`].
//!
//! ## Launch and teardown
//!
//! Every wait on the way is a blocking call on an event, never a sleep:
//!
//! 1. Under the launch lock, the parent makes one `socketpair` per pair of
//!    ranks (the mesh) and one per rank (its control pair), and forks the
//!    children. Child `r` keeps its `p − 1` mesh ends and the child end of
//!    its control pair and closes every other end at once; the parent
//!    closes every child end after the last fork, and only then releases
//!    the lock. No rank dials, accepts or shakes hands: its mesh is up
//!    when it starts.
//! 2. A child whose rank program returns tears its mesh down (the
//!    heartbeat monitor, parked between beats, is unparked), writes its
//!    report on its control end and exits.
//! 3. The parent `poll`s its `p` control ends, for at most what is left of
//!    the world deadline, and reads each end as it becomes readable, up to
//!    the end of its report (every report into the same body buffer).
//!    End-of-file before a report means the rank died without reporting.
//!    Past the deadline, the children still running are killed, and what
//!    they left is read the same way. The children are then reaped with a
//!    blocking `waitpid`.
//!
//! Peers detect a hard-killed rank by end-of-file without `Fin` (the
//! `socket` module's layer 2), and the kernel reports that end-of-file only
//! once every copy of the dead rank's ends is closed. A copy left in a
//! sibling, or in a rank of a world that another thread forked meanwhile,
//! would hold a survivor's clean shutdown until that process exits. Hence
//! both rules of step 1: children close the ends they do not own, and no
//! other world forks while this world's child ends are open in the parent.
//! The parent reads reports in the order its ends become readable, not in
//! rank order: a crashed rank blocked writing its report keeps its mesh
//! ends open, and a survivor's clean shutdown waits on them.
//!
//! ## Forked ranks
//!
//! A rank process is a `fork` of the thread that called [`crate::run`] /
//! [`crate::run_ft`] (the `rusty-fork` idiom without its re-execution). It
//! already holds the closure, everything the closure captured and every
//! ambient setting of that thread — armed fault hooks included — except
//! the backend, which it resets to [`Backend::Local`]; so it runs the
//! closure at once, ships its outcome and leaves with `_exit`: it never
//! returns into the caller's code, runs no exit handlers and flushes no
//! inherited stdio buffer. Its stdin and stdout are `/dev/null`. What a
//! rank writes to its memory reaches the parent, and any later world, only
//! through its shipped result — or through a [`SharedFlag`], a one-shot
//! latch that lives in a shared page.
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
//! * the launch lock is held by the forking thread itself, so every child
//!   holds a locked copy of it and must never take it: a rank process
//!   makes [`Backend::Local`] ambient before its rank program runs, so a
//!   world that program launches (a driver called inside a rank) runs on
//!   threads of the rank process and never reaches the lock.
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
use crate::world::FtResult;
use std::cell::Cell;
use std::ffi::{c_int, c_ulong, c_void};
use std::io::Write as _;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Which transport [`crate::run`] / [`crate::run_ft`] use.
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

/// Held from a socket world's first `socketpair` until its parent has
/// closed every child end after the last fork, so that no other world's
/// fork copies one (module docs, "Launch and teardown").
static LAUNCH_LOCK: Mutex<()> = Mutex::new(());

/// Whole-world wall-clock budget of the parent's collect loop
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
/// Every world `f` launches — including those buried in library code like
/// the factorization drivers — runs on it.
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

/// The ambient backend of this thread.
pub(crate) fn backend() -> Backend {
    BACKEND.with(Cell::get)
}

/// [`crate::run`] under its old path. The benchmark package calls it by
/// this name and `tests/benchmark_api.rs` pins it, so it stays, for the
/// same reason as [`socket_backend_reexec`].
pub use crate::world::run;

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

/// The few libc calls the launcher makes; std links libc already. The
/// constants and the `pollfd` layout are Linux's.
mod sys {
    use std::ffi::{c_int, c_short, c_ulong, c_void};

    pub(super) const SIGKILL: c_int = 9;
    pub(super) const POLLIN: c_short = 1;
    pub(super) const PROT_READ: c_int = 1;
    pub(super) const PROT_WRITE: c_int = 2;
    pub(super) const MAP_SHARED: c_int = 1;
    pub(super) const MAP_ANONYMOUS: c_int = 0x20;

    #[repr(C)]
    pub(super) struct PollFd {
        pub(super) fd: c_int,
        pub(super) events: c_short,
        pub(super) revents: c_short,
    }

    extern "C" {
        pub(super) fn fork() -> c_int;
        pub(super) fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
        pub(super) fn kill(pid: c_int, sig: c_int) -> c_int;
        pub(super) fn _exit(status: c_int) -> !;
        pub(super) fn dup2(old: c_int, new: c_int) -> c_int;
        pub(super) fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
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
    /// Block until the child has exited, and reap it.
    fn wait(&mut self) {
        while !self.reaped {
            let mut status = 0;
            // SAFETY: `pid` is an unreaped child of this process and
            // `status` a valid out-pointer. `-1` other than an interrupted
            // wait (no such child) counts as reaped, so the pid is not
            // touched again.
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
            // A world the rank program launches runs on its threads: this
            // process holds a locked copy of the launch lock (module docs,
            // "Fork safety").
            BACKEND.with(|b| b.set(Backend::Local));
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

/// The sockets one rank process owns: its stream to every peer, indexed
/// by world rank (`None` at its own), and the child end of its control
/// pair.
struct RankEnds {
    mesh: Vec<Option<UnixStream>>,
    ctl: UnixStream,
}

/// Every socket of a `p`-rank world: one `socketpair` per rank (its
/// control pair, whose parent ends come back second) and one per pair of
/// ranks. On failure, the rank whose pair could not be made; the ends made
/// so far are closed.
fn make_sockets(p: usize) -> Result<(Vec<RankEnds>, Vec<UnixStream>), (usize, std::io::Error)> {
    let mut ends = Vec::with_capacity(p);
    let mut parent = Vec::with_capacity(p);
    for r in 0..p {
        let (mine, theirs) = UnixStream::pair().map_err(|e| (r, e))?;
        parent.push(mine);
        ends.push(RankEnds {
            mesh: (0..p).map(|_| None).collect(),
            ctl: theirs,
        });
    }
    for r in 0..p {
        for s in r + 1..p {
            let (a, b) = UnixStream::pair().map_err(|e| (r, e))?;
            ends[r].mesh[s] = Some(a);
            ends[s].mesh[r] = Some(b);
        }
    }
    Ok((ends, parent))
}

/// Child side: run the rank program over the mesh `own` holds, and ship
/// the outcome and stats on its control end.
fn child_world<R, F>(own: RankEnds, my_rank: usize, f: &F)
where
    R: Wire + Send,
    F: Fn(&Comm) -> R + Sync,
{
    let RankEnds { mesh, mut ctl } = own;
    let liveness = Arc::new(Liveness::new(mesh.len()));
    let transport = match SocketTransport::new(mesh, my_rank, liveness.clone()) {
        Ok(t) => t,
        Err(e) => {
            // Graceful launch degradation: the mesh's service threads did
            // not start. Report the typed failure to the parent instead of
            // panicking the child.
            ship_result::<R>(
                &mut ctl,
                my_rank,
                &Shipped::Err(e),
                &RankStats::default(),
                &[],
            );
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
    ship_result(&mut ctl, my_rank, &shipped, &stats, &dead);
}

/// Ship `(outcome, stats, dead roster)` to the parent as one `Result`
/// frame on the control end.
fn ship_result<R: Wire>(
    ctl: &mut UnixStream,
    my_rank: usize,
    shipped: &Shipped<R>,
    stats: &RankStats,
    dead: &[usize],
) {
    let mut frame = Frame::control(FrameKind::Result, my_rank);
    shipped.encode(&mut frame.body);
    stats.encode(&mut frame.body);
    dead.to_vec().encode(&mut frame.body);
    // With the parent gone there is nothing useful left to do but exit.
    let _ = wire::write_frame(ctl, &frame).and_then(|()| ctl.flush());
}

/// What the parent holds per child once it reports: outcome, traffic
/// stats, and the child's view of the dead-rank roster.
type Outcome<R> = (Shipped<R>, RankStats, Vec<usize>);

/// Every rank's outcome of a world that could not be launched.
fn launch_failed<R>(p: usize, rank: usize) -> FtResult<R> {
    let e = XmpiError::LaunchFailed { rank };
    FtResult {
        results: (0..p).map(|_| Err(e)).collect(),
        stats: WorldStats {
            ranks: (0..p).map(|_| RankStats::default()).collect(),
        },
        crashed: Vec::new(),
    }
}

/// Parent side of one socket-backed world: make its sockets, fork one
/// child per rank, read the outcomes they ship on their control ends as
/// they arrive, reap them, and assemble the world result.
pub(crate) fn socket_world<R, F>(p: usize, f: F) -> FtResult<R>
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

    // Graceful degradation on either failure below: give every rank the
    // typed launch failure — never a panic, never a half-forked world left
    // running. Returning closes every end made so far.
    // The lock guards no data, so a panic that poisoned it left nothing
    // half-updated.
    let launch = LAUNCH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let (mut ends, mut ctl) = match make_sockets(p) {
        Ok(sockets) => sockets,
        Err((rank, e)) => {
            eprintln!("xmpi launch: socketpair for rank {rank}: {e}");
            return launch_failed(p, rank);
        }
    };
    let mut children: Vec<RankProc> = Vec::with_capacity(p);
    for rank in 0..p {
        // The closure runs in the child only, on its copy of `ends` and
        // `ctl`: it keeps its own ends and closes the rest.
        let forked = fork_rank(|| {
            let own = std::mem::take(&mut ends).swap_remove(rank);
            drop(std::mem::take(&mut ctl));
            child_world(own, rank, &f);
        });
        match forked {
            Ok(child) => children.push(child),
            Err(e) => {
                eprintln!("xmpi launch: fork rank {rank}: {e}");
                kill_all(&mut children);
                return launch_failed(p, rank);
            }
        }
    }
    drop(ends);
    drop(launch);

    // Collect by event: each control end is read once, as soon as it is
    // readable, to the end of its report or to end-of-file. A poll that
    // outlasts the world deadline kills the children still running
    // (wedged beyond what the in-world failure detector resolves); every
    // end left then reads as a report or as end-of-file.
    let mut outcomes: Vec<Option<Outcome<R>>> = (0..p).map(|_| None).collect();
    let mut fds: Vec<sys::PollFd> = ctl
        .iter()
        .map(|end| sys::PollFd {
            fd: end.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        })
        .collect();
    let mut open = p;
    let mut killed = false;
    // One body buffer serves every report.
    let mut body = Vec::new();
    while open > 0 {
        let timeout = match deadline {
            Some(d) if !killed => {
                let left = d.saturating_duration_since(Instant::now());
                c_int::try_from(left.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX)
            }
            _ => -1,
        };
        // SAFETY: `fds` is a live array of `fds.len()` pollfd records.
        let ready = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout) };
        if ready <= 0 {
            let err = std::io::Error::last_os_error();
            if ready < 0 && err.kind() == std::io::ErrorKind::Interrupted {
                continue;
            }
            if killed {
                break;
            }
            if ready == 0 {
                eprintln!(
                    "xmpi launch: a {p}-rank world exceeded XMPI_WORLD_DEADLINE_MS \
                     with {open} rank(s) unreported; killing their processes"
                );
            } else {
                eprintln!("xmpi launch: poll the control sockets: {err}");
            }
            kill_all(&mut children);
            killed = true;
            continue;
        }
        for (rank, pfd) in fds.iter_mut().enumerate() {
            if pfd.fd < 0 || pfd.revents == 0 {
                continue;
            }
            // `poll` skips a negative descriptor from now on.
            pfd.fd = -1;
            open -= 1;
            body = read_report(&ctl[rank], body, &mut outcomes[rank]);
        }
    }
    drop(ctl);
    // Every child has reported or closed its control end, or was killed:
    // `wait` does not block for long.
    for child in &mut children {
        child.wait();
    }

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

/// Kill and reap every child.
fn kill_all(children: &mut [RankProc]) {
    for child in children {
        child.kill();
    }
}

/// Read one control end up to the end of its `Result` frame, into
/// `body`'s allocation, and decode the rank's outcome into `slot`.
/// End-of-file first, or anything malformed, leaves `slot` empty: the rank
/// did not report. A report is written in one piece by a child with
/// nothing else left to do; one that stalls for 10 s counts as not sent.
/// Returns the buffer for the next report.
fn read_report<R: Wire>(
    mut ctl: &UnixStream,
    body: Vec<u8>,
    slot: &mut Option<Outcome<R>>,
) -> Vec<u8> {
    let _ = ctl.set_read_timeout(Some(Duration::from_secs(10)));
    let Ok(Some(frame)) = wire::read_frame_into(&mut ctl, body) else {
        return Vec::new();
    };
    if frame.kind == FrameKind::Result {
        *slot = Outcome::<R>::decode(&mut &frame.body[..]).ok();
    }
    frame.body
}

#[cfg(test)]
mod tests {
    #[test]
    fn backend_ambient_restores() {
        use super::*;
        assert_eq!(backend(), Backend::Local);
        with_backend(Backend::Socket, || assert_eq!(backend(), Backend::Socket));
        assert_eq!(backend(), Backend::Local);
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
