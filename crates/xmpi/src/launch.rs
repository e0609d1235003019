//! Backend selection and the multi-process rank launcher.
//!
//! [`run`] and [`run_ft`] are drop-in counterparts of [`crate::run`] /
//! [`crate::run_ft`] that additionally honour an ambient [`Backend`]: under
//! the default [`Backend::Local`] they delegate to the in-process thread
//! launcher unchanged; under [`Backend::Socket`] the calling process
//! becomes the *parent* of a multi-process world — it spawns one child
//! process per rank (re-executing the current binary), the children wire a
//! rank×rank UNIX-socket mesh (the `socket` module), run the same SPMD
//! closure, and ship their [`Wire`]-encoded results and per-rank traffic
//! statistics back over a control socket. A child that dies without
//! reporting is mapped to [`XmpiError::RankDead`].
//!
//! ## Launch and teardown
//!
//! Every wait on the way is a blocking call on an event, never a sleep:
//!
//! 1. The parent binds the control socket and spawns the children. Each
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
//!    children are reaped with a blocking `wait`.
//!
//! ## Child re-execution
//!
//! The launcher uses the `rusty-fork` re-execution idiom: a child is the
//! same binary, pointed back at the same code path (for a test binary, via
//! libtest's `--exact <path>` filter — see [`crate::test_path!`]). The
//! child replays the test deterministically: socket-backed worlds are
//! numbered per thread in launch order, worlds *before* the child's target
//! (`XMPI_WORLD_ID`) are executed locally in-process (bit-identical by the
//! runtime's determinism), and at the target world the child joins the
//! mesh as rank `XMPI_CHILD_RANK`, ships its result, and exits. Everything
//! ambient — seeds, perturbation hooks armed by the test body, environment
//! knobs like `CONFLUX_RECV_TIMEOUT_MS` — is therefore reconstructed
//! inside the child by the same code that set it up in the parent, which
//! is what keeps the two backends' schedules, byte counts, and hook
//! decision streams identical.
//!
//! Limitations: event tracing ([`crate::trace::capture`]) is not supported
//! over the socket backend (it panics loudly), and socket worlds must be
//! launched from the thread that owns the test body (world numbering is
//! per-thread).

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
use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Once, OnceLock};
use std::time::{Duration, Instant};

/// How a [`Backend::Socket`] child process is started.
#[derive(Debug, Clone)]
pub struct SocketCfg {
    /// Binary to execute (normally [`std::env::current_exe`]).
    pub exe: PathBuf,
    /// Arguments steering the child back to the same launch site.
    pub args: Vec<String>,
}

/// Which transport [`run`]/[`run_ft`] use.
#[derive(Debug, Clone, Default)]
pub enum Backend {
    /// Ranks are threads of this process (the default).
    #[default]
    Local,
    /// Ranks are child processes joined by a UNIX-socket mesh.
    Socket(SocketCfg),
}

thread_local! {
    static BACKEND: RefCell<Backend> = const { RefCell::new(Backend::Local) };
    /// Per-thread socket-world launch counter — the world id a child uses
    /// to find its target launch while replaying the test body.
    static WORLD_SEQ: Cell<u64> = const { Cell::new(0) };
}

/// Process-global launch counter, only for unique scratch-directory names.
static LAUNCH_DIRS: AtomicU64 = AtomicU64::new(0);

/// How long the parent's collect loop waits for a report before it looks at
/// its children (all exited? past the world deadline?). A world whose
/// reports keep arriving never pays that look.
const COLLECT_IDLE: Duration = Duration::from_millis(10);

/// Child-spawn attempt budget (`XMPI_SPAWN_RETRIES`, default 4). Read once
/// per process.
fn spawn_retries() -> u64 {
    static CACHE: OnceLock<u64> = OnceLock::new();
    *CACHE.get_or_init(|| crate::socket::env_u64("XMPI_SPAWN_RETRIES", 4).max(1))
}

/// Capped exponential backoff before spawn attempt `attempt + 1`:
/// `min(10 ms << attempt, 500 ms)`. Pure so the schedule is unit-testable.
fn spawn_backoff(attempt: u64) -> Duration {
    let ms = 10u64
        .checked_shl(u32::try_from(attempt).unwrap_or(u32::MAX))
        .unwrap_or(u64::MAX)
        .min(500);
    Duration::from_millis(ms)
}

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
            BACKEND.with(|b| *b.borrow_mut() = std::mem::take(&mut self.0));
        }
    }
    let prev = BACKEND.with(|b| std::mem::replace(&mut *b.borrow_mut(), backend));
    let _restore = Restore(prev);
    f()
}

/// The [`Backend::Socket`] configuration for a `#[test]` body: children
/// re-execute the current test binary filtered to exactly this test.
/// Obtain `test_path` with [`crate::test_path!`].
pub fn socket_backend_for_test(test_path: &str) -> Backend {
    let exe = std::env::current_exe().expect("current_exe for socket backend");
    Backend::Socket(SocketCfg {
        exe,
        args: vec![
            "--exact".into(),
            test_path.into(),
            "--nocapture".into(),
            "--test-threads=1".into(),
        ],
    })
}

/// The [`Backend::Socket`] configuration for a plain binary (not a test):
/// children re-execute the current binary with the same arguments. The
/// binary's `main` must reach the same launch call deterministically.
pub fn socket_backend_reexec() -> Backend {
    let exe = std::env::current_exe().expect("current_exe for socket backend");
    Backend::Socket(SocketCfg {
        exe,
        args: std::env::args().skip(1).collect(),
    })
}

/// Is this process a socket-backend child rank?
pub fn is_child() -> bool {
    std::env::var_os("XMPI_CHILD_RANK").is_some()
}

/// The rank this child process plays, if [`is_child`].
fn child_rank() -> Option<usize> {
    std::env::var("XMPI_CHILD_RANK").ok()?.parse().ok()
}

/// Resolve the source path of the enclosing `#[test]` function for
/// [`socket_backend_for_test`] — the name libtest's `--exact` filter
/// matches (module path without the crate segment). Trailing `{{closure}}`
/// segments are stripped, so the macro also resolves correctly from inside
/// helper closures (retry wrappers, failure-artifact guards) nested in the
/// test body.
#[macro_export]
macro_rules! test_path {
    () => {{
        fn f() {}
        fn type_name_of<T>(_: &T) -> &'static str {
            ::std::any::type_name::<T>()
        }
        let name = type_name_of(&f);
        let mut name = name.strip_suffix("::f").unwrap_or(name);
        while let Some(outer) = name.strip_suffix("::{{closure}}") {
            name = outer;
        }
        match name.find("::") {
            Some(i) => &name[i + 2..],
            None => name,
        }
    }};
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
    /// The rank hit a genuine panic (details on the child's stderr).
    Panicked,
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
            Shipped::Panicked => out.push(3),
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        match u8::decode(input)? {
            0 => Ok(Shipped::Ok(R::decode(input)?)),
            1 => Ok(Shipped::Err(XmpiError::decode(input)?)),
            2 => Ok(Shipped::Crashed {
                rank: usize::decode(input)?,
            }),
            3 => Ok(Shipped::Panicked),
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
    match current_backend() {
        Backend::Local => crate::world::run(p, f),
        Backend::Socket(cfg) => {
            let out = socket_world(&cfg, p, f);
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
/// boundary, so it surfaces as a parent panic naming the rank instead of
/// re-raising the original payload (the child's stderr has the details).
///
/// # Panics
/// If `p == 0`, a rank panics with a non-sentinel payload, or tracing is
/// armed on the socket backend.
pub fn run_ft<R, F>(p: usize, f: F) -> FtResult<R>
where
    R: Wire + Send,
    F: Fn(&Comm) -> R + Sync,
{
    match current_backend() {
        Backend::Local => crate::world::run_ft(p, f),
        Backend::Socket(cfg) => socket_world(&cfg, p, f),
    }
}

fn current_backend() -> Backend {
    BACKEND.with(|b| b.borrow().clone())
}

/// Run one socket-backed world: dispatch on whether this process is the
/// parent (spawn children, collect) or a child (replay to the target
/// world, participate, ship, exit).
fn socket_world<R, F>(cfg: &SocketCfg, p: usize, f: F) -> FtResult<R>
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
    let world_id = WORLD_SEQ.with(|s| {
        let id = s.get();
        s.set(id + 1);
        id
    });
    if let Some(my_rank) = child_rank() {
        let target: u64 = std::env::var("XMPI_WORLD_ID")
            .ok()
            .and_then(|v| v.parse().ok())
            .expect("child process carries XMPI_WORLD_ID");
        if world_id != target {
            // An earlier (or later) world of the same test body: replay it
            // in-process so the surrounding code sees identical results and
            // deterministically reaches the target launch.
            return crate::world::run_ft(p, f);
        }
        let world_size: usize = std::env::var("XMPI_WORLD_SIZE")
            .ok()
            .and_then(|v| v.parse().ok())
            .expect("child process carries XMPI_WORLD_SIZE");
        assert_eq!(
            world_size, p,
            "child reached world {world_id} with size {p}, parent launched size {world_size}: \
             the replayed test body diverged"
        );
        child_world(p, my_rank, &f);
    }
    parent_world(cfg, p, world_id)
}

/// Child side: join the mesh as `my_rank`, run the rank program, ship the
/// outcome and stats on the control socket, and exit the process.
fn child_world<R, F>(p: usize, my_rank: usize, f: &F) -> !
where
    R: Wire + Send,
    F: Fn(&Comm) -> R + Sync,
{
    let dir = PathBuf::from(std::env::var_os("XMPI_DIR").expect("child process carries XMPI_DIR"));
    let liveness = Arc::new(Liveness::new(p));
    let transport = match SocketTransport::connect(&dir, my_rank, p, liveness.clone()) {
        Ok(t) => t,
        Err(e) => {
            // Graceful launch degradation: the mesh never came up within
            // the bounded dial/accept budget. Report the typed failure to
            // the parent instead of panicking the child.
            ship_result::<R>(&dir, my_rank, &Shipped::Err(e), &RankStats::default(), &[]);
            std::process::exit(0);
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
                // Print the genuine panic before tearing down, then tell
                // the peers (Crash) so they fail fast instead of timing
                // out, and the parent (Panicked) so it re-raises loudly.
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".into());
                eprintln!("xmpi child rank {my_rank}: rank program panicked: {msg}");
                (Shipped::Panicked, true)
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
    ship_result(&dir, my_rank, &shipped, &stats, &dead);
    // Never return into the replayed test body: this process's only job
    // was to play rank `my_rank` of the target world.
    std::process::exit(0);
}

/// Connect the control socket and ship `(outcome, stats, dead roster)` to
/// the parent.
fn ship_result<R: Wire>(
    dir: &std::path::Path,
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

/// Spawn one child rank under the bounded backoff supervisor
/// (`XMPI_SPAWN_RETRIES` attempts, [`spawn_backoff`] between them).
/// Returns the attempts made on exhaustion.
fn spawn_child(
    cfg: &SocketCfg,
    rank: usize,
    p: usize,
    world_id: u64,
    dir: &Path,
) -> Result<Child, u64> {
    let budget = spawn_retries();
    for attempt in 0..budget {
        match Command::new(&cfg.exe)
            .args(&cfg.args)
            .env("XMPI_CHILD_RANK", rank.to_string())
            .env("XMPI_WORLD_SIZE", p.to_string())
            .env("XMPI_WORLD_ID", world_id.to_string())
            .env("XMPI_DIR", dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
        {
            Ok(child) => return Ok(child),
            Err(e) => {
                eprintln!(
                    "xmpi launch: spawn child rank {rank} ({:?}) attempt {}/{budget}: {e}",
                    cfg.exe,
                    attempt + 1
                );
                if attempt + 1 < budget {
                    std::thread::sleep(spawn_backoff(attempt));
                }
            }
        }
    }
    Err(budget)
}

/// Parent side: spawn one child per rank (supervised, bounded backoff),
/// collect the outcomes they ship on the control socket as they arrive,
/// reap them, and assemble the world result.
fn parent_world<R: Wire + Send>(cfg: &SocketCfg, p: usize, world_id: u64) -> FtResult<R> {
    clean_stale_launch_dirs();
    let dir = std::env::temp_dir().join(format!(
        "xmpi-{}-{}",
        std::process::id(),
        LAUNCH_DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create socket mesh directory");
    let ctl_path = dir.join("ctl.sock");
    let ctl = UnixListener::bind(&ctl_path).expect("bind control socket");

    let mut children: Vec<Child> = Vec::with_capacity(p);
    for rank in 0..p {
        match spawn_child(cfg, rank, p, world_id, &dir) {
            Ok(child) => children.push(child),
            Err(attempts) => {
                // Graceful degradation: kill whatever came up, clean the
                // mesh directory, and give every rank the typed launch
                // failure — never a panic, never a half-spawned world left
                // running.
                kill_all(&mut children);
                let _ = std::fs::remove_dir_all(&dir);
                let e = XmpiError::LaunchFailed { rank, attempts };
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
    let deadline = world_deadline().map(|d| Instant::now() + d);
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
                        .map(|c| !matches!(c.try_wait(), Ok(Some(_))))
                        .filter(|&running| running)
                        .count();
                    if alive == 0 {
                        break;
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        eprintln!(
                            "xmpi launch: world {world_id} exceeded XMPI_WORLD_DEADLINE_MS with \
                             {alive} child process(es) wedged; killing them"
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
        let _ = child.wait();
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
            Some((Shipped::Panicked, _, _)) => {
                panic!("rank {rank} panicked in its child process (see its stderr above)");
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
fn kill_all(children: &mut [Child]) {
    for child in children {
        let _ = child.kill();
        let _ = child.wait();
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
    fn test_path_strips_crate_and_fn() {
        // This test lives at xmpi::launch::tests::test_path_strips_crate_and_fn.
        let p = crate::test_path!();
        assert_eq!(p, "launch::tests::test_path_strips_crate_and_fn");
    }

    #[test]
    fn spawn_backoff_is_capped_exponential() {
        use super::spawn_backoff;
        use std::time::Duration;
        assert_eq!(spawn_backoff(0), Duration::from_millis(10));
        assert_eq!(spawn_backoff(1), Duration::from_millis(20));
        assert_eq!(spawn_backoff(5), Duration::from_millis(320));
        assert_eq!(spawn_backoff(6), Duration::from_millis(500));
        assert_eq!(spawn_backoff(u64::MAX), Duration::from_millis(500));
    }

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
        assert!(matches!(current_backend(), Backend::Local));
        with_backend(
            Backend::Socket(SocketCfg {
                exe: PathBuf::from("/bin/true"),
                args: vec![],
            }),
            || {
                assert!(matches!(current_backend(), Backend::Socket(_)));
            },
        );
        assert!(matches!(current_backend(), Backend::Local));
    }
}
