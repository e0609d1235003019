//! A world whose sockets cannot be made is a typed launch failure: with
//! the descriptor limit lowered so that the launcher's `socketpair` calls
//! run out part-way, every rank returns `LaunchFailed`, nothing is
//! reported crashed, no rank process is left behind and no descriptor
//! leaks. A test binary of its own, because the limit is per process.

use std::ffi::c_int;
use xmpi::XmpiError;

/// `RLIMIT_NOFILE`'s resource number and `struct rlimit`, as on Linux.
const RLIMIT_NOFILE: c_int = 7;
const WNOHANG: c_int = 1;

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
}

/// The descriptors this process has open, by number.
fn open_fds() -> Vec<u64> {
    let mut fds: Vec<u64> = std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .map(|e| {
            e.expect("fd entry")
                .file_name()
                .to_str()
                .and_then(|n| n.parse().ok())
                .expect("numeric fd")
        })
        .collect();
    fds.sort_unstable();
    fds
}

#[test]
fn a_world_whose_sockets_cannot_be_made_fails_typed() {
    let p = 4;
    let before = open_fds();
    let mut old = Rlimit { cur: 0, max: 0 };
    // SAFETY: a valid out-pointer.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut old) }, 0);
    // Room for a few pairs above the highest open descriptor (the listing's
    // own, now closed, included), not for the world's `p + p(p-1)/2`.
    let limit = Rlimit {
        cur: before.last().copied().unwrap_or(2) + 1 + 5,
        max: old.max,
    };
    // SAFETY: a valid `rlimit`, lowering only the soft limit.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &limit) }, 0);
    let out = xmpi::with_backend(xmpi::Backend::Socket, || {
        std::panic::catch_unwind(|| xmpi::launch::run_ft(p, |c| c.rank() as u64))
    });
    // SAFETY: restores the limit read above.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &old) }, 0);

    let out = out.expect("a launch failure must not panic");
    assert_eq!(out.results.len(), p);
    for (rank, res) in out.results.iter().enumerate() {
        assert!(
            matches!(res, Err(XmpiError::LaunchFailed { .. })),
            "rank {rank}: expected LaunchFailed, got {res:?}"
        );
    }
    assert!(
        out.crashed.is_empty(),
        "a world that never formed has no crashed ranks to restart"
    );
    let mut status = 0;
    // SAFETY: a valid out-pointer; `-1` asks about any child.
    let child = unsafe { waitpid(-1, &mut status, WNOHANG) };
    assert_eq!(
        (child, std::io::Error::last_os_error().raw_os_error()),
        (-1, Some(10)),
        "no rank process may be left behind (ECHILD expected)"
    );
    assert_eq!(
        open_fds(),
        before,
        "the sockets made before the failure leak"
    );
}
