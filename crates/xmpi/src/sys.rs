//! The few libc calls the launcher and the socket mesh make; std links
//! libc already. The constants and the `pollfd` layout are Linux's.

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::Duration;

pub(crate) const SIGKILL: c_int = 9;
pub(crate) const POLLIN: c_short = 1;
pub(crate) const POLLOUT: c_short = 4;
pub(crate) const PROT_READ: c_int = 1;
pub(crate) const PROT_WRITE: c_int = 2;
pub(crate) const MAP_SHARED: c_int = 1;
pub(crate) const MAP_ANONYMOUS: c_int = 0x20;

#[repr(C)]
pub(crate) struct PollFd {
    pub(crate) fd: c_int,
    pub(crate) events: c_short,
    pub(crate) revents: c_short,
}

#[repr(C)]
pub(crate) struct TimeSpec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    pub(crate) fn fork() -> c_int;
    pub(crate) fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
    pub(crate) fn kill(pid: c_int, sig: c_int) -> c_int;
    pub(crate) fn _exit(status: c_int) -> !;
    pub(crate) fn dup2(old: c_int, new: c_int) -> c_int;
    pub(crate) fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const TimeSpec,
        sigmask: *const c_void,
    ) -> c_int;
    pub(crate) fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    pub(crate) fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// Wait until one of `fds` is ready or `timeout` passes (`None` waits
/// for readiness alone), to the nanosecond. An interrupted wait returns
/// as a timeout would: every caller re-checks what it waits for.
pub(crate) fn wait_ready(fds: &mut [PollFd], timeout: Option<Duration>) {
    let ts = timeout.map(|d| TimeSpec {
        tv_sec: c_long::try_from(d.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: d.subsec_nanos() as c_long,
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const TimeSpec);
    // SAFETY: `fds` is a live array of `fds.len()` pollfd records, `ts_ptr`
    // is null or points at `ts`, which outlives the call, and a null
    // signal mask leaves the thread's mask as it is.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            ts_ptr,
            std::ptr::null(),
        )
    };
}
