//! Offline stand-in for the `rayon` crate.
//!
//! The build container has no network access, so the real crate cannot be
//! fetched. This shim reproduces the data-parallelism subset the workspace
//! uses (`into_par_iter().for_each(..)` on vectors) with genuine parallel
//! execution. As in the real crate there is one global pool,
//! started on first use and sized once (`RAYON_NUM_THREADS`, else the
//! available cores): the calling thread works through its own items and the
//! pool's helper threads join in through a shared atomic cursor, so a
//! parallel call costs no thread spawn and every caller of a process shares
//! the same helpers instead of bringing its own. A forked child process
//! has none of its parent's helper threads — and may hold a copy of the
//! queue lock one of them had taken — so the pool is keyed by process id,
//! and a child's first parallel call starts a pool of its own.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::Thread;

pub mod prelude {
    //! Traits imported by `use rayon::prelude::*`.
    pub use crate::IntoParallelIterator;
}

/// Owned parallel iteration, mirroring `rayon::iter::IntoParallelIterator`
/// for the `Vec` case the workspace uses (`par_gemm` hands each worker an
/// owned `MatMut` row block).
pub trait IntoParallelIterator {
    /// Item type yielded to the closure.
    type Item: Send;
    /// Convert into a pending parallel iteration.
    fn into_par_iter(self) -> ParVec<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec { items: self }
    }
}

/// Pending parallel iteration over owned items.
pub struct ParVec<T> {
    items: Vec<T>,
}

impl<T: Send> ParVec<T> {
    /// Run `f` on every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        run_items(self.items, |_, c| f(c));
    }
}

/// Pool size: `RAYON_NUM_THREADS` like the real crate, else the available
/// cores. Read once, when the pool starts.
fn num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One parallel call: `len` items handed out by an atomic cursor to the
/// caller and to whichever helpers pick the batch up. It lives in the
/// `run_items` frame of the caller; helpers reach it through the pointers
/// that frame posts on the pool's queue.
struct Batch<'f> {
    /// Runs item `i`.
    run: &'f (dyn Fn(usize) + Sync),
    len: usize,
    cursor: AtomicUsize,
    /// Helpers that took one of the batch's queue entries and have not left
    /// yet. Raised under the queue lock; the drop to zero is a helper's
    /// last access to the batch.
    helping: AtomicUsize,
    /// The first panic an item raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The caller, to be woken when a helper leaves.
    owner: Thread,
}

impl Batch<'_> {
    /// Claim and run items until none are left to claim.
    fn work(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.run)(i))) {
                self.panic.lock().unwrap().get_or_insert(payload);
            }
        }
    }
}

/// A queue entry: one invitation to help with the batch it points to.
///
/// Dereferenced only by a helper that found it on the queue, between taking
/// it (under the queue lock, where the helper also enters `helping`) and
/// leaving `helping`. The owning frame removes its remaining entries under
/// the same lock and then waits for `helping` to reach zero before it
/// returns, so the pointee outlives every access.
struct Invitation(*const Batch<'static>);

// SAFETY: the pointee is `Sync` (its closure is) and outlives the entry, as
// described above.
unsafe impl Send for Invitation {}

/// The invitations a `run_items` frame has out. Dropping it — on the way out
/// of the frame, normally or unwinding — withdraws the ones nobody took and
/// waits for the helpers that did take one to leave the batch.
struct Posted<'a> {
    pool: &'a Pool,
    batch: &'a Batch<'a>,
}

impl<'a> Posted<'a> {
    /// Post `invited` invitations to `batch` and wake the helpers.
    fn new(pool: &'a Pool, batch: &'a Batch<'a>, invited: usize) -> Self {
        let posted = Posted { pool, batch };
        let entries = (0..invited).map(|_| Invitation(posted.address()));
        pool.queue.lock().unwrap().extend(entries);
        pool.posted.notify_all();
        posted
    }

    /// The batch's address as queue entries carry it (lifetime erased).
    fn address(&self) -> *const Batch<'static> {
        std::ptr::from_ref(self.batch).cast()
    }
}

impl Drop for Posted<'_> {
    fn drop(&mut self) {
        let me = self.address();
        let mut queue = self.pool.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.retain(|entry| entry.0 != me);
        drop(queue);
        while self.batch.helping.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
    }
}

/// The process-wide helper threads and the invitations waiting for them.
struct Pool {
    /// The process whose threads these are.
    pid: u32,
    helpers: usize,
    queue: Mutex<VecDeque<Invitation>>,
    posted: Condvar,
}

impl Pool {
    /// A helper thread's life: take an invitation, work on its batch, park
    /// again.
    fn help(&self) -> ! {
        loop {
            let mut queue = self.queue.lock().unwrap();
            let batch = loop {
                match queue.pop_front() {
                    // SAFETY: the entry was still queued, so its batch is
                    // alive, and stays so until `helping` drops below.
                    Some(Invitation(batch)) => break unsafe { &*batch },
                    None => queue = self.posted.wait(queue).unwrap(),
                }
            };
            batch.helping.fetch_add(1, Ordering::Relaxed);
            drop(queue);
            batch.work();
            let owner = batch.owner.clone();
            batch.helping.fetch_sub(1, Ordering::Release);
            owner.unpark();
        }
    }
}

/// This process's pool: `num_threads() - 1` parked helper threads (the
/// caller of a parallel call is the remaining worker), started on first
/// use — and again, with the same number of helpers, by the first parallel
/// call of a forked child. Pools are leaked, never freed.
fn pool() -> &'static Pool {
    static POOL: AtomicPtr<Pool> = AtomicPtr::new(std::ptr::null_mut());
    let pid = std::process::id();
    let current = POOL.load(Ordering::Acquire);
    // SAFETY: a non-null `POOL` points at a leaked pool, never freed.
    let inherited = unsafe { current.as_ref() };
    if let Some(pool) = inherited.filter(|pool| pool.pid == pid) {
        return pool;
    }
    let pool: &'static Pool = Box::leak(Box::new(Pool {
        pid,
        helpers: inherited.map_or_else(|| num_threads() - 1, |parent| parent.helpers),
        queue: Mutex::new(VecDeque::new()),
        posted: Condvar::new(),
    }));
    let fresh = std::ptr::from_ref(pool).cast_mut();
    match POOL.compare_exchange(current, fresh, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => {
            for _ in 0..pool.helpers {
                std::thread::spawn(move || pool.help());
            }
            pool
        }
        // Another thread of this process started the pool first; ours
        // never got helpers and stays unused.
        // SAFETY: as above.
        Err(winner) => unsafe { &*winner },
    }
}

/// Distribute owned `items` over the calling thread and the pool's helpers
/// via an atomic work cursor. Returns when every item has run; a panic in
/// any item is re-raised here once the others are done. The call's own
/// bookkeeping lives in this frame: a helper allocates and frees nothing on
/// the caller's behalf.
fn run_items<T, F>(items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    let pool = pool();
    let invited = pool.helpers.min(items.len().saturating_sub(1));
    if invited == 0 {
        for (i, c) in items.into_iter().enumerate() {
            f(i, c);
        }
        return;
    }
    // Wrap each item in an Option cell so any worker can take any item.
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let run = |i: usize| {
        let item = cells[i].lock().unwrap().take().expect("item taken twice");
        f(i, item);
    };
    let batch = Batch {
        run: &run,
        len: cells.len(),
        cursor: AtomicUsize::new(0),
        helping: AtomicUsize::new(0),
        panic: Mutex::new(None),
        owner: std::thread::current(),
    };
    let posted = Posted::new(pool, &batch, invited);
    batch.work();
    // Every item is claimed now; wait for the ones helpers claimed.
    drop(posted);
    if let Some(payload) = batch.panic.into_inner().unwrap() {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Every test asks for the same pool before its first parallel call, so
    /// whichever starts the pool starts it with helpers, on any machine.
    fn with_helpers() {
        std::env::set_var("RAYON_NUM_THREADS", "4");
    }

    fn chunks<T>(v: &mut [T], size: usize) -> Vec<&mut [T]> {
        v.chunks_mut(size).collect()
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_after_the_others_ran() {
        with_helpers();
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (0..64)
                .collect::<Vec<usize>>()
                .into_par_iter()
                .for_each(|i| {
                    if i == 17 {
                        std::panic::resume_unwind(Box::new("item 17"));
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                });
        }));
        let payload = caught.expect_err("the panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 17"));
        assert_eq!(ran.load(Ordering::Relaxed), 63);
        // The pool survives: the next call runs every item.
        let mut v = vec![0u8; 256];
        chunks(&mut v, 8).into_par_iter().for_each(|c| c.fill(1));
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn concurrent_callers_share_the_helpers() {
        with_helpers();
        std::thread::scope(|s| {
            for t in 0..8usize {
                s.spawn(move || {
                    for round in 0..200 {
                        let mut v = vec![0usize; 96];
                        let blocks: Vec<_> = v.chunks_mut(8).enumerate().collect();
                        blocks.into_par_iter().for_each(|(i, c)| {
                            c.fill(t * 1000 + round + i);
                        });
                        for (j, &x) in v.iter().enumerate() {
                            assert_eq!(x, t * 1000 + round + j / 8);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn a_parallel_call_inside_an_item_completes() {
        with_helpers();
        let total = AtomicUsize::new(0);
        (0..6)
            .collect::<Vec<usize>>()
            .into_par_iter()
            .for_each(|_| {
                let mut inner = vec![1usize; 40];
                chunks(&mut inner, 4).into_par_iter().for_each(|c| {
                    total.fetch_add(c.iter().sum::<usize>(), Ordering::Relaxed);
                });
            });
        assert_eq!(total.load(Ordering::Relaxed), 240);
    }

    #[test]
    fn every_item_runs_once() {
        with_helpers();
        let mut v = vec![0u64; 1003];
        chunks(&mut v, 64).into_par_iter().for_each(|c| {
            for x in c.iter_mut() {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }
}
