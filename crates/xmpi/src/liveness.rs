//! The per-world liveness registry and the crash-unwind sentinels.
//!
//! When a rank crashes (an injected [`crate::hooks::CrashFate::Crash`]), two
//! facts must propagate to every other thread of the world without any
//! further messaging from the dead rank:
//!
//! 1. **who died** — so a send to (or a receive from) the dead rank fails
//!    fast with [`XmpiError::RankDead`] instead of blocking until the
//!    deadlock timeout;
//! 2. **that the world is poisoned** — collective progress is impossible
//!    once any participant is gone, so every *blocked* operation unwinds
//!    with [`XmpiError::WorldPoisoned`] and the world tears down in
//!    milliseconds, not after a 120-second hang.
//!
//! Both facts are plain atomics read at the top of every blocking loop; an
//! un-crashed world pays two relaxed loads per receive and nothing else.
//!
//! The crash itself travels as a *sentinel panic*: the dying rank unwinds
//! with a [`CrashUnwind`] payload and survivors unwind with [`PoisonUnwind`]
//! payloads. [`crate::run_ft`] catches exactly these two types at the join
//! point and maps them to typed per-rank `Err` values; any other panic is a
//! genuine bug and is re-raised unchanged.

use crate::error::XmpiError;
use std::sync::atomic::{AtomicBool, Ordering};

/// Per-world liveness state, shared by all ranks.
pub(crate) struct Liveness {
    /// `dead[r]` — world rank `r` has crashed.
    dead: Vec<AtomicBool>,
    /// Any rank has crashed; set together with its `dead` flag.
    poisoned: AtomicBool,
}

impl Liveness {
    pub(crate) fn new(p: usize) -> Self {
        Liveness {
            dead: (0..p).map(|_| AtomicBool::new(false)).collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Mark `rank` dead and poison the world. Returns whether this call was
    /// the first to kill the rank — the socket mesh gossips a death notice
    /// exactly once, on the observing rank's first-hand kill, so forwarded
    /// notices cannot flood the mesh.
    pub(crate) fn kill(&self, rank: usize) -> bool {
        let newly = !self.dead[rank].swap(true, Ordering::SeqCst);
        self.poisoned.store(true, Ordering::SeqCst);
        newly
    }

    #[inline]
    pub(crate) fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::Relaxed)
    }

    #[inline]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// World ranks currently marked dead, ascending.
    pub(crate) fn dead_ranks(&self) -> Vec<usize> {
        self.dead
            .iter()
            .enumerate()
            .filter(|(_, d)| d.load(Ordering::Relaxed))
            .map(|(r, _)| r)
            .collect()
    }
}

/// Unwind the current thread with a fault sentinel. `resume_unwind` unwinds
/// exactly as `panic_any` would but does not invoke the panic hook, so an
/// expected rank death prints no panic report or backtrace; genuine panics
/// keep theirs.
pub(crate) fn unwind_with(sentinel: impl std::any::Any + Send) -> ! {
    std::panic::resume_unwind(Box::new(sentinel))
}

/// Run `f` — part of a rank program — with a poisoned world's unwind
/// caught as the typed error it carries, so the rank can still return what
/// it holds (`factor::ft` returns its checkpoint memory this way). A crash
/// sentinel and genuine panics keep unwinding to the launcher.
pub fn catch_poison<T>(f: impl FnOnce() -> T) -> Result<T, XmpiError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => match payload.downcast::<PoisonUnwind>() {
            Ok(poison) => Err(poison.0),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

/// Unwind payload of the crashing rank itself.
pub(crate) struct CrashUnwind {
    pub(crate) rank: usize,
}

/// Unwind payload of a survivor whose blocking operation was cut short by
/// the poisoned world (carries the precise typed error it observed).
pub(crate) struct PoisonUnwind(pub(crate) XmpiError);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_marks_dead_and_poisons() {
        let l = Liveness::new(4);
        assert!(!l.is_poisoned());
        assert!(!l.is_dead(2));
        assert!(l.dead_ranks().is_empty());
        assert!(l.kill(2), "first kill is new");
        assert!(l.is_poisoned());
        assert!(l.is_dead(2));
        assert!(!l.is_dead(1));
        assert_eq!(l.dead_ranks(), vec![2]);
        assert!(!l.kill(2), "repeat kill is not new");
        assert!(l.kill(0));
        assert_eq!(l.dead_ranks(), vec![0, 2]);
    }
}
