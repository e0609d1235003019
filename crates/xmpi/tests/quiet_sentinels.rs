//! Expected rank deaths are silent: the `CrashUnwind` / `PoisonUnwind`
//! sentinels unwind without invoking the panic hook, so a crashed
//! [`xmpi::run_ft`] world prints no panic report or backtrace, while the
//! typed outcomes stay what they were.
//!
//! The panic hook is process-global, so this file holds exactly one test.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use xmpi::{run_ft, with_hooks, CrashFate, SchedHooks, XmpiError};

/// Kill rank 0 at its first send.
struct CrashRankZero;

impl SchedHooks for CrashRankZero {
    fn crash_fate(&self, src: usize, _dst: usize, _ctx: u64, _tag: u64) -> CrashFate {
        if src == 0 {
            CrashFate::Crash
        } else {
            CrashFate::Survive
        }
    }
}

#[test]
fn crashed_world_reports_typed_errors_without_firing_the_panic_hook() {
    static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));

    // Rank 0 dies at its send (crash sentinel); ranks 1 and 2 are blocked
    // on the dead peer (poison sentinels).
    let out = with_hooks(Arc::new(CrashRankZero), || {
        run_ft(3, |c| {
            if c.rank() == 0 {
                c.send_f64(1, 0, &[1.0]);
                0.0
            } else {
                c.recv_f64(0, 0)[0]
            }
        })
    });
    let sentinel_calls = HOOK_CALLS.load(Ordering::SeqCst);

    // A genuine panic still reaches the hook.
    let genuine = std::panic::catch_unwind(|| panic!("genuine"));
    let all_calls = HOOK_CALLS.load(Ordering::SeqCst);
    std::panic::set_hook(previous);

    assert_eq!(out.crashed, vec![0]);
    for result in &out.results {
        assert_eq!(*result, Err(XmpiError::RankDead { rank: 0 }));
    }
    assert_eq!(sentinel_calls, 0, "a fault sentinel invoked the panic hook");
    assert!(genuine.is_err());
    assert_eq!(all_calls, 1, "a genuine panic must still be reported");
}
