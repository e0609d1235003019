//! The last-resort world deadline of the socket launcher: a child that
//! neither reports nor exits is killed at `XMPI_WORLD_DEADLINE_MS`, and its
//! rank comes back as `RankDead` instead of the launcher hanging. A test
//! binary of its own, because the deadline is read once per process.

use std::time::{Duration, Instant};
use xmpi::XmpiError;

#[test]
fn wedged_child_is_killed_at_the_world_deadline() {
    std::env::set_var("XMPI_WORLD_DEADLINE_MS", "1500");
    let backend = xmpi::launch::socket_backend_for_test(xmpi::test_path!());
    let started = Instant::now();
    let out = xmpi::with_backend(backend, || {
        xmpi::launch::run_ft(2, |c| {
            if c.rank() == 1 {
                // Wedged: alive, heartbeats flowing, never returning.
                loop {
                    std::thread::park();
                }
            }
            c.rank() as u64
        })
    });
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(1500),
        "the world ended before its deadline: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(20),
        "the deadline did not fire: {elapsed:?}"
    );
    assert!(
        matches!(out.results[1], Err(XmpiError::RankDead { rank: 1 })),
        "{:?}",
        out.results[1]
    );
    assert!(out.crashed.contains(&1), "{:?}", out.crashed);
}
