//! The deadlock-detection timeout is configurable through
//! `CONFLUX_RECV_TIMEOUT_MS`. This file is its own test process and holds
//! exactly one test, so setting the variable here cannot race another test;
//! the runtime parses and caches the value on first use.

use std::time::{Duration, Instant};
use xmpi::XmpiError;

#[test]
fn recv_timeout_env_is_honoured() {
    std::env::set_var("CONFLUX_RECV_TIMEOUT_MS", "150");
    let t0 = Instant::now();
    let out = xmpi::run(2, |c| {
        if c.rank() == 1 {
            // Wait on a message nobody ever sends: the receive deadline
            // comes from the environment knob.
            Some(
                c.try_recv_f64(0, 99)
                    .expect_err("no sender: the receive must time out"),
            )
        } else {
            None
        }
    });
    let elapsed = t0.elapsed();
    // The error still names the stuck channel coordinates.
    assert!(
        matches!(
            out.results[1],
            Some(XmpiError::Timeout {
                src: 0,
                tag: 99,
                ..
            })
        ),
        "{:?}",
        out.results[1]
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "a 150 ms configured timeout must not wait out the 120 s default (took {elapsed:?})"
    );
}
