//! The socket backend's I/O contract: a rank process's own thread writes
//! its frames and reads its mesh, and one monitor thread per rank reads
//! the mesh while the rank program is busy elsewhere.
//!
//! * two ranks sending large payloads head-on both complete: a sender
//!   whose socket is full reads its own inbound streams;
//! * a send larger than the socket buffer returns promptly even while its
//!   destination sleeps outside any comm call: the destination's monitor
//!   reads each heartbeat period;
//! * thousands of small round trips and allreduces lose no wake-up;
//! * a rank process runs at most two threads, its own and the monitor;
//! * frames sent before a peer's crash are received after the world is
//!   poisoned.
//!
//! The suite runs in a process of its own: it pins 1 ms heartbeats and a
//! 30 s receive timeout before its first world (the launcher reads the
//! knobs once, before it forks). Its tests run one at a time, so their
//! time bounds do not share the CPUs.

use std::sync::{Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};
use xmpi::Backend::Socket;
use xmpi::Comm;

/// The receive timeout the suite pins; a lost wake-up would show as a
/// receive that waits this long and panics.
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Pin the knobs once, and hold the suite's one-at-a-time lock.
fn setup() -> MutexGuard<'static, ()> {
    static ONCE: Once = Once::new();
    static SERIAL: Mutex<()> = Mutex::new(());
    ONCE.call_once(|| {
        std::env::set_var("XMPI_HEARTBEAT_MS", "1");
        std::env::set_var(
            "CONFLUX_RECV_TIMEOUT_MS",
            RECV_TIMEOUT.as_millis().to_string(),
        );
    });
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// 4 MiB of `f64`: far more than a UNIX socket buffers.
const BIG: usize = 1 << 19;

#[test]
fn head_on_sends_of_4_mib_both_complete() {
    let _serial = setup();
    let out = xmpi::with_backend(Socket, || {
        xmpi::run(2, |c| {
            let peer = 1 - c.rank();
            c.send_f64(peer, 1, &vec![c.rank() as f64 + 0.5; BIG]);
            let got = c.recv_f64(peer, 1);
            (got.len(), got.iter().all(|&x| x == peer as f64 + 0.5))
        })
    });
    assert_eq!(out.results, vec![(BIG, true), (BIG, true)]);
    for rank in &out.stats.ranks {
        assert_eq!(rank.bytes_sent, 8 * BIG as u64);
        assert_eq!(rank.bytes_recv, 8 * BIG as u64);
    }
}

#[test]
fn a_send_to_a_sleeping_rank_returns_within_a_second() {
    let _serial = setup();
    let out = xmpi::with_backend(Socket, || {
        xmpi::run(2, |c| {
            if c.rank() == 0 {
                let started = Instant::now();
                c.send_f64(1, 2, &vec![1.0; BIG]);
                started.elapsed().as_secs_f64()
            } else {
                std::thread::sleep(Duration::from_secs(2));
                c.recv_f64(0, 2).len() as f64
            }
        })
    });
    assert_eq!(out.results[1], BIG as f64);
    assert!(
        out.results[0] < 1.0,
        "a 4 MiB send to a sleeping rank took {} s: nothing read its mesh",
        out.results[0]
    );
}

#[test]
fn ten_thousand_ping_pongs_and_an_allreduce_loop_lose_no_wake_up() {
    let _serial = setup();
    let started = Instant::now();
    let out = xmpi::with_backend(Socket, || {
        xmpi::run(2, |c| {
            let peer = 1 - c.rank();
            let mut last = 0.0;
            for i in 0..10_000u64 {
                if c.rank() == 0 {
                    c.send_f64(peer, 3, &[i as f64]);
                    last = c.recv_f64(peer, 3)[0];
                    assert_eq!(last, i as f64 + 1.0);
                } else {
                    last = c.recv_f64(peer, 3)[0] + 1.0;
                    c.send_f64(peer, 3, &[last]);
                }
            }
            last
        })
    });
    let ping_pongs = started.elapsed();
    assert_eq!(out.results, vec![10_000.0, 10_000.0]);

    let started = Instant::now();
    let program = |c: &Comm| {
        let mut total = 0.0;
        for i in 0..2_000u64 {
            let mut v = vec![(i + c.rank() as u64) as f64];
            c.allreduce_sum(&mut v);
            total += v[0];
        }
        total
    };
    let out = xmpi::with_backend(Socket, || xmpi::run(4, program));
    let allreduces = started.elapsed();
    // Σ_i (4i + 0 + 1 + 2 + 3) over i < 2000.
    let expect = (0..2_000u64).map(|i| (4 * i + 6) as f64).sum::<f64>();
    assert_eq!(out.results, vec![expect; 4]);
    for (what, took) in [("ping-pongs", ping_pongs), ("allreduces", allreduces)] {
        assert!(
            took < RECV_TIMEOUT / 4,
            "the {what} took {took:?}: receives waited for wake-ups they should not need"
        );
    }
}

/// `Threads:` of this process, from `/proc/self/status`.
fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn a_rank_process_runs_at_most_two_threads() {
    let _serial = setup();
    let out = xmpi::with_backend(Socket, || {
        xmpi::run(4, |c| {
            let mut v = vec![1.0];
            c.allreduce_sum(&mut v);
            threads()
        })
    });
    for (rank, n) in out.results.iter().enumerate() {
        assert!(
            *n <= 2,
            "rank {rank} runs {n} threads: more than its own and the heartbeat monitor"
        );
    }
}

#[test]
fn frames_sent_before_a_crash_are_received_after_the_poison() {
    let _serial = setup();
    let launcher = std::process::id();
    let out = xmpi::with_backend(Socket, || {
        xmpi::run_ft(3, |c| {
            match c.rank() {
                0 => {
                    // Rank 2 dies first: this receive fails once its end
                    // of stream has poisoned the world.
                    assert!(c.try_recv_f64(2, 9).is_err(), "rank 2 never sends");
                    // Rank 1 sends into the poisoned world, then dies.
                    std::thread::sleep(Duration::from_millis(500));
                    (0..3u64)
                        .map(|i| c.try_recv_f64(1, 10 + i).expect("sent before the crash")[0])
                        .sum::<f64>()
                }
                1 => {
                    assert_ne!(std::process::id(), launcher, "rank 1 is the launcher");
                    std::thread::sleep(Duration::from_millis(200));
                    for i in 0..3u64 {
                        c.send_f64(0, 10 + i, &[i as f64]);
                    }
                    std::process::abort();
                }
                _ => {
                    assert_ne!(std::process::id(), launcher, "rank 2 is the launcher");
                    std::process::abort();
                }
            }
        })
    });
    assert_eq!(out.crashed, vec![1, 2]);
    assert_eq!(out.results[0], Ok(3.0));
}
