//! Wire-level chaos on the real socket mesh: every test here arms an
//! [`xharness::Perturbator`] wire-fault plan around worlds of real child
//! processes, and checks the three robustness contracts of the transport:
//!
//! * **torn frames are invisible** — a frame written in two pieces around
//!   a stall is reassembled by the reader; results, message counts, and
//!   byte ledgers match a fault-free run exactly;
//! * **fatal wire faults are typed** — a mid-frame connection reset or a
//!   silently hung rank becomes `RankDead` (via mid-frame-EOF
//!   classification or the heartbeat failure detector), never a panic and
//!   never an indefinite hang.
//!
//! A world that cannot be launched is typed too; `launch_failure.rs` tests
//! that in a binary of its own.
//!
//! The suite pins small deadlines through the `XMPI_*` environment knobs
//! (set once per process; the launcher reads them before it forks, so the
//! rank processes inherit them).

use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use xharness::{HangPlan, PerturbConfig, Perturbator, ResetPlan};
use xmpi::Backend::Socket;

/// Pin fast failure-detection deadlines, once per process: 50 ms
/// heartbeats with suspicion at 2.5 s. Every test calls this first, so the
/// knobs are set before any socket code caches them.
fn chaos_env() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::env::set_var("XMPI_HEARTBEAT_MS", "50");
        std::env::set_var("XMPI_SUSPECT_MS", "2500");
    });
}

/// Torn writes must be observably benign: with every frame torn (prefix +
/// stall + suffix), results and the full byte ledger match the fault-free
/// socket run bit for bit — and no byte is dropped or double-counted.
#[test]
fn torn_frames_are_reassembled_exactly() {
    chaos_env();
    let program = |c: &xmpi::Comm| {
        let peer = 1 - c.rank();
        c.send_f64(peer, 3, &[c.rank() as f64 + 0.25; 7]);
        let got = c.recv_f64(peer, 3);
        let mut acc = vec![got.iter().sum::<f64>()];
        c.allreduce_sum(&mut acc);
        acc[0]
    };
    let clean = xmpi::with_backend(Socket, || xmpi::launch::run(2, program));
    let chaos = Arc::new(Perturbator::new(PerturbConfig {
        torn_prob: 1.0,
        max_torn_stall_us: 300,
        ..PerturbConfig::chaos(5)
    }));
    let torn = xmpi::with_backend(Socket, || {
        xharness::run_armed(&chaos, || xmpi::launch::run(2, program))
    });
    assert_eq!(torn.results, clean.results);
    for (rank, (a, b)) in clean.stats.ranks.iter().zip(&torn.stats.ranks).enumerate() {
        assert_eq!(a.bytes_sent, b.bytes_sent, "rank {rank} sent drifted");
        assert_eq!(a.bytes_recv, b.bytes_recv, "rank {rank} recv drifted");
        assert_eq!(a.msgs_recv, b.msgs_recv, "rank {rank} msg count drifted");
    }
}

/// A planned mid-frame reset: rank 1's fifth payload frame to rank 0 is
/// cut short and the stream's write half closed. Rank 0 must classify the
/// mid-frame EOF as rank 1's death, keep every message delivered *before*
/// the cut consumable, count exactly those messages' bytes (the torn-off
/// frame contributes nothing — no partial delivery, no double count), and
/// the world must report `crashed == [1]`.
#[test]
fn mid_frame_reset_is_typed_and_lossless() {
    chaos_env();
    let chaos = Arc::new(
        Perturbator::new(PerturbConfig {
            torn_prob: 0.0,
            ..PerturbConfig::chaos(11)
        })
        .with_reset(ResetPlan {
            src: 1,
            dst: 0,
            on_frame: 4,
        }),
    );
    let out = xmpi::with_backend(Socket, || {
        xharness::run_armed(&chaos, || {
            xmpi::launch::run_ft(2, |c| {
                if c.rank() == 1 {
                    for i in 0..10u64 {
                        c.send_f64(0, i, &[i as f64]);
                    }
                    // The ack never comes: the reset kills this rank first,
                    // and the poisoned world fails this receive fast.
                    c.recv_f64(0, 99)[0]
                } else {
                    let mut got = 0u64;
                    for i in 0..10u64 {
                        match c.try_recv_f64(1, i) {
                            Ok(v) => {
                                assert_eq!(v, vec![i as f64]);
                                got += 1;
                            }
                            Err(_) => break,
                        }
                    }
                    got as f64
                }
            })
        })
    });
    assert_eq!(out.crashed, vec![1], "reset must surface as rank 1's death");
    // Frames 0..=3 were fully written before the cut; frame 4 died on the
    // wire; 5..=9 were dropped by the broken stream.
    assert_eq!(out.results[0], Ok(4.0));
    assert!(out.results[1].is_err(), "the reset rank cannot finish");
    assert_eq!(out.stats.ranks[0].msgs_recv, 4, "delivered-message count");
    assert_eq!(out.stats.ranks[0].bytes_recv, 4 * 8, "no torn-frame bytes");
}

/// A rank that goes silent without closing anything — no data, no `Fin`,
/// no heartbeats, process still alive — is only detectable by the failure
/// detector. With 50 ms heartbeats and 2.5 s suspicion, the survivors
/// must classify it dead and the whole world must wind down in seconds,
/// not block until the 120 s receive timeout.
#[test]
fn hung_rank_is_detected_by_heartbeat() {
    chaos_env();
    let chaos = Arc::new(
        Perturbator::new(PerturbConfig {
            torn_prob: 0.0,
            ..PerturbConfig::chaos(17)
        })
        .with_hang(HangPlan {
            victim: 1,
            after_frames: 2,
        }),
    );
    let started = Instant::now();
    let out = xmpi::with_backend(Socket, || {
        xharness::run_armed(&chaos, || {
            xmpi::launch::run_ft(2, |c| {
                if c.rank() == 1 {
                    for i in 0..5u64 {
                        c.send_f64(0, i, &[i as f64]);
                    }
                    // Unreachable ack: the hang latches at frame 2, and the
                    // gossiped death verdict fails this receive fast.
                    c.recv_f64(0, 99)[0]
                } else {
                    let mut got = 0u64;
                    for i in 0..5u64 {
                        match c.try_recv_f64(1, i) {
                            Ok(_) => got += 1,
                            Err(_) => break,
                        }
                    }
                    got as f64
                }
            })
        })
    });
    let elapsed = started.elapsed();
    assert_eq!(out.crashed, vec![1], "hung rank must be declared dead");
    assert_eq!(out.results[0], Ok(2.0), "frames before the hang delivered");
    assert!(out.results[1].is_err());
    assert!(
        elapsed < Duration::from_secs(60),
        "hang detection took {elapsed:?} — the failure detector did not fire \
         (a blocked receive would ride the 120 s timeout instead)"
    );
}
