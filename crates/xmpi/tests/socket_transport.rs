//! End-to-end tests of the multi-process socket backend: every test here
//! launches real child processes (forked from the test's thread) joined by
//! a UNIX-socket mesh, and checks that results, byte accounting,
//! subcommunicators, a send-first ring, and the fault domain behave
//! exactly as on the in-process backend.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use xmpi::launch::SharedFlag;
use xmpi::wire::encode_vec;
use xmpi::Backend::Socket;
use xmpi::{Comm, FtResult, XmpiError};

#[test]
fn pingpong_over_sockets() {
    let out = xmpi::with_backend(Socket, || {
        xmpi::launch::run(2, |c| {
            if c.rank() == 0 {
                c.send_f64(1, 7, &[1.5, -0.0, 3.25]);
                c.send_u64(1, 8, &[10, 20, 30]);
                c.recv_f64(1, 9)
            } else {
                let f = c.recv_f64(0, 7);
                let u = c.recv_u64(0, 8);
                assert_eq!(u, vec![10, 20, 30]);
                let echoed: Vec<f64> = f.iter().map(|x| x * 2.0).collect();
                c.send_f64(0, 9, &echoed);
                f
            }
        })
    });
    assert_eq!(out.results[0], vec![3.0, 0.0, 6.5]);
    assert_eq!(out.results[1][0].to_bits(), 1.5f64.to_bits());
    assert_eq!(out.results[1][1].to_bits(), (-0.0f64).to_bits());
    // 3+3 elements one way, 3 back: every byte crossed a real socket.
    assert_eq!(out.stats.total_bytes_sent(), 9 * 8);
    assert_eq!(out.stats.total_bytes_recv(), 9 * 8);
}

#[test]
fn collectives_match_local_backend_exactly() {
    // The conformance property in miniature: the same SPMD program on
    // threads and on processes must produce bit-identical results and
    // identical per-rank, per-phase, per-collective byte ledgers.
    let program = |c: &Comm| -> (Vec<f64>, Vec<Vec<f64>>) {
        c.set_phase("bcast");
        let mut buf = if c.rank() == 1 {
            vec![0.125, 2.5, -7.75, 1.0 / 3.0]
        } else {
            vec![]
        };
        c.bcast_f64(1, &mut buf);
        c.set_phase("reduce");
        let mut acc: Vec<f64> = buf.iter().map(|x| x * (c.rank() + 1) as f64).collect();
        c.allreduce_sum(&mut acc);
        c.set_phase("gather");
        let mine = vec![c.rank() as f64; 3];
        let all = c.allgather_f64(&mine);
        c.barrier();
        (acc, all)
    };
    let local = xmpi::launch::run(4, program);
    let socket = xmpi::with_backend(Socket, || xmpi::launch::run(4, program));

    for (l, s) in local.results.iter().zip(&socket.results) {
        assert_eq!(
            encode_vec(l),
            encode_vec(s),
            "results must be bit-identical"
        );
    }
    for (rank, (l, s)) in local
        .stats
        .ranks
        .iter()
        .zip(&socket.stats.ranks)
        .enumerate()
    {
        assert_eq!(
            encode_vec(l),
            encode_vec(s),
            "rank {rank} traffic ledger diverged between backends"
        );
    }
}

#[test]
fn subcommunicators_over_sockets() {
    let grid = xmpi::Grid2::new(2, 2);
    let out = xmpi::with_backend(Socket, || {
        xmpi::launch::run(4, move |c| {
            let (i, j) = grid.coords(c.rank());
            // Row broadcast from column 0, then column sum.
            let row = c.subcomm(1, &grid.row_members(i));
            let mut buf = if j == 0 {
                vec![(10 * i) as f64]
            } else {
                vec![]
            };
            row.bcast_f64(0, &mut buf);
            let col = c.subcomm(2, &grid.col_members(j));
            let mut acc = vec![buf[0] + j as f64];
            col.allreduce_sum(&mut acc);
            acc[0]
        })
    });
    // Column j sums (0 + j) + (10 + j) over its two rows.
    assert_eq!(out.results, vec![10.0, 12.0, 10.0, 12.0]);
}

#[test]
fn requests_over_sockets() {
    // A ring: every rank sends first, then receives (sends are buffered).
    let out = xmpi::with_backend(Socket, || {
        xmpi::launch::run(3, |c| {
            let dst = (c.rank() + 1) % c.size();
            let src = (c.rank() + c.size() - 1) % c.size();
            c.send_f64(dst, 4, &[c.rank() as f64; 16]);
            c.recv_f64(src, 4).iter().sum::<f64>()
        })
    });
    assert_eq!(out.results, vec![32.0, 0.0, 16.0]);
}

#[test]
fn two_socket_worlds_in_one_test() {
    // The second world's ranks are forked after the first world returned,
    // so they hold its result.
    let first = xmpi::with_backend(Socket, || {
        xmpi::launch::run(2, |c| {
            let mut v = vec![(c.rank() + 3) as f64];
            c.allreduce_sum(&mut v);
            v[0]
        })
    });
    assert_eq!(first.results, vec![7.0, 7.0]);
    let offset = first.results[0];
    let second = xmpi::with_backend(Socket, || {
        xmpi::launch::run(2, move |c| {
            let mut v = vec![offset + c.rank() as f64];
            c.allreduce_sum(&mut v);
            v[0]
        })
    });
    assert_eq!(second.results, vec![15.0, 15.0]);
}

/// Kills rank 1 at its second send, deterministically, on any backend.
struct CrashSecondSend(std::sync::atomic::AtomicU32);

impl xmpi::SchedHooks for CrashSecondSend {
    fn crash_fate(&self, src: usize, _dst: usize, _ctx: u64, _tag: u64) -> xmpi::CrashFate {
        if src == 1 && self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 1 {
            xmpi::CrashFate::Crash
        } else {
            xmpi::CrashFate::Survive
        }
    }
}

#[test]
fn injected_crash_surfaces_rank_dead() {
    // Every forked rank holds a copy of the armed hooks; the victim's copy
    // counts the victim's sends.
    let out = xmpi::with_backend(Socket, || {
        xmpi::with_hooks(
            std::sync::Arc::new(CrashSecondSend(std::sync::atomic::AtomicU32::new(0))),
            || {
                xmpi::launch::run_ft(3, |c| {
                    // Everyone sends two rounds to rank 0; rank 1 dies at
                    // its second send.
                    for round in 0..2u64 {
                        if c.rank() != 0 {
                            c.send_f64(0, round, &[c.rank() as f64]);
                        } else {
                            for src in 1..3 {
                                let _ = c.try_recv_f64(src, round);
                            }
                        }
                    }
                    c.rank() as u64
                })
            },
        )
    });
    assert_eq!(out.crashed, vec![1]);
    assert!(matches!(
        out.results[1],
        Err(XmpiError::RankDead { rank: 1 })
    ));
    assert_eq!(out.results[2], Ok(2));
}

/// Process-level fault: rank 2's child dies with no unwind, no Fin, no
/// shipped result — the real "node failure" the in-process backend can
/// only approximate.
fn hard_kill_rank_2() -> FtResult<f64> {
    let launcher = std::process::id();
    xmpi::with_backend(Socket, || {
        xmpi::launch::run_ft(3, |c| {
            if c.rank() == 2 {
                // Wait for both survivors to finish their exchange before
                // dying, so their results are deterministic (a blocked
                // receive in a poisoned world fails fast by design). Only
                // ever reached inside a child process.
                assert_ne!(std::process::id(), launcher, "rank 2 is the launcher");
                let _ = c.recv_f64(0, 6);
                let _ = c.recv_f64(1, 6);
                std::process::abort();
            }
            // Ranks 0 and 1 only talk to each other and finish normally.
            let peer = 1 - c.rank();
            c.send_f64(peer, 5, &[c.rank() as f64 + 0.5]);
            let got = c.recv_f64(peer, 5)[0];
            c.send_f64(2, 6, &[1.0]);
            got
        })
    })
}

/// The parent must map the hard-killed rank to RankDead; the peers see
/// EOF-without-Fin and keep working with each other.
fn assert_rank_2_died_alone(out: &FtResult<f64>) {
    assert_eq!(out.crashed, vec![2]);
    assert!(matches!(
        out.results[2],
        Err(XmpiError::RankDead { rank: 2 })
    ));
    assert_eq!(out.results[0], Ok(1.5));
    assert_eq!(out.results[1], Ok(0.5));
}

#[test]
fn hard_killed_child_is_rank_dead() {
    assert_rank_2_died_alone(&hard_kill_rank_2());
}

/// The survivors of a hard kill see its end-of-file only once no process
/// holds a copy of the dead rank's ends. While a train of worlds launches
/// on other threads, each with a rank that lives until this test is done
/// (or 10 s), a copy forked into one of those ranks would stall the
/// survivors' clean shutdown until that rank exits.
#[test]
fn concurrent_launches_copy_no_other_worlds_ends() {
    const TRAIN: usize = 48;
    let (done, launched) = (SharedFlag::new(), AtomicUsize::new(0));
    // Every launcher thread is running before the first hard-killed world
    // forks and exits after the last: a thread that starts or exits holds
    // a lock of the standard library that a rank forked at that instant
    // would find held when it starts its own threads.
    let ready = Barrier::new(TRAIN + 1);
    let (elapsed, outs) = std::thread::scope(|s| {
        for i in 0..TRAIN {
            let (done, launched, ready) = (&done, &launched, &ready);
            s.spawn(move || {
                ready.wait();
                std::thread::sleep(Duration::from_millis(i as u64));
                launched.fetch_add(1, Ordering::SeqCst);
                if done.is_set() {
                    return;
                }
                xmpi::with_backend(Socket, || {
                    xmpi::launch::run(1, |_| {
                        let born = Instant::now();
                        while !done.is_set() && born.elapsed() < Duration::from_secs(10) {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        0u64
                    })
                });
            });
        }
        ready.wait();
        let started = Instant::now();
        let mut outs = Vec::new();
        while outs.len() < 4 || launched.load(Ordering::SeqCst) < TRAIN {
            outs.push(hard_kill_rank_2());
        }
        let elapsed = started.elapsed();
        done.fire();
        (elapsed, outs)
    });
    for out in &outs {
        assert_rank_2_died_alone(out);
    }
    assert!(
        elapsed < Duration::from_secs(5),
        "{} hard-killed worlds took {elapsed:?}: a concurrent rank held a copy of their ends",
        outs.len()
    );
}

#[test]
fn a_rank_panic_reaches_the_launcher_with_its_message() {
    // Under libtest's output capture a forked rank's stderr goes into its
    // own copy of the capture buffer, so the message must travel in the
    // report.
    let caught = std::panic::catch_unwind(|| {
        xmpi::with_backend(Socket, || {
            xmpi::launch::run_ft(2, |c| {
                if c.rank() == 1 {
                    panic!("rank one gives up at step {}", 7431);
                }
                c.rank() as u64
            })
        })
        .crashed
    });
    let payload = caught.expect_err("a genuine rank panic must reach the launcher");
    let msg = payload
        .downcast_ref::<String>()
        .expect("the launcher's panic message is formatted");
    assert!(
        msg.contains("rank 1 panicked") && msg.contains("rank one gives up at step 7431"),
        "{msg}"
    );
}
