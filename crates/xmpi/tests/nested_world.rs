//! A rank program may launch a world of its own — any factorization driver
//! called inside a rank does. On the socket backend a rank process is a
//! fork of the launching thread, which held the launch lock at the fork, so
//! a world launched there must not be a socket world: the rank process
//! makes the thread backend ambient, and the nested world runs on threads
//! of the rank process. A test binary of its own, because the world
//! deadline is read once per process: a rank wedged on the launch lock is
//! killed at the short deadline and comes back `RankDead` instead of
//! hanging the suite.

use xmpi::{Backend, Comm};

#[test]
fn a_world_launched_inside_a_rank_process_runs_on_its_threads() {
    std::env::set_var("XMPI_WORLD_DEADLINE_MS", "5000");
    let inner = |c: &Comm| {
        let mut v = vec![(c.rank() + 1) as f64];
        c.allreduce_sum(&mut v);
        (u64::from(std::process::id()), v[0])
    };
    let out = xmpi::with_backend(Backend::Socket, || {
        xmpi::run_ft(2, |_| {
            let nested = xmpi::run(2, inner);
            (u64::from(std::process::id()), nested.results)
        })
    });
    assert!(out.crashed.is_empty(), "ranks died: {:?}", out.crashed);
    let mut pids = Vec::new();
    for (rank, r) in out.results.into_iter().enumerate() {
        let (pid, nested) = r.unwrap_or_else(|e| panic!("rank {rank}: {e}"));
        assert_ne!(
            pid,
            u64::from(std::process::id()),
            "rank {rank} was not forked"
        );
        for (inner_rank, (inner_pid, sum)) in nested.into_iter().enumerate() {
            assert_eq!(sum, 3.0, "rank {rank}, nested rank {inner_rank}");
            assert_eq!(
                inner_pid, pid,
                "rank {rank}: nested rank {inner_rank} ran in another process"
            );
        }
        pids.push(pid);
    }
    assert_ne!(pids[0], pids[1], "the two ranks shared a process");
}
