//! Chaos conformance for the fault-tolerant factorizations: the full
//! COnfLUX checkpoint/restart stack runs under seeded *wire-level* fault
//! plans — torn frames, mid-frame connection resets, silently hung ranks —
//! on both backends, and must satisfy, for every
//! seed in the `XHARNESS_SEEDS` matrix:
//!
//! * **benign faults are invisible**: torn writes leave factors, pivots,
//!   and the per-rank/per-phase byte ledger bitwise identical to the
//!   fault-free run (and the golden volume entries intact);
//! * **fatal faults recover**: a reset or hang kills exactly the planned
//!   victim (mid-frame EOF classification or the heartbeat failure
//!   detector — never the 120 s receive timeout), the supervisor
//!   restarts, the ranks resume from the checkpoint ring, and the
//!   recovered factors are bitwise-equal to the fault-free run with
//!   residual under the repo-wide `1e-12` ceiling;
//! * **backends agree**: crashed rosters, restart counts, and the
//!   completed attempt's traffic match between the in-process mirror
//!   (which maps each fatal wire fault to a rank death at the same
//!   program-ordered send) and the real socket mesh.
//!
//! A failing seed leaves a replay recipe in `results/chaos_failure.json`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use dense::gen::random_matrix;
use dense::norms::lu_residual_perm;
use dense::Matrix;
use factor::{conflux_lu, conflux_lu_ft, ConfluxConfig, FtConfig};
use xharness::{check_golden, golden_mode, seeds, HangPlan, PerturbConfig, Perturbator, ResetPlan};
use xmpi::Grid3;
use xtrace::invariants::check_stats_equal;

const RESIDUAL_TOL: f64 = 1e-12;

/// Run `f` with the socket backend ambient: every world it opens forks one
/// rank process per rank.
fn on_sockets<T>(f: impl FnOnce() -> T) -> T {
    xmpi::with_backend(xmpi::Backend::Socket, f)
}

/// Pin fast failure detection, once per process (forked ranks inherit
/// it): 50 ms heartbeats, suspicion at 3 s — so a hung rank is declared
/// dead in seconds instead of riding `CONFLUX_RECV_TIMEOUT_MS`.
fn chaos_env() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::env::set_var("XMPI_HEARTBEAT_MS", "50");
        std::env::set_var("XMPI_SUSPECT_MS", "3000");
    });
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/golden_volumes.json")
}

fn assert_bitwise_equal(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: row mismatch");
    assert_eq!(a.cols(), b.cols(), "{what}: col mismatch");
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            assert_eq!(
                a[(r, c)].to_bits(),
                b[(r, c)].to_bits(),
                "{what}: element ({r}, {c}) differs"
            );
        }
    }
}

/// Run `f`; on a panic, record `{seed, fault}` in
/// `results/chaos_failure.json` with a one-liner replay recipe, then
/// re-raise.
fn with_failure_artifact<R>(seed: u64, fault: &str, f: impl FnOnce() -> R) -> R {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            let json = format!(
                "{{\n  \"suite\": \"chaos\",\n  \"seed\": {seed},\n  \"fault\": \"{fault}\",\n  \"replay\": \"XHARNESS_SEEDS=list:{seed} cargo test -p factor --release --test chaos\",\n  \"message\": {msg:?}\n}}\n"
            );
            let _ = std::fs::create_dir_all("results");
            let _ = std::fs::write("results/chaos_failure.json", json);
            resume_unwind(payload);
        }
    }
}

/// The seed matrix, end to end: each seed derives a whole fault plan
/// (torn-only, +reset or +hang — see `Perturbator::chaos_from_seed`),
/// armed around the full fault-tolerant COnfLUX run on both backends.
/// Rosters and restart counts must agree across backends, the factors
/// must come out bitwise-equal to the fault-free run, and seeds whose
/// faults were all benign must leave the byte ledger untouched.
#[test]
fn conflux_chaos_seed_matrix_conformance() {
    chaos_env();
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let p = grid.size();
    let a = random_matrix(n, n, 101);
    let cfg = FtConfig::new(n, v, grid);
    let base = conflux_lu_ft(&cfg, &a).unwrap();

    for seed in seeds(3) {
        let probe = Perturbator::chaos_from_seed(seed, p);
        let fault = format!(
            "reset {:?}, hang {:?}",
            probe.reset_plan(),
            probe.hang_plan()
        );
        with_failure_artifact(seed, &fault, || {
            let local_chaos = Arc::new(Perturbator::chaos_from_seed(seed, p));
            let local = xmpi::with_hooks(local_chaos.clone(), || conflux_lu_ft(&cfg, &a).unwrap());
            let socket = on_sockets(|| {
                let chaos = Arc::new(Perturbator::chaos_from_seed(seed, p));
                xmpi::with_hooks(chaos.clone(), || conflux_lu_ft(&cfg, &a).unwrap())
            });

            // Backend parity: the in-process mirror kills the same ranks at
            // the same program-ordered sends the socket mesh breaks on the
            // wire.
            assert_eq!(
                local.report.crashed, socket.report.crashed,
                "seed {seed}: crashed roster diverged across backends"
            );
            assert_eq!(
                local.report.restarts, socket.report.restarts,
                "seed {seed}: restart count diverged across backends"
            );
            // A fatal plan may only ever kill its planned victim.
            let victim = probe
                .reset_plan()
                .map(|r| r.src)
                .or_else(|| probe.hang_plan().map(|h| h.victim));
            match victim {
                Some(victim) => {
                    assert!(
                        socket.report.crashed.is_empty() || socket.report.crashed == vec![victim],
                        "seed {seed}: crashed {:?}, planned victim {victim}",
                        socket.report.crashed
                    );
                }
                None => assert!(
                    socket.report.crashed.is_empty(),
                    "seed {seed}: benign plan crashed {:?}",
                    socket.report.crashed
                ),
            }

            // Recovery exactness, both backends.
            for (out, backend) in [(&local, "local"), (&socket, "socket")] {
                assert_eq!(out.perm, base.perm, "seed {seed} ({backend}): pivots");
                assert_bitwise_equal(
                    &out.packed,
                    &base.packed,
                    &format!("seed {seed} ({backend}) factor vs fault-free"),
                );
                let res = lu_residual_perm(&a, &out.packed, &out.perm);
                assert!(res < RESIDUAL_TOL, "seed {seed} ({backend}): {res:e}");
            }

            // The completed attempt's traffic is deterministic on both
            // backends; for all-benign seeds it must equal the fault-free
            // ledger exactly (torn frames move no counted bytes).
            let (ll, ss) = (
                local.report.attempt_stats.last().expect("local attempts"),
                socket.report.attempt_stats.last().expect("socket attempts"),
            );
            let drift = check_stats_equal(ll, ss);
            assert!(
                drift.is_empty(),
                "seed {seed}: completed-attempt traffic drifted across backends: {drift:?}"
            );
            if socket.report.crashed.is_empty() {
                let base_stats = base.report.attempt_stats.last().expect("base attempts");
                let drift = check_stats_equal(base_stats, ss);
                assert!(
                    drift.is_empty(),
                    "seed {seed}: benign chaos changed the byte ledger: {drift:?}"
                );
            }
        });
    }
}

/// A guaranteed-firing reset: rank 1's very first payload frame to rank 0
/// dies mid-write. Both backends must report `crashed == [1]`, restart,
/// and recover the exact fault-free factors.
#[test]
fn conflux_reset_recovery_over_sockets() {
    chaos_env();
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let a = random_matrix(n, n, 101);
    let cfg = FtConfig::new(n, v, grid);
    let base = conflux_lu_ft(&cfg, &a).unwrap();
    let plan = ResetPlan {
        src: 1,
        dst: 0,
        on_frame: 0,
    };
    let scripted = |seed: u64| {
        Perturbator::new(PerturbConfig {
            torn_prob: 0.0,
            ..PerturbConfig::chaos(seed)
        })
        .with_reset(plan)
    };

    let local_chaos = Arc::new(scripted(41));
    let local = xmpi::with_hooks(local_chaos.clone(), || conflux_lu_ft(&cfg, &a).unwrap());
    assert!(local_chaos.reset_fired(), "in-process reset never fired");
    let socket = on_sockets(|| {
        let chaos = Arc::new(scripted(41));
        xmpi::with_hooks(chaos.clone(), || conflux_lu_ft(&cfg, &a).unwrap())
    });

    for (out, backend) in [(&local, "local"), (&socket, "socket")] {
        assert_eq!(out.report.crashed, vec![1], "{backend}: crashed roster");
        assert!(out.report.restarts >= 1, "{backend}: no restart");
        assert_eq!(out.perm, base.perm, "{backend}: pivots diverged");
        assert_bitwise_equal(
            &out.packed,
            &base.packed,
            &format!("{backend} recovered factor vs fault-free"),
        );
        let res = lu_residual_perm(&a, &out.packed, &out.perm);
        assert!(res < RESIDUAL_TOL, "{backend}: residual {res:e}");
    }
    assert_eq!(local.report.restarts, socket.report.restarts);
}

/// A guaranteed-firing hang: rank 1 goes silent at its first outbound
/// frame, keeping its process alive and its streams open. Only the
/// heartbeat failure detector can classify this; the run must recover the
/// exact factors in seconds (suspicion fires at 3 s), far inside the
/// 120 s receive-timeout it would otherwise ride.
#[test]
fn conflux_hung_rank_recovery_over_sockets() {
    chaos_env();
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let a = random_matrix(n, n, 101);
    let cfg = FtConfig::new(n, v, grid);
    let base = conflux_lu_ft(&cfg, &a).unwrap();
    let plan = HangPlan {
        victim: 1,
        after_frames: 0,
    };

    let started = Instant::now();
    let socket = on_sockets(|| {
        let chaos = Arc::new(
            Perturbator::new(PerturbConfig {
                torn_prob: 0.0,
                ..PerturbConfig::chaos(43)
            })
            .with_hang(plan),
        );
        xmpi::with_hooks(chaos.clone(), || conflux_lu_ft(&cfg, &a).unwrap())
    });
    let elapsed = started.elapsed();

    assert_eq!(
        socket.report.crashed,
        vec![1],
        "hung rank not declared dead"
    );
    assert!(socket.report.restarts >= 1, "no restart after the hang");
    assert_eq!(socket.perm, base.perm, "pivots diverged after recovery");
    assert_bitwise_equal(
        &socket.packed,
        &base.packed,
        "recovered factor vs fault-free",
    );
    let res = lu_residual_perm(&a, &socket.packed, &socket.perm);
    assert!(res < RESIDUAL_TOL, "recovery residual {res:e}");
    assert!(
        elapsed < Duration::from_secs(90),
        "hang recovery took {elapsed:?} — the failure detector did not fire"
    );
}

/// Maximum torn-write noise on the plain (non-FT) schedule: every frame
/// split around a stall, zero observable effect — bitwise factors, exact
/// ledger, and the committed golden volume entry still matches.
#[test]
fn conflux_torn_chaos_preserves_factors_and_goldens() {
    chaos_env();
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let a = random_matrix(n, n, 101);
    let cfg = ConfluxConfig::new(n, v, grid);
    let base = conflux_lu(&cfg, &a).unwrap();
    let noisy = || {
        Arc::new(Perturbator::new(PerturbConfig {
            torn_prob: 1.0,
            max_torn_stall_us: 200,
            ..PerturbConfig::chaos(47)
        }))
    };

    let socket = on_sockets(|| {
        let chaos = noisy();
        xmpi::with_hooks(chaos.clone(), || conflux_lu(&cfg, &a).unwrap())
    });
    assert_eq!(socket.perm, base.perm, "pivots diverged under torn writes");
    assert_bitwise_equal(
        socket.packed.as_ref().unwrap(),
        base.packed.as_ref().unwrap(),
        "torn-chaos factor vs clean",
    );
    let drift = check_stats_equal(&base.stats, &socket.stats);
    assert!(
        drift.is_empty(),
        "torn writes changed the ledger: {drift:?}"
    );

    let out = on_sockets(|| {
        let chaos = noisy();
        xmpi::with_hooks(chaos.clone(), || {
            conflux_lu(&ConfluxConfig::new(n, v, grid).volume_only(), &a).unwrap()
        })
    });
    check_golden(
        &golden_path(),
        "conflux-n64-v8-g2x2x2",
        &out.stats,
        golden_mode(),
    )
    .unwrap_or_else(|e| panic!("torn chaos broke the committed goldens: {e}"));
}
