//! Cross-backend transport conformance: every claim the in-process suite
//! pins must survive the move to real processes.
//!
//! The same COnfLUX / COnfCHOX / 2.5D-MMM cells, and the baselines beside
//! them (the 2D LU and Cholesky schedules, CholeskyQR and the
//! ScaLAPACK-compatible wrappers), run twice — once on the default
//! in-process backend (ranks = threads, zero-copy mailboxes) and
//! once on the socket backend (ranks = child processes, a UNIX-domain
//! socket mesh, the length-prefixed wire codec) — and must produce:
//!
//! * **bitwise-identical factors and pivots** — the schedules are
//!   deterministic dataflow programs; serializing a payload through the
//!   wire codec must not perturb a single bit;
//! * **identical per-rank and per-phase byte volumes** — the paper's
//!   measured-volume methodology is transport-independent by construction
//!   (both backends count the same logical transfers), and this suite is
//!   what enforces that construction;
//! * **golden agreement**: the socket-measured volumes of the
//!   `.volume_only()` cells must match the committed
//!   `results/golden_volumes.json` entries byte-for-byte — the same keys
//!   the in-process `golden_volumes` suite pins;
//! * **perturbation invariance on sockets** (`XHARNESS_SEEDS` matrix):
//!   injected delays and completion stalls drawn inside every forked rank
//!   process must leave factors and traffic untouched, exactly as
//!   in-process;
//! * **crash recovery parity**: a planned mid-panel crash on the socket
//!   backend (the victim's child process dies; the parent maps it to
//!   `RankDead`) must restart, resume from the same checkpoint epoch of
//!   the ring, and land on factors bitwise-equal to the in-process
//!   fault-tolerant path;
//! * **typed input errors**: a mis-shaped matrix is rejected with
//!   `dense::Error::ShapeMismatch` by every driver before any world is
//!   launched, on either backend — and a well-shaped one runs every
//!   driver's ranks in forked processes when the socket backend is armed;
//! * **fork safety**: a socket world forked while another thread of the
//!   launcher names phases and runs parallel GEMMs completes.
//!
//! What is deliberately *not* compared: the crashed attempt's byte counts
//! (how many in-flight messages survivors drain before observing the
//! poisoned world is a race on both backends).

use std::sync::Arc;

use dense::gen::{random_matrix, random_spd};
use dense::norms::{lu_residual_perm, po_residual};
use dense::Matrix;
use factor::lu25d_swap::lu25d_swap;
use factor::{
    cholesky_qr, confchox_cholesky, confchox_cholesky_ft, conflux_lu, conflux_lu_ft, mmm25d,
    pdgetrf, pdpotrf, twod_cholesky, twod_lu, CholQrConfig, ConfchoxConfig, ConfluxConfig,
    FtConfig, Mmm25dConfig, TwodConfig,
};
use layout::BlockCyclic;
use std::path::PathBuf;
use xharness::{
    check_golden, golden_mode, run_perturbed, seeds, CrashPlan, PerturbConfig, Perturbator,
};
use xmpi::{Grid2, Grid3, WorldStats};
use xtrace::invariants::check_stats_equal;

const RESIDUAL_TOL: f64 = 1e-12;

/// Run `f` with the socket backend ambient: every world it opens forks one
/// rank process per rank.
fn on_sockets<T>(f: impl FnOnce() -> T) -> T {
    xmpi::with_backend(xmpi::Backend::Socket, f)
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

/// `f` on the local backend, then on the socket backend.
fn both<T>(f: impl Fn() -> T) -> (T, T) {
    (f(), on_sockets(&f))
}

/// Per rank: the same bytes in every phase, and the same message counts.
fn assert_same_traffic(local: &WorldStats, socket: &WorldStats, what: &str) {
    let drift = check_stats_equal(local, socket);
    assert!(
        drift.is_empty(),
        "{what}: traffic drifted across backends: {drift:?}"
    );
    for (rank, (l, s)) in local.ranks.iter().zip(&socket.ranks).enumerate() {
        assert_eq!(
            (l.msgs_sent, l.msgs_recv),
            (s.msgs_sent, s.msgs_recv),
            "{what}: rank {rank} message counts"
        );
        assert_eq!(l.per_coll, s.per_coll, "{what}: rank {rank} per-collective");
    }
}

/// COnfLUX on a fixed small cell and on the block `auto` raises above its
/// floor on a flat grid (v = 32: the `lu_p4_socket` benchmark shape), and
/// the swap ablation — the same step loop under its other pivot policy — on
/// the small cell.
#[test]
fn conflux_socket_matches_local_bitwise() {
    let auto = ConfluxConfig::auto(512, 4);
    assert_eq!((auto.grid, auto.v), (Grid3::new(2, 2, 1), 32));
    let small = ConfluxConfig::new(64, 8, Grid3::new(2, 2, 2));
    type Lu = fn(&ConfluxConfig, &Matrix) -> Result<factor::LuOutput, dense::Error>;
    let cells: [(&str, Lu, ConfluxConfig); 3] = [
        ("conflux", conflux_lu, small.clone()),
        ("conflux", conflux_lu, auto),
        ("lu25d_swap", lu25d_swap, small),
    ];
    for (name, lu, cfg) in cells {
        let (n, v) = (cfg.n, cfg.v);
        let a = random_matrix(n, n, 101);

        let local = lu(&cfg, &a).unwrap();
        let socket = on_sockets(|| lu(&cfg, &a).unwrap());

        assert_eq!(
            socket.perm, local.perm,
            "{name} n={n} v={v}: pivots diverged"
        );
        assert_bitwise_equal(
            socket.packed.as_ref().unwrap(),
            local.packed.as_ref().unwrap(),
            &format!("{name} factor n={n} v={v}, socket vs local"),
        );
        let resid = lu_residual_perm(&a, socket.packed.as_ref().unwrap(), &socket.perm);
        assert!(
            resid < RESIDUAL_TOL,
            "{name} n={n} v={v}: socket residual {resid:e}"
        );
        let drift = check_stats_equal(&local.stats, &socket.stats);
        assert!(
            drift.is_empty(),
            "{name} n={n} v={v}: traffic drifted across backends: {drift:?}"
        );
    }
}

#[test]
fn confchox_socket_matches_local_bitwise() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let a = random_spd(n, 202);
    let cfg = ConfchoxConfig::new(n, v, grid);

    let local = confchox_cholesky(&cfg, &a).unwrap();
    let socket = on_sockets(|| confchox_cholesky(&cfg, &a).unwrap());

    assert_bitwise_equal(
        socket.l.as_ref().unwrap(),
        local.l.as_ref().unwrap(),
        "confchox factor, socket vs local",
    );
    let resid = po_residual(&a, socket.l.as_ref().unwrap());
    assert!(resid < RESIDUAL_TOL, "socket residual {resid:e}");
    let drift = check_stats_equal(&local.stats, &socket.stats);
    assert!(
        drift.is_empty(),
        "traffic drifted across backends: {drift:?}"
    );
}

#[test]
fn mmm25d_socket_matches_local_bitwise() {
    let (n, v, grid) = (48usize, 4usize, Grid3::new(2, 2, 2));
    let a = random_matrix(n, n, 303);
    let b = random_matrix(n, n, 304);
    let cfg = Mmm25dConfig::new(n, v, grid);

    let local = mmm25d(&cfg, &a, &b);
    let socket = on_sockets(|| mmm25d(&cfg, &a, &b));

    assert_bitwise_equal(
        socket.c.as_ref().unwrap(),
        local.c.as_ref().unwrap(),
        "2.5D product, socket vs local",
    );
    let drift = check_stats_equal(&local.stats, &socket.stats);
    assert!(
        drift.is_empty(),
        "traffic drifted across backends: {drift:?}"
    );
}

/// The stand-ins for the paper's baselines — the 2D LU and Cholesky
/// schedules (MKL, SLATE), CholeskyQR — and the ScaLAPACK-compatible
/// wrappers give the same factors to the bit, and move the same bytes in
/// the same messages, on both backends.
#[test]
fn baselines_and_wrappers_socket_match_local_bitwise() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let a = random_matrix(n, n, 101);
    let spd = random_spd(n, 202);
    let twod = TwodConfig::new(n, v, Grid2::new(2, 2));
    let user = BlockCyclic::new(n, n, 5, 3, Grid2::new(2, 4));

    let (local, socket) = both(|| twod_lu(&twod, &a).unwrap());
    assert_eq!(socket.ipiv, local.ipiv, "twod_lu: pivots diverged");
    assert_bitwise_equal(
        socket.packed.as_ref().unwrap(),
        local.packed.as_ref().unwrap(),
        "twod_lu factor, socket vs local",
    );
    assert_same_traffic(&local.stats, &socket.stats, "twod_lu");

    let (local, socket) = both(|| twod_cholesky(&twod, &spd).unwrap());
    assert_bitwise_equal(
        socket.l.as_ref().unwrap(),
        local.l.as_ref().unwrap(),
        "twod_cholesky factor, socket vs local",
    );
    assert_same_traffic(&local.stats, &socket.stats, "twod_cholesky");

    let tall = random_matrix(256, 16, 505);
    let (local, socket) = both(|| cholesky_qr(&CholQrConfig::new(256, 16, 4), &tall).unwrap());
    assert_bitwise_equal(&socket.q, &local.q, "cholesky_qr Q, socket vs local");
    assert_bitwise_equal(&socket.r, &local.r, "cholesky_qr R, socket vs local");
    assert_same_traffic(&local.stats, &socket.stats, "cholesky_qr");

    let lu = ConfluxConfig::new(n, v, grid);
    let chol = ConfchoxConfig::new(n, v, grid);
    let wrappers = [
        ("pdgetrf", both(|| pdgetrf(user, &a, &lu).unwrap())),
        ("pdpotrf", both(|| pdpotrf(user, &spd, &chol).unwrap())),
    ];
    for (name, (local, socket)) in wrappers {
        assert_eq!(socket.perm, local.perm, "{name}: pivots diverged");
        assert_eq!(socket.shards.len(), local.shards.len(), "{name}: shards");
        for (rank, (s, l)) in socket.shards.iter().zip(&local.shards).enumerate() {
            assert_eq!(
                (s.desc, s.coords),
                (l.desc, l.coords),
                "{name}: rank {rank}"
            );
            assert_bitwise_equal(&s.local, &l.local, &format!("{name} shard {rank}"));
        }
        assert_same_traffic(&local.stats, &socket.stats, name);
    }
}

/// The socket-measured volumes of the `.volume_only()` cells must match
/// the *committed* goldens — the very entries the in-process
/// `golden_volumes` suite pins. One golden file, two transports: if a
/// backend ever counted a transfer differently (a re-sent frame, a
/// dropped delivery, double-counted collective legs) this diff names the
/// rank and phase that drifted.
#[test]
fn socket_volumes_match_committed_goldens() {
    let path = golden_path();

    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let a = random_matrix(n, n, 101);
    let out = on_sockets(|| conflux_lu(&ConfluxConfig::new(n, v, grid).volume_only(), &a).unwrap());
    check_golden(&path, "conflux-n64-v8-g2x2x2", &out.stats, golden_mode())
        .unwrap_or_else(|e| panic!("socket backend: {e}"));

    let spd = random_spd(n, 202);
    let out = on_sockets(|| {
        confchox_cholesky(&ConfchoxConfig::new(n, v, grid).volume_only(), &spd).unwrap()
    });
    check_golden(&path, "confchox-n64-v8-g2x2x2", &out.stats, golden_mode())
        .unwrap_or_else(|e| panic!("socket backend: {e}"));

    let (n, v) = (48usize, 4usize);
    let ma = random_matrix(n, n, 303);
    let mb = random_matrix(n, n, 304);
    let out = on_sockets(|| mmm25d(&Mmm25dConfig::new(n, v, grid).volume_only(), &ma, &mb));
    check_golden(&path, "mmm25d-n48-v4-g2x2x2", &out.stats, golden_mode())
        .unwrap_or_else(|e| panic!("socket backend: {e}"));

    let (n, v, flat) = (64usize, 8usize, Grid3::new(2, 2, 1));
    let out = on_sockets(|| conflux_lu(&ConfluxConfig::new(n, v, flat).volume_only(), &a).unwrap());
    check_golden(&path, "conflux-n64-v8-g2x2x1", &out.stats, golden_mode())
        .unwrap_or_else(|e| panic!("socket backend: {e}"));

    let grid = Grid3::new(2, 2, 2);
    let out = on_sockets(|| lu25d_swap(&ConfluxConfig::new(n, v, grid).volume_only(), &a).unwrap());
    check_golden(&path, "lu25d-swap-n64-v8-g2x2x2", &out.stats, golden_mode())
        .unwrap_or_else(|e| panic!("socket backend: {e}"));
}

/// `XHARNESS_SEEDS` perturbation matrix on the socket backend: each forked
/// rank carries the seed's perturbation plan, so delays and completion
/// stalls fire inside real processes — and must still change nothing. Default 2 seeds here (each socket world
/// is 8 processes); CI's conformance job sweeps more via `XHARNESS_SEEDS`.
#[test]
fn conflux_perturbed_seed_matrix_over_sockets() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let a = random_matrix(n, n, 101);
    let cfg = ConfluxConfig::new(n, v, grid);
    let base = conflux_lu(&cfg, &a).unwrap();

    for seed in seeds(2) {
        let cfg_seed = PerturbConfig::aggressive(seed);
        let out = on_sockets(|| run_perturbed(&cfg_seed, || conflux_lu(&cfg, &a).unwrap()));
        assert_eq!(out.perm, base.perm, "seed {seed}: pivots diverged");
        assert_bitwise_equal(
            out.packed.as_ref().unwrap(),
            base.packed.as_ref().unwrap(),
            &format!("perturbed socket factor, seed {seed}"),
        );
        let drift = check_stats_equal(&base.stats, &out.stats);
        assert!(drift.is_empty(), "seed {seed}: traffic drifted: {drift:?}");
    }
}

/// Process-level fault conformance: the planned crash kills a child rank
/// mid-panel (its process unwinds and reports `Crashed`; had it been
/// SIGKILLed the parent would map the missing outcome to the same
/// `RankDead`), the parent's restart loop re-runs the world, the ranks
/// resume from the checkpoint ring — and the recovered factors are
/// bitwise-identical to the in-process fault-tolerant path under the
/// *same* plan. The ranks' checkpoint memory comes home with their
/// outcomes and the crash latch is shared with the forked victim, so the
/// resume epochs and the fired latch agree across backends too.
#[test]
fn conflux_ft_crash_recovery_over_sockets() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let p = grid.size();
    let a = random_matrix(n, n, 101);
    let cfg = FtConfig::new(n, v, grid);
    let plan = CrashPlan {
        victim: 1 + 7 % (p - 1),
        after_sends: 19,
    };

    // Fault-free FT baseline, then the in-process armed run.
    let base = conflux_lu_ft(&cfg, &a).unwrap();
    let local = {
        let pert = Arc::new(Perturbator::new(PerturbConfig::new(7)).with_crash(plan));
        let out = xmpi::with_hooks(pert.clone(), || conflux_lu_ft(&cfg, &a).unwrap());
        assert!(pert.crash_fired(), "in-process: planned crash never fired");
        out
    };
    assert_eq!(local.report.crashed, vec![plan.victim]);
    assert!(local.report.restarts >= 1, "in-process: no restart");

    // The same plan over child processes.
    let socket = on_sockets(|| {
        let pert = Arc::new(Perturbator::new(PerturbConfig::new(7)).with_crash(plan));
        let out = xmpi::with_hooks(pert.clone(), || conflux_lu_ft(&cfg, &a).unwrap());
        assert!(pert.crash_fired(), "socket: planned crash never fired");
        out
    });

    assert_eq!(
        socket.report.crashed, local.report.crashed,
        "crash roster diverged across backends"
    );
    assert_eq!(
        socket.report.restarts, local.report.restarts,
        "restart count diverged across backends"
    );
    assert_eq!(
        socket.report.resumed_from, local.report.resumed_from,
        "resume epochs diverged across backends"
    );
    assert!(
        local.report.resumed_from.iter().all(|&epoch| epoch > 0),
        "recovery restarted from scratch: {:?}",
        local.report.resumed_from
    );
    assert_eq!(
        socket.report.recovery_bytes(),
        local.report.recovery_bytes(),
        "recovery traffic diverged across backends"
    );
    assert_eq!(socket.perm, base.perm, "socket recovery: pivots diverged");
    assert_bitwise_equal(
        &socket.packed,
        &local.packed,
        "recovered factor, socket vs local",
    );
    assert_bitwise_equal(
        &socket.packed,
        &base.packed,
        "recovered factor vs fault-free FT",
    );
    let resid = lu_residual_perm(&a, &socket.packed, &socket.perm);
    assert!(resid < RESIDUAL_TOL, "socket recovery residual {resid:e}");

    // Checkpoint traffic happened in the rank processes and was shipped
    // back with their stats; the *completed* attempt's traffic is
    // deterministic and must match in-process exactly. (The crashed
    // attempt's drain race is excluded — see module docs.)
    assert!(
        socket.report.ckpt_bytes() > 0,
        "socket run moved no ckpt bytes"
    );
    let (sl, ss) = (
        local.report.attempt_stats.last().unwrap(),
        socket.report.attempt_stats.last().unwrap(),
    );
    let drift = check_stats_equal(sl, ss);
    assert!(
        drift.is_empty(),
        "completed-attempt traffic drifted across backends: {drift:?}"
    );
}

/// A crash on a layer above the first, after step 2's checkpoint: the
/// victim's store rows hold the `U01` of the pivots its layer's slice
/// carried (off the U-owner's process row), and its checkpoint carries them
/// in those rows. Restored from the buddy's replica, the world lands on the
/// fault-free factors bitwise, on either backend.
#[test]
fn a_layer_one_crash_after_step_two_recovers_bitwise_on_both_backends() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let a = random_matrix(n, n, 103);
    let cfg = FtConfig::new(n, v, grid);
    let base = conflux_lu_ft(&cfg, &a).unwrap();
    // World rank 5 is (0, 1, 1); its 18th send falls in step 3, so the
    // world resumes from the checkpoint taken after step 2.
    let plan = CrashPlan {
        victim: 5,
        after_sends: 18,
    };
    assert_eq!(grid.coords(plan.victim), (0, 1, 1));
    let (local, socket) = both(|| {
        let pert = Arc::new(Perturbator::new(PerturbConfig::new(0)).with_crash(plan));
        let out = xmpi::with_hooks(pert.clone(), || conflux_lu_ft(&cfg, &a).unwrap());
        assert!(pert.crash_fired(), "planned crash never fired");
        out
    });
    for (what, out) in [("local", &local), ("socket", &socket)] {
        assert_eq!(out.report.crashed, vec![plan.victim], "{what}");
        assert_eq!(out.report.resumed_from, vec![3], "{what}: resume epoch");
        assert_eq!(out.perm, base.perm, "{what}: pivots");
        assert_bitwise_equal(&out.packed, &base.packed, what);
    }
}

/// A mis-shaped input is a typed error from every driver, raised before any
/// world exists. Armed hooks would see the first `phase` marker of any rank
/// program: locally on a counter of this process, and in a forked rank
/// process on a shared flag, which reads as fired here.
#[test]
fn shape_mismatch_is_a_typed_error_and_launches_no_world() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use xmpi::launch::SharedFlag;

    #[derive(Default)]
    struct CountPhases {
        here: AtomicUsize,
        anywhere: SharedFlag,
    }
    impl xmpi::SchedHooks for CountPhases {
        fn phase_stall(&self, _rank: usize, _name: &str) -> Option<std::time::Duration> {
            self.here.fetch_add(1, Ordering::SeqCst);
            self.anywhere.fire();
            None
        }
    }

    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let a = random_matrix(n + 1, n, 101);
    let want = Some(dense::Error::ShapeMismatch {
        expected: n,
        rows: n + 1,
        cols: n,
    });
    let lu = ConfluxConfig::new(n, v, grid);
    let chol = ConfchoxConfig::new(n, v, grid);
    let ft = FtConfig::new(n, v, grid);
    let twod = TwodConfig::new(n, v, Grid2::new(2, 2));
    let user = BlockCyclic::new(n, n, 5, 3, Grid2::new(2, 4));
    let every_driver = || {
        assert_eq!(conflux_lu(&lu, &a).err(), want);
        assert_eq!(confchox_cholesky(&chol, &a).err(), want);
        assert_eq!(conflux_lu_ft(&ft, &a).err(), want);
        assert_eq!(confchox_cholesky_ft(&ft, &a).err(), want);
        assert_eq!(lu25d_swap(&lu, &a).err(), want);
        assert_eq!(twod_lu(&twod, &a).err(), want);
        assert_eq!(twod_cholesky(&twod, &a).err(), want);
        assert_eq!(pdgetrf(user, &a, &lu).err(), want);
        assert_eq!(pdpotrf(user, &a, &chol).err(), want);
    };

    let phases = Arc::new(CountPhases::default());
    xmpi::with_hooks(phases.clone(), every_driver);
    assert_eq!(
        phases.here.load(Ordering::SeqCst),
        0,
        "a rank program ran on the local backend"
    );
    xmpi::with_hooks(phases.clone(), || on_sockets(every_driver));
    assert!(
        !phases.anywhere.is_set(),
        "a rank program ran on the socket backend"
    );

    // A well-shaped input does reach the armed backend (cc38afc ran the
    // swap driver on threads, and the 2D, CholeskyQR and ScaLAPACK drivers
    // once did too): its phases are named in forked rank processes, whose
    // copies of the hooks count them, not this one's.
    let fine = random_matrix(n, n, 101);
    let spd = random_spd(n, 202);
    let qr = CholQrConfig::new(n, n, 4);
    let drivers: [(&str, &dyn Fn() -> WorldStats); 6] = [
        ("lu25d_swap", &|| lu25d_swap(&lu, &fine).unwrap().stats),
        ("twod_lu", &|| twod_lu(&twod, &fine).unwrap().stats),
        ("twod_cholesky", &|| {
            twod_cholesky(&twod, &spd).unwrap().stats
        }),
        ("cholesky_qr", &|| cholesky_qr(&qr, &fine).unwrap().stats),
        ("pdgetrf", &|| pdgetrf(user, &fine, &lu).unwrap().stats),
        ("pdpotrf", &|| pdpotrf(user, &spd, &chol).unwrap().stats),
    ];
    for (name, driver) in drivers {
        let phases = Arc::new(CountPhases::default());
        let stats = xmpi::with_hooks(phases.clone(), || on_sockets(driver));
        assert!(stats.total_bytes_sent() > 0, "{name}: no traffic");
        assert_eq!(
            phases.here.load(Ordering::SeqCst),
            0,
            "{name} ran its ranks in the launching process"
        );
        assert!(
            phases.anywhere.is_set(),
            "{name}: the shared flag must show a phase named in a rank process"
        );
    }
}

/// Fork safety: a socket world forked while another thread of this process
/// keeps naming phases and running parallel GEMMs — so that thread may hold
/// any lock either takes at the instant of a fork — completes every time,
/// its ranks naming phases and running parallel GEMMs themselves.
#[test]
fn socket_worlds_fork_safely_beside_busy_local_worlds() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let gemm = |c: &xmpi::Comm| {
        c.set_phase("fork-safety");
        let (a, b) = (random_matrix(128, 128, 5), random_matrix(128, 128, 6));
        let mut out = Matrix::zeros(128, 128);
        dense::par_gemm(1.0, a.as_ref(), b.as_ref(), 0.0, out.as_mut());
        let mut sum = vec![out.data().iter().sum::<f64>()];
        c.allreduce_sum(&mut sum);
        sum[0]
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                xmpi::run(2, gemm);
            }
        });
        let local = xmpi::run(2, gemm).results;
        for round in 0..12 {
            let out = on_sockets(|| xmpi::run_ft(2, gemm));
            assert!(out.crashed.is_empty(), "round {round}: {:?}", out.crashed);
            for (rank, r) in out.results.iter().enumerate() {
                assert_eq!(
                    r.as_ref().ok(),
                    Some(&local[rank]),
                    "round {round}, rank {rank}"
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
}
