//! Cross-backend transport conformance: every claim the in-process suite
//! pins must survive the move to real processes.
//!
//! The same COnfLUX / COnfCHOX / 2.5D-MMM cells run twice — once on the
//! default in-process backend (ranks = threads, zero-copy mailboxes) and
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
//!   injected delays and completion stalls replayed inside every child
//!   rank must leave factors and traffic untouched, exactly as in-process;
//! * **crash recovery parity**: a planned mid-panel crash on the socket
//!   backend (the victim's child process dies; the parent maps it to
//!   `RankDead`) must restart, resume from the checkpoint ring, and land
//!   on factors bitwise-equal to the in-process fault-tolerant path;
//! * **typed input errors**: a mis-shaped matrix is rejected with
//!   `dense::Error::ShapeMismatch` by every driver before any world is
//!   launched, on either backend.
//!
//! What is deliberately *not* compared: `FtReport::resumed_from` (a
//! parent-side diagnostic — the parent's checkpoint store is empty over
//! sockets because checkpoints live in the rank processes) and the
//! crashed attempt's byte counts (how many in-flight messages survivors
//! drain before observing the poisoned world is a race on both backends).

use std::sync::Arc;

use dense::gen::{random_matrix, random_spd};
use dense::norms::{lu_residual_perm, po_residual};
use dense::Matrix;
use factor::lu25d_swap::lu25d_swap;
use factor::{
    confchox_cholesky, confchox_cholesky_ft, conflux_lu, conflux_lu_ft, mmm25d, ConfchoxConfig,
    ConfluxConfig, FtConfig, Mmm25dConfig,
};
use std::path::PathBuf;
use xharness::{
    check_golden, golden_mode, run_perturbed, seeds, CrashPlan, PerturbConfig, Perturbator,
};
use xmpi::Grid3;
use xtrace::invariants::check_stats_equal;

const RESIDUAL_TOL: f64 = 1e-12;

/// Run `f` with the socket backend ambient: worlds opened inside spawn one
/// child process per rank, re-executing this test binary filtered to the
/// enclosing `#[test]` (children replay the test body up to their world).
macro_rules! on_sockets {
    ($f:expr) => {
        xmpi::with_backend(
            xmpi::launch::socket_backend_for_test(xmpi::test_path!()),
            $f,
        )
    };
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
        let socket = on_sockets!(|| lu(&cfg, &a).unwrap());

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
    let socket = on_sockets!(|| confchox_cholesky(&cfg, &a).unwrap());

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
    let socket = on_sockets!(|| mmm25d(&cfg, &a, &b));

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
    let out =
        on_sockets!(|| conflux_lu(&ConfluxConfig::new(n, v, grid).volume_only(), &a).unwrap());
    check_golden(&path, "conflux-n64-v8-g2x2x2", &out.stats, golden_mode())
        .unwrap_or_else(|e| panic!("socket backend: {e}"));

    let spd = random_spd(n, 202);
    let out =
        on_sockets!(
            || confchox_cholesky(&ConfchoxConfig::new(n, v, grid).volume_only(), &spd).unwrap()
        );
    check_golden(&path, "confchox-n64-v8-g2x2x2", &out.stats, golden_mode())
        .unwrap_or_else(|e| panic!("socket backend: {e}"));

    let (n, v) = (48usize, 4usize);
    let ma = random_matrix(n, n, 303);
    let mb = random_matrix(n, n, 304);
    let out = on_sockets!(|| mmm25d(&Mmm25dConfig::new(n, v, grid).volume_only(), &ma, &mb));
    check_golden(&path, "mmm25d-n48-v4-g2x2x2", &out.stats, golden_mode())
        .unwrap_or_else(|e| panic!("socket backend: {e}"));

    let (n, v, flat) = (64usize, 8usize, Grid3::new(2, 2, 1));
    let out =
        on_sockets!(|| conflux_lu(&ConfluxConfig::new(n, v, flat).volume_only(), &a).unwrap());
    check_golden(&path, "conflux-n64-v8-g2x2x1", &out.stats, golden_mode())
        .unwrap_or_else(|e| panic!("socket backend: {e}"));

    let grid = Grid3::new(2, 2, 2);
    let out =
        on_sockets!(|| lu25d_swap(&ConfluxConfig::new(n, v, grid).volume_only(), &a).unwrap());
    check_golden(&path, "lu25d-swap-n64-v8-g2x2x2", &out.stats, golden_mode())
        .unwrap_or_else(|e| panic!("socket backend: {e}"));
}

/// `XHARNESS_SEEDS` perturbation matrix on the socket backend: each child
/// rank re-arms the seed's perturbation plan while replaying the test
/// body, so delays and completion stalls fire inside real processes —
/// and must still change nothing. Default 2 seeds here (each socket world
/// is 8 processes); CI's conformance job sweeps more via `XHARNESS_SEEDS`.
#[test]
fn conflux_perturbed_seed_matrix_over_sockets() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let a = random_matrix(n, n, 101);
    let cfg = ConfluxConfig::new(n, v, grid);
    let base = conflux_lu(&cfg, &a).unwrap();

    for seed in seeds(2) {
        let cfg_seed = PerturbConfig::aggressive(seed);
        let out = on_sockets!(|| run_perturbed(&cfg_seed, || conflux_lu(&cfg, &a).unwrap()));
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
/// *same* plan.
///
/// `crash_fired()` is only asserted on the in-process run: over sockets
/// the perturbator instance that fires lives in the victim's child
/// process, not in the parent. `resumed_from` is likewise not compared —
/// the parent's checkpoint store is empty by design (rank processes own
/// their checkpoints), so that diagnostic reads 0 over sockets while the
/// ranks themselves resume from the ring.
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
        let out = xharness::run_armed(&pert, || conflux_lu_ft(&cfg, &a).unwrap());
        assert!(pert.crash_fired(), "in-process: planned crash never fired");
        out
    };
    assert_eq!(local.report.crashed, vec![plan.victim]);
    assert!(local.report.restarts >= 1, "in-process: no restart");

    // The same plan over child processes.
    let socket = on_sockets!(|| {
        let pert = Arc::new(Perturbator::new(PerturbConfig::new(7)).with_crash(plan));
        xharness::run_armed(&pert, || conflux_lu_ft(&cfg, &a).unwrap())
    });

    assert_eq!(
        socket.report.crashed, local.report.crashed,
        "crash roster diverged across backends"
    );
    assert_eq!(
        socket.report.restarts, local.report.restarts,
        "restart count diverged across backends"
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

/// A mis-shaped input is a typed error from every driver, raised before any
/// world exists. Locally, armed hooks would see the first `phase` marker of
/// any rank program; on the socket backend the launcher is pointed at a
/// binary that does not exist, so a launch attempt would fail loudly.
#[test]
fn shape_mismatch_is_a_typed_error_and_launches_no_world() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Default)]
    struct CountPhases(AtomicUsize);
    impl xmpi::SchedHooks for CountPhases {
        fn phase_stall(&self, _rank: usize, _name: &str) -> Option<std::time::Duration> {
            self.0.fetch_add(1, Ordering::SeqCst);
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
    let twod = factor::TwodConfig::new(n, v, xmpi::Grid2::new(2, 2));
    let every_driver = || {
        assert_eq!(conflux_lu(&lu, &a).err(), want);
        assert_eq!(confchox_cholesky(&chol, &a).err(), want);
        assert_eq!(conflux_lu_ft(&ft, &a).err(), want);
        assert_eq!(confchox_cholesky_ft(&ft, &a).err(), want);
        assert_eq!(lu25d_swap(&lu, &a).err(), want);
        assert_eq!(factor::twod_lu(&twod, &a).err(), want);
        assert_eq!(factor::twod_cholesky(&twod, &a).err(), want);
    };

    let phases = Arc::new(CountPhases::default());
    xmpi::with_hooks(phases.clone(), every_driver);
    assert_eq!(
        phases.0.load(Ordering::SeqCst),
        0,
        "a rank program ran on the local backend"
    );

    let nowhere = xmpi::Backend::Socket(xmpi::SocketCfg {
        exe: "/nonexistent/xmpi-rank".into(),
        args: Vec::new(),
    });
    xmpi::with_backend(nowhere.clone(), every_driver);
    assert_eq!(on_sockets!(|| conflux_lu(&lu, &a).err()), want);

    // A well-shaped input does reach the armed backend: pointed at nothing,
    // the swap driver's world cannot start (cc38afc ran it on threads).
    let fine = random_matrix(n, n, 101);
    let launch = || xmpi::with_backend(nowhere, || lu25d_swap(&lu, &fine));
    let started = std::panic::catch_unwind(std::panic::AssertUnwindSafe(launch));
    assert!(started.is_err(), "lu25d_swap ignored the socket backend");
}
