//! Fault-tolerance overhead: the two costs a production deployment of the
//! fault-tolerant schedules would ask about, at [`N`] = 512 on [`P`] = 16.
//!
//! 1. **Fault-free checksum tax** — wall time of `conflux_lu_ft` with ABFT
//!    checksums on vs off (checkpointing disabled in both, so the delta is
//!    the encoding/verification cost alone). The two arms alternate rep by
//!    rep and each keeps its best, so a slow stretch of the host lands on
//!    both; their ratio − 1 is held to [`CHECKSUM_OVERHEAD`]. CI's `faults`
//!    job runs `floors recovery`.
//! 2. **Crash recovery accounting** — a deterministic mid-panel rank kill
//!    (via `xharness::CrashPlan`) on a checkpointing run: restarts, the
//!    resumed epoch, checkpoint-ring and recovery bytes (attributed to their
//!    own phases, outside the algorithmic volume), and bitwise identity of
//!    the recovered factors against the fault-free run.
//!
//! The byte tax of the checksums is exact, not timed: the `*-ft-*` cells of
//! `results/golden_volumes.json` and their `-nock` twins pin it.

use crate::experiments::Report;
use crate::floor::{Bound, Floor};
use crate::provenance::Stamp;
use dense::gen::random_matrix;
use dense::norms::lu_residual_perm;
use dense::Matrix;
use factor::{conflux_lu_ft, FtConfig, FtLuOutput};
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;
use xharness::{CrashPlan, PerturbConfig, Perturbator};

/// Matrix dimension.
pub const N: usize = 512;
/// Rank count.
pub const P: usize = 16;
/// Timed runs per arm.
pub const REPS: usize = 3;

/// The checksum tax budget: 10 % keeps the protection affordable.
const MAX_OVERHEAD_FRAC: f64 = 0.10;

/// Checksummed over plain fault-free wall time, − 1.
pub const CHECKSUM_OVERHEAD: Floor = Floor {
    name: "checksum_overhead_frac",
    bound: Bound::Max(MAX_OVERHEAD_FRAC),
};

/// The overhead and crash report.
pub struct RecoveryRun {
    /// Both arms' times and the crash accounting, written to
    /// `results/BENCH_recovery.json`.
    pub report: Report,
    /// Checksummed over plain wall time, − 1.
    pub checksum_overhead_frac: f64,
}

impl RecoveryRun {
    /// The gated number with its floor.
    pub fn gated(&self) -> Vec<(Floor, f64)> {
        vec![(CHECKSUM_OVERHEAD, self.checksum_overhead_frac)]
    }
}

fn timed(f: impl FnOnce() -> FtLuOutput) -> (f64, FtLuOutput) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Measure the checksum tax and recover from one crash.
///
/// # Panics
/// If checksums change the factors, the residual exceeds `1e-12`, the
/// planned crash never fires or the recovered factors differ from the
/// fault-free ones by a bit.
pub fn run() -> RecoveryRun {
    let a = random_matrix(N, N, 4242);
    let cfg = FtConfig::auto(N, P);
    let grid = cfg.grid;
    let mut text = format!(
        "n={N}, p={P} (grid {}x{}x{}, v={}), {REPS} reps per arm\n",
        grid.px, grid.py, grid.pz, cfg.v
    );

    // ---- 1. Fault-free checksum tax (checkpointing off in both arms) ----
    let plain_cfg = cfg.clone().checkpoint_every(0).no_checksums();
    let ck_cfg = cfg.clone().checkpoint_every(0);
    let (mut t_plain, mut t_ck) = (f64::INFINITY, f64::INFINITY);
    let mut outs = None;
    for _ in 0..REPS {
        let (dt, plain) = timed(|| conflux_lu_ft(&plain_cfg, &a).expect("plain run"));
        t_plain = t_plain.min(dt);
        let (dt, ck) = timed(|| conflux_lu_ft(&ck_cfg, &a).expect("checksummed run"));
        t_ck = t_ck.min(dt);
        outs = Some((plain, ck));
    }
    let (out_plain, out_ck) = outs.expect("REPS >= 1");
    let overhead = t_ck / t_plain - 1.0;
    text.push_str(&format!(
        "fault-free: plain {t_plain:.3}s, checksummed {t_ck:.3}s  ->  overhead {:+.1}%\n",
        overhead * 100.0
    ));
    assert!(
        bitwise_eq(&out_plain.packed, &out_ck.packed) && out_plain.perm == out_ck.perm,
        "checksums must not change the factors"
    );
    let resid = lu_residual_perm(&a, &out_ck.packed, &out_ck.perm);
    assert!(resid < 1e-12, "fault-free residual {resid:e}");

    // ---- 2. Crash recovery accounting (checkpointing on) ---------------
    // A mid-panel kill: far enough in that several ring checkpoints exist,
    // so the restart resumes from one instead of recomputing from scratch.
    let plan = CrashPlan {
        victim: 1,
        after_sends: 100,
    };
    let base = conflux_lu_ft(&cfg, &a).expect("fault-free checkpointing run");
    let pert = Arc::new(Perturbator::new(PerturbConfig::new(0)).with_crash(plan));
    let (t_crash, crashed) = timed(|| {
        xmpi::with_hooks(pert.clone(), || {
            conflux_lu_ft(&cfg, &a).expect("crashed run must complete")
        })
    });
    assert!(pert.crash_fired(), "planned crash never fired");
    assert!(
        bitwise_eq(&crashed.packed, &base.packed) && crashed.perm == base.perm,
        "recovered factors must match the fault-free run bitwise"
    );
    let r = &crashed.report;
    text.push_str(&format!(
        "crash: victim {} at send {}, {} restart(s), resumed from epoch {:?}\n\
         traffic: ckpt {} B, recovery {} B, algorithmic {:.0} words/rank\n",
        plan.victim,
        plan.after_sends,
        r.restarts,
        r.resumed_from,
        r.ckpt_bytes(),
        r.recovery_bytes(),
        r.algo_avg_rank_bytes() / 16.0
    ));

    let report = Report {
        id: "BENCH_recovery".into(),
        title: "fault-tolerance overhead: checksum tax and crash recovery".into(),
        json: json!({
            "provenance": Stamp::here().to_json(),
            "n": N,
            "p": P,
            "grid": [grid.px, grid.py, grid.pz],
            "v": cfg.v,
            "reps": REPS,
            "fault_free": {
                "walltime_plain_s": t_plain,
                "walltime_checksummed_s": t_ck,
                "checksum_overhead_frac": overhead,
                "max_overhead_frac": MAX_OVERHEAD_FRAC,
                "residual": resid,
                "bitwise_identical_on_off": true,
            },
            "crash": {
                "victim": plan.victim,
                "after_sends": plan.after_sends,
                "restarts": r.restarts,
                "resumed_from": r.resumed_from,
                "walltime_s": t_crash,
                "ckpt_bytes": r.ckpt_bytes(),
                "recovery_bytes": r.recovery_bytes(),
                "algo_words_per_rank": r.algo_avg_rank_bytes() / 16.0,
                "bitwise_identical_to_fault_free": true,
            },
        }),
        text,
    };
    RecoveryRun {
        report,
        checksum_overhead_frac: overhead,
    }
}
