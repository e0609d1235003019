//! Crash- and corruption-injection conformance suite for the fault-tolerant
//! factorizations.
//!
//! For every seed in the `XHARNESS_SEEDS` matrix a deterministic fault plan
//! is derived — a non-root victim rank killed at a seed-chosen send index,
//! or a single element of a seed-chosen in-flight payload perturbed — and
//! armed around a full [`factor::conflux_lu_ft`] /
//! [`factor::confchox_cholesky_ft`] run. The run must:
//!
//! * **complete**, with the planned fault actually fired (no vacuous pass);
//! * produce factors and pivots **bitwise identical** to the fault-free FT
//!   run (which is itself bitwise identical to the plain schedules — the
//!   checkpointed replay is exact, not approximate);
//! * keep the residual under the repo-wide `1e-12` ceiling;
//! * report checkpoint and recovery traffic in their **own phases**, with
//!   the *algorithmic* per-rank volume of the completed attempt still
//!   inside the `pebbles::bounds` sandwich;
//! * and — the negative control — the same corruption with checksums
//!   disabled must **not** be silently absorbed: the factors must come out
//!   visibly wrong (if that test ever "passes" with a clean residual, the
//!   detection tests above have gone vacuous).
//!
//! A failing seed leaves a replay recipe in `results/faults_failure.json`
//! (see `xharness::run_perturbed` for the replay idiom).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dense::gen::{random_matrix, random_spd};
use dense::norms::{lu_residual_perm, po_residual};
use dense::Matrix;
use factor::{
    confchox_cholesky, confchox_cholesky_ft, conflux_lu, conflux_lu_ft, ConfchoxConfig,
    ConfluxConfig, FtConfig, FtReport,
};
use pebbles::bounds::{cholesky_io_lower_bound, lu_io_lower_bound};
use xharness::{seeds, CorruptPlan, CrashPlan, PerturbConfig, Perturbator};
use xmpi::Grid3;

const RESIDUAL_TOL: f64 = 1e-12;

/// Volume slack for the checksummed schedules, in units of `N²/P` words.
/// The fault-free suite uses 30; the ABFT encoding adds `(r+c)/(r·c)` per
/// transfer — an `O(volume/v + volume/ks)` tax, a constant factor on the
/// lower-order terms, not on the `N³` term — so the FT sandwich gets a
/// proportionally wider (still `O(N²/P)`) allowance.
const FT_SLACK_C: f64 = 45.0;

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

/// Assert the completed attempt's algorithmic volume is near-optimal:
/// at or above the analytic lower bound and within the bound's `N³` term
/// plus `FT_SLACK_C · N²/P` words (see `tests/conformance.rs` for the
/// fault-free version of this sandwich).
fn assert_algo_volume_sandwiched(
    label: &str,
    report: &FtReport,
    lower: f64,
    n3_term: f64,
    n: usize,
    p: usize,
) {
    let measured = report.algo_avg_rank_bytes() / 16.0; // words (avg of sent+recv)
    assert!(
        measured >= lower,
        "{label}: algorithmic volume {measured:.0} words/rank below the lower bound {lower:.0}"
    );
    let slack = FT_SLACK_C * (n * n) as f64 / p as f64;
    assert!(
        measured <= n3_term + slack,
        "{label}: algorithmic volume {measured:.0} words/rank exceeds N³ term {n3_term:.0} + slack {slack:.0}"
    );
}

/// Deterministic crash plan for a seed: a non-root victim, killed no
/// earlier than its 12th send so the first ring checkpoint (end of block
/// step 0) usually completes first and the restart exercises *recovery*,
/// not merely rerun-from-scratch (the suite asserts at least one seed per
/// matrix recovers from a checkpoint).
fn crash_plan(seed: u64, p: usize) -> CrashPlan {
    CrashPlan {
        victim: 1 + (seed as usize) % (p - 1),
        after_sends: 12 + seed % 8,
    }
}

/// Run `f`; on a panic, record `{seed, kernel, fault}` in
/// `results/faults_failure.json` so the failing plan can be replayed
/// one-liner style, then re-raise.
fn with_failure_artifact<R>(kernel: &str, seed: u64, fault: &str, f: impl FnOnce() -> R) -> R {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            let json = format!(
                "{{\n  \"kernel\": \"{kernel}\",\n  \"seed\": {seed},\n  \"fault\": \"{fault}\",\n  \"replay\": \"XHARNESS_SEEDS=list:{seed} cargo test -p factor --release --test faults\",\n  \"message\": {msg:?}\n}}\n"
            );
            let _ = std::fs::create_dir_all("results");
            let _ = std::fs::write("results/faults_failure.json", json);
            resume_unwind(payload);
        }
    }
}

#[test]
fn conflux_crash_conformance_over_seed_matrix() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let p = grid.size();
    let a = random_matrix(n, n, 101);
    let cfg = FtConfig::new(n, v, grid);

    // Fault-free FT baseline: bitwise-equal to the plain schedule, volume
    // still sandwiched despite the checksum tax.
    let base = conflux_lu_ft(&cfg, &a).unwrap();
    let plain = conflux_lu(&ConfluxConfig::new(n, v, grid), &a).unwrap();
    assert_eq!(base.perm, plain.perm, "FT pivots diverge from COnfLUX");
    assert_bitwise_equal(
        &base.packed,
        plain.packed.as_ref().unwrap(),
        "fault-free FT factor vs COnfLUX",
    );
    let resid = lu_residual_perm(&a, &base.packed, &base.perm);
    assert!(resid < RESIDUAL_TOL, "baseline residual {resid:e}");

    let m = (grid.pz * n * n) as f64 / p as f64;
    let nf = n as f64;
    let n3_term = 2.0 * nf * nf * nf / (3.0 * p as f64 * m.sqrt());
    let lower = lu_io_lower_bound(n, p, m);
    assert_algo_volume_sandwiched("conflux-ft baseline", &base.report, lower, n3_term, n, p);

    let mut recovered_from_ckpt = 0usize;
    for seed in seeds(4) {
        let plan = crash_plan(seed, p);
        let fault = format!("kill rank {} after send {}", plan.victim, plan.after_sends);
        let out = with_failure_artifact("conflux_lu_ft", seed, &fault, || {
            let pert = Arc::new(Perturbator::new(PerturbConfig::new(seed)).with_crash(plan));
            let out = xmpi::with_hooks(pert.clone(), || conflux_lu_ft(&cfg, &a).unwrap());
            assert!(pert.crash_fired(), "seed {seed}: planned crash never fired");
            out
        });
        with_failure_artifact("conflux_lu_ft", seed, &fault, || {
            assert_eq!(out.report.crashed, vec![plan.victim], "seed {seed}");
            assert!(out.report.restarts >= 1, "seed {seed}: no restart recorded");
            assert_eq!(out.perm, base.perm, "seed {seed}: pivots diverged");
            assert_bitwise_equal(
                &out.packed,
                &base.packed,
                &format!("post-crash factor, seed {seed}"),
            );
            let res = lu_residual_perm(&a, &out.packed, &out.perm);
            assert!(res < RESIDUAL_TOL, "seed {seed}: residual {res:e}");

            // FT traffic lives in its own phases; the completed attempt's
            // algorithmic volume still satisfies the sandwich.
            assert!(out.report.ckpt_bytes() > 0, "seed {seed}: no ckpt bytes");
            if out.report.resumed_from.iter().any(|&e| e > 0) {
                assert!(
                    out.report.recovery_bytes() > 0,
                    "seed {seed}: resumed from a checkpoint but moved no recovery bytes"
                );
                recovered_from_ckpt += 1;
            }
            assert_algo_volume_sandwiched(
                &format!("conflux-ft seed {seed}"),
                &out.report,
                lower,
                n3_term,
                n,
                p,
            );
        });
    }
    assert!(
        recovered_from_ckpt > 0,
        "no seed in the matrix exercised checkpoint recovery (all crashes \
         predate the first checkpoint — widen crash_plan's send window)"
    );
}

#[test]
fn confchox_crash_conformance_over_seed_matrix() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let p = grid.size();
    let a = random_spd(n, 202);
    let cfg = FtConfig::new(n, v, grid);

    let base = confchox_cholesky_ft(&cfg, &a).unwrap();
    let plain = confchox_cholesky(&ConfchoxConfig::new(n, v, grid), &a).unwrap();
    assert_bitwise_equal(
        &base.l,
        plain.l.as_ref().unwrap(),
        "fault-free FT factor vs COnfCHOX",
    );
    let resid = po_residual(&a, &base.l);
    assert!(resid < RESIDUAL_TOL, "baseline residual {resid:e}");

    let m = (grid.pz * n * n) as f64 / p as f64;
    let nf = n as f64;
    let n3_term = nf * nf * nf / (3.0 * p as f64 * m.sqrt());
    let lower = cholesky_io_lower_bound(n, p, m);
    assert_algo_volume_sandwiched("confchox-ft baseline", &base.report, lower, n3_term, n, p);

    let mut recovered_from_ckpt = 0usize;
    for seed in seeds(4) {
        let plan = crash_plan(seed, p);
        let fault = format!("kill rank {} after send {}", plan.victim, plan.after_sends);
        let out = with_failure_artifact("confchox_cholesky_ft", seed, &fault, || {
            let pert = Arc::new(Perturbator::new(PerturbConfig::new(seed)).with_crash(plan));
            let out = xmpi::with_hooks(pert.clone(), || confchox_cholesky_ft(&cfg, &a).unwrap());
            assert!(pert.crash_fired(), "seed {seed}: planned crash never fired");
            out
        });
        with_failure_artifact("confchox_cholesky_ft", seed, &fault, || {
            assert_eq!(out.report.crashed, vec![plan.victim], "seed {seed}");
            assert_bitwise_equal(&out.l, &base.l, &format!("post-crash factor, seed {seed}"));
            let res = po_residual(&a, &out.l);
            assert!(res < RESIDUAL_TOL, "seed {seed}: residual {res:e}");
            assert!(out.report.ckpt_bytes() > 0, "seed {seed}: no ckpt bytes");
            if out.report.resumed_from.iter().any(|&e| e > 0) {
                assert!(out.report.recovery_bytes() > 0, "seed {seed}");
                recovered_from_ckpt += 1;
            }
            assert_algo_volume_sandwiched(
                &format!("confchox-ft seed {seed}"),
                &out.report,
                lower,
                n3_term,
                n,
                p,
            );
        });
    }
    assert!(
        recovered_from_ckpt > 0,
        "no seed in the matrix exercised checkpoint recovery"
    );
}

#[test]
fn conflux_corruption_conformance_over_seed_matrix() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let p = grid.size();
    let a = random_matrix(n, n, 101);
    // Checkpointing off: every qualifying payload feeds the factors, so the
    // injected corruption cannot land on a blob that a fault-free run never
    // reads back. `min_len = v² + 1` exempts the (unprotected, redundantly
    // recomputed) tournament exchanges and all control words.
    let cfg = FtConfig::new(n, v, grid).checkpoint_every(0);
    let base = conflux_lu_ft(&cfg, &a).unwrap();

    for seed in seeds(4) {
        let plan = CorruptPlan::from_seed(seed, p, v * v + 1, 4);
        let fault = format!(
            "corrupt rank {}'s qualifying send {} by {:+e}",
            plan.victim, plan.on_send, plan.delta
        );
        with_failure_artifact("conflux_lu_ft[abft]", seed, &fault, || {
            let pert = Arc::new(Perturbator::new(PerturbConfig::new(seed)).with_corrupt(plan));
            let out = xmpi::with_hooks(pert.clone(), || conflux_lu_ft(&cfg, &a).unwrap());
            assert!(
                pert.corrupt_fired(),
                "seed {seed}: planned corruption never fired"
            );
            assert!(
                out.report.corrections >= 1,
                "seed {seed}: corruption fired but no checksum verdict flagged it"
            );
            // Repair is numerical (the located delta is reconstructed in
            // floating point), so the yardstick is the residual, not bits.
            assert_eq!(out.perm, base.perm, "seed {seed}: pivots diverged");
            let res = lu_residual_perm(&a, &out.packed, &out.perm);
            assert!(
                res < RESIDUAL_TOL,
                "seed {seed}: residual {res:e} after repair"
            );
        });
    }
}

/// Negative control: the identical corruption plans with checksums disabled
/// must visibly damage the factors. If this residual ever comes out clean,
/// the detection suite above is testing nothing.
#[test]
fn corruption_without_checksums_damages_the_factors() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let p = grid.size();
    let a = random_matrix(n, n, 101);
    let cfg = FtConfig::new(n, v, grid).checkpoint_every(0).no_checksums();

    for seed in seeds(4) {
        let plan = CorruptPlan::from_seed(seed, p, v * v + 1, 4);
        let fault = format!(
            "corrupt rank {}'s qualifying send {} by {:+e} (checksums off)",
            plan.victim, plan.on_send, plan.delta
        );
        with_failure_artifact("conflux_lu_ft[no-abft]", seed, &fault, || {
            let pert = Arc::new(Perturbator::new(PerturbConfig::new(seed)).with_corrupt(plan));
            let out = xmpi::with_hooks(pert.clone(), || conflux_lu_ft(&cfg, &a).unwrap());
            assert!(pert.corrupt_fired(), "seed {seed}: corruption never fired");
            assert_eq!(
                out.report.corrections, 0,
                "seed {seed}: corrections reported with checksums off"
            );
            let res = lu_residual_perm(&a, &out.packed, &out.perm);
            assert!(
                res > RESIDUAL_TOL,
                "seed {seed}: unprotected corruption of {:+e} produced a \
                 clean-looking residual {res:e} — the ABFT tests are vacuous",
                plan.delta
            );
        });
    }
}
