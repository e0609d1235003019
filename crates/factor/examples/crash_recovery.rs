//! Kill one rank in the middle of each fault-tolerant factorization and
//! recover: `conflux_lu_ft` and `confchox_cholesky_ft` at N = 256 on eight
//! ranks, with ABFT checksums and ring checkpoints on (the `FtConfig`
//! defaults). Each crashed run must restart from a checkpoint and return
//! the fault-free factor bit for bit.
//!
//! ```text
//! cargo run --release -p factor --example crash_recovery
//! ```

use dense::gen::{random_matrix, random_spd};
use dense::Matrix;
use factor::{confchox_cholesky_ft, conflux_lu_ft, FtConfig, FtReport};
use std::sync::Arc;
use xharness::{CrashPlan, PerturbConfig, Perturbator};

const N: usize = 256;
const P: usize = 8;
/// The rank that dies.
const VICTIM: usize = 1;

/// Run `factor` fault-free, then with [`VICTIM`] killed at its
/// `after_sends`-th send; panic unless the crash fired and both runs return
/// the same bits.
fn crash_and_recover(kernel: &str, after_sends: u64, factor: impl Fn() -> (Matrix, FtReport)) {
    let (clean, _) = factor();
    let crash = CrashPlan {
        victim: VICTIM,
        after_sends,
    };
    let pert = Arc::new(Perturbator::new(PerturbConfig::new(0)).with_crash(crash));
    let (recovered, report) = xmpi::with_hooks(pert.clone(), &factor);
    assert!(
        pert.crash_fired(),
        "{kernel}: the planned crash never fired"
    );
    let same = clean
        .data()
        .iter()
        .zip(recovered.data())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        same,
        "{kernel}: the recovered factor differs from the clean one"
    );
    println!(
        "{kernel}: rank {VICTIM} crashed at send {after_sends}; {} restart(s), resumed from \
         epoch {:?}; checkpoints {} B, recovery {} B; factor bitwise equal to the clean run",
        report.restarts,
        report.resumed_from,
        report.ckpt_bytes(),
        report.recovery_bytes(),
    );
}

fn main() {
    let cfg = FtConfig::auto(N, P);
    let a = random_matrix(N, N, 42);
    // Each crash lands past the first checkpoints, so the restart resumes
    // from one.
    crash_and_recover("conflux_lu_ft", 100, || {
        let out = conflux_lu_ft(&cfg, &a).expect("LU");
        (out.packed, out.report)
    });
    let spd = random_spd(N, 43);
    crash_and_recover("confchox_cholesky_ft", 30, || {
        let out = confchox_cholesky_ft(&cfg, &spd).expect("Cholesky");
        (out.l, out.report)
    });
}
