//! Late failures abort cleanly through the public drivers. A singular or
//! indefinite diagonal block met after the first step must stop every rank
//! with the error — no deadlock — and name the failing row. The factors run
//! one schedule, the blocking step loop; the file and test names date from
//! when a one-step lookahead schedule ran beside it and met these failures
//! one step early.

use dense::gen::{random_matrix, random_spd};
use dense::Matrix;
use factor::{confchox_cholesky, conflux_lu, ConfchoxConfig, ConfluxConfig};
use xmpi::Grid3;

#[test]
fn conflux_lookahead_aborts_cleanly_on_late_singularity() {
    // Block-diagonal matrix whose *second* diagonal block is exactly zero
    // (and with no coupling, so no rounding can perturb it): step 0
    // succeeds, step 1's tournament fails, and its status broadcast must
    // still abort every rank.
    let n = 32;
    let v = 8;
    let mut a = Matrix::zeros(n, n);
    for blk in [0usize, 2, 3] {
        let d = random_matrix(v, v, 24 + blk as u64);
        for r in 0..v {
            for c in 0..v {
                a[(blk * v + r, blk * v + c)] = d[(r, c)] + if r == c { 4.0 } else { 0.0 };
            }
        }
    }
    match conflux_lu(&ConfluxConfig::new(n, v, Grid3::new(2, 2, 2)), &a) {
        Err(dense::Error::SingularAt(8)) => {}
        other => panic!("expected SingularAt(8), got {:?}", other.map(|_| ())),
    }
}

#[test]
fn confchox_lookahead_aborts_cleanly_on_late_indefiniteness() {
    // Indefinite in the second diagonal block at global row 10: step 1's
    // potrf fails there, and the status broadcast carries that row to
    // rank 0, which does not own the block.
    let n = 32;
    let v = 8;
    let mut a = random_spd(n, 34);
    a[(v + 2, v + 2)] = -100.0;
    match confchox_cholesky(&ConfchoxConfig::new(n, v, Grid3::new(2, 2, 2)), &a) {
        Err(dense::Error::NotPositiveDefinite(10)) => {}
        other => panic!("expected NotPositiveDefinite(10), got {other:?}"),
    }
}
