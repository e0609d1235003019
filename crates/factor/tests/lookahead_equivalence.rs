//! Lookahead must be a pure *schedule* change: for every algorithm that
//! overlaps its panel broadcasts with the trailing update, the factors (or
//! product) must be bitwise identical to the blocking schedule, and every
//! rank must send and receive exactly the same bytes and messages. Only the
//! event timing — and therefore the modeled makespan — may differ.

use dense::gen::{random_matrix, random_spd};
use dense::Matrix;
use factor::lu25d_swap::lu25d_swap;
use factor::{confchox_cholesky, conflux_lu, mmm25d, ConfchoxConfig, ConfluxConfig, Mmm25dConfig};
use xmpi::{Grid3, WorldStats};

/// Per-rank (bytes_sent, bytes_recv, msgs_sent, msgs_recv) tuples.
fn per_rank(stats: &WorldStats) -> Vec<(u64, u64, u64, u64)> {
    stats
        .ranks
        .iter()
        .map(|r| (r.bytes_sent, r.bytes_recv, r.msgs_sent, r.msgs_recv))
        .collect()
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

#[test]
fn conflux_lookahead_is_bitwise_identical_and_volume_preserving() {
    for (n, v, grid, seed) in [
        (64, 8, Grid3::new(2, 2, 2), 21u64),
        (96, 8, Grid3::new(2, 2, 2), 22),
        (96, 8, Grid3::new(2, 3, 1), 23),
    ] {
        let a = random_matrix(n, n, seed);
        let ahead = conflux_lu(&ConfluxConfig::new(n, v, grid), &a).unwrap();
        let block = conflux_lu(&ConfluxConfig::new(n, v, grid).blocking(), &a).unwrap();
        assert_eq!(ahead.perm, block.perm, "n={n} grid={grid:?}: pivots differ");
        assert_bitwise_equal(
            ahead.packed.as_ref().unwrap(),
            block.packed.as_ref().unwrap(),
            "conflux packed factor",
        );
        assert_eq!(
            per_rank(&ahead.stats),
            per_rank(&block.stats),
            "n={n} grid={grid:?}: per-rank traffic differs"
        );
        assert_eq!(
            ahead.stats.phase_totals(),
            block.stats.phase_totals(),
            "n={n} grid={grid:?}: per-phase attribution differs"
        );
    }
}

/// The swap ablation runs COnfLUX's step loop, so it inherits the lookahead
/// contract: the `row_swaps` phase follows the posted broadcasts' wait and
/// moves the same rows either way.
#[test]
fn swap_lookahead_is_bitwise_identical_and_volume_preserving() {
    for (n, v, grid, seed) in [
        (64, 8, Grid3::new(2, 2, 2), 25u64),
        (72, 12, Grid3::new(3, 2, 2), 26),
    ] {
        let a = random_matrix(n, n, seed);
        let ahead = lu25d_swap(&ConfluxConfig::new(n, v, grid), &a).unwrap();
        let block = lu25d_swap(&ConfluxConfig::new(n, v, grid).blocking(), &a).unwrap();
        assert_eq!(ahead.perm, block.perm, "n={n} grid={grid:?}: pivots differ");
        assert_bitwise_equal(
            ahead.packed.as_ref().unwrap(),
            block.packed.as_ref().unwrap(),
            "swap packed factor",
        );
        assert_eq!(
            per_rank(&ahead.stats),
            per_rank(&block.stats),
            "n={n} grid={grid:?}: per-rank traffic differs"
        );
        let phases = |stats: &WorldStats| -> Vec<_> {
            stats.ranks.iter().map(|r| r.per_phase.clone()).collect()
        };
        assert_eq!(
            phases(&ahead.stats),
            phases(&block.stats),
            "n={n} grid={grid:?}: per-rank, per-phase attribution differs"
        );
        assert!(
            ahead.stats.phase_totals().contains_key("row_swaps"),
            "n={n} grid={grid:?}: no row was swapped"
        );
    }
}

#[test]
fn conflux_lookahead_aborts_cleanly_on_late_singularity() {
    // Block-diagonal matrix whose *second* diagonal block is exactly zero
    // (and with no coupling, so no rounding can perturb it): the failing
    // tournament runs during step 0's lookahead, and its status broadcast
    // must still abort every rank without deadlock.
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
    let cfg = ConfluxConfig::new(n, v, Grid3::new(2, 2, 2));
    assert!(cfg.lookahead, "lookahead is the default");
    match conflux_lu(&cfg, &a) {
        Err(dense::Error::SingularAt(_)) => {}
        other => panic!("expected SingularAt, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn confchox_lookahead_is_bitwise_identical_and_volume_preserving() {
    for (n, v, grid, seed) in [
        (64, 8, Grid3::new(2, 2, 2), 31u64),
        (96, 8, Grid3::new(2, 2, 2), 32),
        (72, 8, Grid3::new(3, 3, 1), 33),
    ] {
        let a = random_spd(n, seed);
        let ahead = confchox_cholesky(&ConfchoxConfig::new(n, v, grid), &a).unwrap();
        let block = confchox_cholesky(&ConfchoxConfig::new(n, v, grid).blocking(), &a).unwrap();
        assert_bitwise_equal(
            ahead.l.as_ref().unwrap(),
            block.l.as_ref().unwrap(),
            "confchox factor",
        );
        assert_eq!(
            per_rank(&ahead.stats),
            per_rank(&block.stats),
            "n={n} grid={grid:?}: per-rank traffic differs"
        );
        assert_eq!(
            ahead.stats.phase_totals(),
            block.stats.phase_totals(),
            "n={n} grid={grid:?}: per-phase attribution differs"
        );
    }
}

#[test]
fn confchox_lookahead_aborts_cleanly_on_late_indefiniteness() {
    // Indefinite in the second diagonal block: potrf fails during the
    // previous step's lookahead.
    let n = 32;
    let v = 8;
    let mut a = random_spd(n, 34);
    a[(v + 2, v + 2)] = -100.0;
    match confchox_cholesky(&ConfchoxConfig::new(n, v, Grid3::new(2, 2, 2)), &a) {
        Err(dense::Error::NotPositiveDefinite(_)) => {}
        other => panic!("expected NotPositiveDefinite, got {other:?}"),
    }
}

#[test]
fn mmm25d_double_buffering_is_bitwise_identical_and_volume_preserving() {
    for (n, v, grid, seed) in [
        (48, 4, Grid3::new(2, 2, 2), 41u64),
        (64, 8, Grid3::new(2, 2, 1), 42),
        (48, 4, Grid3::new(3, 2, 3), 43),
    ] {
        let a = random_matrix(n, n, seed);
        let b = random_matrix(n, n, seed + 100);
        let ahead = mmm25d(&Mmm25dConfig::new(n, v, grid), &a, &b);
        let block = mmm25d(&Mmm25dConfig::new(n, v, grid).blocking(), &a, &b);
        assert_bitwise_equal(
            ahead.c.as_ref().unwrap(),
            block.c.as_ref().unwrap(),
            "mmm25d product",
        );
        assert_eq!(
            per_rank(&ahead.stats),
            per_rank(&block.stats),
            "n={n} grid={grid:?}: per-rank traffic differs"
        );
    }
}
