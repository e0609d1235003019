//! Cross-crate integration: every distributed schedule must reproduce the
//! sequential `dense` reference factorization across grids, block sizes and
//! matrix classes — at sizes above the per-crate unit tests.

use conflux_rs::dense::gen::{needs_pivoting, random_matrix, random_spd, well_conditioned};
use conflux_rs::dense::norms::{lu_residual, lu_residual_perm, po_residual};
use conflux_rs::dense::{getrf, potrf};
use conflux_rs::factor::confchox::ConfchoxConfig;
use conflux_rs::factor::conflux::ConfluxConfig;
use conflux_rs::factor::lu25d_swap::lu25d_swap;
use conflux_rs::factor::twod::TwodConfig;
use conflux_rs::factor::{confchox_cholesky, conflux_lu, twod_cholesky, twod_lu};
use conflux_rs::xmpi::{Grid2, Grid3};

#[test]
fn conflux_matches_reference_across_grid_zoo() {
    let n = 96;
    let a = random_matrix(n, n, 1);
    for (grid, v) in [
        (Grid3::new(1, 1, 1), 12),
        (Grid3::new(3, 1, 1), 8),
        (Grid3::new(1, 3, 1), 8),
        (Grid3::new(2, 2, 2), 8),
        (Grid3::new(4, 4, 2), 8),
        (Grid3::new(2, 3, 2), 6),
        (Grid3::new(3, 3, 3), 12),
        (Grid3::new(4, 2, 4), 8),
    ] {
        let out = conflux_lu(&ConfluxConfig::new(n, v, grid), &a).unwrap();
        let res = lu_residual_perm(&a, out.packed.as_ref().unwrap(), &out.perm);
        assert!(res < 1e-10, "grid {grid:?} v={v}: residual {res}");
    }
}

#[test]
fn confchox_matches_reference_across_grid_zoo() {
    let n = 96;
    let a = random_spd(n, 2);
    for (grid, v) in [
        (Grid3::new(1, 1, 1), 12),
        (Grid3::new(2, 2, 2), 8),
        (Grid3::new(3, 2, 1), 8),
        (Grid3::new(2, 3, 2), 6),
        (Grid3::new(4, 4, 4), 8),
    ] {
        let out = confchox_cholesky(&ConfchoxConfig::new(n, v, grid), &a).unwrap();
        let res = po_residual(&a, out.l.as_ref().unwrap());
        assert!(res < 1e-10, "grid {grid:?} v={v}: residual {res}");
    }
}

#[test]
fn all_lu_schedules_agree_on_the_solution_space() {
    // Different pivot orders are fine; the factorizations must all
    // reconstruct A.
    let n = 64;
    for seed in [3u64, 4, 5] {
        let a = random_matrix(n, n, seed);
        let c = conflux_lu(&ConfluxConfig::new(n, 8, Grid3::new(2, 2, 2)), &a).unwrap();
        assert!(lu_residual_perm(&a, c.packed.as_ref().unwrap(), &c.perm) < 1e-10);
        let s = lu25d_swap(&ConfluxConfig::new(n, 8, Grid3::new(2, 2, 2)), &a).unwrap();
        assert!(lu_residual_perm(&a, s.packed.as_ref().unwrap(), &s.perm) < 1e-10);
        let t = twod_lu(&TwodConfig::new(n, 8, Grid2::new(2, 2)), &a).unwrap();
        assert!(lu_residual(&a, t.packed.as_ref().unwrap(), &t.ipiv) < 1e-10);
    }
}

#[test]
fn conflux_and_swap_variant_agree_on_the_first_pivot_set() {
    // Both run tournament pivoting over identical candidates at step 0
    // (before any masking/swapping divergence); afterwards the candidate
    // *grouping* differs — swapped rows change process-row membership — and
    // tournament pivoting, like any CALU-style heuristic, may then select
    // different (equally stable) pivot sets.
    let n = 48;
    let a = random_matrix(n, n, 6);
    let grid = Grid3::new(2, 2, 1);
    let c = conflux_lu(&ConfluxConfig::new(n, 8, grid), &a).unwrap();
    let s = lu25d_swap(&ConfluxConfig::new(n, 8, grid), &a).unwrap();
    let mut cp: Vec<usize> = c.perm[..8].to_vec();
    let mut sp: Vec<usize> = s.perm[..8].to_vec();
    cp.sort_unstable();
    sp.sort_unstable();
    assert_eq!(cp, sp, "step 0 pivot sets must coincide");
}

#[test]
fn tournament_handles_adversarial_pivot_distributions() {
    // Every pivot lives on the same process row: the tournament and the
    // pivot-row reduction paths get maximally imbalanced.
    let n = 48;
    let v = 8;
    let grid = Grid3::new(2, 2, 2);
    let mut a = well_conditioned(n, 7);
    // Make rows in tiles owned by process row 0 dominant for every column.
    for t in 0..n / v {
        for j in 0..n {
            let dominant_row = (2 * t) % (n / v) * v + j % v;
            a[(dominant_row, j)] += 50.0;
        }
    }
    let out = conflux_lu(&ConfluxConfig::new(n, v, grid), &a).unwrap();
    let res = lu_residual_perm(&a, out.packed.as_ref().unwrap(), &out.perm);
    assert!(res < 1e-9, "residual {res}");
}

#[test]
fn hard_pivoting_matrices_stay_stable_everywhere() {
    let n = 64;
    let a = needs_pivoting(n, 8);
    let c = conflux_lu(&ConfluxConfig::new(n, 8, Grid3::new(2, 2, 2)), &a).unwrap();
    assert!(lu_residual_perm(&a, c.packed.as_ref().unwrap(), &c.perm) < 1e-8);
    let t = twod_lu(&TwodConfig::new(n, 8, Grid2::new(2, 2)), &a).unwrap();
    assert!(lu_residual(&a, t.packed.as_ref().unwrap(), &t.ipiv) < 1e-8);
}

#[test]
fn distributed_results_match_sequential_dense_kernels_exactly_on_1_rank() {
    // On a single rank with the same block size, 2D LU follows the exact
    // same pivot path as the blocked sequential getrf.
    let n = 40;
    let a = random_matrix(n, n, 9);
    let t = twod_lu(&TwodConfig::new(n, 8, Grid2::new(1, 1)), &a).unwrap();
    let mut seq = a.clone();
    let ipiv = getrf(&mut seq, 8).unwrap();
    assert_eq!(t.ipiv, ipiv);
    let packed = t.packed.unwrap();
    for i in 0..n {
        for j in 0..n {
            assert!((packed[(i, j)] - seq[(i, j)]).abs() < 1e-10);
        }
    }
    // Cholesky likewise.
    let spd = random_spd(n, 10);
    let tc = twod_cholesky(&TwodConfig::new(n, 8, Grid2::new(1, 1)), &spd).unwrap();
    let mut seqc = spd.clone();
    potrf(&mut seqc, 8).unwrap();
    let l = tc.l.unwrap();
    for i in 0..n {
        for j in 0..=i {
            assert!((l[(i, j)] - seqc[(i, j)]).abs() < 1e-10);
        }
    }
}
