//! The theory ↔ systems contract, measured: the paper's lower bounds must
//! hold for the *measured* traffic of every schedule, COnfLUX must sit near
//! its `N³/(P√M)` model, and the qualitative orderings of the evaluation
//! section (masking < swapping, 2.5D < 2D at scale) must be reproduced.

use conflux_rs::dense::gen::{random_matrix, random_spd};
use conflux_rs::factor::confchox::ConfchoxConfig;
use conflux_rs::factor::conflux::ConfluxConfig;
use conflux_rs::factor::lu25d_swap::lu25d_swap;
use conflux_rs::factor::models::{conflux_model, MachineParams};
use conflux_rs::factor::twod::TwodConfig;
use conflux_rs::factor::{confchox_cholesky, conflux_lu, twod_lu};
use conflux_rs::pebbles::bounds::{cholesky_io_lower_bound, lu_io_lower_bound};
use conflux_rs::xmpi::{Grid2, Grid3};

/// Average words (8-byte elements) transferred per rank: (sent+recv)/2/8.
fn words_per_rank(stats: &conflux_rs::xmpi::WorldStats) -> f64 {
    stats.avg_rank_bytes() / 16.0
}

#[test]
fn measured_lu_volume_respects_the_lower_bound() {
    // Q_LU ≥ 2N³/(3P√M) + N²/(2P) with M = c·N²/P must hold for every
    // executable LU schedule (the bound is for the optimal schedule, so any
    // real one is above it).
    let n = 128;
    let a = random_matrix(n, n, 1);
    for (label, measured, c) in [
        (
            "conflux",
            conflux_lu(
                &ConfluxConfig::new(n, 8, Grid3::new(2, 2, 2)).volume_only(),
                &a,
            )
            .unwrap()
            .stats,
            2usize,
        ),
        (
            "swap",
            lu25d_swap(
                &ConfluxConfig::new(n, 8, Grid3::new(2, 2, 2)).volume_only(),
                &a,
            )
            .unwrap()
            .stats,
            2,
        ),
        (
            "twod",
            twod_lu(&TwodConfig::new(n, 16, Grid2::new(2, 4)).volume_only(), &a)
                .unwrap()
                .stats,
            1,
        ),
    ] {
        let p = 8;
        let m = (c * n * n) as f64 / p as f64;
        let bound = lu_io_lower_bound(n, p, m);
        let w = words_per_rank(&measured);
        assert!(
            w >= bound,
            "{label}: measured {w:.0} words/rank below the lower bound {bound:.0}"
        );
    }
}

#[test]
fn measured_cholesky_volume_respects_the_lower_bound() {
    let n = 128;
    let p = 8;
    let a = random_spd(n, 2);
    let st = confchox_cholesky(
        &ConfchoxConfig::new(n, 8, Grid3::new(2, 2, 2)).volume_only(),
        &a,
    )
    .unwrap()
    .stats;
    let m = (2 * n * n) as f64 / p as f64;
    let bound = cholesky_io_lower_bound(n, p, m);
    let w = words_per_rank(&st);
    assert!(w >= bound, "measured {w:.0} below bound {bound:.0}");
}

#[test]
fn conflux_tracks_its_cost_model() {
    // Lemma 10's model with the second-order terms must predict the
    // measured volume within a small factor at simulation scale.
    for (n, grid, v) in [
        (256usize, Grid3::new(2, 2, 2), 8usize),
        (256, Grid3::new(4, 4, 1), 8),
        (512, Grid3::new(4, 4, 4), 8),
    ] {
        let a = random_matrix(n, n, 3);
        let stats = conflux_lu(&ConfluxConfig::new(n, v, grid).volume_only(), &a)
            .unwrap()
            .stats;
        let p = grid.size();
        let m = (grid.pz * n * n) as f64 / p as f64;
        let model = conflux_model(MachineParams::with_memory(n, p, m));
        let measured = words_per_rank(&stats);
        let ratio = measured / model;
        assert!(
            (0.3..3.0).contains(&ratio),
            "n={n} grid={grid:?}: measured/model = {ratio:.2}"
        );
    }
}

#[test]
fn masking_beats_swapping_and_swap_traffic_scales_with_replication() {
    // §7.3's argument, measured two ways: (1) the swap variant always moves
    // more data than masking COnfLUX at the same grid; (2) the row-swap
    // traffic itself grows with the replication depth, because every
    // layer's accumulator rows must travel (swap volume per exchanged row
    // ∝ (1 + c): one original copy + c accumulators).
    let n = 96;
    let a = random_matrix(n, n, 4);
    let run_at = |pz: usize| {
        let grid = Grid3::new(2, 2, pz);
        let mask = conflux_lu(&ConfluxConfig::new(n, 8, grid).volume_only(), &a)
            .unwrap()
            .stats;
        let swap = lu25d_swap(&ConfluxConfig::new(n, 8, grid).volume_only(), &a)
            .unwrap()
            .stats;
        (mask, swap)
    };
    let (mask1, swap1) = run_at(1);
    let (mask4, swap4) = run_at(4);
    assert!(
        swap1.total_bytes_sent() > mask1.total_bytes_sent(),
        "c=1: swap must cost more"
    );
    assert!(
        swap4.total_bytes_sent() > mask4.total_bytes_sent(),
        "c=4: swap must cost more"
    );
    let swaps_at = |stats: &conflux_rs::xmpi::WorldStats| -> f64 {
        stats
            .phase_totals()
            .get("row_swaps")
            .map_or(0.0, |&(s, _)| s as f64)
    };
    let s1 = swaps_at(&swap1);
    let s4 = swaps_at(&swap4);
    assert!(s1 > 0.0, "swap phase must move data");
    assert!(
        s4 > 1.8 * s1,
        "swap traffic must scale with c: c=1 {s1:.0} B vs c=4 {s4:.0} B (expect ≈(1+c)/2 growth)"
    );
}

#[test]
fn conflux_beats_2d_at_the_largest_tested_scale() {
    // Fig. 8's qualitative claim at our largest affordable configuration.
    let n = 512;
    let p = 64;
    let a = random_matrix(n, n, 5);
    let cf = conflux_lu(
        &ConfluxConfig::new(n, 8, Grid3::new(4, 4, 4)).volume_only(),
        &a,
    )
    .unwrap()
    .stats
    .avg_rank_bytes();
    let td = twod_lu(
        &TwodConfig::new(n, 16, Grid2::near_square(p)).volume_only(),
        &a,
    )
    .unwrap()
    .stats
    .avg_rank_bytes();
    assert!(
        cf < td,
        "COnfLUX ({cf:.0} B/rank) must beat 2D ({td:.0} B/rank) at P={p}"
    );
}
