//! Golden-volume regression: the measured per-rank / per-phase traffic of
//! fixed `(N, v, grid)` runs is pinned to `results/golden_volumes.json`.
//!
//! The paper's volume claims are exact byte counts, so any schedule change
//! that alters traffic — an extra broadcast, a widened panel, a swapped
//! collective — must show up as an explicit diff of the committed golden
//! file, never as silent drift in the measured curves. To accept an
//! intentional change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p factor --test golden_volumes -- --test-threads=1
//! git diff results/golden_volumes.json   # review, then commit
//! ```
//!
//! (Blessing rewrites the whole file per cell, so the cells must not run
//! concurrently.)

use dense::gen::{random_matrix, random_spd};
use factor::lu25d_swap::lu25d_swap;
use factor::{
    confchox_cholesky, confchox_cholesky_ft, conflux_lu, conflux_lu_ft, mmm25d, twod_cholesky,
    twod_lu, ConfchoxConfig, ConfluxConfig, FtConfig, Mmm25dConfig, TwodConfig,
};
use std::path::PathBuf;
use xharness::{check_golden, golden_mode};
use xmpi::{Grid2, Grid3};
use xtrace::invariants::check_stats_equal;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/golden_volumes.json")
}

/// The cells of the two 2.5D factorizations: the small `v = 8` block, and
/// `v = 32` — an inner dimension of 16 per layer, the width `auto` picks at
/// four times this `n`.
const CELLS: [(usize, usize); 2] = [(64, 8), (128, 32)];

#[test]
fn conflux_volume_is_golden() {
    for (n, v) in CELLS {
        let a = random_matrix(n, n, 101);
        let cfg = ConfluxConfig::new(n, v, Grid3::new(2, 2, 2)).volume_only();
        let out = conflux_lu(&cfg, &a).unwrap();
        let key = format!("conflux-n{n}-v{v}-g2x2x2");
        check_golden(&golden_path(), &key, &out.stats, golden_mode())
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn confchox_volume_is_golden() {
    for (n, v) in CELLS {
        let a = random_spd(n, 202);
        let cfg = ConfchoxConfig::new(n, v, Grid3::new(2, 2, 2)).volume_only();
        let out = confchox_cholesky(&cfg, &a).unwrap();
        let key = format!("confchox-n{n}-v{v}-g2x2x2");
        check_golden(&golden_path(), &key, &out.stats, golden_mode())
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn mmm25d_volume_is_golden() {
    let (n, v, grid) = (48usize, 4usize, Grid3::new(2, 2, 2));
    let a = random_matrix(n, n, 303);
    let b = random_matrix(n, n, 304);
    let cfg = Mmm25dConfig::new(n, v, grid).volume_only();
    let out = mmm25d(&cfg, &a, &b);
    check_golden(
        &golden_path(),
        "mmm25d-n48-v4-g2x2x2",
        &out.stats,
        golden_mode(),
    )
    .unwrap_or_else(|e| panic!("{e}"));
}

/// A flat (c = 1) grid pins the 2D-equivalent schedule too, so a
/// regression in the replication-specific paths (z-broadcast, layered
/// reduction) is distinguishable from one in the base schedule.
#[test]
fn conflux_flat_grid_volume_is_golden() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 1));
    let a = random_matrix(n, n, 101);
    let cfg = ConfluxConfig::new(n, v, grid).volume_only();
    let out = conflux_lu(&cfg, &a).unwrap();
    check_golden(
        &golden_path(),
        "conflux-n64-v8-g2x2x1",
        &out.stats,
        golden_mode(),
    )
    .unwrap_or_else(|e| panic!("{e}"));
}

/// The swap ablation and the 2D baselines are what COnfLUX is measured
/// *against*, so their traffic is pinned too: the row-swap messages of the
/// 2.5D swapping schedule (original row plus every layer's accumulator row)
/// and the classical 2D panel/row-swap/broadcast volumes.
#[test]
fn lu25d_swap_volume_is_golden() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let a = random_matrix(n, n, 101);
    let cfg = ConfluxConfig::new(n, v, grid).volume_only();
    let out = lu25d_swap(&cfg, &a).unwrap();
    check_golden(
        &golden_path(),
        "lu25d-swap-n64-v8-g2x2x2",
        &out.stats,
        golden_mode(),
    )
    .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn twod_volumes_are_golden() {
    let (n, nb, grid) = (64usize, 8usize, Grid2::new(2, 2));
    let cfg = TwodConfig::new(n, nb, grid).volume_only();
    let lu = twod_lu(&cfg, &random_matrix(n, n, 101)).unwrap();
    check_golden(
        &golden_path(),
        "twod-lu-n64-nb8-g2x2",
        &lu.stats,
        golden_mode(),
    )
    .unwrap_or_else(|e| panic!("{e}"));
    // The Cholesky cells include a non-square grid, whose process rows and
    // columns own different tile sets.
    for (n, grid) in [(64usize, grid), (96, Grid2::new(3, 2))] {
        let cfg = TwodConfig::new(n, nb, grid).volume_only();
        let chol = twod_cholesky(&cfg, &random_spd(n, 202)).unwrap();
        let key = format!("twod-chol-n{n}-nb{nb}-g{}x{}", grid.rows, grid.cols);
        check_golden(&golden_path(), &key, &chol.stats, golden_mode())
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// The two checksum settings of a fault-free FT cell, with the golden-key
/// suffix of each: checkpoint every step, so the `"ckpt"` ring traffic is
/// pinned along with the (augmented or plain) algorithmic bytes.
fn ft_cells(n: usize, v: usize, grid: Grid3) -> [(FtConfig, &'static str); 2] {
    [
        (FtConfig::new(n, v, grid), ""),
        (FtConfig::new(n, v, grid).no_checksums(), "-nock"),
    ]
}

/// Fault-free FT COnfLUX traffic, byte for byte: the wire size of every
/// checksummed transfer and of the checkpoint ring. Fault decisions of the
/// `XHARNESS_SEEDS` crash/corruption plans are keyed on per-channel message
/// sequence, so pinning the traffic also pins which transfer a seed hits.
#[test]
fn conflux_ft_volume_is_golden() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let a = random_matrix(n, n, 101);
    for (cfg, suffix) in ft_cells(n, v, grid) {
        let out = conflux_lu_ft(&cfg, &a).unwrap();
        assert_eq!(out.report.restarts, 0);
        check_golden(
            &golden_path(),
            &format!("conflux-ft-n64-v8-g2x2x2{suffix}"),
            &out.report.attempt_stats[0],
            golden_mode(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn confchox_ft_volume_is_golden() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let a = random_spd(n, 202);
    for (cfg, suffix) in ft_cells(n, v, grid) {
        let out = confchox_cholesky_ft(&cfg, &a).unwrap();
        assert_eq!(out.report.restarts, 0);
        check_golden(
            &golden_path(),
            &format!("confchox-ft-n64-v8-g2x2x2{suffix}"),
            &out.report.attempt_stats[0],
            golden_mode(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// "The guard off is the plain program": an FT run with checksums and
/// checkpoints both disabled moves exactly the plain driver's bytes, rank
/// by rank and phase by phase.
#[test]
fn ft_with_guard_and_checkpoints_off_moves_the_plain_bytes() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let off = FtConfig::new(n, v, grid).no_checksums().checkpoint_every(0);

    let a = random_matrix(n, n, 101);
    let plain = conflux_lu(&ConfluxConfig::new(n, v, grid), &a).unwrap();
    let ft = conflux_lu_ft(&off, &a).unwrap();
    let drift = check_stats_equal(&plain.stats, &ft.report.attempt_stats[0]);
    assert!(drift.is_empty(), "conflux: {drift:?}");

    let a = random_spd(n, 202);
    let plain = confchox_cholesky(&ConfchoxConfig::new(n, v, grid), &a).unwrap();
    let ft = confchox_cholesky_ft(&off, &a).unwrap();
    let drift = check_stats_equal(&plain.stats, &ft.report.attempt_stats[0]);
    assert!(drift.is_empty(), "confchox: {drift:?}");
}
