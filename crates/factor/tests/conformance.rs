//! Paper-conformance suite under adversarial schedule perturbation.
//!
//! Each factorization runs once unperturbed (the baseline) and then across
//! a matrix of perturbation seeds (`XHARNESS_SEEDS`, default `0..4` here;
//! CI's stress job sweeps 32). For every seed the schedule sees injected
//! message delays, dropped-then-retransmitted transmissions, completion
//! stalls, and phase skews — and must still produce:
//!
//! * **bitwise-identical factors** (and pivots) to the baseline — the
//!   schedules are deterministic dataflow programs; any timing sensitivity
//!   is a bug, not noise;
//! * **bitwise-identical per-rank and per-phase byte counts** — the paper's
//!   measured-volume methodology assumes traffic is a function of
//!   `(N, P, M)` only;
//! * **residuals below the `dense::norms` thresholds** — numerical quality
//!   must not depend on message timing;
//! * **measured per-rank volume between the `pebbles::bounds` lower bound
//!   and its `N³` term plus `O(N²/P)` slack** — near-optimality, measured.
//!
//! A perturbed *traced* run must additionally satisfy the
//! `xtrace::invariants` runtime contract, and — the negative control — a
//! deliberately injected unreceived send must be *caught* by that checker.

use dense::gen::{random_matrix, random_spd};
use dense::norms::{lu_residual, lu_residual_perm, po_residual};
use dense::Matrix;
use factor::lu25d_swap::lu25d_swap;
use factor::{
    confchox_cholesky, conflux_lu, mmm25d, twod_cholesky, twod_lu, ConfchoxConfig, ConfluxConfig,
    Mmm25dConfig, TwodConfig,
};
use pebbles::bounds::{cholesky_io_lower_bound, lu_io_lower_bound, mmm_io_lower_bound};
use xharness::{run_perturbed, seeds, PerturbConfig};
use xmpi::{Event, Grid2, Grid3, TraceConfig, WorldStats};
use xtrace::invariants::{check_stats_equal, check_trace, Violation};

/// Backward-error ceiling for the factorizations at these sizes: the
/// schedules are backward stable, so residuals sit at ~1e-15; 1e-12 leaves
/// three orders of headroom without admitting a real defect.
const RESIDUAL_TOL: f64 = 1e-12;

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

/// Average words (8-byte elements) transferred per rank: (sent+recv)/2/8.
fn words_per_rank(stats: &WorldStats) -> f64 {
    stats.avg_rank_bytes() / 16.0
}

/// Assert the measured volume is *near-optimal*: at or above the analytic
/// lower bound, and within the bound's `N³` term plus `slack_c · N²/P`
/// words (the paper's lower-order allowance — panel broadcasts, pivot
/// distribution, reductions all cost `O(N²/P·√(P/c))`-ish terms that a
/// small fixed grid cannot amortize).
fn assert_near_optimal(
    label: &str,
    measured: f64,
    lower: f64,
    n3_term: f64,
    n: usize,
    p: usize,
    slack_c: f64,
) {
    assert!(
        measured >= lower,
        "{label}: measured {measured:.0} words/rank below the lower bound {lower:.0}"
    );
    let slack = slack_c * (n * n) as f64 / p as f64;
    assert!(
        measured <= n3_term + slack,
        "{label}: measured {measured:.0} words/rank exceeds N³ term {n3_term:.0} + slack {slack:.0}"
    );
}

#[test]
fn conflux_conformance_over_seed_matrix() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let p = grid.size();
    let a = random_matrix(n, n, 101);
    let cfg = ConfluxConfig::new(n, v, grid);
    let base = conflux_lu(&cfg, &a).unwrap();

    // Numerical quality of the baseline.
    let resid = lu_residual_perm(&a, base.packed.as_ref().unwrap(), &base.perm);
    assert!(resid < RESIDUAL_TOL, "baseline residual {resid:e}");

    // Near-optimality of the measured volume (M = c·N²/P, c = pz = 2).
    let m = (grid.pz * n * n) as f64 / p as f64;
    let nf = n as f64;
    let n3_term = 2.0 * nf * nf * nf / (3.0 * p as f64 * m.sqrt());
    assert_near_optimal(
        "conflux",
        words_per_rank(&base.stats),
        lu_io_lower_bound(n, p, m),
        n3_term,
        n,
        p,
        30.0,
    );

    for seed in seeds(4) {
        let cfg_seed = PerturbConfig::aggressive(seed);
        let out = run_perturbed(&cfg_seed, || conflux_lu(&cfg, &a).unwrap());
        assert_eq!(out.perm, base.perm, "seed {seed}: pivots diverged");
        assert_bitwise_equal(
            out.packed.as_ref().unwrap(),
            base.packed.as_ref().unwrap(),
            &format!("conflux factor, seed {seed}"),
        );
        let drift = check_stats_equal(&base.stats, &out.stats);
        assert!(drift.is_empty(), "seed {seed}: traffic drifted: {drift:?}");
    }
}

/// The blocks `auto` raises above its floor (`n > 128·max(Px, Py)`: v = 32
/// and 48 here, inner dimension 16 and 24 per layer) under the same
/// contract: the residual holds, and neither factors nor traffic depend on
/// message timing.
#[test]
fn auto_blocks_above_the_floor_conform_over_seed_matrix() {
    let lu = ConfluxConfig::auto(512, 8);
    assert!(lu.v > 16, "auto(512, 8) stayed on the floor: v = {}", lu.v);
    let a = random_matrix(lu.n, lu.n, 303);
    let base = conflux_lu(&lu, &a).unwrap();
    let resid = lu_residual_perm(&a, base.packed.as_ref().unwrap(), &base.perm);
    assert!(resid < RESIDUAL_TOL, "conflux residual {resid:e}");

    let chol = ConfchoxConfig::auto(768, 8);
    assert!(
        chol.v > 16,
        "auto(768, 8) stayed on the floor: v = {}",
        chol.v
    );
    let spd = random_spd(chol.n, 404);
    let cbase = confchox_cholesky(&chol, &spd).unwrap();
    let resid = po_residual(&spd, cbase.l.as_ref().unwrap());
    assert!(resid < RESIDUAL_TOL, "confchox residual {resid:e}");

    for seed in seeds(4) {
        let cfg_seed = PerturbConfig::aggressive(seed);
        let out = run_perturbed(&cfg_seed, || conflux_lu(&lu, &a).unwrap());
        assert_eq!(out.perm, base.perm, "seed {seed}: pivots diverged");
        assert_bitwise_equal(
            out.packed.as_ref().unwrap(),
            base.packed.as_ref().unwrap(),
            &format!("conflux factor, seed {seed}"),
        );
        let drift = check_stats_equal(&base.stats, &out.stats);
        assert!(drift.is_empty(), "seed {seed}: traffic drifted: {drift:?}");

        let out = run_perturbed(&cfg_seed, || confchox_cholesky(&chol, &spd).unwrap());
        assert_bitwise_equal(
            out.l.as_ref().unwrap(),
            cbase.l.as_ref().unwrap(),
            &format!("confchox factor, seed {seed}"),
        );
        let drift = check_stats_equal(&cbase.stats, &out.stats);
        assert!(drift.is_empty(), "seed {seed}: traffic drifted: {drift:?}");
    }
}

#[test]
fn confchox_conformance_over_seed_matrix() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let p = grid.size();
    let a = random_spd(n, 202);
    let cfg = ConfchoxConfig::new(n, v, grid);
    let base = confchox_cholesky(&cfg, &a).unwrap();

    let resid = po_residual(&a, base.l.as_ref().unwrap());
    assert!(resid < RESIDUAL_TOL, "baseline residual {resid:e}");

    let m = (grid.pz * n * n) as f64 / p as f64;
    let nf = n as f64;
    let n3_term = nf * nf * nf / (3.0 * p as f64 * m.sqrt());
    assert_near_optimal(
        "confchox",
        words_per_rank(&base.stats),
        cholesky_io_lower_bound(n, p, m),
        n3_term,
        n,
        p,
        30.0,
    );

    for seed in seeds(4) {
        let cfg_seed = PerturbConfig::aggressive(seed);
        let out = run_perturbed(&cfg_seed, || confchox_cholesky(&cfg, &a).unwrap());
        assert_bitwise_equal(
            out.l.as_ref().unwrap(),
            base.l.as_ref().unwrap(),
            &format!("confchox factor, seed {seed}"),
        );
        let drift = check_stats_equal(&base.stats, &out.stats);
        assert!(drift.is_empty(), "seed {seed}: traffic drifted: {drift:?}");
    }
}

#[test]
fn mmm25d_conformance_over_seed_matrix() {
    let (n, v, grid) = (48usize, 4usize, Grid3::new(2, 2, 2));
    let p = grid.size();
    let a = random_matrix(n, n, 303);
    let b = random_matrix(n, n, 304);
    let cfg = Mmm25dConfig::new(n, v, grid);
    let base = mmm25d(&cfg, &a, &b);

    // The distributed product must match a dense reference multiply to
    // rounding (the summation orders differ, so not bitwise vs dense —
    // bitwise identity is asserted *across seeds* below).
    let mut reference = Matrix::zeros(n, n);
    dense::gemm::gemm(
        dense::gemm::Trans::N,
        dense::gemm::Trans::N,
        1.0,
        a.as_ref(),
        b.as_ref(),
        0.0,
        reference.as_mut(),
    );
    let diff = dense::norms::max_abs_diff(base.c.as_ref().unwrap(), &reference);
    let scale = dense::norms::max_abs(&reference).max(1.0);
    assert!(diff / scale < RESIDUAL_TOL, "product off by {diff:e}");

    // MMM's working set is A, B, C shares plus broadcast buffers — the
    // repo-wide convention is M = 3cN²/P (see `examples/matmul_25d.rs`),
    // unlike the factorizations' single-matrix M = cN²/P.
    let m = 3.0 * (grid.pz * n * n) as f64 / p as f64;
    let nf = n as f64;
    // The MMM bound is all N³ term: 2N³/(P√M).
    let n3_term = 2.0 * nf * nf * nf / (p as f64 * m.sqrt());
    assert_near_optimal(
        "mmm25d",
        words_per_rank(&base.stats),
        mmm_io_lower_bound(n, p, m),
        n3_term,
        n,
        p,
        30.0,
    );

    for seed in seeds(4) {
        let cfg_seed = PerturbConfig::aggressive(seed);
        let out = run_perturbed(&cfg_seed, || mmm25d(&cfg, &a, &b));
        assert_bitwise_equal(
            out.c.as_ref().unwrap(),
            base.c.as_ref().unwrap(),
            &format!("mmm25d product, seed {seed}"),
        );
        let drift = check_stats_equal(&base.stats, &out.stats);
        assert!(drift.is_empty(), "seed {seed}: traffic drifted: {drift:?}");
    }
}

/// The swap ablation (paper §7.3) under the same seed matrix: explicit row
/// exchanges are point-to-point traffic the masking schedule never issues,
/// so their timing independence is checked separately.
#[test]
fn lu25d_swap_conformance_over_seed_matrix() {
    let (n, v, grid) = (64usize, 8usize, Grid3::new(2, 2, 2));
    let a = random_matrix(n, n, 101);
    let cfg = ConfluxConfig::new(n, v, grid);
    let base = lu25d_swap(&cfg, &a).unwrap();
    let resid = lu_residual_perm(&a, base.packed.as_ref().unwrap(), &base.perm);
    assert!(resid < RESIDUAL_TOL, "baseline residual {resid:e}");

    for seed in seeds(4) {
        let cfg_seed = PerturbConfig::aggressive(seed);
        let out = run_perturbed(&cfg_seed, || lu25d_swap(&cfg, &a).unwrap());
        assert_eq!(out.perm, base.perm, "seed {seed}: pivots diverged");
        assert_bitwise_equal(
            out.packed.as_ref().unwrap(),
            base.packed.as_ref().unwrap(),
            &format!("lu25d_swap factor, seed {seed}"),
        );
        let drift = check_stats_equal(&base.stats, &out.stats);
        assert!(drift.is_empty(), "seed {seed}: traffic drifted: {drift:?}");
    }
}

/// The 2D baselines (the paper's MKL / SLATE stand-ins, §9) under the seed
/// matrix: the comparison COnfLUX is evaluated against must itself be a
/// deterministic function of `(N, nb, grid)`.
#[test]
fn twod_conformance_over_seed_matrix() {
    let (n, nb, grid) = (64usize, 8usize, Grid2::new(2, 2));
    let cfg = TwodConfig::new(n, nb, grid);
    let a = random_matrix(n, n, 101);
    let spd = random_spd(n, 202);
    let lu = twod_lu(&cfg, &a).unwrap();
    let chol = twod_cholesky(&cfg, &spd).unwrap();
    let resid = lu_residual(&a, lu.packed.as_ref().unwrap(), &lu.ipiv);
    assert!(resid < RESIDUAL_TOL, "baseline LU residual {resid:e}");
    let resid = po_residual(&spd, chol.l.as_ref().unwrap());
    assert!(resid < RESIDUAL_TOL, "baseline Cholesky residual {resid:e}");

    for seed in seeds(4) {
        let cfg_seed = PerturbConfig::aggressive(seed);
        let (lu_s, chol_s) = run_perturbed(&cfg_seed, || {
            (
                twod_lu(&cfg, &a).unwrap(),
                twod_cholesky(&cfg, &spd).unwrap(),
            )
        });
        assert_eq!(lu_s.ipiv, lu.ipiv, "seed {seed}: pivots diverged");
        assert_bitwise_equal(
            lu_s.packed.as_ref().unwrap(),
            lu.packed.as_ref().unwrap(),
            &format!("twod_lu factor, seed {seed}"),
        );
        assert_bitwise_equal(
            chol_s.l.as_ref().unwrap(),
            chol.l.as_ref().unwrap(),
            &format!("twod_cholesky factor, seed {seed}"),
        );
        for (what, base, out) in [
            ("lu", &lu.stats, &lu_s.stats),
            ("cholesky", &chol.stats, &chol_s.stats),
        ] {
            let drift = check_stats_equal(base, out);
            assert!(
                drift.is_empty(),
                "seed {seed}: {what} traffic drifted: {drift:?}"
            );
        }
    }
}

/// The factor a world assembles — every entry read out of the store row of
/// the rank that wrote it — against a dense
/// reference, on one rank, a flat grid and a replicated one: COnfLUX against
/// the unpivoted textbook elimination of the row-permuted input, COnfCHOX
/// against `dense::potrf`.
#[test]
fn assembled_factors_equal_a_dense_reference() {
    let (n, v) = (32, 4);
    let (a, spd) = (random_matrix(n, n, 7), random_spd(n, 8));
    for grid in [[1, 1, 1], [2, 2, 1], [2, 2, 2]].map(|[x, y, z]| Grid3::new(x, y, z)) {
        let lu = conflux_lu(&ConfluxConfig::new(n, v, grid), &a).unwrap();
        let mut want = Matrix::from_fn(n, n, |i, j| a[(lu.perm[i], j)]);
        for k in 0..n {
            for i in k + 1..n {
                want[(i, k)] /= want[(k, k)];
                for j in k + 1..n {
                    let u = want[(k, j)];
                    want[(i, j)] -= want[(i, k)] * u;
                }
            }
        }
        let diff = dense::norms::max_abs_diff(lu.packed.as_ref().unwrap(), &want);
        assert!(diff < 1e-10, "LU on {grid:?}: off by {diff:e}");

        let chol = confchox_cholesky(&ConfchoxConfig::new(n, v, grid), &spd).unwrap();
        let mut want = spd.clone();
        dense::potrf::potrf(&mut want, 8).unwrap();
        for i in 0..n {
            want.row_mut(i)[i + 1..].fill(0.0);
        }
        let diff = dense::norms::max_abs_diff(chol.l.as_ref().unwrap(), &want);
        assert!(diff < 1e-10, "Cholesky on {grid:?}: off by {diff:e}");
    }
}

/// FNV-1a over whole words of an index vector and a matrix's bit patterns.
fn digest(index: &[usize], m: &Matrix) -> u64 {
    let index = index.iter().map(|&i| i as u64);
    let bits = m.data().iter().map(|x| x.to_bits());
    index.chain(bits).fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The schedules outside the benchmark's one-shot digests are pinned here:
/// pivots plus factor bits of fixed runs. `twod_*` and `mmm25d` were recorded
/// from the commit before their stores became dense local matrices;
/// `lu25d_swap 2x2x2` from the commit that made layer 0 update its copy of
/// `A` in place (`((a − p₁) − p₂) − …` where it used to form
/// `a − (p₁ + p₂ + …)`), and its other grids at cc38afc, the last commit
/// with a step loop of its own; `conflux_lu` and `confchox` from 1321fe9,
/// the commit before the packed engine was reshaped for the rank-32 update —
/// except the `1x2x2` grid (a one-rank panel group fed by a z-reduction),
/// recorded at 9ea4a67, before one-player tournaments kept their
/// elimination.
///
/// With one process row (`1x1x1`, `1x2x2`) every pivot row already lives on
/// the panel's process row, so masking and swapping give the same factor:
/// there the swap digests equal `conflux_lu`'s own pins.
/// A storage or collection change must reproduce them exactly — it may move
/// no flop and reorder no sum.
#[test]
fn baseline_and_ablation_factors_are_bit_pinned() {
    let a = random_matrix(64, 64, 101);
    let spd = random_spd(64, 202);

    let twod = TwodConfig::new(64, 8, Grid2::new(2, 2));
    let lu = twod_lu(&twod, &a).unwrap();
    let chol = twod_cholesky(&twod, &spd).unwrap();
    let (ma, mb) = (random_matrix(48, 48, 303), random_matrix(48, 48, 304));
    let mmm = mmm25d(&Mmm25dConfig::new(48, 4, Grid3::new(2, 2, 2)), &ma, &mb);

    let mut got = vec![
        ("twod_lu", digest(&lu.ipiv, &lu.packed.unwrap())),
        ("twod_cholesky", digest(&[], &chol.l.unwrap())),
        ("mmm25d", digest(&[], &mmm.c.unwrap())),
    ];
    // The 2D LU on a single rank, a process row, a process column and
    // both non-square grids. Every element sees the same operations in the
    // same order on any grid, so all of them reproduce the 2x2 pin.
    for (name, grid) in [
        ("twod_lu 1x1", Grid2::new(1, 1)),
        ("twod_lu 1x4", Grid2::new(1, 4)),
        ("twod_lu 4x1", Grid2::new(4, 1)),
        ("twod_lu 2x3", Grid2::new(2, 3)),
        ("twod_lu 3x2", Grid2::new(3, 2)),
    ] {
        let lu = twod_lu(&TwodConfig::new(64, 8, grid), &a).unwrap();
        got.push((name, digest(&lu.ipiv, &lu.packed.unwrap())));
    }
    // The swap ablation on every grid shape.
    for (name, grid) in [
        ("lu25d_swap 2x2x2", Grid3::new(2, 2, 2)),
        ("lu25d_swap 1x1x1", Grid3::new(1, 1, 1)),
        ("lu25d_swap 1x2x2", Grid3::new(1, 2, 2)),
        ("lu25d_swap 2x2x1", Grid3::new(2, 2, 1)),
    ] {
        let swap = lu25d_swap(&ConfluxConfig::new(64, 8, grid), &a).unwrap();
        got.push((name, digest(&swap.perm, &swap.packed.unwrap())));
    }
    // COnfLUX and COnfCHOX on the replicated and the one-rank grid.
    for (lu_name, chol_name, grid) in [
        ("conflux_lu 2x2x2", "confchox 2x2x2", Grid3::new(2, 2, 2)),
        ("conflux_lu 1x1x1", "confchox 1x1x1", Grid3::new(1, 1, 1)),
        ("conflux_lu 1x2x2", "confchox 1x2x2", Grid3::new(1, 2, 2)),
    ] {
        let lu = conflux_lu(&ConfluxConfig::new(64, 8, grid), &a).unwrap();
        got.push((lu_name, digest(&lu.perm, &lu.packed.unwrap())));
        let chol = confchox_cholesky(&ConfchoxConfig::new(64, 8, grid), &spd).unwrap();
        got.push((chol_name, digest(&[], &chol.l.unwrap())));
    }
    let want = [
        ("twod_lu", 0xd9e3_5769_53e3_8be4_u64),
        ("twod_cholesky", 0xbe49_69ef_b881_a049),
        ("mmm25d", 0xd6e7_f309_1aec_da1d),
        ("twod_lu 1x1", 0xd9e3_5769_53e3_8be4),
        ("twod_lu 1x4", 0xd9e3_5769_53e3_8be4),
        ("twod_lu 4x1", 0xd9e3_5769_53e3_8be4),
        ("twod_lu 2x3", 0xd9e3_5769_53e3_8be4),
        ("twod_lu 3x2", 0xd9e3_5769_53e3_8be4),
        ("lu25d_swap 2x2x2", 0x6169_2f48_6f59_42d1),
        ("lu25d_swap 1x1x1", 0x20fa_6292_44d1_c037),
        ("lu25d_swap 1x2x2", 0xce16_60f4_b957_a277),
        ("lu25d_swap 2x2x1", 0x6c35_33b6_f466_6d05),
        ("conflux_lu 2x2x2", 0xf0b4_3c56_3452_4941),
        ("confchox 2x2x2", 0xdc7c_f302_a49b_12a2),
        ("conflux_lu 1x1x1", 0x20fa_6292_44d1_c037),
        ("confchox 1x1x1", 0xbe49_69ef_b881_a049),
        ("conflux_lu 1x2x2", 0xce16_60f4_b957_a277),
        ("confchox 1x2x2", 0xdc7c_f302_a49b_12a2),
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}

/// With one process row (`Px = 1`) the pivot rows' `A00` and `U01` stay in
/// the store of the rank that computed them and a one-rank world's store is
/// the assembled factor (every grid now keeps them in store rows; these
/// were the first).
/// Pivots plus factor bits on such grids — one rank, a flat row, a
/// replicated rank, a replicated row — recorded at ba4ea73, when these
/// grids still collected: where the factor lives may move no bit. Masking
/// and swapping agree on every one of them.
#[test]
fn one_process_row_factors_are_bit_pinned() {
    let a = random_matrix(96, 96, 105);
    let mut got = Vec::new();
    for [x, y, z] in [[1, 1, 1], [1, 2, 1], [1, 1, 2], [1, 3, 2]] {
        let cfg = ConfluxConfig::new(96, 8, Grid3::new(x, y, z));
        let lu = conflux_lu(&cfg, &a).unwrap();
        let swap = lu25d_swap(&cfg, &a).unwrap();
        let (lu, swap) = (
            digest(&lu.perm, &lu.packed.unwrap()),
            digest(&swap.perm, &swap.packed.unwrap()),
        );
        got.push((format!("{x}x{y}x{z}"), lu, swap));
    }
    // One layer sums each update in one order, two layers in another.
    let (flat, replicated) = (0x30aa_4802_61a1_1c99_u64, 0xa290_93e2_fa73_4882_u64);
    let want = [
        ("1x1x1", flat),
        ("1x2x1", flat),
        ("1x1x2", replicated),
        ("1x3x2", replicated),
    ]
    .map(|(grid, d)| (grid.to_string(), d, d));
    assert_eq!(got, want, "got {got:#018x?}");
}

/// The three kernels' worlds, traced under the aggressive perturbation
/// preset for `seed`: one trace per kernel world.
fn perturbed_kernel_traces(seed: u64) -> Vec<xmpi::WorldTrace> {
    let grid = Grid3::new(2, 2, 2);
    let a = random_matrix(48, 48, 404);
    let spd = random_spd(48, 405);
    let cfg_seed = PerturbConfig::aggressive(seed);
    let (_, traces) = xmpi::trace::capture(TraceConfig::default(), || {
        run_perturbed(&cfg_seed, || {
            conflux_lu(&ConfluxConfig::new(48, 8, grid), &a).unwrap();
            confchox_cholesky(&ConfchoxConfig::new(48, 8, grid), &spd).unwrap();
            mmm25d(&Mmm25dConfig::new(48, 4, grid), &a, &a);
        })
    });
    assert_eq!(traces.len(), 3, "one trace per kernel world");
    traces
}

/// Fault-injected *traced* runs must uphold the runtime contract: every
/// byte conserved per channel, every posted receive completed, every
/// collective bracketed — for all three kernels.
#[test]
fn perturbed_traces_uphold_runtime_invariants() {
    for seed in seeds(2) {
        for (i, trace) in perturbed_kernel_traces(seed).iter().enumerate() {
            let report = check_trace(trace);
            assert!(
                report.is_clean(),
                "seed {seed}, world {i}: {:?} (truncated: {})",
                report.violations,
                report.truncated
            );
        }
    }
}

/// Receives block, so on every rank each `RecvDone` immediately follows the
/// `RecvPost` of the same `(peer, ctx, tag)` — the premise `xtrace`'s
/// timeline and critical path pair receives by.
#[test]
fn perturbed_traces_pair_each_receive_with_its_post() {
    for seed in seeds(2) {
        for (i, trace) in perturbed_kernel_traces(seed).iter().enumerate() {
            assert!(!trace.truncated(), "seed {seed}, world {i}: truncated");
            let mut done = 0;
            for (rank, rt) in trace.ranks.iter().enumerate() {
                for (k, e) in rt.events.iter().enumerate() {
                    let Event::RecvDone { peer, ctx, tag, .. } = *e else {
                        continue;
                    };
                    let prev = k.checked_sub(1).map(|j| rt.events[j]);
                    assert!(
                        matches!(prev, Some(Event::RecvPost { peer: p, ctx: c, tag: g, .. })
                            if (p, c, g) == (peer, ctx, tag)),
                        "seed {seed}, world {i}, rank {rank}: event {k} {e:?} follows {prev:?}"
                    );
                    done += 1;
                }
            }
            assert!(done > 0, "seed {seed}, world {i}: no receives");
        }
    }
}

/// Negative control: a blocking pipeline with a deliberately injected bug —
/// the sender ships a panel one step too far, and nobody receives it — must
/// be *caught* by the invariant checker as a byte leak on exactly that
/// channel. If this test ever fails, the checker has gone blind.
#[test]
fn invariant_checker_catches_injected_unreceived_panel() {
    fn pipeline(buggy: bool) -> Vec<xmpi::WorldTrace> {
        let (_, traces) = xmpi::trace::capture(TraceConfig::default(), || {
            xmpi::run(2, |c| {
                let steps = 4u64;
                if c.rank() == 0 {
                    // Injected bug: one panel past the last step.
                    let sent = if buggy { steps + 1 } else { steps };
                    for s in 0..sent {
                        c.send_f64(1, s, &[s as f64; 8]);
                    }
                } else {
                    for s in 0..steps {
                        let panel = c.recv_f64(0, s);
                        assert_eq!(panel[0], s as f64);
                    }
                }
            });
        });
        traces
    }

    // The correct pipeline is clean…
    let clean = pipeline(false);
    check_trace(&clean[0]).assert_clean();

    // …and the buggy one is flagged with the exact channel.
    let buggy = pipeline(true);
    let report = check_trace(&buggy[0]);
    assert!(
        matches!(
            report.violations[..],
            [Violation::ByteLeak {
                src: 0,
                dst: 1,
                tag: 4,
                sent: 64,
                received: 0,
                ..
            }]
        ),
        "unreceived panel not caught; violations: {:?}",
        report.violations
    );
}
