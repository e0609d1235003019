//! **COnfCHOX** — near-communication-optimal 2.5D Cholesky factorization
//! (paper §7.5).
//!
//! Same skeleton as COnfLUX — tile-cyclic 2.5D decomposition, one store per
//! rank updated in place by layer-local partial Schur updates, z-fibre
//! reductions when a panel is needed — minus pivoting (SPD input), plus
//! symmetry: only lower-triangular tiles are stored and updated, the
//! trailing update uses `L10` in *two roles* (as the left operand by tile
//! row and, transposed, as the right operand by tile column), and diagonal
//! tiles use `gemmt`. This realizes Table 1 of the paper: Cholesky moves the
//! same volume as LU while doing half the flops.
//!
//! The factor never leaves the stores: the diagonal owner writes `L00`, and
//! every panel rank its rows of `L10`, back into tile column `t` — dead
//! since its reduction — so after the last step a layer-0 store *is* the
//! rank's part of `L`, and nothing is collected on the side. As in
//! [`crate::conflux`], every broadcast blocks where it is issued.

use crate::common::{
    bcast_status, check_shape, phase, phase_end, pick_grid_and_block, reduce_rows, shift_err,
    split_results, stage_from_global, Collected, Net, RankResult, State, TileStore, Tiling,
};
use crate::conflux::scatter_z;
use crate::ft::{Guard, StepEnd};
use dense::gemm::{gemm_prepacked, gemmt, CUplo, Trans};
use dense::potrf::potrf_unblocked;
use dense::trsm::Uplo;
use dense::{Error, MatRef, Matrix, PackedB};
use xmpi::{Buf, Comm, Grid3, WorldStats};

const TAG_L10ROW: u64 = 6_000_000;

/// Configuration of a COnfCHOX run.
#[derive(Debug, Clone)]
pub struct ConfchoxConfig {
    /// Matrix dimension (must be divisible by `v`).
    pub n: usize,
    /// Block size `v` (must be a multiple of `grid.pz`).
    pub v: usize,
    /// Processor grid `[Px, Py, Pz]`.
    pub grid: Grid3,
    /// Collect factor entries so the host can assemble `L`.
    pub collect: bool,
}

impl ConfchoxConfig {
    /// Validated constructor.
    ///
    /// # Panics
    /// If `v` does not divide `n` or `pz` does not divide `v`.
    pub fn new(n: usize, v: usize, grid: Grid3) -> Self {
        let _ = Tiling::new(n, v, grid);
        ConfchoxConfig {
            n,
            v,
            grid,
            collect: true,
        }
    }

    /// Automatic grid and block-size selection: the grid and the
    /// block-size rule of [`ConfluxConfig::auto`](crate::ConfluxConfig::auto).
    ///
    /// # Panics
    /// If no valid block size exists for the chosen grid.
    pub fn auto(n: usize, p: usize) -> Self {
        let (grid, v) = pick_grid_and_block(n, p);
        ConfchoxConfig::new(n, v, grid)
    }

    /// Disable factor collection (volume-only runs).
    pub fn volume_only(mut self) -> Self {
        self.collect = false;
        self
    }
}

/// Result of a COnfCHOX factorization.
#[derive(Debug)]
pub struct CholOutput {
    /// The Cholesky factor: `A = L·Lᵀ`, `L` in the lower triangle (zeros
    /// above). `None` when collection is disabled.
    pub l: Option<Matrix>,
    /// Measured communication statistics.
    pub stats: WorldStats,
}

/// Factor the SPD matrix `a` with COnfCHOX on the simulated machine.
///
/// Only the lower triangle of `a` is read.
///
/// # Errors
/// [`Error::ShapeMismatch`] if `a` is not `n × n`;
/// [`Error::NotPositiveDefinite`] if a diagonal block fails to factor.
pub fn confchox_cholesky(cfg: &ConfchoxConfig, a: &Matrix) -> Result<CholOutput, Error> {
    check_shape(a, cfg.n)?;
    let til = Tiling::new(cfg.n, cfg.v, cfg.grid);
    let out = xmpi::run(cfg.grid.size(), |comm| {
        let fresh = State::fresh(stage_from_global(comm, &til, a, true));
        rank_program(comm, cfg, &mut Guard::new(false), fresh, None)
    });
    let (parts, identity) = split_results(out.results)?;
    let l = cfg
        .collect
        .then(|| Collected::assemble(cfg.n, cfg.v, &identity, &parts));
    Ok(CholOutput {
        l,
        stats: out.stats,
    })
}

/// The SPMD program one rank executes — the only implementation of the
/// schedule. `state.store` is this rank's share, a lower-only store:
/// layer 0's lower-triangular tiles of `A`, zeros above it. `guard`,
/// `state` and `at_step_end` are the two seams of [`crate::conflux`]'s rank
/// program (`state.perm` and `state.collected` stay empty: no pivoting, and
/// the factor stays in the stores). Returns what the rank hands home — the
/// part of `L` its store holds (layer 0 of a collecting run), no pieces —
/// and the factor's row order, the matrix's own.
pub(crate) fn rank_program(
    comm: &Comm,
    cfg: &ConfchoxConfig,
    guard: &mut Guard,
    mut state: State,
    at_step_end: Option<StepEnd<'_>>,
) -> RankResult {
    let g = cfg.grid;
    let til = Tiling::new(cfg.n, cfg.v, g);
    let (pi, pj, pk) = g.coords(comm.rank());
    let (v, nt, ks) = (cfg.v, til.nt, til.kslice());

    let net = Net::new(comm, til);
    // The reduced panel column — the one `O(n·v)` step buffer, reserved
    // once: the diagonal tile first where this rank owns it, then the
    // trailing rows, which the panel solve turns into `L10` in place.
    let mut panel = Vec::with_capacity(til.tile_rows_of(pi).len() * v * v);
    // The step's transposed update operand `L10ᵀ`, packed once per step and
    // shared by every owned tile row's product; its storage is reused.
    let mut l10t = PackedB::new();

    for step in state.step..nt {
        let jt = step % g.py;
        let it = step % g.px;
        let last = step + 1 == nt;

        // Trailing tile rows this process row owns (strictly below the
        // diagonal block) and trailing tile columns this process column owns.
        let trail_rows = til.tiles_after(step, pi, g.px);
        let col_role_tiles = til.tiles_after(step, pj, g.py);

        // ---- 1–2. Reduce column `step`, factor + broadcast L00 ---------
        let (l00, err) = form_panel(&net, guard, &mut state.store, step, &mut panel);
        bcast_status(comm, g.rank_of(it, jt, 0), err, Error::NotPositiveDefinite)?;
        let l00_flat = if pj == jt && pk == 0 {
            // Broadcast L00 within the panel group (column `jt`).
            guard.bcast(net.panel.as_ref().unwrap(), it, l00, v, v)
        } else {
            Buf::from(l00)
        };

        // ---- 3. Panel solve: L10 = A10·L00⁻ᵀ ---------------------------
        phase(comm, "panel_trsm");
        let n_row = trail_rows.len() * v;
        let mut l10: &[f64] = &[];
        if pj == jt && pk == 0 && !trail_rows.is_empty() {
            // The trailing rows follow the diagonal tile in the panel buffer.
            let solved = &mut panel[if it == pi { v * v } else { 0 }..];
            let l00 = MatRef::from_slice(&l00_flat[..v * v], v, v, v);
            let (tri, below) = ((Uplo::Lower, Trans::T), state.store.rows_from(step + 1));
            state.store.solve_l10(tri, l00, solved, step, below);
            l10 = solved;
        }

        if last {
            continue;
        }

        // ---- 4a. Distribute L10, row role (by tile row, z-sliced) ------
        phase(comm, "scatter_panels");
        let mut l10_row_flat = Buf::from(Vec::new());
        if !trail_rows.is_empty() {
            // The broadcast keeps the tree's shared storage: the update
            // below reads it through a borrowed view.
            let tag = TAG_L10ROW + step as u64;
            l10_row_flat = scatter_z(&net, guard, (&net.yrow, jt), tag, (n_row, ks), |k| {
                MatRef::from_slice(l10, n_row, v, v).block(0, k * ks, n_row, ks)
            });
        }
        let l10_row = MatRef::from_slice(&l10_row_flat[..n_row * ks], n_row, ks, ks);

        // ---- 4b. Distribute L10, column role (by tile column) ----------
        // The row-role broadcast already placed, on every rank of the
        // x-fibre (·, pj, pk), the k-slice of the panel rows whose tiles
        // match its pi; the union over the fibre covers every tile row. One
        // x-allgather of the `≡ pj (mod py)` subset of those rows therefore
        // assembles the transposed operand with no extra hop.
        let any_col_tiles = !col_role_tiles.is_empty();
        let mut l10_col = Matrix::zeros(col_role_tiles.len() * v, ks);
        if any_col_tiles {
            // A tile's `v` rows of `ks` values are contiguous in both operands.
            let tile = v * ks;
            let mut piece: Vec<f64> = Vec::new();
            for (bi, _) in (0..).zip(&trail_rows).filter(|(_, &ti)| ti % g.py == pj) {
                piece.extend_from_slice(&l10_row_flat[bi * tile..(bi + 1) * tile]);
            }
            // Group `grp` of the x-fibre contributes its trailing tiles that
            // also match this process column, `v` rows each.
            let from = |grp: usize| col_role_tiles.iter().filter(move |&&ti| ti % g.px == grp);
            let pieces = guard.allgather(&net.xcol, &piece, ks, |grp| from(grp).count() * v);
            // Reassemble the tiles in ascending order, each from its group.
            let mut tiles_of: Vec<_> = pieces.iter().map(|p| p.chunks_exact(tile)).collect();
            let dsts = l10_col.data_mut().chunks_exact_mut(tile);
            for (dst, &ti) in dsts.zip(&col_role_tiles) {
                dst.copy_from_slice(tiles_of[ti % g.px].next().expect("a tile per group turn"));
            }
        }

        // ---- 5. Trailing symmetric update (lower tiles only) -----------
        // Per owned trailing tile row: one product against the step's packed
        // `L10ᵀ` for every owned tile strictly left of the diagonal —
        // adjacent local columns of the store, updated in place through one
        // strided view — and `gemmt` on the diagonal tile if this rank owns
        // it.
        l10t.pack(Trans::T, l10_col.as_ref());
        phase(comm, "update_a11");
        for (bi, &ti) in trail_rows.iter().enumerate() {
            let rowblk = l10_row.block(bi * v, 0, v, ks);
            // Owned tile columns left of the diagonal, then on it.
            let diag = col_role_tiles.partition_point(|&tj| tj < ti);
            if diag > 0 {
                let tjs = col_role_tiles[0]..col_role_tiles[diag - 1] + 1;
                let row = state.store.tile_row_mut(ti, tjs);
                gemm_prepacked(-1.0, rowblk, &l10t, 0..diag * v, row);
            }
            if col_role_tiles.get(diag) == Some(&ti) {
                gemmt(
                    CUplo::Lower,
                    Trans::N,
                    Trans::T,
                    -1.0,
                    rowblk,
                    l10_col.block(diag * v, 0, v, ks),
                    1.0,
                    state.store.tile_mut(ti, ti),
                );
            }
        }

        // ---- Step boundary (never reached by the last step) -----------
        state.step = step + 1;
        if let Some(at_step_end) = at_step_end {
            at_step_end(&state, guard);
        }
    }

    phase_end(comm);
    // A row's `L` entries are the store's columns up to its diagonal.
    let lower = (cfg.collect && pk == 0).then(|| state.store.into_lower(|r| r + 1));
    let part = (lower.unwrap_or_default(), state.collected);
    Ok((part, (0..cfg.n).collect()))
}

/// Steps 1–2a for block step `step`: z-reduce the diagonal and trailing
/// rows of tile column `step` onto layer 0 — into `panel`, the diagonal tile
/// first where this rank owns it — then factor the diagonal block on its
/// owner, which keeps `L00` in its store. Returns `L00` and the kernel's
/// error; the caller broadcasts the status word and `L00`.
fn form_panel(
    net: &Net<'_>,
    guard: &mut Guard,
    store: &mut TileStore,
    step: usize,
    panel: &mut Vec<f64>,
) -> (Vec<f64>, Option<Error>) {
    let (comm, g, v) = (net.comm, net.til.grid, net.til.v);
    let (pi, pj, pk) = g.coords(comm.rank());
    let jt = step % g.py;
    let it = step % g.px;

    // ---- 1. Reduce block column `step` (rows ≥ step·v) -----------------
    phase(comm, "reduce_col");
    if pj == jt {
        // The owned tile rows ≥ step — the diagonal tile first, if it is
        // this rank's — are a suffix of the local rows.
        let (rows, c0) = (store.rows_from(step), store.col0(step));
        reduce_rows(net, guard, store, rows, c0..c0 + v, panel);
    }

    // ---- 2a. Factor the diagonal block on its owner --------------------
    phase(comm, "potrf_bcast");
    if pj != jt || pk != 0 || pi != it {
        return (Vec::new(), None);
    }
    let mut d = Matrix::from_vec(v, v, panel[..v * v].to_vec());
    let err = potrf_unblocked(d.as_mut()).err();
    // The dead diagonal tile takes `d` whole: only the lower triangle is
    // factor data, and only that is ever read back.
    store.tile_mut(step, step).copy_from(d.as_ref());
    (d.into_vec(), err.map(|e| shift_err(e, step * v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen::random_spd;
    use dense::norms::po_residual;

    fn check(n: usize, v: usize, grid: Grid3, seed: u64) {
        let a = random_spd(n, seed);
        let cfg = ConfchoxConfig::new(n, v, grid);
        let out = confchox_cholesky(&cfg, &a).unwrap();
        let res = po_residual(&a, out.l.as_ref().unwrap());
        assert!(res < 1e-10, "residual {res} for n={n} v={v} grid={grid:?}");
    }

    #[test]
    fn single_rank_equals_sequential_cholesky() {
        check(16, 4, Grid3::new(1, 1, 1), 1);
    }

    #[test]
    fn two_d_grids() {
        check(24, 4, Grid3::new(2, 2, 1), 2);
        check(24, 4, Grid3::new(2, 3, 1), 3);
        check(32, 8, Grid3::new(4, 2, 1), 4);
    }

    #[test]
    fn replicated_grids() {
        check(24, 4, Grid3::new(2, 2, 2), 5);
        check(32, 4, Grid3::new(2, 2, 4), 6);
        check(48, 6, Grid3::new(3, 2, 2), 7);
    }

    #[test]
    fn uneven_grids_and_single_tiles() {
        check(16, 4, Grid3::new(4, 4, 1), 8);
        check(8, 4, Grid3::new(4, 4, 1), 9);
        check(36, 6, Grid3::new(3, 3, 3), 10);
    }

    #[test]
    fn indefinite_matrix_reports_error() {
        // Indefinite in step 2's diagonal block, whose owner is rank 0 and
        // reports the row; then in step 1's, on a replicated grid, where the
        // status broadcast stops every rank and carries the row to rank 0,
        // which does not own the block.
        let mut a = random_spd(16, 11);
        a[(9, 9)] = -50.0;
        let mut late = random_spd(32, 34);
        late[(10, 10)] = -100.0;
        for (a, cfg, at) in [
            (a, ConfchoxConfig::new(16, 4, Grid3::new(2, 2, 1)), 9),
            (late, ConfchoxConfig::new(32, 8, Grid3::new(2, 2, 2)), 10),
        ] {
            match confchox_cholesky(&cfg, &a) {
                Err(Error::NotPositiveDefinite(k)) if k == at => {}
                other => panic!("expected NotPositiveDefinite({at}), got {other:?}"),
            }
        }
    }

    #[test]
    fn indefinite_block_aborts_cleanly_on_all_ranks() {
        // Step 1's diagonal block is indefinite at global row 9: every
        // grid must name that row, whether or not rank 0 owns the block.
        let mut a = random_spd(32, 35);
        a[(9, 9)] = -100.0;
        for [x, y, z] in [[1, 1, 1], [2, 2, 2], [2, 2, 1]] {
            let cfg = ConfchoxConfig::new(32, 8, Grid3::new(x, y, z));
            match confchox_cholesky(&cfg, &a) {
                Err(Error::NotPositiveDefinite(9)) => {}
                other => panic!(
                    "{:?}: expected NotPositiveDefinite(9), got {:?}",
                    cfg.grid,
                    other.map(|_| ())
                ),
            }
        }
    }

    #[test]
    fn auto_config_works() {
        let cfg = ConfchoxConfig::auto(48, 8);
        check(48, cfg.v, cfg.grid, 12);
    }

    #[test]
    fn a_one_rank_cholesky_keeps_its_whole_factor_in_the_store() {
        let (n, v, grid) = (24, 4, Grid3::new(1, 1, 1));
        let a = random_spd(n, 21);
        let cfg = ConfchoxConfig::new(n, v, grid);
        let til = Tiling::new(n, v, grid);
        let out = xmpi::run(1, |comm| {
            let fresh = State::fresh(stage_from_global(comm, &til, &a, true));
            rank_program(comm, &cfg, &mut Guard::new(false), fresh, None).expect("SPD input")
        });
        // Nothing is collected on the side — no pieces at all — and the
        // store's `L` rows are the whole lower triangle.
        let ((lower, pieces), _) = &out.results[0];
        pieces.for_each_run(|_, _, _| panic!("a collected piece"));
        let mut entries = 0;
        lower.for_each_run(|_, _, vals| entries += vals.len());
        assert_eq!(entries, n * (n + 1) / 2);
    }

    #[test]
    fn same_volume_as_lu_half_the_flops() {
        // Table 1's point: COnfCHOX and COnfLUX move similar volume. Run
        // both at the same configuration and compare within a loose band
        // (Cholesky updates only the lower triangle, so somewhat less, but
        // the panel traffic is identical in shape).
        use crate::conflux::{conflux_lu, ConfluxConfig};
        use dense::gen::random_matrix;
        let n = 48;
        let grid = Grid3::new(2, 2, 2);
        let spd = random_spd(n, 13);
        let gen = random_matrix(n, n, 13);
        let vc = confchox_cholesky(&ConfchoxConfig::new(n, 4, grid).volume_only(), &spd)
            .unwrap()
            .stats
            .total_bytes_sent();
        let vl = conflux_lu(&ConfluxConfig::new(n, 4, grid).volume_only(), &gen)
            .unwrap()
            .stats
            .total_bytes_sent();
        let ratio = vc as f64 / vl as f64;
        assert!(
            ratio > 0.35 && ratio < 1.3,
            "volume ratio chol/lu = {ratio}"
        );
    }
}
