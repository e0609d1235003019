//! **COnfLUX** — near-communication-optimal 2.5D LU factorization
//! (paper §7, Algorithm 1).
//!
//! The matrix is cut into `v × v` tiles; tile `(I, J)` lives at 2D grid
//! coordinates `(I mod Px, J mod Py)`. A rank holds its share once, as one
//! dense local matrix (the tile store of the `common` module): layer 0
//! starts from its copy of `A`, the layers above from zeros, and every layer
//! subtracts its `v/Pz`-wide slice of each rank-`v` Schur update in place,
//! so a z-fibre's stores sum to the current trailing matrix. Per block
//! step `t`:
//!
//! 1. **Reduce next block column** — the active (unpivoted) rows of tile
//!    column `t` are summed along the z-fibres onto layer 0.
//! 2. **TournPivot** — the `Px` panel ranks play a butterfly tournament and
//!    all end up holding the `v` pivot row ids and the factored block `A00`.
//! 3. **Broadcast** `A00` plus the pivot ids to every rank. *Row masking*:
//!    only indices travel, no rows are swapped.
//! 4. **Reduce `v` pivot rows** — the pivot rows' trailing segments are
//!    reduced along z, gathered per process column, and solved against
//!    `L00` to produce `U01`.
//! 5. **FactorizeA10** — the remaining active panel rows are solved against
//!    `U00` on their owning panel ranks, producing `L10`, which the rank
//!    writes back into tile column `t` of its store: the column is dead
//!    once reduced, and that is where assembly reads `L` from. With one
//!    panel rank (`Px = 1`) the tournament's elimination already solved
//!    them (`tourn`), and this step only writes them back.
//! 6. **Scatter** `L10` and `U01`: each rank receives only the rows/columns
//!    matching its tiles and only its layer's `v/Pz` inner slice.
//! 7. **FactorizeA11** — one row-mapped GEMM (`dense::par_gemm_rows`)
//!    straight into the trailing column block of the store: the rank's
//!    active rows are an ascending list of local row indices, product row
//!    `i` is subtracted from store row `rows[i]`, and retired rows are
//!    never touched (masking ⇒ no traffic, no flops and no copies are
//!    wasted on them). A row or column segment a later step needs is one
//!    slice of the store per row, summed along z (steps 1 and 4).
//!
//! Per-rank I/O is `N³/(P√M) + O(N²/P)` — 1.5× the paper's lower bound
//! (Lemma 10); the `volume_close_to_model` integration test checks the
//! measured bytes against this model.
//!
//! # Pivot policy
//!
//! The step loop's `PivotPolicy` decides what retiring a step's pivot rows
//! does — the paper's §7.3 ablation. [`conflux_lu`] and the fault-tolerant
//! and ScaLAPACK drivers mask. [`crate::lu25d_swap`] swaps: a `row_swaps`
//! phase after the `A00` broadcast moves the pivot rows into the diagonal
//! positions `t·v..(t+1)·v` on every layer; from then on the step's pivots
//! *are* those positions, and the rest of the step runs unchanged.
//!
//! Every broadcast blocks where it is issued, and step `t + 1` starts only
//! after step `t`'s update is done. Posting the next panel's broadcasts
//! before the update bought no measurable time (EXPERIMENTS.md, "One
//! schedule"): a posted broadcast makes no progress in the background.

use crate::common::{
    bcast_status, check_shape, phase, phase_end, pick_grid_and_block, reduce_rows, shift_err,
    split_results, stage_from_global, ActiveRows, Collected, Net, RankResult, RowMask, State,
    TileStore, Tiling,
};
use crate::ft::{Guard, StepEnd};
use crate::lu25d_swap::row_swaps;
use crate::tourn::tournament;
use dense::gemm::{par_gemm_rows, Trans};
use dense::matrix::{MatMut, MatRef};
use dense::trsm::{trsm, Diag, Side, Uplo};
use dense::Matrix;
use xmpi::{Buf, Comm, Grid3, WorldStats};

const TAG_A01: u64 = 2_000_000;
const TAG_L10: u64 = 3_000_000;
const TAG_U01: u64 = 4_000_000;

/// Configuration of a COnfLUX run.
#[derive(Debug, Clone)]
pub struct ConfluxConfig {
    /// Matrix dimension (must be divisible by `v`).
    pub n: usize,
    /// Block size `v` (must be a multiple of `grid.pz`).
    pub v: usize,
    /// Processor grid `[Px, Py, Pz]`.
    pub grid: Grid3,
    /// Collect the factor entries so the host can assemble `L`/`U`
    /// (disable for volume-only experiments at large `n`).
    pub collect: bool,
}

impl ConfluxConfig {
    /// Validated constructor.
    ///
    /// # Panics
    /// If `v` does not divide `n` or `pz` does not divide `v`.
    pub fn new(n: usize, v: usize, grid: Grid3) -> Self {
        let _ = Tiling::new(n, v, grid); // validates
        ConfluxConfig {
            n,
            v,
            grid,
            collect: true,
        }
    }

    /// Pick a grid and block size automatically for `p` ranks: the most
    /// replicated near-square grid that admits a block size, and the block
    /// size of the crate's one rule (wide enough that every layer's Schur
    /// update is a rank-≥32 product, within its load-balance and volume
    /// guards; written out on `common::pick_grid_and_block` and in
    /// DESIGN.md §3.1).
    ///
    /// # Panics
    /// If no valid block size exists for the chosen grid (pathological `n`).
    pub fn auto(n: usize, p: usize) -> Self {
        let (grid, v) = pick_grid_and_block(n, p);
        ConfluxConfig::new(n, v, grid)
    }

    /// Disable factor collection (volume-only runs).
    pub fn volume_only(mut self) -> Self {
        self.collect = false;
        self
    }
}

/// Result of a COnfLUX factorization.
pub struct LuOutput {
    /// `perm[s]` is the original row that is the `s`-th pivot: row `s` of
    /// `P·A`.
    pub perm: Vec<usize>,
    /// Packed factor in pivoted row coordinates (`L` strictly lower with
    /// unit diagonal, `U` upper): `P·A = L·U`. `None` when collection is
    /// disabled.
    pub packed: Option<Matrix>,
    /// Measured communication statistics.
    pub stats: WorldStats,
}

/// Factor `a` with COnfLUX on the simulated machine described by `cfg`.
///
/// The input is staged into the tile layout without measured communication,
/// matching the paper's cost accounting ("we assume that the input matrix is
/// already distributed in the block cyclic layout imposed by the
/// algorithm").
///
/// # Errors
/// [`dense::Error::ShapeMismatch`] if `a` is not `n × n`; the underlying
/// kernel error if the matrix is singular.
pub fn conflux_lu(cfg: &ConfluxConfig, a: &Matrix) -> Result<LuOutput, dense::Error> {
    factor_lu(cfg, a, PivotPolicy::Mask)
}

/// What retiring a step's pivot rows does (see the module docs): `Mask`
/// leaves them where they are, `Swap` moves them into the diagonal positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PivotPolicy {
    Mask,
    Swap,
}

/// The host side of a plain LU run under `policy`.
pub(crate) fn factor_lu(
    cfg: &ConfluxConfig,
    a: &Matrix,
    policy: PivotPolicy,
) -> Result<LuOutput, dense::Error> {
    check_shape(a, cfg.n)?;
    let til = Tiling::new(cfg.n, cfg.v, cfg.grid);
    let out = xmpi::run(cfg.grid.size(), |comm| {
        let fresh = State::fresh(stage_from_global(comm, &til, a, false));
        rank_program(comm, cfg, policy, &mut Guard::new(false), fresh, None)
    });
    let (parts, perm) = split_results(out.results)?;
    let packed = cfg.collect.then(|| match policy {
        PivotPolicy::Mask => Collected::assemble(cfg.n, cfg.v, &perm, &parts),
        // Swapped pieces are addressed by position: rows are where they belong.
        PivotPolicy::Swap => Collected::assemble(cfg.n, cfg.v, &Vec::from_iter(0..cfg.n), &parts),
    });
    Ok(LuOutput {
        perm,
        packed,
        stats: out.stats,
    })
}

/// The SPMD program one rank executes — the only implementation of the
/// schedule; plain, ScaLAPACK-wrapped, fault-tolerant and row-swapping runs
/// differ in what they pass here. `state.store` is this rank's share — layer 0's
/// tiles of `A` (zeros above it), produced by [`stage_from_global`] or by a
/// measured redistribution from a caller's layout, or whatever a checkpoint
/// restored. Every bulk `f64` transfer is issued through `guard` (see
/// [`crate::ft`]). The run starts at `state.step` with `state`'s pivots and
/// collected pieces, and after every step but the last hands the updated
/// state to `at_step_end`. Returns what the rank hands home: the part of `L`
/// its store holds (layer 0 of a collecting run), the pieces it collected,
/// and the pivot order — under swapping, the original row at each position.
pub(crate) fn rank_program(
    comm: &Comm,
    cfg: &ConfluxConfig,
    policy: PivotPolicy,
    guard: &mut Guard,
    mut state: State,
    at_step_end: Option<StepEnd<'_>>,
) -> RankResult {
    let g = cfg.grid;
    let til = Tiling::new(cfg.n, cfg.v, g);
    let (pi, pj, pk) = g.coords(comm.rank());
    let (n, v, nt, ks) = (cfg.n, cfg.v, til.nt, til.kslice());

    let net = Net::new(comm, til);
    // The `O(n·v)` step buffers, reserved once and reused by every step: the
    // reduced panel column (one row per active row), the `L10` solved from
    // it, this process row's reduced pivot-row segments, and `U01` (all `v`
    // pivot rows in pivot order).
    let rows_v = state.store.rows_from(0).len() * v;
    let v_cols = v * state.store.cols_from(0).len();
    let (mut panel, mut l10) = (Vec::with_capacity(rows_v), Vec::with_capacity(rows_v));
    let (mut a01, mut u01) = (Vec::with_capacity(v_cols), Vec::with_capacity(v_cols));
    if cfg.collect {
        // Exactly the tiles this rank will still collect: the `A00` of the
        // steps it roots, the `U01` of the steps it solves.
        let tiles = (state.step..nt).map(|t| {
            let a00 = usize::from(comm.rank() == g.rank_of(0, t % g.py, 0));
            let u01 = usize::from(comm.rank() == g.rank_of(t % g.px, pj, 0));
            a00 + u01 * til.tiles_after(t, pj, g.py).len()
        });
        state.collected.reserve_exact(tiles.sum::<usize>() * v * v);
    }
    let mut mask = RowMask::new(n);
    mask.retire(&state.perm);
    // This process row's active rows, re-derived once per step when the
    // step's pivots retire: the panel rows of the next reduction, the rows
    // of the next L10, and the row map of the next Schur update.
    let mut active = mask.active_rows_of(&til, pi);
    // Under swapping, the original row at each position.
    let mut id_at = (policy == PivotPolicy::Swap).then(|| (0..n).collect::<Vec<_>>());

    for step in state.step..nt {
        let jt = step % g.py;
        let it = step % g.px;
        let last = step + 1 == nt;
        let root = g.rank_of(0, jt, 0);

        // ---- 1–3. Form this step's panel and broadcast A00 + pivots ----
        // The reduced panel column stays in `panel`.
        let form = form_panel(&net, guard, &active, &state.store, step, &mut panel);
        let (a00_buf, piv_ids) = form.bcast(comm, guard, root, v)?;
        let a00 = MatRef::from_slice(&a00_buf[..v * v], v, v, v);
        let pivots: Vec<usize> = match id_at.as_mut() {
            None => piv_ids.iter().map(|&x| x as usize).collect(),
            Some(id_at) => row_swaps(&net, &mut state.store, &mut panel, &piv_ids, step, id_at),
        };
        if cfg.collect && comm.rank() == root {
            state.collected.push(&pivots, &[step * v], a00);
        }
        state.perm.extend_from_slice(&pivots);
        mask.retire(&pivots);
        // Rows every rank expects for its `pi` group from here on (identical
        // bookkeeping everywhere — this is what row masking buys: indices,
        // not data). `panel_rows` are the rows the panel was formed from.
        let panel_rows = std::mem::replace(&mut active, mask.active_rows_of(&til, pi)).global;

        // Trailing tile columns this process column owns.
        let trail_cols = til.tiles_after(step, pj, g.py);
        // ... which are one contiguous column range of the local store.
        let trail = state.store.cols_from(step + 1);
        let trail_len = trail.len();

        // ---- 4. Reduce pivot rows, solve U01 = L00⁻¹·A01 ---------------
        phase(comm, "reduce_pivots");
        // The process row holding global row `p`.
        let prow = |p: usize| (p / v) % g.px;
        let my_piv = pivots.iter().filter(|&&p| prow(p) == pi);
        let piv_lrows: Vec<usize> = my_piv.map(|&p| state.store.local_row(p)).collect();
        if !last && !trail_cols.is_empty() {
            let lrows = piv_lrows.iter().copied();
            reduce_rows(&net, guard, &state.store, lrows, trail.clone(), &mut a01);
            // Gather the pivot-row segments at the step's U-owner and solve.
            let owner = g.rank_of(it, pj, 0);
            if comm.rank() == owner {
                // Each process row that holds pivots has their segments in
                // pivot order — this rank's own in the reduced buffer, the
                // others' in one message each: place them.
                u01.resize(v * trail_len, 0.0);
                for spi in 0..g.px {
                    let at: Vec<usize> = (0..v).filter(|&i| prow(pivots[i]) == spi).collect();
                    let received;
                    let group = if spi == pi {
                        &a01
                    } else if !at.is_empty() {
                        let (src, tag) = (g.rank_of(spi, pj, 0), TAG_A01 + step as u64);
                        received = guard.recv(comm, src, tag, at.len(), trail_len);
                        &received
                    } else {
                        continue;
                    };
                    for (seg, i) in group.chunks_exact(trail_len).zip(at) {
                        u01[i * trail_len..(i + 1) * trail_len].copy_from_slice(seg);
                    }
                }
                solve_u01(a00, &mut u01);
                if cfg.collect {
                    let starts: Vec<usize> = trail_cols.iter().map(|&tj| tj * v).collect();
                    let u01 = MatRef::from_slice(&u01, v, trail_len, trail_len);
                    state.collected.push(&pivots, &starts, u01);
                }
            } else if pk == 0 && !piv_lrows.is_empty() {
                let (tag, rows) = (TAG_A01 + step as u64, piv_lrows.len());
                guard.send(comm, owner, tag, &a01, rows, trail_len);
            }
        }

        // ---- 5. FactorizeA10: L10 = A10·U00⁻¹ on panel ranks ------------
        phase(comm, "panel_trsm");
        let rows = active.local.len();
        if pj == jt && pk == 0 {
            // The panel rows that survived this step's pivots are exactly
            // `active.global`, in order.
            l10.clear();
            let kept = (0..panel_rows.len()).filter(|&i| mask.is_active(panel_rows[i]));
            for ki in kept {
                l10.extend_from_slice(&panel[ki * v..(ki + 1) * v]);
            }
            let lrows = active.local.iter().copied();
            if g.px == 1 {
                // A one-player tournament left them solved in the panel.
                state.store.put_l10(&l10, step, lrows);
            } else {
                let tri = (Uplo::Upper, Trans::N);
                state.store.solve_l10(tri, a00, &mut l10, step, lrows);
            }
        }

        // ---- 6a. Scatter L10: z-slice then broadcast along y -----------
        // Both panel broadcasts keep the shared storage: the Schur update
        // below reads the slices through borrowed views, so non-root ranks
        // never copy the broadcast panel at all.
        phase(comm, "scatter_panels");
        let mut l10_flat = Buf::from(Vec::new());
        if !last && rows > 0 {
            let tag = TAG_L10 + step as u64;
            l10_flat = scatter_z(&net, guard, (&net.yrow, jt), tag, (rows, ks), |k| {
                MatRef::from_slice(&l10, rows, v, v).block(0, k * ks, rows, ks)
            });
        }

        // ---- 6b. Scatter U01: z-slice then broadcast along x -----------
        let mut u01_flat = Buf::from(Vec::new());
        if !last && trail_len > 0 {
            let tag = TAG_U01 + step as u64;
            u01_flat = scatter_z(&net, guard, (&net.xcol, it), tag, (ks, trail_len), |k| {
                MatRef::from_slice(&u01, v, trail_len, trail_len).block(k * ks, 0, ks, trail_len)
            });
        }

        // ---- 7. FactorizeA11: layer-local partial Schur update ---------
        // One row-mapped GEMM straight into the store: product row `i` is
        // subtracted from local row `active.local[i]` of the trailing column
        // block, so retired rows cost neither traffic nor flops nor a
        // scratch copy.
        phase(comm, "update_a11");
        if !last && rows > 0 && trail_len > 0 {
            // Both panels were broadcast this step (the guards above are
            // the same conditions); their data is the buffers' prefix.
            let l10_slice = MatRef::from_slice(&l10_flat[..rows * ks], rows, ks, ks);
            let u01_slice =
                MatRef::from_slice(&u01_flat[..ks * trail_len], ks, trail_len, trail_len);
            let trailing = state.store.cols_mut(trail);
            par_gemm_rows(-1.0, l10_slice, u01_slice, &active.local, trailing);
        }

        // ---- Step boundary --------------------------------------------
        state.step = step + 1;
        match at_step_end {
            Some(at_step_end) if !last => at_step_end(&state, guard),
            _ => {}
        }
    }

    phase_end(comm);
    // Row `r`'s `L` entries are the store's columns left of its pivot tile;
    // the tile itself is the `A00` its step's root collected.
    let lower = (cfg.collect && pk == 0).then(|| {
        let mut pivot_tile = vec![0; n];
        for (s, &r) in state.perm.iter().enumerate() {
            pivot_tile[r] = s / v;
        }
        state.store.into_lower(|r| pivot_tile[r] * v)
    });
    let order = id_at.unwrap_or(state.perm);
    Ok(((lower.unwrap_or_default(), state.collected), order))
}

/// `U01 = L00⁻¹·A01`, in place on the `v` reduced pivot-row segments `a01`;
/// `L00` is the unit lower triangle of `a00`.
fn solve_u01(a00: MatRef<'_>, a01: &mut [f64]) {
    let (v, len) = (a00.rows(), a01.len() / a00.rows());
    let (solved, l00) = (MatMut::from_slice(a01, v, len, len), Uplo::Lower);
    trsm(Side::Left, l00, Trans::N, Diag::Unit, 1.0, a00, solved);
}

/// Distribute a panel held by layer 0 of member `root` of `fibre` (the
/// y-row or x-column through the calling rank): that member cuts it into one
/// `r × c` slice per layer of its z-fibre — layer 0 sends layer `k` the slice
/// `slice_of(k)` and keeps `slice_of(0)` — and on every layer member `root`
/// broadcasts its slice along `fibre`. Every rank returns its layer's slice,
/// on the broadcast tree's shared storage.
pub(crate) fn scatter_z<'a>(
    net: &Net<'_>,
    guard: &mut Guard,
    (fibre, root): (&Comm, usize),
    tag: u64,
    (r, c): (usize, usize),
    slice_of: impl Fn(usize) -> MatRef<'a>,
) -> Buf<f64> {
    let (comm, g) = (net.comm, net.til.grid);
    let (pi, pj, pk) = g.coords(comm.rank());
    let mine = if fibre.rank() != root {
        Vec::new()
    } else if pk != 0 {
        guard.recv(comm, g.rank_of(pi, pj, 0), tag, r, c)
    } else {
        for k in (1..g.pz).rev() {
            let slice = slice_of(k).to_owned();
            guard.send(comm, g.rank_of(pi, pj, k), tag, slice.data(), r, c);
        }
        slice_of(0).to_owned().into_vec()
    };
    guard.bcast(fibre, root, mine, r, c)
}

/// The outcome of forming one panel: the tournament's results on the panel
/// ranks (`a00_flat`/`piv_ids` empty, `err` set, on failure). The reduced
/// panel values are in the caller's panel buffer.
#[derive(Default)]
struct PanelForm {
    a00_flat: Vec<f64>,
    piv_ids: Vec<u64>,
    err: Option<dense::Error>,
}

impl PanelForm {
    /// Blocking broadcast of the formed panel from `root` to every rank:
    /// the status word first, so a singular panel aborts every rank with
    /// the same failing row instead of deadlocking the world, then the
    /// `v × v` block `A00` and the pivot ids. Returns `(A00, pivot ids)`.
    fn bcast(
        self,
        comm: &Comm,
        guard: &mut Guard,
        root: usize,
        v: usize,
    ) -> Result<(Buf<f64>, Vec<u64>), dense::Error> {
        phase(comm, "bcast_a00");
        bcast_status(comm, root, self.err, dense::Error::SingularAt)?;
        let a00 = guard.bcast(comm, root, self.a00_flat, v, v);
        let mut piv_ids = self.piv_ids;
        comm.bcast_u64(root, &mut piv_ids);
        Ok((a00, piv_ids))
    }
}

/// Steps 1–2 of the algorithm for block step `step`: reduce the active rows
/// of tile column `step` along z onto layer 0 — into `panel`, one row per
/// active row — then run the pivot tournament across the panel ranks.
/// With one panel rank (`Px = 1`), the tournament leaves the non-pivot rows'
/// `L10` in `panel` ([`tournament`]).
fn form_panel(
    net: &Net<'_>,
    guard: &mut Guard,
    active: &ActiveRows,
    store: &TileStore,
    step: usize,
    panel: &mut Vec<f64>,
) -> PanelForm {
    let (comm, g, v) = (net.comm, net.til.grid, net.til.v);
    let (_, pj, pk) = g.coords(comm.rank());
    let jt = step % g.py;

    // ---- 1. Reduce next block column ----------------------------------
    phase(comm, "reduce_col");
    if pj == jt {
        let (lrows, c0) = (active.local.iter().copied(), store.col0(step));
        reduce_rows(net, guard, store, lrows, c0..c0 + v, panel);
    }

    // ---- 2. TournPivot -------------------------------------------------
    phase(comm, "pivoting");
    let mut form = PanelForm::default();
    if pj == jt && pk == 0 {
        let ids: Vec<u64> = active.global.iter().map(|&r| r as u64).collect();
        match tournament(net.panel.as_ref().unwrap(), panel, &ids, v) {
            Ok(pb) => (form.a00_flat, form.piv_ids) = (pb.a00.into_vec(), pb.ids),
            // The failing factorization is redundant and deterministic,
            // so every panel rank lands here together.
            Err(e) => form.err = Some(shift_err(e, step * v)),
        }
    }
    form
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen::{needs_pivoting, random_matrix};
    use dense::norms::lu_residual_perm;

    fn check(n: usize, v: usize, grid: Grid3, seed: u64) {
        let a = random_matrix(n, n, seed);
        let cfg = ConfluxConfig::new(n, v, grid);
        let out = conflux_lu(&cfg, &a).unwrap();
        assert_eq!(out.perm.len(), n);
        let mut sorted = out.perm.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..n).collect::<Vec<_>>(),
            "perm must be a permutation"
        );
        let res = lu_residual_perm(&a, out.packed.as_ref().unwrap(), &out.perm);
        assert!(
            res < 1e-10,
            "residual {res} too large for n={n} v={v} grid={grid:?}"
        );
    }

    /// What every rank of `cfg`'s world hands home for a seeded random input.
    fn handed_home(cfg: &ConfluxConfig, seed: u64) -> Vec<RankResult> {
        let til = Tiling::new(cfg.n, cfg.v, cfg.grid);
        let a = random_matrix(cfg.n, cfg.n, seed);
        let out = xmpi::run(cfg.grid.size(), |comm| {
            let fresh = State::fresh(stage_from_global(comm, &til, &a, false));
            let guard = &mut Guard::new(false);
            rank_program(comm, cfg, PivotPolicy::Mask, guard, fresh, None)
        });
        out.results
    }

    #[test]
    fn what_a_rank_hands_home_is_bounded() {
        // One rank, as in `lu_p1`: what the rank thread allocates and the
        // host frees is the store plus the collected upper triangle, nothing
        // reserved beyond need — at most 1.5 n² + n·v words, the footprint
        // the page-fault count of repeated calls (`page_faults`) rests on.
        let (n, v) = (256, 32);
        let cfg = ConfluxConfig::new(n, v, Grid3::new(1, 1, 1));
        let (part, perm) = handed_home(&cfg, 3).remove(0).unwrap();
        let words = crate::common::words(&part) + perm.capacity();
        let bounds = n * n + n * (n - v) / 2..=n * n + n * n / 2 + n * v;
        assert!(bounds.contains(&words), "{words} words handed home");
        // `lu_p4_socket`'s shape: the wire size of each rank's result — what
        // a socket child writes to its launcher — is no larger than when
        // every factor entry was a collected block (d25ce6c, seed 101), and
        // together no smaller than the factor itself.
        let cfg = ConfluxConfig::auto(512, 4);
        let size = |rank: &RankResult| xmpi::wire::encode_vec(rank.as_ref().unwrap()).len();
        let bytes: Vec<usize> = handed_home(&cfg, 101).iter().map(size).collect();
        let then = [565_824, 599_812, 502_776, 467_936];
        let grew = bytes.iter().zip(then).any(|(&now, then)| now > then);
        assert!(!grew, "{bytes:?}");
        assert!(bytes.iter().sum::<usize>() >= 8 * cfg.n * cfg.n);
    }

    #[test]
    fn single_rank_equals_sequential_lu() {
        check(16, 4, Grid3::new(1, 1, 1), 1);
    }

    #[test]
    fn two_d_grids() {
        check(24, 4, Grid3::new(2, 2, 1), 2);
        check(24, 4, Grid3::new(2, 3, 1), 3);
        check(32, 8, Grid3::new(4, 2, 1), 4);
    }

    #[test]
    fn replicated_grids_exercise_z_reduction() {
        check(24, 4, Grid3::new(2, 2, 2), 5);
        check(32, 4, Grid3::new(2, 2, 4), 6);
        check(48, 6, Grid3::new(2, 2, 2), 7);
    }

    #[test]
    fn non_power_of_two_panel_groups() {
        check(36, 4, Grid3::new(3, 3, 2), 8);
        check(30, 6, Grid3::new(3, 2, 3), 9);
    }

    #[test]
    fn single_tile_per_rank_edge() {
        // nt == px == py: each rank owns exactly one tile row/column.
        check(16, 4, Grid3::new(4, 4, 1), 10);
    }

    #[test]
    fn grid_larger_than_tiles() {
        // More process rows than tile rows: some ranks own nothing.
        check(8, 4, Grid3::new(4, 4, 1), 11);
    }

    #[test]
    fn pivoting_stress_matrix() {
        let n = 24;
        let a = needs_pivoting(n, 3);
        let cfg = ConfluxConfig::new(n, 4, Grid3::new(2, 2, 2));
        let out = conflux_lu(&cfg, &a).unwrap();
        let res = lu_residual_perm(&a, out.packed.as_ref().unwrap(), &out.perm);
        assert!(res < 1e-8, "residual {res}");
    }

    #[test]
    fn singular_matrix_aborts_cleanly_on_all_ranks() {
        // Two identical columns inside the first block: the tournament's
        // pivot block is singular at step 0 and every rank must get the
        // error (no deadlock) — on a multi-player panel group, on one rank,
        // and on a one-player group fed by a z-reduction, each naming the
        // elimination step 9ea4a67 named — masking or swapping alike.
        let mut early = random_matrix(16, 16, 99);
        for i in 0..16 {
            early[(i, 1)] = early[(i, 0)];
        }
        // Late: a block-diagonal matrix whose *second* diagonal block is
        // exactly zero (no coupling, so no rounding can perturb it). Step 0
        // succeeds; step 1's status broadcast must still stop every rank.
        let v = 8;
        let mut late = Matrix::zeros(32, 32);
        for blk in [0usize, 2, 3] {
            let d = random_matrix(v, v, 24 + blk as u64);
            for r in 0..v {
                for c in 0..v {
                    late[(blk * v + r, blk * v + c)] = d[(r, c)] + if r == c { 4.0 } else { 0.0 };
                }
            }
        }
        let mut cases: Vec<(ConfluxConfig, &Matrix, usize)> = [[2, 2, 2], [1, 1, 1], [1, 2, 2]]
            .iter()
            .map(|&[x, y, z]| (ConfluxConfig::new(16, 4, Grid3::new(x, y, z)), &early, 1))
            .collect();
        // The zero block's first row is the failing row on every grid,
        // whether or not rank 0 sits in the step's panel group.
        for [x, y, z] in [[2, 2, 2], [1, 1, 1], [1, 2, 2], [2, 2, 1]] {
            cases.push((ConfluxConfig::new(32, v, Grid3::new(x, y, z)), &late, 8));
        }
        for (cfg, a, row) in cases {
            let swap = crate::lu25d_swap::lu25d_swap(&cfg, a);
            for (name, out) in [("conflux_lu", conflux_lu(&cfg, a)), ("lu25d_swap", swap)] {
                match out {
                    Err(dense::Error::SingularAt(at)) if at == row => {}
                    other => panic!(
                        "{name} on {:?}: expected SingularAt({row}), got {:?}",
                        cfg.grid,
                        other.map(|_| ())
                    ),
                }
            }
        }
    }

    #[test]
    fn volume_only_skips_collection() {
        let a = random_matrix(16, 16, 12);
        let cfg = ConfluxConfig::new(16, 4, Grid3::new(2, 2, 1)).volume_only();
        let out = conflux_lu(&cfg, &a).unwrap();
        assert!(out.packed.is_none());
        assert!(out.stats.total_bytes_sent() > 0);
    }

    #[test]
    fn auto_config_is_valid_and_works() {
        let cfg = ConfluxConfig::auto(48, 8);
        assert_eq!(cfg.grid.size(), 8);
        check(48, cfg.v, cfg.grid, 13);
    }

    #[test]
    fn replication_reduces_volume() {
        // Same P = 64: the c = 4 cube must communicate less than the flat
        // 2D-style grid. (The win grows with P — at P = 8 the z-reduction
        // overhead ~N²c/P still cancels the √c scatter saving, which is
        // exactly the paper's observation that 2.5D libraries only pay off
        // beyond a processor-count threshold.)
        let n = 128;
        let a = random_matrix(n, n, 14);
        let flat = ConfluxConfig::new(n, 8, Grid3::new(8, 8, 1)).volume_only();
        let repl = ConfluxConfig::new(n, 8, Grid3::new(4, 4, 4)).volume_only();
        let v_flat = conflux_lu(&flat, &a).unwrap().stats.total_bytes_sent();
        let v_repl = conflux_lu(&repl, &a).unwrap().stats.total_bytes_sent();
        assert!(
            v_repl < v_flat,
            "replication should cut volume: c=4 {v_repl} vs c=1 {v_flat}"
        );
    }
}
