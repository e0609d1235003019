//! **COnfLUX** — near-communication-optimal 2.5D LU factorization
//! (paper §7, Algorithm 1).
//!
//! The matrix is cut into `v × v` tiles; tile `(I, J)` lives at 2D grid
//! coordinates `(I mod Px, J mod Py)`, with layer 0 holding the original
//! values and every layer holding an accumulator for its `v/Pz`-wide slice
//! of each rank-`v` Schur update — both as one dense local matrix per rank
//! (the tile store of [`crate::common`]). Per block step `t`:
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
//!    `U00` on their owning panel ranks, producing `L10`.
//! 6. **Scatter** `L10` and `U01`: each rank receives only the rows/columns
//!    matching its tiles and only its layer's `v/Pz` inner slice.
//! 7. **FactorizeA11** — one row-mapped GEMM (`dense::par_gemm_rows`)
//!    straight into the trailing column block of the layer-local
//!    accumulator: the rank's active rows are an ascending list of local
//!    row indices, product row `i` is added to accumulator row `rows[i]`,
//!    and retired rows are never touched (masking ⇒ no traffic, no flops
//!    and no copies are wasted on them). A row or column segment a later
//!    step needs is read back as `original − accumulator`, one slice
//!    subtraction per row (steps 1 and 4).
//!
//! Per-rank I/O is `N³/(P√M) + O(N²/P)` — 1.5× the paper's lower bound
//! (Lemma 10); the `volume_close_to_model` integration test checks the
//! measured bytes against this model.
//!
//! # Lookahead
//!
//! With [`ConfluxConfig::lookahead`] (the default), each step overlaps the
//! *next* panel's formation with its own trailing update: at the end of
//! step `t` the rank first applies the Schur update to tile column `t+1`
//! only, forms panel `t+1` (z-reduction + tournament), posts the three
//! panel broadcasts as nonblocking [`xmpi::Comm::ibcast_f64`] operations,
//! and only then runs the bulk update of the remaining trailing columns —
//! so the broadcasts travel while the GEMM runs. Step `t+1` begins by
//! waiting on the posted requests instead of calling the blocking
//! broadcast. The factors, the per-rank communication volume, and the
//! per-phase byte attribution are all bitwise identical to the blocking
//! schedule (`lookahead = false`); only the event *timing* changes, which
//! the `xtrace` replay turns into hidden-communication time.

use crate::common::{
    check_shape, phase, phase_end, pick_grid_and_block, reduce_rows, split_results,
    stage_from_global, ActiveRows, Collected, Net, RowMask, State, TileStore, Tiling,
};
use crate::ft::{Guard, StepEnd};
use crate::tourn::tournament;
use dense::gemm::{par_gemm_rows, Trans};
use dense::matrix::MatRef;
use dense::trsm::{trsm, Diag, Side, Uplo};
use dense::Matrix;
use xmpi::{BcastRequest, Buf, Comm, Grid3, WorldStats};

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
    /// Overlap each step's panel broadcasts with the previous step's
    /// trailing update (one-step lookahead, see the module docs). On by
    /// default; [`ConfluxConfig::blocking`] turns it off for A/B runs.
    pub lookahead: bool,
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
            lookahead: true,
        }
    }

    /// Pick a grid and block size automatically for `p` ranks: the most
    /// replicated near-square grid that admits a block size, and the block
    /// size of [`pick_grid_and_block`]'s rule (wide enough that every
    /// layer's Schur update is a rank-≥32 product, within its load-balance
    /// and volume guards).
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

    /// Disable lookahead: every broadcast blocks where it is issued. The
    /// result is bitwise identical; only the overlap (and thus the modeled
    /// makespan) differs.
    pub fn blocking(mut self) -> Self {
        self.lookahead = false;
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
    check_shape(a, cfg.n)?;
    let til = Tiling::new(cfg.n, cfg.v, cfg.grid);
    // Backend-aware launch: threads by default, child processes over a
    // socket mesh when `xmpi::with_backend(Backend::Socket(..))` is armed.
    let out = xmpi::launch::run(cfg.grid.size(), |comm| {
        let tiles = stage_from_global(comm, &til, a, false);
        let mut guard = Guard::new(false);
        let fresh = State::fresh(&til, comm.rank(), false);
        let done = rank_program(comm, cfg, tiles, &mut guard, fresh, None)?;
        Ok::<_, dense::Error>((done.collected, done.perm))
    });
    let (pieces, perm) = split_results(out.results)?;
    let packed = cfg
        .collect
        .then(|| Collected::assemble(cfg.n, &perm, &pieces));
    Ok(LuOutput {
        perm,
        packed,
        stats: out.stats,
    })
}

/// The SPMD program one rank executes — the only implementation of the
/// schedule; plain, ScaLAPACK-wrapped and fault-tolerant runs differ in
/// what they pass here. `orig` is this rank's layer-0 tile store (all
/// absent on layers > 0), produced by [`stage_from_global`] or by a measured
/// redistribution from a caller's layout. Every bulk `f64` transfer is
/// issued through `guard` (see [`crate::ft`]); the nonblocking lookahead
/// broadcasts are not. The run starts at `state.step` with `state`'s
/// pivots, collected pieces and accumulators, and after every step but the last
/// hands the updated state to `at_step_end` — which needs a quiescent
/// boundary, so it is only ever combined with the blocking schedule.
/// Returns the final state.
pub(crate) fn rank_program(
    comm: &Comm,
    cfg: &ConfluxConfig,
    orig: TileStore,
    guard: &mut Guard,
    mut state: State,
    at_step_end: Option<StepEnd<'_>>,
) -> Result<State, dense::Error> {
    assert!(
        at_step_end.is_none() || !cfg.lookahead,
        "a step-boundary callback needs the blocking schedule"
    );
    let g = cfg.grid;
    let til = Tiling::new(cfg.n, cfg.v, g);
    let (pi, pj, pk) = g.coords(comm.rank());
    let (n, v, nt, ks) = (cfg.n, cfg.v, til.nt, til.kslice());

    let net = Net::new(comm, til);
    // Layer 0 holds the original tiles; every layer holds update
    // accumulators (`state.acc`) in the same local layout.
    let mut mask = RowMask::new(n);
    mask.retire(&state.perm);
    // This process row's active rows, re-derived once per step when the
    // step's pivots retire: the panel rows of the next reduction, the rows
    // of the next L10, and the row map of the next Schur update.
    let mut active = mask.active_rows_of(&til, pi);

    // Panel broadcasts posted one step ahead (lookahead mode).
    let mut pending: Option<PendingPanel<'_>> = None;

    for step in state.step..nt {
        let jt = step % g.py;
        let it = step % g.px;
        let last = step + 1 == nt;
        let root = g.rank_of(0, jt, 0);

        // ---- 1–3. Form this step's panel and broadcast A00 + pivots ----
        // Either complete the broadcasts posted at the end of the previous
        // step (lookahead) or form the panel and broadcast blocking, right
        // here. Both paths attribute their traffic to the same phases.
        let (panel_vals, a00_buf, piv_ids);
        match pending.take() {
            Some(pp) => {
                phase(comm, "bcast_a00");
                // Status first: waiting it forwards the word down the
                // broadcast tree, so a singular panel still aborts every
                // rank cleanly (the unused data requests are just dropped).
                let status = pp.status.wait_f64();
                if status[0] != 0.0 {
                    return Err(pp.err.unwrap_or(dense::Error::SingularAt(step * v)));
                }
                a00_buf = pp.a00.wait_buf_f64();
                piv_ids = pp.piv.wait_u64();
                panel_vals = pp.vals;
            }
            None => {
                let form = form_panel(&net, guard, &active, &orig, &state.acc, step);
                (panel_vals, a00_buf, piv_ids) = form.bcast(comm, guard, root, step * v)?;
            }
        }
        let a00 = MatRef::from_slice(&a00_buf[..v * v], v, v, v);
        let pivots: Vec<usize> = piv_ids.iter().map(|&x| x as usize).collect();
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
        // ... which are one contiguous column range of the local stores.
        let trail = orig.cols_from(step + 1);
        let (trail_c0, trail_len) = (trail.start, trail.len());

        // ---- 4. Reduce pivot rows, solve U01 = L00⁻¹·A01 ---------------
        phase(comm, "reduce_pivots");
        // The process row holding global row `p`.
        let prow = |p: usize| (p / v) % g.px;
        let my_piv: Vec<usize> = pivots.iter().copied().filter(|&p| prow(p) == pi).collect();
        let mut u01 = Matrix::zeros(0, 0);
        if !last && !trail_cols.is_empty() {
            let piv_lrows = my_piv.iter().map(|&p| orig.local_row(p));
            let stores = (&orig, &state.acc);
            let mut a01_contrib = reduce_rows(&net, guard, stores, piv_lrows, trail.clone());
            // Gather the pivot-row segments at the step's U-owner and solve.
            if pk == 0 {
                let owner = g.rank_of(it, pj, 0);
                if comm.rank() == owner {
                    // Pull the buffer of each process row that holds pivots
                    // (own group local), in ascending process-row order.
                    let mut group_bufs: Vec<(Vec<f64>, usize)> = vec![(Vec::new(), 0); g.px];
                    for (spi, group) in group_bufs.iter_mut().enumerate() {
                        let cnt = pivots.iter().filter(|&&p| prow(p) == spi).count();
                        let src = g.rank_of(spi, pj, 0);
                        if src == owner {
                            // Not read again on this rank: move, don't copy.
                            group.0 = std::mem::take(&mut a01_contrib);
                        } else if cnt > 0 {
                            group.0 = guard.recv(comm, src, TAG_A01 + step as u64, cnt, trail_len);
                        }
                    }
                    let mut a01m = Matrix::zeros(v, trail_len);
                    for (pos, &p) in pivots.iter().enumerate() {
                        let (buf, cursor) = &mut group_bufs[prow(p)];
                        a01m.row_mut(pos)
                            .copy_from_slice(&buf[*cursor..*cursor + trail_len]);
                        *cursor += trail_len;
                    }
                    trsm(
                        Side::Left,
                        Uplo::Lower,
                        Trans::N,
                        Diag::Unit,
                        1.0,
                        a00,
                        a01m.as_mut(),
                    );
                    if cfg.collect {
                        let starts: Vec<usize> = trail_cols.iter().map(|&tj| tj * v).collect();
                        state.collected.push(&pivots, &starts, a01m.as_ref());
                    }
                    u01 = a01m;
                } else if !my_piv.is_empty() {
                    let (tag, rows) = (TAG_A01 + step as u64, my_piv.len());
                    guard.send(comm, owner, tag, &a01_contrib, rows, trail_len);
                }
            }
        }

        // ---- 5. FactorizeA10: L10 = A10·U00⁻¹ on panel ranks ------------
        phase(comm, "panel_trsm");
        let mut l10 = Matrix::zeros(0, v);
        if pj == jt && pk == 0 {
            // The panel rows that survived this step's pivots are exactly
            // `active.global`, in order.
            l10 = Matrix::zeros(active.global.len(), v);
            let kept = (0..panel_rows.len()).filter(|&i| mask.is_active(panel_rows[i]));
            for (i, ki) in kept.enumerate() {
                l10.row_mut(i).copy_from_slice(panel_vals.row(ki));
            }
            trsm(
                Side::Right,
                Uplo::Upper,
                Trans::N,
                Diag::NonUnit,
                1.0,
                a00,
                l10.as_mut(),
            );
            if cfg.collect {
                state
                    .collected
                    .push(&active.global, &[step * v], l10.as_ref());
            }
        }
        // The step's O(n·v) panel buffers die as soon as their z-slices are
        // on the wire: only the two broadcast slices live through the Schur
        // update, so peak memory grows with `v` by no more than those.
        drop(panel_vals);

        // ---- 6a. Scatter L10: z-slice then broadcast along y -----------
        // Both panel broadcasts keep the shared storage: the Schur update
        // below reads the slices through borrowed views, so non-root ranks
        // never copy the broadcast panel at all.
        phase(comm, "scatter_panels");
        let mut l10_flat = Buf::from(Vec::new());
        if !last && !active.local.is_empty() {
            let (rows, tag) = (active.local.len(), TAG_L10 + step as u64);
            l10_flat = scatter_z(&net, guard, (&net.yrow, jt), tag, (rows, ks), |k| {
                l10.block(0, k * ks, rows, ks)
            });
        }
        drop(l10);

        // ---- 6b. Scatter U01: z-slice then broadcast along x -----------
        let mut u01_flat = Buf::from(Vec::new());
        if !last && trail_len > 0 {
            let tag = TAG_U01 + step as u64;
            u01_flat = scatter_z(&net, guard, (&net.xcol, it), tag, (ks, trail_len), |k| {
                u01.block(k * ks, 0, ks, trail_len)
            });
        }
        drop(u01);

        // ---- 7. FactorizeA11: layer-local partial Schur update ---------
        // One row-mapped GEMM straight into the accumulator: product row
        // `i` lands in local row `active.local[i]` of the trailing column
        // block, so retired rows cost neither traffic nor flops nor a
        // scratch copy. `cols` indexes into `trail_cols`; splitting the
        // update by column range is exact (each element of the product is
        // an independent dot product, added to its accumulator once), so
        // the lookahead split below stays bitwise equal to the one-shot
        // blocking update.
        let apply_update = |acc: &mut TileStore, cols: std::ops::Range<usize>| {
            if last || active.local.is_empty() || cols.is_empty() {
                return;
            }
            // Both panels were broadcast this step (the guards above are
            // the same conditions); their data is the buffers' prefix.
            let rows = active.local.len();
            let l10_slice = MatRef::from_slice(&l10_flat[..rows * ks], rows, ks, ks);
            let u01_slice =
                MatRef::from_slice(&u01_flat[..ks * trail_len], ks, trail_len, trail_len);
            let w = cols.len() * v;
            let c0 = trail_c0 + cols.start * v;
            par_gemm_rows(
                1.0,
                l10_slice,
                u01_slice.block(0, cols.start * v, ks, w),
                &active.local,
                acc.touch_rows(active.local.iter().copied(), c0..c0 + w),
            );
        };

        phase(comm, "update_a11");
        if cfg.lookahead && !last {
            // 7a. Update the next panel's tile column first, so its
            // z-reduction reads the same values it would under the
            // blocking schedule.
            let next = step + 1;
            let head = trail_cols.first() == Some(&next);
            if head {
                apply_update(&mut state.acc, 0..1);
            }
            // 7b. Form panel `next` and post its three broadcasts. The
            // sequence numbers keep concurrent trees on distinct tags.
            let form = form_panel(&net, guard, &active, &orig, &state.acc, next);
            phase(comm, "bcast_a00");
            let root1 = g.rank_of(0, next % g.py, 0);
            let seq = 3 * next as u64;
            let flag = vec![if form.err.is_some() { 1.0 } else { 0.0 }];
            let status_req = comm.ibcast_f64(root1, seq, flag);
            let a00_req = comm.ibcast_f64(root1, seq + 1, form.a00_flat);
            let piv_req = comm.ibcast_u64(root1, seq + 2, form.piv_ids);
            pending = Some(PendingPanel {
                vals: form.vals,
                err: form.err,
                status: status_req,
                a00: a00_req,
                piv: piv_req,
            });
            // 7c. Bulk trailing update, overlapping the posted broadcasts.
            phase(comm, "update_a11");
            apply_update(&mut state.acc, if head { 1 } else { 0 }..trail_cols.len());
        } else {
            apply_update(&mut state.acc, 0..trail_cols.len());
        }

        // ---- Step boundary --------------------------------------------
        state.step = step + 1;
        match at_step_end {
            Some(at_step_end) if !last => at_step_end(&state, guard),
            _ => {}
        }
    }

    phase_end(comm);
    Ok(state)
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

/// The outcome of forming one panel: the owning ranks' reduced panel values,
/// one row per active row (empty elsewhere), and the tournament's results on
/// the panel ranks (`a00_flat`/`piv_ids` empty, `err` set, on failure).
pub(crate) struct PanelForm {
    vals: Matrix,
    a00_flat: Vec<f64>,
    piv_ids: Vec<u64>,
    err: Option<dense::Error>,
}

impl PanelForm {
    /// Blocking broadcast of the formed panel from `root` to every rank:
    /// one status word first, so a singular panel (first row `row0`) aborts
    /// every rank cleanly instead of deadlocking the world, then `A00` and
    /// the pivot ids. Returns `(panel values, A00, pivot ids)`.
    pub(crate) fn bcast(
        self,
        comm: &Comm,
        guard: &mut Guard,
        root: usize,
        row0: usize,
    ) -> Result<(Matrix, Buf<f64>, Vec<u64>), dense::Error> {
        phase(comm, "bcast_a00");
        let mut status = vec![if self.err.is_some() { 1.0 } else { 0.0 }];
        comm.bcast_f64(root, &mut status);
        if status[0] != 0.0 {
            return Err(self.err.unwrap_or(dense::Error::SingularAt(row0)));
        }
        let v = self.vals.cols();
        let a00 = guard.bcast(comm, root, self.a00_flat, v, v);
        let mut piv_ids = self.piv_ids;
        comm.bcast_u64(root, &mut piv_ids);
        Ok((self.vals, a00, piv_ids))
    }
}

/// Panel broadcasts in flight between two steps (lookahead mode): the
/// formation outputs plus the three posted broadcast requests.
struct PendingPanel<'c> {
    vals: Matrix,
    err: Option<dense::Error>,
    status: BcastRequest<'c>,
    a00: BcastRequest<'c>,
    piv: BcastRequest<'c>,
}

/// Steps 1–2 of the algorithm for block step `step`: reduce the active rows
/// of tile column `step` along z onto layer 0, then run the pivot
/// tournament across the panel ranks. Pure with respect to the schedule —
/// the blocking path calls it at the top of step `step`, the lookahead path
/// at the bottom of step `step − 1`; the active rows and accumulator state
/// it reads are identical at both call sites.
pub(crate) fn form_panel(
    net: &Net<'_>,
    guard: &mut Guard,
    active: &ActiveRows,
    orig: &TileStore,
    acc: &TileStore,
    step: usize,
) -> PanelForm {
    let (comm, g, v) = (net.comm, net.til.grid, net.til.v);
    let (_, pj, pk) = g.coords(comm.rank());
    let jt = step % g.py;

    // ---- 1. Reduce next block column ----------------------------------
    phase(comm, "reduce_col");
    let mut vals = Matrix::zeros(0, v);
    if pj == jt {
        let (lrows, c0) = (active.local.iter().copied(), orig.col0(step));
        let buf = reduce_rows(net, guard, (orig, acc), lrows, c0..c0 + v);
        if pk == 0 {
            vals = Matrix::from_vec(active.local.len(), v, buf);
        }
    }

    // ---- 2. TournPivot -------------------------------------------------
    phase(comm, "pivoting");
    let mut a00_flat: Vec<f64> = Vec::new();
    let mut piv_ids: Vec<u64> = Vec::new();
    let mut err: Option<dense::Error> = None;
    if pj == jt && pk == 0 {
        let ids: Vec<u64> = active.global.iter().map(|&r| r as u64).collect();
        match tournament(net.panel.as_ref().unwrap(), &vals, &ids, v) {
            Ok(pb) => {
                a00_flat = pb.a00.into_vec();
                piv_ids = pb.ids;
            }
            // The failing factorization is redundant and deterministic,
            // so every panel rank lands here together.
            Err(e) => err = Some(e),
        }
    }
    PanelForm {
        vals,
        a00_flat,
        piv_ids,
        err,
    }
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
        // error (no deadlock).
        let n = 16;
        let mut a = random_matrix(n, n, 99);
        for i in 0..n {
            a[(i, 1)] = a[(i, 0)];
        }
        let cfg = ConfluxConfig::new(n, 4, Grid3::new(2, 2, 2));
        match conflux_lu(&cfg, &a) {
            Err(dense::Error::SingularAt(_)) => {}
            other => panic!("expected SingularAt, got {:?}", other.map(|_| ())),
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
