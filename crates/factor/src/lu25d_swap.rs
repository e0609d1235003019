//! 2.5D LU with **explicit row swapping** — the executable ablation for
//! COnfLUX's row masking (paper §7.3, "Row Swapping vs. Row Masking").
//!
//! This schedule is COnfLUX with one change: after tournament pivoting, the
//! chosen pivot rows are *physically swapped* into the diagonal block
//! positions, exactly as ScaLAPACK-style and CANDMC-style codes do. On a
//! replicated 2.5D decomposition every layer's share of the update sums
//! must be swapped too, which is the paper's argument for masking: swapping
//! inflates the I/O cost by the replication depth, from `O(N²/P)` to
//! `O(N³/(P√M))` — the order of the whole factorization.
//!
//! Everything is indexed by *position* (the physical slot a row currently
//! occupies); `id_at[pos]` tracks which original row lives where, and the
//! final permutation is read off `id_at`.
//!
//! The data plane is COnfLUX's (the `common` module): a rank's share is one
//! `TileStore`, updated in place, whose local row `l` holds position `l`'s
//! data, and the panel is formed by COnfLUX's `form_panel`. Without a mask,
//! the rows below a step's diagonal tile and the columns right of it are
//! contiguous local ranges, so the Schur update is one in-place `gemm` on a
//! sub-block of the store. A row swap is a slice exchange: the two rows'
//! segments left and right of the panel column trade places locally, or
//! travel as one message per rank pair. The left segments are the rows' `L`
//! entries, which therefore follow their row to its final position, where
//! the row's owner also gets to write `A00` and `U01`: the whole factor ends
//! up in the layer-0 stores, by position, and nothing is collected.

use crate::common::{
    check_shape, phase, phase_end, reduce_rows, split_results, stage_from_global, ActiveRows,
    Collected, Net, RankResult, TileStore, Tiling,
};
use crate::conflux::{form_panel, scatter_z, solve_u01, LuOutput};
use crate::ft::Guard;
use dense::gemm::{gemm, Trans};
use dense::trsm::Uplo;
use dense::{MatRef, Matrix};
use std::ops::Range;
use xmpi::{Buf, Comm, Grid3};

const TAG_SWAP: u64 = 9_000_000;
const TAG_L10: u64 = 9_500_000;
const TAG_U01: u64 = 9_800_000;

/// Configuration (same shape as [`crate::ConfluxConfig`]).
#[derive(Debug, Clone)]
pub struct SwapLuConfig {
    /// Matrix dimension (must be divisible by `v`).
    pub n: usize,
    /// Block size `v` (must be a multiple of `grid.pz`).
    pub v: usize,
    /// Processor grid.
    pub grid: Grid3,
    /// Collect factor entries for host-side assembly.
    pub collect: bool,
}

impl SwapLuConfig {
    /// Validated constructor.
    ///
    /// # Panics
    /// If `v` does not divide `n` or `pz` does not divide `v`.
    pub fn new(n: usize, v: usize, grid: Grid3) -> Self {
        let _ = Tiling::new(n, v, grid);
        SwapLuConfig {
            n,
            v,
            grid,
            collect: true,
        }
    }

    /// Disable collection for volume-only runs.
    pub fn volume_only(mut self) -> Self {
        self.collect = false;
        self
    }
}

/// Factor `a` with the swapping 2.5D schedule. The output is COnfLUX's:
/// `perm[s]` is the original row occupying (pivoted) position `s`, and
/// `stats` includes all swap traffic.
///
/// # Errors
/// [`dense::Error::ShapeMismatch`] if `a` is not `n × n`; kernel errors
/// (singularity) propagate.
pub fn lu25d_swap(cfg: &SwapLuConfig, a: &Matrix) -> Result<LuOutput, dense::Error> {
    check_shape(a, cfg.n)?;
    let out = xmpi::run(cfg.grid.size(), |comm| rank_program(comm, cfg, a));
    let (parts, perm) = split_results(out.results)?;
    let packed = cfg.collect.then(|| {
        // Pieces are addressed by position: rows are where they belong.
        let identity: Vec<usize> = (0..cfg.n).collect();
        Collected::assemble(cfg.n, cfg.v, &identity, &parts)
    });
    Ok(LuOutput {
        perm,
        packed,
        stats: out.stats,
    })
}

fn rank_program(comm: &Comm, cfg: &SwapLuConfig, a: &Matrix) -> RankResult {
    let g = cfg.grid;
    let til = Tiling::new(cfg.n, cfg.v, g);
    let (pi, pj, pk) = g.coords(comm.rank());
    let (n, v, nt, ks) = (cfg.n, cfg.v, til.nt, til.kslice());

    let net = Net::new(comm, til);

    // The rank's share, indexed by position: layer 0's copy of `A` (zeros
    // above it), updated in place.
    let mut store = stage_from_global(comm, &til, a, false);
    let guard = &mut Guard::new(false);
    // The reduced panel column and pivot block row, reused by every step.
    let (mut panel, mut a01) = (Vec::new(), Vec::new());
    let mut id_at: Vec<usize> = (0..n).collect();
    // Positions of the owned tile rows `≥ ti`, ascending like their local rows.
    let positions_from = |ti: usize| {
        let tiles = til.tile_rows_of(pi).into_iter().filter(move |&t| t >= ti);
        tiles.flat_map(|t| til.rows_of_tile(t))
    };

    for step in 0..nt {
        let jt = step % g.py;
        let it = step % g.px;
        let last = step + 1 == nt;
        // Positions of the diagonal block, and the local rows of the owned
        // tile rows at or below it (the panel) and strictly below it.
        let diag = til.rows_of_tile(step);
        let panel_rows = store.rows_from(step);
        let below = store.rows_from(step + 1);

        // ---- 1–3. Form the panel and broadcast A00 + pivot positions ----
        // COnfLUX's panel formation with every position at or below the
        // diagonal block "active": z-reduce block column `step`, then the
        // tournament over the panel ranks.
        let active = ActiveRows {
            global: positions_from(step).collect(),
            local: panel_rows.clone().collect(),
        };
        let form = form_panel(&net, guard, &active, &store, step, &mut panel, false);
        let root = g.rank_of(0, jt, 0);
        let (a00_buf, piv_pos) = form.bcast(comm, guard, root, v, step * v)?;
        let a00 = MatRef::from_slice(&a00_buf[..v * v], v, v, v);

        // ---- 4. Row swapping: move pivots into the diagonal block --------
        // This is what masking avoids: every swap moves full rows of every
        // layer's store — everything but the panel column, whose reduced
        // values travel with `panel`.
        phase(comm, "row_swaps");
        let width = store.cols_from(0).end;
        let panel_c0 = if pj == jt { store.col0(step) } else { width };
        let keep = [0..panel_c0, (panel_c0 + v).min(width)..width];
        let mut targets: Vec<usize> = piv_pos.iter().map(|&p| p as usize).collect();
        for r in 0..v {
            let tgt = step * v + r;
            let cur = targets[r];
            if cur == tgt {
                continue;
            }
            // Later pending pivots sitting at `tgt` move to `cur`.
            for t2 in targets.iter_mut().skip(r + 1) {
                if *t2 == tgt {
                    *t2 = cur;
                }
            }
            if let Some(swap) = Swap::of(&til, &store, comm.rank(), tgt, cur) {
                let tag = TAG_SWAP + step as u64 * 64 + r as u64;
                swap_store_rows(comm, &mut store, &keep, &swap, tag);
                if pj == jt && pk == 0 {
                    swap_panel_rows(comm, &mut panel, v, panel_rows.start, &swap, tag + 32);
                }
            }
            id_at.swap(tgt, cur);
        }
        if (pi, pj, pk) == (it, jt, 0) {
            // The diagonal tile, dead since the panel's reduction, takes A00.
            store.tile_mut(step, step).copy_from(a00);
        }

        // ---- 5. Panel solve: L10 = A10·U00⁻¹ ------------------------------
        phase(comm, "panel_trsm");
        let rows = below.len();
        let mut l10: &[f64] = &[];
        if pj == jt && pk == 0 && rows > 0 {
            // Panel rows of the tiles > step (tile `step`'s rows are A00 now).
            let solved = &mut panel[(below.start - panel_rows.start) * v..];
            store.solve_l10((Uplo::Upper, Trans::N), a00, solved, step, below.clone());
            l10 = solved;
        }

        if last {
            continue;
        }

        // ---- 6. Reduce pivot block row, solve U01 -------------------------
        phase(comm, "reduce_pivots");
        let trail = store.cols_from(step + 1);
        let trail_len = trail.len();
        if trail_len > 0 && pi == it {
            // Tile row `step` lives on process row it = step mod px.
            let lrow0 = store.local_row(diag.start);
            let lrows = lrow0..lrow0 + v;
            reduce_rows(&net, guard, &store, lrows, trail.clone(), &mut a01);
            if pk == 0 {
                solve_u01(a00, &mut a01);
                // No later step touches these rows: `U01` stays in them.
                for (u, lrow) in a01.chunks_exact(trail_len).zip(lrow0..) {
                    store.row_mut(lrow)[trail.clone()].copy_from_slice(u);
                }
            }
        }

        // ---- 7. Scatter L10 (z-slice + y-broadcast) -----------------------
        phase(comm, "scatter_panels");
        let mut l10_flat = Buf::from(Vec::new());
        if rows > 0 {
            let tag = TAG_L10 + step as u64;
            l10_flat = scatter_z(&net, guard, (&net.yrow, jt), tag, (rows, ks), |k| {
                MatRef::from_slice(l10, rows, v, v).block(0, k * ks, rows, ks)
            });
        }

        // ---- 8. Scatter U01 (z-slice + x-broadcast) -----------------------
        let mut u01_flat = Buf::from(Vec::new());
        if trail_len > 0 {
            let tag = TAG_U01 + step as u64;
            u01_flat = scatter_z(&net, guard, (&net.xcol, it), tag, (ks, trail_len), |k| {
                MatRef::from_slice(&a01, v, trail_len, trail_len).block(k * ks, 0, ks, trail_len)
            });
        }

        // ---- 9. Layer-local partial Schur update --------------------------
        // One GEMM straight into the trailing rows × trailing columns, a
        // contiguous sub-block of the local store.
        phase(comm, "update_a11");
        if rows > 0 && trail_len > 0 {
            let trailing = store.cols_mut(trail);
            gemm(
                Trans::N,
                Trans::N,
                -1.0,
                MatRef::from_slice(&l10_flat[..rows * ks], rows, ks, ks),
                MatRef::from_slice(&u01_flat[..ks * trail_len], ks, trail_len, trail_len),
                1.0,
                trailing.block(below.start, 0, rows, trail_len),
            );
        }
    }

    phase_end(comm);
    // A layer-0 store is now its rank's rows of the packed factor, whole.
    let rows = (cfg.collect && pk == 0).then(|| store.into_lower(|_| n));
    Ok(((rows.unwrap_or_default(), Collected::default()), id_at))
}

/// The calling rank's part in exchanging the rows at two positions.
enum Swap {
    /// Both positions are local rows of this rank.
    Local(usize, usize),
    /// This rank holds one of them, at local row `lrow`, and trades it with
    /// world rank `partner` (same process column and layer).
    Remote { lrow: usize, partner: usize },
}

impl Swap {
    /// What world rank `rank` does to exchange positions `p1` and `p2`
    /// (`None`: its process row holds neither).
    fn of(til: &Tiling, store: &TileStore, rank: usize, p1: usize, p2: usize) -> Option<Swap> {
        let (g, v) = (til.grid, til.v);
        let (pi, pj, pk) = g.coords(rank);
        let (o1, o2) = ((p1 / v) % g.px, (p2 / v) % g.px);
        let (l1, l2) = (store.local_row(p1), store.local_row(p2));
        let remote = |lrow, o| Swap::Remote {
            lrow,
            partner: g.rank_of(o, pj, pk),
        };
        match (pi == o1, pi == o2) {
            (true, true) => Some(Swap::Local(l1, l2)),
            (true, false) => Some(remote(l1, o2)),
            (false, true) => Some(remote(l2, o1)),
            (false, false) => None,
        }
    }
}

/// Exchange the segments `keep` of two rows of `store`. Locally the slices
/// trade places; across ranks both segments travel as one message each way.
fn swap_store_rows(
    comm: &Comm,
    store: &mut TileStore,
    keep: &[Range<usize>; 2],
    swap: &Swap,
    tag: u64,
) {
    match *swap {
        Swap::Local(l1, l2) => {
            for cols in keep {
                store.swap_rows(l1, l2, cols.clone());
            }
        }
        Swap::Remote { lrow, partner } => {
            if keep.iter().all(|cols| cols.is_empty()) {
                return;
            }
            let row = store.row(lrow);
            let buf = [&row[keep[0].clone()], &row[keep[1].clone()]].concat();
            let theirs = comm.sendrecv_f64(partner, tag, &buf);
            let (left, right) = theirs.split_at(keep[0].len());
            store.row_mut(lrow)[keep[0].clone()].copy_from_slice(left);
            store.row_mut(lrow)[keep[1].clone()].copy_from_slice(right);
        }
    }
}

/// Exchange the panel-buffer rows of the two positions between the owning
/// panel ranks (the reduced column values travel with the row). Panel row
/// `i` (`v` values) is local row `first + i` of the store.
fn swap_panel_rows(comm: &Comm, panel: &mut [f64], v: usize, first: usize, swap: &Swap, tag: u64) {
    match *swap {
        Swap::Local(l1, l2) => {
            let (lo, hi) = (l1.min(l2) - first, l1.max(l2) - first);
            let (head, tail) = panel.split_at_mut(hi * v);
            head[lo * v..(lo + 1) * v].swap_with_slice(&mut tail[..v]);
        }
        Swap::Remote { lrow, partner } => {
            let row = &mut panel[(lrow - first) * v..(lrow - first + 1) * v];
            let theirs = comm.sendrecv_f64(partner, tag, row);
            row.copy_from_slice(&theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen::{needs_pivoting, random_matrix};
    use dense::norms::lu_residual_perm;

    fn check(n: usize, v: usize, grid: Grid3, seed: u64) {
        let a = random_matrix(n, n, seed);
        let cfg = SwapLuConfig::new(n, v, grid);
        let out = lu25d_swap(&cfg, &a).unwrap();
        let mut sorted = out.perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        let res = lu_residual_perm(&a, out.packed.as_ref().unwrap(), &out.perm);
        assert!(res < 1e-10, "residual {res} for n={n} v={v} grid={grid:?}");
    }

    #[test]
    fn single_rank() {
        check(16, 4, Grid3::new(1, 1, 1), 1);
    }

    #[test]
    fn various_grids() {
        check(24, 4, Grid3::new(2, 2, 1), 2);
        check(24, 4, Grid3::new(2, 2, 2), 3);
        check(32, 8, Grid3::new(4, 2, 2), 4);
        check(36, 6, Grid3::new(3, 2, 3), 5);
    }

    #[test]
    fn pivot_stress() {
        let n = 24;
        let a = needs_pivoting(n, 9);
        let cfg = SwapLuConfig::new(n, 4, Grid3::new(2, 2, 2));
        let out = lu25d_swap(&cfg, &a).unwrap();
        let res = lu_residual_perm(&a, out.packed.as_ref().unwrap(), &out.perm);
        assert!(res < 1e-8, "residual {res}");
    }

    #[test]
    fn swapping_costs_more_than_masking_with_replication() {
        // The paper's §7.3 argument, measured: with c > 1 the swap variant
        // must move strictly more data than masking COnfLUX.
        use crate::conflux::{conflux_lu, ConfluxConfig};
        let n = 64;
        let a = random_matrix(n, n, 11);
        let grid = Grid3::new(2, 2, 2);
        let mask = conflux_lu(&ConfluxConfig::new(n, 8, grid).volume_only(), &a)
            .unwrap()
            .stats
            .total_bytes_sent();
        let swap = lu25d_swap(&SwapLuConfig::new(n, 8, grid).volume_only(), &a)
            .unwrap()
            .stats
            .total_bytes_sent();
        assert!(
            swap > mask,
            "swapping ({swap}) should cost more than masking ({mask})"
        );
    }
}
