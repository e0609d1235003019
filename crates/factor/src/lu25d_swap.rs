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
//! The code says so: [`lu25d_swap`] runs COnfLUX's step loop under its
//! swapping pivot policy, and this module holds only that policy's
//! `row_swaps` phase. A row swap is a slice exchange on every layer's store
//! — the two rows' segments left and right of the panel column trade places
//! locally or travel as one message per rank pair — and the panel ranks
//! swap the reduced panel rows too. `id_at[pos]`, the original row at
//! position `pos` (the physical slot a row occupies), is the permutation.

use crate::common::{phase, swap_store_rows, Net, Swap, TileStore};
use crate::conflux::{factor_lu, ConfluxConfig, LuOutput, PivotPolicy};
use dense::Matrix;
use xmpi::Comm;

const TAG_SWAP: u64 = 9_000_000;

/// Factor `a` with COnfLUX's step loop, the pivot rows swapped into place
/// instead of masked. The output is COnfLUX's: `perm[s]` is the original row
/// at (pivoted) position `s`, and `stats` includes all swap traffic.
///
/// # Errors
/// [`dense::Error::ShapeMismatch`] if `a` is not `n × n`; kernel errors
/// (singularity) propagate.
pub fn lu25d_swap(cfg: &ConfluxConfig, a: &Matrix) -> Result<LuOutput, dense::Error> {
    factor_lu(cfg, a, PivotPolicy::Swap)
}

/// Step `step`'s `row_swaps` phase, what masking avoids: move the pivots at
/// positions `piv_pos` (in pivot order) into the diagonal positions
/// `step·v..(step+1)·v`, which it returns, on every layer's store — all but
/// the panel column, whose reduced values move in `panel` on the panel ranks
/// (panel row `i` is local row `rows_from(step).start + i`). `id_at`
/// follows the rows.
pub(crate) fn row_swaps(
    net: &Net<'_>,
    store: &mut TileStore,
    panel: &mut [f64],
    piv_pos: &[u64],
    step: usize,
    id_at: &mut [usize],
) -> Vec<usize> {
    let (comm, til, v) = (net.comm, &net.til, net.til.v);
    let (_, pj, pk) = til.grid.coords(comm.rank());
    let jt = step % til.grid.py;
    phase(comm, "row_swaps");
    let width = store.cols_from(0).end;
    let panel_c0 = if pj == jt { store.col0(step) } else { width };
    let keep = [0..panel_c0, (panel_c0 + v).min(width)..width];
    let first = store.rows_from(step).start;
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
        if let Some(swap) = Swap::of(til, store, comm.rank(), tgt, cur) {
            let tag = TAG_SWAP + step as u64 * 64 + r as u64;
            swap_store_rows(comm, store, &keep, &swap, tag);
            if pj == jt && pk == 0 {
                swap_panel_rows(comm, panel, v, first, &swap, tag + 32);
            }
        }
        id_at.swap(tgt, cur);
    }
    (step * v..(step + 1) * v).collect()
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
    use xmpi::Grid3;

    fn check(n: usize, v: usize, grid: Grid3, seed: u64) {
        let a = random_matrix(n, n, seed);
        let out = lu25d_swap(&ConfluxConfig::new(n, v, grid), &a).unwrap();
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
        let cfg = ConfluxConfig::new(n, 4, Grid3::new(2, 2, 2));
        let out = lu25d_swap(&cfg, &a).unwrap();
        let res = lu_residual_perm(&a, out.packed.as_ref().unwrap(), &out.perm);
        assert!(res < 1e-8, "residual {res}");
    }

    #[test]
    fn swapping_costs_more_than_masking_with_replication() {
        // The paper's §7.3 argument, measured: with c > 1 the swap variant
        // must move strictly more data than masking COnfLUX.
        use crate::conflux::conflux_lu;
        let n = 64;
        let a = random_matrix(n, n, 11);
        let grid = Grid3::new(2, 2, 2);
        let mask = conflux_lu(&ConfluxConfig::new(n, 8, grid).volume_only(), &a)
            .unwrap()
            .stats
            .total_bytes_sent();
        let swap = lu25d_swap(&ConfluxConfig::new(n, 8, grid).volume_only(), &a)
            .unwrap()
            .stats
            .total_bytes_sent();
        assert!(
            swap > mask,
            "swapping ({swap}) should cost more than masking ({mask})"
        );
    }
}
