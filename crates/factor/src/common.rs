//! Shared machinery for the distributed factorization schedules: tile
//! bookkeeping, active-row masks (the paper's row masking), the rank
//! programs' step-boundary `State`, and assembly of collected factor
//! entries into a packed LU matrix.

use dense::Matrix;
use std::collections::HashMap;
use xmpi::{Comm, Grid3};

/// A rank's `v × v` tiles, keyed by tile coordinates `(I, J)`.
pub(crate) type Tiles = HashMap<(usize, usize), Matrix>;

/// Declare a measurement phase on `comm`, embedding the rank's cumulative
/// local flop count (from [`dense::flops::thread_flops`] — each simulated
/// rank is one OS thread) so event traces can attribute computation to the
/// span between consecutive markers. Falls back to plain phase accounting
/// for untraced worlds.
pub(crate) fn phase(comm: &Comm, name: &str) {
    comm.set_phase_with_flops(name, dense::flops::thread_flops());
}

/// Close the final phase span of a rank program: records an `"_end"` marker
/// carrying the final flop count so the last real phase's computation and
/// duration are bounded in traces. Phases without traffic never appear in
/// byte statistics, so untraced accounting is unaffected.
pub(crate) fn phase_end(comm: &Comm) {
    phase(comm, "_end");
}

/// Tile-level view of an `n × n` matrix cut into `v × v` tiles over a 3D
/// grid: tile `(I, J)` belongs to 2D coordinates `(I mod px, J mod py)` on
/// every layer.
#[derive(Debug, Clone, Copy)]
pub struct Tiling {
    /// Matrix dimension.
    pub n: usize,
    /// Tile side (the paper's block size `v`).
    pub v: usize,
    /// Number of tiles per dimension (`n / v`).
    pub nt: usize,
    /// Process grid.
    pub grid: Grid3,
}

impl Tiling {
    /// Create a tiling.
    ///
    /// # Panics
    /// If `v` does not divide `n`, or `pz` does not divide `v` (each layer
    /// must own an equal slice of the reduction dimension).
    pub fn new(n: usize, v: usize, grid: Grid3) -> Self {
        assert!(
            v > 0 && n.is_multiple_of(v),
            "block size v={v} must divide n={n}"
        );
        assert!(
            v.is_multiple_of(grid.pz),
            "v={v} must be a multiple of pz={}",
            grid.pz
        );
        Tiling {
            n,
            v,
            nt: n / v,
            grid,
        }
    }

    /// Does the rank at 2D coordinates `(pi, pj)` own tile `(ti, tj)`?
    #[inline]
    pub fn owns(&self, pi: usize, pj: usize, ti: usize, tj: usize) -> bool {
        ti % self.grid.px == pi && tj % self.grid.py == pj
    }

    /// Tile row indices owned by process row `pi`, ascending.
    pub fn tile_rows_of(&self, pi: usize) -> Vec<usize> {
        (pi..self.nt).step_by(self.grid.px).collect()
    }

    /// Tile column indices owned by process column `pj`, ascending.
    pub fn tile_cols_of(&self, pj: usize) -> Vec<usize> {
        (pj..self.nt).step_by(self.grid.py).collect()
    }

    /// Width of the reduction-dimension slice each layer handles.
    #[inline]
    pub fn kslice(&self) -> usize {
        self.v / self.grid.pz
    }

    /// Global rows covered by tile row `ti`.
    #[inline]
    pub fn rows_of_tile(&self, ti: usize) -> std::ops::Range<usize> {
        ti * self.v..(ti + 1) * self.v
    }
}

/// The paper's *row masking*: instead of swapping pivot rows, COnfLUX tracks
/// which global rows are still unfactored ("active") and updates only those.
/// Every rank maintains an identical copy, updated from the broadcast pivot
/// ids each step.
#[derive(Debug, Clone)]
pub struct RowMask {
    active: Vec<bool>,
    n_active: usize,
}

impl RowMask {
    /// All rows active.
    pub fn new(n: usize) -> Self {
        RowMask {
            active: vec![true; n],
            n_active: n,
        }
    }

    /// Is global row `r` still active?
    #[inline]
    pub fn is_active(&self, r: usize) -> bool {
        self.active[r]
    }

    /// Number of active rows.
    #[inline]
    pub fn count(&self) -> usize {
        self.n_active
    }

    /// Retire a set of freshly chosen pivot rows.
    ///
    /// # Panics
    /// If a row is retired twice (a schedule bug).
    pub fn retire(&mut self, rows: &[usize]) {
        for &r in rows {
            assert!(self.active[r], "row {r} retired twice");
            self.active[r] = false;
            self.n_active -= 1;
        }
    }

    /// Active rows within `range`, ascending.
    pub fn active_in(&self, range: std::ops::Range<usize>) -> Vec<usize> {
        range.filter(|&r| self.active[r]).collect()
    }
}

/// A factor entry produced somewhere in the distributed computation:
/// `(global row, global column, value)`. Rows are *original* (unpermuted)
/// indices; the final permutation re-addresses them during assembly.
pub type Entry = (u32, u32, f64);

/// Everything a COnfLUX / COnfCHOX rank carries from one block step to the
/// next, besides its immutable input tiles. A rank program starts from a
/// `State` — empty for a fresh run, decoded from a checkpoint for a resumed
/// one — and hands the updated value to its end-of-step callback, so the
/// step boundary is the one place a run can be snapshotted or re-entered.
#[derive(Default)]
pub(crate) struct State {
    /// The next block step to execute.
    pub step: usize,
    /// Pivot rows chosen so far, in pivot order (stays empty for Cholesky).
    pub perm: Vec<usize>,
    /// Factor entries this rank has collected so far.
    pub entries: Vec<Entry>,
    /// Layer-local Schur-update accumulators, allocated on first touch.
    pub acc: Tiles,
}

/// The drivers' input check: `a` must be the `n × n` matrix the
/// configuration was built for. Runs before any world is launched.
pub(crate) fn check_shape(a: &Matrix, n: usize) -> Result<(), dense::Error> {
    let (rows, cols) = (a.rows(), a.cols());
    if (rows, cols) == (n, n) {
        return Ok(());
    }
    Err(dense::Error::ShapeMismatch {
        expected: n,
        rows,
        cols,
    })
}

/// Layer-0 tile staging straight from a globally-known matrix (the
/// "already distributed" convention of the paper: no measured traffic).
/// `lower_only` keeps just the tiles on or below the diagonal — COnfCHOX's
/// storage.
pub(crate) fn stage_from_global(comm: &Comm, til: &Tiling, a: &Matrix, lower_only: bool) -> Tiles {
    let (pi, pj, pk) = til.grid.coords(comm.rank());
    let v = til.v;
    let mut orig = Tiles::new();
    if pk == 0 {
        for ti in til.tile_rows_of(pi) {
            for tj in til.tile_cols_of(pj) {
                if ti >= tj || !lower_only {
                    orig.insert((ti, tj), a.block(ti * v, tj * v, v, v).to_owned());
                }
            }
        }
    }
    orig
}

/// Appends this rank's up-to-date contribution for global row `r` of tile
/// column `tj`: original value (layer 0) minus accumulated updates.
pub(crate) fn push_contrib(
    orig: &Tiles,
    acc: &Tiles,
    r: usize,
    tj: usize,
    v: usize,
    buf: &mut Vec<f64>,
) {
    let ti = r / v;
    let lr = r % v;
    let o = orig.get(&(ti, tj));
    let ac = acc.get(&(ti, tj));
    for c in 0..v {
        let oo = o.map_or(0.0, |m| m[(lr, c)]);
        let aa = ac.map_or(0.0, |m| m[(lr, c)]);
        buf.push(oo - aa);
    }
}

/// Assemble collected factor entries into a packed LU matrix in pivoted row
/// coordinates, i.e. a matrix `F` with `P·A = L·U`, `L` unit-lower in `F`'s
/// strict lower triangle and `U` in its upper triangle, where row `s` of
/// `P·A` is original row `perm[s]`.
///
/// # Panics
/// If an entry's row never appears in `perm`, or two entries collide.
pub fn assemble_packed(n: usize, perm: &[usize], entries: &[Vec<Entry>]) -> Matrix {
    assert_eq!(perm.len(), n, "permutation must cover all rows");
    let mut pos = vec![usize::MAX; n];
    for (s, &r) in perm.iter().enumerate() {
        assert!(pos[r] == usize::MAX, "row {r} appears twice in perm");
        pos[r] = s;
    }
    let mut f = Matrix::zeros(n, n);
    let mut seen = vec![false; n * n];
    for rank_entries in entries {
        for &(r, c, val) in rank_entries {
            let s = pos[r as usize];
            assert!(s != usize::MAX, "entry row {r} missing from perm");
            let idx = s * n + c as usize;
            assert!(!seen[idx], "duplicate factor entry at pivoted ({s},{c})");
            seen[idx] = true;
            f[(s, c as usize)] = val;
        }
    }
    f
}

/// Pick a processor grid *and* block size jointly for an `n × n` problem on
/// `p` ranks: among replication-preferring grids (see
/// [`Grid3::for_processors`]), choose the best one that admits a valid block
/// size — a grid like `[3,3,3]` is skipped for `n = 512` because no multiple
/// of 3 divides a power of two.
///
/// The block-size target follows the paper's tuning `v = a·c` (a small
/// multiple of the replication depth).
pub fn pick_grid_and_block(n: usize, p: usize) -> (Grid3, usize) {
    let mut best: Option<(f64, Grid3, usize)> = None;
    for c in 1..=p {
        if !p.is_multiple_of(c) {
            continue;
        }
        let layer = xmpi::Grid2::near_square(p / c);
        if c > layer.rows.min(layer.cols) {
            continue;
        }
        // v = a·c with a ≈ 4, floored at 16: small enough to keep the
        // O(N·v) A00-broadcast term down, big enough that per-step message
        // latency does not dominate (the paper's hardware-tuning knob).
        let target = (4 * c).max(16).min(n);
        let Some(v) = choose_block(n, c, target) else {
            continue;
        };
        let aspect =
            (layer.rows + layer.cols) as f64 / (2.0 * ((layer.rows * layer.cols) as f64).sqrt());
        let cost = aspect / (c as f64).sqrt();
        if best.is_none_or(|(bc, _, _)| cost < bc) {
            best = Some((cost, Grid3::new(layer.rows, layer.cols, c), v));
        }
    }
    let (_, grid, v) = best.unwrap_or_else(|| {
        // Last resort: 1D row grid, any divisor of n.
        (
            0.0,
            Grid3::new(p, 1, 1),
            choose_block(n, 1, 8).expect("n ≥ 1 has a divisor"),
        )
    });
    (grid, v)
}

/// Pick a block size for an `n × n` problem on a given grid: a divisor of
/// `n`, multiple of `pz`, as close as possible to `target` (the paper tunes
/// `v = a·P·M/N²`; this helper handles the divisibility constraints).
///
/// Returns `None` if no valid block size exists.
pub fn choose_block(n: usize, pz: usize, target: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for v in 1..=n {
        if !n.is_multiple_of(v) || v % pz != 0 {
            continue;
        }
        let better = match best {
            None => true,
            Some(b) => (v as i64 - target as i64).abs() < (b as i64 - target as i64).abs(),
        };
        if better {
            best = Some(v);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiling_ownership_partitions_tiles() {
        let g = Grid3::new(2, 3, 2);
        let t = Tiling::new(24, 4, g);
        assert_eq!(t.nt, 6);
        let mut count = 0;
        for pi in 0..2 {
            for pj in 0..3 {
                for ti in 0..6 {
                    for tj in 0..6 {
                        if t.owns(pi, pj, ti, tj) {
                            count += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(count, 36, "each tile has exactly one 2D owner");
        assert_eq!(t.tile_rows_of(1), vec![1, 3, 5]);
        assert_eq!(t.kslice(), 2);
        assert_eq!(t.rows_of_tile(2), 8..12);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn tiling_rejects_nondivisor_block() {
        Tiling::new(10, 3, Grid3::new(1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "multiple of pz")]
    fn tiling_rejects_bad_kslice() {
        Tiling::new(12, 3, Grid3::new(1, 1, 2));
    }

    #[test]
    fn row_mask_retires_and_counts() {
        let mut m = RowMask::new(10);
        assert_eq!(m.count(), 10);
        m.retire(&[3, 7]);
        assert!(!m.is_active(3));
        assert!(m.is_active(4));
        assert_eq!(m.count(), 8);
        assert_eq!(m.active_in(2..8), vec![2, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "retired twice")]
    fn double_retire_is_a_bug() {
        let mut m = RowMask::new(4);
        m.retire(&[1]);
        m.retire(&[1]);
    }

    #[test]
    fn assemble_places_entries_in_pivot_order() {
        // 2x2: perm = [1, 0]: original row 1 is the first pivot.
        let entries = vec![
            vec![(1u32, 0u32, 4.0), (1, 1, 5.0)], // U row for pivot 0
            vec![(0u32, 0u32, 0.5), (0, 1, 3.0)], // L entry + U for pivot 1
        ];
        let f = assemble_packed(2, &[1, 0], &entries);
        assert_eq!(f[(0, 0)], 4.0);
        assert_eq!(f[(0, 1)], 5.0);
        assert_eq!(f[(1, 0)], 0.5);
        assert_eq!(f[(1, 1)], 3.0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn assemble_rejects_collisions() {
        let entries = vec![vec![(0u32, 0u32, 1.0), (0, 0, 2.0)]];
        assemble_packed(1, &[0], &entries);
    }

    #[test]
    fn pick_grid_and_block_handles_awkward_factorizations() {
        // p=27 wants a 3x3x3 cube, but n=512 has no multiple-of-3 divisor:
        // the picker must fall back to a feasible grid.
        let (g, v) = pick_grid_and_block(512, 27);
        assert_eq!(g.size(), 27);
        assert_eq!(512 % v, 0);
        assert_eq!(v % g.pz, 0);
        // Friendly case keeps full replication.
        let (g, v) = pick_grid_and_block(512, 64);
        assert_eq!((g.px, g.py, g.pz), (4, 4, 4));
        assert_eq!(v % 4, 0);
        // Prime p.
        let (g, v) = pick_grid_and_block(100, 7);
        assert_eq!(g.size(), 7);
        assert_eq!(100 % v, 0);
    }

    #[test]
    fn choose_block_respects_constraints() {
        assert_eq!(choose_block(64, 2, 16), Some(16));
        assert_eq!(choose_block(64, 4, 10), Some(8));
        // n=12, pz=2: divisors that are even: 2,4,6,12; target 5 -> 4 or 6.
        let v = choose_block(12, 2, 5).unwrap();
        assert!(v == 4 || v == 6);
        // Impossible: n=9, pz=2 (no even divisor of 9).
        assert_eq!(choose_block(9, 2, 3), None);
        // pz=1 always works.
        assert_eq!(choose_block(7, 1, 100), Some(7));
    }
}
