//! The data plane every distributed schedule of this crate shares: how a
//! rank's share of a matrix is stored, and how the factor a world computes
//! reaches the host. Nothing outside this module knows either.
//!
//! # The local tile store
//!
//! A rank's block-cyclic share of the matrix is *one* dense row-major local
//! matrix (`TileStore`): tile `(I, J)` of the rank at 2D coordinates
//! `(I mod Px, J mod Py)` sits at local tile position `(I / Px, J / Py)`,
//! found by arithmetic. Ascending global rows (columns) of a rank are
//! ascending local rows (columns), so
//!
//! * the trailing tile rows (columns) of a step are one contiguous local
//!   range (`rows_from` / `cols_from`),
//! * a rank's active rows under row masking are an ascending list of local
//!   row indices ([`ActiveRows`]) — the form `dense::gemm_rows` updates
//!   in place,
//! * a rank's up-to-date contribution to a row segment is one slice of its
//!   store (`reduce_rows`),
//! * a physical row swap is a slice exchange between two local rows
//!   (`swap_rows`) or between a local row and a message (`row_mut`).
//!
//! A rank holds its share once, updated in place: layer 0 stages its copy
//! of `A`, the layers above start from zeros, and every layer's Schur update
//! is `store −= L10·U01` on its slice of the inner dimension. A panel column
//! is dead once reduced, so the panel rank writes the `L` rows it solves
//! back into it: a finished layer-0 store holds its rank's factor rows
//! ([`Lower`]) — of row `r`, the columns left of its pivot tile (COnfLUX;
//! the whole row with one process row) or up to its diagonal (COnfCHOX).
//!
//! COnfCHOX stores only tiles on or below the diagonal. Its stores are the
//! same row-major matrix with every local tile row cut off after its
//! diagonal tile (*lower-only* shape): the rows of one tile row share a
//! stride, and nothing is allocated for the strictly upper tiles.
//!
//! # Collected factor pieces
//!
//! What a rank computes for rows it may not own — COnfLUX's `A00` and
//! `U01` on a grid of more than one process row — and `mmm25d`'s share of
//! `C` are lists of dense blocks ([`Collected`]): original-row ids, column
//! runs, row-major values, so indices cost per block row and column run,
//! never per element. With one process row COnfLUX's ranks own every row of
//! their columns, write `A00` and `U01` into their stores, and collect
//! nothing. Stores and blocks together are what [`Collected::assemble`]
//! reads, a checkpoint snapshots, a socket rank ships home, and the
//! ScaLAPACK wrapper routes into the caller's layout; a one-rank world's
//! store, which then holds the whole factor, becomes the assembled matrix
//! with its rows pivoted in place.

use crate::ft::Guard;
use dense::gemm::Trans;
use dense::trsm::{trsm, Diag, Side, Uplo};
use dense::{MatMut, MatRef, Matrix};
use std::ops::Range;
use xmpi::{Comm, Grid3, Wire, XmpiError};

/// Declare a measurement phase on `comm`, embedding the rank's cumulative
/// local flop count (from [`dense::flops::thread_flops`] — each simulated
/// rank is one OS thread) so event traces can attribute computation to the
/// span between consecutive markers. Falls back to plain phase accounting
/// for untraced worlds.
pub(crate) fn phase(comm: &Comm, name: &'static str) {
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
pub(crate) struct Tiling {
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
    pub(crate) fn new(n: usize, v: usize, grid: Grid3) -> Self {
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

    /// Tile row indices owned by process row `pi`, ascending.
    pub(crate) fn tile_rows_of(&self, pi: usize) -> Vec<usize> {
        (pi..self.nt).step_by(self.grid.px).collect()
    }

    /// Tile column indices owned by process column `pj`, ascending.
    pub(crate) fn tile_cols_of(&self, pj: usize) -> Vec<usize> {
        (pj..self.nt).step_by(self.grid.py).collect()
    }

    /// The tiles `> step` among those coordinate `p` of `np` owns, ascending
    /// (tile rows of a process row, or tile columns of a process column).
    pub(crate) fn tiles_after(&self, step: usize, p: usize, np: usize) -> Vec<usize> {
        (p..self.nt).step_by(np).filter(|&t| t > step).collect()
    }

    /// How many of the indices `0..i` (matrix rows, or columns) coordinate
    /// `p` of `np` owns: the owned indices `≥ i` are the local suffix from
    /// here.
    pub(crate) fn owned_before(&self, i: usize, p: usize, np: usize) -> usize {
        owned_before(self.v, i, p, np)
    }

    /// Width of the reduction-dimension slice each layer handles.
    #[inline]
    pub(crate) fn kslice(&self) -> usize {
        self.v / self.grid.pz
    }
}

/// How many of the indices `0..i` lie in the tiles of side `v` that
/// coordinate `p` of `np` owns (tile `t` belongs to coordinate `t mod np`).
fn owned_before(v: usize, i: usize, p: usize, np: usize) -> usize {
    let partial = if (i / v) % np == p { i % v } else { 0 };
    (p..i / v).step_by(np).len() * v + partial
}

/// A rank's view of the 2.5D machine: the world communicator, the tiling,
/// and the static sub-communicators every 2.5D rank program derives from them.
pub(crate) struct Net<'c> {
    pub comm: &'c Comm,
    pub til: Tiling,
    /// The z-fibre: fixed `(pi, pj)`, local rank = `pk`.
    pub zfib: Comm,
    /// The y-row: fixed `(pi, pk)`, local rank = `pj`.
    pub yrow: Comm,
    /// The x-column: fixed `(pj, pk)`, local rank = `pi`.
    pub xcol: Comm,
    /// On layer 0, the panel group: the x-column under its own context.
    pub panel: Option<Comm>,
}

impl<'c> Net<'c> {
    pub(crate) fn new(comm: &'c Comm, til: Tiling) -> Self {
        let g = til.grid;
        let (pi, pj, pk) = g.coords(comm.rank());
        Net {
            comm,
            til,
            zfib: comm.subcomm(1, &g.z_members(pi, pj)),
            yrow: comm.subcomm(2, &g.y_members(pi, pk)),
            xcol: comm.subcomm(3, &g.x_members(pj, pk)),
            panel: (pk == 0).then(|| comm.subcomm(4, &g.x_members(pj, 0))),
        }
    }
}

/// The paper's *row masking*: instead of swapping pivot rows, COnfLUX tracks
/// which global rows are still unfactored ("active") and updates only those.
/// Every rank maintains an identical copy, updated from the broadcast pivot
/// ids each step.
#[derive(Debug, Clone)]
pub(crate) struct RowMask {
    active: Vec<bool>,
}

impl RowMask {
    /// All rows active.
    pub(crate) fn new(n: usize) -> Self {
        RowMask {
            active: vec![true; n],
        }
    }

    /// Is global row `r` still active?
    #[inline]
    pub(crate) fn is_active(&self, r: usize) -> bool {
        self.active[r]
    }

    /// Retire a set of freshly chosen pivot rows.
    ///
    /// # Panics
    /// If a row is retired twice (a schedule bug).
    pub(crate) fn retire(&mut self, rows: &[usize]) {
        for &r in rows {
            assert!(self.active[r], "row {r} retired twice");
            self.active[r] = false;
        }
    }

    /// The active rows among the tile rows process row `pi` owns, ascending,
    /// in one pass: global ids and the matching local-store row indices.
    pub(crate) fn active_rows_of(&self, til: &Tiling, pi: usize) -> ActiveRows {
        let mut rows = ActiveRows::default();
        for (li, ti) in (pi..til.nt).step_by(til.grid.px).enumerate() {
            for lr in 0..til.v {
                if self.active[ti * til.v + lr] {
                    rows.global.push(ti * til.v + lr);
                    rows.local.push(li * til.v + lr);
                }
            }
        }
        rows
    }
}

/// A process row's still-active matrix rows, ascending: what every rank of
/// that row derives from the (replicated) [`RowMask`] once per step —
/// indices, not data, are all that row masking ever moves.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct ActiveRows {
    /// Global row ids.
    pub global: Vec<usize>,
    /// Row indices in the rank's local tile store, in lockstep with `global`.
    pub local: Vec<usize>,
}

/// One rank's share of the tile-cyclic matrix as a single dense row-major
/// local matrix (see the module docs): tile `(ti, tj)` occupies the `v × v`
/// block at local tile position `(ti / px, tj / py)`. A *lower-only* store
/// keeps, of each local tile row, just the tiles on or below the diagonal.
/// The storage is zero-allocated: pages nobody writes are never committed.
pub(crate) struct TileStore {
    data: Vec<f64>,
    v: usize,
    /// Extents of the 2D process grid.
    px: usize,
    py: usize,
    /// This rank's coordinates in it.
    pi: usize,
    pj: usize,
    /// Local tile columns of a full tile row.
    ltc: usize,
    /// `band[li]..band[li + 1]` is local tile row `li` in `data`: `v` rows of
    /// one common stride, `ltc · v` unless the store is lower-only.
    band: Vec<usize>,
}

impl TileStore {
    /// An all-zero store for the rank at 2D coordinates `(pi, pj)`;
    /// `lower_only` cuts every tile row off after its diagonal tile.
    pub(crate) fn zeros(til: &Tiling, pi: usize, pj: usize, lower_only: bool) -> TileStore {
        let (v, px, py) = (til.v, til.grid.px, til.grid.py);
        let ltc = (pj..til.nt).step_by(py).len();
        let mut band = vec![0];
        for ti in (pi..til.nt).step_by(px) {
            // Owned tile columns `tj ≤ ti` come first in local order.
            let width = if lower_only {
                (pj..ti + 1).step_by(py).len()
            } else {
                ltc
            };
            band.push(band[band.len() - 1] + v * width * v);
        }
        TileStore {
            data: vec![0.0; band[band.len() - 1]],
            v,
            px,
            py,
            pi,
            pj,
            ltc,
            band,
        }
    }

    /// A layer-0 store holding a copy of `tile_of(ti, tj)` for every owned
    /// tile (with `lower_only`: every owned tile on or below the diagonal).
    pub(crate) fn staged<'a>(
        til: &Tiling,
        (pi, pj): (usize, usize),
        lower_only: bool,
        tile_of: impl Fn(usize, usize) -> MatRef<'a>,
    ) -> TileStore {
        let mut store = TileStore::zeros(til, pi, pj, lower_only);
        for ti in til.tile_rows_of(pi) {
            for tj in til.tile_cols_of(pj) {
                if ti >= tj || !lower_only {
                    store.tile_mut(ti, tj).copy_from(tile_of(ti, tj));
                }
            }
        }
        store
    }

    /// Row stride of local tile row `li`.
    #[inline]
    fn stride(&self, li: usize) -> usize {
        (self.band[li + 1] - self.band[li]) / self.v
    }

    /// Local row index of the owned global row `r`.
    #[inline]
    pub(crate) fn local_row(&self, r: usize) -> usize {
        (r / self.v / self.px) * self.v + r % self.v
    }

    /// Global row of the local row `lrow`.
    #[inline]
    pub(crate) fn global_row(&self, lrow: usize) -> usize {
        (lrow / self.v * self.px + self.pi) * self.v + lrow % self.v
    }

    /// Local index of the first column of the owned tile column `tj`.
    #[inline]
    pub(crate) fn col0(&self, tj: usize) -> usize {
        (tj / self.py) * self.v
    }

    /// Local rows of the owned tile rows `≥ ti`: a suffix of the store.
    #[inline]
    pub(crate) fn rows_from(&self, ti: usize) -> Range<usize> {
        (self.pi..ti).step_by(self.px).len() * self.v..(self.band.len() - 1) * self.v
    }

    /// Local columns of the owned tile columns `≥ tj`: a suffix of a full
    /// row (a lower-only row may stop short of it).
    #[inline]
    pub(crate) fn cols_from(&self, tj: usize) -> Range<usize> {
        (self.pj..tj).step_by(self.py).len() * self.v..self.ltc * self.v
    }

    /// Where the stored part of local row `lrow` lies in `data`.
    #[inline]
    fn row_span(&self, lrow: usize) -> Range<usize> {
        let (li, stride) = (lrow / self.v, self.stride(lrow / self.v));
        let at = self.band[li] + (lrow % self.v) * stride;
        at..at + stride
    }

    /// The stored part of local row `lrow` (all of it unless lower-only).
    #[inline]
    pub(crate) fn row(&self, lrow: usize) -> &[f64] {
        &self.data[self.row_span(lrow)]
    }

    /// Writable stored part of local row `lrow`.
    pub(crate) fn row_mut(&mut self, lrow: usize) -> &mut [f64] {
        let span = self.row_span(lrow);
        &mut self.data[span]
    }

    /// Exchange the segments `cols` of the distinct local rows `l1`, `l2`.
    pub(crate) fn swap_rows(&mut self, l1: usize, l2: usize, cols: Range<usize>) {
        let (lo, hi) = (self.row_span(l1.min(l2)), self.row_span(l1.max(l2)));
        let (head, tail) = self.data.split_at_mut(hi.start);
        head[lo][cols.clone()].swap_with_slice(&mut tail[cols]);
    }

    /// The panel solve `L10 = A10·T⁻¹`, in place on the reduced panel rows
    /// `l10` (`T`: `tri` as an upper triangle, or transposed as a lower
    /// one). `L10` then stays on this rank, written back into tile column
    /// `step` — dead since its reduction — at the local rows `lrows`.
    pub(crate) fn solve_l10(
        &mut self,
        (uplo, trans): (Uplo, Trans),
        tri: MatRef<'_>,
        l10: &mut [f64],
        step: usize,
        lrows: impl Iterator<Item = usize>,
    ) {
        let v = self.v;
        let solved = MatMut::from_slice(l10, l10.len() / v, v, v);
        trsm(Side::Right, uplo, trans, Diag::NonUnit, 1.0, tri, solved);
        let c0 = self.col0(step);
        self.put_rows(l10, c0..c0 + v, lrows);
    }

    /// Write the row-major block `vals`, `cols.len()` wide, over the local
    /// columns `cols` of the local rows `lrows`, one block row per row.
    pub(crate) fn put_rows(
        &mut self,
        vals: &[f64],
        cols: Range<usize>,
        lrows: impl Iterator<Item = usize>,
    ) {
        for (row, lrow) in vals.chunks_exact(cols.len()).zip(lrows) {
            self.row_mut(lrow)[cols.clone()].copy_from_slice(row);
        }
    }

    /// How many of this rank's local columns lie left of global column `c`.
    fn cols_before(&self, c: usize) -> usize {
        owned_before(self.v, c, self.pj, self.py)
    }

    /// The finished store of a layer-0 rank as its factor rows, without
    /// copying it: of the global row `r`, the entries left of global column
    /// `upto(r)` are factor entries, the rest of the row is dead.
    pub(crate) fn into_lower(self, upto: impl Fn(usize) -> usize) -> Lower {
        let rows = (0..(self.band.len() - 1) * self.v).map(|lrow| {
            let r = self.global_row(lrow);
            let (span, lead) = (self.row_span(lrow), self.cols_before(upto(r)));
            debug_assert!(lead <= span.len(), "row {r} has no column {}", upto(r));
            (span.start, lead)
        });
        Lower {
            geometry: [self.v, self.pi, self.px, self.pj, self.py],
            rows: rows.collect(),
            data: self.data,
        }
    }

    /// Writable view of tile `(ti, tj)`.
    pub(crate) fn tile_mut(&mut self, ti: usize, tj: usize) -> MatMut<'_> {
        self.tile_row_mut(ti, tj..tj + 1)
    }

    /// Writable view of the owned tiles of tile row `ti` whose tile column
    /// lies in `tjs` — one `v`-row block of adjacent local columns.
    ///
    /// # Panics
    /// If the store is lower-only and `tjs` reaches above the diagonal.
    pub(crate) fn tile_row_mut(&mut self, ti: usize, tjs: Range<usize>) -> MatMut<'_> {
        debug_assert!(ti % self.px == self.pi, "tile row {ti} is not owned");
        // Owned tile columns below `t` come first in local order.
        let cols = self.cols_from(tjs.start).start..self.cols_from(tjs.end).start;
        let (li, v, stride) = (ti / self.px, self.v, self.stride(ti / self.px));
        let band = &mut self.data[self.band[li]..self.band[li + 1]];
        MatMut::from_slice(band, v, stride, stride).block(0, cols.start, v, cols.len())
    }

    /// Writable full-height view of the local columns `cols`.
    ///
    /// # Panics
    /// If the store is lower-only (its rows have no common stride).
    pub(crate) fn cols_mut(&mut self, cols: Range<usize>) -> MatMut<'_> {
        let (rows, ld) = ((self.band.len() - 1) * self.v, self.ltc * self.v);
        let full = self.data.len() == rows * ld;
        assert!(full, "a lower-only store has no full-height view");
        MatMut::from_slice(&mut self.data, rows, ld, ld).block(0, cols.start, rows, cols.len())
    }
}

/// The calling rank's part in exchanging two rows of the matrix, both
/// addressed by global row: a physical row swap, as the swapping schedules
/// (the 2D LU, the swap ablation) perform one.
pub(crate) enum Swap {
    /// Both rows are local rows of this rank.
    Local(usize, usize),
    /// This rank holds one of them, at local row `lrow`, and trades it with
    /// world rank `partner` (same process column and layer).
    Remote { lrow: usize, partner: usize },
}

impl Swap {
    /// What world rank `rank` does to exchange rows `p1` and `p2`
    /// (`None`: its process row holds neither).
    pub(crate) fn of(
        til: &Tiling,
        store: &TileStore,
        rank: usize,
        p1: usize,
        p2: usize,
    ) -> Option<Swap> {
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
/// trade places; across ranks both segments travel as one message each way,
/// and nothing travels when both are empty.
pub(crate) fn swap_store_rows(
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

/// A layer-0 rank's factor rows, left in the store that computed them: per
/// local row, the leading entries that are factor entries (`L`; every entry
/// of a COnfLUX row with one process row). Ranks off layer 0, and runs that
/// collect nothing, return the empty value.
#[derive(Debug, Default)]
pub(crate) struct Lower {
    /// `[v, pi, px, pj, py]`: tile side, then coordinate and grid extent
    /// along the process rows and columns — local row `l` is global row
    /// `((l / v)·px + pi)·v + l mod v`, and likewise for columns.
    geometry: [usize; 5],
    /// Local row `l` holds `rows[l].1` entries starting at `data[rows[l].0]`.
    rows: Vec<(usize, usize)>,
    data: Vec<f64>,
}

impl Lower {
    /// Visit every contiguous piece `(global row, first global column,
    /// values)`: a row's entries cut at the tile boundaries.
    pub(crate) fn for_each_run(&self, mut f: impl FnMut(usize, usize, &[f64])) {
        let [v, pi, px, pj, py] = self.geometry;
        for (lrow, &(at, lead)) in self.rows.iter().enumerate() {
            let r = (lrow / v * px + pi) * v + lrow % v;
            for (lj, piece) in self.data[at..at + lead].chunks(v).enumerate() {
                f(r, (lj * py + pj) * v, piece);
            }
        }
    }

    /// Does this part hold every entry of an `n × n` factor, row `r` of it
    /// at `data[r·n..(r + 1)·n]`? The layer-0 store of a `1 × 1 × Pz` world
    /// that reports every row in full does.
    fn covers(&self, n: usize) -> bool {
        let [_, pi, px, pj, py] = self.geometry;
        let full = |(l, &(at, lead)): (usize, &(usize, usize))| (at, lead) == (l * n, n);
        (pi, px, pj, py) == (0, 1, 0, 1)
            && (self.rows.len(), self.data.len()) == (n, n * n)
            && self.rows.iter().enumerate().all(full)
    }

    /// Does this part hold no entry at all?
    fn is_empty(&self) -> bool {
        self.rows.iter().all(|&(_, lead)| lead == 0)
    }
}

/// Socket ranks ship only the factor entries home: the geometry, one count
/// per local row, and 8 bytes per entry, row after row.
impl Wire for Lower {
    fn encode(&self, out: &mut Vec<u8>) {
        let entries: usize = self.rows.iter().map(|&(_, lead)| lead).sum();
        out.reserve(8 * (self.geometry.len() + 1 + entries) + 4 * self.rows.len());
        self.geometry.iter().for_each(|g| g.encode(out));
        let leads: Vec<u32> = self.rows.iter().map(|&(_, lead)| lead as u32).collect();
        leads.encode(out);
        for &(at, lead) in &self.rows {
            f64::encode_slice(&self.data[at..at + lead], out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        let mut lower = Lower::default();
        for g in &mut lower.geometry {
            *g = Wire::decode(input)?;
        }
        // Only the empty value has tile side 0; no frame may divide by it.
        lower.geometry[0] = lower.geometry[0].max(1);
        // The rows' entries lie back to back: one bulk decode, then the
        // row starts are the running sum of the counts.
        let mut entries = 0;
        for lead in Vec::<u32>::decode(input)? {
            lower.rows.push((entries, lead as usize));
            // A corrupt count saturates, and `decode_n` then rejects it.
            entries = entries.saturating_add(lead as usize);
        }
        lower.data = f64::decode_n(input, entries)?;
        Ok(lower)
    }
}

/// What one rank hands home: its factor rows, and the pieces it collected.
pub(crate) type RankFactor = (Lower, Collected);

/// What a rank program returns: that, and the factor's row order.
pub(crate) type RankResult = Result<(RankFactor, Vec<usize>), dense::Error>;

/// Words `part` keeps allocated for values (its indices are `O(n)` more).
#[cfg(test)]
pub(crate) fn words((lower, upper): &RankFactor) -> usize {
    lower.data.capacity() + upper.vals.capacity()
}

/// The factor pieces a rank computed for rows it does not own, as dense
/// blocks: each block is a list of *original* (unpermuted) row ids — the
/// final permutation re-addresses them during assembly —, the first columns
/// of its equal-width column runs, and the row-major values of those rows
/// over those columns. Indices cost one word per block row and per column
/// run, never anything per element.
#[derive(Debug, Default)]
pub(crate) struct Collected {
    /// Block headers back to back:
    /// `[rows, runs, run width, row ids…, first column of each run…]`.
    idx: Vec<u32>,
    /// The blocks' values back to back, in header order.
    vals: Vec<f64>,
}

impl Collected {
    /// Make room, exactly, for `words` more values: a rank that knows its
    /// final size from the tiling reserves it once and never regrows (the
    /// indices, a word per block row and column run, may).
    pub(crate) fn reserve_exact(&mut self, words: usize) {
        self.vals.reserve_exact(words);
    }

    /// Append the block `vals`: its row `i` is original row `rows[i]`, and
    /// its columns are `starts.len()` runs of equal width, run `j` beginning
    /// at column `starts[j]`. ([`Collected::assemble`] takes tile runs only:
    /// `v` wide, starting at a multiple of `v`.)
    ///
    /// # Panics
    /// If `vals` does not have `rows.len()` rows, or its columns do not
    /// divide evenly among the runs.
    pub(crate) fn push(&mut self, rows: &[usize], starts: &[usize], vals: MatRef<'_>) {
        let width = vals.cols().checked_div(starts.len()).unwrap_or(0);
        let shape = (rows.len(), width * starts.len());
        assert_eq!((vals.rows(), vals.cols()), shape, "block ≠ its ids");
        self.idx
            .extend([rows.len(), starts.len(), width].map(|x| x as u32));
        self.idx
            .extend(rows.iter().chain(starts).map(|&i| i as u32));
        for i in 0..rows.len() {
            self.vals.extend_from_slice(vals.row(i));
        }
    }

    /// Visit every contiguous piece `(original row, first column, values)`,
    /// in collection order.
    pub(crate) fn for_each_run(&self, mut f: impl FnMut(usize, usize, &[f64])) {
        let (mut idx, mut vals) = (&self.idx[..], &self.vals[..]);
        while let [rows, runs, width, rest @ ..] = idx {
            let (rows, rest) = rest.split_at(*rows as usize);
            let (starts, rest) = rest.split_at(*runs as usize);
            for &row in rows {
                for &start in starts {
                    let (piece, tail) = vals.split_at(*width as usize);
                    f(row as usize, start as usize, piece);
                    vals = tail;
                }
            }
            idx = rest;
        }
    }

    /// Append this value to an `f64` blob as
    /// `[|idx|, |vals|, idx…, vals…]`. Indices are exact in an `f64`, values
    /// are copied, so [`Collected::from_words`] restores it bitwise.
    pub(crate) fn to_words(&self, blob: &mut Vec<f64>) {
        blob.extend([self.idx.len() as f64, self.vals.len() as f64]);
        blob.extend(self.idx.iter().map(|&i| f64::from(i)));
        blob.extend_from_slice(&self.vals);
    }

    /// Inverse of [`Collected::to_words`]: decodes from the front of
    /// `words` and returns how many of them it consumed.
    pub(crate) fn from_words(words: &[f64]) -> (Collected, usize) {
        let (ni, nv) = (words[0] as usize, words[1] as usize);
        let idx = words[2..2 + ni].iter().map(|&x| x as u32).collect();
        let vals = words[2 + ni..2 + ni + nv].to_vec();
        (Collected { idx, vals }, 2 + ni + nv)
    }

    /// Assemble what every rank of a world handed home — the `L` rows its
    /// store kept and the blocks it collected — into one `n × n` matrix in
    /// pivoted row coordinates, row `s` of which is original row `perm[s]`.
    /// For LU that is the packed `F` with `P·A = L·U`, `L` unit-lower in
    /// `F`'s strict lower triangle and `U` in its upper triangle.
    ///
    /// When one part's store holds the whole factor and the others hold
    /// nothing (a `1 × 1 × Pz` world), that store *is* the output: its rows
    /// are put into pivoted order in place, and no second `n × n` buffer is
    /// allocated. Otherwise every entry is placed into a fresh matrix: the
    /// stores' rows are disjoint by ownership, and the collected blocks are
    /// checked against each other, one bit per (pivoted row, tile column):
    /// every run [`Collected::push`] took must be one tile wide — `v`
    /// columns starting at a multiple of `v`.
    ///
    /// # Panics
    /// If `perm` is not a permutation of `0..n`, an entry's row never
    /// appears in it, a collected run is not a tile's, or two of them
    /// collide.
    pub(crate) fn assemble(
        n: usize,
        v: usize,
        perm: &[usize],
        mut parts: Vec<RankFactor>,
    ) -> Matrix {
        assert_eq!(perm.len(), n, "permutation must cover all rows");
        let mut pos = vec![usize::MAX; n];
        for (s, &r) in perm.iter().enumerate() {
            assert!(pos[r] == usize::MAX, "row {r} appears twice in perm");
            pos[r] = s;
        }
        let empty = |(lower, upper): &RankFactor| lower.is_empty() && upper.idx.is_empty();
        if let Some(at) = parts.iter().position(|(lower, _)| lower.covers(n)) {
            let rest_empty = parts.iter().enumerate().all(|(i, p)| i == at || empty(p));
            if rest_empty && parts[at].1.idx.is_empty() {
                let mut data = std::mem::take(&mut parts[at].0.data);
                permute_rows(&mut data, n, perm);
                return Matrix::from_vec(n, n, data);
            }
        }
        let mut f = Matrix::zeros(n, n);
        let mut place = |r: usize, c0: usize, vals: &[f64]| {
            let s = pos.get(r).copied().unwrap_or(usize::MAX);
            assert!(s != usize::MAX, "entry row {r} missing from perm");
            f.row_mut(s)[c0..c0 + vals.len()].copy_from_slice(vals);
            s
        };
        for (lower, _) in &parts {
            lower.for_each_run(|r, c0, vals| {
                place(r, c0, vals);
            });
        }
        let mut seen = vec![false; n * n.div_ceil(v)];
        for (_, upper) in &parts {
            upper.for_each_run(|r, c0, vals| {
                let aligned = vals.len() == v && c0.is_multiple_of(v);
                assert!(aligned, "collected runs must be aligned and {v} wide");
                let s = place(r, c0, vals);
                let taken = &mut seen[s * n.div_ceil(v) + c0 / v];
                assert!(!*taken, "duplicate factor entry at pivoted ({s},{c0})");
                *taken = true;
            });
        }
        f
    }
}

/// Reorder the `width`-wide rows of the row-major `data` in place so that
/// row `s` becomes the old row `perm[s]` (`perm` a permutation of the row
/// indices): each cycle of `perm` is followed once with one spare row, and
/// fixed points are not touched.
fn permute_rows(data: &mut [f64], width: usize, perm: &[usize]) {
    let mut spare = vec![0.0; width];
    let mut done = vec![false; perm.len()];
    for s in 0..perm.len() {
        if done[s] || perm[s] == s {
            continue;
        }
        spare.copy_from_slice(&data[s * width..(s + 1) * width]);
        let mut j = s;
        while perm[j] != s {
            done[j] = true;
            data.copy_within(perm[j] * width..(perm[j] + 1) * width, j * width);
            j = perm[j];
        }
        done[j] = true;
        data[j * width..(j + 1) * width].copy_from_slice(&spare);
    }
}

/// Socket ranks ship their pieces home as the two flat arrays: 8 bytes per
/// element plus the block indices.
impl Wire for Collected {
    fn encode(&self, out: &mut Vec<u8>) {
        self.idx.encode(out);
        self.vals.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        Ok(Collected {
            idx: Wire::decode(input)?,
            vals: Wire::decode(input)?,
        })
    }
}

/// Split the per-rank outcomes `(piece, perm)` of a world into the pieces in
/// rank order and rank 0's `perm` (every rank derives the same one); the
/// first failed rank's error wins.
pub(crate) fn split_results<T, E>(
    results: impl IntoIterator<Item = Result<(T, Vec<usize>), E>>,
) -> Result<(Vec<T>, Vec<usize>), E> {
    let done = results.into_iter().collect::<Result<Vec<_>, E>>()?;
    let (pieces, mut perms): (Vec<T>, Vec<_>) = done.into_iter().unzip();
    Ok((pieces, perms.swap_remove(0)))
}

/// Everything a COnfLUX / COnfCHOX rank carries from one block step to the
/// next. A rank program starts from a `State` — freshly staged, or decoded
/// from a checkpoint — and hands the updated value to its end-of-step
/// callback, so the step boundary is the one place a run can be snapshotted
/// or re-entered.
pub(crate) struct State {
    /// The next block step to execute.
    pub step: usize,
    /// Pivot rows chosen so far, in pivot order (stays empty for Cholesky).
    pub perm: Vec<usize>,
    /// Factor pieces this rank has computed for rows it does not own.
    pub collected: Collected,
    /// The rank's share (see the module docs): the trailing matrix, updated
    /// in place, right of the finished tile columns, which hold `L`.
    pub store: TileStore,
}

impl State {
    /// The state a fresh run starts from: step 0 on the staged `store`,
    /// nothing chosen or collected.
    pub(crate) fn fresh(store: TileStore) -> State {
        State {
            step: 0,
            perm: Vec::new(),
            collected: Collected::default(),
            store,
        }
    }
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

/// `e` with its row index moved from block-local to global coordinates.
pub(crate) fn shift_err(e: dense::Error, offset: usize) -> dense::Error {
    match e {
        dense::Error::SingularAt(k) => dense::Error::SingularAt(k + offset),
        dense::Error::NotPositiveDefinite(k) => dense::Error::NotPositiveDefinite(k + offset),
        other => other,
    }
}

/// Broadcast a block step's outcome from `root`, which holds `err` (a
/// kernel error already in global rows), as one status word: `0` for
/// success, else `1 +` the failing row. Every rank then returns the same
/// error, `fail(row)`, instead of deadlocking the world or guessing the
/// row.
pub(crate) fn bcast_status(
    comm: &Comm,
    root: usize,
    err: Option<dense::Error>,
    fail: fn(usize) -> dense::Error,
) -> Result<(), dense::Error> {
    let mut status = vec![match err {
        None => 0.0,
        Some(dense::Error::SingularAt(k) | dense::Error::NotPositiveDefinite(k)) => 1.0 + k as f64,
        Some(e) => unreachable!("a block kernel failed without a row: {e:?}"),
    }];
    comm.bcast_f64(root, &mut status);
    if status[0] == 0.0 {
        Ok(())
    } else {
        Err(fail(status[0] as usize - 1))
    }
}

/// The store a rank starts from, staged straight from a globally-known
/// matrix (the "already distributed" convention of the paper: no measured
/// traffic): layer 0 copies its tiles of `a`, the layers above get zeros.
/// `lower_only` stages just the tiles on or below the diagonal, into a
/// lower-only store — COnfCHOX's storage.
pub(crate) fn stage_from_global(
    comm: &Comm,
    til: &Tiling,
    a: &Matrix,
    lower_only: bool,
) -> TileStore {
    let (pi, pj, pk) = til.grid.coords(comm.rank());
    let v = til.v;
    if pk != 0 {
        return TileStore::zeros(til, pi, pj, lower_only);
    }
    TileStore::staged(til, (pi, pj), lower_only, |ti, tj| {
        a.block(ti * v, tj * v, v, v)
    })
}

/// Fills `buf` with the up-to-date values of the local rows `lrows` over the
/// local columns `cols`, row-major: every layer's share (one slice of its
/// store per row) summed along the z-fibre onto layer 0, where the result is
/// meaningful. `buf` is the caller's step buffer; its old content is
/// dropped, its allocation reused.
pub(crate) fn reduce_rows(
    net: &Net<'_>,
    guard: &mut Guard,
    store: &TileStore,
    lrows: impl ExactSizeIterator<Item = usize>,
    cols: Range<usize>,
    buf: &mut Vec<f64>,
) {
    let rows = lrows.len();
    buf.clear();
    for lrow in lrows {
        buf.extend_from_slice(&store.row(lrow)[cols.clone()]);
    }
    if !buf.is_empty() {
        guard.reduce(&net.zfib, 0, buf, rows, cols.len());
    }
}

/// Pick a processor grid *and* block size jointly for an `n × n` problem on
/// `p` ranks: among replication-preferring grids (see
/// [`Grid3::for_processors`]), choose the best one that admits a valid block
/// size — a grid like `[3,3,3]` is skipped for `n = 512` because no multiple
/// of 3 divides a power of two.
///
/// # The block-size rule
///
/// The paper leaves `v` as the hardware-tuning knob (§7). Here it is a pure
/// function of `(n, grid)`: the valid block size ([`choose_block`]) nearest
/// to
///
/// ```text
/// max( max(4·Pz, 16),  min( 32·Pz,  n / (8·max(Px, Py)) ) )
/// ```
///
/// * `32·Pz` makes the inner dimension of every layer's Schur update,
///   `v / Pz`, at least 32: below that a rank-`v/Pz` product moves more of
///   `C` than it computes and the packed GEMM engine runs far under its rate.
/// * **Load-balance guard** `n / (8·max(Px, Py))`: every process row and
///   column keeps at least eight tile rows/columns, so the block-cyclic
///   layout stays balanced as the trailing matrix shrinks.
/// * **Volume/memory guard**: `v` is never raised past `32·Pz`. The `A00`
///   broadcast, the tournament and the step buffers all cost `O(n·v)` per
///   rank, so a larger block buys GEMM rate with traffic and peak memory
///   that the 2.5D schedule exists to avoid.
/// * The floor `max(4·Pz, 16)` is what small problems
///   (`n ≤ 128·max(Px, Py)`) get: there the per-step message latency, not
///   the GEMM shape, is what the block size trades against.
pub(crate) fn pick_grid_and_block(n: usize, p: usize) -> (Grid3, usize) {
    let mut best: Option<(f64, Grid3, usize)> = None;
    for c in 1..=p {
        if !p.is_multiple_of(c) {
            continue;
        }
        let layer = xmpi::Grid2::near_square(p / c);
        if c > layer.rows.min(layer.cols) {
            continue;
        }
        // The block-size rule of the rustdoc above.
        let floor = (4 * c).max(16);
        let balanced = n / (8 * layer.rows.max(layer.cols));
        let target = (32 * c).min(balanced).max(floor).min(n);
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
        let mut owners = [[0; 6]; 6];
        for (pi, pj) in (0..2).flat_map(|pi| (0..3).map(move |pj| (pi, pj))) {
            for ti in t.tile_rows_of(pi) {
                t.tile_cols_of(pj)
                    .iter()
                    .for_each(|&tj| owners[ti][tj] += 1);
            }
        }
        assert_eq!(owners, [[1; 6]; 6], "each tile has exactly one 2D owner");
        assert_eq!(t.tile_rows_of(1), vec![1, 3, 5]);
        assert_eq!(t.kslice(), 2);
    }

    #[test]
    fn owned_before_counts_the_owned_prefix() {
        for (n, v) in [(12, 1), (12, 3), (24, 4), (20, 5)] {
            let nt = n / v;
            // Coordinates past the tile count (`p ≥ nt`) own nothing.
            for np in 1..=nt + 2 {
                let til = Tiling::new(n, v, Grid3::new(np, 1, 1));
                for p in 0..np {
                    // Every `i`, tile boundaries and `i = n` included.
                    for i in 0..=n {
                        let brute = (0..i).filter(|&x| (x / v) % np == p).count();
                        assert_eq!(til.owned_before(i, p, np), brute, "{i} {p} {np} {v}");
                    }
                }
            }
        }
        // On a boundary the tile that starts there is not counted.
        let til = Tiling::new(16, 4, Grid3::new(2, 1, 1));
        assert_eq!([8, 9, 12].map(|i| til.owned_before(i, 0, 2)), [4, 5, 8]);
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
        let count = |m: &RowMask| (0..10).filter(|&r| m.is_active(r)).count();
        assert_eq!(count(&m), 10);
        m.retire(&[3, 7]);
        assert!(!m.is_active(3));
        assert!(m.is_active(4));
        assert_eq!(count(&m), 8);
    }

    #[test]
    fn active_rows_pair_global_ids_with_local_indices() {
        // 3 process rows, v = 2: process row 1 owns tile rows 1 and 4, i.e.
        // global rows 2,3 and 8,9 at local rows 0,1 and 2,3.
        let til = Tiling::new(12, 2, Grid3::new(3, 1, 1));
        let mut m = RowMask::new(12);
        m.retire(&[3, 7]);
        let rows = m.active_rows_of(&til, 1);
        assert_eq!(rows.global, vec![2, 8, 9]);
        assert_eq!(rows.local, vec![0, 2, 3]);
        let store = TileStore::zeros(&til, 1, 0, false);
        for (&r, &l) in rows.global.iter().zip(&rows.local) {
            assert_eq!(store.local_row(r), l);
        }
        // A process row beyond the tile count owns nothing.
        let wide = Tiling::new(4, 2, Grid3::new(4, 1, 1));
        assert_eq!(
            RowMask::new(4).active_rows_of(&wide, 3),
            ActiveRows::default()
        );
    }

    #[test]
    fn tile_store_maps_tiles_by_arithmetic() {
        // 2×3 grid, 6×6 tiles of side 2: rank (1, 2) owns tile rows 1,3,5
        // and tile columns 2,5 — a 6×4 local matrix.
        let til = Tiling::new(12, 2, Grid3::new(2, 3, 1));
        let mut s = TileStore::zeros(&til, 1, 2, false);
        assert_eq!((s.row(0).len(), s.col0(5)), (4, 2));
        s.tile_mut(3, 5).fill(7.0);
        s.tile_mut(1, 2).fill(1.0);
        assert_eq!(s.row(s.local_row(7)), &[0.0, 0.0, 7.0, 7.0]);
        assert_eq!(s.row(s.local_row(3)), &[1.0, 1.0, 0.0, 0.0]);
        // A tile-row block: the owned tile columns in 1..6 are 2 and 5.
        let row = s.tile_row_mut(5, 1..6);
        assert_eq!((row.rows(), row.cols()), (2, 4));
        // The full-height view of tile column 5.
        let mut view = s.cols_mut(2..4);
        assert_eq!((view.rows(), view.cols()), (6, 2));
        view.fill(2.0);
        assert_eq!(s.row(s.local_row(7)), &[0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn lower_only_store_cuts_tile_rows_off_after_the_diagonal() {
        // Same layout as above: rank (1, 2)'s tile rows 1, 3, 5 keep the
        // owned tile columns ≤ 1, ≤ 3, ≤ 5, i.e. none, {2}, {2, 5}.
        let til = Tiling::new(12, 2, Grid3::new(2, 3, 1));
        let mut s = TileStore::zeros(&til, 1, 2, true);
        let widths: Vec<usize> = (0..6).map(|lrow| s.row(lrow).len()).collect();
        assert_eq!(widths, vec![0, 0, 2, 2, 4, 4]);
        s.tile_mut(5, 5).fill(3.0);
        s.tile_row_mut(3, 0..4).fill(2.0);
        assert_eq!(s.row(s.local_row(7)), &[2.0, 2.0]);
        assert_eq!(s.row(s.local_row(11)), &[0.0, 0.0, 3.0, 3.0]);
        // On a square grid the diagonal tile itself is kept.
        let til = Tiling::new(8, 2, Grid3::new(2, 2, 1));
        let mut s = TileStore::zeros(&til, 1, 1, true);
        assert_eq!((s.row(0).len(), s.row(2).len()), (2, 4));
        s.tile_mut(3, 3).fill(1.0);
        assert_eq!(s.row(s.local_row(7)), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "no full-height view")]
    fn lower_only_store_has_no_full_height_view() {
        let til = Tiling::new(8, 2, Grid3::new(1, 1, 1));
        TileStore::zeros(&til, 0, 0, true).cols_mut(0..2);
    }

    #[test]
    fn reduce_rows_reads_one_slice_per_row_into_the_callers_buffer() {
        let til = Tiling::new(4, 2, Grid3::new(1, 1, 1));
        let out = xmpi::run(1, |comm| {
            let (net, guard) = (Net::new(comm, til), &mut Guard::new(false));
            let mut store = TileStore::zeros(&til, 0, 0, false);
            store.tile_mut(1, 1).fill(5.0);
            store.tile_mut(1, 0).fill(-0.25);
            // Old content goes, the allocation stays.
            let mut buf = Vec::with_capacity(64);
            buf.push(9.0);
            let at = buf.as_ptr();
            reduce_rows(&net, guard, &store, [3, 0].into_iter(), 1..4, &mut buf);
            assert_eq!(buf.as_ptr(), at);
            buf
        });
        assert_eq!(out.results[0], vec![-0.25, 5.0, 5.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "retired twice")]
    fn double_retire_is_a_bug() {
        let mut m = RowMask::new(4);
        m.retire(&[1]);
        m.retire(&[1]);
    }

    #[test]
    fn store_rows_swap_by_slice_and_suffixes_are_contiguous() {
        // Rank (1, 0) of a 2×2 grid over 4×4 tiles of side 2 owns tile rows
        // 1, 3 and tile columns 0, 2: a 4×4 local matrix.
        let til = Tiling::new(8, 2, Grid3::new(2, 2, 1));
        let mut s = TileStore::zeros(&til, 1, 0, false);
        assert_eq!(
            (s.rows_from(0), s.rows_from(2), s.rows_from(4)),
            (0..4, 2..4, 4..4)
        );
        assert_eq!((s.cols_from(1), s.cols_from(3)), (2..4, 4..4));
        s.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        s.row_mut(3).copy_from_slice(&[5.0, 6.0, 7.0, 8.0]);
        s.swap_rows(3, 0, 2..4);
        assert_eq!(s.row(0), &[1.0, 2.0, 7.0, 8.0]);
        assert_eq!(s.row(3), &[5.0, 6.0, 3.0, 4.0]);
    }

    /// What a rank that kept no `L` rows hands home: one collected block
    /// with the given row ids, run starts and values.
    fn block(rows: &[usize], cols: &[usize], vals: &[f64]) -> RankFactor {
        let vals = Matrix::from_vec(rows.len(), vals.len() / rows.len(), vals.to_vec());
        let mut c = Collected::default();
        c.push(rows, cols, vals.as_ref());
        (Lower::default(), c)
    }

    /// The 2×2 case of the old COO assembly, `perm = [1, 0]` (original row 1
    /// is the first pivot): its U row, then the L and U entries of pivot 1 —
    /// two blocks of two one-wide column runs each.
    fn two_by_two() -> Vec<RankFactor> {
        vec![
            block(&[1], &[0, 1], &[4.0, 5.0]),
            block(&[0], &[0, 1], &[0.5, 3.0]),
        ]
    }

    #[test]
    fn assemble_places_blocks_in_pivot_order() {
        let f = Collected::assemble(2, 1, &[1, 0], two_by_two());
        assert_eq!(f.data(), &[4.0, 5.0, 0.5, 3.0]);
        // The visitor yields the runs the blocks stand for.
        let mut runs = Vec::new();
        two_by_two()[1]
            .1
            .for_each_run(|r, c, x| runs.push((r, c, x.to_vec())));
        assert_eq!(runs, vec![(0, 0, vec![0.5]), (0, 1, vec![3.0])]);
    }

    #[test]
    #[should_panic(expected = "duplicate factor entry at pivoted (0,1)")]
    fn assemble_rejects_collisions() {
        let mut pieces = two_by_two();
        pieces.push(block(&[1], &[1], &[2.0]));
        Collected::assemble(2, 1, &[1, 0], pieces);
    }

    #[test]
    #[should_panic(expected = "entry row 2 missing from perm")]
    fn assemble_rejects_rows_outside_the_permutation() {
        Collected::assemble(2, 1, &[1, 0], vec![block(&[2], &[0], &[1.0])]);
    }

    #[test]
    #[should_panic(expected = "must be aligned")]
    fn assemble_rejects_a_run_off_the_coverage_grid() {
        let pieces = vec![
            block(&[0], &[0], &[1.0, 2.0]),
            block(&[1], &[1], &[3.0, 4.0]),
        ];
        Collected::assemble(4, 2, &[0, 1, 2, 3], pieces);
    }

    /// `permute_rows` on an `n × width` matrix of distinct values, bitwise
    /// against a gather into a fresh buffer.
    fn permutes_as_a_gather(perm: &[usize], width: usize) {
        let n = perm.len();
        let data: Vec<f64> = (0..n * width).map(|i| (i as f64).sqrt() - 3.5).collect();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let gathered: Vec<f64> = perm
            .iter()
            .flat_map(|&r| &data[r * width..(r + 1) * width])
            .copied()
            .collect();
        let mut moved = data.clone();
        permute_rows(&mut moved, width, perm);
        assert_eq!(bits(&moved), bits(&gathered), "perm {perm:?}");
    }

    #[test]
    fn rows_permute_in_place_as_a_gather_copy() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for n in [1, 7, 256] {
            let identity: Vec<usize> = (0..n).collect();
            let one_cycle: Vec<usize> = (0..n).map(|s| (s + 1) % n).collect();
            // Disjoint cycles of lengths 1, 2, 3, … and fixed points after.
            let mut cycles = identity.clone();
            let (mut at, mut len) = (0, 1);
            while at + len <= n {
                for i in 0..len {
                    cycles[at + i] = at + (i + 1) % len;
                }
                (at, len) = (at + len, len + 1);
            }
            let mut perms = vec![identity.clone(), one_cycle, cycles];
            for seed in 0..3 {
                let (mut rng, mut random) = (StdRng::seed_from_u64(seed), identity.clone());
                for i in (1..n).rev() {
                    random.swap(i, rng.gen_range(0..i + 1));
                }
                perms.push(random);
            }
            for perm in perms {
                permutes_as_a_gather(&perm, n);
            }
        }
    }

    #[test]
    fn a_store_holding_the_whole_factor_becomes_the_output() {
        let (n, v) = (8, 2);
        let til = Tiling::new(n, v, Grid3::new(1, 1, 1));
        let perm = [3, 0, 7, 1, 2, 6, 5, 4];
        let store = || {
            let mut s = TileStore::zeros(&til, 0, 0, false);
            for lrow in 0..n {
                let vals: Vec<f64> = (0..n).map(|c| (10 * lrow + c) as f64).collect();
                s.row_mut(lrow).copy_from_slice(&vals);
            }
            s
        };
        // One rank, or a replicated one whose upper layer hands home
        // nothing: the layer-0 store's buffer is the output, rows pivoted.
        let want = Matrix::from_fn(n, n, |s, c| (10 * perm[s] + c) as f64);
        for layers in [1, 2] {
            let whole = store().into_lower(|_| n);
            let at = whole.data.as_ptr();
            let mut parts = vec![(whole, Collected::default())];
            parts.extend((1..layers).map(|_| RankFactor::default()));
            let f = Collected::assemble(n, v, &perm, parts);
            assert_eq!((f.data(), f.data().as_ptr()), (want.data(), at));
        }
        // Rows that stop short of the full width are placed into a fresh
        // matrix: original row `r` keeps the columns up to `r`.
        let part = store().into_lower(|r| r + 1);
        let at = part.data.as_ptr();
        let f = Collected::assemble(n, v, &perm, vec![(part, Collected::default())]);
        let want = Matrix::from_fn(n, n, |s, c| {
            let r = perm[s];
            if c <= r {
                (10 * r + c) as f64
            } else {
                0.0
            }
        });
        assert_eq!(f.data(), want.data());
        assert_ne!(f.data().as_ptr(), at);
    }

    #[test]
    fn lower_keeps_the_leading_entries_of_each_store_row() {
        // Rank (1, 0) of a 2×2 grid over 4×4 tiles of side 2: tile rows 1, 3
        // (global rows 2, 3, 6, 7) and tile columns 0, 2.
        let til = Tiling::new(8, 2, Grid3::new(2, 2, 1));
        let mut s = TileStore::zeros(&til, 1, 0, false);
        for lrow in 0..4 {
            let vals: Vec<f64> = (0..4).map(|c| (10 * lrow + c) as f64).collect();
            s.row_mut(lrow).copy_from_slice(&vals);
        }
        let before = [0, 1, 2, 4, 5, 8].map(|c| s.cols_before(c));
        assert_eq!(before, [0, 1, 2, 2, 3, 4]);
        // Entries left of global column 7 − row: rows 2, 3, 6, 7 keep the
        // columns {0, 1, 4}, {0, 1}, {0} and none.
        let lower = s.into_lower(|r| 7 - r);
        let entries_of = |lower: &Lower| {
            let mut all = Vec::new();
            lower.for_each_run(|r, c0, vals| all.extend((c0..).zip(vals).map(|(c, &x)| (r, c, x))));
            all
        };
        let want = [
            (2, 0, 0.),
            (2, 1, 1.),
            (2, 4, 2.),
            (3, 0, 10.),
            (3, 1, 11.),
            (6, 0, 20.),
        ];
        assert_eq!(entries_of(&lower), want);
        // On the wire: the geometry, one count per row, the kept entries —
        // and a decoded part holds nothing else.
        let bytes = xmpi::wire::encode_vec(&lower);
        assert_eq!(bytes.len(), 5 * 8 + (8 + 4 * 4) + 6 * 8);
        // The bulk copy writes what encoding one element at a time writes.
        let mut one_by_one = Vec::new();
        lower
            .geometry
            .iter()
            .for_each(|g| g.encode(&mut one_by_one));
        let leads: Vec<u32> = lower.rows.iter().map(|&(_, n)| n as u32).collect();
        leads.encode(&mut one_by_one);
        for &(at, n) in &lower.rows {
            lower.data[at..at + n]
                .iter()
                .for_each(|x| x.encode(&mut one_by_one));
        }
        assert_eq!(bytes, one_by_one);
        let back: Lower = xmpi::wire::decode_all(&bytes).unwrap();
        assert_eq!((&entries_of(&back)[..], back.data.len()), (&want[..], 6));
        assert!(xmpi::wire::decode_all::<Lower>(&bytes[..bytes.len() - 8]).is_err());
    }

    #[test]
    fn collected_codecs_round_trip_bitwise() {
        let vals = [
            1.25,
            -0.0,
            f64::MIN_POSITIVE,
            -0.5e-17,
            7.0,
            1e300,
            0.1,
            -3.0,
        ];
        let (_, mut c) = block(&[5, 2], &[8, 2], &vals);
        c.push(&[9], &[0], Matrix::from_vec(1, 1, vec![f64::NAN]).as_ref());
        let same = |back: &Collected| {
            assert_eq!(back.idx, c.idx);
            let bits = |x: &Collected| x.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(back), bits(&c));
        };
        // The checkpoint blob: one word per index and per value.
        let mut blob = vec![42.0];
        c.to_words(&mut blob);
        assert_eq!(blob.len(), 1 + 2 + (3 + 2 + 2 + 3 + 1 + 1) + 9);
        let (back, used) = Collected::from_words(&blob[1..]);
        assert_eq!(used, blob.len() - 1);
        same(&back);
        // The socket result codec: 4 bytes per index, 8 per value.
        let bytes = xmpi::wire::encode_vec(&c);
        assert_eq!(bytes.len(), 2 * 8 + 4 * 12 + 8 * 9);
        let mut one_by_one = Vec::new();
        c.idx.encode(&mut one_by_one);
        c.vals.len().encode(&mut one_by_one);
        c.vals.iter().for_each(|x| x.encode(&mut one_by_one));
        assert_eq!(bytes, one_by_one, "the bulk copy is the per-element bytes");
        same(&xmpi::wire::decode_all(&bytes).unwrap());
        assert!(xmpi::wire::decode_all::<Collected>(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn pick_grid_and_block_handles_awkward_factorizations() {
        // p=27 wants a 3x3x3 cube, but n=512 has no multiple-of-3 divisor:
        // the picker must fall back to a feasible grid.
        let (g, v) = pick_grid_and_block(512, 27);
        assert_eq!(g.size(), 27);
        assert_eq!(512 % v, 0);
        assert_eq!(v % g.pz, 0);
        // Prime p.
        let (g, v) = pick_grid_and_block(100, 7);
        assert_eq!(g.size(), 7);
        assert_eq!(100 % v, 0);
    }

    #[test]
    fn block_rule_is_pinned() {
        // (n, p) → (grid, v): the four benchmark shapes and two more the
        // rule raises above the floor `max(4·pz, 16)`, ...
        let raised = [
            ((1024, 1), ([1, 1, 1], 32)),
            ((1024, 8), ([2, 2, 2], 64)),
            ((1536, 8), ([2, 2, 2], 64)),
            ((512, 4), ([2, 2, 1], 32)),
            ((768, 8), ([2, 2, 2], 48)),
            ((512, 8), ([2, 2, 2], 32)),
        ];
        // ... and the small problems (n ≤ 128·max(px, py)) it leaves there.
        let on_the_floor = [
            ((96, 4), ([2, 2, 1], 16)),
            ((128, 8), ([2, 2, 2], 16)),
            ((48, 8), ([2, 2, 2], 16)),
            ((512, 64), ([4, 4, 4], 16)),
            ((512, 16), ([2, 4, 2], 16)),
            ((512, 27), ([3, 9, 1], 16)),
            ((100, 7), ([1, 7, 1], 20)),
        ];
        for (is_raised, cases) in [(true, &raised[..]), (false, &on_the_floor[..])] {
            for &((n, p), (grid, v)) in cases {
                let (g, got) = pick_grid_and_block(n, p);
                assert_eq!(([g.px, g.py, g.pz], got), (grid, v), "auto({n}, {p})");
                assert!(n % got == 0 && got % g.pz == 0, "auto({n}, {p}) is invalid");
                if is_raised {
                    // Exactly one of the two targets binds: the update's
                    // inner dimension is 32, or each process row and column
                    // is down to its eight tile rows/columns.
                    let side = g.px.max(g.py);
                    assert!(got > (4 * g.pz).max(16), "auto({n}, {p}): not raised");
                    assert!(n / got >= 4 * side, "auto({n}, {p}): unbalanced");
                    assert!(
                        got / g.pz == 32 || n / got == 8 * side,
                        "auto({n}, {p}): neither guard binds"
                    );
                }
            }
        }
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
