//! Block-cyclic layout descriptors.
//!
//! A block-cyclic layout chops the global `m × n` matrix into `rb × cb`
//! blocks and deals block `(B_i, B_j)` to process `(B_i mod Pr, B_j mod Pc)`
//! of a 2D grid — the distribution ScaLAPACK, MKL and SLATE all use, and the
//! one the paper's 2.5D layer-0 tiles form with `rb = cb = v`.

use xmpi::Grid2;

/// A block-cyclic distribution of an `m × n` matrix over a 2D process grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCyclic {
    /// Global row count.
    pub m: usize,
    /// Global column count.
    pub n: usize,
    /// Row block size.
    pub rb: usize,
    /// Column block size.
    pub cb: usize,
    /// Process grid.
    pub grid: Grid2,
}

impl BlockCyclic {
    /// Create a descriptor.
    ///
    /// # Panics
    /// If any extent or block size is zero.
    pub fn new(m: usize, n: usize, rb: usize, cb: usize, grid: Grid2) -> Self {
        assert!(rb > 0 && cb > 0, "block sizes must be positive");
        BlockCyclic { m, n, rb, cb, grid }
    }

    /// Number of ranks the layout spans.
    pub fn nprocs(&self) -> usize {
        self.grid.size()
    }

    /// Grid coordinates of the process owning global entry `(i, j)`.
    fn owner_coords(&self, i: usize, j: usize) -> (usize, usize) {
        debug_assert!(i < self.m && j < self.n);
        (
            (i / self.rb) % self.grid.rows,
            (j / self.cb) % self.grid.cols,
        )
    }

    /// Rank of the process owning global entry `(i, j)`.
    pub(crate) fn owner(&self, i: usize, j: usize) -> usize {
        let (pi, pj) = self.owner_coords(i, j);
        self.grid.rank_of(pi, pj)
    }

    /// Number of local rows stored on process row `pi` (ScaLAPACK `numroc`).
    pub(crate) fn local_rows(&self, pi: usize) -> usize {
        numroc(self.m, self.rb, pi, self.grid.rows)
    }

    /// Number of local columns stored on process column `pj`.
    pub(crate) fn local_cols(&self, pj: usize) -> usize {
        numroc(self.n, self.cb, pj, self.grid.cols)
    }

    /// Map a global row to `(owner process row, local row)`.
    pub(crate) fn row_g2l(&self, i: usize) -> (usize, usize) {
        let b = i / self.rb;
        let off = i % self.rb;
        (b % self.grid.rows, (b / self.grid.rows) * self.rb + off)
    }

    /// Map a global column to `(owner process column, local column)`.
    pub(crate) fn col_g2l(&self, j: usize) -> (usize, usize) {
        let b = j / self.cb;
        let off = j % self.cb;
        (b % self.grid.cols, (b / self.grid.cols) * self.cb + off)
    }

    /// Map `(process row, local row)` back to the global row.
    pub(crate) fn row_l2g(&self, pi: usize, li: usize) -> usize {
        let lb = li / self.rb;
        let off = li % self.rb;
        (lb * self.grid.rows + pi) * self.rb + off
    }

    /// Map `(process column, local column)` back to the global column.
    pub(crate) fn col_l2g(&self, pj: usize, lj: usize) -> usize {
        let lb = lj / self.cb;
        let off = lj % self.cb;
        (lb * self.grid.cols + pj) * self.cb + off
    }

    /// Export as a ScaLAPACK `DESC` array (the 9-integer interface format),
    /// for interoperability documentation and tests.
    pub fn to_scalapack(&self) -> ScalapackDesc {
        ScalapackDesc {
            dtype: 1,
            ctxt: 0,
            m: self.m as i64,
            n: self.n as i64,
            mb: self.rb as i64,
            nb: self.cb as i64,
            rsrc: 0,
            csrc: 0,
            lld: self.local_rows(0).max(1) as i64,
        }
    }
}

/// The 9-integer ScaLAPACK array descriptor (`DESC_`), as documented in the
/// ScaLAPACK Users' Guide. `rsrc = csrc = 0` (this crate always roots the
/// distribution at process `(0,0)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalapackDesc {
    /// Descriptor type (1 = dense block-cyclic).
    pub dtype: i64,
    /// BLACS context handle (unused placeholder here).
    pub ctxt: i64,
    /// Global rows.
    pub m: i64,
    /// Global columns.
    pub n: i64,
    /// Row block size.
    pub mb: i64,
    /// Column block size.
    pub nb: i64,
    /// Process row holding the first block row.
    pub rsrc: i64,
    /// Process column holding the first block column.
    pub csrc: i64,
    /// Local leading dimension.
    pub lld: i64,
}

impl ScalapackDesc {
    /// Rebuild a [`BlockCyclic`] from a ScaLAPACK descriptor and grid shape.
    ///
    /// # Panics
    /// If the descriptor uses a nonzero source process (unsupported).
    pub fn to_block_cyclic(&self, grid: Grid2) -> BlockCyclic {
        assert_eq!(self.rsrc, 0, "nonzero RSRC unsupported");
        assert_eq!(self.csrc, 0, "nonzero CSRC unsupported");
        BlockCyclic::new(
            self.m as usize,
            self.n as usize,
            self.mb as usize,
            self.nb as usize,
            grid,
        )
    }
}

/// ScaLAPACK's `numroc`: the number of rows/columns of a dimension of extent
/// `n`, distributed in blocks of `nb` over `np` processes, that land on
/// process coordinate `p`.
pub(crate) fn numroc(n: usize, nb: usize, p: usize, np: usize) -> usize {
    let nblocks = n / nb;
    let mut cnt = (nblocks / np) * nb;
    let extra = nblocks % np;
    if p < extra {
        cnt += nb;
    } else if p == extra {
        cnt += n % nb;
    }
    cnt
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(m: usize, n: usize, rb: usize, cb: usize, pr: usize, pc: usize) -> BlockCyclic {
        BlockCyclic::new(m, n, rb, cb, Grid2::new(pr, pc))
    }

    #[test]
    fn numroc_matches_manual_counts() {
        // 10 items, blocks of 3, 2 processes: blocks 0,2 -> p0 (3+3=6... block
        // 0 (3), block 2 (3), plus block 3 partial? blocks: 0,1,2 full, 3 has
        // 1 item. p0 gets blocks 0,2 => 6; p1 gets 1,3 => 3+1=4.
        assert_eq!(numroc(10, 3, 0, 2), 6);
        assert_eq!(numroc(10, 3, 1, 2), 4);
        // Exact division.
        assert_eq!(numroc(12, 3, 0, 2), 6);
        assert_eq!(numroc(12, 3, 1, 2), 6);
        // Single process gets everything.
        assert_eq!(numroc(7, 2, 0, 1), 7);
    }

    #[test]
    fn numroc_sums_to_total() {
        for n in [1usize, 5, 16, 37, 100] {
            for nb in [1usize, 2, 3, 7, 16] {
                for np in [1usize, 2, 3, 4, 5] {
                    let total: usize = (0..np).map(|p| numroc(n, nb, p, np)).sum();
                    assert_eq!(total, n, "n={n} nb={nb} np={np}");
                }
            }
        }
    }

    #[test]
    fn g2l_l2g_roundtrip() {
        let d = desc(37, 23, 4, 3, 3, 2);
        for i in 0..37 {
            let (pi, li) = d.row_g2l(i);
            assert_eq!(d.row_l2g(pi, li), i);
            assert!(li < d.local_rows(pi));
        }
        for j in 0..23 {
            let (pj, lj) = d.col_g2l(j);
            assert_eq!(d.col_l2g(pj, lj), j);
            assert!(lj < d.local_cols(pj));
        }
    }

    #[test]
    fn owner_is_consistent_with_g2l() {
        let d = desc(16, 16, 2, 2, 2, 2);
        for i in 0..16 {
            for j in 0..16 {
                let (pi, _) = d.row_g2l(i);
                let (pj, _) = d.col_g2l(j);
                assert_eq!(d.owner(i, j), d.grid.rank_of(pi, pj));
            }
        }
    }

    #[test]
    fn scalapack_desc_roundtrip() {
        let d = desc(100, 80, 8, 8, 2, 3);
        let sd = d.to_scalapack();
        assert_eq!(sd.m, 100);
        assert_eq!(sd.nb, 8);
        let back = sd.to_block_cyclic(Grid2::new(2, 3));
        assert_eq!(back, d);
    }
}
