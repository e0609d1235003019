//! Cartesian process grids.
//!
//! The 2.5D schedules view the world as a `[Px, Py, Pz]` grid (Figure 7 of
//! the paper); the 2D baselines use `[Pr, Pc]`. These helpers map between
//! linear ranks and grid coordinates and enumerate the member lists used to
//! build row/column/fibre sub-communicators.

/// A 2D process grid with row-major rank layout: `rank = i * cols + j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid2 {
    /// Number of process rows.
    pub rows: usize,
    /// Number of process columns.
    pub cols: usize,
}

impl Grid2 {
    /// Create a grid; `rows * cols` must equal the communicator size it is
    /// used with.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0);
        Grid2 { rows, cols }
    }

    /// Pick a near-square factorization of `p`.
    pub fn near_square(p: usize) -> Self {
        assert!(p > 0);
        let mut r = (p as f64).sqrt() as usize;
        while r > 1 && !p.is_multiple_of(r) {
            r -= 1;
        }
        Grid2::new(r.max(1), p / r.max(1))
    }

    /// Total ranks in the grid.
    pub fn size(&self) -> usize {
        self.rows * self.cols
    }

    /// Coordinates `(i, j)` of a rank.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.size());
        (rank / self.cols, rank % self.cols)
    }

    /// Rank at coordinates `(i, j)`.
    pub fn rank_of(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.rows && j < self.cols);
        i * self.cols + j
    }
}

/// A 3D process grid `[Px, Py, Pz]` with layout
/// `rank = k·px·py + i·py + j`: the z (replication) dimension varies
/// slowest, so layer 0 is ranks `0 .. px*py`, and within a layer the
/// numbering is row-major — identical to [`Grid2`], so a layer-0 tile
/// layout (`BlockCyclic` over `Grid2::new(px, py)`) addresses exactly the
/// first `px·py` world ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid3 {
    /// Extent of the first (matrix-row) dimension.
    pub px: usize,
    /// Extent of the second (matrix-column) dimension.
    pub py: usize,
    /// Extent of the replication (reduction) dimension.
    pub pz: usize,
}

impl Grid3 {
    /// Create a grid; `px * py * pz` must equal the communicator size it is
    /// used with.
    pub fn new(px: usize, py: usize, pz: usize) -> Self {
        assert!(px > 0 && py > 0 && pz > 0);
        Grid3 { px, py, pz }
    }

    /// Total ranks in the grid.
    pub fn size(&self) -> usize {
        self.px * self.py * self.pz
    }

    /// Coordinates `(i, j, k)` of a rank.
    pub fn coords(&self, rank: usize) -> (usize, usize, usize) {
        debug_assert!(rank < self.size());
        let k = rank / (self.px * self.py);
        let rem = rank % (self.px * self.py);
        (rem / self.py, rem % self.py, k)
    }

    /// Rank at coordinates `(i, j, k)`.
    pub fn rank_of(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.px && j < self.py && k < self.pz);
        k * self.px * self.py + i * self.py + j
    }

    /// Ranks sharing `(j, k)` — a matrix-row fibre, in `i` order.
    pub fn x_members(&self, j: usize, k: usize) -> Vec<usize> {
        (0..self.px).map(|i| self.rank_of(i, j, k)).collect()
    }

    /// Ranks sharing `(i, k)` — a matrix-column fibre, in `j` order.
    pub fn y_members(&self, i: usize, k: usize) -> Vec<usize> {
        (0..self.py).map(|j| self.rank_of(i, j, k)).collect()
    }

    /// Ranks sharing `(i, j)` — a replication fibre, in `k` order.
    pub fn z_members(&self, i: usize, j: usize) -> Vec<usize> {
        (0..self.pz).map(|k| self.rank_of(i, j, k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2_roundtrip() {
        let g = Grid2::new(3, 4);
        for r in 0..12 {
            let (i, j) = g.coords(r);
            assert_eq!(g.rank_of(i, j), r);
        }
    }

    #[test]
    fn grid2_near_square_factorizations() {
        assert_eq!(Grid2::near_square(16), Grid2::new(4, 4));
        assert_eq!(Grid2::near_square(12), Grid2::new(3, 4));
        assert_eq!(Grid2::near_square(7), Grid2::new(1, 7));
        assert_eq!(Grid2::near_square(1), Grid2::new(1, 1));
    }

    #[test]
    fn grid3_roundtrip_and_members() {
        let g = Grid3::new(2, 3, 2);
        for r in 0..12 {
            let (i, j, k) = g.coords(r);
            assert_eq!(g.rank_of(i, j, k), r);
        }
        assert_eq!(g.z_members(1, 2).len(), 2);
        assert_eq!(
            g.x_members(0, 1),
            vec![g.rank_of(0, 0, 1), g.rank_of(1, 0, 1)]
        );
    }
}
