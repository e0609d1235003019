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

    /// The paper's default decomposition: `[√(P/c), √(P/c), c]` with the
    /// replication factor `c` chosen as the largest cube-balanced value that
    /// divides the processor count, capped by the memory-imposed maximum
    /// `c ≤ P·M/N²` when `max_c` is given.
    pub fn for_processors(p: usize, max_c: usize) -> Self {
        assert!(p > 0);
        let mut best = Grid3::new(1, 1, 1);
        let mut best_cost = f64::MAX;
        for c in 1..=p.min(max_c.max(1)) {
            if !p.is_multiple_of(c) {
                continue;
            }
            let q = p / c;
            let g = Grid2::near_square(q);
            // Classic 2.5D constraint: the replication depth may not exceed
            // the layer sides (c ≤ P^(1/3) in the balanced case).
            if c > g.rows.min(g.cols) {
                continue;
            }
            // Per-rank volume of a 2.5D schedule scales as
            // aspect_penalty / √c: replication divides volume by √c while a
            // skewed layer inflates the larger-side broadcasts.
            let aspect = (g.rows + g.cols) as f64 / (2.0 * ((g.rows * g.cols) as f64).sqrt());
            let cost = aspect / (c as f64).sqrt();
            if cost < best_cost {
                best_cost = cost;
                best = Grid3::new(g.rows, g.cols, c);
            }
        }
        best
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

    #[test]
    fn grid3_for_processors_prefers_replication() {
        let g = Grid3::for_processors(8, 8);
        assert_eq!(g.size(), 8);
        assert_eq!(
            (g.px, g.py, g.pz),
            (2, 2, 2),
            "8 ranks should form a 2x2x2 cube"
        );
        let g = Grid3::for_processors(16, 16);
        assert_eq!(g.size(), 16);
        assert!(
            g.pz >= 2,
            "ample memory should enable replication, got {g:?}"
        );
    }

    #[test]
    fn grid3_memory_cap_limits_replication() {
        let g = Grid3::for_processors(8, 1);
        assert_eq!(g.pz, 1);
        assert_eq!(g.size(), 8);
    }

    #[test]
    fn grid3_degenerate_sizes() {
        assert_eq!(Grid3::for_processors(1, 4).size(), 1);
        let g = Grid3::for_processors(7, 7);
        assert_eq!(g.size(), 7);
    }
}
