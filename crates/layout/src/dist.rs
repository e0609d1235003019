//! One rank's shard of a block-cyclic distributed matrix.

use crate::desc::BlockCyclic;
use dense::Matrix;

/// A distributed matrix as seen by one rank: the layout descriptor plus this
/// rank's local storage (rows/columns packed in block-cyclic local order,
/// exactly ScaLAPACK's local storage convention transposed to row-major).
#[derive(Debug, Clone)]
pub struct DistMatrix {
    /// The layout.
    pub desc: BlockCyclic,
    /// Grid coordinates of this rank.
    pub coords: (usize, usize),
    /// Local shard, `desc.local_rows(pi) × desc.local_cols(pj)`.
    pub local: Matrix,
}

impl DistMatrix {
    /// Create a zero-initialized shard for the rank at `coords`.
    pub fn zeros(desc: BlockCyclic, coords: (usize, usize)) -> Self {
        let local = Matrix::zeros(desc.local_rows(coords.0), desc.local_cols(coords.1));
        DistMatrix {
            desc,
            coords,
            local,
        }
    }

    /// Build this rank's shard directly from a globally-replicated matrix
    /// (no communication — used to stage test inputs).
    ///
    /// # Panics
    /// If `global` does not match the descriptor's extents.
    pub fn from_global(desc: BlockCyclic, coords: (usize, usize), global: &Matrix) -> Self {
        assert_eq!(global.rows(), desc.m);
        assert_eq!(global.cols(), desc.n);
        let (pi, pj) = coords;
        let lr = desc.local_rows(pi);
        let lc = desc.local_cols(pj);
        let local = Matrix::from_fn(lr, lc, |li, lj| {
            global[(desc.row_l2g(pi, li), desc.col_l2g(pj, lj))]
        });
        DistMatrix {
            desc,
            coords,
            local,
        }
    }

    /// Read the global entry `(i, j)`.
    ///
    /// # Panics
    /// If this rank does not own the entry.
    pub(crate) fn get_global(&self, i: usize, j: usize) -> f64 {
        let (pi, li) = self.desc.row_g2l(i);
        let (pj, lj) = self.desc.col_g2l(j);
        assert_eq!(
            (pi, pj),
            self.coords,
            "entry ({i},{j}) not owned by this rank"
        );
        self.local[(li, lj)]
    }

    /// Write the global entry `(i, j)`.
    ///
    /// # Panics
    /// If this rank does not own the entry.
    pub fn set_global(&mut self, i: usize, j: usize, v: f64) {
        let (pi, li) = self.desc.row_g2l(i);
        let (pj, lj) = self.desc.col_g2l(j);
        assert_eq!(
            (pi, pj),
            self.coords,
            "entry ({i},{j}) not owned by this rank"
        );
        self.local[(li, lj)] = v;
    }

    /// Does this rank own global entry `(i, j)`?
    pub fn owns(&self, i: usize, j: usize) -> bool {
        let (pi, _) = self.desc.row_g2l(i);
        let (pj, _) = self.desc.col_g2l(j);
        (pi, pj) == self.coords
    }
}

/// Reassemble a global matrix from every rank's shard (shards indexed by
/// rank, as collected from [`xmpi::run`] results).
///
/// # Panics
/// If shards are missing or inconsistent with the descriptor.
pub fn assemble(desc: &BlockCyclic, shards: &[DistMatrix]) -> Matrix {
    assert_eq!(shards.len(), desc.nprocs(), "need one shard per rank");
    Matrix::from_fn(desc.m, desc.n, |i, j| {
        let rank = desc.owner(i, j);
        shards[rank].get_global(i, j)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen::random_matrix;
    use xmpi::Grid2;

    #[test]
    fn shard_and_assemble_roundtrip() {
        let desc = BlockCyclic::new(19, 13, 3, 2, Grid2::new(2, 3));
        let a = random_matrix(19, 13, 1);
        let shards: Vec<DistMatrix> = (0..6)
            .map(|r| DistMatrix::from_global(desc, desc.grid.coords(r), &a))
            .collect();
        let back = assemble(&desc, &shards);
        assert_eq!(back, a);
    }

    #[test]
    fn get_set_global() {
        let desc = BlockCyclic::new(8, 8, 2, 2, Grid2::new(2, 2));
        let mut d = DistMatrix::zeros(desc, (1, 0));
        // Global (2,0): row block 1 -> process row 1; col block 0 -> col 0.
        assert!(d.owns(2, 0));
        d.set_global(2, 0, 5.0);
        assert_eq!(d.get_global(2, 0), 5.0);
        assert!(!d.owns(0, 0));
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn foreign_entry_access_panics() {
        let desc = BlockCyclic::new(8, 8, 2, 2, Grid2::new(2, 2));
        let d = DistMatrix::zeros(desc, (0, 0));
        let _ = d.get_global(2, 0);
    }

    #[test]
    fn local_shapes_cover_matrix() {
        let desc = BlockCyclic::new(23, 17, 4, 4, Grid2::new(3, 2));
        let total: usize = (0..6)
            .map(|r| {
                let (pi, pj) = desc.grid.coords(r);
                desc.local_rows(pi) * desc.local_cols(pj)
            })
            .sum();
        assert_eq!(total, 23 * 17);
    }
}
