//! 2D block-cyclic baselines: ScaLAPACK-style right-looking LU with partial
//! pivoting and explicit row swapping, and right-looking Cholesky.
//!
//! The paper's measurements show Intel MKL and SLATE both use this schedule
//! ("the standard partial pivoting algorithm using the 2D decomposition",
//! §9); these routines are their executable stand-ins. The LU's
//! communication structure is the classical one:
//!
//! * per column: pivot search over the owning process column (all-gather of
//!   local candidates), pivot broadcast, full-row swap between the two
//!   owning process rows of every process column;
//! * per panel: `L` panel broadcast along process rows, `U` block row
//!   broadcast along process columns, local rank-`nb` update.
//!
//! Per-rank volume scales as `N²/√P` — the 2D wall the 2.5D schedules break.
//!
//! The 2D Cholesky is COnfCHOX at `Pz = 1`: [`twod_cholesky`] runs
//! [`confchox_cholesky`] on the flat grid `Pr × Pc × 1` with `v = nb`. With
//! one layer there is no z-reduction and no replication, and what remains is
//! the textbook schedule — diagonal block factored on its owner and
//! broadcast down its process column, panel solve, the panel broadcast along
//! process rows and all-gathered down process columns for its transposed
//! role, a lower-only trailing update. The paper models MKL/SLATE Cholesky
//! the same way (Table 2), so at equal `v` replication is the only
//! difference between COnfCHOX and this baseline.
//!
//! The LU runs on the 2.5D schedules' data plane (the `common` module) on the
//! same flat grid `Pr × Pc × 1` with `v = nb`: a staged tile store, the
//! grid's row and column communicators, and local suffixes from
//! `Tiling::owned_before` for the rows and columns `≥ i`. Pivot search and
//! elimination run over store rows, a row swap is the swap ablation's
//! exchange of store rows, the panel solve and the rank-`nb` update are one
//! `trsm` and one `gemm` in place on column views of the store, and each
//! rank hands its store home as its factor rows (on one rank, the store is
//! the output). So a wall-clock comparison between schedules compares
//! schedules, not storage.

use crate::common::{
    check_shape, phase, phase_end, split_results, stage_from_global, swap_store_rows, Collected,
    Net, RankResult, Swap, TileStore, Tiling,
};
use crate::confchox::{confchox_cholesky, CholOutput, ConfchoxConfig};
use dense::gemm::{gemm, Trans};
use dense::trsm::{trsm, Diag, Side, Uplo};
use dense::{Error, MatRef, Matrix};
use std::ops::Range;
use xmpi::{Grid2, Grid3, WorldStats};

const TAG_SWAP: u64 = 8_000_000;

/// Configuration for the 2D baselines.
#[derive(Debug, Clone)]
pub struct TwodConfig {
    /// Matrix dimension.
    pub n: usize,
    /// Block size (panel width and distribution block).
    pub nb: usize,
    /// 2D process grid.
    pub grid: Grid2,
    /// Collect the factored matrix.
    pub collect: bool,
}

impl TwodConfig {
    /// Validated constructor.
    ///
    /// # Panics
    /// If `nb` is zero or does not divide `n` (kept aligned for simplicity,
    /// as ScaLAPACK defaults do for benchmark sizes).
    pub fn new(n: usize, nb: usize, grid: Grid2) -> Self {
        assert!(nb > 0 && n.is_multiple_of(nb), "nb={nb} must divide n={n}");
        TwodConfig {
            n,
            nb,
            grid,
            collect: true,
        }
    }

    /// Near-square grid and a default block size.
    pub fn auto(n: usize, p: usize) -> Self {
        let grid = Grid2::near_square(p);
        let mut nb = 32.min(n);
        while !n.is_multiple_of(nb) {
            nb -= 1;
        }
        TwodConfig::new(n, nb, grid)
    }

    /// Disable result collection.
    pub fn volume_only(mut self) -> Self {
        self.collect = false;
        self
    }
}

/// Output of the 2D LU baseline.
pub struct TwodLuOutput {
    /// LAPACK-style swap sequence: at step `k`, row `k` was swapped with
    /// `ipiv[k]`.
    pub ipiv: Vec<usize>,
    /// The factored matrix (packed `L\U`, rows physically swapped), if
    /// collected.
    pub packed: Option<Matrix>,
    /// Measured communication statistics.
    pub stats: WorldStats,
}

/// ScaLAPACK-style 2D LU with partial pivoting.
///
/// # Errors
/// [`Error::ShapeMismatch`] if `a` is not `n × n`; [`Error::SingularAt`] if
/// a pivot column is exactly zero.
pub fn twod_lu(cfg: &TwodConfig, a: &Matrix) -> Result<TwodLuOutput, Error> {
    check_shape(a, cfg.n)?;
    let til = Tiling::new(cfg.n, cfg.nb, Grid3::new(cfg.grid.rows, cfg.grid.cols, 1));
    let out = xmpi::run(til.grid.size(), |comm| {
        lu_rank(&Net::new(comm, til), a, cfg.collect)
    });
    let (parts, ipiv) = split_results(out.results)?;
    // The rows were swapped into place: the stores are in pivoted order.
    let rows = Vec::from_iter(0..cfg.n);
    let packed = cfg
        .collect
        .then(|| Collected::assemble(cfg.n, cfg.nb, &rows, parts));
    Ok(TwodLuOutput {
        ipiv,
        packed,
        stats: out.stats,
    })
}

/// The block of `store` over the local rows `rows` and columns `cols`,
/// packed row-major.
fn pack(store: &mut TileStore, rows: Range<usize>, cols: Range<usize>) -> Vec<f64> {
    let width = cols.len();
    let block = store.cols_mut(cols).block(rows.start, 0, rows.len(), width);
    block.to_owned().into_vec()
}

fn lu_rank(net: &Net<'_>, a: &Matrix, collect: bool) -> RankResult {
    let (comm, til) = (net.comm, net.til);
    let (g, n, nb) = (til.grid, til.n, til.v);
    let (pi, pj, _) = g.coords(comm.rank());
    let mut store = stage_from_global(comm, &til, a, false);
    let mut ipiv: Vec<usize> = Vec::with_capacity(n);
    // My rows (columns) with global index ≥ `i` are the local suffix from here.
    let lrow_from = |i: usize| til.owned_before(i, pi, g.px);
    let lcol_from = |j: usize| til.owned_before(j, pj, g.py);
    let (lrows, lcols) = (lrow_from(n), lcol_from(n));
    // A row swap exchanges whole local rows.
    let keep = [0..lcols, lcols..lcols];

    for step in 0..til.nt {
        let (k0, end) = (step * nb, (step + 1) * nb);
        let pcol = step % g.py; // process column owning the panel
        let prow = step % g.px; // process row owning the U block row

        // Local offsets of the panel (on its owners: of row/column `k0`
        // itself) and of the trailing matrix.
        let (r0, c0) = (lrow_from(k0), lcol_from(k0));
        let (r1, c1) = (lrow_from(end), lcol_from(end));
        let (nrows, ncols) = (lrows - r1, lcols - c1);

        // ---- Panel factorization with partial pivoting ------------------
        phase(comm, "panel");
        for j in k0..end {
            // Column `j` and the rest of the panel right of it, locally.
            let panel = c0 + (j - k0)..c0 + nb;
            // Pivot search over the owning process column; `-1` stands for
            // "the column is exactly zero".
            let mut piv = vec![j as f64];
            if pj == pcol {
                let (mut best, mut best_row) = (f64::NEG_INFINITY, j);
                for l in lrow_from(j)..lrows {
                    let val = store.row(l)[panel.start].abs();
                    if val > best {
                        (best, best_row) = (val, store.global_row(l));
                    }
                }
                // All-gather candidates over the process column; every
                // member picks the same winner (ties: smallest row).
                let cands = net.xcol.allgather_f64(&[best, best_row as f64]);
                let (mut gbest, mut grow) = (f64::NEG_INFINITY, f64::MAX);
                for c in &cands {
                    if c[0] > gbest || (c[0] == gbest && c[1] < grow) {
                        (gbest, grow) = (c[0], c[1]);
                    }
                }
                piv[0] = if gbest == 0.0 { -1.0 } else { grow };
            }
            // Propagate the pivot to every process column (pivot metadata
            // broadcast along process rows), so a singular column makes
            // every rank abort together.
            net.yrow.bcast_f64(pcol, &mut piv);
            if piv[0] < 0.0 {
                return Err(Error::SingularAt(j));
            }
            let piv_row = piv[0] as usize;
            ipiv.push(piv_row);

            // Full-row swap j ↔ piv_row in every process column.
            if piv_row != j {
                if let Some(swap) = Swap::of(&til, &store, comm.rank(), j, piv_row) {
                    swap_store_rows(comm, &mut store, &keep, &swap, TAG_SWAP);
                }
            }

            // Broadcast the pivot row's panel segment (cols j..end) plus the
            // pivot value down the owning process column, then eliminate.
            if pj == pcol {
                let owner = step % g.px;
                let mut seg = Vec::new();
                if owner == pi {
                    seg = store.row(store.local_row(j))[panel.clone()].to_vec();
                }
                net.xcol.bcast_f64(owner, &mut seg);
                let ajj = seg[0];
                for l in lrow_from(j + 1)..lrows {
                    let row = &mut store.row_mut(l)[panel.clone()];
                    let lval = row[0] / ajj;
                    row[0] = lval;
                    for (x, u) in row[1..].iter_mut().zip(&seg[1..]) {
                        *x -= lval * u;
                    }
                }
            }
        }

        if end >= n {
            break;
        }

        // ---- Broadcast L00 along the U-owning process row, solve U12 ----
        phase(comm, "u_panel");
        if pi == prow {
            let mut l00 = vec![0.0; nb * nb];
            if pj == pcol {
                l00 = pack(&mut store, r0..r1, c0..c1);
            }
            net.yrow.bcast_f64(pcol, &mut l00);
            // My trailing columns of the U block row, in place.
            if ncols > 0 {
                trsm(
                    Side::Left,
                    Uplo::Lower,
                    Trans::N,
                    Diag::Unit,
                    1.0,
                    MatRef::from_slice(&l00, nb, nb, nb),
                    store.cols_mut(c1..lcols).block(r0, 0, nb, ncols),
                );
            }
        }

        // ---- Broadcast panels, rank-nb trailing update -------------------
        phase(comm, "update");
        // L panel rows ≡ pi travel along the process row from pcol.
        let mut lbuf: Vec<f64> = Vec::new();
        if nrows > 0 {
            if pj == pcol {
                lbuf = pack(&mut store, r1..lrows, c0..c1);
            }
            net.yrow.bcast_f64(pcol, &mut lbuf);
        }
        // U block-row columns ≡ pj travel down the process column from prow.
        let mut ubuf: Vec<f64> = Vec::new();
        if ncols > 0 {
            if pi == prow {
                ubuf = pack(&mut store, r0..r1, c1..lcols);
            }
            net.xcol.bcast_f64(prow, &mut ubuf);
        }

        if nrows > 0 && ncols > 0 {
            gemm(
                Trans::N,
                Trans::N,
                -1.0,
                MatRef::from_slice(&lbuf, nrows, nb, nb),
                MatRef::from_slice(&ubuf, nb, ncols, ncols),
                1.0,
                store.cols_mut(c1..lcols).block(r1, 0, nrows, ncols),
            );
        }
    }

    phase_end(comm);
    // Every rank's store holds its rows of the packed factor in full.
    let lower = collect.then(|| store.into_lower(|_| n));
    Ok(((lower.unwrap_or_default(), Collected::default()), ipiv))
}

/// Right-looking 2D Cholesky (lower): COnfCHOX on the flat grid
/// `grid.rows × grid.cols × 1` with `v = nb`. Rank `(i, j)` of the 2D grid
/// is rank `(i, j, 0)` of the flat one, so per-rank statistics line up.
///
/// # Errors
/// [`Error::ShapeMismatch`] if `a` is not `n × n`;
/// [`Error::NotPositiveDefinite`] if a leading minor is not positive.
pub fn twod_cholesky(cfg: &TwodConfig, a: &Matrix) -> Result<CholOutput, Error> {
    let grid = Grid3::new(cfg.grid.rows, cfg.grid.cols, 1);
    let flat = ConfchoxConfig {
        collect: cfg.collect,
        ..ConfchoxConfig::new(cfg.n, cfg.nb, grid)
    };
    confchox_cholesky(&flat, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen::{needs_pivoting, random_matrix, random_spd};
    use dense::norms::{lu_residual, po_residual};

    fn check_lu(n: usize, nb: usize, grid: Grid2, seed: u64) {
        let a = random_matrix(n, n, seed);
        let cfg = TwodConfig::new(n, nb, grid);
        let out = twod_lu(&cfg, &a).unwrap();
        assert_eq!(out.ipiv.len(), n);
        let res = lu_residual(&a, out.packed.as_ref().unwrap(), &out.ipiv);
        assert!(res < 1e-10, "residual {res} n={n} nb={nb} grid={grid:?}");
    }

    fn check_chol(n: usize, nb: usize, grid: Grid2, seed: u64) {
        let a = random_spd(n, seed);
        let cfg = TwodConfig::new(n, nb, grid);
        let out = twod_cholesky(&cfg, &a).unwrap();
        let res = po_residual(&a, out.l.as_ref().unwrap());
        assert!(res < 1e-10, "residual {res} n={n} nb={nb} grid={grid:?}");
    }

    #[test]
    fn lu_single_rank() {
        check_lu(16, 4, Grid2::new(1, 1), 1);
    }

    #[test]
    fn lu_various_grids() {
        check_lu(24, 4, Grid2::new(2, 2), 2);
        check_lu(24, 4, Grid2::new(1, 4), 3);
        check_lu(24, 4, Grid2::new(4, 1), 4);
        check_lu(32, 8, Grid2::new(2, 3), 5);
    }

    #[test]
    fn lu_pivoting_stress() {
        let n = 24;
        let a = needs_pivoting(n, 7);
        let cfg = TwodConfig::new(n, 4, Grid2::new(2, 2));
        let out = twod_lu(&cfg, &a).unwrap();
        let res = lu_residual(&a, out.packed.as_ref().unwrap(), &out.ipiv);
        assert!(res < 1e-8, "residual {res}");
    }

    #[test]
    fn lu_matches_sequential_pivots_on_one_rank() {
        let n = 20;
        let a = random_matrix(n, n, 9);
        let cfg = TwodConfig::new(n, 5, Grid2::new(1, 1));
        let out = twod_lu(&cfg, &a).unwrap();
        let mut seq = a.clone();
        let ipiv_seq = dense::getrf(&mut seq, 5).unwrap();
        assert_eq!(
            out.ipiv, ipiv_seq,
            "distributed pivots must match LAPACK reference"
        );
    }

    #[test]
    fn chol_various_grids() {
        check_chol(24, 4, Grid2::new(2, 2), 2);
        check_chol(24, 4, Grid2::new(1, 4), 3);
        check_chol(24, 6, Grid2::new(3, 2), 4);
        check_chol(32, 8, Grid2::new(2, 2), 5);
    }

    #[test]
    fn chol_indefinite_reports_error() {
        let mut a = random_spd(16, 6);
        a[(10, 10)] = -1.0;
        let cfg = TwodConfig::new(16, 4, Grid2::new(2, 2));
        assert!(matches!(
            twod_cholesky(&cfg, &a),
            Err(Error::NotPositiveDefinite(10))
        ));
    }

    #[test]
    fn volume_scales_like_inverse_sqrt_p() {
        // The 2D wall: per-rank volume ~ N²/√P. Going from P=1 to P=4 should
        // not reduce per-rank volume by more than ~3x (it halves, plus
        // log-factors), unlike a 2.5D schedule.
        let n = 64;
        let a = random_matrix(n, n, 8);
        let v4 = twod_lu(&TwodConfig::new(n, 8, Grid2::new(2, 2)).volume_only(), &a)
            .unwrap()
            .stats;
        let v16 = twod_lu(&TwodConfig::new(n, 8, Grid2::new(4, 4)).volume_only(), &a)
            .unwrap()
            .stats;
        let per4 = v4.avg_rank_bytes();
        let per16 = v16.avg_rank_bytes();
        // √(16/4) = 2: expect roughly a 2x drop, allow wide band.
        let ratio = per4 / per16;
        assert!(ratio > 1.2 && ratio < 4.0, "2D scaling ratio {ratio}");
    }
}
