//! 2.5D matrix multiplication — the kernel the X-partitioning framework
//! was introduced on (Kwasniewski et al., SC'19), included to demonstrate
//! that the machinery built for the factorizations (tile layout, grid
//! communicators, measured collectives) generalizes beyond them.
//!
//! Schedule (Solomonik–Demmel 2.5D / SUMMA hybrid): the inner (reduction)
//! dimension's tile steps are split evenly across the `Pz` layers; within a
//! layer, each step `K` broadcasts the `A(·,K)` tile column along process
//! rows and the `B(K,·)` tile row along process columns (SUMMA), followed
//! by a local `gemm` into the layer's partial `C`; a final z-reduction sums
//! the layer contributions onto layer 0. With `Pz = 1` this *is* 2D SUMMA —
//! the baseline the 2.5D analysis compares against.
//!
//! Storage: a rank holds its share of `A(·,K)` as the `(rows)×v` panel it
//! broadcasts, its share of `B(K,·)` as the `v×(cols)` panel it broadcasts,
//! and its share of `C` as one dense local matrix (tile `(I, J)` at local
//! tile position `(I / Px, J / Py)`, as in the `common` module), collected as
//! one block. A SUMMA step is therefore one `gemm` of the two received
//! panels into `C`, and the z-reduction sums `C`'s storage in place.

use crate::common::{phase, phase_end, pick_grid_and_block, Collected, Lower, RankFactor};
use dense::gemm::{gemm, Trans};
use dense::matrix::MatRef;
use dense::Matrix;
use xmpi::{Comm, Grid3, WorldStats};

/// Configuration of a 2.5D multiplication.
#[derive(Debug, Clone)]
pub struct Mmm25dConfig {
    /// Matrix dimension (square `C = A·B`; must be divisible by `v`).
    pub n: usize,
    /// Tile side.
    pub v: usize,
    /// Processor grid (`pz` = replication depth).
    pub grid: Grid3,
    /// Collect the product for host-side validation.
    pub collect: bool,
}

impl Mmm25dConfig {
    /// Validated constructor.
    ///
    /// # Panics
    /// If `v` does not divide `n`.
    pub fn new(n: usize, v: usize, grid: Grid3) -> Self {
        assert!(v > 0 && n.is_multiple_of(v), "v={v} must divide n={n}");
        Mmm25dConfig {
            n,
            v,
            grid,
            collect: true,
        }
    }

    /// Automatic grid/block selection: the grid and the block-size rule of
    /// [`ConfluxConfig::auto`](crate::ConfluxConfig::auto), as for the
    /// factorizations.
    pub fn auto(n: usize, p: usize) -> Self {
        let (grid, v) = pick_grid_and_block(n, p);
        Mmm25dConfig::new(n, v, grid)
    }

    /// Disable product collection.
    pub fn volume_only(mut self) -> Self {
        self.collect = false;
        self
    }
}

/// Output of a 2.5D multiplication.
pub struct MmmOutput {
    /// `C = A·B`, if collected.
    pub c: Option<Matrix>,
    /// Measured communication statistics.
    pub stats: WorldStats,
}

/// Multiply `a · b` on the simulated machine.
///
/// Inputs are staged tile-cyclically without measured traffic (the
/// already-distributed convention used throughout): layer `k` holds the
/// `A` tile columns and `B` tile rows of its inner-dimension share.
///
/// # Panics
/// If shapes are not `n × n`.
pub fn mmm25d(cfg: &Mmm25dConfig, a: &Matrix, b: &Matrix) -> MmmOutput {
    assert_eq!(a.rows(), cfg.n);
    assert_eq!(a.cols(), cfg.n);
    assert_eq!(b.rows(), cfg.n);
    assert_eq!(b.cols(), cfg.n);
    let out = xmpi::run(cfg.grid.size(), |comm| rank_program(comm, cfg, a, b));
    let c = cfg.collect.then(|| {
        let identity: Vec<usize> = (0..cfg.n).collect();
        Collected::assemble(cfg.n, cfg.v, &identity, &out.results)
    });
    MmmOutput {
        c,
        stats: out.stats,
    }
}

/// One rank's program; returns its share of `C` (layer 0 of a collecting
/// run) or nothing.
fn rank_program(comm: &Comm, cfg: &Mmm25dConfig, a: &Matrix, b: &Matrix) -> RankFactor {
    let (g, v, nt) = (cfg.grid, cfg.v, cfg.n / cfg.v);
    let (pi, pj, pk) = g.coords(comm.rank());

    let yrow = comm.subcomm(1, &g.y_members(pi, pk)); // fixed (pi, pk), local = pj
    let xcol = comm.subcomm(2, &g.x_members(pj, pk)); // fixed (pj, pk), local = pi
    let zfib = comm.subcomm(3, &g.z_members(pi, pj)); // fixed (pi, pj), local = pk

    // Layer pk owns inner-dimension tile steps K ≡ pk (mod pz).
    let my_ks: Vec<usize> = (pk..nt).step_by(g.pz).collect();
    let my_tis: Vec<usize> = (pi..nt).step_by(g.px).collect();
    let my_tjs: Vec<usize> = (pj..nt).step_by(g.py).collect();
    let (rows, cols) = (my_tis.len() * v, my_tjs.len() * v);

    // This rank's share of `A(·, k)` / `B(k, ·)`, packed as the panel the
    // SUMMA broadcast carries — staged in place, the already-distributed
    // convention; empty where another rank is the step's root.
    let pack_a = |k: usize| -> Vec<f64> {
        let mut panel = Vec::new();
        if pj == k % g.py {
            for r in my_tis.iter().flat_map(|&ti| ti * v..(ti + 1) * v) {
                panel.extend_from_slice(&a.row(r)[k * v..(k + 1) * v]);
            }
        }
        panel
    };
    let pack_b = |k: usize| -> Vec<f64> {
        let mut panel = Vec::new();
        if pi == k % g.px {
            for r in k * v..(k + 1) * v {
                for &tj in &my_tjs {
                    panel.extend_from_slice(&b.row(r)[tj * v..(tj + 1) * v]);
                }
            }
        }
        panel
    };

    // Layer-local partial product for the C tiles this 2D position owns.
    let mut c = Matrix::zeros(rows, cols);

    // SUMMA over this layer's inner steps.
    for &k in &my_ks {
        phase(comm, "summa_bcast");
        // A(·, k): owner column k mod py broadcasts along rows;
        // B(k, ·): owner row k mod px broadcasts along columns. Both keep
        // the broadcast's shared storage: the gemm below reads the panels
        // through borrowed views, so a rank that is not the subtree's last
        // consumer never copies them.
        let abuf = yrow.bcast_buf_f64(k % g.py, pack_a(k));
        let bbuf = xcol.bcast_buf_f64(k % g.px, pack_b(k));

        phase(comm, "local_gemm");
        gemm(
            Trans::N,
            Trans::N,
            1.0,
            MatRef::from_slice(&abuf, rows, v, v),
            MatRef::from_slice(&bbuf, v, cols, cols),
            1.0,
            c.as_mut(),
        );
    }

    // z-reduction of the partial C onto layer 0.
    phase(comm, "c_reduce");
    if g.pz > 1 {
        zfib.reduce_sum_f64(0, c.data_mut());
    }
    phase_end(comm);
    let mut share = Collected::default();
    if pk == 0 && cfg.collect {
        let rows: Vec<usize> = my_tis.iter().flat_map(|&ti| ti * v..(ti + 1) * v).collect();
        let starts: Vec<usize> = my_tjs.iter().map(|&tj| tj * v).collect();
        share.push(&rows, &starts, c.as_ref());
    }
    (Lower::default(), share)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen::random_matrix;
    use dense::norms::max_abs_diff;

    fn check(n: usize, v: usize, grid: Grid3, seed: u64) {
        let a = random_matrix(n, n, seed);
        let b = random_matrix(n, n, seed + 1);
        let out = mmm25d(&Mmm25dConfig::new(n, v, grid), &a, &b);
        let mut expect = Matrix::zeros(n, n);
        gemm(
            Trans::N,
            Trans::N,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            expect.as_mut(),
        );
        let diff = max_abs_diff(out.c.as_ref().unwrap(), &expect);
        assert!(diff < 1e-10, "diff {diff} for n={n} v={v} grid={grid:?}");
    }

    #[test]
    fn single_rank() {
        check(16, 4, Grid3::new(1, 1, 1), 1);
    }

    #[test]
    fn summa_2d_grids() {
        check(24, 4, Grid3::new(2, 2, 1), 2);
        check(24, 4, Grid3::new(2, 3, 1), 3);
        check(32, 8, Grid3::new(4, 2, 1), 4);
    }

    #[test]
    fn replicated_grids() {
        check(24, 4, Grid3::new(2, 2, 2), 5);
        check(48, 4, Grid3::new(2, 2, 4), 6);
        check(36, 4, Grid3::new(3, 2, 3), 7);
    }

    #[test]
    fn more_ranks_than_tiles() {
        check(8, 4, Grid3::new(4, 4, 1), 8);
    }

    #[test]
    fn replication_cuts_summa_volume() {
        // The 2.5D MMM claim: at fixed P, c > 1 moves less data than SUMMA.
        // (Here the crossover arrives at much smaller P than for LU because
        // MMM has no panel/pivot machinery — only the broadcasts shrink.)
        let n = 96;
        let a = random_matrix(n, n, 9);
        let b = random_matrix(n, n, 10);
        let flat = mmm25d(
            &Mmm25dConfig::new(n, 4, Grid3::new(4, 4, 1)).volume_only(),
            &a,
            &b,
        );
        let repl = mmm25d(
            &Mmm25dConfig::new(n, 4, Grid3::new(2, 2, 4)).volume_only(),
            &a,
            &b,
        );
        assert!(
            repl.stats.total_bytes_sent() < flat.stats.total_bytes_sent(),
            "c=4 {} vs c=1 {}",
            repl.stats.total_bytes_sent(),
            flat.stats.total_bytes_sent()
        );
    }

    #[test]
    fn measured_volume_respects_the_mmm_lower_bound() {
        let n = 64;
        let grid = Grid3::new(2, 2, 2);
        let p = grid.size();
        let a = random_matrix(n, n, 11);
        let b = random_matrix(n, n, 12);
        let out = mmm25d(&Mmm25dConfig::new(n, 4, grid).volume_only(), &a, &b);
        // The bound's M is fast-memory capacity; this schedule's per-rank
        // working set is its A, B and C shares plus the SUMMA broadcast
        // buffers — ≈ 3·c·N²/P words.
        let m = 3.0 * (grid.pz * n * n) as f64 / p as f64;
        let bound = pebbles_mmm_bound(n, p, m);
        let words = out.stats.avg_rank_bytes() / 16.0;
        assert!(words >= bound, "measured {words:.0} below bound {bound:.0}");
    }

    /// Local copy of the MMM bound to avoid a dev-dependency cycle:
    /// `2N³/(P√M)`.
    fn pebbles_mmm_bound(n: usize, p: usize, m: f64) -> f64 {
        2.0 * (n as f64).powi(3) / (p as f64 * m.sqrt())
    }
}
