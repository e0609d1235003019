//! ScaLAPACK-compatible entry points — the paper's "fully
//! ScaLAPACK-compatible" wrapper layer (§8): the caller's matrix arrives in
//! *their* block-cyclic layout (any `DESC`-expressible one), is staged with
//! the COSTA-style redistribution onto COnfLUX's layer-0 tile layout, is
//! factored, and the factor travels back into the caller's layout — every
//! staging byte measured.
//!
//! The write-back reads the factor where the rank programs left it — the
//! `L` rows in the tile stores, the rest in the collected blocks — and
//! hands it, run by run, to the layout crate's one run router, which also
//! carries both redistributions.
//!
//! Naming follows ScaLAPACK: [`pdgetrf`] (LU) and [`pdpotrf`] (Cholesky).
//! Unlike ScaLAPACK's `pdgetrf`, the factor comes back in *pivoted row
//! coordinates* with an explicit permutation (COnfLUX's row masking never
//! swaps rows, so the natural output is `P·A = L·U` plus `perm`).

use crate::common::{
    check_shape, phase, phase_end, split_results, Collected, Lower, RankResult, State, TileStore,
    Tiling,
};
use crate::confchox::{self, ConfchoxConfig};
use crate::conflux::{self, ConfluxConfig, PivotPolicy};
use crate::ft::Guard;
use dense::{Error, Matrix};
use layout::redist::{redistribute_subset, route_runs};
use layout::{BlockCyclic, DistMatrix};
use xmpi::{Comm, Grid2, WorldStats};

/// Result of a wrapped factorization: per-rank output shards in the
/// caller's layout, plus the permutation and measured traffic.
pub struct ScalapackOutput {
    /// One shard per rank, in the caller's layout. For LU the shard holds
    /// the packed `L\U` of the *pivoted* matrix; for Cholesky, `L` in the
    /// lower triangle.
    pub shards: Vec<DistMatrix>,
    /// `perm[s]` = original row at pivoted position `s` (identity for
    /// Cholesky).
    pub perm: Vec<usize>,
    /// Measured traffic, including both staging directions.
    pub stats: WorldStats,
}

/// ScaLAPACK-style LU: factor a matrix distributed in `user_desc` with
/// COnfLUX and return the factor in `user_desc` again.
///
/// `user_desc` must span the same rank count as `cfg.grid` (the caller's
/// machine is the machine).
///
/// # Errors
/// [`Error::ShapeMismatch`] if `a` is not `cfg.n × cfg.n`, before any world
/// is launched; otherwise propagates singularity.
///
/// # Panics
/// On a descriptor whose extent or rank count does not match `cfg`.
pub fn pdgetrf(
    user_desc: BlockCyclic,
    a: &Matrix,
    cfg: &ConfluxConfig,
) -> Result<ScalapackOutput, Error> {
    let til = Tiling::new(cfg.n, cfg.v, cfg.grid);
    let factor = |comm: &Comm, tiles: TileStore| {
        let (guard, fresh) = (&mut Guard::new(false), State::fresh(tiles));
        conflux::rank_program(comm, cfg, PivotPolicy::Mask, guard, fresh, None)
    };
    wrapped(user_desc, a, til, cfg.collect, false, factor)
}

/// ScaLAPACK-style Cholesky: factor an SPD matrix distributed in
/// `user_desc` with COnfCHOX and return `L` in `user_desc`.
///
/// # Errors
/// [`Error::ShapeMismatch`] if `a` is not `cfg.n × cfg.n`, before any world
/// is launched; otherwise propagates [`Error::NotPositiveDefinite`].
///
/// # Panics
/// On a descriptor whose extent or rank count does not match `cfg`.
pub fn pdpotrf(
    user_desc: BlockCyclic,
    a: &Matrix,
    cfg: &ConfchoxConfig,
) -> Result<ScalapackOutput, Error> {
    let til = Tiling::new(cfg.n, cfg.v, cfg.grid);
    // Only the lower-triangular tiles are COnfCHOX's storage.
    let factor = |comm: &Comm, tiles: TileStore| {
        confchox::rank_program(comm, cfg, &mut Guard::new(false), State::fresh(tiles), None)
    };
    wrapped(user_desc, a, til, cfg.collect, true, factor)
}

/// The pipeline both entry points share, around `factor` — a plain rank
/// program bound to its configuration. `lower_only` is the shape of the
/// program's tile store.
fn wrapped(
    user_desc: BlockCyclic,
    a: &Matrix,
    til: Tiling,
    collect: bool,
    lower_only: bool,
    factor: impl Fn(&Comm, TileStore) -> RankResult + Sync,
) -> Result<ScalapackOutput, Error> {
    let (n, grid) = (til.n, til.grid);
    check_shape(a, n)?;
    assert_eq!(user_desc.m, n, "descriptor extent mismatch");
    assert_eq!(user_desc.n, n, "descriptor extent mismatch");
    assert_eq!(
        user_desc.nprocs(),
        grid.size(),
        "user layout must span the whole machine"
    );
    assert!(collect, "the wrapper must collect the factor to return it");
    // The layer-0 tile layout, as a block-cyclic descriptor over the first
    // `px·py` world ranks.
    let tdesc = BlockCyclic::new(n, n, til.v, til.v, Grid2::new(grid.px, grid.py));
    let out = xmpi::run(grid.size(), |comm| -> Result<_, Error> {
        // 1. The caller's shard is pre-existing state (unmeasured).
        let mine = DistMatrix::from_global(user_desc, user_desc.grid.coords(comm.rank()), a);
        // 2. Stage onto the layer-0 tile layout (measured).
        phase(comm, "staging_in");
        let staged = redistribute_subset(comm, Some(&mine), tdesc);
        let tiles = shard_to_tiles(comm, &til, staged, lower_only);
        // 3. Factor.
        let ((lower, upper), perm) = factor(comm, tiles)?;
        // 4. Route factor elements to the pivoted tile layout (measured).
        phase(comm, "staging_out");
        let pivoted = factor_to_shard(comm, tdesc, &perm, &lower, &upper);
        // 5. Back to the caller's layout (measured).
        let back = redistribute_subset(comm, pivoted.as_ref(), user_desc)
            .expect("user layout covers every rank");
        phase_end(comm);
        Ok((back, perm))
    });
    let (shards, perm) = split_results(out.results)?;
    Ok(ScalapackOutput {
        shards,
        perm,
        stats: out.stats,
    })
}

/// Copy a staged layer-0 shard into the tile store the rank programs
/// consume: the `v × v` block-cyclic shard is the store's local matrix, so
/// tile `(ti, tj)` is the block at `(ti / px, tj / py)` of `shard.local`.
/// Non-layer-0 ranks (shard `None`) get an all-zero store. `lower_only`
/// keeps just the tiles on or below the diagonal (COnfCHOX's storage).
fn shard_to_tiles(
    comm: &Comm,
    til: &Tiling,
    shard: Option<DistMatrix>,
    lower_only: bool,
) -> TileStore {
    let (pi, pj, _) = til.grid.coords(comm.rank());
    let Some(shard) = shard else {
        return TileStore::zeros(til, pi, pj, lower_only);
    };
    assert_eq!(
        shard.coords,
        (pi, pj),
        "staged shard belongs to another rank"
    );
    let (v, px, py) = (til.v, til.grid.px, til.grid.py);
    TileStore::staged(til, (pi, pj), lower_only, |ti, tj| {
        shard.local.block((ti / px) * v, (tj / py) * v, v, v)
    })
}

/// Route a rank's factor runs — the `L` rows its store kept and the pieces
/// it collected, scattered across the machine under their *original* row
/// ids — into a layer-0 shard of the *pivoted* matrix through the layout
/// crate's run router: each run's pivoted row decides its tile owner, and
/// a run, which never crosses a tile column, travels whole with one
/// `(row, col, len)` triple (measured: the factor-writeback cost of a
/// wrapper, `O(N²/P)` per rank).
fn factor_to_shard(
    comm: &Comm,
    tdesc: BlockCyclic,
    perm: &[usize],
    lower: &Lower,
    upper: &Collected,
) -> Option<DistMatrix> {
    let mut pos = vec![usize::MAX; perm.len()];
    for (s, &r) in perm.iter().enumerate() {
        pos[r] = s;
    }
    route_runs(comm, comm.size(), tdesc, |emit| {
        let mut pivoted = |r: usize, c0: usize, vals: &[f64]| emit(pos[r], c0, vals);
        lower.for_each_run(&mut pivoted);
        upper.for_each_run(pivoted);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen::{random_matrix, random_spd};
    use dense::norms::{lu_residual_perm, po_residual};
    use layout::dist::assemble;
    use xmpi::Grid3;

    #[test]
    fn pdgetrf_round_trips_through_a_foreign_layout() {
        let n = 48;
        let cfg = ConfluxConfig::new(n, 8, Grid3::new(2, 2, 2));
        let p = cfg.grid.size();
        let user = BlockCyclic::new(n, n, 5, 3, Grid2::new(2, 4));
        assert_eq!(user.nprocs(), p);
        let a = random_matrix(n, n, 31);
        let out = pdgetrf(user, &a, &cfg).unwrap();
        let packed = assemble(&user, &out.shards);
        let res = lu_residual_perm(&a, &packed, &out.perm);
        assert!(res < 1e-10, "residual {res}");
        // Both staging phases must have moved data.
        let phases = out.stats.phase_totals();
        assert!(phases.get("staging_in").is_some_and(|&(s, _)| s > 0));
        assert!(phases.get("staging_out").is_some_and(|&(s, _)| s > 0));
    }

    #[test]
    fn pdgetrf_matches_driver_api() {
        let n = 32;
        let cfg = ConfluxConfig::new(n, 8, Grid3::new(2, 2, 1));
        let user = BlockCyclic::new(n, n, 8, 8, Grid2::new(2, 2));
        let a = random_matrix(n, n, 32);
        let wrapped = pdgetrf(user, &a, &cfg).unwrap();
        let direct = crate::conflux_lu(&cfg, &a).unwrap();
        assert_eq!(wrapped.perm, direct.perm, "same pivots");
        let packed = assemble(&user, &wrapped.shards);
        let dpacked = direct.packed.unwrap();
        for i in 0..n {
            for j in 0..n {
                assert!((packed[(i, j)] - dpacked[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pdpotrf_round_trips() {
        let n = 48;
        let cfg = ConfchoxConfig::new(n, 8, Grid3::new(2, 2, 2));
        let user = BlockCyclic::new(n, n, 6, 10, Grid2::new(4, 2));
        let a = random_spd(n, 33);
        let out = pdpotrf(user, &a, &cfg).unwrap();
        let l = assemble(&user, &out.shards);
        let res = po_residual(&a, &l);
        assert!(res < 1e-10, "residual {res}");
    }

    #[test]
    fn pdpotrf_indefinite_errors_cleanly() {
        let n = 32;
        let cfg = ConfchoxConfig::new(n, 8, Grid3::new(2, 2, 1));
        let user = BlockCyclic::new(n, n, 8, 8, Grid2::new(2, 2));
        let mut a = random_spd(n, 34);
        a[(17, 17)] = -9.0;
        assert!(matches!(
            pdpotrf(user, &a, &cfg),
            Err(Error::NotPositiveDefinite(_))
        ));
    }
}
