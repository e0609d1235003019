//! The ScaLAPACK-compatibility pipeline end-to-end: a matrix handed over in
//! an arbitrary user block-cyclic layout is redistributed with the
//! COSTA-style transform on the simulated machine, factored with COnfLUX,
//! and validated — including round-trips through several unfriendly
//! layouts.

use conflux_rs::dense::gen::random_matrix;
use conflux_rs::dense::norms::lu_residual_perm;
use conflux_rs::factor::conflux::ConfluxConfig;
use conflux_rs::factor::{conflux_lu, pdgetrf, pdpotrf, ConfchoxConfig, ScalapackOutput};
use conflux_rs::layout::dist::assemble;
use conflux_rs::layout::{redistribute, BlockCyclic, DistMatrix};
use conflux_rs::xmpi::{run, Grid2, Grid3};

fn stage_and_factor(n: usize, user: BlockCyclic, cfg: &ConfluxConfig, seed: u64) {
    let a = random_matrix(n, n, seed);
    let target = BlockCyclic::new(n, n, cfg.v, cfg.v, Grid2::new(cfg.grid.px, cfg.grid.py));
    assert_eq!(user.nprocs(), target.nprocs(), "test layouts must share P");
    let aref = &a;
    let world = run(user.nprocs(), move |comm| {
        let mine = DistMatrix::from_global(user, user.grid.coords(comm.rank()), aref);
        redistribute(comm, &mine, target)
    });
    let staged = assemble(&target, &world.results);
    assert_eq!(staged, a, "redistribution must be lossless");
    // Staging volume is O(N²) total — the payload plus per-run headers
    // (three u64 per run; degenerate 1-wide blocks pay the 4x worst case).
    let payload = (n * n * 8) as u64;
    assert!(
        world.stats.total_bytes_sent() <= 4 * payload + 4096,
        "staging moved {} bytes for an {payload}-byte matrix",
        world.stats.total_bytes_sent()
    );
    let out = conflux_lu(cfg, &staged).unwrap();
    let res = lu_residual_perm(&a, out.packed.as_ref().unwrap(), &out.perm);
    assert!(res < 1e-10, "residual {res}");
}

#[test]
fn skinny_blocks_to_conflux_tiles() {
    let n = 96;
    let cfg = ConfluxConfig::new(n, 8, Grid3::new(2, 2, 1));
    stage_and_factor(n, BlockCyclic::new(n, n, 3, 7, Grid2::new(4, 1)), &cfg, 1);
}

#[test]
fn transposed_grid_shape() {
    let n = 96;
    let cfg = ConfluxConfig::new(n, 8, Grid3::new(2, 3, 1));
    stage_and_factor(n, BlockCyclic::new(n, n, 16, 16, Grid2::new(3, 2)), &cfg, 2);
}

#[test]
fn single_element_blocks_worst_case() {
    let n = 48;
    let cfg = ConfluxConfig::new(n, 8, Grid3::new(2, 2, 1));
    stage_and_factor(n, BlockCyclic::new(n, n, 1, 1, Grid2::new(2, 2)), &cfg, 3);
}

#[test]
fn scalapack_desc_array_round_trip_drives_the_same_pipeline() {
    // Build the layout from the 9-integer DESC interface, as a ScaLAPACK
    // wrapper would receive it.
    let n = 64;
    let grid = Grid2::new(2, 2);
    let desc_ints = BlockCyclic::new(n, n, 10, 6, grid).to_scalapack();
    let user = desc_ints.to_block_cyclic(grid);
    let cfg = ConfluxConfig::new(n, 8, Grid3::new(2, 2, 1));
    stage_and_factor(n, user, &cfg, 4);
}

/// Per-rank `(sent, received)` bytes of the factor write-back, and messages
/// sent over the whole run.
fn staging_out(out: &ScalapackOutput) -> (Vec<(u64, u64)>, Vec<u64>) {
    let ranks = &out.stats.ranks;
    let bytes = |r: &conflux_rs::xmpi::RankStats| r.per_phase["staging_out"];
    let msgs = ranks.iter().map(|r| r.msgs_sent).collect();
    (ranks.iter().map(bytes).collect(), msgs)
}

#[test]
fn the_wrappers_write_l_back_from_the_stores_with_the_same_messages() {
    // Every factor entry comes out of some rank's tile store and travels as
    // runs through the layout crate's router: per rank the same number of
    // messages as when every factor entry was a collected block (recorded
    // at d25ce6c), and 24 index bytes per run where every element used to
    // carry 16. The `U01` of a pivot off its U-owner's process row is
    // routed by the layer that wrote it: ranks 4–7, which own no target
    // tile, so all of it travels.
    let grid = Grid3::new(2, 2, 2);
    let a = random_matrix(48, 48, 31);
    let user = BlockCyclic::new(48, 48, 5, 3, Grid2::new(2, 4));
    let lu = pdgetrf(user, &a, &ConfluxConfig::new(48, 8, grid)).unwrap();
    let sent = [11704, 11392, 11192, 11056, 456, 440, 536, 968];
    let recv = [6552, 7472, 7352, 6464, 4424, 5528, 5528, 4424];
    let want = sent.into_iter().zip(recv).collect::<Vec<_>>();
    assert_eq!(
        staging_out(&lu),
        (want, vec![77, 71, 55, 52, 50, 47, 39, 37])
    );

    // A Cholesky factor is all in the stores, and without pivoting a store
    // holds exactly its rank's tiles of the target layout: the router sends
    // only empty messages, and the bytes are still those of d25ce6c.
    let spd = conflux_rs::dense::gen::random_spd(48, 33);
    let user = BlockCyclic::new(48, 48, 6, 10, Grid2::new(4, 2));
    let chol = pdpotrf(user, &spd, &ConfchoxConfig::new(48, 8, grid)).unwrap();
    let sent = [6072, 6816, 6056, 6816, 16, 0, 8, 0];
    let recv = [3264, 2408, 3272, 2408, 4136, 3080, 4136, 3080];
    let want = sent.into_iter().zip(recv).collect::<Vec<_>>();
    assert_eq!(
        staging_out(&chol),
        (want, vec![52, 38, 41, 47, 35, 28, 31, 32])
    );
}
