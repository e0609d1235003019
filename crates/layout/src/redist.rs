//! Layout redistribution — the COSTA substitute.
//!
//! Transforms a distributed matrix from one block-cyclic layout to another
//! (different block sizes and/or different grids, over the same
//! communicator). Every rank hands the run router ([`route_runs`]) its
//! local rows cut into source column blocks; the router splits each run
//! into the maximal pieces that stay within one destination column block
//! and ships them to their new owners in one message pair per
//! destination, and receivers write them into their new shard. Wire format
//! per destination: an index buffer of `(global row, global col start,
//! len)` triples plus one element buffer, so the measured overhead over the
//! raw payload is explicit and small for block runs. The ScaLAPACK wrappers
//! route a factor's runs home the same way.
//!
//! Layouts may span a *subset* of the communicator (grids of size `q ≤ P`
//! occupy ranks `0..q`): that is how a ScaLAPACK caller's full-machine
//! layout is staged onto the layer-0 grid of a 2.5D decomposition.

use crate::desc::BlockCyclic;
use crate::dist::DistMatrix;
use xmpi::Comm;

/// User-tag base for redistribution traffic.
const TAG_REDIST: u64 = 7_000_000;

/// Redistribute between layouts that both span the whole communicator.
/// Convenience wrapper over [`redistribute_subset`].
///
/// # Panics
/// On descriptor mismatch (extents or process counts).
pub fn redistribute(comm: &Comm, src: &DistMatrix, dst_desc: BlockCyclic) -> DistMatrix {
    assert_eq!(
        src.desc.nprocs(),
        comm.size(),
        "source layout does not span communicator"
    );
    assert_eq!(
        dst_desc.nprocs(),
        comm.size(),
        "target layout does not span communicator"
    );
    redistribute_subset(comm, Some(src), dst_desc).expect("rank is inside the target grid")
}

/// Redistribute where source and/or target layouts occupy only ranks
/// `0..q` of the communicator.
///
/// Collective over the *whole* communicator: ranks inside the source grid
/// pass `Some(shard)`, others `None`; the return is `Some(new shard)` on
/// ranks inside the target grid, `None` elsewhere.
///
/// # Panics
/// If a rank's `src` presence disagrees with the source grid, or on
/// extent/descriptor mismatch.
pub fn redistribute_subset(
    comm: &Comm,
    src: Option<&DistMatrix>,
    dst_desc: BlockCyclic,
) -> Option<DistMatrix> {
    // Consistency between this rank's src argument and the source grid.
    if let Some(s) = src {
        assert_eq!(s.desc.m, dst_desc.m, "redistribute: row extents differ");
        assert_eq!(s.desc.n, dst_desc.n, "redistribute: column extents differ");
        assert!(
            comm.rank() < s.desc.nprocs(),
            "rank outside source grid passed Some"
        );
    }
    // Every rank must know the source grid's extent to post its receives:
    // rank 0 is always inside the source grid and broadcasts it.
    let mut q_src = vec![src.map_or(0.0, |s| s.desc.nprocs() as f64)];
    comm.bcast_f64(0, &mut q_src);
    route_runs(comm, q_src[0] as usize, dst_desc, |emit| {
        let Some(src) = src else { return };
        let (sd, (spi, spj)) = (&src.desc, src.coords);
        for li in 0..src.local.rows() {
            // A source column block is contiguous in the local row.
            let gi = sd.row_l2g(spi, li);
            for (lb, piece) in src.local.row(li).chunks(sd.cb).enumerate() {
                emit(gi, sd.col_l2g(spj, lb * sd.cb), piece);
            }
        }
    })
}

/// The one run router: deliver the runs `(global row, first global column,
/// values)` that `runs` hands its emitter to their owners under `dst_desc`,
/// and return the target shard (`Some` on ranks inside the target grid,
/// `None` elsewhere). Each run is cut at the target's column-block
/// boundaries, so a run within one target block travels whole. Every rank
/// in `0..q_src` sends every other target rank one index message of
/// `(row, col, len)` triples and one element message (possibly empty: the
/// protocol is static); a rank outside `0..q_src` must emit nothing.
///
/// Collective over the whole communicator.
///
/// # Panics
/// If the target layout spans more ranks than the communicator, or a run
/// leaves the matrix.
pub fn route_runs(
    comm: &Comm,
    q_src: usize,
    dst_desc: BlockCyclic,
    runs: impl FnOnce(&mut dyn FnMut(usize, usize, &[f64])),
) -> Option<DistMatrix> {
    let me = comm.rank();
    let q_dst = dst_desc.nprocs();
    assert!(
        q_dst <= comm.size(),
        "target layout larger than communicator"
    );
    // Pack runs per destination rank.
    let mut meta: Vec<Vec<u64>> = vec![Vec::new(); q_dst];
    let mut data: Vec<Vec<f64>> = vec![Vec::new(); q_dst];
    runs(&mut |gi, gj, vals| {
        let mut at = 0;
        while at < vals.len() {
            let gj = gj + at;
            let len = (dst_desc.cb - gj % dst_desc.cb).min(vals.len() - at);
            let dst = dst_desc.owner(gi, gj);
            meta[dst].extend_from_slice(&[gi as u64, gj as u64, len as u64]);
            data[dst].extend_from_slice(&vals[at..at + len]);
            at += len;
        }
    });
    if me < q_src {
        for dst in (0..q_dst).filter(|&dst| dst != me) {
            comm.send_u64(dst, TAG_REDIST, &meta[dst]);
            comm.send_f64(dst, TAG_REDIST, &data[dst]);
        }
    }
    let mut out = (me < q_dst).then(|| DistMatrix::zeros(dst_desc, dst_desc.grid.coords(me)))?;
    write_runs(&mut out, &meta[me], &data[me]);
    for src in (0..q_src).filter(|&src| src != me) {
        let m = comm.recv_u64(src, TAG_REDIST);
        let d = comm.recv_f64(src, TAG_REDIST);
        write_runs(&mut out, &m, &d);
    }
    Some(out)
}

/// Write the runs `meta` (`(row, col, len)` triples) with the values `data`
/// into `out`, which owns them.
fn write_runs(out: &mut DistMatrix, meta: &[u64], data: &[f64]) {
    let mut off = 0;
    for t in meta.chunks_exact(3) {
        let (gi, gj, len) = (t[0] as usize, t[1] as usize, t[2] as usize);
        let (opi, li) = out.desc.row_g2l(gi);
        let (opj, lj0) = out.desc.col_g2l(gj);
        debug_assert_eq!((opi, opj), out.coords, "run routed to wrong rank");
        out.local.row_mut(li)[lj0..lj0 + len].copy_from_slice(&data[off..off + len]);
        off += len;
    }
    debug_assert_eq!(off, data.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::assemble;
    use dense::gen::random_matrix;
    use xmpi::{run, Grid2};

    fn roundtrip(m: usize, n: usize, src: BlockCyclic, dst: BlockCyclic, seed: u64) {
        let a = random_matrix(m, n, seed);
        let aref = a.clone();
        let p = src.nprocs();
        let out = run(p, |comm| {
            let mine = DistMatrix::from_global(src, src.grid.coords(comm.rank()), &a);
            redistribute(comm, &mine, dst)
        });
        let back = assemble(&dst, &out.results);
        assert_eq!(back, aref);
    }

    #[test]
    fn same_layout_is_identity() {
        let d = BlockCyclic::new(16, 16, 4, 4, Grid2::new(2, 2));
        roundtrip(16, 16, d, d, 1);
    }

    #[test]
    fn change_block_size() {
        let s = BlockCyclic::new(20, 20, 4, 4, Grid2::new(2, 2));
        let t = BlockCyclic::new(20, 20, 3, 5, Grid2::new(2, 2));
        roundtrip(20, 20, s, t, 2);
    }

    #[test]
    fn change_grid_shape() {
        let s = BlockCyclic::new(24, 18, 4, 3, Grid2::new(2, 3));
        let t = BlockCyclic::new(24, 18, 4, 3, Grid2::new(3, 2));
        roundtrip(24, 18, s, t, 3);
    }

    #[test]
    fn change_everything_irregular_sizes() {
        let s = BlockCyclic::new(23, 17, 5, 2, Grid2::new(2, 2));
        let t = BlockCyclic::new(23, 17, 3, 7, Grid2::new(4, 1));
        roundtrip(23, 17, s, t, 4);
    }

    #[test]
    fn single_rank_redistribution() {
        let s = BlockCyclic::new(9, 9, 2, 2, Grid2::new(1, 1));
        let t = BlockCyclic::new(9, 9, 4, 3, Grid2::new(1, 1));
        roundtrip(9, 9, s, t, 5);
    }

    #[test]
    fn shrink_onto_a_rank_subset_and_back() {
        // 8-rank world; source spans all 8, target only the first 4 (a
        // 2.5D layer-0 grid), then back out to all 8.
        let n = 24;
        let a = random_matrix(n, n, 6);
        let full = BlockCyclic::new(n, n, 3, 5, Grid2::new(2, 4));
        let sub = BlockCyclic::new(n, n, 4, 4, Grid2::new(2, 2));
        let aref = a.clone();
        let out = run(8, |comm| {
            let mine = DistMatrix::from_global(full, full.grid.coords(comm.rank()), &a);
            let staged = redistribute_subset(comm, Some(&mine), sub);
            assert_eq!(staged.is_some(), comm.rank() < 4);
            // And back out to the full layout.
            let back = redistribute_subset(comm, staged.as_ref(), full);
            back.expect("full layout covers every rank")
        });
        let back = assemble(&full, &out.results);
        assert_eq!(back, aref);
    }

    #[test]
    fn routed_runs_are_cut_at_target_column_blocks_only() {
        // An 8 × 8 target in 4 × 4 blocks over 2 × 2 ranks. Rank 0 routes a
        // run of row 1 over columns 2..6, which crosses from rank 0's column
        // block into rank 1's, and a run of row 5 over the block at columns
        // 4..8, rank 3's; the other ranks route nothing.
        let dst = BlockCyclic::new(8, 8, 4, 4, Grid2::new(2, 2));
        let out = run(4, |comm| {
            let routed = route_runs(comm, 4, dst, |emit| {
                if comm.rank() == 0 {
                    emit(1, 2, &[1.0, 2.0, 3.0, 4.0]);
                    emit(5, 4, &[5.0, 6.0, 7.0, 8.0]);
                }
            });
            routed.expect("the target spans every rank")
        });
        let got = assemble(&dst, &out.results);
        assert_eq!(
            (&got.row(1)[2..6], &got.row(5)[4..8]),
            (&[1., 2., 3., 4.][..], &[5., 6., 7., 8.][..])
        );
        assert_eq!(got.data().iter().filter(|&&x| x != 0.0).count(), 8);
        // Rank 1 receives the cut-off half as one run, rank 3 the aligned
        // run whole: one 24-byte `(row, col, len)` triple per run, plus the
        // values. Every rank sends every other one an index and an element
        // message, empty or not.
        let ranks = &out.stats.ranks;
        let recv: Vec<u64> = ranks.iter().map(|r| r.bytes_recv).collect();
        assert_eq!(recv, [0, 24 + 2 * 8, 0, 24 + 4 * 8]);
        assert!(ranks.iter().all(|r| r.msgs_sent == 6));
    }

    #[test]
    fn volume_is_bounded_by_matrix_size_plus_headers() {
        let m = 32;
        let n = 32;
        let s = BlockCyclic::new(m, n, 4, 4, Grid2::new(2, 2));
        let t = BlockCyclic::new(m, n, 8, 8, Grid2::new(4, 1));
        let a = random_matrix(m, n, 6);
        let out = run(4, |comm| {
            let mine = DistMatrix::from_global(s, s.grid.coords(comm.rank()), &a);
            redistribute(comm, &mine, t)
        });
        let payload = (m * n * 8) as u64;
        assert!(out.stats.total_bytes_sent() <= payload + payload * 3 / 4 + 4096);
        assert!(out.stats.total_bytes_sent() > 0);
    }
}
