//! Cross-feature runtime semantics: sub-communicators, collectives and
//! statistics interacting on one world — the integration surface the
//! factorization schedules lean on.

use conflux_rs::xmpi::{run, Grid3};

#[test]
fn grid_subcomms_route_independent_traffic() {
    // A full 2.5D communicator kit on one world: every fibre runs its own
    // collective concurrently, with the correct members.
    let g = Grid3::new(2, 3, 2);
    let out = run(g.size(), move |c| {
        let (pi, pj, pk) = g.coords(c.rank());
        let zfib = c.subcomm(1, &g.z_members(pi, pj));
        let yrow = c.subcomm(2, &g.y_members(pi, pk));
        let xcol = c.subcomm(3, &g.x_members(pj, pk));
        // z: sum of layer indices for this (pi, pj).
        let mut zb = vec![pk as f64];
        zfib.reduce_sum_f64(0, &mut zb);
        // y: sum of pj over the row.
        let mut yb = vec![pj as f64];
        yrow.allreduce_sum(&mut yb);
        // x: gather pi values.
        let xs = xcol.allgather_f64(&[pi as f64]);
        (
            zb[0],
            yb[0],
            xs.iter().map(|v| v[0] as usize).collect::<Vec<_>>(),
        )
    });
    for rank in 0..g.size() {
        let (_, pj, pk) = g.coords(rank);
        let (zsum, ysum, xs) = &out.results[rank];
        if pk == 0 {
            assert_eq!(*zsum, (0..g.pz).sum::<usize>() as f64, "z-reduce at root");
        }
        assert_eq!(*ysum, (0..g.py).sum::<usize>() as f64);
        assert_eq!(xs, &(0..g.px).collect::<Vec<_>>());
        let _ = pj;
    }
}

#[test]
fn phase_attribution_splits_traffic() {
    let out = run(2, |c| {
        c.set_phase("alpha");
        if c.rank() == 0 {
            c.send_f64(1, 0, &[0.0; 10]);
        } else {
            c.recv_f64(0, 0);
        }
        c.set_phase("beta");
        if c.rank() == 0 {
            c.send_f64(1, 1, &[0.0; 30]);
        } else {
            c.recv_f64(0, 1);
        }
    });
    let phases = out.stats.phase_totals();
    assert_eq!(phases["alpha"].0, 80);
    assert_eq!(phases["beta"].0, 240);
}

#[test]
fn deep_subcomm_nesting_keeps_contexts_apart() {
    // Build three levels of nesting and run the same tags at every level.
    let out = run(8, |c| {
        let half = if c.rank() < 4 {
            vec![0, 1, 2, 3]
        } else {
            vec![4, 5, 6, 7]
        };
        let l1 = c.subcomm(1, &half);
        let pair = if l1.rank() < 2 {
            vec![0, 1]
        } else {
            vec![2, 3]
        };
        let l2 = l1.subcomm(1, &pair);
        // Same user tag on all three communicators simultaneously.
        let me = c.rank() as f64;
        c.send_f64(c.rank() ^ 1, 42, &[me]);
        l1.send_f64(l1.rank() ^ 1, 42, &[me + 100.0]);
        l2.send_f64(l2.rank() ^ 1, 42, &[me + 200.0]);
        let w = c.recv_f64(c.rank() ^ 1, 42)[0];
        let a = l1.recv_f64(l1.rank() ^ 1, 42)[0];
        let b = l2.recv_f64(l2.rank() ^ 1, 42)[0];
        (w, a, b)
    });
    for (rank, &(w, a, b)) in out.results.iter().enumerate() {
        let partner = (rank ^ 1) as f64;
        assert_eq!(w, partner);
        assert_eq!(a, partner + 100.0);
        assert_eq!(b, partner + 200.0);
    }
}

#[test]
fn world_stats_conservation_across_features() {
    // Sent must equal received globally no matter which transport was used.
    let out = run(3, |c| {
        c.send_f64((c.rank() + 1) % 3, 9, &[1.0, 2.0]);
        c.recv_f64((c.rank() + 2) % 3, 9);
        let pieces = c.allgather_f64(&vec![0.0; c.rank() + 1]);
        assert_eq!(pieces.len(), 3);
        c.barrier();
    });
    assert_eq!(out.stats.total_bytes_sent(), out.stats.total_bytes_recv());
}
