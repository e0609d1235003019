//! Property-based tests of the runtime: collectives must agree with their
//! sequential definitions for arbitrary group sizes, roots and payloads,
//! and byte accounting must balance globally.

use proptest::prelude::*;
use xmpi::run;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn bcast_delivers_root_payload(p in 1usize..10, root_pick in 0usize..10, len in 0usize..50, seed in 0u64..1000) {
        let root = root_pick % p;
        let payload: Vec<f64> = (0..len).map(|i| (seed as f64) + i as f64).collect();
        let expect = payload.clone();
        let out = run(p, move |c| {
            let mut buf = if c.rank() == root { payload.clone() } else { vec![] };
            c.bcast_f64(root, &mut buf);
            buf
        });
        for r in out.results {
            prop_assert_eq!(&r, &expect);
        }
    }

    #[test]
    fn reduce_equals_sequential_sum(p in 1usize..10, root_pick in 0usize..10, len in 1usize..20) {
        let root = root_pick % p;
        let out = run(p, move |c| {
            let mut buf: Vec<f64> = (0..len).map(|i| (c.rank() * 100 + i) as f64).collect();
            c.reduce_sum_f64(root, &mut buf);
            buf
        });
        for i in 0..len {
            let expect: f64 = (0..p).map(|r| (r * 100 + i) as f64).sum();
            prop_assert!((out.results[root][i] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn allreduce_equals_reduce_everywhere(p in 1usize..10, len in 1usize..20) {
        let out = run(p, move |c| {
            let mut buf: Vec<f64> = (0..len).map(|i| ((c.rank() + 1) * (i + 1)) as f64).collect();
            c.allreduce_sum(&mut buf);
            buf
        });
        for i in 0..len {
            let expect: f64 = (0..p).map(|r| ((r + 1) * (i + 1)) as f64).sum();
            for res in &out.results {
                prop_assert!((res[i] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn allgather_collects_everything_in_order(p in 1usize..9, base_len in 0usize..8) {
        let out = run(p, move |c| {
            let mine: Vec<f64> = (0..base_len + c.rank()).map(|i| (c.rank() * 1000 + i) as f64).collect();
            c.allgather_f64(&mine)
        });
        for res in &out.results {
            prop_assert_eq!(res.len(), p);
            for (src, piece) in res.iter().enumerate() {
                prop_assert_eq!(piece.len(), base_len + src);
                for (i, &x) in piece.iter().enumerate() {
                    prop_assert_eq!(x, (src * 1000 + i) as f64);
                }
            }
        }
    }

    #[test]
    fn bytes_sent_equal_bytes_received_globally(p in 2usize..8, len in 1usize..64, rounds in 1usize..4) {
        // Arbitrary ring traffic: global sent must equal global received.
        let out = run(p, move |c| {
            for round in 0..rounds {
                let dst = (c.rank() + 1) % c.size();
                let src = (c.rank() + c.size() - 1) % c.size();
                c.send_f64(dst, round as u64, &vec![0.5; len]);
                c.recv_f64(src, round as u64);
            }
        });
        prop_assert_eq!(out.stats.total_bytes_sent(), out.stats.total_bytes_recv());
        prop_assert_eq!(out.stats.total_bytes_sent() as usize, p * rounds * len * 8);
    }

    #[test]
    fn byte_accounting_balances_per_phase(p in 2usize..8, len in 1usize..48, phases in 1usize..5) {
        // Phased ring traffic with a barrier fencing each phase: every
        // byte of phase k is sent *and* received while both endpoints are
        // in phase k, so the per-phase ledgers must balance exactly, and
        // their totals must add up to the global ledgers.
        let out = run(p, move |c| {
            for ph in 0..phases {
                c.set_phase(["ph0", "ph1", "ph2", "ph3"][ph]);
                let dst = (c.rank() + 1) % c.size();
                let src = (c.rank() + c.size() - 1) % c.size();
                c.send_f64(dst, ph as u64, &vec![1.0; len + ph]);
                c.recv_f64(src, ph as u64);
                c.barrier();
            }
        });
        let totals = out.stats.phase_totals();
        let mut sum_sent = 0u64;
        for ph in 0..phases {
            let &(sent, recv) = totals.get(&format!("ph{ph}")).expect("phase recorded");
            prop_assert_eq!(sent, recv, "phase ph{} unbalanced", ph);
            prop_assert_eq!(sent as usize, p * (len + ph) * 8);
            sum_sent += sent;
        }
        // Barrier messages are zero-byte, so the phase ledgers partition
        // the global byte count (slot "" stays empty: traffic starts after
        // the first set_phase).
        prop_assert_eq!(sum_sent, out.stats.total_bytes_sent());
        prop_assert_eq!(out.stats.total_bytes_sent(), out.stats.total_bytes_recv());
    }

    #[test]
    fn isend_wait_all_matches_blocking_sends(p in 2usize..8, len in 1usize..32, rounds in 1usize..4) {
        // The same ring program twice: `isend` + `wait_all` must deliver
        // the same payloads in the same per-(src, tag) order as blocking
        // `send_f64`, and move exactly the same bytes and messages.
        let program = move |c: &xmpi::Comm, nonblocking: bool| -> Vec<Vec<f64>> {
            let dst = (c.rank() + 1) % c.size();
            let src = (c.rank() + c.size() - 1) % c.size();
            let payload = |round: usize| -> Vec<f64> {
                (0..len).map(|i| (c.rank() * 1_000 + round * 100 + i) as f64).collect()
            };
            if nonblocking {
                let reqs: Vec<xmpi::Request> = (0..rounds)
                    .map(|round| c.isend_f64(dst, 9, &payload(round)).into())
                    .collect();
                xmpi::wait_all(reqs);
            } else {
                for round in 0..rounds {
                    c.send_f64(dst, 9, &payload(round));
                }
            }
            (0..rounds).map(|_| c.recv_f64(src, 9)).collect()
        };
        let nb = run(p, move |c| program(c, true));
        let bl = run(p, move |c| program(c, false));
        prop_assert_eq!(&nb.results, &bl.results);
        prop_assert_eq!(nb.stats.total_bytes_sent(), bl.stats.total_bytes_sent());
        prop_assert_eq!(nb.stats.total_msgs(), bl.stats.total_msgs());
    }

    #[test]
    fn byte_accounting_balances_under_nonblocking_traffic(p in 2usize..8, len in 1usize..48, phases in 1usize..4) {
        // Ring traffic driven entirely through requests: the receive is
        // posted before the send, send bytes are accounted at post time and
        // receive bytes at wait time, and every ledger must still balance
        // per phase and globally.
        let out = run(p, move |c| {
            for ph in 0..phases {
                c.set_phase(["nb0", "nb1", "nb2"][ph]);
                let dst = (c.rank() + 1) % c.size();
                let src = (c.rank() + c.size() - 1) % c.size();
                let recv = c.irecv(src, ph as u64);
                let send = c.isend_f64(dst, ph as u64, &vec![2.0; len + ph]);
                let got = recv.wait_f64();
                send.wait();
                assert_eq!(got.len(), len + ph);
                c.barrier();
            }
        });
        let totals = out.stats.phase_totals();
        let mut sum = 0u64;
        for ph in 0..phases {
            let &(sent, recv) = totals.get(&format!("nb{ph}")).expect("phase recorded");
            prop_assert_eq!(sent, recv, "phase nb{} unbalanced", ph);
            prop_assert_eq!(sent as usize, p * (len + ph) * 8);
            sum += sent;
        }
        prop_assert_eq!(sum, out.stats.total_bytes_sent());
        prop_assert_eq!(out.stats.total_bytes_sent(), out.stats.total_bytes_recv());
    }

    #[test]
    fn scatter_then_gather_round_trips(p in 1usize..9, len in 1usize..10, root_pick in 0usize..9) {
        let root = root_pick % p;
        let out = run(p, move |c| {
            let pieces = (c.rank() == root).then(|| {
                (0..p).map(|r| vec![r as f64; len]).collect::<Vec<_>>()
            });
            let mine = c.scatter_f64(root, pieces);
            c.gather_f64(root, &mine)
        });
        let gathered = out.results[root].as_ref().unwrap();
        for (r, piece) in gathered.iter().enumerate() {
            prop_assert_eq!(piece, &vec![r as f64; len]);
        }
    }
}
