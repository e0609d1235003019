//! Transport-ordering properties under adversarial schedule perturbation.
//!
//! The sharded mailbox hashes every `(src, ctx, tag)` channel to a shard
//! and matches only at queue heads, so per-channel FIFO is a *structural*
//! claim — these properties hammer it with aggressively perturbed
//! schedules (injected delays, drop-and-retransmit, receive stalls,
//! phase skews) across arbitrary world sizes, channel counts, and message
//! interleavings. A second family pins the cross-seed equality invariant
//! for the tree collectives: perturbation may change *when* bytes move,
//! never *how many* or *where* — the assumption the golden-volume suite
//! and the paper's measured-volume methodology stand on.

use proptest::prelude::*;
use xharness::{run_perturbed, seeds, PerturbConfig};
use xmpi::{run, WorldStats};
use xtrace::invariants::check_stats_equal;

/// One message's payload: who sent it, on which channel, and its sequence
/// number — everything the receiver needs to verify per-channel FIFO.
fn encode(src: usize, tag: u64, seq: usize) -> u64 {
    (src as u64) * 1_000_000 + tag * 1_000 + seq as u64
}

/// Deterministic per-rank channel shuffle: each rank drains its incoming
/// channels in a different order, so while one channel is being matched
/// the others hold pending traffic in their shards.
fn drain_order(me: usize, p: usize, ntags: u64, salt: u64) -> Vec<(usize, u64)> {
    let mut chans: Vec<(usize, u64)> = (0..p)
        .filter(|&s| s != me)
        .flat_map(|s| (0..ntags).map(move |t| (s, t)))
        .collect();
    // Fisher-Yates with a splitmix-style keyed hash — no RNG dependency.
    let mut state = salt ^ (me as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for i in (1..chans.len()).rev() {
        state = state
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        chans.swap(i, (state >> 33) as usize % (i + 1));
    }
    chans
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// All-to-all traffic over many channels: every rank sends numbered
    /// sequences to every peer on every tag, interleaved channel-by-channel;
    /// every rank drains its channels in its own shuffled order. Under an
    /// aggressive perturbation seed, each `(src, tag)` channel must still
    /// deliver sequence numbers in send order.
    #[test]
    fn per_channel_fifo_survives_aggressive_perturbation(
        p in 2usize..6,
        ntags in 1u64..4,
        nmsgs in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let cfg = PerturbConfig::aggressive(seed);
        let out = run_perturbed(&cfg, || {
            run(p, |c| {
                let me = c.rank();
                // Interleave channels on the send side: message m of every
                // channel goes out before message m+1 of any channel.
                for m in 0..nmsgs {
                    for t in 0..ntags {
                        for dst in 0..p {
                            if dst != me {
                                c.send_u64(dst, t, &[encode(me, t, m)]);
                            }
                        }
                    }
                }
                // Drain channel-by-channel in a rank-specific order; within
                // one channel, sequence numbers must arrive monotonically.
                for (src, t) in drain_order(me, p, ntags, seed) {
                    for m in 0..nmsgs {
                        let got = c.recv_u64(src, t);
                        assert_eq!(
                            got,
                            vec![encode(src, t, m)],
                            "rank {me}: channel (src={src}, tag={t}) out of order at seq {m}"
                        );
                    }
                }
            })
        });
        // Conservation: every byte sent inside the world was received.
        prop_assert_eq!(
            out.stats.total_bytes_sent(),
            out.stats.total_bytes_recv()
        );
        let expect_msgs = (p * (p - 1)) as u64 * ntags * nmsgs as u64;
        prop_assert_eq!(out.stats.total_msgs(), expect_msgs);
    }
}

/// One collective-heavy phase program: tree broadcast, recursive-doubling
/// allreduce, and allgather, each under its own phase label.
fn collective_phases(p: usize) -> WorldStats {
    let out = run(p, |c| {
        c.set_phase_with_flops("bcast", 0);
        let data = if c.rank() == 0 {
            (0..96).map(|i| i as f64).collect()
        } else {
            Vec::new()
        };
        let panel = c.bcast_buf_f64(0, data);
        c.set_phase_with_flops("allreduce", 0);
        let mut acc = vec![panel[c.rank() % panel.len()]; 8];
        c.allreduce_sum(&mut acc);
        c.set_phase_with_flops("allgather", 0);
        let mine = vec![c.rank() as f64; 4];
        let all = c.allgather_f64(&mine);
        c.set_phase_with_flops("_end", 0);
        (acc[0], all.len())
    });
    out.stats
}

/// Cross-seed equality for the tree collectives over the `XHARNESS_SEEDS`
/// matrix: every perturbed run must be communication-identical to the
/// unperturbed baseline — same per-rank totals, same per-phase byte
/// counts, at every world size including non-powers-of-two (where
/// allgather falls back to the ring schedule).
#[test]
fn tree_collective_volumes_are_seed_invariant() {
    for p in [2, 3, 4, 7, 8] {
        let baseline = collective_phases(p);
        assert!(baseline.total_bytes_sent() > 0 || p == 1);
        for seed in seeds(4) {
            let cfg = PerturbConfig::aggressive(seed);
            let perturbed = run_perturbed(&cfg, || collective_phases(p));
            let violations = check_stats_equal(&baseline, &perturbed);
            assert!(
                violations.is_empty(),
                "p={p} seed={seed}: perturbed collectives changed traffic: {violations:?}"
            );
            assert_eq!(
                baseline.phase_totals(),
                perturbed.phase_totals(),
                "p={p} seed={seed}: per-phase byte counts diverged"
            );
        }
    }
}
