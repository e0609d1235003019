//! Collective operations, built on point-to-point sends so every hop's bytes
//! are measured.
//!
//! Algorithms follow the classic MPICH implementations: binomial trees for
//! broadcast and reduce, recursive doubling for all-reduce and all-gather on
//! power-of-two groups (the butterfly pattern the paper's tournament
//! pivoting also uses), a ring for all-gather on other group sizes, and
//! direct fan-in/fan-out for (small-group) gather/scatter.
//!
//! Broadcasts are zero-copy: the payload travels the tree as a shared
//! [`Buf`], so each hop enqueues a refcount bump while the byte counters
//! still count the full logical wire size of every hop — measured volume is
//! the tree schedule's, wall-clock is one buffer's. [`Comm::bcast_buf_f64`]
//! exposes the shared handle directly; the `Vec`-based variants convert at
//! the edge (free for tree leaves, one copy for interior nodes whose
//! forwards are still in flight).

use crate::buf::Buf;
use crate::comm::{Comm, Payload};
use crate::stats::CollKind;

/// Tag namespace for collectives, above any user point-to-point tag.
const COLL: u64 = 1 << 32;
const TAG_BARRIER: u64 = COLL;
const TAG_BCAST: u64 = COLL + 1;
const TAG_REDUCE: u64 = COLL + 2;
const TAG_ALLREDUCE: u64 = COLL + 3;
const TAG_GATHER: u64 = COLL + 4;
const TAG_SCATTER: u64 = COLL + 5;
const TAG_ALLGATHER: u64 = COLL + 6;

impl Comm {
    /// Dissemination barrier: all ranks block until every rank has entered.
    pub fn barrier(&self) {
        let _scope = self.coll_scope(CollKind::Barrier);
        let p = self.size();
        let r = self.rank();
        let mut k = 1;
        while k < p {
            self.send_f64((r + k) % p, TAG_BARRIER, &[]);
            self.recv_f64((r + p - k) % p, TAG_BARRIER);
            k <<= 1;
        }
    }

    /// Blocking binomial-tree broadcast core: the root supplies `Some`
    /// payload, every rank returns it. The *same* shared buffer is forwarded
    /// down the tree (each hop is a refcount bump) while every hop's bytes
    /// are counted in full.
    fn bcast_payload(&self, root: usize, mine: Option<Payload>) -> Payload {
        let _scope = self.coll_scope(CollKind::Bcast);
        let p = self.size();
        let vr = (self.rank() + p - root) % p;
        let mut mask = 1;
        let payload = if vr == 0 {
            while mask < p {
                mask <<= 1;
            }
            mine.expect("bcast: root must supply a payload")
        } else {
            // Receive phase: wait for the parent in the binomial tree.
            loop {
                if vr & mask != 0 {
                    let src = (vr - mask + root) % p;
                    break self.recv_payload(src, TAG_BCAST);
                }
                mask <<= 1;
            }
        };
        // Forward phase: fan out the shared payload to children.
        mask >>= 1;
        while mask > 0 {
            if vr & mask == 0 && vr + mask < p {
                let dst = (vr + mask + root) % p;
                self.send_payload(dst, TAG_BCAST, payload.clone());
            }
            mask >>= 1;
        }
        payload
    }

    /// Binomial-tree broadcast of an element buffer from `root`. Non-root
    /// ranks' buffers are overwritten (and resized) with the root's data.
    pub fn bcast_f64(&self, root: usize, buf: &mut Vec<f64>) {
        *buf = self.bcast_buf_f64(root, std::mem::take(buf)).into_vec();
    }

    /// [`Comm::bcast_f64`] that keeps the result shared: the root passes the
    /// data (ignored elsewhere) and every rank gets a [`Buf`] handle onto
    /// the *same* storage — no per-hop copies anywhere in the tree. The
    /// zero-copy entry point for read-only panel consumers.
    pub fn bcast_buf_f64(&self, root: usize, buf: Vec<f64>) -> Buf<f64> {
        let mine = (self.rank() == root).then(|| Buf::from(buf));
        self.bcast_shared_f64(root, mine.as_ref())
    }

    /// [`Comm::bcast_buf_f64`] for a payload the root wants to keep: the
    /// root passes `Some(&handle)` and its storage is cloned into the tree
    /// as a refcount bump, so the same panel can be re-broadcast any number
    /// of times without rebuilding or re-owning it. Non-root ranks pass
    /// `None` and get a handle onto the root's storage, exactly as
    /// [`Comm::bcast_buf_f64`].
    pub fn bcast_shared_f64(&self, root: usize, buf: Option<&Buf<f64>>) -> Buf<f64> {
        let mine = (self.rank() == root).then(|| {
            let buf = buf.expect("bcast_shared_f64: root must supply a buffer");
            Payload::F64(buf.clone())
        });
        self.bcast_payload(root, mine).into_f64("bcast_f64")
    }

    /// Binomial-tree broadcast of an index buffer from `root`.
    pub fn bcast_u64(&self, root: usize, buf: &mut Vec<u64>) {
        let mine = (self.rank() == root).then(|| Payload::from(std::mem::take(buf)));
        *buf = self
            .bcast_payload(root, mine)
            .into_u64("bcast_u64")
            .into_vec();
    }

    /// Binomial-tree elementwise-sum reduction to `root`. On the root, `buf`
    /// holds the sum on return; on other ranks `buf` is left in an
    /// unspecified partially-reduced state.
    ///
    /// # Panics
    /// If contributions disagree in length.
    pub fn reduce_sum_f64(&self, root: usize, buf: &mut [f64]) {
        let _scope = self.coll_scope(CollKind::Reduce);
        let p = self.size();
        let vr = (self.rank() + p - root) % p;
        let mut mask = 1;
        while mask < p {
            if vr & mask == 0 {
                let src_vr = vr | mask;
                if src_vr < p {
                    let src = (src_vr + root) % p;
                    let other = self.recv_buf_f64(src, TAG_REDUCE);
                    assert_eq!(other.len(), buf.len(), "reduce: length mismatch");
                    for (x, y) in buf.iter_mut().zip(other.iter()) {
                        *x += y;
                    }
                }
            } else {
                let dst = (vr - mask + root) % p;
                self.send_f64(dst, TAG_REDUCE, buf);
                return;
            }
            mask <<= 1;
        }
    }

    /// All-reduce (elementwise sum) via recursive doubling on power-of-two
    /// group sizes, reduce-plus-broadcast otherwise. Every rank ends with the
    /// global sum in `buf`.
    pub fn allreduce_sum(&self, buf: &mut Vec<f64>) {
        let _scope = self.coll_scope(CollKind::Allreduce);
        let p = self.size();
        if p == 1 {
            return;
        }
        if p.is_power_of_two() {
            let r = self.rank();
            let mut mask = 1;
            while mask < p {
                let partner = r ^ mask;
                self.send_f64(partner, TAG_ALLREDUCE + mask as u64, buf);
                let other = self.recv_buf_f64(partner, TAG_ALLREDUCE + mask as u64);
                assert_eq!(other.len(), buf.len(), "allreduce: length mismatch");
                for (x, y) in buf.iter_mut().zip(other.iter()) {
                    *x += y;
                }
                mask <<= 1;
            }
        } else {
            self.reduce_sum_f64(0, buf);
            self.bcast_f64(0, buf);
        }
    }

    /// Fan-in gather core: every non-root rank sends its payload to `root`,
    /// which returns all of them indexed by local rank. The root's own
    /// contribution never touches the mailbox (and is not counted as
    /// traffic).
    fn gather_payload(&self, root: usize, mine: Payload) -> Option<Vec<Payload>> {
        let _scope = self.coll_scope(CollKind::Gather);
        if self.rank() != root {
            self.send_payload(root, TAG_GATHER, mine);
            return None;
        }
        let mut out = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            out.push(if src == root {
                mine.clone()
            } else {
                self.recv_payload(src, TAG_GATHER)
            });
        }
        Some(out)
    }

    /// Gather variable-length element buffers to `root`. Returns `Some` of
    /// the per-rank buffers (indexed by local rank) on the root, `None`
    /// elsewhere.
    pub fn gather_f64(&self, root: usize, data: &[f64]) -> Option<Vec<Vec<f64>>> {
        let pieces = self.gather_payload(root, data.into())?;
        let own = |p: Payload| p.into_f64("gather_f64").into_vec();
        Some(pieces.into_iter().map(own).collect())
    }

    /// Gather variable-length index buffers to `root`.
    pub fn gather_u64(&self, root: usize, data: &[u64]) -> Option<Vec<Vec<u64>>> {
        let pieces = self.gather_payload(root, data.into())?;
        let own = |p: Payload| p.into_u64("gather_u64").into_vec();
        Some(pieces.into_iter().map(own).collect())
    }

    /// Scatter per-rank buffers from `root`: the root passes `Some(pieces)`
    /// (one per local rank), everyone receives their piece. The root's own
    /// piece is handed over locally (no mailbox, no copy, no counted
    /// traffic); the other pieces are moved into the transport without
    /// copying.
    ///
    /// # Panics
    /// On the root if `pieces.len() != size()`.
    pub fn scatter_f64(&self, root: usize, pieces: Option<Vec<Vec<f64>>>) -> Vec<f64> {
        let _scope = self.coll_scope(CollKind::Scatter);
        if self.rank() == root {
            let pieces = pieces.expect("scatter: root must supply pieces");
            assert_eq!(
                pieces.len(),
                self.size(),
                "scatter: need one piece per rank"
            );
            let mut mine = Vec::new();
            for (dst, piece) in pieces.into_iter().enumerate() {
                if dst == root {
                    mine = piece;
                } else {
                    self.send_payload(dst, TAG_SCATTER, piece);
                }
            }
            mine
        } else {
            self.recv_f64(root, TAG_SCATTER)
        }
    }

    /// All-gather of equal-or-variable-length buffers: returns every rank's
    /// contribution, indexed by local rank. Power-of-two groups use
    /// recursive doubling (log₂ p rounds; each held piece travels as its own
    /// message, so per-rank bytes and message counts for equal-length pieces
    /// are identical to the ring's); other group sizes use the ring. This
    /// rank's own piece never touches the mailbox.
    pub fn allgather_f64(&self, data: &[f64]) -> Vec<Vec<f64>> {
        let _scope = self.coll_scope(CollKind::Allgather);
        let p = self.size();
        let mut out: Vec<Option<Buf<f64>>> = (0..p).map(|_| None).collect();
        out[self.rank()] = Some(Buf::from_slice(data));
        if p.is_power_of_two() {
            self.allgather_rd(&mut out);
        } else {
            self.allgather_ring(&mut out);
        }
        out.into_iter()
            .map(|b| b.expect("allgather: piece missing").into_vec())
            .collect()
    }

    /// Recursive-doubling all-gather over shared buffers. After round `k`
    /// each rank holds the 2^(k+1) pieces of its aligned block; every round
    /// exchanges whole blocks with the partner across bit `k`, one message
    /// per piece (tagged by origin) so variable-length pieces need no
    /// headers and per-channel FIFO gives a deterministic arrival order.
    fn allgather_rd(&self, out: &mut [Option<Buf<f64>>]) {
        let p = self.size();
        let r = self.rank();
        let mut mask = 1;
        while mask < p {
            let partner = r ^ mask;
            let base = r & !(mask - 1);
            for (o, held) in out.iter().enumerate().skip(base).take(mask) {
                let piece = held.clone().expect("allgather: held piece missing");
                self.send_payload(partner, TAG_ALLGATHER + o as u64, piece);
            }
            let pbase = partner & !(mask - 1);
            for (o, slot) in out.iter_mut().enumerate().skip(pbase).take(mask) {
                *slot = Some(self.recv_buf_f64(partner, TAG_ALLGATHER + o as u64));
            }
            mask <<= 1;
        }
    }

    /// Ring all-gather over shared buffers: at step `s`, send the piece
    /// originating at `(r - s)` to the right neighbour and receive the piece
    /// originating at `(r - s - 1)` from the left neighbour. Relayed pieces
    /// forward the same shared storage.
    fn allgather_ring(&self, out: &mut [Option<Buf<f64>>]) {
        let p = self.size();
        let r = self.rank();
        for s in 0..p.saturating_sub(1) {
            let right = (r + 1) % p;
            let left = (r + p - 1) % p;
            let send_origin = (r + p - s) % p;
            let recv_origin = (r + p - s - 1) % p;
            let piece = out[send_origin]
                .clone()
                .expect("allgather: held piece missing");
            self.send_payload(right, TAG_ALLGATHER + s as u64, piece);
            out[recv_origin] = Some(self.recv_buf_f64(left, TAG_ALLGATHER + s as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::buf::Buf;
    use crate::world::run;

    #[test]
    fn barrier_completes_for_various_sizes() {
        for p in [1, 2, 3, 5, 8] {
            run(p, |c| c.barrier());
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for p in [1, 2, 4, 5, 7, 8] {
            for root in 0..p {
                let out = run(p, move |c| {
                    let mut buf = if c.rank() == root {
                        vec![3.5, -1.0]
                    } else {
                        vec![]
                    };
                    c.bcast_f64(root, &mut buf);
                    buf
                });
                for r in out.results {
                    assert_eq!(r, vec![3.5, -1.0], "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn bcast_buf_shares_storage_and_agrees() {
        for p in [1, 2, 4, 7, 8] {
            for root in 0..p {
                let out = run(p, move |c| {
                    let buf = if c.rank() == root {
                        vec![1.0, root as f64]
                    } else {
                        vec![]
                    };
                    let b = c.bcast_buf_f64(root, buf);
                    b.to_vec()
                });
                for r in out.results {
                    assert_eq!(r, vec![1.0, root as f64], "p={p} root={root}");
                }
            }
        }
    }

    /// `bcast_shared_f64` leaves the root's handle usable, repeated
    /// broadcasts of the same handle never copy on the root, and the
    /// traffic matches the consuming variant exactly.
    #[test]
    fn bcast_shared_keeps_the_roots_handle() {
        let out = run(4, |c| {
            let src = (c.rank() == 1).then(|| Buf::from(vec![2.5, 3.5, 4.5]));
            let a = c.bcast_shared_f64(1, src.as_ref());
            let b = c.bcast_shared_f64(1, src.as_ref());
            if let Some(s) = &src {
                assert_eq!(s.as_ptr(), a.as_ptr(), "root side must not copy");
                assert_eq!(s.as_ptr(), b.as_ptr(), "re-broadcast must not copy");
            }
            a.to_vec()
        });
        for r in &out.results {
            assert_eq!(r, &vec![2.5, 3.5, 4.5]);
        }
        let consuming = run(4, |c| {
            let buf = if c.rank() == 1 {
                vec![2.5, 3.5, 4.5]
            } else {
                vec![]
            };
            c.bcast_buf_f64(1, buf);
        });
        assert_eq!(
            out.stats.total_bytes_sent(),
            2 * consuming.stats.total_bytes_sent(),
            "two shared broadcasts move exactly twice one consuming broadcast"
        );
    }

    #[test]
    fn bcast_u64_carries_indices() {
        let out = run(6, |c| {
            let mut buf = if c.rank() == 2 { vec![9, 8, 7] } else { vec![] };
            c.bcast_u64(2, &mut buf);
            buf
        });
        for r in out.results {
            assert_eq!(r, vec![9, 8, 7]);
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for p in [1, 2, 3, 4, 6, 8] {
            for root in [0, p - 1] {
                let out = run(p, move |c| {
                    let mut buf = vec![c.rank() as f64, 1.0];
                    c.reduce_sum_f64(root, &mut buf);
                    buf
                });
                let expect = (p * (p - 1) / 2) as f64;
                assert_eq!(out.results[root][0], expect, "p={p}");
                assert_eq!(out.results[root][1], p as f64);
            }
        }
    }

    #[test]
    fn allreduce_sum_all_sizes() {
        for p in [1, 2, 3, 4, 5, 8, 9] {
            let out = run(p, |c| {
                let mut buf = vec![(c.rank() + 1) as f64];
                c.allreduce_sum(&mut buf);
                buf[0]
            });
            let expect = (p * (p + 1) / 2) as f64;
            assert!(out.results.iter().all(|&x| x == expect), "p={p}");
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = run(5, |c| c.gather_f64(3, &[c.rank() as f64]));
        let gathered = out.results[3].as_ref().expect("root rank holds the gather");
        for (i, g) in gathered.iter().enumerate() {
            assert_eq!(g, &vec![i as f64]);
        }
        assert!(out.results[0].is_none());
    }

    #[test]
    fn gather_root_contribution_is_local() {
        // A 1-rank gather is pure self-contribution: no mailbox traffic.
        let out = run(1, |c| c.gather_f64(0, &[1.0, 2.0]));
        assert_eq!(out.stats.total_bytes_sent(), 0);
        assert_eq!(out.stats.ranks[0].msgs_sent, 0);
        assert_eq!(
            out.results[0].as_ref().expect("root"),
            &vec![vec![1.0, 2.0]]
        );
    }

    #[test]
    fn scatter_routes_pieces() {
        let out = run(4, |c| {
            let pieces = if c.rank() == 1 {
                Some((0..4).map(|i| vec![i as f64 * 10.0]).collect())
            } else {
                None
            };
            c.scatter_f64(1, pieces)
        });
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r, &vec![i as f64 * 10.0]);
        }
    }

    #[test]
    fn scatter_root_piece_is_local_and_uncopied() {
        // The root's own piece must be handed over as the same allocation —
        // no mailbox round-trip, no copy, no counted bytes.
        let out = run(1, |c| {
            let piece = vec![7.0; 16];
            let ptr = piece.as_ptr() as usize;
            let got = c.scatter_f64(0, Some(vec![piece]));
            (got.as_ptr() as usize == ptr, got)
        });
        let (same_alloc, got) = &out.results[0];
        assert!(same_alloc, "root piece must not be copied");
        assert_eq!(got, &vec![7.0; 16]);
        assert_eq!(out.stats.total_bytes_sent(), 0);
    }

    #[test]
    fn allgather_every_rank_sees_everything() {
        for p in [1, 2, 3, 4, 6, 8, 16] {
            let out = run(p, |c| c.allgather_f64(&[c.rank() as f64, 0.5]));
            for r in out.results {
                for (i, piece) in r.iter().enumerate() {
                    assert_eq!(piece, &vec![i as f64, 0.5], "p={p}");
                }
            }
        }
    }

    #[test]
    fn allgather_variable_lengths() {
        // Non-power-of-two (ring) and power-of-two (recursive doubling)
        // groups must both carry variable-length pieces, including empty.
        for p in [3, 4, 8] {
            let out = run(p, |c| c.allgather_f64(&vec![1.0; c.rank()]));
            for r in out.results {
                for (i, piece) in r.iter().enumerate() {
                    assert_eq!(piece.len(), i, "p={p}");
                }
            }
        }
    }

    #[test]
    fn allgather_rd_matches_ring_bytes_for_equal_pieces() {
        // With equal piece sizes, recursive doubling transmits each origin
        // p−1 times in pieces of the same size the ring uses — per-rank
        // bytes and message counts must match the ring schedule exactly.
        let rd = run(8, |c| {
            c.allgather_f64(&vec![1.0; 32]);
        });
        let ring = run(8, |c| {
            let mut out = vec![None; 8];
            out[c.rank()] = Some(Buf::from(vec![1.0; 32]));
            c.allgather_ring(&mut out);
        });
        for r in 0..8 {
            let a = &rd.stats.ranks[r];
            let b = &ring.stats.ranks[r];
            assert_eq!((a.bytes_sent, a.bytes_recv), (b.bytes_sent, b.bytes_recv));
            assert_eq!((a.msgs_sent, a.msgs_recv), (b.msgs_sent, b.msgs_recv));
        }
    }

    #[test]
    fn bcast_volume_matches_binomial_tree() {
        // A binomial bcast of B bytes to p ranks moves exactly (p-1)*B bytes.
        let out = run(8, |c| {
            let mut buf = if c.rank() == 0 {
                vec![0.0; 100]
            } else {
                vec![]
            };
            c.bcast_f64(0, &mut buf);
        });
        assert_eq!(out.stats.total_bytes_sent(), 7 * 800);
    }

    #[test]
    fn bcast_buf_volume_matches_vec_bcast() {
        // Zero-copy forwarding must not change the measured volume: every
        // logical hop still counts its full wire size.
        let buf_run = run(8, |c| {
            let data = if c.rank() == 0 {
                vec![1.0; 100]
            } else {
                vec![]
            };
            c.bcast_buf_f64(0, data);
        });
        let vec_run = run(8, |c| {
            let mut buf = if c.rank() == 0 {
                vec![1.0; 100]
            } else {
                vec![]
            };
            c.bcast_f64(0, &mut buf);
        });
        for r in 0..8 {
            let a = &buf_run.stats.ranks[r];
            let b = &vec_run.stats.ranks[r];
            assert_eq!((a.bytes_sent, a.bytes_recv), (b.bytes_sent, b.bytes_recv));
            assert_eq!((a.msgs_sent, a.msgs_recv), (b.msgs_sent, b.msgs_recv));
        }
    }

    #[test]
    fn allreduce_volume_matches_recursive_doubling() {
        // Recursive doubling: each of p ranks sends B bytes log2(p) times.
        let out = run(8, |c| {
            let mut buf = vec![1.0; 50];
            c.allreduce_sum(&mut buf);
        });
        assert_eq!(out.stats.total_bytes_sent(), 8 * 3 * 400);
    }
}
