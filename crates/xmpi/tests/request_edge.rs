//! Edge-case tests for the nonblocking request machinery: completion
//! caching, empty batches, and the retry/timeout policy under injected
//! message drops.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xmpi::{run, wait_all, with_hooks, Payload, Request, SchedHooks, SendFate, WaitPolicy};

/// `test()` before the message exists is `false` and must not consume
/// anything; after success it is sticky (the done cache), and the final
/// `wait` returns the cached payload — with the receive accounted exactly
/// once.
#[test]
fn test_caches_completion_for_wait() {
    let out = run(2, |c| {
        if c.rank() == 0 {
            let ready = c.recv_u64(1, 1);
            assert_eq!(ready, vec![7]);
            c.send_f64(1, 2, &[3.5, 4.5]);
            vec![]
        } else {
            let mut req = c.irecv(0, 2);
            assert!(!req.test(), "nothing sent yet");
            c.send_u64(0, 1, &[7]);
            while !req.test() {
                std::thread::yield_now();
            }
            // Sticky after success, and wait() must hand over the cached
            // payload without matching (there is no second message).
            assert!(req.test());
            assert!(req.test());
            req.wait_f64()
        }
    });
    assert_eq!(out.results[1], vec![3.5, 4.5]);
    // One 2-element f64 message: accounted once, not per test() poll.
    assert_eq!(out.stats.ranks[1].bytes_recv, 16);
}

/// `wait_all` over an empty batch is a no-op, not a hang or a panic.
#[test]
fn wait_all_over_empty_batch() {
    let out = run(1, |_c| {
        let reqs: Vec<Request> = Vec::new();
        wait_all(reqs).len()
    });
    assert_eq!(out.results[0], 0);
}

/// `wait_all` mixing completed sends and pending receives yields payloads
/// positionally, `None` for the sends.
#[test]
fn wait_all_mixes_sends_and_receives() {
    let out = run(2, |c| {
        if c.rank() == 0 {
            let reqs: Vec<Request> = vec![
                c.isend_f64(1, 0, &[1.0]).into(),
                c.irecv(1, 1).into(),
                c.isend_f64(1, 0, &[2.0]).into(),
            ];
            let done = wait_all(reqs);
            assert!(done[0].is_none());
            assert!(done[2].is_none());
            match &done[1] {
                Some(Payload::F64(v)) => v.to_vec(),
                other => panic!("expected f64 payload, got {other:?}"),
            }
        } else {
            c.send_f64(0, 1, &[9.0]);
            let a = c.recv_f64(0, 0);
            let b = c.recv_f64(0, 0);
            vec![a[0], b[0]]
        }
    });
    assert_eq!(out.results[0], vec![9.0]);
    assert_eq!(out.results[1], vec![1.0, 2.0]);
}

/// `wait_timeout`: `Ok` when the message arrives within the policy, `Err`
/// carrying the attempt count and the number of unmatched messages pending
/// when nothing matches — and the cancelled channel stays intact for a
/// later blocking receive.
#[test]
fn wait_timeout_reports_attempts_and_pending() {
    let out = run(2, |c| {
        if c.rank() == 0 {
            // Decoy on tag 8 sits unmatched in rank 1's mailbox during the
            // timed-out wait on tag 9; tag 7 is the ordering handshake
            // (program order on this thread ⇒ mailbox order over there).
            c.send_f64(1, 8, &[1.0, 2.0, 3.0]);
            c.send_u64(1, 7, &[1]);
            let go = c.recv_u64(1, 1);
            assert_eq!(go, vec![2]);
            c.send_f64(1, 9, &[42.0]);
            vec![]
        } else {
            c.recv_u64(0, 7);
            let req = c.irecv(0, 9);
            let policy = WaitPolicy::timeout(Duration::from_millis(5)).with_retries(2);
            let err = req.wait_timeout(policy).unwrap_err();
            assert_eq!(err.src, 0);
            assert_eq!(err.tag, 9);
            assert_eq!(err.attempts, 3, "1 + retries attempts");
            assert_eq!(err.pending, 1, "the tag-8 decoy was pending");
            // Now let the message exist and take it with a fresh receive:
            // the timed-out request cancelled cleanly.
            c.send_u64(0, 1, &[2]);
            let late = c.recv_f64(0, 9);
            let decoy = c.recv_f64(0, 8);
            assert_eq!(decoy, vec![1.0, 2.0, 3.0]);
            late
        }
    });
    assert_eq!(out.results[1], vec![42.0]);
}

/// An already-matched request returns `Ok` from `wait_timeout` without
/// another matching attempt, even under a zero-duration policy.
#[test]
fn wait_timeout_on_completed_request_is_immediate() {
    let out = run(2, |c| {
        if c.rank() == 0 {
            c.send_f64(1, 4, &[8.0]);
            vec![]
        } else {
            let mut req = c.irecv(0, 4);
            while !req.test() {
                std::thread::yield_now();
            }
            let payload = req
                .wait_timeout(WaitPolicy::timeout(Duration::ZERO))
                .expect("cached completion cannot time out");
            match payload {
                Payload::F64(v) => v.into_vec(),
                other => panic!("expected f64, got {other:?}"),
            }
        }
    });
    assert_eq!(out.results[1], vec![8.0]);
}

/// Drops the first transmission of every message on the victim tag; the
/// simulated retransmission surfaces it `retransmit_after` later.
struct DropFirstOnTag {
    victim_tag: u64,
    retransmit_after: Duration,
    drops: AtomicUsize,
}

impl SchedHooks for DropFirstOnTag {
    fn send_fate(&self, _src: usize, _dst: usize, _ctx: u64, tag: u64, _bytes: u64) -> SendFate {
        if tag == self.victim_tag {
            self.drops.fetch_add(1, Ordering::Relaxed);
            SendFate::Drop {
                retransmit_after: self.retransmit_after,
            }
        } else {
            SendFate::Deliver
        }
    }
}

/// A `Drop`-fated message makes short-timeout attempts fail until the
/// retransmission lands; a retry-tolerant [`WaitPolicy`] rides it out and
/// completes with the payload intact.
#[test]
fn drop_fate_is_survived_by_retry_policy() {
    let hooks = Arc::new(DropFirstOnTag {
        victim_tag: 6,
        retransmit_after: Duration::from_millis(20),
        drops: AtomicUsize::new(0),
    });
    let out = with_hooks(hooks.clone(), || {
        run(2, |c| {
            if c.rank() == 0 {
                c.send_f64(1, 6, &[5.0, 6.0]);
                vec![]
            } else {
                let req = c.irecv(0, 6);
                // Each attempt is far shorter than the retransmission delay, so
                // only the retry loop can complete this.
                let policy = WaitPolicy::timeout(Duration::from_millis(2)).with_retries(50);
                match req.wait_timeout(policy).expect("retries outlast the drop") {
                    Payload::F64(v) => v.into_vec(),
                    other => panic!("expected f64, got {other:?}"),
                }
            }
        })
    });
    assert_eq!(out.results[1], vec![5.0, 6.0]);
    assert_eq!(
        hooks.drops.load(Ordering::Relaxed),
        1,
        "one transmission dropped"
    );
    // Byte accounting is once per logical message, not per transmission.
    assert_eq!(out.stats.ranks[0].bytes_sent, 16);
    assert_eq!(out.stats.ranks[1].bytes_recv, 16);
}
