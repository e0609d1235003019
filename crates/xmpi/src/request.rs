//! Request handles for nonblocking point-to-point operations.
//!
//! [`Comm::isend_f64`](crate::Comm::isend_f64) and
//! [`Comm::irecv`](crate::Comm::irecv) return handles that decouple posting
//! an operation from completing it, so a program can overlap communication
//! with computation. Semantics mirror MPI requests:
//!
//! * a send is buffered, so [`SendRequest`] is complete at creation;
//! * a receive matches its message at [`RecvRequest::wait`]/
//!   [`RecvRequest::test`] time, and that is when the receive-side bytes are
//!   accounted and the [`Event::WaitDone`](crate::Event::WaitDone) trace
//!   event is emitted — so the recorded idle time is the *residual* wait
//!   after whatever work the rank overlapped with the transfer;
//! * [`wait_all`] completes a batch in post order (buffered sends make
//!   completion order irrelevant for correctness).
//!
//! Dropping an incomplete [`RecvRequest`] cancels it: the posted receive is
//! forgotten and a matching message, if any, stays queued for a later
//! receive on the same `(src, tag)` channel.

use crate::comm::{recv_timeout, Comm, Payload};
use std::fmt;
use std::time::Duration;

/// Retry/timeout policy for completing a posted receive
/// ([`RecvRequest::wait_timeout`]).
///
/// The default policy matches the runtime's built-in deadlock detection: one
/// attempt bounded by the global receive timeout. Fault-injection tests
/// tighten `timeout` (so an injected stall surfaces as an `Err` instead of a
/// 120 s deadlock panic) and add `retries` to model retransmission-style
/// recovery: each retry re-enters the matching loop for another full
/// `timeout`, which is exactly what lets a `Drop`-fated message
/// ([`crate::hooks::SendFate::Drop`]) complete once its simulated
/// retransmission surfaces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitPolicy {
    /// Per-attempt bound on how long matching may block.
    pub timeout: Duration,
    /// Additional attempts after the first times out.
    pub retries: u32,
}

impl Default for WaitPolicy {
    fn default() -> Self {
        WaitPolicy {
            timeout: recv_timeout(),
            retries: 0,
        }
    }
}

impl WaitPolicy {
    /// Policy with a per-attempt `timeout` and no retries.
    pub fn timeout(timeout: Duration) -> Self {
        WaitPolicy {
            timeout,
            retries: 0,
        }
    }

    /// Builder: allow `retries` additional attempts after the first.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }
}

/// A posted receive failed to complete within its [`WaitPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeout {
    /// Communicator-local source rank the receive was posted on.
    pub src: usize,
    /// Message tag the receive was posted on.
    pub tag: u64,
    /// Matching attempts made (1 + retries).
    pub attempts: u32,
    /// Unmatched messages pending in the mailbox at the final expiry.
    pub pending: usize,
}

impl fmt::Display for WaitTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "receive from {} tag {} timed out after {} attempt(s); {} unmatched message(s) pending",
            self.src, self.tag, self.attempts, self.pending
        )
    }
}

impl std::error::Error for WaitTimeout {}

/// Handle for a posted nonblocking send. Complete at creation (sends are
/// buffered); exists so send and receive requests can be driven uniformly.
#[derive(Debug)]
pub struct SendRequest {
    _priv: (),
}

impl SendRequest {
    pub(crate) fn new() -> Self {
        SendRequest { _priv: () }
    }

    /// Complete the send. A no-op: buffered sends complete at post time.
    pub fn wait(self) {}

    /// Poll for completion. Always true.
    pub fn test(&mut self) -> bool {
        true
    }
}

/// Handle for a posted nonblocking receive on `(src, tag)`; borrows the
/// communicator it was posted on.
pub struct RecvRequest<'c> {
    comm: &'c Comm,
    /// Communicator-local source rank (diagnostics).
    src: usize,
    /// World rank of the source.
    src_world: usize,
    tag: u64,
    /// Matched payload, once `test` has succeeded but before the payload is
    /// taken by `wait`.
    done: Option<Payload>,
}

impl<'c> RecvRequest<'c> {
    pub(crate) fn new(comm: &'c Comm, src: usize, src_world: usize, tag: u64) -> Self {
        RecvRequest {
            comm,
            src,
            src_world,
            tag,
            done: None,
        }
    }

    /// Poll for completion without blocking. On the first success the
    /// message is consumed, its bytes are accounted, and
    /// [`Event::WaitDone`](crate::Event::WaitDone) is emitted; `wait` then
    /// returns the payload without further matching.
    pub fn test(&mut self) -> bool {
        if self.done.is_some() {
            return true;
        }
        self.comm.wait_point();
        let t_call = self.comm.trace_now().unwrap_or(0);
        match self.comm.try_take(self.src_world, self.tag) {
            Some(payload) => {
                self.comm.finish_nonblocking_recv(
                    self.src_world,
                    self.tag,
                    payload.bytes(),
                    t_call,
                );
                self.done = Some(payload);
                true
            }
            None => false,
        }
    }

    /// Block until the matching message arrives and return its payload.
    ///
    /// # Panics
    /// If no message arrives within the runtime's deadlock timeout.
    pub fn wait(mut self) -> Payload {
        if let Some(payload) = self.done.take() {
            return payload;
        }
        self.comm.wait_point();
        let t_call = self.comm.trace_now().unwrap_or(0);
        let payload = self.comm.block_take(self.src, self.src_world, self.tag);
        self.comm
            .finish_nonblocking_recv(self.src_world, self.tag, payload.bytes(), t_call);
        payload
    }

    /// [`RecvRequest::wait`] under an explicit retry/timeout [`WaitPolicy`]:
    /// each attempt blocks for at most `policy.timeout`, and up to
    /// `policy.retries` further attempts re-enter the matching loop. On
    /// `Err` the request is consumed and the posted receive is cancelled
    /// (like dropping it) — a late message stays queued for a later receive
    /// on the same channel, and *no* completion is accounted, which is what
    /// the lost-request invariant checker keys on.
    pub fn wait_timeout(mut self, policy: WaitPolicy) -> Result<Payload, WaitTimeout> {
        if let Some(payload) = self.done.take() {
            return Ok(payload);
        }
        self.comm.wait_point();
        let t_call = self.comm.trace_now().unwrap_or(0);
        let attempts = policy.retries.saturating_add(1);
        let mut pending = 0;
        for _ in 0..attempts {
            match self
                .comm
                .block_take_timeout(self.src_world, self.tag, policy.timeout)
            {
                Ok(payload) => {
                    self.comm.finish_nonblocking_recv(
                        self.src_world,
                        self.tag,
                        payload.bytes(),
                        t_call,
                    );
                    return Ok(payload);
                }
                Err(p) => pending = p,
            }
        }
        Err(WaitTimeout {
            src: self.src,
            tag: self.tag,
            attempts,
            pending,
        })
    }

    /// [`RecvRequest::wait`], asserting an element payload and converting to
    /// owned storage (free unless the sender's buffer is still shared).
    ///
    /// # Panics
    /// If the matching message carries indices instead of elements.
    pub fn wait_f64(self) -> Vec<f64> {
        let (src, tag) = (self.src, self.tag);
        self.wait()
            .into_f64(format_args!("wait_f64: from {src} tag {tag}"))
            .into_vec()
    }

    /// [`RecvRequest::wait`], asserting an index payload.
    ///
    /// # Panics
    /// If the matching message carries elements instead of indices.
    pub fn wait_u64(self) -> Vec<u64> {
        let (src, tag) = (self.src, self.tag);
        self.wait()
            .into_u64(format_args!("wait_u64: from {src} tag {tag}"))
            .into_vec()
    }
}

/// Either kind of nonblocking request, for heterogeneous batches.
pub enum Request<'c> {
    /// A posted send.
    Send(SendRequest),
    /// A posted receive.
    Recv(RecvRequest<'c>),
}

impl<'c> Request<'c> {
    /// Poll for completion without blocking.
    pub fn test(&mut self) -> bool {
        match self {
            Request::Send(s) => s.test(),
            Request::Recv(r) => r.test(),
        }
    }

    /// Complete the request; receives yield their payload, sends `None`.
    pub fn wait(self) -> Option<Payload> {
        match self {
            Request::Send(s) => {
                s.wait();
                None
            }
            Request::Recv(r) => Some(r.wait()),
        }
    }
}

impl From<SendRequest> for Request<'_> {
    fn from(s: SendRequest) -> Self {
        Request::Send(s)
    }
}

impl<'c> From<RecvRequest<'c>> for Request<'c> {
    fn from(r: RecvRequest<'c>) -> Self {
        Request::Recv(r)
    }
}

/// Complete every request in the batch, in post order, returning the
/// received payloads positionally (`None` for sends). Post order is safe
/// against any completion order because sends are buffered: no wait can
/// prevent another request's message from arriving.
pub fn wait_all<'c>(reqs: impl IntoIterator<Item = Request<'c>>) -> Vec<Option<Payload>> {
    reqs.into_iter().map(Request::wait).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::run;

    #[test]
    fn isend_irecv_roundtrip() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                let req = c.isend_f64(1, 3, &[1.0, 2.0]);
                req.wait();
                vec![]
            } else {
                let req = c.irecv(0, 3);
                req.wait_f64()
            }
        });
        assert_eq!(out.results[1], vec![1.0, 2.0]);
        assert_eq!(out.stats.ranks[0].bytes_sent, 16);
        assert_eq!(out.stats.ranks[1].bytes_recv, 16);
    }

    #[test]
    fn test_polls_without_blocking() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                // Let rank 1 poll before the message exists, then send.
                let ready = c.recv_u64(1, 1);
                assert_eq!(ready, vec![7]);
                c.send_u64(1, 2, &[42]);
                0
            } else {
                let mut req = c.irecv(0, 2);
                assert!(!req.test(), "nothing sent yet");
                c.send_u64(0, 1, &[7]);
                let mut spins = 0u64;
                while !req.test() {
                    std::thread::yield_now();
                    spins += 1;
                    assert!(spins < 1_000_000_000, "test never completed");
                }
                match req.wait() {
                    Payload::U64(v) => v[0],
                    _ => unreachable!(),
                }
            }
        });
        assert_eq!(out.results[1], 42);
    }

    #[test]
    fn wait_all_preserves_channel_fifo() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                for i in 0..4 {
                    c.isend_f64(1, 0, &[i as f64]).wait();
                }
                vec![]
            } else {
                let reqs: Vec<Request> = (0..4).map(|_| c.irecv(0, 0).into()).collect();
                wait_all(reqs)
                    .into_iter()
                    .map(|p| match p {
                        Some(Payload::F64(v)) => v[0],
                        _ => unreachable!(),
                    })
                    .collect()
            }
        });
        assert_eq!(out.results[1], vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn dropped_request_leaves_message_queued() {
        let out = run(2, |c| {
            if c.rank() == 0 {
                c.send_f64(1, 5, &[9.0]);
                vec![]
            } else {
                // Handshake first so the message is queued, then cancel an
                // irecv for it and pick it up with a blocking receive.
                let req = c.irecv(0, 5);
                drop(req);
                c.recv_f64(0, 5)
            }
        });
        assert_eq!(out.results[1], vec![9.0]);
    }
}
