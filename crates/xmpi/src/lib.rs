//! `xmpi` — a thread-backed message-passing runtime.
//!
//! **Paper map** (Kwasniewski et al., SC'21, "On the parallel I/O optimality
//! of linear algebra kernels"): this crate is the stand-in for the paper's
//! *execution and measurement substrate* — MPI over Cray Aries plus the
//! Score-P profiler (§8, Experimental setup). The communication-volume
//! counters correspond to the paper's measured "communication volume per
//! rank" axis, and the per-phase attribution mirrors its per-routine cost
//! breakdown (Table 1).
//!
//! The paper's implementations run MPI over the Cray Aries interconnect and
//! measure aggregate communication volume with the Score-P profiler. This
//! crate substitutes both: every *rank* is an OS thread, point-to-point
//! messages travel through in-process mailboxes, and **every byte that
//! crosses a rank boundary is counted** at the same places an MPI library
//! would count them. Collectives (broadcast, reduce, all-reduce, gather,
//! scatter, butterfly exchange) are implemented *on top of* point-to-point
//! sends, so the measured volume reflects a real collective algorithm's
//! traffic (binomial trees, recursive doubling) rather than an abstract
//! formula.
//!
//! # Example
//!
//! ```
//! use xmpi::run;
//!
//! // Four ranks each contribute their rank id; all-reduce sums them.
//! let out = run(4, |comm| {
//!     let mut v = vec![comm.rank() as f64];
//!     comm.allreduce_sum(&mut v);
//!     v[0]
//! });
//! assert!(out.results.iter().all(|&x| x == 6.0));
//! assert!(out.stats.total_bytes_sent() > 0);
//! ```
//!
//! # Tracing
//!
//! Beyond aggregate counters, a world can record a full event trace —
//! sends, receive waits, collective spans, phase markers with flop counts —
//! via [`run_traced`] or by wrapping an existing driver in
//! [`trace::capture`]. The `xtrace` crate turns the resulting
//! [`trace::WorldTrace`] into timelines, idle-time attribution, critical
//! paths, simulated α-β-γ replays, and Chrome-trace exports. Tracing is
//! opt-in: untraced worlds carry no recorder and pay no locks for it.
//!
//! # Nonblocking operation
//!
//! [`Comm::isend_f64`]/[`Comm::irecv`] post operations and return
//! [`request::Request`] handles completed with `wait`/`test`/
//! [`request::wait_all`], with exact byte accounting and event trace (posts
//! record [`Event::SendPost`]/[`Event::RecvPost`], completions record
//! [`Event::WaitDone`]). Collectives are all blocking.
//!
//! # Schedule perturbation & fault injection
//!
//! For adversarial testing, a [`hooks::SchedHooks`] implementation can be
//! installed on every world launched inside [`hooks::with_hooks`] (the
//! counterpart of [`trace::capture`]) to delay or drop-and-retransmit messages,
//! stall request completions, and skew ranks at phase boundaries — all
//! without changing the bytes moved or their per-channel order. The
//! `xharness` crate drives these hooks from a single seed so any failing
//! schedule replays exactly.
//!
//! # Fault domain
//!
//! Hard failures are part of the model, not an afterthought:
//!
//! * [`hooks::CrashFate::Crash`] kills a rank at a chosen send — the
//!   world's liveness registry marks it dead and *poisons* the world, so
//!   survivors fail fast (no 120-second deadlock timeouts) while messages
//!   that were already delivered stay consumable;
//! * [`hooks::SchedHooks::corrupt_send`] flips a single element of an
//!   in-flight payload — the fault an ABFT checksum layer (see
//!   `dense::checksum`) must detect and locate;
//! * [`run_ft`] launches a world whose per-rank outcomes are
//!   `Result<R, XmpiError>` — the entry point for drivers that recover
//!   (checkpoint/restart in `factor::ft`) rather than die: a blocking
//!   operation cut short by a crash unwinds its rank to that join point
//!   with the typed error it observed, and [`Comm::try_recv_f64`] returns
//!   the [`XmpiError`] in place for a rank that wants to stay alive.
//!
//! # Network chaos
//!
//! Below the schedule hooks sits wire-level fault injection: a
//! [`netfault::NetFaults`] plan armed via [`with_net_faults`] breaks the
//! transport itself — torn (partially written) frames, mid-frame connection
//! resets, ranks that hang silently without closing their streams, and
//! refused or delayed mesh dials. On the socket backend the faults are
//! executed literally on the wire; a heartbeat failure detector
//! (`XMPI_HEARTBEAT_MS` / `XMPI_SUSPECT_MS`) classifies hung peers as
//! [`XmpiError::RankDead`], and every mesh dial is bounded by capped
//! exponential backoff, degrading to a typed [`XmpiError::LaunchFailed`]
//! instead of a hang or a panic. The `xharness`
//! crate derives whole fault plans from a single seed (`NetChaos`) so any
//! failing chaos run replays exactly.

#![warn(missing_docs, unreachable_pub)]
// Cross-rank code paths must surface failures as typed errors or loud,
// contextual panics — a bare `.unwrap()` that turns a dead peer into
// `Option::unwrap()` with no rank, tag, or channel is how a simulated
// cluster becomes undebuggable. `.expect("...")` with a message stays
// allowed for genuine invariants.
#![deny(clippy::unwrap_used)]

mod buf;
mod collectives;
mod comm;
mod error;
mod grid;
mod hooks;
pub mod launch;
mod liveness;
mod netfault;
mod request;
pub(crate) mod socket;
mod stats;
pub mod trace;
pub(crate) mod transport;
pub mod wire;
mod world;

pub use buf::Buf;
pub use comm::{Comm, Payload};
pub use error::XmpiError;
pub use grid::{Grid2, Grid3};
pub use hooks::{with_hooks, CrashFate, SchedHooks, SendFate};
pub use launch::{with_backend, Backend};
pub use liveness::catch_poison;
pub use netfault::{with_net_faults, ConnectFault, NetFaults, WireFault};
pub use request::{wait_all, RecvRequest, Request, SendRequest, WaitPolicy, WaitTimeout};
pub use stats::{CollCounts, CollKind, RankStats, WorldStats};
pub use trace::{Event, RankTrace, TraceConfig, WorldTrace};
pub use wire::Wire;
pub use world::{run, run_ft, run_traced, FtResult, TracedResult, WorldResult};
