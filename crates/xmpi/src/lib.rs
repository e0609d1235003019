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
//! crate substitutes both: every *rank* is an OS thread (or, on the socket
//! backend, a forked process), point-to-point messages travel through
//! in-process mailboxes (or a UNIX-socket mesh), and **every byte that
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
//! use xmpi::{run, with_backend, Backend, Comm};
//!
//! // Four ranks each contribute their rank id; all-reduce sums them.
//! let program = |comm: &Comm| {
//!     let mut v = vec![comm.rank() as f64];
//!     comm.allreduce_sum(&mut v);
//!     v[0]
//! };
//! let out = run(4, program); // ranks are threads by default
//! assert!(out.results.iter().all(|&x| x == 6.0));
//! assert!(out.stats.total_bytes_sent() > 0);
//!
//! // Backend is ambient: the same program on four forked rank processes.
//! let socket = with_backend(Backend::Socket, || run(4, program));
//! assert_eq!(socket.results, out.results);
//! assert_eq!(socket.stats.total_bytes_sent(), out.stats.total_bytes_sent());
//! ```
//!
//! # Tracing
//!
//! Beyond aggregate counters, a world can record a full event trace —
//! sends, receive waits, collective spans, phase markers with flop counts —
//! by launching it, or an existing driver that launches it, inside
//! [`trace::capture`]. The `xtrace` crate turns the resulting
//! [`trace::WorldTrace`] into timelines, idle-time attribution, critical
//! paths, simulated α-β-γ replays, and Chrome-trace exports. Tracing is
//! opt-in: untraced worlds carry no recorder and pay no locks for it.
//!
//! # Blocking operation
//!
//! Sends are buffered: they never wait for the destination to receive (on
//! the socket backend a send writes its frame itself, and while the
//! destination's socket is full it reads its own inbound streams); receives
//! block until their message matches. Every point-to-point call and every
//! collective completes before it returns.
//!
//! # Schedule perturbation & fault injection
//!
//! For adversarial testing, a [`hooks::SchedHooks`] implementation can be
//! installed on every world launched inside [`hooks::with_hooks`] (the
//! counterpart of [`trace::capture`]) to delay or drop-and-retransmit
//! messages, stall receives, and skew ranks at phase boundaries — all
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
//!   `Result<R, XmpiError>` on either backend ([`run`] is `run_ft` that
//!   panics on a failed rank) — the entry point for drivers that recover
//!   (checkpoint/restart in `factor::ft`) rather than die: a blocking
//!   operation cut short by a crash unwinds its rank to that join point
//!   with the typed error it observed, and [`Comm::try_recv_f64`] returns
//!   the [`XmpiError`] in place for a rank that wants to stay alive.
//!
//! # Network chaos
//!
//! The same hooks break the transport itself:
//! [`hooks::SchedHooks::wire_fault`] decides per outbound frame whether it
//! is torn (partially written), cut by a mid-frame connection reset, or
//! the first frame of a rank that hangs silently without closing its
//! streams. On the socket backend the faults are executed literally on the
//! wire, and a heartbeat failure detector (`XMPI_HEARTBEAT_MS` /
//! `XMPI_SUSPECT_MS`) classifies hung peers as [`XmpiError::RankDead`]; in
//! process the fatal faults are mirrored as the sender's death. The
//! launcher makes the whole mesh before it forks a rank, so no connection
//! can be refused; a world that cannot be made returns a typed
//! [`XmpiError::LaunchFailed`] from every rank instead of a hang or a
//! panic. The `xharness` perturbator derives whole fault plans from a
//! single seed so any failing chaos run replays exactly.

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
pub(crate) mod socket;
mod stats;
mod sys;
pub mod trace;
pub(crate) mod transport;
pub mod wire;
mod world;

pub use buf::Buf;
pub use comm::{Comm, Payload};
pub use error::XmpiError;
pub use grid::{Grid2, Grid3};
pub use hooks::{with_hooks, CrashFate, SchedHooks, SendFate, WireFault};
pub use launch::{with_backend, Backend};
pub use liveness::catch_poison;
pub use stats::{CollCounts, CollKind, RankStats, WorldStats};
pub use trace::{Event, RankTrace, TraceConfig, WorldTrace};
pub use wire::Wire;
pub use world::{run, run_ft, FtResult, WorldResult};
