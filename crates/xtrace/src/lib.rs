//! `xtrace` — trace analysis and profiling for the simulated runtime.
//!
//! The paper's experiments instrument their MPI implementation with Score-P
//! and inspect the resulting profiles and traces. This crate is the
//! equivalent layer for the `xmpi` runtime: it consumes the
//! [`xmpi::WorldTrace`] recorded by [`xmpi::trace::capture`] and derives
//! the artefacts a profiler would:
//!
//! * [`Timeline`] — per-rank span timelines: phase spans with attributed
//!   flops, receive-wait (idle) intervals, collective spans;
//! * [`critical_path`] — the critical path through the send/receive
//!   happens-before graph (which rank was the bottleneck, when);
//! * [`trace_kpis`] — the public KPI-extraction API over timelines (idle
//!   fraction, critical-path fraction) shared by the experiments engine
//!   (`bench ablate`) and `trace_report --kpi`;
//! * [`mod@replay`] — simulated-time replay of the trace under the α-β-γ
//!   machine model, predicting time-to-solution on a real machine from the
//!   recorded event structure rather than wall-clock of the simulation;
//! * [`chrome_trace`] — Chrome-trace JSON export (loadable in Perfetto /
//!   `chrome://tracing`);
//! * [`invariants`] — runtime-contract checkers over a finished trace
//!   (byte conservation per channel, no lost requests, collective
//!   bracketing) and cross-run communication-equality checks — what the
//!   schedule-perturbation harness (`xharness`) asserts after every
//!   fault-injected run;
//! * [`profile`] — JSON profile reports with provenance (commit, params,
//!   seed) whose per-phase and per-collective tables are derived from the
//!   trace and cross-checkable against [`xmpi::WorldStats`].
//!
//! **Paper map**: this crate reproduces the paper's *evaluation
//! methodology* (§8–9) — Score-P-style profiles, per-routine cost
//! breakdowns, and time-to-solution prediction under the α-β-γ model the
//! paper's cost analysis is stated in. The replay's overlap accounting
//! ([`replay::PhaseOverlap`]) quantifies how much communication a schedule
//! hides behind the receivers' own compute — the property that
//! turns the paper's near-optimal communication *volume* into near-optimal
//! *time*.

#![warn(missing_docs, unreachable_pub)]

mod chrome;
mod critpath;
pub mod invariants;
mod kpi;
pub mod profile;
pub mod replay;
mod timeline;

pub use chrome::chrome_trace;
pub use critpath::{critical_path, path_length, CpSegment};
pub use invariants::{check_stats_equal, check_trace, Report, Violation};
pub use kpi::{trace_kpis, TraceKpis};
pub use profile::{git_head, profile_report, Provenance};
pub use replay::{replay, Machine, PhaseOverlap, Replay};
pub use timeline::{CollSpan, RankTimeline, Span, Timeline, Wait};
