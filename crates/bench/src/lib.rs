//! Experiment harness: machinery behind the binaries (`src/bin/*`) that
//! re-run the paper's evaluation (§9–§10) on the simulated machine — one
//! `all_experiments` id per table/figure, indexed in `DESIGN.md` §4.
//!
//! * [`xtrace::Machine`] — Piz Daint-like machine constants and the
//!   simulated time-to-solution model (documented in `EXPERIMENTS.md`):
//!   per-rank time `T = flops/γ + bytes/β + messages·α`, with flops taken
//!   from the analytic operation counts and bytes/messages *measured* by
//!   the `xmpi` runtime. Performance figures report
//!   `%peak = total_flops/(P·γ·T)`.
//! * [`ablate::run_cell`] — the one way a factorization is run: an
//!   [`ablate::Cell`] plus an input seed, plain or traced; every figure,
//!   table, sweep and `trace_report` goes through it, and `kpi`
//!   (crate-private) is the one place its traffic is priced.
//! * [`floor`] — the one check of a host-clock number against its bound.
//!   The `floors` bin runs one of `experiments::{kernels, comm, transport,
//!   recovery}` at its fixed shape and holds each number it gates to the
//!   [`floor::Floor`] constant declared beside the code that measures it.
//! * [`provenance`] — the commit/machine/timestamp stamp of the
//!   `BENCH_*.json` reports.
//! * [`table`] — plain-text table rendering for terminal output.
//!
//! The exact pins of the paper's quantities are elsewhere: per-rank bytes
//! in `results/golden_volumes.json`, every figure in the committed
//! `results/` files CI regenerates. A floor bounds only what has no exact
//! counterpart: host-clock speedups, rates and overheads.

#![warn(unreachable_pub)]

pub mod ablate;
pub mod experiments;
pub mod floor;
mod kpi;
pub mod provenance;
pub mod table;
