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
//! * [`ablate::run_cell`] — the one way a factorization is run: a
//!   [`plan::Cell`] plus an input seed, plain or traced; every figure,
//!   table, sweep, plan cell and `trace_report` goes through it.
//! * [`table`] — plain-text table rendering for terminal output.
//!
//! The **experiments engine** (see `EXPERIMENTS.md` §"Ablation
//! methodology") layers a declarative sweep/gate pipeline on top:
//!
//! * [`plan`] — declarative [`plan::AblationPlan`]s (TOML/JSON) describing
//!   a sweep grid plus per-KPI absolute bounds.
//! * [`ablate`] — the cell runner, and [`ablate::run_ablation`], which
//!   executes a plan's cells through it and extracts KPI records.
//! * `kpi` (crate-private) — the KPI definitions every plan cell and
//!   `trace_report --kpi` share, and the one place a measured run is priced.
//! * [`gate`] — the typed [`gate::GateReport`] behind `ablations check`:
//!   every bounded KPI held to its `min`/`max`.
//! * [`provenance`] — the commit/machine/timestamp stamp of the
//!   `BENCH_*.json` reports.
//!
//! The exact pins of the paper's quantities are elsewhere: per-rank bytes
//! in `results/golden_volumes.json`, every figure in the committed
//! `results/` files CI regenerates. A plan bounds only what has no exact
//! counterpart: host-clock speedups and transport rates.

#![warn(unreachable_pub)]

pub mod ablate;
pub mod experiments;
pub mod gate;
mod kpi;
pub mod plan;
pub mod provenance;
pub mod table;
