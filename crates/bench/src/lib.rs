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
//!   a sweep grid plus per-KPI tolerances.
//! * [`ablate`] — the cell runner, and [`ablate::run_ablation`], which
//!   executes a plan's cells through it and extracts KPI records.
//! * `kpi` (crate-private) — the KPI definitions shared by every registry writer, and the
//!   one place a measured run is priced under the machine model.
//! * [`provenance`] — commit/machine/timestamp stamping shared by the
//!   registry and the `BENCH_*.json` reports.
//! * [`registry`] — the append-only `registry/ablations.csv` + JSONL
//!   trajectory store.
//! * [`trend`] — cross-commit baselines and the typed
//!   [`trend::RegressionReport`] behind `bench ablate check`.

#![warn(unreachable_pub)]

pub mod ablate;
pub mod experiments;
mod kpi;
pub mod plan;
pub mod provenance;
pub mod registry;
pub mod table;
pub mod trend;
