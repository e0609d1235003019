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
//! * `runner` (crate-private) — run one algorithm at one configuration and
//!   collect a `Measurement`; JSON-serializable for `results/`.
//! * [`table`] — plain-text table rendering for terminal output.
//!
//! The **experiments engine** (see `EXPERIMENTS.md` §"Ablation
//! methodology") layers a declarative sweep/gate pipeline on top:
//!
//! * [`plan`] — declarative [`plan::AblationPlan`]s (TOML/JSON) describing
//!   a sweep grid plus per-KPI tolerances.
//! * [`ablate`] — execute a plan's cells through the `runner` +
//!   [`xtrace::Machine`] path and extract KPI records.
//! * [`kpi`] — the KPI definitions shared by every registry writer.
//! * [`provenance`] — commit/machine/timestamp stamping shared by the
//!   registry and the `BENCH_*.json` reports.
//! * [`registry`] — the append-only `registry/ablations.csv` + JSONL
//!   trajectory store.
//! * [`trend`] — cross-commit baselines and the typed
//!   [`trend::RegressionReport`] behind `bench ablate check`.

#![warn(unreachable_pub)]

pub mod ablate;
pub mod experiments;
pub mod kpi;
pub mod plan;
pub mod provenance;
pub mod registry;
mod runner;
pub mod table;
pub mod trend;
