//! KPI definitions — the one place every registry writer agrees on what a
//! number means, and the one place a measured run is priced.
//!
//! A KPI record is a flat `name → f64` map. The factor-workload KPIs:
//!
//! | KPI | definition | deterministic? |
//! |---|---|---|
//! | `sim_time_ms` | α-β-γ rank time on the busiest rank (ms) | yes |
//! | `model_gflops` | `total_flops / sim_time / 1e9` | yes |
//! | `model_pct_peak` | `% of P·γ` at the simulated time | yes |
//! | `words_per_rank` | `avg (sent+recv)/2` per rank, in 8-byte words | yes |
//! | `comm_factor` | `words_per_rank / Q_lower(N, P, M=c·N²/P)` | yes |
//! | `msgs_per_rank` | mean messages sent per rank | yes |
//! | `idle_frac` | receive-wait share of `P·makespan` (host clock) | no |
//! | `critpath_frac` | critical-path share of the makespan (host clock) | no |
//! | `checksum_byte_overhead` | ABFT bytes over the unprotected run − 1 | yes |
//!
//! The three time-derived KPIs are *modelled*: bytes and messages are
//! measured by the runtime, flops are the analytic counts, and time is
//! [`xtrace::Machine`]'s `T = flops/γ + bytes/β + messages·α` over them —
//! their names say so. [`factor_kpis`] is the only caller of
//! `Machine::rank_time` / `pct_peak` in this crate (the "One cell runner"
//! rule of `tests/design_rules.rs`): every figure, table, sweep and plan
//! cell reads its result.
//!
//! "Deterministic" KPIs are pure functions of the measured traffic and the
//! analytic machine model, so they are bit-stable across runs of the same
//! commit — those are the ones plans gate with tolerances. The host-clock
//! KPIs (`idle_frac`, `critpath_frac`) are recorded for trajectory plots
//! but should not carry tight tolerances.
//!
//! The kernels-workload KPIs are `gflops_<kernel>` for each measured kernel
//! plus `gemm_speedup` (packed vs naive) — the quantity the CI perf gate
//! holds the floor on. Those rates are measured wall-clock, not modelled.

use crate::ablate::CellRun;
use dense::flops::{cholesky_total_flops, lu_total_flops};
use pebbles::bounds::{cholesky_io_lower_bound, lu_io_lower_bound};
use serde_json::Value;
use std::collections::BTreeMap;
use xmpi::WorldStats;
use xtrace::Machine;

/// Algorithms the harness can run or model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Algo {
    /// COnfLUX (2.5D LU, tournament pivoting + row masking).
    Conflux,
    /// COnfCHOX (2.5D Cholesky).
    Confchox,
    /// 2D partial-pivoting LU — MKL / SLATE stand-in.
    TwodLu,
    /// 2D Cholesky — MKL / SLATE stand-in.
    TwodChol,
    /// 2.5D LU with explicit row swapping — CANDMC-style ablation.
    SwapLu,
}

impl Algo {
    /// The ablation-axis name (`Cell::algo`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Algo::Conflux => "conflux",
            Algo::Confchox => "confchox",
            Algo::TwodLu => "twod-lu",
            Algo::TwodChol => "twod-chol",
            Algo::SwapLu => "lu25d",
        }
    }

    /// Parse an ablation-axis name.
    pub(crate) fn from_name(name: &str) -> Option<Algo> {
        use Algo::*;
        [Conflux, Confchox, TwodLu, TwodChol, SwapLu]
            .into_iter()
            .find(|a| a.name() == name)
    }

    /// Whether the algorithm factors an SPD input (the rest are LU).
    pub(crate) fn is_cholesky(self) -> bool {
        matches!(self, Algo::Confchox | Algo::TwodChol)
    }

    /// Total flops of the factorization this algorithm performs.
    pub(crate) fn total_flops(self, n: usize) -> f64 {
        if self.is_cholesky() {
            cholesky_total_flops(n) as f64
        } else {
            lu_total_flops(n) as f64
        }
    }
}

/// The paper's I/O lower bound for `algo` at `M = c·N²/P`, in words/rank.
fn io_lower_bound(algo: Algo, n: usize, p: usize, c: usize) -> f64 {
    let m = (c * n * n) as f64 / p as f64;
    if algo.is_cholesky() {
        cholesky_io_lower_bound(n, p, m)
    } else {
        lu_io_lower_bound(n, p, m)
    }
}

/// One measured run priced under the α-β-γ model: the deterministic
/// factor-workload KPIs. Figures and tables read the fields;
/// [`CellRun::record`] is the registry's flat view of the same numbers.
pub(crate) struct FactorKpis {
    /// α-β-γ time of the busiest rank, in seconds.
    pub sim_time: f64,
    pub model_gflops: f64,
    pub model_pct_peak: f64,
    pub words_per_rank: f64,
    pub comm_factor: f64,
    pub msgs_per_rank: f64,
}

/// Price one run of `algo` at `(n, p)` on replication `c`: flops from the
/// analytic counts, bytes and messages as measured, time from
/// [`Machine::piz_daint`] over them, the lower bound at `M = c·N²/P`.
pub(crate) fn factor_kpis(
    algo: Algo,
    n: usize,
    p: usize,
    c: usize,
    stats: &WorldStats,
) -> FactorKpis {
    let mach = Machine::piz_daint();
    let flops_total = algo.total_flops(n);
    let msgs = stats.total_msgs() as f64 / p as f64;
    let t = mach.rank_time(
        flops_total / p as f64,
        stats.max_rank_bytes() as f64 / 2.0,
        msgs,
    );
    let words = stats.avg_rank_bytes() / 16.0;
    FactorKpis {
        sim_time: t,
        model_gflops: flops_total / t / 1e9,
        model_pct_peak: mach.pct_peak(flops_total, p, t),
        words_per_rank: words,
        comm_factor: words / io_lower_bound(algo, n, p, c),
        msgs_per_rank: msgs,
    }
}

impl CellRun {
    /// The registry record of this run. Without a trace the host-clock KPIs
    /// are omitted, not zero-filled, so a registry consumer can tell "not
    /// measured" from "perfectly overlapped".
    pub(crate) fn record(&self) -> BTreeMap<String, f64> {
        let k = &self.kpis;
        let mut kpis = BTreeMap::from([
            ("sim_time_ms".to_string(), k.sim_time * 1e3),
            ("model_gflops".to_string(), k.model_gflops),
            ("model_pct_peak".to_string(), k.model_pct_peak),
            ("words_per_rank".to_string(), k.words_per_rank),
            ("comm_factor".to_string(), k.comm_factor),
            ("msgs_per_rank".to_string(), k.msgs_per_rank),
            ("c_used".to_string(), self.grid.pz as f64),
            ("v_used".to_string(), self.v as f64),
        ]);
        if let Some(tr) = &self.trace {
            let tk = xtrace::trace_kpis(tr);
            kpis.insert("idle_frac".into(), tk.idle_frac);
            kpis.insert("critpath_frac".into(), tk.critpath_frac);
            kpis.insert("makespan_ms".into(), tk.makespan_ns as f64 / 1e6);
        }
        if let Some(tax) = self.checksum_byte_overhead {
            kpis.insert("checksum_byte_overhead".into(), tax);
        }
        kpis
    }
}

/// Extract the kernels-workload KPI record at one size from the
/// [`crate::experiments::kernels`] report JSON.
pub(crate) fn kernel_kpis(report_json: &Value, n: usize) -> BTreeMap<String, f64> {
    let mut kpis = BTreeMap::new();
    if let Some(samples) = report_json["samples"].as_array() {
        for s in samples {
            if s["n"].as_u64() == Some(n as u64) {
                if let (Some(k), Some(g)) = (s["kernel"].as_str(), s["gflops"].as_f64()) {
                    kpis.insert(format!("gflops_{k}"), g);
                }
            }
        }
    }
    // The update's rate as a fraction of the parallel cube's: how much of
    // the engine's rate the shape the factorizations issue actually gets.
    if let (Some(&u), Some(&g)) = (
        kpis.get("gflops_update_rank32"),
        kpis.get("gflops_par_gemm"),
    ) {
        kpis.insert("update_vs_gemm".into(), u / g);
    }
    if let Some(speedups) = report_json["gemm_speedup_vs_naive"].as_array() {
        for s in speedups {
            if s["n"].as_u64() == Some(n as u64) {
                if let Some(v) = s["speedup"].as_f64() {
                    kpis.insert("gemm_speedup".into(), v);
                }
            }
        }
    }
    if let Some(speedups) = report_json["gemm_tuned_speedup_vs_scalar"].as_array() {
        for s in speedups {
            if s["n"].as_u64() == Some(n as u64) {
                if let Some(v) = s["speedup"].as_f64() {
                    kpis.insert("tuned_speedup".into(), v);
                }
            }
        }
    }
    kpis
}

/// Extract the comm-workload KPI record at one `(n, p)` cell from the
/// [`crate::experiments::comm`] report JSON. `n` is the broadcast message
/// size in f64 elements. `bcast_speedup` (tree vs seed linear fan-out,
/// wall-clock) is the quantity the CI perf gate holds the floor on; the
/// p2p numbers characterize the transport itself and should carry loose or
/// no tolerances (host-clock measurements).
pub(crate) fn comm_kpis(report_json: &Value, n: usize, p: usize) -> BTreeMap<String, f64> {
    let mut kpis = BTreeMap::new();
    if let Some(v) = report_json["p2p"]["latency_us"].as_f64() {
        kpis.insert("p2p_latency_us".into(), v);
    }
    if let Some(v) = report_json["p2p"]["gbps"].as_f64() {
        kpis.insert("p2p_gbps".into(), v);
    }
    if let Some(cells) = report_json["bcast"].as_array() {
        for s in cells {
            if s["elems"].as_u64() == Some(n as u64) && s["p"].as_u64() == Some(p as u64) {
                for (kpi, field) in [
                    ("bcast_tree_us", "tree_us"),
                    ("bcast_linear_us", "linear_us"),
                    ("bcast_speedup", "speedup"),
                ] {
                    if let Some(v) = s[field].as_f64() {
                        kpis.insert(kpi.into(), v);
                    }
                }
            }
        }
    }
    kpis
}

/// Extract the transport-workload KPI record at one `(n, p)` cell from the
/// [`crate::experiments::transport`] report JSON: the measured postal-model
/// α (µs) and β (GB/s) of each backend, the socket/local ratios, and the
/// measured-vs-simulated calibration gap (`alpha_model_x_*` — how many
/// times the simulated machine's α the measured one is). All of these are
/// host-clock numbers: plans should gate sanity floors only and let the
/// registry trend carry the calibration story.
pub(crate) fn transport_kpis(report_json: &Value, n: usize, p: usize) -> BTreeMap<String, f64> {
    let mut kpis = BTreeMap::new();
    let model_alpha = report_json["model"]["alpha_us"].as_f64();
    if let Some(backends) = report_json["backends"].as_array() {
        for b in backends {
            let Some(label) = b["backend"].as_str() else {
                continue;
            };
            if let Some(a) = b["alpha_us"].as_f64() {
                kpis.insert(format!("alpha_{label}_us"), a);
                if let Some(m) = model_alpha {
                    if m > 0.0 {
                        kpis.insert(format!("alpha_model_x_{label}"), a / m);
                    }
                }
            }
            if let Some(g) = b["gbps"].as_f64() {
                kpis.insert(format!("gbps_{label}"), g);
            }
            if let Some(cells) = b["oneway"].as_array() {
                for c in cells {
                    if c["elems"].as_u64() == Some(n as u64) {
                        if let Some(us) = c["us"].as_f64() {
                            kpis.insert(format!("oneway_{label}_us"), us);
                        }
                    }
                }
            }
            if let Some(cells) = b["bcast"].as_array() {
                for c in cells {
                    if c["elems"].as_u64() == Some(n as u64) && c["p"].as_u64() == Some(p as u64) {
                        if let Some(us) = c["us"].as_f64() {
                            kpis.insert(format!("bcast_{label}_us"), us);
                        }
                    }
                }
            }
        }
    }
    for ratio in ["alpha", "gbps", "oneway", "bcast"] {
        let (l, s) = match ratio {
            "alpha" => ("alpha_local_us", "alpha_socket_us"),
            "gbps" => ("gbps_local", "gbps_socket"),
            "oneway" => ("oneway_local_us", "oneway_socket_us"),
            _ => ("bcast_local_us", "bcast_socket_us"),
        };
        if let (Some(&lv), Some(&sv)) = (kpis.get(l), kpis.get(s)) {
            if lv > 0.0 {
                kpis.insert(format!("socket_over_local_{ratio}"), sv / lv);
            }
        }
    }
    kpis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablate::run_cell;
    use crate::plan::Cell;

    #[test]
    fn factor_kpis_are_complete_and_positive() {
        let kpis = run_cell(&Cell::auto("conflux", 32, 4), 7, false)
            .unwrap()
            .record();
        for k in [
            "sim_time_ms",
            "model_gflops",
            "model_pct_peak",
            "words_per_rank",
            "comm_factor",
            "msgs_per_rank",
        ] {
            assert!(kpis[k] > 0.0, "{k} = {}", kpis[k]);
        }
        assert!(kpis["model_pct_peak"] <= 100.0);
        assert!(
            !kpis.contains_key("idle_frac"),
            "trace KPIs must be absent without a trace"
        );
        assert!(
            !kpis.contains_key("gflops") && !kpis.contains_key("pct_peak"),
            "modelled numbers carry the model_ prefix only"
        );
        // Measured volume cannot beat the lower bound.
        assert!(kpis["comm_factor"] >= 1.0, "{}", kpis["comm_factor"]);
    }

    #[test]
    fn kernel_kpis_pull_the_right_size() {
        let json = serde_json::json!({
            "samples": [
                { "kernel": "gemm", "n": 24, "gflops": 5.0 },
                { "kernel": "gemm", "n": 40, "gflops": 6.0 },
                { "kernel": "gemm_naive", "n": 40, "gflops": 2.0 },
                { "kernel": "update_rank32", "n": 40, "gflops": 3.0 },
                { "kernel": "par_gemm", "n": 24, "gflops": 8.0 },
            ],
            "gemm_speedup_vs_naive": [
                { "n": 24, "speedup": 2.5 }, { "n": 40, "speedup": 3.0 },
            ],
            "gemm_tuned_speedup_vs_scalar": [
                { "n": 24, "speedup": 1.1 }, { "n": 40, "speedup": 1.8 },
            ],
        });
        let kpis = kernel_kpis(&json, 40);
        assert_eq!(kpis["gflops_gemm"], 6.0);
        assert_eq!(kpis["gflops_gemm_naive"], 2.0);
        assert_eq!(kpis["gemm_speedup"], 3.0);
        assert_eq!(kpis["tuned_speedup"], 1.8);
        assert!(!kpis.contains_key("gflops_par_gemm"));
        assert!(!kpis.contains_key("update_vs_gemm"), "needs both rates");
        let kpis = kernel_kpis(
            &serde_json::json!({ "samples": [
                { "kernel": "update_rank32", "n": 40, "gflops": 3.0 },
                { "kernel": "par_gemm", "n": 40, "gflops": 6.0 },
            ]}),
            40,
        );
        assert_eq!(kpis["update_vs_gemm"], 0.5);
    }

    #[test]
    fn comm_kpis_pull_the_right_cell() {
        let json = serde_json::json!({
            "p2p": { "latency_us": 1.5, "gbps": 4.0 },
            "bcast": [
                { "p": 8, "elems": 1024, "linear_us": 80.0, "tree_us": 20.0, "speedup": 4.0 },
                { "p": 16, "elems": 32768, "linear_us": 900.0, "tree_us": 100.0, "speedup": 9.0 },
            ],
        });
        let kpis = comm_kpis(&json, 32768, 16);
        assert_eq!(kpis["bcast_speedup"], 9.0);
        assert_eq!(kpis["bcast_tree_us"], 100.0);
        assert_eq!(kpis["bcast_linear_us"], 900.0);
        assert_eq!(kpis["p2p_latency_us"], 1.5);
        assert_eq!(kpis["p2p_gbps"], 4.0);
        // A cell not in the report yields only the p2p numbers.
        assert!(!comm_kpis(&json, 64, 16).contains_key("bcast_speedup"));
    }
}
