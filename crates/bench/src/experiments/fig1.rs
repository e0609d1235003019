//! Figures 1 and 11: runtime speedup of COnfLUX / COnfCHOX vs the fastest
//! state-of-the-art library, plus achieved % of machine peak — over a
//! `(P, N)` grid.
//!
//! Time-to-solution is the simulated α-β-γ time over *measured* traffic
//! (`kpi::factor_kpis` over `xtrace::Machine`); the second-best library is
//! the better of the 2D schedule (MKL/SLATE stand-in) and the swapping 2.5D
//! schedule (CANDMC/CAPITAL stand-in).

use crate::experiments::{measure, Report};
use crate::kpi::Algo;
use crate::table::render;
use serde_json::json;

/// Shared implementation for Fig. 1 (LU) and Fig. 11 (Cholesky).
fn speedup_grid(
    id: &str,
    title: &str,
    ours: Algo,
    baselines: &[(Algo, &str)],
    ns: &[usize],
    ps: &[usize],
) -> Report {
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for &p in ps {
        for &n in ns {
            if n * n / p < 256 {
                continue;
            }
            let seed = (n * 31 + p) as u64;
            let us = measure(ours, n, p, seed).kpis;
            let mut best_t = f64::INFINITY;
            let mut best = "";
            for &(algo, label) in baselines {
                let m = measure(algo, n, p, seed).kpis;
                if m.sim_time < best_t {
                    best_t = m.sim_time;
                    best = label;
                }
            }
            let speedup = best_t / us.sim_time;
            rows.push(vec![
                format!("{p}"),
                format!("{n}"),
                format!("{speedup:.2}x ({best})"),
                format!("{:.1}%", us.model_pct_peak),
            ]);
            data.push(json!({
                "p": p, "n": n, "speedup": speedup, "best_baseline": best,
                "pct_peak": us.model_pct_peak, "sim_time": us.sim_time,
            }));
        }
    }
    let text = render(&["P", "N", "speedup vs best baseline", "% of peak"], &rows);
    Report {
        id: id.into(),
        title: title.into(),
        json: json!({ "grid": data }),
        text,
    }
}

/// Fig. 1: COnfLUX speedup + % of peak.
pub fn fig1(ns: &[usize], ps: &[usize]) -> Report {
    speedup_grid(
        "fig1",
        "COnfLUX speedup vs fastest baseline and % of machine peak",
        Algo::Conflux,
        &[(Algo::TwodLu, "M/S"), (Algo::SwapLu, "C")],
        ns,
        ps,
    )
}

/// Fig. 11: COnfCHOX speedup + % of peak. (CAPITAL has no executable proxy
/// beyond the 2D schedule at simulation scale; the paper itself reports
/// SLATE or MKL as second best in every Cholesky cell.)
pub fn fig11(ns: &[usize], ps: &[usize]) -> Report {
    speedup_grid(
        "fig11",
        "COnfCHOX speedup vs fastest baseline and % of machine peak",
        Algo::Confchox,
        &[(Algo::TwodChol, "M/S")],
        ns,
        ps,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig1_produces_positive_speedups_and_peaks() {
        let r = super::fig1(&[256], &[16]);
        let g = r.json["grid"].as_array().unwrap();
        assert!(!g.is_empty());
        for cell in g {
            assert!(cell["speedup"].as_f64().unwrap() > 0.3);
            let pk = cell["pct_peak"].as_f64().unwrap();
            assert!(pk > 0.0 && pk <= 100.0);
        }
    }
}
