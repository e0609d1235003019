//! Figures 9 and 10: achieved % of machine peak for LU (9) and Cholesky
//! (10) — strong scaling at two fixed matrix sizes plus a weak-scaling
//! series (constant `N²/P` per rank), for every implementation.

use crate::ablate::Algo;
use crate::experiments::{measure, Report};
use crate::table::render;
use serde_json::json;

fn perf_series(
    id: &str,
    title: &str,
    algos: &[(Algo, &str)],
    strong_ns: &[usize],
    ps: &[usize],
    weak_elems_per_rank: usize,
) -> Report {
    let mut sections = String::new();
    let mut data = Vec::new();

    // Strong scaling panels (a), (b).
    for &n in strong_ns {
        let mut rows = Vec::new();
        for &p in ps {
            if n * n / p < 64 {
                continue;
            }
            let seed = (n + 13 * p) as u64;
            let mut row = vec![format!("{p}")];
            for &(algo, label) in algos {
                let pct_peak = measure(algo, n, p, seed).kpis.model_pct_peak;
                row.push(format!("{pct_peak:.1}%"));
                data.push(json!({
                    "mode": "strong", "n": n, "p": p, "algo": label, "pct_peak": pct_peak,
                }));
            }
            rows.push(row);
        }
        let mut headers = vec!["P"];
        headers.extend(algos.iter().map(|&(_, l)| l));
        sections.push_str(&format!(
            "strong scaling, N={n}:\n{}\n",
            render(&headers, &rows)
        ));
    }

    // Weak scaling panel (c): N = √(elems_per_rank · P).
    let mut rows = Vec::new();
    for &p in ps {
        let n_raw = ((weak_elems_per_rank * p) as f64).sqrt() as usize;
        let n = (n_raw / 64).max(1) * 64;
        let seed = (n + 17 * p) as u64;
        let mut row = vec![format!("{p}"), format!("{n}")];
        for &(algo, label) in algos {
            let pct_peak = measure(algo, n, p, seed).kpis.model_pct_peak;
            row.push(format!("{pct_peak:.1}%"));
            data.push(json!({
                "mode": "weak", "n": n, "p": p, "algo": label, "pct_peak": pct_peak,
            }));
        }
        rows.push(row);
    }
    let mut headers = vec!["P", "N"];
    headers.extend(algos.iter().map(|&(_, l)| l));
    sections.push_str(&format!(
        "weak scaling, N²/P = {weak_elems_per_rank} elements per rank:\n{}",
        render(&headers, &rows)
    ));

    Report {
        id: id.into(),
        title: title.into(),
        json: json!({ "series": data }),
        text: sections,
    }
}

/// Fig. 9: % of peak for LU.
pub fn fig9(ps: &[usize]) -> Report {
    perf_series(
        "fig9",
        "% of machine peak, LU factorization (strong + weak scaling)",
        &[
            (Algo::Conflux, "COnfLUX"),
            (Algo::TwodLu, "MKL/SLATE 2D"),
            (Algo::SwapLu, "CANDMC-like"),
        ],
        &[512, 1024],
        ps,
        16384,
    )
}

/// Fig. 10: % of peak for Cholesky.
pub fn fig10(ps: &[usize]) -> Report {
    perf_series(
        "fig10",
        "% of machine peak, Cholesky factorization (strong + weak scaling)",
        &[
            (Algo::Confchox, "COnfCHOX"),
            (Algo::TwodChol, "MKL/SLATE 2D"),
        ],
        &[512, 1024],
        ps,
        16384,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn strong_scaling_peaks_decrease_with_p() {
        // Fixed N: more ranks → less work each → latency/volume overheads
        // grow relative to compute → % of peak falls (the paper's panels
        // show exactly this decay).
        let r = super::fig9(&[4, 16]);
        let series = r.json["series"].as_array().unwrap();
        let peak_at = |p: u64| -> f64 {
            series
                .iter()
                .find(|s| {
                    s["mode"] == "strong"
                        && s["p"].as_u64() == Some(p)
                        && s["n"].as_u64() == Some(1024)
                        && s["algo"] == "COnfLUX"
                })
                .unwrap()["pct_peak"]
                .as_f64()
                .unwrap()
        };
        assert!(peak_at(4) > peak_at(16), "strong scaling must decay");
    }
}
