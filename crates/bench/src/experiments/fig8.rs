//! Figure 8: communication volume measurements and model predictions.
//!
//! * **8a** — strong scaling: volume per rank at fixed `N`, varying `P`
//!   (measured at simulation scale, model curves at the paper's
//!   `N = 16384` up to `P = 262144`).
//! * **8b** — weak scaling: `N = N₀·∛P` keeps work per rank constant; 2.5D
//!   schedules hold volume per rank roughly flat while 2D grows.
//! * **8c** — communication reduction of COnfLUX vs the second-best
//!   implementation over a `(P, N)` grid, measured + predicted.

use crate::ablate::Algo;
use crate::experiments::{measure, Report};
use crate::table::{ratio, render};
use factor::models::{candmc_model, conflux_model, twod_lu_model, MachineParams};
use serde_json::json;

/// Measured mean bytes (sent + received) per rank of one data point.
fn bytes_per_rank(algo: Algo, n: usize, p: usize, input_seed: u64) -> f64 {
    measure(algo, n, p, input_seed).stats.avg_rank_bytes()
}

/// Fig. 8a: strong-scaling volume, measured + paper-scale model lines.
pub fn fig8a(n: usize, ps: &[usize]) -> Report {
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for &p in ps {
        let seed = 800 + p as u64;
        let cf = bytes_per_rank(Algo::Conflux, n, p, seed);
        let td = bytes_per_rank(Algo::TwodLu, n, p, seed);
        let sw = bytes_per_rank(Algo::SwapLu, n, p, seed);
        rows.push(vec![
            format!("{p}"),
            format!("{cf:.0}"),
            format!("{td:.0}"),
            format!("{sw:.0}"),
            ratio(td, cf),
        ]);
        data.push(json!({
            "p": p, "n": n,
            "conflux_bytes_per_rank": cf,
            "twod_bytes_per_rank": td,
            "swap_bytes_per_rank": sw,
        }));
    }
    // Paper-scale model lines (N = 16384, maximum replication, like Fig 8a).
    let mut model_rows = Vec::new();
    for exp in [2u32, 4, 6, 8, 10, 12, 14, 16, 18] {
        let p = 1usize << exp;
        let mp = MachineParams::paper_default(16384, p);
        model_rows.push(vec![
            format!("{p}"),
            format!("{:.3e}", 8.0 * conflux_model(mp)),
            format!("{:.3e}", 8.0 * twod_lu_model(mp, 128)),
            format!("{:.3e}", 8.0 * candmc_model(mp)),
        ]);
    }
    let text = format!(
        "measured (N={n}):\n{}\nmodel lines at paper scale (N=16384, c=P^(1/3), bytes/rank):\n{}",
        render(
            &[
                "P",
                "COnfLUX B/rank",
                "2D (MKL/SLATE)",
                "2.5D swap (CANDMC-like)",
                "2D/COnfLUX"
            ],
            &rows
        ),
        render(
            &["P", "COnfLUX model", "MKL/SLATE model", "CANDMC model"],
            &model_rows
        )
    );
    Report {
        id: "fig8a".into(),
        title: "communication volume per rank, strong scaling".into(),
        json: json!({ "measured": data, "model_n": 16384 }),
        text,
    }
}

/// Fig. 8b: weak scaling `N = n0·∛P` (rounded to valid block multiples).
pub fn fig8b(n0: usize, ps: &[usize]) -> Report {
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for &p in ps {
        let n_raw = (n0 as f64 * (p as f64).cbrt()) as usize;
        let n = (n_raw / 64).max(1) * 64; // keep divisibility easy
        let seed = 900 + p as u64;
        let cf = bytes_per_rank(Algo::Conflux, n, p, seed);
        let td = bytes_per_rank(Algo::TwodLu, n, p, seed);
        rows.push(vec![
            format!("{p}"),
            format!("{n}"),
            format!("{cf:.0}"),
            format!("{td:.0}"),
        ]);
        data.push(json!({
            "p": p, "n": n,
            "conflux_bytes_per_rank": cf,
            "twod_bytes_per_rank": td,
        }));
    }
    let text = render(&["P", "N=n0·∛P", "COnfLUX B/rank", "2D B/rank"], &rows);
    Report {
        id: "fig8b".into(),
        title: "communication volume per rank, weak scaling (constant work per rank)".into(),
        json: json!({ "measured": data, "n0": n0 }),
        text,
    }
}

/// Fig. 8c: communication reduction of COnfLUX vs the second-best
/// implementation — measured grid plus model predictions to paper scale.
pub fn fig8c(ns: &[usize], ps: &[usize]) -> Report {
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for &n in ns {
        for &p in ps {
            if n * n / p < 64 {
                continue;
            }
            let seed = 700 + (n + p) as u64;
            let cf = bytes_per_rank(Algo::Conflux, n, p, seed);
            let td = bytes_per_rank(Algo::TwodLu, n, p, seed);
            let sw = bytes_per_rank(Algo::SwapLu, n, p, seed);
            let second_best = td.min(sw);
            let red = second_best / cf;
            let who = if td <= sw { "M/S" } else { "C" };
            rows.push(vec![
                format!("{n}"),
                format!("{p}"),
                format!("{red:.2}x ({who})"),
            ]);
            data.push(json!({ "n": n, "p": p, "reduction": red, "second_best": who }));
        }
    }
    // Predicted reductions at paper scale.
    let mut pred_rows = Vec::new();
    for exp in [6u32, 9, 12, 15, 18] {
        let p = 1usize << exp;
        for n in [16384usize, 65536, 262144] {
            let mp = MachineParams::paper_default(n, p);
            let red = twod_lu_model(mp, 128).min(candmc_model(mp)) / conflux_model(mp);
            pred_rows.push(vec![format!("{p}"), format!("{n}"), format!("{red:.2}x")]);
        }
    }
    let text = format!(
        "measured (M/S = MKL/SLATE 2D is second best, C = CANDMC-like swap):\n{}\n\
         predicted at paper scale:\n{}",
        render(&["N", "P", "reduction vs 2nd best"], &rows),
        render(&["P", "N", "predicted reduction"], &pred_rows)
    );
    Report {
        id: "fig8c".into(),
        title: "communication reduction of COnfLUX vs second-best implementation".into(),
        json: json!({ "measured": data }),
        text,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn weak_scaling_2d_grows_faster_than_25d() {
        // The defining shape of Fig. 8b: between P=8 (first replicated
        // grid, c=2) and P=64 (c=4), the 2D schedule's per-rank volume must
        // grow by a larger factor than COnfLUX's. (P=4 maps to c=1 where
        // COnfLUX degenerates to a plain 2D grid, so the series starts at
        // the first truly 2.5D point, as the paper's c=P^(1/3) caption
        // implies.)
        let r = super::fig8b(256, &[8, 64]);
        let pts = r.json["measured"].as_array().unwrap();
        let g25 = pts[1]["conflux_bytes_per_rank"].as_f64().unwrap()
            / pts[0]["conflux_bytes_per_rank"].as_f64().unwrap();
        let g2d = pts[1]["twod_bytes_per_rank"].as_f64().unwrap()
            / pts[0]["twod_bytes_per_rank"].as_f64().unwrap();
        assert!(
            g25 < g2d,
            "2.5D weak-scaling growth {g25:.2} must beat 2D {g2d:.2}"
        );
    }

    #[test]
    fn strong_scaling_conflux_beats_swap_variant() {
        let r = super::fig8a(256, &[16]);
        let m = &r.json["measured"][0];
        let cf = m["conflux_bytes_per_rank"].as_f64().unwrap();
        let sw = m["swap_bytes_per_rank"].as_f64().unwrap();
        assert!(cf < sw, "masking ({cf}) must beat swapping ({sw})");
    }
}
