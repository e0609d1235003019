//! Table 2: parallelization strategies and I/O cost models of all compared
//! implementations, with model-vs-measured validation.
//!
//! The paper validates its cost models against Score-P measurements (±3%
//! for MKL/SLATE/COnfLUX/COnfCHOX; the CANDMC/CAPITAL author models
//! overapproximate by 30–40%). We rerun that loop on the simulated machine:
//! every executable schedule is measured over an `(N, P)` grid and compared
//! against its Table 2 model; CANDMC appears as an author-model row (as in
//! the paper) next to the measured row-swapping ablation. CAPITAL's author
//! model has no row: nothing executable stands in for it (see Fig. 11).

use crate::experiments::{measure, Report};
use crate::kpi::Algo;
use crate::table::render;
use factor::models::{self, MachineParams};
use serde_json::json;

/// An I/O cost model of `factor::models`: words per rank at block `nb`.
type Model = fn(MachineParams, usize) -> f64;

/// The table's rows: implementation, display name (with the library the
/// paper compares it to), and its Table 2 model.
const ROWS: [(Algo, &str, Model); 5] = [
    (Algo::Conflux, "COnfLUX", |mp, _| models::conflux_model(mp)),
    (Algo::Confchox, "COnfCHOX", |mp, _| {
        models::confchox_model(mp)
    }),
    (Algo::TwodLu, "2D LU (MKL/SLATE)", models::twod_lu_model),
    (
        Algo::TwodChol,
        "2D Chol (MKL/SLATE)",
        models::twod_cholesky_model,
    ),
    (Algo::SwapLu, "2.5D LU swap (CANDMC-like)", |mp, _| {
        models::candmc_model(mp)
    }),
];

/// Regenerate Table 2 over a sweep of `(n, p)` points.
pub fn run(points: &[(usize, usize)]) -> Report {
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for &(n, p) in points {
        for (algo, label, model) in ROWS {
            let run = measure(algo, n, p, 1000 + n as u64);
            let (c, block) = (run.grid.pz, run.v);
            // Model evaluated at the memory the run actually used: the
            // replication it ran at, `M = c·N²/P`.
            let mem = (c * n * n) as f64 / p as f64;
            let model_words = model(MachineParams::with_memory(n, p, mem), block);
            // Measured "words transferred per rank": (sent+received)/2 / 8.
            let measured_words = run.kpis.words_per_rank;
            let err = 100.0 * (measured_words - model_words) / model_words;
            rows.push(vec![
                label.to_string(),
                format!("{n}"),
                format!("{p}"),
                format!("{c}"),
                format!("{measured_words:.0}"),
                format!("{model_words:.0}"),
                format!("{err:+.0}%"),
            ]);
            data.push(json!({
                "algo": label, "n": n, "p": p, "c": c, "block": block,
                "measured_words_per_rank": measured_words,
                "model_words_per_rank": model_words,
                "error_pct": err,
            }));
        }
    }
    let text = format!(
        "{}\nStrategies: COnfLUX/COnfCHOX = 2.5D + tournament pivoting + row masking;\n\
         2D rows = static 2D block-cyclic with partial pivoting (MKL, SLATE);\n\
         swap row = 2.5D with explicit swapping, compared against CANDMC's 5N³/(P√M) author model.\n",
        render(
            &["implementation", "N", "P", "c", "measured w/rank", "model w/rank", "err"],
            &rows
        )
    );
    Report {
        id: "table2".into(),
        title: "I/O cost models vs measured volume per implementation".into(),
        json: json!({ "points": data }),
        text,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn table2_models_track_measurement_within_a_small_factor() {
        let r = super::run(&[(256, 16)]);
        for point in r.json["points"].as_array().unwrap() {
            let algo = point["algo"].as_str().unwrap();
            let meas = point["measured_words_per_rank"].as_f64().unwrap();
            let model = point["model_words_per_rank"].as_f64().unwrap();
            // The CANDMC author-model row intentionally overapproximates the
            // swap ablation (the paper reports 30-40% too); executable
            // schedules must track their models within a small factor at
            // simulation scale (second-order terms are proportionally larger
            // here than at the paper's N).
            let band = if algo.contains("CANDMC") { 8.0 } else { 3.0 };
            let ratio = meas / model;
            assert!(
                ratio < band && ratio > 1.0 / band,
                "{algo}: measured/model = {ratio}"
            );
        }
    }
}
