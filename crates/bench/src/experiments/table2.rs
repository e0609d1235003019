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

use crate::experiments::Report;
use crate::runner::{run_algo, used_memory_words, Algo, Workload};
use crate::table::render;
use factor::models::MachineParams;
use serde_json::json;
use xtrace::Machine;

/// Regenerate Table 2 over a sweep of `(n, p)` points.
pub fn run(points: &[(usize, usize)]) -> Report {
    let mach = Machine::piz_daint();
    let algos = [
        Algo::Conflux,
        Algo::Confchox,
        Algo::TwodLu,
        Algo::TwodChol,
        Algo::SwapLu,
    ];
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for &(n, p) in points {
        let w = Workload::new(n, 1000 + n as u64);
        for algo in algos {
            let m = run_algo(algo, n, p, &w, &mach);
            // Model evaluated at the memory the run actually used.
            let mem = used_memory_words(n, p, m.c);
            let model_words = algo.model_words(MachineParams::with_memory(n, p, mem), m.block);
            // Measured "words transferred per rank": (sent+received)/2 / 8.
            let measured_words = m.bytes_per_rank / 16.0;
            let err = 100.0 * (measured_words - model_words) / model_words;
            rows.push(vec![
                algo.label().to_string(),
                format!("{n}"),
                format!("{p}"),
                format!("{}", m.c),
                format!("{measured_words:.0}"),
                format!("{model_words:.0}"),
                format!("{err:+.0}%"),
            ]);
            data.push(json!({
                "algo": algo.label(), "n": n, "p": p, "c": m.c, "block": m.block,
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
