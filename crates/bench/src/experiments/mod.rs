//! One sub-module per paper table/figure; each produces a [`Report`]
//! (human-readable text + machine-readable JSON) that `all_experiments`
//! emits. The host-clock experiments `kernels`, `comm`, `transport` and
//! `recovery` each measure one fixed shape for the `floors` bin, which
//! emits their `BENCH_*` report and holds their gated numbers to the
//! floors declared beside them.

pub mod ablations;
pub mod bounds_report;
pub mod comm;
pub mod fig1;
pub mod fig8;
pub mod fig9;
pub mod generality;
pub mod kernels;
pub mod recovery;
pub mod table1;
pub mod table2;
pub mod transport;

use crate::ablate::{run_cell, Algo, Cell, CellRun};
use serde_json::Value;
use std::io::Write;

/// A figure's data point: `algo` at `(n, p)` with automatic grid and block,
/// run plain on the figure's own input and priced.
pub(crate) fn measure(algo: Algo, n: usize, p: usize, input_seed: u64) -> CellRun {
    run_cell(&Cell::auto(algo, n, p), input_seed, false).expect("an automatic cell is feasible")
}

/// A regenerated experiment, rendered: terminal text plus raw data.
pub struct Report {
    /// Experiment id (e.g. `"fig8a"`).
    pub id: String,
    /// Paper caption this reproduces.
    pub title: String,
    /// Rendered tables/series for the terminal.
    pub text: String,
    /// Raw data for downstream plotting.
    pub json: Value,
}

impl Report {
    /// Print to stdout and persist the JSON under `results/`.
    pub fn emit(&self) {
        println!("== {} — {} ==\n{}", self.id, self.title, self.text);
        self.save();
    }

    /// Write `results/<id>.json`; a failure is reported, not fatal.
    pub(crate) fn save(&self) {
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all("results")?;
            let mut f = std::fs::File::create(format!("results/{}.json", self.id))?;
            writeln!(f, "{}", serde_json::to_string_pretty(&self.json)?)
        };
        if let Err(e) = write() {
            eprintln!("(could not save results/{}.json: {e})", self.id);
        }
    }
}
