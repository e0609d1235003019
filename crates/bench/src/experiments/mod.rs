//! One sub-module per paper table/figure; each produces a [`Report`]
//! (human-readable text + machine-readable JSON) that `all_experiments`
//! emits; the `kernels` / `comm` / `transport` reports are produced and
//! saved by the matching `ablate` plan cells.

pub mod ablations;
pub mod bounds_report;
pub(crate) mod comm;
pub mod fig1;
pub mod fig8;
pub mod fig9;
pub mod generality;
pub(crate) mod kernels;
pub mod table1;
pub mod table2;
pub(crate) mod transport;

use serde_json::Value;
use std::io::Write;
use std::path::Path;

/// A regenerated experiment: terminal text plus raw data.
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
        if let Err(e) = self.save(Path::new("results")) {
            eprintln!("(could not save results/{}.json: {e})", self.id);
        }
    }

    /// Write `<dir>/<id>.json`.
    pub(crate) fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::File::create(dir.join(format!("{}.json", self.id)))?;
        writeln!(f, "{}", serde_json::to_string_pretty(&self.json)?)?;
        Ok(())
    }
}
