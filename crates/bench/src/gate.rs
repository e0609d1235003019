//! The plan gate behind `ablations check`: every KPI a plan bounds is held
//! to its absolute `min`/`max` on every executed cell that produces it.
//!
//! A bound on a KPI that no executed cell produced fails the gate: a
//! mistyped or stale KPI name must not pass by checking nothing.

use crate::ablate::AblationRun;
use crate::plan::{AblationPlan, Tolerance};
use crate::table::render;

/// Which declared bound a value breached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BreachKind {
    /// Value fell below the absolute `min`.
    BelowMin {
        /// The declared floor.
        min: f64,
    },
    /// Value rose above the absolute `max`.
    AboveMax {
        /// The declared ceiling.
        max: f64,
    },
}

impl BreachKind {
    /// The breached bound, as the plan spells it.
    fn describe(&self) -> String {
        match *self {
            BreachKind::BelowMin { min } => format!("min = {min}"),
            BreachKind::AboveMax { max } => format!("max = {max}"),
        }
    }
}

/// One bound breach.
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// Cell that breached.
    pub cell: String,
    /// KPI that breached.
    pub kpi: String,
    /// Measured value.
    pub value: f64,
    /// Which declared bound it broke.
    pub kind: BreachKind,
}

/// The typed result of `ablations check`.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Plan name.
    pub plan: String,
    /// Cells that were evaluated.
    pub cells_checked: usize,
    /// `(cell, kpi)` pairs held to a bound.
    pub kpis_checked: usize,
    /// Bounded KPIs that no executed cell produced.
    pub unproduced: Vec<String>,
    /// Every bound breach.
    pub breaches: Vec<Breach>,
}

impl GateReport {
    /// True when every bounded KPI was produced and held its bounds.
    pub fn is_clean(&self) -> bool {
        self.breaches.is_empty() && self.unproduced.is_empty()
    }

    /// The per-KPI report (the text CI prints on failure).
    pub fn render(&self) -> String {
        let mut out = format!(
            "plan {}: {} cells, {} KPI checks\n",
            self.plan, self.cells_checked, self.kpis_checked,
        );
        for kpi in &self.unproduced {
            out.push_str(&format!("bound on {kpi}: no executed cell produced it\n"));
        }
        if self.breaches.is_empty() {
            if self.unproduced.is_empty() {
                out.push_str("all KPIs within bounds\n");
            }
            return out;
        }
        out.push_str(&format!("{} bound breach(es):\n", self.breaches.len()));
        let rows: Vec<Vec<String>> = self
            .breaches
            .iter()
            .map(|b| {
                vec![
                    b.cell.clone(),
                    b.kpi.clone(),
                    format!("{:.4}", b.value),
                    b.kind.describe(),
                ]
            })
            .collect();
        out.push_str(&render(&["cell", "kpi", "value", "breached bound"], &rows));
        out
    }
}

/// Hold every executed cell of `run` to `plan`'s bounds.
pub fn check(plan: &AblationPlan, run: &AblationRun) -> GateReport {
    let mut report = GateReport {
        plan: plan.name.clone(),
        cells_checked: run.outcomes.len(),
        ..GateReport::default()
    };
    for (kpi, tol) in &plan.tolerances {
        let mut produced = false;
        for o in &run.outcomes {
            // A KPI only some cells produce (the checksum tax) is held where
            // it exists.
            let Some(&value) = o.kpis.get(kpi) else {
                continue;
            };
            produced = true;
            report.kpis_checked += 1;
            if let Some(kind) = breach(value, tol) {
                report.breaches.push(Breach {
                    cell: o.cell.id(),
                    kpi: kpi.clone(),
                    value,
                    kind,
                });
            }
        }
        if !produced {
            report.unproduced.push(kpi.clone());
        }
    }
    report
}

fn breach(value: f64, tol: &Tolerance) -> Option<BreachKind> {
    match (tol.min, tol.max) {
        (Some(min), _) if value < min => Some(BreachKind::BelowMin { min }),
        (_, Some(max)) if value > max => Some(BreachKind::AboveMax { max }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablate::CellOutcome;
    use crate::plan::{parse_toml, Cell};
    use std::collections::BTreeMap;

    fn plan(tolerances: &str) -> AblationPlan {
        let text =
            format!("name = \"unit\"\nworkload = \"kernels\"\n[axes]\nn = [64]\n{tolerances}");
        AblationPlan::from_value(&parse_toml(&text).unwrap()).unwrap()
    }

    fn run_with(kpis: &[(&str, f64)]) -> AblationRun {
        AblationRun {
            outcomes: vec![CellOutcome {
                cell: Cell::auto("kernels", 64, 1),
                kpis: kpis
                    .iter()
                    .map(|&(k, v)| (k.to_string(), v))
                    .collect::<BTreeMap<_, _>>(),
            }],
            skipped: Vec::new(),
        }
    }

    #[test]
    fn a_value_outside_its_bounds_is_a_breach_that_names_the_bound() {
        let plan = plan("[tolerances.gemm_speedup]\nmin = 2.0\n[tolerances.ratio]\nmax = 1.0\n");
        let report = check(&plan, &run_with(&[("gemm_speedup", 1.5), ("ratio", 3.0)]));
        assert!(!report.is_clean());
        assert_eq!(report.kpis_checked, 2);
        let kinds: Vec<_> = report.breaches.iter().map(|b| b.kind).collect();
        assert_eq!(
            kinds,
            [
                BreachKind::BelowMin { min: 2.0 },
                BreachKind::AboveMax { max: 1.0 }
            ]
        );
        let text = report.render();
        assert!(
            text.contains("gemm_speedup") && text.contains("min = 2"),
            "{text}"
        );
        assert!(text.contains("ratio") && text.contains("max = 1"), "{text}");
    }

    #[test]
    fn values_on_or_inside_their_bounds_are_clean() {
        let plan = plan("[tolerances.gemm_speedup]\nmin = 2.0\nmax = 3.0\n");
        for v in [2.0, 2.5, 3.0] {
            let report = check(&plan, &run_with(&[("gemm_speedup", v)]));
            assert!(report.is_clean(), "{v}: {}", report.render());
        }
    }

    #[test]
    fn a_bound_no_cell_produces_fails_the_gate() {
        let plan = plan("[tolerances.gemm_speedup]\nmin = 2.0\n");
        let report = check(&plan, &run_with(&[("gflops_gemm", 9.0)]));
        assert_eq!(report.unproduced, ["gemm_speedup"]);
        assert!(!report.is_clean());
        assert!(report.render().contains("no executed cell produced it"));
    }
}
