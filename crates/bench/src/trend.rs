//! Cross-commit performance trajectory and the regression gate.
//!
//! The trajectory of a KPI is its time-ordered series of registry rows for
//! one `(plan_hash, cell, kpi)`. `bench ablate check` compares a fresh run
//! against that trajectory: the **baseline** is the median of the most
//! recent recorded values from *other* commits (median so one outlier
//! nightly cannot move the gate; other commits so re-running at HEAD never
//! compares a run against itself). Absolute `min`/`max` tolerances apply
//! even on an empty registry; relative tolerances need history and are
//! skipped — never failed — without it.

use crate::plan::{AblationPlan, Tolerance};
use crate::registry::RegRow;
use crate::table::render;
use std::collections::BTreeMap;

/// How many trailing points form the baseline median.
const BASELINE_WINDOW: usize = 5;

/// One point of a KPI's trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Run time (unix seconds).
    pub unix: u64,
    /// Producing commit.
    pub commit: String,
    /// KPI value.
    pub value: f64,
}

/// The time-ordered trajectory of `(plan_hash, cell, kpi)`.
pub fn series(rows: &[RegRow], plan_hash: &str, cell: &str, kpi: &str) -> Vec<TrendPoint> {
    let mut pts: Vec<TrendPoint> = rows
        .iter()
        .filter(|r| r.plan_hash == plan_hash && r.cell == cell && r.kpi == kpi)
        .map(|r| TrendPoint {
            unix: r.unix,
            commit: r.commit.clone(),
            value: r.value,
        })
        .collect();
    pts.sort_by_key(|p| p.unix);
    pts
}

/// Baseline for a fresh run at `current_commit`: the median of the last
/// `BASELINE_WINDOW` (5) points recorded by other commits. `None` on an
/// empty trajectory (or one written entirely by the current commit) —
/// relative checks are then skipped.
pub fn baseline(points: &[TrendPoint], current_commit: &str) -> Option<f64> {
    let mut vals: Vec<f64> = points
        .iter()
        .filter(|p| p.commit != current_commit)
        .map(|p| p.value)
        .collect();
    if vals.is_empty() {
        return None;
    }
    let tail = vals.split_off(vals.len().saturating_sub(BASELINE_WINDOW));
    let mut tail = tail;
    tail.sort_by(|a, b| a.partial_cmp(b).expect("KPI values are finite"));
    let mid = tail.len() / 2;
    Some(if tail.len() % 2 == 1 {
        tail[mid]
    } else {
        (tail[mid - 1] + tail[mid]) / 2.0
    })
}

/// Which declared tolerance a value breached.
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
    /// Value dropped more than `rel_drop` below the trend baseline.
    DropVsTrend {
        /// The trajectory baseline.
        baseline: f64,
        /// The declared max fractional drop.
        rel_drop: f64,
    },
    /// Value rose more than `rel_rise` above the trend baseline.
    RiseVsTrend {
        /// The trajectory baseline.
        baseline: f64,
        /// The declared max fractional rise.
        rel_rise: f64,
    },
}

impl BreachKind {
    /// The breached tolerance, human-named.
    pub fn describe(&self) -> String {
        match *self {
            BreachKind::BelowMin { min } => format!("min = {min}"),
            BreachKind::AboveMax { max } => format!("max = {max}"),
            BreachKind::DropVsTrend { baseline, rel_drop } => {
                format!("rel_drop = {rel_drop} (baseline {baseline:.4})")
            }
            BreachKind::RiseVsTrend { baseline, rel_rise } => {
                format!("rel_rise = {rel_rise} (baseline {baseline:.4})")
            }
        }
    }
}

/// One tolerance breach.
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// Cell that regressed.
    pub cell: String,
    /// KPI that breached.
    pub kpi: String,
    /// Measured value.
    pub value: f64,
    /// Which declared tolerance it broke.
    pub kind: BreachKind,
}

/// The typed result of `bench ablate check`.
#[derive(Debug, Clone, Default)]
pub struct RegressionReport {
    /// Plan name.
    pub plan: String,
    /// Plan hash the trajectory was matched on.
    pub plan_hash: String,
    /// The commit under test.
    pub commit: String,
    /// Cells that were evaluated.
    pub cells_checked: usize,
    /// `(cell, kpi)` pairs evaluated against at least one tolerance.
    pub kpis_checked: usize,
    /// `(cell, kpi)` pairs whose relative check was skipped for lack of a
    /// baseline trajectory.
    pub no_baseline: usize,
    /// Every tolerance breach.
    pub breaches: Vec<Breach>,
}

impl RegressionReport {
    /// True when no tolerance was breached.
    pub fn is_clean(&self) -> bool {
        self.breaches.is_empty()
    }

    /// Render the per-KPI report (the text CI prints on failure).
    pub fn render(&self) -> String {
        let mut out = format!(
            "plan {} ({}) @ {}: {} cells, {} KPI checks, {} without baseline\n",
            self.plan,
            self.plan_hash,
            &self.commit[..self.commit.len().min(12)],
            self.cells_checked,
            self.kpis_checked,
            self.no_baseline,
        );
        if self.is_clean() {
            out.push_str("all KPIs within tolerance\n");
            return out;
        }
        out.push_str(&format!("{} tolerance breach(es):\n", self.breaches.len()));
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
        out.push_str(&render(
            &["cell", "kpi", "value", "breached tolerance"],
            &rows,
        ));
        out
    }
}

/// Evaluate one run (cell id → KPI map) against the plan's tolerances and
/// the recorded trajectory.
///
/// Only rows recorded on `current_machine` feed the relative baselines:
/// wall-clock KPIs (kernel GFLOP/s) are not comparable across machines, and
/// the deterministic KPIs lose nothing by the restriction. Pass `""` to
/// disable the filter (useful against synthetic histories in tests).
pub fn check_outcomes(
    plan: &AblationPlan,
    outcomes: &[(String, BTreeMap<String, f64>)],
    rows: &[RegRow],
    current_commit: &str,
    current_machine: &str,
) -> RegressionReport {
    let rows: Vec<RegRow> = rows
        .iter()
        .filter(|r| current_machine.is_empty() || r.machine == current_machine)
        .cloned()
        .collect();
    let plan_hash = plan.hash();
    let mut report = RegressionReport {
        plan: plan.name.clone(),
        plan_hash: plan_hash.clone(),
        commit: current_commit.to_string(),
        cells_checked: outcomes.len(),
        ..RegressionReport::default()
    };
    for (cell, kpis) in outcomes {
        for (kpi, tol) in &plan.tolerances {
            let Some(&value) = kpis.get(kpi) else {
                continue; // KPI not produced by this cell (e.g. ft-only)
            };
            report.kpis_checked += 1;
            check_abs(&mut report, cell, kpi, value, tol);
            if tol.rel_drop.is_none() && tol.rel_rise.is_none() {
                continue;
            }
            let traj = series(&rows, &plan_hash, cell, kpi);
            let Some(base) = baseline(&traj, current_commit) else {
                report.no_baseline += 1;
                continue;
            };
            if let Some(rel_drop) = tol.rel_drop {
                if value < base * (1.0 - rel_drop) {
                    report.breaches.push(Breach {
                        cell: cell.clone(),
                        kpi: kpi.clone(),
                        value,
                        kind: BreachKind::DropVsTrend {
                            baseline: base,
                            rel_drop,
                        },
                    });
                }
            }
            if let Some(rel_rise) = tol.rel_rise {
                if value > base * (1.0 + rel_rise) {
                    report.breaches.push(Breach {
                        cell: cell.clone(),
                        kpi: kpi.clone(),
                        value,
                        kind: BreachKind::RiseVsTrend {
                            baseline: base,
                            rel_rise,
                        },
                    });
                }
            }
        }
    }
    report
}

fn check_abs(report: &mut RegressionReport, cell: &str, kpi: &str, value: f64, tol: &Tolerance) {
    if let Some(min) = tol.min {
        if value < min {
            report.breaches.push(Breach {
                cell: cell.to_string(),
                kpi: kpi.to_string(),
                value,
                kind: BreachKind::BelowMin { min },
            });
        }
    }
    if let Some(max) = tol.max {
        if value > max {
            report.breaches.push(Breach {
                cell: cell.to_string(),
                kpi: kpi.to_string(),
                value,
                kind: BreachKind::AboveMax { max },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(unix: u64, commit: &str, value: f64) -> TrendPoint {
        TrendPoint {
            unix,
            commit: commit.into(),
            value,
        }
    }

    #[test]
    fn baseline_is_none_on_empty_and_self_only_series() {
        assert_eq!(baseline(&[], "me"), None);
        assert_eq!(baseline(&[pt(1, "me", 5.0)], "me"), None);
    }

    #[test]
    fn baseline_of_single_foreign_point_is_that_point() {
        assert_eq!(baseline(&[pt(1, "other", 5.0)], "me"), Some(5.0));
    }

    #[test]
    fn baseline_is_median_of_trailing_window() {
        let pts: Vec<TrendPoint> = (0..10).map(|i| pt(i, "c", i as f64)).collect();
        // Last 5 values are 5..9; median is 7.
        assert_eq!(baseline(&pts, "me"), Some(7.0));
        // Even-sized tail averages the middle pair.
        assert_eq!(baseline(&pts[..4], "me"), Some(1.5));
    }

    #[test]
    fn series_sorts_by_time_and_filters_exactly() {
        let mk = |unix, cell: &str, kpi: &str, v| RegRow {
            timestamp: String::new(),
            unix,
            commit: "c".into(),
            machine: "m".into(),
            plan: "p".into(),
            plan_hash: "h".into(),
            cell: cell.into(),
            kpi: kpi.into(),
            value: v,
        };
        let rows = vec![
            mk(3, "a", "model_gflops", 3.0),
            mk(1, "a", "model_gflops", 1.0),
            mk(2, "b", "model_gflops", 9.0),
            mk(2, "a", "comm_factor", 9.0),
        ];
        let s = series(&rows, "h", "a", "model_gflops");
        assert_eq!(
            s.iter().map(|p| p.value).collect::<Vec<_>>(),
            vec![1.0, 3.0]
        );
    }
}
