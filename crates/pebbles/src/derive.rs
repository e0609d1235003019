//! The end-to-end derivation pipeline of the paper: from a [`Program`]
//! (DAAP form) to a parallel I/O lower bound, automatically.
//!
//! Per statement (§3): if an input access uses *all* loop variables, every
//! iteration consumes a fresh single-use vertex and Lemma 6 caps the
//! intensity at `ρ ≤ 1/u`; otherwise the access structure goes through the
//! Lemma 3 / KKT optimization to get `χ(X)`, `X₀` and `ρ(X₀)`.
//!
//! Across statements (§4): input reuse (Lemma 7) can only *reduce* the sum
//! of individual bounds, so a sound combined bound subtracts the reuse
//! overlap; output reuse (Lemma 8) cannot reduce a consumer's dominator
//! when every producer has `ρ ≤ 1` — the situation in LU and Cholesky,
//! where recomputation is never cheaper than a load. The pipeline applies
//! exactly these rules and reports which case fired.
//!
//! Parallelization (§5, Lemma 9) divides by `P`: intensity is a property of
//! the cDAG and `M` alone, so some rank computes `|V|/P` vertices at cost
//! `|V|/(P·ρ)`.

use crate::daap::{Program, Statement};
use crate::optimize::{chi, find_x0, Accesses};

/// How a statement's intensity bound was obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RhoBound {
    /// Lemma 6: `u` single-use input accesses per iteration → `ρ ≤ 1/u`.
    SingleUse {
        /// Number of full-dimensional (single-use) input accesses.
        u: usize,
    },
    /// Lemma 3 + KKT: `ρ(X₀)` from the access-structure optimization.
    Kkt {
        /// The optimizing dominator budget.
        x0: f64,
        /// The intensity at `X₀`.
        rho: f64,
    },
}

impl RhoBound {
    /// The numeric intensity bound.
    pub(crate) fn rho(&self) -> f64 {
        match *self {
            RhoBound::SingleUse { u } => 1.0 / u as f64,
            RhoBound::Kkt { rho, .. } => rho,
        }
    }
}

/// Per-statement analysis result.
#[derive(Debug, Clone)]
pub struct StatementBound {
    /// Statement label.
    pub name: String,
    /// How the intensity was bounded.
    pub rho: RhoBound,
    /// Compute-vertex count `|V_S|` supplied by the caller.
    pub n_compute: f64,
    /// Sequential I/O bound `Q_S ≥ |V_S|/ρ`.
    pub q: f64,
}

/// A derived program bound.
#[derive(Debug, Clone)]
pub struct ProgramBound {
    /// Per-statement results in program order.
    pub statements: Vec<StatementBound>,
    /// Combined parallel bound per rank.
    pub q_parallel: f64,
    /// Statements whose bound is kept as-is although a high-intensity
    /// producer feeds them (the paper's treatment: these are the
    /// second-order terms, e.g. LU's `N²/(2P)` from S1, where the trailing
    /// update could in principle recompute the consumed values).
    pub second_order_caveats: Vec<String>,
}

/// Analyze one statement: choose Lemma 6 or the KKT path (§3).
pub fn analyze_statement(stmt: &Statement, n_compute: f64, m: f64) -> StatementBound {
    let l = stmt.depth();
    // Full-dimensional input accesses consume a fresh vertex per iteration.
    let u = stmt.inputs.iter().filter(|a| a.access_dim() == l).count();
    let rho = if u >= 1 {
        RhoBound::SingleUse { u }
    } else {
        // Map loop-variable names to indices and build the access structure.
        let var_idx = |v: &str| -> usize {
            stmt.loop_vars
                .iter()
                .position(|lv| lv == v)
                .unwrap_or_else(|| panic!("access variable {v} not a loop variable"))
        };
        let accesses: Accesses = stmt
            .inputs
            .iter()
            .map(|a| {
                let mut vars: Vec<usize> = a.distinct_vars().iter().map(|v| var_idx(v)).collect();
                vars.sort_unstable();
                vars
            })
            .collect();
        let chi_fn = move |x: f64| chi(&accesses, l, x);
        let (x0, rho) = find_x0(&chi_fn, m, 64.0 * m + 1024.0);
        RhoBound::Kkt { x0, rho }
    };
    StatementBound {
        name: stmt.name.clone(),
        rho,
        n_compute,
        q: n_compute / rho.rho(),
    }
}

/// Derive the parallel I/O lower bound of a whole program (§3–§5).
///
/// `counts[i]` is the number of compute vertices of statement `i` for the
/// problem size of interest. The per-statement bounds are summed, which is
/// sound here because (output reuse, Lemma 8) every producer statement in a
/// factorization has `ρ ≤ 1`, so recomputation can never undercut a
/// consumer's dominator — exactly the argument §6.1 makes for LU.
///
/// # Panics
/// If `counts.len() != program.statements.len()`.
pub fn derive_program_bound(prog: &Program, counts: &[f64], m: f64, p: usize) -> ProgramBound {
    assert_eq!(
        counts.len(),
        prog.statements.len(),
        "one count per statement"
    );
    let statements: Vec<StatementBound> = prog
        .statements
        .iter()
        .zip(counts)
        .map(|(s, &c)| analyze_statement(s, c, m))
        .collect();
    // Lemma 8 precondition check: when a producer with ρ ≤ 1 feeds a
    // consumer, the consumer's bound is exact (recomputation never beats a
    // load). When a *high-intensity* producer feeds a consumer (LU's S2
    // feeding S1's next panel), the paper keeps the consumer's bound as the
    // statement of its final result — it is the second-order term — and we
    // record the caveat rather than weakening the bound differently.
    let mut caveats = Vec::new();
    for (i, s) in prog.statements.iter().enumerate() {
        if statements[i].rho.rho() <= 1.0 + 1e-9 {
            continue;
        }
        let produces = &s.output.array;
        for (j, t) in prog.statements.iter().enumerate() {
            if j != i && t.inputs.iter().any(|a| &a.array == produces) {
                caveats.push(format!(
                    "{} (fed by high-intensity {}): kept per the paper's §6 treatment",
                    t.name, s.name
                ));
            }
        }
    }
    let q_total: f64 = statements.iter().map(|s| s.q).sum();
    ProgramBound {
        statements,
        q_parallel: q_total / p as f64,
        second_order_caveats: caveats,
    }
}

/// Lemma 7 composition: a sound combined bound when statements share input
/// arrays with nontrivial reuse: `Q ≥ Σ Q_i − Σ Reuse(A_j)`, never below
/// the largest individual bound.
#[cfg(test)]
fn combined_with_input_reuse(bounds: &[StatementBound], reuses: &[f64], p: usize) -> f64 {
    let total: f64 = bounds.iter().map(|s| s.q).sum();
    let reuse: f64 = reuses.iter().sum();
    let floor = bounds.iter().map(|s| s.q).fold(0.0, f64::max);
    ((total - reuse).max(floor)) / p as f64
}

/// Compute-vertex counts for the built-in LU program at size `n`
/// (`|V₁| = N(N−1)/2`, `|V₂| = N(N−1)(N−2)/3` — §6.1).
pub fn lu_counts(n: usize) -> Vec<f64> {
    let nf = n as f64;
    vec![nf * (nf - 1.0) / 2.0, nf * (nf - 1.0) * (nf - 2.0) / 3.0]
}

/// Counts for the built-in Cholesky program (`|V₁| = N`,
/// `|V₂| = N(N−1)/2`, `|V₃| = N(N−1)(N−2)/6` — §6.2).
pub fn cholesky_counts(n: usize) -> Vec<f64> {
    let nf = n as f64;
    vec![
        nf,
        nf * (nf - 1.0) / 2.0,
        nf * (nf - 1.0) * (nf - 2.0) / 6.0,
    ]
}

/// Counts for the built-in matrix-multiplication program (`N³`).
#[cfg(test)]
fn mmm_counts(n: usize) -> Vec<f64> {
    vec![(n as f64).powi(3)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{cholesky_io_lower_bound, lu_io_lower_bound, mmm_io_lower_bound};
    use crate::daap::{cholesky_program, lu_program, mmm_program};

    #[test]
    fn lu_statement_classification_matches_section_6_1() {
        let prog = lu_program();
        let m = 1024.0;
        let s1 = analyze_statement(&prog.statements[0], 10.0, m);
        assert_eq!(s1.rho, RhoBound::SingleUse { u: 1 }, "S1 hits Lemma 6");
        let s2 = analyze_statement(&prog.statements[1], 10.0, m);
        match s2.rho {
            RhoBound::Kkt { x0, rho } => {
                assert!((x0 - 3.0 * m).abs() / (3.0 * m) < 0.05, "X₀ = 3M, got {x0}");
                let expect = m.sqrt() / 2.0;
                assert!((rho - expect).abs() / expect < 0.05, "ρ = √M/2, got {rho}");
            }
            other => panic!("S2 must take the KKT path, got {other:?}"),
        }
    }

    #[test]
    fn derived_lu_bound_matches_closed_form() {
        for (n, p, m) in [(4096usize, 64usize, 1e5), (16384, 512, 1e6)] {
            let derived = derive_program_bound(&lu_program(), &lu_counts(n), m, p);
            let closed = lu_io_lower_bound(n, p, m);
            let rel = (derived.q_parallel - closed).abs() / closed;
            assert!(
                rel < 0.02,
                "n={n}: derived {} vs closed {closed}",
                derived.q_parallel
            );
        }
    }

    #[test]
    fn derived_cholesky_bound_matches_closed_form() {
        let (n, p, m) = (8192usize, 128usize, 4e5);
        let derived = derive_program_bound(&cholesky_program(), &cholesky_counts(n), m, p);
        let closed = cholesky_io_lower_bound(n, p, m);
        let rel = (derived.q_parallel - closed).abs() / closed;
        assert!(
            rel < 0.02,
            "derived {} vs closed {closed}",
            derived.q_parallel
        );
    }

    #[test]
    fn derived_mmm_bound_matches_closed_form() {
        let (n, p, m) = (2048usize, 16usize, 65536.0);
        let derived = derive_program_bound(&mmm_program(), &mmm_counts(n), m, p);
        let closed = mmm_io_lower_bound(n, p, m);
        let rel = (derived.q_parallel - closed).abs() / closed;
        assert!(
            rel < 0.05,
            "derived {} vs closed {closed}",
            derived.q_parallel
        );
    }

    #[test]
    fn input_reuse_composition_never_drops_below_max() {
        let b = vec![
            StatementBound {
                name: "S".into(),
                rho: RhoBound::SingleUse { u: 1 },
                n_compute: 100.0,
                q: 100.0,
            },
            StatementBound {
                name: "T".into(),
                rho: RhoBound::SingleUse { u: 1 },
                n_compute: 60.0,
                q: 60.0,
            },
        ];
        // Massive claimed reuse cannot push the bound below max(Q_S, Q_T).
        assert_eq!(combined_with_input_reuse(&b, &[1000.0], 1), 100.0);
        assert_eq!(combined_with_input_reuse(&b, &[20.0], 1), 140.0);
        assert_eq!(combined_with_input_reuse(&b, &[20.0], 2), 70.0);
    }

    #[test]
    #[should_panic(expected = "one count per statement")]
    fn count_mismatch_is_rejected() {
        derive_program_bound(&lu_program(), &[1.0], 100.0, 1);
    }
}
