//! Disjoint Access Array Programs (paper §2.2).
//!
//! A DAAP is a list of statements, each enclosed in a loop nest:
//!
//! ```text
//! for ψ¹ ∈ D¹, for ψ² ∈ D²(ψ¹), …:
//!     S:  A₀[φ₀(ψ)] ← f(A₁[φ₁(ψ)], …, A_m[φ_m(ψ)])
//! ```
//!
//! Each access-function vector `φⱼ` names, per array dimension, one of the
//! iteration variables. The *access dimension* `dim(Aⱼ(φⱼ))` is the number
//! of **distinct** iteration variables in `φⱼ` — the quantity driving the
//! data-reuse analysis (e.g. `A[k,k]` in LU's S1 has access dimension 1
//! although the array is 2-dimensional).

use std::collections::BTreeSet;

/// An array access: the array's name plus one iteration-variable name per
/// array dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessFn {
    /// Array name.
    pub array: String,
    /// Iteration-variable name addressing each array dimension.
    pub index: Vec<String>,
}

impl AccessFn {
    /// Convenience constructor: `AccessFn::new("A", &["i", "k"])`.
    pub fn new(array: &str, index: &[&str]) -> Self {
        AccessFn {
            array: array.to_string(),
            index: index.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The access dimension: number of distinct iteration variables in the
    /// access-function vector (§2.2).
    pub(crate) fn access_dim(&self) -> usize {
        self.index.iter().collect::<BTreeSet<_>>().len()
    }

    /// The distinct iteration variables, in first-appearance order.
    pub(crate) fn distinct_vars(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for v in &self.index {
            if !seen.contains(&v.as_str()) {
                seen.push(v.as_str());
            }
        }
        seen
    }
}

/// One statement of a DAAP.
#[derive(Debug, Clone)]
pub struct Statement {
    /// Statement label (e.g. `"S2"`).
    pub name: String,
    /// Iteration variables of the enclosing loop nest, outermost first.
    pub loop_vars: Vec<String>,
    /// The output access `A₀[φ₀(ψ)]`.
    pub output: AccessFn,
    /// The input accesses `A₁[φ₁(ψ)] … A_m[φ_m(ψ)]`.
    pub inputs: Vec<AccessFn>,
}

impl Statement {
    /// Loop-nest depth `l`.
    pub(crate) fn depth(&self) -> usize {
        self.loop_vars.len()
    }

    /// Check the *disjoint access* property within this statement: no two
    /// input accesses may reference the same array with access functions
    /// that could alias (we require distinct arrays or provably different
    /// index vectors).
    #[cfg(test)]
    fn check_disjoint(&self) -> bool {
        for (i, a) in self.inputs.iter().enumerate() {
            for b in self.inputs.iter().skip(i + 1) {
                if a.array == b.array && a.index == b.index {
                    return false;
                }
            }
        }
        true
    }
}

/// A whole DAAP: a sequence of statements (data dependencies between them
/// arise from shared arrays, handled by the §4 reuse analysis).
#[derive(Debug, Clone)]
pub struct Program {
    /// The statements, in program order.
    pub statements: Vec<Statement>,
}

/// The LU factorization DAAP of Figure 3 (no pivoting):
///
/// ```text
/// for k, for i > k:           S1: A[i,k] ← A[i,k] / A[k,k]
/// for k, for i > k, j > k:    S2: A[i,j] ← A[i,j] − A[i,k]·A[k,j]
/// ```
pub fn lu_program() -> Program {
    Program {
        statements: vec![
            Statement {
                name: "S1".into(),
                loop_vars: vec!["k".into(), "i".into()],
                output: AccessFn::new("A", &["i", "k"]),
                inputs: vec![
                    AccessFn::new("A", &["i", "k"]),
                    AccessFn::new("A", &["k", "k"]),
                ],
            },
            Statement {
                name: "S2".into(),
                loop_vars: vec!["k".into(), "i".into(), "j".into()],
                output: AccessFn::new("A", &["i", "j"]),
                inputs: vec![
                    AccessFn::new("A", &["i", "j"]),
                    AccessFn::new("A", &["i", "k"]),
                    AccessFn::new("A", &["k", "j"]),
                ],
            },
        ],
    }
}

/// The Cholesky factorization DAAP of Listing 1.
pub fn cholesky_program() -> Program {
    Program {
        statements: vec![
            Statement {
                name: "S1".into(),
                loop_vars: vec!["k".into()],
                output: AccessFn::new("L", &["k", "k"]),
                inputs: vec![AccessFn::new("L", &["k", "k"])],
            },
            Statement {
                name: "S2".into(),
                loop_vars: vec!["k".into(), "i".into()],
                output: AccessFn::new("L", &["i", "k"]),
                inputs: vec![
                    AccessFn::new("L", &["i", "k"]),
                    AccessFn::new("L", &["k", "k"]),
                ],
            },
            Statement {
                name: "S3".into(),
                loop_vars: vec!["k".into(), "i".into(), "j".into()],
                output: AccessFn::new("L", &["i", "j"]),
                inputs: vec![
                    AccessFn::new("L", &["i", "j"]),
                    AccessFn::new("L", &["i", "k"]),
                    AccessFn::new("L", &["j", "k"]),
                ],
            },
        ],
    }
}

/// Classic matrix multiplication `C[i,j] += A[i,k]·B[k,j]` — the motivating
/// kernel for X-partitioning (Kwasniewski et al., SC'19).
#[cfg(test)]
pub(crate) fn mmm_program() -> Program {
    Program {
        statements: vec![Statement {
            name: "S".into(),
            loop_vars: vec!["i".into(), "j".into(), "k".into()],
            output: AccessFn::new("C", &["i", "j"]),
            inputs: vec![
                AccessFn::new("C", &["i", "j"]),
                AccessFn::new("A", &["i", "k"]),
                AccessFn::new("B", &["k", "j"]),
            ],
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_dimension_counts_distinct_variables() {
        // The paper's own example: A[k,k] has array dim 2, access dim 1.
        let a = AccessFn::new("A", &["k", "k"]);
        assert_eq!(a.index.len(), 2);
        assert_eq!(a.access_dim(), 1);
        assert_eq!(AccessFn::new("A", &["i", "k"]).access_dim(), 2);
        assert_eq!(AccessFn::new("T", &["i", "j", "k"]).access_dim(), 3);
    }

    #[test]
    fn lu_program_shape_matches_figure_3() {
        let p = lu_program();
        assert_eq!(p.statements.len(), 2);
        let s1 = &p.statements[0];
        assert_eq!(s1.depth(), 2);
        assert_eq!(s1.inputs[1].access_dim(), 1, "A[k,k] is the reuse source");
        let s2 = &p.statements[1];
        assert_eq!(s2.depth(), 3);
        assert!(s2.inputs.iter().all(|a| a.access_dim() == 2));
        assert!(s1.check_disjoint() && s2.check_disjoint());
    }

    #[test]
    fn cholesky_has_three_statements() {
        let p = cholesky_program();
        assert_eq!(p.statements.len(), 3);
        assert_eq!(p.statements[0].depth(), 1);
        assert_eq!(p.statements[2].depth(), 3);
    }

    #[test]
    fn disjointness_detects_aliasing() {
        let bad = Statement {
            name: "bad".into(),
            loop_vars: vec!["i".into()],
            output: AccessFn::new("A", &["i"]),
            inputs: vec![AccessFn::new("B", &["i"]), AccessFn::new("B", &["i"])],
        };
        assert!(!bad.check_disjoint());
    }

    #[test]
    fn distinct_vars_order_is_stable() {
        let a = AccessFn::new("A", &["k", "i", "k"]);
        assert_eq!(a.distinct_vars(), vec!["k", "i"]);
    }
}
