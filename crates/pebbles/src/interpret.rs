//! Executing DAAP programs into cDAGs — automatically.
//!
//! Table 3 of the paper lists, as a drawback of pebbling approaches, that
//! there is "no well-established method how to automatically translate code
//! to cDAGs". For the DAAP class this module provides exactly that: a
//! [`LoopNest`] attaches concrete (possibly triangular) bounds to a
//! [`Statement`]'s iteration variables, and [`build_cdag_interleaved`]
//! executes the loop nest, materializing one vertex per element version — so the
//! hand-written builders in [`crate::cdag`] become *test oracles* for the
//! generic path rather than the only way in.

use crate::cdag::{Builder, Cdag};
use crate::daap::{Program, Statement};

/// One end of an iteration range, possibly depending on outer variables.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// A constant (typically 0 or the problem size `n`).
    Const(i64),
    /// `value of outer variable + offset` (e.g. `k+1`, `i+1`).
    VarPlus(usize, i64),
}

impl Bound {
    fn eval(&self, outer: &[i64]) -> i64 {
        match *self {
            Bound::Const(c) => c,
            Bound::VarPlus(v, off) => outer[v] + off,
        }
    }
}

/// Concrete bounds for one statement's loop nest: for each loop variable
/// (outermost first), a half-open range `[lo, hi)` whose ends may reference
/// outer variables by index.
#[derive(Debug, Clone)]
pub struct LoopNest {
    /// Per-variable `[lo, hi)` bounds, outermost first.
    pub ranges: Vec<(Bound, Bound)>,
}

impl LoopNest {
    /// Triangular-friendly constructor.
    pub fn new(ranges: Vec<(Bound, Bound)>) -> Self {
        LoopNest { ranges }
    }
}

/// Execute one statement's loop nest into the builder.
fn run_statement(b: &mut Builder, stmt: &Statement, nest: &LoopNest) {
    assert_eq!(
        nest.ranges.len(),
        stmt.loop_vars.len(),
        "one range per loop variable"
    );
    let var_index = |name: &str| -> usize {
        stmt.loop_vars
            .iter()
            .position(|v| v == name)
            .unwrap_or_else(|| panic!("access variable {name} not a loop variable"))
    };
    // Pre-resolve access variable indices.
    let out_idx: Vec<usize> = stmt.output.index.iter().map(|v| var_index(v)).collect();
    let in_idx: Vec<(String, Vec<usize>)> = stmt
        .inputs
        .iter()
        .map(|a| {
            (
                a.array.clone(),
                a.index.iter().map(|v| var_index(v)).collect(),
            )
        })
        .collect();

    let l = nest.ranges.len();
    let mut vals = vec![0i64; l];
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        b: &mut Builder,
        nest: &LoopNest,
        vals: &mut Vec<i64>,
        depth: usize,
        l: usize,
        out_arr: &str,
        out_idx: &[usize],
        in_idx: &[(String, Vec<usize>)],
    ) {
        if depth == l {
            let out: Vec<usize> = out_idx.iter().map(|&v| vals[v] as usize).collect();
            let ins: Vec<(String, Vec<usize>)> = in_idx
                .iter()
                .map(|(a, ix)| (a.clone(), ix.iter().map(|&v| vals[v] as usize).collect()))
                .collect();
            let ins_ref: Vec<(&str, &[usize])> = ins
                .iter()
                .map(|(a, ix)| (a.as_str(), ix.as_slice()))
                .collect();
            b.compute((out_arr, &out), &ins_ref);
            return;
        }
        let (lo, hi) = nest.ranges[depth];
        let (lo, hi) = (lo.eval(vals), hi.eval(vals));
        for x in lo..hi {
            vals[depth] = x;
            recurse(b, nest, vals, depth + 1, l, out_arr, out_idx, in_idx);
        }
    }
    recurse(
        b,
        nest,
        &mut vals,
        0,
        l,
        &stmt.output.array,
        &out_idx,
        &in_idx,
    );
}

/// Execute a whole program: statements run in program order for each value
/// of the shared outermost variable when `fused` nests are given per
/// statement. For the factorizations the statement nests share the
/// outermost `k` loop; this executor (like the paper's Listing 1) simply
/// interleaves by running, for each statement, its full nest — correct for
/// programs whose statements' dependencies are honored by program order
/// within each outer iteration.
///
/// `nests[i]` supplies statement `i`'s bounds. For interleaved outer loops
/// use [`build_cdag_interleaved`].
#[cfg(test)]
fn build_cdag(prog: &Program, nests: &[LoopNest]) -> Cdag {
    assert_eq!(prog.statements.len(), nests.len());
    let mut b = Builder::new();
    for (stmt, nest) in prog.statements.iter().zip(nests) {
        run_statement(&mut b, stmt, nest);
    }
    b.build()
}

/// Execute a program whose statements share the outermost loop variable
/// (the factorization shape: `for k { S1; S2; S3 }`): for each value of the
/// outer variable in `[0, outer_n)`, every statement runs its *inner* nest
/// (its remaining variables), in program order.
///
/// `inner_nests[i]` supplies statement `i`'s bounds for variables `1..`;
/// outer-variable references use index 0 as usual.
pub fn build_cdag_interleaved(prog: &Program, outer_n: usize, inner_nests: &[LoopNest]) -> Cdag {
    assert_eq!(prog.statements.len(), inner_nests.len());
    let mut b = Builder::new();
    for k in 0..outer_n as i64 {
        for (stmt, inner) in prog.statements.iter().zip(inner_nests) {
            // Prefix the fixed outer value.
            let mut ranges = vec![(Bound::Const(k), Bound::Const(k + 1))];
            ranges.extend(inner.ranges.iter().copied());
            run_statement(&mut b, stmt, &LoopNest::new(ranges));
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdag::{cholesky_cdag, lu_cdag, mmm_cdag};
    use crate::daap::{cholesky_program, lu_program, mmm_program};

    fn same_graph(a: &Cdag, b: &Cdag) -> bool {
        if a.len() != b.len() {
            return false;
        }
        // Labels are (array, indices, version) — a canonical identity; map
        // label -> preds' labels and compare as sets.
        use std::collections::{BTreeSet, HashMap};
        type Label = (String, Vec<usize>, usize);
        let sig = |g: &Cdag| -> HashMap<Label, BTreeSet<Label>> {
            (0..g.len())
                .map(|v| {
                    (
                        g.labels[v].clone(),
                        g.preds[v].iter().map(|&p| g.labels[p].clone()).collect(),
                    )
                })
                .collect()
        };
        sig(a) == sig(b)
    }

    #[test]
    fn generic_executor_reproduces_mmm() {
        let n = 4i64;
        let nest = LoopNest::new(vec![
            (Bound::Const(0), Bound::Const(n)),
            (Bound::Const(0), Bound::Const(n)),
            (Bound::Const(0), Bound::Const(n)),
        ]);
        let g = build_cdag(&mmm_program(), &[nest]);
        assert!(same_graph(&g, &mmm_cdag(n as usize)));
    }

    #[test]
    fn generic_executor_reproduces_lu() {
        let n = 5i64;
        // for k: S1 over i in (k, n); S2 over i in (k, n), j in (k, n).
        let s1 = LoopNest::new(vec![(Bound::VarPlus(0, 1), Bound::Const(n))]);
        let s2 = LoopNest::new(vec![
            (Bound::VarPlus(0, 1), Bound::Const(n)),
            (Bound::VarPlus(0, 1), Bound::Const(n)),
        ]);
        let g = build_cdag_interleaved(&lu_program(), n as usize, &[s1, s2]);
        assert!(same_graph(&g, &lu_cdag(n as usize)));
    }

    #[test]
    fn generic_executor_reproduces_cholesky() {
        let n = 5i64;
        // Listing 1: S1 (no inner vars); S2 over i in (k, n);
        // S3 over i in (k, n), j in (k, i].
        let s1 = LoopNest::new(vec![]);
        let s2 = LoopNest::new(vec![(Bound::VarPlus(0, 1), Bound::Const(n))]);
        let s3 = LoopNest::new(vec![
            (Bound::VarPlus(0, 1), Bound::Const(n)),
            (Bound::VarPlus(0, 1), Bound::VarPlus(1, 1)),
        ]);
        let g = build_cdag_interleaved(&cholesky_program(), n as usize, &[s1, s2, s3]);
        assert!(same_graph(&g, &cholesky_cdag(n as usize)));
    }

    #[test]
    fn triangular_bounds_evaluate_against_outer_vars() {
        // Σ over i in [0,4), j in [0, i): 0+1+2+3 = 6 compute vertices.
        use crate::daap::{AccessFn, Statement};
        let stmt = Statement {
            name: "S".into(),
            loop_vars: vec!["i".into(), "j".into()],
            output: AccessFn::new("C", &["i", "j"]),
            inputs: vec![AccessFn::new("A", &["i", "j"])],
        };
        let nest = LoopNest::new(vec![
            (Bound::Const(0), Bound::Const(4)),
            (Bound::Const(0), Bound::VarPlus(0, 0)),
        ]);
        let g = build_cdag(
            &Program {
                statements: vec![stmt],
            },
            &[nest],
        );
        assert_eq!(g.compute_vertices().len(), 6);
    }
}
