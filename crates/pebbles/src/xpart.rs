//! X-partitions, dominator sets and minimum sets (paper §2.3.2–§2.3.3).
//!
//! An X-partition splits the cDAG's vertices into subcomputations with no
//! cyclic dependencies between them such that every subcomputation `H` has
//! `|Dom_min(H)| ≤ X` and `|Min(H)| ≤ X`. Finding *minimum* dominator sets
//! is hard in general; for validity checking we use the canonical dominator
//! set (frontier of `H`: external vertices with edges into `H` plus input
//! vertices inside `H`), which is always a legal dominator set, so a
//! partition passing the check is a valid X-partition. (The lower-bound
//! pipeline in `crate::optimize` bounds `|Dom_min|` analytically via
//! Lemma 3 instead.)

use crate::cdag::{Cdag, NodeId};
use std::collections::HashSet;

/// The canonical dominator set of `H`: every path from a graph input to a
/// vertex of `H` must pass through it. Consists of
/// * vertices of `H` that are graph inputs, and
/// * vertices *outside* `H` with an edge into `H`.
pub fn frontier_dominator(g: &Cdag, h: &[NodeId]) -> HashSet<NodeId> {
    let hset: HashSet<NodeId> = h.iter().copied().collect();
    let mut dom = HashSet::new();
    for &v in h {
        if g.preds[v].is_empty() {
            dom.insert(v);
        }
        for &p in &g.preds[v] {
            if !hset.contains(&p) {
                dom.insert(p);
            }
        }
    }
    dom
}

/// The minimum set `Min(H)`: vertices of `H` without an immediate
/// successor inside `H` (the outputs of the subcomputation).
pub fn min_set(g: &Cdag, h: &[NodeId]) -> HashSet<NodeId> {
    let hset: HashSet<NodeId> = h.iter().copied().collect();
    h.iter()
        .copied()
        .filter(|&v| g.succs[v].iter().all(|s| !hset.contains(s)))
        .collect()
}

/// Check that `parts` is a valid X-partition of `g`:
/// * the parts are disjoint and cover all vertices,
/// * the quotient graph over parts is acyclic,
/// * every part's canonical dominator set and minimum set have size ≤ `x`.
///
/// # Errors
/// A description of the first violated property.
pub fn check_x_partition(g: &Cdag, parts: &[Vec<NodeId>], x: usize) -> Result<(), String> {
    // Coverage and disjointness.
    let mut owner = vec![usize::MAX; g.len()];
    for (pi, part) in parts.iter().enumerate() {
        for &v in part {
            if v >= g.len() {
                return Err(format!("part {pi}: vertex {v} out of range"));
            }
            if owner[v] != usize::MAX {
                return Err(format!("vertex {v} in parts {} and {pi}", owner[v]));
            }
            owner[v] = pi;
        }
    }
    if let Some(v) = owner.iter().position(|&o| o == usize::MAX) {
        return Err(format!("vertex {v} not covered by any part"));
    }

    // Acyclicity of the quotient graph (Kahn's algorithm over parts).
    let np = parts.len();
    let mut edges: HashSet<(usize, usize)> = HashSet::new();
    for v in 0..g.len() {
        for &s in &g.succs[v] {
            let (a, b) = (owner[v], owner[s]);
            if a != b {
                edges.insert((a, b));
            }
        }
    }
    let mut indeg = vec![0usize; np];
    for &(_, b) in &edges {
        indeg[b] += 1;
    }
    let mut stack: Vec<usize> = (0..np).filter(|&p| indeg[p] == 0).collect();
    let mut seen = 0;
    while let Some(p) = stack.pop() {
        seen += 1;
        for &(a, b) in &edges {
            if a == p {
                indeg[b] -= 1;
                if indeg[b] == 0 {
                    stack.push(b);
                }
            }
        }
    }
    if seen != np {
        return Err("cyclic dependency between subcomputations".into());
    }

    // Set-size constraints.
    for (pi, part) in parts.iter().enumerate() {
        let dom = frontier_dominator(g, part);
        if dom.len() > x {
            return Err(format!("part {pi}: |Dom(H)| = {} > X = {x}", dom.len()));
        }
        let min = min_set(g, part);
        if min.len() > x {
            return Err(format!("part {pi}: |Min(H)| = {} > X = {x}", min.len()));
        }
    }
    Ok(())
}

/// Lemma 2 of Kwasniewski et al. (quoted as §2.3.3): an I/O-optimal
/// schedule with cost `Q` has an X-partition of size
/// `≤ (Q + X − M)/(X − M)`. This helper evaluates that size bound.
#[cfg(test)]
fn xpartition_size_bound(q: usize, x: usize, m: usize) -> f64 {
    assert!(x > m, "X must exceed M");
    (q + x - m) as f64 / (x - m) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdag::{lu_cdag, mmm_cdag};

    #[test]
    fn frontier_dominator_of_whole_graph_is_inputs() {
        let g = lu_cdag(4);
        let all: Vec<NodeId> = (0..g.len()).collect();
        let dom = frontier_dominator(&g, &all);
        let inputs: HashSet<NodeId> = g.inputs().into_iter().collect();
        assert_eq!(dom, inputs);
    }

    #[test]
    fn min_set_of_whole_graph_is_outputs() {
        let g = lu_cdag(4);
        let all: Vec<NodeId> = (0..g.len()).collect();
        let min = min_set(&g, &all);
        let outputs: HashSet<NodeId> = g.outputs().into_iter().collect();
        assert_eq!(min, outputs);
    }

    #[test]
    fn trivial_partition_is_valid_for_large_x() {
        let g = mmm_cdag(3);
        let all: Vec<NodeId> = (0..g.len()).collect();
        assert!(check_x_partition(&g, &[all], g.len()).is_ok());
    }

    #[test]
    fn per_vertex_partition_is_valid() {
        // Each vertex alone: dominators are its preds (≤ 3), min is itself.
        let g = mmm_cdag(2);
        let parts: Vec<Vec<NodeId>> = (0..g.len()).map(|v| vec![v]).collect();
        assert!(check_x_partition(&g, &parts, 3).is_ok());
        assert!(
            check_x_partition(&g, &parts, 2).is_err(),
            "X=2 < in-degree 3"
        );
    }

    #[test]
    fn missing_vertex_is_rejected() {
        let g = mmm_cdag(2);
        let mut all: Vec<NodeId> = (0..g.len()).collect();
        all.pop();
        assert!(check_x_partition(&g, &[all], g.len())
            .unwrap_err()
            .contains("not covered"));
    }

    #[test]
    fn duplicate_vertex_is_rejected() {
        let g = mmm_cdag(2);
        let all: Vec<NodeId> = (0..g.len()).collect();
        let dup = vec![0];
        assert!(check_x_partition(&g, &[all, dup], g.len()).is_err());
    }

    #[test]
    fn cyclic_quotient_is_rejected() {
        // Chain a -> b -> c; parts {a, c} and {b} form a 2-cycle.
        let mut b = crate::cdag::Builder::new();
        b.compute(("b", &[0]), &[("a", &[0])]);
        b.compute(("c", &[0]), &[("b", &[0])]);
        let g = b.build();
        let a = g.inputs()[0];
        let cv = g.compute_vertices();
        let err = check_x_partition(&g, &[vec![a, cv[1]], vec![cv[0]]], 10).unwrap_err();
        assert!(err.contains("cyclic"), "{err}");
    }

    #[test]
    fn size_bound_matches_lemma() {
        // Q = 100, X = 20, M = 10: at most 11 subcomputations needed.
        assert!((xpartition_size_bound(100, 20, 10) - 11.0).abs() < 1e-12);
    }
}
