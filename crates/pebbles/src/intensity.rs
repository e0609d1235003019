//! Computational intensity (paper §2.3.4) and the out-degree-one bound
//! (Lemma 6).
//!
//! The computational intensity `ρ` of a subcomputation is the ratio of
//! vertices computed to I/O performed; `Q ≥ |V|/ρ_max` (Lemma 1). Lemma 6
//! bounds `ρ` for cDAGs where every compute vertex consumes at least `u`
//! single-use inputs: `ρ ≤ 1/u`. LU's and Cholesky's division statements
//! have exactly this shape (each consumes the previous version of its own
//! output element, which is referenced nowhere else), giving `ρ_S1, ρ_S2 ≤ 1`.

use crate::cdag::Cdag;

/// Computational intensity of a subcomputation: vertices computed per I/O,
/// as bounded by its dominator-set size: `ρ = |H| / (X − M)` (Lemma 1's
/// per-subcomputation form).
fn intensity(h_size: usize, x: usize, m: usize) -> f64 {
    assert!(x > m, "X must exceed M");
    h_size as f64 / (x - m) as f64
}

/// Lemma 6: the minimum, over all compute vertices, of the number of
/// predecessors that are graph inputs with out-degree one. If the result is
/// `u ≥ 1`, the whole cDAG's computational intensity is at most `1/u`.
fn min_single_use_inputs(g: &Cdag) -> usize {
    g.compute_vertices()
        .into_iter()
        .map(|v| {
            g.preds[v]
                .iter()
                .filter(|&&p| g.preds[p].is_empty() && g.out_degree(p) == 1)
                .count()
        })
        .min()
        .unwrap_or(0)
}

/// The Lemma 6 intensity bound: `Some(1/u)` when every compute vertex has
/// `u ≥ 1` single-use input predecessors, `None` when the lemma does not
/// apply (`u = 0`).
fn lemma6_intensity_bound(g: &Cdag) -> Option<f64> {
    match min_single_use_inputs(g) {
        0 => None,
        u => Some(1.0 / u as f64),
    }
}

/// Lemma 1: `Q ≥ |V_compute| / ρ`.
fn io_from_intensity(n_compute: usize, rho: f64) -> f64 {
    n_compute as f64 / rho
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdag::Builder;

    /// Figure 5a: C[i,j] = f(A[i,j], b[j]) — each compute vertex has one
    /// single-use input (A[i,j]) and one shared input (b[j]), so u = 1.
    fn figure5a(n: usize) -> Cdag {
        let mut bld = Builder::new();
        for i in 0..n {
            for j in 0..n {
                bld.compute(("C", &[i, j]), &[("A", &[i, j]), ("b", &[j])]);
            }
        }
        bld.build()
    }

    /// Figure 5b: C[i,j] = f(a[i]·b[j]) — modelled as c[i,j] consuming
    /// fresh single-use inputs a'[i,j], b'[i,j] (the figure's point is two
    /// out-degree-1 inputs per compute vertex, u = 2).
    fn figure5b(n: usize) -> Cdag {
        let mut bld = Builder::new();
        for i in 0..n {
            for j in 0..n {
                bld.compute(
                    ("C", &[i, j]),
                    &[("a", &[i, j * 2]), ("b", &[i, j * 2 + 1])],
                );
            }
        }
        bld.build()
    }

    #[test]
    fn figure5a_has_u1() {
        let g = figure5a(4);
        assert_eq!(min_single_use_inputs(&g), 1);
        assert_eq!(lemma6_intensity_bound(&g), Some(1.0));
        // Q ≥ n (at least one load per compute vertex).
        assert!(io_from_intensity(16, 1.0) >= 16.0);
    }

    #[test]
    fn figure5b_has_u2() {
        let g = figure5b(3);
        assert_eq!(min_single_use_inputs(&g), 2);
        assert_eq!(lemma6_intensity_bound(&g), Some(0.5));
    }

    #[test]
    fn lu_s1_vertices_have_single_use_inputs() {
        // In the full LU cDAG u = 0 globally (S2 vertices reuse everything),
        // but the isolated S1 statement has u = 1: each division consumes
        // the previous version of A[i,k] which nothing else reads.
        let mut bld = Builder::new();
        let n = 4;
        let k = 0;
        for i in k + 1..n {
            bld.compute(("A", &[i, k]), &[("A", &[i, k]), ("A", &[k, k])]);
        }
        let g = bld.build();
        assert_eq!(min_single_use_inputs(&g), 1, "ρ_S1 ≤ 1 as in §6.1");
    }

    #[test]
    fn intensity_is_h_over_surplus() {
        assert!((intensity(300, 30, 10) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn mmm_lemma6_does_not_apply() {
        // Every MMM input has high out-degree; Lemma 6 gives nothing,
        // which is why the X-partition machinery is needed there.
        let g = crate::cdag::mmm_cdag(3);
        assert_eq!(lemma6_intensity_bound(&g), None);
    }
}
