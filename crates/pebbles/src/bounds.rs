//! The paper's concrete parallel I/O lower bounds (§6), both as closed
//! forms and re-derived through the generic optimization pipeline.
//!
//! * LU (§6.1): `Q ≥ (2N³ − 6N² + 4N)/(3P√M) + N(N−1)/(2P)`
//! * Cholesky (§6.2): `Q ≥ N³/(3P√M) + N²/(2P) + N/P` (leading terms)
//! * Matrix multiplication (Kwasniewski et al.): `Q ≥ 2N³/(P√M)`
//!
//! The parallel bounds follow from the sequential ones via Lemma 9: the
//! computational intensity is a property of the cDAG and `M` alone, so at
//! least one of `P` processors computes `|V|/P` vertices and performs
//! `|V|/(P·ρ)` I/O.

use crate::optimize::{find_x0, maximize_h, Accesses};

/// Parallel LU I/O lower bound (paper §6.1), in words per (busiest) rank.
///
/// `Q₁ = |V₁|/ρ₁ = N(N−1)/2` with `ρ₁ ≤ 1` (Lemma 6 on statement S1), and
/// `Q₂ = |V₂|/ρ₂` with `|V₂| = N(N−1)(N−2)/3`, `ρ₂ ≤ √M/2` (Lemma 3 + KKT).
pub fn lu_io_lower_bound(n: usize, p: usize, m: f64) -> f64 {
    let nf = n as f64;
    let pf = p as f64;
    let v2 = nf * (nf - 1.0) * (nf - 2.0) / 3.0;
    let v1 = nf * (nf - 1.0) / 2.0;
    2.0 * v2 / (pf * m.sqrt()) + v1 / pf
}

/// Parallel Cholesky I/O lower bound (paper §6.2), in words per rank.
pub fn cholesky_io_lower_bound(n: usize, p: usize, m: f64) -> f64 {
    let nf = n as f64;
    let pf = p as f64;
    let v3 = nf * (nf - 1.0) * (nf - 2.0) / 6.0;
    let v2 = nf * (nf - 1.0) / 2.0;
    let v1 = nf;
    2.0 * v3 / (pf * m.sqrt()) + v2 / pf + v1 / pf
}

/// Parallel matrix-multiplication I/O lower bound: `2N³/(P√M)` (the SC'19
/// X-partitioning result the paper builds on).
pub fn mmm_io_lower_bound(n: usize, p: usize, m: f64) -> f64 {
    let nf = n as f64;
    2.0 * nf * nf * nf / (p as f64 * m.sqrt())
}

/// Derive the Schur-statement intensity bound `ρ ≤ √M/2` *numerically*
/// through the generic pipeline (the access structure of LU's S2 /
/// Cholesky's S3 / MMM), returning `(X₀, ρ(X₀))`.
///
/// Used by tests to confirm the generic machinery reproduces the paper's
/// hand-derived constants.
pub fn schur_statement_rho(m: f64) -> (f64, f64) {
    // Accesses over (k, i, j): A[i,j], A[i,k], A[k,j].
    let acc: Accesses = vec![vec![1, 2], vec![1, 0], vec![0, 2]];
    let chi = |x: f64| maximize_h(&acc, 3, x).1;
    find_x0(&chi, m, 64.0 * m + 1024.0)
}

/// Input reuse (Lemma 7): the combined bound for statements `S` and `T`
/// sharing input array `Aᵢ` is `Q_S + Q_T − Reuse(Aᵢ)` with
/// `Reuse(Aᵢ) = min(|Aᵢ(R_S)|, |Aᵢ(R_T)|)`.
#[cfg(test)]
fn input_reuse_bound(q_s: f64, q_t: f64, reuse: f64) -> f64 {
    (q_s + q_t - reuse).max(q_s.max(q_t))
}

/// Output reuse (Lemma 8): the dominator size of a consumed set of size
/// `b` produced by a statement of intensity `ρ_s` is at least `b/ρ_s` —
/// i.e. cheap-to-recompute producers cannot shrink the consumer's
/// dominator below this.
#[cfg(test)]
fn output_reuse_dominator(b: f64, rho_s: f64) -> f64 {
    b / rho_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdag::{cholesky_cdag, lu_cdag, mmm_cdag};
    use crate::game::{greedy_schedule, verify};

    #[test]
    fn closed_forms_match_paper_constants() {
        let (n, p) = (1 << 14, 64);
        let m = 1e6;
        let lu = lu_io_lower_bound(n, p, m);
        let lead = 2.0 * (n as f64).powi(3) / (3.0 * p as f64 * m.sqrt());
        // The N²/(2P) term contributes √M·3/(4N) ≈ 4.6% here.
        assert!((lu - lead).abs() / lead < 0.06, "LU leading term");
        let ch = cholesky_io_lower_bound(n, p, m);
        let lead_ch = (n as f64).powi(3) / (3.0 * p as f64 * m.sqrt());
        assert!(
            (ch - lead_ch).abs() / lead_ch < 0.12,
            "Cholesky leading term"
        );
        assert!((lu / ch - 2.0).abs() < 0.1, "LU bound is 2× Cholesky's");
    }

    #[test]
    fn generic_pipeline_reproduces_sqrt_m_over_2() {
        for &m in &[128.0, 512.0, 2048.0] {
            let (x0, rho) = schur_statement_rho(m);
            assert!((x0 - 3.0 * m).abs() / (3.0 * m) < 0.05, "X0={x0} for m={m}");
            let expect = m.sqrt() / 2.0;
            assert!((rho - expect).abs() / expect < 0.05, "ρ={rho} for m={m}");
        }
    }

    /// The sandwich test: greedy pebbling (a valid schedule → upper bound)
    /// must cost at least the lower bound, for every kernel and memory size
    /// we can afford to enumerate.
    #[test]
    fn greedy_upper_bound_dominates_lower_bound() {
        for m in [6usize, 8, 16] {
            let mf = m as f64;
            for (name, g, lb) in [
                ("lu", lu_cdag(8), lu_io_lower_bound(8, 1, mf)),
                ("chol", cholesky_cdag(8), cholesky_io_lower_bound(8, 1, mf)),
                ("mmm", mmm_cdag(4), mmm_io_lower_bound(4, 1, mf)),
            ] {
                let moves = greedy_schedule(&g, m);
                let q = verify(&g, &moves, m).unwrap().q as f64;
                assert!(q >= lb, "{name} M={m}: greedy Q={q} below lower bound {lb}");
            }
        }
    }

    #[test]
    fn bounds_scale_correctly_with_p_and_m() {
        let base = lu_io_lower_bound(4096, 16, 1e4);
        assert!((lu_io_lower_bound(4096, 32, 1e4) - base / 2.0).abs() / base < 0.01);
        // 4× memory halves the leading term.
        let quarter = lu_io_lower_bound(4096, 16, 4e4);
        let lead = 2.0 * 4096.0_f64.powi(3) / (3.0 * 16.0 * 100.0);
        let lead4 = lead / 2.0;
        assert!((quarter - base) < 0.0 && (quarter - lead4).abs() / lead4 < 0.2);
    }

    #[test]
    fn reuse_lemmas_behave() {
        // Lemma 7 never drops below the larger individual bound.
        assert_eq!(input_reuse_bound(100.0, 50.0, 80.0), 100.0);
        assert_eq!(input_reuse_bound(100.0, 90.0, 30.0), 160.0);
        // Lemma 8: intensity 1 ⇒ dominator at least the set size (the LU
        // §6.1 argument that output reuse does not change |A₂(D)|).
        assert_eq!(output_reuse_dominator(64.0, 1.0), 64.0);
        assert!(output_reuse_dominator(64.0, 4.0) < 64.0);
    }
}
