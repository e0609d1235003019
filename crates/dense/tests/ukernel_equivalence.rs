//! Property tests pinning the microkernel variant family to the scalar
//! reference:
//!
//! * every *exact* variant (scalar and non-FMA AVX2) available on this CPU
//!   must add into `C` **bitwise** what the reference microkernel followed
//!   by the scalar `c += α·acc` adds — for `α ∈ {1, −1, 1.5}`, adjacent and
//!   row-mapped rows of `C`, full tiles (written by the microkernel itself)
//!   and edge tiles (clipped from a scratch tile), including the degenerate
//!   depths `kc ∈ {0, 1}` and depths around the unroll boundaries — and must
//!   touch nothing else;
//! * FMA variants are allowed to differ — fused multiply-add rounds once
//!   per step where the reference rounds twice, so each accumulation step
//!   carries at most half an ULP of difference; we bound the result by a
//!   forward error linear in `kc` rather than pin bits (which is exactly
//!   why FMA variants are excluded from tuned dispatch by default);
//! * whole-GEMM bitwise equality across exact variants of *different* tile
//!   shapes, on ragged sizes that exercise the MR/NR remainder tiles —
//!   changing the register tiling must not change a single output bit.

use dense::gemm::{gemm, Trans};
use dense::gen::random_matrix;
use dense::tuning::{self, KernelConfig};
use dense::ukernel::{self, Isa, Variant};
use dense::Matrix;
use proptest::prelude::*;

/// Packed panel values with varied magnitudes so rounding differences
/// would actually surface (uniform [0,1) values can hide them).
fn panel(len: usize, seed: u64) -> Vec<f64> {
    let m = random_matrix(1, len.max(1), seed);
    m.data()
        .iter()
        .enumerate()
        .map(|(i, &v)| (v - 0.5) * (1.0 + (i % 7) as f64 * 3.0))
        .take(len)
        .collect()
}

/// Depths clustered on the unroll boundaries (1, 2, 4) and the k=0 edge.
fn depth() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0),
        Just(1),
        Just(2),
        Just(3),
        Just(4),
        Just(5),
        Just(7),
        Just(8),
        1usize..48,
    ]
}

/// Run `v` on the tile of `c` made of rows `rows` (ascending), columns
/// `c0..c0 + nsub`.
#[allow(clippy::too_many_arguments)] // one tile's operands plus where it lands
fn call_on(
    v: &Variant,
    kc: usize,
    pa: &[f64],
    pb: &[f64],
    alpha: f64,
    c: &mut Matrix,
    rows: &[usize],
    c0: usize,
    nsub: usize,
) {
    let ld = c.cols();
    let mut tile: Vec<&mut [f64]> = c
        .data_mut()
        .chunks_exact_mut(ld)
        .enumerate()
        .filter(|(i, _)| rows.contains(i))
        .map(|(_, row)| &mut row[c0..c0 + nsub])
        .collect();
    v.call(kc, pa, pb, alpha, &mut tile);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Every available exact variant's write-back reproduces "reference
    /// microkernel, then scalar `c += α·acc`" bit for bit — at every depth
    /// including 0 and 1, for the three kinds of α the engine sees (1, the
    /// Schur update's −1, anything else), on adjacent and on row-mapped
    /// rows of `C`, for the full tile and for tiles clipped in rows, in
    /// columns and in both — and leaves the rest of `C` alone.
    #[test]
    fn exact_variants_are_bitwise_equal_to_reference(
        kc in depth(),
        seed in 0u64..1000,
    ) {
        for v in ukernel::available_variants().filter(|v| v.exact()) {
            let pa = panel(kc * v.mr, seed);
            let pb = panel(kc * v.nr, seed + 1);
            let acc = ukernel::reference_microkernel(v.mr, v.nr, kc, &pa, &pb);
            let c0 = random_matrix(2 * v.mr + 3, v.nr + 5, seed + 2);
            let adjacent: Vec<usize> = (1..=v.mr).collect();
            let mapped: Vec<usize> = (0..v.mr).map(|r| 2 * r + r / 3).collect();
            for rows in [&adjacent, &mapped] {
                for (msub, nsub) in [(v.mr, v.nr), (v.mr - 1, v.nr), (v.mr, v.nr - 3), (1, 1)] {
                    for alpha in [1.0, -1.0, 1.5] {
                        let mut want = c0.clone();
                        for (r, &i) in rows[..msub].iter().enumerate() {
                            for j in 0..nsub {
                                want[(i, 2 + j)] += alpha * acc[r * v.nr + j];
                            }
                        }
                        let mut got = c0.clone();
                        call_on(v, kc, &pa, &pb, alpha, &mut got, &rows[..msub], 2, nsub);
                        for (at, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
                            prop_assert_eq!(
                                x.to_bits(), y.to_bits(),
                                "variant {} kc={} alpha={} tile {}x{} rows {:?}: element {}",
                                v.id, kc, alpha, msub, nsub, &rows[..msub], at
                            );
                        }
                    }
                }
            }
        }
    }

    /// FMA variants stay within a forward error linear in the accumulation
    /// depth. Each fused step replaces two roundings with one, so the
    /// per-element deviation from the reference is bounded by roughly
    /// `kc · ε · Σ|a·b|`; we allow a small constant factor of slack.
    #[test]
    fn fma_variants_are_within_documented_tolerance(
        kc in depth(),
        seed in 0u64..1000,
    ) {
        for v in ukernel::available_variants().filter(|v| v.isa == Isa::Avx2Fma) {
            let pa = panel(kc * v.mr, seed);
            let pb = panel(kc * v.nr, seed + 1);
            let mut c = Matrix::zeros(v.mr, v.nr);
            let rows: Vec<usize> = (0..v.mr).collect();
            call_on(v, kc, &pa, &pb, 1.0, &mut c, &rows, 0, v.nr);
            let acc = c.data();
            let want = ukernel::reference_microkernel(v.mr, v.nr, kc, &pa, &pb);
            for r in 0..v.mr {
                for c in 0..v.nr {
                    let mut mag = 0.0f64;
                    for k in 0..kc {
                        mag += (pa[k * v.mr + r] * pb[k * v.nr + c]).abs();
                    }
                    let tol = 4.0 * (kc as f64 + 1.0) * f64::EPSILON * mag.max(1.0);
                    let got = acc[r * v.nr + c];
                    let exp = want[r * v.nr + c];
                    prop_assert!(
                        (got - exp).abs() <= tol,
                        "variant {} ({},{}) kc={}: {} vs {} (tol {})",
                        v.id, r, c, kc, got, exp, tol
                    );
                }
            }
        }
    }

    /// A full GEMM dispatched through exact variants of different tile
    /// shapes produces bitwise-identical C, on ragged shapes that leave
    /// MR/NR remainder tiles for every shape involved.
    #[test]
    fn gemm_is_bitwise_invariant_across_exact_variants(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed + 1);
        let c0 = random_matrix(m, n, seed + 2);
        let run = |cfg: KernelConfig| {
            let mut c = c0.clone();
            tuning::with_override(cfg, || {
                gemm(Trans::N, Trans::N, 1.5, a.as_ref(), b.as_ref(), -0.5, c.as_mut())
            });
            c
        };
        let baseline = run(tuning::scalar_baseline());
        // One representative per shape, mixing scalar and (if available)
        // AVX2 — blocking held at the baseline so only the register tiling
        // varies.
        for id in [
            "scalar_6x4_u2",
            "scalar_8x8_u4",
            "avx2_4x8_u2_pf0",
            "avx2_6x8_u4_pf4",
            "avx2_8x4_u1_pf0",
        ] {
            let v = ukernel::find(id).expect("grid id");
            if !v.available() {
                continue;
            }
            let cfg = KernelConfig { variant: v, ..tuning::scalar_baseline() };
            let c = run(cfg);
            prop_assert_eq!(
                c.data(), baseline.data(),
                "variant {} changed GEMM bits at m={} n={} k={}", id, m, n, k
            );
        }
    }
}

/// The depths the factorizations actually hand the engine (panel widths
/// ≤ 256) are a single KC block for every permitted `kc ≥ 256`, so GEMM
/// must be bitwise KC-invariant there — the keystone of the "tuning never
/// changes factor bits" contract.
#[test]
fn gemm_with_small_k_is_bitwise_invariant_to_permitted_kc() {
    let (m, n) = (97, 83);
    for k in [1, 63, 160, 256] {
        let a = random_matrix(m, k, 7);
        let b = random_matrix(k, n, 8);
        let c0 = random_matrix(m, n, 9);
        let mut want = None;
        for kc in [256, 384, 512] {
            let cfg = KernelConfig {
                kc,
                ..tuning::default_config()
            };
            let mut c = c0.clone();
            tuning::with_override(cfg, || {
                gemm(
                    Trans::N,
                    Trans::N,
                    1.0,
                    a.as_ref(),
                    b.as_ref(),
                    1.0,
                    c.as_mut(),
                )
            });
            match &want {
                None => want = Some(c),
                Some(w) => assert_eq!(w.data(), c.data(), "kc={kc} changed bits at k={k}"),
            }
        }
    }
}
