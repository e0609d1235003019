//! Property tests pinning the three microkernels — the scalar `4×8` every
//! CPU can run, the AVX2 `6×8` and the AVX-512 `6×16` — to the scalar
//! reference. Together they are the cross-machine reproducibility contract:
//! hosts with and without AVX2 or AVX-512 agree to the bit. A level this CPU
//! lacks is skipped with a printed note.
//!
//! * each kernel must add into `C` **bitwise** what the reference
//!   microkernel followed by the scalar `c += α·acc` adds — for
//!   `α ∈ {1, −1, 1.5}`, adjacent and row-mapped rows of `C`, full tiles
//!   (written by the microkernel itself) and edge tiles (clipped from a
//!   scratch tile), including the degenerate depths `kc ∈ {0, 1}` and depths
//!   around the SIMD kernels' two-step k loop — and must touch nothing else;
//! * whole-GEMM bitwise equality between every SIMD tile and the scalar one,
//!   on ragged sizes that exercise the MR/NR remainder tiles of each — the
//!   register tiling must not change a single output bit.

use dense::gemm::{gemm, Trans};
use dense::gen::random_matrix;
use dense::tuning;
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

/// Depths clustered on the k-loop's step boundaries and the k=0 edge.
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

/// The kernels under test: every ISA level this CPU runs, scalar first. A
/// level it lacks is skipped with a note.
fn kernels() -> Vec<&'static Variant> {
    let levels = [Isa::Scalar, Isa::Avx2, Isa::Avx512].into_iter();
    let runnable = levels.filter_map(|isa| {
        let variant = isa.variant();
        if variant.is_none() {
            eprintln!("note: this CPU lacks {isa:?}; its microkernel is not tested");
        }
        variant
    });
    runnable.collect()
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

    /// Each kernel's write-back reproduces "reference
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
        for v in kernels() {
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

    /// A full GEMM dispatched through each SIMD tile produces the scalar
    /// tile's C bit for bit, on ragged shapes that leave MR/NR remainder
    /// tiles for every one.
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
        let run = |variant: &'static Variant| {
            let mut c = c0.clone();
            tuning::with_override(variant, || {
                gemm(Trans::N, Trans::N, 1.5, a.as_ref(), b.as_ref(), -0.5, c.as_mut())
            });
            c
        };
        let [scalar, simd @ ..] = &kernels()[..] else { unreachable!() };
        let want = run(scalar);
        for variant in simd {
            prop_assert_eq!(
                run(variant).data(), want.data(),
                "{} changed GEMM bits at m={} n={} k={}",
                variant.id, m, n, k
            );
        }
    }
}
