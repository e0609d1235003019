//! Factorization invariance under everything dispatch can choose: `getrf`
//! and `potrf` must produce **bitwise-identical** factors under every
//! microkernel (the scalar 4×8 every CPU runs, the AVX2 6×8 and the AVX-512
//! 6×16, each where the CPU has it — a level it lacks is skipped with a
//! printed note) and under any KC ≥ 256, MC and NC, because the blocked
//! factorizations cap their panel widths at 64–256 and the packed engine is
//! KC-invariant below one block. Hosts with and without AVX2 or AVX-512
//! therefore agree on every factor bit.

use dense::gen::{random_matrix, random_spd};
use dense::tuning::{self, KernelConfig};
use dense::ukernel::Isa;
use dense::{getrf, potrf};

/// Runs `getrf`/`potrf` under configurations that differ in microkernel
/// shape, ISA, KC (≥ 256), MC, and NC, and requires the factors (and pivots)
/// to be bitwise identical to the scalar baseline's.
#[test]
fn factorizations_are_bitwise_invariant_across_permitted_configs() {
    let n = 193; // ragged: not a multiple of any block size involved
    let lu_input = random_matrix(n, n, 42);
    let chol_input = random_spd(n, 43);

    let baseline = tuning::scalar_baseline();
    let (want_lu, want_piv, want_chol) = tuning::with_override(baseline, || {
        let mut lu = lu_input.clone();
        let piv = getrf(&mut lu, 0).expect("well-conditioned input");
        let mut ch = chol_input.clone();
        potrf(&mut ch, 0).expect("SPD input");
        (lu, piv, ch)
    });

    // KC stays ≥ 256, where every factorization update is one block
    // (`pack::KC`); MC/NC are unconstrained.
    for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512] {
        let Some(variant) = isa.variant() else {
            eprintln!("note: this CPU lacks {isa:?}; its microkernel is not tested");
            continue;
        };
        let base = KernelConfig {
            variant,
            ..baseline
        };
        for (kc, mc, nc) in [
            (base.kc, base.mc, base.nc),
            (384, 128, 512),
            (512, 64, 256),
            (256, 256, 1024),
        ] {
            let cfg = KernelConfig { kc, mc, nc, ..base };
            let label = cfg.describe();
            tuning::with_override(cfg, || {
                let mut lu = lu_input.clone();
                let piv = getrf(&mut lu, 0).expect("well-conditioned input");
                assert_eq!(piv, want_piv, "{label}: pivot sequence changed");
                assert_eq!(lu.data(), want_lu.data(), "{label}: LU factor bits changed");
                let mut ch = chol_input.clone();
                potrf(&mut ch, 0).expect("SPD input");
                assert_eq!(
                    ch.data(),
                    want_chol.data(),
                    "{label}: Cholesky bits changed"
                );
            });
        }
    }
}
