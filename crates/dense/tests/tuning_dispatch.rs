//! Factorization invariance under everything dispatch can choose: `getrf`
//! and `potrf` must produce **bitwise-identical** factors under every
//! microkernel (the scalar 4×8 every CPU runs, the AVX2 6×8 and the AVX-512
//! 6×16, each where the CPU has it — a level it lacks is skipped with a
//! printed note). Hosts with and without AVX2 or AVX-512 therefore agree on
//! every factor bit. A fanned-out `gemm` and `gemmt` are held to the same
//! rule when they run their blocks on the Rayon pool, and `gemmt` to the
//! bits of `gemm`.

use dense::gemm::{gemm, gemmt, CUplo, Trans};
use dense::gen::{random_matrix, random_spd};
use dense::tuning;
use dense::ukernel::Isa;
use dense::{getrf, potrf, Matrix};

/// The rayon shim sizes its pool when the process's first parallel call
/// starts it; every test asks for helpers first, so whichever test starts
/// the pool starts it with some, on any machine.
fn with_helpers() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
}

/// `C − L·Lᵀ` on the `uplo` triangle of `C`, with `L` n×64: at n = 400 the
/// shape of `potrf`'s first trailing update at n = 464, and far above the
/// size from which `gemmt` runs its diagonal blocks on the Rayon pool.
fn symmetric_update(uplo: CUplo, c: &Matrix) -> Matrix {
    let l = random_matrix(c.rows(), 64, 45);
    let mut c = c.clone();
    gemmt(
        uplo,
        Trans::N,
        Trans::T,
        -1.0,
        l.as_ref(),
        l.as_ref(),
        1.0,
        c.as_mut(),
    );
    c
}

/// `C ← −1.5·Aᵀ·Bᵀ + 0.5·C` at 300×200×64: both operands transposed, and
/// above the size from which `gemm` runs its row blocks on the Rayon pool.
fn transposed_product() -> Matrix {
    let (a, b) = (random_matrix(64, 300, 47), random_matrix(200, 64, 48));
    let mut c = random_matrix(300, 200, 49);
    gemm(
        Trans::T,
        Trans::T,
        -1.5,
        a.as_ref(),
        b.as_ref(),
        0.5,
        c.as_mut(),
    );
    c
}

/// Runs `getrf`/`potrf` under every microkernel this CPU has, and requires
/// the factors (and pivots) to be bitwise identical to the scalar
/// baseline's. The n = 400 `potrf`, the `gemmt` and the transposed `gemm`
/// fan out to Rayon workers, which see no thread-local override and run the
/// kernel that travels from the calling thread.
#[test]
fn factorizations_are_bitwise_invariant_across_permitted_configs() {
    with_helpers();
    let n = 193; // ragged: not a multiple of any block size involved
    let lu_input = random_matrix(n, n, 42);
    let chol_input = random_spd(n, 43);
    let big_chol_input = random_spd(400, 44);
    let c0 = random_matrix(400, 400, 46);
    let run = || {
        let mut lu = lu_input.clone();
        let piv = getrf(&mut lu, 0).expect("well-conditioned input");
        let [mut ch, mut big_ch] = [chol_input.clone(), big_chol_input.clone()];
        potrf(&mut ch, 0).expect("SPD input");
        potrf(&mut big_ch, 0).expect("SPD input");
        let update = symmetric_update(CUplo::Lower, &c0);
        (piv, [lu, ch, big_ch, update, transposed_product()])
    };

    let (want_piv, want) = tuning::with_override(tuning::scalar_baseline(), run);

    for isa in [Isa::Avx2, Isa::Avx512] {
        let Some(variant) = isa.variant() else {
            eprintln!("note: this CPU lacks {isa:?}; its microkernel is not tested");
            continue;
        };
        let label = variant.id;
        let (piv, got) = tuning::with_override(variant, run);
        assert_eq!(piv, want_piv, "{label}: pivot sequence changed");
        for (what, got, want) in [
            ("LU factor", &got[0], &want[0]),
            ("Cholesky n=193", &got[1], &want[1]),
            ("Cholesky n=400", &got[2], &want[2]),
            ("gemmt", &got[3], &want[3]),
            ("gemm TT", &got[4], &want[4]),
        ] {
            assert_eq!(got.data(), want.data(), "{label}: {what} bits changed");
        }
    }
}

/// A fanned-out `gemmt` writes, in its triangle, exactly the bits a full
/// `gemm` writes there, and leaves the other triangle as it was.
#[test]
fn gemmt_is_the_matching_triangle_of_gemm() {
    with_helpers();
    let c0 = random_matrix(400, 400, 46);
    let l = random_matrix(400, 64, 45);
    let mut full = c0.clone();
    gemm(
        Trans::N,
        Trans::T,
        -1.0,
        l.as_ref(),
        l.as_ref(),
        1.0,
        full.as_mut(),
    );
    for uplo in [CUplo::Lower, CUplo::Upper] {
        let got = symmetric_update(uplo, &c0);
        for i in 0..400 {
            for j in 0..400 {
                let in_tri = if uplo == CUplo::Lower { j <= i } else { j >= i };
                let want = if in_tri { full[(i, j)] } else { c0[(i, j)] };
                assert_eq!(got[(i, j)].to_bits(), want.to_bits(), "{uplo:?} ({i},{j})");
            }
        }
    }
}
