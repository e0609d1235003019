//! Pure-Rust dense linear algebra kernels.
//!
//! This crate is the local-computation substrate of the `conflux-rs`
//! workspace: a small, self-contained replacement for the BLAS/LAPACK
//! routines the paper's implementation obtains from Intel MKL (paper §8,
//! Experimental setup). It provides exactly the kernels the factorization
//! schedules need:
//!
//! * [`gemm()`] — general matrix multiply `C ← α·op(A)·op(B) + β·C`,
//! * [`gemmt()`] — the triangular-output variant used by Cholesky's trailing
//!   update (only one triangle of `C` is written),
//! * [`gemm_rows()`] — the row-mapped in-place update
//!   `C[rows[i], :] += α·(A·B)[i, :]` that LU's Schur update under row
//!   masking issues (the active rows of a local matrix are an index list),
//! * [`gemm_prepacked()`] — `C += α·A·P[:, cols]` against a [`PackedB`]
//!   packed once, for Cholesky's many products with one step operand,
//! * [`trsm()`] — triangular solve with multiple right-hand sides,
//! * [`getrf()`] — LU factorization with partial pivoting,
//! * [`potrf()`] — Cholesky factorization,
//! * matrix generators and norms for building workloads and validating
//!   results.
//!
//! All kernels operate on strided views ([`MatRef`] / [`MatMut`]) over
//! row-major storage, so distributed codes can apply them directly to tiles
//! of a larger local buffer without copying.
//!
//! # Packed, register-blocked GEMM
//!
//! The compute path follows the Goto/BLIS decomposition (the structure MKL
//! itself uses, see [`pack`]): three levels of cache blocking
//! (`KC`/`MC`/`NC`), operands packed into reused microkernel-ordered
//! buffers — `op(B)` once per use ([`PackedB`], [`gemm_prepacked()`]) — and
//! an `MR×NR` register-tile microkernel that adds `α·acc` into `C` itself;
//! the macro-kernel's loop order follows the block it is handed, so the
//! factorizations' rank-32 updates walk `C` along rows.
//! There are three microkernels ([`ukernel`]): explicit-SIMD `6×16`
//! (AVX-512) and `6×8` (AVX2) tiles and a portable scalar `4×8` tile, all
//! rounding identically, so results are bitwise the same whichever a CPU
//! runs; [`tuning`] picks the widest the CPU reports, and that is the only
//! dispatch rule — no file, no environment variable. `gemmt`, the blocked
//! `trsm`, and the `getrf`/`potrf` trailing updates all route their inner
//! products through the same engine. One size rule decides fan-out: from
//! `m·n·k` = 2²⁰ on, [`gemm()`] and [`gemm_rows()`] fan MC-row blocks of `C`
//! over Rayon workers *bitwise identically* to running them inline, and so
//! does `gemmt`, with its diagonal blocks. ([`par_gemm`] is only the old
//! name of the untransposed [`gemm()`].) [`gemm::naive_gemm`] retains the
//! scalar triple loop as the correctness and performance reference
//! (`floors kernels` reports both in `results/BENCH_kernels.json`).

#![warn(unreachable_pub)]

pub mod checksum;
pub mod flops;
pub mod gemm;
pub mod gen;
pub mod getrf;
pub mod matrix;
pub mod norms;
pub mod pack;
pub mod potrf;
pub mod refine;
mod solve;
pub mod trsm;
pub mod tuning;
pub mod ukernel;

pub use gemm::{gemm, gemm_prepacked, gemm_rows, gemmt, naive_gemm, par_gemm, Trans};
pub use gen::{random_matrix, random_spd, well_conditioned};
pub use getrf::{getrf, getrf_unblocked};
pub use matrix::{MatMut, MatRef, Matrix};
pub use norms::{frobenius, lu_residual, max_abs, po_residual};
pub use pack::PackedB;
pub use potrf::{potrf, potrf_unblocked};
pub use refine::{lu_refine, Refinement};
pub use trsm::{trsm, Diag, Side, Uplo};

/// Errors reported by factorization kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// `getrf` found no usable pivot in the given column: the matrix is
    /// exactly singular at that elimination step.
    SingularAt(usize),
    /// `potrf` found a non-positive diagonal entry: the matrix is not
    /// positive definite (index of the offending leading minor).
    NotPositiveDefinite(usize),
    /// A distributed driver was handed a `rows × cols` matrix where its
    /// configuration describes an `expected × expected` one.
    ShapeMismatch {
        /// The dimension `n` the configuration was built for.
        expected: usize,
        /// Rows of the matrix actually passed.
        rows: usize,
        /// Columns of the matrix actually passed.
        cols: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::SingularAt(k) => write!(f, "matrix is singular at elimination step {k}"),
            Error::NotPositiveDefinite(k) => {
                write!(f, "matrix is not positive definite (leading minor {k})")
            }
            Error::ShapeMismatch {
                expected,
                rows,
                cols,
            } => write!(
                f,
                "matrix is {rows}x{cols}, configuration expects {expected}x{expected}"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl xmpi::Wire for Error {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Error::SingularAt(k) => {
                out.push(0);
                k.encode(out);
            }
            Error::NotPositiveDefinite(k) => {
                out.push(1);
                k.encode(out);
            }
            Error::ShapeMismatch {
                expected,
                rows,
                cols,
            } => {
                out.push(2);
                expected.encode(out);
                rows.encode(out);
                cols.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> std::result::Result<Self, xmpi::XmpiError> {
        match u8::decode(input)? {
            0 => Ok(Error::SingularAt(usize::decode(input)?)),
            1 => Ok(Error::NotPositiveDefinite(usize::decode(input)?)),
            2 => Ok(Error::ShapeMismatch {
                expected: usize::decode(input)?,
                rows: usize::decode(input)?,
                cols: usize::decode(input)?,
            }),
            b => Err(xmpi::XmpiError::Truncated {
                expected: 1,
                got: b as usize,
                src: 0,
                tag: 0,
            }),
        }
    }
}

/// Result alias for factorization kernels.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::Error;
    use xmpi::wire::{decode_all, encode_vec};

    /// Every variant survives the socket backend's control channel.
    #[test]
    fn errors_round_trip_through_the_wire_codec() {
        for e in [
            Error::SingularAt(7),
            Error::NotPositiveDefinite(3),
            Error::ShapeMismatch {
                expected: 64,
                rows: 65,
                cols: 64,
            },
        ] {
            assert_eq!(decode_all::<Error>(&encode_vec(&e)), Ok(e.clone()));
        }
        let shown = Error::ShapeMismatch {
            expected: 64,
            rows: 65,
            cols: 64,
        }
        .to_string();
        assert_eq!(shown, "matrix is 65x64, configuration expects 64x64");
    }
}
