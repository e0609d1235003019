//! Distributed matrix factorizations: the paper's contribution and its
//! baselines.
//!
//! * [`conflux`] — **COnfLUX**: near-communication-optimal 2.5D LU
//!   factorization with tournament pivoting and row masking (paper §7,
//!   Algorithm 1).
//! * [`confchox`] — **COnfCHOX**: the Cholesky analogue (paper §7.5).
//! * [`conflux_lu_ft`] / [`confchox_cholesky_ft`] — fault-tolerant drivers
//!   for both. Each algorithm has one rank program; the `ft` module runs
//!   that same program with an ABFT checksum guard on its transfers and a
//!   checkpoint callback at its step boundary, inside a crash-restart loop.
//! * [`twod`] — ScaLAPACK-style 2D block-cyclic LU with partial pivoting
//!   and explicit row swapping, and 2D Cholesky as COnfCHOX on a one-layer
//!   grid: the stand-ins for Intel MKL and SLATE, which the paper shows both
//!   use this schedule.
//! * [`lu25d_swap`] — COnfLUX's step loop under its other pivot policy,
//!   swapping pivot rows across the replicated layers instead of masking
//!   them: an executable ablation showing why COnfLUX masks (paper §7.3).
//! * [`models`] — the analytic per-rank I/O cost models of Table 2 for all
//!   six compared implementations, used to validate measurements and to
//!   extrapolate to paper-scale machines.
//! * [`pdgetrf`] / [`pdpotrf`] — ScaLAPACK-style wrappers: caller's
//!   block-cyclic layout in, factor in the same layout out, with the
//!   COSTA-style staging measured end to end.
//! * [`mmm25d()`] — 2.5D matrix multiplication (SUMMA within layers, a final
//!   z-reduction): the kernel the X-partitioning framework was built on,
//!   showing the machinery generalizes beyond factorizations.
//! * [`cholqr`] — distributed CholeskyQR2, the algorithm behind the CAPITAL
//!   comparison target.
//!
//! All schedules run on the [`xmpi`] simulated machine, so their
//! communication volume is *measured*, not asserted. They share one data
//! plane: a rank's share of the matrix is a tile store, and what it hands
//! home is its factor rows plus collected blocks. The ScaLAPACK wrappers
//! are the one place a block-cyclic layout of the `layout` crate meets it.

#![warn(unreachable_pub)]

pub mod cholqr;
mod common;
pub mod confchox;
pub mod conflux;
mod ft;
pub mod lu25d_swap;
pub mod mmm25d;
pub mod models;
mod scalapack;
mod tourn;
pub mod twod;

pub use cholqr::{cholesky_qr, CholQrConfig};
pub use common::choose_block;
pub use confchox::{confchox_cholesky, ConfchoxConfig};
pub use conflux::{conflux_lu, ConfluxConfig, LuOutput};
pub use ft::{confchox_cholesky_ft, conflux_lu_ft, FtCholOutput, FtConfig, FtLuOutput, FtReport};
pub use mmm25d::{mmm25d, Mmm25dConfig};
pub use scalapack::{pdgetrf, pdpotrf, ScalapackOutput};
pub use twod::{twod_cholesky, twod_lu, TwodConfig};
