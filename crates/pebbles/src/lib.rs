//! `pebbles` — the paper's I/O lower-bound framework (§2–§6), executable.
//!
//! The paper derives parallel I/O lower bounds for *Disjoint Access Array
//! Programs* (DAAP) by reasoning about red-blue pebble games on
//! computational DAGs via X-partitioning. This crate implements each layer
//! of that machinery as a real, testable artifact rather than a formula
//! sheet:
//!
//! * [`daap`] — the loop-nest program representation of §2.2: statements
//!   with access-function vectors, iteration variables, access dimensions.
//! * [`cdag`] — computational DAGs built by *executing* a DAAP program's
//!   loop nest (element versions become distinct vertices, exactly as in
//!   Figure 3), plus the built-in LU / Cholesky / matrix-multiply programs.
//! * [`interpret`] — the automatic DAAP → cDAG translation (Table 3 lists
//!   its absence as a pebbling drawback; for this program class it exists).
//! * [`game`] — the red-blue pebble game of §2.3: a rule-checking schedule
//!   verifier and a greedy scheduler producing valid (upper-bound)
//!   schedules.
//! * [`opt_game`] — exact optimal pebbling for tiny cDAGs (Dijkstra over
//!   game states), bracketing `Q*` between bound and greedy in tests.
//! * [`schedule`] — the constructive direction: turn a valid X-partition
//!   into a legal pebbling schedule (load `Dom(H)`, compute `H`, store
//!   `Min(H)`).
//! * [`xpart`] — X-partitions: dominator/minimum sets and validity checks
//!   (§2.3.3).
//! * `optimize` (crate-private, the engine behind [`mod@derive`] and
//!   [`bounds`]) — the constrained maximization of Lemma 3 / §3.2
//!   (`max ∏|Dᵗ| s.t. Σ∏|Dⱼᵏ| ≤ X`), solved in closed form for balanced
//!   cases and numerically in general, plus the `X₀` search of Lemma 2.
//! * [`mod@derive`] — the end-to-end pipeline: [`daap::Program`] in, parallel
//!   I/O lower bound out, with automatic Lemma 6 / KKT dispatch and the
//!   §4 reuse composition.
//! * [`bounds`] — the end results of §6: non-asymptotic parallel I/O lower
//!   bounds for LU, Cholesky, and matrix multiplication, derived through
//!   the generic pipeline and cross-checked against the paper's closed
//!   forms.

#![warn(unreachable_pub)]

pub mod bounds;
pub mod cdag;
pub mod daap;
pub mod derive;
pub mod game;
#[cfg(test)]
mod intensity;
pub mod interpret;
pub mod opt_game;
mod optimize;
pub mod schedule;
pub mod xpart;

pub use bounds::{cholesky_io_lower_bound, lu_io_lower_bound, mmm_io_lower_bound};
pub use cdag::Cdag;
pub use daap::{AccessFn, Program, Statement};
pub use derive::{analyze_statement, derive_program_bound, ProgramBound};
