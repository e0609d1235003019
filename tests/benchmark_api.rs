//! Compile-only pin of every name the frozen `benchmark/` package compiles
//! against. `benchmark/` is a package of its own that tier-1 (`cargo test`
//! at the root) never builds, so a `pub` item it needs could be demoted and
//! nothing here would notice until the `benchmark-smoke` CI job. The paths
//! are written the way `benchmark/src` writes them. The one name missing is
//! `xtrace::Timeline` (the root package has no `xtrace` dependency):
//! `crates/xtrace/tests/conflux_trace.rs` imports and builds it.

#![allow(unused_imports)]

use dense::flops::{cholesky_total_flops, lu_total_flops};
use dense::gemm::CUplo;
use dense::gen::{random_matrix, random_spd, well_conditioned};
use dense::norms::{lu_residual_perm, po_residual};
use dense::tuning::{active, ENV_TUNING_PATH};
use dense::{flops, gemm, gemmt, getrf, par_gemm, potrf, trsm, Diag, Matrix, Side, Trans, Uplo};
use factor::{
    confchox_cholesky, conflux_lu, twod_cholesky, twod_lu, ConfchoxConfig, ConfluxConfig,
    TwodConfig,
};
use pebbles::bounds::{cholesky_io_lower_bound, lu_io_lower_bound};
use xmpi::launch::{run, socket_backend_reexec};
use xmpi::trace::{capture, TraceConfig};
use xmpi::{with_backend, Backend, Buf, Comm, Grid3, WorldStats};

#[test]
fn names_the_benchmark_compiles_against_resolve() {
    // The kernel-configuration fields `benchmark/src/report.rs` records.
    let kernel = active();
    let _: (&str, usize, usize, usize) = (kernel.variant.id, kernel.kc, kernel.mc, kernel.nc);
    let _: &str = ENV_TUNING_PATH;
    let _ = Backend::Local;
}
