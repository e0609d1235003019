//! Minor page faults and wall-clock of repeated one-rank factorizations in
//! one process: `conflux_lu` at N = 1024 and `confchox_cholesky` at
//! N = 1536, eight calls each (the shapes of the benchmark's `lu_p1`, and of
//! `chol_p8` on one rank).
//!
//! A rank's transient is its store plus what it collects — at most 1.5 n²
//! words — which the allocator keeps mapped between calls, so from the
//! second call on a call should fault almost nothing. A call that re-faults
//! its working set (~6,400 pages at N = 1024 with a third n² buffer per
//! rank) pays for it in system time, a fifth of the wall on the reference VM.
//!
//! ```text
//! cargo run --release -p factor --example page_faults
//! ```
//!
//! Exits non-zero if any of the last four calls of either kernel takes more
//! than 500 faults. Linux only (`/proc/self/stat`, field 10); elsewhere it
//! reports nothing and succeeds.

use dense::gen::{random_matrix, random_spd};
use factor::{confchox_cholesky, conflux_lu, ConfchoxConfig, ConfluxConfig};
use std::time::Instant;

const CALLS: usize = 8;
const MAX_STEADY_FAULTS: u64 = 500;

/// Minor faults of this process so far (`minflt`), if the OS says.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces: count from its ")".
    let after_comm = &stat[stat.rfind(')')? + 2..];
    after_comm.split(' ').nth(7)?.parse().ok()
}

/// Run `call` [`CALLS`] times; print faults and wall of each call and return
/// whether the last four stayed under the limit.
fn series(name: &str, mut call: impl FnMut()) -> bool {
    let mut steady = true;
    for i in 0..CALLS {
        let (before, t) = (minor_faults(), Instant::now());
        call();
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let Some(faults) = minor_faults().zip(before).map(|(now, then)| now - then) else {
            println!("{name} call {i}: {wall_ms:7.2} ms (no fault counter on this OS)");
            continue;
        };
        println!("{name} call {i}: {faults:6} faults {wall_ms:7.2} ms");
        steady &= i + 4 < CALLS || faults <= MAX_STEADY_FAULTS;
    }
    steady
}

fn main() {
    let a = random_matrix(1024, 1024, 42);
    let lu = ConfluxConfig::auto(1024, 1);
    let lu_ok = series("conflux_lu        n=1024 p=1", || {
        conflux_lu(&lu, &a).expect("random input is nonsingular");
    });
    let spd = random_spd(1536, 43);
    let chol = ConfchoxConfig::auto(1536, 1);
    let chol_ok = series("confchox_cholesky n=1536 p=1", || {
        confchox_cholesky(&chol, &spd).expect("input is SPD");
    });
    if !(lu_ok && chol_ok) {
        eprintln!("a steady-state call took more than {MAX_STEADY_FAULTS} minor faults");
        std::process::exit(1);
    }
}
