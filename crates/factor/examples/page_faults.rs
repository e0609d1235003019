//! Minor page faults and wall-clock of repeated one-rank factorizations in
//! one process: `conflux_lu` at N = 1024 and `confchox_cholesky` at
//! N = 1536, eight calls each (the shapes of the benchmark's `lu_p1`, and of
//! `chol_p8` on one rank).
//!
//! A one-rank call holds its matrix about once: the rank's store (n² words
//! for LU, the lower tiles for Cholesky) plus `O(n·v)` step buffers, and the
//! store comes back as the factor itself. The first `conflux_lu` call faults
//! in the store's 2,048 pages, the step buffers and the thread pool (~2,700
//! pages on the reference VM; a collected `U` and an assembled copy beside
//! the store took ~5,800). The second call faults the store in once more:
//! glibc's dynamic mmap threshold, raised when the first call's store was
//! unmapped, now serves it from the heap, which grows to hold it. From the
//! third call on the allocator keeps it mapped and a call should fault
//! almost nothing; a call that re-faults its working set pays for it in
//! system time, a fifth of the wall on the reference VM.
//!
//! ```text
//! cargo run --release -p factor --example page_faults
//! ```
//!
//! Each series runs in a fresh process (the example re-runs itself with the
//! argument `lu` or `chol`; either runs one series alone), so neither
//! starts on a heap the other's calls left behind. Exits non-zero if the
//! first `conflux_lu` call takes more than 2,800 faults, or if any of the
//! last four calls of either kernel takes more than 500. The second call's
//! count is printed but not gated. Linux only (`/proc/self/stat`, field
//! 10); elsewhere it reports nothing and succeeds.

use dense::gen::{random_matrix, random_spd};
use factor::{confchox_cholesky, conflux_lu, ConfchoxConfig, ConfluxConfig};
use std::time::Instant;

const CALLS: usize = 8;
const MAX_FIRST_LU_FAULTS: u64 = 2_800;
const MAX_STEADY_FAULTS: u64 = 500;

/// Minor faults of this process so far (`minflt`), if the OS says.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces: count from its ")".
    let after_comm = &stat[stat.rfind(')')? + 2..];
    after_comm.split(' ').nth(7)?.parse().ok()
}

/// Run `call` [`CALLS`] times; print faults and wall of each call and return
/// the fault counts (`None` where the OS keeps none).
fn series(name: &str, mut call: impl FnMut()) -> Vec<Option<u64>> {
    let mut counts = Vec::with_capacity(CALLS);
    for i in 0..CALLS {
        let (before, t) = (minor_faults(), Instant::now());
        call();
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let faults = minor_faults().zip(before).map(|(now, then)| now - then);
        match faults {
            Some(faults) => println!("{name} call {i}: {faults:6} faults {wall_ms:7.2} ms"),
            None => println!("{name} call {i}: {wall_ms:7.2} ms (no fault counter on this OS)"),
        }
        counts.push(faults);
    }
    counts
}

/// Did each of the last four calls stay under [`MAX_STEADY_FAULTS`]?
fn steady(counts: &[Option<u64>]) -> bool {
    let last = &counts[CALLS - 4..];
    last.iter()
        .all(|f| f.is_none_or(|f| f <= MAX_STEADY_FAULTS))
}

/// Run one series in this process and gate it; `false` if a gate failed.
fn run_series(which: &str) -> bool {
    let mut ok = true;
    let faults = match which {
        "lu" => {
            let a = random_matrix(1024, 1024, 42);
            let lu = ConfluxConfig::auto(1024, 1);
            let faults = series("conflux_lu        n=1024 p=1", || {
                conflux_lu(&lu, &a).expect("random input is nonsingular");
            });
            if let Some(first) = faults[0].filter(|&f| f > MAX_FIRST_LU_FAULTS) {
                eprintln!("the first conflux_lu call took {first} minor faults, more than {MAX_FIRST_LU_FAULTS}");
                ok = false;
            }
            faults
        }
        "chol" => {
            let spd = random_spd(1536, 43);
            let chol = ConfchoxConfig::auto(1536, 1);
            series("confchox_cholesky n=1536 p=1", || {
                confchox_cholesky(&chol, &spd).expect("input is SPD");
            })
        }
        other => panic!("unknown series {other:?}: want \"lu\" or \"chol\""),
    };
    if !steady(&faults) {
        eprintln!("a steady-state {which} call took more than {MAX_STEADY_FAULTS} minor faults");
        ok = false;
    }
    ok
}

fn main() {
    let ok = match std::env::args().nth(1) {
        Some(which) => run_series(&which),
        // Each series in a process of its own: the second would otherwise
        // start on the heap the first one's calls freed.
        None => {
            let exe = std::env::current_exe().expect("the example knows its own path");
            let run = |which| {
                let status = std::process::Command::new(&exe).arg(which).status();
                status.expect("the example re-runs itself").success()
            };
            [run("lu"), run("chol")] == [true, true]
        }
    };
    if !ok {
        std::process::exit(1);
    }
}
