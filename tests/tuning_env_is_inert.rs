//! `dense` chooses its kernel from the CPU and from nothing else. The frozen
//! `benchmark/` still sets `CONFLUX_TUNING_PATH` before its first kernel
//! call; this pins that the name is inert: a well-formed registry file at
//! that path, keyed to this machine and naming another kernel and blocking,
//! with the old opt-in for inexact entries set as well, changes no field of
//! `active()`: the widest kernel the CPU reports, at the blocking constants
//! of `dense::pack`.
//!
//! A file (and so a process) of its own: when a registry was still read, it
//! was read once, by the first `active()` of the process.

use dense::tuning::{active, ENV_TUNING_PATH};
use dense::ukernel::Isa;

/// `{os}-{arch}-c{cpus}-{hostname}`: the key the deleted reader matched
/// entries against (`bench::provenance` still stamps the `BENCH_*.json`
/// reports with it).
fn machine_fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .unwrap_or_else(|| "unknown-host".to_string());
    let host: String = host
        .chars()
        .map(|c| {
            if c == ',' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect();
    format!(
        "{}-{}-c{cpus}-{host}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

#[test]
fn a_registry_file_and_the_old_variables_change_nothing() {
    let path = std::env::temp_dir().join(format!("conflux-tuning-{}.json", std::process::id()));
    let registry = format!(
        r#"{{"version": 1, "entries": [{{"machine": "{}", "variant": "scalar_4x8_u1",
            "kc": 384, "mc": 128, "nc": 512, "gflops": 20.0, "probe_n": 512, "exact": true,
            "commit": "deadbeef", "timestamp": "2026-08-08T00:00:00Z"}}]}}"#,
        machine_fingerprint()
    );
    std::fs::write(&path, registry).expect("temp dir is writable");
    std::env::set_var(ENV_TUNING_PATH, &path);
    std::env::set_var("CONFLUX_TUNING_ALLOW_INEXACT", "1");

    let got = active();
    std::fs::remove_file(&path).ok();
    let widest = [Isa::Avx512, Isa::Avx2, Isa::Scalar]
        .into_iter()
        .find_map(Isa::variant);
    assert_eq!(Some(got.variant.id), widest.map(|v| v.id));
    // The blocking is `dense::pack`'s constants, and they tile the kernel.
    assert_eq!((got.kc, got.mc, got.nc), (256, 192, 1024));
    assert_eq!((got.mc % got.variant.mr, got.nc % got.variant.nr), (0, 0));
    let id = got.variant.id;
    assert_eq!(got.describe(), format!("{id} kc=256 mc=192 nc=1024"));
}
