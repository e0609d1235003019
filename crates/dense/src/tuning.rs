//! Per-machine kernel auto-tuning: the persistent registry behind
//! `registry/tuning.json` and the startup dispatch that picks which
//! [`crate::ukernel::Variant`] and (KC, MC, NC) cache blocking the packed
//! GEMM engine runs.
//!
//! # How dispatch works
//!
//! Every call into the packed GEMM engine (`pack::gemm_packed`, behind
//! [`crate::gemm()`]) asks [`active`] for the
//! current [`KernelConfig`]. That resolves, in order:
//!
//! 1. a thread-local override installed by [`with_override`] (used by the
//!    benchmark harness to measure the forced-scalar baseline, and by tests
//!    to pin a specific variant), else
//! 2. a process-global config loaded **once** at first use: the tuning
//!    registry at `$CONFLUX_TUNING_PATH` (default `registry/tuning.json`)
//!    is read, the entry whose `machine` equals this machine's
//!    [`machine_fingerprint`] is validated by [`resolve`], and on *any*
//!    failure — missing file, unparsable JSON, unknown machine, unknown
//!    variant id, a variant this CPU cannot run, insane blocking values —
//!    dispatch silently degrades to [`default_config`]. Tuning is an
//!    optimization, never a correctness dependency, so no failure mode
//!    panics.
//!
//! # The reproducibility contract
//!
//! [`resolve`] only accepts configs that keep results **bitwise-identical**
//! to the untuned path:
//!
//! * the variant must be exact ([`crate::ukernel::Variant::exact`]) — FMA
//!   variants round differently and are rejected;
//! * `kc` must be at least [`KC_MIN_EXACT`]. The microkernel adds `α·acc`
//!   into `C` once per KC block, so changing KC regroups the
//!   k-summation for `k > KC`. Every trailing update in the factorizations
//!   has `k ≤ 256` (the panel width cap), so any `kc ≥ 256` sees those
//!   products as a single block and the grouping — hence every factor bit —
//!   is unchanged.
//!
//! Both constraints can be lifted for experiments by setting
//! `CONFLUX_TUNING_ALLOW_INEXACT=1`; `CONFLUX_TUNING=off` disables the
//! registry lookup entirely.
//!
//! MC and NC need no guard: they tile the *output*, and each element of `C`
//! belongs to exactly one tile, so its accumulation order never depends on
//! them — nor on the macro-kernel's loop order, which is chosen from
//! `kc·nc` ([`crate::pack`]).

use crate::ukernel::{self, Variant};
use serde_json::Value;
use std::cell::Cell;
use std::path::Path;
use std::sync::OnceLock;

/// Environment variable that disables tuned dispatch when set to `off`/`0`.
const ENV_TUNING: &str = "CONFLUX_TUNING";
/// Environment variable overriding the registry path.
pub const ENV_TUNING_PATH: &str = "CONFLUX_TUNING_PATH";
/// Environment variable accepting inexact (FMA / small-KC) tuned configs.
const ENV_ALLOW_INEXACT: &str = "CONFLUX_TUNING_ALLOW_INEXACT";
/// Default registry location, relative to the process working directory.
pub const DEFAULT_REGISTRY_PATH: &str = "registry/tuning.json";
/// Smallest KC an exact config may use: factorization panel widths are
/// capped at 256, so `kc ≥ 256` keeps every trailing update a single KC
/// block and therefore bitwise-identical to the untuned engine.
pub const KC_MIN_EXACT: usize = 256;

/// Everything the packed engine needs to run one GEMM: which microkernel,
/// and the three cache-blocking parameters.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// The microkernel variant (defines MR×NR and the inner loop).
    pub variant: &'static Variant,
    /// K-dimension cache block (packed-B panel depth).
    pub kc: usize,
    /// M-dimension cache block (rows of packed A per inner loop).
    pub mc: usize,
    /// N-dimension cache block (columns of packed B per outer loop).
    pub nc: usize,
}

impl KernelConfig {
    /// One-line human-readable form, e.g.
    /// `avx2_6x8_u2_pf0 kc=256 mc=192 nc=1024`.
    pub fn describe(&self) -> String {
        format!(
            "{} kc={} mc={} nc={}",
            self.variant.id, self.kc, self.mc, self.nc
        )
    }
}

/// The forced-scalar baseline: the scalar 4×8 microkernel PR 3 shipped, at
/// the default blocking. This is what the `tuned_speedup` KPI and the
/// forced-scalar benchmark sample measure against, and what a CPU without
/// AVX2 runs.
pub fn scalar_baseline() -> KernelConfig {
    KernelConfig {
        variant: ukernel::find("scalar_4x8_u1").expect("baseline variant is in the grid"),
        kc: crate::pack::KC,
        mc: crate::pack::MC,
        nc: crate::pack::NC,
    }
}

/// The config used when no valid tuning entry exists for this machine: the
/// exact AVX2 6×8 kernel — the largest tile the 16 ymm registers hold
/// (12 accumulators + 2 B vectors + 1 broadcast), and the shape every sweep
/// on the reference machine ranks first — when the CPU has AVX2, otherwise
/// the scalar baseline. `kc` stays at [`KC_MIN_EXACT`], so no product's
/// k-grouping, and no bit of any result, depends on which of the two runs.
pub fn default_config() -> KernelConfig {
    let base = scalar_baseline();
    match ukernel::find("avx2_6x8_u2_pf0") {
        Some(v) if v.available() => KernelConfig { variant: v, ..base },
        _ => base,
    }
}

/// One machine's tuning result, as stored in `registry/tuning.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedEntry {
    /// [`machine_fingerprint`] of the machine that ran the sweep.
    pub machine: String,
    /// Winning microkernel variant id.
    pub variant: String,
    /// Winning K cache block.
    pub kc: usize,
    /// Winning M cache block.
    pub mc: usize,
    /// Winning N cache block.
    pub nc: usize,
    /// Throughput the winner measured during the sweep.
    pub gflops: f64,
    /// Problem size the sweep probed at.
    pub probe_n: usize,
    /// Whether the winner is bitwise-exact vs the scalar reference.
    pub exact: bool,
    /// Git commit of the sweep.
    pub commit: String,
    /// ISO-8601 timestamp of the sweep.
    pub timestamp: String,
}

impl TunedEntry {
    fn from_value(v: &Value) -> Option<TunedEntry> {
        Some(TunedEntry {
            machine: v.get("machine")?.as_str()?.to_string(),
            variant: v.get("variant")?.as_str()?.to_string(),
            kc: v.get("kc")?.as_u64()? as usize,
            mc: v.get("mc")?.as_u64()? as usize,
            nc: v.get("nc")?.as_u64()? as usize,
            gflops: v.get("gflops")?.as_f64()?,
            probe_n: v.get("probe_n")?.as_u64()? as usize,
            exact: v.get("exact")?.as_bool()?,
            commit: v.get("commit")?.as_str()?.to_string(),
            timestamp: v.get("timestamp")?.as_str()?.to_string(),
        })
    }

    fn to_value(&self) -> Value {
        serde_json::json!({
            "machine": self.machine,
            "variant": self.variant,
            "kc": self.kc,
            "mc": self.mc,
            "nc": self.nc,
            "gflops": self.gflops,
            "probe_n": self.probe_n,
            "exact": self.exact,
            "commit": self.commit,
            "timestamp": self.timestamp,
        })
    }
}

/// Parse a tuning registry file. Returns `Err` with a human-readable reason
/// on malformed input; entries that are individually malformed are skipped
/// (a half-good registry still tunes the machines it covers).
fn parse_registry(text: &str) -> Result<Vec<TunedEntry>, String> {
    let root = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let version = root
        .get("version")
        .and_then(|v| v.as_u64())
        .ok_or("missing version field")?;
    if version != 1 {
        return Err(format!("unsupported registry version {version}"));
    }
    let entries = root
        .get("entries")
        .and_then(|v| v.as_array())
        .ok_or("missing entries array")?;
    Ok(entries.iter().filter_map(TunedEntry::from_value).collect())
}

/// Load the registry from disk. `Err` on missing/unreadable/malformed file.
pub fn load_registry(path: &Path) -> Result<Vec<TunedEntry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    parse_registry(&text)
}

/// Serialize a registry to the on-disk JSON form.
fn registry_to_json(entries: &[TunedEntry]) -> String {
    let root = serde_json::json!({
        "version": 1u64,
        "entries": Value::Array(entries.iter().map(TunedEntry::to_value).collect()),
    });
    serde_json::to_string_pretty(&root).expect("registry serialization is infallible")
}

/// Write a registry to disk, creating parent directories as needed.
pub fn save_registry(path: &Path, entries: &[TunedEntry]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut text = registry_to_json(entries);
    text.push('\n');
    std::fs::write(path, text)
}

/// Insert or replace the entry for `entry.machine` (one entry per machine).
pub fn upsert(entries: &mut Vec<TunedEntry>, entry: TunedEntry) {
    match entries.iter_mut().find(|e| e.machine == entry.machine) {
        Some(slot) => *slot = entry,
        None => entries.push(entry),
    }
}

/// Validate the registry entry for `machine` into a runnable
/// [`KernelConfig`]. `Err` explains why the entry was rejected (the caller
/// decides whether to fall back silently or surface the reason).
pub fn resolve(
    entries: &[TunedEntry],
    machine: &str,
    allow_inexact: bool,
) -> Result<KernelConfig, String> {
    let entry = entries
        .iter()
        .find(|e| e.machine == machine)
        .ok_or_else(|| format!("no entry for machine {machine}"))?;
    let variant = ukernel::find(&entry.variant)
        .ok_or_else(|| format!("unknown variant {}", entry.variant))?;
    if !variant.available() {
        return Err(format!(
            "variant {} requires {:?}, unavailable on this CPU",
            variant.id, variant.isa
        ));
    }
    if !allow_inexact && !variant.exact() {
        return Err(format!(
            "variant {} is inexact (FMA); set {ENV_ALLOW_INEXACT}=1 to accept",
            variant.id
        ));
    }
    if !allow_inexact && entry.kc < KC_MIN_EXACT {
        return Err(format!(
            "kc={} < {KC_MIN_EXACT} changes factorization bit patterns; set {ENV_ALLOW_INEXACT}=1 to accept",
            entry.kc
        ));
    }
    let sane = (variant.mr..=65_536).contains(&entry.mc)
        && (variant.nr..=65_536).contains(&entry.nc)
        && (1..=65_536).contains(&entry.kc);
    if !sane {
        return Err(format!(
            "implausible blocking kc={} mc={} nc={}",
            entry.kc, entry.mc, entry.nc
        ));
    }
    Ok(KernelConfig {
        variant,
        kc: entry.kc,
        mc: entry.mc,
        nc: entry.nc,
    })
}

/// `{os}-{arch}-c{cpus}-{hostname}` — the key tuning entries are stored
/// under, shared with the ablation registry's provenance stamps (the bench
/// crate re-exports this function). Commas and whitespace are sanitized so
/// the fingerprint is safe inside a CSV cell.
pub fn machine_fingerprint() -> String {
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
        "{}-{}-c{}-{}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        cpus,
        host
    )
}

/// The pure core of startup dispatch, exposed for tests: given the registry
/// path, this machine's fingerprint, and the two policy switches, produce
/// the config to run. Never panics; every failure falls back to
/// [`default_config`].
pub fn startup_config_from(
    path: &Path,
    machine: &str,
    enabled: bool,
    allow_inexact: bool,
) -> KernelConfig {
    if !enabled {
        return default_config();
    }
    match load_registry(path).and_then(|entries| resolve(&entries, machine, allow_inexact)) {
        Ok(cfg) => cfg,
        Err(_) => default_config(),
    }
}

fn startup_config() -> KernelConfig {
    let enabled = !matches!(
        std::env::var(ENV_TUNING).as_deref(),
        Ok("off") | Ok("0") | Ok("false")
    );
    let allow_inexact = matches!(
        std::env::var(ENV_ALLOW_INEXACT).as_deref(),
        Ok("1") | Ok("true") | Ok("yes")
    );
    let path = std::env::var(ENV_TUNING_PATH).unwrap_or_else(|_| DEFAULT_REGISTRY_PATH.to_string());
    startup_config_from(
        Path::new(&path),
        &machine_fingerprint(),
        enabled,
        allow_inexact,
    )
}

static GLOBAL: OnceLock<KernelConfig> = OnceLock::new();

thread_local! {
    static OVERRIDE: Cell<Option<KernelConfig>> = const { Cell::new(None) };
}

/// The config the packed engine should use on this thread right now: the
/// innermost [`with_override`] if one is active, else the process-global
/// startup config (loaded from the tuning registry exactly once).
pub fn active() -> KernelConfig {
    if let Some(cfg) = OVERRIDE.with(|o| o.get()) {
        return cfg;
    }
    *GLOBAL.get_or_init(startup_config)
}

/// Run `f` with every packed-GEMM call on this thread dispatching `cfg`
/// (the harness's forced-scalar baseline and the tuner's sweep both use
/// this). Overrides nest; the previous config is restored even on panic.
/// [`crate::par_gemm`] packs `B` under the caller's override and its Rayon
/// workers run the config the packed operand carries, so parallel kernels
/// honor it too.
pub fn with_override<R>(cfg: KernelConfig, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<KernelConfig>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _guard = Restore(OVERRIDE.with(|o| o.replace(Some(cfg))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(machine: &str, variant: &str, kc: usize) -> TunedEntry {
        TunedEntry {
            machine: machine.into(),
            variant: variant.into(),
            kc,
            mc: 128,
            nc: 512,
            gflops: 20.0,
            probe_n: 512,
            exact: true,
            commit: "deadbeef".into(),
            timestamp: "2026-08-08T00:00:00Z".into(),
        }
    }

    #[test]
    fn registry_round_trips_through_json() {
        let entries = vec![
            entry("m1", "scalar_4x8_u1", 256),
            entry("m2", "avx2_4x8_u2_pf0", 384),
        ];
        let parsed = parse_registry(&registry_to_json(&entries)).unwrap();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn resolve_accepts_a_valid_exact_entry() {
        let cfg = resolve(&[entry("m", "scalar_6x8_u2", 256)], "m", false).unwrap();
        assert_eq!(cfg.variant.id, "scalar_6x8_u2");
        assert_eq!((cfg.kc, cfg.mc, cfg.nc), (256, 128, 512));
    }

    #[test]
    fn resolve_rejects_unknown_machine_variant_and_small_kc() {
        let entries = [entry("m", "scalar_4x8_u1", 256)];
        assert!(resolve(&entries, "other", false).is_err());
        assert!(resolve(&[entry("m", "no_such_kernel", 256)], "m", false).is_err());
        // kc below the factorization-invariance floor needs the opt-in.
        assert!(resolve(&[entry("m", "scalar_4x8_u1", 128)], "m", false).is_err());
        assert!(resolve(&[entry("m", "scalar_4x8_u1", 128)], "m", true).is_ok());
    }

    #[test]
    fn resolve_rejects_fma_without_opt_in() {
        let e = [entry("m", "fma_4x8_u2_pf0", 256)];
        assert!(resolve(&e, "m", false).is_err());
        // With the opt-in it resolves iff the CPU can run it.
        let allowed = resolve(&e, "m", true);
        assert_eq!(
            allowed.is_ok(),
            crate::ukernel::find("fma_4x8_u2_pf0").unwrap().available()
        );
    }

    #[test]
    fn resolve_rejects_implausible_blocking() {
        let mut e = entry("m", "scalar_4x8_u1", 256);
        e.mc = 0;
        assert!(resolve(&[e], "m", false).is_err());
    }

    #[test]
    fn malformed_registry_text_is_an_error_not_a_panic() {
        for text in [
            "",
            "{",
            "null",
            "[]",
            r#"{"entries": []}"#,
            r#"{"version": 99, "entries": []}"#,
            r#"{"version": 1}"#,
        ] {
            assert!(parse_registry(text).is_err(), "text {text:?}");
        }
        // Individually malformed entries are skipped, not fatal.
        let good =
            parse_registry(r#"{"version": 1, "entries": [{"machine": "x"}, null, 7]}"#).unwrap();
        assert!(good.is_empty());
    }

    #[test]
    fn startup_falls_back_to_defaults_on_every_failure_mode() {
        let dir = std::env::temp_dir().join("dense-tuning-test");
        std::fs::create_dir_all(&dir).unwrap();
        let def = default_config();
        // Missing file.
        let cfg = startup_config_from(&dir.join("nope.json"), "m", true, false);
        assert_eq!(cfg.variant.id, def.variant.id);
        // Corrupt file.
        let bad = dir.join("corrupt.json");
        std::fs::write(&bad, "{not json").unwrap();
        let cfg = startup_config_from(&bad, "m", true, false);
        assert_eq!(cfg.variant.id, def.variant.id);
        // Valid file, wrong machine.
        let wrong = dir.join("wrong.json");
        std::fs::write(
            &wrong,
            registry_to_json(&[entry("elsewhere", "scalar_8x4_u2", 256)]),
        )
        .unwrap();
        let cfg = startup_config_from(&wrong, "m", true, false);
        assert_eq!(cfg.variant.id, def.variant.id);
        // Tuning disabled ignores even a valid entry.
        let good = dir.join("good.json");
        std::fs::write(&good, registry_to_json(&[entry("m", "scalar_8x4_u2", 384)])).unwrap();
        let cfg = startup_config_from(&good, "m", false, false);
        assert_eq!(cfg.variant.id, def.variant.id);
        // And enabled, it resolves.
        let cfg = startup_config_from(&good, "m", true, false);
        assert_eq!(cfg.variant.id, "scalar_8x4_u2");
        assert_eq!(cfg.kc, 384);
    }

    #[test]
    fn upsert_replaces_by_machine() {
        let mut entries = vec![entry("a", "scalar_4x8_u1", 256)];
        upsert(&mut entries, entry("b", "scalar_4x8_u2", 256));
        upsert(&mut entries, entry("a", "scalar_6x8_u1", 512));
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].variant, "scalar_6x8_u1");
        assert_eq!(entries[0].kc, 512);
    }

    #[test]
    fn default_config_blocking_matches_the_pretuning_constants() {
        // Re-pinned when the default became the 6×8 tile: MC a multiple of
        // 6, NC one full row of the benchmark's updates, KC where it was —
        // the one constant a factor bit depends on.
        let d = default_config();
        assert_eq!((d.kc, d.mc, d.nc), (256, 192, 1024));
        assert_eq!(
            (d.kc, d.mc, d.nc),
            (crate::pack::KC, crate::pack::MC, crate::pack::NC)
        );
        assert_eq!(d.kc, KC_MIN_EXACT);
        assert!(d.variant.exact());
        if crate::ukernel::Isa::Avx2.available() {
            assert_eq!(d.variant.id, "avx2_6x8_u2_pf0");
            assert_eq!(d.mc % d.variant.mr, 0);
        }
        let s = scalar_baseline();
        assert_eq!(s.variant.id, "scalar_4x8_u1");
        assert_eq!((s.kc, s.mc, s.nc), (d.kc, d.mc, d.nc));
    }

    #[test]
    fn with_override_nests_and_restores() {
        let base = active().variant.id;
        let forced = scalar_baseline();
        with_override(forced, || {
            assert_eq!(active().variant.id, "scalar_4x8_u1");
            let inner = KernelConfig { kc: 999, ..forced };
            with_override(inner, || assert_eq!(active().kc, 999));
            assert_eq!(active().kc, forced.kc);
        });
        assert_eq!(active().variant.id, base);
    }
}
