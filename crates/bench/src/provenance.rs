//! Unified provenance stamping for every host-clock measurement the
//! harness writes (`BENCH_{kernels,comm,transport,recovery}.json`).
//!
//! A performance number with no record of *which code, which machine,
//! when* produced it is unverifiable the moment the next commit lands.
//! Every writer therefore emits the same header built here: git commit,
//! machine fingerprint and ISO-8601 UTC timestamp.

use serde_json::{json, Value};
use std::time::{SystemTime, UNIX_EPOCH};

/// The shared provenance header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// Git `HEAD` of the producing checkout (`"unknown"` outside git).
    pub commit: String,
    /// Machine fingerprint, e.g. `linux-x86_64-c8-buildhost`.
    pub machine: String,
    /// ISO-8601 UTC timestamp, second resolution.
    pub timestamp: String,
    /// Seconds since the UNIX epoch (the sortable form of `timestamp`).
    pub unix_secs: u64,
}

impl Stamp {
    /// Stamp for a run happening right now on this machine.
    pub fn here() -> Stamp {
        let unix_secs = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Stamp {
            commit: xtrace::git_head(),
            machine: machine_fingerprint(),
            timestamp: iso_timestamp(unix_secs),
            unix_secs,
        }
    }

    /// The header object embedded in every JSON artifact.
    pub fn to_json(&self) -> Value {
        json!({
            "commit": self.commit,
            "machine": self.machine,
            "timestamp": self.timestamp,
            "unix_secs": self.unix_secs,
        })
    }
}

/// `{os}-{arch}-c{cpus}-{hostname}`, the `machine` field of every stamp.
/// Commas and whitespace are replaced, so the fingerprint is one token.
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
        "{}-{}-c{}-{}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        cpus,
        host
    )
}

/// Seconds-since-epoch → `YYYY-MM-DDThh:mm:ssZ` (proleptic Gregorian,
/// Hinnant's `civil_from_days`). Hand-rolled because the build environment
/// has no date-time crate.
fn iso_timestamp(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let secs = unix_secs % 86_400;
    let (y, m, d) = civil_from_days(days);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}

fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso_timestamps_hit_known_instants() {
        assert_eq!(iso_timestamp(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso_timestamp(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso_timestamp(1_700_000_000), "2023-11-14T22:13:20Z");
        assert_eq!(iso_timestamp(4_102_444_799), "2099-12-31T23:59:59Z");
    }

    #[test]
    fn fingerprint_is_csv_safe() {
        let f = machine_fingerprint();
        assert!(!f.contains(','), "{f}");
        assert!(!f.contains(char::is_whitespace), "{f}");
        assert!(f.starts_with(std::env::consts::OS));
    }

    #[test]
    fn stamp_serializes_with_all_fields() {
        let s = Stamp::here();
        let v = s.to_json();
        assert_eq!(v["unix_secs"].as_u64(), Some(s.unix_secs));
        assert!(v["machine"]
            .as_str()
            .unwrap()
            .starts_with(std::env::consts::OS));
        assert!(v["timestamp"].as_str().unwrap().ends_with('Z'));
        assert!(!v["commit"].as_str().unwrap().is_empty());
    }
}
