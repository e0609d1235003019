//! The one check of a host-clock number against its bound.
//!
//! Each experiment of the `floors` bin (`experiments::{kernels, comm,
//! transport, recovery}`) measures one fixed shape and holds each number it
//! gates to a [`Floor`] constant declared beside the code that measures it,
//! with the reason for its value. Only numbers with no exact counterpart
//! carry a floor: speedups and rates timed in one process. Per-rank bytes
//! are pinned exactly in `results/golden_volumes.json`, and every figure by
//! the committed `results/` files.

use std::fmt;

/// Which side of a value a number must stay on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// At least this much.
    Min(f64),
    /// At most this much.
    Max(f64),
}

impl Bound {
    fn holds(self, value: f64) -> bool {
        match self {
            Bound::Min(min) => value >= min,
            Bound::Max(max) => value <= max,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Min(min) => write!(f, ">= {min}"),
            Bound::Max(max) => write!(f, "<= {max}"),
        }
    }
}

/// A gated number's name and the bound it is held to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Floor {
    /// The number's name, as the report and the output spell it.
    pub name: &'static str,
    /// The bound.
    pub bound: Bound,
}

/// Every measured `(floor, value)` whose value breaks its bound, as a line
/// naming the number, its value and the bound. A NaN breaks every bound.
fn breaches(gated: &[(Floor, f64)]) -> Vec<String> {
    gated
        .iter()
        .filter(|(floor, value)| !floor.bound.holds(*value))
        .map(|(floor, value)| {
            format!(
                "{} = {value:.4} breaks its bound {}",
                floor.name, floor.bound
            )
        })
        .collect()
}

/// What the `floors` bin prints: each gated number with its value and its
/// bound, then a `BREACH:` line for each number past its bound. `Err`
/// carries the same text when there is any breach.
pub fn verdict(gated: &[(Floor, f64)]) -> Result<String, String> {
    let mut text = String::new();
    for (floor, value) in gated {
        text += &format!("{:<24} {value:>12.4}   bound {}\n", floor.name, floor.bound);
    }
    let breaches = breaches(gated);
    for breach in &breaches {
        text += &format!("BREACH: {breach}\n");
    }
    if breaches.is_empty() {
        Ok(text)
    } else {
        Err(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{comm, kernels, recovery, transport};

    const FLOOR: Floor = Floor {
        name: "gemm_speedup",
        bound: Bound::Min(2.0),
    };
    const CEILING: Floor = Floor {
        name: "overhead",
        bound: Bound::Max(0.1),
    };

    #[test]
    fn a_value_past_its_bound_is_a_breach_that_names_the_number_and_the_bound() {
        assert_eq!(
            breaches(&[(FLOOR, 1.5), (CEILING, 0.25)]),
            [
                "gemm_speedup = 1.5000 breaks its bound >= 2",
                "overhead = 0.2500 breaks its bound <= 0.1",
            ]
        );
        assert_eq!(breaches(&[(FLOOR, f64::NAN)]).len(), 1);
        assert_eq!(breaches(&[(CEILING, f64::NAN)]).len(), 1);
    }

    #[test]
    fn values_on_or_inside_their_bounds_are_clean() {
        for value in [2.0, 2.5, f64::INFINITY] {
            assert!(breaches(&[(FLOOR, value)]).is_empty(), "{value}");
        }
        for value in [0.1, 0.0, -0.05] {
            assert!(breaches(&[(CEILING, value)]).is_empty(), "{value}");
        }
    }

    /// The bin's verdict: a breached min fails it, and the `BREACH:` line
    /// names the number, its value and the bound; with every bound held it
    /// passes, still printing each number with its bound.
    #[test]
    fn a_breached_min_fails_the_verdict_and_names_the_number_and_the_bound() {
        let text = verdict(&[(FLOOR, 1.5), (CEILING, 0.05)]).unwrap_err();
        let breach: Vec<_> = text.lines().filter(|l| l.starts_with("BREACH: ")).collect();
        assert_eq!(
            breach,
            ["BREACH: gemm_speedup = 1.5000 breaks its bound >= 2"],
            "{text}"
        );
        let text = verdict(&[(FLOOR, 2.5), (CEILING, 0.05)]).unwrap();
        assert!(!text.contains("BREACH"), "{text}");
        for line in ["gemm_speedup", "bound >= 2", "overhead", "bound <= 0.1"] {
            assert!(text.contains(line), "{line}: {text}");
        }
    }

    /// Every floor, by name and value: a bound moves only in a change that
    /// says so.
    #[test]
    fn every_floor_is_pinned_by_value() {
        use Bound::{Max, Min};
        let floors = [
            kernels::GEMM_SPEEDUP,
            kernels::TUNED_SPEEDUP,
            kernels::UPDATE_VS_GEMM,
            comm::BCAST_SPEEDUP,
            transport::GBPS_LOCAL,
            transport::GBPS_SOCKET,
            transport::SOCKET_OVER_LOCAL_ALPHA,
            recovery::CHECKSUM_OVERHEAD,
        ];
        let pinned = [
            ("gemm_speedup", Min(2.0)),
            ("tuned_speedup", Min(1.5)),
            ("update_vs_gemm", Min(0.70)),
            ("bcast_speedup", Min(5.0)),
            ("gbps_local", Min(0.05)),
            ("gbps_socket", Min(0.005)),
            ("socket_over_local_alpha", Max(10000.0)),
            ("checksum_overhead_frac", Max(0.10)),
        ];
        for (floor, (name, bound)) in floors.iter().zip(pinned) {
            assert_eq!(*floor, Floor { name, bound });
        }
    }
}
