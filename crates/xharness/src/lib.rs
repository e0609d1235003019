//! `xharness` — deterministic schedule-perturbation and fault-injection
//! testing for the simulated runtime.
//!
//! **Paper map** (Kwasniewski et al., SC'21): the paper's volume claims —
//! `2N³/(3P√M)` for COnfLUX, `N³/(3P√M)` for COnfCHOX — are *exact byte
//! counts*, measured here by `xmpi`. But a schedule can match the count
//! under the one thread interleaving a test run happens to see and still
//! harbor ordering bugs (tournament pivoting and the z-fibre reductions are
//! the sensitive spots; see Tang's reexamination of COnfLUX, arXiv:2404.06713).
//! This crate makes the interleaving adversarial *and reproducible*:
//!
//! * [`Perturbator`] implements [`xmpi::SchedHooks`], injecting in-flight
//!   message delays, dropped-then-retransmitted first transmissions,
//!   receive stalls, and phase-boundary rank skews, plus the hard faults:
//!   one-shot rank crashes and payload corruptions ([`CrashPlan`],
//!   [`CorruptPlan`]) and, on the wire, torn frames, mid-frame connection
//!   resets and silently hung ranks ([`PerturbConfig::chaos`],
//!   [`ResetPlan`], [`HangPlan`]) — every decision a pure function of one
//!   `u64` seed and the decision's channel identity, so a failing seed
//!   replays its exact fault pattern (the `perturb` module documents the
//!   determinism model);
//! * [`run_perturbed`] wraps an unmodified driver (anything that calls
//!   [`xmpi::run`] internally) in a seeded perturbation; a caller-built
//!   [`Perturbator`] is armed with [`xmpi::with_hooks`] directly, and
//!   [`xmpi::trace::capture`] around either records the event trace for
//!   the [`xtrace::invariants`] checkers;
//! * [`check_golden`] pins per-rank/per-phase byte counts to committed golden
//!   JSON, so traffic changes are explicit diffs, never silent drift;
//! * [`seeds`] reads the `XHARNESS_SEEDS` environment variable so CI can
//!   widen the sweep and a developer can replay one failing seed.
//!
//! The conformance contract a perturbed run must uphold (asserted by
//! `crates/factor/tests/conformance.rs`): bitwise-identical factors,
//! bitwise-identical per-rank and per-phase byte counts, clean runtime
//! invariants, and residuals/volumes within the paper's bounds.

#![warn(missing_docs, unreachable_pub)]

mod golden;
mod perturb;
mod rng;

pub use golden::{check_golden, golden_mode, snapshot, GoldenMode};
pub use perturb::{CorruptPlan, CrashPlan, HangPlan, PerturbConfig, Perturbator, ResetPlan};

use std::sync::Arc;

/// Run `f` with a seeded [`Perturbator`] armed on this thread: every world
/// `f` launches (directly or deep inside a factorization driver) has the
/// perturbation hooks installed. Results must be bitwise-independent of the
/// seed — that is the property the conformance suite exists to check.
///
/// # Replaying a failing crash seed locally
///
/// A fault-injection run arms a caller-built [`Perturbator`] with
/// [`xmpi::with_hooks`], because the instance matters: its one-shot crash,
/// corruption, reset and hang latches span every world the closure
/// launches, so a fault-tolerant driver that crashes one world and restarts
/// another gets exactly one injected fault across the whole attempt
/// sequence, and the test can assert `perturbator.crash_fired()` afterwards.
/// The `faults` CI job prints the failing seed; replay it by pinning the
/// seed and re-arming the same crash preset:
///
/// ```
/// use std::sync::Arc;
/// use xharness::{CrashPlan, PerturbConfig, Perturbator};
///
/// let seed = 17; // the failing seed from CI / results/faults_failure.json
/// let p = 4; // world size of the failing test
/// // The crash preset: the seed derives a non-root victim and the send
/// // index it dies at (the conformance suite uses the same construction,
/// // so the kill replays exactly — same victim, same logical instant).
/// let plan = CrashPlan::from_seed(seed, p, 8);
/// let perturbator =
///     Arc::new(Perturbator::new(PerturbConfig::new(seed)).with_crash(plan));
/// let out = xmpi::with_hooks(perturbator.clone(), || {
///     xmpi::run_ft(p, |c| {
///         // ... the failing driver; `factor::conflux_lu_ft` in the real
///         // test. Here: everyone streams ten messages to the root.
///         if c.rank() > 0 {
///             for i in 0..10 {
///                 c.send_f64(0, i, &[c.rank() as f64]);
///             }
///         } else {
///             for src in 1..c.size() {
///                 for i in 0..10 {
///                     if c.try_recv_f64(src, i).is_err() {
///                         break;
///                     }
///                 }
///             }
///         }
///     })
/// });
/// assert_eq!(out.crashed, vec![plan.victim]);
/// assert!(perturbator.crash_fired());
/// ```
pub fn run_perturbed<R>(cfg: &PerturbConfig, f: impl FnOnce() -> R) -> R {
    xmpi::with_hooks(Arc::new(Perturbator::new(cfg.clone())), f)
}

/// The perturbation-seed matrix, from the `XHARNESS_SEEDS` environment
/// variable:
///
/// * unset/empty — `0..default_count` (the tier-1 quick sweep);
/// * a number `N` — seeds `0..N` (CI's stress job sets `32`);
/// * a comma-separated list `17,3` — exactly those seeds (replaying a
///   failure).
///
/// # Panics
/// If the variable is set but unparseable — a typo'd replay must not
/// silently fall back to the default sweep.
pub fn seeds(default_count: u64) -> Vec<u64> {
    match std::env::var("XHARNESS_SEEDS") {
        Err(_) => (0..default_count).collect(),
        Ok(s) if s.trim().is_empty() => (0..default_count).collect(),
        Ok(s) => parse_seeds(&s).unwrap_or_else(|| {
            panic!("XHARNESS_SEEDS={s:?} is neither a count nor a comma-separated seed list")
        }),
    }
}

fn parse_seeds(s: &str) -> Option<Vec<u64>> {
    let s = s.trim();
    if let Some(list) = s.strip_prefix("list:") {
        // Explicit list form, unambiguous even for a single seed.
        return list.split(',').map(|t| t.trim().parse().ok()).collect();
    }
    if s.contains(',') {
        return s.split(',').map(|t| t.trim().parse().ok()).collect();
    }
    s.parse::<u64>().ok().map(|n| (0..n).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtrace::invariants::{check_stats_equal, check_trace};

    /// The driver every integration test perturbs: a little SPMD program
    /// exercising p2p, collectives, and phases.
    fn driver(p: usize) -> (Vec<f64>, xmpi::WorldStats) {
        let out = xmpi::run(p, |c| {
            c.set_phase("exchange");
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.send_f64(right, 1, &[c.rank() as f64 + 0.5]);
            let got = c.recv_f64(left, 1);
            c.set_phase("reduce");
            let mut v = vec![got[0]];
            c.allreduce_sum(&mut v);
            c.barrier();
            v[0]
        });
        (out.results, out.stats)
    }

    /// Perturbed runs must be bitwise result- and volume-identical to the
    /// unperturbed baseline, for every seed.
    #[test]
    fn perturbation_changes_nothing_observable() {
        let (base_results, base_stats) = driver(4);
        for seed in 0..6 {
            let cfg = PerturbConfig::aggressive(seed);
            let (results, stats) = run_perturbed(&cfg, || driver(4));
            assert_eq!(
                results.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                base_results.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "seed {seed} changed results"
            );
            let drift = check_stats_equal(&base_stats, &stats);
            assert!(drift.is_empty(), "seed {seed} drifted: {drift:?}");
        }
    }

    /// A perturbed *and traced* run must uphold the runtime invariants —
    /// faults shift the schedule, never the contract.
    #[test]
    fn perturbed_traces_satisfy_invariants() {
        for seed in [0, 13] {
            let cfg = PerturbConfig::aggressive(seed);
            let (_, traces) = xmpi::trace::capture(xmpi::TraceConfig::default(), || {
                run_perturbed(&cfg, || driver(4))
            });
            assert_eq!(traces.len(), 1);
            let report = check_trace(&traces[0]);
            report.assert_clean();
        }
    }

    /// Dropped-then-retransmitted messages must still arrive in channel
    /// order at blocking receives.
    #[test]
    fn drops_preserve_channel_fifo() {
        let mut cfg = PerturbConfig::aggressive(42);
        cfg.drop_prob = 0.5; // every other message loses its first transmission
        let out = run_perturbed(&cfg, || {
            xmpi::run(2, |c| {
                if c.rank() == 0 {
                    for i in 0..16 {
                        c.send_f64(1, 3, &[i as f64]);
                    }
                    vec![]
                } else {
                    (0..16).map(|_| c.recv_f64(0, 3)[0]).collect()
                }
            })
        });
        let expect: Vec<f64> = (0..16).map(|i| i as f64).collect();
        assert_eq!(out.results[1], expect);
    }

    #[test]
    fn seed_list_parsing() {
        assert_eq!(parse_seeds("4"), Some(vec![0, 1, 2, 3]));
        assert_eq!(parse_seeds("17,3"), Some(vec![17, 3]));
        assert_eq!(parse_seeds("list:9"), Some(vec![9]));
        assert_eq!(parse_seeds(" 1 , 2 "), Some(vec![1, 2]));
        assert_eq!(parse_seeds("banana"), None);
    }
}
