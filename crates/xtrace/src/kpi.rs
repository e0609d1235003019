//! Public KPI extraction over recorded timelines.
//!
//! Every reader of a trace needs the same small set of schedule-quality
//! numbers from a [`WorldTrace`]: how idle the ranks were, and how much of
//! the makespan sat on the critical path. This module is the one place
//! those are defined, so two reports of them can never disagree on
//! semantics.
//!
//! All times are host-clock nanoseconds from the recorder — useful for
//! *structure* (fractions, attribution), not wall-clock claims. The
//! deterministic performance KPIs (simulated time, volume vs. bound) are
//! computed by the consumer from [`xmpi::WorldStats`]; this module covers
//! the trace-only ones.

use crate::critpath::{critical_path, path_length};
use crate::timeline::Timeline;
use xmpi::WorldTrace;

/// Schedule-quality KPIs derived from one recorded trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceKpis {
    /// Number of ranks in the traced world.
    pub ranks: usize,
    /// Last event time across the world (ns).
    pub makespan_ns: u64,
    /// Total receive-wait (idle) nanoseconds summed over ranks.
    pub total_wait_ns: u64,
    /// Idle fraction of the world: `total_wait / (ranks · makespan)`,
    /// in `[0, 1]`. Zero for an empty or single-event trace.
    pub idle_frac: f64,
    /// Length of the critical path through the send/receive
    /// happens-before graph (ns).
    pub critpath_ns: u64,
    /// Critical-path length as a fraction of the makespan. Can exceed 1
    /// only on degenerate traces (it is clamped to the measured values,
    /// not post-processed).
    pub critpath_frac: f64,
}

/// Extract [`TraceKpis`] from a recorded trace.
pub fn trace_kpis(trace: &WorldTrace) -> TraceKpis {
    let tl = Timeline::build(trace);
    let path = critical_path(trace);
    let cp = path_length(&path);
    let ranks = tl.ranks.len();
    let wait = tl.total_wait();
    let denom = (ranks as u64).saturating_mul(tl.makespan);
    TraceKpis {
        ranks,
        makespan_ns: tl.makespan,
        total_wait_ns: wait,
        idle_frac: if denom == 0 {
            0.0
        } else {
            wait as f64 / denom as f64
        },
        critpath_ns: cp,
        critpath_frac: if tl.makespan == 0 {
            0.0
        } else {
            cp as f64 / tl.makespan as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kpis_from_a_real_run_are_sane() {
        let (_, traces) = xmpi::trace::capture(xmpi::TraceConfig::default(), || {
            xmpi::run(2, |c| {
                c.set_phase("exchange");
                if c.world_rank() == 0 {
                    c.send_f64(1, 9, &[1.0; 64]);
                } else {
                    let _ = c.recv_f64(0, 9);
                }
                c.barrier();
            })
        });
        let k = trace_kpis(&traces[0]);
        assert_eq!(k.ranks, 2);
        assert!(k.makespan_ns > 0);
        assert!((0.0..=1.0).contains(&k.idle_frac), "{}", k.idle_frac);
        assert!(k.critpath_ns <= k.makespan_ns);
        assert!(k.critpath_frac <= 1.0 + 1e-12);
    }

    #[test]
    fn empty_trace_is_all_zeros() {
        let k = trace_kpis(&WorldTrace::default());
        assert_eq!(k.ranks, 0);
        assert_eq!(k.idle_frac, 0.0);
        assert_eq!(k.critpath_frac, 0.0);
    }
}
