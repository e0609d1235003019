//! The traced pass: a few extra repetitions under `xmpi::trace::capture`,
//! turned by `xtrace::Timeline` into per-phase busy and wait times. The
//! program is traced from outside, around the driver call; end-to-end
//! timings never come from here.

use crate::stats::median;
use crate::workload::{Input, Sample};
use crate::Metric;
use xmpi::trace::{capture, TraceConfig};
use xtrace::Timeline;

/// Phase labels reported, in schedule order. `staging` is the unlabelled
/// span before a rank's first marker; `pivoting`, `bcast_a00` and
/// `reduce_pivots` are LU's, `potrf_bcast` is Cholesky's, and a phase a
/// workload does not run reports 0. The `_end` tail (a rank that finished
/// before the slowest one) is neither busy nor waiting and is not reported.
pub const PHASES: [&str; 9] = [
    "staging",
    "reduce_col",
    "pivoting",
    "bcast_a00",
    "reduce_pivots",
    "panel_trsm",
    "scatter_panels",
    "update_a11",
    "potrf_bcast",
];

/// Medians over the traced repetitions.
pub struct Traced {
    /// Wall-clock of the traced driver call.
    pub wall_s: f64,
    /// Last event time of the trace.
    pub makespan_s: f64,
    /// Per-rank mean seconds inside each of [`PHASES`] and not waiting.
    pub busy_s: [f64; PHASES.len()],
    /// Per-rank mean seconds of receive-waits that began in each phase.
    pub wait_s: [f64; PHASES.len()],
    /// Per-rank mean seconds inside outermost collective calls.
    pub coll_s: f64,
    /// Events recorded per repetition.
    pub events: f64,
}

struct Rep {
    sample: Sample,
    traced: Traced,
}

fn one_rep(input: &Input) -> Result<Rep, String> {
    let (outcome, traces) = capture(TraceConfig::default(), || input.factorize());
    let outcome = outcome?;
    let [trace] = traces.as_slice() else {
        return Err(format!(
            "driver launched {} worlds, expected 1",
            traces.len()
        ));
    };
    if trace.truncated() {
        return Err("trace ring overflowed".into());
    }
    let timeline = Timeline::build(trace);
    let ranks = timeline.ranks.len() as f64;
    let secs = |ns: u64| ns as f64 / 1e9;
    let phase_index = |label: &str| {
        let label = if label.is_empty() { "staging" } else { label };
        PHASES.iter().position(|p| *p == label)
    };
    let mut span_s = [0.0; PHASES.len()];
    let mut wait_s = [0.0; PHASES.len()];
    let mut coll_s = 0.0;
    for rank in &timeline.ranks {
        for span in &rank.phases {
            if let Some(i) = phase_index(&span.label) {
                span_s[i] += secs(span.end - span.start) / ranks;
            }
        }
        for wait in &rank.waits {
            if let Some(i) = phase_index(&wait.phase) {
                wait_s[i] += secs(wait.idle()) / ranks;
            }
        }
        coll_s += rank
            .colls
            .iter()
            .map(|c| secs(c.end - c.start))
            .sum::<f64>()
            / ranks;
    }
    let mut busy_s = span_s;
    for (busy, wait) in busy_s.iter_mut().zip(&wait_s) {
        *busy -= wait;
    }
    Ok(Rep {
        sample: Sample::of(&outcome),
        traced: Traced {
            wall_s: outcome.wall_s,
            makespan_s: secs(timeline.makespan),
            busy_s,
            wait_s,
            coll_s,
            events: trace.num_events() as f64,
        },
    })
}

/// Run `reps` traced repetitions of `input`; `admit` checks each result
/// against the reference and returns whether it counts.
pub fn pass(
    input: &Input,
    reps: usize,
    mut admit: impl FnMut(Result<Sample, String>) -> bool,
) -> Result<Traced, String> {
    let mut kept = Vec::new();
    for _ in 0..reps {
        let (sample, traced) = match one_rep(input) {
            Ok(rep) => (Ok(rep.sample), Some(rep.traced)),
            Err(e) => (Err(e), None),
        };
        if admit(sample) {
            kept.extend(traced);
        }
    }
    if kept.is_empty() {
        return Err("no traced repetition succeeded".into());
    }
    let med = |f: &dyn Fn(&Traced) -> f64| median(&kept.iter().map(f).collect::<Vec<f64>>());
    Ok(Traced {
        wall_s: med(&|t| t.wall_s),
        makespan_s: med(&|t| t.makespan_s),
        busy_s: std::array::from_fn(|i| med(&|t| t.busy_s[i])),
        wait_s: std::array::from_fn(|i| med(&|t| t.wait_s[i])),
        coll_s: med(&|t| t.coll_s),
        events: med(&|t| t.events),
    })
}

impl Traced {
    /// The per-layer metrics derived from the trace. `untraced_wall_s` is
    /// the median wall of the same in-process run without tracing.
    pub fn metrics(&self, untraced_wall_s: f64, out: &mut Vec<Metric>) {
        for (i, phase) in PHASES.iter().enumerate() {
            out.push(Metric::new(
                &format!("factor.phase.{phase}.busy_s"),
                self.busy_s[i],
                "s",
            ));
        }
        out.push(Metric::new(
            "factor.host_s",
            self.wall_s - self.makespan_s,
            "s",
        ));
        for (i, phase) in PHASES.iter().enumerate() {
            out.push(Metric::new(
                &format!("xmpi.phase.{phase}.wait_s"),
                self.wait_s[i],
                "s",
            ));
        }
        // Σ wait ÷ (P · makespan), with the waits already averaged over P.
        let wait_share = self.wait_s.iter().sum::<f64>() / self.makespan_s;
        out.push(Metric::new("xmpi.wait_share", wait_share, "ratio"));
        out.push(Metric::new("xmpi.coll_s", self.coll_s, "s"));
        out.push(Metric::new(
            "xtrace.overhead_ratio",
            self.wall_s / untraced_wall_s,
            "ratio",
        ));
        out.push(Metric::new("xtrace.events", self.events, "count"));
    }
}
