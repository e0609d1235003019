//! Fault-tolerance overhead report (`bench recovery` mode).
//!
//! Answers the two costs a production deployment of the fault-tolerant
//! schedules would ask about:
//!
//! 1. **Fault-free checksum tax** — wall time of `conflux_lu_ft` with ABFT
//!    checksums on vs off (checkpointing disabled in both, so the delta is
//!    the encoding/verification cost alone). The run exits nonzero if the
//!    overhead exceeds `--max-overhead` (default 10%), which is the CI gate
//!    keeping the protection affordable.
//! 2. **Crash recovery accounting** — a deterministic mid-panel rank kill
//!    (via `xharness::CrashPlan`) on a checkpointing run: restarts, the
//!    resumed epoch, checkpoint-ring and recovery bytes (attributed to their
//!    own phases, outside the algorithmic volume), and bitwise identity of
//!    the recovered factors against the fault-free run.
//!
//! Writes `results/BENCH_recovery.json`.
//!
//! ```text
//! recovery [--n 512] [--p 16] [--reps 3] [--out results] [--max-overhead 0.10]
//! ```

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use dense::gen::random_matrix;
use dense::norms::lu_residual_perm;
use factor::{conflux_lu_ft, FtConfig, FtLuOutput};
use serde_json::json;
use xharness::{CrashPlan, PerturbConfig, Perturbator};

struct Args {
    n: usize,
    p: usize,
    reps: usize,
    out: String,
    max_overhead: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: 512,
        p: 16,
        reps: 3,
        out: "results".into(),
        max_overhead: 0.10,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--n" => args.n = value("--n")?.parse().map_err(|e| format!("bad --n: {e}"))?,
            "--p" => args.p = value("--p")?.parse().map_err(|e| format!("bad --p: {e}"))?,
            "--reps" => {
                args.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("bad --reps: {e}"))?;
            }
            "--out" => args.out = value("--out")?,
            "--max-overhead" => {
                args.max_overhead = value("--max-overhead")?
                    .parse()
                    .map_err(|e| format!("bad --max-overhead: {e}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: recovery [--n N] [--p P] [--reps R] [--out DIR] [--max-overhead F]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Best-of-`reps` wall time for one configuration (min absorbs scheduler
/// noise the way the kernel benchmarks do).
fn time_best(reps: usize, f: impl Fn() -> FtLuOutput) -> (f64, FtLuOutput) {
    let mut best: Option<(f64, FtLuOutput)> = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(b, _)| dt < *b) {
            best = Some((dt, out));
        }
    }
    best.expect("reps >= 1")
}

fn bitwise_eq(a: &dense::Matrix, b: &dense::Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let (n, p) = (args.n, args.p);
    let a = random_matrix(n, n, 4242);
    let cfg = FtConfig::auto(n, p);
    let grid = cfg.grid;
    println!(
        "recovery: n={n}, p={p} (grid {}x{}x{}, v={}), {} reps",
        grid.px, grid.py, grid.pz, cfg.v, args.reps
    );

    // ---- 1. Fault-free checksum tax (checkpointing off in both arms) ----
    let plain_cfg = cfg.clone().checkpoint_every(0).no_checksums();
    let ck_cfg = cfg.clone().checkpoint_every(0);
    let (t_plain, out_plain) = time_best(args.reps, || {
        conflux_lu_ft(&plain_cfg, &a).expect("plain run")
    });
    let (t_ck, out_ck) = time_best(args.reps, || {
        conflux_lu_ft(&ck_cfg, &a).expect("checksummed run")
    });
    let overhead = t_ck / t_plain - 1.0;
    println!(
        "  fault-free: plain {t_plain:.3}s, checksummed {t_ck:.3}s  ->  overhead {:+.1}%",
        overhead * 100.0
    );
    assert!(
        bitwise_eq(&out_plain.packed, &out_ck.packed) && out_plain.perm == out_ck.perm,
        "checksums must not change the factors"
    );
    let resid = lu_residual_perm(&a, &out_ck.packed, &out_ck.perm);
    assert!(resid < 1e-12, "fault-free residual {resid:e}");

    // ---- 2. Crash recovery accounting (checkpointing on) ---------------
    // A mid-panel kill: far enough in that several ring checkpoints exist,
    // so the restart resumes from one instead of recomputing from scratch.
    let plan = CrashPlan {
        victim: 1,
        after_sends: 100,
    };
    let ft_cfg = cfg.clone();
    let base = conflux_lu_ft(&ft_cfg, &a).expect("fault-free checkpointing run");
    let pert = Arc::new(Perturbator::new(PerturbConfig::new(0)).with_crash(plan));
    let t0 = Instant::now();
    let crashed = xmpi::with_hooks(pert.clone(), || {
        conflux_lu_ft(&ft_cfg, &a).expect("crashed run must complete")
    });
    let t_crash = t0.elapsed().as_secs_f64();
    assert!(pert.crash_fired(), "planned crash never fired");
    assert!(
        bitwise_eq(&crashed.packed, &base.packed) && crashed.perm == base.perm,
        "recovered factors must match the fault-free run bitwise"
    );
    println!(
        "  crash: victim {} at send {}, {} restart(s), resumed from epoch {:?}",
        plan.victim, plan.after_sends, crashed.report.restarts, crashed.report.resumed_from
    );
    println!(
        "  traffic: ckpt {} B, recovery {} B, algorithmic {:.0} words/rank",
        crashed.report.ckpt_bytes(),
        crashed.report.recovery_bytes(),
        crashed.report.algo_avg_rank_bytes() / 16.0
    );

    let report = json!({
        "provenance": bench::provenance::Stamp::here().to_json(),
        "n": n,
        "p": p,
        "grid": [grid.px, grid.py, grid.pz],
        "v": cfg.v,
        "reps": args.reps,
        "fault_free": {
            "walltime_plain_s": t_plain,
            "walltime_checksummed_s": t_ck,
            "checksum_overhead_frac": overhead,
            "max_overhead_frac": args.max_overhead,
            "residual": resid,
            "bitwise_identical_on_off": true,
        },
        "crash": {
            "victim": plan.victim,
            "after_sends": plan.after_sends,
            "restarts": crashed.report.restarts,
            "resumed_from": crashed.report.resumed_from,
            "walltime_s": t_crash,
            "ckpt_bytes": crashed.report.ckpt_bytes(),
            "recovery_bytes": crashed.report.recovery_bytes(),
            "algo_words_per_rank": crashed.report.algo_avg_rank_bytes() / 16.0,
            "bitwise_identical_to_fault_free": true,
        },
    });
    let dir = Path::new(&args.out);
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = dir.join("BENCH_recovery.json");
    std::fs::write(&path, serde_json::to_string_pretty(&report).unwrap() + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  wrote {}", path.display());

    if overhead > args.max_overhead {
        eprintln!(
            "recovery FAILURE: checksum overhead {:.1}% exceeds the {:.1}% budget",
            overhead * 100.0,
            args.max_overhead * 100.0
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
