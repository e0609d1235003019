//! Auto-tune the dense microkernel + cache blocking for this machine
//! (`bench tune` mode; methodology in `docs/TUNING.md`).
//!
//! Runs the two-stage sweep in [`bench::tune`] — all runnable microkernel
//! variants at default blocking, then a (KC, MC, NC) grid over the
//! finalists — verifies the winner is bitwise-equal to the scalar
//! baseline, and merges it into the per-machine tuning registry that
//! `dense::tuning` dispatches from at startup.
//!
//! ```text
//! tune [--quick] [--n 512] [--reps 3] [--fma] [--registry registry/tuning.json]
//!      [--dry-run] [--min-speedup 1.5]
//! ```
//!
//! `--quick` shrinks the blocking grid for CI; `--fma` admits the inexact
//! fused-multiply-add variants (the entry is stored with `exact = false`
//! and ignored by dispatch unless `CONFLUX_TUNING_ALLOW_INEXACT=1`);
//! `--dry-run` sweeps and reports without touching the registry;
//! `--min-speedup` exits nonzero if the winner fails to beat the
//! forced-scalar baseline by the given factor (a self-test for the sweep).

use bench::table::render;
use bench::tune::{tune, TuneOptions};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    opts: TuneOptions,
    registry: String,
    dry_run: bool,
    min_speedup: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        opts: TuneOptions::default(),
        registry: dense::tuning::DEFAULT_REGISTRY_PATH.into(),
        dry_run: false,
        min_speedup: None,
    };
    let mut n_explicit = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--quick" => args.opts.quick = true,
            "--fma" => args.opts.allow_fma = true,
            "--dry-run" => args.dry_run = true,
            "--n" => {
                args.opts.n = value("--n")?.parse().map_err(|e| format!("bad --n: {e}"))?;
                n_explicit = true;
            }
            "--reps" => {
                args.opts.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("bad --reps: {e}"))?;
            }
            "--registry" => args.registry = value("--registry")?,
            "--min-speedup" => {
                args.min_speedup = Some(
                    value("--min-speedup")?
                        .parse()
                        .map_err(|e| format!("bad --min-speedup: {e}"))?,
                );
            }
            "--help" | "-h" => {
                return Err("usage: tune [--quick] [--n N] [--reps R] [--fma] \
                            [--registry PATH] [--dry-run] [--min-speedup X]"
                    .into())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    // --quick probes at 256 unless the user pinned a size explicitly.
    if args.opts.quick && !n_explicit {
        args.opts.n = 256;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let machine = dense::tuning::machine_fingerprint();
    println!(
        "tuning {} (probe n={}, reps={}, {} grid{})",
        machine,
        args.opts.n,
        args.opts.reps,
        if args.opts.quick { "quick" } else { "full" },
        if args.opts.allow_fma { ", +fma" } else { "" },
    );

    let outcome = match tune(&args.opts) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("tuning failed: {msg}");
            return ExitCode::FAILURE;
        }
    };

    // Top candidates, best first.
    let mut ranked = outcome.candidates.clone();
    ranked.sort_by(|a, b| b.rates.score().total_cmp(&a.rates.score()));
    let rows: Vec<Vec<String>> = ranked
        .iter()
        .take(10)
        .map(|c| {
            vec![
                c.config.variant.id.to_string(),
                c.config.kc.to_string(),
                c.config.mc.to_string(),
                c.config.nc.to_string(),
                c.stage.to_string(),
                format!("{:.2}", c.rates.gflops),
                format!("{:.2}", c.rates.update_gflops),
                format!("{:.2}", c.rates.score()),
            ]
        })
        .collect();
    let update = format!("update k={}", bench::tune::update_depth(args.opts.n));
    println!(
        "{}",
        render(
            &[
                "variant",
                "kc",
                "mc",
                "nc",
                "stage",
                "cube GF/s",
                &update,
                "score"
            ],
            &rows
        )
    );
    println!(
        "winner: {} at {:.2} GF/s on the cube, {:.2} on the update — {:.2}x over the forced-scalar baseline ({:.2} GF/s), {} candidates timed",
        outcome.best.describe(),
        outcome.best_rates.gflops,
        outcome.best_rates.update_gflops,
        outcome.speedup(),
        outcome.scalar_gflops,
        outcome.candidates.len(),
    );

    if args.dry_run {
        println!("(dry run: registry untouched)");
    } else {
        match bench::tune::persist(&outcome, Path::new(&args.registry)) {
            Ok(entry) => println!(
                "wrote {} entry for {} (commit {})",
                args.registry,
                entry.machine,
                &entry.commit[..entry.commit.len().min(12)]
            ),
            Err(msg) => {
                eprintln!("could not persist: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(min) = args.min_speedup {
        let got = outcome.speedup();
        if got < min {
            eprintln!("FAIL: tuned speedup {got:.2}x is below the {min:.2}x gate");
            return ExitCode::FAILURE;
        }
        println!("tuned speedup gate: {got:.2}x >= {min:.2}x — ok");
    }
    ExitCode::SUCCESS
}
