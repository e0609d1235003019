//! `floors kernels|comm|transport|recovery` — run one host-clock
//! experiment at its fixed shape, write its `results/BENCH_<x>.json`
//! (relative to the working directory), print each gated number with its
//! bound, and exit nonzero naming every number past its bound.
//!
//! The shapes and the bounds are constants of the experiments
//! (`bench::experiments::{kernels, comm, transport, recovery}`), each bound
//! beside the code that measures its number, with its reason.

use bench::experiments::{comm, kernels, recovery, transport, Report};
use bench::floor::{verdict, Floor};
use std::process::ExitCode;

const USAGE: &str = "usage: floors kernels|comm|transport|recovery";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (gated, report): (Vec<(Floor, f64)>, Report) =
        match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
            ["kernels"] => {
                let run = kernels::run();
                (run.gated(), run.report)
            }
            ["comm"] => {
                let run = comm::run();
                (run.gated(), run.report)
            }
            ["transport"] => {
                let run = transport::run();
                (run.gated(), run.report)
            }
            ["recovery"] => {
                let run = recovery::run();
                (run.gated(), run.report)
            }
            ["--help" | "-h"] => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        };
    report.emit();
    match verdict(&gated) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(text) => {
            print!("{text}");
            ExitCode::FAILURE
        }
    }
}
