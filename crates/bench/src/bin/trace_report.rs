//! Trace one factorization run and report its profile.
//!
//! Runs the chosen algorithm as the cell `algo × n × p` (automatic grid and
//! block) through `bench::ablate::run_cell` — traced, under its fixed seed-0
//! schedule perturbation, on the input matrix `--seed` picks — then:
//!
//! * writes `chrome.json` (open in Perfetto / `chrome://tracing`) and
//!   `profile.json` (provenance-stamped profile report) to `--out`;
//! * prints the per-phase and per-collective traffic tables — the same
//!   decomposition Table 1 of the paper reports per routine — plus idle-time
//!   attribution and the α-β-γ replay's predicted time-to-solution.
//!
//! Usage:
//!   trace_report [--algo conflux|confchox|twod-lu|twod-chol|lu25d] [--n N] [--p P]
//!                [--seed S] [--out DIR] [--pretty]

use std::collections::BTreeMap;

use bench::ablate::{run_cell, Algo, Cell};
use bench::table::{human_bytes, render};
use serde_json::json;
use xtrace::profile::{coll_bytes_from_trace, phase_bytes_from_trace};
use xtrace::{
    chrome_trace, critical_path, path_length, profile_report, replay, Machine, Provenance, Timeline,
};

struct Args {
    algo: Algo,
    n: usize,
    p: usize,
    seed: u64,
    out: Option<String>,
    pretty: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        algo: Algo::Conflux,
        n: 256,
        p: 8,
        seed: 0,
        out: None,
        pretty: false,
    };
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--algo" => {
                let name = val("--algo");
                args.algo = Algo::from_name(&name).unwrap_or_else(|| {
                    panic!("unknown --algo {name:?} (conflux|confchox|twod-lu|twod-chol|lu25d)")
                });
            }
            "--n" => args.n = val("--n").parse().expect("--n: integer"),
            "--p" => args.p = val("--p").parse().expect("--p: integer"),
            "--seed" => args.seed = val("--seed").parse().expect("--seed: integer"),
            "--out" => args.out = Some(val("--out")),
            "--pretty" => args.pretty = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: trace_report [--algo conflux|confchox|twod-lu|twod-chol|lu25d] \
                     [--n N] [--p P] [--seed S] [--out DIR] [--pretty]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// `v` as `--pretty` asks for it.
fn dump(args: &Args, v: &serde_json::Value) -> String {
    if args.pretty {
        serde_json::to_string_pretty(v).unwrap()
    } else {
        serde_json::to_string(v).unwrap()
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    let cell = Cell::auto(args.algo, args.n, args.p);
    let run = run_cell(&cell, args.seed, true).unwrap_or_else(|e| panic!("{e}"));
    let (trace, stats) = (run.trace.expect("a traced run has a trace"), run.stats);

    let prov = Provenance::here(
        json!({ "algo": args.algo.name(), "n": args.n, "p": args.p }),
        Some(args.seed),
    );
    let report = profile_report(&trace, &stats, &prov);
    let chrome = chrome_trace(&trace);

    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).expect("create --out dir");
        std::fs::write(format!("{dir}/profile.json"), dump(&args, &report))
            .expect("write profile.json");
        std::fs::write(format!("{dir}/chrome.json"), dump(&args, &chrome))
            .expect("write chrome.json");
        println!("wrote {dir}/profile.json and {dir}/chrome.json\n");
    }

    println!(
        "{} n={} p={} seed={}  ({} events, {} bytes moved)\n",
        args.algo.name(),
        args.n,
        args.p,
        args.seed,
        trace.num_events(),
        stats.total_bytes_sent(),
    );

    // Per-phase traffic: the per-routine decomposition of Table 1.
    let total = stats.total_bytes_sent().max(1);
    let phases: BTreeMap<String, (u64, u64)> = phase_bytes_from_trace(&trace);
    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|(label, &(sent, recv))| {
            vec![
                label.clone(),
                human_bytes(sent as f64),
                human_bytes(recv as f64),
                format!("{:.1}%", 100.0 * sent as f64 / total as f64),
            ]
        })
        .collect();
    println!("per-phase traffic");
    println!("{}", render(&["phase", "sent", "recv", "% of sent"], &rows));

    // Per-collective-kind traffic: must partition total_bytes_sent.
    let colls = coll_bytes_from_trace(&trace);
    let rows: Vec<Vec<String>> = colls
        .iter()
        .map(|(kind, &(bs, _br, ms, _mr))| {
            vec![
                kind.name().to_string(),
                human_bytes(bs as f64),
                ms.to_string(),
                format!("{:.1}%", 100.0 * bs as f64 / total as f64),
            ]
        })
        .collect();
    println!("per-collective traffic");
    println!(
        "{}",
        render(&["collective", "sent", "msgs", "% of sent"], &rows)
    );

    // Idle time per rank (measured, host clock).
    let tl = Timeline::build(&trace);
    let rows: Vec<Vec<String>> = tl
        .ranks
        .iter()
        .map(|r| {
            vec![
                r.rank.to_string(),
                format!("{:.3}", r.end as f64 / 1e6),
                format!("{:.3}", r.wait_time() as f64 / 1e6),
                r.total_flops().to_string(),
            ]
        })
        .collect();
    println!("per-rank timeline (host clock)");
    println!("{}", render(&["rank", "end ms", "wait ms", "flops"], &rows));

    let path = critical_path(&trace);
    println!(
        "critical path: {} segment(s), {:.3} ms on-path of {:.3} ms makespan\n",
        path.len(),
        path_length(&path) as f64 / 1e6,
        tl.makespan as f64 / 1e6,
    );

    // Predicted time-to-solution under the paper's machine model.
    let m = Machine::piz_daint();
    let rp = replay(&trace, &m);
    println!(
        "α-β-γ replay (α={:.1e}s, β={:.1e}B/s, γε={:.2e}flop/s): \
         predicted makespan {:.6}s{}",
        m.alpha,
        m.beta,
        m.gamma * m.epsilon,
        rp.makespan,
        if rp.complete {
            ""
        } else {
            "  [truncated trace: lower bound]"
        },
    );
    let comp: f64 = rp.comp.iter().sum::<f64>() / rp.comp.len().max(1) as f64;
    let wait: f64 = rp.wait.iter().sum::<f64>() / rp.wait.len().max(1) as f64;
    println!("  mean per-rank: compute {comp:.6}s, blocked {wait:.6}s");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(flags: &[&str]) -> Args {
        parse_args(flags.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_algorithm_is_parsed_once_into_its_enum() {
        let a = args(&["--algo", "twod-chol", "--n", "64", "--seed", "7"]);
        assert_eq!((a.algo, a.n, a.p, a.seed), (Algo::TwodChol, 64, 8, 7));
        assert_eq!(args(&[]).algo, Algo::Conflux);
    }

    #[test]
    #[should_panic(expected = "unknown --algo \"blas\"")]
    fn an_unknown_algorithm_is_refused_by_name() {
        args(&["--algo", "blas"]);
    }
}
