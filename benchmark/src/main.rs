//! End-to-end benchmark of the factorization drivers: the wall-clock of
//! whole `conflux_lu` / `confchox_cholesky` calls on four workloads, and
//! the attribution of that wall-clock to the `dense`, `factor` and `xmpi`
//! layers from outside the program. See `README.md` for the metric
//! definitions and `../BENCHMARK.json` for the bounds.

mod check;
mod probes;
mod report;
mod stats;
mod traced;
mod workload;

use serde_json::{json, Value};
use stats::{median, quantile};
use std::io::{BufRead, BufReader, Read};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{find, Sample, Workload, WORKLOADS};

/// Set-up processes per run; `setup_s` is their lower decile, `peak_rss_mb`
/// their minimum.
const SETUP_REPS: usize = 5;
/// Traced repetitions per run.
const TRACED_REPS: usize = 5;
/// Untraced repetitions per workload under `--smoke`.
const SMOKE_REPS: usize = 3;
/// Seconds the untraced pass measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 25.0;
/// The quantile `factor_wall_s` reports of the timed repetitions, and
/// `setup_s` of the set-ups: the lower decile.
const TIMING_QUANTILE: f64 = 0.1;
/// Residual every reference factorization must stay below.
const RESIDUAL_BOUND: f64 = 1e-12;
/// A one-shot process that has not ended by then is killed and counts as
/// failed. The world inside it gives up earlier (`WORLD_DEADLINE_MS`), so
/// this only fires when that mechanism itself is stuck.
const ONE_SHOT_DEADLINE: Duration = Duration::from_secs(30);
/// `XMPI_WORLD_DEADLINE_MS` of the socket worlds the benchmark launches.
const WORLD_DEADLINE_MS: &str = "20000";

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Which passes a run makes and which metrics it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Passes {
    /// `--trace 0`: the untraced pass; end-to-end metrics.
    EndToEnd,
    /// `--trace 1`: untraced pass, traced pass and probes; per-layer metrics.
    PerLayer,
    /// No `--trace`: everything.
    Both,
}

/// Options of `run`.
#[derive(Debug, Clone)]
pub struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    passes: Passes,
    smoke: bool,
    out: Option<PathBuf>,
}

/// Spawns this executable as `one-shot` processes. A set-up is one (a fresh
/// process has no allocator history and loads the tuning registry itself),
/// and so is every socket world: its rank processes replay every earlier
/// world of their parent, which would make repeated in-process socket
/// repetitions cost O(N²) and time the replays.
pub struct OneShot {
    exe: PathBuf,
    scratch: PathBuf,
    seed: u64,
    smoke: bool,
}

impl OneShot {
    fn new(opts: &Options) -> Result<OneShot, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // The mesh's socket files go under the build directory, next to the
        // executable: inside the checkout, and reached by a short relative
        // path (a UNIX socket path holds ~100 bytes).
        let scratch = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .join("benchmark-scratch");
        std::fs::create_dir_all(&scratch).map_err(|e| format!("create {scratch:?}: {e}"))?;
        Ok(OneShot {
            exe,
            scratch,
            seed: opts.seed,
            smoke: opts.smoke,
        })
    }

    /// Run `one-shot <name>` and parse the JSON line it prints. `verify`
    /// asks a workload one-shot for its residual as well.
    fn run(&self, name: &str, verify: bool) -> Result<Value, String> {
        let mut cmd = Command::new(&self.exe);
        cmd.args(["one-shot", name, "--seed", &self.seed.to_string()]);
        if self.smoke {
            cmd.arg("--smoke");
        }
        if verify {
            cmd.arg("--verify");
        }
        let mut child = cmd
            .current_dir(&self.scratch)
            .env("TMPDIR", ".")
            .env("XMPI_WORLD_DEADLINE_MS", WORLD_DEADLINE_MS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            // Its own group, so that the rank processes can be killed with it.
            .process_group(0)
            .spawn()
            .map_err(|e| format!("spawn one-shot {name}: {e}"))?;
        let deadline = Instant::now() + ONE_SHOT_DEADLINE;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(None) => {
                    let group = format!("-{}", child.id());
                    let _ = Command::new("kill").args(["-KILL", "--", &group]).status();
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("one-shot {name} exceeded {ONE_SHOT_DEADLINE:?}"));
                }
                Err(e) => return Err(format!("wait for one-shot {name}: {e}")),
            }
        };
        if !status.success() {
            return Err(format!("one-shot {name} ended with {status}"));
        }
        let mut text = String::new();
        child
            .stdout
            .take()
            .expect("stdout was piped")
            .read_to_string(&mut text)
            .map_err(|e| format!("read one-shot {name}: {e}"))?;
        serde_json::from_str(text.trim())
            .map_err(|e| format!("one-shot {name} printed {text:?}: {e}"))
    }

    /// Run a workload in a fresh process: generate the input, call the
    /// driver once, report.
    fn workload(&self, w: &Workload, verify: bool) -> Result<Shot, String> {
        let line = self.run(w.name, verify)?;
        let number = |key: &str| line.get(key).and_then(Value::as_f64);
        let shot = || {
            Some(Shot {
                sample: Sample::from_json(&line)?,
                setup_s: number("setup_s")?,
                rss_kb: number("rss_kb")?,
                residual: number("residual"),
            })
        };
        shot().ok_or_else(|| format!("one-shot {} printed {line}", w.name))
    }
}

/// What a workload's one-shot process reports.
pub struct Shot {
    sample: Sample,
    /// Seconds from the start of input generation to the driver's return.
    setup_s: f64,
    /// `VmHWM` of the process when the driver had returned.
    rss_kb: f64,
    /// Present when the one-shot was asked to verify.
    residual: Option<f64>,
}

/// The body of a `one-shot` process: a socket probe, or one workload (on
/// the socket backend the rank processes re-execute this with the same
/// arguments and leave from inside the launch).
fn one_shot(name: &str, seed: u64, smoke: bool, verify: bool) -> Result<(), String> {
    let socket = xmpi::launch::socket_backend_reexec;
    let line = if let Some(w) = find(name) {
        let backend = if w.socket {
            socket()
        } else {
            xmpi::Backend::Local
        };
        let t = Instant::now();
        let input = w.input(seed, smoke);
        let out = xmpi::with_backend(backend, || input.factorize())?;
        let setup_s = t.elapsed().as_secs_f64();
        let rss_kb = report::peak_rss_kb()?;
        let mut line = Sample::of(&out).to_json();
        if let Value::Object(fields) = &mut line {
            fields.push(("setup_s".into(), json!(setup_s)));
            fields.push(("rss_kb".into(), json!(rss_kb)));
            if verify {
                fields.push(("residual".into(), json!(input.residual(&out))));
            }
        }
        line
    } else {
        let value = xmpi::with_backend(socket(), || probes::socket_probe(name));
        json!({ "value": value.ok_or_else(|| format!("unknown one-shot {name}"))? })
    };
    println!("{line}");
    Ok(())
}

/// Counts every checked factorization of a run.
struct Tally {
    reference: Sample,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one factorization; `Some(its wall)` if it succeeded and matches
    /// the reference in result digest and byte count.
    fn admit(&mut self, rep: Result<Sample, String>) -> Option<f64> {
        self.attempted += 1;
        match rep {
            Ok(sample) if sample.agrees_with(&self.reference) => return Some(sample.wall_s),
            Ok(sample) => {
                eprintln!(
                    "repetition differs from the reference: {sample:?} vs {:?}",
                    self.reference
                );
            }
            Err(e) => eprintln!("repetition failed: {e}"),
        }
        self.failed += 1;
        None
    }
}

/// Result of one workload's run.
pub struct WorkloadResult {
    name: &'static str,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run_workload(w: &'static Workload, opts: &Options) -> Result<WorkloadResult, String> {
    let shots = OneShot::new(opts)?;
    let end_to_end = opts.passes != Passes::PerLayer;
    let per_layer = opts.passes != Passes::EndToEnd;

    // Set-up: fresh processes that generate the input and factorize once,
    // which is what `setup_s` and `peak_rss_mb` are taken over. The first
    // is verified and becomes the reference of every later factorization.
    // A run that reports no end-to-end metric makes only that one.
    let first = shots.workload(w, true)?;
    let residual = first
        .residual
        .ok_or("the verified one-shot printed no residual")?;
    let mut tally = Tally {
        reference: first.sample.clone(),
        attempted: 1,
        failed: 0,
    };
    let mut setups = vec![first.setup_s];
    let mut rss_kb = vec![first.rss_kb];
    while end_to_end && setups.len() < SETUP_REPS {
        let shot = shots.workload(w, false)?;
        setups.push(shot.setup_s);
        rss_kb.push(shot.rss_kb);
        tally.admit(Ok(shot.sample));
    }
    // The local workloads repeat in this process, on one input, after one
    // warm-up; the socket workload repeats as one-shot processes.
    let input = (!w.socket).then(|| w.input(opts.seed, opts.smoke));
    let repetition = || match &input {
        Some(input) => input.factorize().map(|out| Sample::of(&out)),
        None => shots.workload(w, false).map(|shot| shot.sample),
    };
    if input.is_some() {
        tally.admit(repetition());
    }

    // The untraced pass: a closed loop, one factorization at a time. A run
    // that reports per-layer metrics only measures half as long, which
    // leaves the time to its traced pass and probes.
    let seconds = if end_to_end {
        opts.seconds
    } else {
        opts.seconds / 2.0
    };
    let mut walls = Vec::new();
    let pass = Instant::now();
    loop {
        walls.extend(tally.admit(repetition()));
        let done = if opts.smoke {
            walls.len() >= SMOKE_REPS
        } else {
            pass.elapsed().as_secs_f64() >= seconds
        };
        if done {
            break;
        }
    }
    if walls.is_empty() {
        return Err(format!("{}: every repetition failed", w.name));
    }
    // The lower decile, not the median: on a shared machine the other
    // tenants slow a repetition down and never speed it up, and the fastest
    // tenth of a run repeats from run to run about 1.5 times as closely as
    // its middle (README, "Why the lower decile").
    let wall_s = quantile(&walls, TIMING_QUANTILE);
    let gflops = w.nominal_flops(opts.smoke) / wall_s / 1e9;

    let mut metrics = Vec::new();
    if end_to_end {
        metrics.push(Metric::new("factor_wall_s", wall_s, "s"));
        metrics.push(Metric::new("measured_gflops", gflops, "GF/s"));
        // The smallest, not the median: the high-water mark of a threaded
        // process is bimodal (README, "Why the smallest peak RSS").
        metrics.push(Metric::new(
            "peak_rss_mb",
            quantile(&rss_kb, 0.0) / 1024.0,
            "MiB",
        ));
        metrics.push(Metric::new(
            "setup_s",
            quantile(&setups, TIMING_QUANTILE),
            "s",
        ));
    }
    if per_layer {
        // Tracing does not cross processes: the socket workload's phases
        // are read off its in-process twin.
        let input = input.unwrap_or_else(|| w.input(opts.seed, opts.smoke));
        let reps = if opts.smoke { 1 } else { TRACED_REPS };
        let traced = traced::pass(&input, reps, |rep| tally.admit(rep).is_some())?;
        let probes = probes::all(opts, &shots)?;
        per_layer_metrics(
            w,
            opts,
            &input,
            &walls,
            &tally,
            &traced,
            probes,
            &mut metrics,
        );
    }

    let mut correct = tally.failed == 0;
    if residual >= RESIDUAL_BOUND {
        eprintln!(
            "{}: residual {residual:e} is not below {RESIDUAL_BOUND:e}",
            w.name
        );
        correct = false;
    }
    if w.p == 1 && tally.reference.max_rank_bytes != 0 {
        eprintln!(
            "{}: a one-rank world moved {} bytes",
            w.name, tally.reference.max_rank_bytes
        );
        correct = false;
    }
    Ok(WorkloadResult {
        name: w.name,
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Everything a `--trace 1` run reports, in the order of `BENCHMARK.json`.
#[allow(clippy::too_many_arguments)] // one call site; a struct would only rename the arguments
fn per_layer_metrics(
    w: &Workload,
    opts: &Options,
    input: &workload::Input,
    walls: &[f64],
    tally: &Tally,
    traced: &traced::Traced,
    probes: Vec<Metric>,
    metrics: &mut Vec<Metric>,
) {
    let probe = |name: &str| {
        let found = probes.iter().find(|m| m.name == name);
        found.expect("probe metric exists").value
    };
    let gflops = w.nominal_flops(opts.smoke) / quantile(walls, TIMING_QUANTILE) / 1e9;
    let ceiling = match w.algo {
        workload::Algo::Lu => probe("dense.getrf_1024_gflops"),
        workload::Algo::Chol => probe("dense.potrf_1536_gflops"),
    };
    // What the traced wall is compared with: the same in-process run
    // without tracing.
    let untraced_local_wall_s = if w.socket {
        probe("factor.lu_p4_n512_local_wall_s")
    } else {
        median(walls)
    };
    let (grid, v) = input.grid_and_block();
    let n = w.n(opts.smoke);
    // Words a rank sends and receives (the pebble game's stores and loads)
    // against the paper's bound at M = cN²/P.
    let memory = (grid.pz * n * n) as f64 / w.p as f64;
    let lower_bound = match w.algo {
        workload::Algo::Lu => pebbles::bounds::lu_io_lower_bound(n, w.p, memory),
        workload::Algo::Chol => pebbles::bounds::cholesky_io_lower_bound(n, w.p, memory),
    };
    let reference = &tally.reference;
    let (dense_probes, other_probes): (Vec<Metric>, Vec<Metric>) = probes
        .into_iter()
        .partition(|m| m.name.starts_with("dense."));

    metrics.push(Metric::new(
        "comm_max_rank_bytes",
        reference.max_rank_bytes as f64,
        "bytes",
    ));
    let fail_ratio = tally.failed as f64 / tally.attempted as f64;
    metrics.push(Metric::new("fail_ratio", fail_ratio, "ratio"));
    metrics.extend(dense_probes);
    traced.metrics(untraced_local_wall_s, metrics);
    metrics.push(Metric::new(
        "factor.ceiling_ratio",
        gflops / ceiling,
        "ratio",
    ));
    metrics.push(Metric::new("factor.block_v", v as f64, "count"));
    metrics.push(Metric::new("factor.grid_px", grid.px as f64, "count"));
    metrics.push(Metric::new("factor.grid_py", grid.py as f64, "count"));
    metrics.push(Metric::new("factor.grid_pz", grid.pz as f64, "count"));
    metrics.push(Metric::new("factor.wall_median_s", median(walls), "s"));
    metrics.push(Metric::new("factor.wall_p90_s", quantile(walls, 0.9), "s"));
    let iqr = quantile(walls, 0.75) - quantile(walls, 0.25);
    metrics.push(Metric::new("factor.wall_iqr_s", iqr, "s"));
    metrics.push(Metric::new(
        "xmpi.msgs_per_rank",
        reference.msgs_per_rank,
        "count",
    ));
    metrics.push(Metric::new(
        "xmpi.avg_rank_bytes",
        reference.avg_rank_bytes,
        "bytes",
    ));
    metrics.extend(other_probes);
    let over_bound = reference.avg_rank_bytes / 8.0 / lower_bound;
    metrics.push(Metric::new(
        "pebbles.volume_over_lower_bound",
        over_bound,
        "ratio",
    ));
}

/// `run` without `--workload`: each workload in a fresh process, as under
/// the driver, then one result set.
fn run_all(opts: &Options) -> Result<Vec<Value>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "run",
            "--workload",
            w.name,
            "--seed",
            &opts.seed.to_string(),
        ]);
        cmd.args(["--seconds", &opts.seconds.to_string()]);
        match opts.passes {
            Passes::EndToEnd => cmd.args(["--trace", "0"]),
            Passes::PerLayer => cmd.args(["--trace", "1"]),
            Passes::Both => &mut cmd,
        };
        if opts.smoke {
            cmd.arg("--smoke");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn run of {}: {e}", w.name))?;
        let mut last = String::new();
        for line in BufReader::new(child.stdout.take().expect("stdout was piped")).lines() {
            last = line.map_err(|e| format!("read run of {}: {e}", w.name))?;
            println!("{last}");
        }
        let status = child
            .wait()
            .map_err(|e| format!("wait for run of {}: {e}", w.name))?;
        if !status.success() {
            return Err(format!("run of {} ended with {status}", w.name));
        }
        let result = serde_json::from_str(&last)
            .map_err(|e| format!("run of {} printed {last:?}: {e}", w.name))?;
        results.push(named(w, result));
    }
    Ok(results)
}

/// A run's result object as an entry of a result set: with its workload's
/// name in front.
fn named(w: &Workload, mut result: Value) -> Value {
    if let Value::Object(fields) = &mut result {
        fields.insert(0, ("workload".into(), json!(w.name)));
    }
    result
}

fn run(opts: &Options) -> Result<(), String> {
    let results = match opts.workload {
        Some(w) => {
            let result = run_workload(w, opts)?;
            report::print_table(&result);
            let line = report::contract_line(&result);
            println!("{line}");
            vec![named(w, line)]
        }
        None => run_all(opts)?,
    };
    if let Some(path) = &opts.out {
        let set = json!({
            "schema": "conflux-benchmark/1",
            "provenance": report::provenance(opts),
            "workloads": results,
        });
        let text = serde_json::to_string_pretty(&set).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("write {path:?}: {e}"))?;
        eprintln!("result set written to {}", path.display());
    }
    Ok(())
}

const USAGE: &str = "usage:
  benchmark run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--out FILE]
  benchmark check A.json B.json
workloads: lu_p1 lu_p8 chol_p8 lu_p4_socket (default: all, one process each)";

/// The flags after the subcommand: `--name value` pairs and bare switches.
struct Flags(Vec<String>);

impl Flags {
    fn switch(&mut self, name: &str) -> bool {
        let at = self.0.iter().position(|a| a == name);
        at.map(|i| self.0.remove(i)).is_some()
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for {name}: {text}")),
            None => Ok(None),
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some(extra) => Err(format!("unexpected argument {extra}\n{USAGE}")),
            None => Ok(()),
        }
    }
}

fn main_inner() -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release (run.sh does)".into());
    }
    // Pin the kernel tuning registry before the first kernel call:
    // `dense::tuning` would otherwise resolve it against the working
    // directory, and the chosen microkernel with it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent");
    std::env::set_var(
        dense::tuning::ENV_TUNING_PATH,
        root.join("registry/tuning.json"),
    );

    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or(USAGE)?;
    let mut flags = Flags(args.collect());
    match command.as_str() {
        "run" => {
            let workload = match flags.value("--workload")? {
                Some(name) => Some(find(&name).ok_or(format!("unknown workload {name}\n{USAGE}"))?),
                None => None,
            };
            let passes = match flags.value("--trace")?.as_deref() {
                None => Passes::Both,
                Some("0") => Passes::EndToEnd,
                Some("1") => Passes::PerLayer,
                Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
            };
            let opts = Options {
                workload,
                seed: flags.parsed("--seed")?.unwrap_or(1),
                seconds: flags.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS),
                passes,
                smoke: flags.switch("--smoke"),
                out: flags.value("--out")?.map(PathBuf::from),
            };
            flags.finish()?;
            // Whether the outputs were correct is part of the result, not
            // of the exit code: a run that measured ends with 0.
            run(&opts).map(|()| true)
        }
        "check" => {
            let [a, b] = flags.0.as_slice() else {
                return Err(USAGE.into());
            };
            check::check(&root.join("BENCHMARK.json"), Path::new(a), Path::new(b))
        }
        // Internal, see `OneShot`.
        "one-shot" => {
            if flags.0.is_empty() {
                return Err(USAGE.into());
            }
            let name = flags.0.remove(0);
            let seed = flags.parsed("--seed")?.unwrap_or(1);
            let (smoke, verify) = (flags.switch("--smoke"), flags.switch("--verify"));
            flags.finish()?;
            one_shot(&name, seed, smoke, verify).map(|()| true)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
