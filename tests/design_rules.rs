//! The design rules, checked against the tree. Each keeps one of the
//! repo's pins singular — one data plane, one kernel dispatch, exact
//! kernels, one schedule per kernel (Algorithm 1 of arXiv 2108.09337), one
//! fault layer, one launch path — or keeps the public surface to what
//! somebody calls.
//!
//! A rule is a row of [`RULES`]: the paths it covers and skips, the tokens
//! it forbids there, and the exceptions it allows, each with its reason.
//! One walker reads the tree once and serves every row. A token is literal
//! text; `\b` at either end anchors it at an identifier boundary, and
//! `path::{name}` also matches `name` inside a `path::{…}` import group.
//! An exception names one line: it must match exactly one line the row
//! flags, so a second such line fails, and so does an exception nothing
//! needs any more.
//!
//! The caller census ([`CENSUS_ALLOW`], "Public surface") is one index of
//! call sites over the tree.
//!
//! This file spells out every forbidden token, so no rule covers it.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::OnceLock;

/// One design rule: `forbid` may not appear in `paths`, except where
/// `allow` says.
struct Rule {
    name: &'static str,
    /// Files and directories, relative to the repo root.
    paths: &'static [&'static str],
    /// Path suffixes skipped: `scalapack.rs` skips every file of that name.
    exclude: &'static [&'static str],
    /// Cover `.rs` files only (otherwise every file, docs and manifests too).
    rust_only: bool,
    forbid: &'static [&'static str],
    allow: &'static [Allow],
}

/// One exception to a rule, and why it stands.
struct Allow {
    file: &'static str,
    at: At,
    reason: &'static str,
}

/// Where in [`Allow::file`] the exception is.
enum At {
    /// The line that contains this text.
    Line(&'static str),
    /// Inside the top-level `fn` of this name; for the census, the `pub fn`
    /// of this name.
    Fn(&'static str),
}

/// Everything the rules read: code, manifests and docs.
const ROOTS: &[&str] = &["crates", "benchmark", "tests", "examples", "src", "docs"];

/// Build and test output under [`ROOTS`] (`.gitignore` lists them).
const OUTPUT_DIRS: &[&str] = &[
    "benchmark/target",
    "crates/bench/results",
    "crates/factor/results",
];

/// What a row leaves out: no skipped path, every file, no exception.
const RULE: Rule = Rule {
    name: "",
    paths: &[],
    exclude: &[],
    rust_only: false,
    forbid: &[],
    allow: &[],
};

/// The rule table.
const RULES: &[Rule] = &[
    // Every schedule of `factor` stores its share in a tile store; the
    // `layout` crate's block-cyclic shards meet it only where a ScaLAPACK
    // wrapper stages a caller's layout in and out.
    Rule {
        name: "One data plane: no tile maps",
        paths: &["crates/factor/src"],
        forbid: &["HashMap<(usize, usize)"],
        ..RULE
    },
    Rule {
        name: "One data plane: block-cyclic layouts only in the wrappers",
        paths: &["crates/factor/src"],
        exclude: &["scalapack.rs"],
        forbid: &[
            "DistMatrix",
            "numroc",
            "get_global",
            "set_global",
            "layout::",
        ],
        ..RULE
    },
    // The kernel is chosen from the CPU's feature bits and from nothing
    // else. The blocking is the constants `dense::pack::{KC, MC, NC}`: the
    // one `KernelConfig` is built in `tuning::active`, which reports them,
    // and no code under crates/dense/src reads a runtime `cfg.kc/mc/nc`.
    Rule {
        name: "One dispatch rule: dense reads no file and no environment",
        paths: &["crates/dense/src"],
        forbid: &["env::var", "std::fs", "serde"],
        ..RULE
    },
    Rule {
        name: "One dispatch rule: CONFLUX_TUNING is one inert name",
        paths: &["crates"],
        forbid: &["CONFLUX_TUNING"],
        allow: &[Allow {
            file: "crates/dense/src/tuning.rs",
            at: At::Line("pub const ENV_TUNING_PATH"),
            reason: "the frozen benchmark/ still sets CONFLUX_TUNING_PATH (ROADMAP item 1); \
                     nothing reads it",
        }],
        ..RULE
    },
    Rule {
        name: "One dispatch rule: one KernelConfig literal",
        paths: &["crates", "tests", "examples", "src"],
        exclude: &["crates/dense/src/tuning.rs"],
        rust_only: true,
        forbid: &["KernelConfig {"],
        ..RULE
    },
    Rule {
        name: "One dispatch rule: no runtime blocking",
        paths: &["crates/dense/src"],
        forbid: &["cfg.kc", "cfg.mc", "cfg.nc"],
        ..RULE
    },
    // Every microkernel rounds once per multiply and once per add, which is
    // what makes the scalar, AVX2 and AVX-512 kernels agree to the bit
    // (`dense::ukernel`). A fused intrinsic rounds once, and on a machine
    // without AVX-512 no test runs the kernel it slipped into.
    Rule {
        name: "Exact kernels",
        paths: &["crates/dense/src"],
        forbid: &["fmadd", "fmsub", "fnmadd", "fnmsub", "mul_add"],
        ..RULE
    },
    // `gemm` and `gemm_rows` decide their own fan-out by one size rule (the
    // parallel row-mapped twin is gone; `par_gemm` lives on only as the
    // one-line alias the frozen benchmark names), the tournament selects
    // pivots with `dense::getrf_unblocked` instead of an elimination of its
    // own, and `trsm` calls the packed engine through `gemm_packed_rows`
    // like every other product.
    Rule {
        name: "One implementation per kernel job",
        paths: &["crates", "tests", "examples", "src"],
        forbid: &["par_gemm_rows", "fn eliminate\\b", "gemm_packed("],
        ..RULE
    },
    // Every schedule sends buffered and receives blocking. Nonblocking
    // point-to-point (request handles, their trace events and the
    // wait-stall hook) had no caller outside its own tests and was deleted.
    Rule {
        name: "One receive path",
        paths: &["crates", "tests", "examples", "src"],
        forbid: &[
            "isend",
            "irecv",
            "RecvRequest",
            "SendRequest",
            "WaitPolicy",
            "wait_all",
            "SendPost",
            "WaitDone",
            "wait_delay",
        ],
        ..RULE
    },
    // Schedule perturbation, crashes, corruption and wire faults are one
    // hook trait with one ambient arming (`xmpi::with_hooks`), driven by one
    // seeded `xharness::Perturbator`. The separate wire-fault trait, its
    // arming and its plan type were folded in and must not return.
    Rule {
        name: "One fault layer",
        paths: &["crates", "tests", "examples", "src", "docs"],
        forbid: &[
            "NetFaults",
            "with_net_faults",
            "netfault",
            "NetChaos",
            "ChaosMode",
            "run_chaos",
        ],
        ..RULE
    },
    // Under crates/bench/src every plain driver is called from the cell
    // runner (`ablate::run_cell`) and from nowhere else, and the α-β-γ price
    // is taken in `kpi::factor_kpis` only. `experiments/recovery.rs` calls
    // `conflux_lu_ft(` (not matched here); `experiments/generality.rs`
    // keeps `mmm25d` / `cholesky_qr`, which are not `ablate::Algo`s.
    Rule {
        name: "One cell runner",
        paths: &["crates/bench/src"],
        forbid: &[
            "conflux_lu(",
            "confchox_cholesky(",
            "twod_lu(",
            "twod_cholesky(",
            "lu25d_swap(",
            "rank_time(",
            "pct_peak(",
        ],
        allow: &[
            Allow {
                file: "crates/bench/src/ablate.rs",
                at: At::Line("conflux_lu("),
                reason: "run_cell is the one caller of the plain drivers",
            },
            Allow {
                file: "crates/bench/src/ablate.rs",
                at: At::Line("confchox_cholesky("),
                reason: "run_cell is the one caller of the plain drivers",
            },
            Allow {
                file: "crates/bench/src/ablate.rs",
                at: At::Line("twod_lu("),
                reason: "run_cell is the one caller of the plain drivers",
            },
            Allow {
                file: "crates/bench/src/ablate.rs",
                at: At::Line("twod_cholesky("),
                reason: "run_cell is the one caller of the plain drivers",
            },
            Allow {
                file: "crates/bench/src/ablate.rs",
                at: At::Line("lu25d_swap("),
                reason: "run_cell is the one caller of the plain drivers",
            },
            Allow {
                file: "crates/bench/src/kpi.rs",
                at: At::Line("rank_time("),
                reason: "factor_kpis is the one place a run is priced",
            },
            Allow {
                file: "crates/bench/src/kpi.rs",
                at: At::Line("pct_peak("),
                reason: "factor_kpis is the one place a run is priced",
            },
        ],
        ..RULE
    },
    // The §7.3 swap ablation differs from COnfLUX only in what retiring a
    // step's pivots does: `lu25d_swap` contributes its `row_swaps` phase to
    // COnfLUX's step loop and owns no loop of its own.
    Rule {
        name: "One LU step loop",
        paths: &["crates/factor/src/lu25d_swap.rs"],
        forbid: &["for step in", "fn rank_program"],
        ..RULE
    },
    // Each kernel has one schedule. A one-step pipelined variant that posted
    // the next panel's broadcasts before the update measured flat
    // (EXPERIMENTS.md, "One schedule") and was deleted with its nonblocking
    // broadcast and its config switch.
    Rule {
        name: "One schedule",
        paths: &["crates/factor/src", "crates/xmpi/src", "crates/bench/src"],
        forbid: &["lookahead", "ibcast", "BcastRequest", "fn blocking"],
        ..RULE
    },
    // Every wait of the mesh and of the collect is a `poll` on sockets, and
    // the heartbeat monitor parks between beats (EXPERIMENTS.md, "An
    // event-driven socket world"); an injected torn write's stall is a
    // `poll` that reads the mesh. The mesh is made before the fork, so
    // nothing dials or backs off.
    Rule {
        name: "No sleep-polling",
        paths: &["crates/xmpi/src/launch.rs", "crates/xmpi/src/socket.rs"],
        forbid: &["thread::sleep"],
        ..RULE
    },
    // A socket rank's own thread writes its frames and reads its mesh, and
    // the heartbeat monitor is its one service thread (EXPERIMENTS.md,
    // "Socket ranks do their own I/O"). The per-peer writer and reader
    // threads and the queues that fed the writers are gone.
    Rule {
        name: "Socket ranks do their own I/O",
        paths: &["crates/xmpi/src/socket.rs"],
        forbid: &["writer_loop", "reader_loop", "WriterMsg", "mpsc"],
        ..RULE
    },
    // A socket world's mesh and control pairs are `socketpair`s made by the
    // parent (EXPERIMENTS.md, "The mesh from socketpairs"). No rank dials,
    // accepts or backs off, no socket has a path, and no connection fault
    // can be injected.
    Rule {
        name: "One mesh",
        paths: &["crates", "tests", "examples", "src"],
        forbid: &[
            "connect_retry",
            "accept_peers",
            "backoff_delay",
            "rank_sock",
            "ctl.sock",
            "XMPI_CONNECT_RETRIES",
            "XMPI_HANDSHAKE_TIMEOUT_MS",
            "ConnectFault",
            "ConnectPlan",
            "connect_fault",
            "FrameKind::Hello",
        ],
        ..RULE
    },
    // A rank process is forked from the launch call and already holds the
    // closure, its input and every ambient setting (EXPERIMENTS.md, "Forked
    // rank processes"). Re-executing the binary, and the replay protocol
    // that steered a re-executed child back to its world, are gone.
    // `xmpi::run`/`run_ft` are the only launchers and read the ambient
    // backend; the thread-only twins, the traced wrapper and the xharness
    // arming aliases are gone.
    Rule {
        name: "One launch path: no re-executed binary",
        paths: &["crates/xmpi/src"],
        forbid: &["Command::new"],
        ..RULE
    },
    Rule {
        name: "One launch path: no child protocol",
        paths: &["crates", "src", "tests", "examples"],
        forbid: &[
            "XMPI_CHILD_RANK",
            "XMPI_WORLD_ID",
            "XMPI_SPAWN_RETRIES",
            "is_child",
            "test_path!",
            "socket_backend_for_test",
            "SocketCfg",
        ],
        ..RULE
    },
    Rule {
        name: "One launch path: two launchers",
        paths: &["crates", "tests", "examples", "src"],
        forbid: &[
            "run_traced",
            "TracedResult",
            "launch::run_ft",
            "run_armed",
            "run_perturbed_traced",
        ],
        ..RULE
    },
    Rule {
        name: "One launch path: launch::run is the benchmark's name only",
        paths: &["crates", "tests", "examples", "src"],
        forbid: &["launch::{run}"],
        allow: &[Allow {
            file: "tests/benchmark_api.rs",
            at: At::Line("use xmpi::launch::{run, socket_backend_reexec};"),
            reason: "the re-export the frozen benchmark/ compiles against, pinned by name",
        }],
        ..RULE
    },
    // A floor bounds a number absolutely, or not at all. The bands relative
    // to a recorded trajectory never had a baseline to compare against, and
    // every quantity they banded is pinned exactly elsewhere (the golden
    // volumes, the committed results/) or by an absolute floor
    // (EXPERIMENTS.md, "Ablation methodology").
    Rule {
        name: "One gate per quantity: no trajectory",
        paths: &["crates/bench"],
        forbid: &[
            "rel_drop",
            "rel_rise",
            "ablations.csv",
            "ablations.jsonl",
            "plan_hash",
            "\\bbaseline(",
            "registry",
        ],
        ..RULE
    },
    // A host-clock floor is a `floor::Floor` constant beside the code that
    // measures its number, checked by `floor::breaches`; no plan file, plan
    // parser or tolerance table declares one (EXPERIMENTS.md, "Ablation
    // methodology").
    Rule {
        name: "One gate per quantity: floors beside their code",
        paths: &["crates/bench"],
        forbid: &["AblationPlan", "parse_toml", "plans/", "tolerances"],
        ..RULE
    },
];

/// The crates whose `pub fn`s the census counts callers for.
const CENSUS_CRATES: &[&str] = &[
    "dense", "factor", "layout", "xtrace", "xharness", "pebbles", "xmpi", "bench",
];

/// Where the census looks for callers (`.rs` files only).
const CENSUS_ROOTS: &[&str] = &["crates", "benchmark", "tests", "examples", "src"];

/// "Public surface": a `pub fn` (free or inherent, outside the file's
/// `#[cfg(test)] mod`) that no source outside its own crate's `src` calls
/// is surface nobody uses — make it `pub(crate)` or delete it. `bench`'s
/// binaries, `examples/` and `benchmark/src` count as callers; a call under
/// a `tests/` directory does not, so a subsystem cannot live on through its
/// own tests. A call site is `name(`, `name::<` or `::name` on a line that
/// is not a comment: a word in prose is no caller. `#![warn(unreachable_pub)]`
/// in each `lib.rs` (an error under Clippy's `-D warnings`) covers the items
/// no path reaches at all. The exceptions:
#[rustfmt::skip]
const CENSUS_ALLOW: &[Allow] = &[
    exempt("crates/dense/src/norms.rs", "max_abs", "oracle norm of the factor pivot_oracle and conformance suites"),
    exempt("crates/dense/src/norms.rs", "unpack_lu", "oracle split of a packed LU for the factor pivot_oracle suite"),
    exempt("crates/dense/src/ukernel.rs", "reference_microkernel", "reference implementation the packed kernels are checked against"),
    exempt("crates/dense/src/ukernel.rs", "variant", "names a non-native kernel level for tuning::with_override, the seam of the dispatch and kernel-equivalence suites"),
    exempt("crates/factor/src/scalapack.rs", "pdgetrf", "ScaLAPACK-compatible entry point (paper §8); stated consumer: tests/scalapack_pipeline.rs"),
    exempt("crates/factor/src/scalapack.rs", "pdpotrf", "ScaLAPACK-compatible entry point (paper §8); stated consumer: tests/scalapack_pipeline.rs"),
    exempt("crates/layout/src/desc.rs", "to_block_cyclic", "ScaLAPACK layout conversion; stated consumer: tests/scalapack_pipeline.rs"),
    exempt("crates/xharness/src/lib.rs", "seeds", "xharness is the test harness"),
    exempt("crates/xharness/src/perturb.rs", "aggressive", "xharness is the test harness"),
    exempt("crates/xharness/src/perturb.rs", "chaos", "xharness is the test harness"),
    exempt("crates/xharness/src/perturb.rs", "from_seed", "xharness is the test harness"),
    exempt("crates/xharness/src/perturb.rs", "chaos_from_seed", "xharness is the test harness"),
    exempt("crates/xharness/src/perturb.rs", "with_reset", "xharness is the test harness"),
    exempt("crates/xharness/src/perturb.rs", "with_hang", "xharness is the test harness"),
    exempt("crates/xharness/src/perturb.rs", "reset_fired", "xharness is the test harness"),
    exempt("crates/xharness/src/perturb.rs", "reset_plan", "xharness is the test harness"),
    exempt("crates/xharness/src/perturb.rs", "hang_plan", "xharness is the test harness"),
    exempt("crates/xharness/src/golden.rs", "check_golden", "xharness is the test harness"),
    exempt("crates/xharness/src/golden.rs", "golden_mode", "xharness is the test harness"),
    exempt("crates/pebbles/src/interpret.rs", "build_cdag_interleaved", "stated consumer: tests/theory_pipeline.rs"),
    exempt("crates/pebbles/src/xpart.rs", "check_x_partition", "stated consumer: tests/theory_pipeline.rs"),
    exempt("crates/pebbles/src/xpart.rs", "frontier_dominator", "X-partition lemma that pebbles::schedule builds on; pebbles proptests check it"),
    exempt("crates/pebbles/src/xpart.rs", "min_set", "X-partition lemma that pebbles::schedule builds on; pebbles proptests check it"),
    exempt("crates/pebbles/src/cdag.rs", "topo_order", "stated consumer: tests/theory_pipeline.rs"),
    exempt("crates/pebbles/src/cdag.rs", "inputs", "stated consumer: tests/theory_pipeline.rs"),
    exempt("crates/pebbles/src/cdag.rs", "compute", "CDAG builder the pebbles proptests build random CDAGs with"),
    exempt("crates/pebbles/src/cdag.rs", "outputs", "CDAG query the pebbles proptests check the game against"),
    exempt("crates/pebbles/src/derive.rs", "analyze_statement", "stated consumer: tests/theory_pipeline.rs"),
    exempt("crates/pebbles/src/derive.rs", "cholesky_counts", "stated consumer: tests/theory_pipeline.rs"),
    exempt("crates/pebbles/src/derive.rs", "derive_program_bound", "stated consumer: tests/theory_pipeline.rs"),
    exempt("crates/pebbles/src/derive.rs", "lu_counts", "stated consumer: tests/theory_pipeline.rs"),
    exempt("crates/pebbles/src/daap.rs", "cholesky_program", "stated consumer: tests/theory_pipeline.rs"),
    exempt("crates/pebbles/src/daap.rs", "lu_program", "stated consumer: tests/theory_pipeline.rs"),
    exempt("crates/pebbles/src/opt_game.rs", "optimal_q", "stated consumer: tests/theory_pipeline.rs"),
    exempt("crates/pebbles/src/schedule.rs", "required_memory", "stated consumer: tests/theory_pipeline.rs"),
    exempt("crates/pebbles/src/schedule.rs", "schedule_from_partition", "stated consumer: tests/theory_pipeline.rs"),
    exempt("crates/xmpi/src/stats.rs", "coll_totals", "per-collective ledger that xtrace conflux_trace cross-checks the trace against"),
    exempt("crates/xmpi/src/comm.rs", "try_recv_f64", "the fallible receive; recv_timeout and the socket suites check its typed errors"),
    exempt("crates/xmpi/src/wire.rs", "control", "wire codec; wire_codec checks it frame by frame"),
    exempt("crates/xmpi/src/wire.rs", "read_frame", "wire codec; wire_codec checks it frame by frame"),
    exempt("crates/xmpi/src/wire.rs", "read_from", "the mesh's message reader; wire_codec checks it frame by frame"),
    exempt("crates/xmpi/src/wire.rs", "write_frame", "wire codec; wire_codec checks it frame by frame"),
    exempt("crates/xmpi/src/wire.rs", "write_message", "the mesh's message writer; wire_codec checks it frame by frame"),
    exempt("crates/xmpi/src/collectives.rs", "scatter_f64", "MPI collective of the runtime; xmpi proptests round-trip it through gather"),
];

/// A census exception: `pub fn name` of `file`.
const fn exempt(file: &'static str, name: &'static str, reason: &'static str) -> Allow {
    Allow {
        file,
        at: At::Fn(name),
        reason,
    }
}

/// One file of the tree, by its path relative to the repo root.
struct Source {
    path: String,
    text: String,
}

/// The tree under [`ROOTS`], read once per test binary.
fn tree() -> &'static [Source] {
    static TREE: OnceLock<Vec<Source>> = OnceLock::new();
    TREE.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut tree = Vec::new();
        for dir in ROOTS {
            walk(root, &root.join(dir), &mut tree);
        }
        tree.retain(|s| s.path != "tests/design_rules.rs");
        tree.sort_by(|a, b| a.path.cmp(&b.path));
        tree
    })
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<Source>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return; // a root this tree does not have
    };
    for entry in entries {
        let path = entry.expect("a readable directory entry").path();
        if path.is_dir() {
            if !OUTPUT_DIRS.iter().any(|d| path == root.join(d)) {
                walk(root, &path, out);
            }
        } else {
            let bytes = std::fs::read(&path).expect("a readable file");
            out.push(Source {
                path: path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned(),
                text: String::from_utf8_lossy(&bytes).into_owned(),
            });
        }
    }
}

impl Rule {
    fn covers(&self, path: &str) -> bool {
        let under = |p: &&str| {
            path.strip_prefix(*p)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
        };
        let skipped = |e: &&str| {
            path.strip_suffix(*e)
                .is_some_and(|rest| rest.is_empty() || rest.ends_with('/'))
        };
        self.paths.iter().any(under)
            && !self.exclude.iter().any(skipped)
            && (!self.rust_only || path.ends_with(".rs"))
    }

    /// Every way `tree` breaks the rule: each flagged line no exception
    /// names, and each exception that does not name exactly one line.
    fn check(&self, tree: &[Source]) -> Vec<String> {
        let mut failures = Vec::new();
        let mut used = vec![Vec::new(); self.allow.len()];
        for src in tree.iter().filter(|s| self.covers(&s.path)) {
            let mut func = "";
            for (i, line) in src.text.lines().enumerate() {
                func = top_level_fn(line).unwrap_or(func);
                let Some(token) = self.forbid.iter().find(|t| contains(line, t)) else {
                    continue;
                };
                let at = format!("{}:{}: {}", src.path, i + 1, line.trim());
                match self
                    .allow
                    .iter()
                    .position(|a| a.file == src.path && a.at.holds(line, func))
                {
                    Some(k) => used[k].push(at),
                    None => failures.push(format!("{at}  (forbids `{token}`)")),
                }
            }
        }
        for (allow, lines) in self.allow.iter().zip(used) {
            if lines.len() != 1 {
                failures.push(format!(
                    "the exception {} names {} lines, not one: {lines:?}",
                    allow.describe(),
                    lines.len()
                ));
            }
        }
        failures
    }
}

impl At {
    fn holds(&self, line: &str, func: &str) -> bool {
        match self {
            At::Line(text) => line.contains(text),
            At::Fn(name) => func == *name,
        }
    }
}

impl Allow {
    fn describe(&self) -> String {
        match self.at {
            At::Line(text) => format!("`{text}` in {} ({})", self.file, self.reason),
            At::Fn(name) => format!("fn {name} in {} ({})", self.file, self.reason),
        }
    }
}

/// The name of the top-level function `line` opens, if it does: a line
/// starting `fn`, `pub fn` or `pub(crate) fn` and a lowercase name.
fn top_level_fn(line: &str) -> Option<&str> {
    let rest = line
        .strip_prefix("pub ")
        .or_else(|| line.strip_prefix("pub(crate) "))
        .unwrap_or(line)
        .strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether byte offset `i` of `line` is an identifier boundary.
fn boundary(line: &str, i: usize) -> bool {
    let b = line.as_bytes();
    let before = i > 0 && is_word(b[i - 1]);
    let after = b.get(i).is_some_and(|&c| is_word(c));
    before != after
}

/// Whether `line` contains `token` (see the module docs for its forms).
fn contains(line: &str, token: &str) -> bool {
    if let Some((path, name)) = token.strip_suffix('}').and_then(|t| t.split_once("::{")) {
        let group = format!("{path}::{{");
        return contains(line, &format!("{path}::{name}\\b"))
            || line.match_indices(&group).any(|(i, _)| {
                let inner = &line[i + group.len()..];
                let inner = &inner[..inner.find('}').unwrap_or(inner.len())];
                contains(inner, &format!("\\b{name}\\b"))
            });
    }
    let (lead, text) = token
        .strip_prefix("\\b")
        .map_or((false, token), |t| (true, t));
    let (trail, text) = text
        .strip_suffix("\\b")
        .map_or((false, text), |t| (true, t));
    let mut from = 0;
    while let Some(k) = line[from..].find(text) {
        let i = from + k;
        if (!lead || boundary(line, i)) && (!trail || boundary(line, i + text.len())) {
            return true;
        }
        from = i + line[i..].chars().next().map_or(1, char::len_utf8);
    }
    false
}

/// Every `pub fn` of a crate source file, in the census's sense: indented
/// by spaces only, `pub`, then any `const`/`unsafe`, then `fn`; the scan
/// stops at the file's `#[cfg(test)] mod`.
fn pub_fns(text: &str) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    let mut after_cfg_test = false;
    for line in text.lines() {
        if line.starts_with("#[cfg(test)]") {
            after_cfg_test = true;
            continue;
        }
        if after_cfg_test && line.starts_with("mod ") {
            break;
        }
        after_cfg_test = false;
        let Some(mut rest) = line.trim_start_matches(' ').strip_prefix("pub ") else {
            continue;
        };
        while let Some(r) = rest
            .strip_prefix("const ")
            .or_else(|| rest.strip_prefix("unsafe "))
        {
            rest = r;
        }
        if let Some(sig) = rest.strip_prefix("fn ") {
            let name = &sig[..sig.find(['(', '<']).unwrap_or(sig.len())];
            names.extend(name.split_whitespace());
        }
    }
    names
}

/// Every identifier `line` calls or paths into: `name(`, `name::<` or
/// `::name`.
fn call_sites(line: &str) -> impl Iterator<Item = &str> {
    let b = line.as_bytes();
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < b.len() {
            if !is_word(b[i]) {
                i += 1;
                continue;
            }
            let start = i;
            while i < b.len() && is_word(b[i]) {
                i += 1;
            }
            let rest = &line[i..];
            if rest.starts_with('(') || rest.starts_with("::<") || line[..start].ends_with("::") {
                return Some(&line[start..i]);
            }
        }
        None
    })
}

/// The caller census: each `pub fn` of [`CENSUS_CRATES`] that nothing
/// outside its crate's `src` (its `src/bin` is outside) and outside every
/// `tests/` directory calls, unless `allow` names it; and each entry of
/// `allow` that names no such function.
fn caller_census(tree: &[Source], crates: &[&str], allow: &[Allow]) -> Vec<String> {
    let mut callers: HashMap<&str, BTreeSet<&str>> = HashMap::new();
    let scanned = tree.iter().filter(|s| {
        s.path.ends_with(".rs")
            && CENSUS_ROOTS
                .iter()
                .any(|r| s.path.starts_with(&format!("{r}/")))
    });
    for src in scanned {
        for line in src
            .text
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
        {
            for name in call_sites(line) {
                callers.entry(name).or_default().insert(&src.path);
            }
        }
    }
    let mut failures = Vec::new();
    let mut used = vec![false; allow.len()];
    for krate in crates {
        let src_dir = format!("crates/{krate}/src/");
        let bin_dir = format!("{src_dir}bin/");
        let outside = |path: &&str| {
            let path = match path.strip_prefix(&bin_dir) {
                Some(rest) => format!("bin:{rest}"),
                None if path.starts_with(&src_dir) => return false,
                None => path.to_string(),
            };
            !(path.starts_with("tests/") || path.contains("/tests/"))
        };
        let files = tree.iter().filter(|s| {
            s.path.starts_with(&src_dir) && s.path.ends_with(".rs") && !s.path.starts_with(&bin_dir)
        });
        for src in files {
            for name in pub_fns(&src.text) {
                if callers.get(name).is_some_and(|c| c.iter().any(outside)) {
                    continue;
                }
                match allow
                    .iter()
                    .position(|a| a.file == src.path && matches!(a.at, At::Fn(f) if f == name))
                {
                    Some(k) => used[k] = true,
                    None => failures.push(format!(
                        "{}: pub fn {name} has no caller outside its crate's src and outside tests",
                        src.path
                    )),
                }
            }
        }
    }
    for (entry, used) in allow.iter().zip(used) {
        if !used {
            failures.push(format!(
                "the exception {} is no longer needed: drop it",
                entry.describe()
            ));
        }
    }
    failures
}

#[test]
fn every_design_rule_holds() {
    let failures: Vec<String> = RULES
        .iter()
        .flat_map(|r| {
            r.check(tree())
                .into_iter()
                .map(move |f| format!("{}: {f}", r.name))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "design rules broken:\n{}",
        failures.join("\n")
    );
}

#[test]
fn every_pub_fn_has_a_caller_outside_its_crate() {
    let failures = caller_census(tree(), CENSUS_CRATES, CENSUS_ALLOW);
    assert!(
        failures.is_empty(),
        "Public surface:\n{}",
        failures.join("\n")
    );
}

fn one_file(path: &str, text: &str) -> Vec<Source> {
    vec![Source {
        path: path.into(),
        text: text.into(),
    }]
}

fn rule(name: &str) -> &'static Rule {
    RULES
        .iter()
        .find(|r| r.name == name)
        .expect("a rule of that name")
}

/// For each rule, a line it must reject and where.
#[rustfmt::skip]
const REJECTED: &[(&str, &str, &str)] = &[
    ("One data plane: no tile maps", "crates/factor/src/store.rs", "let tiles: HashMap<(usize, usize), Matrix> = HashMap::new();"),
    ("One data plane: block-cyclic layouts only in the wrappers", "crates/factor/src/conflux.rs", "let rows = layout::numroc(n, nb, p);"),
    ("One dispatch rule: dense reads no file and no environment", "crates/dense/src/tuning.rs", "let path = std::env::var(\"KC\");"),
    ("One dispatch rule: CONFLUX_TUNING is one inert name", "crates/bench/src/main.rs", "std::env::set_var(\"CONFLUX_TUNING_PATH\", p);"),
    ("One dispatch rule: one KernelConfig literal", "tests/tuning.rs", "let cfg = KernelConfig { kc: 128, mc: 64, nc: 512, variant };"),
    ("One dispatch rule: no runtime blocking", "crates/dense/src/gemm.rs", "for pc in (0..k).step_by(cfg.kc) {"),
    ("Exact kernels", "crates/dense/src/ukernel.rs", "c = _mm256_fmadd_pd(a, b, c);"),
    ("One implementation per kernel job", "crates/factor/src/tournament.rs", "fn eliminate(panel: &mut Matrix) {"),
    ("One receive path", "crates/xmpi/src/comm.rs", "pub fn irecv_f64(&self, src: usize) -> RecvRequest {"),
    ("One fault layer", "docs/ARCHITECTURE.md", "Wire faults are armed with `with_net_faults`."),
    ("One cell runner", "crates/bench/src/experiments/fig8.rs", "let out = conflux_lu(&cfg, &a);"),
    ("One LU step loop", "crates/factor/src/lu25d_swap.rs", "    for step in 0..cfg.steps() {"),
    ("One schedule", "crates/factor/src/confchox.rs", "if cfg.lookahead {"),
    ("No sleep-polling", "crates/xmpi/src/launch.rs", "fn collect() { std::thread::sleep(POLL); }"),
    ("Socket ranks do their own I/O", "crates/xmpi/src/socket.rs", "let (tx, rx) = std::sync::mpsc::channel::<WriterMsg>();"),
    ("One mesh", "crates/xmpi/src/socket.rs", "let s = connect_retry(&addr, 5)?;"),
    ("One launch path: no re-executed binary", "crates/xmpi/src/launch.rs", "let child = Command::new(exe).spawn()?;"),
    ("One launch path: no child protocol", "crates/xmpi/src/launch.rs", "if std::env::var(\"XMPI_CHILD_RANK\").is_ok() {"),
    ("One launch path: two launchers", "tests/runtime_semantics.rs", "let out = xmpi::run_traced(4, cfg, body);"),
    ("One launch path: launch::run is the benchmark's name only", "examples/quickstart.rs", "use xmpi::launch::{run_ft, run};"),
    ("One gate per quantity: no trajectory", "crates/bench/src/floor.rs", "    pub rel_drop: Option<f64>,"),
    ("One gate per quantity: floors beside their code", "crates/bench/src/bin/floors.rs", "let plan = AblationPlan::load(Path::new(\"plans/kernels.toml\"))?;"),
];

#[test]
fn each_rule_rejects_its_snippet() {
    for rule in RULES {
        assert!(
            REJECTED.iter().any(|(name, ..)| *name == rule.name),
            "rule `{}` has no snippet it must reject",
            rule.name
        );
    }
    for (name, path, line) in REJECTED {
        let failures = rule(name).check(&one_file(path, line));
        assert!(
            failures
                .iter()
                .any(|f| f.starts_with(&format!("{path}:1: "))),
            "`{name}` let `{line}` in {path} through: {failures:?}"
        );
    }
}

#[test]
fn the_benchmark_import_is_allowed_by_its_content_not_its_line_number() {
    let launch = rule("One launch path: launch::run is the benchmark's name only");
    let pin = tree()
        .iter()
        .find(|s| s.path == "tests/benchmark_api.rs")
        .expect("tests/benchmark_api.rs");
    let moved = format!("use std::fmt;\n{}", pin.text);
    let mut tree = one_file("tests/benchmark_api.rs", &moved);
    assert_eq!(launch.check(&tree), Vec::<String>::new());

    tree.push(Source {
        path: "tests/other.rs".into(),
        text: "use xmpi::launch::run;\n".into(),
    });
    let failures = launch.check(&tree);
    assert!(
        failures.len() == 1 && failures[0].starts_with("tests/other.rs:1: "),
        "{failures:?}"
    );

    let twice = format!("{moved}use xmpi::launch::{{run, socket_backend_reexec}};\n");
    let failures = launch.check(&one_file("tests/benchmark_api.rs", &twice));
    assert!(
        failures.len() == 1 && failures[0].contains("names 2 lines"),
        "{failures:?}"
    );
}

#[test]
fn the_sleep_exception_is_its_function() {
    let stall = "fn interruptible_stall(t: Duration) {\n    std::thread::sleep(t);\n}\n";
    // The rule itself grants no exception: a torn write's stall polls.
    let failures = rule("No sleep-polling").check(&one_file("crates/xmpi/src/socket.rs", stall));
    assert!(
        failures.len() == 1 && failures[0].starts_with("crates/xmpi/src/socket.rs:2: "),
        "{failures:?}"
    );
    // An exception by function covers that function's lines, no other.
    let sleep = Rule {
        allow: &[Allow {
            file: "crates/xmpi/src/socket.rs",
            at: At::Fn("interruptible_stall"),
            reason: "a stall by sleeping",
        }],
        ..*rule("No sleep-polling")
    };
    assert!(sleep
        .check(&one_file("crates/xmpi/src/socket.rs", stall))
        .is_empty());
    let twice = format!("{stall}pub fn heartbeat() {{\n    std::thread::sleep(T);\n}}\n");
    let failures = sleep.check(&one_file("crates/xmpi/src/socket.rs", &twice));
    assert!(
        failures.len() == 1 && failures[0].starts_with("crates/xmpi/src/socket.rs:5: "),
        "{failures:?}"
    );
}

#[test]
fn tokens_match_at_identifier_boundaries_only_where_asked() {
    assert!(contains("fn eliminate(p)", "fn eliminate\\b"));
    assert!(!contains("fn eliminated(p)", "fn eliminate\\b"));
    assert!(contains("x.isend_f64()", "isend"));
    assert!(contains("use xmpi::launch::run;", "launch::{run}"));
    assert!(contains(
        "use xmpi::launch::{socket_backend_reexec, run};",
        "launch::{run}"
    ));
    assert!(!contains("use xmpi::launch::{run_ft};", "launch::{run}"));
    assert!(!contains("use xmpi::launch::{a}; run()", "launch::{run}"));
    assert!(!contains("xmpi::launch::run_ft(4, f)", "launch::{run}"));
}

#[test]
fn the_census_counts_call_sites_outside_the_crate_and_outside_tests() {
    let lonely = Source {
        path: "crates/dense/src/a.rs".into(),
        text: "pub fn lonely() {}\n#[cfg(test)]\nmod tests {\n    pub fn hidden() {}\n}\n".into(),
    };
    let flagged = |caller: &str, text: &str| {
        let tree = vec![
            Source {
                path: lonely.path.clone(),
                text: lonely.text.clone(),
            },
            Source {
                path: caller.into(),
                text: text.into(),
            },
        ];
        caller_census(&tree, &["dense"], &[])
    };
    let unused = vec![
        "crates/dense/src/a.rs: pub fn lonely has no caller outside its crate's src and outside tests"
            .to_string(),
    ];
    assert_eq!(
        flagged("src/lib.rs", "let x = dense::lonely();"),
        Vec::<String>::new()
    );
    assert_eq!(
        flagged("crates/dense/src/bin/b.rs", "lonely()"),
        Vec::<String>::new()
    );
    assert_eq!(
        flagged("benchmark/src/main.rs", "f(dense::a::lonely)"),
        Vec::<String>::new()
    );
    assert_eq!(flagged("crates/dense/src/b.rs", "lonely()"), unused);
    assert_eq!(flagged("tests/a.rs", "lonely()"), unused);
    assert_eq!(flagged("crates/factor/tests/a.rs", "lonely()"), unused);
    assert_eq!(flagged("src/lib.rs", "// lonely() in prose"), unused);
    assert_eq!(flagged("src/lib.rs", "the lonely one"), unused);
}

#[test]
fn a_census_exception_nothing_needs_fails() {
    let tree = vec![
        Source {
            path: "crates/dense/src/a.rs".into(),
            text: "pub fn lonely() {}\n".into(),
        },
        Source {
            path: "src/lib.rs".into(),
            text: "dense::lonely();\n".into(),
        },
    ];
    let allow = [exempt(
        "crates/dense/src/a.rs",
        "lonely",
        "kept for a reason",
    )];
    let failures = caller_census(&tree, &["dense"], &allow);
    assert!(
        failures.len() == 1 && failures[0].contains("no longer needed"),
        "{failures:?}"
    );
    assert!(caller_census(&tree[..1], &["dense"], &allow).is_empty());
}

#[test]
fn every_exception_has_a_reason() {
    let entries = RULES.iter().flat_map(|r| r.allow).chain(CENSUS_ALLOW);
    for entry in entries {
        assert!(
            !entry.reason.trim().is_empty(),
            "{} has no reason",
            entry.describe()
        );
    }
}
