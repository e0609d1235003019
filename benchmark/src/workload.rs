//! The four workloads: what runs, on which input, and how one repetition is
//! timed and summarised. Everything here reaches the program through
//! `factor`'s public drivers only.

use dense::Matrix;
use factor::{confchox_cholesky, conflux_lu, ConfchoxConfig, ConfluxConfig};
use serde_json::{json, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use xmpi::{Grid3, WorldStats};

/// Which factorization a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// `factor::conflux_lu`.
    Lu,
    /// `factor::confchox_cholesky`.
    Chol,
}

/// One benchmark workload. The rank count is part of the program's
/// configuration, not of the load: every workload is a closed loop with one
/// client that issues one factorization at a time.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line, in `BENCHMARK.json` and in results.
    pub name: &'static str,
    /// Factorization that runs.
    pub algo: Algo,
    /// Matrix dimension of a full run.
    n: usize,
    /// Matrix dimension under `--smoke`.
    smoke_n: usize,
    /// World size handed to `*Config::auto`.
    pub p: usize,
    /// Ranks are processes on `Backend::Socket` (one-shot per repetition).
    pub socket: bool,
}

/// The workloads, in reporting order. Why each exists is recorded next to
/// its name in `BENCHMARK.json` and in the README.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lu_p1",
        algo: Algo::Lu,
        n: 1024,
        smoke_n: 128,
        p: 1,
        socket: false,
    },
    Workload {
        name: "lu_p8",
        algo: Algo::Lu,
        n: 1024,
        smoke_n: 128,
        p: 8,
        socket: false,
    },
    Workload {
        name: "chol_p8",
        algo: Algo::Chol,
        n: 1536,
        smoke_n: 192,
        p: 8,
        socket: false,
    },
    Workload {
        name: "lu_p4_socket",
        algo: Algo::Lu,
        n: 512,
        smoke_n: 128,
        p: 4,
        socket: true,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

enum Config {
    Lu(ConfluxConfig),
    Chol(ConfchoxConfig),
}

/// A generated input: the matrix and the configuration `auto` chose for it.
/// This pair is all the program ever receives.
pub struct Input {
    a: Matrix,
    cfg: Config,
}

impl Workload {
    /// Matrix dimension.
    pub fn n(&self, smoke: bool) -> usize {
        if smoke {
            self.smoke_n
        } else {
            self.n
        }
    }

    /// Nominal flop count of the factorization (`2n³/3` or `n³/3`).
    pub fn nominal_flops(&self, smoke: bool) -> f64 {
        let n = self.n(smoke);
        match self.algo {
            Algo::Lu => dense::flops::lu_total_flops(n) as f64,
            Algo::Chol => dense::flops::cholesky_total_flops(n) as f64,
        }
    }

    /// Generate the input for `seed`.
    pub fn input(&self, seed: u64, smoke: bool) -> Input {
        let n = self.n(smoke);
        match self.algo {
            Algo::Lu => Input {
                a: dense::gen::random_matrix(n, n, seed),
                cfg: Config::Lu(ConfluxConfig::auto(n, self.p)),
            },
            Algo::Chol => Input {
                a: dense::gen::random_spd(n, seed + 1),
                cfg: Config::Chol(ConfchoxConfig::auto(n, self.p)),
            },
        }
    }
}

/// What one driver call returned, plus its wall-clock.
pub struct Outcome {
    /// Seconds from the driver call to its return.
    pub wall_s: f64,
    /// Traffic counters of the world the driver launched.
    pub stats: WorldStats,
    perm: Vec<usize>,
    factor: Matrix,
}

impl Input {
    /// Grid and block size `auto` chose.
    pub fn grid_and_block(&self) -> (Grid3, usize) {
        match &self.cfg {
            Config::Lu(c) => (c.grid, c.v),
            Config::Chol(c) => (c.grid, c.v),
        }
    }

    /// Call the driver once and time it from call to return. An `Err` from
    /// the driver or a panic inside it is reported as `Err`.
    pub fn factorize(&self) -> Result<Outcome, String> {
        let call = AssertUnwindSafe(|| {
            let t = Instant::now();
            match &self.cfg {
                Config::Lu(cfg) => conflux_lu(cfg, &self.a).map(|out| {
                    let wall_s = t.elapsed().as_secs_f64();
                    (wall_s, out.stats, out.perm, out.packed)
                }),
                Config::Chol(cfg) => confchox_cholesky(cfg, &self.a).map(|out| {
                    let wall_s = t.elapsed().as_secs_f64();
                    (wall_s, out.stats, Vec::new(), out.l)
                }),
            }
        });
        match catch_unwind(call) {
            Ok(Ok((wall_s, stats, perm, Some(factor)))) => Ok(Outcome {
                wall_s,
                stats,
                perm,
                factor,
            }),
            Ok(Ok(_)) => Err("driver returned no factor".into()),
            Ok(Err(e)) => Err(format!("driver returned an error: {e}")),
            Err(_) => Err("driver panicked".into()),
        }
    }

    /// Relative residual of `out` against this input (`‖PA − LU‖/‖A‖` or
    /// `‖A − LLᵀ‖/‖A‖`).
    pub fn residual(&self, out: &Outcome) -> f64 {
        match self.cfg {
            Config::Lu(_) => dense::norms::lu_residual_perm(&self.a, &out.factor, &out.perm),
            Config::Chol(_) => dense::norms::po_residual(&self.a, &out.factor),
        }
    }
}

/// What is kept of one repetition: its wall-clock and what must be
/// identical on every repetition. Crosses the process boundary as JSON on
/// the socket workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Seconds from the driver call to its return.
    pub wall_s: f64,
    /// FNV-1a digest of the pivot permutation and the factor's bit patterns.
    pub digest: u64,
    /// `WorldStats::max_rank_bytes()`.
    pub max_rank_bytes: u64,
    /// `WorldStats::avg_rank_bytes()`.
    pub avg_rank_bytes: f64,
    /// Messages sent, averaged over ranks.
    pub msgs_per_rank: f64,
}

impl Sample {
    /// Summarise an outcome.
    pub fn of(out: &Outcome) -> Sample {
        let words = out
            .perm
            .iter()
            .map(|&r| r as u64)
            .chain(out.factor.data().iter().map(|x| x.to_bits()));
        // FNV-1a over whole words: an equality check, not a hash table key.
        let digest = words.fold(0xcbf2_9ce4_8422_2325_u64, |digest, w| {
            (digest ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        });
        Sample {
            wall_s: out.wall_s,
            digest,
            max_rank_bytes: out.stats.max_rank_bytes(),
            avg_rank_bytes: out.stats.avg_rank_bytes(),
            msgs_per_rank: out.stats.total_msgs() as f64 / out.stats.ranks.len() as f64,
        }
    }

    /// Does `other` carry the same result and the same traffic?
    pub fn agrees_with(&self, other: &Sample) -> bool {
        self.digest == other.digest && self.max_rank_bytes == other.max_rank_bytes
    }

    /// JSON form printed by a one-shot process.
    pub fn to_json(&self) -> Value {
        json!({
            "wall_s": self.wall_s,
            "digest": self.digest,
            "max_rank_bytes": self.max_rank_bytes,
            "avg_rank_bytes": self.avg_rank_bytes,
            "msgs_per_rank": self.msgs_per_rank,
        })
    }

    /// Parse [`Sample::to_json`]'s output.
    pub fn from_json(v: &Value) -> Option<Sample> {
        Some(Sample {
            wall_s: v.get("wall_s")?.as_f64()?,
            digest: v.get("digest")?.as_u64()?,
            max_rank_bytes: v.get("max_rank_bytes")?.as_u64()?,
            avg_rank_bytes: v.get("avg_rank_bytes")?.as_f64()?,
            msgs_per_rank: v.get("msgs_per_rank")?.as_f64()?,
        })
    }
}
