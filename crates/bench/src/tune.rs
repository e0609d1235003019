//! The auto-tuning sweep behind `bench tune` (see `docs/TUNING.md`).
//!
//! Two stages, mirroring how BLIS-style libraries are tuned by hand:
//!
//! 1. **Microkernel stage** — every [`dense::ukernel`] variant runnable on
//!    this CPU (exact variants only unless FMA is explicitly allowed) is
//!    timed at the probe size with the default blocking, on the two shapes
//!    the engine serves: the `n³` cube, and the factorizations' trailing
//!    update — `n × k × n` through `par_gemm_rows` with a full row map,
//!    `k` the inner dimension the block rule gives a one-rank run of that
//!    size (32 at the default probe). A candidate's score is the harmonic
//!    mean of the two rates — the rate of doing equal flops of each — so a
//!    blocking chosen for `k` = 512 cannot win while serving `k` = 32
//!    badly. The register tile dominates throughput, so this stage prunes
//!    the grid cheaply.
//! 2. **Blocking stage** — the top `FINALISTS` (3) microkernels are re-timed
//!    over a (KC, MC, NC) cache-blocking grid. KC never goes below
//!    [`dense::tuning::KC_MIN_EXACT`]: the sweep only proposes configs the
//!    dispatcher would accept under the bitwise-reproducibility contract.
//!
//! The winner is then **verified** — a full GEMM under the winning config
//! is required to be bitwise-identical to the forced-scalar baseline on
//! ragged shapes with factorization-like depths — before it is offered for
//! the registry. A sweep whose winner fails verification is a bug in the
//! kernel family, and `tune()` reports it as an error rather than
//! persisting a wrong config.
//!
//! Timing uses best-of-reps over a fixed input (after one warmup), the
//! same discipline as `experiments::kernels`: the best observed time is
//! the least-noisy estimator of the achievable rate on a shared machine.

use dense::flops::gemm_flops;
use dense::gemm::{gemm, par_gemm_rows, Trans};
use dense::gen::random_matrix;
use dense::tuning::{self, KernelConfig, TunedEntry, KC_MIN_EXACT};
use dense::ukernel::{self, Variant};
use dense::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// How many stage-1 microkernels advance to the blocking stage.
const FINALISTS: usize = 3;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// GEMM probe size (default 512; `--quick` uses 256).
    pub n: usize,
    /// Timing repetitions per candidate (best-of).
    pub reps: usize,
    /// Shrink the blocking grid for CI (`--quick`).
    pub quick: bool,
    /// Include inexact FMA variants in the sweep. The resulting entry is
    /// stored with `exact = false` and ignored by dispatch unless the user
    /// opts in at runtime too.
    pub allow_fma: bool,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            n: 512,
            reps: 3,
            quick: false,
            allow_fma: false,
        }
    }
}

/// One configuration's measured rates on the two probe shapes.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// GF/s on the `n³` cube through `gemm`.
    pub gflops: f64,
    /// GF/s on the `n × k × n` trailing update through `par_gemm_rows`.
    pub update_gflops: f64,
}

impl Rates {
    /// What the sweep ranks by: the harmonic mean of the two rates.
    pub fn score(&self) -> f64 {
        2.0 / (1.0 / self.gflops + 1.0 / self.update_gflops)
    }
}

/// One timed candidate, for the report table.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The configuration timed.
    pub config: KernelConfig,
    /// Measured throughput.
    pub rates: Rates,
    /// Which stage produced the sample.
    pub stage: &'static str,
}

/// Result of a sweep.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The winning configuration (verified).
    pub best: KernelConfig,
    /// The winner's measured throughput.
    pub best_rates: Rates,
    /// Forced-scalar baseline cube throughput at the same probe size.
    pub scalar_gflops: f64,
    /// Probe size used.
    pub probe_n: usize,
    /// Every timed candidate, in measurement order.
    pub candidates: Vec<Candidate>,
}

impl TuneOutcome {
    /// The registry entry this sweep proposes for the current machine.
    fn to_entry(&self) -> TunedEntry {
        let stamp = crate::provenance::Stamp::here(None);
        TunedEntry {
            machine: stamp.machine,
            variant: self.best.variant.id.to_string(),
            kc: self.best.kc,
            mc: self.best.mc,
            nc: self.best.nc,
            gflops: self.best_rates.gflops,
            probe_n: self.probe_n,
            exact: self.best.variant.exact(),
            commit: stamp.commit,
            timestamp: stamp.timestamp,
        }
    }

    /// Winner-over-scalar speedup on the cube (the `tuned_speedup` KPI).
    pub fn speedup(&self) -> f64 {
        self.best_rates.gflops / self.scalar_gflops
    }
}

/// Repetitions of the update probe per repetition of the cube: at the
/// default probe size one update is a sixteenth of the cube's flops (under
/// half a millisecond), too short for a best-of-3 to be steady.
pub(crate) const UPDATE_REPS: usize = 8;

/// Inner dimension of the trailing update a one-rank COnfLUX run of size `n`
/// issues: `v / Pz` of the block rule, so the probe follows the rule.
pub fn update_depth(n: usize) -> usize {
    let cfg = factor::ConfluxConfig::auto(n, 1);
    cfg.v / cfg.grid.pz
}

/// Fixed probe operands shared by every candidate measurement.
struct Probe {
    a: Matrix,
    b: Matrix,
    c: Matrix,
    /// The update's `n × k` and `k × n` panels and its (full) row map.
    l10: Matrix,
    u01: Matrix,
    rows: Vec<usize>,
}

impl Probe {
    fn new(n: usize) -> Probe {
        let k = update_depth(n);
        Probe {
            a: random_matrix(n, n, 11),
            b: random_matrix(n, n, 12),
            c: Matrix::zeros(n, n),
            l10: random_matrix(n, k, 13),
            u01: random_matrix(k, n, 14),
            rows: (0..n).collect(),
        }
    }

    /// Best-of-`reps` GFLOP/s of `cfg` on the cube (one untimed warmup
    /// first).
    fn measure_cube(&mut self, cfg: KernelConfig, reps: usize) -> f64 {
        let n = self.c.rows();
        let secs = best_secs(reps, || {
            tuning::with_override(cfg, || {
                gemm(
                    Trans::N,
                    Trans::N,
                    1.0,
                    self.a.as_ref(),
                    self.b.as_ref(),
                    0.0,
                    self.c.as_mut(),
                )
            });
            black_box(self.c.data()[0]);
        });
        gemm_flops(n, n, n) as f64 / secs / 1e9
    }

    /// Both rates of `cfg`. The update accumulates into whatever the cube
    /// left in `c`; its rate does not depend on the values.
    fn measure(&mut self, cfg: KernelConfig, reps: usize) -> Rates {
        let gflops = self.measure_cube(cfg, reps);
        let (n, k) = (self.l10.rows(), self.l10.cols());
        let secs = best_secs(UPDATE_REPS * reps, || {
            tuning::with_override(cfg, || {
                par_gemm_rows(
                    -1.0,
                    self.l10.as_ref(),
                    self.u01.as_ref(),
                    &self.rows,
                    self.c.as_mut(),
                )
            });
            black_box(self.c.data()[0]);
        });
        Rates {
            gflops,
            update_gflops: gemm_flops(n, n, k) as f64 / secs / 1e9,
        }
    }
}

/// Best-of-`reps` wall time of `f`, after one untimed warmup call (which
/// also grows the thread-local packing buffers to their steady-state size).
pub(crate) fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The blocking grid for stage 2. KC stays at or above the exact floor so
/// every proposed config passes `tuning::resolve`.
fn blocking_grid(quick: bool) -> Vec<(usize, usize, usize)> {
    // MC in multiples of 24, so no tile height of the family (4, 6, 8) pads
    // a block's last row panel.
    let (kcs, mcs, ncs): (&[usize], &[usize], &[usize]) = if quick {
        (&[KC_MIN_EXACT, 512], &[96, 192], &[1024])
    } else {
        (
            &[KC_MIN_EXACT, 384, 512],
            &[96, 192, 288, 384],
            &[256, 512, 1024],
        )
    };
    let mut grid = Vec::new();
    for &kc in kcs {
        for &mc in mcs {
            for &nc in ncs {
                grid.push((kc, mc, nc));
            }
        }
    }
    grid
}

/// Verify the winner cannot change results: a GEMM under `cfg` must be
/// bitwise-equal to the forced-scalar baseline on ragged shapes whose
/// depths cover the factorization regime (`k ≤ KC_MIN_EXACT`). Inexact
/// (FMA) winners skip the bit comparison — they are stored with
/// `exact = false` and gated at dispatch instead.
fn verify_bitwise(cfg: KernelConfig) -> Result<(), String> {
    if !cfg.variant.exact() {
        return Ok(());
    }
    for &(m, n, k) in &[(97usize, 83usize, 61usize), (130, 111, 256), (64, 64, 1)] {
        let a = random_matrix(m, k, 21);
        let b = random_matrix(k, n, 22);
        let c0 = random_matrix(m, n, 23);
        let mut want = c0.clone();
        tuning::with_override(tuning::scalar_baseline(), || {
            gemm(
                Trans::N,
                Trans::N,
                1.0,
                a.as_ref(),
                b.as_ref(),
                1.0,
                want.as_mut(),
            )
        });
        let mut got = c0.clone();
        tuning::with_override(cfg, || {
            gemm(
                Trans::N,
                Trans::N,
                1.0,
                a.as_ref(),
                b.as_ref(),
                1.0,
                got.as_mut(),
            )
        });
        if got.data() != want.data() {
            return Err(format!(
                "winner {} is not bitwise-equal to the scalar baseline at {}x{}x{}",
                cfg.describe(),
                m,
                n,
                k
            ));
        }
    }
    Ok(())
}

/// The variants stage 1 times: every available variant, exact-only unless
/// FMA is allowed.
fn sweep_variants(allow_fma: bool) -> Vec<&'static Variant> {
    ukernel::available_variants()
        .filter(|v| allow_fma || v.exact())
        .collect()
}

/// Run the two-stage sweep. Pure measurement: nothing is written to disk
/// (the `tune` binary persists the registry; the ablation driver records
/// KPIs).
pub fn tune(opts: &TuneOptions) -> Result<TuneOutcome, String> {
    let mut probe = Probe::new(opts.n);
    let base = tuning::default_config();
    let mut candidates = Vec::new();

    // Stage 0: the forced-scalar baseline, the speedup denominator.
    let scalar_gflops = probe.measure_cube(tuning::scalar_baseline(), opts.reps);

    // Stage 1: microkernel sweep at default blocking.
    let variants = sweep_variants(opts.allow_fma);
    if variants.is_empty() {
        return Err("no runnable microkernel variants (broken grid?)".into());
    }
    let mut stage1: Vec<(KernelConfig, Rates)> = Vec::new();
    for v in variants {
        let cfg = KernelConfig { variant: v, ..base };
        let rates = probe.measure(cfg, opts.reps);
        candidates.push(Candidate {
            config: cfg,
            rates,
            stage: "microkernel",
        });
        stage1.push((cfg, rates));
    }
    stage1.sort_by(|a, b| b.1.score().total_cmp(&a.1.score()));
    stage1.truncate(FINALISTS);

    // Stage 2: blocking sweep over the finalists. The stage-1 sample at
    // default blocking stays in the pool, so stage 2 can only improve on it.
    let mut best = stage1[0];
    for &(finalist, _) in &stage1 {
        for (kc, mc, nc) in blocking_grid(opts.quick) {
            if (kc, mc, nc) == (base.kc, base.mc, base.nc) {
                continue; // already timed in stage 1
            }
            let cfg = KernelConfig {
                kc,
                mc,
                nc,
                ..finalist
            };
            let rates = probe.measure(cfg, opts.reps);
            candidates.push(Candidate {
                config: cfg,
                rates,
                stage: "blocking",
            });
            if rates.score() > best.1.score() {
                best = (cfg, rates);
            }
        }
    }

    verify_bitwise(best.0)?;
    Ok(TuneOutcome {
        best: best.0,
        best_rates: best.1,
        scalar_gflops,
        probe_n: opts.n,
        candidates,
    })
}

/// Merge a sweep outcome into the registry file at `path` (creating it if
/// absent, preserving other machines' entries) and return the stored entry.
pub fn persist(outcome: &TuneOutcome, path: &std::path::Path) -> Result<TunedEntry, String> {
    // A missing or corrupt registry is rebuilt rather than fatal: the
    // sweep's own result is the most trustworthy state we have.
    let mut entries = tuning::load_registry(path).unwrap_or_default();
    let entry = outcome.to_entry();
    tuning::upsert(&mut entries, entry.clone());
    tuning::save_registry(path, &entries).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> TuneOptions {
        // Tiny probe: exercises the full pipeline in test time. Throughput
        // numbers are meaningless at n=64, but ordering/plumbing is not.
        TuneOptions {
            n: 64,
            reps: 1,
            quick: true,
            allow_fma: false,
        }
    }

    #[test]
    fn sweep_produces_a_verified_exact_winner() {
        let out = tune(&quick_opts()).expect("sweep runs");
        assert!(out.best.variant.exact(), "default sweep is exact-only");
        assert!(out.best.kc >= KC_MIN_EXACT);
        assert!(out.best_rates.gflops > 0.0 && out.best_rates.update_gflops > 0.0);
        assert!(out.scalar_gflops > 0.0);
        // Winner scores at least as high as every candidate we timed.
        for c in &out.candidates {
            assert!(
                out.best_rates.score() >= c.rates.score(),
                "{} beat the winner",
                c.config.describe()
            );
        }
        // Entry round-trips through resolve (same machine, exact, sane).
        let entry = out.to_entry();
        let cfg = tuning::resolve(std::slice::from_ref(&entry), &entry.machine, false)
            .expect("resolvable");
        assert_eq!(cfg.variant.id, out.best.variant.id);
    }

    #[test]
    fn the_update_probe_follows_the_block_rule() {
        // 32 wherever the rule's load-balance guard does not bind first.
        assert_eq!(update_depth(512), 32);
        assert_eq!(update_depth(1024), 32);
        assert_eq!(update_depth(64), 16);
        // The score sits between the two rates, nearer the slower.
        let r = Rates {
            gflops: 30.0,
            update_gflops: 10.0,
        };
        assert!((r.score() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn exact_sweep_never_times_fma_variants() {
        for v in sweep_variants(false) {
            assert!(v.exact(), "{} leaked into the exact sweep", v.id);
        }
        // With the opt-in, FMA variants appear iff the CPU supports them.
        let with_fma = sweep_variants(true);
        assert!(with_fma.len() >= sweep_variants(false).len());
    }

    #[test]
    fn persist_round_trips_and_preserves_other_machines() {
        let dir = std::env::temp_dir().join("bench-tune-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tuning.json");
        let foreign = TunedEntry {
            machine: "other-box".into(),
            variant: "scalar_4x8_u1".into(),
            kc: 256,
            mc: 128,
            nc: 512,
            gflops: 5.0,
            probe_n: 512,
            exact: true,
            commit: "c".into(),
            timestamp: "t".into(),
        };
        tuning::save_registry(&path, std::slice::from_ref(&foreign)).unwrap();

        let out = tune(&quick_opts()).unwrap();
        let entry = persist(&out, &path).unwrap();
        let entries = tuning::load_registry(&path).unwrap();
        assert_eq!(entries.len(), 2, "foreign entry preserved");
        assert!(entries.contains(&foreign));
        assert!(entries.iter().any(|e| e.machine == entry.machine));

        // Persisting again replaces, not duplicates.
        persist(&out, &path).unwrap();
        assert_eq!(tuning::load_registry(&path).unwrap().len(), 2);
    }

    #[test]
    fn blocking_grid_respects_the_exact_kc_floor() {
        for quick in [false, true] {
            for (kc, _, _) in blocking_grid(quick) {
                assert!(kc >= KC_MIN_EXACT);
            }
        }
    }
}
