//! The auto-tuning sweep behind `bench tune` (see `docs/TUNING.md`).
//!
//! Two stages, mirroring how BLIS-style libraries are tuned by hand:
//!
//! 1. **Microkernel stage** — every [`dense::ukernel`] variant runnable on
//!    this CPU (exact variants only unless FMA is explicitly allowed) is
//!    timed on a packed GEMM at the probe size with the default blocking.
//!    The register tile dominates throughput, so this stage prunes the
//!    grid cheaply.
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
use dense::gemm::{gemm, Trans};
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

/// One timed candidate, for the report table.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The configuration timed.
    pub config: KernelConfig,
    /// Measured throughput.
    pub gflops: f64,
    /// Which stage produced the sample.
    pub stage: &'static str,
}

/// Result of a sweep.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The winning configuration (verified).
    pub best: KernelConfig,
    /// The winner's measured throughput.
    pub best_gflops: f64,
    /// Forced-scalar baseline throughput at the same probe size.
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
            gflops: self.best_gflops,
            probe_n: self.probe_n,
            exact: self.best.variant.exact(),
            commit: stamp.commit,
            timestamp: stamp.timestamp,
        }
    }

    /// Winner-over-scalar speedup (the `tuned_speedup` KPI).
    pub fn speedup(&self) -> f64 {
        self.best_gflops / self.scalar_gflops
    }
}

/// Fixed probe operands shared by every candidate measurement.
struct Probe {
    a: Matrix,
    b: Matrix,
    c: Matrix,
    flops: u64,
}

impl Probe {
    fn new(n: usize) -> Probe {
        Probe {
            a: random_matrix(n, n, 11),
            b: random_matrix(n, n, 12),
            c: Matrix::zeros(n, n),
            flops: gemm_flops(n, n, n),
        }
    }

    /// Best-of-`reps` GFLOP/s for one config (one untimed warmup first).
    fn measure(&mut self, cfg: KernelConfig, reps: usize) -> f64 {
        let mut once = || {
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
        };
        once();
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            once();
            best = best.min(t.elapsed().as_secs_f64());
        }
        self.flops as f64 / best / 1e9
    }
}

/// The blocking grid for stage 2. KC stays at or above the exact floor so
/// every proposed config passes `tuning::resolve`.
fn blocking_grid(quick: bool) -> Vec<(usize, usize, usize)> {
    let (kcs, mcs, ncs): (&[usize], &[usize], &[usize]) = if quick {
        (&[KC_MIN_EXACT, 512], &[128, 256], &[512])
    } else {
        (
            &[KC_MIN_EXACT, 384, 512],
            &[64, 128, 192, 256],
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
    let scalar_gflops = probe.measure(tuning::scalar_baseline(), opts.reps);

    // Stage 1: microkernel sweep at default blocking.
    let variants = sweep_variants(opts.allow_fma);
    if variants.is_empty() {
        return Err("no runnable microkernel variants (broken grid?)".into());
    }
    let mut stage1: Vec<(KernelConfig, f64)> = Vec::new();
    for v in variants {
        let cfg = KernelConfig { variant: v, ..base };
        let gf = probe.measure(cfg, opts.reps);
        candidates.push(Candidate {
            config: cfg,
            gflops: gf,
            stage: "microkernel",
        });
        stage1.push((cfg, gf));
    }
    stage1.sort_by(|a, b| b.1.total_cmp(&a.1));
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
            let gf = probe.measure(cfg, opts.reps);
            candidates.push(Candidate {
                config: cfg,
                gflops: gf,
                stage: "blocking",
            });
            if gf > best.1 {
                best = (cfg, gf);
            }
        }
    }

    verify_bitwise(best.0)?;
    Ok(TuneOutcome {
        best: best.0,
        best_gflops: best.1,
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
        assert!(out.best_gflops > 0.0 && out.scalar_gflops > 0.0);
        // Winner is at least as fast as every candidate we timed.
        for c in &out.candidates {
            assert!(
                out.best_gflops >= c.gflops,
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
