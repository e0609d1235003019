//! Local-kernel throughput: measured GFLOP/s for the packed,
//! register-blocked dense kernels (`gemm`, `gemmt`, `trsm`, `getrf`,
//! `potrf`), the factorizations' trailing update (`update_rank32`: the
//! `n × k × n` row-mapped product COnfLUX issues every step, `k` from the
//! block rule — 32 at the gated size) plus the retained naive triple-loop
//! reference.
//!
//! The distributed schedules charge every rank `flops / machine-peak`
//! seconds per kernel call, so the modeled makespans are only as honest as
//! the local kernels are fast. This report pins the achieved single-core
//! rate of each kernel (analytic flop count over best-of-[`REPS`] wall
//! time) at [`N`], and holds three ratios of two rates timed in the same
//! process to their floors — CI's `kernel-perf` job runs `floors kernels`.
//! The per-kernel GFLOP/s are reported, not gated: a host-clock rate has no
//! exact counterpart to pin it to.

use crate::experiments::Report;
use crate::floor::{Bound, Floor};
use crate::provenance::Stamp;
use crate::table::render;
use dense::flops::{gemm_flops, gemmt_flops, getrf_flops, potrf_flops, trsm_flops};
use dense::gemm::{gemm, gemm_rows, gemmt, naive_gemm, CUplo, Trans};
use dense::gen::{random_matrix, random_spd};
use dense::getrf::getrf;
use dense::potrf::potrf;
use dense::trsm::{trsm, Diag, Side, Uplo};
use dense::Matrix;
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

/// The size every floor below was set at: the `N × N × N` cube.
pub const N: usize = 512;
/// Best-of repetitions per kernel.
pub const REPS: usize = 3;

/// Packed `gemm` over the naive triple loop: the CI floor the old kernels
/// binary asserted.
pub const GEMM_SPEEDUP: Floor = Floor {
    name: "gemm_speedup",
    bound: Bound::Min(2.0),
};

/// The dispatched kernel (the widest level the CPU reports: AVX-512 6×16,
/// else AVX2 6×8) over the forced-scalar 4×8 baseline, same blocking; the
/// number keeps its name from the tuner's days.
pub const TUNED_SPEEDUP: Floor = Floor {
    name: "tuned_speedup",
    bound: Bound::Min(1.5),
};

/// The factorizations' trailing update (`n × 32 × n` through `gemm_rows`,
/// full row map) as a fraction of the `gemm` cube rate, the two timed in
/// alternation: twelve runs read 0.79–1.00 (median 0.89) once the update
/// ran on the packed engine, 0.49–0.75 (median 0.67) before, at this size.
pub const UPDATE_VS_GEMM: Floor = Floor {
    name: "update_vs_gemm",
    bound: Bound::Min(0.70),
};

fn gflops(flops: u64, secs: f64) -> f64 {
    flops as f64 / secs / 1e9
}

/// Repetitions of the update probe per repetition of the cube: at the gated
/// size one update is a sixteenth of the cube's flops (under half a
/// millisecond), too short for a best-of-3 to be steady.
const UPDATE_REPS: usize = 8;

/// Inner dimension of the trailing update a one-rank COnfLUX run of size `n`
/// issues: `v / Pz` of the block rule, so the probe follows the rule.
fn update_depth(n: usize) -> usize {
    let cfg = factor::ConfluxConfig::auto(n, 1);
    cfg.v / cfg.grid.pz
}

/// Best-of-`reps` wall time of `f`, after one untimed warmup call (which
/// also grows the thread-local packing buffers to their steady-state size).
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// One measured kernel at one size.
struct Sample {
    kernel: &'static str,
    gflops: f64,
}

/// Every kernel's rate at size `n`, best of `reps`.
fn samples(n: usize, reps: usize) -> Vec<Sample> {
    let mut out = Vec::new();
    let a = random_matrix(n, n, 11);
    let b = random_matrix(n, n, 12);
    let fl = gemm_flops(n, n, n);

    let mut c = Matrix::zeros(n, n);
    // Naive reference gets fewer reps at large n: it is the slow side of the
    // speedup ratio and one clean repetition is representative.
    let naive_reps = if n >= 384 { 1 } else { reps };
    let t_naive = best_secs(naive_reps, || {
        naive_gemm(
            Trans::N,
            Trans::N,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        black_box(c.data()[0]);
    });
    out.push(Sample {
        kernel: "gemm_naive",
        gflops: gflops(fl, t_naive),
    });

    let t_packed = best_secs(reps, || {
        gemm(
            Trans::N,
            Trans::N,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        black_box(c.data()[0]);
    });
    out.push(Sample {
        kernel: "gemm",
        gflops: gflops(fl, t_packed),
    });

    // The same packed engine pinned to the scalar baseline (scalar 4×8
    // microkernel, same blocking): the denominator of the `tuned_speedup`
    // KPI — dispatched kernel over forced-scalar — that CI gates.
    let t_scalar = best_secs(reps, || {
        dense::tuning::with_override(dense::tuning::scalar_baseline(), || {
            gemm(
                Trans::N,
                Trans::N,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                c.as_mut(),
            )
        });
        black_box(c.data()[0]);
    });
    out.push(Sample {
        kernel: "gemm_scalar",
        gflops: gflops(fl, t_scalar),
    });

    // The untransposed cube (the `par_gemm` sample) and the shape that runs — one step's Schur update of
    // a one-rank COnfLUX at this size, through a full row map — whose ratio
    // is the `update_vs_gemm` KPI. The two are timed in alternation, one cube
    // then `UPDATE_REPS` updates (a sixteenth of its flops each at the gated
    // size), so a slow stretch of the host lands on both sides of the ratio.
    let k = update_depth(n);
    let (l10, u01) = (random_matrix(n, k, 18), random_matrix(k, n, 19));
    let rows: Vec<usize> = (0..n).collect();
    let mut cube = || {
        gemm(
            Trans::N,
            Trans::N,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
        );
        black_box(c.data()[0]);
    };
    cube();
    let mut c2 = Matrix::zeros(n, n);
    let mut update = || {
        gemm_rows(-1.0, l10.as_ref(), u01.as_ref(), &rows, c2.as_mut());
        black_box(c2.data()[0]);
    };
    update();
    let timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let (mut t_par, mut t_update) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        t_par = t_par.min(timed(&mut cube));
        for _ in 0..UPDATE_REPS {
            t_update = t_update.min(timed(&mut update));
        }
    }
    out.push(Sample {
        kernel: "par_gemm",
        gflops: gflops(fl, t_par),
    });
    out.push(Sample {
        kernel: "update_rank32",
        gflops: gflops(gemm_flops(n, n, k), t_update),
    });

    // Symmetric rank-k update with a panel-shaped k, as the factorizations
    // issue it.
    let k = 64.min(n);
    let ak = random_matrix(n, k, 13);
    let mut sym = Matrix::zeros(n, n);
    let t_gemmt = best_secs(reps, || {
        gemmt(
            CUplo::Lower,
            Trans::N,
            Trans::T,
            -1.0,
            ak.as_ref(),
            ak.as_ref(),
            1.0,
            sym.as_mut(),
        );
        black_box(sym.data()[0]);
    });
    out.push(Sample {
        kernel: "gemmt",
        gflops: gflops(gemmt_flops(n, k), t_gemmt),
    });

    let tri = {
        let mut t = random_matrix(n, n, 14);
        for i in 0..n {
            t[(i, i)] = 4.0 + t[(i, i)].abs();
        }
        t
    };
    let rhs = random_matrix(n, n, 15);
    let mut x = rhs.clone();
    let t_trsm = best_secs(reps, || {
        x.data_mut().copy_from_slice(rhs.data());
        trsm(
            Side::Left,
            Uplo::Lower,
            Trans::N,
            Diag::NonUnit,
            1.0,
            tri.as_ref(),
            x.as_mut(),
        );
        black_box(x.data()[0]);
    });
    out.push(Sample {
        kernel: "trsm",
        gflops: gflops(trsm_flops(n, n), t_trsm),
    });

    let square = random_matrix(n, n, 16);
    let mut w = square.clone();
    let t_getrf = best_secs(reps, || {
        w.data_mut().copy_from_slice(square.data());
        black_box(getrf(&mut w, 0).unwrap().len());
    });
    out.push(Sample {
        kernel: "getrf",
        gflops: gflops(getrf_flops(n, n), t_getrf),
    });

    let spd = random_spd(n, 17);
    let mut wc = spd.clone();
    let t_potrf = best_secs(reps, || {
        wc.data_mut().copy_from_slice(spd.data());
        potrf(&mut wc, 0).unwrap();
        black_box(wc.data()[0]);
    });
    out.push(Sample {
        kernel: "potrf",
        gflops: gflops(potrf_flops(n), t_potrf),
    });
    out
}

/// The measured kernels and the three gated ratios.
pub struct KernelRun {
    /// Every kernel's GFLOP/s, written to `results/BENCH_kernels.json`.
    pub report: Report,
    /// Packed over naive `gemm`.
    pub gemm_speedup: f64,
    /// Dispatched over forced-scalar `gemm`.
    pub tuned_speedup: f64,
    /// The trailing update's rate over the cube's.
    pub update_vs_gemm: f64,
}

impl KernelRun {
    /// Each gated number with its floor.
    pub fn gated(&self) -> Vec<(Floor, f64)> {
        vec![
            (GEMM_SPEEDUP, self.gemm_speedup),
            (TUNED_SPEEDUP, self.tuned_speedup),
            (UPDATE_VS_GEMM, self.update_vs_gemm),
        ]
    }
}

/// Measure every kernel at the gated shape.
pub fn run() -> KernelRun {
    measure(N, REPS)
}

/// Measure every kernel at size `n` with best-of-`reps` timing.
fn measure(n: usize, reps: usize) -> KernelRun {
    let samples = samples(n, reps);
    let rate = |kernel: &str| {
        samples
            .iter()
            .find(|s| s.kernel == kernel)
            .expect("sample measured")
            .gflops
    };
    let gemm_speedup = rate("gemm") / rate("gemm_naive");
    let tuned_speedup = rate("gemm") / rate("gemm_scalar");
    let update_vs_gemm = rate("update_rank32") / rate("par_gemm");

    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| vec![s.kernel.to_string(), format!("{:.2}", s.gflops)])
        .collect();
    let text = format!(
        "GFLOP/s, best of {reps} reps:\n{}\npacked gemm speedup over naive triple loop: \
         {gemm_speedup:.2}x\ndispatched gemm speedup over forced-scalar baseline ({}): \
         {tuned_speedup:.2}x\n",
        render(&["kernel", &format!("N={n}")], &rows),
        dense::tuning::active().describe()
    );

    let report = Report {
        id: "BENCH_kernels".into(),
        title: "local kernel throughput (packed register-blocked path)".into(),
        json: json!({
            "provenance": Stamp::here().to_json(),
            "reps": reps,
            "sizes": [n],
            "samples": samples.iter().map(|s| json!({
                "kernel": s.kernel, "n": n, "gflops": s.gflops,
            })).collect::<Vec<_>>(),
            "gemm_speedup_vs_naive": [{ "n": n, "speedup": gemm_speedup }],
            "gemm_tuned_speedup_vs_scalar": [{ "n": n, "speedup": tuned_speedup }],
            "update_depth": [{ "n": n, "k": update_depth(n) }],
            "tuning_config": dense::tuning::active().describe(),
        }),
        text,
    };
    KernelRun {
        report,
        gemm_speedup,
        tuned_speedup,
        update_vs_gemm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One small measurement (`n = 24`, one rep) shared by the report tests.
    fn small_run() -> &'static KernelRun {
        static RUN: std::sync::OnceLock<KernelRun> = std::sync::OnceLock::new();
        RUN.get_or_init(|| measure(24, 1))
    }

    #[test]
    fn report_covers_every_kernel_and_size() {
        let r = &small_run().report;
        assert_eq!(r.id, "BENCH_kernels");
        assert!(
            r.json["provenance"]["commit"].as_str().is_some(),
            "report must carry the shared provenance stamp"
        );
        let samples = r.json["samples"].as_array().unwrap();
        for kernel in [
            "gemm_naive",
            "gemm",
            "gemm_scalar",
            "par_gemm",
            "update_rank32",
            "gemmt",
            "trsm",
            "getrf",
            "potrf",
        ] {
            assert!(
                samples.iter().any(|s| s["kernel"] == kernel
                    && s["n"].as_u64() == Some(24)
                    && s["gflops"].as_f64().unwrap() > 0.0),
                "missing {kernel}"
            );
        }
        for series in ["gemm_speedup_vs_naive", "gemm_tuned_speedup_vs_scalar"] {
            let points = r.json[series].as_array().unwrap();
            assert_eq!(points.len(), 1, "{series}: one speedup point");
            assert!(points[0]["speedup"].as_f64().unwrap() > 0.0, "{series}");
        }
    }

    /// Each gated number is the ratio of the two reported rates it names,
    /// at the measured size, and is reported under its floor.
    #[test]
    fn the_gated_ratios_are_ratios_of_the_reported_rates() {
        let k = small_run();
        let json = &k.report.json;
        let rate = |kernel: &str| {
            json["samples"]
                .as_array()
                .unwrap()
                .iter()
                .find(|s| s["kernel"] == kernel && s["n"].as_u64() == Some(24))
                .and_then(|s| s["gflops"].as_f64())
                .unwrap_or_else(|| panic!("no {kernel} sample at n = 24"))
        };
        assert_eq!(k.gemm_speedup, rate("gemm") / rate("gemm_naive"));
        assert_eq!(k.tuned_speedup, rate("gemm") / rate("gemm_scalar"));
        assert_eq!(k.update_vs_gemm, rate("update_rank32") / rate("par_gemm"));
        for (series, value) in [
            ("gemm_speedup_vs_naive", k.gemm_speedup),
            ("gemm_tuned_speedup_vs_scalar", k.tuned_speedup),
        ] {
            assert_eq!(json[series][0]["n"].as_u64(), Some(24), "{series}");
            assert_eq!(json[series][0]["speedup"].as_f64(), Some(value), "{series}");
        }
        assert_eq!(
            k.gated(),
            [
                (GEMM_SPEEDUP, k.gemm_speedup),
                (TUNED_SPEEDUP, k.tuned_speedup),
                (UPDATE_VS_GEMM, k.update_vs_gemm),
            ]
        );
    }

    #[test]
    fn the_update_probe_follows_the_block_rule() {
        // 32 wherever the rule's load-balance guard does not bind first.
        assert_eq!(update_depth(512), 32);
        assert_eq!(update_depth(1024), 32);
        assert_eq!(update_depth(64), 16);
    }
}
