//! Local-kernel throughput trajectory: measured GFLOP/s for the packed,
//! register-blocked dense kernels (`gemm`, `gemmt`, `trsm`, `getrf`,
//! `potrf`), the factorizations' trailing update (`update_rank32`: the
//! `n × k × n` row-mapped product COnfLUX issues every step, `k` from the
//! block rule — 32 at the gated size) plus the retained naive triple-loop
//! reference.
//!
//! The distributed schedules charge every rank `flops / machine-peak`
//! seconds per kernel call, so the modeled makespans are only as honest as
//! the local kernels are fast. This report pins the achieved single-core
//! rate of each kernel (analytic flop count over best-of-`reps` wall time)
//! and the packed-vs-naive GEMM speedup that `plans/kernels.toml` gates in
//! CI.

use crate::experiments::Report;
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
    n: usize,
    gflops: f64,
}

/// Measure every kernel at size `n`, appending to `out`. Returns the
/// `(naive, packed, forced-scalar)` GEMM rates so the caller can form the
/// speedup series.
fn measure_size(n: usize, reps: usize, out: &mut Vec<Sample>) -> (f64, f64, f64) {
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
    let naive = gflops(fl, t_naive);
    out.push(Sample {
        kernel: "gemm_naive",
        n,
        gflops: naive,
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
    let packed = gflops(fl, t_packed);
    out.push(Sample {
        kernel: "gemm",
        n,
        gflops: packed,
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
    let scalar = gflops(fl, t_scalar);
    out.push(Sample {
        kernel: "gemm_scalar",
        n,
        gflops: scalar,
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
        n,
        gflops: gflops(fl, t_par),
    });
    out.push(Sample {
        kernel: "update_rank32",
        n,
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
        n,
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
        n,
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
        n,
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
        n,
        gflops: gflops(potrf_flops(n), t_potrf),
    });

    (naive, packed, scalar)
}

/// Run the kernel sweep over `sizes` with best-of-`reps` timing.
pub(crate) fn kernels(sizes: &[usize], reps: usize) -> Report {
    let mut samples = Vec::new();
    let mut speedups = Vec::new();
    let mut tuned_speedups = Vec::new();
    for &n in sizes {
        let (naive, packed, scalar) = measure_size(n, reps, &mut samples);
        speedups.push((n, packed / naive));
        tuned_speedups.push((n, packed / scalar));
    }

    let kernel_order = [
        "gemm_naive",
        "gemm",
        "gemm_scalar",
        "par_gemm",
        "update_rank32",
        "gemmt",
        "trsm",
        "getrf",
        "potrf",
    ];
    let mut headers = vec!["kernel"];
    let size_labels: Vec<String> = sizes.iter().map(|n| format!("N={n}")).collect();
    headers.extend(size_labels.iter().map(|s| s.as_str()));
    let rows: Vec<Vec<String>> = kernel_order
        .iter()
        .map(|&kname| {
            let mut row = vec![kname.to_string()];
            for &n in sizes {
                let s = samples
                    .iter()
                    .find(|s| s.kernel == kname && s.n == n)
                    .expect("sample measured");
                row.push(format!("{:.2}", s.gflops));
            }
            row
        })
        .collect();
    let mut text = format!("GFLOP/s, best of {reps} reps:\n{}", render(&headers, &rows));
    text.push_str("\npacked gemm speedup over naive triple loop:\n");
    for &(n, s) in &speedups {
        text.push_str(&format!("  N={n}: {s:.2}x\n"));
    }
    text.push_str(&format!(
        "dispatched gemm speedup over forced-scalar baseline ({}):\n",
        dense::tuning::active().describe()
    ));
    for &(n, s) in &tuned_speedups {
        text.push_str(&format!("  N={n}: {s:.2}x\n"));
    }

    Report {
        id: "BENCH_kernels".into(),
        title: "local kernel throughput (packed register-blocked path)".into(),
        json: json!({
            "provenance": Stamp::here(None).to_json(),
            "reps": reps,
            "sizes": sizes,
            "samples": samples.iter().map(|s| json!({
                "kernel": s.kernel, "n": s.n, "gflops": s.gflops,
            })).collect::<Vec<_>>(),
            "gemm_speedup_vs_naive": speedups.iter().map(|&(n, s)| json!({
                "n": n, "speedup": s,
            })).collect::<Vec<_>>(),
            "gemm_tuned_speedup_vs_scalar": tuned_speedups.iter().map(|&(n, s)| json!({
                "n": n, "speedup": s,
            })).collect::<Vec<_>>(),
            "update_depth": sizes.iter().map(|&n| json!({
                "n": n, "k": update_depth(n),
            })).collect::<Vec<_>>(),
            "tuning_config": dense::tuning::active().describe(),
        }),
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_every_kernel_and_size() {
        let r = kernels(&[24, 40], 1);
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
            for n in [24u64, 40] {
                assert!(
                    samples.iter().any(|s| s["kernel"] == kernel
                        && s["n"].as_u64() == Some(n)
                        && s["gflops"].as_f64().unwrap() > 0.0),
                    "missing {kernel} at n={n}"
                );
            }
        }
        for series in ["gemm_speedup_vs_naive", "gemm_tuned_speedup_vs_scalar"] {
            let points = r.json[series].as_array().unwrap();
            assert_eq!(points.len(), 2, "{series}: one speedup point per size");
            assert!(points.iter().all(|v| v["speedup"].as_f64().unwrap() > 0.0));
        }
    }

    #[test]
    fn the_update_probe_follows_the_block_rule() {
        // 32 wherever the rule's load-balance guard does not bind first.
        assert_eq!(update_depth(512), 32);
        assert_eq!(update_depth(1024), 32);
        assert_eq!(update_depth(64), 16);
    }
}
