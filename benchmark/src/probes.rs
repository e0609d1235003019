//! Layer probes: the benchmark times a layer's public functions directly,
//! with fixed repetition counts, and reports the median. Probes do not
//! depend on which workload is running; they give the ceilings and unit
//! costs the workload timings are read against.

use crate::stats::median;
use crate::workload::{find, Workload};
use crate::{Metric, OneShot, Options};
use dense::gemm::CUplo;
use dense::{flops, gemm, gemmt, getrf, par_gemm, potrf, trsm, Diag, Matrix, Side, Trans, Uplo};
use factor::{twod_cholesky, twod_lu, TwodConfig};
use std::hint::black_box;
use std::time::Instant;
use xmpi::{Buf, Comm};

/// Tag of the probes' point-to-point exchanges, clear of collective tags.
const TAG_PROBE: u64 = 9_200_000;
/// Back-to-back operations per timed block (amortizes the clock reads and
/// the skew of leaving the barrier).
const OPS_PER_BLOCK: usize = 4;
/// Elements of the bandwidth probe's message (1 MiB).
const BIG_ELEMS: usize = 128 * 1024;
/// Elements of the broadcast probe's message: one `v×v` A00 at `v = 16`.
const A00_ELEMS: usize = 256;
/// World size of the socket probes (the socket workload's).
const SOCKET_P: usize = 4;
/// World size of the local launch and broadcast probes (the `*_p8`
/// workloads').
const LOCAL_P: usize = 8;

/// Median seconds of `run` over `reps` calls, each on a fresh `setup()`
/// value that is built outside the timed region.
fn median_secs<S, T>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> T,
) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            let out = run(black_box(input));
            let s = t.elapsed().as_secs_f64();
            black_box(out);
            s
        })
        .collect();
    median(&secs)
}

fn gflops(flop_count: u64, secs: f64) -> f64 {
    flop_count as f64 / secs / 1e9
}

/// `dense` ceilings and the rank-`k` shapes `factor` issues at `v = 16`.
/// `n` is the LU workloads' dimension, `nc` the Cholesky workload's.
fn dense_probes(seed: u64, n: usize, nc: usize, reps: usize, out: &mut Vec<Metric>) {
    const K: usize = 16;
    let a = dense::gen::random_matrix(n, n, seed);
    let b = dense::gen::random_matrix(n, n, seed + 1);
    let spd = dense::gen::random_spd(nc, seed + 1);
    let tall = dense::gen::random_matrix(n, K, seed + 2);
    let wide = dense::gen::random_matrix(K, n, seed + 3);
    let tri = dense::gen::well_conditioned(K, seed + 4);

    let s = median_secs(
        reps,
        || Matrix::zeros(n, n),
        |mut c| {
            gemm(
                Trans::N,
                Trans::N,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                c.as_mut(),
            );
            c
        },
    );
    out.push(Metric::new(
        "dense.gemm_1024_gflops",
        gflops(flops::gemm_flops(n, n, n), s),
        "GF/s",
    ));

    let s = median_secs(
        reps,
        || a.clone(),
        |mut w| {
            getrf(&mut w, 0)
                .map(|ipiv| (w, ipiv))
                .expect("LU of a random matrix")
        },
    );
    out.push(Metric::new(
        "dense.getrf_1024_gflops",
        gflops(flops::lu_total_flops(n), s),
        "GF/s",
    ));

    let s = median_secs(
        reps,
        || spd.clone(),
        |mut w| {
            potrf(&mut w, 0)
                .map(|()| w)
                .expect("Cholesky of an SPD matrix")
        },
    );
    out.push(Metric::new(
        "dense.potrf_1536_gflops",
        gflops(flops::cholesky_total_flops(nc), s),
        "GF/s",
    ));

    // The trailing update C ← C − A·B with a `v`-deep inner dimension, on
    // one reused C so the probe sees the update's own memory traffic.
    let reps = reps * 4;
    let mut c = a.clone();
    let s = median_secs(
        reps,
        || (),
        |()| {
            gemm(
                Trans::N,
                Trans::N,
                -1.0,
                tall.as_ref(),
                wide.as_ref(),
                1.0,
                c.as_mut(),
            )
        },
    );
    out.push(Metric::new(
        "dense.gemm_rank16_gflops",
        gflops(flops::gemm_flops(n, n, K), s),
        "GF/s",
    ));

    let s = median_secs(
        reps,
        || (),
        |()| par_gemm(-1.0, tall.as_ref(), wide.as_ref(), 1.0, c.as_mut()),
    );
    out.push(Metric::new(
        "dense.par_gemm_rank16_gflops",
        gflops(flops::gemm_flops(n, n, K), s),
        "GF/s",
    ));

    let s = median_secs(
        reps,
        || (),
        |()| {
            gemmt(
                CUplo::Lower,
                Trans::N,
                Trans::T,
                -1.0,
                tall.as_ref(),
                tall.as_ref(),
                1.0,
                c.as_mut(),
            );
        },
    );
    out.push(Metric::new(
        "dense.gemmt_rank16_gflops",
        gflops(flops::gemmt_flops(n, K), s),
        "GF/s",
    ));

    // L10 ← A10·U00⁻¹ on an n×v panel.
    let s = median_secs(
        reps,
        || tall.clone(),
        |mut panel| {
            trsm(
                Side::Right,
                Uplo::Upper,
                Trans::N,
                Diag::NonUnit,
                1.0,
                tri.as_ref(),
                panel.as_mut(),
            );
            panel
        },
    );
    out.push(Metric::new(
        "dense.trsm_panel16_gflops",
        gflops(flops::trsm_flops(K, n), s),
        "GF/s",
    ));
}

/// Median wall of `reps` untraced in-process runs of `w` (no checking: the
/// probe is a timing baseline, the workloads carry the checks).
fn local_wall_s(w: &Workload, opts: &Options, reps: usize) -> Result<f64, String> {
    let input = w.input(opts.seed, opts.smoke);
    let walls = (0..reps)
        .map(|_| input.factorize().map(|out| out.wall_s))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&walls))
}

/// The 2D baselines at the LU workloads' dimension.
fn factor_probes(opts: &Options, n: usize, out: &mut Vec<Metric>) {
    let reps = if opts.smoke { 1 } else { 10 };
    let cfg = TwodConfig::auto(n, 4);
    let a = dense::gen::random_matrix(n, n, opts.seed);
    let s = median_secs(
        reps,
        || (),
        |()| twod_lu(&cfg, &a).expect("2D LU of a random matrix"),
    );
    out.push(Metric::new("factor.twod_lu_p4_wall_s", s, "s"));
    let spd = dense::gen::random_spd(n, opts.seed + 1);
    let s = median_secs(
        reps,
        || (),
        |()| twod_cholesky(&cfg, &spd).expect("2D Cholesky of an SPD matrix"),
    );
    out.push(Metric::new("factor.twod_chol_p4_wall_s", s, "s"));
}

/// Seconds per `op` on the ambient backend: median over barrier-fenced
/// blocks on each rank, slowest rank wins. The block count is fixed, so a
/// socket child that replays this launch reaches the same world.
fn time_op<F>(p: usize, elems: usize, blocks: usize, op: F) -> f64
where
    F: Fn(&Comm, &Buf<f64>) + Sync,
{
    let out = xmpi::launch::run(p, |c| {
        let src = Buf::from(vec![1.0; elems]);
        op(c, &src); // warm-up, not timed
        let secs: Vec<f64> = (0..blocks)
            .map(|_| {
                c.barrier();
                let t = Instant::now();
                for _ in 0..OPS_PER_BLOCK {
                    op(c, &src);
                }
                t.elapsed().as_secs_f64() / OPS_PER_BLOCK as f64
            })
            .collect();
        c.barrier();
        median(&secs)
    });
    out.results.into_iter().fold(0.0, f64::max)
}

/// One-way seconds per message of `elems` f64s: half a ping-pong.
fn oneway_secs(elems: usize, blocks: usize) -> f64 {
    let roundtrip = time_op(2, elems, blocks, |c, src| {
        if c.rank() == 0 {
            c.send_f64(1, TAG_PROBE, src);
            black_box(c.recv_f64(1, TAG_PROBE).len());
        } else {
            let got = c.recv_f64(0, TAG_PROBE);
            c.send_f64(0, TAG_PROBE, &got);
        }
    });
    roundtrip / 2.0
}

/// The `xmpi` unit costs, measured on whatever backend is ambient. Each
/// launches exactly one world, so a one-shot process that runs one of them
/// on the socket backend has no earlier world to replay.
pub fn xmpi_probe(kind: &str, p: usize) -> Option<f64> {
    Some(match kind {
        // An empty world: launch, one barrier, join.
        "launch" => {
            let t = Instant::now();
            xmpi::launch::run(p, |c| c.barrier());
            t.elapsed().as_secs_f64()
        }
        "p2p_alpha_us" => oneway_secs(1, 200) * 1e6,
        "p2p_gbps" => (BIG_ELEMS * 8) as f64 / oneway_secs(BIG_ELEMS, 10) / 1e9,
        "bcast_2k_us" => {
            let s = time_op(p, A00_ELEMS, 50, |c, src| {
                let mine = (c.rank() == 0).then_some(src);
                black_box(c.bcast_shared_f64(0, mine).len());
            });
            s * 1e6
        }
        _ => return None,
    })
}

/// The body of the one-shot process `xmpi.socket.<kind>`: that probe on the
/// socket backend (which the caller has made ambient).
pub fn socket_probe(name: &str) -> Option<f64> {
    xmpi_probe(name.strip_prefix("xmpi.socket.")?, SOCKET_P)
}

fn xmpi_probes(opts: &Options, shots: &OneShot, out: &mut Vec<Metric>) -> Result<(), String> {
    let reps = if opts.smoke { 1 } else { 5 };
    let probe = |kind| xmpi_probe(kind, LOCAL_P).expect("probe kinds are the literals below");
    let launches: Vec<f64> = (0..reps * 4).map(|_| probe("launch")).collect();
    out.push(Metric::new("xmpi.launch_p8_s", median(&launches), "s"));
    out.push(Metric::new(
        "xmpi.p2p_alpha_us",
        probe("p2p_alpha_us"),
        "us",
    ));
    out.push(Metric::new("xmpi.p2p_gbps", probe("p2p_gbps"), "GB/s"));
    out.push(Metric::new(
        "xmpi.bcast_p8_2k_us",
        probe("bcast_2k_us"),
        "us",
    ));

    let socket = |kind: &str| -> Result<f64, String> {
        let values = (0..reps)
            .map(|_| {
                let line = shots.run(&format!("xmpi.socket.{kind}"), false)?;
                line.get("value")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("socket probe {kind} printed no value"))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(median(&values))
    };
    out.push(Metric::new(
        "xmpi.socket.launch_p4_s",
        socket("launch")?,
        "s",
    ));
    out.push(Metric::new(
        "xmpi.socket.p2p_alpha_us",
        socket("p2p_alpha_us")?,
        "us",
    ));
    out.push(Metric::new(
        "xmpi.socket.p2p_gbps",
        socket("p2p_gbps")?,
        "GB/s",
    ));
    out.push(Metric::new(
        "xmpi.socket.bcast_p4_2k_us",
        socket("bcast_2k_us")?,
        "us",
    ));
    Ok(())
}

/// Run every probe. The socket workload's wall and its in-process twin's
/// are measured here too, so that `xmpi.socket.overhead_s` has the same
/// definition whichever workload the run is for.
pub fn all(opts: &Options, shots: &OneShot) -> Result<Vec<Metric>, String> {
    let socket_workload = find("lu_p4_socket").expect("socket workload exists");
    let lu = find("lu_p1").expect("LU workload exists");
    let chol = find("chol_p8").expect("Cholesky workload exists");
    let reps = if opts.smoke { 1 } else { 5 };
    let mut out = Vec::new();
    dense_probes(
        opts.seed,
        lu.n(opts.smoke),
        chol.n(opts.smoke),
        reps,
        &mut out,
    );
    factor_probes(opts, lu.n(opts.smoke), &mut out);
    let twin_s = local_wall_s(socket_workload, opts, reps * 6)?;
    out.push(Metric::new("factor.lu_p4_n512_local_wall_s", twin_s, "s"));
    xmpi_probes(opts, shots, &mut out)?;
    let socket_walls = (0..reps * 2)
        .map(|_| {
            shots
                .workload(socket_workload, false)
                .map(|shot| shot.sample.wall_s)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    out.push(Metric::new(
        "xmpi.socket.overhead_s",
        median(&socket_walls) - twin_s,
        "s",
    ));
    Ok(out)
}
