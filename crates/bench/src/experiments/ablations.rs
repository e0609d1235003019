//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * **block size** — the paper's `v = a·PM/N²` tuning knob: volume rises
//!   with `v` (the `O(N·v)` A00-broadcast term) while message count falls
//!   (fewer steps); the sweep exposes the trade-off the default targets.
//! * **replication depth** — `c = Pz` buys a `√c` cut of the scatter
//!   volume and pays `O(N²c/P)` in z-reductions; the sweep shows the
//!   crossover that makes 2.5D pay off only beyond a processor-count
//!   threshold (the paper's §1 observation about CANDMC/CAPITAL).
//! * **pivoting strategy** — tournament + masking vs tournament + swapping
//!   at matched grids (volume per phase).

use crate::experiments::Report;
use crate::runner::Workload;
use crate::table::render;
use factor::conflux::{conflux_lu, ConfluxConfig};
use factor::lu25d_swap::{lu25d_swap, SwapLuConfig};
use serde_json::json;
use xmpi::Grid3;
use xtrace::Machine;

/// Block-size sweep at a fixed grid.
pub fn block_size(n: usize, grid: Grid3, vs: &[usize]) -> Report {
    let mach = Machine::piz_daint();
    let w = Workload::new(n, 77);
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for &v in vs {
        if !n.is_multiple_of(v) || !v.is_multiple_of(grid.pz) {
            continue;
        }
        let out = conflux_lu(&ConfluxConfig::new(n, v, grid).volume_only(), &w.general)
            .expect("factorization failed");
        let bytes = out.stats.avg_rank_bytes();
        let msgs = out.stats.total_msgs() as f64 / grid.size() as f64;
        let flops = dense::flops::lu_total_flops(n) as f64 / grid.size() as f64;
        let t = mach.rank_time(flops, out.stats.max_rank_bytes() as f64 / 2.0, msgs);
        rows.push(vec![
            format!("{v}"),
            format!("{bytes:.0}"),
            format!("{msgs:.0}"),
            format!("{:.2}", t * 1e3),
        ]);
        data.push(
            json!({ "v": v, "bytes_per_rank": bytes, "msgs_per_rank": msgs, "sim_ms": t * 1e3 }),
        );
    }
    Report {
        id: "ablation_block_size".into(),
        title: format!(
            "COnfLUX block-size sweep, N={n}, grid=[{},{},{}]",
            grid.px, grid.py, grid.pz
        ),
        json: json!({ "sweep": data }),
        text: render(&["v", "bytes/rank", "msgs/rank", "sim ms"], &rows),
    }
}

/// Replication-depth sweep at fixed `P` (same rank count, different `Pz`).
pub fn replication(n: usize, p: usize, grids: &[Grid3]) -> Report {
    let mach = Machine::piz_daint();
    let w = Workload::new(n, 78);
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for &grid in grids {
        assert_eq!(grid.size(), p, "sweep must hold P fixed");
        let v = factor::choose_block(n, grid.pz, (4 * grid.pz).max(16)).expect("valid block size");
        let out = conflux_lu(&ConfluxConfig::new(n, v, grid).volume_only(), &w.general)
            .expect("factorization failed");
        let bytes = out.stats.avg_rank_bytes();
        let phases = out.stats.phase_totals();
        let scatter = phases.get("scatter_panels").map_or(0, |&(s, _)| s);
        let reduces = phases.get("reduce_col").map_or(0, |&(s, _)| s)
            + phases.get("reduce_pivots").map_or(0, |&(s, _)| s);
        let msgs = out.stats.total_msgs() as f64 / p as f64;
        let flops = dense::flops::lu_total_flops(n) as f64 / p as f64;
        let t = mach.rank_time(flops, out.stats.max_rank_bytes() as f64 / 2.0, msgs);
        rows.push(vec![
            format!("[{},{},{}]", grid.px, grid.py, grid.pz),
            format!("{v}"),
            format!("{bytes:.0}"),
            format!("{scatter}"),
            format!("{reduces}"),
            format!("{:.2}", t * 1e3),
        ]);
        data.push(json!({
            "grid": [grid.px, grid.py, grid.pz], "v": v,
            "bytes_per_rank": bytes, "scatter_bytes_total": scatter,
            "reduce_bytes_total": reduces, "sim_ms": t * 1e3,
        }));
    }
    Report {
        id: "ablation_replication".into(),
        title: format!("COnfLUX replication sweep, N={n}, P={p}"),
        json: json!({ "sweep": data }),
        text: render(
            &[
                "grid",
                "v",
                "bytes/rank",
                "scatter total",
                "reduces total",
                "sim ms",
            ],
            &rows,
        ),
    }
}

/// Masking vs swapping per-phase volume at matched grids.
pub fn pivoting(n: usize, grids: &[Grid3]) -> Report {
    let w = Workload::new(n, 79);
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for &grid in grids {
        let v = factor::choose_block(n, grid.pz, (4 * grid.pz).max(16)).expect("valid block size");
        let mask = conflux_lu(&ConfluxConfig::new(n, v, grid).volume_only(), &w.general)
            .expect("mask run failed")
            .stats;
        let swap = lu25d_swap(&SwapLuConfig::new(n, v, grid).volume_only(), &w.general)
            .expect("swap run failed")
            .stats;
        let swap_phase = swap.phase_totals().get("row_swaps").map_or(0, |&(s, _)| s);
        rows.push(vec![
            format!("[{},{},{}]", grid.px, grid.py, grid.pz),
            format!("{}", mask.total_bytes_sent()),
            format!("{}", swap.total_bytes_sent()),
            format!("{swap_phase}"),
            format!(
                "{:.2}x",
                swap.total_bytes_sent() as f64 / mask.total_bytes_sent() as f64
            ),
        ]);
        data.push(json!({
            "grid": [grid.px, grid.py, grid.pz],
            "mask_total": mask.total_bytes_sent(),
            "swap_total": swap.total_bytes_sent(),
            "swap_phase_bytes": swap_phase,
        }));
    }
    Report {
        id: "ablation_pivoting".into(),
        title: format!("row masking vs row swapping, N={n}"),
        json: json!({ "sweep": data }),
        text: render(
            &[
                "grid",
                "masking total B",
                "swapping total B",
                "swap-phase B",
                "swap/mask",
            ],
            &rows,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_size_sweep_shows_volume_up_messages_down() {
        let r = block_size(256, Grid3::new(2, 2, 2), &[8, 32]);
        let s = r.json["sweep"].as_array().unwrap();
        assert_eq!(s.len(), 2);
        let (b8, m8) = (
            s[0]["bytes_per_rank"].as_f64().unwrap(),
            s[0]["msgs_per_rank"].as_f64().unwrap(),
        );
        let (b32, m32) = (
            s[1]["bytes_per_rank"].as_f64().unwrap(),
            s[1]["msgs_per_rank"].as_f64().unwrap(),
        );
        assert!(b8 < b32, "smaller v must move fewer bytes");
        assert!(m8 > m32, "smaller v must send more messages");
    }

    #[test]
    fn swap_phase_grows_with_replication() {
        let r = pivoting(96, &[Grid3::new(2, 2, 1), Grid3::new(2, 2, 4)]);
        let s = r.json["sweep"].as_array().unwrap();
        let sp1 = s[0]["swap_phase_bytes"].as_u64().unwrap();
        let sp4 = s[1]["swap_phase_bytes"].as_u64().unwrap();
        assert!(sp4 > sp1, "swap traffic must grow with c: {sp1} vs {sp4}");
    }
}
