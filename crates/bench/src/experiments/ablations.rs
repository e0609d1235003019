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

use crate::ablate::{run_cell, Algo, Cell, CellRun};
use crate::experiments::Report;
use crate::table::render;
use serde_json::json;

/// `algo` at `(n, p)` on the `c`-axis grid `near_square(p/c) × c`, run
/// plain; `block` 0 = automatic. `Err` for a block the grid cannot use.
fn run_on(
    algo: Algo,
    n: usize,
    (p, c): (usize, usize),
    block: usize,
    seed: u64,
) -> Result<CellRun, String> {
    let cell = Cell {
        c,
        block,
        ..Cell::auto(algo, n, p)
    };
    run_cell(&cell, seed, false)
}

/// Block-size sweep at a fixed `(p, c)` grid.
pub fn block_size(n: usize, p: usize, c: usize, vs: &[usize]) -> Report {
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for &v in vs {
        let Ok(run) = run_on(Algo::Conflux, n, (p, c), v, 77) else {
            continue;
        };
        let bytes = run.stats.avg_rank_bytes();
        let (msgs, sim_ms) = (run.kpis.msgs_per_rank, run.kpis.sim_time * 1e3);
        rows.push(vec![
            format!("{v}"),
            format!("{bytes:.0}"),
            format!("{msgs:.0}"),
            format!("{sim_ms:.2}"),
        ]);
        data.push(
            json!({ "v": v, "bytes_per_rank": bytes, "msgs_per_rank": msgs, "sim_ms": sim_ms }),
        );
    }
    Report {
        id: "ablation_block".into(),
        title: format!("COnfLUX block-size sweep, N={n}, P={p}, c={c}"),
        json: json!({ "sweep": data }),
        text: render(&["v", "bytes/rank", "msgs/rank", "sim ms"], &rows),
    }
}

/// Replication-depth sweep at fixed `P` (same rank count, different `Pz`).
pub fn replication(n: usize, p: usize, cs: &[usize]) -> Report {
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for &c in cs {
        let run = run_on(Algo::Conflux, n, (p, c), 0, 78).expect("valid block size");
        let (grid, v, sim_ms) = (run.grid, run.v, run.kpis.sim_time * 1e3);
        let bytes = run.stats.avg_rank_bytes();
        let phases = run.stats.phase_totals();
        let scatter = phases.get("scatter_panels").map_or(0, |&(s, _)| s);
        let reduces = phases.get("reduce_col").map_or(0, |&(s, _)| s)
            + phases.get("reduce_pivots").map_or(0, |&(s, _)| s);
        rows.push(vec![
            format!("[{},{},{}]", grid.px, grid.py, grid.pz),
            format!("{v}"),
            format!("{bytes:.0}"),
            format!("{scatter}"),
            format!("{reduces}"),
            format!("{sim_ms:.2}"),
        ]);
        data.push(json!({
            "grid": [grid.px, grid.py, grid.pz], "v": v,
            "bytes_per_rank": bytes, "scatter_bytes_total": scatter,
            "reduce_bytes_total": reduces, "sim_ms": sim_ms,
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

/// Masking vs swapping per-phase volume at matched `(p, c)` grids.
pub fn pivoting(n: usize, grids: &[(usize, usize)]) -> Report {
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for &pc in grids {
        let run_of = |algo| run_on(algo, n, pc, 0, 79).expect("valid block size");
        let (mask, swap) = (run_of(Algo::Conflux), run_of(Algo::SwapLu));
        let grid = mask.grid;
        let (mask, swap) = (mask.stats, swap.stats);
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
        let r = block_size(256, 8, 2, &[8, 32]);
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
        let r = pivoting(96, &[(4, 1), (16, 4)]);
        let s = r.json["sweep"].as_array().unwrap();
        let sp1 = s[0]["swap_phase_bytes"].as_u64().unwrap();
        let sp4 = s[1]["swap_phase_bytes"].as_u64().unwrap();
        assert!(sp4 > sp1, "swap traffic must grow with c: {sp1} vs {sp4}");
    }
}
