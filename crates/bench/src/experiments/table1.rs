//! Table 1: per-routine communication/computation comparison of COnfLUX
//! and COnfCHOX.
//!
//! The paper's table lists symbolic per-step costs per routine; we print
//! those alongside the *measured* per-phase byte totals of both algorithms
//! at the same configuration — demonstrating the table's headline: Cholesky
//! does half the arithmetic but moves the same class of volume.

use crate::ablate::Algo;
use crate::experiments::{measure, Report};
use crate::table::render;
use serde_json::json;
use std::collections::BTreeMap;

/// Map the runtime's phase labels onto the paper's routine rows.
fn routine(phase: &str) -> &'static str {
    match phase {
        "pivoting" => "TournPivot / (no pivoting)",
        "bcast_a00" | "potrf_bcast" => "A00",
        "reduce_col" | "reduce_pivots" | "panel_trsm" => "A10 and A01 (reduce + trsm)",
        "scatter_panels" | "update_a11" => "A11 (scatter + local gemm)",
        _ => "other",
    }
}

/// Regenerate Table 1.
pub fn run(n: usize, p: usize) -> Report {
    // Both algorithms pick the same grid and block at the same `(n, p)`.
    let lu = measure(Algo::Conflux, n, p, 21);
    let ch = measure(Algo::Confchox, n, p, 21);
    let (grid, v) = (lu.grid, lu.v);

    // Bytes sent per phase, by phase name (`phase_totals` is a `HashMap`:
    // its own order differs from run to run).
    let sent_by_phase = |stats: &xmpi::WorldStats| -> Vec<(String, u64)> {
        let by_name: BTreeMap<String, (u64, u64)> = stats.phase_totals().into_iter().collect();
        by_name.into_iter().map(|(k, (s, _))| (k, s)).collect()
    };
    let (lu_phases, ch_phases) = (sent_by_phase(&lu.stats), sent_by_phase(&ch.stats));

    let mut rows_map: BTreeMap<&'static str, (u64, u64)> = Default::default();
    for (phase, sent) in &lu_phases {
        rows_map.entry(routine(phase)).or_default().0 += sent;
    }
    for (phase, sent) in &ch_phases {
        rows_map.entry(routine(phase)).or_default().1 += sent;
    }

    // The symbolic per-step costs from the paper's Table 1.
    let symbolic: &[(&str, &str, &str)] = &[
        (
            "TournPivot / (no pivoting)",
            "v²·⌈log₂√P1⌉",
            "— (Cholesky has no pivoting)",
        ),
        ("A00", "v² + v broadcast", "v² broadcast (potrf)"),
        (
            "A10 and A01 (reduce + trsm)",
            "2(N−tv)vM/N²",
            "2(N−tv)vM/N² (same)",
        ),
        (
            "A11 (scatter + local gemm)",
            "2(N−tv)v/P · gemm",
            "2(N−tv)v/P · gemmt (half flops)",
        ),
    ];

    let mut rows = Vec::new();
    for (name, model_lu, model_ch) in symbolic {
        let (blu, bch) = rows_map.get(name).copied().unwrap_or((0, 0));
        rows.push(vec![
            name.to_string(),
            model_lu.to_string(),
            format!("{blu}"),
            model_ch.to_string(),
            format!("{bch}"),
        ]);
    }
    let flops_ratio = Algo::Conflux.total_flops(n) / Algo::Confchox.total_flops(n);
    let vol_ratio = lu.stats.total_bytes_sent() as f64 / ch.stats.total_bytes_sent() as f64;
    let text = format!(
        "{}\nN={n}, P={p}, grid=[{},{},{}], v={v}\n\
         total flops LU/Chol = {flops_ratio:.2}x (paper: 2x)\n\
         total volume LU/Chol = {vol_ratio:.2}x (paper: ~1x — same communication class)\n",
        render(
            &[
                "routine",
                "COnfLUX cost/step",
                "COnfLUX bytes",
                "COnfCHOX cost/step",
                "COnfCHOX bytes"
            ],
            &rows
        ),
        grid.px,
        grid.py,
        grid.pz
    );

    Report {
        id: "table1".into(),
        title: "per-routine comparison of COnfLUX and COnfCHOX".into(),
        json: json!({
            "n": n, "p": p, "v": v,
            "grid": [grid.px, grid.py, grid.pz],
            "lu_phase_bytes": lu_phases,
            "chol_phase_bytes": ch_phases,
            "flops_ratio": flops_ratio,
            "volume_ratio": vol_ratio,
        }),
        text,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn table1_regenerates() {
        let r = super::run(128, 8);
        assert!(r.text.contains("TournPivot"));
        let ratio = r.json["flops_ratio"].as_f64().unwrap();
        assert!((ratio - 2.0).abs() < 0.1, "LU must do 2x the flops");
        let vol = r.json["volume_ratio"].as_f64().unwrap();
        assert!(
            vol > 0.5 && vol < 3.0,
            "volumes must be the same class, got {vol}"
        );
    }
}
