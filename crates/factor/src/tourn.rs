//! Tournament pivoting (Grigori, Demmel & Xiang's CALU selection), the
//! pivoting strategy of COnfLUX (paper §7.3).
//!
//! Each panel rank selects `v` local candidate pivot rows by a local
//! partial-pivoting LU, then the candidates play `⌈log₂ Px⌉` "playoff"
//! rounds over a butterfly pattern: partners exchange their `v` candidate
//! rows, merge, and re-select. After the last round every panel rank holds
//! the same `v` winning rows, from which all of them (redundantly, without
//! further communication) factor the pivot block `A00`.
//!
//! A tournament with one player (`Px = 1`) has no rounds, and its local
//! selection already *is* the partial-pivoting LU of the whole panel — the
//! same operations, in the same order, as factoring the winners and solving
//! the other rows against `U00` afterwards — so it is kept instead of
//! recomputed ([`tournament`]).

use dense::{getrf_unblocked, MatRef, Matrix};
use xmpi::Comm;

/// A set of candidate pivot rows: original (unfactored) row values plus
/// their global row indices, ordered by selection preference.
#[derive(Debug, Clone)]
pub(crate) struct Candidates {
    /// Candidate row values, one row per candidate, `v` columns.
    pub rows: Matrix,
    /// Global row index of each candidate.
    pub ids: Vec<u64>,
}

impl Candidates {
    fn empty(v: usize) -> Self {
        Candidates {
            rows: Matrix::zeros(0, v),
            ids: Vec::new(),
        }
    }

    fn from_parts(v: usize, data: Vec<f64>, ids: Vec<u64>) -> Self {
        assert_eq!(data.len(), ids.len() * v, "candidate buffer shape mismatch");
        Candidates {
            rows: Matrix::from_vec(ids.len(), v, data),
            ids,
        }
    }
}

/// Right-looking partial-pivoting elimination, in place, of the row-major
/// `m × v` panel `a`, one row slice at a time: step `k < min(m, v)` swaps
/// up the row with the largest `|a[·][k]|` at or below position `k` (the
/// first on a tie), stores each lower row's multiplier `l = a[i][k] / a[k][k]`
/// in its column `k` and subtracts `l·a[k][j]` from its columns `j > k` —
/// not at all where `l` is exactly zero, as [`getrf_unblocked`] does. So the
/// first `min(m, v)` rows end as `getrf_unblocked` of those rows (in their
/// final order, which it would not permute) and every other row as its `L10`
/// row: `x_k ← ((a_k − l_0·u_0k) − l_1·u_1k) − …`, then `l_k = x_k / u_kk`.
///
/// Elimination is deliberately infallible: when a column is exactly zero
/// (rank-deficient rows) the current row is kept in place and the step
/// eliminates nothing. Returns the panel row at each position and the first
/// such step.
fn eliminate(a: &mut [f64], v: usize) -> (Vec<usize>, Option<usize>) {
    let m = a.len() / v;
    let mut order: Vec<usize> = (0..m).collect();
    let mut zero_at = None;
    for k in 0..v.min(m) {
        // Partial pivot; on an all-zero column keep the current row.
        let (mut p, mut best) = (k, a[k * v + k].abs());
        for (i, row) in a.chunks_exact(v).enumerate().skip(k + 1) {
            if row[k].abs() > best {
                (p, best) = (i, row[k].abs());
            }
        }
        let (head, below) = a.split_at_mut((k + 1) * v);
        let pivot = &mut head[k * v..];
        if p != k {
            order.swap(k, p);
            pivot.swap_with_slice(&mut below[(p - k - 1) * v..(p - k) * v]);
        }
        let akk = pivot[k];
        if akk == 0.0 {
            zero_at.get_or_insert(k);
            continue;
        }
        for row in below.chunks_exact_mut(v) {
            let l = row[k] / akk;
            row[k] = l;
            if l == 0.0 {
                continue;
            }
            for (x, &u) in row[k + 1..].iter_mut().zip(&pivot[k + 1..]) {
                *x -= l * u;
            }
        }
    }
    (order, zero_at)
}

/// Select up to `v` pivot rows from a panel by partial-pivoting LU on a
/// scratch copy. Returns the *original* values of the selected rows, in
/// selection order.
///
/// Selection is deliberately infallible ([`eliminate`]) — candidate
/// *selection* stays symmetric across tournament partners, and actual
/// singularity is detected later by the (redundant, deterministic)
/// factorization of the winning block, so every panel rank fails
/// consistently instead of deadlocking.
///
/// # Panics
/// If `panel.rows() != ids.len()`.
pub(crate) fn local_select(
    panel: MatRef<'_>,
    ids: &[u64],
    v: usize,
) -> Result<Candidates, dense::Error> {
    assert_eq!(panel.rows(), ids.len());
    assert_eq!(panel.cols(), v);
    let take = v.min(panel.rows());
    if take == 0 {
        return Ok(Candidates::empty(v));
    }
    let (order, _) = eliminate(&mut panel.to_owned().into_vec(), v);
    let mut rows = Matrix::zeros(take, v);
    for (dst, &r) in rows.data_mut().chunks_exact_mut(v).zip(&order) {
        dst.copy_from_slice(panel.row(r));
    }
    let ids = order[..take].iter().map(|&r| ids[r]).collect();
    Ok(Candidates { rows, ids })
}

/// Merge two candidate sets and re-select the best `v`. `first_mine`
/// controls stacking order, which must be agreed between partners so ties
/// resolve identically on both sides.
fn merge(
    mine: &Candidates,
    theirs: &Candidates,
    v: usize,
    first_mine: bool,
) -> Result<Candidates, dense::Error> {
    let (a, b) = if first_mine {
        (mine, theirs)
    } else {
        (theirs, mine)
    };
    let stacked = [a.rows.data(), b.rows.data()].concat();
    let ids = [&a.ids[..], &b.ids[..]].concat();
    local_select(MatRef::from_slice(&stacked, ids.len(), v, v), &ids, v)
}

/// Outcome of a tournament: the pivot rows and the factored pivot block.
#[derive(Debug, Clone)]
pub(crate) struct PivotBlock {
    /// Global row ids of the `v` pivots, in final elimination order.
    pub ids: Vec<u64>,
    /// Packed LU factor of the pivot block (`L00` strictly lower with unit
    /// diagonal, `U00` upper), rows in `ids` order.
    pub a00: Matrix,
}

/// Run the tournament over a panel communicator.
///
/// Every rank of `comm` contributes its local panel slice (`m_local × v`
/// row-major, possibly empty) with the global ids of its rows; every rank
/// returns the identical [`PivotBlock`]. Power-of-two communicators use the
/// butterfly; other sizes fall back to gather-select-broadcast (same
/// asymptotic cost, one extra latency hop).
///
/// With one rank, the local selection's elimination is the result: `A00` is
/// its top `v` rows, and each other row's `L10` — `A10·U00⁻¹`, bit for bit
/// what `dense::trsm` solves for `v ≤ 32` (its substitution base case) —
/// overwrites that row of `panel`, in panel order. The rows that won are
/// left as they were. With more ranks `panel` is only read.
///
/// # Errors
/// Propagates singularity if the union of candidates has rank `< v`.
pub(crate) fn tournament(
    comm: &Comm,
    panel: &mut [f64],
    ids: &[u64],
    v: usize,
) -> Result<PivotBlock, dense::Error> {
    const TAG: u64 = 900_000;
    let p = comm.size();
    let r = comm.rank();
    if p == 1 {
        return one_player(panel, ids, v);
    }
    let mut cands = local_select(MatRef::from_slice(panel, ids.len(), v, v), ids, v)?;

    if p.is_power_of_two() {
        let mut mask = 1;
        while mask < p {
            let partner = r ^ mask;
            let (data, pids) =
                comm.exchange_pair(partner, TAG + mask as u64, cands.rows.data(), &cands.ids);
            let theirs = Candidates::from_parts(v, data, pids);
            cands = merge(&cands, &theirs, v, r < partner)?;
            mask <<= 1;
        }
    } else {
        // Gather-select-broadcast fallback: stacking in rank order keeps the
        // result identical to a serial scan of all candidates.
        let all_data = comm.gather_f64(0, cands.rows.data());
        let all_ids = comm.gather_u64(0, &cands.ids);
        let mut winner_data;
        let mut winner_ids;
        if r == 0 {
            let all_data = all_data.unwrap();
            let all_ids = all_ids.unwrap();
            let mut acc = Candidates::empty(v);
            for (d, i) in all_data.into_iter().zip(all_ids) {
                let c = Candidates::from_parts(v, d, i);
                acc = merge(&acc, &c, v, true)?;
            }
            winner_data = acc.rows.into_vec();
            winner_ids = acc.ids;
        } else {
            winner_data = Vec::new();
            winner_ids = Vec::new();
        }
        comm.bcast_f64(0, &mut winner_data);
        comm.bcast_u64(0, &mut winner_ids);
        cands = Candidates::from_parts(v, winner_data, winner_ids);
    }

    // Redundant local factorization of the winning block — no communication,
    // every rank computes the identical A00.
    let take = cands.ids.len();
    assert!(take > 0, "tournament with zero candidate rows");
    let Candidates {
        rows: mut a00,
        mut ids,
    } = cands;
    let mut ipiv = Vec::new();
    getrf_unblocked(a00.as_mut(), &mut ipiv)?;
    for (k, &p) in ipiv.iter().enumerate() {
        ids.swap(k, p);
    }
    Ok(PivotBlock { ids, a00 })
}

/// [`tournament`] with one player: eliminate a scratch copy of the panel
/// once and keep everything. `getrf_unblocked` of the winners would stop
/// at the first step whose column is exactly zero, which is where
/// [`eliminate`] first found one.
fn one_player(panel: &mut [f64], ids: &[u64], v: usize) -> Result<PivotBlock, dense::Error> {
    assert_eq!(panel.len(), ids.len() * v, "panel shape mismatch");
    let take = v.min(ids.len());
    assert!(take > 0, "tournament with zero candidate rows");
    let mut lu = panel.to_vec();
    let (order, zero_at) = eliminate(&mut lu, v);
    if let Some(k) = zero_at {
        return Err(dense::Error::SingularAt(k));
    }
    for (row, &r) in lu.chunks_exact(v).zip(&order).skip(take) {
        panel[r * v..(r + 1) * v].copy_from_slice(row);
    }
    Ok(PivotBlock {
        ids: order[..take].iter().map(|&r| ids[r]).collect(),
        a00: Matrix::from_vec(take, v, lu[..take * v].to_vec()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen::random_matrix;
    use dense::norms::lu_residual;
    use dense::{trsm, Diag, Side, Trans, Uplo};
    use xmpi::run;

    #[test]
    fn local_select_picks_largest_leading_pivot() {
        let mut panel = random_matrix(6, 3, 1);
        panel[(4, 0)] = 100.0;
        let ids: Vec<u64> = (10..16).collect();
        let c = local_select(panel.as_ref(), &ids, 3).unwrap();
        assert_eq!(c.ids.len(), 3);
        assert_eq!(c.ids[0], 14, "row with the dominant entry must win round 1");
        // Values are the ORIGINAL rows, not eliminated ones.
        assert_eq!(c.rows[(0, 0)], 100.0);
    }

    /// The selection written one element at a time: the reference
    /// [`local_select`]'s slice loops must reproduce, operation for
    /// operation.
    fn select_by_elements(panel: &Matrix, ids: &[u64], v: usize) -> (Vec<u64>, Matrix) {
        let m = panel.rows();
        let take = v.min(m);
        let mut a = panel.clone();
        let mut order: Vec<usize> = (0..m).collect();
        for k in 0..take {
            let mut p = k;
            for i in k + 1..m {
                if a[(i, k)].abs() > a[(p, k)].abs() {
                    p = i;
                }
            }
            order.swap(k, p);
            for j in 0..v {
                let t = a[(k, j)];
                a[(k, j)] = a[(p, j)];
                a[(p, j)] = t;
            }
            if a[(k, k)] == 0.0 {
                continue;
            }
            for i in k + 1..m {
                let l = a[(i, k)] / a[(k, k)];
                for j in k..v {
                    let akj = a[(k, j)];
                    a[(i, j)] -= l * akj;
                }
            }
        }
        let sel = order[..take].iter().map(|&r| ids[r]).collect();
        (sel, Matrix::from_fn(take, v, |i, j| panel[(order[i], j)]))
    }

    #[test]
    fn local_select_matches_the_element_indexed_reference_bit_for_bit() {
        let mut zero_col = random_matrix(9, 4, 23);
        // Column 1 stays exactly zero under elimination: step 1 finds no
        // pivot, keeps its row and skips the column.
        for i in 0..9 {
            zero_col[(i, 1)] = 0.0;
        }
        let panels = [
            random_matrix(40, 8, 21),
            random_matrix(33, 16, 22),
            zero_col,
            random_matrix(3, 5, 24), // short: m < v
        ];
        for panel in &panels {
            let (m, v) = (panel.rows(), panel.cols());
            let ids: Vec<u64> = (0..m as u64).map(|i| 100 + 3 * i).collect();
            let got = local_select(panel.as_ref(), &ids, v).unwrap();
            let (want_ids, want_rows) = select_by_elements(panel, &ids, v);
            assert_eq!(got.ids, want_ids, "{m}x{v} panel: ids");
            let bits = |x: &Matrix| x.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.rows), bits(&want_rows), "{m}x{v} panel: rows");
            assert_eq!(got.ids.len(), v.min(m));
        }
    }

    #[test]
    fn local_select_empty_panel() {
        let panel = Matrix::zeros(0, 4);
        let c = local_select(panel.as_ref(), &[], 4).unwrap();
        assert!(c.ids.is_empty());
    }

    /// Bit patterns, so `-0.0` and `+0.0` differ.
    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|x| x.to_bits()).collect()
    }

    /// Tournament on p ranks must pick pivots that keep the factorization
    /// stable, and all ranks must agree exactly.
    fn run_tournament(p: usize, rows_per_rank: usize, v: usize) {
        let total = p * rows_per_rank;
        let global = random_matrix(total, v, 42);
        let g = &global;
        let out = run(p, move |c| {
            let r = c.rank();
            // Rank r owns rows r, r+p, r+2p, ... (cyclic, like the panel).
            let my_ids: Vec<u64> = (0..rows_per_rank).map(|i| (r + i * p) as u64).collect();
            let mut panel = Matrix::from_fn(rows_per_rank, v, |i, j| g[(my_ids[i] as usize, j)]);
            let won = tournament(c, panel.data_mut(), &my_ids, v).unwrap();
            (won.ids, won.a00)
        });
        let (ids, a00) = &out.results[0];
        assert_eq!(ids.len(), v);
        for (res_ids, res_a00) in &out.results {
            assert_eq!(res_ids, ids, "ranks disagree on pivots");
            assert_eq!(res_a00.data(), a00.data(), "ranks disagree on A00");
        }
        // A00 is the LU of the winners' original rows in `ids` order, which
        // partial pivoting leaves in place: `getrf_unblocked` of them swaps
        // nothing and reproduces A00 bit for bit.
        let sel = Matrix::from_fn(v, v, |i, j| global[(ids[i] as usize, j)]);
        let (mut lu, mut ipiv) = (sel.clone(), Vec::new());
        getrf_unblocked(lu.as_mut(), &mut ipiv).unwrap();
        assert_eq!(
            ipiv,
            (0..v).collect::<Vec<_>>(),
            "the winners were re-pivoted"
        );
        assert_eq!(bits(lu.data()), bits(a00.data()), "A00 is not their LU");
        assert!(lu_residual(&sel, &lu, &ipiv) < 1e-10);
    }

    #[test]
    fn butterfly_tournament_power_of_two() {
        run_tournament(4, 5, 4);
        run_tournament(8, 3, 2);
    }

    #[test]
    fn gather_fallback_non_power_of_two() {
        run_tournament(3, 4, 4);
        run_tournament(5, 2, 3);
    }

    #[test]
    fn single_rank_tournament() {
        run_tournament(1, 8, 4);
    }

    /// One player's `A00` and `L10` against the two-pass path they replace:
    /// `getrf_unblocked` of the winners, then `trsm` of every other row
    /// against `U00` — the same operations in the same order, so the same
    /// bits (`v ≤ 32`: `trsm`'s substitution base case). Where a
    /// multiplier is exactly zero the elimination skips its row update and
    /// `trsm` does not, so that panel is compared with `==`, which does
    /// not see the sign of a zero.
    #[test]
    fn one_player_keeps_the_elimination_it_selected_with() {
        let mut zeros = random_matrix(64, 8, 34);
        for i in (3..64).step_by(5) {
            zeros[(i, 0)] = 0.0;
            zeros[(i, 2)] = 0.0;
        }
        let panels = [
            (random_matrix(40, 8, 31), true),
            (random_matrix(33, 16, 32), true),
            (random_matrix(1024, 32, 33), true),
            (zeros, false),
        ];
        for (panel, exact) in panels {
            let (m, v) = (panel.rows(), panel.cols());
            let ids: Vec<u64> = (0..m as u64).map(|i| 7 + 2 * i).collect();
            let (got_ids, got_a00, kept) = run(1, |c| {
                let mut kept = panel.clone();
                let won = tournament(c, kept.data_mut(), &ids, v).unwrap();
                (won.ids, won.a00, kept)
            })
            .results
            .remove(0);
            let won = |i: usize| got_ids.contains(&ids[i]);
            let row_of = |id: u64| ((id - 7) / 2) as usize;
            let sel = Matrix::from_fn(v, v, |i, j| panel[(row_of(got_ids[i]), j)]);
            let (mut lu, mut ipiv) = (sel, Vec::new());
            getrf_unblocked(lu.as_mut(), &mut ipiv).unwrap();
            assert_eq!(ipiv, (0..v).collect::<Vec<_>>(), "{m}x{v}: re-pivoted");
            let rest: Vec<usize> = (0..m).filter(|&i| !won(i)).collect();
            let mut l10 = Matrix::from_fn(rest.len(), v, |i, j| panel[(rest[i], j)]);
            trsm(
                Side::Right,
                Uplo::Upper,
                Trans::N,
                Diag::NonUnit,
                1.0,
                lu.as_ref(),
                l10.as_mut(),
            );
            let kept_l10 = Matrix::from_fn(rest.len(), v, |i, j| kept[(rest[i], j)]);
            if exact {
                assert_eq!(bits(got_a00.data()), bits(lu.data()), "{m}x{v}: A00");
                assert_eq!(bits(kept_l10.data()), bits(l10.data()), "{m}x{v}: L10");
            } else {
                assert_eq!(got_a00.data(), lu.data(), "{m}x{v}: A00");
                assert_eq!(kept_l10.data(), l10.data(), "{m}x{v}: L10");
            }
            for i in (0..m).filter(|&i| won(i)) {
                assert_eq!(bits(kept.row(i)), bits(panel.row(i)), "{m}x{v}: winner {i}");
            }
        }
    }

    #[test]
    fn tournament_with_uneven_and_empty_ranks() {
        // 3 ranks: rank 0 has 5 rows, rank 1 has 0, rank 2 has 2. v = 3.
        let global = random_matrix(7, 3, 9);
        let g = &global;
        let out = run(3, move |c| {
            let (my_ids, m): (Vec<u64>, usize) = match c.rank() {
                0 => ((0..5).collect(), 5),
                1 => (vec![], 0),
                _ => (vec![5, 6], 2),
            };
            let mut panel = Matrix::from_fn(m, 3, |i, j| g[(my_ids[i] as usize, j)]);
            tournament(c, panel.data_mut(), &my_ids, 3).unwrap().ids
        });
        let first = &out.results[0];
        assert_eq!(first.len(), 3);
        for r in &out.results {
            assert_eq!(r, first);
        }
    }

    #[test]
    fn tournament_finds_the_planted_dominant_rows() {
        // Plant three hugely dominant rows; the tournament must select them
        // (they dominate every elimination step).
        let mut global = random_matrix(16, 3, 3);
        for (step, &r) in [2usize, 9, 13].iter().enumerate() {
            for j in 0..3 {
                global[(r, j)] = if j == step { 1000.0 + r as f64 } else { 0.001 };
            }
        }
        let g = &global;
        let out = run(4, move |c| {
            let my_ids: Vec<u64> = (0..4).map(|i| (c.rank() * 4 + i) as u64).collect();
            let mut panel = Matrix::from_fn(4, 3, |i, j| g[(my_ids[i] as usize, j)]);
            tournament(c, panel.data_mut(), &my_ids, 3).unwrap().ids
        });
        let mut ids = out.results[0].clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 9, 13]);
    }
}
