//! The red-blue pebble game (paper §2.3.1) — sequential and parallel.
//!
//! Two artifacts:
//!
//! * [`verify`] — a rule checker: given a move sequence, confirm it is a
//!   legal pebbling (≤ M red pebbles, computes only with all predecessors
//!   red, loads only blue-pebbled vertices) that computes every vertex, and
//!   count its I/O cost `Q`.
//! * [`greedy_schedule`] — a scheduler producing a *valid* pebbling by
//!   walking a topological order with a Belady-style eviction policy
//!   (evict the red pebble whose next use is farthest). Its `Q` is an upper
//!   bound on the optimum, which sandwiches the lower bounds from
//!   [`crate::bounds`] in tests.
//!
//! The parallel game of §5 (no pebble sharing, explicit communication) is
//! realized by `verify_parallel` (test-only: no schedule generator emits
//! parallel moves yet), which checks per-processor rules with
//! the communication rule: a processor may place its pebble on any vertex
//! that has *some* pebble, paying one I/O.

use crate::cdag::{Cdag, NodeId};
use std::collections::{HashMap, HashSet};

/// One move of the sequential game.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Place a red pebble on a blue-pebbled vertex (slow → fast).
    Load(NodeId),
    /// Place a blue pebble on a red-pebbled vertex (fast → slow).
    Store(NodeId),
    /// Place a red pebble on a vertex whose predecessors are all red.
    Compute(NodeId),
    /// Remove a red pebble.
    Evict(NodeId),
}

/// Outcome of verifying a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GameStats {
    /// Loads + stores.
    pub q: usize,
    /// Loads only.
    pub loads: usize,
    /// Stores only.
    pub stores: usize,
    /// Peak number of red pebbles in use.
    pub peak_red: usize,
}

/// Verify a sequential schedule with `m` red pebbles. All graph inputs
/// start blue; the schedule must compute every non-input vertex at least
/// once.
///
/// # Errors
/// A human-readable description of the first rule violation.
pub fn verify(g: &Cdag, moves: &[Move], m: usize) -> Result<GameStats, String> {
    let mut red: HashSet<NodeId> = HashSet::new();
    let mut blue: HashSet<NodeId> = g.inputs().into_iter().collect();
    let mut computed: HashSet<NodeId> = HashSet::new();
    let mut stats = GameStats {
        q: 0,
        loads: 0,
        stores: 0,
        peak_red: 0,
    };
    for (i, &mv) in moves.iter().enumerate() {
        match mv {
            Move::Load(v) => {
                if !blue.contains(&v) {
                    return Err(format!("move {i}: load of non-blue vertex {v}"));
                }
                red.insert(v);
                stats.loads += 1;
            }
            Move::Store(v) => {
                if !red.contains(&v) {
                    return Err(format!("move {i}: store of non-red vertex {v}"));
                }
                blue.insert(v);
                stats.stores += 1;
            }
            Move::Compute(v) => {
                if g.preds[v].is_empty() {
                    return Err(format!("move {i}: compute of input vertex {v}"));
                }
                for &p in &g.preds[v] {
                    if !red.contains(&p) {
                        return Err(format!("move {i}: compute {v} with non-red pred {p}"));
                    }
                }
                red.insert(v);
                computed.insert(v);
            }
            Move::Evict(v) => {
                if !red.remove(&v) {
                    return Err(format!("move {i}: evict of non-red vertex {v}"));
                }
            }
        }
        if red.len() > m {
            return Err(format!("move {i}: {} red pebbles exceed M={m}", red.len()));
        }
        stats.peak_red = stats.peak_red.max(red.len());
    }
    for v in g.compute_vertices() {
        if !computed.contains(&v) {
            return Err(format!("vertex {v} never computed"));
        }
    }
    stats.q = stats.loads + stats.stores;
    Ok(stats)
}

/// Produce a valid sequential pebbling with `m` red pebbles by walking a
/// topological order, loading missing predecessors on demand and evicting
/// the red pebble whose next use lies farthest in the future (Belady).
/// Evicted vertices that are needed again and not yet blue are stored
/// first.
///
/// Returns the move list (verifiable with [`verify`]).
///
/// # Panics
/// If `m < max in-degree + 1` (no legal pebbling exists under this
/// scheduler).
pub fn greedy_schedule(g: &Cdag, m: usize) -> Vec<Move> {
    let order: Vec<NodeId> = {
        // Deterministic topological order: process by vertex id among ready.
        let mut indeg: Vec<usize> = g.preds.iter().map(|p| p.len()).collect();
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<NodeId>> = (0..g.len())
            .filter(|&v| indeg[v] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(g.len());
        while let Some(std::cmp::Reverse(v)) = ready.pop() {
            order.push(v);
            for &s in &g.succs[v] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(std::cmp::Reverse(s));
                }
            }
        }
        order
    };
    // Next-use lists: for each vertex, the positions (in compute order) of
    // the consumers, ascending.
    let compute_seq: Vec<NodeId> = order
        .iter()
        .copied()
        .filter(|&v| !g.preds[v].is_empty())
        .collect();
    let mut uses: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for (pos, &v) in compute_seq.iter().enumerate() {
        for &p in &g.preds[v] {
            uses.entry(p).or_default().push(pos);
        }
    }

    let max_indeg = g.preds.iter().map(|p| p.len()).max().unwrap_or(0);
    assert!(m > max_indeg, "need at least {} red pebbles", max_indeg + 1);

    let mut moves = Vec::new();
    let mut red: HashSet<NodeId> = HashSet::new();
    let mut blue: HashSet<NodeId> = g.inputs().into_iter().collect();
    let mut cursor: HashMap<NodeId, usize> = HashMap::new(); // per-vertex use index

    let next_use =
        |v: NodeId, cursor: &HashMap<NodeId, usize>, uses: &HashMap<NodeId, Vec<usize>>| -> usize {
            let c = cursor.get(&v).copied().unwrap_or(0);
            uses.get(&v)
                .and_then(|u| u.get(c))
                .copied()
                .unwrap_or(usize::MAX)
        };

    for (pos, &v) in compute_seq.iter().enumerate() {
        // Bring predecessors into fast memory.
        let needed: Vec<NodeId> = g.preds[v].clone();
        for &p in &needed {
            if red.contains(&p) {
                continue;
            }
            while red.len() >= m {
                evict_one(
                    g, &mut red, &mut blue, &mut moves, &needed, v, pos, &cursor, &uses,
                );
            }
            debug_assert!(blue.contains(&p), "predecessor must be blue to load");
            moves.push(Move::Load(p));
            red.insert(p);
        }
        // Room for the result.
        while red.len() >= m {
            evict_one(
                g, &mut red, &mut blue, &mut moves, &needed, v, pos, &cursor, &uses,
            );
        }
        moves.push(Move::Compute(v));
        red.insert(v);
        // Advance use cursors of the predecessors.
        for &p in &needed {
            *cursor.entry(p).or_insert(0) += 1;
        }
        let _ = next_use;
        let _ = pos;
    }
    // Store outputs so the result survives (standard game ends with outputs
    // in slow memory).
    for v in g.outputs() {
        if red.contains(&v) && !blue.contains(&v) {
            moves.push(Move::Store(v));
            blue.insert(v);
        }
    }
    moves
}

/// Evict the red pebble with the farthest next use (Belady), storing it
/// first if it will be needed again and is not blue. Never evicts the
/// current compute's predecessors or the vertex about to be computed.
#[allow(clippy::too_many_arguments)]
fn evict_one(
    g: &Cdag,
    red: &mut HashSet<NodeId>,
    blue: &mut HashSet<NodeId>,
    moves: &mut Vec<Move>,
    protected: &[NodeId],
    current: NodeId,
    _pos: usize,
    cursor: &HashMap<NodeId, usize>,
    uses: &HashMap<NodeId, Vec<usize>>,
) {
    let victim = red
        .iter()
        .copied()
        .filter(|x| !protected.contains(x) && *x != current)
        .max_by_key(|&x| {
            let c = cursor.get(&x).copied().unwrap_or(0);
            let nu = uses
                .get(&x)
                .and_then(|u| u.get(c))
                .copied()
                .unwrap_or(usize::MAX);
            (nu, x)
        })
        .expect("no evictable pebble — M too small");
    let c = cursor.get(&victim).copied().unwrap_or(0);
    let needed_again = uses.get(&victim).is_some_and(|u| c < u.len());
    let is_output = g.succs[victim].is_empty() && !g.preds[victim].is_empty();
    if (needed_again || is_output) && !blue.contains(&victim) {
        moves.push(Move::Store(victim));
        blue.insert(victim);
    }
    moves.push(Move::Evict(victim));
    red.remove(&victim);
}

/// One move of the parallel game (§5): per-processor rules, with the
/// communication rule replacing load/store.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PMove {
    /// Processor `p` computes vertex `v` (all preds carry `p`'s pebbles).
    Compute(usize, NodeId),
    /// Processor `p` fetches vertex `v` from some other pebble holder
    /// (counts one I/O for `p`).
    Fetch(usize, NodeId),
    /// Processor `p` removes its pebble from `v`.
    Evict(usize, NodeId),
}

/// Verify a parallel pebbling with `nproc` processors of `m` pebbles each.
/// Inputs start "remote" (fetchable by anyone); a fetch is legal if the
/// vertex is an input or some processor currently holds (or ever stored…
/// here: currently holds) a pebble on it.
///
/// Returns per-processor I/O counts.
///
/// # Errors
/// Describes the first rule violation.
#[cfg(test)]
fn verify_parallel(
    g: &Cdag,
    moves: &[PMove],
    nproc: usize,
    m: usize,
) -> Result<Vec<usize>, String> {
    let mut red: Vec<HashSet<NodeId>> = vec![HashSet::new(); nproc];
    let inputs: HashSet<NodeId> = g.inputs().into_iter().collect();
    let mut computed: HashSet<NodeId> = HashSet::new();
    let mut io = vec![0usize; nproc];
    for (i, &mv) in moves.iter().enumerate() {
        match mv {
            PMove::Compute(p, v) => {
                if p >= nproc {
                    return Err(format!("move {i}: processor {p} out of range"));
                }
                if inputs.contains(&v) {
                    return Err(format!("move {i}: compute of input {v}"));
                }
                for &pr in &g.preds[v] {
                    if !red[p].contains(&pr) {
                        return Err(format!("move {i}: P{p} computes {v} without pred {pr}"));
                    }
                }
                red[p].insert(v);
                computed.insert(v);
            }
            PMove::Fetch(p, v) => {
                let available = inputs.contains(&v) || red.iter().any(|r| r.contains(&v));
                if !available {
                    return Err(format!("move {i}: P{p} fetches unavailable {v}"));
                }
                red[p].insert(v);
                io[p] += 1;
            }
            PMove::Evict(p, v) => {
                if !red[p].remove(&v) {
                    return Err(format!("move {i}: P{p} evicts unpebbled {v}"));
                }
            }
        }
        for (p, r) in red.iter().enumerate() {
            if r.len() > m {
                return Err(format!("move {i}: P{p} exceeds M={m}"));
            }
        }
    }
    for v in g.compute_vertices() {
        if !computed.contains(&v) {
            return Err(format!("vertex {v} never computed"));
        }
    }
    Ok(io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdag::{lu_cdag, mmm_cdag, Builder};

    #[test]
    fn verify_accepts_manual_pebbling_of_a_chain() {
        // x0 -> x1 -> x2.
        let mut b = Builder::new();
        b.compute(("x", &[0]), &[("x", &[9])]);
        b.compute(("x", &[1]), &[("x", &[0])]);
        let g = b.build();
        let input = g.inputs()[0];
        let mids: Vec<_> = g.compute_vertices();
        let moves = vec![
            Move::Load(input),
            Move::Compute(mids[0]),
            Move::Evict(input),
            Move::Compute(mids[1]),
            Move::Store(mids[1]),
        ];
        let stats = verify(&g, &moves, 2).unwrap();
        assert_eq!(stats.q, 2);
        assert_eq!(stats.peak_red, 2);
    }

    #[test]
    fn verify_rejects_overfull_memory() {
        let g = mmm_cdag(2);
        let inputs = g.inputs();
        let moves: Vec<Move> = inputs.iter().map(|&v| Move::Load(v)).collect();
        assert!(verify(&g, &moves, 3).is_err());
    }

    #[test]
    fn verify_rejects_compute_without_preds() {
        let g = lu_cdag(3);
        let v = g.compute_vertices()[0];
        assert!(verify(&g, &[Move::Compute(v)], 10).is_err());
    }

    #[test]
    fn greedy_schedules_are_valid_across_kernels_and_memories() {
        for (name, g) in [
            ("lu4", lu_cdag(4)),
            ("lu6", lu_cdag(6)),
            ("mmm3", mmm_cdag(3)),
            ("chol5", crate::cdag::cholesky_cdag(5)),
        ] {
            for m in [4usize, 8, 16, 64] {
                let moves = greedy_schedule(&g, m);
                let stats = verify(&g, &moves, m).unwrap_or_else(|e| panic!("{name} M={m}: {e}"));
                assert!(stats.q > 0, "{name} must do some I/O");
            }
        }
    }

    #[test]
    fn more_memory_never_hurts_greedy() {
        let g = lu_cdag(8);
        let q_small = verify(&g, &greedy_schedule(&g, 8), 8).unwrap().q;
        let q_big = verify(&g, &greedy_schedule(&g, 256), 256).unwrap().q;
        assert!(q_big <= q_small, "q_big={q_big} q_small={q_small}");
    }

    #[test]
    fn unlimited_memory_reaches_compulsory_traffic() {
        // With M ≥ |V|, only the inputs must be loaded and outputs stored.
        let g = mmm_cdag(3);
        let m = g.len() + 1;
        let stats = verify(&g, &greedy_schedule(&g, m), m).unwrap();
        // 27 A/B/C loads… inputs = 27; outputs: 9 final C versions.
        assert_eq!(stats.loads, g.inputs().len());
        assert_eq!(stats.stores, g.outputs().len());
    }

    #[test]
    fn parallel_game_counts_io_per_processor() {
        // Two processors each compute half of a 2-chain fan: inputs a,b;
        // c = f(a), d = f(b).
        let mut b = Builder::new();
        b.compute(("c", &[0]), &[("a", &[0])]);
        b.compute(("d", &[0]), &[("b", &[0])]);
        let g = b.build();
        let ins = g.inputs();
        let outs = g.compute_vertices();
        let moves = vec![
            PMove::Fetch(0, ins[0]),
            PMove::Fetch(1, ins[1]),
            PMove::Compute(0, outs[0]),
            PMove::Compute(1, outs[1]),
        ];
        let io = verify_parallel(&g, &moves, 2, 4).unwrap();
        assert_eq!(io, vec![1, 1]);
    }

    #[test]
    fn parallel_game_no_pebble_sharing() {
        // P1 cannot compute with P0's pebbles: it must fetch first.
        let mut b = Builder::new();
        b.compute(("y", &[0]), &[("x", &[0])]);
        let g = b.build();
        let x = g.inputs()[0];
        let y = g.compute_vertices()[0];
        let bad = vec![PMove::Fetch(0, x), PMove::Compute(1, y)];
        assert!(verify_parallel(&g, &bad, 2, 4).is_err());
        let good = vec![PMove::Fetch(0, x), PMove::Fetch(1, x), PMove::Compute(1, y)];
        let io = verify_parallel(&g, &good, 2, 4).unwrap();
        assert_eq!(io[1], 1);
    }

    #[test]
    fn parallel_fetch_of_computed_value_requires_a_holder() {
        let mut b = Builder::new();
        b.compute(("y", &[0]), &[("x", &[0])]);
        b.compute(("z", &[0]), &[("y", &[0])]);
        let g = b.build();
        let x = g.inputs()[0];
        let cv = g.compute_vertices();
        let (y, z) = (cv[0], cv[1]);
        // P1 fetches y after P0 computed it — legal (cross-processor comm).
        let moves = vec![
            PMove::Fetch(0, x),
            PMove::Compute(0, y),
            PMove::Fetch(1, y),
            PMove::Compute(1, z),
        ];
        let io = verify_parallel(&g, &moves, 2, 4).unwrap();
        assert_eq!(io, vec![1, 1]);
        // Once P0 drops its pebble nobody holds y: the fetch is illegal.
        let gone = vec![
            PMove::Fetch(0, x),
            PMove::Compute(0, y),
            PMove::Evict(0, y),
            PMove::Fetch(1, y),
        ];
        let err = verify_parallel(&g, &gone, 2, 4).unwrap_err();
        assert!(err.contains("unavailable"), "{err}");
    }
}
