//! Fault-tolerant COnfLUX / COnfCHOX: ABFT checksums plus checkpointed
//! rank-crash recovery, as two seams of the plain rank programs.
//!
//! There is one implementation of each schedule —
//! [`crate::conflux`]'s and [`crate::confchox`]'s `rank_program` — and this
//! module does not repeat it. It hardens those programs against the fault
//! domain `xmpi` models (rank crashes injected by `xharness::CrashPlan`,
//! single-element in-flight corruption injected by `xharness::CorruptPlan`)
//! through the two things every rank program takes besides its tiles:
//!
//! ```text
//!   state ──▶ for step in state.step..nt {
//!  (empty or      reduce column ─┐
//!   restored)     pivot / potrf  │
//!                 broadcast A00  │   every bulk f64 transfer goes
//!                 gather, trsm   ├─▶ through the ── Guard ── (seam 1):
//!                 scatter panels │   off: the bare `Comm` call
//!                 update A11 ────┘   on:  augment → transfer → verify/repair
//!                 state.step = step + 1
//!                 at_step_end(&state, guard)  ◀── step boundary (seam 2):
//!             }                                   nothing, or take_checkpoint
//! ```
//!
//! **Seam 1 — the transfer guard** (`Guard`, ABFT checksums in the
//! Huang–Abraham style of [`dense::checksum`]). Every bulk `f64` transfer —
//! z-fibre reductions, panel broadcasts, L10/U01 scatter slices, A01
//! gathers, the Cholesky column-role allgather, and checkpoint blobs —
//! is issued through the guard with the logical `r × c` shape of its block.
//! Switched off (the plain drivers and the ScaLAPACK wrappers) each method
//! is one branch and the bare `Comm` call. Switched on, the block travels
//! as `[data ‖ column sums ‖ row sums]`. The sums are linear in the data,
//! so they commute with the elementwise-sum reductions and the receiver of
//! *any* hop (including interior broadcast-tree hops) can verify its copy,
//! locate a single corrupted element, and repair it. Crucially the data
//! prefix is bit-identical with checksums on or off, so enabling protection
//! never changes the factors — only the wire size (roughly `(r + c)/(r·c)`
//! extra, a few percent at production block sizes).
//!
//! **Seam 2 — the step boundary** (`State` in, end-of-step callback out;
//! ring checkpoints + whole-world restart through `CkptStore`). A rank
//! program starts from a `State` (next step, pivot permutation, the rank's
//! one tile store) and hands the updated value to an
//! optional callback after every block step but the last. The FT drivers'
//! callback snapshots it every `ckpt_every` steps into an in-memory blob,
//! keeps one copy in the rank's own memory and ships one copy to its ring
//! buddy `(rank + 1) mod P` over the measured transport (`"ckpt"` phase),
//! which keeps it in *its* memory. A rank's memory is a value it returns
//! from the world next to its outcome — a survivor cut short by the
//! poisoned world included — and the restart loop files it into the host's
//! store, so it persists across a restart whether the rank was a thread or
//! a forked process. When [`xmpi::run_ft`] reports a crashed rank, the
//! restart loop drops the victim's memory and discards its own copies from
//! earlier attempts (its memory died with it), computes the newest epoch
//! still consistent across all ranks, and relaunches the world: survivors
//! reload their own snapshots for free, while the reborn victim pulls its
//! blob from the buddy (`"recovery"` phase, bracketed by
//! [`xmpi::Comm::mark_recovery_begin`]/[`xmpi::Comm::mark_recovery_end`]),
//! and the same rank program resumes from the restored `State`. Because the
//! schedules are deterministic dataflow programs and the snapshot is an
//! exact bit-copy of the state, the resumed run reproduces the fault-free
//! factors *bitwise*. A checkpoint needs a quiescent step boundary, and
//! every step is one: no transfer is in flight between two steps.
//!
//! A rank updates its share of `A` in place and leaves every factor entry
//! it holds in the same store, so a snapshot carries the store rows — the
//! columns of each that `common::owed` says the rank still owes, the same
//! columns it would hand home — and a restored rank never reads the input
//! again: `A` is staged once, by the attempt that starts from step 0 (at
//! zero measured cost — the paper's "input already distributed"
//! convention).
//!
//! Checkpoint and recovery traffic is attributed to its own phases, so
//! [`FtReport`] can report the *algorithmic* volume (which must still sit in
//! the `pebbles::bounds` sandwich — asserted by `tests/faults.rs`)
//! separately from the fault-tolerance overhead.

use crate::common::{
    assemble, check_shape, owed, phase, pick_grid_and_block, split_results, stage_from_global,
    RankResult, State, TileStore, Tiling,
};
use crate::confchox::{self, ConfchoxConfig};
use crate::conflux::{self, ConfluxConfig, PivotPolicy};
use dense::checksum::{self, Verdict};
use dense::Matrix;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use xmpi::{Buf, Comm, Grid3, Wire, WorldStats, XmpiError};

const TAG_CKPT: u64 = 7_000_000;
const TAG_RECOV: u64 = 8_000_000;

/// Fixed column width for the checksum shape of (1-D) checkpoint blobs.
const BLOB_W: usize = 32;

/// Checkpoint ring depth: how many epochs each slot retains. Two is the
/// minimum that tolerates the one-epoch skew a mid-checkpoint crash can
/// leave between survivors and the victim's buddy copy.
const CKPT_KEEP: usize = 2;

/// Configuration of a fault-tolerant factorization run.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Matrix dimension (must be divisible by `v`).
    pub n: usize,
    /// Block size `v` (must be a multiple of `grid.pz`).
    pub v: usize,
    /// Processor grid `[Px, Py, Pz]`.
    pub grid: Grid3,
    /// Protect bulk transfers with ABFT row/column checksums. On by
    /// default; [`FtConfig::no_checksums`] is the negative-control switch —
    /// with it, injected corruption flows into the factors undetected.
    pub checksums: bool,
    /// Checkpoint cadence in block steps (`1` = every step, `0` = never).
    pub ckpt_every: usize,
}

impl FtConfig {
    /// Validated constructor: checksums on, checkpoint every step.
    ///
    /// # Panics
    /// If `v` does not divide `n` or `pz` does not divide `v`.
    pub fn new(n: usize, v: usize, grid: Grid3) -> Self {
        let _ = Tiling::new(n, v, grid); // validates
        FtConfig {
            n,
            v,
            grid,
            checksums: true,
            ckpt_every: 1,
        }
    }

    /// Automatic grid and block-size selection: the grid and the
    /// block-size rule of [`ConfluxConfig::auto`](crate::ConfluxConfig::auto).
    ///
    /// # Panics
    /// If no valid block size exists for the chosen grid.
    pub fn auto(n: usize, p: usize) -> Self {
        let (grid, v) = pick_grid_and_block(n, p);
        FtConfig::new(n, v, grid)
    }

    /// Disable checksum protection (negative-control runs and overhead
    /// baselines).
    pub fn no_checksums(mut self) -> Self {
        self.checksums = false;
        self
    }

    /// Set the checkpoint cadence (`0` disables checkpointing; a crash then
    /// restarts the factorization from scratch).
    pub fn checkpoint_every(mut self, steps: usize) -> Self {
        self.ckpt_every = steps;
        self
    }
}

/// Result of a fault-tolerant COnfLUX run.
pub struct FtLuOutput {
    /// `perm[s]` is the original row that is the `s`-th pivot.
    pub perm: Vec<usize>,
    /// Packed factor in pivoted row coordinates (`P·A = L·U`).
    pub packed: Matrix,
    /// What the fault domain did to this run.
    pub report: FtReport,
}

/// Result of a fault-tolerant COnfCHOX run.
pub struct FtCholOutput {
    /// The Cholesky factor `L` (lower triangle, zeros above).
    pub l: Matrix,
    /// What the fault domain did to this run.
    pub report: FtReport,
}

/// Fault-domain accounting for a fault-tolerant factorization.
#[derive(Debug, Default)]
pub struct FtReport {
    /// Number of whole-world restarts (0 for a fault-free run).
    pub restarts: usize,
    /// Every rank that crashed, in the order the crashes were observed.
    pub crashed: Vec<usize>,
    /// The checkpoint epoch each restart resumed from (one entry per
    /// restart; `0` means no common checkpoint existed and the attempt
    /// started from scratch).
    pub resumed_from: Vec<usize>,
    /// Checksum verdicts other than `Clean` observed by the successful
    /// attempt (located data corruptions plus corrupted sum entries).
    pub corrections: u64,
    /// Measured per-rank traffic of every attempt, in launch order. The
    /// last entry is the attempt that completed.
    pub attempt_stats: Vec<WorldStats>,
}

impl FtReport {
    /// Total (sent + received) bytes attributed to phase `name`, summed
    /// over all ranks and attempts.
    fn phase_bytes(&self, name: &str) -> u64 {
        self.attempt_stats
            .iter()
            .flat_map(|ws| ws.ranks.iter())
            .filter_map(|r| r.per_phase.get(name))
            .map(|&(s, r)| s + r)
            .sum()
    }

    /// Bytes moved by the checkpoint ring, all attempts.
    pub fn ckpt_bytes(&self) -> u64 {
        self.phase_bytes("ckpt")
    }

    /// Bytes moved reconstructing crashed ranks' state, all attempts.
    pub fn recovery_bytes(&self) -> u64 {
        self.phase_bytes("recovery")
    }

    /// Mean per-rank *algorithmic* traffic (sent + received): everything
    /// except the `"ckpt"` and `"recovery"` phases, summed across attempts.
    /// The attempts jointly perform exactly one factorization — an aborted
    /// attempt covers steps up to the crash, the restart resumes from the
    /// newest common checkpoint, and the overlap (recomputed steps) is
    /// bounded by one checkpoint interval plus the post-crash progress
    /// bound — so this is the quantity that must stay inside the paper's
    /// volume sandwich. Fault-tolerance overhead is reported separately
    /// above.
    pub fn algo_avg_rank_bytes(&self) -> f64 {
        let mut total = 0u64;
        let mut p = 1usize;
        for ws in &self.attempt_stats {
            p = ws.ranks.len().max(1);
            for r in &ws.ranks {
                let mut t = r.bytes_sent + r.bytes_recv;
                for ph in ["ckpt", "recovery"] {
                    if let Some(&(s, rv)) = r.per_phase.get(ph) {
                        t -= s + rv;
                    }
                }
                total += t;
            }
        }
        total as f64 / p as f64
    }
}

// ---------------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------------

/// Checkpoint blobs by epoch, at most [`CKPT_KEEP`] of them (the newest).
type Slot = BTreeMap<usize, Vec<f64>>;

/// Keep `blob` as `slot`'s copy for `epoch`, dropping the oldest beyond
/// [`CKPT_KEEP`].
fn keep(slot: &mut Slot, epoch: usize, blob: Vec<f64>) {
    slot.insert(epoch, blob);
    while slot.len() > CKPT_KEEP {
        slot.pop_first();
    }
}

/// One rank's checkpoint memory: the snapshots it took of itself, and the
/// replicas it holds for its left ring neighbour. A rank builds the
/// memory of one attempt and returns it from the world by value.
#[derive(Default)]
struct Memory {
    selfs: Slot,
    held: Slot,
}

impl Wire for Memory {
    fn encode(&self, out: &mut Vec<u8>) {
        for slot in [&self.selfs, &self.held] {
            slot.len().encode(out);
            for (epoch, blob) in slot {
                epoch.encode(out);
                blob.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, XmpiError> {
        let mut slot = || -> Result<Slot, XmpiError> {
            (0..usize::decode(input)?)
                .map(|_| Ok((usize::decode(input)?, Vec::decode(input)?)))
                .collect()
        };
        Ok(Memory {
            selfs: slot()?,
            held: slot()?,
        })
    }
}

/// Host-side checkpoint ring: every rank's memory, filed between attempts,
/// surviving world teardown the way real node memory survives one peer's
/// crash. A world only reads it.
///
/// A crash destroys the victim's self copies ([`CkptStore::kill`]) but not
/// the replica its buddy holds, which [`CkptStore::resume_epoch`] folds
/// into the newest epoch recoverable by everyone.
struct CkptStore {
    /// `ranks[r]`: rank `r`'s memory.
    ranks: Vec<Memory>,
}

impl CkptStore {
    /// Empty store for a `p`-rank world.
    fn new(p: usize) -> CkptStore {
        CkptStore {
            ranks: (0..p).map(|_| Memory::default()).collect(),
        }
    }

    /// File what rank `rank` kept during an attempt into its memory.
    fn file(&mut self, rank: usize, memory: Memory) {
        let into = &mut self.ranks[rank];
        for (epoch, blob) in memory.selfs {
            keep(&mut into.selfs, epoch, blob);
        }
        for (epoch, blob) in memory.held {
            keep(&mut into.held, epoch, blob);
        }
    }

    /// Rank `rank`'s own snapshot at `epoch`.
    ///
    /// # Panics
    /// If the snapshot is absent ([`CkptStore::resume_epoch`] guarantees it
    /// is not for the epoch it returns).
    fn self_blob(&self, rank: usize, epoch: usize) -> Vec<f64> {
        self.ranks[rank]
            .selfs
            .get(&epoch)
            .unwrap_or_else(|| panic!("rank {rank} has no self checkpoint at epoch {epoch}"))
            .clone()
    }

    /// The replica of `owner`'s snapshot at `epoch` that its buddy holds.
    ///
    /// # Panics
    /// If the replica is absent.
    fn buddy_blob(&self, owner: usize, epoch: usize) -> Vec<f64> {
        self.buddy(owner)
            .get(&epoch)
            .unwrap_or_else(|| panic!("no buddy checkpoint of rank {owner} at epoch {epoch}"))
            .clone()
    }

    /// The replicas of `owner`'s snapshots, held by `(owner + 1) mod P`.
    fn buddy(&self, owner: usize) -> &Slot {
        &self.ranks[(owner + 1) % self.ranks.len()].held
    }

    /// Model the victim's memory dying with it: discard its self copies.
    /// The buddy-held replica survives — that is the point of the ring.
    fn kill(&mut self, victim: usize) {
        self.ranks[victim].selfs.clear();
    }

    /// Newest epoch recoverable by *every* rank: survivors from their self
    /// copies, `victims` from their buddy-held replicas. `0` (a fresh
    /// start) when no common epoch exists.
    fn resume_epoch(&self, victims: &[usize]) -> usize {
        let mut common: Option<BTreeSet<usize>> = None;
        for r in 0..self.ranks.len() {
            let avail: BTreeSet<usize> = if victims.contains(&r) {
                self.buddy(r).keys().copied().collect()
            } else {
                self.ranks[r].selfs.keys().copied().collect()
            };
            common = Some(match common {
                None => avail,
                Some(c) => c.intersection(&avail).copied().collect(),
            });
        }
        common.and_then(|c| c.last().copied()).unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// State blob codec
// ---------------------------------------------------------------------------

/// Serialize the state of a rank on layer `layer` into a flat `f64` blob:
/// `[step, |perm|, perm…, store rows…]`. Of each store row the blob carries
/// the columns the rank still owes ([`owed`]): on layer 0 the whole row of
/// an active row — `L` left of tile column `step`, the trailing matrix from
/// there on — and a retired row's `L` and `A00`; on a layer above, an
/// active row's update sums from column `step·v` on; and a retired row's
/// `U01` wherever it was written. Integers are exact below 2⁵³: the round
/// trip is bitwise.
fn encode_state(til: &Tiling, layer: usize, state: &State) -> Vec<f64> {
    let mut blob = vec![state.step as f64, state.perm.len() as f64];
    blob.extend(state.perm.iter().map(|&r| r as f64));
    let (store, owes) = (&state.store, owed(til, layer, state.step, &state.perm));
    for lrow in store.rows_from(0) {
        let cols = store.local_cols(lrow, owes(store.global_row(lrow)));
        blob.extend_from_slice(&store.row(lrow)[cols]);
    }
    blob
}

/// Inverse of [`encode_state`]: the blob's rows go into `store`, an all-zero
/// store of the rank's shape.
fn decode_state(blob: &[f64], til: &Tiling, layer: usize, mut store: TileStore) -> State {
    let (step, np) = (blob[0] as usize, blob[1] as usize);
    let perm: Vec<usize> = blob[2..2 + np].iter().map(|&x| x as usize).collect();
    let mut rest = &blob[2 + np..];
    let owes = owed(til, layer, step, &perm);
    for lrow in store.rows_from(0) {
        let cols = store.local_cols(lrow, owes(store.global_row(lrow)));
        let (vals, tail) = rest.split_at(cols.len());
        store.row_mut(lrow)[cols].copy_from_slice(vals);
        rest = tail;
    }
    assert!(rest.is_empty(), "checkpoint blob is for another store");
    State { step, perm, store }
}

// ---------------------------------------------------------------------------
// Seam 1: the transfer guard
// ---------------------------------------------------------------------------

/// The transfer guard: every bulk `f64` transfer of a rank program is
/// issued through it, with the logical `r × c` shape of the block. Off, each
/// method is the bare `Comm` call. On, the block travels augmented with its
/// row/column sums and every receiver verifies — and, for a located
/// single-element corruption, repairs — its copy; `corrections` counts the
/// non-clean verdicts. Empty blocks always travel plain.
pub(crate) struct Guard {
    on: bool,
    corrections: u64,
}

impl Guard {
    /// A guard with checksum protection switched `on` or off.
    pub(crate) fn new(on: bool) -> Guard {
        Guard { on, corrections: 0 }
    }

    #[inline]
    fn protects(&self, r: usize, c: usize) -> bool {
        self.on && r > 0 && c > 0
    }

    /// Bookkeep one verdict: anything non-clean counts as a detection; an
    /// unlocatable pattern violates the single-fault model and is a hard
    /// error (the protocol has no re-request path — silence would be worse).
    fn note(&mut self, v: Verdict) {
        match v {
            Verdict::Clean => {}
            Verdict::Undetectable => panic!(
                "in-flight corruption detected but not locatable: \
                 more than one element damaged in a single transfer"
            ),
            _ => self.corrections += 1,
        }
    }

    /// Verify an augmented `r×c` block received into `aug`, repair a located
    /// corruption in place, and strip the sums.
    fn check_owned(&mut self, mut aug: Vec<f64>, r: usize, c: usize) -> Vec<f64> {
        self.note(checksum::correct(&mut aug, r, c));
        aug.truncate(r * c);
        aug
    }

    /// Point-to-point send of an `r×c` block.
    pub(crate) fn send(&self, comm: &Comm, dst: usize, tag: u64, data: &[f64], r: usize, c: usize) {
        if !self.protects(r, c) {
            comm.send_f64(dst, tag, data);
            return;
        }
        comm.send_f64(dst, tag, &checksum::augment(data, r, c));
    }

    /// Receive of an `r×c` block.
    ///
    /// Uses the infallible receive on purpose: a dead peer or poisoned world
    /// unwinds through `xmpi`'s fault sentinels so [`xmpi::run_ft`] can map
    /// the outcome to a typed error — a `try_recv` here would strand the
    /// error outside the sentinel path.
    pub(crate) fn recv(
        &mut self,
        comm: &Comm,
        src: usize,
        tag: u64,
        r: usize,
        c: usize,
    ) -> Vec<f64> {
        let got = comm.recv_f64(src, tag);
        if !self.protects(r, c) {
            return got;
        }
        assert_eq!(
            got.len(),
            checksum::augmented_len(r, c),
            "augmented block shape mismatch from rank {src}"
        );
        self.check_owned(got, r, c)
    }

    /// Broadcast of an `r×c` block from `root` (whose `data` is the block;
    /// ignored elsewhere). Every rank gets a handle onto the tree's shared
    /// storage whose first `r·c` elements are the block — the root augments
    /// once, every receiver (including interior tree hops' targets) verifies
    /// the shared buffer read-only, and only a receiver that has to repair
    /// its copy pays for one.
    pub(crate) fn bcast(
        &mut self,
        sub: &Comm,
        root: usize,
        data: Vec<f64>,
        r: usize,
        c: usize,
    ) -> Buf<f64> {
        if !self.protects(r, c) {
            return sub.bcast_buf_f64(root, data);
        }
        let aug = if sub.rank() == root {
            checksum::augment(&data, r, c)
        } else {
            Vec::new()
        };
        let shared = sub.bcast_buf_f64(root, aug);
        let verdict = checksum::verify(&shared, r, c);
        self.note(verdict);
        if !matches!(verdict, Verdict::Data { .. }) {
            return shared;
        }
        let mut mine = shared.to_vec();
        checksum::correct(&mut mine, r, c);
        Buf::from(mine)
    }

    /// Sum-reduction of an `r×c` block onto `root`: contributions travel
    /// augmented (the encoding is linear, so partial sums stay protected hop
    /// by hop) and the root verifies the reduced block. Elementwise
    /// reduction order is unchanged, so the reduced data is bit-identical to
    /// the unguarded path. Non-root buffers are left untouched (their
    /// content is unspecified after a plain reduction too).
    pub(crate) fn reduce(
        &mut self,
        sub: &Comm,
        root: usize,
        buf: &mut Vec<f64>,
        r: usize,
        c: usize,
    ) {
        if !self.protects(r, c) {
            sub.reduce_sum_f64(root, buf);
            return;
        }
        let mut aug = checksum::augment(buf, r, c);
        sub.reduce_sum_f64(root, &mut aug);
        if sub.rank() == root {
            *buf = self.check_owned(aug, r, c);
        }
    }

    /// All-gather of row blocks `c` columns wide: member `m` of `sub`
    /// contributes `rows_of(m)` rows (`piece` is this rank's). Returns the
    /// pieces indexed by member, each verified on its own.
    pub(crate) fn allgather(
        &mut self,
        sub: &Comm,
        piece: &[f64],
        c: usize,
        rows_of: impl Fn(usize) -> usize,
    ) -> Vec<Vec<f64>> {
        if !self.on {
            return sub.allgather_f64(piece);
        }
        let mine = rows_of(sub.rank());
        let pieces = if self.protects(mine, c) {
            sub.allgather_f64(&checksum::augment(piece, mine, c))
        } else {
            sub.allgather_f64(piece)
        };
        pieces
            .into_iter()
            .enumerate()
            .map(|(member, pc)| {
                let r = rows_of(member);
                if !self.protects(r, c) {
                    assert!(pc.is_empty(), "unexpected piece from empty member {member}");
                    return pc;
                }
                assert_eq!(pc.len(), checksum::augmented_len(r, c));
                self.check_owned(pc, r, c)
            })
            .collect()
    }

    /// Send a variable-length checkpoint blob, checksummed as a padded
    /// `k×BLOB_W` block with the true length as its first element (so the
    /// length itself is under protection).
    fn send_blob(&self, comm: &Comm, dst: usize, tag: u64, blob: &[f64]) {
        if !self.on {
            comm.send_f64(dst, tag, blob);
            return;
        }
        let k = (blob.len() + 1).div_ceil(BLOB_W).max(1);
        let mut padded = Vec::with_capacity(k * BLOB_W);
        padded.push(blob.len() as f64);
        padded.extend_from_slice(blob);
        padded.resize(k * BLOB_W, 0.0);
        comm.send_f64(dst, tag, &checksum::augment(&padded, k, BLOB_W));
    }

    /// Receive a checkpoint blob; returns `(blob, wire_elements)` so
    /// recovery can report the true transfer size.
    fn recv_blob(&mut self, comm: &Comm, src: usize, tag: u64) -> (Vec<f64>, usize) {
        let mut wire = comm.recv_f64(src, tag);
        let wire_len = wire.len();
        if !self.on {
            return (wire, wire_len);
        }
        let k = (wire_len - BLOB_W) / (BLOB_W + 1);
        assert_eq!(
            checksum::augmented_len(k, BLOB_W),
            wire_len,
            "checkpoint wire shape mismatch from rank {src}"
        );
        self.note(checksum::correct(&mut wire, k, BLOB_W));
        let data = checksum::strip(&wire, k, BLOB_W);
        let len = data[0] as usize;
        (data[1..1 + len].to_vec(), wire_len)
    }
}

// ---------------------------------------------------------------------------
// Seam 2: checkpoint / restore at the step boundary
// ---------------------------------------------------------------------------

/// The end-of-step callback of a rank program: sees the state the next step
/// starts from, and the guard its own transfers must go through.
pub(crate) type StepEnd<'a> = &'a dyn Fn(&State, &mut Guard);

/// End-of-step checkpoint of `state` (epoch = the step it resumes at):
/// snapshot into this rank's `memory` (free) and ship a replica one step
/// around the ring under the `"ckpt"` phase, keeping the left neighbour's
/// replica in exchange. Sends are buffered, so the ring cannot deadlock.
fn take_checkpoint(
    comm: &Comm,
    memory: &mut Memory,
    (til, layer): (&Tiling, usize),
    state: &State,
    guard: &mut Guard,
) {
    phase(comm, "ckpt");
    let p = comm.size();
    let rank = comm.rank();
    let epoch = state.step;
    let blob = encode_state(til, layer, state);
    keep(&mut memory.selfs, epoch, blob.clone());
    if p > 1 {
        let right = (rank + 1) % p;
        let left = (rank + p - 1) % p;
        guard.send_blob(comm, right, TAG_CKPT + epoch as u64, &blob);
        let (lb, _) = guard.recv_blob(comm, left, TAG_CKPT + epoch as u64);
        keep(&mut memory.held, epoch, lb);
    }
}

/// Attempt prologue: this rank's checkpoint blob for the epoch `resume > 0`.
/// Survivors reload their own snapshot at zero measured cost; each victim's
/// buddy replays the replica over the transport (`"recovery"` phase) to the
/// reborn victim. Buddy sends go out before any victim receive, so two
/// adjacent victims cannot deadlock the exchange.
fn restore_blob(
    comm: &Comm,
    store: &CkptStore,
    memory: &mut Memory,
    victims: &[usize],
    resume: usize,
    guard: &mut Guard,
) -> Vec<f64> {
    let p = comm.size();
    let rank = comm.rank();
    for &vq in victims {
        if (vq + 1) % p == rank && vq != rank {
            phase(comm, "recovery");
            let replica = store.buddy_blob(vq, resume);
            guard.send_blob(comm, vq, TAG_RECOV + vq as u64, &replica);
        }
    }
    if !victims.contains(&rank) {
        return store.self_blob(rank, resume);
    }
    phase(comm, "recovery");
    comm.mark_recovery_begin();
    let (blob, wire) = guard.recv_blob(comm, (rank + 1) % p, TAG_RECOV + rank as u64);
    comm.mark_recovery_end((wire * 8) as u64);
    // Re-seed the reborn rank's own memory so a later crash elsewhere
    // still finds a full set of self copies.
    keep(&mut memory.selfs, resume, blob.clone());
    blob
}

// ---------------------------------------------------------------------------
// The fault-tolerant drivers
// ---------------------------------------------------------------------------

/// The restart loop both FT drivers share. Each attempt launches a world
/// whose every rank takes up its [`State`] at the newest epoch all ranks
/// can recover — from step 0 on the store `stage` builds from the input,
/// later from its checkpoint alone, decoded into a zero store of the shape
/// `lower_only` says — then runs `program`, the plain rank program of one
/// algorithm bound to its config, with the guard set from
/// `cfg.checksums` and the checkpoint callback. Every rank that did not
/// crash returns its checkpoint [`Memory`] with its outcome, and the loop
/// files it into the store before anything else. A crashed attempt costs
/// the victims their own snapshots and starts the next one; a completed one
/// yields the assembled factor and rank 0's row order.
fn run_with_restarts(
    cfg: &FtConfig,
    lower_only: bool,
    stage: impl Fn(&Comm) -> TileStore + Sync,
    program: impl Fn(&Comm, &mut Guard, State, StepEnd<'_>) -> RankResult + Sync,
) -> Result<(Matrix, Vec<usize>, FtReport), dense::Error> {
    let p = cfg.grid.size();
    let til = Tiling::new(cfg.n, cfg.v, cfg.grid);
    let mut store = CkptStore::new(p);
    let mut report = FtReport::default();
    let mut victims: Vec<usize> = Vec::new();
    loop {
        let resume = store.resume_epoch(&victims);
        if !victims.is_empty() {
            report.resumed_from.push(resume);
        }
        let out = xmpi::run_ft(p, |comm| {
            let memory = RefCell::new(Memory::default());
            let outcome = xmpi::catch_poison(|| {
                let mut guard = Guard::new(cfg.checksums);
                let (pi, pj, layer) = cfg.grid.coords(comm.rank());
                let state = if resume == 0 {
                    State::fresh(stage(comm))
                } else {
                    let mut memory = memory.borrow_mut();
                    let blob =
                        restore_blob(comm, &store, &mut memory, &victims, resume, &mut guard);
                    let zeros = TileStore::zeros(&til, pi, pj, lower_only);
                    decode_state(&blob, &til, layer, zeros)
                };
                assert_eq!(state.step, resume, "checkpoint blob is for the wrong epoch");
                let checkpoint = |state: &State, guard: &mut Guard| {
                    if cfg.ckpt_every > 0 && state.step.is_multiple_of(cfg.ckpt_every) {
                        let at = (&til, layer);
                        take_checkpoint(comm, &mut memory.borrow_mut(), at, state, guard);
                    }
                };
                let (parts, perm) = program(comm, &mut guard, state, &checkpoint)?;
                Ok::<_, dense::Error>(((parts, guard.corrections), perm))
            });
            (outcome, memory.into_inner())
        });
        report.attempt_stats.push(out.stats);
        let mut outcomes = Vec::with_capacity(p);
        for (rank, res) in out.results.into_iter().enumerate() {
            // A crashed rank's memory died with it, even when its process
            // lived on to return it (a rank whose stream was reset).
            if let (Ok((outcome, memory)), false) = (res, out.crashed.contains(&rank)) {
                store.file(rank, memory);
                outcomes.push(outcome);
            }
        }
        if !out.crashed.is_empty() {
            report.restarts += 1;
            assert!(
                report.restarts <= p,
                "fault-tolerant run: more restarts than ranks — unrecoverable fault pattern"
            );
            for &vq in &out.crashed {
                store.kill(vq);
            }
            report.crashed.extend(&out.crashed);
            victims = out.crashed;
            continue;
        }
        assert_eq!(outcomes.len(), p, "no rank crashed: every rank returned");
        let (parts, perm) = split_results(
            outcomes
                .into_iter()
                .map(|res| res.expect("no rank crashed: no world was poisoned")),
        )?;
        let (parts, corrections): (Vec<_>, Vec<u64>) = parts.into_iter().unzip();
        report.corrections += corrections.iter().sum::<u64>();
        let factor = assemble(cfg.n, cfg.v, &perm, parts);
        return Ok((factor, perm, report));
    }
}

/// Factor `a` with fault-tolerant COnfLUX: the [`crate::conflux`] rank
/// program (bitwise-identical factors to [`crate::conflux_lu`]) with
/// checksummed transfers, ring checkpoints, and crash recovery.
///
/// Arm an `xharness::Perturbator` carrying a crash or corruption plan
/// around this call (via `xmpi::with_hooks`) to exercise the fault
/// path; the one-shot plan latches span every restart attempt, so exactly
/// one fault is injected per run.
///
/// # Errors
/// [`dense::Error::ShapeMismatch`] if `a` is not `n × n`; the underlying
/// kernel error if the matrix is singular.
///
/// # Panics
/// If more worlds crash than there are ranks (a runaway fault injector).
pub fn conflux_lu_ft(cfg: &FtConfig, a: &Matrix) -> Result<FtLuOutput, dense::Error> {
    check_shape(a, cfg.n)?;
    let til = Tiling::new(cfg.n, cfg.v, cfg.grid);
    let plain = ConfluxConfig::new(cfg.n, cfg.v, cfg.grid);
    let stage = |comm: &Comm| stage_from_global(comm, &til, a, false);
    let (packed, perm, report) =
        run_with_restarts(cfg, false, stage, |comm, guard, state, end| {
            conflux::rank_program(comm, &plain, PivotPolicy::Mask, guard, state, Some(end))
        })?;
    Ok(FtLuOutput {
        perm,
        packed,
        report,
    })
}

/// Factor the SPD matrix `a` with fault-tolerant COnfCHOX (the
/// [`crate::confchox`] rank program — bitwise-identical factor to
/// [`crate::confchox_cholesky`] — plus checksums, checkpoints, recovery).
///
/// # Errors
/// [`dense::Error::ShapeMismatch`] if `a` is not `n × n`;
/// [`dense::Error::NotPositiveDefinite`] if a diagonal block fails.
///
/// # Panics
/// On a runaway fault injector (see [`conflux_lu_ft`]).
pub fn confchox_cholesky_ft(cfg: &FtConfig, a: &Matrix) -> Result<FtCholOutput, dense::Error> {
    check_shape(a, cfg.n)?;
    let til = Tiling::new(cfg.n, cfg.v, cfg.grid);
    let plain = ConfchoxConfig::new(cfg.n, cfg.v, cfg.grid);
    let stage = |comm: &Comm| stage_from_global(comm, &til, a, true);
    let (l, _, report) = run_with_restarts(cfg, true, stage, |comm, guard, state, end| {
        confchox::rank_program(comm, &plain, guard, state, Some(end))
    })?;
    Ok(FtCholOutput { l, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confchox::confchox_cholesky;
    use crate::conflux::conflux_lu;
    use dense::gen::{random_matrix, random_spd};
    use dense::norms::lu_residual_perm;
    use std::sync::Arc;
    use xharness::{CorruptPlan, CrashPlan, PerturbConfig, Perturbator};

    fn assert_bitwise(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: value mismatch");
        }
    }

    #[test]
    fn state_codec_roundtrip_is_bitwise() {
        // Rank (0, 0) of a 2×1×2 grid over 16 rows, v = 4: global rows 0–3
        // and 8–11, every column. Before step 2, rows 2, 9, 0 retired at
        // step 0 and 8 at step 1 keep their `U01` on layer 0 (the U-owner's
        // process row, or pivot 1 of step 1: the first layer's slice);
        // rows 1 and 3, pivots 2 and 3 of step 1 off its U-owner's process
        // row, keep theirs on layer 1; rows 10 and 11 are active.
        let v = 4;
        let til = Tiling::new(16, v, Grid3::new(2, 1, 2));
        let zeros = || TileStore::zeros(&til, 0, 0, false);
        let mut store = zeros();
        for lrow in store.rows_from(0) {
            let vals = random_matrix(1, 16, lrow as u64);
            store.row_mut(lrow).copy_from_slice(vals.data());
        }
        let perm = vec![5usize, 2, 9, 0, 13, 8, 1, 3];
        let state = State {
            step: 2,
            perm,
            store,
        };
        let bits = |blob: &[f64]| blob.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Header, pivots, then the store rows: on layer 0 four whole rows,
        // rows 1 and 3 up to column 8 and the two active rows; on layer 1
        // rows 1 and 3 from column 8 on and the active rows' update sums
        // from column 2·v on.
        for (layer, words) in [(0, 6 * 16 + 2 * 8), (1, 4 * 8)] {
            let blob = encode_state(&til, layer, &state);
            assert_eq!(blob.len(), 2 + 8 + words);
            let back = decode_state(&blob, &til, layer, zeros());
            assert_eq!((back.step, &back.perm), (2, &state.perm));
            assert_eq!(bits(&encode_state(&til, layer, &back)), bits(&blob));
            let owes = owed(&til, layer, 2, &state.perm);
            for lrow in 0..8 {
                let cols = back
                    .store
                    .local_cols(lrow, owes(back.store.global_row(lrow)));
                let (got, want) = (back.store.row(lrow), state.store.row(lrow));
                assert_eq!(bits(&got[cols.clone()]), bits(&want[cols.clone()]));
                let rest = got[..cols.start].iter().chain(&got[cols.end..]);
                assert!(
                    rest.copied().all(|x| x == 0.0),
                    "columns it owes nothing stay out"
                );
            }
        }
    }

    /// A memory holding `selfs` and `held` epochs, each blob `[tag, epoch]`.
    fn memory(tag: f64, selfs: &[usize], held: &[usize]) -> Memory {
        let mut m = Memory::default();
        for &e in selfs {
            keep(&mut m.selfs, e, vec![tag, e as f64]);
        }
        for &e in held {
            keep(&mut m.held, e, vec![tag, e as f64]);
        }
        m
    }

    #[test]
    fn store_tracks_epochs_and_survives_a_kill() {
        let mut store = CkptStore::new(3);
        // Two attempts' worth of memory per rank, filed in turn; rank r
        // holds its left neighbour's replicas.
        for epochs in [[1, 2], [3, 4]] {
            for r in 0..3 {
                let left = (r + 2) % 3;
                let mut m = memory(r as f64, &epochs, &[]);
                m.held = memory(left as f64, &epochs, &[]).selfs;
                store.file(r, m);
            }
        }
        // Depth-2 ring: epochs 1 and 2 were collected.
        assert_eq!(store.resume_epoch(&[]), 4);
        store.kill(1);
        // Victim 1 falls back to its buddy-held replicas, still at 4.
        assert_eq!(store.resume_epoch(&[1]), 4);
        assert_eq!(store.buddy_blob(1, 4), vec![1.0, 4.0]);
        assert_eq!(store.self_blob(2, 3), vec![2.0, 3.0]);
        // A skewed buddy (only up to epoch 3) drags the resume point back.
        let mut store = CkptStore::new(2);
        store.file(0, memory(0.0, &[2, 3], &[2, 3]));
        store.file(0, memory(0.0, &[4], &[]));
        assert_eq!(store.resume_epoch(&[1]), 3);
        // Nothing in common: fresh start.
        assert_eq!(CkptStore::new(2).resume_epoch(&[0]), 0);
    }

    #[test]
    fn memory_crosses_the_wire_bitwise() {
        let m = memory(-0.0, &[3, 5, 7], &[6]);
        let bytes = xmpi::wire::encode_vec(&m);
        let back: Memory = xmpi::wire::decode_all(&bytes).unwrap();
        assert_eq!(xmpi::wire::encode_vec(&back), bytes);
        assert_eq!(back.selfs.keys().copied().collect::<Vec<_>>(), vec![5, 7]);
        assert_eq!(back.held[&6][0].to_bits(), (-0.0f64).to_bits());
        assert!(xmpi::wire::decode_all::<Memory>(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn fault_free_ft_lu_matches_conflux_bitwise() {
        let (n, v, grid) = (24usize, 4usize, Grid3::new(2, 2, 2));
        let a = random_matrix(n, n, 31);
        let base = conflux_lu(&ConfluxConfig::new(n, v, grid), &a).unwrap();
        for cfg in [
            FtConfig::new(n, v, grid),
            FtConfig::new(n, v, grid).no_checksums(),
        ] {
            let out = conflux_lu_ft(&cfg, &a).unwrap();
            assert_eq!(out.perm, base.perm, "checksums={}", cfg.checksums);
            assert_bitwise(&out.packed, base.packed.as_ref().unwrap(), "ft lu factor");
            assert_eq!(out.report.restarts, 0);
            assert_eq!(out.report.corrections, 0);
            assert_eq!(out.report.recovery_bytes(), 0);
            assert!(
                out.report.ckpt_bytes() > 0,
                "ring checkpoints must move bytes"
            );
        }
    }

    #[test]
    fn fault_free_ft_cholesky_matches_confchox_bitwise() {
        let (n, v, grid) = (24usize, 4usize, Grid3::new(2, 2, 2));
        let a = random_spd(n, 32);
        let base = confchox_cholesky(&ConfchoxConfig::new(n, v, grid), &a).unwrap();
        let out = confchox_cholesky_ft(&FtConfig::new(n, v, grid), &a).unwrap();
        assert_bitwise(&out.l, base.l.as_ref().unwrap(), "ft chol factor");
        assert_eq!(out.report.restarts, 0);
    }

    #[test]
    fn crash_recovery_reproduces_the_fault_free_factors_bitwise() {
        let (n, v, grid) = (24usize, 4usize, Grid3::new(2, 2, 2));
        let a = random_matrix(n, n, 33);
        let cfg = FtConfig::new(n, v, grid);
        let base = conflux_lu_ft(&cfg, &a).unwrap();
        let plan = CrashPlan {
            victim: 3,
            after_sends: 10,
        };
        let perturbator = Arc::new(Perturbator::new(PerturbConfig::new(0)).with_crash(plan));
        // The crashed run is `conflux_lu_ft`'s restart loop with a counting
        // `stage`.
        let til = Tiling::new(n, v, grid);
        let staged = std::sync::atomic::AtomicUsize::new(0);
        let stage = |comm: &Comm| {
            staged.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            stage_from_global(comm, &til, &a, false)
        };
        let plain = ConfluxConfig::new(n, v, grid);
        let program = |comm: &Comm, guard: &mut Guard, state: State, end: StepEnd<'_>| {
            conflux::rank_program(comm, &plain, PivotPolicy::Mask, guard, state, Some(end))
        };
        let (packed, perm, report) = xmpi::with_hooks(perturbator.clone(), || {
            run_with_restarts(&cfg, false, stage, program).unwrap()
        });
        assert!(perturbator.crash_fired(), "planned crash never fired");
        assert_eq!((&report.crashed[..], report.restarts), (&[3][..], 1));
        assert!(report.recovery_bytes() > 0, "recovery must move bytes");
        // A restored rank never reads the input: every rank staged once, in
        // the first attempt; the second took up the checkpoints of epoch 1.
        assert_eq!((staged.into_inner(), report.resumed_from), (8, vec![1]));
        assert_eq!(perm, base.perm);
        assert_bitwise(&packed, &base.packed, "post-crash lu factor");
        let res = lu_residual_perm(&a, &packed, &perm);
        assert!(res < 1e-12, "residual {res:e}");
    }

    #[test]
    fn one_process_row_recovers_the_fault_free_factors_bitwise() {
        // With one process row, the pivot rows' `A00` and `U01` are all
        // written into the layer-0 stores: the checkpoints a restarted world
        // resumes from carry them in the store rows alone. Rank 1 is the
        // layer-0 rank of process column 1 — the root of every odd step and
        // a U-owner of every step.
        let (n, v, grid) = (24usize, 4usize, Grid3::new(1, 2, 2));
        let a = random_matrix(n, n, 35);
        let base = conflux_lu(&ConfluxConfig::new(n, v, grid), &a).unwrap();
        let plan = CrashPlan {
            victim: 1,
            after_sends: 10,
        };
        let perturbator = Arc::new(Perturbator::new(PerturbConfig::new(0)).with_crash(plan));
        let cfg = FtConfig::new(n, v, grid);
        let out = xmpi::with_hooks(perturbator.clone(), || conflux_lu_ft(&cfg, &a).unwrap());
        assert!(perturbator.crash_fired(), "planned crash never fired");
        let report = &out.report;
        assert_eq!((&report.crashed[..], report.restarts), (&[1][..], 1));
        assert!(report.resumed_from[0] > 0, "resumed from a checkpoint");
        assert_eq!(out.perm, base.perm);
        assert_bitwise(
            &out.packed,
            base.packed.as_ref().unwrap(),
            "recovered lu factor",
        );
    }

    #[test]
    fn corruption_is_detected_located_and_repaired() {
        let (n, v, grid) = (24usize, 4usize, Grid3::new(2, 2, 2));
        let a = random_matrix(n, n, 34);
        // Checkpoints off so the injected fault can only land on a transfer
        // that feeds the factors.
        let cfg = FtConfig::new(n, v, grid).checkpoint_every(0);
        let plan = CorruptPlan {
            victim: 2,
            on_send: 1,
            min_len: v * v + 1,
            delta: 1.5,
        };
        let perturbator = Arc::new(Perturbator::new(PerturbConfig::new(0)).with_corrupt(plan));
        let out = xmpi::with_hooks(perturbator.clone(), || conflux_lu_ft(&cfg, &a).unwrap());
        assert!(
            perturbator.corrupt_fired(),
            "planned corruption never fired"
        );
        assert!(out.report.corrections >= 1, "corruption went unnoticed");
        let res = lu_residual_perm(&a, &out.packed, &out.perm);
        assert!(res < 1e-12, "residual {res:e} after repair");
    }

    #[test]
    fn corruption_without_checksums_is_not_silently_accepted() {
        let (n, v, grid) = (24usize, 4usize, Grid3::new(2, 2, 2));
        let a = random_matrix(n, n, 34);
        let cfg = FtConfig::new(n, v, grid).checkpoint_every(0).no_checksums();
        let plan = CorruptPlan {
            victim: 2,
            on_send: 1,
            min_len: v * v + 1,
            delta: 1.5,
        };
        let perturbator = Arc::new(Perturbator::new(PerturbConfig::new(0)).with_corrupt(plan));
        let out = xmpi::with_hooks(perturbator.clone(), || conflux_lu_ft(&cfg, &a).unwrap());
        assert!(perturbator.corrupt_fired());
        assert_eq!(out.report.corrections, 0, "nothing can detect it");
        let res = lu_residual_perm(&a, &out.packed, &out.perm);
        assert!(
            res > 1e-12,
            "unprotected corruption produced a clean-looking residual {res:e}"
        );
    }
}
