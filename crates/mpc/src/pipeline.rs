//! Dependency-pipelined round execution: the opt-in scheduler that kills
//! the global round barrier.
//!
//! # Why
//!
//! [`Cluster::round`] is a global barrier: every machine's compute must
//! finish, then the whole shuffle runs, then the next round starts — host
//! wall-clock is `rounds × slowest machine` even though the staggered-CSR
//! [`FlatInboxes`] layout already knows, before any
//! message moves, exactly where every machine's next-round input will
//! land. This module cashes that in: the shuffle's *layout* pass
//! (`layout_flat`) runs up front (word totals, cap enforcement, region
//! bounds), per-region delivery is tracked by atomic completion counters
//! (the [`ReadinessBoard`]), and a machine whose round-`r+1` inbox region
//! is fully delivered starts computing round `r+1` — on the same
//! work-stealing pool — while slower machines are still placing their
//! round-`r` sends.
//!
//! # Readiness protocol
//!
//! Per round, region `i`'s counter is armed to `region_lens[i] + 1`:
//! one unit per expected message plus one *sender token*. Each placed run
//! decrements by its length ([`ReadinessBoard::deliver`]); machine `i`
//! finishing the drain of its own outbox releases the token
//! ([`ReadinessBoard::finish_sender`]). Whichever decrement reaches zero
//! — exactly one does — runs machine `i`'s next-round compute inline.
//! The token serves two duties at once: machine `i`'s compute reuses its
//! outbox arena, which placement is still reading until the drain
//! finishes, and it keeps a self-delivery from triggering the compute
//! early. All decrements are acquire-release read-modify-writes, so the
//! final one observes every placed message and the drained outbox
//! (the RMW chain continues the release sequence); the checked build
//! (`RUSTFLAGS="--cfg loom"`, `tests/loom_pipeline.rs`) model-checks
//! exactly this handoff through the `crate::sync` facade.
//!
//! Computes never send — sends happen into the *next* layout — so
//! readiness never cascades and the per-segment scheduler state is one
//! counter per machine.
//!
//! # Segments
//!
//! The pipeline needs to know the next round's closure before the current
//! round's placement starts, so rounds are batched into *segments*
//! ([`SegmentRound`], [`Cluster::run_segment`]): any stretch of rounds
//! with no host-side control flow between them. A segment's last round is
//! placed without overlap (there is nothing to overlap with) and left
//! pending, exactly like a barrier round, so segments and single rounds
//! compose freely. With [`RoundScheduler::Barrier`] the same segments run
//! through [`Cluster::round`] — the pipelined path is opt-in per
//! [`MpcConfig`].
//!
//! Observable behavior is bit-identical in both modes: same inbox
//! contents and order (placement slots come from the same layout), same
//! traces, same violation lists (enforcement runs from the layout's
//! totals *before* any overlapped compute), same panics under strict
//! enforcement.
//!
//! # Critical-path accounting
//!
//! On a single hardware thread the overlap cannot show up in wall-clock,
//! so the win is measured host-independently: every round, each machine
//! is charged a simulated compute cost
//!
//! ```text
//! cost_i(r) = 1 + words received in round r-1 + words sent in round r
//! ```
//!
//! (read your input, write your output, unit base). Barrier makespan sums
//! the per-round maximum; pipelined makespan is the longest path through
//! the (machine, round) dependency DAG, where machine `i`'s round-`r`
//! work depends on its own round-`r-1` work and on the round-`r-1` work
//! of every machine that sent to it. `CpTracker` advances identically
//! under both schedulers and snapshots into
//! [`ExecutionTrace::critical_path`](crate::ExecutionTrace), so the
//! statistic is deterministic, mode-independent, and benchmark-gateable.

use crate::accounting::{CriticalPath, MachineRound};
use crate::cluster::{Cluster, Inbox, MachineCtx};
use crate::model::{MpcConfig, RoundScheduler};
use crate::router::{
    cap_check, layout_flat, place_all, place_sender, FlatInboxes, Outbox, RouteScratch, SendPtr,
};
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::words::Words;
use rayon::prelude::*;
use std::time::Instant;

/// Memory ordering of the readiness decrements. Acquire-release is what
/// makes the final decrement observe every placed message and the
/// sender's outbox drain; the `weaken-ready-ordering` seeded mutation
/// (loom builds only) drops it to relaxed, which the model checker must
/// catch as a data race.
#[inline]
fn ready_order() -> Ordering {
    #[cfg(loom)]
    if crate::sync::mutation("weaken-ready-ordering") {
        return Ordering::Relaxed;
    }
    Ordering::AcqRel
}

/// Memory ordering of the crash-poison store: `Release` pairs with the
/// `Acquire` in [`ReadinessBoard::is_poisoned`] so a completing worker
/// that observes the flag also observes everything the recovery engine
/// wrote before poisoning (the crash record it must replay from). The
/// `weaken-poison-ordering` seeded mutation (loom builds only) drops
/// both sides to relaxed, which the model checker must catch as a data
/// race on that handoff.
#[inline]
fn poison_store_order() -> Ordering {
    #[cfg(loom)]
    if crate::sync::mutation("weaken-poison-ordering") {
        return Ordering::Relaxed;
    }
    Ordering::Release
}

/// Load side of the crash-poison handoff; see [`poison_store_order`].
#[inline]
fn poison_load_order() -> Ordering {
    #[cfg(loom)]
    if crate::sync::mutation("weaken-poison-ordering") {
        return Ordering::Relaxed;
    }
    Ordering::Acquire
}

/// Whether the `early-ready` seeded mutation is active (loom builds
/// only): the sender token is never armed and never released, so a region
/// turns ready as soon as its messages land — before its own outbox is
/// drained — which the model checker must catch as a data race on the
/// outbox handoff.
#[inline]
fn early_ready() -> bool {
    #[cfg(loom)]
    if crate::sync::mutation("early-ready") {
        return true;
    }
    false
}

/// Per-region delivery counters: the pipelined scheduler's only shared
/// mutable state. See the module docs for the protocol.
// No derived Debug: the loom atomic shims don't implement it.
pub struct ReadinessBoard {
    /// Undelivered units per region: expected messages plus the sender
    /// token.
    remaining: Vec<AtomicUsize>,
    /// Crash-poison flags (nonzero = poisoned): set by the recovery
    /// engine before a degraded segment runs, so a completed region is
    /// never handed to an inline compute whose machine state is about to
    /// be rolled back. `usize` rather than `bool` because the loom shims
    /// only cover the `AtomicUsize` surface the facade pins.
    poisoned: Vec<AtomicUsize>,
}

impl ReadinessBoard {
    /// A board for `m` regions, unarmed.
    pub fn new(m: usize) -> Self {
        Self {
            remaining: (0..m).map(|_| AtomicUsize::new(0)).collect(),
            poisoned: (0..m).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.remaining.len()
    }

    /// Arms every region for one round: `region_lens[i]` expected
    /// messages plus the sender token. Relaxed stores suffice — the
    /// armed values reach the placing workers through the pool's own
    /// job-publication synchronization.
    pub fn reset(&mut self, region_lens: &[usize]) {
        assert_eq!(region_lens.len(), self.remaining.len(), "board sized for m");
        let token = if early_ready() { 0 } else { 1 };
        for (slot, &len) in self.remaining.iter().zip(region_lens) {
            slot.store(len + token, Ordering::Relaxed);
        }
    }

    /// Records `n` messages placed into `region`; true when this delivery
    /// completed the region (exactly one caller per region observes
    /// true). While the region's sender token is armed, a delivery can
    /// never complete the region — including the sender's own
    /// self-deliveries.
    #[inline]
    pub fn deliver(&self, region: usize, n: usize) -> bool {
        debug_assert!(n > 0, "runs are never empty");
        self.remaining[region].fetch_sub(n, ready_order()) == n
    }

    /// Releases `sender`'s token once its outbox is fully drained; true
    /// when that completed the region (all deliveries were already in).
    #[inline]
    pub fn finish_sender(&self, sender: usize) -> bool {
        if early_ready() {
            return false;
        }
        self.remaining[sender].fetch_sub(1, ready_order()) == 1
    }

    /// Marks `region` crash-poisoned: whichever worker completes the
    /// region must not run its inline compute (the recovery engine will
    /// replay the machine instead). Release pairs with the `Acquire` in
    /// [`Self::is_poisoned`] so the completing worker observes the flag.
    #[inline]
    pub fn poison(&self, region: usize) {
        self.poisoned[region].store(1, poison_store_order());
    }

    /// Whether `region` is crash-poisoned.
    #[inline]
    pub fn is_poisoned(&self, region: usize) -> bool {
        self.poisoned[region].load(poison_load_order()) != 0
    }

    /// Clears every poison flag (end of a degraded segment).
    pub fn clear_poison(&mut self) {
        for slot in &self.poisoned {
            slot.store(0, Ordering::Relaxed);
        }
    }
}

/// Critical-path accounting state (see the module docs for the cost
/// model). Advanced once per round, identically under both schedulers;
/// all quantities are integers derived from the deterministic word
/// totals, so the snapshot is bit-identical across modes, hosts, and
/// thread counts.
#[derive(Debug)]
pub(crate) struct CpTracker {
    barrier_makespan: u64,
    barrier_stall: u64,
    /// Pipelined finish time per machine.
    f: Vec<u64>,
    /// Max finish time over last round's senders to each machine.
    incoming: Vec<u64>,
    /// Words each machine received in the previous round.
    prev_recv: Vec<u64>,
    /// Per-machine cost of the round being advanced (scratch).
    cost: Vec<u64>,
    /// (sender, receiver) pairs of the round being advanced, captured
    /// from the outbox run tables before placement clears them.
    dep_edges: Vec<(u32, u32)>,
    /// Per-machine row of the most recently advanced round (pipelined
    /// start time, cost, barrier stall) — scratch for the bookkeeping
    /// export, recycled every round.
    latest: Vec<MachineRound>,
}

impl CpTracker {
    pub(crate) fn new(m: usize) -> Self {
        Self {
            barrier_makespan: 0,
            barrier_stall: 0,
            f: vec![0; m],
            incoming: vec![0; m],
            prev_recv: vec![0; m],
            cost: vec![0; m],
            dep_edges: Vec::new(),
            latest: (0..m).map(|_| MachineRound::default()).collect(),
        }
    }

    /// Captures this round's sender→receiver edges from the staged
    /// outboxes. Must run before placement empties the run tables.
    /// Repeated runs to one destination are fine — `advance` folds edges
    /// with `max`, which is idempotent.
    pub(crate) fn capture_deps<M>(&mut self, outboxes: &[Outbox<M>]) {
        for (from, outbox) in outboxes.iter().enumerate() {
            for run in outbox.runs() {
                self.dep_edges.push((from as u32, run.to));
            }
        }
    }

    /// Folds one routed round into the makespans, consuming the captured
    /// dependency edges.
    pub(crate) fn advance(&mut self, sent_words: &[usize], received_words: &[usize]) {
        let m = self.f.len();
        let mut round_max = 0u64;
        for ((cost, &prev), &sent) in self.cost.iter_mut().zip(&self.prev_recv).zip(sent_words) {
            let c = 1 + prev + sent as u64;
            *cost = c;
            round_max = round_max.max(c);
        }
        self.barrier_makespan += round_max;
        for i in 0..m {
            let stall = round_max - self.cost[i];
            self.barrier_stall += stall;
            // A machine starts its round-r work once its own round-(r-1)
            // work and all its senders' round-(r-1) work are done.
            let start = self.f[i].max(self.incoming[i]);
            self.f[i] = start + self.cost[i];
            self.latest[i] = MachineRound {
                start,
                cost: self.cost[i],
                stall_words: stall,
            };
        }
        // Next round's wait-for-senders bound, from this round's edges
        // and the *new* finish times.
        for inc in &mut self.incoming {
            *inc = 0;
        }
        for &(from, to) in &self.dep_edges {
            let t = self.f[from as usize];
            let inc = &mut self.incoming[to as usize];
            if t > *inc {
                *inc = t;
            }
        }
        self.dep_edges.clear();
        for (slot, &r) in self.prev_recv.iter_mut().zip(received_words) {
            *slot = r as u64;
        }
    }

    /// Folds the just-advanced round into the trace's critical path:
    /// refreshes the cumulative scalars and appends the per-machine row.
    /// Allocates (the row copy) — called from the bookkeeping step, which
    /// is outside the fabric's zero-allocation pin.
    pub(crate) fn export_into(&self, cp: &mut CriticalPath) {
        cp.barrier_makespan = self.barrier_makespan;
        cp.pipelined_makespan = self.f.iter().copied().max().unwrap_or(0);
        cp.barrier_stall = self.barrier_stall;
        cp.machine_rounds.push(self.latest.to_vec());
    }

    /// The per-machine rows of the most recently advanced round.
    pub(crate) fn latest(&self) -> &[MachineRound] {
        &self.latest
    }
}

/// One round of a segment: a label plus the round closure, boxed so a
/// segment can hold heterogeneous closures. Built by the executors right
/// where they used to call [`Cluster::round`].
pub struct SegmentRound<'seg, S, M> {
    label: &'seg str,
    body: RoundBody<'seg, S, M>,
}

type RoundBody<'seg, S, M> =
    Box<dyn for<'a> Fn(&mut MachineCtx<M>, &mut S, Inbox<'a, M>) + Sync + Send + 'seg>;

impl<'seg, S, M> SegmentRound<'seg, S, M> {
    /// A segment round running `body` under `label` (same contract as
    /// [`Cluster::round`]).
    pub fn new(
        label: &'seg str,
        body: impl for<'a> Fn(&mut MachineCtx<M>, &mut S, Inbox<'a, M>) + Sync + Send + 'seg,
    ) -> Self {
        Self {
            label,
            body: Box::new(body),
        }
    }

    /// The round's trace label.
    pub fn label(&self) -> &str {
        self.label
    }

    /// Borrowed view of the round body, for engines (the recovery
    /// engine's replay path) that run a segment's rounds by reference.
    pub(crate) fn body(&self) -> &crate::cluster::RoundFn<'seg, S, M>
    where
        S: 'seg,
        M: 'seg,
    {
        &self.body
    }
}

impl<S, M> Cluster<S, M>
where
    S: Send + Words,
    M: Send + Sync + Words,
{
    /// Executes a segment of rounds under the configured
    /// [`RoundScheduler`]: plain [`Cluster::round`] calls under
    /// `Barrier`, [`Cluster::run_pipelined`] under `Pipelined`. Traces,
    /// violations, inbox contents, and strict-enforcement panics are
    /// bit-identical either way.
    pub fn run_segment(&mut self, rounds: Vec<SegmentRound<'_, S, M>>) {
        match self.config.scheduler {
            RoundScheduler::Barrier => {
                for r in rounds {
                    self.round(r.label, r.body);
                }
            }
            RoundScheduler::Pipelined => self.run_pipelined(rounds),
        }
    }

    /// Executes a segment with the dependency-pipelined engine regardless
    /// of the configured scheduler. See the module docs for the design;
    /// the shape per round `k` is: layout (totals + region bounds) →
    /// enforcement + trace bookkeeping → placement overlapped with the
    /// round-`k+1` computes of machines whose regions complete early.
    /// The segment's last round is placed without overlap and left
    /// pending for the next round or segment.
    pub fn run_pipelined(&mut self, rounds: Vec<SegmentRound<'_, S, M>>) {
        if rounds.is_empty() {
            return;
        }
        let m = self.config.num_machines;
        let mut mark = Instant::now();
        // Round 0's compute has nothing upstream in this segment to
        // overlap with: run it as a plain parallel sweep over the pending
        // inboxes.
        self.compute_all(&rounds[0].body);
        // The segment's leading compute sweep is the only compute that is
        // *not* overlapped into a placement stage; it is attributed to the
        // first round's host phase, later rounds fold theirs into route_s.
        let mut lead_compute_s = mark.elapsed().as_secs_f64();
        for k in 0..rounds.len() {
            let round_index = self.trace.rounds.len();
            self.scratch.reset_per_machine(m);
            // Layout before anything moves: word totals, region bounds,
            // and the per-(sender, destination) slot table. The pipelined
            // path always uses the flat layout — placement must know its
            // slots up front — so there is no sequential-shuffle cutover
            // here; output is bit-identical regardless.
            let base = layout_flat(m, &self.outboxes, &mut self.inboxes, &mut self.scratch);
            self.scratch
                .record_region_events(self.inboxes.region_lens());
            self.cp.capture_deps(&self.outboxes);
            // Enforcement and trace bookkeeping run from the layout's
            // final totals, strictly before any round-(k+1) compute can
            // start: a strict-mode violation panics at the same point,
            // with the same message, as the barrier engine.
            cap_check(&self.config, round_index, &mut self.scratch);
            self.bookkeep_round(rounds[k].label, round_index);
            if k + 1 == rounds.len() {
                // Last round of the segment: nothing to overlap with.
                // Plain placement; messages stay pending, exactly like a
                // barrier round's output.
                place_all(m, &mut self.outboxes, base, &mut self.scratch);
                self.inboxes.finish_fill();
            } else {
                self.board.reset(self.inboxes.region_lens());
                self.place_and_compute(base, &rounds[k + 1].body);
            }
            let now = Instant::now();
            let wall = now.duration_since(mark).as_secs_f64();
            self.round_wall.push(wall);
            self.finish_host_phase(lead_compute_s, (wall - lead_compute_s).max(0.0));
            lead_compute_s = 0.0;
            mark = now;
        }
    }

    /// The overlapped stage: places every sender's round-`k` messages
    /// into the laid-out regions and runs machine `i`'s round-`k+1`
    /// compute inline the moment the [`ReadinessBoard`] declares region
    /// `i` complete. Returns once every placement *and* every compute has
    /// run (each region reaches zero within some worker's task), so the
    /// caller can lay out round `k+1` immediately after.
    fn place_and_compute(&mut self, base: *mut M, body: &RoundBody<'_, S, M>) {
        let m = self.config.num_machines;
        let buf = SendPtr(base);
        let slots = SendPtr(self.scratch.starts.as_mut_ptr());
        let states = SendPtr(self.states.as_mut_ptr());
        let outboxes = SendPtr(self.outboxes.as_mut_ptr());
        let state_words = SendPtr(self.state_words.as_mut_ptr());
        let spills = SendPtr(self.spills.as_mut_ptr());
        let board = &self.board;
        let region_starts = self.inboxes.region_starts();
        let region_lens = self.inboxes.region_lens();

        // Runs machine `machine`'s next-round compute. Called exactly
        // once per machine (the board's completion is exactly-once), from
        // whichever worker's decrement completed the region.
        let run_compute = |machine: usize| {
            let (start, len) = (region_starts[machine], region_lens[machine]);
            // SAFETY: the board declared region `machine` complete, so
            // every message of the region has been placed and the final
            // acquire-release decrement ordered those writes before this
            // read; the region is read by exactly one compute (drained
            // inboxes stay non-live, so nothing else touches it).
            let inbox = unsafe { Inbox::from_raw(buf.at(start), len) };
            // SAFETY: the sender token is part of the region count, so
            // the outbox's placement drain happened-before; from here
            // until the compute returns, this closure is the slot's only
            // accessor.
            let outbox = unsafe { &mut *outboxes.at(machine) };
            // SAFETY: spill slots are per-machine and only touched by
            // that machine's exactly-once compute; the accounting drain
            // runs on the caller's thread strictly after this parallel
            // stage returns.
            let spill = unsafe { &mut *spills.at(machine) };
            let mut ctx =
                MachineCtx::new(machine, m, std::mem::take(outbox), std::mem::take(spill));
            // SAFETY: state and state-word slots are per-machine and this
            // is machine `machine`'s exactly-once compute.
            let state = unsafe { &mut *states.at(machine) };
            body(&mut ctx, state, inbox);
            // SAFETY: as above — exclusive per-machine slot.
            unsafe { *state_words.at(machine) = state.words() };
            let (ob, sp) = ctx.into_parts();
            *outbox = ob;
            *spill = sp;
        };

        (0..m).into_par_iter().for_each(|from| {
            {
                // SAFETY: until this sender releases its token below, the
                // board cannot hand outbox `from` to a compute, so the
                // shared borrow is exclusive of writers.
                let outbox = unsafe { &*outboxes.at(from) };
                let on_run = |to: usize, len: usize| {
                    if board.deliver(to, len) && !board.is_poisoned(to) {
                        run_compute(to);
                    }
                };
                // SAFETY: `buf`/`slots` come from this round's
                // `layout_flat` over these outboxes; each sender is
                // placed exactly once and senders' slot ranges are
                // disjoint.
                unsafe { place_sender(m, from, outbox, &buf, &slots, on_run) };
            }
            // SAFETY: every message of outbox `from` was moved out by
            // `place_sender` above; the token is still armed, so no
            // compute aliases the arena during the drain.
            unsafe { (*outboxes.at(from)).forget_moved() };
            if board.finish_sender(from) && !board.is_poisoned(from) {
                run_compute(from);
            }
        });
    }
}

/// One pipelined routing step over bare fabric buffers, sequential — the
/// allocation-discipline harness for the pipelined path
/// (`tests/pipeline_properties.rs` drives it under a counting allocator,
/// the way `tests/fabric_properties.rs` drives `route`). Lays out,
/// enforces caps, arms `board`, then places sender by sender, handing
/// each completed region to `on_ready(region, inbox)` exactly once —
/// the board protocol and region handoff of the parallel engine, minus
/// the pool.
#[doc(hidden)]
pub fn pipelined_route_step<M, F>(
    config: &MpcConfig,
    round: usize,
    outboxes: &mut [Outbox<M>],
    inboxes: &mut FlatInboxes<M>,
    scratch: &mut RouteScratch,
    board: &mut ReadinessBoard,
    mut on_ready: F,
) where
    M: Words + Send + Sync,
    F: FnMut(usize, Inbox<'_, M>),
{
    let m = config.num_machines;
    assert_eq!(outboxes.len(), m, "one outbox per machine");
    assert_eq!(inboxes.num_machines(), m, "inboxes sized for the cluster");
    scratch.reset_per_machine(m);
    let base = layout_flat(m, outboxes, inboxes, scratch);
    scratch.record_region_events(inboxes.region_lens());
    cap_check(config, round, scratch);
    board.reset(inboxes.region_lens());
    let board = &*board;
    let buf = SendPtr(base);
    let slots = SendPtr(scratch.starts.as_mut_ptr());
    let region_starts = inboxes.region_starts();
    let region_lens = inboxes.region_lens();
    for from in 0..m {
        {
            let outbox = &outboxes[from];
            let on_run = |to: usize, len: usize| {
                if board.deliver(to, len) {
                    let (start, len) = (region_starts[to], region_lens[to]);
                    // SAFETY: the board declared region `to` complete:
                    // all its messages are placed, and it is handed out
                    // exactly once (regions stay non-live, so nothing
                    // else drains them).
                    let inbox = unsafe { Inbox::from_raw(buf.at(start), len) };
                    on_ready(to, inbox);
                }
            };
            // SAFETY: `buf`/`slots` come from the `layout_flat` above
            // over these outboxes; each sender is placed exactly once.
            unsafe { place_sender(m, from, outbox, &buf, &slots, on_run) };
        }
        // SAFETY: every message of outbox `from` was moved out above.
        unsafe { outboxes[from].forget_moved() };
        if board.finish_sender(from) {
            // SAFETY: as in the delivery hook — complete, exactly-once.
            let inbox = unsafe { Inbox::from_raw(buf.at(region_starts[from]), region_lens[from]) };
            on_ready(from, inbox);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::Words;

    // -- ReadinessBoard protocol ------------------------------------------

    #[test]
    fn board_region_completes_exactly_once() {
        let mut board = ReadinessBoard::new(3);
        board.reset(&[2, 0, 1]);
        // Region 0: two messages then the token.
        assert!(!board.deliver(0, 1));
        assert!(!board.deliver(0, 1));
        assert!(board.finish_sender(0));
        // Region 1: empty — the token alone completes it.
        assert!(board.finish_sender(1));
        // Region 2: token first, then the delivery completes.
        assert!(!board.finish_sender(2));
        assert!(board.deliver(2, 1));
    }

    #[test]
    fn board_self_delivery_cannot_complete_before_token() {
        let mut board = ReadinessBoard::new(1);
        board.reset(&[3]);
        // A sender delivering all its own messages still holds its token.
        assert!(!board.deliver(0, 3));
        assert!(board.finish_sender(0));
    }

    #[test]
    fn board_poison_is_per_region_and_clearable() {
        let mut board = ReadinessBoard::new(3);
        assert!(!board.is_poisoned(0));
        board.poison(1);
        assert!(!board.is_poisoned(0));
        assert!(board.is_poisoned(1));
        assert!(!board.is_poisoned(2));
        // Poison does not interfere with the completion protocol itself.
        board.reset(&[1, 1, 0]);
        assert!(!board.deliver(1, 1));
        assert!(board.finish_sender(1));
        board.clear_poison();
        assert!(!board.is_poisoned(1));
    }

    #[test]
    fn board_rearms_across_rounds() {
        let mut board = ReadinessBoard::new(2);
        for round in 0..3 {
            board.reset(&[1, 0]);
            assert!(!board.deliver(0, 1), "round {round}");
            assert!(board.finish_sender(0), "round {round}");
            assert!(board.finish_sender(1), "round {round}");
        }
    }

    // -- CpTracker cost model ---------------------------------------------

    /// The tracker's cumulative scalars, via the same export the cluster
    /// uses (the appended per-machine row is ignored here).
    fn snapshot(cp: &CpTracker) -> CriticalPath {
        let mut out = CriticalPath::default();
        cp.export_into(&mut out);
        out
    }

    #[test]
    fn skewed_rounds_pipeline_below_barrier() {
        // Round A: 0→1 carries 100 words, 3→2 carries 1. Round B: 2→3
        // carries 100. Machine 2's expensive round-B work depends only on
        // the cheap 3→2 edge, so the pipeline overlaps it with machine
        // 1's expensive round-A receive.
        let mut cp = CpTracker::new(4);
        let mut ob: Vec<Outbox<u64>> = (0..4).map(|_| Outbox::new()).collect();
        for _ in 0..100 {
            ob[0].push(1, 7);
        }
        ob[3].push(2, 7);
        cp.capture_deps(&ob);
        cp.advance(&[100, 0, 0, 1], &[0, 100, 1, 0]);
        let mut ob: Vec<Outbox<u64>> = (0..4).map(|_| Outbox::new()).collect();
        for _ in 0..100 {
            ob[2].push(3, 7);
        }
        cp.capture_deps(&ob);
        cp.advance(&[0, 0, 100, 0], &[0, 0, 0, 100]);
        let s = snapshot(&cp);
        assert_eq!(s.barrier_makespan, 203);
        assert_eq!(s.pipelined_makespan, 202);
        assert!(s.pipelined_makespan < s.barrier_makespan);
        assert!(s.barrier_stall > 0);
    }

    #[test]
    fn balanced_rounds_have_equal_makespans_and_no_stall() {
        // Perfectly balanced all-to-all: every machine costs the same
        // every round, so the barrier loses nothing.
        let m = 4;
        let mut cp = CpTracker::new(m);
        for _ in 0..5 {
            let mut ob: Vec<Outbox<u64>> = (0..m).map(|_| Outbox::new()).collect();
            for (from, outbox) in ob.iter_mut().enumerate() {
                for to in 0..m {
                    let _ = from;
                    outbox.push(to, 1);
                }
            }
            cp.capture_deps(&ob);
            cp.advance(&[4; 4], &[4; 4]);
        }
        let s = snapshot(&cp);
        assert_eq!(s.barrier_makespan, s.pipelined_makespan);
        assert_eq!(s.barrier_stall, 0);
    }

    #[test]
    fn pipelined_never_exceeds_barrier() {
        // Pseudo-random round shapes; the DAG bound must stay below the
        // barrier sum.
        let m = 5;
        let mut cp = CpTracker::new(m);
        let mut sent = [0usize; 5];
        let mut recv = [0usize; 5];
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..20 {
            sent.fill(0);
            recv.fill(0);
            let mut ob: Vec<Outbox<u64>> = (0..m).map(|_| Outbox::new()).collect();
            for (from, outbox) in ob.iter_mut().enumerate() {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let to = (x >> 33) as usize % m;
                let w = (x % 17) as usize;
                for _ in 0..w {
                    outbox.push(to, 7);
                }
                sent[from] += w;
                recv[to] += w;
            }
            cp.capture_deps(&ob);
            cp.advance(&sent, &recv);
            let s = snapshot(&cp);
            assert!(s.pipelined_makespan <= s.barrier_makespan);
        }
    }

    // -- Engine equivalence (full cluster) --------------------------------

    /// Machine state for the equivalence tests: a bag of received values.
    #[derive(Default, Debug, PartialEq)]
    struct Bag(Vec<u64>);

    impl Words for Bag {
        fn words(&self) -> usize {
            self.0.len()
        }
    }

    /// A three-round segment with skewed traffic: accumulate the inbox,
    /// then fan values around a ring with id-dependent burst sizes.
    fn segment_rounds<'a>() -> Vec<SegmentRound<'a, Bag, u64>> {
        let mk = |label, round: u64| {
            SegmentRound::new(
                label,
                move |ctx: &mut MachineCtx<u64>, state: &mut Bag, inbox: Inbox<'_, u64>| {
                    state.0.extend(inbox);
                    let m = ctx.num_machines();
                    let bursts = 1 + (ctx.id + round as usize) % 3;
                    for b in 0..bursts {
                        let dest = (ctx.id + b + 1) % m;
                        ctx.send(dest, (ctx.id as u64) * 1000 + round * 100 + b as u64);
                    }
                },
            )
        };
        vec![mk("seg a", 0), mk("seg b", 1), mk("seg c", 2)]
    }

    fn run_mode(
        scheduler: RoundScheduler,
    ) -> (Vec<Vec<u64>>, crate::ExecutionTrace, Vec<Vec<u64>>) {
        let cfg = MpcConfig::new(5, 10_000).with_scheduler(scheduler);
        let mut c: Cluster<Bag, u64> = Cluster::new(cfg, |_| Bag::default());
        // A plain round before the segment: pipelined segments must
        // compose with barrier rounds on both sides.
        c.round("warm", |ctx, _s, _i| {
            ctx.send((ctx.id + 2) % ctx.num_machines(), ctx.id as u64)
        });
        c.run_segment(segment_rounds());
        let pending = (0..5).map(|i| c.pending(i).to_vec()).collect();
        let (states, trace) = c.finish();
        (states.into_iter().map(|b| b.0).collect(), trace, pending)
    }

    #[test]
    fn pipelined_segment_matches_barrier_bit_for_bit() {
        let (sb, tb, pb) = run_mode(RoundScheduler::Barrier);
        let (sp, tp, pp) = run_mode(RoundScheduler::Pipelined);
        assert_eq!(sb, sp, "states diverged");
        assert_eq!(tb, tp, "traces diverged");
        assert_eq!(pb, pp, "pending inboxes diverged");
    }

    #[test]
    fn run_pipelined_forces_the_pipelined_path() {
        // Even on a Barrier-configured cluster, run_pipelined must
        // produce the identical observable outcome.
        let mk_cluster = || {
            let mut c: Cluster<Bag, u64> =
                Cluster::new(MpcConfig::new(4, 10_000), |_| Bag::default());
            c.round("warm", |ctx, _s, _i| ctx.send(0, ctx.id as u64));
            c
        };
        let mut a = mk_cluster();
        a.run_segment(segment_rounds());
        let mut b = mk_cluster();
        b.run_pipelined(segment_rounds());
        assert_eq!(a.trace(), b.trace());
        for i in 0..4 {
            assert_eq!(a.pending(i), b.pending(i));
        }
    }

    #[test]
    fn empty_segment_is_a_no_op() {
        let mut c: Cluster<Bag, u64> =
            Cluster::new(MpcConfig::new(2, 100).pipelined(), |_| Bag::default());
        c.run_segment(Vec::new());
        assert_eq!(c.trace().num_rounds(), 0);
    }

    #[test]
    fn single_round_segment_matches_plain_round() {
        let body = |ctx: &mut MachineCtx<u64>, _s: &mut Bag, _i: Inbox<'_, u64>| {
            ctx.send((ctx.id + 1) % ctx.num_machines(), 9)
        };
        let mut a: Cluster<Bag, u64> = Cluster::new(MpcConfig::new(3, 100), |_| Bag::default());
        a.round("solo", body);
        let mut b: Cluster<Bag, u64> =
            Cluster::new(MpcConfig::new(3, 100).pipelined(), |_| Bag::default());
        b.run_segment(vec![SegmentRound::new("solo", body)]);
        assert_eq!(a.trace(), b.trace());
        for i in 0..3 {
            assert_eq!(a.pending(i), b.pending(i));
        }
    }

    #[test]
    #[should_panic(expected = "MPC violation")]
    fn pipelined_strict_send_cap_panics_like_barrier() {
        let mut c: Cluster<Bag, u64> =
            Cluster::new(MpcConfig::new(2, 4).pipelined(), |_| Bag::default());
        c.run_segment(vec![
            SegmentRound::new(
                "flood",
                |ctx: &mut MachineCtx<u64>, _s: &mut Bag, _i: Inbox<'_, u64>| {
                    if ctx.id == 0 {
                        for _ in 0..5 {
                            ctx.send(1, 1);
                        }
                    }
                },
            ),
            SegmentRound::new(
                "after",
                |_: &mut MachineCtx<u64>, _: &mut Bag, _: Inbox<'_, u64>| {},
            ),
        ]);
    }

    #[test]
    fn pipelined_audit_records_identical_violations() {
        let run = |scheduler| {
            let cfg = MpcConfig::new(2, 4).audited().with_scheduler(scheduler);
            let mut c: Cluster<Bag, u64> = Cluster::new(cfg, |_| Bag::default());
            c.run_segment(vec![
                SegmentRound::new(
                    "flood",
                    |ctx: &mut MachineCtx<u64>, _s: &mut Bag, _i: Inbox<'_, u64>| {
                        if ctx.id == 0 {
                            for _ in 0..6 {
                                ctx.send(1, 1);
                            }
                        }
                    },
                ),
                SegmentRound::new(
                    "hold",
                    |_: &mut MachineCtx<u64>, state: &mut Bag, inbox: Inbox<'_, u64>| {
                        state.0.extend(inbox);
                    },
                ),
            ]);
            c.finish().1
        };
        let tb = run(RoundScheduler::Barrier);
        let tp = run(RoundScheduler::Pipelined);
        assert!(!tb.violations.is_empty());
        assert_eq!(tb, tp);
    }

    #[test]
    fn round_wall_grows_one_entry_per_round() {
        let mut c: Cluster<Bag, u64> =
            Cluster::new(MpcConfig::new(3, 1000).pipelined(), |_| Bag::default());
        c.round("warm", |_, _, _| {});
        c.run_segment(segment_rounds());
        assert_eq!(c.round_wall().len(), c.trace().num_rounds());
        assert!(c.round_wall().iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn sequential_route_step_hands_every_region_out_once() {
        let m = 3;
        let cfg = MpcConfig::new(m, 1000);
        let mut outboxes: Vec<Outbox<u64>> = (0..m).map(|_| Outbox::new()).collect();
        let mut inboxes = FlatInboxes::new(m);
        let mut scratch = RouteScratch::new();
        let mut board = ReadinessBoard::new(m);
        outboxes[0].push(1, 10);
        outboxes[0].push(1, 11);
        outboxes[2].push(0, 20);
        let mut seen: Vec<(usize, Vec<u64>)> = Vec::new();
        pipelined_route_step(
            &cfg,
            0,
            &mut outboxes,
            &mut inboxes,
            &mut scratch,
            &mut board,
            |region, inbox| seen.push((region, inbox.collect())),
        );
        seen.sort();
        assert_eq!(
            seen,
            vec![(0, vec![20]), (1, vec![10, 11]), (2, vec![])],
            "each region exactly once, canonical contents"
        );
        // Regions were drained by the callbacks: nothing is pending.
        assert_eq!(inboxes.total_messages(), 0);
    }
}
