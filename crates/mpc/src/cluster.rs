//! The cluster: per-machine state, synchronous rounds, parallel local
//! computation.
//!
//! A [`Cluster<S, M>`] owns one state value `S` per machine and the
//! communication fabric's buffers. [`Cluster::round`] runs one synchronous
//! MPC round: every machine's closure executes (in parallel on the host
//! via rayon — the model charges nothing for local computation), emits
//! messages through its [`MachineCtx`], and the router delivers them while
//! enforcing the model's capacity constraints.
//!
//! # Allocation discipline
//!
//! All round buffers — the per-machine [`Outbox`] arenas inside the
//! contexts, the CSR [`FlatInboxes`] the router fills, and the router's
//! [`RouteScratch`] — live in the cluster and are recycled across rounds.
//! A machine reads its inbox through [`Inbox`], a by-value draining view
//! of its slice of the shared flat buffer; nothing is copied and nothing
//! is freed. After a warm-up round at the peak message shape, steady-state
//! rounds perform no inbox/outbox heap allocation
//! (`tests/alloc_pins.rs` pins this with a counting allocator).
//!
//! # Critical-path accounting
//!
//! Every round, each machine is charged a simulated compute cost
//!
//! ```text
//! cost_i(r) = 1 + words received in round r-1 + words sent in round r
//! ```
//!
//! (read your input, write your output, unit base). The barrier makespan
//! sums the per-round maximum. The pipelined makespan is a what-if: the
//! longest path through the (machine, round) dependency DAG, where
//! machine `i`'s round-`r` work depends on its own round-`r-1` work and
//! on the round-`r-1` work of every machine that sent to it — what a
//! machine that started as soon as its inbox was delivered could reach.
//! `CpTracker` derives both from the deterministic word totals and
//! snapshots them into
//! [`ExecutionTrace::critical_path`](crate::ExecutionTrace), so the
//! statistic is identical on every host and at every pool width.

use crate::accounting::{
    CriticalPath, ExecutionTrace, MachineRound, RoundStats, Violation, ViolationKind,
};
use crate::events::EventKind;
use crate::model::{Enforcement, MemoryBudget, MpcConfig};
use crate::router::{route, FlatInboxes, Outbox, RouteScratch};
use crate::spill::SpillFile;
use crate::words::Words;
use rayon::prelude::*;
use std::marker::PhantomData;
use std::time::Instant;

/// A machine's handle for emitting messages during a round. Owns the
/// machine's reusable outbox arena and its spill file for the duration of
/// the round; the cluster reclaims both (retaining capacity and stored
/// spill words) at the end of every round.
pub struct MachineCtx<M> {
    /// This machine's index in `0..num_machines`.
    pub id: usize,
    num_machines: usize,
    outbox: Outbox<M>,
    spill: SpillFile,
}

impl<M> MachineCtx<M> {
    pub(crate) fn new(id: usize, num_machines: usize, outbox: Outbox<M>, spill: SpillFile) -> Self {
        Self {
            id,
            num_machines,
            outbox,
            spill,
        }
    }

    pub(crate) fn into_parts(self) -> (Outbox<M>, SpillFile) {
        (self.outbox, self.spill)
    }

    /// Number of machines in the cluster.
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// This machine's persistent [`SpillFile`]: an append-only word log
    /// that survives across rounds, for working sets that must leave RAM
    /// to respect the resident cap under
    /// [`MemoryBudget::Enforced`](crate::MemoryBudget). Words written
    /// here are charged to [`RoundStats::spill_words`] for the round.
    #[inline]
    pub fn spill(&mut self) -> &mut SpillFile {
        &mut self.spill
    }

    /// Queues `msg` for delivery to machine `to` at the end of the round.
    /// Consecutive sends to the same destination share one run in the
    /// outbox, which keeps the shuffle's tally stage O(destinations) for
    /// grouped senders.
    #[inline]
    pub fn send(&mut self, to: usize, msg: M) {
        assert!(
            to < self.num_machines,
            "machine {} addressed nonexistent machine {to}",
            self.id
        );
        self.outbox.push(to, msg);
    }

    /// Capacity hint: reserves message storage for `n` further sends in
    /// this machine's outbox arena, so a burst of known size never
    /// reallocates its payloads mid-round. (The much smaller run table
    /// grows amortized; both buffers keep their capacity across rounds.)
    #[inline]
    pub fn reserve_sends(&mut self, n: usize) {
        self.outbox.reserve(n);
    }
}

impl<M: Clone> MachineCtx<M> {
    /// Sends a copy of `msg` to every machine (including self). Costs
    /// `num_machines * msg.words()` words of this machine's send budget —
    /// broadcast is not free in MPC. Clones for the first `m - 1`
    /// recipients and moves the original into the last slot; `Copy`
    /// message types need no further fast path (their `clone` is the
    /// same memcpy).
    pub fn broadcast(&mut self, msg: M) {
        let m = self.num_machines;
        self.outbox.reserve(m);
        for to in 0..m - 1 {
            self.outbox.push(to, msg.clone());
        }
        self.outbox.push(m - 1, msg);
    }
}

/// The borrowed form of a round body: one machine's compute closure for
/// one round, shared by the round loop and the recovery engine's replay.
pub(crate) type RoundFn<'f, S, M> =
    dyn for<'a> Fn(&mut MachineCtx<M>, &mut S, Inbox<'a, M>) + Sync + Send + 'f;

/// A by-value draining view of one machine's inbox: iterates the
/// machine's slice of the shared flat buffer, moving each message out.
/// Unconsumed messages are dropped when the view is dropped, so partial
/// reads are safe; the underlying buffer is recycled by the cluster.
pub struct Inbox<'a, M> {
    ptr: *mut M,
    len: usize,
    pos: usize,
    _buf: PhantomData<&'a mut [M]>,
}

// SAFETY: the view exclusively owns its slice's messages (disjoint per
// machine); sending it to the worker running that machine is safe.
unsafe impl<M: Send> Send for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    /// View over `len` messages starting at `ptr`.
    ///
    /// # Safety
    /// The range must hold initialized messages exclusively owned by this
    /// view for `'a` (each message moved out or dropped exactly once).
    pub(crate) unsafe fn from_raw(ptr: *mut M, len: usize) -> Self {
        Inbox {
            ptr,
            len,
            pos: 0,
            _buf: PhantomData,
        }
    }

    /// Messages remaining in the view.
    pub fn len(&self) -> usize {
        self.len - self.pos
    }

    /// Whether the view is exhausted.
    pub fn is_empty(&self) -> bool {
        self.pos == self.len
    }

    /// The undrained remainder, by reference.
    pub fn as_slice(&self) -> &[M] {
        // SAFETY: `pos..len` holds initialized messages owned by the view.
        unsafe { std::slice::from_raw_parts(self.ptr.add(self.pos), self.len - self.pos) }
    }
}

impl<M> Iterator for Inbox<'_, M> {
    type Item = M;

    #[inline]
    fn next(&mut self) -> Option<M> {
        if self.pos == self.len {
            return None;
        }
        // SAFETY: `pos` is advanced past the slot before anything can
        // observe it again, so the message is moved out exactly once.
        let msg = unsafe { self.ptr.add(self.pos).read() };
        self.pos += 1;
        Some(msg)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.len - self.pos;
        (n, Some(n))
    }
}

impl<M> ExactSizeIterator for Inbox<'_, M> {}

impl<M> Drop for Inbox<'_, M> {
    fn drop(&mut self) {
        // Drop any unread tail so ownership is always fully discharged.
        for i in self.pos..self.len {
            // SAFETY: slots `pos..len` are initialized and unread.
            unsafe { self.ptr.add(i).drop_in_place() };
        }
        self.pos = self.len;
    }
}

/// Raw shared pointer for handing disjoint inbox ranges to the parallel
/// round workers.
struct BufPtr<M>(*mut M);
// SAFETY: the wrapper only hands out raw pointers; the round loop gives
// each worker a disjoint machine region.
unsafe impl<M: Send> Send for BufPtr<M> {}
// SAFETY: as above — shared access is to disjoint regions only.
unsafe impl<M: Send> Sync for BufPtr<M> {}

impl<M> BufPtr<M> {
    /// Pointer `index` elements past the base. Going through a method
    /// (not the field) keeps closure captures on the `Sync` wrapper.
    #[inline]
    fn at(&self, index: usize) -> *mut M {
        // SAFETY: callers stay within the buffer's capacity.
        unsafe { self.0.add(index) }
    }
}

/// One round's host wall-clock, split by phase (seconds). Informational:
/// host- and thread-count-dependent, never part of trace equality.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostPhase {
    /// Wall-clock of the round's compute sweep.
    pub compute_s: f64,
    /// Wall-clock of the shuffle (layout + placement).
    pub route_s: f64,
    /// Wall-clock of spill-file I/O performed during the round.
    pub spill_s: f64,
}

/// Critical-path accounting state (see the module docs for the cost
/// model). Advanced once per round; all quantities are integers derived
/// from the deterministic word totals, so the snapshot is bit-identical
/// across hosts and thread counts.
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
    /// from the outbox run tables before the router clears them.
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
    /// outboxes. Must run before routing empties the run tables.
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

/// An MPC cluster executing synchronous rounds over per-machine state `S`
/// and message type `M`.
pub struct Cluster<S, M> {
    pub(crate) config: MpcConfig,
    pub(crate) states: Vec<S>,
    /// Per-machine outbox arenas, recycled each round.
    pub(crate) outboxes: Vec<Outbox<M>>,
    /// Routed messages pending delivery, CSR layout, recycled each round.
    pub(crate) inboxes: FlatInboxes<M>,
    /// Router working memory, recycled each round.
    pub(crate) scratch: RouteScratch,
    /// Per-machine post-computation state footprint, recycled each round.
    pub(crate) state_words: Vec<usize>,
    /// Per-machine spill files, lent to the contexts each round.
    pub(crate) spills: Vec<SpillFile>,
    pub(crate) trace: ExecutionTrace,
    /// Critical-path accounting, advanced once per round.
    pub(crate) cp: CpTracker,
    /// Host wall-clock seconds per executed round — informational (host-
    /// and thread-count-dependent), so deliberately *not* part of the
    /// [`ExecutionTrace`] the determinism suite compares.
    pub(crate) round_wall: Vec<f64>,
    /// Per-round host wall-clock split by phase (compute / route /
    /// spill). Informational, like `round_wall`.
    pub(crate) host_phases: Vec<HostPhase>,
    /// Recovery checkpoint store, created lazily by the first faulted
    /// round (see [`crate::checkpoint`]).
    pub(crate) ckpt: Option<crate::checkpoint::CheckpointStore>,
}

impl<S, M> Cluster<S, M>
where
    S: Send + Words,
    M: Send + Sync + Words,
{
    /// Creates a cluster with `config.num_machines` machines, initializing
    /// machine `i`'s state to `init(i)`.
    pub fn new(config: MpcConfig, mut init: impl FnMut(usize) -> S) -> Self {
        let m = config.num_machines;
        let states: Vec<S> = (0..m).map(&mut init).collect();
        let outboxes = (0..m).map(|_| Outbox::new()).collect();
        let mut spills: Vec<SpillFile> = (0..m).map(|_| SpillFile::new()).collect();
        if config.faults.spill_io_rate > 0.0 {
            let plan = crate::faults::FaultPlan::new(config.faults);
            for (i, spill) in spills.iter_mut().enumerate() {
                spill.arm_faults(plan, i);
            }
        }
        Self {
            config,
            states,
            outboxes,
            inboxes: FlatInboxes::new(m),
            scratch: RouteScratch::new(),
            state_words: vec![0; m],
            spills,
            trace: ExecutionTrace::default(),
            cp: CpTracker::new(m),
            round_wall: Vec::new(),
            host_phases: Vec::new(),
            ckpt: None,
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.config
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.config.num_machines
    }

    /// Immutable view of machine `i`'s state.
    pub fn state(&self, i: usize) -> &S {
        &self.states[i]
    }

    /// All machine states.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The execution trace so far.
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// Consumes the cluster, returning machine states and the trace.
    pub fn finish(self) -> (Vec<S>, ExecutionTrace) {
        (self.states, self.trace)
    }

    /// Executes one synchronous round.
    ///
    /// For every machine, `f(ctx, state, inbox)` runs with the messages
    /// delivered at the end of the previous round (an [`Inbox`] draining
    /// view — iterate it to take messages by value). Messages sent through
    /// `ctx` are routed afterwards under the model's capacity constraints,
    /// and a [`RoundStats`] entry labeled `label` is appended to the trace.
    pub fn round<F>(&mut self, label: &str, f: F)
    where
        F: for<'a> Fn(&mut MachineCtx<M>, &mut S, Inbox<'a, M>) + Sync + Send,
    {
        let round_index = self.trace.rounds.len();
        let started = Instant::now();

        self.compute_all(&f);
        let compute_s = started.elapsed().as_secs_f64();

        // Dependency capture must precede routing: the router empties the
        // outboxes' run tables while delivering.
        self.cp.capture_deps(&self.outboxes);

        // Communication: the only thing the model restricts.
        let route_mark = Instant::now();
        route(
            &self.config,
            round_index,
            &mut self.outboxes,
            &mut self.inboxes,
            &mut self.scratch,
        );
        let route_s = route_mark.elapsed().as_secs_f64();

        self.bookkeep_round(label, round_index, compute_s, route_s);
        self.round_wall.push(started.elapsed().as_secs_f64());
    }

    /// The local-computation half of a round: every machine drains its
    /// disjoint slice of the shared inbox buffer, refills its own outbox
    /// arena, and reports its post-computation state footprint (so the
    /// resident check needs no second scan). Free in the model, parallel
    /// on the host, no per-round allocation. `f` is the borrowed form of
    /// a round body ([`RoundFn`]).
    pub(crate) fn compute_all(&mut self, f: &RoundFn<'_, S, M>) {
        let m = self.config.num_machines;
        let base = BufPtr(self.inboxes.begin_drain());
        let starts = self.inboxes.region_starts();
        let lens = self.inboxes.region_lens();
        self.states
            .par_iter_mut()
            .zip(self.outboxes.par_iter_mut())
            .zip(self.state_words.par_iter_mut())
            .zip(self.spills.par_iter_mut())
            .enumerate()
            .for_each(|(id, (((state, outbox), words), spill))| {
                // SAFETY: machine regions are disjoint by the layout
                // tables; the drained buffer outlives this scope and
                // each message is owned by exactly one view.
                let inbox = unsafe { Inbox::from_raw(base.at(starts[id]), lens[id]) };
                // The context temporarily owns this machine's arena and
                // spill file; all moves are pointer swaps, not
                // allocations.
                let mut ctx = MachineCtx::new(id, m, std::mem::take(outbox), std::mem::take(spill));
                f(&mut ctx, state, inbox);
                *words = state.words();
                let (ob, sp) = ctx.into_parts();
                *outbox = ob;
                *spill = sp;
            });
    }

    /// The accounting half of a round, run once the router has finalized
    /// the word totals: the resident-memory check, the [`RoundStats`]
    /// entry, the violation handoff into the trace, the critical-path
    /// advance, and the round's [`HostPhase`] row.
    pub(crate) fn bookkeep_round(
        &mut self,
        label: &str,
        round_index: usize,
        compute_s: f64,
        route_s: f64,
    ) {
        // Resident memory check: state + freshly delivered inbox. The
        // inbox footprint equals the words received this round, which the
        // router already measured.
        let cap = self.config.memory_words;
        let mut max_resident = 0usize;
        let residents = self
            .state_words
            .iter()
            .zip(&self.scratch.received_words)
            .map(|(&s, &r)| s + r);
        let mut violations: Vec<Violation> = std::mem::take(&mut self.scratch.violations);
        for (machine, resident) in residents.enumerate() {
            max_resident = max_resident.max(resident);
            if resident > cap {
                // Under an enforced budget the cap is not negotiable:
                // a machine holding more than `S` words should have moved
                // the excess to its spill file, and no enforcement policy
                // downgrades that to a recorded violation.
                if self.config.budget == MemoryBudget::Enforced {
                    panic!(
                        "MPC budget violation: machine {machine} holds {resident} words > cap \
                         {cap} after round {round_index} ({label}); under \
                         MemoryBudget::Enforced the machine must spill the excess instead"
                    );
                }
                let v = Violation {
                    round: round_index,
                    machine,
                    kind: ViolationKind::ResidentExceedsMemory,
                    words: resident,
                    cap,
                };
                match self.config.enforcement {
                    Enforcement::Strict => panic!(
                        "MPC violation: machine {machine} holds {resident} words > cap {cap} \
                         after round {round_index} ({label})"
                    ),
                    Enforcement::Audit => violations.push(v),
                }
            }
        }

        // Per-machine spill accounting: the round's spilled words go into
        // each machine's event ring (deterministic plane) and the host
        // seconds the spill files measured go into the round's host
        // phase (informational plane).
        let mut spill_words = 0u64;
        let mut spill_s = 0f64;
        let mut retries = 0u64;
        for (spill, ring) in self.spills.iter_mut().zip(&mut self.scratch.rings) {
            let w = spill.take_round_words();
            ring.record(EventKind::SpillWords, w);
            spill_words += w;
            spill_s += spill.take_round_secs();
            // Injected-fault retries (zero without injection, so the
            // fault-free event stream is unchanged).
            let r = spill.take_round_retries();
            if r > 0 {
                ring.record(EventKind::RetryCount, r);
                retries += r;
            }
        }
        self.trace.faults.retries += retries;
        let total_traffic = self.scratch.sent_words.iter().sum();
        self.trace.rounds.push(RoundStats {
            label: label.to_string(),
            max_sent: self.scratch.sent_words.iter().copied().max().unwrap_or(0),
            max_received: self
                .scratch
                .received_words
                .iter()
                .copied()
                .max()
                .unwrap_or(0),
            max_resident,
            total_traffic,
            spill_words,
        });
        self.trace.violations.append(&mut violations);
        // Give the (now empty) violation buffer back for reuse.
        self.scratch.violations = violations;

        self.cp
            .advance(&self.scratch.sent_words, &self.scratch.received_words);
        self.cp.export_into(&mut self.trace.critical_path);

        // Finish every machine's event row for the round — send volume
        // and barrier stall, now that the critical-path advance fixed the
        // round maximum — then drain the rings into the trace.
        let latest = self.cp.latest();
        for (i, ring) in self.scratch.rings.iter_mut().enumerate() {
            ring.record(EventKind::SentWords, self.scratch.sent_words[i] as u64);
            ring.record(EventKind::StallWords, latest[i].stall_words);
            ring.drain_into(&mut self.trace.events, round_index as u32, i as u32);
        }
        self.host_phases.push(HostPhase {
            compute_s,
            route_s,
            spill_s,
        });
    }

    /// Host wall-clock seconds per executed round, in round order.
    /// Informational only: host- and thread-count-dependent, never part
    /// of the deterministic [`ExecutionTrace`].
    pub fn round_wall(&self) -> &[f64] {
        &self.round_wall
    }

    /// Per-round host wall-clock split by phase (compute / route /
    /// spill), in round order. Informational, like [`Self::round_wall`].
    pub fn host_phases(&self) -> &[HostPhase] {
        &self.host_phases
    }

    /// Messages currently pending delivery to machine `i` (sent in the
    /// last round, visible to the next). Primarily for tests.
    pub fn pending(&self, i: usize) -> &[M] {
        self.inboxes.slice(i)
    }

    /// Base pointer of the shared inbox buffer — stable across
    /// steady-state rounds (buffer-identity probe for the allocation
    /// tests).
    #[doc(hidden)]
    pub fn inbox_buffer_ptr(&self) -> *const M {
        self.inboxes.buffer_ptr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Machine state: a bag of numbers.
    #[derive(Default)]
    struct Bag(Vec<u64>);

    impl Words for Bag {
        fn words(&self) -> usize {
            self.0.len()
        }
    }

    fn cluster(m: usize, s: usize) -> Cluster<Bag, u64> {
        Cluster::new(MpcConfig::new(m, s), |_| Bag::default())
    }

    #[test]
    fn ring_pass() {
        let mut c = cluster(4, 100);
        // Round 1: each machine sends its id to the next.
        c.round("send", |ctx, _state, _inbox| {
            let next = (ctx.id + 1) % ctx.num_machines();
            ctx.send(next, ctx.id as u64);
        });
        // Round 2: each machine stores what it received.
        c.round("store", |ctx, state, inbox| {
            assert_eq!(inbox.len(), 1);
            assert_eq!(inbox.as_slice()[0], ((ctx.id + 3) % 4) as u64);
            state.0.extend(inbox);
        });
        assert_eq!(c.trace().num_rounds(), 2);
        assert_eq!(c.state(0).0, vec![3]);
        assert_eq!(c.trace().rounds[0].total_traffic, 4);
        assert_eq!(c.trace().rounds[1].total_traffic, 0);
    }

    #[test]
    fn broadcast_counts_full_cost() {
        let mut c = cluster(5, 100);
        c.round("bcast", |ctx, _s, _i| {
            if ctx.id == 0 {
                ctx.broadcast(7u64);
            }
        });
        assert_eq!(c.trace().rounds[0].max_sent, 5);
        assert_eq!(c.trace().rounds[0].max_received, 1);
        for i in 0..5 {
            assert_eq!(c.pending(i), &[7u64]);
        }
    }

    #[test]
    fn broadcast_reaches_every_machine_in_order() {
        // The last recipient gets the moved original; the delivered value
        // must be indistinguishable from the clones.
        let mut c: Cluster<Bag, Vec<u64>> =
            Cluster::new(MpcConfig::new(3, 100), |_| Bag::default());
        c.round("bcast", |ctx, _s, _i| {
            if ctx.id == 1 {
                ctx.broadcast(vec![1, 2, 3]);
            }
        });
        for i in 0..3 {
            assert_eq!(c.pending(i), &[vec![1, 2, 3]]);
        }
        assert_eq!(c.trace().rounds[0].max_sent, 9);
    }

    #[test]
    fn resident_memory_is_state_plus_inbox() {
        let mut c = cluster(2, 100);
        c.round("fill", |ctx, state, _| {
            state.0 = vec![1; 10]; // 10 resident words
            ctx.send(1 - ctx.id, 9u64);
        });
        assert_eq!(c.trace().rounds[0].max_resident, 11);
    }

    #[test]
    #[should_panic(expected = "MPC violation")]
    fn strict_resident_cap_panics() {
        let mut c = cluster(1, 5);
        c.round("overflow", |_ctx, state, _| {
            state.0 = vec![0; 6];
        });
    }

    #[test]
    #[should_panic(expected = "MPC budget violation")]
    fn enforced_budget_panics_even_in_audit_mode() {
        let cfg = MpcConfig::new(1, 5)
            .audited()
            .with_budget(MemoryBudget::Enforced);
        let mut c: Cluster<Bag, u64> = Cluster::new(cfg, |_| Bag::default());
        c.round("overflow", |_ctx, state, _| {
            state.0 = vec![0; 6];
        });
    }

    #[test]
    fn spilled_words_are_charged_to_the_round() {
        let mut c = cluster(2, 100);
        c.round("spill", |ctx, _state, _| {
            if ctx.id == 1 {
                ctx.spill().write_words(&[1, 2, 3]).unwrap();
            }
        });
        c.round("quiet", |_ctx, _state, _| {});
        assert_eq!(c.trace().rounds[0].spill_words, 3);
        assert_eq!(c.trace().rounds[1].spill_words, 0);
        assert_eq!(c.trace().total_spill(), 3);
    }

    #[test]
    fn spill_files_persist_across_rounds() {
        let mut c = cluster(2, 100);
        c.round("write", |ctx, _state, _| {
            if ctx.id == 0 {
                ctx.spill().write_words(&[10, 20]).unwrap();
            }
        });
        c.round("read back", |ctx, state, _| {
            if ctx.id == 0 {
                let mut buf = [0u64; 4];
                ctx.spill().rewind();
                assert_eq!(ctx.spill().read_words(&mut buf).unwrap(), 2);
                state.0.extend_from_slice(&buf[..2]);
            }
        });
        assert_eq!(c.state(0).0, vec![10, 20]);
    }

    #[test]
    fn audit_mode_records_resident_violation() {
        let mut c: Cluster<Bag, u64> =
            Cluster::new(MpcConfig::new(1, 5).audited(), |_| Bag::default());
        c.round("overflow", |_ctx, state, _| {
            state.0 = vec![0; 8];
        });
        assert_eq!(c.trace().violations.len(), 1);
        assert_eq!(
            c.trace().violations[0].kind,
            ViolationKind::ResidentExceedsMemory
        );
        assert_eq!(c.trace().violations[0].words, 8);
    }

    #[test]
    fn undelivered_messages_carry_one_round_only() {
        let mut c = cluster(2, 10);
        c.round("send", |ctx, _s, _i| {
            if ctx.id == 0 {
                ctx.send(1, 42u64);
            }
        });
        c.round("consume", |ctx, state, inbox| {
            if ctx.id == 1 {
                assert_eq!(inbox.as_slice(), &[42]);
                state.0.extend(inbox);
            } else {
                assert!(inbox.is_empty());
            }
        });
        c.round("empty", |_ctx, _s, inbox| {
            assert!(inbox.is_empty(), "messages must not be redelivered");
        });
    }

    #[test]
    fn unread_inbox_messages_are_dropped_not_redelivered() {
        // A machine that ignores its inbox entirely must not leak or
        // redeliver; the drop runs inside the round.
        let mut c: Cluster<Bag, Vec<u64>> =
            Cluster::new(MpcConfig::new(2, 100), |_| Bag::default());
        c.round("send", |ctx, _s, _i| {
            if ctx.id == 0 {
                ctx.send(1, vec![7; 5]);
            }
        });
        c.round("ignore", |_ctx, _s, _inbox| { /* drop unread */ });
        c.round("check", |_ctx, _s, inbox| assert!(inbox.is_empty()));
    }

    #[test]
    fn parallel_execution_is_deterministic() {
        let run = || {
            let mut c = cluster(8, 1000);
            for r in 0..5 {
                c.round("mix", move |ctx, state, inbox| {
                    state.0.extend(inbox);
                    let dest = (ctx.id * 7 + r + 1) % ctx.num_machines();
                    ctx.send(dest, (ctx.id * 100 + r) as u64);
                });
            }
            let (states, trace) = c.finish();
            (states.into_iter().map(|b| b.0).collect::<Vec<_>>(), trace)
        };
        let (s1, t1) = run();
        let (s2, t2) = run();
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn reserve_sends_accepts_hints() {
        let mut c = cluster(3, 100);
        c.round("hinted", |ctx, _s, _i| {
            ctx.reserve_sends(2);
            ctx.send(0, 1u64);
            ctx.send(2, 2u64);
        });
        assert_eq!(c.pending(0).len(), 3);
        assert_eq!(c.pending(2).len(), 3);
    }

    #[test]
    fn finish_returns_states_and_trace() {
        let mut c = cluster(3, 10);
        c.round("noop", |_, _, _| {});
        let (states, trace) = c.finish();
        assert_eq!(states.len(), 3);
        assert_eq!(trace.num_rounds(), 1);
    }

    #[test]
    fn round_wall_grows_one_entry_per_round() {
        let mut c = cluster(3, 1000);
        c.round("warm", |_, _, _| {});
        for r in 0..3 {
            c.round("skewed", move |ctx, state, inbox| {
                state.0.extend(inbox);
                for b in 0..1 + (ctx.id + r) % 3 {
                    ctx.send((ctx.id + b + 1) % ctx.num_machines(), b as u64);
                }
            });
        }
        assert_eq!(c.round_wall().len(), c.trace().num_rounds());
        assert_eq!(c.host_phases().len(), c.trace().num_rounds());
        assert!(c.round_wall().iter().all(|&t| t >= 0.0));
    }

    // -- CpTracker cost model ----------------------------------------------

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
        // the cheap 3→2 edge, so the DAG overlaps it with machine 1's
        // expensive round-A receive.
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
            for outbox in ob.iter_mut() {
                for to in 0..m {
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
}
