//! The all-to-all communication fabric of a round.
//!
//! In the MPC model the network graph is complete: any machine may address
//! any other. The only restriction is capacity — per round, no machine may
//! send or receive more words than its memory `S` (the paper's Section
//! 1.1). The router measures both sides, delivers, and reports.
//!
//! # Zero-allocation layout
//!
//! The fabric is built from three buffer types that the [`crate::Cluster`]
//! owns and recycles across rounds, so a steady-state round performs no
//! inbox/outbox heap allocation once the buffers have warmed up:
//!
//! * [`Outbox<M>`] — a sender's staged messages: one contiguous `Vec<M>`
//!   in emission order plus a run-length encoding of destinations
//!   ([`Run`]). Senders that emit consecutive messages to the same
//!   destination (the common case in the executors' fan-out rounds) cost
//!   one run entry per destination burst, which makes the shuffle's tally
//!   stage O(runs) instead of O(messages) for counting.
//! * [`FlatInboxes<M>`] — the routed result in staggered-CSR form: one
//!   shared message buffer holding each destination's messages
//!   contiguously, with region starts staggered by a few cache lines
//!   (see the type docs for why). Per-destination inboxes are `&[M]`
//!   slices of the buffer; during the next round each machine drains its
//!   slice by value through [`crate::cluster::Inbox`] without copying.
//! * [`RouteScratch`] — the shuffle's working memory (per-machine word
//!   totals, the flat `m*m` tally/start tables of the parallel path, and
//!   the violation list), cleared and reused every round.
//!
//! # Parallel shuffle
//!
//! Delivery is a destination shuffle, executed host-parallel in three
//! deterministic stages when the round is large enough to pay for it:
//!
//! 1. **tally** (parallel over senders): per-sender word totals plus
//!    per-(sender, destination) message/word counts, written into flat
//!    `m*m` row-major tables (each sender owns one disjoint row),
//! 2. **layout** (sequential): one row-major prefix-sum pass turns the
//!    count table into a start-slot table — `starts[from][to]` is the
//!    absolute buffer index of sender `from`'s first message to `to`,
//!    reproducing the canonical sender-then-emission order,
//! 3. **place** (parallel over senders): each sender block-copies its
//!    runs into its preassigned disjoint slot ranges.
//!
//! The slot layout reproduces the canonical sender-then-emission order
//! exactly, so the routed inboxes — and therefore everything downstream —
//! are bit-identical to the sequential path at any thread count, and to
//! the pre-flat [`reference_shuffle`] retained as the test/bench oracle.

use crate::accounting::{Violation, ViolationKind};
use crate::events::{EventKind, EventRing, TraceEvent};
use crate::model::{Enforcement, MpcConfig};
use crate::words::Words;
use rayon::prelude::*;

/// Below this total message count the sequential path wins; the parallel
/// path produces identical output, so the cutover is invisible.
pub const PARALLEL_SHUFFLE_MIN_MSGS: usize = 4096;

/// The parallel path also pays an O(m²) layout stage (its flat
/// tally/start tables), so it additionally requires the message count to
/// amortize that: `total_msgs * PARALLEL_SHUFFLE_MSGS_PER_MM >= m * m`.
/// The sequential counting sort is O(messages + runs + m) and wins
/// otherwise. Output is bit-identical on both paths.
pub const PARALLEL_SHUFFLE_MSGS_PER_MM: usize = 4;

/// Whether [`route`] takes the host-parallel shuffle for a round of
/// `total_msgs` messages across `m` machines: the round must be big
/// enough to pay for the parallel tally ([`PARALLEL_SHUFFLE_MIN_MSGS`]),
/// big enough relative to `m²` to pay for the flat layout tables, and the
/// host pool must actually be parallel (on a single-thread pool the
/// staging overhead can never win).
fn use_parallel_shuffle(m: usize, total_msgs: usize) -> bool {
    total_msgs >= PARALLEL_SHUFFLE_MIN_MSGS
        && total_msgs.saturating_mul(PARALLEL_SHUFFLE_MSGS_PER_MM) >= m.saturating_mul(m)
        && rayon::current_num_threads() > 1
}

/// A burst of consecutive messages to one destination inside an
/// [`Outbox`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Destination machine.
    pub to: u32,
    /// Number of consecutive messages of this run.
    pub len: u32,
}

/// A sender's staged messages for one round: contiguous payloads in
/// emission order plus run-length-encoded destinations. Cleared (capacity
/// retained) by the router after delivery.
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Vec<M>,
    runs: Vec<Run>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Outbox<M> {
    /// An empty outbox (no allocation until the first send).
    pub fn new() -> Self {
        Outbox {
            msgs: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Stages `msg` for delivery to machine `to`, extending the current
    /// destination run when possible.
    #[inline]
    pub fn push(&mut self, to: usize, msg: M) {
        let to = u32::try_from(to).expect("machine index fits u32");
        match self.runs.last_mut() {
            Some(run) if run.to == to && run.len < u32::MAX => run.len += 1,
            _ => self.runs.push(Run { to, len: 1 }),
        }
        self.msgs.push(msg);
    }

    /// Reserves capacity for `additional` further messages.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.msgs.reserve(additional);
    }

    /// Number of staged messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether no messages are staged.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Destination runs (testing/benchmarks).
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Staged messages in emission order (testing/benchmarks).
    pub fn messages(&self) -> &[M] {
        &self.msgs
    }

    /// Forgets all staged messages *without dropping them* — for use after
    /// every payload has been moved out by `ptr::read`/`ptr::copy`.
    /// Retains both buffers' capacity.
    ///
    /// # Safety
    /// All `msgs` must have been moved out (ownership transferred) since
    /// the last time the outbox was filled.
    pub(crate) unsafe fn forget_moved(&mut self) {
        // SAFETY: the caller moved every element out, so truncating the
        // length to 0 merely stops the Vec from double-dropping them.
        unsafe { self.msgs.set_len(0) };
        self.runs.clear();
    }
}

/// The routed messages of one round in staggered-CSR form: one shared
/// buffer holds each destination's messages contiguously (in canonical
/// sender-then-emission order), with region starts staggered by a few
/// cache lines so that balanced rounds — whose regions would otherwise
/// sit exactly `total/m` apart — cannot alias the placing cursors onto
/// the same few L1 sets. The backing `Vec` is used as raw capacity (its
/// length stays 0); `starts`/`lens` describe the live regions, padding
/// holes are never read or written, and drops are managed explicitly.
#[derive(Debug)]
pub struct FlatInboxes<M> {
    buf: Vec<M>,
    /// Start slot of machine `i`'s region.
    starts: Vec<usize>,
    /// Messages in machine `i`'s region.
    lens: Vec<usize>,
    /// Whether the regions currently hold live (initialized) messages.
    live: bool,
}

/// Region starts are staggered over this many distinct step positions.
const REGION_STAGGER: usize = 8;

/// The stagger step in message slots — a ~256-byte stride, clamped to
/// 2..=32 slots (so sub-8-byte payloads get a proportionally smaller
/// stride; every message type this workspace routes is 8–24 bytes).
/// Consecutive regions start `0 .. 7 * step` slots past their packed
/// position, spreading the `m` placing cursors of a balanced round
/// across distinct cache sets instead of letting them alias on a
/// power-of-two stride.
const fn stagger_step<M>() -> usize {
    let k = match 256usize.checked_div(std::mem::size_of::<M>()) {
        Some(k) => k,
        None => 2, // zero-sized messages: any step works
    };
    if k < 2 {
        2
    } else if k > 32 {
        32
    } else {
        k
    }
}

impl<M> FlatInboxes<M> {
    /// Empty inboxes for `m` machines.
    pub fn new(m: usize) -> Self {
        FlatInboxes {
            buf: Vec::new(),
            starts: vec![0; m],
            lens: vec![0; m],
            live: false,
        }
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.starts.len()
    }

    /// Machine `i`'s inbox, in canonical sender-then-emission order.
    pub fn slice(&self, i: usize) -> &[M] {
        if !self.live {
            return &[];
        }
        // SAFETY: while `live`, region `i` holds `lens[i]` initialized
        // messages within the buffer's capacity.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr().add(self.starts[i]), self.lens[i]) }
    }

    /// Total routed messages.
    pub fn total_messages(&self) -> usize {
        if self.live {
            self.lens.iter().sum()
        } else {
            0
        }
    }

    /// Per-machine region start slots.
    pub(crate) fn region_starts(&self) -> &[usize] {
        &self.starts
    }

    /// Per-machine region message counts.
    pub(crate) fn region_lens(&self) -> &[usize] {
        &self.lens
    }

    /// Base pointer of the message buffer — stable across rounds once the
    /// buffer has grown to its steady-state capacity (the buffer-identity
    /// signal the allocation-discipline tests pin).
    pub fn buffer_ptr(&self) -> *const M {
        self.buf.as_ptr()
    }

    /// Drops all pending messages, keeping every buffer's capacity — the
    /// discard counterpart of the cluster's per-round drain.
    pub fn clear(&mut self) {
        if self.live {
            self.live = false;
            if std::mem::needs_drop::<M>() {
                for i in 0..self.starts.len() {
                    let (start, len) = (self.starts[i], self.lens[i]);
                    // SAFETY: the region held initialized messages and
                    // `live` is already false, so nothing double-drops.
                    unsafe {
                        std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
                            self.buf.as_mut_ptr().add(start),
                            len,
                        ));
                    }
                }
            }
        }
    }

    /// Logically empties the regions without dropping their messages,
    /// returning the base pointer; callers take over ownership of the
    /// `region_starts()`/`region_lens()`-described ranges (the cluster's
    /// per-machine draining views). Capacity is retained.
    pub(crate) fn begin_drain(&mut self) -> *mut M {
        // Ownership of all initialized elements transfers to the caller,
        // which drops or moves each exactly once.
        self.live = false;
        self.buf.as_mut_ptr()
    }

    /// Computes the staggered region layout for `recv_msgs` messages per
    /// machine, reserves capacity, and returns the base pointer for the
    /// placing stage. The inboxes must be logically empty; the caller
    /// must initialize every slot of every region before `finish_fill`.
    fn begin_fill(&mut self, recv_msgs: &[usize]) -> *mut M {
        debug_assert!(!self.live, "inboxes drained before routing");
        let step = stagger_step::<M>();
        let mut cursor = 0usize;
        for (i, &n) in recv_msgs.iter().enumerate() {
            self.starts[i] = cursor + (i % REGION_STAGGER) * step;
            self.lens[i] = n;
            cursor = self.starts[i] + n;
        }
        self.buf.reserve(cursor);
        self.buf.as_mut_ptr()
    }

    /// Marks the regions laid out by `begin_fill` as live.
    pub(crate) fn finish_fill(&mut self) {
        self.live = true;
    }
}

impl<M> Drop for FlatInboxes<M> {
    fn drop(&mut self) {
        self.clear();
    }
}

/// Reusable working memory of [`route`]: word totals, the parallel
/// shuffle's flat tally/start tables, and the violation list. One
/// instance lives in the [`crate::Cluster`] and is recycled every round.
#[derive(Debug, Default)]
pub struct RouteScratch {
    /// Words sent per machine (valid after [`route`]).
    pub sent_words: Vec<usize>,
    /// Words received per machine (valid after [`route`]).
    pub received_words: Vec<usize>,
    /// Messages received per machine.
    pub(crate) recv_msgs: Vec<usize>,
    /// Flat `m*m` row-major per-(sender, destination) message counts
    /// (parallel path only).
    counts: Vec<u32>,
    /// Flat `m*m` row-major per-(sender, destination) word counts
    /// (parallel path only).
    words: Vec<usize>,
    /// Flat `m*m` row-major start slots (parallel path); doubles as the
    /// sequential path's per-destination cursor array (first `m`
    /// entries).
    pub(crate) starts: Vec<usize>,
    /// Capacity breaches of the last routed round (audit mode).
    pub violations: Vec<Violation>,
    /// Per-machine instrumentation rings: fixed-capacity, recycled every
    /// round like every other buffer here, so recording model-domain
    /// events on the hot path never allocates. The cluster's bookkeeping
    /// drains them into the trace once per round.
    pub(crate) rings: Vec<EventRing>,
}

impl RouteScratch {
    /// Scratch sized lazily by the first [`route`] call.
    pub fn new() -> Self {
        Self::default()
    }

    /// (Re)sizes the per-machine vectors and clears totals. The event
    /// rings are only (re)sized, never cleared: they may hold events
    /// recorded since the last bookkeeping drain.
    pub(crate) fn reset_per_machine(&mut self, m: usize) {
        self.sent_words.clear();
        self.sent_words.resize(m, 0);
        self.received_words.clear();
        self.received_words.resize(m, 0);
        self.recv_msgs.clear();
        self.recv_msgs.resize(m, 0);
        self.violations.clear();
        if self.rings.len() < m {
            self.rings.resize_with(m, EventRing::new);
        }
    }

    /// Records the per-machine region shape of a freshly laid-out round
    /// — [`EventKind::RegionMsgs`] and [`EventKind::RegionWords`] — into
    /// the event rings. Called once per round, after the layout has
    /// finalized `received_words` and the region lengths, on both fabric
    /// paths and both schedulers (identical values, identical order).
    pub(crate) fn record_region_events(&mut self, region_lens: &[usize]) {
        let received = &self.received_words;
        for (i, ring) in self.rings.iter_mut().enumerate() {
            ring.record(EventKind::RegionMsgs, region_lens[i] as u64);
            ring.record(EventKind::RegionWords, received[i] as u64);
        }
    }

    /// Drains every machine's event ring into `out` tagged with `round`
    /// (machine order, recording order within a machine). The cluster's
    /// bookkeeping step interleaves its own recordings before draining;
    /// this is the standalone form for tests and bare-fabric drivers.
    pub fn drain_events_into(&mut self, out: &mut Vec<TraceEvent>, round: u32) {
        for (machine, ring) in self.rings.iter_mut().enumerate() {
            ring.drain_into(out, round, machine as u32);
        }
    }

    /// (Re)sizes and zeroes the flat `m*m` tables of the parallel path.
    fn reset_tables(&mut self, m: usize) {
        let mm = m * m;
        self.counts.clear();
        self.counts.resize(mm, 0);
        self.words.clear();
        self.words.resize(mm, 0);
        self.starts.clear();
        self.starts.resize(mm, 0);
    }
}

/// Raw base pointer shared across the placing workers; senders write
/// disjoint slot ranges. Also used by the pipelined scheduler
/// ([`crate::pipeline`]) for its region/outbox handoffs, whose
/// disjointness is guaranteed by the readiness protocol there.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);
// SAFETY: the wrapper only hands out raw pointers; the shuffle stages
// guarantee every worker writes a disjoint slot range.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — shared access is to disjoint ranges only.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    #[inline]
    pub(crate) fn at(&self, index: usize) -> *mut T {
        // SAFETY: callers stay within the reserved capacity.
        unsafe { self.0.add(index) }
    }
}

/// Routes every staged [`Outbox`] into `inboxes` (destination-major CSR,
/// canonical sender-then-emission order per destination), enforcing the
/// send/receive caps. Word totals land in `scratch.sent_words` /
/// `scratch.received_words`, breaches in `scratch.violations` (audit
/// mode; strict mode panics). Outboxes are emptied with their capacity
/// retained; `inboxes` must be logically empty (drained or fresh).
pub fn route<M: Words + Send + Sync>(
    config: &MpcConfig,
    round: usize,
    outboxes: &mut [Outbox<M>],
    inboxes: &mut FlatInboxes<M>,
    scratch: &mut RouteScratch,
) {
    let m = config.num_machines;
    let total_msgs: usize = outboxes.iter().map(Outbox::len).sum();
    route_forced(
        config,
        round,
        outboxes,
        inboxes,
        scratch,
        use_parallel_shuffle(m, total_msgs),
    );
}

/// [`route`] with the shuffle path pinned — for tests and property
/// oracles that must exercise the parallel stages regardless of host
/// thread count. Both paths produce bit-identical output.
#[doc(hidden)]
pub fn route_forced<M: Words + Send + Sync>(
    config: &MpcConfig,
    round: usize,
    outboxes: &mut [Outbox<M>],
    inboxes: &mut FlatInboxes<M>,
    scratch: &mut RouteScratch,
    parallel: bool,
) {
    let m = config.num_machines;
    assert_eq!(outboxes.len(), m, "one outbox per machine");
    assert_eq!(inboxes.num_machines(), m, "inboxes sized for the cluster");
    debug_assert!(!inboxes.live, "inboxes drained before routing");
    scratch.reset_per_machine(m);

    if parallel {
        shuffle_parallel(m, outboxes, inboxes, scratch);
    } else {
        shuffle_sequential(m, outboxes, inboxes, scratch);
    }

    scratch.record_region_events(inboxes.region_lens());
    cap_check(config, round, scratch);
}

/// The send/receive cap enforcement over a routed round's word totals —
/// per machine in index order, send side before receive side, so the
/// recorded violation order is identical whichever shuffle (or the
/// pipelined scheduler, which runs this before placement — the totals
/// are already final after layout) produced the totals.
pub(crate) fn cap_check(config: &MpcConfig, round: usize, scratch: &mut RouteScratch) {
    let m = config.num_machines;
    let cap = config.memory_words;
    for machine in 0..m {
        let sent = scratch.sent_words[machine];
        if sent > cap {
            let v = Violation {
                round,
                machine,
                kind: ViolationKind::SentExceedsMemory,
                words: sent,
                cap,
            };
            match config.enforcement {
                Enforcement::Strict => panic!(
                    "MPC violation: machine {machine} sent {sent} words > cap {cap} in round {round}"
                ),
                Enforcement::Audit => scratch.violations.push(v),
            }
        }
        let received = scratch.received_words[machine];
        if received > cap {
            let v = Violation {
                round,
                machine,
                kind: ViolationKind::ReceivedExceedsMemory,
                words: received,
                cap,
            };
            match config.enforcement {
                Enforcement::Strict => panic!(
                    "MPC violation: machine {machine} received {received} words > cap {cap} in round {round}"
                ),
                Enforcement::Audit => scratch.violations.push(v),
            }
        }
    }
}

/// Sequential counting-sort shuffle: one tally pass over the runs, the
/// staggered region layout, one placing pass that block-copies each run
/// at its destination's cursor (the stagger keeps the cursors off each
/// other's cache sets in balanced rounds). O(messages + runs + m), no
/// allocation at steady state.
fn shuffle_sequential<M: Words>(
    m: usize,
    outboxes: &mut [Outbox<M>],
    inboxes: &mut FlatInboxes<M>,
    scratch: &mut RouteScratch,
) {
    // Tally: message counts per destination. Touches only the run table
    // (not the payloads); word totals are folded into the placing pass,
    // which reads every message anyway.
    for (from, outbox) in outboxes.iter().enumerate() {
        for run in &outbox.runs {
            let to = run.to as usize;
            assert!(to < m, "machine {from} addressed nonexistent machine {to}");
            scratch.recv_msgs[to] += run.len as usize;
        }
    }

    // Layout: staggered region starts from the per-destination counts.
    let base_ptr = inboxes.begin_fill(&scratch.recv_msgs[..m]);

    // Place: per-destination cursors advance in sender order, so each
    // destination's slice is in canonical sender-then-emission order.
    scratch.starts.clear();
    scratch.starts.extend_from_slice(inboxes.region_starts());
    for (from, outbox) in outboxes.iter_mut().enumerate() {
        let mut src = 0usize;
        let mut sent = 0usize;
        for run in &outbox.runs {
            let to = run.to as usize;
            let len = run.len as usize;
            debug_assert!(src + len <= outbox.msgs.len());
            // SAFETY: run lengths sum to the outbox's message count by
            // construction ([`Outbox::push`] is the only writer).
            let chunk = unsafe { outbox.msgs.get_unchecked(src..src + len) };
            let w: usize = chunk.iter().map(Words::words).sum();
            sent += w;
            scratch.received_words[to] += w;
            // SAFETY: cursor ranges of distinct (sender, run) pairs are
            // disjoint by the region layout and lie within the reserved
            // capacity; sources are moved out exactly once
            // (`forget_moved` below).
            unsafe {
                std::ptr::copy_nonoverlapping(
                    outbox.msgs.as_ptr().add(src),
                    base_ptr.add(scratch.starts[to]),
                    len,
                );
            }
            scratch.starts[to] += len;
            src += len;
        }
        scratch.sent_words[from] = sent;
        // SAFETY: every message was moved into the inbox buffer above.
        unsafe { outbox.forget_moved() };
    }
    // Every region slot was initialized by the moves above.
    inboxes.finish_fill();
}

/// The layout half of the flat shuffle: the parallel tally (stage 1)
/// plus the sequential layout pass (stage 2) over the flat `m*m` tables.
/// On return every per-machine total — `sent_words`, `received_words`,
/// the region starts/lens of `inboxes` — is final, the start-slot table
/// (`scratch.starts`, row-major per-(sender, destination)) describes
/// where every sender's runs will land, and the returned base pointer
/// addresses the reserved (still uninitialized) inbox buffer. No message
/// has moved yet; [`place_sender`] does that per sender.
///
/// Callable on its own by the pipelined scheduler, which needs the
/// region bounds and word totals *before* placement so it can run cap
/// enforcement and arm per-region delivery counters up front. Note that
/// `scratch.recv_msgs` is consumed as the layout's running cursors —
/// per-region message counts live in `inboxes.region_lens()` afterwards.
pub(crate) fn layout_flat<M: Words + Send + Sync>(
    m: usize,
    outboxes: &[Outbox<M>],
    inboxes: &mut FlatInboxes<M>,
    scratch: &mut RouteScratch,
) -> *mut M {
    scratch.reset_tables(m);

    // Stage 1 — tally, parallel over senders: each sender owns row `from`
    // of the flat count/word tables plus its `sent_words` slot.
    {
        let counts = SendPtr(scratch.counts.as_mut_ptr());
        let words = SendPtr(scratch.words.as_mut_ptr());
        let sent = SendPtr(scratch.sent_words.as_mut_ptr());
        outboxes.par_iter().enumerate().for_each(|(from, outbox)| {
            let row = from * m;
            let mut total = 0usize;
            let mut base = 0usize;
            for run in &outbox.runs {
                let to = run.to as usize;
                assert!(to < m, "machine {from} addressed nonexistent machine {to}");
                let len = run.len as usize;
                let w: usize = outbox.msgs[base..base + len].iter().map(Words::words).sum();
                // SAFETY: row `from` and slot `from` are owned by this
                // sender alone; indices stay below `m * m` / `m`.
                unsafe {
                    *counts.at(row + to) += run.len;
                    *words.at(row + to) += w;
                }
                total += w;
                base += len;
            }
            // SAFETY: slot `from` of `sent_words` is owned by this sender.
            unsafe { *sent.at(from) = total };
        });
    }

    // Stage 2 — layout, sequential: two row-major passes over the flat
    // tables. First fold per-destination totals (feeding the staggered
    // region layout), then convert counts into absolute start slots
    // (exclusive prefix sum down each column, walked row-major for cache
    // friendliness).
    for from in 0..m {
        let row = &scratch.counts[from * m..(from + 1) * m];
        let wrow = &scratch.words[from * m..(from + 1) * m];
        for to in 0..m {
            scratch.recv_msgs[to] += row[to] as usize;
            scratch.received_words[to] += wrow[to];
        }
    }
    let base = inboxes.begin_fill(&scratch.recv_msgs[..m]);
    // Reuse `recv_msgs` as the running column cursors, seeded from the
    // region starts.
    scratch.recv_msgs.copy_from_slice(inboxes.region_starts());
    for from in 0..m {
        let row = from * m;
        for to in 0..m {
            scratch.starts[row + to] = scratch.recv_msgs[to];
            scratch.recv_msgs[to] += scratch.counts[row + to] as usize;
        }
    }
    base
}

/// The placement half of the flat shuffle for one sender: block-copies
/// `outbox`'s runs into the slot ranges [`layout_flat`] assigned it,
/// advancing its own start row so repeated runs to one destination land
/// back to back in emission order. `on_run(to, len)` fires after each
/// run's copy — a no-op on the barrier path, the per-region delivery
/// notification on the pipelined path.
///
/// Does **not** forget the outbox's moved-out messages; the caller must
/// follow up with [`Outbox::forget_moved`] before the outbox is reused.
///
/// # Safety
/// `buf` and `starts` must come from a [`layout_flat`] call over an
/// outbox slice containing this exact `(from, outbox)`, with no
/// intervening layout; each `(from, outbox)` may be placed at most once
/// per layout. Distinct senders may then run concurrently — their slot
/// ranges are disjoint by the prefix-sum layout.
pub(crate) unsafe fn place_sender<M: Words>(
    m: usize,
    from: usize,
    outbox: &Outbox<M>,
    buf: &SendPtr<M>,
    starts: &SendPtr<usize>,
    mut on_run: impl FnMut(usize, usize),
) {
    let row = from * m;
    let mut src = 0usize;
    for run in &outbox.runs {
        let to = run.to as usize;
        let len = run.len as usize;
        // SAFETY: slot ranges of different senders are disjoint by the
        // prefix-sum layout and stay within the reserved capacity; start
        // row `from` is owned by this sender.
        unsafe {
            let slot = *starts.at(row + to);
            std::ptr::copy_nonoverlapping(outbox.msgs.as_ptr().add(src), buf.at(slot), len);
            *starts.at(row + to) = slot + len;
        }
        src += len;
        on_run(to, len);
    }
}

/// The full placement stage over every sender: parallel [`place_sender`]
/// calls into disjoint slot ranges, then the outbox drains
/// ([`Outbox::forget_moved`]). `base` must come from the immediately
/// preceding [`layout_flat`] over the same `outboxes`. Used by the fused
/// parallel shuffle and by the pipelined scheduler's final segment round
/// (which has no next compute to overlap with). Does not mark the inbox
/// regions live — the caller decides between `finish_fill` (barrier
/// handoff) and immediate in-place draining (pipelined handoff).
pub(crate) fn place_all<M: Words + Send + Sync>(
    m: usize,
    outboxes: &mut [Outbox<M>],
    base: *mut M,
    scratch: &mut RouteScratch,
) {
    {
        let buf = SendPtr(base);
        let starts = SendPtr(scratch.starts.as_mut_ptr());
        outboxes.par_iter().enumerate().for_each(|(from, outbox)| {
            // SAFETY: layout covered exactly these outboxes; each sender
            // is placed once, and senders' ranges are disjoint.
            unsafe { place_sender(m, from, outbox, &buf, &starts, |_, _| {}) };
        });
    }
    for outbox in outboxes.iter_mut() {
        // SAFETY: every message was moved into the inbox buffer above.
        unsafe { outbox.forget_moved() };
    }
}

/// Parallel three-stage shuffle over flat `m*m` tables — the fused
/// composition of [`layout_flat`] and [`place_all`]; bit-identical to
/// [`shuffle_sequential`] (same canonical order) at any thread count.
fn shuffle_parallel<M: Words + Send + Sync>(
    m: usize,
    outboxes: &mut [Outbox<M>],
    inboxes: &mut FlatInboxes<M>,
    scratch: &mut RouteScratch,
) {
    let base = layout_flat(m, outboxes, inboxes, scratch);
    place_all(m, outboxes, base, scratch);
    // Every region slot was initialized by the moves above.
    inboxes.finish_fill();
}

/// The pre-flat naive shuffle — push every `(dest, message)` pair into a
/// freshly allocated `Vec` per destination — retained verbatim as the
/// bit-exactness oracle for the fabric property tests and the baseline
/// side of the `router` microbenchmark. Returns
/// `(inboxes, sent_words, received_words)`.
pub fn reference_shuffle<M: Words>(
    m: usize,
    outboxes: Vec<Vec<(usize, M)>>,
) -> (Vec<Vec<M>>, Vec<usize>, Vec<usize>) {
    let mut sent_words = vec![0usize; m];
    let mut received_words = vec![0usize; m];
    let mut inboxes: Vec<Vec<M>> = (0..m).map(|_| Vec::new()).collect();
    for (from, outbox) in outboxes.into_iter().enumerate() {
        for (to, msg) in outbox {
            assert!(to < m, "machine {from} addressed nonexistent machine {to}");
            let w = msg.words();
            sent_words[from] += w;
            received_words[to] += w;
            inboxes[to].push(msg);
        }
    }
    (inboxes, sent_words, received_words)
}

/// Stages a `(dest, message)` pair list into fresh outboxes (tests,
/// benches, and property oracles — the cluster reuses its own).
pub fn stage_outboxes<M>(m: usize, pairs: Vec<Vec<(usize, M)>>) -> Vec<Outbox<M>> {
    assert_eq!(pairs.len(), m);
    pairs
        .into_iter()
        .map(|list| {
            let mut ob = Outbox::new();
            ob.reserve(list.len());
            for (to, msg) in list {
                ob.push(to, msg);
            }
            ob
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(m: usize, s: usize) -> MpcConfig {
        MpcConfig::new(m, s)
    }

    /// Routes a pair list through the flat fabric (auto path selection),
    /// returning owned per-machine inboxes plus word totals and
    /// violations.
    fn route_pairs<M: Words + Send + Sync + Clone>(
        config: &MpcConfig,
        round: usize,
        pairs: Vec<Vec<(usize, M)>>,
    ) -> (Vec<Vec<M>>, Vec<usize>, Vec<usize>, Vec<Violation>) {
        let m = config.num_machines;
        let total: usize = pairs.iter().map(Vec::len).sum();
        route_pairs_forced(config, round, pairs, use_parallel_shuffle(m, total))
    }

    /// Routes a pair list with the shuffle path pinned.
    fn route_pairs_forced<M: Words + Send + Sync + Clone>(
        config: &MpcConfig,
        round: usize,
        pairs: Vec<Vec<(usize, M)>>,
        parallel: bool,
    ) -> (Vec<Vec<M>>, Vec<usize>, Vec<usize>, Vec<Violation>) {
        let m = config.num_machines;
        let mut outboxes = stage_outboxes(m, pairs);
        let mut inboxes = FlatInboxes::new(m);
        let mut scratch = RouteScratch::new();
        route_forced(
            config,
            round,
            &mut outboxes,
            &mut inboxes,
            &mut scratch,
            parallel,
        );
        let per_machine = (0..m).map(|i| inboxes.slice(i).to_vec()).collect();
        (
            per_machine,
            scratch.sent_words.clone(),
            scratch.received_words.clone(),
            scratch.violations.clone(),
        )
    }

    #[test]
    fn delivers_to_destinations() {
        let (inboxes, sent, received, violations) = route_pairs(
            &cfg(3, 100),
            0,
            vec![vec![(1, 10u64), (2, 20u64)], vec![(0, 30u64)], vec![]],
        );
        assert_eq!(inboxes[0], vec![30]);
        assert_eq!(inboxes[1], vec![10]);
        assert_eq!(inboxes[2], vec![20]);
        assert_eq!(sent, vec![2, 1, 0]);
        assert_eq!(received, vec![1, 1, 1]);
        assert!(violations.is_empty());
    }

    #[test]
    fn self_messages_allowed() {
        let (inboxes, ..) = route_pairs(&cfg(1, 10), 0, vec![vec![(0, 5u64)]]);
        assert_eq!(inboxes[0], vec![5]);
    }

    #[test]
    fn outbox_run_length_encodes_destination_bursts() {
        let mut ob = Outbox::new();
        for _ in 0..5 {
            ob.push(2, 1u64);
        }
        ob.push(0, 2u64);
        ob.push(2, 3u64);
        assert_eq!(ob.len(), 7);
        assert_eq!(
            ob.runs(),
            &[
                Run { to: 2, len: 5 },
                Run { to: 0, len: 1 },
                Run { to: 2, len: 1 },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "sent")]
    fn strict_send_cap_panics() {
        let msgs: Vec<(usize, u64)> = (0..11).map(|i| (1usize, i)).collect();
        let _ = route_pairs(&cfg(2, 10), 0, vec![msgs, vec![]]);
    }

    #[test]
    #[should_panic(expected = "received")]
    fn strict_receive_cap_panics() {
        // Two senders each send 6 words to machine 0: each is under the
        // send cap, together they exceed machine 0's receive cap.
        let outbox = |_: usize| (0..6).map(|i| (0usize, i as u64)).collect::<Vec<_>>();
        let _ = route_pairs(&cfg(3, 10), 0, vec![vec![], outbox(1), outbox(2)]);
    }

    #[test]
    fn audit_records_instead_of_panicking() {
        let config = cfg(2, 3).audited();
        let msgs: Vec<(usize, u64)> = (0..5).map(|i| (1usize, i)).collect();
        let (_, _, _, violations) = route_pairs(&config, 7, vec![msgs, vec![]]);
        assert_eq!(violations.len(), 2); // sender 0 over, receiver 1 over
        assert!(violations
            .iter()
            .any(|v| v.kind == ViolationKind::SentExceedsMemory && v.machine == 0));
        assert!(violations
            .iter()
            .any(|v| v.kind == ViolationKind::ReceivedExceedsMemory && v.machine == 1));
        assert_eq!(violations[0].round, 7);
    }

    #[test]
    #[should_panic(expected = "nonexistent")]
    fn bad_destination_panics() {
        let _ = route_pairs(&cfg(2, 10), 0, vec![vec![(5, 1u64)], vec![]]);
    }

    /// Synthetic round big enough to take the parallel path.
    fn big_pairs(m: usize, per_sender: usize) -> Vec<Vec<(usize, u64)>> {
        (0..m)
            .map(|from| {
                (0..per_sender)
                    .map(|k| (((from * 31 + k * 7) % m), (from * 100_000 + k) as u64))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn both_shuffle_paths_match_reference_exactly() {
        for parallel in [false, true] {
            let m = 13;
            let per = 1024;
            let config = cfg(m, 1 << 30);
            let (flat, fs, fr, _) = route_pairs_forced(&config, 0, big_pairs(m, per), parallel);
            let (naive, ns, nr) = reference_shuffle(m, big_pairs(m, per));
            assert_eq!(fs, ns);
            assert_eq!(fr, nr);
            assert_eq!(flat, naive, "inbox contents and order must be identical");
        }
    }

    #[test]
    fn parallel_shuffle_preserves_sender_then_emission_order() {
        // Every sender sends an increasing sequence to destination 0; the
        // inbox must hold sender 0's block, then sender 1's, each in
        // emission order.
        let m = 4;
        let per = 2000;
        let pairs: Vec<Vec<(usize, u64)>> = (0..m)
            .map(|from| {
                (0..per)
                    .map(|k| (0usize, (from * per + k) as u64))
                    .collect()
            })
            .collect();
        let (inboxes, ..) = route_pairs_forced(&cfg(m, 1 << 30), 0, pairs, true);
        let expect: Vec<u64> = (0..(m * per) as u64).collect();
        assert_eq!(inboxes[0], expect);
        assert!(inboxes[1].is_empty());
    }

    #[test]
    #[should_panic(expected = "nonexistent")]
    fn parallel_path_still_checks_destinations() {
        let mut pairs = big_pairs(3, 2048);
        pairs[1][17].0 = 99;
        let _ = route_pairs_forced(&cfg(3, 1 << 30), 0, pairs, true);
    }

    #[test]
    fn cutover_amortizes_the_layout_tables() {
        // Big enough in absolute terms but tiny relative to m²: stays
        // sequential no matter the thread count.
        assert!(!use_parallel_shuffle(512, PARALLEL_SHUFFLE_MIN_MSGS));
        // Small rounds always stay sequential.
        assert!(!use_parallel_shuffle(4, PARALLEL_SHUFFLE_MIN_MSGS - 1));
    }

    #[test]
    fn buffers_are_recycled_across_rounds() {
        // After a warm-up round at the peak shape, further identical
        // rounds must reuse the exact same buffers on both fabric paths.
        for parallel in [false, true] {
            let (m, per) = (3, 2048);
            let config = cfg(m, 1 << 30);
            let mut outboxes: Vec<Outbox<u64>> = (0..m).map(|_| Outbox::new()).collect();
            let mut inboxes = FlatInboxes::new(m);
            let mut scratch = RouteScratch::new();
            let fill = |outboxes: &mut Vec<Outbox<u64>>| {
                for (from, pairs) in big_pairs(m, per).into_iter().enumerate() {
                    for (to, msg) in pairs {
                        outboxes[from].push(to, msg);
                    }
                }
            };
            fill(&mut outboxes);
            route_forced(
                &config,
                0,
                &mut outboxes,
                &mut inboxes,
                &mut scratch,
                parallel,
            );
            let inbox_ptr = inboxes.buffer_ptr();
            let outbox_ptrs: Vec<*const u64> = outboxes.iter().map(|o| o.msgs.as_ptr()).collect();
            for round in 1..4 {
                let drained = inboxes.begin_drain();
                assert_eq!(drained as *const u64, inbox_ptr);
                // Drop the drained payloads (u64: no-op) — ownership moved.
                fill(&mut outboxes);
                route_forced(
                    &config,
                    round,
                    &mut outboxes,
                    &mut inboxes,
                    &mut scratch,
                    parallel,
                );
                assert_eq!(inboxes.buffer_ptr(), inbox_ptr, "inbox buffer reused");
                for (o, &p) in outboxes.iter().zip(&outbox_ptrs) {
                    assert_eq!(o.msgs.as_ptr(), p, "outbox arena reused");
                }
            }
        }
    }
}
