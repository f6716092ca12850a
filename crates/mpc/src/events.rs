//! Deterministic model-domain instrumentation events and the
//! fixed-capacity per-machine rings that carry them through the
//! zero-allocation fabric.
//!
//! The hot paths (`router.rs`, `cluster.rs`) may not heap-allocate in a
//! steady-state round — the counting-allocator tests and the repo lint
//! pin that — so instrumentation there records into an [`EventRing`]: a
//! small inline array owned (via `RouteScratch`) by the cluster and
//! recycled every round like the outboxes and inbox arena. The
//! bookkeeping step at the end of each round drains the rings into
//! [`ExecutionTrace::events`](crate::ExecutionTrace), where allocation
//! is already permitted (round stats allocate their label there).
//!
//! Everything here is *model-domain*: word counts and region sizes,
//! never host time. Every round records the same kinds in the same
//! per-machine order, so the event stream is bit-identical across host
//! pool widths — the determinism suite pins it.

/// What a [`TraceEvent`] measures. Per machine and round, the fabric
/// records these in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Messages laid out into the machine's inbox region this round.
    RegionMsgs,
    /// Words laid out into the machine's inbox region this round.
    RegionWords,
    /// Words the machine spilled to its spill file this round.
    SpillWords,
    /// Words the machine sent this round.
    SentWords,
    /// Idle cost the machine spends at this round's barrier waiting for
    /// the round's slowest machine (`round_max - cost`, in model cost
    /// units; see [`crate::MachineRound`]).
    StallWords,
    /// Faults the deterministic plan injected against this machine this
    /// round (crashes, stragglers).
    FaultInjected,
    /// Words written to this machine's recovery checkpoint this round.
    CheckpointWords,
    /// Rounds this machine replayed from its checkpoint after a crash.
    ReplayRounds,
    /// Spill I/O attempts this machine retried under injected transient
    /// faults this round.
    RetryCount,
}

/// One deterministic instrumentation event: machine `machine` measured
/// `value` of `kind` in round `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Round index (0-based, matching `ExecutionTrace::rounds`).
    pub round: u32,
    /// Machine that the measurement belongs to.
    pub machine: u32,
    /// What was measured.
    pub kind: EventKind,
    /// The measured value (words or messages).
    pub value: u64,
}

/// Ring capacity: the fabric records at most [`EVENTS_PER_ROUND`] plus
/// [`FAULT_EVENTS_PER_ROUND`] events per machine per round and the
/// harness drains every round, so 12 slots never overflow in normal
/// operation.
pub const RING_CAPACITY: usize = 12;

/// Events the fabric records per machine in one fault-free harnessed
/// round.
pub const EVENTS_PER_ROUND: usize = 5;

/// Additional events the recovery layer can record per machine per round
/// under fault injection (`FaultInjected`, `CheckpointWords`,
/// `ReplayRounds`, `RetryCount`). Recorded only when nonzero, so
/// fault-free event streams are unchanged.
pub const FAULT_EVENTS_PER_ROUND: usize = 4;

/// A fixed-capacity, heap-free event buffer for one machine. `record`
/// never allocates: once full, further events are counted in `dropped`
/// instead of stored (that only happens when the router runs round after
/// round with no cluster bookkeeping to drain the rings in between).
#[derive(Debug, Clone)]
pub struct EventRing {
    slots: [(EventKind, u64); RING_CAPACITY],
    len: usize,
    dropped: u64,
}

impl EventRing {
    /// An empty ring. The slot array lives inline — no heap.
    pub fn new() -> Self {
        EventRing {
            slots: [(EventKind::SentWords, 0); RING_CAPACITY],
            len: 0,
            dropped: 0,
        }
    }

    /// Records one event; drops (and counts) if the ring is full.
    #[inline]
    pub fn record(&mut self, kind: EventKind, value: u64) {
        if self.len < RING_CAPACITY {
            self.slots[self.len] = (kind, value);
            self.len += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// Moves the buffered events into `out` tagged with their round and
    /// machine, emptying the ring. The destination is the trace's event
    /// vector, outside the zero-allocation pin.
    pub fn drain_into(&mut self, out: &mut Vec<TraceEvent>, round: u32, machine: u32) {
        for &(kind, value) in &self.slots[..self.len] {
            out.push(TraceEvent {
                round,
                machine,
                kind,
                value,
            });
        }
        self.len = 0;
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events dropped because the ring was full (never drained).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Default for EventRing {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_drain_preserve_order() {
        let mut ring = EventRing::new();
        assert!(ring.is_empty());
        ring.record(EventKind::RegionMsgs, 3);
        ring.record(EventKind::RegionWords, 9);
        ring.record(EventKind::SentWords, 4);
        assert_eq!(ring.len(), 3);
        let mut out = Vec::new();
        ring.drain_into(&mut out, 7, 2);
        assert!(ring.is_empty());
        assert_eq!(
            out,
            vec![
                TraceEvent {
                    round: 7,
                    machine: 2,
                    kind: EventKind::RegionMsgs,
                    value: 3
                },
                TraceEvent {
                    round: 7,
                    machine: 2,
                    kind: EventKind::RegionWords,
                    value: 9
                },
                TraceEvent {
                    round: 7,
                    machine: 2,
                    kind: EventKind::SentWords,
                    value: 4
                },
            ]
        );
    }

    #[test]
    fn overflow_drops_instead_of_growing() {
        let mut ring = EventRing::new();
        for i in 0..(RING_CAPACITY as u64 + 3) {
            ring.record(EventKind::SentWords, i);
        }
        assert_eq!(ring.len(), RING_CAPACITY);
        assert_eq!(ring.dropped(), 3);
        let mut out = Vec::new();
        ring.drain_into(&mut out, 0, 0);
        assert_eq!(out.len(), RING_CAPACITY);
        // The oldest events survive; the overflow was dropped, not wrapped.
        assert_eq!(out[0].value, 0);
        assert_eq!(out[RING_CAPACITY - 1].value, RING_CAPACITY as u64 - 1);
    }

    #[test]
    fn capacity_covers_a_full_harnessed_round() {
        const { assert!(EVENTS_PER_ROUND + FAULT_EVENTS_PER_ROUND <= RING_CAPACITY) }
    }
}
