//! Per-round accounting: the quantities the MPC model charges for.

use crate::events::TraceEvent;

/// Which model constraint a violation breached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A machine sent more than `S` words in one round.
    SentExceedsMemory,
    /// A machine received more than `S` words in one round.
    ReceivedExceedsMemory,
    /// A machine's resident state (local state + delivered inbox) exceeds `S`.
    ResidentExceedsMemory,
}

/// A recorded breach of the model constraints (audit mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Round index (0-based) in which the breach occurred.
    pub round: usize,
    /// Offending machine.
    pub machine: usize,
    /// Constraint breached.
    pub kind: ViolationKind,
    /// Observed words.
    pub words: usize,
    /// The cap `S`.
    pub cap: usize,
}

/// Statistics of a single executed round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundStats {
    /// Human-readable label supplied by the algorithm (e.g. `"phase 3: route edges"`).
    pub label: String,
    /// Maximum words sent by any single machine.
    pub max_sent: usize,
    /// Maximum words received by any single machine.
    pub max_received: usize,
    /// Maximum resident words (state + inbox) on any machine, measured
    /// after delivery.
    pub max_resident: usize,
    /// Total words moved across the network this round.
    pub total_traffic: usize,
    /// Words written to per-machine spill files this round (summed over
    /// machines). Nonzero only when an executor runs under
    /// [`MemoryBudget::Enforced`](crate::MemoryBudget) and actually
    /// overflows its budget.
    pub spill_words: u64,
}

/// One machine's simulated schedule entry for one round: when its work
/// for the round could start in the dependency-pipelined DAG, what it
/// costs, and how long it would idle at a barrier. All in the model's
/// compute-cost units (words touched; see [`crate::cluster`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineRound {
    /// Earliest start in the pipelined DAG: the finish time of this
    /// machine's previous round and of every round-`r-1` machine that
    /// sent to it, whichever is later.
    pub start: u64,
    /// Simulated compute cost of this machine's round (`1 + words
    /// received last round + words sent this round`).
    pub cost: u64,
    /// Idle cost under barrier execution: `round_max - cost`, i.e. how
    /// long this machine waits at the barrier for the round's straggler.
    /// Zero exactly for the straggler itself.
    pub stall_words: u64,
}

/// Deterministic critical-path statistic of an execution, in simulated
/// compute-cost units (words touched; see [`crate::cluster`] for the
/// cost model). Identical at every host thread count. The pipelined
/// makespan is a model-domain what-if: what dependency-pipelined
/// execution *could* overlap. The simulator itself always runs barrier
/// rounds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Makespan of barrier execution: the sum over rounds of the slowest
    /// machine's simulated compute cost.
    pub barrier_makespan: u64,
    /// Makespan of dependency-pipelined execution: the longest path
    /// through the (machine, round) dependency DAG, where a machine's
    /// round-`r` work waits only for its own round-`r-1` work and for the
    /// round-`r-1` work of the machines that sent to it. Never exceeds
    /// `barrier_makespan`.
    pub pipelined_makespan: u64,
    /// Total idle cost barrier execution spends waiting at round barriers:
    /// the sum over rounds and machines of `round_max - cost(machine)`.
    pub barrier_stall: u64,
    /// The full per-round, per-machine breakdown behind the scalars:
    /// `machine_rounds[round][machine]`. This is what names a straggler
    /// (the machine with the smallest total `stall_words`) and what the
    /// Chrome-trace exporter renders as a Gantt chart.
    pub machine_rounds: Vec<Vec<MachineRound>>,
}

impl CriticalPath {
    /// The straggler: the machine that keeps the others waiting the most,
    /// i.e. the one with the *smallest* total `stall_words` over all
    /// rounds (ties broken toward the lower machine id). `None` for an
    /// empty breakdown.
    pub fn straggler(&self) -> Option<(usize, u64)> {
        let machines = self.machine_rounds.first()?.len();
        (0..machines)
            .map(|i| {
                let stall: u64 = self
                    .machine_rounds
                    .iter()
                    .map(|round| round[i].stall_words)
                    .sum();
                (i, stall)
            })
            .min_by_key(|&(i, stall)| (stall, i))
    }
}

/// Totals of the deterministic fault-injection and recovery machinery
/// over one execution (see [`crate::faults`]). All zero on a fault-free
/// run, so pre-fault traces and summaries are unchanged. Deterministic
/// like everything else in the trace: the fault plan is a pure function
/// of its seed, so these totals are bit-identical across hosts and pool
/// widths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Crash and straggler faults injected (spill I/O faults count
    /// through `retries`). Only crashes are recovered from; a straggler
    /// is a host-side delay with nothing to repair.
    pub injected: u64,
    /// Words written to per-machine recovery checkpoints. Accounted like
    /// `spill_words` but kept separate so fault-free round stats stay
    /// bit-identical under injection.
    pub checkpoint_words: u64,
    /// Rounds replayed from checkpoints after crash-restarts.
    pub replayed_rounds: u64,
    /// Spill I/O attempts retried under injected transient faults.
    pub retries: u64,
}

/// The full execution record of a cluster run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionTrace {
    /// One entry per executed round, in order.
    pub rounds: Vec<RoundStats>,
    /// Constraint breaches (empty under strict enforcement — it panics).
    pub violations: Vec<Violation>,
    /// Critical-path totals over the executed rounds (see
    /// [`CriticalPath`]).
    pub critical_path: CriticalPath,
    /// Deterministic model-domain instrumentation events, in (round,
    /// machine, kind) order (see [`crate::events`]). Bit-identical across
    /// host pool widths — the determinism suite pins it.
    pub events: Vec<TraceEvent>,
    /// Fault-injection and recovery totals (all zero on a fault-free
    /// run).
    pub faults: FaultStats,
}

/// A flat, serializable snapshot of everything the MPC model charges a
/// finished execution for. This is the quantity the benchmark harness
/// pins across PRs: every field is exactly derivable from the trace, and
/// deterministic for a deterministic algorithm — host threading never
/// shows up here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Communication rounds executed.
    pub rounds: usize,
    /// Total words moved across the network over the whole execution.
    pub total_message_words: usize,
    /// Largest per-machine per-round communication (send or receive side).
    pub peak_round_words: usize,
    /// Largest per-machine resident memory observed in any round.
    pub peak_resident_words: usize,
    /// Number of recorded model-constraint breaches (audit mode; zero
    /// under strict enforcement, which panics instead).
    pub violations: usize,
    /// Total words written to per-machine spill files over the whole
    /// execution (see [`RoundStats::spill_words`]).
    pub spill_words: u64,
    /// Words written to recovery checkpoints (zero without fault
    /// injection; see [`FaultStats::checkpoint_words`]).
    pub checkpoint_words: u64,
    /// Rounds replayed from checkpoints after crashes (zero without
    /// fault injection; see [`FaultStats::replayed_rounds`]).
    pub replayed_rounds: u64,
}

impl ExecutionTrace {
    /// Number of communication rounds executed.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Snapshots the model-cost totals of this trace (see
    /// [`TraceSummary`]).
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            rounds: self.num_rounds(),
            total_message_words: self.total_traffic(),
            peak_round_words: self.peak_traffic(),
            peak_resident_words: self.peak_resident(),
            violations: self.violations.len(),
            spill_words: self.total_spill(),
            checkpoint_words: self.faults.checkpoint_words,
            replayed_rounds: self.faults.replayed_rounds,
        }
    }

    /// Largest per-machine resident memory observed in any round.
    pub fn peak_resident(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.max_resident)
            .max()
            .unwrap_or(0)
    }

    /// Largest per-machine per-round communication (send or receive side).
    pub fn peak_traffic(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.max_sent.max(r.max_received))
            .max()
            .unwrap_or(0)
    }

    /// Total words moved across the whole execution.
    pub fn total_traffic(&self) -> usize {
        self.rounds.iter().map(|r| r.total_traffic).sum()
    }

    /// Total words spilled to disk across the whole execution.
    pub fn total_spill(&self) -> u64 {
        self.rounds.iter().map(|r| r.spill_words).sum()
    }

    /// Whether the execution stayed within the model constraints.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Appends another trace (e.g. a sub-phase) onto this one, reindexing
    /// the violations' and events' round numbers. Critical-path data
    /// merges rather than keeping one side's: the scalars add up (the
    /// boundary between separately executed traces is a real barrier, so
    /// both makespans and the stall compose by summation), and the
    /// per-machine rows are appended with their pipelined `start` times
    /// shifted past everything this trace already scheduled.
    pub fn absorb(&mut self, other: ExecutionTrace) {
        let offset = self.rounds.len();
        self.rounds.extend(other.rounds);
        self.violations
            .extend(other.violations.into_iter().map(|mut v| {
                v.round += offset;
                v
            }));
        self.events.extend(other.events.into_iter().map(|mut e| {
            e.round += offset as u32;
            e
        }));
        // The barrier at the trace boundary: nothing in `other` could have
        // started before everything here finished.
        let start_shift = self.critical_path.pipelined_makespan;
        self.critical_path.machine_rounds.extend(
            other
                .critical_path
                .machine_rounds
                .into_iter()
                .map(|mut round| {
                    for mr in &mut round {
                        mr.start += start_shift;
                    }
                    round
                }),
        );
        self.critical_path.barrier_makespan += other.critical_path.barrier_makespan;
        self.critical_path.pipelined_makespan += other.critical_path.pipelined_makespan;
        self.critical_path.barrier_stall += other.critical_path.barrier_stall;
        self.faults.injected += other.faults.injected;
        self.faults.checkpoint_words += other.faults.checkpoint_words;
        self.faults.replayed_rounds += other.faults.replayed_rounds;
        self.faults.retries += other.faults.retries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(label: &str, sent: usize, recv: usize, res: usize, total: usize) -> RoundStats {
        RoundStats {
            label: label.to_string(),
            max_sent: sent,
            max_received: recv,
            max_resident: res,
            total_traffic: total,
            spill_words: 0,
        }
    }

    #[test]
    fn trace_summaries() {
        let t = ExecutionTrace {
            rounds: vec![stats("a", 10, 12, 100, 40), stats("b", 5, 30, 80, 60)],
            violations: vec![],
            critical_path: CriticalPath::default(),
            events: vec![],
            faults: FaultStats::default(),
        };
        assert_eq!(t.num_rounds(), 2);
        assert_eq!(t.peak_resident(), 100);
        assert_eq!(t.peak_traffic(), 30);
        assert_eq!(t.total_traffic(), 100);
        assert!(t.is_clean());
        assert_eq!(
            t.summary(),
            TraceSummary {
                rounds: 2,
                total_message_words: 100,
                peak_round_words: 30,
                peak_resident_words: 100,
                violations: 0,
                spill_words: 0,
                checkpoint_words: 0,
                replayed_rounds: 0,
            }
        );
    }

    #[test]
    fn summary_counts_violations() {
        let t = ExecutionTrace {
            rounds: vec![stats("a", 9, 1, 1, 9)],
            violations: vec![Violation {
                round: 0,
                machine: 1,
                kind: ViolationKind::SentExceedsMemory,
                words: 9,
                cap: 5,
            }],
            critical_path: CriticalPath::default(),
            events: vec![],
            faults: FaultStats::default(),
        };
        assert_eq!(t.summary().violations, 1);
        assert_eq!(t.summary().rounds, 1);
    }

    #[test]
    fn spill_words_sum_into_the_summary() {
        let mut r0 = stats("a", 1, 1, 1, 1);
        r0.spill_words = 100;
        let mut r1 = stats("b", 1, 1, 1, 1);
        r1.spill_words = 42;
        let t = ExecutionTrace {
            rounds: vec![r0, r1],
            violations: vec![],
            critical_path: CriticalPath::default(),
            events: vec![],
            faults: FaultStats::default(),
        };
        assert_eq!(t.total_spill(), 142);
        assert_eq!(t.summary().spill_words, 142);
    }

    #[test]
    fn empty_trace() {
        let t = ExecutionTrace::default();
        assert_eq!(t.num_rounds(), 0);
        assert_eq!(t.peak_resident(), 0);
        assert_eq!(t.peak_traffic(), 0);
        assert!(t.is_clean());
    }

    fn mr(start: u64, cost: u64, stall: u64) -> MachineRound {
        MachineRound {
            start,
            cost,
            stall_words: stall,
        }
    }

    #[test]
    fn absorb_reindexes_violations() {
        let mut a = ExecutionTrace {
            rounds: vec![stats("a", 1, 1, 1, 1)],
            violations: vec![],
            critical_path: CriticalPath {
                barrier_makespan: 10,
                pipelined_makespan: 7,
                barrier_stall: 3,
                machine_rounds: vec![vec![mr(0, 7, 0), mr(0, 4, 3)]],
            },
            events: vec![],
            faults: FaultStats::default(),
        };
        let b = ExecutionTrace {
            rounds: vec![stats("b", 2, 2, 2, 2)],
            violations: vec![Violation {
                round: 0,
                machine: 3,
                kind: ViolationKind::SentExceedsMemory,
                words: 9,
                cap: 5,
            }],
            critical_path: CriticalPath {
                barrier_makespan: 4,
                pipelined_makespan: 4,
                barrier_stall: 0,
                machine_rounds: vec![vec![mr(0, 4, 0), mr(0, 4, 0)]],
            },
            events: vec![],
            faults: FaultStats::default(),
        };
        a.absorb(b);
        assert_eq!(a.num_rounds(), 2);
        assert_eq!(a.violations[0].round, 1);
        assert_eq!(a.critical_path.barrier_makespan, 14);
        assert_eq!(a.critical_path.pipelined_makespan, 11);
        assert_eq!(a.critical_path.barrier_stall, 3);
    }

    #[test]
    fn absorb_merges_machine_rounds_and_events() {
        use crate::events::{EventKind, TraceEvent};
        let mut a = ExecutionTrace {
            rounds: vec![stats("a", 1, 1, 1, 1)],
            violations: vec![],
            critical_path: CriticalPath {
                barrier_makespan: 10,
                pipelined_makespan: 7,
                barrier_stall: 3,
                machine_rounds: vec![vec![mr(0, 7, 0), mr(0, 4, 3)]],
            },
            events: vec![TraceEvent {
                round: 0,
                machine: 0,
                kind: EventKind::SentWords,
                value: 5,
            }],
            faults: FaultStats::default(),
        };
        let b = ExecutionTrace {
            rounds: vec![stats("b", 2, 2, 2, 2)],
            violations: vec![],
            critical_path: CriticalPath {
                barrier_makespan: 4,
                pipelined_makespan: 4,
                barrier_stall: 1,
                machine_rounds: vec![vec![mr(0, 4, 0), mr(0, 3, 1)]],
            },
            events: vec![TraceEvent {
                round: 0,
                machine: 1,
                kind: EventKind::SpillWords,
                value: 2,
            }],
            faults: FaultStats::default(),
        };
        a.absorb(b);
        // Both sides' breakdowns survive; the absorbed rows start after
        // everything the first trace could have pipelined (a barrier).
        assert_eq!(
            a.critical_path.machine_rounds,
            vec![
                vec![mr(0, 7, 0), mr(0, 4, 3)],
                vec![mr(7, 4, 0), mr(7, 3, 1)],
            ]
        );
        // Events keep both sides, with absorbed rounds reindexed.
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.events[1].round, 1);
        assert_eq!(a.events[1].kind, EventKind::SpillWords);
    }

    #[test]
    fn straggler_is_the_machine_others_wait_for() {
        let cp = CriticalPath {
            barrier_makespan: 0,
            pipelined_makespan: 0,
            barrier_stall: 0,
            // Machine 1 stalls the least → it is the round-dominating
            // straggler everyone else waits on.
            machine_rounds: vec![
                vec![mr(0, 2, 5), mr(0, 7, 0), mr(0, 4, 3)],
                vec![mr(0, 6, 0), mr(0, 5, 1), mr(0, 2, 4)],
            ],
        };
        assert_eq!(cp.straggler(), Some((1, 1)));
        assert_eq!(CriticalPath::default().straggler(), None);
    }
}
