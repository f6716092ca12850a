//! Execution statistics of an Algorithm 2 run — the raw material of
//! experiments E01, E04 and E05.

use mpc_sim::MpcConfig;

/// Statistics of one phase of Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Phase index, 0-based.
    pub phase: usize,
    /// Average degree `d = (1/n)·Σ_{v nonfrozen} d(v)` at phase start.
    pub d_avg: f64,
    /// `|V^high|`.
    pub n_high: usize,
    /// `|V^inactive|` (nonfrozen, below the degree cutoff).
    pub n_inactive: usize,
    /// Machine count `m` used for the partition.
    pub machines: usize,
    /// Local iterations `I` simulated.
    pub iterations: usize,
    /// `|E[V^high]|` — edges participating in the phase.
    pub edges_high: usize,
    /// `max_i |E[V_i]|` — the Lemma 4.1 quantity.
    pub max_machine_edges: usize,
    /// Sum over machines of `|E[V_i]|` (locally simulated edges).
    pub local_edges_total: usize,
    /// Vertices frozen by the local simulations (line 2(g)i).
    pub frozen_local: usize,
    /// Vertices frozen by the over-freeze correction (line 2i).
    pub frozen_corrected: usize,
    /// Nonfrozen edges before the phase.
    pub nonfrozen_edges_before: usize,
    /// Nonfrozen edges after the phase (the Lemma 4.4 quantity).
    pub nonfrozen_edges_after: usize,
}

impl PhaseStats {
    /// Lemma 4.4's bound on `nonfrozen_edges_after`:
    /// `2·n·d·(1-ε)^I` (in edge units; the lemma states it for
    /// `(1/2)·Σ d(v)`).
    pub fn lemma_4_4_bound(&self, n: usize, epsilon: f64) -> f64 {
        2.0 * n as f64 * self.d_avg * (1.0 - epsilon).powi(self.iterations as i32)
    }
}

/// Statistics of the final centralized phase (Algorithm 2 line 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinalPhaseStats {
    /// Vertices of the residual instance moved to one machine.
    pub vertices: usize,
    /// Edges of the residual instance.
    pub edges: usize,
    /// Iterations the centralized algorithm ran.
    pub iterations: usize,
}

/// Cost model of the faithful distributed executor, used to convert phase
/// counts into MPC round counts (each phase of Algorithm 2 is `O(1)` MPC
/// rounds; these constants are what our `distributed` module actually
/// spends).
pub mod round_cost {
    /// Rounds per compression phase in [`crate::mpc::distributed`]:
    /// stats, plan, classify, route, simulate, forward, party, correct,
    /// finalize.
    pub const PER_PHASE: usize = 9;
    /// Fixed rounds outside the phase loop: the startup subscribe round
    /// plus the closing stats, plan, gather, solve and apply rounds.
    pub const FINAL: usize = 6;
}

/// The measured communication-side costs of an executed run, as charged
/// by the MPC model. Only the message-passing executor produces these;
/// the reference executor computes the same algorithm without a router,
/// so its [`CostReport`] carries `traffic: None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficCosts {
    /// Machines in the executing cluster.
    pub machines: usize,
    /// Per-machine word budget `S` of the cluster.
    pub memory_cap_words: usize,
    /// Total words moved across the network over the whole run.
    pub total_message_words: usize,
    /// Largest per-machine per-round communication (send or receive side).
    pub peak_round_words: usize,
    /// Largest per-machine resident memory observed in any round.
    pub peak_resident_words: usize,
    /// Recorded model-constraint breaches (zero under strict enforcement).
    pub violations: usize,
    /// Total words written to per-machine spill files over the run
    /// (nonzero only under [`mpc_sim::MemoryBudget::Enforced`] when a
    /// machine's working set actually overflowed its budget).
    pub spill_words: u64,
    /// Modeled words of round-granular recovery checkpoints, each the
    /// checkpointed state's footprint (nonzero only when fault injection
    /// is active; charged separately from model spill so fault-free runs
    /// are bit-identical to faulty-but-recovered ones).
    pub checkpoint_words: u64,
    /// Rounds re-executed from a checkpoint after injected crash faults.
    pub replayed_rounds: u64,
}

/// The structured model-cost report of an Algorithm 2 execution: every
/// quantity the paper's cost model charges for, in one serializable
/// value. This is what the benchmark harness records and the perf gate
/// compares bit-for-bit — none of these fields may depend on host
/// threading or wall-clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// Compression phases executed (the `O(log log n · log(1/ε))` headline
    /// quantity).
    pub phases: usize,
    /// MPC communication rounds. For the distributed executor this is the
    /// trace's actual round count; for the reference executor it is the
    /// [`round_cost`] model applied to the phase count.
    pub mpc_rounds: usize,
    /// Router-measured traffic and memory, when the run went through the
    /// audited cluster.
    pub traffic: Option<TrafficCosts>,
}

impl CostReport {
    /// Builds a report from an executed cluster trace.
    pub fn from_trace(phases: usize, trace: &mpc_sim::ExecutionTrace, cluster: &MpcConfig) -> Self {
        let s = trace.summary();
        CostReport {
            phases,
            mpc_rounds: s.rounds,
            traffic: Some(TrafficCosts {
                machines: cluster.num_machines,
                memory_cap_words: cluster.memory_words,
                total_message_words: s.total_message_words,
                peak_round_words: s.peak_round_words,
                peak_resident_words: s.peak_resident_words,
                violations: s.violations,
                spill_words: s.spill_words,
                checkpoint_words: s.checkpoint_words,
                replayed_rounds: s.replayed_rounds,
            }),
        }
    }
}

/// Full result of an Algorithm 2 run.
#[derive(Debug, Clone)]
pub struct MpcRunResult {
    /// The vertex cover (all frozen vertices).
    pub cover: crate::cover::VertexCover,
    /// Final per-edge dual values `x^MPC_e` (global edge-id order).
    pub certificate: crate::certificate::DualCertificate,
    /// Per-phase statistics.
    pub phases: Vec<PhaseStats>,
    /// Final centralized phase statistics (`None` only if the input had no
    /// edges).
    pub final_phase: Option<FinalPhaseStats>,
    /// Whether the loop stopped because no progress was possible
    /// (`E[V^high] = ∅`) rather than by the switch condition.
    pub stalled: bool,
    /// Whether the `max_phases` cap fired.
    pub hit_max_phases: bool,
}

impl MpcRunResult {
    /// Number of compression phases executed.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// MPC rounds under the distributed cost model (the closing rounds
    /// run whether or not a residual instance was left to solve).
    pub fn mpc_rounds(&self) -> usize {
        self.phases.len() * round_cost::PER_PHASE + round_cost::FINAL
    }

    /// The structured model-cost report of this run. The reference
    /// executor routes no messages, so `traffic` is `None`; rounds come
    /// from the [`round_cost`] model.
    pub fn cost_report(&self) -> CostReport {
        CostReport {
            phases: self.num_phases(),
            mpc_rounds: self.mpc_rounds(),
            traffic: None,
        }
    }

    /// The Lemma 4.1 headline: the per-machine induced subgraph size,
    /// normalized by `n`, maximized over phases.
    pub fn peak_machine_edges_over_n(&self, n: usize) -> f64 {
        self.phases
            .iter()
            .map(|p| p.max_machine_edges as f64 / n.max(1) as f64)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::DualCertificate;
    use crate::cover::VertexCover;

    fn phase(i: usize, max_machine_edges: usize) -> PhaseStats {
        PhaseStats {
            phase: i,
            d_avg: 100.0,
            n_high: 10,
            n_inactive: 5,
            machines: 10,
            iterations: 3,
            edges_high: 500,
            max_machine_edges,
            local_edges_total: 100,
            frozen_local: 4,
            frozen_corrected: 1,
            nonfrozen_edges_before: 600,
            nonfrozen_edges_after: 200,
        }
    }

    #[test]
    fn cost_report_from_trace_mirrors_summary() {
        let trace = mpc_sim::ExecutionTrace {
            rounds: vec![mpc_sim::RoundStats {
                label: "r".to_string(),
                max_sent: 7,
                max_received: 9,
                max_resident: 40,
                total_traffic: 16,
                spill_words: 5,
            }],
            violations: vec![],
            critical_path: Default::default(),
            faults: Default::default(),
        };
        let cluster = MpcConfig::new(4, 1024);
        let report = CostReport::from_trace(3, &trace, &cluster);
        assert_eq!(report.phases, 3);
        assert_eq!(report.mpc_rounds, 1);
        let t = report.traffic.expect("distributed runs carry traffic");
        assert_eq!(t.machines, 4);
        assert_eq!(t.memory_cap_words, 1024);
        assert_eq!(t.total_message_words, 16);
        assert_eq!(t.peak_round_words, 9);
        assert_eq!(t.peak_resident_words, 40);
        assert_eq!(t.violations, 0);
        assert_eq!(t.spill_words, 5);
        assert_eq!(t.checkpoint_words, 0);
        assert_eq!(t.replayed_rounds, 0);
    }

    #[test]
    fn round_accounting() {
        let r = MpcRunResult {
            cover: VertexCover::new(0, vec![]),
            certificate: DualCertificate::new(vec![]),
            phases: vec![phase(0, 50), phase(1, 80)],
            final_phase: Some(FinalPhaseStats {
                vertices: 3,
                edges: 2,
                iterations: 4,
            }),
            stalled: false,
            hit_max_phases: false,
        };
        assert_eq!(r.num_phases(), 2);
        assert_eq!(r.mpc_rounds(), 2 * 9 + 6);
        assert_eq!(r.peak_machine_edges_over_n(40), 2.0);
    }

    #[test]
    fn lemma_bound_formula() {
        let p = phase(0, 1);
        let b = p.lemma_4_4_bound(100, 0.1);
        assert!((b - 2.0 * 100.0 * 100.0 * 0.9f64.powi(3)).abs() < 1e-9);
    }
}
