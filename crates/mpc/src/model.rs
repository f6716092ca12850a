//! Model parameters: machine count, per-machine memory, memory regimes,
//! and the constraint-enforcement policy.

/// The three memory regimes distinguished in the paper's Section 1.1,
/// parameterized by the number of graph vertices `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryRegime {
    /// (A) Strongly super-linear: `S = n^(1+beta)`, `beta ∈ (0,1)`.
    StronglySuperlinear {
        /// Exponent surplus `beta`.
        beta: f64,
    },
    /// (B) Near-linear: `S = c · n` (the paper's `Θ̃(n)`; the polylog
    /// factor is folded into the constant `c`). This is the regime of the
    /// paper's main result.
    NearLinear {
        /// Multiplicative constant `c ≥ 1`.
        factor: f64,
    },
    /// (C) Strongly sub-linear: `S = n^(1-beta)`, `beta ∈ (0,1)`.
    StronglySublinear {
        /// Exponent deficit `beta`.
        beta: f64,
    },
}

impl MemoryRegime {
    /// Memory words per machine for an `n`-vertex graph.
    pub fn memory_words(&self, n: usize) -> usize {
        let nf = n as f64;
        let s = match *self {
            MemoryRegime::StronglySuperlinear { beta } => {
                assert!((0.0..1.0).contains(&beta));
                nf.powf(1.0 + beta)
            }
            MemoryRegime::NearLinear { factor } => {
                assert!(factor >= 1.0);
                factor * nf
            }
            MemoryRegime::StronglySublinear { beta } => {
                assert!((0.0..1.0).contains(&beta));
                nf.powf(1.0 - beta)
            }
        };
        s.ceil().max(1.0) as usize
    }
}

/// What to do when a model constraint is exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enforcement {
    /// Panic immediately — for tests asserting an algorithm obeys the model.
    Strict,
    /// Record a [`Violation`](crate::Violation) in the trace and continue —
    /// for experiments that *measure* how close to the cap an execution runs.
    Audit,
}

/// Former choice of host round engine, kept only so that existing
/// callers of `MpcMwvcConfig::with_scheduler` and
/// `RoundCompressConfig::with_scheduler` still compile. The value is
/// ignored: the simulator has one engine, the barrier round loop of
/// [`Cluster::round`](crate::Cluster::round). This enum and those two
/// methods go with the next change to the benchmark.
#[derive(Debug, Clone, Copy)]
pub enum RoundScheduler {
    /// Ignored.
    Barrier,
    /// Ignored.
    Pipelined,
}

/// How literally the per-machine memory cap `S` is taken.
///
/// Historically the simulator *accounted* resident memory (and, under
/// [`Enforcement::Strict`], panicked on overruns) but executors were free
/// to hold whole adjacency shards in RAM and treat the cap as a
/// statistic. `Enforced` closes that loophole for the out-of-core path:
/// a machine that would exceed `S` **must** move words to its per-machine
/// spill file ([`crate::SpillFile`], reported as
/// [`RoundStats::spill_words`](crate::RoundStats)) — exceeding `S`
/// without spilling is a hard error regardless of the
/// [`Enforcement`] policy, never a recorded-and-ignored violation.
///
/// # Examples
///
/// ```
/// use mpc_sim::{MemoryBudget, MpcConfig};
///
/// // Legacy behavior: cap violations follow the enforcement policy.
/// let cfg = MpcConfig::new(4, 1 << 20);
/// assert_eq!(cfg.budget, MemoryBudget::AccountOnly);
///
/// // Out-of-core behavior: resident > S always aborts the run.
/// let cfg = cfg.with_budget(MemoryBudget::Enforced);
/// assert_eq!(cfg.budget, MemoryBudget::Enforced);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryBudget {
    /// Resident memory is accounted; overruns follow the
    /// [`Enforcement`] policy (panic under `Strict`, recorded under
    /// `Audit`). The historical default.
    #[default]
    AccountOnly,
    /// Resident memory above `S` is a hard error even under
    /// [`Enforcement::Audit`]: machines are expected to spill instead of
    /// holding more than `S` words.
    Enforced,
}

/// Static configuration of an MPC cluster.
///
/// # Examples
///
/// ```
/// use mpc_sim::{MemoryRegime, MpcConfig};
///
/// // 1e6 input words in the near-linear regime S = 4n at n = 10_000:
/// // the model's natural machine count is M = ceil(input / S).
/// let cfg = MpcConfig::for_input(10_000, 1_000_000, MemoryRegime::NearLinear { factor: 4.0 });
/// assert_eq!(cfg.memory_words, 40_000);
/// assert_eq!(cfg.num_machines, 25);
/// assert!(cfg.total_memory_words() >= 1_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcConfig {
    /// Number of machines `M`.
    pub num_machines: usize,
    /// Memory words per machine `S`: caps resident state and per-round
    /// sent/received traffic.
    pub memory_words: usize,
    /// Constraint policy.
    pub enforcement: Enforcement,
    /// Whether the resident cap is merely accounted or hard-enforced
    /// (spill-or-die).
    pub budget: MemoryBudget,
    /// Deterministic fault-injection plan (inactive by default). Active
    /// plans require [`Cluster::try_round`](crate::Cluster::try_round)
    /// to surface unrecoverable faults as typed errors.
    pub faults: crate::faults::FaultConfig,
}

impl MpcConfig {
    /// Cluster with explicit machine count and memory.
    pub fn new(num_machines: usize, memory_words: usize) -> Self {
        assert!(num_machines >= 1, "need at least one machine");
        assert!(memory_words >= 1, "memory budget must be positive");
        Self {
            num_machines,
            memory_words,
            enforcement: Enforcement::Strict,
            budget: MemoryBudget::AccountOnly,
            faults: crate::faults::FaultConfig::none(),
        }
    }

    /// Cluster sized for an input of `input_words` total words under the
    /// given regime at vertex count `n`: `S` from the regime,
    /// `M = ceil(input/S)` machines (the model's natural lower bound,
    /// `M ≥ N/S`), at least one.
    pub fn for_input(n: usize, input_words: usize, regime: MemoryRegime) -> Self {
        let s = regime.memory_words(n);
        let m = input_words.div_ceil(s).max(1);
        Self::new(m, s)
    }

    /// Switches to audit-mode enforcement.
    pub fn audited(mut self) -> Self {
        self.enforcement = Enforcement::Audit;
        self
    }

    /// Selects the memory-budget policy (see [`MemoryBudget`]).
    pub fn with_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Installs a deterministic fault-injection plan (see
    /// [`crate::faults::FaultConfig`]).
    pub fn with_faults(mut self, faults: crate::faults::FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Total memory across the cluster.
    pub fn total_memory_words(&self) -> usize {
        self.num_machines * self.memory_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regimes_order_at_fixed_n() {
        let n = 10_000;
        let sub = MemoryRegime::StronglySublinear { beta: 0.5 }.memory_words(n);
        let lin = MemoryRegime::NearLinear { factor: 4.0 }.memory_words(n);
        let sup = MemoryRegime::StronglySuperlinear { beta: 0.5 }.memory_words(n);
        assert!(sub < lin && lin < sup);
        assert_eq!(sub, 100);
        assert_eq!(lin, 40_000);
        assert_eq!(sup, 1_000_000);
    }

    #[test]
    fn for_input_covers_the_input() {
        let cfg = MpcConfig::for_input(1000, 123_456, MemoryRegime::NearLinear { factor: 2.0 });
        assert!(cfg.total_memory_words() >= 123_456);
        assert_eq!(cfg.memory_words, 2000);
        assert_eq!(cfg.num_machines, 62);
    }

    #[test]
    fn for_input_minimum_one_machine() {
        let cfg = MpcConfig::for_input(100, 5, MemoryRegime::NearLinear { factor: 1.0 });
        assert_eq!(cfg.num_machines, 1);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_rejected() {
        let _ = MpcConfig::new(0, 10);
    }

    #[test]
    fn audited_flips_enforcement() {
        let cfg = MpcConfig::new(2, 10);
        assert_eq!(cfg.enforcement, Enforcement::Strict);
        assert_eq!(cfg.audited().enforcement, Enforcement::Audit);
    }

    #[test]
    fn budget_defaults_to_account_only_and_flips() {
        let cfg = MpcConfig::new(2, 10);
        assert_eq!(cfg.budget, MemoryBudget::AccountOnly);
        assert_eq!(
            cfg.with_budget(MemoryBudget::Enforced).budget,
            MemoryBudget::Enforced
        );
    }
}
