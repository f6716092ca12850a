//! Configuration of the round-compression executor: the local solver, the
//! per-machine budget that drives the part-count schedule, and the level
//! cap. All randomness (partitions, thresholds) derives from one seed.

use mpc_sim::RoundScheduler;
use mwvc_core::{InitScheme, ThresholdScheme};
use serde::{Deserialize, Serialize};

/// Which complete solver each part machine (and the final centralized
/// phase) runs on its induced residual instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocalSolver {
    /// Algorithm 1 of Ghaffari–Jin–Nilis (`mwvc_core::run_centralized_raw`)
    /// with freeze thresholds in `[1-4ε, 1-2ε]`: every frozen vertex
    /// carries incident dual `≥ (1-4ε)·w'`, so the global certificate
    /// proves a `2/(1-4ε) = 2+O(ε)` ratio.
    PrimalDual,
    /// Bar-Yehuda–Even pricing (`mwvc_baselines::bar_yehuda_even`): frozen
    /// vertices are exactly tight, certifying a plain factor 2; ε plays no
    /// role.
    Pricing,
}

impl LocalSolver {
    /// Stable label for tables and reports.
    pub fn label(&self) -> &'static str {
        match self {
            LocalSolver::PrimalDual => "primal-dual",
            LocalSolver::Pricing => "pricing",
        }
    }
}

/// How many induced edges one part machine may be asked to hold — the
/// quantity the part-count schedule ([`parts_for`]) keeps bounded, and the
/// switch point of the final centralized phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BudgetRule {
    /// `budget = ceil(factor · n)` edges — the near-linear-memory regime
    /// (`S = Θ(n)` words) the source paper targets.
    EdgesPerVertex(f64),
    /// A fixed edge budget, independent of the instance.
    FixedEdges(usize),
}

impl BudgetRule {
    /// The edge budget for an `n`-vertex instance (never below 64 so tiny
    /// instances go straight to the final solve).
    pub fn budget_edges(&self, n: usize) -> usize {
        let b = match *self {
            BudgetRule::EdgesPerVertex(f) => (f * n as f64).ceil() as usize,
            BudgetRule::FixedEdges(e) => e,
        };
        b.max(64)
    }
}

/// Full configuration of the round-compression executor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundCompressConfig {
    /// Accuracy parameter `ε ∈ (0, 1/4]` of the [`LocalSolver::PrimalDual`]
    /// solver (threshold window `[1-4ε, 1-2ε]`). Ignored by
    /// [`LocalSolver::Pricing`].
    pub epsilon: f64,
    /// Seed for all randomness (per-level partitions, thresholds).
    pub seed: u64,
    /// The local solver run on every part and on the final residual.
    pub solver: LocalSolver,
    /// Initial-matching scheme of the primal-dual solver.
    pub init: InitScheme,
    /// Threshold scheme of the primal-dual solver.
    pub thresholds: ThresholdScheme,
    /// Per-machine induced-edge budget (drives `m` and the final switch).
    pub budget: BudgetRule,
    /// Hard cap on compression levels (stall guard). A cap low enough to
    /// fire before the residual shrinks under the budget forces a final
    /// gather larger than [`crate::recommended_cluster`]'s sizing assumes
    /// — under strict enforcement that run panics rather than degrading
    /// (same policy as the baseline executor's stall path); size the
    /// cluster yourself or use an audited config when experimenting with
    /// tiny caps.
    pub max_levels: usize,
    /// Deterministic fault-injection plan for the simulator cluster
    /// ([`mpc_sim::FaultConfig::none`] by default). Under any handled
    /// plan the gated outputs are bit-identical to the fault-free run.
    pub faults: mpc_sim::FaultConfig,
}

impl RoundCompressConfig {
    /// The default profile: Algorithm 1 local solves (ε-parameterized,
    /// certified `2+O(ε)`), degree-weighted initialization, a `2n`-edge
    /// machine budget.
    pub fn practical(epsilon: f64, seed: u64) -> Self {
        Self {
            epsilon,
            seed,
            solver: LocalSolver::PrimalDual,
            init: InitScheme::DegreeWeighted,
            thresholds: ThresholdScheme::UniformRandom,
            budget: BudgetRule::EdgesPerVertex(2.0),
            max_levels: 100,
            faults: mpc_sim::FaultConfig::none(),
        }
    }

    /// The ε-free variant: Bar-Yehuda–Even pricing local solves, certified
    /// factor 2.
    pub fn pricing(seed: u64) -> Self {
        Self {
            solver: LocalSolver::Pricing,
            ..Self::practical(0.25, seed)
        }
    }

    /// Returns `self` unchanged: the scheduler value is ignored, because
    /// the simulator has one round engine (barrier rounds). Kept only for
    /// existing callers; this method and [`RoundScheduler`] go with the
    /// next change to the benchmark.
    pub fn with_scheduler(self, _scheduler: RoundScheduler) -> Self {
        self
    }

    /// Arms the given fault-injection plan on the simulator cluster.
    pub fn with_faults(mut self, faults: mpc_sim::FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// The configured edge budget for an `n`-vertex instance.
    pub fn budget_edges(&self, n: usize) -> usize {
        self.budget.budget_edges(n)
    }

    /// Validates parameter ranges.
    pub fn validate(&self) {
        assert!(
            self.epsilon > 0.0 && self.epsilon <= 0.25,
            "epsilon must lie in (0, 1/4]"
        );
        assert!(self.max_levels >= 1, "need at least one level");
        if let BudgetRule::EdgesPerVertex(f) = self.budget {
            assert!(f > 0.0 && f.is_finite(), "budget factor must be positive");
        }
    }
}

/// The part-count schedule: the smallest `m ≥ 2` keeping the *expected*
/// induced subgraph of one random part (`E/m²` edges) at or below half the
/// machine budget — the factor-2 slack absorbs partition fluctuations.
pub fn parts_for(active_edges: usize, budget_edges: usize) -> usize {
    if active_edges == 0 {
        return 1;
    }
    let m = (2.0 * active_edges as f64 / budget_edges.max(1) as f64)
        .sqrt()
        .ceil() as usize;
    m.max(2)
}

/// Domain-separated partition seed of a compression level. Pure in
/// `(seed, level)` so every machine derives it without communication.
pub fn level_seed(seed: u64, level: u32) -> u64 {
    seed ^ (level as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x006c_6576_656c
    // "level"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_validate() {
        RoundCompressConfig::practical(0.1, 1).validate();
        RoundCompressConfig::practical(0.25, 2).validate();
        RoundCompressConfig::pricing(3).validate();
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_rejected() {
        RoundCompressConfig::practical(0.3, 1).validate();
    }

    #[test]
    fn budget_scales_with_n_and_floors() {
        let b = BudgetRule::EdgesPerVertex(2.0);
        assert_eq!(b.budget_edges(1024), 2048);
        assert_eq!(b.budget_edges(4), 64, "tiny instances floor at 64");
        assert_eq!(BudgetRule::FixedEdges(500).budget_edges(10_000), 500);
    }

    #[test]
    fn parts_keep_expected_induced_size_within_half_budget() {
        for &(e, b) in &[(8192usize, 2048usize), (100_000, 4096), (65, 64)] {
            let m = parts_for(e, b);
            assert!(m >= 2);
            assert!(
                e as f64 / (m * m) as f64 <= b as f64 / 2.0 + 1e-9,
                "E={e} B={b} m={m}"
            );
            // And m is the smallest such (schedule is not overly cautious).
            if m > 2 {
                let m1 = m - 1;
                assert!(e as f64 / (m1 * m1) as f64 > b as f64 / 2.0);
            }
        }
        assert_eq!(parts_for(0, 64), 1);
    }

    #[test]
    fn level_seeds_are_distinct() {
        let s: Vec<u64> = (0..32).map(|l| level_seed(7, l)).collect();
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), s.len());
        assert_ne!(level_seed(7, 0), level_seed(8, 0));
    }
}
