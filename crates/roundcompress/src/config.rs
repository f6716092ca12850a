//! Configuration of the round-compression executor: the accuracy of its
//! Algorithm 1 solves, the per-machine budget that drives the part-count
//! schedule, and the fault plan. All randomness (partitions, thresholds)
//! derives from one seed.

use mpc_sim::RoundScheduler;

/// Full configuration of the round-compression executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundCompressConfig {
    /// Accuracy parameter `ε ∈ (0, 1/4]` of the Algorithm 1 solves
    /// (threshold window `[1-4ε, 1-2ε]`).
    pub epsilon: f64,
    /// Seed for all randomness (per-level partitions, thresholds).
    pub seed: u64,
    /// Per-machine induced-edge budget, in edges per input vertex: one
    /// part machine may be asked to hold `ceil(factor · n)` edges (never
    /// fewer than 64) — the near-linear-memory regime (`S = Θ(n)` words)
    /// the source paper targets. The budget drives the part-count
    /// schedule ([`parts_for`]) and the switch to the final solve.
    pub edges_per_vertex: f64,
    /// Deterministic fault-injection plan for the simulator cluster
    /// ([`mpc_sim::FaultConfig::none`] by default). Under any handled
    /// plan the gated outputs are bit-identical to the fault-free run.
    pub faults: mpc_sim::FaultConfig,
}

impl RoundCompressConfig {
    /// The default profile: certified `2+O(ε)` local solves and a
    /// `2n`-edge machine budget.
    pub fn practical(epsilon: f64, seed: u64) -> Self {
        Self {
            epsilon,
            seed,
            edges_per_vertex: 2.0,
            faults: mpc_sim::FaultConfig::none(),
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

    /// The edge budget for an `n`-vertex instance (never below 64, so
    /// tiny instances go straight to the final solve).
    pub fn budget_edges(&self, n: usize) -> usize {
        ((self.edges_per_vertex * n as f64).ceil() as usize).max(64)
    }

    /// Validates parameter ranges.
    pub fn validate(&self) {
        assert!(
            self.epsilon > 0.0 && self.epsilon <= 0.25,
            "epsilon must lie in (0, 1/4]"
        );
        let f = self.edges_per_vertex;
        assert!(f > 0.0 && f.is_finite(), "budget factor must be positive");
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
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_rejected() {
        RoundCompressConfig::practical(0.3, 1).validate();
    }

    fn with_budget_factor(edges_per_vertex: f64) -> RoundCompressConfig {
        RoundCompressConfig {
            edges_per_vertex,
            ..RoundCompressConfig::practical(0.1, 1)
        }
    }

    #[test]
    #[should_panic(expected = "budget factor must be positive")]
    fn zero_budget_factor_rejected() {
        with_budget_factor(0.0).validate();
    }

    #[test]
    #[should_panic(expected = "budget factor must be positive")]
    fn negative_budget_factor_rejected() {
        with_budget_factor(-1.0).validate();
    }

    #[test]
    #[should_panic(expected = "budget factor must be positive")]
    fn nan_budget_factor_rejected() {
        with_budget_factor(f64::NAN).validate();
    }

    #[test]
    #[should_panic(expected = "budget factor must be positive")]
    fn infinite_budget_factor_rejected() {
        with_budget_factor(f64::INFINITY).validate();
    }

    #[test]
    fn budget_scales_with_n_and_floors() {
        let b = RoundCompressConfig::practical(0.1, 1);
        assert_eq!(b.budget_edges(1024), 2048);
        assert_eq!(b.budget_edges(4), 64, "tiny instances floor at 64");
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
