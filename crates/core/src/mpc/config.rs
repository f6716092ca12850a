//! Configuration of the MPC simulation (Algorithm 2).
//!
//! Every constant of the paper's Algorithm 2 is a field here, with two
//! named profiles:
//!
//! * [`MpcMwvcConfig::paper`] — the literal constants of the paper:
//!   `V^high` cutoff `d^0.95`, `m = √d` machines,
//!   `I = log m / (10·log 15)` iterations, bias `2·m^{-0.2}·15^t·w'(v)`,
//!   switchover at `d ≤ log^30 n`. These are *asymptotic* constants: for
//!   any graph that fits in one computer, `I < 1` (so each phase runs a
//!   single compressed iteration) and `log^30 n` exceeds every realizable
//!   average degree (so the switchover fires immediately and everything is
//!   solved in the final centralized phase). The profile exists to show
//!   exactly that, and for the scaled-down coupling experiments.
//! * [`MpcMwvcConfig::practical`] — identical functional forms with
//!   constants chosen so that round compression is visible at
//!   `n ≤ 10^6`: more iterations per phase, lower `V^high` cutoff,
//!   smaller bias.
//!
//! **Bias growth note.** Algorithm 2 writes the estimator bias as
//! `2m^{-0.2}·15^t`; dimensional analysis of Definition 4.9 /
//! Corollary 4.12 (all bounds carry a `w'(v)` factor) shows the intended
//! term is `2m^{-0.2}·15^t·w'(v)`, which we implement. The growth base 15
//! is tied to the paper's iteration schedule: it equals
//! `m^{0.1/I}` when `I = log m/(10 log 15)`. We therefore parameterize the
//! bias as `coeff · m^{-exp} · g^t · w'(v)` with `g = m^{exp/(2I)}`, which
//! reproduces the literal 15 under the paper schedule and stays bounded
//! (`bias(I) = coeff·m^{-exp/2}·w'`) under any other schedule.

use crate::init::InitScheme;
use crate::thresholds::ThresholdScheme;
use mpc_sim::RoundScheduler;

/// How many local iterations `I` a phase simulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IterationSchedule {
    /// The paper's `I = log m / (10 · log 15)`, floored, minimum 1.
    Paper,
    /// `I = ceil(power · ln d / ln(1/(1-ε)))`, minimum 1 — chosen so that
    /// active out-degrees shrink by `(1-ε)^I ≈ d^{-power}` per phase
    /// (Observation 4.3 / Lemma 4.4 with a visible rate).
    DegreePower {
        /// Per-phase degree-reduction exponent.
        power: f64,
    },
}

impl IterationSchedule {
    /// Number of iterations for a phase with `machines` machines and
    /// current average degree `d`, given `epsilon`.
    pub fn iterations(&self, machines: usize, d: f64, epsilon: f64) -> usize {
        let m = machines.max(1) as f64;
        let i = match *self {
            IterationSchedule::Paper => (m.ln() / (10.0 * 15.0f64.ln())).floor(),
            IterationSchedule::DegreePower { power } => {
                (power * d.max(2.0).ln() / (1.0 / (1.0 - epsilon)).ln()).ceil()
            }
        };
        (i as usize).max(1)
    }
}

/// The one-sided estimator bias (Algorithm 2 line 2(g)i).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasParams {
    /// Leading coefficient (paper: 2). `0.0` gives the unbiased estimator
    /// of [GGK+18] (ablation E13).
    pub coeff: f64,
    /// Machine-count exponent (paper: 0.2, as in `m^{-0.2}`).
    pub exponent: f64,
}

impl BiasParams {
    /// Bias fractions `bias(t)/w'(v)` for `t = 0..=iterations`, derived
    /// from the machine count (see the module docs for the growth-base
    /// derivation).
    ///
    /// With a single machine the local sum *is* the exact incident weight
    /// (no sampling noise to dominate), so the bias is zero — the paper
    /// never meets this case because `m = √d` is always large there.
    pub fn schedule(&self, machines: usize, iterations: usize) -> Vec<f64> {
        if machines <= 1 {
            return vec![0.0; iterations + 1];
        }
        let m = (machines.max(1)) as f64;
        let base = self.coeff * m.powf(-self.exponent);
        let growth = m.powf(self.exponent / (2.0 * iterations.max(1) as f64));
        (0..=iterations)
            .map(|t| base * growth.powi(t as i32))
            .collect()
    }
}

/// When to stop the phase loop and solve the remainder centrally
/// (Algorithm 2 line 2 / line 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseSwitch {
    /// The paper's literal `d ≤ log^30 n`.
    PaperLog30,
    /// `d ≤ value`.
    AvgDegree(f64),
}

impl PhaseSwitch {
    /// Whether to leave the phase loop at average degree `d` on an
    /// `n`-vertex input.
    pub fn should_switch(&self, d: f64, n: usize) -> bool {
        match *self {
            PhaseSwitch::PaperLog30 => {
                let ln = (n.max(2) as f64).ln() / 2.0f64.ln();
                d <= ln.powi(30)
            }
            PhaseSwitch::AvgDegree(v) => d <= v,
        }
    }
}

/// Full configuration of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpcMwvcConfig {
    /// Accuracy parameter `ε ∈ (0, 1/4]`; the cover is `(2+30ε)`-approximate
    /// for `ε < 1/4`. The boundary value `ε = 1/4` is admitted for
    /// benchmarking the cheap-and-loose end of the accuracy spectrum: the
    /// algorithm and its certificate machinery stay sound there (every
    /// certified ratio is still a true a-posteriori bound), only the
    /// paper's a-priori constant is quoted for the open interval.
    pub epsilon: f64,
    /// Seed for all randomness (partitions, thresholds).
    pub seed: u64,
    /// Initial edge-weight scheme (paper: [`InitScheme::DegreeWeighted`]).
    pub init: InitScheme,
    /// Threshold scheme (paper: [`ThresholdScheme::UniformRandom`]).
    pub thresholds: ThresholdScheme,
    /// `V^high = {v : d(v) ≥ d^high_degree_exponent}` (paper: 0.95).
    pub high_degree_exponent: f64,
    /// `m = ceil(d^machine_exponent)` machines per phase (paper: 0.5).
    pub machine_exponent: f64,
    /// Iterations per phase.
    pub iterations: IterationSchedule,
    /// Estimator bias.
    pub bias: BiasParams,
    /// Switchover to the final centralized phase.
    pub switch: PhaseSwitch,
    /// Hard cap on phases (guards configurations that cannot progress).
    pub max_phases: usize,
    /// Deterministic fault-injection plan for the simulator cluster
    /// (inactive by default). Covers and certificates are bit-identical
    /// under every recoverable plan; unrecoverable plans surface as
    /// typed errors through [`run_distributed`](super::run_distributed)'s
    /// `try_` form.
    pub faults: mpc_sim::FaultConfig,
}

impl MpcMwvcConfig {
    /// The paper's literal constants. See module docs for why this profile
    /// degenerates (by design) at laptop scale.
    pub fn paper(epsilon: f64, seed: u64) -> Self {
        Self {
            epsilon,
            seed,
            init: InitScheme::DegreeWeighted,
            thresholds: ThresholdScheme::UniformRandom,
            high_degree_exponent: 0.95,
            machine_exponent: 0.5,
            iterations: IterationSchedule::Paper,
            bias: BiasParams {
                coeff: 2.0,
                exponent: 0.2,
            },
            switch: PhaseSwitch::PaperLog30,
            max_phases: 1000,
            faults: mpc_sim::FaultConfig::none(),
        }
    }

    /// The paper's iteration schedule at its laptop-scale value (`I = 1`
    /// compressed iteration per phase — the literal
    /// `⌊log m/(10 log 15)⌋ ∨ 1` for every representable machine count),
    /// with the switchover lowered so that the full multi-phase structure
    /// of Algorithm 2 plays out instead of being absorbed by the final
    /// centralized phase. This is the profile that *exhibits the round
    /// structure* (experiments E01/E05/E09); [`Self::practical`] is the
    /// profile that *solves fastest*.
    pub fn paper_scaled(epsilon: f64, seed: u64) -> Self {
        Self {
            epsilon,
            seed,
            init: InitScheme::DegreeWeighted,
            thresholds: ThresholdScheme::UniformRandom,
            high_degree_exponent: 0.9,
            machine_exponent: 0.5,
            iterations: IterationSchedule::Paper,
            bias: BiasParams {
                coeff: 1.0,
                exponent: 0.5,
            },
            switch: PhaseSwitch::AvgDegree(2.0),
            max_phases: 300,
            faults: mpc_sim::FaultConfig::none(),
        }
    }

    /// Same functional forms, constants tuned so round compression is
    /// visible at experimental scale.
    pub fn practical(epsilon: f64, seed: u64) -> Self {
        Self {
            epsilon,
            seed,
            init: InitScheme::DegreeWeighted,
            thresholds: ThresholdScheme::UniformRandom,
            high_degree_exponent: 0.7,
            machine_exponent: 0.5,
            iterations: IterationSchedule::DegreePower { power: 0.3 },
            // coeff 1.0 ≈ the estimator's sampling noise scale d^{-1/4}
            // at m = √d, which keeps the estimate one-sided in practice
            // (~4% violations at d = 64..256, vs ~44% unbiased) at a
            // ~5% cover-weight premium; measured in experiment E13.
            bias: BiasParams {
                coeff: 1.0,
                exponent: 0.5,
            },
            switch: PhaseSwitch::AvgDegree(8.0),
            max_phases: 200,
            faults: mpc_sim::FaultConfig::none(),
        }
    }

    /// Machine count for a phase at average degree `d`.
    pub fn machines_for(&self, d: f64) -> usize {
        (d.max(1.0).powf(self.machine_exponent).round() as usize).max(1)
    }

    /// `V^high` degree cutoff for average degree `d`.
    pub fn high_degree_cutoff(&self, d: f64) -> f64 {
        d.max(1.0).powf(self.high_degree_exponent)
    }

    /// Returns `self` unchanged: the scheduler value is ignored, because
    /// the simulator has one round engine (barrier rounds). Kept only for
    /// existing callers; this method and [`RoundScheduler`] go with the
    /// next change to the benchmark.
    pub fn with_scheduler(self, _scheduler: RoundScheduler) -> Self {
        self
    }

    /// Installs a deterministic fault-injection plan for the simulator
    /// cluster (see [`mpc_sim::FaultConfig`]).
    pub fn with_faults(mut self, faults: mpc_sim::FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Validates parameter ranges.
    pub fn validate(&self) {
        assert!(
            self.epsilon > 0.0 && self.epsilon <= 0.25,
            "epsilon must lie in (0, 1/4]"
        );
        assert!((0.0..=1.0).contains(&self.high_degree_exponent));
        assert!((0.0..=1.0).contains(&self.machine_exponent));
        assert!(self.max_phases >= 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_iteration_schedule_reproduces_constants() {
        // I = log m / (10 log 15). The first machine count with I = 2 is
        // m = 15^20 ≈ 3·10^23 — beyond the 64-bit address space, which is
        // the degeneracy the module docs describe. For every representable
        // m the paper schedule gives a single compressed iteration:
        for m in [100usize, 1 << 20, 15usize.pow(15)] {
            assert_eq!(IterationSchedule::Paper.iterations(m, 1e9, 0.1), 1);
        }
    }

    #[test]
    fn degree_power_schedule_hits_reduction_target() {
        let eps = 0.1;
        let d = 1024.0;
        let i = IterationSchedule::DegreePower { power: 0.25 }.iterations(32, d, eps);
        // (1-eps)^I should be ~ d^{-1/4}.
        let reduction = (1.0 - eps).powi(i as i32);
        let target = d.powf(-0.25);
        assert!(reduction <= target * 1.05, "{reduction} vs {target}");
        assert!(reduction >= target * (1.0 - eps) * 0.95);
    }

    #[test]
    fn paper_bias_growth_base_is_fifteen() {
        // Under the paper relation I = log m / (10 log 15), the derived
        // growth base m^{0.2/(2I)} equals exactly 15. Take m = 15^10, for
        // which that relation gives I = 1.
        let m = 15usize.pow(10);
        let i = 1usize;
        let bias = BiasParams {
            coeff: 2.0,
            exponent: 0.2,
        };
        let sched = bias.schedule(m, i);
        let ratio = sched[1] / sched[0];
        assert!(
            (ratio - 15.0).abs() < 1e-6,
            "derived growth base {ratio} should be 15 under the paper schedule"
        );
    }

    #[test]
    fn bias_disabled_is_zero() {
        let bias = BiasParams {
            coeff: 0.0,
            exponent: 0.2,
        };
        assert!(bias.schedule(100, 5).iter().all(|&b| b.to_bits() == 0));
    }

    #[test]
    fn bias_is_increasing_and_bounded() {
        let bias = BiasParams {
            coeff: 0.25,
            exponent: 0.5,
        };
        let m = 64;
        let i = 10;
        let sched = bias.schedule(m, i);
        assert_eq!(sched.len(), 11);
        for w in sched.windows(2) {
            assert!(w[0] < w[1]);
        }
        // bias(I) = coeff * m^{-exp/2}.
        let expected_end = 0.25 * (m as f64).powf(-0.25);
        assert!((sched[i] - expected_end).abs() < 1e-12);
    }

    #[test]
    fn switch_conditions() {
        assert!(PhaseSwitch::AvgDegree(8.0).should_switch(7.9, 1000));
        assert!(!PhaseSwitch::AvgDegree(8.0).should_switch(8.1, 1000));
        // log2(2^20)^30 = 20^30 — astronomically large: always switches.
        assert!(PhaseSwitch::PaperLog30.should_switch(1e18, 1 << 20));
    }

    #[test]
    fn machine_count_and_cutoff() {
        let cfg = MpcMwvcConfig::paper(0.1, 0);
        assert_eq!(cfg.machines_for(256.0), 16);
        assert_eq!(cfg.machines_for(0.5), 1);
        assert!((cfg.high_degree_cutoff(256.0) - 256.0f64.powf(0.95)).abs() < 1e-9);
    }

    #[test]
    fn profiles_validate() {
        MpcMwvcConfig::paper(0.1, 0).validate();
        MpcMwvcConfig::practical(0.05, 1).validate();
        MpcMwvcConfig::paper_scaled(0.1, 2).validate();
        // The benchmark matrix's loose end: ε = 1/4 is the admitted boundary.
        MpcMwvcConfig::practical(0.25, 3).validate();
    }

    #[test]
    fn paper_scaled_uses_single_iteration_phases() {
        let cfg = MpcMwvcConfig::paper_scaled(0.1, 0);
        for d in [8.0f64, 64.0, 1024.0] {
            let m = cfg.machines_for(d);
            assert_eq!(cfg.iterations.iterations(m, d, cfg.epsilon), 1);
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_rejected() {
        MpcMwvcConfig::paper(0.4, 0).validate();
    }
}
