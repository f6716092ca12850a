//! Coupled execution of Algorithm 2 against the centralized Algorithm 1
//! (the measurement apparatus of Lemma 4.6 and Lemma 4.8).
//!
//! For each phase of the MPC run, the paper's analysis imagines running
//! the centralized algorithm on the induced `V^high` subgraph *with the
//! same* residual weights, initial edge values and random thresholds, and
//! bounds how far the MPC estimates stray from the centralized truth:
//!
//! * Lemma 4.6: `|y_{v,t} − ỹ^MPC_{v,t}| ≤ 6ε·w'(v)` and
//!   `|y_{v,t} − y^MPC_{v,t}| ≤ 6ε·w'(v)` for all `v`, `t ≤ I`, w.h.p.
//! * Lemma 4.13(3): for good vertices the biased estimate is one-sided,
//!   `ỹ^MPC_{v,t} ≥ y_{v,t}`.
//! * Lemma 4.8: a vertex turns *bad* (freezes in one run but not the
//!   other) in iteration `t` with probability at most `σ/ε`.
//!
//! This module reconstructs `y`, `y^MPC` and `ỹ^MPC` exactly from the
//! freeze times (the dual values are `x_0·(1-ε)^{-min(t, t_freeze)}`, so no
//! per-iteration state needs to be retained) and reports per-iteration
//! deviation and bad-vertex statistics for experiments E06, E07, E12
//! and E13.

use crate::centralized::{run_centralized_raw, CentralizedParams};
use crate::mpc::config::MpcMwvcConfig;
use crate::mpc::reference::{run_reference_observed, PhaseObserver, PhaseSnapshot};
use crate::mpc::stats::MpcRunResult;
use mwvc_graph::WeightedGraph;

/// Deviation and bad-vertex statistics of one iteration of one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationDeviation {
    /// Iteration index `t`.
    pub t: u32,
    /// `max_v |y_{v,t} − ỹ^MPC_{v,t}| / w'(v)` over vertices still good at
    /// the start of `t` — the Lemma 4.6 quantity for the local estimator.
    pub max_dev_estimate: f64,
    /// Mean of the same quantity.
    pub mean_dev_estimate: f64,
    /// `max_v |y_{v,t} − y^MPC_{v,t}| / w'(v)` over good vertices — the
    /// Lemma 4.6 quantity for the reconstructed global values.
    pub max_dev_global: f64,
    /// Fraction of good vertices with `ỹ^MPC < y` — one-sidedness
    /// violations (Lemma 4.13(3) says ≈ 0 with the bias enabled).
    pub one_sided_violations: f64,
    /// Fraction of `V^high` that is bad (frozen in exactly one of the two
    /// runs) at the end of iteration `t`.
    pub bad_fraction: f64,
    /// Vertices that turned bad in this iteration.
    pub newly_bad: usize,
}

/// Coupling statistics of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCoupling {
    /// Phase index.
    pub phase: usize,
    /// `|V^high|`.
    pub n_high: usize,
    /// Machines `m`.
    pub machines: usize,
    /// Iterations `I`.
    pub iterations: usize,
    /// Per-iteration deviations for `t = 0..I`.
    pub per_iteration: Vec<IterationDeviation>,
    /// Total vertices ever bad in this phase.
    pub total_bad: usize,
}

impl PhaseCoupling {
    /// Largest estimator deviation across iterations.
    pub fn worst_dev_estimate(&self) -> f64 {
        self.per_iteration
            .iter()
            .map(|d| d.max_dev_estimate)
            .fold(0.0, f64::max)
    }

    /// Largest global deviation across iterations.
    pub fn worst_dev_global(&self) -> f64 {
        self.per_iteration
            .iter()
            .map(|d| d.max_dev_global)
            .fold(0.0, f64::max)
    }
}

/// Full coupling report for a run.
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingReport {
    /// One entry per phase.
    pub phases: Vec<PhaseCoupling>,
}

impl CouplingReport {
    /// Largest estimator deviation across the whole run, in units of
    /// `ε` (Lemma 4.6 predicts ≤ 6).
    pub fn worst_dev_in_epsilons(&self, epsilon: f64) -> f64 {
        self.phases
            .iter()
            .map(|p| p.worst_dev_estimate())
            .fold(0.0, f64::max)
            / epsilon
    }

    /// Fraction of one-sidedness violations across all phase-iterations.
    pub fn total_one_sided_violations(&self) -> f64 {
        let (sum, count) = self
            .phases
            .iter()
            .flat_map(|p| p.per_iteration.iter())
            .fold((0.0, 0usize), |(s, c), d| {
                (s + d.one_sided_violations, c + 1)
            });
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

struct CouplingObserver {
    report: CouplingReport,
}

impl PhaseObserver for CouplingObserver {
    fn on_phase(&mut self, snap: &PhaseSnapshot<'_>) {
        let eps = snap.config.epsilon;
        let growth = 1.0 / (1.0 - eps);
        let iters = snap.iterations;
        let k = snap.local_to_global.len();

        // The imagined centralized run: same graph, weights, init, and
        // thresholds, for exactly I iterations (Lemma 4.6's setup).
        let thresholds = snap.config.thresholds;
        let seed = snap.config.seed;
        let phase_key = snap.phase_key;
        let central = run_centralized_raw(
            snap.graph,
            snap.eidx,
            snap.residual_weights,
            snap.x0.to_vec(),
            CentralizedParams {
                epsilon: eps,
                max_iterations: iters,
            },
            |lv, t| {
                thresholds.threshold(eps, seed, phase_key, snap.local_to_global[lv as usize], t)
            },
        );

        let sentinel = iters as u32;
        // Freeze times: centralized vs MPC, per local vertex.
        let fc: Vec<u32> = central
            .freeze_iteration
            .iter()
            .map(|f| f.unwrap_or(sentinel))
            .collect();
        let fm: Vec<u32> = snap
            .freeze_iter
            .iter()
            .map(|f| f.unwrap_or(sentinel))
            .collect();
        // Edge freeze times. Centralized: recorded directly. MPC: an edge
        // (local or cross-partition) freezes at the earlier endpoint
        // freeze (line 2h).
        let m_edges = snap.eidx.num_edges();
        let tc_edge: Vec<u32> = (0..m_edges)
            .map(|e| central.edge_freeze_iteration[e].unwrap_or(sentinel))
            .collect();
        let tm_edge: Vec<u32> = snap
            .eidx
            .edges()
            .iter()
            .map(|e| fm[e.u() as usize].min(fm[e.v() as usize]))
            .collect();
        // Which edges are machine-local (the estimator only sees those).
        let local_edge: Vec<bool> = snap
            .eidx
            .edges()
            .iter()
            .map(|e| snap.part_of[e.u() as usize] == snap.part_of[e.v() as usize])
            .collect();

        // x at iteration t: x0 * growth^{min(t, freeze)}.
        let x_at = |x0: f64, freeze: u32, t: u32| x0 * growth.powi(freeze.min(t) as i32);

        let mut per_iteration = Vec::with_capacity(iters + 1);
        let mut ever_bad = vec![false; k];
        for t in 0..iters as u32 {
            let mut max_dev_est = 0.0f64;
            let mut sum_dev_est = 0.0f64;
            let mut max_dev_glob = 0.0f64;
            let mut violations = 0usize;
            let mut good_count = 0usize;
            let mut bad = 0usize;
            let mut newly_bad = 0usize;
            for lv in 0..k {
                let w = snap.residual_weights[lv];
                // Bad status at end of iteration t / start of t.
                let frozen_c = fc[lv] <= t;
                let frozen_m = fm[lv] <= t;
                let was_bad = (fc[lv] < t) != (fm[lv] < t);
                let is_bad = frozen_c != frozen_m;
                if is_bad {
                    bad += 1;
                    if !ever_bad[lv] {
                        ever_bad[lv] = true;
                        newly_bad += 1;
                    }
                }
                if was_bad || w <= 0.0 {
                    continue;
                }
                good_count += 1;
                // Reconstruct y, y^MPC, ỹ^MPC at iteration t.
                let mut y = 0.0f64;
                let mut y_mpc = 0.0f64;
                let mut y_local = 0.0f64;
                let mut ids: Vec<u32> = snap
                    .eidx
                    .incident(snap.graph, lv as u32)
                    .map(|(_, eid)| eid)
                    .collect();
                ids.sort_unstable();
                for eid in ids {
                    let e = eid as usize;
                    y += x_at(snap.x0[e], tc_edge[e], t);
                    let xm = x_at(snap.x0[e], tm_edge[e], t);
                    y_mpc += xm;
                    if local_edge[e] {
                        y_local += xm;
                    }
                }
                let y_tilde = snap.bias[t as usize] * w + snap.machines as f64 * y_local;
                let dev_est = (y - y_tilde).abs() / w;
                let dev_glob = (y - y_mpc).abs() / w;
                max_dev_est = max_dev_est.max(dev_est);
                sum_dev_est += dev_est;
                max_dev_glob = max_dev_glob.max(dev_glob);
                if y_tilde < y {
                    violations += 1;
                }
            }
            per_iteration.push(IterationDeviation {
                t,
                max_dev_estimate: max_dev_est,
                mean_dev_estimate: if good_count > 0 {
                    sum_dev_est / good_count as f64
                } else {
                    0.0
                },
                max_dev_global: max_dev_glob,
                one_sided_violations: if good_count > 0 {
                    violations as f64 / good_count as f64
                } else {
                    0.0
                },
                bad_fraction: if k > 0 { bad as f64 / k as f64 } else { 0.0 },
                newly_bad,
            });
        }

        self.report.phases.push(PhaseCoupling {
            phase: snap.phase,
            n_high: k,
            machines: snap.machines,
            iterations: iters,
            per_iteration,
            total_bad: ever_bad.iter().filter(|&&b| b).count(),
        });
    }
}

/// Runs Algorithm 2 with the coupled centralized run of Lemma 4.6 attached
/// to every phase, returning both the normal result and the coupling
/// report.
pub fn run_coupled(wg: &WeightedGraph, config: &MpcMwvcConfig) -> (MpcRunResult, CouplingReport) {
    let mut obs = CouplingObserver {
        report: CouplingReport { phases: Vec::new() },
    };
    let result = run_reference_observed(wg, config, &mut obs);
    (result, obs.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpc::config::{BiasParams, MpcMwvcConfig};
    use mwvc_graph::generators::gnm;
    use mwvc_graph::WeightModel;

    const EPS: f64 = 0.1;

    fn dense_instance(seed: u64) -> WeightedGraph {
        let g = gnm(1200, 38_400, seed); // d = 64
        let w = WeightModel::Uniform { lo: 1.0, hi: 8.0 }.sample(&g, seed);
        WeightedGraph::new(g, w)
    }

    #[test]
    fn coupling_produces_one_entry_per_phase() {
        let wg = dense_instance(3);
        let cfg = MpcMwvcConfig::practical(EPS, 7);
        let (result, report) = run_coupled(&wg, &cfg);
        assert_eq!(report.phases.len(), result.num_phases());
        assert!(!report.phases.is_empty());
        for (p, stats) in report.phases.iter().zip(&result.phases) {
            assert_eq!(p.n_high, stats.n_high);
            assert_eq!(p.machines, stats.machines);
            assert_eq!(p.iterations, stats.iterations);
            assert_eq!(p.per_iteration.len(), p.iterations);
        }
    }

    #[test]
    fn deviations_are_finite_and_bad_fraction_small() {
        let wg = dense_instance(5);
        let cfg = MpcMwvcConfig::practical(EPS, 11);
        let (_, report) = run_coupled(&wg, &cfg);
        for p in &report.phases {
            for d in &p.per_iteration {
                assert!(d.max_dev_estimate.is_finite());
                assert!(d.max_dev_global.is_finite());
                assert!(d.mean_dev_estimate <= d.max_dev_estimate + 1e-12);
                assert!((0.0..=1.0).contains(&d.bad_fraction));
            }
            // The asymptotic analysis makes bad vertices vanishingly rare
            // because the estimator noise σ ≈ d^{-1/4} is tiny once
            // d ≥ log^30 n. At laptop densities σ is 0.2–0.35, so a
            // substantial minority of vertices near their thresholds
            // resolve differently; experiment E07 charts the decay of the
            // bad fraction with d. Here we only pin down "a minority".
            assert!(
                (p.total_bad as f64) < 0.5 * p.n_high.max(1) as f64,
                "phase {}: {} of {} vertices bad",
                p.phase,
                p.total_bad,
                p.n_high
            );
        }
    }

    #[test]
    fn bias_keeps_estimates_one_sided() {
        // With the bias term on, ỹ < y should be rare (Lemma 4.13(3));
        // with the bias off, the unbiased estimator errs on both sides.
        let wg = dense_instance(9);
        let with_bias = MpcMwvcConfig::practical(EPS, 13);
        let mut without_bias = with_bias;
        without_bias.bias = BiasParams {
            enabled: false,
            ..with_bias.bias
        };
        let (_, rep_on) = run_coupled(&wg, &with_bias);
        let (_, rep_off) = run_coupled(&wg, &without_bias);
        let v_on = rep_on.total_one_sided_violations();
        let v_off = rep_off.total_one_sided_violations();
        assert!(v_on < 0.05, "bias on: {v_on} of estimates fell below truth");
        assert!(
            v_off > 3.0 * v_on + 0.05,
            "bias off should err both ways: on={v_on} off={v_off}"
        );
    }

    #[test]
    fn report_helpers() {
        let wg = dense_instance(21);
        let cfg = MpcMwvcConfig::practical(EPS, 3);
        let (_, report) = run_coupled(&wg, &cfg);
        let worst = report.worst_dev_in_epsilons(EPS);
        assert!(worst >= 0.0 && worst.is_finite());
        for p in &report.phases {
            assert!(p.worst_dev_estimate() >= p.per_iteration[0].max_dev_estimate - 1e-12);
            assert!(p.worst_dev_global().is_finite());
        }
    }
}
