//! Per-machine local simulation (Algorithm 2, line 2g).
//!
//! Given the subgraph induced by its part `V_i`, a machine simulates `I`
//! iterations of the centralized algorithm using only local information:
//! the total incident weight of a vertex is *estimated* from its local
//! neighbors, scaled by the machine count `m`, plus the one-sided bias
//! term:
//!
//! ```text
//! ỹ^MPC_{v,t} = bias(t)·w'(v) + m · Σ_{e∋v, e∈E[V_i]} x^MPC_{e,t}
//! ```
//!
//! freezing `v` when `ỹ^MPC_{v,t} ≥ T_{v,t}·w'(v)`. The caller supplies
//! that test as a predicate: the executors pass the window-gated
//! [`crate::ThresholdScheme::freezes`], which draws `T_{v,t}` only for
//! estimates inside the threshold window, so an iteration costs one
//! estimate and one comparison per active vertex, plus a draw for the few
//! near their threshold.
//!
//! This module is shared verbatim by the in-memory reference executor and
//! the message-passing distributed executor, which is what makes their
//! differential testing meaningful: any divergence is in the orchestration,
//! not in the simulation arithmetic.

use mwvc_graph::VertexId;

/// A local edge: endpoint positions within the machine's vertex list and
/// the initial dual value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalEdge {
    /// Index of one endpoint in [`LocalInstance::vertices`].
    pub u: u32,
    /// Index of the other endpoint.
    pub v: u32,
    /// `x^MPC_{e,0}` — the initial dual value.
    pub x0: f64,
}

/// Everything one machine holds for its local simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalInstance {
    /// Global ids of the machine's vertices, ascending.
    pub vertices: Vec<VertexId>,
    /// Residual weights `w'(v)`, parallel to `vertices`.
    pub residual_weights: Vec<f64>,
    /// Local edges in ascending global-edge-id order (canonical order is
    /// required for bit-reproducibility across executors).
    pub edges: Vec<LocalEdge>,
}

/// Simulation parameters for one phase.
#[derive(Debug, Clone, Copy)]
pub struct LocalSimParams<'a> {
    /// Accuracy parameter `ε`.
    pub epsilon: f64,
    /// Estimator multiplier `m` (the machine count).
    pub estimator_multiplier: f64,
    /// Iterations `I`.
    pub iterations: usize,
    /// Bias fractions `bias(t)/w'(v)` for `t = 0..iterations`.
    pub bias: &'a [f64],
}

/// Result: when each local vertex froze (`None` = survived all `I`
/// iterations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalSimOutput {
    /// Freeze iteration per local vertex, parallel to
    /// [`LocalInstance::vertices`].
    pub freeze_iter: Vec<Option<u32>>,
}

/// Runs the local simulation. `freezes(global_vertex, t, y, w)` must be
/// the shared pure freeze test `y ≥ T_{v,t}·w` — every machine evaluates
/// the same one (the workspace's threshold schemes are pure functions of
/// `(seed, phase, vertex, t)`).
pub fn simulate_local(
    inst: &LocalInstance,
    params: LocalSimParams<'_>,
    freezes: impl Fn(VertexId, u32, f64, f64) -> bool,
) -> LocalSimOutput {
    let k = inst.vertices.len();
    assert_eq!(inst.residual_weights.len(), k);
    assert!(params.bias.len() >= params.iterations);
    let growth = 1.0 / (1.0 - params.epsilon);
    let mult = params.estimator_multiplier;

    let mut active_sum0 = vec![0.0f64; k];
    let mut frozen_sum = vec![0.0f64; k];
    for e in &inst.edges {
        active_sum0[e.u as usize] += e.x0;
        active_sum0[e.v as usize] += e.x0;
    }
    let mut vertex_active = vec![true; k];
    let mut edge_frozen = vec![false; inst.edges.len()];
    let mut freeze_iter: Vec<Option<u32>> = vec![None; k];
    // Incident local edge ids per vertex, for freeze propagation.
    let mut incident: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (eid, e) in inst.edges.iter().enumerate() {
        incident[e.u as usize].push(eid as u32);
        incident[e.v as usize].push(eid as u32);
    }

    let mut growth_t = 1.0f64;
    for t in 0..params.iterations as u32 {
        // Simultaneous freeze test (line 2(g)i): the scan reads only
        // pre-iteration state, so each vertex's verdict is independent.
        let to_freeze: Vec<u32> = (0..k)
            .filter(|&lv| {
                if !vertex_active[lv] {
                    return false;
                }
                let w = inst.residual_weights[lv];
                let y_est = params.bias[t as usize] * w
                    + mult * (frozen_sum[lv] + active_sum0[lv] * growth_t);
                freezes(inst.vertices[lv], t, y_est, w)
            })
            .map(|lv| lv as u32)
            .collect();
        for &lv in &to_freeze {
            vertex_active[lv as usize] = false;
            freeze_iter[lv as usize] = Some(t);
        }
        for &lv in &to_freeze {
            for &leid in &incident[lv as usize] {
                if edge_frozen[leid as usize] {
                    continue;
                }
                edge_frozen[leid as usize] = true;
                let e = inst.edges[leid as usize];
                let x_now = e.x0 * growth_t;
                for z in [e.u, e.v] {
                    active_sum0[z as usize] -= e.x0;
                    frozen_sum[z as usize] += x_now;
                }
            }
        }
        // Lines 2(g)ii/iii via the lazy growth factor.
        growth_t *= growth;
    }

    LocalSimOutput { freeze_iter }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_bias(len: usize, v: f64) -> Vec<f64> {
        vec![v; len]
    }

    fn params(bias: &[f64], mult: f64, iters: usize) -> LocalSimParams<'_> {
        LocalSimParams {
            epsilon: 0.1,
            estimator_multiplier: mult,
            iterations: iters,
            bias,
        }
    }

    #[test]
    fn empty_instance_is_fine() {
        let inst = LocalInstance {
            vertices: vec![],
            residual_weights: vec![],
            edges: vec![],
        };
        let bias = flat_bias(5, 0.0);
        let out = simulate_local(&inst, params(&bias, 2.0, 5), |_, _, y, w| y >= 0.9 * w);
        assert!(out.freeze_iter.is_empty());
    }

    #[test]
    fn isolated_vertex_freezes_only_by_bias() {
        let inst = LocalInstance {
            vertices: vec![7],
            residual_weights: vec![10.0],
            edges: vec![],
        };
        // Bias below threshold: stays active.
        let bias = flat_bias(3, 0.1);
        let out = simulate_local(&inst, params(&bias, 4.0, 3), |_, _, y, w| y >= 0.8 * w);
        assert_eq!(out.freeze_iter, vec![None]);
        // Bias above threshold: freezes at t=0.
        let bias = flat_bias(3, 0.9);
        let out = simulate_local(&inst, params(&bias, 4.0, 3), |_, _, y, w| y >= 0.8 * w);
        assert_eq!(out.freeze_iter, vec![Some(0)]);
    }

    #[test]
    fn single_edge_freezes_when_estimate_crosses() {
        // Two vertices, one edge with x0 = 0.3, multiplier 1, weights 1.
        // y_t = 0.3 / 0.9^t; threshold 0.8: crosses at t where
        // 0.3*1.111^t >= 0.8 -> t >= ln(2.667)/ln(1.111) ~ 9.3 -> t = 10.
        let inst = LocalInstance {
            vertices: vec![0, 1],
            residual_weights: vec![1.0, 1.0],
            edges: vec![LocalEdge {
                u: 0,
                v: 1,
                x0: 0.3,
            }],
        };
        let bias = flat_bias(20, 0.0);
        let out = simulate_local(&inst, params(&bias, 1.0, 20), |_, _, y, w| y >= 0.8 * w);
        assert_eq!(out.freeze_iter[0], Some(10));
        assert_eq!(out.freeze_iter[1], Some(10));
    }

    #[test]
    fn frozen_edges_stop_growing() {
        // Path a-b-c. Vertex b has two incident edges; when a (cheap, low
        // threshold via weight) freezes early, edge (a,b) stops growing
        // while (b,c) continues.
        let inst = LocalInstance {
            vertices: vec![0, 1, 2],
            residual_weights: vec![0.1, 10.0, 10.0],
            edges: vec![
                LocalEdge {
                    u: 0,
                    v: 1,
                    x0: 0.05,
                },
                LocalEdge {
                    u: 1,
                    v: 2,
                    x0: 0.05,
                },
            ],
        };
        let bias = flat_bias(40, 0.0);
        let out = simulate_local(&inst, params(&bias, 1.0, 40), |_, _, y, w| y >= 0.8 * w);
        let fa = out.freeze_iter[0].expect("a freezes");
        // a freezes when 0.05/0.9^t >= 0.08: t >= 4.4 -> t=5.
        assert_eq!(fa, 5);
        // b needs y >= 8: with (a,b) frozen at ~0.085, (b,c) must reach
        // ~7.9 from 0.05: t ~ 48 > I -> b survives.
        assert_eq!(out.freeze_iter[1], None);
        assert_eq!(out.freeze_iter[2], None);
    }

    #[test]
    fn estimator_multiplier_scales_freezing() {
        let mk = |mult: f64| {
            let inst = LocalInstance {
                vertices: vec![0, 1],
                residual_weights: vec![1.0, 1.0],
                edges: vec![LocalEdge {
                    u: 0,
                    v: 1,
                    x0: 0.1,
                }],
            };
            let bias = flat_bias(25, 0.0);
            simulate_local(&inst, params(&bias, mult, 25), |_, _, y, w| y >= 0.8 * w).freeze_iter[0]
        };
        // mult 8: y_0 = 0.8 >= 0.8 -> immediate. mult 1: y grows from 0.1
        // to 0.8, crossing at t = ceil(ln 8 / ln(1/0.9)) = 20.
        assert_eq!(mk(8.0), Some(0));
        assert_eq!(mk(1.0), Some(20));
    }

    #[test]
    fn simultaneous_freezes_use_pre_iteration_state() {
        // Triangle where all three vertices cross at t=0: all freeze at 0,
        // none "sees" the others' freezing first.
        let inst = LocalInstance {
            vertices: vec![0, 1, 2],
            residual_weights: vec![1.0, 1.0, 1.0],
            edges: vec![
                LocalEdge {
                    u: 0,
                    v: 1,
                    x0: 0.5,
                },
                LocalEdge {
                    u: 0,
                    v: 2,
                    x0: 0.5,
                },
                LocalEdge {
                    u: 1,
                    v: 2,
                    x0: 0.5,
                },
            ],
        };
        let bias = flat_bias(5, 0.0);
        let out = simulate_local(&inst, params(&bias, 1.0, 5), |_, _, y, w| y >= 0.9 * w);
        assert_eq!(out.freeze_iter, vec![Some(0); 3]);
    }

    #[test]
    fn thresholds_receive_global_ids_and_iterations() {
        let calls = std::cell::Cell::new(0);
        let inst = LocalInstance {
            vertices: vec![100, 200],
            residual_weights: vec![1.0, 1.0],
            edges: vec![LocalEdge {
                u: 0,
                v: 1,
                x0: 1e-6,
            }],
        };
        let bias = flat_bias(3, 0.0);
        let out = simulate_local(&inst, params(&bias, 1.0, 3), |v, t, y, w| {
            assert!(v == 100 || v == 200, "global id expected, got {v}");
            assert!(t < 3);
            // The estimate and the residual weight: x0 grown t times.
            assert_eq!(w, 1.0);
            assert!(
                (y - 1e-6 / 0.9f64.powi(t as i32)).abs() < 1e-18,
                "y {y} at t {t}"
            );
            calls.set(calls.get() + 1);
            y >= 0.9 * w
        });
        assert_eq!(out.freeze_iter, vec![None, None]);
        assert_eq!(calls.get(), 6, "2 vertices x 3 iterations");
    }
}
