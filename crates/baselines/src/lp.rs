//! Exact LP relaxation of minimum weight vertex cover (the paper's
//! Figure 1 primal), solved via the Nemhauser–Trotter bipartite reduction
//! and max-flow.
//!
//! The vertex cover LP always has a half-integral optimal solution, and
//! its value equals half the minimum weight vertex cover of the *bipartite
//! double cover* `H`: every vertex `v` becomes `v_L`, `v_R` (each of
//! weight `w(v)`), every edge `(u,v)` becomes `(u_L, v_R)` and
//! `(v_L, u_R)`. A minimum weight vertex cover of a bipartite graph is a
//! minimum s–t cut (`s → v_L` at capacity `w(v)`, `v_R → t` at capacity
//! `w(v)`, crossing arcs at `∞`), so the exact LP value — and a
//! half-integral optimal solution — comes out of one Dinic run.
//!
//! `LP* ≤ OPT ≤ 2·LP*`, so `LP*` certifies approximation ratios at any
//! instance size, which is how the experiment suite measures ratios on
//! graphs far beyond the reach of the exact solver.

use crate::dinic::FlowNetwork;
use mwvc_graph::WeightedGraph;

/// The exact LP optimum with a half-integral optimal solution.
#[derive(Debug, Clone)]
pub struct LpBound {
    /// Optimal LP objective `Σ_v z_v w(v)`; satisfies `LP* ≤ OPT ≤ 2·LP*`.
    pub value: f64,
    /// A half-integral optimal solution, `z_v ∈ {0, 1/2, 1}`.
    pub solution: Vec<f64>,
}

/// Solves the MWVC LP relaxation exactly.
pub fn lp_optimum(wg: &WeightedGraph) -> LpBound {
    let n = wg.num_vertices();
    // Nodes: v_L = v, v_R = n + v, s = 2n, t = 2n + 1.
    let (s, t) = (2 * n, 2 * n + 1);
    let mut net = FlowNetwork::new(2 * n + 2);
    for v in 0..n {
        let w = wg.weights[v as u32];
        net.add_edge(s, v, w);
        net.add_edge(n + v, t, w);
    }
    for e in wg.graph.edges() {
        let (u, v) = (e.u() as usize, e.v() as usize);
        net.add_edge(u, n + v, f64::INFINITY);
        net.add_edge(v, n + u, f64::INFINITY);
    }
    let cut = net.max_flow(s, t);
    // Min cut → bipartite cover: v_L is in the cover iff it is cut off
    // from s; v_R iff it remains on the source side.
    let side = net.min_cut_source_side(s);
    let solution: Vec<f64> = (0..n)
        .map(|v| {
            let left_in_cover = !side[v];
            let right_in_cover = side[n + v];
            (u8::from(left_in_cover) + u8::from(right_in_cover)) as f64 / 2.0
        })
        .collect();
    LpBound {
        value: cut / 2.0,
        solution,
    }
}

impl LpBound {
    /// Checks that the stored solution is LP-feasible: `z_u + z_v ≥ 1` on
    /// every edge, `z ∈ [0,1]`, and its objective matches `value`.
    pub fn verify(&self, wg: &WeightedGraph, tol: f64) -> bool {
        if self.solution.len() != wg.num_vertices() {
            return false;
        }
        if !self
            .solution
            .iter()
            .all(|&z| (-tol..=1.0 + tol).contains(&z))
        {
            return false;
        }
        if !wg
            .graph
            .edges()
            .all(|e| self.solution[e.u() as usize] + self.solution[e.v() as usize] >= 1.0 - tol)
        {
            return false;
        }
        let obj: f64 = self
            .solution
            .iter()
            .enumerate()
            .map(|(v, &z)| z * wg.weights[v as u32])
            .sum();
        (obj - self.value).abs() <= tol * (1.0 + self.value.abs())
    }

    /// Rounds the half-integral solution up (`z ≥ 1/2 → 1`): a valid
    /// integral cover of weight `≤ 2·LP*` (the classic LP-rounding
    /// 2-approximation).
    pub fn rounded_cover(&self) -> Vec<u32> {
        self.solution
            .iter()
            .enumerate()
            .filter(|&(_, &z)| z >= 0.5)
            .map(|(v, _)| v as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwvc_graph::generators::{clique, gnp, path, star};
    use mwvc_graph::{Graph, VertexWeights, WeightModel};

    fn unweighted(g: Graph) -> WeightedGraph {
        WeightedGraph::unweighted(g)
    }

    #[test]
    fn single_edge_lp_is_one_half_each() {
        let wg = unweighted(path(2));
        let lp = lp_optimum(&wg);
        assert!((lp.value - 1.0).abs() < 1e-9);
        assert!(lp.verify(&wg, 1e-9));
    }

    #[test]
    fn star_lp_picks_center() {
        // Star with cheap center: LP = integral optimum = w(center).
        let g = star(6);
        let mut w = vec![10.0; 6];
        w[0] = 1.0;
        let wg = WeightedGraph::new(g, VertexWeights::from_vec(w));
        let lp = lp_optimum(&wg);
        assert!((lp.value - 1.0).abs() < 1e-9);
        assert!(lp.verify(&wg, 1e-9));
        assert_eq!(lp.rounded_cover(), vec![0]);
    }

    #[test]
    fn triangle_lp_is_half_integral() {
        // K3 unweighted: LP optimum is z = 1/2 everywhere, value 3/2
        // (integral optimum is 2 — the classic integrality gap).
        let wg = unweighted(clique(3));
        let lp = lp_optimum(&wg);
        assert!((lp.value - 1.5).abs() < 1e-9);
        assert!(lp.verify(&wg, 1e-9));
        assert!(lp.solution.iter().all(|&z| (z - 0.5).abs() < 1e-9));
    }

    #[test]
    fn bipartite_lp_is_integral() {
        // Even path (bipartite): LP = integral OPT.
        let wg = unweighted(path(6)); // OPT(P6, 5 edges) = 2? vertices 1 and 3 cover edges 0-1,1-2,2-3,3-4; edge 4-5 uncovered -> need 3.
        let lp = lp_optimum(&wg);
        assert!(
            (lp.value.round() - lp.value).abs() < 1e-9,
            "integral on bipartite"
        );
        assert!((lp.value - 3.0).abs() < 1e-9);
        assert!(lp.verify(&wg, 1e-9));
    }

    #[test]
    fn solution_is_half_integral_everywhere() {
        let g = gnp(80, 0.08, 3);
        let w = WeightModel::Uniform { lo: 1.0, hi: 5.0 }.sample(&g, 4);
        let wg = WeightedGraph::new(g, w);
        let lp = lp_optimum(&wg);
        assert!(lp.verify(&wg, 1e-7));
        for &z in &lp.solution {
            let nearest = [0.0, 0.5, 1.0]
                .iter()
                .map(|&h| (z - h).abs())
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 1e-7, "z = {z} is not half-integral");
        }
    }

    #[test]
    fn rounded_cover_is_a_cover_within_twice_lp() {
        let g = gnp(120, 0.05, 11);
        let w = WeightModel::Exponential { mean: 3.0 }.sample(&g, 5);
        let wg = WeightedGraph::new(g, w);
        let lp = lp_optimum(&wg);
        let cover = lp.rounded_cover();
        let member: std::collections::HashSet<u32> = cover.iter().copied().collect();
        for e in wg.graph.edges() {
            assert!(member.contains(&e.u()) || member.contains(&e.v()));
        }
        let cover_w: f64 = cover.iter().map(|&v| wg.weights[v]).sum();
        assert!(cover_w <= 2.0 * lp.value + 1e-6);
    }

    #[test]
    fn lp_lower_bounds_any_cover() {
        let g = gnp(60, 0.1, 7);
        let wg = unweighted(g);
        let lp = lp_optimum(&wg);
        // The whole vertex set is a cover; LP must be below its weight.
        assert!(lp.value <= wg.weights.total() + 1e-9);
        assert!(lp.value > 0.0);
    }

    #[test]
    fn empty_graph_lp_is_zero() {
        let wg = unweighted(Graph::empty(4));
        let lp = lp_optimum(&wg);
        assert_eq!(lp.value, 0.0);
        assert!(lp.solution.iter().all(|&z| z == 0.0));
    }
}
