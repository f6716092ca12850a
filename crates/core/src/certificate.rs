//! Dual certificates: fractional matchings and the lower bounds they
//! witness (the paper's Figure 1 LP and Lemma 3.2 weak duality).
//!
//! A vector `{x_e ≥ 0}` is a *fractional matching* when
//! `Σ_{e∋v} x_e ≤ w(v)` for every vertex. Weak LP duality gives
//! `OPT ≥ Σ_e x_e`, so any fractional matching certifies a lower bound on
//! the optimal cover weight — and therefore an upper bound on the
//! approximation ratio of any concrete cover, with no exact solver in the
//! loop.

use mwvc_graph::{EdgeIndex, VertexId, WeightedGraph};

/// Per-edge dual values together with the bound they certify.
#[derive(Debug, Clone, PartialEq)]
pub struct DualCertificate {
    /// `x[eid]` is the dual value of edge `eid` (in [`EdgeIndex`] order).
    pub x: Vec<f64>,
}

impl DualCertificate {
    /// Wraps explicit dual values.
    pub fn new(x: Vec<f64>) -> Self {
        Self { x }
    }

    /// `Σ_e x_e`, the raw dual objective.
    pub fn value(&self) -> f64 {
        self.x.iter().sum()
    }

    /// Total incident dual weight per vertex: `y_v = Σ_{e∋v} x_e`.
    /// Summed in ascending edge-id order for cross-implementation
    /// reproducibility.
    pub fn incident_sums(&self, wg: &WeightedGraph, eidx: &EdgeIndex) -> Vec<f64> {
        let mut y = vec![0.0f64; wg.num_vertices()];
        for (eid, &xv) in self.x.iter().enumerate() {
            let e = eidx.edge(eid as u32);
            y[e.u() as usize] += xv;
            y[e.v() as usize] += xv;
        }
        y
    }

    /// The worst relative violation of the dual constraints:
    /// `max_v y_v / w(v)` (1 or less means feasible). Useful because the
    /// MPC algorithm guarantees only `y_v ≤ (1+6ε)·w(v)` (Theorem 4.7) —
    /// the certificate is rescaled by this factor to become feasible.
    pub fn feasibility_factor(&self, wg: &WeightedGraph, eidx: &EdgeIndex) -> f64 {
        let y = self.incident_sums(wg, eidx);
        (0..wg.num_vertices() as VertexId)
            .map(|v| y[v as usize] / wg.weights[v])
            .fold(0.0, f64::max)
    }

    /// A certified lower bound on OPT: the dual objective of the matching
    /// rescaled into feasibility, `Σx / max(1, feasibility_factor)`.
    pub fn lower_bound(&self, wg: &WeightedGraph, eidx: &EdgeIndex) -> f64 {
        let f = self.feasibility_factor(wg, eidx).max(1.0);
        self.value() / f
    }

    /// Strict feasibility check (with tolerance for float accumulation).
    pub fn is_feasible(&self, wg: &WeightedGraph, eidx: &EdgeIndex, tol: f64) -> bool {
        self.feasibility_factor(wg, eidx) <= 1.0 + tol
    }

    /// Certified approximation ratio of a cover of weight `cover_weight`:
    /// `cover_weight / lower_bound`. The true ratio to OPT is at most this.
    pub fn certified_ratio(&self, wg: &WeightedGraph, eidx: &EdgeIndex, cover_weight: f64) -> f64 {
        let lb = self.lower_bound(wg, eidx);
        assert!(lb > 0.0, "certificate carries no information (Σx = 0)");
        cover_weight / lb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwvc_graph::generators::path;
    use mwvc_graph::{Graph, VertexWeights};

    fn setup() -> (WeightedGraph, EdgeIndex) {
        // Path 0-1-2 with weights 1, 2, 1.
        let g = path(3);
        let eidx = EdgeIndex::build(&g);
        let wg = WeightedGraph::new(g, VertexWeights::from_vec(vec![1.0, 2.0, 1.0]));
        (wg, eidx)
    }

    #[test]
    fn value_and_sums() {
        let (wg, eidx) = setup();
        let c = DualCertificate::new(vec![0.5, 0.25]);
        assert_eq!(c.value(), 0.75);
        let y = c.incident_sums(&wg, &eidx);
        assert_eq!(y, vec![0.5, 0.75, 0.25]);
    }

    #[test]
    fn feasible_certificate() {
        let (wg, eidx) = setup();
        let c = DualCertificate::new(vec![1.0, 1.0]);
        // y = [1, 2, 1] exactly tight everywhere.
        assert!((c.feasibility_factor(&wg, &eidx) - 1.0).abs() < 1e-12);
        assert!(c.is_feasible(&wg, &eidx, 1e-9));
        assert_eq!(c.lower_bound(&wg, &eidx), 2.0);
    }

    #[test]
    fn infeasible_certificate_is_rescaled() {
        let (wg, eidx) = setup();
        let c = DualCertificate::new(vec![2.0, 2.0]);
        // y = [2,4,2]: factor 2 over-tight; lower bound halves.
        assert!((c.feasibility_factor(&wg, &eidx) - 2.0).abs() < 1e-12);
        assert!(!c.is_feasible(&wg, &eidx, 1e-9));
        assert!((c.lower_bound(&wg, &eidx) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn certified_ratio_bounds_true_ratio() {
        let (wg, eidx) = setup();
        // OPT here: {1} with weight 2... actually {1} covers both edges,
        // weight 2. Cover {0, 2} has weight 2 as well.
        let c = DualCertificate::new(vec![1.0, 1.0]);
        let ratio = c.certified_ratio(&wg, &eidx, 2.0);
        assert!((ratio - 1.0).abs() < 1e-12, "tight instance: ratio 1");
    }

    #[test]
    #[should_panic(expected = "no information")]
    fn zero_certificate_panics_on_ratio() {
        let (wg, eidx) = setup();
        let c = DualCertificate::new(vec![0.0, 0.0]);
        let _ = c.certified_ratio(&wg, &eidx, 2.0);
    }

    #[test]
    fn empty_graph_certificate() {
        let g = Graph::empty(2);
        let eidx = EdgeIndex::build(&g);
        let wg = WeightedGraph::unweighted(g);
        let c = DualCertificate::new(vec![]);
        assert_eq!(c.value(), 0.0);
        assert_eq!(c.feasibility_factor(&wg, &eidx), 0.0);
        assert!(c.is_feasible(&wg, &eidx, 0.0));
    }
}
