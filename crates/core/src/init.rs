//! Initial fractional matchings (Algorithm 1, line 2).
//!
//! The paper's key departure from prior work is the *degree-weighted*
//! initialization `x_(u,v) = min(w(u)/d(u), w(v)/d(v))` (Section 3.2),
//! which makes the centralized algorithm terminate in `O(log Δ)`
//! iterations independently of the weight scale (Proposition 3.4) and —
//! unlike the `min(w(u),w(v))/Δ` variant — yields the `O(log log d)` MPC
//! bound in terms of the *average* degree. All three schemes discussed in
//! the paper are implemented for the E02/E09 comparisons.

use mwvc_graph::{EdgeIndex, Graph};

/// How the initial dual values `x_{e,0}` are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitScheme {
    /// The paper's scheme: `x_e = min(w(u)/d(u), w(v)/d(v))`.
    /// Terminates in `O(log Δ)` centralized iterations; gives the
    /// `O(log log d)` MPC bound.
    DegreeWeighted,
    /// The discussed alternative: `x_e = min(w(u), w(v)) / Δ`.
    /// Same `O(log Δ)` centralized bound but only `O(log log Δ)` in MPC.
    MaxDegree,
    /// The classic unweighted-style scheme, made scale-free:
    /// `x_e = min_z w(z) / n`. Centralized running time degrades to
    /// `O(log (W·n))` where `W = max w / min w` (the weight spread).
    Uniform,
}

impl InitScheme {
    /// Computes `x_{e,0}` for every edge, indexed by [`EdgeIndex`] id.
    ///
    /// `weights` and `degrees` are per-vertex; `degrees[v]` is the degree
    /// the scheme should use — the plain graph degree in the centralized
    /// setting, the *residual* (nonfrozen-neighbor) degree inside an MPC
    /// phase (the paper's Remark 4.2). Degrees of vertices with incident
    /// edges must be positive.
    pub fn initial_values(
        &self,
        graph: &Graph,
        eidx: &EdgeIndex,
        weights: &[f64],
        degrees: &[usize],
    ) -> Vec<f64> {
        assert_eq!(weights.len(), graph.num_vertices());
        assert_eq!(degrees.len(), graph.num_vertices());
        let m = eidx.num_edges();
        let mut x = Vec::with_capacity(m);
        match self {
            InitScheme::DegreeWeighted => {
                for e in eidx.edges() {
                    let (u, v) = (e.u() as usize, e.v() as usize);
                    debug_assert!(degrees[u] > 0 && degrees[v] > 0);
                    let xu = weights[u] / degrees[u] as f64;
                    let xv = weights[v] / degrees[v] as f64;
                    x.push(xu.min(xv));
                }
            }
            InitScheme::MaxDegree => {
                let delta = degrees.iter().copied().max().unwrap_or(0).max(1) as f64;
                for e in eidx.edges() {
                    let (u, v) = (e.u() as usize, e.v() as usize);
                    x.push(weights[u].min(weights[v]) / delta);
                }
            }
            InitScheme::Uniform => {
                let n = graph.num_vertices().max(1) as f64;
                let w_min = weights
                    .iter()
                    .copied()
                    .filter(|w| *w > 0.0)
                    .fold(f64::INFINITY, f64::min);
                let base = if w_min.is_finite() { w_min / n } else { 0.0 };
                x.resize(m, base);
            }
        }
        x
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            InitScheme::DegreeWeighted => "w/d",
            InitScheme::MaxDegree => "w/Delta",
            InitScheme::Uniform => "1/n",
        }
    }

    /// The per-edge initial value inside an MPC phase (Algorithm 2 line
    /// 2c generalized to the three schemes of Section 3.2), computed from
    /// the endpoints' residual weights `w'` and residual degrees `d`, the
    /// global residual maximum degree `delta`, the minimum nonfrozen
    /// residual weight `min_wp`, and the vertex count `n`.
    ///
    /// Each input is available to every participant of the distributed
    /// dataflow without extra rounds (the scalars ride on the phase plan),
    /// which is why the signature is scalar-level rather than graph-level.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn phase_value(
        &self,
        wu: f64,
        du: usize,
        wv: f64,
        dv: usize,
        delta: usize,
        min_wp: f64,
        n: usize,
    ) -> f64 {
        match self {
            InitScheme::DegreeWeighted => (wu / du as f64).min(wv / dv as f64),
            InitScheme::MaxDegree => wu.min(wv) / delta.max(1) as f64,
            InitScheme::Uniform => min_wp / n.max(1) as f64,
        }
    }
}

/// Checks that `x` is a valid fractional matching w.r.t. `weights`
/// (within `tol` relative slack per vertex). Shared by tests of every
/// algorithm.
pub fn is_valid_fractional_matching(
    graph: &Graph,
    eidx: &EdgeIndex,
    weights: &[f64],
    x: &[f64],
    tol: f64,
) -> bool {
    if x.iter().any(|&v| v < -tol || !v.is_finite()) {
        return false;
    }
    let mut y = vec![0.0f64; graph.num_vertices()];
    for (eid, &xv) in x.iter().enumerate() {
        let e = eidx.edge(eid as u32);
        y[e.u() as usize] += xv;
        y[e.v() as usize] += xv;
    }
    (0..graph.num_vertices()).all(|v| y[v] <= weights[v] * (1.0 + tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwvc_graph::generators::{gnp, star};
    use mwvc_graph::WeightModel;

    fn degrees(g: &Graph) -> Vec<usize> {
        g.vertices().map(|v| g.degree(v)).collect()
    }

    #[test]
    fn degree_weighted_matches_formula() {
        let g = star(4); // center 0 degree 3, leaves degree 1
        let eidx = EdgeIndex::build(&g);
        let w = vec![3.0, 1.0, 2.0, 9.0];
        let x = InitScheme::DegreeWeighted.initial_values(&g, &eidx, &w, &degrees(&g));
        // Edge (0,1): min(3/3, 1/1) = 1; (0,2): min(1, 2) = 1; (0,3): min(1, 9) = 1.
        assert_eq!(x, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn max_degree_matches_formula() {
        let g = star(4);
        let eidx = EdgeIndex::build(&g);
        let w = vec![3.0, 1.0, 2.0, 9.0];
        let x = InitScheme::MaxDegree.initial_values(&g, &eidx, &w, &degrees(&g));
        // Δ = 3; min weights per edge: 1, 2, 3.
        assert_eq!(x, vec![1.0 / 3.0, 2.0 / 3.0, 1.0]);
    }

    #[test]
    fn uniform_matches_formula() {
        let g = star(4);
        let eidx = EdgeIndex::build(&g);
        let w = vec![3.0, 1.0, 2.0, 9.0];
        let x = InitScheme::Uniform.initial_values(&g, &eidx, &w, &degrees(&g));
        assert_eq!(x, vec![0.25, 0.25, 0.25]);
    }

    #[test]
    fn all_schemes_are_valid_matchings() {
        let g = gnp(300, 0.05, 3);
        let eidx = EdgeIndex::build(&g);
        let w = WeightModel::Uniform { lo: 0.5, hi: 10.0 }
            .sample(&g, 7)
            .as_slice()
            .to_vec();
        let d = degrees(&g);
        for scheme in [
            InitScheme::DegreeWeighted,
            InitScheme::MaxDegree,
            InitScheme::Uniform,
        ] {
            let x = scheme.initial_values(&g, &eidx, &w, &d);
            assert!(
                is_valid_fractional_matching(&g, &eidx, &w, &x, 1e-9),
                "{} violates dual constraints",
                scheme.label()
            );
            assert!(
                x.iter().all(|&v| v > 0.0),
                "{} has zero entries",
                scheme.label()
            );
        }
    }

    #[test]
    fn validity_checker_rejects_bad_matchings() {
        let g = star(3);
        let eidx = EdgeIndex::build(&g);
        let w = vec![1.0, 1.0, 1.0];
        // y_0 = 2 > w_0 = 1.
        assert!(!is_valid_fractional_matching(
            &g,
            &eidx,
            &w,
            &[1.0, 1.0],
            1e-9
        ));
        assert!(!is_valid_fractional_matching(
            &g,
            &eidx,
            &w,
            &[-0.5, 0.5],
            1e-9
        ));
        assert!(is_valid_fractional_matching(
            &g,
            &eidx,
            &w,
            &[0.5, 0.5],
            1e-9
        ));
    }

    #[test]
    fn labels() {
        assert_eq!(InitScheme::DegreeWeighted.label(), "w/d");
        assert_eq!(InitScheme::MaxDegree.label(), "w/Delta");
        assert_eq!(InitScheme::Uniform.label(), "1/n");
    }
}
