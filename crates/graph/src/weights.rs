//! Vertex-weight vectors and randomized weight models.
//!
//! The paper's algorithm is sensitive to the *shape* of the weight
//! distribution relative to the degree distribution (its whole point is
//! handling the deviations weights introduce into round compression), so the
//! experiment suite exercises several weight models:
//!
//! * scale-free models (`Uniform`, `Exponential`, `Zipf`) probing heavy
//!   tails,
//! * degree-correlated models (`DegreeProportional`, `DegreeInverse`)
//!   probing the interaction with the paper's `w(v)/d(v)` initialization,
//! * `Constant` recovering the unweighted special case of [GGK+18].

use crate::csr::{Graph, VertexId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Index;

/// Positive vertex weights indexed by vertex id.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexWeights(Vec<f64>);

impl VertexWeights {
    /// Wraps an explicit weight vector.
    pub fn from_vec(w: Vec<f64>) -> Self {
        Self(w)
    }

    /// `n` copies of `w`.
    pub fn constant(n: usize, w: f64) -> Self {
        Self(vec![w; n])
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over weights by value.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.0.iter().copied()
    }

    /// Borrow as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Largest weight, or 0 for empty.
    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    /// Smallest weight, or +inf for empty.
    pub fn min(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Rescales all weights by `factor`.
    pub fn scale(&mut self, factor: f64) {
        assert!(factor > 0.0 && factor.is_finite());
        for w in &mut self.0 {
            *w *= factor;
        }
    }
}

impl Index<VertexId> for VertexWeights {
    type Output = f64;

    fn index(&self, v: VertexId) -> &f64 {
        &self.0[v as usize]
    }
}

/// Randomized vertex-weight models. All models produce strictly positive,
/// finite weights and are deterministic given the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightModel {
    /// Every weight equals the given constant (unweighted case when 1).
    Constant(f64),
    /// Uniform reals in `[lo, hi]`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// Uniform integers in `[lo, hi]`, stored as `f64`.
    UniformInt {
        /// Lower bound (inclusive).
        lo: u64,
        /// Upper bound (inclusive).
        hi: u64,
    },
    /// Exponential with the given mean (heavy-ish tail).
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Zipf/zeta-like: weight of rank `r` (a random permutation of `1..=n`)
    /// is `scale / r^exponent`. Heavy tail controlled by `exponent`.
    Zipf {
        /// Tail exponent.
        exponent: f64,
        /// Weight of rank 1.
        scale: f64,
    },
    /// `w(v) = base + slope * deg(v)` — expensive hubs. Probes the regime
    /// where the paper's `w(v)/d(v)` initialization flattens out.
    DegreeProportional {
        /// Degree-independent offset.
        base: f64,
        /// Cost per incident edge.
        slope: f64,
    },
    /// `w(v) = scale / (1 + deg(v))` — cheap hubs. The adversarial regime
    /// where greedy heuristics love hubs but good covers may avoid them.
    DegreeInverse {
        /// Numerator of the inverse-degree weight.
        scale: f64,
    },
}

impl WeightModel {
    /// Samples a weight vector for `graph` with the given seed.
    pub fn sample(&self, graph: &Graph, seed: u64) -> VertexWeights {
        let n = graph.num_vertices();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7765_6967_6874); // "weight"
        let w = match *self {
            WeightModel::Constant(c) => {
                assert!(c > 0.0 && c.is_finite());
                vec![c; n]
            }
            WeightModel::Uniform { lo, hi } => {
                assert!(0.0 < lo && lo <= hi && hi.is_finite());
                (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
            }
            WeightModel::UniformInt { lo, hi } => {
                assert!(0 < lo && lo <= hi);
                (0..n).map(|_| rng.gen_range(lo..=hi) as f64).collect()
            }
            WeightModel::Exponential { mean } => {
                assert!(mean > 0.0 && mean.is_finite());
                let exp = Exp::new(1.0 / mean);
                (0..n).map(|_| exp.sample(&mut rng).max(1e-9)).collect()
            }
            WeightModel::Zipf { exponent, scale } => {
                assert!(exponent > 0.0 && scale > 0.0);
                // Random rank permutation so rank is independent of id.
                let mut ranks: Vec<usize> = (1..=n).collect();
                shuffle(&mut ranks, &mut rng);
                ranks
                    .into_iter()
                    .map(|r| scale / (r as f64).powf(exponent))
                    .collect()
            }
            WeightModel::DegreeProportional { base, slope } => {
                assert!(base > 0.0 && slope >= 0.0);
                graph
                    .vertices()
                    .map(|v| base + slope * graph.degree(v) as f64)
                    .collect()
            }
            WeightModel::DegreeInverse { scale } => {
                assert!(scale > 0.0);
                graph
                    .vertices()
                    .map(|v| scale / (1.0 + graph.degree(v) as f64))
                    .collect()
            }
        };
        VertexWeights(w)
    }

    /// Short machine-readable name for table output.
    pub fn label(&self) -> &'static str {
        match self {
            WeightModel::Constant(_) => "constant",
            WeightModel::Uniform { .. } => "uniform",
            WeightModel::UniformInt { .. } => "uniform-int",
            WeightModel::Exponential { .. } => "exponential",
            WeightModel::Zipf { .. } => "zipf",
            WeightModel::DegreeProportional { .. } => "deg-prop",
            WeightModel::DegreeInverse { .. } => "deg-inv",
        }
    }
}

/// Exponential distribution via inverse-CDF sampling; avoids pulling in
/// `rand_distr` just for one distribution.
struct Exp {
    rate: f64,
}

impl Exp {
    fn new(rate: f64) -> Self {
        Self { rate }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        -u.ln() / self.rate
    }
}

/// Fisher–Yates shuffle. `rand::seq::SliceRandom` would also do; this keeps
/// the dependency surface of the sampling path explicit and versionproof.
fn shuffle<T, R: Rng>(xs: &mut [T], rng: &mut R) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gnp;

    fn test_graph() -> Graph {
        gnp(200, 0.05, 7)
    }

    #[test]
    fn constant_weights() {
        let g = test_graph();
        let w = WeightModel::Constant(2.5).sample(&g, 0);
        assert_eq!(w.len(), 200);
        assert!(w.iter().all(|x| x == 2.5));
        assert_eq!(w.total(), 500.0);
    }

    #[test]
    fn uniform_weights_in_range() {
        let g = test_graph();
        let w = WeightModel::Uniform { lo: 1.0, hi: 3.0 }.sample(&g, 1);
        assert!(w.iter().all(|x| (1.0..=3.0).contains(&x)));
        assert!(w.max() > w.min(), "should not be degenerate");
    }

    #[test]
    fn uniform_int_weights_are_integral() {
        let g = test_graph();
        let w = WeightModel::UniformInt { lo: 1, hi: 100 }.sample(&g, 2);
        assert!(w
            .iter()
            .all(|x| x.fract() == 0.0 && (1.0..=100.0).contains(&x)));
    }

    #[test]
    fn exponential_weights_positive() {
        let g = test_graph();
        let w = WeightModel::Exponential { mean: 4.0 }.sample(&g, 3);
        assert!(w.iter().all(|x| x > 0.0 && x.is_finite()));
        let avg = w.total() / w.len() as f64;
        assert!((1.0..=10.0).contains(&avg), "mean ~4 expected, got {avg}");
    }

    #[test]
    fn zipf_weights_follow_rank_law() {
        let g = test_graph();
        let w = WeightModel::Zipf {
            exponent: 1.0,
            scale: 100.0,
        }
        .sample(&g, 4);
        assert!((w.max() - 100.0).abs() < 1e-9, "rank-1 weight is scale");
        assert!(w.min() >= 100.0 / 200.0 - 1e-9);
    }

    #[test]
    fn degree_correlated_weights() {
        let g = test_graph();
        let wp = WeightModel::DegreeProportional {
            base: 1.0,
            slope: 2.0,
        }
        .sample(&g, 5);
        let wi = WeightModel::DegreeInverse { scale: 10.0 }.sample(&g, 5);
        for v in g.vertices() {
            assert_eq!(wp[v], 1.0 + 2.0 * g.degree(v) as f64);
            assert_eq!(wi[v], 10.0 / (1.0 + g.degree(v) as f64));
        }
    }

    #[test]
    fn sampling_is_deterministic_in_seed() {
        let g = test_graph();
        let m = WeightModel::Uniform { lo: 1.0, hi: 9.0 };
        assert_eq!(m.sample(&g, 42), m.sample(&g, 42));
        assert_ne!(m.sample(&g, 42), m.sample(&g, 43));
    }

    #[test]
    fn scale_rescales() {
        let mut w = VertexWeights::from_vec(vec![1.0, 2.0]);
        w.scale(3.0);
        assert_eq!(w.as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(WeightModel::Constant(1.0).label(), "constant");
        assert_eq!(
            WeightModel::Zipf {
                exponent: 1.0,
                scale: 1.0
            }
            .label(),
            "zipf"
        );
    }
}
