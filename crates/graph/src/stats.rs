//! Degree statistics and simple structural summaries used by the
//! experiment harness.

use crate::csr::Graph;

/// Summary statistics of a graph's degree sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub n: usize,
    /// Number of undirected edges.
    pub m: usize,
    /// Average degree `2m/n`.
    pub avg: f64,
    /// Maximum degree.
    pub max: usize,
    /// Minimum degree.
    pub min: usize,
    /// Median degree.
    pub median: usize,
    /// 99th percentile degree.
    pub p99: usize,
    /// Number of isolated vertices.
    pub isolated: usize,
}

impl DegreeStats {
    /// Computes the summary for `g`.
    pub fn of(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut degs: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        degs.sort_unstable();
        let pick = |q: f64| -> usize {
            if degs.is_empty() {
                0
            } else {
                degs[((q * (n - 1) as f64).round() as usize).min(n - 1)]
            }
        };
        Self {
            n,
            m: g.num_edges(),
            avg: g.average_degree(),
            max: degs.last().copied().unwrap_or(0),
            min: degs.first().copied().unwrap_or(0),
            median: pick(0.5),
            p99: pick(0.99),
            isolated: degs.iter().take_while(|&&d| d == 0).count(),
        }
    }

    /// Degree skew `Δ/d` (∞-safe: 0 for empty graphs).
    pub fn skew(&self) -> f64 {
        if self.avg == 0.0 {
            0.0
        } else {
            self.max as f64 / self.avg
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::star;

    #[test]
    fn stats_of_star() {
        let s = DegreeStats::of(&star(11));
        assert_eq!(s.n, 11);
        assert_eq!(s.m, 10);
        assert_eq!(s.max, 10);
        assert_eq!(s.min, 1);
        assert_eq!(s.median, 1);
        assert_eq!(s.isolated, 0);
        assert!(s.skew() > 5.0);
    }

    #[test]
    fn stats_of_empty() {
        let s = DegreeStats::of(&Graph::empty(4));
        assert_eq!(s.max, 0);
        assert_eq!(s.isolated, 4);
        assert_eq!(s.skew(), 0.0);
    }
}
