//! Degree statistics and simple structural summaries used by the
//! experiment harness.

use crate::csr::{Graph, VertexId};

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

/// Histogram of degrees in logarithmic buckets `[2^k, 2^{k+1})`.
pub fn degree_histogram(g: &Graph) -> Vec<(usize, usize)> {
    let mut buckets: Vec<usize> = Vec::new();
    for v in g.vertices() {
        let d = g.degree(v);
        let b = if d == 0 {
            0
        } else {
            (usize::BITS - d.leading_zeros()) as usize
        };
        if buckets.len() <= b {
            buckets.resize(b + 1, 0);
        }
        buckets[b] += 1;
    }
    buckets
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .map(|(b, c)| (if b == 0 { 0 } else { 1 << (b - 1) }, c))
        .collect()
}

/// Number of connected components (iterative BFS over the whole graph).
pub fn connected_components(g: &Graph) -> usize {
    let n = g.num_vertices();
    let mut visited = vec![false; n];
    let mut components = 0;
    let mut queue: Vec<VertexId> = Vec::new();
    for s in g.vertices() {
        if visited[s as usize] {
            continue;
        }
        components += 1;
        visited[s as usize] = true;
        queue.push(s);
        while let Some(u) = queue.pop() {
            for &v in g.neighbors(u) {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    queue.push(v);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{clique, disjoint_cliques, path, star};

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

    #[test]
    fn histogram_buckets() {
        let h = degree_histogram(&clique(5)); // all degrees 4
        assert_eq!(h, vec![(4, 5)]);
        let h = degree_histogram(&path(3)); // degrees 1,2,1
        assert_eq!(h, vec![(1, 2), (2, 1)]);
    }

    #[test]
    fn component_counting() {
        assert_eq!(connected_components(&clique(5)), 1);
        assert_eq!(connected_components(&disjoint_cliques(4, 3)), 4);
        assert_eq!(connected_components(&Graph::empty(7)), 7);
    }
}
