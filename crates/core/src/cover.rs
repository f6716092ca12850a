//! Vertex cover representation and verification.

use mwvc_graph::{Graph, VertexId, WeightedGraph};

/// A vertex cover: a set of vertices touching every edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexCover {
    vertices: Vec<VertexId>,
    /// Membership bitmap indexed by vertex id.
    membership: Vec<bool>,
}

impl VertexCover {
    /// Builds a cover from a vertex list (deduplicated, sorted) for a graph
    /// on `n` vertices.
    pub fn new(n: usize, mut vertices: Vec<VertexId>) -> Self {
        vertices.sort_unstable();
        vertices.dedup();
        let mut membership = vec![false; n];
        for &v in &vertices {
            assert!((v as usize) < n, "cover vertex {v} out of range");
            membership[v as usize] = true;
        }
        Self {
            vertices,
            membership,
        }
    }

    /// Builds a cover from a membership bitmap.
    pub fn from_membership(membership: Vec<bool>) -> Self {
        let vertices = membership
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(v, _)| v as VertexId)
            .collect();
        Self {
            vertices,
            membership,
        }
    }

    /// The cover vertices, ascending.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Number of vertices in the cover.
    pub fn size(&self) -> usize {
        self.vertices.len()
    }

    /// Whether `v` is in the cover.
    pub fn contains(&self, v: VertexId) -> bool {
        self.membership[v as usize]
    }

    /// Total weight of the cover.
    pub fn weight(&self, wg: &WeightedGraph) -> f64 {
        self.vertices.iter().map(|&v| wg.weights[v]).sum()
    }

    /// Checks that every edge of `g` has an endpoint in the cover; returns
    /// the first uncovered edge otherwise.
    pub fn verify(&self, g: &Graph) -> Result<(), mwvc_graph::Edge> {
        for e in g.edges() {
            if !self.contains(e.u()) && !self.contains(e.v()) {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Whether the cover is *minimal*: no vertex can be removed while
    /// still covering all edges. (Approximation algorithms do not promise
    /// minimality; this is an analysis helper.)
    pub fn is_minimal(&self, g: &Graph) -> bool {
        self.vertices.iter().all(|&v| {
            // v is removable iff every incident edge is covered by the
            // other endpoint.
            !g.neighbors(v).iter().all(|&u| self.contains(u))
        })
    }

    /// Greedily removes redundant vertices (heaviest first) while the set
    /// remains a cover. Any algorithm's output can be post-processed this
    /// way; the paper's guarantee applies before pruning, pruning only
    /// improves it.
    pub fn pruned(&self, wg: &WeightedGraph) -> VertexCover {
        let g = &wg.graph;
        let mut membership = self.membership.clone();
        let mut order: Vec<VertexId> = self.vertices.clone();
        order.sort_by(|&a, &b| {
            wg.weights[b]
                .partial_cmp(&wg.weights[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for v in order {
            let removable = g.neighbors(v).iter().all(|&u| membership[u as usize]);
            if removable {
                membership[v as usize] = false;
            }
        }
        VertexCover::from_membership(membership)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwvc_graph::generators::{clique, path, star};
    use mwvc_graph::{VertexWeights, WeightedGraph};

    #[test]
    fn star_center_covers() {
        let g = star(6);
        let c = VertexCover::new(6, vec![0]);
        assert!(c.verify(&g).is_ok());
        assert_eq!(c.size(), 1);
        assert!(c.contains(0) && !c.contains(3));
    }

    #[test]
    fn uncovered_edge_reported() {
        let g = path(4); // 0-1-2-3
        let c = VertexCover::new(4, vec![1]);
        let missing = c.verify(&g).unwrap_err();
        assert_eq!((missing.u(), missing.v()), (2, 3));
    }

    #[test]
    fn dedup_and_weight() {
        let g = path(3);
        let wg = WeightedGraph::new(g, VertexWeights::from_vec(vec![1.0, 5.0, 2.0]));
        let c = VertexCover::new(3, vec![1, 1, 2]);
        assert_eq!(c.size(), 2);
        assert_eq!(c.weight(&wg), 7.0);
    }

    #[test]
    fn minimality_detection() {
        let g = path(4);
        assert!(VertexCover::new(4, vec![1, 2]).is_minimal(&g));
        assert!(!VertexCover::new(4, vec![0, 1, 2]).is_minimal(&g));
    }

    #[test]
    fn pruning_removes_redundant_heavy_vertices() {
        let g = clique(3);
        let wg = WeightedGraph::new(g, VertexWeights::from_vec(vec![1.0, 1.0, 10.0]));
        // All three vertices cover K3; any two suffice; pruning should
        // drop the heavy one.
        let c = VertexCover::new(3, vec![0, 1, 2]);
        let p = c.pruned(&wg);
        assert!(p.verify(&wg.graph).is_ok());
        assert_eq!(p.size(), 2);
        assert!(!p.contains(2));
        assert!(p.weight(&wg) < c.weight(&wg));
    }

    #[test]
    fn pruning_keeps_valid_covers_valid() {
        // Light center, heavy leaves: heaviest-first pruning drops all
        // leaves and keeps the center.
        let g = star(8);
        let mut w = vec![5.0; 8];
        w[0] = 1.0;
        let wg = WeightedGraph::new(g, VertexWeights::from_vec(w));
        let all = VertexCover::new(8, (0..8).collect());
        let p = all.pruned(&wg);
        assert!(p.verify(&wg.graph).is_ok());
        assert_eq!(p.vertices(), &[0], "star prunes to its light center");
        assert!(p.is_minimal(&wg.graph));
    }

    #[test]
    fn membership_roundtrip() {
        let c = VertexCover::from_membership(vec![true, false, true]);
        assert_eq!(c.vertices(), &[0, 2]);
        let c2 = VertexCover::new(3, vec![2, 0]);
        assert_eq!(c, c2);
    }
}
