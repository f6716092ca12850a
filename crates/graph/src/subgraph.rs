//! Induced subgraph extraction with vertex remapping.
//!
//! The MPC algorithm's central operation is: partition the vertices at
//! random, then hand each machine the subgraph *induced* by its part
//! (Algorithm 2, line 2f-2g). [`InducedSubgraph`] extracts that subgraph
//! into a compact local id space while remembering the global ids.

use crate::csr::{Graph, VertexId};

/// The subgraph induced by a vertex subset, with dense local ids
/// `0..k` and a two-way mapping to the original graph's ids.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The induced subgraph over local ids.
    pub graph: Graph,
    /// `local_to_global[local] = global`.
    pub local_to_global: Vec<VertexId>,
}

impl InducedSubgraph {
    /// Extracts the subgraph of `g` induced by `vertices`.
    ///
    /// `vertices` may be in any order; duplicates panic in debug builds.
    /// Runs in `O(Σ_{v ∈ S} deg(v))` using a global scatter array, so
    /// repeated extraction over a partition of V totals `O(n + m)`.
    pub fn extract(g: &Graph, vertices: &[VertexId]) -> Self {
        let mut global_to_local = vec![u32::MAX; g.num_vertices()];
        for (local, &v) in vertices.iter().enumerate() {
            debug_assert_eq!(
                global_to_local[v as usize],
                u32::MAX,
                "duplicate vertex {v} in induced set"
            );
            global_to_local[v as usize] = local as u32;
        }
        let mut b = crate::builder::GraphBuilder::new(vertices.len());
        for (local_u, &gu) in vertices.iter().enumerate() {
            for &gv in g.neighbors(gu) {
                let local_v = global_to_local[gv as usize];
                if local_v != u32::MAX && (local_u as u32) < local_v {
                    b.add_edge(local_u as VertexId, local_v);
                }
            }
        }
        Self {
            graph: b.build(),
            local_to_global: vertices.to_vec(),
        }
    }

    /// Number of vertices in the subgraph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges in the subgraph.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Maps a local id back to the original graph's id.
    pub fn global(&self, local: VertexId) -> VertexId {
        self.local_to_global[local as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{clique, gnp};

    #[test]
    fn induced_triangle_from_clique() {
        let g = clique(6);
        let sub = InducedSubgraph::extract(&g, &[1, 3, 5]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(sub.global(0), 1);
        assert_eq!(sub.global(2), 5);
    }

    #[test]
    fn induced_preserves_only_internal_edges() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let sub = InducedSubgraph::extract(&g, &[0, 1, 3]);
        // Only (0,1) is internal; (2,3),(3,4) cross out.
        assert_eq!(sub.num_edges(), 1);
        assert!(sub.graph.has_edge(0, 1));
    }

    #[test]
    fn empty_subset() {
        let g = clique(4);
        let sub = InducedSubgraph::extract(&g, &[]);
        assert_eq!(sub.num_vertices(), 0);
        assert_eq!(sub.num_edges(), 0);
    }

    #[test]
    fn partition_edges_sum_to_internal_edges() {
        // Extracting over a partition counts each internal edge exactly once.
        let g = gnp(300, 0.03, 9);
        let parts: Vec<Vec<VertexId>> = (0..3)
            .map(|i| {
                (0..300)
                    .filter(|v| v % 3 == i)
                    .map(|v| v as VertexId)
                    .collect()
            })
            .collect();
        let sum: usize = parts
            .iter()
            .map(|p| InducedSubgraph::extract(&g, p).num_edges())
            .sum();
        let internal = g.edges().filter(|e| e.u() % 3 == e.v() % 3).count();
        assert_eq!(sum, internal);
    }
}
