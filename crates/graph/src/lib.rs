//! Graph substrate for the MWVC-MPC reproduction.
//!
//! This crate provides the graph machinery the algorithms of
//! Ghaffari–Jin–Nilis (SPAA 2020) operate on:
//!
//! * [`Graph`] — a compact, immutable CSR (compressed sparse row)
//!   representation of a simple undirected graph,
//! * [`builder::GraphBuilder`] — deduplicating construction from edge lists,
//! * [`weights`] — vertex-weight models (uniform, exponential, Zipf,
//!   degree-correlated, …),
//! * [`generators`] — random graph families used as workloads (Erdős–Rényi,
//!   Chung–Lu power law, R-MAT, random regular, grids, trees, planted
//!   covers, …),
//! * [`presets`] — named, size-scaled workload families on top of the
//!   generators (the benchmark matrix's generator axis),
//! * [`outofcore`] — a chunked on-disk CSR format plus a byte-budgeted
//!   streaming builder and bounded [`outofcore::BucketStream`] reader,
//!   for instances that must not fit in RAM,
//! * [`io`] — plain edge-list and DIMACS reading and writing,
//! * [`subgraph`] / [`partition`] — induced subgraphs and random vertex
//!   partitions (the core operation of MPC round compression),
//! * [`stats`] / [`validate`] — degree statistics and structural checking.
//!
//! Vertices are dense `u32` identifiers `0..n`. All randomized components
//! take explicit seeds and are fully deterministic given those seeds.

#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod edge_index;
pub mod generators;
pub mod io;
pub mod outofcore;
pub mod partition;
pub mod presets;
pub mod stats;
pub mod subgraph;
pub mod validate;
pub mod weights;

pub use builder::{EdgeSink, GraphBuilder};
pub use csr::{Edge, Graph, VertexId};
pub use edge_index::{EdgeId, EdgeIndex};
pub use outofcore::{BucketStream, ChunkedCsr, StreamingGraphBuilder};
pub use partition::VertexPartition;
pub use presets::{GraphFileFormat, GraphPreset};
pub use subgraph::InducedSubgraph;
pub use weights::{VertexWeights, WeightModel};

/// A vertex-weighted undirected graph: the input object of the minimum
/// weight vertex cover problem.
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    /// Graph structure.
    pub graph: Graph,
    /// Positive vertex weights, indexed by vertex id.
    pub weights: VertexWeights,
}

impl WeightedGraph {
    /// Bundles a graph with weights. Panics if the weight vector length does
    /// not match the vertex count or any weight is not strictly positive.
    pub fn new(graph: Graph, weights: VertexWeights) -> Self {
        assert_eq!(
            graph.num_vertices(),
            weights.len(),
            "weight vector length must equal vertex count"
        );
        assert!(
            weights.iter().all(|w| w > 0.0 && w.is_finite()),
            "vertex weights must be positive and finite"
        );
        Self { graph, weights }
    }

    /// The unweighted special case: every vertex has weight 1.
    pub fn unweighted(graph: Graph) -> Self {
        let n = graph.num_vertices();
        Self {
            graph,
            weights: VertexWeights::constant(n, 1.0),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Weight of a single vertex.
    pub fn weight(&self, v: VertexId) -> f64 {
        self.weights[v]
    }

    /// Total weight of a vertex set.
    pub fn set_weight(&self, set: &[VertexId]) -> f64 {
        set.iter().map(|&v| self.weights[v]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_graph_construction() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let wg = WeightedGraph::new(g, VertexWeights::from_vec(vec![1.0, 2.0, 3.0]));
        assert_eq!(wg.num_vertices(), 3);
        assert_eq!(wg.num_edges(), 2);
        assert_eq!(wg.weight(1), 2.0);
        assert_eq!(wg.set_weight(&[0, 2]), 4.0);
    }

    #[test]
    fn unweighted_has_unit_weights() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let wg = WeightedGraph::unweighted(g);
        assert!(wg.weights.iter().all(|w| w == 1.0));
    }

    #[test]
    #[should_panic(expected = "weight vector length")]
    fn mismatched_weights_panic() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let _ = WeightedGraph::new(g, VertexWeights::from_vec(vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_weight_panics() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let _ = WeightedGraph::new(g, VertexWeights::from_vec(vec![1.0, 0.0]));
    }
}
