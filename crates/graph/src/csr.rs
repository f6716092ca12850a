//! Compressed sparse row (CSR) representation of a simple undirected graph.
//!
//! Vertices are dense `u32` ids in `0..n`. Each undirected edge `(u, v)` is
//! stored in both adjacency lists; neighbor lists are sorted, self-loop-free
//! and duplicate-free. The structure is immutable after construction, which
//! lets every algorithm in the workspace share it by reference without
//! synchronization.

/// Dense vertex identifier.
pub type VertexId = u32;

/// An undirected edge as an (unordered) pair, stored canonically with
/// `u() <= v()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge(VertexId, VertexId);

impl Edge {
    /// Creates a canonical edge from an unordered endpoint pair.
    /// Panics on self-loops: the vertex cover LP has no constraint shape for
    /// them and every generator in this workspace is loop-free.
    pub fn new(a: VertexId, b: VertexId) -> Self {
        assert_ne!(a, b, "self-loops are not representable");
        if a < b {
            Edge(a, b)
        } else {
            Edge(b, a)
        }
    }

    /// Smaller endpoint.
    pub fn u(&self) -> VertexId {
        self.0
    }

    /// Larger endpoint.
    pub fn v(&self) -> VertexId {
        self.1
    }

    /// The endpoint that is not `x`. Panics if `x` is not an endpoint.
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.0 {
            self.1
        } else {
            assert_eq!(x, self.1, "vertex {x} is not an endpoint of {self:?}");
            self.0
        }
    }

    /// Whether `x` is one of the two endpoints.
    pub fn is_incident(&self, x: VertexId) -> bool {
        self.0 == x || self.1 == x
    }
}

/// An immutable simple undirected graph in CSR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists.
    neighbors: Vec<VertexId>,
    /// Number of undirected edges (half the adjacency entries).
    num_edges: usize,
}

impl Graph {
    /// Builds a graph from an edge list over vertices `0..n`.
    ///
    /// Duplicate edges and both orientations are deduplicated; self-loops
    /// panic. For incremental construction use
    /// [`crate::builder::GraphBuilder`].
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut b = crate::builder::GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Internal constructor from pre-validated CSR arrays. `neighbors` lists
    /// must be sorted per vertex, loop-free, duplicate-free and symmetric.
    pub(crate) fn from_csr_unchecked(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        debug_assert_eq!(neighbors.len() % 2, 0);
        let num_edges = neighbors.len() / 2;
        Self {
            offsets,
            neighbors,
            num_edges,
        }
    }

    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
            num_edges: 0,
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbor slice of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the edge `(u, v)` exists. O(log deg(u)).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        // Search the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over the unique undirected edges in canonical `(u < v)`
    /// order (lexicographic).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| Edge(u, v))
        })
    }

    /// Collects the unique edges into a vector.
    pub fn edge_vec(&self) -> Vec<Edge> {
        self.edges().collect()
    }

    /// Maximum degree `Δ`; 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree `2|E|/n`; 0 for the empty graph.
    pub fn average_degree(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / n as f64
        }
    }

    /// Total memory footprint of the CSR arrays in machine words, as counted
    /// by the MPC model (one word per offset, one per adjacency entry).
    pub fn words(&self) -> usize {
        self.offsets.len() + self.neighbors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn edge_canonicalization() {
        let e = Edge::new(5, 2);
        assert_eq!(e.u(), 2);
        assert_eq!(e.v(), 5);
        assert_eq!(e, Edge::new(2, 5));
        assert_eq!(e.other(2), 5);
        assert_eq!(e.other(5), 2);
        assert!(e.is_incident(2) && e.is_incident(5) && !e.is_incident(3));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_self_loop_panics() {
        let _ = Edge::new(3, 3);
    }

    #[test]
    #[should_panic]
    fn edge_other_non_endpoint_panics() {
        let _ = Edge::new(0, 1).other(2);
    }

    #[test]
    fn basic_accessors() {
        let g = path4();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = path4();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn edges_are_canonical_and_unique() {
        let g = path4();
        let es = g.edge_vec();
        assert_eq!(es, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)]);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.edge_vec(), vec![]);
    }

    #[test]
    fn words_counts_csr_arrays() {
        let g = path4();
        assert_eq!(g.words(), 5 + 6);
    }
}
