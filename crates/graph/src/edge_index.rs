//! Dense edge identifiers over a CSR graph.
//!
//! The primal-dual algorithms maintain one dual variable `x_e` per
//! undirected edge. [`EdgeIndex`] assigns each edge a dense id `0..m` (in
//! canonical `(u,v), u<v` lexicographic order, matching
//! [`Graph::edges`](crate::Graph::edges)) and answers "which edges are
//! incident to `v`" with ids attached.

use crate::csr::{Edge, Graph, VertexId};

/// Dense edge id.
pub type EdgeId = u32;

/// Edge id assignment for a graph, with per-adjacency-slot lookup.
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    /// For each CSR adjacency slot, the id of the edge it belongs to
    /// (each edge owns two slots).
    slot_edge: Vec<EdgeId>,
    /// `edges[eid]` is the canonical endpoint pair.
    edges: Vec<Edge>,
    /// CSR offsets copied from the graph for slot arithmetic.
    offsets: Vec<usize>,
}

impl EdgeIndex {
    /// Builds the index in one pass over the vertices in ascending order,
    /// `O(n + m)`.
    ///
    /// Vertex `v`'s upper slots (neighbours above `v`) take the next
    /// consecutive ids, which is canonical order, so `u`'s upper edges hold
    /// a run of ids that starts where the ids stood when `u` was visited.
    /// A lower slot `u < v` takes the next id of `u`'s run not yet taken:
    /// `u` was visited first, and its upper neighbours come up in ascending
    /// order as `v` rises. That edge must be `(u, v)`. Each lower slot then
    /// holds a distinct upper slot's id, so after the pass there must be as
    /// many lower slots as upper ones, i.e. every upper slot was taken.
    /// Either failure panics with "CSR symmetry violated".
    pub fn build(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for v in g.vertices() {
            offsets.push(offsets[v as usize] + g.degree(v));
        }
        let mut slot_edge = Vec::with_capacity(offsets[n]);
        let mut edges = Vec::with_capacity(g.num_edges());
        // `next[u]`: the id of `u`'s next upper edge not yet taken.
        let mut next: Vec<EdgeId> = vec![0; n];
        for v in g.vertices() {
            next[v as usize] = edges.len() as EdgeId;
            for &u in g.neighbors(v) {
                if u < v {
                    let eid = next[u as usize];
                    assert!(
                        edges.get(eid as usize) == Some(&Edge::new(u, v)),
                        "CSR symmetry violated"
                    );
                    next[u as usize] = eid + 1;
                    slot_edge.push(eid);
                } else {
                    slot_edge.push(edges.len() as EdgeId);
                    edges.push(Edge::new(v, u));
                }
            }
        }
        assert!(slot_edge.len() == 2 * edges.len(), "CSR symmetry violated");
        Self {
            slot_edge,
            edges,
            offsets,
        }
    }

    /// Number of indexed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Endpoints of edge `eid`.
    pub fn edge(&self, eid: EdgeId) -> Edge {
        self.edges[eid as usize]
    }

    /// All edges in id order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterates `(neighbor, edge id)` pairs for vertex `v`, in neighbor
    /// order (ascending neighbor id).
    pub fn incident<'a>(
        &'a self,
        g: &'a Graph,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, EdgeId)> + 'a {
        let base = self.offsets[v as usize];
        g.neighbors(v)
            .iter()
            .enumerate()
            .map(move |(i, &u)| (u, self.slot_edge[base + i]))
    }

    /// Id of edge `(u, v)`, if present.
    pub fn edge_id(&self, g: &Graph, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let pos = g.neighbors(u).binary_search(&v).ok()?;
        Some(self.slot_edge[self.offsets[u as usize] + pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gnp;

    #[test]
    fn ids_match_canonical_edge_order() {
        let g = Graph::from_edges(4, &[(2, 3), (0, 1), (1, 3), (0, 2)]);
        let idx = EdgeIndex::build(&g);
        assert_eq!(idx.num_edges(), 4);
        // Canonical order: (0,1), (0,2), (1,3), (2,3).
        let canonical: Vec<Edge> = g.edges().collect();
        assert_eq!(idx.edges(), &canonical[..]);
        for (eid, e) in canonical.iter().enumerate() {
            assert_eq!(idx.edge(eid as EdgeId), *e);
            assert_eq!(idx.edge_id(&g, e.u(), e.v()), Some(eid as EdgeId));
            assert_eq!(idx.edge_id(&g, e.v(), e.u()), Some(eid as EdgeId));
        }
    }

    #[test]
    fn incident_covers_each_edge_twice() {
        let g = gnp(100, 0.08, 5);
        let idx = EdgeIndex::build(&g);
        let mut count = vec![0usize; idx.num_edges()];
        for v in g.vertices() {
            for (u, eid) in idx.incident(&g, v) {
                assert!(idx.edge(eid).is_incident(v) && idx.edge(eid).is_incident(u));
                count[eid as usize] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 2));
    }

    #[test]
    fn missing_edge_lookup() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let idx = EdgeIndex::build(&g);
        assert_eq!(idx.edge_id(&g, 0, 2), None);
        assert_eq!(idx.edge_id(&g, 1, 1), None);
    }

    #[test]
    fn empty_graph_index() {
        let g = Graph::empty(3);
        let idx = EdgeIndex::build(&g);
        assert_eq!(idx.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "CSR symmetry violated")]
    fn missing_mirror_slot_panics() {
        // Vertex 0 lists 1, but 1 does not list 0 (nor 2 list 1: one
        // missing mirror alone would leave an odd slot count, which
        // `from_csr_unchecked` rejects first in debug builds). Only the
        // final count sees it: no lower slot ever takes 0's upper edge.
        let g = Graph::from_csr_unchecked(vec![0, 1, 2, 2], vec![1, 2]);
        let _ = EdgeIndex::build(&g);
    }

    #[test]
    #[should_panic(expected = "CSR symmetry violated")]
    fn mismatched_mirror_slot_panics() {
        // Every degree is 1, as a perfect matching's would be, but 0 lists
        // 2 while 2 lists 1.
        let g = Graph::from_csr_unchecked(vec![0, 1, 2, 3, 4], vec![2, 3, 1, 0]);
        let _ = EdgeIndex::build(&g);
    }
}
