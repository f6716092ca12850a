//! Incremental, deduplicating graph construction.

use crate::csr::{Graph, VertexId};
use rayon::prelude::*;

/// Anything that can absorb a stream of undirected edges: the in-memory
/// [`GraphBuilder`] and the byte-budgeted
/// [`StreamingGraphBuilder`](crate::outofcore::StreamingGraphBuilder)
/// both implement it, so a generator written against this trait
/// ([`gnm_stream_into`](crate::generators::gnm_stream_into)) feeds either
/// construction path from the identical edge sequence — the basis of the
/// streamed-equals-in-memory guarantee.
pub trait EdgeSink {
    /// Adds the undirected edge `(u, v)`. Duplicates are allowed (sinks
    /// deduplicate at finalization); self-loops panic.
    fn add_edge(&mut self, u: VertexId, v: VertexId);
}

impl EdgeSink for GraphBuilder {
    #[inline]
    fn add_edge(&mut self, u: VertexId, v: VertexId) {
        GraphBuilder::add_edge(self, u, v);
    }
}

/// Below this half-edge count the sequential finalization wins (the
/// parallel path produces identical output, so the cutover is invisible).
const PARALLEL_BUILD_MIN_HALF_EDGES: usize = 1 << 14;

/// Accumulates undirected edges and produces a validated CSR [`Graph`].
///
/// Duplicate insertions (in either orientation) collapse to a single edge.
/// Self-loops panic at insertion time.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    /// Directed half-edges `(u, v)`; both directions are pushed per edge.
    half_edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// New builder for a graph on vertices `0..n`.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex count exceeds u32 id space");
        Self {
            n,
            half_edges: Vec::new(),
        }
    }

    /// New builder with capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.half_edges.reserve(2 * m);
        b
    }

    /// Number of vertices this builder targets.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `(u, v)`. Duplicates are allowed and
    /// collapse at [`build`](Self::build) time; self-loops panic.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert_ne!(u, v, "self-loops are not representable");
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        self.half_edges.push((u, v));
        self.half_edges.push((v, u));
    }

    /// Current number of inserted (not yet deduplicated) edges.
    pub fn pending_edges(&self) -> usize {
        self.half_edges.len() / 2
    }

    /// Finalizes into a CSR graph: counting-sorts half-edges by source,
    /// sorts each adjacency list, and removes duplicates.
    ///
    /// Large builds run the per-vertex sort/dedup and the compaction
    /// host-parallel; the result is bit-identical to the sequential path
    /// (each adjacency list is an independent sort into its own slice),
    /// so neither the thread count nor the cutover affects the graph.
    pub fn build(self) -> Graph {
        let n = self.n;
        let parallel = self.half_edges.len() >= PARALLEL_BUILD_MIN_HALF_EDGES;
        // Counting sort by source vertex (sequential: memory-bound scatter).
        let mut counts = vec![0usize; n + 1];
        for &(u, _) in &self.half_edges {
            counts[u as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut neighbors = vec![0 as VertexId; self.half_edges.len()];
        let mut cursor = counts.clone();
        for &(u, v) in &self.half_edges {
            let slot = cursor[u as usize];
            neighbors[slot] = v;
            cursor[u as usize] += 1;
        }
        if !parallel {
            return Self::finalize_sequential(n, &counts, neighbors);
        }

        // Parallel finalization. Carve one disjoint mutable sub-slice per
        // vertex, sort + dedup each independently, then compact into the
        // final CSR arrays at prefix-sum offsets.
        let mut lists: Vec<&mut [VertexId]> = Vec::with_capacity(n);
        let mut rest: &mut [VertexId] = &mut neighbors;
        for u in 0..n {
            let (head, tail) = rest.split_at_mut(counts[u + 1] - counts[u]);
            lists.push(head);
            rest = tail;
        }
        let dedup_lens: Vec<usize> = lists
            .par_iter_mut()
            .map(|list| {
                list.sort_unstable();
                dedup_in_place(list)
            })
            .collect();
        let mut offsets = vec![0usize; n + 1];
        for u in 0..n {
            offsets[u + 1] = offsets[u] + dedup_lens[u];
        }
        let mut flat = vec![0 as VertexId; offsets[n]];
        let mut out_slices: Vec<&mut [VertexId]> = Vec::with_capacity(n);
        let mut rest: &mut [VertexId] = &mut flat;
        for &len in &dedup_lens {
            let (head, tail) = rest.split_at_mut(len);
            out_slices.push(head);
            rest = tail;
        }
        out_slices
            .into_par_iter()
            .zip(lists.into_par_iter())
            .zip(dedup_lens.into_par_iter())
            .for_each(|((dst, src), len)| dst.copy_from_slice(&src[..len]));
        Graph::from_csr_unchecked(offsets, flat)
    }

    /// The in-place sequential finalization, for small builds.
    fn finalize_sequential(n: usize, counts: &[usize], mut neighbors: Vec<VertexId>) -> Graph {
        let mut offsets = vec![0usize; n + 1];
        let mut write = 0usize;
        for u in 0..n {
            let (start, end) = (counts[u], counts[u + 1]);
            let list_start = write;
            {
                let list = &mut neighbors[start..end];
                list.sort_unstable();
            }
            let mut prev: Option<VertexId> = None;
            for idx in start..end {
                let v = neighbors[idx];
                if prev != Some(v) {
                    neighbors[write] = v;
                    write += 1;
                    prev = Some(v);
                }
            }
            offsets[u] = list_start;
            offsets[u + 1] = write;
        }
        neighbors.truncate(write);
        Graph::from_csr_unchecked(offsets, neighbors)
    }
}

/// Moves the unique elements of a sorted slice to its front, returning
/// their count.
fn dedup_in_place(list: &mut [VertexId]) -> usize {
    let mut w = 0usize;
    for r in 0..list.len() {
        let v = list[r];
        if w == 0 || list[w - 1] != v {
            list[w] = v;
            w += 1;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_triangle() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn dedup_collapses_multi_edges() {
        let mut b = GraphBuilder::new(2);
        for _ in 0..10 {
            b.add_edge(0, 1);
            b.add_edge(1, 0);
        }
        assert_eq!(b.pending_edges(), 20);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(2, 4);
        b.add_edge(2, 0);
        b.add_edge(2, 3);
        b.add_edge(2, 1);
        let g = b.build();
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn isolated_vertices_have_empty_lists() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.neighbors(0), &[] as &[VertexId]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1);
    }

    #[test]
    fn empty_build() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn parallel_and_sequential_finalization_agree() {
        // Big enough to cross PARALLEL_BUILD_MIN_HALF_EDGES, with heavy
        // duplication and skewed degrees.
        let n = 400u32;
        let edges: Vec<(u32, u32)> = (0..40_000u64)
            .map(|i| {
                let u = ((i * 2654435761) % n as u64) as u32;
                let v = ((i * 40503 + 7) % n as u64) as u32;
                (u, v)
            })
            .filter(|&(u, v)| u != v)
            .collect();
        let mut big = GraphBuilder::new(n as usize);
        for &(u, v) in &edges {
            big.add_edge(u, v);
        }
        assert!(big.pending_edges() * 2 >= super::PARALLEL_BUILD_MIN_HALF_EDGES);
        let g_par = big.build();
        // Same edges through the sequential finalizer (below the gate,
        // built in small batches is impossible — call it directly).
        let mut counts = vec![0usize; n as usize + 1];
        let mut half: Vec<(u32, u32)> = Vec::new();
        for &(u, v) in &edges {
            half.push((u, v));
            half.push((v, u));
        }
        for &(u, _) in &half {
            counts[u as usize + 1] += 1;
        }
        for i in 0..n as usize {
            counts[i + 1] += counts[i];
        }
        let mut neighbors = vec![0u32; half.len()];
        let mut cursor = counts.clone();
        for &(u, v) in &half {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }
        let g_seq = GraphBuilder::finalize_sequential(n as usize, &counts, neighbors);
        assert_eq!(g_par, g_seq);
    }
}
