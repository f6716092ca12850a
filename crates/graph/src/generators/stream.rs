//! Streaming generator: a `G(n, m)`-style family whose sampling state is
//! `O(1)`, so it can feed an [`EdgeSink`] of either construction path —
//! the in-memory [`GraphBuilder`](crate::GraphBuilder) or the
//! byte-budgeted
//! [`StreamingGraphBuilder`](crate::outofcore::StreamingGraphBuilder) —
//! without ever holding the edge set in RAM.
//!
//! # Why not exact `gnm`?
//!
//! Exact uniform sampling *without* replacement (what [`gnm`] does)
//! needs `Θ(m)` state (the sorted set of chosen pair indices, which must
//! hold every draw to drop repeats) or a `Θ(n²)` presence bitmap — both
//! defeat the point of an out-of-core build. [`gnm_stream_into`] instead draws `samples` pair indices
//! uniformly **with** replacement from the `n(n-1)/2` pairs; the sink's
//! deduplication collapses collisions, so the realized edge count is
//! `total·(1 − (1 − 1/total)^samples)` — within a fraction of a percent
//! of `samples` in the sparse regime `m ≪ n²` the huge tiers live in.
//! The degree distribution matches `G(n, m)` asymptotically.
//!
//! # Determinism
//!
//! The sample-index domain is split by the same fixed chunking as the
//! other generators ([`GEN_CHUNKS`](super::random) chunks, one derived
//! RNG substream each), and chunks are emitted in index order, so a seed
//! reproduces the identical edge *sequence* — hence the identical graph
//! through either sink — independent of thread count (this path does not
//! even use threads) and of the sink's byte budget.
//!
//! [`gnm`]: super::gnm

use super::random::{chunk_ranges, chunk_rng, pair_from_index};
use crate::builder::EdgeSink;
use crate::csr::VertexId;
use rand::Rng;

/// Domain separation salt for the streamed family ("gnms").
const GNM_STREAM_SALT: u64 = 0x676e_6d73;

/// Emits `samples` uniform random vertex pairs (with replacement, no
/// self-pairs — see the module docs for the exact-`m` trade-off) into
/// `sink`, in a deterministic order given `seed`.
///
/// Memory: `O(1)` beyond the sink itself.
pub fn gnm_stream_into(n: usize, samples: u64, seed: u64, sink: &mut impl EdgeSink) {
    assert!(n <= u32::MAX as usize, "vertex count exceeds u32 id space");
    if n < 2 {
        assert_eq!(samples, 0, "no pairs exist for n={n}");
        return;
    }
    let total: u64 = n as u64 * (n as u64 - 1) / 2;
    for (c, (lo, hi)) in chunk_ranges(samples).into_iter().enumerate() {
        let mut rng = chunk_rng(seed, GNM_STREAM_SALT, c as u64);
        for _ in lo..hi {
            let idx = rng.gen_range(0..total);
            let (u, v) = pair_from_index(n as u64, idx);
            sink.add_edge(u as VertexId, v as VertexId);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::Graph;
    use crate::outofcore::StreamingGraphBuilder;
    use crate::validate::check_structure;

    /// The in-memory build of the stream: each test's control instance.
    fn in_memory(n: usize, samples: u64, seed: u64) -> Graph {
        let mut b = GraphBuilder::new(n);
        gnm_stream_into(n, samples, seed, &mut b);
        b.build()
    }

    #[test]
    fn stream_family_is_deterministic_and_near_target() {
        let (n, samples) = (1_000usize, 8_000u64);
        let a = in_memory(n, samples, 42);
        let b = in_memory(n, samples, 42);
        check_structure(&a).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, in_memory(n, samples, 43));
        // With-replacement shrinkage is tiny in the sparse regime.
        assert!(
            a.num_edges() as f64 > 0.98 * samples as f64,
            "edges {} vs {} samples",
            a.num_edges(),
            samples
        );
    }

    #[test]
    fn streamed_and_in_memory_sinks_agree() {
        let (n, samples, seed) = (400usize, 5_000u64, 7u64);
        let g_mem = in_memory(n, samples, seed);
        let mut ooc = StreamingGraphBuilder::new(n, 2048, None);
        gnm_stream_into(n, samples, seed, &mut ooc);
        let path = std::env::temp_dir().join(format!("gnms-{}.ocsr", std::process::id()));
        let csr = ooc.finish_with_buckets(&path, 512).unwrap();
        let g_ooc = csr.load_graph().unwrap();
        assert_eq!(g_mem, g_ooc);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn empty_stream() {
        let g = in_memory(1, 0, 0);
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }
}
