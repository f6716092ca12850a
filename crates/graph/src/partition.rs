//! Random vertex partitions (Algorithm 2, line 2f).
//!
//! Each vertex is assigned to one of `m` parts independently and uniformly
//! at random. The assignment is a pure function of `(seed, vertex)` via a
//! counter-based RNG, so any machine in the MPC simulation can recompute
//! any vertex's part without communication — exactly the "shared
//! randomness" assumption round compression relies on.
//!
//! [`VertexPartition::table`] is a host memo of that shared randomness:
//! every vertex's part for one `(num_parts, seed)`, drawn once and in
//! parallel, so a simulation that asks for the same parts many times per
//! phase seeds one generator per vertex instead of one per question. It
//! carries no data a machine could not compute itself.

use crate::csr::VertexId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// A random assignment of an (arbitrary) subset of vertices to `m` parts.
#[derive(Debug, Clone)]
pub struct VertexPartition {
    num_parts: usize,
    seed: u64,
    /// Materialized parts (global vertex ids, ascending within each part).
    parts: Vec<Vec<VertexId>>,
}

impl VertexPartition {
    /// Assigns each vertex in `vertices` to one of `num_parts` parts
    /// uniformly at random, deterministically in `(seed, vertex id)`.
    pub fn assign(vertices: &[VertexId], num_parts: usize, seed: u64) -> Self {
        assert!(num_parts >= 1);
        let mut parts = vec![Vec::new(); num_parts];
        for &v in vertices {
            parts[Self::part_of_vertex(v, num_parts, seed)].push(v);
        }
        for p in &mut parts {
            p.sort_unstable();
        }
        Self {
            num_parts,
            seed,
            parts,
        }
    }

    /// The pure assignment function: which part vertex `v` lands in.
    /// Any participant holding `(seed, num_parts)` computes this locally.
    pub fn part_of_vertex(v: VertexId, num_parts: usize, seed: u64) -> usize {
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed ^ (v as u64).wrapping_mul(0xd134_2543_de82_ef95));
        rng.gen_range(0..num_parts)
    }

    /// Every vertex's part: entry `v` is
    /// `part_of_vertex(v, num_parts, seed)` for `v in 0..n`. Drawn
    /// host-parallel; the result does not depend on the pool width.
    pub fn table(n: usize, num_parts: usize, seed: u64) -> Vec<u32> {
        assert!(num_parts >= 1, "a partition needs at least one part");
        (0..n)
            .into_par_iter()
            .map(|v| Self::part_of_vertex(v as VertexId, num_parts, seed) as u32)
            .collect()
    }

    /// Number of parts `m`.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// The seed this partition was drawn with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Vertices of part `i` (ascending).
    pub fn part(&self, i: usize) -> &[VertexId] {
        &self.parts[i]
    }

    /// Iterates over all parts.
    pub fn parts(&self) -> impl Iterator<Item = &[VertexId]> + '_ {
        self.parts.iter().map(|p| p.as_slice())
    }

    /// Which part `v` belongs to (recomputed, works for any vertex id).
    pub fn part_of(&self, v: VertexId) -> usize {
        Self::part_of_vertex(v, self.num_parts, self.seed)
    }

    /// Total number of assigned vertices.
    pub fn total_vertices(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// Size of the largest part.
    pub fn max_part_size(&self) -> usize {
        self.parts.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_vertices_once() {
        let vs: Vec<VertexId> = (0..1000).collect();
        let p = VertexPartition::assign(&vs, 7, 42);
        assert_eq!(p.total_vertices(), 1000);
        let mut seen = vec![false; 1000];
        for part in p.parts() {
            for &v in part {
                assert!(!seen[v as usize], "vertex {v} assigned twice");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn part_of_matches_materialized_parts() {
        let vs: Vec<VertexId> = (0..500).step_by(3).collect();
        let p = VertexPartition::assign(&vs, 5, 9);
        for (i, part) in p.parts().enumerate() {
            for &v in part {
                assert_eq!(p.part_of(v), i);
            }
        }
    }

    #[test]
    fn balanced_in_expectation() {
        let vs: Vec<VertexId> = (0..10_000).collect();
        let m = 10;
        let p = VertexPartition::assign(&vs, m, 123);
        let expected = 10_000 / m;
        for part in p.parts() {
            let size = part.len() as f64;
            assert!(
                (size - expected as f64).abs() < 5.0 * (expected as f64).sqrt(),
                "part size {size} far from {expected}"
            );
        }
    }

    #[test]
    fn deterministic_in_seed_and_independent_of_input_order() {
        let vs: Vec<VertexId> = (0..100).collect();
        let mut vs_rev = vs.clone();
        vs_rev.reverse();
        let a = VertexPartition::assign(&vs, 4, 7);
        let b = VertexPartition::assign(&vs_rev, 4, 7);
        for i in 0..4 {
            assert_eq!(a.part(i), b.part(i));
        }
        let c = VertexPartition::assign(&vs, 4, 8);
        assert_ne!(
            (0..4).map(|i| a.part(i).len()).collect::<Vec<_>>(),
            (0..4).map(|i| c.part(i).len()).collect::<Vec<_>>(),
            "different seeds should (a.s.) differ"
        );
    }

    #[test]
    fn table_matches_part_of_vertex_at_every_pool_width() {
        let pool = |threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build test pool")
        };
        let (one, two) = (pool(1), pool(2));
        for (n, m) in [(0, 1), (1, 1), (5_000, 2), (70_000, 9), (70_000, 79)] {
            for seed in [3, 0x5eed_0000_0000_0001] {
                let table = one.install(|| VertexPartition::table(n, m, seed));
                assert_eq!(table.len(), n);
                for (v, &p) in table.iter().enumerate() {
                    assert_eq!(
                        p,
                        VertexPartition::part_of_vertex(v as VertexId, m, seed) as u32,
                        "n {n} m {m} seed {seed} v {v}"
                    );
                }
                assert_eq!(table, two.install(|| VertexPartition::table(n, m, seed)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn table_rejects_zero_parts() {
        let _ = VertexPartition::table(10, 0, 1);
    }

    #[test]
    fn single_part_gets_everything() {
        let vs: Vec<VertexId> = (5..15).collect();
        let p = VertexPartition::assign(&vs, 1, 0);
        assert_eq!(p.part(0), &vs[..]);
    }
}
