//! Random graph families: Erdős–Rényi, Chung–Lu, R-MAT, random regular,
//! random bipartite.
//!
//! # Parallel generation, reproducible seeds
//!
//! Every generator whose samples are independent (all but the
//! configuration-model shuffle of [`random_regular`]) is generated
//! host-parallel: the sample-index domain is split into chunks whose
//! boundaries depend only on the instance parameters — never on the
//! thread count — and each chunk draws from its own derived RNG
//! substream. A seed therefore reproduces the identical graph at any
//! thread count (and on the 1-thread inline path); chunks are spliced
//! back in index order.
//!
//! # Building the CSR
//!
//! `gnm`, `gnp`, `chung_lu` and `random_bipartite` emit canonical pairs
//! `(u < v)` in strictly ascending order, chunk by chunk, so they fill
//! the CSR in one counting scatter with no sort or dedup
//! (`Graph::from_sorted_pairs`). `rmat` and `random_regular` emit
//! unordered pairs with repeats and go through [`GraphBuilder`].

use crate::builder::GraphBuilder;
use crate::csr::{Graph, VertexId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

fn rng_for(seed: u64, salt: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
}

/// Fixed chunk count for parallel generation. Determinism requires only
/// that the chunk *shape* is a pure function of the instance parameters;
/// 64 chunks load-balance any plausible host width.
const GEN_CHUNKS: u64 = 64;

/// Splits `0..total` into at most [`GEN_CHUNKS`] contiguous ranges.
pub(super) fn chunk_ranges(total: u64) -> Vec<(u64, u64)> {
    if total == 0 {
        return Vec::new();
    }
    let size = total.div_ceil(GEN_CHUNKS).max(1);
    (0..total.div_ceil(size))
        .map(|c| (c * size, ((c + 1) * size).min(total)))
        .collect()
}

/// Per-chunk RNG substream: sequentially chained, domain-separated
/// derivation of `(seed, salt, chunk)`, mirroring `mpc_sim::rng`'s
/// indexed-substream scheme (commutative mixing collides; chaining does
/// not). Chunks draw independently, so any chunk can be generated on any
/// thread without affecting any other chunk's stream.
pub(super) fn chunk_rng(seed: u64, salt: u64, chunk: u64) -> ChaCha8Rng {
    const CHUNK_LEAF: u64 = 0x4745_4e5f_4348_554e; // "GEN_CHUN"
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    fn chain(h: u64, value: u64) -> u64 {
        splitmix64(h.rotate_left(23) ^ value)
    }
    ChaCha8Rng::seed_from_u64(chain(
        chain(chain(splitmix64(seed), salt), chunk),
        CHUNK_LEAF,
    ))
}

/// Runs `gen_chunk(chunk_index, lo, hi)` over the fixed chunking of
/// `0..total` in parallel and returns the per-chunk edge lists in chunk
/// order.
fn generate_chunked(
    total: u64,
    gen_chunk: impl Fn(u64, u64, u64) -> Vec<(VertexId, VertexId)> + Sync,
) -> Vec<Vec<(VertexId, VertexId)>> {
    chunk_ranges(total)
        .par_iter()
        .enumerate()
        .map(|(c, &(lo, hi))| gen_chunk(c as u64, lo, hi))
        .collect()
}

/// `ln(1 - p)` for the geometric skips, for `0 < p < 1`. Where `1 - p`
/// rounds to 1 (`p` below about `1.1e-16`), `ln` would give 0 and every
/// skip `floor(-inf) as u64 == 0`, i.e. the complete graph; `ln_1p` keeps
/// it negative there. Elsewhere it is `(1 - p).ln()`, bit for bit.
fn ln_one_minus(p: f64) -> f64 {
    if 1.0 - p == 1.0 {
        (-p).ln_1p()
    } else {
        (1.0 - p).ln()
    }
}

/// Erdős–Rényi `G(n, p)`: each of the `n(n-1)/2` possible edges appears
/// independently with probability `p`.
///
/// Uses geometric skipping, so the cost is `O(n + m)` rather than `O(n^2)`,
/// which keeps million-vertex sparse instances cheap.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    if n < 2 || p == 0.0 {
        return Graph::empty(n);
    }
    if p >= 1.0 {
        let n_id = n as VertexId;
        return Graph::from_sorted_pairs(
            n,
            (0..n_id).flat_map(move |u| (u + 1..n_id).map(move |v| (u, v))),
        );
    }
    // Enumerate pairs (u, v), u < v, in lexicographic order and skip
    // geometrically: the next present edge is `floor(log(U)/log(1-p))`
    // positions ahead. Pair presence is i.i.d., so restarting the skip
    // chain at each chunk boundary (with the chunk's own substream)
    // samples the same distribution.
    let log1p = ln_one_minus(p);
    let total: u64 = n as u64 * (n as u64 - 1) / 2;
    let chunks = generate_chunked(total, |c, lo, hi| {
        let mut rng = chunk_rng(seed, 0x0067_6e70, c); // "gnp"
        let mut out = Vec::new();
        let mut idx = lo;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let skip = (u.ln() / log1p).floor() as u64;
            idx = match idx.checked_add(skip) {
                Some(i) => i,
                None => break,
            };
            if idx >= hi {
                break;
            }
            let (a, bv) = pair_from_index(n as u64, idx);
            out.push((a as VertexId, bv as VertexId));
            idx += 1;
        }
        out
    });
    Graph::from_sorted_pairs(n, chunks.iter().flatten().copied())
}

/// Maps a linear index in `0..n(n-1)/2` to the lexicographically ordered
/// pair `(u, v)` with `u < v`.
pub(super) fn pair_from_index(n: u64, idx: u64) -> (u64, u64) {
    // Row u starts at offset f(u) = u*n - u*(u+1)/2. Solve for the largest
    // u with f(u) <= idx via the quadratic formula, then fix up.
    let fi = idx as f64;
    let nf = n as f64;
    let mut u = ((2.0 * nf - 1.0 - ((2.0 * nf - 1.0).powi(2) - 8.0 * fi).sqrt()) / 2.0) as u64;
    let row_start = |u: u64| u * n - u * (u + 1) / 2;
    while u + 1 < n && row_start(u + 1) <= idx {
        u += 1;
    }
    while row_start(u) > idx {
        u -= 1;
    }
    let v = u + 1 + (idx - row_start(u));
    (u, v)
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct uniform random edges, the
/// first `m` distinct pair indices of one random stream (so `m` must be
/// at most the number of vertex pairs).
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    let total = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= total,
        "requested {m} edges but only {total} pairs exist"
    );
    let mut rng = rng_for(seed, 0x0067_6e6d); // "gnm"
    if m == 0 {
        return Graph::empty(n);
    }
    // Dense request: sample which pairs are *absent* instead.
    if m * 3 > total * 2 {
        let mut present = vec![true; total];
        let mut absent = total - m;
        while absent > 0 {
            let i = rng.gen_range(0..total);
            if present[i] {
                present[i] = false;
                absent -= 1;
            }
        }
        let chunks = generate_chunked(total as u64, |_, lo, hi| {
            (lo..hi)
                .filter(|&i| present[i as usize])
                .map(|i| {
                    let (u, v) = pair_from_index(n as u64, i);
                    (u as VertexId, v as VertexId)
                })
                .collect()
        });
        return Graph::from_sorted_pairs(n, chunks.iter().flatten().copied());
    }
    // The first m distinct draws, found by sorting: each round draws
    // exactly as many indices as are still missing, sorts them, merges
    // them into the sorted set and drops repeats. No round can overshoot,
    // so the stream is read exactly as far as a draw-by-draw rejection
    // loop reads it, and the set is the same.
    let mut chosen: Vec<u64> = Vec::with_capacity(m);
    while chosen.len() < m {
        let sorted = chosen.len();
        for _ in sorted..m {
            chosen.push(rng.gen_range(0..total as u64));
        }
        chosen[sorted..].sort_unstable();
        // Two ascending runs: the stable sort finds them and merges them
        // in one pass.
        chosen.sort();
        chosen.dedup();
    }
    Graph::from_sorted_pairs(n, ascending_pairs(n as u64, &chosen))
}

/// Decodes strictly ascending pair indices into the pairs
/// [`pair_from_index`] gives, which then ascend too, by walking the rows
/// instead of solving for each one.
fn ascending_pairs(
    n: u64,
    indices: &[u64],
) -> impl Iterator<Item = (VertexId, VertexId)> + Clone + '_ {
    // Row `u` holds the indices `start..start + (n - 1 - u)`.
    let (mut u, mut start) = (0u64, 0u64);
    indices.iter().map(move |&i| {
        while i >= start + (n - 1 - u) {
            start += n - 1 - u;
            u += 1;
        }
        (u as VertexId, (u + 1 + i - start) as VertexId)
    })
}

/// Chung–Lu random graph with power-law expected degrees.
///
/// Expected degree of vertex `v` is `~ w_v` where `w_v ∝ (v+1)^(-1/(β-1))`
/// scaled to hit `target_avg_degree`; `β` is the power-law exponent
/// (2 < β < 3 is the social-network regime). Edge `(u,v)` appears with
/// probability `min(1, w_u w_v / Σw)`. Sampled in `O(n + m)` expected time
/// with the Miller–Hagberg bucket technique simplified to sorted weights.
pub fn chung_lu(n: usize, beta: f64, target_avg_degree: f64, seed: u64) -> Graph {
    assert!(beta > 1.0, "power-law exponent must exceed 1");
    assert!(target_avg_degree >= 0.0);
    // Desired weights, descending (vertex 0 is the biggest hub).
    let gamma = 1.0 / (beta - 1.0);
    let mut w: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-gamma)).collect();
    let sum: f64 = w.iter().sum();
    let scale = target_avg_degree * n as f64 / sum;
    for x in &mut w {
        *x *= scale;
    }
    let total_w: f64 = w.iter().sum();
    if n < 2 || total_w == 0.0 {
        return Graph::empty(n);
    }
    // Each source row u is sampled independently of every other row, so
    // rows are chunked across threads; within a chunk, each u scans
    // candidates v > u with geometric skipping at rate
    // q = min(1, w_u * w_v / total_w) — since w is descending, the
    // standard two-phase (skip with p_max, accept with p/p_max) scheme.
    let chunks = generate_chunked((n - 1) as u64, |c, lo, hi| {
        let mut rng = chunk_rng(seed, 0x0063_6c75, c); // "clu"
        let mut out = Vec::new();
        for u in lo as usize..hi as usize {
            let mut v = u + 1;
            let mut p_max = (w[u] * w[v] / total_w).min(1.0);
            while v < n && p_max > 0.0 {
                // Skip ahead geometrically at rate p_max.
                if p_max < 1.0 {
                    let r: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let skip = (r.ln() / ln_one_minus(p_max)).floor() as usize;
                    v = match v.checked_add(skip) {
                        Some(x) => x,
                        None => break,
                    };
                }
                if v >= n {
                    break;
                }
                let p = (w[u] * w[v] / total_w).min(1.0);
                if rng.gen_range(0.0..1.0) < p / p_max {
                    out.push((u as VertexId, v as VertexId));
                }
                p_max = p;
                v += 1;
            }
        }
        out
    });
    Graph::from_sorted_pairs(n, chunks.iter().flatten().copied())
}

/// Parameters of the R-MAT recursive matrix generator.
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    /// Probability mass of the four quadrants; must sum to ~1.
    pub a: f64,
    /// Top-right quadrant mass.
    pub b: f64,
    /// Bottom-left quadrant mass.
    pub c: f64,
    /// Bottom-right quadrant mass.
    pub d: f64,
}

impl Default for RmatParams {
    /// The classic Graph500-style skewed parameterization.
    fn default() -> Self {
        Self {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        }
    }
}

/// R-MAT graph on `2^scale` vertices with `edge_factor * 2^scale` sampled
/// edges (self-loops dropped, duplicates collapsed, so the realized edge
/// count is somewhat lower).
pub fn rmat(scale: u32, edge_factor: usize, params: RmatParams, seed: u64) -> Graph {
    let sum = params.a + params.b + params.c + params.d;
    assert!(
        (sum - 1.0).abs() < 1e-6,
        "R-MAT quadrant masses must sum to 1"
    );
    let n: usize = 1 << scale;
    let m = edge_factor * n;
    // Every edge sample is independent: chunk the m draws.
    let chunks = generate_chunked(m as u64, |c, lo, hi| {
        let mut rng = chunk_rng(seed, 0x726d_6174, c); // "rmat"
        let mut out = Vec::new();
        for _ in lo..hi {
            let (mut lo_u, mut hi_u) = (0usize, n);
            let (mut lo_v, mut hi_v) = (0usize, n);
            while hi_u - lo_u > 1 {
                let r: f64 = rng.gen_range(0.0..1.0);
                let mid_u = (lo_u + hi_u) / 2;
                let mid_v = (lo_v + hi_v) / 2;
                if r < params.a {
                    hi_u = mid_u;
                    hi_v = mid_v;
                } else if r < params.a + params.b {
                    hi_u = mid_u;
                    lo_v = mid_v;
                } else if r < params.a + params.b + params.c {
                    lo_u = mid_u;
                    hi_v = mid_v;
                } else {
                    lo_u = mid_u;
                    lo_v = mid_v;
                }
            }
            if lo_u != lo_v {
                out.push((lo_u as VertexId, lo_v as VertexId));
            }
        }
        out
    });
    let mut b = GraphBuilder::with_capacity(n, m);
    for (u, v) in chunks.into_iter().flatten() {
        b.add_edge(u, v);
    }
    b.build()
}

/// Random `k`-regular-ish graph via the configuration model: `k` stubs per
/// vertex are paired uniformly; self-loops and duplicate pairings are
/// dropped, so degrees are `≤ k` and concentrated at `k` for `k ≪ n`.
///
/// Stays sequential: the Fisher–Yates shuffle is a chain of dependent
/// swaps with no independent substructure to chunk (only the CSR
/// finalization parallelizes, inside [`GraphBuilder::build`]).
pub fn random_regular(n: usize, k: usize, seed: u64) -> Graph {
    assert!(k < n, "degree must be below vertex count");
    let mut rng = rng_for(seed, 0x0072_6567); // "reg"
    let mut stubs: Vec<VertexId> = (0..n as VertexId)
        .flat_map(|v| std::iter::repeat_n(v, k))
        .collect();
    // Fisher–Yates shuffle, then pair consecutive stubs.
    for i in (1..stubs.len()).rev() {
        let j = rng.gen_range(0..=i);
        stubs.swap(i, j);
    }
    let mut b = GraphBuilder::with_capacity(n, n * k / 2);
    for pair in stubs.chunks_exact(2) {
        if pair[0] != pair[1] {
            b.add_edge(pair[0], pair[1]);
        }
    }
    b.build()
}

/// Random bipartite graph: sides of size `n_left` and `n_right` (vertex ids
/// `0..n_left` and `n_left..n_left+n_right`), each cross pair present
/// independently with probability `p`.
pub fn random_bipartite(n_left: usize, n_right: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    let n = n_left + n_right;
    if p == 0.0 || n_left == 0 || n_right == 0 {
        return Graph::empty(n);
    }
    let total = (n_left as u64) * (n_right as u64);
    if p >= 1.0 {
        let (left, all) = (n_left as VertexId, n as VertexId);
        return Graph::from_sorted_pairs(
            n,
            (0..left).flat_map(move |u| (left..all).map(move |v| (u, v))),
        );
    }
    // I.i.d. cross pairs: geometric skipping per chunk, as in `gnp`.
    let log1p = ln_one_minus(p);
    let chunks = generate_chunked(total, |c, lo, hi| {
        let mut rng = chunk_rng(seed, 0x0062_6970, c); // "bip"
        let mut out = Vec::new();
        let mut idx = lo;
        loop {
            let r: f64 = rng.gen_range(f64::EPSILON..1.0);
            let skip = (r.ln() / log1p).floor() as u64;
            idx = match idx.checked_add(skip) {
                Some(i) => i,
                None => break,
            };
            if idx >= hi {
                break;
            }
            let u = (idx / n_right as u64) as usize;
            let v = (idx % n_right as u64) as usize;
            out.push((u as VertexId, (n_left + v) as VertexId));
            idx += 1;
        }
        out
    });
    Graph::from_sorted_pairs(n, chunks.iter().flatten().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_structure;

    #[test]
    fn gnp_edge_count_concentrates() {
        let n = 500;
        let p = 0.02;
        let g = gnp(n, p, 11);
        check_structure(&g).unwrap();
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.num_edges() as f64;
        assert!(
            (got - expected).abs() < 4.0 * expected.sqrt() + 20.0,
            "edges {got} far from expectation {expected}"
        );
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).num_edges(), 0);
        assert_eq!(gnp(10, 1.0, 1).num_edges(), 45);
        assert_eq!(gnp(0, 0.5, 1).num_vertices(), 0);
        assert_eq!(gnp(1, 0.5, 1).num_edges(), 0);
    }

    #[test]
    fn gnp_deterministic() {
        assert_eq!(gnp(100, 0.1, 5), gnp(100, 0.1, 5));
        assert_ne!(gnp(100, 0.1, 5), gnp(100, 0.1, 6));
    }

    #[test]
    fn pair_index_roundtrip() {
        let n = 17u64;
        let mut idx = 0u64;
        for u in 0..n {
            for v in (u + 1)..n {
                assert_eq!(pair_from_index(n, idx), (u, v));
                idx += 1;
            }
        }
        let sparse: Vec<u64> = (0..idx).filter(|i| i % 3 != 1).collect();
        let walked: Vec<(u64, u64)> = ascending_pairs(n, &sparse)
            .map(|(u, v)| (u as u64, v as u64))
            .collect();
        let solved: Vec<(u64, u64)> = sparse.iter().map(|&i| pair_from_index(n, i)).collect();
        assert_eq!(walked, solved);
    }

    #[test]
    fn gnm_exact_edge_count() {
        for &(n, m) in &[(50usize, 0usize), (50, 100), (50, 1225), (50, 1000)] {
            let g = gnm(n, m, 3);
            check_structure(&g).unwrap();
            assert_eq!(g.num_edges(), m, "n={n} m={m}");
        }
    }

    #[test]
    fn gnm_keeps_the_first_m_distinct_draws() {
        // The oracle reads the same stream draw by draw into a hash set
        // and stops at the m-th distinct index.
        for (n, m, seed) in [
            (300, 20_000, 1),
            (300, 20_000, 2),
            (40, 500, 3),
            (2_000, 30_000, 4),
        ] {
            let total = (n * (n - 1) / 2) as u64;
            let mut rng = rng_for(seed, 0x0067_6e6d);
            let mut seen = std::collections::HashSet::new();
            while seen.len() < m {
                seen.insert(rng.gen_range(0..total));
            }
            let mut want: Vec<u64> = seen.into_iter().collect();
            want.sort_unstable();
            let want: Vec<(u64, u64)> =
                want.iter().map(|&i| pair_from_index(n as u64, i)).collect();
            let got: Vec<(u64, u64)> = gnm(n, m, seed)
                .edges()
                .map(|e| (e.u() as u64, e.v() as u64))
                .collect();
            assert!(got == want, "gnm({n}, {m}, {seed}) left the oracle's set");
        }
    }

    #[test]
    #[should_panic(expected = "pairs exist")]
    fn gnm_too_many_edges_panics() {
        let _ = gnm(4, 7, 0);
    }

    #[test]
    fn chung_lu_has_skewed_degrees() {
        let g = chung_lu(2000, 2.2, 8.0, 13);
        check_structure(&g).unwrap();
        let avg = g.average_degree();
        assert!((2.0..32.0).contains(&avg), "avg degree {avg}");
        assert!(
            g.max_degree() as f64 > 4.0 * avg,
            "power law should produce hubs: max {} avg {avg}",
            g.max_degree()
        );
    }

    #[test]
    fn rmat_basics() {
        let g = rmat(10, 8, RmatParams::default(), 17);
        check_structure(&g).unwrap();
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.num_edges() > 2000, "edges {}", g.num_edges());
        assert!(g.max_degree() > 3 * g.average_degree() as usize);
    }

    #[test]
    fn random_regular_degrees_concentrate() {
        let k = 8;
        let g = random_regular(400, k, 23);
        check_structure(&g).unwrap();
        for v in g.vertices() {
            assert!(g.degree(v) <= k);
        }
        assert!(g.average_degree() > 0.9 * k as f64);
    }

    #[test]
    fn bipartite_has_no_side_internal_edges() {
        let (l, r) = (40, 60);
        let g = random_bipartite(l, r, 0.1, 29);
        check_structure(&g).unwrap();
        for e in g.edges() {
            let left = (e.u() as usize) < l;
            let right = (e.v() as usize) >= l;
            assert!(left && right, "edge {:?} not crossing", e);
        }
        assert_eq!(random_bipartite(3, 4, 1.0, 0).num_edges(), 12);
    }

    #[test]
    fn probability_below_one_ulp_gives_no_edges() {
        // `1.0 - 1e-17 == 1.0`, so a plain `(1 - p).ln()` skip rate is 0
        // and every pair was taken: 4950, 2500 and 4326 edges. Most
        // Chung-Lu pair probabilities here are below 1e-16 too.
        assert_eq!(gnp(100, 1e-17, 3).num_edges(), 0);
        assert_eq!(random_bipartite(50, 50, 1e-17, 3).num_edges(), 0);
        assert_eq!(chung_lu(100, 2.5, 1e-15, 3).num_edges(), 0);
        assert_eq!(ln_one_minus(0.25), 0.75f64.ln());
    }
}
