//! Deterministic per-stream randomness.
//!
//! MPC round compression assumes *shared randomness*: every machine can
//! locally evaluate the same random choices (per-vertex thresholds)
//! without communication. We realize this with counter-style stream
//! derivation: `(seed, stream, keys)` fully determines a generator, so two
//! runs — or two machines — that name the same stream draw identical values.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Well-known stream salts, so unrelated subsystems never collide.
pub mod streams {
    /// Per-vertex threshold draws `T_{v,t}`.
    pub const THRESHOLD: u64 = 0x7468_7265; // "thre"
}

/// Domain tag finishing a `(seed, stream, [k_0, .., k_{n-1}])` derivation.
/// The component count is absorbed too, so a shorter tuple can never
/// collide with a longer one sharing a prefix.
const COMPOSITE_LEAF: u64 = 0x434f_4d50_4f53_4954; // "COMPOSIT"

/// Derives a generator for `(seed, stream, keys[0], keys[1], ...)` with
/// every component absorbed at full 64-bit width.
///
/// Components are absorbed by sequentially chained splitmix64, then the
/// result seeds ChaCha (overkill for simulation purposes, but it
/// guarantees stream independence). The chaining — rather than
/// XOR-combining independently hashed components — matters for
/// determinism *correctness*: XOR is commutative, so hashed components
/// can swap or cancel and structurally different tuples draw the same
/// underlying stream. Chained hashing is order-sensitive.
///
/// Tuple keys (e.g. the threshold key `(phase, vertex, iteration)`) go in
/// as separate components: packing them into one `u64` with shifts
/// silently collides once a component outgrows its bit field, whereas
/// chained absorption keeps arbitrary-magnitude components separated. The
/// component count is absorbed as well, so prefix tuples of different
/// lengths stay distinct.
pub fn composite_rng(seed: u64, stream: u64, keys: &[u64]) -> ChaCha8Rng {
    let mut h = chain(splitmix64(seed), stream);
    for &k in keys {
        h = chain(h, k);
    }
    h = chain(h, keys.len() as u64);
    ChaCha8Rng::seed_from_u64(chain(h, COMPOSITE_LEAF))
}

/// One order-sensitive absorption step: feed `value` into the running
/// hash state `h`.
#[inline]
fn chain(h: u64, value: u64) -> u64 {
    splitmix64(h.rotate_left(23) ^ value)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A second salt for the independence tests.
    const OTHER: u64 = 0x6f74_6872; // "othr"

    #[test]
    fn streams_are_deterministic() {
        let a: u64 = composite_rng(1, streams::THRESHOLD, &[]).gen();
        let b: u64 = composite_rng(1, streams::THRESHOLD, &[]).gen();
        assert_eq!(a, b);
    }

    #[test]
    fn streams_are_independent() {
        let a: u64 = composite_rng(1, OTHER, &[]).gen();
        let b: u64 = composite_rng(1, streams::THRESHOLD, &[]).gen();
        let c: u64 = composite_rng(2, OTHER, &[]).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn indexed_streams_differ() {
        let a: u64 = composite_rng(1, OTHER, &[0]).gen();
        let b: u64 = composite_rng(1, OTHER, &[1]).gen();
        assert_ne!(a, b);
        let a2: u64 = composite_rng(1, OTHER, &[0]).gen();
        assert_eq!(a, a2);
    }

    #[test]
    fn indexed_zero_differs_from_plain_stream() {
        let a: u64 = composite_rng(1, OTHER, &[]).gen();
        let b: u64 = composite_rng(1, OTHER, &[0]).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn swapped_stream_and_index_do_not_collide() {
        // Regression: the pre-workspace-bootstrap derivation XOR-combined
        // splitmix64(stream) with splitmix64(index + 0x1234), which is
        // commutative — swapping (stream, index + 0x1234) with
        // (index + 0x1234 - 0, stream - 0x1234) produced the *same*
        // generator for structurally different substreams. The chained
        // derivation must keep every such pair distinct.
        for (s1, i1) in [(OTHER, streams::THRESHOLD), (7u64, 13u64)] {
            let a: u64 = composite_rng(1, s1, &[i1]).gen();
            let b: u64 =
                composite_rng(1, i1.wrapping_add(0x1234), &[s1.wrapping_sub(0x1234)]).gen();
            assert_ne!(a, b, "commutative-mixing collision for ({s1}, {i1})");
        }
    }

    #[test]
    fn composite_streams_separate_every_component() {
        let base: u64 = composite_rng(1, streams::THRESHOLD, &[2, 3, 4]).gen();
        assert_ne!(
            base,
            composite_rng(2, streams::THRESHOLD, &[2, 3, 4]).gen(),
            "seed"
        );
        assert_ne!(base, composite_rng(1, OTHER, &[2, 3, 4]).gen(), "stream");
        for i in 0..3 {
            let mut keys = [2u64, 3, 4];
            keys[i] += 1;
            assert_ne!(
                base,
                composite_rng(1, streams::THRESHOLD, &keys).gen(),
                "component {i}"
            );
        }
        // Length is part of the derivation: a prefix is not the tuple.
        assert_ne!(base, composite_rng(1, streams::THRESHOLD, &[2, 3]).gen());
        assert_ne!(
            base,
            composite_rng(1, streams::THRESHOLD, &[2, 3, 4, 0]).gen()
        );
        // And reproducible.
        assert_eq!(base, composite_rng(1, streams::THRESHOLD, &[2, 3, 4]).gen());
    }

    #[test]
    fn composite_differs_from_indexed_and_plain() {
        // A key moved between the stream slot and the tuple, or dropped
        // from the tuple, names a different stream.
        let a: u64 = composite_rng(1, OTHER, &[5]).gen();
        let b: u64 = composite_rng(1, 5, &[OTHER]).gen();
        let c: u64 = composite_rng(1, OTHER, &[]).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn argument_order_is_significant() {
        let a: u64 = composite_rng(1, 2, &[3]).gen();
        let b: u64 = composite_rng(1, 3, &[2]).gen();
        let c: u64 = composite_rng(2, 1, &[3]).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn draws_are_identical_across_interleavings() {
        // Thread-count independence: a stream's values depend only on its
        // derivation key, never on which other streams were drawn first or
        // concurrently. Simulate two different machine-execution orders.
        let forward: Vec<u64> = (0..16u64)
            .map(|i| composite_rng(9, OTHER, &[i]).gen())
            .collect();
        let mut reverse: Vec<u64> = (0..16u64)
            .rev()
            .map(|i| composite_rng(9, OTHER, &[i]).gen())
            .collect();
        reverse.reverse();
        assert_eq!(forward, reverse);
    }
}
