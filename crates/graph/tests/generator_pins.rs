//! Bit pins of the random generators and of the edge index built over
//! their output.
//!
//! Every gated workload starts from one of these generators, so a change
//! to how they draw, deduplicate or lay out the CSR must leave each
//! instance's adjacency and edge ids exactly where they were. The
//! property tests check structure and edge counts; only a fingerprint can
//! see which edges were drawn and in what order the ids were handed out.
//!
//! After an intentional change to a generator, refresh the constants: set
//! each to `0`, run
//! `cargo test -p mwvc-graph --test generator_pins`
//! and copy the fingerprint each failure message prints.

use mwvc_graph::generators::{chung_lu, gnm, gnp, random_bipartite};
use mwvc_graph::{EdgeIndex, Graph};

/// Order-sensitive 64-bit fingerprint (splitmix64 chaining) of the
/// adjacency lists, the edge id table and every incident `(neighbor, id)`
/// pair.
fn fingerprint(g: &Graph) -> u64 {
    let mut h = 0x6e_7261_7068_5f70_u64; // "graph_p"
    let mut mix = |v: u64| {
        let mut x = h.rotate_left(23) ^ v;
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = x ^ (x >> 31);
    };
    mix(g.num_vertices() as u64);
    for v in g.vertices() {
        mix(g.degree(v) as u64);
        for &u in g.neighbors(v) {
            mix(u as u64);
        }
    }
    let idx = EdgeIndex::build(g);
    mix(idx.num_edges() as u64);
    for e in idx.edges() {
        mix(((e.u() as u64) << 32) | e.v() as u64);
    }
    for v in g.vertices() {
        for (u, eid) in idx.incident(g, v) {
            mix(((u as u64) << 32) | eid as u64);
        }
    }
    h
}

/// Each generator family at pool widths 1, 2 and 5, with the edge count
/// beside the fingerprint so a failure says whether the size moved too.
#[test]
fn generated_graphs_and_edge_ids_are_pinned() {
    type Case = (&'static str, fn() -> Graph, usize, u64);
    let cases: [Case; 9] = [
        // Sparse `gnm` path with many repeated draws (m is 45% of all pairs).
        (
            "gnm(300, 20_000)",
            || gnm(300, 20_000, 11),
            20_000,
            0xb206_19d6_3728_5ea8,
        ),
        (
            "gnm(20_000, 320_000)",
            || gnm(20_000, 320_000, 11),
            320_000,
            0xd370_4e4f_6762_569d,
        ),
        // Dense `gnm` path: draws the absent pairs instead.
        (
            "gnm(50, 1_000)",
            || gnm(50, 1_000, 11),
            1_000,
            0x5c16_1ccd_b656_f24b,
        ),
        (
            "gnp(2_000, 0.01)",
            || gnp(2_000, 0.01, 11),
            19_979,
            0x0b0f_4323_117e_09b4,
        ),
        (
            "gnp(40, 1.0)",
            || gnp(40, 1.0, 11),
            780,
            0x95e2_41b9_1c59_5ee6,
        ),
        (
            "chung_lu(5_000, 2.3, 16)",
            || chung_lu(5_000, 2.3, 16.0, 11),
            37_962,
            0x68c7_490f_eaad_61ad,
        ),
        // Saturated: the hubs' edge probabilities clip at 1.
        (
            "chung_lu(500, 2.1, 400)",
            || chung_lu(500, 2.1, 400.0, 11),
            35_534,
            0x6fda_1b90_b92d_6c11,
        ),
        (
            "random_bipartite(300, 500, 0.05)",
            || random_bipartite(300, 500, 0.05, 11),
            7_507,
            0x82f6_5a55_3567_4d25,
        ),
        (
            "random_bipartite(7, 9, 1.0)",
            || random_bipartite(7, 9, 1.0, 11),
            63,
            0xfdf4_f611_1309_b114,
        ),
    ];
    for threads in [1, 2, 5] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build pool");
        for (name, make, edges, want) in cases {
            let g = pool.install(make);
            let got = (g.num_edges(), fingerprint(&g));
            assert_eq!(
                got,
                (edges, want),
                "{name} at pool width {threads}: (edges, fingerprint) = ({}, {:#018x})",
                got.0,
                got.1
            );
        }
    }
}
