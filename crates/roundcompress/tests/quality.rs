//! The round-compression executor's quality and determinism contract:
//!
//! * feasible covers on all five standard preset families,
//! * `(2+O(ε))` quality against the *exact* LP lower bound (`LP* ≤ OPT`),
//! * certificate soundness — the emitted dual never overstates the lower
//!   bound (it stays at or below `LP*`),
//! * bit-identical covers, certificates, and traces at host pool widths
//!   1 and 3,
//! * multi-level output pinned bit for bit at pool widths 1, 2 and 5.

use mpc_sim::ExecutionTrace;
use mwvc_baselines::lp_optimum;
use mwvc_core::mpc::Executor;
use mwvc_graph::generators::gnm;
use mwvc_graph::{EdgeIndex, GraphPreset, WeightModel, WeightedGraph};
use mwvc_roundcompress::{
    recommended_cluster, run_roundcompress, RoundCompressConfig, RoundCompressExecutor,
    RoundCompressOutcome,
};

const EPS: f64 = 0.0625; // the tight end of the bench matrix's ε axis

fn preset_instance(preset: &GraphPreset, seed: u64) -> WeightedGraph {
    let g = preset.build(seed);
    let w = WeightModel::Uniform { lo: 1.0, hi: 10.0 }.sample(&g, seed ^ 0xABCD);
    WeightedGraph::new(g, w)
}

/// Feasibility, (2+O(ε)) quality vs LP*, and certificate soundness on
/// every standard family. The provable bound is `2/(1-4ε)` (threshold
/// freezing backs every cover vertex with `(1-4ε)` of its weight in
/// exactly feasible duals), which is `2 + O(ε)`.
#[test]
fn all_five_families_feasible_certified_and_within_two_plus_o_eps() {
    for (i, preset) in GraphPreset::standard_families(512, 16).iter().enumerate() {
        let wg = preset_instance(preset, 1000 + i as u64);
        let eidx = EdgeIndex::build(&wg.graph);
        let lp = lp_optimum(&wg).value;
        let cfg = RoundCompressConfig::practical(EPS, 77 + i as u64);
        let out = run_roundcompress(&wg, &cfg, recommended_cluster(&wg, &cfg));
        out.cover
            .verify(&wg.graph)
            .unwrap_or_else(|e| panic!("{}: uncovered edge {e:?}", preset.family()));
        assert!(
            out.trace.is_clean(),
            "{}: model violations",
            preset.family()
        );

        let weight = out.cover.weight(&wg);
        let bound = 2.0 / (1.0 - 4.0 * EPS);
        // True quality against the exact LP lower bound.
        assert!(
            weight <= bound * lp + 1e-9,
            "{}: weight {weight} > (2+O(eps)) * LP* = {bound} * {lp}",
            preset.family()
        );
        // Certificate soundness: the dual is feasible (no rescaling
        // needed) and its value never overstates the LP optimum.
        let factor = out.certificate.feasibility_factor(&wg, &eidx);
        assert!(factor <= 1.0 + 1e-9, "{}: infeasible dual", preset.family());
        let lb = out.certificate.lower_bound(&wg, &eidx);
        assert!(
            lb <= lp + 1e-6 * lp.max(1.0),
            "{}: certified lower bound {lb} overstates LP* {lp}",
            preset.family()
        );
        assert!(lb > 0.0, "{}: vacuous certificate", preset.family());
        // And the a-posteriori certified ratio matches the a-priori bound.
        let certified = out.certificate.certified_ratio(&wg, &eidx, weight);
        assert!(
            certified <= bound + 1e-9,
            "{}: certified ratio {certified} > {bound}",
            preset.family()
        );
    }
}

/// The determinism contract behind the perf gate: covers, certificates,
/// and the full execution trace are bit-identical whether the host pool
/// has 1 or 3 threads.
#[test]
fn bit_identical_covers_and_traces_at_pool_widths_1_and_3() {
    let preset = GraphPreset::Gnm {
        n: 512,
        avg_degree: 16,
    };
    let wg = preset_instance(&preset, 99);
    let cfg = RoundCompressConfig::practical(EPS, 31);
    let cluster = recommended_cluster(&wg, &cfg);
    let run = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build pool");
        pool.install(|| run_roundcompress(&wg, &cfg, cluster))
    };
    let a = run(1);
    let b = run(3);
    assert_eq!(a.cover, b.cover, "covers must not see host threading");
    assert_eq!(a.certificate, b.certificate);
    assert_eq!(a.trace, b.trace, "traces must not see host threading");
    assert_eq!(a.levels, b.levels);

    // Same through the Executor trait (what the bench harness calls).
    let exec = RoundCompressExecutor::new(cfg);
    let pool1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let pool3 = rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build()
        .unwrap();
    let ra = pool1.install(|| exec.run(&wg));
    let rb = pool3.install(|| exec.run(&wg));
    assert_eq!(ra.solution, rb.solution);
    assert_eq!(ra.cost, rb.cost);
}

/// Order-sensitive 64-bit fingerprint (splitmix64 chaining) of `values`,
/// chained as the distributed executor's pins in
/// `tests/distributed_vs_reference.rs` chain their own.
fn chain(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0x05ca_1ab1_e0dd_ba11_u64;
    for v in values {
        let mut x = h.rotate_left(23) ^ v;
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = x ^ (x >> 31);
    }
    h
}

/// Fingerprint of the cover, every dual's bits and the level count.
fn fingerprint(out: &RoundCompressOutcome) -> u64 {
    let cover = out.cover.vertices().iter().map(|&v| v as u64);
    let duals = out.certificate.x.iter().map(|x| x.to_bits());
    chain(cover.chain(duals).chain([out.num_levels() as u64]))
}

/// Fingerprint of the per-round accounting: every round's label and
/// word totals, then every machine's row of every round.
fn trace_fingerprint(trace: &ExecutionTrace) -> u64 {
    let rounds = trace.rounds.iter().flat_map(|r| {
        let label = r.label.bytes().map(u64::from);
        [r.label.len() as u64].into_iter().chain(label).chain([
            r.max_sent as u64,
            r.max_received as u64,
            r.max_resident as u64,
            r.total_traffic as u64,
        ])
    });
    let machines = trace.critical_path.machine_rounds.iter().flatten();
    let rows = machines.flat_map(|m| {
        [
            m.cost,
            m.stall_words,
            m.sent_words,
            m.received_words,
            m.received_msgs,
            m.spill_words,
        ]
    });
    chain(rounds.chain(rows))
}

/// Runs several compression levels and pins the output bit for bit at
/// pool widths 1, 2 and 5. The quality checks above cannot see the order
/// in which an owner sums a vertex's incident duals or the order in which
/// the host assembles the output; the fingerprint can.
///
/// After an intentional change to the algorithm or to a summation order,
/// refresh the constants: set each to `0`, run
/// `cargo test -p mwvc-roundcompress --test quality multi_level_output_is_pinned`
/// and copy the fingerprint each failure message prints; a change that
/// moves a word charge or a message between rounds on purpose refreshes
/// the trace fingerprint the same way.
#[test]
fn multi_level_output_is_pinned() {
    let eps = 0.1;
    let g = gnm(2_000, 40_000, 7);
    let w = WeightModel::Uniform { lo: 1.0, hi: 9.0 }.sample(&g, 7 ^ 1);
    let wg = WeightedGraph::new(g, w);
    let eidx = EdgeIndex::build(&wg.graph);
    // Budget factor, levels, output fingerprint, trace fingerprint.
    // ⌈0.03 · 2000⌉ = 60 edges floors to the 64-edge minimum budget.
    for (edges_per_vertex, levels, want, want_trace) in [
        (
            0.25,
            3,
            0x5d45_e3b5_b20d_cdba_u64,
            0x52bd_c966_84e6_cc53_u64,
        ),
        (0.03, 7, 0x415d_d1f5_b2bc_9d16, 0xa54c_2430_2ee1_4a5c),
    ] {
        let cfg = RoundCompressConfig {
            edges_per_vertex,
            ..RoundCompressConfig::practical(eps, 7)
        };
        let cluster = recommended_cluster(&wg, &cfg);
        for threads in [1, 2, 5] {
            let label = format!("budget factor {edges_per_vertex} at pool width {threads}");
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build pool");
            let out = pool.install(|| run_roundcompress(&wg, &cfg, cluster));
            out.cover.verify(&wg.graph).expect("valid cover");
            let factor = out.certificate.feasibility_factor(&wg, &eidx);
            assert!(factor <= 1.0 + 1e-9, "{label}: infeasible dual {factor}");
            let ratio = out
                .certificate
                .certified_ratio(&wg, &eidx, out.cover.weight(&wg));
            let bound = 2.0 / (1.0 - 4.0 * eps);
            assert!(ratio <= bound, "{label}: certified ratio {ratio} > {bound}");
            assert_eq!(out.num_levels(), levels, "{label}: level count");
            let got = fingerprint(&out);
            assert_eq!(got, want, "{label}: fingerprint {got:#018x}");
            let got = trace_fingerprint(&out.trace);
            assert_eq!(got, want_trace, "{label}: trace fingerprint {got:#018x}");
        }
    }
}
