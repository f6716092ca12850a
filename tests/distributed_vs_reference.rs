//! Integration test: the message-passing executor and the in-memory
//! reference executor run the *same algorithm* — same partitions, same
//! thresholds, same freezes — across instance families, profiles and
//! seeds, while staying inside the MPC model's memory budget.

use mwvc_repro::core::mpc::distributed::{
    recommended_cluster, run_distributed, DistributedOutcome,
};
use mwvc_repro::core::mpc::{run_reference, MpcMwvcConfig};
use mwvc_repro::graph::generators::{chung_lu, gnm, planted_cover};
use mwvc_repro::graph::{WeightModel, WeightedGraph};

const EPS: f64 = 0.1;

/// Asserts the two executors agree on `wg` and returns the distributed
/// outcome.
fn assert_equivalent(wg: &WeightedGraph, cfg: &MpcMwvcConfig, label: &str) -> DistributedOutcome {
    let cluster = recommended_cluster(wg, cfg);
    let dist = run_distributed(wg, cfg, cluster);
    let reference = run_reference(wg, cfg);
    assert_eq!(dist.phases, reference.num_phases(), "{label}: phase count");
    assert_eq!(dist.cover, reference.cover, "{label}: covers");
    assert_eq!(dist.stalled, reference.stalled, "{label}: stall flag");
    for (i, (a, b)) in dist
        .certificate
        .x
        .iter()
        .zip(&reference.certificate.x)
        .enumerate()
    {
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
            "{label}: edge {i} dual {a} vs {b}"
        );
    }
    assert!(dist.trace.is_clean(), "{label}: model violations");
    dist
}

/// Order-sensitive 64-bit fingerprint (splitmix64 chaining) of the cover,
/// every dual's bits and the phase count.
fn fingerprint(out: &DistributedOutcome) -> u64 {
    let mut h = 0x05ca_1ab1_e0dd_ba11_u64;
    let mut mix = |v: u64| {
        let mut x = h.rotate_left(23) ^ v;
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = x ^ (x >> 31);
    };
    for &v in out.cover.vertices() {
        mix(v as u64);
    }
    for x in &out.certificate.x {
        mix(x.to_bits());
    }
    mix(out.phases as u64);
    h
}

/// Runs past one phase and pins the output bit for bit. The 1e-9
/// tolerance of `assert_equivalent` cannot see a change in the order in
/// which the edge homes sum a vertex's duals; the fingerprint can.
///
/// The constants were recorded when the home rounds still looked up each
/// vertex's edges per message, so they also pin the sweep to that
/// summation order. After an intentional change to the algorithm or to
/// its summation order, refresh them: set each to `0`, run
/// `cargo test --test distributed_vs_reference equivalent_across_phases`
/// and copy the fingerprint each failure message prints.
#[test]
fn equivalent_across_phases() {
    // (d, seed) of chung_lu(2_000, 2.3, d, seed), epsilon, config seed,
    // phases, fingerprint.
    for (d, seed, eps, cfg_seed, phases, want) in [
        (60.0, 3, 0.03, 5, 3, 0x237a_92ce_55c1_cc00_u64),
        (40.0, 11, 0.05, 7, 2, 0x854a_71fc_982d_3bd5),
    ] {
        let label = &format!("chung-lu d={d}");
        let g = chung_lu(2_000, 2.3, d, seed);
        let wg = WeightedGraph::new(
            g.clone(),
            WeightModel::Zipf {
                exponent: 1.2,
                scale: 40.0,
            }
            .sample(&g, seed),
        );
        let cfg = MpcMwvcConfig::paper_scaled(eps, cfg_seed);
        let dist = assert_equivalent(&wg, &cfg, label);
        assert!(dist.phases >= 2, "{label}: ran {} phase(s)", dist.phases);
        assert_eq!(dist.phases, phases, "{label}: phase count");
        let got = fingerprint(&dist);
        assert_eq!(got, want, "{label}: fingerprint {got:#018x}");
    }
}

#[test]
fn equivalent_on_erdos_renyi_across_seeds() {
    for seed in [1u64, 2, 3] {
        let g = gnm(500, 8000, seed);
        let wg = WeightedGraph::new(
            g.clone(),
            WeightModel::Uniform { lo: 1.0, hi: 6.0 }.sample(&g, seed),
        );
        let cfg = MpcMwvcConfig::practical(EPS, 100 + seed);
        assert_equivalent(&wg, &cfg, &format!("er seed {seed}"));
    }
}

#[test]
fn equivalent_on_power_law() {
    let g = chung_lu(800, 2.3, 24.0, 7);
    let wg = WeightedGraph::new(
        g.clone(),
        WeightModel::Zipf {
            exponent: 1.2,
            scale: 40.0,
        }
        .sample(&g, 7),
    );
    assert_equivalent(&wg, &MpcMwvcConfig::practical(EPS, 7), "chung-lu");
}

#[test]
fn equivalent_on_planted_instances() {
    let inst = planted_cover(80, 3, 0.1, 6.0, 9);
    assert_equivalent(&inst.graph, &MpcMwvcConfig::practical(EPS, 9), "planted");
}

#[test]
fn equivalent_under_paper_profile() {
    let g = gnm(300, 3000, 13);
    let wg = WeightedGraph::new(
        g.clone(),
        WeightModel::Exponential { mean: 2.0 }.sample(&g, 13),
    );
    assert_equivalent(&wg, &MpcMwvcConfig::paper(EPS, 5), "paper profile");
}

#[test]
fn equivalent_under_alternative_init_schemes() {
    use mwvc_repro::core::InitScheme;
    let g = gnm(400, 6400, 17);
    let wg = WeightedGraph::new(
        g.clone(),
        WeightModel::Uniform { lo: 1.0, hi: 4.0 }.sample(&g, 17),
    );
    for init in [InitScheme::MaxDegree, InitScheme::Uniform] {
        let mut cfg = MpcMwvcConfig::practical(EPS, 19);
        cfg.init = init;
        assert_equivalent(&wg, &cfg, init.label());
    }
}

#[test]
fn equivalent_with_fixed_thresholds() {
    use mwvc_repro::core::ThresholdScheme;
    let g = gnm(400, 6400, 23);
    let wg = WeightedGraph::new(
        g.clone(),
        WeightModel::Uniform { lo: 1.0, hi: 4.0 }.sample(&g, 23),
    );
    let mut cfg = MpcMwvcConfig::practical(EPS, 29);
    cfg.thresholds = ThresholdScheme::FixedMidpoint;
    assert_equivalent(&wg, &cfg, "fixed thresholds");
}
