//! Integration test: the message-passing executor and the in-memory
//! reference executor run the *same algorithm* — same partitions, same
//! thresholds, same freezes — across instance families, profiles and
//! seeds, while staying inside the MPC model's memory budget.

use mwvc_repro::core::mpc::distributed::{
    recommended_cluster, run_distributed, DistributedOutcome,
};
use mwvc_repro::core::mpc::{run_reference, MpcMwvcConfig, PhaseSwitch};
use mwvc_repro::graph::generators::{chung_lu, gnm, planted_cover, star_composite};
use mwvc_repro::graph::{WeightModel, WeightedGraph};
use mwvc_repro::sim::ExecutionTrace;

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
    assert_eq!(
        dist.hit_max_phases, reference.hit_max_phases,
        "{label}: phase-cap flag"
    );
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

/// Order-sensitive 64-bit fingerprint (splitmix64 chaining) of `values`.
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

/// Fingerprint of the cover, every dual's bits and the phase count.
fn fingerprint(out: &DistributedOutcome) -> u64 {
    let cover = out.cover.vertices().iter().map(|&v| v as u64);
    let duals = out.certificate.x.iter().map(|x| x.to_bits());
    chain(cover.chain(duals).chain([out.phases as u64]))
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

/// Runs past one phase and pins the output bit for bit. The 1e-9
/// tolerance of `assert_equivalent` cannot see a change in the order in
/// which the edge homes sum a vertex's duals; the fingerprint can. A
/// second fingerprint pins the per-round accounting (every round's
/// label, peak sent/received/resident words and traffic, and every
/// machine's row), which no bench gate sees round by round.
///
/// The constants were recorded when the home rounds still looked up each
/// vertex's edges per message, so they also pin the sweep to that
/// summation order. After an intentional change to the algorithm or to
/// its summation order, refresh them: set each to `0`, run
/// `cargo test --test distributed_vs_reference equivalent_across_phases`
/// and copy the fingerprint each failure message prints; a change that
/// moves a word charge or a message between rounds on purpose refreshes
/// the trace fingerprint the same way.
#[test]
fn equivalent_across_phases() {
    // (d, seed) of chung_lu(2_000, 2.3, d, seed), epsilon, config seed,
    // phases, output fingerprint, trace fingerprint.
    for (d, seed, eps, cfg_seed, phases, want, want_trace) in [
        (
            60.0,
            3,
            0.03,
            5,
            3,
            0x237a_92ce_55c1_cc00_u64,
            0x7f84_db4d_6f3e_1997_u64,
        ),
        (
            40.0,
            11,
            0.05,
            7,
            2,
            0x854a_71fc_982d_3bd5,
            0xe8c3_1f62_2765_9b77,
        ),
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
        let got = trace_fingerprint(&dist.trace);
        assert_eq!(got, want_trace, "{label}: trace fingerprint {got:#018x}");
    }
}

/// The plan round's `max_phases` exit: one phase, then the cap fires
/// before the degree switch does.
#[test]
fn equivalent_on_the_phase_cap_exit() {
    let g = gnm(800, 25_600, 71);
    let wg = WeightedGraph::new(
        g.clone(),
        WeightModel::Zipf {
            exponent: 1.2,
            scale: 40.0,
        }
        .sample(&g, 71),
    );
    let cfg = MpcMwvcConfig {
        max_phases: 1,
        ..MpcMwvcConfig::paper_scaled(0.1, 5)
    };
    let dist = assert_equivalent(&wg, &cfg, "phase cap");
    assert_eq!(dist.phases, 1, "phase cap: phase count");
    assert!(dist.hit_max_phases && !dist.stalled, "phase cap: exit");
}

/// The plan round's stall exit: every edge joins a hub to a leaf below
/// the `V^high` degree cutoff, so the only phase prices no edge and the
/// next plan sees the same active count.
#[test]
fn equivalent_on_the_stall_exit() {
    let wg = WeightedGraph::unweighted(star_composite(4, 4_000, 0.0, 3));
    let cfg = MpcMwvcConfig {
        switch: PhaseSwitch::AvgDegree(0.5),
        ..MpcMwvcConfig::practical(EPS, 1)
    };
    let dist = assert_equivalent(&wg, &cfg, "stall");
    assert_eq!(dist.phases, 1, "stall: phase count");
    assert!(dist.stalled && !dist.hit_max_phases, "stall: exit");
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
