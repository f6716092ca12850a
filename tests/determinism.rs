//! Thread-count determinism: the full pipeline — generators, reference
//! executor, distributed and round-compression executors — must produce
//! **bit-identical** output on pools of 1, 2, and N threads.
//!
//! This is the contract the vendored `rayon` pool promises
//! (order-preserving indexed collects over a chunk shape fixed by the
//! input length) verified end-to-end through every layer that uses it.
//! Any scheduling sensitivity anywhere in the tree fails these tests.

use mwvc_repro::core::mpc::{
    recommended_cluster, run_distributed, run_outofcore, run_reference, DistributedOutcome,
    MpcMwvcConfig, OocConfig, OocOutcome,
};
use mwvc_repro::graph::generators::RmatParams;
use mwvc_repro::graph::generators::{chung_lu, gnm, gnp, random_bipartite, random_regular, rmat};
use mwvc_repro::graph::{Graph, StreamingGraphBuilder, WeightModel, WeightedGraph};
use mwvc_repro::roundcompress;
use mwvc_repro::sim::router::PARALLEL_SHUFFLE_MIN_MACHINES;
use mwvc_repro::sim::{MemoryBudget, MpcConfig};
use rayon::ThreadPool;

const EPS: f64 = 0.1;
const SEED: u64 = 4242;

/// The pool widths every artifact is checked across. 1 is the inline
/// sequential baseline; 2 and 5 exercise genuinely different stealing
/// patterns.
const POOL_WIDTHS: [usize; 3] = [1, 2, 5];

fn pools() -> Vec<(usize, ThreadPool)> {
    POOL_WIDTHS
        .iter()
        .map(|&t| {
            (
                t,
                rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .expect("build test pool"),
            )
        })
        .collect()
}

/// Runs `f` on every pool width and asserts all results equal the
/// 1-thread baseline under `check`.
fn assert_identical_across_pools<T>(f: impl Fn() -> T, check: impl Fn(&T, &T, usize)) {
    let runs: Vec<(usize, T)> = pools().iter().map(|(t, p)| (*t, p.install(&f))).collect();
    let (_, baseline) = &runs[0];
    for (t, run) in &runs[1..] {
        check(baseline, run, *t);
    }
}

/// G(n, m) with d = 40. A uniform random graph finishes in one phase of
/// Algorithm 2 (under `practical` and `paper_scaled` alike), so this
/// instance covers the executors' round machinery but not the phase loop;
/// [`skewed_instance`] covers that.
fn instance() -> WeightedGraph {
    weighted(gnm(2_000, 40_000, SEED))
}

/// Chung–Lu with d = 40: the distributed executor runs 2 phases on it
/// under `paper_scaled`.
fn skewed_instance() -> WeightedGraph {
    weighted(chung_lu(2_000, 2.3, 40.0, SEED))
}

fn weighted(g: Graph) -> WeightedGraph {
    let w = WeightModel::Uniform { lo: 1.0, hi: 9.0 }.sample(&g, SEED ^ 1);
    WeightedGraph::new(g, w)
}

fn assert_outcomes_bit_identical(a: &DistributedOutcome, b: &DistributedOutcome, threads: usize) {
    assert_eq!(a.cover, b.cover, "covers diverged at {threads} threads");
    assert_eq!(
        a.certificate.x.len(),
        b.certificate.x.len(),
        "certificate length diverged at {threads} threads"
    );
    for (i, (x, y)) in a.certificate.x.iter().zip(&b.certificate.x).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "certificate edge {i} diverged at {threads} threads: {x} vs {y}"
        );
    }
    assert_eq!(
        a.phases, b.phases,
        "phase count diverged at {threads} threads"
    );
    // Name the per-machine round rows before the whole-trace compare, so
    // a divergence there fails with a pointed message: every row's cost,
    // stall, traffic and spill words are part of the determinism
    // contract (bit-identical across pool widths).
    assert_eq!(
        a.trace.critical_path.machine_rounds, b.trace.critical_path.machine_rounds,
        "per-machine critical-path rows diverged at {threads} threads"
    );
    assert_eq!(a.trace, b.trace, "traces diverged at {threads} threads");
}

#[test]
fn distributed_pipeline_is_bit_identical_across_thread_counts() {
    let practical = MpcMwvcConfig::practical(EPS, SEED);
    // The recommended clusters have fewer machines than the shuffle's
    // machine-count floor, so every round routes sequentially. On twice
    // the floor (with the recommended S) width 1 still routes
    // sequentially, while widths 2 and 5 take the parallel shuffle on
    // every large round.
    let wide = MpcConfig::new(
        2 * PARALLEL_SHUFFLE_MIN_MACHINES,
        recommended_cluster(&instance(), &practical).memory_words,
    );
    for (wg, cfg, cluster, min_phases) in [
        (instance(), practical, None, 1),
        (instance(), practical, Some(wide), 1),
        (
            skewed_instance(),
            MpcMwvcConfig::paper_scaled(EPS, SEED),
            None,
            2,
        ),
    ] {
        let cluster = cluster.unwrap_or_else(|| recommended_cluster(&wg, &cfg));
        assert_identical_across_pools(
            || run_distributed(&wg, &cfg, cluster),
            |a, b, threads| {
                assert!(
                    a.phases >= min_phases,
                    "ran {} phase(s), want at least {min_phases}",
                    a.phases
                );
                assert_outcomes_bit_identical(a, b, threads);
            },
        );
    }
}

#[test]
fn reference_executor_is_bit_identical_across_thread_counts() {
    let wg = instance();
    let cfg = MpcMwvcConfig::practical(EPS, SEED);
    assert_identical_across_pools(
        || run_reference(&wg, &cfg),
        |a, b, threads| {
            assert_eq!(a.cover, b.cover, "covers diverged at {threads} threads");
            for (i, (x, y)) in a.certificate.x.iter().zip(&b.certificate.x).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "certificate edge {i} diverged at {threads} threads"
                );
            }
            assert_eq!(
                a.phases, b.phases,
                "phase stats diverged at {threads} threads"
            );
        },
    );
}

#[test]
fn generators_reproduce_identically_across_thread_counts() {
    assert_identical_across_pools(
        || {
            (
                gnp(3_000, 0.01, SEED),
                gnm(3_000, 30_000, SEED),
                chung_lu(3_000, 2.3, 12.0, SEED),
                rmat(11, 10, RmatParams::default(), SEED),
                random_bipartite(1_500, 1_500, 0.008, SEED),
                random_regular(3_000, 10, SEED),
            )
        },
        |a, b, threads| {
            assert_eq!(a.0, b.0, "gnp diverged at {threads} threads");
            assert_eq!(a.1, b.1, "gnm diverged at {threads} threads");
            assert_eq!(a.2, b.2, "chung_lu diverged at {threads} threads");
            assert_eq!(a.3, b.3, "rmat diverged at {threads} threads");
            assert_eq!(a.4, b.4, "random_bipartite diverged at {threads} threads");
            assert_eq!(a.5, b.5, "random_regular diverged at {threads} threads");
        },
    );
}

#[test]
fn weights_reproduce_identically_across_thread_counts() {
    let g = gnm(2_000, 20_000, SEED);
    for model in [
        WeightModel::Uniform { lo: 0.5, hi: 20.0 },
        WeightModel::Exponential { mean: 4.0 },
    ] {
        assert_identical_across_pools(
            || model.sample(&g, SEED ^ 7),
            |a, b, threads| {
                for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "weight {i} diverged at {threads} threads"
                    );
                }
            },
        );
    }
}

/// The round-compression executor keeps the same contract: at every
/// pool width its cover, certificate, and trace match the 1-thread run
/// bit for bit.
#[test]
fn roundcompress_is_bit_identical_across_thread_counts() {
    let wg = instance();
    let cfg = roundcompress::RoundCompressConfig::practical(EPS, SEED);
    let cluster = roundcompress::recommended_cluster(&wg, &cfg);
    assert_identical_across_pools(
        || roundcompress::run_roundcompress(&wg, &cfg, cluster),
        |a, b, threads| {
            assert_eq!(a.cover, b.cover, "covers diverged at {threads} threads");
            for (i, (x, y)) in a.certificate.x.iter().zip(&b.certificate.x).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "certificate edge {i} diverged at {threads} threads: {x} vs {y}"
                );
            }
            assert_eq!(a.trace, b.trace, "traces diverged at {threads} threads");
        },
    );
}

/// Order-sensitive 64-bit fingerprint (splitmix64 chaining) of `values`,
/// chained as the bit pins of `tests/distributed_vs_reference.rs` chain
/// theirs.
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

/// Fingerprint of an out-of-core run: the cover, every load's bits and
/// the iteration count, then every round's label, peak sent and received
/// words, traffic and spill words.
fn ooc_fingerprint(out: &OocOutcome) -> u64 {
    let cover = out.cover.vertices().iter().map(|&v| v as u64);
    let loads = out.loads.iter().map(|y| y.to_bits());
    let rounds = out.trace.rounds.iter().flat_map(|r| {
        let label = r.label.bytes().map(u64::from);
        [r.label.len() as u64].into_iter().chain(label).chain([
            r.max_sent as u64,
            r.max_received as u64,
            r.total_traffic as u64,
            r.spill_words,
        ])
    });
    let output = cover.chain(loads).chain([out.iterations as u64]);
    chain(output.chain(rounds))
}

/// The enforced memory budget is invisible to everything the model
/// gates: an out-of-core run whose shards are forced into spill files
/// produces the same cover, the same dual loads **bit for bit**, and the
/// same per-round message statistics as a fully resident run — at every
/// pool width. Only the residency/spill statistics may differ.
///
/// The spilled run is also pinned across versions by
/// [`ooc_fingerprint`], spill words included. After an intentional
/// change to the out-of-core output, set `SPILLED` to `0`, run
/// `cargo test --test determinism outofcore_spill` and copy the
/// fingerprint the failure message prints.
#[test]
fn outofcore_spill_is_bit_identical_to_resident_across_thread_counts() {
    const SPILLED: u64 = 0xfbeb_7bca_b33b_3139;
    let n = 1_500;
    let g = gnm(n, 12_000, SEED);
    let path = std::env::temp_dir().join(format!("det-ooc-{}.ocsr", std::process::id()));
    let mut b = StreamingGraphBuilder::new(n, 1 << 16, None);
    for e in g.edges() {
        b.add_edge(e.u(), e.v());
    }
    let csr = b.finish(&path).expect("build streaming csr");
    let weights = WeightModel::Uniform { lo: 1.0, hi: 9.0 }
        .sample(&g, SEED ^ 3)
        .as_slice()
        .to_vec();
    let cfg = OocConfig {
        batch_words: 256,
        ..OocConfig::default()
    };
    // S = 16_000 holds the per-vertex state and the coordinator's inbox,
    // but not the ~8_000-word shards: every machine must spill. Enforced
    // turns any unspilled excess into a panic, so passing proves the
    // budget was honored, not merely recorded.
    let small = MpcConfig::new(3, 16_000).with_budget(MemoryBudget::Enforced);
    let big = MpcConfig::new(3, 1 << 20);

    let baseline_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build baseline pool");
    let resident =
        baseline_pool.install(|| run_outofcore(&csr, &weights, &cfg, big).expect("resident run"));
    assert_eq!(resident.trace.total_spill(), 0, "big budget must not spill");

    for (t, pool) in pools() {
        let spilled =
            pool.install(|| run_outofcore(&csr, &weights, &cfg, small).expect("spilled run"));
        assert!(
            spilled.trace.total_spill() > 0,
            "small budget must spill at {t} threads"
        );
        assert!(spilled.trace.summary().peak_resident_words <= 16_000);
        let got = ooc_fingerprint(&spilled);
        assert_eq!(
            got, SPILLED,
            "spilled run at {t} threads: fingerprint {got:#018x}"
        );
        assert_eq!(
            resident.cover, spilled.cover,
            "covers diverged under spill at {t} threads"
        );
        for (i, (x, y)) in resident.loads.iter().zip(&spilled.loads).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "dual load {i} diverged under spill at {t} threads"
            );
        }
        assert_eq!(resident.iterations, spilled.iterations);
        assert_eq!(resident.trace.rounds.len(), spilled.trace.rounds.len());
        for (a, b) in resident.trace.rounds.iter().zip(&spilled.trace.rounds) {
            // Everything message-side is budget-independent; only
            // max_resident and spill_words may (and do) differ.
            assert_eq!(a.label, b.label, "round labels diverged at {t} threads");
            assert_eq!(a.max_sent, b.max_sent, "{}: sent diverged at {t}", a.label);
            assert_eq!(
                a.max_received, b.max_received,
                "{}: received diverged at {t}",
                a.label
            );
            assert_eq!(
                a.total_traffic, b.total_traffic,
                "{}: traffic diverged at {t}",
                a.label
            );
        }
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn repeated_runs_in_one_pool_are_stable() {
    // Not just across pools: two runs inside the same multi-threaded pool
    // (different stealing schedules) must also agree bit-for-bit.
    let wg = instance();
    let cfg = MpcMwvcConfig::practical(EPS, SEED);
    let cluster = recommended_cluster(&wg, &cfg);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let a = pool.install(|| run_distributed(&wg, &cfg, cluster));
    let b = pool.install(|| run_distributed(&wg, &cfg, cluster));
    assert_outcomes_bit_identical(&a, &b, 4);
}
