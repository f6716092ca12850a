//! Host-parallel scaling: wall-clock speedup of the full distributed
//! pipeline versus pool thread count, with a bit-identity check.
//!
//! This experiment measures the *simulator host*, not the MPC model: the
//! model costs (rounds, traffic, memory) are independent of host
//! threading by construction, and this experiment verifies exactly that —
//! every thread count must produce bit-identical covers, certificates,
//! and execution traces, while only the wall clock changes.
//!
//! Output: one table (`--csv DIR` writes it as CSV). Instance size
//! defaults to a 100k-vertex G(n, m) with average degree 32; override
//! with `SCALING_N` / `SCALING_DEGREE` (the determinism assertion is
//! size-independent).

use super::ExpOptions;
use crate::table::{f, Table};
use mwvc_core::mpc::{recommended_cluster, run_distributed, DistributedOutcome, MpcMwvcConfig};
use mwvc_graph::generators::gnm;
use mwvc_graph::{WeightModel, WeightedGraph};
use std::time::Instant;

const SEED: u64 = 20;
const EPS: f64 = 0.1;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Order-sensitive 64-bit fingerprint (splitmix64 chaining).
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Self(0x05ca_1ab1_e0dd_ba11_u64)
    }
    fn mix(&mut self, v: u64) {
        let mut x = self.0.rotate_left(23) ^ v;
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }
}

/// Fingerprints everything the determinism contract covers: the cover,
/// every finalized dual value bit-exactly, and the full execution trace.
fn outcome_fingerprint(out: &DistributedOutcome) -> u64 {
    let mut fp = Fingerprint::new();
    for &v in out.cover.vertices() {
        fp.mix(v as u64);
    }
    for x in &out.certificate.x {
        fp.mix(x.to_bits());
    }
    fp.mix(out.phases as u64);
    for r in &out.trace.rounds {
        fp.mix(r.label.len() as u64);
        for b in r.label.as_bytes() {
            fp.mix(*b as u64);
        }
        fp.mix(r.max_sent as u64);
        fp.mix(r.max_received as u64);
        fp.mix(r.max_resident as u64);
        fp.mix(r.total_traffic as u64);
    }
    fp.mix(out.trace.violations.len() as u64);
    fp.0
}

/// Thread counts to sweep: 1, powers of two, and the full hardware width.
fn thread_counts(hw: usize) -> Vec<usize> {
    let mut counts = vec![1usize];
    let mut t = 2;
    while t < hw {
        counts.push(t);
        t *= 2;
    }
    if hw > 1 {
        counts.push(hw);
    }
    counts
}

/// SCALING — wall-clock speedup vs. pool threads, bit-identical results.
pub fn scaling(_opts: &ExpOptions) -> Vec<Table> {
    let n = env_usize("SCALING_N", 100_000);
    let avg_degree = env_usize("SCALING_DEGREE", 32);
    let m = n * avg_degree / 2;
    // SCALING_MAX_THREADS widens (or narrows) the sweep regardless of the
    // detected width — oversubscribing still proves bit-identity, it just
    // cannot show speedup.
    let detected = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(1);
    let hw = env_usize("SCALING_MAX_THREADS", detected);
    let counts = thread_counts(hw);

    let mut table = Table::new(
        format!("SCALING Host wall-clock vs threads (G({n}, {m}) distributed, eps = {EPS}, hw = {detected} threads)"),
        &[
            "threads",
            "wall s",
            "speedup",
            "phases",
            "mpc rounds",
            "fingerprint",
        ],
    );
    let mut baseline_s = None;
    let mut fingerprints: Vec<u64> = Vec::new();
    for &threads in &counts {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build sweep pool");
        let start = Instant::now();
        let outcome = pool.install(|| {
            let g = gnm(n, m, SEED);
            let w = WeightModel::Uniform { lo: 1.0, hi: 10.0 }.sample(&g, SEED ^ 1);
            let wg = WeightedGraph::new(g, w);
            let cfg = MpcMwvcConfig::practical(EPS, SEED);
            let cluster = recommended_cluster(&wg, &cfg);
            run_distributed(&wg, &cfg, cluster)
        });
        let wall = start.elapsed().as_secs_f64();
        let fp = outcome_fingerprint(&outcome);
        fingerprints.push(fp);
        let base = *baseline_s.get_or_insert(wall);
        let speedup = base / wall;
        table.push(vec![
            threads.to_string(),
            f(wall, 3),
            f(speedup, 2),
            outcome.phases.to_string(),
            outcome.trace.num_rounds().to_string(),
            format!("{fp:016x}"),
        ]);
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "determinism violation: fingerprints differ across thread counts: {fingerprints:x?}"
    );

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_sweep_shape() {
        assert_eq!(thread_counts(1), vec![1]);
        assert_eq!(thread_counts(2), vec![1, 2]);
        assert_eq!(thread_counts(4), vec![1, 2, 4]);
        assert_eq!(thread_counts(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_counts(16), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::new();
        a.mix(1);
        a.mix(2);
        let mut b = Fingerprint::new();
        b.mix(2);
        b.mix(1);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn small_scaling_run_is_deterministic_across_pools() {
        // Miniature version of the experiment body: two pools of
        // different widths must produce identical fingerprints.
        let build = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let g = gnm(600, 9_600, SEED);
                let w = WeightModel::Uniform { lo: 1.0, hi: 10.0 }.sample(&g, SEED ^ 1);
                let wg = WeightedGraph::new(g, w);
                let cfg = MpcMwvcConfig::practical(EPS, SEED);
                let cluster = recommended_cluster(&wg, &cfg);
                outcome_fingerprint(&run_distributed(&wg, &cfg, cluster))
            })
        };
        assert_eq!(build(1), build(3));
    }
}
