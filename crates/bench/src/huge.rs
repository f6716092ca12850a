//! The **huge** bench tier: a 10⁸-edge out-of-core run in a few hundred
//! MB of host RAM.
//!
//! Unlike the quick/full matrices (which build in-memory instances and
//! gate against `benchmarks/baseline.json`), the huge tier exists to
//! prove the out-of-core contract at a scale where Θ(m) host memory is
//! simply not available: edges stream from a generator into a
//! byte-budgeted [`StreamingGraphBuilder`], the run executes
//! [`run_outofcore`] under [`MemoryBudget::Enforced`], and the report
//! records `peak_resident_words` and `spill_words` like any other row.
//!
//! It is **flag-gated** (`experiments bench --tier huge`). The 10⁸-edge
//! default scale runs only by hand: a multi-GB disk footprint and a
//! multi-minute run have no place in CI. CI runs the identical code path
//! on every PR at a miniature scale (see below), at two pool widths, and
//! requires the two reports to be byte-identical. There is no committed
//! baseline for this tier. Quality caveats at this scale, reflected in
//! the row:
//!
//! * `quality.lp_bound` carries the run's own **pricing dual lower
//!   bound** (a genuine lower bound on OPT, but not the LP optimum — the
//!   LP solver needs the whole instance in memory),
//! * `certified_ratio` and `ratio_vs_lp` are the cover weight over that
//!   dual bound,
//! * `greedy_weight`/`bye_weight` are 0: the in-memory baselines are not
//!   run.
//!
//! Every parameter is overridable via `HUGE_*` environment variables
//! (see [`HugeParams::from_env`]) so the CI smoke step can run a
//! miniature instance through the identical code path.

use crate::schema::{
    BenchReport, CriticalPathStats, ModelCosts, Quality, WorkloadReport, SCHEMA_VERSION,
};
use crate::table::{f, Table};
use mpc_sim::{MemoryBudget, MpcConfig};
use mwvc_core::mpc::{run_outofcore, OocConfig};
use mwvc_graph::generators::gnm_stream_into;
use mwvc_graph::StreamingGraphBuilder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Parameters of a huge-tier run. Defaults are the headline scale; every
/// field has a `HUGE_*` environment override for smoke-scale runs.
#[derive(Debug, Clone, Copy)]
pub struct HugeParams {
    /// Vertices of the generated instance.
    pub n: usize,
    /// Edge samples drawn by the streaming G(n,m) generator (duplicates
    /// are deduplicated by the builder, so the built `m` is slightly
    /// lower).
    pub edges: u64,
    /// Machines of the executing cluster.
    pub machines: usize,
    /// Per-machine budget as a multiple of `n` (the near-linear regime
    /// `S = c·n`); must leave the shards too big to stay resident, or the
    /// tier proves nothing.
    pub memory_factor: usize,
    /// Byte budget of the streaming graph builder's in-RAM buffer.
    pub byte_budget: usize,
    /// Words per spill-replay batch of the out-of-core executor.
    pub batch_words: usize,
    /// Freeze threshold of the pricing executor.
    pub epsilon: f64,
    /// Iteration cap of the pricing executor.
    pub max_iterations: usize,
    /// Base seed (graph and weights derive from it).
    pub seed: u64,
}

impl Default for HugeParams {
    fn default() -> Self {
        Self {
            n: 3_125_000,
            edges: 100_000_000,
            machines: 4,
            memory_factor: 16,
            byte_budget: 256 << 20,
            batch_words: 1 << 16,
            epsilon: 0.1,
            max_iterations: 300,
            seed: 0xb16_b00c,
        }
    }
}

impl HugeParams {
    /// Defaults with `HUGE_N`, `HUGE_EDGES`, `HUGE_MACHINES`,
    /// `HUGE_MEMORY_FACTOR`, `HUGE_BYTE_BUDGET`, `HUGE_BATCH_WORDS`,
    /// `HUGE_MAX_ITERATIONS` and `HUGE_SEED` environment overrides
    /// applied. A set-but-unparsable variable is an error — a typo must
    /// not silently run the 10⁸-edge default.
    pub fn from_env() -> Result<Self, String> {
        let mut p = HugeParams::default();
        fn over<T: std::str::FromStr>(key: &str, slot: &mut T) -> Result<(), String> {
            if let Ok(raw) = std::env::var(key) {
                *slot = raw
                    .parse()
                    .map_err(|_| format!("{key}={raw:?} is not a valid value"))?;
            }
            Ok(())
        }
        over("HUGE_N", &mut p.n)?;
        over("HUGE_EDGES", &mut p.edges)?;
        over("HUGE_MACHINES", &mut p.machines)?;
        over("HUGE_MEMORY_FACTOR", &mut p.memory_factor)?;
        over("HUGE_BYTE_BUDGET", &mut p.byte_budget)?;
        over("HUGE_BATCH_WORDS", &mut p.batch_words)?;
        over("HUGE_MAX_ITERATIONS", &mut p.max_iterations)?;
        over("HUGE_SEED", &mut p.seed)?;
        if p.n == 0 || p.machines == 0 {
            return Err("HUGE_N and HUGE_MACHINES must be positive".into());
        }
        Ok(p)
    }
}

/// Deterministic per-vertex uniform weight in `[1, 10)` — splitmix64 of
/// `(seed, v)`, so no Θ(n) generator state is ever needed beyond the
/// weight vector itself.
fn vertex_weight(seed: u64, v: u64) -> f64 {
    let mut x = seed ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    1.0 + 9.0 * ((x >> 11) as f64 / (1u64 << 53) as f64)
}

/// Runs the huge tier end to end: stream-build the on-disk instance,
/// execute out-of-core under an enforced budget, report one
/// current-schema row. The OCSR file lives in the system temp directory
/// (or `HUGE_SCRATCH` if set) and is removed before returning; its name
/// is unique per call, so concurrent runs never share a file.
pub fn run_huge(p: &HugeParams) -> Result<(BenchReport, Table), String> {
    let scratch = std::env::var("HUGE_SCRATCH")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir());
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let uniq = NEXT.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let path = scratch.join(format!("huge-{pid}-{uniq}-{}.ocsr", p.seed));

    eprintln!(
        "[huge] streaming {} edge samples over n={} into {} (builder budget {} MB)...",
        p.edges,
        p.n,
        path.display(),
        p.byte_budget >> 20
    );
    let build_start = Instant::now();
    let mut builder = StreamingGraphBuilder::new(p.n, p.byte_budget, None);
    gnm_stream_into(p.n, p.edges, p.seed, &mut builder);
    let csr = builder.finish(&path)?;
    eprintln!(
        "[huge] built {} edges ({} buckets) in {:.1}s",
        csr.num_edges(),
        csr.num_buckets(),
        build_start.elapsed().as_secs_f64()
    );

    let weights: Vec<f64> = (0..p.n as u64)
        .map(|v| vertex_weight(p.seed ^ 0x5eed_0002, v))
        .collect();
    let s = p.memory_factor * p.n;
    let cluster = MpcConfig::new(p.machines, s).with_budget(MemoryBudget::Enforced);
    let cfg = OocConfig {
        epsilon: p.epsilon,
        max_iterations: p.max_iterations,
        batch_words: p.batch_words,
    };

    eprintln!(
        "[huge] running out-of-core pricing: M={} S={} words (enforced)...",
        p.machines, s
    );
    let out = run_outofcore(&csr, &weights, &cfg, cluster);
    std::fs::remove_file(&path).ok();
    let out = out?;

    let summary = out.trace.summary();
    let cover_weight = out.cover_weight(&weights);
    let ratio = cover_weight / out.dual_lower_bound;
    let id = format!("gnm-uniform-huge-n{}-outofcore", p.n);
    let row = WorkloadReport {
        id: id.clone(),
        executor: "outofcore".into(),
        family: "gnm".into(),
        weights: "uniform".into(),
        epsilon: p.epsilon,
        n: p.n as i64,
        m: csr.num_edges() as i64,
        model: ModelCosts {
            phases: out.iterations as i64,
            mpc_rounds: summary.rounds as i64,
            machines: p.machines as i64,
            memory_cap_words: s as i64,
            total_message_words: summary.total_message_words as i64,
            peak_round_words: summary.peak_round_words as i64,
            peak_resident_words: summary.peak_resident_words as i64,
            spill_words: summary.spill_words as i64,
            checkpoint_words: summary.checkpoint_words as i64,
            replayed_rounds: summary.replayed_rounds as i64,
            violations: summary.violations as i64,
        },
        quality: Quality {
            cover_weight,
            cover_size: out.cover.size() as i64,
            // See the module docs: the dual lower bound stands in for the
            // (uncomputable at this scale) LP optimum, and the in-memory
            // baselines are not run.
            certified_ratio: ratio,
            lp_bound: out.dual_lower_bound,
            ratio_vs_lp: ratio,
            greedy_weight: 0.0,
            bye_weight: 0.0,
        },
        critical_path: CriticalPathStats::from(&out.trace.critical_path),
    };

    let mut table = Table::new(
        format!("BENCH huge tier (n={}, seed {:#x})", p.n, p.seed),
        &[
            "workload", "n", "m", "iters", "rounds", "peak res", "spilled", "cover w", "w/dualLB",
            "forced",
        ],
    );
    table.push(vec![
        id,
        row.n.to_string(),
        row.m.to_string(),
        out.iterations.to_string(),
        row.model.mpc_rounds.to_string(),
        row.model.peak_resident_words.to_string(),
        row.model.spill_words.to_string(),
        f(cover_weight, 2),
        f(ratio, 3),
        out.forced.to_string(),
    ]);

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        suite: "huge".into(),
        seed: p.seed as i64,
        workloads: vec![row],
    };
    Ok((report, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_params() -> HugeParams {
        HugeParams {
            n: 1_500,
            edges: 12_000,
            machines: 3,
            // 14 · 1500 = 21_000 words: big enough for the vertex state,
            // far too small for ~8_000-word shards to stay resident.
            memory_factor: 14,
            byte_budget: 1 << 16,
            batch_words: 512,
            epsilon: 0.1,
            max_iterations: 100,
            seed: 99,
        }
    }

    #[test]
    fn smoke_scale_run_spills_and_reports_schema_v4() {
        let (report, table) = run_huge(&smoke_params()).expect("huge smoke run");
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.suite, "huge");
        let row = &report.workloads[0];
        assert_eq!(row.executor, "outofcore");
        assert!(row.model.spill_words > 0, "the tier must actually spill");
        assert_eq!(row.model.violations, 0);
        assert!(row.model.peak_resident_words <= row.model.memory_cap_words);
        assert!(row.quality.cover_weight >= row.quality.lp_bound);
        assert!(table.render().contains("huge"));
    }

    #[test]
    fn smoke_run_is_deterministic_in_gated_fields() {
        let p = smoke_params();
        let (a, _) = run_huge(&p).expect("first run");
        let (b, _) = run_huge(&p).expect("second run");
        assert_eq!(a.workloads[0].model, b.workloads[0].model);
        assert_eq!(a.workloads[0].quality, b.workloads[0].quality);
    }

    #[test]
    fn env_overrides_reject_garbage() {
        // Parse logic only — set/remove of real env vars would race other
        // tests, so exercise the inner helper through a scoped variable
        // name no other test uses.
        std::env::set_var("HUGE_BATCH_WORDS", "not-a-number");
        let err = HugeParams::from_env().expect_err("garbage must not run the default scale");
        std::env::remove_var("HUGE_BATCH_WORDS");
        assert!(err.contains("HUGE_BATCH_WORDS"), "{err}");
    }

    #[test]
    fn weights_are_deterministic_and_in_range() {
        for v in 0..1000 {
            let w = vertex_weight(7, v);
            assert!((1.0..10.0).contains(&w));
            assert_eq!(w.to_bits(), vertex_weight(7, v).to_bits());
        }
    }
}
