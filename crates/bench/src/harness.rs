//! The benchmark harness: a fixed workload matrix (generator families ×
//! weight models × ε × size tiers × **executors**) driven through the
//! audited executors plus the classic baselines, producing a
//! [`BenchReport`].
//!
//! The executor axis ([`ExecutorKind`]) is how alternative algorithms
//! enter the perf record: every registered executor runs every workload,
//! so `BENCH_core.json` carries per-executor model costs and quality and
//! `bench-diff` gates them all. `experiments compress` renders the same
//! data as a head-to-head table.
//!
//! Determinism contract: every byte of the report is a pure function of
//! the workload definition — bit-identical at any host pool width and
//! across runs. `tests/bench_gate.rs` and the CI `perf-gate` job enforce
//! this against `benchmarks/baseline.json`.
//! Across *machines* the floating-point quality values additionally
//! depend on the host libm's last-ulp rounding of `powf`/`ln` (Zipf
//! sampling, iteration schedules); if a runner-image upgrade ever shifts
//! those, the gate fails loudly and the fix is a baseline refresh.

use crate::schema::{
    BenchReport, CriticalPathStats, ModelCosts, Quality, WorkloadReport, SCHEMA_VERSION,
};
use crate::table::{f, Table};
use mwvc_baselines::{bar_yehuda_even, greedy_ratio_cover, lp_optimum};
use mwvc_core::mpc::{DistributedExecutor, Executor, ExecutorOutcome, MpcMwvcConfig};
use mwvc_graph::{EdgeIndex, GraphPreset, WeightModel, WeightedGraph};
use mwvc_roundcompress::{RoundCompressConfig, RoundCompressExecutor};

/// Base seed of the matrix; per-workload seeds are derived from it and
/// the workload id, so adding a workload never reshuffles the others.
pub const BENCH_BASE_SEED: u64 = 0xbe_ec4;

/// Average degree of every workload instance.
const AVG_DEGREE: usize = 16;

/// Which slice of the matrix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchSuite {
    /// One size tier — the CI perf gate (`experiments bench --quick`).
    Quick,
    /// All size tiers.
    Full,
}

impl BenchSuite {
    /// Label recorded in the report.
    pub fn label(&self) -> &'static str {
        match self {
            BenchSuite::Quick => "quick",
            BenchSuite::Full => "full",
        }
    }

    /// Instance size tiers of the suite.
    pub fn tiers(&self) -> &'static [usize] {
        match self {
            BenchSuite::Quick => &[1024],
            BenchSuite::Full => &[1024, 4096],
        }
    }
}

/// The benched executors — the executor axis of the workload matrix.
/// Each kind builds a fresh [`Executor`] per workload from the workload's
/// ε and derived seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Ghaffari–Jin–Nilis Algorithm 2 as audited message-passing dataflow
    /// (the baseline executor).
    Distributed,
    /// The Assadi-style round-compression executor
    /// (`mwvc_roundcompress`).
    RoundCompress,
}

impl ExecutorKind {
    /// All benched executors, in stable matrix order.
    pub fn all() -> [ExecutorKind; 2] {
        [ExecutorKind::Distributed, ExecutorKind::RoundCompress]
    }

    /// The executor's stable name (matches [`Executor::name`]; appears in
    /// workload ids and `BENCH_core.json` rows).
    pub fn label(&self) -> &'static str {
        match self {
            ExecutorKind::Distributed => "distributed",
            ExecutorKind::RoundCompress => "roundcompress",
        }
    }

    /// Parses a name as printed by [`ExecutorKind::label`].
    pub fn from_name(name: &str) -> Option<ExecutorKind> {
        ExecutorKind::all().into_iter().find(|k| k.label() == name)
    }

    /// Builds the executor for one workload run.
    pub fn build(&self, epsilon: f64, seed: u64) -> Box<dyn Executor> {
        match self {
            ExecutorKind::Distributed => Box::new(DistributedExecutor::new(
                MpcMwvcConfig::practical(epsilon, seed),
            )),
            ExecutorKind::RoundCompress => Box::new(RoundCompressExecutor::new(
                RoundCompressConfig::practical(epsilon, seed),
            )),
        }
    }
}

/// One cell of the workload matrix.
#[derive(Debug, Clone)]
pub struct BenchWorkload {
    /// Stable id: `{family}-{weights}-{eps}-n{tier}-{executor}`.
    pub id: String,
    /// Graph family preset.
    pub preset: GraphPreset,
    /// Weight-model label (part of the id).
    pub weights_label: &'static str,
    /// Weight model (ignored for [`GraphPreset::File`] presets, which
    /// carry their own weights).
    pub weights: WeightModel,
    /// Accuracy parameter.
    pub epsilon: f64,
    /// Size tier the workload belongs to.
    pub tier_n: usize,
    /// Executor that runs the workload.
    pub executor: ExecutorKind,
}

impl BenchWorkload {
    /// The instance key: workloads sharing it run on the *same* weighted
    /// graph (ε varies only the algorithm, not the input).
    pub fn instance_key(&self) -> String {
        format!(
            "{}-{}-n{}",
            self.preset.family(),
            self.weights_label,
            self.tier_n
        )
    }
}

/// The weight-model axis.
fn weight_axis() -> Vec<(&'static str, WeightModel)> {
    vec![
        ("uniform", WeightModel::Uniform { lo: 1.0, hi: 10.0 }),
        (
            "zipf",
            WeightModel::Zipf {
                exponent: 1.2,
                scale: 100.0,
            },
        ),
    ]
}

/// The ε axis: the loose/cheap end and the tight/expensive end.
const EPS_AXIS: [(&str, f64); 2] = [("eps4", 0.25), ("eps16", 0.0625)];

/// The full workload matrix of a suite, in stable order: tiers, then
/// families, then weights, then ε, then executors (innermost, so entries
/// sharing an instance stay adjacent for the one-slot cache and
/// head-to-head rows sit next to each other).
pub fn workload_matrix(suite: BenchSuite) -> Vec<BenchWorkload> {
    let mut out = Vec::new();
    for &n in suite.tiers() {
        for preset in GraphPreset::standard_families(n, AVG_DEGREE) {
            for (weights_label, weights) in weight_axis() {
                for (eps_label, epsilon) in EPS_AXIS {
                    for executor in ExecutorKind::all() {
                        out.push(BenchWorkload {
                            id: format!(
                                "{}-{weights_label}-{eps_label}-n{n}-{}",
                                preset.family(),
                                executor.label()
                            ),
                            preset: preset.clone(),
                            weights_label,
                            weights,
                            epsilon,
                            tier_n: n,
                            executor,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Out-of-matrix workloads for a real graph file ([`GraphPreset::File`]):
/// the file's own weights, the standard ε axis, one entry per executor.
/// These run through `experiments bench --graph FILE`; they are not part
/// of the committed baseline, so gate such reports against a baseline
/// generated with the same flag.
pub fn file_workloads(path: &str) -> Result<Vec<BenchWorkload>, String> {
    let preset = GraphPreset::from_path(path)?;
    // Cheap existence check so a bad path fails at flag-parse time; the
    // file itself is parsed once, by `build_instance` through the shared
    // one-slot instance cache (the id carries no vertex count, which
    // would force a full parse here).
    std::fs::metadata(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
    let stem = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .split('.')
        .next()
        .unwrap_or("graph");
    let mut out = Vec::new();
    for (eps_label, epsilon) in EPS_AXIS {
        for executor in ExecutorKind::all() {
            out.push(BenchWorkload {
                id: format!("file-{stem}-{eps_label}-{}", executor.label()),
                preset: preset.clone(),
                weights_label: "file",
                weights: WeightModel::Uniform { lo: 1.0, hi: 1.0 },
                epsilon,
                tier_n: 0, // unknown until loaded; reports carry the real n
                executor,
            });
        }
    }
    Ok(out)
}

/// FNV-1a of a string — stable seed derivation from workload ids.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A built instance with its ε-independent reference quantities, shared
/// by all workloads with the same [`BenchWorkload::instance_key`].
pub struct InstanceContext {
    /// The weighted instance.
    pub wg: WeightedGraph,
    /// Edge index of the instance.
    pub eidx: EdgeIndex,
    /// Exact LP relaxation optimum.
    pub lp_bound: f64,
    /// Greedy baseline cover weight.
    pub greedy_weight: f64,
    /// Bar-Yehuda–Even baseline cover weight.
    pub bye_weight: f64,
}

/// Builds just the weighted instance of a workload — deterministic in
/// its instance key, no reference quantities. File presets load their
/// stored weights; generated presets sample the workload's weight model.
pub fn build_graph(w: &BenchWorkload) -> WeightedGraph {
    let key = w.instance_key();
    let graph_seed = BENCH_BASE_SEED ^ fnv1a(&key);
    if matches!(w.preset, GraphPreset::File { .. }) {
        w.preset
            .load_weighted()
            .unwrap_or_else(|e| panic!("file workload {}: {e}", w.id))
    } else {
        let g = w.preset.build(graph_seed);
        let weights = w.weights.sample(&g, graph_seed ^ 0x5eed_0001);
        WeightedGraph::new(g, weights)
    }
}

/// Builds the instance (graph, weights, LP bound, baselines) of a
/// workload. Deterministic in the workload's instance key. File presets
/// load their stored weights; generated presets sample the workload's
/// weight model.
pub fn build_instance(w: &BenchWorkload) -> InstanceContext {
    let wg = build_graph(w);
    let eidx = EdgeIndex::build(&wg.graph);
    let lp_bound = lp_optimum(&wg).value;
    let greedy_weight = greedy_ratio_cover(&wg).weight(&wg);
    let bye = bar_yehuda_even(&wg);
    let bye_weight = bye.cover.weight(&wg);
    InstanceContext {
        wg,
        eidx,
        lp_bound,
        greedy_weight,
        bye_weight,
    }
}

/// Runs one workload on a prebuilt instance through its executor.
pub fn run_on_instance(w: &BenchWorkload, ctx: &InstanceContext) -> WorkloadReport {
    let algo_seed = BENCH_BASE_SEED ^ fnv1a(&w.id);
    let outcome = w.executor.build(w.epsilon, algo_seed).run(&ctx.wg);
    outcome
        .solution
        .verify(&ctx.wg, &ctx.eidx)
        .expect("every executor must produce a valid certified cover");
    let cost = outcome.cost;
    let traffic = cost.traffic.expect("benched executors carry traffic");
    let cover_weight = outcome.solution.weight(&ctx.wg);
    let certified_ratio = outcome.solution.certified_ratio(&ctx.wg, &ctx.eidx);
    WorkloadReport {
        id: w.id.clone(),
        executor: w.executor.label().to_string(),
        family: w.preset.family().to_string(),
        weights: w.weights_label.to_string(),
        epsilon: w.epsilon,
        n: ctx.wg.num_vertices() as i64,
        m: ctx.wg.num_edges() as i64,
        model: ModelCosts {
            phases: cost.phases as i64,
            mpc_rounds: cost.mpc_rounds as i64,
            machines: traffic.machines as i64,
            memory_cap_words: traffic.memory_cap_words as i64,
            total_message_words: traffic.total_message_words as i64,
            peak_round_words: traffic.peak_round_words as i64,
            peak_resident_words: traffic.peak_resident_words as i64,
            spill_words: traffic.spill_words as i64,
            checkpoint_words: traffic.checkpoint_words as i64,
            replayed_rounds: traffic.replayed_rounds as i64,
            violations: traffic.violations as i64,
        },
        quality: Quality {
            cover_weight,
            cover_size: outcome.solution.cover.size() as i64,
            certified_ratio,
            lp_bound: ctx.lp_bound,
            ratio_vs_lp: cover_weight / ctx.lp_bound,
            greedy_weight: ctx.greedy_weight,
            bye_weight: ctx.bye_weight,
        },
        critical_path: CriticalPathStats::from(&outcome.trace.critical_path),
    }
}

/// Runs one workload and returns the raw executor outcome — the full
/// audited trace (per-machine round rows) plus the informational host
/// phases. This is the `experiments trace` path: it skips the reference
/// quantities ([`build_instance`] computes an exact LP optimum) because
/// the exporter only consumes the trace.
pub fn run_for_trace(w: &BenchWorkload) -> ExecutorOutcome {
    let wg = build_graph(w);
    let algo_seed = BENCH_BASE_SEED ^ fnv1a(&w.id);
    let exec = w.executor.build(w.epsilon, algo_seed);
    exec.run(&wg)
}

/// Builds and runs a single workload end to end (tests and spot checks;
/// [`run_suite`] shares instances across ε instead).
pub fn run_workload(w: &BenchWorkload) -> WorkloadReport {
    run_on_instance(w, &build_instance(w))
}

/// Runs a full suite, returning the report and a human-readable table.
pub fn run_suite(suite: BenchSuite) -> (BenchReport, Table) {
    run_workloads(suite.label(), workload_matrix(suite))
}

/// Runs an explicit workload list (a suite matrix, a filtered slice, or
/// file workloads appended) under a suite label, one run per workload.
pub fn run_workloads(suite_label: &str, matrix: Vec<BenchWorkload>) -> (BenchReport, Table) {
    let mut table = Table::new(
        format!(
            "BENCH model costs & quality ({suite_label} suite, {} workloads, seed {BENCH_BASE_SEED:#x})",
            matrix.len()
        ),
        &[
            "workload",
            "n",
            "m",
            "phases",
            "rounds",
            "msg words",
            "peak res",
            "cover w",
            "cert",
            "w/LP*",
        ],
    );
    let mut workloads = Vec::with_capacity(matrix.len());
    let mut cached: Option<(String, InstanceContext)> = None;
    for w in &matrix {
        let key = w.instance_key();
        // The matrix is ordered so equal instance keys are adjacent; a
        // one-slot cache reuses the graph + LP bound across the ε axis.
        if cached.as_ref().map(|(k, _)| k.as_str()) != Some(key.as_str()) {
            eprintln!("[bench] building instance {key}...");
            cached = Some((key, build_instance(w)));
        }
        let ctx = &cached.as_ref().unwrap().1;
        let report = run_on_instance(w, ctx);
        table.push(vec![
            report.id.clone(),
            report.n.to_string(),
            report.m.to_string(),
            report.model.phases.to_string(),
            report.model.mpc_rounds.to_string(),
            report.model.total_message_words.to_string(),
            report.model.peak_resident_words.to_string(),
            f(report.quality.cover_weight, 2),
            f(report.quality.certified_ratio, 3),
            f(report.quality.ratio_vs_lp, 3),
        ]);
        workloads.push(report);
    }
    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        suite: suite_label.to_string(),
        seed: BENCH_BASE_SEED as i64,
        workloads,
    };
    (report, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_shape_and_unique_ids() {
        let m = workload_matrix(BenchSuite::Quick);
        // 5 families × 2 weight models × 2 ε × 1 tier × 2 executors.
        assert_eq!(m.len(), 40);
        let mut ids: Vec<&str> = m.iter().map(|w| w.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 40, "workload ids must be unique");
        assert!(m
            .iter()
            .any(|w| w.id == "gnp-uniform-eps4-n1024-distributed"));
        assert!(m
            .iter()
            .any(|w| w.id == "bipartite-zipf-eps16-n1024-roundcompress"));
        // Both executors cover every base workload.
        for k in ExecutorKind::all() {
            assert_eq!(m.iter().filter(|w| w.executor == k).count(), 20);
        }
    }

    #[test]
    fn executor_kinds_roundtrip_names() {
        for k in ExecutorKind::all() {
            assert_eq!(ExecutorKind::from_name(k.label()), Some(k));
            // The kind's label agrees with the executor's own name.
            assert_eq!(k.build(0.1, 1).name(), k.label());
        }
        assert_eq!(ExecutorKind::from_name("bogus"), None);
    }

    #[test]
    fn full_matrix_doubles_quick() {
        let q = workload_matrix(BenchSuite::Quick).len();
        let f = workload_matrix(BenchSuite::Full).len();
        assert_eq!(f, 2 * q);
    }

    #[test]
    fn eps_axis_shares_the_instance() {
        let m = workload_matrix(BenchSuite::Quick);
        let a = m.iter().find(|w| w.id.contains("eps4")).unwrap();
        let b = m
            .iter()
            .find(|w| w.id == a.id.replace("eps4", "eps16"))
            .unwrap();
        assert_eq!(a.instance_key(), b.instance_key());
        assert_ne!(a.epsilon, b.epsilon);
    }

    #[test]
    fn tiny_workload_runs_and_reports_consistently_per_executor() {
        // A miniature out-of-matrix workload keeps this test fast while
        // exercising the whole reporting path, for every executor kind.
        for executor in ExecutorKind::all() {
            let w = BenchWorkload {
                id: format!("gnm-uniform-eps16-n256-test-{}", executor.label()),
                preset: GraphPreset::Gnm {
                    n: 256,
                    avg_degree: 16,
                },
                weights_label: "uniform",
                weights: WeightModel::Uniform { lo: 1.0, hi: 10.0 },
                epsilon: 0.0625,
                tier_n: 256,
                executor,
            };
            let r = run_workload(&w);
            assert_eq!(r.executor, executor.label());
            assert_eq!(r.n, 256);
            assert_eq!(r.m, 2048);
            assert_eq!(r.model.violations, 0);
            assert!(r.model.mpc_rounds >= 6, "at least the closing rounds");
            assert!(r.model.total_message_words > 0);
            assert!(r.quality.lp_bound > 0.0);
            assert!(r.quality.cover_weight >= r.quality.lp_bound - 1e-9);
            assert!(r.quality.ratio_vs_lp >= 1.0 - 1e-9);
            assert!(r.quality.certified_ratio >= 1.0 - 1e-9);
            // The critical-path statistic covers every round, and every
            // round costs at least 1.
            assert!(r.critical_path.barrier_makespan >= r.model.mpc_rounds);
            // The whole row is reproducible bit-for-bit.
            assert_eq!(r, run_workload(&w));
        }
    }

    #[test]
    fn file_workloads_run_with_stored_weights() {
        use mwvc_graph::io::write_edge_list;
        use mwvc_graph::{Graph, VertexWeights};
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let wg = WeightedGraph::new(
            g,
            VertexWeights::from_vec(vec![1.0, 3.0, 1.0, 3.0, 1.0, 3.0]),
        );
        let path = std::env::temp_dir().join(format!("bench-file-{}.edges", std::process::id()));
        let mut buf = Vec::new();
        write_edge_list(&wg, &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();

        let ws = file_workloads(path.to_str().unwrap()).expect("file workloads");
        // ε axis × executor axis, ids unique and labeled "file".
        assert_eq!(ws.len(), 2 * ExecutorKind::all().len());
        for w in &ws {
            assert!(w.id.starts_with("file-bench-file"), "{}", w.id);
            assert_eq!(w.weights_label, "file");
            let r = run_workload(w);
            assert_eq!(r.family, "file");
            assert_eq!(r.n, 6);
            assert_eq!(r.m, 6);
            // The stored weights were used: the optimal cover takes the
            // three weight-1 vertices, and every executor must stay within
            // factor 2+O(ε) of LP* = 3.
            assert!((r.quality.lp_bound - 3.0).abs() < 1e-6, "{r:?}");
        }
        let _ = std::fs::remove_file(&path);

        assert!(file_workloads("/missing/nope.edges").is_err());
        assert!(file_workloads("bad-extension.zzz").is_err());
    }
}
