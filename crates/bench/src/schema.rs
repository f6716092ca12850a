//! The `BENCH_core.json` schema: the repo's canonical, versioned record
//! of model costs and solution quality per benchmark workload.
//!
//! Stability contract (pinned by the golden-file test in
//! `tests/bench_gate.rs`):
//!
//! * field **names** and **ordering** are part of the schema — changing
//!   either requires bumping [`SCHEMA_VERSION`],
//! * every byte is deterministic given the workload definition:
//!   independent of host thread count, wall clock, and machine. The
//!   report carries no host time, so CI gates the whole file with
//!   `diff -u -F '"id"'` against the committed baselines.

use crate::json::Json;

/// Version of the `BENCH_core.json` layout. Bump when renaming,
/// removing, reordering, or changing the meaning of any field.
///
/// v2: the workload matrix gained the executor axis — every row carries
/// an `"executor"` name and workload ids end in `-{executor}`.
///
/// v3: rows carry the deterministic critical-path statistics
/// (`"critical_path"`) and the ungated per-round host wall clock.
///
/// v4: `"model"` gained `"spill_words"` — words written to per-machine
/// spill files under an enforced memory budget (0 for fully resident
/// runs). Gated like every other model field.
///
/// v5: `"critical_path"` gained the deterministic straggler breakdown
/// (`"straggler_machine"`, `"straggler_stall_words"`: the machine every
/// other machine waits for, named from the per-machine stall rows), and
/// rows may carry an optional, ungated route/compute/spill split of the
/// host wall clock.
///
/// v6: `"model"` gained `"checkpoint_words"` and `"replayed_rounds"` —
/// the recovery-side accounting of the fault-injection layer (words
/// written to crash-recovery checkpoints; rounds re-executed from one).
/// Both are 0 for every fault-free run, so every pre-existing gated field
/// is byte-identical to v5.
///
/// v7: `"critical_path"` lost its pipelined makespan, the dependency-DAG
/// what-if of a scheduler the simulator no longer has. The four barrier
/// fields left are byte-identical to v6.
///
/// v8: no host time. The report lost its host thread count, and every
/// row lost its run and per-round wall clock and its host split, so every
/// byte of a report is a function of the code and the workload. Every
/// remaining field is byte-identical to v7 (`benchmarks/README.md` names
/// the dropped fields).
pub const SCHEMA_VERSION: i64 = 8;

/// Model-side costs of one workload run: exactly what the paper's MPC
/// model charges for, as measured by the audited distributed executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelCosts {
    /// Compression phases executed.
    pub phases: i64,
    /// MPC communication rounds (trace-measured).
    pub mpc_rounds: i64,
    /// Machines in the executing cluster.
    pub machines: i64,
    /// Per-machine word budget `S`.
    pub memory_cap_words: i64,
    /// Total words moved across the network.
    pub total_message_words: i64,
    /// Largest per-machine per-round communication.
    pub peak_round_words: i64,
    /// Largest per-machine resident memory in any round.
    pub peak_resident_words: i64,
    /// Words written to per-machine spill files over the run (nonzero
    /// only when an enforced memory budget forced the working set out of
    /// core).
    pub spill_words: i64,
    /// Modeled words of crash-recovery checkpoints (nonzero only under
    /// fault injection; charged separately from `spill_words` so fault-
    /// free and faulty-but-recovered runs stay bit-identical).
    pub checkpoint_words: i64,
    /// Rounds re-executed from a checkpoint after injected crashes.
    pub replayed_rounds: i64,
    /// Model-constraint breaches (must be 0 under strict enforcement).
    pub violations: i64,
}

/// Solution quality of one workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Weight of the produced cover.
    pub cover_weight: f64,
    /// Number of vertices in the cover.
    pub cover_size: i64,
    /// A-posteriori ratio certified by the dual certificate.
    pub certified_ratio: f64,
    /// Exact LP relaxation optimum (`LP* ≤ OPT`).
    pub lp_bound: f64,
    /// `cover_weight / lp_bound` (an upper bound on the true ratio).
    pub ratio_vs_lp: f64,
    /// Weight of the greedy baseline cover on the same instance.
    pub greedy_weight: f64,
    /// Weight of the Bar-Yehuda–Even baseline cover.
    pub bye_weight: f64,
}

/// Deterministic critical-path statistics of the audited run (the
/// simulated-compute costs of `mpc_sim`'s `CriticalPath`): what the round
/// schedule costs behind barriers, the barrier's total stall, and the
/// machine the others wait for. A pure function of the workload, gated
/// exactly like the model costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalPathStats {
    /// Makespan with every round ending at a barrier.
    pub barrier_makespan: i64,
    /// Total idle cost machines spend waiting at barriers.
    pub barrier_stall: i64,
    /// The machine the others wait for: smallest total stall over the
    /// run, ties to the lower id (`-1` when the run carried no
    /// per-machine rows, e.g. the reference executor).
    pub straggler_machine: i64,
    /// The straggler's total stall (words of barrier idle it *caused* is
    /// everyone else's; its own is this, the minimum).
    pub straggler_stall_words: i64,
}

impl CriticalPathStats {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("barrier_makespan".into(), Json::Int(self.barrier_makespan)),
            ("barrier_stall".into(), Json::Int(self.barrier_stall)),
            (
                "straggler_machine".into(),
                Json::Int(self.straggler_machine),
            ),
            (
                "straggler_stall_words".into(),
                Json::Int(self.straggler_stall_words),
            ),
        ])
    }
}

impl From<&mpc_sim::CriticalPath> for CriticalPathStats {
    fn from(cp: &mpc_sim::CriticalPath) -> Self {
        let (straggler_machine, straggler_stall_words) = cp
            .straggler()
            .map_or((-1, 0), |(machine, stall)| (machine as i64, stall as i64));
        CriticalPathStats {
            barrier_makespan: cp.barrier_makespan as i64,
            barrier_stall: cp.barrier_stall as i64,
            straggler_machine,
            straggler_stall_words,
        }
    }
}

/// One workload row of the benchmark report.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Stable workload id, e.g. `gnm-zipf-eps16-n1024-distributed`.
    pub id: String,
    /// Executor that ran the workload (an
    /// [`mwvc_core::mpc::Executor::name`]).
    pub executor: String,
    /// Generator family (a [`mwvc_graph::GraphPreset::family`] name).
    pub family: String,
    /// Weight-model label.
    pub weights: String,
    /// Accuracy parameter of the run.
    pub epsilon: f64,
    /// Vertices of the built instance.
    pub n: i64,
    /// Edges of the built instance.
    pub m: i64,
    /// Gated: model costs.
    pub model: ModelCosts,
    /// Gated: solution quality.
    pub quality: Quality,
    /// Gated: deterministic simulated cost of the barrier rounds.
    pub critical_path: CriticalPathStats,
}

/// The full benchmark report (`BENCH_core.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Layout version ([`SCHEMA_VERSION`]).
    pub schema_version: i64,
    /// Suite label (`"quick"` or `"full"`).
    pub suite: String,
    /// Base seed of the workload matrix.
    pub seed: i64,
    /// One row per workload, in matrix order.
    pub workloads: Vec<WorkloadReport>,
}

impl ModelCosts {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("phases".into(), Json::Int(self.phases)),
            ("mpc_rounds".into(), Json::Int(self.mpc_rounds)),
            ("machines".into(), Json::Int(self.machines)),
            ("memory_cap_words".into(), Json::Int(self.memory_cap_words)),
            (
                "total_message_words".into(),
                Json::Int(self.total_message_words),
            ),
            ("peak_round_words".into(), Json::Int(self.peak_round_words)),
            (
                "peak_resident_words".into(),
                Json::Int(self.peak_resident_words),
            ),
            ("spill_words".into(), Json::Int(self.spill_words)),
            ("checkpoint_words".into(), Json::Int(self.checkpoint_words)),
            ("replayed_rounds".into(), Json::Int(self.replayed_rounds)),
            ("violations".into(), Json::Int(self.violations)),
        ])
    }
}

impl Quality {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("cover_weight".into(), Json::Num(self.cover_weight)),
            ("cover_size".into(), Json::Int(self.cover_size)),
            ("certified_ratio".into(), Json::Num(self.certified_ratio)),
            ("lp_bound".into(), Json::Num(self.lp_bound)),
            ("ratio_vs_lp".into(), Json::Num(self.ratio_vs_lp)),
            ("greedy_weight".into(), Json::Num(self.greedy_weight)),
            ("bye_weight".into(), Json::Num(self.bye_weight)),
        ])
    }
}

impl WorkloadReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("executor".into(), Json::Str(self.executor.clone())),
            ("family".into(), Json::Str(self.family.clone())),
            ("weights".into(), Json::Str(self.weights.clone())),
            ("epsilon".into(), Json::Num(self.epsilon)),
            ("n".into(), Json::Int(self.n)),
            ("m".into(), Json::Int(self.m)),
            ("model".into(), self.model.to_json()),
            ("quality".into(), self.quality.to_json()),
            ("critical_path".into(), self.critical_path.to_json()),
        ])
    }
}

impl BenchReport {
    /// Serializes the report in its canonical byte form.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("schema_version".into(), Json::Int(self.schema_version)),
            ("suite".into(), Json::Str(self.suite.clone())),
            ("seed".into(), Json::Int(self.seed)),
            (
                "workloads".into(),
                Json::Arr(self.workloads.iter().map(|w| w.to_json()).collect()),
            ),
        ])
        .render()
    }
}

/// A fully populated synthetic report with tiny round numbers: the
/// golden-file schema test pins its bytes, so they never depend on an
/// actual pipeline run.
pub fn synthetic_report() -> BenchReport {
    BenchReport {
        schema_version: SCHEMA_VERSION,
        suite: "synthetic".into(),
        seed: 42,
        workloads: vec![
            WorkloadReport {
                id: "gnm-uniform-eps4-n64-distributed".into(),
                executor: "distributed".into(),
                family: "gnm".into(),
                weights: "uniform".into(),
                epsilon: 0.25,
                n: 64,
                m: 512,
                model: ModelCosts {
                    phases: 2,
                    mpc_rounds: 24,
                    machines: 8,
                    memory_cap_words: 4096,
                    total_message_words: 9000,
                    peak_round_words: 700,
                    peak_resident_words: 3000,
                    spill_words: 0,
                    checkpoint_words: 0,
                    replayed_rounds: 0,
                    violations: 0,
                },
                quality: Quality {
                    cover_weight: 130.5,
                    cover_size: 40,
                    certified_ratio: 2.25,
                    lp_bound: 61.75,
                    ratio_vs_lp: 2.113360323886639,
                    greedy_weight: 140.25,
                    bye_weight: 151.0,
                },
                critical_path: CriticalPathStats {
                    barrier_makespan: 203,
                    barrier_stall: 150,
                    straggler_machine: 3,
                    straggler_stall_words: 12,
                },
            },
            WorkloadReport {
                id: "rmat-zipf-eps16-n64-roundcompress".into(),
                executor: "roundcompress".into(),
                family: "rmat".into(),
                weights: "zipf".into(),
                epsilon: 0.0625,
                n: 60,
                m: 480,
                model: ModelCosts {
                    phases: 3,
                    mpc_rounds: 33,
                    machines: 8,
                    memory_cap_words: 4096,
                    total_message_words: 12000,
                    peak_round_words: 800,
                    peak_resident_words: 3500,
                    spill_words: 256,
                    checkpoint_words: 1024,
                    replayed_rounds: 2,
                    violations: 0,
                },
                quality: Quality {
                    cover_weight: 95.125,
                    cover_size: 33,
                    certified_ratio: 2.0625,
                    lp_bound: 47.5,
                    ratio_vs_lp: 2.0026315789473683,
                    greedy_weight: 99.0,
                    bye_weight: 101.5,
                },
                critical_path: CriticalPathStats {
                    barrier_makespan: 90,
                    barrier_stall: 0,
                    straggler_machine: 0,
                    straggler_stall_words: 0,
                },
            },
        ],
    }
}
