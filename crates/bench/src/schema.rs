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
//!   report carries no host time; `bench-diff` gates everything under
//!   `"model"`, `"quality"` and `"critical_path"`,
//! * the reader accepts exactly [`SCHEMA_VERSION`]: a report of any other
//!   version is a parse error that names the command regenerating it.

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
    /// Words written to crash-recovery checkpoints (nonzero only under
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

    /// Field names in schema order (the `bench-diff` comparator iterates
    /// these).
    pub const FIELDS: &'static [&'static str] = &[
        "barrier_makespan",
        "barrier_stall",
        "straggler_machine",
        "straggler_stall_words",
    ];

    /// Typed field access for the comparator.
    pub fn field(&self, name: &str) -> i64 {
        match name {
            "barrier_makespan" => self.barrier_makespan,
            "barrier_stall" => self.barrier_stall,
            "straggler_machine" => self.straggler_machine,
            "straggler_stall_words" => self.straggler_stall_words,
            other => unreachable!("unknown critical-path field {other}"),
        }
    }

    fn from_json(j: &Json, ctx: &str) -> Result<Self, String> {
        Ok(CriticalPathStats {
            barrier_makespan: req_int(j, "barrier_makespan", ctx)?,
            barrier_stall: req_int(j, "barrier_stall", ctx)?,
            straggler_machine: req_int(j, "straggler_machine", ctx)?,
            straggler_stall_words: req_int(j, "straggler_stall_words", ctx)?,
        })
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

    /// Field names in schema order (the `bench-diff` gate iterates these).
    pub const FIELDS: &'static [&'static str] = &[
        "phases",
        "mpc_rounds",
        "machines",
        "memory_cap_words",
        "total_message_words",
        "peak_round_words",
        "peak_resident_words",
        "spill_words",
        "checkpoint_words",
        "replayed_rounds",
        "violations",
    ];

    fn get(&self, field: &str) -> i64 {
        match field {
            "phases" => self.phases,
            "mpc_rounds" => self.mpc_rounds,
            "machines" => self.machines,
            "memory_cap_words" => self.memory_cap_words,
            "total_message_words" => self.total_message_words,
            "peak_round_words" => self.peak_round_words,
            "peak_resident_words" => self.peak_resident_words,
            "spill_words" => self.spill_words,
            "checkpoint_words" => self.checkpoint_words,
            "replayed_rounds" => self.replayed_rounds,
            "violations" => self.violations,
            other => unreachable!("unknown model field {other}"),
        }
    }

    /// Typed field access for the comparator.
    pub fn field(&self, name: &str) -> i64 {
        self.get(name)
    }

    fn from_json(j: &Json, ctx: &str) -> Result<Self, String> {
        Ok(ModelCosts {
            phases: req_int(j, "phases", ctx)?,
            mpc_rounds: req_int(j, "mpc_rounds", ctx)?,
            machines: req_int(j, "machines", ctx)?,
            memory_cap_words: req_int(j, "memory_cap_words", ctx)?,
            total_message_words: req_int(j, "total_message_words", ctx)?,
            peak_round_words: req_int(j, "peak_round_words", ctx)?,
            peak_resident_words: req_int(j, "peak_resident_words", ctx)?,
            spill_words: req_int(j, "spill_words", ctx)?,
            checkpoint_words: req_int(j, "checkpoint_words", ctx)?,
            replayed_rounds: req_int(j, "replayed_rounds", ctx)?,
            violations: req_int(j, "violations", ctx)?,
        })
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

    /// Field names in schema order (the `bench-diff` gate iterates these).
    pub const FIELDS: &'static [&'static str] = &[
        "cover_weight",
        "cover_size",
        "certified_ratio",
        "lp_bound",
        "ratio_vs_lp",
        "greedy_weight",
        "bye_weight",
    ];

    /// Typed field access for the comparator (`cover_size` widens to f64,
    /// which is exact for any realistic cover).
    pub fn field(&self, name: &str) -> f64 {
        match name {
            "cover_weight" => self.cover_weight,
            "cover_size" => self.cover_size as f64,
            "certified_ratio" => self.certified_ratio,
            "lp_bound" => self.lp_bound,
            "ratio_vs_lp" => self.ratio_vs_lp,
            "greedy_weight" => self.greedy_weight,
            "bye_weight" => self.bye_weight,
            other => unreachable!("unknown quality field {other}"),
        }
    }

    fn from_json(j: &Json, ctx: &str) -> Result<Self, String> {
        Ok(Quality {
            cover_weight: req_num(j, "cover_weight", ctx)?,
            cover_size: req_int(j, "cover_size", ctx)?,
            certified_ratio: req_num(j, "certified_ratio", ctx)?,
            lp_bound: req_num(j, "lp_bound", ctx)?,
            ratio_vs_lp: req_num(j, "ratio_vs_lp", ctx)?,
            greedy_weight: req_num(j, "greedy_weight", ctx)?,
            bye_weight: req_num(j, "bye_weight", ctx)?,
        })
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

    fn from_json(j: &Json) -> Result<Self, String> {
        let id = req_str(j, "id", "workload")?;
        let ctx = format!("workload {id}");
        Ok(WorkloadReport {
            executor: req_str(j, "executor", &ctx)?,
            family: req_str(j, "family", &ctx)?,
            weights: req_str(j, "weights", &ctx)?,
            epsilon: req_num(j, "epsilon", &ctx)?,
            n: req_int(j, "n", &ctx)?,
            m: req_int(j, "m", &ctx)?,
            model: ModelCosts::from_json(
                j.get("model").ok_or(format!("{ctx}: missing model"))?,
                &ctx,
            )?,
            quality: Quality::from_json(
                j.get("quality").ok_or(format!("{ctx}: missing quality"))?,
                &ctx,
            )?,
            critical_path: CriticalPathStats::from_json(
                j.get("critical_path")
                    .ok_or(format!("{ctx}: missing critical_path"))?,
                &ctx,
            )?,
            id,
        })
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

    /// Parses a report, validating the presence and types of every field.
    /// Only [`SCHEMA_VERSION`] is accepted: a report of any other version
    /// is an error naming both versions and the regenerate command.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let j = Json::parse(text)?;
        let schema_version = req_int(&j, "schema_version", "report")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "report is schema v{schema_version}, but this build reads only \
                 v{SCHEMA_VERSION}; regenerate it with `cargo run --release --bin \
                 experiments -- bench --quick --out <report.json>` (--full for the full suite)"
            ));
        }
        let workloads = j
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("report: missing workloads array")?
            .iter()
            .map(WorkloadReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            schema_version,
            suite: req_str(&j, "suite", "report")?,
            seed: req_int(&j, "seed", "report")?,
            workloads,
        })
    }
}

fn req_int(j: &Json, key: &str, ctx: &str) -> Result<i64, String> {
    j.get(key)
        .and_then(Json::as_i64)
        .ok_or(format!("{ctx}: missing or non-integer field {key:?}"))
}

fn req_num(j: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or(format!("{ctx}: missing or non-numeric field {key:?}"))
}

fn req_str(j: &Json, key: &str, ctx: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(format!("{ctx}: missing or non-string field {key:?}"))
}

/// A fully populated synthetic report with tiny round numbers — shared by
/// the golden-file schema test and the `bench-diff` regression tests, so
/// the pinned bytes never depend on an actual pipeline run.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_exactly() {
        let report = synthetic_report();
        let text = report.to_json();
        let back = BenchReport::from_json(&text).expect("parse own serialization");
        assert_eq!(report, back);
        // And the canonical bytes are stable across the round-trip.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn field_lists_match_serialization_order() {
        let w = &synthetic_report().workloads[0];
        let text = w.model.to_json().render();
        let mut last = 0;
        for f in ModelCosts::FIELDS {
            let at = text.find(&format!("\"{f}\"")).expect(f);
            assert!(at > last, "model field {f} out of order");
            last = at;
            let _ = w.model.field(f); // every listed field is accessible
        }
        let text = w.quality.to_json().render();
        let mut last = 0;
        for f in Quality::FIELDS {
            let at = text.find(&format!("\"{f}\"")).expect(f);
            assert!(at > last, "quality field {f} out of order");
            last = at;
            let _ = w.quality.field(f);
        }
        let text = w.critical_path.to_json().render();
        let mut last = 0;
        for f in CriticalPathStats::FIELDS {
            let at = text.find(&format!("\"{f}\"")).expect(f);
            assert!(at > last, "critical-path field {f} out of order");
            last = at;
            let _ = w.critical_path.field(f);
        }
    }

    #[test]
    fn any_other_schema_version_is_rejected() {
        for version in [1, SCHEMA_VERSION - 1, SCHEMA_VERSION + 1] {
            let mut report = synthetic_report();
            report.schema_version = version;
            let err = BenchReport::from_json(&report.to_json()).unwrap_err();
            assert!(err.contains(&format!("schema v{version},")), "{err}");
            assert!(err.contains(&format!("v{SCHEMA_VERSION};")), "{err}");
            assert!(err.contains("experiments -- bench"), "{err}");
        }
    }

    #[test]
    fn missing_field_is_a_parse_error() {
        // `phases` plus every field older schemas lacked: none has a
        // default any more.
        for field in [
            "phases",
            "executor",
            "critical_path",
            "spill_words",
            "straggler_machine",
            "checkpoint_words",
        ] {
            let text = synthetic_report()
                .to_json()
                .replace(&format!("\"{field}\""), "\"renamed\"");
            let err = BenchReport::from_json(&text).unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
    }
}
