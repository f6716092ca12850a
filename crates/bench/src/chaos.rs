//! `experiments chaos` — the seeded fault-injection sweep.
//!
//! Runs both flagship executors under a fixed matrix of deterministic
//! [`FaultConfig`] cells (crash-restarts, straggler delays, a mixed
//! storm) and asserts the recovery contract of `mpc_sim::checkpoint`:
//!
//! * every *handled* fault plan yields gated outputs — cover bits, dual
//!   certificate values, per-round stats, critical path, violations —
//!   **bit-identical** to the fault-free baseline,
//! * the unrecoverable cell (certain crash, zero replay budget) yields a
//!   typed [`ClusterError`](mpc_sim::ClusterError) as a clean `Err`, never a panic,
//! * two spill cells drive spill-I/O faults through the bounded retry
//!   path of `SpillFile` on the executor that spills, [`run_outofcore`]
//!   over an instance whose shards overflow an enforced budget: transient
//!   faults must leave every output bit-identical to the fault-free
//!   spilled run, and a plan past the retry budget must be a clean `Err`.
//!
//! Everything is deterministic: fault seeds derive from the cell labels
//! by FNV-1a, so a run either always passes or always fails. The CI
//! chaos job additionally runs the suite under the
//! `CHAOS_MUTATE=skip-retry` and `CHAOS_MUTATE=skip-replay` seeded
//! mutations and requires the sweep to **fail** — proving the assertions
//! can actually see a broken retry loop or a crash restore that skips
//! its replay.

use crate::harness::ExecutorKind;
use crate::table::Table;
use mpc_sim::{FaultConfig, FaultStats, MemoryBudget, MpcConfig};
use mwvc_core::mpc::{
    run_outofcore, DistributedExecutor, Executor, ExecutorOutcome, MpcMwvcConfig, OocConfig,
    OocOutcome,
};
use mwvc_graph::generators::gnm;
use mwvc_graph::{ChunkedCsr, GraphPreset, StreamingGraphBuilder, WeightModel, WeightedGraph};
use mwvc_roundcompress::{RoundCompressConfig, RoundCompressExecutor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Base seed of the sweep; per-cell fault seeds derive from it and the
/// cell/executor labels, so adding a cell never reshuffles the fault
/// coins of the others.
pub const CHAOS_BASE_SEED: u64 = 0xc4a05;

/// What a cell's fault plan is expected to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// The recovery engine must absorb every injected fault: `Ok`, gated
    /// outputs bit-identical to fault-free, and at least one fault
    /// actually injected (a cell that never fires tests nothing).
    Recovered,
    /// The plan exceeds the recovery budget by construction: a typed
    /// [`ClusterError`](mpc_sim::ClusterError) `Err`, never a panic.
    TypedError,
}

/// One cell of the fault matrix.
struct ChaosCell {
    name: &'static str,
    faults: FaultConfig,
    expect: Expect,
}

/// The executor-sweep fault matrix. Rates are chosen high enough that
/// every recoverable cell deterministically injects at least one fault
/// on the chaos instances (asserted per run).
fn cells() -> Vec<ChaosCell> {
    let base = FaultConfig::none();
    vec![
        ChaosCell {
            name: "crashes",
            faults: FaultConfig {
                crash_rate: 0.08,
                ..base
            },
            expect: Expect::Recovered,
        },
        ChaosCell {
            name: "stragglers",
            faults: FaultConfig {
                straggler_rate: 0.30,
                ..base
            },
            expect: Expect::Recovered,
        },
        ChaosCell {
            name: "mixed",
            faults: FaultConfig {
                crash_rate: 0.05,
                straggler_rate: 0.20,
                ..base
            },
            expect: Expect::Recovered,
        },
        ChaosCell {
            name: "unrecoverable",
            faults: FaultConfig {
                crash_rate: 1.0,
                max_replays: 0,
                ..base
            },
            expect: Expect::TypedError,
        },
    ]
}

/// The spill cells, run on [`run_spilling`]: transient spill-I/O faults
/// the default retry budget absorbs, and a certain fault with no retries.
fn spill_cells() -> Vec<ChaosCell> {
    let base = FaultConfig::none();
    vec![
        ChaosCell {
            name: "spill-retry",
            faults: FaultConfig {
                spill_io_rate: 0.05,
                ..base
            },
            expect: Expect::Recovered,
        },
        ChaosCell {
            name: "spill-exhausted",
            faults: FaultConfig {
                spill_io_rate: 1.0,
                max_retries: 0,
                ..base
            },
            expect: Expect::TypedError,
        },
    ]
}

/// FNV-1a of a string — stable fault-seed derivation from cell labels.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fault seed of one sweep row. The trailing `/barrier` is a fixed
/// part of the label, not an option: it keeps every row on the seed it
/// has always drawn.
fn fault_seed(instance_id: &str, cell: &str, executor: &str) -> u64 {
    CHAOS_BASE_SEED ^ fnv1a(&format!("{instance_id}/{cell}/{executor}/barrier"))
}

/// The chaos instances: small enough that the full sweep stays in CI
/// budget, large enough that every executor runs a nontrivial number of
/// rounds across a real machine fleet.
fn instances(quick: bool) -> Vec<(String, WeightedGraph)> {
    let tiers: &[usize] = if quick { &[256] } else { &[256, 1024] };
    tiers
        .iter()
        .map(|&n| {
            let preset = GraphPreset::Gnm { n, avg_degree: 16 };
            let seed = CHAOS_BASE_SEED ^ fnv1a(&format!("gnm-n{n}"));
            let g = preset.build(seed);
            let weights = WeightModel::Uniform { lo: 1.0, hi: 10.0 }.sample(&g, seed ^ 0x5eed);
            (format!("gnm-uniform-n{n}"), WeightedGraph::new(g, weights))
        })
        .collect()
}

/// Builds an executor with a fault plan injected into its cluster config
/// (the harness [`ExecutorKind::build`] is the fault-free form).
fn build_executor(
    kind: ExecutorKind,
    epsilon: f64,
    seed: u64,
    faults: FaultConfig,
) -> Box<dyn Executor> {
    match kind {
        ExecutorKind::Distributed => Box::new(DistributedExecutor::new(
            MpcMwvcConfig::practical(epsilon, seed).with_faults(faults),
        )),
        ExecutorKind::RoundCompress => Box::new(RoundCompressExecutor::new(
            RoundCompressConfig::practical(epsilon, seed).with_faults(faults),
        )),
    }
}

/// First gated-output divergence between a faulted outcome and the
/// fault-free baseline, or `None` when the chaos contract holds. The
/// comparison deliberately excludes `trace.faults` (it *must* differ);
/// everything the perf gate and the quality report consume, including
/// every per-machine row of the critical path, has to match bit for
/// bit.
fn gated_mismatch(base: &ExecutorOutcome, got: &ExecutorOutcome) -> Option<&'static str> {
    if got.solution.cover != base.solution.cover {
        return Some("cover diverged");
    }
    if got.solution.certificate != base.solution.certificate {
        return Some("dual certificate diverged");
    }
    if got.cost.phases != base.cost.phases || got.cost.mpc_rounds != base.cost.mpc_rounds {
        return Some("phase/round counts diverged");
    }
    if got.trace.rounds != base.trace.rounds {
        return Some("per-round stats diverged");
    }
    if got.trace.critical_path != base.trace.critical_path {
        return Some("critical path diverged");
    }
    if got.trace.violations != base.trace.violations {
        return Some("violations diverged");
    }
    None
}

/// First divergence of a faulted out-of-core run from the fault-free
/// spilled run, or `None` when the retry contract holds: the cover, the
/// bits of every dual load, the per-round stats (spill words included)
/// and the critical path must all match.
fn ooc_mismatch(base: &OocOutcome, got: &OocOutcome) -> Option<&'static str> {
    if got.cover != base.cover {
        return Some("cover diverged");
    }
    if !got
        .loads
        .iter()
        .map(|y| y.to_bits())
        .eq(base.loads.iter().map(|y| y.to_bits()))
    {
        return Some("dual loads diverged");
    }
    if got.trace.rounds != base.trace.rounds {
        return Some("per-round stats diverged");
    }
    if got.trace.critical_path != base.trace.critical_path {
        return Some("critical path diverged");
    }
    None
}

/// Id of the spill cells' instance.
const SPILL_INSTANCE: &str = "gnm-uniform-n1500-spilled";

/// Streams the spill instance, `gnm(1500, 12 000)` with uniform weights,
/// to an on-disk CSR at `path`.
fn spill_instance(path: &Path) -> Result<(ChunkedCsr, Vec<f64>), String> {
    let (n, seed) = (1_500, CHAOS_BASE_SEED ^ fnv1a(SPILL_INSTANCE));
    let g = gnm(n, 12_000, seed);
    let mut b = StreamingGraphBuilder::new(n, 1 << 16, None);
    for e in g.edges() {
        b.add_edge(e.u(), e.v());
    }
    let weights = WeightModel::Uniform { lo: 1.0, hi: 10.0 }.sample(&g, seed ^ 0x5eed);
    Ok((b.finish(path)?, weights.as_slice().to_vec()))
}

/// The out-of-core run of the spill cells: 3 machines at S = 16 000,
/// enforced. Each machine's ~8 000-word shard overflows half the budget,
/// so every machine spills it and reads it back in 256-word batches.
fn run_spilling(
    csr: &ChunkedCsr,
    weights: &[f64],
    faults: FaultConfig,
) -> Result<OocOutcome, String> {
    let cfg = OocConfig {
        batch_words: 256,
        ..OocConfig::default()
    };
    let cluster = MpcConfig::new(3, 16_000)
        .with_budget(MemoryBudget::Enforced)
        .with_faults(faults);
    run_outofcore(csr, weights, &cfg, cluster)
}

/// One judged faulted run: outcome label, fault accounting, and the
/// contract violation, if any.
type Judged = (&'static str, FaultStats, Option<String>);

/// Judges a faulted run against its cell's expectation. `check` reads a
/// successful run's fault accounting and compares it with the
/// fault-free baseline.
fn judge<T, E: std::fmt::Display>(
    expect: Expect,
    result: std::thread::Result<Result<T, E>>,
    check: impl FnOnce(&T) -> (FaultStats, Option<String>),
) -> Judged {
    match result {
        // Panics are contract violations too ("unrecoverable faults are
        // clean typed errors, never panics") — and catching them keeps
        // the mutation gates exiting 1, not crashing.
        Err(_) => (
            "panic",
            FaultStats::default(),
            Some("panicked; recovery must fail as a typed error".to_string()),
        ),
        Ok(Ok(out)) => {
            let (stats, failure) = check(&out);
            let failure = match expect {
                Expect::TypedError => Some("expected a typed error, got Ok".to_string()),
                Expect::Recovered => failure,
            };
            ("ok", stats, failure)
        }
        Ok(Err(e)) => {
            let failure = match expect {
                Expect::TypedError => None,
                Expect::Recovered => Some(format!("recoverable plan errored: {e}")),
            };
            ("err", FaultStats::default(), failure)
        }
    }
}

/// Outcome of one full sweep: the rendered table plus every contract
/// violation found (empty means the chaos gate passes).
pub struct ChaosReport {
    /// One row per (cell, executor) run.
    pub table: Table,
    /// Number of faulted executor/cluster runs performed.
    pub runs: usize,
    /// Human-readable contract violations, in discovery order.
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// Records one faulted run as a table row, and its violation (if
    /// any) as a failure labelled `{row}/{executor}`.
    fn record(&mut self, row: String, executor: &str, (outcome, stats, failure): Judged) {
        self.runs += 1;
        let verdict = if failure.is_some() { "FAIL" } else { "pass" };
        if let Some(f) = failure {
            self.failures.push(format!("{row}/{executor}: {f}"));
        }
        self.table.push(vec![
            row,
            executor.to_string(),
            outcome.to_string(),
            stats.injected.to_string(),
            stats.replayed_rounds.to_string(),
            stats.checkpoint_words.to_string(),
            stats.retries.to_string(),
            verdict.to_string(),
        ]);
    }
}

/// Runs the full chaos sweep. `quick` restricts to the CI-sized
/// instance tier.
pub fn run_chaos(quick: bool) -> ChaosReport {
    let table = Table::new(
        format!(
            "CHAOS fault-injection sweep ({} tier, seed {CHAOS_BASE_SEED:#x})",
            if quick { "quick" } else { "full" }
        ),
        &[
            "cell",
            "executor",
            "outcome",
            "injected",
            "replays",
            "ckpt words",
            "retries",
            "verdict",
        ],
    );
    let mut report = ChaosReport {
        table,
        runs: 0,
        failures: Vec::new(),
    };

    for (instance_id, wg) in instances(quick) {
        for kind in ExecutorKind::all() {
            let algo_seed = CHAOS_BASE_SEED ^ fnv1a(&format!("{instance_id}-{}", kind.label()));
            let baseline =
                match build_executor(kind, 0.25, algo_seed, FaultConfig::none()).try_run(&wg) {
                    Ok(out) => out,
                    Err(e) => {
                        report.failures.push(format!(
                            "{instance_id}/{}: fault-free baseline errored: {e}",
                            kind.label()
                        ));
                        continue;
                    }
                };
            for cell in cells() {
                let faults =
                    cell.faults
                        .with_seed(fault_seed(&instance_id, cell.name, kind.label()));
                let exec = build_executor(kind, 0.25, algo_seed, faults);
                let result = catch_unwind(AssertUnwindSafe(|| exec.try_run(&wg)));
                let judged = judge(cell.expect, result, |out: &ExecutorOutcome| {
                    let stats = out.trace.faults;
                    let failure = if stats.injected == 0 {
                        Some("cell injected no faults (dead cell)".to_string())
                    } else {
                        gated_mismatch(&baseline, out).map(str::to_string)
                    };
                    (stats, failure)
                });
                report.record(format!("{instance_id}/{}", cell.name), kind.label(), judged);
            }
        }
    }

    // The spill cells, against the fault-free spilled run.
    let path = std::env::temp_dir().join(format!("chaos-spill-{}.ocsr", std::process::id()));
    let spilled = spill_instance(&path).and_then(|(csr, weights)| {
        let clean = run_spilling(&csr, &weights, FaultConfig::none())?;
        Ok((csr, weights, clean))
    });
    match spilled {
        Err(e) => report.failures.push(format!(
            "{SPILL_INSTANCE}: fault-free spilled run errored: {e}"
        )),
        Ok((_, _, clean)) if clean.trace.total_spill() == 0 => report.failures.push(format!(
            "{SPILL_INSTANCE}: the fault-free run did not spill (dead cells)"
        )),
        Ok((csr, weights, clean)) => {
            for cell in spill_cells() {
                let faults =
                    cell.faults
                        .with_seed(fault_seed(SPILL_INSTANCE, cell.name, "outofcore"));
                let result =
                    catch_unwind(AssertUnwindSafe(|| run_spilling(&csr, &weights, faults)));
                let judged = judge(cell.expect, result, |out: &OocOutcome| {
                    let stats = out.trace.faults;
                    let failure = if stats.retries == 0 {
                        Some("no spill attempt retried (dead cell)".to_string())
                    } else {
                        ooc_mismatch(&clean, out).map(str::to_string)
                    };
                    (stats, failure)
                });
                report.record(
                    format!("{SPILL_INSTANCE}/{}", cell.name),
                    "outofcore",
                    judged,
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seeds_are_distinct_and_stable() {
        let a = fault_seed("gnm-uniform-n256", "crashes", "distributed");
        assert_eq!(
            a,
            CHAOS_BASE_SEED ^ fnv1a("gnm-uniform-n256/crashes/distributed/barrier")
        );
        assert_ne!(
            a,
            fault_seed("gnm-uniform-n256", "crashes", "roundcompress")
        );
        assert_ne!(a, fault_seed("gnm-uniform-n256", "mixed", "distributed"));
    }

    /// The quick sweep passes end to end — the same invariant the CI
    /// chaos job enforces (and the seeded mutations must break).
    #[test]
    fn quick_sweep_passes_clean() {
        if std::env::var_os("CHAOS_MUTATE").is_some() {
            return; // under a mutation the sweep *should* fail
        }
        let report = run_chaos(true);
        assert!(
            report.failures.is_empty(),
            "chaos failures:\n{}",
            report.failures.join("\n")
        );
        assert!(
            report.runs >= 9,
            "expected the full matrix, got {}",
            report.runs
        );
    }
}
