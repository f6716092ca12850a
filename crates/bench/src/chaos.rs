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
//!   typed [`ClusterError`] as a clean `Err`, never a panic,
//! * a synthetic spill cell (the flagship executors never spill at bench
//!   sizes) drives transient spill-I/O faults through the bounded retry
//!   path of `SpillFile` and checks the read-back survives.
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
use mpc_sim::{Cluster, ClusterError, FaultConfig, FaultStats, MachineCtx, MpcConfig, Words};
use mwvc_core::mpc::{DistributedExecutor, Executor, ExecutorOutcome, MpcMwvcConfig};
use mwvc_graph::{GraphPreset, WeightModel, WeightedGraph};
use mwvc_roundcompress::{RoundCompressConfig, RoundCompressExecutor};

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
    /// [`ClusterError`] `Err`, never a panic.
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

/// Per-machine state of the synthetic spill cell: the words read back
/// from the spill file, compared bit for bit against the fault-free run.
#[derive(Clone, Debug, Default, PartialEq)]
struct SpillProbe {
    read_back: Vec<u64>,
}

impl Words for SpillProbe {
    fn words(&self) -> usize {
        1 + self.read_back.len()
    }
}

const SPILL_BATCH: usize = 64;

/// Drives one spill write/read cycle per machine through the audited
/// cluster under `faults`. Injected transient spill-I/O errors must be
/// absorbed by the bounded retry path; exhaustion (or the `skip-retry`
/// mutation) surfaces as a typed [`ClusterError::SpillIo`].
fn run_spill_probe(faults: FaultConfig) -> Result<(Vec<SpillProbe>, FaultStats), ClusterError> {
    let cfg = MpcConfig::new(4, 10_000).with_faults(faults);
    let mut c: Cluster<SpillProbe, u64> = Cluster::new(cfg, |_| SpillProbe::default());
    c.try_round(
        "spill-write",
        |ctx: &mut MachineCtx<u64>, _state, _inbox| {
            let base = (ctx.id as u64) << 32;
            let batch: Vec<u64> = (0..SPILL_BATCH as u64)
                .map(|k| base | k.wrapping_mul(0x9e37_79b9))
                .collect();
            // Injected transient errors retry inside write_words; a genuine
            // or exhausted error latches and surfaces after the round.
            let _ = ctx.spill().write_words(&batch);
            ctx.spill().rewind();
        },
    )?;
    c.try_round("spill-read", |ctx: &mut MachineCtx<u64>, state, _inbox| {
        let mut buf = vec![0u64; SPILL_BATCH];
        let got = ctx.spill().read_words(&mut buf).unwrap_or(0);
        buf.truncate(got);
        state.read_back = buf;
    })?;
    Ok((c.states().to_vec(), c.trace().faults))
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

/// Runs the full chaos sweep. `quick` restricts to the CI-sized
/// instance tier.
pub fn run_chaos(quick: bool) -> ChaosReport {
    let mut table = Table::new(
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
    let mut runs = 0usize;
    let mut failures = Vec::new();

    for (instance_id, wg) in instances(quick) {
        for kind in ExecutorKind::all() {
            let algo_seed = CHAOS_BASE_SEED ^ fnv1a(&format!("{instance_id}-{}", kind.label()));
            let baseline =
                match build_executor(kind, 0.25, algo_seed, FaultConfig::none()).try_run(&wg) {
                    Ok(out) => out,
                    Err(e) => {
                        failures.push(format!(
                            "{instance_id}/{}: fault-free baseline errored: {e}",
                            kind.label()
                        ));
                        continue;
                    }
                };
            for cell in cells() {
                let label = format!("{instance_id}/{}/{}", cell.name, kind.label());
                let faults =
                    cell.faults
                        .with_seed(fault_seed(&instance_id, cell.name, kind.label()));
                let exec = build_executor(kind, 0.25, algo_seed, faults);
                runs += 1;
                // Panics are contract violations too ("unrecoverable
                // faults are clean typed errors, never panics") — and
                // catching them keeps the mutation gates exiting 1, not
                // crashing.
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec.try_run(&wg)));
                let (outcome_label, stats, failure) = match result {
                    Err(_) => (
                        "panic",
                        FaultStats::default(),
                        Some("panicked; recovery must fail as a typed error".to_string()),
                    ),
                    Ok(Ok(out)) => {
                        let stats = out.trace.faults;
                        let failure = match cell.expect {
                            Expect::TypedError => {
                                Some("expected a typed error, got Ok".to_string())
                            }
                            Expect::Recovered => {
                                if stats.injected == 0 {
                                    Some("cell injected no faults (dead cell)".to_string())
                                } else {
                                    gated_mismatch(&baseline, &out).map(str::to_string)
                                }
                            }
                        };
                        ("ok", stats, failure)
                    }
                    Ok(Err(e)) => {
                        let failure = match cell.expect {
                            Expect::TypedError => None,
                            Expect::Recovered => Some(format!("recoverable plan errored: {e}")),
                        };
                        ("err", FaultStats::default(), failure)
                    }
                };
                let failed = failure.is_some();
                if let Some(f) = failure {
                    failures.push(format!("{label}: {f}"));
                }
                table.push(vec![
                    format!("{instance_id}/{}", cell.name),
                    kind.label().to_string(),
                    outcome_label.to_string(),
                    stats.injected.to_string(),
                    stats.replayed_rounds.to_string(),
                    stats.checkpoint_words.to_string(),
                    stats.retries.to_string(),
                    if failed { "FAIL" } else { "pass" }.to_string(),
                ]);
            }
        }
    }

    // The synthetic spill cell: fault-free read-back vs the retry path.
    runs += 1;
    let spill_row = match run_spill_probe(FaultConfig::none()) {
        Err(e) => {
            failures.push(format!("spill-synthetic: fault-free probe errored: {e}"));
            None
        }
        Ok((clean, _)) => {
            let faults = FaultConfig {
                spill_io_rate: 0.30,
                ..FaultConfig::none()
            }
            .with_seed(CHAOS_BASE_SEED ^ fnv1a("spill-synthetic"));
            match std::panic::catch_unwind(|| run_spill_probe(faults)) {
                Ok(Ok((faulted, stats))) => {
                    if faulted != clean {
                        failures.push("spill-synthetic: read-back diverged under retries".into());
                    } else if stats.retries == 0 {
                        failures.push("spill-synthetic: no retries exercised (dead cell)".into());
                    }
                    Some(("ok", stats))
                }
                Ok(Err(e)) => {
                    failures.push(format!("spill-synthetic: retry path errored: {e}"));
                    Some(("err", FaultStats::default()))
                }
                Err(_) => {
                    failures.push("spill-synthetic: panicked in the retry path".into());
                    Some(("panic", FaultStats::default()))
                }
            }
        }
    };
    if let Some((outcome_label, stats)) = spill_row {
        let failed = failures.iter().any(|f| f.starts_with("spill-synthetic"));
        table.push(vec![
            "spill-synthetic".to_string(),
            "mpc_sim".to_string(),
            outcome_label.to_string(),
            stats.injected.to_string(),
            stats.replayed_rounds.to_string(),
            stats.checkpoint_words.to_string(),
            stats.retries.to_string(),
            if failed { "FAIL" } else { "pass" }.to_string(),
        ]);
    }

    ChaosReport {
        table,
        runs,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_probe_reads_back_what_it_wrote() {
        let (states, stats) = run_spill_probe(FaultConfig::none()).unwrap();
        assert_eq!(states.len(), 4);
        for (i, s) in states.iter().enumerate() {
            assert_eq!(s.read_back.len(), SPILL_BATCH);
            assert_eq!(s.read_back[0], (i as u64) << 32);
        }
        assert_eq!(stats, FaultStats::default());
    }

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
