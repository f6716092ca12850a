//! Chaos properties: randomly drawn deterministic fault plans driven
//! through **both** flagship executors (distributed, roundcompress) on
//! pools of 1, 2, and 5 threads, and a table of named plans (crashes,
//! stragglers, both) that must each inject faults on both executors.
//!
//! This suite is the one gate on the recovery half of the determinism
//! story:
//!
//! * every *handled* fault plan yields `Ok` with gated outputs — cover,
//!   dual certificate, phase/round counts, per-round stats, critical
//!   path, violations — **bit-identical** to the fault-free run, at
//!   every pool width,
//! * a plan that exceeds the recovery budget yields the same typed
//!   [`ClusterError`] at every pool width — a clean `Err`, never a
//!   panic.
//!
//! Two seeded mutation gates ride along: with `CHAOS_MUTATE=skip-retry`
//! the spill retry loop is disabled and
//! [`spill_retry_recovers_transient_errors`] (the out-of-core executor on
//! an instance that spills) must fail; with
//! `CHAOS_MUTATE=skip-replay` a crashed machine is restored from its
//! checkpoint but its round is not replayed, and
//! [`crash_replay_restores_from_checkpoints`] must fail.
//! CI runs the suite under both mutations and requires a non-zero exit —
//! proving these assertions can actually see a broken recovery engine.
//! The proptest sweeps skip themselves under a mutation (the dedicated
//! gates carry the failure) so shrink loops never chew CI time.

use mwvc_repro::core::mpc::{
    run_outofcore, DistributedExecutor, Executor, ExecutorOutcome, MpcMwvcConfig, OocConfig,
    OocOutcome,
};
use mwvc_repro::graph::generators::gnm;
use mwvc_repro::graph::{ChunkedCsr, StreamingGraphBuilder, WeightModel, WeightedGraph};
use mwvc_repro::roundcompress::{RoundCompressConfig, RoundCompressExecutor};
use mwvc_repro::sim::{ClusterError, FaultConfig, MemoryBudget, MpcConfig};
use proptest::prelude::*;
use rayon::ThreadPool;
use std::panic::{catch_unwind, AssertUnwindSafe};

const EPS: f64 = 0.25;

/// The pool widths every faulted run is checked across (same contract as
/// `tests/determinism.rs`).
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

/// True when a seeded chaos mutation is active: the dedicated gate tests
/// carry the expected failure, the random sweeps stand down.
fn mutation_active() -> bool {
    std::env::var("CHAOS_MUTATE").is_ok()
}

fn instance(n: usize, seed: u64) -> WeightedGraph {
    let g = gnm(n, n * 10, seed);
    let w = WeightModel::Uniform { lo: 1.0, hi: 10.0 }.sample(&g, seed ^ 0x5eed);
    WeightedGraph::new(g, w)
}

fn executors(seed: u64, faults: FaultConfig) -> Vec<(&'static str, Box<dyn Executor>)> {
    vec![
        (
            "distributed",
            Box::new(DistributedExecutor::new(
                MpcMwvcConfig::practical(EPS, seed).with_faults(faults),
            )),
        ),
        (
            "roundcompress",
            Box::new(RoundCompressExecutor::new(
                RoundCompressConfig::practical(EPS, seed).with_faults(faults),
            )),
        ),
    ]
}

/// First gated-output divergence, or `None` when the recovery contract
/// holds. Fault accounting (`trace.faults`) is deliberately excluded — it
/// *must* differ between a faulted and a fault-free run. The critical
/// path comparison covers every per-machine row.
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

/// One faulted run at one pool width: `Err(())` when the recovery path
/// panicked, otherwise the executor's own `Result`.
type PoolRun = (usize, Result<Result<ExecutorOutcome, ClusterError>, ()>);

/// Runs `exec.try_run` on every pool width with panics contained, so a
/// panicking recovery path fails the property with a message instead of
/// aborting the shrink loop.
fn run_across_pools(exec: &dyn Executor, wg: &WeightedGraph) -> Vec<PoolRun> {
    pools()
        .iter()
        .map(|(t, p)| {
            let r =
                catch_unwind(AssertUnwindSafe(|| p.install(|| exec.try_run(wg)))).map_err(|_| ());
            (*t, r)
        })
        .collect()
}

/// Recoverable fault plans: rates low enough that the default replay and
/// retry budgets of [`FaultConfig::none`] *can* absorb them — though the
/// property does not assume they always do; it only demands each plan
/// resolves the same way (bit-identical `Ok` or one typed `Err`) at
/// every pool width.
fn arb_faults() -> impl Strategy<Value = FaultConfig> {
    (0u64..u64::MAX, 0.0..0.10f64, 0.0..0.25f64).prop_map(|(seed, crash, straggler)| FaultConfig {
        seed,
        crash_rate: crash,
        straggler_rate: straggler,
        ..FaultConfig::none()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random recoverable fault plans, both executors, pool widths
    /// 1/2/5: gated outputs bit-identical to fault-free, or one
    /// consistent typed error. Never a panic.
    #[test]
    fn random_fault_plans_preserve_gated_outputs(
        faults in arb_faults(),
        inst_seed in 0u64..1_000,
        algo_seed in 0u64..1_000,
    ) {
        if mutation_active() {
            return Ok(());
        }
        let wg = instance(160, inst_seed);
        for (name, exec) in executors(algo_seed, faults) {
            let baseline = executors(algo_seed, FaultConfig::none())
                .into_iter()
                .find(|(n, _)| *n == name)
                .expect("baseline executor")
                .1
                .try_run(&wg)
                .expect("fault-free baseline never errs");
            let runs = run_across_pools(exec.as_ref(), &wg);
            // Every width resolves; classify against the 1-thread run.
            let shape: Vec<Option<String>> = runs
                .iter()
                .map(|(t, r)| match r {
                    Err(()) => panic!("{name} panicked at {t} threads under {faults:?}"),
                    Ok(Ok(out)) => {
                        if let Some(why) = gated_mismatch(&baseline, out) {
                            panic!("{name} at {t} threads: {why} under {faults:?}");
                        }
                        None
                    }
                    Ok(Err(e)) => Some(e.to_string()),
                })
                .collect();
            for (i, s) in shape.iter().enumerate().skip(1) {
                prop_assert_eq!(
                    s,
                    &shape[0],
                    "{}: widths {} and {} disagreed on the outcome under {:?}",
                    name,
                    runs[0].0,
                    runs[i].0,
                    faults
                );
            }
        }
    }
}

/// A plan past any budget — certain crash, zero replays — must be a
/// clean typed error from `try_run` at every width, for both executors,
/// with an identical message. Never a panic there; `run`, the panicking
/// form, must panic and name that error.
#[test]
fn unrecoverable_plans_err_cleanly_at_all_widths() {
    if mutation_active() {
        return;
    }
    let faults = FaultConfig {
        seed: 0xdead,
        crash_rate: 1.0,
        max_replays: 0,
        ..FaultConfig::none()
    };
    let wg = instance(160, 77);
    for (name, exec) in executors(7, faults) {
        let mut messages = Vec::new();
        for (t, r) in run_across_pools(exec.as_ref(), &wg) {
            match r {
                Err(()) => panic!("{name} panicked at {t} threads"),
                Ok(Ok(_)) => panic!("{name} at {t} threads: expected a typed error"),
                Ok(Err(e)) => messages.push(e.to_string()),
            }
        }
        assert!(
            messages.windows(2).all(|w| w[0] == w[1]),
            "{name}: error text differs across widths: {messages:?}"
        );
        let payload = catch_unwind(AssertUnwindSafe(|| exec.run(&wg)))
            .expect_err("run must panic where try_run errs");
        let text = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(
            text.contains("unrecoverable cluster fault") && text.contains(&messages[0]),
            "{name}: run panicked with {text:?}, try_run erred with {:?}",
            messages[0]
        );
    }
}

// ---------------------------------------------------------------------
// Seeded mutation gates. Each doubles as a positive recovery test when
// no mutation is active.
// ---------------------------------------------------------------------

/// The spilling run of the retry gate (the shape of the out-of-core
/// spill test in `tests/determinism.rs`): 3 machines at S = 16 000,
/// enforced, so every machine's ~8 000-word shard of `gnm(1500, 12 000)`
/// goes to its spill file and is read back in 256-word batches.
fn spilled_run(
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

/// Transient spill-I/O faults on the executor that spills are absorbed by
/// the bounded retry loop: cover, every dual load's bits, the per-round
/// stats and the critical path match the fault-free spilled run. A
/// certain fault with no retries is a clean `Err` naming the spill
/// failure. Under `CHAOS_MUTATE=skip-retry` the loop gives up on the
/// first injected error and this test MUST fail (CI asserts it does).
#[test]
fn spill_retry_recovers_transient_errors() {
    let n = 1_500;
    let g = gnm(n, 12_000, 0x5911);
    let path = std::env::temp_dir().join(format!("chaos-props-{}.ocsr", std::process::id()));
    let mut b = StreamingGraphBuilder::new(n, 1 << 16, None);
    for e in g.edges() {
        b.add_edge(e.u(), e.v());
    }
    let csr = b.finish(&path).expect("build the spill instance");
    let weights = WeightModel::Uniform { lo: 1.0, hi: 9.0 }
        .sample(&g, 0x5911 ^ 3)
        .as_slice()
        .to_vec();

    let clean = spilled_run(&csr, &weights, FaultConfig::none()).expect("fault-free spilled run");
    assert!(clean.trace.total_spill() > 0, "the instance must spill");
    let faults = FaultConfig {
        seed: 0xc4a05,
        spill_io_rate: 0.05,
        ..FaultConfig::none()
    };
    let faulted = catch_unwind(AssertUnwindSafe(|| spilled_run(&csr, &weights, faults)))
        .expect("the spill retry path must never panic")
        .expect("transient spill errors within the retry budget must recover");
    assert!(
        faulted.trace.faults.retries > 0,
        "no spill attempt was retried; dead test"
    );
    assert_eq!(faulted.cover, clean.cover, "cover diverged under retries");
    for (v, (x, y)) in clean.loads.iter().zip(&faulted.loads).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "dual load {v} diverged");
    }
    assert_eq!(faulted.trace.rounds, clean.trace.rounds);
    assert_eq!(faulted.trace.critical_path, clean.trace.critical_path);

    let exhausted = FaultConfig {
        spill_io_rate: 1.0,
        max_retries: 0,
        ..faults
    };
    let err = catch_unwind(AssertUnwindSafe(|| spilled_run(&csr, &weights, exhausted)))
        .expect("an exhausted retry budget must never panic")
        .expect_err("a certain spill fault with no retries must fail");
    assert!(err.contains("spill I/O failure"), "{err}");
    std::fs::remove_file(path).ok();
}

/// The named fault plans — crash-restarts, stragglers, and both at once
/// — on both executors. Each plan must inject at least one fault (a
/// plan that never fires tests nothing), every plan with crashes must
/// replay a round from its checkpoint, and every run must land on gated
/// outputs bit-identical to the fault-free run. Under
/// `CHAOS_MUTATE=skip-replay` the restore skips the replay, and this
/// test MUST fail (CI asserts it does); the failure lists every
/// (plan, executor) pair that diverged.
#[test]
fn crash_replay_restores_from_checkpoints() {
    // (plan, crash rate, straggler rate)
    let plans = [
        ("crashes", 0.08, 0.0),
        ("stragglers", 0.0, 0.30),
        ("mixed", 0.05, 0.20),
    ];
    let wg = instance(160, 3);
    let baselines: Vec<ExecutorOutcome> = executors(11, FaultConfig::none())
        .iter()
        .map(|(_, exec)| exec.try_run(&wg).expect("fault-free baseline never errs"))
        .collect();
    let mut failures = Vec::new();
    for (plan, crash_rate, straggler_rate) in plans {
        let faults = FaultConfig {
            seed: 0xc4a05 ^ 0xc4a5,
            crash_rate,
            straggler_rate,
            ..FaultConfig::none()
        };
        for (baseline, (name, exec)) in baselines.iter().zip(executors(11, faults)) {
            let failure = match catch_unwind(AssertUnwindSafe(|| exec.try_run(&wg))) {
                Err(_) => Some("panicked; fault recovery must never panic".to_string()),
                Ok(Err(e)) => Some(format!("a recoverable plan erred: {e}")),
                Ok(Ok(out)) if out.trace.faults.injected == 0 => {
                    Some("the plan injected nothing; dead test".to_string())
                }
                Ok(Ok(out)) if crash_rate > 0.0 && out.trace.faults.replayed_rounds == 0 => {
                    Some("recovery never replayed a round; checkpoints untested".to_string())
                }
                Ok(Ok(out)) => gated_mismatch(baseline, &out).map(str::to_string),
            };
            if let Some(why) = failure {
                failures.push(format!("{plan}/{name}: {why}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
