//! Chaos properties: randomly drawn deterministic fault plans driven
//! through **both** flagship executors (distributed, roundcompress) on
//! pools of 1, 2, and 5 threads.
//!
//! The contract under test is the recovery half of the determinism
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
//! [`spill_retry_recovers_transient_errors`] must fail; with
//! `CHAOS_MUTATE=skip-replay` a crashed machine is restored from its
//! checkpoint but its round is not replayed, and
//! [`crash_replay_restores_from_checkpoints`] must fail.
//! CI runs the suite under both mutations and requires a non-zero exit —
//! proving these assertions can actually see a broken recovery engine.
//! The proptest sweeps skip themselves under a mutation (the dedicated
//! gates carry the failure) so shrink loops never chew CI time.

use mwvc_repro::core::mpc::{DistributedExecutor, Executor, ExecutorOutcome, MpcMwvcConfig};
use mwvc_repro::graph::generators::gnm;
use mwvc_repro::graph::{WeightModel, WeightedGraph};
use mwvc_repro::roundcompress::{RoundCompressConfig, RoundCompressExecutor};
use mwvc_repro::sim::{Cluster, ClusterError, FaultConfig, MachineCtx, MpcConfig, Words};
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

/// Per-machine spill probe state (the flagship executors never spill at
/// these sizes, so the retry path gets its own cluster drive).
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

fn spill_probe(faults: FaultConfig) -> Result<Vec<SpillProbe>, ClusterError> {
    let cfg = MpcConfig::new(4, 10_000).with_faults(faults);
    let mut c: Cluster<SpillProbe, u64> = Cluster::new(cfg, |_| SpillProbe::default());
    c.try_round(
        "spill-write",
        |ctx: &mut MachineCtx<u64>, _state, _inbox| {
            let base = (ctx.id as u64) << 32;
            let batch: Vec<u64> = (0..SPILL_BATCH as u64)
                .map(|k| base | k.wrapping_mul(0x9e37_79b9))
                .collect();
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
    Ok(c.states().to_vec())
}

/// Transient spill-I/O faults are absorbed by the bounded retry loop:
/// the faulted read-back matches the fault-free one bit for bit. Under
/// `CHAOS_MUTATE=skip-retry` the loop gives up on the first injected
/// error and this test MUST fail (CI asserts it does).
#[test]
fn spill_retry_recovers_transient_errors() {
    let clean = spill_probe(FaultConfig::none()).expect("fault-free probe");
    let faults = FaultConfig {
        seed: 0xc4a05,
        spill_io_rate: 0.30,
        ..FaultConfig::none()
    };
    let faulted = catch_unwind(AssertUnwindSafe(|| spill_probe(faults)))
        .expect("the spill retry path must never panic")
        .expect("transient spill errors within the retry budget must recover");
    assert_eq!(
        faulted, clean,
        "spill read-back diverged from the fault-free run"
    );
}

/// Crash-restarts replay their round from the checkpoint taken before it
/// and land on gated outputs bit-identical to the fault-free run. Under
/// `CHAOS_MUTATE=skip-replay` the restore skips the replay and this test
/// MUST fail (CI asserts it does).
#[test]
fn crash_replay_restores_from_checkpoints() {
    let wg = instance(160, 3);
    let faults = FaultConfig {
        seed: 0xc4a05 ^ 0xc4a5,
        crash_rate: 0.12,
        ..FaultConfig::none()
    };
    let baseline = DistributedExecutor::new(MpcMwvcConfig::practical(EPS, 11))
        .try_run(&wg)
        .expect("fault-free baseline never errs");
    let exec = DistributedExecutor::new(MpcMwvcConfig::practical(EPS, 11).with_faults(faults));
    let out = catch_unwind(AssertUnwindSafe(|| exec.try_run(&wg)))
        .expect("crash replay must never panic")
        .expect("crashes within the replay budget must recover");
    assert!(
        out.trace.faults.injected > 0,
        "the crash plan injected nothing; dead test"
    );
    assert!(
        out.trace.faults.replayed_rounds > 0,
        "recovery never replayed a round; checkpoints untested"
    );
    if let Some(why) = gated_mismatch(&baseline, &out) {
        panic!("{why} after crash replay");
    }
}
