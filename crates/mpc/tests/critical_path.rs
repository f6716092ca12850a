//! The critical-path statistic on real clusters: schedules of barrier
//! rounds with skewed, balanced, empty and random traffic, checked
//! against the cost model's hand-computed makespans and its invariant
//! `pipelined_makespan <= barrier_makespan`. The pipelined makespan is a
//! model-domain what-if; every round here runs on the barrier engine.

use mpc_sim::{Cluster, ExecutionTrace, MpcConfig, Words};
use proptest::prelude::*;

mod common;
use common::{build_pairs, SenderPlan};

/// Machine state: an order-sensitive digest of every received payload.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Digest(u64);

impl Words for Digest {
    fn words(&self) -> usize {
        1
    }
}

/// Runs `rounds` (one plan list per round, cycled over machines) on an
/// audited cluster, one round per schedule row, and returns the trace,
/// after checking that the pipelined makespan never exceeds the barrier
/// one.
fn run_schedule(m: usize, cap: usize, rounds: &[Vec<SenderPlan>]) -> ExecutionTrace {
    let config = MpcConfig::new(m, cap).audited();
    let mut cluster: Cluster<Digest, u64> = Cluster::new(config, |_| Digest(0));
    for plans in rounds {
        let pairs = build_pairs(m, plans);
        cluster.round("prop", |ctx, st, inbox| {
            for msg in inbox {
                st.0 = st.0.wrapping_mul(0x0100_0000_01b3).wrapping_add(msg);
            }
            let mine = &pairs[ctx.id];
            ctx.reserve_sends(mine.len());
            for &(to, msg) in mine {
                ctx.send(to, msg);
            }
        });
    }
    let trace = cluster.finish().1;
    assert!(
        trace.critical_path.pipelined_makespan <= trace.critical_path.barrier_makespan,
        "pipelined makespan exceeds barrier: {:?}",
        trace.critical_path
    );
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random schedule shapes — skewed senders, silent machines, empty
    /// rounds, tight caps that record violations — never put the
    /// pipelined makespan above the barrier one.
    #[test]
    fn pipelined_makespan_never_exceeds_barrier_on_random_segments(
        m in 1usize..8,
        tight_cap in 0usize..2,
        cap_small in 8usize..64,
        rounds in proptest::collection::vec(
            proptest::collection::vec((0usize..200, 0usize..=100, 0usize..16), 1..6),
            1..5
        ),
    ) {
        let cap = if tight_cap == 1 { cap_small } else { usize::MAX / 4 };
        run_schedule(m, cap, &rounds);
    }
}

/// A hand-built skewed schedule (the `CpTracker` unit tests' shape, run
/// through a real cluster): machine 2's expensive round-B work depends
/// only on a cheap round-A edge, so the dependency DAG overlaps it with
/// machine 1's expensive round-A receive — the critical path lands
/// strictly below the barrier's.
#[test]
fn skewed_schedule_pipelines_strictly_below_barrier() {
    let rounds: Vec<Vec<SenderPlan>> = vec![
        // Round A: 0→1 carries 100 words, 3→2 carries 1.
        vec![(100, 100, 1), (0, 0, 0), (0, 0, 0), (1, 100, 2)],
        // Round B: 2→3 carries 100.
        vec![(0, 0, 0), (0, 0, 0), (100, 100, 3), (0, 0, 0)],
    ];
    let cp = run_schedule(4, usize::MAX / 4, &rounds).critical_path;
    assert_eq!(cp.barrier_makespan, 203);
    assert_eq!(cp.pipelined_makespan, 202);
    assert!(cp.barrier_stall > 0);
}

/// Perfectly balanced all-to-all traffic: there is nothing to overlap,
/// so both makespans coincide and the barrier never stalls.
#[test]
fn balanced_schedule_has_equal_makespans() {
    let rounds: Vec<Vec<SenderPlan>> = vec![vec![(40, 0, 0)]; 3];
    let cp = run_schedule(4, usize::MAX / 4, &rounds).critical_path;
    assert_eq!(cp.pipelined_makespan, cp.barrier_makespan);
    assert_eq!(cp.barrier_stall, 0);
}

/// Rounds in which no machine sends anything cost exactly the unit base.
#[test]
fn empty_rounds_agree() {
    let rounds: Vec<Vec<SenderPlan>> = vec![vec![(0, 0, 0)]; 3];
    let trace = run_schedule(5, usize::MAX / 4, &rounds);
    assert_eq!(trace.rounds.len(), 3);
    let cp = trace.critical_path;
    assert_eq!(cp.barrier_makespan, 3);
    assert_eq!(cp.pipelined_makespan, 3);
    assert_eq!(cp.barrier_stall, 0);
}
