//! Properties of the dependency-pipelined round scheduler:
//!
//! 1. **Mode equivalence** — random segment shapes (skewed senders, empty
//!    rounds, sizes straddling the parallel-shuffle cutover) produce
//!    bit-identical machine states, pending inboxes, and execution traces
//!    (round stats, violations, critical path) under the barrier and
//!    pipelined schedulers.
//! 2. **Fabric-level oracle** — the sequential pipelined routing step
//!    ([`pipelined_route_step`]) hands every region out exactly once, in
//!    canonical order, with exactly the reference shuffle's word totals
//!    and violations.
//! 3. **Buffer identity** — once warmed up, steady-state segments through
//!    the full pipelined `Cluster` reuse the same inbox buffer and region
//!    layout. The counting-allocator pin of the pipelined step lives in
//!    `alloc_pins.rs`, which runs it serially.

use mpc_sim::pipeline::pipelined_route_step;
use mpc_sim::router::{reference_shuffle, stage_outboxes, PARALLEL_SHUFFLE_MIN_MSGS};
use mpc_sim::{
    Cluster, ExecutionTrace, FlatInboxes, Inbox, MachineCtx, MpcConfig, ReadinessBoard,
    RoundScheduler, RouteScratch, SegmentRound, Violation, ViolationKind, Words,
};
use proptest::prelude::*;

mod common;
use common::{build_pairs, SenderPlan};

/// Computes the violations the reference word totals imply under `cap`.
fn reference_violations(
    round: usize,
    cap: usize,
    sent: &[usize],
    received: &[usize],
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (machine, &w) in sent.iter().enumerate() {
        if w > cap {
            out.push(Violation {
                round,
                machine,
                kind: ViolationKind::SentExceedsMemory,
                words: w,
                cap,
            });
        }
        let r = received[machine];
        if r > cap {
            out.push(Violation {
                round,
                machine,
                kind: ViolationKind::ReceivedExceedsMemory,
                words: r,
                cap,
            });
        }
    }
    out
}

// -- Mode equivalence (full cluster) --------------------------------------

/// Machine state for the equivalence tests: an order-sensitive digest of
/// every received payload, so any reordering or loss shows up.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Digest(u64);

impl Words for Digest {
    fn words(&self) -> usize {
        1
    }
}

/// Runs `rounds` (one plan list per round, cycled over machines) as a
/// single segment under `scheduler`, returning the final state digests,
/// each machine's pending last-round inbox, and the trace.
fn run_schedule(
    scheduler: RoundScheduler,
    m: usize,
    cap: usize,
    rounds: &[Vec<SenderPlan>],
) -> (Vec<u64>, Vec<Vec<u64>>, ExecutionTrace) {
    let config = MpcConfig::new(m, cap).audited().with_scheduler(scheduler);
    let mut cluster: Cluster<Digest, u64> = Cluster::new(config, |_| Digest(0));
    let mut seg: Vec<SegmentRound<Digest, u64>> = Vec::new();
    for plans in rounds {
        let plans = plans.clone();
        seg.push(SegmentRound::new(
            "prop",
            move |ctx: &mut MachineCtx<u64>, st: &mut Digest, inbox: Inbox<'_, u64>| {
                for msg in inbox {
                    st.0 = st.0.wrapping_mul(0x0100_0000_01b3).wrapping_add(msg);
                }
                let m = ctx.num_machines();
                let (count, hot_pct, hot) = plans[ctx.id % plans.len()];
                ctx.reserve_sends(count);
                for k in 0..count {
                    let to = if k % 100 < hot_pct {
                        hot % m
                    } else {
                        (ctx.id + k * 13 + 1) % m
                    };
                    ctx.send(to, ((ctx.id as u64) << 32) | k as u64);
                }
            },
        ));
    }
    cluster.run_segment(seg);
    let pending: Vec<Vec<u64>> = (0..m).map(|i| cluster.pending(i).to_vec()).collect();
    let (states, trace) = cluster.finish();
    (states.into_iter().map(|s| s.0).collect(), pending, trace)
}

/// Asserts barrier and pipelined execution of `rounds` agree on every
/// observable — states, pending inboxes, and the full trace (round
/// stats, violations, critical path) — and returns the shared trace.
fn assert_modes_agree(m: usize, cap: usize, rounds: &[Vec<SenderPlan>]) -> ExecutionTrace {
    let (s_b, p_b, t_b) = run_schedule(RoundScheduler::Barrier, m, cap, rounds);
    let (s_p, p_p, t_p) = run_schedule(RoundScheduler::Pipelined, m, cap, rounds);
    assert_eq!(s_b, s_p, "machine states diverged across schedulers");
    assert_eq!(p_b, p_p, "pending inboxes diverged across schedulers");
    assert_eq!(t_b, t_p, "traces diverged across schedulers");
    assert!(
        t_p.critical_path.pipelined_makespan <= t_p.critical_path.barrier_makespan,
        "pipelined makespan exceeds barrier: {:?}",
        t_p.critical_path
    );
    t_p
}

// -- Fabric-level oracle (sequential pipelined step) -----------------------

/// Drives one `pipelined_route_step` and checks the exactly-once region
/// handoff, canonical inbox order, word totals, and violations against
/// the naive reference shuffle.
fn assert_step_matches_reference(m: usize, cap: usize, pairs: Vec<Vec<(usize, u64)>>) {
    let config = MpcConfig::new(m, cap).audited().pipelined();
    let mut outboxes = stage_outboxes(m, pairs.clone());
    let mut inboxes = FlatInboxes::new(m);
    let mut scratch = RouteScratch::new();
    let mut board = ReadinessBoard::new(m);
    let mut got: Vec<Option<Vec<u64>>> = vec![None; m];
    pipelined_route_step(
        &config,
        3,
        &mut outboxes,
        &mut inboxes,
        &mut scratch,
        &mut board,
        |region, inbox| {
            assert!(got[region].is_none(), "region {region} handed out twice");
            got[region] = Some(inbox.collect());
        },
    );

    let (ref_inboxes, ref_sent, ref_received) = reference_shuffle(m, pairs);
    for (i, expect) in ref_inboxes.iter().enumerate() {
        let region = got[i]
            .take()
            .unwrap_or_else(|| panic!("region {i} never handed out (board readiness never fired)"));
        assert_eq!(&region, expect, "region {i} order diverged");
    }
    assert_eq!(&scratch.sent_words, &ref_sent);
    assert_eq!(&scratch.received_words, &ref_received);
    assert_eq!(
        &scratch.violations,
        &reference_violations(3, cap, &ref_sent, &ref_received)
    );
    // Outboxes came back empty (drained, ready for reuse).
    for ob in &outboxes {
        assert!(ob.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random segment shapes — skewed senders, silent machines, empty
    /// rounds — behave identically under both schedulers, including the
    /// recorded cap violations on the tight-cap cases.
    #[test]
    fn schedulers_agree_on_random_segments(
        m in 1usize..8,
        tight_cap in 0usize..2,
        cap_small in 8usize..64,
        rounds in proptest::collection::vec(
            proptest::collection::vec((0usize..200, 0usize..=100, 0usize..16), 1..6),
            1..5
        ),
    ) {
        let cap = if tight_cap == 1 { cap_small } else { usize::MAX / 4 };
        assert_modes_agree(m, cap, &rounds);
    }

    /// Round sizes straddling `PARALLEL_SHUFFLE_MIN_MSGS` (where the
    /// barrier path's shuffle switches between its sequential and
    /// parallel stages) stay bit-identical across schedulers.
    #[test]
    fn cutover_straddling_rounds_agree(
        delta in -3i64..=3,
        hot_pct in 0usize..=100,
        num_rounds in 1usize..4,
    ) {
        let m = 6;
        let total = (PARALLEL_SHUFFLE_MIN_MSGS as i64 + delta) as usize;
        let per = total / m;
        let rem = total - per * (m - 1);
        let plans: Vec<SenderPlan> = (0..m)
            .map(|i| (if i == 0 { rem } else { per }, hot_pct, i * 3))
            .collect();
        let rounds: Vec<Vec<SenderPlan>> = (0..num_rounds).map(|_| plans.clone()).collect();
        assert_modes_agree(m, usize::MAX / 4, &rounds);
    }

    /// Random outbox shapes through the bare sequential pipelined step
    /// match the reference shuffle exactly — the pipelined analogue of
    /// `fabric_matches_reference`.
    #[test]
    fn pipelined_step_matches_reference(
        m in 1usize..10,
        tight_cap in 0usize..2,
        cap_small in 8usize..64,
        plans in proptest::collection::vec(
            (0usize..300, 0usize..=100, 0usize..16),
            1..8
        ),
    ) {
        let cap = if tight_cap == 1 { cap_small } else { usize::MAX / 4 };
        assert_step_matches_reference(m, cap, build_pairs(m, &plans));
    }
}

/// A hand-built skewed schedule (the `CpTracker` unit tests' shape, run
/// through real clusters): machine 2's expensive round-B work depends
/// only on a cheap round-A edge, so the pipeline overlaps it with
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
    let trace = assert_modes_agree(4, usize::MAX / 4, &rounds);
    let cp = trace.critical_path;
    assert_eq!(cp.barrier_makespan, 203);
    assert_eq!(cp.pipelined_makespan, 202);
    assert!(cp.barrier_stall > 0);
}

/// Perfectly balanced all-to-all traffic: the pipeline has nothing to
/// overlap, so both makespans coincide and the barrier never stalls.
#[test]
fn balanced_schedule_has_equal_makespans() {
    let rounds: Vec<Vec<SenderPlan>> = vec![vec![(40, 0, 0)]; 3];
    let trace = assert_modes_agree(4, usize::MAX / 4, &rounds);
    let cp = trace.critical_path;
    assert_eq!(cp.pipelined_makespan, cp.barrier_makespan);
    assert_eq!(cp.barrier_stall, 0);
}

/// Rounds in which no machine sends anything still run through both
/// engines in lockstep (every readiness token fires with zero expected
/// messages) and cost exactly the unit base.
#[test]
fn empty_rounds_agree() {
    let rounds: Vec<Vec<SenderPlan>> = vec![vec![(0, 0, 0)]; 3];
    let trace = assert_modes_agree(5, usize::MAX / 4, &rounds);
    assert_eq!(trace.rounds.len(), 3);
    let cp = trace.critical_path;
    assert_eq!(cp.barrier_makespan, 3);
    assert_eq!(cp.pipelined_makespan, 3);
    assert_eq!(cp.barrier_stall, 0);
}

// -- Buffer identity -------------------------------------------------------

/// Through the full pipelined `Cluster`, the shared inbox buffer and the
/// delivered regions sit at identical addresses across >= 3 steady-state
/// segments — buffer identity, the allocation discipline observable from
/// safe code, for the parallel pipelined engine.
#[test]
fn pipelined_cluster_reuses_buffers_across_segments() {
    let m = 5;
    let config = MpcConfig::new(m, 1 << 20).pipelined();
    let mut cluster: Cluster<Digest, u64> = Cluster::new(config, |_| Digest(0));
    let run_segment = |c: &mut Cluster<Digest, u64>| {
        let mut seg: Vec<SegmentRound<Digest, u64>> = Vec::new();
        for _ in 0..3 {
            seg.push(SegmentRound::new(
                "steady",
                |ctx: &mut MachineCtx<u64>, st: &mut Digest, inbox: Inbox<'_, u64>| {
                    for msg in inbox {
                        st.0 = st.0.wrapping_add(msg);
                    }
                    // The same message pattern every round: a burst to the
                    // next machine, one to the coordinator, one self-send.
                    let next = (ctx.id + 1) % ctx.num_machines();
                    ctx.reserve_sends(34);
                    for k in 0..32u64 {
                        ctx.send(next, k);
                    }
                    ctx.send(0, ctx.id as u64);
                    ctx.send(ctx.id, 99);
                },
            ));
        }
        c.run_segment(seg);
    };
    // Warm-up.
    run_segment(&mut cluster);
    run_segment(&mut cluster);
    let buf = cluster.inbox_buffer_ptr();
    let pending0 = cluster.pending(0).as_ptr();
    for _ in 0..3 {
        run_segment(&mut cluster);
        assert_eq!(
            cluster.inbox_buffer_ptr(),
            buf,
            "inbox buffer reused across pipelined segments"
        );
        assert_eq!(
            cluster.pending(0).as_ptr(),
            pending0,
            "identical rounds produce identical region layout"
        );
    }
    // Machine 0's pending inbox: the burst from machine m-1, one
    // coordinator message per machine, and its own self-send.
    assert_eq!(cluster.pending(0).len(), 32 + m + 1);
}
