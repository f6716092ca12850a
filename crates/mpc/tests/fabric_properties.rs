//! Properties of the zero-allocation message fabric:
//!
//! 1. **Oracle equivalence** — random outbox shapes (empty senders,
//!    self-sends, hot destinations, sizes straddling the parallel
//!    cutover) routed through the flat fabric, on both shuffle paths,
//!    produce exactly the inbox order, word counts, and violations of the
//!    retained naive reference shuffle.
//! 2. **Buffer identity** — once warmed up, steady-state rounds through
//!    the full `Cluster` reuse the same inbox buffer and region layout.
//!    The counting-allocator pins of the same discipline live in
//!    `alloc_pins.rs`, which runs them serially.

use mpc_sim::router::{
    reference_shuffle, route_forced, stage_outboxes, FlatInboxes, RouteScratch,
    PARALLEL_SHUFFLE_MIN_MSGS,
};
use mpc_sim::{Cluster, MpcConfig, Violation, ViolationKind, Words};
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

/// Routes pairs through the flat fabric on the given path and compares
/// everything against the naive reference.
fn assert_matches_reference(
    m: usize,
    cap: usize,
    pairs: Vec<Vec<(usize, u64)>>,
    parallel: bool,
) -> Result<(), TestCaseError> {
    let config = MpcConfig::new(m, cap).audited();
    let mut outboxes = stage_outboxes(m, pairs.clone());
    let mut inboxes = FlatInboxes::new(m);
    let mut scratch = RouteScratch::new();
    route_forced(
        &config,
        3,
        &mut outboxes,
        &mut inboxes,
        &mut scratch,
        parallel,
    );

    let (ref_inboxes, ref_sent, ref_received) = reference_shuffle(m, pairs);
    for (i, expect) in ref_inboxes.iter().enumerate() {
        prop_assert_eq!(
            inboxes.slice(i),
            expect.as_slice(),
            "inbox {} order diverged (parallel = {})",
            i,
            parallel
        );
    }
    prop_assert_eq!(&scratch.sent_words, &ref_sent);
    prop_assert_eq!(&scratch.received_words, &ref_received);
    let expect = reference_violations(3, cap, &ref_sent, &ref_received);
    prop_assert_eq!(&scratch.violations, &expect);
    // Outboxes came back empty (drained, ready for reuse).
    for ob in &outboxes {
        prop_assert!(ob.is_empty());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fabric shapes — empty senders, self-sends, hot
    /// destinations — match the reference on both shuffle paths.
    #[test]
    fn fabric_matches_reference(
        m in 1usize..10,
        tight_cap in 0usize..2,
        cap_small in 8usize..64,
        plans in proptest::collection::vec(
            (0usize..300, 0usize..=100, 0usize..16),
            1..8
        ),
        par_bit in 0usize..2,
    ) {
        let cap = if tight_cap == 1 { cap_small } else { usize::MAX / 4 };
        let pairs = build_pairs(m, &plans);
        assert_matches_reference(m, cap, pairs, par_bit == 1)?;
    }

    /// Shapes straddling `PARALLEL_SHUFFLE_MIN_MSGS` (the auto-cutover
    /// boundary) match the reference on both paths.
    #[test]
    fn cutover_boundary_matches_reference(
        delta in -3i64..=3,
        hot_pct in 0usize..=100,
        par_bit in 0usize..2,
    ) {
        let parallel = par_bit == 1;
        let m = 6;
        let total = (PARALLEL_SHUFFLE_MIN_MSGS as i64 + delta) as usize;
        let per = total / m;
        let rem = total - per * (m - 1);
        let plans: Vec<SenderPlan> = (0..m)
            .map(|i| (if i == 0 { rem } else { per }, hot_pct, i * 3))
            .collect();
        let mut pairs = build_pairs(m, &plans);
        // `build_pairs` cycles plans by sender index; with plans.len() == m
        // each sender gets its own plan. Sanity-check the total.
        let n: usize = pairs.iter().map(Vec::len).sum();
        prop_assert_eq!(n, total);
        // Make one sender empty to cover the empty-outbox edge.
        pairs[m - 1].clear();
        assert_matches_reference(m, usize::MAX / 4, pairs, parallel)?;
    }
}

/// Through the full `Cluster`, the shared inbox buffer and the delivered
/// slices sit at identical addresses across >= 3 steady-state rounds —
/// buffer identity, the allocation discipline observable from safe code.
#[test]
fn cluster_reuses_buffers_across_rounds() {
    struct Nil;
    impl Words for Nil {
        fn words(&self) -> usize {
            0
        }
    }

    let m = 5;
    let mut cluster: Cluster<Nil, u64> = Cluster::new(MpcConfig::new(m, 1 << 20), |_| Nil);
    let round = |c: &mut Cluster<Nil, u64>| {
        c.round("steady", |ctx, _s, inbox| {
            for msg in inbox {
                std::hint::black_box(msg);
            }
            // The same message pattern every round: a burst to the next
            // machine, one to the coordinator, one self-send.
            let next = (ctx.id + 1) % ctx.num_machines();
            ctx.reserve_sends(34);
            for k in 0..32u64 {
                ctx.send(next, k);
            }
            ctx.send(0, ctx.id as u64);
            ctx.send(ctx.id, 99);
        });
    };
    // Warm-up.
    round(&mut cluster);
    round(&mut cluster);
    let buf = cluster.inbox_buffer_ptr();
    let pending0 = cluster.pending(0).as_ptr();
    for _ in 0..3 {
        round(&mut cluster);
        assert_eq!(cluster.inbox_buffer_ptr(), buf, "inbox buffer reused");
        assert_eq!(
            cluster.pending(0).as_ptr(),
            pending0,
            "identical rounds produce identical region layout"
        );
    }
    // Machine 0 receives the burst from machine m-1, one coordinator
    // message per machine, and its own self-send.
    assert_eq!(cluster.pending(0).len(), 32 + m + 1);
}
