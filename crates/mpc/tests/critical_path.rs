//! The per-machine round rows and the critical-path statistic on real
//! clusters: schedules of barrier rounds with skewed, balanced, empty and
//! random traffic, checked against hand-computed makespans and against an
//! oracle that recomputes every machine's row — cost, stall, traffic and
//! spill — from the sender plans alone.

use mpc_sim::{Cluster, ExecutionTrace, MachineRound, MpcConfig, Words};
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
/// audited cluster, one round per schedule row, and returns the trace.
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
    cluster.finish().1
}

/// The rows recomputed from the plans alone. Every payload is one word,
/// so a machine sends and receives as many words as messages, and it
/// spills nothing. Its cost is `1 + words received last round + words
/// sent this round`, and its stall is the round's largest cost minus its
/// own.
fn oracle(m: usize, rounds: &[Vec<SenderPlan>]) -> Vec<Vec<MachineRound>> {
    let mut prev_recv = vec![0u64; m];
    rounds
        .iter()
        .map(|plans| {
            let pairs = build_pairs(m, plans);
            let mut recv = vec![0u64; m];
            for &(to, _) in pairs.iter().flatten() {
                recv[to] += 1;
            }
            let mut row: Vec<MachineRound> = pairs
                .iter()
                .enumerate()
                .map(|(i, mine)| {
                    let sent = mine.len() as u64;
                    MachineRound {
                        cost: 1 + prev_recv[i] + sent,
                        stall_words: 0,
                        sent_words: sent,
                        received_words: recv[i],
                        received_msgs: recv[i],
                        spill_words: 0,
                    }
                })
                .collect();
            prev_recv = recv;
            let round_max = row.iter().map(|mr| mr.cost).max().unwrap_or(0);
            for mr in &mut row {
                mr.stall_words = round_max - mr.cost;
            }
            row
        })
        .collect()
}

/// Each machine's cost summed over the run: its own makespan.
fn machine_totals(rows: &[Vec<MachineRound>], m: usize) -> Vec<u64> {
    (0..m)
        .map(|i| rows.iter().map(|row| row[i].cost).sum())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random schedule shapes — skewed senders, silent machines, empty
    /// rounds, tight caps that record violations — produce exactly the
    /// oracle's rows, all six fields of each, and the scalars and the
    /// straggler follow from them.
    #[test]
    fn barrier_statistic_matches_the_oracle_on_random_schedules(
        m in 1usize..8,
        tight_cap in 0usize..2,
        cap_small in 8usize..64,
        rounds in proptest::collection::vec(
            proptest::collection::vec((0usize..200, 0usize..=100, 0usize..16), 1..6),
            1..5
        ),
    ) {
        let cap = if tight_cap == 1 { cap_small } else { usize::MAX / 4 };
        let cp = run_schedule(m, cap, &rounds).critical_path;
        let rows = oracle(m, &rounds);
        prop_assert_eq!(&cp.machine_rounds, &rows);
        let makespan: u64 = rows
            .iter()
            .map(|row| row.iter().map(|mr| mr.cost).max().unwrap_or(0))
            .sum();
        prop_assert_eq!(cp.barrier_makespan, makespan);
        let stall: u64 = rows.iter().flatten().map(|mr| mr.stall_words).sum();
        prop_assert_eq!(cp.barrier_stall, stall);
        let stalls: Vec<u64> = (0..m)
            .map(|i| rows.iter().map(|row| row[i].stall_words).sum())
            .collect();
        let least = stalls.iter().copied().min().unwrap_or(0);
        let first = stalls.iter().position(|&s| s == least);
        prop_assert_eq!(cp.straggler(), first.map(|i| (i, least)));
    }
}

/// A hand-built skewed schedule: machine 1's round-A receive and machine
/// 2's round-B send each make one round slow, and everyone else waits at
/// the barrier.
#[test]
fn skewed_schedule_stalls_at_the_barrier() {
    let rounds: Vec<Vec<SenderPlan>> = vec![
        // Round A: 0→1 carries 100 words, 3→2 carries 1.
        vec![(100, 100, 1), (0, 0, 0), (0, 0, 0), (1, 100, 2)],
        // Round B: 2→3 carries 100.
        vec![(0, 0, 0), (0, 0, 0), (100, 100, 3), (0, 0, 0)],
    ];
    let cp = run_schedule(4, usize::MAX / 4, &rounds).critical_path;
    // Round A costs [101, 1, 1, 2]; round B [1, 101, 102, 1].
    assert_eq!(cp.barrier_makespan, 203);
    assert_eq!(cp.barrier_stall, 502);
    assert_eq!(cp.straggler(), Some((2, 100)));
    assert_eq!(cp.machine_rounds, oracle(4, &rounds));
}

/// Perfectly balanced all-to-all traffic: every machine costs the same
/// every round, so every machine's makespan equals the barrier's and the
/// barrier never stalls.
#[test]
fn balanced_schedule_has_equal_makespans() {
    let rounds: Vec<Vec<SenderPlan>> = vec![vec![(40, 0, 0)]; 3];
    let cp = run_schedule(4, usize::MAX / 4, &rounds).critical_path;
    assert_eq!(cp.barrier_makespan, 41 + 81 + 81);
    assert_eq!(
        machine_totals(&cp.machine_rounds, 4),
        vec![cp.barrier_makespan; 4]
    );
    assert_eq!(cp.barrier_stall, 0);
}

/// Rounds in which no machine sends anything cost exactly the unit base,
/// on every machine alike.
#[test]
fn empty_rounds_agree() {
    let rounds: Vec<Vec<SenderPlan>> = vec![vec![(0, 0, 0)]; 3];
    let trace = run_schedule(5, usize::MAX / 4, &rounds);
    assert_eq!(trace.rounds.len(), 3);
    let cp = trace.critical_path;
    assert_eq!(cp.barrier_makespan, 3);
    assert_eq!(cp.barrier_stall, 0);
    let unit = MachineRound {
        cost: 1,
        ..MachineRound::default()
    };
    assert_eq!(cp.machine_rounds, vec![vec![unit; 5]; 3]);
}
