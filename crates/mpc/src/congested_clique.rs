//! Translation of MPC executions to the congested clique model.
//!
//! The paper (Section 1.3) notes that by the simulation equivalence of
//! Behnezhad–Derakhshan–Hajiaghayi [BDH18, Theorem 3.2], near-linear-memory
//! MPC ("semi-MapReduce") and congested clique can simulate each other with
//! constant overhead, so the `O(log log d)` MWVC algorithm transfers to
//! congested clique.
//!
//! The mechanical content of that simulation: congested clique has one node
//! per graph vertex, and per round every node may exchange one `O(log n)`-bit
//! message with every other node — i.e. per-node bandwidth `n-1` words per
//! round. Using Lenzen's routing protocol, any communication pattern in
//! which every node sends and receives at most `n` messages is deliverable
//! in `O(1)` rounds; an MPC round whose heaviest machine moves `L` words
//! therefore costs `O(ceil(L / n))` congested clique rounds.

use crate::accounting::ExecutionTrace;

/// Congested-clique cost estimate of an executed MPC trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CliqueCost {
    /// Rounds under the unit-overhead accounting (`ceil(L/n)` per MPC
    /// round, minimum 1): the shape the equivalence theorem guarantees up
    /// to constants.
    pub rounds: usize,
    /// The heaviest single-round per-node load, in multiples of the
    /// per-round clique bandwidth `n`.
    pub max_load_factor: usize,
}

/// Translates an MPC trace into congested-clique rounds for an `n`-node
/// clique.
pub fn simulate_on_clique(trace: &ExecutionTrace, n: usize) -> CliqueCost {
    assert!(n >= 1);
    let mut rounds = 0usize;
    let mut max_load_factor = 0usize;
    for r in &trace.rounds {
        let heaviest = r.max_sent.max(r.max_received);
        let load = heaviest.div_ceil(n).max(1);
        rounds += load;
        max_load_factor = max_load_factor.max(load);
    }
    CliqueCost {
        rounds,
        max_load_factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::RoundStats;

    fn trace_with_loads(loads: &[usize]) -> ExecutionTrace {
        ExecutionTrace {
            rounds: loads
                .iter()
                .map(|&l| RoundStats {
                    label: "r".into(),
                    max_sent: l,
                    max_received: l / 2,
                    max_resident: l,
                    total_traffic: l,
                    spill_words: 0,
                })
                .collect(),
            violations: vec![],
            critical_path: Default::default(),
            faults: Default::default(),
        }
    }

    #[test]
    fn light_rounds_cost_one_each() {
        let t = trace_with_loads(&[10, 20, 30]);
        let c = simulate_on_clique(&t, 100);
        assert_eq!(c.rounds, 3);
        assert_eq!(c.max_load_factor, 1);
    }

    #[test]
    fn heavy_round_costs_ceil_load_over_n() {
        let t = trace_with_loads(&[250]);
        let c = simulate_on_clique(&t, 100);
        assert_eq!(c.rounds, 3);
        assert_eq!(c.max_load_factor, 3);
    }

    #[test]
    fn receive_side_counts_too() {
        let t = ExecutionTrace {
            rounds: vec![RoundStats {
                label: "r".into(),
                max_sent: 1,
                max_received: 500,
                max_resident: 0,
                total_traffic: 500,
                spill_words: 0,
            }],
            violations: vec![],
            critical_path: Default::default(),
            faults: Default::default(),
        };
        assert_eq!(simulate_on_clique(&t, 100).rounds, 5);
    }

    #[test]
    fn empty_trace_costs_nothing() {
        let c = simulate_on_clique(&ExecutionTrace::default(), 10);
        assert_eq!(c.rounds, 0);
    }

    #[test]
    fn near_linear_mpc_is_constant_overhead() {
        // An S = 2n near-linear round translates to <= 2 clique rounds.
        let n = 1000;
        let t = trace_with_loads(&[2 * n]);
        let c = simulate_on_clique(&t, n);
        assert_eq!(c.rounds, 2);
    }
}
