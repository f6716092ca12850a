//! `mpc-sim`: a simulator for the Massively Parallel Computation (MPC)
//! model of Karloff–Suri–Vassilvitskii, as described in Section 1.1 of
//! Ghaffari–Jin–Nilis (SPAA 2020).
//!
//! The model: `M` machines, each with `S` words of memory, `S` polynomially
//! smaller than the input. Computation proceeds in synchronous rounds; in a
//! round every machine runs an arbitrary polynomial-time local computation
//! and then sends messages to any other machines, subject to the single
//! communication constraint of the model — **no machine may send or receive
//! more than `S` words per round**. The costs an MPC algorithm is judged on
//! are the number of rounds and the memory per machine; local computation
//! is free.
//!
//! The simulator makes those costs *observable and enforceable*:
//!
//! * [`MpcConfig`] fixes the machine count and word budget `S` (with
//!   [`MemoryRegime`] helpers for the paper's three regimes),
//! * [`Cluster`] executes rounds: per-machine state, inboxes, and a
//!   round closure run in parallel across host threads (rayon) — the host
//!   parallelism affects only simulator wall-clock, never model costs.
//!   All round buffers (per-machine [`Outbox`] arenas, the CSR
//!   [`FlatInboxes`], router scratch) are owned by the cluster and
//!   recycled, so steady-state rounds allocate nothing,
//! * [`router`] enforces the per-round send/receive caps and the
//!   resident-memory cap, either panicking ([`Enforcement::Strict`]) or
//!   recording [`Violation`]s ([`Enforcement::Audit`]),
//! * [`ExecutionTrace`] records per-round maxima and totals, from which
//!   the experiments' memory/communication tables are generated,
//! * [`congested_clique`] translates a trace into congested-clique round
//!   counts per the Behnezhad–Derakhshan–Hajiaghayi simulation
//!   equivalence the paper invokes for its Corollary.
//!
//! Everything is deterministic given the seeds supplied through
//! [`rng::composite_rng`].

#![deny(unsafe_op_in_unsafe_fn)]

pub mod accounting;
pub mod checkpoint;
pub mod cluster;
pub mod congested_clique;
pub mod events;
pub mod faults;
pub mod model;
pub mod rng;
pub mod router;
pub mod spill;
pub mod words;

pub use accounting::{
    CriticalPath, ExecutionTrace, FaultStats, MachineRound, RoundStats, TraceSummary, Violation,
    ViolationKind,
};
pub use checkpoint::CheckpointStore;
pub use cluster::{Cluster, HostPhase, Inbox, MachineCtx};
pub use events::{EventKind, EventRing, TraceEvent};
pub use faults::{chaos_mutation, ClusterError, FaultConfig, FaultKind, FaultPlan};
pub use model::{Enforcement, MemoryBudget, MemoryRegime, MpcConfig, RoundScheduler};
pub use router::{FlatInboxes, Outbox, RouteScratch};
pub use spill::SpillFile;
pub use words::Words;

/// Hash-partition owner of a key: the machine responsible for aggregating
/// values of `key` in shuffle/aggregate rounds. Stable across the
/// workspace so that every participant can compute it locally.
#[inline]
pub fn owner_of_key(key: u64, num_machines: usize) -> usize {
    debug_assert!(num_machines > 0);
    // splitmix64 finalizer: avalanches low-entropy keys (e.g. vertex ids).
    let mut x = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % num_machines as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_stable_and_in_range() {
        for m in [1usize, 2, 7, 64] {
            for k in 0..1000u64 {
                let o = owner_of_key(k, m);
                assert!(o < m);
                assert_eq!(o, owner_of_key(k, m));
            }
        }
    }

    #[test]
    fn owner_spreads_sequential_keys() {
        let m = 16;
        let mut counts = vec![0usize; m];
        for k in 0..16_000u64 {
            counts[owner_of_key(k, m)] += 1;
        }
        let expected = 1000.0;
        for c in counts {
            assert!(
                (c as f64 - expected).abs() < 5.0 * expected.sqrt(),
                "bucket count {c} far from {expected}"
            );
        }
    }
}
