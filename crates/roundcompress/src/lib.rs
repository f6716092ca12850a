//! `mwvc-roundcompress` — the first *alternative algorithm* in the tree:
//! an Assadi-style round-compressed MWVC executor (after *Simple Round
//! Compression for Parallel Vertex Cover*, arXiv:1709.04599), built
//! against the same [`mpc_sim`] router/accounting/rng primitives as the
//! Ghaffari–Jin–Nilis executor in `mwvc-core` and exposed behind the
//! shared [`mwvc_core::mpc::Executor`] trait so the benchmark harness can
//! compare the two head to head (`experiments compress`).
//!
//! # The algorithm
//!
//! Sample-and-conquer residual recursion. Each compression *level*:
//!
//! 1. the coordinator picks a part count `m ≈ √(2E/B)` so that the
//!    expected induced subgraph of one random vertex part (`E/m²` edges)
//!    fits a single machine's budget `B`,
//! 2. every nonfrozen vertex is assigned a part by a shared pure function
//!    of `(seed, level, vertex)` — no communication needed to agree,
//! 3. each part machine receives its induced residual subgraph (vertices
//!    with residual weights, part-internal active edges) and solves it
//!    *completely* with Algorithm 1 of the source paper, through the
//!    `mwvc_core` entry point that also solves the distributed executor's
//!    final residual. Local computation is free in the MPC model,
//! 4. locally tight vertices freeze (join the cover), every part-internal
//!    edge is finalized with its local dual value, every surviving
//!    vertex's residual weight drops by its local incident dual sum, and
//!    cross-part edges touching a frozen vertex finalize at dual zero,
//! 5. the residual graph — cross-part edges between survivors — recurses;
//!    once it fits one machine, a final centralized solve finishes it.
//!
//! Because each level's dual raises are confined to disjoint induced
//! subgraphs and bounded by *residual* weights, the concatenation of all
//! levels' duals is an exactly feasible fractional matching, and every
//! cover vertex froze with incident dual at least `(1-4ε)` times its
//! original weight (threshold freezing, telescoped over levels). That
//! certifies `w(C) ≤ 2/(1-4ε) · Σx ≤ (2+O(ε)) · OPT` — checked
//! a-posteriori by the emitted [`mwvc_core::DualCertificate`] on every
//! run, with no trust required.
//!
//! Everything is deterministic given the config seed: partitions and
//! thresholds are counter-based, the dataflow is routed by the
//! deterministic `mpc_sim` router, and results are bit-identical at every
//! host pool width.

pub mod config;
pub mod executor;

pub use config::{level_seed, parts_for, RoundCompressConfig};
pub use executor::{
    recommended_cluster, round_cost, run_roundcompress, try_run_roundcompress, LevelStats,
    RoundCompressExecutor, RoundCompressOutcome,
};
