//! `mwvc-core` — the primary contribution of Ghaffari–Jin–Nilis
//! (SPAA 2020): a `(2+ε)`-approximation algorithm for minimum weight
//! vertex cover running in `O(log log d)` rounds of the near-linear-memory
//! MPC model.
//!
//! # Quickstart
//!
//! ```
//! use mwvc_core::{solve_mpc, MpcMwvcConfig};
//! use mwvc_graph::{generators::gnm, WeightedGraph, WeightModel};
//!
//! let graph = gnm(1_000, 16_000, 7);
//! let weights = WeightModel::Uniform { lo: 1.0, hi: 10.0 }.sample(&graph, 7);
//! let instance = WeightedGraph::new(graph, weights);
//!
//! let result = solve_mpc(&instance, &MpcMwvcConfig::practical(0.1, 42));
//! result.cover.verify(&instance.graph).unwrap();
//! let eidx = mwvc_graph::EdgeIndex::build(&instance.graph);
//! let ratio = result
//!     .certificate
//!     .certified_ratio(&instance, &eidx, result.cover.weight(&instance));
//! assert!(ratio <= 2.0 + 30.0 * 0.1);
//! ```
//!
//! # Layout
//!
//! * [`centralized`] — Algorithm 1, the generic primal-dual loop
//!   (Section 3.1), with pluggable [`init::InitScheme`] and
//!   [`thresholds::ThresholdScheme`].
//! * [`mpc`] — Algorithm 2, the round-compressed MPC simulation
//!   (Section 3.3), as both an in-memory reference executor and a
//!   message-passing executor on the [`mpc_sim`] cluster.
//! * [`cover`] / [`certificate`] — outputs: verified covers and dual
//!   (fractional matching) certificates giving instance-specific
//!   approximation guarantees via weak LP duality (Lemma 3.2).

#![warn(missing_docs)]

pub mod centralized;
pub mod certificate;
pub mod cover;
pub mod init;
pub mod mpc;
pub mod thresholds;

pub use centralized::{run_centralized, CentralizedParams, CentralizedResult};
pub use certificate::DualCertificate;
pub use cover::VertexCover;
pub use init::InitScheme;
pub use mpc::{MpcMwvcConfig, MpcRunResult};
pub use thresholds::ThresholdScheme;

use mwvc_graph::WeightedGraph;

/// Solves MWVC with the centralized Algorithm 1 under the paper's
/// recommended (degree-weighted) initialization and random thresholds.
pub fn solve_centralized(instance: &WeightedGraph, epsilon: f64, seed: u64) -> CentralizedResult {
    run_centralized(
        instance,
        CentralizedParams::new(epsilon),
        InitScheme::DegreeWeighted,
        ThresholdScheme::UniformRandom,
        seed,
    )
}

/// Solves MWVC with Algorithm 2 (reference executor).
pub fn solve_mpc(instance: &WeightedGraph, config: &MpcMwvcConfig) -> MpcRunResult {
    mpc::run_reference(instance, config)
}
