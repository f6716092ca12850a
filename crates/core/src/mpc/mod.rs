//! Algorithm 2: the MPC simulation for minimum weight vertex cover.
//!
//! Three executors of the same algorithm live here:
//!
//! * [`mod@reference`] — single-address-space execution of the exact phase
//!   schedule (the oracle and the large-scale workhorse),
//! * [`distributed`] — the same algorithm as actual message-passing
//!   dataflow on the [`mpc_sim`] cluster, with every model constraint
//!   (memory words, per-round traffic) enforced and recorded,
//! * [`coupling`] — the reference executor instrumented with the coupled
//!   centralized run of Lemma 4.6, measuring estimate deviations and
//!   bad-vertex rates.
//!
//! [`local_sim`] holds the per-machine simulation shared by all of them;
//! [`config`] holds every constant of the paper as a parameter.
//! [`dataflow`] is the owner/home skeleton both dataflow executors (this
//! crate's [`distributed`] and `mwvc-roundcompress`) run on: the machine
//! layout, the rounds they share and the output assembly; [`ingest`]
//! distributes the input to it.
//!
//! [`executor`] defines the crate-spanning [`Executor`] trait — the
//! contract every end-to-end MWVC algorithm (this one, and alternative
//! algorithms in other crates such as `mwvc-roundcompress`) implements so
//! the benchmark harness can compare them head to head.

pub mod config;
pub mod coupling;
pub mod dataflow;
pub mod distributed;
pub mod executor;
pub mod ingest;
pub mod local_sim;
pub mod outofcore;
pub mod reference;
pub mod stats;

pub use config::{BiasParams, IterationSchedule, MpcMwvcConfig, PhaseSwitch};
pub use coupling::{run_coupled, CouplingReport, IterationDeviation};
pub use distributed::{
    recommended_cluster, run_distributed, try_run_distributed, DistributedOutcome,
};
pub use executor::{
    CoverCertificate, DistributedExecutor, Executor, ExecutorOutcome, ReferenceExecutor,
};
pub use outofcore::{run_outofcore, OocConfig, OocOutcome};
pub use reference::{run_reference, run_reference_observed, PhaseObserver, PhaseSnapshot};
pub use stats::{CostReport, FinalPhaseStats, MpcRunResult, PhaseStats, TrafficCosts};
