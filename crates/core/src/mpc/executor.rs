//! The executor abstraction: every MWVC algorithm in the tree that can
//! solve a weighted instance end to end plugs in behind [`Executor`], so
//! the benchmark harness, the experiment drivers, and future algorithm
//! crates compare like with like.
//!
//! # Contract
//!
//! An executor consumes a [`WeightedGraph`] and produces an
//! [`ExecutorOutcome`]:
//!
//! * a [`CoverCertificate`] — the vertex cover **plus** the per-edge dual
//!   values backing it. The cover must cover every edge; the certificate
//!   must be *sound* (rescaled into feasibility it never overstates the
//!   lower bound — see [`DualCertificate::lower_bound`]). Quality is
//!   always judged through this pair, never through trust,
//! * a [`CostReport`] — what the MPC model charges: phases (or
//!   compression levels), rounds, and — when the run went through the
//!   audited [`mpc_sim`] cluster — router-measured traffic and memory.
//!
//! Determinism: given the same instance and the executor's own
//! configuration (including its seed), a run must be bit-identical across
//! invocations and host thread counts. The perf gate compares outcomes
//! byte-for-byte between pool widths, so this is enforced, not aspirational.
//!
//! # Adding an executor
//!
//! 1. Implement the algorithm in its own crate (or module) and give it a
//!    config type carrying `epsilon` and `seed`. An owner/home dataflow
//!    executor implements [`Dataflow`](crate::mpc::dataflow::Dataflow),
//!    whose skeleton runs everything but its middle rounds.
//! 2. Implement [`Executor`] for a small struct holding that config:
//!    `name()` and `try_run()` (the panicking `run()` is provided).
//!    `name()` must be a stable, lowercase identifier — it becomes part
//!    of benchmark workload ids and `BENCH_core.json` rows.
//! 3. Register the executor in `crates/bench`'s `ExecutorKind` so the
//!    workload matrix grows an entry per workload, then refresh
//!    `benchmarks/baseline.json` (the diff gate flags the new rows as
//!    missing until you do).
//!
//! The first two implementors are [`DistributedExecutor`] and
//! [`ReferenceExecutor`]; the first *alternative algorithm* is the
//! round-compression executor in the `mwvc-roundcompress` crate.

use crate::certificate::DualCertificate;
use crate::cover::VertexCover;
use crate::mpc::config::MpcMwvcConfig;
pub use crate::mpc::distributed::DistributedExecutor;
use crate::mpc::reference::run_reference;
use crate::mpc::stats::CostReport;
use mwvc_graph::{EdgeIndex, WeightedGraph};

/// A vertex cover bundled with the dual certificate that backs it — the
/// common solution currency of every executor.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverCertificate {
    /// The vertex cover.
    pub cover: VertexCover,
    /// Per-edge dual values in global [`EdgeIndex`] order.
    pub certificate: DualCertificate,
}

impl CoverCertificate {
    /// Bundles a cover with its certificate.
    pub fn new(cover: VertexCover, certificate: DualCertificate) -> Self {
        Self { cover, certificate }
    }

    /// Cover weight on `wg`.
    pub fn weight(&self, wg: &WeightedGraph) -> f64 {
        self.cover.weight(wg)
    }

    /// The a-posteriori approximation ratio certified by the dual values
    /// (an upper bound on the true ratio to OPT).
    pub fn certified_ratio(&self, wg: &WeightedGraph, eidx: &EdgeIndex) -> f64 {
        self.certificate
            .certified_ratio(wg, eidx, self.cover.weight(wg))
    }

    /// Checks the full contract: the cover covers every edge and the
    /// certificate's rescaled lower bound is positive on nonempty inputs.
    pub fn verify(&self, wg: &WeightedGraph, eidx: &EdgeIndex) -> Result<(), String> {
        self.cover
            .verify(&wg.graph)
            .map_err(|e| format!("uncovered edge {e:?}"))?;
        if wg.num_edges() > 0 && self.certificate.lower_bound(wg, eidx) <= 0.0 {
            return Err("certificate carries no lower bound".into());
        }
        Ok(())
    }
}

/// Everything an executor run yields: the certified solution and the
/// model-side bill.
#[derive(Debug, Clone)]
pub struct ExecutorOutcome {
    /// The certified solution.
    pub solution: CoverCertificate,
    /// Model costs (rounds always; traffic when a router measured it).
    pub cost: CostReport,
    /// Host wall-clock seconds per MPC round (informational; empty when
    /// the run went through no audited cluster).
    pub round_wall: Vec<f64>,
    /// The full audited execution trace — per-round stats, violations,
    /// and the per-machine round rows the observability exporter renders
    /// (empty when the run went through no audited cluster).
    pub trace: mpc_sim::ExecutionTrace,
    /// Host wall-clock per round split by phase (compute / route /
    /// spill). Informational, like `round_wall`; empty when the run went
    /// through no audited cluster.
    pub host_phases: Vec<mpc_sim::HostPhase>,
}

/// A complete MWVC algorithm the harness can run on any instance. See the
/// module docs for the contract.
///
/// # Examples
///
/// Every implementation runs the same way: hand it a weighted graph, get
/// back a certified cover plus the model-side bill. Quality is judged
/// through the certificate, never by trusting the cover:
///
/// ```
/// use mwvc_core::mpc::{DistributedExecutor, Executor, MpcMwvcConfig};
/// use mwvc_graph::{generators::gnm, EdgeIndex, WeightModel, WeightedGraph};
///
/// let graph = gnm(300, 2_400, 7);
/// let weights = WeightModel::Uniform { lo: 1.0, hi: 10.0 }.sample(&graph, 7);
/// let wg = WeightedGraph::new(graph, weights);
///
/// let exec = DistributedExecutor::new(MpcMwvcConfig::practical(0.1, 42));
/// assert_eq!(exec.name(), "distributed");
/// let out = exec.run(&wg);
///
/// let eidx = EdgeIndex::build(&wg.graph);
/// out.solution.verify(&wg, &eidx).expect("feasible, certified cover");
/// assert!(out.cost.mpc_rounds > 0);
/// ```
pub trait Executor {
    /// Stable lowercase identifier; appears in benchmark workload ids.
    fn name(&self) -> &'static str;

    /// Solves `wg` end to end. Must be deterministic in the executor's
    /// configuration (instance, seed) and independent of host threading.
    /// Unrecoverable injected faults surface as a typed
    /// [`mpc_sim::ClusterError`]; executors that run on no audited
    /// cluster (and therefore see no injected faults) never err. Under
    /// any *handled* fault plan the outcome's gated fields must be
    /// bit-identical to the fault-free run.
    fn try_run(&self, wg: &WeightedGraph) -> Result<ExecutorOutcome, mpc_sim::ClusterError>;

    /// [`Executor::try_run`] for callers with no fault plan to survive:
    /// panics on an unrecoverable cluster fault.
    fn run(&self, wg: &WeightedGraph) -> ExecutorOutcome {
        self.try_run(wg)
            .unwrap_or_else(|e| panic!("unrecoverable cluster fault: {e}"))
    }
}

/// Algorithm 2 in one address space ([`crate::mpc::reference`]): same
/// covers and certificates as [`DistributedExecutor`], rounds from the
/// [`crate::mpc::stats::round_cost`] model, no measured traffic.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceExecutor {
    /// Algorithm configuration.
    pub config: MpcMwvcConfig,
}

impl ReferenceExecutor {
    /// Executor over `config`.
    pub fn new(config: MpcMwvcConfig) -> Self {
        Self { config }
    }
}

impl Executor for ReferenceExecutor {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn try_run(&self, wg: &WeightedGraph) -> Result<ExecutorOutcome, mpc_sim::ClusterError> {
        let res = run_reference(wg, &self.config);
        let cost = res.cost_report();
        Ok(ExecutorOutcome {
            solution: CoverCertificate::new(res.cover, res.certificate),
            cost,
            round_wall: Vec::new(),
            trace: mpc_sim::ExecutionTrace::default(),
            host_phases: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwvc_graph::generators::gnm;
    use mwvc_graph::WeightModel;

    fn instance(n: usize, m: usize, seed: u64) -> WeightedGraph {
        let g = gnm(n, m, seed);
        let w = WeightModel::Uniform { lo: 1.0, hi: 5.0 }.sample(&g, seed ^ 7);
        WeightedGraph::new(g, w)
    }

    #[test]
    fn both_executors_satisfy_the_contract_and_agree() {
        let wg = instance(300, 4_800, 11);
        let cfg = MpcMwvcConfig::practical(0.1, 3);
        let dist = DistributedExecutor::new(cfg);
        let reference = ReferenceExecutor::new(cfg);
        assert_eq!(dist.name(), "distributed");
        assert_eq!(reference.name(), "reference");
        let a = dist.run(&wg);
        let b = reference.run(&wg);
        let eidx = EdgeIndex::build(&wg.graph);
        a.solution.verify(&wg, &eidx).expect("distributed contract");
        b.solution.verify(&wg, &eidx).expect("reference contract");
        // Same algorithm, same seed: identical covers, matching rounds.
        assert_eq!(a.solution.cover, b.solution.cover);
        assert_eq!(a.cost.phases, b.cost.phases);
        assert_eq!(a.cost.mpc_rounds, b.cost.mpc_rounds);
        // Only the audited executor carries traffic.
        assert!(a.cost.traffic.is_some());
        assert!(b.cost.traffic.is_none());
    }

    #[test]
    fn runs_are_deterministic_through_the_trait() {
        let wg = instance(200, 3_000, 23);
        let exec: Box<dyn Executor> =
            Box::new(DistributedExecutor::new(MpcMwvcConfig::practical(0.1, 9)));
        let a = exec.run(&wg);
        let b = exec.run(&wg);
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn cover_certificate_helpers() {
        let wg = instance(100, 1_500, 5);
        let eidx = EdgeIndex::build(&wg.graph);
        let out = ReferenceExecutor::new(MpcMwvcConfig::practical(0.1, 1)).run(&wg);
        let ratio = out.solution.certified_ratio(&wg, &eidx);
        assert!(ratio >= 1.0 - 1e-9 && ratio.is_finite());
        assert!(out.solution.weight(&wg) > 0.0);
    }
}
