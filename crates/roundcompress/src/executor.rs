//! The round-compression executor as message-passing dataflow on an
//! audited [`mpc_sim`] cluster.
//!
//! The owner/home skeleton ([`mwvc_core::mpc::dataflow`]) runs the layout,
//! ingest, `subscribe`, `stats`, `plan`, the closing rounds and the
//! assembly, as for the baseline executor; this module supplies round
//! compression's records, messages, plan rule (the compression schedule)
//! and level rounds. During a level with `m` parts, machines `0..m` are
//! also **solvers**: they receive the induced subgraphs of the random
//! vertex parts and run Algorithm 1 of the source paper to completion.
//! Four rounds follow each `plan` that runs a level ([`round_cost`]):
//!
//! ```text
//! scatter    owners → solvers     (v, w') of nonfrozen vertices
//!            homes → solvers      part-internal active edges
//! solve      solvers → owners     (v, y, frozen) per touched vertex
//!            solvers → homes      finalized dual per part-internal edge
//! apply      owners → homes       freeze notices (fan-out to subscribers)
//! finalize   homes                cross edges at frozen vertices → x = 0
//! ```
//!
//! `apply` sends its freeze notices by destination, each owner's
//! subscriptions grouped by home, in ascending vertex id. The host also
//! builds each level's partition table, a memo of shared randomness (see
//! `scatter`).

use crate::config::{level_seed, parts_for, RoundCompressConfig};
use mpc_sim::{owner_of_key, Cluster, ClusterError, ExecutionTrace, MpcConfig, Words};
use mwvc_core::centralized::run_algorithm1;
use mwvc_core::mpc::dataflow::{
    self, owned_at, Dataflow, EdgeRecord, Exit, Machine, Plan, PlanInput, Shared, VertexRecord,
};
use mwvc_core::mpc::ingest::{local_instance, EndpointTable};
use mwvc_core::mpc::{Executor, ExecutorOutcome, FinalPhaseStats};
use mwvc_core::{
    CentralizedParams, CentralizedResult, DualCertificate, InitScheme, ThresholdScheme, VertexCover,
};
use mwvc_graph::{Graph, VertexId, VertexPartition, WeightedGraph};

/// Hard cap on compression levels (a stall guard; the part-count
/// schedule finishes far sooner).
const MAX_LEVELS: u32 = 100;

/// Cost model of this executor (mirrors
/// [`mwvc_core::mpc::stats::round_cost`] for the baseline): rounds per
/// compression level and fixed rounds outside the level loop.
pub mod round_cost {
    /// stats, plan, scatter, solve, apply, finalize.
    pub const PER_LEVEL: usize = 6;
    pub use mwvc_core::mpc::stats::round_cost::FINAL;
}

/// All messages of the dataflow. A plan carries the level's part count,
/// or `None` to finish.
#[derive(Debug, Clone, PartialEq)]
enum Msg {
    Subscribe { v: u32, home: u32 },
    ActiveCount { count: u64 },
    Plan(Plan<u32>),
    SolveVertex { v: u32, w_prime: f64 },
    SolveEdge { geid: u32, u: u32, v: u32 },
    VertexOutcome { v: u32, y: f64, frozen: bool },
    EdgeDual { geid: u32, x: f64 },
    FrozenNotice { v: u32 },
    FinalEdge { geid: u32, u: u32, v: u32 },
    FinalVertex { v: u32, w_prime: f64 },
}

impl Words for Msg {
    fn words(&self) -> usize {
        match self {
            Msg::Subscribe { .. } => 2,
            Msg::ActiveCount { .. } => 1,
            Msg::Plan(_) => 3,
            Msg::SolveVertex { .. } => 2,
            Msg::SolveEdge { .. } => 3,
            Msg::VertexOutcome { .. } => 3,
            Msg::EdgeDual { .. } => 2,
            Msg::FrozenNotice { .. } => 1,
            Msg::FinalEdge { .. } => 3,
            Msg::FinalVertex { .. } => 2,
        }
    }
}

// The message ABI this executor puts on the fabric: every variant is a
// handful of scalars, so the whole enum must stay within 24 bytes — at
// least two messages per cache line. Checked at compile time so a
// growing variant fails the build instead of silently fattening the
// hottest buffers in the system.
const _: () = {
    assert!(
        std::mem::size_of::<Msg>() <= 24,
        "hot Msg variants must stay <= 24 bytes"
    );
};

/// An edge, as held by its home machine.
#[derive(Debug, Clone, Default)]
struct HomeEdge {
    geid: u32,
    u: u32,
    v: u32,
    frozen: bool,
    x_final: f64,
}

const HOME_EDGE_WORDS: usize = 6;

impl EdgeRecord for HomeEdge {
    fn new(geid: u32, [u, v]: [u32; 2], _: [u32; 2]) -> Self {
        Self {
            geid,
            u,
            v,
            ..Self::default()
        }
    }

    fn geid(&self) -> u32 {
        self.geid
    }

    fn endpoints(&self, _: &EndpointTable) -> [VertexId; 2] {
        [self.u, self.v]
    }

    fn dual(&self) -> Option<f64> {
        self.frozen.then_some(self.x_final)
    }
}

/// A vertex, as held by its owner machine.
#[derive(Debug, Clone)]
struct OwnedVertex {
    v: u32,
    w_prime: f64,
    frozen: bool,
}

const OWNED_BASE_WORDS: usize = 4;

impl VertexRecord for OwnedVertex {
    fn new(v: VertexId, weight: f64) -> Self {
        Self {
            v,
            w_prime: weight,
            frozen: false,
        }
    }

    fn id(&self) -> VertexId {
        self.v
    }

    fn residual(&self) -> Option<f64> {
        (!self.frozen).then_some(self.w_prime)
    }

    fn freeze(&mut self) {
        self.frozen = true;
    }
}

/// A solver's vertices and edges of the running level.
#[derive(Clone, Default)]
struct Scratch {
    sim_vertices: Vec<(u32, f64)>,
    sim_edges: Vec<(u32, u32, u32)>,
}

/// The coordinator's state of the compression schedule.
#[derive(Debug, Clone, Default)]
struct Schedule {
    /// Times the part count has been halved after a no-progress level.
    shrink: u32,
    /// The levels run, each closed by the next `plan`'s active count.
    levels: Vec<LevelStats>,
}

/// Round compression's parts of the owner/home dataflow.
#[derive(Clone)]
struct Compress(RoundCompressConfig);

impl Dataflow for Compress {
    type Msg = Msg;
    type Vertex = OwnedVertex;
    type Edge = HomeEdge;
    type Run = u32;
    type Local = Scratch;
    type Rule = Schedule;

    fn validate(&self) {
        self.0.validate();
    }

    /// Homes keep neither the degrees nor the slot table.
    fn local(endpoints: &mut EndpointTable) -> Scratch {
        endpoints.drop_lookups();
        Scratch::default()
    }

    fn words(st: &Machine<Self>) -> usize {
        HOME_EDGE_WORDS * st.home_edges.len()
            + st.endpoints.words()
            + OWNED_BASE_WORDS * st.owned.len()
            + st.subscriptions.len()
            + 2 * st.local.sim_vertices.len()
            + 3 * st.local.sim_edges.len()
            + st.plan.map_or(0, |_| 3)
            + st.coord
                .as_ref()
                .map_or(0, |c| 10 + 2 * c.rule.levels.len() + c.final_words())
            + 3
    }

    fn wrap(msg: Shared<u32>) -> Msg {
        match msg {
            Shared::ActiveCount(count) => Msg::ActiveCount { count },
            Shared::Plan(plan) => Msg::Plan(plan),
            Shared::FinalEdge(geid, [u, v]) => Msg::FinalEdge { geid, u, v },
            Shared::FinalVertex(v, w_prime) => Msg::FinalVertex { v, w_prime },
            Shared::FrozenNotice(v) => Msg::FrozenNotice { v },
        }
    }

    fn unwrap(msg: Msg) -> Result<Shared<u32>, Msg> {
        Ok(match msg {
            Msg::ActiveCount { count } => Shared::ActiveCount(count),
            Msg::Plan(plan) => Shared::Plan(plan),
            Msg::FinalEdge { geid, u, v } => Shared::FinalEdge(geid, [u, v]),
            Msg::FinalVertex { v, w_prime } => Shared::FinalVertex(v, w_prime),
            Msg::FrozenNotice { v } => Shared::FrozenNotice(v),
            own => return Err(own),
        })
    }

    fn subscribe(endpoints: &EndpointTable, i: usize, home: u32) -> Msg {
        let v = endpoints.ids()[i];
        Msg::Subscribe { v, home }
    }

    /// A subscription only has its vertex found, which panics unless the
    /// vertex is owned here.
    fn fold(owned: &mut [OwnedVertex], owner_index: &[u32], msg: Msg) -> Option<(usize, VertexId)> {
        match msg {
            Msg::Subscribe { v, home } => Some((home as usize, owned_at(owned, owner_index, v).v)),
            other => unreachable!("stats round got {other:?}"),
        }
    }

    /// The compression schedule, with a no-progress fallback: a level
    /// that froze nothing (all parts happened to induce zero internal
    /// edges) halves the part count, doubling the internal fraction; if
    /// even m = 2 cannot progress, the residual goes to the final solve.
    fn plan(&self, rule: &mut Schedule, at: PlanInput, reports: Vec<Msg>) -> Result<u32, Exit> {
        assert!(reports.is_empty(), "plan round got {reports:?}");
        let budget_edges = self.0.budget_edges(at.n);
        if at.stalled {
            rule.shrink += 1;
        }
        if let Some(last) = rule.levels.last_mut() {
            last.active_edges_after = at.active as usize;
        }
        let exit = if at.active <= budget_edges as u64 {
            Exit::Switch
        } else if at.phase >= MAX_LEVELS {
            Exit::Cap
        } else if at.stalled && rule.levels.last().is_none_or(|l| l.parts <= 2) {
            Exit::Stall
        } else {
            let m = (parts_for(at.active as usize, budget_edges) >> rule.shrink).max(2);
            assert!(
                m <= at.machines,
                "level needs {m} solver machines but the cluster has {}; \
                 use recommended_cluster()",
                at.machines
            );
            rule.levels.push(LevelStats {
                level: at.phase as usize,
                parts: m,
                active_edges_before: at.active as usize,
                active_edges_after: at.active as usize,
            });
            return Ok(m as u32);
        };
        Err(exit)
    }

    /// The four level rounds after `plan`.
    fn run_phase(
        &self,
        cluster: &mut Cluster<Machine<Self>, Msg>,
        owner_index: &[u32],
        level: u32,
        m: u32,
    ) -> Result<(), ClusterError> {
        let (cfg, n) = (&self.0, owner_index.len());
        let parts = VertexPartition::table(n, m as usize, level_seed(cfg.seed, level));

        // ── scatter: owners ship nonfrozen vertices to their part's solver;
        // homes ship part-internal active edges. Parts are a shared pure
        // function of (seed, level, vertex) — no agreement round needed — so
        // the host draws them once per level into `parts` (host scratch, not
        // an accounted word) and every machine reads its answers there.
        cluster.try_round("scatter", |ctx, st, inbox| {
            for msg in inbox {
                match msg {
                    Msg::Plan(p) => st.plan = Some(p),
                    other => unreachable!("scatter got {other:?}"),
                }
            }
            for o in &st.owned {
                if o.frozen {
                    continue;
                }
                ctx.send(
                    parts[o.v as usize] as usize,
                    Msg::SolveVertex {
                        v: o.v,
                        w_prime: o.w_prime,
                    },
                );
            }
            for e in &st.home_edges {
                if e.frozen {
                    continue;
                }
                let pu = parts[e.u as usize];
                if pu == parts[e.v as usize] {
                    ctx.send(
                        pu as usize,
                        Msg::SolveEdge {
                            geid: e.geid,
                            u: e.u,
                            v: e.v,
                        },
                    );
                }
            }
        })?;

        // ── solve: each solver assembles its induced residual instance, runs
        // Algorithm 1 to completion (free in the model), and reports
        // per-vertex outcomes to owners and per-edge duals to homes.
        cluster.try_round("solve", |ctx, st, inbox| {
            for msg in inbox {
                match msg {
                    Msg::SolveVertex { v, w_prime } => st.local.sim_vertices.push((v, w_prime)),
                    Msg::SolveEdge { geid, u, v } => st.local.sim_edges.push((geid, u, v)),
                    other => unreachable!("solve got {other:?}"),
                }
            }
            let (level, _) = st.running();
            if !st.local.sim_vertices.is_empty() {
                let (vertices, wp, edges) = local_instance(
                    n,
                    &mut st.local.sim_vertices,
                    &mut st.local.sim_edges,
                    |&(geid, u, v)| (geid, [u, v]),
                    "edge endpoint was announced by its owner",
                );
                let res = self.solve(level as u64, &vertices, &wp, &edges);
                let duals = &res.certificate.x;
                let mut y = vec![0.0f64; vertices.len()];
                for (&(u, v), &x) in edges.iter().zip(duals) {
                    y[u as usize] += x;
                    y[v as usize] += x;
                }
                ctx.reserve_sends(st.local.sim_edges.len() + vertices.len());
                for (&(geid, ..), &x) in st.local.sim_edges.iter().zip(duals) {
                    ctx.send(
                        owner_of_key(geid as u64, ctx.num_machines()),
                        Msg::EdgeDual { geid, x },
                    );
                }
                for (i, &v) in vertices.iter().enumerate() {
                    let frozen = res.freeze_iteration[i].is_some();
                    if frozen || y[i] > 0.0 {
                        ctx.send(
                            owner_of_key(v as u64, ctx.num_machines()),
                            Msg::VertexOutcome { v, y: y[i], frozen },
                        );
                    }
                }
            }
            st.local.sim_vertices.clear();
            st.local.sim_edges.clear();
        })?;

        // ── apply: owners charge incident duals against residual weights and
        // fan freeze notices out to subscribed homes, home by home; homes
        // finalize the part-internal edges at their local dual values. Homes
        // sort the round's duals by edge id and apply them in one forward walk
        // over the (ascending) edge array; edge ids are distinct, so the order
        // cannot change the result. `froze` is round scratch (a replay
        // rebuilds it), not an accounted word.
        cluster.try_round("apply", |ctx, st, inbox| {
            let mut duals: Vec<(u32, f64)> = Vec::new();
            let mut froze = vec![false; st.owned.len()];
            for msg in inbox {
                match msg {
                    Msg::VertexOutcome { v, y, frozen } => {
                        let o = owned_at(&mut st.owned, owner_index, v);
                        o.w_prime = (o.w_prime - y).max(0.0);
                        if frozen {
                            o.frozen = true;
                            froze[owner_index[v as usize] as usize] = true;
                        }
                    }
                    Msg::EdgeDual { geid, x } => duals.push((geid, x)),
                    other => unreachable!("apply got {other:?}"),
                }
            }
            for (home, group) in st.subscriptions.groups() {
                for &i in group {
                    if froze[i as usize] {
                        let v = st.owned[i as usize].v;
                        ctx.send(home, Msg::FrozenNotice { v });
                    }
                }
            }
            duals.sort_unstable_by_key(|&(geid, _)| geid);
            let mut i = 0;
            for (geid, x) in duals {
                // Stop at the edge, not past it: a repeated id meets the same
                // (now frozen) edge and fails the assert below.
                while st.home_edges.get(i).is_some_and(|e| e.geid < geid) {
                    i += 1;
                }
                let e = st
                    .home_edges
                    .get_mut(i)
                    .filter(|e| e.geid == geid)
                    .expect("edge dual for an edge homed here");
                // A second finalization would also decrement the active count
                // the Finish decision reads.
                assert!(!e.frozen, "part-internal edge finalized twice");
                e.frozen = true;
                e.x_final = x;
                st.active_edges_local -= 1;
            }
        })?;

        // ── finalize: homes zero-finalize the surviving (cross-part) edges of
        // newly frozen vertices.
        // The notices go into a table keyed by vertex id, and one sweep of
        // the edge array applies it (host scratch, dropped with the round).
        cluster.try_round("finalize", |_ctx, st, inbox| {
            let mut froze = vec![false; n];
            for msg in inbox {
                match msg {
                    Msg::FrozenNotice { v } => froze[v as usize] = true,
                    other => unreachable!("finalize got {other:?}"),
                }
            }
            for e in &mut st.home_edges {
                if !e.frozen && (froze[e.u as usize] || froze[e.v as usize]) {
                    e.frozen = true;
                    e.x_final = 0.0;
                    st.active_edges_local -= 1;
                }
            }
        })
    }

    /// Algorithm 1 to completion with the paper's degree-weighted
    /// initialization and random thresholds: a level's solvers draw in the
    /// level's stream, the final solve in its own.
    fn solve(
        &self,
        stream: u64,
        vertices: &[VertexId],
        weights: &[f64],
        edges: &[(u32, u32)],
    ) -> CentralizedResult {
        run_algorithm1(
            &Graph::from_sorted_pairs(vertices.len(), edges.iter().copied()),
            weights,
            |lv| vertices[lv as usize],
            CentralizedParams::new(self.0.epsilon),
            InitScheme::DegreeWeighted,
            ThresholdScheme::UniformRandom,
            (self.0.seed, stream),
        )
    }
}

/// Statistics of one compression level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelStats {
    /// Level index, 0-based.
    pub level: usize,
    /// Random vertex parts (solver machines) used.
    pub parts: usize,
    /// Active edges when the level started.
    pub active_edges_before: usize,
    /// Active edges after the level (the residual the recursion sees).
    pub active_edges_after: usize,
}

/// Result of a round-compression run.
#[derive(Debug, Clone)]
pub struct RoundCompressOutcome {
    /// The vertex cover (all frozen vertices).
    pub cover: VertexCover,
    /// Finalized dual values in global edge-id order — an exactly feasible
    /// fractional matching (see the crate docs for why).
    pub certificate: DualCertificate,
    /// Per-level statistics.
    pub levels: Vec<LevelStats>,
    /// Final centralized solve statistics (`None` if no edges remained).
    pub final_stats: Option<FinalPhaseStats>,
    /// Whether the recursion stopped on the no-progress condition.
    pub stalled: bool,
    /// Whether the level cap fired.
    pub hit_max_levels: bool,
    /// The audited execution trace: rounds, traffic, memory, violations.
    pub trace: ExecutionTrace,
    /// Host wall-clock seconds per MPC round, in execution order. Purely
    /// informational: host-dependent, never gated.
    pub round_wall: Vec<f64>,
    /// Host wall-clock per round split by phase (compute / route /
    /// spill), in execution order. Informational, like `round_wall`.
    pub host_phases: Vec<mpc_sim::HostPhase>,
}

impl RoundCompressOutcome {
    /// Number of compression levels executed.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }
}

/// A cluster sizing for this instance and configuration: `S = Θ(n + B)`
/// words (`B` the per-machine induced-edge budget, which also bounds the
/// residual a finish through the budget switch gathers; [forced
/// exits](mwvc_core::mpc::dataflow#forced-exits) can exceed it), and
/// enough machines both to hold the input and to host the first level's
/// part count.
pub fn recommended_cluster(wg: &WeightedGraph, config: &RoundCompressConfig) -> MpcConfig {
    let n = wg.num_vertices();
    let e = wg.num_edges();
    let budget_e = config.budget_edges(n);
    let s = (16 * n + 16 * budget_e).max(1024);
    let input_words = 7 * e + 4 * n;
    let m0 = parts_for(e, budget_e);
    let machines = (8 * input_words).div_ceil(s).max(m0).max(2);
    MpcConfig::new(machines, s).with_faults(config.faults)
}

/// Runs the round-compression executor as message-passing dataflow on
/// `cluster_cfg`.
///
/// Panics (in strict enforcement) if any machine exceeds its memory or
/// per-round traffic budget; [`recommended_cluster`] sizes a cluster for
/// the budget switch, or use an audited config to measure violations.
/// Also panics on an unrecoverable injected fault — fault-tolerant callers
/// should use [`try_run_roundcompress`] instead.
pub fn run_roundcompress(
    wg: &WeightedGraph,
    config: &RoundCompressConfig,
    cluster_cfg: MpcConfig,
) -> RoundCompressOutcome {
    try_run_roundcompress(wg, config, cluster_cfg)
        .unwrap_or_else(|e| panic!("unrecoverable cluster fault: {e}"))
}

/// Fault-tolerant form of [`run_roundcompress`]: identical execution, but
/// unrecoverable injected faults surface as a typed
/// [`mpc_sim::ClusterError`] instead of panicking. Under any *handled*
/// fault plan the outcome's gated fields (cover, certificate, model
/// costs) are bit-identical to the fault-free run.
pub fn try_run_roundcompress(
    wg: &WeightedGraph,
    config: &RoundCompressConfig,
    cluster_cfg: MpcConfig,
) -> Result<RoundCompressOutcome, ClusterError> {
    let (out, coord) = dataflow::run(&Compress(*config), wg, cluster_cfg)?;
    Ok(RoundCompressOutcome {
        cover: out.solution.cover,
        certificate: out.solution.certificate,
        levels: coord.rule.levels,
        final_stats: coord.final_stats,
        stalled: coord.stalled,
        hit_max_levels: coord.hit_cap,
        trace: out.trace,
        round_wall: out.round_wall,
        host_phases: out.host_phases,
    })
}

/// The round-compression algorithm behind the shared
/// [`Executor`] trait, sized by [`recommended_cluster`] at run time.
#[derive(Debug, Clone, Copy)]
pub struct RoundCompressExecutor {
    /// Algorithm configuration.
    pub config: RoundCompressConfig,
}

impl RoundCompressExecutor {
    /// Executor over `config`.
    pub fn new(config: RoundCompressConfig) -> Self {
        Self { config }
    }
}

impl Executor for RoundCompressExecutor {
    fn name(&self) -> &'static str {
        "roundcompress"
    }

    fn try_run(&self, wg: &WeightedGraph) -> Result<ExecutorOutcome, ClusterError> {
        let cluster = recommended_cluster(wg, &self.config);
        Ok(dataflow::run(&Compress(self.config), wg, cluster)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwvc_graph::generators::{gnm, gnp};
    use mwvc_graph::{EdgeIndex, WeightModel};

    const EPS: f64 = 0.1;

    fn instance(n: usize, m: usize, seed: u64) -> WeightedGraph {
        let g = gnm(n, m, seed);
        let w = WeightModel::Uniform { lo: 1.0, hi: 6.0 }.sample(&g, seed ^ 1);
        WeightedGraph::new(g, w)
    }

    fn check(wg: &WeightedGraph, out: &RoundCompressOutcome, eps_bound: Option<f64>) {
        out.cover.verify(&wg.graph).expect("valid cover");
        let eidx = EdgeIndex::build(&wg.graph);
        if wg.num_edges() > 0 {
            // The global dual is an exactly feasible fractional matching
            // (float tolerance only), so the certificate needs no rescue
            // rescaling.
            let factor = out.certificate.feasibility_factor(wg, &eidx);
            assert!(factor <= 1.0 + 1e-9, "dual constraints violated: {factor}");
            if let Some(eps) = eps_bound {
                let ratio = out
                    .certificate
                    .certified_ratio(wg, &eidx, out.cover.weight(wg));
                assert!(
                    ratio <= 2.0 / (1.0 - 4.0 * eps) + 1e-9,
                    "certified ratio {ratio} exceeds 2/(1-4eps)"
                );
            }
        }
    }

    #[test]
    fn multi_level_run_certifies_and_counts_rounds() {
        // E = 9 600 against a budget of 150 edges (n / 4): three levels
        // (12, 5 and 2 parts) before the residual fits the final solve.
        let wg = instance(600, 9_600, 5);
        let cfg = RoundCompressConfig {
            edges_per_vertex: 0.25,
            ..RoundCompressConfig::practical(EPS, 17)
        };
        let cluster = recommended_cluster(&wg, &cfg);
        let out = run_roundcompress(&wg, &cfg, cluster);
        check(&wg, &out, Some(EPS));
        assert!(out.num_levels() >= 2, "ran {} level(s)", out.num_levels());
        assert!(out.trace.is_clean(), "no model violations expected");
        assert_eq!(
            out.trace.num_rounds(),
            out.num_levels() * round_cost::PER_LEVEL + round_cost::FINAL
        );
        // Every level strictly shrinks the residual.
        for l in &out.levels {
            assert!(l.active_edges_after < l.active_edges_before, "{l:?}");
            assert!(l.parts >= 2);
        }
        // The report the `Executor` path returns counts levels as phases.
        let report = RoundCompressExecutor::new(cfg).run(&wg).cost;
        assert_eq!(report.phases, out.num_levels());
        assert_eq!(report.mpc_rounds, out.trace.num_rounds());
        let t = report.traffic.expect("dataflow runs carry traffic");
        assert_eq!(t.total_message_words, out.trace.total_traffic());
        assert_eq!(t.violations, 0);
    }

    #[test]
    fn small_instance_goes_straight_to_final_solve() {
        let wg = instance(400, 700, 3); // 700 <= budget 800
        let cfg = RoundCompressConfig::practical(EPS, 7);
        let out = run_roundcompress(&wg, &cfg, recommended_cluster(&wg, &cfg));
        assert_eq!(out.num_levels(), 0);
        assert!(out.final_stats.is_some());
        check(&wg, &out, Some(EPS));
    }

    #[test]
    fn empty_graph_handled() {
        let wg = WeightedGraph::unweighted(Graph::empty(50));
        let cfg = RoundCompressConfig::practical(EPS, 1);
        let out = run_roundcompress(&wg, &cfg, MpcConfig::new(4, 4096));
        assert_eq!(out.cover.size(), 0);
        assert_eq!(out.num_levels(), 0);
        assert!(out.final_stats.is_none());
    }

    #[test]
    fn deterministic_across_runs_and_seed_sensitive() {
        let wg = instance(300, 4_800, 21);
        let cfg = RoundCompressConfig::practical(EPS, 5);
        let cluster = recommended_cluster(&wg, &cfg);
        let a = run_roundcompress(&wg, &cfg, cluster);
        let b = run_roundcompress(&wg, &cfg, cluster);
        assert_eq!(a.cover, b.cover);
        assert_eq!(a.certificate, b.certificate);
        assert_eq!(a.trace, b.trace);
        let c = run_roundcompress(
            &wg,
            &RoundCompressConfig::practical(EPS, 6),
            recommended_cluster(&wg, &cfg),
        );
        assert_ne!(a.cover, c.cover, "different seed, different partitions");
    }

    #[test]
    fn memory_stays_within_model() {
        let wg = instance(800, 12_800, 41);
        let cfg = RoundCompressConfig::practical(EPS, 13);
        let cluster = recommended_cluster(&wg, &cfg);
        let out = run_roundcompress(&wg, &cfg, cluster);
        assert!(out.trace.is_clean());
        assert!(out.trace.peak_resident() <= cluster.memory_words);
        assert!(out.trace.peak_traffic() <= cluster.memory_words);
        // Near-linear regime sanity: S = O(n) with our constants.
        assert!(cluster.memory_words < 64 * wg.num_vertices());
    }

    #[test]
    fn executor_trait_reports_costs() {
        let wg = instance(400, 6_400, 11);
        let exec = RoundCompressExecutor::new(RoundCompressConfig::practical(EPS, 3));
        assert_eq!(exec.name(), "roundcompress");
        let out = exec.run(&wg);
        let eidx = EdgeIndex::build(&wg.graph);
        out.solution.verify(&wg, &eidx).expect("contract");
        assert!(out.cost.mpc_rounds >= round_cost::FINAL);
        assert!(out.cost.traffic.is_some());
    }

    #[test]
    fn sparse_graph_single_final_phase() {
        let g = gnp(400, 0.005, 3); // E ~ 400 <= budget 800
        let w = WeightModel::Exponential { mean: 3.0 }.sample(&g, 4);
        let wg = WeightedGraph::new(g, w);
        let cfg = RoundCompressConfig::practical(EPS, 11);
        let out = run_roundcompress(&wg, &cfg, recommended_cluster(&wg, &cfg));
        assert_eq!(out.num_levels(), 0);
        check(&wg, &out, Some(EPS));
    }
}
