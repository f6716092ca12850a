//! The round-compression executor as message-passing dataflow on an
//! audited [`mpc_sim`] cluster.
//!
//! # Roles
//!
//! As in the `mwvc_core` distributed executor, every machine plays up to
//! four roles:
//!
//! * **edge home** — edge `e` lives on `owner_of_key(edge_id)`; homes hold
//!   the edge's frozen flag and finalized dual value,
//! * **vertex owner** — vertex `v` lives on `owner_of_key(v)`; owners hold
//!   the residual weight, the frozen flag, and one static table of the
//!   homes subscribed to their vertices, keyed by home,
//! * **solver** — during a level with `m` parts, machines `0..m` receive
//!   the induced subgraphs of the random vertex parts and run Algorithm 1
//!   of the source paper to completion,
//! * **coordinator** — machine 0 aggregates the active-edge count, decides
//!   the level plan, and runs the final centralized solve.
//!
//! # Round schedule
//!
//! One startup round, six rounds per compression level, five closing
//! rounds ([`round_cost`]):
//!
//! ```text
//! subscribe  homes → owners       (v, home); builds notice fan-out lists
//! ── per level ───────────────────────────────────────────────────────────
//! stats      homes → coord        active-edge partial counts
//! plan       coord → all          RunLevel{m} or Finish
//! scatter    owners → solvers     (v, w') of nonfrozen vertices
//!            homes → solvers      part-internal active edges
//! solve      solvers → owners     (v, y, frozen) per touched vertex
//!            solvers → homes      finalized dual per part-internal edge
//! apply      owners → homes       freeze notices (fan-out to subscribers)
//! finalize   homes                cross edges at frozen vertices → x = 0
//! ── closing ─────────────────────────────────────────────────────────────
//! stats, plan (coord decides Finish)
//! gather     homes, owners → coord  residual instance
//! solve      coord → owners         final freezes + edge duals
//! apply      owners                 flags applied
//! ```
//!
//! The owner ↔ home exchanges (`subscribe`, and `apply`'s freeze notices)
//! send by destination: a home walks its endpoints grouped by owner, an
//! owner its subscriptions grouped by home, so each machine emits one run
//! per destination, in ascending vertex id.
//!
//! The host only schedules closures and reads machine 0's broadcast
//! decision, and builds two tables: the owner index (each vertex's
//! position in its owner's list, a memo of `owner_of_key`, built once at
//! ingest) and each level's partition table (a memo of shared randomness,
//! see `scatter`). All data flows through the audited router, so rounds,
//! traffic, and resident memory are measured (and enforced) exactly as
//! for the baseline executor.

use crate::config::{level_seed, parts_for, RoundCompressConfig};
use mpc_sim::{owner_of_key, Cluster, ExecutionTrace, MpcConfig, Words};
use mwvc_core::centralized::run_algorithm1;
use mwvc_core::mpc::ingest::{
    distribute_edges, distribute_vertices, gather_by_owner, local_instance, ByDestination,
    EdgeHomes,
};
use mwvc_core::mpc::{CostReport, CoverCertificate, Executor, ExecutorOutcome, FinalPhaseStats};
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
    /// The startup subscribe round plus the closing stats, plan, gather,
    /// solve and apply rounds.
    pub const FINAL: usize = 6;
}

/// Plan broadcast by the coordinator each level.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PlanMsg {
    level: u32,
    kind: PlanKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PlanKind {
    RunLevel { m: u32 },
    Finish,
}

/// All messages of the dataflow.
#[derive(Debug, Clone, PartialEq)]
enum Msg {
    Subscribe { v: u32, home: u32 },
    ActiveCount { count: u64 },
    Plan(PlanMsg),
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
#[derive(Debug, Clone)]
struct HomeEdge {
    geid: u32,
    u: u32,
    v: u32,
    frozen: bool,
    x_final: f64,
}

const HOME_EDGE_WORDS: usize = 6;

impl HomeEdge {
    /// The still-active edge `geid = (u, v)` at ingest.
    fn new(geid: u32, [u, v]: [u32; 2], _: [u32; 2]) -> Self {
        Self {
            geid,
            u,
            v,
            frozen: false,
            x_final: 0.0,
        }
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

/// The owned vertex `v`, at the position the owner index gives it.
/// Panics if `v` is not in `owned`: its message reached the wrong machine.
fn owned_at<'a>(owned: &'a mut [OwnedVertex], owner_index: &[u32], v: u32) -> &'a mut OwnedVertex {
    match owned.get_mut(owner_index[v as usize] as usize) {
        Some(o) if o.v == v => o,
        _ => panic!("message for vertex not owned here"),
    }
}

/// Coordinator-only state (machine 0).
#[derive(Debug, Clone, Default)]
struct CoordState {
    level: u32,
    prev_active: Option<u64>,
    /// Times the part count has been halved after a no-progress level.
    shrink: u32,
    last_m: u32,
    decision: Option<PlanMsg>,
    stalled: bool,
    hit_max_levels: bool,
    /// `(active edges at level start, parts)` per executed level.
    level_log: Vec<(u64, u32)>,
    /// Active edges when the Finish decision fired.
    final_active: u64,
    final_edges: Vec<(u32, u32, u32)>,
    final_vertices: Vec<(u32, f64)>,
    final_edge_x: Vec<(u32, f64)>,
    final_stats: Option<FinalPhaseStats>,
}

impl CoordState {
    fn words(&self) -> usize {
        10 + 2 * self.level_log.len()
            + 3 * self.final_edges.len()
            + 2 * self.final_vertices.len()
            + 2 * self.final_edge_x.len()
    }
}

/// Full per-machine state. `Clone` is the snapshot operation of the
/// crash-recovery engine ([`mpc_sim::checkpoint`]): checkpoints clone the
/// state, and replay restores the clone.
#[derive(Clone)]
struct MachineState {
    home_edges: Vec<HomeEdge>,
    /// The distinct endpoints of `home_edges`, ascending (static).
    endpoints: Vec<VertexId>,
    /// Their indices grouped by owner,
    /// [`EndpointTable::by_owner`](mwvc_core::mpc::ingest::EndpointTable::by_owner)
    /// (static).
    endpoints_by_owner: ByDestination,
    /// Their accounted words, [`EndpointTable::words`](mwvc_core::mpc::ingest::EndpointTable::words)
    /// at ingest (static).
    endpoint_words: usize,
    /// Owned vertices, ascending by id.
    owned: Vec<OwnedVertex>,
    /// Per home, the positions in `owned` of the vertices it subscribed
    /// to, ascending (static once the first `stats` round fills it).
    subscriptions: ByDestination,
    active_edges_local: u64,
    plan: Option<PlanMsg>,
    sim_vertices: Vec<(u32, f64)>,
    sim_edges: Vec<(u32, u32, u32)>,
    coord: Option<Box<CoordState>>,
}

impl Words for MachineState {
    fn words(&self) -> usize {
        HOME_EDGE_WORDS * self.home_edges.len()
            + self.endpoint_words
            + OWNED_BASE_WORDS * self.owned.len()
            + self.subscriptions.len()
            + 2 * self.sim_vertices.len()
            + 3 * self.sim_edges.len()
            + self.plan.map_or(0, |_| 3)
            + self.coord.as_ref().map_or(0, |c| c.words())
            + 3
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

    /// The structured model-cost report, measured by the router of
    /// `cluster` (the config the run executed on). `phases` counts
    /// compression levels.
    pub fn cost_report(&self, cluster: &MpcConfig) -> CostReport {
        CostReport::from_trace(self.num_levels(), &self.trace, cluster)
    }
}

/// A cluster sizing that keeps the dataflow within the near-linear-memory
/// model: `S = Θ(n + B)` words (`B` the per-machine induced-edge budget,
/// which also bounds the final gathered residual), and enough machines
/// both to hold the input and to host the first level's part count.
///
/// The final-gather headroom assumes the run finishes through the budget
/// switch. A `Finish` forced early — the 100-level cap firing while the
/// residual is still above budget, or a (probability ≈ `2^-E`) stall at
/// `m = 2` — can exceed it and panic under strict enforcement, exactly
/// like the baseline executor's stall path.
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

/// Runs Algorithm 1 to completion on an induced residual instance, with
/// the paper's degree-weighted initialization and random thresholds drawn
/// in stream `stream_key`. `vertices` are ascending global ids, `edges`
/// local pairs in canonical order (as [`local_instance`] returns them),
/// so dual `i` of the result belongs to edge `i`. Local computation is
/// free in the model.
fn solve_instance(
    cfg: &RoundCompressConfig,
    stream_key: u64,
    vertices: &[VertexId],
    wp: &[f64],
    edges: &[(u32, u32)],
) -> CentralizedResult {
    run_algorithm1(
        &Graph::from_edges(vertices.len(), edges),
        wp,
        |lv| vertices[lv as usize],
        CentralizedParams::new(cfg.epsilon),
        InitScheme::DegreeWeighted,
        ThresholdScheme::UniformRandom,
        (cfg.seed, stream_key),
    )
}

/// Runs the round-compression executor as message-passing dataflow on
/// `cluster_cfg`.
///
/// Panics (in strict enforcement) if any machine exceeds its memory or
/// per-round traffic budget; use [`recommended_cluster`] for a sizing that
/// stays within the model, or an audited config to measure violations.
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
) -> Result<RoundCompressOutcome, mpc_sim::ClusterError> {
    config.validate();
    let n = wg.num_vertices();
    let m_total = wg.num_edges();
    let w = cluster_cfg.num_machines;
    let budget_edges = config.budget_edges(n);

    // ── Input distribution (free): edges to owner_of_key(edge id),
    // vertices with their weights to owner_of_key(vertex id), each
    // owner's list ascending by id.
    let (owned, owner_index) = distribute_vertices(n, w, |v| OwnedVertex {
        v,
        w_prime: wg.weights[v],
        frozen: false,
    });
    let owner_index = &owner_index[..];
    let states: Vec<MachineState> = distribute_edges(&wg.graph, w, HomeEdge::new)
        .into_iter()
        .zip(owned)
        .enumerate()
        .map(|(id, (EdgeHomes { edges, endpoints }, owned))| {
            let endpoint_words = endpoints.words();
            let (endpoints, endpoints_by_owner) = endpoints.into_ids_by_owner();
            MachineState {
                active_edges_local: edges.len() as u64,
                home_edges: edges,
                endpoints,
                endpoints_by_owner,
                endpoint_words,
                owned,
                subscriptions: ByDestination::default(),
                plan: None,
                sim_vertices: Vec::new(),
                sim_edges: Vec::new(),
                coord: (id == 0).then(|| Box::new(CoordState::default())),
            }
        })
        .collect();
    let mut cluster: Cluster<MachineState, Msg> = {
        let mut it = states.into_iter();
        Cluster::new(cluster_cfg, move |_| {
            it.next().expect("one state per machine")
        })
    };

    // ── Startup: homes announce themselves to every endpoint's owner,
    // owner by owner.
    cluster.try_round("subscribe", move |ctx, st, _inbox| {
        ctx.reserve_sends(st.endpoints.len());
        for (owner, group) in st.endpoints_by_owner.groups() {
            for &i in group {
                ctx.send(
                    owner,
                    Msg::Subscribe {
                        v: st.endpoints[i as usize],
                        home: ctx.id as u32,
                    },
                );
            }
        }
    })?;

    loop {
        // ── stats: owners fold in subscriptions (level 0); homes report
        // active-edge counts to the coordinator. The `Subscribe` inbox is
        // home-major (sender order) and ascending by id within a home, so
        // the subscription table fills in one append pass.
        cluster.try_round("stats", |ctx, st, inbox| {
            for msg in inbox {
                match msg {
                    Msg::Subscribe { v, home } => {
                        // Panics unless `v` is owned here.
                        owned_at(&mut st.owned, owner_index, v);
                        let i = owner_index[v as usize];
                        st.subscriptions.push(home as usize, i);
                    }
                    other => unreachable!("stats round got {other:?}"),
                }
            }
            ctx.send(
                0,
                Msg::ActiveCount {
                    count: st.active_edges_local,
                },
            );
        })?;

        // ── plan: the coordinator runs the compression schedule and
        // broadcasts the level parameters or Finish.
        cluster.try_round("plan", |ctx, st, inbox| {
            let Some(coord) = st.coord.as_mut() else {
                assert!(inbox.is_empty());
                return;
            };
            let mut total: u64 = 0;
            for m in inbox {
                match m {
                    Msg::ActiveCount { count } => total += count,
                    other => unreachable!("plan round got {other:?}"),
                }
            }
            // No-progress fallback: a level that froze nothing (all parts
            // happened to induce zero internal edges) halves the part
            // count, doubling the internal fraction; if even m = 2 cannot
            // progress, hand the residual to the final solve.
            let stalled_now = coord.prev_active == Some(total) && total > 0;
            if stalled_now {
                coord.shrink += 1;
            }
            let kind = if total <= budget_edges as u64 {
                PlanKind::Finish
            } else if coord.level >= MAX_LEVELS {
                coord.hit_max_levels = true;
                PlanKind::Finish
            } else if stalled_now && coord.last_m <= 2 {
                coord.stalled = true;
                PlanKind::Finish
            } else {
                let m = (parts_for(total as usize, budget_edges) >> coord.shrink).max(2);
                assert!(
                    m <= ctx.num_machines(),
                    "level needs {m} solver machines but the cluster has {}; \
                     use recommended_cluster()",
                    ctx.num_machines()
                );
                coord.last_m = m as u32;
                coord.level_log.push((total, m as u32));
                PlanKind::RunLevel { m: m as u32 }
            };
            if kind == PlanKind::Finish {
                coord.final_active = total;
            }
            coord.prev_active = Some(total);
            let plan = PlanMsg {
                level: coord.level,
                kind,
            };
            coord.decision = Some(plan);
            ctx.broadcast(Msg::Plan(plan));
        })?;

        let plan = cluster
            .state(0)
            .coord
            .as_ref()
            .and_then(|c| c.decision)
            .expect("coordinator always decides");

        match plan.kind {
            PlanKind::RunLevel { .. } => {
                run_level_rounds(&mut cluster, config, n, owner_index, plan)?
            }
            PlanKind::Finish => {
                run_final_rounds(&mut cluster, config, n, owner_index)?;
                break;
            }
        }
    }

    // ── Assembly: one merge over the machines' id-sorted arrays (vertex
    // `v` on `owner_of_key(v)`, edge `e` on `owner_of_key(e)`) fills each
    // output slot from its unique source, the same under any scheduling.
    let round_wall = cluster.round_wall().to_vec();
    let host_phases = cluster.host_phases().to_vec();
    let (states, trace) = cluster.finish();
    let owned: Vec<&[OwnedVertex]> = states.iter().map(|st| &st.owned[..]).collect();
    let membership = gather_by_owner(
        n,
        &owned,
        |o| o.v,
        |o| o.frozen,
        "every vertex has an owner",
    );
    let homes: Vec<&[HomeEdge]> = states.iter().map(|st| &st.home_edges[..]).collect();
    let mut edge_x = gather_by_owner(
        m_total,
        &homes,
        |e| e.geid,
        |e| if e.frozen { e.x_final } else { 0.0 },
        "every edge has a home",
    );
    let mut levels = Vec::new();
    let mut stalled = false;
    let mut hit_max_levels = false;
    let mut final_stats = None;
    if let Some(c) = states.iter().find_map(|st| st.coord.as_deref()) {
        stalled = c.stalled;
        hit_max_levels = c.hit_max_levels;
        final_stats = c.final_stats;
        for (i, &(before, parts)) in c.level_log.iter().enumerate() {
            let after = c
                .level_log
                .get(i + 1)
                .map(|&(b, _)| b)
                .unwrap_or(c.final_active);
            levels.push(LevelStats {
                level: i,
                parts: parts as usize,
                active_edges_before: before as usize,
                active_edges_after: after as usize,
            });
        }
        for &(geid, x) in &c.final_edge_x {
            edge_x[geid as usize] = x;
        }
    }
    Ok(RoundCompressOutcome {
        cover: VertexCover::from_membership(membership),
        certificate: DualCertificate::new(edge_x),
        levels,
        final_stats,
        stalled,
        hit_max_levels,
        trace,
        round_wall,
        host_phases,
    })
}

/// The four level rounds after `plan`, on an `n`-vertex input.
fn run_level_rounds(
    cluster: &mut Cluster<MachineState, Msg>,
    cfg: &RoundCompressConfig,
    n: usize,
    owner_index: &[u32],
    plan: PlanMsg,
) -> Result<(), mpc_sim::ClusterError> {
    let PlanKind::RunLevel { m } = plan.kind else {
        unreachable!("level rounds run only under RunLevel");
    };
    let parts = VertexPartition::table(n, m as usize, level_seed(cfg.seed, plan.level));

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
                Msg::SolveVertex { v, w_prime } => st.sim_vertices.push((v, w_prime)),
                Msg::SolveEdge { geid, u, v } => st.sim_edges.push((geid, u, v)),
                other => unreachable!("solve got {other:?}"),
            }
        }
        let plan = st.plan.expect("plan is set");
        if !st.sim_vertices.is_empty() {
            let (vertices, wp, edges) = local_instance(
                n,
                &mut st.sim_vertices,
                &mut st.sim_edges,
                |&(geid, u, v)| (geid, [u, v]),
                "edge endpoint was announced by its owner",
            );
            let res = solve_instance(cfg, plan.level as u64, &vertices, &wp, &edges);
            let duals = &res.certificate.x;
            let mut y = vec![0.0f64; vertices.len()];
            for (&(u, v), &x) in edges.iter().zip(duals) {
                y[u as usize] += x;
                y[v as usize] += x;
            }
            ctx.reserve_sends(st.sim_edges.len() + vertices.len());
            for (&(geid, ..), &x) in st.sim_edges.iter().zip(duals) {
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
        st.sim_vertices.clear();
        st.sim_edges.clear();
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
    // newly frozen vertices; the coordinator advances its level counter.
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
        if let Some(coord) = st.coord.as_mut() {
            coord.level += 1;
        }
    })
}

/// The three closing rounds after a `Finish` plan, on an `n`-vertex input.
fn run_final_rounds(
    cluster: &mut Cluster<MachineState, Msg>,
    cfg: &RoundCompressConfig,
    n: usize,
    owner_index: &[u32],
) -> Result<(), mpc_sim::ClusterError> {
    // ── gather: the residual instance moves to the coordinator.
    cluster.try_round("gather", |ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::Plan(p) => st.plan = Some(p),
                other => unreachable!("gather got {other:?}"),
            }
        }
        ctx.reserve_sends(st.active_edges_local as usize);
        for e in &st.home_edges {
            if !e.frozen {
                ctx.send(
                    0,
                    Msg::FinalEdge {
                        geid: e.geid,
                        u: e.u,
                        v: e.v,
                    },
                );
            }
        }
        for o in &st.owned {
            if !o.frozen {
                ctx.send(
                    0,
                    Msg::FinalVertex {
                        v: o.v,
                        w_prime: o.w_prime,
                    },
                );
            }
        }
    })?;

    // ── solve: the coordinator runs Algorithm 1 on the residual instance
    // (local computation is free) and reports freezes.
    cluster.try_round("solve", |ctx, st, inbox| {
        let Some(coord) = st.coord.as_mut() else {
            assert!(inbox.is_empty());
            return;
        };
        for msg in inbox {
            match msg {
                Msg::FinalEdge { geid, u, v } => coord.final_edges.push((geid, u, v)),
                Msg::FinalVertex { v, w_prime } => coord.final_vertices.push((v, w_prime)),
                other => unreachable!("solve got {other:?}"),
            }
        }
        if coord.final_edges.is_empty() {
            return;
        }
        let (rest, wp, edges) = local_instance(
            n,
            &mut coord.final_vertices,
            &mut coord.final_edges,
            |&(geid, u, v)| (geid, [u, v]),
            "endpoint is nonfrozen",
        );
        let stream_key = coord.level as u64 + 1_000_000; // distinct stream
        let res = solve_instance(cfg, stream_key, &rest, &wp, &edges);
        for (&(geid, ..), &x) in coord.final_edges.iter().zip(&res.certificate.x) {
            coord.final_edge_x.push((geid, x));
        }
        for (&v, f) in rest.iter().zip(&res.freeze_iteration) {
            if f.is_some() {
                ctx.send(
                    owner_of_key(v as u64, ctx.num_machines()),
                    Msg::FrozenNotice { v },
                );
            }
        }
        coord.final_stats = Some(FinalPhaseStats {
            vertices: rest.len(),
            edges: edges.len(),
            iterations: res.iterations,
        });
    })?;

    // ── apply: owners flip the final frozen flags.
    cluster.try_round("apply", |_ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::FrozenNotice { v } => owned_at(&mut st.owned, owner_index, v).frozen = true,
                other => unreachable!("apply got {other:?}"),
            }
        }
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

    fn try_run(&self, wg: &WeightedGraph) -> Result<ExecutorOutcome, mpc_sim::ClusterError> {
        let cluster = recommended_cluster(wg, &self.config);
        let out = try_run_roundcompress(wg, &self.config, cluster)?;
        let cost = out.cost_report(&cluster);
        Ok(ExecutorOutcome {
            solution: CoverCertificate::new(out.cover, out.certificate),
            cost,
            round_wall: out.round_wall,
            trace: out.trace,
            host_phases: out.host_phases,
        })
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
        let report = out.cost_report(&cluster);
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
