//! Algorithm 2 executed as message-passing dataflow on an [`mpc_sim`]
//! cluster, with every model constraint enforced and every round recorded.
//!
//! # Roles
//!
//! Every machine plays up to four roles at once:
//!
//! * **edge home** — each edge `e` lives permanently on machine
//!   `owner_of_key(edge_id)`; homes hold the edge's dual state and caches
//!   of both endpoints' per-phase facts,
//! * **vertex owner** — each vertex `v` lives on `owner_of_key(v)`; owners
//!   hold the authoritative weight, residual weight, residual degree and
//!   frozen flag, plus the static list of homes subscribed to `v`
//!   (built once at startup from the edge distribution),
//! * **simulator** — during a phase with `m` machines, machines `0..m`
//!   receive the induced subgraphs of the random parts and run
//!   [`crate::mpc::local_sim::simulate_local`],
//! * **coordinator** — machine 0 aggregates global counters, decides the
//!   phase plan (Algorithm 2's loop condition) and runs the final
//!   centralized phase (line 3).
//!
//! # Round schedule
//!
//! One startup round, nine rounds per phase, five closing rounds:
//!
//! ```text
//! subscribe   homes → owners      (v, home, multiplicity); builds degrees
//! ── per phase ───────────────────────────────────────────────────────────
//! stats       homes → coord       active-edge partial counts (owners fold
//!                                 in last phase's deltas first)
//! plan        coord → all         RunPhase{m, I, cutoff} or Finish  (2,2e)
//! classify    owners → homes,sims V^high/V^inactive split, w', d(v) (2a,2b,2d)
//! route       homes → sims        induced-part edges with x_{e,0}    (2c,2f)
//! simulate    sims → owners       freeze iterations from local runs  (2g)
//! forward     owners → homes      freeze iterations fan-out
//! party       homes → owners      per-vertex partial Σ x^MPC_e       (2h)
//! correct     owners → homes      over-freeze corrections            (2i)
//! finalize    homes → owners      edge finalization + residual deltas(2j,2k)
//! ── closing ─────────────────────────────────────────────────────────────
//! stats, plan (coord decides Finish)
//! gather      homes,owners → coord  residual instance                (3)
//! solve       coord → owners        final freezes
//! apply       owners                 flags applied
//! ```
//!
//! The host only schedules closures and reads machine 0's broadcast
//! decision; all data flows through the audited router.

use crate::centralized::{run_centralized_raw, CentralizedParams};
use crate::certificate::DualCertificate;
use crate::cover::VertexCover;
use crate::mpc::config::{MpcMwvcConfig, PhaseSwitch};
use crate::mpc::ingest::{distribute_edges, EdgeHomes, EndpointIndex};
use crate::mpc::local_sim::{simulate_local, LocalEdge, LocalInstance, LocalSimParams};
use crate::mpc::reference::partition_seed;
use crate::mpc::stats::FinalPhaseStats;
use mpc_sim::{owner_of_key, Cluster, ExecutionTrace, MpcConfig, Words};
use mwvc_graph::{EdgeIndex, GraphBuilder, VertexId, VertexPartition, WeightedGraph};
use rayon::prelude::*;

/// Vertex classes within a phase.
mod class {
    pub const HIGH: u8 = 1;
    pub const INACTIVE: u8 = 2;
}

/// Plan broadcast by the coordinator each phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PlanMsg {
    phase: u32,
    kind: PlanKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PlanKind {
    RunPhase {
        m: u32,
        iterations: u32,
        cutoff: f64,
        /// Residual maximum degree (for the `w/Δ` init scheme).
        delta: u32,
        /// Minimum nonfrozen residual weight (for the `1/n` init scheme).
        min_wp: f64,
    },
    Finish,
}

/// All messages of the dataflow. The phase plan — five scalars broadcast
/// `m` times per phase — is boxed so the rare fat variant does not size
/// every per-edge/per-vertex message on the wire; the hot variants stay
/// within 24 bytes (pinned below).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Msg {
    Subscribe {
        v: u32,
        home: u32,
        count: u32,
    },
    ActiveCount {
        count: u64,
    },
    OwnerStats {
        max_resid_deg: u32,
        min_wp: f64,
    },
    Plan(Box<PlanMsg>),
    VertexInfo {
        v: u32,
        class: u8,
        w_prime: f64,
        resid_deg: u32,
    },
    SimVertex {
        v: u32,
        w_prime: f64,
    },
    SimEdge {
        geid: u32,
        u: u32,
        v: u32,
        x0: f64,
    },
    FreezeIter {
        v: u32,
        t: u32,
    },
    PartialY {
        v: u32,
        y: f64,
    },
    FinalFrozen {
        v: u32,
    },
    Delta {
        v: u32,
        d_inc: f64,
        d_deg: u32,
    },
    FinalEdge {
        geid: u32,
        u: u32,
        v: u32,
    },
    FinalVertex {
        v: u32,
        w_prime: f64,
    },
    FrozenNotice {
        v: u32,
    },
}

impl Words for Msg {
    fn words(&self) -> usize {
        match self {
            Msg::Subscribe { .. } => 3,
            Msg::ActiveCount { .. } => 1,
            Msg::OwnerStats { .. } => 2,
            Msg::Plan(_) => 7,
            Msg::VertexInfo { .. } => 4,
            Msg::SimVertex { .. } => 2,
            Msg::SimEdge { .. } => 4,
            Msg::FreezeIter { .. } => 2,
            Msg::PartialY { .. } => 2,
            Msg::FinalFrozen { .. } => 1,
            Msg::Delta { .. } => 3,
            Msg::FinalEdge { .. } => 3,
            Msg::FinalVertex { .. } => 2,
            Msg::FrozenNotice { .. } => 1,
        }
    }
}

// The message ABI this executor puts on the fabric: the hot per-edge and
// per-vertex variants must stay small enough that a cache line holds at
// least two messages. Checked at compile time so a variant growing past
// the budget (or the boxed plan regressing to inline) fails the build.
const _: () = {
    assert!(
        std::mem::size_of::<Msg>() <= 24,
        "hot Msg variants must stay <= 24 bytes"
    );
    assert!(
        std::mem::size_of::<Msg>() < std::mem::size_of::<PlanMsg>() + 8,
        "the fat plan payload must stay boxed out of the hot ABI"
    );
};

/// Per-endpoint cache a home keeps for each of its edges.
#[derive(Debug, Clone, Copy, Default)]
struct EpCache {
    class: u8,
    w_prime: f64,
    resid_deg: u32,
    freeze_iter: u32,
    newly_frozen: bool,
}

/// An edge, as held by its home machine.
#[derive(Debug, Clone)]
struct HomeEdge {
    geid: u32,
    u: u32,
    v: u32,
    frozen: bool,
    /// Host scratch: frozen by the current `finalize` round. Lives in the
    /// struct's padding and is not an accounted word.
    froze_now: bool,
    x_final: f64,
    x0: f64,
    x_mpc: f64,
    u_cache: EpCache,
    v_cache: EpCache,
}

const HOME_EDGE_WORDS: usize = 17;

// The scratch flag must ride in existing padding: the edge record (the
// bulk of every machine's resident memory) stays 88 bytes.
const _: () = assert!(std::mem::size_of::<HomeEdge>() == 88);

impl HomeEdge {
    /// The still-active edge `geid = (u, v)` at ingest.
    fn new(geid: u32, u: u32, v: u32) -> Self {
        Self {
            geid,
            u,
            v,
            frozen: false,
            froze_now: false,
            x_final: 0.0,
            x0: 0.0,
            x_mpc: 0.0,
            u_cache: EpCache::default(),
            v_cache: EpCache::default(),
        }
    }

    /// The cache of endpoint `x` (which must be `u` or `v`).
    #[inline]
    fn cache(&self, x: u32) -> &EpCache {
        if self.u == x {
            &self.u_cache
        } else {
            &self.v_cache
        }
    }

    /// Mutable form of [`HomeEdge::cache`].
    #[inline]
    fn cache_mut(&mut self, x: u32) -> &mut EpCache {
        if self.u == x {
            &mut self.u_cache
        } else {
            &mut self.v_cache
        }
    }

    /// Whether the edge is priced this phase: active, both ends in V^high.
    #[inline]
    fn in_high(&self) -> bool {
        !self.frozen && self.u_cache.class == class::HIGH && self.v_cache.class == class::HIGH
    }
}

/// A vertex, as held by its owner machine.
#[derive(Debug, Clone)]
struct OwnedVertex {
    v: u32,
    weight: f64,
    frozen_inc: f64,
    resid_deg: u32,
    frozen: bool,
    subscribers: Vec<u32>,
    // Per-phase scratch.
    class: u8,
    w_prime: f64,
    freeze_iter: u32,
    partial_y: f64,
}

const OWNED_BASE_WORDS: usize = 10;

/// Coordinator-only state (machine 0).
#[derive(Debug, Clone, Default)]
struct CoordState {
    phase: u32,
    prev_active: Option<u64>,
    decision: Option<PlanKind>,
    stalled: bool,
    hit_max_phases: bool,
    final_edges: Vec<(u32, u32, u32)>,
    final_vertices: Vec<(u32, f64)>,
    final_edge_x: Vec<(u32, f64)>,
    final_cover: Vec<u32>,
    final_stats: Option<FinalPhaseStats>,
}

impl CoordState {
    fn words(&self) -> usize {
        8 + 3 * self.final_edges.len()
            + 2 * self.final_vertices.len()
            + 2 * self.final_edge_x.len()
            + self.final_cover.len()
    }
}

/// Full per-machine state. `Clone` is the snapshot operation of the
/// crash-recovery engine ([`mpc_sim::checkpoint`]): checkpoints clone the
/// state, and replay restores the clone.
#[derive(Clone)]
struct MachineState {
    n: usize,
    home_edges: Vec<HomeEdge>,
    /// vertex id → indices into `home_edges` (static).
    index: EndpointIndex,
    /// Owned vertices, ascending by id.
    owned: Vec<OwnedVertex>,
    active_edges_local: u64,
    plan: Option<PlanMsg>,
    sim_vertices: Vec<(u32, f64)>,
    sim_edges: Vec<(u32, u32, u32, f64)>,
    coord: Option<Box<CoordState>>,
}

impl Words for MachineState {
    fn words(&self) -> usize {
        HOME_EDGE_WORDS * self.home_edges.len()
            + self.index.words()
            + self
                .owned
                .iter()
                .map(|o| OWNED_BASE_WORDS + o.subscribers.len())
                .sum::<usize>()
            + 2 * self.sim_vertices.len()
            + 4 * self.sim_edges.len()
            + self.plan.map_or(0, |_| 7)
            + self.coord.as_ref().map_or(0, |c| c.words())
            + 4
    }
}

impl MachineState {
    fn owned_mut(&mut self, v: u32) -> &mut OwnedVertex {
        let i = self
            .owned
            .binary_search_by_key(&v, |o| o.v)
            .expect("message for vertex not owned here");
        &mut self.owned[i]
    }
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// The vertex cover.
    pub cover: VertexCover,
    /// Finalized dual values in global edge-id order.
    pub certificate: DualCertificate,
    /// Compression phases executed.
    pub phases: usize,
    /// Whether the run stopped on the no-progress condition.
    pub stalled: bool,
    /// Whether the phase cap fired.
    pub hit_max_phases: bool,
    /// Final centralized phase statistics.
    pub final_stats: Option<FinalPhaseStats>,
    /// The audited execution trace: rounds, traffic, memory, violations.
    pub trace: ExecutionTrace,
    /// Host wall-clock seconds per MPC round, in execution order. Purely
    /// informational: host-dependent, never gated.
    pub round_wall: Vec<f64>,
    /// Host wall-clock per round split by phase (compute / route /
    /// spill), in execution order. Informational, like `round_wall`.
    pub host_phases: Vec<mpc_sim::HostPhase>,
}

impl DistributedOutcome {
    /// The structured model-cost report of this run, measured by the
    /// router of `cluster` (the config the run executed on).
    pub fn cost_report(&self, cluster: &MpcConfig) -> crate::mpc::stats::CostReport {
        crate::mpc::stats::CostReport::from_trace(self.phases, &self.trace, cluster)
    }
}

/// A cluster sizing that keeps the dataflow within the near-linear-memory
/// model for this instance and configuration: `S = Θ(n)` words plus
/// headroom for the final gathered instance, and enough machines both to
/// hold the input and to host the largest partition the phase schedule
/// can request.
pub fn recommended_cluster(wg: &WeightedGraph, config: &MpcMwvcConfig) -> MpcConfig {
    let n = wg.num_vertices();
    let e = wg.num_edges();
    let d0 = if n == 0 {
        0.0
    } else {
        2.0 * e as f64 / n as f64
    };
    let final_edges_cap = match config.switch {
        PhaseSwitch::PaperLog30 => e,
        PhaseSwitch::AvgDegree(t) => e.min(((t * n as f64) / 2.0).ceil() as usize),
        PhaseSwitch::EdgeBudget { words } => e.min(words / 3),
    };
    let s = (12 * n + 4 * (3 * final_edges_cap + 2 * n)).max(256);
    let input_words = 3 * e + 2 * n;
    let m0 = config.machines_for(d0);
    let machines = (12 * input_words).div_ceil(s).max(m0).max(2);
    MpcConfig::new(machines, s).with_faults(config.faults)
}

/// Runs Algorithm 2 as message-passing dataflow on `cluster_cfg`.
///
/// Panics (in strict enforcement) if any machine exceeds its memory or
/// per-round traffic budget; use [`recommended_cluster`] for a sizing that
/// stays within the model, or an audited config to measure violations.
/// Also panics on an unrecoverable injected fault — fault-tolerant callers
/// should use [`try_run_distributed`] instead.
pub fn run_distributed(
    wg: &WeightedGraph,
    config: &MpcMwvcConfig,
    cluster_cfg: MpcConfig,
) -> DistributedOutcome {
    try_run_distributed(wg, config, cluster_cfg)
        .unwrap_or_else(|e| panic!("unrecoverable cluster fault: {e}"))
}

/// Fault-tolerant form of [`run_distributed`]: identical execution, but
/// unrecoverable injected faults (spill retry budgets exhausted, replay
/// budgets exhausted, checkpoint I/O failures) surface as a typed
/// [`mpc_sim::ClusterError`] instead of panicking. Under any *handled*
/// fault plan the outcome's gated fields (cover, certificate, model
/// costs) are bit-identical to the fault-free run.
pub fn try_run_distributed(
    wg: &WeightedGraph,
    config: &MpcMwvcConfig,
    cluster_cfg: MpcConfig,
) -> Result<DistributedOutcome, mpc_sim::ClusterError> {
    config.validate();
    let n = wg.num_vertices();
    let m_total = wg.num_edges();
    let w = cluster_cfg.num_machines;

    // ── Input distribution (free: "the input is divided arbitrarily
    // among all machines"). Edges go to owner_of_key(edge id), vertices
    // (with their weights) to owner_of_key(vertex id).
    let mut states: Vec<MachineState> = distribute_edges(&wg.graph, w, HomeEdge::new)
        .into_iter()
        .enumerate()
        .map(|(id, EdgeHomes { edges, index })| MachineState {
            n,
            active_edges_local: edges.len() as u64,
            home_edges: edges,
            index,
            owned: Vec::new(),
            plan: None,
            sim_vertices: Vec::new(),
            sim_edges: Vec::new(),
            coord: (id == 0).then(|| Box::new(CoordState::default())),
        })
        .collect();
    for v in 0..n as u32 {
        let owner = owner_of_key(v as u64, w);
        states[owner].owned.push(OwnedVertex {
            v,
            weight: wg.weights[v],
            frozen_inc: 0.0,
            resid_deg: 0,
            frozen: false,
            subscribers: Vec::new(),
            class: 0,
            w_prime: 0.0,
            freeze_iter: 0,
            partial_y: 0.0,
        });
    }
    // `owned` is ascending by construction (vertex ids visited in order).
    let mut cluster: Cluster<MachineState, Msg> = {
        let mut it = states.into_iter();
        Cluster::new(cluster_cfg, move |_| {
            it.next().expect("one state per machine")
        })
    };

    // ── Startup: homes announce themselves to every endpoint's owner.
    cluster.try_round("subscribe", move |ctx, st, _inbox| {
        ctx.reserve_sends(st.index.num_endpoints());
        for (v, slots) in st.index.endpoints() {
            ctx.send(
                owner_of_key(v as u64, ctx.num_machines()),
                Msg::Subscribe {
                    v,
                    home: ctx.id as u32,
                    count: slots.len() as u32,
                },
            );
        }
    })?;

    loop {
        // ── stats: owners fold in deltas/subscriptions; homes report
        // active-edge counts to the coordinator.
        cluster.try_round("stats", |ctx, st, inbox| {
            for msg in inbox {
                match msg {
                    Msg::Subscribe { v, home, count } => {
                        let o = st.owned_mut(v);
                        o.subscribers.push(home);
                        o.resid_deg += count;
                    }
                    Msg::Delta { v, d_inc, d_deg } => {
                        let o = st.owned_mut(v);
                        o.frozen_inc += d_inc;
                        if !o.frozen {
                            o.resid_deg -= d_deg;
                        }
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
            let mut max_resid_deg = 0u32;
            let mut min_wp = f64::INFINITY;
            for o in &st.owned {
                if !o.frozen {
                    max_resid_deg = max_resid_deg.max(o.resid_deg);
                    min_wp = min_wp.min((o.weight - o.frozen_inc).max(0.0));
                }
            }
            ctx.send(
                0,
                Msg::OwnerStats {
                    max_resid_deg,
                    min_wp,
                },
            );
        })?;

        // ── plan: the coordinator evaluates the loop condition (2) and
        // broadcasts the phase parameters (2e) or Finish.
        cluster.try_round("plan", |ctx, st, inbox| {
            let Some(coord) = st.coord.as_mut() else {
                assert!(inbox.is_empty());
                return;
            };
            let mut total_active: u64 = 0;
            let mut delta = 0u32;
            let mut min_wp = f64::INFINITY;
            for m in inbox {
                match m {
                    Msg::ActiveCount { count } => total_active += count,
                    Msg::OwnerStats {
                        max_resid_deg,
                        min_wp: mw,
                    } => {
                        delta = delta.max(max_resid_deg);
                        min_wp = min_wp.min(mw);
                    }
                    other => unreachable!("plan round got {other:?}"),
                }
            }
            let d_avg = 2.0 * total_active as f64 / st.n.max(1) as f64;
            let switch = config
                .switch
                .should_switch(d_avg, st.n, total_active as usize);
            let stalled = coord.prev_active == Some(total_active) && total_active > 0;
            let over_cap = coord.phase as usize >= config.max_phases;
            let kind = if switch || stalled || over_cap {
                coord.stalled = stalled && !switch;
                coord.hit_max_phases = over_cap && !switch && !stalled;
                PlanKind::Finish
            } else {
                let m = config.machines_for(d_avg);
                assert!(
                    m <= ctx.num_machines(),
                    "phase needs {m} simulator machines but the cluster has {}; \
                     use recommended_cluster()",
                    ctx.num_machines()
                );
                let iterations = config.iterations.iterations(m, d_avg, config.epsilon);
                PlanKind::RunPhase {
                    m: m as u32,
                    iterations: iterations as u32,
                    cutoff: config.high_degree_cutoff(d_avg),
                    delta,
                    min_wp,
                }
            };
            coord.prev_active = Some(total_active);
            coord.decision = Some(kind);
            let phase = coord.phase;
            ctx.broadcast(Msg::Plan(Box::new(PlanMsg { phase, kind })));
        })?;

        let decision = cluster
            .state(0)
            .coord
            .as_ref()
            .and_then(|c| c.decision)
            .expect("coordinator always decides");

        match decision {
            PlanKind::RunPhase { .. } => run_phase_rounds(&mut cluster, config)?,
            PlanKind::Finish => {
                run_final_rounds(&mut cluster, config)?;
                break;
            }
        }
    }

    // ── Assembly: the output lives distributed across machines; gather
    // it host-parallel by ownership. Every vertex has exactly one owner
    // and every edge one home (both `owned` and `home_edges` are kept
    // ascending by id), so each output slot has a unique source and the
    // gather is deterministic under any scheduling.
    let round_wall = cluster.round_wall().to_vec();
    let host_phases = cluster.host_phases().to_vec();
    let (states, trace) = cluster.finish();
    let membership: Vec<bool> = (0..n)
        .into_par_iter()
        .map(|v| {
            let st = &states[owner_of_key(v as u64, w)];
            let i = st
                .owned
                .binary_search_by_key(&(v as u32), |o| o.v)
                .expect("every vertex has an owner");
            st.owned[i].frozen
        })
        .collect();
    let mut edge_x: Vec<f64> = (0..m_total)
        .into_par_iter()
        .map(|geid| {
            let st = &states[owner_of_key(geid as u64, w)];
            let i = st
                .home_edges
                .binary_search_by_key(&(geid as u32), |e| e.geid)
                .expect("every edge has a home");
            let e = &st.home_edges[i];
            if e.frozen {
                e.x_final
            } else {
                0.0
            }
        })
        .collect();
    let mut phases = 0usize;
    let mut stalled = false;
    let mut hit_max_phases = false;
    let mut final_stats = None;
    if let Some(c) = states.iter().find_map(|st| st.coord.as_deref()) {
        phases = c.phase as usize;
        stalled = c.stalled;
        hit_max_phases = c.hit_max_phases;
        final_stats = c.final_stats;
        for &(geid, x) in &c.final_edge_x {
            edge_x[geid as usize] = x;
        }
    }
    Ok(DistributedOutcome {
        cover: VertexCover::from_membership(membership),
        certificate: DualCertificate::new(edge_x),
        phases,
        stalled,
        hit_max_phases,
        final_stats,
        trace,
        round_wall,
        host_phases,
    })
}

/// The seven phase rounds after `plan`.
fn run_phase_rounds(
    cluster: &mut Cluster<MachineState, Msg>,
    cfg: &MpcMwvcConfig,
) -> Result<(), mpc_sim::ClusterError> {
    // ── classify (2a, 2b, 2d): owners split V^high/V^inactive, push
    // per-vertex facts to subscribed homes and vertex lists to simulators.
    cluster.try_round("classify", |ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::Plan(p) => st.plan = Some(*p),
                other => unreachable!("classify got {other:?}"),
            }
        }
        let plan = st.plan.expect("plan broadcast precedes classify");
        let PlanKind::RunPhase { m, cutoff, .. } = plan.kind else {
            unreachable!("phase rounds run only under RunPhase");
        };
        let part_seed = partition_seed(cfg.seed, plan.phase as usize);
        for i in 0..st.owned.len() {
            let (v, frozen) = (st.owned[i].v, st.owned[i].frozen);
            if frozen {
                continue;
            }
            let o = &mut st.owned[i];
            o.w_prime = (o.weight - o.frozen_inc).max(0.0);
            o.class = if (o.resid_deg as f64) >= cutoff {
                class::HIGH
            } else {
                class::INACTIVE
            };
            o.freeze_iter = u32::MAX;
            o.partial_y = 0.0;
            let info = Msg::VertexInfo {
                v,
                class: o.class,
                w_prime: o.w_prime,
                resid_deg: o.resid_deg,
            };
            for &home in &o.subscribers {
                ctx.send(home as usize, info.clone());
            }
            if o.class == class::HIGH {
                let part = VertexPartition::part_of_vertex(v, m as usize, part_seed);
                let w_prime = o.w_prime;
                ctx.send(part, Msg::SimVertex { v, w_prime });
            }
        }
    })?;

    // ── route (2c, 2f): homes refresh endpoint caches, compute x_{e,0}
    // and ship part-internal E[V^high] edges to their simulators.
    cluster.try_round("route", |ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::VertexInfo {
                    v,
                    class,
                    w_prime,
                    resid_deg,
                } => {
                    for &i in st.index.incident(v) {
                        *st.home_edges[i as usize].cache_mut(v) = EpCache {
                            class,
                            w_prime,
                            resid_deg,
                            freeze_iter: u32::MAX,
                            newly_frozen: false,
                        };
                    }
                }
                Msg::SimVertex { v, w_prime } => st.sim_vertices.push((v, w_prime)),
                other => unreachable!("route got {other:?}"),
            }
        }
        let plan = st.plan.expect("plan is set");
        let PlanKind::RunPhase {
            m, delta, min_wp, ..
        } = plan.kind
        else {
            unreachable!();
        };
        let part_seed = partition_seed(cfg.seed, plan.phase as usize);
        let n = st.n;
        for e in &mut st.home_edges {
            if !e.in_high() {
                continue;
            }
            e.x0 = cfg.init.phase_value(
                e.u_cache.w_prime,
                e.u_cache.resid_deg as usize,
                e.v_cache.w_prime,
                e.v_cache.resid_deg as usize,
                delta as usize,
                min_wp,
                n,
            );
            let pu = VertexPartition::part_of_vertex(e.u, m as usize, part_seed);
            let pv = VertexPartition::part_of_vertex(e.v, m as usize, part_seed);
            if pu == pv {
                ctx.send(
                    pu,
                    Msg::SimEdge {
                        geid: e.geid,
                        u: e.u,
                        v: e.v,
                        x0: e.x0,
                    },
                );
            }
        }
    })?;

    // ── simulate (2g): simulators assemble their LocalInstance and run I
    // compressed iterations, reporting freeze times to vertex owners.
    cluster.try_round("simulate", |ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::SimEdge { geid, u, v, x0 } => st.sim_edges.push((geid, u, v, x0)),
                other => unreachable!("simulate got {other:?}"),
            }
        }
        let plan = st.plan.expect("plan is set");
        let PlanKind::RunPhase { m, iterations, .. } = plan.kind else {
            unreachable!();
        };
        let iterations = iterations as usize;
        if !st.sim_vertices.is_empty() {
            st.sim_vertices.sort_unstable_by_key(|&(v, _)| v);
            st.sim_edges.sort_unstable_by_key(|&(geid, ..)| geid);
            let vertices: Vec<VertexId> = st.sim_vertices.iter().map(|&(v, _)| v).collect();
            let residual_weights: Vec<f64> = st.sim_vertices.iter().map(|&(_, w)| w).collect();
            let pos = |v: u32| -> u32 {
                vertices
                    .binary_search(&v)
                    .expect("edge endpoint was announced by its owner") as u32
            };
            let edges: Vec<LocalEdge> = st
                .sim_edges
                .iter()
                .map(|&(_, u, v, x0)| LocalEdge {
                    u: pos(u),
                    v: pos(v),
                    x0,
                })
                .collect();
            let inst = LocalInstance {
                vertices,
                residual_weights,
                edges,
            };
            let bias = cfg.bias.schedule(m as usize, iterations);
            let out = simulate_local(
                &inst,
                LocalSimParams {
                    epsilon: cfg.epsilon,
                    estimator_multiplier: m as f64,
                    iterations,
                    bias: &bias,
                },
                |gv, t| {
                    cfg.thresholds
                        .threshold(cfg.epsilon, cfg.seed, plan.phase as u64, gv, t)
                },
            );
            for (i, f) in out.freeze_iter.iter().enumerate() {
                let v = inst.vertices[i];
                let t = f.unwrap_or(iterations as u32);
                ctx.send(
                    owner_of_key(v as u64, ctx.num_machines()),
                    Msg::FreezeIter { v, t },
                );
            }
        }
        st.sim_vertices.clear();
        st.sim_edges.clear();
    })?;

    // ── forward: owners record local-sim freeze times and fan them out to
    // subscribed homes.
    cluster.try_round("forward", |ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::FreezeIter { v, t } => {
                    let o = st.owned_mut(v);
                    o.freeze_iter = t;
                    for &home in &o.subscribers {
                        ctx.send(home as usize, Msg::FreezeIter { v, t });
                    }
                }
                other => unreachable!("forward got {other:?}"),
            }
        }
    })?;

    // ── party (2h): homes price every E[V^high] edge (cross-partition
    // included) and report partial incident sums for still-active
    // endpoints.
    let growth_cfg = 1.0 / (1.0 - cfg.epsilon);
    cluster.try_round("party", |ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::FreezeIter { v, t } => {
                    for &i in st.index.incident(v) {
                        st.home_edges[i as usize].cache_mut(v).freeze_iter = t;
                    }
                }
                other => unreachable!("party got {other:?}"),
            }
        }
        let plan = st.plan.expect("plan is set");
        let PlanKind::RunPhase { iterations, .. } = plan.kind else {
            unreachable!();
        };
        for e in &mut st.home_edges {
            if !e.in_high() {
                continue;
            }
            let t_prime = e.u_cache.freeze_iter.min(e.v_cache.freeze_iter);
            e.x_mpc = e.x0 * growth_cfg.powi(t_prime.min(iterations) as i32);
        }
        // Per endpoint still active after the local run, Σ x^MPC over
        // its priced edges, summed in ascending local edge order.
        for (v, slots) in st.index.endpoints() {
            let mut partial: Option<f64> = None;
            for &i in slots {
                let e = &st.home_edges[i as usize];
                if e.in_high() && e.cache(v).freeze_iter >= iterations {
                    *partial.get_or_insert(0.0) += e.x_mpc;
                }
            }
            if let Some(y) = partial {
                ctx.send(
                    owner_of_key(v as u64, ctx.num_machines()),
                    Msg::PartialY { v, y },
                );
            }
        }
    })?;

    // ── correct (2i): owners decide the final freeze set of the phase.
    cluster.try_round("correct", |ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::PartialY { v, y } => st.owned_mut(v).partial_y += y,
                other => unreachable!("correct got {other:?}"),
            }
        }
        let plan = st.plan.expect("plan is set");
        let PlanKind::RunPhase { iterations, .. } = plan.kind else {
            unreachable!();
        };
        for i in 0..st.owned.len() {
            let o = &st.owned[i];
            if o.frozen || o.class != class::HIGH {
                continue;
            }
            let froze_locally = o.freeze_iter < iterations;
            let corrected = !froze_locally && o.partial_y >= o.w_prime;
            if froze_locally || corrected {
                let o = &mut st.owned[i];
                o.frozen = true;
                let v = o.v;
                for &home in &o.subscribers {
                    ctx.send(home as usize, Msg::FinalFrozen { v });
                }
            }
        }
    })?;

    // ── finalize (2j, 2k): homes finalize dual values of frozen edges and
    // push residual-weight/degree deltas back to owners; the coordinator
    // advances its phase counter.
    cluster.try_round("finalize", |ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::FinalFrozen { v } => {
                    for &i in st.index.incident(v) {
                        st.home_edges[i as usize].cache_mut(v).newly_frozen = true;
                    }
                }
                other => unreachable!("finalize got {other:?}"),
            }
        }
        for e in &mut st.home_edges {
            e.froze_now = false;
            if e.frozen || (!e.u_cache.newly_frozen && !e.v_cache.newly_frozen) {
                continue;
            }
            // Newly frozen endpoints are always HIGH; if the other side is
            // inactive this is a line (2j) zero-weight freeze.
            let both_high = e.u_cache.class == class::HIGH && e.v_cache.class == class::HIGH;
            e.frozen = true;
            e.froze_now = true;
            e.x_final = if both_high { e.x_mpc } else { 0.0 };
            st.active_edges_local -= 1;
        }
        // Per endpoint of an edge frozen this round: the dual mass it
        // gains and the residual degree it loses to newly frozen
        // neighbours, summed in ascending local edge order.
        for (v, slots) in st.index.endpoints() {
            let mut delta: Option<(f64, u32)> = None;
            for &i in slots {
                let e = &st.home_edges[i as usize];
                if e.froze_now {
                    let other = if e.u == v { &e.v_cache } else { &e.u_cache };
                    let d = delta.get_or_insert((0.0, 0));
                    d.0 += e.x_final;
                    d.1 += u32::from(other.newly_frozen);
                }
            }
            if let Some((d_inc, d_deg)) = delta {
                ctx.send(
                    owner_of_key(v as u64, ctx.num_machines()),
                    Msg::Delta { v, d_inc, d_deg },
                );
            }
        }
        if let Some(coord) = st.coord.as_mut() {
            coord.phase += 1;
        }
    })
}

/// The three closing rounds after a `Finish` plan.
fn run_final_rounds(
    cluster: &mut Cluster<MachineState, Msg>,
    cfg: &MpcMwvcConfig,
) -> Result<(), mpc_sim::ClusterError> {
    // ── gather (3): the residual instance moves to the coordinator.
    cluster.try_round("gather", |ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::Plan(p) => st.plan = Some(*p),
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
                        w_prime: (o.weight - o.frozen_inc).max(0.0),
                    },
                );
            }
        }
    })?;

    // ── solve (3): one machine runs the centralized algorithm on the
    // residual instance (local computation is free) and reports freezes.
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
        coord.final_vertices.sort_unstable_by_key(|&(v, _)| v);
        coord.final_edges.sort_unstable_by_key(|&(geid, ..)| geid);
        let rest: Vec<u32> = coord.final_vertices.iter().map(|&(v, _)| v).collect();
        let wp: Vec<f64> = coord.final_vertices.iter().map(|&(_, w)| w).collect();
        let pos = |v: u32| -> u32 { rest.binary_search(&v).expect("endpoint is nonfrozen") as u32 };
        let mut builder = GraphBuilder::new(rest.len());
        for &(_, u, v) in &coord.final_edges {
            builder.add_edge(pos(u), pos(v));
        }
        let f_graph = builder.build();
        let f_eidx = EdgeIndex::build(&f_graph);
        let fdeg: Vec<usize> = f_graph.vertices().map(|v| f_graph.degree(v)).collect();
        let x0 = cfg.init.initial_values(&f_graph, &f_eidx, &wp, &fdeg);
        let phase_key = coord.phase as u64 + 1_000_000;
        let res = run_centralized_raw(
            &f_graph,
            &f_eidx,
            &wp,
            x0,
            CentralizedParams::new(cfg.epsilon),
            |lv, t| {
                cfg.thresholds
                    .threshold(cfg.epsilon, cfg.seed, phase_key, rest[lv as usize], t)
            },
        );
        // Map local edge values back to global edge ids. `final_edges` is
        // sorted by global edge id, i.e. lexicographically by global
        // endpoints; the local canonical order is lexicographic in the
        // remapped endpoints, and the remap is monotone — so position i in
        // one list is position i in the other.
        debug_assert_eq!(f_eidx.num_edges(), coord.final_edges.len());
        for (feid, fe) in f_eidx.edges().iter().enumerate() {
            let (geid, gu, gv) = coord.final_edges[feid];
            debug_assert_eq!(
                (gu.min(gv), gu.max(gv)),
                (rest[fe.u() as usize], rest[fe.v() as usize]),
                "canonical edge orders must align"
            );
            coord.final_edge_x.push((geid, res.certificate.x[feid]));
        }
        for &lv in res.cover.vertices() {
            let v = rest[lv as usize];
            coord.final_cover.push(v);
            ctx.send(
                owner_of_key(v as u64, ctx.num_machines()),
                Msg::FrozenNotice { v },
            );
        }
        coord.final_stats = Some(FinalPhaseStats {
            vertices: rest.len(),
            edges: f_eidx.num_edges(),
            iterations: res.iterations,
        });
    })?;

    // ── apply: owners flip the final frozen flags.
    cluster.try_round("apply", |_ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::FrozenNotice { v } => st.owned_mut(v).frozen = true,
                other => unreachable!("apply got {other:?}"),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpc::reference::run_reference;
    use crate::mpc::stats::round_cost;
    use mwvc_graph::generators::{gnm, gnp};
    use mwvc_graph::{Graph, WeightModel};

    const EPS: f64 = 0.1;

    fn instance(n: usize, m: usize, seed: u64) -> WeightedGraph {
        let g = gnm(n, m, seed);
        let w = WeightModel::Uniform { lo: 1.0, hi: 6.0 }.sample(&g, seed ^ 1);
        WeightedGraph::new(g, w)
    }

    #[test]
    fn distributed_matches_reference() {
        let wg = instance(600, 9_600, 5); // d = 32
        let cfg = MpcMwvcConfig::practical(EPS, 17);
        let cluster = recommended_cluster(&wg, &cfg);
        let dist = run_distributed(&wg, &cfg, cluster);
        let reference = run_reference(&wg, &cfg);
        assert_eq!(dist.phases, reference.num_phases());
        assert_eq!(dist.cover, reference.cover, "covers must agree");
        assert_eq!(dist.certificate.x.len(), reference.certificate.x.len());
        for (a, b) in dist.certificate.x.iter().zip(&reference.certificate.x) {
            assert!(
                (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
                "edge dual values diverged: {a} vs {b}"
            );
        }
        assert_eq!(dist.stalled, reference.stalled);
        assert!(dist.trace.is_clean(), "no model violations expected");
    }

    #[test]
    fn cover_is_valid_and_certified() {
        let wg = instance(400, 6_400, 9);
        let cfg = MpcMwvcConfig::practical(EPS, 3);
        let dist = run_distributed(&wg, &cfg, recommended_cluster(&wg, &cfg));
        dist.cover.verify(&wg.graph).expect("valid cover");
        let eidx = EdgeIndex::build(&wg.graph);
        let ratio = dist
            .certificate
            .certified_ratio(&wg, &eidx, dist.cover.weight(&wg));
        assert!(ratio <= 2.0 + 30.0 * EPS, "certified ratio {ratio}");
    }

    #[test]
    fn round_count_matches_cost_model() {
        let wg = instance(500, 8_000, 13);
        let cfg = MpcMwvcConfig::practical(EPS, 29);
        let cluster = recommended_cluster(&wg, &cfg);
        let dist = run_distributed(&wg, &cfg, cluster);
        assert_eq!(
            dist.trace.num_rounds(),
            dist.phases * round_cost::PER_PHASE + round_cost::FINAL,
            "trace rounds vs cost model (phases = {})",
            dist.phases
        );
        assert!(dist.phases >= 1);
        // The structured report agrees with the raw trace and cluster.
        let report = dist.cost_report(&cluster);
        assert_eq!(report.phases, dist.phases);
        assert_eq!(report.mpc_rounds, dist.trace.num_rounds());
        let t = report.traffic.expect("distributed runs carry traffic");
        assert_eq!(t.total_message_words, dist.trace.total_traffic());
        assert_eq!(t.peak_resident_words, dist.trace.peak_resident());
        assert_eq!(t.machines, cluster.num_machines);
        assert_eq!(t.violations, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let wg = instance(300, 4_800, 21);
        let cfg = MpcMwvcConfig::practical(EPS, 5);
        let cluster = recommended_cluster(&wg, &cfg);
        let a = run_distributed(&wg, &cfg, cluster);
        let b = run_distributed(&wg, &cfg, cluster);
        assert_eq!(a.cover, b.cover);
        assert_eq!(a.certificate, b.certificate);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn paper_profile_goes_straight_to_final_phase() {
        let wg = instance(200, 2_000, 31);
        let cfg = MpcMwvcConfig::paper(EPS, 7);
        let dist = run_distributed(&wg, &cfg, recommended_cluster(&wg, &cfg));
        assert_eq!(dist.phases, 0);
        assert!(dist.final_stats.is_some());
        dist.cover.verify(&wg.graph).expect("valid cover");
        let reference = run_reference(&wg, &cfg);
        assert_eq!(dist.cover, reference.cover);
    }

    #[test]
    fn empty_graph_handled() {
        let wg = WeightedGraph::unweighted(Graph::empty(50));
        let cfg = MpcMwvcConfig::practical(EPS, 1);
        let dist = run_distributed(&wg, &cfg, MpcConfig::new(4, 4096));
        assert_eq!(dist.cover.size(), 0);
        assert_eq!(dist.phases, 0);
        assert!(dist.final_stats.is_none());
    }

    #[test]
    fn sparse_graph_single_final_phase() {
        // Below the practical switch threshold from the start.
        let g = gnp(400, 0.005, 3); // d ~ 2
        let w = WeightModel::Exponential { mean: 3.0 }.sample(&g, 4);
        let wg = WeightedGraph::new(g, w);
        let cfg = MpcMwvcConfig::practical(EPS, 11);
        let dist = run_distributed(&wg, &cfg, recommended_cluster(&wg, &cfg));
        assert_eq!(dist.phases, 0);
        let reference = run_reference(&wg, &cfg);
        assert_eq!(dist.cover, reference.cover);
        for (a, b) in dist.certificate.x.iter().zip(&reference.certificate.x) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn memory_stays_within_model() {
        let wg = instance(800, 12_800, 41);
        let cfg = MpcMwvcConfig::practical(EPS, 13);
        let cluster = recommended_cluster(&wg, &cfg);
        let dist = run_distributed(&wg, &cfg, cluster);
        assert!(dist.trace.is_clean());
        assert!(dist.trace.peak_resident() <= cluster.memory_words);
        assert!(dist.trace.peak_traffic() <= cluster.memory_words);
        // Near-linear regime sanity: S = O(n) (with our constants).
        assert!(cluster.memory_words < 120 * wg.num_vertices());
    }

    #[test]
    #[should_panic(expected = "simulator machines")]
    fn too_few_machines_panics() {
        let wg = instance(400, 25_000, 43); // d = 125 -> m ~ 11
        let cfg = MpcMwvcConfig::practical(EPS, 3);
        let _ = run_distributed(&wg, &cfg, MpcConfig::new(2, 1 << 22));
    }
}
