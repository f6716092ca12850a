//! Algorithm 2 executed as message-passing dataflow on an [`mpc_sim`]
//! cluster, with every model constraint enforced and every round recorded.
//!
//! # Roles
//!
//! Every machine plays up to four roles at once:
//!
//! * **edge home** — each edge `e` lives permanently on machine
//!   `owner_of_key(edge_id)`; homes hold the edge's dual state and one
//!   cache of each endpoint's per-phase facts,
//! * **vertex owner** — each vertex `v` lives on `owner_of_key(v)`; owners
//!   hold the authoritative weight, residual weight, residual degree and
//!   frozen flag, plus one static table of the homes subscribed to their
//!   vertices, keyed by home (built in the first `stats` round from the
//!   `Subscribe` inbox),
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
//! Every owner ↔ home exchange (`subscribe`, `classify`, `forward`,
//! `party`, `correct`, `finalize`) sends by destination: a home walks its
//! endpoints grouped by owner ([`EndpointTable::by_owner`]), an owner its
//! subscriptions grouped by home, so each machine emits one run per
//! destination, in ascending vertex id.
//!
//! The host only schedules closures and reads machine 0's broadcast
//! decision, and builds two tables: the owner index (each vertex's
//! position in its owner's list, a memo of `owner_of_key`, built once at
//! ingest) and each phase's partition table (a memo of
//! `VertexPartition::part_of_vertex` under the phase's seed). Every
//! machine could evaluate either itself (shared randomness); neither
//! carries data or sends a message, and all data flows through the
//! audited router.

use crate::centralized::{run_algorithm1, CentralizedParams};
use crate::certificate::DualCertificate;
use crate::cover::VertexCover;
use crate::mpc::config::{MpcMwvcConfig, PhaseSwitch};
use crate::mpc::ingest::{
    distribute_edges, distribute_vertices, gather_by_owner, local_instance, ByDestination,
    EdgeHomes, EndpointTable,
};
use crate::mpc::local_sim::{simulate_local, LocalEdge, LocalInstance, LocalSimParams};
use crate::mpc::reference::partition_seed;
use crate::mpc::stats::FinalPhaseStats;
use mpc_sim::{owner_of_key, Cluster, ExecutionTrace, MpcConfig, Words};
use mwvc_graph::{Graph, VertexPartition, WeightedGraph};

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

/// The per-phase facts a home keeps of one endpoint of its edges, as its
/// owner last sent them.
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
    /// Endpoint indices of `u < v` in the machine's [`EndpointTable`].
    ends: [u32; 2],
    frozen: bool,
    /// x_{e,0} after `route`, x^MPC after `party`, and the finalized dual
    /// once `finalize` freezes the edge (0 for a line (2j) zero-weight
    /// freeze).
    x: f64,
}

/// The model's charge per edge record: the id, both endpoints, the frozen
/// flag, the three dual values and two five-word endpoint caches. The host
/// keeps one cache per endpoint instead of two per edge; the charge is the
/// model's, not the host layout's.
const HOME_EDGE_WORDS: usize = 17;

// The edge record is the bulk of every machine's resident memory, and the
// home rounds sweep the whole array: keep it within 32 bytes, and the
// per-endpoint cache at 24.
const _: () = {
    assert!(std::mem::size_of::<HomeEdge>() <= 32);
    assert!(std::mem::size_of::<EpCache>() == 24);
};

impl HomeEdge {
    /// The still-active edge `geid` at ingest, with the endpoint indices
    /// of its two ends.
    fn new(geid: u32, _: [u32; 2], ends: [u32; 2]) -> Self {
        Self {
            geid,
            ends,
            frozen: false,
            x: 0.0,
        }
    }

    /// Both endpoints' indices.
    #[inline]
    fn ends(&self) -> [usize; 2] {
        self.ends.map(|i| i as usize)
    }
}

/// Whether an edge with ends cached as `cu`, `cv` is priced this phase:
/// active, both ends in V^high.
#[inline]
fn in_high(e: &HomeEdge, cu: &EpCache, cv: &EpCache) -> bool {
    !e.frozen && cu.class == class::HIGH && cv.class == class::HIGH
}

/// A vertex, as held by its owner machine.
#[derive(Debug, Clone)]
struct OwnedVertex {
    v: u32,
    weight: f64,
    frozen_inc: f64,
    resid_deg: u32,
    frozen: bool,
    // Per-phase scratch.
    class: u8,
    w_prime: f64,
    freeze_iter: u32,
    partial_y: f64,
}

const OWNED_BASE_WORDS: usize = 10;

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
    phase: u32,
    prev_active: Option<u64>,
    decision: Option<PlanMsg>,
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
    /// The distinct endpoints of `home_edges`, with their local degrees
    /// (static).
    endpoints: EndpointTable,
    /// Per endpoint index, that vertex's facts as its owner last sent
    /// them.
    caches: Vec<EpCache>,
    /// Owned vertices, ascending by id.
    owned: Vec<OwnedVertex>,
    /// Per home, the positions in `owned` of the vertices it subscribed
    /// to, ascending (static once the first `stats` round fills it).
    subscriptions: ByDestination,
    active_edges_local: u64,
    plan: Option<PlanMsg>,
    sim_vertices: Vec<(u32, f64)>,
    sim_edges: Vec<(u32, u32, u32, f64)>,
    coord: Option<Box<CoordState>>,
}

impl Words for MachineState {
    fn words(&self) -> usize {
        HOME_EDGE_WORDS * self.home_edges.len()
            + self.endpoints.words()
            + OWNED_BASE_WORDS * self.owned.len()
            + self.subscriptions.len()
            + 2 * self.sim_vertices.len()
            + 4 * self.sim_edges.len()
            + self.plan.map_or(0, |_| 7)
            + self.coord.as_ref().map_or(0, |c| c.words())
            + 4
    }
}

impl MachineState {
    /// The cache of endpoint `v`, for a message its owner sent here.
    fn cache_of(&mut self, v: u32) -> &mut EpCache {
        let i = self.endpoints.index_of(v);
        &mut self.caches[i.expect("message for a vertex no local edge touches")]
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
/// budgets exhausted) surface as a typed
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
    // (with their weights) to owner_of_key(vertex id), each owner's list
    // ascending by id.
    let (owned, owner_index) = distribute_vertices(n, w, |v| OwnedVertex {
        v,
        weight: wg.weights[v],
        frozen_inc: 0.0,
        resid_deg: 0,
        frozen: false,
        class: 0,
        w_prime: 0.0,
        freeze_iter: 0,
        partial_y: 0.0,
    });
    let owner_index = &owner_index[..];
    let states: Vec<MachineState> = distribute_edges(&wg.graph, w, HomeEdge::new)
        .into_iter()
        .zip(owned)
        .enumerate()
        .map(
            |(id, (EdgeHomes { edges, endpoints }, owned))| MachineState {
                n,
                active_edges_local: edges.len() as u64,
                home_edges: edges,
                caches: vec![EpCache::default(); endpoints.len()],
                endpoints,
                owned,
                subscriptions: ByDestination::default(),
                plan: None,
                sim_vertices: Vec::new(),
                sim_edges: Vec::new(),
                coord: (id == 0).then(|| Box::new(CoordState::default())),
            },
        )
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
        let (ids, degrees) = (st.endpoints.ids(), st.endpoints.degrees());
        for (owner, group) in st.endpoints.by_owner().groups() {
            for &i in group {
                let i = i as usize;
                ctx.send(
                    owner,
                    Msg::Subscribe {
                        v: ids[i],
                        home: ctx.id as u32,
                        count: degrees[i],
                    },
                );
            }
        }
    })?;

    loop {
        // ── stats: owners fold in deltas/subscriptions; homes report
        // active-edge counts to the coordinator. The `Subscribe` inbox is
        // home-major (sender order) and ascending by id within a home, so
        // the subscription table fills in one append pass.
        cluster.try_round("stats", |ctx, st, inbox| {
            for msg in inbox {
                match msg {
                    Msg::Subscribe { v, home, count } => {
                        owned_at(&mut st.owned, owner_index, v).resid_deg += count;
                        let i = owner_index[v as usize];
                        st.subscriptions.push(home as usize, i);
                    }
                    Msg::Delta { v, d_inc, d_deg } => {
                        let o = owned_at(&mut st.owned, owner_index, v);
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
            let switch = config.switch.should_switch(d_avg, st.n);
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
            let plan = PlanMsg {
                phase: coord.phase,
                kind,
            };
            coord.decision = Some(plan);
            ctx.broadcast(Msg::Plan(Box::new(plan)));
        })?;

        let plan = cluster
            .state(0)
            .coord
            .as_ref()
            .and_then(|c| c.decision)
            .expect("coordinator always decides");

        match plan.kind {
            PlanKind::RunPhase { .. } => {
                run_phase_rounds(&mut cluster, config, n, owner_index, plan)?
            }
            PlanKind::Finish => {
                run_final_rounds(&mut cluster, config, owner_index)?;
                break;
            }
        }
    }

    // ── Assembly: the output lives distributed across machines. Vertex
    // `v` is owned by `owner_of_key(v)` and edge `e` homed on
    // `owner_of_key(e)`, and both `owned` and `home_edges` stay ascending
    // by id, so one merge over the machines' arrays fills each output
    // slot from its unique source, the same under any scheduling.
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
        |e| if e.frozen { e.x } else { 0.0 },
        "every edge has a home",
    );
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

/// The seven phase rounds after `plan`, on an `n`-vertex input.
fn run_phase_rounds(
    cluster: &mut Cluster<MachineState, Msg>,
    cfg: &MpcMwvcConfig,
    n: usize,
    owner_index: &[u32],
    plan: PlanMsg,
) -> Result<(), mpc_sim::ClusterError> {
    // Shared randomness (2f), drawn once per phase on the host: `parts[v]`
    // is `part_of_vertex(v, m, seed of this phase)`, which any machine
    // could compute itself. Host scratch, not an accounted word.
    let PlanKind::RunPhase { m, .. } = plan.kind else {
        unreachable!("phase rounds run only under RunPhase");
    };
    let parts =
        VertexPartition::table(n, m as usize, partition_seed(cfg.seed, plan.phase as usize));

    // ── classify (2a, 2b, 2d): owners split V^high/V^inactive, push
    // per-vertex facts to subscribed homes, home by home, then vertex lists
    // to simulators.
    cluster.try_round("classify", |ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::Plan(p) => st.plan = Some(*p),
                other => unreachable!("classify got {other:?}"),
            }
        }
        let plan = st.plan.expect("plan broadcast precedes classify");
        let PlanKind::RunPhase { cutoff, .. } = plan.kind else {
            unreachable!("phase rounds run only under RunPhase");
        };
        for o in st.owned.iter_mut().filter(|o| !o.frozen) {
            o.w_prime = (o.weight - o.frozen_inc).max(0.0);
            o.class = if (o.resid_deg as f64) >= cutoff {
                class::HIGH
            } else {
                class::INACTIVE
            };
            o.freeze_iter = u32::MAX;
            o.partial_y = 0.0;
        }
        for (home, group) in st.subscriptions.groups() {
            for &i in group {
                let o = &st.owned[i as usize];
                if !o.frozen {
                    ctx.send(
                        home,
                        Msg::VertexInfo {
                            v: o.v,
                            class: o.class,
                            w_prime: o.w_prime,
                            resid_deg: o.resid_deg,
                        },
                    );
                }
            }
        }
        for o in &st.owned {
            if !o.frozen && o.class == class::HIGH {
                let (v, w_prime) = (o.v, o.w_prime);
                ctx.send(parts[v as usize] as usize, Msg::SimVertex { v, w_prime });
            }
        }
    })?;

    // ── route (2c, 2f): homes refresh endpoint caches, compute x_{e,0}
    // and ship part-internal E[V^high] edges to their simulators.
    //
    // Each home round below works the same way: it drains its inbox
    // straight into the endpoint caches (one per endpoint, found through
    // the endpoint table), then sweeps its edges once in ascending local
    // index, reading both ends' caches. A round that reports per-vertex
    // sums adds each edge's share into scratch indexed by endpoint as it
    // goes, so every vertex's terms are summed in ascending local edge
    // order, and sends one message per filled entry, owner group by owner
    // group and in ascending endpoint index within a group, so each
    // owner's stream is in ascending vertex id. The scratch lives for one
    // round (a replay rebuilds it); it is not an accounted word.
    cluster.try_round("route", |ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::VertexInfo {
                    v,
                    class,
                    w_prime,
                    resid_deg,
                } => {
                    *st.cache_of(v) = EpCache {
                        class,
                        w_prime,
                        resid_deg,
                        freeze_iter: u32::MAX,
                        newly_frozen: false,
                    };
                }
                Msg::SimVertex { v, w_prime } => st.sim_vertices.push((v, w_prime)),
                other => unreachable!("route got {other:?}"),
            }
        }
        let plan = st.plan.expect("plan is set");
        let PlanKind::RunPhase { delta, min_wp, .. } = plan.kind else {
            unreachable!();
        };
        let n = st.n;
        let (ids, caches) = (st.endpoints.ids(), &st.caches);
        for e in &mut st.home_edges {
            let [a, b] = e.ends();
            let (cu, cv) = (&caches[a], &caches[b]);
            if !in_high(e, cu, cv) {
                continue;
            }
            e.x = cfg.init.phase_value(
                cu.w_prime,
                cu.resid_deg as usize,
                cv.w_prime,
                cv.resid_deg as usize,
                delta as usize,
                min_wp,
                n,
            );
            let (u, v) = (ids[a], ids[b]);
            let pu = parts[u as usize];
            if pu == parts[v as usize] {
                ctx.send(
                    pu as usize,
                    Msg::SimEdge {
                        geid: e.geid,
                        u,
                        v,
                        x0: e.x,
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
            let (vertices, residual_weights, pairs) = local_instance(
                st.n,
                &mut st.sim_vertices,
                &mut st.sim_edges,
                |&(geid, u, v, _)| (geid, [u, v]),
                "edge endpoint was announced by its owner",
            );
            let edges: Vec<LocalEdge> = pairs
                .into_iter()
                .zip(&st.sim_edges)
                .map(|((u, v), &(.., x0))| LocalEdge { u, v, x0 })
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
                |gv, t, y, w| {
                    cfg.thresholds
                        .freezes(cfg.epsilon, cfg.seed, plan.phase as u64, gv, t, (y, w))
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
    // subscribed homes, home by home. `classify` reset every active
    // vertex's time to `u32::MAX`, which no simulator reports, so the
    // vertices with another time are exactly those the simulators priced.
    cluster.try_round("forward", |ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::FreezeIter { v, t } => owned_at(&mut st.owned, owner_index, v).freeze_iter = t,
                other => unreachable!("forward got {other:?}"),
            }
        }
        for (home, group) in st.subscriptions.groups() {
            for &i in group {
                let o = &st.owned[i as usize];
                if !o.frozen && o.freeze_iter != u32::MAX {
                    ctx.send(
                        home,
                        Msg::FreezeIter {
                            v: o.v,
                            t: o.freeze_iter,
                        },
                    );
                }
            }
        }
    })?;

    // ── party (2h): homes price every E[V^high] edge (cross-partition
    // included) and report, per endpoint still active after the local
    // run, Σ x^MPC over its priced edges.
    let growth_cfg = 1.0 / (1.0 - cfg.epsilon);
    cluster.try_round("party", |ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::FreezeIter { v, t } => st.cache_of(v).freeze_iter = t,
                other => unreachable!("party got {other:?}"),
            }
        }
        let plan = st.plan.expect("plan is set");
        let PlanKind::RunPhase { iterations, .. } = plan.kind else {
            unreachable!();
        };
        let mut partial: Vec<Option<f64>> = vec![None; st.caches.len()];
        let caches = &st.caches;
        for e in &mut st.home_edges {
            let [a, b] = e.ends();
            let (cu, cv) = (&caches[a], &caches[b]);
            if !in_high(e, cu, cv) {
                continue;
            }
            let t_prime = cu.freeze_iter.min(cv.freeze_iter);
            e.x *= growth_cfg.powi(t_prime.min(iterations) as i32);
            for (i, c) in [(a, cu), (b, cv)] {
                if c.freeze_iter >= iterations {
                    *partial[i].get_or_insert(0.0) += e.x;
                }
            }
        }
        let ids = st.endpoints.ids();
        for (owner, group) in st.endpoints.by_owner().groups() {
            for &i in group {
                if let Some(y) = partial[i as usize] {
                    let v = ids[i as usize];
                    ctx.send(owner, Msg::PartialY { v, y });
                }
            }
        }
    })?;

    // ── correct (2i): owners decide the final freeze set of the phase,
    // then notify subscribed homes, home by home. `froze` is round scratch
    // (a replay rebuilds it), not an accounted word.
    cluster.try_round("correct", |ctx, st, inbox| {
        for msg in inbox {
            match msg {
                Msg::PartialY { v, y } => owned_at(&mut st.owned, owner_index, v).partial_y += y,
                other => unreachable!("correct got {other:?}"),
            }
        }
        let plan = st.plan.expect("plan is set");
        let PlanKind::RunPhase { iterations, .. } = plan.kind else {
            unreachable!();
        };
        let mut froze = vec![false; st.owned.len()];
        for (o, froze) in st.owned.iter_mut().zip(&mut froze) {
            if o.frozen || o.class != class::HIGH {
                continue;
            }
            let froze_locally = o.freeze_iter < iterations;
            let corrected = !froze_locally && o.partial_y >= o.w_prime;
            if froze_locally || corrected {
                o.frozen = true;
                *froze = true;
            }
        }
        for (home, group) in st.subscriptions.groups() {
            for &i in group {
                if froze[i as usize] {
                    let v = st.owned[i as usize].v;
                    ctx.send(home, Msg::FinalFrozen { v });
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
                Msg::FinalFrozen { v } => st.cache_of(v).newly_frozen = true,
                other => unreachable!("finalize got {other:?}"),
            }
        }
        // Per endpoint of an edge frozen this round: the dual mass it
        // gains and the residual degree it loses to newly frozen
        // neighbours.
        let mut delta: Vec<Option<(f64, u32)>> = vec![None; st.caches.len()];
        let caches = &st.caches;
        for e in &mut st.home_edges {
            // The caches hold every notice of this round, so each side
            // reads the other's final flag.
            let [a, b] = e.ends();
            let (cu, cv) = (&caches[a], &caches[b]);
            if e.frozen || (!cu.newly_frozen && !cv.newly_frozen) {
                continue;
            }
            // Newly frozen endpoints are always HIGH; if the other side is
            // inactive this is a line (2j) zero-weight freeze. Otherwise
            // the edge was priced this phase and `x` holds x^MPC.
            if !(cu.class == class::HIGH && cv.class == class::HIGH) {
                e.x = 0.0;
            }
            e.frozen = true;
            st.active_edges_local -= 1;
            for (i, other) in [(a, cv), (b, cu)] {
                let d = delta[i].get_or_insert((0.0, 0));
                d.0 += e.x;
                d.1 += u32::from(other.newly_frozen);
            }
        }
        let ids = st.endpoints.ids();
        for (owner, group) in st.endpoints.by_owner().groups() {
            for &i in group {
                if let Some((d_inc, d_deg)) = delta[i as usize] {
                    let v = ids[i as usize];
                    ctx.send(owner, Msg::Delta { v, d_inc, d_deg });
                }
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
    owner_index: &[u32],
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
        let ids = st.endpoints.ids();
        for e in &st.home_edges {
            if !e.frozen {
                let [a, b] = e.ends();
                ctx.send(
                    0,
                    Msg::FinalEdge {
                        geid: e.geid,
                        u: ids[a],
                        v: ids[b],
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
        let (rest, wp, edges) = local_instance(
            st.n,
            &mut coord.final_vertices,
            &mut coord.final_edges,
            |&(geid, u, v)| (geid, [u, v]),
            "endpoint is nonfrozen",
        );
        let res = run_algorithm1(
            &Graph::from_edges(rest.len(), &edges),
            &wp,
            |lv| rest[lv as usize],
            CentralizedParams::new(cfg.epsilon),
            cfg.init,
            cfg.thresholds,
            (cfg.seed, coord.phase as u64 + 1_000_000),
        );
        // `edges` is in the residual graph's canonical order, so dual `i`
        // belongs to `final_edges[i]`.
        for (&(geid, ..), &x) in coord.final_edges.iter().zip(&res.certificate.x) {
            coord.final_edge_x.push((geid, x));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpc::reference::run_reference;
    use crate::mpc::stats::round_cost;
    use mwvc_graph::generators::{gnm, gnp};
    use mwvc_graph::{EdgeIndex, WeightModel};

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
