//! Algorithm 2 executed as message-passing dataflow on an [`mpc_sim`]
//! cluster, with every model constraint enforced and every round recorded.
//!
//! The owner/home skeleton ([`crate::mpc::dataflow`]) runs the layout,
//! ingest, `subscribe`, `stats`, `plan`, the closing rounds and the
//! assembly; this module supplies Algorithm 2's records, messages, plan
//! rule (the loop condition (2)) and phase rounds. During a phase with `m`
//! machines, machines `0..m` are also **simulators**: they receive the
//! induced subgraphs of the random parts and run
//! [`crate::mpc::local_sim::simulate_local`]. Seven rounds follow each
//! `plan` that runs a phase:
//!
//! ```text
//! classify    owners → homes,sims V^high/V^inactive split, w', d(v) (2a,2b,2d)
//! route       homes → sims        induced-part edges with x_{e,0}    (2c,2f)
//! simulate    sims → owners       freeze iterations from local runs  (2g)
//! forward     owners → homes      freeze iterations fan-out
//! party       homes → owners      per-vertex partial Σ x^MPC_e       (2h)
//! correct     owners → homes      over-freeze corrections            (2i)
//! finalize    homes → owners      edge finalization + residual deltas(2j,2k)
//! ```
//!
//! Every owner ↔ home exchange sends by destination: a home walks its
//! endpoints grouped by owner ([`EndpointTable::by_owner`]), an owner its
//! subscriptions grouped by home, each in ascending vertex id. The host
//! also builds each phase's partition table, a memo of
//! `VertexPartition::part_of_vertex` under the phase's seed (shared
//! randomness); it carries no data and sends no message.

use crate::centralized::{run_algorithm1, CentralizedParams, CentralizedResult};
use crate::certificate::DualCertificate;
use crate::cover::VertexCover;
use crate::mpc::config::{MpcMwvcConfig, PhaseSwitch};
use crate::mpc::dataflow::{
    self, owned_at, Dataflow, EdgeRecord, Exit, Machine, Plan, PlanInput, Shared, VertexRecord,
};
use crate::mpc::executor::{Executor, ExecutorOutcome};
use crate::mpc::ingest::{local_instance, EndpointTable};
use crate::mpc::local_sim::{simulate_local, LocalEdge, LocalInstance, LocalSimParams};
use crate::mpc::reference::partition_seed;
use crate::mpc::stats::FinalPhaseStats;
use mpc_sim::{owner_of_key, Cluster, ClusterError, ExecutionTrace, MpcConfig, Words};
use mwvc_graph::{Graph, VertexId, VertexPartition, WeightedGraph};

/// Vertex classes within a phase.
mod class {
    pub const HIGH: u8 = 1;
    pub const INACTIVE: u8 = 2;
}

/// The parameters of a phase, broadcast by the coordinator (2e).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct RunPhase {
    m: u32,
    iterations: u32,
    cutoff: f64,
    /// Residual maximum degree (for the `w/Δ` init scheme).
    delta: u32,
    /// Minimum nonfrozen residual weight (for the `1/n` init scheme).
    min_wp: f64,
}

/// All messages of the dataflow. The phase plan — five scalars broadcast
/// `m` times per phase — is boxed so the rare fat variant does not size
/// every per-edge/per-vertex message on the wire; the hot variants stay
/// within 24 bytes (pinned below).
#[derive(Debug, Clone, PartialEq)]
enum Msg {
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
    Plan(Box<Plan<RunPhase>>),
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
        std::mem::size_of::<Msg>() < std::mem::size_of::<Plan<RunPhase>>() + 8,
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
#[derive(Debug, Clone, Default)]
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
    /// Both endpoints' indices.
    #[inline]
    fn ends(&self) -> [usize; 2] {
        self.ends.map(|i| i as usize)
    }
}

impl EdgeRecord for HomeEdge {
    fn new(geid: u32, _: [VertexId; 2], ends: [u32; 2]) -> Self {
        Self {
            geid,
            ends,
            ..Self::default()
        }
    }

    fn geid(&self) -> u32 {
        self.geid
    }

    fn endpoints(&self, endpoints: &EndpointTable) -> [VertexId; 2] {
        self.ends.map(|i| endpoints.ids()[i as usize])
    }

    fn dual(&self) -> Option<f64> {
        self.frozen.then_some(self.x)
    }
}

/// Whether an edge with ends cached as `cu`, `cv` is priced this phase:
/// active, both ends in V^high.
#[inline]
fn in_high(e: &HomeEdge, cu: &EpCache, cv: &EpCache) -> bool {
    !e.frozen && cu.class == class::HIGH && cv.class == class::HIGH
}

/// A vertex, as held by its owner machine.
#[derive(Debug, Clone, Default)]
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

impl VertexRecord for OwnedVertex {
    fn new(v: VertexId, weight: f64) -> Self {
        Self {
            v,
            weight,
            ..Self::default()
        }
    }

    fn id(&self) -> VertexId {
        self.v
    }

    fn residual(&self) -> Option<f64> {
        (!self.frozen).then(|| (self.weight - self.frozen_inc).max(0.0))
    }

    fn freeze(&mut self) {
        self.frozen = true;
    }
}

/// A machine's state of the phase rounds.
#[derive(Clone, Default)]
struct Scratch {
    /// Per endpoint index, its vertex's facts as the owner last sent them.
    caches: Vec<EpCache>,
    /// A simulator's vertices and edges of the running phase.
    sim_vertices: Vec<(u32, f64)>,
    sim_edges: Vec<(u32, u32, u32, f64)>,
}

impl Machine<Alg2> {
    /// The cache of endpoint `v`, for a message its owner sent here.
    fn cache_of(&mut self, v: u32) -> &mut EpCache {
        let i = self.endpoints.index_of(v);
        &mut self.local.caches[i.expect("message for a vertex no local edge touches")]
    }
}

/// Algorithm 2's parts of the owner/home dataflow.
#[derive(Clone)]
struct Alg2(MpcMwvcConfig);

impl Dataflow for Alg2 {
    type Msg = Msg;
    type Vertex = OwnedVertex;
    type Edge = HomeEdge;
    type Run = RunPhase;
    type Local = Scratch;
    type Rule = ();

    fn validate(&self) {
        self.0.validate();
    }

    fn local(endpoints: &mut EndpointTable) -> Scratch {
        let caches = vec![EpCache::default(); endpoints.len()];
        Scratch {
            caches,
            ..Scratch::default()
        }
    }

    /// The coordinator also charges one word per vertex of the final
    /// cover, a gated charge that no resident list backs.
    fn words(st: &Machine<Self>) -> usize {
        HOME_EDGE_WORDS * st.home_edges.len()
            + st.endpoints.words()
            + OWNED_BASE_WORDS * st.owned.len()
            + st.subscriptions.len()
            + 2 * st.local.sim_vertices.len()
            + 4 * st.local.sim_edges.len()
            + st.plan.map_or(0, |_| 7)
            + st.coord
                .as_ref()
                .map_or(0, |c| 8 + c.final_words() + c.final_cover)
            + 4
    }

    fn wrap(msg: Shared<RunPhase>) -> Msg {
        match msg {
            Shared::ActiveCount(count) => Msg::ActiveCount { count },
            Shared::Plan(plan) => Msg::Plan(Box::new(plan)),
            Shared::FinalEdge(geid, [u, v]) => Msg::FinalEdge { geid, u, v },
            Shared::FinalVertex(v, w_prime) => Msg::FinalVertex { v, w_prime },
            Shared::FrozenNotice(v) => Msg::FrozenNotice { v },
        }
    }

    fn unwrap(msg: Msg) -> Result<Shared<RunPhase>, Msg> {
        Ok(match msg {
            Msg::ActiveCount { count } => Shared::ActiveCount(count),
            Msg::Plan(plan) => Shared::Plan(*plan),
            Msg::FinalEdge { geid, u, v } => Shared::FinalEdge(geid, [u, v]),
            Msg::FinalVertex { v, w_prime } => Shared::FinalVertex(v, w_prime),
            Msg::FrozenNotice { v } => Shared::FrozenNotice(v),
            own => return Err(own),
        })
    }

    /// A `Subscribe` carries the home's local degree of the vertex.
    fn subscribe(endpoints: &EndpointTable, i: usize, home: u32) -> Msg {
        let (v, count) = (endpoints.ids()[i], endpoints.degrees()[i]);
        Msg::Subscribe { v, home, count }
    }

    /// Owners sum the subscriptions' degrees, and fold in the last
    /// `finalize` round's deltas.
    fn fold(owned: &mut [OwnedVertex], owner_index: &[u32], msg: Msg) -> Option<(usize, VertexId)> {
        match msg {
            Msg::Subscribe { v, home, count } => {
                owned_at(owned, owner_index, v).resid_deg += count;
                Some((home as usize, v))
            }
            Msg::Delta { v, d_inc, d_deg } => {
                let o = owned_at(owned, owner_index, v);
                o.frozen_inc += d_inc;
                if !o.frozen {
                    o.resid_deg -= d_deg;
                }
                None
            }
            other => unreachable!("stats round got {other:?}"),
        }
    }

    /// The largest residual degree and the smallest residual weight of
    /// the owner's nonfrozen vertices, for the init schemes.
    fn report(owned: &[OwnedVertex]) -> Option<Msg> {
        let (mut max_resid_deg, mut min_wp) = (0, f64::INFINITY);
        for o in owned {
            if let Some(w) = o.residual() {
                (max_resid_deg, min_wp) = (max_resid_deg.max(o.resid_deg), min_wp.min(w));
            }
        }
        Some(Msg::OwnerStats {
            max_resid_deg,
            min_wp,
        })
    }

    /// The loop condition (2), and the phase parameters (2e).
    fn plan(&self, _: &mut (), at: PlanInput, reports: Vec<Msg>) -> Result<RunPhase, Exit> {
        let cfg = &self.0;
        let (mut delta, mut min_wp) = (0, f64::INFINITY);
        for msg in reports {
            let Msg::OwnerStats {
                max_resid_deg: d,
                min_wp: w,
            } = msg
            else {
                unreachable!("plan round got {msg:?}");
            };
            (delta, min_wp) = (delta.max(d), min_wp.min(w));
        }
        let d_avg = 2.0 * at.active as f64 / at.n.max(1) as f64;
        if cfg.switch.should_switch(d_avg, at.n) {
            return Err(Exit::Switch);
        }
        if at.stalled {
            return Err(Exit::Stall);
        }
        if at.phase as usize >= cfg.max_phases {
            return Err(Exit::Cap);
        }
        let m = cfg.machines_for(d_avg);
        assert!(
            m <= at.machines,
            "phase needs {m} simulator machines but the cluster has {}; \
             use recommended_cluster()",
            at.machines
        );
        Ok(RunPhase {
            m: m as u32,
            iterations: cfg.iterations.iterations(m, d_avg, cfg.epsilon) as u32,
            cutoff: cfg.high_degree_cutoff(d_avg),
            delta,
            min_wp,
        })
    }

    /// The seven phase rounds after `plan`.
    fn run_phase(
        &self,
        cluster: &mut Cluster<Machine<Self>, Msg>,
        owner_index: &[u32],
        phase: u32,
        run: RunPhase,
    ) -> Result<(), ClusterError> {
        let (cfg, n) = (&self.0, owner_index.len());
        // Shared randomness (2f), drawn once per phase on the host: `parts[v]`
        // is `part_of_vertex(v, m, seed of this phase)`, which any machine
        // could compute itself. Host scratch, not an accounted word.
        let parts =
            VertexPartition::table(n, run.m as usize, partition_seed(cfg.seed, phase as usize));

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
            let (_, RunPhase { cutoff, .. }) = st.running();
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
                    Msg::SimVertex { v, w_prime } => st.local.sim_vertices.push((v, w_prime)),
                    other => unreachable!("route got {other:?}"),
                }
            }
            let (_, RunPhase { delta, min_wp, .. }) = st.running();
            let (ids, caches) = (st.endpoints.ids(), &st.local.caches);
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
                    Msg::SimEdge { geid, u, v, x0 } => st.local.sim_edges.push((geid, u, v, x0)),
                    other => unreachable!("simulate got {other:?}"),
                }
            }
            let (phase, RunPhase { m, iterations, .. }) = st.running();
            let iterations = iterations as usize;
            if !st.local.sim_vertices.is_empty() {
                let (vertices, residual_weights, pairs) = local_instance(
                    n,
                    &mut st.local.sim_vertices,
                    &mut st.local.sim_edges,
                    |&(geid, u, v, _)| (geid, [u, v]),
                    "edge endpoint was announced by its owner",
                );
                let edges: Vec<LocalEdge> = pairs
                    .into_iter()
                    .zip(&st.local.sim_edges)
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
                            .freezes(cfg.epsilon, cfg.seed, phase as u64, gv, t, (y, w))
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
            st.local.sim_vertices.clear();
            st.local.sim_edges.clear();
        })?;

        // ── forward: owners record local-sim freeze times and fan them out to
        // subscribed homes, home by home. `classify` reset every active
        // vertex's time to `u32::MAX`, which no simulator reports, so the
        // vertices with another time are exactly those the simulators priced.
        cluster.try_round("forward", |ctx, st, inbox| {
            for msg in inbox {
                match msg {
                    Msg::FreezeIter { v, t } => {
                        owned_at(&mut st.owned, owner_index, v).freeze_iter = t
                    }
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
            let (_, RunPhase { iterations, .. }) = st.running();
            let mut partial: Vec<Option<f64>> = vec![None; st.local.caches.len()];
            let caches = &st.local.caches;
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
                    Msg::PartialY { v, y } => {
                        owned_at(&mut st.owned, owner_index, v).partial_y += y
                    }
                    other => unreachable!("correct got {other:?}"),
                }
            }
            let (_, RunPhase { iterations, .. }) = st.running();
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
        // push residual-weight/degree deltas back to owners, which fold them
        // in the next `stats` round.
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
            let mut delta: Vec<Option<(f64, u32)>> = vec![None; st.local.caches.len()];
            let caches = &st.local.caches;
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
        })
    }

    fn solve(
        &self,
        stream: u64,
        vertices: &[VertexId],
        weights: &[f64],
        edges: &[(u32, u32)],
    ) -> CentralizedResult {
        let cfg = &self.0;
        run_algorithm1(
            &Graph::from_sorted_pairs(vertices.len(), edges.iter().copied()),
            weights,
            |lv| vertices[lv as usize],
            CentralizedParams::new(cfg.epsilon),
            cfg.init,
            cfg.thresholds,
            (cfg.seed, stream),
        )
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

/// A cluster sizing for this instance and configuration: `S = Θ(n)` words
/// plus headroom for the residual a finish through the degree switch
/// gathers ([forced exits](crate::mpc::dataflow#forced-exits) can exceed
/// it), and enough machines both to hold the input and to host the largest
/// partition the phase schedule can request.
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
/// per-round traffic budget; [`recommended_cluster`] sizes a cluster for
/// the degree switch, or use an audited config to measure violations.
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
) -> Result<DistributedOutcome, ClusterError> {
    let (out, coord) = dataflow::run(&Alg2(*config), wg, cluster_cfg)?;
    Ok(DistributedOutcome {
        cover: out.solution.cover,
        certificate: out.solution.certificate,
        phases: out.cost.phases,
        stalled: coord.stalled,
        hit_max_phases: coord.hit_cap,
        final_stats: coord.final_stats,
        trace: out.trace,
        round_wall: out.round_wall,
        host_phases: out.host_phases,
    })
}

/// Algorithm 2 as audited message-passing dataflow on its recommended
/// cluster.
#[derive(Debug, Clone, Copy)]
pub struct DistributedExecutor {
    /// Algorithm configuration.
    pub config: MpcMwvcConfig,
}

impl DistributedExecutor {
    /// Executor over `config`, sized by [`recommended_cluster`] at run
    /// time.
    pub fn new(config: MpcMwvcConfig) -> Self {
        Self { config }
    }
}

impl Executor for DistributedExecutor {
    fn name(&self) -> &'static str {
        "distributed"
    }

    fn try_run(&self, wg: &WeightedGraph) -> Result<ExecutorOutcome, ClusterError> {
        let cluster = recommended_cluster(wg, &self.config);
        Ok(dataflow::run(&Alg2(self.config), wg, cluster)?.0)
    }
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
        // The report the `Executor` path returns agrees with the raw
        // trace and cluster.
        let report = DistributedExecutor::new(cfg).run(&wg).cost;
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
