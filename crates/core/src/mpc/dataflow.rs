//! The owner/home skeleton of both dataflow executors
//! ([`super::distributed`] and `mwvc-roundcompress`): the machine layout,
//! ingest, the rounds both run, and the output assembly. An executor
//! supplies the rest through [`Dataflow`].
//!
//! # Layout
//!
//! Every machine plays up to three roles here; an executor's middle
//! rounds add their own (simulators, part solvers):
//!
//! * **edge home**: edge `e` lives on machine `owner_of_key(e)` with the
//!   machine's [`EndpointTable`] ([`distribute_edges`]),
//! * **vertex owner**: vertex `v` lives on `owner_of_key(v)`, found through
//!   the cluster's owner index ([`distribute_vertices`]), with one table
//!   of the homes subscribed to its vertices, grouped by home,
//! * **coordinator**: machine 0 sums the active-edge counts, plans each
//!   phase through the executor's rule, and runs the final centralized
//!   phase (Algorithm 2, line 3).
//!
//! Ingest hashes each vertex and each edge to its machine once, into two
//! [`MachineMemo`]s the host keeps for the whole run. The vertex memo
//! places the owned vertices, groups each home's endpoints by owner and
//! addresses the final freeze notices; the edge memo places the edges.
//! Edges and owned vertices stay ascending by id, so one merge over the
//! machines' arrays, taking each key's machine from its memo, assembles
//! the output ([`gather_by_owner`]). The host only schedules the rounds
//! and reads machine 0's decision; all data flows through the audited
//! router.
//!
//! # Rounds
//!
//! ```text
//! subscribe  homes → owners     one Subscribe per endpoint, owner by owner
//! ── per phase (a level in round compression) ────────────────────────────
//! stats      homes → coord      active-edge counts; owners first fold in
//!                               the Subscribe inbox (filling their table)
//!                               or the last middle round's messages
//! plan       coord → all        the rule's run plan, or Finish
//! …          the executor's middle rounds
//! ── closing (after the stats and plan that finish) ──────────────────────
//! gather     homes, owners → coord  residual instance
//! solve      coord → owners         Algorithm 1 on it; final freezes
//! apply      owners                 flags applied
//! ```
//!
//! [`round_cost::FINAL`](crate::mpc::stats::round_cost::FINAL) counts the
//! rounds outside the loop.
//!
//! # Forced exits
//!
//! The rule finishes through one of three [`Exit`]s, and each executor's
//! `recommended_cluster` sizes `S` for [`Exit::Switch`] only. A stall or
//! the phase cap gathers whatever is left onto machine 0, which can exceed
//! `S` and panic under strict enforcement. The distributed executor does
//! so on its recommended cluster, with Zipf(1.2, 40) weights drawn at the
//! graph's seed, for `paper_scaled(0.03, 5)` on
//! `chung_lu(2000, 2.3, 60, 3)` with `max_phases` 1 or 2, and for
//! `paper_scaled(0.05, 7)` on `chung_lu(2000, 2.3, 40, 11)` with
//! `max_phases = 1` (ROADMAP item 1).

use crate::centralized::CentralizedResult;
use crate::certificate::DualCertificate;
use crate::cover::VertexCover;
use crate::mpc::executor::{CoverCertificate, ExecutorOutcome};
use crate::mpc::ingest::{
    distribute_edges, distribute_vertices, gather_by_owner, local_instance, ByDestination,
    EndpointTable, MachineMemo,
};
use crate::mpc::stats::{CostReport, FinalPhaseStats};
use mpc_sim::{Cluster, ClusterError, MpcConfig, Words};
use mwvc_graph::{VertexId, WeightedGraph};
use std::fmt::Debug;

/// An owner/home dataflow executor's own parts: its records, messages and
/// word charges, its plan rule, its middle rounds and its final solver.
/// [`run`] does everything else.
pub trait Dataflow: Clone + Sync {
    /// The messages on the fabric; their [`Words`] are the charges.
    type Msg: Clone + Debug + Send + Sync + Words;
    /// An owner's vertex record.
    type Vertex: VertexRecord;
    /// A home's edge record.
    type Edge: EdgeRecord;
    /// The parameters of a phase the rule runs.
    type Run: Copy + Debug + Default + PartialEq + Send + Sync;
    /// A machine's state of the middle rounds.
    type Local: Clone + Send + Sync;
    /// The coordinator's state of the rule.
    type Rule: Clone + Default + Send + Sync;

    /// Panics on an invalid configuration.
    fn validate(&self);

    /// A machine's middle-round state at ingest. It may
    /// [`drop_lookups`](EndpointTable::drop_lookups) its rounds never read.
    fn local(endpoints: &mut EndpointTable) -> Self::Local;

    /// A machine's resident words, as this executor charges them.
    fn words(st: &Machine<Self>) -> usize;

    /// A shared round's message as one of this executor's.
    fn wrap(msg: Shared<Self::Run>) -> Self::Msg;

    /// This executor's message as a shared round's, or itself if it is
    /// one of the executor's own.
    fn unwrap(msg: Self::Msg) -> Result<Shared<Self::Run>, Self::Msg>;

    /// `subscribe`: endpoint `i` of machine `home`, announced to its owner.
    fn subscribe(endpoints: &EndpointTable, i: usize, home: u32) -> Self::Msg;

    /// `stats`, owner side: folds one inbox message (a subscription, or a
    /// message of the last middle round) into `owned`, finding vertices
    /// with [`owned_at`]. Returns the home and vertex of a subscription.
    fn fold(
        owned: &mut [Self::Vertex],
        owner_index: &[u32],
        msg: Self::Msg,
    ) -> Option<(usize, VertexId)>;

    /// `stats`, owner side: what the owner reports to the coordinator
    /// after its home's active count, if anything (nothing by default).
    fn report(_owned: &[Self::Vertex]) -> Option<Self::Msg> {
        None
    }

    /// `plan`: the next phase's parameters, or the exit that finishes.
    /// `reports` are the owners' reports, in machine order.
    fn plan(
        &self,
        rule: &mut Self::Rule,
        at: PlanInput,
        reports: Vec<Self::Msg>,
    ) -> Result<Self::Run, Exit>;

    /// The middle rounds of phase `phase`, run under `run`, on the
    /// vertices `0..owner_index.len()`.
    fn run_phase(
        &self,
        cluster: &mut Cluster<Machine<Self>, Self::Msg>,
        owner_index: &[u32],
        phase: u32,
        run: Self::Run,
    ) -> Result<(), ClusterError>;

    /// `solve`: Algorithm 1 on the residual instance from
    /// [`local_instance`], drawing thresholds in stream `stream`. `edges`
    /// are canonical and strictly ascending, so they build the local graph
    /// with [`Graph::from_sorted_pairs`](mwvc_graph::Graph::from_sorted_pairs).
    fn solve(
        &self,
        stream: u64,
        vertices: &[VertexId],
        weights: &[f64],
        edges: &[(u32, u32)],
    ) -> CentralizedResult;
}

/// What the shared rounds read and write of an owner's vertex record.
pub trait VertexRecord: Clone + Send + Sync {
    /// Vertex `v` of weight `weight`, at ingest.
    fn new(v: VertexId, weight: f64) -> Self;
    /// The vertex id.
    fn id(&self) -> VertexId;
    /// Its residual weight, or `None` once it is in the cover.
    fn residual(&self) -> Option<f64>;
    /// Puts the vertex in the cover.
    fn freeze(&mut self);
}

/// What the shared rounds read of a home's edge record.
pub trait EdgeRecord: Clone + Send + Sync {
    /// The active edge `geid` at ingest: `ends` are `u < v`, `index`
    /// their endpoint indices in the home's [`EndpointTable`].
    fn new(geid: u32, ends: [VertexId; 2], index: [u32; 2]) -> Self;
    /// The edge id.
    fn geid(&self) -> u32;
    /// Both endpoints.
    fn endpoints(&self, endpoints: &EndpointTable) -> [VertexId; 2];
    /// The finalized dual, once the edge froze; `None` while it is active.
    fn dual(&self) -> Option<f64>;
}

/// The coordinator's decision for one phase, broadcast in `plan`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan<R> {
    /// Phases run before this one.
    pub phase: u32,
    /// The phase's parameters, or `None` to finish.
    pub run: Option<R>,
}

/// The shared rounds' messages. Each executor maps them onto variants of
/// its own message type, whose [`Words`] charge them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shared<R> {
    /// `stats`: a home's count of active edges, to the coordinator.
    ActiveCount(u64),
    /// `plan`: the decision, to every machine.
    Plan(Plan<R>),
    /// `gather`: an active edge's id and endpoints, to the coordinator.
    FinalEdge(u32, [VertexId; 2]),
    /// `gather`: a nonfrozen vertex and its residual weight.
    FinalVertex(VertexId, f64),
    /// `solve`: a vertex the final phase froze, to its owner.
    FrozenNotice(VertexId),
}

/// What the rule sees in `plan`.
#[derive(Debug, Clone, Copy)]
pub struct PlanInput {
    /// Phases run so far.
    pub phase: u32,
    /// Active edges, summed over the homes.
    pub active: u64,
    /// Whether `active` is nonzero and unchanged since the last `plan`.
    pub stalled: bool,
    /// Vertices of the input.
    pub n: usize,
    /// Machines of the cluster.
    pub machines: usize,
}

/// How the rule finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Its own switch: the residual is small enough for one machine.
    Switch,
    /// A stalled phase.
    Stall,
    /// The phase cap.
    Cap,
}

/// One machine's state. `Clone` is the snapshot operation of the
/// crash-recovery engine ([`mpc_sim::checkpoint`]).
#[derive(Clone)]
pub struct Machine<D: Dataflow> {
    /// Homed edges, ascending by id.
    pub home_edges: Vec<D::Edge>,
    /// The distinct endpoints of `home_edges` (static).
    pub endpoints: EndpointTable,
    /// Owned vertices, ascending by id.
    pub owned: Vec<D::Vertex>,
    /// Per home, the ascending positions in `owned` it subscribed to.
    pub subscriptions: ByDestination,
    /// Homed edges not yet frozen.
    pub active_edges_local: u64,
    /// The last plan received.
    pub plan: Option<Plan<D::Run>>,
    /// The executor's middle-round state.
    pub local: D::Local,
    /// Coordinator state (machine 0 only).
    pub coord: Option<Box<CoordOf<D>>>,
}

impl<D: Dataflow> Words for Machine<D> {
    fn words(&self) -> usize {
        D::words(self)
    }
}

impl<D: Dataflow> Machine<D> {
    /// The running phase and its parameters, as `plan` broadcast them.
    pub fn running(&self) -> (u32, D::Run) {
        let plan = self.plan.expect("the plan precedes the phase");
        (plan.phase, plan.run.expect("a run plan"))
    }
}

/// The coordinator state of executor `D`.
pub type CoordOf<D> = Coord<<D as Dataflow>::Run, <D as Dataflow>::Rule>;

/// Coordinator-only state (machine 0), with its plan rule's state `Q`.
#[derive(Clone, Default)]
pub struct Coord<R, Q> {
    phase: u32,
    prev_active: Option<u64>,
    decision: Option<Plan<R>>,
    /// Whether the rule finished through [`Exit::Stall`].
    pub stalled: bool,
    /// Whether the rule finished through [`Exit::Cap`].
    pub hit_cap: bool,
    final_edges: Vec<(u32, u32, u32)>,
    final_vertices: Vec<(u32, f64)>,
    final_edge_x: Vec<(u32, f64)>,
    /// Vertices the final phase froze.
    pub final_cover: usize,
    /// Final centralized phase statistics (`None` if no edge remained).
    pub final_stats: Option<FinalPhaseStats>,
    /// The rule's state.
    pub rule: Q,
}

impl<R, Q> Coord<R, Q> {
    /// Words of the gathered residual instance and its duals.
    pub fn final_words(&self) -> usize {
        3 * self.final_edges.len() + 2 * self.final_vertices.len() + 2 * self.final_edge_x.len()
    }
}

/// The owned vertex `v`, at the position the owner index gives it.
/// Panics if `v` is not in `owned`: its message reached the wrong machine.
pub fn owned_at<'a, V: VertexRecord>(
    owned: &'a mut [V],
    owner_index: &[u32],
    v: VertexId,
) -> &'a mut V {
    match owned.get_mut(owner_index[v as usize] as usize) {
        Some(o) if o.id() == v => o,
        _ => panic!("message for vertex not owned here"),
    }
}

/// Runs `d` on `wg` over `cluster_cfg`: the outcome
/// [`Executor::try_run`](crate::mpc::Executor::try_run) returns, with the
/// costs the router measured, and the coordinator's final state. Panics
/// (in strict enforcement) if a machine exceeds its memory or per-round
/// traffic budget; unrecoverable injected faults surface as a typed
/// [`ClusterError`].
pub fn run<D: Dataflow>(
    d: &D,
    wg: &WeightedGraph,
    cluster_cfg: MpcConfig,
) -> Result<(ExecutorOutcome, Box<CoordOf<D>>), ClusterError> {
    d.validate();
    let (n, w) = (wg.num_vertices(), cluster_cfg.num_machines);

    // ── Ingest (free: "the input is divided arbitrarily among all
    // machines"). Each vertex and each edge is hashed to its machine once,
    // into the two memos the rest of the run reads.
    let owners = MachineMemo::new(n, w);
    let (owned, owner_index) = distribute_vertices(&owners, |v| D::Vertex::new(v, wg.weights[v]));
    let owner_index = &owner_index[..];
    let (homes, edge_memo) = distribute_edges(&wg.graph, &owners, D::Edge::new);
    let mut states = homes
        .into_iter()
        .zip(owned)
        .enumerate()
        .map(|(id, (mut homes, owned))| Machine {
            local: D::local(&mut homes.endpoints),
            active_edges_local: homes.edges.len() as u64,
            home_edges: homes.edges,
            endpoints: homes.endpoints,
            owned,
            subscriptions: ByDestination::default(),
            plan: None,
            coord: (id == 0).then(Box::default),
        });
    let mut cluster: Cluster<Machine<D>, D::Msg> = Cluster::new(cluster_cfg, |_| {
        states.next().expect("one state per machine")
    });

    // ── subscribe: homes announce themselves to every endpoint's owner,
    // owner by owner.
    cluster.try_round("subscribe", |ctx, st, _inbox| {
        let home = ctx.id as u32;
        ctx.reserve_sends(st.endpoints.len());
        for (owner, group) in st.endpoints.by_owner().groups() {
            for &i in group {
                ctx.send(owner, D::subscribe(&st.endpoints, i as usize, home));
            }
        }
    })?;

    loop {
        // ── stats: owners fold in their inbox, then homes report their
        // active edges. The `Subscribe` inbox is home-major and ascending
        // by id within a home: the table fills in one append pass.
        cluster.try_round("stats", |ctx, st, inbox| {
            for msg in inbox {
                if let Some((home, v)) = D::fold(&mut st.owned, owner_index, msg) {
                    st.subscriptions.push(home, owner_index[v as usize]);
                }
            }
            let count = st.active_edges_local;
            ctx.send(0, D::wrap(Shared::ActiveCount(count)));
            if let Some(report) = D::report(&st.owned) {
                ctx.send(0, report);
            }
        })?;

        // ── plan: the coordinator sums the counts, applies the rule and
        // broadcasts its decision.
        cluster.try_round("plan", |ctx, st, inbox| {
            let Some(coord) = st.coord.as_mut() else {
                assert!(inbox.is_empty());
                return;
            };
            let (mut active, mut reports) = (0u64, Vec::new());
            for msg in inbox {
                match D::unwrap(msg) {
                    Ok(Shared::ActiveCount(count)) => active += count,
                    Ok(other) => unreachable!("plan round got {other:?}"),
                    Err(report) => reports.push(report),
                }
            }
            let phase = coord.phase;
            let at = PlanInput {
                phase,
                active,
                stalled: coord.prev_active == Some(active) && active > 0,
                n,
                machines: ctx.num_machines(),
            };
            let run = match d.plan(&mut coord.rule, at, reports) {
                Ok(run) => Some(run),
                Err(exit) => {
                    coord.stalled = exit == Exit::Stall;
                    coord.hit_cap = exit == Exit::Cap;
                    None
                }
            };
            coord.prev_active = Some(active);
            let plan = Plan { phase, run };
            coord.phase += u32::from(run.is_some());
            coord.decision = Some(plan);
            ctx.broadcast(D::wrap(Shared::Plan(plan)));
        })?;

        let plan = cluster
            .state(0)
            .coord
            .as_ref()
            .and_then(|c| c.decision)
            .expect("coordinator always decides");
        match plan.run {
            Some(run) => d.run_phase(&mut cluster, owner_index, plan.phase, run)?,
            None => break,
        }
    }

    // ── gather (3): the residual instance moves to the coordinator.
    cluster.try_round("gather", |ctx, st, inbox| {
        for msg in inbox {
            match D::unwrap(msg) {
                Ok(Shared::Plan(p)) => st.plan = Some(p),
                other => unreachable!("gather got {other:?}"),
            }
        }
        ctx.reserve_sends(st.active_edges_local as usize);
        for e in &st.home_edges {
            if e.dual().is_none() {
                let ends = e.endpoints(&st.endpoints);
                ctx.send(0, D::wrap(Shared::FinalEdge(e.geid(), ends)));
            }
        }
        for o in &st.owned {
            if let Some(w_prime) = o.residual() {
                ctx.send(0, D::wrap(Shared::FinalVertex(o.id(), w_prime)));
            }
        }
    })?;

    // ── solve (3): the coordinator runs Algorithm 1 on the residual
    // instance (local computation is free) and reports freezes.
    cluster.try_round("solve", |ctx, st, inbox| {
        let Some(coord) = st.coord.as_mut() else {
            assert!(inbox.is_empty());
            return;
        };
        for msg in inbox {
            match D::unwrap(msg) {
                Ok(Shared::FinalEdge(geid, [u, v])) => coord.final_edges.push((geid, u, v)),
                Ok(Shared::FinalVertex(v, w_prime)) => coord.final_vertices.push((v, w_prime)),
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
        // A stream distinct from every phase's.
        let res = d.solve(coord.phase as u64 + 1_000_000, &rest, &wp, &edges);
        // `edges` is in the residual graph's canonical order, so dual `i`
        // belongs to `final_edges[i]`.
        for (&(geid, ..), &x) in coord.final_edges.iter().zip(&res.certificate.x) {
            coord.final_edge_x.push((geid, x));
        }
        for &lv in res.cover.vertices() {
            let v = rest[lv as usize];
            ctx.send(owners.get(v as usize), D::wrap(Shared::FrozenNotice(v)));
        }
        coord.final_cover = res.cover.size();
        coord.final_stats = Some(FinalPhaseStats {
            vertices: rest.len(),
            edges: edges.len(),
            iterations: res.iterations,
        });
    })?;

    // ── apply: owners flip the final frozen flags.
    cluster.try_round("apply", |_ctx, st, inbox| {
        for msg in inbox {
            match D::unwrap(msg) {
                Ok(Shared::FrozenNotice(v)) => owned_at(&mut st.owned, owner_index, v).freeze(),
                other => unreachable!("apply got {other:?}"),
            }
        }
    })?;

    // ── Assembly: each output slot from its unique source.
    let round_wall = cluster.round_wall().to_vec();
    let host_phases = cluster.host_phases().to_vec();
    let (states, trace) = cluster.finish();
    let owned: Vec<&[D::Vertex]> = states.iter().map(|st| &st.owned[..]).collect();
    let membership = gather_by_owner(
        &owners,
        &owned,
        |o| o.id(),
        |o| o.residual().is_none(),
        "every vertex has an owner",
    );
    let homes: Vec<&[D::Edge]> = states.iter().map(|st| &st.home_edges[..]).collect();
    let mut edge_x = gather_by_owner(
        &edge_memo,
        &homes,
        |e| e.geid(),
        |e| e.dual().unwrap_or(0.0),
        "every edge has a home",
    );
    let coord = states
        .into_iter()
        .find_map(|st| st.coord)
        .expect("machine 0 coordinates");
    for &(geid, x) in &coord.final_edge_x {
        edge_x[geid as usize] = x;
    }
    let cost = CostReport::from_trace(coord.phase as usize, &trace, &cluster_cfg);
    let solution = CoverCertificate::new(
        VertexCover::from_membership(membership),
        DualCertificate::new(edge_x),
    );
    let outcome = ExecutorOutcome {
        solution,
        cost,
        round_wall,
        trace,
        host_phases,
    };
    Ok((outcome, coord))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Owned(VertexId);

    impl VertexRecord for Owned {
        fn new(v: VertexId, _: f64) -> Self {
            Self(v)
        }
        fn id(&self) -> VertexId {
            self.0
        }
        fn residual(&self) -> Option<f64> {
            None
        }
        fn freeze(&mut self) {}
    }

    #[test]
    fn owned_at_finds_only_the_vertices_owned_here() {
        // This machine owns vertices 2 and 5; the owner index gives 3 the
        // position of another machine's vertex and 6 one past this list.
        let mut owned = [Owned(2), Owned(5)];
        let owner_index = [0, 0, 0, 0, 0, 1, 2];
        assert_eq!(owned_at(&mut owned, &owner_index, 5).id(), 5);
        assert_eq!(owned_at(&mut owned, &owner_index, 2).id(), 2);
        for v in [3, 6] {
            let err = std::panic::catch_unwind(move || {
                let mut owned = [Owned(2), Owned(5)];
                owned_at(&mut owned, &owner_index, v).id()
            })
            .expect_err("a vertex not owned here must panic");
            assert_eq!(
                err.downcast_ref::<&str>(),
                Some(&"message for vertex not owned here"),
                "vertex {v}"
            );
        }
    }
}
