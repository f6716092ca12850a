//! An out-of-core MWVC pricing executor: the first consumer of the
//! enforced memory budget ([`mpc_sim::MemoryBudget::Enforced`]) and the
//! chunked on-disk graph format ([`ChunkedCsr`]).
//!
//! # What it computes
//!
//! A classic primal–dual *pricing* scheme, not Algorithm 2: every
//! iteration each active vertex `v` offers `o(v) = β(v)/d(v)` per
//! incident edge (`β` = residual slack `w(v) − y(v)`, `d` = active
//! degree), every active edge raises its dual by `min(o(u), o(v))`, and a
//! vertex freezes into the cover once its slack drops to `ε·w(v)`. Frozen
//! vertices cover their edges; the run ends when no active edge remains.
//! Because each vertex's offer divides its slack by its degree — and the
//! offers go on the wire rounded *toward zero* — the accumulated load
//! `y(v)` never exceeds `w(v)`: the loads are backed by feasible edge
//! duals, so `Σ_v min(y(v), w(v)) / 2` is a genuine lower bound on OPT,
//! and every slack-frozen vertex has `y(v) ≥ (1−ε)·w(v)`, giving the
//! standard `2/(1−ε)` guarantee when the iteration cap does not fire.
//!
//! This is deliberately a *different, simpler* algorithm than
//! [`crate::mpc::distributed`]: its job is to exercise the out-of-core
//! data path honestly, end to end, at edge counts where Θ(m) host memory
//! is not available. It therefore does not implement
//! [`Executor`](crate::mpc::Executor) (which consumes an in-memory
//! [`WeightedGraph`](mwvc_graph::WeightedGraph)); it consumes a
//! [`ChunkedCsr`] and exposes its own entry point, [`run_outofcore`].
//!
//! # Machine layout
//!
//! `M` machines; machine `i` owns the contiguous bucket range
//! `[i·B/M, (i+1)·B/M)` of the on-disk CSR as its *edge shard*. Machine 0
//! additionally acts as the coordinator, holding the authoritative
//! per-vertex state (weights, loads, degrees, frozen set). After a
//! census/init round pair, each iteration is two rounds:
//!
//! * **price** — every machine streams its shard (resident, or replayed
//!   from its spill file in `batch_words` batches), accumulates dual
//!   increments and active-degree counts per vertex, and sends them to
//!   the coordinator in dense chunks (all-zero chunks elided),
//! * **settle** — the coordinator folds the increments into the loads,
//!   freezes exhausted vertices, recomputes offers, and broadcasts the
//!   offer table plus the newly frozen ids.
//!
//! # The memory budget, honored
//!
//! At load time each machine compares its shard size against half its
//! budget `S` (the other half is headroom for inboxes and scratch). A
//! shard that fits stays resident; one that does not is written to the
//! machine's [`SpillFile`](mpc_sim::SpillFile) — charged to the trace as
//! [`spill_words`](mpc_sim::RoundStats::spill_words) — and re-streamed
//! every pricing round. Under
//! [`MemoryBudget::Enforced`](mpc_sim::MemoryBudget) holding more than
//! `S` resident words is a panic, so the spill decision is not advisory.
//! Crucially, the budget changes *only* where the shard lives: the
//! message sequence, covers, loads, and every gated trace field except
//! `max_resident`/`spill_words` are bit-identical across budgets
//! (`tests/determinism.rs` pins this).

use crate::cover::VertexCover;
use mpc_sim::{Cluster, ExecutionTrace, MachineCtx, MpcConfig, Words};
use mwvc_graph::outofcore::{pack_half_edge, unpack_half_edge, ChunkedCsr};

/// Entries per dense chunk on the wire (`Acc`/`Cnt`/`Offer` messages).
const CHUNK: usize = 1024;

/// Tuning knobs of the out-of-core pricing executor.
#[derive(Debug, Clone, Copy)]
pub struct OocConfig {
    /// Freeze threshold: a vertex enters the cover once its residual
    /// slack drops to `epsilon · w(v)`. Must lie in `(0, 1)`.
    pub epsilon: f64,
    /// Iteration cap; when it fires, every vertex still incident to an
    /// active edge is force-frozen so the result is always a cover.
    pub max_iterations: usize,
    /// Words per I/O batch when a shard is spilled (bounds both the
    /// spill-write granularity and the resident replay buffer).
    pub batch_words: usize,
}

impl Default for OocConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.1,
            max_iterations: 200,
            batch_words: 1 << 14,
        }
    }
}

/// Result of an out-of-core pricing run.
#[derive(Debug, Clone)]
pub struct OocOutcome {
    /// The vertex cover (slack-frozen plus any force-frozen vertices).
    pub cover: VertexCover,
    /// Per-vertex dual loads `y(v)` (sums of incident edge duals).
    pub loads: Vec<f64>,
    /// `Σ_v min(y(v), w(v)) / 2` — a lower bound on the optimal cover
    /// weight (the `min` clamps any floating round-off).
    pub dual_lower_bound: f64,
    /// Pricing iterations executed.
    pub iterations: usize,
    /// Vertices frozen by the iteration-cap fallback (0 on converged
    /// runs; the `2/(1−ε)` guarantee holds exactly when this is 0).
    pub forced: usize,
    /// The audited cluster trace (spill words are a per-round field).
    pub trace: ExecutionTrace,
}

impl OocOutcome {
    /// Cover weight under the run's weight vector.
    pub fn cover_weight(&self, weights: &[f64]) -> f64 {
        self.cover
            .vertices()
            .iter()
            .map(|&v| weights[v as usize])
            .sum()
    }
}

/// Messages of the pricing dataflow. Dense array chunks carry a base
/// vertex id; `Frozen` carries newly frozen ids (a delta, not a
/// snapshot); `Offer` chunks are absolute and therefore never elided
/// (elision would leave stale offers live on the shard machines).
#[derive(Debug, Clone)]
pub(crate) enum OocMsg {
    /// Active half-edge count of one shard for the termination test.
    Active { half_edges: u64 },
    /// Active-degree counts for vertices `base..base + counts.len()`.
    Cnt { base: u32, counts: Box<[u32]> },
    /// Dual-load increments for vertices `base..base + acc.len()`.
    Acc { base: u32, acc: Box<[f64]> },
    /// Current offers for vertices `base..base + offers.len()`.
    Offer { base: u32, offers: Box<[f32]> },
    /// Vertices frozen at the last settle.
    Frozen { ids: Box<[u32]> },
}

impl Words for OocMsg {
    fn words(&self) -> usize {
        match self {
            OocMsg::Active { .. } => 1,
            OocMsg::Cnt { counts, .. } => 1 + counts.len().div_ceil(2),
            OocMsg::Acc { acc, .. } => 1 + acc.len(),
            OocMsg::Offer { offers, .. } => 1 + offers.len().div_ceil(2),
            OocMsg::Frozen { ids } => 1 + ids.len().div_ceil(2),
        }
    }
}

/// Where a machine's edge shard lives.
#[derive(Debug)]
enum Shard {
    /// Not yet loaded (before the census round).
    Unloaded,
    /// Fit under half the budget: packed half-edge words in RAM.
    Resident(Vec<u64>),
    /// Did not fit: lives in the machine's spill file, replayed per
    /// round through a bounded buffer.
    Spilled,
}

/// Coordinator-only vertex state (machine 0).
#[derive(Debug, Default)]
struct Coord {
    /// Vertex weights.
    w: Vec<f64>,
    /// Dual loads `y(v)`.
    y: Vec<f64>,
    /// Offer denominators: the previous round's active-degree counts
    /// (an overcount of the current active degree, which is exactly what
    /// keeps the loads feasible).
    deg: Vec<u32>,
    /// Aggregation buffer for the current settle's counts.
    cnt_agg: Vec<u32>,
    /// Frozen vertices in freeze order (the cover).
    cover: Vec<u32>,
    /// Active half-edges reported by the last census/price round.
    active: u64,
    /// Vertices frozen by the iteration-cap fallback.
    forced: usize,
}

impl Coord {
    fn words(&self) -> usize {
        self.w.len()
            + self.y.len()
            + self.deg.len().div_ceil(2)
            + self.cnt_agg.len().div_ceil(2)
            + self.cover.len().div_ceil(2)
            + 2
    }
}

/// Per-machine state of the pricing executor.
struct OocState {
    shard: Shard,
    /// Current per-vertex offers, broadcast by the coordinator.
    offer: Vec<f32>,
    /// Frozen-vertex bitset (maintained on every machine from the
    /// `Frozen` deltas).
    frozen: Vec<u64>,
    /// Per-vertex dual-increment accumulator for the current round.
    acc: Vec<f64>,
    /// Per-vertex active-degree counter for the current round.
    cnt: Vec<u32>,
    /// Replay buffer for spilled shards (capacity `batch_words`).
    batch: Vec<u64>,
    /// The first shard read error of the census round, if any.
    shard_error: Option<String>,
    /// Coordinator state (machine 0 only).
    coord: Option<Box<Coord>>,
}

impl Words for OocState {
    fn words(&self) -> usize {
        let shard = match &self.shard {
            Shard::Resident(v) => v.len(),
            Shard::Unloaded | Shard::Spilled => 0,
        };
        shard
            + self.offer.len().div_ceil(2)
            + self.frozen.len()
            + self.acc.len()
            + self.cnt.len().div_ceil(2)
            + self.batch.capacity()
            + self.coord.as_ref().map_or(0, |c| c.words())
    }
}

#[inline]
fn bit(bits: &[u64], v: u32) -> bool {
    bits[v as usize / 64] >> (v % 64) & 1 == 1
}

#[inline]
fn set_bit(bits: &mut [u64], v: u32) {
    bits[v as usize / 64] |= 1 << (v % 64);
}

/// Prices one slice of packed half-edges: for every active edge `(u, v)`
/// with `u < v`, raise both accumulators by `min(o(u), o(v))` and count
/// the edge at both endpoints. Returns the active half-edges seen.
fn price_words(
    words: &[u64],
    offer: &[f32],
    frozen: &[u64],
    acc: &mut [f64],
    cnt: &mut [u32],
) -> u64 {
    let mut active = 0u64;
    for &word in words {
        let (u, v) = unpack_half_edge(word);
        if u >= v || bit(frozen, u) || bit(frozen, v) {
            continue;
        }
        let delta = f64::from(offer[u as usize].min(offer[v as usize]));
        acc[u as usize] += delta;
        acc[v as usize] += delta;
        cnt[u as usize] += 1;
        cnt[v as usize] += 1;
        active += 1;
    }
    active
}

/// Degree census over one slice: counts every half-edge with `u < v` at
/// both endpoints. Returns the half-edges seen.
fn census_words(words: &[u64], cnt: &mut [u32]) -> u64 {
    let mut seen = 0u64;
    for &word in words {
        let (u, v) = unpack_half_edge(word);
        if u < v {
            cnt[u as usize] += 1;
            cnt[v as usize] += 1;
            seen += 1;
        }
    }
    seen
}

impl OocState {
    /// Loads buckets `lo..hi` of `csr` as this machine's shard: resident
    /// if it fits in `resident_budget` words, otherwise written to the
    /// spill file through the `batch_words` buffer.
    fn load_shard(
        &mut self,
        ctx: &mut MachineCtx<OocMsg>,
        csr: &ChunkedCsr,
        (lo, hi): (usize, usize),
        resident_budget: u64,
        batch_words: usize,
    ) -> Result<(), String> {
        let shard_words = csr.entries_in_buckets(lo, hi);
        let mut stream = csr.stream_range(lo, hi)?;
        if shard_words <= resident_budget {
            let mut words = Vec::with_capacity(shard_words as usize);
            while let Some(bucket) = stream.next_bucket()? {
                words.extend(bucket.iter().map(|&(u, v)| pack_half_edge(u, v)));
            }
            self.shard = Shard::Resident(words);
        } else {
            // Bounded spill: never hold more than `batch_words` of the
            // shard while writing it out.
            self.batch = Vec::with_capacity(batch_words);
            while let Some(bucket) = stream.next_bucket()? {
                for &(u, v) in bucket {
                    if self.batch.len() == batch_words {
                        // Failures latch in the spill file and surface
                        // as a typed error after the segment.
                        let _ = ctx.spill().write_words(&self.batch);
                        self.batch.clear();
                    }
                    self.batch.push(pack_half_edge(u, v));
                }
            }
            let _ = ctx.spill().write_words(&self.batch);
            self.batch.clear();
            self.shard = Shard::Spilled;
        }
        Ok(())
    }

    /// Applies the coordinator's broadcast (offer table + frozen delta)
    /// from the inbox. Offers are absolute, so the coordinator
    /// re-applying its own broadcast is a no-op.
    fn apply_broadcast(&mut self, inbox: impl Iterator<Item = OocMsg>) {
        for msg in inbox {
            match msg {
                OocMsg::Offer { base, offers } => {
                    let b = base as usize;
                    self.offer[b..b + offers.len()].copy_from_slice(&offers);
                }
                OocMsg::Frozen { ids } => {
                    for &v in ids.iter() {
                        set_bit(&mut self.frozen, v);
                    }
                }
                _ => unreachable!("price-round inboxes carry only broadcasts"),
            }
        }
    }

    /// Streams the whole shard through [`price_words`] and ships the
    /// resulting chunks to the coordinator.
    fn price_and_report(&mut self, ctx: &mut MachineCtx<OocMsg>) {
        self.acc.fill(0.0);
        self.cnt.fill(0);
        // Destructure so the shard borrow and the accumulator borrows
        // are visibly disjoint.
        let OocState {
            shard,
            offer,
            frozen,
            acc,
            cnt,
            batch,
            ..
        } = self;
        let mut active = 0u64;
        match shard {
            Shard::Unloaded => unreachable!("census precedes pricing"),
            Shard::Resident(words) => {
                active += price_words(words, offer, frozen, acc, cnt);
            }
            Shard::Spilled => {
                ctx.spill().rewind();
                loop {
                    let cap = batch.capacity();
                    batch.resize(cap, 0);
                    // An I/O failure latches inside the spill file and
                    // surfaces as a typed error after the round; here it
                    // just ends the replay.
                    let got = ctx.spill().read_words(batch).unwrap_or(0);
                    if got == 0 {
                        break;
                    }
                    active += price_words(&batch[..got], offer, frozen, acc, cnt);
                }
            }
        }
        ctx.send(0, OocMsg::Active { half_edges: active });
        self.report_chunks(ctx, true);
    }

    /// Sends the nonzero `Cnt` (and, when `with_acc`, `Acc`) chunks of
    /// the current accumulators to the coordinator.
    fn report_chunks(&self, ctx: &mut MachineCtx<OocMsg>, with_acc: bool) {
        for base in (0..self.cnt.len()).step_by(CHUNK) {
            let end = (base + CHUNK).min(self.cnt.len());
            if self.cnt[base..end].iter().all(|&c| c == 0) {
                continue;
            }
            ctx.send(
                0,
                OocMsg::Cnt {
                    base: base as u32,
                    counts: self.cnt[base..end].into(),
                },
            );
            if with_acc {
                ctx.send(
                    0,
                    OocMsg::Acc {
                        base: base as u32,
                        acc: self.acc[base..end].into(),
                    },
                );
            }
        }
    }
}

/// `x` rounded *toward zero* into `f32`: the widened value never exceeds
/// `x`, so offers computed from it understate the true slack-per-edge
/// and the accumulated loads stay feasible.
fn f32_toward_zero(x: f64) -> f32 {
    debug_assert!(x >= 0.0);
    let q = x as f32;
    if f64::from(q) > x {
        // Nearest-rounding went up: step one ulp back toward zero.
        f32::from_bits(q.to_bits() - 1)
    } else {
        q
    }
}

/// Bucket range `[lo, hi)` of machine `i` out of `m` over `b` buckets.
fn shard_range(i: usize, m: usize, b: usize) -> (usize, usize) {
    (i * b / m, (i + 1) * b / m)
}

/// Resident words of the fixed per-machine arrays (everything except the
/// shard, the replay buffer, and the coordinator block).
fn aux_words(n: usize) -> usize {
    // offer (f32) + frozen bitset + acc (f64) + cnt (u32).
    n.div_ceil(2) + n.div_ceil(64) + n + n.div_ceil(2)
}

/// The coordinator's settle step, shared by the init round (census
/// aggregation) and every iteration: fold `Cnt`/`Acc`/`Active` messages
/// into the vertex state, freeze exhausted vertices, recompute offers,
/// broadcast.
fn settle(
    state: &mut OocState,
    ctx: &mut MachineCtx<OocMsg>,
    inbox: impl Iterator<Item = OocMsg>,
    epsilon: f64,
    m: usize,
) {
    let mut coord = state.coord.take().expect("settle runs on machine 0");
    coord.cnt_agg.fill(0);
    coord.active = 0;
    for msg in inbox {
        match msg {
            OocMsg::Active { half_edges } => coord.active += half_edges,
            OocMsg::Cnt { base, counts } => {
                let b = base as usize;
                for (slot, &c) in coord.cnt_agg[b..b + counts.len()]
                    .iter_mut()
                    .zip(counts.iter())
                {
                    *slot += c;
                }
            }
            OocMsg::Acc { base, acc } => {
                let b = base as usize;
                for (slot, &a) in coord.y[b..b + acc.len()].iter_mut().zip(acc.iter()) {
                    *slot += a;
                }
            }
            _ => unreachable!("settle inboxes carry only shard reports"),
        }
    }
    // Offer denominators for the next round: this round's active counts
    // (active degrees only shrink as vertices freeze, so the offers
    // computed from them never overstate slack-per-edge).
    coord.deg.copy_from_slice(&coord.cnt_agg);

    // Freeze: vertices with active edges whose slack is exhausted join
    // the cover.
    let mut newly: Vec<u32> = Vec::new();
    for v in 0..coord.w.len() {
        if bit(&state.frozen, v as u32) {
            continue;
        }
        let slack = coord.w[v] - coord.y[v];
        if coord.deg[v] > 0 && slack <= epsilon * coord.w[v] {
            newly.push(v as u32);
        }
    }
    coord.cover.extend(&newly);
    for &v in &newly {
        set_bit(&mut state.frozen, v);
    }

    // Recompute offers from the post-freeze state.
    for v in 0..coord.w.len() {
        state.offer[v] = if bit(&state.frozen, v as u32) || coord.deg[v] == 0 {
            0.0
        } else {
            let slack = (coord.w[v] - coord.y[v]).max(0.0);
            f32_toward_zero(slack / f64::from(coord.deg[v]))
        };
    }
    state.coord = Some(coord);

    // Broadcast the full offer table and the frozen delta.
    for to in 0..m {
        for base in (0..state.offer.len()).step_by(CHUNK) {
            let end = (base + CHUNK).min(state.offer.len());
            ctx.send(
                to,
                OocMsg::Offer {
                    base: base as u32,
                    offers: state.offer[base..end].into(),
                },
            );
        }
        if !newly.is_empty() {
            ctx.send(
                to,
                OocMsg::Frozen {
                    ids: newly.as_slice().into(),
                },
            );
        }
    }
}

/// Runs the out-of-core pricing executor over an on-disk graph.
///
/// `weights[v]` is vertex `v`'s weight (all finite and nonnegative);
/// `cluster` fixes `M` and the per-machine budget `S`. The run is
/// deterministic in its inputs and — apart from resident-memory and
/// spill statistics — independent of whether shards fit in RAM.
///
/// Errors when the per-vertex state alone cannot fit under `S`: no
/// amount of spilling can rescue a budget smaller than what this
/// algorithm keeps resident per machine.
pub fn run_outofcore(
    csr: &ChunkedCsr,
    weights: &[f64],
    cfg: &OocConfig,
    cluster: MpcConfig,
) -> Result<OocOutcome, String> {
    let n = csr.num_vertices();
    assert_eq!(weights.len(), n, "one weight per vertex");
    assert!(
        cfg.epsilon > 0.0 && cfg.epsilon < 1.0,
        "epsilon must lie in (0, 1)"
    );
    assert!(cfg.batch_words > 0, "batch_words must be positive");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be finite and nonnegative"
    );
    let m = cluster.num_machines;
    let s = cluster.memory_words;
    let coord_words = 2 * n + 2 * n.div_ceil(2) + 2;
    let floor = aux_words(n) + coord_words + cfg.batch_words;
    if floor > s {
        return Err(format!(
            "budget too small: the coordinator needs {floor} resident words for per-vertex \
             state alone, but S = {s}; spilling cannot reduce per-vertex state"
        ));
    }

    let epsilon = cfg.epsilon;
    let mut cl: Cluster<OocState, OocMsg> = Cluster::new(cluster, |id| OocState {
        shard: Shard::Unloaded,
        offer: vec![0.0; n],
        frozen: vec![0; n.div_ceil(64)],
        acc: vec![0.0; n],
        cnt: vec![0; n],
        batch: Vec::new(),
        shard_error: None,
        coord: (id == 0).then(|| {
            Box::new(Coord {
                w: weights.to_vec(),
                y: vec![0.0; n],
                deg: vec![0; n],
                cnt_agg: vec![0; n],
                ..Coord::default()
            })
        }),
    });

    // Census: load (or spill) the shard, report full degrees.
    let b = csr.num_buckets();
    let batch_words = cfg.batch_words;
    cl.round("ooc census", |ctx, state, _inbox| {
        let range = shard_range(ctx.id, m, b);
        // Keep the shard resident only if it leaves half the budget free
        // for inboxes and scratch; otherwise pay the spill, once.
        let resident_budget = (s / 2).saturating_sub(state.words()) as u64;
        if let Err(e) = state.load_shard(ctx, csr, range, resident_budget, batch_words) {
            // Finish the round on an empty shard; the run stops right
            // after it with this error.
            state.shard = Shard::Resident(Vec::new());
            state.shard_error = Some(e);
        }
        // Full-degree census (no frozen set exists yet).
        state.cnt.fill(0);
        let OocState {
            shard, cnt, batch, ..
        } = state;
        let mut active = 0u64;
        match shard {
            Shard::Resident(words) => active += census_words(words, cnt),
            Shard::Spilled => {
                ctx.spill().rewind();
                loop {
                    let cap = batch.capacity();
                    batch.resize(cap, 0);
                    let got = ctx.spill().read_words(batch).unwrap_or(0);
                    if got == 0 {
                        break;
                    }
                    active += census_words(&batch[..got], cnt);
                }
            }
            Shard::Unloaded => unreachable!("shard was just loaded"),
        }
        ctx.send(0, OocMsg::Active { half_edges: active });
        state.report_chunks(ctx, false);
    });

    if let Some((id, e)) = cl
        .states()
        .iter()
        .enumerate()
        .find_map(|(id, st)| st.shard_error.as_ref().map(|e| (id, e)))
    {
        return Err(format!("machine {id} could not read its shard: {e}"));
    }

    // Init: fold the census into degrees and offers, broadcast.
    cl.round("ooc init", move |ctx, state, inbox| {
        if ctx.id != 0 {
            debug_assert!(inbox.is_empty());
            return;
        }
        settle(state, ctx, inbox, epsilon, m);
    });

    let active_at_coord = |cl: &Cluster<OocState, OocMsg>| {
        cl.state(0)
            .coord
            .as_ref()
            .expect("machine 0 coordinates")
            .active
    };

    let mut iterations = 0usize;
    while iterations < cfg.max_iterations && active_at_coord(&cl) > 0 {
        iterations += 1;
        cl.round("ooc price", |ctx, state, inbox| {
            state.apply_broadcast(inbox);
            state.price_and_report(ctx);
        });
        cl.round("ooc settle", move |ctx, state, inbox| {
            if ctx.id != 0 {
                debug_assert!(inbox.is_empty());
                return;
            }
            settle(state, ctx, inbox, epsilon, m);
        });
    }

    if active_at_coord(&cl) > 0 {
        // Iteration cap: force-freeze everything still incident to an
        // active edge, so the result is a cover regardless.
        cl.round("ooc force", |ctx, state, inbox| {
            // Drain the last settle's broadcast so nothing dangles.
            state.apply_broadcast(inbox);
            if ctx.id != 0 {
                return;
            }
            let mut coord = state.coord.take().expect("machine 0 coordinates");
            let mut forced: Vec<u32> = Vec::new();
            for v in 0..coord.deg.len() {
                if coord.deg[v] > 0 && !bit(&state.frozen, v as u32) {
                    forced.push(v as u32);
                }
            }
            coord.forced = forced.len();
            coord.cover.extend(&forced);
            for v in forced {
                set_bit(&mut state.frozen, v);
            }
            state.coord = Some(coord);
        });
    }

    // A spill I/O failure anywhere above latched in the machine's spill
    // file rather than panicking mid-round; surface the first one as this
    // executor's error type.
    if let Some(e) = cl.take_spill_error() {
        return Err(format!("spill I/O failure: {e}"));
    }

    let (mut states, trace) = cl.finish();
    let coord = states[0].coord.take().expect("machine 0 coordinates");
    let dual_lower_bound: f64 = coord
        .y
        .iter()
        .zip(&coord.w)
        .map(|(&y, &w)| y.min(w))
        .sum::<f64>()
        / 2.0;
    Ok(OocOutcome {
        cover: VertexCover::new(n, coord.cover.clone()),
        loads: coord.y,
        dual_lower_bound,
        iterations,
        forced: coord.forced,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_sim::MemoryBudget;
    use mwvc_graph::generators::gnm;
    use mwvc_graph::{StreamingGraphBuilder, WeightModel};
    use std::path::PathBuf;

    fn test_csr(n: usize, edges: usize, seed: u64, tag: &str) -> (ChunkedCsr, PathBuf) {
        let g = gnm(n, edges, seed);
        let path = std::env::temp_dir().join(format!(
            "ooc-exec-{}-{tag}-{n}-{edges}-{seed}.ocsr",
            std::process::id()
        ));
        let mut b = StreamingGraphBuilder::new(n, 1 << 16, None);
        for e in g.edges() {
            b.add_edge(e.u(), e.v());
        }
        let csr = b.finish(&path).expect("build test csr");
        (csr, path)
    }

    fn weights_for(n: usize, seed: u64) -> Vec<f64> {
        let g = gnm(n, 0, seed);
        WeightModel::Uniform { lo: 1.0, hi: 9.0 }
            .sample(&g, seed ^ 0xabc)
            .as_slice()
            .to_vec()
    }

    #[test]
    fn produces_a_verified_cover_with_a_real_lower_bound() {
        let (csr, path) = test_csr(400, 3_000, 7, "verify");
        let w = weights_for(400, 7);
        let out = run_outofcore(&csr, &w, &OocConfig::default(), MpcConfig::new(3, 1 << 20))
            .expect("run");
        let g = csr.load_graph().expect("load");
        std::fs::remove_file(path).ok();
        out.cover.verify(&g).expect("covers every edge");
        assert!(out.dual_lower_bound > 0.0);
        let cover_w = out.cover_weight(&w);
        assert!(cover_w >= out.dual_lower_bound - 1e-9);
        if out.forced == 0 {
            let ratio = cover_w / out.dual_lower_bound;
            assert!(
                ratio <= 2.0 / (1.0 - 0.1) + 1e-6,
                "pricing ratio {ratio} above 2/(1-eps)"
            );
        }
    }

    #[test]
    fn loads_never_exceed_weights() {
        let (csr, path) = test_csr(300, 2_000, 11, "feas");
        let w = weights_for(300, 11);
        let out = run_outofcore(&csr, &w, &OocConfig::default(), MpcConfig::new(4, 1 << 20))
            .expect("run");
        std::fs::remove_file(path).ok();
        for (v, (&y, &wv)) in out.loads.iter().zip(&w).enumerate() {
            assert!(
                y <= wv * (1.0 + 1e-12),
                "vertex {v}: load {y} exceeds weight {wv}"
            );
        }
    }

    #[test]
    fn spilled_and_resident_runs_agree_bit_for_bit() {
        let n = 500;
        let (csr, path) = test_csr(n, 6_000, 3, "agree");
        let w = weights_for(n, 3);
        let cfg = OocConfig {
            batch_words: 256,
            ..OocConfig::default()
        };
        // Generous budget: everything resident.
        let big = run_outofcore(&csr, &w, &cfg, MpcConfig::new(3, 1 << 20)).expect("big");
        // Tight budget: the ~4_000-word shards exceed S/2 minus the
        // fixed arrays, so every machine must spill. Enforced makes
        // under-spilling a panic rather than a statistic.
        let small_s = 7_000;
        let small = run_outofcore(
            &csr,
            &w,
            &cfg,
            MpcConfig::new(3, small_s).with_budget(MemoryBudget::Enforced),
        )
        .expect("small");
        std::fs::remove_file(path).ok();
        assert_eq!(big.trace.total_spill(), 0, "big run must not spill");
        assert!(small.trace.total_spill() > 0, "small run must spill");
        assert!(small.trace.summary().peak_resident_words <= small_s);
        assert_eq!(big.cover, small.cover);
        assert_eq!(
            big.loads.iter().map(|y| y.to_bits()).collect::<Vec<_>>(),
            small.loads.iter().map(|y| y.to_bits()).collect::<Vec<_>>(),
            "dual loads must be bit-identical across budgets"
        );
        assert_eq!(big.iterations, small.iterations);
        // Message-side trace fields are budget-independent; resident and
        // spill statistics are exactly the fields allowed to differ.
        assert_eq!(big.trace.rounds.len(), small.trace.rounds.len());
        for (a, b) in big.trace.rounds.iter().zip(&small.trace.rounds) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.max_sent, b.max_sent);
            assert_eq!(a.max_received, b.max_received);
            assert_eq!(a.total_traffic, b.total_traffic);
        }
    }

    #[test]
    fn budget_below_vertex_state_is_a_clean_error() {
        let (csr, path) = test_csr(200, 500, 5, "err");
        let w = weights_for(200, 5);
        let err = run_outofcore(&csr, &w, &OocConfig::default(), MpcConfig::new(2, 100))
            .expect_err("budget cannot hold vertex state");
        std::fs::remove_file(path).ok();
        assert!(err.contains("budget too small"), "unhelpful error: {err}");
    }

    #[test]
    fn unreadable_shard_is_an_error_not_a_panic() {
        let (csr, path) = test_csr(200, 1_500, 17, "gone");
        let w = weights_for(200, 17);
        std::fs::remove_file(&path).expect("remove the shard file");
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_outofcore(&csr, &w, &OocConfig::default(), MpcConfig::new(3, 1 << 20))
        }));
        let err = run
            .expect("a missing shard file must not panic")
            .expect_err("a missing shard file must fail the run");
        assert!(
            err.contains("machine 0 could not read its shard"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn iteration_cap_still_yields_a_cover() {
        let (csr, path) = test_csr(200, 1_500, 13, "force");
        let w = weights_for(200, 13);
        let cfg = OocConfig {
            max_iterations: 1,
            ..OocConfig::default()
        };
        let out = run_outofcore(&csr, &w, &cfg, MpcConfig::new(2, 1 << 20)).expect("run");
        assert!(out.forced > 0, "one iteration cannot converge here");
        let g = csr.load_graph().expect("load");
        std::fs::remove_file(path).ok();
        out.cover.verify(&g).expect("forced result still covers");
    }

    #[test]
    fn empty_graph_is_trivial() {
        let (csr, path) = test_csr(50, 0, 1, "empty");
        let w = weights_for(50, 1);
        let out = run_outofcore(&csr, &w, &OocConfig::default(), MpcConfig::new(2, 1 << 16))
            .expect("run");
        std::fs::remove_file(path).ok();
        assert_eq!(out.cover.size(), 0);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.dual_lower_bound, 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let (csr, path) = test_csr(250, 2_500, 21, "det");
        let w = weights_for(250, 21);
        let cfg = OocConfig::default();
        let a = run_outofcore(&csr, &w, &cfg, MpcConfig::new(3, 1 << 20)).expect("a");
        let b = run_outofcore(&csr, &w, &cfg, MpcConfig::new(3, 1 << 20)).expect("b");
        std::fs::remove_file(path).ok();
        assert_eq!(a.cover, b.cover);
        assert_eq!(
            a.loads.iter().map(|y| y.to_bits()).collect::<Vec<_>>(),
            b.loads.iter().map(|y| y.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn f32_toward_zero_never_rounds_up() {
        for x in [0.0, 0.1, 1.0 / 3.0, 1e-30, 123.456, 1e30] {
            let q = f32_toward_zero(x);
            assert!(f64::from(q) <= x, "{q} > {x}");
            assert!(x - f64::from(q) < x * 1e-6 + f64::MIN_POSITIVE);
        }
    }
}
