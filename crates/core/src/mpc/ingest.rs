//! Input distribution of the dataflow skeleton ([`super::dataflow`]),
//! which both dataflow executors run on.
//!
//! The MPC model hands out the input for free ("the input is divided
//! arbitrarily among all machines"); this module does that division on
//! the host, in parallel and in flat arrays, hashing each key to its
//! machine once:
//!
//! * a [`MachineMemo`] holds `owner_of_key` of the keys `0..len`, built in
//!   parallel with one hash per key. The skeleton builds one for the
//!   vertex ids and [`distribute_edges`] one for the edge ids; everything
//!   after reads them instead of hashing: the vertex split, the placement
//!   of every edge, each machine's owner grouping, the closing `solve`
//!   round's notices and both assemblies,
//! * every edge `(u, v)`, `u < v`, gets the canonical id
//!   [`EdgeIndex::edges`](mwvc_graph::EdgeIndex::edges) would give it —
//!   the number of upper edges of all vertices below `u` plus the rank of
//!   `v` among `u`'s upper neighbours — read straight off the CSR,
//! * edge `e` is homed on machine `owner_of_key(e)`, read from the edge
//!   memo: each vertex chunk counts its edges per machine, then writes
//!   them into one exact-size buffer, machine-major, so machine `h`'s run
//!   of every chunk, in chunk order, holds its edges in ascending edge id,
//!   and its records go into one exact-size array,
//! * each machine gets its [`EndpointTable`]: the distinct endpoints of
//!   its edges in ascending id, each with its local degree, a
//!   [`SlotTable`] from vertex id to endpoint index, and the endpoints
//!   grouped by owner machine ([`EndpointTable::by_owner`]). Each edge
//!   record is built knowing both endpoints' indices, so the distributed
//!   executor's per-vertex home rounds keep one entry per endpoint, sweep
//!   the edge array once in ascending index, and index their per-vertex
//!   facts and sums by endpoint; ascending endpoint index is ascending
//!   vertex id,
//! * vertex `v` is owned by machine `owner_of_key(v)`, read from the
//!   vertex memo: [`distribute_vertices`] builds each owner's list,
//!   ascending by id, and one table from each vertex to its position in
//!   its owner's list.
//!
//! The chunk count only shapes the host work; each machine's array and
//! endpoint table are the same for every chunk count and pool width.
//!
//! The same layout — key `k` on machine `owner_of_key(k)`, each machine's
//! array ascending by key — also serves the way back and the lookups in
//! between, so the executors search no sorted array by key:
//!
//! * [`gather_by_owner`] assembles a per-key output (the cover's
//!   membership, the edge duals) in one merge over the machines' arrays,
//!   taking each key's machine from its memo,
//! * [`SlotTable`] maps a key to its index in a list of distinct keys (a
//!   machine's endpoints, a solver's sorted vertex list) in one table
//!   read.
//!
//! Every exchange between a vertex's owner and the homes of its edges
//! sends by destination, one machine at a time, from a [`ByDestination`]
//! table: a home's endpoints grouped by owner (built here), and an
//! owner's subscriptions grouped by home (built by the skeleton's first
//! `stats` round from its `Subscribe` inbox). A machine then emits one run per
//! destination, and each (sender, destination) stream stays in ascending
//! vertex id.

use mpc_sim::owner_of_key;
use mwvc_graph::{Graph, VertexId};
use rayon::prelude::*;

/// Key → machine for the keys `0..len` (vertex ids or edge ids) over
/// `machines` machines: entry `k` is `owner_of_key(k, machines)`. Built in
/// parallel with one hash per key. It takes one byte per key on up to 256
/// machines and four beyond, so the edge memo the skeleton keeps through a
/// solve costs one byte per edge on such clusters. Like the owner index,
/// it is host layout that carries no data, never an accounted word.
#[derive(Debug)]
pub struct MachineMemo {
    machines: usize,
    table: MemoTable,
}

#[derive(Debug)]
enum MemoTable {
    /// Up to 256 machines.
    Narrow(Vec<u8>),
    /// More machines.
    Wide(Vec<u32>),
}

impl MachineMemo {
    /// The memo of the keys `0..len` over `machines` machines.
    pub fn new(len: usize, machines: usize) -> Self {
        assert!(machines > 0, "at least one machine");
        let home = |k: usize| owner_of_key(k as u64, machines);
        let keys = (0..len).into_par_iter();
        let table = if machines <= 256 {
            MemoTable::Narrow(keys.map(|k| home(k) as u8).collect())
        } else {
            MemoTable::Wide(keys.map(|k| home(k) as u32).collect())
        };
        Self { machines, table }
    }

    /// The machine of key `k`. Panics if `k` is not below [`Self::len`].
    #[inline]
    pub fn get(&self, k: usize) -> usize {
        match &self.table {
            MemoTable::Narrow(t) => t[k] as usize,
            MemoTable::Wide(t) => t[k] as usize,
        }
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        match &self.table {
            MemoTable::Narrow(t) => t.len(),
            MemoTable::Wide(t) => t.len(),
        }
    }

    /// Whether there is no key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One machine's endpoints: every vertex with at least one of the
/// machine's edges, in ascending id, with its local degree, the table
/// from a vertex id to its index here (its *endpoint index*), and the
/// endpoint indices grouped by the machine that owns each vertex.
#[derive(Debug, Clone)]
pub struct EndpointTable {
    /// Endpoint ids, ascending.
    ids: Vec<VertexId>,
    /// `degree[i]`: local edges incident to `ids[i]`.
    degree: Vec<u32>,
    /// Vertex id → endpoint index.
    slots: SlotTable,
    /// Endpoint indices by owner machine.
    by_owner: ByDestination,
    /// Local edges.
    edges: usize,
}

impl EndpointTable {
    /// The table of the local edges in `runs` (each a `[geid, u, v]`) over
    /// the vertices of `owners`, grouped by the machine `owners` gives each.
    /// One pass over the edges counts each endpoint's local degree into a
    /// slot array filled with [`SlotTable::NONE`] (wrapping, so a listed
    /// slot holds its degree minus one) and marks it in a bitset; one walk
    /// over the set bits, in ascending id, turns the counts into endpoint
    /// indices. Unlisted slots keep `NONE`, so no pass visits every vertex.
    /// A counting sort by owner then groups the indices.
    fn build(owners: &MachineMemo, runs: &[&[[u32; 3]]]) -> Self {
        let n = owners.len();
        let mut slot = vec![SlotTable::NONE; n];
        let mut listed = vec![0u64; n.div_ceil(64)];
        for run in runs {
            for &[_, u, v] in *run {
                for w in [u as usize, v as usize] {
                    slot[w] = slot[w].wrapping_add(1);
                    listed[w / 64] |= 1 << (w % 64);
                }
            }
        }
        let len = listed.iter().map(|b| b.count_ones() as usize).sum();
        let mut ids = Vec::with_capacity(len);
        let mut degree = Vec::with_capacity(len);
        let mut owner = Vec::with_capacity(len);
        for (word, &bits) in listed.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let v = 64 * word + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                degree.push(slot[v].wrapping_add(1));
                slot[v] = ids.len() as u32;
                ids.push(v as VertexId);
                owner.push(owners.get(v) as u32);
            }
        }
        Self {
            ids,
            degree,
            slots: SlotTable { slot },
            by_owner: ByDestination::by_machine(owners.machines(), &owner),
            edges: runs.iter().map(|r| r.len()).sum(),
        }
    }

    /// Endpoint ids, ascending: entry `i` is the vertex of endpoint `i`.
    pub fn ids(&self) -> &[VertexId] {
        &self.ids
    }

    /// Frees the degrees and the slot table, for an executor whose rounds
    /// read neither after ingest: [`Self::degrees`] is then empty and
    /// [`Self::index_of`] finds nothing. The ids, the owner grouping and
    /// [`Self::words`] stay.
    pub fn drop_lookups(&mut self) {
        self.degree = Vec::new();
        self.slots = SlotTable { slot: Vec::new() };
    }

    /// The endpoint indices grouped by owner machine: for each machine
    /// that owns an endpoint, in ascending machine order, the indices of
    /// the endpoints it owns, ascending.
    pub fn by_owner(&self) -> &ByDestination {
        &self.by_owner
    }

    /// Local degrees, by endpoint index.
    pub fn degrees(&self) -> &[u32] {
        &self.degree
    }

    /// Number of distinct endpoints.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the machine homes no edge.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Endpoint index of vertex `v`, or `None` if no local edge touches
    /// it.
    #[inline]
    pub fn index_of(&self, v: VertexId) -> Option<usize> {
        self.slots.get(v)
    }

    /// Accounted size in words: one per distinct endpoint plus two per
    /// local edge. This is the model's charge for a machine's vertex →
    /// incident-edge lookup, which the executors' home rounds make by
    /// sweeping the edge array, so the host stores no such index. The
    /// charge is kept anyway: changing it would move the gated
    /// resident-memory figures of every run, an accounting change of its
    /// own.
    pub fn words(&self) -> usize {
        self.ids.len() + 2 * self.edges
    }
}

/// A machine's local indices grouped by the machine they are sent to: for
/// each destination, in ascending machine order, the ascending indices of
/// the local entries (endpoints, owned vertices) it hears about. A round
/// that walks it one group at a time emits one destination run per group,
/// and each destination's stream in ascending index. A home keeps its
/// endpoints grouped by owner ([`EndpointTable::by_owner`]); an owner
/// keeps its subscriptions grouped by home, filled with [`Self::push`]
/// from the `Subscribe` inbox.
#[derive(Debug, Clone, Default)]
pub struct ByDestination {
    /// The indices, group after group.
    index: Vec<u32>,
    /// Per non-empty group, in ascending machine order: the machine and
    /// the end of its indices in `index`.
    groups: Vec<(u32, u32)>,
}

impl ByDestination {
    /// The indices `0..owner.len()` grouped by `owner[i] < machines`, in
    /// one counting sort.
    fn by_machine(machines: usize, owner: &[u32]) -> Self {
        let mut cursor = vec![0u32; machines];
        for &o in owner {
            cursor[o as usize] += 1;
        }
        let mut groups = Vec::new();
        let mut end = 0u32;
        for (machine, c) in cursor.iter_mut().enumerate() {
            let count = std::mem::replace(c, end);
            if count > 0 {
                end += count;
                groups.push((machine as u32, end));
            }
        }
        let mut index = vec![0u32; owner.len()];
        for (i, &o) in owner.iter().enumerate() {
            let c = &mut cursor[o as usize];
            index[*c as usize] = i as u32;
            *c += 1;
        }
        Self { index, groups }
    }

    /// Appends `index` to the group of `machine`. Entries must come
    /// machine-major, each machine's indices ascending: panics otherwise.
    pub fn push(&mut self, machine: usize, index: u32) {
        let machine = u32::try_from(machine).expect("machine index fits u32");
        match self.groups.last_mut() {
            Some((m, end)) if *m == machine => {
                assert!(
                    self.index.last() < Some(&index),
                    "indices must ascend within a machine's group"
                );
                *end += 1;
            }
            last => {
                assert!(
                    last.is_none_or(|&mut (m, _)| m < machine),
                    "groups must come in ascending machine order"
                );
                self.groups.push((machine, self.index.len() as u32 + 1));
            }
        }
        self.index.push(index);
    }

    /// The non-empty groups in ascending machine order, each a machine and
    /// its indices, ascending.
    pub fn groups(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        let mut start = 0;
        self.groups.iter().map(move |&(machine, end)| {
            let group = &self.index[start..end as usize];
            start = end as usize;
            (machine as usize, group)
        })
    }

    /// Number of indices over all groups.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no group holds an index.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// The edges homed on one machine.
#[derive(Debug, Clone)]
pub struct EdgeHomes<T> {
    /// The machine's edge records, in ascending global edge id.
    pub edges: Vec<T>,
    /// The distinct endpoints of `edges`.
    pub endpoints: EndpointTable,
}

/// Homes every edge of `g` on machine `owner_of_key(edge id)` of the
/// machines of `owners`, the memo of `g`'s vertices, building each record
/// with `make(geid, [u, v], [iu, iv])`: `u < v` are the endpoints and
/// `iu`, `iv` their indices in the machine's [`EndpointTable`]. Returns
/// one [`EdgeHomes`] per machine, and the memo of the edge ids that
/// placed them, for [`gather_by_owner`].
pub fn distribute_edges<T, F>(
    g: &Graph,
    owners: &MachineMemo,
    make: F,
) -> (Vec<EdgeHomes<T>>, MachineMemo)
where
    T: Send,
    F: Fn(u32, [VertexId; 2], [u32; 2]) -> T + Sync,
{
    distribute_in_chunks(g, owners, 4 * rayon::current_num_threads(), make)
}

/// Neighbours of `u` above `u`, ascending.
#[inline]
fn upper_neighbors(g: &Graph, u: VertexId) -> &[VertexId] {
    let nbrs = g.neighbors(u);
    &nbrs[nbrs.partition_point(|&x| x < u)..]
}

/// [`distribute_edges`] over `chunks` vertex ranges of about equal edge
/// count; the output does not depend on `chunks`.
fn distribute_in_chunks<T, F>(
    g: &Graph,
    owners: &MachineMemo,
    chunks: usize,
    make: F,
) -> (Vec<EdgeHomes<T>>, MachineMemo)
where
    T: Send,
    F: Fn(u32, [VertexId; 2], [u32; 2]) -> T + Sync,
{
    let n = g.num_vertices();
    assert_eq!(owners.len(), n, "one owner per vertex");
    let machines = owners.machines();
    // first[u]: id of u's first upper edge.
    let upper: Vec<u32> = (0..n as VertexId)
        .into_par_iter()
        .map(|u| upper_neighbors(g, u).len() as u32)
        .collect();
    let mut first = Vec::with_capacity(n + 1);
    first.push(0u32);
    for (u, &d) in upper.iter().enumerate() {
        first.push(first[u] + d);
    }
    let m = first[n] as usize;
    debug_assert_eq!(m, g.num_edges());
    let memo = MachineMemo::new(m, machines);

    // Vertex ranges [bounds[c], bounds[c + 1]) of about m / chunks edges.
    let chunks = chunks.clamp(1, n.max(1));
    let mut bounds: Vec<usize> = (0..chunks)
        .map(|c| first[..n].partition_point(|&f| (f as usize) < c * m / chunks))
        .collect();
    bounds.push(n);

    // Per chunk: its edges per machine, counted from the memo, then the
    // edges themselves as `[geid, u, v]`, in ascending edge id, into one
    // exact-size buffer at per-machine cursors. Machine h's run of the
    // chunk is `buf[start[h]..start[h + 1]]`.
    let placed: Vec<(Vec<u32>, Vec<[u32; 3]>)> = (0..chunks)
        .into_par_iter()
        .map(|c| {
            let (lo, hi) = (bounds[c], bounds[c + 1]);
            let ids = first[lo] as usize..first[hi] as usize;
            let mut start = vec![0u32; machines + 1];
            for geid in ids.clone() {
                start[memo.get(geid) + 1] += 1;
            }
            for h in 0..machines {
                start[h + 1] += start[h];
            }
            let mut cursor = start[..machines].to_vec();
            let mut buf = vec![[0u32; 3]; ids.len()];
            for u in lo..hi {
                let u = u as VertexId;
                for (geid, &v) in (first[u as usize]..).zip(upper_neighbors(g, u)) {
                    let at = &mut cursor[memo.get(geid as usize)];
                    buf[*at as usize] = [geid, u, v];
                    *at += 1;
                }
            }
            (start, buf)
        })
        .collect();

    // Per machine, its runs in chunk order are its edges in ascending id:
    // build its endpoint table, then its records.
    let machine_homes = (0..machines)
        .into_par_iter()
        .map(|h| {
            let runs: Vec<&[[u32; 3]]> = placed
                .iter()
                .map(|(start, buf)| &buf[start[h] as usize..start[h + 1] as usize])
                .collect();
            let endpoints = EndpointTable::build(owners, &runs);
            let index = |v: VertexId| endpoints.slots.slot[v as usize];
            let mut edges = Vec::with_capacity(endpoints.edges);
            for run in runs {
                edges.extend(
                    run.iter()
                        .map(|&[geid, u, v]| make(geid, [u, v], [index(u), index(v)])),
                );
            }
            EdgeHomes { edges, endpoints }
        })
        .collect();
    (machine_homes, memo)
}

/// Splits the vertices of `owners` over its machines: vertex `v` goes, as
/// `make(v)`, to the list of machine `owners.get(v)`, and each list is
/// ascending by id. Also returns the *owner index*: entry `v` is the
/// position of `v` in its owner's list. Like `owners`, it is host layout
/// that carries no data, one table for the whole cluster, read by every
/// owner round to find a message's vertex.
pub fn distribute_vertices<T>(
    owners: &MachineMemo,
    mut make: impl FnMut(VertexId) -> T,
) -> (Vec<Vec<T>>, Vec<u32>) {
    let mut lists: Vec<Vec<T>> = (0..owners.machines()).map(|_| Vec::new()).collect();
    let index = (0..owners.len())
        .map(|v| {
            let list = &mut lists[owners.get(v)];
            list.push(make(v as VertexId));
            (list.len() - 1) as u32
        })
        .collect();
    (lists, index)
}

/// Assembles the output for the keys of `memo` from one array per
/// machine, laid out as [`distribute_edges`] lays out edges: the record of
/// key `k` lives on machine `memo.get(k)`, and each array is ascending by
/// `key`. Slot `k` of the result is `value` of that record.
///
/// The output is cut into a few ranges per pool thread; each range finds
/// its start in every array with one binary search, then walks its keys
/// in order, taking each record at the cursor of the machine the memo
/// names. Every slot has exactly one source, so the result does not
/// depend on the range count or the pool width. Panics with `missing` if a
/// key has no record where the layout puts it: a record that is missing,
/// or that sits on another machine's array.
pub fn gather_by_owner<T, U, K, V>(
    memo: &MachineMemo,
    arrays: &[&[T]],
    key: K,
    value: V,
    missing: &str,
) -> Vec<U>
where
    T: Sync,
    U: Copy + Default + Send,
    K: Fn(&T) -> u32 + Sync,
    V: Fn(&T) -> U + Sync,
{
    let ranges = 4 * rayon::current_num_threads();
    gather_in_ranges(memo, arrays, ranges, key, value, missing)
}

/// [`gather_by_owner`] over `ranges` output ranges of about equal length;
/// the output does not depend on `ranges`.
fn gather_in_ranges<T, U, K, V>(
    memo: &MachineMemo,
    arrays: &[&[T]],
    ranges: usize,
    key: K,
    value: V,
    missing: &str,
) -> Vec<U>
where
    T: Sync,
    U: Copy + Default + Send,
    K: Fn(&T) -> u32 + Sync,
    V: Fn(&T) -> U + Sync,
{
    assert_eq!(arrays.len(), memo.machines(), "one array per machine");
    let len = memo.len();
    let mut out = vec![U::default(); len];
    let step = len.div_ceil(ranges.max(1)).max(1);
    out.chunks_mut(step)
        .enumerate()
        .collect::<Vec<_>>()
        .into_par_iter()
        .for_each(|(r, slots)| {
            let start = r * step;
            let mut cursor: Vec<usize> = arrays
                .iter()
                .map(|a| a.partition_point(|t| (key(t) as usize) < start))
                .collect();
            for (k, slot) in (start..).zip(slots.iter_mut()) {
                let h = memo.get(k);
                let t = arrays[h]
                    .get(cursor[h])
                    .filter(|t| key(t) as usize == k)
                    .unwrap_or_else(|| panic!("{missing}"));
                *slot = value(t);
                cursor[h] += 1;
            }
        });
    out
}

/// Per key `0..n`, the index of that key in a list of distinct keys: a
/// constant-time stand-in for a binary search over a sorted id list.
/// Built in one pass over the list. A distributed home keeps one for its
/// endpoints from ingest on, and a solver one for a single round (see
/// [`local_instance`]); either is host layout, never an accounted word.
#[derive(Debug, Clone)]
pub struct SlotTable {
    /// `slot[k]`: index of key `k`, or `NONE` if unlisted.
    slot: Vec<u32>,
}

impl SlotTable {
    /// The entry of a key that is not listed.
    const NONE: u32 = u32::MAX;

    /// The table of `keys` (distinct, each below `n`), listed in index
    /// order.
    fn new(n: usize, keys: impl IntoIterator<Item = u32>) -> Self {
        let mut slot = vec![Self::NONE; n];
        for (i, k) in keys.into_iter().enumerate() {
            slot[k as usize] = i as u32;
        }
        Self { slot }
    }

    /// Index of `k` in the listed keys, or `None` if it is not listed.
    #[inline]
    pub fn get(&self, k: u32) -> Option<usize> {
        match self.slot.get(k as usize) {
            Some(&i) if i != Self::NONE => Some(i as usize),
            _ => None,
        }
    }
}

/// A solver's inbox as a local instance on vertices `0..n`: sorts the
/// `(v, w')` pairs it received by vertex id and `edges` by edge id
/// (`edge(e)` gives an edge's id and global endpoints `u < v`), and
/// returns the ids, their weights, and each edge's endpoints as local
/// indices (positions in the id list), in edge-id order. Edge-id order is
/// the canonical order of the input graph and the remap is monotone, so
/// the local pairs come out canonical and strictly ascending, the order
/// [`Graph::from_sorted_pairs`] takes: pair `i` is edge `i` of the graph
/// they span. Panics with `missing` if an endpoint is not listed.
pub fn local_instance<E>(
    n: usize,
    vertices: &mut [(VertexId, f64)],
    edges: &mut [E],
    edge: impl Fn(&E) -> (u32, [VertexId; 2]),
    missing: &str,
) -> (Vec<VertexId>, Vec<f64>, Vec<(u32, u32)>) {
    vertices.sort_unstable_by_key(|&(v, _)| v);
    edges.sort_unstable_by_key(|e| edge(e).0);
    let ids: Vec<VertexId> = vertices.iter().map(|&(v, _)| v).collect();
    let weights = vertices.iter().map(|&(_, w)| w).collect();
    let slots = SlotTable::new(n, ids.iter().copied());
    let local = |v: VertexId| slots.get(v).expect(missing) as u32;
    let pairs: Vec<(u32, u32)> = edges
        .iter()
        .map(|e| {
            let [u, v] = edge(e).1;
            (local(u), local(v))
        })
        .collect();
    debug_assert!(
        pairs.iter().all(|&(u, v)| u < v) && pairs.windows(2).all(|p| p[0] < p[1]),
        "canonical edge orders must align"
    );
    (ids, weights, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwvc_graph::generators::{chung_lu, gnm, star};
    use mwvc_graph::EdgeIndex;
    use std::collections::HashMap;

    /// One machine's `(geid, u, v)` edges and vertex → local indices map.
    type OracleHome = (Vec<(u32, u32, u32)>, HashMap<u32, Vec<u32>>);

    /// The executors' former serial input distribution: the oracle.
    fn serial_oracle(g: &Graph, machines: usize) -> Vec<OracleHome> {
        let mut out: Vec<OracleHome> = (0..machines)
            .map(|_| (Vec::new(), HashMap::new()))
            .collect();
        for (geid, e) in EdgeIndex::build(g).edges().iter().enumerate() {
            let (edges, index) = &mut out[owner_of_key(geid as u64, machines)];
            let idx = edges.len() as u32;
            edges.push((geid as u32, e.u(), e.v()));
            index.entry(e.u()).or_default().push(idx);
            index.entry(e.v()).or_default().push(idx);
        }
        out
    }

    /// A test record: `(geid, u, v, iu, iv)`.
    type Record = (u32, u32, u32, u32, u32);

    fn record(geid: u32, [u, v]: [u32; 2], [iu, iv]: [u32; 2]) -> Record {
        (geid, u, v, iu, iv)
    }

    /// Entry `k` of `memo` is `owner_of_key(k)` over `machines`, for every
    /// key `k` below `len`.
    fn assert_memoizes_owner_of_key(what: &str, memo: &MachineMemo, len: usize, machines: usize) {
        assert_eq!(memo.len(), len, "{what}");
        assert_eq!(memo.is_empty(), len == 0, "{what}");
        assert_eq!(memo.machines(), machines, "{what}");
        for k in 0..len {
            let want = owner_of_key(k as u64, machines);
            assert_eq!(memo.get(k), want, "{what}: key {k}");
        }
    }

    /// Ingests `g` over `machines` machines in `chunks` vertex chunks (or
    /// as [`distribute_edges`] does), and checks the vertex memo, the edge
    /// memo and every machine's homes against `owner_of_key` and the
    /// serial oracle.
    fn assert_ingest_matches_oracle(name: &str, g: &Graph, machines: usize, chunks: Option<usize>) {
        let owners = MachineMemo::new(g.num_vertices(), machines);
        let (homes, memo) = match chunks {
            Some(chunks) => distribute_in_chunks(g, &owners, chunks, record),
            None => distribute_edges(g, &owners, record),
        };
        let what = format!("{name}, {machines} machines");
        assert_memoizes_owner_of_key(
            &format!("{what}: vertices"),
            &owners,
            g.num_vertices(),
            machines,
        );
        assert_memoizes_owner_of_key(&format!("{what}: edges"), &memo, g.num_edges(), machines);
        assert_matches_oracle(name, g, machines, &homes);
    }

    fn assert_matches_oracle(name: &str, g: &Graph, machines: usize, homes: &[EdgeHomes<Record>]) {
        let oracle = serial_oracle(g, machines);
        assert_eq!(homes.len(), machines, "{name}");
        for (h, (home, (edges, index))) in homes.iter().zip(&oracle).enumerate() {
            let table = &home.endpoints;
            let got: Vec<(u32, u32, u32)> = home.edges.iter().map(|r| (r.0, r.1, r.2)).collect();
            assert_eq!(&got, edges, "{name}, machine {h}: edge sequence");
            // Each record's endpoint indices name its endpoints.
            for &(geid, u, v, iu, iv) in &home.edges {
                assert_eq!(
                    [table.ids()[iu as usize], table.ids()[iv as usize]],
                    [u, v],
                    "{name}, machine {h}: endpoint indices of edge {geid}"
                );
            }
            assert_eq!(table.len(), index.len(), "{name}, machine {h}");
            assert_eq!(table.is_empty(), index.is_empty(), "{name}, machine {h}");
            let words: usize = index.values().map(|s| 1 + s.len()).sum();
            assert_eq!(table.words(), words, "{name}, machine {h}: words");
            // The ids are ascending and distinct, and each endpoint's local
            // degree is the length of its oracle list (a vertex the table
            // skips has neither).
            assert!(
                table.ids().windows(2).all(|w| w[0] < w[1]),
                "{name}, machine {h}: ids ascending and distinct"
            );
            let scanned: Vec<(u32, u32)> = table
                .ids()
                .iter()
                .copied()
                .zip(table.degrees().iter().copied())
                .collect();
            let mut want: Vec<(u32, u32)> =
                index.iter().map(|(&v, s)| (v, s.len() as u32)).collect();
            want.sort_unstable();
            assert_eq!(scanned, want, "{name}, machine {h}: local degrees");
            // The slot table gives every listed id its index and every
            // other id none.
            for v in 0..g.num_vertices() as u32 + 2 {
                let want = table.ids().iter().position(|&x| x == v);
                assert_eq!(table.index_of(v), want, "{name}, machine {h}: slot of {v}");
            }
            assert_eq!(table.index_of(u32::MAX), None, "{name}, machine {h}");
            assert_owner_groups(name, h, machines, table);
        }
    }

    /// Every endpoint sits in exactly one owner group, the group of
    /// `owner_of_key` of its vertex, ascending within it, and the groups
    /// come in ascending owner order.
    fn assert_owner_groups(name: &str, h: usize, machines: usize, table: &EndpointTable) {
        let groups: Vec<(usize, &[u32])> = table.by_owner().groups().collect();
        assert!(
            groups.windows(2).all(|w| w[0].0 < w[1].0),
            "{name}, machine {h}: owners ascending"
        );
        let mut seen = vec![false; table.len()];
        for &(owner, group) in &groups {
            assert!(owner < machines, "{name}, machine {h}: owner {owner}");
            assert!(!group.is_empty(), "{name}, machine {h}: empty group");
            assert!(
                group.windows(2).all(|w| w[0] < w[1]),
                "{name}, machine {h}: owner {owner}'s group ascending"
            );
            for &i in group {
                let v = table.ids()[i as usize];
                assert_eq!(
                    owner_of_key(v as u64, machines),
                    owner,
                    "{name}, machine {h}: endpoint {v} in the wrong group"
                );
                assert!(!seen[i as usize], "{name}, machine {h}: endpoint {v} twice");
                seen[i as usize] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "{name}, machine {h}: every endpoint grouped"
        );
        assert_eq!(table.by_owner().len(), table.len(), "{name}, machine {h}");
    }

    fn graphs() -> Vec<(&'static str, Graph)> {
        vec![
            ("empty", Graph::empty(0)),
            ("isolated", Graph::empty(9)),
            (
                "isolated-plus-edges",
                Graph::from_edges(12, &[(3, 7), (7, 11), (0, 3)]),
            ),
            ("star", star(40)),
            ("gnm", gnm(300, 2_400, 7)),
            ("chung_lu", chung_lu(400, 2.3, 12.0, 3)),
        ]
    }

    /// 1, 2 and 7 machines, perfbench's widest cluster, and more machines
    /// than edges (past the one-byte memo on the larger graphs).
    fn machine_counts(g: &Graph) -> [usize; 5] {
        [1, 2, 7, 82, g.num_edges() + 3]
    }

    #[test]
    fn matches_the_serial_oracle_at_every_pool_width() {
        for threads in [1, 2, 5] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build test pool");
            for (name, g) in graphs() {
                for machines in machine_counts(&g) {
                    pool.install(|| assert_ingest_matches_oracle(name, &g, machines, None));
                }
            }
        }
    }

    #[test]
    fn dropping_the_lookups_keeps_ids_groups_and_words() {
        let g = gnm(300, 2_400, 7);
        let (homes, _) = distribute_edges(&g, &MachineMemo::new(g.num_vertices(), 7), record);
        for home in homes {
            let mut table = home.endpoints.clone();
            table.drop_lookups();
            assert_eq!(table.ids(), home.endpoints.ids());
            assert_eq!(table.words(), home.endpoints.words());
            let groups = |t: &EndpointTable| -> Vec<(usize, Vec<u32>)> {
                t.by_owner()
                    .groups()
                    .map(|(m, g)| (m, g.to_vec()))
                    .collect()
            };
            assert_eq!(groups(&table), groups(&home.endpoints));
            assert!(table.degrees().is_empty());
            assert!(table.ids().iter().all(|&v| table.index_of(v).is_none()));
        }
    }

    #[test]
    fn chunk_count_does_not_change_the_output() {
        for (name, g) in graphs() {
            for machines in machine_counts(&g) {
                for chunks in [1, 2, 3, 64, g.num_vertices() + 5] {
                    assert_ingest_matches_oracle(name, &g, machines, Some(chunks));
                }
            }
        }
    }

    /// The executors' former output assembly: one binary search per key.
    fn search_oracle<T, U>(
        len: usize,
        arrays: &[&[T]],
        key: impl Fn(&T) -> u32,
        value: impl Fn(&T) -> U,
    ) -> Vec<U> {
        (0..len)
            .map(|k| {
                let a = arrays[owner_of_key(k as u64, arrays.len())];
                let i = a
                    .binary_search_by_key(&(k as u32), &key)
                    .expect("every key has a record");
                value(&a[i])
            })
            .collect()
    }

    /// Vertices `0..n` split over `machines` the way the executors build
    /// their `owned` lists: each on its owner, ascending.
    fn vertex_split(n: usize, machines: usize) -> Vec<Vec<u32>> {
        let mut owned = vec![Vec::new(); machines];
        for v in 0..n as u32 {
            owned[owner_of_key(v as u64, machines)].push(v);
        }
        owned
    }

    /// Checks the merge over `g`'s edge homes and vertex split against the
    /// search oracle, assembling with `gather`.
    fn assert_gather_matches_oracle(
        name: &str,
        g: &Graph,
        machines: usize,
        gather: impl Fn(
            &MachineMemo,
            &[&[(u32, u32, u32)]],
            &MachineMemo,
            &[&[u32]],
        ) -> (Vec<[u32; 2]>, Vec<u32>),
    ) {
        let owners = MachineMemo::new(g.num_vertices(), machines);
        let (homes, memo) = distribute_edges(g, &owners, |e, [u, v], _| (e, u, v));
        let edge_arrays: Vec<&[(u32, u32, u32)]> = homes.iter().map(|h| &h.edges[..]).collect();
        let owned = vertex_split(g.num_vertices(), machines);
        let vertex_arrays: Vec<&[u32]> = owned.iter().map(|o| &o[..]).collect();
        let (edges, vertices) = gather(&memo, &edge_arrays, &owners, &vertex_arrays);
        let want_edges = search_oracle(g.num_edges(), &edge_arrays, |e| e.0, |e| [e.1, e.2]);
        assert_eq!(edges, want_edges, "{name}, {machines} machines: edges");
        let want_vertices = search_oracle(g.num_vertices(), &vertex_arrays, |&v| v, |&v| !v);
        assert_eq!(
            vertices, want_vertices,
            "{name}, {machines} machines: vertices"
        );
    }

    #[test]
    fn gather_matches_the_search_oracle_at_every_pool_width() {
        for threads in [1, 2, 5] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build test pool");
            for (name, g) in graphs() {
                for machines in machine_counts(&g) {
                    assert_gather_matches_oracle(
                        name,
                        &g,
                        machines,
                        |memo, edges, owners, vertices| {
                            pool.install(|| {
                                (
                                    gather_by_owner(memo, edges, |e| e.0, |e| [e.1, e.2], "edge"),
                                    gather_by_owner(owners, vertices, |&v| v, |&v| !v, "v"),
                                )
                            })
                        },
                    );
                }
            }
        }
    }

    #[test]
    fn range_count_does_not_change_the_gather() {
        for (name, g) in graphs() {
            for machines in [1, 7] {
                for ranges in [1, 2, 3, 64, g.num_edges() + 5] {
                    assert_gather_matches_oracle(
                        name,
                        &g,
                        machines,
                        |memo, edges, owners, vertices| {
                            (
                                gather_in_ranges(
                                    memo,
                                    edges,
                                    ranges,
                                    |e| e.0,
                                    |e| [e.1, e.2],
                                    "edge",
                                ),
                                gather_in_ranges(owners, vertices, ranges, |&v| v, |&v| !v, "v"),
                            )
                        },
                    );
                }
            }
        }
    }

    #[test]
    fn gather_of_nothing_is_empty() {
        let empty: &[u32] = &[];
        let none: Vec<u32> =
            gather_by_owner(&MachineMemo::new(0, 1), &[empty], |&v| v, |&v| v, "no key");
        assert!(none.is_empty());
        let none: Vec<u32> = gather_by_owner(
            &MachineMemo::new(0, 3),
            &[empty; 3],
            |&v| v,
            |&v| v,
            "no key",
        );
        assert!(none.is_empty());
    }

    /// Per machine, its edges as `(geid, u, v)` records.
    type EdgeArrays = Vec<Vec<(u32, u32, u32)>>;

    /// The edge homes of `gnm(300, 2 400)` over 7 machines, and the edge
    /// memo that placed them.
    fn seven_homes() -> (MachineMemo, EdgeArrays) {
        let g = gnm(300, 2_400, 7);
        let owners = MachineMemo::new(g.num_vertices(), 7);
        let (homes, memo) = distribute_edges(&g, &owners, |e, [u, v], _| (e, u, v));
        (memo, homes.into_iter().map(|h| h.edges).collect())
    }

    /// Gathering the edges of `memo` from `arrays` panics with the
    /// `missing` message at pool widths 1 and 2.
    fn assert_gather_panics(memo: &MachineMemo, arrays: &[Vec<(u32, u32, u32)>], case: &str) {
        let arrays: Vec<&[(u32, u32, u32)]> = arrays.iter().map(|a| &a[..]).collect();
        for threads in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build test pool");
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.install(|| {
                    gather_by_owner(memo, &arrays, |e| e.0, |e| e.1, "every edge has a home")
                })
            }))
            .expect_err("a key off its layout must panic");
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied());
            assert_eq!(
                msg,
                Some("every edge has a home"),
                "{case}, {threads} threads"
            );
        }
    }

    #[test]
    fn gather_panics_on_a_missing_key() {
        let (memo, homes) = seven_homes();
        for h in [0, 3, homes.len() - 1] {
            let len = homes[h].len();
            for drop in [0, len / 2, len - 1] {
                let mut arrays = homes.clone();
                arrays[h].remove(drop);
                assert_gather_panics(
                    &memo,
                    &arrays,
                    &format!("machine {h}, record {drop} removed"),
                );
            }
        }
    }

    #[test]
    fn gather_panics_on_a_key_on_another_machine() {
        // Each record moves to another machine's array, at its ascending
        // position there: every array stays sorted and every key keeps one
        // record, but not where the layout puts it.
        let (memo, homes) = seven_homes();
        for (from, to) in [(0, 3), (3, 6), (6, 0)] {
            let len = homes[from].len();
            for at in [0, len / 2, len - 1] {
                let mut arrays = homes.clone();
                let moved = arrays[from].remove(at);
                let to_at = arrays[to].partition_point(|e| e.0 < moved.0);
                arrays[to].insert(to_at, moved);
                assert!(arrays[to].windows(2).all(|w| w[0].0 < w[1].0));
                assert_gather_panics(
                    &memo,
                    &arrays,
                    &format!("record {at} of machine {from} moved to machine {to}"),
                );
            }
        }
    }

    #[test]
    fn subscription_table_groups_a_home_major_sequence() {
        // Owner-side subscriptions over 6 machines, home-major and
        // ascending by position within a home: homes 0, 2 and 4 subscribe
        // to nothing, home 1 to three vertices and the last machine to
        // two.
        let machines = 6;
        let cases: [&[(usize, u32)]; 4] = [
            &[(1, 0), (1, 3), (1, 4), (3, 2), (5, 1), (5, 4)],
            &[(3, 0), (3, 1), (3, 7)],
            &[(machines - 1, 9)],
            &[],
        ];
        for seq in cases {
            let mut table = ByDestination::default();
            for &(home, i) in seq {
                table.push(home, i);
            }
            let got: Vec<(usize, Vec<u32>)> = table
                .groups()
                .map(|(home, group)| (home, group.to_vec()))
                .collect();
            let mut want: Vec<(usize, Vec<u32>)> = Vec::new();
            for &(home, i) in seq {
                match want.last_mut() {
                    Some((h, group)) if *h == home => group.push(i),
                    _ => want.push((home, vec![i])),
                }
            }
            assert_eq!(got, want, "{seq:?}");
            for (home, group) in &got {
                assert!(home < &machines, "{seq:?}");
                assert!(group.windows(2).all(|w| w[0] < w[1]), "{seq:?}");
            }
            // The executors charge one word per subscription, the length.
            assert_eq!(table.len(), seq.len(), "{seq:?}");
            assert_eq!(table.is_empty(), seq.is_empty(), "{seq:?}");
        }
    }

    #[test]
    fn subscription_table_rejects_an_out_of_order_sequence() {
        let bad: [&[(usize, u32)]; 4] = [
            &[(3, 0), (1, 2)],         // a home after a later one
            &[(1, 4), (1, 2)],         // positions descending within a home
            &[(1, 4), (1, 4)],         // one subscription twice
            &[(1, 0), (2, 0), (1, 1)], // a home's group split in two
        ];
        for seq in bad {
            let err = std::panic::catch_unwind(|| {
                let mut table = ByDestination::default();
                for &(home, i) in seq {
                    table.push(home, i);
                }
            });
            assert!(err.is_err(), "{seq:?} must panic");
        }
    }

    #[test]
    fn owner_index_memoizes_owner_of_key() {
        for n in [0usize, 1, 300] {
            for machines in [1, 7, n + 3] {
                let owners = MachineMemo::new(n, machines);
                let (lists, index) = distribute_vertices(&owners, |v| v);
                assert_eq!(lists.len(), machines);
                assert_eq!(index.len(), n);
                assert_eq!(lists, vertex_split(n, machines), "{n} vertices, {machines}");
                for v in 0..n as u32 {
                    let list = &lists[owner_of_key(v as u64, machines)];
                    assert_eq!(
                        list.get(index[v as usize] as usize),
                        Some(&v),
                        "{n} vertices, {machines} machines: vertex {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn memo_matches_owner_of_key_on_either_side_of_one_byte() {
        for threads in [1, 2, 5] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build test pool");
            for machines in [1, 2, 82, 255, 256, 257, 3_000] {
                for len in [0, 1, 5_000] {
                    let memo = pool.install(|| MachineMemo::new(len, machines));
                    let what = format!("{len} keys, {machines} machines, {threads} threads");
                    assert_memoizes_owner_of_key(&what, &memo, len, machines);
                }
            }
        }
    }

    #[test]
    fn local_instance_pairs_build_the_same_graph_both_ways() {
        // A residual instance as a solver receives it: every third edge of
        // a random graph, its endpoints and every even vertex (some with no
        // listed edge), each in scrambled order.
        let g = gnm(300, 2_400, 7);
        let n = g.num_vertices();
        let mut edges: Vec<(u32, u32, u32)> = EdgeIndex::build(&g)
            .edges()
            .iter()
            .enumerate()
            .filter(|(geid, _)| geid % 3 == 0)
            .map(|(geid, e)| (geid as u32, e.u(), e.v()))
            .collect();
        let mut listed: Vec<bool> = (0..n).map(|v| v % 2 == 0).collect();
        for &(_, u, v) in &edges {
            listed[u as usize] = true;
            listed[v as usize] = true;
        }
        let mut vertices: Vec<(u32, f64)> = (0..n as u32)
            .filter(|&v| listed[v as usize])
            .map(|v| (v, 1.0 + v as f64))
            .collect();
        vertices.reverse();
        let third = vertices.len() / 3;
        vertices.rotate_left(third);
        edges.reverse();
        let third = edges.len() / 3;
        edges.rotate_left(third);
        let (ids, _, pairs) = local_instance(
            n,
            &mut vertices,
            &mut edges,
            |&(geid, u, v)| (geid, [u, v]),
            "listed",
        );
        let built = Graph::from_edges(ids.len(), &pairs);
        assert_eq!(
            Graph::from_sorted_pairs(ids.len(), pairs.iter().copied()),
            built
        );
        assert_eq!(built.num_edges(), edges.len());
        for (&(a, b), &(geid, u, v)) in pairs.iter().zip(&edges) {
            assert_eq!([ids[a as usize], ids[b as usize]], [u, v], "edge {geid}");
        }
    }

    #[test]
    fn slot_table_maps_listed_keys_to_their_index() {
        let n = 300;
        let mut lists = vertex_split(n, 7);
        lists.push(vec![3, 7, 11]);
        lists.push(Vec::new());
        lists.push((0..n as u32).collect());
        for keys in &lists {
            let table = SlotTable::new(n, keys.iter().copied());
            assert_eq!(table.slot.len(), n);
            for k in 0..n as u32 {
                let want = keys.iter().position(|&x| x == k);
                let raw = want.map_or(u32::MAX, |i| i as u32);
                assert_eq!(table.slot[k as usize], raw, "key {k} of {keys:?}");
                assert_eq!(table.get(k), want, "key {k} of {keys:?}");
            }
            assert_eq!(table.get(n as u32), None, "a key past the table");
            assert_eq!(table.get(u32::MAX), None);
        }
        // A solver's inbox: vertices and edges arrive in any order, and
        // come out sorted, split, and remapped to list positions.
        let mut vertices = vec![(40, 4.0), (7, 0.5), (299, 9.0), (12, 1.0)];
        let mut edges = vec![(9, 12, 40, 'b'), (2, 7, 12, 'a'), (30, 40, 299, 'c')];
        let (ids, weights, pairs) = local_instance(
            n,
            &mut vertices,
            &mut edges,
            |&(geid, u, v, _)| (geid, [u, v]),
            "listed",
        );
        assert_eq!(ids, [7, 12, 40, 299]);
        assert_eq!(weights, [0.5, 1.0, 4.0, 9.0]);
        assert_eq!(pairs, [(0, 1), (1, 2), (2, 3)]);
        let order: Vec<char> = edges.iter().map(|e| e.3).collect();
        assert_eq!(order, ['a', 'b', 'c'], "edges sorted by edge id");
    }
}
