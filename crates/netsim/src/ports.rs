//! Egress-port storage: the dense data plane and its map-backed oracle.
//!
//! Every directed link in the topology owns one egress port
//! ([`crate::switch::PortState`]). The simulator resolves `(from, to)` to a
//! port on every enqueue, dequeue, and `PortFree` event, so the storage
//! layout *is* the data plane's hot path:
//!
//! * [`DensePortTable`] — the production implementation. Ports are assigned
//!   dense [`PortId`]s at construction time in `(from, to)` lexicographic
//!   order (node-major, per-node neighbors sorted by id — exactly the
//!   iteration order of a `BTreeMap<(usize, usize), _>`, which keeps
//!   telemetry export and conservation reporting byte-identical to the
//!   historical map-backed plane). Lookup is a binary search over the
//!   node's sorted neighbor row — O(log degree), with fabric degrees in the
//!   tens — and everything else is O(1) array indexing: port state,
//!   per-port [`LinkParams`] (no more linear adjacency scan per dequeue),
//!   and a dense queue-depth mirror for allocation-free sampling.
//! * [`BTreePortMap`] — the previous `BTreeMap<(usize, usize), PortState>`
//!   storage, retained as a differential oracle exactly like
//!   [`crate::event::HeapEventQueue`]: `tests/port_map_differential.rs`
//!   replays chaos scenarios on both implementations and asserts identical
//!   traces, telemetry, and conservation outcomes.
//!
//! Both implement [`PortMap`]; [`crate::sim::Simulator`] is generic over it
//! (defaulting to [`DensePortTable`]).

use crate::link::LinkParams;
use crate::switch::PortState;
use crate::topology::Topology;
use crate::NodeId;
use std::collections::BTreeMap;

/// Dense index of a directed link's egress port (see [`DensePortTable`]).
///
/// Ids are assigned at table construction in `(from, to)` lexicographic
/// order over the topology's directed links and never change afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u32);

/// Storage of every egress port's [`PortState`], keyed by directed link.
///
/// The simulator resolves a `(from, to)` pair to a cheap copyable
/// [`PortMap::Key`] once per event and uses the key for all follow-up
/// accesses (state, cached link parameters, depth mirror). Implementations
/// must present ports in deterministic `(from, to)` lexicographic order
/// from [`PortMap::ports_touched`] so telemetry snapshots and conservation
/// reports are identical across implementations.
pub trait PortMap {
    /// Cheap, copyable handle for one egress port.
    type Key: Copy;

    /// Builds the storage for `topo`'s directed links.
    fn new(topo: &Topology) -> Self
    where
        Self: Sized;

    /// Resolves the egress port of `from → to`, creating state if this
    /// implementation materializes ports lazily.
    ///
    /// # Panics
    ///
    /// May panic if no such directed link exists: the simulator only routes
    /// over links taken from the same adjacency the table indexes, so a
    /// missing link is a topology-construction bug.
    fn key(&mut self, from: NodeId, to: NodeId) -> Self::Key;

    /// Resolves `from → to` without creating state; `None` when the port
    /// was never materialized (or the link does not exist).
    fn try_key(&self, from: NodeId, to: NodeId) -> Option<Self::Key>;

    /// The port behind `key`.
    fn get_mut(&mut self, key: Self::Key) -> &mut PortState;

    /// Link parameters of the channel behind `key` (cached at build time —
    /// the hot path never re-scans the adjacency list).
    fn params(&self, key: Self::Key) -> LinkParams;

    /// Records the port's current data-queue depth and total queued-packet
    /// count in the dense mirrors consumed by [`PortMap::sample_depths`]
    /// and [`PortMap::has_backlog`]. Called after every enqueue and
    /// dequeue; implementations that read [`PortState`] directly ignore it.
    fn record_depth(&mut self, key: Self::Key, low_bytes: u32, queued_pkts: u32);

    /// Whether the port's serializer is currently transmitting.
    ///
    /// Kept outside [`PortMap::get_mut`] so the `PortFree`/idle fast paths
    /// (the most frequent events in a large fabric) can consult a compact
    /// flag array instead of pulling a whole [`PortState`] into cache.
    fn is_busy(&self, key: Self::Key) -> bool;

    /// Marks the port's serializer busy/idle (see [`PortMap::is_busy`]).
    fn set_busy(&mut self, key: Self::Key, busy: bool);

    /// Whether any packet (either priority class) is queued on the port.
    /// Like [`PortMap::is_busy`], answered without touching [`PortState`]
    /// where the implementation keeps a mirror.
    fn has_backlog(&self, key: Self::Key) -> bool;

    /// Visits every port's data-queue depth, allocation-free, for periodic
    /// queue sampling.
    fn sample_depths(&self, visit: &mut dyn FnMut(u32));

    /// Iterates `((from, to), port)` over every port that saw traffic
    /// (`counters.arrived > 0`), in `(from, to)` lexicographic order. Cold
    /// path (telemetry export, conservation reports); boxing is fine.
    fn ports_touched(&self) -> Box<dyn Iterator<Item = ((usize, usize), &PortState)> + '_>;
}

/// Dense, cache-friendly port storage (see the module docs).
///
/// Layout: one CSR over nodes. `row_off[n]..row_off[n + 1]` brackets node
/// `n`'s egress ports inside four parallel arrays — sorted neighbor ids
/// (the binary-search index), port states, cached link parameters, and the
/// queue-depth mirror. The [`PortId`] of a port is its position in those
/// arrays.
#[derive(Debug)]
pub struct DensePortTable {
    /// CSR row offsets: node `n` owns ports `row_off[n]..row_off[n + 1]`.
    row_off: Vec<u32>,
    /// Neighbor (destination node) ids, sorted ascending within each row.
    nbrs: Vec<u32>,
    /// Port state, parallel to `nbrs`.
    ports: Vec<PortState>,
    /// Link parameters of each directed channel, parallel to `nbrs`.
    params: Vec<LinkParams>,
    /// Data-queue depth mirror, parallel to `nbrs` (see
    /// [`PortMap::sample_depths`]).
    depths: Vec<u32>,
    /// Serializer-busy flags, parallel to `nbrs`. Hot: `PortFree` events
    /// and idle-port checks read/write only this compact array.
    busy: Vec<bool>,
    /// Total queued packets (both classes), parallel to `nbrs`. Hot: lets
    /// the drain path skip idle ports without touching [`PortState`].
    queued: Vec<u32>,
}

impl DensePortTable {
    /// Number of directed links (= ports) in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nbrs.len()
    }

    /// Whether the topology had no links.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nbrs.is_empty()
    }

    /// The source node owning `key` (inverse of the CSR row bracketing).
    fn owner_of(&self, key: PortId) -> usize {
        // partition_point returns the first row whose offset exceeds key,
        // i.e. one past the owning node.
        self.row_off.partition_point(|&off| off <= key.0) - 1
    }
}

impl PortMap for DensePortTable {
    type Key = PortId;

    fn new(topo: &Topology) -> Self {
        let n = topo.len();
        let mut row_off = Vec::with_capacity(n + 1);
        row_off.push(0u32);
        let mut nbrs: Vec<u32> = Vec::new();
        let mut params: Vec<LinkParams> = Vec::new();
        let mut row: Vec<(NodeId, LinkParams)> = Vec::new();
        for node in 0..n {
            row.clear();
            row.extend_from_slice(topo.neighbors(NodeId(node)));
            // Stable sort + dedup keep the *first* declared params of any
            // parallel duplicate link — the same channel the adjacency
            // linear scan (`Topology::link_params`) would have found.
            row.sort_by_key(|(v, _)| v.0);
            row.dedup_by_key(|(v, _)| v.0);
            for &(v, p) in row.iter() {
                // trimlint: allow(no-panic) -- build-time conversion; the table is u32-indexed by design and >u32::MAX nodes is unrepresentable upstream
                nbrs.push(u32::try_from(v.0).expect("node id fits u32"));
                params.push(p);
            }
            // trimlint: allow(no-panic) -- build-time conversion; port count is bounded by the u32 neighbor ids above
            row_off.push(u32::try_from(nbrs.len()).expect("port count fits u32"));
        }
        let ports = (0..nbrs.len()).map(|_| PortState::new()).collect();
        let depths = vec![0u32; nbrs.len()];
        let busy = vec![false; nbrs.len()];
        let queued = vec![0u32; nbrs.len()];
        Self {
            row_off,
            nbrs,
            ports,
            params,
            depths,
            busy,
            queued,
        }
    }

    // trimlint: hot-path -- per-packet (from, to) → PortId resolution
    fn key(&mut self, from: NodeId, to: NodeId) -> PortId {
        self.try_key(from, to).unwrap_or_else(|| {
            // trimlint: allow(no-panic) -- routed next hops come from the same adjacency this table indexes, so a missing link is a topology-construction bug (same contract as Topology::link_params)
            panic!("no port {from} → {to}")
        })
    }

    // trimlint: hot-path -- binary search over the node's sorted neighbor row
    fn try_key(&self, from: NodeId, to: NodeId) -> Option<PortId> {
        let lo = *self.row_off.get(from.0)? as usize;
        let hi = *self.row_off.get(from.0 + 1)? as usize;
        let want = u32::try_from(to.0).ok()?;
        let row = self.nbrs.get(lo..hi)?;
        row.binary_search(&want)
            .ok()
            .map(|i| PortId((lo + i) as u32))
    }

    // trimlint: hot-path -- O(1) port state access
    fn get_mut(&mut self, key: PortId) -> &mut PortState {
        &mut self.ports[key.0 as usize]
    }

    // trimlint: hot-path -- cached link params, no adjacency scan
    fn params(&self, key: PortId) -> LinkParams {
        self.params[key.0 as usize]
    }

    // trimlint: hot-path -- two stores into the dense mirrors
    fn record_depth(&mut self, key: PortId, low_bytes: u32, queued_pkts: u32) {
        self.depths[key.0 as usize] = low_bytes;
        self.queued[key.0 as usize] = queued_pkts;
    }

    // trimlint: hot-path -- one byte load, no PortState touch
    fn is_busy(&self, key: PortId) -> bool {
        self.busy[key.0 as usize]
    }

    // trimlint: hot-path -- one byte store, no PortState touch
    fn set_busy(&mut self, key: PortId, busy: bool) {
        self.busy[key.0 as usize] = busy;
    }

    // trimlint: hot-path -- one load from the queued-packet mirror
    fn has_backlog(&self, key: PortId) -> bool {
        self.queued[key.0 as usize] > 0
    }

    fn sample_depths(&self, visit: &mut dyn FnMut(u32)) {
        for &d in &self.depths {
            visit(d);
        }
    }

    fn ports_touched(&self) -> Box<dyn Iterator<Item = ((usize, usize), &PortState)> + '_> {
        // PortIds were assigned node-major with sorted neighbors, so index
        // order *is* (from, to) lexicographic order. Virgin ports are
        // filtered out to match the lazily-materializing oracle: a map
        // entry only ever existed once a packet arrived at the port.
        Box::new(
            self.ports
                .iter()
                .enumerate()
                .filter(|(_, p)| p.counters.arrived > 0)
                .map(|(i, p)| {
                    // trimlint: allow(no-panic) -- index came out of a Vec built with u32 offsets, so it fits
                    let key = PortId(u32::try_from(i).expect("port index fits u32"));
                    ((self.owner_of(key), self.nbrs[i] as usize), p)
                }),
        )
    }
}

/// The historical `BTreeMap`-backed port storage, retained as a
/// differential oracle (see the module docs). Ports materialize lazily on
/// first arrival, exactly as the pre-dense simulator created them; link
/// parameters are pre-resolved per directed channel so behavior (including
/// parallel-link first-match semantics) is identical to the adjacency scan.
#[derive(Debug)]
pub struct BTreePortMap {
    ports: BTreeMap<(usize, usize), PortState>,
    params: BTreeMap<(usize, usize), LinkParams>,
}

impl PortMap for BTreePortMap {
    type Key = (usize, usize);

    fn new(topo: &Topology) -> Self {
        let mut params = BTreeMap::new();
        for node in 0..topo.len() {
            for &(v, p) in topo.neighbors(NodeId(node)) {
                // First match wins, mirroring `Topology::link_params` on
                // parallel duplicate links.
                params.entry((node, v.0)).or_insert(p);
            }
        }
        Self {
            ports: BTreeMap::new(),
            params,
        }
    }

    fn key(&mut self, from: NodeId, to: NodeId) -> (usize, usize) {
        let key = (from.0, to.0);
        self.ports.entry(key).or_default();
        key
    }

    fn try_key(&self, from: NodeId, to: NodeId) -> Option<(usize, usize)> {
        let key = (from.0, to.0);
        self.ports.contains_key(&key).then_some(key)
    }

    fn get_mut(&mut self, key: (usize, usize)) -> &mut PortState {
        self.ports.get_mut(&key).unwrap_or_else(|| {
            // trimlint: allow(no-panic) -- keys originate from this map's own `key`/`try_key`, which materialize or verify the entry
            panic!("no port n{} → n{}", key.0, key.1)
        })
    }

    fn params(&self, key: (usize, usize)) -> LinkParams {
        self.params.get(&key).copied().unwrap_or_else(|| {
            // trimlint: allow(no-panic) -- same contract as Topology::link_params: routed links always exist
            panic!("no link n{} → n{}", key.0, key.1)
        })
    }

    fn record_depth(&mut self, _key: (usize, usize), _low_bytes: u32, _queued_pkts: u32) {
        // No mirror: sampling walks the map, as the historical plane did.
    }

    fn is_busy(&self, key: (usize, usize)) -> bool {
        self.ports.get(&key).is_some_and(|p| p.busy)
    }

    fn set_busy(&mut self, key: (usize, usize), busy: bool) {
        if let Some(p) = self.ports.get_mut(&key) {
            p.busy = busy;
        }
    }

    fn has_backlog(&self, key: (usize, usize)) -> bool {
        self.ports.get(&key).is_some_and(|p| p.queued_packets() > 0)
    }

    fn sample_depths(&self, visit: &mut dyn FnMut(u32)) {
        for port in self.ports.values() {
            visit(port.low_bytes());
        }
    }

    fn ports_touched(&self) -> Box<dyn Iterator<Item = ((usize, usize), &PortState)> + '_> {
        Box::new(self.ports.iter().map(|(&k, p)| (k, p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::QueuePolicy;
    use crate::time::{gbps, SimTime};

    fn diamond() -> Topology {
        // 0 - 2 - 1 and 0 - 3 - 1: two disjoint switch paths.
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let s1 = t.add_switch(QueuePolicy::trim_default());
        let s2 = t.add_switch(QueuePolicy::trim_default());
        t.link(a, s1, gbps(10.0), SimTime::from_micros(1));
        t.link(s1, b, gbps(10.0), SimTime::from_micros(1));
        t.link(a, s2, gbps(10.0), SimTime::from_micros(1));
        t.link(s2, b, gbps(10.0), SimTime::from_micros(1));
        t
    }

    #[test]
    fn dense_ids_are_lexicographic_over_directed_links() {
        let t = diamond();
        let mut table = DensePortTable::new(&t);
        assert_eq!(table.len(), 8, "4 bidirectional links = 8 directed");
        // Enumerate (from, to) in lexicographic order; keys must be 0..8.
        let mut expect = Vec::new();
        for from in 0..t.len() {
            let mut ns: Vec<usize> = t.neighbors(NodeId(from)).iter().map(|(v, _)| v.0).collect();
            ns.sort_unstable();
            for to in ns {
                expect.push((from, to));
            }
        }
        for (i, &(from, to)) in expect.iter().enumerate() {
            assert_eq!(
                table.key(NodeId(from), NodeId(to)),
                PortId(i as u32),
                "({from}, {to})"
            );
        }
    }

    #[test]
    fn dense_try_key_rejects_missing_links() {
        let t = diamond();
        let table = DensePortTable::new(&t);
        assert!(table.try_key(NodeId(0), NodeId(1)).is_none(), "no 0 → 1");
        assert!(table.try_key(NodeId(2), NodeId(3)).is_none(), "no 2 → 3");
        assert!(table.try_key(NodeId(0), NodeId(2)).is_some());
    }

    #[test]
    fn dense_params_match_adjacency_scan() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let p =
            crate::link::LinkParams::new(gbps(40.0), SimTime::from_micros(3)).with_drop_prob(0.25);
        t.link_with(a, b, p);
        let mut table = DensePortTable::new(&t);
        let k = table.key(a, b);
        assert_eq!(table.params(k), t.link_params(a, b));
        let k = table.key(b, a);
        assert_eq!(table.params(k), t.link_params(b, a));
    }

    #[test]
    fn parallel_duplicate_links_keep_first_params() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let first = crate::link::LinkParams::new(gbps(10.0), SimTime::from_micros(1));
        let second = crate::link::LinkParams::new(gbps(99.0), SimTime::from_micros(9));
        t.link_with(a, b, first);
        t.link_with(a, b, second);
        let mut dense = DensePortTable::new(&t);
        let mut oracle = BTreePortMap::new(&t);
        let dk = dense.key(a, b);
        let ok = oracle.key(a, b);
        assert_eq!(dense.params(dk), first, "dense keeps the first channel");
        assert_eq!(oracle.params(ok), first, "oracle keeps the first channel");
        assert_eq!(dense.params(dk), t.link_params(a, b));
        // One merged port per directed pair, not one per parallel strand.
        assert_eq!(dense.len(), 2);
    }

    #[test]
    fn touched_filter_matches_lazy_materialization() {
        let t = diamond();
        let mut dense = DensePortTable::new(&t);
        let mut oracle = BTreePortMap::new(&t);
        // Drive one port on each; only it shows up, in the same shape.
        let policy = QueuePolicy::trim_default();
        let mk = || {
            Box::new(crate::packet::Packet {
                id: 1,
                flow: crate::FlowId(1),
                src: NodeId(0),
                dst: NodeId(1),
                size: 100,
                priority: false,
                reliable: false,
                trimmed: false,
                ecn: false,
                seq: 0,
                fin: false,
                sent_at: SimTime::ZERO,
                body: crate::packet::PacketBody::Synthetic,
            })
        };
        let dk = dense.key(NodeId(0), NodeId(2));
        dense.get_mut(dk).enqueue(mk(), &policy);
        let ok = oracle.key(NodeId(0), NodeId(2));
        oracle.get_mut(ok).enqueue(mk(), &policy);
        let d: Vec<_> = dense
            .ports_touched()
            .map(|(k, p)| (k, p.counters))
            .collect();
        let o: Vec<_> = oracle
            .ports_touched()
            .map(|(k, p)| (k, p.counters))
            .collect();
        assert_eq!(d, o);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, (0, 2));
    }

    #[test]
    fn depth_mirror_tracks_recorded_depths() {
        let t = diamond();
        let mut table = DensePortTable::new(&t);
        let k = table.key(NodeId(0), NodeId(2));
        table.record_depth(k, 4096, 3);
        let mut seen = Vec::new();
        table.sample_depths(&mut |d| seen.push(d));
        assert_eq!(seen.len(), table.len());
        assert_eq!(seen.iter().filter(|&&d| d == 4096).count(), 1);
        assert_eq!(seen.iter().filter(|&&d| d == 0).count(), table.len() - 1);
    }

    #[test]
    fn busy_and_backlog_mirrors_are_per_port() {
        let t = diamond();
        let mut table = DensePortTable::new(&t);
        let a = table.key(NodeId(0), NodeId(2));
        let b = table.key(NodeId(2), NodeId(1));
        assert!(!table.is_busy(a) && !table.has_backlog(a));
        table.set_busy(a, true);
        table.record_depth(b, 1500, 1);
        assert!(table.is_busy(a));
        assert!(!table.is_busy(b));
        assert!(table.has_backlog(b));
        assert!(!table.has_backlog(a));
        table.set_busy(a, false);
        table.record_depth(b, 0, 0);
        assert!(!table.is_busy(a));
        assert!(!table.has_backlog(b));
    }
}
