//! Cache-friendly adjacency backend for the GPS reservoir hot path.
//!
//! [`CompactAdjacency<V>`] keeps the same observable behavior as
//! [`crate::AdjacencyMap`] but reorganizes storage around the access pattern
//! of `GPSUpdate` (paper §3.2): one duplicate check, one weight computation
//! dominated by the `O(min(deĝ(v1), deĝ(v2)))` common-neighbor intersection,
//! and at most one insert + one eviction per arrival. Four ideas:
//!
//! 1. **Node interning.** External [`NodeId`]s are mapped once to dense
//!    `u32` indices into a flat slot table holding id, a packed length word
//!    and the first [`INLINE_NEIGHBORS`] neighbor together — 16 bytes for
//!    the sampler's `u32` values, with no enum tag — so for the typical
//!    degree-1 node one resolution answers degree, membership and
//!    iteration. (On the `bulk-ingest` benchmark at seed 1 a shard's sample
//!    ends with about 164.5k nodes of degree 1, 12.3k of degree 2 and 2.7k
//!    of degree ≥ 3, which is why the inline cap is 1.) The id → index map
//!    is a private open-addressed table of 8-byte `(id, slot + 1)` buckets:
//!    linear probing from a Fibonacci hash, backward-shift deletion (no
//!    tombstones), doubling past 4/5 load from a 16-bucket start and never
//!    shrinking, so its size follows the live-node peak, not the
//!    construction-time capacity. An open-addressed table holding the
//!    *payload* directly was tried and measured *slower*: inflating the
//!    slots across a sparse power-of-two table costs more cache than the
//!    8-byte id→index buckets save. Slot indices are stable for a node's
//!    lifetime — see [`EdgeHints`].
//! 2. **Inline small-buffers with pool spill.** A list longer than the
//!    inline cap moves to a power-of-two block (2, 4, 8, … entries) carved
//!    from one shared pool `Vec` (the block offset takes the inline entry's
//!    place, the size class the high bits of the length word), recycled
//!    through per-size-class free lists (the free "next" pointer lives
//!    inside the freed block itself, so the structure allocates nothing per
//!    edge once warm; a class with no free block splits a larger free one
//!    before the pool grows). Neighbor order is a function of the
//!    insert/remove sequence alone: a list keeps arrival order with
//!    `swap_remove` eviction while it has not grown past [`SORT_AFTER`]
//!    entries since it last held at most [`UNSORTED_MAX`] — inline, then in
//!    a class-0 or class-1 block — and is kept sorted by neighbor id from
//!    then on (blocks of class ≥ 2). A list that shrinks to [`UNSORTED_MAX`]
//!    entries moves to a class-0 block, and one that shrinks to the inline
//!    cap migrates inline again.
//! 3. **Adaptive intersection kernel.** One kernel serves every
//!    common-neighbor walk and count (the counting queries pass it a
//!    counting closure). Two sorted lists of comparable length are merged;
//!    otherwise it walks the smaller list, scanning the larger side
//!    linearly while it fits a couple of cache lines and binary-searching
//!    it (it is a sorted block) past [`LINEAR_PROBE_MAX`]. The worst case
//!    is `O(min deg · log max deg)` contiguous probes inside the hub's own
//!    block — no hash probes, no pointer chasing.
//! 4. **Counting presence filter.** A power-of-two table of saturating
//!    `u8` counters (mirrored into an L1-sized bitset for probing) indexed
//!    by a multiply-shift of the node id. In reservoir use most stream
//!    arrivals touch nodes with *no* sampled edge, so `contains`, `degree`
//!    and the kernel answer "absent" from one bit probe per endpoint —
//!    the dominant cost of the steady-state reject path. A zero proves
//!    absence; anything else falls through to the real lookup, and a
//!    counter that saturates at 255 simply sticks (false positives only).
//!    The table starts at `MIN_FILTER_LEN` (1,024) counters and doubles,
//!    recounting the live nodes from the slot table, once live nodes would
//!    exceed a quarter of its length (`FILTER_SLACK`). Like the index, it
//!    is sized by the live-node peak, not the construction-time capacity,
//!    so an empty graph's filter is about 1 KiB however much it reserves.
//!
//! On the `bulk-ingest` benchmark (seed 1, one shard, m = 100k,
//! `TriangleWeight`) 67.9% of arrivals find neither endpoint sampled, 29.4%
//! exactly one and 2.8% both. So the triangle-weight query
//! [`CompactAdjacency::triangle_closure_counts`] needs both endpoints and
//! answers the other 97% from the two filter bits, while
//! [`CompactAdjacency::triad_counts`] must resolve each endpoint for its
//! degree. Per arrival over three runs the first cost 32–36 ns and the
//! second 56–63 ns: one query that also returned degrees would add about
//! 25 ns to every triangle-weighted arrival.
//!
//! There is **no edge hash table at all**: `contains`/`get` resolve one
//! endpoint and search its list (the slot fetch carries the inline list;
//! longer sorted lists are binary-searched), and `edges()` sweeps the
//! slot table. The only hash in the structure is the node-interning
//! index, gated by the filter and bypassed on eviction via [`EdgeHints`];
//! nothing iterates it, so its bucket order never reaches an output.
//!
//! This is the only adjacency representation a sampler runs on. The old
//! [`crate::AdjacencyMap`] remains in-tree as the differential oracle
//! (`tests/compact_differential.rs`).

use crate::hash::FxHashSet;
use crate::types::{Edge, NodeId};

mod node_index;

use node_index::NodeIndex;

/// Neighbor entries stored inline in a node slot before spilling.
pub const INLINE_NEIGHBORS: usize = 1;

/// Smallest spill block (entries); class `c` holds `BASE_BLOCK << c`.
/// Classes 0 and 1 hold the unsorted lists of length `INLINE_NEIGHBORS +
/// 1 ..= SORT_AFTER`; every larger class holds a sorted list.
const BASE_BLOCK: usize = 2 * INLINE_NEIGHBORS;

/// A list that grows past this many entries is sorted by neighbor id, and
/// stays sorted until it shrinks back to [`UNSORTED_MAX`]; until then it
/// keeps arrival order with `swap_remove` eviction.
pub const SORT_AFTER: usize = 4;

/// A sorted list that shrinks to this many entries returns to arrival
/// order (it moves to a class-0 block, whose lists are unsorted).
pub const UNSORTED_MAX: usize = BASE_BLOCK;

/// First size class whose blocks hold sorted lists: the class a list
/// grows into past [`SORT_AFTER`] entries.
const SORTED_CLASS: u8 = 2;

/// Number of spill size classes; the largest block holds
/// `BASE_BLOCK << (NUM_CLASSES - 1)` entries (64Mi at the defaults).
const NUM_CLASSES: usize = 26;

/// Low bits of [`NodeSlot::packed`] holding the list length; the size
/// class of a spilled list sits in the bits above.
const LEN_BITS: u32 = 27;
const LEN_MASK: u32 = (1 << LEN_BITS) - 1;

const _: () = {
    assert!(BASE_BLOCK << (NUM_CLASSES - 1) <= LEN_MASK as usize);
    assert!(NUM_CLASSES <= 1 << (32 - LEN_BITS));
    assert!(block_len(SORTED_CLASS - 1) == SORT_AFTER);
    // The sampler stores a `u32` slab slot per neighbor entry.
    assert!(std::mem::size_of::<NodeSlot<u32>>() == 16);
};

/// Spill-pool entries reserved per edge by
/// [`CompactAdjacency::with_capacity`]. Each edge stores one entry in each
/// endpoint's list, and a list that grew to its length sits in a block at
/// most twice as long, so 4 per edge holds every list in the block it grew
/// into. Blocks that shrunken lists left behind are split for shorter ones,
/// which keeps a hub-heavy reservoir churn (a uniform 2,000-edge sample of
/// a Holme–Kim stream) at 3.4 entries per edge; the `bulk-ingest`
/// benchmark, mostly degree-1 nodes, ends near 0.44. Reserved pages the
/// pool never reaches are never touched, so they are not resident: the
/// headroom costs address space, not memory (a build reserving the old
/// `edges / 2` read the same `mem_mb` on `bulk-ingest`).
const POOL_ENTRIES_PER_EDGE: usize = 4;

/// Empty free-list marker (pool offsets comfortably fit below it).
const FREE_NONE: u32 = u32::MAX;

/// Largest neighbor list the intersection kernel scans linearly; longer
/// sorted lists are binary-searched.
pub const LINEAR_PROBE_MAX: usize = 32;

/// Minimum presence-filter size (counters); always a power of two.
const MIN_FILTER_LEN: usize = 1024;

/// The filter is grown once live nodes exceed `len / FILTER_SLACK`,
/// keeping the aliasing (false-positive) rate low.
const FILTER_SLACK: usize = 4;

/// Fibonacci multiplier for the filter's multiply-shift index.
const MIX_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Entries of a spill size class.
#[inline]
const fn block_len(class: u8) -> usize {
    BASE_BLOCK << class
}

/// Multiply-shift mix of a node id (maskable for any power-of-two table).
#[inline]
fn mix(node: NodeId) -> usize {
    ((node as u64).wrapping_mul(MIX_MUL) >> 32) as usize
}

/// Counts `node` into a presence filter and its bitset mirror (saturating;
/// `filter.len()` is a power of two).
#[inline]
fn count_in(filter: &mut [u8], bits: &mut [u64], node: NodeId) {
    let idx = mix(node) & (filter.len() - 1);
    filter[idx] = filter[idx].saturating_add(1);
    bits[idx >> 6] |= 1 << (idx & 63);
}

/// The adjacency representation a sampler runs on. [`CompactAdjacency`]
/// is the only one: the enum survives with a single variant so that the
/// benchmark package's calls to `GpsSampler::with_backend` and
/// `ShardRunner::from_checkpoint` keep compiling, and both ignore it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Interned, slab-backed [`CompactAdjacency`].
    #[default]
    Compact,
}

/// Opaque endpoint-slot hints returned by
/// [`CompactAdjacency::insert_with_hints`]. A node's dense slot index is
/// stable for as long as the node has any incident edge, and the slot holds
/// the node's id, so while the edge is present its hints name it: a caller
/// can store the hints *instead of* the edge, read the edge back with
/// [`CompactAdjacency::hinted_edge`], walk it with
/// [`CompactAdjacency::for_each_hinted_completion`], and pass both to
/// [`CompactAdjacency::remove_hinted`] to skip both node-table hash probes
/// on eviction. `remove_hinted` verifies the hints and falls back to the
/// normal lookup, so a stale hint can never corrupt the structure.
/// [`EdgeHints::default`] (no hint) is always safe there, and names no
/// edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeHints {
    /// Slot of the smaller endpoint, or `FREE_NONE` for "no hint".
    u_idx: u32,
    /// Slot of the larger endpoint, or `FREE_NONE` for "no hint".
    v_idx: u32,
}

impl EdgeHints {
    /// The "no hint" value (safe everywhere, skips nothing).
    pub const NONE: EdgeHints = EdgeHints {
        u_idx: FREE_NONE,
        v_idx: FREE_NONE,
    };
}

impl Default for EdgeHints {
    fn default() -> Self {
        EdgeHints::NONE
    }
}

/// One interned node: its external id, a packed length word, and its first
/// [`INLINE_NEIGHBORS`] neighbor. Once the list outgrows it, it moves to
/// `pool[offset .. offset + block_len(class)]`, with `offset` kept in the
/// `NodeId` field of `inline[0]` and `class` in the high bits of `packed`;
/// so a list lives inline exactly when its length is at most
/// [`INLINE_NEIGHBORS`], and is sorted exactly when its class is ≥ 2.
#[derive(Clone, Copy, Debug)]
struct NodeSlot<V: Copy> {
    id: NodeId,
    /// `len | class << LEN_BITS` (the class is 0 while inline).
    packed: u32,
    inline: [(NodeId, V); INLINE_NEIGHBORS],
}

impl<V: Copy> NodeSlot<V> {
    /// Live neighbor count.
    #[inline]
    fn len(&self) -> usize {
        (self.packed & LEN_MASK) as usize
    }

    /// Size class of the pool block (meaningful once spilled).
    #[inline]
    fn class(&self) -> u8 {
        (self.packed >> LEN_BITS) as u8
    }

    /// Whether the list is kept sorted by neighbor id: class ≥ 2.
    #[inline]
    fn sorted(&self) -> bool {
        self.packed >= (SORTED_CLASS as u32) << LEN_BITS
    }

    /// Pool offset of the list's block (meaningful once spilled).
    #[inline]
    fn offset(&self) -> usize {
        self.inline[0].0 as usize
    }

    /// Records the list as `len` entries in a block of `class` at `offset`.
    #[inline]
    fn set_spilled(&mut self, len: usize, class: u8, offset: usize) {
        self.packed = len as u32 | (class as u32) << LEN_BITS;
        self.inline[0].0 = offset as NodeId;
    }
}

/// A dynamic undirected graph storing a value of type `V` on every edge,
/// drop-in behavioral equivalent of [`crate::AdjacencyMap`] (see the module
/// docs for the representation differences).
#[derive(Clone, Debug)]
pub struct CompactAdjacency<V: Copy> {
    /// External node id → dense index into `slots`.
    index_of: NodeIndex,
    /// Live (degree > 0) nodes.
    live_nodes: usize,
    /// Interned node table; freed slots are recycled through `free_slots`.
    slots: Vec<NodeSlot<V>>,
    free_slots: Vec<u32>,
    /// Shared block storage for neighbor lists longer than the inline cap.
    pool: Vec<(NodeId, V)>,
    /// Head of the intrusive free list per size class (offset or FREE_NONE).
    free_blocks: [u32; NUM_CLASSES],
    /// Number of live edges (each stored once per endpoint list).
    num_edges: usize,
    /// Counting presence filter over node ids (power-of-two length).
    /// `filter[mix(id)] == 0` proves the node has no incident edge.
    node_filter: Vec<u8>,
    /// Bitset mirror of `node_filter != 0`, 1/8th the footprint so the hot
    /// probe stays L1-resident; counters remain the ground truth.
    node_bits: Vec<u64>,
    /// Monotone count of lists growing past 2, 4, 8, … entries (see
    /// [`CompactAdjacency::spill_count`]). Survives `clear` so telemetry
    /// sees lifetime totals.
    spills: u64,
}

impl<V: Copy> Default for CompactAdjacency<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy> CompactAdjacency<V> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// Creates an empty graph pre-sized for roughly `nodes` distinct nodes
    /// and `edges` edges: the slot table and spill pool are reserved up
    /// front. The node-interning index and the presence filter are not;
    /// both start small and double as live nodes arrive, so they are sized
    /// by the most nodes the graph has held rather than by `nodes`.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        CompactAdjacency {
            index_of: NodeIndex::new(),
            live_nodes: 0,
            slots: Vec::with_capacity(nodes),
            free_slots: Vec::new(),
            pool: Vec::with_capacity(POOL_ENTRIES_PER_EDGE * edges),
            free_blocks: [FREE_NONE; NUM_CLASSES],
            num_edges: 0,
            node_filter: vec![0; MIN_FILTER_LEN],
            node_bits: vec![0; MIN_FILTER_LEN / 64],
            spills: 0,
        }
    }

    /// Number of edges currently present.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of nodes with at least one incident edge.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.live_nodes
    }

    /// Returns `true` if no edges are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_edges == 0
    }

    /// Inserts `edge` with associated `value`, returning the previous value
    /// if the edge was already present (in which case the value is replaced).
    pub fn insert(&mut self, edge: Edge, value: V) -> Option<V> {
        self.insert_with_hints(edge, value).0
    }

    /// Like [`CompactAdjacency::insert`], additionally returning the
    /// endpoint-slot [`EdgeHints`] valid for this edge's lifetime.
    pub fn insert_with_hints(&mut self, edge: Edge, value: V) -> (Option<V>, EdgeHints) {
        let (u, v) = edge.endpoints();
        // Duplicate check from u's list (no edge hash table exists): the
        // resolution that answers it is reused for the append, so u is
        // hashed at most once on the insert path.
        let u_idx = match self.lookup(u) {
            Some(u_idx) => {
                let (lu, lu_sorted) = self.list_tagged(u_idx);
                if let Some(pos) = Self::position(lu, lu_sorted, v) {
                    let prev = std::mem::replace(&mut self.list_tagged_mut(u_idx).0[pos].1, value);
                    let (v_idx, _) = self.update_entry(v, u, value);
                    return (Some(prev), EdgeHints { u_idx, v_idx });
                }
                self.attach_at(u_idx, (v, value));
                u_idx
            }
            None => self.attach(u, (v, value)),
        };
        let v_idx = self.attach(v, (u, value));
        self.num_edges += 1;
        (None, EdgeHints { u_idx, v_idx })
    }

    /// Removes `edge`, returning its value if it was present. Nodes whose
    /// last incident edge is removed are dropped from the node table.
    pub fn remove(&mut self, edge: Edge) -> Option<V> {
        self.remove_hinted(edge, EdgeHints::NONE)
    }

    /// Like [`CompactAdjacency::remove`], using [`EdgeHints`] captured at
    /// insertion to skip both node-table hash probes. Hints are verified
    /// against the slot's node id and fall back to the id lookup on
    /// mismatch, so stale hints degrade to [`CompactAdjacency::remove`]
    /// rather than corrupting the structure.
    pub fn remove_hinted(&mut self, edge: Edge, hints: EdgeHints) -> Option<V> {
        let (u, v) = edge.endpoints();
        let u_idx = self.resolve_hint(u, hints.u_idx)?;
        let (lu, lu_sorted) = self.list_tagged(u_idx);
        let u_pos = Self::position(lu, lu_sorted, v)?;
        let v_idx = self
            .resolve_hint(v, hints.v_idx)
            .expect("edge stored on one side only");
        let value = self.detach_at(u_idx, u, u_pos);
        let (lv, lv_sorted) = self.list_tagged(v_idx);
        let v_pos = Self::position(lv, lv_sorted, u).expect("neighbor missing from list");
        self.detach_at(v_idx, v, v_pos);
        self.num_edges -= 1;
        Some(value)
    }

    /// The edge whose endpoint slots `hints` name, read from the two slots'
    /// node ids without an index probe; `None` if either slot holds no
    /// live node. For the hints [`CompactAdjacency::insert_with_hints`]
    /// returned, this is the inserted edge for as long as it is present.
    #[inline]
    pub fn hinted_edge(&self, hints: EdgeHints) -> Option<Edge> {
        self.hinted_ids(hints).map(|(u, v)| Edge::new(u, v))
    }

    /// Ids of the live nodes in the two slots `hints` name, in hint order;
    /// `None` if either slot is dead.
    #[inline]
    fn hinted_ids(&self, hints: EdgeHints) -> Option<(NodeId, NodeId)> {
        let live = |idx: u32| {
            self.slots
                .get(idx as usize)
                .filter(|slot| slot.len() > 0)
                .map(|slot| slot.id)
        };
        Some((live(hints.u_idx)?, live(hints.v_idx)?))
    }

    /// Maps a hinted slot index to a verified one (filter-gated lookup
    /// fallback); `None` if the node is absent.
    #[inline]
    fn resolve_hint(&self, node: NodeId, hint: u32) -> Option<u32> {
        match self.slots.get(hint as usize) {
            Some(slot) if slot.len() > 0 && slot.id == node => Some(hint),
            _ => self.lookup(node),
        }
    }

    /// Returns `true` if `edge` is present: one node resolution plus a
    /// search of that endpoint's list (the slot fetch brings the inline
    /// list with it; longer lists are sorted and binary-searched).
    #[inline]
    pub fn contains(&self, edge: Edge) -> bool {
        self.get(edge).is_some()
    }

    /// Returns the value stored on `edge`, if present.
    #[inline]
    pub fn get(&self, edge: Edge) -> Option<V> {
        if !self.maybe_present(edge.v()) {
            return None;
        }
        let idx = self.lookup(edge.u())?;
        let (list, sorted) = self.list_tagged(idx);
        Self::position(list, sorted, edge.v()).map(|pos| list[pos].1)
    }

    /// Replaces the value on an existing edge; returns `false` if the edge
    /// is absent.
    pub fn set(&mut self, edge: Edge, value: V) -> bool {
        if !self.contains(edge) {
            return false;
        }
        let (u, v) = edge.endpoints();
        self.update_entry(u, v, value);
        self.update_entry(v, u, value);
        true
    }

    /// Degree of `node` (0 if unknown).
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        match self.lookup(node) {
            Some(idx) => self.slots[idx as usize].len(),
            None => 0,
        }
    }

    /// The neighbor list of `node` as a contiguous slice (empty if unknown).
    #[inline]
    pub fn neighbor_slice(&self, node: NodeId) -> &[(NodeId, V)] {
        match self.lookup(node) {
            Some(idx) => self.list(idx),
            None => &[],
        }
    }

    /// The `index`-th neighbor of `node` (with the value on the connecting
    /// edge), or `None` if `index >= degree(node)`. O(1) slice indexing.
    ///
    /// Which neighbor occupies a given index follows the order rule in the
    /// module docs (arrival order for short lists, id order past
    /// [`SORT_AFTER`]), so this is only meaningful for order-oblivious
    /// uses — e.g. drawing a *uniform* random neighbor, the triad-formation
    /// step of the Holme–Kim generator. The order is still a function of
    /// the insert/remove sequence, so seeded draws are reproducible.
    #[inline]
    pub fn neighbor_at(&self, node: NodeId, index: usize) -> Option<(NodeId, V)> {
        self.neighbor_slice(node).get(index).copied()
    }

    /// Iterates over the neighbors of `node` together with the value on the
    /// connecting edge.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, V)> + '_ {
        self.neighbor_slice(node).iter().copied()
    }

    /// Iterates over all nodes with at least one incident edge.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots.iter().filter(|s| s.len() > 0).map(|s| s.id)
    }

    /// Iterates over every edge exactly once (via its smaller endpoint's
    /// list) together with its value — a contiguous sweep of the slot table
    /// and pool, no hash iteration.
    pub fn edges(&self) -> impl Iterator<Item = (Edge, V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.len() > 0)
            .flat_map(move |(idx, s)| {
                self.list(idx as u32)
                    .iter()
                    .filter(move |e| s.id < e.0)
                    .map(move |&(n, val)| (Edge::new(s.id, n), val))
            })
    }

    /// Calls `f(w, value_uw, value_vw)` for every common neighbor `w` of `u`
    /// and `v`, iterating the smaller neighborhood. The larger side is
    /// scanned linearly up to [`LINEAR_PROBE_MAX`] entries and
    /// binary-searched beyond that (lists that long are sorted), so the cost
    /// is `O(min deg)` sequential reads typically and
    /// `O(min deg · log max deg)` contiguous probes in the hub worst case.
    #[inline]
    pub fn for_each_common_neighbor<F>(&self, u: NodeId, v: NodeId, mut f: F)
    where
        F: FnMut(NodeId, V, V),
    {
        if let Some((iu, iv)) = self.resolve_pair(u, v) {
            let (lu, u_sorted) = self.list_tagged(iu);
            let (lv, v_sorted) = self.list_tagged(iv);
            Self::intersect_lists(lu, u_sorted, lv, v_sorted, &mut f);
        }
    }

    /// Slots of `u` and `v` if both are present. One filter bit per
    /// endpoint rejects the arrivals that touch an unsampled node before
    /// any hash probe (see the module docs for how often that is).
    #[inline]
    fn resolve_pair(&self, u: NodeId, v: NodeId) -> Option<(u32, u32)> {
        if !self.maybe_present(u) || !self.maybe_present(v) {
            return None;
        }
        Some((self.probe_valid(u)?, self.probe_valid(v)?))
    }

    /// Fused completion walk for the estimators (Algorithms 2/3): resolves
    /// `u` and `v` **once**, then reports every common neighbor via `tri`
    /// (the triangles an edge `(u, v)` completes — same enumeration order
    /// as [`CompactAdjacency::for_each_common_neighbor`]) and every edge
    /// incident to `u` (excluding `(u, v)` itself), then every edge
    /// incident to `v` (likewise), via `wedge`.
    ///
    /// The separate walks cost 4 endpoint resolutions per arrival (2 for
    /// the intersection + 1 per incident sweep); this does the same work
    /// with 2, and each exclusion check is a plain id compare on the slice
    /// being swept.
    #[inline]
    pub fn for_each_completion<FT, FW>(&self, u: NodeId, v: NodeId, mut tri: FT, mut wedge: FW)
    where
        FT: FnMut(NodeId, V, V),
        FW: FnMut(V),
    {
        match (self.lookup(u), self.lookup(v)) {
            (Some(iu), Some(iv)) => self.completion_at(iu, iv, u, v, &mut tri, &mut wedge),
            // One endpoint absent: the edge (u, v) cannot be stored (it
            // would intern both endpoints), so no exclusion check is needed.
            (Some(i), None) | (None, Some(i)) => {
                for &(_, val) in self.list(i) {
                    wedge(val);
                }
            }
            (None, None) => {}
        }
    }

    /// [`CompactAdjacency::for_each_completion`] of the pair of nodes whose
    /// slots `hints` name (the edge [`CompactAdjacency::hinted_edge`]
    /// reads), started from those two slots, so it costs no index probe.
    /// The walk and its order are the same as by node id. Does nothing if
    /// the hints name no live pair.
    #[inline]
    pub fn for_each_hinted_completion<FT, FW>(&self, hints: EdgeHints, mut tri: FT, mut wedge: FW)
    where
        FT: FnMut(NodeId, V, V),
        FW: FnMut(V),
    {
        if let Some((u, v)) = self.hinted_ids(hints) {
            self.completion_at(hints.u_idx, hints.v_idx, u, v, &mut tri, &mut wedge);
        }
    }

    /// The completion walk of the nodes `u` and `v` in slots `iu` and `iv`.
    #[inline]
    fn completion_at<FT, FW>(
        &self,
        iu: u32,
        iv: u32,
        u: NodeId,
        v: NodeId,
        tri: &mut FT,
        wedge: &mut FW,
    ) where
        FT: FnMut(NodeId, V, V),
        FW: FnMut(V),
    {
        let (lu, u_sorted) = self.list_tagged(iu);
        let (lv, v_sorted) = self.list_tagged(iv);
        Self::intersect_lists(lu, u_sorted, lv, v_sorted, tri);
        for &(n, val) in lu {
            if n != v {
                wedge(val);
            }
        }
        for &(n, val) in lv {
            if n != u {
                wedge(val);
            }
        }
    }

    /// The adaptive intersection kernel behind every common-neighbor walk
    /// and count; `f(w, value_uw, value_vw)` per common neighbor `w`,
    /// `lu`/`lv` being the neighbor lists of `u` and `v` with their
    /// sortedness tags.
    #[inline]
    fn intersect_lists<F>(
        lu: &[(NodeId, V)],
        u_sorted: bool,
        lv: &[(NodeId, V)],
        v_sorted: bool,
        f: &mut F,
    ) where
        F: FnMut(NodeId, V, V),
    {
        if u_sorted && v_sorted && Self::balanced(lu.len(), lv.len()) {
            // Both sorted and comparably sized: sorted-merge intersection,
            // O(deg(u) + deg(v)) pure sequential reads. (Lopsided pairs
            // fall through to min-side iteration + binary search, which is
            // O(min deg · log max deg) — cheaper when max deg dominates.)
            let (mut i, mut j) = (0, 0);
            while i < lu.len() && j < lv.len() {
                let (a, b) = (lu[i].0, lv[j].0);
                match a.cmp(&b) {
                    std::cmp::Ordering::Equal => {
                        f(a, lu[i].1, lv[j].1);
                        i += 1;
                        j += 1;
                    }
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                }
            }
            return;
        }
        let (small, large, large_sorted, small_is_u) = if lu.len() <= lv.len() {
            (lu, lv, v_sorted, true)
        } else {
            (lv, lu, u_sorted, false)
        };
        if large_sorted && large.len() > LINEAR_PROBE_MAX {
            // Small inline side probes the hub's sorted block by binary
            // search — all probes stay inside the block.
            for &(w, val_small) in small {
                if let Ok(pos) = large.binary_search_by_key(&w, |e| e.0) {
                    let val_large = large[pos].1;
                    if small_is_u {
                        f(w, val_small, val_large);
                    } else {
                        f(w, val_large, val_small);
                    }
                }
            }
        } else {
            for &(w, val_small) in small {
                for &(x, val_large) in large {
                    if x == w {
                        if small_is_u {
                            f(w, val_small, val_large);
                        } else {
                            f(w, val_large, val_small);
                        }
                        break;
                    }
                }
            }
        }
    }

    /// Number of common neighbors of `u` and `v` — i.e. the number of
    /// triangles an edge `(u, v)` closes in the current graph.
    pub fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        let mut count = 0;
        self.for_each_common_neighbor(u, v, |_, _, _| count += 1);
        count
    }

    /// Fused per-edge topology query for weight functions:
    /// `(common_neighbors, degree(u) + degree(v), edge_present)`, resolving
    /// each endpoint once.
    pub fn triad_counts(&self, u: NodeId, v: NodeId) -> (usize, usize, bool) {
        let (iu, iv) = (self.lookup(u), self.lookup(v));
        let degree = |idx: Option<u32>| idx.map_or(0, |i| self.slots[i as usize].len());
        let degree_sum = degree(iu) + degree(iv);
        match (iu, iv) {
            (Some(iu), Some(iv)) => {
                let (common, present) = self.closure_at(iu, iv, u, v);
                (common, degree_sum, present)
            }
            _ => (0, degree_sum, false),
        }
    }

    /// Fused `(common_neighbors, edge_present)` query (the triangle-weight
    /// inner loop). Unlike [`CompactAdjacency::triad_counts`] it needs no
    /// degrees, so an arrival touching *any* absent endpoint is answered
    /// from the two filter bit probes alone — no hash probe at all.
    pub fn triangle_closure_counts(&self, u: NodeId, v: NodeId) -> (usize, bool) {
        match self.resolve_pair(u, v) {
            Some((iu, iv)) => self.closure_at(iu, iv, u, v),
            None => (0, false),
        }
    }

    /// `(common_neighbors, edge_present)` for the nodes in slots `iu`/`iv`
    /// (ids `u`/`v`): the intersection kernel counts, and presence is
    /// searched in the smaller list, so neither costs a hash probe.
    #[inline]
    fn closure_at(&self, iu: u32, iv: u32, u: NodeId, v: NodeId) -> (usize, bool) {
        let (lu, u_sorted) = self.list_tagged(iu);
        let (lv, v_sorted) = self.list_tagged(iv);
        let mut common = 0;
        Self::intersect_lists(lu, u_sorted, lv, v_sorted, &mut |_, _, _| common += 1);
        let present = if lu.len() <= lv.len() {
            Self::position(lu, u_sorted, v)
        } else {
            Self::position(lv, v_sorted, u)
        };
        (common, present.is_some())
    }

    /// Whether two sorted lists are close enough in size for a linear merge
    /// to beat per-candidate binary search (`min · log(max)` probes).
    #[inline]
    fn balanced(a: usize, b: usize) -> bool {
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        large <= small.saturating_mul(8)
    }

    /// Removes all edges and nodes, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.index_of.clear();
        self.live_nodes = 0;
        self.slots.clear();
        self.free_slots.clear();
        self.pool.clear();
        self.free_blocks = [FREE_NONE; NUM_CLASSES];
        self.num_edges = 0;
        self.node_filter.fill(0);
        self.node_bits.fill(0);
    }

    /// Collects the node set (mainly for tests / diagnostics).
    pub fn node_set(&self) -> FxHashSet<NodeId> {
        self.nodes().collect()
    }

    /// Entries currently allocated in the spill pool (diagnostics).
    #[inline]
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Lifetime count of lists growing past 2, 4, 8, … entries: each
    /// block growth into the next size class. The move of a 1-entry inline
    /// list into a 2-entry block is not counted, so the count depends on
    /// the insert/remove sequence alone, not on the inline cap. Monotone
    /// across `clear`.
    #[inline]
    pub fn spill_count(&self) -> u64 {
        self.spills
    }

    // ---- presence filter ----------------------------------------------

    /// Filter index of `node` (masked multiply-shift; robust against
    /// strided id patterns).
    #[inline]
    fn filter_index(&self, node: NodeId) -> usize {
        mix(node) & (self.node_filter.len() - 1)
    }

    /// `false` proves `node` has no incident edge; `true` means "probably".
    /// One u64 load from the (L1-sized) bitset.
    #[inline]
    fn maybe_present(&self, node: NodeId) -> bool {
        let idx = self.filter_index(node);
        (self.node_bits[idx >> 6] >> (idx & 63)) & 1 != 0
    }

    /// Counts `node` into the filter (saturating — a stuck counter only
    /// causes false positives, never false negatives).
    #[inline]
    fn filter_add(&mut self, node: NodeId) {
        count_in(&mut self.node_filter, &mut self.node_bits, node);
    }

    /// Removes `node` from the filter. Saturated counters stick.
    #[inline]
    fn filter_remove(&mut self, node: NodeId) {
        let idx = self.filter_index(node);
        let counter = &mut self.node_filter[idx];
        if *counter != u8::MAX {
            *counter -= 1;
            if *counter == 0 {
                self.node_bits[idx >> 6] &= !(1 << (idx & 63));
            }
        }
    }

    /// Doubles the filter until the live node count fits the slack target,
    /// recounting every live node straight from the slot table (also
    /// un-sticks saturated counters).
    #[cold]
    fn grow_filter(&mut self) {
        let target = (self.live_nodes * FILTER_SLACK)
            .next_power_of_two()
            .max(self.node_filter.len() * 2);
        self.node_filter = vec![0; target];
        self.node_bits = vec![0; target / 64];
        for slot in self.slots.iter().filter(|s| s.len() > 0) {
            count_in(&mut self.node_filter, &mut self.node_bits, slot.id);
        }
    }

    // ---- internal storage plumbing ------------------------------------

    /// Dense slot of `node`, filter-gated.
    #[inline]
    fn lookup(&self, node: NodeId) -> Option<u32> {
        if !self.maybe_present(node) {
            return None;
        }
        self.probe_valid(node)
    }

    /// Index lookup without the filter gate. (Index entries are removed
    /// eagerly on node death, so an entry that exists is always valid; a
    /// lazy-deletion variant with amortized purges was measured slower.)
    #[inline]
    fn probe_valid(&self, node: NodeId) -> Option<u32> {
        self.index_of.get(node)
    }

    /// Live neighbor entries of the node in `slots[idx]`.
    #[inline]
    fn list(&self, idx: u32) -> &[(NodeId, V)] {
        self.list_tagged(idx).0
    }

    /// Live neighbor entries plus whether they are sorted (class ≥ 2
    /// blocks are; inline lists and class-0/1 blocks are in arrival order).
    #[inline]
    fn list_tagged(&self, idx: u32) -> (&[(NodeId, V)], bool) {
        let slot = &self.slots[idx as usize];
        let len = slot.len();
        if len <= INLINE_NEIGHBORS {
            (&slot.inline[..len], false)
        } else {
            (&self.pool[slot.offset()..][..len], slot.sorted())
        }
    }

    /// Mutable live neighbor entries of the node in `slots[idx]`, plus
    /// whether they are sorted.
    #[inline]
    fn list_tagged_mut(&mut self, idx: u32) -> (&mut [(NodeId, V)], bool) {
        let slot = &mut self.slots[idx as usize];
        let len = slot.len();
        if len <= INLINE_NEIGHBORS {
            (&mut slot.inline[..len], false)
        } else {
            let sorted = slot.sorted();
            (&mut self.pool[slot.offset()..][..len], sorted)
        }
    }

    /// Position of `nbr` in a neighbor list: binary search once a sorted
    /// list outgrows a cache line, linear otherwise.
    #[inline]
    fn position(list: &[(NodeId, V)], sorted: bool, nbr: NodeId) -> Option<usize> {
        if sorted && list.len() > 8 {
            list.binary_search_by_key(&nbr, |e| e.0).ok()
        } else {
            list.iter().position(|e| e.0 == nbr)
        }
    }

    /// Rewrites the stored value on the `node → nbr` list entry; returns
    /// the node's slot index and the previous value.
    fn update_entry(&mut self, node: NodeId, nbr: NodeId, value: V) -> (u32, V) {
        let idx = self
            .probe_valid(node)
            .unwrap_or_else(|| unreachable!("node {node} missing from the index"));
        let (list, sorted) = self.list_tagged_mut(idx);
        let pos = Self::position(list, sorted, nbr)
            .unwrap_or_else(|| unreachable!("neighbor lists out of sync at slot {idx}->{nbr}"));
        (idx, std::mem::replace(&mut list[pos].1, value))
    }

    /// Interns `node`, creating a slot if needed. `fill` initializes fresh
    /// inline storage (any valid entry; it is overwritten before first read).
    fn intern(&mut self, node: NodeId, fill: (NodeId, V)) -> u32 {
        if let Some(idx) = self.lookup(node) {
            return idx;
        }
        if (self.live_nodes + 1) * FILTER_SLACK > self.node_filter.len() {
            self.grow_filter();
        }
        self.filter_add(node);
        self.live_nodes += 1;
        let fresh = NodeSlot {
            id: node,
            packed: 0,
            inline: [fill; INLINE_NEIGHBORS],
        };
        let idx = match self.free_slots.pop() {
            Some(idx) => {
                self.slots[idx as usize] = fresh;
                idx
            }
            None => {
                self.slots.push(fresh);
                (self.slots.len() - 1) as u32
            }
        };
        self.index_of.insert(node, idx);
        idx
    }

    /// Appends `entry` to `node`'s neighbor list (interning the node),
    /// spilling or growing the backing block as needed; returns the node's
    /// slot index.
    fn attach(&mut self, node: NodeId, entry: (NodeId, V)) -> u32 {
        let idx = self.intern(node, entry);
        self.attach_at(idx, entry);
        idx
    }

    /// Appends `entry` to the (already interned) node in slot `idx`.
    fn attach_at(&mut self, idx: u32, entry: (NodeId, V)) {
        let idx = idx as usize;
        let slot = self.slots[idx];
        let len = slot.len();
        if len < INLINE_NEIGHBORS {
            self.slots[idx].inline[len] = entry;
            self.slots[idx].packed += 1;
            return;
        }
        if len == INLINE_NEIGHBORS {
            // Inline → class-0 block, arrival order kept. Not a counted
            // spill: the count tracks growth past 2, 4, 8, … entries.
            let offset = self.alloc_block(0, entry);
            self.pool[offset..offset + len].copy_from_slice(&slot.inline);
            self.pool[offset + len] = entry;
            self.slots[idx].set_spilled(len + 1, 0, offset);
            return;
        }
        let (offset, class) = (slot.offset(), slot.class());
        if len < block_len(class) {
            // Room in the current block.
            if slot.sorted() {
                self.sorted_insert(offset, len, entry);
            } else {
                self.pool[offset + len] = entry;
            }
            self.slots[idx].packed += 1;
            return;
        }
        // Block full: grow one size class (copy, then recycle the old
        // block). Growing into the first sorted class sorts the list once.
        self.spills += 1;
        let new_offset = self.alloc_block(class + 1, entry);
        self.pool.copy_within(offset..offset + len, new_offset);
        self.free_block(offset as u32, class);
        if slot.sorted() {
            self.sorted_insert(new_offset, len, entry);
        } else {
            self.pool[new_offset + len] = entry;
            if class + 1 == SORTED_CLASS {
                self.pool[new_offset..new_offset + len + 1].sort_unstable_by_key(|e| e.0);
            }
        }
        self.slots[idx].set_spilled(len + 1, class + 1, new_offset);
    }

    /// Inserts `entry` into the sorted block `pool[offset..offset + len]`
    /// (which has room for at least one more element), shifting the tail.
    #[inline]
    fn sorted_insert(&mut self, offset: usize, len: usize, entry: (NodeId, V)) {
        let pos = self.pool[offset..offset + len].partition_point(|e| e.0 < entry.0);
        self.pool
            .copy_within(offset + pos..offset + len, offset + pos + 1);
        self.pool[offset + pos] = entry;
    }

    /// Removes entry `pos` from the neighbor list of `node` (in slot `idx`),
    /// then moves the list to a class-0 block or back inline, or frees the
    /// node, if warranted. Returns the value that was stored on the removed
    /// entry.
    fn detach_at(&mut self, idx: u32, node: NodeId, pos: usize) -> V {
        let (list, sorted) = self.list_tagged_mut(idx);
        let value = list[pos].1;
        if sorted {
            // Ordered removal (shift, not swap) keeps the block sorted.
            list.copy_within(pos + 1.., pos);
        } else {
            list[pos] = list[list.len() - 1];
        }
        let idx = idx as usize;
        let slot = self.slots[idx];
        let len = slot.len() - 1;
        if len == 0 {
            // Only an inline list can empty (a spilled one migrates inline
            // at INLINE_NEIGHBORS >= 1 entries), so no block is left behind;
            // `intern` resets the slot before it is reused.
            self.slots[idx].packed = 0;
            self.index_of.remove(node);
            self.live_nodes -= 1;
            self.filter_remove(node);
            self.free_slots.push(idx as u32);
        } else if len == INLINE_NEIGHBORS {
            // Spilled list shrank to the inline cap: migrate back inline.
            let offset = slot.offset();
            let mut inline = slot.inline;
            inline.copy_from_slice(&self.pool[offset..offset + len]);
            self.free_block(offset as u32, slot.class());
            self.slots[idx].inline = inline;
            self.slots[idx].packed = len as u32;
        } else if len == UNSORTED_MAX && slot.class() > 0 {
            // Shrank to a class-0 block's length: move there, order kept,
            // so the list is unsorted again and its next growth counts.
            let offset = slot.offset();
            let new_offset = self.alloc_block(0, self.pool[offset]);
            self.pool.copy_within(offset..offset + len, new_offset);
            self.free_block(offset as u32, slot.class());
            self.slots[idx].set_spilled(len, 0, new_offset);
        } else {
            self.slots[idx].packed -= 1;
        }
        value
    }

    // ---- spill pool ----------------------------------------------------

    /// Allocates a block of size class `class`: a freed block of that class
    /// when one is available, else the front of the smallest larger freed
    /// block (its upper halves go to the free lists of the classes in
    /// between), else fresh pool growth filled with copies of `fill`.
    /// Splitting lets the blocks that shrunken hubs left behind serve short
    /// lists; on the churn script it cuts the pool's peak by 18%.
    fn alloc_block(&mut self, class: u8, fill: (NodeId, V)) -> usize {
        assert!(
            (class as usize) < NUM_CLASSES,
            "neighbor list exceeds the largest spill class ({} entries)",
            block_len((NUM_CLASSES - 1) as u8)
        );
        let Some(free) =
            (class..NUM_CLASSES as u8).find(|&c| self.free_blocks[c as usize] != FREE_NONE)
        else {
            let offset = self.pool.len();
            self.pool.resize(offset + block_len(class), fill);
            return offset;
        };
        let head = self.free_blocks[free as usize];
        self.free_blocks[free as usize] = self.pool[head as usize].0;
        for c in class..free {
            self.free_block(head + block_len(c) as u32, c);
        }
        head as usize
    }

    /// Returns a block to its size class free list. The list is intrusive:
    /// the next-pointer is stored in the `NodeId` field of the block's first
    /// (now dead) entry.
    fn free_block(&mut self, offset: u32, class: u8) {
        self.pool[offset as usize].0 = self.free_blocks[class as usize];
        self.free_blocks[class as usize] = offset;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_graph() -> CompactAdjacency<u32> {
        let mut g = CompactAdjacency::new();
        g.insert(Edge::new(1, 2), 10);
        g.insert(Edge::new(2, 3), 20);
        g.insert(Edge::new(1, 3), 30);
        g
    }

    #[test]
    fn insert_is_idempotent_on_edge_count() {
        let mut g = CompactAdjacency::new();
        assert_eq!(g.insert(Edge::new(1, 2), 7), None);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(
            g.insert(Edge::new(2, 1), 8),
            Some(7),
            "reinsert replaces value"
        );
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.get(Edge::new(1, 2)), Some(8));
        // Replacement is visible through the neighbor lists too.
        assert_eq!(g.neighbors(1).next(), Some((2, 8)));
        assert_eq!(g.neighbors(2).next(), Some((1, 8)));
    }

    #[test]
    fn remove_returns_value_and_prunes_nodes() {
        let mut g = triangle_graph();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.remove(Edge::new(2, 3)), Some(20));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_nodes(), 3, "2 and 3 still touch edges to 1");
        assert_eq!(g.remove(Edge::new(1, 2)), Some(10));
        assert_eq!(g.remove(Edge::new(1, 3)), Some(30));
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.remove(Edge::new(1, 3)), None);
    }

    #[test]
    fn spill_grow_shrink_round_trip() {
        // Walk one hub through inline → spill → grown spill and back down,
        // checking contents at every step.
        let mut g: CompactAdjacency<u32> = CompactAdjacency::new();
        let hub = 1000;
        let degree = 3 * BASE_BLOCK as u32; // forces at least one block growth
        for i in 0..degree {
            g.insert(Edge::new(hub, i), i);
            assert_eq!(g.degree(hub), i as usize + 1);
        }
        let mut nbrs: Vec<(NodeId, u32)> = g.neighbors(hub).collect();
        nbrs.sort_unstable();
        assert_eq!(nbrs, (0..degree).map(|i| (i, i)).collect::<Vec<_>>());
        // Remove most edges: the list shrinks and migrates back inline.
        for i in (INLINE_NEIGHBORS as u32..degree).rev() {
            assert_eq!(g.remove(Edge::new(hub, i)), Some(i));
        }
        assert_eq!(g.degree(hub), INLINE_NEIGHBORS);
        let mut nbrs: Vec<(NodeId, u32)> = g.neighbors(hub).collect();
        nbrs.sort_unstable();
        assert_eq!(
            nbrs,
            (0..INLINE_NEIGHBORS as u32)
                .map(|i| (i, i))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn spilled_lists_stay_sorted() {
        let mut g: CompactAdjacency<u32> = CompactAdjacency::new();
        let hub = 7;
        // Insert in a scrambled order and interleave removals.
        for i in [9u32, 3, 40, 12, 1, 33, 28, 5, 17, 2, 50, 21] {
            g.insert(Edge::new(hub, 100 + i), i);
        }
        g.remove(Edge::new(hub, 112));
        g.remove(Edge::new(hub, 101));
        let nbrs: Vec<NodeId> = g.neighbors(hub).map(|(n, _)| n).collect();
        let mut sorted = nbrs.clone();
        sorted.sort_unstable();
        assert_eq!(nbrs, sorted, "spilled list must remain sorted");
        assert_eq!(g.degree(hub), 10);
    }

    #[test]
    fn freed_blocks_are_recycled() {
        let mut g: CompactAdjacency<u32> = CompactAdjacency::new();
        let spill_degree = (INLINE_NEIGHBORS + 1) as u32;
        for i in 0..spill_degree {
            g.insert(Edge::new(100, 200 + i), i);
        }
        let pool_after_first_spill = g.pool_len();
        // Drop the hub entirely, then spill a different hub: the freed
        // class-0 block must be reused, not newly allocated.
        for i in 0..spill_degree {
            g.remove(Edge::new(100, 200 + i));
        }
        for i in 0..spill_degree {
            g.insert(Edge::new(101, 300 + i), i);
        }
        assert_eq!(g.pool_len(), pool_after_first_spill, "block not recycled");
        assert_eq!(g.degree(101), spill_degree as usize);
    }

    #[test]
    fn common_neighbors_orients_values_correctly() {
        let g = triangle_graph();
        let mut seen = vec![];
        g.for_each_common_neighbor(1, 2, |w, vu, vv| seen.push((w, vu, vv)));
        assert_eq!(seen, vec![(3, 30, 20)]);
        let mut seen = vec![];
        g.for_each_common_neighbor(2, 1, |w, vu, vv| seen.push((w, vu, vv)));
        assert_eq!(seen, vec![(3, 20, 30)]);
    }

    #[test]
    fn common_neighbors_binary_search_path_matches_linear() {
        // Make one endpoint's list longer than LINEAR_PROBE_MAX so the
        // kernel switches to binary search on the sorted block, and include
        // the (u, v) edge itself to check it is not reported.
        let mut g: CompactAdjacency<u32> = CompactAdjacency::new();
        let (u, v) = (10_000, 20_000);
        g.insert(Edge::new(u, v), 1);
        let big = (LINEAR_PROBE_MAX + 8) as u32;
        for i in 0..big {
            g.insert(Edge::new(v, 30_000 + i), 100 + i); // v is the hub
        }
        // Three genuine common neighbors.
        for w in [30_001u32, 30_005, 30_007] {
            g.insert(Edge::new(u, w), w);
        }
        let mut seen = vec![];
        g.for_each_common_neighbor(u, v, |w, vu, vv| seen.push((w, vu, vv)));
        seen.sort_unstable();
        assert_eq!(
            seen,
            vec![
                (30_001, 30_001, 101),
                (30_005, 30_005, 105),
                (30_007, 30_007, 107)
            ]
        );
        assert_eq!(g.common_neighbor_count(u, v), 3);
        let (tri, deg_sum, present) = g.triad_counts(u, v);
        assert_eq!(tri, 3);
        assert_eq!(deg_sum, g.degree(u) + g.degree(v));
        assert!(present);
    }

    #[test]
    fn set_updates_both_directions() {
        let mut g = triangle_graph();
        assert!(g.set(Edge::new(3, 2), 99));
        assert_eq!(g.get(Edge::new(2, 3)), Some(99));
        assert_eq!(g.neighbors(2).find(|&(n, _)| n == 3), Some((3, 99)));
        assert_eq!(g.neighbors(3).find(|&(n, _)| n == 2), Some((2, 99)));
        assert!(!g.set(Edge::new(5, 6), 1));
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = triangle_graph();
        let mut edges: Vec<Edge> = g.edges().map(|(e, _)| e).collect();
        edges.sort();
        assert_eq!(
            edges,
            vec![Edge::new(1, 2), Edge::new(1, 3), Edge::new(2, 3)]
        );
    }

    #[test]
    fn node_churn_recycles_slots_and_filter() {
        // Heavy node birth/death churn across disjoint id ranges: slot and
        // filter bookkeeping must stay exact throughout.
        let mut g: CompactAdjacency<u32> = CompactAdjacency::new();
        for round in 0u32..50 {
            let base = round * 1_000;
            for i in 0..40 {
                g.insert(Edge::new(base + i, base + i + 500), i);
            }
            assert_eq!(g.num_nodes(), 80, "round {round}");
            for i in 0..40 {
                assert_eq!(g.remove(Edge::new(base + i, base + i + 500)), Some(i));
            }
            assert_eq!(g.num_nodes(), 0, "round {round}");
            assert!(g.is_empty());
        }
        // Old ids must not resolve after their nodes died.
        assert_eq!(g.degree(500), 0);
        g.insert(Edge::new(1, 2), 9);
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn stale_hints_fall_back_to_lookup() {
        let mut g: CompactAdjacency<u32> = CompactAdjacency::new();
        let (_, hints) = g.insert_with_hints(Edge::new(1, 2), 10);
        // Churn enough nodes that slot reuse and filter growth both occur
        // while the hinted edge stays alive.
        for i in 100..400u32 {
            g.insert(Edge::new(i, i + 1000), i);
        }
        for i in 100..300u32 {
            g.remove(Edge::new(i, i + 1000));
        }
        assert_eq!(g.remove_hinted(Edge::new(1, 2), hints), Some(10));
        // A wrong-but-in-range hint must also be survivable.
        let (_, h2) = g.insert_with_hints(Edge::new(5, 6), 77);
        let bogus = EdgeHints {
            u_idx: h2.v_idx,
            v_idx: h2.u_idx,
        };
        assert_eq!(g.remove_hinted(Edge::new(5, 6), bogus), Some(77));
        assert_eq!(g.degree(5), 0);
        assert_eq!(g.degree(6), 0);
    }

    #[test]
    fn node_slots_are_recycled_for_new_ids() {
        let mut g: CompactAdjacency<u32> = CompactAdjacency::new();
        g.insert(Edge::new(1, 2), 1);
        g.remove(Edge::new(1, 2));
        assert_eq!(g.num_nodes(), 0);
        g.insert(Edge::new(7, 8), 2);
        assert_eq!(g.num_nodes(), 2);
        let mut nodes: Vec<NodeId> = g.nodes().collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![7, 8]);
        assert_eq!(g.node_set().len(), 2);
        assert_eq!(g.degree(1), 0, "old id must not resolve to a reused slot");
    }

    #[test]
    fn completion_walk_matches_separate_walks() {
        // for_each_completion must report exactly what the separate
        // common-neighbor + incident walks (with self-exclusion) report,
        // for present/absent endpoint combinations.
        let mut g: CompactAdjacency<u32> = CompactAdjacency::new();
        g.insert(Edge::new(1, 2), 12);
        g.insert(Edge::new(2, 3), 23);
        g.insert(Edge::new(1, 3), 13);
        g.insert(Edge::new(3, 4), 34);
        for (u, v) in [(1, 2), (2, 1), (1, 4), (4, 5), (5, 6), (3, 9)] {
            let (mut tri_a, mut wedge_a) = (vec![], vec![]);
            g.for_each_completion(u, v, |w, x, y| tri_a.push((w, x, y)), |x| wedge_a.push(x));
            let (mut tri_b, mut wedge_b) = (vec![], vec![]);
            g.for_each_common_neighbor(u, v, |w, x, y| tri_b.push((w, x, y)));
            for (n, x) in g.neighbors(u).chain(g.neighbors(v)) {
                if n != u && n != v {
                    wedge_b.push(x);
                }
            }
            tri_a.sort_unstable();
            tri_b.sort_unstable();
            wedge_a.sort_unstable();
            wedge_b.sort_unstable();
            assert_eq!(tri_a, tri_b, "common mismatch at ({u},{v})");
            assert_eq!(wedge_a, wedge_b, "incident mismatch at ({u},{v})");
        }
    }

    #[test]
    fn neighbor_at_covers_each_neighbor_exactly_once() {
        let mut g: CompactAdjacency<u32> = CompactAdjacency::new();
        for i in 0..10u32 {
            g.insert(Edge::new(100, i), i);
        }
        let mut seen: Vec<(NodeId, u32)> = (0..g.degree(100))
            .map(|i| g.neighbor_at(100, i).expect("index < degree"))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10u32).map(|i| (i, i)).collect::<Vec<_>>());
        assert_eq!(g.neighbor_at(100, 10), None);
        assert_eq!(g.neighbor_at(999, 0), None, "unknown node has no neighbors");
    }

    /// splitmix64, the deterministic source behind the churn scripts.
    struct SplitMix(u64);

    impl SplitMix {
        /// A uniform draw from `0..bound`.
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    /// A Holme–Kim stream of at least `len` distinct edges grown from a
    /// 5-clique: each new node makes 4 attempts, each a triad step (a
    /// random neighbor of the last attachee) with probability 1/2, else
    /// preferential attachment.
    fn holme_kim_stream(rng: &mut SplitMix, len: usize) -> Vec<Edge> {
        let mut graph: CompactAdjacency<()> = CompactAdjacency::new();
        let mut stubs: Vec<NodeId> = Vec::new();
        let mut stream: Vec<Edge> = Vec::new();
        for a in 0..5 {
            for b in a + 1..5 {
                stream.push(Edge::new(a, b));
                graph.insert(Edge::new(a, b), ());
                stubs.extend([a, b]);
            }
        }
        let mut v: NodeId = 5;
        while stream.len() < len {
            let mut last: Option<NodeId> = None;
            for _ in 0..4 {
                let target = match last {
                    Some(anchor) if rng.below(2) == 0 => {
                        graph.neighbor_slice(anchor)[rng.below(graph.degree(anchor))].0
                    }
                    _ => stubs[rng.below(stubs.len())],
                };
                if target == v {
                    continue;
                }
                let e = Edge::new(v, target);
                if graph.insert(e, ()).is_none() {
                    stream.push(e);
                    stubs.extend([v, target]);
                    last = Some(target);
                }
            }
            v += 1;
        }
        stream
    }

    /// The reservoir-churn script: a reservoir of `cap` edges over a
    /// Holme–Kim stream of 20x that many arrivals, sized the way
    /// `GpsSampler` sizes it and evicting a random sampled edge per insert
    /// once full. `observe` sees the sample after every arrival.
    fn reservoir_churn(cap: usize, mut observe: impl FnMut(&CompactAdjacency<u32>)) {
        let mut rng = SplitMix(0x5EED);
        let stream = holme_kim_stream(&mut rng, 20 * cap);
        let mut sample: CompactAdjacency<u32> =
            CompactAdjacency::with_capacity(2 * (cap + 1), cap + 1);
        observe(&sample);
        let mut held: Vec<Edge> = Vec::with_capacity(cap + 1);
        for (k, &e) in stream.iter().enumerate() {
            sample.insert(e, k as u32);
            held.push(e);
            if held.len() > cap {
                let victim = held.swap_remove(rng.below(held.len()));
                sample.remove(victim);
            }
            observe(&sample);
        }
    }

    #[test]
    fn index_follows_the_live_node_peak_under_reservoir_churn() {
        let sizes = |g: &CompactAdjacency<u32>| (g.index_of.buckets(), g.node_filter.len());
        let mut first = true;
        let (mut peak, mut sizes_at_peak) = (0, (0, 0));
        let mut history = Vec::new();
        let mut last = (0, 0, 0, 0);
        reservoir_churn(2_000, |sample| {
            if first {
                assert_eq!(sample.node_filter.len(), MIN_FILTER_LEN);
                first = false;
                sizes_at_peak = sizes(sample);
                return;
            }
            if sample.num_nodes() > peak {
                peak = sample.num_nodes();
                sizes_at_peak = sizes(sample);
                history.clear();
            }
            history.push(sizes(sample));
            last = (
                sample.index_of.len(),
                sample.num_nodes(),
                sample.node_bits.len() * 64,
                sample.node_filter.len(),
            );
        });
        let (index_len, nodes, bits, counters) = last;
        assert_eq!(index_len, nodes);
        assert_eq!(bits, counters);
        let (buckets, filter_len) = *history.last().expect("a non-empty stream");
        let bound = (peak * 5).div_ceil(4).next_power_of_two();
        assert!(
            buckets <= bound,
            "{buckets} buckets for a peak of {peak} live nodes (bound {bound})"
        );
        let filter_bound = (peak * FILTER_SLACK).next_power_of_two();
        assert!(
            filter_len <= filter_bound,
            "{filter_len} filter counters for a peak of {peak} live nodes (bound {filter_bound})"
        );
        assert!(
            history.iter().all(|&(b, _)| b == sizes_at_peak.0),
            "the index grew after the live-node peak"
        );
        assert!(
            history.iter().all(|&(_, f)| f == sizes_at_peak.1),
            "the filter grew after the live-node peak"
        );
    }

    /// Sets `hub`'s degree to `target` by attaching neighbors
    /// `100 + d` in ascending `d`, or detaching them in descending `d`.
    fn drive_hub(g: &mut CompactAdjacency<u32>, hub: NodeId, target: u32) {
        let current = g.degree(hub) as u32;
        for d in current..target {
            g.insert(Edge::new(hub, 100 + d), d);
        }
        for d in (target..current).rev() {
            assert_eq!(g.remove(Edge::new(hub, 100 + d)), Some(d));
        }
        assert_eq!(g.degree(hub), target as usize);
    }

    #[test]
    fn spill_count_is_pinned_across_hub_cycles_and_reservoir_churn() {
        // The count is of lists growing past 2, 4, 8, ... entries, whatever
        // the slot and block layout. Four hubs share neighbors 100..140, so
        // each of those reaches degree 4 on every climb as well.
        let mut g: CompactAdjacency<u32> = CompactAdjacency::new();
        let mut counts = Vec::new();
        for target in [40, 0, 40, 3, 9, 2, 5, 0] {
            for hub in 0..4 {
                drive_hub(&mut g, hub, target);
            }
            counts.push(g.spill_count());
        }
        assert_eq!(counts, [60, 60, 120, 120, 126, 126, 137, 137]);
        assert!(g.is_empty());

        // Every 10,000th observation of the churn script, then the last.
        let (mut spills, mut last) = (Vec::new(), 0);
        let mut observed = 0;
        reservoir_churn(2_000, |sample| {
            observed += 1;
            last = sample.spill_count();
            if observed % 10_000 == 0 {
                spills.push(last);
            }
        });
        spills.push(last);
        assert_eq!(spills, [4829, 9224, 13029, 16480, 16481]);
    }

    /// Pairs probed, by the list each one meets: `[inline, unsorted block,
    /// sorted merge, binary search]`.
    type Regimes = [usize; 4];

    /// Asserts that the counting queries on `(u, v)` agree with the
    /// enumeration kernel, and tallies the regimes the pair exercises.
    fn assert_counts_match_enumeration(
        g: &CompactAdjacency<u32>,
        u: NodeId,
        v: NodeId,
        regimes: &mut Regimes,
    ) {
        let mut common = 0;
        g.for_each_common_neighbor(u, v, |_, _, _| common += 1);
        let present = g.contains(Edge::new(u, v));
        let degree_sum = g.degree(u) + g.degree(v);
        assert_eq!(
            g.triangle_closure_counts(u, v),
            (common, present),
            "triangle_closure_counts({u}, {v})"
        );
        assert_eq!(
            g.triad_counts(u, v),
            (common, degree_sum, present),
            "triad_counts({u}, {v})"
        );
        assert_eq!(
            g.common_neighbor_count(u, v),
            common,
            "common_neighbor_count({u}, {v})"
        );
        let (Some(iu), Some(iv)) = (g.lookup(u), g.lookup(v)) else {
            return;
        };
        let (lu, u_sorted) = g.list_tagged(iu);
        let (lv, v_sorted) = g.list_tagged(iv);
        for (list, sorted) in [(lu, u_sorted), (lv, v_sorted)] {
            if list.len() <= INLINE_NEIGHBORS {
                regimes[0] += 1;
            } else if !sorted {
                regimes[1] += 1;
            }
        }
        let large = if lu.len() <= lv.len() {
            (lv, v_sorted)
        } else {
            (lu, u_sorted)
        };
        if u_sorted && v_sorted && CompactAdjacency::<u32>::balanced(lu.len(), lv.len()) {
            regimes[2] += 1;
        } else if large.1 && large.0.len() > LINEAR_PROBE_MAX {
            regimes[3] += 1;
        }
    }

    /// Probes every live edge's endpoints, every pair of `hubs`, and ids
    /// that were never inserted, against live and absent partners.
    fn probe_counting_queries(g: &CompactAdjacency<u32>, hubs: &[NodeId], regimes: &mut Regimes) {
        const ABSENT: [NodeId; 2] = [9_999_991, 9_999_992];
        for (e, _) in g.edges() {
            assert_counts_match_enumeration(g, e.u(), e.v(), regimes);
        }
        for (i, &a) in hubs.iter().enumerate() {
            for &b in &hubs[i + 1..] {
                assert_counts_match_enumeration(g, a, b, regimes);
            }
            assert_counts_match_enumeration(g, a, ABSENT[0], regimes);
        }
        assert_counts_match_enumeration(g, ABSENT[0], ABSENT[1], regimes);
    }

    #[test]
    fn counting_queries_match_the_enumeration_kernel() {
        // Hub cycles, one edge per step: degree 40 sends the hubs' lists
        // past LINEAR_PROBE_MAX (binary search against their degree-4
        // neighbors, merges between hubs), degrees 2..=4 hold unsorted
        // blocks and degree 1 lists are inline.
        let hubs = [0, 1, 2, 3];
        let mut g: CompactAdjacency<u32> = CompactAdjacency::new();
        let mut regimes = Regimes::default();
        for target in [40, 0, 40, 3, 9, 2, 5, 0] {
            for &hub in &hubs {
                let current = g.degree(hub) as u32;
                let steps: Vec<u32> = if target >= current {
                    (current + 1..=target).collect()
                } else {
                    (target..current).rev().collect()
                };
                for degree in steps {
                    drive_hub(&mut g, hub, degree);
                    probe_counting_queries(&g, &hubs, &mut regimes);
                }
            }
        }
        assert!(regimes.iter().all(|&n| n > 0), "hub cycles: {regimes:?}");

        // The reservoir-churn script, whose Holme–Kim seed clique 0..5
        // holds the stream's hubs. At 400 edges the clique's lists still
        // pass LINEAR_PROBE_MAX while the reservoir fills; the 2,000 of the
        // other churn tests would take minutes to probe in a debug build.
        let mut regimes = Regimes::default();
        reservoir_churn(400, |sample| {
            probe_counting_queries(sample, &[0, 1, 2, 3, 4], &mut regimes);
        });
        assert!(
            regimes.iter().all(|&n| n > 0),
            "reservoir churn: {regimes:?}"
        );
    }

    #[test]
    fn sampler_sized_pool_does_not_reallocate_under_reservoir_churn() {
        let (mut reserved, mut peak) = (None, 0);
        reservoir_churn(2_000, |sample| {
            let capacity = *reserved.get_or_insert(sample.pool.capacity());
            assert_eq!(sample.pool.capacity(), capacity, "the pool reallocated");
            peak = peak.max(sample.pool_len());
        });
        // 3.36 entries per edge at the peak; 4.1 without block splitting.
        assert_eq!(peak, 6_718);
    }

    #[test]
    fn huge_reservation_allocates_only_the_minimum_filter() {
        // The sampler's sizing for m = 10M: the filter must not follow the
        // reservation, which pre-sized it to 128 Mi counters.
        let g: CompactAdjacency<u32> = CompactAdjacency::with_capacity(20_000_002, 10_000_001);
        assert_eq!(g.node_filter.len(), MIN_FILTER_LEN);
        assert_eq!(g.node_bits.len(), MIN_FILTER_LEN / 64);
    }

    #[test]
    fn clear_resets() {
        let mut g = triangle_graph();
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.pool_len(), 0);
    }
}
