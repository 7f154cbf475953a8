//! Differential property tests: [`CompactAdjacency`] against the
//! [`AdjacencyMap`] oracle under random edit sequences.
//!
//! The compact backend replaces the reservoir's adjacency store, so any
//! observable divergence from the old map is a sampler-corrupting bug. Every
//! property drives both structures through the same operations and compares
//! every return value plus full observable state (degrees, neighbor sets,
//! edge sets, common-neighbor enumeration with value orientation).
//!
//! Neighbor *order* is checked separately, against [`OrderModel`]: the
//! Holme–Kim generator's `neighbor_at` draws, the baselines and the
//! estimators' summation order all depend on it, so it must be a function
//! of the insert/remove sequence alone, not of where a list is stored.

use std::collections::HashMap;

use gps_graph::compact::{LINEAR_PROBE_MAX, SORT_AFTER, UNSORTED_MAX};
use gps_graph::types::{Edge, NodeId};
use gps_graph::{AdjacencyMap, CompactAdjacency, EdgeHints};
use proptest::prelude::*;

/// A random edit operation over a small node universe.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(Edge, u32),
    Remove(Edge),
    Set(Edge, u32),
}

/// Strategy: a sequence of ops over `max_n` nodes. Insert is weighted
/// heaviest so graphs actually grow; remove/set target the same universe so
/// they hit both present and absent edges.
fn arb_ops(max_n: NodeId, max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..6, 0..max_n, 0..max_n, any::<u32>()), 0..max_len).prop_map(|raw| {
        raw.into_iter()
            .filter_map(|(kind, a, b, val)| {
                let edge = Edge::try_new(a, b)?;
                Some(match kind {
                    0..=2 => Op::Insert(edge, val),
                    3 | 4 => Op::Remove(edge),
                    _ => Op::Set(edge, val),
                })
            })
            .collect()
    })
}

/// Asserts full observable equivalence of the two structures.
fn assert_equivalent(compact: &CompactAdjacency<u32>, oracle: &AdjacencyMap<u32>, max_n: NodeId) {
    assert_eq!(compact.num_edges(), oracle.num_edges());
    assert_eq!(compact.num_nodes(), oracle.num_nodes());
    assert_eq!(compact.is_empty(), oracle.is_empty());
    assert_eq!(compact.node_set(), oracle.node_set());

    let mut ce: Vec<(Edge, u32)> = compact.edges().collect();
    let mut oe: Vec<(Edge, u32)> = oracle.edges().collect();
    ce.sort_unstable();
    oe.sort_unstable();
    assert_eq!(ce, oe, "edge sets diverged");

    for node in 0..max_n {
        assert_eq!(compact.degree(node), oracle.degree(node), "degree({node})");
        let mut cn: Vec<(NodeId, u32)> = compact.neighbors(node).collect();
        let mut on: Vec<(NodeId, u32)> = oracle.neighbors(node).collect();
        cn.sort_unstable();
        on.sort_unstable();
        assert_eq!(cn, on, "neighbors({node})");
        // neighbor_at enumerates the same list by index, then runs out.
        let degree = compact.degree(node);
        let mut indexed: Vec<(NodeId, u32)> = (0..degree)
            .map(|i| compact.neighbor_at(node, i).expect("index < degree"))
            .collect();
        indexed.sort_unstable();
        assert_eq!(indexed, on, "neighbor_at({node}, ..)");
        assert_eq!(compact.neighbor_at(node, degree), None);
    }

    // Common-neighbor enumeration must agree as a set, including the value
    // orientation (first value = edge to the first argument).
    for u in 0..max_n {
        for v in (u + 1)..max_n {
            let mut cc: Vec<(NodeId, u32, u32)> = vec![];
            compact.for_each_common_neighbor(u, v, |w, vu, vv| cc.push((w, vu, vv)));
            let mut oc: Vec<(NodeId, u32, u32)> = vec![];
            oracle.for_each_common_neighbor(u, v, |w, vu, vv| oc.push((w, vu, vv)));
            cc.sort_unstable();
            oc.sort_unstable();
            assert_eq!(cc, oc, "common neighbors of ({u}, {v})");
            assert_eq!(
                completion(compact, u, v),
                completion_oracle(oracle, u, v),
                "completion walk of ({u}, {v})"
            );
            assert_eq!(
                compact.common_neighbor_count(u, v),
                oracle.common_neighbor_count(u, v)
            );
            assert_eq!(
                compact.triad_counts(u, v),
                oracle.triad_counts(u, v),
                "triad_counts({u}, {v})"
            );
        }
    }
}

/// Sorted `(triangles, wedges)` reported by the fused completion walk —
/// the Alg. 3 inner loop. Enumeration order is representation-defined, so
/// the two sides are compared as multisets.
type Completion = (Vec<(NodeId, u32, u32)>, Vec<u32>);

fn completion(g: &CompactAdjacency<u32>, u: NodeId, v: NodeId) -> Completion {
    let (mut tri, mut wedge) = (vec![], vec![]);
    g.for_each_completion(u, v, |w, a, b| tri.push((w, a, b)), |x| wedge.push(x));
    tri.sort_unstable();
    wedge.sort_unstable();
    (tri, wedge)
}

fn completion_oracle(g: &AdjacencyMap<u32>, u: NodeId, v: NodeId) -> Completion {
    let (mut tri, mut wedge) = (vec![], vec![]);
    g.for_each_completion(u, v, |w, a, b| tri.push((w, a, b)), |x| wedge.push(x));
    tri.sort_unstable();
    wedge.sort_unstable();
    (tri, wedge)
}

proptest! {
    #[test]
    fn random_edit_sequences_match_oracle(ops in arb_ops(16, 200)) {
        let mut compact: CompactAdjacency<u32> = CompactAdjacency::new();
        let mut oracle: AdjacencyMap<u32> = AdjacencyMap::new();
        for &op in &ops {
            match op {
                Op::Insert(e, v) => {
                    prop_assert_eq!(compact.insert(e, v), oracle.insert(e, v), "insert {}", e);
                }
                Op::Remove(e) => {
                    prop_assert_eq!(compact.remove(e), oracle.remove(e), "remove {}", e);
                }
                Op::Set(e, v) => {
                    prop_assert_eq!(compact.set(e, v), oracle.set(e, v), "set {}", e);
                }
            }
            prop_assert_eq!(compact.num_edges(), oracle.num_edges());
            prop_assert_eq!(compact.num_nodes(), oracle.num_nodes());
            for probe in [Edge::new(0, 1), Edge::new(2, 9), Edge::new(7, 15)] {
                prop_assert_eq!(compact.get(probe), oracle.get(probe));
                prop_assert_eq!(compact.contains(probe), oracle.contains(probe));
            }
        }
        assert_equivalent(&compact, &oracle, 16);
    }

    #[test]
    fn dense_universe_exercises_spill_and_hash_probe(ops in arb_ops(8, 400)) {
        // 8 nodes, up to 28 edges: degrees reach 7, crossing the inline→spill
        // boundary many times as edges churn.
        let mut compact: CompactAdjacency<u32> = CompactAdjacency::new();
        let mut oracle: AdjacencyMap<u32> = AdjacencyMap::new();
        for &op in &ops {
            match op {
                Op::Insert(e, v) => {
                    prop_assert_eq!(compact.insert(e, v), oracle.insert(e, v));
                }
                Op::Remove(e) => {
                    prop_assert_eq!(compact.remove(e), oracle.remove(e));
                }
                Op::Set(e, v) => {
                    prop_assert_eq!(compact.set(e, v), oracle.set(e, v));
                }
            }
        }
        assert_equivalent(&compact, &oracle, 8);
    }

    #[test]
    fn hub_graphs_hit_every_probe_strategy(
        spokes in 1u32..200,
        removals in prop::collection::vec(1u32..200, 0..60),
    ) {
        // Star around node 0 with a rim edge per spoke pair: hub degree
        // crosses both the spill classes and LINEAR_PROBE_MAX, so the
        // common-neighbor kernel runs its hash-probe arm against the oracle.
        let mut compact: CompactAdjacency<u32> = CompactAdjacency::new();
        let mut oracle: AdjacencyMap<u32> = AdjacencyMap::new();
        let hub = 1000;
        for s in 1..=spokes {
            let e = Edge::new(hub, s);
            compact.insert(e, s);
            oracle.insert(e, s);
            if s > 1 {
                let rim = Edge::new(s - 1, s);
                compact.insert(rim, 500 + s);
                oracle.insert(rim, 500 + s);
            }
        }
        // A second, smaller hub sharing every third spoke: hub–hub
        // intersections exercise the lopsided sorted-vs-sorted kernel arm.
        let hub2 = 2000;
        compact.insert(Edge::new(hub, hub2), 7);
        oracle.insert(Edge::new(hub, hub2), 7);
        for s in (1..=spokes).step_by(3) {
            let e = Edge::new(hub2, s);
            compact.insert(e, 9000 + s);
            oracle.insert(e, 9000 + s);
        }
        let mut ch: Vec<(NodeId, u32, u32)> = vec![];
        compact.for_each_common_neighbor(hub, hub2, |w, a, b| ch.push((w, a, b)));
        let mut oh: Vec<(NodeId, u32, u32)> = vec![];
        oracle.for_each_common_neighbor(hub, hub2, |w, a, b| oh.push((w, a, b)));
        ch.sort_unstable();
        oh.sort_unstable();
        prop_assert_eq!(ch, oh, "hub-hub common neighbors");
        prop_assert_eq!(
            compact.triad_counts(hub, hub2),
            oracle.triad_counts(hub, hub2)
        );
        for &r in &removals {
            let r = (r % spokes) + 1;
            let e = Edge::new(hub, r);
            prop_assert_eq!(compact.remove(e), oracle.remove(e));
        }
        for s in 1..spokes {
            let (u, v) = (s, s + 1);
            let mut cc: Vec<(NodeId, u32, u32)> = vec![];
            compact.for_each_common_neighbor(u, v, |w, vu, vv| cc.push((w, vu, vv)));
            let mut oc: Vec<(NodeId, u32, u32)> = vec![];
            oracle.for_each_common_neighbor(u, v, |w, vu, vv| oc.push((w, vu, vv)));
            cc.sort_unstable();
            oc.sort_unstable();
            prop_assert_eq!(cc, oc, "common neighbors of rim edge ({}, {})", u, v);
        }
        prop_assert_eq!(compact.degree(hub), oracle.degree(hub));
        prop_assert_eq!(compact.num_edges(), oracle.num_edges());
    }
}

proptest! {
    #[test]
    fn triangle_closure_matches_oracle(ops in arb_ops(12, 250)) {
        let mut compact: CompactAdjacency<u32> = CompactAdjacency::new();
        let mut oracle: AdjacencyMap<u32> = AdjacencyMap::new();
        for &op in &ops {
            match op {
                Op::Insert(e, v) => {
                    compact.insert(e, v);
                    oracle.insert(e, v);
                }
                Op::Remove(e) => {
                    compact.remove(e);
                    oracle.remove(e);
                }
                Op::Set(e, v) => {
                    compact.set(e, v);
                    oracle.set(e, v);
                }
            }
        }
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                prop_assert_eq!(
                    compact.triangle_closure_counts(u, v),
                    oracle.triangle_closure_counts(u, v),
                    "triangle_closure_counts({}, {})", u, v
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn hinted_insert_and_remove_match_oracle(ops in arb_ops(10, 400)) {
        // The reservoir's path: insert_with_hints at admission, remove_hinted
        // with the stored hints at eviction. Hints are kept per edge across
        // removal, so removes of absent edges and of re-inserted ones also
        // run with stale hints, which must degrade to a plain lookup.
        let mut compact: CompactAdjacency<u32> = CompactAdjacency::new();
        let mut oracle: AdjacencyMap<u32> = AdjacencyMap::new();
        let mut hints: HashMap<Edge, EdgeHints> = HashMap::new();
        for &op in &ops {
            match op {
                Op::Insert(e, v) => {
                    let (prev, h) = compact.insert_with_hints(e, v);
                    prop_assert_eq!(prev, oracle.insert(e, v), "insert {}", e);
                    hints.insert(e, h);
                }
                Op::Remove(e) => {
                    let h = hints.get(&e).copied().unwrap_or_default();
                    prop_assert_eq!(compact.remove_hinted(e, h), oracle.remove(e), "remove {}", e);
                }
                Op::Set(e, v) => {
                    prop_assert_eq!(compact.set(e, v), oracle.set(e, v), "set {}", e);
                }
            }
            // Insert order and node churn move inline/spilled lists around;
            // the completion walk of a fixed probe must track the oracle.
            prop_assert_eq!(completion(&compact, 0, 1), completion_oracle(&oracle, 0, 1));
        }
        assert_equivalent(&compact, &oracle, 10);
    }

    #[test]
    fn hints_name_every_present_edge(ops in arb_ops(10, 400)) {
        // A sampler keeps only the hints of a sampled edge: after every
        // edit, each present edge's latest hints must read back as that
        // edge, and the completion walk started from them must be the walk
        // by node id, in the same order (estimates sum in walk order).
        let mut compact: CompactAdjacency<u32> = CompactAdjacency::new();
        let mut hints: HashMap<Edge, EdgeHints> = HashMap::new();
        for &op in &ops {
            match op {
                Op::Insert(e, v) => {
                    hints.insert(e, compact.insert_with_hints(e, v).1);
                }
                Op::Remove(e) => {
                    let h = hints.remove(&e).unwrap_or_default();
                    compact.remove_hinted(e, h);
                }
                Op::Set(e, v) => {
                    compact.set(e, v);
                }
            }
            prop_assert_eq!(hints.len(), compact.num_edges());
            for (&e, &h) in &hints {
                prop_assert_eq!(compact.hinted_edge(h), Some(e));
                let (mut by_id, mut by_hint) = ((vec![], vec![]), (vec![], vec![]));
                compact.for_each_completion(
                    e.u(),
                    e.v(),
                    |w, a, b| by_id.0.push((w, a, b)),
                    |x| by_id.1.push(x),
                );
                compact.for_each_hinted_completion(
                    h,
                    |w, a, b| by_hint.0.push((w, a, b)),
                    |x| by_hint.1.push(x),
                );
                prop_assert_eq!(by_hint, by_id, "walk of {}", e);
            }
        }
        // "No hint" names no edge and walks nothing.
        prop_assert_eq!(compact.hinted_edge(EdgeHints::NONE), None);
        compact.for_each_hinted_completion(
            EdgeHints::NONE,
            |_, _, _| panic!("walked a triangle from no hint"),
            |_| panic!("walked a wedge from no hint"),
        );
    }
}

/// Nodes in the filter-growth property's universe. A grow phase of at
/// least 1,000 random inserts touches about 1,450 of them, well past the
/// 1,024 live nodes that push the presence filter through three doublings
/// from its 1,024-counter start.
const GROWTH_UNIVERSE: NodeId = 3_000;

/// An edit in the filter-growth property.
#[derive(Clone, Copy, Debug)]
enum GrowthOp {
    Insert {
        edge: Edge,
        value: u32,
        hinted: bool,
    },
    /// Removes the `pick`-th edge inserted so far (modulo their count), so
    /// that removals hit in a universe too large for random ones to.
    Remove {
        pick: usize,
        hinted: bool,
    },
    Set(Edge, u32),
}

/// A grow phase of plain and hinted inserts, then a churn phase weighted
/// towards plain and hinted removals, with inserts and value updates.
fn arb_growth_ops() -> impl Strategy<Value = Vec<GrowthOp>> {
    let edits = |len| {
        prop::collection::vec(
            (0u8..8, 0..GROWTH_UNIVERSE, 0..GROWTH_UNIVERSE, any::<u32>()),
            len,
        )
    };
    (edits(1_000..1_400), edits(0..1_200)).prop_map(|(grow, churn)| {
        let op = |inserts: u8| {
            move |(kind, a, b, value): (u8, u32, u32, u32)| {
                Some(match kind {
                    k if k < inserts => GrowthOp::Insert {
                        edge: Edge::try_new(a, b)?,
                        value,
                        hinted: k % 2 == 0,
                    },
                    7 => GrowthOp::Set(Edge::try_new(a, b)?, value),
                    k => GrowthOp::Remove {
                        pick: value as usize,
                        hinted: k % 2 == 0,
                    },
                })
            }
        };
        let grow = grow.into_iter().filter_map(op(8));
        grow.chain(churn.into_iter().filter_map(op(3))).collect()
    })
}

proptest! {
    #[test]
    fn filter_growth_under_churn_matches_oracle(ops in arb_growth_ops()) {
        // Every lookup is gated by the presence filter, which starts at its
        // minimum and is rebuilt from the slot table at each doubling: a
        // node dropped or miscounted by a rebuild would read as absent.
        let mut compact: CompactAdjacency<u32> = CompactAdjacency::new();
        let mut oracle: AdjacencyMap<u32> = AdjacencyMap::new();
        let mut hints: HashMap<Edge, EdgeHints> = HashMap::new();
        let mut inserted: Vec<Edge> = Vec::new();
        let mut peak = 0;
        for &op in &ops {
            let edge = match op {
                GrowthOp::Insert { edge, value, hinted } => {
                    let prev = if hinted {
                        let (prev, h) = compact.insert_with_hints(edge, value);
                        hints.insert(edge, h);
                        prev
                    } else {
                        compact.insert(edge, value)
                    };
                    prop_assert_eq!(prev, oracle.insert(edge, value), "insert {}", edge);
                    inserted.push(edge);
                    edge
                }
                GrowthOp::Remove { pick, hinted } => {
                    let Some(&edge) = inserted.get(pick % inserted.len().max(1)) else {
                        continue;
                    };
                    let removed = if hinted {
                        let h = hints.get(&edge).copied().unwrap_or_default();
                        compact.remove_hinted(edge, h)
                    } else {
                        compact.remove(edge)
                    };
                    prop_assert_eq!(removed, oracle.remove(edge), "remove {}", edge);
                    edge
                }
                GrowthOp::Set(edge, value) => {
                    prop_assert_eq!(compact.set(edge, value), oracle.set(edge, value), "set {}", edge);
                    edge
                }
            };
            prop_assert_eq!(compact.num_nodes(), oracle.num_nodes());
            prop_assert_eq!(compact.get(edge), oracle.get(edge), "get {}", edge);
            peak = peak.max(oracle.num_nodes());
        }
        prop_assert!(peak > 1_024, "only {} live nodes: the filter never doubled three times", peak);

        prop_assert_eq!(compact.num_edges(), oracle.num_edges());
        prop_assert_eq!(compact.node_set(), oracle.node_set());
        let mut ce: Vec<(Edge, u32)> = compact.edges().collect();
        let mut oe: Vec<(Edge, u32)> = oracle.edges().collect();
        ce.sort_unstable();
        oe.sort_unstable();
        prop_assert_eq!(ce, oe, "edge sets diverged");
        // Only the nodes and edges the sequence touched: a sweep of the
        // whole universe, or of all its pairs, would dominate the run time.
        let mut touched: Vec<NodeId> = inserted.iter().flat_map(|e| [e.u(), e.v()]).collect();
        touched.sort_unstable();
        touched.dedup();
        for &node in &touched {
            prop_assert_eq!(compact.degree(node), oracle.degree(node), "degree({})", node);
            let mut cn: Vec<(NodeId, u32)> = compact.neighbors(node).collect();
            let mut on: Vec<(NodeId, u32)> = oracle.neighbors(node).collect();
            cn.sort_unstable();
            on.sort_unstable();
            prop_assert_eq!(cn, on, "neighbors({})", node);
        }
        for &edge in &inserted {
            prop_assert_eq!(compact.contains(edge), oracle.contains(edge), "contains {}", edge);
            prop_assert_eq!(
                compact.triad_counts(edge.u(), edge.v()),
                oracle.triad_counts(edge.u(), edge.v()),
                "triad_counts of {}", edge
            );
        }
    }
}

/// The neighbor-order rule on plain `Vec`s: a list keeps arrival order,
/// with `swap_remove` eviction, until it grows past [`SORT_AFTER`] entries
/// since it last held at most [`UNSORTED_MAX`]; from then on it is kept
/// sorted by neighbor id (ordered removal), until it shrinks back to
/// [`UNSORTED_MAX`] entries.
#[derive(Default)]
struct OrderModel {
    /// Per live node: its list and whether it is in sorted mode.
    lists: HashMap<NodeId, (Vec<(NodeId, u32)>, bool)>,
}

impl OrderModel {
    fn list(&self, node: NodeId) -> &[(NodeId, u32)] {
        self.lists.get(&node).map_or(&[], |(l, _)| l.as_slice())
    }

    fn insert(&mut self, e: Edge, value: u32) {
        let (u, v) = e.endpoints();
        if self.list(u).iter().any(|x| x.0 == v) {
            self.set(e, value);
            return;
        }
        self.attach(u, (v, value));
        self.attach(v, (u, value));
    }

    fn remove(&mut self, e: Edge) {
        let (u, v) = e.endpoints();
        if self.list(u).iter().any(|x| x.0 == v) {
            self.detach(u, v);
            self.detach(v, u);
        }
    }

    fn set(&mut self, e: Edge, value: u32) {
        let (u, v) = e.endpoints();
        for (node, nbr) in [(u, v), (v, u)] {
            if let Some((list, _)) = self.lists.get_mut(&node) {
                if let Some(x) = list.iter_mut().find(|x| x.0 == nbr) {
                    x.1 = value;
                }
            }
        }
    }

    fn attach(&mut self, node: NodeId, entry: (NodeId, u32)) {
        let (list, sorted) = self.lists.entry(node).or_default();
        if *sorted {
            let pos = list.partition_point(|x| x.0 < entry.0);
            list.insert(pos, entry);
        } else {
            list.push(entry);
            if list.len() > SORT_AFTER {
                list.sort_unstable_by_key(|x| x.0);
                *sorted = true;
            }
        }
    }

    fn detach(&mut self, node: NodeId, nbr: NodeId) {
        let (list, sorted) = self.lists.get_mut(&node).expect("live node");
        let pos = list.iter().position(|x| x.0 == nbr).expect("present");
        if *sorted {
            list.remove(pos);
        } else {
            list.swap_remove(pos);
        }
        if list.len() <= UNSORTED_MAX {
            *sorted = false;
        }
        if list.is_empty() {
            self.lists.remove(&node);
        }
    }
}

/// Asserts every node's stored list, in order, against the model.
fn assert_order(compact: &CompactAdjacency<u32>, model: &OrderModel, nodes: NodeId) {
    for node in 0..nodes {
        assert_eq!(
            compact.neighbor_slice(node),
            model.list(node),
            "order of node {node}"
        );
    }
}

/// Hub-heavy edits: four hubs against 64 nodes, first insert-heavy (hub
/// degrees climb past `LINEAR_PROBE_MAX`), then remove-heavy (they fall
/// back through 5, 4 and 2), with value updates throughout.
fn arb_hub_ops() -> impl Strategy<Value = Vec<Op>> {
    let phase =
        |max_len| prop::collection::vec((0u8..10, 0u32..4, 0u32..64, any::<u32>()), 0..max_len);
    (phase(320), phase(320)).prop_map(|(grow, shrink)| {
        let op = |inserts: u8| {
            move |(kind, hub, other, val): (u8, u32, u32, u32)| {
                let edge = Edge::try_new(hub, other)?;
                Some(match kind {
                    k if k < inserts => Op::Insert(edge, val),
                    9 => Op::Set(edge, val),
                    _ => Op::Remove(edge),
                })
            }
        };
        let grow = grow.into_iter().filter_map(op(8));
        grow.chain(shrink.into_iter().filter_map(op(2))).collect()
    })
}

/// Applies `op` to both the structure and the order model.
fn apply_ordered(compact: &mut CompactAdjacency<u32>, model: &mut OrderModel, op: Op) {
    match op {
        Op::Insert(e, v) => {
            compact.insert(e, v);
            model.insert(e, v);
        }
        Op::Remove(e) => {
            compact.remove(e);
            model.remove(e);
        }
        Op::Set(e, v) => {
            compact.set(e, v);
            model.set(e, v);
        }
    }
}

proptest! {
    #[test]
    fn neighbor_order_follows_the_order_model(ops in arb_hub_ops()) {
        let mut compact: CompactAdjacency<u32> = CompactAdjacency::new();
        let mut model = OrderModel::default();
        for &op in &ops {
            apply_ordered(&mut compact, &mut model, op);
            assert_order(&compact, &model, 64);
        }
    }
}

#[test]
fn neighbor_order_follows_the_order_model_through_every_threshold() {
    // One hub walked up past LINEAR_PROBE_MAX and back down to nothing,
    // twice, in a scrambled id order, with a value update at every size:
    // every inline/class-0/sorted transition is crossed in both directions.
    let mut compact: CompactAdjacency<u32> = CompactAdjacency::new();
    let mut model = OrderModel::default();
    let top = LINEAR_PROBE_MAX as u32 + 8;
    let scrambled = |i: u32| 1 + (i * 37) % top;
    for round in 0..2 {
        for i in 0..top {
            let e = Edge::new(0, scrambled(i));
            for op in [Op::Insert(e, i + round), Op::Set(e, i * 3)] {
                apply_ordered(&mut compact, &mut model, op);
                assert_order(&compact, &model, top + 1);
            }
        }
        assert_eq!(compact.degree(0), top as usize);
        for i in 0..top {
            let e = Edge::new(0, scrambled((i * 11) % top));
            apply_ordered(&mut compact, &mut model, Op::Remove(e));
            assert_order(&compact, &model, top + 1);
        }
        assert_eq!(compact.degree(0), 0);
    }
}
