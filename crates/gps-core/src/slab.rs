//! Slot storage for sampled edges.
//!
//! The reservoir stores per-edge state (edge, weight, priority, and the
//! in-stream covariance accumulators `C̃_k(△)`, `C̃_k(Λ)` of paper
//! Algorithm 3) in a slab: a dense `Vec` of 48-byte records, one per
//! sampled edge. Slots fill in arrival order up to the capacity `m`; from
//! then on an admitted edge overwrites the slot of the edge it evicts, so
//! there is no free list, slot ids stay dense `u32`s, and per-arrival work
//! allocates nothing.

use gps_graph::types::Edge;
use gps_graph::EdgeHints;

/// Index of an edge's slot in the slab (also carried in the heap and the
/// adjacency map).
pub type SlotId = u32;

/// Per-edge reservoir record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeRecord {
    /// The sampled edge.
    pub edge: Edge,
    /// Sampling weight `w(k) = W(k, K̂)` computed at arrival.
    pub weight: f64,
    /// Priority `r(k) = w(k)/u(k)` computed at arrival.
    pub priority: f64,
    /// In-stream triangle covariance accumulator `C̃_k(△)` (Alg 3).
    pub cov_tri: f64,
    /// In-stream wedge covariance accumulator `C̃_k(Λ)` (Alg 3).
    pub cov_wedge: f64,
    /// Adjacency endpoint hints captured at insertion; hand back to
    /// `remove_hinted` at eviction for hash-free node lookups.
    pub hints: EdgeHints,
}

impl EdgeRecord {
    /// A fresh record with zeroed covariance accumulators (paper Alg 3
    /// line 34).
    pub fn new(edge: Edge, weight: f64, priority: f64) -> Self {
        EdgeRecord {
            edge,
            weight,
            priority,
            cov_tri: 0.0,
            cov_wedge: 0.0,
            hints: EdgeHints::NONE,
        }
    }
}

const _: () = assert!(std::mem::size_of::<EdgeRecord>() == 48);

/// Dense slab of [`EdgeRecord`]s: slot `s` is the `s`-th record.
#[derive(Default)]
pub struct Slab {
    records: Vec<EdgeRecord>,
}

impl Slab {
    /// Empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty slab with room for `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            records: Vec::with_capacity(capacity),
        }
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Stores a record in the next slot, returning that slot.
    pub fn push(&mut self, record: EdgeRecord) -> SlotId {
        self.records.push(record);
        (self.records.len() - 1) as SlotId
    }

    /// Shared access to the record in `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range (a logic error in the sampler).
    #[inline]
    pub fn get(&self, slot: SlotId) -> &EdgeRecord {
        &self.records[slot as usize]
    }

    /// Mutable access to the record in `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    #[inline]
    pub fn get_mut(&mut self, slot: SlotId) -> &mut EdgeRecord {
        &mut self.records[slot as usize]
    }

    /// Every record, in slot order.
    #[inline]
    pub fn records(&self) -> &[EdgeRecord] {
        &self.records
    }

    /// Every record, mutably, in slot order.
    #[inline]
    pub fn records_mut(&mut self) -> &mut [EdgeRecord] {
        &mut self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(a: u32, b: u32, w: f64) -> EdgeRecord {
        EdgeRecord::new(Edge::new(a, b), w, w / 0.5)
    }

    #[test]
    fn push_get_overwrite_round_trip() {
        let mut s = Slab::new();
        let id = s.push(rec(1, 2, 3.0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(id).edge, Edge::new(1, 2));
        assert_eq!(s.get(id).weight, 3.0);
        // An admitted edge takes over its evictee's slot in place.
        let old = std::mem::replace(s.get_mut(id), rec(4, 5, 1.0));
        assert_eq!(old.edge, Edge::new(1, 2));
        assert_eq!(s.get(id).edge, Edge::new(4, 5));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn records_are_dense_in_slot_order() {
        let mut s = Slab::with_capacity(3);
        assert!(s.is_empty());
        for (i, b) in [1, 2, 3].into_iter().enumerate() {
            assert_eq!(s.push(rec(0, b, 1.0)), i as SlotId);
        }
        let edges: Vec<Edge> = s.records().iter().map(|r| r.edge).collect();
        assert_eq!(
            edges,
            vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(0, 3)]
        );
    }

    #[test]
    fn mutation_via_get_mut_persists() {
        let mut s = Slab::new();
        let id = s.push(rec(4, 5, 2.0));
        s.get_mut(id).cov_tri += 1.5;
        s.get_mut(id).cov_wedge += 0.5;
        assert_eq!(s.get(id).cov_tri, 1.5);
        assert_eq!(s.get(id).cov_wedge, 0.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_len_panics() {
        let mut s = Slab::new();
        s.push(rec(1, 2, 1.0));
        let _ = s.get(1);
    }
}
