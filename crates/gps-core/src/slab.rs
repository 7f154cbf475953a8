//! Slot storage for sampled edges.
//!
//! The reservoir stores per-edge state (weight, the in-stream covariance
//! accumulators `C̃_k(△)`, `C̃_k(Λ)` of paper Algorithm 3, and the edge's
//! endpoint-slot hints) in a slab: a dense `Vec` of 32-byte records, one
//! per sampled edge. Slots fill in arrival order up to the capacity `m`;
//! from then on an admitted edge overwrites the slot of the edge it evicts,
//! so there is no free list, slot ids stay dense `u32`s, and per-arrival
//! work allocates nothing.
//!
//! A record holds nothing the sampler keeps elsewhere. The edge's node ids
//! are read from the two adjacency slots its hints name
//! (`CompactAdjacency::hinted_edge`), and its priority `r(k) = w(k)/u(k)`
//! is the key of its heap entry (`MinHeap::iter` gives it by slot).

use gps_graph::EdgeHints;

/// Index of an edge's slot in the slab (also carried in the heap and the
/// adjacency map).
pub type SlotId = u32;

/// Per-edge reservoir record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeRecord {
    /// Sampling weight `w(k) = W(k, K̂)` computed at arrival.
    pub weight: f64,
    /// In-stream triangle covariance accumulator `C̃_k(△)` (Alg 3).
    pub cov_tri: f64,
    /// In-stream wedge covariance accumulator `C̃_k(Λ)` (Alg 3).
    pub cov_wedge: f64,
    /// The endpoints' adjacency slots, captured at insertion: the
    /// sampler's only copy of the edge's node ids, and valid for as long as
    /// the edge is sampled. Handed back to `remove_hinted` at eviction for
    /// hash-free node lookups.
    pub hints: EdgeHints,
}

impl EdgeRecord {
    /// A fresh record with zeroed covariance accumulators (paper Alg 3
    /// line 34).
    pub fn new(weight: f64, hints: EdgeHints) -> Self {
        EdgeRecord {
            weight,
            cov_tri: 0.0,
            cov_wedge: 0.0,
            hints,
        }
    }
}

const _: () = assert!(std::mem::size_of::<EdgeRecord>() == 32);

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

    fn rec(w: f64) -> EdgeRecord {
        EdgeRecord::new(w, EdgeHints::NONE)
    }

    #[test]
    fn push_get_overwrite_round_trip() {
        let mut s = Slab::new();
        let id = s.push(rec(3.0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(id).weight, 3.0);
        // An admitted edge takes over its evictee's slot in place.
        let old = std::mem::replace(s.get_mut(id), rec(1.0));
        assert_eq!(old.weight, 3.0);
        assert_eq!(s.get(id).weight, 1.0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn records_are_dense_in_slot_order() {
        let mut s = Slab::with_capacity(3);
        assert!(s.is_empty());
        for (i, w) in [1.0, 2.0, 3.0].into_iter().enumerate() {
            assert_eq!(s.push(rec(w)), i as SlotId);
        }
        let weights: Vec<f64> = s.records().iter().map(|r| r.weight).collect();
        assert_eq!(weights, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn mutation_via_get_mut_persists() {
        let mut s = Slab::new();
        let id = s.push(rec(2.0));
        s.get_mut(id).cov_tri += 1.5;
        s.get_mut(id).cov_wedge += 0.5;
        assert_eq!(s.get(id).cov_tri, 1.5);
        assert_eq!(s.get(id).cov_wedge, 0.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_len_panics() {
        let mut s = Slab::new();
        s.push(rec(1.0));
        let _ = s.get(1);
    }
}
