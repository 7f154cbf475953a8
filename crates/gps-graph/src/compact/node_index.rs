//! The node-interning index of [`super::CompactAdjacency`]: external
//! [`NodeId`] → dense slot index.
//!
//! An open-addressed, linearly probed table of 8-byte buckets, each
//! packing `(id, slot + 1)` into one `u64` so that an all-zero word is an
//! empty bucket and a fresh table is a zeroed allocation. The home bucket
//! is the top bits of a Fibonacci (multiplicative) hash of the id; the
//! presence filter indexes the same product from bit 32 upward, so the two
//! tables read it from opposite ends. Removal is by backward shift, so the
//! table never holds a tombstone and a lookup stops at the first empty
//! bucket. The table starts at [`MIN_BUCKETS`], doubles once an insert
//! would push the load past 4/5, and never shrinks: its size follows the
//! live-node peak rather than a worst case fixed at construction.

use crate::types::NodeId;

/// Smallest table (buckets); always a power of two.
const MIN_BUCKETS: usize = 16;

/// Fibonacci multiplier (2^64 / φ) for the home-bucket hash.
const FIB_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Open-addressed `NodeId → u32` map with backward-shift deletion.
#[derive(Clone, Debug)]
pub(super) struct NodeIndex {
    /// `id | (slot + 1) << 32` per occupied bucket, `0` when empty.
    buckets: Vec<u64>,
    /// `64 - log2(buckets.len())`: the home bucket is the hash's top bits.
    shift: u32,
    /// Occupied buckets.
    len: usize,
}

impl NodeIndex {
    /// An empty index of [`MIN_BUCKETS`] buckets.
    pub(super) fn new() -> Self {
        Self::with_buckets(MIN_BUCKETS)
    }

    fn with_buckets(buckets: usize) -> Self {
        debug_assert!(buckets.is_power_of_two() && buckets >= MIN_BUCKETS);
        NodeIndex {
            buckets: vec![0; buckets],
            shift: 64 - buckets.trailing_zeros(),
            len: 0,
        }
    }

    /// Number of ids held.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Number of buckets allocated (a power of two).
    #[cfg(test)]
    pub(super) fn buckets(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    #[inline]
    fn home(&self, id: NodeId) -> usize {
        ((id as u64).wrapping_mul(FIB_MUL) >> self.shift) as usize
    }

    /// Bucket holding `id`, if present.
    #[inline]
    fn find(&self, id: NodeId) -> Option<usize> {
        let mask = self.mask();
        let mut i = self.home(id);
        loop {
            let bucket = self.buckets[i];
            if bucket == 0 {
                return None;
            }
            if bucket as NodeId == id {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Slot of `id`, if present.
    #[inline]
    pub(super) fn get(&self, id: NodeId) -> Option<u32> {
        self.find(id).map(|i| slot_of(self.buckets[i]))
    }

    /// Maps `id`, which must be absent, to `slot`.
    pub(super) fn insert(&mut self, id: NodeId, slot: u32) {
        debug_assert!(self.find(id).is_none(), "node {id} is already indexed");
        if (self.len + 1) * 5 > self.buckets.len() * 4 {
            self.grow();
        }
        let i = self.vacant(self.home(id));
        self.buckets[i] = pack(id, slot);
        self.len += 1;
    }

    /// First empty bucket at or after `i`, wrapping.
    #[inline]
    fn vacant(&self, mut i: usize) -> usize {
        let mask = self.mask();
        while self.buckets[i] != 0 {
            i = (i + 1) & mask;
        }
        i
    }

    /// Removes `id`, returning its slot if it was present. Later members of
    /// the probe cluster that may sit in the freed bucket are shifted back
    /// into it, so every remaining id stays reachable from its home bucket
    /// without a tombstone.
    pub(super) fn remove(&mut self, id: NodeId) -> Option<u32> {
        let mut hole = self.find(id)?;
        let slot = slot_of(self.buckets[hole]);
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let bucket = self.buckets[i];
            if bucket == 0 {
                break;
            }
            // The entry at `i` may move back to `hole` unless its home lies
            // cyclically inside `(hole, i]`, where the hole is not on its
            // probe path.
            let home = self.home(bucket as NodeId);
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.buckets[hole] = bucket;
                hole = i;
            }
        }
        self.buckets[hole] = 0;
        self.len -= 1;
        Some(slot)
    }

    /// Empties the index, keeping its buckets.
    pub(super) fn clear(&mut self) {
        self.buckets.fill(0);
        self.len = 0;
    }

    /// Doubles the table and re-homes every id.
    #[cold]
    fn grow(&mut self) {
        let old = std::mem::replace(self, Self::with_buckets(self.buckets.len() * 2));
        for bucket in old.buckets.into_iter().filter(|&b| b != 0) {
            let i = self.vacant(self.home(bucket as NodeId));
            self.buckets[i] = bucket;
        }
        self.len = old.len;
    }
}

/// The bucket word for `id` at `slot`; nonzero for any slot below
/// `u32::MAX`, which the slot table cannot reach.
#[inline]
fn pack(id: NodeId, slot: u32) -> u64 {
    id as u64 | (slot as u64 + 1) << 32
}

#[inline]
fn slot_of(bucket: u64) -> u32 {
    ((bucket >> 32) - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::{Entry, HashMap};

    /// The first `count` ids (from `start`) whose top 10 hash bits equal
    /// `top`: they share a home bucket at every table size up to 1,024
    /// buckets. `top = 1023` homes them in the last bucket, so their cluster
    /// wraps past the end of the table.
    fn colliding(top: u64, start: NodeId, count: usize) -> Vec<NodeId> {
        (start..)
            .filter(|&id| (id as u64).wrapping_mul(FIB_MUL) >> 54 == top)
            .take(count)
            .collect()
    }

    /// Ids the differential test draws from: three same-home families (the
    /// last bucket, the first, and one in between) plus unrelated ids.
    fn id_pool() -> Vec<NodeId> {
        let mut pool = colliding(1023, 0, 12);
        assert_eq!(NodeIndex::new().home(pool[0]), MIN_BUCKETS - 1);
        pool.extend(colliding(0, 0, 8));
        pool.extend(colliding(511, 0, 8));
        pool.extend([7, 42, 1_000, 65_537, 3_000_000_000, u32::MAX]);
        pool.extend((0..30).map(|i| i * 7_919 + 13));
        pool
    }

    fn check(index: &NodeIndex, model: &HashMap<NodeId, u32>, pool: &[NodeId]) {
        assert_eq!(index.len(), model.len());
        for &id in pool {
            assert_eq!(index.get(id), model.get(&id).copied(), "get({id})");
        }
        assert!(index.len() * 5 <= index.buckets() * 4, "load past 4/5");
    }

    proptest! {
        #[test]
        fn matches_a_hash_map_model(
            ops in prop::collection::vec((0u8..3, 0usize..1_000, 0u32..1_000_000), 0..400),
        ) {
            let pool = id_pool();
            let mut index = NodeIndex::new();
            let mut model: HashMap<NodeId, u32> = HashMap::new();
            for &(kind, pick, slot) in &ops {
                let id = pool[pick % pool.len()];
                // Two inserts per removal, so the table grows past its
                // minimum size and still churns. Inserting a held id is a
                // caller bug the index does not handle, so it is skipped.
                if kind >= 2 {
                    prop_assert_eq!(index.remove(id), model.remove(&id));
                } else if let Entry::Vacant(vacant) = model.entry(id) {
                    index.insert(id, slot);
                    vacant.insert(slot);
                }
                check(&index, &model, &pool);
            }
        }
    }

    #[test]
    fn grows_by_doubling_past_four_fifths_and_never_shrinks() {
        let mut index = NodeIndex::new();
        for id in 0..12 {
            index.insert(id, id);
        }
        assert_eq!(index.buckets(), MIN_BUCKETS, "12 of 16 is under 4/5");
        index.insert(12, 12);
        assert_eq!(index.buckets(), 2 * MIN_BUCKETS, "13 of 16 is past 4/5");
        for id in 0..13 {
            assert_eq!(index.remove(id), Some(id));
        }
        assert_eq!(index.buckets(), 2 * MIN_BUCKETS);
        index.insert(5, 1);
        index.clear();
        assert_eq!((index.len(), index.get(5)), (0, None));
    }
}
