//! 4-ary min-heap over edge priorities.
//!
//! The paper stores the reservoir in a min-heap keyed by priority
//! `r(k) = w(k)/u(k)` so the lowest-priority edge — the eviction candidate —
//! is found in O(1) and insert/delete cost O(log m) (§3.2, "Implementation
//! and data structure"). This heap stores `(priority, slot)` pairs where
//! `slot` indexes the sampler's slab; it is generic enough to be reused and
//! benchmarked on its own.
//!
//! The heap is 4-ary rather than binary: `replace_min` — one sift-down per
//! eviction — is on the sampler's hot path, and a fan-out of 4 halves the
//! sift depth. Each entry is packed into 12 bytes, the priority's bits as
//! two `u32` halves and then the slot, with 4-byte alignment so nothing
//! pads it to the 16 bytes a `(f64, u32)` struct takes. A level's four
//! children are 48 contiguous bytes: one 64-byte cache line or two,
//! depending on where the allocator placed the buffer (it guarantees only
//! 16-byte alignment). Priorities and slots in two separate arrays are
//! also 12 bytes per entry, but cost a second allocation per sampler.

/// One heap entry: a priority and the slab slot of the edge carrying it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeapEntry {
    /// Priority `r = w/u`; the heap orders ascending by this.
    pub priority: f64,
    /// Slab slot of the edge.
    pub slot: u32,
}

/// Array-backed 4-ary min-heap (the paper uses "a binary heap implemented
/// by storing the edges in a standard array"; the wider fan-out is a pure
/// constant-factor improvement with identical observable behavior).
///
/// Priorities are `f64` and must not be NaN (enforced by `debug_assert`);
/// ties are broken arbitrarily, which is harmless because priorities are
/// almost surely distinct (continuous `u`).
#[derive(Clone, Debug, Default)]
pub struct MinHeap {
    entries: Vec<Packed>,
}

/// Heap fan-out. Children of `i` live at `ARITY*i + 1 ..= ARITY*i + ARITY`.
const ARITY: usize = 4;

/// A stored entry: the low and high halves of the priority's bits, then
/// the slot.
type Packed = [u32; 3];

const _: () = assert!(std::mem::size_of::<Packed>() == 12);

impl HeapEntry {
    #[inline]
    fn pack(self) -> Packed {
        let bits = self.priority.to_bits();
        [bits as u32, (bits >> 32) as u32, self.slot]
    }

    #[inline]
    fn unpack(packed: Packed) -> HeapEntry {
        HeapEntry {
            priority: priority(&packed),
            slot: packed[2],
        }
    }
}

/// The priority of a stored entry.
#[inline]
fn priority(packed: &Packed) -> f64 {
    f64::from_bits(packed[0] as u64 | (packed[1] as u64) << 32)
}

impl MinHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty heap with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        MinHeap {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The minimum-priority entry, if any. O(1).
    #[inline]
    pub fn peek(&self) -> Option<HeapEntry> {
        self.entries.first().copied().map(HeapEntry::unpack)
    }

    /// Inserts an entry. O(log n).
    pub fn push(&mut self, entry: HeapEntry) {
        debug_assert!(!entry.priority.is_nan(), "NaN priority");
        self.entries.push(entry.pack());
        self.sift_up(self.entries.len() - 1);
    }

    /// Removes and returns the minimum-priority entry. O(log n).
    pub fn pop(&mut self) -> Option<HeapEntry> {
        let n = self.entries.len();
        if n == 0 {
            return None;
        }
        self.entries.swap(0, n - 1);
        let min = self.entries.pop().map(HeapEntry::unpack);
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
        min
    }

    /// Replaces the minimum entry with `entry` and returns the old minimum;
    /// equivalent to `pop` + `push` but with a single sift. This is the
    /// reservoir's hot path: the arriving edge displaces the lowest-priority
    /// edge (paper Alg 1, lines 11–14).
    pub fn replace_min(&mut self, entry: HeapEntry) -> Option<HeapEntry> {
        debug_assert!(!entry.priority.is_nan(), "NaN priority");
        if self.entries.is_empty() {
            self.push(entry);
            return None;
        }
        let old = HeapEntry::unpack(self.entries[0]);
        self.entries[0] = entry.pack();
        self.sift_down(0);
        Some(old)
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterates entries in arbitrary (array) order.
    pub fn iter(&self) -> impl Iterator<Item = HeapEntry> + '_ {
        self.entries.iter().copied().map(HeapEntry::unpack)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if priority(&self.entries[i]) < priority(&self.entries[parent]) {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let last = (first + ARITY).min(n);
            let mut smallest = i;
            for child in first..last {
                if priority(&self.entries[child]) < priority(&self.entries[smallest]) {
                    smallest = child;
                }
            }
            if smallest == i {
                break;
            }
            self.entries.swap(i, smallest);
            i = smallest;
        }
    }

    /// Verifies the heap invariant (test / debug helper).
    #[doc(hidden)]
    pub fn check_invariant(&self) -> bool {
        (1..self.entries.len()).all(|i| {
            let parent = (i - 1) / ARITY;
            priority(&self.entries[parent]) <= priority(&self.entries[i])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(priority: f64, slot: u32) -> HeapEntry {
        HeapEntry { priority, slot }
    }

    #[test]
    fn pops_in_ascending_priority_order() {
        let mut h = MinHeap::new();
        for (i, p) in [5.0, 1.0, 9.0, 3.0, 7.0, 2.0].iter().enumerate() {
            h.push(entry(*p, i as u32));
            assert!(h.check_invariant());
        }
        let mut out = vec![];
        while let Some(e) = h.pop() {
            out.push(e.priority);
            assert!(h.check_invariant());
        }
        assert_eq!(out, vec![1.0, 2.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut h = MinHeap::new();
        h.push(entry(4.0, 0));
        h.push(entry(2.0, 1));
        assert_eq!(h.peek().unwrap().priority, 2.0);
        assert_eq!(h.pop().unwrap().slot, 1);
        assert_eq!(h.peek().unwrap().slot, 0);
    }

    #[test]
    fn replace_min_returns_old_minimum() {
        let mut h = MinHeap::new();
        for p in [10.0, 20.0, 30.0] {
            h.push(entry(p, p as u32));
        }
        let old = h.replace_min(entry(25.0, 99)).unwrap();
        assert_eq!(old.priority, 10.0);
        assert_eq!(h.len(), 3);
        assert!(h.check_invariant());
        assert_eq!(h.peek().unwrap().priority, 20.0);
    }

    #[test]
    fn replace_min_on_empty_heap_inserts() {
        let mut h = MinHeap::new();
        assert_eq!(h.replace_min(entry(1.0, 7)), None);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn handles_equal_priorities() {
        let mut h = MinHeap::new();
        for i in 0..10 {
            h.push(entry(1.0, i));
        }
        let mut slots: Vec<u32> = std::iter::from_fn(|| h.pop().map(|e| e.slot)).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handles_infinite_priorities() {
        // Priorities are w/u with u ∈ (0,1]; u can be extremely small, so
        // the heap must tolerate very large (even infinite) values.
        let mut h = MinHeap::new();
        h.push(entry(f64::INFINITY, 0));
        h.push(entry(1.0, 1));
        assert_eq!(h.pop().unwrap().slot, 1);
        assert_eq!(h.pop().unwrap().slot, 0);
    }

    #[test]
    fn clear_empties() {
        let mut h = MinHeap::new();
        h.push(entry(1.0, 0));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
    }
}
