//! Fast hashing for small integer keys.
//!
//! The workspace hashes `u32` node ids and packed `u64` edge keys on every
//! streamed edge, so hash throughput is on the critical path of the sampler's
//! "few microseconds per edge" budget. std's default SipHash 1-3 is designed
//! for HashDoS resistance, which an in-process analytics reservoir does not
//! need. This module implements the well-known Fx multiply-rotate hash (the
//! algorithm used by `rustc`) locally, avoiding an extra dependency.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher: for each machine word `w`,
/// `hash = (hash.rotate_left(5) ^ w).wrapping_mul(SEED)`.
///
/// Not cryptographic and not DoS-resistant — do not expose to untrusted keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
            // Distinguish `[1, 0]` from `[1]`.
            self.add_to_hash(rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(value: T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
        assert_eq!(hash_one("hello"), hash_one("hello"));
    }

    #[test]
    fn distinguishes_nearby_integers() {
        // Weak sanity check that consecutive keys do not collide (a real
        // collision among 1000 consecutive u64s would break bucket spread).
        let hashes: std::collections::HashSet<u64> = (0u64..1000).map(hash_one).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn distinguishes_byte_slices_of_different_length() {
        assert_ne!(hash_one([1u8, 0u8].as_slice()), hash_one([1u8].as_slice()));
        assert_ne!(hash_one([0u8; 7].as_slice()), hash_one([0u8; 8].as_slice()));
    }

    #[test]
    fn tuple_keys_hash() {
        // Edge keys are hashed both as packed u64 and as (u32, u32) tuples in
        // various call sites; both must work.
        assert_ne!(hash_one((1u32, 2u32)), hash_one((2u32, 1u32)));
    }
}
