//! A fast, deterministic hasher for the stack's internal maps.
//!
//! std's default `RandomState` runs SipHash-1-3 with a per-process random
//! key: DoS-resistant, but several times slower than needed for keys the
//! simulator generates itself (request ids, ranks, `(offset, len)` pairs),
//! and it makes map iteration order differ from one process to the next.
//! [`FxHasher`] is the rustc-hash multiply-rotate word mix: one rotate,
//! xor and multiply per word, no key, so every process iterates a map in
//! the same order.
//!
//! hashbrown picks buckets from the *low* hash bits, which a bare multiply
//! leaves poorly mixed (a page-aligned key multiplies into a hash whose low
//! bits are all zero). [`FxHasher::finish`] therefore rotates the
//! well-mixed high bits down, as rustc-hash 2 does.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FxHasher`]; build it with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` keyed through [`FxHasher`]; build it with `default()`.
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The rustc-hash word mix with a bit-folding `finish`.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
        // The length keeps zero-padded tails (`[1]` vs `[1, 0]`) apart.
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_bytes(b: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(b);
        h.finish()
    }

    #[test]
    fn byte_slices_of_every_short_length_hash_distinctly() {
        let build = BuildHasherDefault::<FxHasher>::default();
        for fill in [0u8, 1, 0xff] {
            let buf = [fill; 17];
            let mut raw: Vec<u64> = (0..=17).map(|n| hash_bytes(&buf[..n])).collect();
            let mut keyed: Vec<u64> = (0..=17).map(|n| build.hash_one(&buf[..n])).collect();
            for v in [&mut raw, &mut keyed] {
                v.sort_unstable();
                v.dedup();
            }
            assert_eq!(raw.len(), 18, "fill {fill:#x}: raw write");
            assert_eq!(keyed.len(), 18, "fill {fill:#x}: Hash impl");
        }
        let seq: Vec<u8> = (1..=17).collect();
        let mut raw: Vec<u64> = (0..=17).map(|n| hash_bytes(&seq[..n])).collect();
        raw.sort_unstable();
        raw.dedup();
        assert_eq!(raw.len(), 18);
    }

    #[test]
    fn page_aligned_keys_spread_over_low_bits() {
        // Registration-cache keys: `(offset, len)` of 32 KiB buffers.
        let build = BuildHasherDefault::<FxHasher>::default();
        let mut buckets: Vec<u64> = (0..128usize)
            .map(|i| build.hash_one((i * 32 * 1024, 32 * 1024usize)) & 0xff)
            .collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(
            buckets.len() >= 64,
            "only {} low-8-bit buckets",
            buckets.len()
        );
    }

    #[test]
    fn maps_iterate_in_the_same_order_every_time() {
        let build = |n: u64| -> Vec<u64> {
            let m: FxHashMap<u64, ()> = (0..n).map(|k| (k * 4096, ())).collect();
            m.into_keys().collect()
        };
        assert_eq!(build(200), build(200));
    }
}
