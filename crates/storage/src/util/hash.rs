//! An FxHash-style integer hasher with a full-avalanche finalizer.
//!
//! Join hash tables are keyed by 8-byte PBiTree codes; the standard
//! library's SipHash would dominate the CPU profile of in-memory probes
//! (see the Rust Performance Book's hashing chapter), and HashDoS is not a
//! concern for a local query engine's intermediate state. So words are
//! absorbed with the classic Firefox/rustc multiply-rotate step.
//!
//! That step alone is not enough for codes. A node at height `h` has code
//! `(2α+1)·2^h`: its low `h` bits are zero, and a multiply only carries
//! bits *upward*, so the product keeps those `h` trailing zeros. The
//! standard library's SwissTable picks the bucket from the hash's low bits
//! (and Grace partitioning takes `hash % parts`), so every key of a
//! single-height set — exactly what SHCJ builds on — would share one
//! bucket and one probe chain. [`FxHasher::finish`] therefore runs
//! MurmurHash3's `fmix64` over the state: two xor-shift/multiply rounds
//! after which every output bit depends on every input bit, low bits and
//! the table's 7-bit top tag included. A rotate alone (rustc-hash 2's fix)
//! still collapses high codes, whose only set bits sit near the top.
//!
//! Tables keyed this way are created with capacity `n` for `n` expected
//! entries, not `2n`: the table applies its own 7/8 load factor when it
//! sizes the bucket array, so doubling only halves cache density.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher for integer-ish keys, finished with `fmix64`.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// MurmurHash3's `fmix64`: spreads the trailing zeros of a code's
    /// product over every bit of the result.
    #[inline]
    fn finish(&self) -> u64 {
        let mut x = self.hash;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }

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
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// FNV-1a over the concatenation of `parts`, folded to 32 bits: the one
/// checksum of packed heap pages, WAL frames and the logged B+-tree's meta
/// record. Not cryptographic — it turns torn writes and stray bit flips
/// into detected corruption instead of plausible-looking bytes. FNV-1a
/// streams, so splitting the input into parts never changes the sum.
pub fn fnv1a32(parts: &[&[u8]]) -> u32 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    (h ^ (h >> 32)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        let h = |v: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(v);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn spreads_sequential_keys() {
        // Consecutive codes should land in distinct buckets of a
        // power-of-two table.
        let mut buckets = HashSet::new();
        for v in 0u64..4096 {
            let mut hasher = FxHasher::default();
            hasher.write_u64(v);
            buckets.insert(hasher.finish() % 8192);
        }
        assert!(
            buckets.len() > 3000,
            "only {} distinct buckets",
            buckets.len()
        );
    }

    #[test]
    fn codes_spread_at_every_height() {
        // A height-h code is (2i+1) << h: h trailing zeros that a bare
        // multiply keeps. Bucket index (low bits), SwissTable tag (top 7
        // bits) and Grace's `% parts` must all see every key.
        let h = |v: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(v);
            hasher.finish()
        };
        for height in 0..=61u32 {
            let n = (1u64 << (62 - height)).min(16_384);
            let hashes: Vec<u64> = (0..n).map(|i| h((2 * i + 1) << height)).collect();
            let mask = (2 * n).next_power_of_two() - 1;
            let buckets: HashSet<u64> = hashes.iter().map(|x| x & mask).collect();
            assert!(
                buckets.len() as u64 >= n / 2,
                "height {height}: {n} codes in {} of {} buckets",
                buckets.len(),
                mask + 1
            );
            // Half the keys (or of the 128 tags), as for buckets: n random
            // draws from 128 values are rarely all distinct.
            let tags: HashSet<u64> = hashes.iter().map(|x| x >> 57).collect();
            assert!(
                tags.len() as u64 >= (n / 2).min(64),
                "height {height}: {n} codes share {} tags",
                tags.len()
            );
            for p in (2..=64u64).filter(|p| n >= 8 * p) {
                let used = hashes.iter().fold(0u64, |m, x| m | 1 << (x % p));
                assert_eq!(
                    used.count_ones() as u64,
                    p,
                    "height {height}: {n} codes use {} of {p} partitions",
                    used.count_ones()
                );
            }
        }
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&500), Some(&1000));
    }

    #[test]
    fn byte_stream_matches_any_alignment() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
    }
}
