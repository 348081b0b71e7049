//! A deterministic multiply hasher for row-keyed tables.
//!
//! The simulator's hot tables — the shadow oracle's ground truth and the
//! roster trackers' row tables — are keyed by rows the simulator itself
//! generates, so they need neither SipHash's per-process random keys nor
//! its cost. [`RowHasher`] folds each written word into its state with one
//! rotate, xor and multiply, and its [`finish`](Hasher::finish) folds the
//! high half of a 128-bit product into the low half: the bucket index
//! comes from the low bits, and without the fold a row stride of 2ⁿ
//! (every key a multiple of 2ⁿ) would leave the low n bits of the state
//! zero and pile every key into one bucket.
//!
//! Maps that hash addresses sent by clients (the forensics engine, the
//! service daemon) keep std's randomly keyed SipHash.
//!
//! # Example
//!
//! ```
//! use hydra_types::hash::FastMap;
//! use hydra_types::RowAddr;
//!
//! let mut counts: FastMap<RowAddr, u32> = FastMap::default();
//! *counts.entry(RowAddr::new(0, 0, 1, 7)).or_default() += 1;
//! assert_eq!(counts[&RowAddr::new(0, 0, 1, 7)], 1);
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Per-word multiplier: 2⁶⁴/φ, odd, so the multiply is a bijection.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Multiplier of the final fold.
const FOLD: u64 = 0xF135_7AEA_2E62_A9C5;

/// A deterministic, unkeyed multiply hasher (see the module docs). Equal
/// keys hash equally in every process.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowHasher {
    state: u64,
}

impl RowHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(MUL);
    }
}

impl Hasher for RowHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let product = u128::from(self.state ^ (self.state >> 32)) * u128::from(FOLD);
        (product as u64) ^ ((product >> 64) as u64)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
}

/// A `HashMap` over [`RowHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<RowHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RowAddr;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<K: Hash>(key: &K) -> u64 {
        BuildHasherDefault::<RowHasher>::default().hash_one(key)
    }

    #[test]
    fn independent_builders_hash_equal_keys_equally() {
        let a = BuildHasherDefault::<RowHasher>::default();
        let b = BuildHasherDefault::<RowHasher>::default();
        for row in [RowAddr::new(0, 0, 0, 0), RowAddr::new(1, 1, 15, 65_535)] {
            assert_eq!(a.hash_one(row), b.hash_one(row));
        }
        assert_eq!(a.hash_one(4096u32), b.hash_one(4096u32));
        assert_ne!(
            hash_of(&RowAddr::new(0, 0, 0, 1)),
            hash_of(&RowAddr::new(0, 0, 1, 0))
        );
    }

    /// Distinct values of `finish() & 1023` over `keys`.
    fn low_buckets<K: Hash>(keys: impl Iterator<Item = K>) -> usize {
        keys.map(|k| hash_of(&k) & 1023)
            .collect::<HashSet<_>>()
            .len()
    }

    /// 1024 keys thrown into 1024 buckets by a uniformly random function
    /// land in 1024 · (1 − 1/e) ≈ 647 distinct buckets (σ ≈ 8). Without
    /// the high-bit fold, keys at a stride of 2¹⁰ or more all land in
    /// bucket 0.
    const MIN_DISTINCT: usize = 600;

    #[test]
    fn strided_keys_spread_across_low_bits() {
        let words = low_buckets((0..1024u32).map(|i| i * 4096));
        assert!(
            words >= MIN_DISTINCT,
            "u32 stride 4096: {words} distinct of 1024"
        );
        // Shift 10 is the stride-1024 case.
        for shift in 0..22 {
            let rows = low_buckets((0..1024u32).map(|i| RowAddr::new(0, 0, 0, i << shift)));
            assert!(rows >= MIN_DISTINCT, "row stride 2^{shift}: {rows}");
            let banked = low_buckets(
                (0..1024u32).map(|i| RowAddr::new(0, 0, (i % 16) as u8, (i / 16) << shift)),
            );
            assert!(
                banked >= MIN_DISTINCT,
                "banked row stride 2^{shift}: {banked}"
            );
        }
    }
}
