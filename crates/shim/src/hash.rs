//! A fixed-state multiply hasher for tables keyed by values the program
//! makes itself (replaces `rustc-hash`).
//!
//! std's default `RandomState` builds SipHash-1-3 from a per-process
//! random seed, which keeps adversarial keys from colliding. Tables
//! whose keys no outside input chooses — a compiler pass's operation
//! keys, say — pay for that and get nothing. [`FixedState`] instead
//! folds each word into the state with one 64×64→128-bit multiply, its
//! halves xored, so every output bit depends on every input bit.
//! Every table starts from the same state, so a table's hashes repeat
//! from run to run; only its iteration order depends on them, and a
//! table that is never iterated behaves exactly as under std's hasher.

use std::hash::{BuildHasher, Hasher};

/// Builds a [`MulHasher`] from the same fixed state every time.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedState;

impl BuildHasher for FixedState {
    type Hasher = MulHasher;

    fn build_hasher(&self) -> MulHasher {
        MulHasher(SEED)
    }
}

/// The hasher [`FixedState`] builds.
#[derive(Debug, Clone, Copy)]
pub struct MulHasher(u64);

/// The starting state: any non-zero word (here π's first 64 fraction
/// bits), so a leading zero word does not leave the state at zero.
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// The multiplier: an odd constant with well-spread bits (`rustc-hash`'s).
const K: u64 = 0xf135_7aea_2e62_a9c5;

impl MulHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        let p = u128::from(self.0 ^ word) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for MulHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
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
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn hashes_repeat_and_separate_nearby_keys() {
        let hash = |v: &dyn Fn(&mut MulHasher)| {
            let mut h = FixedState.build_hasher();
            v(&mut h);
            h.finish()
        };
        assert_eq!(hash(&|h| h.write_u32(7)), hash(&|h| h.write_u32(7)));
        // Keys that differ only in high bits (float exponents) or in
        // one low bit, or by a trailing zero word, hash apart.
        let keys = [
            hash(&|h| h.write_u64(1.0f64.to_bits())),
            hash(&|h| h.write_u64(2.0f64.to_bits())),
            hash(&|h| h.write_u64(0)),
            hash(&|h| h.write_u64(1)),
            hash(&|h| {
                h.write_u64(1);
                h.write_u64(0);
            }),
            hash(&|h| h.write(&[1, 2, 3])),
            hash(&|h| h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9])),
        ];
        let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len(), "{keys:x?}");
    }

    #[test]
    fn a_map_with_fixed_state_finds_every_key() {
        let mut m: HashMap<(u8, u32), usize, FixedState> = HashMap::with_hasher(FixedState);
        for i in 0..10_000u32 {
            m.insert(((i % 7) as u8, i), i as usize);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u32).all(|i| m[&((i % 7) as u8, i)] == i as usize));
    }
}
