//! A fixed hasher for keys the program mints itself.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An unkeyed multiply-xor hasher: each word is xored into the state,
/// which is then rotated and multiplied by an odd constant. It costs a
/// multiply per word where the standard library's SipHash runs rounds,
/// and it hashes the same key to the same bucket in every run.
///
/// It has no defence against chosen keys, so it is only for keys the
/// program mints itself — sequence numbers, dense ids — and never for
/// names a client chose, which an ordered map or `RandomState` keeps.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, value: u8) {
        self.add(value.into());
    }

    fn write_u16(&mut self, value: u16) {
        self.add(value.into());
    }

    fn write_u32(&mut self, value: u32) {
        self.add(value.into());
    }

    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map under [`IdHasher`]: for keys the program mints, see there.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    #[test]
    fn the_same_key_hashes_the_same_in_every_map() {
        let build = BuildHasherDefault::<IdHasher>::default();
        assert_eq!(build.hash_one(42u64), build.hash_one(42u64));
        assert_ne!(build.hash_one(42u64), build.hash_one(43u64));
        assert_ne!(build.hash_one((1u32, 2u32)), build.hash_one((2u32, 1u32)));
    }

    #[test]
    fn sequential_ids_spread_over_the_low_bits() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let buckets: std::collections::BTreeSet<u64> =
            (0..64u64).map(|id| build.hash_one(id) & 63).collect();
        assert_eq!(buckets.len(), 64, "an odd multiplier permutes the low bits");
    }

    #[test]
    fn a_map_keyed_by_minted_ids_behaves_as_a_map() {
        let mut map: IdMap<u64, u64> = IdMap::default();
        for id in 0..1000 {
            map.insert(id, id * 2);
        }
        for id in (0..1000).step_by(2) {
            map.remove(&id);
        }
        assert_eq!(map.len(), 500);
        assert!((1..1000).step_by(2).all(|id| map[&id] == id * 2));
    }
}
