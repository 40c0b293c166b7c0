//! A deterministic Fx-style hasher for maps keyed by simulator-internal
//! ids (flit identities, `(source, sequence)` pairs).
//!
//! The diagnostic path — the verifier's flit ledger, trace lifetimes, the
//! receiver dedup sets — does one or more map operations per flit event,
//! and SipHash (the `std` default) costs several times a multiply-rotate
//! per word. These keys are produced by the simulator itself, never by
//! outside input, so the default's protection against crafted collisions
//! buys nothing here. Maps fed by specs or HTTP input keep `RandomState`.
//!
//! Every caller that iterates one of these maps sorts first, so the hasher
//! never shows in an output; it is also seedless, so iteration order is the
//! same in every process.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// One multiply and one rotate per word (the rustc "Fx" hash). `finish`
/// rotates the well-mixed high bits of the product down into the low bits
/// the table indexes by.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
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
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        assert_eq!(hash((7u64, 3u8)), hash((7u64, 3u8)));
        assert_ne!(hash((7u64, 3u8)), hash((7u64, 4u8)));
        assert_ne!(hash((7u64, 3u8)), hash((8u64, 3u8)));
        assert_ne!(hash([1u8; 9].as_slice()), hash([1u8; 8].as_slice()));
    }

    #[test]
    fn maps_work_and_iterate_identically_across_instances() {
        let keys = (0..1000u64).map(|p| (p, (p % 7) as u8));
        let a: FxHashSet<(u64, u8)> = keys.clone().collect();
        let b: FxHashSet<(u64, u8)> = keys.collect();
        assert_eq!(a.len(), 1000);
        assert!(a.iter().eq(b.iter()), "seedless: same order every time");
        let mut m: FxHashMap<(u16, u32), u32> = FxHashMap::default();
        *m.entry((1, 2)).or_insert(0) += 5;
        assert_eq!(m.get(&(1, 2)), Some(&5));
    }
}
