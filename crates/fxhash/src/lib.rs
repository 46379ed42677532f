//! # fxhash — the workspace's shared fast hasher
//!
//! A hand-rolled, zero-dependency reimplementation of the FxHash
//! algorithm (the multiplicative word hasher used by rustc): each input
//! word is folded into the state with a rotate, an xor, and a multiply
//! by a single odd constant. Not DoS-resistant — every map in this
//! workspace is keyed by our own interned indices and arena ids, so
//! speed and determinism are what matter, not adversarial resistance.
//!
//! The hot maps of `pta` (context interning, pointer keys), `automata`
//! (subset-construction tables, minimization signatures), and `mahjong`
//! (type groups, state-set interning) all use [`FxHashMap`] /
//! [`FxHashSet`] instead of the standard SipHash tables; on the
//! interning-heavy pre-analysis pipeline the difference is measurable
//! because keys are tiny (one or two words) and the tables are hit
//! millions of times.
//!
//! Also provided: [`hash64`] / [`Fingerprint128`], a two-lane variant
//! used where a *stable value* (not a bucket index) is needed — e.g.
//! the canonical DFA signatures of the `automata` crate. The 128-bit
//! fingerprint runs two independently-seeded lanes with cross-mixing,
//! so a collision requires defeating both lanes at once.
//!
//! # Examples
//!
//! ```
//! use fxhash::FxHashMap;
//!
//! let mut m: FxHashMap<u32, &str> = FxHashMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;
/// The [`BuildHasher`](std::hash::BuildHasher) for [`FxHasher`] —
/// handy for `with_capacity_and_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The FxHash multiplier: a 64-bit odd constant with well-mixed bits
/// (derived from the golden ratio, as in rustc's implementation).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast non-cryptographic hasher for small integer-like keys.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.mix(v as u64);
        self.mix((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// Hashes any `Hash` value to a `u64` with [`FxHasher`] — a convenience
/// for signature-style uses where only the value (not a table lookup)
/// is needed.
pub fn hash64<T: Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// A streaming 128-bit fingerprint: two 64-bit lanes seeded
/// differently, each fed every input word, cross-mixed on finish.
///
/// Used where hash equality is treated as value equality (e.g. the
/// canonical DFA signatures in `automata`): a false merge needs a
/// simultaneous collision in both lanes, and callers keep an exact
/// equivalence check behind a debug assertion as the safety net.
#[derive(Debug, Clone)]
pub struct Fingerprint128 {
    a: u64,
    b: u64,
}

/// Second-lane multiplier: another odd constant, independent of [`K`]
/// (from the fractional bits of sqrt 2), so the lanes decorrelate.
const K2: u64 = 0x6a_09_e6_67_f3_bc_c9_09;

impl Default for Fingerprint128 {
    fn default() -> Self {
        Fingerprint128 {
            a: 0x9e_37_79_b9_7f_4a_7c_15,
            b: 0x3c_6e_f3_72_fe_94_f8_2a,
        }
    }
}

impl Fingerprint128 {
    /// Creates a fingerprint with the default lane seeds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one word into both lanes.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.a = (self.a.rotate_left(5) ^ word).wrapping_mul(K);
        self.b = (self.b.rotate_left(23) ^ word).wrapping_mul(K2);
    }

    /// Folds one 32-bit word into both lanes.
    #[inline]
    pub fn write_u32(&mut self, word: u32) {
        self.write_u64(word as u64);
    }

    /// Finalizes with avalanche mixing and cross-lane diffusion.
    pub fn finish(&self) -> u128 {
        let x = finalize(self.a ^ self.b.rotate_left(32));
        let y = finalize(self.b.wrapping_add(self.a.rotate_left(17)));
        ((x as u128) << 64) | y as u128
    }
}

/// A murmur3-style 64-bit finalizer (xor-shift / multiply avalanche).
#[inline]
fn finalize(mut v: u64) -> u64 {
    v ^= v >> 33;
    v = v.wrapping_mul(0xff_51_af_d7_ed_55_8c_cd);
    v ^= v >> 33;
    v = v.wrapping_mul(0xc4_ce_b9_fe_1a_85_ec_53);
    v ^ (v >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_distinct_buckets_mostly() {
        let mut set = FxHashSet::default();
        for i in 0u32..10_000 {
            set.insert(i);
        }
        assert_eq!(set.len(), 10_000);
        assert!(set.contains(&42));
        assert!(!set.contains(&10_000));
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(123);
        b.write_u64(123);
        assert_eq!(a.finish(), b.finish());
        assert_eq!(hash64(&(1u32, 2u32)), hash64(&(1u32, 2u32)));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        m.insert((1, 2), 3);
        assert_eq!(m.get(&(1, 2)), Some(&3));
        assert_eq!(m.get(&(2, 1)), None);
    }

    #[test]
    fn byte_writes_match_word_writes_in_determinism() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_deterministic() {
        let mut f1 = Fingerprint128::new();
        f1.write_u64(1);
        f1.write_u64(2);
        let mut f2 = Fingerprint128::new();
        f2.write_u64(2);
        f2.write_u64(1);
        assert_ne!(f1.finish(), f2.finish());

        let mut f3 = Fingerprint128::new();
        f3.write_u64(1);
        f3.write_u64(2);
        assert_eq!(f1.finish(), f3.finish());
    }

    #[test]
    fn fingerprint_lanes_decorrelate() {
        // No collisions among small structured inputs: 1000 two-word
        // streams differing in one bit each.
        let mut seen = FxHashSet::default();
        for i in 0u64..1000 {
            let mut f = Fingerprint128::new();
            f.write_u64(i);
            f.write_u64(i.rotate_left(13));
            assert!(seen.insert(f.finish()), "collision at {i}");
        }
        // Zero-word and one-zero-word streams are distinct.
        let empty = Fingerprint128::new().finish();
        let mut zero = Fingerprint128::new();
        zero.write_u64(0);
        assert_ne!(empty, zero.finish());
    }
}
