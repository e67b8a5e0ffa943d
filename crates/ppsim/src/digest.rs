//! Stable content digests (FNV-1a, 64-bit).
//!
//! The workspace needs one hash whose value is part of public contracts: the
//! fleet-determinism probe folds every retained sample's bit pattern into a
//! digest column that CI diffs byte-for-byte across thread counts, and the
//! `sweep` document's result id is the digest of its canonical job spec
//! (`analysis`'s `JobSpec::cache_key`). `std::hash` is explicitly *not* stable
//! across releases or processes (`RandomState`), so those contracts get a
//! hand-pinned [FNV-1a] instead: trivially portable, allocation-free, and
//! pinned here by known-vector tests so the constants can never drift
//! silently.
//!
//! Two folding granularities are provided and are **not** interchangeable:
//!
//! * [`fnv1a_64`] / [`Fnv64::write_bytes`] — the canonical byte-wise FNV-1a
//!   (xor one byte, multiply). Use this for strings and serialized specs;
//!   it matches the published test vectors.
//! * [`Fnv64::write_u64`] — a word-wise variant (xor the whole 64-bit word,
//!   multiply once). This is the historical fold of the determinism probe's
//!   sample digest, kept bit-compatible so the CI diff contract survives the
//!   promotion of the digest into `ppsim`.
//!
//! `Fnv64` also implements [`std::hash::Hasher`] (integers take the word
//! fold, byte slices the byte fold). [`WordHash`] builds on it to hash wide
//! protocol states in memory: the dynamic state indexer keys its tables with
//! it, and `ElectLeader_r`'s message stores cache their hash with it. Those
//! hashes follow `#[derive(Hash)]`'s unspecified input format and are never
//! persisted.
//!
//! Neither is a cryptographic hash: keys identify *specs the workspace
//! itself produced*, not adversarial input.
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/

use crate::rng::splitmix64_finalize;
use std::hash::{BuildHasher, Hasher};

/// The FNV-1a 64-bit offset basis.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
///
/// # Examples
///
/// ```
/// use ppsim::digest::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write_bytes(b"foo");
/// h.write_bytes(b"bar");
/// assert_eq!(h.finish(), ppsim::digest::fnv1a_64(b"foobar"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64 {
            state: FNV64_OFFSET,
        }
    }

    /// Folds `bytes` in byte-wise (canonical FNV-1a).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(FNV64_PRIME);
        }
    }

    /// Folds one 64-bit word in whole (xor the word, multiply once).
    ///
    /// This is the word-wise fold of the fleet-determinism sample digest —
    /// distinct from hashing the word's eight bytes individually.
    pub fn write_u64(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(FNV64_PRIME);
    }

    /// Folds a float's exact bit pattern as one word.
    pub fn write_f64_bits(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// `Fnv64` as a [`std::hash::Hasher`], for in-memory tables only: integer
/// writes take the word fold ([`Fnv64::write_u64`], one multiply per
/// integer), byte writes the canonical byte fold ([`Fnv64::write_bytes`]).
/// What `#[derive(Hash)]` feeds a hasher is not a stable format, so digests
/// computed through this trait must never be persisted or compared across
/// builds.
impl std::hash::Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        self.write_bytes(bytes);
    }

    fn write_u8(&mut self, i: u8) {
        Fnv64::write_u64(self, u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        Fnv64::write_u64(self, u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        Fnv64::write_u64(self, u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        Fnv64::write_u64(self, i);
    }

    fn write_u128(&mut self, i: u128) {
        Fnv64::write_u64(self, i as u64);
        Fnv64::write_u64(self, (i >> 64) as u64);
    }

    fn write_usize(&mut self, i: usize) {
        Fnv64::write_u64(self, i as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// The in-memory hashing of wide protocol states: [`Fnv64`]'s word fold (one
/// multiply per integer field, or per eight bytes of an integer slice) with
/// one SplitMix64 finalizer, so a table's bucket and tag bits depend on every
/// input bit. The dynamic state indexer keys its tables with it, and protocol
/// states may use it to cache the hash of a large payload (then feeding the
/// cached word to whatever hasher hashes the state). The hashes are never
/// persisted, and the keys are states the protocol itself produced, so the
/// collision resistance of std's keyed `RandomState` buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHash;

impl BuildHasher for WordHash {
    type Hasher = FinalizedFnv;

    fn build_hasher(&self) -> FinalizedFnv {
        FinalizedFnv(Fnv64::new())
    }
}

/// [`Fnv64`] whose `finish` applies the SplitMix64 finalizer: the hasher
/// [`WordHash`] builds.
#[derive(Debug, Clone)]
pub struct FinalizedFnv(Fnv64);

impl Hasher for FinalizedFnv {
    /// Integer slices (`Vec<u64>` fields such as `ElectLeader_r`'s
    /// observations) reach a hasher as their raw bytes, so fold them a word
    /// at a time like every other integer write, not [`Fnv64`]'s byte fold
    /// (eight multiplies per word); a short tail is one zero-padded word.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.0
                .write_u64(u64::from_le_bytes(word.try_into().unwrap_or_default()));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let last = tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            self.0.write_u64(last);
        }
    }

    fn write_u8(&mut self, i: u8) {
        Hasher::write_u8(&mut self.0, i);
    }

    fn write_u16(&mut self, i: u16) {
        Hasher::write_u16(&mut self.0, i);
    }

    fn write_u32(&mut self, i: u32) {
        Hasher::write_u32(&mut self.0, i);
    }

    fn write_u64(&mut self, i: u64) {
        Hasher::write_u64(&mut self.0, i);
    }

    fn write_u128(&mut self, i: u128) {
        Hasher::write_u128(&mut self.0, i);
    }

    fn write_usize(&mut self, i: usize) {
        Hasher::write_usize(&mut self.0, i);
    }

    fn finish(&self) -> u64 {
        splitmix64_finalize(Hasher::finish(&self.0))
    }
}

/// Byte-wise FNV-1a 64 of `bytes` in one call.
///
/// # Examples
///
/// ```
/// // The published FNV-1a test vector for "a".
/// assert_eq!(ppsim::digest::fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Renders a digest as the fixed-width lowercase hex form used for
/// content-addressed filenames (`cache/<hex16>.json`) and job identities.
///
/// # Examples
///
/// ```
/// assert_eq!(ppsim::digest::hex16(0xaf63_dc4c_8601_ec8c), "af63dc4c8601ec8c");
/// assert_eq!(ppsim::digest::hex16(0x1), "0000000000000001");
/// ```
pub fn hex16(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published FNV-1a 64 vectors — these pin the constants: if either
    /// `FNV64_OFFSET` or `FNV64_PRIME` drifts, every vector fails.
    #[test]
    fn known_vectors_pin_the_constants() {
        assert_eq!(fnv1a_64(b""), FNV64_OFFSET);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_64(b"hello"), 0xa430_d846_80aa_bd0b);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write_bytes(b"canonical ");
        h.write_bytes(b"job ");
        h.write_bytes(b"spec");
        assert_eq!(h.finish(), fnv1a_64(b"canonical job spec"));
    }

    #[test]
    fn digests_are_stable_across_calls() {
        // The same input must produce the same digest on every call — no
        // per-process randomization (the reason std::hash is unusable here).
        let a = fnv1a_64(b"cache key stability");
        let b = fnv1a_64(b"cache key stability");
        assert_eq!(a, b);
        let mut w1 = Fnv64::new();
        let mut w2 = Fnv64::new();
        for v in [1.5f64, -0.0, f64::INFINITY] {
            w1.write_f64_bits(v);
            w2.write_f64_bits(v);
        }
        assert_eq!(w1.finish(), w2.finish());
    }

    /// The word-wise fold matches the historical inline fold of
    /// `examples/fleet_determinism.rs` (`(h ^ v).wrapping_mul(prime)` from
    /// the offset basis), which CI has been diffing byte-for-byte.
    #[test]
    fn word_fold_matches_the_historical_probe_digest() {
        let samples = [3.25f64, 7.5, 0.125, -2.0];
        let expected = samples.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x100_0000_01B3)
        });
        let mut h = Fnv64::new();
        for v in samples {
            h.write_f64_bits(v);
        }
        assert_eq!(h.finish(), expected);
    }

    #[test]
    fn word_and_byte_folds_differ() {
        // Documented sharp edge: folding a word is not folding its bytes.
        let mut word = Fnv64::new();
        word.write_u64(0x0102_0304_0506_0708);
        assert_ne!(
            word.finish(),
            fnv1a_64(&0x0102_0304_0506_0708u64.to_le_bytes())
        );
    }

    /// Through `std::hash::Hasher`, bytes take the published byte fold and
    /// integers the word fold — the trait adds no third granularity.
    #[test]
    fn hasher_trait_reuses_the_byte_and_word_folds() {
        use std::hash::Hasher;

        let mut bytes = Fnv64::new();
        Hasher::write(&mut bytes, b"foobar");
        assert_eq!(Hasher::finish(&bytes), fnv1a_64(b"foobar"));
        assert_eq!(Hasher::finish(&bytes), 0x8594_4171_f739_67e8);

        let word = 0x0102_0304_0506_0708u64;
        let mut inherent = Fnv64::new();
        inherent.write_u64(word);
        inherent.write_u64(7);
        let mut via_trait = Fnv64::new();
        Hasher::write_u64(&mut via_trait, word);
        Hasher::write_u32(&mut via_trait, 7);
        assert_eq!(Hasher::finish(&via_trait), inherent.finish());

        let mut wide = Fnv64::new();
        Hasher::write_u128(&mut wide, u128::from(word) << 64 | 7);
        let mut halves = Fnv64::new();
        halves.write_u64(7);
        halves.write_u64(word);
        assert_eq!(wide, halves, "u128 folds low word then high word");
    }

    /// Integer slices are folded a word at a time, exactly like the same
    /// integers written one by one, and the finalizer runs last.
    #[test]
    fn word_hash_folds_integer_slices_by_word() {
        let mut words = Fnv64::new();
        for w in [3u64, 1, u64::MAX, 0x0102_0304_0506_0708] {
            words.write_u64(w);
        }
        let expected = splitmix64_finalize(words.finish());
        // `Vec<u64>` hashes its length prefix, then the slice as raw bytes.
        assert_eq!(
            WordHash.hash_one(vec![1u64, u64::MAX, 0x0102_0304_0506_0708]),
            expected
        );
        // A short tail is one zero-padded little-endian word.
        let mut tail = Fnv64::new();
        tail.write_u64(0x0003_0201);
        let mut hasher = WordHash.build_hasher();
        hasher.write(&[1, 2, 3]);
        assert_eq!(hasher.finish(), splitmix64_finalize(tail.finish()));
    }

    #[test]
    fn hex16_is_fixed_width_lowercase() {
        assert_eq!(hex16(0), "0000000000000000");
        assert_eq!(hex16(u64::MAX), "ffffffffffffffff");
        assert_eq!(hex16(fnv1a_64(b"a")), "af63dc4c8601ec8c");
    }
}
