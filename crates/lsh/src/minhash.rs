//! MinHash family for the Jaccard distance.
//!
//! Hash function `i` applies a random permutation `πᵢ` to the shingle
//! universe and returns the minimum permuted value of the set. For two
//! sets `A`, `B`: `Pr[minᵢ(A) = minᵢ(B)] = |A∩B| / |A∪B|`, i.e.
//! `p(x) = 1 − x` for the Jaccard distance `x` — exactly the form the
//! scheme optimizer assumes (paper Appendix C.1 cites MinHash as the
//! family where Theorem 3 applies).
//!
//! Permutations are implemented as keyed 64-bit mixes — statistically
//! indistinguishable from random permutations of the 64-bit universe for
//! this purpose and far cheaper than explicit permutation tables.

use crate::dispatch::{dispatch, Kernel};
use crate::mix::{combine, combine_premixed, derive_seed, premix};

/// A family of MinHash functions over shingle sets (`&[u64]`).
#[derive(Debug, Clone, Copy)]
pub struct MinHashFamily {
    seed: u64,
}

/// Hash value assigned to the empty set: all empty sets collide with each
/// other (Jaccard similarity of two empty sets is 1) and essentially never
/// with a non-empty set.
pub const EMPTY_SET_HASH: u64 = u64::MAX;

impl MinHashFamily {
    /// Creates a family with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Evaluates hash function `fn_index` on a shingle set.
    ///
    /// The set may be in any order; the result is order-independent.
    #[inline]
    pub fn hash(&self, fn_index: usize, set: &[u64]) -> u64 {
        if set.is_empty() {
            return EMPTY_SET_HASH;
        }
        let key = derive_seed(self.seed, fn_index as u64);
        set.iter()
            .map(|&s| combine(key, s))
            .min()
            .expect("non-empty set")
    }

    /// The per-function key mixed with every shingle by function
    /// `fn_index` — the value [`MinHashFamily::hash`] derives on every
    /// call. Callers evaluating the same function against many sets can
    /// derive it once and use [`MinHashFamily::hash_batch_keys`].
    #[inline]
    pub fn key_for(&self, fn_index: usize) -> u64 {
        derive_seed(self.seed, fn_index as u64)
    }

    /// Evaluates many hash functions on one set in a **single pass** over
    /// the shingles, maintaining one running minimum per function.
    /// `out[i]` receives the same value `hash(fn_indices[i], set)` would.
    ///
    /// # Panics
    /// Panics if `fn_indices` and `out` lengths differ.
    pub fn hash_batch(&self, fn_indices: &[usize], set: &[u64], out: &mut [u64]) {
        assert_eq!(fn_indices.len(), out.len(), "output length mismatch");
        let keys: Vec<u64> = fn_indices.iter().map(|&i| self.key_for(i)).collect();
        Self::hash_batch_keys(&keys, set, out);
    }

    /// Like [`MinHashFamily::hash_batch`] but with the per-function keys
    /// already derived (`keys[i] == key_for(fn_indices[i])`), so hot
    /// paths evaluating a fixed function block against many sets skip the
    /// key derivation entirely. Each shingle is premixed once (see
    /// [`premix`]) and combined with every key, streaming the minima.
    ///
    /// On x86-64 CPUs with AVX-512F and AVX-512DQ the same loop runs from
    /// a copy compiled for those features (8-lane `vpmullq`/`vpminuq`),
    /// chosen at run time; the output is identical on every CPU because
    /// both copies perform the same wrapping integer operations.
    ///
    /// # Panics
    /// Panics if `keys` and `out` lengths differ.
    pub fn hash_batch_keys(keys: &[u64], set: &[u64], out: &mut [u64]) {
        assert_eq!(keys.len(), out.len(), "output length mismatch");
        dispatch(BatchKeys { keys, set, out });
    }

    /// Collision probability `p(x) = 1 − x` at Jaccard distance `x`.
    pub fn collision_prob(x: f64) -> f64 {
        1.0 - x
    }
}

/// The batch kernel of [`MinHashFamily::hash_batch_keys`]; the caller
/// checks `keys.len() == out.len()`. Both copies run the same loop: in
/// the AVX-512 one the 64-bit multiplies of [`premix`]/`splitmix64`
/// become `vpmullq` (AVX-512DQ) and the running minimum `vpminuq`
/// (AVX-512F), eight lanes at a time.
struct BatchKeys<'a> {
    keys: &'a [u64],
    set: &'a [u64],
    out: &'a mut [u64],
}

impl Kernel for BatchKeys<'_> {
    type Output = ();

    #[inline(always)]
    fn run<const WIDE: bool>(self) {
        let Self { keys, set, out } = self;
        if set.is_empty() {
            out.fill(EMPTY_SET_HASH);
            return;
        }
        out.fill(u64::MAX);
        for &s in set {
            let pre = premix(s);
            for (o, &key) in out.iter_mut().zip(keys) {
                let h = combine_premixed(key, pre);
                if h < *o {
                    *o = h;
                }
            }
        }
    }
}

/// The portable copy of the batch kernel: the baseline target features.
#[cfg(test)]
fn hash_batch_keys_portable(keys: &[u64], set: &[u64], out: &mut [u64]) {
    BatchKeys { keys, set, out }.run::<false>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let f = MinHashFamily::new(3);
        let s = [5u64, 9, 1];
        assert_eq!(f.hash(0, &s), f.hash(0, &s));
        assert_ne!(f.hash(0, &s), f.hash(1, &s));
    }

    #[test]
    fn order_independent() {
        let f = MinHashFamily::new(3);
        let a = [5u64, 9, 1];
        let b = [1u64, 5, 9];
        for i in 0..32 {
            assert_eq!(f.hash(i, &a), f.hash(i, &b));
        }
    }

    #[test]
    fn identical_sets_always_collide() {
        let f = MinHashFamily::new(8);
        let s: Vec<u64> = (0..50).map(|i| i * 31 + 7).collect();
        for i in 0..128 {
            assert_eq!(f.hash(i, &s), f.hash(i, &s.clone()));
        }
    }

    #[test]
    fn empty_sets_collide_with_each_other() {
        let f = MinHashFamily::new(8);
        assert_eq!(f.hash(0, &[]), EMPTY_SET_HASH);
        assert_eq!(f.hash(17, &[]), EMPTY_SET_HASH);
    }

    #[test]
    fn batch_matches_scalar() {
        let f = MinHashFamily::new(31);
        let set: Vec<u64> = (0..57).map(|i| i * 997 + 13).collect();
        // Non-contiguous, repeated, and large-stride function indices.
        let idx: Vec<usize> = vec![0, 5, 5, 1, 1 << 25, 123_456, 2, 999];
        let mut out = vec![0u64; idx.len()];
        f.hash_batch(&idx, &set, &mut out);
        for (&i, &o) in idx.iter().zip(&out) {
            assert_eq!(o, f.hash(i, &set));
        }
    }

    #[test]
    fn batch_keys_matches_scalar() {
        let f = MinHashFamily::new(7);
        let set: Vec<u64> = (0u64..33).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let idx: Vec<usize> = (0..64).collect();
        let keys: Vec<u64> = idx.iter().map(|&i| f.key_for(i)).collect();
        let mut out = vec![0u64; idx.len()];
        MinHashFamily::hash_batch_keys(&keys, &set, &mut out);
        for (&i, &o) in idx.iter().zip(&out) {
            assert_eq!(o, f.hash(i, &set));
        }
    }

    #[test]
    fn dispatched_and_portable_kernels_match_scalar() {
        // Key counts 0..=17 hit every remainder of an 8-lane vector (and
        // two full vectors); the sets cover empty, singleton, and
        // duplicate-laden inputs. Both the run-time-dispatched entry point
        // (the AVX-512 copy where the CPU has it) and the portable copy
        // every other CPU runs must equal the scalar definition.
        let f = MinHashFamily::new(0x5eed);
        let many: Vec<u64> = (0..41u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let mut dups = many.clone();
        dups.extend_from_slice(&many[..20]);
        dups.extend_from_slice(&[many[3]; 5]);
        let sets: [&[u64]; 5] = [&[], &[42], &[7, 7, 7], &many, &dups];
        for n in 0..=17usize {
            let keys: Vec<u64> = (0..n).map(|i| f.key_for(i)).collect();
            for set in sets {
                let want: Vec<u64> = (0..n).map(|i| f.hash(i, set)).collect();
                let mut got = vec![0u64; n];
                MinHashFamily::hash_batch_keys(&keys, set, &mut got);
                assert_eq!(got, want, "dispatched, {n} keys, set len {}", set.len());
                let mut got = vec![0u64; n];
                hash_batch_keys_portable(&keys, set, &mut got);
                assert_eq!(got, want, "portable, {n} keys, set len {}", set.len());
            }
        }
    }

    #[test]
    fn batch_on_empty_set() {
        let f = MinHashFamily::new(2);
        let mut out = vec![0u64; 4];
        f.hash_batch(&[0, 1, 2, 3], &[], &mut out);
        assert!(out.iter().all(|&o| o == EMPTY_SET_HASH));
    }

    #[test]
    fn batch_on_singleton_set() {
        let f = MinHashFamily::new(2);
        let mut out = vec![0u64; 3];
        f.hash_batch(&[4, 9, 0], &[42], &mut out);
        for (&i, &o) in [4usize, 9, 0].iter().zip(&out) {
            assert_eq!(o, f.hash(i, &[42]));
        }
    }

    #[test]
    fn batch_keys_duplicate_keys_get_identical_minima() {
        // The same derived key appearing at several output positions must
        // produce the same minimum at each — the streaming loop keeps one
        // running minimum per *position*, not per distinct key.
        let f = MinHashFamily::new(12);
        let set: Vec<u64> = (0..29).map(|i| i * 31 + 7).collect();
        let k = f.key_for(5);
        let keys = [k, f.key_for(9), k, k];
        let mut out = [0u64; 4];
        MinHashFamily::hash_batch_keys(&keys, &set, &mut out);
        assert_eq!(out[0], out[2]);
        assert_eq!(out[0], out[3]);
        assert_eq!(out[0], f.hash(5, &set));
        assert_eq!(out[1], f.hash(9, &set));
    }

    #[test]
    fn batch_keys_empty_keys_is_a_no_op() {
        // Zero requested functions: nothing to write, for any set.
        let mut out: [u64; 0] = [];
        MinHashFamily::hash_batch_keys(&[], &[1, 2, 3], &mut out);
        MinHashFamily::hash_batch_keys(&[], &[], &mut out);
    }

    #[test]
    fn batch_keys_empty_set_fills_sentinel() {
        let f = MinHashFamily::new(3);
        let keys = [f.key_for(0), f.key_for(1)];
        let mut out = [7u64; 2];
        MinHashFamily::hash_batch_keys(&keys, &[], &mut out);
        assert_eq!(out, [EMPTY_SET_HASH; 2]);
    }

    #[test]
    fn batch_keys_duplicate_set_elements_do_not_change_minima() {
        // Min is idempotent: a multiset input must hash like its set.
        let f = MinHashFamily::new(21);
        let set: Vec<u64> = vec![3, 14, 15, 92, 65];
        let mut dup = set.clone();
        dup.extend_from_slice(&[14, 14, 92, 3]);
        let keys: Vec<u64> = (0..16).map(|i| f.key_for(i)).collect();
        let (mut a, mut b) = (vec![0u64; 16], vec![0u64; 16]);
        MinHashFamily::hash_batch_keys(&keys, &set, &mut a);
        MinHashFamily::hash_batch_keys(&keys, &dup, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn batch_keys_length_mismatch_panics() {
        let mut out = [0u64; 1];
        MinHashFamily::hash_batch_keys(&[1, 2], &[3], &mut out);
    }

    #[test]
    fn key_for_matches_hash_derivation() {
        // `hash` on a singleton {s} must equal combine(key_for(i), s).
        let f = MinHashFamily::new(77);
        for i in [0usize, 3, 1 << 20] {
            assert_eq!(f.hash(i, &[555]), crate::mix::combine(f.key_for(i), 555));
        }
    }

    #[test]
    fn empirical_collision_rate_matches_jaccard() {
        // A = {0..60}, B = {30..90}: |A∩B| = 30, |A∪B| = 90, sim = 1/3.
        let f = MinHashFamily::new(99);
        let a: Vec<u64> = (0..60).collect();
        let b: Vec<u64> = (30..90).collect();
        let n = 6000;
        let collisions = (0..n).filter(|&i| f.hash(i, &a) == f.hash(i, &b)).count();
        let rate = collisions as f64 / n as f64;
        let p = MinHashFamily::collision_prob(2.0 / 3.0);
        assert!((p - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(MinHashFamily::collision_prob(1.0), 0.0);
        assert!((rate - p).abs() < 0.025, "rate {rate} too far from {p}");
    }

    #[test]
    fn disjoint_sets_rarely_collide() {
        let f = MinHashFamily::new(4);
        let a: Vec<u64> = (0..40).collect();
        let b: Vec<u64> = (1000..1040).collect();
        let collisions = (0..2000)
            .filter(|&i| f.hash(i, &a) == f.hash(i, &b))
            .count();
        assert_eq!(collisions, 0, "disjoint 40-element sets should not collide");
    }

    #[test]
    fn subset_collision_rate() {
        // B ⊂ A with |B| = |A|/2: sim = 1/2.
        let f = MinHashFamily::new(21);
        let a: Vec<u64> = (0..80).collect();
        let b: Vec<u64> = (0..40).collect();
        let n = 6000;
        let collisions = (0..n).filter(|&i| f.hash(i, &a) == f.hash(i, &b)).count();
        let rate = collisions as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.03, "rate {rate} too far from 1/2");
    }
}
