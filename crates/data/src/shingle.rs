//! Shingle sets and the Jaccard distance.
//!
//! Text fields (publication titles, author lists, spot signatures of web
//! articles — paper §6.3) are represented as *sets of shingles*. Each
//! shingle is pre-hashed to a `u64`, so set operations are cheap integer
//! work regardless of the original token length. Sets are stored as
//! sorted, deduplicated vectors: intersection/union run in a single merge
//! pass and the representation is cache-friendly.
//!
//! [`ShingleSet`] is the owned storage type. The Jaccard kernels work on
//! sorted slices and are reached through
//! [`FieldDistance`](crate::FieldDistance); the two intersection counts
//! are public so tests and benches can pin them against each other. The
//! threshold kernel also takes each set's bitmap [`Sketch`], whose
//! [`overlap_bound`] rejects most failing pairs before any merge.

use serde::{Deserialize, Serialize};

use crate::distance::Exit;

/// Size ratio `|large| / |small|` at which the intersection count
/// switches from the linear merge to galloping search.
pub const GALLOP_RATIO: usize = 8;

/// A set of 64-bit shingle hashes, stored sorted and deduplicated.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShingleSet(Vec<u64>);

impl ShingleSet {
    /// Builds a set from arbitrary (unsorted, possibly duplicated) hashes.
    pub fn new(mut shingles: Vec<u64>) -> Self {
        shingles.sort_unstable();
        shingles.dedup();
        Self(shingles)
    }

    /// Builds a set by hashing string tokens with [`hash_token`].
    pub fn from_tokens<S: AsRef<str>>(tokens: impl IntoIterator<Item = S>) -> Self {
        Self::new(tokens.into_iter().map(|t| hash_token(t.as_ref())).collect())
    }

    /// Builds the set of `k`-gram word shingles of `text` (whitespace
    /// tokenization, lowercased). `k = 1` yields the bag-of-words set.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn word_shingles(text: &str, k: usize) -> Self {
        assert!(k > 0, "shingle length must be positive");
        let tokens: Vec<String> = text.split_whitespace().map(|t| t.to_lowercase()).collect();
        if tokens.len() < k {
            // Shorter than one shingle: fall back to the whole text as a
            // single shingle so tiny fields still compare meaningfully.
            if tokens.is_empty() {
                return Self(Vec::new());
            }
            return Self::new(vec![hash_token(&tokens.join(" "))]);
        }
        let shingles = tokens
            .windows(k)
            .map(|w| hash_token(&w.join(" ")))
            .collect();
        Self::new(shingles)
    }

    /// Number of distinct shingles.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sorted view of the shingle hashes.
    pub fn shingles(&self) -> &[u64] {
        &self.0
    }

    /// Jaccard *similarity* `|A ∩ B| / |A ∪ B| ∈ [0, 1]`.
    ///
    /// Two empty sets are defined to be identical (similarity 1).
    pub fn jaccard_similarity(&self, other: &Self) -> f64 {
        jaccard_similarity(&self.0, &other.0)
    }
}

/// Intersection size of two sorted, deduplicated slices.
///
/// Comparable-size inputs use a single merge pass; when one set is at
/// least [`GALLOP_RATIO`] times larger, the merge would walk the large
/// set element by element, so a galloping search (exponential probe +
/// binary search per small-set element, `O(|small| · log |large|)`)
/// is used instead. Both paths return the exact same count.
fn intersection_size(a: &[u64], b: &[u64]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return 0;
    }
    if large.len() >= GALLOP_RATIO * small.len() {
        intersection_size_galloping(small, large)
    } else {
        intersection_size_merge(small, large)
    }
}

/// Intersection size of two sorted, deduplicated slices via the linear
/// merge pass. Public so the galloping path can be pinned against it in
/// tests and benches.
///
/// The cursor updates are written as boolean-to-integer additions
/// instead of a three-way `match`: with sorted inputs the comparison
/// outcome is near-random, so the data-dependent form (flag arithmetic,
/// no conditional control flow inside the loop) avoids a branch
/// misprediction per element. The counts are identical to the three-way
/// merge: on equality both cursors advance and the element is counted
/// once.
pub fn intersection_size_merge(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        n += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    n
}

/// Intersection size via galloping: for each element of `small`, probe
/// forward in `large` with doubling steps from the last hit position,
/// then binary-search the bracketed run. Correct for any size ratio;
/// public so tests and benches can pin it against the merge.
pub fn intersection_size_galloping(small: &[u64], large: &[u64]) -> usize {
    let (mut lo, mut n) = (0usize, 0usize);
    for &x in small {
        if lo >= large.len() {
            break;
        }
        let hit;
        (lo, hit) = gallop(large, lo, x);
        n += usize::from(hit);
    }
    n
}

/// One galloping probe for `x` in `large[lo..]`, where every element of
/// `large` before `lo` is below `x`: returns where the next probe starts
/// and whether `x` was found.
#[inline]
fn gallop(large: &[u64], lo: usize, x: u64) -> (usize, bool) {
    let pos = if large[lo] >= x {
        lo
    } else {
        // Invariant: large[base] < x. Double the step until the
        // probe overshoots, then binary-search the bracket.
        let mut base = lo;
        let mut step = 1;
        while base + step < large.len() && large[base + step] < x {
            base += step;
            step *= 2;
        }
        let hi = (base + step).min(large.len());
        // The first element >= x (if any) lies in (base, hi].
        base + 1 + large[base + 1..hi].partition_point(|&y| y < x)
    };
    if pos < large.len() && large[pos] == x {
        (pos + 1, true)
    } else {
        (pos, false)
    }
}

fn jaccard_similarity(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = intersection_size(a, b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Jaccard *distance* `1 − similarity ∈ [0, 1]` of two sorted,
/// deduplicated slices — the form every LSH component in this workspace
/// consumes. Two empty sets are at distance 0.
pub(crate) fn jaccard_distance(a: &[u64], b: &[u64]) -> f64 {
    1.0 - jaccard_similarity(a, b)
}

/// Width in bits of the bitmap [`Sketch`] `P`'s Jaccard kernel bounds
/// overlaps with: a power of two, one bit per token.
pub const SKETCH_BITS: usize = 1024;

/// A bitmap sketch of a shingle set: bit [`sketch_bit`]`(t)` is set for
/// every token `t` of the set, and no other, with the number of bits set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sketch {
    bits: [u64; SKETCH_BITS / 64],
    ones: u32,
}

impl Sketch {
    /// The bitmap, bit `b` in word `b / 64` at position `b % 64`.
    pub fn bits(&self) -> &[u64; SKETCH_BITS / 64] {
        &self.bits
    }

    /// Number of bits set: at most the set's size, less when tokens share
    /// a bit.
    pub fn ones(&self) -> usize {
        self.ones as usize
    }
}

/// The sketch bit of a token: the top `log2(SKETCH_BITS)` bits of a fixed
/// multiply-shift (the Fibonacci constant `2^64 / φ`), so small or
/// clustered token values still spread over the whole bitmap.
pub fn sketch_bit(token: u64) -> usize {
    (token.wrapping_mul(SKETCH_MUL) >> (64 - SKETCH_BITS.trailing_zeros())) as usize
}

/// The multiplier of [`sketch_bit`].
const SKETCH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The bitmap sketch of a set of tokens.
pub fn sketch(set: &[u64]) -> Sketch {
    let mut bits = [0u64; SKETCH_BITS / 64];
    for &token in set {
        let bit = sketch_bit(token);
        bits[bit / 64] |= 1 << (bit % 64);
    }
    let ones = bits.iter().map(|w| w.count_ones()).sum();
    Sketch { bits, ones }
}

/// An upper bound on `|A ∩ B|` from the sizes and sketches of two sets:
/// `min(|A| − popcnt(sA & !sB), |B| − popcnt(sB & !sA))`.
///
/// Sound because a bit set in `sA` and clear in `sB` is the bit of at
/// least one token of `A` (it is set in `sA`), and of no token of `B` (it
/// is clear in `sB`), so that token lies in `A ∖ B`; distinct bits are
/// distinct tokens. Hence `popcnt(sA & !sB) <= |A ∖ B| = |A| − |A ∩ B|`,
/// and the same holds with the roles swapped.
///
/// Computed as `popcnt(sA & sB) + min(|A| − popcnt(sA), |B| − popcnt(sB))`,
/// the same number, since `popcnt(sA & !sB) = popcnt(sA) − popcnt(sA &
/// sB)`: one popcount a word, the sets' own counts cached in the sketches.
pub fn overlap_bound(len_a: usize, sa: &Sketch, len_b: usize, sb: &Sketch) -> usize {
    let both: usize = sa
        .bits
        .iter()
        .zip(&sb.bits)
        .map(|(&x, &y)| (x & y).count_ones() as usize)
        .sum();
    both + (len_a - sa.ones()).min(len_b - sb.ones())
}

/// Threshold verdict `jaccard_distance(a, b) <= dthr` of two sets with
/// their sketches, with how it was reached.
///
/// Overlap bound (the positional/suffix filter of set-similarity joins):
/// `passes(m) = 1.0 − m / (|A| + |B| − m) <= dthr` is the exact f64
/// expression [`jaccard_distance`] evaluates at `|A ∩ B| = m`. It is
/// monotone in `m`, because `m / (|A| + |B| − m)` grows with `m` and IEEE
/// division and `1.0 − x` are rounding-monotone. So the exact verdict is
/// `|A ∩ B| >= m*` for the smallest passing overlap `m*`, and:
///
/// 1. the size-ratio exit: `!passes(min)` means even `A ⊆ B` fails, so
///    nothing is read. That form is also `false` for a NaN `dthr`, as
///    the exact comparison is;
/// 2. the bitmap bound: [`overlap_bound`] is never below `|A ∩ B|`, so a
///    bound under `m*` proves `|A ∩ B| < m*` and the pair fails with no
///    merge ([`Exit::Bound`]). By monotonicity, `bound < m*` is
///    `!passes(bound)`: one evaluation of the predicate, so `m*` itself
///    is searched for only on pairs the bound lets through;
/// 3. otherwise the merge (or the galloping probe of a much smaller set)
///    stops as soon as it has counted `m*` common elements or too few
///    elements remain to reach `m*`.
///
/// The verdict is **bit-identical** to `jaccard_distance(a, b) <= dthr`
/// for every input and every `f64` threshold, given `sa = sketch(a)` and
/// `sb = sketch(b)`. The exit is [`Exit::Complete`] only when the count
/// ran to the end of an input.
pub(crate) fn jaccard_at_most_sketched(
    a: &[u64],
    b: &[u64],
    sa: &Sketch,
    sb: &Sketch,
    dthr: f64,
) -> (bool, Exit) {
    if a.is_empty() && b.is_empty() {
        // Distance defined as 0 for two empty sets.
        return (0.0 <= dthr, Exit::Early);
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let total = small.len() + large.len();
    let passes = |m: usize| passes(m, total, dthr);
    if !passes(small.len()) {
        return (false, Exit::Early);
    }
    if !passes(overlap_bound(a.len(), sa, b.len(), sb)) {
        return (false, Exit::Bound);
    }
    let need = overlap_needed(small.len(), total, dthr);
    let (verdict, early) = if large.len() >= GALLOP_RATIO * small.len() {
        galloping_reaches(small, large, need)
    } else {
        merge_reaches(small, large, need)
    };
    (verdict, Exit::from_early(early))
}

/// Whether two sets of `total` elements between them pass the threshold
/// with an overlap of `m`: the exact expression [`jaccard_distance`]
/// evaluates.
fn passes(m: usize, total: usize, dthr: f64) -> bool {
    1.0 - (m as f64 / (total - m) as f64) <= dthr
}

/// The smallest overlap `m ∈ 0..=small` with `passes(m)` for a set of
/// size `small` and one of size `total − small`, by binary search over
/// the monotone predicate, given that `passes(small)` holds.
fn overlap_needed(small: usize, total: usize, dthr: f64) -> usize {
    debug_assert!(passes(small, total, dthr));
    let (mut lo, mut hi) = (0, small);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if passes(mid, total, dthr) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Whether two sorted, deduplicated slices share at least `need`
/// elements (`need <= min(|a|, |b|)`), with the flag of
/// [`jaccard_at_most_sketched`]. The branch-free merge of
/// [`intersection_size_merge`], stopped early: an element passed over
/// without a match leaves one fewer on its side, so the overlap can still
/// reach `need` only while each side has skipped at most `len − need`
/// (`i − n` and `j − n` are the skips so far), i.e. while
/// `n + min(remaining) >= need`.
fn merge_reaches(a: &[u64], b: &[u64], need: usize) -> (bool, bool) {
    let (slack_a, slack_b) = (a.len() - need, b.len() - need);
    let (mut i, mut j, mut n) = (0, 0, 0);
    // The range checks are implied by the skip bounds while `n < need`,
    // but spelling them out lets the compiler drop the indexing checks.
    while i < a.len() && j < b.len() && n < need && i - n <= slack_a && j - n <= slack_b {
        let (x, y) = (a[i], b[j]);
        n += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    (n >= need, i < a.len() && j < b.len())
}

/// [`merge_reaches`] for a `small` set at least [`GALLOP_RATIO`] times
/// smaller than `large`: each element of `small` is galloped for, and the
/// search stops once `need` are found or the elements of `small` still
/// unprobed cannot make up the difference.
fn galloping_reaches(small: &[u64], large: &[u64], need: usize) -> (bool, bool) {
    let (mut lo, mut n) = (0, 0);
    for (k, &x) in small.iter().enumerate() {
        if n >= need || n + (small.len() - k) < need {
            return (n >= need, true);
        }
        if lo >= large.len() {
            break;
        }
        let hit;
        (lo, hit) = gallop(large, lo, x);
        n += usize::from(hit);
    }
    (n >= need, false)
}

/// Hashes a token to a `u64` with the FNV-1a function.
///
/// FNV-1a is tiny, has no dependencies, and its diffusion is more than
/// enough for shingle identity; MinHash applies its own mixing on top.
pub fn hash_token(token: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in token.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_sort() {
        let s = ShingleSet::new(vec![5, 1, 5, 3, 1]);
        assert_eq!(s.shingles(), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
    }

    /// Jaccard distance of two owned sets.
    fn dist(a: &ShingleSet, b: &ShingleSet) -> f64 {
        jaccard_distance(a.shingles(), b.shingles())
    }

    /// The sketched kernel over two slices, with their own sketches.
    fn counted(a: &[u64], b: &[u64], dthr: f64) -> (bool, Exit) {
        jaccard_at_most_sketched(a, b, &sketch(a), &sketch(b), dthr)
    }

    /// Token `k` moved onto sketch bit 0: [`sketch_bit`] multiplies by
    /// [`SKETCH_MUL`], so the token `k · SKETCH_MUL⁻¹` lands on bit
    /// `k >> 54`, which is 0 for every `k` below 2^54. Distinct `k` give
    /// distinct tokens, so sets of packed tokens keep their overlaps while
    /// each sketch holds one bit, and the bitmap bound lets every pair
    /// through to the merge.
    fn packed(k: u64) -> u64 {
        // Newton's step doubles the correct low bits of the inverse, from
        // the 3 of an odd number taken as its own inverse mod 8.
        let mut inv = SKETCH_MUL;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(SKETCH_MUL.wrapping_mul(inv)));
        }
        assert_eq!(SKETCH_MUL.wrapping_mul(inv), 1);
        k.wrapping_mul(inv)
    }

    /// The sorted set of `tokens`.
    fn set(tokens: impl Iterator<Item = u64>) -> Vec<u64> {
        ShingleSet::new(tokens.collect()).0
    }

    /// Threshold verdict over two owned sets.
    fn at_most(a: &ShingleSet, b: &ShingleSet, dthr: f64) -> bool {
        counted(a.shingles(), b.shingles(), dthr).0
    }

    #[test]
    fn intersection_size_counts_common() {
        let a = [1, 2, 3, 4];
        let b = [3, 4, 5];
        assert_eq!(intersection_size(&a, &b), 2);
        assert_eq!(intersection_size(&b, &a), 2);
        assert_eq!(intersection_size_merge(&a, &b), 2);
    }

    #[test]
    fn jaccard_known_value() {
        let a = ShingleSet::new(vec![1, 2, 3, 4]);
        let b = ShingleSet::new(vec![3, 4, 5]);
        // |A ∩ B| = 2, |A ∪ B| = 5.
        assert!((a.jaccard_similarity(&b) - 0.4).abs() < 1e-12);
        assert!((dist(&a, &b) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn jaccard_identical_sets() {
        let a = ShingleSet::new(vec![7, 8]);
        assert_eq!(a.jaccard_similarity(&a.clone()), 1.0);
        assert_eq!(dist(&a, &a), 0.0);
    }

    #[test]
    fn jaccard_disjoint_sets() {
        let a = ShingleSet::new(vec![1]);
        let b = ShingleSet::new(vec![2]);
        assert_eq!(a.jaccard_similarity(&b), 0.0);
        assert_eq!(dist(&a, &b), 1.0);
    }

    #[test]
    fn jaccard_empty_sets_match() {
        let e = ShingleSet::new(vec![]);
        assert_eq!(e.jaccard_similarity(&e.clone()), 1.0);
        assert_eq!(dist(&e, &e), 0.0);
    }

    #[test]
    fn jaccard_empty_vs_nonempty() {
        let e = ShingleSet::new(vec![]);
        let a = ShingleSet::new(vec![1]);
        assert_eq!(e.jaccard_similarity(&a), 0.0);
    }

    #[test]
    fn word_shingles_bigrams() {
        let s = ShingleSet::word_shingles("the quick brown fox", 2);
        // "the quick", "quick brown", "brown fox"
        assert_eq!(s.len(), 3);
        let t = ShingleSet::word_shingles("THE QUICK brown fox", 2);
        assert_eq!(s, t, "shingling must be case-insensitive");
    }

    #[test]
    fn word_shingles_short_text() {
        let s = ShingleSet::word_shingles("hello", 3);
        assert_eq!(s.len(), 1);
        let e = ShingleSet::word_shingles("   ", 3);
        assert!(e.is_empty());
    }

    /// Simple deterministic pseudo-random stream for test data.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 16
        }
    }

    #[test]
    fn galloping_equals_merge_random_sets() {
        let mut rng = lcg(42);
        for case in 0..200 {
            let la = (case % 37) + 1;
            let lb = ((case * 7) % 211) + 1;
            let modulus = 1 + (case as u64 % 97) * 4;
            let a = ShingleSet::new((0..la).map(|_| rng() % modulus).collect());
            let b = ShingleSet::new((0..lb).map(|_| rng() % modulus).collect());
            let (a, b) = (a.shingles(), b.shingles());
            let merge = intersection_size_merge(a, b);
            assert_eq!(
                intersection_size_galloping(a, b),
                merge,
                "case {case}: a={a:?} b={b:?}"
            );
            assert_eq!(intersection_size(a, b), merge);
            assert_eq!(intersection_size(b, a), merge);
        }
    }

    #[test]
    fn galloping_equals_merge_adversarial_sets() {
        let nested_small = ShingleSet::new((0..8).map(|i| i * 100).collect());
        let nested_large = ShingleSet::new((0..800).collect());
        let disjoint_low = ShingleSet::new((0..16).collect());
        let disjoint_high = ShingleSet::new((1000..1600).collect());
        let interleaved = ShingleSet::new((0..500).map(|i| i * 2).collect());
        let odd = ShingleSet::new((0..50).map(|i| i * 2 + 1).collect());
        let empty = ShingleSet::new(vec![]);
        let single = ShingleSet::new(vec![250]);
        let cases = [
            (&nested_small, &nested_large),  // small fully contained
            (&disjoint_low, &disjoint_high), // disjoint, all-below
            (&disjoint_high, &disjoint_low), // disjoint, all-above
            (&odd, &interleaved),            // duplicate-free interleave, no hits
            (&single, &interleaved),         // one element, found mid-run
            (&empty, &nested_large),         // empty small side
        ];
        for (a, b) in cases {
            let (a, b) = (a.shingles(), b.shingles());
            assert_eq!(
                intersection_size_galloping(a, b),
                intersection_size_merge(a, b),
                "a={a:?} b={b:?}"
            );
            assert_eq!(intersection_size(a, b), intersection_size(b, a));
        }
    }

    #[test]
    fn gallop_ratio_dispatch_is_invisible() {
        // Straddle the dispatch boundary: |large| = 8 * |small| ± 1.
        let small = ShingleSet::new(vec![3, 80, 161]);
        for n in [23usize, 24, 25] {
            let large = ShingleSet::new((0..n as u64).map(|i| i * 7).collect());
            assert_eq!(
                intersection_size(small.shingles(), large.shingles()),
                intersection_size_merge(small.shingles(), large.shingles())
            );
        }
    }

    #[test]
    fn jaccard_at_most_equals_exact_check() {
        let mut rng = lcg(7);
        let thresholds = [0.0, 0.1, 0.4, 0.6, 0.9, 1.0];
        for case in 0..120 {
            let la = case % 31;
            let lb = (case * 11) % 257;
            let a = ShingleSet::new((0..la).map(|_| rng() % 64).collect());
            let b = ShingleSet::new((0..lb).map(|_| rng() % 64).collect());
            for &t in &thresholds {
                assert_eq!(at_most(&a, &b, t), dist(&a, &b) <= t, "case {case} thr {t}");
            }
        }
    }

    #[test]
    fn jaccard_at_most_size_ratio_exit() {
        // |A| = 2, |B| = 40: similarity can be at most 0.05, so a 0.5
        // threshold (requiring similarity >= 0.5) must fail even though
        // A ⊂ B.
        let a = ShingleSet::new(vec![0, 1]);
        let b = ShingleSet::new((0..40).collect());
        assert_eq!(
            counted(a.shingles(), b.shingles(), 0.5),
            (false, Exit::Early)
        );
        assert!(at_most(&a, &b, 0.95));
        // Empty-set edge cases.
        let e = ShingleSet::new(vec![]);
        assert!(at_most(&e, &e, 0.0));
        assert!(!at_most(&e, &a, 0.99));
        assert!(at_most(&e, &a, 1.0));
    }

    #[test]
    fn overlap_needed_matches_brute_force_scan() {
        // Every size pair up to 64 over a grid of thresholds (off-grid,
        // representable ratios, both zeros, out of range, NaN): the binary
        // search must return the first passing overlap of a linear scan,
        // which it can only do if the predicate is monotone.
        let mut thresholds = vec![-1.0, -0.0, 0.0, 1.0, 2.0, f64::NAN, f64::INFINITY];
        thresholds.extend((1..40).map(|i| f64::from(i) / 40.0));
        thresholds.extend([
            0.6,
            0.4,
            1.0 / 3.0,
            2.0 / 3.0,
            0.1f64.next_up(),
            0.5f64.next_down(),
        ]);
        for small in 0..=64usize {
            for large in small..=64 {
                for &dthr in &thresholds {
                    let total = small + large;
                    let scan = (0..=small)
                        .find(|&m| 1.0 - (m as f64 / (small + large - m) as f64) <= dthr);
                    let found =
                        passes(small, total, dthr).then(|| overlap_needed(small, total, dthr));
                    assert_eq!(found, scan, "|A|={small} |B|={large} dthr={dthr}");
                }
            }
        }
    }

    #[test]
    fn overlap_bound_exits_mid_merge_both_ways() {
        // 400 shared of 500 each: distance 1 − 400/600 = 1/3. A loose
        // threshold is met long before the merge ends, and a tight one is
        // out of reach long before it ends; both verdicts equal the exact
        // comparison. The tokens are packed onto one sketch bit, so the
        // bitmap bound (500) lets every threshold through to the merge.
        let a = set((0..500).map(packed));
        let b = set((100..600).map(packed));
        assert_eq!((sketch(&a).ones(), sketch(&b).ones()), (1, 1));
        assert_eq!(intersection_size_merge(&a, &b), 400);
        let d = jaccard_distance(&a, &b);
        for (dthr, verdict) in [(0.9, true), (0.1, false), (d, true), (d.next_down(), false)] {
            assert_eq!(d <= dthr, verdict);
            let (got, exit) = counted(&a, &b, dthr);
            assert_eq!(got, verdict, "dthr {dthr}");
            if dthr == 0.9 || dthr == 0.1 {
                assert_eq!(exit, Exit::Early, "dthr {dthr} should stop mid-merge");
            }
        }
        // The same sets spread over the bitmap: the tight threshold (474
        // common tokens needed) is rejected by the bound, with no merge.
        let (a, b): (Vec<u64>, Vec<u64>) = ((0..500).collect(), (100..600).collect());
        assert_eq!(overlap_needed(500, 1000, 0.1), 474);
        assert_eq!(counted(&a, &b, 0.1), (false, Exit::Bound));
        // Galloping path, 80 packed tokens against 800 (the even `k` below
        // 1600). A 0.95 threshold needs 42 common tokens: found before the
        // last is probed when every token is present, and out of reach
        // after 39 misses when 40 are odd.
        let large = set((0..800).map(|i| packed(i * 2)));
        let present = set((0..80).map(|i| packed(i * 20)));
        let half_odd = set((0..80).map(|i| packed(i * 20 + u64::from(i < 40))));
        assert_eq!(overlap_needed(80, 880, 0.95), 42);
        assert_eq!(counted(&present, &large, 0.95), (true, Exit::Early));
        assert_eq!(counted(&half_odd, &large, 0.95), (false, Exit::Early));
        // At the exact distance every token must be found.
        let d = jaccard_distance(&present, &large);
        assert_eq!(counted(&present, &large, d), (true, Exit::Complete));
        assert!(!counted(&present, &large, d.next_down()).0);
    }

    #[test]
    fn bound_rejects_are_early_exits_without_a_merge() {
        // 60 tokens each, 10 shared: at distance 0.6 the pair needs 35
        // common tokens (0.4 · 120 / 1.4, rounded up), and the sketches
        // leave room for about 10.
        let a: Vec<u64> = (0..60).collect();
        let b: Vec<u64> = (50..110).collect();
        let (sa, sb) = (sketch(&a), sketch(&b));
        let bound = overlap_bound(a.len(), &sa, b.len(), &sb);
        assert!((10..35).contains(&bound), "bound {bound}");
        assert_eq!(overlap_needed(60, 120, 0.6), 35);
        assert_eq!(
            jaccard_at_most_sketched(&a, &b, &sa, &sb, 0.6),
            (false, Exit::Bound)
        );
        // Loose enough for the bound to pass: the merge decides.
        let d = jaccard_distance(&a, &b);
        assert_eq!(
            jaccard_at_most_sketched(&a, &b, &sa, &sb, d),
            (true, Exit::Complete)
        );
    }

    #[test]
    fn sketches_set_one_bit_per_distinct_sketch_bit() {
        let set: Vec<u64> = (0..300).map(|i| i * 7919).collect();
        let s = sketch(&set);
        let mut bits: Vec<usize> = set.iter().map(|&t| sketch_bit(t)).collect();
        bits.sort_unstable();
        bits.dedup();
        let ones: u32 = s.bits().iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones as usize, bits.len());
        assert_eq!(s.ones(), bits.len());
        assert!(bits
            .iter()
            .all(|&b| s.bits()[b / 64] & (1 << (b % 64)) != 0));
        assert!(
            bits.len() > 250,
            "small tokens still spread: {}",
            bits.len()
        );
        assert_eq!(sketch(&[]), Sketch::default());
        // A set's bound against itself is its size.
        assert_eq!(overlap_bound(set.len(), &s, set.len(), &s), set.len());
    }

    #[test]
    fn from_tokens_matches_manual_hash() {
        let s = ShingleSet::from_tokens(["a", "b"]);
        let manual = ShingleSet::new(vec![hash_token("a"), hash_token("b")]);
        assert_eq!(s, manual);
    }

    #[test]
    fn hash_token_distinguishes_tokens() {
        assert_ne!(hash_token("abc"), hash_token("abd"));
        assert_ne!(hash_token(""), hash_token("a"));
    }
}
