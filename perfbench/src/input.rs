//! How `--seed` turns a workload's fixed corpus into a run's input.
//!
//! adaLSH's cost on one corpus swings with its random hash draws: on
//! the `spotsigs-deep` corpus alone, five engine hash seeds gave filter
//! runs from 5.2 s to 8.8 s, and regenerating the corpus from another
//! seed moved it as much. A benchmark whose inputs varied that much
//! between seeds could not resolve a 10% change. So each workload's
//! entity structure comes from a fixed structure seed, and `--seed`
//! changes only what leaves the engine's work the same: the order the
//! records arrive in (so their ids; for the server, only the order
//! inside the bootstrap and inside each ingest batch, since which
//! records a resolve pass meets changes its work) and, for the scale
//! tier, the
//! identity of every shingle token under a bijection (so every stored
//! byte and every hash value). A claim checked on a held-out seed has
//! therefore met new record ids and layouts, not a new corpus.

use adalsh_data::{Dataset, FieldValue, Record, ShingleSet};

/// SplitMix64 finalizer: a bijection on `u64`.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded uniform permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = mix64(state);
        // Multiply-shift maps the draw onto 0..=i without modulo bias
        // worth measuring at these sizes.
        let j = ((u128::from(state) * (i as u128 + 1)) >> 64) as usize;
        order.swap(i, j);
    }
    order
}

/// The dataset with its records (and their labels) in seeded order.
pub fn shuffled(dataset: &Dataset, seed: u64) -> Dataset {
    dataset.subset(&permutation(dataset.len(), seed))
}

/// A seeded permutation of `0..n` that moves each index only within its
/// run of `chunk` consecutive indices: every chunk keeps its members and
/// its place, and only their order inside it changes.
pub fn permutation_within(n: usize, chunk: usize, seed: u64) -> Vec<u32> {
    let key = mix64(seed);
    (0..n)
        .step_by(chunk.max(1))
        .enumerate()
        .flat_map(|(c, start)| {
            let len = chunk.min(n - start);
            permutation(len, key.wrapping_add(c as u64))
                .into_iter()
                .map(move |i| start as u32 + i)
        })
        .collect()
}

/// The record with every shingle token passed through a seeded
/// bijection: set sizes and overlaps, hence every distance, are
/// unchanged. Dense fields pass through.
pub fn rekeyed(record: &Record, seed: u64) -> Record {
    let key = mix64(seed);
    let fields = record
        .fields()
        .iter()
        .map(|field| match field {
            FieldValue::Shingles(set) => FieldValue::Shingles(ShingleSet::new(
                set.shingles().iter().map(|&t| mix64(t ^ key)).collect(),
            )),
            dense => dense.clone(),
        })
        .collect();
    Record::new(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(1000, 1);
        assert_eq!(a, permutation(1000, 1));
        assert_ne!(a, permutation(1000, 2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());
        assert!(permutation(0, 5).is_empty());
    }

    #[test]
    fn permutation_within_keeps_every_chunk_in_place() {
        let a = permutation_within(25, 10, 1);
        assert_eq!(a, permutation_within(25, 10, 1));
        assert_ne!(a, permutation_within(25, 10, 2));
        for (c, chunk) in a.chunks(10).enumerate() {
            let mut sorted = chunk.to_vec();
            sorted.sort_unstable();
            let start = c as u32 * 10;
            assert_eq!(
                sorted,
                (start..start + chunk.len() as u32).collect::<Vec<u32>>()
            );
        }
        assert!(permutation_within(0, 10, 5).is_empty());
    }

    #[test]
    fn rekeying_preserves_every_distance() {
        let set = |v: &[u64]| Record::single(FieldValue::Shingles(ShingleSet::new(v.to_vec())));
        let (a, b) = (set(&[1, 2, 3, 4]), set(&[3, 4, 5]));
        let (ra, rb) = (rekeyed(&a, 9), rekeyed(&b, 9));
        let sim = |x: &Record, y: &Record| {
            x.field(0)
                .as_shingles()
                .jaccard_similarity(y.field(0).as_shingles())
        };
        assert_eq!(sim(&a, &b), sim(&ra, &rb));
        assert_ne!(a.field(0).as_shingles(), ra.field(0).as_shingles());
    }
}
