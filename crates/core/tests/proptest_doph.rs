//! Property-based determinism tests of the DOPH MinHash scheme: on
//! arbitrary shingle datasets, the densified one-permutation hash states
//! must be identical however they are computed — any thread count, any
//! scratch-reuse pattern, jump or stepwise level advancement — and the
//! end-to-end adaptive filter under DOPH must still agree with exact
//! pairwise resolution.

use adalsh_core::algorithm::{AdaLsh, AdaLshConfig};
use adalsh_core::hashing::{HashPart, HashScratch, LevelScheme, RecordHashState, SequenceHasher};
use adalsh_core::pairwise::apply_pairwise;
use adalsh_core::stats::Stats;
use adalsh_core::transitive::apply_transitive;
use adalsh_core::MinhashScheme;
use adalsh_data::{
    Dataset, FieldDistance, FieldKind, FieldValue, MatchRule, Record, Schema, ShingleSet,
};
use proptest::prelude::*;

/// Strategy producing small shingle datasets with varied set sizes,
/// including empty and singleton sets and exact duplicates.
fn shingle_sets() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..500, 0..40), 2..24).prop_map(|mut sets| {
        // Plant a duplicate pair so shared-bucket paths get exercised.
        if sets.len() >= 2 {
            sets[1] = sets[0].clone();
        }
        sets
    })
}

fn dataset_of(sets: &[Vec<u64>]) -> Dataset {
    let schema = Schema::single("s", FieldKind::Shingles);
    let records = sets
        .iter()
        .map(|s| Record::single(FieldValue::Shingles(ShingleSet::new(s.clone()))))
        .collect();
    let gt = (0..sets.len() as u32).collect();
    Dataset::new(schema, records, gt)
}

fn doph_hasher(seed: u64) -> SequenceHasher {
    SequenceHasher::with_scheme(
        vec![HashPart::shingles(0, seed)],
        vec![
            LevelScheme::Shared { ws: vec![1], z: 8 },
            LevelScheme::Shared { ws: vec![2], z: 12 },
            LevelScheme::Shared { ws: vec![3], z: 16 },
        ],
        MinhashScheme::Doph,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same records advanced through one long-lived scratch, through
    /// fresh scratches, and via the scalar oracle end in identical states
    /// with identical Stats.
    #[test]
    fn doph_states_independent_of_scratch_reuse(
        sets in shingle_sets(),
        seed in any::<u64>(),
    ) {
        let d = dataset_of(&sets);
        let h = doph_hasher(seed);

        let mut shared = vec![RecordHashState::default(); d.len()];
        let mut st_shared = Stats::default();
        let mut scratch = HashScratch::default();
        for rid in 0..d.len() as u32 {
            h.advance_with_scratch(
                d.record(rid), &mut shared[rid as usize], 3, &mut st_shared, &mut scratch,
            );
        }

        let mut fresh = vec![RecordHashState::default(); d.len()];
        let mut st_fresh = Stats::default();
        for rid in 0..d.len() as u32 {
            let mut scratch = HashScratch::default();
            h.advance_with_scratch(
                d.record(rid), &mut fresh[rid as usize], 3, &mut st_fresh, &mut scratch,
            );
        }

        let mut scalar = vec![RecordHashState::default(); d.len()];
        let mut st_scalar = Stats::default();
        for rid in 0..d.len() as u32 {
            h.advance_scalar(d.record(rid), &mut scalar[rid as usize], 3, &mut st_scalar);
        }

        prop_assert_eq!(&shared, &fresh);
        prop_assert_eq!(&shared, &scalar);
        prop_assert_eq!(st_shared, st_fresh);
        prop_assert_eq!(st_shared, st_scalar);
    }

    /// Jumping straight to the last level equals advancing one level at a
    /// time — DOPH slot values are pure in (seed, total bins, set), so
    /// the path must not matter.
    #[test]
    fn doph_jump_equals_stepwise(sets in shingle_sets(), seed in any::<u64>()) {
        let d = dataset_of(&sets);
        let h = doph_hasher(seed);
        let mut scratch = HashScratch::default();
        for rid in 0..d.len() as u32 {
            let mut jump = RecordHashState::default();
            let mut step = RecordHashState::default();
            let mut st = Stats::default();
            h.advance_with_scratch(d.record(rid), &mut jump, 3, &mut st, &mut scratch);
            for level in 1..=3 {
                h.advance_with_scratch(d.record(rid), &mut step, level, &mut st, &mut scratch);
            }
            prop_assert_eq!(jump, step, "record {}", rid);
        }
    }

    /// Transitive hashing under DOPH returns identical clusters, states,
    /// and Stats at every thread count.
    #[test]
    fn doph_transitive_identical_across_threads(
        sets in shingle_sets(),
        seed in any::<u64>(),
    ) {
        let d = dataset_of(&sets);
        let ids: Vec<u32> = (0..d.len() as u32).collect();
        let run = |threads: usize| {
            let h = doph_hasher(seed);
            let mut states = vec![RecordHashState::default(); d.len()];
            let mut st = Stats::default();
            let out = apply_transitive(&h, &mut states, &d, &ids, 3, threads, &mut st);
            (out, states, st)
        };
        let (out1, states1, st1) = run(1);
        let (out4, states4, st4) = run(4);
        prop_assert_eq!(out1, out4);
        prop_assert_eq!(states1, states4);
        prop_assert_eq!(st1, st4);
    }
}

/// Deterministic planted-cluster check: the full adaptive filter under
/// DOPH must find the same top-k record set as exact pairwise closure.
#[test]
fn doph_filter_matches_exact_on_planted_clusters() {
    let schema = Schema::single("s", FieldKind::Shingles);
    let mut records = Vec::new();
    let mut gt = Vec::new();
    for (e, sz) in [(0u64, 7usize), (1, 5), (2, 3), (3, 2), (4, 1)] {
        let core: Vec<u64> = (0..20).map(|i| e * 1000 + i).collect();
        for r in 0..sz {
            let mut s = core.clone();
            s.push(e * 1000 + 500 + r as u64 % 3);
            records.push(Record::single(FieldValue::Shingles(ShingleSet::new(s))));
            gt.push(e as u32);
        }
    }
    let d = Dataset::new(schema, records, gt);
    let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.4);

    let all: Vec<u32> = (0..d.len() as u32).collect();
    let mut st = Stats::default();
    let mut exact = apply_pairwise(&d, &rule, &all, 1, &mut st);
    exact.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
    for k in 1..=3 {
        let mut expected: Vec<u32> = exact.iter().take(k).flatten().copied().collect();
        expected.sort_unstable();
        let mut config = AdaLshConfig::new(rule.clone());
        config.minhash_scheme = MinhashScheme::Doph;
        let mut ada = AdaLsh::for_dataset(&d, config).unwrap();
        assert_eq!(ada.run(&d, k).records(), expected, "k={k}");
    }
}
