//! Differential property tests for the block-wavefront `P`
//! ([`apply_pairwise_with`]) against the scalar reference
//! ([`apply_pairwise_scalar`]): on arbitrary mixed shingle/dense
//! datasets, every rule kind, both oracles (the exact rule and a
//! zero-noise noisy oracle settling through a ledger), tracing off and
//! on, any thread count, and any block size, the wavefront must produce
//! **identical clusters and identical `Stats`** — the bit-identity
//! contract that lets figure pipelines run on all cores without
//! perturbing the paper's counters — and the noisy ledger must not
//! depend on the thread count or block size.
//!
//! Because the reference evaluates pairs through the plain
//! `MatchRule::matches` kernels while the wavefront goes through the
//! cached-norm / early-exit kernels (`matches_in_counted`), these tests
//! also pin the kernel fast paths to the naive evaluation.
//!
//! A seeded run, which starts from the known components and stored
//! sketches of a part `S` of the cluster, as the online memo seeds it,
//! must return the canonical components of the whole cluster, with
//! `Stats` that do not depend on the thread count or block size either.

use std::sync::Arc;

use adalsh_core::memo::Seed;
use adalsh_core::oracle::{
    ExactOracle, NoisyOracle, NoisyOracleConfig, OracleSpend, PairwiseOracle, SpendLedger,
};
use adalsh_core::pairwise::{apply_pairwise_scalar, apply_pairwise_with};
use adalsh_core::stats::Stats;
use adalsh_core::transitive::BucketTable;
use adalsh_data::rule::WeightedPart;
use adalsh_data::{
    Dataset, DenseVector, FieldDistance, FieldKind, FieldValue, MatchRule, Record, Schema,
    ShingleSet, Sketches, SlotTable,
};
use adalsh_obs::{MemorySubscriber, TraceSink};
use proptest::prelude::*;

/// Datasets with one shingle field and one dense field. Entity `e` has a
/// shingle core and a direction; records perturb both, so match graphs
/// have non-trivial components under every rule kind and clusters of
/// varied sizes exercise transitive skipping.
fn mixed_dataset() -> impl Strategy<Value = Dataset> {
    (
        prop::collection::vec(1usize..7, 2..7), // entity sizes
        any::<u64>(),                           // noise seed
    )
        .prop_map(|(sizes, seed)| {
            let schema = Schema::new(vec![("s", FieldKind::Shingles), ("v", FieldKind::Dense)]);
            let mut rng = seed | 1;
            let mut next = move || {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                rng
            };
            let mut records = Vec::new();
            let mut gt = Vec::new();
            for (e, &sz) in sizes.iter().enumerate() {
                let core: Vec<u64> = (0..10).map(|i| (e as u64) * 1000 + i).collect();
                for _ in 0..sz {
                    let mut s = core.clone();
                    // 0–2 noise tokens; occasionally large sets so the
                    // galloping/size-ratio paths fire.
                    for _ in 0..(next() % 3) {
                        s.push((e as u64) * 1000 + 500 + next() % 30);
                    }
                    if next() % 5 == 0 {
                        s.extend((0..40).map(|i| (e as u64) * 1000 + 100 + i));
                    }
                    // Direction near entity axis `e`, with noise; some
                    // zero vectors to hit the degenerate-norm branch.
                    let dim = 4;
                    let mut v = vec![0.0f64; dim];
                    if next() % 7 != 0 {
                        v[e % dim] = 1.0;
                        let j = (next() % dim as u64) as usize;
                        v[j] += (next() % 100) as f64 / 250.0;
                    }
                    records.push(Record::new(vec![
                        FieldValue::Shingles(ShingleSet::new(s)),
                        FieldValue::Dense(DenseVector::new(v)),
                    ]));
                    gt.push(e as u32);
                }
            }
            Dataset::new(schema, records, gt)
        })
}

/// All four rule kinds over the two fields, at a tunable threshold.
fn rules(dthr: f64) -> Vec<MatchRule> {
    let jacc = MatchRule::threshold(0, FieldDistance::Jaccard, dthr);
    let ang = MatchRule::threshold(1, FieldDistance::Angular, dthr);
    vec![
        jacc.clone(),
        ang.clone(),
        MatchRule::And(vec![jacc.clone(), ang.clone()]),
        MatchRule::Or(vec![jacc, ang]),
        MatchRule::WeightedAverage {
            parts: vec![
                WeightedPart {
                    field: 0,
                    metric: FieldDistance::Jaccard,
                    weight: 0.6,
                },
                WeightedPart {
                    field: 1,
                    metric: FieldDistance::Angular,
                    weight: 0.4,
                },
            ],
            dthr,
        },
    ]
}

fn normalized(mut clusters: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    for c in &mut clusters {
        c.sort_unstable();
    }
    clusters.sort();
    clusters
}

/// One wavefront run under `oracle`, unseeded: settling through a fresh unlimited
/// ledger when `settle` is set, tracing into a memory subscriber when
/// `traced` is set. Returns normalized clusters, `Stats` and the spend.
fn wavefront<O: PairwiseOracle>(
    dataset: &Dataset,
    oracle: &O,
    ids: &[u32],
    threads: usize,
    block: usize,
    settle: bool,
    traced: bool,
) -> (Vec<Vec<u32>>, Stats, OracleSpend) {
    let sink = sink(traced);
    let mut ledger = SpendLedger::new(None);
    let mut st = Stats::default();
    let (out, _) = apply_pairwise_with(
        dataset,
        oracle,
        ids,
        None,
        threads,
        block,
        settle.then_some(&mut ledger),
        &sink,
        &mut st,
    );
    (normalized(out), st, ledger.into_spend())
}

fn sink(traced: bool) -> TraceSink {
    if traced {
        TraceSink::new(Arc::new(MemorySubscriber::default()))
    } else {
        TraceSink::disabled()
    }
}

/// A memoized run as the online memo makes one: `P` on `components`'
/// records (canonical) and `rest` (ascending), seeded with `components`
/// and `sketches`, which the run replaces with its own. Returns its
/// clusters, as they come, and its `Stats`.
#[allow(clippy::too_many_arguments)]
fn memoized(
    dataset: &Dataset,
    oracle: &ExactOracle<'_>,
    components: &[Vec<u32>],
    rest: &[u32],
    sketches: &mut Sketches,
    threads: usize,
    block: usize,
    traced: bool,
) -> (Vec<Vec<u32>>, Stats) {
    let mut slots = vec![u32::MAX; dataset.len()];
    for (label, component) in (0u32..).zip(components) {
        for &rid in component {
            slots[rid as usize] = label;
        }
    }
    for (slot, &rid) in (components.len() as u32..).zip(rest) {
        slots[rid as usize] = slot;
    }
    let mut members: Vec<u32> = components.iter().flatten().chain(rest).copied().collect();
    members.sort_unstable();
    let seed = Seed {
        components,
        members: &members,
        slots: &slots,
        table: &mut BucketTable::default(),
        sketches,
    };
    let mut st = Stats::default();
    let (out, _) = apply_pairwise_with(
        dataset,
        oracle,
        rest,
        Some(seed),
        threads,
        block,
        None,
        &sink(traced),
        &mut st,
    );
    (out, st)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Wavefront `P` ≡ scalar `P`: identical clusters and identical
    /// full `Stats` for every rule kind, oracle, sink, thread count, and
    /// block size; the zero-noise ledger equals the sequential one.
    #[test]
    fn wavefront_equals_scalar(
        dataset in mixed_dataset(),
        dthr in 0.05f64..0.95,
        threads in 1usize..6,
        block_idx in 0usize..10,
    ) {
        // Degenerate (1), small odd, power-of-two, and one-block sizes.
        let block = [1usize, 2, 3, 5, 7, 8, 13, 64, 4096, 1 << 20][block_idx];
        let all: Vec<u32> = (0..dataset.len() as u32).collect();
        for rule in rules(dthr) {
            let mut st_scalar = Stats::default();
            let scalar = normalized(apply_pairwise_scalar(&dataset, &rule, &all, &mut st_scalar));
            let exact = ExactOracle::new(&rule);
            let noisy = NoisyOracle::new(&rule, NoisyOracleConfig::default());
            let (_, _, sequential_spend) = wavefront(&dataset, &noisy, &all, 1, 1, true, false);
            for traced in [false, true] {
                let case = format!("rule={rule:?} threads={threads} block={block} traced={traced}");
                let (wave, st, _) = wavefront(&dataset, &exact, &all, threads, block, false, traced);
                prop_assert_eq!(&wave, &scalar, "exact clusters diverge: {}", case);
                prop_assert_eq!(st, st_scalar, "exact stats diverge: {}", case);
                let (wave, st, spend) =
                    wavefront(&dataset, &noisy, &all, threads, block, true, traced);
                prop_assert_eq!(&wave, &scalar, "noisy clusters diverge: {}", case);
                prop_assert_eq!(st, st_scalar, "noisy stats diverge: {}", case);
                prop_assert_eq!(&spend, &sequential_spend, "noisy ledger diverges: {}", case);
            }
        }
    }

    /// Cluster subsets (the shape `P` sees inside the engine: a slice of
    /// non-contiguous record ids) agree too.
    #[test]
    fn wavefront_equals_scalar_on_subsets(
        dataset in mixed_dataset(),
        threads in 1usize..5,
        block in 1usize..20,
        stride in 1usize..4,
        offset in 0usize..3,
    ) {
        let ids: Vec<u32> = (0..dataset.len() as u32)
            .skip(offset)
            .step_by(stride)
            .collect();
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.4);
        let mut st_scalar = Stats::default();
        let scalar = apply_pairwise_scalar(&dataset, &rule, &ids, &mut st_scalar);
        let (wave, st, _) =
            wavefront(&dataset, &ExactOracle::new(&rule), &ids, threads, block, false, false);
        prop_assert_eq!(wave, normalized(scalar));
        prop_assert_eq!(st, st_scalar);
    }

    /// For a cluster split into an old part `S` and new records `N`,
    /// `P` seeded with a cold memoized run's components and sketches of
    /// `S` returns the canonical `P(S ∪ N)`, charges no more pairs than
    /// an unseeded run over the same layout, and has the same `Stats` at
    /// threads {1, 2} and blocks {1, 7, 4096}. The cold memoized run is
    /// the unseeded run, pair for pair, in canonical order.
    #[test]
    fn seeded_wavefront_equals_full_p(
        dataset in mixed_dataset(),
        dthr in 0.05f64..0.95,
        split in 0usize..40,
        order in any::<u64>(),
    ) {
        let ids = shuffled(dataset.len(), order);
        let split = split.min(ids.len());
        let (mut old, mut new) = (ids[..split].to_vec(), ids[split..].to_vec());
        old.sort_unstable();
        new.sort_unstable();
        for rule in rules(dthr) {
            let exact = ExactOracle::new(&rule);
            let mut stored = Sketches::default();
            let (old_parts, st_old) = memoized(&dataset, &exact, &[], &old, &mut stored, 1, 1, false);
            let (unseeded_old, st_unseeded_old, _) = wavefront(&dataset, &exact, &old, 2, 7, false, false);
            prop_assert_eq!(&old_parts, &unseeded_old, "cold memoized, rule={:?}", rule);
            prop_assert_eq!(st_old, st_unseeded_old, "cold memoized, rule={:?}", rule);

            let layout: Vec<u32> = old.iter().chain(&new).copied().collect();
            prop_assert_eq!(layout.len(), ids.len());
            let mut st_scalar = Stats::default();
            let full = normalized(apply_pairwise_scalar(&dataset, &rule, &layout, &mut st_scalar));
            let (unseeded, st_unseeded, _) = wavefront(&dataset, &exact, &layout, 2, 7, false, false);
            prop_assert_eq!(&unseeded, &full, "empty seed, rule={:?}", rule);
            prop_assert_eq!(st_unseeded, st_scalar, "empty seed, rule={:?}", rule);

            let stored = || SlotTable::build(&rule, &dataset, &old, 0).into_sketches();
            let (reference, st_reference) =
                memoized(&dataset, &exact, &old_parts, &new, &mut stored(), 1, 1, false);
            prop_assert_eq!(&reference, &full, "seeded clusters, rule={:?} |S|={}", rule, split);
            prop_assert_eq!(st_reference.pairwise_calls, 1);
            prop_assert!(
                st_reference.pair_comparisons <= st_scalar.pair_comparisons,
                "seeded {} > unseeded {} pairs, rule={:?}",
                st_reference.pair_comparisons,
                st_scalar.pair_comparisons,
                rule
            );
            for threads in [1usize, 2] {
                for block in [1usize, 7, 4096] {
                    for traced in [false, true] {
                        let (out, st) = memoized(
                            &dataset, &exact, &old_parts, &new, &mut stored(), threads, block, traced,
                        );
                        let case = format!("rule={rule:?} |S|={split} t={threads} b={block} traced={traced}");
                        prop_assert_eq!(&out, &full, "{}", case);
                        prop_assert_eq!(st, st_reference, "{}", case);
                    }
                }
            }
        }
    }
}

/// `0..n` in an order drawn from `seed`.
fn shuffled(n: usize, seed: u64) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ids.swap(i, (state >> 33) as usize % (i + 1));
    }
    ids
}

/// SpotSigs-like records over two shingle fields and a dense one: each
/// entity has a ~60-token core per shingle field, records keep most of it
/// and add tokens from a pool every entity shares, so most pairs across
/// entities fail on the bitmap bound while pairs inside one pass or fail
/// near the threshold. The two shingle fields differ, so a leaf that
/// reads the other field's sketch gets verdicts wrong.
fn two_shingle_field_dataset() -> impl Strategy<Value = Dataset> {
    (prop::collection::vec(1usize..6, 2..6), any::<u64>())
        .prop_map(|(sizes, seed)| two_shingle_fields(&sizes, seed))
}

/// The dataset of [`two_shingle_field_dataset`] with these entity sizes
/// and noise seed.
fn two_shingle_fields(sizes: &[usize], seed: u64) -> Dataset {
    let schema = Schema::new(vec![
        ("s", FieldKind::Shingles),
        ("v", FieldKind::Dense),
        ("t", FieldKind::Shingles),
    ]);
    let mut rng = seed | 1;
    let mut next = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng >> 11
    };
    let mut records = Vec::new();
    let mut gt = Vec::new();
    for (e, &sz) in sizes.iter().enumerate() {
        for _ in 0..sz {
            let mut field = |tag: u64, core: u64| {
                let mut s: Vec<u64> = (0..core)
                    .filter(|_| next() % 8 != 0)
                    .map(|i| (tag << 40) | ((e as u64) << 20) | i)
                    .collect();
                s.extend((0..next() % 30).map(|_| (tag << 40) | (next() % 90)));
                FieldValue::Shingles(ShingleSet::new(s))
            };
            let (s, t) = (field(1, 60), field(2, 20 + 10 * (e as u64 % 5)));
            let mut v = vec![0.0f64; 4];
            v[e % 4] = 1.0;
            v[next() as usize % 4] += (next() % 100) as f64 / 250.0;
            records.push(Record::new(vec![
                s,
                FieldValue::Dense(DenseVector::new(v)),
                t,
            ]));
            gt.push(e as u32);
        }
    }
    Dataset::new(schema, records, gt)
}

/// Rules over the two shingle fields (each its own sketch column) and
/// the dense one, plus a weighted average, which takes no bound.
fn two_field_rules(dthr: f64) -> Vec<MatchRule> {
    let s = MatchRule::threshold(0, FieldDistance::Jaccard, dthr);
    let t = MatchRule::threshold(2, FieldDistance::Jaccard, (dthr + 0.2).min(1.0));
    let v = MatchRule::threshold(1, FieldDistance::Angular, 0.2);
    vec![
        s.clone(),
        t.clone(),
        MatchRule::And(vec![s.clone(), v.clone(), t.clone()]),
        MatchRule::Or(vec![t.clone(), MatchRule::And(vec![v.clone(), s.clone()])]),
        MatchRule::Or(vec![MatchRule::And(vec![s.clone(), t.clone()]), v]),
        MatchRule::WeightedAverage {
            parts: vec![
                WeightedPart {
                    field: 0,
                    metric: FieldDistance::Jaccard,
                    weight: 0.5,
                },
                WeightedPart {
                    field: 2,
                    metric: FieldDistance::Jaccard,
                    weight: 0.5,
                },
            ],
            dthr,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sketched `P` equals the unsketched scalar reference, clusters
    /// and `Stats`, on rules whose Jaccard leaves read different fields,
    /// at threads {1, 2} and blocks {1, 7, 4096}, traced or not, seeded
    /// from a part's components and stored sketches or not.
    #[test]
    fn sketched_wavefront_equals_scalar_on_two_shingle_fields(
        dataset in two_shingle_field_dataset(),
        dthr in 0.3f64..0.8,
        split in 0usize..30,
        order in any::<u64>(),
    ) {
        let ids = shuffled(dataset.len(), order);
        let split = split.min(ids.len());
        for rule in two_field_rules(dthr) {
            let mut st_scalar = Stats::default();
            let full = normalized(apply_pairwise_scalar(&dataset, &rule, &ids, &mut st_scalar));
            let exact = ExactOracle::new(&rule);
            let (mut old, mut new) = (ids[..split].to_vec(), ids[split..].to_vec());
            old.sort_unstable();
            new.sort_unstable();
            let mut stored = Sketches::default();
            let (old_parts, _) = memoized(&dataset, &exact, &[], &old, &mut stored, 1, 1, false);
            let (_, st_seeded) = memoized(&dataset, &exact, &old_parts, &new, &mut stored, 1, 1, false);
            let stored = || SlotTable::build(&rule, &dataset, &old, 0).into_sketches();
            for threads in [1usize, 2] {
                for block in [1usize, 7, 4096] {
                    for traced in [false, true] {
                        let case = format!("rule={rule:?} t={threads} b={block} traced={traced}");
                        let (out, st, _) =
                            wavefront(&dataset, &exact, &ids, threads, block, false, traced);
                        prop_assert_eq!(&out, &full, "unseeded: {}", case);
                        prop_assert_eq!(st, st_scalar, "unseeded: {}", case);
                        let (out, st) = memoized(
                            &dataset, &exact, &old_parts, &new, &mut stored(), threads, block, traced,
                        );
                        prop_assert_eq!(&out, &full, "seeded |S|={}: {}", split, case);
                        prop_assert_eq!(st, st_seeded, "seeded |S|={}: {}", split, case);
                    }
                }
            }
        }
    }
}

/// A fixed noisy-oracle case, with noise, faults, votes and a budget that
/// runs out: the clusters, `Stats` and spend ledger are the ones `P`
/// produced before its Jaccard kernel took bitmap sketches, at every
/// thread count and block size.
#[test]
fn noisy_ledger_is_unchanged_on_a_fixed_case() {
    let dataset = two_shingle_fields(&[9, 3, 7, 1, 6, 5, 4], 0x1ED6E5);
    let ids: Vec<u32> = (0..dataset.len() as u32).collect();
    let rule = MatchRule::And(vec![
        MatchRule::threshold(0, FieldDistance::Jaccard, 0.6),
        MatchRule::threshold(2, FieldDistance::Jaccard, 0.7),
    ]);
    let cfg = NoisyOracleConfig {
        false_match_rate: 0.1,
        false_non_match_rate: 0.2,
        fault_rate: 0.15,
        seed: 2024,
        budget: Some(450),
        ..NoisyOracleConfig::default()
    };
    let oracle = NoisyOracle::new(&rule, cfg.clone());
    for threads in [1usize, 2] {
        for block in [1usize, 7, 4096] {
            let mut ledger = SpendLedger::new(cfg.budget);
            let mut st = Stats::default();
            let (out, _) = apply_pairwise_with(
                &dataset,
                &oracle,
                &ids,
                None,
                threads,
                block,
                Some(&mut ledger),
                &TraceSink::disabled(),
                &mut st,
            );
            let spend = ledger.into_spend();
            let got = (
                normalized(out),
                st,
                [
                    spend.calls,
                    spend.attempts,
                    spend.retries,
                    spend.votes,
                    spend.timeouts,
                    spend.transient_errors,
                    spend.degraded,
                    spend.spent,
                    spend.latency_micros,
                ],
                spend.degraded_pairs.len(),
                spend.degraded_pairs.first().copied(),
                spend.degraded_pairs.last().copied(),
            );
            let want = (
                vec![
                    (0..9).chain(20..26).collect::<Vec<u32>>(),
                    (9..12).collect(),
                    (12..19).collect(),
                    vec![19],
                    (26..31).collect(),
                    (31..35).collect(),
                ],
                Stats {
                    distance_evals: 1060,
                    pair_comparisons: 530,
                    pairwise_calls: 1,
                    ..Stats::default()
                },
                [530, 450, 60, 195, 35, 25, 335, 450, 2_338_691],
                335,
                Some((7, 13)),
                Some((31, 34)),
            );
            assert_eq!(got, want, "threads={threads} block={block}");
        }
    }
}
