//! Differential property tests: the batched advance path (one-pass
//! kernels + precomputed level plans) against a scalar reference kept
//! here, over random scheme shapes, random level ladders, and random
//! records. The reference evaluates one hash function at a time and
//! keeps its own nested state; production must serve **bit-identical**
//! keys ([`SequenceHasher::keys`]) at every completed level, and count
//! the same `Stats::hash_evals`, for all three scheme structures
//! (Shared, PerPart, Weighted parts), each with hyperplane parts, over
//! ordinary and special (`±0`, subnormal, overflowing, infinite, NaN)
//! components — and independent of how the caller reuses its
//! [`HashScratch`]. Blocked advances of whole clusters (phase 1 of
//! [`apply_transitive`], records at mixed starting levels, on one and
//! two threads) leave every state serving the reference's keys.

use adalsh_core::hashing::{HashPart, HashScratch, LevelScheme, RecordHashState, SequenceHasher};
use adalsh_core::stats::Stats;
use adalsh_core::transitive::apply_transitive;
use adalsh_data::{
    Dataset, DenseVector, FieldDistance, FieldKind, FieldValue, Record, RecordFields, Schema,
    ShingleSet,
};
use adalsh_lsh::mix::{combine, derive_seed, splitmix64};
use adalsh_lsh::scheme::WzScheme;
use adalsh_lsh::HyperplaneFamily;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Index-mix stride separating the functions of different tables for
/// the stateless families (MinHash and the weighted selection).
const TABLE_STRIDE: u64 = 1 << 24;

/// Hash function `j` of table `t` of `part` on `record`, one scalar
/// evaluation. A dense function samples its table's normals `0..=j`
/// afresh on every call.
fn eval(part: &HashPart, t: u32, j: u32, record: &Record) -> u64 {
    let idx = (u64::from(t) * TABLE_STRIDE + u64::from(j)) as usize;
    match part {
        HashPart::Dense { field, dim, seed } => {
            let mut table = HyperplaneFamily::new(*dim, derive_seed(*seed, u64::from(t)));
            table.ensure_functions(j as usize + 1);
            table.hash(j as usize, record.field_ref(*field).as_dense())
        }
        HashPart::Shingles { field, family } => {
            family.hash(idx, record.field_ref(*field).as_shingles())
        }
        HashPart::Weighted { selection, choices } => {
            eval(&choices[selection.field_for(idx)], t, j, record)
        }
    }
}

/// The scalar reference for [`SequenceHasher::advance`], over its own
/// nested state: `levels[l - 1][g][t]` is table `t` of group `g` after
/// level `l` (`Shared` schemes have one group, `PerPart` one per part).
/// It evaluates one hash function at a time and folds each table's
/// values as it goes, in the canonical order: parts in order, each
/// part's in function order.
#[derive(Debug, Clone, Default)]
struct Reference {
    levels: Vec<Vec<Vec<u64>>>,
}

impl Reference {
    /// Advances to `to_level` one level at a time; a no-op at or past it.
    fn advance(&mut self, h: &SequenceHasher, record: &Record, to_level: usize, stats: &mut Stats) {
        for lvl in self.levels.len() + 1..=to_level {
            // Extend a copy of the previous level's accumulators, so every
            // completed level stays servable.
            let mut groups = self.levels.last().cloned().unwrap_or_default();
            let prev = (lvl > 1).then(|| h.level(lvl - 1));
            match h.level(lvl) {
                LevelScheme::Shared { ws, z } => {
                    let (ws_from, z_from) = match prev {
                        None => (vec![0; ws.len()], 0),
                        Some(LevelScheme::Shared { ws, z }) => (ws.clone(), *z),
                        Some(LevelScheme::PerPart { .. }) => unreachable!("structure is uniform"),
                    };
                    groups.resize(1, Vec::new());
                    let from = (&ws_from[..], z_from);
                    extend_group(h.parts(), &mut groups[0], record, from, (ws, *z), 0, stats);
                }
                LevelScheme::PerPart { parts } => {
                    groups.resize(parts.len(), Vec::new());
                    for (p, to) in parts.iter().enumerate() {
                        let (w_from, z_from) = match prev {
                            None => (0, 0),
                            Some(LevelScheme::PerPart { parts }) => (parts[p].w, parts[p].z),
                            Some(LevelScheme::Shared { .. }) => {
                                unreachable!("structure is uniform")
                            }
                        };
                        let (from, to) = ((&[w_from][..], z_from), (&[to.w][..], to.z));
                        let part = &h.parts()[p..=p];
                        extend_group(part, &mut groups[p], record, from, to, p as u32, stats);
                    }
                }
            }
            self.levels.push(groups);
        }
    }

    /// `(table_tag, key)` pairs of completed level `level`, in the order
    /// [`SequenceHasher::keys`] yields them.
    fn keys(&self, level: usize) -> Vec<(u64, u64)> {
        self.levels[level - 1]
            .iter()
            .enumerate()
            .flat_map(|(g, accs)| {
                accs.iter()
                    .enumerate()
                    .map(move |(t, &acc)| ((g as u64) << 32 | t as u64, acc))
            })
            .collect()
    }
}

/// Extends one table group's accumulators from per-part widths and table
/// count `from = (ws, z)` to `to`. `parts` are the elementary sources
/// feeding this group (all of them for `Shared`, a single one for
/// `PerPart`).
fn extend_group(
    parts: &[HashPart],
    accs: &mut Vec<u64>,
    record: &Record,
    (ws_from, z_from): (&[u32], u32),
    (ws_to, z_to): (&[u32], u32),
    group: u32,
    stats: &mut Stats,
) {
    assert_eq!(accs.len(), z_from as usize);
    // Existing tables gain each part's new functions.
    for t in 0..z_from {
        let mut acc = accs[t as usize];
        for (p, part) in parts.iter().enumerate() {
            for j in ws_from[p]..ws_to[p] {
                acc = combine(acc, eval(part, t, j, record));
                stats.hash_evals += 1;
            }
        }
        accs[t as usize] = acc;
    }
    // Fresh tables get the full widths.
    for t in z_from..z_to {
        let mut acc = splitmix64(u64::from(group) << 32 | u64::from(t));
        for (p, part) in parts.iter().enumerate() {
            for j in 0..ws_to[p] {
                acc = combine(acc, eval(part, t, j, record));
                stats.hash_evals += 1;
            }
        }
        accs.push(acc);
    }
}

/// Asserts `state` is at `reference`'s level, passes the hasher's shape
/// check, and serves the reference's keys at every completed level.
fn check_matches(
    h: &SequenceHasher,
    state: &RecordHashState,
    reference: &Reference,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(usize::from(state.level), reference.levels.len());
    prop_assert_eq!(h.check_state(state), Ok(()));
    for lvl in 1..=reference.levels.len() {
        prop_assert_eq!(
            h.keys(state, lvl).collect::<Vec<_>>(),
            reference.keys(lvl),
            "keys at level {} of {}",
            lvl,
            state.level
        );
    }
    Ok(())
}

/// [`SequenceHasher::advance_records`] on a block of one.
fn advance_single(
    h: &SequenceHasher,
    rec: &Record,
    state: &mut RecordHashState,
    to_level: usize,
    stats: &mut Stats,
    scratch: &mut HashScratch,
) {
    h.advance_records(
        std::slice::from_ref(rec),
        std::slice::from_mut(state),
        to_level,
        stats,
        scratch,
    );
}

/// Advances `rec` along both paths through every level of `h` and
/// asserts the keys of every completed level and the eval counter agree
/// throughout, then checks a direct 0→max jump agrees with the stepwise
/// result.
fn check_paths_agree(h: &SequenceHasher, rec: &Record) -> Result<(), TestCaseError> {
    let mut scratch = HashScratch::default();
    let mut batched = RecordHashState::default();
    let mut reference = Reference::default();
    let (mut stb, mut str) = (Stats::default(), Stats::default());
    for lvl in 1..=h.num_levels() {
        advance_single(h, rec, &mut batched, lvl, &mut stb, &mut scratch);
        reference.advance(h, rec, lvl, &mut str);
        check_matches(h, &batched, &reference)?;
        prop_assert_eq!(
            stb.hash_evals,
            str.hash_evals,
            "eval count at level {}",
            lvl
        );
    }
    let mut jump = RecordHashState::default();
    let mut stj = Stats::default();
    advance_single(h, rec, &mut jump, h.num_levels(), &mut stj, &mut scratch);
    prop_assert_eq!(&jump, &batched, "direct jump diverged from stepwise");
    prop_assert_eq!(stj.hash_evals, stb.hash_evals);
    Ok(())
}

fn shingle_record(s: &[u64]) -> Record {
    Record::single(FieldValue::Shingles(ShingleSet::new(s.to_vec())))
}

#[test]
fn batched_matches_scalar_shared_shingles() {
    let levels = vec![
        LevelScheme::Shared { ws: vec![2], z: 3 },
        LevelScheme::Shared { ws: vec![4], z: 5 },
        LevelScheme::Shared { ws: vec![4], z: 9 },
    ];
    let h = SequenceHasher::new(vec![HashPart::shingles(0, 11)], levels);
    for set in [&[1, 5, 9, 42, 77, 1000][..], &[3], &[]] {
        check_paths_agree(&h, &shingle_record(set)).unwrap();
    }
}

#[test]
fn batched_matches_scalar_multipart_shared() {
    let rec = Record::new(vec![
        FieldValue::Shingles(ShingleSet::new(vec![1, 2, 3])),
        FieldValue::Dense(DenseVector::new(vec![0.5, -0.25, 1.5])),
    ]);
    let levels = vec![
        LevelScheme::Shared {
            ws: vec![2, 1],
            z: 2,
        },
        LevelScheme::Shared {
            ws: vec![3, 4],
            z: 5,
        },
    ];
    let h = SequenceHasher::new(
        vec![HashPart::shingles(0, 5), HashPart::dense(1, 3, 6)],
        levels,
    );
    check_paths_agree(&h, &rec).unwrap();
}

#[test]
fn batched_matches_scalar_per_part() {
    let rec = Record::new(vec![
        FieldValue::Shingles(ShingleSet::new(vec![1, 2, 3])),
        FieldValue::Shingles(ShingleSet::new(vec![100, 200])),
    ]);
    let levels = vec![
        LevelScheme::PerPart {
            parts: vec![WzScheme::new(2, 2), WzScheme::new(1, 3)],
        },
        LevelScheme::PerPart {
            parts: vec![WzScheme::new(2, 4), WzScheme::new(2, 3)],
        },
    ];
    let h = SequenceHasher::new(
        vec![HashPart::shingles(0, 1), HashPart::shingles(1, 2)],
        levels,
    );
    check_paths_agree(&h, &rec).unwrap();
}

#[test]
fn batched_matches_scalar_weighted() {
    let rec = Record::new(vec![
        FieldValue::Shingles(ShingleSet::new(vec![1, 2, 3, 7])),
        FieldValue::Dense(DenseVector::new(vec![0.1, -0.9])),
    ]);
    let part = HashPart::weighted(
        &[
            (0, FieldDistance::Jaccard, 0.6),
            (1, FieldDistance::Angular, 0.4),
        ],
        &[0, 2],
        9,
    );
    let h = SequenceHasher::new(
        vec![part],
        vec![
            LevelScheme::Shared { ws: vec![4], z: 2 },
            LevelScheme::Shared { ws: vec![8], z: 6 },
        ],
    );
    check_paths_agree(&h, &rec).unwrap();
}

/// Builds a monotone level ladder from per-level `(w, z)` increments so
/// every level extends the previous one (the sequence invariant).
fn shared_ladder(increments: &[(u32, u32)], num_parts: usize, skew: u32) -> Vec<LevelScheme> {
    let mut ws = vec![1u32; num_parts];
    let mut z = 1u32;
    let mut levels = Vec::new();
    for (li, &(dw, dz)) in increments.iter().enumerate() {
        for (p, w) in ws.iter_mut().enumerate() {
            // Parts grow at slightly different rates so widths differ.
            *w += dw + ((li + p) as u32 % (skew + 1));
        }
        z += dz;
        levels.push(LevelScheme::Shared { ws: ws.clone(), z });
    }
    levels
}

fn per_part_ladder(increments: &[(u32, u32)], num_parts: usize) -> Vec<LevelScheme> {
    let mut parts: Vec<(u32, u32)> = vec![(1, 1); num_parts];
    let mut levels = Vec::new();
    for (li, &(dw, dz)) in increments.iter().enumerate() {
        for (p, wz) in parts.iter_mut().enumerate() {
            wz.0 += dw + ((li + p) as u32 % 2);
            wz.1 += dz + (p as u32 % 2);
        }
        levels.push(LevelScheme::PerPart {
            parts: parts.iter().map(|&(w, z)| WzScheme::new(w, z)).collect(),
        });
    }
    levels
}

fn shingle_field(shingles: Vec<u64>) -> FieldValue {
    FieldValue::Shingles(ShingleSet::new(shingles))
}

fn dense_field(raw: Vec<u64>, dim: usize) -> FieldValue {
    // Map raw u64 draws to components in [-1, 1); pad/cut to `dim`.
    let v: Vec<f64> = (0..dim)
        .map(|i| {
            let bits = raw.get(i).copied().unwrap_or(i as u64 * 0x9e37_79b9);
            (bits % 2000) as f64 / 1000.0 - 1.0
        })
        .collect();
    FieldValue::Dense(DenseVector::new(v))
}

/// Components that stress the hyperplane kernel's arithmetic: signed
/// zeros, subnormals, values whose products overflow to `±inf`, and
/// infinities and NaN, whose sums can be NaN.
const SPECIAL: [f64; 12] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE / 16.0,
    -f64::MIN_POSITIVE / 16.0,
    f64::MAX,
    -f64::MAX,
    1e300,
    1.0,
    -0.5,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// The hasher of one rule structure over a shingle field 0 and a dense
/// field 1 of dimension `dim`: a `Shared` AND rule (0), a `PerPart` OR
/// rule (1), or one Definition-7 weighted part over both fields (2).
/// `heavy` appends a level with 600 times the tables, so a cluster of a
/// few records clears the threshold at which phase 1 fans out to worker
/// threads.
fn cluster_hasher(
    structure: usize,
    increments: &[(u32, u32)],
    heavy: bool,
    dim: usize,
    seed: u64,
) -> SequenceHasher {
    let (parts, mut levels) = match structure {
        0 => (
            vec![
                HashPart::shingles(0, seed),
                HashPart::dense(1, dim, seed ^ 1),
            ],
            shared_ladder(increments, 2, 1),
        ),
        1 => (
            vec![
                HashPart::shingles(0, seed),
                HashPart::dense(1, dim, seed ^ 1),
            ],
            per_part_ladder(increments, 2),
        ),
        _ => (
            vec![HashPart::weighted(
                &[
                    (0, FieldDistance::Jaccard, 0.4),
                    (1, FieldDistance::Angular, 0.6),
                ],
                &[0, dim],
                seed,
            )],
            shared_ladder(increments, 1, 1),
        ),
    };
    if heavy {
        let top = match levels.last().expect("a ladder has levels") {
            LevelScheme::Shared { ws, z } => LevelScheme::Shared {
                ws: ws.clone(),
                z: z * 600,
            },
            LevelScheme::PerPart { parts } => LevelScheme::PerPart {
                parts: parts
                    .iter()
                    .map(|s| WzScheme::new(s.w, s.z * 600))
                    .collect(),
            },
        };
        levels.push(top);
    }
    SequenceHasher::new(parts, levels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Phase 1 of `apply_transitive` advances a cluster of 0–9 records in
    /// blocks, on one or two threads, from mixed starting levels (so
    /// blocks mix records that jump several levels with records that
    /// step once or not at all): every state serves the keys, and
    /// `Stats.hash_evals` counts the evaluations, of advancing each record
    /// alone along the scalar reference, for `Shared`
    /// AND rules, `PerPart` OR rules and weighted dense+shingle parts.
    #[test]
    fn blocked_cluster_advance_equals_scalar(
        structure in 0usize..3,
        increments in prop::collection::vec((0u32..3, 0u32..3), 1..4),
        heavy in any::<bool>(),
        records in prop::collection::vec(
            (prop::collection::vec(0u64..40, 0..12), prop::collection::vec(any::<u64>(), 0..4)),
            0..10,
        ),
        starts in prop::collection::vec(0usize..8, 10),
        to in 0usize..8,
        threads in 1usize..3,
        seed in any::<u64>(),
    ) {
        let dim = 3;
        let h = cluster_hasher(structure, &increments, heavy, dim, seed);
        let top = h.num_levels();
        let schema = Schema::new(vec![("s", FieldKind::Shingles), ("v", FieldKind::Dense)]);
        // The cluster is records `0..n`; record `n`, outside it, stays
        // untouched (and keeps the dataset non-empty).
        let n = records.len();
        let records: Vec<Record> = records
            .into_iter()
            .chain([(vec![1, 2], vec![5])])
            .map(|(s, v)| Record::new(vec![shingle_field(s), dense_field(v, dim)]))
            .collect();
        let d = Dataset::new(schema, records, (0..=n as u32).collect());
        let mut blocked = vec![RecordHashState::default(); n + 1];
        let mut reference = vec![Reference::default(); n + 1];
        for (i, (state, reference)) in blocked.iter_mut().zip(&mut reference).enumerate() {
            let start = starts[i] % (top + 1);
            if start > 0 {
                h.advance(&d.records()[i], state, start, &mut Stats::default());
                reference.advance(&h, &d.records()[i], start, &mut Stats::default());
            }
        }
        // A heavy ladder's cluster goes to its heavy top level.
        let to_level = if heavy { top } else { 1 + to % top };
        let mut stb = Stats::default();
        let cluster: Vec<u32> = (0..n as u32).collect();
        apply_transitive(&h, &mut blocked, &d, &cluster, to_level, threads, None, None, &mut stb);
        let mut str = Stats::default();
        for (rec, reference) in d.records().iter().zip(&mut reference[..n]) {
            reference.advance(&h, rec, to_level, &mut str);
        }
        for (state, reference) in blocked.iter().zip(&reference) {
            check_matches(&h, state, reference)?;
        }
        prop_assert_eq!(stb.hash_evals, str.hash_evals);
    }

    /// Shared scheme over a shingle part and a dense part: batched path
    /// is bit-identical to the scalar oracle for random ladders and
    /// records (including empty and tiny shingle sets).
    #[test]
    fn batched_equals_scalar_shared(
        increments in prop::collection::vec((0u32..3, 0u32..3), 1..5),
        skew in 0u32..3,
        shingles in prop::collection::vec(any::<u64>(), 0..24),
        dense_raw in prop::collection::vec(any::<u64>(), 0..8),
        dim in 2usize..7,
        seed in any::<u64>(),
    ) {
        let levels = shared_ladder(&increments, 2, skew);
        let h = SequenceHasher::new(
            vec![HashPart::shingles(0, seed), HashPart::dense(1, dim, seed ^ 0xabcd)],
            levels,
        );
        let rec = Record::new(vec![shingle_field(shingles), dense_field(dense_raw, dim)]);
        check_paths_agree(&h, &rec)?;
    }

    /// PerPart (OR-rule) scheme: independent table groups per part still
    /// fold identically on both paths.
    #[test]
    fn batched_equals_scalar_per_part(
        increments in prop::collection::vec((0u32..3, 0u32..2), 1..4),
        sh_a in prop::collection::vec(any::<u64>(), 0..16),
        sh_b in prop::collection::vec(any::<u64>(), 0..16),
        seed in any::<u64>(),
    ) {
        let levels = per_part_ladder(&increments, 2);
        let h = SequenceHasher::new(
            vec![HashPart::shingles(0, seed), HashPart::shingles(1, seed ^ 0x55)],
            levels,
        );
        let rec = Record::new(vec![shingle_field(sh_a), shingle_field(sh_b)]);
        check_paths_agree(&h, &rec)?;
    }

    /// PerPart (OR-rule) scheme with a dense part: each part's table
    /// group gets its own panel per level.
    #[test]
    fn batched_equals_scalar_per_part_dense(
        increments in prop::collection::vec((0u32..4, 0u32..3), 1..5),
        shingles in prop::collection::vec(any::<u64>(), 0..16),
        dense_raw in prop::collection::vec(any::<u64>(), 0..8),
        dim in 1usize..7,
        seed in any::<u64>(),
    ) {
        let levels = per_part_ladder(&increments, 2);
        let h = SequenceHasher::new(
            vec![HashPart::shingles(0, seed), HashPart::dense(1, dim, seed ^ 0x77)],
            levels,
        );
        let rec = Record::new(vec![shingle_field(shingles), dense_field(dense_raw, dim)]);
        check_paths_agree(&h, &rec)?;
    }

    /// A dense part whose levels grow by up to ~100 tasks, so panels
    /// hold full, ragged and several blocks with tables changing inside
    /// a block, over vectors of special values: every sign the panel
    /// kernel produces matches the scalar reference.
    #[test]
    fn batched_equals_scalar_on_special_dense_values(
        increments in prop::collection::vec((1u32..6, 1u32..5), 1..4),
        picks in prop::collection::vec(0usize..SPECIAL.len(), 1..6),
        seed in any::<u64>(),
    ) {
        let dim = picks.len();
        let v: Vec<f64> = picks.iter().map(|&i| SPECIAL[i]).collect();
        let h = SequenceHasher::new(
            vec![HashPart::dense(0, dim, seed)],
            shared_ladder(&increments, 1, 0),
        );
        let rec = Record::single(FieldValue::Dense(DenseVector::new(v)));
        check_paths_agree(&h, &rec)?;
    }

    /// Definition-7 weighted part (Jaccard + Angular components): the
    /// per-function sub-part selection partitions the batch work-list;
    /// the scattered results must fold exactly like the scalar path.
    #[test]
    fn batched_equals_scalar_weighted(
        increments in prop::collection::vec((0u32..3, 0u32..3), 1..4),
        weight in 0.15f64..0.85,
        shingles in prop::collection::vec(any::<u64>(), 0..20),
        dense_raw in prop::collection::vec(any::<u64>(), 0..6),
        dim in 2usize..6,
        seed in any::<u64>(),
    ) {
        let levels = shared_ladder(&increments, 1, 1);
        let part = HashPart::weighted(
            &[
                (0, FieldDistance::Jaccard, weight),
                (1, FieldDistance::Angular, 1.0 - weight),
            ],
            &[0, dim],
            seed,
        );
        let h = SequenceHasher::new(vec![part], levels);
        let rec = Record::new(vec![shingle_field(shingles), dense_field(dense_raw, dim)]);
        check_paths_agree(&h, &rec)?;
    }

    /// A mixed three-part AND rule (shingles + dense + weighted) under a
    /// deeper ladder — the heaviest structural combination.
    #[test]
    fn batched_equals_scalar_mixed_parts(
        increments in prop::collection::vec((0u32..2, 0u32..2), 2..5),
        shingles in prop::collection::vec(any::<u64>(), 1..16),
        dense_raw in prop::collection::vec(any::<u64>(), 0..5),
        seed in any::<u64>(),
    ) {
        let dim = 4usize;
        let levels = shared_ladder(&increments, 3, 2);
        let weighted = HashPart::weighted(
            &[
                (0, FieldDistance::Jaccard, 0.5),
                (1, FieldDistance::Angular, 0.5),
            ],
            &[0, dim],
            seed ^ 0xf00d,
        );
        let h = SequenceHasher::new(
            vec![
                HashPart::shingles(0, seed),
                HashPart::dense(1, dim, seed ^ 1),
                weighted,
            ],
            levels,
        );
        let rec = Record::new(vec![
            shingle_field(shingles),
            dense_field(dense_raw, dim),
        ]);
        check_paths_agree(&h, &rec)?;
    }

    /// One scratch reused across many records and target levels (the
    /// per-worker pattern) leaves no trace: every state and the Stats
    /// equal those of a fresh scratch per call. Record sets always
    /// include an empty and a singleton shingle set.
    #[test]
    fn scratch_reuse_equals_fresh_scratch(
        increments in prop::collection::vec((0u32..3, 0u32..3), 1..5),
        mut sets in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..24), 0..10),
        singleton in any::<u64>(),
        rounds in prop::collection::vec(0usize..8, 1..6),
        weight in 0.15f64..0.85,
        seed in any::<u64>(),
    ) {
        sets.push(Vec::new());
        sets.push(vec![singleton]);
        let dim = 3usize;
        let weighted = HashPart::weighted(
            &[
                (0, FieldDistance::Jaccard, weight),
                (1, FieldDistance::Angular, 1.0 - weight),
            ],
            &[0, dim],
            seed ^ 0xf00d,
        );
        let h = SequenceHasher::new(
            vec![HashPart::shingles(0, seed), weighted],
            shared_ladder(&increments, 2, 1),
        );
        let records: Vec<Record> = sets
            .into_iter()
            .enumerate()
            .map(|(i, s)| Record::new(vec![shingle_field(s), dense_field(vec![i as u64 * 7919], dim)]))
            .collect();
        let mut reused = HashScratch::default();
        let mut s_reused = vec![RecordHashState::default(); records.len()];
        let mut s_fresh = s_reused.clone();
        let (mut st_reused, mut st_fresh) = (Stats::default(), Stats::default());
        // Each round sends every record to its own target level, so the
        // scratch sees jumps, single steps and no-op re-advances mixed.
        for &round in &rounds {
            for (r, rec) in records.iter().enumerate() {
                let lvl = 1 + (round + r) % h.num_levels();
                advance_single(&h, rec, &mut s_reused[r], lvl, &mut st_reused, &mut reused);
                let mut fresh = HashScratch::default();
                advance_single(&h, rec, &mut s_fresh[r], lvl, &mut st_fresh, &mut fresh);
            }
        }
        prop_assert_eq!(s_reused, s_fresh);
        prop_assert_eq!(st_reused, st_fresh);
    }
}
