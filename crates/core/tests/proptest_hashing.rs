//! Differential property tests: the batched advance path (one-pass
//! kernels + precomputed level plans) against the scalar oracle
//! [`SequenceHasher::advance_scalar`], over random scheme shapes, random
//! level ladders, and random records. States must be **bit-identical**
//! at every level — including the `Stats::hash_evals` count — for all
//! three scheme structures (Shared, PerPart, Weighted parts), each with
//! hyperplane parts, over ordinary and special (`±0`, subnormal,
//! overflowing, infinite, NaN) components — and independent of how the
//! caller reuses its [`HashScratch`]. Blocked advances of whole clusters
//! (phase 1 of [`apply_transitive`], records at mixed starting levels, on
//! one and two threads) leave every state equal to the scalar oracle's.

use adalsh_core::hashing::{HashPart, HashScratch, LevelScheme, RecordHashState, SequenceHasher};
use adalsh_core::stats::Stats;
use adalsh_core::transitive::apply_transitive;
use adalsh_data::{
    Dataset, DenseVector, FieldDistance, FieldKind, FieldValue, Record, Schema, ShingleSet,
};
use adalsh_lsh::scheme::WzScheme;
use proptest::prelude::*;

/// Advances `rec` along both paths through every level of `h` and
/// asserts the full hash state and the eval counter agree throughout,
/// then checks a direct 0→max jump agrees with the stepwise result.
fn check_paths_agree(
    h: &SequenceHasher,
    rec: &Record,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut scratch = HashScratch::default();
    let mut batched = RecordHashState::default();
    let mut scalar = RecordHashState::default();
    let (mut stb, mut sts) = (Stats::default(), Stats::default());
    for lvl in 1..=h.num_levels() {
        h.advance_with_scratch(rec, &mut batched, lvl, &mut stb, &mut scratch);
        h.advance_scalar(rec, &mut scalar, lvl, &mut sts);
        prop_assert_eq!(&batched, &scalar, "state diverged at level {}", lvl);
        prop_assert_eq!(
            stb.hash_evals,
            sts.hash_evals,
            "eval count at level {}",
            lvl
        );
    }
    let mut jump = RecordHashState::default();
    let mut stj = Stats::default();
    h.advance_with_scratch(rec, &mut jump, h.num_levels(), &mut stj, &mut scratch);
    prop_assert_eq!(&jump, &batched, "direct jump diverged from stepwise");
    prop_assert_eq!(stj.hash_evals, stb.hash_evals);
    Ok(())
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
    /// step once or not at all): every state and `Stats.hash_evals` equal
    /// advancing each record alone along the scalar path, for `Shared`
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
        let mut scalar = vec![RecordHashState::default(); n + 1];
        for (i, state) in scalar.iter_mut().enumerate() {
            let start = starts[i] % (top + 1);
            if start > 0 {
                h.advance_scalar(&d.records()[i], state, start, &mut Stats::default());
            }
        }
        let mut blocked = scalar.clone();
        // A heavy ladder's cluster goes to its heavy top level.
        let to_level = if heavy { top } else { 1 + to % top };
        let mut stb = Stats::default();
        let cluster: Vec<u32> = (0..n as u32).collect();
        apply_transitive(&h, &mut blocked, &d, &cluster, to_level, threads, None, None, &mut stb);
        let mut sts = Stats::default();
        for (rec, state) in d.records().iter().zip(&mut scalar[..n]) {
            h.advance_scalar(rec, state, to_level, &mut sts);
        }
        prop_assert_eq!(&blocked, &scalar);
        prop_assert_eq!(stb.hash_evals, sts.hash_evals);
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
                h.advance_with_scratch(rec, &mut s_reused[r], lvl, &mut st_reused, &mut reused);
                let mut fresh = HashScratch::default();
                h.advance_with_scratch(rec, &mut s_fresh[r], lvl, &mut st_fresh, &mut fresh);
            }
        }
        prop_assert_eq!(s_reused, s_fresh);
        prop_assert_eq!(st_reused, st_fresh);
    }
}
