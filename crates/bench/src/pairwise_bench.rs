//! Shared workloads for the `P` (pairwise verification) benchmarks —
//! used by both the Criterion bench (`benches/pairwise.rs`) and the
//! one-shot baseline recorder (`bin/bench_pairwise.rs`).
//!
//! Four regimes bracket `P`'s behaviour on a cluster of `n` records:
//!
//! * **match-dense** — one planted entity with high within-entity
//!   similarity under a Jaccard rule. Early merges transitively close
//!   all later pairs, so the run is dominated by `find_root` skips, not
//!   distance kernels; this is the regime adaLSH's Line-5 jump gate
//!   produces (a near-pure cluster handed to `P`).
//! * **match-sparse** — every record its own entity, an angular rule on
//!   dense vectors that almost never fires. All `n(n−1)/2` pairs run the
//!   distance kernel; this is the worst case charged by Definition 3 and
//!   the regime where the cached-norm kernel (one dot product instead of
//!   three) and multi-threaded evaluation pay off. Random 128-d
//!   directions all sit near 90° from any pivot, so the angular pivot
//!   bound rejects only pairs that hold a pivot: this is the regime that
//!   bypasses it.
//! * **shingle** — SpotSigs-like sets of ~110 tokens in entities of 8
//!   under a Jaccard rule, where most pairs share ~10 common tokens and
//!   fail. The Jaccard threshold kernel's bitmap bound rejects those
//!   before any merge; this is the shape of `P` on a dense shingle
//!   region.
//! * **clustered** — PopularImages-like 64-d histograms in entities of 8
//!   under an angular rule at 3°: records sit within about a degree of
//!   their entity's direction, entities tens of degrees apart. Most pairs
//!   fail, and the angular pivot bound rejects them before the dot
//!   product; this is the shape of `P` on a dense vector region.

use adalsh_data::{
    Dataset, DenseVector, FieldDistance, FieldKind, FieldValue, MatchRule, Record, Schema,
    ShingleSet,
};

/// Deterministic SplitMix64 — the benches must not depend on `rand`
/// being seeded the same way across versions.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4B9F9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Match-dense workload: one planted entity — every record keeps a
/// 30-token core and perturbs 3 tokens, so all pairs match under the
/// Jaccard rule. This is the cluster shape the Line-5 jump gate hands to
/// `P`: after the `n−1` spanning merges, the remaining `O(n²)` pairs are
/// transitively closed and only pay a `find_root`. Returns the dataset
/// and its rule.
pub fn match_dense(n: usize) -> (Dataset, MatchRule) {
    let mut rng = 0xD15EA5Eu64;
    let schema = Schema::single("s", FieldKind::Shingles);
    let records: Vec<Record> = (0..n)
        .map(|_| {
            let mut s: Vec<u64> = (0..30).collect();
            for x in s.iter_mut().take(3) {
                *x = splitmix(&mut rng) | (1 << 60);
            }
            Record::single(FieldValue::Shingles(ShingleSet::new(s)))
        })
        .collect();
    let gt = vec![0u32; n];
    (
        Dataset::new(schema, records, gt),
        MatchRule::threshold(0, FieldDistance::Jaccard, 0.4),
    )
}

/// Match-sparse workload: `n` singleton entities with 128-dimensional
/// dense vectors (embedding-sized) in near-random directions and an
/// angular rule tight enough that matches are rare. Returns the dataset
/// and its rule.
pub fn match_sparse(n: usize) -> (Dataset, MatchRule) {
    let mut rng = 0x5CA7E0u64;
    let schema = Schema::single("v", FieldKind::Dense);
    let records: Vec<Record> = (0..n)
        .map(|_| {
            let v: Vec<f64> = (0..128)
                .map(|_| (splitmix(&mut rng) % 2001) as f64 / 1000.0 - 1.0)
                .collect();
            Record::single(FieldValue::Dense(DenseVector::new(v)))
        })
        .collect();
    let gt = (0..n as u32).collect();
    (
        Dataset::new(schema, records, gt),
        // Random high-d directions concentrate near 90°; 0.2 (36°)
        // almost never fires, so every pair pays the full kernel.
        MatchRule::threshold(0, FieldDistance::Angular, 0.2),
    )
}

/// Shingle workload: `n` records in entities of 8, under the Jaccard
/// rule at distance 0.6. Each record keeps about 70 of its entity's 90
/// core tokens and draws 40 from a 150-token pool every entity shares
/// (SpotSigs' frequent signatures), so a record has ~110 tokens, pairs
/// inside an entity share ~65 (similarity ~0.4), and pairs across
/// entities share ~10 and fail. Returns the dataset and its rule.
pub fn match_shingle(n: usize) -> (Dataset, MatchRule) {
    const GROUP: usize = 8;
    let mut rng = 0x5B1A_6E5Eu64;
    let schema = Schema::single("s", FieldKind::Shingles);
    let records: Vec<Record> = (0..n)
        .map(|i| {
            let entity = (i / GROUP) as u64;
            let mut s: Vec<u64> = (0..90)
                .filter(|_| splitmix(&mut rng) % 9 < 7)
                .map(|t| ((entity + 1) << 20) | t)
                .collect();
            s.extend((0..40).map(|_| splitmix(&mut rng) % 150));
            Record::single(FieldValue::Shingles(ShingleSet::new(s)))
        })
        .collect();
    let gt = (0..n).map(|i| (i / GROUP) as u32).collect();
    (
        Dataset::new(schema, records, gt),
        MatchRule::threshold(0, FieldDistance::Jaccard, 0.6),
    )
}

/// Clustered workload: `n` 64-d histograms in entities of 8, under the
/// angular rule at 3° (`dthr = 3/180`). Each entity's direction has
/// components uniform in `[0, 1)`, so entities sit tens of degrees
/// apart; each record adds uniform noise of ±0.01 a component, about
/// half a degree, so pairs inside an entity match. Returns the dataset
/// and its rule.
pub fn match_clustered(n: usize) -> (Dataset, MatchRule) {
    const GROUP: usize = 8;
    const DIM: usize = 64;
    let mut rng = 0xC1A5_7E2Du64;
    let mut unit = move || (splitmix(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
    let bases: Vec<Vec<f64>> = (0..n.div_ceil(GROUP))
        .map(|_| (0..DIM).map(|_| unit()).collect())
        .collect();
    let schema = Schema::single("hist", FieldKind::Dense);
    let records: Vec<Record> = (0..n)
        .map(|i| {
            let v = bases[i / GROUP]
                .iter()
                .map(|x| x + 0.02 * unit() - 0.01)
                .collect();
            Record::single(FieldValue::Dense(DenseVector::new(v)))
        })
        .collect();
    let gt = (0..n).map(|i| (i / GROUP) as u32).collect();
    (
        Dataset::new(schema, records, gt),
        MatchRule::threshold(0, FieldDistance::Angular, 3.0 / 180.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use adalsh_core::oracle::ExactOracle;
    use adalsh_core::pairwise::{
        apply_pairwise, apply_pairwise_scalar, apply_pairwise_with, DEFAULT_PAIR_BLOCK,
    };
    use adalsh_core::stats::Stats;
    use adalsh_obs::{MemorySubscriber, TraceSink};
    use std::sync::Arc;

    #[test]
    fn regimes_have_the_intended_shape() {
        let n = 96;
        let ids: Vec<u32> = (0..n as u32).collect();
        let all_pairs = (n * (n - 1) / 2) as u64;

        let (d, rule) = match_dense(n);
        let mut st = Stats::default();
        let out = apply_pairwise(&d, &rule, &ids, 2, &mut st);
        assert_eq!(out.len(), 1, "dense regime is one entity");
        assert_eq!(
            st.pair_comparisons,
            (n - 1) as u64,
            "dense regime runs only the spanning comparisons"
        );

        let (d, rule) = match_sparse(n);
        let mut st = Stats::default();
        let out = apply_pairwise(&d, &rule, &ids, 2, &mut st);
        assert!(
            out.len() > n * 9 / 10,
            "sparse regime leaves almost everything unmerged ({} clusters)",
            out.len()
        );
        assert!(
            st.pair_comparisons > all_pairs * 9 / 10,
            "sparse regime evaluates almost every pair"
        );

        let (d, rule) = match_shingle(n);
        let sizes: Vec<usize> = d
            .records()
            .iter()
            .map(|r| r.field(0).as_shingles().len())
            .collect();
        let mean = sizes.iter().sum::<usize>() / n;
        assert!((95..=125).contains(&mean), "~110 tokens a set, got {mean}");
        let mut st = Stats::default();
        let (out, trace) = apply_pairwise_with(
            &d,
            &ExactOracle::new(&rule),
            &ids,
            None,
            2,
            DEFAULT_PAIR_BLOCK,
            None,
            &TraceSink::new(Arc::new(MemorySubscriber::new())),
            &mut st,
        );
        assert!(
            out.len() <= n / 8 + n / 16,
            "shingle regime recovers about one cluster per entity ({} clusters)",
            out.len()
        );
        assert!(
            st.pair_comparisons > all_pairs * 9 / 10,
            "most shingle pairs fail, so few are closed transitively"
        );
        assert!(
            trace.bound_rejects > trace.kernel_checks * 9 / 10,
            "the bitmap bound decides most shingle pairs: {trace:?}"
        );

        // The pivot bound fires on clustered histograms. Random
        // directions sit near 90° from every pivot, so it rejects only
        // pairs that hold a pivot itself.
        let traced = |(d, rule): (Dataset, MatchRule)| {
            let mut st = Stats::default();
            let (out, trace) = apply_pairwise_with(
                &d,
                &ExactOracle::new(&rule),
                &ids,
                None,
                2,
                DEFAULT_PAIR_BLOCK,
                None,
                &TraceSink::new(Arc::new(MemorySubscriber::new())),
                &mut st,
            );
            (out.len(), trace)
        };
        let (clusters, trace) = traced(match_clustered(n));
        assert_eq!(clusters, n / 8, "one cluster per entity");
        assert!(
            trace.bound_rejects > trace.kernel_checks * 8 / 10,
            "the pivot bound decides most clustered pairs: {trace:?}"
        );
        let (_, trace) = traced(match_sparse(n));
        assert!(
            trace.bound_rejects <= 4 * n as u64,
            "sparse bypasses the bound: {trace:?}"
        );
    }

    #[test]
    fn workloads_are_deterministic_and_match_scalar() {
        for (d, rule) in [
            match_dense(48),
            match_sparse(48),
            match_shingle(48),
            match_clustered(48),
        ] {
            let ids: Vec<u32> = (0..48).collect();
            let mut st_a = Stats::default();
            let a = apply_pairwise(&d, &rule, &ids, 3, &mut st_a);
            let mut st_b = Stats::default();
            let b = apply_pairwise_scalar(&d, &rule, &ids, &mut st_b);
            assert_eq!(a, b);
            assert_eq!(st_a, st_b);
        }
    }
}
