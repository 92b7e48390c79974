//! Criterion microbenchmarks of the building blocks: the parent-pointer
//! forest, the bin index, the elementary hash families, incremental
//! advancement, transitive hashing, and pairwise computation. These are
//! the per-operation costs the paper's cost model (Definition 3)
//! abstracts as `costᵢ` and `cost_P`.

use adalsh_core::bins::BinIndex;
use adalsh_core::hashing::{HashPart, LevelScheme, RecordHashState, SequenceHasher};
use adalsh_core::pairwise::apply_pairwise;
use adalsh_core::ppt::Forest;
use adalsh_core::stats::Stats;
use adalsh_core::transitive::apply_transitive;
use adalsh_data::{
    Dataset, FieldDistance, FieldKind, FieldValue, MatchRule, Record, Schema, ShingleSet,
};
use adalsh_lsh::{HyperplaneFamily, HyperplanePanel, MinHashFamily};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn shingle_dataset(n: usize, set_size: usize, seed: u64) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let schema = Schema::single("s", FieldKind::Shingles);
    // Ten entities; within-entity sets share 90% of their tokens.
    let records: Vec<Record> = (0..n)
        .map(|i| {
            let e = i % 10;
            let mut s: Vec<u64> = (0..set_size as u64)
                .map(|j| (e as u64) * 100_000 + j)
                .collect();
            for x in s.iter_mut().take(set_size / 10) {
                *x = rng.random();
            }
            Record::single(FieldValue::Shingles(ShingleSet::new(s)))
        })
        .collect();
    let gt = (0..n).map(|i| (i % 10) as u32).collect();
    Dataset::new(schema, records, gt)
}

fn bench_forest(c: &mut Criterion) {
    let mut g = c.benchmark_group("forest");
    for &n in &[1_000usize, 10_000] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("merge_chain/{n}"), |b| {
            b.iter_batched(
                || Forest::new(n),
                |mut f| {
                    let mut root = f.add_singleton(0);
                    for s in 1..n as u32 {
                        let leaf = f.add_singleton(s);
                        root = f.merge_roots(root, leaf);
                    }
                    black_box(f.cluster_size(root))
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_function(format!("find_root_compressed/{n}"), |b| {
            let mut f = Forest::new(n);
            let mut root = f.add_singleton(0);
            for s in 1..n as u32 {
                let leaf = f.add_singleton(s);
                root = f.merge_roots(root, leaf);
            }
            let leaf = f.leaf_of(0).unwrap();
            b.iter(|| black_box(f.find_root(black_box(leaf))))
        });
    }
    g.finish();
}

fn bench_bins(c: &mut Criterion) {
    let mut g = c.benchmark_group("bins");
    let sizes: Vec<u32> = {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        (0..10_000).map(|_| rng.random_range(1..100_000)).collect()
    };
    g.throughput(Throughput::Elements(sizes.len() as u64));
    g.bench_function("push_pop_10k", |b| {
        b.iter(|| {
            let mut idx = BinIndex::new();
            for (i, &s) in sizes.iter().enumerate() {
                idx.push(s, i as u32);
            }
            let mut acc = 0u64;
            while let Some(e) = idx.pop_largest() {
                acc += u64::from(e.size);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_families(c: &mut Criterion) {
    let mut g = c.benchmark_group("families");
    let set: Vec<u64> = (0..120).collect();
    let fam = MinHashFamily::new(3);
    g.bench_function("minhash_120", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % 1024;
            black_box(fam.hash(i, black_box(&set)))
        })
    });
    let v: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut hp = HyperplaneFamily::new(64, 3);
    hp.ensure_functions(1024);
    g.bench_function("hyperplane_64d", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % 1024;
            black_box(hp.hash(i, black_box(&v)))
        })
    });
    g.finish();
}

/// Scalar-vs-batched MinHash at batch widths 16 / 128 / 1024: `width`
/// functions over one 120-shingle set, the workload shape of a table
/// group's advance step. The batched kernel makes ONE pass over the set.
fn bench_minhash_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("minhash_batch");
    let set: Vec<u64> = (0..120).collect();
    let fam = MinHashFamily::new(3);
    for &width in &[16usize, 128, 1024] {
        let idx: Vec<usize> = (0..width).collect();
        g.throughput(Throughput::Elements(width as u64));
        g.bench_function(format!("scalar/{width}"), |b| {
            let mut out = vec![0u64; width];
            b.iter(|| {
                for (o, &i) in out.iter_mut().zip(&idx) {
                    *o = fam.hash(i, black_box(&set));
                }
                black_box(out[width - 1])
            })
        });
        g.bench_function(format!("batched/{width}"), |b| {
            let mut out = vec![0u64; width];
            b.iter(|| {
                fam.hash_batch(&idx, black_box(&set), &mut out);
                black_box(out[width - 1])
            })
        });
    }
    g.finish();
}

/// Verification-kernel A/B: the flat 4-accumulator dot product (through
/// the self-dot of `vector::norm`) against a sequential fold, and the
/// branch-light merge intersection against galloping, on workload-shaped
/// inputs (64-dim histogram vectors, ~120-shingle sets).
fn bench_distance_kernels(c: &mut Criterion) {
    use adalsh_data::shingle::{intersection_size_galloping, intersection_size_merge};
    use adalsh_data::vector;
    let mut g = c.benchmark_group("distance_kernels");
    let a: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
    g.bench_function("norm_flat_64d", |bch| {
        bch.iter(|| black_box(vector::norm(black_box(&a))))
    });
    g.bench_function("norm_sequential_64d", |bch| {
        bch.iter(|| {
            let s: f64 = black_box(&a).iter().map(|x| x * x).sum();
            black_box(s.sqrt())
        })
    });
    let sa: Vec<u64> = (0..240).map(|i| i * 3).collect();
    let sb: Vec<u64> = (0..240).map(|i| i * 4 + 1).collect();
    g.bench_function("intersect_merge_240", |bch| {
        bch.iter(|| black_box(intersection_size_merge(black_box(&sa), black_box(&sb))))
    });
    g.bench_function("intersect_gallop_240", |bch| {
        bch.iter(|| black_box(intersection_size_galloping(black_box(&sa), black_box(&sb))))
    });
    g.finish();
}

/// Scalar-vs-batched hyperplane signs at batch widths 16 / 128 / 1024
/// over one 64-dim vector: one row-major dot product per call against
/// the block-major panel kernel over the same functions.
fn bench_hyperplane_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("hyperplane_batch");
    let v: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut hp = HyperplaneFamily::new(64, 3);
    hp.ensure_functions(1024);
    for &width in &[16usize, 128, 1024] {
        let idx: Vec<usize> = (0..width).collect();
        g.throughput(Throughput::Elements(width as u64));
        g.bench_function(format!("scalar/{width}"), |b| {
            let mut out = vec![0u64; width];
            b.iter(|| {
                for (o, &i) in out.iter_mut().zip(&idx) {
                    *o = hp.hash(i, black_box(&v));
                }
                black_box(out[width - 1])
            })
        });
        let functions: Vec<(u64, u64)> = idx.iter().map(|&i| (3, i as u64)).collect();
        let panel = HyperplanePanel::new(64, &functions);
        g.bench_function(format!("batched/{width}"), |b| {
            let mut out = vec![0u64; width];
            b.iter(|| {
                panel.hash_all(&[black_box(&v)], &mut out);
                black_box(out[width - 1])
            })
        });
    }
    g.finish();
}

fn test_levels() -> Vec<LevelScheme> {
    vec![
        LevelScheme::Shared { ws: vec![1], z: 20 },
        LevelScheme::Shared { ws: vec![2], z: 20 },
        LevelScheme::Shared { ws: vec![2], z: 40 },
        LevelScheme::Shared { ws: vec![3], z: 53 },
    ]
}

fn bench_incremental_advance(c: &mut Criterion) {
    use adalsh_core::hashing::HashScratch;
    let mut g = c.benchmark_group("advance");
    let dataset = shingle_dataset(64, 120, 9);
    g.bench_function("level1_to_4_per_record", |b| {
        b.iter_batched(
            || {
                (
                    SequenceHasher::new(vec![HashPart::shingles(0, 7)], test_levels()),
                    vec![RecordHashState::default(); dataset.len()],
                    Stats::default(),
                )
            },
            |(hasher, mut states, mut stats)| {
                let mut scratch = HashScratch::default();
                for i in 0..dataset.len() as u32 {
                    hasher.advance_records(
                        std::slice::from_ref(dataset.record(i)),
                        std::slice::from_mut(&mut states[i as usize]),
                        4,
                        &mut stats,
                        &mut scratch,
                    );
                }
                black_box(stats.hash_evals)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_transitive_and_pairwise(c: &mut Criterion) {
    let mut g = c.benchmark_group("functions");
    g.sample_size(20);
    let dataset = shingle_dataset(500, 120, 13);
    let ids: Vec<u32> = (0..500).collect();
    g.bench_function("transitive_H1_500rec", |b| {
        b.iter_batched(
            || {
                (
                    SequenceHasher::new(vec![HashPart::shingles(0, 7)], test_levels()),
                    vec![RecordHashState::default(); dataset.len()],
                    Stats::default(),
                )
            },
            |(hasher, mut states, mut stats)| {
                black_box(apply_transitive(
                    &hasher,
                    &mut states,
                    &dataset,
                    &ids,
                    1,
                    1,
                    None,
                    None,
                    &mut stats,
                ))
            },
            BatchSize::SmallInput,
        )
    });
    let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.4);
    let small: Vec<u32> = (0..120).collect();
    g.bench_function("pairwise_P_120rec", |b| {
        b.iter(|| {
            let mut stats = Stats::default();
            black_box(apply_pairwise(&dataset, &rule, &small, 1, &mut stats))
        })
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    use adalsh_core::algorithm::{AdaLsh, AdaLshConfig, FilterMethod};
    use adalsh_core::baselines::LshBlocking;
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    let dataset = adalsh_datagen::spotsigs::generate(&adalsh_datagen::SpotSigsConfig {
        num_entities: 60,
        num_records: 400,
        ..adalsh_datagen::SpotSigsConfig::default()
    });
    let rule = adalsh_datagen::spotsigs::match_rule(0.4);
    g.bench_function("adalsh_400rec_k5", |b| {
        b.iter(|| {
            let mut engine =
                AdaLsh::for_dataset(&dataset, AdaLshConfig::new(rule.clone())).unwrap();
            black_box(engine.run(&dataset, 5).clusters.len())
        })
    });
    g.bench_function("lsh640_400rec_k5", |b| {
        b.iter(|| {
            let mut m = LshBlocking::new(rule.clone(), 640);
            black_box(m.filter(&dataset, 5).clusters.len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_forest,
    bench_bins,
    bench_families,
    bench_minhash_batch,
    bench_hyperplane_batch,
    bench_distance_kernels,
    bench_incremental_advance,
    bench_transitive_and_pairwise,
    bench_end_to_end,
);
criterion_main!(benches);
