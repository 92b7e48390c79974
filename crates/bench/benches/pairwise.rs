//! Criterion benchmarks of the pairwise computation function `P` at
//! cluster sizes 256 / 1024 / 4096 in the four regimes of
//! [`adalsh_bench::pairwise_bench`]: match-dense (transitive skipping
//! dominates), match-sparse (every pair runs the distance kernel),
//! shingle (most pairs fail on the Jaccard bitmap bound) and clustered
//! (most pairs fail on the angular pivot bound).
//! Each size×regime point benches the scalar oracle and the
//! block-wavefront path, so `cargo bench -p adalsh-bench --bench
//! pairwise` directly shows the speedup.

use adalsh_bench::pairwise_bench::{match_clustered, match_dense, match_shingle, match_sparse};
use adalsh_core::algorithm::default_threads;
use adalsh_core::pairwise::{apply_pairwise, apply_pairwise_scalar};
use adalsh_core::stats::Stats;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_pairwise(c: &mut Criterion) {
    let threads = default_threads();
    let mut g = c.benchmark_group("pairwise_P");
    g.sample_size(10);
    for &n in &[256usize, 1024, 4096] {
        for (regime, (dataset, rule)) in [
            ("dense", match_dense(n)),
            ("sparse", match_sparse(n)),
            ("shingle", match_shingle(n)),
            ("clustered", match_clustered(n)),
        ] {
            let ids: Vec<u32> = (0..n as u32).collect();
            g.throughput(Throughput::Elements((n * (n - 1) / 2) as u64));
            g.bench_function(format!("scalar/{regime}/{n}"), |b| {
                b.iter(|| {
                    let mut stats = Stats::default();
                    black_box(apply_pairwise_scalar(
                        &dataset,
                        &rule,
                        black_box(&ids),
                        &mut stats,
                    ))
                })
            });
            g.bench_function(format!("wavefront/{regime}/{n}"), |b| {
                b.iter(|| {
                    let mut stats = Stats::default();
                    black_box(apply_pairwise(
                        &dataset,
                        &rule,
                        black_box(&ids),
                        threads,
                        &mut stats,
                    ))
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_pairwise);
criterion_main!(benches);
