//! `P` baseline recorder: times the block-wavefront path at cluster
//! sizes 256 / 1024 / 4096 in the match-dense, match-sparse, shingle and
//! clustered regimes and writes wall-clock seconds per `P` application to
//! `BENCH_pairwise.json` at the workspace root.
//!
//! Like `bench_kernels`, this is a one-shot recorder producing a small
//! machine-readable baseline that can be committed and diffed across
//! optimization PRs:
//!
//! ```sh
//! cargo run --release -p adalsh-bench --bin bench_pairwise
//! cargo run --release -p adalsh-bench --bin bench_pairwise -- --smoke --out /tmp/pairwise.json
//! ```
//!
//! `--smoke` (used by `ci.sh --bench-smoke`) runs only the 256-record
//! size and does not overwrite the committed baseline. `--out <path>`
//! writes the JSON to `<path>` in either mode; because the smoke size is
//! one of the baseline's, CI diffs a fresh smoke run against the
//! committed file with `adalsh bench diff`. Keys are
//! `wavefront_seconds/<regime>/<n>` (lower is better). The scalar
//! reference `apply_pairwise_scalar` is compared against in the tests
//! and the Criterion bench (`benches/pairwise.rs`), not here.

use adalsh_bench::pairwise_bench::{match_clustered, match_dense, match_shingle, match_sparse};
use adalsh_bench::recorder::{out_arg, provenance_fields};
use adalsh_core::algorithm::default_threads;
use adalsh_core::pairwise::apply_pairwise;
use adalsh_core::stats::Stats;
use adalsh_data::{Dataset, MatchRule};
use std::hint::black_box;
use std::time::Instant;

/// Times one full `P` application, repeated after one warmup run until
/// ≥ 2 iterations and ≥ 0.4 s have elapsed. Returns seconds per run.
fn measure(mut f: impl FnMut()) -> f64 {
    f();
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        if iters >= 2 && start.elapsed().as_secs_f64() > 0.4 {
            break;
        }
    }
    start.elapsed().as_secs_f64() / iters as f64
}

fn time_wavefront(dataset: &Dataset, rule: &MatchRule, threads: usize) -> f64 {
    let ids: Vec<u32> = (0..dataset.len() as u32).collect();
    measure(|| {
        let mut stats = Stats::default();
        black_box(apply_pairwise(
            dataset,
            rule,
            black_box(&ids),
            threads,
            &mut stats,
        ));
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = out_arg(&args);
    let sizes: &[usize] = if smoke { &[256] } else { &[256, 1024, 4096] };
    let threads = default_threads();

    let mut rows: Vec<(String, f64)> = Vec::new();
    for &n in sizes {
        for (regime, (dataset, rule)) in [
            ("dense", match_dense(n)),
            ("sparse", match_sparse(n)),
            ("shingle", match_shingle(n)),
            ("clustered", match_clustered(n)),
        ] {
            let wavefront = time_wavefront(&dataset, &rule, threads);
            println!("{regime:>9}/{n:<5} wavefront {wavefront:>9.5}s");
            rows.push((format!("{regime}/{n}"), wavefront));
        }
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"_meta\": {{ \"threads\": {threads}, \"unit\": \"seconds per P application\", {} }}",
        provenance_fields()
    ));
    for (name, wavefront) in &rows {
        json.push_str(&format!(
            ",\n  \"wavefront_seconds/{name}\": {wavefront:.6}"
        ));
    }
    json.push_str("\n}\n");

    if let Some(path) = &out_path {
        std::fs::write(path, &json).expect("write --out");
        println!("wrote {path}");
    }
    if smoke {
        println!("smoke mode: baseline not written");
        return;
    }
    let path = "BENCH_pairwise.json";
    std::fs::write(path, &json).expect("write baseline");
    println!("wrote {path}");
}
