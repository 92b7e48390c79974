//! Kernel baseline recorder: times the scalar and batched MinHash /
//! hyperplane kernels at batch widths 16 / 128 / 1024 and writes
//! per-kernel throughput (ops/sec, one op = one hash-function
//! evaluation) to `BENCH_kernels.json` at the workspace root.
//!
//! Unlike the Criterion benches (`cargo bench -p adalsh-bench`), this is
//! a one-shot recorder producing a small machine-readable baseline that
//! can be committed and diffed across optimization PRs:
//!
//! ```sh
//! cargo run --release -p adalsh-bench --bin bench_kernels
//! cargo run --release -p adalsh-bench --bin bench_kernels -- --smoke --out /tmp/kernels.json
//! ```
//!
//! `--smoke` (used by `ci.sh --bench-smoke`) measures only width 128 with
//! shortened timing windows and does not overwrite the committed
//! baseline. `--out <path>` writes the JSON to `<path>` in either mode;
//! because width 128 is one of the baseline's, CI diffs a fresh smoke
//! run against the committed file with `adalsh bench diff`. Keys are
//! `<kernel>_per_sec/<width>` (higher is better). The hyperplane batch
//! rows time [`HyperplanePanel::hash_all`] over a panel of `width`
//! functions, the kernel a sequence level runs, one vector a call; the
//! hyperplane block rows time the same call on a block of
//! [`PANEL_RECORDS`] vectors, the shape a blocked level advance uses
//! (one op is still one function on one vector).

use adalsh_bench::recorder::{out_arg, provenance_fields};
use adalsh_lsh::{HyperplaneFamily, HyperplanePanel, MinHashFamily, PANEL_RECORDS};
use std::hint::black_box;
use std::time::Instant;

const WIDTHS: [usize; 3] = [16, 128, 1024];
const SET_SIZE: usize = 120;
const DIM: usize = 64;

/// Runs `f` (which performs `ops_per_iter` hash evaluations) repeatedly
/// for at least ~`window` seconds after warmup and returns ops/sec.
fn measure(ops_per_iter: usize, window: f64, mut f: impl FnMut()) -> f64 {
    for _ in 0..16 {
        f();
    }
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        if iters.is_multiple_of(16) && start.elapsed().as_secs_f64() > window {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (iters as f64 * ops_per_iter as f64) / secs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = out_arg(&args);
    let widths: &[usize] = if smoke { &[128] } else { &WIDTHS };
    let window = if smoke { 0.05 } else { 0.3 };

    let set: Vec<u64> = (0..SET_SIZE as u64).collect();
    let mh = MinHashFamily::new(3);
    let v: Vec<f64> = (0..DIM).map(|i| (i as f64 * 0.37).sin()).collect();
    let vs: Vec<Vec<f64>> = (0..PANEL_RECORDS)
        .map(|r| {
            (0..DIM)
                .map(|i| (i as f64 * 0.37 + r as f64).sin())
                .collect()
        })
        .collect();
    let mut hp = HyperplaneFamily::new(DIM, 3);
    hp.ensure_functions(*WIDTHS.iter().max().unwrap());

    let mut rows: Vec<(String, f64)> = Vec::new();
    for &width in widths {
        let idx: Vec<usize> = (0..width).collect();
        let mut out = vec![0u64; width];

        let ops = measure(width, window, || {
            for (o, &i) in out.iter_mut().zip(&idx) {
                *o = mh.hash(i, black_box(&set));
            }
            black_box(out[width - 1]);
        });
        rows.push((format!("minhash_scalar_per_sec/{width}"), ops));

        let ops = measure(width, window, || {
            mh.hash_batch(&idx, black_box(&set), &mut out);
            black_box(out[width - 1]);
        });
        rows.push((format!("minhash_batch_per_sec/{width}"), ops));

        let ops = measure(width, window, || {
            for (o, &i) in out.iter_mut().zip(&idx) {
                *o = hp.hash(i, black_box(&v));
            }
            black_box(out[width - 1]);
        });
        rows.push((format!("hyperplane_scalar_per_sec/{width}"), ops));

        let functions: Vec<(u64, u64)> = idx.iter().map(|&i| (3, i as u64)).collect();
        let panel = HyperplanePanel::new(DIM, &functions);
        let ops = measure(width, window, || {
            panel.hash_all(&[black_box(&v)], &mut out);
            black_box(out[width - 1]);
        });
        rows.push((format!("hyperplane_batch_per_sec/{width}"), ops));

        let mut block_out = vec![0u64; PANEL_RECORDS * width];
        let ops = measure(PANEL_RECORDS * width, window, || {
            let block: [&[f64]; PANEL_RECORDS] = std::array::from_fn(|r| &vs[r][..]);
            panel.hash_all(black_box(&block), &mut block_out);
            black_box(block_out[PANEL_RECORDS * width - 1]);
        });
        rows.push((format!("hyperplane_block_per_sec/{width}"), ops));
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"_meta\": {{ \"set_size\": {SET_SIZE}, \"dim\": {DIM}, \
         \"unit\": \"hash evaluations per second\", {} }}",
        provenance_fields()
    ));
    for (name, ops) in &rows {
        json.push_str(&format!(",\n  \"{name}\": {:.0}", ops));
    }
    json.push_str("\n}\n");
    println!("{json}");

    let get = |n: &str, w: usize| {
        rows.iter()
            .find(|(name, _)| name == &format!("{n}_per_sec/{w}"))
            .map(|&(_, o)| o)
            .unwrap_or(f64::NAN)
    };
    for &w in widths {
        println!(
            "width {w:>4}: minhash batched/scalar = {:.2}x, hyperplane batched/scalar = {:.2}x",
            get("minhash_batch", w) / get("minhash_scalar", w),
            get("hyperplane_batch", w) / get("hyperplane_scalar", w),
        );
    }

    if let Some(path) = &out_path {
        std::fs::write(path, &json).expect("write --out");
        println!("wrote {path}");
    }
    if smoke {
        println!("smoke mode: baseline not written");
        return;
    }
    let path = "BENCH_kernels.json";
    std::fs::write(path, &json).expect("write baseline");
    println!("wrote {path}");
}
