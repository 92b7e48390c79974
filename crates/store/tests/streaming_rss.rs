//! Out-of-core gate: streaming a scale-tier store through
//! [`StoreBuilder`] must peak below the footprint of the same records
//! materialized as an in-RAM [`Dataset`].
//!
//! Peak RSS is the process-wide `VmHWM` from `/proc/self/status`, reset
//! between phases through `/proc/self/clear_refs`, so this test lives in
//! its own binary: any other test running beside it would pollute the
//! marks. It is `#[ignore]`d because the comparison only means something
//! in a release build:
//!
//! ```sh
//! cargo test --release -p adalsh-store --test streaming_rss -- --ignored
//! ```

use adalsh_core::algorithm::{AdaLsh, AdaLshConfig};
use adalsh_data::{Dataset, RecordStore};
use adalsh_datagen::{scale_match_rule, ScaleConfig, ScaleGenerator};
use adalsh_store::{StoreBuilder, StoreView};

/// The process's peak resident set size in bytes (`VmHWM`).
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kib: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kib * 1024
}

/// Resets the peak-RSS high-water mark so the next [`peak_rss_bytes`]
/// read is attributable to the phase that follows. Best-effort: where
/// `clear_refs` is not writable the marks stay monotone across phases,
/// which only makes the later (materialized) phase look larger.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[test]
#[ignore = "release-only RSS gate; run by ci.sh --bench-smoke"]
fn streaming_ingest_peaks_below_materialized_footprint() {
    let path =
        std::env::temp_dir().join(format!("adalsh_streaming_rss_{}.store", std::process::id()));

    // Phase 1: streaming ingest.
    reset_peak_rss();
    let generator = ScaleGenerator::new(ScaleConfig {
        records: 10_000,
        seed: 0x5CA1E,
        ..ScaleConfig::default()
    });
    let mut builder = StoreBuilder::create(&path, generator.schema()).unwrap();
    for (record, entity) in generator {
        builder.push(&record, entity).unwrap();
    }
    builder.finish().unwrap();
    let ingest_peak = peak_rss_bytes();

    // Phase 2: filter straight off the memory mapping.
    reset_peak_rss();
    let view = StoreView::open(&path).unwrap();
    let mut ada = AdaLsh::for_dataset(&view, AdaLshConfig::new(scale_match_rule())).unwrap();
    let output = ada.run(&view, 10);
    assert!(!output.clusters.is_empty());

    // Phase 3: materialize the whole store in RAM.
    reset_peak_rss();
    let dataset = Dataset::new(
        view.schema().clone(),
        (0..view.len() as u32)
            .map(|id| view.materialize(id))
            .collect(),
        (0..view.len() as u32)
            .map(|id| view.entity_of(id))
            .collect(),
    );
    let materialized_peak = peak_rss_bytes();
    drop(dataset);
    drop(view);
    std::fs::remove_file(&path).ok();

    // Both phases share the same process baseline, so the comparison
    // cancels it out.
    assert!(
        ingest_peak < materialized_peak,
        "streaming ingest peaked at {ingest_peak} bytes, not below the {materialized_peak} \
         bytes it takes to materialize the same store in RAM"
    );
}
