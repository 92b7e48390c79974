//! Differential tests: the engine must produce **bit-identical** output
//! — clusters and run [`Stats`], including the f64 modeled cost — when
//! resolving off a memory-mapped store file instead of the in-RAM
//! [`Dataset`] it was built from. Pinned across rule kinds (Jaccard
//! threshold, angular threshold, multi-field weighted-average AND) and
//! thread counts, for adaLSH proper and the pairwise baseline, and for
//! a store streamed from the scale generator through [`StoreBuilder`].

use adalsh_core::algorithm::{default_threads, AdaLsh, AdaLshConfig, FilterMethod, FilterOutput};
use adalsh_core::baselines::Pairs;
use adalsh_data::{Dataset, MatchRule, RecordStore};
use adalsh_datagen::{cora, popimages, scale_match_rule, spotsigs};
use adalsh_datagen::{CoraConfig, PopImagesConfig, ScaleConfig, ScaleGenerator, SpotSigsConfig};
use adalsh_store::{write_store, StoreBuilder, StoreView};

fn tmp_store_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("adalsh_diff_{tag}_{}.store", std::process::id()))
}

fn run_adalsh(store: &dyn RecordStore, rule: &MatchRule, threads: usize, k: usize) -> FilterOutput {
    let mut config = AdaLshConfig::new(rule.clone());
    config.threads = threads;
    let mut ada = AdaLsh::for_dataset(store, config).expect("sequence design");
    ada.run(store, k)
}

fn assert_outputs_identical(ram: &FilterOutput, mapped: &FilterOutput, what: &str) {
    assert_eq!(ram.clusters, mapped.clusters, "{what}: clusters diverged");
    assert_eq!(ram.stats, mapped.stats, "{what}: stats diverged");
    assert_eq!(
        ram.stats.modeled_cost.to_bits(),
        mapped.stats.modeled_cost.to_bits(),
        "{what}: modeled cost not bit-identical"
    );
}

/// Runs adaLSH on the dataset and on its store file across thread
/// counts, plus the pairwise baseline, and demands bit-identity.
fn differential(dataset: &Dataset, rule: &MatchRule, k: usize, tag: &str) {
    let path = tmp_store_path(tag);
    write_store(&path, dataset).unwrap();
    let view = StoreView::open(&path).unwrap();
    assert_eq!(view.source(), "store");
    assert_eq!(dataset.source(), "ram");

    for threads in [1, 2, 4] {
        let ram = run_adalsh(dataset, rule, threads, k);
        let mapped = run_adalsh(&view, rule, threads, k);
        assert_outputs_identical(&ram, &mapped, &format!("{tag}/adalsh t={threads}"));
    }

    let ram = Pairs::new(rule.clone()).filter(dataset, k);
    let mapped = Pairs::new(rule.clone()).filter(&view, k);
    assert_outputs_identical(&ram, &mapped, &format!("{tag}/pairs"));

    drop(view);
    std::fs::remove_file(&path).ok();
}

/// SpotSigs: single shingle field under a Jaccard-threshold rule.
#[test]
fn jaccard_rule_is_bit_identical_across_paths() {
    let dataset = spotsigs::generate(&SpotSigsConfig {
        num_records: 260,
        num_entities: 40,
        seed: 7,
        ..SpotSigsConfig::default()
    });
    differential(&dataset, &spotsigs::match_rule(0.6), 5, "spotsigs");
}

/// PopImages: dense vectors under an angular-threshold rule — the path
/// that exercises the norm cache hardest.
#[test]
fn angular_rule_is_bit_identical_across_paths() {
    let dataset = popimages::generate(&PopImagesConfig {
        num_records: 300,
        num_entities: 45,
        seed: 11,
        ..PopImagesConfig::default()
    });
    differential(&dataset, &popimages::match_rule(3.0), 5, "popimages");
}

/// Cora: multi-field records under the weighted-average AND rule.
#[test]
fn multi_field_rule_is_bit_identical_across_paths() {
    let (dataset, _) = cora::generate(&CoraConfig {
        num_records: 240,
        num_entities: 45,
        seed: 13,
        ..CoraConfig::default()
    });
    differential(&dataset, &cora::match_rule(), 5, "cora");
}

/// Scale tier: 10^4 Zipf records streamed through [`StoreBuilder`] one
/// at a time, as `adalsh datagen` writes them, against the same stream
/// collected into a [`Dataset`].
#[test]
fn streamed_scale_store_is_bit_identical_to_ram() {
    let generator = ScaleGenerator::new(ScaleConfig {
        records: 10_000,
        seed: 0x5CA1E,
        ..ScaleConfig::default()
    });
    let schema = generator.schema();
    let path = tmp_store_path("scale");
    let mut builder = StoreBuilder::create(&path, schema.clone()).unwrap();
    let (mut records, mut entities) = (Vec::new(), Vec::new());
    for (record, entity) in generator {
        builder.push(&record, entity).unwrap();
        records.push(record);
        entities.push(entity);
    }
    builder.finish().unwrap();
    let dataset = Dataset::new(schema, records, entities);
    let view = StoreView::open(&path).unwrap();

    let rule = scale_match_rule();
    let ram = run_adalsh(&dataset, &rule, default_threads(), 10);
    let mapped = run_adalsh(&view, &rule, default_threads(), 10);
    assert_outputs_identical(&ram, &mapped, "scale/adalsh");

    drop(view);
    std::fs::remove_file(&path).ok();
}
