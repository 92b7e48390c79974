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

/// `P` itself on a mapped store: the Jaccard kernel's bitmap sketches
/// and the angular kernel's pivot angles come from the same bytes in
/// the file as in RAM. So clusters, `Stats`, the ledger and the kernel
/// tally (bound rejects included) are identical at any thread count,
/// block size and ledger, traced or not, and clusters and `Stats` equal
/// the scalar reference's, which takes no bound. On both the shingle
/// and the clustered dense case the bound decides pairs.
#[test]
fn pairwise_p_is_bit_identical_across_paths() {
    use adalsh_core::oracle::{ExactOracle, SpendLedger};
    use adalsh_core::pairwise::{apply_pairwise_scalar, apply_pairwise_with};
    use adalsh_core::stats::Stats;
    use adalsh_obs::{MemorySubscriber, TraceSink};
    use std::sync::Arc;

    let shingles = spotsigs::generate(&SpotSigsConfig {
        num_records: 220,
        num_entities: 25,
        seed: 5,
        ..SpotSigsConfig::default()
    });
    let dense = popimages::generate(&PopImagesConfig {
        num_records: 240,
        num_entities: 30,
        seed: 5,
        ..PopImagesConfig::default()
    });
    let cases = [
        ("jaccard", shingles, spotsigs::match_rule(0.6)),
        ("angular", dense, popimages::match_rule(3.0)),
    ];
    for (tag, dataset, rule) in &cases {
        let path = tmp_store_path(&format!("pairwise_{tag}"));
        write_store(&path, dataset).unwrap();
        let view = StoreView::open(&path).unwrap();
        let ids: Vec<u32> = (0..dataset.len() as u32).step_by(2).collect();
        let mut st_scalar = Stats::default();
        let mut scalar = apply_pairwise_scalar(dataset, rule, &ids, &mut st_scalar);
        scalar.iter_mut().for_each(|c| c.sort_unstable());
        scalar.sort();
        assert!(scalar.len() < ids.len(), "{tag}: some pairs match");
        for threads in [1, 2] {
            for block in [1, 7, 4096] {
                for settle in [false, true] {
                    for traced in [false, true] {
                        let case =
                            format!("{tag} t={threads} b={block} ledger={settle} traced={traced}");
                        let run = |store: &dyn RecordStore| {
                            let sink = if traced {
                                TraceSink::new(Arc::new(MemorySubscriber::new()))
                            } else {
                                TraceSink::disabled()
                            };
                            let mut ledger = SpendLedger::new(None);
                            let mut st = Stats::default();
                            let (mut out, trace) = apply_pairwise_with(
                                store,
                                &ExactOracle::new(rule),
                                &ids,
                                None,
                                threads,
                                block,
                                settle.then_some(&mut ledger),
                                &sink,
                                &mut st,
                            );
                            out.iter_mut().for_each(|c| c.sort_unstable());
                            out.sort();
                            (out, st, trace, ledger.into_spend())
                        };
                        let (ram, mapped) = (run(dataset), run(&view));
                        assert_eq!(ram, mapped, "{case}");
                        assert_eq!((&ram.0, ram.1), (&scalar, st_scalar), "{case}");
                        let settled = if settle { ram.1.pair_comparisons } else { 0 };
                        assert_eq!(ram.3.calls, settled, "{case}");
                        if traced {
                            assert!(ram.2.bound_rejects > 0, "the bound decides pairs: {case}");
                        }
                    }
                }
            }
        }
        drop(view);
        std::fs::remove_file(&path).ok();
    }
}

/// Rule recovery runs every comparison through one slot table, pivot
/// angles included: on both backings it pulls in exactly the records a
/// plain walk over [`MatchRule::matches`] does, and counts the same
/// comparisons.
#[test]
fn rule_recovery_is_bit_identical_across_paths() {
    use adalsh_core::recovery::rule_recovery;
    use adalsh_core::stats::Stats;

    let dataset = popimages::generate(&PopImagesConfig {
        num_records: 240,
        num_entities: 30,
        seed: 9,
        ..PopImagesConfig::default()
    });
    let rule = popimages::match_rule(3.0);
    let path = tmp_store_path("recovery");
    write_store(&path, &dataset).unwrap();
    let view = StoreView::open(&path).unwrap();
    // Half of each of the five largest entities, so the other half is
    // there to recover.
    let clusters: Vec<Vec<u32>> = dataset
        .ground_truth_clusters()
        .into_iter()
        .take(5)
        .map(|c| c[..c.len().div_ceil(2)].to_vec())
        .collect();

    // The reference: the same scan, one owned-record match at a time.
    let mut reference = clusters.clone();
    let mut comparisons = 0u64;
    let included: std::collections::HashSet<u32> = clusters.iter().flatten().copied().collect();
    for r in (0..dataset.len() as u32).filter(|r| !included.contains(r)) {
        'next: for cluster in reference.iter_mut() {
            for i in 0..cluster.len() {
                comparisons += 1;
                if rule.matches(dataset.record(r), dataset.record(cluster[i])) {
                    cluster.push(r);
                    break 'next;
                }
            }
        }
    }
    reference.iter_mut().for_each(|c| c.sort_unstable());
    reference.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
    assert!(
        reference.iter().map(Vec::len).sum::<usize>() > included.len(),
        "recovery pulls records in"
    );

    for store in [&dataset as &dyn RecordStore, &view] {
        let mut stats = Stats::default();
        let recovered = rule_recovery(store, &rule, &clusters, &mut stats);
        assert_eq!(recovered, reference, "{}", store.source());
        assert_eq!(stats.pair_comparisons, comparisons, "{}", store.source());
    }
    drop(view);
    std::fs::remove_file(&path).ok();
}
