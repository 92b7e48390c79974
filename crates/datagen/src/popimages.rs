//! PopularImages-like dataset (paper §6.3, §7.4.2).
//!
//! The real PopularImages datasets are 3 × 10000 images — transformed
//! copies (crop/scale/re-center) of 500 popular originals — compared by
//! the cosine distance of RGB histograms at 2°/3°/5° thresholds, with
//! Zipf exponents 1.05 / 1.1 / 1.2 controlling the entity sizes. This
//! generator reproduces the two properties §7.4.2 leans on:
//!
//! * **near-threshold clutter** — "for almost every image, there are
//!   images that refer to a different entity but have a similar
//!   histogram": entity base vectors are grouped around *archetypes*,
//!   separated by just a few degrees more than the largest threshold, so
//!   LSH needs sharp (large-`w`) schemes to tell entities apart;
//! * **tunable Zipf exponent** — the headline variable of Figure 16.
//!
//! Records are angular jitters of their entity's base vector (the
//! crop/scale proxy: small histogram perturbations ⇒ small angles).

use adalsh_data::{
    Dataset, DenseVector, FieldDistance, FieldKind, FieldValue, MatchRule, Record, Schema,
};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::zipf::zipf_sizes;

/// Configuration of the PopularImages-like generator.
#[derive(Debug, Clone, Copy)]
pub struct PopImagesConfig {
    /// Number of original images (entities). Paper: 500.
    pub num_entities: usize,
    /// Total records. Paper: 10000.
    pub num_records: usize,
    /// Histogram dimensionality (4×4×4 RGB ⇒ 64).
    pub dim: usize,
    /// Zipf exponent of entity sizes (paper: 1.05 / 1.1 / 1.2).
    pub zipf_exponent: f64,
    /// Number of histogram archetypes entities cluster around.
    pub num_archetypes: usize,
    /// Angle (degrees) between an entity base and its archetype.
    pub archetype_spread_deg: f64,
    /// Minimum pairwise angle (degrees) between entity bases — keep it
    /// above `threshold + 2·jitter` or ground truth becomes unreachable.
    pub min_base_separation_deg: f64,
    /// Max angular jitter (degrees) of a record around its base.
    pub jitter_deg: f64,
    /// Fraction of records that are *heavy transforms* (aggressive
    /// crops/rescales): their jitter is `heavy_multiplier × jitter_deg`.
    /// At strict thresholds these split off their entity — the effect
    /// behind Figure 17's F1 drop at 2°.
    pub heavy_transform_frac: f64,
    /// Jitter multiplier for heavy transforms.
    pub heavy_multiplier: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PopImagesConfig {
    fn default() -> Self {
        Self {
            num_entities: 250,
            num_records: 4000,
            dim: 64,
            zipf_exponent: 1.05,
            num_archetypes: 25,
            archetype_spread_deg: 13.0,
            // Must exceed max-threshold (5°) + 2 × heavy jitter (3.2°)
            // so ground truth stays reachable at every threshold.
            min_base_separation_deg: 12.0,
            jitter_deg: 0.8,
            heavy_transform_frac: 0.15,
            heavy_multiplier: 4.0,
            seed: 0x1_4A6E,
        }
    }
}

/// Angular match rule at `threshold_degrees` (paper: 2, 3, or 5).
pub fn match_rule(threshold_degrees: f64) -> MatchRule {
    MatchRule::threshold(0, FieldDistance::Angular, threshold_degrees / 180.0)
}

/// The single-field schema.
pub fn schema() -> Schema {
    Schema::single("histogram", FieldKind::Dense)
}

/// Generates a PopularImages-like dataset.
///
/// # Panics
/// Panics if base separation cannot be achieved (spread too small for
/// the requested separation).
pub fn generate(config: &PopImagesConfig) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let sizes = zipf_sizes(
        config.num_entities,
        config.num_records,
        config.zipf_exponent,
    );

    // Archetypes: random nonnegative unit vectors (histograms are
    // nonnegative, which concentrates angles and adds realism).
    let archetypes: Vec<Vec<f64>> = (0..config.num_archetypes)
        .map(|_| {
            let v: Vec<f64> = (0..config.dim).map(|_| rng.random::<f64>()).collect();
            normalize(v)
        })
        .collect();

    // Entity bases: spread around the archetypes, rejection-sampled to
    // keep pairwise separation.
    let min_sep = config.min_base_separation_deg.to_radians();
    let mut bases: Vec<Vec<f64>> = Vec::with_capacity(config.num_entities);
    for e in 0..config.num_entities {
        let archetype = &archetypes[e % config.num_archetypes];
        let mut attempts = 0;
        let base = loop {
            attempts += 1;
            assert!(
                attempts < 2000,
                "cannot separate entity bases; widen archetype_spread_deg"
            );
            // Random spread in (0.6..1.4)·spread keeps bases ring-like
            // around the archetype without collapsing onto it.
            let s = config.archetype_spread_deg.to_radians() * rng.random_range(0.6..1.4);
            let cand = rotate_towards_random(archetype, s, &mut rng);
            let ok = bases.iter().all(|b| angle_between(b, &cand) >= min_sep);
            if ok {
                break cand;
            }
        };
        bases.push(base);
    }

    let jitter = config.jitter_deg.to_radians();
    let mut records = Vec::with_capacity(config.num_records);
    let mut gt = Vec::with_capacity(config.num_records);
    for (e, &size) in sizes.iter().enumerate() {
        for _ in 0..size {
            let heavy = rng.random::<f64>() < config.heavy_transform_frac;
            let max = if heavy {
                jitter * config.heavy_multiplier
            } else {
                jitter
            };
            let a = rng.random_range(0.0..max);
            let v = rotate_towards_random(&bases[e], a, &mut rng);
            records.push(Record::single(FieldValue::Dense(DenseVector::new(v))));
            gt.push(e as u32);
        }
    }

    let mut order: Vec<usize> = (0..records.len()).collect();
    order.shuffle(&mut rng);
    let records = order.iter().map(|&i| records[i].clone()).collect();
    let gt = order.iter().map(|&i| gt[i]).collect();
    Dataset::new(schema(), records, gt)
}

fn normalize(v: Vec<f64>) -> Vec<f64> {
    let n = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    assert!(n > 0.0);
    v.into_iter().map(|x| x / n).collect()
}

fn angle_between(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    dot.clamp(-1.0, 1.0).acos()
}

/// Rotates unit vector `v` by angle `alpha` (radians) towards a random
/// orthogonal direction: `cos(α)·v + sin(α)·u` with `u ⊥ v`.
fn rotate_towards_random(v: &[f64], alpha: f64, rng: &mut rand::rngs::StdRng) -> Vec<f64> {
    // Gaussian direction, Gram-Schmidt against v.
    let g: Vec<f64> = (0..v.len()).map(|_| gaussian(rng)).collect();
    let proj: f64 = g.iter().zip(v).map(|(x, y)| x * y).sum();
    let mut u: Vec<f64> = g.iter().zip(v).map(|(x, y)| x - proj * y).collect();
    let n = u.iter().map(|x| x * x).sum::<f64>().sqrt();
    if n < 1e-12 {
        // Astronomically unlikely; fall back to the vector itself.
        return v.to_vec();
    }
    u.iter_mut().for_each(|x| *x /= n);
    v.iter()
        .zip(&u)
        .map(|(a, b)| alpha.cos() * a + alpha.sin() * b)
        .collect()
}

fn gaussian(rng: &mut rand::rngs::StdRng) -> f64 {
    loop {
        let u1: f64 = rng.random();
        if u1 > f64::EPSILON {
            let u2: f64 = rng.random();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PopImagesConfig {
        PopImagesConfig {
            num_entities: 30,
            num_records: 300,
            num_archetypes: 5,
            ..PopImagesConfig::default()
        }
    }

    fn angle_deg(d: &Dataset, a: u32, b: u32) -> f64 {
        let (fa, fb) = (d.record(a).field(0).as_ref(), d.record(b).field(0).as_ref());
        let (na, nb) = (d.field_norm(a, 0), d.field_norm(b, 0));
        FieldDistance::Angular.distance(fa, fb, na, nb) * 180.0
    }

    #[test]
    fn shape() {
        let d = generate(&small());
        assert_eq!(d.len(), 300);
        assert_eq!(d.num_entities(), 30);
        assert!(match_rule(3.0).validate(d.schema()).is_ok());
    }

    #[test]
    fn within_entity_angles_small() {
        let cfg = small();
        let d = generate(&cfg);
        let clusters = d.ground_truth_clusters();
        let bound = 2.0 * cfg.jitter_deg * cfg.heavy_multiplier;
        let c = &clusters[0];
        for i in 0..c.len().min(6) {
            for j in (i + 1)..c.len().min(6) {
                let a = angle_deg(&d, c[i], c[j]);
                assert!(a <= bound + 1e-6, "within-entity angle {a}°");
            }
        }
    }

    #[test]
    fn cross_entity_angles_exceed_separation() {
        let cfg = small();
        let d = generate(&cfg);
        let clusters = d.ground_truth_clusters();
        let bound = cfg.min_base_separation_deg - 2.0 * cfg.jitter_deg * cfg.heavy_multiplier;
        assert!(bound > 5.0, "config must keep cross-entity pairs above 5°");
        for a in 0..clusters.len().min(10) {
            for b in (a + 1)..clusters.len().min(10) {
                let ang = angle_deg(&d, clusters[a][0], clusters[b][0]);
                assert!(ang >= bound - 1e-6, "cross-entity angle {ang}° too small");
            }
        }
    }

    #[test]
    fn heavy_transforms_split_only_at_strict_thresholds() {
        // The fraction of records farther than 3° from any same-entity
        // record must be small but nonzero; none may be farther than 5°
        // from all of them (keeps F1 ordering 2° < 3° < 5° as in Fig. 17).
        let cfg = small();
        let d = generate(&cfg);
        let clusters = d.ground_truth_clusters();
        let mut beyond3 = 0usize;
        let mut total = 0usize;
        for c in clusters.iter().take(8).filter(|c| c.len() >= 3) {
            for &r in c {
                total += 1;
                let nearest = c
                    .iter()
                    .filter(|&&o| o != r)
                    .map(|&o| angle_deg(&d, r, o))
                    .fold(f64::INFINITY, f64::min);
                if nearest > 3.0 {
                    beyond3 += 1;
                }
                assert!(
                    nearest <= 2.0 * cfg.jitter_deg * cfg.heavy_multiplier + 1e-6,
                    "record {r} isolated by {nearest}°"
                );
            }
        }
        assert!(total > 20);
        let frac = beyond3 as f64 / total as f64;
        assert!(frac < 0.25, "too many heavy splits: {frac}");
    }

    #[test]
    fn near_threshold_clutter_exists() {
        // §7.4.2: most records should have *other-entity* records within
        // a few threshold-widths — the challenging regime.
        let cfg = PopImagesConfig {
            num_archetypes: 4,
            ..small()
        };
        let d = generate(&cfg);
        let clusters = d.ground_truth_clusters();
        let mut close_pairs = 0;
        let mut total = 0;
        for a in 0..clusters.len() {
            for b in (a + 1)..clusters.len() {
                total += 1;
                if angle_deg(&d, clusters[a][0], clusters[b][0]) < 25.0 {
                    close_pairs += 1;
                }
            }
        }
        let frac = close_pairs as f64 / total as f64;
        assert!(frac > 0.2, "near-clutter fraction {frac}");
    }

    #[test]
    fn zipf_exponent_controls_top_entity() {
        let flat = generate(&PopImagesConfig {
            zipf_exponent: 1.05,
            ..small()
        });
        let steep = generate(&PopImagesConfig {
            zipf_exponent: 1.6,
            ..small()
        });
        assert!(steep.entity_sizes()[0] > flat.entity_sizes()[0]);
    }

    #[test]
    fn vectors_are_unit_norm() {
        let d = generate(&small());
        for i in 0..20u32 {
            let n = d.record(i).field(0).as_dense().norm();
            assert!((n - 1.0).abs() < 1e-9, "norm {n}");
        }
    }

    #[test]
    fn deterministic() {
        let a = generate(&small());
        let b = generate(&small());
        assert_eq!(a.ground_truth(), b.ground_truth());
    }

    #[test]
    fn rotate_produces_requested_angle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let v = normalize(vec![1.0; 16]);
        for &deg in &[0.5f64, 3.0, 10.0, 45.0] {
            let w = rotate_towards_random(&v, deg.to_radians(), &mut rng);
            let got = angle_between(&v, &w).to_degrees();
            assert!((got - deg).abs() < 1e-6, "wanted {deg}°, got {got}°");
        }
    }
}
