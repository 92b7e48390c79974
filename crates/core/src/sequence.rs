//! Designing the function sequence `H₁ … H_L` (paper §5).
//!
//! §5.2's two budget-selection strategies pick each function's total
//! hash-function budget; §5.1's Program (1)–(3) (and the Appendix-C
//! generalizations) pick the `(w, z)` shape for that budget. The designer
//! here walks a [`adalsh_data::MatchRule`], derives the elementary hash
//! parts, and solves the right program per level — threading the
//! monotonicity constraints `wᵢ ≤ wᵢ₊₁`, `zᵢ ≤ zᵢ₊₁` (§4.1 /
//! Appendix C.1's `w ≥ w′, u ≥ u′`) through so incremental computation
//! stays valid.
//!
//! Supported rule shapes (everything the paper's experiments use, and the
//! Appendix-C.4 combination of a weighted average under an AND):
//!
//! * `Threshold` — single-field scheme;
//! * `WeightedAverage` — single scheme over a Definition-7 part;
//! * `And([...])` of thresholds/weighted averages — shared-table scheme;
//! * `Or([a, b])` of two thresholds/weighted averages — per-part tables.

use adalsh_data::{FieldDistance, MatchRule, Schema};
use adalsh_lsh::mix::derive_seed;
use adalsh_lsh::multifield::{optimize_and2, optimize_or2, FieldSpec};
use adalsh_lsh::optimizer::{OptimizerInput, SchemeOptimizer};
use adalsh_lsh::scheme::WzScheme;

use crate::hashing::{HashPart, LevelScheme};

/// §5.2 budget-selection strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetStrategy {
    /// Budget multiplies by `factor` per level (`start, start·f, …`).
    /// The paper's default: start 20, factor 2.
    Exponential {
        /// Budget of `H₁`.
        start: u64,
        /// Per-level multiplier.
        factor: u64,
    },
    /// Budget grows by a constant `step` (`step, 2·step, 3·step, …`).
    Linear {
        /// Budget of `H₁` and the per-level increment.
        step: u64,
    },
}

impl BudgetStrategy {
    /// The paper's default mode: Exponential starting at 20 hash
    /// functions, doubling each level (§6.1.1).
    pub fn default_exponential() -> Self {
        BudgetStrategy::Exponential {
            start: 20,
            factor: 2,
        }
    }

    /// Budget of sequence function `Hᵢ` (`i` is 1-based).
    ///
    /// # Panics
    /// Panics if `i == 0`.
    pub fn budget(&self, i: usize) -> u64 {
        assert!(i >= 1, "levels are 1-based");
        match *self {
            BudgetStrategy::Exponential { start, factor } => {
                start.saturating_mul(factor.saturating_pow(i as u32 - 1))
            }
            BudgetStrategy::Linear { step } => step.saturating_mul(i as u64),
        }
    }
}

/// Designer inputs beyond the rule itself.
#[derive(Debug, Clone, Copy)]
pub struct SequenceSpec {
    /// Constraint-(3) slack `ε` (paper Example 5 uses 0.001).
    pub epsilon: f64,
    /// Budget schedule.
    pub strategy: BudgetStrategy,
    /// Design levels until the budget reaches/exceeds this value.
    pub max_budget: u64,
    /// Seed for the hash parts.
    pub seed: u64,
}

impl Default for SequenceSpec {
    fn default() -> Self {
        Self {
            epsilon: 1e-3,
            strategy: BudgetStrategy::default_exponential(),
            max_budget: 2560,
            seed: 0x5EED,
        }
    }
}

/// A designed sequence: the elementary parts and per-level schemes, ready
/// for [`crate::hashing::SequenceHasher::new`].
#[derive(Debug)]
pub struct DesignedSequence {
    /// Elementary hash sources, one per rule part.
    pub parts: Vec<HashPart>,
    /// Scheme of every sequence function, in order.
    pub levels: Vec<LevelScheme>,
}

/// Normalized view of the rule for scheme design.
enum RuleShape {
    /// One elementary part.
    Single,
    /// Shared tables over two parts (AND rule).
    And,
    /// Per-part tables over two parts (OR rule).
    Or,
}

impl SequenceSpec {
    /// Rejects a spec [`design`] cannot walk: an `ε` outside `[0, 1)`
    /// (or NaN), or a budget schedule that never grows.
    fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.epsilon) {
            return Err(format!(
                "SequenceSpec epsilon {} outside [0, 1)",
                self.epsilon
            ));
        }
        match self.strategy {
            BudgetStrategy::Exponential { start: 0, .. } => {
                Err("Exponential budget start must be positive".into())
            }
            BudgetStrategy::Exponential { factor, .. } if factor < 2 => Err(format!(
                "Exponential budget factor {factor} must be at least 2 for the budget to grow"
            )),
            BudgetStrategy::Linear { step: 0 } => Err("Linear budget step must be positive".into()),
            _ => Ok(()),
        }
    }
}

/// Designs the sequence for `rule` against `schema`.
///
/// `dense_dims[f]` must give the vector dimension of every dense field
/// `f` referenced by the rule (ignored entries may be 0).
pub fn design(
    rule: &MatchRule,
    schema: &Schema,
    dense_dims: &[usize],
    spec: &SequenceSpec,
) -> Result<DesignedSequence, String> {
    rule.validate(schema)?;
    spec.validate()?;

    // Leaf-part builder with resolved dims.
    let build_leaf = |r: &MatchRule, seed: u64| -> Result<(HashPart, f64), String> {
        match r {
            MatchRule::Threshold {
                field,
                metric: FieldDistance::Angular,
                dthr,
            } => {
                let dim = *dense_dims
                    .get(*field)
                    .filter(|&&d| d > 0)
                    .ok_or_else(|| format!("missing dense dim for field {field}"))?;
                Ok((HashPart::dense(*field, dim, seed), *dthr))
            }
            MatchRule::Threshold {
                field,
                metric: FieldDistance::Jaccard,
                dthr,
            } => Ok((HashPart::shingles(*field, seed), *dthr)),
            MatchRule::WeightedAverage { parts, dthr } => {
                let comps: Vec<(usize, FieldDistance, f64)> = parts
                    .iter()
                    .map(|p| (p.field, p.metric, p.weight))
                    .collect();
                let dims: Vec<usize> = parts
                    .iter()
                    .map(|p| dense_dims.get(p.field).copied().unwrap_or(0))
                    .collect();
                Ok((HashPart::weighted(&comps, &dims, seed), *dthr))
            }
            other => Err(format!("not a leaf rule: {other:?}")),
        }
    };

    // Normalize the rule shape.
    let (children, shape) = match rule {
        MatchRule::Threshold { .. } | MatchRule::WeightedAverage { .. } => {
            (std::slice::from_ref(rule), RuleShape::Single)
        }
        MatchRule::And(children) => (children.as_slice(), RuleShape::And),
        MatchRule::Or(children) => (children.as_slice(), RuleShape::Or),
    };
    let mut parts = Vec::new();
    let mut dthrs = Vec::new();
    for (i, child) in children.iter().enumerate() {
        let (part, dthr) = build_leaf(child, derive_seed(spec.seed, i as u64))?;
        parts.push(part);
        dthrs.push(dthr);
    }
    let shape = match (shape, parts.len()) {
        (_, 1) => RuleShape::Single,
        (shape, 2) => shape,
        (RuleShape::And, _) => {
            return Err("AND rules with more than two parts are not supported; \
                        combine fields with a weighted average first (Appendix C.4)"
                .into())
        }
        _ => return Err("OR rules with more than two parts are not supported".into()),
    };

    // Each part's p(x) comes from its own family.
    let ps: Vec<_> = parts
        .iter()
        .map(|part| move |x: f64| part.collision_prob(x))
        .collect();
    let field = |i: usize| FieldSpec {
        dthr: dthrs[i],
        p: &ps[i],
    };
    // §5.1's (w, z) for part `i` alone, grown from (min_w, min_z).
    let single = |budget: u64, i: usize, min_w: u32, min_z: u32| {
        let input = OptimizerInput::new(budget, dthrs[i], spec.epsilon, &ps[i]);
        SchemeOptimizer::optimize_le(&input.with_min(min_w, min_z))
    };

    // Walk the budget schedule.
    let mut levels: Vec<LevelScheme> = Vec::new();
    let mut i = 1usize;
    loop {
        let budget = spec.strategy.budget(i);
        let scheme = match shape {
            RuleShape::Single => {
                let (min_w, min_z) = match levels.last() {
                    Some(LevelScheme::Shared { ws, z }) => (ws[0], *z),
                    _ => (1, 1),
                };
                single(budget, 0, min_w, min_z).map(|s| LevelScheme::Shared {
                    ws: vec![s.w],
                    z: s.z,
                })
            }
            RuleShape::And => {
                let (min_ws, min_z) = match levels.last() {
                    Some(LevelScheme::Shared { ws, z }) => ([ws[0], ws[1]], *z),
                    _ => ([1, 1], 1),
                };
                let fields = [field(0), field(1)];
                // Program (4)–(6) needs (w+u) | budget; if the exact budget
                // is unlucky, retreat a little.
                let mut found = None;
                let floor = levels
                    .last()
                    .map(|l| l.budget() + 1)
                    .unwrap_or(2)
                    .max(budget.saturating_sub(budget / 8));
                let mut b = budget;
                while b >= floor {
                    if let Some(s) = optimize_and2(b, &fields, spec.epsilon, min_ws, min_z) {
                        found = Some(LevelScheme::Shared { ws: s.ws, z: s.z });
                        break;
                    }
                    b -= 1;
                }
                found
            }
            RuleShape::Or => match levels.last() {
                // First level: full Program (7)–(10) search.
                None => optimize_or2(
                    budget,
                    &[field(0), field(1)],
                    spec.epsilon,
                    [(1, 1), (1, 1)],
                )
                .map(|s| LevelScheme::PerPart { parts: s.parts }),
                Some(LevelScheme::PerPart { parts: prev }) => {
                    // Later levels: keep the budget split proportional
                    // to the first level's and grow each part under
                    // its own monotonicity constraints.
                    let prev_total: u64 = prev.iter().map(WzScheme::budget).sum();
                    prev.iter()
                        .enumerate()
                        .map(|(p, prev_s)| {
                            let share = (budget as f64 * prev_s.budget() as f64 / prev_total as f64)
                                .round() as u64;
                            single(share.max(prev_s.budget()), p, prev_s.w, prev_s.z)
                        })
                        .collect::<Option<Vec<_>>>()
                        .map(|parts| LevelScheme::PerPart { parts })
                }
                Some(LevelScheme::Shared { .. }) => unreachable!("shape is uniform"),
            },
        };
        match scheme {
            Some(s) => {
                if let Some(prev) = levels.last() {
                    debug_assert!(s.extends(prev), "designer produced a shrinking level");
                }
                levels.push(s);
            }
            None if levels.is_empty() => {
                // H₁'s budget can be too small to satisfy constraint (3);
                // skip ahead to the first feasible budget.
            }
            None => {
                return Err(format!(
                    "level {i} (budget {budget}) became infeasible after a feasible prefix"
                ));
            }
        }
        if budget >= spec.max_budget {
            break;
        }
        i += 1;
    }
    if levels.is_empty() {
        return Err(format!(
            "no scheme meets constraint (3) at epsilon {} up to max_budget {}",
            spec.epsilon, spec.max_budget
        ));
    }
    Ok(DesignedSequence { parts, levels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adalsh_data::FieldKind;

    fn shingle_schema() -> Schema {
        Schema::single("s", FieldKind::Shingles)
    }

    #[test]
    fn exponential_budgets() {
        let s = BudgetStrategy::default_exponential();
        assert_eq!(s.budget(1), 20);
        assert_eq!(s.budget(2), 40);
        assert_eq!(s.budget(3), 80);
        assert_eq!(s.budget(5), 320);
    }

    #[test]
    fn linear_budgets() {
        let s = BudgetStrategy::Linear { step: 100 };
        assert_eq!(s.budget(1), 100);
        assert_eq!(s.budget(2), 200);
        assert_eq!(s.budget(3), 300);
    }

    #[test]
    fn single_field_design_monotone() {
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.4);
        let spec = SequenceSpec {
            max_budget: 640,
            ..SequenceSpec::default()
        };
        let d = design(&rule, &shingle_schema(), &[0], &spec).expect("design");
        assert!(d.levels.len() >= 4, "20→640 doubles at least 5 times");
        for pair in d.levels.windows(2) {
            assert!(pair[1].extends(&pair[0]));
            assert!(pair[1].budget() > pair[0].budget());
        }
        // Budgets approximately follow the schedule (≤ budget, ≥ 3/4).
        for (i, lvl) in d.levels.iter().enumerate() {
            let target = spec.strategy.budget(i + 1);
            assert!(lvl.budget() <= target);
            assert!(lvl.budget() * 4 >= target * 3, "budget underuse at {i}");
        }
    }

    #[test]
    fn later_levels_are_sharper() {
        // w must grow along the sequence for a Jaccard threshold of 0.4.
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.4);
        let spec = SequenceSpec {
            max_budget: 1280,
            ..SequenceSpec::default()
        };
        let d = design(&rule, &shingle_schema(), &[0], &spec).unwrap();
        let first_w = match &d.levels[0] {
            LevelScheme::Shared { ws, .. } => ws[0],
            _ => unreachable!(),
        };
        let last_w = match d.levels.last().unwrap() {
            LevelScheme::Shared { ws, .. } => ws[0],
            _ => unreachable!(),
        };
        assert!(last_w > first_w, "{first_w} vs {last_w}");
    }

    #[test]
    fn and_rule_design() {
        let schema = Schema::new(vec![("a", FieldKind::Shingles), ("b", FieldKind::Shingles)]);
        let rule = MatchRule::And(vec![
            MatchRule::threshold(0, FieldDistance::Jaccard, 0.3),
            MatchRule::threshold(1, FieldDistance::Jaccard, 0.8),
        ]);
        let spec = SequenceSpec {
            max_budget: 320,
            ..SequenceSpec::default()
        };
        let d = design(&rule, &schema, &[0, 0], &spec).expect("design");
        assert_eq!(d.parts.len(), 2);
        for lvl in &d.levels {
            match lvl {
                LevelScheme::Shared { ws, z } => {
                    assert_eq!(ws.len(), 2);
                    assert!(*z >= 1);
                }
                _ => panic!("AND must use shared tables"),
            }
        }
        for pair in d.levels.windows(2) {
            assert!(pair[1].extends(&pair[0]));
        }
    }

    #[test]
    fn or_rule_design() {
        let schema = Schema::new(vec![("a", FieldKind::Shingles), ("b", FieldKind::Shingles)]);
        let rule = MatchRule::Or(vec![
            MatchRule::threshold(0, FieldDistance::Jaccard, 0.3),
            MatchRule::threshold(1, FieldDistance::Jaccard, 0.2),
        ]);
        let spec = SequenceSpec {
            max_budget: 320,
            ..SequenceSpec::default()
        };
        let d = design(&rule, &schema, &[0, 0], &spec).expect("design");
        for lvl in &d.levels {
            assert!(matches!(lvl, LevelScheme::PerPart { parts } if parts.len() == 2));
        }
        for pair in d.levels.windows(2) {
            assert!(pair[1].extends(&pair[0]));
        }
    }

    #[test]
    fn weighted_average_design() {
        use adalsh_data::rule::WeightedPart;
        let schema = Schema::new(vec![("a", FieldKind::Shingles), ("b", FieldKind::Shingles)]);
        let rule = MatchRule::WeightedAverage {
            parts: vec![
                WeightedPart {
                    field: 0,
                    metric: FieldDistance::Jaccard,
                    weight: 0.5,
                },
                WeightedPart {
                    field: 1,
                    metric: FieldDistance::Jaccard,
                    weight: 0.5,
                },
            ],
            dthr: 0.3,
        };
        let spec = SequenceSpec {
            max_budget: 160,
            ..SequenceSpec::default()
        };
        let d = design(&rule, &schema, &[0, 0], &spec).expect("design");
        assert_eq!(d.parts.len(), 1, "weighted average is one part");
        assert!(matches!(d.parts[0], HashPart::Weighted { .. }));
    }

    #[test]
    fn angular_rule_needs_dims() {
        let schema = Schema::single("v", FieldKind::Dense);
        let rule = MatchRule::threshold(0, FieldDistance::Angular, 3.0 / 180.0);
        let spec = SequenceSpec::default();
        assert!(design(&rule, &schema, &[0], &spec).is_err());
        let d = design(&rule, &schema, &[64], &spec).expect("with dims");
        assert!(!d.levels.is_empty());
    }

    #[test]
    fn three_part_and_rejected() {
        let schema = Schema::new(vec![
            ("a", FieldKind::Shingles),
            ("b", FieldKind::Shingles),
            ("c", FieldKind::Shingles),
        ]);
        let rule = MatchRule::And(vec![
            MatchRule::threshold(0, FieldDistance::Jaccard, 0.3),
            MatchRule::threshold(1, FieldDistance::Jaccard, 0.3),
            MatchRule::threshold(2, FieldDistance::Jaccard, 0.3),
        ]);
        assert!(design(&rule, &schema, &[0, 0, 0], &SequenceSpec::default()).is_err());
    }

    /// `design` on a Jaccard-0.4 rule under `spec`, expecting an error
    /// that names `field`.
    fn rejects(spec: SequenceSpec, field: &str) {
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.4);
        let err = design(&rule, &shingle_schema(), &[0], &spec).expect_err("bad spec");
        assert!(err.contains(field), "{err}");
    }

    #[test]
    fn linear_step_zero_is_rejected() {
        // The budget would stay 0 forever: neither loop exit fires.
        rejects(
            SequenceSpec {
                strategy: BudgetStrategy::Linear { step: 0 },
                ..SequenceSpec::default()
            },
            "step",
        );
    }

    #[test]
    fn exponential_factor_one_is_rejected() {
        // The budget would stay at `start` forever.
        rejects(
            SequenceSpec {
                strategy: BudgetStrategy::Exponential {
                    start: 20,
                    factor: 1,
                },
                ..SequenceSpec::default()
            },
            "factor",
        );
    }

    #[test]
    fn epsilon_outside_unit_interval_is_rejected() {
        for epsilon in [-0.1, 1.0, 1.5, f64::NAN] {
            rejects(
                SequenceSpec {
                    epsilon,
                    ..SequenceSpec::default()
                },
                "epsilon",
            );
        }
    }

    /// One design as compact text: `w×z` per single-part shared level,
    /// `[w,u]×z` per multi-part shared level, `w×z|w×z` per OR level.
    fn pin(rule: &MatchRule, schema: &Schema, dims: &[usize], spec: &SequenceSpec) -> String {
        let d = design(rule, schema, dims, spec).expect("design");
        let levels: Vec<String> = d
            .levels
            .iter()
            .map(|l| match l {
                LevelScheme::Shared { ws, z } if ws.len() == 1 => format!("{}×{z}", ws[0]),
                LevelScheme::Shared { ws, z } => format!("{ws:?}×{z}"),
                LevelScheme::PerPart { parts } => parts
                    .iter()
                    .map(|s| format!("{}×{}", s.w, s.z))
                    .collect::<Vec<_>>()
                    .join("|"),
            })
            .collect();
        levels.join(" ")
    }

    /// The exact level list of each design shape: a change to any search
    /// that moves one scheme fails here.
    #[test]
    fn designs_are_pinned() {
        let two = Schema::new(vec![("a", FieldKind::Shingles), ("b", FieldKind::Shingles)]);
        let deep = SequenceSpec {
            max_budget: 1 << 21,
            ..SequenceSpec::default()
        };
        let lsh_x = |x: u64| SequenceSpec {
            strategy: BudgetStrategy::Linear { step: x },
            max_budget: x,
            ..SequenceSpec::default()
        };
        let jaccard = |dthr| MatchRule::threshold(0, FieldDistance::Jaccard, dthr);
        let weighted = MatchRule::WeightedAverage {
            parts: vec![
                adalsh_data::rule::WeightedPart {
                    field: 0,
                    metric: FieldDistance::Jaccard,
                    weight: 0.5,
                },
                adalsh_data::rule::WeightedPart {
                    field: 1,
                    metric: FieldDistance::Jaccard,
                    weight: 0.5,
                },
            ],
            dthr: 0.3,
        };
        let or = MatchRule::Or(vec![
            MatchRule::threshold(0, FieldDistance::Jaccard, 0.3),
            MatchRule::threshold(1, FieldDistance::Jaccard, 0.2),
        ]);
        let angular = MatchRule::threshold(0, FieldDistance::Angular, 3.0 / 180.0);
        let dense = Schema::single("v", FieldKind::Dense);
        let cora = SequenceSpec {
            max_budget: 4096,
            ..SequenceSpec::default()
        };
        let default = SequenceSpec::default();
        let cases: Vec<(&str, String, &str)> = vec![
            (
                "jaccard 0.4, 2^21",
                pin(&jaccard(0.4), &shingle_schema(), &[0], &deep),
                "1×20 2×20 2×40 3×53 4×80 5×128 6×213 7×365 8×640 9×1137 10×2048 12×3413 13×6301 14×11702 15×21845 16×40960 18×72817 19×137970",
            ),
            (
                "jaccard 0.6, 2^21",
                pin(&jaccard(0.6), &shingle_schema(), &[0], &deep),
                "1×20 1×40 2×40 2×80 3×106 3×213 4×320 4×640 5×1024 6×1706 6×3413 7×5851 7×11702 8×20480 9×36408 9×72817 10×131072 11×238312",
            ),
            ("angular 3°, 2^21", pin(&angular, &dense, &[64], &deep), "6×3 10×4 16×5 22×7 35×9 49×13 68×18 90×28 114×44 142×72 171×119 201×203 234×350 267×613 301×1088 335×1956 371×3532 406×6456"),
            (
                "cora AND, 4096",
                pin(
                    &adalsh_datagen::cora::match_rule(),
                    &adalsh_datagen::cora::schema(),
                    &[0, 0, 0],
                    &cora,
                ),
                "[1, 1]×80 [2, 1]×106 [3, 1]×160 [5, 1]×213 [6, 1]×365 [7, 1]×640",
            ),
            ("OR 0.3|0.2", pin(&or, &two, &[0, 0], &default), "1×6|2×7 1×12|2×14 2×12|4×14 2×24|5×22 3×32|7×31 5×39|9×49 6×65|11×80 7×112|13×136"),
            ("weighted 0.3", pin(&weighted, &two, &[0, 0], &default), "1×20 2×20 3×26 4×40 5×64 7×91 8×160 10×256"),
            (
                "LSH20",
                pin(&jaccard(0.6), &shingle_schema(), &[0], &lsh_x(20)),
                "1×20",
            ),
            (
                "LSH320",
                pin(&jaccard(0.6), &shingle_schema(), &[0], &lsh_x(320)),
                "3×106",
            ),
            (
                "LSH1280",
                pin(&jaccard(0.6), &shingle_schema(), &[0], &lsh_x(1280)),
                "4×320",
            ),
        ];
        for (name, got, want) in cases {
            assert_eq!(got, want, "{name}");
        }
    }
}
