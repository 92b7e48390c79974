//! The sequence of transitive-hashing schemes and incremental per-record
//! hash state.
//!
//! A sequence function `Hᵢ` is defined by a [`LevelScheme`]: either a
//! group of `z` **shared tables** each concatenating `ws[p]` hash values
//! from every elementary part `p` (single-field and AND rules, Appendix
//! C.1), or **per-part table groups** (OR rules, Appendix C.2).
//!
//! Incremental computation (paper §2.2 Property 4, Appendix B.2) works as
//! follows: table `t` of `Hᵢ` extends table `t` of `Hᵢ₋₁` — widths and
//! table counts are nondecreasing along the sequence (`wᵢ ≤ wᵢ₊₁`,
//! `zᵢ ≤ zᵢ₊₁`, §4.1) — so advancing a record from level `i−1` to `i`
//! evaluates only the *new* hash functions. Per-record state is one u64
//! accumulator per table per completed level, held in one flat array
//! whose layout the level plans fix ([`RecordHashState`]); the
//! accumulator folds the table's hash values in a fixed order, so two
//! records share a bucket at level `i` exactly when all their table-`t`
//! values agree (up to a 2⁻⁶⁴ mixing collision, which merely merges two
//! clusters — harmless for a conservative filter). Completed levels stay
//! addressable ([`SequenceHasher::keys`]) so a later run re-applying an
//! earlier sequence function to an already-deep record is a free lookup.
//! The one advance path is [`SequenceHasher::advance_records`]; its
//! scalar reference lives in the tests (`tests/proptest_hashing.rs`).
//!
//! Hyperplane normals follow the same adaptivity: each `lvl−1 → lvl`
//! plan holds the normals of exactly its own dense tasks, built the first
//! time any record advances to `lvl` (the engine traces each build as a
//! `level_built` event). Records in sparse regions stop at cheap early
//! levels, so the normals of the deep levels they never reach are never
//! built.

use std::sync::OnceLock;
use std::time::Instant;

use adalsh_data::{FieldDistance, RecordFields};
use adalsh_lsh::mix::{combine, derive_seed, splitmix64};
use adalsh_lsh::multifield::WeightedSelection;
use adalsh_lsh::scheme::WzScheme;
use adalsh_lsh::{HyperplaneFamily, HyperplanePanel, MinHashFamily, PANEL_RECORDS};
use serde::{Deserialize, Serialize};

use crate::stats::Stats;

/// Reusable buffers for the batched advance path. One instance per
/// worker thread amortizes every allocation across records; the
/// convenience [`SequenceHasher::advance`] creates a throwaway one.
#[derive(Debug, Default)]
pub struct HashScratch {
    /// One level's values for a block's `k` advancing records, group after
    /// group. In a group's region, part `p`'s starts at `offset_p · k` and
    /// holds the records' values record-major (`count_p` each), the
    /// layout a panel call writes.
    vals: Vec<u64>,
    /// Staging buffer for weighted sub-part batches before scattering.
    tmp: Vec<u64>,
}

/// One function `Hᵢ` of the sequence: its per-part table parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LevelScheme {
    /// `z` tables shared by all parts; table `t` concatenates `ws[p]`
    /// values from part `p`. A single-field scheme is `ws.len() == 1`.
    Shared {
        /// Per-part widths (hash functions per table from each part).
        ws: Vec<u32>,
        /// Number of tables.
        z: u32,
    },
    /// Each part has its own `(w, z)` table group (OR rules).
    PerPart {
        /// Per-part schemes.
        parts: Vec<WzScheme>,
    },
}

impl LevelScheme {
    /// Number of elementary parts this scheme draws from.
    pub fn num_parts(&self) -> usize {
        match self {
            LevelScheme::Shared { ws, .. } => ws.len(),
            LevelScheme::PerPart { parts } => parts.len(),
        }
    }

    /// Total hash-function budget per record.
    pub fn budget(&self) -> u64 {
        match self {
            LevelScheme::Shared { ws, z } => {
                ws.iter().map(|&w| u64::from(w)).sum::<u64>() * u64::from(*z)
            }
            LevelScheme::PerPart { parts } => parts.iter().map(WzScheme::budget).sum(),
        }
    }

    /// Does `self` extend `prev` (all widths and table counts
    /// nondecreasing, same structure)? Required between consecutive
    /// sequence functions.
    pub fn extends(&self, prev: &LevelScheme) -> bool {
        match (self, prev) {
            (LevelScheme::Shared { ws: w1, z: z1 }, LevelScheme::Shared { ws: w0, z: z0 }) => {
                w1.len() == w0.len() && z1 >= z0 && w1.iter().zip(w0).all(|(a, b)| a >= b)
            }
            (LevelScheme::PerPart { parts: p1 }, LevelScheme::PerPart { parts: p0 }) => {
                p1.len() == p0.len() && p1.iter().zip(p0).all(|(a, b)| a.w >= b.w && a.z >= b.z)
            }
            _ => false,
        }
    }
}

/// Elementary hash source backing one part of the scheme.
#[derive(Debug)]
pub enum HashPart {
    /// Random hyperplanes over a dense field: function `j` of table `t`
    /// is normal `j` of the family seeded `derive_seed(seed, t)`. The
    /// normals live in the level plans, built on first use.
    Dense {
        /// Field index into the record.
        field: usize,
        /// Vector dimension.
        dim: usize,
        /// Part seed; table `t`'s family seed is derived from it.
        seed: u64,
    },
    /// MinHash over a shingle field (stateless).
    Shingles {
        /// Field index into the record.
        field: usize,
        /// The MinHash family.
        family: MinHashFamily,
    },
    /// Definition-7 weighted selection over simple sub-parts.
    Weighted {
        /// The per-function field sampler.
        selection: WeightedSelection,
        /// One simple part per weighted component.
        choices: Vec<HashPart>,
    },
}

/// Index-mix stride separating functions of different tables for the
/// stateless families.
const TABLE_STRIDE: u64 = 1 << 24;

impl HashPart {
    /// Builds a dense part.
    pub fn dense(field: usize, dim: usize, seed: u64) -> Self {
        HashPart::Dense { field, dim, seed }
    }

    /// Builds a shingle part.
    pub fn shingles(field: usize, seed: u64) -> Self {
        HashPart::Shingles {
            field,
            family: MinHashFamily::new(seed),
        }
    }

    /// Builds a Definition-7 weighted part from `(field, metric, weight)`
    /// components.
    ///
    /// # Panics
    /// Panics if a component nests another weighted part (Definition 7 is
    /// a one-level selection) or dims are needed but unknown.
    pub fn weighted(parts: &[(usize, FieldDistance, f64)], dims: &[usize], seed: u64) -> Self {
        let weights: Vec<f64> = parts.iter().map(|&(_, _, w)| w).collect();
        let selection = WeightedSelection::new(&weights, derive_seed(seed, 0));
        let choices = parts
            .iter()
            .enumerate()
            .map(|(i, &(field, metric, _))| match metric {
                FieldDistance::Angular => {
                    HashPart::dense(field, dims[i], derive_seed(seed, 1 + i as u64))
                }
                FieldDistance::Jaccard => {
                    HashPart::shingles(field, derive_seed(seed, 1 + i as u64))
                }
            })
            .collect();
        HashPart::Weighted { selection, choices }
    }

    /// The elementary collision probability `p(x)` at normalized distance
    /// `x`, as the part's family defines it (Theorem 3 for weighted parts).
    pub(crate) fn collision_prob(&self, x: f64) -> f64 {
        match self {
            HashPart::Dense { .. } => HyperplaneFamily::collision_prob(x),
            HashPart::Shingles { .. } => MinHashFamily::collision_prob(x),
            HashPart::Weighted { .. } => WeightedSelection::collision_prob(x),
        }
    }
}

/// Per-record incremental hash state: the deepest level applied so far
/// and the finalized table accumulators of **every** completed level.
///
/// Keeping each level's accumulators (rather than only the deepest —
/// lower-level tables are extended in place as levels advance, so they
/// are not recoverable after the fact) is what lets a *later* run
/// re-apply an earlier sequence function to an already-deep record as a
/// free lookup: repeated top-k queries over a growing dataset start
/// from `H₁` every time, and Property 4's "never recompute a hash
/// value" promise has to hold for every level, not just the frontier.
/// The cost is one `u64` per table per completed level per record.
///
/// `PartialEq` compares the full state (level and every accumulator).
///
/// The state is serde-serializable so a snapshot of an online resolver
/// carries the raw hash work already spent on each record across a
/// restart (accumulators are exact `u64`s; nothing is re-derived on
/// load).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordHashState {
    /// Deepest sequence level applied to this record (0 = none).
    pub level: u16,
    /// Every completed level's accumulators, level by level, then group
    /// by group (`Shared` schemes have one group, `PerPart` one per
    /// part), then table by table. The hasher's level plans fix the
    /// offsets: each group records where it starts, each level where it
    /// ends.
    accs: Vec<u64>,
}

/// Precomputed work-list for advancing one level (`lvl−1 → lvl`): the
/// `(table, function)` tasks of every group/part in the exact canonical
/// order the fold consumes them, plus per-task data (MinHash keys,
/// weighted sub-part partitions) derived once at construction instead of
/// once per record, and the hyperplane normals of the level's dense
/// tasks, built once on first use.
#[derive(Debug)]
struct LevelPlan {
    groups: Vec<GroupPlan>,
    /// Length of a state's accumulator array once this level is complete.
    end: usize,
    /// Set once every dense panel of the level is built; the first
    /// record to advance to the level builds them while any other thread
    /// advancing to it waits.
    built: OnceLock<LevelBuild>,
}

/// What building one level's hyperplane normals took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LevelBuild {
    /// Hyperplane functions of the level's tasks, over every dense part
    /// and weighted choice.
    pub(crate) functions: u64,
    /// Heap bytes the level's panels hold, zero padding included.
    pub(crate) bytes: u64,
    /// Wall time the build took, in microseconds.
    pub(crate) build_micros: u64,
}

/// One table group of a level plan (`Shared` has a single group fed by
/// all parts; `PerPart` one group per part).
#[derive(Debug)]
struct GroupPlan {
    /// Group tag folded into fresh-table accumulator seeds.
    group: u32,
    /// Offset of the group's `z_to` accumulators in a state's array.
    start: usize,
    /// Tables `0..z_from` already exist and are extended; tables
    /// `z_from..z_to` are fresh.
    z_from: u32,
    z_to: u32,
    /// Total task count across `parts` (the group's buffer length).
    total: usize,
    /// Per part feeding this group, in part order.
    parts: Vec<PartPlan>,
}

/// One part's slice of a group plan. Tasks are ordered phase-A first
/// (existing tables `t < z_from`, new functions `w_from..w_to`), then
/// phase-B (fresh tables, functions `0..w_to`) — the canonical fold
/// order: each table folds its values parts in order, each part's in
/// function order.
#[derive(Debug)]
struct PartPlan {
    /// Index into `SequenceHasher::parts`.
    part: usize,
    w_from: u32,
    w_to: u32,
    /// Start of this part's values in the group buffer.
    offset: usize,
    /// Number of tasks (= values produced).
    count: usize,
    kind: PartPlanKind,
}

#[derive(Debug)]
enum PartPlanKind {
    /// MinHash: per-task keys (`derive_seed(family_seed, t·STRIDE + j)`)
    /// cached so record hashing never re-derives them.
    Shingles { keys: Vec<u64> },
    /// Hyperplanes: the normals of the tasks, in task order, as one
    /// panel (built with its level, see [`LevelPlan::built`]).
    Dense { panel: OnceLock<HyperplanePanel> },
    /// Weighted selection: tasks partitioned by the selected sub-part,
    /// each remembering its position in the part's value slice so the
    /// fold order is preserved.
    Weighted { choices: Vec<ChoicePlan> },
}

/// The tasks a weighted part routes to one of its sub-parts.
#[derive(Debug)]
struct ChoicePlan {
    /// Index into the weighted part's `choices`.
    choice: usize,
    /// Positions within the part's value slice, ascending.
    positions: Vec<usize>,
    /// The sub-part's plan over its tasks, aligned with `positions`
    /// (never `Weighted`: Definition 7 selections are one level deep).
    kind: PartPlanKind,
}

/// The canonical `(table, function)` task list for one part of one
/// level transition: phase A then phase B (see [`PartPlan`]).
fn canonical_tasks(w_from: u32, w_to: u32, z_from: u32, z_to: u32) -> Vec<(u32, u32)> {
    let mut tasks =
        Vec::with_capacity((z_from * (w_to - w_from) + (z_to - z_from) * w_to) as usize);
    for t in 0..z_from {
        for j in w_from..w_to {
            tasks.push((t, j));
        }
    }
    for t in z_from..z_to {
        for j in 0..w_to {
            tasks.push((t, j));
        }
    }
    tasks
}

/// The plan of a simple (shingle or dense) part over `tasks`, aligned
/// with them — built the same way for a top-level part and a weighted
/// choice.
fn simple_plan(part: &HashPart, tasks: &[(u32, u32)]) -> PartPlanKind {
    match part {
        HashPart::Shingles { family, .. } => PartPlanKind::Shingles {
            keys: tasks
                .iter()
                .map(|&(t, j)| {
                    family.key_for((u64::from(t) * TABLE_STRIDE + u64::from(j)) as usize)
                })
                .collect(),
        },
        HashPart::Dense { .. } => PartPlanKind::Dense {
            panel: OnceLock::new(),
        },
        HashPart::Weighted { .. } => unreachable!("Definition 7 selections are one level deep"),
    }
}

/// The panel of a dense part's `tasks`: task `(t, j)` is normal `j` of
/// table `t`'s family, `HyperplaneFamily::new(dim, derive_seed(seed, t))`.
fn dense_panel(part: &HashPart, tasks: impl Iterator<Item = (u32, u32)>) -> HyperplanePanel {
    let HashPart::Dense { dim, seed, .. } = part else {
        unreachable!("plan kind matches part kind")
    };
    let functions: Vec<(u64, u64)> = tasks
        .map(|(t, j)| (derive_seed(*seed, u64::from(t)), u64::from(j)))
        .collect();
    HyperplanePanel::new(*dim, &functions)
}

/// Evaluates a simple part's planned tasks on a block of records into
/// `out`, record-major (`out[r · n + i]` is task `i` on `records[r]`, for
/// `n` tasks) — the one batched dispatch for top-level parts and weighted
/// choices alike. A shingle part runs one batch call per record; a dense
/// part one panel call for the whole block.
fn eval_simple<R: RecordFields>(
    part: &HashPart,
    kind: &PartPlanKind,
    records: &[&R],
    out: &mut [u64],
) {
    match (kind, part) {
        (PartPlanKind::Shingles { keys }, HashPart::Shingles { field, .. }) => {
            for (record, out) in records.iter().zip(out.chunks_mut(keys.len().max(1))) {
                let set = record.field_ref(*field).as_shingles();
                MinHashFamily::hash_batch_keys(keys, set, out);
            }
        }
        (PartPlanKind::Dense { panel }, HashPart::Dense { field, .. }) => {
            let mut vs: [&[f64]; PANEL_RECORDS] = [&[]; PANEL_RECORDS];
            for (v, record) in vs.iter_mut().zip(records) {
                *v = record.field_ref(*field).as_dense();
            }
            panel
                .get()
                .expect("a level's normals are built before its first advance")
                .hash_all(&vs[..records.len()], out);
        }
        _ => unreachable!("plan kind matches part kind"),
    }
}

/// Folds record `r`'s values of `gp` (laid out in `vals`, the group's
/// region for a block of `k` records, see [`HashScratch::vals`]) into the
/// group's accumulators, which end `accs`: the `z_from` existing tables,
/// copied from the previous level, are extended and the fresh ones
/// appended.
///
/// The tables advance in lockstep: within each part, value `j` of every
/// table before value `j + 1`. Each table still folds exactly its own
/// values in the canonical order (parts in order, each part's in
/// function order), so every accumulator is what a table-by-table fold
/// would give; the tables' independent `splitmix64` chains overlap
/// instead of running one after another.
fn fold_group(gp: &GroupPlan, vals: &[u64], k: usize, r: usize, accs: &mut Vec<u64>) {
    let z_from = gp.z_from as usize;
    debug_assert_eq!(accs.len(), gp.start + z_from);
    accs.extend((gp.z_from..gp.z_to).map(|t| splitmix64(u64::from(gp.group) << 32 | u64::from(t))));
    let (existing, fresh) = accs[gp.start..].split_at_mut(z_from);
    for pp in &gp.parts {
        let region = &vals[k * pp.offset + r * pp.count..][..pp.count];
        // Phase A: table `t` gains functions `w_from..w_to`, at
        // `region[t · n..]`; phase B: fresh table `z_from + t` holds
        // functions `0..w_to`, at `region[z_from · n + t · w_to..]`.
        let n = (pp.w_to - pp.w_from) as usize;
        let (phase_a, phase_b) = region.split_at(z_from * n);
        fold_lockstep(existing, phase_a, n);
        fold_lockstep(fresh, phase_b, pp.w_to as usize);
    }
}

/// Folds `per_table` values into each of `accs` from `vals`, which holds
/// table `t`'s at `vals[t · per_table..]`: value `j` of every table
/// before value `j + 1`.
#[inline]
fn fold_lockstep(accs: &mut [u64], vals: &[u64], per_table: usize) {
    debug_assert_eq!(vals.len(), accs.len() * per_table);
    for j in 0..per_table {
        for (acc, &v) in accs.iter_mut().zip(vals.iter().skip(j).step_by(per_table)) {
            *acc = combine(*acc, v);
        }
    }
}

fn build_part_plan(
    parts: &[HashPart],
    part: usize,
    w_from: u32,
    w_to: u32,
    z_from: u32,
    z_to: u32,
    offset: usize,
) -> PartPlan {
    let tasks = canonical_tasks(w_from, w_to, z_from, z_to);
    let kind = match &parts[part] {
        HashPart::Weighted { selection, choices } => {
            // Route each task to its selected sub-part, remembering its
            // position so the sub-part's values scatter back in order.
            let mut positions: Vec<Vec<usize>> = vec![Vec::new(); choices.len()];
            for (pos, &(t, j)) in tasks.iter().enumerate() {
                let c = selection.field_for((u64::from(t) * TABLE_STRIDE + u64::from(j)) as usize);
                positions[c].push(pos);
            }
            let plans = positions
                .into_iter()
                .enumerate()
                .filter(|(_, positions)| !positions.is_empty())
                .map(|(choice, positions)| {
                    let routed: Vec<(u32, u32)> = positions.iter().map(|&p| tasks[p]).collect();
                    ChoicePlan {
                        choice,
                        kind: simple_plan(&choices[choice], &routed),
                        positions,
                    }
                })
                .collect();
            PartPlanKind::Weighted { choices: plans }
        }
        simple => simple_plan(simple, &tasks),
    };
    PartPlan {
        part,
        w_from,
        w_to,
        offset,
        count: tasks.len(),
        kind,
    }
}

/// Builds the per-level plans (one per `lvl−1 → lvl` transition; jumps
/// advance level by level, so these cover every transition that occurs).
fn build_plans(parts: &[HashPart], levels: &[LevelScheme]) -> Vec<LevelPlan> {
    let mut plans = Vec::with_capacity(levels.len());
    // Each level's accumulators follow the previous level's, group after
    // group.
    let mut end = 0usize;
    for (li, level) in levels.iter().enumerate() {
        let prev = if li == 0 { None } else { Some(&levels[li - 1]) };
        let mut group = |g: usize, z_from: u32, z_to: u32, pps: Vec<PartPlan>| {
            let start = end;
            end += z_to as usize;
            GroupPlan {
                group: g as u32,
                start,
                z_from,
                z_to,
                total: pps.iter().map(|pp| pp.count).sum(),
                parts: pps,
            }
        };
        let groups = match level {
            LevelScheme::Shared { ws, z } => {
                let (ws_from, z_from) = match prev {
                    None => (vec![0u32; ws.len()], 0),
                    Some(LevelScheme::Shared { ws, z }) => (ws.clone(), *z),
                    Some(LevelScheme::PerPart { .. }) => unreachable!("structure is uniform"),
                };
                let mut pps = Vec::with_capacity(ws.len());
                let mut offset = 0usize;
                for (p, &w_to) in ws.iter().enumerate() {
                    let pp = build_part_plan(parts, p, ws_from[p], w_to, z_from, *z, offset);
                    offset += pp.count;
                    pps.push(pp);
                }
                vec![group(0, z_from, *z, pps)]
            }
            LevelScheme::PerPart { parts: tos } => tos
                .iter()
                .enumerate()
                .map(|(p, s)| {
                    let (w_from, z_from) = match prev {
                        None => (0, 0),
                        Some(LevelScheme::PerPart { parts }) => (parts[p].w, parts[p].z),
                        Some(LevelScheme::Shared { .. }) => unreachable!("structure is uniform"),
                    };
                    let pp = build_part_plan(parts, p, w_from, s.w, z_from, s.z, 0);
                    group(p, z_from, s.z, vec![pp])
                })
                .collect(),
        };
        plans.push(LevelPlan {
            groups,
            end,
            built: OnceLock::new(),
        });
    }
    plans
}

/// Builds every dense panel of `plan` (one per dense part and per dense
/// weighted choice, over that part's or choice's tasks) and reports
/// what it took.
fn build_level(parts: &[HashPart], plan: &LevelPlan) -> LevelBuild {
    let start = Instant::now();
    let mut built = LevelBuild::default();
    let mut record = |panel: &HyperplanePanel| {
        built.functions += panel.len() as u64;
        built.bytes += panel.bytes() as u64;
    };
    for gp in &plan.groups {
        for pp in &gp.parts {
            let tasks = || canonical_tasks(pp.w_from, pp.w_to, gp.z_from, gp.z_to);
            match (&pp.kind, &parts[pp.part]) {
                (PartPlanKind::Dense { panel }, part) => {
                    record(panel.get_or_init(|| dense_panel(part, tasks().into_iter())));
                }
                (
                    PartPlanKind::Weighted { choices: cplans },
                    HashPart::Weighted { choices, .. },
                ) => {
                    let tasks = tasks();
                    for cp in cplans {
                        if let PartPlanKind::Dense { panel } = &cp.kind {
                            let routed = cp.positions.iter().map(|&p| tasks[p]);
                            record(panel.get_or_init(|| dense_panel(&choices[cp.choice], routed)));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    built.build_micros = start.elapsed().as_micros() as u64;
    built
}

/// The full hashing side of a sequence `H₁ … H_L`: elementary parts plus
/// per-level schemes and the precomputed batch plans. Construction builds
/// no hyperplane normal; each level's are built when a record first
/// advances to it, and `advance` stays `&self` throughout, so records can
/// be hashed from many threads.
#[derive(Debug)]
pub struct SequenceHasher {
    parts: Vec<HashPart>,
    levels: Vec<LevelScheme>,
    plans: Vec<LevelPlan>,
}

impl SequenceHasher {
    /// Creates a hasher, validating that all levels share the same
    /// structure, reference every part, and extend one another.
    ///
    /// # Panics
    /// Panics on structural violations.
    pub fn new(parts: Vec<HashPart>, levels: Vec<LevelScheme>) -> Self {
        assert!(!levels.is_empty(), "need at least one level");
        for level in &levels {
            assert_eq!(
                level.num_parts(),
                parts.len(),
                "level arity must match part count"
            );
        }
        for pair in levels.windows(2) {
            assert!(
                pair[1].extends(&pair[0]),
                "levels must be nondecreasing in w and z: {:?} does not extend {:?}",
                pair[1],
                pair[0]
            );
        }
        let plans = build_plans(&parts, &levels);
        Self {
            parts,
            levels,
            plans,
        }
    }

    /// What building level `lvl`'s (1-based) hyperplane normals took, or
    /// `None` while no record has advanced to it yet, or when the level
    /// has no hyperplane task. Normals are seeded by `(table, function)`
    /// alone, so the panels do not depend on which thread built them or
    /// when.
    ///
    /// # Panics
    /// Panics if `lvl` is out of range.
    pub(crate) fn level_build(&self, lvl: usize) -> Option<LevelBuild> {
        let built = self.plans[lvl - 1].built.get()?;
        (built.functions > 0).then_some(*built)
    }

    /// Number of sequence functions `L`.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The scheme of level `lvl` (1-based).
    pub fn level(&self, lvl: usize) -> &LevelScheme {
        &self.levels[lvl - 1]
    }

    /// All level schemes, in order.
    pub fn levels(&self) -> &[LevelScheme] {
        &self.levels
    }

    /// The elementary hash parts, in order.
    pub fn parts(&self) -> &[HashPart] {
        &self.parts
    }

    /// Advances a record's state to `to_level` (1-based), evaluating only
    /// the hash functions not yet applied. No-op if already at or past
    /// `to_level` — re-applying an earlier level costs nothing, its keys
    /// are served from the state.
    ///
    /// Levels are applied one at a time so every record folds its table
    /// accumulators in the same canonical order — a record advanced
    /// 0→3 directly must end with bit-identical keys to one advanced
    /// 0→1→2→3, or cross-record bucket comparisons would silently fail
    /// for multi-part schemes.
    ///
    /// Evaluation is **batched**: each level dispatches one kernel call
    /// per part ([`MinHashFamily::hash_batch_keys`] /
    /// [`HyperplanePanel::hash_all`]) over the precomputed work-list,
    /// then folds the values in the canonical order. This is
    /// [`SequenceHasher::advance_records`] on a block of one. The first
    /// advance to a level builds that level's hyperplane normals.
    ///
    /// # Panics
    /// Panics if `to_level` is out of range.
    pub fn advance<R: RecordFields>(
        &self,
        record: &R,
        state: &mut RecordHashState,
        to_level: usize,
        stats: &mut Stats,
    ) {
        self.advance_records(
            std::slice::from_ref(record),
            std::slice::from_mut(state),
            to_level,
            stats,
            &mut HashScratch::default(),
        );
    }

    /// Advances every `states[i]` (the state of `records[i]`) to
    /// `to_level`, exactly as [`SequenceHasher::advance`] would one by
    /// one, in blocks of up to [`PANEL_RECORDS`] records that still need
    /// a level. A block moves level by level; at each level, the block's
    /// records that need it share one panel call per dense part or dense
    /// weighted choice, so each normal loaded serves them all. States
    /// and `Stats.hash_evals` do not depend on how records fall into
    /// blocks.
    ///
    /// # Panics
    /// Panics if `to_level` is out of range or the lengths differ.
    pub fn advance_records<R: RecordFields>(
        &self,
        records: &[R],
        states: &mut [RecordHashState],
        to_level: usize,
        stats: &mut Stats,
        scratch: &mut HashScratch,
    ) {
        assert!(
            (1..=self.levels.len()).contains(&to_level),
            "level out of range"
        );
        assert_eq!(records.len(), states.len(), "one state per record");
        // Records already at or past `to_level` take no slot: their keys
        // are served from the state.
        let mut block: Vec<(&R, &mut RecordHashState)> = Vec::with_capacity(PANEL_RECORDS);
        let needy = records
            .iter()
            .zip(states.iter_mut())
            .filter(|(_, state)| usize::from(state.level) < to_level);
        for entry in needy {
            block.push(entry);
            if block.len() == PANEL_RECORDS {
                self.advance_block(&mut block, to_level, stats, scratch);
                block.clear();
            }
        }
        if !block.is_empty() {
            self.advance_block(&mut block, to_level, stats, scratch);
        }
    }

    /// Advances one block (at most [`PANEL_RECORDS`] records, each below
    /// `to_level`) level by level: the records at `lvl − 1` advance to
    /// `lvl` together.
    fn advance_block<R: RecordFields>(
        &self,
        block: &mut [(&R, &mut RecordHashState)],
        to_level: usize,
        stats: &mut Stats,
        scratch: &mut HashScratch,
    ) {
        let from = block
            .iter()
            .map(|(_, s)| usize::from(s.level))
            .min()
            .expect("a block holds a record");
        for lvl in from + 1..=to_level {
            let mut active = [0usize; PANEL_RECORDS];
            let mut k = 0;
            for (i, (_, state)) in block.iter().enumerate() {
                if usize::from(state.level) < lvl {
                    debug_assert_eq!(usize::from(state.level) + 1, lvl);
                    active[k] = i;
                    k += 1;
                }
            }
            self.advance_level(block, &active[..k], lvl, stats, scratch);
        }
    }

    /// Advances the records `block[i]` for `i` in `active` (each at
    /// `to_level − 1`) exactly one level via the batch plans.
    fn advance_level<R: RecordFields>(
        &self,
        block: &mut [(&R, &mut RecordHashState)],
        active: &[usize],
        to_level: usize,
        stats: &mut Stats,
        scratch: &mut HashScratch,
    ) {
        let plan = &self.plans[to_level - 1];
        plan.built.get_or_init(|| build_level(&self.parts, plan));
        let k = active.len();
        let mut records = [block[active[0]].0; PANEL_RECORDS];
        for (slot, &i) in records.iter_mut().zip(active) {
            *slot = block[i].0;
        }
        let records = &records[..k];
        // Every group's values for the block, group after group: group
        // `g`'s region starts at `k` times the totals of the groups before.
        let total: usize = plan.groups.iter().map(|gp| gp.total).sum();
        scratch.vals.clear();
        scratch.vals.resize(k * total, 0);
        let mut rest = &mut scratch.vals[..];
        for gp in &plan.groups {
            let (vals, tail) = rest.split_at_mut(k * gp.total);
            rest = tail;
            for pp in &gp.parts {
                let out = &mut vals[k * pp.offset..k * (pp.offset + pp.count)];
                match (&pp.kind, &self.parts[pp.part]) {
                    (
                        PartPlanKind::Weighted { choices: cplans },
                        HashPart::Weighted { choices, .. },
                    ) => {
                        for cp in cplans {
                            let n = cp.positions.len();
                            scratch.tmp.clear();
                            scratch.tmp.resize(k * n, 0);
                            eval_simple(&choices[cp.choice], &cp.kind, records, &mut scratch.tmp);
                            for (out, vals) in out.chunks_mut(pp.count).zip(scratch.tmp.chunks(n)) {
                                for (&pos, &val) in cp.positions.iter().zip(vals) {
                                    out[pos] = val;
                                }
                            }
                        }
                    }
                    (kind, part) => eval_simple(part, kind, records, out),
                }
            }
        }
        stats.hash_evals += (k * total) as u64;

        // Then each record's new level: each group's accumulators of the
        // previous level are copied to the end of the record's array and
        // extended there, fresh tables appended, so the previous level's
        // stay servable. One reservation up to the level's end is the
        // advance's only allocation.
        let prev = to_level.checked_sub(2).map(|l| &self.plans[l]);
        for (r, &i) in active.iter().enumerate() {
            let state = &mut *block[i].1;
            state.accs.reserve_exact(plan.end - state.accs.len());
            let mut rest = &scratch.vals[..];
            for (g, gp) in plan.groups.iter().enumerate() {
                if let Some(prev) = prev {
                    let from = prev.groups[g].start;
                    state
                        .accs
                        .extend_from_within(from..from + gp.z_from as usize);
                }
                let (vals, tail) = rest.split_at(k * gp.total);
                rest = tail;
                fold_group(gp, vals, k, r, &mut state.accs);
            }
            state.level = to_level as u16;
        }
    }

    /// Length of a state's accumulator array at `level` (0 = none).
    fn end(&self, level: usize) -> usize {
        level.checked_sub(1).map_or(0, |l| self.plans[l].end)
    }

    /// Checks that `state` has the shape this hasher gives it: a level
    /// within the sequence and exactly that level's accumulator count.
    /// [`SequenceHasher::keys`] and the next advance slice the
    /// accumulators by the level plans, so a state that passes cannot
    /// index out of bounds; a deserialized state (snapshot resume) must
    /// pass this before use.
    ///
    /// # Errors
    /// Describes the mismatch.
    pub fn check_state(&self, state: &RecordHashState) -> Result<(), String> {
        let level = usize::from(state.level);
        if level > self.levels.len() {
            return Err(format!(
                "is at level {level} but the sequence has only {} levels",
                self.levels.len()
            ));
        }
        let end = self.end(level);
        if state.accs.len() != end {
            return Err(format!(
                "claims level {level} but holds {} accumulators, expected {end}",
                state.accs.len()
            ));
        }
        Ok(())
    }

    /// Bucket keys of a record at any *completed* level: `(table_tag,
    /// key)` pairs, where `table_tag` is unique per (group, table).
    /// Earlier levels stay addressable after the record advances — a
    /// later run re-applying `H₁` to a deep record reads the persisted
    /// level-1 keys instead of re-hashing.
    ///
    /// # Panics
    /// Panics if `level` is 0 or beyond the record's current level.
    pub fn keys<'s>(
        &'s self,
        state: &'s RecordHashState,
        level: usize,
    ) -> impl Iterator<Item = (u64, u64)> + 's {
        assert!(
            (1..=state.level as usize).contains(&level),
            "level {level} not yet applied to this record (state at {})",
            state.level
        );
        self.plans[level - 1].groups.iter().flat_map(move |gp| {
            state.accs[gp.start..][..gp.z_to as usize]
                .iter()
                .enumerate()
                .map(move |(t, &acc)| (u64::from(gp.group) << 32 | t as u64, acc))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adalsh_data::{DenseVector, FieldValue, Record, ShingleSet};

    fn dense_record(v: &[f64]) -> Record {
        Record::single(FieldValue::Dense(DenseVector::new(v.to_vec())))
    }

    fn shingle_record(s: &[u64]) -> Record {
        Record::single(FieldValue::Shingles(ShingleSet::new(s.to_vec())))
    }

    fn shared_levels() -> Vec<LevelScheme> {
        vec![
            LevelScheme::Shared { ws: vec![2], z: 3 },
            LevelScheme::Shared { ws: vec![4], z: 5 },
            LevelScheme::Shared { ws: vec![4], z: 9 },
        ]
    }

    #[test]
    fn budget_accounting() {
        let l = LevelScheme::Shared {
            ws: vec![3, 2],
            z: 4,
        };
        assert_eq!(l.budget(), 20);
        let o = LevelScheme::PerPart {
            parts: vec![WzScheme::new(2, 3), WzScheme::new(5, 2)],
        };
        assert_eq!(o.budget(), 16);
    }

    #[test]
    fn extends_checks_monotonicity() {
        let a = LevelScheme::Shared { ws: vec![2], z: 3 };
        let b = LevelScheme::Shared { ws: vec![4], z: 5 };
        assert!(b.extends(&a));
        assert!(!a.extends(&b));
        let o = LevelScheme::PerPart {
            parts: vec![WzScheme::new(2, 3)],
        };
        assert!(!o.extends(&a), "mixed structures never extend");
    }

    #[test]
    fn incremental_equals_from_scratch() {
        // Advancing 0→1→2→3 must produce the same accumulators as 0→3.
        let r = shingle_record(&[1, 5, 9, 42, 77]);
        let mk = || SequenceHasher::new(vec![HashPart::shingles(0, 11)], shared_levels());

        let h1 = mk();
        let mut s1 = RecordHashState::default();
        let mut st = Stats::default();
        h1.advance(&r, &mut s1, 1, &mut st);
        h1.advance(&r, &mut s1, 2, &mut st);
        h1.advance(&r, &mut s1, 3, &mut st);

        let h2 = mk();
        let mut s2 = RecordHashState::default();
        h2.advance(&r, &mut s2, 3, &mut st);

        let k1: Vec<_> = h1.keys(&s1, 3).collect();
        let k2: Vec<_> = h2.keys(&s2, 3).collect();
        assert_eq!(k1, k2);
    }

    #[test]
    fn jump_equals_stepwise_for_multipart() {
        // Two-part AND scheme: a record advanced 0→2 directly must agree
        // with one advanced 0→1→2 (canonical fold order).
        let rec = Record::new(vec![
            FieldValue::Shingles(ShingleSet::new(vec![1, 2, 3])),
            FieldValue::Shingles(ShingleSet::new(vec![9, 8])),
        ]);
        let levels = vec![
            LevelScheme::Shared {
                ws: vec![2, 1],
                z: 2,
            },
            LevelScheme::Shared {
                ws: vec![3, 2],
                z: 4,
            },
        ];
        let mk = || {
            SequenceHasher::new(
                vec![HashPart::shingles(0, 5), HashPart::shingles(1, 6)],
                levels.clone(),
            )
        };
        let mut st = Stats::default();
        let h1 = mk();
        let mut s1 = RecordHashState::default();
        h1.advance(&rec, &mut s1, 1, &mut st);
        h1.advance(&rec, &mut s1, 2, &mut st);
        let h2 = mk();
        let mut s2 = RecordHashState::default();
        h2.advance(&rec, &mut s2, 2, &mut st);
        assert_eq!(
            h1.keys(&s1, 2).collect::<Vec<_>>(),
            h2.keys(&s2, 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn incremental_saves_hash_evals() {
        let r = shingle_record(&[1, 2, 3]);
        let h = SequenceHasher::new(vec![HashPart::shingles(0, 11)], shared_levels());
        let mut s = RecordHashState::default();
        let mut st = Stats::default();
        h.advance(&r, &mut s, 1, &mut st);
        assert_eq!(st.hash_evals, 6, "level 1 = 2·3 evals");
        h.advance(&r, &mut s, 2, &mut st);
        // Level 2 = 4·5 = 20 cumulative ⇒ 14 new.
        assert_eq!(st.hash_evals, 20);
        h.advance(&r, &mut s, 3, &mut st);
        // Level 3 = 4·9 = 36 cumulative ⇒ 16 new.
        assert_eq!(st.hash_evals, 36);
    }

    #[test]
    fn identical_records_share_all_keys() {
        let a = shingle_record(&[10, 20, 30]);
        let b = shingle_record(&[30, 10, 20]);
        let h = SequenceHasher::new(vec![HashPart::shingles(0, 5)], shared_levels());
        let mut st = Stats::default();
        let (mut sa, mut sb) = (RecordHashState::default(), RecordHashState::default());
        h.advance(&a, &mut sa, 2, &mut st);
        h.advance(&b, &mut sb, 2, &mut st);
        let ka: Vec<_> = h.keys(&sa, 2).collect();
        let kb: Vec<_> = h.keys(&sb, 2).collect();
        assert_eq!(ka, kb);
    }

    /// A record advanced straight to level 3 must serve the same level-1
    /// and level-2 keys as records stopped at those levels: completed
    /// levels stay addressable from the history, which is what lets a
    /// later query re-apply an earlier sequence function for free.
    #[test]
    fn earlier_level_keys_stay_readable_after_advancing() {
        let r = shingle_record(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let h = SequenceHasher::new(vec![HashPart::shingles(0, 5)], shared_levels());
        let mut st = Stats::default();
        let mut deep = RecordHashState::default();
        h.advance(&r, &mut deep, 3, &mut st);
        for lvl in 1..=2 {
            let mut shallow = RecordHashState::default();
            h.advance(&r, &mut shallow, lvl, &mut st);
            assert_eq!(
                h.keys(&deep, lvl).collect::<Vec<_>>(),
                h.keys(&shallow, lvl).collect::<Vec<_>>(),
                "level {lvl} keys must survive deeper advancement"
            );
        }
    }

    /// Re-applying any already-completed level is a free no-op — the
    /// state is untouched and no hash function is evaluated.
    #[test]
    fn re_advancing_to_a_completed_level_is_free() {
        let r = shingle_record(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let h = SequenceHasher::new(vec![HashPart::shingles(0, 5)], shared_levels());
        let mut st = Stats::default();
        let mut s = RecordHashState::default();
        h.advance(&r, &mut s, 3, &mut st);
        let frozen = s.clone();
        let evals = st.hash_evals;
        for lvl in 1..=3 {
            h.advance(&r, &mut s, lvl, &mut st);
            h.advance_records(
                std::slice::from_ref(&r),
                std::slice::from_mut(&mut s),
                lvl,
                &mut st,
                &mut HashScratch::default(),
            );
        }
        assert_eq!(s, frozen, "no-op advances must not mutate the state");
        assert_eq!(st.hash_evals, evals, "and must not evaluate anything");
    }

    #[test]
    fn distant_records_share_no_keys() {
        let a = shingle_record(&(0..50).collect::<Vec<_>>());
        let b = shingle_record(&(1000..1050).collect::<Vec<_>>());
        let h = SequenceHasher::new(vec![HashPart::shingles(0, 5)], shared_levels());
        let mut st = Stats::default();
        let (mut sa, mut sb) = (RecordHashState::default(), RecordHashState::default());
        h.advance(&a, &mut sa, 3, &mut st);
        h.advance(&b, &mut sb, 3, &mut st);
        let ka: Vec<u64> = h.keys(&sa, 3).map(|(_, k)| k).collect();
        let kb: Vec<u64> = h.keys(&sb, 3).map(|(_, k)| k).collect();
        assert!(ka.iter().zip(&kb).all(|(x, y)| x != y));
    }

    #[test]
    fn dense_part_works_end_to_end() {
        let a = dense_record(&[1.0, 0.1, -0.2, 0.5]);
        let b = dense_record(&[1.0, 0.1, -0.2, 0.5]);
        let h = SequenceHasher::new(
            vec![HashPart::dense(0, 4, 3)],
            vec![LevelScheme::Shared { ws: vec![3], z: 2 }],
        );
        let mut st = Stats::default();
        let (mut sa, mut sb) = (RecordHashState::default(), RecordHashState::default());
        h.advance(&a, &mut sa, 1, &mut st);
        h.advance(&b, &mut sb, 1, &mut st);
        assert_eq!(
            h.keys(&sa, 1).collect::<Vec<_>>(),
            h.keys(&sb, 1).collect::<Vec<_>>()
        );
        assert_eq!(st.hash_evals, 12);
    }

    #[test]
    fn per_part_groups_are_independent() {
        let schema_rec = Record::new(vec![
            FieldValue::Shingles(ShingleSet::new(vec![1, 2, 3])),
            FieldValue::Shingles(ShingleSet::new(vec![100, 200])),
        ]);
        let levels = vec![
            LevelScheme::PerPart {
                parts: vec![WzScheme::new(2, 2), WzScheme::new(1, 3)],
            },
            LevelScheme::PerPart {
                parts: vec![WzScheme::new(2, 4), WzScheme::new(2, 3)],
            },
        ];
        let h = SequenceHasher::new(
            vec![HashPart::shingles(0, 1), HashPart::shingles(1, 2)],
            levels,
        );
        let mut st = Stats::default();
        let mut s = RecordHashState::default();
        h.advance(&schema_rec, &mut s, 1, &mut st);
        assert_eq!(st.hash_evals, 2 * 2 + 3);
        let keys: Vec<_> = h.keys(&s, 1).collect();
        assert_eq!(keys.len(), 5);
        // Table tags must be unique.
        let mut tags: Vec<u64> = keys.iter().map(|&(t, _)| t).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 5);
        h.advance(&schema_rec, &mut s, 2, &mut st);
        assert_eq!(h.keys(&s, 2).count(), 7);
    }

    #[test]
    fn weighted_part_hashes_by_selected_field() {
        let rec = Record::new(vec![
            FieldValue::Shingles(ShingleSet::new(vec![1, 2, 3])),
            FieldValue::Shingles(ShingleSet::new(vec![4, 5])),
        ]);
        let part = HashPart::weighted(
            &[
                (0, FieldDistance::Jaccard, 0.5),
                (1, FieldDistance::Jaccard, 0.5),
            ],
            &[0, 0],
            9,
        );
        let h = SequenceHasher::new(vec![part], vec![LevelScheme::Shared { ws: vec![8], z: 2 }]);
        let mut st = Stats::default();
        let mut s = RecordHashState::default();
        h.advance(&rec, &mut s, 1, &mut st);
        assert_eq!(st.hash_evals, 16);
        assert_eq!(h.keys(&s, 1).count(), 2);
    }

    /// A two-part AND scheme (shingles + dense) and a dense OR scheme,
    /// each with four levels whose dense tasks span table boundaries and
    /// both phases.
    fn dense_hashers() -> Vec<SequenceHasher> {
        let shared = SequenceHasher::new(
            vec![HashPart::shingles(0, 5), HashPart::dense(1, 3, 6)],
            vec![
                LevelScheme::Shared {
                    ws: vec![1, 2],
                    z: 3,
                },
                LevelScheme::Shared {
                    ws: vec![2, 5],
                    z: 7,
                },
                LevelScheme::Shared {
                    ws: vec![2, 9],
                    z: 8,
                },
                LevelScheme::Shared {
                    ws: vec![3, 9],
                    z: 12,
                },
            ],
        );
        let per_part = SequenceHasher::new(
            vec![HashPart::shingles(0, 1), HashPart::dense(1, 3, 2)],
            vec![
                LevelScheme::PerPart {
                    parts: vec![WzScheme::new(1, 2), WzScheme::new(3, 5)],
                },
                LevelScheme::PerPart {
                    parts: vec![WzScheme::new(2, 2), WzScheme::new(7, 9)],
                },
                LevelScheme::PerPart {
                    parts: vec![WzScheme::new(2, 3), WzScheme::new(8, 11)],
                },
                LevelScheme::PerPart {
                    parts: vec![WzScheme::new(2, 3), WzScheme::new(12, 11)],
                },
            ],
        );
        vec![shared, per_part]
    }

    fn mixed_record(i: u64) -> Record {
        Record::new(vec![
            FieldValue::Shingles(ShingleSet::new(vec![i, i + 3, 40])),
            FieldValue::Dense(DenseVector::new(vec![0.5 - i as f64, -0.25, 1.5])),
        ])
    }

    /// Every lane of level `lvl`'s built panels, as bits, in plan order.
    fn panel_bits(h: &SequenceHasher, lvl: usize) -> Vec<Vec<u64>> {
        let mut lanes = Vec::new();
        let mut push = |kind: &PartPlanKind| {
            if let PartPlanKind::Dense { panel } = kind {
                let panel = panel.get().expect("level built");
                lanes.extend((0..panel.len()).map(|i| panel.normal(i).map(f64::to_bits).collect()));
            }
        };
        for gp in &h.plans[lvl - 1].groups {
            for pp in &gp.parts {
                match &pp.kind {
                    PartPlanKind::Weighted { choices } => {
                        choices.iter().for_each(|c| push(&c.kind))
                    }
                    kind => push(kind),
                }
            }
        }
        lanes
    }

    /// A new hasher holds no normals; advancing to `H_l` builds the
    /// panels of levels `1..=l` and no deeper one.
    #[test]
    fn normals_are_built_per_level_on_first_use() {
        for h in dense_hashers() {
            let none_built =
                |h: &SequenceHasher| {
                    h.plans.iter().all(|plan| {
                        plan.built.get().is_none()
                            && plan.groups.iter().flat_map(|gp| &gp.parts).all(|pp| {
                                match &pp.kind {
                                    PartPlanKind::Dense { panel } => panel.get().is_none(),
                                    _ => true,
                                }
                            })
                    })
                };
            assert!(none_built(&h), "construction builds no normal");
            let mut state = RecordHashState::default();
            h.advance(&mixed_record(1), &mut state, 2, &mut Stats::default());
            for lvl in 1..=4 {
                assert_eq!(h.level_build(lvl).is_some(), lvl <= 2, "level {lvl}");
            }
            // The built levels hold exactly their own dense tasks.
            let dense_tasks = |lvl: usize| -> u64 {
                let (from, to) = ((lvl > 1).then(|| h.level(lvl - 1)), h.level(lvl));
                let (w_from, z_from, w_to, z_to) = match (from, to) {
                    (
                        Some(LevelScheme::Shared { ws, z }),
                        LevelScheme::Shared { ws: wt, z: zt },
                    ) => (ws[1], *z, wt[1], *zt),
                    (None, LevelScheme::Shared { ws, z }) => (0, 0, ws[1], *z),
                    (Some(LevelScheme::PerPart { parts }), LevelScheme::PerPart { parts: to }) => {
                        (parts[1].w, parts[1].z, to[1].w, to[1].z)
                    }
                    (None, LevelScheme::PerPart { parts }) => (0, 0, parts[1].w, parts[1].z),
                    _ => unreachable!(),
                };
                canonical_tasks(w_from, w_to, z_from, z_to).len() as u64
            };
            for lvl in 1..=2 {
                let build = h.level_build(lvl).unwrap();
                assert_eq!(build.functions, dense_tasks(lvl), "level {lvl}");
                assert_eq!(build.bytes, build.functions.div_ceil(32) * 32 * 3 * 8);
            }
            // A shingle-only sequence never builds anything.
            let sh = SequenceHasher::new(vec![HashPart::shingles(0, 11)], shared_levels());
            sh.advance(
                &shingle_record(&[1, 2]),
                &mut RecordHashState::default(),
                3,
                &mut Stats::default(),
            );
            assert!((1..=3).all(|l| sh.level_build(l).is_none()));
        }
    }

    /// Each lane of every level's panel is its task's reference normal —
    /// normal `j` of table `t`'s [`HyperplaneFamily`] — bit for bit.
    #[test]
    fn panel_lanes_are_the_reference_normals() {
        for h in dense_hashers() {
            let mut state = RecordHashState::default();
            h.advance(&mixed_record(2), &mut state, 4, &mut Stats::default());
            for lvl in 1..=4 {
                let plan = &h.plans[lvl - 1];
                let dense_group = plan.groups.len() - 1;
                let gp = &plan.groups[dense_group];
                let pp = gp.parts.last().expect("dense part last");
                let HashPart::Dense { seed, dim, .. } = h.parts[pp.part] else {
                    panic!("part 1 is dense")
                };
                let reference: Vec<Vec<u64>> =
                    canonical_tasks(pp.w_from, pp.w_to, gp.z_from, gp.z_to)
                        .into_iter()
                        .map(|(t, j)| {
                            let mut family =
                                HyperplaneFamily::new(dim, derive_seed(seed, u64::from(t)));
                            family.ensure_functions(j as usize + 1);
                            family
                                .normal(j as usize)
                                .iter()
                                .map(|x| x.to_bits())
                                .collect()
                        })
                        .collect();
                assert_eq!(panel_bits(&h, lvl), reference, "level {lvl}");
            }
        }
    }

    /// Levels built in sequence, in reverse (a resumed deep state first),
    /// or by several threads racing to the same level hold the same
    /// panels, and hash every record the same.
    #[test]
    fn panels_do_not_depend_on_build_order_or_thread() {
        for (in_order, (reversed, raced)) in dense_hashers()
            .into_iter()
            .zip(dense_hashers().into_iter().zip(dense_hashers()))
        {
            let top = in_order.num_levels();
            let mut states = vec![RecordHashState::default(); 4];
            for lvl in 1..=top {
                in_order.advance(&mixed_record(0), &mut states[0], lvl, &mut Stats::default());
            }
            // Reverse: a state restored one level short of `lvl` builds
            // that level alone, from the top level down.
            for lvl in (1..=top).rev() {
                let mut restored = states[0].clone();
                restored.accs.truncate(reversed.end(lvl - 1));
                restored.level = lvl as u16 - 1;
                assert!(reversed.level_build(lvl).is_none());
                reversed.advance(&mixed_record(0), &mut restored, lvl, &mut Stats::default());
                assert!((1..lvl).all(|l| reversed.level_build(l).is_none()));
                let mut reference = states[0].clone();
                reference.accs.truncate(in_order.end(lvl));
                reference.level = lvl as u16;
                assert_eq!(restored, reference, "level {lvl}");
            }
            // Three threads released together race to build every level.
            let start = std::sync::Barrier::new(3);
            std::thread::scope(|scope| {
                for (i, state) in states.iter_mut().enumerate().skip(1) {
                    let (raced, start) = (&raced, &start);
                    scope.spawn(move || {
                        start.wait();
                        raced.advance(&mixed_record(i as u64), state, top, &mut Stats::default());
                    });
                }
            });
            for lvl in 1..=top {
                let bits = panel_bits(&in_order, lvl);
                assert!(!bits.is_empty());
                assert_eq!(panel_bits(&reversed, lvl), bits, "reverse, level {lvl}");
                assert_eq!(panel_bits(&raced, lvl), bits, "threads, level {lvl}");
            }
            for (i, state) in states.iter().enumerate().skip(1) {
                let mut alone = RecordHashState::default();
                in_order.advance(
                    &mixed_record(i as u64),
                    &mut alone,
                    top,
                    &mut Stats::default(),
                );
                assert_eq!(*state, alone, "record {i}");
            }
        }
    }

    #[test]
    fn state_serde_roundtrip_is_exact() {
        let r = shingle_record(&[1, 5, 9, 42, 77]);
        let h = SequenceHasher::new(vec![HashPart::shingles(0, 11)], shared_levels());
        let mut s = RecordHashState::default();
        let mut st = Stats::default();
        h.advance(&r, &mut s, 2, &mut st);
        let json = serde_json::to_string(&s).unwrap();
        let back: RecordHashState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s, "restored state must be bit-identical");
        // A restored state advances exactly like the original.
        let mut st2 = Stats::default();
        let (mut a, mut b) = (s.clone(), back);
        h.advance(&r, &mut a, 3, &mut st);
        h.advance(&r, &mut b, 3, &mut st2);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn shrinking_levels_rejected() {
        let _ = SequenceHasher::new(
            vec![HashPart::shingles(0, 1)],
            vec![
                LevelScheme::Shared { ws: vec![4], z: 4 },
                LevelScheme::Shared { ws: vec![2], z: 8 },
            ],
        );
    }

    /// A state whose claimed level exceeds its accumulators (corrupt or
    /// hand-edited) is detectable before use.
    #[test]
    fn corrupt_level_is_not_well_formed() {
        let r = shingle_record(&[1]);
        let h = SequenceHasher::new(vec![HashPart::shingles(0, 1)], shared_levels());
        let mut s = RecordHashState::default();
        let mut st = Stats::default();
        h.advance(&r, &mut s, 2, &mut st);
        assert_eq!(h.check_state(&s), Ok(()));
        s.level = 3; // simulate corruption
        let err = h.check_state(&s).unwrap_err();
        assert!(err.contains("claims level 3"), "{err}");
        s.level = 4; // past the sequence
        let err = h.check_state(&s).unwrap_err();
        assert!(err.contains("only 3 levels"), "{err}");
    }

    /// The accumulator count must be exactly the claimed level's: a
    /// truncated or padded array, or one whose length is that of another
    /// level, is refused.
    #[test]
    fn mis_shaped_history_is_not_well_formed() {
        let r = shingle_record(&[1, 2, 3]);
        let h = SequenceHasher::new(vec![HashPart::shingles(0, 1)], shared_levels());
        let mut good = RecordHashState::default();
        h.advance(&r, &mut good, 3, &mut Stats::default());
        assert_eq!(h.check_state(&good), Ok(()));
        // Levels hold 3, 5 and 9 tables: the array ends at 3, 8 and 17.
        assert_eq!(good.accs.len(), 17);

        let mut truncated = good.clone();
        truncated.accs.pop();
        let err = h.check_state(&truncated).unwrap_err();
        assert!(
            err.contains("claims level 3 but holds 16 accumulators, expected 17"),
            "{err}"
        );

        let mut padded = good.clone();
        padded.accs.push(0);
        let err = h.check_state(&padded).unwrap_err();
        assert!(err.contains("holds 18 accumulators, expected 17"), "{err}");

        let mut other_level = good.clone();
        other_level.accs.truncate(8);
        let err = h.check_state(&other_level).unwrap_err();
        assert!(
            err.contains("claims level 3 but holds 8 accumulators, expected 17"),
            "{err}"
        );
    }

    /// A `PerPart` (OR) level's accumulators are its parts' table counts
    /// summed.
    #[test]
    fn per_part_history_shape_is_checked() {
        let rec = Record::new(vec![
            FieldValue::Shingles(ShingleSet::new(vec![1, 2, 3])),
            FieldValue::Shingles(ShingleSet::new(vec![9, 8])),
        ]);
        let levels = vec![LevelScheme::PerPart {
            parts: vec![WzScheme::new(2, 3), WzScheme::new(1, 5)],
        }];
        let h = SequenceHasher::new(
            vec![HashPart::shingles(0, 5), HashPart::shingles(1, 6)],
            levels,
        );
        let mut s = RecordHashState::default();
        h.advance(&rec, &mut s, 1, &mut Stats::default());
        assert_eq!(h.check_state(&s), Ok(()));
        assert_eq!(s.accs.len(), 3 + 5);
        s.accs.truncate(3 + 3);
        let err = h.check_state(&s).unwrap_err();
        assert!(
            err.contains("claims level 1 but holds 6 accumulators, expected 8"),
            "{err}"
        );
    }
}
