//! Random-hyperplane family for the cosine (angular) distance.
//!
//! Each hash function is a random hyperplane through the origin (paper
//! Example 2): the hash of a vector is which side of the hyperplane it
//! lies on. For two vectors at angle `θ` degrees the collision probability
//! is `1 − θ/180` (Example 6), i.e. `p(x) = 1 − x` for the normalized
//! angular distance `x = θ/180`.
//!
//! Hyperplane normals are sampled i.i.d. standard Gaussian per component
//! (any rotation-invariant distribution works). Normal `i` of the family
//! seeded `s` is drawn from a generator seeded `derive_seed(s, i)` alone,
//! so it is the same bits whenever, wherever and in whatever order it is
//! built. Two containers hold normals:
//!
//! * [`HyperplaneFamily`] — functions `0..n` of one family, row-major,
//!   evaluated one at a time. It is the scalar reference.
//! * [`HyperplanePanel`] — an arbitrary list of `(family seed, function)`
//!   normals, block-major, evaluated all at once by one fixed-width
//!   kernel whose signs equal the reference's bit for bit.

use rand::{Rng, SeedableRng};

use crate::dispatch::{dispatch, Kernel};
use crate::mix::derive_seed;

/// Lanes in one [`HyperplanePanel`] block: one function per lane.
pub const PANEL_LANES: usize = 32;

/// Vectors one [`HyperplanePanel::hash_all`] call hashes at once.
pub const PANEL_RECORDS: usize = 4;

/// Lanes the portable kernel accumulates at once: half a block. Sixteen
/// `f64` accumulators fill eight SSE2 registers and leave room for the
/// loads; a full block's 32 would spill on the baseline x86-64 target
/// (the 16-lane half ran ~1.6x faster there).
const HALF_LANES: usize = PANEL_LANES / 2;

/// The components of normal `fn_index` of the family seeded `seed`, in
/// dimension order — the one sampler behind both containers.
fn sample_normal(seed: u64, fn_index: u64, dim: usize) -> impl Iterator<Item = f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, fn_index));
    (0..dim).map(move |_| gaussian(&mut rng))
}

/// A family of random-hyperplane hash functions over `R^dim`, with
/// functions `0..n` stored row-major and evaluated one at a time. This
/// is the scalar reference the batched [`HyperplanePanel`] reproduces.
#[derive(Debug, Clone)]
pub struct HyperplaneFamily {
    dim: usize,
    seed: u64,
    /// Memoized hyperplane normals, row-major: function `i` occupies
    /// `matrix[i*dim .. (i+1)*dim]`.
    matrix: Vec<f64>,
}

impl HyperplaneFamily {
    /// Creates a family for `dim`-dimensional vectors.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            seed,
            matrix: Vec::new(),
        }
    }

    /// The vector dimension this family hashes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Ensures functions `0..n` are materialized.
    pub fn ensure_functions(&mut self, n: usize) {
        while self.num_functions() < n {
            let idx = self.num_functions() as u64;
            self.matrix.extend(sample_normal(self.seed, idx, self.dim));
        }
    }

    /// Number of materialized functions.
    pub fn num_functions(&self) -> usize {
        self.matrix.len() / self.dim
    }

    /// The normal of function `fn_index` (a row of the matrix).
    ///
    /// # Panics
    /// Panics if the function is not materialized.
    #[inline]
    pub fn normal(&self, fn_index: usize) -> &[f64] {
        &self.matrix[fn_index * self.dim..(fn_index + 1) * self.dim]
    }

    /// Evaluates hash function `fn_index` on `v`: returns `1` when `v` lies
    /// on the positive side of the hyperplane, else `0`. The dot product
    /// is summed in ascending dimension order — the reference order the
    /// panel kernel reproduces.
    ///
    /// # Panics
    /// Panics if the function is not materialized (call
    /// [`HyperplaneFamily::ensure_functions`] first) or dimensions differ.
    #[inline]
    pub fn hash(&self, fn_index: usize, v: &[f64]) -> u64 {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let dot: f64 = self
            .normal(fn_index)
            .iter()
            .zip(v.iter())
            .map(|(n, x)| n * x)
            .sum();
        u64::from(dot >= 0.0)
    }

    /// Collision probability `p(x) = 1 − x` at normalized angular distance
    /// `x` (paper Example 6).
    pub fn collision_prob(x: f64) -> f64 {
        1.0 - x
    }
}

/// The normals of an ordered list of hyperplane functions, possibly
/// from many families, stored block-major for one batched kernel.
///
/// Function `i` is lane `i % PANEL_LANES` of block `i / PANEL_LANES`.
/// A block holds, for each dimension `d` in order, one `[f64; 32]` of
/// component `d` of its 32 normals; the last block's unused lanes are
/// zero. A sequence level lists its hyperplane tasks in canonical fold
/// order, so one panel per level turns every table's short function run
/// into full blocks.
#[derive(Debug, Clone)]
pub struct HyperplanePanel {
    dim: usize,
    len: usize,
    /// `blocks[b * dim + d].0[lane]` = component `d` of function
    /// `b * PANEL_LANES + lane`.
    blocks: Vec<Column>,
}

/// Component `d` of a block's 32 normals. Aligned to a cache line, so an
/// 8-lane load reads exactly one line: at the allocator's 16-byte
/// alignment every 64-byte load straddled two, and the one-vector
/// AVX-512 kernel ran at about half speed.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Column([f64; PANEL_LANES]);

impl HyperplanePanel {
    /// Builds the panel of `functions`, each a `(family seed, function
    /// index)` pair naming normal `index` of the family
    /// [`HyperplaneFamily::new`]`(dim, seed)` would hold.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, functions: &[(u64, u64)]) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let mut blocks =
            vec![Column([0.0; PANEL_LANES]); functions.len().div_ceil(PANEL_LANES) * dim];
        for (i, &(seed, fn_index)) in functions.iter().enumerate() {
            let (b, lane) = (i / PANEL_LANES, i % PANEL_LANES);
            for (col, x) in blocks[b * dim..(b + 1) * dim]
                .iter_mut()
                .zip(sample_normal(seed, fn_index, dim))
            {
                col.0[lane] = x;
            }
        }
        Self {
            dim,
            len: functions.len(),
            blocks,
        }
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the panel holds no function.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes the normals occupy, padding lanes included.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.blocks.as_slice())
    }

    /// The normal of function `i`, read back from its lane.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn normal(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(i < self.len, "function {i} out of range");
        let (b, lane) = (i / PANEL_LANES, i % PANEL_LANES);
        self.blocks[b * self.dim..(b + 1) * self.dim]
            .iter()
            .map(move |col| col.0[lane])
    }

    /// Hashes a block of one to [`PANEL_RECORDS`] vectors with every
    /// function: `out[r * len() + i]` receives exactly what
    /// [`HyperplaneFamily::hash`] returns for function `i` on `vs[r]`.
    /// Each lane adds one product per dimension in ascending order, a
    /// separate multiply and add with no fused multiply-add, so its sum
    /// is the reference sum and every sign is bit-identical. Blocks are
    /// whole whatever tables their tasks come from; only the ragged tail
    /// of the last block is not written.
    ///
    /// The kernel is compiled twice and picked at run time. The portable
    /// copy walks each block once per vector, 16 lanes at a time, so the
    /// block stays in L1 across the vectors. On CPUs with AVX-512F/DQ a
    /// copy holds all 32 lanes for every vector of the block in 16 `zmm`
    /// accumulators, so each column loaded serves every vector.
    ///
    /// # Panics
    /// Panics if `vs` holds no vector or more than [`PANEL_RECORDS`], or
    /// if a dimension or the output length mismatches.
    pub fn hash_all(&self, vs: &[&[f64]], out: &mut [u64]) {
        assert!(
            (1..=PANEL_RECORDS).contains(&vs.len()),
            "a block holds 1 to {PANEL_RECORDS} vectors, not {}",
            vs.len()
        );
        for v in vs {
            assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        }
        assert_eq!(out.len(), vs.len() * self.len, "output length mismatch");
        dispatch(PanelBlock {
            panel: self,
            vs,
            out,
        });
    }
}

/// One [`HyperplanePanel::hash_all`] call: the checked operands.
struct PanelBlock<'a> {
    panel: &'a HyperplanePanel,
    vs: &'a [&'a [f64]],
    out: &'a mut [u64],
}

impl Kernel for PanelBlock<'_> {
    type Output = ();

    #[inline(always)]
    fn run<const WIDE: bool>(self) {
        if !WIDE {
            return self.portable();
        }
        match self.vs.len() {
            1 => self.wide::<1>(),
            2 => self.wide::<2>(),
            3 => self.wide::<3>(),
            _ => self.wide::<4>(),
        }
    }
}

impl PanelBlock<'_> {
    /// Each block once per vector, a half block at a time.
    #[inline(always)]
    fn portable(self) {
        let Self { panel, vs, out } = self;
        let (dim, len) = (panel.dim, panel.len);
        for (b, block) in panel.blocks.chunks_exact(dim).enumerate() {
            for (r, &v) in vs.iter().enumerate() {
                for first in (0..PANEL_LANES).step_by(HALF_LANES) {
                    let lane = b * PANEL_LANES + first;
                    if lane >= len {
                        break;
                    }
                    let [acc] = accumulate::<HALF_LANES, 1>(block, first, [v]);
                    write_signs(&acc, &mut out[r * len..(r + 1) * len], lane);
                }
            }
        }
    }

    /// Each block once for all `R` vectors, all 32 lanes at a time.
    #[inline(always)]
    fn wide<const R: usize>(self) {
        let Self { panel, vs, out } = self;
        let (dim, len) = (panel.dim, panel.len);
        let vs: [&[f64]; R] = std::array::from_fn(|r| vs[r]);
        for (b, block) in panel.blocks.chunks_exact(dim).enumerate() {
            let acc = accumulate::<PANEL_LANES, R>(block, 0, vs);
            for (r, acc) in acc.iter().enumerate() {
                write_signs(acc, &mut out[r * len..(r + 1) * len], b * PANEL_LANES);
            }
        }
    }
}

/// The dot products of lanes `first..first + LANES` of `block` with each
/// of `vs`: `acc[r][l]` adds `block[d][first + l] * vs[r][d]` for `d` in
/// ascending order, one multiply and one add per term.
#[inline(always)]
fn accumulate<const LANES: usize, const R: usize>(
    block: &[Column],
    first: usize,
    vs: [&[f64]; R],
) -> [[f64; LANES]; R] {
    let dim = block.len();
    let vs = vs.map(|v| &v[..dim]);
    let mut acc = [[0.0f64; LANES]; R];
    for (d, col) in block.iter().enumerate() {
        let col: &[f64; LANES] = col.0[first..first + LANES].try_into().expect("LANES lanes");
        let xs: [f64; R] = std::array::from_fn(|r| vs[r][d]);
        for r in 0..R {
            for l in 0..LANES {
                acc[r][l] += col[l] * xs[r];
            }
        }
    }
    acc
}

/// Writes the signs of `acc` to `row[lane..]`, stopping at the row's end.
#[inline(always)]
fn write_signs(acc: &[f64], row: &mut [u64], lane: usize) {
    for (o, &a) in row[lane..].iter_mut().zip(acc) {
        *o = u64::from(a >= 0.0);
    }
}

/// One standard Gaussian sample via Box–Muller (we avoid the `rand_distr`
/// dependency; this is off the hot path — normals are memoized).
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
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

    fn family(dim: usize, n: usize) -> HyperplaneFamily {
        family_with_seed(dim, n, 7)
    }

    fn family_with_seed(dim: usize, n: usize, seed: u64) -> HyperplaneFamily {
        let mut f = HyperplaneFamily::new(dim, seed);
        f.ensure_functions(n);
        f
    }

    #[test]
    fn deterministic_across_instances() {
        let f1 = family(8, 16);
        let f2 = family(8, 16);
        let v: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        for i in 0..16 {
            assert_eq!(f1.hash(i, &v), f2.hash(i, &v));
        }
    }

    #[test]
    fn growth_order_does_not_change_functions() {
        let mut f1 = HyperplaneFamily::new(4, 3);
        f1.ensure_functions(2);
        f1.ensure_functions(10);
        let f2 = family_with_seed(4, 10, 3);
        let v = [0.3, -0.7, 0.1, 0.9];
        for i in 0..10 {
            assert_eq!(f1.hash(i, &v), f2.hash(i, &v));
        }
    }

    #[test]
    fn identical_vectors_always_collide() {
        let f = family(16, 64);
        let v: Vec<f64> = (0..16).map(|i| (i as f64 * 0.37).cos()).collect();
        for i in 0..64 {
            assert_eq!(f.hash(i, &v), f.hash(i, &v));
        }
    }

    #[test]
    fn scaled_vector_hashes_identically() {
        // Hyperplane hashing depends only on direction.
        let f = family(8, 32);
        let v: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let w: Vec<f64> = v.iter().map(|x| x * 5.0).collect();
        for i in 0..32 {
            assert_eq!(f.hash(i, &v), f.hash(i, &w));
        }
    }

    #[test]
    fn opposite_vectors_rarely_collide() {
        let f = family(8, 256);
        let v: Vec<f64> = (0..8).map(|i| (i as f64 * 0.61).sin() + 0.1).collect();
        let neg: Vec<f64> = v.iter().map(|x| -x).collect();
        let collisions = (0..256)
            .filter(|&i| f.hash(i, &v) == f.hash(i, &neg))
            .count();
        // p(collision) = 1 − 180/180 = 0 up to the dot == 0 edge case.
        assert_eq!(collisions, 0);
    }

    #[test]
    fn empirical_collision_rate_matches_angle() {
        // Two vectors at 60°: p = 1 − 60/180 = 2/3. With 4000 functions the
        // sample rate should be within a few percent.
        let f = family(2, 4000);
        let a = [1.0, 0.0];
        let b = [0.5, 3.0_f64.sqrt() / 2.0]; // 60 degrees from a
        let collisions = (0..4000)
            .filter(|&i| f.hash(i, &a) == f.hash(i, &b))
            .count();
        let rate = collisions as f64 / 4000.0;
        let p = HyperplaneFamily::collision_prob(60.0 / 180.0);
        assert!((p - 2.0 / 3.0).abs() < 1e-15);
        assert_eq!(HyperplaneFamily::collision_prob(0.0), 1.0);
        assert!((rate - p).abs() < 0.03, "rate {rate} too far from {p}");
    }

    #[test]
    fn different_seeds_give_different_families() {
        let f1 = family_with_seed(4, 64, 1);
        let f2 = family_with_seed(4, 64, 2);
        let v = [0.2, -0.4, 0.8, -0.1];
        let same = (0..64)
            .filter(|&i| f1.hash(i, &v) == f2.hash(i, &v))
            .count();
        assert!(same < 64, "independent families should differ somewhere");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let f = family(4, 1);
        let _ = f.hash(0, &[1.0, 2.0]);
    }

    /// `(seed, index)` tasks drawn from three families the way a level
    /// plan lists them: runs of ascending functions per table, tables
    /// changing mid-block, then fresh tables from function 0.
    fn mixed_tasks(count: usize) -> Vec<(u64, u64)> {
        let seeds = [11u64, 12, 13];
        (0..count)
            .map(|i| (seeds[(i / 7) % 3], (5 + i % 7 + i / 21) as u64))
            .collect()
    }

    /// Every lane of a panel holds its reference normal bit for bit, and
    /// every padding lane is zero. Carries over the property of the
    /// column panel's `panel_mirrors_matrix_after_growth`.
    #[test]
    fn panel_lanes_equal_reference_normals_bitwise() {
        let dim = 5;
        let tasks = mixed_tasks(70);
        let panel = HyperplanePanel::new(dim, &tasks);
        assert_eq!(panel.len(), 70);
        assert_eq!(panel.bytes(), 3 * dim * PANEL_LANES * 8);
        for (i, &(seed, j)) in tasks.iter().enumerate() {
            // The reference family grown in two steps, as levels grow it.
            let mut f = HyperplaneFamily::new(dim, seed);
            f.ensure_functions(j as usize / 2);
            f.ensure_functions(j as usize + 1);
            let lane: Vec<u64> = panel.normal(i).map(f64::to_bits).collect();
            let reference: Vec<u64> = f.normal(j as usize).iter().map(|x| x.to_bits()).collect();
            assert_eq!(lane, reference, "task {i} = {:?}", (seed, j));
        }
        for block in &panel.blocks[2 * dim..] {
            assert!(block.0[70 % PANEL_LANES..]
                .iter()
                .all(|&x| x.to_bits() == 0));
        }
    }

    /// A panel's lane `i` depends on task `i` alone, not on the tasks
    /// around it or the order they are listed in. Carries over
    /// `flat_matrix_preserves_function_identity`.
    #[test]
    fn panel_lanes_do_not_depend_on_their_neighbours() {
        let tasks = mixed_tasks(40);
        let whole = HyperplanePanel::new(6, &tasks);
        let mut reversed = tasks.clone();
        reversed.reverse();
        let backwards = HyperplanePanel::new(6, &reversed);
        for i in 0..tasks.len() {
            let alone = HyperplanePanel::new(6, &tasks[i..=i]);
            let bits = |p: &HyperplanePanel, k: usize| -> Vec<u64> {
                p.normal(k).map(f64::to_bits).collect()
            };
            assert_eq!(bits(&whole, i), bits(&alone, 0), "task {i}");
            assert_eq!(bits(&whole, i), bits(&backwards, tasks.len() - 1 - i));
        }
    }

    /// A copy of the panel kernel: what it writes for one block.
    type Copy = fn(&HyperplanePanel, &[&[f64]], &mut [u64]);

    /// Every copy of the kernel a CPU may run: the dispatched entry point
    /// (the AVX-512 copy on CPUs that have it), the portable copy, and the
    /// wide shape compiled for the baseline target, so a CPU without
    /// AVX-512 still checks the wide arithmetic.
    const COPIES: [(&str, Copy); 3] = [
        ("dispatched", |p, vs, out| p.hash_all(vs, out)),
        ("portable", |panel, vs, out| {
            PanelBlock { panel, vs, out }.run::<false>()
        }),
        ("wide", |panel, vs, out| {
            PanelBlock { panel, vs, out }.run::<true>()
        }),
    ];

    /// Asserts that every copy of the panel kernel, over blocks of one to
    /// four of `vectors` (taken cyclically from each start), writes each
    /// vector's row equal to the scalar reference for every task.
    fn assert_panel_matches_scalar(tasks: &[(u64, u64)], vectors: &[Vec<f64>]) {
        let dim = vectors[0].len();
        let panel = HyperplanePanel::new(dim, tasks);
        let families: Vec<HyperplaneFamily> = tasks
            .iter()
            .map(|&(seed, j)| family_with_seed(dim, j as usize + 1, seed))
            .collect();
        let reference: Vec<Vec<u64>> = vectors
            .iter()
            .map(|v| {
                tasks
                    .iter()
                    .zip(&families)
                    .map(|(&(_, j), f)| f.hash(j as usize, v))
                    .collect()
            })
            .collect();
        for k in 1..=PANEL_RECORDS {
            for start in 0..vectors.len() {
                let rows: Vec<usize> = (0..k).map(|r| (start + r) % vectors.len()).collect();
                let block: Vec<&[f64]> = rows.iter().map(|&r| vectors[r].as_slice()).collect();
                for (copy, kernel) in COPIES {
                    let mut out = vec![9u64; k * tasks.len()];
                    kernel(&panel, &block, &mut out);
                    for (row, &r) in out.chunks(tasks.len().max(1)).zip(&rows) {
                        assert_eq!(
                            row,
                            reference[r].as_slice(),
                            "{copy} copy, n={}, block of {k} from {start}, vector {r}",
                            tasks.len()
                        );
                    }
                }
            }
        }
    }

    /// Full blocks, ragged last blocks and several blocks, with tasks
    /// that switch family mid-block, hashed in blocks of one to four
    /// vectors: each sign equals the scalar path's.
    #[test]
    fn panel_matches_scalar_at_block_edges() {
        let vectors: Vec<Vec<f64>> = (0..5)
            .map(|k| {
                (0..33)
                    .map(|i| (i as f64 * (0.41 + 0.1 * k as f64)).sin() - 0.13)
                    .collect()
            })
            .collect();
        for n in [
            1usize, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 100, 161,
        ] {
            assert_panel_matches_scalar(&mixed_tasks(n), &vectors);
        }
        // Phase A (existing tables, new functions) then phase B (fresh
        // tables from function 0), as a level transition lists them.
        let mut tasks: Vec<(u64, u64)> = Vec::new();
        for t in 0..5u64 {
            tasks.extend((3..9).map(|j| (100 + t, j)));
        }
        for t in 5..9u64 {
            tasks.extend((0..9).map(|j| (100 + t, j)));
        }
        assert_panel_matches_scalar(&tasks, &vectors);
        assert_panel_matches_scalar(&[], &vectors);
    }

    /// Signed zeros, subnormals, products that overflow to `±inf`, sums
    /// that reach NaN (`inf − inf`, `0 · inf`), and two products that
    /// cancel exactly (where a fused multiply-add would keep the first
    /// product's rounding error and could flip the sign) give the scalar
    /// path's sign in every lane, in every copy and block size.
    #[test]
    fn panel_matches_scalar_on_special_values() {
        let tasks = mixed_tasks(65);
        let tiny = f64::MIN_POSITIVE / 8.0;
        let mut vectors: Vec<Vec<f64>> = vec![
            vec![0.0; 8],
            vec![-0.0; 8],
            vec![0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0],
            vec![tiny, -tiny, tiny, 0.0, -tiny, tiny, -0.0, tiny],
            vec![
                f64::MAX,
                -f64::MAX,
                1.0,
                f64::MAX,
                0.5,
                -f64::MAX,
                2.0,
                1e300,
            ],
            vec![f64::MAX; 8],
            vec![f64::INFINITY, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
            vec![
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
                1.0,
            ],
            vec![f64::NAN, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        ];
        // Lane i's first two terms are `n₀n₁` and `−n₁n₀`: their rounded
        // products cancel to exactly 0, a sign of 1 in the reference.
        let panel = HyperplanePanel::new(8, &tasks);
        let cancelling = |i: usize| -> Vec<f64> {
            let n: Vec<f64> = panel.normal(i).collect();
            let mut v = vec![0.0; 8];
            (v[0], v[1]) = (n[1], -n[0]);
            v
        };
        vectors.extend((0..16).map(|i| cancelling(i * 4)));
        assert_panel_matches_scalar(&tasks, &vectors);
        // The special vectors do reach every class of sum: some dot is
        // infinite, some is NaN and some cancels to zero.
        let f = family_with_seed(8, 32, 11);
        let dot =
            |v: &[f64], j: usize| -> f64 { f.normal(j).iter().zip(v).map(|(n, x)| n * x).sum() };
        assert!((0..32).any(|j| dot(&vectors[5], j).is_infinite()));
        assert!((0..32).any(|j| dot(&vectors[7], j).is_nan()));
        let (seed, j) = tasks[0];
        let g = family_with_seed(8, j as usize + 1, seed);
        let sum: f64 = g
            .normal(j as usize)
            .iter()
            .zip(&cancelling(0))
            .map(|(n, x)| n * x)
            .sum();
        assert_eq!(sum, 0.0);
    }

    #[test]
    #[should_panic(expected = "1 to 4 vectors")]
    fn panel_rejects_an_empty_or_oversized_block() {
        let panel = HyperplanePanel::new(2, &[(1, 0)]);
        let v: &[f64] = &[1.0, 2.0];
        panel.hash_all(&[v; 5], &mut [0u64; 5]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn panel_dimension_mismatch_panics() {
        let panel = HyperplanePanel::new(4, &[(1, 0)]);
        let v: &[f64] = &[1.0, 2.0];
        panel.hash_all(&[v], &mut [0u64; 1]);
    }

    #[test]
    fn gaussian_moments_sane() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
