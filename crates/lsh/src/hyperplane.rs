//! Random-hyperplane family for the cosine (angular) distance.
//!
//! Each hash function is a random hyperplane through the origin (paper
//! Example 2): the hash of a vector is which side of the hyperplane it
//! lies on. For two vectors at angle `θ` degrees the collision probability
//! is `1 − θ/180` (Example 6), i.e. `p(x) = 1 − x` for the normalized
//! angular distance `x = θ/180`.
//!
//! Hyperplane normals are sampled i.i.d. standard Gaussian per component
//! (any rotation-invariant distribution works). Normals are generated
//! deterministically from `(seed, function-index)` and memoized, so
//! function `i` is identical no matter when it is first evaluated.

use rand::{Rng, SeedableRng};

use crate::mix::derive_seed;

/// Maximum number of dot products accumulated together by the panel
/// kernel. Sized so the accumulator array lives in registers/L1 (32
/// lanes = 256 bytes) while still giving the autovectorizer full-width
/// independent FMA chains.
const RUN_LANES: usize = 32;

/// Minimum contiguous-run length at which [`HyperplaneFamily::hash_batch`]
/// switches from per-row dot products to the column-panel kernel. Below
/// this the panel's strided column loads cost more than they save.
const MIN_RUN: usize = 4;

/// A family of random-hyperplane hash functions over `R^dim`.
///
/// Normals are stored twice, both contiguous: a **row-major matrix**
/// (`row i` = function `i`'s normal) serving single-function evaluation,
/// and a **column-major panel** (`panel[d·n + i]` = component `d` of
/// function `i`) serving batched evaluation of contiguous function
/// ranges with a flat, branch-free, autovectorization-friendly inner
/// loop. Both are rebuilt together by
/// [`HyperplaneFamily::ensure_functions`], so they always describe the
/// same functions.
#[derive(Debug, Clone)]
pub struct HyperplaneFamily {
    dim: usize,
    seed: u64,
    /// Memoized hyperplane normals, row-major: function `i` occupies
    /// `matrix[i*dim .. (i+1)*dim]`.
    matrix: Vec<f64>,
    /// The same normals, column-major: component `d` of all functions is
    /// the contiguous slice `panel[d*n .. (d+1)*n]` for
    /// `n = num_functions()`. Lets the batched kernel accumulate many
    /// dot products with unit-stride loads.
    panel: Vec<f64>,
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
            panel: Vec::new(),
        }
    }

    /// The vector dimension this family hashes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Ensures functions `0..n` are materialized.
    pub fn ensure_functions(&mut self, n: usize) {
        let before = self.num_functions();
        while self.num_functions() < n {
            let idx = self.num_functions() as u64;
            let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(self.seed, idx));
            self.matrix
                .extend((0..self.dim).map(|_| gaussian(&mut rng)));
        }
        if self.num_functions() != before {
            self.rebuild_panel();
        }
    }

    /// Rebuilds the column-major panel from the row-major matrix. `O(n·d)`
    /// per growth step — growth happens once per level transition, far off
    /// the per-record hot path.
    fn rebuild_panel(&mut self) {
        let n = self.num_functions();
        self.panel.clear();
        self.panel.resize(n * self.dim, 0.0);
        for i in 0..n {
            for d in 0..self.dim {
                self.panel[d * n + i] = self.matrix[i * self.dim + d];
            }
        }
    }

    /// Number of materialized functions.
    pub fn num_functions(&self) -> usize {
        self.matrix.len() / self.dim
    }

    /// The normal of function `fn_index` (a row of the matrix).
    #[inline]
    fn normal(&self, fn_index: usize) -> &[f64] {
        &self.matrix[fn_index * self.dim..(fn_index + 1) * self.dim]
    }

    /// Evaluates hash function `fn_index` on `v`: returns `1` when `v` lies
    /// on the positive side of the hyperplane, else `0`.
    ///
    /// # Panics
    /// Panics if the function is not materialized (call
    /// [`HyperplaneFamily::ensure_functions`] first) or dimensions differ.
    #[inline]
    pub fn hash(&self, fn_index: usize, v: &[f64]) -> u64 {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        self.sign_row(fn_index, v)
    }

    /// One row-major dot product and sign, summed in ascending dimension
    /// order — the reference order every other evaluation path reproduces.
    #[inline]
    fn sign_row(&self, fn_index: usize, v: &[f64]) -> u64 {
        let dot: f64 = self
            .normal(fn_index)
            .iter()
            .zip(v.iter())
            .map(|(n, x)| n * x)
            .sum();
        u64::from(dot >= 0.0)
    }

    /// Evaluates many hash functions on one vector. Maximal runs of
    /// consecutive ascending function indices — the shape every level plan
    /// requests — are evaluated through the column-major panel:
    /// `RUN_LANES` dot products accumulate together in a flat array with
    /// unit-stride loads and no per-element branching, so the compiler
    /// vectorizes the inner loop. Scattered or descending indices fall
    /// back to per-row dot products. Each `out[i]` receives exactly what
    /// `hash(fn_indices[i], v)` would: the panel kernel adds each
    /// function's terms in the same ascending dimension order as the
    /// row-major sum, so results are **bit-for-bit** the same.
    ///
    /// # Panics
    /// Panics if lengths differ, the dimension mismatches, or a function
    /// is not materialized.
    pub fn hash_batch(&self, fn_indices: &[usize], v: &[f64], out: &mut [u64]) {
        assert_eq!(fn_indices.len(), out.len(), "output length mismatch");
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let mut start = 0;
        while start < fn_indices.len() {
            // Extend the maximal consecutive ascending run from `start`.
            let mut end = start + 1;
            while end < fn_indices.len() && fn_indices[end] == fn_indices[end - 1] + 1 {
                end += 1;
            }
            if end - start >= MIN_RUN {
                self.hash_run(fn_indices[start], v, &mut out[start..end]);
            } else {
                for (o, &i) in out[start..end].iter_mut().zip(&fn_indices[start..end]) {
                    *o = self.sign_row(i, v);
                }
            }
            start = end;
        }
    }

    /// Panel kernel: hashes functions `first .. first + out.len()` into
    /// `out`. Processes [`RUN_LANES`] functions at a time; for each block
    /// the outer loop walks dimensions and the inner loop accumulates one
    /// multiply per lane from a unit-stride panel slice. Accumulator `i`
    /// receives `panel[d][first+i] · v[d]` for `d = 0, 1, …` — the exact
    /// fold order of [`HyperplaneFamily::sign_row`] — so the result is
    /// bit-identical to the row path.
    fn hash_run(&self, first: usize, v: &[f64], out: &mut [u64]) {
        let n = self.num_functions();
        let mut done = 0;
        while done < out.len() {
            let len = (out.len() - done).min(RUN_LANES);
            let base = first + done;
            let mut acc = [0.0f64; RUN_LANES];
            for (d, &x) in v.iter().enumerate() {
                let col = &self.panel[d * n + base..d * n + base + len];
                for (a, &m) in acc[..len].iter_mut().zip(col) {
                    *a += m * x;
                }
            }
            for (o, &a) in out[done..done + len].iter_mut().zip(&acc[..len]) {
                *o = u64::from(a >= 0.0);
            }
            done += len;
        }
    }

    /// Collision probability `p(x) = 1 − x` at normalized angular distance
    /// `x` (paper Example 6).
    pub fn collision_prob(x: f64) -> f64 {
        1.0 - x
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
        let mut f = HyperplaneFamily::new(dim, 7);
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

    fn family_with_seed(dim: usize, n: usize, seed: u64) -> HyperplaneFamily {
        let mut f = HyperplaneFamily::new(dim, seed);
        f.ensure_functions(n);
        f
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

    #[test]
    fn batch_matches_scalar() {
        let f = family(16, 200);
        let v: Vec<f64> = (0..16).map(|i| (i as f64 * 0.73).sin() - 0.2).collect();
        // Scattered, repeated, and out-of-order function indices.
        let idx: Vec<usize> = vec![199, 0, 7, 7, 42, 100, 3, 198, 1];
        let mut out = vec![9u64; idx.len()];
        f.hash_batch(&idx, &v, &mut out);
        for (&i, &o) in idx.iter().zip(&out) {
            assert_eq!(o, f.hash(i, &v));
        }
    }

    #[test]
    fn flat_matrix_preserves_function_identity() {
        // A family grown in two steps agrees with one grown at once for
        // every function (the matrix layout must not perturb sampling).
        let mut f1 = HyperplaneFamily::new(6, 9);
        f1.ensure_functions(3);
        f1.ensure_functions(40);
        let f2 = family_with_seed(6, 40, 9);
        let v: Vec<f64> = (0..6).map(|i| (i as f64) * 0.31 - 1.0).collect();
        let idx: Vec<usize> = (0..40).collect();
        let (mut o1, mut o2) = (vec![0u64; 40], vec![0u64; 40]);
        f1.hash_batch(&idx, &v, &mut o1);
        f2.hash_batch(&idx, &v, &mut o2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn panel_runs_match_scalar_bitwise() {
        // Contiguous runs of every length from 1 (row fallback) through
        // several RUN_LANES blocks plus a ragged tail, at varied start
        // offsets: each must reproduce the scalar path bit-for-bit.
        let f = family(33, 200); // odd dim: exercises non-power-of-two loops
        let v: Vec<f64> = (0..33).map(|i| (i as f64 * 0.41).sin() - 0.13).collect();
        for start in [0usize, 1, 7, 31, 32, 63] {
            for len in [1usize, 3, 4, 5, 31, 32, 33, 64, 70, 100] {
                if start + len > 200 {
                    continue;
                }
                let idx: Vec<usize> = (start..start + len).collect();
                let mut out = vec![9u64; len];
                f.hash_batch(&idx, &v, &mut out);
                for (&i, &o) in idx.iter().zip(&out) {
                    assert_eq!(o, f.hash(i, &v), "start={start} len={len} fn={i}");
                }
            }
        }
    }

    #[test]
    fn mixed_runs_and_scattered_indices_match_scalar() {
        let f = family(16, 128);
        let v: Vec<f64> = (0..16).map(|i| (i as f64 * 0.9).cos()).collect();
        // A scattered prefix, a long run, a short run, a descending pair.
        let mut idx: Vec<usize> = vec![90, 2, 2, 50];
        idx.extend(10..70); // 60-long contiguous run
        idx.extend([100, 101, 102]); // below MIN_RUN
        idx.extend([80, 79]); // descending: two 1-runs
        let mut out = vec![0u64; idx.len()];
        f.hash_batch(&idx, &v, &mut out);
        for (&i, &o) in idx.iter().zip(&out) {
            assert_eq!(o, f.hash(i, &v));
        }
    }

    #[test]
    fn panel_mirrors_matrix_after_growth() {
        let mut f = HyperplaneFamily::new(5, 21);
        f.ensure_functions(7);
        f.ensure_functions(50);
        let n = f.num_functions();
        for i in 0..n {
            for d in 0..5 {
                assert_eq!(
                    f.panel[d * n + i].to_bits(),
                    f.matrix[i * 5 + d].to_bits(),
                    "fn {i} dim {d}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn batch_dimension_mismatch_panics() {
        let f = family(4, 1);
        let mut out = [0u64; 1];
        f.hash_batch(&[0], &[1.0, 2.0], &mut out);
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
