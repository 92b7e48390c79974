//! Algorithm 1 — Adaptive LSH (paper §4).
//!
//! The engine drives a pool of clusters. Each round it selects a cluster
//! (Largest-First by default — optimal within the Theorem-1 family; other
//! strategies are available for the ablation benches), and either
//!
//! * declares it **final** — it is the outcome of the last sequence
//!   function `H_L` (unless `require_pairwise_final`) or of `P`;
//! * applies the **next sequence function** `H_{t+1}`; or
//! * **jumps ahead to `P`** when the Definition-3 cost gate says pairwise
//!   computation is cheaper (Line 5).
//!
//! Termination follows Line 11 / Appendix B.5: stop once the `k` largest
//! clusters are all final. The **incremental mode** (§4.2) surfaces each
//! final cluster the moment it is known; with Largest-First this yields
//! the Theorem-2 guarantee that the top-`k′` prefix is produced at the
//! minimum cost for every `k′ < k`.

use std::time::{Duration, Instant};

use adalsh_data::{MatchRule, RecordStore};
use adalsh_lsh::mix::derive_seed;
use adalsh_obs::{TraceSink, Value};
use rand::{Rng, SeedableRng};

use crate::bins::BinIndex;
use crate::cost::CostModel;
use crate::hashing::{RecordHashState, SequenceHasher};
use crate::memo::{Function, PartitionMemo, Seed};
use crate::oracle::{
    ExactOracle, NoisyOracle, OracleMode, OracleSpend, PairwiseOracle, SpendLedger, VerdictOverlay,
};
use crate::pairwise::{apply_pairwise_with, PairwiseTrace, DEFAULT_PAIR_BLOCK};
use crate::sequence::{design, SequenceSpec};
use crate::stats::Stats;
use crate::transitive::{apply_transitive, AdvancedRecords};

/// Which cluster to process next. Largest-First is the paper's (provably
/// optimal) choice; the others exist for the optimality ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Paper's strategy (Theorems 1–2): always the largest cluster.
    #[default]
    LargestFirst,
    /// Adversarial baseline: always the smallest cluster.
    SmallestFirst,
    /// Uniformly random cluster.
    Random,
    /// First-in-first-out.
    Fifo,
}

/// Configuration of an [`AdaLsh`] engine.
#[derive(Debug, Clone)]
pub struct AdaLshConfig {
    /// Match rule defining ground-truth-free record equivalence.
    pub rule: MatchRule,
    /// Sequence-design parameters (budgets, ε, seed).
    pub spec: SequenceSpec,
    /// When true, clusters are final only after `P` verified them —
    /// LSH-blocking semantics (§6.1.1). adaLSH proper uses `false`:
    /// `H_L`'s output is trusted.
    pub require_pairwise_final: bool,
    /// Cluster-selection strategy (ablation hook; default Largest-First).
    pub selection: SelectionStrategy,
    /// Appendix-E.2 noise factor on the cost gate (1.0 = clean).
    pub cost_noise: f64,
    /// Ablation: never jump ahead to `P` before the last level (the
    /// "family condition 1 removed" variant discussed in Appendix D.2).
    pub disable_jump_gate: bool,
    /// Hash records on this many worker threads inside each transitive
    /// invocation. Defaults to the machine's available parallelism; set
    /// to 1 for the sequential reference (output and `Stats` counters
    /// are identical either way, so 1 is an escape hatch for timing
    /// reproducibility, not correctness).
    pub threads: usize,
    /// Extend the sequence so its last budget is at least ~2·|R|,
    /// guaranteeing the Line-5 gate can fire on a cluster of *any* size
    /// before the sequence ends — no giant cluster is ever accepted as
    /// final without either sharp hashing or `P` verification. This is
    /// how a sensible `L` is chosen for the dataset at hand (the paper
    /// takes `H₁…H_L` as given input). Disable to use
    /// `spec.max_budget` verbatim.
    pub scale_max_budget: bool,
    /// Structured-trace sink (see `adalsh_obs`). Disabled by default —
    /// one predicted branch per decision point; no field computation or
    /// timestamps happen unless a subscriber is attached.
    pub trace: TraceSink,
    /// Which pairwise adjudicator `P` consults: the exact rule (default,
    /// byte-for-byte today's path) or a seeded noisy oracle with error /
    /// fault / cost models and a per-run spend budget (see
    /// [`crate::oracle`]).
    pub oracle: OracleMode,
    /// External-verdict overlay consulted by a noisy oracle before any
    /// noise is sampled (the serve layer's `POST /adjudicate` writes
    /// here). Ignored under [`OracleMode::Exact`].
    pub oracle_overlay: Option<std::sync::Arc<VerdictOverlay>>,
}

impl AdaLshConfig {
    /// Default configuration for a rule: paper-default exponential
    /// budgets, Largest-First, clean analytic cost model.
    pub fn new(rule: MatchRule) -> Self {
        Self {
            rule,
            spec: SequenceSpec::default(),
            require_pairwise_final: false,
            selection: SelectionStrategy::LargestFirst,
            cost_noise: 1.0,
            disable_jump_gate: false,
            threads: default_threads(),
            scale_max_budget: true,
            trace: TraceSink::disabled(),
            oracle: OracleMode::Exact,
            oracle_overlay: None,
        }
    }
}

/// The default worker-thread count: the machine's available parallelism,
/// or 1 when it cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The result of a filtering run.
#[derive(Debug, Clone)]
pub struct FilterOutput {
    /// The (up to) `k` final clusters, sorted by descending size.
    pub clusters: Vec<Vec<u32>>,
    /// Operation counters.
    pub stats: Stats,
    /// Wall-clock filtering time.
    pub wall: Duration,
    /// Oracle spend ledger of the run — `Some` only under
    /// [`OracleMode::Noisy`]. Kept outside [`Stats`] so the zero-noise
    /// noisy path stays bit-identical to the exact path in `Stats`.
    pub oracle: Option<OracleSpend>,
}

impl FilterOutput {
    /// Union of all output clusters' record ids, sorted ascending.
    pub fn records(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.clusters.iter().flatten().copied().collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total number of records in the output.
    pub fn num_records(&self) -> usize {
        self.clusters.iter().map(Vec::len).sum()
    }
}

/// A filtering method: anything that reduces a dataset to the records of
/// (approximately) its top-`k` entities.
pub trait FilterMethod {
    /// Display name used in experiment tables (e.g. `adaLSH`, `LSH1280`).
    fn name(&self) -> String;
    /// Runs the filter for the `k` largest entities.
    fn filter(&mut self, store: &dyn RecordStore, k: usize) -> FilterOutput;
}

/// A cluster in the pool, tagged with the function that produced it.
struct ArenaEntry {
    records: Vec<u32>,
    function: Function,
}

/// Cluster pool: Largest-First uses the bin index; other strategies use a
/// plain list with the appropriate O(n) pop (ablations only).
enum Pool {
    Bins(BinIndex),
    List(Vec<(u32, u32)>),
}

impl Pool {
    fn new(strategy: SelectionStrategy) -> Self {
        match strategy {
            SelectionStrategy::LargestFirst => Pool::Bins(BinIndex::new()),
            _ => Pool::List(Vec::new()),
        }
    }

    fn push(&mut self, size: u32, handle: u32) {
        match self {
            Pool::Bins(b) => b.push(size, handle),
            Pool::List(v) => v.push((size, handle)),
        }
    }

    fn peek_max_size(&self) -> Option<u32> {
        match self {
            Pool::Bins(b) => b.peek_largest_size(),
            Pool::List(v) => v.iter().map(|&(s, _)| s).max(),
        }
    }

    fn pop(&mut self, strategy: SelectionStrategy, rng: &mut impl Rng) -> Option<(u32, u32)> {
        match self {
            Pool::Bins(b) => b.pop_largest().map(|e| (e.size, e.handle)),
            Pool::List(v) => {
                if v.is_empty() {
                    return None;
                }
                let idx = match strategy {
                    SelectionStrategy::LargestFirst => unreachable!("uses bins"),
                    SelectionStrategy::SmallestFirst => {
                        let mut best = 0;
                        for i in 1..v.len() {
                            if v[i].0 < v[best].0 {
                                best = i;
                            }
                        }
                        best
                    }
                    SelectionStrategy::Random => rng.random_range(0..v.len()),
                    SelectionStrategy::Fifo => 0,
                };
                Some(if strategy == SelectionStrategy::Fifo {
                    v.remove(idx) // preserve order for FIFO
                } else {
                    v.swap_remove(idx)
                })
            }
        }
    }
}

/// The Adaptive LSH engine (Algorithm 1), bound to a dataset's schema and
/// cost profile.
pub struct AdaLsh {
    config: AdaLshConfig,
    hasher: SequenceHasher,
    cost: CostModel,
    /// Levels whose `level_built` event the trace already holds.
    builds_traced: Vec<bool>,
}

impl AdaLsh {
    /// Designs the sequence for a record store (in-RAM dataset or mapped
    /// store file) and builds the engine.
    ///
    /// Errors if the store is empty, the rule shape is unsupported, or no
    /// feasible scheme exists within the budget schedule.
    pub fn for_dataset(store: &dyn RecordStore, config: AdaLshConfig) -> Result<Self, String> {
        if store.is_empty() {
            return Err("cannot design a sequence for an empty record store".to_string());
        }
        let dims: Vec<usize> = (0..store.schema().num_fields())
            .map(|f| match store.field(0, f) {
                adalsh_data::FieldRef::Dense(v) => v.len(),
                adalsh_data::FieldRef::Shingles(_) => 0,
            })
            .collect();
        let mut spec = config.spec;
        if config.scale_max_budget {
            // Last-level gate headroom: with a doubling schedule the final
            // increment is ~max_budget/2, and the unit-cost ratio of
            // hashing to comparison is ≥ 1/2 for every family pair we
            // ship, so max_budget ≥ 2·|R| makes the gate's critical size
            // exceed |R| at the last level.
            let needed = (store.len() as u64).next_power_of_two() * 2;
            spec.max_budget = spec.max_budget.max(needed);
        }
        let designed = design(&config.rule, store.schema(), &dims, &spec)?;
        let hasher = SequenceHasher::new(designed.parts, designed.levels);
        let cost = CostModel::analytic(&hasher, store, &config.rule).with_noise(config.cost_noise);
        if config.trace.enabled() {
            for (idx, level) in hasher.levels().iter().enumerate() {
                config.trace.emit(
                    "design_level",
                    &[
                        ("level", Value::U64(idx as u64 + 1)),
                        ("budget", Value::U64(level.budget())),
                    ],
                );
            }
        }
        Ok(Self {
            builds_traced: vec![false; hasher.num_levels()],
            config,
            hasher,
            cost,
        })
    }

    /// Installs (or replaces) the trace sink after construction. Useful
    /// when the engine is built indirectly — e.g. restored from a
    /// snapshot — and the observer only exists afterwards.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.config.trace = sink;
    }

    /// The configuration the engine was built with, as updated by
    /// [`AdaLsh::set_trace`] and [`AdaLsh::set_oracle_overlay`].
    pub(crate) fn config(&self) -> &AdaLshConfig {
        &self.config
    }

    /// The engine's trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.config.trace
    }

    /// Installs (or replaces) the external-verdict overlay consulted by
    /// a noisy oracle. A no-op for the exact oracle. Useful when the
    /// overlay is created after the engine — e.g. by a serving layer
    /// accepting `/adjudicate` corrections.
    pub fn set_oracle_overlay(&mut self, overlay: Option<std::sync::Arc<VerdictOverlay>>) {
        self.config.oracle_overlay = overlay;
    }

    /// Number of sequence functions `L` in the designed sequence.
    pub fn num_levels(&self) -> usize {
        self.hasher.num_levels()
    }

    /// The engine's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The engine's sequence hasher.
    pub(crate) fn hasher(&self) -> &SequenceHasher {
        &self.hasher
    }

    /// The designed level schemes (for inspection and reports).
    pub fn levels(&self) -> &[crate::hashing::LevelScheme] {
        self.hasher.levels()
    }

    /// Runs the filter for the top-`k` entities.
    pub fn run(&mut self, store: &dyn RecordStore, k: usize) -> FilterOutput {
        self.run_incremental(store, k, |_, _| {})
    }

    /// Incremental mode (§4.2): `on_final(rank, cluster)` fires the moment
    /// each final cluster is known. With Largest-First, finals appear in
    /// descending size order and the top-`k′` prefix is produced at the
    /// minimum cost for every `k′ ≤ k` (Theorem 2).
    pub fn run_incremental(
        &mut self,
        store: &dyn RecordStore,
        k: usize,
        on_final: impl FnMut(usize, &[u32]),
    ) -> FilterOutput {
        let mut states: Vec<RecordHashState> = vec![RecordHashState::default(); store.len()];
        self.run_with_states(store, k, &mut states, None, None, on_final)
    }

    /// Like [`AdaLsh::run_incremental`], but with caller-owned per-record
    /// hash states. States persist the raw hash work already spent on
    /// each record (Property 4), so repeated runs over a growing dataset
    /// — the online setting of §9 — only hash what is new. The caller
    /// must keep `states[i]` paired with record `i` and never reuse
    /// states across engines.
    ///
    /// A `memo` does the same for the partitions of `P` and of every
    /// `H_t`, `H₁` included, and for the `H_t` bucket tables: each of
    /// their inputs goes through it, its components come back in
    /// canonical order, and the run closes one memo pass. The Line-5
    /// gate still prices every call at full Definition-3 cost, so
    /// clusters and every `Stats` counter but `bucket_inserts`,
    /// `pair_comparisons`, `distance_evals`, `transitive_reused` and
    /// `pairwise_reused` are those of a run with an empty memo. Like the
    /// states, a memo belongs to one growing store and one engine. An
    /// `advanced` tally (sized for the store) notes every record the run
    /// hashes to a deeper level than it found.
    ///
    /// # Panics
    /// Panics if `k == 0`, `states.len() != dataset.len()`, or a `memo`
    /// is passed with a noisy oracle (the memo holds exact-rule
    /// partitions only).
    pub fn run_with_states(
        &mut self,
        store: &dyn RecordStore,
        k: usize,
        states: &mut [RecordHashState],
        memo: Option<&mut PartitionMemo>,
        advanced: Option<&mut AdvancedRecords>,
        on_final: impl FnMut(usize, &[u32]),
    ) -> FilterOutput {
        assert!(k >= 1, "k must be at least 1");
        assert_eq!(states.len(), store.len(), "one state per record");
        assert!(
            memo.is_none() || matches!(self.config.oracle, OracleMode::Exact),
            "the partition memo holds exact-rule partitions only"
        );
        let Self {
            config,
            hasher,
            cost,
            builds_traced,
        } = self;
        let mut run = Run {
            config,
            hasher,
            cost,
            builds_traced,
            store,
            states,
            memo,
            advanced,
            sink: config.trace.clone(),
            stats: Stats::default(),
            ledger: None,
        };
        // The oracle is picked once per run. One spend ledger per run: the
        // budget is a per-run contract, and all charging happens in the
        // sequential round loop, so the cutoff point replays identically
        // at any thread count.
        match &config.oracle {
            OracleMode::Exact => run.resolve(&ExactOracle::new(&config.rule), k, on_final),
            OracleMode::Noisy(noisy) => {
                run.ledger = Some(SpendLedger::new(noisy.budget));
                let oracle = NoisyOracle::new(&config.rule, noisy.clone())
                    .with_overlay(config.oracle_overlay.clone());
                run.resolve(&oracle, k, on_final)
            }
        }
    }
}

/// One run of Algorithm 1: the engine's parts, the run's inputs, and what
/// every step charges.
struct Run<'a> {
    config: &'a AdaLshConfig,
    hasher: &'a SequenceHasher,
    cost: &'a CostModel,
    /// Levels whose `level_built` event the trace already holds.
    builds_traced: &'a mut [bool],
    store: &'a dyn RecordStore,
    states: &'a mut [RecordHashState],
    memo: Option<&'a mut PartitionMemo>,
    advanced: Option<&'a mut AdvancedRecords>,
    sink: TraceSink,
    stats: Stats,
    /// The run's spend ledger: `Some` only under a noisy oracle.
    ledger: Option<SpendLedger>,
}

impl Run<'_> {
    /// Lines 1–14 with verdicts from `oracle`.
    fn resolve<O: PairwiseOracle>(
        mut self,
        oracle: &O,
        k: usize,
        mut on_final: impl FnMut(usize, &[u32]),
    ) -> FilterOutput {
        let start = Instant::now();
        let n = self.store.len();
        let num_levels = self.hasher.num_levels();
        let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(self.config.spec.seed, 0xA1));
        self.sink.emit(
            "run_start",
            &[
                ("records", Value::U64(n as u64)),
                ("k", Value::U64(k as u64)),
                ("levels", Value::U64(num_levels as u64)),
                ("threads", Value::U64(self.config.threads as u64)),
                ("source", Value::Str(self.store.source())),
            ],
        );

        let mut arena: Vec<Option<ArenaEntry>> = Vec::new();
        let mut pool = Pool::new(self.config.selection);
        let mut finals: Vec<Vec<u32>> = Vec::new();

        // Line 1: apply H₁ to the whole dataset (whole-set seeded from the
        // memo after the first pass).
        let all: Vec<u32> = (0..n as u32).collect();
        let first = Function::Hash(1);
        for c in self.apply(oracle, first, &all) {
            push_cluster(&mut arena, &mut pool, c, first);
        }

        // Lines 2–14.
        loop {
            // Line 11 generalized: stop when the k largest clusters are
            // all final (for Largest-First this is exactly "k finals").
            // Strict comparison: clusters *tied* with the k-th final are
            // still resolved, so the canonical sort below picks among all
            // tied candidates deterministically — otherwise the answer
            // under ties would depend on processing order and spuriously
            // differ from exact resolution.
            if finals.len() >= k {
                let mut sizes: Vec<usize> = finals.iter().map(Vec::len).collect();
                sizes.sort_unstable_by(|a, b| b.cmp(a));
                let kth = sizes[k - 1] as u32;
                if pool.peek_max_size().is_none_or(|m| m < kth) {
                    break;
                }
            }
            let Some((_, handle)) = pool.pop(self.config.selection, &mut rng) else {
                break; // fewer than k clusters exist
            };
            self.stats.rounds += 1;
            let entry = arena[handle as usize].take().expect("handle valid");
            let size = entry.records.len();
            let is_final = match entry.function {
                Function::Pairwise => true,
                Function::Hash(t) => t == num_levels && !self.config.require_pairwise_final,
            };
            if is_final {
                if self.sink.enabled() {
                    let (origin, level) = match entry.function {
                        Function::Pairwise => ("pairwise", 0),
                        Function::Hash(t) => ("hashed", t as u64),
                    };
                    self.sink.emit(
                        "final_cluster",
                        &[
                            ("rank", Value::U64(finals.len() as u64)),
                            ("size", Value::U64(size as u64)),
                            ("origin", Value::Str(origin)),
                            ("level", Value::U64(level)),
                        ],
                    );
                }
                on_final(finals.len(), &entry.records);
                finals.push(entry.records);
                continue;
            }
            let Function::Hash(t) = entry.function else {
                unreachable!("pairwise is always final")
            };
            // Line 5: jump-ahead gate (forced when no H_{t+1} exists).
            let forced = t == num_levels;
            let use_pairwise =
                forced || (!self.config.disable_jump_gate && self.cost.jump_to_pairwise(t, size));
            if self.sink.enabled() {
                let mut fields = vec![
                    ("level", Value::U64(t as u64)),
                    ("cluster_size", Value::U64(size as u64)),
                    (
                        "predicted_pairwise_cost",
                        Value::F64(self.cost.pairwise_cost(size)),
                    ),
                    (
                        "action",
                        Value::Str(if use_pairwise { "pairwise" } else { "hash" }),
                    ),
                    ("forced", Value::U64(u64::from(forced))),
                ];
                if !forced {
                    // `hash_increment_cost(t, _)` indexes level t+1, which
                    // does not exist on a forced jump.
                    fields.push((
                        "predicted_hash_cost",
                        Value::F64(self.cost.hash_increment_cost(t, size)),
                    ));
                }
                self.sink.emit("gate", &fields);
            }
            let function = if use_pairwise {
                Function::Pairwise
            } else {
                Function::Hash(t + 1)
            };
            for c in self.apply(oracle, function, &entry.records) {
                push_cluster(&mut arena, &mut pool, c, function);
            }
        }

        // Cluster record order out of the forest is leaf-chain order,
        // which is not stable across methods — without the canonical
        // order, equal-size clusters tie-break differently in adaLSH and
        // Pairs and the outputs spuriously diverge.
        canonical_order(&mut finals);
        // `finals` counts final_cluster events — captured before the
        // truncation so the trace reconciles.
        let finals_resolved = finals.len();
        finals.truncate(k);
        if let Some(memo) = self.memo {
            memo.end_pass(n);
        }
        let stats = self.stats;
        let wall = start.elapsed();
        if self.sink.enabled() {
            let mut fields = vec![
                ("rounds", Value::U64(stats.rounds)),
                ("finals", Value::U64(finals_resolved as u64)),
                ("hash_evals", Value::U64(stats.hash_evals)),
                ("distance_evals", Value::U64(stats.distance_evals)),
                ("pair_comparisons", Value::U64(stats.pair_comparisons)),
                ("bucket_inserts", Value::U64(stats.bucket_inserts)),
                ("transitive_calls", Value::U64(stats.transitive_calls)),
                ("transitive_reused", Value::U64(stats.transitive_reused)),
                ("pairwise_calls", Value::U64(stats.pairwise_calls)),
                ("pairwise_reused", Value::U64(stats.pairwise_reused)),
                ("modeled_cost", Value::F64(stats.modeled_cost)),
                ("wall_micros", Value::U64(wall.as_micros() as u64)),
            ];
            if let Some(ledger) = &self.ledger {
                // Ledger mirror: the validator reconciles these against
                // the segment's oracle_call events bit-for-bit.
                let s = ledger.spend();
                fields.extend([
                    ("oracle_calls", Value::U64(s.calls)),
                    ("oracle_attempts", Value::U64(s.attempts)),
                    ("oracle_retries", Value::U64(s.retries)),
                    ("oracle_votes", Value::U64(s.votes)),
                    ("oracle_timeouts", Value::U64(s.timeouts)),
                    ("oracle_errors", Value::U64(s.transient_errors)),
                    ("oracle_degraded", Value::U64(s.degraded)),
                    ("oracle_spent", Value::U64(s.spent)),
                ]);
            }
            self.sink.emit("run_end", &fields);
            self.sink.flush();
        }
        FilterOutput {
            clusters: finals,
            stats,
            wall,
            oracle: self.ledger.map(SpendLedger::into_spend),
        }
    }

    /// One step of Algorithm 1: applies `function` to `cluster`. The step
    /// adds the call's Definition-3 price to `modeled_cost` before it runs,
    /// resolves it through the memo (if any), counts a reuse, and traces
    /// it as `hash_round` plus `level_built`, or as `pairwise`. Returns
    /// the subclusters.
    fn apply<O: PairwiseOracle>(
        &mut self,
        oracle: &O,
        function: Function,
        cluster: &[u32],
    ) -> Vec<Vec<u32>> {
        let size = cluster.len();
        let predicted = match function {
            Function::Hash(level) => self.cost.hash_increment_cost(level - 1, size),
            Function::Pairwise => self.cost.pairwise_cost(size),
        };
        self.stats.modeled_cost += predicted;
        let before = self.stats;
        let round_start = self.sink.enabled().then(Instant::now);
        let threads = self.config.threads;
        let run = |cluster: &[u32], seed: Option<Seed<'_>>| match function {
            Function::Hash(level) => {
                let subs = apply_transitive(
                    self.hasher,
                    self.states,
                    self.store,
                    cluster,
                    level,
                    threads,
                    seed,
                    self.advanced.as_deref_mut(),
                    &mut self.stats,
                );
                (subs, PairwiseTrace::default())
            }
            Function::Pairwise => apply_pairwise_with(
                self.store,
                oracle,
                cluster,
                seed,
                threads,
                DEFAULT_PAIR_BLOCK,
                self.ledger.as_mut(),
                &self.sink,
                &mut self.stats,
            ),
        };
        let (subs, ptrace, reused) =
            PartitionMemo::resolve(self.memo.as_deref_mut(), function, cluster, run);
        let (calls, reused_calls) = match function {
            Function::Hash(_) => (
                &mut self.stats.transitive_calls,
                &mut self.stats.transitive_reused,
            ),
            Function::Pairwise => (
                &mut self.stats.pairwise_calls,
                &mut self.stats.pairwise_reused,
            ),
        };
        // A whole-set hit ran nothing, but it is still a call.
        *calls += u64::from(ptrace.is_none());
        *reused_calls += u64::from(reused > 0);
        let ptrace = ptrace.unwrap_or_default();
        let Some(t0) = round_start else {
            return subs;
        };
        let stats = &self.stats;
        match function {
            Function::Hash(level) => {
                // `keys_emitted` is the bucket-insert delta: one insert per
                // (record, emitted key) — exactly the paper's "keys
                // emitted" notion.
                self.sink.emit(
                    "hash_round",
                    &[
                        ("level", Value::U64(level as u64)),
                        ("cluster_size", Value::U64(size as u64)),
                        (
                            "hash_evals",
                            Value::U64(stats.hash_evals - before.hash_evals),
                        ),
                        (
                            "keys_emitted",
                            Value::U64(stats.bucket_inserts - before.bucket_inserts),
                        ),
                        ("subclusters", Value::U64(subs.len() as u64)),
                        ("reused", Value::U64(reused as u64)),
                        ("wall_micros", Value::U64(t0.elapsed().as_micros() as u64)),
                        ("predicted_cost", Value::F64(predicted)),
                    ],
                );
                emit_level_builds(&self.sink, self.hasher, self.builds_traced);
            }
            Function::Pairwise => self.sink.emit(
                "pairwise",
                &[
                    ("cluster_size", Value::U64(size as u64)),
                    (
                        "pairs",
                        Value::U64(stats.pair_comparisons - before.pair_comparisons),
                    ),
                    (
                        "distance_evals",
                        Value::U64(stats.distance_evals - before.distance_evals),
                    ),
                    ("kernel_checks", Value::U64(ptrace.kernel_checks)),
                    ("early_exits", Value::U64(ptrace.early_exits)),
                    ("bound_rejects", Value::U64(ptrace.bound_rejects)),
                    ("blocks", Value::U64(ptrace.blocks)),
                    ("reused", Value::U64(reused as u64)),
                    ("subclusters", Value::U64(subs.len() as u64)),
                    ("wall_micros", Value::U64(t0.elapsed().as_micros() as u64)),
                    ("predicted_cost", Value::F64(predicted)),
                ],
            ),
        }
        subs
    }
}

/// Sorts each cluster's records ascending and the clusters by (size
/// desc, smallest id asc): the canonical order of every method's output.
pub(crate) fn canonical_order(clusters: &mut [Vec<u32>]) {
    for c in clusters.iter_mut() {
        c.sort_unstable();
    }
    clusters.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
}

/// Emits one `level_built` event for each level whose hyperplane normals
/// were built since the last report: the first traced round after a
/// build reports it, so each level's build appears once per engine.
fn emit_level_builds(sink: &TraceSink, hasher: &SequenceHasher, traced: &mut [bool]) {
    for (idx, traced) in traced.iter_mut().enumerate() {
        let Some(build) = hasher.level_build(idx + 1).filter(|_| !*traced) else {
            continue;
        };
        *traced = true;
        sink.emit(
            "level_built",
            &[
                ("level", Value::U64(idx as u64 + 1)),
                ("functions", Value::U64(build.functions)),
                ("bytes", Value::U64(build.bytes)),
                ("build_micros", Value::U64(build.build_micros)),
            ],
        );
    }
}

fn push_cluster(
    arena: &mut Vec<Option<ArenaEntry>>,
    pool: &mut Pool,
    records: Vec<u32>,
    function: Function,
) {
    debug_assert!(!records.is_empty());
    let size = records.len() as u32;
    let handle = arena.len() as u32;
    arena.push(Some(ArenaEntry { records, function }));
    pool.push(size, handle);
}

impl FilterMethod for AdaLsh {
    fn name(&self) -> String {
        "adaLSH".to_string()
    }

    fn filter(&mut self, store: &dyn RecordStore, k: usize) -> FilterOutput {
        self.run(store, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairwise::apply_pairwise;
    use adalsh_data::{Dataset, FieldDistance, FieldKind, Record, Schema, ShingleSet};

    /// A dataset with planted entities: entity e has `sizes[e]` records,
    /// each sharing a core of shingles with light noise.
    fn planted(sizes: &[usize], seed: u64) -> Dataset {
        use adalsh_lsh::mix::derive_seed as ds;
        let schema = Schema::single("s", FieldKind::Shingles);
        let mut records = Vec::new();
        let mut gt = Vec::new();
        for (e, &sz) in sizes.iter().enumerate() {
            let base: Vec<u64> = (0..20).map(|i| (e as u64) * 1000 + i).collect();
            for r in 0..sz {
                let mut s = base.clone();
                // Two noise shingles per record — far below the 0.4
                // Jaccard distance threshold.
                s.push(ds(seed, (e * 10_000 + r) as u64) % 7 + (e as u64) * 1000 + 500);
                s.push(ds(seed, (e * 10_000 + r + 5000) as u64) % 7 + (e as u64) * 1000 + 600);
                records.push(Record::single(adalsh_data::FieldValue::Shingles(
                    ShingleSet::new(s),
                )));
                gt.push(e as u32);
            }
        }
        Dataset::new(schema, records, gt)
    }

    fn jaccard_config() -> AdaLshConfig {
        AdaLshConfig::new(MatchRule::threshold(0, FieldDistance::Jaccard, 0.4))
    }

    #[test]
    fn finds_planted_top_k() {
        let d = planted(&[30, 20, 10, 3, 2, 1, 1, 1], 7);
        let mut ada = AdaLsh::for_dataset(&d, jaccard_config()).unwrap();
        let out = ada.run(&d, 3);
        assert_eq!(out.clusters.len(), 3);
        let sizes: Vec<usize> = out.clusters.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![30, 20, 10]);
        assert_eq!(out.records(), d.gold_records(3));
    }

    #[test]
    fn output_clusters_match_ground_truth_entities() {
        let d = planted(&[25, 15, 8, 2, 2], 3);
        let mut ada = AdaLsh::for_dataset(&d, jaccard_config()).unwrap();
        let out = ada.run(&d, 2);
        for cluster in &out.clusters {
            let e0 = d.entity_of(cluster[0]);
            assert!(
                cluster.iter().all(|&r| d.entity_of(r) == e0),
                "cluster mixes entities"
            );
        }
    }

    #[test]
    fn k_larger_than_entity_count() {
        let d = planted(&[5, 3], 1);
        let mut ada = AdaLsh::for_dataset(&d, jaccard_config()).unwrap();
        let out = ada.run(&d, 10);
        assert_eq!(out.clusters.len(), 2);
    }

    #[test]
    fn k_equals_one() {
        let d = planted(&[12, 6, 2], 5);
        let mut ada = AdaLsh::for_dataset(&d, jaccard_config()).unwrap();
        let out = ada.run(&d, 1);
        assert_eq!(out.clusters.len(), 1);
        assert_eq!(out.clusters[0].len(), 12);
    }

    #[test]
    fn incremental_mode_descending_order() {
        let d = planted(&[20, 12, 6, 2, 1], 11);
        let mut ada = AdaLsh::for_dataset(&d, jaccard_config()).unwrap();
        let mut seen: Vec<usize> = Vec::new();
        let _ = ada.run_incremental(&d, 3, |rank, c| {
            assert_eq!(rank, seen.len());
            seen.push(c.len());
        });
        assert_eq!(seen.len(), 3);
        assert!(
            seen.windows(2).all(|w| w[0] >= w[1]),
            "Largest-First emits finals in descending size order: {seen:?}"
        );
    }

    #[test]
    fn theorem2_prefix_property() {
        // Same engine config, k=2 vs k=5: the first 2 finals must agree.
        let d = planted(&[18, 11, 7, 4, 2, 1], 23);
        let mk = || AdaLsh::for_dataset(&d, jaccard_config()).unwrap();
        let out2 = mk().run(&d, 2);
        let out5 = mk().run(&d, 5);
        assert_eq!(out2.clusters[..], out5.clusters[..2]);
        // And the k=2 run must not cost more than the k=5 run.
        assert!(out2.stats.modeled_cost <= out5.stats.modeled_cost + 1e-9);
    }

    #[test]
    fn matches_exact_pairwise_result() {
        // adaLSH's output must (essentially always) equal the exact
        // transitive closure's top-k.
        let d = planted(&[16, 9, 5, 2, 1, 1], 31);
        let mut ada = AdaLsh::for_dataset(&d, jaccard_config()).unwrap();
        let out = ada.run(&d, 3);
        let mut st = Stats::default();
        let all: Vec<u32> = (0..d.len() as u32).collect();
        let mut exact = apply_pairwise(&d, &jaccard_config().rule, &all, 1, &mut st);
        exact.sort_by_key(|c| std::cmp::Reverse(c.len()));
        let mut expected: Vec<u32> = exact[..3].iter().flatten().copied().collect();
        expected.sort_unstable();
        assert_eq!(out.records(), expected);
    }

    #[test]
    fn adaptive_costs_less_than_full_hashing() {
        // Hash evaluations must be far below "every record at max level".
        let d = planted(&[25, 10, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1], 41);
        let mut ada = AdaLsh::for_dataset(&d, jaccard_config()).unwrap();
        let max_budget: u64 = ada.levels().last().unwrap().budget();
        let out = ada.run(&d, 2);
        let full_cost = max_budget * d.len() as u64;
        assert!(
            out.stats.hash_evals < full_cost / 2,
            "adaptive hashing ({}) should be well under full hashing ({full_cost})",
            out.stats.hash_evals
        );
    }

    #[test]
    fn selection_strategies_reach_same_answer() {
        let d = planted(&[14, 9, 4, 2, 1], 53);
        let gold = d.gold_records(2);
        for strategy in [
            SelectionStrategy::LargestFirst,
            SelectionStrategy::SmallestFirst,
            SelectionStrategy::Random,
            SelectionStrategy::Fifo,
        ] {
            let mut cfg = jaccard_config();
            cfg.selection = strategy;
            let mut ada = AdaLsh::for_dataset(&d, cfg).unwrap();
            let out = ada.run(&d, 2);
            assert_eq!(out.records(), gold, "strategy {strategy:?} wrong");
        }
    }

    #[test]
    fn largest_first_cheapest() {
        let d = planted(&[20, 12, 6, 3, 2, 1, 1], 61);
        let run = |strategy| {
            let mut cfg = jaccard_config();
            cfg.selection = strategy;
            let mut ada = AdaLsh::for_dataset(&d, cfg).unwrap();
            ada.run(&d, 2).stats.modeled_cost
        };
        let largest = run(SelectionStrategy::LargestFirst);
        let smallest = run(SelectionStrategy::SmallestFirst);
        assert!(
            largest <= smallest + 1e-9,
            "Largest-First ({largest}) must not cost more than Smallest-First ({smallest})"
        );
    }

    #[test]
    fn require_pairwise_final_verifies_everything() {
        let d = planted(&[10, 6, 2], 71);
        let mut cfg = jaccard_config();
        cfg.require_pairwise_final = true;
        let mut ada = AdaLsh::for_dataset(&d, cfg).unwrap();
        let out = ada.run(&d, 2);
        assert!(out.stats.pairwise_calls > 0, "P must have verified finals");
        assert_eq!(out.records(), d.gold_records(2));
    }

    #[test]
    fn stats_are_populated() {
        let d = planted(&[8, 4, 2], 77);
        let mut ada = AdaLsh::for_dataset(&d, jaccard_config()).unwrap();
        let out = ada.run(&d, 1);
        assert!(out.stats.hash_evals > 0);
        assert!(out.stats.rounds > 0);
        assert!(out.stats.modeled_cost > 0.0);
        assert!(out.wall > Duration::ZERO);
    }

    #[test]
    fn threaded_hashing_matches_sequential() {
        let d = planted(&[22, 14, 7, 3, 2, 1, 1], 97);
        let run = |threads: usize| {
            let mut cfg = jaccard_config();
            cfg.threads = threads;
            let mut ada = AdaLsh::for_dataset(&d, cfg).unwrap();
            ada.run(&d, 3)
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.clusters, par.clusters);
        assert_eq!(seq.stats.hash_evals, par.stats.hash_evals);
        assert_eq!(seq.stats.pair_comparisons, par.stats.pair_comparisons);
    }

    #[test]
    fn deterministic_across_runs() {
        let d = planted(&[15, 9, 3, 1], 83);
        let mk = || AdaLsh::for_dataset(&d, jaccard_config()).unwrap();
        let a = mk().run(&d, 2);
        let b = mk().run(&d, 2);
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.stats.hash_evals, b.stats.hash_evals);
    }
}
