//! Pluggable pairwise adjudication oracles (ROADMAP item 4).
//!
//! The paper treats the pairwise function `P` as the expensive, fallible
//! stage that adaptive LSH exists to shield — a crowdsourced judge in
//! Mazumdar & Saha's setting, an LLM call in the in-context clustering
//! one. This module generalizes today's free, exact [`MatchRule`] path
//! into a [`PairwiseOracle`] trait and supplies two implementations:
//!
//! * [`ExactOracle`] — the rule itself: one attempt, zero spend, no
//!   faults. Wrapping the exact path keeps one code shape for both.
//! * [`NoisyOracle`] — the rule plus a **deterministic** error model
//!   (false-match / false-non-match rates), a modeled latency/cost
//!   model, and injectable faults (timeouts, transient errors, hangs).
//!
//! # Determinism contract
//!
//! Every adjudication outcome is a *pure function* of the oracle seed
//! and the unordered record-id pair: noise, faults, retry jitter, and
//! vote draws all derive from `derive_seed(seed, pair)` chains
//! ([`adalsh_lsh::mix`]), never from wall clocks or thread identity.
//! Latency is **modeled** (accumulated simulated microseconds; a hang is
//! a call whose modeled latency blows past the deadline), so tests run
//! fast and replay bit-identically. Speculative parallel evaluation is
//! therefore safe: workers may adjudicate the same pair in any order on
//! any thread and always obtain the same [`Adjudication`].
//!
//! # Resilience layer
//!
//! One adjudication internally runs a slot of bounded retries with
//! exponential backoff + deterministic jitter under a per-adjudication
//! modeled deadline; a low-confidence verdict (noise draw within the
//! confidence margin of the flip threshold) triggers odd-`n`
//! majority-vote re-adjudication. If every retry faults or the deadline
//! expires, the slot *degrades locally*: the cheap rule's verdict is
//! used and the call is marked degraded rather than aborting the run.
//!
//! # Budgets and the ledger
//!
//! Spend accounting is split from sampling on purpose. Adjudications are
//! computed speculatively (possibly in parallel), but **budget charging
//! and budget-driven degradation happen only in [`SpendLedger::settle`],
//! called from the sequential canonical fold order** — exactly where
//! `Stats` charges happen today. That makes verdicts, clusters, `Stats`,
//! and the oracle spend bit-identical across thread counts, block sizes,
//! and retry schedules. A settled call that would exceed the budget
//! falls back to the cheap rule for free and is counted degraded.
//!
//! Oracle counters live in [`OracleSpend`], **not** in
//! [`crate::stats::Stats`]: the zero-noise noisy path must stay
//! bit-identical to the exact path in `Stats`, and it does because the
//! ledger is a separate book.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use adalsh_data::{KernelTally, MatchRule, SlotTable};
use adalsh_lsh::mix::derive_seed;
use adalsh_obs::{TraceSink, Value};
use serde::{Deserialize, Serialize};

use crate::stats::Stats;

/// Upper bound on individually-tracked degraded pairs in a ledger (the
/// counters keep counting past it; only the id list is capped, so a
/// pathological run cannot balloon the ledger).
pub const DEGRADED_PAIR_TRACK_CAP: usize = 1024;

/// Which oracle adjudicates pairwise verdicts in an engine run.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum OracleMode {
    /// The match rule itself: free, exact, infallible — today's path,
    /// byte-for-byte.
    #[default]
    Exact,
    /// A [`NoisyOracle`] built from this configuration, with a
    /// per-run [`SpendLedger`] enforcing its budget.
    Noisy(NoisyOracleConfig),
}

/// Configuration of a [`NoisyOracle`]: error model, fault injection,
/// latency/cost model, and the resilience-layer knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyOracleConfig {
    /// Probability a true non-match is reported as a match.
    pub false_match_rate: f64,
    /// Probability a true match is reported as a non-match.
    pub false_non_match_rate: f64,
    /// Per-attempt probability of an injected fault (split evenly into
    /// timeouts and transient errors on an independent seeded bit).
    pub fault_rate: f64,
    /// Per-attempt probability of a hang: the call never returns and is
    /// reaped by the deadline (modeled latency 10× the timeout; counted
    /// as a timeout).
    pub hang_rate: f64,
    /// Seed all per-pair randomness derives from.
    pub seed: u64,
    /// Majority-vote width for low-confidence verdicts (forced odd).
    pub votes: u32,
    /// Bounded retries per adjudication slot beyond the first attempt.
    pub max_retries: u32,
    /// Modeled per-call timeout in microseconds.
    pub timeout_micros: u64,
    /// Modeled latency of one successful call in microseconds.
    pub latency_micros: u64,
    /// Modeled per-adjudication deadline across all its attempts; once
    /// the accumulated modeled clock passes it, remaining slots degrade
    /// instead of retrying.
    pub deadline_micros: u64,
    /// Spend units charged per call attempt (including faulted attempts
    /// and vote calls).
    pub cost_per_call: u64,
    /// Total spend budget for one run's ledger; `None` = unlimited.
    pub budget: Option<u64>,
    /// Chaos-test hook: adjudicating any pair touching this record id
    /// panics, simulating an oracle client crashing the resolver thread.
    /// Never set outside fault-injection tests.
    pub panic_on_record: Option<u32>,
}

impl Default for NoisyOracleConfig {
    fn default() -> Self {
        Self {
            false_match_rate: 0.0,
            false_non_match_rate: 0.0,
            fault_rate: 0.0,
            hang_rate: 0.0,
            seed: 42,
            votes: 3,
            max_retries: 3,
            timeout_micros: 50_000,
            latency_micros: 1_000,
            deadline_micros: 400_000,
            cost_per_call: 1,
            budget: None,
            panic_on_record: None,
        }
    }
}

/// The outcome of adjudicating one record pair — a pure function of
/// (oracle seed, unordered pair), so it may be computed speculatively on
/// any thread. Budget is *not* applied here; see [`SpendLedger::settle`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Adjudication {
    /// The oracle's verdict after retries and majority voting.
    pub matched: bool,
    /// The cheap rule's verdict (the degradation fallback; for
    /// [`ExactOracle`] it equals `matched`).
    pub rule_matched: bool,
    /// Total call attempts, including faulted attempts and vote calls.
    pub attempts: u64,
    /// Attempts that were retries after a fault.
    pub retries: u64,
    /// Majority-vote calls triggered by a low-confidence first verdict.
    pub votes: u64,
    /// Attempts that timed out (including hangs reaped by the deadline).
    pub timeouts: u64,
    /// Attempts that failed with a transient error.
    pub transient_errors: u64,
    /// True when some slot exhausted its retries or deadline and fell
    /// back to the cheap rule.
    pub degraded: bool,
    /// Spend units consumed by all attempts.
    pub spend: u64,
    /// Modeled wall time of the whole adjudication in microseconds.
    pub latency_micros: u64,
}

/// A pairwise adjudicator: given a record pair, produce a match verdict
/// plus its cost/fault accounting. Implementations must be deterministic
/// in `(a, b)` and safe to call concurrently ([`Sync`]) — the wavefront
/// evaluates blocks speculatively on worker threads.
pub trait PairwiseOracle: Sync {
    /// What one adjudication leaves in the wavefront's per-block buffer:
    /// as small as the oracle allows (a `bool` for [`ExactOracle`]), and
    /// expanded into a full [`Adjudication`] only when a ledger settles
    /// it.
    type Verdict: Copy + Default + Send;

    /// Adjudicates the unordered pair of records in slots `a` and `b` of
    /// `table`, a [`SlotTable`] built for [`PairwiseOracle::rule`],
    /// tallying the match-rule kernels it ran into `counts`.
    fn adjudicate<T: KernelTally>(
        &self,
        table: &SlotTable<'_>,
        a: usize,
        b: usize,
        counts: &mut T,
    ) -> Self::Verdict;

    /// The full accounting record of a verdict, as [`SpendLedger::settle`]
    /// takes it.
    fn adjudication(verdict: Self::Verdict) -> Adjudication;

    /// The match rule the oracle runs: its [`SlotTable`] is the one
    /// [`PairwiseOracle::adjudicate`] takes, and its elementary distance
    /// count is what each adjudicated pair charges to
    /// `Stats::distance_evals`, exactly like the rule-based path.
    fn rule(&self) -> &MatchRule;
}

/// The exact oracle: the match rule, verbatim. One attempt, zero spend,
/// zero faults — wrapping lets rule-based call sites share the oracle
/// code shape while staying bit-identical to the direct path.
pub struct ExactOracle<'r> {
    rule: &'r MatchRule,
}

impl<'r> ExactOracle<'r> {
    /// Wraps a match rule.
    pub fn new(rule: &'r MatchRule) -> Self {
        Self { rule }
    }
}

impl PairwiseOracle for ExactOracle<'_> {
    type Verdict = bool;

    fn adjudicate<T: KernelTally>(
        &self,
        table: &SlotTable<'_>,
        a: usize,
        b: usize,
        counts: &mut T,
    ) -> bool {
        self.rule.matches_in_counted(table, a, b, counts)
    }

    fn adjudication(matched: bool) -> Adjudication {
        Adjudication {
            matched,
            rule_matched: matched,
            attempts: 1,
            ..Adjudication::default()
        }
    }

    fn rule(&self) -> &MatchRule {
        self.rule
    }
}

/// A fault-injected noisy judge around a match rule. See the module docs
/// for the determinism contract and resilience semantics.
pub struct NoisyOracle<'r> {
    rule: &'r MatchRule,
    cfg: NoisyOracleConfig,
    overlay: Option<Arc<VerdictOverlay>>,
}

impl<'r> NoisyOracle<'r> {
    /// Builds a noisy oracle over `rule` (the rule supplies the ground
    /// verdict that noise is applied to, and the degradation fallback).
    pub fn new(rule: &'r MatchRule, cfg: NoisyOracleConfig) -> Self {
        Self {
            rule,
            cfg,
            overlay: None,
        }
    }

    /// Attaches an external-verdict overlay, consulted before any noise
    /// is sampled: an overlay verdict is authoritative and costs nothing
    /// (the external judge already paid).
    pub fn with_overlay(mut self, overlay: Option<Arc<VerdictOverlay>>) -> Self {
        self.overlay = overlay;
        self
    }

    /// One adjudication slot: bounded retries with exponential backoff +
    /// deterministic jitter under the shared modeled deadline. Returns
    /// `(verdict, low_confidence)`; on retry/deadline exhaustion the
    /// slot degrades to the cheap rule's verdict.
    fn call_slot(
        &self,
        pair_seed: u64,
        slot: u64,
        truth: bool,
        adj: &mut Adjudication,
    ) -> (bool, bool) {
        let slot_seed = derive_seed(pair_seed, slot);
        for attempt in 0..=self.cfg.max_retries as u64 {
            if attempt > 0 && adj.latency_micros >= self.cfg.deadline_micros {
                break; // deadline expired mid-slot: stop retrying
            }
            let attempt_seed = derive_seed(slot_seed, attempt);
            adj.attempts += 1;
            adj.spend += self.cfg.cost_per_call;
            if attempt > 0 {
                adj.retries += 1;
                // Exponential backoff with deterministic jitter, modeled.
                let base = self.cfg.latency_micros.max(1);
                let backoff = base.saturating_mul(1 << attempt.min(20));
                let jitter = derive_seed(attempt_seed, 0xB0FF) % base;
                adj.latency_micros = adj.latency_micros.saturating_add(backoff + jitter);
            }
            let fault = unit(derive_seed(attempt_seed, 1));
            if fault < self.cfg.hang_rate {
                // Hang: the call never returns; the deadline reaps it.
                adj.timeouts += 1;
                adj.latency_micros = adj
                    .latency_micros
                    .saturating_add(self.cfg.timeout_micros.saturating_mul(10));
                continue;
            }
            if fault < self.cfg.hang_rate + self.cfg.fault_rate {
                if derive_seed(attempt_seed, 2) & 1 == 0 {
                    adj.timeouts += 1;
                    adj.latency_micros = adj.latency_micros.saturating_add(self.cfg.timeout_micros);
                } else {
                    adj.transient_errors += 1;
                    adj.latency_micros = adj.latency_micros.saturating_add(self.cfg.latency_micros);
                }
                continue;
            }
            // Successful call: modeled latency plus a noisy verdict. A
            // draw inside the confidence margin (within 2× beyond the
            // flip region) is low-confidence and triggers re-voting.
            adj.latency_micros = adj.latency_micros.saturating_add(self.cfg.latency_micros);
            let noise = unit(derive_seed(attempt_seed, 3));
            let rate = if truth {
                self.cfg.false_non_match_rate
            } else {
                self.cfg.false_match_rate
            };
            let verdict = if noise < rate { !truth } else { truth };
            let low_confidence = rate > 0.0 && noise < (3.0 * rate).min(0.5);
            return (verdict, low_confidence);
        }
        // Every retry faulted (or the deadline expired): degrade the
        // slot to the cheap rule instead of failing the run.
        adj.degraded = true;
        (truth, false)
    }
}

impl PairwiseOracle for NoisyOracle<'_> {
    type Verdict = Adjudication;

    fn adjudicate<T: KernelTally>(
        &self,
        table: &SlotTable<'_>,
        slot_a: usize,
        slot_b: usize,
        counts: &mut T,
    ) -> Adjudication {
        let (a, b) = (table.id(slot_a), table.id(slot_b));
        if let Some(target) = self.cfg.panic_on_record {
            if a == target || b == target {
                panic!("injected oracle fault: adjudication touching record {target}");
            }
        }
        let truth = self.rule.matches_in_counted(table, slot_a, slot_b, counts);
        let mut adj = Adjudication {
            rule_matched: truth,
            ..Adjudication::default()
        };
        if let Some(overlay) = &self.overlay {
            if let Some(verdict) = overlay.get(a, b) {
                // Authoritative external verdict: zero attempts, zero spend.
                adj.matched = verdict;
                return adj;
            }
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let pair_seed = derive_seed(derive_seed(self.cfg.seed, lo as u64), hi as u64);
        let (first, low_confidence) = self.call_slot(pair_seed, 0, truth, &mut adj);
        let mut verdict = first;
        if low_confidence {
            let n = (self.cfg.votes | 1).max(1);
            let mut ayes = 0u32;
            for vote in 0..n {
                let (v, _) = self.call_slot(pair_seed, 1 + vote as u64, truth, &mut adj);
                adj.votes += 1;
                if v {
                    ayes += 1;
                }
            }
            verdict = 2 * ayes > n;
        }
        adj.matched = verdict;
        adj
    }

    fn adjudication(adj: Adjudication) -> Adjudication {
        adj
    }

    fn rule(&self) -> &MatchRule {
        self.rule
    }
}

/// Maps a mixed 64-bit seed to a unit float in `[0, 1)` (53 mantissa
/// bits, the standard shift construction).
fn unit(seed: u64) -> f64 {
    (seed >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Cumulative oracle accounting for one run — deliberately **outside**
/// [`crate::stats::Stats`] so the zero-noise noisy path stays
/// bit-identical to the exact path in `Stats`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OracleSpend {
    /// Pairs settled through the ledger (charged pairs only; speculative
    /// evaluations folded away are never settled).
    pub calls: u64,
    /// Total call attempts across settled pairs.
    pub attempts: u64,
    /// Retry attempts across settled pairs.
    pub retries: u64,
    /// Majority-vote calls across settled pairs.
    pub votes: u64,
    /// Timed-out attempts (including hangs reaped by the deadline).
    pub timeouts: u64,
    /// Transient-error attempts.
    pub transient_errors: u64,
    /// Pairs answered by the cheap-rule fallback (retry/deadline
    /// exhaustion or budget exhaustion).
    pub degraded: u64,
    /// Spend units consumed.
    pub spent: u64,
    /// Modeled oracle wall time in microseconds.
    pub latency_micros: u64,
    /// The budget this ledger enforced (`None` = unlimited).
    pub budget: Option<u64>,
    /// Record-id pairs that were settled degraded, capped at
    /// [`DEGRADED_PAIR_TRACK_CAP`] (counters keep counting past the cap).
    pub degraded_pairs: Vec<(u32, u32)>,
}

/// The per-run spend book. All budget decisions happen here, in the
/// sequential canonical fold order, which is what makes oracle runs
/// bit-identical across thread counts (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct SpendLedger {
    spend: OracleSpend,
}

impl SpendLedger {
    /// A fresh ledger enforcing `budget` (`None` = unlimited).
    pub fn new(budget: Option<u64>) -> Self {
        Self {
            spend: OracleSpend {
                budget,
                ..OracleSpend::default()
            },
        }
    }

    /// Remaining budget, if one is set.
    pub fn remaining(&self) -> Option<u64> {
        self.spend
            .budget
            .map(|b| b.saturating_sub(self.spend.spent))
    }

    /// Settles one adjudication for the unordered pair `(a, b)`: charges
    /// its spend if the budget allows, otherwise degrades the pair to
    /// the cheap rule's free verdict. Returns the adjudication as
    /// settled: over budget, the rule's verdict marked degraded with
    /// nothing charged. **Must be called in the canonical fold order** —
    /// the budget cutoff point is order-dependent, and the canonical
    /// order is what every thread count replays identically.
    pub fn settle(&mut self, a: u32, b: u32, adj: &Adjudication) -> Adjudication {
        let over_budget = self
            .spend
            .budget
            .is_some_and(|b| self.spend.spent.saturating_add(adj.spend) > b);
        let settled = if over_budget {
            Adjudication {
                matched: adj.rule_matched,
                rule_matched: adj.rule_matched,
                degraded: true,
                ..Adjudication::default()
            }
        } else {
            *adj
        };
        self.spend.calls += 1;
        self.spend.attempts += settled.attempts;
        self.spend.retries += settled.retries;
        self.spend.votes += settled.votes;
        self.spend.timeouts += settled.timeouts;
        self.spend.transient_errors += settled.transient_errors;
        self.spend.spent += settled.spend;
        self.spend.latency_micros += settled.latency_micros;
        if settled.degraded {
            self.spend.degraded += 1;
            if self.spend.degraded_pairs.len() < DEGRADED_PAIR_TRACK_CAP {
                let pair = if a <= b { (a, b) } else { (b, a) };
                self.spend.degraded_pairs.push(pair);
            }
        }
        settled
    }

    /// The cumulative spend so far.
    pub fn spend(&self) -> &OracleSpend {
        &self.spend
    }

    /// Consumes the ledger into its cumulative spend.
    pub fn into_spend(self) -> OracleSpend {
        self.spend
    }
}

/// Charges adjudicated pairs to [`Stats`] and settles them through the
/// ledger, if any, emitting `oracle_call` when traced: the one tail of
/// every comparison `P` and rule recovery charge.
pub(crate) struct Settle<'a> {
    stats: &'a mut Stats,
    ledger: Option<&'a mut SpendLedger>,
    /// Set when the call is traced.
    sink: Option<&'a TraceSink>,
    per_pair_distances: u64,
}

impl<'a> Settle<'a> {
    /// Charges pairs under `rule` to `stats`.
    pub(crate) fn new(
        rule: &MatchRule,
        stats: &'a mut Stats,
        ledger: Option<&'a mut SpendLedger>,
        sink: &'a TraceSink,
    ) -> Self {
        Self {
            stats,
            ledger,
            sink: sink.enabled().then_some(sink),
            per_pair_distances: rule.num_elementary_distances() as u64,
        }
    }

    /// The sink, when the call is traced.
    pub(crate) fn sink(&self) -> Option<&'a TraceSink> {
        self.sink
    }

    /// Charges the pair of records `a` and `b` and returns whether
    /// `verdict`, as settled, matches them.
    pub(crate) fn matched<O: PairwiseOracle>(
        &mut self,
        verdict: O::Verdict,
        a: u32,
        b: u32,
    ) -> bool {
        self.stats.pair_comparisons += 1;
        self.stats.distance_evals += self.per_pair_distances;
        let adjudication = O::adjudication(verdict);
        let Some(ledger) = self.ledger.as_deref_mut() else {
            return adjudication.matched;
        };
        let settled = ledger.settle(a, b, &adjudication);
        if let Some(sink) = self.sink {
            emit_oracle_call(sink, &settled);
        }
        settled.matched
    }
}

/// Emits one `oracle_call` trace event for a settled call. Emission
/// happens at settle time — the sequential canonical fold — so event
/// order is deterministic and the per-segment sums reconcile exactly
/// with the ledger (`Σ oracle_call.spend = run_end.oracle_spent`, etc).
pub fn emit_oracle_call(sink: &TraceSink, settled: &Adjudication) {
    sink.emit(
        "oracle_call",
        &[
            ("attempts", Value::U64(settled.attempts)),
            ("retries", Value::U64(settled.retries)),
            ("votes", Value::U64(settled.votes)),
            ("timeouts", Value::U64(settled.timeouts)),
            ("errors", Value::U64(settled.transient_errors)),
            ("spend", Value::U64(settled.spend)),
            ("degraded", Value::U64(u64::from(settled.degraded))),
            ("matched", Value::U64(u64::from(settled.matched))),
            ("latency_micros", Value::U64(settled.latency_micros)),
        ],
    );
}

/// External verdicts posted by an out-of-band judge (the serve layer's
/// `POST /adjudicate`), consulted by [`NoisyOracle`] before any noise is
/// sampled. Versioned so resolve caches can detect overlay changes.
///
/// Overlay verdicts are external input: two runs only replay identically
/// when they see the same overlay contents (the same caveat as the
/// record stream itself).
#[derive(Debug, Default)]
pub struct VerdictOverlay {
    version: AtomicU64,
    verdicts: Mutex<HashMap<(u32, u32), bool>>,
}

impl VerdictOverlay {
    /// An empty overlay at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The authoritative verdict for the unordered pair, if one was
    /// posted.
    pub fn get(&self, a: u32, b: u32) -> Option<bool> {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.lock().get(&key).copied()
    }

    /// Posts (or replaces) a verdict, bumping the overlay version.
    /// Returns the new version.
    pub fn set(&self, a: u32, b: u32, matched: bool) -> u64 {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.lock().insert(key, matched);
        self.version.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Monotone counter bumped on every [`VerdictOverlay::set`].
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Number of posted verdicts.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no verdict was ever posted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<(u32, u32), bool>> {
        // A panic while holding this mutex cannot leave partial state
        // (single-map insert/read), so poisoning is ignorable.
        self.verdicts.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adalsh_data::{
        Dataset, ExitCounts, FieldDistance, FieldKind, FieldValue, Record, Schema, ShingleSet,
        SlotTable,
    };

    fn dataset(sets: &[&[u64]]) -> Dataset {
        let schema = Schema::single("s", FieldKind::Shingles);
        let records = sets
            .iter()
            .map(|s| Record::single(FieldValue::Shingles(ShingleSet::new(s.to_vec()))))
            .collect();
        let gt = (0..sets.len() as u32).collect();
        Dataset::new(schema, records, gt)
    }

    /// Adjudicates `(a, b)` through a two-slot table under the oracle's
    /// rule.
    fn adjudicate<O: PairwiseOracle, T: KernelTally>(
        o: &O,
        d: &Dataset,
        a: u32,
        b: u32,
        counts: &mut T,
    ) -> O::Verdict {
        o.adjudicate(&SlotTable::build(o.rule(), d, &[a, b], 1), 0, 1, counts)
    }

    fn rule() -> MatchRule {
        MatchRule::threshold(0, FieldDistance::Jaccard, 0.4)
    }

    /// Records 0,1 match; record 2 matches neither.
    fn toy() -> Dataset {
        dataset(&[&[1, 2, 3, 4], &[1, 2, 3, 5], &[100, 200, 300]])
    }

    #[test]
    fn exact_oracle_mirrors_the_rule() {
        let d = toy();
        let r = rule();
        let o = ExactOracle::new(&r);
        let mut counts = ExitCounts::default();
        let adj = ExactOracle::adjudication(adjudicate(&o, &d, 0, 1, &mut counts));
        assert!(adj.matched && adj.rule_matched);
        assert_eq!(adj.attempts, 1);
        assert_eq!(adj.spend, 0);
        assert!(!adjudicate(&o, &d, 0, 2, &mut counts));
        assert_eq!(counts.checks, 2, "one rule kernel per adjudication");
        assert_eq!(o.rule(), &r);
    }

    #[test]
    fn zero_noise_noisy_oracle_equals_the_rule() {
        let d = toy();
        let r = rule();
        let o = NoisyOracle::new(&r, NoisyOracleConfig::default());
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            let adj = adjudicate(&o, &d, a, b, &mut ExitCounts::default());
            assert_eq!(
                adj.matched,
                r.matches(d.record(a), d.record(b)),
                "pair ({a},{b})"
            );
            assert_eq!(adj.attempts, 1);
            assert_eq!(adj.retries, 0);
            assert_eq!(adj.votes, 0);
            assert!(!adj.degraded);
            assert_eq!(adj.spend, 1);
        }
    }

    #[test]
    fn adjudication_is_pure_and_symmetric() {
        let d = toy();
        let r = rule();
        let cfg = NoisyOracleConfig {
            false_match_rate: 0.2,
            false_non_match_rate: 0.2,
            fault_rate: 0.2,
            seed: 7,
            ..NoisyOracleConfig::default()
        };
        let o = NoisyOracle::new(&r, cfg);
        for (a, b) in [(0u32, 1u32), (0, 2), (1, 2)] {
            let x = adjudicate(&o, &d, a, b, &mut ExitCounts::default());
            let y = adjudicate(&o, &d, a, b, &mut ExitCounts::default());
            let z = adjudicate(&o, &d, b, a, &mut ExitCounts::default()); // unordered pair
            assert_eq!(x, y, "repeat ({a},{b})");
            assert_eq!(x, z, "swap ({a},{b})");
        }
    }

    #[test]
    fn different_seeds_sample_different_noise() {
        // With a 30% flip rate across many pairs, two seeds must not
        // produce identical verdict vectors.
        let sets: Vec<Vec<u64>> = (0..30).map(|i| vec![i, i + 1, i + 2]).collect();
        let refs: Vec<&[u64]> = sets.iter().map(Vec::as_slice).collect();
        let d = dataset(&refs);
        let r = rule();
        let verdicts = |seed: u64| -> Vec<bool> {
            let cfg = NoisyOracleConfig {
                false_match_rate: 0.3,
                seed,
                ..NoisyOracleConfig::default()
            };
            let o = NoisyOracle::new(&r, cfg);
            let mut out = Vec::new();
            for a in 0..30u32 {
                for b in (a + 1)..30 {
                    out.push(adjudicate(&o, &d, a, b, &mut ExitCounts::default()).matched);
                }
            }
            out
        };
        assert_ne!(verdicts(1), verdicts(2));
        assert_eq!(verdicts(1), verdicts(1));
    }

    #[test]
    fn faults_trigger_retries_and_exhaustion_degrades() {
        let d = toy();
        let r = rule();
        // Certain fault: every attempt times out or errors; all slots
        // degrade to the rule verdict.
        let cfg = NoisyOracleConfig {
            fault_rate: 1.0,
            max_retries: 2,
            ..NoisyOracleConfig::default()
        };
        let o = NoisyOracle::new(&r, cfg);
        let adj = adjudicate(&o, &d, 0, 1, &mut ExitCounts::default());
        assert!(adj.degraded);
        assert!(adj.matched, "degrades to the rule verdict");
        assert_eq!(adj.attempts, 3, "1 + max_retries");
        assert_eq!(adj.retries, 2);
        assert_eq!(adj.timeouts + adj.transient_errors, 3);
        assert_eq!(adj.spend, 3);
        assert!(adj.latency_micros > 0);
    }

    #[test]
    fn hangs_are_reaped_by_the_deadline() {
        let d = toy();
        let r = rule();
        let cfg = NoisyOracleConfig {
            hang_rate: 1.0,
            max_retries: 10,
            timeout_micros: 100,
            deadline_micros: 2_500,
            ..NoisyOracleConfig::default()
        };
        let o = NoisyOracle::new(&r, cfg);
        let adj = adjudicate(&o, &d, 0, 1, &mut ExitCounts::default());
        assert!(adj.degraded);
        assert!(adj.timeouts >= 1);
        // The deadline stopped retrying well before max_retries.
        assert!(adj.attempts < 11, "deadline reaps hangs: {adj:?}");
    }

    #[test]
    fn low_confidence_triggers_odd_majority_votes() {
        // Flip rate 0.49 ⇒ the low-confidence margin min(3·rate, 0.5)
        // covers essentially every draw, so votes fire on most pairs.
        let sets: Vec<Vec<u64>> = (0..20).map(|i| vec![i, i + 1]).collect();
        let refs: Vec<&[u64]> = sets.iter().map(Vec::as_slice).collect();
        let d = dataset(&refs);
        let r = rule();
        let cfg = NoisyOracleConfig {
            false_match_rate: 0.49,
            votes: 4, // forced odd ⇒ 5
            ..NoisyOracleConfig::default()
        };
        let o = NoisyOracle::new(&r, cfg);
        let mut voted = 0;
        for a in 0..20u32 {
            for b in (a + 1)..20 {
                let adj = adjudicate(&o, &d, a, b, &mut ExitCounts::default());
                if adj.votes > 0 {
                    voted += 1;
                    assert_eq!(adj.votes, 5, "odd-n vote width");
                    assert!(adj.attempts >= 6, "initial call + 5 votes");
                }
            }
        }
        assert!(voted > 0, "some pair must have re-voted");
    }

    #[test]
    fn ledger_budget_degrades_instead_of_aborting() {
        let d = toy();
        let r = rule();
        let o = NoisyOracle::new(&r, NoisyOracleConfig::default());
        let mut ledger = SpendLedger::new(Some(2));
        // Each zero-noise adjudication costs 1: the first two settle on
        // budget, the third degrades for free.
        let pairs = [(0u32, 1u32), (0, 2), (1, 2)];
        let mut degraded = 0;
        for (a, b) in pairs {
            let adj = adjudicate(&o, &d, a, b, &mut ExitCounts::default());
            let settled = ledger.settle(a, b, &adj);
            // Degraded or not, the zero-noise verdict equals the rule.
            assert_eq!(settled.matched, r.matches(d.record(a), d.record(b)));
            if settled.degraded {
                degraded += 1;
                assert_eq!(settled.spend, 0, "budget fallback is free");
            }
        }
        assert_eq!(degraded, 1);
        let s = ledger.spend();
        assert_eq!(s.calls, 3);
        assert_eq!(s.spent, 2);
        assert_eq!(s.degraded, 1);
        assert_eq!(s.degraded_pairs, vec![(1, 2)]);
        assert_eq!(ledger.remaining(), Some(0));
    }

    #[test]
    fn overlay_verdicts_are_authoritative_and_free() {
        let d = toy();
        let r = rule();
        let overlay = Arc::new(VerdictOverlay::new());
        assert_eq!(overlay.version(), 0);
        // Post an inverted verdict for the matching pair (0,1).
        let v = overlay.set(1, 0, false);
        assert_eq!(v, 1);
        assert_eq!(overlay.len(), 1);
        let o =
            NoisyOracle::new(&r, NoisyOracleConfig::default()).with_overlay(Some(overlay.clone()));
        let adj = adjudicate(&o, &d, 0, 1, &mut ExitCounts::default());
        assert!(!adj.matched, "overlay overrides the oracle");
        assert_eq!(adj.attempts, 0);
        assert_eq!(adj.spend, 0);
        // Pairs without an overlay entry adjudicate normally.
        let adj = adjudicate(&o, &d, 0, 2, &mut ExitCounts::default());
        assert_eq!(adj.attempts, 1);
        assert_eq!(overlay.get(2, 0), None);
    }

    #[test]
    #[should_panic(expected = "injected oracle fault")]
    fn panic_on_record_hook_panics() {
        let d = toy();
        let r = rule();
        let cfg = NoisyOracleConfig {
            panic_on_record: Some(1),
            ..NoisyOracleConfig::default()
        };
        adjudicate(
            &NoisyOracle::new(&r, cfg),
            &d,
            0,
            1,
            &mut ExitCounts::default(),
        );
    }
}
