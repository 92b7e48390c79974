//! The trace event taxonomy and its validator.
//!
//! A trace is a sequence of events; the engine emits them from its
//! *sequential control path* only (worker threads fold their counters
//! into per-call deltas first), so event order is deterministic given
//! the run's decisions. One engine run is a **segment**: `run_start`,
//! round-loop events, `run_end`. A file may hold many segments (the
//! online resolver emits one per query) plus segment-free events
//! (`design_level` during engine construction, `online_query` after a
//! query's segment).
//!
//! ## Events
//!
//! | event | when | fields |
//! |---|---|---|
//! | `design_level` | sequence design picks level `H_i` | `level`, `budget` |
//! | `run_start` | entering Algorithm 1 | `records`, `k`, `levels`, `threads`, `source` |
//! | `hash_round` | after a transitive hashing call `H_level` | `level`, `cluster_size`, `hash_evals`, `keys_emitted`, `subclusters`, `reused` (records whose partition came from an online resolver's memo: `cluster_size` on a whole-set hit, the largest earlier-resolved part the cluster holds, else 0; always 0 at level 1), `wall_micros`, `predicted_cost` |
//! | `level_built` | after the `hash_round` whose records first reached `H_level`, once per engine and level with hyperplane parts | `level`, `functions` (hyperplane normals the level holds), `bytes` (their panels' heap size), `build_micros` (inside that round's `wall_micros`) |
//! | `gate` | Line-5 decision on a non-final cluster | `level`, `cluster_size`, `predicted_pairwise_cost`, `action` (`hash`\|`pairwise`), `forced` (0\|1), optional `predicted_hash_cost` (absent when forced: no `H_{t+1}` exists to price) |
//! | `pairwise` | after a pairwise call `P` | `cluster_size`, `pairs`, `distance_evals`, `kernel_checks`, `early_exits`, `bound_rejects` (early exits an exact bound decided before the kernel touched the payloads: the Jaccard bitmap bound before any merge, the angular pivot bound before the dot product), `blocks`, `reused` (records whose partition came from an online resolver's memo: `cluster_size` on a whole-set hit, the part resolved in an earlier pass on a grown cluster, else 0), `subclusters`, `wall_micros`, `predicted_cost` |
//! | `pairwise_block` | after each wavefront block inside `P` | `pairs_open`, `pairs_charged`, `kernel_checks`, `early_exits`, `bound_rejects`, `wall_micros` |
//! | `final_cluster` | a cluster is declared final | `rank`, `size`, `origin` (`hashed`\|`pairwise`), `level` (0 when origin is `pairwise`) |
//! | `oracle_call` | a pairwise-oracle adjudication is settled through the spend ledger | `attempts`, `retries`, `votes`, `timeouts`, `errors`, `spend`, `degraded` (0\|1), `matched` (0\|1), `latency_micros` (modeled) |
//! | `run_end` | leaving Algorithm 1 | the full `Stats` mirror: `rounds`, `finals`, `hash_evals`, `distance_evals`, `pair_comparisons`, `bucket_inserts`, `transitive_calls`, `transitive_reused`, `pairwise_calls`, `pairwise_reused`, `modeled_cost`, `wall_micros`; under a noisy oracle also the ledger mirror: `oracle_calls`, `oracle_attempts`, `oracle_retries`, `oracle_votes`, `oracle_timeouts`, `oracle_errors`, `oracle_degraded`, `oracle_spent` |
//! | `online_query` | after an online resolver query | `k`, `records`, `fresh_records`, `advanced_records`, `hash_evals`, `wall_micros` |
//! | `span` | a span completes (see [`crate::span`]) | `span_id`, `parent_span_id` (0 = root), `op`, `start_micros`, `duration_micros`, plus optional typed attribution fields |
//!
//! `oracle_call` is segment-free by scope: the rule-based recovery
//! process adjudicates outside any engine run, so its calls appear
//! between segments and are not reconciled against a `run_end`.
//!
//! ## Span-tree invariants
//!
//! `span` events are segment-free (children complete before their
//! parents, typically after the engine segment they attribute), and
//! [`validate`] reconciles them in a second pass over the whole file:
//!
//! * span ids are nonzero and unique; every nonzero `parent_span_id`
//!   names a span in the file, and parent chains are acyclic;
//! * root ops (`ingest_batch`, `topk_query`, `filter_run`) have parent
//!   0; child ops never do;
//! * every span's `start + duration` fits in a `u64`, and so does the
//!   Σ of each parent's direct-children durations (checked, so a
//!   crafted window cannot wrap past the checks below);
//! * a child's `[start, start + duration]` window lies inside its
//!   parent's, and Σ direct-children durations ≤ the parent duration —
//!   exact, not approximate, because all stamps share one truncation
//!   origin (see [`crate::span`]);
//! * an engine-derived span carrying a `segment` field (ops
//!   `hash_rounds` / `pairwise` only; at most one per op per segment)
//!   links bit-for-bit to run segment `segment` (1-based, in file
//!   order): a `hash_rounds` span's duration equals that segment's
//!   Σ `hash_round.wall_micros` and its `hash_evals` field the
//!   segment's Σ `hash_round.hash_evals` (itself already reconciled
//!   against the `run_end` `Stats` mirror); a `pairwise` span's
//!   duration equals Σ `pairwise.wall_micros`, its `pairs` /
//!   `oracle_calls` / `oracle_spend` / `oracle_latency_micros` fields
//!   the segment's event sums. Modeled oracle latency is attribution
//!   only — never a span duration, since modeled time may exceed wall
//!   time.
//!
//! ## Reconciliation identities
//!
//! [`validate`] folds each segment through [`crate::fold`] and
//! enforces that the totals reconcile **exactly** with the `run_end`
//! `Stats` mirror:
//!
//! * Σ `hash_round.hash_evals` = `hash_evals`
//! * Σ `hash_round.keys_emitted` = `bucket_inserts`
//! * #`hash_round` = `transitive_calls`
//! * #`hash_round{reused>0}` = `transitive_reused`
//! * #`pairwise` = `pairwise_calls`
//! * #`pairwise{reused>0}` = `pairwise_reused`
//! * Σ `pairwise.pairs` = `pair_comparisons`
//! * Σ `pairwise.distance_evals` = `distance_evals`
//! * #`gate` + #`final_cluster` = `rounds` (every selected cluster is
//!   either declared final or gated)
//! * #`final_cluster` = `finals`
//! * Σ `pairwise_block.pairs_charged` = `pair_comparisons`, and the
//!   blocks' `kernel_checks` / `early_exits` / `bound_rejects` totals
//!   equal their `pairwise` parents' (each `pairwise` event is the sum
//!   of its blocks), with #`pairwise_block` = Σ `pairwise.blocks`; on
//!   every `pairwise` and `pairwise_block` event, `bound_rejects` ≤
//!   `early_exits` ≤ `kernel_checks`
//! * folding `predicted_cost` over `hash_round` and `pairwise` events in
//!   order reproduces `modeled_cost` **bit-identically** — the engine
//!   charges its ledger with the same `f64` additions in the same
//!   order, and the JSONL round trip is exact (shortest round-trip
//!   float formatting)
//! * when `run_end` carries the oracle-ledger mirror, the segment's
//!   `oracle_call` events reconcile against it exactly:
//!   #`oracle_call` = `oracle_calls`, and Σ `attempts` / `retries` /
//!   `votes` / `timeouts` / `errors` / `spend` / `degraded` equal
//!   `oracle_attempts` / `oracle_retries` / `oracle_votes` /
//!   `oracle_timeouts` / `oracle_errors` / `oracle_spent` /
//!   `oracle_degraded`. A segment containing `oracle_call` events whose
//!   `run_end` lacks the mirror is rejected (and the mirror is
//!   all-or-nothing)

use crate::fold::{EngineEvent, EngineTotals};
use crate::trace::{OwnedEvent, OwnedValue};

/// The wire type of one schema field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// Unsigned counter (counts, sizes, 0/1 flags).
    U64,
    /// Floating-point measurement; an integral value may arrive as `U64`
    /// off the wire and is accepted.
    F64,
    /// Short label.
    Str,
}

/// Where an event may appear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Only between `run_start` and `run_end`.
    Run,
    /// Anywhere.
    Any,
}

/// The schema of one event type.
#[derive(Debug)]
pub struct EventSpec {
    /// Event name.
    pub name: &'static str,
    /// Where the event may appear.
    pub scope: Scope,
    /// Fields that must be present.
    pub required: &'static [(&'static str, FieldKind)],
    /// Fields that may be present.
    pub optional: &'static [(&'static str, FieldKind)],
}

/// The full event taxonomy, one spec per event type.
pub const EVENTS: &[EventSpec] = &[
    EventSpec {
        name: "design_level",
        scope: Scope::Any,
        required: &[("level", FieldKind::U64), ("budget", FieldKind::U64)],
        optional: &[],
    },
    EventSpec {
        name: "run_start",
        scope: Scope::Any,
        required: &[
            ("records", FieldKind::U64),
            ("k", FieldKind::U64),
            ("levels", FieldKind::U64),
            ("threads", FieldKind::U64),
            ("source", FieldKind::Str),
        ],
        optional: &[],
    },
    EventSpec {
        name: "hash_round",
        scope: Scope::Run,
        required: &[
            ("level", FieldKind::U64),
            ("cluster_size", FieldKind::U64),
            ("hash_evals", FieldKind::U64),
            ("keys_emitted", FieldKind::U64),
            ("subclusters", FieldKind::U64),
            ("reused", FieldKind::U64),
            ("wall_micros", FieldKind::U64),
            ("predicted_cost", FieldKind::F64),
        ],
        optional: &[],
    },
    EventSpec {
        name: "level_built",
        scope: Scope::Run,
        required: &[
            ("level", FieldKind::U64),
            ("functions", FieldKind::U64),
            ("bytes", FieldKind::U64),
            ("build_micros", FieldKind::U64),
        ],
        optional: &[],
    },
    EventSpec {
        name: "gate",
        scope: Scope::Run,
        required: &[
            ("level", FieldKind::U64),
            ("cluster_size", FieldKind::U64),
            ("predicted_pairwise_cost", FieldKind::F64),
            ("action", FieldKind::Str),
            ("forced", FieldKind::U64),
        ],
        optional: &[("predicted_hash_cost", FieldKind::F64)],
    },
    EventSpec {
        name: "pairwise",
        scope: Scope::Run,
        required: &[
            ("cluster_size", FieldKind::U64),
            ("pairs", FieldKind::U64),
            ("distance_evals", FieldKind::U64),
            ("kernel_checks", FieldKind::U64),
            ("early_exits", FieldKind::U64),
            ("bound_rejects", FieldKind::U64),
            ("blocks", FieldKind::U64),
            ("reused", FieldKind::U64),
            ("subclusters", FieldKind::U64),
            ("wall_micros", FieldKind::U64),
            ("predicted_cost", FieldKind::F64),
        ],
        optional: &[],
    },
    EventSpec {
        name: "pairwise_block",
        scope: Scope::Run,
        required: &[
            ("pairs_open", FieldKind::U64),
            ("pairs_charged", FieldKind::U64),
            ("kernel_checks", FieldKind::U64),
            ("early_exits", FieldKind::U64),
            ("bound_rejects", FieldKind::U64),
            ("wall_micros", FieldKind::U64),
        ],
        optional: &[],
    },
    EventSpec {
        name: "final_cluster",
        scope: Scope::Run,
        required: &[
            ("rank", FieldKind::U64),
            ("size", FieldKind::U64),
            ("origin", FieldKind::Str),
            ("level", FieldKind::U64),
        ],
        optional: &[],
    },
    EventSpec {
        name: "oracle_call",
        scope: Scope::Any,
        required: &[
            ("attempts", FieldKind::U64),
            ("retries", FieldKind::U64),
            ("votes", FieldKind::U64),
            ("timeouts", FieldKind::U64),
            ("errors", FieldKind::U64),
            ("spend", FieldKind::U64),
            ("degraded", FieldKind::U64),
            ("matched", FieldKind::U64),
            ("latency_micros", FieldKind::U64),
        ],
        optional: &[],
    },
    EventSpec {
        name: "run_end",
        scope: Scope::Run,
        required: &[
            ("rounds", FieldKind::U64),
            ("finals", FieldKind::U64),
            ("hash_evals", FieldKind::U64),
            ("distance_evals", FieldKind::U64),
            ("pair_comparisons", FieldKind::U64),
            ("bucket_inserts", FieldKind::U64),
            ("transitive_calls", FieldKind::U64),
            ("transitive_reused", FieldKind::U64),
            ("pairwise_calls", FieldKind::U64),
            ("pairwise_reused", FieldKind::U64),
            ("modeled_cost", FieldKind::F64),
            ("wall_micros", FieldKind::U64),
        ],
        optional: &[
            ("oracle_calls", FieldKind::U64),
            ("oracle_attempts", FieldKind::U64),
            ("oracle_retries", FieldKind::U64),
            ("oracle_votes", FieldKind::U64),
            ("oracle_timeouts", FieldKind::U64),
            ("oracle_errors", FieldKind::U64),
            ("oracle_degraded", FieldKind::U64),
            ("oracle_spent", FieldKind::U64),
        ],
    },
    EventSpec {
        name: "online_query",
        scope: Scope::Any,
        required: &[
            ("k", FieldKind::U64),
            ("records", FieldKind::U64),
            ("fresh_records", FieldKind::U64),
            ("advanced_records", FieldKind::U64),
            ("hash_evals", FieldKind::U64),
            ("wall_micros", FieldKind::U64),
        ],
        optional: &[],
    },
    EventSpec {
        name: "span",
        scope: Scope::Any,
        required: &[
            ("span_id", FieldKind::U64),
            ("parent_span_id", FieldKind::U64),
            ("op", FieldKind::Str),
            ("start_micros", FieldKind::U64),
            ("duration_micros", FieldKind::U64),
        ],
        optional: &[
            ("segment", FieldKind::U64),
            ("records", FieldKind::U64),
            ("batches", FieldKind::U64),
            ("epoch", FieldKind::U64),
            ("k", FieldKind::U64),
            ("hash_evals", FieldKind::U64),
            ("pairs", FieldKind::U64),
            ("oracle_calls", FieldKind::U64),
            ("oracle_spend", FieldKind::U64),
            ("oracle_latency_micros", FieldKind::U64),
            // Signed delta: rides the wire as a (possibly negative) f64.
            ("rss_delta_bytes", FieldKind::F64),
            ("minor_faults", FieldKind::U64),
            ("major_faults", FieldKind::U64),
        ],
    },
];

/// Span operations that are roots of a span tree (`parent_span_id` 0).
pub const SPAN_ROOT_OPS: &[&str] = &["ingest_batch", "topk_query", "filter_run"];

/// Span operations that are always children of another span.
pub const SPAN_CHILD_OPS: &[&str] = &[
    "queue_wait",
    "coalesce",
    "resolve",
    "hash_rounds",
    "pairwise",
    "publish",
    "barrier_wait",
    "design",
];

/// Every valid span `op`, root and child.
pub const SPAN_OPS: &[&str] = &[
    "ingest_batch",
    "topk_query",
    "filter_run",
    "queue_wait",
    "coalesce",
    "resolve",
    "hash_rounds",
    "pairwise",
    "publish",
    "barrier_wait",
    "design",
];

/// Looks up the spec for an event name.
pub fn spec_of(name: &str) -> Option<&'static EventSpec> {
    EVENTS.iter().find(|s| s.name == name)
}

/// What [`validate`] learned about a well-formed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceReport {
    /// Number of complete run segments.
    pub runs: usize,
    /// Total number of events.
    pub events: usize,
}

/// Validates a trace against the taxonomy: field presence and types,
/// segment structure, enum values, and every reconciliation identity
/// listed in the module docs.
///
/// # Errors
/// Fails with a message naming the offending event index (0-based) or
/// the violated identity.
pub fn validate(events: &[OwnedEvent]) -> Result<TraceReport, String> {
    let mut runs = 0usize;
    let mut segment: Option<EngineTotals> = None;
    let mut segments: Vec<EngineTotals> = Vec::new();
    let mut span_indices: Vec<usize> = Vec::new();
    for (idx, event) in events.iter().enumerate() {
        let spec = spec_of(&event.name)
            .ok_or_else(|| format!("event {idx}: unknown event '{}'", event.name))?;
        check_fields(idx, event, spec)?;
        check_enums(idx, event)?;

        if spec.scope == Scope::Run && event.name != "run_end" && segment.is_none() {
            return Err(format!(
                "event {idx}: '{}' outside a run segment",
                event.name
            ));
        }
        match EngineEvent::of(&event.name) {
            Some(EngineEvent::RunStart) => {
                if segment.is_some() {
                    return Err(format!("event {idx}: nested run_start"));
                }
                segment = Some(EngineTotals::default());
            }
            Some(EngineEvent::RunEnd) => {
                let seg = segment
                    .take()
                    .ok_or_else(|| format!("event {idx}: run_end without run_start"))?;
                check_segment(runs, &seg, event)?;
                segments.push(seg);
                runs += 1;
            }
            Some(kind) => {
                if let Some(seg) = &mut segment {
                    seg.fold(kind, event);
                }
            }
            None if event.name == "span" => span_indices.push(idx),
            None => {}
        }
    }
    if segment.is_some() {
        return Err("trace ends inside an unterminated run segment".to_string());
    }
    check_spans(events, &span_indices, &segments)?;
    Ok(TraceReport {
        runs,
        events: events.len(),
    })
}

fn check_fields(idx: usize, event: &OwnedEvent, spec: &EventSpec) -> Result<(), String> {
    let kind_of = |value: &OwnedValue| match value {
        OwnedValue::U64(_) => FieldKind::U64,
        OwnedValue::F64(_) => FieldKind::F64,
        OwnedValue::Str(_) => FieldKind::Str,
    };
    for (name, value) in &event.fields {
        let want = spec
            .required
            .iter()
            .chain(spec.optional)
            .find(|(n, _)| n == name)
            .map(|&(_, k)| k)
            .ok_or_else(|| format!("event {idx}: '{}' has unknown field '{name}'", event.name))?;
        let got = kind_of(value);
        // Integral f64 measurements arrive as U64 off the wire.
        let ok = got == want || (want == FieldKind::F64 && got == FieldKind::U64);
        if !ok {
            return Err(format!(
                "event {idx}: field '{name}' of '{}' is {got:?}, schema says {want:?}",
                event.name
            ));
        }
    }
    for (name, _) in spec.required {
        if event.get(name).is_none() {
            return Err(format!(
                "event {idx}: '{}' is missing required field '{name}'",
                event.name
            ));
        }
    }
    Ok(())
}

fn check_enums(idx: usize, event: &OwnedEvent) -> Result<(), String> {
    if let Some(action) = event.str("action") {
        if !matches!(action, "hash" | "pairwise") {
            return Err(format!("event {idx}: bad gate action '{action}'"));
        }
    }
    if let Some(origin) = event.str("origin") {
        if !matches!(origin, "hashed" | "pairwise") {
            return Err(format!("event {idx}: bad final origin '{origin}'"));
        }
    }
    if event.name == "run_start" {
        if let Some(source) = event.str("source") {
            if !matches!(source, "ram" | "store") {
                return Err(format!("event {idx}: bad run source '{source}'"));
            }
        }
    }
    if let Some(forced) = event.u64("forced") {
        if forced > 1 {
            return Err(format!(
                "event {idx}: 'forced' must be 0 or 1, got {forced}"
            ));
        }
    }
    if matches!(event.name.as_str(), "pairwise" | "pairwise_block") {
        let (checks, exits, bound) = (
            event.u64("kernel_checks"),
            event.u64("early_exits"),
            event.u64("bound_rejects"),
        );
        if let (Some(checks), Some(exits), Some(bound)) = (checks, exits, bound) {
            if !(bound <= exits && exits <= checks) {
                return Err(format!(
                    "event {idx}: '{}' needs bound_rejects <= early_exits <= kernel_checks, \
                     got {bound}, {exits}, {checks}",
                    event.name
                ));
            }
        }
    }
    if event.name == "oracle_call" {
        for flag in ["degraded", "matched"] {
            if let Some(v) = event.u64(flag) {
                if v > 1 {
                    return Err(format!("event {idx}: '{flag}' must be 0 or 1, got {v}"));
                }
            }
        }
    }
    if event.name == "span" {
        if let Some(op) = event.str("op") {
            if !SPAN_OPS.contains(&op) {
                return Err(format!("event {idx}: unknown span op '{op}'"));
            }
        }
    }
    Ok(())
}

fn check_segment(run: usize, seg: &EngineTotals, end: &OwnedEvent) -> Result<(), String> {
    // Each event total against the `run_end` field it mirrors.
    for (lhs, got, field) in [
        ("Σ hash_round.hash_evals", seg.hash_evals, "hash_evals"),
        (
            "Σ hash_round.keys_emitted",
            seg.keys_emitted,
            "bucket_inserts",
        ),
        ("#hash_round", seg.hash_rounds, "transitive_calls"),
        (
            "#hash_round{reused>0}",
            seg.hash_reused,
            "transitive_reused",
        ),
        ("#pairwise", seg.pairwise_calls, "pairwise_calls"),
        (
            "#pairwise{reused>0}",
            seg.pairwise_reused,
            "pairwise_reused",
        ),
        ("Σ pairwise.pairs", seg.pairs, "pair_comparisons"),
        (
            "Σ pairwise.distance_evals",
            seg.distance_evals,
            "distance_evals",
        ),
        (
            "#gate + #final_cluster",
            seg.gates_hash + seg.gates_pairwise + seg.final_clusters,
            "rounds",
        ),
        ("#final_cluster", seg.final_clusters, "finals"),
        (
            "Σ pairwise_block.pairs_charged",
            seg.block_pairs_charged,
            "pair_comparisons",
        ),
    ] {
        let expected = end
            .u64(field)
            .ok_or_else(|| format!("run {run}: run_end missing '{field}'"))?;
        identity(run, lhs, field, got, expected)?;
    }
    // Each `pairwise` total against its blocks'.
    for (lhs, got, rhs, expected) in [
        (
            "#pairwise_block",
            seg.block_events,
            "Σ pairwise.blocks",
            seg.blocks,
        ),
        (
            "Σ pairwise_block.kernel_checks",
            seg.block_kernel_checks,
            "Σ pairwise.kernel_checks",
            seg.kernel_checks,
        ),
        (
            "Σ pairwise_block.early_exits",
            seg.block_early_exits,
            "Σ pairwise.early_exits",
            seg.early_exits,
        ),
        (
            "Σ pairwise_block.bound_rejects",
            seg.block_bound_rejects,
            "Σ pairwise.bound_rejects",
            seg.bound_rejects,
        ),
    ] {
        identity(run, lhs, rhs, got, expected)?;
    }
    let modeled = end
        .f64("modeled_cost")
        .ok_or_else(|| format!("run {run}: run_end missing 'modeled_cost'"))?;
    if seg.predicted_cost.to_bits() != modeled.to_bits() {
        return Err(format!(
            "run {run}: predicted_cost fold {} is not bit-identical to modeled_cost {}",
            seg.predicted_cost, modeled
        ));
    }
    check_oracle_ledger(run, seg, end)
}

/// Checks the reconciliation identity `lhs = rhs` of run `run`, whose
/// sides read `got` and `expected`.
fn identity(run: usize, lhs: &str, rhs: &str, got: u64, expected: u64) -> Result<(), String> {
    if got == expected {
        return Ok(());
    }
    Err(format!(
        "run {run}: identity '{lhs} = {rhs}' violated: {got} != {expected}"
    ))
}

/// Reconciles the optional oracle-ledger mirror on `run_end` against
/// the segment's `oracle_call` events. The mirror is all-or-nothing:
/// a `run_end` carrying any `oracle_*` field must carry all eight, and
/// a segment containing `oracle_call` events must end with the mirror.
fn check_oracle_ledger(run: usize, seg: &EngineTotals, end: &OwnedEvent) -> Result<(), String> {
    // The `run_end` mirror, each field beside the event total it holds.
    let mirror = [
        ("oracle_calls", "#oracle_call", seg.oracle_calls),
        (
            "oracle_attempts",
            "Σ oracle_call.attempts",
            seg.oracle_attempts,
        ),
        (
            "oracle_retries",
            "Σ oracle_call.retries",
            seg.oracle_retries,
        ),
        ("oracle_votes", "Σ oracle_call.votes", seg.oracle_votes),
        (
            "oracle_timeouts",
            "Σ oracle_call.timeouts",
            seg.oracle_timeouts,
        ),
        ("oracle_errors", "Σ oracle_call.errors", seg.oracle_errors),
        (
            "oracle_degraded",
            "Σ oracle_call.degraded",
            seg.oracle_degraded,
        ),
        ("oracle_spent", "Σ oracle_call.spend", seg.oracle_spend),
    ];
    let present = mirror.iter().filter(|f| end.get(f.0).is_some()).count();
    if present == 0 {
        if seg.oracle_calls > 0 {
            return Err(format!(
                "run {run}: segment has {} oracle_call events but run_end carries no oracle ledger",
                seg.oracle_calls
            ));
        }
        return Ok(());
    }
    if present != mirror.len() {
        let missing: Vec<&str> = mirror
            .iter()
            .map(|f| f.0)
            .filter(|f| end.get(f).is_none())
            .collect();
        return Err(format!(
            "run {run}: run_end oracle ledger is partial, missing {missing:?}"
        ));
    }
    for (field, lhs, got) in mirror {
        identity(run, lhs, field, got, end.u64(field).unwrap_or(0))?;
    }
    Ok(())
}

/// Everything [`check_spans`] needs about one span event.
struct SpanNode {
    idx: usize,
    parent: u64,
    op: String,
    start: u64,
    duration: u64,
    /// `start + duration`, checked: a window must end inside `u64`.
    end: u64,
}

/// Reconciles the file's span events: tree structure (unique ids,
/// resolvable acyclic parents, root/child op placement), exact window
/// containment (child window inside parent, Σ direct children ≤
/// parent), and engine linkage (`segment`-carrying spans match their
/// run segment's event sums bit-for-bit).
fn check_spans(
    events: &[OwnedEvent],
    span_indices: &[usize],
    segments: &[EngineTotals],
) -> Result<(), String> {
    use std::collections::HashMap;
    let mut nodes: HashMap<u64, SpanNode> = HashMap::with_capacity(span_indices.len());
    for &idx in span_indices {
        let event = &events[idx];
        let need = |name: &str| -> Result<u64, String> {
            event
                .u64(name)
                .ok_or_else(|| format!("event {idx}: span missing '{name}'"))
        };
        let id = need("span_id")?;
        if id == 0 {
            return Err(format!("event {idx}: span_id must be nonzero"));
        }
        let (start, duration) = (need("start_micros")?, need("duration_micros")?);
        let end = start.checked_add(duration).ok_or_else(|| {
            format!("event {idx}: span window start {start} + duration {duration} overflows u64")
        })?;
        let node = SpanNode {
            idx,
            parent: need("parent_span_id")?,
            op: event.str("op").unwrap_or_default().to_string(),
            start,
            duration,
            end,
        };
        if let Some(dup) = nodes.insert(id, node) {
            return Err(format!(
                "event {idx}: span_id {id} already used by event {}",
                dup.idx
            ));
        }
    }

    let mut child_sums: HashMap<u64, u64> = HashMap::new();
    for (&id, node) in &nodes {
        let is_root_op = SPAN_ROOT_OPS.contains(&node.op.as_str());
        if is_root_op && node.parent != 0 {
            return Err(format!(
                "event {}: root op '{}' has parent_span_id {}",
                node.idx, node.op, node.parent
            ));
        }
        if !is_root_op && node.parent == 0 {
            return Err(format!(
                "event {}: child op '{}' has no parent",
                node.idx, node.op
            ));
        }
        if node.parent == 0 {
            continue;
        }
        let parent = nodes.get(&node.parent).ok_or_else(|| {
            format!(
                "event {}: parent_span_id {} names no span in the trace",
                node.idx, node.parent
            )
        })?;
        // Cycle check: the parent chain of any span must terminate at a
        // root within |spans| steps.
        let mut cursor = node.parent;
        for _ in 0..=nodes.len() {
            match nodes.get(&cursor) {
                None => break, // caught as a dangling parent on its own node
                Some(n) if n.parent == 0 => {
                    cursor = 0;
                    break;
                }
                Some(n) => cursor = n.parent,
            }
        }
        if cursor != 0 && nodes.contains_key(&cursor) {
            return Err(format!(
                "event {}: span {id} sits on a parent cycle",
                node.idx
            ));
        }
        // Exact window containment (shared-origin truncated stamps).
        if node.start < parent.start || node.end > parent.end {
            return Err(format!(
                "event {}: span {id} window [{}, {}] escapes its parent's [{}, {}]",
                node.idx, node.start, node.end, parent.start, parent.end
            ));
        }
        let sum = child_sums.entry(node.parent).or_insert(0);
        *sum = sum.checked_add(node.duration).ok_or_else(|| {
            format!(
                "event {}: Σ child durations of span {} overflows u64",
                node.idx, node.parent
            )
        })?;
    }
    for (parent_id, sum) in &child_sums {
        let parent = &nodes[parent_id];
        if *sum > parent.duration {
            return Err(format!(
                "event {}: Σ child durations {sum} exceeds span {parent_id}'s duration {}",
                parent.idx, parent.duration
            ));
        }
    }

    // Engine linkage: `segment`-carrying spans match their segment's
    // event sums exactly.
    let mut linked: HashMap<(u64, &str), usize> = HashMap::new();
    for &idx in span_indices {
        let event = &events[idx];
        let Some(segment) = event.u64("segment") else {
            continue;
        };
        let op = event.str("op").unwrap_or_default();
        if !matches!(op, "hash_rounds" | "pairwise") {
            return Err(format!(
                "event {idx}: op '{op}' must not carry a 'segment' field"
            ));
        }
        if segment == 0 || segment as usize > segments.len() {
            return Err(format!(
                "event {idx}: segment {segment} out of range 1..={}",
                segments.len()
            ));
        }
        if let Some(prior) = linked.insert((segment, op), idx) {
            return Err(format!(
                "event {idx}: segment {segment} already has a '{op}' span (event {prior})"
            ));
        }
        let sums = &segments[segment as usize - 1];
        let duration = event.u64("duration_micros").unwrap_or(0);
        let mut identities: Vec<(&str, u64, u64)> = Vec::new();
        match op {
            "hash_rounds" => {
                identities.push((
                    "span duration = Σ hash_round.wall_micros",
                    duration,
                    sums.hash_wall_micros,
                ));
                if let Some(v) = event.u64("hash_evals") {
                    identities.push((
                        "span hash_evals = Σ hash_round.hash_evals",
                        v,
                        sums.hash_evals,
                    ));
                }
            }
            _ => {
                identities.push((
                    "span duration = Σ pairwise.wall_micros",
                    duration,
                    sums.pairwise_wall_micros,
                ));
                if let Some(v) = event.u64("pairs") {
                    identities.push(("span pairs = Σ pairwise.pairs", v, sums.pairs));
                }
                if let Some(v) = event.u64("oracle_calls") {
                    identities.push(("span oracle_calls = #oracle_call", v, sums.oracle_calls));
                }
                if let Some(v) = event.u64("oracle_spend") {
                    identities.push((
                        "span oracle_spend = Σ oracle_call.spend",
                        v,
                        sums.oracle_spend,
                    ));
                }
                if let Some(v) = event.u64("oracle_latency_micros") {
                    identities.push((
                        "span oracle_latency_micros = Σ oracle_call.latency_micros",
                        v,
                        sums.oracle_latency_micros,
                    ));
                }
            }
        }
        for (name, got, expected) in identities {
            if got != expected {
                return Err(format!(
                    "event {idx}: span linkage '{name}' violated for segment {segment}: {got} != {expected}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, fields: &[(&str, OwnedValue)]) -> OwnedEvent {
        OwnedEvent {
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
        }
    }

    fn u(v: u64) -> OwnedValue {
        OwnedValue::U64(v)
    }

    fn f(v: f64) -> OwnedValue {
        OwnedValue::F64(v)
    }

    fn s(v: &str) -> OwnedValue {
        OwnedValue::Str(v.to_string())
    }

    /// A minimal but fully consistent segment: one hash round over 3
    /// records, one gate choosing pairwise, one pairwise call in one
    /// block, two finals.
    fn valid_trace() -> Vec<OwnedEvent> {
        vec![
            ev("design_level", &[("level", u(1)), ("budget", u(8))]),
            ev(
                "run_start",
                &[
                    ("records", u(3)),
                    ("k", u(2)),
                    ("levels", u(1)),
                    ("threads", u(1)),
                    ("source", s("ram")),
                ],
            ),
            ev(
                "hash_round",
                &[
                    ("level", u(1)),
                    ("cluster_size", u(3)),
                    ("hash_evals", u(24)),
                    ("keys_emitted", u(6)),
                    ("subclusters", u(2)),
                    ("reused", u(0)),
                    ("wall_micros", u(10)),
                    ("predicted_cost", f(1.5)),
                ],
            ),
            ev(
                "gate",
                &[
                    ("level", u(1)),
                    ("cluster_size", u(2)),
                    ("predicted_pairwise_cost", f(0.5)),
                    ("action", s("pairwise")),
                    ("forced", u(1)),
                ],
            ),
            ev(
                "pairwise",
                &[
                    ("cluster_size", u(2)),
                    ("pairs", u(1)),
                    ("distance_evals", u(1)),
                    ("kernel_checks", u(1)),
                    ("early_exits", u(0)),
                    ("bound_rejects", u(0)),
                    ("blocks", u(1)),
                    ("reused", u(0)),
                    ("subclusters", u(1)),
                    ("wall_micros", u(3)),
                    ("predicted_cost", f(0.5)),
                ],
            ),
            ev(
                "pairwise_block",
                &[
                    ("pairs_open", u(1)),
                    ("pairs_charged", u(1)),
                    ("kernel_checks", u(1)),
                    ("early_exits", u(0)),
                    ("bound_rejects", u(0)),
                    ("wall_micros", u(3)),
                ],
            ),
            ev(
                "final_cluster",
                &[
                    ("rank", u(0)),
                    ("size", u(2)),
                    ("origin", s("pairwise")),
                    ("level", u(0)),
                ],
            ),
            ev(
                "final_cluster",
                &[
                    ("rank", u(1)),
                    ("size", u(1)),
                    ("origin", s("hashed")),
                    ("level", u(1)),
                ],
            ),
            ev(
                "run_end",
                &[
                    ("rounds", u(3)),
                    ("finals", u(2)),
                    ("hash_evals", u(24)),
                    ("distance_evals", u(1)),
                    ("pair_comparisons", u(1)),
                    ("bucket_inserts", u(6)),
                    ("transitive_calls", u(1)),
                    ("transitive_reused", u(0)),
                    ("pairwise_calls", u(1)),
                    ("pairwise_reused", u(0)),
                    ("modeled_cost", f(2.0)),
                    ("wall_micros", u(20)),
                ],
            ),
            ev(
                "online_query",
                &[
                    ("k", u(2)),
                    ("records", u(3)),
                    ("fresh_records", u(3)),
                    ("advanced_records", u(3)),
                    ("hash_evals", u(24)),
                    ("wall_micros", u(25)),
                ],
            ),
        ]
    }

    fn set(events: &mut [OwnedEvent], name: &str, field: &str, value: OwnedValue) {
        let event = events.iter_mut().find(|e| e.name == name).unwrap();
        let slot = event.fields.iter_mut().find(|(n, _)| n == field).unwrap();
        slot.1 = value;
    }

    /// `level_built` rides inside a run segment, after the round that
    /// built the level, and reconciles with nothing: the counters stay
    /// the hash rounds'.
    #[test]
    fn level_built_is_a_run_event() {
        let built = ev(
            "level_built",
            &[
                ("level", u(1)),
                ("functions", u(24)),
                ("bytes", u(6144)),
                ("build_micros", u(40)),
            ],
        );
        let mut t = valid_trace();
        let round = t.iter().position(|e| e.name == "hash_round").unwrap();
        t.insert(round + 1, built.clone());
        assert!(validate(&t).is_ok(), "{:?}", validate(&t));

        let mut outside = valid_trace();
        outside.insert(0, built.clone());
        let err = validate(&outside).unwrap_err();
        assert!(err.contains("'level_built' outside a run segment"), "{err}");

        let mut missing = built;
        missing.fields.retain(|(name, _)| name != "bytes");
        t[round + 1] = missing;
        let err = validate(&t).unwrap_err();
        assert!(err.contains("bytes"), "{err}");
    }

    #[test]
    fn valid_trace_passes() {
        let report = validate(&valid_trace()).unwrap();
        assert_eq!(report.runs, 1);
        assert_eq!(report.events, 10);
    }

    #[test]
    fn empty_trace_is_valid_with_zero_runs() {
        assert_eq!(validate(&[]).unwrap().runs, 0);
    }

    #[test]
    fn each_counter_identity_is_enforced() {
        for (field, message) in [
            ("hash_evals", "hash_evals"),
            ("bucket_inserts", "keys_emitted"),
            ("transitive_calls", "transitive_calls"),
            ("transitive_reused", "transitive_reused"),
            ("pairwise_calls", "pairwise_calls"),
            ("pairwise_reused", "pairwise_reused"),
            ("pair_comparisons", "pair_comparisons"),
            ("distance_evals", "distance_evals"),
            ("rounds", "rounds"),
            ("finals", "finals"),
        ] {
            let mut t = valid_trace();
            set(&mut t, "run_end", field, u(999));
            let err = validate(&t).unwrap_err();
            assert!(err.contains(message), "field {field}: {err}");
        }
    }

    #[test]
    fn memo_reuse_reconciles_with_pairwise_reused() {
        let mut t = valid_trace();
        set(&mut t, "pairwise", "reused", u(2));
        let err = validate(&t).unwrap_err();
        assert!(err.contains("pairwise_reused"), "{err}");
        set(&mut t, "run_end", "pairwise_reused", u(1));
        validate(&t).unwrap();
    }

    #[test]
    fn memo_reuse_reconciles_with_transitive_reused() {
        let mut t = valid_trace();
        set(&mut t, "hash_round", "reused", u(3));
        let err = validate(&t).unwrap_err();
        assert!(err.contains("transitive_reused"), "{err}");
        set(&mut t, "run_end", "transitive_reused", u(1));
        validate(&t).unwrap();
    }

    #[test]
    fn modeled_cost_must_be_bit_identical() {
        let mut t = valid_trace();
        set(&mut t, "run_end", "modeled_cost", f(2.0 + 1e-13));
        assert!(validate(&t).unwrap_err().contains("bit-identical"));
    }

    #[test]
    fn bound_rejects_nest_inside_early_exits_inside_checks() {
        // Bound rejects without early exits, on both events so the block
        // totals still reconcile.
        let mut t = valid_trace();
        for name in ["pairwise", "pairwise_block"] {
            set(&mut t, name, "bound_rejects", u(1));
        }
        let err = validate(&t).unwrap_err();
        assert!(
            err.contains("bound_rejects <= early_exits <= kernel_checks"),
            "{err}"
        );
        // More early exits than kernel checks.
        let mut t = valid_trace();
        for name in ["pairwise", "pairwise_block"] {
            set(&mut t, name, "early_exits", u(2));
        }
        let err = validate(&t).unwrap_err();
        assert!(err.contains("kernel_checks"), "{err}");
        // One check, exited early on the bound: consistent.
        let mut t = valid_trace();
        for name in ["pairwise", "pairwise_block"] {
            set(&mut t, name, "early_exits", u(1));
            set(&mut t, name, "bound_rejects", u(1));
        }
        validate(&t).unwrap();
        // A block whose bound count disagrees with its parent's.
        set(&mut t, "pairwise_block", "bound_rejects", u(0));
        let err = validate(&t).unwrap_err();
        assert!(err.contains("Σ pairwise_block.bound_rejects"), "{err}");
    }

    #[test]
    fn block_totals_must_match_their_parents() {
        let mut t = valid_trace();
        set(&mut t, "pairwise_block", "kernel_checks", u(5));
        assert!(validate(&t).unwrap_err().contains("kernel_checks"));
        let mut t = valid_trace();
        set(&mut t, "pairwise", "blocks", u(7));
        assert!(validate(&t).unwrap_err().contains("blocks"));
    }

    #[test]
    fn structure_violations_are_rejected() {
        // Run-scoped event outside a segment.
        let t = vec![valid_trace()[2].clone()];
        assert!(validate(&t).unwrap_err().contains("outside a run segment"));
        // Unterminated segment.
        let t = vec![valid_trace()[1].clone()];
        assert!(validate(&t).unwrap_err().contains("unterminated"));
        // Nested run_start.
        let t = vec![valid_trace()[1].clone(), valid_trace()[1].clone()];
        assert!(validate(&t).unwrap_err().contains("nested"));
    }

    #[test]
    fn field_schema_is_enforced() {
        // Unknown event.
        let t = vec![ev("mystery", &[])];
        assert!(validate(&t).unwrap_err().contains("unknown event"));
        // Unknown field.
        let mut t = valid_trace();
        t[1].fields.push(("extra".into(), u(1)));
        assert!(validate(&t).unwrap_err().contains("unknown field"));
        // Missing required field.
        let mut t = valid_trace();
        t[1].fields.retain(|(n, _)| n != "k");
        assert!(validate(&t).unwrap_err().contains("missing required"));
        // Wrong kind.
        let mut t = valid_trace();
        set(&mut t, "run_start", "k", s("two"));
        assert!(validate(&t).unwrap_err().contains("schema says"));
        // Bad enums.
        let mut t = valid_trace();
        set(&mut t, "gate", "action", s("maybe"));
        assert!(validate(&t).unwrap_err().contains("action"));
        let mut t = valid_trace();
        set(&mut t, "gate", "forced", u(2));
        assert!(validate(&t).unwrap_err().contains("forced"));
    }

    #[test]
    fn integral_f64_field_accepts_u64_wire_value() {
        let mut t = valid_trace();
        // modeled_cost 2.0 written as "2" reads back as U64(2).
        set(&mut t, "run_end", "modeled_cost", u(2));
        validate(&t).unwrap();
    }

    #[test]
    fn multiple_segments_validate_independently() {
        let mut t = valid_trace();
        t.extend(valid_trace());
        assert_eq!(validate(&t).unwrap().runs, 2);
    }

    /// `valid_trace()` with one `oracle_call` inside the segment and the
    /// matching ledger mirror on `run_end`.
    fn valid_oracle_trace() -> Vec<OwnedEvent> {
        let mut t = valid_trace();
        let call = ev(
            "oracle_call",
            &[
                ("attempts", u(3)),
                ("retries", u(2)),
                ("votes", u(0)),
                ("timeouts", u(1)),
                ("errors", u(1)),
                ("spend", u(3)),
                ("degraded", u(0)),
                ("matched", u(1)),
                ("latency_micros", u(500)),
            ],
        );
        // Insert just after the pairwise_block, still inside the segment.
        let at = t.iter().position(|e| e.name == "pairwise_block").unwrap() + 1;
        t.insert(at, call);
        let end = t.iter_mut().find(|e| e.name == "run_end").unwrap();
        end.fields.extend([
            ("oracle_calls".to_string(), u(1)),
            ("oracle_attempts".to_string(), u(3)),
            ("oracle_retries".to_string(), u(2)),
            ("oracle_votes".to_string(), u(0)),
            ("oracle_timeouts".to_string(), u(1)),
            ("oracle_errors".to_string(), u(1)),
            ("oracle_degraded".to_string(), u(0)),
            ("oracle_spent".to_string(), u(3)),
        ]);
        t
    }

    #[test]
    fn oracle_segment_reconciles() {
        assert_eq!(validate(&valid_oracle_trace()).unwrap().runs, 1);
    }

    #[test]
    fn each_oracle_identity_is_enforced() {
        for field in [
            "oracle_calls",
            "oracle_attempts",
            "oracle_retries",
            "oracle_votes",
            "oracle_timeouts",
            "oracle_errors",
            "oracle_degraded",
            "oracle_spent",
        ] {
            let mut t = valid_oracle_trace();
            set(&mut t, "run_end", field, u(999));
            let err = validate(&t).unwrap_err();
            assert!(err.contains(field), "field {field}: {err}");
        }
    }

    #[test]
    fn oracle_calls_without_run_end_ledger_are_rejected() {
        let mut t = valid_oracle_trace();
        let end = t.iter_mut().find(|e| e.name == "run_end").unwrap();
        end.fields.retain(|(n, _)| !n.starts_with("oracle_"));
        assert!(validate(&t).unwrap_err().contains("no oracle ledger"));
    }

    #[test]
    fn partial_oracle_ledger_is_rejected() {
        let mut t = valid_oracle_trace();
        let end = t.iter_mut().find(|e| e.name == "run_end").unwrap();
        end.fields.retain(|(n, _)| n != "oracle_spent");
        assert!(validate(&t).unwrap_err().contains("partial"));
    }

    #[test]
    fn oracle_call_outside_a_segment_is_valid() {
        // The recovery process adjudicates between runs; its calls are
        // segment-free and not reconciled.
        let call = valid_oracle_trace()
            .into_iter()
            .find(|e| e.name == "oracle_call")
            .unwrap();
        let mut t = valid_trace();
        t.push(call);
        assert_eq!(validate(&t).unwrap().runs, 1);
    }

    #[test]
    fn oracle_call_flags_must_be_binary() {
        for flag in ["degraded", "matched"] {
            let mut t = valid_oracle_trace();
            set(&mut t, "oracle_call", flag, u(2));
            let err = validate(&t).unwrap_err();
            assert!(err.contains(flag), "flag {flag}: {err}");
        }
    }

    fn span_ev(id: u64, parent: u64, op: &str, start: u64, dur: u64) -> OwnedEvent {
        ev(
            "span",
            &[
                ("span_id", u(id)),
                ("parent_span_id", u(parent)),
                ("op", s(op)),
                ("start_micros", u(start)),
                ("duration_micros", u(dur)),
            ],
        )
    }

    /// `valid_trace()` plus a consistent span tree over its one segment:
    /// a `filter_run` root, a `resolve` child, and engine-derived
    /// `hash_rounds` / `pairwise` grandchildren linked to segment 1
    /// (whose event sums are hash wall 10 / evals 24, pairwise wall 3 /
    /// pairs 1).
    fn valid_span_trace() -> Vec<OwnedEvent> {
        let mut t = valid_trace();
        let mut hash = span_ev(3, 2, "hash_rounds", 10, 10);
        hash.fields.extend([
            ("segment".to_string(), u(1)),
            ("hash_evals".to_string(), u(24)),
        ]);
        let mut pair = span_ev(4, 2, "pairwise", 20, 3);
        pair.fields
            .extend([("segment".to_string(), u(1)), ("pairs".to_string(), u(1))]);
        t.extend([
            hash,
            pair,
            span_ev(2, 1, "resolve", 10, 40),
            span_ev(1, 0, "filter_run", 0, 100),
        ]);
        t
    }

    #[test]
    fn valid_span_tree_passes() {
        let report = validate(&valid_span_trace()).unwrap();
        assert_eq!(report.runs, 1);
    }

    #[test]
    fn span_ids_must_be_nonzero_and_unique() {
        let mut t = valid_span_trace();
        t.push(span_ev(0, 0, "topk_query", 0, 1));
        assert!(validate(&t).unwrap_err().contains("nonzero"));
        let mut t = valid_span_trace();
        t.push(span_ev(1, 0, "topk_query", 0, 1));
        assert!(validate(&t).unwrap_err().contains("already used"));
    }

    #[test]
    fn span_parent_must_resolve() {
        let mut t = valid_span_trace();
        t.push(span_ev(9, 77, "publish", 0, 1));
        assert!(validate(&t).unwrap_err().contains("names no span"));
    }

    #[test]
    fn span_parent_cycles_are_rejected() {
        let mut t = valid_trace();
        t.push(span_ev(10, 11, "publish", 0, 1));
        t.push(span_ev(11, 10, "publish", 0, 1));
        assert!(validate(&t).unwrap_err().contains("cycle"));
    }

    #[test]
    fn span_root_and_child_op_placement_is_enforced() {
        // A root op must not have a parent.
        let mut t = valid_span_trace();
        t.push(span_ev(9, 1, "topk_query", 0, 1));
        assert!(validate(&t).unwrap_err().contains("root op"));
        // A child op must have one.
        let mut t = valid_span_trace();
        t.push(span_ev(9, 0, "publish", 0, 1));
        assert!(validate(&t).unwrap_err().contains("has no parent"));
        // And the op set is closed.
        let mut t = valid_span_trace();
        t.push(span_ev(9, 0, "mystery_op", 0, 1));
        assert!(validate(&t).unwrap_err().contains("unknown span op"));
    }

    #[test]
    fn span_child_window_must_fit_inside_its_parent() {
        // Starts before the parent.
        let mut t = valid_span_trace();
        t.push(span_ev(9, 2, "publish", 5, 1));
        assert!(validate(&t).unwrap_err().contains("escapes"));
        // Ends after the parent.
        let mut t = valid_span_trace();
        t.push(span_ev(9, 1, "publish", 90, 20));
        assert!(validate(&t).unwrap_err().contains("escapes"));
    }

    #[test]
    fn span_children_must_not_outsum_their_parent() {
        // Two direct children of the root, each 60 of its 100: both
        // windows fit individually but their sum exceeds the parent.
        let mut t = valid_span_trace();
        t.push(span_ev(9, 1, "publish", 0, 60));
        t.push(span_ev(10, 1, "queue_wait", 30, 60));
        assert!(validate(&t).unwrap_err().contains("Σ child durations"));
    }

    /// Windows near `u64::MAX` must not wrap past the containment and
    /// Σ-children checks: each overflow is an error naming its event.
    #[test]
    fn span_window_overflow_is_rejected() {
        // A child whose end wraps to 4 would sit inside [0, 100].
        let mut t = valid_span_trace();
        t.push(span_ev(9, 1, "publish", u64::MAX - 5, 10));
        let at = t.len() - 1;
        let err = validate(&t).unwrap_err();
        assert!(err.starts_with(&format!("event {at}: ")), "{err}");
        assert!(err.contains("overflows u64"), "{err}");
        // Two children that each fit a full-range root, whose durations
        // sum past u64::MAX.
        let mut t = valid_trace();
        t.push(span_ev(20, 0, "topk_query", 0, u64::MAX));
        t.push(span_ev(21, 20, "publish", 0, u64::MAX));
        t.push(span_ev(22, 20, "queue_wait", 0, u64::MAX));
        let err = validate(&t).unwrap_err();
        assert!(
            err.contains("Σ child durations of span 20 overflows u64"),
            "{err}"
        );
    }

    #[test]
    fn span_segment_linkage_is_exact() {
        // Wrong duration for the segment's hash wall.
        let mut t = valid_span_trace();
        let hash = t
            .iter_mut()
            .find(|e| e.name == "span" && e.str("op") == Some("hash_rounds"))
            .unwrap();
        let slot = hash
            .fields
            .iter_mut()
            .find(|(n, _)| n == "duration_micros")
            .unwrap();
        slot.1 = u(9);
        assert!(validate(&t).unwrap_err().contains("wall_micros"));
        // Wrong hash_evals attribution.
        let mut t = valid_span_trace();
        let hash = t
            .iter_mut()
            .find(|e| e.name == "span" && e.str("op") == Some("hash_rounds"))
            .unwrap();
        let slot = hash
            .fields
            .iter_mut()
            .find(|(n, _)| n == "hash_evals")
            .unwrap();
        slot.1 = u(23);
        assert!(validate(&t).unwrap_err().contains("hash_evals"));
    }

    #[test]
    fn span_segment_field_is_restricted_and_ranged() {
        // Only hash_rounds / pairwise may carry `segment`.
        let mut t = valid_span_trace();
        let resolve = t
            .iter_mut()
            .find(|e| e.name == "span" && e.str("op") == Some("resolve"))
            .unwrap();
        resolve.fields.push(("segment".to_string(), u(1)));
        assert!(validate(&t).unwrap_err().contains("must not carry"));
        // Out-of-range segment index.
        let mut t = valid_span_trace();
        let hash = t
            .iter_mut()
            .find(|e| e.name == "span" && e.str("op") == Some("hash_rounds"))
            .unwrap();
        let slot = hash
            .fields
            .iter_mut()
            .find(|(n, _)| n == "segment")
            .unwrap();
        slot.1 = u(2);
        assert!(validate(&t).unwrap_err().contains("out of range"));
        // One engine-derived span per op per segment.
        let mut t = valid_span_trace();
        let mut dup = span_ev(9, 2, "pairwise", 24, 3);
        dup.fields.push(("segment".to_string(), u(1)));
        t.push(dup);
        assert!(validate(&t).unwrap_err().contains("already has"));
    }
}
