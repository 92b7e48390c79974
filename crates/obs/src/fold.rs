//! The one fold of the engine's trace events into totals.
//!
//! [`crate::schema::validate`] folds each run segment and checks the
//! totals against its `run_end` and the spans linked to it;
//! [`crate::summary::summarize`] folds the whole trace, and each level's
//! `hash_round`s apart; [`crate::span::SpanCollector`] folds the
//! events of each segment that [`crate::span::Spans::record_segment`]'s
//! child spans attribute, as the engine emits them. Live
//! [`Event`]s and [`OwnedEvent`]s read from files fold alike through
//! [`EventFields`], so the subscriber path copies nothing, and the
//! totals hold no heap memory. A missing or mistyped field counts as 0.

use crate::trace::{Event, OwnedEvent, OwnedValue, Value};

/// Field access shared by borrowed and owned events.
pub trait EventFields {
    /// The event name.
    fn name(&self) -> &str;
    /// A field's value, if present.
    fn value(&self, field: &str) -> Option<Value<'_>>;
}

impl EventFields for Event<'_> {
    fn name(&self) -> &str {
        self.name
    }
    fn value(&self, field: &str) -> Option<Value<'_>> {
        self.get(field)
    }
}

impl EventFields for OwnedEvent {
    fn name(&self) -> &str {
        &self.name
    }
    fn value(&self, field: &str) -> Option<Value<'_>> {
        Some(match self.get(field)? {
            OwnedValue::U64(v) => Value::U64(*v),
            OwnedValue::F64(v) => Value::F64(*v),
            OwnedValue::Str(v) => Value::Str(v),
        })
    }
}

/// The engine event kinds the fold reads (see [`crate::schema`]);
/// `design_level` and `span` are not among them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    RunStart,
    HashRound,
    LevelBuilt,
    Gate,
    Pairwise,
    PairwiseBlock,
    FinalCluster,
    OracleCall,
    RunEnd,
    OnlineQuery,
}

impl EngineEvent {
    /// The kind named `name`, or `None` for any other event.
    pub fn of(name: &str) -> Option<Self> {
        Some(match name {
            "run_start" => Self::RunStart,
            "hash_round" => Self::HashRound,
            "level_built" => Self::LevelBuilt,
            "gate" => Self::Gate,
            "pairwise" => Self::Pairwise,
            "pairwise_block" => Self::PairwiseBlock,
            "final_cluster" => Self::FinalCluster,
            "oracle_call" => Self::OracleCall,
            "run_end" => Self::RunEnd,
            "online_query" => Self::OnlineQuery,
            _ => return None,
        })
    }
}

/// Totals of the engine events folded so far: one segment, one level or
/// a whole trace, as the caller feeds them. `#x` is the number of `x`
/// events, `Σ f` the sum of their field `f`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineTotals {
    /// `hash_round`: #, # with `reused > 0` (seeded from a memo
    /// partition), Σ `cluster_size`, Σ `reused`, Σ `hash_evals`,
    /// Σ `keys_emitted`, Σ `wall_micros`, Σ `predicted_cost`.
    pub hash_rounds: u64,
    pub hash_reused: u64,
    pub hash_records: u64,
    pub hash_reused_records: u64,
    pub hash_evals: u64,
    pub keys_emitted: u64,
    pub hash_wall_micros: u64,
    pub hash_cost: f64,
    /// `level_built`: Σ `functions`, Σ `bytes`, Σ `build_micros`.
    pub normals_functions: u64,
    pub normals_bytes: u64,
    pub normals_build_micros: u64,
    /// `gate`: # with action `pairwise`, # with any other, Σ `forced`.
    pub gates_pairwise: u64,
    pub gates_hash: u64,
    pub gates_forced: u64,
    /// `pairwise`: #, # with `reused > 0`, Σ `cluster_size`, Σ `reused`,
    /// Σ `pairs`, Σ `distance_evals`, Σ `kernel_checks`,
    /// Σ `early_exits`, Σ `bound_rejects`, Σ `blocks`, Σ `wall_micros`,
    /// Σ `predicted_cost`.
    pub pairwise_calls: u64,
    pub pairwise_reused: u64,
    pub pairwise_records: u64,
    pub pairwise_reused_records: u64,
    pub pairs: u64,
    pub distance_evals: u64,
    pub kernel_checks: u64,
    pub early_exits: u64,
    pub bound_rejects: u64,
    pub blocks: u64,
    pub pairwise_wall_micros: u64,
    pub pairwise_cost: f64,
    /// `pairwise_block`: #, Σ `pairs_charged`, Σ `kernel_checks`,
    /// Σ `early_exits`, Σ `bound_rejects`.
    pub block_events: u64,
    pub block_pairs_charged: u64,
    pub block_kernel_checks: u64,
    pub block_early_exits: u64,
    pub block_bound_rejects: u64,
    /// #`final_cluster`.
    pub final_clusters: u64,
    /// `predicted_cost` of `hash_round` and `pairwise` events as one
    /// `f64` summed in event order, the additions the engine charges
    /// `modeled_cost` with; `hash_cost + pairwise_cost` may differ in
    /// the last bits.
    pub predicted_cost: f64,
    /// `oracle_call`: #, Σ `attempts`, Σ `retries`, Σ `votes`,
    /// Σ `timeouts`, Σ `errors`, Σ `degraded`, Σ `spend`,
    /// Σ `latency_micros` (modeled, not wall time).
    pub oracle_calls: u64,
    pub oracle_attempts: u64,
    pub oracle_retries: u64,
    pub oracle_votes: u64,
    pub oracle_timeouts: u64,
    pub oracle_errors: u64,
    pub oracle_degraded: u64,
    pub oracle_spend: u64,
    pub oracle_latency_micros: u64,
    /// `run_end`: #, Σ `rounds`, Σ `finals`, Σ `wall_micros`,
    /// Σ `modeled_cost`.
    pub runs: u64,
    pub rounds: u64,
    pub finals: u64,
    pub run_wall_micros: u64,
    pub modeled_cost: f64,
    /// `online_query`: #, Σ `fresh_records`, Σ `advanced_records`,
    /// Σ `hash_evals`.
    pub queries: u64,
    pub query_fresh_records: u64,
    pub query_advanced_records: u64,
    pub query_hash_evals: u64,
}

impl EngineTotals {
    /// Folds `event` if it is an engine event, and says which kind it
    /// was.
    pub fn add(&mut self, event: &impl EventFields) -> Option<EngineEvent> {
        let kind = EngineEvent::of(event.name())?;
        self.fold(kind, event);
        Some(kind)
    }

    /// Folds `event`, already known to be of kind `kind`.
    pub fn fold(&mut self, kind: EngineEvent, event: &impl EventFields) {
        let u = |field: &str| match event.value(field) {
            Some(Value::U64(v)) => v,
            _ => 0,
        };
        let f = |field: &str| match event.value(field) {
            Some(Value::F64(v)) => v,
            Some(Value::U64(v)) => v as f64,
            _ => 0.0,
        };
        match kind {
            EngineEvent::RunStart => {}
            EngineEvent::HashRound => {
                let (reused, cost) = (u("reused"), f("predicted_cost"));
                self.hash_rounds += 1;
                self.hash_reused += u64::from(reused > 0);
                self.hash_records += u("cluster_size");
                self.hash_reused_records += reused;
                self.hash_evals += u("hash_evals");
                self.keys_emitted += u("keys_emitted");
                self.hash_wall_micros += u("wall_micros");
                self.hash_cost += cost;
                self.predicted_cost += cost;
            }
            EngineEvent::LevelBuilt => {
                self.normals_functions += u("functions");
                self.normals_bytes += u("bytes");
                self.normals_build_micros += u("build_micros");
            }
            EngineEvent::Gate => {
                if event.value("action") == Some(Value::Str("pairwise")) {
                    self.gates_pairwise += 1;
                } else {
                    self.gates_hash += 1;
                }
                self.gates_forced += u("forced");
            }
            EngineEvent::Pairwise => {
                let (reused, cost) = (u("reused"), f("predicted_cost"));
                self.pairwise_calls += 1;
                self.pairwise_reused += u64::from(reused > 0);
                self.pairwise_records += u("cluster_size");
                self.pairwise_reused_records += reused;
                self.pairs += u("pairs");
                self.distance_evals += u("distance_evals");
                self.kernel_checks += u("kernel_checks");
                self.early_exits += u("early_exits");
                self.bound_rejects += u("bound_rejects");
                self.blocks += u("blocks");
                self.pairwise_wall_micros += u("wall_micros");
                self.pairwise_cost += cost;
                self.predicted_cost += cost;
            }
            EngineEvent::PairwiseBlock => {
                self.block_events += 1;
                self.block_pairs_charged += u("pairs_charged");
                self.block_kernel_checks += u("kernel_checks");
                self.block_early_exits += u("early_exits");
                self.block_bound_rejects += u("bound_rejects");
            }
            EngineEvent::FinalCluster => self.final_clusters += 1,
            EngineEvent::OracleCall => {
                self.oracle_calls += 1;
                self.oracle_attempts += u("attempts");
                self.oracle_retries += u("retries");
                self.oracle_votes += u("votes");
                self.oracle_timeouts += u("timeouts");
                self.oracle_errors += u("errors");
                self.oracle_degraded += u("degraded");
                self.oracle_spend += u("spend");
                self.oracle_latency_micros += u("latency_micros");
            }
            EngineEvent::RunEnd => {
                self.runs += 1;
                self.rounds += u("rounds");
                self.finals += u("finals");
                self.run_wall_micros += u("wall_micros");
                self.modeled_cost += f("modeled_cost");
            }
            EngineEvent::OnlineQuery => {
                self.queries += 1;
                self.query_fresh_records += u("fresh_records");
                self.query_advanced_records += u("advanced_records");
                self.query_hash_evals += u("hash_evals");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{OwnedValue, Value};

    /// A borrowed event and its owned copy fold to the same totals, and
    /// events outside the engine's kinds fold to nothing.
    #[test]
    fn borrowed_and_owned_events_fold_alike() {
        let fields = [
            ("level", Value::U64(2)),
            ("cluster_size", Value::U64(12)),
            ("hash_evals", Value::U64(96)),
            ("keys_emitted", Value::U64(24)),
            ("reused", Value::U64(5)),
            ("wall_micros", Value::U64(40)),
            ("predicted_cost", Value::F64(1.25)),
        ];
        let event = Event {
            name: "hash_round",
            fields: &fields,
        };
        let mut live = EngineTotals::default();
        assert_eq!(live.add(&event), Some(EngineEvent::HashRound));
        let mut owned = EngineTotals::default();
        assert_eq!(
            owned.add(&OwnedEvent::from(&event)),
            Some(EngineEvent::HashRound)
        );
        assert_eq!(live, owned);
        assert_eq!(
            (live.hash_rounds, live.hash_reused, live.hash_reused_records),
            (1, 1, 5)
        );
        assert_eq!((live.hash_cost, live.predicted_cost), (1.25, 1.25));

        let span = OwnedEvent {
            name: "span".into(),
            fields: vec![("duration_micros".into(), OwnedValue::U64(9))],
        };
        assert_eq!(owned.add(&span), None);
        assert_eq!(live, owned);
    }

    /// `predicted_cost` is one sum in event order, which the per-kind
    /// sums added afterwards need not reproduce bit for bit.
    #[test]
    fn predicted_cost_is_summed_in_event_order() {
        let cost = |name: &str, c: f64| OwnedEvent {
            name: name.into(),
            fields: vec![("predicted_cost".into(), OwnedValue::F64(c))],
        };
        let mut t = EngineTotals::default();
        for event in [
            cost("hash_round", 0.1),
            cost("pairwise", 0.2),
            cost("hash_round", 3.0),
        ] {
            t.add(&event);
        }
        assert_eq!(t.predicted_cost.to_bits(), ((0.1 + 0.2) + 3.0f64).to_bits());
        assert_ne!(
            (t.hash_cost + t.pairwise_cost).to_bits(),
            t.predicted_cost.to_bits()
        );
    }
}
