//! Folds the engine's own trace events into per-layer totals.
//!
//! The engine already emits one `hash_round` event per transitive
//! hashing call `H_level`, one `pairwise` event per `P` call and one
//! `run_end` per run (see `adalsh_obs::schema`); this module only sums
//! them, split the way the layer metrics need: `H₁` (the level-1 sweep
//! over every record) apart from the deeper levels `H≥2`, and `P`.
//! The same fold reads a batch workload's traced run and every resolve
//! pass a traced server made, so both report identical quantities.

use std::path::Path;

use adalsh_obs::trace::OwnedValue;
use adalsh_obs::{Event, JsonlSubscriber, OwnedEvent, Subscriber, Value};

use crate::Report;

/// Engine work summed over every run segment in a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineTotals {
    /// Run segments (`run_end` events): one per batch run or per
    /// resolve pass of a server.
    pub runs: u64,
    /// Σ `run_end.wall_micros`.
    pub run_micros: u64,
    /// Σ `run_end.rounds`.
    pub rounds: u64,
    /// Level-1 hashing: wall, records hashed.
    pub h1_micros: u64,
    pub h1_records: u64,
    /// Level ≥ 2 hashing: wall, records hashed.
    pub hn_micros: u64,
    pub hn_records: u64,
    pub hash_evals: u64,
    pub keys_emitted: u64,
    /// Σ `hash_round.predicted_cost` (Def. 3 modeled units).
    pub hash_modeled: f64,
    /// Pairwise `P`: wall, charged pairs, distance kernel work.
    pub p_micros: u64,
    pub pairs: u64,
    pub distance_evals: u64,
    pub kernel_checks: u64,
    pub early_exits: u64,
    /// Σ `pairwise.predicted_cost` (Def. 3 modeled units).
    pub p_modeled: f64,
    /// Line-5 gate decisions, and how many jumped to `P`.
    pub gates: u64,
    pub gates_pairwise: u64,
}

/// Sums the engine events of `events`; other events are ignored.
pub fn fold(events: &[OwnedEvent]) -> EngineTotals {
    let mut t = EngineTotals::default();
    for e in events {
        let u = |name: &str| e.u64(name).unwrap_or(0);
        match e.name.as_str() {
            "hash_round" => {
                if u("level") <= 1 {
                    t.h1_micros += u("wall_micros");
                    t.h1_records += u("cluster_size");
                } else {
                    t.hn_micros += u("wall_micros");
                    t.hn_records += u("cluster_size");
                }
                t.hash_evals += u("hash_evals");
                t.keys_emitted += u("keys_emitted");
                t.hash_modeled += e.f64("predicted_cost").unwrap_or(0.0);
            }
            "pairwise" => {
                t.p_micros += u("wall_micros");
                t.pairs += u("pairs");
                t.distance_evals += u("distance_evals");
                t.kernel_checks += u("kernel_checks");
                t.early_exits += u("early_exits");
                t.p_modeled += e.f64("predicted_cost").unwrap_or(0.0);
            }
            "gate" => {
                t.gates += 1;
                t.gates_pairwise += u64::from(e.str("action") == Some("pairwise"));
            }
            "run_end" => {
                t.runs += 1;
                t.run_micros += u("wall_micros");
                t.rounds += u("rounds");
            }
            _ => {}
        }
    }
    t
}

/// `num / den`, or 0 when there is nothing to divide by (a layer that
/// did no work on this workload costs nothing per unit).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl EngineTotals {
    /// Run wall not spent in `H` or `P` (cluster bookkeeping, gating,
    /// bucket tables), seconds. Negative would mean the engine's own
    /// round walls overlap, which the benchmark checks never happens.
    pub fn self_s(&self) -> f64 {
        (self.run_micros as f64 - (self.h1_micros + self.hn_micros + self.p_micros) as f64) / 1e6
    }

    /// Records the engine's per-layer metrics.
    pub fn report(&self, report: &mut Report) {
        let h1_ns = self.h1_micros as f64 * 1e3;
        let hn_ns = self.hn_micros as f64 * 1e3;
        let p_ns = self.p_micros as f64 * 1e3;
        let hash_ns = h1_ns + hn_ns;
        let metrics = [
            ("core.runs", self.runs as f64),
            ("core.h1_s", self.h1_micros as f64 / 1e6),
            ("core.hn_s", self.hn_micros as f64 / 1e6),
            ("core.p_s", self.p_micros as f64 / 1e6),
            ("core.resolve_self_s", self.self_s()),
            ("core.rounds", self.rounds as f64),
            (
                "core.gate_pairwise_frac",
                ratio(self.gates_pairwise as f64, self.gates as f64),
            ),
            ("core.hash_evals", self.hash_evals as f64),
            ("core.keys_emitted", self.keys_emitted as f64),
            ("core.pair_comparisons", self.pairs as f64),
            ("data.distance_evals", self.distance_evals as f64),
            (
                "data.early_exit_ratio",
                ratio(self.early_exits as f64, self.kernel_checks as f64),
            ),
            (
                "lsh.ns_per_hash_eval",
                ratio(hash_ns, self.hash_evals as f64),
            ),
            (
                "core.h1_ns_per_record",
                ratio(h1_ns, self.h1_records as f64),
            ),
            (
                "core.hn_ns_per_record",
                ratio(hn_ns, self.hn_records as f64),
            ),
            ("core.p_ns_per_pair", ratio(p_ns, self.pairs as f64)),
            (
                "core.h_ns_per_modeled_unit",
                ratio(hash_ns, self.hash_modeled),
            ),
            ("core.p_ns_per_modeled_unit", ratio(p_ns, self.p_modeled)),
        ];
        for (name, value) in metrics {
            report.put(name, value, self.runs as usize);
        }
    }
}

/// Writes events as trace JSONL, the format `adalsh trace` reads.
pub fn write_events(path: &Path, events: &[OwnedEvent]) -> Result<(), String> {
    let out =
        JsonlSubscriber::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    for event in events {
        let fields: Vec<(&str, Value<'_>)> = event
            .fields
            .iter()
            .map(|(name, value)| {
                let value = match value {
                    OwnedValue::U64(v) => Value::U64(*v),
                    OwnedValue::F64(v) => Value::F64(*v),
                    OwnedValue::Str(v) => Value::Str(v),
                };
                (name.as_str(), value)
            })
            .collect();
        out.event(&Event {
            name: &event.name,
            fields: &fields,
        });
    }
    out.flush();
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

    fn round(level: u64, size: u64, wall: u64) -> OwnedEvent {
        ev(
            "hash_round",
            &[
                ("level", OwnedValue::U64(level)),
                ("cluster_size", OwnedValue::U64(size)),
                ("hash_evals", OwnedValue::U64(size * 4)),
                ("keys_emitted", OwnedValue::U64(size)),
                ("wall_micros", OwnedValue::U64(wall)),
                ("predicted_cost", OwnedValue::F64(0.5)),
            ],
        )
    }

    #[test]
    fn splits_level_one_from_deeper_levels_and_sums_p() {
        let events = vec![
            ev("run_start", &[]),
            round(1, 100, 50),
            round(2, 10, 7),
            round(3, 5, 3),
            ev("gate", &[("action", OwnedValue::Str("pairwise".into()))]),
            ev("gate", &[("action", OwnedValue::Str("hash".into()))]),
            ev(
                "pairwise",
                &[
                    ("pairs", OwnedValue::U64(10)),
                    ("distance_evals", OwnedValue::U64(10)),
                    ("kernel_checks", OwnedValue::U64(10)),
                    ("early_exits", OwnedValue::U64(4)),
                    ("wall_micros", OwnedValue::U64(20)),
                    ("predicted_cost", OwnedValue::F64(2.0)),
                ],
            ),
            ev(
                "run_end",
                &[
                    ("wall_micros", OwnedValue::U64(100)),
                    ("rounds", OwnedValue::U64(6)),
                ],
            ),
        ];
        let t = fold(&events);
        assert_eq!((t.h1_micros, t.h1_records), (50, 100));
        assert_eq!((t.hn_micros, t.hn_records), (10, 15));
        assert_eq!(t.hash_evals, 460);
        assert_eq!(t.hash_modeled, 1.5);
        assert_eq!((t.p_micros, t.pairs, t.early_exits), (20, 10, 4));
        assert_eq!((t.gates, t.gates_pairwise), (2, 1));
        assert_eq!((t.runs, t.rounds), (1, 6));
        assert!((t.self_s() - 20e-6).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
