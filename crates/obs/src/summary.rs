//! Renders a trace into the per-level cost/latency table shown by the
//! CLI's `trace summarize`.
//!
//! The table aggregates over every run segment in the trace (an online
//! trace holds one segment per query): one row per sequence level
//! `H_i`, one row for the pairwise function `P`, then the gate-decision
//! and run-total footers. Rendering is read-only and schema-tolerant —
//! it sums whatever well-named events are present — so it works on
//! traces [`crate::schema::validate`] would reject; validate first when
//! integrity matters.

use std::collections::{BTreeMap, BTreeSet};

use crate::fold::{EngineEvent, EngineTotals};
use crate::trace::OwnedEvent;

/// `levels` as ascending ranges: `1–9`, or `3–4, 7`.
fn level_ranges(levels: &BTreeSet<u64>) -> String {
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for &level in levels {
        match ranges.last_mut() {
            Some((_, hi)) if *hi + 1 == level => *hi = level,
            _ => ranges.push((level, level)),
        }
    }
    ranges
        .iter()
        .map(|&(lo, hi)| {
            if lo == hi {
                lo.to_string()
            } else {
                format!("{lo}–{hi}")
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders the summary table for a trace.
pub fn summarize(events: &[OwnedEvent]) -> String {
    // The whole trace through the shared fold, plus what only this
    // table needs: each level's hash rounds folded apart, and the set
    // of levels whose normals were built.
    let mut t = EngineTotals::default();
    let mut levels: BTreeMap<u64, EngineTotals> = BTreeMap::new();
    let mut built: BTreeSet<u64> = BTreeSet::new();
    for event in events {
        let level = || event.u64("level").unwrap_or(0);
        match t.add(event) {
            Some(kind @ EngineEvent::HashRound) => {
                levels.entry(level()).or_default().fold(kind, event);
            }
            Some(EngineEvent::LevelBuilt) => {
                built.insert(level());
            }
            _ => {}
        }
    }

    let ms = |micros: u64| format!("{:.3}", micros as f64 / 1000.0);
    let mut rows: Vec<Vec<String>> = vec![vec![
        "level".into(),
        "rounds".into(),
        "records".into(),
        "hash evals".into(),
        "keys".into(),
        "pairs".into(),
        "exit rate".into(),
        "wall ms".into(),
        "modeled cost".into(),
    ]];
    for (level, row) in &levels {
        rows.push(vec![
            format!("H{level}"),
            row.hash_rounds.to_string(),
            row.hash_records.to_string(),
            row.hash_evals.to_string(),
            row.keys_emitted.to_string(),
            "-".into(),
            "-".into(),
            ms(row.hash_wall_micros),
            format!("{:.1}", row.hash_cost),
        ]);
    }
    if t.pairwise_calls > 0 {
        let exit_rate = if t.kernel_checks > 0 {
            format!(
                "{:.1}%",
                100.0 * t.early_exits as f64 / t.kernel_checks as f64
            )
        } else {
            "-".into()
        };
        rows.push(vec![
            "P".into(),
            t.pairwise_calls.to_string(),
            t.pairwise_records.to_string(),
            "-".into(),
            "-".into(),
            t.pairs.to_string(),
            exit_rate,
            ms(t.pairwise_wall_micros),
            format!("{:.1}", t.pairwise_cost),
        ]);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "trace summary: {} run(s), {} event(s)\n\n",
        t.runs,
        events.len()
    ));
    out.push_str(&render_table(&rows));
    out.push_str(&format!(
        "\ngate decisions: hash={} pairwise={} (forced={})\n",
        t.gates_hash, t.gates_pairwise, t.gates_forced
    ));
    if t.pairwise_calls > 0 {
        out.push_str(&format!(
            "pairwise kernels: {} checks, {} early exits ({} by an exact bound), {} blocks, \
             {} distance evals\n",
            t.kernel_checks, t.early_exits, t.bound_rejects, t.blocks, t.distance_evals
        ));
    }
    if !built.is_empty() {
        out.push_str(&format!(
            "normals: level{} {} built, {} functions, {:.1} MiB, {} ms\n",
            if built.len() == 1 { "" } else { "s" },
            level_ranges(&built),
            t.normals_functions,
            t.normals_bytes as f64 / (1024.0 * 1024.0),
            ms(t.normals_build_micros)
        ));
    }
    if t.queries > 0 || t.hash_reused > 0 {
        out.push_str(&format!(
            "H memo: {} of {} calls, {} of {} records reused\n",
            t.hash_reused, t.hash_rounds, t.hash_reused_records, t.hash_records
        ));
    }
    if t.queries > 0 || t.pairwise_reused > 0 {
        out.push_str(&format!(
            "P memo: {} of {} calls, {} of {} records reused\n",
            t.pairwise_reused, t.pairwise_calls, t.pairwise_reused_records, t.pairwise_records
        ));
    }
    if t.queries > 0 {
        out.push_str(&format!(
            "online: {} query(ies), {} fresh records, {} advanced, {} hash evals\n",
            t.queries, t.query_fresh_records, t.query_advanced_records, t.query_hash_evals
        ));
    }
    if t.oracle_calls > 0 {
        out.push_str(&format!(
            "oracle: {} call(s), {} retries, {} timeouts, {} errors, {} degraded, spend={}\n",
            t.oracle_calls,
            t.oracle_retries,
            t.oracle_timeouts,
            t.oracle_errors,
            t.oracle_degraded,
            t.oracle_spend
        ));
    }
    out.push_str(&format!(
        "totals: rounds={} finals={} wall={} ms modeled_cost={:.1}\n",
        t.rounds,
        t.finals,
        ms(t.run_wall_micros),
        t.modeled_cost
    ));
    out
}

/// Renders rows (first row = header) with right-aligned, padded columns.
fn render_table(rows: &[Vec<String>]) -> String {
    let columns = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; columns];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            for _ in 0..widths[i].saturating_sub(cell.len()) {
                out.push(' ');
            }
            out.push_str(cell);
        }
        out.push('\n');
        if r == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
            out.extend(std::iter::repeat_n('-', total));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::OwnedValue;

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

    #[test]
    fn aggregates_levels_pairwise_and_gates() {
        let events = vec![
            ev(
                "hash_round",
                &[
                    ("level", u(1)),
                    ("cluster_size", u(100)),
                    ("hash_evals", u(800)),
                    ("keys_emitted", u(200)),
                    ("wall_micros", u(1500)),
                    ("predicted_cost", OwnedValue::F64(10.0)),
                ],
            ),
            ev(
                "hash_round",
                &[
                    ("level", u(1)),
                    ("cluster_size", u(50)),
                    ("hash_evals", u(400)),
                    ("keys_emitted", u(100)),
                    ("wall_micros", u(500)),
                    ("predicted_cost", OwnedValue::F64(5.0)),
                ],
            ),
            ev(
                "gate",
                &[
                    ("action", OwnedValue::Str("pairwise".into())),
                    ("forced", u(0)),
                ],
            ),
            ev(
                "pairwise",
                &[
                    ("cluster_size", u(10)),
                    ("pairs", u(45)),
                    ("kernel_checks", u(50)),
                    ("early_exits", u(25)),
                    ("bound_rejects", u(20)),
                    ("blocks", u(1)),
                    ("wall_micros", u(100)),
                ],
            ),
            ev(
                "run_end",
                &[
                    ("rounds", u(3)),
                    ("finals", u(1)),
                    ("wall_micros", u(2500)),
                    ("modeled_cost", OwnedValue::F64(15.5)),
                ],
            ),
        ];
        let table = summarize(&events);
        assert!(table.contains("H1"), "{table}");
        assert!(table.contains("1200"), "summed hash evals: {table}");
        assert!(table.contains("150"), "summed records: {table}");
        assert!(table.contains("50.0%"), "early-exit rate: {table}");
        assert!(
            table.contains("50 checks, 25 early exits (20 by an exact bound), 1 blocks"),
            "bound rejects: {table}"
        );
        assert!(table.contains("hash=0 pairwise=1"), "{table}");
        assert!(table.contains("rounds=3 finals=1"), "{table}");
        assert!(table.contains("modeled_cost=15.5"), "{table}");
    }

    fn f(v: f64) -> OwnedValue {
        OwnedValue::F64(v)
    }

    fn s(v: &str) -> OwnedValue {
        OwnedValue::Str(v.into())
    }

    fn hash_round(level: u64, size: u64, reused: u64, wall: u64, cost: f64) -> OwnedEvent {
        ev(
            "hash_round",
            &[
                ("level", u(level)),
                ("cluster_size", u(size)),
                ("hash_evals", u(size * 8)),
                ("keys_emitted", u(size * 2)),
                ("subclusters", u(2)),
                ("reused", u(reused)),
                ("wall_micros", u(wall)),
                ("predicted_cost", f(cost)),
            ],
        )
    }

    fn gate(level: u64, action: &str, forced: u64) -> OwnedEvent {
        ev(
            "gate",
            &[
                ("level", u(level)),
                ("cluster_size", u(4)),
                ("predicted_pairwise_cost", f(6.0)),
                ("action", s(action)),
                ("forced", u(forced)),
            ],
        )
    }

    fn pairwise(size: u64, pairs: u64, checks: u64, exits: u64, bound: u64) -> OwnedEvent {
        ev(
            "pairwise",
            &[
                ("cluster_size", u(size)),
                ("pairs", u(pairs)),
                ("distance_evals", u(pairs)),
                ("kernel_checks", u(checks)),
                ("early_exits", u(exits)),
                ("bound_rejects", u(bound)),
                ("blocks", u(1)),
                ("reused", u(0)),
                ("subclusters", u(1)),
                ("wall_micros", u(250)),
                ("predicted_cost", f(0.25 * pairs as f64)),
            ],
        )
    }

    fn block(pairs: u64, checks: u64, exits: u64, bound: u64) -> OwnedEvent {
        ev(
            "pairwise_block",
            &[
                ("pairs_open", u(pairs)),
                ("pairs_charged", u(pairs)),
                ("kernel_checks", u(checks)),
                ("early_exits", u(exits)),
                ("bound_rejects", u(bound)),
                ("wall_micros", u(250)),
            ],
        )
    }

    fn final_cluster(rank: u64, origin: &str, level: u64) -> OwnedEvent {
        ev(
            "final_cluster",
            &[
                ("rank", u(rank)),
                ("size", u(3)),
                ("origin", s(origin)),
                ("level", u(level)),
            ],
        )
    }

    fn oracle_call(spend: u64, degraded: u64) -> OwnedEvent {
        ev(
            "oracle_call",
            &[
                ("attempts", u(2)),
                ("retries", u(1)),
                ("votes", u(0)),
                ("timeouts", u(1)),
                ("errors", u(0)),
                ("spend", u(spend)),
                ("degraded", u(degraded)),
                ("matched", u(1)),
                ("latency_micros", u(700)),
            ],
        )
    }

    fn run_end(rounds: u64, finals: u64, wall: u64, modeled: f64) -> OwnedEvent {
        ev(
            "run_end",
            &[
                ("rounds", u(rounds)),
                ("finals", u(finals)),
                ("wall_micros", u(wall)),
                ("modeled_cost", f(modeled)),
            ],
        )
    }

    /// The whole rendered summary of a two-segment online trace that
    /// touches every line the renderer can print.
    #[test]
    fn renders_a_fixed_trace_exactly() {
        let run_start = ev(
            "run_start",
            &[
                ("records", u(40)),
                ("k", u(2)),
                ("levels", u(3)),
                ("threads", u(1)),
                ("source", s("ram")),
            ],
        );
        let mut reused_pairwise = pairwise(6, 15, 15, 15, 12);
        reused_pairwise.fields[7].1 = u(4);
        let events = vec![
            ev("design_level", &[("level", u(1)), ("budget", u(8))]),
            oracle_call(1, 1),
            run_start.clone(),
            hash_round(1, 40, 0, 1200, 40.0),
            ev(
                "level_built",
                &[
                    ("level", u(1)),
                    ("functions", u(64)),
                    ("bytes", u(1 << 19)),
                    ("build_micros", u(310)),
                ],
            ),
            gate(1, "hash", 0),
            hash_round(2, 20, 0, 800, 22.5),
            gate(2, "pairwise", 0),
            pairwise(8, 28, 30, 20, 18),
            block(20, 22, 15, 14),
            block(8, 8, 5, 4),
            oracle_call(2, 0),
            final_cluster(0, "pairwise", 0),
            gate(2, "hash", 0),
            hash_round(3, 12, 0, 450, 14.0),
            final_cluster(1, "hashed", 3),
            run_end(4, 2, 3100, 90.5),
            ev(
                "online_query",
                &[
                    ("k", u(2)),
                    ("records", u(40)),
                    ("fresh_records", u(40)),
                    ("advanced_records", u(40)),
                    ("hash_evals", u(576)),
                    ("wall_micros", u(3300)),
                ],
            ),
            run_start,
            hash_round(1, 44, 0, 300, 44.0),
            hash_round(2, 22, 20, 120, 24.75),
            gate(2, "pairwise", 1),
            reused_pairwise,
            block(15, 15, 15, 12),
            final_cluster(0, "pairwise", 0),
            run_end(2, 1, 700, 72.5),
            ev(
                "online_query",
                &[
                    ("k", u(2)),
                    ("records", u(44)),
                    ("fresh_records", u(4)),
                    ("advanced_records", u(6)),
                    ("hash_evals", u(528)),
                    ("wall_micros", u(760)),
                ],
            ),
            oracle_call(3, 0),
        ];
        let expected = "\
trace summary: 2 run(s), 28 event(s)

level  rounds  records  hash evals  keys  pairs  exit rate  wall ms  modeled cost
---------------------------------------------------------------------------------
   H1       2       84         672   168      -          -    1.500          84.0
   H2       2       42         336    84      -          -    0.920          47.2
   H3       1       12          96    24      -          -    0.450          14.0
    P       2       14           -     -     43      77.8%    0.500          10.8

gate decisions: hash=2 pairwise=2 (forced=1)
pairwise kernels: 45 checks, 35 early exits (30 by an exact bound), 2 blocks, 43 distance evals
normals: level 1 built, 64 functions, 0.5 MiB, 0.310 ms
H memo: 1 of 5 calls, 20 of 138 records reused
P memo: 1 of 2 calls, 4 of 14 records reused
online: 2 query(ies), 44 fresh records, 46 advanced, 1104 hash evals
oracle: 3 call(s), 3 retries, 3 timeouts, 0 errors, 1 degraded, spend=6
totals: rounds=6 finals=3 wall=3.800 ms modeled_cost=163.0
";
        assert_eq!(summarize(&events), expected);
    }

    #[test]
    fn empty_trace_renders_without_panicking() {
        let table = summarize(&[]);
        assert!(table.contains("0 run(s)"), "{table}");
    }

    #[test]
    fn memo_reuse_gets_its_own_footer() {
        let call = |size: u64, reused: u64| {
            ev(
                "pairwise",
                &[
                    ("cluster_size", u(size)),
                    ("pairs", u(0)),
                    ("reused", u(reused)),
                ],
            )
        };
        let events = vec![call(10, 10), call(6, 4), call(3, 0)];
        let table = summarize(&events);
        assert!(
            table.contains("P memo: 2 of 3 calls, 14 of 19 records reused"),
            "{table}"
        );
        // A batch trace, which never reuses, gets no memo line.
        assert!(!summarize(&[call(3, 0)]).contains("P memo"));

        let round = |level: u64, size: u64, reused: u64| {
            ev(
                "hash_round",
                &[
                    ("level", u(level)),
                    ("cluster_size", u(size)),
                    ("reused", u(reused)),
                ],
            )
        };
        let events = vec![
            round(1, 40, 0),
            round(2, 12, 12),
            round(3, 8, 5),
            round(2, 3, 0),
        ];
        let table = summarize(&events);
        assert!(
            table.contains("H memo: 2 of 4 calls, 17 of 63 records reused"),
            "{table}"
        );
        assert!(!summarize(&events[3..]).contains("H memo"));
    }

    #[test]
    fn level_builds_get_one_line() {
        let built = |level: u64| {
            ev(
                "level_built",
                &[
                    ("level", u(level)),
                    ("functions", u(1000 * level)),
                    ("bytes", u(1 << 20)),
                    ("build_micros", u(1500)),
                ],
            )
        };
        let events: Vec<OwnedEvent> = (1..=9).map(built).collect();
        let table = summarize(&events);
        assert!(
            table.contains("normals: levels 1–9 built, 45000 functions, 9.0 MiB, 13.500 ms\n"),
            "{table}"
        );
        let resumed = vec![built(3), built(4), built(7)];
        assert!(
            summarize(&resumed).contains("normals: levels 3–4, 7 built, 14000 functions"),
            "{}",
            summarize(&resumed)
        );
        assert!(summarize(&[built(2)]).contains("normals: level 2 built"));
        // A trace without dense parts gets no normals line.
        assert!(!summarize(&[]).contains("normals"));
    }

    #[test]
    fn oracle_calls_get_their_own_footer() {
        let events = vec![
            ev(
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
            ),
            ev(
                "oracle_call",
                &[
                    ("attempts", u(1)),
                    ("retries", u(0)),
                    ("votes", u(0)),
                    ("timeouts", u(0)),
                    ("errors", u(0)),
                    ("spend", u(0)),
                    ("degraded", u(1)),
                    ("matched", u(0)),
                    ("latency_micros", u(0)),
                ],
            ),
        ];
        let table = summarize(&events);
        assert!(table.contains("oracle: 2 call(s), 2 retries"), "{table}");
        assert!(table.contains("1 degraded, spend=3"), "{table}");
    }

    #[test]
    fn online_queries_get_their_own_footer() {
        let events = vec![ev(
            "online_query",
            &[
                ("k", u(1)),
                ("records", u(30)),
                ("fresh_records", u(10)),
                ("advanced_records", u(12)),
                ("hash_evals", u(99)),
                ("wall_micros", u(10)),
            ],
        )];
        let table = summarize(&events);
        assert!(table.contains("online: 1 query(ies), 10 fresh"), "{table}");
    }
}
