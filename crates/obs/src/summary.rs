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

use crate::trace::OwnedEvent;

#[derive(Default)]
struct LevelRow {
    rounds: u64,
    records: u64,
    hash_evals: u64,
    keys: u64,
    wall_micros: u64,
    cost: f64,
}

#[derive(Default)]
struct PairwiseRow {
    calls: u64,
    records: u64,
    pairs: u64,
    distance_evals: u64,
    kernel_checks: u64,
    early_exits: u64,
    bound_rejects: u64,
    blocks: u64,
    /// Calls that started from a memo partition, and the records it
    /// covered.
    reused_calls: u64,
    reused_records: u64,
    wall_micros: u64,
    cost: f64,
}

/// The `H_t` calls, every one of which an online resolver's memo can
/// seed, and those of them that started from a memo partition.
#[derive(Default)]
struct HashMemoRow {
    calls: u64,
    records: u64,
    reused_calls: u64,
    reused_records: u64,
}

/// The levels whose hyperplane normals the trace saw built, and what
/// the builds held and took.
#[derive(Default)]
struct NormalsRow {
    levels: BTreeSet<u64>,
    functions: u64,
    bytes: u64,
    build_micros: u64,
}

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
    let mut levels: BTreeMap<u64, LevelRow> = BTreeMap::new();
    let mut pairwise = PairwiseRow::default();
    let mut hash_memo = HashMemoRow::default();
    let mut normals = NormalsRow::default();
    let mut gate_hash = 0u64;
    let mut gate_pairwise = 0u64;
    let mut gate_forced = 0u64;
    let mut runs = 0u64;
    let mut rounds = 0u64;
    let mut finals = 0u64;
    let mut wall_micros = 0u64;
    let mut modeled = 0.0f64;
    let mut queries = 0u64;
    let mut query_fresh = 0u64;
    let mut query_advanced = 0u64;
    let mut query_hash_evals = 0u64;
    let mut oracle_calls = 0u64;
    let mut oracle_retries = 0u64;
    let mut oracle_timeouts = 0u64;
    let mut oracle_errors = 0u64;
    let mut oracle_degraded = 0u64;
    let mut oracle_spend = 0u64;

    let u = |event: &OwnedEvent, name: &str| event.u64(name).unwrap_or(0);
    for event in events {
        match event.name.as_str() {
            "hash_round" => {
                let row = levels.entry(u(event, "level")).or_default();
                row.rounds += 1;
                row.records += u(event, "cluster_size");
                row.hash_evals += u(event, "hash_evals");
                row.keys += u(event, "keys_emitted");
                row.wall_micros += u(event, "wall_micros");
                row.cost += event.f64("predicted_cost").unwrap_or(0.0);
                hash_memo.calls += 1;
                hash_memo.records += u(event, "cluster_size");
                hash_memo.reused_calls += u64::from(u(event, "reused") > 0);
                hash_memo.reused_records += u(event, "reused");
            }
            "level_built" => {
                normals.levels.insert(u(event, "level"));
                normals.functions += u(event, "functions");
                normals.bytes += u(event, "bytes");
                normals.build_micros += u(event, "build_micros");
            }
            "pairwise" => {
                pairwise.calls += 1;
                pairwise.records += u(event, "cluster_size");
                pairwise.pairs += u(event, "pairs");
                pairwise.distance_evals += u(event, "distance_evals");
                pairwise.kernel_checks += u(event, "kernel_checks");
                pairwise.early_exits += u(event, "early_exits");
                pairwise.bound_rejects += u(event, "bound_rejects");
                pairwise.blocks += u(event, "blocks");
                pairwise.reused_calls += u64::from(u(event, "reused") > 0);
                pairwise.reused_records += u(event, "reused");
                pairwise.wall_micros += u(event, "wall_micros");
                pairwise.cost += event.f64("predicted_cost").unwrap_or(0.0);
            }
            "gate" => {
                match event.str("action") {
                    Some("pairwise") => gate_pairwise += 1,
                    _ => gate_hash += 1,
                }
                gate_forced += u(event, "forced");
            }
            "run_end" => {
                runs += 1;
                rounds += u(event, "rounds");
                finals += u(event, "finals");
                wall_micros += u(event, "wall_micros");
                modeled += event.f64("modeled_cost").unwrap_or(0.0);
            }
            "online_query" => {
                queries += 1;
                query_fresh += u(event, "fresh_records");
                query_advanced += u(event, "advanced_records");
                query_hash_evals += u(event, "hash_evals");
            }
            "oracle_call" => {
                oracle_calls += 1;
                oracle_retries += u(event, "retries");
                oracle_timeouts += u(event, "timeouts");
                oracle_errors += u(event, "errors");
                oracle_degraded += u(event, "degraded");
                oracle_spend += u(event, "spend");
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
            row.rounds.to_string(),
            row.records.to_string(),
            row.hash_evals.to_string(),
            row.keys.to_string(),
            "-".into(),
            "-".into(),
            ms(row.wall_micros),
            format!("{:.1}", row.cost),
        ]);
    }
    if pairwise.calls > 0 {
        let exit_rate = if pairwise.kernel_checks > 0 {
            format!(
                "{:.1}%",
                100.0 * pairwise.early_exits as f64 / pairwise.kernel_checks as f64
            )
        } else {
            "-".into()
        };
        rows.push(vec![
            "P".into(),
            pairwise.calls.to_string(),
            pairwise.records.to_string(),
            "-".into(),
            "-".into(),
            pairwise.pairs.to_string(),
            exit_rate,
            ms(pairwise.wall_micros),
            format!("{:.1}", pairwise.cost),
        ]);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "trace summary: {runs} run(s), {} event(s)\n\n",
        events.len()
    ));
    out.push_str(&render_table(&rows));
    out.push_str(&format!(
        "\ngate decisions: hash={gate_hash} pairwise={gate_pairwise} (forced={gate_forced})\n"
    ));
    if pairwise.calls > 0 {
        out.push_str(&format!(
            "pairwise kernels: {} checks, {} early exits ({} by the bitmap bound), {} blocks, \
             {} distance evals\n",
            pairwise.kernel_checks,
            pairwise.early_exits,
            pairwise.bound_rejects,
            pairwise.blocks,
            pairwise.distance_evals
        ));
    }
    if !normals.levels.is_empty() {
        out.push_str(&format!(
            "normals: level{} {} built, {} functions, {:.1} MiB, {} ms\n",
            if normals.levels.len() == 1 { "" } else { "s" },
            level_ranges(&normals.levels),
            normals.functions,
            normals.bytes as f64 / (1024.0 * 1024.0),
            ms(normals.build_micros)
        ));
    }
    if queries > 0 || hash_memo.reused_calls > 0 {
        out.push_str(&format!(
            "H memo: {} of {} calls, {} of {} records reused\n",
            hash_memo.reused_calls, hash_memo.calls, hash_memo.reused_records, hash_memo.records
        ));
    }
    if queries > 0 || pairwise.reused_calls > 0 {
        out.push_str(&format!(
            "P memo: {} of {} calls, {} of {} records reused\n",
            pairwise.reused_calls, pairwise.calls, pairwise.reused_records, pairwise.records
        ));
    }
    if queries > 0 {
        out.push_str(&format!(
            "online: {queries} query(ies), {query_fresh} fresh records, \
             {query_advanced} advanced, {query_hash_evals} hash evals\n"
        ));
    }
    if oracle_calls > 0 {
        out.push_str(&format!(
            "oracle: {oracle_calls} call(s), {oracle_retries} retries, \
             {oracle_timeouts} timeouts, {oracle_errors} errors, \
             {oracle_degraded} degraded, spend={oracle_spend}\n"
        ));
    }
    out.push_str(&format!(
        "totals: rounds={rounds} finals={finals} wall={} ms modeled_cost={modeled:.1}\n",
        ms(wall_micros)
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
            table.contains("50 checks, 25 early exits (20 by the bitmap bound), 1 blocks"),
            "bound rejects: {table}"
        );
        assert!(table.contains("hash=0 pairwise=1"), "{table}");
        assert!(table.contains("rounds=3 finals=1"), "{table}");
        assert!(table.contains("modeled_cost=15.5"), "{table}");
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
