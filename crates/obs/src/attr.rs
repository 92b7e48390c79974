//! Renders span trees into the per-phase latency attribution shown by
//! the CLI's `trace attribute`.
//!
//! For every root operation in the trace (`ingest_batch`, `topk_query`,
//! `filter_run`) the report gives the root-latency distribution (count,
//! p50, p99, total) and a flamegraph-style breakdown: child phases
//! aggregated by their op path, each with total time, share of the root
//! total, and a proportional bar. `(self)` rows account for time a span
//! spent outside all of its children — the unattributed remainder the
//! next optimization PR goes hunting for.
//!
//! Rendering is read-only and tolerant of dangling parents (it skips
//! orphans), and its sums saturate rather than wrap; run
//! [`crate::schema::validate`] first when integrity matters — the CLI
//! does.

use std::collections::HashMap;

use crate::trace::OwnedEvent;

const BAR_WIDTH: usize = 24;

struct Span {
    id: u64,
    parent: u64,
    op: String,
    start: u64,
    duration: u64,
}

/// One aggregated op-path row, in first-traversal order.
struct PathRow {
    depth: usize,
    label: String,
    total_micros: u64,
    count: u64,
}

/// Renders the attribution report for a trace. Traces without span
/// events get a short note instead of an empty report.
pub fn attribute(events: &[OwnedEvent]) -> String {
    let spans: Vec<Span> = events
        .iter()
        .filter(|e| e.name == "span")
        .filter_map(|e| {
            Some(Span {
                id: e.u64("span_id")?,
                parent: e.u64("parent_span_id")?,
                op: e.str("op")?.to_string(),
                start: e.u64("start_micros")?,
                duration: e.u64("duration_micros")?,
            })
        })
        .collect();
    if spans.is_empty() {
        return "no span events in trace (span emission requires --trace-out on a \
                span-instrumented path: serve ingest/topk or filter runs)\n"
            .to_string();
    }

    let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        if span.parent != 0 && by_id.contains_key(&span.parent) {
            children.entry(span.parent).or_default().push(i);
        }
    }
    for list in children.values_mut() {
        list.sort_by_key(|&i| (spans[i].start, spans[i].id));
    }

    let mut root_ops: Vec<&str> = Vec::new();
    for span in &spans {
        if span.parent == 0 && !root_ops.contains(&span.op.as_str()) {
            root_ops.push(&span.op);
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "span attribution: {} span(s), {} root(s)\n",
        spans.len(),
        spans.iter().filter(|s| s.parent == 0).count()
    ));
    for root_op in root_ops {
        let roots: Vec<usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == 0 && s.op == root_op)
            .map(|(i, _)| i)
            .collect();
        let mut durations: Vec<u64> = roots.iter().map(|&i| spans[i].duration).collect();
        durations.sort_unstable();
        let total = durations.iter().fold(0u64, |sum, &d| sum.saturating_add(d));
        out.push_str(&format!(
            "\n{root_op}: {} span(s)  p50 {}  p99 {}  total {}\n",
            roots.len(),
            ms(percentile(&durations, 50)),
            ms(percentile(&durations, 99)),
            ms(total),
        ));

        // Aggregate by op path across every root of this op.
        let mut rows: Vec<PathRow> = Vec::new();
        for &root in &roots {
            walk(&spans, &children, root, 0, root_op, &mut rows);
        }
        for row in &rows {
            if row.depth == 0 {
                continue; // the root line already printed above
            }
            let pct = if total > 0 {
                100.0 * row.total_micros as f64 / total as f64
            } else {
                0.0
            };
            let bar_len = ((pct / 100.0) * BAR_WIDTH as f64).round() as usize;
            out.push_str(&format!(
                "  {:<32} {:>10}  {:>5.1}%  x{:<5} {}\n",
                format!("{}{}", "  ".repeat(row.depth - 1), row.label),
                ms(row.total_micros),
                pct,
                row.count,
                "#".repeat(bar_len.min(BAR_WIDTH)),
            ));
        }
    }
    out
}

/// Depth-first aggregation: merges `span` into the row for its op path
/// (depth + label), recurses into children in start order, then charges
/// the unattributed remainder to a `(self)` row when the span has
/// children.
fn walk(
    spans: &[Span],
    children: &HashMap<u64, Vec<usize>>,
    index: usize,
    depth: usize,
    label: &str,
    rows: &mut Vec<PathRow>,
) {
    let span = &spans[index];
    merge(rows, depth, label, span.duration);
    let Some(kids) = children.get(&span.id) else {
        return;
    };
    let mut child_total = 0u64;
    for &kid in kids {
        child_total = child_total.saturating_add(spans[kid].duration);
        let op = spans[kid].op.clone();
        walk(spans, children, kid, depth + 1, &op, rows);
    }
    merge(
        rows,
        depth + 1,
        "(self)",
        span.duration.saturating_sub(child_total),
    );
}

fn merge(rows: &mut Vec<PathRow>, depth: usize, label: &str, micros: u64) {
    // `(self)` rows sort after their siblings by being merged last per
    // traversal; lookup is by (depth, label), which is unambiguous for
    // the fixed tree shapes the emitters produce.
    if let Some(row) = rows
        .iter_mut()
        .find(|r| r.depth == depth && r.label == label)
    {
        row.total_micros = row.total_micros.saturating_add(micros);
        row.count += 1;
    } else {
        rows.push(PathRow {
            depth,
            label: label.to_string(),
            total_micros: micros,
            count: 1,
        });
    }
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * pct / 100).min(sorted.len() - 1);
    sorted[rank]
}

fn ms(micros: u64) -> String {
    format!("{:.3}ms", micros as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::OwnedValue;

    fn span(id: u64, parent: u64, op: &str, start: u64, dur: u64) -> OwnedEvent {
        OwnedEvent {
            name: "span".to_string(),
            fields: vec![
                ("span_id".to_string(), OwnedValue::U64(id)),
                ("parent_span_id".to_string(), OwnedValue::U64(parent)),
                ("op".to_string(), OwnedValue::Str(op.to_string())),
                ("start_micros".to_string(), OwnedValue::U64(start)),
                ("duration_micros".to_string(), OwnedValue::U64(dur)),
            ],
        }
    }

    #[test]
    fn empty_trace_gets_a_note() {
        assert!(attribute(&[]).contains("no span events"));
    }

    #[test]
    fn aggregates_phases_under_their_root() {
        let events = vec![
            span(2, 1, "queue_wait", 0, 100),
            span(3, 1, "resolve", 100, 700),
            span(5, 3, "hash_rounds", 100, 400),
            span(4, 1, "publish", 800, 100),
            span(1, 0, "ingest_batch", 0, 1000),
            // A second batch with the same shape.
            span(7, 6, "queue_wait", 2000, 300),
            span(6, 0, "ingest_batch", 2000, 1000),
        ];
        let report = attribute(&events);
        assert!(report.contains("ingest_batch: 2 span(s)"), "{report}");
        assert!(report.contains("p50 1.000ms"), "{report}");
        // queue_wait totals across both batches: 400us = 20% of 2000us.
        assert!(report.contains("queue_wait"), "{report}");
        assert!(report.contains("0.400ms"), "{report}");
        assert!(report.contains("20.0%"), "{report}");
        // Nested hash_rounds appears indented under resolve, and the
        // resolve span's unattributed 300us lands in a (self) row.
        assert!(report.contains("hash_rounds"), "{report}");
        assert!(report.contains("(self)"), "{report}");
        assert!(report.contains("0.300ms"), "{report}");
    }

    /// Roots whose durations sum past `u64::MAX` (each window fits, so
    /// the validator accepts them) saturate instead of wrapping.
    #[test]
    fn huge_roots_saturate() {
        let half = u64::MAX / 2 + 1;
        let events = vec![
            span(1, 0, "topk_query", 0, half),
            span(2, 1, "publish", 0, half),
            span(3, 0, "topk_query", 0, half),
            span(4, 3, "publish", 0, half),
        ];
        let report = attribute(&events);
        assert!(report.contains("topk_query: 2 span(s)"), "{report}");
        assert!(report.contains("100.0%"), "{report}");
    }

    #[test]
    fn separate_root_ops_get_separate_sections() {
        let events = vec![
            span(1, 0, "ingest_batch", 0, 10),
            span(2, 0, "topk_query", 5, 20),
        ];
        let report = attribute(&events);
        assert!(report.contains("\ningest_batch: 1 span(s)"), "{report}");
        assert!(report.contains("\ntopk_query: 1 span(s)"), "{report}");
    }
}
