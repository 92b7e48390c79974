//! Sample statistics and the open-loop rules the benchmark reports by.
//!
//! Every timing is reported as a median plus the highest percentile
//! that still has at least ten samples beyond it, so a tail number is
//! never read off a handful of points. Open-loop requests are timed
//! from the moment they were *due*, not from when the generator got
//! round to sending them, so a stall is charged to every request it
//! delayed; how late the generator itself ran is reported separately
//! and invalidates a rung when it exceeds [`MAX_LATE_MS`].

use std::time::Duration;

/// Tail percentiles tried, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// A rung whose generator ran later than this (p99, ms) measured the
/// generator, not the server: it is reported invalid, not slow.
const MAX_LATE_MS: f64 = 10.0;

/// Ingest-to-visible p99 limit a sustained rung must meet (ms).
const RUNG_P99_LIMIT_MS: f64 = 400.0;

/// Backlog (acked, not yet visible) a sustained rung may leave at its
/// end, in seconds of offered load.
const RUNG_BACKLOG_LIMIT_S: f64 = 0.5;

/// Median; the mean of the two middle values for an even count.
/// `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the spreads printed here match the ones an outside
/// script computes from the same values. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n as f64 + 1.0;
    let cut = |i: f64| {
        // Position i·(n+1)/4 on a 1-based scale, clamped to the ends.
        let pos = i * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    Some([cut(1.0), cut(2.0), cut(3.0)])
}

/// Nearest-rank percentile of an ascending sample (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n > 0` samples. The
/// epsilon keeps decimal percentiles such as 99.9 from rounding up a
/// rank that is exact on paper.
fn rank(n: usize, p: f64) -> usize {
    let exact = p * n as f64 / 100.0;
    ((exact - 1e-9).ceil() as usize).clamp(1, n)
}

/// A timing summary: median, the highest percentile with at least ten
/// samples beyond it (`None` when the sample is too small for any), and
/// the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the sample.
    pub median: f64,
    /// `(percentile, value)` of the reported tail.
    pub tail: Option<(f64, f64)>,
    /// Number of samples.
    pub samples: usize,
}

/// Summarizes a sample by [`median`] and its highest supported tail.
pub fn summarize(values: &[f64]) -> Summary {
    let sorted = sorted(values);
    let n = sorted.len();
    let tail = TAIL_LADDER
        .iter()
        .find(|&&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
        .map(|&p| (p, percentile(&sorted, p)));
    Summary {
        median: median(&sorted),
        tail,
        samples: sorted.len(),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Offset from the start of an open-loop schedule at which request `i`
/// of a stream sent every `interval` is due.
pub fn due_offset(i: u64, interval: Duration) -> Duration {
    Duration::from_nanos((interval.as_nanos() as u64).saturating_mul(i))
}

/// Milliseconds from `due` to `done` (both offsets from the schedule
/// start): a request's latency as the open loop charges it. A request
/// completed "before" it was due cannot happen; it clamps to zero.
pub fn ms_since_due(due: Duration, done: Duration) -> f64 {
    done.saturating_sub(due).as_secs_f64() * 1e3
}

/// What one load rung showed, as the rung rule needs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered ingest rate (records per second).
    pub rate: u64,
    /// Requests refused or failed during the rung.
    pub failures: u64,
    /// Ingest-to-visible p99 (ms); `None` when no batch became visible.
    pub visible_p99_ms: Option<f64>,
    /// Records acked but not yet visible when the rung's schedule ended.
    pub backlog_records: u64,
    /// p99 of how late the generator sent its requests (ms).
    pub late_p99_ms: f64,
}

/// The outcome of one rung under the sustained-rate rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Zero failures, p99 within the limit, backlog within the limit.
    Sustained,
    /// The server fell short; the reason names the first rule broken.
    Failed(String),
    /// The generator ran too late for the rung to say anything.
    Invalid,
}

/// Applies the sustained-rate rule to one rung.
pub fn verdict(rung: &Rung) -> Verdict {
    if rung.late_p99_ms > MAX_LATE_MS {
        return Verdict::Invalid;
    }
    if rung.failures > 0 {
        return Verdict::Failed(format!("{} failed requests", rung.failures));
    }
    match rung.visible_p99_ms {
        None => return Verdict::Failed("no batch became visible".into()),
        Some(p99) if p99 > RUNG_P99_LIMIT_MS => {
            return Verdict::Failed(format!(
                "ingest-to-visible p99 {p99:.1} ms > {RUNG_P99_LIMIT_MS} ms"
            ))
        }
        Some(_) => {}
    }
    let allowed = rung.rate as f64 * RUNG_BACKLOG_LIMIT_S;
    if rung.backlog_records as f64 > allowed {
        return Verdict::Failed(format!(
            "backlog {} records > {allowed} ({RUNG_BACKLOG_LIMIT_S} s of offered load)",
            rung.backlog_records
        ));
    }
    Verdict::Sustained
}

/// The highest offered rate among sustained rungs, 0 when none was.
pub fn sustained_rate(rungs: &[Rung]) -> u64 {
    rungs
        .iter()
        .filter(|r| verdict(r) == Verdict::Sustained)
        .map(|r| r.rate)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&thousand);
        assert_eq!(s.samples, 1000);
        assert_eq!(s.tail, Some((99.0, 990.0)));

        // 10 000 samples support p99.9 (exactly 10 beyond it).
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(summarize(&big).tail, Some((99.9, 9990.0)));

        // 100 samples: p99 has 1 beyond, p90 has 10.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(summarize(&hundred).tail, Some((90.0, 90.0)));

        // Too few samples for any tail: median only.
        let few = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!(few.tail, None);
        assert_eq!(few.median, 3.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 50.0), 20.0);
        assert_eq!(percentile(&v, 75.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert_eq!(percentile(&v, 0.0), 10.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let interval = Duration::from_millis(10);
        assert_eq!(due_offset(0, interval), Duration::ZERO);
        assert_eq!(due_offset(7, interval), Duration::from_millis(70));
        // Sent 30 ms late and answered 5 ms after sending: 35 ms.
        let due = due_offset(7, interval);
        let done = Duration::from_millis(105);
        assert!((ms_since_due(due, done) - 35.0).abs() < 1e-9);
        // Generator lateness is the same measure applied to the send.
        assert!((ms_since_due(due, Duration::from_millis(100)) - 30.0).abs() < 1e-9);
        assert_eq!(ms_since_due(due, Duration::from_millis(50)), 0.0);
    }

    fn rung(rate: u64) -> Rung {
        Rung {
            rate,
            failures: 0,
            visible_p99_ms: Some(200.0),
            backlog_records: 0,
            late_p99_ms: 1.0,
        }
    }

    #[test]
    fn rung_rule_checks_lateness_failures_limit_and_backlog() {
        assert_eq!(verdict(&rung(1000)), Verdict::Sustained);
        let late = Rung {
            late_p99_ms: 11.0,
            ..rung(1000)
        };
        assert_eq!(verdict(&late), Verdict::Invalid);
        let refused = Rung {
            failures: 1,
            ..rung(1000)
        };
        assert!(matches!(verdict(&refused), Verdict::Failed(_)));
        let slow = Rung {
            visible_p99_ms: Some(400.1),
            ..rung(1000)
        };
        assert!(matches!(verdict(&slow), Verdict::Failed(_)));
        let at_limit = Rung {
            visible_p99_ms: Some(400.0),
            backlog_records: 500,
            ..rung(1000)
        };
        assert_eq!(verdict(&at_limit), Verdict::Sustained);
        let behind = Rung {
            backlog_records: 501,
            ..rung(1000)
        };
        assert!(matches!(verdict(&behind), Verdict::Failed(_)));
        let silent = Rung {
            visible_p99_ms: None,
            ..rung(1000)
        };
        assert!(matches!(verdict(&silent), Verdict::Failed(_)));
    }

    #[test]
    fn sustained_rate_is_the_highest_passing_rung() {
        let failed = Rung {
            failures: 3,
            ..rung(4000)
        };
        assert_eq!(sustained_rate(&[rung(1000), rung(2000), failed]), 2000);
        assert_eq!(sustained_rate(&[failed]), 0);
    }
}
