//! Shared plumbing for the one-shot baseline recorders in `src/bin/`.
//!
//! Every `BENCH_*.json` baseline embeds provenance in its `_meta` object
//! — the git revision the numbers were recorded at, a UTC timestamp, and
//! the recorder's peak RSS — so a committed baseline can always be
//! traced back to the code (and memory envelope) that produced it when
//! diffing across optimization PRs.

use std::time::{SystemTime, UNIX_EPOCH};

/// The provenance entries as a JSON object fragment (no braces):
/// `"git_rev": "<rev>", "recorded_at": "<iso8601>", "peak_rss_bytes":
/// <n>`. Recorders splice this into their hand-built `_meta` objects;
/// call it after the measured work so the high-water mark covers it.
pub fn provenance_fields() -> String {
    format!(
        "\"git_rev\": \"{}\", \"recorded_at\": \"{}\", \"peak_rss_bytes\": {}",
        git_rev(),
        recorded_at(),
        peak_rss_bytes().unwrap_or(0)
    )
}

/// The value of `--out <path>` among a recorder's arguments, if given:
/// where to write the run's JSON besides (or, with `--smoke`, instead
/// of) the committed baseline.
///
/// # Panics
/// Panics if `--out` is the last argument.
pub fn out_arg(args: &[String]) -> Option<String> {
    args.iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out needs a path").clone())
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable. This is
/// a lifetime high-water mark.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// The short git revision of the working tree, or `"unknown"` when git
/// is unavailable (e.g. running from an unpacked source archive). A
/// dirty working tree is marked with a `-dirty` suffix so a baseline
/// recorded mid-edit is never mistaken for the committed revision's.
pub fn git_rev() -> String {
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let Some(rev) = run(&["rev-parse", "--short", "HEAD"]).filter(|s| !s.is_empty()) else {
        return "unknown".into();
    };
    let dirty = run(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`. The workspace has no
/// date-time dependency, so the civil date is computed directly from the
/// Unix epoch (days-to-civil conversion below).
pub fn recorded_at() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    iso8601_utc(secs)
}

/// Formats a Unix timestamp (seconds) as `YYYY-MM-DDTHH:MM:SSZ`.
pub fn iso8601_utc(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let rem = unix_secs % 86_400;
    let (h, m, s) = (rem / 3600, rem % 3600 / 60, rem % 60);
    let (y, mo, d) = civil_from_days(days);
    format!("{y:04}-{mo:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

/// Proleptic-Gregorian date from days since 1970-01-01 (Hinnant's
/// `civil_from_days` algorithm: 400-year eras of exactly 146097 days,
/// March-based years so the leap day falls at the end).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = yoe + era * 400 + i64::from(m <= 2);
    (y, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_known_values() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(365), (1971, 1, 1));
        // 2000-02-29 is day 11016 (leap century year).
        assert_eq!(civil_from_days(11_016), (2000, 2, 29));
        assert_eq!(civil_from_days(11_017), (2000, 3, 1));
        // 2026-08-08 is day 20673.
        assert_eq!(civil_from_days(20_673), (2026, 8, 8));
    }

    #[test]
    fn iso8601_formatting() {
        assert_eq!(iso8601_utc(0), "1970-01-01T00:00:00Z");
        // 2021-01-01T00:00:00Z.
        assert_eq!(iso8601_utc(1_609_459_200), "2021-01-01T00:00:00Z");
        assert_eq!(iso8601_utc(1_609_459_200 + 3661), "2021-01-01T01:01:01Z");
    }

    #[test]
    fn provenance_fragment_shape() {
        let frag = provenance_fields();
        assert!(frag.starts_with("\"git_rev\": \""), "{frag}");
        assert!(frag.contains("\"recorded_at\": \""), "{frag}");
        // None of the string values may contain a quote or backslash —
        // the fragment is spliced verbatim into hand-built JSON.
        let values = frag.split('"').skip(3).step_by(4);
        for v in values {
            assert!(!v.contains('\\'), "{frag}");
        }
        let tail = frag.rsplit("\"recorded_at\": \"").next().unwrap();
        let (ts, rest) = tail.split_once('"').unwrap();
        assert_eq!(ts.len(), 20, "{ts}");
        assert!(ts.ends_with('Z'), "{ts}");
        let rss = rest
            .rsplit("\"peak_rss_bytes\": ")
            .next()
            .unwrap()
            .parse::<u64>()
            .unwrap();
        // Any live Linux process has megabytes resident.
        assert!(rss > 1 << 20, "implausible peak RSS {rss}");
    }

    #[test]
    fn peak_rss_is_plausible_and_monotone() {
        let before = peak_rss_bytes().expect("procfs available in CI");
        let ballast = vec![1u8; 64 << 20];
        std::hint::black_box(&ballast);
        let after = peak_rss_bytes().unwrap();
        drop(ballast);
        assert!(after >= before);
        assert!(after >= 64 << 20, "high-water mark missed a 64 MiB ballast");
    }
}
