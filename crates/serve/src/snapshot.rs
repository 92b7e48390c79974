//! Durable snapshots of the serving state.
//!
//! A snapshot file is the JSON of [`ServeSnapshot`]: a format version,
//! the match rule the engine was configured with, and the resolver's
//! full [`OnlineSnapshot`] (records, labels, per-record hash states,
//! bootstrap prefix length). Restoring under the same rule rebuilds a
//! bit-identical engine, so a restarted server answers its first query
//! without re-hashing a single already-hashed record.
//!
//! Writes are atomic *and durable*: the JSON is written to a `.tmp`
//! sibling, fsynced, renamed over the target, and the parent directory
//! is fsynced — so a crash (or power loss) mid-snapshot never corrupts
//! the previous snapshot, and a completed `POST /snapshot` response
//! means the bytes and the rename have both reached disk. A failed
//! write removes its `.tmp` sibling instead of leaving it behind.

use std::path::Path;

use adalsh_core::{AdaLshConfig, OnlineAdaLsh, OnlineSnapshot};
use adalsh_data::MatchRule;
use serde::{Deserialize, Serialize};

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Everything persisted by `POST /snapshot` / loaded by `--resume`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The match rule the resolver was configured with. Stored so a
    /// resume under a different rule is rejected instead of silently
    /// rebuilding a different engine (which would invalidate every
    /// persisted hash state).
    pub rule: MatchRule,
    /// The resolver state proper.
    pub resolver: OnlineSnapshot,
}

impl ServeSnapshot {
    /// Captures the state of a resolver configured with `rule`.
    pub fn capture(resolver: &OnlineAdaLsh, rule: MatchRule) -> Self {
        Self {
            version: SNAPSHOT_VERSION,
            rule,
            resolver: resolver.snapshot(),
        }
    }

    /// Restores a resolver, verifying version and rule agreement.
    ///
    /// `config` must be the configuration the restarted server would use
    /// anyway; its rule is checked against the persisted one.
    ///
    /// # Errors
    /// Fails on version or rule mismatch, or on an inconsistent resolver
    /// snapshot (see [`OnlineAdaLsh::from_snapshot`]).
    pub fn restore(self, config: AdaLshConfig) -> Result<OnlineAdaLsh, String> {
        check_version(self.version)?;
        if self.rule != config.rule {
            return Err(format!(
                "snapshot was taken under rule {:?} but the server is configured with {:?}; \
                 resuming would rebuild a different engine and invalidate every hash state",
                self.rule, config.rule
            ));
        }
        OnlineAdaLsh::from_snapshot(self.resolver, config)
    }

    /// Serializes and atomically writes the snapshot to `path`,
    /// fsyncing the temp file before the rename and the parent
    /// directory after it. On any failure the `.tmp` sibling is
    /// removed — a failed snapshot leaves no debris next to the
    /// (still intact) previous snapshot.
    ///
    /// # Errors
    /// Fails on serialization or filesystem errors.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let json = serde_json::to_string(self).map_err(|e| format!("serialize snapshot: {e}"))?;
        let tmp = path.with_extension("tmp");
        let result = write_durably(&tmp, path, json.as_bytes());
        if result.is_err() {
            // Best-effort cleanup; the original error is what matters.
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Reads and parses a snapshot file.
    ///
    /// # Errors
    /// Fails on filesystem or parse errors, on a format version other
    /// than [`SNAPSHOT_VERSION`] (checked before the resolver is
    /// decoded, so an older file is refused by version, not by its
    /// shape), and on a snapshot whose hash states were computed under a
    /// MinHash scheme other than classic.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let value: serde::Value =
            serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        let version = value
            .get("version")
            .and_then(|v| u32::from_value(v).ok())
            .ok_or_else(|| format!("parse {}: missing or malformed version", path.display()))?;
        check_version(version)
            .and_then(|()| check_scheme(&value))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        ServeSnapshot::from_value(&value).map_err(|e| format!("parse {}: {e}", path.display()))
    }
}

/// Refuses any format version but [`SNAPSHOT_VERSION`]. Version 2 stores
/// each record's hash accumulators as one flat array; version 1 nested
/// them per level and group.
fn check_version(version: u32) -> Result<(), String> {
    if version == SNAPSHOT_VERSION {
        Ok(())
    } else {
        Err(format!(
            "snapshot version {version} unsupported (expected {SNAPSHOT_VERSION})"
        ))
    }
}

/// Refuses snapshots whose hash states are not classic MinHash values.
///
/// Earlier builds also offered densified one-permutation hashing (DOPH)
/// and recorded the choice in a top-level `scheme` key (`"Classic"` or
/// `"Doph"`). The key is no longer written, and unknown keys are
/// otherwise ignored, so without this check a DOPH snapshot would load
/// and its states would be advanced as if they were classic — wrong
/// clusters with no error. An absent key or `classic` (any case) is
/// accepted.
fn check_scheme(snapshot: &serde::Value) -> Result<(), String> {
    match snapshot.get("scheme") {
        None => Ok(()),
        Some(serde::Value::Str(s)) if s.eq_ignore_ascii_case("classic") => Ok(()),
        Some(serde::Value::Str(s)) => Err(format!(
            "snapshot hash states were computed with MinHash scheme '{s}', which this build \
             no longer supports (only classic); rebuild the server from its records instead"
        )),
        Some(other) => Err(format!("snapshot has a malformed MinHash scheme {other:?}")),
    }
}

/// Write `bytes` to `tmp`, fsync it, rename onto `path`, and fsync the
/// parent directory so the rename itself is durable. (On non-Unix
/// targets directory fsync is skipped — opening a directory for sync is
/// a Unix capability.)
fn write_durably(tmp: &Path, path: &Path, bytes: &[u8]) -> Result<(), String> {
    use std::io::Write;
    let mut file =
        std::fs::File::create(tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    file.write_all(bytes)
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    file.sync_all()
        .map_err(|e| format!("fsync {}: {e}", tmp.display()))?;
    drop(file);
    std::fs::rename(tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))?;
    #[cfg(unix)]
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let dir = std::fs::File::open(parent)
            .map_err(|e| format!("open directory {}: {e}", parent.display()))?;
        dir.sync_all()
            .map_err(|e| format!("fsync directory {}: {e}", parent.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adalsh_data::{Dataset, FieldDistance, FieldKind, FieldValue, Record, Schema, ShingleSet};

    fn test_snapshot() -> ServeSnapshot {
        let schema = Schema::single("s", FieldKind::Shingles);
        let records: Vec<Record> = (0..4)
            .map(|i| Record::single(FieldValue::Shingles(ShingleSet::new(vec![i, i + 1, 100]))))
            .collect();
        let labels = (0..4).map(|i| i as u32 / 2).collect();
        let dataset = Dataset::new(schema, records, labels);
        let rule = MatchRule::threshold(0, FieldDistance::Jaccard, 0.6);
        let resolver = OnlineAdaLsh::new(&dataset, AdaLshConfig::new(rule.clone())).unwrap();
        ServeSnapshot::capture(&resolver, rule)
    }

    #[test]
    fn save_is_durable_and_roundtrips() {
        let dir = std::env::temp_dir().join(format!("adalsh-snap-ok-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let snapshot = test_snapshot();
        snapshot.save(&path).unwrap();
        assert!(
            !path.with_extension("tmp").exists(),
            "a successful save leaves no temp sibling"
        );
        let loaded = ServeSnapshot::load(&path).unwrap();
        assert_eq!(loaded.resolver.records.len(), 4);
        // Overwrite is just as atomic: the second save replaces in place.
        snapshot.save(&path).unwrap();
        assert!(!path.with_extension("tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `json` to a fresh file and loads it back.
    fn load_json(name: &str, json: &str) -> Result<ServeSnapshot, String> {
        let dir = std::env::temp_dir().join(format!("adalsh-snap-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        std::fs::write(&path, json).unwrap();
        let loaded = ServeSnapshot::load(&path);
        let _ = std::fs::remove_dir_all(&dir);
        loaded
    }

    /// `json` with a top-level `scheme` key, as builds that offered a
    /// second MinHash scheme wrote it.
    fn with_scheme(json: &str, scheme: &str) -> String {
        json.replacen(
            &format!("{{\"version\":{SNAPSHOT_VERSION},"),
            &format!("{{\"version\":{SNAPSHOT_VERSION},\"scheme\":{scheme},"),
            1,
        )
    }

    /// A snapshot without a `scheme` key, or with a classic one, resumes
    /// to exactly the captured state.
    #[test]
    fn absent_or_classic_scheme_resumes_bit_identically() {
        let snapshot = test_snapshot();
        let rule = snapshot.rule.clone();
        let json = serde_json::to_string(&snapshot).unwrap();
        assert!(!json.contains("scheme"), "the key is no longer written");
        for (name, text) in [
            ("absent", json.clone()),
            ("classic", with_scheme(&json, "\"classic\"")),
            ("Classic", with_scheme(&json, "\"Classic\"")),
        ] {
            let resolver = load_json(name, &text)
                .unwrap()
                .restore(AdaLshConfig::new(rule.clone()))
                .unwrap();
            let resumed = ServeSnapshot::capture(&resolver, rule.clone());
            assert_eq!(serde_json::to_string(&resumed).unwrap(), json, "{name}");
        }
    }

    /// A snapshot of DOPH hash states is refused with an error naming
    /// the scheme; a malformed scheme value is an error, not a panic.
    #[test]
    fn doph_scheme_snapshot_is_refused() {
        let json = serde_json::to_string(&test_snapshot()).unwrap();
        for scheme in ["doph", "Doph"] {
            let err = load_json(scheme, &with_scheme(&json, &format!("\"{scheme}\""))).unwrap_err();
            assert!(err.contains(&format!("'{scheme}'")), "{err}");
        }
        let err = load_json("malformed", &with_scheme(&json, "7")).unwrap_err();
        assert!(err.contains("malformed MinHash scheme"), "{err}");
    }

    /// A version-1 file, whose hash states nest their accumulators per
    /// level and group, is refused by its version before the resolver is
    /// decoded, not with an error about the states' shape.
    #[test]
    fn version_1_snapshot_is_refused() {
        let snapshot = test_snapshot();
        let rule = snapshot.rule.clone();
        let mut resolver = snapshot.restore(AdaLshConfig::new(rule.clone())).unwrap();
        resolver.query(1);
        let json = serde_json::to_string(&ServeSnapshot::capture(&resolver, rule)).unwrap();
        // Version 1 with each state's accumulators as `history`, nested
        // as one level of one group.
        let mut v1 = json.replacen(
            &format!("{{\"version\":{SNAPSHOT_VERSION},"),
            "{\"version\":1,",
            1,
        );
        while let Some(at) = v1.find("\"accs\":[") {
            let values = at + "\"accs\":[".len();
            let end = values + v1[values..].find(']').unwrap();
            let history = match &v1[values..end] {
                "" => "[]".to_string(),
                values => format!("[[[{values}]]]"),
            };
            v1 = format!("{}\"history\":{history}{}", &v1[..at], &v1[end + 1..]);
        }
        assert!(v1.starts_with("{\"version\":1,") && v1.contains("\"history\":[[["));
        let err = load_json("v1", &v1).unwrap_err();
        assert!(
            err.contains("snapshot version 1 unsupported (expected 2)"),
            "{err}"
        );
    }

    /// A save that fails after the temp file was written (here: the
    /// rename target is a non-empty directory) must clean up its `.tmp`
    /// sibling — a crash-prone snapshot path must not accumulate debris
    /// alongside the intact previous snapshot.
    #[test]
    fn failed_save_never_leaves_the_temp_file_behind() {
        let dir = std::env::temp_dir().join(format!("adalsh-snap-fail-{}", std::process::id()));
        // The target path IS a non-empty directory: rename must fail.
        let target = dir.join("snap.json");
        std::fs::create_dir_all(target.join("occupied")).unwrap();
        let err = test_snapshot().save(&target).unwrap_err();
        assert!(err.contains("rename"), "{err}");
        assert!(
            !target.with_extension("tmp").exists(),
            "failed save must remove its temp file"
        );
        assert!(target.is_dir(), "the failing target is untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
