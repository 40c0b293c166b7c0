//! Content-addressed on-disk result cache.
//!
//! Layout: one JSON file per point under the cache directory,
//! `<dir>/<key>.json`, where `<key>` is [`PointSpec::cache_key`] — the
//! salted stable hash of the point's full configuration. Each entry stores
//! the salt, the canonical point identity, an FNV-1a checksum of the
//! serialized result, and the serialized [`RunResult`]:
//!
//! ```json
//! { "salt": "dxbar-sim-v5", "point": { ... }, "sum": "8d3f...", "result": { ... } }
//! ```
//!
//! Invalidation rules:
//! * any change to the point's identity (design, workload, load, fault
//!   fraction, seed, tag, any `SimConfig` field) changes the key → miss;
//! * a [`crate::CODE_VERSION`] bump changes every key → full re-run;
//! * a corrupted, truncated or otherwise unreadable entry is treated as a
//!   miss (and re-run overwrites it), never as an error — and the
//!   detection is *logged* with the offending path, so bit-rot is visible
//!   in campaign output instead of silently costing a re-simulation;
//! * the payload checksum (`sum`, FNV-1a 64 over the canonical result
//!   JSON) catches corruption that still parses — a bit-flipped latency
//!   value becomes a miss, never a wrong aggregate;
//! * on load the stored identity is compared against the requested one, so
//!   even a hash collision degrades to a miss instead of a wrong result.
//!
//! Writes go through a temp file + atomic rename with capped-backoff
//! retries on I/O errors (see [`crate::io`]), so a campaign killed
//! mid-write never leaves a half-entry that poisons the next run, and a
//! transiently full or flaky disk self-heals instead of dropping entries.

use crate::fnv1a64;
use crate::io::{store_atomic, IoOp, IoPolicy, NoFaults};
use crate::spec::PointSpec;
use dxbar_noc::RunResult;
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Handle to one cache directory with a fixed code salt.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    salt: String,
    policy: Arc<dyn IoPolicy>,
}

/// Checksum string stored in the `sum` field: FNV-1a 64 over the canonical
/// JSON rendering of the result value, as fixed-width hex.
fn payload_sum(result: &Value) -> String {
    format!("{:016x}", fnv1a64(result.to_json().as_bytes()))
}

impl ResultCache {
    /// Open (and create if needed) the cache directory with the production
    /// (no-fault) I/O policy.
    pub fn open(dir: impl Into<PathBuf>, salt: impl Into<String>) -> std::io::Result<ResultCache> {
        ResultCache::open_with(dir, salt, Arc::new(NoFaults))
    }

    /// Open with an explicit [`IoPolicy`] (fault-injection harnesses).
    pub fn open_with(
        dir: impl Into<PathBuf>,
        salt: impl Into<String>,
        policy: Arc<dyn IoPolicy>,
    ) -> std::io::Result<ResultCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir,
            salt: salt.into(),
            policy,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Look up a point. Any kind of unreadable or mismatching entry is a
    /// miss, never a panic or error. Entries that are present but fail an
    /// integrity check (unparseable, checksum mismatch, identity mismatch)
    /// are reported to the I/O policy and logged with their path.
    pub fn load(&self, point: &PointSpec) -> Option<RunResult> {
        let key = point.cache_key(&self.salt);
        let path = self.entry_path(&key);
        let text = std::fs::read_to_string(&path).ok()?;
        let detected = |what: &str| {
            self.policy.on_detected(&path);
            eprintln!(
                "[campaign] warning: {what} in cache entry {}; treated as a miss",
                path.display()
            );
        };
        let Ok(v) = serde_json::parse(&text) else {
            detected("unparseable (torn or corrupt) record");
            return None;
        };
        if v.field("salt").as_str() != Some(self.salt.as_str()) {
            // A different code version's entry under a colliding key: stale,
            // not corrupt — quietly miss.
            return None;
        }
        // Payload integrity: the stored checksum must match the canonical
        // rendering of the result we are about to trust.
        let result = v.field("result");
        if v.field("sum").as_str() != Some(payload_sum(result).as_str()) {
            detected("payload checksum mismatch");
            return None;
        }
        // Collision / tamper guard: the stored identity must match bit-for-
        // bit what we are asking for.
        if *v.field("point") != point.cache_identity() {
            detected("point identity mismatch");
            return None;
        }
        match RunResult::from_value(result) {
            Ok(r) => Some(r),
            Err(_) => {
                detected("undecodable result payload");
                None
            }
        }
    }

    /// Store a completed point. Transient I/O errors are retried with
    /// capped exponential backoff ([`crate::io::store_atomic`]); a store
    /// that still fails is reported but non-fatal to the caller (a full
    /// disk should not kill a campaign's in-memory results).
    pub fn store(&self, point: &PointSpec, result: &RunResult) {
        let key = point.cache_key(&self.salt);
        let result_v = result.to_value();
        let entry = Value::Object(vec![
            ("salt".into(), Value::Str(self.salt.clone())),
            ("point".into(), point.cache_identity()),
            ("sum".into(), Value::Str(payload_sum(&result_v))),
            ("result".into(), result_v),
        ]);
        let final_path = self.entry_path(&key);
        // Unique temp name per thread so parallel writers of the same key
        // (possible when two campaigns share a cache) never interleave.
        let tmp_path = self.dir.join(format!(
            "{key}.tmp.{}.{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        if let Err(e) = store_atomic(
            self.policy.as_ref(),
            IoOp::CacheStore,
            &tmp_path,
            &final_path,
            entry.to_json_pretty().as_bytes(),
        ) {
            eprintln!(
                "[campaign] warning: failed to cache {} after retries: {e}",
                final_path.display()
            );
        }
    }

    /// Number of well-formed-looking entries currently on disk (tests and
    /// progress reporting).
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("json"))
                    .count()
            })
            .unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
