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
//!   even a hash collision degrades to a miss instead of a wrong result;
//! * a missing file is a quiet miss; an entry that cannot be read, or whose
//!   bytes are not UTF-8, is a detected one.
//!
//! A load is one pass over the entry's bytes ([`serde::Parser`]): the salt
//! is compared as borrowed text, the `point` block is read as a small tree,
//! and the result is decoded by `RunResult::from_parser` with the parser's
//! FNV-1a tap on, so the checksum covers exactly the canonical compact
//! rendering it always covered — without building or re-rendering a tree
//! of the result.
//!
//! Writes go through a temp file + atomic rename with capped-backoff
//! retries on I/O errors (see [`crate::io`]), so a campaign killed
//! mid-write never leaves a half-entry that poisons the next run, and a
//! transiently full or flaky disk self-heals instead of dropping entries.

use crate::fnv1a64;
use crate::io::{store_atomic, IoOp, IoPolicy, NoFaults};
use crate::spec::PointSpec;
use dxbar_noc::RunResult;
use serde::{Deserialize, Parser, Serialize, Tap, Value};
use std::borrow::Cow;
use std::io::ErrorKind;
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
    /// miss, never a panic or error. A missing file and another code
    /// version's entry are quiet misses; every other entry that is present
    /// but fails an integrity check (unreadable, unparseable, checksum
    /// mismatch, identity mismatch, undecodable) is reported to the I/O
    /// policy and logged with its path.
    pub fn load(&self, point: &PointSpec) -> Option<RunResult> {
        let key = point.cache_key(&self.salt);
        let path = self.entry_path(&key);
        let read = match std::fs::read(&path) {
            Ok(bytes) => self.read_entry(&bytes, point),
            Err(e) if e.kind() == ErrorKind::NotFound => return None,
            Err(_) => Err(Miss::Damaged("unreadable file")),
        };
        match read {
            Ok(result) => Some(result),
            // A different code version's entry under a colliding key:
            // stale, not corrupt — quietly miss.
            Err(Miss::Foreign) => None,
            Err(Miss::Damaged(what)) => {
                self.policy.on_detected(&path);
                eprintln!(
                    "[campaign] warning: {what} in cache entry {}; treated as a miss",
                    path.display()
                );
                None
            }
        }
    }

    /// Judge an entry in one pass over its bytes, building no tree of the
    /// result. Keys resolve as a tree lookup would (the first occurrence
    /// wins), and the verdicts rank as the checks ran when they were made
    /// on a parsed tree: unparseable, then foreign salt, then checksum,
    /// then identity, then decoding. Bytes that are not UTF-8 are
    /// unparseable.
    fn read_entry(&self, bytes: &[u8], point: &PointSpec) -> Result<RunResult, Miss> {
        let mut fields = EntryFields::default();
        let mut p = Parser::from_bytes(bytes);
        if fields.read(&mut p, &self.salt, point).is_err() {
            return Err(Miss::Damaged("unparseable (torn or corrupt) record"));
        }
        if fields.salt != Some(true) {
            return Err(Miss::Foreign);
        }
        // Payload integrity: the stored checksum must match the canonical
        // rendering of the result we are about to trust. An entry without
        // a result sums what a tree lookup of it renders: `null`.
        let (sum, result) = fields
            .result
            .unwrap_or_else(|| (fnv1a64(b"null"), RunResult::from_value(&Value::Null)));
        if fields.sum.flatten().as_deref() != Some(format!("{sum:016x}").as_str()) {
            return Err(Miss::Damaged("payload checksum mismatch"));
        }
        // Collision / tamper guard: the stored identity must match bit-for-
        // bit what we are asking for.
        if fields.point != Some(true) {
            return Err(Miss::Damaged("point identity mismatch"));
        }
        result.map_err(|_| Miss::Damaged("undecodable result payload"))
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

/// Why an entry that is there was not a hit.
enum Miss {
    /// Not this code version's entry (another salt, or none).
    Foreign,
    /// Failed an integrity check; the words name which.
    Damaged(&'static str),
}

/// The first occurrence of each key of an entry, as it was read.
#[derive(Default)]
struct EntryFields<'a> {
    /// The salt is ours.
    salt: Option<bool>,
    /// The point identity is the one asked for.
    point: Option<bool>,
    /// The stored checksum, when it is a string.
    sum: Option<Option<Cow<'a, str>>>,
    /// FNV-1a of the result's canonical rendering, and the result decoded.
    result: Option<(u64, Result<RunResult, serde::Error>)>,
}

impl<'a> EntryFields<'a> {
    /// Read the entry's top-level object to the end of the input. Anything
    /// but an object reads as an entry with no keys.
    fn read(
        &mut self,
        p: &mut Parser<'a>,
        salt: &str,
        point: &PointSpec,
    ) -> Result<(), serde::Error> {
        if p.peek() != Some(b'{') {
            p.skip()?;
            return p.end();
        }
        p.begin_object()?;
        while let Some(key) = p.next_key()? {
            match &*key {
                // Another version's entry: only whether it parses is left.
                _ if self.salt == Some(false) => p.skip()?,
                "salt" if self.salt.is_none() => {
                    self.salt = Some(if p.peek() == Some(b'"') {
                        p.str()? == salt
                    } else {
                        p.skip().map(|()| false)?
                    });
                }
                "point" if self.point.is_none() => {
                    self.point = Some(p.value()? == point.cache_identity());
                }
                "sum" if self.sum.is_none() => {
                    self.sum = Some(if p.peek() == Some(b'"') {
                        Some(p.str()?)
                    } else {
                        p.skip().map(|()| None)?
                    });
                }
                "result" if self.result.is_none() => self.result = Some(read_result(p)?),
                _ => p.skip()?,
            }
        }
        p.end()
    }
}

/// Decode a result payload and checksum it in the same pass. A payload that
/// does not decode is read once more as plain JSON, so its checksum still
/// covers every byte a tree of it would render.
fn read_result(p: &mut Parser<'_>) -> Result<(u64, Result<RunResult, serde::Error>), serde::Error> {
    let start = p.clone();
    p.tap(Tap::FNV1A);
    let result = RunResult::from_parser(p);
    if result.is_err() {
        *p = start;
        p.tap(Tap::FNV1A);
        p.skip()?;
    }
    match p.untap() {
        Some(Tap::Fnv1a(sum)) => Ok((sum, result)),
        _ => Err(serde::Error::msg("checksum tap lost")),
    }
}
