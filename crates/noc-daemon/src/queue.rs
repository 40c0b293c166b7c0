//! Job model and the on-disk queue journal.
//!
//! A **job** is one submitted campaign: its spec, its expanded points, and
//! the scheduling state the workers drain point by point. The journal is
//! the crash-safety half of the queue: every submission and every terminal
//! state transition is persisted (atomic tmp + rename), so a daemon killed
//! at any moment restarts with the same queue. Per-point progress is
//! deliberately *not* journaled — the content-addressed result cache
//! already records exactly which points are done, so a resumed job's
//! completed points come back as cache hits and only the remainder
//! simulates again.

use dxbar_noc::noc_verify::cache_namespace;
use noc_campaign::io::{no_faults, store_atomic, IoOp, IoPolicy};
use noc_campaign::{CampaignSpec, PointFailure, PointOutcome, PointSpec};
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub type JobId = u64;

/// Scheduling class. `Interactive` jobs preempt `Batch` jobs *between
/// points*: the next free worker always serves the oldest interactive job
/// with runnable points before touching any batch sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    Interactive,
    Batch,
}

impl Priority {
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }

    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }

    /// Default class when the submitter does not choose: small jobs are
    /// interactive, big sweeps are batch.
    pub fn auto(unique_points: usize) -> Priority {
        if unique_points <= 64 {
            Priority::Interactive
        } else {
            Priority::Batch
        }
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    pub fn parse(s: &str) -> Option<JobState> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            _ => None,
        }
    }

    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Headline numbers of a finished (or restarted) job — everything the
/// status endpoint needs without the full outcome vector.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobSummary {
    pub total_points: usize,
    pub completed: usize,
    pub failed: usize,
    pub cache_hits: usize,
    /// Points this daemon actually simulated (not cached, not deduped).
    pub simulated: usize,
    pub violations: u64,
    pub checks: u64,
    pub wall_ms: u64,
    /// Failure detail per failed point (panic payloads + repro handle).
    pub failures: Vec<PointFailure>,
}

/// One submitted campaign and its scheduling state.
#[derive(Debug)]
pub struct Job {
    pub id: JobId,
    pub name: String,
    pub priority: Priority,
    pub verify: bool,
    /// Where the job came from ("http", "drop:<file>", "journal").
    pub source: String,
    pub spec: CampaignSpec,
    pub state: JobState,
    /// Submission order tiebreak within a priority class.
    pub seq: u64,
    /// Cache salt of this job (per-job verify namespacing).
    pub salt: String,

    // -- expansion (empty once the job is done or failed, finished here or
    // restored from the journal) --
    pub points: Vec<PointSpec>,
    pub keys: Vec<String>,
    /// In-run dedup: duplicate point index -> index of its original.
    pub share_from: Vec<Option<usize>>,
    /// Number of unique points (the work the scheduler dispatches).
    pub unique: usize,

    // -- scheduling --
    /// Unique point indices not yet dispatched.
    pub ready: VecDeque<usize>,
    /// Points found claimed by a sibling worker, with their retry time.
    pub deferred: VecDeque<(usize, Instant)>,
    pub in_flight: usize,
    /// Unique points resolved (simulated, cached, or failed).
    pub resolved: usize,

    // -- results --
    /// Per-point outcomes while the job runs; released with the expansion.
    pub outcomes: Vec<Option<PointOutcome>>,
    pub started: Option<Instant>,
    pub submitted_unix_ms: u64,
    pub summary: JobSummary,
    /// Rendered aggregate table (terminal jobs only; survives restart).
    pub results_text: Option<String>,
    /// Full provenance manifest JSON (terminal jobs only; not journaled).
    pub manifest_json: Option<String>,
    /// This job's journal record, kept from the first snapshot taken after
    /// the job turned terminal: from then on none of the journaled fields
    /// change, and every later snapshot would serialize them again.
    journal_record: OnceLock<Arc<str>>,
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl Job {
    /// Expand a spec into a schedulable job. `code_salt` is the campaign
    /// engine's code version; the job's effective cache namespace also
    /// folds in its own `verify` choice.
    // Every argument is a distinct submission attribute; bundling them in
    // an options struct would just move the field list.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: JobId,
        seq: u64,
        name: String,
        spec: CampaignSpec,
        priority: Option<Priority>,
        verify: bool,
        source: String,
        code_salt: &str,
    ) -> Result<Job, String> {
        spec.validate()?;
        let salt = cache_namespace(code_salt, verify);
        let points = spec.points();
        let keys: Vec<String> = points.iter().map(|p| p.cache_key(&salt)).collect();
        // In-run dedup, exactly as the batch executor does it: identical
        // points are dispatched once and the outcome shared at finalize.
        let mut first_of: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        let mut share_from: Vec<Option<usize>> = vec![None; points.len()];
        let mut ready: VecDeque<usize> = VecDeque::new();
        for (i, key) in keys.iter().enumerate() {
            match first_of.get(key.as_str()) {
                Some(&orig) => share_from[i] = Some(orig),
                None => {
                    first_of.insert(key, i);
                    ready.push_back(i);
                }
            }
        }
        let unique = ready.len();
        let n = points.len();
        Ok(Job {
            id,
            seq,
            name,
            priority: priority.unwrap_or_else(|| Priority::auto(unique)),
            verify,
            source,
            spec,
            state: JobState::Queued,
            salt,
            points,
            keys,
            share_from,
            unique,
            ready,
            deferred: VecDeque::new(),
            in_flight: 0,
            resolved: 0,
            outcomes: vec![None; n],
            started: None,
            submitted_unix_ms: unix_ms(),
            summary: JobSummary::default(),
            results_text: None,
            manifest_json: None,
            journal_record: OnceLock::new(),
        })
    }

    /// Whether the scheduler still owes this job work.
    pub fn is_runnable(&self) -> bool {
        matches!(self.state, JobState::Queued | JobState::Running)
            && (!self.ready.is_empty() || !self.deferred.is_empty())
    }

    /// All unique work is resolved and nothing is in flight.
    pub fn is_drained(&self) -> bool {
        self.resolved >= self.unique
            && self.in_flight == 0
            && self.ready.is_empty()
            && self.deferred.is_empty()
    }

    /// Progress fraction over unique points.
    pub fn progress(&self) -> f64 {
        if self.unique == 0 {
            1.0
        } else {
            self.resolved as f64 / self.unique as f64
        }
    }

    /// Naive elapsed-rate ETA in milliseconds (None before any progress).
    pub fn eta_ms(&self) -> Option<u64> {
        let started = self.started?;
        if self.resolved == 0 || self.resolved >= self.unique {
            return None;
        }
        let elapsed = started.elapsed().as_millis() as f64;
        let rate = self.resolved as f64 / elapsed.max(1.0);
        Some(((self.unique - self.resolved) as f64 / rate) as u64)
    }

    /// This job as an element of the journal's `jobs` array: pretty JSON at
    /// the element's nesting depth. (Strings escape their newlines, so every
    /// newline in the text is one the printer indented.)
    fn journal_record(&self) -> Arc<str> {
        let mut fields = vec![
            ("id".into(), Value::U64(self.id)),
            ("name".into(), Value::Str(self.name.clone())),
            ("priority".into(), Value::Str(self.priority.name().into())),
            ("verify".into(), Value::Bool(self.verify)),
            ("source".into(), Value::Str(self.source.clone())),
            ("state".into(), Value::Str(self.state.name().into())),
            (
                "submitted_unix_ms".into(),
                Value::U64(self.submitted_unix_ms),
            ),
            ("spec".into(), self.spec.to_value()),
        ];
        if self.state.is_terminal() {
            fields.push(("summary".into(), self.summary.to_value()));
            if let Some(t) = &self.results_text {
                fields.push(("results_text".into(), Value::Str(t.clone())));
            }
        }
        Value::Object(fields)
            .to_json_pretty()
            .replace('\n', "\n    ")
            .into()
    }
}

/// The serializable journal: queue + terminal-job records.
///
/// Writing is split in two so that no file I/O happens under the daemon's
/// queue lock: [`Journal::snapshot`] serializes under the lock and numbers
/// the result, [`Journal::commit`] writes it after the lock is released.
pub struct Journal {
    path: PathBuf,
    policy: Arc<dyn IoPolicy>,
    /// Generation of the next snapshot.
    next_generation: AtomicU64,
    /// Journal-order guard: the generation on disk. Held across the file
    /// write and never together with the queue lock.
    written: Mutex<u64>,
}

/// One serialized state of the queue, numbered in the order the states
/// were reached. The journal is the pretty JSON of `{version, next_id, seq,
/// drop_seen, jobs: [...]}`; a snapshot holds the head's text and one text
/// per job, so that a terminal job's is shared, not copied, while the queue
/// lock is held.
pub struct Snapshot {
    generation: u64,
    head: String,
    jobs: Vec<Arc<str>>,
}

impl Snapshot {
    /// The journal file's content.
    fn text(&self) -> String {
        let head = self
            .head
            .strip_suffix("\n}")
            .expect("a pretty object ends in a closing line");
        let jobs: usize = self.jobs.iter().map(|j| j.len() + 6).sum();
        let mut text = String::with_capacity(head.len() + jobs + 24);
        text.push_str(head);
        text.push_str(",\n  \"jobs\": [");
        for (i, job) in self.jobs.iter().enumerate() {
            text.push_str(if i == 0 { "\n    " } else { ",\n    " });
            text.push_str(job);
        }
        text.push_str(if self.jobs.is_empty() {
            "]\n}"
        } else {
            "\n  ]\n}"
        });
        text
    }
}

impl Journal {
    pub fn new(state_dir: &Path) -> Journal {
        Journal::with_policy(state_dir, no_faults())
    }

    /// Journal with an explicit storage fault seam (chaos harnesses).
    pub fn with_policy(state_dir: &Path, policy: Arc<dyn IoPolicy>) -> Journal {
        Journal {
            path: state_dir.join("journal.json"),
            policy,
            next_generation: AtomicU64::new(1),
            written: Mutex::new(0),
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Serialize the queue. Terminal jobs keep their summary and rendered
    /// results; live jobs keep their spec so a restart re-expands and
    /// resumes them (completed points return as cache hits). Call with the
    /// queue lock held, so that generations number the states in the order
    /// they were reached.
    pub fn snapshot(
        &self,
        jobs: &[Job],
        next_id: JobId,
        seq: u64,
        drop_seen: &[String],
    ) -> Snapshot {
        let head = Value::Object(vec![
            ("version".into(), Value::U64(1)),
            ("next_id".into(), Value::U64(next_id)),
            ("seq".into(), Value::U64(seq)),
            (
                "drop_seen".into(),
                Value::Array(drop_seen.iter().cloned().map(Value::Str).collect()),
            ),
        ])
        .to_json_pretty();
        let jobs = jobs
            .iter()
            .map(|j| {
                if j.state.is_terminal() {
                    j.journal_record.get_or_init(|| j.journal_record()).clone()
                } else {
                    j.journal_record()
                }
            })
            .collect();
        Snapshot {
            // Relaxed: the queue lock orders the callers.
            generation: self.next_generation.fetch_add(1, Ordering::Relaxed),
            head,
            jobs,
        }
    }

    /// Persist a snapshot, unless a later one already is: of two writers
    /// that left the queue lock in one order and reached the file in the
    /// other, the older must not win. Call without the queue lock.
    pub fn commit(&self, snapshot: Snapshot) {
        let mut written = self.written.lock().expect("journal writer panicked");
        if snapshot.generation <= *written {
            return;
        }
        let tmp = self
            .path
            .with_extension(format!("tmp.{}", std::process::id()));
        // Transient I/O errors (full disk being cleaned, EIO blips) are
        // retried with capped backoff; a store that still fails is reported
        // and the previous journal generation stays in place (atomic
        // rename), so the queue is never left half-written.
        match store_atomic(
            self.policy.as_ref(),
            IoOp::JournalStore,
            &tmp,
            &self.path,
            snapshot.text().as_bytes(),
        ) {
            Ok(_) => *written = snapshot.generation,
            Err(e) => eprintln!(
                "[daemon] warning: failed to persist journal {} after retries: {e}",
                self.path.display()
            ),
        }
    }

    /// Restore the queue. Live jobs (queued/running at crash or shutdown)
    /// come back `Queued` with a fresh expansion; terminal jobs come back
    /// as summary-only records. Unreadable journals are *salvaged*: every
    /// complete job object still present in the torn file is restored, so
    /// the daemon comes up and resumes surviving jobs even if its state
    /// file was truncated mid-write.
    pub fn load(&self, code_salt: &str) -> (Vec<Job>, JobId, u64, Vec<String>) {
        let fallback = (Vec::new(), 1, 0, Vec::new());
        let Ok(text) = std::fs::read_to_string(&self.path) else {
            return fallback;
        };
        let Ok(root) = serde_json::parse(&text) else {
            let salvaged = Self::salvage(&text, code_salt);
            eprintln!(
                "[daemon] warning: torn or corrupt journal {}; salvaged {} job(s)",
                self.path.display(),
                salvaged.0.len()
            );
            return salvaged;
        };
        let next_id = root.field("next_id").as_u64().unwrap_or(1);
        let seq = root.field("seq").as_u64().unwrap_or(0);
        let drop_seen: Vec<String> = root
            .field("drop_seen")
            .as_array()
            .unwrap_or(&[])
            .iter()
            .filter_map(|v| v.as_str().map(String::from))
            .collect();
        let mut jobs = Vec::new();
        for jv in root.field("jobs").as_array().unwrap_or(&[]) {
            let Some(job) = Self::load_job(jv, code_salt) else {
                continue;
            };
            jobs.push(job);
        }
        (jobs, next_id, seq, drop_seen)
    }

    /// Best-effort recovery from a journal that fails to parse as a whole
    /// (typically truncated by a crash mid-write on a filesystem without
    /// atomic rename, or by fault injection). Scans the `"jobs"` array
    /// region for balanced, complete JSON objects and restores every one
    /// that still decodes; the trailing half-written element is simply not
    /// yielded. Counters are recovered by digit scan, with `next_id`
    /// clamped above every salvaged job id so ids never collide.
    fn salvage(text: &str, code_salt: &str) -> (Vec<Job>, JobId, u64, Vec<String>) {
        let mut jobs: Vec<Job> = Vec::new();
        if let Some(start) = text.find("\"jobs\"") {
            for candidate in scan_array_objects(&text[start..]) {
                let Ok(jv) = serde_json::parse(candidate) else {
                    continue;
                };
                if let Some(job) = Self::load_job(&jv, code_salt) {
                    jobs.push(job);
                }
            }
        }
        let max_id = jobs.iter().map(|j| j.id).max().unwrap_or(0);
        let next_id = scan_u64(text, "\"next_id\"").unwrap_or(0).max(max_id + 1);
        let seq = scan_u64(text, "\"seq\"").unwrap_or(0);
        let drop_seen = scan_string_array(text, "\"drop_seen\"");
        (jobs, next_id, seq, drop_seen)
    }

    fn load_job(jv: &Value, code_salt: &str) -> Option<Job> {
        let id = jv.field("id").as_u64()?;
        let name = jv.field("name").as_str()?.to_string();
        let priority = Priority::parse(jv.field("priority").as_str()?)?;
        let verify = jv.field("verify").as_bool().unwrap_or(false);
        let source = jv.field("source").as_str().unwrap_or("journal").to_string();
        let state = JobState::parse(jv.field("state").as_str()?)?;
        let submitted = jv.field("submitted_unix_ms").as_u64().unwrap_or(0);
        let spec = CampaignSpec::from_value(jv.field("spec")).ok()?;
        if state.is_terminal() {
            // Summary-only record; points are not re-expanded.
            let summary = JobSummary::from_value(jv.field("summary")).unwrap_or_default();
            let results_text = jv.field("results_text").as_str().map(String::from);
            return Some(Job {
                id,
                seq: 0,
                name,
                priority,
                verify,
                source,
                salt: cache_namespace(code_salt, verify),
                spec,
                state,
                points: Vec::new(),
                keys: Vec::new(),
                share_from: Vec::new(),
                unique: 0,
                ready: VecDeque::new(),
                deferred: VecDeque::new(),
                in_flight: 0,
                resolved: 0,
                outcomes: Vec::new(),
                started: None,
                submitted_unix_ms: submitted,
                summary,
                results_text,
                manifest_json: None,
                journal_record: OnceLock::new(),
            });
        }
        // Live job: re-expand and resume from the cache.
        let mut job =
            Job::new(id, 0, name, spec, Some(priority), verify, source, code_salt).ok()?;
        job.submitted_unix_ms = submitted;
        Some(job)
    }
}

/// Slice out the top-level `{...}` elements of the first JSON array found
/// in `text`. String-aware (quotes, escapes), so braces inside string
/// values don't confuse the depth count; an unbalanced trailing object —
/// the torn tail of a truncated file — is not yielded.
fn scan_array_objects(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut i = match text.find('[') {
        Some(p) => p + 1,
        None => return Vec::new(),
    };
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escape = false;
    let mut obj_start: Option<usize> = None;
    while i < bytes.len() {
        let c = bytes[i];
        if in_str {
            if escape {
                escape = false;
            } else if c == b'\\' {
                escape = true;
            } else if c == b'"' {
                in_str = false;
            }
        } else {
            match c {
                b'"' => in_str = true,
                b'{' => {
                    if depth == 0 {
                        obj_start = Some(i);
                    }
                    depth += 1;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        if let Some(s) = obj_start.take() {
                            out.push(&text[s..=i]);
                        }
                    }
                }
                b']' if depth == 0 => break,
                _ => {}
            }
        }
        i += 1;
    }
    out
}

/// Recover `"<key>": <digits>` from possibly-torn JSON text by digit scan.
fn scan_u64(text: &str, quoted_key: &str) -> Option<u64> {
    let pos = text.find(quoted_key)?;
    let rest = text[pos + quoted_key.len()..]
        .trim_start()
        .strip_prefix(':')?
        .trim_start();
    let digits: &str = &rest[..rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len())];
    digits.parse().ok()
}

/// Recover a flat array of strings (`"<key>": ["a", "b"]`) from
/// possibly-torn JSON text. Returns empty if the array itself is torn.
fn scan_string_array(text: &str, quoted_key: &str) -> Vec<String> {
    let Some(pos) = text.find(quoted_key) else {
        return Vec::new();
    };
    let rest = &text[pos + quoted_key.len()..];
    let Some(open) = rest.find('[') else {
        return Vec::new();
    };
    let bytes = rest.as_bytes();
    let mut in_str = false;
    let mut escape = false;
    for i in open + 1..bytes.len() {
        let c = bytes[i];
        if in_str {
            if escape {
                escape = false;
            } else if c == b'\\' {
                escape = true;
            } else if c == b'"' {
                in_str = false;
            }
        } else if c == b'"' {
            in_str = true;
        } else if c == b']' {
            let Ok(v) = serde_json::parse(&rest[open..=i]) else {
                return Vec::new();
            };
            return v
                .as_array()
                .unwrap_or(&[])
                .iter()
                .filter_map(|s| s.as_str().map(String::from))
                .collect();
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The journal text is put together from per-job texts; it must be what
    /// the pretty printer gives for the whole tree, whatever the job count
    /// and whether a record is fresh or reused.
    #[test]
    fn assembled_journal_is_the_pretty_printed_tree() {
        let dir = std::env::temp_dir().join(format!("noc-journal-unit-{}", std::process::id()));
        let journal = Journal::new(&dir);
        let spec = || bench::specs::preset("smoke").expect("known preset");
        let job = |id, state| {
            let mut j = Job::new(
                id,
                id,
                "j\n1".into(),
                spec(),
                None,
                false,
                "t".into(),
                "salt",
            )
            .expect("valid spec");
            j.state = state;
            j.results_text = Some("a\tb\n  c\n".into());
            j
        };
        let mut jobs = Vec::new();
        let text = journal.snapshot(&jobs, 7, 3, &["x.json".into()]).text();
        let tree = serde_json::parse(&text).expect("journal parses");
        assert_eq!(tree.to_json_pretty(), text, "no jobs");
        assert_eq!(tree.field("jobs").as_array().map(<[Value]>::len), Some(0));
        jobs.push(job(1, JobState::Done));
        jobs.push(job(2, JobState::Queued));
        jobs.push(job(3, JobState::Cancelled));
        // The second round reuses the terminal jobs' records.
        for round in 0..2 {
            let text = journal.snapshot(&jobs, 7, 3, &[]).text();
            let tree = serde_json::parse(&text).expect("journal parses");
            assert_eq!(tree.to_json_pretty(), text, "round {round}");
            let states: Vec<_> = tree
                .field("jobs")
                .as_array()
                .expect("jobs array")
                .iter()
                .map(|j| j.field("state").as_str().map(String::from))
                .collect();
            assert_eq!(states.len(), 3);
            assert_eq!(states[1].as_deref(), Some("queued"));
        }
    }
}
