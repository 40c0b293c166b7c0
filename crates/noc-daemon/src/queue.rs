//! Job model and the on-disk queue journal.
//!
//! A **job** is one submitted campaign: its spec, its expanded points, and
//! the scheduling state the workers drain point by point. The journal is
//! the crash-safety half of the queue: every submission and every terminal
//! state transition appends one checksummed record to `journal.log`, so a
//! daemon killed at any moment restarts with the same queue, and what a
//! record costs does not depend on how many came before it. Per-point
//! progress is deliberately *not* journaled — the content-addressed result
//! cache already records exactly which points are done, so a resumed job's
//! completed points come back as cache hits and only the remainder
//! simulates again.

use dxbar_noc::noc_verify::cache_namespace;
use noc_campaign::io::{append_record, store_atomic, IoOp, IoPolicy};
use noc_campaign::{fnv1a64, CampaignSpec, PointFailure, PointOutcome, PointSpec};
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

/// One submitted campaign: the row every view of it is served from, and —
/// while it is live — the work the scheduler still owes it.
#[derive(Debug)]
pub struct Job {
    pub id: JobId,
    pub name: String,
    pub priority: Priority,
    pub verify: bool,
    /// Where the job came from ("http", "drop:<file>", "journal").
    pub source: String,
    pub state: JobState,
    /// Submission order tiebreak within a priority class.
    pub seq: u64,
    pub submitted_unix_ms: u64,
    pub total_points: usize,
    /// Number of unique points (the work the scheduler dispatches).
    pub unique: usize,
    /// Unique points resolved (simulated, cached, or failed).
    pub resolved: usize,
    /// Points handed to a worker that have not come back.
    pub in_flight: usize,
    /// Resolved points that were cache hits.
    pub cache_hits: usize,
    pub summary: JobSummary,
    /// `None` once the job is terminal: a finished job is its row.
    pub work: Option<Box<Work>>,
    pub(crate) outputs: Outputs,
}

/// What only a job with work left holds: the spec, its expansion, the
/// scheduling state and the per-point outcomes.
#[derive(Debug)]
pub struct Work {
    pub spec: CampaignSpec,
    pub points: Vec<PointSpec>,
    pub keys: Vec<String>,
    /// In-run dedup: duplicate point index -> index of its original.
    pub share_from: Vec<Option<usize>>,
    /// Unique point indices not yet dispatched.
    pub ready: VecDeque<usize>,
    /// Points found claimed by a sibling worker, with their retry time.
    pub deferred: VecDeque<(usize, Instant)>,
    pub outcomes: Vec<Option<PointOutcome>>,
    pub started: Option<Instant>,
}

/// A terminal job's results table and manifest. The journal is written
/// after the queue lock is released, so a job holds them until its `end`
/// record is in the log — for good if that append failed — and serves them
/// from the record from then on.
#[derive(Debug)]
pub(crate) enum Outputs {
    Held {
        /// Rendered aggregate table.
        results_text: Option<String>,
        /// Full provenance manifest JSON.
        manifest_json: Option<String>,
    },
    /// Where in `journal.log` the record with both stands.
    Logged { at: Range<u64>, has_results: bool },
}

impl Outputs {
    pub(crate) fn has_results(&self) -> bool {
        match self {
            Outputs::Held { results_text, .. } => results_text.is_some(),
            Outputs::Logged { has_results, .. } => *has_results,
        }
    }
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
            state: JobState::Queued,
            submitted_unix_ms: unix_ms(),
            total_points: n,
            unique,
            resolved: 0,
            in_flight: 0,
            cache_hits: 0,
            summary: JobSummary::default(),
            work: Some(Box::new(Work {
                spec,
                points,
                keys,
                share_from,
                ready,
                deferred: VecDeque::new(),
                outcomes: vec![None; n],
                started: None,
            })),
            outputs: Outputs::Held {
                results_text: None,
                manifest_json: None,
            },
        })
    }

    /// Whether the scheduler still owes this job work.
    pub fn is_runnable(&self) -> bool {
        matches!(self.state, JobState::Queued | JobState::Running)
            && self
                .work
                .as_ref()
                .is_some_and(|w| !w.ready.is_empty() || !w.deferred.is_empty())
    }

    /// All unique work is resolved and nothing is in flight.
    pub fn is_drained(&self) -> bool {
        self.resolved >= self.unique
            && self.in_flight == 0
            && self
                .work
                .as_ref()
                .is_none_or(|w| w.ready.is_empty() && w.deferred.is_empty())
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
        let started = self.work.as_ref()?.started?;
        if self.resolved == 0 || self.resolved >= self.unique {
            return None;
        }
        let elapsed = started.elapsed().as_millis() as f64;
        let rate = self.resolved as f64 / elapsed.max(1.0);
        Some(((self.unique - self.resolved) as f64 / rate) as u64)
    }

    /// Fields of this (live) job's `job` record: what a restart needs to
    /// queue it again.
    pub(crate) fn job_record(&self) -> Vec<(String, Value)> {
        let work = self.work.as_ref().expect("a job is recorded while live");
        vec![
            ("id".into(), Value::U64(self.id)),
            ("name".into(), Value::Str(self.name.clone())),
            ("priority".into(), Value::Str(self.priority.name().into())),
            ("verify".into(), Value::Bool(self.verify)),
            ("source".into(), Value::Str(self.source.clone())),
            (
                "submitted_unix_ms".into(),
                Value::U64(self.submitted_unix_ms),
            ),
            ("spec".into(), work.spec.to_value()),
        ]
    }

    /// Fields of this (terminal) job's `end` record: everything it serves
    /// that its `job` record does not hold.
    pub(crate) fn end_record(&self) -> Vec<(String, Value)> {
        let mut fields = vec![
            ("id".into(), Value::U64(self.id)),
            ("state".into(), Value::Str(self.state.name().into())),
            ("unique_points".into(), Value::U64(self.unique as u64)),
            ("resolved".into(), Value::U64(self.resolved as u64)),
            ("summary".into(), self.summary.to_value()),
        ];
        if let Outputs::Held {
            results_text,
            manifest_json,
        } = &self.outputs
        {
            for (name, text) in [("results_text", results_text), ("manifest", manifest_json)] {
                if let Some(text) = text {
                    fields.push((name.into(), Value::Str(text.clone())));
                }
            }
        }
        fields
    }

    /// Heap bytes this job owns, counted shallowly: what a finished job
    /// costs the daemon for as long as it runs.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let work = self.work.as_ref().map_or(0, |w| {
            size_of::<Work>()
                + w.points.capacity() * size_of::<PointSpec>()
                + w.keys.capacity() * size_of::<String>()
                + w.outcomes.capacity() * size_of::<Option<PointOutcome>>()
        });
        let held = match &self.outputs {
            Outputs::Held {
                results_text,
                manifest_json,
            } => [results_text, manifest_json]
                .into_iter()
                .flatten()
                .map(String::capacity)
                .sum(),
            Outputs::Logged { .. } => 0,
        };
        self.name.capacity()
            + self.source.capacity()
            + self.summary.failures.capacity() * size_of::<PointFailure>()
            + work
            + held
    }
}

/// The queue journal: an append-only log of one-line records,
///
/// ```text
/// record   = "\n" checksum " " json "\n"
/// checksum = fnv1a64(json) as 16 hex digits
/// json     = compact object {"op": "job" | "end" | "drop", "gen": N, ...}
/// ```
///
/// `job` holds [`Job::job_record`] (written at submission), `end` holds
/// [`Job::end_record`] (written when the job turns terminal) and `drop`
/// holds the `file` name of an ingested spec-drop file; the `job` record
/// compaction leaves of a terminal job holds the fields of both its records.
/// The leading newline ends whatever fragment a torn write left before the
/// record, so a damaged record costs exactly itself.
///
/// Writing is split in two so that no file I/O happens under the daemon's
/// queue lock: [`Journal::record`] numbers a record under the lock,
/// [`Journal::append`] writes it after the lock is released. Records may
/// therefore land out of order; `gen` is the order they were made in.
/// [`Journal::read`] reads one job's record back, for whoever serves what
/// a finished job no longer holds in memory.
pub struct Journal {
    path: PathBuf,
    policy: Arc<dyn IoPolicy>,
    /// `gen` of the next record.
    next_gen: AtomicU64,
    /// The log, open for appending. Held across one record's write and
    /// never together with the queue lock.
    log: Mutex<File>,
}

/// What [`Journal::open`] restores: jobs by ascending id, the first unused
/// id, and the spec-drop files already ingested.
pub struct Restored {
    pub jobs: Vec<Job>,
    pub next_id: JobId,
    pub drop_seen: Vec<String>,
}

fn encode(record: &Value) -> String {
    let json = record.to_json();
    format!("\n{:016x} {json}\n", fnv1a64(json.as_bytes()))
}

/// One log line back into its record; `None` unless the checksum holds.
fn decode(line: &[u8]) -> Option<Value> {
    let (sum, json) = (line.get(..16)?, line.get(17..)?);
    let sum = u64::from_str_radix(std::str::from_utf8(sum).ok()?, 16).ok()?;
    if line[16] != b' ' || sum != fnv1a64(json) {
        return None;
    }
    serde_json::parse(std::str::from_utf8(json).ok()?).ok()
}

impl Journal {
    /// Read `<state_dir>/journal.log`, compact it, and open it for
    /// appending. Live jobs (queued/running at crash or shutdown) come back
    /// `Queued` with a fresh expansion; terminal jobs come back as
    /// summary-only records. Every line is checked on its own: one that
    /// fails its checksum is skipped and reported, and costs nothing else.
    /// The log is then rewritten (atomic tmp + rename) as one `job` record
    /// per surviving job and one `drop` record per ingested file.
    pub fn open(
        state_dir: &Path,
        policy: Arc<dyn IoPolicy>,
        code_salt: &str,
    ) -> std::io::Result<(Journal, Restored)> {
        let path = state_dir.join("journal.log");
        let old = state_dir.join("journal.json");
        if old.exists() {
            eprintln!(
                "[daemon] warning: ignoring {} (whole-file journal of an older daemon); \
                 resubmit its jobs, every finished point is a cache hit",
                old.display()
            );
        }
        let bytes = std::fs::read(&path).unwrap_or_default();
        let mut records = Vec::new();
        let mut damaged = 0usize;
        for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            match decode(line).and_then(|r| Some((r.field("gen").as_u64()?, r))) {
                Some(numbered) => records.push(numbered),
                None => {
                    damaged += 1;
                    policy.on_detected(&path);
                }
            }
        }
        if damaged > 0 {
            eprintln!(
                "[daemon] warning: skipped {damaged} torn or corrupt record(s) in {}",
                path.display()
            );
        }
        records.sort_by_key(|&(gen, _)| gen);
        let mut next_gen = records.last().map_or(1, |&(gen, _)| gen + 1);

        // Fold: an `end` record belongs to the `job` record of its id.
        let mut folded: BTreeMap<JobId, (Value, Option<Value>)> = BTreeMap::new();
        let mut drop_seen: Vec<String> = Vec::new();
        let mut max_id = 0;
        for (_, record) in records {
            let id = record.field("id").as_u64();
            max_id = max_id.max(id.unwrap_or(0));
            let op = record.field("op").as_str().unwrap_or_default().to_string();
            match (op.as_str(), id) {
                ("job", Some(id)) => {
                    folded.entry(id).or_insert((record, None));
                }
                ("end", Some(id)) => {
                    if let Some((_, end)) = folded.get_mut(&id) {
                        *end = Some(record);
                    }
                }
                ("drop", _) => {
                    if let Some(file) = record.field("file").as_str() {
                        if !drop_seen.iter().any(|seen| seen == file) {
                            drop_seen.push(file.to_string());
                        }
                    }
                }
                _ => {}
            }
        }

        // Compact: one `drop` record per ingested file, then one `job`
        // record per surviving job — the records as they were read, not as
        // a `Job` would write them again.
        let mut compact = String::new();
        let mut push = |op: &str, fields: Vec<(String, Value)>| {
            let start = compact.len() as u64;
            compact.push_str(&encode(&numbered(op, next_gen, fields)));
            next_gen += 1;
            start..compact.len() as u64
        };
        for file in &drop_seen {
            push("drop", drop_record(file));
        }
        let mut jobs: Vec<Job> = Vec::new();
        let mut logged: Vec<Range<u64>> = Vec::new();
        for (job, end) in folded.into_values() {
            let record = fold(job, end);
            if let Some(job) = Self::load_job(&record, code_salt) {
                let Value::Object(fields) = record else {
                    unreachable!("fold makes an object");
                };
                jobs.push(job);
                logged.push(push("job", fields));
            }
        }
        if !bytes.is_empty() {
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            match store_atomic(
                policy.as_ref(),
                IoOp::JournalStore,
                &tmp,
                &path,
                compact.as_bytes(),
            ) {
                // The terminal jobs are in the log: let go of what was
                // read out of it.
                Ok(_) => {
                    for (job, at) in jobs.iter_mut().zip(logged) {
                        if job.state.is_terminal() {
                            let has_results = job.outputs.has_results();
                            job.outputs = Outputs::Logged { at, has_results };
                        }
                    }
                }
                // A compaction that fails leaves the log as it was read,
                // which is as good a log; the records made from here on are
                // numbered past both.
                Err(e) => eprintln!(
                    "[daemon] warning: failed to compact journal {} after retries: {e}",
                    path.display()
                ),
            }
        }
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let journal = Journal {
            path,
            policy,
            next_gen: AtomicU64::new(next_gen),
            log: Mutex::new(log),
        };
        let restored = Restored {
            jobs,
            next_id: max_id + 1,
            drop_seen,
        };
        Ok((journal, restored))
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Make the record of one queue transition. Call with the queue lock
    /// held, so that `gen` numbers the transitions in the order they
    /// happened.
    pub fn record(&self, op: &str, fields: Vec<(String, Value)>) -> Value {
        // Relaxed: the queue lock orders the callers.
        numbered(op, self.next_gen.fetch_add(1, Ordering::Relaxed), fields)
    }

    /// Append a record to the log with one write and return where it
    /// stands, `None` if it could not be written. Call without the queue
    /// lock.
    pub fn append(&self, record: &Value) -> Option<Range<u64>> {
        let line = encode(record);
        let mut log = self.log.lock().expect("journal writer panicked");
        let start = log.seek(SeekFrom::End(0));
        // Transient I/O errors (full disk being cleaned, EIO blips) are
        // retried with capped backoff; a record that still fails is
        // reported and the log stays as it was.
        if let Err(e) = append_record(
            self.policy.as_ref(),
            IoOp::JournalStore,
            &mut log,
            &self.path,
            line.as_bytes(),
        ) {
            eprintln!(
                "[daemon] warning: failed to append to journal {} after retries: {e}",
                self.path.display()
            );
            return None;
        }
        // An appending write leaves the position at the end of the file.
        Some(start.ok()?..log.stream_position().ok()?)
    }

    /// Read job `id`'s record back from where [`Journal::append`] or the
    /// compaction put it: the last line in the range (a failed attempt's
    /// fragment may stand before it), checked like every line at load.
    /// `None`, and reported to the policy, if it does not hold. Call
    /// without the queue lock.
    pub fn read(&self, id: JobId, at: &Range<u64>) -> Option<Value> {
        let read = || {
            let mut bytes = vec![0u8; usize::try_from(at.end.checked_sub(at.start)?).ok()?];
            let mut log = File::open(&self.path).ok()?;
            log.seek(SeekFrom::Start(at.start)).ok()?;
            log.read_exact(&mut bytes).ok()?;
            let line = bytes.rsplit(|&b| b == b'\n').find(|l| !l.is_empty())?;
            decode(line).filter(|record| record.field("id").as_u64() == Some(id))
        };
        let record = read();
        if record.is_none() {
            self.policy.on_detected(&self.path);
        }
        record
    }

    /// A job from its folded record ([`fold`]). A live job is expanded
    /// again and resumes from the cache; a terminal one comes back as its
    /// row, holding its outputs until the caller knows them logged.
    fn load_job(record: &Value, code_salt: &str) -> Option<Job> {
        let field = |name: &str| record.field(name);
        let id = field("id").as_u64()?;
        let name = field("name").as_str()?.to_string();
        let priority = Priority::parse(field("priority").as_str()?)?;
        let verify = field("verify").as_bool().unwrap_or(false);
        let source = field("source").as_str().unwrap_or("journal").to_string();
        let submitted_unix_ms = field("submitted_unix_ms").as_u64().unwrap_or(0);
        let spec = CampaignSpec::from_value(field("spec")).ok()?;
        let state = match field("state") {
            Value::Null => JobState::Queued,
            state => JobState::parse(state.as_str()?)?,
        };
        if !state.is_terminal() {
            let mut job =
                Job::new(id, 0, name, spec, Some(priority), verify, source, code_salt).ok()?;
            job.submitted_unix_ms = submitted_unix_ms;
            return Some(job);
        }
        let summary = JobSummary::from_value(field("summary")).unwrap_or_default();
        let text = |name: &str| field(name).as_str().map(String::from);
        Some(Job {
            id,
            seq: 0,
            name,
            priority,
            verify,
            source,
            state,
            submitted_unix_ms,
            total_points: summary.total_points,
            unique: field("unique_points").as_u64().unwrap_or(0) as usize,
            resolved: field("resolved").as_u64().unwrap_or(0) as usize,
            in_flight: 0,
            cache_hits: summary.cache_hits,
            summary,
            work: None,
            outputs: Outputs::Held {
                results_text: text("results_text"),
                manifest_json: text("manifest"),
            },
        })
    }
}

/// A job's one record after compaction, less `op` and `gen`: the fields of
/// its `job` record and, behind them, those of its `end` record if it has
/// one.
fn fold(job: Value, end: Option<Value>) -> Value {
    let fields = |record: Value, skip: &'static [&'static str]| {
        let Value::Object(fields) = record else {
            return Vec::new();
        };
        fields
            .into_iter()
            .filter(move |(k, _)| !skip.contains(&k.as_str()))
            .collect::<Vec<_>>()
    };
    let mut folded = fields(job, &["op", "gen"]);
    folded.extend(end.map_or_else(Vec::new, |end| fields(end, &["op", "gen", "id"])));
    Value::Object(folded)
}

/// Fields of the `drop` record of one ingested spec-drop file.
pub(crate) fn drop_record(file: &str) -> Vec<(String, Value)> {
    vec![("file".into(), Value::Str(file.into()))]
}

fn numbered(op: &str, gen: u64, fields: Vec<(String, Value)>) -> Value {
    let mut record = vec![
        ("op".into(), Value::Str(op.into())),
        ("gen".into(), Value::U64(gen)),
    ];
    record.extend(fields);
    Value::Object(record)
}
