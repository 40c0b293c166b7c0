//! # noc-daemon — the always-on campaign service
//!
//! Where `campaign_run` is a batch tool (expand → simulate → print →
//! exit), this crate owns campaigns as long-lived **jobs**:
//!
//! * an HTTP/1.1 control plane ([`http`], hand-rolled over `std::net`)
//!   accepts [`noc_campaign::CampaignSpec`] JSON (or a preset name) on
//!   `POST /jobs` and serves status, progress/ETA, aggregated results and
//!   rendered figure text on `GET` endpoints;
//! * a priority queue ([`queue`]) lets small interactive jobs preempt big
//!   sweeps *between points* — no point is ever aborted, but the next free
//!   worker always serves the most urgent job;
//! * worker threads ([`scheduler`]) drive the campaign engine one point at
//!   a time through [`noc_campaign::execute_point`], claiming each point
//!   with an advisory file lock in the shared cache directory — several
//!   daemon processes pointed at one cache shard a sweep with zero
//!   duplicate computation (cooperative cache sharding, see
//!   `noc_campaign::coop`);
//! * the queue is journaled ([`queue::Journal`], an append-only log): a
//!   restarted daemon — drained by SIGTERM/ctrl-c or killed — resumes
//!   unfinished jobs, re-using every already-cached point;
//! * figure text ([`figures`]) is regenerated incrementally — a finished
//!   job marks exactly the figures to whose memoized render it added a
//!   point.
//!
//! A spec-drop directory is watched as a second ingestion path: drop a
//! `*.json` campaign spec into it and the daemon queues it as a job.

pub mod api;
pub mod figures;
pub mod http;
mod log;
pub mod queue;
pub mod scheduler;
pub mod signals;

use crate::figures::FigureRegistry;
use crate::queue::{drop_record, Job, JobId, JobState, Journal, Outputs, Priority, Restored};
use dxbar_noc::noc_verify::cache_namespace;
use noc_campaign::io::IoPolicy;
use noc_campaign::{no_faults, CacheLocks, CampaignSpec, ResultCache, CODE_VERSION};
use serde::{Serialize, Value};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything a daemon instance needs to know at startup.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address; port 0 picks a free port (tests).
    pub addr: String,
    /// Journal + endpoint file directory.
    pub state_dir: PathBuf,
    /// Shared content-addressed result cache (may be shared with other
    /// daemon processes and with `campaign_run --coop`).
    pub cache_dir: PathBuf,
    /// Optional spec-drop directory to watch for `*.json` campaign specs.
    pub drop_dir: Option<PathBuf>,
    /// Worker threads simulating points.
    pub workers: usize,
    /// Default verify mode for jobs that do not choose (`"verify"` field).
    pub verify_default: bool,
    /// Largest accepted HTTP request body in bytes.
    pub max_body: usize,
    /// Code-version cache salt (tests override; production uses
    /// [`noc_campaign::CODE_VERSION`]).
    pub code_salt: String,
    /// Spec-drop directory poll interval.
    pub drop_poll_ms: u64,
    /// When set, mutating endpoints (`POST /jobs`, `POST /jobs/<id>/cancel`,
    /// `POST /shutdown`) require `Authorization: Bearer <token>`; read-only
    /// endpoints stay open. `None` (the default) disables authentication.
    pub auth_token: Option<String>,
    /// Hard wall-clock budget for reading one HTTP request (slowloris
    /// defense, `408` on breach) and for writing one response.
    pub request_timeout_ms: u64,
    /// Storage fault seam threaded into the result caches, claim locks and
    /// journal. Production keeps [`noc_campaign::no_faults`]; chaos
    /// harnesses inject a seeded plan here.
    pub io_policy: Arc<dyn IoPolicy>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:7077".into(),
            state_dir: PathBuf::from("noc-daemon-state"),
            cache_dir: PathBuf::from("noc-daemon-state/cache"),
            drop_dir: None,
            workers: 2,
            verify_default: false,
            max_body: 1024 * 1024,
            code_salt: CODE_VERSION.to_string(),
            drop_poll_ms: 500,
            auth_token: None,
            request_timeout_ms: 10_000,
            io_policy: no_faults(),
        }
    }
}

/// Mutable daemon state behind the one mutex. Every request and every
/// worker goes through it, so nothing that can block is done under it: no
/// file, socket or log I/O. The figure registry's leaf mutex and the log's
/// line buffer are the only locks taken while it is held.
pub(crate) struct Inner {
    /// Every job this daemon knows, by ascending id; none is ever removed.
    pub jobs: Vec<Job>,
    pub next_id: JobId,
    pub seq: u64,
    /// Spec-drop files already ingested (by file name).
    pub drop_seen: Vec<String>,
    /// No job before this index is live. Jobs only ever turn terminal, so
    /// the cursor only moves forward; [`Inner::live`] moves it.
    first_live: usize,
    /// The `GET /jobs` rows of `jobs[..listed_jobs]`, every one of them
    /// finished: rendered once, one text per listing that found new ones.
    listed: Vec<Arc<str>>,
    listed_jobs: usize,
}

impl Inner {
    /// Index of job `id`.
    pub fn find(&self, id: JobId) -> Option<usize> {
        self.jobs.binary_search_by_key(&id, |j| j.id).ok()
    }

    /// The jobs from the first live one on: whoever looks for live jobs
    /// walks these, not the finished ones before them.
    pub fn live(&mut self) -> &mut [Job] {
        while self
            .jobs
            .get(self.first_live)
            .is_some_and(|j| j.state.is_terminal())
        {
            self.first_live += 1;
        }
        &mut self.jobs[self.first_live..]
    }
}

/// Shared state of one daemon instance.
pub struct DaemonState {
    pub(crate) cfg: DaemonConfig,
    pub(crate) inner: Mutex<Inner>,
    pub(crate) cv: Condvar,
    draining: AtomicBool,
    pub(crate) journal: Journal,
    pub(crate) locks: CacheLocks,
    cache_plain: ResultCache,
    cache_verified: ResultCache,
    pub(crate) figures: FigureRegistry,
    pub(crate) log: log::Log,
    started: Instant,
}

impl DaemonState {
    /// Open caches/locks/journal and restore the queue.
    pub fn new(cfg: DaemonConfig) -> std::io::Result<Arc<DaemonState>> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        if let Some(d) = &cfg.drop_dir {
            std::fs::create_dir_all(d)?;
        }
        let cache_plain = ResultCache::open_with(
            &cfg.cache_dir,
            cache_namespace(&cfg.code_salt, false),
            cfg.io_policy.clone(),
        )?;
        let cache_verified = ResultCache::open_with(
            &cfg.cache_dir,
            cache_namespace(&cfg.code_salt, true),
            cfg.io_policy.clone(),
        )?;
        let locks = CacheLocks::open_with(&cfg.cache_dir, cfg.io_policy.clone())?;
        let (journal, restored) =
            Journal::open(&cfg.state_dir, cfg.io_policy.clone(), &cfg.code_salt)?;
        let Restored {
            mut jobs,
            next_id,
            drop_seen,
        } = restored;
        // Re-number submission order for resumed jobs (id order is
        // submission order).
        for (i, j) in jobs.iter_mut().enumerate() {
            j.seq = i as u64;
        }
        let seq = jobs.len() as u64;
        let log = log::Log::start()?;
        let resumed = jobs.iter().filter(|j| !j.state.is_terminal()).count();
        if resumed > 0 {
            log.lines(&format!(
                "[daemon] resuming {resumed} unfinished job(s) from {}\n",
                journal.path().display()
            ));
        }
        let figures = FigureRegistry::new(cache_namespace(&cfg.code_salt, cfg.verify_default));
        Ok(Arc::new(DaemonState {
            inner: Mutex::new(Inner {
                jobs,
                next_id,
                seq,
                drop_seen,
                first_live: 0,
                listed: Vec::new(),
                listed_jobs: 0,
            }),
            cv: Condvar::new(),
            draining: AtomicBool::new(false),
            journal,
            locks,
            cache_plain,
            cache_verified,
            figures,
            log,
            started: Instant::now(),
            cfg,
        }))
    }

    pub(crate) fn cache_for(&self, verify: bool) -> &ResultCache {
        if verify {
            &self.cache_verified
        } else {
            &self.cache_plain
        }
    }

    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Start the graceful drain: workers finish their in-flight points and
    /// exit; unfinished jobs stay in the journal for the next start.
    pub fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            self.log
                .lines("[daemon] draining: finishing in-flight points\n");
        }
        self.cv.notify_all();
    }

    /// Queue a new job. Returns the acceptance record served as the `202`
    /// body. Errors: `409` while draining, `400` for an invalid spec.
    pub fn submit(
        &self,
        spec: CampaignSpec,
        name: Option<String>,
        priority: Option<Priority>,
        verify: bool,
        source: String,
    ) -> Result<Value, (u16, String)> {
        if self.is_draining() {
            return Err((409, "daemon is draining; not accepting jobs".into()));
        }
        let mut inner = self.inner.lock().unwrap();
        let id = inner.next_id;
        let seq = inner.seq;
        let name = name.unwrap_or_else(|| spec.name.clone());
        let job = Job::new(
            id,
            seq,
            name,
            spec,
            priority,
            verify,
            source,
            &self.cfg.code_salt,
        )
        .map_err(|e| (400, e))?;
        inner.next_id += 1;
        inner.seq += 1;
        let accepted = Value::Object(vec![
            ("job".into(), Value::U64(job.id)),
            ("name".into(), Value::Str(job.name.clone())),
            ("state".into(), Value::Str(job.state.name().into())),
            ("priority".into(), Value::Str(job.priority.name().into())),
            ("verify".into(), Value::Bool(job.verify)),
            (
                "salt".into(),
                Value::Str(cache_namespace(&self.cfg.code_salt, job.verify)),
            ),
            ("points".into(), Value::U64(job.total_points as u64)),
            ("unique_points".into(), Value::U64(job.unique as u64)),
        ]);
        let queued = format!(
            "[daemon] job {} ({}) queued: {} points ({} unique), {}, verify={}, from {}\n",
            job.id,
            job.name,
            job.total_points,
            job.unique,
            job.priority.name(),
            job.verify,
            job.source,
        );
        let record = self.journal.record("job", job.job_record());
        inner.jobs.push(job);
        // Logged before a worker can see the job, so before it is done.
        self.log.lines(&queued);
        drop(inner);
        // The workers start on the job while the journal is written; the
        // submitter hears back only once the job's record is appended.
        self.cv.notify_all();
        self.journal.append(&record);
        Ok(accepted)
    }

    /// Cancel a queued or running job. In-flight points finish (they are
    /// useful cache entries); everything else is dropped.
    pub fn cancel(&self, id: JobId) -> Result<Value, (u16, String)> {
        let mut inner = self.inner.lock().unwrap();
        let Some(ji) = inner.find(id) else {
            return Err((404, format!("no job {id}")));
        };
        let job = &mut inner.jobs[ji];
        if job.state.is_terminal() {
            return Err((409, format!("job {id} is already {}", job.state.name())));
        }
        job.state = JobState::Cancelled;
        let work = job.work.take();
        let v = job_to_value(job, &self.cfg.code_salt);
        let record = self.journal.record("end", job.end_record());
        drop(inner);
        drop(work);
        self.cv.notify_all();
        self.log_end(id, &record);
        Ok(v)
    }

    // ---- status views (the GET endpoints' bodies) ----

    pub fn health_value(&self) -> Value {
        // Counted before the lock: this reads the cache directory.
        let cached_results = self.cache_plain.len();
        let mut inner = self.inner.lock().unwrap();
        let active = inner
            .live()
            .iter()
            .filter(|j| !j.state.is_terminal())
            .count();
        Value::Object(vec![
            (
                "status".into(),
                Value::Str(if self.is_draining() { "draining" } else { "ok" }.into()),
            ),
            (
                "uptime_ms".into(),
                Value::U64(self.started.elapsed().as_millis() as u64),
            ),
            ("workers".into(), Value::U64(self.cfg.workers as u64)),
            ("jobs".into(), Value::U64(inner.jobs.len() as u64)),
            ("active_jobs".into(), Value::U64(active as u64)),
            (
                "cache_dir".into(),
                Value::Str(self.cfg.cache_dir.display().to_string()),
            ),
            ("cached_results".into(), Value::U64(cached_results as u64)),
            ("pid".into(), Value::U64(std::process::id() as u64)),
        ])
    }

    pub fn presets_value(&self) -> Value {
        let rows = bench::specs::PRESETS
            .iter()
            .map(|&name| {
                let spec = bench::specs::preset(name).expect("known preset");
                Value::Object(vec![
                    ("name".into(), Value::Str(name.into())),
                    ("groups".into(), Value::U64(spec.groups.len() as u64)),
                    ("points".into(), Value::U64(spec.points().len() as u64)),
                ])
            })
            .collect();
        Value::Array(rows)
    }

    pub fn jobs_value(&self) -> Value {
        let inner = self.inner.lock().unwrap();
        Value::Array(inner.jobs.iter().map(job_brief).collect())
    }

    /// The `GET /jobs` body, [`DaemonState::jobs_value`] pretty-printed, as
    /// the texts it is made of, and the closing bracket. Every job before
    /// the first live one is finished, and a finished job's row never
    /// changes (no job is ever removed, so the first stays the first):
    /// those rows are rendered once, into one text per listing that found
    /// new ones, and shared from then on. The rows from the first live job
    /// on are rendered fresh.
    pub(crate) fn jobs_body(&self) -> Vec<Arc<str>> {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        if inner.jobs.is_empty() {
            return vec!["[]\n".into()];
        }
        inner.live();
        if inner.listed_jobs < inner.first_live {
            let rows: String = (inner.listed_jobs..inner.first_live)
                .map(|i| list_row(i, &inner.jobs[i]))
                .collect();
            inner.listed.push(rows.into());
            inner.listed_jobs = inner.first_live;
        }
        let fresh = inner.listed_jobs..inner.jobs.len();
        let mut body = Vec::with_capacity(inner.listed.len() + fresh.len() + 1);
        body.extend(inner.listed.iter().cloned());
        body.extend(fresh.map(|i| Arc::from(list_row(i, &inner.jobs[i]))));
        body.push("\n]\n".into());
        body
    }

    pub fn job_value(&self, id: JobId) -> Option<Value> {
        let inner = self.inner.lock().unwrap();
        inner
            .find(id)
            .map(|ji| job_to_value(&inner.jobs[ji], &self.cfg.code_salt))
    }

    /// Rendered aggregate table of a finished job (`render_table` — byte-
    /// identical to `campaign_run`'s output for the same spec).
    pub fn job_results(&self, id: JobId) -> Result<String, (u16, String)> {
        self.job_output(
            id,
            "results_text",
            |job| {
                format!(
                    "job {id} is {} ({}/{} unique points)",
                    job.state.name(),
                    job.resolved,
                    job.unique
                )
            },
            |state| format!("job {id} has no results ({})", state.name()),
        )
    }

    pub fn job_manifest(&self, id: JobId) -> Result<String, (u16, String)> {
        self.job_output(
            id,
            "manifest",
            |job| format!("job {id} is {}", job.state.name()),
            // A job cancelled, or finished by a daemon that journaled no
            // manifests.
            |_| format!("job {id}'s manifest was not retained across a restart"),
        )
    }

    /// One output of terminal job `id`, by its name in the job's journal
    /// record: from memory while the job holds it, from the record (read
    /// outside the queue lock) once that is in the log. `unfinished` and
    /// `missing` word the `409` of a job still queued or running and of one
    /// that has no such output.
    fn job_output(
        &self,
        id: JobId,
        field: &str,
        unfinished: impl Fn(&Job) -> String,
        missing: impl Fn(JobState) -> String,
    ) -> Result<String, (u16, String)> {
        let (state, at) = {
            let inner = self.inner.lock().unwrap();
            let Some(job) = inner.find(id).map(|ji| &inner.jobs[ji]) else {
                return Err((404, format!("no job {id}")));
            };
            if !job.state.is_terminal() {
                return Err((409, unfinished(job)));
            }
            match &job.outputs {
                Outputs::Held {
                    results_text,
                    manifest_json,
                } => {
                    let held = match field {
                        "results_text" => results_text,
                        _ => manifest_json,
                    };
                    return held.clone().ok_or_else(|| (409, missing(job.state)));
                }
                Outputs::Logged { at, .. } => (job.state, at.clone()),
            }
        };
        let record = self
            .journal
            .read(id, &at)
            .ok_or_else(|| (500, format!("job {id}'s record in the journal is damaged")))?;
        let Value::Object(fields) = record else {
            return Err((409, missing(state)));
        };
        // Moved out of the record, not copied: a manifest is kilobytes.
        let output = fields.into_iter().find_map(|(name, v)| match v {
            Value::Str(text) if name == field => Some(text),
            _ => None,
        });
        output.ok_or_else(|| (409, missing(state)))
    }

    pub fn figures_value(&self) -> Value {
        let rows = self
            .figures
            .list()
            .into_iter()
            .map(|(name, points, dirty, rendered)| {
                Value::Object(vec![
                    ("name".into(), Value::Str(name)),
                    ("points".into(), Value::U64(points as u64)),
                    ("dirty".into(), Value::Bool(dirty)),
                    ("rendered".into(), Value::Bool(rendered)),
                ])
            })
            .collect();
        Value::Array(rows)
    }

    pub fn figure_text(&self, name: &str) -> Option<String> {
        self.figures
            .render(name, self.cache_for(self.cfg.verify_default))
    }
}

/// Job `j`'s `GET /jobs` row at index `i`: an array element, one level
/// deep, with what stands before it. (Strings escape their newlines, so
/// every newline in the text is one the printer indented.)
fn list_row(i: usize, j: &Job) -> String {
    let row = job_brief(j).to_json_pretty().replace('\n', "\n  ");
    format!("{}\n  {row}", if i == 0 { '[' } else { ',' })
}

/// Compact row for `GET /jobs`.
fn job_brief(j: &Job) -> Value {
    Value::Object(vec![
        ("id".into(), Value::U64(j.id)),
        ("name".into(), Value::Str(j.name.clone())),
        ("state".into(), Value::Str(j.state.name().into())),
        ("priority".into(), Value::Str(j.priority.name().into())),
        ("verify".into(), Value::Bool(j.verify)),
        ("progress".into(), Value::F64(j.progress())),
        ("points".into(), Value::U64(j.total_points as u64)),
    ])
}

/// Full job view for `GET /jobs/<id>`.
fn job_to_value(j: &Job, code_salt: &str) -> Value {
    let mut fields = vec![
        ("id".into(), Value::U64(j.id)),
        ("name".into(), Value::Str(j.name.clone())),
        ("state".into(), Value::Str(j.state.name().into())),
        ("priority".into(), Value::Str(j.priority.name().into())),
        ("verify".into(), Value::Bool(j.verify)),
        (
            "salt".into(),
            Value::Str(cache_namespace(code_salt, j.verify)),
        ),
        ("source".into(), Value::Str(j.source.clone())),
        ("submitted_unix_ms".into(), Value::U64(j.submitted_unix_ms)),
        ("total_points".into(), Value::U64(j.total_points as u64)),
        ("unique_points".into(), Value::U64(j.unique as u64)),
        ("resolved".into(), Value::U64(j.resolved as u64)),
        ("in_flight".into(), Value::U64(j.in_flight as u64)),
        (
            "deferred".into(),
            Value::U64(j.work.as_ref().map_or(0, |w| w.deferred.len()) as u64),
        ),
        ("progress".into(), Value::F64(j.progress())),
        ("eta_ms".into(), j.eta_ms().map_or(Value::Null, Value::U64)),
        ("cache_hits_so_far".into(), Value::U64(j.cache_hits as u64)),
        (
            "results_available".into(),
            Value::Bool(j.outputs.has_results()),
        ),
    ];
    if j.state.is_terminal() {
        fields.push(("summary".into(), j.summary.to_value()));
    }
    Value::Object(fields)
}

/// A started daemon: listener address plus the threads to join.
pub struct DaemonHandle {
    pub addr: SocketAddr,
    state: Arc<DaemonState>,
    http_stop: Arc<AtomicBool>,
    http: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    pub fn state(&self) -> &Arc<DaemonState> {
        &self.state
    }

    pub fn begin_drain(&self) {
        self.state.begin_drain();
    }

    /// Block until the daemon is drained: workers exit after their
    /// in-flight points (once [`DaemonState::begin_drain`] fires) — every
    /// job they finished has its record in the journal by then — and the
    /// control plane stops.
    pub fn wait(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        http::stop_serving(self.addr, &self.http_stop);
        if let Some(h) = self.http.take() {
            let _ = h.join();
        }
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
        self.state.log.lines(&format!(
            "[daemon] stopped (queue journaled to {})\n",
            self.state.journal.path().display()
        ));
        self.state.log.flush();
    }
}

/// Daemon entry point.
pub struct Daemon;

impl Daemon {
    /// Bind, restore the journal, and start workers + control plane +
    /// spec-drop watcher. Returns once everything is running.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<DaemonHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let state = DaemonState::new(cfg)?;
        let http_stop = Arc::new(AtomicBool::new(false));
        let handler = api::handler(state.clone());
        let serve_opts = http::ServeOptions {
            max_body: state.cfg.max_body,
            request_timeout: Duration::from_millis(state.cfg.request_timeout_ms.max(1)),
            ..http::ServeOptions::default()
        };
        let hs = http_stop.clone();
        let http = std::thread::Builder::new()
            .name("noc-daemon-http".into())
            .spawn(move || http::serve(listener, handler, hs, serve_opts))?;
        let mut workers = Vec::new();
        for i in 0..state.cfg.workers.max(1) {
            let s = state.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("noc-daemon-worker-{i}"))
                    .spawn(move || s.worker_loop())?,
            );
        }
        let watcher = match state.cfg.drop_dir.clone() {
            Some(dir) => {
                let s = state.clone();
                Some(
                    std::thread::Builder::new()
                        .name("noc-daemon-drop-watcher".into())
                        .spawn(move || drop_watcher(&s, &dir))?,
                )
            }
            None => None,
        };
        Ok(DaemonHandle {
            addr,
            state,
            http_stop,
            http: Some(http),
            workers,
            watcher,
        })
    }
}

/// Poll the spec-drop directory for new `*.json` campaign specs. A file is
/// ingested once it has been quiet for at least one poll interval (so a
/// spec still being written is not half-read), and remembered by name — in
/// the journal, whether it was queued or rejected — so a restart neither
/// resubmits nor re-rejects it.
fn drop_watcher(state: &Arc<DaemonState>, dir: &Path) {
    let poll = Duration::from_millis(state.cfg.drop_poll_ms.max(50));
    while !state.is_draining() {
        let entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("json"))
                    .collect()
            })
            .unwrap_or_default();
        for path in entries {
            let Some(fname) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
                continue;
            };
            if state.inner.lock().unwrap().drop_seen.contains(&fname) {
                continue;
            }
            // Require one quiet poll interval before reading.
            let settled = path
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age >= poll);
            if !settled {
                continue;
            }
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    state.log.lines(&format!(
                        "[daemon] drop: cannot read {}: {e}\n",
                        path.display()
                    ));
                    continue;
                }
            };
            let rejected = match CampaignSpec::from_json(&text) {
                Ok(spec) => {
                    let verify = state.cfg.verify_default;
                    state
                        .submit(spec, None, None, verify, format!("drop:{fname}"))
                        .err()
                        .map(|(_, e)| e)
                }
                Err(e) => Some(format!("not a campaign spec: {e}")),
            };
            if let Some(e) = rejected {
                state
                    .log
                    .lines(&format!("[daemon] drop: {fname} rejected: {e}\n"));
                if state.is_draining() {
                    continue; // refused, not judged: the next start takes the file
                }
            }
            // Queued or rejected for good, the file is done with; the
            // record follows the job's, so a crash between the two queues
            // the spec twice (all cache hits), never zero times.
            let mut inner = state.inner.lock().unwrap();
            inner.drop_seen.push(fname.clone());
            let record = state.journal.record("drop", drop_record(&fname));
            drop(inner);
            state.journal.append(&record);
        }
        std::thread::sleep(poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Response;

    /// The `GET /jobs` body is put together from per-job texts; it must be
    /// what the pretty printer gives for the whole array, whatever the job
    /// count and whether a row is fresh or reused.
    #[test]
    fn assembled_job_list_is_the_pretty_printed_array() {
        let dir = std::env::temp_dir().join(format!("noc-daemon-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // No workers: jobs change state only where this test says so.
        let state = DaemonState::new(DaemonConfig {
            state_dir: dir.join("state"),
            cache_dir: dir.join("cache"),
            ..DaemonConfig::default()
        })
        .expect("state directory is writable");
        let agree = |what: &str| {
            assert_eq!(
                state.jobs_body().concat().into_bytes(),
                Response::json(200, &state.jobs_value()).body,
                "{what}"
            );
        };
        let submit = || {
            let spec = bench::specs::preset("smoke").expect("known preset");
            state
                .submit(spec, Some("j\n1".into()), None, false, "t".into())
                .expect("valid spec")
                .field("job")
                .as_u64()
                .expect("job id")
        };
        agree("no jobs");
        let done = submit();
        agree("one queued job");
        {
            let mut inner = state.inner.lock().unwrap();
            let job = &mut inner.jobs[0];
            job.state = JobState::Done;
            job.resolved = job.unique;
        }
        agree("one done job");
        submit();
        let cancelled = submit();
        state.cancel(cancelled).expect("queued job cancels");
        // The finished job before the live one is rendered once; the
        // second round reuses its row.
        for round in ["first build", "memoised rows"] {
            agree(round);
            let inner = state.inner.lock().unwrap();
            assert_eq!((inner.listed_jobs, inner.listed.len()), (1, 1), "{round}");
            assert_eq!(inner.jobs[0].id, done);
        }
        // Once nothing is live, every row is in the shared texts.
        {
            let mut inner = state.inner.lock().unwrap();
            let job = &mut inner.jobs[1];
            job.state = JobState::Done;
            job.resolved = job.unique;
        }
        agree("all finished");
        let inner = state.inner.lock().unwrap();
        assert_eq!((inner.listed_jobs, inner.listed.len()), (3, 2));
        drop(inner);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What a finished job keeps in memory is its row: the work is gone
    /// when it finishes, the results table and the manifest once its `end`
    /// record is in the log, from where they are served.
    #[test]
    fn finished_job_shrinks_to_its_row_and_serves_from_the_log() {
        use dxbar_noc::noc_traffic::patterns::Pattern;
        use dxbar_noc::{Design, SimConfig};
        use noc_campaign::{PointGroup, WorkloadAxis};

        let dir = std::env::temp_dir().join(format!("noc-daemon-row-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = DaemonState::new(DaemonConfig {
            state_dir: dir.join("state"),
            cache_dir: dir.join("cache"),
            ..DaemonConfig::default()
        })
        .expect("state directory is writable");
        // Five points: one design over five loads, tiny windows.
        let spec = CampaignSpec::new("five").with_group(PointGroup {
            label: "five".into(),
            config: SimConfig {
                width: 4,
                height: 4,
                warmup_cycles: 50,
                measure_cycles: 200,
                drain_cycles: 100,
                ..SimConfig::default()
            },
            designs: vec![Design::DXbarDor],
            workload: WorkloadAxis::Synthetic {
                patterns: vec![Pattern::UniformRandom],
                loads: vec![0.1, 0.15, 0.2, 0.25, 0.3],
            },
            fault_fractions: vec![],
            transient_rates: vec![],
            link_faults: vec![],
            seeds: vec![],
            tag: None,
        });
        let id = state
            .submit(spec, None, None, false, "t".into())
            .expect("valid spec")
            .field("job")
            .as_u64()
            .expect("job id");
        let live_bytes = state.inner.lock().unwrap().jobs[0].heap_bytes();

        // A worker finishes the job; it has appended the `end` record by
        // the time it looks for more work and finds the daemon draining.
        let worker = {
            let state = state.clone();
            std::thread::spawn(move || state.worker_loop())
        };
        while !state.inner.lock().unwrap().jobs[0].state.is_terminal() {
            std::thread::yield_now();
        }
        state.begin_drain();
        worker.join().expect("worker does not panic");

        state.jobs_body(); // memoises the row
        {
            let inner = state.inner.lock().unwrap();
            let job = &inner.jobs[0];
            assert_eq!(job.state, JobState::Done);
            assert!(job.work.is_none());
            assert!(
                matches!(
                    job.outputs,
                    Outputs::Logged {
                        has_results: true,
                        ..
                    }
                ),
                "{:?}",
                job.outputs
            );
            let bytes = job.heap_bytes();
            assert!(bytes <= 1024, "a finished job holds {bytes} heap bytes");
            assert!(
                live_bytes > 4 * bytes,
                "live {live_bytes}, finished {bytes}"
            );
            assert!(std::mem::size_of::<Job>() <= 320);
        }
        let table = state.job_results(id).expect("table is read back");
        assert!(table.contains("DXbar"), "{table}");
        let manifest = state.job_manifest(id).expect("manifest is read back");
        let manifest = serde_json::parse(&manifest).expect("manifest is JSON");
        assert_eq!(manifest.field("total_points").as_u64(), Some(5));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
