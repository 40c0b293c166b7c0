//! The worker side of the daemon: dispatching points out of the priority
//! queue and folding their outcomes back into jobs.
//!
//! Workers are plain threads looping on [`DaemonState::next_task`] →
//! [`execute_point`] → [`DaemonState::finish_point`]. The scheduling
//! policy lives entirely in `next_task`:
//!
//! * **priority between points** — the next free worker always serves the
//!   oldest `Interactive` job with dispatchable work before any `Batch`
//!   job, so a small smoke job submitted mid-sweep starts within one point
//!   duration;
//! * **work stealing** — a point whose advisory claim is held by a sibling
//!   worker (possibly in another process sharing the cache) comes back
//!   [`ExecPoint::Busy`] and is deferred for a few hundred milliseconds
//!   while the worker takes other work; when the deferral ripens the point
//!   is usually a cache hit on the sibling's stored result;
//! * **graceful drain** — once draining is set, `next_task` returns `None`
//!   and workers exit after their in-flight point, leaving the queue to
//!   the journal.

use crate::queue::{JobId, JobState, Outputs};
use crate::DaemonState;
use dxbar_noc::noc_verify::cache_namespace;
use noc_campaign::{
    execute_point, simulate_point, CampaignReport, ExecPoint, PointOutcome, PointSpec,
};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How long a Busy (sibling-claimed) point waits before being re-polled.
const BUSY_RETRY: Duration = Duration::from_millis(300);

/// Idle wait between queue polls when nothing is dispatchable.
const IDLE_WAIT: Duration = Duration::from_millis(100);

/// One dispatched unit of work: a cloned point plus its routing info, so
/// the worker holds no lock while simulating.
pub struct PointTask {
    pub job: JobId,
    pub idx: usize,
    pub point: PointSpec,
    pub key: String,
    pub verify: bool,
    pub retries: u32,
}

impl DaemonState {
    /// Worker thread body: drain the queue until shutdown.
    pub fn worker_loop(&self) {
        while let Some(task) = self.next_task() {
            let cache = self.cache_for(task.verify);
            let res = execute_point(
                &task.point,
                &task.key,
                Some(cache),
                Some(&self.locks),
                task.retries,
                &|p| simulate_point(p, task.verify),
            );
            self.finish_point(&task, res);
        }
    }

    /// Block until a point is dispatchable (or `None` once draining).
    fn next_task(&self) -> Option<PointTask> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if self.is_draining() {
                return None;
            }
            let now = Instant::now();
            // Best runnable job: priority class first, then submission order.
            let live = inner.live();
            let best = live
                .iter()
                .enumerate()
                .filter(|(_, j)| {
                    j.is_runnable()
                        && j.work.as_ref().is_some_and(|w| {
                            !w.ready.is_empty() || w.deferred.iter().any(|&(_, at)| at <= now)
                        })
                })
                .min_by_key(|(_, j)| (j.priority, j.seq))
                .map(|(i, _)| i);
            if let Some(ji) = best {
                let job = &mut live[ji];
                let work = job.work.as_mut().expect("a runnable job has work");
                if job.state == JobState::Queued {
                    job.state = JobState::Running;
                    work.started = Some(now);
                }
                let idx = match work.ready.pop_front() {
                    Some(i) => i,
                    None => {
                        let pos = work
                            .deferred
                            .iter()
                            .position(|&(_, at)| at <= now)
                            .expect("ripe deferred point");
                        work.deferred.remove(pos).expect("position in range").0
                    }
                };
                job.in_flight += 1;
                return Some(PointTask {
                    job: job.id,
                    idx,
                    point: work.points[idx].clone(),
                    key: work.keys[idx].clone(),
                    verify: job.verify,
                    retries: work.spec.retry.max_retries,
                });
            }
            // Nothing dispatchable: sleep until the earliest deferral
            // ripens, or a submit/cancel/drain notification arrives.
            let wait = live
                .iter()
                .filter(|j| j.is_runnable())
                .flat_map(|j| {
                    j.work
                        .iter()
                        .flat_map(|w| w.deferred.iter().map(|&(_, at)| at))
                })
                .min()
                .map(|at| at.saturating_duration_since(now))
                .unwrap_or(IDLE_WAIT)
                .min(IDLE_WAIT)
                .max(Duration::from_millis(1));
            let (guard, _) = self.cv.wait_timeout(inner, wait).unwrap();
            inner = guard;
        }
    }

    /// Fold one executed (or deferred) point back into its job.
    fn finish_point(&self, task: &PointTask, res: ExecPoint) {
        let mut inner = self.inner.lock().unwrap();
        let Some(ji) = inner.find(task.job) else {
            return;
        };
        let job = &mut inner.jobs[ji];
        job.in_flight = job.in_flight.saturating_sub(1);
        // A job cancelled while the point ran has let go of its work; the
        // point's result is in the cache all the same.
        if let Some(work) = job.work.as_mut() {
            match res {
                ExecPoint::Busy => work
                    .deferred
                    .push_back((task.idx, Instant::now() + BUSY_RETRY)),
                ExecPoint::Done(outcome) => {
                    if work.outcomes[task.idx].is_none() {
                        job.cache_hits += usize::from(outcome.cache_hit);
                        work.outcomes[task.idx] = Some(outcome);
                        job.resolved += 1;
                    }
                }
            }
        }
        let finished = (job.work.is_some() && job.is_drained()).then(|| {
            let log = self.finalize_job(&mut inner, ji);
            (log, self.journal.record("end", inner.jobs[ji].end_record()))
        });
        drop(inner);
        self.cv.notify_all();
        if let Some((log, record)) = finished {
            self.log.lines(&log);
            self.log_end(task.job, &record);
        }
    }

    /// Append a terminal job's `end` record and, once it is in the log, let
    /// go of the outputs the record now holds. Requests for them arrive all
    /// the while (a client polls the status and asks for the results of a
    /// job that finished microseconds ago), so the job serves them from
    /// memory until the append has returned — and for good if it failed.
    pub(crate) fn log_end(&self, id: JobId, record: &serde::Value) {
        let Some(at) = self.journal.append(record) else {
            return;
        };
        let mut inner = self.inner.lock().unwrap();
        let ji = inner.find(id).expect("no job is ever removed");
        let job = &mut inner.jobs[ji];
        let has_results = job.outputs.has_results();
        let held = std::mem::replace(&mut job.outputs, Outputs::Logged { at, has_results });
        drop(inner);
        drop(held);
    }

    /// A job's last unique point resolved: fill deduplicated siblings,
    /// build the report, render results, record the summary, and mark the
    /// figures the completed keys add a point to. What the status, results
    /// and manifest routes serve is kept; the work is released, which
    /// leaves the job in the shape the journal restores a terminal job in.
    /// Returns the log lines, for the caller to print once `inner` is
    /// released.
    fn finalize_job(&self, inner: &mut crate::Inner, ji: usize) -> String {
        let job = &mut inner.jobs[ji];
        let work = *job.work.take().expect("a job is finalized once");
        let (points, keys, spec) = (work.points, work.keys, work.spec);
        let mut slots = work.outcomes;
        for (i, orig) in work.share_from.into_iter().enumerate() {
            if let Some(orig) = orig {
                let source = slots[orig].clone().expect("original resolved");
                slots[i] = Some(PointOutcome {
                    point: points[i].clone(),
                    key: keys[i].clone(),
                    status: source.status,
                    cache_hit: source.cache_hit,
                    deduped: true,
                    wall_ms: 0,
                    attempts: 0,
                    verify: source.verify,
                });
            }
        }
        let outcomes: Vec<PointOutcome> = slots
            .into_iter()
            .map(|o| o.expect("all points resolved"))
            .collect();
        let wall_ms = work
            .started
            .map(|t| t.elapsed().as_millis() as u64)
            .unwrap_or(0);
        let report = CampaignReport {
            spec_hash: spec.content_hash(),
            name: spec.name,
            code_salt: cache_namespace(&self.cfg.code_salt, job.verify),
            jobs: self.cfg.workers,
            wall_ms,
            verify_enabled: job.verify,
            outcomes,
        };
        job.summary.total_points = report.outcomes.len();
        job.summary.failed = report.failed_count();
        job.summary.completed = report.outcomes.len() - job.summary.failed;
        job.summary.cache_hits = report.cache_hits();
        job.summary.simulated = report.cache_misses();
        job.summary.violations = report.total_violations();
        job.summary.checks = report
            .outcomes
            .iter()
            .filter_map(|o| o.verify)
            .map(|v| v.checks)
            .sum();
        job.summary.wall_ms = wall_ms;
        job.summary.failures = report
            .failed()
            .filter_map(|o| o.failure().cloned())
            .collect();
        job.cache_hits = job.summary.cache_hits;
        job.outputs = Outputs::Held {
            results_text: Some(noc_campaign::render_table(&report.aggregates())),
            manifest_json: Some(report.manifest().to_json()),
        };
        job.state = if job.summary.failed > 0 {
            JobState::Failed
        } else {
            JobState::Done
        };
        // Terminally-failed points are quarantined, not silently dropped:
        // name each one with its repro handle so operators (and the chaos
        // harness) can account for every loss.
        let mut log = String::new();
        for q in report.quarantined() {
            let _ = writeln!(
                log,
                "[daemon] job {}: quarantined point {} ({}) after {} attempt(s): {}",
                job.id, q.key, q.repro, q.attempts, q.reason
            );
        }
        // Figure delta: every key this job resolved successfully is now in
        // the cache (stored by us or adopted from a sibling worker).
        let completed: HashSet<String> = report
            .outcomes
            .iter()
            .filter(|o| !o.is_failed())
            .map(|o| o.key.clone())
            .collect();
        let _ = writeln!(
            log,
            "[daemon] job {} ({}) {}: {}/{} points, {} cache hits, {} simulated, {} failed, {:.1}s",
            job.id,
            job.name,
            job.state.name(),
            job.summary.completed,
            job.summary.total_points,
            job.summary.cache_hits,
            job.summary.simulated,
            job.summary.failed,
            wall_ms as f64 / 1000.0,
        );
        self.figures.note_completed(&completed);
        log
    }
}
