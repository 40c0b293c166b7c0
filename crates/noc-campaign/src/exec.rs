//! Campaign executor: parallel, panic-isolated, cached, resumable.
//!
//! Two lifecycles share one point-level engine:
//!
//! * **batch** — [`run_campaign`] expands a spec, fans the unique points
//!   out over worker threads and returns one [`CampaignReport`] (the
//!   historical CLI shape);
//! * **service** — a long-running owner (the `noc-daemon` scheduler) calls
//!   [`execute_point`] one point at a time, interleaving points of many
//!   campaigns, deferring [`ExecPoint::Busy`] points and re-polling later.
//!
//! With [`ExecOptions::cooperative`] set (or a [`CacheLocks`] handle passed
//! to [`execute_point`]), executors in different threads *and different
//! processes* shard one cache directory: each point is simulated by exactly
//! one claim holder while everyone else steals other work and finally
//! adopts the owner's cached result.

use crate::agg::Aggregate;
use crate::cache::ResultCache;
use crate::coop::{CacheLocks, Claim, PointClaim};
use crate::io::{no_faults, IoPolicy};
use crate::manifest::{CampaignManifest, PointRecord, QuarantinedPoint, VerifyBlock};
use crate::spec::{CampaignSpec, PointSpec, Workload};
use crate::CODE_VERSION;
use dxbar_noc::noc_resilience::ResiliencePlan;
use dxbar_noc::noc_topology::Mesh;
use dxbar_noc::{run, RunPlan, RunResult};
use noc_scenario::{ScenarioRun, ScenarioSpec};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Executor knobs. Everything not in the spec itself: where the cache
/// lives, how wide to fan out, and how chatty to be.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Result-cache directory; `None` disables on-disk caching (in-run
    /// deduplication of identical points still happens).
    pub cache_dir: Option<PathBuf>,
    /// Worker threads. `None` falls back to the `DXBAR_JOBS` environment
    /// variable, then to the number of available cores. Either way the
    /// budget is divided by `DXBAR_TILE_THREADS` (tile-parallel workers
    /// inside each simulation) when that is set — see [`resolve_jobs`].
    pub jobs: Option<usize>,
    /// Code-version salt for cache keys (tests override to simulate a
    /// simulator change; everything else uses [`CODE_VERSION`]).
    pub code_salt: String,
    /// Emit progress/ETA lines to stderr.
    pub progress: bool,
    /// Run every simulated point under the runtime-oracle suite. Defaults
    /// to the `DXBAR_VERIFY` environment variable ("1"/"true"). Verified
    /// results use a `+verify`-salted cache namespace so they never mix
    /// with unverified ones.
    pub verify: bool,
    /// Claim each point through an advisory file lock in the cache
    /// directory before simulating it, and steal other work while a sibling
    /// executor (thread or separate process) holds a claim. Requires
    /// `cache_dir`. See [`crate::coop`].
    pub cooperative: bool,
    /// Storage-layer fault seam threaded into the cache and lock
    /// directories. Production uses [`crate::io::NoFaults`]; chaos
    /// harnesses inject seeded I/O faults here. See [`crate::io`].
    pub io_policy: std::sync::Arc<dyn IoPolicy>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            cache_dir: None,
            jobs: None,
            code_salt: CODE_VERSION.to_string(),
            progress: false,
            verify: verify_from_env(),
            cooperative: false,
            io_policy: no_faults(),
        }
    }
}

/// Whether `DXBAR_VERIFY` asks for verified runs ("1" or "true").
pub use dxbar_noc::noc_verify::verify_from_env;

impl ExecOptions {
    /// Cache salt actually in effect: verified runs live in the disjoint
    /// namespace chosen by [`noc_verify::cache_namespace`]. Public so
    /// service owners (the daemon's figure registry) can compute the same
    /// point keys the executor will use.
    pub fn cache_salt(&self) -> String {
        dxbar_noc::noc_verify::cache_namespace(&self.code_salt, self.verify)
    }
}

/// Verification outcome of one simulated point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointVerify {
    /// Invariant violations observed during the run.
    pub violations: u64,
    /// Individual oracle checks performed.
    pub checks: u64,
}

/// Terminal state of one point.
// `Done` dwarfs `Failed`, but it is also the overwhelmingly common
// variant — boxing it would cost an allocation per point for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PointStatus {
    /// Simulation completed (fresh, cached, or shared with an identical
    /// sibling point).
    Done(RunResult),
    /// Every attempt panicked, or the run stalled; the campaign continued
    /// without this point.
    Failed(PointFailure),
}

/// Everything a failed point's owner needs to reproduce it: the per-attempt
/// panic payloads (not just "failed") plus the seed and a one-line repro
/// descriptor. Serialized into the manifest and the daemon's job status.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PointFailure {
    /// Summary line ("panicked after N attempt(s): <last payload>", or
    /// "stalled: 0 of N offered flits delivered").
    pub reason: String,
    /// Raw panic payload of every attempt, in order.
    pub panics: Vec<String>,
    /// Replicate seed of the failing point (repro handle).
    pub seed: u64,
    /// One-line point descriptor ("DXbar DOR UR@0.30 seed=0x...").
    pub repro: String,
}

/// One point's outcome plus provenance.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    pub point: PointSpec,
    /// Content-addressed cache key of the point.
    pub key: String,
    pub status: PointStatus,
    /// Result came from the on-disk cache.
    pub cache_hit: bool,
    /// Result was computed once and shared with identical points of the
    /// same run (in-run deduplication).
    pub deduped: bool,
    pub wall_ms: u64,
    /// Runner invocations (0 for cache hits and deduplicated points).
    pub attempts: u32,
    /// Oracle outcome when the point was simulated under verification
    /// (`None` for unverified runs and cache hits — a hit in the `+verify`
    /// namespace was verified clean when it was stored).
    pub verify: Option<PointVerify>,
}

impl PointOutcome {
    pub fn result(&self) -> Option<&RunResult> {
        match &self.status {
            PointStatus::Done(r) => Some(r),
            PointStatus::Failed(_) => None,
        }
    }

    /// Failure detail when the point failed.
    pub fn failure(&self) -> Option<&PointFailure> {
        match &self.status {
            PointStatus::Done(_) => None,
            PointStatus::Failed(f) => Some(f),
        }
    }

    pub fn is_failed(&self) -> bool {
        matches!(self.status, PointStatus::Failed { .. })
    }
}

/// Everything a finished campaign produced, in spec expansion order.
#[derive(Debug)]
pub struct CampaignReport {
    pub name: String,
    /// Content hash of the spec that produced this report.
    pub spec_hash: String,
    /// Cache salt in effect (includes `+verify` for verified runs).
    pub code_salt: String,
    /// Worker threads actually used.
    pub jobs: usize,
    pub wall_ms: u64,
    /// Whether points ran under the runtime-oracle suite.
    pub verify_enabled: bool,
    pub outcomes: Vec<PointOutcome>,
}

impl CampaignReport {
    /// Completed results in point order (failed points are skipped).
    pub fn results(&self) -> Vec<RunResult> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result().cloned())
            .collect()
    }

    pub fn failed(&self) -> impl Iterator<Item = &PointOutcome> {
        self.outcomes.iter().filter(|o| o.is_failed())
    }

    pub fn failed_count(&self) -> usize {
        self.failed().count()
    }

    pub fn cache_hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cache_hit).count()
    }

    /// Points that actually invoked the runner (not cached, not deduped).
    pub fn cache_misses(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.cache_hit && !o.deduped)
            .count()
    }

    /// Fold seed replicates: one [`Aggregate`] per (group, design,
    /// workload, x, fault fraction), in first-seen point order.
    pub fn aggregates(&self) -> Vec<Aggregate> {
        Aggregate::collect(&self.outcomes)
    }

    /// Terminally-failed points as quarantine records: the campaign
    /// completed *around* them (bounded per-point retries, then isolation)
    /// and the manifest names each one with its repro handle instead of
    /// the whole campaign being thrown away.
    pub fn quarantined(&self) -> Vec<QuarantinedPoint> {
        self.outcomes
            .iter()
            .filter_map(|o| {
                o.failure().map(|f| QuarantinedPoint {
                    key: o.key.clone(),
                    repro: f.repro.clone(),
                    reason: f.reason.clone(),
                    attempts: o.attempts,
                })
            })
            .collect()
    }

    /// Total invariant violations across verified points (0 when
    /// verification was off).
    pub fn total_violations(&self) -> u64 {
        self.outcomes
            .iter()
            .filter_map(|o| o.verify)
            .map(|v| v.violations)
            .sum()
    }

    /// Serializable per-point provenance record of the whole campaign.
    pub fn manifest(&self) -> CampaignManifest {
        CampaignManifest {
            campaign: self.name.clone(),
            spec_hash: self.spec_hash.clone(),
            code_version: self.code_salt.clone(),
            jobs: self.jobs,
            total_points: self.outcomes.len(),
            completed: self.outcomes.len() - self.failed_count(),
            failed: self.failed_count(),
            cache_hits: self.cache_hits(),
            cache_misses: self.cache_misses(),
            wall_ms: self.wall_ms,
            verify: self.verify_enabled.then(|| VerifyBlock {
                enabled: true,
                verified_points: self.outcomes.iter().filter(|o| o.verify.is_some()).count(),
                violations: self.total_violations(),
                checks: self
                    .outcomes
                    .iter()
                    .filter_map(|o| o.verify)
                    .map(|v| v.checks)
                    .sum(),
            }),
            quarantined: self.quarantined(),
            points: self
                .outcomes
                .iter()
                .map(|o| PointRecord {
                    key: o.key.clone(),
                    group: o.point.group.clone(),
                    design: o.point.design.name().to_string(),
                    workload: o.point.workload.describe(),
                    fault_fraction: o.point.fault_fraction,
                    transient_rate: o.point.transient_rate,
                    link_fault_count: o.point.link_fault_count,
                    seed: o.point.seed,
                    status: if o.is_failed() { "failed" } else { "ok" }.to_string(),
                    reason: o.failure().map_or(String::new(), |f| f.reason.clone()),
                    panics: o.failure().map_or(Vec::new(), |f| f.panics.clone()),
                    repro: o.failure().map_or(String::new(), |f| f.repro.clone()),
                    cache_hit: o.cache_hit,
                    deduped: o.deduped,
                    wall_ms: o.wall_ms,
                    attempts: o.attempts,
                    violations: o.verify.map_or(0, |v| v.violations),
                })
                .collect(),
        }
    }
}

/// Simulate one point with the production simulator, under the
/// runtime-oracle suite when `verify` is set: build the plan the point
/// describes — its workload and its seeded fault plan, which validation
/// keeps off closed-loop and scenario points — run it, and
/// apply the group's traffic tag. A violating run still returns its result;
/// the violation count travels in [`PointVerify`] and is surfaced through
/// the campaign manifest's `verify` block.
pub fn simulate_point(p: &PointSpec, verify: bool) -> (RunResult, Option<PointVerify>) {
    // The paper's methodology: plans seeded by the run seed, faults manifest
    // during warmup. A zero fraction, count or rate generates none of its
    // class; link faults are placed so the mesh stays connected.
    let generated = ResiliencePlan::generate(
        &Mesh::for_config(&p.config),
        p.fault_fraction,
        p.link_fault_count,
        p.transient_rate,
        p.config.warmup_cycles / 2,
        p.config.warmup_cycles.max(1),
        p.config.seed,
    );
    let exec = |plan: RunPlan<'_>| run(plan.faults(&generated).verified(verify));
    let mut out = match &p.workload {
        Workload::Synthetic { pattern, load } => {
            exec(RunPlan::synthetic(p.design, &p.config, *pattern, *load))
        }
        Workload::Splash { app, max_cycles } => {
            exec(RunPlan::splash(p.design, &p.config, *app, *max_cycles))
        }
        Workload::Scenario { scenario, load } => {
            let spec = ScenarioSpec::resolve(scenario, &p.config)
                .expect("campaign validation resolves scenario names");
            ScenarioRun::new(p.design, &p.config, &spec, *load)
                .expect("campaign validation accepts scenario/design pairs")
                .run_with(exec)
        }
    };
    if let Some(tag) = &p.tag {
        out.result.traffic = tag.clone();
    }
    let verify = out.verify.map(|report| PointVerify {
        violations: report.total_violations,
        checks: report.checks.total(),
    });
    (out.result, verify)
}

/// [`simulate_point`] without the oracles.
pub fn run_point(p: &PointSpec) -> RunResult {
    simulate_point(p, false).0
}

/// Run a campaign with the production runner ([`simulate_point`], verified
/// when `opts.verify` is set).
pub fn run_campaign(spec: &CampaignSpec, opts: &ExecOptions) -> Result<CampaignReport, String> {
    run_campaign_inner(spec, opts, &|p| simulate_point(p, opts.verify))
}

/// Run a campaign with a custom runner (tests inject panicking or counting
/// runners; everything else goes through [`run_campaign`]).
pub fn run_campaign_with(
    spec: &CampaignSpec,
    opts: &ExecOptions,
    runner: &(dyn Fn(&PointSpec) -> RunResult + Sync),
) -> Result<CampaignReport, String> {
    run_campaign_inner(spec, opts, &|p| (runner(p), None))
}

fn run_campaign_inner(
    spec: &CampaignSpec,
    opts: &ExecOptions,
    runner: &(dyn Fn(&PointSpec) -> (RunResult, Option<PointVerify>) + Sync),
) -> Result<CampaignReport, String> {
    spec.validate()?;
    let start = Instant::now();
    let salt = opts.cache_salt();
    let points = spec.points();
    let n = points.len();
    let cache = match &opts.cache_dir {
        Some(dir) => Some(
            ResultCache::open_with(dir, salt.clone(), opts.io_policy.clone())
                .map_err(|e| format!("cannot open cache dir {}: {e}", dir.display()))?,
        ),
        None => None,
    };
    let locks = match (opts.cooperative, &cache) {
        (false, _) => None,
        (true, None) => {
            return Err("cooperative execution requires a cache directory".to_string());
        }
        (true, Some(c)) => Some(
            CacheLocks::open_with(c.dir(), opts.io_policy.clone())
                .map_err(|e| format!("cannot open lock dir under {}: {e}", c.dir().display()))?,
        ),
    };

    // In-run deduplication: identical points (same cache identity) are
    // executed once and the outcome shared. The unified `repro_all` grid
    // deliberately declares e.g. the fig05 and fig06 sweeps over the same
    // points; only one of the pair costs simulation time.
    let keys: Vec<String> = points.iter().map(|p| p.cache_key(&salt)).collect();
    let mut first_of: HashMap<&str, usize> = HashMap::new();
    let mut work: Vec<usize> = Vec::new(); // indices of unique points
    let mut share_from: Vec<Option<usize>> = vec![None; n]; // dup -> original
    for (i, key) in keys.iter().enumerate() {
        match first_of.get(key.as_str()) {
            Some(&orig) => share_from[i] = Some(orig),
            None => {
                first_of.insert(key, i);
                work.push(i);
            }
        }
    }

    let jobs = resolve_jobs(opts.jobs, work.len());
    if opts.progress {
        eprintln!(
            "[campaign {}] {} points ({} unique), {} worker{}, retries={} cache={}",
            spec.name,
            n,
            work.len(),
            jobs,
            if jobs == 1 { "" } else { "s" },
            spec.retry.max_retries,
            cache
                .as_ref()
                .map(|c| c.dir().display().to_string())
                .unwrap_or_else(|| "off".into()),
        );
    }

    let progress = Progress {
        enabled: opts.progress,
        name: &spec.name,
        total: work.len(),
        done: AtomicUsize::new(0),
        failed: AtomicUsize::new(0),
        hits: AtomicUsize::new(0),
        start,
    };

    // Shared work queue: indices of unique points. A point found claimed by
    // a sibling executor (cooperative mode) is pushed back and re-polled
    // after other work — work-stealing over unclaimed points, with the
    // claimed ones eventually adopted from the cache.
    let queue: Mutex<VecDeque<usize>> = Mutex::new(work.iter().copied().collect());
    let outstanding = AtomicUsize::new(work.len());
    let collected: Mutex<Vec<(usize, PointOutcome)>> = Mutex::new(Vec::with_capacity(work.len()));
    let execute_worker = || {
        let mut local: Vec<(usize, PointOutcome)> = Vec::new();
        loop {
            let Some(idx) = ({ queue.lock().unwrap().pop_front() }) else {
                // Nothing dispatchable. Only a claim held by a sibling
                // executor (cooperative mode) ever re-queues a point, so
                // without `locks` an empty queue stays empty and this
                // worker is done; with them, it is done when every point
                // is resolved.
                if locks.is_none() || outstanding.load(Ordering::Acquire) == 0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
                continue;
            };
            match execute_point(
                &points[idx],
                &keys[idx],
                cache.as_ref(),
                locks.as_ref(),
                spec.retry.max_retries,
                runner,
            ) {
                ExecPoint::Done(outcome) => {
                    progress.tick(&outcome);
                    local.push((idx, outcome));
                    outstanding.fetch_sub(1, Ordering::Release);
                }
                ExecPoint::Busy => {
                    queue.lock().unwrap().push_back(idx);
                    // The owner is mid-simulation; don't spin on its lock.
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        collected.lock().unwrap().extend(local);
    };
    if jobs <= 1 {
        execute_worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(execute_worker);
            }
        });
    }

    let mut unique: Vec<(usize, PointOutcome)> = collected.into_inner().unwrap();
    unique.sort_unstable_by_key(|(i, _)| *i);
    let mut slots: Vec<Option<PointOutcome>> = vec![None; n];
    for (i, o) in unique {
        slots[i] = Some(o);
    }
    // Fill deduplicated points from their originals.
    for i in 0..n {
        if let Some(orig) = share_from[i] {
            let source = slots[orig].clone().expect("original executed");
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
    let outcomes: Vec<PointOutcome> = slots.into_iter().map(|s| s.expect("slot filled")).collect();

    let report = CampaignReport {
        name: spec.name.clone(),
        spec_hash: spec.content_hash(),
        code_salt: salt,
        jobs,
        wall_ms: start.elapsed().as_millis() as u64,
        verify_enabled: opts.verify,
        outcomes,
    };
    if opts.progress {
        eprintln!(
            "[campaign {}] done: {} ok, {} failed, {} cache hits, {} simulated, {:.1}s",
            report.name,
            report.outcomes.len() - report.failed_count(),
            report.failed_count(),
            report.cache_hits(),
            report.cache_misses(),
            report.wall_ms as f64 / 1000.0,
        );
    }
    Ok(report)
}

/// Worker-thread count: explicit option, then `DXBAR_JOBS`, then all
/// available cores; always within `[1, work]`.
///
/// When `DXBAR_TILE_THREADS` requests tile-parallel stepping *inside* each
/// simulation, the point-level budget is divided by that count so the total
/// fan-out (campaign workers x tile workers per simulation) stays within the
/// machine budget. A daemon on an 8-core box with `DXBAR_JOBS=8
/// DXBAR_TILE_THREADS=4` therefore runs 2 points at a time, each stepped by
/// 4 tile workers, rather than oversubscribing 32 threads. Every point
/// steps on that many workers — verified and resilient points included —
/// so the division never gives away budget a point then leaves idle.
fn resolve_jobs(explicit: Option<usize>, work: usize) -> usize {
    let cap = explicit.or_else(jobs_from_env).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    let cap = cap / tile_threads_from_env().max(1);
    cap.clamp(1, work.max(1))
}

/// Tile-parallel workers each simulation will spin up (`Network` reads the
/// same variable through the `rayon` shim); 0 when unset (one inline tile).
fn tile_threads_from_env() -> usize {
    std::env::var("DXBAR_TILE_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(0)
}

fn jobs_from_env() -> Option<usize> {
    std::env::var("DXBAR_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// Outcome of one [`execute_point`] call.
// Same trade-off as `PointStatus`: `Done` is the overwhelmingly common
// variant, so boxing it to shrink `Busy` would pessimize the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ExecPoint {
    /// The point is resolved (simulated, served from the cache, or failed
    /// terminally).
    Done(PointOutcome),
    /// Cooperative mode only: a sibling executor holds the point's claim.
    /// Defer the point, do other work, and call again later — the sibling's
    /// result will appear in the cache (or its claim will be released if it
    /// dies, making the point runnable here).
    Busy,
}

/// Execute (or adopt) exactly one point: the service-owned entry into the
/// campaign engine. Probes the cache, takes the advisory claim when `locks`
/// is given, runs the point under panic isolation with `max_retries`, and
/// stores clean results back to the cache.
///
/// The batch executor ([`run_campaign`]) and the daemon's scheduler both
/// drive their lifecycles through this one function, so caching, claiming
/// and failure capture behave identically in both.
pub fn execute_point(
    point: &PointSpec,
    key: &str,
    cache: Option<&ResultCache>,
    locks: Option<&CacheLocks>,
    max_retries: u32,
    runner: &(dyn Fn(&PointSpec) -> (RunResult, Option<PointVerify>) + Sync),
) -> ExecPoint {
    let t0 = Instant::now();
    let cached_outcome = |result: RunResult, t0: Instant| PointOutcome {
        point: point.clone(),
        key: key.to_string(),
        status: PointStatus::Done(result),
        cache_hit: true,
        deduped: false,
        wall_ms: t0.elapsed().as_millis() as u64,
        attempts: 0,
        verify: None,
    };
    if let Some(c) = cache {
        if let Some(result) = c.load(point) {
            return ExecPoint::Done(cached_outcome(result, t0));
        }
    }
    // Claim the point before simulating it. Holding `_claim` for the rest
    // of this call is what makes one shared cache directory shardable: no
    // sibling will simulate this point while we do, and if we die the OS
    // releases the claim so a sibling can.
    let _claim: Option<PointClaim> = match locks {
        Some(l) => match l.try_claim(key) {
            Claim::Owned(c) => {
                // The previous owner may have stored its result between our
                // cache probe and this claim; adopt it instead of re-running.
                if let Some(result) = cache.and_then(|c| c.load(point)) {
                    return ExecPoint::Done(cached_outcome(result, t0));
                }
                Some(c)
            }
            Claim::Busy => return ExecPoint::Busy,
        },
        None => None,
    };
    let mut attempts = 0u32;
    let mut verify = None;
    let mut panics: Vec<String> = Vec::new();
    let status = loop {
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(|| runner(point))) {
            Ok((result, v)) => {
                verify = v;
                // A stalled run fails its point. It is not retried (a rerun
                // is deterministic) and never cached, like a violating one:
                // a later hit could not re-report what went wrong.
                if let Some(reason) = result.stall_reason() {
                    break PointStatus::Failed(PointFailure {
                        reason,
                        panics: Vec::new(),
                        seed: point.seed,
                        repro: point.describe(),
                    });
                }
                let clean = v.is_none_or(|v| v.violations == 0);
                if let (Some(c), true) = (cache, clean) {
                    c.store(point, &result);
                }
                break PointStatus::Done(result);
            }
            Err(payload) => {
                let reason = panic_message(payload.as_ref());
                panics.push(reason);
                if attempts > max_retries {
                    break PointStatus::Failed(PointFailure {
                        reason: format!(
                            "panicked after {attempts} attempt(s): {}",
                            panics.last().map(String::as_str).unwrap_or("?")
                        ),
                        panics: std::mem::take(&mut panics),
                        seed: point.seed,
                        repro: point.describe(),
                    });
                }
            }
        }
    };
    ExecPoint::Done(PointOutcome {
        point: point.clone(),
        key: key.to_string(),
        status,
        cache_hit: false,
        deduped: false,
        wall_ms: t0.elapsed().as_millis() as u64,
        attempts,
        verify,
    })
}

/// The message a caught panic carried (`catch_unwind`'s `Err` payload).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Throttled stderr progress: at most ~40 lines per campaign plus the
/// final one, with a naive elapsed-rate ETA.
struct Progress<'a> {
    enabled: bool,
    name: &'a str,
    total: usize,
    done: AtomicUsize,
    failed: AtomicUsize,
    hits: AtomicUsize,
    start: Instant,
}

impl Progress<'_> {
    fn tick(&self, outcome: &PointOutcome) {
        if outcome.is_failed() {
            self.failed.fetch_add(1, Ordering::Relaxed);
            if self.enabled {
                eprintln!(
                    "[campaign {}] FAILED {}: {}",
                    self.name,
                    outcome.point.describe(),
                    outcome.failure().map_or("?", |f| f.reason.as_str()),
                );
            }
        }
        if outcome.cache_hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.enabled {
            return;
        }
        let stride = (self.total / 40).max(1);
        if !done.is_multiple_of(stride) && done != self.total {
            return;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        let eta = if done > 0 {
            elapsed / done as f64 * (self.total - done) as f64
        } else {
            0.0
        };
        eprintln!(
            "[campaign {}] {done}/{} ({} failed, {} cached) elapsed {elapsed:.1}s eta {eta:.0}s",
            self.name,
            self.total,
            self.failed.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
        );
    }
}
