//! End-to-end daemon lifecycle: submit over HTTP, poll to completion,
//! byte-compare against the batch executor, full cache hit on
//! resubmission, graceful drain, and journal-based resume after a
//! restart on the same state directory.

mod common;

use common::{request, tiny_spec, wait_for_job, KeepAlive};
use dxbar_noc::Design;
use noc_campaign::{render_table, run_campaign, CampaignSpec, ExecOptions, WorkloadAxis};
use noc_daemon::{Daemon, DaemonConfig};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

const SALT: &str = "daemon-e2e-test-v1";

fn cfg(state: &Path, cache: &Path) -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state.to_path_buf(),
        cache_dir: cache.to_path_buf(),
        workers: 2,
        verify_default: false,
        code_salt: SALT.into(),
        ..DaemonConfig::default()
    }
}

#[test]
fn job_lifecycle_matches_batch_executor_and_survives_restart() {
    let state = common::scratch("e2e-state");
    let cache = common::scratch("e2e-cache");
    let spec = tiny_spec();

    // Batch baseline on its own cache: the reference output the daemon's
    // results endpoint must reproduce byte for byte.
    let baseline_cache = common::scratch("e2e-baseline");
    let baseline = run_campaign(
        &spec,
        &ExecOptions {
            cache_dir: Some(baseline_cache.clone()),
            jobs: Some(2),
            code_salt: SALT.into(),
            progress: false,
            verify: false,
            cooperative: false,
            ..ExecOptions::default()
        },
    )
    .unwrap();
    let expected_table = render_table(&baseline.aggregates());

    let handle = Daemon::start(cfg(&state, &cache)).expect("daemon starts");
    let addr = handle.addr;

    // Submit, poll to done.
    let body = format!(
        "{{\"spec\": {}, \"priority\": \"interactive\"}}",
        spec.to_json()
    );
    let (status, resp) = request(addr, "POST", "/jobs", Some(&body));
    assert_eq!(status, 202, "{resp}");
    let accepted = serde_json::parse(&resp).unwrap();
    let id = accepted.field("job").as_u64().unwrap();
    assert_eq!(accepted.field("points").as_u64(), Some(4));

    // Results endpoint must 409 while the job is unfinished or just-queued.
    let (status, _) = request(addr, "GET", &format!("/jobs/{id}/results"), None);
    assert!(status == 409 || status == 200); // may already be done on a fast machine

    let v = wait_for_job(addr, id, Duration::from_secs(120));
    assert_eq!(v.field("state").as_str(), Some("done"), "{}", v.to_json());
    let summary = v.field("summary");
    assert_eq!(summary.field("total_points").as_u64(), Some(4));
    assert_eq!(summary.field("failed").as_u64(), Some(0));

    // The daemon's aggregate table is byte-identical to the batch run.
    let (status, table) = request(addr, "GET", &format!("/jobs/{id}/results"), None);
    assert_eq!(status, 200);
    assert_eq!(table, expected_table, "daemon and batch tables must agree");

    // Manifest is served and carries per-point provenance.
    let (status, manifest) = request(addr, "GET", &format!("/jobs/{id}/manifest"), None);
    assert_eq!(status, 200);
    let m = serde_json::parse(&manifest).unwrap();
    assert_eq!(m.field("total_points").as_u64(), Some(4));

    // Resubmission of the same spec is a pure cache replay: zero points
    // simulated, every point a hit.
    let (status, resp) = request(addr, "POST", "/jobs", Some(&body));
    assert_eq!(status, 202, "{resp}");
    let id2 = serde_json::parse(&resp)
        .unwrap()
        .field("job")
        .as_u64()
        .unwrap();
    let v2 = wait_for_job(addr, id2, Duration::from_secs(60));
    let s2 = v2.field("summary");
    assert_eq!(s2.field("cache_hits").as_u64(), Some(4), "{}", v2.to_json());
    assert_eq!(s2.field("simulated").as_u64(), Some(0));
    let (_, table2) = request(addr, "GET", &format!("/jobs/{id2}/results"), None);
    assert_eq!(table2, expected_table);
    assert_eq!(v2.field("cache_hits_so_far").as_u64(), Some(4));

    // Graceful drain over HTTP, then restart on the same state dir: the
    // journal restores both finished jobs with their results intact.
    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 202);
    handle.wait();

    let handle2 = Daemon::start(cfg(&state, &cache)).expect("daemon restarts");
    let addr2 = handle2.addr;
    let (status, jobs) = request(addr2, "GET", "/jobs", None);
    assert_eq!(status, 200);
    assert_eq!(
        serde_json::parse(&jobs).unwrap().as_array().unwrap().len(),
        2
    );
    let (status, table_after) = request(addr2, "GET", &format!("/jobs/{id}/results"), None);
    assert_eq!(status, 200, "results survive a restart: {table_after}");
    assert_eq!(table_after, expected_table);
    // A job reads the same whether it finished in this process or the last.
    let (_, view) = request(addr2, "GET", &format!("/jobs/{id2}"), None);
    let restored = serde_json::parse(&view).unwrap();
    for field in ["cache_hits_so_far", "total_points", "summary"] {
        assert_eq!(
            restored.field(field).to_json(),
            v2.field(field).to_json(),
            "{field} changed across the restart"
        );
    }
    let (_, table2_after) = request(addr2, "GET", &format!("/jobs/{id2}/results"), None);
    assert_eq!(table2_after, table2);
    handle2.begin_drain();
    handle2.wait();

    for d in [&state, &cache, &baseline_cache] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn drained_unfinished_job_resumes_from_the_journal_and_cache() {
    let state = common::scratch("resume-state");
    let cache = common::scratch("resume-cache");
    let spec = tiny_spec();

    // Daemon A: submit, then drain immediately — the job is journaled
    // (likely unfinished; any points already simulated are in the cache).
    let handle = Daemon::start(DaemonConfig {
        workers: 1,
        ..cfg(&state, &cache)
    })
    .expect("daemon starts");
    let body = format!("{{\"spec\": {}}}", spec.to_json());
    let (status, resp) = request(handle.addr, "POST", "/jobs", Some(&body));
    assert_eq!(status, 202, "{resp}");
    let id = serde_json::parse(&resp)
        .unwrap()
        .field("job")
        .as_u64()
        .unwrap();
    handle.begin_drain();
    // Draining daemons refuse new work.
    let (status, _) = request(handle.addr, "POST", "/jobs", Some(&body));
    assert_eq!(status, 409);
    handle.wait();

    // Daemon B on the same state dir resumes the job and finishes it;
    // whatever A completed comes back as cache hits, not re-simulation.
    let handle2 = Daemon::start(DaemonConfig {
        workers: 1,
        ..cfg(&state, &cache)
    })
    .expect("daemon restarts");
    let v = wait_for_job(handle2.addr, id, Duration::from_secs(120));
    assert_eq!(v.field("state").as_str(), Some("done"), "{}", v.to_json());
    let summary = v.field("summary");
    assert_eq!(summary.field("total_points").as_u64(), Some(4));
    assert_eq!(summary.field("failed").as_u64(), Some(0));

    // Its results still match a fresh batch run of the same spec.
    let baseline_cache = common::scratch("resume-baseline");
    let baseline = run_campaign(
        &spec,
        &ExecOptions {
            cache_dir: Some(baseline_cache.clone()),
            jobs: Some(1),
            code_salt: SALT.into(),
            progress: false,
            verify: false,
            cooperative: false,
            ..ExecOptions::default()
        },
    )
    .unwrap();
    let (status, table) = request(handle2.addr, "GET", &format!("/jobs/{id}/results"), None);
    assert_eq!(status, 200);
    assert_eq!(table, render_table(&baseline.aggregates()));
    handle2.begin_drain();
    handle2.wait();

    for d in [&state, &cache, &baseline_cache] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn two_daemons_shard_one_cache_with_zero_duplicate_simulation() {
    let cache = common::scratch("shard-cache");
    let state_a = common::scratch("shard-a");
    let state_b = common::scratch("shard-b");
    let spec = tiny_spec();

    let a = Daemon::start(cfg(&state_a, &cache)).expect("daemon A starts");
    let b = Daemon::start(cfg(&state_b, &cache)).expect("daemon B starts");

    // The same campaign lands on both daemons at once. Advisory claims in
    // the shared cache directory split the points between them.
    let body = format!("{{\"spec\": {}}}", spec.to_json());
    let (sa, ra) = request(a.addr, "POST", "/jobs", Some(&body));
    let (sb, rb) = request(b.addr, "POST", "/jobs", Some(&body));
    assert_eq!((sa, sb), (202, 202), "{ra} / {rb}");
    let ia = serde_json::parse(&ra)
        .unwrap()
        .field("job")
        .as_u64()
        .unwrap();
    let ib = serde_json::parse(&rb)
        .unwrap()
        .field("job")
        .as_u64()
        .unwrap();

    let va = wait_for_job(a.addr, ia, Duration::from_secs(120));
    let vb = wait_for_job(b.addr, ib, Duration::from_secs(120));
    assert_eq!(va.field("state").as_str(), Some("done"), "{}", va.to_json());
    assert_eq!(vb.field("state").as_str(), Some("done"), "{}", vb.to_json());

    // Exactly-once across both processes' worth of workers: the simulated
    // counts sum to the unique point count, the rest were adopted as
    // cache hits from the sibling.
    let sim_a = va.field("summary").field("simulated").as_u64().unwrap();
    let sim_b = vb.field("summary").field("simulated").as_u64().unwrap();
    assert_eq!(sim_a + sim_b, 4, "duplicate simulation across daemons");

    // Byte-identical aggregates from both daemons and from a batch run.
    let baseline_cache = common::scratch("shard-baseline");
    let baseline = run_campaign(
        &spec,
        &ExecOptions {
            cache_dir: Some(baseline_cache.clone()),
            jobs: Some(2),
            code_salt: SALT.into(),
            progress: false,
            verify: false,
            cooperative: false,
            ..ExecOptions::default()
        },
    )
    .unwrap();
    let expected = render_table(&baseline.aggregates());
    let (_, ta) = request(a.addr, "GET", &format!("/jobs/{ia}/results"), None);
    let (_, tb) = request(b.addr, "GET", &format!("/jobs/{ib}/results"), None);
    assert_eq!(ta, expected);
    assert_eq!(tb, expected);

    a.begin_drain();
    b.begin_drain();
    a.wait();
    b.wait();
    for d in [&cache, &state_a, &state_b, &baseline_cache] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn spec_drop_directory_queues_jobs() {
    let state = common::scratch("drop-state");
    let cache = common::scratch("drop-cache");
    let drop_dir = common::scratch("drop-inbox");
    std::fs::create_dir_all(&drop_dir).unwrap();

    // Write the spec BEFORE the daemon starts so its mtime is already
    // older than one poll interval when the watcher first scans.
    std::fs::write(drop_dir.join("tiny.json"), tiny_spec().to_json()).unwrap();
    std::thread::sleep(Duration::from_millis(120));

    let drop_cfg = || DaemonConfig {
        drop_dir: Some(drop_dir.clone()),
        drop_poll_ms: 100,
        ..cfg(&state, &cache)
    };
    let handle = Daemon::start(drop_cfg()).expect("daemon starts");

    // The watcher ingests the file and the job runs to completion.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let id = loop {
        let (_, jobs) = request(handle.addr, "GET", "/jobs", None);
        let rows = serde_json::parse(&jobs).unwrap();
        if let Some(row) = rows.as_array().unwrap().first() {
            break row.field("id").as_u64().unwrap();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "drop watcher never queued the spec"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    let v = wait_for_job(handle.addr, id, Duration::from_secs(120));
    assert_eq!(v.field("state").as_str(), Some("done"), "{}", v.to_json());
    assert_eq!(v.field("source").as_str(), Some("drop:tiny.json"));

    // A file that is no campaign spec is rejected — once: the journal
    // remembers it like the one that was queued, so a restart takes up
    // neither again.
    std::fs::write(drop_dir.join("bad.json"), "{\"groups\": 7}").unwrap();
    let journal = state.join("journal.log");
    let drops_of = |file: &str| {
        let needle = format!("\"file\":\"{file}\"");
        let text = std::fs::read_to_string(&journal).expect("journal exists");
        text.lines().filter(|l| l.contains(&needle)).count()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while drops_of("bad.json") == 0 {
        assert!(Instant::now() < deadline, "bad.json was never taken up");
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.begin_drain();
    handle.wait();

    let handle = Daemon::start(drop_cfg()).expect("daemon restarts");
    std::thread::sleep(Duration::from_millis(500)); // several polls
    assert_eq!(drops_of("bad.json"), 1, "rejected again after the restart");
    assert_eq!(drops_of("tiny.json"), 1);
    let (_, jobs) = request(handle.addr, "GET", "/jobs", None);
    let rows = serde_json::parse(&jobs).unwrap();
    assert_eq!(rows.as_array().unwrap().len(), 1, "queued again: {jobs}");

    handle.begin_drain();
    handle.wait();
    for d in [&state, &cache, &drop_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Submit a spec and wait for the job to finish; returns its status view.
fn run_job(addr: SocketAddr, spec: &CampaignSpec) -> serde::Value {
    let body = format!("{{\"spec\": {}}}", spec.to_json());
    let (status, resp) = request(addr, "POST", "/jobs", Some(&body));
    assert_eq!(status, 202, "{resp}");
    let id = serde_json::parse(&resp)
        .unwrap()
        .field("job")
        .as_u64()
        .unwrap();
    let v = wait_for_job(addr, id, Duration::from_secs(300));
    assert_eq!(v.field("state").as_str(), Some("done"), "{}", v.to_json());
    v
}

/// The `fig05` row of `GET /figures`: (dirty, rendered).
fn fig05_flags(addr: SocketAddr) -> (bool, bool) {
    let (status, body) = request(addr, "GET", "/figures", None);
    assert_eq!(status, 200);
    let rows = serde_json::parse(&body).unwrap();
    let row = rows
        .as_array()
        .unwrap()
        .iter()
        .find(|r| r.field("name").as_str() == Some("fig05"))
        .expect("fig05 is a served figure");
    (
        row.field("dirty").as_bool().unwrap(),
        row.field("rendered").as_bool().unwrap(),
    )
}

/// `GET /figures/fig05`: the text and the covered-point count in its header.
fn fig05_text(addr: SocketAddr) -> (String, usize) {
    let (status, text) = request(addr, "GET", "/figures/fig05", None);
    assert_eq!(status, 200, "{text}");
    let covered = text
        .split_once("coverage ")
        .and_then(|(_, rest)| rest.split_once('/'))
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or_else(|| panic!("no coverage header: {text}"));
    (text, covered)
}

#[test]
fn figure_turns_dirty_only_for_a_point_its_render_lacks() {
    // The figure registry expands the presets under the environment's
    // windows; quick ones keep the points simulated here short.
    std::env::set_var("DXBAR_QUICK", "1");
    let state = common::scratch("memo-state");
    let cache = common::scratch("memo-cache");
    // The first `loads` points of fig05's DXbar-DOR curve.
    let slice = |loads: usize| {
        let mut spec = bench::specs::fig05();
        let group = &mut spec.groups[0];
        group.designs = vec![Design::DXbarDor];
        match &mut group.workload {
            WorkloadAxis::Synthetic { loads: all, .. } => all.truncate(loads),
            _ => panic!("fig05 sweeps synthetic loads"),
        }
        assert_eq!(spec.points().len(), loads);
        spec
    };
    // A sibling executor on the shared cache.
    let sibling = |spec: &CampaignSpec| {
        let report = run_campaign(
            spec,
            &ExecOptions {
                cache_dir: Some(cache.clone()),
                jobs: Some(2),
                code_salt: SALT.into(),
                progress: false,
                verify: false,
                cooperative: false,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.failed_count(), 0);
    };

    sibling(&slice(2));
    let handle = Daemon::start(cfg(&state, &cache)).expect("daemon starts");
    let addr = handle.addr;
    assert_eq!(fig05_flags(addr), (true, false));
    let (text, covered) = fig05_text(addr);
    assert_eq!(covered, 2);
    assert_eq!(fig05_flags(addr), (false, true));

    // A warm slice the render already covers: nothing to redo.
    let v = run_job(addr, &slice(2));
    assert_eq!(v.field("summary").field("cache_hits").as_u64(), Some(2));
    assert_eq!(fig05_flags(addr), (false, true));
    assert_eq!(fig05_text(addr), (text, 2));

    // One point more, simulated here.
    let v = run_job(addr, &slice(3));
    assert_eq!(v.field("summary").field("simulated").as_u64(), Some(1));
    assert_eq!(fig05_flags(addr), (true, false));
    assert_eq!(fig05_text(addr).1, 3);
    assert_eq!(fig05_flags(addr), (false, true));

    // One point more, stored by the sibling: this daemon learns of it when
    // a job of its own completes the key as a cache hit.
    sibling(&slice(4));
    assert_eq!(fig05_flags(addr), (false, true));
    let v = run_job(addr, &slice(4));
    assert_eq!(v.field("summary").field("simulated").as_u64(), Some(0));
    assert_eq!(fig05_flags(addr), (true, false));
    assert_eq!(fig05_text(addr).1, 4);

    handle.begin_drain();
    handle.wait();
    for d in [&state, &cache] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn finished_jobs_stay_served_and_the_journal_keeps_the_last_state() {
    const JOBS: usize = 200;
    let state = common::scratch("retain-state");
    let cache = common::scratch("retain-cache");
    // Five points: one design over five loads.
    let mut spec = tiny_spec();
    spec.groups[0].designs = vec![Design::DXbarDor];
    spec.groups[0].workload = WorkloadAxis::Synthetic {
        patterns: vec![dxbar_noc::noc_traffic::patterns::Pattern::UniformRandom],
        loads: vec![0.1, 0.15, 0.2, 0.25, 0.3],
    };
    let handle = Daemon::start(cfg(&state, &cache)).expect("daemon starts");
    let addr = handle.addr;
    run_job(addr, &spec); // fills the cache

    let mut conn = KeepAlive::open(addr);
    let body = format!("{{\"spec\": {}}}", spec.to_json());
    let submit = |conn: &mut KeepAlive| {
        let (status, resp) = conn.request("POST", "/jobs", Some(&body));
        assert_eq!(status, 202, "{resp}");
        serde_json::parse(&resp)
            .unwrap()
            .field("job")
            .as_u64()
            .unwrap()
    };
    let served = |conn: &mut KeepAlive, id: u64| {
        ["", "/results", "/manifest"].map(|route| {
            let (status, body) = conn.request("GET", &format!("/jobs/{id}{route}"), None);
            assert_eq!(status, 200, "/jobs/{id}{route}: {body}");
            body
        })
    };

    let first = submit(&mut conn);
    wait_for_job(addr, first, Duration::from_secs(60));
    let first_served = served(&mut conn, first);
    let mut last = first;
    for _ in 1..JOBS {
        last = submit(&mut conn);
    }
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (_, jobs) = conn.request("GET", "/jobs", None);
        let rows = serde_json::parse(&jobs).unwrap();
        let rows = rows.as_array().unwrap();
        assert_eq!(rows.len(), JOBS + 1);
        if rows
            .iter()
            .all(|r| r.field("state").as_str() == Some("done"))
        {
            break;
        }
        assert!(Instant::now() < deadline, "jobs did not finish: {jobs}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // What a finished job serves does not depend on how long ago it
    // finished, nor on how many finished after it.
    assert_eq!(served(&mut conn, first), first_served);
    let last_served = served(&mut conn, last);
    assert_eq!(served(&mut conn, last), last_served);
    assert_eq!(last_served[1], first_served[1], "same spec, same table");
    let view = serde_json::parse(&last_served[0]).unwrap();
    assert_eq!(view.field("total_points").as_u64(), Some(5));
    assert_eq!(view.field("cache_hits_so_far").as_u64(), Some(5));

    // Journal records are written outside the queue lock, in whatever order
    // the threads reach the file; a restart must still read the last state
    // out of them: every job done, serving what it served — the manifest
    // too, which rides in the job's `end` record.
    let (_, listed) = conn.request("GET", "/jobs", None);
    drop(conn);
    handle.begin_drain();
    handle.wait();
    let handle = Daemon::start(cfg(&state, &cache)).expect("daemon restarts");
    let (status, jobs) = request(handle.addr, "GET", "/jobs", None);
    assert_eq!(status, 200);
    assert_eq!(jobs, listed, "/jobs across the restart");
    let rows = serde_json::parse(&jobs).unwrap();
    let rows = rows.as_array().unwrap();
    assert_eq!(rows.len(), JOBS + 1);
    assert!(rows
        .iter()
        .all(|r| r.field("state").as_str() == Some("done")));
    let mut conn = KeepAlive::open(handle.addr);
    assert_eq!(served(&mut conn, first), first_served, "across the restart");
    assert_eq!(served(&mut conn, last), last_served, "across the restart");
    drop(conn);
    handle.begin_drain();
    handle.wait();

    for d in [&state, &cache] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn journal_cost_does_not_grow_with_history() {
    const JOBS: usize = 300;
    let state = common::scratch("cost-state");
    let cache = common::scratch("cost-cache");
    let journal = state.join("journal.log");
    // Five points: one design over five loads.
    let mut spec = tiny_spec();
    spec.groups[0].designs = vec![Design::DXbarDor];
    spec.groups[0].workload = WorkloadAxis::Synthetic {
        patterns: vec![dxbar_noc::noc_traffic::patterns::Pattern::UniformRandom],
        loads: vec![0.1, 0.15, 0.2, 0.25, 0.3],
    };
    let handle = Daemon::start(cfg(&state, &cache)).expect("daemon starts");
    let addr = handle.addr;

    // (bytes, records) in the journal once it holds `records` records; a
    // finished job's `end` record is appended after the job reads `done`.
    let journal_at = |records: usize| {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = std::fs::read_to_string(&journal).expect("journal exists");
            let lines = text.lines().filter(|l| !l.is_empty()).count();
            if lines >= records {
                return (text.len(), lines);
            }
            assert!(Instant::now() < deadline, "{lines} of {records} records");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    // Job 1 simulates; every later one is five cache hits. What job n adds
    // to the journal: its `job` and its `end` record.
    let mut added = Vec::new();
    for n in 1..=JOBS {
        run_job(addr, &spec);
        let (bytes, records) = journal_at(2 * n);
        assert_eq!(records, 2 * n, "two records per finished job");
        added.push(bytes);
    }
    let cost = |n: usize| added[n - 1] - added[n - 2];
    // The same records, but for the digits of the id and of `gen` (two
    // more each at job 300 than at job 3, in two records: eight bytes) and
    // of `wall_ms`, in the summary and — per point and in total — in the
    // manifest.
    assert!(
        cost(JOBS).abs_diff(cost(3)) <= 32,
        "job 3 added {} bytes, job {JOBS} added {}",
        cost(3),
        cost(JOBS)
    );
    // What a five-point job adds: ~4.1 kB — the ~1.3 kB of its `job`
    // record, summary and table, and ~2.8 kB of manifest (quotes escaped),
    // which the `end` record holds so that it outlives the daemon.
    assert!(
        (3_000..5_000).contains(&cost(JOBS)),
        "job {JOBS} added {} bytes",
        cost(JOBS)
    );

    // Loading the log compacts it: one record per finished job.
    handle.begin_drain();
    handle.wait();
    let handle = Daemon::start(cfg(&state, &cache)).expect("daemon restarts");
    assert_eq!(journal_at(JOBS).1, JOBS);
    handle.begin_drain();
    handle.wait();

    for d in [&state, &cache] {
        let _ = std::fs::remove_dir_all(d);
    }
}
