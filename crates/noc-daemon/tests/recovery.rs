//! Journal crash-recovery: a daemon whose `journal.log` was torn by a power
//! cut (a record cut short), rotted (a flipped byte) or replaced by garbage
//! must still come up, restore every intact record, and keep serving — a
//! damaged queue journal costs at most the damaged records, never the
//! daemon.

mod common;

use common::{request, tiny_spec, wait_for_job};
use noc_campaign::io::{IoFault, IoOp, IoPolicy};
use noc_daemon::http::{self, ServeOptions};
use noc_daemon::{api, Daemon, DaemonConfig, DaemonHandle, DaemonState};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SALT: &str = "daemon-recovery-test-v1";

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

/// Submit the tiny spec; returns the job id.
fn submit(addr: SocketAddr) -> u64 {
    let body = format!("{{\"spec\": {}}}", tiny_spec().to_json());
    let (status, resp) = request(addr, "POST", "/jobs", Some(&body));
    assert_eq!(status, 202, "{resp}");
    serde_json::parse(&resp)
        .unwrap()
        .field("job")
        .as_u64()
        .unwrap()
}

fn assert_done(addr: SocketAddr, id: u64) {
    let v = wait_for_job(addr, id, Duration::from_secs(120));
    assert_eq!(v.field("state").as_str(), Some("done"), "{}", v.to_json());
}

/// `(id, state)` of every job `GET /jobs` lists.
fn listed(addr: SocketAddr) -> Vec<(u64, String)> {
    let (status, jobs) = request(addr, "GET", "/jobs", None);
    assert_eq!(status, 200);
    serde_json::parse(&jobs)
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|r| {
            (
                r.field("id").as_u64().unwrap(),
                r.field("state").as_str().unwrap().to_string(),
            )
        })
        .collect()
}

fn stop(handle: DaemonHandle) {
    handle.begin_drain();
    handle.wait();
}

/// A drained daemon's journal after `jobs` jobs ran to `done` one after the
/// other: the job ids, the first job's results table, and the log's lines
/// as `[job 1, end 1, job 2, end 2, ...]` (records of different threads may
/// land in another order; the tests below need a known one to damage).
struct Ran {
    state: PathBuf,
    cache: PathBuf,
    ids: Vec<u64>,
    first_table: String,
    lines: Vec<String>,
}

fn run_to_done(tag: &str, jobs: usize) -> Ran {
    let state = common::scratch(&format!("{tag}-state"));
    let cache = common::scratch(&format!("{tag}-cache"));
    let handle = Daemon::start(cfg(&state, &cache)).expect("daemon starts");
    let ids: Vec<u64> = (0..jobs)
        .map(|_| {
            let id = submit(handle.addr);
            assert_done(handle.addr, id);
            id
        })
        .collect();
    let (_, first_table) = request(
        handle.addr,
        "GET",
        &format!("/jobs/{}/results", ids[0]),
        None,
    );
    stop(handle);

    let text = std::fs::read_to_string(state.join("journal.log")).expect("journal exists");
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| !l.is_empty())
        .map(String::from)
        .collect();
    assert_eq!(lines.len(), 2 * jobs, "a job and an end record per job");
    let key = |line: &String| {
        let record = serde_json::parse(&line[17..]).expect("record is JSON after its checksum");
        (
            record.field("id").as_u64().unwrap(),
            record.field("op").as_str() == Some("end"),
        )
    };
    lines.sort_by_key(key);
    Ran {
        state,
        cache,
        ids,
        first_table,
        lines,
    }
}

impl Ran {
    /// Replace the journal by `text` and start a daemon on it.
    fn restart_on(&self, text: &str, cfg: DaemonConfig) -> DaemonHandle {
        std::fs::write(self.state.join("journal.log"), text).unwrap();
        Daemon::start(cfg).expect("daemon survives a damaged journal")
    }

    fn cfg(&self) -> DaemonConfig {
        cfg(&self.state, &self.cache)
    }

    /// The restored first job serves the table it served before.
    fn assert_first_table(&self, addr: SocketAddr) {
        let (status, table) = request(addr, "GET", &format!("/jobs/{}/results", self.ids[0]), None);
        assert_eq!(status, 200);
        assert_eq!(table, self.first_table);
    }

    /// New work gets an id past every journaled one and completes.
    fn assert_accepts_work(&self, addr: SocketAddr) {
        let new_id = submit(addr);
        let last = *self.ids.last().unwrap();
        assert!(new_id > last, "fresh id {new_id} collides with {last}");
        assert_done(addr, new_id);
    }

    fn cleanup(self) {
        for d in [&self.state, &self.cache] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// The log's framing: every record starts and ends with a newline.
fn framed(lines: &[String]) -> String {
    lines.iter().map(|l| format!("\n{l}\n")).collect()
}

#[test]
fn torn_journal_salvages_intact_jobs_and_daemon_resumes() {
    let ran = run_to_done("torn", 2);

    // Power-cut the journal mid-way through its last record, the second
    // job's `end`: every earlier record is whole.
    let text = framed(&ran.lines);
    let handle = ran.restart_on(&text[..text.len() - 80], ran.cfg());

    // Both jobs are back. The first is done and serves its results, byte-
    // identical; the second lost only the record that said it had finished,
    // so it resumes (as a pure cache replay) and finishes again.
    let jobs = listed(handle.addr);
    assert_eq!(jobs.len(), 2, "{jobs:?}");
    assert_eq!(jobs[0], (ran.ids[0], "done".to_string()));
    assert_eq!(jobs[1].0, ran.ids[1]);
    ran.assert_first_table(handle.addr);
    let v = wait_for_job(handle.addr, ran.ids[1], Duration::from_secs(120));
    assert_eq!(v.field("state").as_str(), Some("done"), "{}", v.to_json());
    assert_eq!(v.field("summary").field("simulated").as_u64(), Some(0));

    ran.assert_accepts_work(handle.addr);
    stop(handle);
    ran.cleanup();
}

/// Injects nothing; counts the records the read side reported as damaged.
#[derive(Debug, Default)]
struct CountDetected(AtomicUsize);

impl IoPolicy for CountDetected {
    fn inject(&self, _op: IoOp, _path: &Path, _attempt: u32) -> Option<IoFault> {
        None
    }

    fn on_detected(&self, path: &Path) {
        assert!(path.ends_with("journal.log"), "{}", path.display());
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn unfinished_job_survives_a_torn_journal_tail_and_resumes() {
    let ran = run_to_done("flip", 2);

    // One flipped byte in a middle line — the first job's `end` — and the
    // second job unfinished: its `end` record never made it.
    let mut lines = ran.lines[..3].to_vec();
    let mut rotten = std::mem::take(&mut lines[1]).into_bytes();
    let at = rotten.len() / 2;
    rotten[at] ^= 0x01;
    lines[1] = String::from_utf8(rotten).expect("a low bit of ASCII flipped");

    let detected = Arc::new(CountDetected::default());
    let handle = ran.restart_on(
        &framed(&lines),
        DaemonConfig {
            io_policy: detected.clone(),
            ..ran.cfg()
        },
    );
    assert_eq!(
        detected.0.load(Ordering::Relaxed),
        1,
        "the flipped record is reported, once"
    );

    // The flip cost that record only: the lines before and after it — both
    // jobs' submissions — are restored, and both jobs resume and finish.
    let ids: Vec<u64> = listed(handle.addr).iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, ran.ids);
    for &id in &ran.ids {
        assert_done(handle.addr, id);
    }
    ran.assert_first_table(handle.addr);
    ran.assert_accepts_work(handle.addr);
    stop(handle);
    ran.cleanup();
}

#[test]
fn garbage_journal_yields_an_empty_queue_not_a_dead_daemon() {
    let state = common::scratch("garbage-state");
    let cache = common::scratch("garbage-cache");
    std::fs::create_dir_all(&state).unwrap();
    std::fs::write(
        state.join("journal.log"),
        b"{ this is not\xff a journal\n\nat all",
    )
    .unwrap();
    // An older daemon's whole-file journal is left alone, not read.
    std::fs::write(state.join("journal.json"), "{ nor is this").unwrap();

    let handle = Daemon::start(cfg(&state, &cache)).expect("daemon survives garbage journal");
    assert_eq!(listed(handle.addr), []);

    // And it still does real work.
    let id = submit(handle.addr);
    assert_done(handle.addr, id);
    stop(handle);
    assert_eq!(
        std::fs::read_to_string(state.join("journal.json")).unwrap(),
        "{ nor is this"
    );

    for d in [&state, &cache] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn end_record_that_landed_before_its_job_record_folds() {
    let ran = run_to_done("swap", 1);

    // The worker's append overtook the submitter's.
    let swapped = [ran.lines[1].clone(), ran.lines[0].clone()];
    let handle = ran.restart_on(&framed(&swapped), ran.cfg());
    assert_eq!(listed(handle.addr), [(ran.ids[0], "done".to_string())]);
    ran.assert_first_table(handle.addr);
    stop(handle);
    ran.cleanup();
}

#[test]
fn torn_record_followed_by_a_good_one_loses_only_the_torn_one() {
    let ran = run_to_done("mid", 2);

    // The first job's submission was cut short — no newline of its own —
    // and the daemon lived on to append more. The next record's leading
    // newline ends the fragment.
    let torn = &ran.lines[0][..ran.lines[0].len() / 2];
    let text = format!("\n{torn}{}", framed(&ran.lines[1..]));
    let handle = ran.restart_on(&text, ran.cfg());

    // The torn job is gone (its `end` has nothing to fold into); the job
    // after it is whole.
    assert_eq!(listed(handle.addr), [(ran.ids[1], "done".to_string())]);
    let (status, table) = request(
        handle.addr,
        "GET",
        &format!("/jobs/{}/results", ran.ids[1]),
        None,
    );
    assert_eq!(status, 200);
    assert_eq!(table, ran.first_table, "same spec, same table");
    ran.assert_accepts_work(handle.addr);
    stop(handle);
    ran.cleanup();
}

/// Damages the next journal append once armed; counts what the read side
/// reported.
#[derive(Debug)]
struct DamageNextAppend {
    fault: IoFault,
    armed: AtomicBool,
    detected: AtomicUsize,
}

impl IoPolicy for DamageNextAppend {
    fn inject(&self, op: IoOp, _path: &Path, _attempt: u32) -> Option<IoFault> {
        (op == IoOp::JournalStore && self.armed.swap(false, Ordering::SeqCst)).then_some(self.fault)
    }

    fn on_detected(&self, path: &Path) {
        assert!(path.ends_with("journal.log"), "{}", path.display());
        self.detected.fetch_add(1, Ordering::SeqCst);
    }
}

/// A daemon put together by hand, so that the test says when the worker
/// runs: state, one worker thread, and the control plane on a loopback port.
struct ByHand {
    state: Arc<DaemonState>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    server: std::thread::JoinHandle<()>,
}

impl ByHand {
    fn start(cfg: DaemonConfig) -> ByHand {
        let state = DaemonState::new(cfg).expect("state directory is writable");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let (handler, stop) = (api::handler(state.clone()), stop.clone());
            std::thread::spawn(move || {
                http::serve(listener, handler, stop, ServeOptions::default())
            })
        };
        ByHand {
            state,
            addr,
            stop,
            server,
        }
    }

    /// Queue the tiny spec; no worker is running yet.
    fn submit(&self) -> u64 {
        self.state
            .submit(tiny_spec(), None, None, false, "test".into())
            .expect("valid spec")
            .field("job")
            .as_u64()
            .unwrap()
    }

    /// Run one worker until every queued job is done and its `end` record
    /// is appended (a worker appends it before it looks for more work).
    fn work_off(&self, ids: &[u64]) {
        let state = self.state.clone();
        let worker = std::thread::spawn(move || state.worker_loop());
        let deadline = Instant::now() + Duration::from_secs(120);
        for &id in ids {
            assert_done(self.addr, id);
            assert!(Instant::now() < deadline);
        }
        self.state.begin_drain();
        worker.join().unwrap();
    }

    fn stop(self) {
        http::stop_serving(self.addr, &self.stop);
        self.server.join().unwrap();
    }
}

/// A torn or rotted `end` record costs the job it belongs to its results
/// and manifest — a clean error, reported to the policy — until a restart
/// finds the job unfinished and replays it from the cache. It costs no
/// other job anything.
#[test]
fn damaged_end_record_fails_that_jobs_outputs_cleanly_and_heals_on_restart() {
    for (tag, fault) in [
        ("end-torn", IoFault::Truncate(120)),
        ("end-flip", IoFault::BitFlip(0x0000_0003_0000_0011)),
    ] {
        let state = common::scratch(&format!("{tag}-state"));
        let cache = common::scratch(&format!("{tag}-cache"));
        let policy = Arc::new(DamageNextAppend {
            fault,
            armed: AtomicBool::new(false),
            detected: AtomicUsize::new(0),
        });
        let cfg = || DaemonConfig {
            io_policy: policy.clone(),
            ..cfg(&state, &cache)
        };
        let get =
            |addr, id: u64, route: &str| request(addr, "GET", &format!("/jobs/{id}{route}"), None);

        let daemon = ByHand::start(cfg());
        // The intact job's records are both in the log...
        let intact = daemon.submit();
        daemon.work_off(&[intact]);
        let served = ["/results", "/manifest"].map(|route| {
            let (status, body) = get(daemon.addr, intact, route);
            assert_eq!(status, 200, "{tag} {route}: {body}");
            body
        });
        daemon.stop();

        // ...and so is the other job's `job` record when the fault is armed:
        // it hits the `end` record the worker appends.
        let daemon = ByHand::start(cfg());
        let damaged = daemon.submit();
        policy.armed.store(true, Ordering::SeqCst);
        daemon.work_off(&[damaged]);
        assert!(
            !policy.armed.load(Ordering::SeqCst),
            "{tag}: fault not taken"
        );

        assert_eq!(policy.detected.load(Ordering::SeqCst), 0, "{tag}");
        for (n, route) in ["/results", "/manifest"].into_iter().enumerate() {
            let (status, body) = get(daemon.addr, damaged, route);
            assert_eq!(status, 500, "{tag} {route}: {body}");
            assert!(body.contains("damaged"), "{tag} {route}: {body}");
            assert_eq!(policy.detected.load(Ordering::SeqCst), n + 1, "{tag}");
        }
        // The job itself and its neighbour are served as before.
        let (status, view) = get(daemon.addr, damaged, "");
        assert_eq!(status, 200);
        assert!(view.contains("\"state\": \"done\""), "{tag}: {view}");
        for (route, before) in ["/results", "/manifest"].into_iter().zip(&served) {
            assert_eq!(
                get(daemon.addr, intact, route),
                (200, before.clone()),
                "{tag}"
            );
        }
        daemon.stop();

        // A restart reads the damaged record as missing (and says so once):
        // the job is unfinished, and finishes again out of the cache.
        let detected = policy.detected.load(Ordering::SeqCst);
        let daemon = ByHand::start(cfg());
        assert_eq!(
            policy.detected.load(Ordering::SeqCst),
            detected + 1,
            "{tag}"
        );
        daemon.work_off(&[damaged]);
        assert_eq!(
            get(daemon.addr, damaged, "/results"),
            (200, served[0].clone()),
            "{tag}"
        );
        assert_eq!(get(daemon.addr, damaged, "/manifest").0, 200, "{tag}");
        assert_eq!(
            get(daemon.addr, intact, "/manifest"),
            (200, served[1].clone()),
            "{tag}"
        );
        daemon.stop();

        for d in [&state, &cache] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}
