//! `daemon_mixed`: an in-process daemon on a loopback port under a closed
//! loop of two clients, the only workload through `noc-daemon`'s HTTP plane,
//! queue, scheduler and journal.
//!
//! Client A opens a fresh connection per request (what `curl` and CI do)
//! and draws from a seeded mix of read routes; client B holds one keep-alive
//! connection and loops "submit a warm five-point job, poll until done".
//! Fresh and keep-alive connections use the HTTP layer differently, so
//! fixing one at the other's cost shows.

use crate::decl::ROUTES;
use crate::run::Cx;
use crate::span::Tracer;
use crate::stats;
use dxbar_noc::noc_core::Rng;
use dxbar_noc::Design;
use noc_campaign::{no_faults, run_campaign, CampaignSpec, ExecOptions, CODE_VERSION};
use noc_daemon::queue::Priority;
use noc_daemon::{Daemon, DaemonConfig, DaemonHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FIGURE: &str = "fig05";

/// No response within this long is a failed operation.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

fn route_index(route: &str) -> usize {
    ROUTES
        .iter()
        .position(|r| *r == route)
        .expect("declared route")
}

/// One HTTP/1.1 connection to the daemon.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        // What curl does; the server's side of the connection is its own.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Send one request and read the whole response: (status, body).
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: {}\r\nContent-Length: {}\r\n\r\n{body}",
            if close { "close" } else { "keep-alive" },
            body.len(),
        );
        self.stream.write_all(request.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.get(..3))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad Content-Length"))?;
                }
            }
        }
        // The daemon caps request bodies, not responses; cap what we will
        // buffer for one anyway.
        if length > 64 << 20 {
            return Err(bad("response larger than 64 MiB"));
        }
        let mut payload = vec![0u8; length];
        self.reader.read_exact(&mut payload)?;
        Ok((status, payload))
    }
}

/// One request's outcome as a client saw it.
struct Sample {
    route: usize,
    ms: f64,
    fresh: bool,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    turnaround_ms: Vec<f64>,
    jobs_submitted: u64,
    non2xx: u64,
    failures: Vec<String>,
}

/// State the two clients share with the window loop.
struct Shared {
    addr: SocketAddr,
    stop: AtomicBool,
    /// 2xx responses since the window loop last looked.
    completed: AtomicU64,
    tracer: Arc<Tracer>,
}

impl Shared {
    /// Book one exchange: 2xx responses feed the window counter, anything
    /// else (error, timeout, wrong status) is a failed operation.
    fn book(
        &self,
        log: &mut ClientLog,
        route: usize,
        fresh: bool,
        expect: u16,
        started: Instant,
        outcome: std::io::Result<(u16, Vec<u8>)>,
    ) -> Option<Vec<u8>> {
        log.samples.push(Sample {
            route,
            ms: started.elapsed().as_secs_f64() * 1e3,
            fresh,
        });
        match outcome {
            Ok((status, body)) => {
                if (200..300).contains(&status) {
                    // Relaxed: a statistic that publishes no other data.
                    self.completed.fetch_add(1, Ordering::Relaxed);
                } else {
                    log.non2xx += 1;
                }
                if status == expect {
                    return Some(body);
                }
                log.failures.push(format!(
                    "{}: status {status}, expected {expect}",
                    ROUTES[route]
                ));
            }
            Err(e) => log.failures.push(format!("{}: {e}", ROUTES[route])),
        }
        None
    }
}

/// Client A's route mix, as ten requests: half job status, a fifth health
/// checks, a tenth each of results, figure and job list.
const MIX: [&str; 10] = [
    "job_status",
    "job_status",
    "job_status",
    "job_status",
    "job_status",
    "healthz",
    "healthz",
    "results",
    "figure",
    "jobs_list",
];

/// Client A: a fresh connection per request. The seed shuffles each block of
/// ten requests, so every run has the same mix to within one block however
/// many requests it completes (a figure re-render takes 130 ms against a
/// status poll's 50; drawing each route independently let the seed move the
/// count of renders, and with it the run's CPU time, by a fifth).
fn fresh_client(shared: &Shared, seed: u64, fill_job: u64, warm_job: u64) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = Rng::stream(seed, 0x0C11_E47A);
    let mut block = MIX;
    let mut next = block.len();
    while !shared.stop.load(Ordering::Acquire) {
        if next == block.len() {
            rng.shuffle(&mut block);
            next = 0;
        }
        let route = block[next];
        next += 1;
        let job = if rng.gen_bool(0.5) {
            fill_job
        } else {
            warm_job
        };
        let path = match route {
            "job_status" => format!("/jobs/{job}"),
            "healthz" => "/healthz".to_string(),
            "results" => format!("/jobs/{job}/results"),
            "figure" => format!("/figures/{FIGURE}"),
            _ => "/jobs".to_string(),
        };
        let request = shared.tracer.span(&format!("request:{route}"), None);
        let started = Instant::now();
        let outcome = {
            let connect = shared.tracer.span("TcpStream::connect", request.id());
            let conn = Conn::open(shared.addr);
            drop(connect);
            conn.and_then(|mut c| {
                let _s = shared.tracer.span("exchange", request.id());
                c.exchange("GET", &path, "", true)
            })
        };
        shared.book(&mut log, route_index(route), true, 200, started, outcome);
    }
    log
}

/// Client B: one keep-alive connection, submit a warm job and poll it done.
fn keepalive_client(shared: &Shared, submit_body: &str, points: u64) -> ClientLog {
    let mut log = ClientLog::default();
    let submit = route_index("submit");
    let status = route_index("job_status");
    let mut conn = match Conn::open(shared.addr) {
        Ok(c) => c,
        Err(e) => {
            log.failures.push(format!("keep-alive connect: {e}"));
            return log;
        }
    };
    while !shared.stop.load(Ordering::Acquire) {
        let job_span = shared.tracer.span("job", None);
        let submitted = Instant::now();
        let outcome = {
            let _s = shared.tracer.span("request:submit", job_span.id());
            conn.exchange("POST", "/jobs", submit_body, false)
        };
        let Some(accepted) = shared.book(&mut log, submit, false, 202, submitted, outcome) else {
            return log; // the connection state is unknown after a failure
        };
        log.jobs_submitted += 1;
        let id = serde_json::parse(&String::from_utf8_lossy(&accepted))
            .ok()
            .and_then(|v| v.field("job").as_u64());
        let Some(id) = id else {
            log.failures
                .push("submit: no job id in the 202 body".into());
            return log;
        };
        // Poll until done. A job that outlives the run is abandoned, not
        // failed: its turnaround is simply not a sample.
        loop {
            let started = Instant::now();
            let outcome = {
                let _s = shared.tracer.span("request:job_status", job_span.id());
                conn.exchange("GET", &format!("/jobs/{id}"), "", false)
            };
            let Some(body) = shared.book(&mut log, status, false, 200, started, outcome) else {
                return log;
            };
            let view =
                serde_json::parse(&String::from_utf8_lossy(&body)).unwrap_or(serde::Value::Null);
            match view.field("state").as_str() {
                Some("done") => {
                    log.turnaround_ms
                        .push(submitted.elapsed().as_secs_f64() * 1e3);
                    let hits = view.field("summary").field("cache_hits").as_u64();
                    if hits != Some(points) {
                        log.failures
                            .push(format!("job {id}: {hits:?} cache hits, expected {points}"));
                    }
                    break;
                }
                Some("queued" | "running") => {}
                other => {
                    log.failures.push(format!("job {id}: state {other:?}"));
                    break;
                }
            }
            if shared.stop.load(Ordering::Acquire) {
                break;
            }
        }
    }
    log
}

/// A started daemon with a filled cache and two finished jobs; draining and
/// joining it is part of dropping it.
struct Fixture {
    handle: Option<DaemonHandle>,
    addr: SocketAddr,
    start_ms: f64,
    fill_job: u64,
    warm_job: u64,
    warm_spec: CampaignSpec,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.begin_drain();
            handle.wait();
        }
    }
}

/// The slice of the `fig05` preset that set-up simulates: quick windows,
/// the preset's own seed (the figure registry expands the preset, so only
/// its exact points are visible to `GET /figures/fig05`).
fn fig05_slice(designs: &[Design], loads: usize) -> CampaignSpec {
    let mut spec = bench::specs::fig05();
    let group = &mut spec.groups[0];
    group.designs = designs.to_vec();
    if let noc_campaign::WorkloadAxis::Synthetic { loads: all, .. } = &mut group.workload {
        all.truncate(loads);
    }
    spec
}

fn submit_body(spec: &CampaignSpec) -> String {
    format!(
        "{{\"spec\": {}, \"priority\": \"interactive\"}}",
        spec.to_json()
    )
}

/// Submit over HTTP and poll to `done`; returns the job id.
fn submit_and_wait(addr: SocketAddr, body: &str) -> Result<u64, String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    let (status, accepted) = conn
        .exchange("POST", "/jobs", body, false)
        .map_err(|e| format!("submit: {e}"))?;
    if status != 202 {
        return Err(format!("submit: status {status}"));
    }
    let id = serde_json::parse(&String::from_utf8_lossy(&accepted))
        .ok()
        .and_then(|v| v.field("job").as_u64())
        .ok_or("submit: no job id")?;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = conn
            .exchange("GET", &format!("/jobs/{id}"), "", false)
            .map_err(|e| format!("poll job {id}: {e}"))?;
        let view = serde_json::parse(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())?;
        match (status, view.field("state").as_str()) {
            (200, Some("done")) => return Ok(id),
            (200, Some("queued" | "running")) if Instant::now() < deadline => {}
            (s, state) => return Err(format!("job {id}: status {s}, state {state:?}")),
        }
    }
}

fn start(cx: &mut Cx) -> Fixture {
    // Full size: three designs over the nine loads filled, one design over
    // five loads resubmitted. Smoke: the fill is the three-point job itself.
    let (fill_spec, warm_spec) = if cx.args.smoke {
        (
            fig05_slice(&[Design::DXbarDor], 3),
            fig05_slice(&[Design::DXbarDor], 3),
        )
    } else {
        (
            fig05_slice(
                &[Design::DXbarDor, Design::Buffered4, Design::FlitBless],
                usize::MAX,
            ),
            fig05_slice(&[Design::DXbarDor], 5),
        )
    };
    let cache_dir: PathBuf = cx.scratch_dir("daemon-cache");
    let state_dir = cx.scratch_dir("daemon-state");

    // Cache fill: straight through the campaign engine on both cores; the
    // daemon (one worker) then replays it as hits.
    let filled = run_campaign(
        &fill_spec,
        &ExecOptions {
            cache_dir: Some(cache_dir.clone()),
            jobs: Some(2),
            code_salt: CODE_VERSION.to_string(),
            progress: false,
            verify: false,
            cooperative: false,
            io_policy: no_faults(),
        },
    )
    .expect("fig05 slice is a valid spec");
    cx.check(filled.failed_count() == 0, || {
        "daemon set-up: cache fill lost points".into()
    });

    let t0 = Instant::now();
    let handle = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        state_dir,
        cache_dir,
        workers: 1,
        ..DaemonConfig::default()
    })
    .expect("daemon starts on a loopback port");
    let start_ms = t0.elapsed().as_secs_f64() * 1e3;
    let addr = handle.addr;

    let mut job = |spec: &CampaignSpec| match submit_and_wait(addr, &submit_body(spec)) {
        Ok(id) => id,
        Err(e) => {
            cx.check(false, || format!("daemon set-up: {e}"));
            0
        }
    };
    let fill_job = job(&fill_spec);
    let warm_job = job(&warm_spec);
    // First render of the figure, so the timed part sees re-renders only.
    let rendered = Conn::open(addr)
        .and_then(|mut c| c.exchange("GET", &format!("/figures/{FIGURE}"), "", true));
    cx.check(matches!(rendered, Ok((200, _))), || {
        "daemon set-up: figure did not render".into()
    });

    Fixture {
        handle: Some(handle),
        addr,
        start_ms,
        fill_job,
        warm_job,
        warm_spec,
    }
}

pub fn daemon_mixed(cx: &mut Cx) {
    // The presets (and with them the figure registry's point set) read
    // their windows from the environment; quick windows keep set-up short.
    std::env::set_var("DXBAR_QUICK", "1");

    let mut start_ms = Vec::new();
    let fixture = cx.setup(|cx| {
        let f = start(cx);
        start_ms.push(f.start_ms);
        f
    });
    let shared = Arc::new(Shared {
        addr: fixture.addr,
        stop: AtomicBool::new(false),
        completed: AtomicU64::new(0),
        tracer: cx.tracer.clone(),
    });
    let window = Duration::from_secs_f64(if cx.args.smoke { 0.4 } else { 1.0 });
    let warm_points = fixture.warm_spec.points().len() as u64;
    let seed = cx.args.seed;
    let body = submit_body(&fixture.warm_spec);

    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| fresh_client(&shared, seed, fixture.fill_job, fixture.warm_job));
        let b = scope.spawn(|| keepalive_client(&shared, &body, warm_points));

        // The closed loop has no passes of its own: a pass is one window of
        // completed responses.
        cx.begin_timed();
        while cx.next_pass() {
            let t0 = Instant::now();
            std::thread::sleep(window);
            let done = shared.completed.swap(0, Ordering::Relaxed);
            cx.pass(done as f64, t0.elapsed().as_secs_f64());
        }
        cx.end_timed();
        shared.stop.store(true, Ordering::Release);
        (
            a.join().expect("client A panicked"),
            b.join().expect("client B panicked"),
        )
    });

    let mut samples = Vec::new();
    let mut non2xx = 0;
    for log in [&a, &b] {
        cx.ops(log.samples.len() as u64);
        for failure in &log.failures {
            cx.fail(failure.clone());
        }
        non2xx += log.non2xx;
        samples.extend(log.samples.iter());
    }
    cx.check(!b.turnaround_ms.is_empty(), || {
        "no job finished inside the run".into()
    });

    if cx.args.trace {
        cx.layer("daemon.start_ms", stats::median(&start_ms));
        cx.layer("daemon.requests_total", samples.len() as f64);
        cx.layer("daemon.jobs_submitted", b.jobs_submitted as f64);
        cx.layer("daemon.http_non2xx", non2xx as f64);
        let of = |keep: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
            samples.iter().filter(|s| keep(s)).map(|s| s.ms).collect()
        };
        let tail =
            |cx: &mut Cx, name: String, xs: &[f64], q: f64| match stats::tail_percentile(xs, q) {
                Some(v) => cx.layer(name, v),
                None => cx.layer_null(
                    name,
                    format!("{} samples: fewer than ten beyond the percentile", xs.len()),
                ),
            };
        for (i, route) in ROUTES.iter().enumerate() {
            let xs = of(&|s| s.route == i);
            cx.layer(format!("daemon.{route}.p50_ms"), stats::median(&xs));
            tail(cx, format!("daemon.{route}.p90_ms"), &xs, 0.90);
        }
        let all = of(&|_| true);
        cx.layer("daemon.fresh_conn.p50_ms", stats::median(&of(&|s| s.fresh)));
        cx.layer("daemon.keepalive.p50_ms", stats::median(&of(&|s| !s.fresh)));
        cx.layer("daemon.request_p50_ms", stats::median(&all));
        tail(cx, "daemon.request_p95_ms".into(), &all, 0.95);
        cx.layer(
            "daemon.job_turnaround_p50_ms",
            stats::median(&b.turnaround_ms),
        );
        direct_probes(cx, &fixture);
    }
    drop(fixture);
}

/// The same operations with no socket in the way: a route's p50 minus its
/// direct cost is what the HTTP layer adds.
fn direct_probes(cx: &mut Cx, fixture: &Fixture) {
    let budget = cx.probe_budget(2);
    let tracer = cx.tracer.clone();
    let probes = tracer.span("probes", None);
    let state = fixture
        .handle
        .as_ref()
        .expect("daemon is running")
        .state()
        .clone();

    {
        let _s = tracer.span("DaemonState::health_value+job_value", probes.id());
        let t0 = Instant::now();
        let (mut health, mut job) = (Vec::new(), Vec::new());
        while health.len() < 3 || t0.elapsed() < budget / 2 {
            let h0 = Instant::now();
            std::hint::black_box(state.health_value());
            health.push(h0.elapsed().as_secs_f64() * 1e6);
            let j0 = Instant::now();
            std::hint::black_box(state.job_value(fixture.warm_job));
            job.push(j0.elapsed().as_secs_f64() * 1e6);
        }
        cx.layer("daemon.direct.health_value_us", stats::median(&health));
        cx.layer("daemon.direct.job_value_us", stats::median(&job));
    }

    // Each finished warm job marks the figure dirty, so every figure_text
    // call here is a re-render from the cache, as in the timed part.
    let _s = tracer.span("DaemonState::submit+figure_text", probes.id());
    let t0 = Instant::now();
    let (mut submit, mut figure) = (Vec::new(), Vec::new());
    while submit.len() < 3 || t0.elapsed() < budget {
        let s0 = Instant::now();
        let accepted = state.submit(
            fixture.warm_spec.clone(),
            None,
            Some(Priority::Interactive),
            false,
            "bench-direct".into(),
        );
        submit.push(s0.elapsed().as_secs_f64() * 1e6);
        let Some(id) = accepted.ok().and_then(|v| v.field("job").as_u64()) else {
            cx.check(false, || "direct submit was refused".into());
            return;
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while state
            .job_value(id)
            .is_some_and(|v| v.field("state").as_str() != Some("done"))
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let f0 = Instant::now();
        std::hint::black_box(state.figure_text(FIGURE));
        figure.push(f0.elapsed().as_secs_f64() * 1e3);
    }
    cx.layer("daemon.direct.submit_us", stats::median(&submit));
    cx.layer("daemon.direct.figure_text_ms", stats::median(&figure));
}
