//! HTTP-layer edge cases: malformed input of every kind must map to the
//! right status code — and must never kill the daemon (the final health
//! check proves the accept loop survived everything).

mod common;

use common::{request, request_auth, send_raw, status_of, wait_for_job, KeepAlive};
use noc_daemon::http::{self, Response, ServeOptions};
use noc_daemon::{Daemon, DaemonConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

#[test]
fn protocol_edges_return_clean_statuses_and_never_kill_the_daemon() {
    let state_dir = common::scratch("http");
    let handle = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.clone(),
        cache_dir: state_dir.join("cache"),
        workers: 1,
        max_body: 4096,
        code_salt: "daemon-http-test-v1".into(),
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr;

    // Unknown route.
    let (status, body) = request(addr, "GET", "/no/such/route", None);
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("error"));

    // Wrong method on known routes.
    assert_eq!(request(addr, "DELETE", "/jobs", None).0, 405);
    assert_eq!(request(addr, "GET", "/shutdown", None).0, 405);
    assert_eq!(request(addr, "POST", "/healthz", None).0, 405);

    // Bad JSON spec / bad job requests.
    assert_eq!(request(addr, "POST", "/jobs", Some("{not json")).0, 400);
    assert_eq!(request(addr, "POST", "/jobs", Some("")).0, 400);
    assert_eq!(
        request(addr, "POST", "/jobs", Some("{\"preset\": \"no_such_fig\"}")).0,
        400
    );
    assert_eq!(
        request(addr, "POST", "/jobs", Some("{\"spec\": {\"name\": \"x\"}}")).0,
        400
    );
    assert_eq!(
        request(
            addr,
            "POST",
            "/jobs",
            Some("{\"preset\": \"smoke\", \"priority\": \"urgent\"}")
        )
        .0,
        400
    );

    // A spec whose pattern cannot run on its fabric fails validation, so
    // it is refused before anything is queued.
    let mut off_grid = common::tiny_spec();
    off_grid.groups[0].config.width = 3;
    off_grid.groups[0].config.height = 5;
    off_grid.groups[0].workload = noc_campaign::WorkloadAxis::Synthetic {
        patterns: vec![dxbar_noc::noc_traffic::patterns::Pattern::Complement],
        loads: vec![0.3],
    };
    let (status, body) = request(
        addr,
        "POST",
        "/jobs",
        Some(&format!("{{\"spec\": {}}}", off_grid.to_json())),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("power-of-two"), "{body}");

    // Oversized body (max_body = 4096).
    let big = format!("{{\"pad\": \"{}\"}}", "x".repeat(5000));
    assert_eq!(request(addr, "POST", "/jobs", Some(&big)).0, 413);

    // Chunked transfer encoding is refused, not misparsed.
    let chunked = b"POST /jobs HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n0\r\n\r\n";
    assert_eq!(status_of(&send_raw(addr, chunked)), 501);

    // Malformed request line and unsupported version.
    assert_eq!(status_of(&send_raw(addr, b"GARBAGE\r\n\r\n")), 400);
    assert_eq!(
        status_of(&send_raw(
            addr,
            b"GET / HTTP/0.9\r\nConnection: close\r\n\r\n"
        )),
        400
    );

    // Truncated body: Content-Length promises more than is sent.
    assert_eq!(
        status_of(&send_raw(
            addr,
            b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\nConnection: close\r\n\r\n{}"
        )),
        400
    );

    // Header section larger than the 16 KiB head budget.
    let huge_head = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Pad: {}\r\nConnection: close\r\n\r\n",
        "y".repeat(20_000)
    );
    assert_eq!(status_of(&send_raw(addr, huge_head.as_bytes())), 413);

    // Pipelined requests on one connection: both answered, in order.
    let pipelined = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET /presets HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    let stream = send_raw(addr, pipelined);
    assert_eq!(stream.matches("HTTP/1.1 200 OK").count(), 2, "{stream}");
    assert!(stream.contains("\"status\""), "first response is /healthz");
    assert!(
        stream.contains("verify_smoke"),
        "second response is /presets"
    );

    // After all that abuse the daemon still works end to end: submit a
    // real job over the same control plane and watch it finish.
    let (status, body) = request(
        addr,
        "POST",
        "/jobs",
        Some(&format!("{{\"spec\": {}}}", common::tiny_spec().to_json())),
    );
    assert_eq!(status, 202, "{body}");
    let id = serde_json::parse(&body)
        .unwrap()
        .field("job")
        .as_u64()
        .unwrap();
    let v = wait_for_job(addr, id, Duration::from_secs(120));
    assert_eq!(v.field("state").as_str(), Some("done"));

    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let health = serde_json::parse(&body).unwrap();
    assert_eq!(health.field("status").as_str(), Some("ok"));

    // Graceful shutdown over HTTP.
    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 202);
    handle.wait();
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Slowloris and friends: clients that dribble or stall a request must be
/// cut off by the per-request wall-clock deadline with a 408 — dribbling a
/// byte per read resets the socket timeout but never the deadline — and a
/// slow client must not wedge the worker for anyone else.
#[test]
fn slow_clients_hit_the_request_deadline_not_the_worker() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let state_dir = common::scratch("slowloris");
    let handle = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.clone(),
        cache_dir: state_dir.join("cache"),
        workers: 1,
        request_timeout_ms: 300,
        code_salt: "daemon-slowloris-test-v1".into(),
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr;

    let read_all = |mut s: TcpStream| -> String {
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    };

    // Classic slowloris: dribble header bytes, never finishing the head.
    // Every byte lands before the 300 ms deadline expires; the dribbling
    // stops just short of it so the 408 is read intact.
    let t0 = std::time::Instant::now();
    let mut s = TcpStream::connect(addr).unwrap();
    for b in b"GET /healthz" {
        if s.write_all(&[*b]).is_err() {
            break; // server already gave up on us — that is the point
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let resp = read_all(s);
    assert_eq!(status_of(&resp), 408, "{resp}");
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "deadline did not bound the dribbled request"
    );

    // A fully stalled header: the first byte arms the deadline, then
    // nothing more ever comes (and the connection stays open).
    let t0 = std::time::Instant::now();
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /healthz HT").unwrap();
    let resp = read_all(s);
    assert_eq!(status_of(&resp), 408, "{resp}");
    assert!(t0.elapsed() < Duration::from_secs(8));

    // A stalled body: complete head whose Content-Length promises bytes
    // that never arrive, without a half-close — so no EOF, just silence.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\r\n{}")
        .unwrap();
    let resp = read_all(s);
    assert_eq!(status_of(&resp), 408, "{resp}");

    // All that dawdling never wedged the daemon: a healthy request on a
    // fresh connection still answers.
    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");

    handle.begin_drain();
    handle.wait();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn bearer_token_guards_mutating_endpoints() {
    let state_dir = common::scratch("auth");
    let handle = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.clone(),
        cache_dir: state_dir.join("cache"),
        workers: 1,
        max_body: 4096,
        code_salt: "daemon-auth-test-v1".into(),
        auth_token: Some("sesame".into()),
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr;

    // Reads stay open without a token.
    assert_eq!(request(addr, "GET", "/healthz", None).0, 200);
    assert_eq!(request(addr, "GET", "/jobs", None).0, 200);
    assert_eq!(request(addr, "GET", "/presets", None).0, 200);

    // Every mutating endpoint rejects a missing or wrong token with 401
    // before any request parsing happens.
    let submit = format!("{{\"spec\": {}}}", common::tiny_spec().to_json());
    let (status, body) = request(addr, "POST", "/jobs", Some(&submit));
    assert_eq!(status, 401, "{body}");
    assert!(body.contains("bearer"), "{body}");
    assert_eq!(
        request_auth(addr, "POST", "/jobs", "Bearer wrong", Some(&submit)).0,
        401
    );
    assert_eq!(
        request_auth(addr, "POST", "/jobs", "Basic sesame", Some(&submit)).0,
        401
    );
    assert_eq!(request(addr, "POST", "/jobs/1/cancel", None).0, 401);
    assert_eq!(request(addr, "POST", "/shutdown", None).0, 401);

    // The right token reaches the real handlers: submit runs a job...
    let (status, body) = request_auth(addr, "POST", "/jobs", "Bearer sesame", Some(&submit));
    assert_eq!(status, 202, "{body}");
    let id = serde_json::parse(&body)
        .unwrap()
        .field("job")
        .as_u64()
        .unwrap();
    let v = wait_for_job(addr, id, Duration::from_secs(120));
    assert_eq!(v.field("state").as_str(), Some("done"));

    // ...cancel of an unknown id gets past auth to its 404...
    assert_eq!(
        request_auth(addr, "POST", "/jobs/999/cancel", "Bearer sesame", None).0,
        404
    );

    // ...and shutdown drains gracefully.
    assert_eq!(
        request_auth(addr, "POST", "/shutdown", "Bearer sesame", None).0,
        202
    );
    handle.wait();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn responses_carry_json_errors_not_panics() {
    let state_dir = common::scratch("http2");
    let handle = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.clone(),
        cache_dir: state_dir.join("cache"),
        workers: 1,
        code_salt: "daemon-http-test-v2".into(),
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr;

    // Unknown job id, unfinished-results conflict, bad id formats.
    assert_eq!(request(addr, "GET", "/jobs/999", None).0, 404);
    assert_eq!(request(addr, "GET", "/jobs/999/results", None).0, 404);
    assert_eq!(request(addr, "GET", "/jobs/notanumber", None).0, 404);
    assert_eq!(request(addr, "POST", "/jobs/999/cancel", None).0, 404);
    assert_eq!(request(addr, "GET", "/figures/no_such_fig", None).0, 404);

    // Every error body is the standard JSON shape.
    let (_, body) = request(addr, "GET", "/jobs/999", None);
    let v = serde_json::parse(&body).expect("error body is JSON");
    assert!(v.field("error").as_str().is_some());

    // A body of nothing but open brackets, well inside the default 1 MiB
    // `max_body`: the parser's nesting cap turns it into a 400 (it used
    // to overflow the handler's stack and abort the process).
    let (status, body) = request(addr, "POST", "/jobs", Some(&"[".repeat(100_000)));
    assert_eq!(status, 400, "{body}");
    assert_eq!(request(addr, "GET", "/healthz", None).0, 200);

    let (_, figures) = request(addr, "GET", "/figures", None);
    let rows = serde_json::parse(&figures).unwrap();
    assert_eq!(
        rows.as_array().unwrap().len(),
        noc_daemon::figures::FIGURES.len()
    );

    handle.begin_drain();
    handle.wait();
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A connection parked between requests holds its worker in `read` for the
/// idle timeout (30 s); drain must close such connections, not wait them
/// out.
#[test]
fn drain_does_not_wait_out_idle_keep_alive_peers() {
    let state_dir = common::scratch("idle-drain");
    let handle = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.clone(),
        cache_dir: state_dir.join("cache"),
        workers: 1,
        code_salt: "daemon-idle-drain-test-v1".into(),
        ..DaemonConfig::default()
    })
    .expect("daemon starts");

    // One peer idles after a served request, one never sent a byte.
    let mut served = KeepAlive::open(handle.addr);
    assert_eq!(served.request("GET", "/healthz", None).0, 200);
    let mut silent = TcpStream::connect(handle.addr).unwrap();
    // Connections are accepted in order: once a later one has been served,
    // the silent one has its worker too.
    assert_eq!(request(handle.addr, "GET", "/healthz", None).0, 200);

    let t0 = Instant::now();
    handle.begin_drain();
    handle.wait();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "drain with idle peers took {took:?}"
    );
    assert!(served.is_closed_by_peer());
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert!(matches!(
        std::io::Read::read(&mut silent, &mut [0u8; 1]),
        Ok(0)
    ));
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Stopping the accept loop answers the request a handler is working on
/// and closes the connection that is only waiting for a next request.
#[test]
fn stop_answers_the_request_in_flight() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let handler: http::Handler = Arc::new(move |req| {
        if req.path == "/slow" {
            entered_tx.send(()).unwrap();
            release_rx.lock().unwrap().recv().unwrap();
        }
        Response::text(200, "served")
    });
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = stop.clone();
        std::thread::spawn(move || http::serve(listener, handler, stop, ServeOptions::default()))
    };

    let mut idle = KeepAlive::open(addr);
    assert_eq!(idle.request("GET", "/fast", None).0, 200);
    let in_flight = std::thread::spawn(move || KeepAlive::open(addr).request("GET", "/slow", None));
    entered_rx.recv().unwrap();

    // The handler is inside the request now. The server stops, and cannot
    // return before that request is released and answered.
    http::stop_serving(addr, &stop);
    assert!(idle.is_closed_by_peer());
    assert!(!server.is_finished());
    release_tx.send(()).unwrap();
    assert_eq!(in_flight.join().unwrap(), (200, "served".to_string()));
    server.join().unwrap();
}

/// A body of the largest accepted size that is one string literal costs
/// the request thread its bytes once — a scanner that rechecks the rest of
/// the document at every character spends 15 s of CPU on this request —
/// and no other connection waits for it.
#[test]
fn a_body_that_is_one_long_string_is_answered_at_once() {
    let state_dir = common::scratch("longstring");
    let cfg = DaemonConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.clone(),
        cache_dir: state_dir.join("cache"),
        workers: 1,
        code_salt: "daemon-longstring-test-v1".into(),
        ..DaemonConfig::default()
    };
    let max_body = cfg.max_body;
    let handle = Daemon::start(cfg).expect("daemon starts");
    let addr = handle.addr;

    let frame = r#"{"name":""}"#;
    let body = format!(r#"{{"name":"{}"}}"#, "a".repeat(max_body - frame.len()));
    assert_eq!(body.len(), max_body);
    let head = format!(
        "POST /jobs HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {max_body}\r\n\r\n"
    );
    // All of the request but its last byte: the daemon is inside it...
    let mut big = TcpStream::connect(addr).expect("connect to daemon");
    big.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    big.write_all(head.as_bytes()).unwrap();
    big.write_all(&body.as_bytes()[..max_body - 1]).unwrap();
    // ...and serves another connection.
    assert_eq!(request(addr, "GET", "/healthz", None).0, 200);

    let sent = Instant::now();
    big.write_all(&body.as_bytes()[max_body - 1..]).unwrap();
    let mut response = String::new();
    big.read_to_string(&mut response).unwrap();
    let took = sent.elapsed();
    // Valid JSON, but no job request.
    assert_eq!(status_of(&response), 400, "{response}");
    assert!(response.contains("missing"), "{response}");
    assert!(took < Duration::from_secs(2), "answered after {took:?}");

    handle.begin_drain();
    handle.wait();
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// The request path has no timer in it: a health check costs what the
/// handler and one loopback round trip cost. The parent's accept poll and
/// Nagle stall put the medians at 50 and 44 ms; the bound is loose enough
/// for a busy CI host.
#[test]
fn health_checks_are_not_timer_bound() {
    let state_dir = common::scratch("latency");
    let handle = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.clone(),
        cache_dir: state_dir.join("cache"),
        workers: 1,
        code_salt: "daemon-latency-test-v1".into(),
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr;

    let median = |mut xs: Vec<Duration>| {
        xs.sort();
        xs[xs.len() / 2]
    };
    let mut conn = KeepAlive::open(addr);
    let keep_alive = median(
        (0..50)
            .map(|_| {
                let t0 = Instant::now();
                assert_eq!(conn.request("GET", "/healthz", None).0, 200);
                t0.elapsed()
            })
            .collect(),
    );
    let fresh = median(
        (0..50)
            .map(|_| {
                let t0 = Instant::now();
                assert_eq!(request(addr, "GET", "/healthz", None).0, 200);
                t0.elapsed()
            })
            .collect(),
    );
    let limit = Duration::from_millis(10);
    assert!(keep_alive < limit, "keep-alive median {keep_alive:?}");
    assert!(fresh < limit, "fresh-connection median {fresh:?}");

    handle.begin_drain();
    handle.wait();
    let _ = std::fs::remove_dir_all(&state_dir);
}
