//! Shared plumbing for the daemon integration tests: scratch directories,
//! a tiny real-simulation campaign spec, and a minimal HTTP/1.1 client
//! over `std::net::TcpStream`.

// Each test binary compiles its own copy of this module and uses a
// different subset of the helpers.
#![allow(dead_code)]

use dxbar_noc::noc_traffic::patterns::Pattern;
use dxbar_noc::{Design, SimConfig};
use noc_campaign::{CampaignSpec, PointGroup, WorkloadAxis};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Unique scratch directory per test (no tempfile crate in the offline
/// build); removed on a best-effort basis by the caller.
pub fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "noc-daemon-test-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 2 designs x 2 loads = 4 points on a 4x4 mesh with tiny windows —
/// really simulated, fast enough for a test.
pub fn tiny_spec() -> CampaignSpec {
    CampaignSpec::new("tiny").with_group(PointGroup {
        label: "tiny".into(),
        config: SimConfig {
            width: 4,
            height: 4,
            warmup_cycles: 50,
            measure_cycles: 200,
            drain_cycles: 100,
            ..SimConfig::default()
        },
        designs: vec![Design::DXbarDor, Design::FlitBless],
        workload: WorkloadAxis::Synthetic {
            patterns: vec![Pattern::UniformRandom],
            loads: vec![0.15, 0.3],
        },
        fault_fractions: vec![],
        transient_rates: vec![],
        link_faults: vec![],
        seeds: vec![],
        tag: None,
    })
}

/// One HTTP exchange: send a request, read the whole `Connection: close`
/// response, return (status, body).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let body = body.unwrap_or("");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len(),
    );
    let resp = send_raw(addr, raw.as_bytes());
    parse_response(&resp)
}

/// Like [`request`], but with an `Authorization` header attached.
pub fn request_auth(
    addr: SocketAddr,
    method: &str,
    path: &str,
    auth: &str,
    body: Option<&str>,
) -> (u16, String) {
    let body = body.unwrap_or("");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nAuthorization: {auth}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len(),
    );
    let resp = send_raw(addr, raw.as_bytes());
    parse_response(&resp)
}

/// One keep-alive connection: requests go out one at a time and each
/// response is read by its `Content-Length`.
pub struct KeepAlive {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl KeepAlive {
    pub fn open(addr: SocketAddr) -> KeepAlive {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        KeepAlive { stream, reader }
    }

    pub fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        let body = body.unwrap_or("");
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        );
        self.stream
            .write_all(raw.as_bytes())
            .expect("write request");
        let mut head = String::new();
        let mut length = 0usize;
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .expect("read response head");
            assert!(n > 0, "connection closed inside a response head: {head:?}");
            if line == "\r\n" {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().expect("Content-Length");
                }
            }
            head.push_str(&line);
        }
        let mut payload = vec![0u8; length];
        self.reader
            .read_exact(&mut payload)
            .expect("read response body");
        (
            status_of(&head),
            String::from_utf8_lossy(&payload).into_owned(),
        )
    }

    /// Whether the server has closed the connection (end of stream, no
    /// unread response).
    pub fn is_closed_by_peer(&mut self) -> bool {
        matches!(self.reader.read(&mut [0u8; 1]), Ok(0))
    }
}

/// Write raw bytes to the daemon and read until EOF.
pub fn send_raw(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(bytes).expect("write request");
    // Half-close: the server sees EOF instead of waiting out its read
    // timeout on deliberately truncated requests.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

/// Split one serialized response into (status, body).
pub fn parse_response(resp: &str) -> (u16, String) {
    let status = status_of(resp);
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Status code of the first response in a raw byte stream.
pub fn status_of(resp: &str) -> u16 {
    resp.strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {resp:?}"))
}

/// Poll a job until it reaches a terminal state; panics after `timeout`.
pub fn wait_for_job(addr: SocketAddr, id: u64, timeout: Duration) -> serde::Value {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(status, 200, "job {id} status: {body}");
        let v = serde_json::parse(&body).expect("job status JSON");
        match v.field("state").as_str() {
            Some("done") | Some("failed") | Some("cancelled") => return v,
            _ => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "job {id} did not finish in {timeout:?}; last status: {body}"
                );
                std::thread::sleep(Duration::from_millis(30));
            }
        }
    }
}
