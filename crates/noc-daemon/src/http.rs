//! Minimal hand-rolled HTTP/1.1 layer over `std::net` — no registry deps.
//!
//! Scope: exactly what the daemon's control plane needs. `GET`/`POST`/
//! `DELETE` with `Content-Length` bodies, keep-alive and pipelining (the
//! read loop simply parses the next request off the same buffered stream),
//! bounded header and body sizes, and a tiny response writer. Chunked
//! transfer encoding is rejected with `501`. Every parse failure maps to a
//! status code and a clean connection close — never a panic: the server
//! additionally wraps the route handler in `catch_unwind` so a handler bug
//! degrades to a `500` response instead of a dead daemon.
//!
//! Slow-client defense: each request has a hard wall-clock deadline
//! ([`ServeOptions::request_timeout`]) measured from its *first byte*. A
//! slowloris peer dribbling one header byte at a time defeats any per-read
//! socket timeout (every byte resets it) but not the deadline — the worker
//! answers `408 Request Timeout` and closes. Writes carry a socket timeout
//! too, so a peer that stops *reading* cannot pin a worker thread either.

use serde::Value;
use std::io::{BufRead, BufReader, IoSlice, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Largest accepted request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;

/// Tunable limits of one `serve` loop.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Largest accepted request body in bytes.
    pub max_body: usize,
    /// Hard deadline for reading one complete request, measured from its
    /// first byte (slowloris defense → `408`). Also used as the socket
    /// write timeout.
    pub request_timeout: Duration,
    /// How long an idle keep-alive connection may sit between requests
    /// before the worker closes it.
    pub idle_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_body: 1024 * 1024,
            request_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// The connection is waiting for the first byte of a next request.
const IDLE: u8 = 0;
/// A request is being read, handled or answered.
const BUSY: u8 = 1;
/// The accept loop shut the read side down while the connection was idle.
const CLOSED: u8 = 2;

/// What a connection's worker shares with the accept loop, so that stopping
/// can close the connections that are only waiting for a next request.
struct Conn {
    /// A dup of the connection socket: timeouts and `shutdown` apply to the
    /// shared underlying socket, not the handle.
    sock: TcpStream,
    /// `IDLE` / `BUSY` / `CLOSED`. The first byte of a request claims the
    /// connection (`IDLE` to `BUSY`) and `close_if_idle` claims it the other
    /// way (`IDLE` to `CLOSED`); compare-and-swap lets exactly one win.
    phase: AtomicU8,
}

impl Conn {
    /// Wake a worker parked between requests with an end-of-stream. A
    /// connection with a request in flight is left alone: its worker sees
    /// the stop flag once the response is out.
    fn close_if_idle(&self) {
        if self
            .phase
            .compare_exchange(IDLE, CLOSED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            let _ = self.sock.shutdown(Shutdown::Read);
        }
    }
}

/// Per-request wall-clock deadline. Armed by the first byte of a request;
/// between requests the socket sits on the (longer) idle timeout.
struct RequestClock {
    conn: Arc<Conn>,
    limit: Duration,
    started: Option<Instant>,
}

impl RequestClock {
    /// Note request activity: the first byte arms the deadline, tightens
    /// the per-read socket timeout to it and claims the connection. `false`
    /// means the accept loop closed the connection first; the byte belongs
    /// to a request that is not served.
    fn mark_byte(&mut self) -> bool {
        if self.started.is_none() {
            if self
                .conn
                .phase
                .compare_exchange(IDLE, BUSY, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                return false;
            }
            self.started = Some(Instant::now());
            let _ = self.conn.sock.set_read_timeout(Some(self.limit));
        }
        true
    }

    fn armed(&self) -> bool {
        self.started.is_some()
    }

    fn expired(&self) -> bool {
        self.started.is_some_and(|t0| t0.elapsed() >= self.limit)
    }

    /// Back to between-requests idling.
    fn reset_idle(&mut self, idle: Duration) {
        self.started = None;
        let _ = self.conn.sock.set_read_timeout(Some(idle));
        self.conn.phase.store(IDLE, Ordering::SeqCst);
    }
}

fn timed_out() -> ParseEnd {
    ParseEnd::Bad(Response::error(408, "request read deadline exceeded"))
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without query string.
    pub path: String,
    /// Raw query string ("" when absent).
    pub query: String,
    /// `Authorization` header value, trimmed, when present.
    pub authorization: Option<String>,
    pub body: Vec<u8>,
    keep_alive: bool,
}

/// One response to serialize.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// The rest of the body, after `body`: texts the handler shares with
    /// whoever keeps them, written from where they are. What a response
    /// made of many of them would cost to put together — most of a
    /// megabyte for the job list of a daemon with thousands of jobs, on
    /// whichever thread serves the connection — is never allocated.
    pub shared: Vec<Arc<str>>,
}

impl Response {
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            shared: Vec::new(),
        }
    }

    pub fn json(status: u16, v: &Value) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: (v.to_json_pretty() + "\n").into_bytes(),
            shared: Vec::new(),
        }
    }

    /// The standard error shape: `{"error": "..."}`.
    pub fn error(status: u16, msg: impl Into<String>) -> Response {
        Response::json(
            status,
            &Value::Object(vec![("error".into(), Value::Str(msg.into()))]),
        )
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            401 => "Unauthorized",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            _ => "Unknown",
        }
    }

    fn write_to(&self, stream: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let length = self.body.len() + self.shared.iter().map(|s| s.len()).sum::<usize>();
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {length}\r\nConnection: {}\r\n\r\n",
            self.status,
            Response::reason(self.status),
            self.content_type,
            if keep_alive { "keep-alive" } else { "close" },
        );
        // One gathered write (one per `IOV_MAX` parts): a body sent on its
        // own waits behind the peer's delayed ACK of the head.
        let mut parts: Vec<IoSlice> = [head.as_bytes(), &self.body]
            .into_iter()
            .chain(self.shared.iter().map(|s| s.as_bytes()))
            .map(IoSlice::new)
            .collect();
        let mut parts = &mut parts[..];
        while !parts.is_empty() {
            match stream.write_vectored(parts) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        stream.flush()
    }
}

/// Why request parsing stopped.
enum ParseEnd {
    /// A complete request was read (boxed: `Request` dwarfs the other
    /// variants and this type rides inside `Result` error positions).
    Ok(Box<Request>),
    /// Peer closed (or timed out) between requests — normal keep-alive end.
    Eof,
    /// Protocol error: answer with this response, then close.
    Bad(Response),
}

fn read_line_limited(
    r: &mut impl BufRead,
    budget: &mut usize,
    clock: &mut RequestClock,
) -> Result<String, ParseEnd> {
    let mut line = Vec::new();
    loop {
        // A dribbling peer keeps every individual read short of its socket
        // timeout; the per-request deadline is what actually fires here.
        if clock.expired() {
            return Err(timed_out());
        }
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                return if line.is_empty() {
                    Err(ParseEnd::Eof)
                } else {
                    Err(ParseEnd::Bad(Response::error(400, "truncated request")))
                }
            }
            Ok(_) => {
                if !clock.mark_byte() {
                    return Err(ParseEnd::Eof);
                }
                if *budget == 0 {
                    return Err(ParseEnd::Bad(Response::error(
                        413,
                        "request head too large",
                    )));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return match String::from_utf8(line) {
                        Ok(s) => Ok(s),
                        Err(_) => Err(ParseEnd::Bad(Response::error(400, "non-UTF-8 header"))),
                    };
                }
                line.push(byte[0]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Socket timeout mid-request means the deadline lapsed with
                // the peer stalled; between requests it is a normal idle
                // keep-alive close.
                return if clock.armed() {
                    Err(timed_out())
                } else {
                    Err(ParseEnd::Eof)
                };
            }
            Err(_) => return Err(ParseEnd::Eof),
        }
    }
}

fn parse_request(
    reader: &mut BufReader<TcpStream>,
    max_body: usize,
    clock: &mut RequestClock,
) -> ParseEnd {
    let mut budget = MAX_HEAD;
    let request_line = match read_line_limited(reader, &mut budget, clock) {
        Ok(l) => l,
        Err(end) => return end,
    };
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return ParseEnd::Bad(Response::error(400, "malformed request line")),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return ParseEnd::Bad(Response::error(400, "unsupported HTTP version"));
    }
    let mut keep_alive = version == "HTTP/1.1";
    let mut content_length: usize = 0;
    let mut chunked = false;
    let mut authorization: Option<String> = None;
    loop {
        let line = match read_line_limited(reader, &mut budget, clock) {
            Ok(l) => l,
            Err(ParseEnd::Eof) => return ParseEnd::Bad(Response::error(400, "truncated headers")),
            Err(end) => return end,
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return ParseEnd::Bad(Response::error(400, "malformed header"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => match value.parse::<usize>() {
                Ok(n) => content_length = n,
                Err(_) => return ParseEnd::Bad(Response::error(400, "bad Content-Length")),
            },
            "transfer-encoding" if !value.eq_ignore_ascii_case("identity") => chunked = true,
            "authorization" => authorization = Some(value.to_string()),
            "connection" => {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }
    if chunked {
        return ParseEnd::Bad(Response::error(501, "chunked bodies not supported"));
    }
    if content_length > max_body {
        return ParseEnd::Bad(Response::error(
            413,
            format!("body exceeds {max_body} byte limit"),
        ));
    }
    // Body read honours the same per-request deadline: a peer dribbling a
    // large Content-Length body one byte at a time gets a 408, not a
    // permanently pinned worker thread.
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        if clock.expired() {
            return timed_out();
        }
        match reader.read(&mut body[filled..]) {
            Ok(0) => return ParseEnd::Bad(Response::error(400, "truncated body")),
            Ok(n) => {
                clock.mark_byte();
                filled += n;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return timed_out();
            }
            Err(_) => return ParseEnd::Bad(Response::error(400, "truncated body")),
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    ParseEnd::Ok(Box::new(Request {
        method: method.to_string(),
        path,
        query,
        authorization,
        body,
        keep_alive,
    }))
}

/// The route handler type: pure request → response.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

fn handle_connection(
    stream: TcpStream,
    conn: Arc<Conn>,
    handler: Handler,
    opts: &ServeOptions,
    stop: &AtomicBool,
) {
    // A peer that stops reading cannot pin the worker in write_all either.
    let _ = stream.set_write_timeout(Some(opts.request_timeout));
    let mut clock = RequestClock {
        conn,
        limit: opts.request_timeout,
        started: None,
    };
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stream = stream;
    loop {
        // Bound how long an idle keep-alive connection can pin its thread;
        // the first byte of the next request arms the request deadline.
        clock.reset_idle(opts.idle_timeout);
        // Idle is published before the flag is read, and the flag is raised
        // before `serve` looks for idle connections (all SeqCst), so a
        // stopping server never leaves this worker parked in `read`.
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match parse_request(&mut reader, opts.max_body, &mut clock) {
            ParseEnd::Ok(req) => {
                let resp = match catch_unwind(AssertUnwindSafe(|| handler(&req))) {
                    Ok(r) => r,
                    Err(_) => Response::error(500, "internal handler panic"),
                };
                if resp.write_to(&mut stream, req.keep_alive).is_err() || !req.keep_alive {
                    return;
                }
            }
            ParseEnd::Eof => return,
            ParseEnd::Bad(resp) => {
                let _ = resp.write_to(&mut stream, false);
                return;
            }
        }
    }
}

/// Accept loop: serves until [`stop_serving`] is called. The loop blocks in
/// `accept`, so an arriving connection is picked up at once. Each connection
/// gets its own thread (simulation work lives on the scheduler's worker
/// threads). On the way out, connections waiting between requests are
/// closed and requests in flight are answered before `serve` returns.
pub fn serve(listener: TcpListener, handler: Handler, stop: Arc<AtomicBool>, opts: ServeOptions) {
    // Weak: the socket closes when its worker ends, not when this list is
    // next pruned.
    let mut conns: Vec<(std::thread::JoinHandle<()>, Weak<Conn>)> = Vec::new();
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _addr)) => {
                // Responses are single writes; Nagle would only delay them.
                let _ = stream.set_nodelay(true);
                let Ok(sock) = stream.try_clone() else {
                    continue;
                };
                let conn = Arc::new(Conn {
                    sock,
                    phase: AtomicU8::new(IDLE),
                });
                let weak = Arc::downgrade(&conn);
                let (h, o, s) = (handler.clone(), opts.clone(), stop.clone());
                let worker = std::thread::spawn(move || handle_connection(stream, conn, h, &o, &s));
                conns.retain(|(worker, _)| !worker.is_finished());
                conns.push((worker, weak));
            }
            // A peer that reset while in the backlog, or no descriptor left
            // until a connection ends: either way the next `accept` is the
            // retry, after the connection workers have had the core.
            Err(_) => std::thread::yield_now(),
        }
    }
    for (_, conn) in &conns {
        if let Some(conn) = conn.upgrade() {
            conn.close_if_idle();
        }
    }
    for (worker, _) in conns {
        let _ = worker.join();
    }
}

/// Stop a running [`serve`] loop on `addr`: raise its stop flag, then wake
/// the blocked `accept` with a throw-away loopback connection.
pub fn stop_serving(addr: SocketAddr, stop: &AtomicBool) {
    stop.store(true, Ordering::SeqCst);
    let mut addr = addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    if let Err(e) = TcpStream::connect(addr) {
        eprintln!(
            "[daemon] cannot wake the accept loop on {addr} ({e}); it stops at the next connection"
        );
    }
}
