//! Zero-dependency HTTP/1.1 scrape server for the live observability
//! plane.
//!
//! The pipeline's signals were export-at-exit only; this module serves
//! them live. [`ObsServer::bind`] starts a listener with a hand-written
//! request parser and five `GET` endpoints:
//!
//! * `/metrics` — the registry in Prometheus text exposition format
//!   ([`crate::Snapshot::to_prometheus`]). Deterministic by default:
//!   [volatile](crate::export::is_volatile) families are dropped, so two
//!   scrapes of a finished run are byte-identical; `?volatile=1` includes
//!   them.
//! * `/profile?clock=cycles|wall|both` — a live Chrome-trace snapshot of
//!   the profiler ring ([`crate::profile::snapshot_events`], non-draining;
//!   `--profile-out` still sees everything at exit). Defaults to the
//!   deterministic cycle domain.
//! * `/progress` — JSON: the run table ([`crate::run::list`]), the latest
//!   `*.progress.*` telemetry samples, and the `exec.pool.*` / `events.*`
//!   gauges.
//! * `/events` — the recorded event stream (header + frames) as a chunked
//!   response; `?follow=1` keeps the connection open and bridges live
//!   frames from the [`crate::stream`] hub until shutdown.
//! * `/health` — liveness probe.
//!
//! `/quit` additionally requests daemon shutdown when the server was bound
//! with [`ServerOptions::allow_quit`] (the CLI's `--serve-obs-hold` /
//! `obs-probe --quit` handshake).
//!
//! # Threading model
//!
//! The accept loop runs on its own named thread; each admitted connection
//! is dispatched through a pluggable [`Executor`] — the embedding daemon
//! (`cnnre_attacks::obsd`) supplies the certified `exec` pool, and
//! [`thread_executor`] is a thread-per-connection fallback. Connections
//! are **bounded**: past [`ServerOptions::max_connections`] the listener
//! answers `503` inline and drops the connection (drop-newest, counted by
//! `http.dropped`), so a scrape storm cannot pile work onto the pool.
//!
//! Shutdown is certified under the model checker (see the in-module model
//! tests): [`ObsServer::shutdown`] marks the state, wakes the blocking
//! accept with a loopback self-connect, joins the acceptor, and waits for
//! in-flight connections to drain — no new connection is admitted after
//! shutdown and no active one is abandoned.
//!
//! A minimal scrape client ([`get`]) lives here too, so tests and
//! `scripts/check.sh` can probe the endpoints without `curl`.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use cnnre_model::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use cnnre_model::thread;

use crate::json;

/// Default cap on concurrently served connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 16;
/// Longest request head (request line + headers) the parser accepts.
pub const MAX_HEAD_BYTES: usize = 8192;
/// Socket read/write timeout on served and client connections.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Poll interval of the `/events?follow=1` bridge loop.
const FOLLOW_POLL: Duration = Duration::from_millis(10);

/// A unit of connection-serving work handed to an [`Executor`].
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Pluggable connection dispatcher: the daemon wires the certified exec
/// pool in here (the obs crate cannot depend on it), and
/// [`thread_executor`] is the standalone fallback.
pub type Executor = Arc<dyn Fn(Job) + Send + Sync>;

/// A thread-per-connection [`Executor`] for standalone use and tests.
#[must_use]
pub fn thread_executor() -> Executor {
    Arc::new(|job: Job| {
        // On spawn failure the dropped job's ticket restores the
        // connection count (see ConnTicket).
        let _ = thread::Builder::new()
            .name("cnnre-obsd-conn".to_string())
            .spawn(job);
    })
}

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerOptions {
    /// Connections served concurrently before the listener answers `503`
    /// (drop-newest).
    pub max_connections: usize,
    /// Whether `GET /quit` is honored (wakes [`ObsServer::wait_quit`]).
    pub allow_quit: bool,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            max_connections: DEFAULT_MAX_CONNECTIONS,
            allow_quit: false,
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared accept/serve/shutdown state. The protocol is certified by the
/// in-module model tests: admission and teardown race freely, yet no
/// connection is admitted after shutdown and [`ServerState::wait_idle`]
/// never returns while one is active.
struct ServerState {
    inner: Mutex<Inner>,
    /// Signaled on every state change (connection end, shutdown, quit).
    changed: Condvar,
}

struct Inner {
    active: usize,
    shutdown: bool,
    quit: bool,
}

impl ServerState {
    fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                active: 0,
                shutdown: false,
                quit: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Admits a connection unless shut down or at the cap.
    fn try_begin_conn(&self, max: usize) -> bool {
        let mut st = lock(&self.inner);
        if st.shutdown || st.active >= max {
            return false;
        }
        st.active += 1;
        true
    }

    /// Retires a connection; wakes [`ServerState::wait_idle`] waiters.
    fn end_conn(&self) {
        let mut st = lock(&self.inner);
        st.active = st.active.saturating_sub(1);
        // Mutation happened under the mutex, so notifying here (still
        // holding it) cannot lose a wakeup against the wait loop's
        // predicate re-check.
        self.changed.notify_all();
        drop(st);
    }

    fn begin_shutdown(&self) {
        let mut st = lock(&self.inner);
        st.shutdown = true;
        self.changed.notify_all();
        drop(st);
    }

    fn is_shutdown(&self) -> bool {
        lock(&self.inner).shutdown
    }

    fn active(&self) -> usize {
        lock(&self.inner).active
    }

    /// Blocks until no connection is being served.
    fn wait_idle(&self) {
        let mut st = lock(&self.inner);
        while st.active > 0 {
            st = self
                .changed
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks a quit request; wakes [`ServerState::wait_quit`] waiters.
    fn request_quit(&self) {
        let mut st = lock(&self.inner);
        st.quit = true;
        self.changed.notify_all();
        drop(st);
    }

    /// Blocks until `/quit` was requested or the server shut down.
    fn wait_quit(&self) {
        let mut st = lock(&self.inner);
        while !st.quit && !st.shutdown {
            st = self
                .changed
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Restores the connection count when a serving job finishes — or when an
/// executor drops the job without running it (pool teardown), so
/// [`ServerState::wait_idle`] can never be stranded.
struct ConnTicket {
    state: Arc<ServerState>,
}

impl Drop for ConnTicket {
    fn drop(&mut self) {
        self.state.end_conn();
        crate::gauge("http.connections").set(self.state.active() as f64);
    }
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

/// A parsed request line: method, path, and query parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// HTTP method (`GET` for everything this server accepts).
    pub method: String,
    /// Decoded path, without the query string.
    pub path: String,
    /// Query parameters, `key -> value` (`key` alone maps to `""`).
    pub query: BTreeMap<String, String>,
}

impl Request {
    /// Parses the request head (everything before the blank line).
    /// Returns `None` on a malformed request line or version.
    #[must_use]
    pub fn parse(head: &str) -> Option<Self> {
        let line = head.lines().next()?;
        let mut parts = line.split_whitespace();
        let method = parts.next()?.to_owned();
        let target = parts.next()?;
        let version = parts.next()?;
        if !version.starts_with("HTTP/1.") || parts.next().is_some() {
            return None;
        }
        let (path, query_str) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        if !path.starts_with('/') {
            return None;
        }
        let mut query = BTreeMap::new();
        for pair in query_str.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.insert(k.to_owned(), v.to_owned());
        }
        Some(Request {
            method,
            path: path.to_owned(),
            query,
        })
    }
}

/// Reads the request head off `stream`: bytes up to the `\r\n\r\n`
/// terminator, capped at [`MAX_HEAD_BYTES`]. `Ok(None)` means a
/// malformed, oversized, or prematurely closed request.
fn read_head(stream: &mut TcpStream) -> io::Result<Option<String>> {
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        if buf.len() >= MAX_HEAD_BYTES {
            return Ok(None);
        }
        match stream.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) => buf.push(byte[0]),
            Err(e) => return Err(e),
        }
    }
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)
}

fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    stream.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")
}

// ---------------------------------------------------------------------------
// Endpoint handlers
// ---------------------------------------------------------------------------

const CT_JSON: &str = "application/json";
const CT_PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
const CT_TEXT: &str = "text/plain; charset=utf-8";

fn serve_connection(mut stream: TcpStream, state: &ServerState, options: ServerOptions) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let req = match read_head(&mut stream) {
        Ok(Some(head)) => Request::parse(&head),
        _ => None,
    };
    let Some(req) = req else {
        let _ = write_response(&mut stream, 400, "Bad Request", CT_TEXT, b"bad request\n");
        return;
    };
    crate::counter("http.requests").inc();
    if req.method != "GET" {
        let _ = write_response(
            &mut stream,
            405,
            "Method Not Allowed",
            CT_TEXT,
            b"only GET is served\n",
        );
        return;
    }
    let _ = route(&mut stream, &req, state, options);
}

fn route(
    stream: &mut TcpStream,
    req: &Request,
    state: &ServerState,
    options: ServerOptions,
) -> io::Result<()> {
    match req.path.as_str() {
        "/health" => {
            let mut body = String::from("{\"status\": \"ok\", \"active_connections\": ");
            json::push_u64(&mut body, state.active() as u64);
            body.push_str("}\n");
            write_response(stream, 200, "OK", CT_JSON, body.as_bytes())
        }
        "/metrics" => {
            let volatile = req.query.get("volatile").map(String::as_str) == Some("1");
            let body = crate::global().snapshot().to_prometheus(volatile);
            write_response(stream, 200, "OK", CT_PROM, body.as_bytes())
        }
        "/profile" => {
            let clock = match req.query.get("clock") {
                None => Some(crate::profile::ClockDomain::Cycles),
                Some(s) => crate::profile::ClockDomain::parse(s),
            };
            let Some(clock) = clock else {
                return write_response(
                    stream,
                    400,
                    "Bad Request",
                    CT_TEXT,
                    b"clock must be wall, cycles, or both\n",
                );
            };
            let body = crate::profile::chrome_trace(&crate::profile::snapshot_events(), clock);
            write_response(stream, 200, "OK", CT_JSON, body.as_bytes())
        }
        "/progress" => write_response(stream, 200, "OK", CT_JSON, progress_json().as_bytes()),
        "/events" => serve_events(stream, req, state),
        "/quit" if options.allow_quit => {
            write_response(stream, 200, "OK", CT_TEXT, b"shutting down\n")?;
            state.request_quit();
            Ok(())
        }
        _ => write_response(stream, 404, "Not Found", CT_TEXT, b"unknown endpoint\n"),
    }
}

/// `/events`: chunked replay of the recorded stream, then (with
/// `?follow=1`) a live bridge draining a [`crate::stream::LiveTap`] until
/// shutdown or client disconnect. The follow loop occupies one executor
/// slot for its whole lifetime — the connection cap bounds how many.
fn serve_events(stream: &mut TcpStream, req: &Request, state: &ServerState) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\
          Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    )?;
    write_chunk(stream, &crate::stream::recorded_stream_snapshot())?;
    if req.query.get("follow").map(String::as_str) == Some("1") {
        let tap = crate::stream::LiveTap::attach();
        loop {
            // Read the flag before draining, so frames emitted before
            // shutdown began are still written by this last pass.
            let done = state.is_shutdown();
            let frames = tap.take_queued();
            for f in &frames {
                // A write error (client gone) propagates; dropping the tap
                // detaches it and updates `events.clients` immediately.
                write_chunk(stream, f)?;
            }
            if done {
                break;
            }
            if frames.is_empty() {
                thread::sleep(FOLLOW_POLL);
            }
        }
    }
    stream.write_all(b"0\r\n\r\n")
}

/// The `/progress` body: run table, latest `*.progress.*` samples from
/// the profiler ring, and the live pool/event metric families.
fn progress_json() -> String {
    let mut out = String::from("{\n  \"runs\": [");
    for (i, run) in crate::run::list().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"id\": ");
        json::push_u64(&mut out, run.id);
        out.push_str(", \"label\": ");
        json::push_str(&mut out, &run.label);
        out.push_str(", \"active\": ");
        out.push_str(if run.active { "true" } else { "false" });
        out.push('}');
    }
    out.push_str("],\n  \"progress\": {");
    let mut latest: BTreeMap<String, f64> = BTreeMap::new();
    for ev in crate::profile::snapshot_events() {
        if let crate::profile::EventKind::Count { name, value } = ev.kind {
            if name.contains(".progress.") {
                latest.insert(name, value);
            }
        }
    }
    push_scalar_map(&mut out, latest.iter().map(|(k, v)| (k.as_str(), *v)));
    let snap = crate::global().snapshot();
    out.push_str("},\n  \"pool\": {");
    push_scalar_map(&mut out, prefixed_scalars(&snap, "exec.pool."));
    out.push_str("},\n  \"events\": {");
    push_scalar_map(&mut out, prefixed_scalars(&snap, "events."));
    out.push_str("}\n}\n");
    out
}

fn prefixed_scalars<'a>(
    snap: &'a crate::Snapshot,
    prefix: &'a str,
) -> impl Iterator<Item = (&'a str, f64)> {
    snap.entries.iter().filter_map(move |(name, value)| {
        if name.starts_with(prefix) {
            value.as_f64().map(|v| (name.as_str(), v))
        } else {
            None
        }
    })
}

fn push_scalar_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, f64)>) {
    let mut first = true;
    for (name, v) in entries {
        if !first {
            out.push_str(", ");
        }
        first = false;
        json::push_str(out, name);
        out.push_str(": ");
        json::push_f64(out, v);
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// A running scrape server. Dropping it shuts it down (idempotent with an
/// explicit [`ObsServer::shutdown`]).
pub struct ObsServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept loop, dispatching connections through `executor`.
    ///
    /// # Errors
    ///
    /// Propagates bind and thread-spawn failures.
    pub fn bind(addr: &str, executor: Executor, options: ServerOptions) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let state = Arc::new(ServerState::new());
        let accept_state = Arc::clone(&state);
        let acceptor = thread::Builder::new()
            .name("cnnre-obsd-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_state, &executor, options))?;
        Ok(Self {
            addr: local,
            state,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served.
    #[must_use]
    pub fn active_connections(&self) -> usize {
        self.state.active()
    }

    /// Blocks until a `/quit` request arrives (requires
    /// [`ServerOptions::allow_quit`]) or the server shuts down.
    pub fn wait_quit(&self) {
        self.state.wait_quit();
    }

    /// Programmatic equivalent of `GET /quit`.
    pub fn request_quit(&self) {
        self.state.request_quit();
    }

    /// Stops accepting, wakes the blocking accept with a loopback
    /// self-connect, joins the acceptor, and waits for in-flight
    /// connections to finish. Safe to call more than once.
    pub fn shutdown(&mut self) {
        self.state.begin_shutdown();
        // Wake the acceptor out of its blocking accept; a refused or
        // stray connection is fine — the loop re-checks shutdown first.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        self.state.wait_idle();
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    executor: &Executor,
    options: ServerOptions,
) {
    for conn in listener.incoming() {
        if state.is_shutdown() {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        if !state.try_begin_conn(options.max_connections.max(1)) {
            if state.is_shutdown() {
                break;
            }
            // At the cap: answer inline and drop — newest loses, the
            // serving pool never queues unbounded scrape work.
            crate::counter("http.dropped").inc();
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            let _ = write_response(
                &mut stream,
                503,
                "Service Unavailable",
                CT_TEXT,
                b"connection cap reached\n",
            );
            continue;
        }
        crate::gauge("http.connections").set(state.active() as f64);
        let ticket = ConnTicket {
            state: Arc::clone(state),
        };
        executor(Box::new(move || {
            serve_connection(stream, &ticket.state, options);
            drop(ticket);
        }));
    }
}

// ---------------------------------------------------------------------------
// Minimal scrape client (tests, check.sh probe — no curl in the tree)
// ---------------------------------------------------------------------------

/// Issues `GET path` against `addr` and returns `(status, body)`, with
/// chunked transfer-encoding decoded. Blocks until the server closes the
/// connection (every response here is `Connection: close`).
///
/// # Errors
///
/// Propagates connect/read errors and malformed responses.
pub fn get(addr: &str, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn bad_response(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {what}"))
}

fn parse_response(raw: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad_response("missing head terminator"))?;
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let mut lines = head.lines();
    let status_line = lines.next().ok_or_else(|| bad_response("empty head"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_response("unparseable status line"))?;
    let chunked = lines.any(|l| {
        let lower = l.to_ascii_lowercase();
        lower.starts_with("transfer-encoding:") && lower.contains("chunked")
    });
    let body = &raw[head_end + 4..];
    let body = if chunked {
        decode_chunked(body)?
    } else {
        body.to_vec()
    };
    Ok((status, body))
}

/// Decodes a chunked transfer-encoded body.
fn decode_chunked(mut body: &[u8]) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let line_end = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or_else(|| bad_response("missing chunk-size line"))?;
        let size_str = String::from_utf8_lossy(&body[..line_end]);
        let size = usize::from_str_radix(size_str.trim(), 16)
            .map_err(|_| bad_response("unparseable chunk size"))?;
        body = &body[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        // `size` comes from the server: compare without overflowing.
        if body.len().saturating_sub(2) < size {
            return Err(bad_response("truncated chunk"));
        }
        out.extend_from_slice(&body[..size]);
        body = &body[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parse_extracts_path_and_query() {
        let req = Request::parse("GET /profile?clock=cycles&x HTTP/1.1\r\nHost: h\r\n\r\n")
            .expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/profile");
        assert_eq!(req.query.get("clock").map(String::as_str), Some("cycles"));
        assert_eq!(req.query.get("x").map(String::as_str), Some(""));
        assert!(
            Request::parse("GET /x\r\n\r\n").is_none(),
            "missing version"
        );
        assert!(
            Request::parse("GET x HTTP/1.1\r\n\r\n").is_none(),
            "relative"
        );
        assert!(Request::parse("").is_none());
    }

    #[test]
    fn chunked_decoding_roundtrips() {
        let body = decode_chunked(b"4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n").expect("decodes");
        assert_eq!(body, b"wikipedia");
        assert!(decode_chunked(b"zz\r\n").is_err());
        assert!(decode_chunked(b"4\r\nwi").is_err());
        let hostile = decode_chunked(b"ffffffffffffffff\r\nwiki\r\n0\r\n\r\n");
        assert_eq!(
            hostile.expect_err("a huge chunk size is refused").kind(),
            io::ErrorKind::InvalidData
        );
    }

    fn bind_test_server(options: ServerOptions) -> ObsServer {
        ObsServer::bind("127.0.0.1:0", thread_executor(), options).expect("bind loopback")
    }

    #[test]
    fn serves_all_five_endpoints_over_loopback() {
        // Serialized with the tests that emit events, so the two /metrics
        // scrapes below see the same registry.
        let _guard = crate::test_lock();
        let server = bind_test_server(ServerOptions::default());
        let addr = server.addr().to_string();
        let (status, body) = get(&addr, "/health").expect("health");
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&body).contains("\"status\": \"ok\""));
        let (status, a) = get(&addr, "/metrics").expect("metrics");
        assert_eq!(status, 200);
        let (_, b) = get(&addr, "/metrics").expect("metrics again");
        assert_eq!(a, b, "metrics must be byte-identical across scrapes");
        let (status, body) = get(&addr, "/profile?clock=cycles").expect("profile");
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&body).contains("traceEvents"));
        let (status, body) = get(&addr, "/progress").expect("progress");
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&body).contains("\"runs\""));
        let (status, body) = get(&addr, "/events").expect("events");
        assert_eq!(status, 200);
        assert_eq!(
            &body[..8],
            crate::stream::MAGIC,
            "events replay is a stream"
        );
    }

    #[test]
    fn follow_bridges_live_frames_until_shutdown() {
        use crate::stream::{self, EventPayload};
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        stream::set_enabled(true);
        stream::set_record(false);
        stream::reset();
        let mut server = bind_test_server(ServerOptions::default());
        let addr = server.addr().to_string();
        let reader = thread::spawn(move || get(&addr, "/events?follow=1"));
        // Emit only once the tap is attached, or the frames would miss it.
        while crate::global().snapshot().get("events.clients") != Some(1.0) {
            thread::sleep(Duration::from_millis(1));
        }
        let payloads = [
            EventPayload::RunStarted {
                label: "attack.follow_test".to_string(),
            },
            EventPayload::RunFinished { structures: 3 },
        ];
        for p in &payloads {
            stream::emit(p.clone());
        }
        server.shutdown();
        let (status, body) = reader.join().expect("reader joined").expect("follow body");
        stream::set_enabled(false);
        crate::set_enabled(false);
        crate::global().reset();
        stream::reset();
        assert_eq!(status, 200);
        let mut expected = stream::header();
        for (seq, payload) in payloads.into_iter().enumerate() {
            expected.extend(stream::encode_frame(&stream::AttackEvent {
                seq: seq as u64,
                cycle: 0,
                payload,
            }));
        }
        assert_eq!(body, expected, "replay header, then exactly the two frames");
    }

    #[test]
    fn unknown_paths_and_bad_clocks_are_refused() {
        let server = bind_test_server(ServerOptions::default());
        let addr = server.addr().to_string();
        assert_eq!(get(&addr, "/nope").expect("404").0, 404);
        assert_eq!(get(&addr, "/profile?clock=sundial").expect("400").0, 400);
        // /quit is a 404 unless allow_quit is set.
        assert_eq!(get(&addr, "/quit").expect("quit off").0, 404);
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let server = bind_test_server(ServerOptions::default());
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .expect("write");
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        assert!(String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 405"));
    }

    #[test]
    fn quit_endpoint_wakes_wait_quit() {
        let server = bind_test_server(ServerOptions {
            allow_quit: true,
            ..ServerOptions::default()
        });
        let addr = server.addr().to_string();
        assert_eq!(get(&addr, "/quit").expect("quit").0, 200);
        // Returns promptly because /quit already fired.
        server.wait_quit();
    }

    #[test]
    fn shutdown_is_idempotent_and_refuses_new_connections() {
        let mut server = bind_test_server(ServerOptions::default());
        let addr = server.addr().to_string();
        assert_eq!(get(&addr, "/health").expect("health").0, 200);
        server.shutdown();
        server.shutdown();
        assert_eq!(server.active_connections(), 0);
        // The listener is gone: connects now fail or are reset.
        assert!(get(&addr, "/health").is_err());
    }
}

#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;
    use cnnre_model::{check, thread};

    /// Admission racing shutdown: under every schedule `wait_idle` returns
    /// only once no connection is active, and nothing is admitted after
    /// shutdown began — whichever way the race goes.
    #[test]
    fn shutdown_waits_for_active_connections() {
        let stats = check(|| {
            let state = Arc::new(ServerState::new());
            let conn_state = Arc::clone(&state);
            let conn = thread::spawn(move || {
                if conn_state.try_begin_conn(2) {
                    conn_state.end_conn();
                    true
                } else {
                    false
                }
            });
            state.begin_shutdown();
            state.wait_idle();
            assert_eq!(state.active(), 0, "wait_idle returned with live conns");
            assert!(
                !state.try_begin_conn(2),
                "admission must fail after shutdown"
            );
            let _admitted = conn.join().expect("conn thread joined");
        });
        assert!(
            stats.executions > 1,
            "shutdown race must explore several schedules"
        );
    }

    /// `/quit` racing the daemon's `wait_quit`: the waiter always wakes —
    /// the flag store and notify run under the state mutex, so the wakeup
    /// cannot fall into the waiter's check-then-wait window.
    #[test]
    fn quit_request_always_wakes_the_waiter() {
        let stats = check(|| {
            let state = Arc::new(ServerState::new());
            let wait_state = Arc::clone(&state);
            let waiter = thread::spawn(move || wait_state.wait_quit());
            state.request_quit();
            waiter.join().expect("waiter joined");
        });
        assert!(
            stats.executions > 1,
            "quit handshake must explore several schedules"
        );
    }
}
