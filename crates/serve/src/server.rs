//! The std-only HTTP/1.1 study server: `std::net::TcpListener`, one thread
//! per connection, routing onto the [`Scheduler`].
//!
//! # Endpoints
//!
//! | Method & path                  | Purpose |
//! |--------------------------------|---------|
//! | `POST /studies`                | Submit a study spec (full or shortcut form; see [`crate::api`]). Tenant from the `X-Tenant` header (default `anon`). `202` with `{"job":…}`; `429` when the queue rejects. |
//! | `GET /studies/{id}`            | One status + progress snapshot, plus the submitting request's id and the job's scoped counter snapshot (`"metrics"`, empty until the job runs or when metrics are off). |
//! | `GET /studies/{id}/progress`   | Same snapshot; with `?stream=1`, a close-delimited JSONL stream of snapshots until the job settles. |
//! | `GET /studies/{id}/result`     | Block (up to `?wait_ms`, default 10 min) for the result. `200` with the records JSONL on success — byte-identical to the CLI run of the same spec; `202` while still running; `410` for cancelled; `500` for failed. |
//! | `POST /studies/{id}/cancel`    | Cooperative cancel. |
//! | `GET /metrics`                 | Prometheus text exposition of the whole obs registry (counters, gauges, histograms, live per-job scoped series as labels). |
//! | `GET /stats`                   | Scheduler state (`queue_depth`, `in_flight`, per-worker `deque_lens`, lifetime `tenants_served`) + global obs counters. |
//! | `GET /healthz`                 | Liveness probe. |
//!
//! Every exchange is one request, one response, connection closed — no
//! keep-alive state to manage across tenants.
//!
//! # Observability
//!
//! Each request gets a request id — the inbound `X-Request-Id` header when
//! present, else a generated `req-{n}` — which is recorded on submitted jobs
//! and echoed in their views. With tracing on, every request opens an
//! `http.request` span and submitted jobs parent their root span under it,
//! so one submission produces a single span tree from socket accept down to
//! the deepest execution shard. With a sink installed, each request also
//! emits (and flushes) one `{"type":"access",…}` JSONL line. With metrics
//! on, per-endpoint status-class counters (`http_requests_{endpoint}_{class}`)
//! and the `http_request_us` latency histogram tick. Accepted connections
//! carry read/write timeouts ([`ServerConfig::read_timeout`] /
//! [`ServerConfig::write_timeout`]) so a stalled client cannot pin a handler
//! thread forever.
//!
//! # Accepting and shutting down
//!
//! The accept thread blocks in `accept`, so a connection is handed to its
//! handler thread as soon as the kernel completes it; no timer sits on a
//! request's path. [`Server::shutdown`] (and `Drop`) sets the stop flag and
//! then wakes that `accept` by connecting to the server's own address, with
//! a wildcard bind (`0.0.0.0`, `::`) reached through the loopback of its
//! family. The loop checks the flag after every accept and returns without
//! serving, so the wake connection never reaches a handler, the access log
//! or the `http_requests_*` counters. If the wake connection cannot be made
//! (descriptors exhausted, say), shutdown warns and returns without joining
//! the accept thread, which exits at the next connection it accepts.

use crate::api;
use crate::http::{read_request, write_response, write_stream_head, Request};
use crate::sched::SchedConfig;
use crate::scheduler::{JobPhase, JobView, SchedStats, Scheduler, SubmitError};
use hammervolt_core::exec::ExecConfig;
use hammervolt_core::job::ProgressSnapshot;
use hammervolt_obs::json::ObjectWriter;
use hammervolt_obs::{histogram_record, metrics, prometheus, Span};
use std::io::{self, BufReader, Write as _};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the accept loop backs off after a failed accept, and the
/// longest gap between `?stream=1` progress snapshots while a job runs.
const POLL: Duration = Duration::from_millis(25);

/// How long shutdown's wake connection may take to connect. A loopback
/// connect completes or is refused at once; this only bounds a full accept
/// backlog.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Default cap on how long `/result` blocks before answering `202`.
const DEFAULT_WAIT: Duration = Duration::from_secs(600);

/// Everything the server needs: scheduler sizing and the execution-engine
/// template shared by all jobs (cache directory, per-job worker count,
/// checkpoint policy).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Scheduler sizing.
    pub sched: SchedConfig,
    /// Engine configuration every job runs under.
    pub exec: ExecConfig,
    /// Per-read socket timeout on accepted connections (`None` blocks
    /// forever). Bounds how long a slow or silent client can hold a handler
    /// thread while sending its request.
    pub read_timeout: Option<Duration>,
    /// Per-write socket timeout on accepted connections (`None` blocks
    /// forever). Bounds a client that accepts the connection but never
    /// drains the response.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            sched: SchedConfig::default(),
            exec: ExecConfig::default(),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Monotonic source for generated request ids (`req-{n}`).
static REQUEST_SEQ: AtomicU64 = AtomicU64::new(0);

/// A running study server. Dropping it (or calling [`Server::shutdown`])
/// stops accepting connections and drains the scheduler.
pub struct Server {
    addr: SocketAddr,
    /// The server's own handle on its scheduler (the accept loop and its
    /// handlers hold the others), so that dropping the server, after
    /// shutdown has joined the accept loop, drains the scheduler on the
    /// dropping thread.
    _sched: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the accept
    /// loop and scheduler workers.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures from the listener.
    pub fn start(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let timeouts = (config.read_timeout, config.write_timeout);
        let sched = Arc::new(Scheduler::start(config.sched, config.exec));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let sched = Arc::clone(&sched);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("hv-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &sched, &stop, timeouts))
                .expect("spawn accept loop")
        };
        Ok(Server {
            addr,
            _sched: sched,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections, then drains and joins the scheduler
    /// workers.
    ///
    /// The accept thread is blocked in `accept`: shutdown sets the stop flag,
    /// wakes it with one connection to [`Server::addr`] (a wildcard address
    /// is reached through the loopback of its family) and joins it. The
    /// loop drops that connection unserved. If the connection cannot be made,
    /// shutdown warns through [`hammervolt_obs::warn`] and returns without
    /// joining: the accept thread exits at the next connection it accepts,
    /// and the scheduler drains when that thread releases it.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let Some(handle) = self.accept.take() else {
            return;
        };
        let addr = wake_addr(self.addr);
        wake_then_join(
            || TcpStream::connect_timeout(&addr, WAKE_TIMEOUT),
            || {
                let _ = handle.join();
            },
        );
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
        // The scheduler's own Drop drains workers once the last Arc (accept
        // loop joined above; handler threads are short-lived) releases.
    }
}

/// Where shutdown connects to wake the accept loop: the bound address, with
/// an unspecified IP replaced by the loopback of its family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Wakes the accept loop out of its blocking `accept` with `connect`, then
/// `join`s it, holding the wake connection open until the join returns. A
/// failed `connect` (`EMFILE`, say) warns and returns without joining: the
/// stop flag is already set, so the loop exits at the next connection it
/// accepts instead of hanging shutdown now.
fn wake_then_join<C>(connect: impl FnOnce() -> io::Result<C>, join: impl FnOnce()) {
    match connect() {
        Ok(_wake) => join(),
        Err(e) => hammervolt_obs::warn(
            "serve",
            &format!("cannot wake the accept loop ({e}); shutting down without joining it"),
        ),
    }
}

fn accept_loop(
    listener: &TcpListener,
    sched: &Arc<Scheduler>,
    stop: &AtomicBool,
    timeouts: (Option<Duration>, Option<Duration>),
) {
    accept_until_stopped(
        stop,
        || listener.accept().map(|(stream, _peer)| stream),
        |stream| {
            let _ = stream.set_read_timeout(timeouts.0);
            let _ = stream.set_write_timeout(timeouts.1);
            let sched = Arc::clone(sched);
            let _ = std::thread::Builder::new()
                .name("hv-serve-conn".to_string())
                .spawn(move || {
                    let _ = handle_connection(&sched, stream);
                });
        },
    );
}

/// Hands each accepted connection to `serve` until `stop` is set. `accept`
/// blocks until a connection arrives. `stop` is checked after every accept,
/// whatever it returned, and a connection accepted once `stop` is set (the
/// shutdown wake-up among them) is dropped unserved. An accept error sleeps
/// [`POLL`] before retrying: a persistent error such as `EMFILE`
/// (descriptors exhausted) must not spin a core the scheduler workers need.
fn accept_until_stopped<C>(
    stop: &AtomicBool,
    mut accept: impl FnMut() -> io::Result<C>,
    mut serve: impl FnMut(C),
) {
    loop {
        let accepted = accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok(conn) => serve(conn),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

fn handle_connection(sched: &Scheduler, stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let started = Instant::now();
    let request = match read_request(&mut reader) {
        Ok(Some(req)) => req,
        Ok(None) => return Ok(()),
        Err(e) => {
            let rid = next_request_id();
            let result = write_response(
                &mut out,
                400,
                "Bad Request",
                "application/json",
                api::error_body(&e.to_string()).as_bytes(),
            );
            finish_request("bad_request", "?", "?", "anon", &rid, 400, started);
            return result;
        }
    };
    let rid = request
        .header("x-request-id")
        .filter(|v| !v.is_empty())
        .map_or_else(next_request_id, str::to_string);
    let tenant = request.header("x-tenant").unwrap_or("anon").to_string();
    let mut span = Span::begin("http.request");
    span.field_str("method", &request.method);
    span.field_str("path", &request.path);
    span.field_str("request_id", &rid);
    let result = route(sched, &request, &mut out, span.id(), &rid);
    drop(span);
    // An Err here means the socket died mid-response; log it as status 0 so
    // the access log still accounts for the request.
    let status = *result.as_ref().unwrap_or(&0);
    finish_request(
        endpoint_label(&request.method, &request.path),
        &request.method,
        &request.path,
        &tenant,
        &rid,
        status,
        started,
    );
    result.map(|_| ())
}

fn next_request_id() -> String {
    format!("req-{}", REQUEST_SEQ.fetch_add(1, Ordering::Relaxed) + 1)
}

/// The bounded per-endpoint label used in metric names — one label per
/// route, never derived from raw client input.
fn endpoint_label(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("GET", "/healthz") => "healthz",
        ("GET", "/stats") => "stats",
        ("GET", "/metrics") => "metrics",
        ("POST", "/studies") => "submit",
        (method, path) => match (method, study_target(path).map(|(_, action)| action)) {
            ("GET", Some(None)) => "status",
            ("GET", Some(Some("progress"))) => "progress",
            ("GET", Some(Some("result"))) => "result",
            ("POST", Some(Some("cancel"))) => "cancel",
            _ => "other",
        },
    }
}

/// Per-request bookkeeping: status-class counter, latency histogram, and one
/// flushed `{"type":"access",…}` JSONL line through the installed sink.
fn finish_request(
    endpoint: &str,
    method: &str,
    path: &str,
    tenant: &str,
    request_id: &str,
    status: u16,
    started: Instant,
) {
    let dur_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    if hammervolt_obs::metrics_enabled() {
        let class = match status {
            200..=299 => "2xx",
            300..=399 => "3xx",
            400..=499 => "4xx",
            500..=599 => "5xx",
            _ => "err",
        };
        metrics::counter_named(&format!("http_requests_{endpoint}_{class}")).add(1);
        histogram_record!("http_request_us", dur_us);
    }
    if hammervolt_obs::sink_installed() {
        let mut line = ObjectWriter::new();
        line.field_str("type", "access");
        line.field_u64("t_us", hammervolt_obs::epoch_us());
        line.field_str("method", method);
        line.field_str("path", path);
        line.field_u64("status", u64::from(status));
        line.field_u64("dur_us", dur_us);
        line.field_str("request_id", request_id);
        line.field_str("tenant", tenant);
        hammervolt_obs::emit_event(&line.finish());
        // One flush per request: the serve process is typically killed by
        // signal, and buffered access lines would vanish with it.
        hammervolt_obs::flush_sink();
    }
}

/// Splits `/studies/{id}[/{action}]` into the id and optional action.
fn study_target(path: &str) -> Option<(u64, Option<&str>)> {
    let rest = path.strip_prefix("/studies/")?;
    let (id_part, action) = match rest.split_once('/') {
        Some((id, action)) => (id, Some(action)),
        None => (rest, None),
    };
    id_part.parse().ok().map(|id| (id, action))
}

/// Dispatches one request; every handler returns the HTTP status it wrote so
/// the caller can attribute counters and the access log.
fn route(
    sched: &Scheduler,
    req: &Request,
    out: &mut TcpStream,
    trace_parent: u64,
    request_id: &str,
) -> io::Result<u16> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            write_response(out, 200, "OK", "application/json", b"{\"ok\":true}")?;
            Ok(200)
        }
        ("GET", "/metrics") => {
            let body = prometheus::render();
            write_response(out, 200, "OK", "text/plain; version=0.0.4", body.as_bytes())?;
            Ok(200)
        }
        ("GET", "/stats") => {
            let body = stats_body(sched);
            write_response(out, 200, "OK", "application/json", body.as_bytes())?;
            Ok(200)
        }
        ("POST", "/studies") => submit(sched, req, out, trace_parent, request_id),
        (method, path) => {
            if let Some((id, action)) = study_target(path) {
                return match (method, action) {
                    ("GET", None) => status(sched, id, out),
                    ("GET", Some("progress")) => progress(sched, req, id, out),
                    ("GET", Some("result")) => result(sched, req, id, out),
                    ("POST", Some("cancel")) => cancel(sched, id, out),
                    _ => not_found(out),
                };
            }
            not_found(out)
        }
    }
}

fn not_found(out: &mut TcpStream) -> io::Result<u16> {
    write_response(
        out,
        404,
        "Not Found",
        "application/json",
        api::error_body("no such resource").as_bytes(),
    )?;
    Ok(404)
}

fn submit(
    sched: &Scheduler,
    req: &Request,
    out: &mut TcpStream,
    trace_parent: u64,
    request_id: &str,
) -> io::Result<u16> {
    let spec = match api::parse_spec(&req.body) {
        Ok(spec) => spec,
        Err(msg) => {
            write_response(
                out,
                400,
                "Bad Request",
                "application/json",
                api::error_body(&msg).as_bytes(),
            )?;
            return Ok(400);
        }
    };
    let tenant = req.header("x-tenant").unwrap_or("anon").to_string();
    match sched.submit_with(&tenant, spec, request_id, trace_parent) {
        Ok(id) => {
            let view = sched.view(id);
            let state = view.map_or("queued".to_string(), |v| v.phase.label().to_string());
            let hash = sched.view(id).map_or(0, |v| v.spec_hash);
            let mut body = ObjectWriter::new();
            body.field_u64("job", id);
            body.field_str("spec_hash", &format!("{hash:016x}"));
            body.field_str("state", &state);
            body.field_str("request_id", request_id);
            write_response(
                out,
                202,
                "Accepted",
                "application/json",
                body.finish().as_bytes(),
            )?;
            Ok(202)
        }
        Err(SubmitError::QueueFull) => {
            write_response(
                out,
                429,
                "Too Many Requests",
                "application/json",
                api::error_body("queue full").as_bytes(),
            )?;
            Ok(429)
        }
        Err(SubmitError::ShuttingDown) => {
            write_response(
                out,
                503,
                "Service Unavailable",
                "application/json",
                api::error_body("shutting down").as_bytes(),
            )?;
            Ok(503)
        }
    }
}

fn view_body(view: &JobView) -> String {
    let mut body = ObjectWriter::new();
    body.field_u64("job", view.id);
    body.field_str("spec_hash", &format!("{:016x}", view.spec_hash));
    body.field_str("state", view.phase.label());
    body.field_u64("subscribers", view.subscribers);
    body.field_str("request_id", &view.request_id);
    body.field_raw("progress", &progress_body(&view.progress));
    body.field_raw("metrics", &u64_object(&view.metrics));
    if let JobPhase::Failed(msg) = &view.phase {
        body.field_str("error", msg);
    }
    body.finish()
}

/// A JSON object of unsigned fields, in the order given.
fn u64_object<K: AsRef<str>>(fields: &[(K, u64)]) -> String {
    let mut object = ObjectWriter::new();
    for (key, value) in fields {
        object.field_u64(key.as_ref(), *value);
    }
    object.finish()
}

fn progress_body(p: &ProgressSnapshot) -> String {
    serde_json::to_string(p).expect("snapshot serializes")
}

fn status(sched: &Scheduler, id: u64, out: &mut TcpStream) -> io::Result<u16> {
    match sched.view(id) {
        Some(view) => {
            write_response(
                out,
                200,
                "OK",
                "application/json",
                view_body(&view).as_bytes(),
            )?;
            Ok(200)
        }
        None => not_found(out),
    }
}

fn progress(sched: &Scheduler, req: &Request, id: u64, out: &mut TcpStream) -> io::Result<u16> {
    if req.query_param("stream") != Some("1") {
        return status(sched, id, out);
    }
    let Some(mut view) = sched.view(id) else {
        return not_found(out);
    };
    // Close-delimited JSONL stream: a snapshot at least every `POLL` while
    // the job runs, and the one carrying the terminal state as soon as it
    // settles; then the connection closes.
    write_stream_head(out, "application/x-ndjson")?;
    loop {
        writeln!(out, "{}", view_body(&view))?;
        out.flush()?;
        if view.phase.is_settled() {
            return Ok(200);
        }
        match sched.wait(id, POLL) {
            Some((v, _)) => view = v,
            None => return Ok(200),
        }
    }
}

fn result(sched: &Scheduler, req: &Request, id: u64, out: &mut TcpStream) -> io::Result<u16> {
    let wait = req
        .query_param("wait_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(DEFAULT_WAIT, Duration::from_millis);
    let Some((view, output)) = sched.wait(id, wait) else {
        return not_found(out);
    };
    match (&view.phase, output) {
        (JobPhase::Done, Some(output)) => {
            write_response(
                out,
                200,
                "OK",
                "application/x-ndjson",
                output.records_jsonl.as_bytes(),
            )?;
            Ok(200)
        }
        (JobPhase::Failed(msg), _) => {
            write_response(
                out,
                500,
                "Internal Server Error",
                "application/json",
                api::error_body(msg).as_bytes(),
            )?;
            Ok(500)
        }
        (JobPhase::Cancelled, _) => {
            write_response(
                out,
                410,
                "Gone",
                "application/json",
                api::error_body("job was cancelled").as_bytes(),
            )?;
            Ok(410)
        }
        _ => {
            write_response(
                out,
                202,
                "Accepted",
                "application/json",
                view_body(&view).as_bytes(),
            )?;
            Ok(202)
        }
    }
}

fn cancel(sched: &Scheduler, id: u64, out: &mut TcpStream) -> io::Result<u16> {
    if sched.cancel(id) {
        write_response(out, 200, "OK", "application/json", b"{\"cancelled\":true}")?;
        Ok(200)
    } else {
        not_found(out)
    }
}

/// `{"scheduler":{…},"counters":{…}}`: scheduler-derived numbers read
/// under the scheduling lock (`queue_depth` — queued and unclaimed;
/// `in_flight` — claimed, still running; `deque_lens` — queued length per
/// worker deque; `tenants_served` — jobs claimed per tenant over the
/// scheduler's lifetime), then the global obs counters the run manifest
/// reports. Per-job progress is in `GET /studies/{id}`.
fn stats_body(sched: &Scheduler) -> String {
    let stats: SchedStats = sched.stats();
    let deque_lens: Vec<String> = stats.deque_lens.iter().map(usize::to_string).collect();
    let mut scheduler = ObjectWriter::new();
    scheduler.field_u64("queue_depth", stats.queue_depth as u64);
    scheduler.field_u64("in_flight", stats.in_flight as u64);
    scheduler.field_raw("deque_lens", &format!("[{}]", deque_lens.join(",")));
    scheduler.field_raw("tenants_served", &u64_object(&stats.tenants_served));
    let mut body = ObjectWriter::new();
    body.field_raw("scheduler", &scheduler.finish());
    body.field_raw(
        "counters",
        &u64_object(&hammervolt_obs::metrics::counters_snapshot()),
    );
    body.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_errors_back_off_instead_of_spinning() {
        // Descriptors exhausted (EMFILE): every retry must wait a poll
        // interval. Stop is requested on the fourth attempt, so three
        // back-offs run before the loop exits.
        let stop = AtomicBool::new(false);
        let mut attempts = 0;
        let started = Instant::now();
        accept_until_stopped(
            &stop,
            || {
                attempts += 1;
                if attempts == 4 {
                    stop.store(true, Ordering::Relaxed);
                }
                Err::<(), _>(io::Error::from_raw_os_error(24))
            },
            |()| panic!("no connection was accepted"),
        );
        assert_eq!(attempts, 4);
        assert!(started.elapsed() >= 3 * POLL, "retried without backing off");
    }

    #[test]
    fn a_connection_accepted_after_stop_is_not_served() {
        // The shutdown wake-up: stop is already set when the blocked accept
        // returns its connection, which must be dropped unserved.
        let stop = AtomicBool::new(false);
        let mut served = 0;
        let mut attempts = 0;
        accept_until_stopped(
            &stop,
            || {
                attempts += 1;
                assert!(attempts <= 3, "accepted again after stop was set");
                if attempts == 3 {
                    stop.store(true, Ordering::SeqCst);
                }
                Ok::<_, io::Error>(attempts)
            },
            |_| served += 1,
        );
        assert_eq!((attempts, served), (3, 2));
    }

    #[test]
    fn a_failed_wake_returns_without_joining() {
        let started = Instant::now();
        wake_then_join(
            || Err::<(), _>(io::Error::from_raw_os_error(24)),
            || panic!("joined an accept loop that was never woken"),
        );
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "a failed wake-up held shutdown"
        );
        let mut joined = false;
        wake_then_join(|| Ok(()), || joined = true);
        assert!(joined, "a successful wake-up must join the loop");
    }

    #[test]
    fn wildcard_binds_wake_through_their_loopback() {
        let wake = |bound: &str| wake_addr(bound.parse().expect("socket address")).to_string();
        assert_eq!(wake("0.0.0.0:8077"), "127.0.0.1:8077");
        assert_eq!(wake("[::]:8077"), "[::1]:8077");
        assert_eq!(wake("10.1.2.3:80"), "10.1.2.3:80");
        assert_eq!(wake("[fe80::1]:80"), "[fe80::1]:80");
    }
}
