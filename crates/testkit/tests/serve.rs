//! End-to-end conformance for the study server: concurrent HTTP clients
//! with overlapping specs get byte-identical results to serial engine runs,
//! identical in-flight specs share one execution, cancel-then-resubmit
//! resumes from chunk checkpoints, queue bounds reject as configured, an
//! oversized request fails alone, no timer sits on an exchange's path, and
//! shutdown wakes the blocking accept.
//!
//! The client side is a deliberately tiny hand-rolled HTTP/1.1 exchange over
//! `std::net::TcpStream` (one request, read to close) — the same strict
//! subset the server speaks.

use hammervolt_core::exec::ExecConfig;
use hammervolt_core::job::{JobControl, JobSpec, SweepKind};
use hammervolt_core::study::StudyConfig;
use hammervolt_dram::registry::ModuleId;
use hammervolt_serve::{SchedConfig, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("testkit-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_spec(module: ModuleId, rows_per_chunk: u32) -> JobSpec {
    JobSpec {
        kind: SweepKind::Hammer,
        config: StudyConfig {
            rows_per_chunk,
            modules: vec![module],
            ..StudyConfig::smoke()
        },
    }
}

/// One HTTP exchange: send, read to close, split status and body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect to test server");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header block");
    let head = std::str::from_utf8(&raw[..header_end]).expect("UTF-8 headers");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, raw[header_end + 4..].to_vec())
}

/// Extracts the first `"key":<digits>` value from a JSON body.
fn json_u64(body: &[u8], key: &str) -> u64 {
    let text = std::str::from_utf8(body).expect("UTF-8 body");
    let needle = format!("\"{key}\":");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key:?} in {text}"));
    text[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key:?} in {text}"))
}

fn submit(addr: SocketAddr, spec: &JobSpec) -> u64 {
    let body = serde_json::to_string(spec).expect("spec serializes");
    let (status, reply) = http(addr, "POST", "/studies", &body);
    assert_eq!(status, 202, "submit: {}", String::from_utf8_lossy(&reply));
    json_u64(&reply, "job")
}

fn server(tag: &str, workers: usize, checkpoints: bool) -> (Server, PathBuf) {
    let dir = temp_dir(tag);
    let exec = ExecConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    }
    .with_checkpoints(checkpoints);
    let config = ServerConfig {
        sched: SchedConfig {
            workers,
            ..SchedConfig::default()
        },
        exec,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind ephemeral port");
    (server, dir)
}

#[test]
fn concurrent_clients_get_results_byte_identical_to_serial_runs() {
    let specs = [small_spec(ModuleId::B3, 2), small_spec(ModuleId::B0, 2)];
    let serial: Vec<Vec<u8>> = specs
        .iter()
        .map(|s| {
            s.run(&ExecConfig::serial(), &JobControl::new())
                .expect("serial reference run")
                .records_jsonl
                .into_bytes()
        })
        .collect();

    let (server, dir) = server("clients", 2, false);
    let addr = server.addr();
    // Six clients, three per spec, submitted concurrently: between dedup
    // and the sweep cache the server may run each spec only once, but every
    // client must still receive the full, exact byte stream.
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let spec = specs[i % 2].clone();
            std::thread::spawn(move || {
                let job = submit(addr, &spec);
                let (status, body) = http(
                    addr,
                    "GET",
                    &format!("/studies/{job}/result?wait_ms=120000"),
                    "",
                );
                assert_eq!(status, 200, "result: {}", String::from_utf8_lossy(&body));
                (i % 2, body)
            })
        })
        .collect();
    for handle in handles {
        let (which, body) = handle.join().expect("client thread");
        assert_eq!(
            body, serial[which],
            "HTTP result diverged from the serial engine run"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_inflight_specs_share_one_execution() {
    let (server, dir) = server("dedup", 1, false);
    let addr = server.addr();
    let spec = small_spec(ModuleId::B1, 2);

    let first = submit(addr, &spec);
    // Submitted again while queued or running: the server must answer with
    // the *same* job rather than scheduling a second execution.
    let second = submit(addr, &spec);
    assert_eq!(first, second, "identical in-flight specs must dedup");
    let (status, view) = http(addr, "GET", &format!("/studies/{first}"), "");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&view, "subscribers"), 2);

    let (s1, b1) = http(
        addr,
        "GET",
        &format!("/studies/{first}/result?wait_ms=120000"),
        "",
    );
    let (s2, b2) = http(
        addr,
        "GET",
        &format!("/studies/{second}/result?wait_ms=120000"),
        "",
    );
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(b1, b2, "both waiters see the one execution's bytes");

    // Once settled the dedup slot is released — a resubmission is a *new*
    // job (served instantly from the sweep cache).
    let third = submit(addr, &spec);
    assert_ne!(third, first, "settled specs must not dedup");
    let (status, body) = http(
        addr,
        "GET",
        &format!("/studies/{third}/result?wait_ms=120000"),
        "",
    );
    assert_eq!(status, 200);
    assert_eq!(body, b1);
    let (_, view) = http(addr, "GET", &format!("/studies/{third}"), "");
    assert_eq!(
        json_u64(&view, "units_executed"),
        0,
        "warm resubmission must be served from cache without re-executing"
    );
    assert_eq!(json_u64(&view, "cache_hits"), 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_then_resubmit_resumes_from_chunk_checkpoints() {
    let (server, dir) = server("resume", 1, true);
    let addr = server.addr();
    // All six smoke modules: enough units that the cancel below lands
    // mid-sweep however fast the host runs one.
    let spec = JobSpec {
        kind: SweepKind::Hammer,
        config: StudyConfig {
            rows_per_chunk: 2,
            ..StudyConfig::smoke()
        },
    };

    let job = submit(addr, &spec);
    // Wait until at least one unit has checkpointed, then cancel.
    loop {
        let (_, view) = http(addr, "GET", &format!("/studies/{job}"), "");
        if json_u64(&view, "units_done") >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let (status, _) = http(addr, "POST", &format!("/studies/{job}/cancel"), "");
    assert_eq!(status, 200);
    let (status, body) = http(
        addr,
        "GET",
        &format!("/studies/{job}/result?wait_ms=120000"),
        "",
    );
    assert_eq!(
        status,
        410,
        "cancelled job's result is gone: {}",
        String::from_utf8_lossy(&body)
    );
    let (_, view) = http(addr, "GET", &format!("/studies/{job}"), "");
    let finished_units = json_u64(&view, "units_done");
    let total_units = json_u64(&view, "units_total");
    assert!(finished_units >= 1);
    assert!(
        finished_units < total_units,
        "cancel must land mid-sweep ({finished_units}/{total_units})"
    );

    // Resubmit: a fresh job restores the finished chunks and re-runs only
    // the rest, and its bytes match a clean serial run.
    let retry = submit(addr, &spec);
    assert_ne!(retry, job);
    let (status, body) = http(
        addr,
        "GET",
        &format!("/studies/{retry}/result?wait_ms=120000"),
        "",
    );
    assert_eq!(status, 200);
    let clean = spec
        .run(&ExecConfig::serial(), &JobControl::new())
        .expect("clean reference run");
    assert_eq!(body, clean.records_jsonl.into_bytes());
    let (_, view) = http(addr, "GET", &format!("/studies/{retry}"), "");
    assert_eq!(json_u64(&view, "checkpoint_hits"), finished_units);
    assert_eq!(
        json_u64(&view, "units_executed"),
        total_units - finished_units,
        "resume may re-run only unfinished chunks"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_bound_rejects_with_429() {
    let dir = temp_dir("bound");
    let exec = ExecConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    };
    let config = ServerConfig {
        sched: SchedConfig {
            workers: 1,
            queue_capacity: 1,
        },
        exec,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let addr = server.addr();

    // The whole quick hammer sweep holds the only worker for far longer than
    // the exchange below; it is cancelled once the bound has been checked.
    let long = JobSpec {
        kind: SweepKind::Hammer,
        config: StudyConfig::quick(),
    };
    let running = submit(addr, &long);
    // Wait for the worker to claim it so it stops counting against the
    // queue bound.
    loop {
        let (_, view) = http(addr, "GET", &format!("/studies/{running}"), "");
        if !String::from_utf8_lossy(&view).contains("\"state\":\"queued\"") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let _queued = submit(addr, &small_spec(ModuleId::B0, 2));
    let body = serde_json::to_string(&small_spec(ModuleId::B1, 2)).unwrap();
    let (status, reply) = http(addr, "POST", "/studies", &body);
    assert_eq!(
        status,
        429,
        "over-bound submission must be rejected: {}",
        String::from_utf8_lossy(&reply)
    );
    let (status, _) = http(addr, "POST", &format!("/studies/{running}/cancel"), "");
    assert_eq!(status, 200);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Extracts the first `"key":"string"` value from a JSON body.
fn json_str(body: &[u8], key: &str) -> String {
    let text = std::str::from_utf8(body).expect("UTF-8 body");
    let needle = format!("\"{key}\":\"");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("no string {key:?} in {text}"));
    text[at + needle.len()..]
        .chars()
        .take_while(|&c| c != '"')
        .collect()
}

/// Serializes the tests that flip the process-wide metrics flag, so one
/// cannot disable metrics mid-way through another's run.
static METRICS_FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Two concurrent jobs each get their own metric scope: the scoped counter
/// snapshot in `GET /studies/{id}` reflects only that job's execution, even
/// though both ran in the same process at the same time with global metrics
/// on.
#[test]
fn scoped_counters_do_not_bleed_between_concurrent_jobs() {
    let _flag = METRICS_FLAG_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    hammervolt_obs::set_metrics(true);
    let (server, dir) = server("scoped", 2, false);
    let addr = server.addr();
    // Different unit and module counts so attribution errors are visible in
    // either direction: one module vs two.
    let spec_a = small_spec(ModuleId::B3, 2);
    let spec_b = JobSpec {
        kind: SweepKind::Hammer,
        config: StudyConfig {
            rows_per_chunk: 2,
            modules: vec![ModuleId::B0, ModuleId::B1],
            ..StudyConfig::smoke()
        },
    };
    let job_a = submit(addr, &spec_a);
    let job_b = submit(addr, &spec_b);
    for job in [job_a, job_b] {
        let (status, _) = http(
            addr,
            "GET",
            &format!("/studies/{job}/result?wait_ms=120000"),
            "",
        );
        assert_eq!(status, 200);
    }
    let (_, view_a) = http(addr, "GET", &format!("/studies/{job_a}"), "");
    let (_, view_b) = http(addr, "GET", &format!("/studies/{job_b}"), "");
    let units_a = json_u64(&view_a, "units_total");
    let units_b = json_u64(&view_b, "units_total");
    assert_ne!(units_a, units_b, "specs must differ in unit count");
    // exec_units/exec_modules appear only in the scoped "metrics" object
    // (progress uses the units_* names), so a first-match scan is safe.
    for (view, units, modules) in [(&view_a, units_a, 1), (&view_b, units_b, 2)] {
        assert_eq!(
            json_u64(view, "exec_units"),
            units,
            "scoped exec_units must equal the job's own unit count: {}",
            String::from_utf8_lossy(view)
        );
        assert_eq!(json_u64(view, "exec_modules"), modules);
    }
    hammervolt_obs::set_metrics(false);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /metrics` answers with parseable Prometheus text exposition carrying
/// the scheduler gauges and per-job scoped series, and `GET /stats` reports
/// the scheduler-derived numbers and the global counters, and no progress.
#[test]
fn metrics_endpoint_serves_prometheus_exposition() {
    let _flag = METRICS_FLAG_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    hammervolt_obs::set_metrics(true);
    let (server, dir) = server("metrics", 1, false);
    let addr = server.addr();
    let job = submit(addr, &small_spec(ModuleId::B1, 2));
    let (status, _) = http(
        addr,
        "GET",
        &format!("/studies/{job}/result?wait_ms=120000"),
        "",
    );
    assert_eq!(status, 200);

    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("exposition is UTF-8");
    for needle in [
        "# TYPE sched_queue_depth gauge",
        "# TYPE sched_inflight gauge",
        "# TYPE http_request_us histogram",
        "http_request_us_bucket{le=\"+Inf\"}",
        &format!("exec_units{{job_id=\"{job}\",sweep_kind=\"hammer\",tenant=\"anon\"}}"),
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // Every sample line is `name[{labels}] value` with a numeric value.
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (_, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value.parse::<i64>().is_ok(),
            "non-integer sample value in {line:?}"
        );
    }

    let (status, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let stats = String::from_utf8(stats).expect("stats is UTF-8");
    assert!(stats.contains("\"queue_depth\":0"), "stats: {stats}");
    assert!(stats.contains("\"in_flight\":0"), "stats: {stats}");
    assert!(stats.contains("\"anon\":1"), "tenants_served: {stats}");
    // Two blocks: the scheduler's and the global counters. Per-job progress
    // lives in `GET /studies/{id}`.
    assert!(stats.starts_with("{\"scheduler\":{"), "stats: {stats}");
    assert!(stats.contains("\"counters\":{"), "stats: {stats}");
    assert!(!stats.contains("\"progress\""), "stats: {stats}");
    hammervolt_obs::set_metrics(false);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Submissions carry the request id end to end: an inbound `X-Request-Id`
/// shows up in the submit reply and the job view; without one the server
/// generates a `req-{n}` id.
#[test]
fn request_ids_propagate_from_header_to_job_view() {
    let (server, dir) = server("reqid", 1, false);
    let addr = server.addr();
    let spec_body = serde_json::to_string(&small_spec(ModuleId::B2, 2)).unwrap();
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /studies HTTP/1.1\r\nHost: test\r\nX-Request-Id: trace-me-42\r\nContent-Length: {}\r\n\r\n{spec_body}",
        spec_body.len()
    )
    .expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.contains("\"request_id\":\"trace-me-42\""), "{text}");
    let body_at = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let job = json_u64(&raw[body_at..], "job");

    let (_, view) = http(addr, "GET", &format!("/studies/{job}"), "");
    assert_eq!(json_str(&view, "request_id"), "trace-me-42");

    // A plain submission gets a generated id.
    let job2 = submit(addr, &small_spec(ModuleId::B3, 2));
    let (_, view2) = http(addr, "GET", &format!("/studies/{job2}"), "");
    assert!(
        json_str(&view2, "request_id").starts_with("req-"),
        "generated id: {}",
        String::from_utf8_lossy(&view2)
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An HTTP-submitted job produces one span tree: the submit request's
/// `http.request` span is the root, the job's `job.run` span parents under
/// it, and the engine's `exec.shard` spans are its descendants.
#[test]
fn submitted_jobs_trace_as_one_tree_rooted_at_the_request() {
    let _flag = METRICS_FLAG_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let sink = std::sync::Arc::new(hammervolt_obs::MemorySink::new());
    hammervolt_obs::set_sink(Some(sink.clone()));
    hammervolt_obs::set_tracing(true);

    let (server, dir) = server("tree", 1, false);
    let addr = server.addr();
    let spec_body = serde_json::to_string(&small_spec(ModuleId::B2, 2)).unwrap();
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /studies HTTP/1.1\r\nHost: test\r\nX-Request-Id: tree-77\r\nContent-Length: {}\r\n\r\n{spec_body}",
        spec_body.len()
    )
    .expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let body_at = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let job = json_u64(&raw[body_at..], "job");
    let (status, _) = http(
        addr,
        "GET",
        &format!("/studies/{job}/result?wait_ms=120000"),
        "",
    );
    assert_eq!(status, 200);

    hammervolt_obs::set_tracing(false);
    hammervolt_obs::set_sink(None);

    // Rebuild the span forest and walk shard spans up to the request root.
    let mut parents: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut root = 0u64;
    let mut job_span = 0u64;
    let mut shards: Vec<u64> = Vec::new();
    for line in sink.lines() {
        let v: serde::Value = serde_json::from_str(&line).expect("event line parses");
        if let (serde::Value::Str(kind), serde::Value::Int(id), serde::Value::Int(parent)) =
            (v.field("type"), v.field("id"), v.field("parent"))
        {
            if kind != "span" {
                continue;
            }
            let (id, parent) = (*id as u64, *parent as u64);
            parents.insert(id, parent);
            match v.field("name") {
                serde::Value::Str(name) if name == "http.request" => {
                    if matches!(v.field("request_id"), serde::Value::Str(r) if r == "tree-77") {
                        root = id;
                    }
                }
                serde::Value::Str(name) if name == "job.run" && parent != 0 => job_span = id,
                serde::Value::Str(name) if name == "exec.shard" => shards.push(id),
                _ => {}
            }
        }
    }
    assert_ne!(root, 0, "no http.request span for the tagged submit");
    assert_eq!(
        parents.get(&job_span),
        Some(&root),
        "job.run must parent under the submitting request"
    );
    let descends_from_root = |mut id: u64| {
        for _ in 0..64 {
            if id == root {
                return true;
            }
            id = parents.get(&id).copied().unwrap_or(0);
            if id == 0 {
                return false;
            }
        }
        false
    };
    assert!(
        shards.iter().any(|&s| descends_from_root(s)),
        "no exec.shard span descends from the request root"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that connects and then goes silent is cut off by the read
/// timeout instead of pinning a handler thread forever.
#[test]
fn slow_clients_are_timed_out() {
    let dir = temp_dir("slow");
    let exec = ExecConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    };
    let config = ServerConfig {
        sched: SchedConfig {
            workers: 1,
            ..SchedConfig::default()
        },
        exec,
        read_timeout: Some(std::time::Duration::from_millis(100)),
        write_timeout: Some(std::time::Duration::from_millis(100)),
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET /healthz HTTP/1.1\r\nHost: te").expect("send a partial request");
    // No more bytes: the server's read must time out and close (possibly
    // after answering 400 for the truncated request).
    let started = std::time::Instant::now();
    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .expect("server closes the connection");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "stalled request held the connection too long"
    );

    // The server is still healthy for well-behaved clients.
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_submissions_and_unknown_jobs_are_clean_errors() {
    let (server, dir) = server("errors", 1, false);
    let addr = server.addr();
    let (status, _) = http(addr, "POST", "/studies", "not json");
    assert_eq!(status, 400);
    let (status, _) = http(addr, "GET", "/studies/424242", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "POST", "/studies/424242/cancel", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/no/such/route", "");
    assert_eq!(status, 404);
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_slice()), (200, &b"{\"ok\":true}"[..]));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A population request that asks for a 2^40-module batch fails alone,
/// with a typed error, before any module is measured (its batch indices
/// alone would be 8 TiB), and a sibling job submitted after it finishes
/// byte-identical to its serial run.
#[test]
fn oversized_population_fails_alone_with_a_typed_error() {
    let sibling = small_spec(ModuleId::B3, 2);
    let serial = sibling
        .run(&ExecConfig::serial(), &JobControl::new())
        .expect("serial reference run")
        .records_jsonl
        .into_bytes();
    let (server, dir) = server("oversized", 2, false);
    let addr = server.addr();
    let (status, reply) = http(
        addr,
        "POST",
        "/studies",
        r#"{"kind":"population","size":1099511627776,"seed":1,"batch_size":1099511627776}"#,
    );
    assert_eq!(status, 202, "submit: {}", String::from_utf8_lossy(&reply));
    let job = json_u64(&reply, "job");
    let (status, body) = http(
        addr,
        "GET",
        &format!("/studies/{job}/result?wait_ms=120000"),
        "",
    );
    let text = String::from_utf8_lossy(&body);
    assert_eq!(status, 500, "result: {text}");
    assert!(
        text.contains("invalid config: batch size must be at most 4096"),
        "result: {text}"
    );

    let job = submit(addr, &sibling);
    let (status, body) = http(
        addr,
        "GET",
        &format!("/studies/{job}/result?wait_ms=120000"),
        "",
    );
    assert_eq!(status, 200, "result: {}", String::from_utf8_lossy(&body));
    assert_eq!(body, serial, "the sibling's bytes changed");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// With a blocking accept, an exchange with an idle server waits on no
/// timer: 20 sequential `/healthz` exchanges take a few milliseconds, and a
/// 25 ms accept poll would make them take about half a second. The best of
/// three rounds is checked, so a burst of load from a test running
/// alongside cannot fail it.
#[test]
fn idle_healthz_exchanges_wait_on_no_timer() {
    let (server, dir) = server("healthz", 1, false);
    let addr = server.addr();
    let best = (0..3)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..20 {
                let (status, _) = http(addr, "GET", "/healthz", "");
                assert_eq!(status, 200);
            }
            started.elapsed()
        })
        .min()
        .expect("three rounds ran");
    assert!(
        best < Duration::from_millis(250),
        "20 idle /healthz exchanges took {best:?}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown wakes the blocking accept by connecting to the server's own
/// address, through the loopback of the family for a wildcard bind. It
/// returns promptly, and the accept thread has been joined: its listener is
/// closed, so a new connection is refused. The IPv6 case is skipped on a
/// host without IPv6 or its loopback.
#[test]
fn wildcard_bound_servers_shut_down_promptly() {
    for (bind, loopback) in [("0.0.0.0:0", "127.0.0.1"), ("[::]:0", "[::1]")] {
        let ipv6 = bind.starts_with('[');
        if ipv6 && TcpListener::bind("[::1]:0").is_err() {
            eprintln!("skipping {bind}: no IPv6 loopback here");
            continue;
        }
        let dir = temp_dir("wildcard");
        let config = ServerConfig {
            sched: SchedConfig {
                workers: 1,
                ..SchedConfig::default()
            },
            exec: ExecConfig {
                jobs: 1,
                cache_dir: Some(dir.clone()),
                ..ExecConfig::default()
            },
            ..ServerConfig::default()
        };
        let server = match Server::start(bind, config) {
            Ok(server) => server,
            Err(e) if ipv6 => {
                eprintln!("skipping {bind}: no IPv6 here ({e})");
                continue;
            }
            Err(e) => panic!("bind {bind}: {e}"),
        };
        let local: SocketAddr = format!("{loopback}:{}", server.addr().port())
            .parse()
            .expect("loopback address");
        let (status, _) = http(local, "GET", "/healthz", "");
        assert_eq!(status, 200, "{bind} serves through {loopback}");
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "shutdown of a {bind} server took {took:?}"
        );
        assert!(
            TcpStream::connect(local).is_err(),
            "{bind}: the listener outlived shutdown, so the accept loop was not joined"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `GET /studies/{id}/progress?stream=1`, read until the server closes the
/// connection (a read timeout fails a stream that never ends). Returns the
/// body's lines.
fn progress_stream(addr: SocketAddr, job: u64) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect to test server");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set read timeout");
    write!(
        stream,
        "GET /studies/{job}/progress?stream=1 HTTP/1.1\r\nHost: test\r\n\r\n"
    )
    .expect("send request");
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .expect("the stream ends with the connection closed");
    let text = String::from_utf8(raw).expect("UTF-8 stream");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert!(head.contains("application/x-ndjson"), "{head}");
    body.lines().map(str::to_string).collect()
}

/// Checks that `line` is a job view of `job` and returns its state.
fn stream_state(line: &str, job: u64) -> String {
    let view: serde::Value =
        serde_json::from_str(line).unwrap_or_else(|e| panic!("unparsable line {line:?}: {e}"));
    assert_eq!(
        view.field("job"),
        &serde::Value::Int(i128::from(job)),
        "{line}"
    );
    for key in ["spec_hash", "request_id"] {
        assert!(
            matches!(view.field(key), serde::Value::Str(_)),
            "{key}: {line}"
        );
    }
    assert!(
        matches!(view.field("subscribers"), serde::Value::Int(_)),
        "{line}"
    );
    for key in ["progress", "metrics"] {
        assert!(view.field(key).as_object().is_some(), "{key}: {line}");
    }
    match view.field("state") {
        serde::Value::Str(state) => state.clone(),
        other => panic!("state is {other:?} in {line}"),
    }
}

/// The progress stream of a running job: every line is a job view, the
/// state never goes backwards, the last line is `done` with every unit
/// finished, and then the connection closes. A settled job streams exactly
/// one line.
#[test]
fn progress_stream_follows_a_job_until_it_settles() {
    let (server, dir) = server("stream", 1, false);
    let addr = server.addr();
    // All six smoke modules: the job runs for many snapshot intervals.
    let spec = JobSpec {
        kind: SweepKind::Hammer,
        config: StudyConfig {
            rows_per_chunk: 2,
            ..StudyConfig::smoke()
        },
    };
    let job = submit(addr, &spec);
    let lines = progress_stream(addr, job);
    let rank = |state: &str| match state {
        "queued" => 0,
        "running" => 1,
        "done" => 2,
        other => panic!("unexpected state {other:?}"),
    };
    let states: Vec<String> = lines.iter().map(|l| stream_state(l, job)).collect();
    assert!(
        rank(&states[0]) < 2,
        "the stream opened on a job that had already settled"
    );
    assert!(
        states.windows(2).all(|w| rank(&w[0]) <= rank(&w[1])),
        "state went backwards: {states:?}"
    );
    assert_eq!(states.last().map(String::as_str), Some("done"));
    let last = lines.last().expect("at least one line");
    assert_eq!(
        json_u64(last.as_bytes(), "units_done"),
        json_u64(last.as_bytes(), "units_total")
    );

    let settled = progress_stream(addr, job);
    assert_eq!(
        settled.len(),
        1,
        "a settled job streams one line: {settled:?}"
    );
    assert_eq!(stream_state(&settled[0], job), "done");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
