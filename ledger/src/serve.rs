//! `serve_mix`: an in-process study server (2 scheduler workers, 1 engine
//! worker per job, a fresh cache directory) driven by two closed-loop HTTP
//! clients. Requests are drawn Zipf(s=1) from a seeded permutation of 90
//! smoke specs (3 sweep kinds × 30 modules, 2 rows per chunk); each is a
//! `POST /studies` followed by a blocking `GET /studies/{id}/result`.

use crate::spans::{SpanTree, Tracer};
use crate::stats::{fnv1a64, quantile};
use crate::workload::{Layers, PassOutput, Size, TracedOutput};
use hammervolt_core::exec::ExecConfig;
use hammervolt_core::job::{JobControl, JobSpec, SweepKind};
use hammervolt_core::study::StudyConfig;
use hammervolt_dram::registry::ModuleId;
use hammervolt_serve::{SchedConfig, Server, ServerConfig};
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// `/healthz` probes of the idle server after a traced mix.
const HEALTHZ_PROBES: usize = 20;

/// SplitMix64: the seeded stream behind the permutation and the draws.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The 90 specs, kind-major.
fn spec_list(seed: u64) -> Vec<JobSpec> {
    let kinds = [
        SweepKind::Hammer,
        SweepKind::Trcd { levels_cap: 4 },
        SweepKind::Retention,
    ];
    kinds
        .iter()
        .flat_map(|kind| {
            ModuleId::ALL.iter().map(move |&id| JobSpec {
                kind: kind.clone(),
                config: StudyConfig {
                    modules: vec![id],
                    rows_per_chunk: 2,
                    seed: crate::quick::study_seed(seed),
                    ..StudyConfig::smoke()
                },
            })
        })
        .collect()
}

/// The request sequence: Zipf(s=1) ranks mapped through a seeded
/// permutation of the spec indices.
fn request_list(seed: u64, specs: usize, requests: usize) -> Vec<usize> {
    let mut rng = Rng(seed ^ 0x5E4E_5E4E_0000_0001);
    let mut perm: Vec<usize> = (0..specs).collect();
    for i in (1..specs).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let cumulative: Vec<f64> = (1..=specs)
        .scan(0.0, |acc, rank| {
            *acc += 1.0 / rank as f64;
            Some(*acc)
        })
        .collect();
    let total = cumulative[specs - 1];
    (0..requests)
        .map(|_| {
            let u = rng.unit() * total;
            let rank = cumulative.partition_point(|&c| c <= u).min(specs - 1);
            perm[rank]
        })
        .collect()
}

/// A started server with its generated traffic.
pub struct Running {
    server: Server,
    dir: PathBuf,
    specs: Vec<JobSpec>,
    bodies: Vec<String>,
    requests: Vec<usize>,
}

/// One HTTP/1.1 exchange (the server closes after every response): the
/// status and the body.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    request_id: Option<&str>,
) -> Result<(u16, Vec<u8>), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(170)))
        .map_err(io)?;
    let id_header = request_id.map_or(String::new(), |id| format!("X-Request-Id: {id}\r\n"));
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: ledger\r\n{id_header}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: response has no header block"))?;
    let status = std::str::from_utf8(&raw[..end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1)?.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status code"))?;
    Ok((status, raw[end + 4..].to_vec()))
}

/// An integer field of a JSON body, looked up along `path`.
fn json_int(body: &[u8], path: &[&str]) -> Option<u64> {
    let value: Value = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    match path.iter().fold(&value, |v, key| v.field(key)) {
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn healthz(addr: SocketAddr) -> Result<(), String> {
    match http(addr, "GET", "/healthz", "", None)? {
        (200, _) => Ok(()),
        (status, _) => Err(format!("/healthz answered {status}")),
    }
}

/// Set-up: generate the traffic and start the server on a fresh cache
/// directory. The first `/healthz` is left to the pass: whether it waits out
/// one 25 ms accept-loop poll depends on a thread-start race, which would
/// make set-up time bimodal.
pub fn start(seed: u64, size: Size) -> Result<Running, String> {
    let requests = match size {
        Size::Full => 200,
        Size::Tiny => 10,
    };
    let specs = spec_list(seed);
    let bodies = specs
        .iter()
        .map(|s| serde_json::to_string(s).expect("JobSpec serializes"))
        .collect();
    let requests = request_list(seed, specs.len(), requests);
    let dir = crate::scratch_dir("serve");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    let config = ServerConfig {
        sched: SchedConfig {
            workers: 2,
            ..SchedConfig::default()
        },
        exec: ExecConfig {
            cache_dir: Some(dir.clone()),
            ..ExecConfig::with_jobs(1)
        },
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).map_err(|e| format!("server: {e}"))?;
    Ok(Running {
        server,
        dir,
        specs,
        bodies,
        requests,
    })
}

impl Running {
    /// Stops the server (draining its workers) and removes the cache.
    pub fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One completed request.
struct Outcome {
    latency_ms: f64,
    submit_ms: f64,
    result_ms: f64,
    /// The spec had completed earlier in the run when this request was sent.
    warm: bool,
    /// `(units_executed, subscribers)` from `GET /studies/{id}` (traced
    /// runs only).
    view: Option<(u64, u64)>,
}

/// State the two clients share.
struct Mix<'a> {
    running: &'a Running,
    next: AtomicUsize,
    /// First body seen per spec.
    bodies: Mutex<Vec<Option<Vec<u8>>>>,
    failed: AtomicUsize,
    traced: bool,
}

/// Runs `f`, inside a span when tracing; returns its result and
/// milliseconds.
fn timed<T>(t: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    if let Some(t) = t.as_mut() {
        t.enter(name);
    }
    let t0 = Instant::now();
    let out = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(t) = t.as_mut() {
        t.exit();
    }
    (out, ms)
}

impl Mix<'_> {
    fn fail(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// One request: submit, then block on its result. `None` on a failure
    /// (counted).
    fn request(&self, t: &mut Option<Tracer>, i: usize) -> Option<Outcome> {
        let addr = self.running.server.addr();
        let spec = self.running.requests[i];
        let rid = format!("ledger-{i}");
        let rid = self.traced.then_some(rid.as_str());
        let warm = self.bodies.lock().expect("body table poisoned")[spec].is_some();
        if let Some(t) = t.as_mut() {
            t.enter("serve.request");
        }
        let t0 = Instant::now();
        let (submitted, submit_ms) = timed(t, "serve.submit", || {
            http(addr, "POST", "/studies", &self.running.bodies[spec], rid)
        });
        let job = match submitted {
            Ok((202, reply)) => json_int(&reply, &["job"]),
            _ => None,
        };
        let (result, result_ms) = timed(t, "serve.result", || {
            job.map(|job| {
                let path = format!("/studies/{job}/result?wait_ms=170000");
                http(addr, "GET", &path, "", rid)
            })
        });
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(t) = t.as_mut() {
            t.exit();
        }
        let (Some(job), Some(Ok((200, body)))) = (job, result) else {
            self.fail();
            return None;
        };
        {
            let mut bodies = self.bodies.lock().expect("body table poisoned");
            match &bodies[spec] {
                Some(first) if *first != body => self.fail(),
                Some(_) => {}
                None => bodies[spec] = Some(body),
            }
        }
        let view = if self.traced {
            let (reply, _) = timed(t, "serve.status", || {
                http(addr, "GET", &format!("/studies/{job}"), "", rid)
            });
            reply.ok().and_then(|(_, b)| {
                Some((
                    json_int(&b, &["progress", "units_executed"])?,
                    json_int(&b, &["subscribers"])?,
                ))
            })
        } else {
            None
        };
        Some(Outcome {
            latency_ms,
            submit_ms,
            result_ms,
            warm,
            view,
        })
    }

    /// A closed-loop client: the next request only after the previous one
    /// completed.
    fn client(&self) -> (Vec<Outcome>, Option<SpanTree>) {
        let mut t = self.traced.then(|| Tracer::new("serve.client"));
        let mut done = Vec::new();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.running.requests.len() {
                break;
            }
            done.extend(self.request(&mut t, i));
        }
        (done, t.map(Tracer::finish))
    }
}

/// The mix's outcome.
struct MixResult {
    wall_s: f64,
    outcomes: Vec<Outcome>,
    failed: u64,
    /// Bodies of every requested spec, in spec order.
    bodies: Vec<(usize, Vec<u8>)>,
    spans: Option<SpanTree>,
}

fn run_mix(running: &Running, traced: bool) -> MixResult {
    let mix = Mix {
        running,
        next: AtomicUsize::new(0),
        bodies: Mutex::new(vec![None; running.specs.len()]),
        failed: AtomicUsize::new(0),
        traced,
    };
    let t0 = Instant::now();
    let per_client: Vec<(Vec<Outcome>, Option<SpanTree>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS).map(|_| s.spawn(|| mix.client())).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut outcomes = Vec::new();
    let mut spans: Option<SpanTree> = None;
    for (done, tree) in per_client {
        outcomes.extend(done);
        match (&mut spans, tree) {
            (Some(all), Some(tree)) => all.merge(&tree),
            (None, tree) => spans = tree,
            (Some(_), None) => {}
        }
    }
    let bodies = mix
        .bodies
        .into_inner()
        .expect("body table poisoned")
        .into_iter()
        .enumerate()
        .filter_map(|(i, b)| Some((i, b?)))
        .collect();
    MixResult {
        wall_s,
        outcomes,
        failed: mix.failed.into_inner() as u64,
        bodies,
        spans,
    }
}

fn payload(bodies: &[(usize, Vec<u8>)]) -> Vec<u8> {
    bodies.iter().flat_map(|(_, b)| b.iter().copied()).collect()
}

fn latencies(outcomes: &[Outcome], pick: impl Fn(&Outcome) -> Option<f64>) -> Vec<f64> {
    outcomes.iter().filter_map(pick).collect()
}

/// Client-side latency figures of a mix.
fn latency_figures(mix: &MixResult) -> Vec<(&'static str, f64)> {
    let all = latencies(&mix.outcomes, |o| Some(o.latency_ms));
    let warm = latencies(&mix.outcomes, |o| o.warm.then_some(o.latency_ms));
    vec![
        ("serve.latency_p50_ms", quantile(&all, 0.5)),
        ("serve.latency_p90_ms", quantile(&all, 0.9)),
        ("serve.hit_latency_p50_ms", quantile(&warm, 0.5)),
        ("serve.jobs_per_s", mix.outcomes.len() as f64 / mix.wall_s),
    ]
}

/// One untraced pass: a `/healthz` until the server answers, then the
/// timed mix.
pub fn pass(running: &Running) -> Result<PassOutput, String> {
    healthz(running.server.addr())?;
    let mix = run_mix(running, false);
    Ok(PassOutput {
        wall_s: mix.wall_s,
        payload: payload(&mix.bodies),
        attempted: running.requests.len() as u64,
        failed: mix.failed,
        extras: latency_figures(&mix),
    })
}

/// The traced run: one mix with client-side spans and per-request status
/// reads, then idle `/healthz` probes, then every requested spec re-run on
/// the engine directly to check the server's bodies.
pub fn traced(seed: u64, size: Size) -> Result<TracedOutput, String> {
    let running = start(seed, size)?;
    healthz(running.server.addr())?;
    let mix = run_mix(&running, true);
    let addr = running.server.addr();
    let mut healthz_ms = Vec::with_capacity(HEALTHZ_PROBES);
    let mut probe_failures = 0;
    for _ in 0..HEALTHZ_PROBES {
        let t0 = Instant::now();
        probe_failures += u64::from(healthz(addr).is_err());
        healthz_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let mut mismatches = 0;
    for (spec, body) in &mix.bodies {
        let direct = running.specs[*spec]
            .run(&ExecConfig::with_jobs(2), &JobControl::new())
            .map_err(|e| format!("direct engine run failed: {e}"))?;
        mismatches += u64::from(direct.records_jsonl.as_bytes() != body.as_slice());
    }
    let requests = running.requests.len();
    let mut distinct = running.requests.clone();
    distinct.sort_unstable();
    distinct.dedup();
    running.stop();

    let outcomes = &mix.outcomes;
    let share = |pred: &dyn Fn(&Outcome) -> bool| {
        outcomes.iter().filter(|o| pred(o)).count() as f64 / requests as f64
    };
    let mut layers = Layers::default();
    for (name, value) in latency_figures(&mix) {
        layers.set(name, value);
    }
    let submit = latencies(outcomes, |o| Some(o.submit_ms));
    let result = latencies(outcomes, |o| Some(o.result_ms));
    layers.set("serve.submit_ms_p50", quantile(&submit, 0.5));
    layers.set("serve.result_ms_p50", quantile(&result, 0.5));
    layers.set("serve.healthz_ms_p50", quantile(&healthz_ms, 0.5));
    layers.set(
        "serve.hit_ratio",
        share(&|o| o.view.is_some_and(|v| v.0 == 0)),
    );
    layers.set(
        "serve.dedup_ratio",
        share(&|o| o.view.is_some_and(|v| v.1 > 1)),
    );
    layers.set("serve.distinct_specs", distinct.len() as f64);
    let spans = mix.spans.ok_or("traced mix recorded no spans")?;
    layers.tracing(&spans);
    Ok(TracedOutput {
        layers,
        spans,
        digest: fnv1a64(&payload(&mix.bodies)),
        attempted: requests as u64 + HEALTHZ_PROBES as u64 + mix.bodies.len() as u64,
        failed: mix.failed + probe_failures + mismatches,
    })
}
