//! The `serve` binary's command line: the observability flags every binary
//! shares are accepted beside the server's own, and a flag the server
//! cannot honour refuses the run with one line naming the flag.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills and reaps the server however the test ends.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_accepts_the_observability_flags() {
    let trace = std::env::temp_dir().join(format!(
        "hammervolt-serve-flags-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&trace);
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_serve"))
            .arg("--metrics")
            .arg("--trace-out")
            .arg(&trace)
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--jobs", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve"),
    );
    let stdout = server.0.stdout.take().expect("piped stdout");
    let first = BufReader::new(stdout)
        .lines()
        .next()
        .transpose()
        .expect("read serve's stdout");
    if !first.as_deref().is_some_and(|l| l.contains("listening on")) {
        let status = server.0.wait().expect("reap serve");
        let mut stderr = String::new();
        if let Some(mut pipe) = server.0.stderr.take() {
            let _ = pipe.read_to_string(&mut stderr);
        }
        panic!("serve did not start ({status}); stdout {first:?}, stderr {stderr:?}");
    }
    assert!(trace.exists(), "--trace-out did not open {trace:?}");
    drop(server);
    let _ = std::fs::remove_file(&trace);
}

/// Runs `serve` with `args` and the environment variables `env`, which must
/// refuse to start: the process exits 2 within a few seconds with one line
/// on stderr that names `flag`. A server that starts instead is killed and
/// fails the test.
fn refused(args: &[&str], env: &[(&str, &str)], flag: &str) {
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--jobs", "1"])
            .args(args)
            .env_remove("HAMMERVOLT_TRACE_OUT")
            .env_remove("HAMMERVOLT_MANIFEST_OUT")
            .envs(env.iter().copied())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve"),
    );
    let started = Instant::now();
    let status = loop {
        if let Some(status) = server.0.try_wait().expect("poll serve") {
            break status;
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "{args:?}: serve started instead of refusing"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stdout = String::new();
    let mut stderr = String::new();
    if let Some(mut pipe) = server.0.stdout.take() {
        let _ = pipe.read_to_string(&mut stdout);
    }
    if let Some(mut pipe) = server.0.stderr.take() {
        let _ = pipe.read_to_string(&mut stderr);
    }
    assert_eq!(status.code(), Some(2), "{args:?}: stderr {stderr:?}");
    assert!(stdout.is_empty(), "{args:?}: stdout {stdout:?}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr:?}");
    assert!(stderr.contains(flag), "{args:?}: stderr {stderr:?}");
}

#[test]
fn serve_refuses_flags_it_cannot_honour() {
    // A full queue always answers 429; there is no overflow policy to pick.
    refused(&["--shed-oldest"], &[], "--shed-oldest");
    refused(&["--queue", "abc"], &[], "--queue");
    refused(&["--trace-out"], &[], "--trace-out");
    // The manifest is written at exit, which a server never reaches.
    let manifest = std::env::temp_dir().join(format!(
        "hammervolt-serve-manifest-{}.json",
        std::process::id()
    ));
    let manifest = manifest.to_str().expect("temp path is UTF-8");
    refused(&["--manifest-out", manifest], &[], "--manifest-out");
    refused(
        &[],
        &[("HAMMERVOLT_MANIFEST_OUT", manifest)],
        "--manifest-out",
    );
    assert!(
        !std::path::Path::new(manifest).exists(),
        "a refused server wrote {manifest}"
    );
}
