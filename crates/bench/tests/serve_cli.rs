//! The `serve` binary's command line: the observability flags every binary
//! shares are accepted beside the server's own.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};

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
