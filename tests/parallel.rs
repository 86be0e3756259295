//! Integration tests for the parallel execution engine: byte-identical
//! output across worker counts (API and CLI) and the content-addressed
//! sweep cache.

use hammervolt::dram::registry::ModuleId;
use hammervolt::study::exec::{
    retention_sweeps, rowhammer_sweeps, seal_entry, sweep_key, trcd_sweeps, ExecConfig,
};
use hammervolt::study::job::{JobControl, JobSpec, SweepKind};
use hammervolt::study::study::StudyConfig;
use std::path::PathBuf;
use std::process::Command;

fn tiny(modules: &[ModuleId]) -> StudyConfig {
    StudyConfig {
        rows_per_chunk: 3,
        ..StudyConfig::quick_subset(modules)
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hammervolt-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The acceptance criterion: every sweep kind serializes byte-identically
/// for 1 worker, 4 workers, and one worker per CPU.
#[test]
fn all_sweep_kinds_are_deterministic_across_worker_counts() {
    let cfg = tiny(&[ModuleId::A0, ModuleId::B3]);
    let ncpu = std::thread::available_parallelism().map_or(2, |n| n.get());
    let ctl = JobControl::new();
    let runs: Vec<(String, String, String)> = [1, 4, ncpu]
        .iter()
        .map(|&jobs| {
            let exec = ExecConfig {
                jobs,
                cache_dir: None,
                ..ExecConfig::default()
            };
            (
                serde_json::to_string(&rowhammer_sweeps(&cfg, &exec, &ctl).unwrap()).unwrap(),
                serde_json::to_string(&trcd_sweeps(&cfg, 3, &exec, &ctl).unwrap()).unwrap(),
                serde_json::to_string(&retention_sweeps(&cfg, &exec, &ctl).unwrap()).unwrap(),
            )
        })
        .collect();
    for run in &runs[1..] {
        assert_eq!(runs[0].0, run.0, "RowHammer sweeps must not depend on jobs");
        assert_eq!(runs[0].1, run.1, "t_RCD sweeps must not depend on jobs");
        assert_eq!(runs[0].2, run.2, "retention sweeps must not depend on jobs");
    }
}

/// `hammervolt sweep|trcd|retention --jobs N` emits byte-identical JSONL
/// for any N, and the same bytes `JobSpec::run` returns for the matching
/// spec (the CLI's smoke protocol narrowed to B3 at two rows per chunk).
#[test]
fn cli_sweep_is_byte_identical_across_jobs() {
    for (cmd, kind) in [
        ("sweep", SweepKind::Hammer),
        ("trcd", SweepKind::Trcd { levels_cap: 4 }),
        ("retention", SweepKind::Retention),
    ] {
        let run = |jobs: &str| {
            let out = Command::new(env!("CARGO_BIN_EXE_hammervolt"))
                .args([cmd, "--jobs", jobs, "B3"])
                .env("HAMMERVOLT_SCALE", "smoke")
                .env("HAMMERVOLT_ROWS", "2")
                .env_remove("HAMMERVOLT_CACHE_DIR")
                .env_remove("HAMMERVOLT_JOBS")
                .output()
                .expect("run hammervolt");
            assert!(out.status.success(), "CLI {cmd} failed: {out:?}");
            out.stdout
        };
        let serial = run("1");
        assert!(!serial.is_empty());
        assert_eq!(
            serial,
            run("4"),
            "{cmd}: --jobs 4 must match --jobs 1 byte-for-byte"
        );
        assert_eq!(
            serial,
            run("0"),
            "{cmd}: --jobs 0 (auto) must match as well"
        );

        let spec = JobSpec {
            kind,
            config: StudyConfig {
                modules: vec![ModuleId::B3],
                rows_per_chunk: 2,
                ..StudyConfig::smoke()
            },
        };
        let job = spec
            .run(&ExecConfig::with_jobs(2), &JobControl::new())
            .expect("job run");
        assert!(
            serial == job.records_jsonl.as_bytes(),
            "{cmd}: CLI stdout must equal JobSpec::run of the same spec"
        );
    }
}

/// Runs the CLI at smoke scale, two rows per chunk, with `stdout` as its
/// standard output.
fn cli_into(args: &[&str], stdout: impl Into<std::process::Stdio>) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hammervolt"))
        .args(args)
        .env("HAMMERVOLT_SCALE", "smoke")
        .env("HAMMERVOLT_ROWS", "2")
        .env_remove("HAMMERVOLT_CACHE_DIR")
        .env_remove("HAMMERVOLT_JOBS")
        .env_remove("HAMMERVOLT_TRACE_OUT")
        .stdout(stdout)
        .output()
        .expect("run hammervolt")
}

/// A reader that stops early (`hammervolt list | head -n 1`) closes the
/// pipe: the CLI ends quietly with status 0, from a plain listing and from a
/// sweep streaming records alike. The read end is dropped before the CLI
/// starts, so its first write fails with a broken pipe every time.
#[test]
fn cli_ends_quietly_when_stdout_closes() {
    for args in [&["list"][..], &["retention", "--jobs", "2", "B3"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = cli_into(args, writer);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?}\n{stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("stdout"), "{args:?}: {stderr}");
    }
}

/// Any other failed write to stdout (here a full device) ends the CLI with
/// status 1 and one line about stdout, not a panic.
#[cfg(target_os = "linux")]
#[test]
fn cli_reports_a_failed_stdout_in_one_line() {
    for args in [&["list"][..], &["retention", "--jobs", "2", "B3"]] {
        let full = std::fs::File::options()
            .write(true)
            .open("/dev/full")
            .expect("open /dev/full");
        let out = cli_into(args, full);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let complaints: Vec<&str> = stderr.lines().filter(|l| l.contains("stdout")).collect();
        assert!(
            complaints.len() == 1
                && complaints[0].starts_with("hammervolt: cannot write to stdout: "),
            "{args:?}: {stderr}"
        );
    }
}

/// A malformed `HAMMERVOLT_SCALE` or `HAMMERVOLT_ROWS` is named in a warning
/// on stderr and ignored: the records on stdout are the fallback run's,
/// byte for byte, and a well-formed run warns about neither.
#[test]
fn cli_warns_on_malformed_study_env_and_falls_back() {
    let run = |scale: Option<&str>, rows: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_hammervolt"));
        cmd.args(["sweep", "--jobs", "2", "B3"])
            .env_remove("HAMMERVOLT_SCALE")
            .env_remove("HAMMERVOLT_ROWS")
            .env_remove("HAMMERVOLT_CACHE_DIR")
            .env_remove("HAMMERVOLT_JOBS")
            .env_remove("HAMMERVOLT_TRACE_OUT");
        if let Some(scale) = scale {
            cmd.env("HAMMERVOLT_SCALE", scale);
        }
        if let Some(rows) = rows {
            cmd.env("HAMMERVOLT_ROWS", rows);
        }
        let out = cmd.output().expect("run hammervolt");
        assert!(out.status.success(), "CLI failed: {out:?}");
        assert!(!out.stdout.is_empty());
        (
            out.stdout,
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    // The smoke protocol's own row sample, then the default protocol at two
    // rows (for B3 alone the same study as smoke at two rows).
    let (smoke, stderr) = run(Some("smoke"), None);
    assert!(!stderr.contains("warning"), "{stderr}");
    for rows in ["abc", "0", "-3", "2.5"] {
        let (stdout, stderr) = run(Some("smoke"), Some(rows));
        assert!(
            stderr.contains("HAMMERVOLT_ROWS"),
            "rows {rows:?}: {stderr}"
        );
        assert!(
            stdout == smoke,
            "rows {rows:?} must fall back to smoke's sample"
        );
    }
    let (default, stderr) = run(None, Some("2"));
    assert!(!stderr.contains("warning"), "{stderr}");
    for scale in ["papr", "SMOKE", " quick"] {
        let (stdout, stderr) = run(Some(scale), Some("2"));
        assert!(
            stderr.contains("HAMMERVOLT_SCALE"),
            "scale {scale:?}: {stderr}"
        );
        assert!(stdout == default, "scale {scale:?} must fall back to quick");
    }
    let (quick, stderr) = run(Some("quick"), Some("2"));
    assert!(!stderr.contains("warning"), "{stderr}");
    assert!(quick == default, "quick is the default protocol");
}

/// A warm cache serves every sweep kind from disk with byte-identical
/// output: cold (compute + store) and warm (load) runs must serialize
/// identically for the rowhammer, t_RCD (Alg. 2), and retention (Alg. 3)
/// sweeps alike.
#[test]
fn warm_cache_round_trips_every_sweep_kind() {
    let cfg = tiny(&[ModuleId::B3]);
    let dir = temp_dir("cache-kinds");
    let exec = ExecConfig {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    };
    let ctl = JobControl::new();
    let cold = (
        serde_json::to_string(&rowhammer_sweeps(&cfg, &exec, &ctl).unwrap()).unwrap(),
        serde_json::to_string(&trcd_sweeps(&cfg, 3, &exec, &ctl).unwrap()).unwrap(),
        serde_json::to_string(&retention_sweeps(&cfg, &exec, &ctl).unwrap()).unwrap(),
    );
    let warm = (
        serde_json::to_string(&rowhammer_sweeps(&cfg, &exec, &ctl).unwrap()).unwrap(),
        serde_json::to_string(&trcd_sweeps(&cfg, 3, &exec, &ctl).unwrap()).unwrap(),
        serde_json::to_string(&retention_sweeps(&cfg, &exec, &ctl).unwrap()).unwrap(),
    );
    assert_eq!(cold.0, warm.0, "warm rowhammer sweep must match cold");
    assert_eq!(cold.1, warm.1, "warm t_RCD sweep must match cold");
    assert_eq!(cold.2, warm.2, "warm retention sweep must match cold");

    // Warm runs must also match a cache-less serial run: the cache may never
    // change results, only skip re-simulation.
    let serial = ExecConfig::serial();
    assert_eq!(
        cold.0,
        serde_json::to_string(&rowhammer_sweeps(&cfg, &serial, &ctl).unwrap()).unwrap()
    );
    assert_eq!(
        cold.1,
        serde_json::to_string(&trcd_sweeps(&cfg, 3, &serial, &ctl).unwrap()).unwrap()
    );
    assert_eq!(
        cold.2,
        serde_json::to_string(&retention_sweeps(&cfg, &serial, &ctl).unwrap()).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cache entries are checksummed: a tampered payload is detected and
/// recomputed, while a correctly *sealed* forged entry is served verbatim —
/// which both closes the silent-corruption hole and proves warm hits come
/// from disk rather than re-simulation.
#[test]
fn cache_detects_tampering_but_serves_sealed_entries() {
    let cfg = tiny(&[ModuleId::B3]);
    let dir = temp_dir("cache-seal");
    let exec = ExecConfig {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        ..ExecConfig::default()
    };
    let ctl = JobControl::new();
    let cold = rowhammer_sweeps(&cfg, &exec, &ctl).unwrap();
    let entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "one module, one cache entry");
    const SENTINEL: f64 = 0.123_456_789;

    // Naive tamper: rewrite the payload without re-sealing. The checksum
    // mismatch must force a recompute of the true result.
    let key = sweep_key(&cfg, ModuleId::B3, "hammer", 0);
    let mut sweep = cold[0].clone();
    sweep.records[0].ber = SENTINEL;
    let tampered_line = seal_entry(key, &serde_json::to_string(&sweep).unwrap());
    // Corrupt the sealed line's checksum field so it no longer matches.
    let broken = tampered_line.replacen("\"checksum\":\"", "\"checksum\":\"0", 1);
    std::fs::write(&entries[0], broken).unwrap();
    let recomputed = rowhammer_sweeps(&cfg, &exec, &ctl).unwrap();
    assert_ne!(
        recomputed[0].records[0].ber, SENTINEL,
        "poisoned entry must be recomputed, not served"
    );
    assert_eq!(
        serde_json::to_string(&recomputed).unwrap(),
        serde_json::to_string(&cold).unwrap(),
    );

    // Forged-but-valid entry: sealing the sentinel payload with the correct
    // key makes it indistinguishable from a real entry, so it is served —
    // proving the warm path performs zero re-simulation.
    std::fs::write(
        &entries[0],
        seal_entry(key, &serde_json::to_string(&sweep).unwrap()) + "\n",
    )
    .unwrap();
    let served = rowhammer_sweeps(&cfg, &exec, &ctl).unwrap();
    assert_eq!(
        served[0].records[0].ber, SENTINEL,
        "a correctly sealed entry must be served from disk"
    );

    // A different configuration derives a different key, misses the forged
    // entry, and recomputes.
    let other = StudyConfig {
        rows_per_chunk: 4,
        ..cfg
    };
    let fresh = rowhammer_sweeps(&other, &exec, &ctl).unwrap();
    assert!(fresh[0].records.iter().all(|r| r.ber != SENTINEL));

    let _ = std::fs::remove_dir_all(&dir);
}
