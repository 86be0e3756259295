//! A rate-limited single-line stderr progress display for long sweeps:
//! modules done/total, shard throughput, and cache hit rate.
//!
//! The display is a pure consumer of deterministic counts plus wall time —
//! it can never influence sweep output. Updates are throttled to one redraw
//! per 200 ms (`MIN_REDRAW`) so tight shard loops don't spend time
//! formatting.

use std::io::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Minimum interval between redraws.
const MIN_REDRAW: Duration = Duration::from_millis(200);

#[derive(Debug, Default)]
struct State {
    modules_total: u64,
    modules_done: u64,
    units_total: u64,
    units_done: u64,
    cache_hits: u64,
    cache_misses: u64,
    started: Option<Instant>,
    last_draw: Option<Instant>,
    drew_anything: bool,
}

static STATE: Mutex<State> = Mutex::new(State {
    modules_total: 0,
    modules_done: 0,
    units_total: 0,
    units_done: 0,
    cache_hits: 0,
    cache_misses: 0,
    started: None,
    last_draw: None,
    drew_anything: false,
});

fn with_state(f: impl FnOnce(&mut State)) {
    if !crate::progress_enabled() {
        return;
    }
    let mut state = STATE.lock().expect("progress state poisoned");
    f(&mut state);
}

/// Declares the size of the upcoming sweep (modules and shard units);
/// accumulates across sweeps in the same run.
pub fn add_totals(modules: u64, units: u64) {
    with_state(|s| {
        s.modules_total += modules;
        s.units_total += units;
        if s.started.is_none() {
            s.started = Some(Instant::now());
        }
    });
}

/// Takes back declared totals for work that will not run (an adaptive
/// study stopping early).
pub fn retract_totals(modules: u64, units: u64) {
    with_state(|s| {
        s.modules_total = s.modules_total.saturating_sub(modules);
        s.units_total = s.units_total.saturating_sub(units);
    });
}

/// Records one finished module and redraws (rate-limited).
pub fn module_done() {
    with_state(|s| {
        s.modules_done += 1;
        draw(s, false);
    });
}

/// Records one finished shard unit and redraws (rate-limited).
pub fn unit_done() {
    with_state(|s| {
        s.units_done += 1;
        draw(s, false);
    });
}

/// Records one sweep-cache lookup outcome (feeds the hit-rate display).
pub fn cache_lookup(hit: bool) {
    with_state(|s| {
        if hit {
            s.cache_hits += 1;
        } else {
            s.cache_misses += 1;
        }
    });
}

/// Forces a final redraw and terminates the progress line with a newline so
/// subsequent stderr output starts clean.
pub fn finish() {
    with_state(|s| {
        if s.units_total == 0 && !s.drew_anything {
            return;
        }
        draw(s, true);
        if s.drew_anything {
            eprintln!();
        }
        *s = State::default();
    });
}

fn draw(s: &mut State, force: bool) {
    let now = Instant::now();
    if !force {
        if let Some(last) = s.last_draw {
            if now.duration_since(last) < MIN_REDRAW {
                return;
            }
        }
    }
    s.last_draw = Some(now);
    s.drew_anything = true;

    let elapsed = s
        .started
        .map_or(Duration::ZERO, |t| now.duration_since(t))
        .as_secs_f64();
    let rate = if elapsed > 0.0 {
        s.units_done as f64 / elapsed
    } else {
        0.0
    };
    let looked_up = s.cache_hits + s.cache_misses;
    let mut line = format!(
        "\rhammervolt: modules {}/{} · shards {}/{} · {:.1} shard/s",
        s.modules_done, s.modules_total, s.units_done, s.units_total, rate
    );
    if looked_up > 0 {
        line.push_str(&format!(
            " · cache {:.0}% hit",
            100.0 * s.cache_hits as f64 / looked_up as f64
        ));
    }
    // Pad to overwrite any longer previous line.
    let stderr = std::io::stderr();
    let mut out = stderr.lock();
    let _ = write!(out, "{line:<78}");
    let _ = out.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the process-wide progress flag.
    static PROGRESS_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn inert_when_disabled() {
        let _guard = PROGRESS_TEST_LOCK.lock().unwrap();
        crate::set_progress(false);
        add_totals(3, 9);
        unit_done();
        cache_lookup(true);
        module_done();
        finish();
        let s = STATE.lock().unwrap();
        assert_eq!(s.units_done, 0, "disabled progress must not mutate state");
    }

    #[test]
    fn finish_resets_state() {
        let _guard = PROGRESS_TEST_LOCK.lock().unwrap();
        // Note: writes one progress line to stderr; harmless in test output.
        crate::set_progress(true);
        add_totals(1, 2);
        cache_lookup(false);
        unit_done();
        cache_lookup(true);
        unit_done();
        module_done();
        finish();
        crate::set_progress(false);
        let s = STATE.lock().unwrap();
        assert_eq!(s.units_done, 0);
        assert_eq!(s.modules_total, 0);
    }
}
