//! Traced replicas of the paper's per-row procedures (Algs. 1–3): exactly
//! the `SoftMc` calls the library's implementations make, in the same
//! order, with a span around each call.
//!
//! The device model's noise stream advances with every operation, so a
//! replica making one call more, fewer, or in another order would produce
//! different records; the workloads compare the replay's output bytes
//! against the engine's to prove the mirror exact.

use crate::spans::{span, Tracer};
use hammervolt_core::alg1::{self, Alg1Config};
use hammervolt_core::alg2::Alg2Config;
use hammervolt_core::alg3::Alg3Config;
use hammervolt_core::patterns::{count_flips, DataPattern};
use hammervolt_core::StudyError;
use hammervolt_softmc::SoftMc;

/// Work counts the spans cannot carry: computed from call arguments and
/// results.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Simulated ACT commands: two per hammer count of a double-sided hammer.
    pub acts: u64,
    /// Flipped bits seen on readouts.
    pub flip_bits: u64,
    /// `HC_first` binary-search steps.
    pub search_steps: u64,
}

/// One traced whole-row read returning the readout's flipped-bit count
/// (against the pattern it was written with) and its word count.
fn read_flips(
    t: &mut Tracer,
    c: &mut Counts,
    read: impl FnOnce() -> Result<(u64, usize), StudyError>,
) -> Result<(u64, usize), StudyError> {
    let (flips, words) = span(t, "softmc.read", |_| read())?;
    c.flip_bits += flips;
    Ok((flips, words))
}

/// `patterns::bit_error_rate` from an already counted readout.
fn ber(flips: u64, words: usize) -> f64 {
    if words == 0 {
        0.0
    } else {
        flips as f64 / (words as f64 * 64.0)
    }
}

fn init_row(
    t: &mut Tracer,
    mc: &mut SoftMc,
    bank: u32,
    row: u32,
    word: u64,
) -> Result<(), StudyError> {
    span(t, "softmc.init_row", |_| mc.init_row(bank, row, word))?;
    Ok(())
}

/// `alg1::measure_ber`.
pub fn measure_ber(
    t: &mut Tracer,
    c: &mut Counts,
    mc: &mut SoftMc,
    bank: u32,
    victim: u32,
    wcdp: DataPattern,
    hc: u64,
) -> Result<f64, StudyError> {
    span(t, "alg1.measure_ber", |t| {
        let (below, above) = alg1::aggressors_of(mc, victim)?;
        init_row(t, mc, bank, victim, wcdp.word())?;
        init_row(t, mc, bank, below, wcdp.inverse().word())?;
        init_row(t, mc, bank, above, wcdp.inverse().word())?;
        span(t, "softmc.hammer", |_| {
            mc.hammer_double_sided(bank, below, above, hc)
        })?;
        c.acts += 2 * hc;
        let (flips, words) = read_flips(t, c, || {
            let r = mc.read_row_conservative_scratch(bank, victim)?;
            Ok((count_flips(r, wcdp), r.len()))
        })?;
        Ok(ber(flips, words))
    })
}

/// `alg1::search_hc_first`.
fn search_hc_first(
    t: &mut Tracer,
    c: &mut Counts,
    mc: &mut SoftMc,
    bank: u32,
    victim: u32,
    wcdp: DataPattern,
    config: &Alg1Config,
) -> Result<Option<u64>, StudyError> {
    let mut hc = config.fixed_hc as i64;
    let mut step = config.initial_step as i64;
    let min_step = config.min_step.max(1) as i64;
    let mut any_flip = false;
    while step > min_step {
        let ber = measure_ber(t, c, mc, bank, victim, wcdp, hc.max(min_step) as u64)?;
        if ber == 0.0 {
            hc += step;
        } else {
            any_flip = true;
            hc -= step;
        }
        step /= 2;
        c.search_steps += 1;
    }
    Ok(any_flip.then(|| hc.max(min_step) as u64))
}

/// `alg1::measure_row_with`'s result fields.
pub struct Alg1Row {
    pub wcdp: DataPattern,
    pub hc_first: Option<u64>,
    pub ber: f64,
    pub ber_samples: Vec<f64>,
}

/// `alg1::measure_row_with`: WCDP selection (skipped under an override),
/// then per iteration BER at the fixed hammer count and an `HC_first`
/// search.
pub fn alg1_row(
    t: &mut Tracer,
    c: &mut Counts,
    mc: &mut SoftMc,
    bank: u32,
    victim: u32,
    config: &Alg1Config,
) -> Result<Alg1Row, StudyError> {
    if config.iterations == 0 {
        return Err(StudyError::InvalidConfig {
            reason: "iterations must be at least 1".to_string(),
        });
    }
    span(t, "alg1.measure_row", |t| {
        let wcdp = match config.wcdp_override {
            Some(p) => p,
            None => span(t, "alg1.wcdp", |t| {
                let mut best = DataPattern::CheckerboardAa;
                let mut best_ber = -1.0;
                for pattern in DataPattern::ALL {
                    let ber = measure_ber(t, c, mc, bank, victim, pattern, config.fixed_hc)?;
                    if ber > best_ber {
                        best = pattern;
                        best_ber = ber;
                    }
                }
                if best_ber <= 0.0 {
                    best = DataPattern::CheckerboardAa;
                }
                Ok::<_, StudyError>(best)
            })?,
        };
        let mut ber_samples = Vec::with_capacity(config.iterations as usize);
        let mut hc_first: Option<u64> = None;
        for _ in 0..config.iterations {
            ber_samples.push(span(t, "alg1.ber", |t| {
                measure_ber(t, c, mc, bank, victim, wcdp, config.fixed_hc)
            })?);
            let found = span(t, "alg1.hc_search", |t| {
                search_hc_first(t, c, mc, bank, victim, wcdp, config)
            })?;
            if let Some(found) = found {
                hc_first = Some(hc_first.map_or(found, |prev| prev.min(found)));
            }
        }
        let ber = ber_samples.iter().copied().fold(0.0, f64::max);
        Ok(Alg1Row {
            wcdp,
            hc_first,
            ber,
            ber_samples,
        })
    })
}

/// Alg. 2's private `row_is_faulty_at`.
fn row_is_faulty_at(
    t: &mut Tracer,
    c: &mut Counts,
    mc: &mut SoftMc,
    bank: u32,
    row: u32,
    wcdp: DataPattern,
    t_rcd_ns: f64,
) -> Result<bool, StudyError> {
    init_row(t, mc, bank, row, wcdp.word())?;
    let (flips, _) = read_flips(t, c, || {
        let r = mc.read_row_with_t_rcd_scratch(bank, row, t_rcd_ns)?;
        Ok((count_flips(r, wcdp), r.len()))
    })?;
    Ok(flips > 0)
}

/// Alg. 2's private `sweep_once`.
fn sweep_once(
    t: &mut Tracer,
    c: &mut Counts,
    mc: &mut SoftMc,
    bank: u32,
    row: u32,
    wcdp: DataPattern,
    config: &Alg2Config,
) -> Result<Option<f64>, StudyError> {
    let mut t_rcd = config.start_ns;
    let mut best_reliable: Option<f64> = None;
    let mut found_faulty = false;
    loop {
        if row_is_faulty_at(t, c, mc, bank, row, wcdp, t_rcd)? {
            found_faulty = true;
            t_rcd += config.step_ns;
            if t_rcd > config.ceiling_ns + 1e-9 || best_reliable.is_some() {
                return Ok(best_reliable);
            }
        } else {
            best_reliable = Some(best_reliable.map_or(t_rcd, |b: f64| b.min(t_rcd)));
            if found_faulty {
                return Ok(best_reliable);
            }
            t_rcd -= config.step_ns;
            if t_rcd < config.floor_ns - 1e-9 {
                return Ok(best_reliable);
            }
        }
    }
}

/// `alg2::measure_row`: the row's `t_RCDmin`, `None` above the ceiling.
pub fn alg2_row(
    t: &mut Tracer,
    c: &mut Counts,
    mc: &mut SoftMc,
    bank: u32,
    row: u32,
    config: &Alg2Config,
) -> Result<Option<f64>, StudyError> {
    if config.iterations == 0 {
        return Err(StudyError::InvalidConfig {
            reason: "iterations must be at least 1".to_string(),
        });
    }
    span(t, "alg2.measure_row", |t| {
        let wcdp = match config.wcdp_override {
            Some(p) => p,
            None => span(t, "alg2.wcdp", |t| {
                let probe = Alg2Config {
                    iterations: 1,
                    ..*config
                };
                let mut best = DataPattern::RowStripeOnes;
                let mut best_trcd = -1.0f64;
                for pattern in DataPattern::ALL {
                    let found = sweep_once(t, c, mc, bank, row, pattern, &probe)?;
                    let t_rcd = found.unwrap_or(f64::INFINITY);
                    if t_rcd > best_trcd {
                        best = pattern;
                        best_trcd = t_rcd;
                    }
                }
                Ok::<_, StudyError>(best)
            })?,
        };
        let mut worst: Option<f64> = None;
        for _ in 0..config.iterations {
            match span(t, "alg2.sweep", |t| {
                sweep_once(t, c, mc, bank, row, wcdp, config)
            })? {
                Some(found) => worst = Some(worst.map_or(found, |w: f64| w.max(found))),
                None => return Ok(None),
            }
        }
        Ok(worst)
    })
}

/// `alg3::measure_window`.
fn measure_window(
    t: &mut Tracer,
    c: &mut Counts,
    mc: &mut SoftMc,
    bank: u32,
    row: u32,
    wcdp: DataPattern,
    window_s: f64,
) -> Result<f64, StudyError> {
    span(t, "alg3.window", |t| {
        init_row(t, mc, bank, row, wcdp.word())?;
        span(t, "softmc.wait", |_| mc.wait_ns(window_s * 1e9))?;
        let (flips, words) = read_flips(t, c, || {
            let r = mc.read_row_conservative_scratch(bank, row)?;
            Ok((count_flips(r, wcdp), r.len()))
        })?;
        Ok(ber(flips, words))
    })
}

/// `alg3::measure_row`: the worst BER per configured window, in window
/// order.
pub fn alg3_row(
    t: &mut Tracer,
    c: &mut Counts,
    mc: &mut SoftMc,
    bank: u32,
    row: u32,
    config: &Alg3Config,
) -> Result<Vec<(f64, f64)>, StudyError> {
    let Some(&longest) = config.windows_s.last() else {
        return Err(StudyError::InvalidConfig {
            reason: "windows_s must not be empty".to_string(),
        });
    };
    if config.iterations == 0 {
        return Err(StudyError::InvalidConfig {
            reason: "iterations must be at least 1".to_string(),
        });
    }
    span(t, "alg3.measure_row", |t| {
        let wcdp = match config.wcdp_override {
            Some(p) => p,
            None => span(t, "alg3.wcdp", |t| {
                let mut best = DataPattern::CheckerboardAa;
                let mut best_key = (f64::INFINITY, 0.0f64);
                for pattern in DataPattern::ALL {
                    let mut first_fail = f64::INFINITY;
                    for &w in &config.windows_s {
                        if measure_window(t, c, mc, bank, row, pattern, w)? > 0.0 {
                            first_fail = w;
                            break;
                        }
                    }
                    let ber_longest = measure_window(t, c, mc, bank, row, pattern, longest)?;
                    let key = (first_fail, -ber_longest);
                    if key < best_key {
                        best = pattern;
                        best_key = key;
                    }
                }
                Ok::<_, StudyError>(best)
            })?,
        };
        let mut points = Vec::with_capacity(config.windows_s.len());
        for &window in &config.windows_s {
            let mut worst = 0.0f64;
            for _ in 0..config.iterations {
                worst = worst.max(measure_window(t, c, mc, bank, row, wcdp, window)?);
            }
            points.push((window, worst));
        }
        Ok(points)
    })
}
