//! The HTTP API's payload schemas: submission parsing and response bodies.
//!
//! A submission body is accepted in either of two forms:
//!
//! 1. **Full spec** — the exact JSON serialization of
//!    [`JobSpec`] (`{"kind":…,"config":…}`), for callers that
//!    already hold a configuration (round-trips through
//!    [`JobSpec::spec_hash`] unchanged).
//! 2. **Shortcut** — the CLI's environment mapping as JSON:
//!    `{"kind":"hammer","scale":"smoke","rows_per_chunk":2,"modules":["B3"]}`.
//!    `scale` mirrors `HAMMERVOLT_SCALE` (`smoke`, `quick` or `paper`;
//!    absent = the CLI default, quick; any other value is rejected like an
//!    unknown kind or module), `rows_per_chunk` mirrors
//!    `HAMMERVOLT_ROWS`, `modules` mirrors the CLI's positional labels, and
//!    `levels_cap` (trcd only) defaults to the CLI's 4 — so a shortcut
//!    submission reconstructs the *same* [`StudyConfig`] the CLI builds for
//!    the same knobs, which is what makes HTTP results byte-identical to
//!    CLI runs.
//!
//! Population studies have their own shortcut knobs:
//! `{"kind":"population","size":10000,"seed":7,"batch_size":16,
//! "rows_per_module":2,"mix":[1,1,1],"min_batches":3}` — everything but
//! `kind` optional, defaults from
//! [`hammervolt_core::population::PopulationConfig::smoke`]. The study
//! config fields (`scale`, `rows_per_chunk`, `modules`) are ignored for
//! population jobs: the spec is canonicalized through
//! [`JobSpec::population`] so equal population configs dedup and cache
//! identically no matter how they were submitted.

use hammervolt_core::job::{JobSpec, SweepKind};
use hammervolt_core::population::PopulationConfig;
use hammervolt_core::study::{self, StudyConfig};
use hammervolt_dram::registry::ModuleId;
use hammervolt_obs::json::ObjectWriter;
use serde::Deserialize;

/// The shortcut submission form (see module docs).
#[derive(Debug, Deserialize)]
struct ShortcutSpec {
    kind: String,
    levels_cap: Option<usize>,
    scale: Option<String>,
    rows_per_chunk: Option<u32>,
    modules: Option<Vec<String>>,
    // Population-only knobs.
    size: Option<u64>,
    seed: Option<u64>,
    batch_size: Option<u64>,
    rows_per_module: Option<u32>,
    mix: Option<(u32, u32, u32)>,
    min_batches: Option<u64>,
}

/// Parses a submission body into a [`JobSpec`]; `Err` carries a
/// client-facing message.
pub fn parse_spec(body: &[u8]) -> Result<JobSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if let Ok(spec) = serde_json::from_str::<JobSpec>(text) {
        return Ok(spec);
    }
    let shortcut: ShortcutSpec = serde_json::from_str(text)
        .map_err(|e| format!("body is neither a full JobSpec nor a shortcut spec: {e}"))?;
    let kind = match shortcut.kind.as_str() {
        "hammer" => SweepKind::Hammer,
        "trcd" => SweepKind::Trcd {
            levels_cap: shortcut.levels_cap.unwrap_or(4),
        },
        "retention" => SweepKind::Retention,
        "population" => {
            let mut cfg =
                PopulationConfig::smoke(shortcut.size.unwrap_or(64), shortcut.seed.unwrap_or(0));
            if let Some(batch) = shortcut.batch_size {
                cfg.batch_size = batch;
            }
            if let Some(rows) = shortcut.rows_per_module {
                cfg.rows_per_module = rows;
            }
            if let Some((a, b, c)) = shortcut.mix {
                cfg.population.family_mix = hammervolt_dram::population::FamilyMix { a, b, c };
            }
            if let Some(min) = shortcut.min_batches {
                cfg.stopping.min_batches = min;
            }
            return Ok(JobSpec::population(cfg));
        }
        other => return Err(format!("unknown sweep kind {other:?}")),
    };
    // The CLI's HAMMERVOLT_SCALE mapping; absent means its default, quick.
    let scale = shortcut.scale.as_deref().unwrap_or("quick");
    let mut config = StudyConfig::for_scale(scale).ok_or_else(|| {
        format!(
            "unknown scale {scale:?}; expected one of {}",
            study::SCALES.join(", ")
        )
    })?;
    if let Some(rows) = shortcut.rows_per_chunk {
        if rows == 0 {
            return Err("rows_per_chunk must be positive".to_string());
        }
        config.rows_per_chunk = rows;
    }
    if let Some(labels) = shortcut.modules {
        if labels.is_empty() {
            return Err("modules must not be empty when present".to_string());
        }
        config.modules = labels
            .iter()
            .map(|label| {
                ModuleId::from_label(label).ok_or_else(|| format!("unknown module {label:?}"))
            })
            .collect::<Result<_, _>>()?;
    }
    Ok(JobSpec { kind, config })
}

/// `{"error":"…"}` body.
pub fn error_body(message: &str) -> String {
    let mut body = ObjectWriter::new();
    body.field_str("error", message);
    body.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_spec_round_trips() {
        let spec = JobSpec {
            kind: SweepKind::Trcd { levels_cap: 3 },
            config: StudyConfig::smoke(),
        };
        let body = serde_json::to_string(&spec).unwrap();
        let parsed = parse_spec(body.as_bytes()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.spec_hash(), spec.spec_hash());
    }

    #[test]
    fn shortcut_matches_cli_config_mapping() {
        let parsed =
            parse_spec(br#"{"kind":"hammer","scale":"smoke","rows_per_chunk":2,"modules":["B3"]}"#)
                .unwrap();
        // Exactly what the CLI builds for HAMMERVOLT_SCALE=smoke
        // HAMMERVOLT_ROWS=2 with module B3.
        let mut expected = StudyConfig::smoke();
        expected.rows_per_chunk = 2;
        expected.modules = vec![ModuleId::B3];
        assert_eq!(parsed.kind, SweepKind::Hammer);
        assert_eq!(parsed.config, expected);

        // Each named scale is the shared table's protocol.
        for name in study::SCALES {
            let body = format!(r#"{{"kind":"hammer","scale":"{name}"}}"#);
            let parsed = parse_spec(body.as_bytes()).unwrap();
            assert_eq!(Some(parsed.config), StudyConfig::for_scale(name), "{name}");
        }

        // Default scale is the CLI default protocol (8-row sample).
        let default = parse_spec(br#"{"kind":"retention"}"#).unwrap();
        assert_eq!(default.config, StudyConfig::quick());
        assert_eq!(default.config.rows_per_chunk, 8);
        assert_eq!(default.kind, SweepKind::Retention);

        // A misspelt scale is refused, not run as the default protocol.
        let err = parse_spec(br#"{"kind":"hammer","scale":"smok"}"#).unwrap_err();
        assert!(
            err.contains("smok") && err.contains("smoke, quick, paper"),
            "{err}"
        );

        // trcd defaults to the CLI's levels cap.
        let trcd = parse_spec(br#"{"kind":"trcd"}"#).unwrap();
        assert_eq!(trcd.kind, SweepKind::Trcd { levels_cap: 4 });
    }

    #[test]
    fn population_shortcut_canonicalizes() {
        let parsed = parse_spec(
            br#"{"kind":"population","size":100,"seed":7,"batch_size":10,"mix":[2,1,1],"min_batches":3}"#,
        )
        .unwrap();
        let mut expected_cfg = PopulationConfig::smoke(100, 7);
        expected_cfg.batch_size = 10;
        expected_cfg.population.family_mix =
            hammervolt_dram::population::FamilyMix { a: 2, b: 1, c: 1 };
        expected_cfg.stopping.min_batches = 3;
        let expected = JobSpec::population(expected_cfg);
        assert_eq!(parsed, expected);
        assert_eq!(parsed.spec_hash(), expected.spec_hash());

        // Study-config knobs are ignored: the canonical spec hashes the
        // same no matter what rode along.
        let with_noise = parse_spec(
            br#"{"kind":"population","size":100,"seed":7,"batch_size":10,"mix":[2,1,1],"min_batches":3,"scale":"paper","rows_per_chunk":5}"#,
        )
        .unwrap();
        assert_eq!(with_noise.spec_hash(), expected.spec_hash());
    }

    #[test]
    fn bad_bodies_are_rejected_with_messages() {
        assert!(parse_spec(b"not json").is_err());
        assert!(parse_spec(br#"{"kind":"warp"}"#).is_err());
        assert!(parse_spec(br#"{"kind":"hammer","modules":["Z9"]}"#).is_err());
        assert!(parse_spec(br#"{"kind":"hammer","modules":[]}"#).is_err());
        assert!(parse_spec(br#"{"kind":"hammer","rows_per_chunk":0}"#).is_err());
        assert!(parse_spec(&[0xFF, 0xFE]).is_err());
    }

    #[test]
    fn error_body_escapes() {
        assert_eq!(
            error_body("a \"quoted\"\nline"),
            "{\"error\":\"a \\\"quoted\\\"\\nline\"}"
        );
    }
}
