//! Property-based tests for the methodology crate.

use hammervolt_core::exec::{
    cache_load, fnv1a64, open_entry, seal_entry, CacheEnvelope, CACHE_FORMAT_VERSION, FNV_OFFSET,
};
use hammervolt_core::experiment::{vpp_ladder, RowSample};
use hammervolt_core::patterns::{bit_error_rate, count_flips, DataPattern};
use hammervolt_dram::geometry::{ChipOrg, Density, Geometry};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn any_pattern() -> impl Strategy<Value = DataPattern> {
    prop::sample::select(DataPattern::ALL.to_vec())
}

proptest! {
    #[test]
    fn pattern_inverse_is_involution(p in any_pattern()) {
        prop_assert_eq!(p.inverse().inverse(), p);
        prop_assert_eq!(p.word() ^ p.inverse().word(), u64::MAX);
    }

    #[test]
    fn flip_count_is_hamming_distance(
        p in any_pattern(),
        flips in prop::collection::vec((0usize..32, 0u32..64), 0..40),
    ) {
        let mut row = vec![p.word(); 32];
        let mut expected = 0u64;
        let mut seen = std::collections::HashSet::new();
        for &(word, bit) in &flips {
            if seen.insert((word, bit)) {
                row[word] ^= 1u64 << bit;
                expected += 1;
            }
        }
        prop_assert_eq!(count_flips(&row, p), expected);
        let ber = bit_error_rate(&row, p);
        prop_assert!((ber - expected as f64 / (32.0 * 64.0)).abs() < 1e-15);
    }

    #[test]
    fn ladder_is_dense_and_bounded(vpp_min in 1.4..2.5f64) {
        let l = vpp_ladder(vpp_min);
        prop_assert_eq!(l[0], 2.5);
        for pair in l.windows(2) {
            prop_assert!((pair[0] - pair[1] - 0.1).abs() < 1e-9);
        }
        let last = *l.last().unwrap();
        prop_assert!(last >= vpp_min - 0.05 - 1e-9);
        prop_assert!(last <= vpp_min + 0.1);
    }

    #[test]
    fn row_sample_is_sorted_unique_and_in_range(chunk in 1u32..64) {
        let g = Geometry::ddr4(Density::D4Gb, ChipOrg::X8);
        let s = RowSample::chunks(g, chunk);
        prop_assert!(!s.is_empty());
        let rows = s.rows();
        for w in rows.windows(2) {
            prop_assert!(w[0] < w[1], "sample must be strictly increasing");
        }
        for &r in rows {
            prop_assert!(r >= 2 && r + 2 < g.rows_per_bank);
        }
        prop_assert_eq!(rows.len(), (chunk * 4) as usize);
    }
}

/// The key every cache-envelope case is sealed and opened under.
const KEY: u64 = 0x0123_4567_89AB_CDEF;

/// A payload as the engine seals one: the JSON of a value (here a list of
/// strings built from arbitrary bytes, so quotes, backslashes, control and
/// multi-byte characters all occur).
fn payload_of(items: &[Vec<u8>]) -> (Vec<String>, String) {
    let value: Vec<String> = items
        .iter()
        .map(|b| String::from_utf8_lossy(b).into_owned())
        .collect();
    let json = serde_json::to_string(&value).expect("strings serialize");
    (value, json)
}

/// Bytes payload strings are made of: JSON's specials, a control byte and
/// two that are never valid UTF-8 on their own.
fn payload_byte() -> impl Strategy<Value = u8> {
    prop::sample::select(b"ab0{}[]:,\"\\/\n\t\x01 \xC3\xA9\xFF".to_vec())
}

/// `bytes` as a cache file, read back through the engine's verifying
/// load. Each caller passes its own `tag`, so concurrent tests never share
/// a directory; the directory is removed again after the load.
fn load_bytes(tag: &str, bytes: &[u8]) -> Option<Vec<String>> {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("hammervolt-envelope-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("entry.jsonl");
    std::fs::write(&path, bytes).expect("write entry");
    let loaded = cache_load(&path, KEY);
    let _ = std::fs::remove_dir_all(&dir);
    loaded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_open(raw in prop::collection::vec(any::<u8>(), 0..1024)) {
        let line = String::from_utf8_lossy(&raw);
        prop_assert_eq!(open_entry(&line, KEY), None);
        prop_assert_eq!(load_bytes("arbitrary", &raw), None);
    }

    #[test]
    fn sealed_entries_open_to_exactly_their_payload(
        items in prop::collection::vec(prop::collection::vec(payload_byte(), 0..48), 0..6),
    ) {
        let (value, json) = payload_of(&items);
        let line = seal_entry(KEY, &json);
        prop_assert_eq!(open_entry(&line, KEY), Some(json.clone()));
        prop_assert_eq!(load_bytes("sealed", format!("{line}\n").as_bytes()), Some(value));
        // Under any other key the same entry is a stale-key swap.
        prop_assert_eq!(open_entry(&line, KEY ^ 1), None);
        prop_assert_eq!(open_entry(&seal_entry(KEY.rotate_left(8), &json), KEY), None);
    }

    #[test]
    fn truncated_and_flipped_entries_never_open_to_another_payload(
        items in prop::collection::vec(prop::collection::vec(payload_byte(), 0..48), 0..6),
        cut in 0usize..4096,
        at in 0usize..4096,
        byte in any::<u8>(),
        bit in 0u32..8,
    ) {
        let (value, json) = payload_of(&items);
        let line = seal_entry(KEY, &json).into_bytes();
        // Every strict prefix is incomplete JSON.
        let cut = cut % line.len();
        let prefix = &line[..cut];
        prop_assert_eq!(open_entry(&String::from_utf8_lossy(prefix), KEY), None);
        prop_assert_eq!(load_bytes("truncated", prefix), None);
        // One byte replaced, or one bit flipped, anywhere: refused, or (if the
        // change left the entry meaning the same thing) exactly the payload.
        let at = at % line.len();
        for replacement in [byte, line[at] ^ (1 << bit)] {
            let mut mangled = line.clone();
            mangled[at] = replacement;
            if let Ok(text) = std::str::from_utf8(&mangled) {
                let opened = open_entry(text, KEY);
                prop_assert!(opened.is_none() || opened == Some(json.clone()), "{:?}", opened);
            }
            let loaded = load_bytes("flipped", &mangled);
            prop_assert!(loaded.is_none() || loaded == Some(value.clone()), "{:?}", loaded);
        }
    }

    #[test]
    fn non_utf8_files_never_load(
        items in prop::collection::vec(prop::collection::vec(payload_byte(), 0..48), 0..6),
        at in 0usize..4096,
        bad in prop::sample::select(vec![0x80u8, 0xC3, 0xE2, 0xF0, 0xFE, 0xFF]),
    ) {
        // A valid entry with one byte that can never start or continue a
        // UTF-8 sequence where it lands: the file is corrupt, not a hit.
        let (_, json) = payload_of(&items);
        let mut raw = seal_entry(KEY, &json).into_bytes();
        raw.push(b'\n');
        raw.insert(at % (raw.len() + 1), bad);
        raw.push(0xFF);
        prop_assert!(std::str::from_utf8(&raw).is_err());
        prop_assert_eq!(load_bytes("non-utf8", &raw), None);
    }

    #[test]
    fn other_versions_never_open(
        items in prop::collection::vec(prop::collection::vec(payload_byte(), 0..48), 0..6),
        version in any::<u32>(),
    ) {
        // A well-formed envelope whose checksum is right but whose version
        // is not this reader's.
        prop_assume!(version != CACHE_FORMAT_VERSION);
        let (_, json) = payload_of(&items);
        let envelope = CacheEnvelope {
            version,
            key: format!("{KEY:016x}"),
            checksum: format!("{:016x}", fnv1a64(json.as_bytes(), FNV_OFFSET)),
            payload: json,
        };
        let line = serde_json::to_string(&envelope).expect("envelope serializes");
        prop_assert_eq!(open_entry(&line, KEY), None);
        prop_assert_eq!(load_bytes("version", line.as_bytes()), None);
    }
}

#[test]
fn deeply_nested_entries_and_payloads_are_refused_without_overflow() {
    // Nesting in the envelope line itself: a parse error, not a stack
    // overflow.
    for open in ["[", "{\"version\":", "{\"payload\":["] {
        let line = open.repeat(200);
        assert_eq!(open_entry(&line, KEY), None);
        assert_eq!(load_bytes("nested-line", line.as_bytes()), None);
    }
    // Nesting inside a sealed payload: the envelope holds it as a string and
    // opens to it exactly; deserializing it as a sweep is refused.
    let json = format!("{}{}", "[".repeat(200), "]".repeat(200));
    let line = seal_entry(KEY, &json);
    assert_eq!(open_entry(&line, KEY), Some(json));
    assert_eq!(load_bytes("nested-payload", line.as_bytes()), None);
}

#[test]
fn a_four_mib_payload_opens_in_linear_time() {
    let big = vec!["a\"\\".repeat(4 * 1024 * 1024 / 3)];
    let json = serde_json::to_string(&big).expect("serializes");
    let line = seal_entry(KEY, &json);
    let started = Instant::now();
    let opened = open_entry(&line, KEY);
    let loaded = load_bytes("large", line.as_bytes());
    let took = started.elapsed();
    assert!(opened == Some(json), "the sealed payload must open exactly");
    assert!(loaded == Some(big), "the sealed sweep must load exactly");
    assert!(
        took < Duration::from_secs(5),
        "a {}-byte entry took {took:?}",
        line.len()
    );
    // Cut anywhere, it is refused just as fast.
    let started = Instant::now();
    assert_eq!(open_entry(&line[..line.len() / 2], KEY), None);
    assert!(started.elapsed() < Duration::from_secs(5));
}
