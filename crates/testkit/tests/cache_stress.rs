//! Multi-writer stress over the content-addressed sweep cache.
//!
//! Many threads hammer `cache_store` / `cache_load` / `open_entry` on one
//! cache directory — the exact situation the pid+seq temp-file naming in
//! `cache_store` exists for (two threads finishing the same module's sweep
//! in separate pools). The property: a reader, at any instant, sees either
//! no entry or a complete sealed entry that passes envelope verification
//! and deserializes to a value some writer actually stored for that key —
//! never a torn mix — and once the dust settles no temp files survive.

use hammervolt_core::exec::{self, fnv1a64, FNV_OFFSET};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

static CASE: AtomicU64 = AtomicU64::new(0);

fn case_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "testkit-cache-stress-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn key_of(slot: u64) -> u64 {
    fnv1a64(&slot.to_le_bytes(), FNV_OFFSET)
}

fn path_of(dir: &Path, slot: u64) -> PathBuf {
    dir.join(format!("stress-{slot}.jsonl"))
}

/// What each writer stores: the slot (so cross-slot mixups are detectable),
/// the writer, the round, and filler to make torn writes physically
/// possible if atomicity ever broke.
fn payload(slot: u64, writer: u64, round: u64) -> Vec<u64> {
    let mut v = vec![slot, writer, round];
    v.extend((0..256).map(|i| slot.wrapping_mul(31) ^ writer.wrapping_mul(7) ^ round ^ i));
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn concurrent_writers_and_readers_never_observe_torn_entries(
        writers in 2u64..5,
        slots in 1u64..4,
        rounds in 4u64..12,
    ) {
        let dir = Arc::new(case_dir());
        let _ = std::fs::remove_dir_all(dir.as_ref());
        let writers_done = Arc::new(AtomicBool::new(false));

        let writer_handles: Vec<_> = (0..writers)
            .map(|w| {
                let dir = Arc::clone(&dir);
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        for slot in 0..slots {
                            exec::cache_store(
                                &path_of(&dir, slot),
                                key_of(slot),
                                &payload(slot, w, round),
                            );
                        }
                    }
                })
            })
            .collect();
        // Readers race the writers the whole time, through both the typed
        // verifying load and the raw envelope check, then make one last pass
        // after every writer finished, so a run cannot end before an entry
        // landed however the threads are scheduled.
        let reader_handles: Vec<_> = (0..2)
            .map(|_| {
                let dir = Arc::clone(&dir);
                let writers_done = Arc::clone(&writers_done);
                std::thread::spawn(move || {
                    let mut observed = 0u64;
                    loop {
                        let last_pass = writers_done.load(Ordering::Acquire);
                        for slot in 0..slots {
                            let path = path_of(&dir, slot);
                            if let Some(v) = exec::cache_load::<Vec<u64>>(&path, key_of(slot)) {
                                assert_eq!(v[0], slot, "entry deserialized under the wrong slot");
                                assert!(v[1] < writers, "payload not from any writer");
                                assert_eq!(v.len(), 3 + 256, "partial payload observed");
                                observed += 1;
                            }
                            // Raw view: if the file exists at all, its line
                            // must be a sealed, self-consistent envelope.
                            if let Ok(text) = std::fs::read_to_string(&path) {
                                let line = text.lines().next().expect("entry has one line");
                                assert!(
                                    exec::open_entry(line, key_of(slot)).is_some(),
                                    "reader saw a torn or mis-keyed entry"
                                );
                            }
                        }
                        if last_pass {
                            break;
                        }
                    }
                    observed
                })
            })
            .collect();

        for handle in writer_handles {
            handle.join().expect("writer completes");
        }
        writers_done.store(true, Ordering::Release);
        let mut observed = 0;
        for handle in reader_handles {
            observed += handle.join().expect("reader completes");
        }
        prop_assert!(observed > 0, "readers never saw a single entry — vacuous run");

        // Settled state: every slot holds exactly one verifiable entry and
        // the temp files behind the atomic renames are all gone.
        for slot in 0..slots {
            let v = exec::cache_load::<Vec<u64>>(&path_of(&dir, slot), key_of(slot))
                .expect("final entry verifies");
            prop_assert_eq!(v[0], slot);
        }
        let leftovers: Vec<String> = std::fs::read_dir(dir.as_ref())
            .expect("cache dir exists")
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|name| name.contains(".tmp."))
            .collect();
        prop_assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        let _ = std::fs::remove_dir_all(dir.as_ref());
    }

    #[test]
    fn wrong_key_readers_reject_whatever_writers_race_in(
        writers in 2u64..4,
        rounds in 3u64..8,
    ) {
        // A reader expecting a different key must never accept an entry,
        // no matter how the writers interleave.
        let dir = Arc::new(case_dir());
        let _ = std::fs::remove_dir_all(dir.as_ref());
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let dir = Arc::clone(&dir);
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        exec::cache_store(&path_of(&dir, 0), key_of(0), &payload(0, w, round));
                    }
                })
            })
            .collect();
        for _ in 0..rounds * writers {
            prop_assert!(
                exec::cache_load::<Vec<u64>>(&path_of(&dir, 0), key_of(1)).is_none(),
                "a mis-keyed load must always miss"
            );
        }
        for handle in handles {
            handle.join().expect("writer completes");
        }
        let _ = std::fs::remove_dir_all(dir.as_ref());
    }
}
