//! Chaos tests for the crash-safe stage cache.
//!
//! Two layers of abuse, both with the same acceptance bar: records must
//! stay byte-identical to a cold cacheless run, and every corrupted
//! entry the engine touches must show up in `EngineStats::quarantined`.
//!
//! * A proptest storm flips and truncates bytes in on-disk `result`
//!   entries directly — simulating bit rot, torn writes from a crashed
//!   process, or a hostile filesystem.
//! * Armed fault points (`cache_read_io`, `cache_write_partial`) break
//!   the cache from the inside. The fault-point registry is
//!   process-global, so every test here serializes on one mutex, and the
//!   armed ones disarm via a drop guard.

use mm_engine::faultpoint;
use mm_engine::{Engine, EngineOptions, FlowKind, Job};
use mm_flow::FlowOptions;
use mm_place::CostKind;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

fn quick_options(seed: u64) -> FlowOptions {
    let mut o = FlowOptions::default().with_fixed_width(12).with_seed(seed);
    o.placer.inner_num = 1.0;
    o.router.max_iterations = 30;
    o
}

fn jobs() -> Vec<Job> {
    let a = mm_gen::seeded_test_circuit("m0", 5, 10, 0xc4a0_0001);
    let b = mm_gen::seeded_test_circuit("m1", 5, 11, 0xc4a0_0002);
    let c = mm_gen::seeded_test_circuit("m2", 5, 12, 0xc4a0_0003);
    vec![
        Job {
            name: "storm-dcs".into(),
            circuits: vec![a.clone(), b.clone()],
            flow: FlowKind::Dcs(CostKind::WireLength),
            options: quick_options(0xc4a0),
        },
        Job {
            name: "storm-mdr".into(),
            circuits: vec![b, c.clone()],
            flow: FlowKind::Mdr,
            options: quick_options(0xc4a0),
        },
        Job {
            name: "storm-pair".into(),
            circuits: vec![a.clone(), c.clone()],
            flow: FlowKind::Pair,
            options: quick_options(0xc4a0),
        },
        // The pair's leg summaries are result entries too, which an
        // intact pair root never reads. Plain jobs over the same modes
        // make every result entry some job's root, so each corrupted
        // entry is read (and quarantined) exactly once.
        Job {
            name: "storm-pair-mdr".into(),
            circuits: vec![a.clone(), c.clone()],
            flow: FlowKind::Mdr,
            options: quick_options(0xc4a0),
        },
        Job {
            name: "storm-pair-dcs".into(),
            circuits: vec![a.clone(), c.clone()],
            flow: FlowKind::Dcs(CostKind::WireLength),
            options: quick_options(0xc4a0),
        },
        Job {
            name: "storm-pair-dcs-edge".into(),
            circuits: vec![a, c],
            flow: FlowKind::Dcs(CostKind::EdgeMatching),
            options: quick_options(0xc4a0),
        },
    ]
}

fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mm-chaos-cache-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn engine_with_cache(dir: &Path) -> Engine {
    Engine::new(EngineOptions {
        threads: 1,
        cache_dir: Some(dir.to_path_buf()),
        result_memo: 0,
    })
    .expect("engine")
}

fn record_lines(engine: &Engine) -> Vec<String> {
    engine
        .run(jobs())
        .results
        .iter()
        .map(mm_engine::JobResult::to_json_line)
        .collect()
}

/// The records a cacheless serial run produces — ground truth for every
/// byte-parity assertion below.
fn cold_reference() -> Vec<String> {
    let engine = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: None,
        result_memo: 0,
    })
    .expect("engine");
    record_lines(&engine)
}

/// All `result`-stage entry files currently in the store, sorted for a
/// deterministic mapping between proptest masks and files.
fn result_entries(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.join("result")];
    while let Some(dir) = stack.pop() {
        let Ok(read) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in read.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "json") {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

fn quarantined_files(root: &Path) -> usize {
    std::fs::read_dir(root.join("quarantine"))
        .map(|read| read.flatten().count())
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Flip or truncate bytes in a mask-chosen subset of on-disk result
    /// entries. The next batch must (a) emit records byte-identical to
    /// the cold reference, (b) quarantine exactly the corrupted entries
    /// and report every one of them in `EngineStats::quarantined`, and
    /// (c) leave the store healed: a third run is fully warm and clean.
    #[test]
    fn corruption_storm_never_reaches_a_record(mask: u64, flip_byte: u8, truncate: bool) {
        // Its counts are exact, so no fault armed by a sibling test may
        // fire while the case runs.
        let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let reference = cold_reference();
        let dir = tmp_dir("storm");

        // Cold run populates the store and must already match.
        let warm_engine = engine_with_cache(&dir);
        prop_assert_eq!(&record_lines(&warm_engine), &reference);
        drop(warm_engine);

        let entries = result_entries(&dir);
        prop_assert!(!entries.is_empty());
        let mut corrupted = 0usize;
        for (i, path) in entries.iter().enumerate() {
            // Always corrupt at least the first entry so every case
            // exercises the quarantine path.
            if i > 0 && (mask >> (i % 64)) & 1 == 0 {
                continue;
            }
            let mut bytes = std::fs::read(path).expect("read entry");
            if truncate {
                bytes.truncate(bytes.len() / 2);
            } else {
                let pos = (mask as usize).wrapping_add(i) % bytes.len().max(1);
                bytes[pos] ^= flip_byte | 1;
            }
            std::fs::write(path, bytes).expect("corrupt entry");
            corrupted += 1;
        }

        // Storm run: every corrupted entry is read, fails validation,
        // is quarantined, and is transparently recomputed.
        let storm = engine_with_cache(&dir).run(jobs());
        let storm_lines: Vec<String> =
            storm.results.iter().map(mm_engine::JobResult::to_json_line).collect();
        prop_assert_eq!(&storm_lines, &reference);
        prop_assert_eq!(storm.stats.quarantined, corrupted);
        prop_assert_eq!(storm.cache.corrupt, corrupted as u64);
        prop_assert_eq!(quarantined_files(&dir), corrupted);

        // The store healed itself: a fresh engine is fully warm.
        let healed = engine_with_cache(&dir).run(jobs());
        let healed_lines: Vec<String> =
            healed.results.iter().map(mm_engine::JobResult::to_json_line).collect();
        prop_assert_eq!(&healed_lines, &reference);
        prop_assert_eq!(healed.stats.quarantined, 0);
        prop_assert_eq!(healed.stats.results_from_cache, reference.len());

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Fault-point registry is process-global: every test takes this lock,
/// and armed tests disarm through [`Armed`] so a panic cannot leak an
/// armed registry into the storm proptest above.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

struct Armed<'a> {
    _guard: std::sync::MutexGuard<'a, ()>,
}

impl<'a> Armed<'a> {
    fn new(spec: &str) -> Self {
        let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        faultpoint::arm(spec).expect("valid fault spec");
        Self { _guard: guard }
    }
}

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        faultpoint::disarm();
    }
}

#[test]
fn injected_read_faults_degrade_to_recomputation_with_identical_bytes() {
    let reference = cold_reference();
    let dir = tmp_dir("read-fault");
    // Populate the store cleanly first.
    assert_eq!(record_lines(&engine_with_cache(&dir)), reference);

    let _armed = Armed::new("seed=11,cache_read_io=1");
    let report = engine_with_cache(&dir).run(jobs());
    let lines: Vec<String> = report
        .results
        .iter()
        .map(mm_engine::JobResult::to_json_line)
        .collect();
    assert_eq!(lines, reference);
    // Every read failed, so nothing came from the cache and every
    // failed read was quarantined and counted.
    assert_eq!(report.stats.results_from_cache, 0);
    assert!(report.stats.quarantined > 0);
    assert_eq!(report.stats.quarantined, report.cache.corrupt as usize);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_writes_are_caught_on_the_next_read() {
    let reference = cold_reference();
    let dir = tmp_dir("torn-write");
    {
        // Every write is torn mid-entry, as a crash would leave it.
        let _armed = Armed::new("seed=12,cache_write_partial=1");
        assert_eq!(record_lines(&engine_with_cache(&dir)), reference);
    }
    // Healthy reader: the torn entries fail their checksum, are
    // quarantined, and the batch recomputes to identical bytes.
    let report = engine_with_cache(&dir).run(jobs());
    let lines: Vec<String> = report
        .results
        .iter()
        .map(mm_engine::JobResult::to_json_line)
        .collect();
    assert_eq!(lines, reference);
    assert!(report.stats.quarantined > 0);
    assert_eq!(report.stats.quarantined, quarantined_files(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}
