//! Golden-bytes regression suite for default JSONL result records.
//!
//! Records carry no timings or cache info by design (those live in the
//! batch summary), so their bytes must be a pure function of the job.
//! The goldens below were captured from the engine *before* the stage-graph
//! refactor (and, for the first three, before the timing subsystem), so
//! they pin two invariants at once:
//!
//! - opt-in features (`timing:<alpha>` costs, `--emit-stage-times`) never
//!   leak members into default records, and
//! - the plan-executor rewrite of dcs/mdr/combined-N reproduces the
//!   hand-wired flows byte-for-byte.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mm_engine::{Engine, EngineOptions, FlowKind, Job};
use mm_flow::FlowOptions;
use mm_place::CostKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn quick_options(seed: u64) -> FlowOptions {
    let mut o = FlowOptions::default().with_fixed_width(12).with_seed(seed);
    o.placer.inner_num = 1.0;
    o.router.max_iterations = 30;
    o
}

fn jobs() -> Vec<Job> {
    let a = mm_gen::seeded_test_circuit("m0", 5, 12, 9001);
    let b = mm_gen::seeded_test_circuit("m1", 5, 13, 9002);
    let n3: Vec<_> = (0..3usize)
        .map(|m| mm_gen::seeded_test_circuit(&format!("m{m}"), 5, 10, 29_100 + (m as u64) * 1000))
        .collect();
    vec![
        Job {
            name: "golden-dcs".into(),
            circuits: vec![a.clone(), b.clone()],
            flow: FlowKind::Dcs(CostKind::WireLength),
            options: quick_options(0x601d),
        },
        Job {
            name: "golden-mdr".into(),
            circuits: vec![a.clone(), b.clone()],
            flow: FlowKind::Mdr,
            options: quick_options(0x601d),
        },
        Job {
            name: "golden-pair".into(),
            circuits: vec![a.clone(), b.clone()],
            flow: FlowKind::Pair,
            options: quick_options(0x601d),
        },
        Job {
            name: "golden-combined3".into(),
            circuits: n3,
            flow: FlowKind::Pair,
            options: quick_options(0x601d),
        },
        Job {
            name: "golden-timing".into(),
            circuits: vec![a, b],
            flow: FlowKind::Dcs(CostKind::Timing { alpha: 0.5 }),
            options: quick_options(0x601d),
        },
    ]
}

/// Exact record bytes captured from the pre-refactor engine (commit
/// fd634a0, before the stage-graph rewrite). Default jobs must keep
/// emitting them byte-for-byte.
const GOLDEN: [&str; 5] = [
    r#"{"name":"golden-dcs","flow":"dcs","status":"ok","metrics":{"kind":"dcs","grid":4,"channel_width":12,"modes":2,"param_bits":79,"static_on_bits":90,"dcs_cost":{"lut_bits":272,"routing_bits":79},"mdr_cost":{"lut_bits":272,"routing_bits":1896},"speedup":6.176638176638177,"wires":[87,96],"tunable":{"modes":2,"tunable_luts":13,"io_sites":8,"connections":59,"merged_connections":17}}}"#,
    r#"{"name":"golden-mdr","flow":"mdr","status":"ok","metrics":{"kind":"mdr","grid":4,"channel_width":12,"modes":2,"mdr_cost":{"lut_bits":272,"routing_bits":1896},"avg_diff_cost":{"lut_bits":272,"routing_bits":165},"wires":[60,61]}}"#,
    r#"{"name":"golden-pair","flow":"pair","status":"ok","metrics":{"kind":"pair","grid":4,"width_mdr":12,"width_edge":12,"width_wirelength":12,"mdr":{"lut_bits":272,"routing_bits":1896},"diff":{"lut_bits":272,"routing_bits":165},"dcs_edge":{"lut_bits":272,"routing_bits":78},"dcs_wirelength":{"lut_bits":272,"routing_bits":79},"speedup_edge":6.194285714285714,"speedup_wirelength":6.176638176638177,"wires_mdr":60.5,"wires_edge":107,"wires_wirelength":91.5,"tunable":{"modes":2,"tunable_luts":13,"io_sites":8,"connections":59,"merged_connections":17},"mode_luts":[12,13]}}"#,
    r#"{"name":"golden-combined3","flow":"pair","status":"ok","metrics":{"kind":"pair","grid":4,"width_mdr":12,"width_edge":12,"width_wirelength":12,"mdr":{"lut_bits":272,"routing_bits":1896},"diff":{"lut_bits":272,"routing_bits":151},"dcs_edge":{"lut_bits":272,"routing_bits":143},"dcs_wirelength":{"lut_bits":272,"routing_bits":132},"speedup_edge":5.224096385542168,"speedup_wirelength":5.366336633663367,"wires_mdr":50.666666666666664,"wires_edge":88,"wires_wirelength":74,"tunable":{"modes":3,"tunable_luts":11,"io_sites":11,"connections":60,"merged_connections":3},"mode_luts":[10,10,10]}}"#,
    r#"{"name":"golden-timing","flow":"dcs-timing","status":"ok","metrics":{"kind":"dcs","grid":4,"channel_width":12,"modes":2,"param_bits":90,"static_on_bits":77,"dcs_cost":{"lut_bits":272,"routing_bits":90},"mdr_cost":{"lut_bits":272,"routing_bits":1896},"speedup":5.988950276243094,"wires":[80,88],"critical_paths":[28,31],"tunable":{"modes":2,"tunable_luts":13,"io_sites":9,"connections":58,"merged_connections":18}}}"#,
];

/// The pair of `perfbench/tests/probes.rs` at `WidthChoice::Relaxed`:
/// every leg runs the minimum-channel-width search, so these records
/// pin its minima. The doubling ladder probed WL 4✗ 8✓ 6✗ 7✓, edge 4✗
/// 8✓ 6✗ 7✗, mdr0 4✓ 2✗ 3✗ and mdr1 4✗ 8✓ 6✓ 5✓ on them.
fn relaxed_jobs() -> Vec<Job> {
    let a = mm_gen::seeded_test_circuit("a", 6, 40, 11);
    let b = mm_gen::seeded_test_circuit("b", 6, 40, 12);
    let mut options = FlowOptions::default();
    options.placer.inner_num = 1.0;
    [
        ("relaxed-dcs", FlowKind::Dcs(CostKind::WireLength)),
        ("relaxed-dcs-edge", FlowKind::Dcs(CostKind::EdgeMatching)),
        ("relaxed-mdr", FlowKind::Mdr),
        ("relaxed-pair", FlowKind::Pair),
    ]
    .into_iter()
    .map(|(name, flow)| Job {
        name: name.into(),
        circuits: vec![a.clone(), b.clone()],
        flow,
        options,
    })
    .collect()
}

/// Relaxed-width record bytes captured from the doubling-ladder width
/// search (commit 0f72be1). A width search that finds the same minima
/// must keep emitting them byte-for-byte.
const RELAXED_GOLDEN: [&str; 4] = [
    r#"{"name":"relaxed-dcs","flow":"dcs","status":"ok","metrics":{"kind":"dcs","grid":7,"channel_width":9,"modes":2,"param_bits":399,"static_on_bits":378,"dcs_cost":{"lut_bits":833,"routing_bits":399},"mdr_cost":{"lut_bits":833,"routing_bits":4140},"speedup":4.036525974025974,"wires":[448,458],"tunable":{"modes":2,"tunable_luts":41,"io_sites":9,"connections":210,"merged_connections":39}}}"#,
    r#"{"name":"relaxed-dcs-edge","flow":"dcs-edge","status":"ok","metrics":{"kind":"dcs","grid":7,"channel_width":10,"modes":2,"param_bits":431,"static_on_bits":464,"dcs_cost":{"lut_bits":833,"routing_bits":431},"mdr_cost":{"lut_bits":833,"routing_bits":4684},"speedup":4.364715189873418,"wires":[537,573],"tunable":{"modes":2,"tunable_luts":43,"io_sites":10,"connections":196,"merged_connections":53}}}"#,
    r#"{"name":"relaxed-mdr","flow":"mdr","status":"ok","metrics":{"kind":"mdr","grid":7,"channel_width":6,"modes":2,"mdr_cost":{"lut_bits":833,"routing_bits":2760},"avg_diff_cost":{"lut_bits":833,"routing_bits":669},"wires":[284,316]}}"#,
    r#"{"name":"relaxed-pair","flow":"pair","status":"ok","metrics":{"kind":"pair","grid":7,"width_mdr":6,"width_edge":10,"width_wirelength":9,"mdr":{"lut_bits":833,"routing_bits":2760},"diff":{"lut_bits":833,"routing_bits":669},"dcs_edge":{"lut_bits":833,"routing_bits":431},"dcs_wirelength":{"lut_bits":833,"routing_bits":399},"speedup_edge":2.8425632911392404,"speedup_wirelength":2.916396103896104,"wires_mdr":300,"wires_edge":555,"wires_wirelength":453,"tunable":{"modes":2,"tunable_luts":41,"io_sites":9,"connections":210,"merged_connections":39},"mode_luts":[40,40]}}"#,
];

fn run_records(threads: usize) -> Vec<String> {
    let engine = Engine::new(EngineOptions {
        threads,
        cache_dir: None,
        ..Default::default()
    })
    .unwrap();
    let report = engine.run(jobs());
    report.results.iter().map(|r| r.to_json_line()).collect()
}

#[test]
fn default_records_are_byte_identical_to_pre_refactor_goldens() {
    let records = run_records(1);
    assert_eq!(records.len(), GOLDEN.len());
    for ((record, expected), job) in records.iter().zip(GOLDEN).zip(jobs()) {
        assert_eq!(record, expected, "{} record drifted", job.name);
    }
}

#[test]
fn parallel_execution_matches_goldens() {
    let records = run_records(4);
    assert_eq!(records.len(), GOLDEN.len());
    for ((record, expected), job) in records.iter().zip(GOLDEN).zip(jobs()) {
        assert_eq!(
            record, expected,
            "{} record drifted under threads=4",
            job.name
        );
    }
}

#[test]
fn relaxed_width_records_are_byte_identical_to_goldens() {
    let engine = Engine::new(EngineOptions {
        threads: 2,
        cache_dir: None,
        ..Default::default()
    })
    .unwrap();
    let records: Vec<String> = engine
        .run(relaxed_jobs())
        .results
        .iter()
        .map(mm_engine::JobResult::to_json_line)
        .collect();
    assert_eq!(records.len(), RELAXED_GOLDEN.len());
    for ((record, expected), job) in records.iter().zip(RELAXED_GOLDEN).zip(relaxed_jobs()) {
        assert_eq!(record, expected, "{} record drifted", job.name);
    }
}

/// A random small batch: 1–3 jobs over 2–3 seeded modes each, with the
/// flow kind, cost, flow seed, and intra-stage parallelism all drawn
/// from the case seed. Every job stays tiny so a proptest case runs the
/// batch four times in well under a second.
fn random_jobs(seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_jobs = rng.gen_range(1..=3usize);
    (0..n_jobs)
        .map(|j| {
            let modes = rng.gen_range(2..=3usize);
            let circuits: Vec<_> = (0..modes)
                .map(|m| {
                    let luts = rng.gen_range(8..=14usize);
                    mm_gen::seeded_test_circuit(&format!("m{m}"), 5, luts, rng.gen())
                })
                .collect();
            let flow = match rng.gen_range(0..4u8) {
                0 => FlowKind::Dcs(CostKind::WireLength),
                1 => FlowKind::Dcs(CostKind::Timing { alpha: 0.5 }),
                2 => FlowKind::Mdr,
                _ => FlowKind::Pair,
            };
            let mut options = quick_options(rng.gen());
            options.intra_parallelism = rng.gen_range(0..=3usize);
            Job {
                name: format!("prop-{j}"),
                circuits,
                flow,
                options,
            }
        })
        .collect()
}

fn prop_tmp_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mm-record-prop-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn run_lines(jobs: Vec<Job>, threads: usize, cache_dir: Option<PathBuf>) -> Vec<String> {
    let engine = Engine::new(EngineOptions {
        threads,
        cache_dir,
        ..Default::default()
    })
    .unwrap();
    engine
        .run(jobs)
        .results
        .iter()
        .map(mm_engine::JobResult::to_json_line)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scheduling is invisible in record bytes: for a random job mix,
    /// serial/cacheless execution, parallel execution, a cold cached run,
    /// and a warm cached replay all emit identical JSONL lines.
    #[test]
    fn record_bytes_are_invariant_under_scheduling(seed in 0u64..1_000_000) {
        let jobs = random_jobs(seed);
        let baseline = run_lines(jobs.clone(), 1, None);
        let threads = 2 + (seed as usize % 3);
        let parallel = run_lines(jobs.clone(), threads, None);
        prop_assert_eq!(&parallel, &baseline);
        let dir = prop_tmp_dir();
        let cold = run_lines(jobs.clone(), threads, Some(dir.clone()));
        prop_assert_eq!(&cold, &baseline);
        let warm = run_lines(jobs, 1, Some(dir.clone()));
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(&warm, &baseline);
    }
}
