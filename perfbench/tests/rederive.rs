//! The re-derivation guard: a traced job re-executed through the layer
//! calls must rebuild the engine's record byte for byte — checked on one
//! small dcs, one mdr and one pair job — and the guard must report a
//! record that differs.

use mm_engine::{Engine, EngineOptions, FlowKind, Job};
use mm_flow::WidthChoice;
use mm_perfbench::batch::rederive_checked;
use mm_perfbench::trace::{rederive, LayerTimes};
use mm_perfbench::workload::job_options;
use mm_place::CostKind;
use std::time::Instant;

fn job(flow: FlowKind, seed: u64) -> Job {
    Job {
        name: format!("small-{}", flow.name()),
        circuits: vec![
            mm_gen::seeded_test_circuit("m0", 6, 24, 21),
            mm_gen::seeded_test_circuit("m1", 6, 26, 22),
        ],
        flow,
        options: job_options(seed, WidthChoice::Relaxed),
    }
}

fn jobs() -> Vec<Job> {
    vec![
        job(FlowKind::Dcs(CostKind::WireLength), 5),
        job(FlowKind::Mdr, 6),
        job(FlowKind::Pair, 7),
    ]
}

fn engine_records(jobs: &[Job]) -> Vec<Option<String>> {
    let engine = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: None,
        result_memo: 0,
    })
    .unwrap();
    jobs.iter()
        .map(|j| Some(engine.execute_job(j).to_json_line()))
        .collect()
}

#[test]
fn dcs_mdr_and_pair_records_are_rebuilt_byte_for_byte() {
    let jobs = jobs();
    let records = engine_records(&jobs);
    for record in records.iter().flatten() {
        assert!(record.contains("\"status\":\"ok\""), "{record}");
    }
    let (traces, problems) = rederive_checked(&jobs, &records, 2);
    assert!(problems.is_empty(), "{problems:#?}");
    for (job, trace) in jobs.iter().zip(&traces) {
        assert!(
            trace.counters.probes > 0,
            "{}: relaxed width searches",
            job.name
        );
        assert!(trace.counters.route_calls > 0, "{}", job.name);
    }
    let times = LayerTimes::from_traces(&traces);
    assert!(
        times.coverage() > 0.9 && times.coverage() <= 1.0 + 1e-9,
        "{}",
        times.coverage()
    );
}

#[test]
fn the_guard_reports_a_record_that_differs() {
    let jobs = jobs();
    let mut records = engine_records(&jobs);
    // The mdr job's record from another placer seed.
    records[1] = engine_records(&[job(FlowKind::Mdr, 99)]).pop().unwrap();
    let (_, problems) = rederive_checked(&jobs, &records, 2);
    assert_eq!(problems.len(), 1, "{problems:#?}");
    assert!(problems[0].starts_with("small-mdr"), "{}", problems[0]);
}

#[test]
fn counts_repeat_exactly() {
    let job = job(FlowKind::Pair, 3);
    let (a, line_a) = rederive(&job, 0, Instant::now());
    let (b, line_b) = rederive(&job, 0, Instant::now());
    assert_eq!(line_a, line_b);
    assert_eq!(a.counters.probes, b.counters.probes);
    assert_eq!(a.counters.probes_failed, b.counters.probes_failed);
    assert_eq!(a.counters.route_iterations, b.counters.route_iterations);
    assert_eq!(a.counters.place_moves, b.counters.place_moves);
    assert_eq!(a.counters.rrg_builds, b.counters.rrg_builds);
}
