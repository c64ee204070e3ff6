//! Integration tests of the batch engine's three contracts:
//!
//! 1. **Determinism** — parallel execution emits byte-identical result
//!    records to sequential execution under the same seeds.
//! 2. **Cache transparency** — a warm-cache re-run recomputes zero flow
//!    stages and still emits byte-identical records.
//! 3. **Corruption safety** — damaged cache entries are discarded and
//!    recomputed, never believed.

use mm_engine::{Engine, EngineOptions, FlowKind, Job, JobResult};
use mm_flow::FlowOptions;
use mm_netlist::LutCircuit;
use mm_place::CostKind;
use std::path::PathBuf;

/// The repo's shared seeded circuit shape (`mm_gen`), so fixtures match
/// the bench workloads byte-for-byte per seed.
fn random_circuit(name: &str, n_inputs: usize, n_luts: usize, seed: u64) -> LutCircuit {
    mm_gen::seeded_test_circuit(name, n_inputs, n_luts, seed)
}

fn quick_options(seed: u64) -> FlowOptions {
    let mut o = FlowOptions::default().with_fixed_width(12).with_seed(seed);
    o.placer.inner_num = 1.0;
    o.router.max_iterations = 30;
    o
}

/// A suite of `n` small multi-mode problems with distinct circuits and
/// seeds, mixing DCS and MDR flows.
fn suite(n: usize) -> Vec<Job> {
    (0..n)
        .map(|i| {
            let a = random_circuit("m0", 5, 12 + i % 4, 1000 + i as u64);
            let b = random_circuit("m1", 5, 13 + (i / 2) % 3, 2000 + i as u64);
            Job {
                name: format!("p{i}"),
                circuits: vec![a, b],
                flow: if i % 3 == 2 {
                    FlowKind::Mdr
                } else {
                    FlowKind::Dcs(CostKind::WireLength)
                },
                options: quick_options(0x5eed + i as u64),
            }
        })
        .collect()
}

fn record_stream(results: &[JobResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&r.to_json_line());
        out.push('\n');
    }
    out
}

fn tmp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mm_engine_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn parallel_batch_is_byte_identical_to_sequential() {
    let serial_engine = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: None,
        ..Default::default()
    })
    .unwrap();
    let parallel_engine = Engine::new(EngineOptions {
        threads: 4,
        cache_dir: None,
        ..Default::default()
    })
    .unwrap();

    let mut streamed = String::new();
    let serial = serial_engine.run(suite(8));
    let parallel = parallel_engine.run_streamed(suite(8), |r| {
        streamed.push_str(&r.to_json_line());
        streamed.push('\n');
    });

    assert_eq!(serial.results.len(), 8);
    assert!(serial.results.iter().all(|r| r.outcome.is_ok()));
    let serial_bytes = record_stream(&serial.results);
    let parallel_bytes = record_stream(&parallel.results);
    assert_eq!(serial_bytes, parallel_bytes, "parallel == sequential");
    assert_eq!(streamed, parallel_bytes, "stream order == job order");
    assert_eq!(parallel.threads, 4);
    assert_eq!(parallel.stats.results_from_cache, 0, "no cache configured");
}

#[test]
fn warm_cache_rerun_recomputes_nothing_and_matches() {
    let dir = tmp_cache("warm");
    let make = || {
        Engine::new(EngineOptions {
            threads: 2,
            cache_dir: Some(dir.clone()),
            ..Default::default()
        })
        .unwrap()
    };

    let cold = make().run(suite(8));
    assert!(cold.results.iter().all(|r| r.outcome.is_ok()));
    assert_eq!(cold.stats.results_from_cache, 0);
    assert!(
        cold.stats.stages_recomputed >= 8,
        "cold run computes stages"
    );

    // Fresh engine, same cache directory: everything must come from disk.
    let warm = make().run(suite(8));
    assert_eq!(warm.stats.results_from_cache, 8, "all results cached");
    assert_eq!(
        warm.stats.stages_recomputed, 0,
        "zero flow-stage recomputation"
    );
    assert_eq!(
        record_stream(&cold.results),
        record_stream(&warm.results),
        "cache transparency: identical records"
    );
    let summary = warm.summary_json();
    assert!(summary.contains("\"stages_recomputed\":0"), "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn placement_stage_is_shared_across_router_variants() {
    let dir = tmp_cache("share");
    let engine = Engine::new(EngineOptions {
        threads: 1, // sequential so job 0 seeds the cache for job 1
        cache_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap();

    let a = random_circuit("m0", 5, 14, 71);
    let b = random_circuit("m1", 5, 15, 72);
    let mut variant = quick_options(9);
    variant.router.max_iterations = 31; // different result key, same placement key
    let jobs = vec![
        Job {
            name: "base".into(),
            circuits: vec![a.clone(), b.clone()],
            flow: FlowKind::Dcs(CostKind::WireLength),
            options: quick_options(9),
        },
        Job {
            name: "router-variant".into(),
            circuits: vec![a, b],
            flow: FlowKind::Dcs(CostKind::WireLength),
            options: variant,
        },
    ];
    let report = engine.run(jobs);
    assert!(report.results.iter().all(|r| r.outcome.is_ok()));
    assert_eq!(report.stats.results_from_cache, 0);
    assert_eq!(
        report.stats.placements_from_cache, 1,
        "the second job reuses the first job's annealing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pair_jobs_share_placement_stages_with_plain_jobs() {
    let dir = tmp_cache("pairshare");
    let engine = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap();

    let a = random_circuit("m0", 5, 12, 81);
    let b = random_circuit("m1", 5, 13, 82);
    let job = |name: &str, flow: FlowKind, max_iterations: usize| {
        let mut options = quick_options(7);
        // Vary only the router so result keys miss while placement keys
        // (which exclude router options) still match.
        options.router.max_iterations = max_iterations;
        Job {
            name: name.into(),
            circuits: vec![a.clone(), b.clone()],
            flow,
            options,
        }
    };

    // Warm the placement stages with *plain* jobs.
    let warm = engine.run(vec![
        job("dcs", FlowKind::Dcs(CostKind::WireLength), 30),
        job("mdr", FlowKind::Mdr, 30),
    ]);
    assert!(warm.results.iter().all(|r| r.outcome.is_ok()));

    // A pair job on the same mode group shares the MDR and DCS-wl legs;
    // the edge-matching leg, the three leg summaries and the combine
    // stage are computed.
    let pair = engine.run(vec![job("pair", FlowKind::Pair, 29)]);
    let info = pair.results[0].cache;
    assert!(pair.results[0].outcome.is_ok());
    assert!(info.placement_hit, "pair reuses plain-job annealing");
    assert_eq!(info.placement_hits, 2, "mdr + dcs-wl legs from cache");
    assert_eq!(
        info.stages_recomputed, 5,
        "edge leg + three leg summaries + combine"
    );

    // A second pair run (different router again) now hits all three legs.
    let pair2 = engine.run(vec![job("pair2", FlowKind::Pair, 28)]);
    let info2 = pair2.results[0].cache;
    assert_eq!(info2.placement_hits, 3, "all legs cached");
    assert_eq!(
        info2.stages_recomputed, 4,
        "only the three leg summaries + combine recomputed"
    );

    // And the sharing works in reverse: a plain dcs-edge job reuses the
    // edge leg the pair job stored.
    let edge = engine.run(vec![job("edge", FlowKind::Dcs(CostKind::EdgeMatching), 27)]);
    assert!(edge.results[0].outcome.is_ok());
    assert!(
        edge.results[0].cache.placement_hit,
        "plain job reuses pair-job annealing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The PR 2 `placement_hits` contract at N = 3: a combined job's
/// single-mode legs use the same placement keys as plain `dcs`/`mdr`
/// jobs on the same 3-mode list (sharing in both directions), and a
/// warm re-run of the combined job recomputes zero stages.
#[test]
fn three_mode_combined_jobs_share_stages_and_rerun_warm() {
    let dir = tmp_cache("n3share");
    let engine = Engine::new(EngineOptions {
        threads: 1, // sequential so earlier jobs seed the cache for later ones
        cache_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap();

    // Shapes matter here: the edge-matching leg of the combined
    // comparison can be structurally unroutable on very dissimilar
    // random circuits; this trio routes at the fixed quick width.
    let circuits = vec![
        random_circuit("m0", 5, 8, 181),
        random_circuit("m1", 5, 9, 182),
        random_circuit("m2", 5, 8, 183),
    ];
    let job = |name: &str, flow: FlowKind, max_iterations: usize| {
        let mut options = quick_options(7);
        // Vary only the router so result keys miss while placement keys
        // (which exclude router options) still match.
        options.router.max_iterations = max_iterations;
        Job {
            name: name.into(),
            circuits: circuits.clone(),
            flow,
            options,
        }
    };

    // Warm the placement stages with *plain* 3-mode jobs.
    let warm = engine.run(vec![
        job("dcs", FlowKind::Dcs(CostKind::WireLength), 30),
        job("mdr", FlowKind::Mdr, 30),
    ]);
    assert!(warm.results.iter().all(|r| r.outcome.is_ok()));

    // A combined job on the same 3-mode list shares the MDR and DCS-wl
    // legs; the edge-matching leg, the three leg summaries and the
    // combine stage compute.
    let combined = engine.run(vec![job("combined", FlowKind::Pair, 29)]);
    let info = combined.results[0].cache;
    assert!(combined.results[0].outcome.is_ok());
    assert!(info.placement_hit, "combined reuses plain-job annealing");
    assert_eq!(info.placement_hits, 2, "mdr + dcs-wl legs from cache");
    assert_eq!(
        info.stages_recomputed, 5,
        "edge leg + three leg summaries + combine"
    );

    // A warm re-run of the *same* combined job recomputes zero stages.
    let rerun = engine.run(vec![job("combined", FlowKind::Pair, 29)]);
    let rerun_info = rerun.results[0].cache;
    assert!(rerun_info.result_hit, "combined result cached");
    assert_eq!(rerun_info.stages_recomputed, 0, "warm N-mode re-run");
    assert_eq!(
        rerun.results[0].to_json_line(),
        combined.results[0].to_json_line(),
        "cache transparency at N = 3"
    );

    // And the sharing works in reverse: a plain 3-mode dcs-edge job
    // reuses the edge leg the combined job stored.
    let edge = engine.run(vec![job("edge", FlowKind::Dcs(CostKind::EdgeMatching), 27)]);
    assert!(edge.results[0].outcome.is_ok());
    assert!(
        edge.results[0].cache.placement_hit,
        "plain 3-mode job reuses combined-job annealing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// With identical options, a `pair` job's three leg summaries are the
/// roots of plain `mdr`, `dcs-edge` and `dcs` jobs on the same mode list:
/// after those ran, only the combine fold computes, and its record is
/// byte-identical to a cacheless run.
#[test]
fn pair_job_reuses_plain_job_route_results() {
    let dir = tmp_cache("pairroutes");
    let engine = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap();
    let circuits = vec![
        random_circuit("m0", 5, 12, 91),
        random_circuit("m1", 5, 13, 92),
    ];
    let job = |name: &str, flow: FlowKind| Job {
        name: name.into(),
        circuits: circuits.clone(),
        flow,
        options: quick_options(17),
    };

    let plain = engine.run(vec![
        job("dcs", FlowKind::Dcs(CostKind::WireLength)),
        job("edge", FlowKind::Dcs(CostKind::EdgeMatching)),
        job("mdr", FlowKind::Mdr),
    ]);
    assert!(plain.results.iter().all(|r| r.outcome.is_ok()));

    let pair = engine.run(vec![job("pair", FlowKind::Pair)]);
    let result = &pair.results[0];
    let stages: Vec<(&str, &str)> = result
        .stages
        .iter()
        .map(|s| (s.name.as_str(), s.cache.as_str()))
        .collect();
    assert_eq!(
        stages,
        vec![
            ("mdr-summary", "hit"),
            ("dcs-summary-edge", "hit"),
            ("dcs-summary-wl", "hit"),
            ("combine", "miss"),
        ]
    );
    assert_eq!(result.cache.stages_recomputed, 1, "only the combine fold");
    assert!(!result.cache.result_hit, "the pair root itself missed");
    assert_eq!(result.cache.placement_hits, 0, "no leg was re-placed");

    let cacheless = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: None,
        ..Default::default()
    })
    .unwrap()
    .run(vec![job("pair", FlowKind::Pair)]);
    assert_eq!(
        result.to_json_line(),
        cacheless.results[0].to_json_line(),
        "folded record == cacheless record"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The reverse direction: a plain `dcs-edge` job after a `pair` job on a
/// fresh cache finds its whole result among the pair's leg summaries.
#[test]
fn plain_job_reuses_pair_job_route_result() {
    let dir = tmp_cache("pairroutes-rev");
    let engine = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap();
    let circuits = vec![
        random_circuit("m0", 5, 12, 93),
        random_circuit("m1", 5, 13, 94),
    ];
    let job = |name: &str, flow: FlowKind| Job {
        name: name.into(),
        circuits: circuits.clone(),
        flow,
        options: quick_options(19),
    };

    let pair = engine.run(vec![job("pair", FlowKind::Pair)]);
    assert!(pair.results[0].outcome.is_ok());
    let edge = engine.run(vec![job("edge", FlowKind::Dcs(CostKind::EdgeMatching))]);
    let info = edge.results[0].cache;
    assert!(edge.results[0].outcome.is_ok());
    assert!(info.result_hit, "the pair stored the dcs-edge summary");
    assert_eq!(info.stages_recomputed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 3-mode timing job records one finite critical path per mode, and
/// those numbers are bit-identical to what mm-sta reports on the same
/// combined result via `DcsResult::critical_paths`. Default-cost records on
/// the same circuits carry no `critical_paths` field at all.
#[test]
fn three_mode_timing_jobs_record_per_mode_critical_paths() {
    let engine = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: None,
        ..Default::default()
    })
    .unwrap();
    let circuits = vec![
        random_circuit("m0", 5, 10, 611),
        random_circuit("m1", 5, 11, 612),
        random_circuit("m2", 5, 9, 613),
    ];
    let job = |name: &str, flow: FlowKind| Job {
        name: name.into(),
        circuits: circuits.clone(),
        flow,
        options: quick_options(23),
    };
    let report = engine.run(vec![
        job("wl", FlowKind::Dcs(CostKind::WireLength)),
        job("t", FlowKind::Dcs(CostKind::Timing { alpha: 0.6 })),
    ]);
    let lines: Vec<String> = report.results.iter().map(JobResult::to_json_line).collect();
    assert!(
        !lines[0].contains("critical_paths"),
        "default records must stay byte-identical"
    );
    assert!(lines[1].contains("\"critical_paths\""));

    let mm_engine::JobOutcome::Dcs(summary) = report.results[1].outcome.as_ref().unwrap() else {
        panic!("dcs job must produce a dcs summary");
    };
    let cps = summary
        .critical_paths
        .clone()
        .expect("timing jobs record critical paths");
    assert_eq!(cps.len(), 3, "one critical path per mode");
    assert!(cps.iter().all(|c| c.is_finite() && *c > 0.0), "{cps:?}");

    let input = mm_flow::MultiModeInput::new(circuits).unwrap();
    let result = mm_flow::DcsFlow::new(quick_options(23))
        .with_cost(CostKind::Timing { alpha: 0.6 })
        .run(&input)
        .unwrap();
    let expected = result.critical_paths(input.circuits()).unwrap();
    assert_eq!(cps, expected, "record matches routed STA bit-for-bit");
}

/// `run_combined_n` at N = 2 streams records byte-identical to the
/// historical pair flow, across several seeded circuits (the engine-level
/// half of the parity campaign; the flow-level property test lives in
/// the root facade's test suite).
#[test]
fn combined_n2_records_match_pair_records() {
    for seed in [11u64, 12, 13] {
        let circuits = vec![
            random_circuit("m0", 5, 12 + seed as usize % 3, 400 + seed),
            random_circuit("m1", 5, 13 + seed as usize % 2, 500 + seed),
        ];
        let options = quick_options(seed);
        let input = mm_flow::MultiModeInput::new(circuits.clone()).unwrap();
        let via_pair = mm_flow::run_pair(&input, &options, "p").unwrap();
        let via_n = mm_flow::run_combined_n(&circuits, &options, "p").unwrap();
        assert_eq!(via_pair, via_n, "seed {seed}");
        assert_eq!(
            mm_engine::JobOutcome::Pair(via_pair).to_value().to_json(),
            mm_engine::JobOutcome::Pair(via_n).to_value().to_json(),
            "record bytes, seed {seed}"
        );
    }
}

#[test]
fn corrupted_cache_entries_are_recomputed_not_believed() {
    let dir = tmp_cache("corrupt");
    let make = || {
        Engine::new(EngineOptions {
            threads: 2,
            cache_dir: Some(dir.clone()),
            ..Default::default()
        })
        .unwrap()
    };
    let cold = make().run(suite(4));
    let reference = record_stream(&cold.results);

    // Vandalize every cached entry: truncations and garbage.
    let mut damaged = 0;
    for entry in walk_json_files(&dir) {
        let text = std::fs::read_to_string(&entry).unwrap();
        let new = if damaged % 2 == 0 {
            text[..text.len() / 3].to_string()
        } else {
            "{\"key\":\"not-the-right-key\",\"stage\":\"result\",\"payload\":{}}".to_string()
        };
        std::fs::write(&entry, new).unwrap();
        damaged += 1;
    }
    assert!(damaged >= 4, "cache had entries to damage");

    let rerun = make().run(suite(4));
    assert_eq!(rerun.stats.results_from_cache, 0, "nothing trusted");
    assert!(rerun.cache.corrupt >= 4, "corruption detected and counted");
    assert_eq!(
        record_stream(&rerun.results),
        reference,
        "recomputed results identical"
    );

    // Third run: the repaired cache works again.
    let repaired = make().run(suite(4));
    assert_eq!(repaired.stats.results_from_cache, 4);
    assert_eq!(repaired.stats.stages_recomputed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_jobs_are_reported_not_cached_and_deterministic() {
    let dir = tmp_cache("fail");
    let make = || {
        Engine::new(EngineOptions {
            threads: 2,
            cache_dir: Some(dir.clone()),
            ..Default::default()
        })
        .unwrap()
    };
    // One impossible job (unroutable width cap) among good ones.
    let mut jobs = suite(3);
    let mut impossible = quick_options(5);
    impossible.width = mm_flow::WidthChoice::Fixed(1);
    impossible.max_width = 1;
    impossible.router.max_iterations = 3;
    jobs.push(Job {
        name: "impossible".into(),
        circuits: vec![
            random_circuit("m0", 5, 16, 301),
            random_circuit("m1", 5, 16, 302),
        ],
        flow: FlowKind::Dcs(CostKind::WireLength),
        options: impossible,
    });

    let first = make().run(jobs.clone());
    assert_eq!(first.stats.ok, 3);
    assert_eq!(first.stats.failed, 1);
    // The batch finished: every job has a record, and exactly the
    // infeasible one is a structured error (stage + message), streamed
    // in place.
    assert_eq!(first.results.len(), 4);
    for r in &first.results[..3] {
        assert!(r.outcome.is_ok(), "{}: {:?}", r.name, r.outcome);
    }
    let err = first.results[3].outcome.as_ref().unwrap_err();
    assert_eq!(err.stage, "route", "{err}");
    let line = first.results[3].to_json_line();
    assert!(line.contains("\"status\":\"error\""), "{line}");
    assert!(line.contains("\"stage\":\"route\""), "{line}");

    // Cache counters stay consistent around the failure: the summary
    // numbers equal the sum of the per-job provenance records, and the
    // failed job still accounts the placement stage it computed.
    let summed: usize = first
        .results
        .iter()
        .map(|r| r.cache.stages_recomputed)
        .sum();
    assert_eq!(first.stats.stages_recomputed, summed);
    assert!(
        first.results[3].cache.stages_recomputed >= 1,
        "the doomed job annealed before routing failed"
    );

    let second = make().run(jobs);
    assert_eq!(
        second.stats.results_from_cache, 3,
        "failures are not cached; successes are"
    );
    assert!(
        second.results[3].cache.placement_hit,
        "the failed job's placement stage was cached and reused"
    );
    assert_eq!(
        record_stream(&first.results),
        record_stream(&second.results)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancellation_fails_pending_jobs_fast() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let engine = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: None,
        ..Default::default()
    })
    .unwrap();
    let cancel = AtomicBool::new(false);
    let t0 = std::time::Instant::now();
    // Cancel from the sink after the first result — the remaining jobs
    // must fail fast instead of running their flows.
    let report = engine.run_streamed_cancellable(suite(6), Some(&cancel), |_r| {
        cancel.store(true, Ordering::Relaxed);
    });
    assert!(report.results[0].outcome.is_ok(), "in-flight job finished");
    for r in &report.results[1..] {
        let err = r.outcome.as_ref().unwrap_err();
        assert_eq!(err.stage, "engine", "{err}");
        assert!(err.message.contains("cancelled"), "{err}");
    }
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(30),
        "cancelled jobs must not run their flows"
    );
}

fn walk_json_files(root: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "json") {
                out.push(path);
            }
        }
    }
    out
}
