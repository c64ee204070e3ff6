//! The N-mode combined-implementation campaign, tier-1 visible:
//!
//! 1. A 3-mode problem runs end-to-end through `run_combined_n` *and*
//!    through the batch engine (`flow: combined`), with coherent metrics
//!    and a well-formed JSONL record.
//! 2. **Parity property**: `run_combined_n` over two modes is
//!    byte-identical to the historical `run_pair` — metrics (widths,
//!    costs, wire fingerprints) and JSONL record bytes — across seeded
//!    circuits.

use multimode::engine::{Engine, EngineOptions, FlowKind, Job, JobOutcome};
use multimode::flow::{run_combined_n, run_pair, FlowOptions, MultiModeInput};
use multimode::netlist::LutCircuit;
use proptest::prelude::*;

/// The repo's shared seeded circuit shape (`mm_gen`).
fn random_circuit(name: &str, n_luts: usize, seed: u64) -> LutCircuit {
    multimode::gen::seeded_test_circuit(name, 5, n_luts, seed)
}

fn quick_options(seed: u64) -> FlowOptions {
    let mut o = FlowOptions::default().with_fixed_width(12).with_seed(seed);
    o.placer.inner_num = 1.0;
    o.router.max_iterations = 30;
    o
}

#[test]
fn three_mode_combined_flow_end_to_end() {
    let circuits = vec![
        random_circuit("m0", 10, 7101),
        random_circuit("m1", 11, 7102),
        random_circuit("m2", 12, 7103),
    ];
    let options = quick_options(0x31);
    let metrics = run_combined_n(&circuits, &options, "three").unwrap();
    assert_eq!(metrics.mode_luts.len(), 3);
    assert_eq!(metrics.tunable_stats.modes, 3);
    assert!(metrics.wires_mdr > 0.0 && metrics.wires_wirelength > 0.0);
    // The diff rewrite (averaged over the 6 ordered mode pairs) beats
    // rewriting the whole region; DCS beats both on routing bits.
    assert!(metrics.diff.routing_bits < metrics.mdr.routing_bits);
    assert!(metrics.dcs_wirelength.routing_bits < metrics.mdr.routing_bits);

    // The same problem through the batch engine, spelled `combined`.
    let flow = FlowKind::parse("combined", None).unwrap();
    assert_eq!(flow.name(), "pair", "record identity stays stable");
    let engine = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: None,
        ..Default::default()
    })
    .unwrap();
    let report = engine.run(vec![Job {
        name: "three".into(),
        circuits,
        flow,
        options,
    }]);
    let result = &report.results[0];
    match result.outcome.as_ref().unwrap() {
        JobOutcome::Pair(m) => assert_eq!(m, &metrics, "engine == direct flow"),
        other => panic!("expected a combined outcome, got {other:?}"),
    }
    let line = result.to_json_line();
    assert!(line.contains(r#""flow":"pair""#), "{line}");
    assert!(line.contains(r#""status":"ok""#), "{line}");
    assert!(multimode::engine::json::parse(&line).is_ok(), "{line}");
}

#[test]
fn four_mode_combined_flow_runs() {
    let circuits: Vec<LutCircuit> = (0..4)
        .map(|m| random_circuit(&format!("m{m}"), 8 + m % 2, 7300 + m as u64))
        .collect();
    // Four merged modes congest a pinned narrow channel (the
    // edge-matching leg especially); let the flow size the width the
    // paper's way (minimum + 20%) instead.
    let mut options = FlowOptions::default().with_seed(0x41);
    options.placer.inner_num = 1.0;
    let metrics = run_combined_n(&circuits, &options, "four").unwrap();
    assert_eq!(metrics.mode_luts.len(), 4);
    assert_eq!(metrics.tunable_stats.modes, 4);
    assert!(metrics.diff.routing_bits < metrics.mdr.routing_bits);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `run_combined_n` with N = 2 is byte-identical to `run_pair`:
    /// same metrics (widths, routing fingerprints via the wire counts)
    /// and the same JSONL record bytes.
    #[test]
    fn combined_n2_is_byte_identical_to_pair(case in 0u64..1000) {
        let circuits = vec![
            random_circuit("m0", 10 + (case % 5) as usize, 6000 + case),
            random_circuit("m1", 11 + (case % 3) as usize, 6500 + case),
        ];
        let options = quick_options(0x5eed ^ case);
        let input = MultiModeInput::new(circuits.clone()).unwrap();

        // Full-flow parity: metrics and record bytes.
        let pair = run_pair(&input, &options, "case").unwrap();
        let combined = run_combined_n(&circuits, &options, "case").unwrap();
        prop_assert_eq!(&pair, &combined);
        prop_assert_eq!(
            JobOutcome::Pair(pair).to_value().to_json(),
            JobOutcome::Pair(combined).to_value().to_json()
        );
    }
}
