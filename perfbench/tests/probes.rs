//! The width-probe counting rule the trace relies on: the search calls its
//! net closure once per probe, and a probe failed exactly when its width
//! is below the minimum the search returns. Checked against direct
//! `Router::route` calls at every probed width, so a search change that
//! breaks the rule fails here.

use mm_arch::RoutingGraph;
use mm_flow::{FlowOptions, MultiModeInput, TunableCircuit};
use mm_perfbench::trace::search_width;
use mm_route::{Router, RouterOptions};

#[test]
fn failed_probes_are_exactly_the_widths_below_the_minimum() {
    let circuits = vec![
        mm_gen::seeded_test_circuit("a", 6, 40, 11),
        mm_gen::seeded_test_circuit("b", 6, 40, 12),
    ];
    let input = MultiModeInput::new(circuits.clone()).unwrap();
    let mut options = FlowOptions::default();
    options.placer.inner_num = 1.0;
    let base = options.base_arch(&input);
    let (placement, _) = mm_place::place_combined(&circuits, &base, &options.placer).unwrap();
    let tunable = TunableCircuit::from_placement(&circuits, &placement, &base).unwrap();
    let router = RouterOptions {
        mode_count: 2,
        ..options.router
    };

    let log = search_width(&base, &router, options.max_width, |rrg| {
        tunable.route_nets(rrg)
    });
    let min = log.min_width.expect("the circuits route");
    assert!(
        log.probes.len() >= 3,
        "doubling plus bisection: {:?}",
        log.probes
    );
    assert!(
        log.probes.iter().any(|p| p.failed),
        "some probe lies below the minimum"
    );
    assert!(log.probes.iter().any(|p| p.width == min && !p.failed));
    for probe in &log.probes {
        let rrg = RoutingGraph::build(&base.with_channel_width(probe.width));
        let routed = Router::new(&rrg, router)
            .route(&tunable.route_nets(&rrg))
            .success;
        assert_eq!(
            routed, !probe.failed,
            "width {} (minimum {min})",
            probe.width
        );
    }
}
