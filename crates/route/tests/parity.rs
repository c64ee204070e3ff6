//! Differential tests: the optimized scratch-arena router must be
//! byte-identical to the naive reference formulation, and bounding-box
//! pruning must never cost routability.

use mm_arch::{Architecture, RoutingGraph, Site};
use mm_boolexpr::ModeSet;
use mm_route::reference::route_reference;
use mm_route::{RouteNet, RouteSink, Router, RouterOptions, Routing, REROUTE_ALL_ITERS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::RangeInclusive;

/// A generated multi-mode routing problem.
struct Suite {
    rrg: RoutingGraph,
    nets: Vec<RouteNet>,
    modes: usize,
}

/// Deterministically generates a random multi-mode suite: a small fabric
/// plus nets with random terminals and random non-empty activation sets.
fn random_suite(seed: u64) -> Suite {
    random_suite_with_widths(seed, 2..=4)
}

/// [`random_suite`] with the channel width drawn from `widths`.
fn random_suite_with_widths(seed: u64, widths: RangeInclusive<usize>) -> Suite {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4..=7usize);
    let w = rng.gen_range(widths);
    let modes = rng.gen_range(1..=3usize);
    let rrg = RoutingGraph::build(&Architecture::new(4, n, w));
    let net_count = rng.gen_range(3..=9usize);
    let mut nets = Vec::with_capacity(net_count);
    let site =
        |rng: &mut StdRng| Site::new(rng.gen_range(1..=n) as u16, rng.gen_range(1..=n) as u16, 0);
    let activation = |rng: &mut StdRng| {
        let mut act = ModeSet::single(rng.gen_range(0..modes));
        for m in 0..modes {
            if rng.gen_bool(0.3) {
                act.insert(m);
            }
        }
        act
    };
    for i in 0..net_count {
        let source = rrg.logic_source(site(&mut rng));
        let sink_count = rng.gen_range(1..=3usize);
        let sinks = (0..sink_count)
            .map(|_| RouteSink {
                node: rrg.logic_sink(site(&mut rng)),
                activation: activation(&mut rng),
            })
            .collect();
        nets.push(RouteNet {
            name: format!("n{i}"),
            source,
            sinks,
        });
    }
    Suite { rrg, nets, modes }
}

/// A high-fanout (broadcast) suite: one net fanning out from a central
/// driver to many sinks spread over the fabric, plus a few background
/// nets — the workload shape the Steiner decomposition targets.
fn broadcast_suite(seed: u64) -> Suite {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(6..=9usize);
    let w = rng.gen_range(4..=6usize);
    let modes = rng.gen_range(1..=2usize);
    let rrg = RoutingGraph::build(&Architecture::new(4, n, w));
    let site =
        |rng: &mut StdRng| Site::new(rng.gen_range(1..=n) as u16, rng.gen_range(1..=n) as u16, 0);
    let mut nets = Vec::new();
    let src_site = site(&mut rng);
    let fanout = rng.gen_range(8..=16usize);
    let act = ModeSet::single(rng.gen_range(0..modes));
    let sinks = (0..fanout)
        .map(|_| RouteSink {
            node: rrg.logic_sink(site(&mut rng)),
            activation: act,
        })
        .collect();
    nets.push(RouteNet {
        name: "bcast".into(),
        source: rrg.logic_source(src_site),
        sinks,
    });
    for i in 0..rng.gen_range(0..=3usize) {
        let source = rrg.logic_source(site(&mut rng));
        let sinks = (0..rng.gen_range(1..=2usize))
            .map(|_| RouteSink {
                node: rrg.logic_sink(site(&mut rng)),
                activation: ModeSet::single(rng.gen_range(0..modes)),
            })
            .collect();
        nets.push(RouteNet {
            name: format!("bg{i}"),
            source,
            sinks,
        });
    }
    Suite { rrg, nets, modes }
}

/// A suite engineered for sink-order ties: every net's sinks sit at
/// equal Manhattan distance from the source (mirrored coordinates), so
/// the farthest-first order is decided purely by the index tie-break.
fn equidistant_suite(seed: u64) -> Suite {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(5..=7usize);
    let w = rng.gen_range(2..=4usize);
    let rrg = RoutingGraph::build(&Architecture::new(4, n, w));
    let net_count = rng.gen_range(2..=5usize);
    let mut nets = Vec::new();
    for i in 0..net_count {
        let cx = rng.gen_range(2..n) as u16;
        let cy = rng.gen_range(2..n) as u16;
        let dmax = (cx - 1)
            .min(cy - 1)
            .min(n as u16 - cx)
            .min(n as u16 - cy)
            .max(1);
        let d = rng.gen_range(1..=dmax);
        // Four sinks at identical distance `2·d` (diagonal mirrors), in
        // shuffled insertion order so ties actually exercise the sort.
        let mut corners = vec![
            (cx + d, cy + d),
            (cx - d, cy - d),
            (cx + d, cy - d),
            (cx - d, cy + d),
        ];
        for j in (1..corners.len()).rev() {
            corners.swap(j, rng.gen_range(0..=j));
        }
        let sinks = corners
            .into_iter()
            .map(|(x, y)| RouteSink {
                node: rrg.logic_sink(Site::new(x, y, 0)),
                activation: ModeSet::single(0),
            })
            .collect();
        nets.push(RouteNet {
            name: format!("eq{i}"),
            source: rrg.logic_source(Site::new(cx, cy, 0)),
            sinks,
        });
    }
    Suite {
        rrg,
        nets,
        modes: 1,
    }
}

/// Asserts two routings are byte-identical: same iteration count, same
/// status, and the same trees node for node.
fn assert_identical(a: &Routing, b: &Routing) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.iterations, b.iterations);
    prop_assert_eq!(a.success, b.success);
    prop_assert_eq!(a.overused_nodes, b.overused_nodes);
    prop_assert_eq!(a.unrouted_sinks, b.unrouted_sinks);
    prop_assert_eq!(a.nets.len(), b.nets.len());
    for (i, (x, y)) in a.nets.iter().zip(&b.nets).enumerate() {
        prop_assert_eq!(&x.sink_pos, &y.sink_pos);
        prop_assert!(x.tree.len() == y.tree.len(), "net {} tree size", i);
        for (j, (s, t)) in x.tree.iter().zip(&y.tree).enumerate() {
            prop_assert!(
                s.node == t.node
                    && s.parent == t.parent
                    && s.switch == t.switch
                    && s.activation == t.activation,
                "net {} tree node {} differs: {:?} vs {:?}",
                i,
                j,
                s,
                t
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The optimized router (scratch arena, stamped tree positions,
    /// touched-node accounting, bounding boxes) produces byte-identical
    /// results to the naive reference implementation.
    #[test]
    fn optimized_router_matches_reference(seed in 0u64..1_000_000) {
        let suite = random_suite(seed);
        let options = RouterOptions::for_modes(suite.modes);
        let optimized = Router::new(&suite.rrg, options).route(&suite.nets);
        let reference = route_reference(&suite.rrg, options, &suite.nets);
        assert_identical(&optimized, &reference)?;
    }

    /// Parity holds on hopeless instances too: at channel width 1–2
    /// most random suites cannot route, and both implementations stop
    /// them at the same iteration (the routability predictor) with the
    /// same trees.
    #[test]
    fn parity_on_hopeless_instances(seed in 0u64..1_000_000) {
        let suite = random_suite_with_widths(seed.wrapping_mul(29).wrapping_add(41), 1..=2);
        let options = RouterOptions {
            max_iterations: 40,
            ..RouterOptions::for_modes(suite.modes)
        };
        let optimized = Router::new(&suite.rrg, options).route(&suite.nets);
        let reference = route_reference(&suite.rrg, options, &suite.nets);
        assert_identical(&optimized, &reference)?;
    }

    /// Parity also holds with bounding boxes disabled (the pre-
    /// optimization full-fabric exploration).
    #[test]
    fn parity_without_bbox(seed in 0u64..1_000_000) {
        let suite = random_suite(seed.wrapping_add(0x5eed));
        let options = RouterOptions::for_modes(suite.modes).without_bbox();
        let optimized = Router::new(&suite.rrg, options).route(&suite.nets);
        let reference = route_reference(&suite.rrg, options, &suite.nets);
        assert_identical(&optimized, &reference)?;
    }

    /// Bounding-box growth preserves routability: every suite the
    /// unpruned router can route must also route with pruning enabled.
    #[test]
    fn bbox_growth_routes_every_feasible_net(seed in 0u64..1_000_000) {
        let suite = random_suite(seed.wrapping_mul(3).wrapping_add(17));
        let unpruned_options = RouterOptions::for_modes(suite.modes).without_bbox();
        let unpruned = Router::new(&suite.rrg, unpruned_options).route(&suite.nets);
        if unpruned.success {
            let options = RouterOptions::for_modes(suite.modes);
            let pruned = Router::new(&suite.rrg, options).route(&suite.nets);
            prop_assert!(
                pruned.success,
                "bbox pruning lost routability on seed-feasible suite (seed {})",
                seed
            );
            prop_assert_eq!(pruned.unrouted_sinks, 0);
        }
    }

    /// Incremental rip-up parity also holds with full tear-down disabled
    /// in both implementations (the pre-optimization behaviour) — the
    /// two rip-up policies are each byte-identical across the pair.
    #[test]
    fn parity_with_full_reroute(seed in 0u64..1_000_000) {
        let suite = random_suite(seed.wrapping_add(0xbeef));
        let options = RouterOptions::for_modes(suite.modes).with_full_reroute();
        let optimized = Router::new(&suite.rrg, options).route(&suite.nets);
        let reference = route_reference(&suite.rrg, options, &suite.nets);
        assert_identical(&optimized, &reference)?;
    }

    /// A run that converges before any congested-net handling kicks in
    /// (within the `REROUTE_ALL_ITERS` warm-up) is byte-identical under
    /// incremental and full rip-up — the incremental path only ever
    /// diverges where tear-down policy matters.
    #[test]
    fn incremental_is_identical_to_full_reroute_until_congestion_handling(
        seed in 0u64..1_000_000
    ) {
        let suite = random_suite(seed.wrapping_mul(5).wrapping_add(1));
        let incremental_options = RouterOptions::for_modes(suite.modes);
        let full = Router::new(&suite.rrg, incremental_options.with_full_reroute())
            .route(&suite.nets);
        if full.iterations <= REROUTE_ALL_ITERS {
            let incremental = Router::new(&suite.rrg, incremental_options).route(&suite.nets);
            assert_identical(&incremental, &full)?;
        }
    }

    /// Incremental rip-up preserves routability: every suite the full
    /// tear-down router can route also routes incrementally, and the
    /// result passes the same structural checks (asserted by
    /// `assert_identical` against the naive incremental mirror).
    #[test]
    fn incremental_routes_every_full_reroute_feasible_suite(seed in 0u64..1_000_000) {
        let suite = random_suite(seed.wrapping_mul(11).wrapping_add(5));
        let options = RouterOptions::for_modes(suite.modes);
        let full = Router::new(&suite.rrg, options.with_full_reroute()).route(&suite.nets);
        if full.success {
            let incremental = Router::new(&suite.rrg, options).route(&suite.nets);
            prop_assert!(
                incremental.success,
                "incremental rip-up lost routability (seed {})",
                seed
            );
            prop_assert_eq!(incremental.unrouted_sinks, 0);
        }
    }

    /// All-zero criticalities leave the cost expression on its original
    /// branch: `route_with_criticality` with zeros is byte-identical to
    /// plain `route`.
    #[test]
    fn zero_criticality_is_identical_to_plain_route(seed in 0u64..1_000_000) {
        let suite = random_suite(seed.wrapping_mul(17).wrapping_add(29));
        let options = RouterOptions::for_modes(suite.modes);
        let plain = Router::new(&suite.rrg, options).route(&suite.nets);
        let zeros: Vec<Vec<f64>> = suite.nets.iter().map(|n| vec![0.0; n.sinks.len()]).collect();
        let crit = Router::new(&suite.rrg, options)
            .route_with_criticality(&suite.nets, &zeros);
        assert_identical(&plain, &crit)?;
    }

    /// Nonzero criticalities bias wire costs but must never lose
    /// routability on a congestion-feasible suite, and the result must
    /// still verify structurally per mode.
    #[test]
    fn criticality_preserves_routability(seed in 0u64..1_000_000) {
        let suite = random_suite(seed.wrapping_mul(19).wrapping_add(3));
        let options = RouterOptions::for_modes(suite.modes);
        let plain = Router::new(&suite.rrg, options).route(&suite.nets);
        if plain.success {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xc417);
            let crit: Vec<Vec<f64>> = suite
                .nets
                .iter()
                .map(|n| n.sinks.iter().map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            let routed = Router::new(&suite.rrg, options)
                .route_with_criticality(&suite.nets, &crit);
            prop_assert!(
                routed.success,
                "criticality weighting lost routability (seed {})",
                seed
            );
            prop_assert_eq!(routed.unrouted_sinks, 0);
            prop_assert!(
                mm_route::verify_routing(&suite.rrg, &suite.nets, &routed, suite.modes).is_ok(),
                "verification failed (seed {})",
                seed
            );
        }
    }

    /// With Steiner decomposition off (the default), options that merely
    /// carry a high `steiner_fanout` threshold no net reaches are
    /// byte-identical to today's router — the gate adds no side effects.
    #[test]
    fn steiner_off_is_byte_identical(seed in 0u64..1_000_000) {
        let suite = random_suite(seed.wrapping_mul(23).wrapping_add(11));
        let options = RouterOptions::for_modes(suite.modes);
        let plain = Router::new(&suite.rrg, options).route(&suite.nets);
        let gated = Router::new(&suite.rrg, options.with_steiner(usize::MAX))
            .route(&suite.nets);
        assert_identical(&plain, &gated)?;
    }

    /// Steiner-mode parity: high-fanout nets routed via the shared
    /// Steiner topology are byte-identical between the optimized router
    /// and the naive reference mirror.
    #[test]
    fn steiner_parity(seed in 0u64..1_000_000) {
        let suite = broadcast_suite(seed);
        let options = RouterOptions::for_modes(suite.modes).with_steiner(4);
        let optimized = Router::new(&suite.rrg, options).route(&suite.nets);
        let reference = route_reference(&suite.rrg, options, &suite.nets);
        assert_identical(&optimized, &reference)?;
    }

    /// Steiner decomposition preserves routability and never worsens
    /// overuse: every broadcast suite the sink-by-sink router resolves,
    /// the Steiner router resolves too (to zero overuse), and the result
    /// verifies structurally.
    #[test]
    fn steiner_preserves_routability_and_overuse(seed in 0u64..1_000_000) {
        let suite = broadcast_suite(seed.wrapping_mul(7).wrapping_add(13));
        let options = RouterOptions::for_modes(suite.modes);
        let plain = Router::new(&suite.rrg, options).route(&suite.nets);
        if plain.success {
            let steiner = Router::new(&suite.rrg, options.with_steiner(4))
                .route(&suite.nets);
            prop_assert!(
                steiner.success,
                "Steiner mode lost routability (seed {})", seed
            );
            prop_assert!(steiner.overused_nodes <= plain.overused_nodes);
            prop_assert_eq!(steiner.unrouted_sinks, 0);
            prop_assert!(
                mm_route::verify_routing(&suite.rrg, &suite.nets, &steiner, suite.modes).is_ok(),
                "Steiner routing failed structural verification (seed {})", seed
            );
        }
    }

    /// Incremental rip-up on stitched Steiner trees: the subtree pruning
    /// and lost-sink repair work on Steiner-built trees exactly as they
    /// do on sink-by-sink trees — full-reroute feasibility is preserved
    /// and both implementations stay byte-identical.
    #[test]
    fn steiner_incremental_ripup_works_on_stitched_trees(seed in 0u64..1_000_000) {
        let suite = broadcast_suite(seed.wrapping_mul(31).wrapping_add(3));
        let options = RouterOptions::for_modes(suite.modes).with_steiner(4);
        let full = Router::new(&suite.rrg, options.with_full_reroute()).route(&suite.nets);
        let incremental = Router::new(&suite.rrg, options).route(&suite.nets);
        let reference = route_reference(&suite.rrg, options, &suite.nets);
        assert_identical(&incremental, &reference)?;
        if full.success {
            prop_assert!(
                incremental.success,
                "incremental rip-up on Steiner trees lost routability (seed {})", seed
            );
        }
    }

    /// Sink-order tie-breaking is deterministic: suites whose sinks are
    /// all equidistant from their source route byte-identically across
    /// implementations and across repeated runs — equal-distance sinks
    /// order by sink index, not by sort artefacts.
    #[test]
    fn equidistant_sink_ordering_is_pinned(seed in 0u64..1_000_000) {
        let suite = equidistant_suite(seed);
        let options = RouterOptions::for_modes(suite.modes);
        let first = Router::new(&suite.rrg, options).route(&suite.nets);
        let again = Router::new(&suite.rrg, options).route(&suite.nets);
        assert_identical(&first, &again)?;
        let reference = route_reference(&suite.rrg, options, &suite.nets);
        assert_identical(&first, &reference)?;
        // Steiner selection is tie-broken the same way.
        let steiner = RouterOptions::for_modes(suite.modes).with_steiner(2);
        let s1 = Router::new(&suite.rrg, steiner).route(&suite.nets);
        let s2 = route_reference(&suite.rrg, steiner, &suite.nets);
        assert_identical(&s1, &s2)?;
    }
}

/// Reusing one router across repeated `route()` calls keeps the scratch
/// arena stable (no per-net allocations in steady state) and stays
/// deterministic.
#[test]
fn scratch_arena_reuse_is_deterministic_and_stable() {
    let suite = random_suite(0xfab);
    let options = RouterOptions::for_modes(suite.modes);
    let baseline = Router::new(&suite.rrg, options).route(&suite.nets);

    let mut reused = Router::new(&suite.rrg, options);
    let first = reused.route(&suite.nets);
    assert_eq!(first.iterations, baseline.iterations);
    let footprint = reused.scratch_footprint();
    for _ in 0..4 {
        let _ = reused.route(&suite.nets);
        assert_eq!(
            reused.scratch_footprint(),
            footprint,
            "steady-state route() must not grow the scratch arena"
        );
    }
}

/// Hopeless instances do reach the early stop: some width-1–2 suites
/// give up congested before the iteration cap, byte-identically in both
/// implementations.
#[test]
fn hopeless_instances_stop_early_in_both_implementations() {
    let mut early = 0;
    for seed in 0..64u64 {
        let suite = random_suite_with_widths(seed, 1..=2);
        let options = RouterOptions {
            max_iterations: 40,
            ..RouterOptions::for_modes(suite.modes)
        };
        let optimized = Router::new(&suite.rrg, options).route(&suite.nets);
        if !optimized.success && optimized.unrouted_sinks == 0 && optimized.iterations < 40 {
            let reference = route_reference(&suite.rrg, options, &suite.nets);
            assert_identical(&optimized, &reference).unwrap();
            early += 1;
        }
    }
    assert!(early > 0, "no hopeless suite stopped before the cap");
}
