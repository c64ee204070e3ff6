//! Minimum-channel-width search.
//!
//! The paper sizes the fabric "20% bigger than the minimum needed" in both
//! array area and channel width (§IV-B). The minimum channel width is
//! found the way VPR does it: route the design repeatedly while binary
//! searching the channel width.

use crate::{RouteNet, Router, RouterOptions, Routing};
use mm_arch::{Architecture, RoutingGraph};

/// One routing attempt of the width search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidthProbe {
    /// The channel width probed.
    pub width: usize,
    /// PathFinder iterations the probe ran ([`Routing::iterations`]). A
    /// failed probe may stop below [`RouterOptions::max_iterations`].
    pub iterations: usize,
    /// Whether the width routed.
    pub success: bool,
    /// The probe's overused-node count per iteration
    /// ([`Routing::overuse`]).
    pub overuse: Vec<usize>,
}

/// Result of the minimum-channel-width search.
#[derive(Debug)]
pub struct MinWidthResult {
    /// The smallest channel width that routed successfully.
    pub min_width: usize,
    /// The routing obtained at `min_width`.
    pub routing: Routing,
    /// The RRG at `min_width`.
    pub rrg: RoutingGraph,
    /// Every probe, in the order the search made them.
    pub probes: Vec<WidthProbe>,
}

/// Finds the minimum channel width for which `nets(rrg)` routes on `arch`,
/// scanning `4..=max_width` by doubling then binary search.
///
/// The net list must be rebuilt per width because RRG node ids change;
/// `nets` receives each candidate graph.
///
/// Each probe is one [`Router::route`] call, so a probe that cannot route
/// usually ends early on one of the router's stop rules (see
/// [`Routing::iterations`]): a probe whose warm-up made no headway ends at
/// iteration [`crate::REROUTE_ALL_ITERS`], one that stalls later on the
/// routability predictor, and only a failing probe whose overuse sinks
/// under the predictor's gate runs all [`RouterOptions::max_iterations`].
/// The minimum found moves only if a rule gives up a probe that would
/// have routed within the cap. That makes the search exact on the paper's
/// corpus, not in general: over the width probes and final routes of the
/// regexp/fir/mcnc pairings no rule gives up a converging route, but on
/// small random problems a few converging routes are given up.
///
/// Returns `None` if even `max_width` fails, or as soon as a doubling
/// probe leaves a sink with no path at all ([`Routing::unrouted_sinks`]):
/// that is hard unreachability, not congestion, and every width of the
/// fabric family has the same connectivity, so wider probes cannot help.
pub fn min_channel_width(
    arch: &Architecture,
    options: &RouterOptions,
    max_width: usize,
    mut nets: impl FnMut(&RoutingGraph) -> Vec<RouteNet>,
) -> Option<MinWidthResult> {
    let mut probes = Vec::new();
    let mut try_width = |w: usize, nets: &mut dyn FnMut(&RoutingGraph) -> Vec<RouteNet>| {
        let rrg = RoutingGraph::build(&arch.with_channel_width(w));
        let net_list = nets(&rrg);
        let mut router = Router::new(&rrg, *options);
        let routing = router.route(&net_list);
        probes.push(WidthProbe {
            width: w,
            iterations: routing.iterations,
            success: routing.success,
            overuse: routing.overuse.clone(),
        });
        (rrg, routing)
    };

    // Exponential probe upwards from 4.
    let mut lo = 1usize; // highest known-failing width (0 = unknown)
    let mut hi = 4usize.min(max_width);
    let best: (usize, RoutingGraph, Routing);
    loop {
        let (rrg, routing) = try_width(hi, &mut nets);
        if routing.success {
            best = (hi, rrg, routing);
            break;
        }
        if routing.unrouted_sinks > 0 || hi >= max_width {
            return None;
        }
        lo = hi;
        hi = (hi * 2).min(max_width);
    }

    // Binary search in (lo, hi).
    let (mut best_w, mut best_rrg, mut best_routing) = best;
    let mut high = best_w;
    while high - lo > 1 {
        let mid = (lo + high) / 2;
        let (rrg, routing) = try_width(mid, &mut nets);
        if routing.success {
            high = mid;
            best_w = mid;
            best_rrg = rrg;
            best_routing = routing;
        } else {
            lo = mid;
        }
    }

    Some(MinWidthResult {
        min_width: best_w,
        routing: best_routing,
        rrg: best_rrg,
        probes,
    })
}

/// The paper's relaxed width: 20% above the minimum (rounded up).
#[must_use]
pub fn relaxed_width(min_width: usize) -> usize {
    ((min_width as f64) * 1.2).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteSink;
    use mm_arch::Site;
    use mm_boolexpr::ModeSet;

    /// Dense all-to-neighbour traffic on a small array.
    fn traffic(rrg: &RoutingGraph) -> Vec<RouteNet> {
        let n = rrg.arch().grid as u16;
        let all = ModeSet::of(&[0]);
        let mut nets = Vec::new();
        for y in 1..=n {
            for x in 1..=n {
                let tx = n + 1 - x;
                let ty = n + 1 - y;
                if (tx, ty) == (x, y) {
                    continue;
                }
                nets.push(RouteNet {
                    name: format!("n{x}_{y}"),
                    source: rrg.logic_source(Site::new(x, y, 0)),
                    sinks: vec![RouteSink {
                        node: rrg.logic_sink(Site::new(tx, ty, 0)),
                        activation: all,
                    }],
                });
            }
        }
        nets
    }

    #[test]
    fn finds_minimum_and_is_tight() {
        let arch = Architecture::new(4, 4, 1);
        let options = RouterOptions {
            max_iterations: 25,
            ..RouterOptions::default()
        };
        let result = min_channel_width(&arch, &options, 64, traffic).expect("routable");
        assert!(result.routing.success);
        assert!(result.min_width >= 2, "crossing traffic needs width ≥ 2");

        // One less must fail (that is what "minimum" means).
        if result.min_width > 1 {
            let w = result.min_width - 1;
            let rrg = RoutingGraph::build(&arch.with_channel_width(w));
            let nets = traffic(&rrg);
            let mut router = Router::new(&rrg, options);
            assert!(!router.route(&nets).success, "width {w} should fail");
        }
    }

    #[test]
    fn failed_probe_stops_before_the_iteration_cap() {
        let arch = Architecture::new(4, 4, 1);
        let options = RouterOptions {
            max_iterations: 25,
            ..RouterOptions::default()
        };
        let result = min_channel_width(&arch, &options, 64, traffic).expect("routable");
        assert_eq!(result.min_width, 3);
        let widths: Vec<(usize, bool)> =
            result.probes.iter().map(|p| (p.width, p.success)).collect();
        assert_eq!(widths, [(4, true), (2, false), (3, true)]);
        let failed = &result.probes[1];
        assert!(
            failed.iterations < options.max_iterations,
            "the hopeless width-2 probe ran {} of {} iterations",
            failed.iterations,
            options.max_iterations
        );
        assert_eq!(result.probes[2].iterations, result.routing.iterations);
    }

    #[test]
    fn unreachable_sink_stops_at_the_first_probe() {
        // A "sink" that is really a SOURCE node has no incoming edges, so
        // no channel width can reach it: the search must give up after
        // one probe instead of climbing the doubling ladder.
        let arch = Architecture::new(4, 3, 4);
        let mut probes = 0;
        let result = min_channel_width(&arch, &RouterOptions::default(), 64, |rrg| {
            probes += 1;
            vec![RouteNet {
                name: "stuck".into(),
                source: rrg.logic_source(Site::new(1, 1, 0)),
                sinks: vec![RouteSink {
                    node: rrg.logic_source(Site::new(3, 3, 0)),
                    activation: ModeSet::of(&[0]),
                }],
            }]
        });
        assert!(result.is_none());
        assert_eq!(probes, 1, "one probe, no doubling ladder");
    }

    #[test]
    fn unroutable_returns_none() {
        let arch = Architecture::new(4, 3, 1);
        let options = RouterOptions {
            max_iterations: 4,
            ..RouterOptions::default()
        };
        // Cap the width below anything useful for dense traffic.
        let result = min_channel_width(&arch, &options, 1, |rrg| {
            let all = ModeSet::of(&[0]);
            // Four nets all targeting sinks across the same corridor.
            (1..=3u16)
                .flat_map(|y| {
                    [RouteNet {
                        name: format!("a{y}"),
                        source: rrg.logic_source(Site::new(1, y, 0)),
                        sinks: vec![
                            RouteSink {
                                node: rrg.logic_sink(Site::new(3, 4 - y, 0)),
                                activation: all,
                            },
                            RouteSink {
                                node: rrg.logic_sink(Site::new(3, y, 0)),
                                activation: all,
                            },
                        ],
                    }]
                })
                .collect()
        });
        // Width 1 may or may not route this; if it routes, min_width == 1.
        if let Some(r) = result {
            assert_eq!(r.min_width, 1);
        }
    }

    #[test]
    fn relaxed_width_adds_twenty_percent() {
        assert_eq!(relaxed_width(10), 12);
        assert_eq!(relaxed_width(5), 6);
        assert_eq!(relaxed_width(1), 2);
        assert_eq!(relaxed_width(14), 17);
    }
}
