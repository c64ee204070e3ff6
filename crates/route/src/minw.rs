//! Minimum-channel-width search.
//!
//! The paper sizes the fabric "20% bigger than the minimum needed" in both
//! array area and channel width (§IV-B). The minimum channel width is
//! found the way VPR does it, by routing the design at trial widths; the
//! trials start from a width predicted by the first one's wire demand, so
//! most of them land next to the answer.

use crate::{RouteNet, Router, RouterOptions, Routing};
use mm_arch::{Architecture, RoutingGraph};

/// The first width the search probes. When it fails, its routing
/// predicts the minimum ([`predicted_width`]).
const RUNG: usize = 4;

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
    /// Every probe, in the order the search made them.
    pub probes: Vec<WidthProbe>,
}

/// Finds the minimum channel width for which `nets(rrg)` routes on `arch`,
/// probing widths up to `max_width`.
///
/// The net list must be rebuilt per width because RRG node ids change;
/// `nets` receives each candidate graph, once per probe.
///
/// The search probes width 4 first. If it routes, a bisection over 2–3
/// finds the minimum. If it fails, its routing predicts the minimum: the
/// demand d is the busiest mode's channel-wire count over the fabric's
/// wire segments per track, and the search probes ⌈2d⌉, clamped to
/// `5..=max_width` (on the paper's 30 pairings the minimum w* is
/// 1.37–2.52 d, and 1.66–1.89 d on the DCS edge-matching legs). A
/// predicted width that routes is walked down one track at a time until
/// a probe fails; one that fails gallops up (+1, +2, +4, …) to the first
/// width that routes, then bisects the last gap. Where routability is
/// monotone in width this returns the minimum the old doubling ladder
/// (4, 8, 16, … then bisection) found; on the paper's pairings the only
/// failing probe after width 4 is w*−1.
///
/// Each probe is one [`Router::route`] call, so a probe that cannot route
/// usually ends early on one of the router's stop rules (see
/// [`Routing::iterations`]): a probe whose warm-up made no headway ends at
/// iteration [`crate::REROUTE_ALL_ITERS`], one that stalls later on the
/// routability predictor, near misses at w*−1 included, and only a
/// failing probe whose best overuse sinks under the predictor's gate (6 %
/// of its first) runs all [`RouterOptions::max_iterations`]: 75 of the
/// 120 w*−1 probes of the paper's pairings do.
/// The minimum found moves only if a rule gives up a probe that would
/// have routed within the cap. That makes the search exact on the paper's
/// corpus, not in general: over the width probes and final routes of the
/// regexp/fir/mcnc pairings no rule gives up a converging route, but on
/// small random problems a few converging routes are given up.
///
/// Returns `None` if even `max_width` fails, or as soon as a probe before
/// the first one that routes leaves a sink with no path at all
/// ([`Routing::unrouted_sinks`]): that is hard unreachability, not
/// congestion, and every width of the fabric family has the same
/// connectivity, so wider probes cannot help.
pub fn min_channel_width(
    arch: &Architecture,
    options: &RouterOptions,
    max_width: usize,
    mut nets: impl FnMut(&RoutingGraph) -> Vec<RouteNet>,
) -> Option<MinWidthResult> {
    let mut probes = Vec::new();
    let min_width = ladder(max_width, |w| {
        let rrg = RoutingGraph::build(&arch.with_channel_width(w));
        let routing = Router::new(&rrg, *options).route(&nets(&rrg));
        let outcome = if routing.success {
            Outcome::Routed
        } else if routing.unrouted_sinks > 0 {
            Outcome::Unreachable
        } else {
            Outcome::Failed {
                predicted: predicted_width(&rrg, &routing, options.mode_count),
            }
        };
        probes.push(WidthProbe {
            width: w,
            iterations: routing.iterations,
            success: routing.success,
            overuse: routing.overuse,
        });
        outcome
    })?;
    Some(MinWidthResult { min_width, probes })
}

/// What the search learns from routing one width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The width routed.
    Routed,
    /// The width failed on congestion; its routing predicts `predicted`.
    Failed { predicted: usize },
    /// A sink has no path at all.
    Unreachable,
}

/// The width a failed routing predicts: ⌈2d⌉ for the demand d, the
/// busiest of `modes` modes' channel-wire count over the graph's wire
/// segments per track.
fn predicted_width(rrg: &RoutingGraph, routing: &Routing, modes: usize) -> usize {
    let per_track = (rrg.wire_count() / rrg.arch().channel_width).max(1);
    let busiest = (0..modes.max(1))
        .map(|m| routing.wires_in_mode(rrg, m))
        .max()
        .unwrap_or(0);
    (2 * busiest).div_ceil(per_track)
}

/// The probe order of [`min_channel_width`] over `probe`, which routes
/// one width: the minimum width that routed, or `None`.
fn ladder(max_width: usize, mut probe: impl FnMut(usize) -> Outcome) -> Option<usize> {
    let rung = RUNG.min(max_width);
    let predicted = match probe(rung) {
        Outcome::Routed => return Some(bisect(1, rung, &mut probe)),
        Outcome::Failed { predicted } if rung < max_width => predicted.clamp(rung + 1, max_width),
        _ => return None,
    };
    match probe(predicted) {
        Outcome::Routed => {
            let mut min = predicted;
            while min - 1 > rung && probe(min - 1) == Outcome::Routed {
                min -= 1;
            }
            Some(min)
        }
        Outcome::Unreachable => None,
        Outcome::Failed { .. } => {
            let (mut failed, mut step) = (predicted, 1);
            while failed < max_width {
                let w = (predicted + step).min(max_width);
                match probe(w) {
                    Outcome::Routed => return Some(bisect(failed, w, &mut probe)),
                    Outcome::Failed { .. } => failed = w,
                    Outcome::Unreachable => return None,
                }
                step *= 2;
            }
            None
        }
    }
}

/// Bisects `(failed, routed)`: `routed` routes and `failed` is taken to
/// fail. Returns the smallest width of the range that routed.
fn bisect(mut failed: usize, mut routed: usize, probe: &mut impl FnMut(usize) -> Outcome) -> usize {
    while routed - failed > 1 {
        let mid = (failed + routed) / 2;
        if probe(mid) == Outcome::Routed {
            routed = mid;
        } else {
            failed = mid;
        }
    }
    routed
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
    use std::collections::BTreeMap;

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

    /// [`traffic`] routed directly at width `w`.
    fn route_at(arch: &Architecture, options: &RouterOptions, w: usize) -> Routing {
        let rrg = RoutingGraph::build(&arch.with_channel_width(w));
        Router::new(&rrg, *options).route(&traffic(&rrg))
    }

    /// The doubling ladder the search used before it predicted widths:
    /// 4, 8, 16, … up to the first width that routes, then bisection.
    fn doubling_ladder(max_width: usize, mut probe: impl FnMut(usize) -> Outcome) -> Option<usize> {
        let (mut failed, mut w) = (1, RUNG.min(max_width));
        loop {
            match probe(w) {
                Outcome::Routed => return Some(bisect(failed, w, &mut probe)),
                Outcome::Failed { .. } if w < max_width => {
                    failed = w;
                    w = (w * 2).min(max_width);
                }
                _ => return None,
            }
        }
    }

    /// Runs `search` over the monotone oracle "a width routes iff it is
    /// at least `threshold`", whose failures predict `predicted`, with
    /// `unreachable` reporting a sink with no path instead of failing.
    fn run_oracle(
        search: impl Fn(&mut dyn FnMut(usize) -> Outcome) -> Option<usize>,
        threshold: usize,
        predicted: usize,
        unreachable: Option<usize>,
    ) -> (Option<usize>, Vec<(usize, bool)>) {
        let mut log = Vec::new();
        let found = search(&mut |w| {
            log.push((w, w >= threshold));
            if w >= threshold {
                Outcome::Routed
            } else if Some(w) == unreachable {
                Outcome::Unreachable
            } else {
                Outcome::Failed { predicted }
            }
        });
        (found, log)
    }

    #[test]
    fn ladder_finds_the_doubling_ladders_minimum_near_the_boundary() {
        for max_width in (1..=20).chain([64, 96]) {
            for threshold in 1..=max_width + 1 {
                for predicted in 0..=max_width + 3 {
                    let case = format!("max {max_width}, threshold {threshold}, p {predicted}");
                    let (found, log) =
                        run_oracle(|p| ladder(max_width, p), threshold, predicted, None);
                    let (old, _) = run_oracle(
                        |p| doubling_ladder(max_width, p),
                        threshold,
                        predicted,
                        None,
                    );
                    assert_eq!(found, old, "{case}: {log:?}");
                    let mut widths: Vec<usize> = log.iter().map(|&(w, _)| w).collect();
                    widths.sort_unstable();
                    widths.dedup();
                    assert_eq!(widths.len(), log.len(), "{case}: a width probed twice");
                    assert!(log.iter().all(|&(w, _)| (1..=max_width).contains(&w)));
                    if log[0].1 {
                        continue; // rung 4 routed: the bisection below it
                    }
                    // Past rung 4, failures lie between the (clamped)
                    // prediction and the boundary; a prediction at or
                    // above the minimum fails at w*−1 only.
                    let p = predicted.clamp(RUNG + 1, max_width.max(RUNG + 1));
                    let failed: Vec<usize> = log[1..]
                        .iter()
                        .filter(|&&(_, ok)| !ok)
                        .map(|&(w, _)| w)
                        .collect();
                    assert!(
                        failed
                            .iter()
                            .all(|&w| w >= p.min(threshold - 1) && w < threshold),
                        "{case}: {log:?}"
                    );
                    if found.is_some() && p >= threshold && threshold - 1 > RUNG {
                        assert_eq!(failed, [threshold - 1], "{case}: {log:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn ladder_stops_at_an_unreachable_sink_before_the_first_route() {
        let max_width = 96;
        for threshold in 1..=max_width + 1 {
            for predicted in [0, 5, 9, 13, 30, 96] {
                let (_, clean) = run_oracle(|p| ladder(max_width, p), threshold, predicted, None);
                for (i, &(u, routed)) in clean.iter().enumerate() {
                    let case = format!("threshold {threshold}, p {predicted}, unreachable {u}");
                    let (found, log) =
                        run_oracle(|p| ladder(max_width, p), threshold, predicted, Some(u));
                    if routed {
                        assert_eq!(log, clean, "{case}");
                    } else if clean[..i].iter().any(|&(_, ok)| ok) {
                        // Below a width that routed, a probe with no path
                        // is one more failure.
                        assert_eq!((found, &log), (Some(threshold.max(2)), &clean), "{case}");
                    } else {
                        assert_eq!(found, None, "{case}: {log:?}");
                        assert_eq!(log, clean[..=i], "{case}: stops at the unreachable probe");
                    }
                }
            }
        }
    }

    #[test]
    fn finds_minimum_and_is_tight() {
        let arch = Architecture::new(4, 4, 1);
        let options = RouterOptions {
            max_iterations: 25,
            ..RouterOptions::default()
        };
        let result = min_channel_width(&arch, &options, 64, traffic).expect("routable");
        let min = result.min_width;
        assert!(result.probes.iter().any(|p| p.width == min && p.success));
        assert!(route_at(&arch, &options, min).success);
        assert!(min >= 2, "crossing traffic needs width ≥ 2");

        // One less must fail (that is what "minimum" means).
        if min > 1 {
            let w = min - 1;
            assert!(
                !route_at(&arch, &options, w).success,
                "width {w} should fail"
            );
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
        assert_eq!(
            result.probes[2].iterations,
            route_at(&arch, &options, 3).iterations
        );
    }

    #[test]
    fn unreachable_sink_stops_at_the_first_probe() {
        // A "sink" that is really a SOURCE node has no incoming edges, so
        // no channel width can reach it: the search must give up after
        // one probe instead of predicting a wider one.
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
        assert_eq!(probes, 1, "one probe, no predicted width");
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

    /// The committed overuse corpus: one route a line, `<job> <leg>
    /// <probe|audit|final> <width> <nets> <overuse…>`, generated by
    /// `crates/core/tests/overuse_corpus.rs`.
    const CORPUS: &str = include_str!("../tests/data/overuse_corpus.txt");

    #[test]
    fn routability_is_monotone_in_width_on_every_corpus_search() {
        let mut searches: BTreeMap<(&str, &str), Vec<(usize, bool)>> = BTreeMap::new();
        for line in CORPUS.lines().filter(|l| !l.starts_with('#')) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let width: usize = fields[3].parse().unwrap();
            let routed = fields.last() == Some(&"0");
            searches
                .entry((fields[0], fields[1]))
                .or_default()
                .push((width, routed));
        }
        assert_eq!(searches.len(), 120, "30 jobs, 4 searches each");
        for ((job, leg), routes) in &searches {
            let min = routes.iter().filter(|r| r.1).map(|r| r.0).min().unwrap();
            assert!(
                routes.iter().all(|&(w, routed)| routed == (w >= min)),
                "{job} {leg}: a width fails above one that routes: {routes:?}"
            );
            for w in min.saturating_sub(3).max(1)..=min + 3 {
                assert!(
                    routes.iter().any(|r| r.0 == w),
                    "{job} {leg}: width {w} is not audited"
                );
            }
        }
    }

    #[test]
    fn every_corpus_leg_routes_once_at_the_relaxed_width_of_its_searches() {
        // The flows retry a leg wider only when a final route fails, and
        // the corpus keeps only the routings that succeeded: a leg that
        // grew would show here as a final width above the relaxed one.
        fn leg_of(list: &str) -> &str {
            if list.starts_with("mdr") {
                "mdr"
            } else {
                list
            }
        }
        /// A final route: its list, width and whether it routed.
        type Final<'a> = (&'a str, usize, bool);
        let mut minima: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        let mut finals: BTreeMap<(&str, &str), Vec<Final>> = BTreeMap::new();
        for line in CORPUS.lines().filter(|l| !l.starts_with('#')) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let (job, list) = (fields[0], fields[1]);
            let width: usize = fields[3].parse().unwrap();
            let routed = fields.last() == Some(&"0");
            match fields[2] {
                "probe" if routed => {
                    let min = minima.entry((job, list)).or_insert(width);
                    *min = (*min).min(width);
                }
                "final" => finals
                    .entry((job, leg_of(list)))
                    .or_default()
                    .push((list, width, routed)),
                _ => {}
            }
        }
        assert_eq!(minima.len(), 120, "30 jobs, 4 searches each");
        assert_eq!(finals.len(), 90, "30 jobs, 3 legs each");
        for ((job, leg), routes) in &finals {
            // The leg's searches: mdr0 and mdr1 for MDR, else its own.
            let searches: Vec<(&str, usize)> = minima
                .iter()
                .filter(|((j, list), _)| j == job && leg_of(list) == *leg)
                .map(|((_, list), &min)| (*list, min))
                .collect();
            let min = searches.iter().map(|s| s.1).max().unwrap();
            let expected: Vec<Final> = searches
                .iter()
                .map(|&(list, _)| (list, relaxed_width(min), true))
                .collect();
            assert_eq!(routes, &expected, "{job} {leg}: searches {searches:?}");
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
