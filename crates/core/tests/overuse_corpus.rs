//! Generator of the route crate's overuse corpus
//! (`crates/route/tests/data/overuse_corpus.txt`), which its stop-rule
//! replay, width-monotonicity and final-width tests read: the
//! overused-node count per PathFinder iteration of every route a `pair`
//! job makes on the paper's 30 pairings (10 regexp, 10 fir `lp i + hp i`,
//! 10 mcnc) at the default options — every width probe and final route
//! of its MDR, DCS edge-matching and DCS wire-length legs.
//!
//! The legs run through `MdrFlow::run` and `DcsFlow::run`: each width
//! probe's series is read off the result's `width_searches`, each final
//! route's off its routings. Each width search is audited as well: the
//! widths the doubling ladder the search replaced would have probed (4,
//! 8, 16, … then bisection, derived from the minimum), and every width
//! from w*−3 to w*+3, are routed too. A width the search probed is tagged
//! `probe`, any other audited width `audit`, and a list's route at its
//! leg's final width `final`. Regenerate after a router, search or flow
//! change with
//!
//! ```text
//! cargo test --release -p mm-flow --test overuse_corpus -- --ignored --nocapture
//! ```
//!
//! (about seven minutes on two CPUs).

use mm_arch::{Architecture, RoutingGraph};
use mm_boolexpr::ModeSet;
use mm_flow::{DcsFlow, FlowOptions, MdrFlow, MultiModeInput};
use mm_netlist::LutCircuit;
use mm_place::CostKind;
use mm_route::{nets_for_circuit, MinWidthResult, RouteNet, Router, RouterOptions};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One corpus line: `<job> <leg> <probe|audit|final> <width> <nets>
/// <overuse…>`, where `list` is `<job> <leg>`.
fn line(out: &mut String, list: &str, kind: &str, width: usize, nets: usize, o: &[usize]) {
    let series: Vec<String> = o.iter().map(ToString::to_string).collect();
    writeln!(out, "{list} {kind} {width} {nets} {}", series.join(" ")).unwrap();
}

/// The widths the doubling ladder (4, 8, 16, … up to the first width
/// that routes, then bisection) probes when exactly the widths from
/// `min` up route.
fn doubling_probes(min: usize, max_width: usize) -> Vec<usize> {
    let mut widths = Vec::new();
    let (mut failed, mut w) = (1, 4.min(max_width));
    while w < min {
        widths.push(w);
        failed = w;
        w = (w * 2).min(max_width);
    }
    widths.push(w);
    let mut routed = w;
    while routed - failed > 1 {
        let mid = (failed + routed) / 2;
        widths.push(mid);
        if mid >= min {
            routed = mid;
        } else {
            failed = mid;
        }
    }
    widths
}

/// The width search of `list` (`<job> <leg>`, `nets` nets) and its
/// audit: logs every probe, then routes with `route` (a width to its
/// overuse series) and logs the doubling ladder's widths and w*−3..=w*+3
/// that the search did not probe, one line a width in ascending order.
/// Prints the search's probes (`<width><ok|x>/<iterations>`) to stderr.
fn search(
    out: &mut String,
    list: &str,
    found: &MinWidthResult,
    nets: usize,
    max_width: usize,
    route: impl Fn(usize) -> Vec<usize>,
) {
    let min = found.min_width;
    let probes: Vec<String> = found
        .probes
        .iter()
        .map(|p| {
            let verdict = if p.success { "ok" } else { "x" };
            format!("{}{verdict}/{}", p.width, p.iterations)
        })
        .collect();
    eprintln!("{list}: w* {min}, probes {}", probes.join(" "));
    let mut routes: BTreeMap<usize, (&str, Vec<usize>)> = found
        .probes
        .iter()
        .map(|p| (p.width, ("probe", p.overuse.clone())))
        .collect();
    let near = min.saturating_sub(3).max(1)..=(min + 3).min(max_width);
    for w in doubling_probes(min, max_width).into_iter().chain(near) {
        routes.entry(w).or_insert_with(|| ("audit", route(w)));
    }
    for (w, (kind, series)) in &routes {
        line(out, list, kind, *w, nets, series);
    }
}

/// The overuse series of `nets` routed at width `w` of `arch`'s fabric
/// family.
fn overuse_at(
    arch: &Architecture,
    w: usize,
    router: RouterOptions,
    nets: impl Fn(&RoutingGraph) -> Vec<RouteNet>,
) -> Vec<usize> {
    let rrg = RoutingGraph::build(&arch.with_channel_width(w));
    Router::new(&rrg, router).route(&nets(&rrg)).overuse
}

/// The MDR leg: each mode's audited width search, then every mode's
/// route at the shared final width.
fn mdr_leg(out: &mut String, job: &str, input: &MultiModeInput, options: &FlowOptions) {
    let r = MdrFlow::new(*options).run(input).expect("MDR routes");
    let router = RouterOptions {
        mode_count: 1,
        ..options.router
    };
    let lists: Vec<String> = (0..input.mode_count())
        .map(|m| format!("{job} mdr{m}"))
        .collect();
    for (m, found) in r.width_searches.iter().enumerate() {
        let placement = &r.placements[m];
        let nets = |rrg: &RoutingGraph| {
            nets_for_circuit(&input.circuits()[m], rrg, ModeSet::single(0), |b| {
                placement.site_of(b)
            })
        };
        let count = r.routings[m].nets.len();
        search(out, &lists[m], found, count, options.max_width, |w| {
            overuse_at(&r.arch, w, router, nets)
        });
    }
    for (list, routing) in lists.iter().zip(&r.routings) {
        let (width, nets) = (r.arch.channel_width, routing.nets.len());
        line(out, list, "final", width, nets, &routing.overuse);
    }
}

/// A DCS leg: the tunable circuit's audited width search, then its route
/// at the final width.
fn dcs_leg(
    out: &mut String,
    list: &str,
    cost: CostKind,
    input: &MultiModeInput,
    options: &FlowOptions,
) {
    let r = DcsFlow::new(*options)
        .with_cost(cost)
        .run(input)
        .expect("DCS routes");
    let router = RouterOptions {
        mode_count: input.mode_count(),
        ..options.router
    };
    let [found] = &r.width_searches[..] else {
        panic!("{list}: one width search");
    };
    let (width, nets) = (r.arch.channel_width, r.routing.nets.len());
    search(out, list, found, nets, options.max_width, |w| {
        overuse_at(&r.arch, w, router, |rrg| r.tunable.route_nets(rrg))
    });
    line(out, list, "final", width, nets, &r.routing.overuse);
}

/// The paper's 30 pairings, named as `suite:<name>` batches name them.
fn pairings() -> Vec<(String, Vec<LutCircuit>)> {
    let k = 4;
    let mut jobs = Vec::new();
    for (circuits, tuples) in [
        (
            mm_gen::regexp_suite(k),
            mm_gen::all_tuples(mm_gen::SUITE_SIZE, 2),
        ),
        (mm_gen::fir_suite(k), mm_gen::fir_mode_tuples(2)),
        (
            mm_gen::mcnc_suite(k),
            mm_gen::all_tuples(mm_gen::SUITE_SIZE, 2),
        ),
    ] {
        for tuple in tuples {
            let modes: Vec<LutCircuit> = tuple.iter().map(|&i| circuits[i].clone()).collect();
            let name = modes
                .iter()
                .map(|c| c.name().to_string())
                .collect::<Vec<_>>()
                .join("+");
            jobs.push((name, modes));
        }
    }
    jobs
}

#[test]
#[ignore = "regenerates the route crate's overuse corpus; minutes of routing"]
fn generate_overuse_corpus() {
    let options = FlowOptions::default();
    let jobs = pairings();
    assert_eq!(jobs.len(), 30);
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, String)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((name, circuits)) = jobs.get(i) else {
                            return mine;
                        };
                        let input = MultiModeInput::new(circuits.clone()).expect("valid pairing");
                        let mut out = String::new();
                        mdr_leg(&mut out, name, &input, &options);
                        for (leg, cost) in [
                            ("edge", CostKind::EdgeMatching),
                            ("wl", CostKind::WireLength),
                        ] {
                            let list = format!("{name} {leg}");
                            dcs_leg(&mut out, &list, cost, &input, &options);
                        }
                        mine.push((i, out));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    let mut text = String::from(
        "# Overused-node count per PathFinder iteration of every route of the\n\
         # paper's 30 pairings run as pair jobs at the default options. Each\n\
         # width search also routes the old doubling ladder's widths and\n\
         # w*-3..w*+3; a width the search did not probe is tagged audit.\n\
         # Generated by crates/core/tests/overuse_corpus.rs; one route a line:\n\
         # <job> <leg> <probe|audit|final> <width> <nets> <overuse per iteration...>\n",
    );
    for (_, out) in done {
        text.push_str(&out);
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../route/tests/data/overuse_corpus.txt"
    );
    std::fs::write(path, text).expect("write the corpus");
}
