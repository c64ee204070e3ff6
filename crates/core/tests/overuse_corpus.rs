//! Generator of the route crate's overuse corpus
//! (`crates/route/tests/data/overuse_corpus.txt`), which its stop-rule
//! replay and width-monotonicity tests read: the overused-node count per
//! PathFinder iteration of every route a `pair` job makes on the paper's
//! 30 pairings (10 regexp, 10 fir `lp i + hp i`, 10 mcnc) at the default
//! options — every width probe and final route of its MDR, DCS
//! edge-matching and DCS wire-length legs.
//!
//! Each width search is audited as well: the widths the doubling ladder
//! the search replaced would have probed (4, 8, 16, … then bisection,
//! derived from the minimum), and every width from w*−3 to w*+3, are
//! routed too. A width either ladder probes is tagged `probe`, any other
//! `audit`.
//!
//! The legs are re-run through the public calls the flows make, so each
//! width probe's series is visible. Regenerate after a router change with
//!
//! ```text
//! cargo test --release -p mm-flow --test overuse_corpus -- --ignored --nocapture
//! ```
//!
//! (about eleven minutes on two CPUs).

use mm_arch::{Architecture, RoutingGraph};
use mm_boolexpr::ModeSet;
use mm_flow::{DcsFlow, FlowOptions, MdrFlow, MultiModeInput, TunableCircuit};
use mm_netlist::LutCircuit;
use mm_place::CostKind;
use mm_route::{min_channel_width, nets_for_circuit, relaxed_width, RouteNet, Router};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One corpus line: `<job> <leg> <probe|audit|final> <width> <nets>
/// <overuse…>`.
fn line(
    out: &mut String,
    job: &str,
    leg: &str,
    kind: &str,
    width: usize,
    nets: usize,
    o: &[usize],
) {
    let series: Vec<String> = o.iter().map(ToString::to_string).collect();
    writeln!(
        out,
        "{job} {leg} {kind} {width} {nets} {}",
        series.join(" ")
    )
    .unwrap();
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

/// The width search of one leg, as `min_channel_width` runs it, and its
/// audit: logs every probe, then routes and logs the doubling ladder's
/// widths and w*−3..=w*+3 that the search did not probe, one line a
/// width in ascending order. Prints the search's probes
/// (`<width><ok|x>/<iterations>`) to stderr and returns the minimum
/// width.
fn search(
    out: &mut String,
    job: &str,
    leg: &str,
    base: &Architecture,
    options: &FlowOptions,
    router: &mm_route::RouterOptions,
    mut nets: impl FnMut(&RoutingGraph) -> Vec<RouteNet>,
) -> usize {
    let mut count = 0;
    let found = min_channel_width(base, router, options.max_width, |rrg| {
        let list = nets(rrg);
        count = list.len();
        list
    })
    .expect("every paper pairing routes");
    let min = found.min_width;
    let ladder: Vec<String> = found
        .probes
        .iter()
        .map(|p| {
            let verdict = if p.success { "ok" } else { "x" };
            format!("{}{verdict}/{}", p.width, p.iterations)
        })
        .collect();
    eprintln!("{job} {leg}: w* {min}, probes {}", ladder.join(" "));
    let mut routes: BTreeMap<usize, (&str, Vec<usize>)> = found
        .probes
        .into_iter()
        .map(|p| (p.width, ("probe", p.overuse)))
        .collect();
    let old = doubling_probes(min, options.max_width);
    let near = min.saturating_sub(3).max(1)..=(min + 3).min(options.max_width);
    let extra = old
        .into_iter()
        .map(|w| (w, "probe"))
        .chain(near.map(|w| (w, "audit")));
    for (w, kind) in extra {
        routes.entry(w).or_insert_with(|| {
            let rrg = RoutingGraph::build(&base.with_channel_width(w));
            (kind, Router::new(&rrg, *router).route(&nets(&rrg)).overuse)
        });
    }
    for (w, (kind, series)) in &routes {
        line(out, job, leg, kind, *w, count, series);
    }
    min
}

/// The MDR leg: per-mode placements and width searches, then every mode
/// at one shared width, grown together on a failure.
fn mdr_leg(out: &mut String, job: &str, input: &MultiModeInput, options: &FlowOptions) {
    let base = options.base_arch(input);
    let router = mm_route::RouterOptions {
        mode_count: 1,
        ..options.router
    };
    let placements = MdrFlow::new(*options).place(input).expect("MDR places");
    let mode_nets = |m: usize, rrg: &RoutingGraph| {
        let placement = &placements[m];
        nets_for_circuit(&input.circuits()[m], rrg, ModeSet::single(0), |b| {
            placement.site_of(b)
        })
    };
    let mut min = 0;
    for m in 0..input.mode_count() {
        let leg = format!("mdr{m}");
        min = min.max(search(out, job, &leg, &base, options, &router, |rrg| {
            mode_nets(m, rrg)
        }));
    }
    let mut width = relaxed_width(min).min(options.max_width);
    loop {
        let rrg = RoutingGraph::build(&base.with_channel_width(width));
        let mut engine = Router::new(&rrg, router);
        let mut ok = true;
        for m in 0..input.mode_count() {
            let nets = mode_nets(m, &rrg);
            let routing = engine.route(&nets);
            line(
                out,
                job,
                &format!("mdr{m}"),
                "final",
                width,
                nets.len(),
                &routing.overuse,
            );
            if !routing.success {
                ok = false;
                break;
            }
        }
        if ok {
            return;
        }
        assert!(width < options.max_width, "{job}: MDR unroutable");
        width = (width + width.div_ceil(8)).min(options.max_width);
    }
}

/// A DCS leg: combined placement, tunable circuit, width search, then
/// the route at the relaxed width, grown on a failure.
fn dcs_leg(
    out: &mut String,
    job: &str,
    leg: &str,
    cost: CostKind,
    input: &MultiModeInput,
    options: &FlowOptions,
) {
    let base = options.base_arch(input);
    let router = mm_route::RouterOptions {
        mode_count: input.mode_count(),
        ..options.router
    };
    let placement = DcsFlow::new(*options)
        .with_cost(cost)
        .place(input)
        .expect("DCS places");
    let tunable =
        TunableCircuit::from_placement(input.circuits(), &placement, &base).expect("tunable");
    let width = relaxed_width(search(out, job, leg, &base, options, &router, |rrg| {
        tunable.route_nets(rrg)
    }));
    let mut grow = 0;
    loop {
        let w = (width + grow).min(options.max_width);
        let rrg = RoutingGraph::build(&base.with_channel_width(w));
        let nets = tunable.route_nets(&rrg);
        let routing = Router::new(&rrg, router).route(&nets);
        line(out, job, leg, "final", w, nets.len(), &routing.overuse);
        if routing.success {
            return;
        }
        assert!(w < options.max_width, "{job}: {leg} unroutable");
        grow = if grow == 0 { 1 } else { grow * 2 };
    }
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
                        dcs_leg(
                            &mut out,
                            name,
                            "edge",
                            CostKind::EdgeMatching,
                            &input,
                            &options,
                        );
                        dcs_leg(&mut out, name, "wl", CostKind::WireLength, &input, &options);
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
         # w*-3..w*+3; a width neither ladder probed is tagged audit.\n\
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
