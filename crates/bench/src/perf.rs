//! Measured performance harness behind `mmflow bench`.
//!
//! Two reproducible, seeded benchmarks with a JSON report each, so every
//! PR's speedup lands in `BENCH_router.json` / `BENCH_flow.json` at the
//! repo root instead of anecdotes:
//!
//! * [`router_perf`] — the PathFinder hot path. *Baseline* is the naive
//!   reference formulation with bounding boxes disabled
//!   (`mm_route::reference`, exactly the pre-optimization router);
//!   *optimized* is [`Router`] with its scratch arena and default
//!   bounding boxes, reused across repetitions the way the flows reuse
//!   it. The report carries both wall-clocks, routes/second and the
//!   speedup, plus a parity check (optimized == reference under
//!   identical options). Its `width_search` section runs the
//!   relaxed-width channel-width search of a pair's DCS wire-length and
//!   edge-matching legs ([`WidthSearchRun`]) and reports how many
//!   probes each made and how many PathFinder iterations the failed ones
//!   cost.
//! * [`placer_perf`] — the simulated-annealing inner loop. *Baseline* is
//!   the annealer on the naive hash-map cost model
//!   (`mm_place::reference`); *optimized* is the flat, allocation-free
//!   [`mm_place::CostModel`]. The two anneal byte-identical placements
//!   (checked and reported), so the moves/second ratio is a pure
//!   data-structure speedup. The headline run uses the `Hybrid` cost
//!   (both the wire-length and the pair-count halves of the model are
//!   live); a secondary wire-length-only measurement rides along in the
//!   same report.
//! * [`flow_perf`] — the batch engine. A cold run against an empty stage
//!   cache, a warm re-run (everything from cache), a `pair` job that
//!   shares the placement stages plain `dcs`/`mdr` jobs cached — the
//!   cross-job stage-sharing number — an `nmodes` sub-benchmark:
//!   3-mode combined-comparison jobs cold/warm, parity-gated on
//!   `run_combined_n` over two modes reproducing `run_pair` exactly —
//!   and a `stagegraph` cache-replay sweep: re-running a batch with
//!   only router options changed must leave every placement node warm
//!   (structural fingerprints exclude downstream options), and the
//!   replayed records must match a cacheless run byte for byte.
//! * [`serve_perf`] — the long-running service. A real `mm-serve` server
//!   on a Unix socket, a cold batch submitted over the wire and a warm
//!   re-submission against the shared stage cache: end-to-end jobs/sec
//!   including protocol framing, plus a byte-parity check of the socket
//!   stream against a direct engine run.
//! * [`sta_perf`] — the timing-driven flow: the `timing:<alpha>` DCS
//!   cost vs the wirelength-only baseline on a deep-logic multi-mode
//!   problem, reporting the critical-path win and the wirelength price
//!   paid for it.
//!
//! All have a `--smoke` sized variant for CI.
//!
//! Each report's `check` lists every gate it violates (parity,
//! routability, cache transparency, chaos, the timing ratios, and that
//! its artefact text parses), each as `field: what failed`. It is the
//! report's only gate: `mmflow bench` refuses to write an artefact
//! whose `check` is not empty. Gates read the values the artefact
//! records, so a rounded field is compared rounded.

use mm_arch::{Architecture, RoutingGraph};
use mm_boolexpr::ModeSet;
use mm_engine::json::ObjBuilder;
use mm_engine::{Engine, EngineOptions, FlowKind, Job};
use mm_flow::stage::CacheOutcome;
use mm_flow::FlowOptions;
use mm_netlist::LutCircuit;
use mm_place::{place_combined, place_combined_reference, CostKind, PlacerOptions};
use mm_route::reference::route_reference;
use mm_route::{RouteNet, RouteSink, Router, RouterOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Benchmark sizing.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// Tiny workload for CI smoke runs.
    pub smoke: bool,
    /// Timed repetitions per measurement.
    pub reps: usize,
    /// Worker threads for the flow/serve workloads (`0` = one per CPU).
    /// Whatever the engine actually resolves is recorded in the reports.
    pub threads: usize,
}

impl PerfConfig {
    /// The default configuration (`smoke` scales the workload down).
    #[must_use]
    pub fn new(smoke: bool) -> Self {
        Self {
            smoke,
            reps: if smoke { 3 } else { 10 },
            threads: 0,
        }
    }
}

/// The fewest interleaved off/on routes behind each Steiner speedup,
/// whatever [`PerfConfig::reps`] says: with one sample a side, host noise
/// alone could fail its gate. 15 pairs of millisecond routes span a few
/// hundred milliseconds, so a burst of host noise rarely covers every
/// sample of one side.
const STEINER_TIMED_REPS: usize = 15;

/// The samples behind each rate the contention gate compares: the warm
/// rate is the median of at least this many warm re-submissions
/// (whatever [`PerfConfig::reps`] says), and the saturation rate the
/// median of this many contention storms, so neither is one short
/// sample.
const SERVE_SAMPLES: usize = 5;

/// A seeded multi-mode routing workload: fabric plus nets.
///
/// Deterministic for a given `config.smoke`, so baseline and optimized
/// runs route exactly the same problem.
#[must_use]
pub fn router_workload(config: &PerfConfig) -> (RoutingGraph, Vec<RouteNet>, RouterOptions) {
    let (grid, width, net_count) = if config.smoke {
        (8usize, 8usize, 24usize)
    } else {
        (22, 8, 160)
    };
    let modes = 2usize;
    let rrg = RoutingGraph::build(&Architecture::new(4, grid, width));
    let mut rng = StdRng::seed_from_u64(0xbe7c);
    // Each net needs its own driver site (a SOURCE has capacity 1):
    // deal the logic sites out in shuffled order.
    let mut sources: Vec<mm_arch::Site> = (1..=grid)
        .flat_map(|x| (1..=grid).map(move |y| mm_arch::Site::new(x as u16, y as u16, 0)))
        .collect();
    for i in (1..sources.len()).rev() {
        sources.swap(i, rng.gen_range(0..=i));
    }
    assert!(net_count <= sources.len(), "one driver site per net");
    let mut nets = Vec::with_capacity(net_count);
    for (i, &driver) in sources.iter().take(net_count).enumerate() {
        let site = |rng: &mut StdRng| {
            mm_arch::Site::new(
                rng.gen_range(1..=grid) as u16,
                rng.gen_range(1..=grid) as u16,
                0,
            )
        };
        let source = rrg.logic_source(driver);
        let sink_count = rng.gen_range(1..=3usize);
        let sinks = (0..sink_count)
            .map(|_| {
                let mut act = ModeSet::single(rng.gen_range(0..modes));
                if rng.gen_bool(0.25) {
                    act.insert(rng.gen_range(0..modes));
                }
                RouteSink {
                    node: rrg.logic_sink(site(&mut rng)),
                    activation: act,
                }
            })
            .collect();
        nets.push(RouteNet {
            name: format!("n{i}"),
            source,
            sinks,
        });
    }
    (rrg, nets, RouterOptions::for_modes(modes))
}

/// A seeded high-fanout (broadcast-shaped) routing workload: one hub
/// net with `fanout` sinks dealt out across the whole fabric, plus
/// `fanout / 4` single-sink background nets for congestion pressure.
///
/// Deterministic per `(grid, width, fanout)`, so the steiner-off and
/// steiner-on measurements route exactly the same problem.
#[must_use]
pub fn high_fanout_workload(
    grid: usize,
    width: usize,
    fanout: usize,
) -> (RoutingGraph, Vec<RouteNet>) {
    let rrg = RoutingGraph::build(&Architecture::new(4, grid, width));
    let mut rng = StdRng::seed_from_u64(0xfa40 ^ fanout as u64);
    let mut sites: Vec<mm_arch::Site> = (1..=grid)
        .flat_map(|x| (1..=grid).map(move |y| mm_arch::Site::new(x as u16, y as u16, 0)))
        .collect();
    for i in (1..sites.len()).rev() {
        sites.swap(i, rng.gen_range(0..=i));
    }
    let background = fanout / 4;
    assert!(
        sites.len() > fanout + background,
        "fabric too small for fanout {fanout}"
    );
    let all = ModeSet::of(&[0]);
    let sinks = sites[1..=fanout]
        .iter()
        .map(|&s| RouteSink {
            node: rrg.logic_sink(s),
            activation: all,
        })
        .collect();
    let mut nets = vec![RouteNet {
        name: "hub".into(),
        source: rrg.logic_source(sites[0]),
        sinks,
    }];
    let rest = &sites[fanout + 1..];
    for (i, &driver) in rest.iter().take(background).enumerate() {
        let target = rest[(i * 7 + 3) % rest.len()];
        nets.push(RouteNet {
            name: format!("bg{i}"),
            source: rrg.logic_source(driver),
            sinks: vec![RouteSink {
                node: rrg.logic_sink(target),
                activation: all,
            }],
        });
    }
    (rrg, nets)
}

/// One measured high-fanout comparison: the broadcast workload routed
/// with the Steiner decomposition off vs on, both parity-gated against
/// the naive reference under identical options.
#[derive(Debug, Clone)]
pub struct HighFanoutRun {
    /// Sinks on the hub net.
    pub fanout: usize,
    /// Nets in the workload (hub + background).
    pub nets: usize,
    /// The `steiner_fanout` threshold used for the "on" measurement.
    pub steiner_fanout: usize,
    /// Best wall-clock with the decomposition off, milliseconds, over at
    /// least 15 runs taken in turn with the "on" ones.
    pub off_ms: f64,
    /// Best wall-clock with the decomposition on, milliseconds.
    pub on_ms: f64,
    /// off / on wall-clock.
    pub speedup: f64,
    /// Total routed tree nodes with the decomposition off.
    pub off_wirelength: usize,
    /// Total routed tree nodes with the decomposition on.
    pub on_wirelength: usize,
    /// on / off wirelength.
    pub wirelength_ratio: f64,
    /// Both gates held: optimized == reference with Steiner off AND
    /// with Steiner on.
    pub parity_ok: bool,
    /// Both configurations routed successfully.
    pub routed: bool,
}

impl HighFanoutRun {
    fn to_value(&self) -> mm_engine::json::Value {
        ObjBuilder::new()
            .field("fanout", self.fanout)
            .field("nets", self.nets)
            .field("steiner_fanout", self.steiner_fanout)
            .field("off_ms", round2(self.off_ms))
            .field("on_ms", round2(self.on_ms))
            .field("speedup", round2(self.speedup))
            .field("off_wirelength", self.off_wirelength)
            .field("on_wirelength", self.on_wirelength)
            .field("wirelength_ratio", round2(self.wirelength_ratio))
            .field("parity_ok", self.parity_ok)
            .field("routed", self.routed)
            .build()
    }
}

/// The router benchmark report.
#[derive(Debug, Clone)]
pub struct RouterPerf {
    /// Fabric side length.
    pub grid: usize,
    /// Channel width.
    pub width: usize,
    /// Nets in the workload.
    pub nets: usize,
    /// Timed repetitions.
    pub reps: usize,
    /// Wall-clock of one full `route()` with the pre-optimization
    /// router (naive reference, no bounding boxes), milliseconds.
    pub baseline_ms: f64,
    /// Wall-clock with the optimized router (scratch arena + bounding
    /// boxes, reused across calls), milliseconds.
    pub optimized_ms: f64,
    /// Optimized router with bounding boxes disabled — isolates the
    /// arena/data-structure contribution, milliseconds.
    pub optimized_no_bbox_ms: f64,
    /// Full routes per second, baseline.
    pub baseline_ops_per_sec: f64,
    /// Full routes per second, optimized.
    pub optimized_ops_per_sec: f64,
    /// baseline / optimized wall-clock.
    pub speedup: f64,
    /// Optimized and reference produced byte-identical routings under
    /// identical options (trees, iteration count).
    pub parity_ok: bool,
    /// The workload routed successfully.
    pub routed: bool,
    /// The high-fanout sweep: Steiner decomposition off vs on per
    /// fanout, each parity-gated against the reference.
    pub high_fanout: Vec<HighFanoutRun>,
    /// The relaxed-width channel-width searches of one pair's DCS legs
    /// (wire-length, then edge-matching), probe by probe.
    pub width_search: Vec<WidthSearchRun>,
}

impl RouterPerf {
    /// The `BENCH_router.json` payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        ObjBuilder::new()
            .field("bench", "router")
            .field(
                "workload",
                ObjBuilder::new()
                    .field("grid", self.grid)
                    .field("channel_width", self.width)
                    .field("nets", self.nets)
                    .field("reps", self.reps)
                    .build(),
            )
            .field("baseline_ms", round2(self.baseline_ms))
            .field("optimized_ms", round2(self.optimized_ms))
            .field("optimized_no_bbox_ms", round2(self.optimized_no_bbox_ms))
            .field("baseline_ops_per_sec", round2(self.baseline_ops_per_sec))
            .field("optimized_ops_per_sec", round2(self.optimized_ops_per_sec))
            .field("speedup", round2(self.speedup))
            .field("parity_ok", self.parity_ok)
            .field("routed", self.routed)
            .field(
                "high_fanout",
                self.high_fanout
                    .iter()
                    .map(HighFanoutRun::to_value)
                    .collect::<Vec<_>>(),
            )
            .field(
                "width_search",
                self.width_search
                    .iter()
                    .map(WidthSearchRun::to_value)
                    .collect::<Vec<_>>(),
            )
            .build()
            .to_json()
    }

    /// Every gate this report violates (see the module docs). The smoke
    /// pair's minimum width is pinned under `config.smoke` only.
    #[must_use]
    pub fn check(&self, config: &PerfConfig) -> Vec<String> {
        let mut g = Gates::default();
        g.require(self.parity_ok, "parity_ok: optimized router != reference");
        g.require(self.routed, "routed: the workload did not route");
        let hf = &self.high_fanout;
        g.require(hf.len() >= 2, "high_fanout: fewer than 2 fanouts swept");
        g.require(
            hf.iter().any(|h| h.fanout >= 64),
            "high_fanout: the sweep stops below fanout 64",
        );
        for h in hf {
            let at = format!("high_fanout[fanout {}]", h.fanout);
            g.require(
                h.parity_ok,
                format!("{at}.parity_ok: steiner parity failed"),
            );
            g.require(h.routed, format!("{at}.routed: the workload did not route"));
            let (wl, speedup) = (round2(h.wirelength_ratio), round2(h.speedup));
            g.require(wl <= 1.05, format!("{at}.wirelength_ratio: {wl} > 1.05"));
            g.require(
                h.fanout < 64 || speedup >= 1.0,
                format!("{at}.speedup: {speedup}, steiner mode must not be slower"),
            );
        }
        for ws in &self.width_search {
            let at = format!("width_search[{}]", ws.leg);
            g.require(
                ws.failed_probes >= 1,
                format!("{at}.failed_probes: the search has no failed probe"),
            );
            g.require(
                ws.failed_probe_iterations < ws.max_iterations * ws.failed_probes,
                format!(
                    "{at}.failed_probe_iterations: {} reaches the cap of {} x {} failed probes",
                    ws.failed_probe_iterations, ws.max_iterations, ws.failed_probes
                ),
            );
            let pinned = smoke_min_width(ws.leg);
            g.require(
                !config.smoke || ws.min_width == pinned,
                format!(
                    "{at}.min_width: {}, the smoke pair's is {pinned}",
                    ws.min_width
                ),
            );
        }
        g.finish(&self.to_json())
    }
}

/// The smoke width-search pair's minimum channel width on the DCS `leg`,
/// as the doubling ladder the search replaced found it (the wire-length
/// leg's also before the routability predictor existed): neither the
/// stop rules nor the search's probe order may move it.
fn smoke_min_width(leg: &str) -> usize {
    match leg {
        "edge" => 8,
        _ => 7,
    }
}

/// One relaxed-width search (`mm_route::min_channel_width`) on a DCS leg
/// of a pair, read off [`MinWidthResult::probes`]: how many probes it
/// made, how many failed and how many PathFinder iterations those cost
/// before the router's stop rules ended them.
///
/// [`MinWidthResult::probes`]: mm_route::MinWidthResult::probes
#[derive(Debug, Clone)]
pub struct WidthSearchRun {
    /// The pair searched, named like `suite:<name>` jobs name it.
    pub pair: String,
    /// The DCS leg: `wirelength` or `edge` (its placement cost).
    pub leg: &'static str,
    /// The router's iteration cap: what every failed probe would run
    /// without the predictor.
    pub max_iterations: usize,
    /// The minimum channel width found.
    pub min_width: usize,
    /// Width probes made.
    pub probes: usize,
    /// Probes that did not route.
    pub failed_probes: usize,
    /// PathFinder iterations of the failed probes, summed.
    pub failed_probe_iterations: usize,
    /// Timed searches.
    pub reps: usize,
    /// Median wall-clock of one search, milliseconds.
    pub wall_ms: f64,
    /// Fastest search, milliseconds.
    pub wall_ms_min: f64,
    /// Slowest search, milliseconds.
    pub wall_ms_max: f64,
}

impl WidthSearchRun {
    fn to_value(&self) -> mm_engine::json::Value {
        ObjBuilder::new()
            .field("pair", self.pair.as_str())
            .field("leg", self.leg)
            .field("max_iterations", self.max_iterations)
            .field("min_width", self.min_width)
            .field("probes", self.probes)
            .field("failed_probes", self.failed_probes)
            .field("failed_probe_iterations", self.failed_probe_iterations)
            .field("reps", self.reps)
            .field("wall_ms", round2(self.wall_ms))
            .field("wall_ms_min", round2(self.wall_ms_min))
            .field("wall_ms_max", round2(self.wall_ms_max))
            .build()
    }
}

/// The width-search workload. Full: regexp0+regexp1 at effort 1 and the
/// default placer seed, the median job of the `paper_relaxed` end-to-end
/// workload. Smoke: a small seeded pair whose search still has failed
/// probes.
fn width_search_input(smoke: bool) -> (String, mm_flow::MultiModeInput, FlowOptions) {
    let circuits = if smoke {
        vec![
            random_circuit("w0", 6, 40, 0x5713),
            random_circuit("w1", 6, 40, 0x5714),
        ]
    } else {
        mm_gen::regexp_suite(4).into_iter().take(2).collect()
    };
    let pair = circuits
        .iter()
        .map(LutCircuit::name)
        .collect::<Vec<_>>()
        .join("+");
    let input = mm_flow::MultiModeInput::new(circuits).expect("generated circuits are valid");
    let mut options = FlowOptions::default();
    options.placer.inner_num = 1.0;
    (pair, input, options)
}

/// Runs the width-search measurement of the DCS leg placed with `cost`:
/// place the pair once, then time `reps` identical searches over its
/// tunable circuit.
///
/// # Panics
///
/// Panics if the workload fails to place or route at any width.
fn width_search_run(smoke: bool, reps: usize, cost: CostKind) -> WidthSearchRun {
    let (pair, input, options) = width_search_input(smoke);
    let placement = mm_flow::DcsFlow::new(options)
        .with_cost(cost)
        .place(&input)
        .expect("workload places");
    let base = options.base_arch(&input);
    let tunable = mm_flow::TunableCircuit::from_placement(input.circuits(), &placement, &base)
        .expect("placement yields a tunable circuit");
    let router = RouterOptions {
        mode_count: input.mode_count(),
        ..options.router
    };
    let reps = reps.max(1);
    let mut wall_ms = Vec::with_capacity(reps);
    let mut found = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let result = mm_route::min_channel_width(&base, &router, options.max_width, |rrg| {
            tunable.route_nets(rrg)
        })
        .expect("workload routes below the width cap");
        wall_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
        found = Some(result);
    }
    let found = found.expect("at least one search");
    wall_ms.sort_by(f64::total_cmp);
    let failed: Vec<_> = found.probes.iter().filter(|p| !p.success).collect();
    WidthSearchRun {
        pair,
        leg: if cost == CostKind::EdgeMatching {
            "edge"
        } else {
            "wirelength"
        },
        max_iterations: router.max_iterations,
        min_width: found.min_width,
        probes: found.probes.len(),
        failed_probes: failed.len(),
        failed_probe_iterations: failed.iter().map(|p| p.iterations).sum(),
        reps,
        wall_ms: wall_ms[reps / 2],
        wall_ms_min: wall_ms[0],
        wall_ms_max: wall_ms[reps - 1],
    }
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// The gates one report violates, in order, each as `field: what
/// failed`.
#[derive(Default)]
struct Gates(Vec<String>);

impl Gates {
    /// Notes `why` unless the gate holds.
    fn require(&mut self, holds: bool, why: impl Into<String>) {
        if !holds {
            self.0.push(why.into());
        }
    }

    /// The gate every artefact shares, then the list: `text` must parse
    /// with [`mm_engine::json::parse`].
    fn finish(mut self, text: &str) -> Vec<String> {
        let parsed = mm_engine::json::parse(text);
        self.require(parsed.is_ok(), "json: the artefact text does not parse");
        self.0
    }
}

fn routings_identical(a: &mm_route::Routing, b: &mm_route::Routing) -> bool {
    a.iterations == b.iterations
        && a.success == b.success
        && a.nets.len() == b.nets.len()
        && a.nets.iter().zip(&b.nets).all(|(x, y)| {
            x.sink_pos == y.sink_pos
                && x.tree.len() == y.tree.len()
                && x.tree.iter().zip(&y.tree).all(|(s, t)| {
                    s.node == t.node
                        && s.parent == t.parent
                        && s.switch == t.switch
                        && s.activation == t.activation
                })
        })
}

/// Runs the router benchmark: pre-optimization baseline vs the scratch-
/// arena + bounding-box hot path on the same seeded workload.
#[must_use]
pub fn router_perf(config: &PerfConfig) -> RouterPerf {
    let (rrg, nets, options) = router_workload(config);
    let reps = config.reps.max(1);

    // Parity sanity: optimized == reference under identical options.
    let optimized_result = Router::new(&rrg, options).route(&nets);
    let reference_result = route_reference(&rrg, options, &nets);
    let parity_ok = routings_identical(&optimized_result, &reference_result);

    // Baseline: the pre-optimization router — naive data structures,
    // full-fabric exploration, wholesale tear-down of congested nets,
    // fresh allocations per net and per run.
    let baseline_options = options.without_bbox().with_full_reroute();
    let t0 = Instant::now();
    for _ in 0..reps {
        let r = route_reference(&rrg, baseline_options, &nets);
        std::hint::black_box(r.success);
    }
    let baseline_ms = t0.elapsed().as_secs_f64() * 1000.0 / reps as f64;

    // Optimized: one router reused across runs, the way the flows and
    // the width search reuse it — zero per-net allocations in steady
    // state.
    let mut router = Router::new(&rrg, options);
    let _ = router.route(&nets); // warm the arena
    let t0 = Instant::now();
    for _ in 0..reps {
        let r = router.route(&nets);
        std::hint::black_box(r.success);
    }
    let optimized_ms = t0.elapsed().as_secs_f64() * 1000.0 / reps as f64;

    // Decomposition: the arena without bounding boxes.
    let mut router_nb = Router::new(&rrg, baseline_options);
    let _ = router_nb.route(&nets);
    let t0 = Instant::now();
    for _ in 0..reps {
        let r = router_nb.route(&nets);
        std::hint::black_box(r.success);
    }
    let optimized_no_bbox_ms = t0.elapsed().as_secs_f64() * 1000.0 / reps as f64;

    let (grid, width) = {
        // Recover the workload shape for the report.
        if config.smoke {
            (8, 8)
        } else {
            (22, 8)
        }
    };
    let fanouts: &[usize] = if config.smoke {
        &[32, 64]
    } else {
        &[32, 64, 128]
    };
    // The high-fanout comparison keeps the full-size grid even in smoke
    // mode (milliseconds per run): on a toy fabric the hub's sinks tile
    // the whole grid, the "local" Steiner boxes degenerate into the net
    // box, and the measured ratio says nothing about the decomposition.
    let hf_grid = 22;
    let high_fanout = fanouts
        .iter()
        .map(|&f| high_fanout_run(hf_grid, width, f, reps))
        .collect();
    // A search costs seconds at full size, so it gets fewer repetitions
    // than the millisecond routes above.
    let width_search = [CostKind::WireLength, CostKind::EdgeMatching]
        .into_iter()
        .map(|cost| width_search_run(config.smoke, reps.min(3), cost))
        .collect();
    RouterPerf {
        grid,
        width,
        nets: nets.len(),
        reps,
        baseline_ms,
        optimized_ms,
        optimized_no_bbox_ms,
        baseline_ops_per_sec: 1000.0 / baseline_ms.max(1e-9),
        optimized_ops_per_sec: 1000.0 / optimized_ms.max(1e-9),
        speedup: baseline_ms / optimized_ms.max(1e-9),
        parity_ok,
        routed: optimized_result.success,
        high_fanout,
        width_search,
    }
}

/// Measures one high-fanout comparison: the same broadcast workload
/// routed with the Steiner decomposition off and on. Wall-clocks are
/// the best of at least [`STEINER_TIMED_REPS`] interleaved runs each (the
/// minimum is the least noisy location estimate for a CI-gated ratio);
/// both configurations are parity-checked against the naive reference
/// before timing.
fn high_fanout_run(grid: usize, width: usize, fanout: usize, reps: usize) -> HighFanoutRun {
    /// Any net at or above this sink count routes along the Steiner
    /// topology in the "on" configuration — between the background
    /// fanout (1) and the smallest hub fanout benched (32).
    const STEINER_THRESHOLD: usize = 16;
    let (rrg, nets) = high_fanout_workload(grid, width, fanout);
    let options_off = RouterOptions::default();
    let options_on = options_off.with_steiner(STEINER_THRESHOLD);

    let off_result = Router::new(&rrg, options_off).route(&nets);
    let on_result = Router::new(&rrg, options_on).route(&nets);
    let parity_ok = routings_identical(&off_result, &route_reference(&rrg, options_off, &nets))
        && routings_identical(&on_result, &route_reference(&rrg, options_on, &nets));

    let wirelength = |r: &mm_route::Routing| r.nets.iter().map(|n| n.tree.len()).sum::<usize>();
    // Off and on take turns, each on its own warmed router, so a burst
    // of host noise lands on both; each keeps its best time.
    let mut off = Router::new(&rrg, options_off);
    let mut on = Router::new(&rrg, options_on);
    let _ = (off.route(&nets), on.route(&nets)); // warm the arenas
    let time = |router: &mut Router<'_>| {
        let t0 = Instant::now();
        let r = router.route(&nets);
        std::hint::black_box(r.success);
        t0.elapsed().as_secs_f64() * 1000.0
    };
    let (mut off_ms, mut on_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(STEINER_TIMED_REPS) {
        off_ms = off_ms.min(time(&mut off));
        on_ms = on_ms.min(time(&mut on));
    }
    let (off_wl, on_wl) = (wirelength(&off_result), wirelength(&on_result));
    HighFanoutRun {
        fanout,
        nets: nets.len(),
        steiner_fanout: STEINER_THRESHOLD,
        off_ms,
        on_ms,
        speedup: off_ms / on_ms.max(1e-9),
        off_wirelength: off_wl,
        on_wirelength: on_wl,
        wirelength_ratio: on_wl as f64 / off_wl.max(1) as f64,
        parity_ok,
        routed: off_result.success && on_result.success,
    }
}

/// A seeded multi-mode combined-placement workload: mode circuits, the
/// fabric, and the annealer options (the `Hybrid` cost, so both the
/// wire-length and the pair-count halves of the model are exercised).
///
/// Deterministic for a given `config.smoke`, so the optimized and naive
/// models anneal exactly the same problem (and, being bit-identical,
/// exactly the same move sequence).
#[must_use]
pub fn placer_workload(config: &PerfConfig) -> (Vec<LutCircuit>, Architecture, PlacerOptions) {
    let (luts, grid) = if config.smoke { (26, 7) } else { (150, 15) };
    let circuits = vec![
        random_circuit("m0", 6, luts, 0x91ace ^ 1),
        random_circuit("m1", 6, luts + 4, 0x91ace ^ 2),
    ];
    let options = PlacerOptions {
        cost: CostKind::Hybrid {
            wl_weight: 1.0,
            edge_weight: 2.0,
        },
        inner_num: 1.0,
        seed: 0xbe7c,
        max_temperatures: if config.smoke { 24 } else { 80 },
    };
    (circuits, Architecture::new(4, grid, 8), options)
}

/// One measured annealer comparison (a cost kind on the shared workload).
#[derive(Debug, Clone)]
pub struct PlaceRun {
    /// Fingerprint of the cost kind annealed.
    pub cost: String,
    /// Annealer swaps attempted per run (identical on both models).
    pub moves: usize,
    /// Wall-clock of one combined placement on the naive hash-map model,
    /// milliseconds.
    pub baseline_ms: f64,
    /// Wall-clock on the flat allocation-free model, milliseconds.
    pub optimized_ms: f64,
    /// Annealer moves per second, baseline.
    pub baseline_moves_per_sec: f64,
    /// Annealer moves per second, optimized.
    pub optimized_moves_per_sec: f64,
    /// baseline / optimized wall-clock.
    pub speedup: f64,
    /// The two models produced byte-identical placements and statistics.
    pub parity_ok: bool,
}

impl PlaceRun {
    fn json(&self) -> mm_engine::json::Value {
        ObjBuilder::new()
            .field("cost", self.cost.clone())
            .field("moves_per_run", self.moves)
            .field("baseline_ms", round2(self.baseline_ms))
            .field("optimized_ms", round2(self.optimized_ms))
            .field(
                "baseline_moves_per_sec",
                round2(self.baseline_moves_per_sec),
            )
            .field(
                "optimized_moves_per_sec",
                round2(self.optimized_moves_per_sec),
            )
            .field("speedup", round2(self.speedup))
            .field("parity_ok", self.parity_ok)
            .build()
    }
}

/// The placer benchmark report: the headline `Hybrid`-cost run (both
/// model halves live) plus a wire-length-only run on the same workload.
#[derive(Debug, Clone)]
pub struct PlacePerf {
    /// Fabric side length.
    pub grid: usize,
    /// Modes placed simultaneously.
    pub modes: usize,
    /// LUTs of the largest mode.
    pub luts: usize,
    /// Timed repetitions.
    pub reps: usize,
    /// The headline hybrid-cost comparison.
    pub hybrid: PlaceRun,
    /// The wire-length-only comparison (the paper's default cost).
    pub wirelength: PlaceRun,
}

impl PlacePerf {
    /// Both parity checks passed.
    #[must_use]
    pub fn parity_ok(&self) -> bool {
        self.hybrid.parity_ok && self.wirelength.parity_ok
    }

    /// The `BENCH_place.json` payload: the headline speedup/parity plus
    /// one nested object per measured cost kind (both emitted by
    /// `PlaceRun::json`, so the two stay structurally identical).
    #[must_use]
    pub fn to_json(&self) -> String {
        ObjBuilder::new()
            .field("bench", "place")
            .field(
                "workload",
                ObjBuilder::new()
                    .field("grid", self.grid)
                    .field("modes", self.modes)
                    .field("luts", self.luts)
                    .field("reps", self.reps)
                    .build(),
            )
            .field("speedup", round2(self.hybrid.speedup))
            .field("parity_ok", self.parity_ok())
            .field("hybrid", self.hybrid.json())
            .field("wirelength", self.wirelength.json())
            .build()
            .to_json()
    }

    /// Every gate this report violates (see the module docs).
    #[must_use]
    pub fn check(&self, _config: &PerfConfig) -> Vec<String> {
        let mut g = Gates::default();
        g.require(
            self.hybrid.parity_ok,
            "hybrid.parity_ok: flat model != naive model",
        );
        g.require(
            self.wirelength.parity_ok,
            "wirelength.parity_ok: flat model != naive model",
        );
        g.finish(&self.to_json())
    }
}

/// Anneals the workload under one cost kind on both models and compares.
fn place_run(
    circuits: &[LutCircuit],
    arch: &Architecture,
    options: &PlacerOptions,
    reps: usize,
) -> PlaceRun {
    // Parity sanity: the two models anneal byte-identical placements.
    let (fast, fast_stats) = place_combined(circuits, arch, options).expect("workload places");
    let (naive, naive_stats) =
        place_combined_reference(circuits, arch, options).expect("workload places");
    let mut parity_ok = fast_stats.final_cost.to_bits() == naive_stats.final_cost.to_bits()
        && fast_stats.moves == naive_stats.moves
        && fast_stats.temperatures == naive_stats.temperatures;
    for (m, c) in circuits.iter().enumerate() {
        for id in c.block_ids() {
            parity_ok &= fast.modes[m].site_of(id) == naive.modes[m].site_of(id);
        }
    }

    let t0 = Instant::now();
    for _ in 0..reps {
        let (_, s) = place_combined_reference(circuits, arch, options).expect("places");
        std::hint::black_box(s.moves);
    }
    let baseline_ms = t0.elapsed().as_secs_f64() * 1000.0 / reps as f64;

    let t0 = Instant::now();
    for _ in 0..reps {
        let (_, s) = place_combined(circuits, arch, options).expect("places");
        std::hint::black_box(s.moves);
    }
    let optimized_ms = t0.elapsed().as_secs_f64() * 1000.0 / reps as f64;

    PlaceRun {
        cost: options.cost.fingerprint(),
        moves: fast_stats.moves,
        baseline_ms,
        optimized_ms,
        baseline_moves_per_sec: fast_stats.moves as f64 / (baseline_ms / 1000.0).max(1e-9),
        optimized_moves_per_sec: fast_stats.moves as f64 / (optimized_ms / 1000.0).max(1e-9),
        speedup: baseline_ms / optimized_ms.max(1e-9),
        parity_ok,
    }
}

/// Runs the placer benchmark: the annealer on the naive hash-map cost
/// model vs the flat allocation-free model, on the same seeded workload
/// under the hybrid and wire-length costs.
#[must_use]
pub fn placer_perf(config: &PerfConfig) -> PlacePerf {
    let (circuits, arch, options) = placer_workload(config);
    let reps = config.reps.max(1);
    let hybrid = place_run(&circuits, &arch, &options, reps);
    let wl_options = PlacerOptions {
        cost: CostKind::WireLength,
        ..options
    };
    let wirelength = place_run(&circuits, &arch, &wl_options, reps);
    PlacePerf {
        grid: arch.grid,
        modes: circuits.len(),
        luts: circuits
            .iter()
            .map(LutCircuit::lut_count)
            .max()
            .unwrap_or(0),
        reps,
        hybrid,
        wirelength,
    }
}

/// The flow/engine benchmark report.
#[derive(Debug, Clone)]
pub struct FlowPerf {
    /// Jobs in the batch.
    pub jobs: usize,
    /// Worker threads the engine resolved.
    pub threads: usize,
    /// Cold batch wall-clock (empty cache), milliseconds.
    pub cold_wall_ms: f64,
    /// Warm batch wall-clock (everything cached), milliseconds.
    pub warm_wall_ms: f64,
    /// cold / warm wall-clock.
    pub warm_speedup: f64,
    /// Flow stages computed by the cold run.
    pub cold_stages_recomputed: usize,
    /// Flow stages computed by the warm run (0 = full transparency).
    pub warm_stages_recomputed: usize,
    /// Results served from cache on the warm run.
    pub warm_results_from_cache: usize,
    /// Jobs per second on the cold run.
    pub cold_jobs_per_sec: f64,
    /// Placement legs a `pair` job shared from plain `dcs`/`mdr` jobs'
    /// cached stages (0–3; 2 means MDR + DCS-wl came from plain jobs).
    pub pair_placement_hits_from_plain_jobs: usize,
    /// Stages the shared-placement pair job still had to compute.
    pub pair_stages_recomputed: usize,
    /// Warm-run cache hit rate (hits / lookups).
    pub warm_hit_rate: f64,
    /// The multi-mode (>2 modes per problem) sub-benchmark.
    pub nmodes: NModesPerf,
    /// The stage-graph cache-replay sweep.
    pub stagegraph: StageGraphPerf,
}

/// The stage-graph sub-benchmark: a cold batch against a fresh cache,
/// then the same batch with only the router's iteration budget changed.
/// Structural fingerprints exclude downstream options from upstream
/// nodes, so the replay must serve every placement node from cache and
/// recompute only the summaries — and the replayed records must be
/// byte-identical to a cacheless run with the changed options.
#[derive(Debug, Clone)]
pub struct StageGraphPerf {
    /// Jobs in the batch.
    pub jobs: usize,
    /// Cold batch wall-clock (fresh cache), milliseconds.
    pub cold_wall_ms: f64,
    /// Replay wall-clock (router options changed), milliseconds.
    pub replay_wall_ms: f64,
    /// cold / replay wall-clock.
    pub replay_speedup: f64,
    /// Plan nodes the cold run computed (telemetry entries, all jobs).
    pub cold_stage_nodes: usize,
    /// Placement nodes the replay served from cache.
    pub replay_placement_hits: usize,
    /// Placement nodes the replay recomputed — must be 0: a router-only
    /// change can never invalidate an upstream fingerprint.
    pub replay_upstream_recomputed: usize,
    /// Summary nodes the replay recomputed (these *should* miss — their
    /// params carry the changed router options).
    pub replay_summaries_recomputed: usize,
    /// Replayed record bytes == a cacheless run with the same changed
    /// options.
    pub parity_ok: bool,
}

impl StageGraphPerf {
    fn json(&self) -> mm_engine::json::Value {
        ObjBuilder::new()
            .field("jobs", self.jobs)
            .field("cold_wall_ms", round2(self.cold_wall_ms))
            .field("replay_wall_ms", round2(self.replay_wall_ms))
            .field("replay_speedup", round2(self.replay_speedup))
            .field("cold_stage_nodes", self.cold_stage_nodes)
            .field("replay_placement_hits", self.replay_placement_hits)
            .field(
                "replay_upstream_recomputed",
                self.replay_upstream_recomputed,
            )
            .field(
                "replay_summaries_recomputed",
                self.replay_summaries_recomputed,
            )
            .field("parity_ok", self.parity_ok)
            .build()
    }
}

/// The multi-mode sub-benchmark: a batch of 3-mode combined-comparison
/// jobs through the engine, cold and warm, parity-gated on the N = 2
/// case (`run_combined_n` over two modes must equal `run_pair` — record
/// bytes included).
#[derive(Debug, Clone)]
pub struct NModesPerf {
    /// Modes per problem in the workload.
    pub modes: usize,
    /// Jobs in the batch.
    pub jobs: usize,
    /// Cold batch wall-clock (stages not yet cached), milliseconds.
    pub cold_wall_ms: f64,
    /// Warm batch wall-clock (everything cached), milliseconds.
    pub warm_wall_ms: f64,
    /// cold / warm wall-clock.
    pub warm_speedup: f64,
    /// Flow stages computed by the cold run.
    pub cold_stages_recomputed: usize,
    /// Flow stages computed by the warm run (0 = full transparency).
    pub warm_stages_recomputed: usize,
    /// Jobs per second on the cold run.
    pub cold_jobs_per_sec: f64,
    /// `run_combined_n` over two modes produced metrics and a JSONL
    /// record byte-identical to `run_pair` on the same input.
    pub parity_ok: bool,
}

impl NModesPerf {
    fn json(&self) -> mm_engine::json::Value {
        ObjBuilder::new()
            .field("modes", self.modes)
            .field("jobs", self.jobs)
            .field("cold_wall_ms", round2(self.cold_wall_ms))
            .field("warm_wall_ms", round2(self.warm_wall_ms))
            .field("warm_speedup", round2(self.warm_speedup))
            .field("cold_stages_recomputed", self.cold_stages_recomputed)
            .field("warm_stages_recomputed", self.warm_stages_recomputed)
            .field("cold_jobs_per_sec", round2(self.cold_jobs_per_sec))
            .field("parity_ok", self.parity_ok)
            .build()
    }
}

impl FlowPerf {
    /// The `BENCH_flow.json` payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        ObjBuilder::new()
            .field("bench", "flow")
            .field("jobs", self.jobs)
            .field("threads", self.threads)
            .field("cold_wall_ms", round2(self.cold_wall_ms))
            .field("warm_wall_ms", round2(self.warm_wall_ms))
            .field("warm_speedup", round2(self.warm_speedup))
            .field("cold_stages_recomputed", self.cold_stages_recomputed)
            .field("warm_stages_recomputed", self.warm_stages_recomputed)
            .field("warm_results_from_cache", self.warm_results_from_cache)
            .field("cold_jobs_per_sec", round2(self.cold_jobs_per_sec))
            .field(
                "pair_placement_hits_from_plain_jobs",
                self.pair_placement_hits_from_plain_jobs,
            )
            .field("pair_stages_recomputed", self.pair_stages_recomputed)
            .field("warm_hit_rate", round2(self.warm_hit_rate))
            .field("nmodes", self.nmodes.json())
            .field("stagegraph", self.stagegraph.json())
            .build()
            .to_json()
    }

    /// Every gate this report violates (see the module docs).
    #[must_use]
    pub fn check(&self, _config: &PerfConfig) -> Vec<String> {
        let (n, sg) = (&self.nmodes, &self.stagegraph);
        let mut g = Gates::default();
        g.require(
            n.modes >= 3,
            format!("nmodes.modes: {}, not more than 2", n.modes),
        );
        g.require(
            n.parity_ok,
            "nmodes.parity_ok: run_combined_n(N=2) != run_pair",
        );
        g.require(
            n.warm_stages_recomputed == 0,
            "nmodes.warm_stages_recomputed: the N-mode warm run recomputed stages",
        );
        g.require(
            sg.parity_ok,
            "stagegraph.parity_ok: replay bytes != a cacheless run",
        );
        g.require(
            sg.replay_upstream_recomputed == 0,
            "stagegraph.replay_upstream_recomputed: a router-only replay recomputed a placement",
        );
        g.require(
            sg.replay_placement_hits > 0,
            "stagegraph.replay_placement_hits: the replay never hit a cached placement",
        );
        g.require(
            sg.replay_summaries_recomputed > 0,
            "stagegraph.replay_summaries_recomputed: changed router options recomputed no summary",
        );
        g.finish(&self.to_json())
    }
}

/// A deterministic random LUT circuit (the shape used across the repo's
/// tests and benches) — the shared `mm_gen` generator, so the committed
/// BENCH workloads and the test fixtures stay byte-identical per seed.
fn random_circuit(name: &str, n_inputs: usize, n_luts: usize, seed: u64) -> LutCircuit {
    mm_gen::seeded_test_circuit(name, n_inputs, n_luts, seed)
}

/// Runs the flow/engine benchmark: cold vs warm batch plus the
/// pair-shares-plain-placements scenario, against a throwaway cache.
#[must_use]
pub fn flow_perf(config: &PerfConfig) -> FlowPerf {
    let dir = std::env::temp_dir().join(format!(
        "mmflow_bench_cache_{}_{}",
        std::process::id(),
        if config.smoke { "smoke" } else { "full" }
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let job_count = if config.smoke { 4 } else { 8 };
    let luts = if config.smoke { 10 } else { 14 };
    let mut options = FlowOptions::default().with_fixed_width(12).with_seed(0xbe);
    options.placer.inner_num = 1.0;
    options.router.max_iterations = 30;

    // Consecutive dcs/mdr jobs share a mode group, so the pair job below
    // finds both of its non-edge placement legs already cached.
    let jobs: Vec<Job> = (0..job_count)
        .map(|i| {
            let group = (i / 2) as u64;
            let a = random_circuit("m0", 5, luts + (i / 2) % 3, 9_000 + group);
            let b = random_circuit("m1", 5, luts + (i / 2) % 3, 19_000 + group);
            Job {
                name: format!("j{i}"),
                circuits: vec![a, b],
                flow: if i % 2 == 0 {
                    FlowKind::Dcs(CostKind::WireLength)
                } else {
                    FlowKind::Mdr
                },
                options,
            }
        })
        .collect();

    let engine = Engine::new(EngineOptions {
        threads: config.threads,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    })
    .expect("bench cache directory");

    let cold = engine.run(jobs.clone());
    let warm = engine.run(jobs.clone());

    // The stage-sharing scenario: a `pair` job on the mode group the
    // first dcs/mdr jobs already annealed, with a router variant so the
    // result stage misses but the placement stages hit.
    let mut variant = options;
    variant.router.max_iterations = 29;
    let pair_jobs = vec![Job {
        name: "pair-shared".into(),
        circuits: jobs[0].circuits.clone(),
        flow: FlowKind::Pair,
        options: variant,
    }];
    let pair = engine.run(pair_jobs);
    let pair_info = pair.results[0].cache;

    // The multi-mode scenario: 3-mode combined-comparison jobs through
    // the same engine, cold then warm, plus the N = 2 parity gate
    // (run_combined_n must reproduce run_pair byte-for-byte).
    let nmode_count = 3usize;
    let nmode_jobs: Vec<Job> = (0..if config.smoke { 2 } else { 3 })
        .map(|g| {
            let circuits = (0..nmode_count)
                .map(|m| {
                    // The seed base is calibrated: every 3-mode merge of
                    // this family routes at the fixed quick width (edge
                    // matching can be structurally unroutable on overly
                    // dissimilar random circuits).
                    random_circuit(
                        &format!("m{m}"),
                        5,
                        luts + g % 2,
                        29_100 + (m * 1000 + g) as u64,
                    )
                })
                .collect();
            Job {
                name: format!("n3-{g}"),
                circuits,
                flow: FlowKind::Pair,
                options,
            }
        })
        .collect();
    let nmode_cold = engine.run(nmode_jobs.clone());
    let nmode_warm = engine.run(nmode_jobs.clone());
    // The gate is a regression tripwire, not a tautology check: today
    // `run_pair` delegates to the same staged code as `run_combined_n`,
    // and this keeps the committed BENCH artifact asserting that the
    // two entry points never diverge again.
    let parity_ok = {
        let two = jobs[0].circuits.clone();
        let input = mm_flow::MultiModeInput::new(two.clone()).expect("bench circuits are valid");
        let via_pair = mm_flow::run_pair(&input, &options, "parity").expect("pair runs");
        let via_n = mm_flow::run_combined_n(&two, &options, "parity").expect("combined runs");
        via_pair == via_n
            && mm_engine::JobOutcome::Pair(via_pair).to_value().to_json()
                == mm_engine::JobOutcome::Pair(via_n).to_value().to_json()
    };
    let nmode_cold_ms = nmode_cold.wall.as_secs_f64() * 1000.0;
    let nmode_warm_ms = nmode_warm.wall.as_secs_f64() * 1000.0;
    let nmodes = NModesPerf {
        modes: nmode_count,
        jobs: nmode_jobs.len(),
        cold_wall_ms: nmode_cold_ms,
        warm_wall_ms: nmode_warm_ms,
        warm_speedup: nmode_cold_ms / nmode_warm_ms.max(1e-9),
        cold_stages_recomputed: nmode_cold.stats.stages_recomputed,
        warm_stages_recomputed: nmode_warm.stats.stages_recomputed,
        cold_jobs_per_sec: nmode_jobs.len() as f64 / nmode_cold.wall.as_secs_f64().max(1e-9),
        parity_ok,
    };

    let _ = std::fs::remove_dir_all(&dir);

    // The stage-graph replay sweep: a fresh cache, a cold mixed batch,
    // then the identical batch with only the router's iteration budget
    // changed. Per-record stage telemetry shows exactly which plan
    // nodes recomputed; the structural-fingerprint contract is that no
    // placement node does.
    let sg_dir = std::env::temp_dir().join(format!(
        "mmflow_bench_stagegraph_{}_{}",
        std::process::id(),
        if config.smoke { "smoke" } else { "full" }
    ));
    let _ = std::fs::remove_dir_all(&sg_dir);
    let sg_engine = Engine::new(EngineOptions {
        threads: config.threads,
        cache_dir: Some(sg_dir.clone()),
        ..Default::default()
    })
    .expect("stage-graph bench cache directory");
    let sg_jobs: Vec<Job> = vec![
        Job {
            name: "sg-dcs".into(),
            circuits: jobs[0].circuits.clone(),
            flow: FlowKind::Dcs(CostKind::WireLength),
            options,
        },
        Job {
            name: "sg-pair".into(),
            circuits: jobs[2].circuits.clone(),
            flow: FlowKind::Pair,
            options,
        },
    ];
    let sg_cold = sg_engine.run(sg_jobs.clone());
    let mut sg_replay_options = options;
    sg_replay_options.router.max_iterations = options.router.max_iterations - 1;
    let sg_replay_jobs: Vec<Job> = sg_jobs
        .iter()
        .map(|j| Job {
            options: sg_replay_options,
            ..j.clone()
        })
        .collect();
    let sg_replay = sg_engine.run(sg_replay_jobs.clone());
    let _ = std::fs::remove_dir_all(&sg_dir);
    let replay_stages = || sg_replay.results.iter().flat_map(|r| &r.stages);
    let replay_placement_hits = replay_stages()
        .filter(|s| s.kind.is_placement() && s.cache == CacheOutcome::Hit)
        .count();
    let replay_upstream_recomputed = replay_stages()
        .filter(|s| s.kind.is_placement() && s.cache != CacheOutcome::Hit)
        .count();
    let replay_summaries_recomputed = replay_stages()
        .filter(|s| !s.kind.is_placement() && s.cache != CacheOutcome::Hit)
        .count();
    // Byte parity: the cache-assisted replay must emit the same records
    // as a cacheless engine running the changed-options batch outright.
    let sg_reference = Engine::new(EngineOptions {
        threads: config.threads,
        cache_dir: None,
        ..Default::default()
    })
    .expect("cacheless engine")
    .run(sg_replay_jobs);
    let sg_parity_ok = sg_replay.results.len() == sg_reference.results.len()
        && sg_replay
            .results
            .iter()
            .zip(&sg_reference.results)
            .all(|(a, b)| a.to_json_line() == b.to_json_line());
    let sg_cold_ms = sg_cold.wall.as_secs_f64() * 1000.0;
    let sg_replay_ms = sg_replay.wall.as_secs_f64() * 1000.0;
    let stagegraph = StageGraphPerf {
        jobs: sg_jobs.len(),
        cold_wall_ms: sg_cold_ms,
        replay_wall_ms: sg_replay_ms,
        replay_speedup: sg_cold_ms / sg_replay_ms.max(1e-9),
        cold_stage_nodes: sg_cold.results.iter().map(|r| r.stages.len()).sum(),
        replay_placement_hits,
        replay_upstream_recomputed,
        replay_summaries_recomputed,
        parity_ok: sg_parity_ok,
    };

    let cold_ms = cold.wall.as_secs_f64() * 1000.0;
    let warm_ms = warm.wall.as_secs_f64() * 1000.0;
    let warm_lookups = warm.cache.hits + warm.cache.misses;
    FlowPerf {
        jobs: job_count,
        threads: engine.threads(),
        cold_wall_ms: cold_ms,
        warm_wall_ms: warm_ms,
        warm_speedup: cold_ms / warm_ms.max(1e-9),
        cold_stages_recomputed: cold.stats.stages_recomputed,
        warm_stages_recomputed: warm.stats.stages_recomputed,
        warm_results_from_cache: warm.stats.results_from_cache,
        cold_jobs_per_sec: job_count as f64 / cold.wall.as_secs_f64().max(1e-9),
        pair_placement_hits_from_plain_jobs: pair_info.placement_hits,
        pair_stages_recomputed: pair_info.stages_recomputed,
        warm_hit_rate: if warm_lookups > 0 {
            warm.cache.hits as f64 / warm_lookups as f64
        } else {
            0.0
        },
        nmodes,
        stagegraph,
    }
}

/// The contention section of the serve benchmark: many persistent
/// clients hammering one server over a real socket, steady-state.
#[derive(Debug, Clone)]
pub struct ContentionPerf {
    /// Concurrent client connections.
    pub clients: usize,
    /// Batches each client submitted (busy retries excluded).
    pub batches_per_client: usize,
    /// Jobs per batch.
    pub jobs_per_batch: usize,
    /// Wall-clock of the whole storm (barrier release to last summary),
    /// milliseconds.
    pub duration_ms: f64,
    /// Aggregate jobs per second at saturation.
    pub saturation_jobs_per_sec: f64,
    /// Median per-batch latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile per-batch latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile per-batch latency, milliseconds.
    pub p99_ms: f64,
    /// Fairness spread: slowest client's throughput over the fastest
    /// client's (1.0 = perfectly even service).
    pub fairness: f64,
    /// Submissions bounced with a `busy` frame and retried.
    pub busy_retries: u64,
    /// Every batch on every connection matched the reference bytes,
    /// in order.
    pub parity_ok: bool,
}

impl ContentionPerf {
    fn json(&self) -> mm_engine::json::Value {
        ObjBuilder::new()
            .field("clients", self.clients)
            .field("batches_per_client", self.batches_per_client)
            .field("jobs_per_batch", self.jobs_per_batch)
            .field("duration_ms", round2(self.duration_ms))
            .field(
                "saturation_jobs_per_sec",
                round2(self.saturation_jobs_per_sec),
            )
            .field("p50_ms", round2(self.p50_ms))
            .field("p95_ms", round2(self.p95_ms))
            .field("p99_ms", round2(self.p99_ms))
            .field("fairness", round2(self.fairness))
            .field("busy_retries", self.busy_retries)
            .field("parity_ok", self.parity_ok)
            .build()
    }
}

/// The chaos section of the serve benchmark: the same workload under
/// armed fault points (torn cache writes, failing reads, worker panics,
/// stalls, dropped connections), with retrying clients. Proves the
/// robustness contract end to end: no record is lost or duplicated,
/// surviving records are byte-identical to a fault-free run, the SLO
/// admission controller sheds priority 0 before priority 9, and the
/// store recovers once faults are disarmed.
#[derive(Debug, Clone)]
pub struct ChaosPerf {
    /// The deterministic fault spec the storm server armed.
    pub fault_spec: String,
    /// Concurrent retrying clients in the storm.
    pub storm_clients: usize,
    /// Completed batches across all storm clients.
    pub storm_batches: usize,
    /// Records each batch must deliver.
    pub records_expected: usize,
    /// Reference records that never arrived in some batch.
    pub records_lost: usize,
    /// Records that arrived more than once in some batch.
    pub records_duplicated: usize,
    /// Every completed batch matched the fault-free reference bytes, in
    /// order.
    pub parity_ok: bool,
    /// Submissions the clients retried (dropped connections, busy
    /// frames) before their batches completed.
    pub client_retries: u64,
    /// Fault-point firings during the storm — proof the faults were
    /// armed and actually hit.
    pub faults_fired: u64,
    /// Panicking job executions the server retried to success.
    pub panic_retries: u64,
    /// Queued jobs purged after injected connection drops.
    pub purged_jobs: u64,
    /// Jobs the watchdog declared stuck.
    pub timed_out_jobs: u64,
    /// Corrupted cache entries quarantined (and recomputed) during the
    /// storm, summed from the batch summaries.
    pub quarantined: u64,
    /// Priority-0 probes shed by the SLO controller (must be > 0).
    pub shed_low_priority: u64,
    /// Priority-9 probes shed by the SLO controller (must be 0).
    pub shed_high_priority: u64,
    /// The p95 the shedding `busy` frame reported, milliseconds.
    pub slo_observed_p95_ms: f64,
    /// After disarming, a fresh server over the stormed cache produced
    /// the reference bytes again.
    pub recovered_after_disarm: bool,
}

impl ChaosPerf {
    /// The chaos gates that fail, one definition for [`ServePerf::check`]
    /// and the section's `ok` field: faults fired in a real storm,
    /// nothing was lost or duplicated, bytes matched, priority 0 was shed
    /// (with the observed p95) while priority 9 rode through, and the
    /// store recovered.
    fn failures(&self) -> Vec<String> {
        let mut g = Gates::default();
        g.require(self.faults_fired > 0, "chaos.faults_fired: no fault fired");
        g.require(
            self.storm_batches >= 2,
            "chaos.storm_batches: the storm is degenerate",
        );
        g.require(
            self.records_lost == 0,
            format!("chaos.records_lost: {} records lost", self.records_lost),
        );
        g.require(
            self.records_duplicated == 0,
            format!(
                "chaos.records_duplicated: {} records duplicated",
                self.records_duplicated
            ),
        );
        g.require(
            self.parity_ok,
            "chaos.parity_ok: surviving records != reference bytes",
        );
        g.require(
            self.shed_low_priority > 0,
            "chaos.shed_low_priority: the SLO controller never shed the p0 probe",
        );
        g.require(
            self.shed_high_priority == 0,
            "chaos.shed_high_priority: the SLO controller shed a p9 batch",
        );
        g.require(
            round2(self.slo_observed_p95_ms) > 0.0,
            "chaos.slo_observed_p95_ms: the shedding busy frame carried no p95",
        );
        g.require(
            self.recovered_after_disarm,
            "chaos.recovered_after_disarm: the store did not recover after disarm",
        );
        g.0
    }

    fn json(&self) -> mm_engine::json::Value {
        ObjBuilder::new()
            .field("fault_spec", self.fault_spec.as_str())
            .field("storm_clients", self.storm_clients)
            .field("storm_batches", self.storm_batches)
            .field("records_expected", self.records_expected)
            .field("records_lost", self.records_lost)
            .field("records_duplicated", self.records_duplicated)
            .field("parity_ok", self.parity_ok)
            .field("client_retries", self.client_retries)
            .field("faults_fired", self.faults_fired)
            .field("panic_retries", self.panic_retries)
            .field("purged_jobs", self.purged_jobs)
            .field("timed_out_jobs", self.timed_out_jobs)
            .field("quarantined", self.quarantined)
            .field("shed_low_priority", self.shed_low_priority)
            .field("shed_high_priority", self.shed_high_priority)
            .field("slo_observed_p95_ms", round2(self.slo_observed_p95_ms))
            .field("recovered_after_disarm", self.recovered_after_disarm)
            .field("ok", self.failures().is_empty())
            .build()
    }
}

/// The serve benchmark report.
#[derive(Debug, Clone)]
pub struct ServePerf {
    /// Jobs per submitted batch.
    pub jobs: usize,
    /// Worker threads of the server's scheduler (as resolved, never a
    /// hardcoded count).
    pub threads: usize,
    /// Cold submission wall-clock (empty cache), milliseconds,
    /// end-to-end over the socket.
    pub cold_wall_ms: f64,
    /// Warm re-submission wall-clock (shared cache answers),
    /// milliseconds: the median of at least five re-submissions.
    pub warm_wall_ms: f64,
    /// Jobs per second, cold.
    pub cold_jobs_per_sec: f64,
    /// Jobs per second, warm.
    pub warm_jobs_per_sec: f64,
    /// cold / warm wall-clock.
    pub warm_speedup: f64,
    /// The socket stream matched a direct engine run byte-for-byte, on
    /// the cold and every warm submission.
    pub parity_ok: bool,
    /// The multi-client contention storm: of five storms, the one with
    /// the median saturation rate (`parity_ok` covers all five).
    pub contention: ContentionPerf,
    /// The fault-injection storm and SLO-shedding section.
    pub chaos: ChaosPerf,
}

impl ServePerf {
    /// The `BENCH_serve.json` payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        ObjBuilder::new()
            .field("bench", "serve")
            .field("transport", "unix-socket")
            .field("jobs", self.jobs)
            .field("threads", self.threads)
            .field("cold_wall_ms", round2(self.cold_wall_ms))
            .field("warm_wall_ms", round2(self.warm_wall_ms))
            .field("cold_jobs_per_sec", round2(self.cold_jobs_per_sec))
            .field("warm_jobs_per_sec", round2(self.warm_jobs_per_sec))
            .field("warm_speedup", round2(self.warm_speedup))
            .field("parity_ok", self.parity_ok)
            .field("contention", self.contention.json())
            .field("chaos", self.chaos.json())
            .build()
            .to_json()
    }

    /// Every gate this report violates (see the module docs), the chaos
    /// section's included.
    #[must_use]
    pub fn check(&self, _config: &PerfConfig) -> Vec<String> {
        let c = &self.contention;
        let mut g = Gates::default();
        g.require(
            self.parity_ok,
            "parity_ok: socket stream != direct engine bytes",
        );
        g.require(self.threads >= 1, "threads: no real worker count recorded");
        g.require(
            c.clients >= 4,
            format!("contention.clients: {} < 4", c.clients),
        );
        g.require(
            c.parity_ok,
            "contention.parity_ok: contended streams != reference bytes",
        );
        let (saturation, warm) = (
            round2(c.saturation_jobs_per_sec),
            round2(self.warm_jobs_per_sec),
        );
        g.require(
            saturation > warm,
            format!("contention.saturation_jobs_per_sec: {saturation} <= the warm rate {warm}"),
        );
        let (p50, p95, p99) = (round2(c.p50_ms), round2(c.p95_ms), round2(c.p99_ms));
        g.require(
            p50 <= p95 && p95 <= p99,
            format!("contention.p50_ms: percentiles disordered ({p50}, {p95}, {p99})"),
        );
        let fairness = round2(c.fairness);
        g.require(
            0.0 < fairness && fairness <= 1.0,
            format!("contention.fairness: {fairness} outside (0, 1]"),
        );
        g.require(
            c.batches_per_client >= 2 && c.jobs_per_batch >= 1,
            "contention.batches_per_client: the workload is degenerate",
        );
        g.0.extend(self.chaos.failures());
        g.finish(&self.to_json())
    }
}

/// Runs the serve benchmark: a real server on a Unix socket, a seeded
/// BLIF-directory workload submitted cold and warm over the wire.
///
/// # Panics
///
/// Panics if the throwaway server cannot be started or the protocol
/// exchange breaks — a benchmark that cannot run must fail loudly.
#[must_use]
pub fn serve_perf(config: &PerfConfig) -> ServePerf {
    use mm_engine::protocol::BatchRequest;

    let root = std::env::temp_dir().join(format!(
        "mmflow_bench_serve_{}_{}",
        std::process::id(),
        if config.smoke { "smoke" } else { "full" }
    ));
    let _ = std::fs::remove_dir_all(&root);

    // The same workload shape as `flow_perf`, written out as a BLIF
    // mode-group directory so it travels as a spec reference.
    let (job_count, luts) = if config.smoke { (4, 10) } else { (8, 14) };
    let spec_dir = root.join("jobs");
    for g in 0..job_count {
        let group = spec_dir.join(format!("g{g}"));
        std::fs::create_dir_all(&group).expect("bench spec directory");
        for (m, seed_base) in [(0usize, 9_000u64), (1, 19_000)] {
            let c = random_circuit(&format!("m{m}"), 5, luts + g % 3, seed_base + g as u64);
            std::fs::write(
                group.join(format!("m{m}.blif")),
                mm_netlist::blif::to_blif(&c),
            )
            .expect("bench blif");
        }
    }
    let spec_str = spec_dir.to_str().expect("utf-8 tmp path").to_string();
    let mut request = BatchRequest::new(spec_str);
    request.overrides.width = Some(12);
    request.overrides.effort = Some(1.0);
    request.overrides.max_iterations = Some(30);

    // Reference bytes: a direct sequential engine run on the jobs the
    // request resolves to server-side.
    let reference: Vec<String> = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: None,
        ..Default::default()
    })
    .expect("reference engine")
    .run(request.jobs().expect("bench spec loads"))
    .results
    .iter()
    .map(mm_engine::JobResult::to_json_line)
    .collect();

    let listen = mm_serve::Listen::Unix(root.join("bench.sock"));
    let server = mm_serve::Server::bind(
        &listen,
        &mm_serve::ServeOptions {
            threads: config.threads,
            cache_dir: Some(root.join("cache")),
            max_connections: 16,
            ..mm_serve::ServeOptions::default()
        },
    )
    .expect("bench server binds");
    let threads = server.engine().threads();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    let submit = |request: &BatchRequest| -> (Vec<String>, f64) {
        let mut client = mm_serve::Client::connect(&listen).expect("connect");
        let t0 = Instant::now();
        let mut records = Vec::new();
        client
            .submit(request, |record| {
                records.push(record.to_string());
                Ok(())
            })
            .expect("protocol exchange")
            .expect("batch accepted");
        (records, t0.elapsed().as_secs_f64() * 1000.0)
    };

    let (cold_records, cold_wall_ms) = submit(&request);
    let mut parity_ok = cold_records == reference;
    let mut warm_ms: Vec<f64> = (0..config.reps.max(SERVE_SAMPLES))
        .map(|_| {
            let (records, ms) = submit(&request);
            parity_ok &= records == reference;
            ms
        })
        .collect();
    warm_ms.sort_by(f64::total_cmp);
    let warm_wall_ms = warm_ms[warm_ms.len() / 2];

    // The storm whose saturation rate is the median of its runs, with
    // parity required of every run.
    let mut storms: Vec<ContentionPerf> = (0..SERVE_SAMPLES)
        .map(|_| contention_storm(config, &listen, &request, &reference, job_count))
        .collect();
    let every_storm_parity = storms.iter().all(|c| c.parity_ok);
    storms.sort_by(|a, b| {
        a.saturation_jobs_per_sec
            .total_cmp(&b.saturation_jobs_per_sec)
    });
    let mut contention = storms.swap_remove(storms.len() / 2);
    contention.parity_ok = every_storm_parity;

    handle.shutdown();
    server_thread
        .join()
        .expect("server thread")
        .expect("server drains");

    // The chaos section runs last so its armed fault points can never
    // leak into the timed cold/warm/contention measurements above.
    let chaos = chaos_storm(config, &root, &request, &reference);
    let _ = std::fs::remove_dir_all(&root);

    ServePerf {
        jobs: job_count,
        threads,
        cold_wall_ms,
        warm_wall_ms,
        cold_jobs_per_sec: job_count as f64 / (cold_wall_ms / 1000.0).max(1e-9),
        warm_jobs_per_sec: job_count as f64 / (warm_wall_ms / 1000.0).max(1e-9),
        warm_speedup: cold_wall_ms / warm_wall_ms.max(1e-9),
        parity_ok,
        contention,
        chaos,
    }
}

/// The spec the chaos storm arms: every fault point live at once, rates
/// low enough that retries (8 per job, 40 per submission) recover every
/// batch, stalls far below the 30 s default deadline.
const CHAOS_FAULT_SPEC: &str = "seed=3405,cache_read_io=0.05,cache_write_partial=0.05,\
worker_panic=0.2,job_stall=0.1,conn_drop=0.25,stall_ms=5";

/// The fault-injection storm behind the `chaos` section: retrying
/// clients against a fault-armed server, then an SLO-shedding probe,
/// then a disarmed recovery pass over the stormed cache.
fn chaos_storm(
    config: &PerfConfig,
    root: &std::path::Path,
    request: &mm_engine::protocol::BatchRequest,
    reference: &[String],
) -> ChaosPerf {
    use mm_engine::faultpoint;

    let storm_clients = 2usize;
    let rounds = config.reps.max(2);
    let cache_dir = root.join("chaos-cache");

    let start_server = |listen: &mm_serve::Listen, options: &mm_serve::ServeOptions| {
        let server = mm_serve::Server::bind(listen, options).expect("chaos server binds");
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        (handle, thread)
    };
    let stop_server = |handle: mm_serve::ServerHandle,
                       thread: std::thread::JoinHandle<std::io::Result<mm_serve::ServeReport>>|
     -> mm_serve::ServeReport {
        handle.shutdown();
        thread
            .join()
            .expect("chaos server thread")
            .expect("chaos server drains")
    };

    // Phase 1: the storm. Every fault point armed, two retrying clients.
    let listen = mm_serve::Listen::Unix(root.join("chaos.sock"));
    let (handle, thread) = start_server(
        &listen,
        &mm_serve::ServeOptions {
            threads: config.threads,
            cache_dir: Some(cache_dir.clone()),
            max_connections: 16,
            fault_spec: Some(CHAOS_FAULT_SPEC.to_string()),
            ..mm_serve::ServeOptions::default()
        },
    );

    struct StormRun {
        batches: usize,
        lost: usize,
        duplicated: usize,
        parity_ok: bool,
        retries: u64,
        quarantined: u64,
    }
    let mut runs: Vec<StormRun> = Vec::with_capacity(storm_clients);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..storm_clients)
            .map(|_| {
                let listen = &listen;
                scope.spawn(move || {
                    let mut client = mm_serve::Client::connect(listen).expect("chaos connect");
                    let mut run = StormRun {
                        batches: 0,
                        lost: 0,
                        duplicated: 0,
                        parity_ok: true,
                        retries: 0,
                        quarantined: 0,
                    };
                    for _ in 0..rounds {
                        let mut records = Vec::with_capacity(reference.len());
                        let outcome = client
                            .submit_with_retries(request, 40, |record| {
                                records.push(record.to_string());
                                Ok(())
                            })
                            .expect("chaos exchange")
                            .expect("chaos batch accepted");
                        run.batches += 1;
                        run.retries += u64::from(outcome.retries);
                        run.quarantined += outcome
                            .summary
                            .get("cache")
                            .and_then(|c| c.get("quarantined"))
                            .and_then(mm_engine::json::Value::as_u64)
                            .unwrap_or(0);
                        run.parity_ok &= records == reference;
                        // Lost/duplicated accounting by record identity,
                        // independent of ordering.
                        for expected in reference {
                            let n = records.iter().filter(|r| *r == expected).count();
                            run.lost += usize::from(n == 0);
                            run.duplicated += n.saturating_sub(1);
                        }
                    }
                    run
                })
            })
            .collect();
        for h in handles {
            runs.push(h.join().expect("chaos client"));
        }
    });
    let faults_fired = faultpoint::ALL_POINTS
        .iter()
        .map(|p| faultpoint::fired_count(p))
        .sum();
    let report = stop_server(handle, thread);
    faultpoint::disarm();

    // Phase 2: SLO shedding on a fresh server with an impossible SLO.
    // The priming batch is admitted (empty latency window), then a
    // priority-0 probe must bounce with the observed p95 while a
    // priority-9 probe rides through.
    let slo_listen = mm_serve::Listen::Unix(root.join("chaos-slo.sock"));
    let (slo_handle, slo_thread) = start_server(
        &slo_listen,
        &mm_serve::ServeOptions {
            threads: config.threads,
            cache_dir: Some(cache_dir.clone()),
            max_connections: 16,
            slo_ms: Some(0.001),
            ..mm_serve::ServeOptions::default()
        },
    );
    let mut shed_low = 0u64;
    let mut shed_high = 0u64;
    let mut observed_p95 = 0.0f64;
    {
        let mut client = mm_serve::Client::connect(&slo_listen).expect("slo connect");
        let mut prime = request.clone();
        prime.priority = mm_engine::protocol::MAX_PRIORITY;
        for _ in 0..2 {
            client
                .submit(&prime, |_| Ok(()))
                .expect("slo priming exchange")
                .expect("slo priming admitted");
        }
        // The last latency sample lands right after the summary; give
        // the worker its instant to note it.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut low = request.clone();
        low.priority = 0;
        match client.submit(&low, |_| Ok(())).expect("slo p0 exchange") {
            Err(mm_serve::Rejection::Busy {
                scope,
                p95_ms: Some(p95),
                ..
            }) if scope == "slo" => {
                shed_low += 1;
                observed_p95 = p95;
            }
            _ => {}
        }
        let mut high = request.clone();
        high.priority = mm_engine::protocol::MAX_PRIORITY;
        match client.submit(&high, |_| Ok(())).expect("slo p9 exchange") {
            Ok(_) => {}
            Err(_) => shed_high += 1,
        }
    }
    stop_server(slo_handle, slo_thread);

    // Phase 3: recovery. Faults disarmed, a fresh server over the
    // stormed cache must stream the reference bytes again.
    let recover_listen = mm_serve::Listen::Unix(root.join("chaos-recover.sock"));
    let (recover_handle, recover_thread) = start_server(
        &recover_listen,
        &mm_serve::ServeOptions {
            threads: config.threads,
            cache_dir: Some(cache_dir),
            max_connections: 16,
            ..mm_serve::ServeOptions::default()
        },
    );
    let recovered = {
        let mut client = mm_serve::Client::connect(&recover_listen).expect("recovery connect");
        let mut records = Vec::with_capacity(reference.len());
        client
            .submit(request, |record| {
                records.push(record.to_string());
                Ok(())
            })
            .expect("recovery exchange")
            .expect("recovery batch accepted");
        records == reference
    };
    stop_server(recover_handle, recover_thread);

    ChaosPerf {
        fault_spec: CHAOS_FAULT_SPEC.to_string(),
        storm_clients,
        storm_batches: runs.iter().map(|r| r.batches).sum(),
        records_expected: reference.len(),
        records_lost: runs.iter().map(|r| r.lost).sum(),
        records_duplicated: runs.iter().map(|r| r.duplicated).sum(),
        parity_ok: runs.iter().all(|r| r.parity_ok),
        client_retries: runs.iter().map(|r| r.retries).sum(),
        faults_fired,
        panic_retries: report.panic_retries,
        purged_jobs: report.purged_jobs,
        timed_out_jobs: report.timed_out_jobs,
        quarantined: runs.iter().map(|r| r.quarantined).sum(),
        shed_low_priority: shed_low,
        shed_high_priority: shed_high,
        slo_observed_p95_ms: observed_p95,
        recovered_after_disarm: recovered,
    }
}

/// The contention storm: `clients` persistent connections released by a
/// barrier, each submitting the same warm batch `rounds` times. A
/// `busy` bounce is retried (and counted), never measured as a round.
fn contention_storm(
    config: &PerfConfig,
    listen: &mm_serve::Listen,
    request: &mm_engine::protocol::BatchRequest,
    reference: &[String],
    jobs_per_batch: usize,
) -> ContentionPerf {
    let clients = if config.smoke { 4 } else { 6 };
    let rounds = config.reps.max(2);

    struct ClientRun {
        latencies_ms: Vec<f64>,
        elapsed_s: f64,
        /// When the client's last round returned.
        finished: Instant,
        busy_retries: u64,
        parity_ok: bool,
    }

    let barrier = std::sync::Barrier::new(clients + 1);
    let mut runs: Vec<ClientRun> = Vec::with_capacity(clients);
    // The storm's clock starts when the main thread passes the barrier,
    // after every client has connected: connection set-up is not part of
    // the saturation rate.
    let mut storm_t0 = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = mm_serve::Client::connect(listen).expect("storm connect");
                    barrier.wait();
                    let t0 = Instant::now();
                    let mut run = ClientRun {
                        latencies_ms: Vec::with_capacity(rounds),
                        elapsed_s: 0.0,
                        finished: t0,
                        busy_retries: 0,
                        parity_ok: true,
                    };
                    let mut done = 0usize;
                    while done < rounds {
                        let t_batch = Instant::now();
                        let mut records = Vec::with_capacity(reference.len());
                        let outcome = client
                            .submit(request, |record| {
                                records.push(record.to_string());
                                Ok(())
                            })
                            .expect("storm exchange");
                        match outcome {
                            Ok(_) => {
                                run.latencies_ms
                                    .push(t_batch.elapsed().as_secs_f64() * 1000.0);
                                run.parity_ok &= records == reference;
                                done += 1;
                            }
                            Err(mm_serve::Rejection::Busy { .. }) => {
                                run.busy_retries += 1;
                                std::thread::sleep(std::time::Duration::from_millis(1));
                            }
                            Err(rejection) => panic!("storm batch rejected: {rejection}"),
                        }
                    }
                    run.finished = Instant::now();
                    run.elapsed_s = (run.finished - t0).as_secs_f64();
                    run
                })
            })
            .collect();
        barrier.wait();
        storm_t0 = Instant::now();
        for handle in handles {
            runs.push(handle.join().expect("storm client"));
        }
    });
    let duration_s = runs
        .iter()
        .map(|r| r.finished.saturating_duration_since(storm_t0))
        .max()
        .expect("at least one client finished")
        .as_secs_f64();

    let mut latencies: Vec<f64> = runs.iter().flat_map(|r| r.latencies_ms.clone()).collect();
    latencies.sort_by(f64::total_cmp);
    let percentile = |p: f64| -> f64 {
        let index = ((p / 100.0) * (latencies.len() - 1) as f64).round() as usize;
        latencies[index]
    };
    let throughputs: Vec<f64> = runs
        .iter()
        .map(|r| rounds as f64 / r.elapsed_s.max(1e-9))
        .collect();
    let fastest = throughputs.iter().copied().fold(f64::MIN, f64::max);
    let slowest = throughputs.iter().copied().fold(f64::MAX, f64::min);
    let total_jobs = clients * rounds * jobs_per_batch;

    ContentionPerf {
        clients,
        batches_per_client: rounds,
        jobs_per_batch,
        duration_ms: duration_s * 1000.0,
        saturation_jobs_per_sec: total_jobs as f64 / duration_s.max(1e-9),
        p50_ms: percentile(50.0),
        p95_ms: percentile(95.0),
        p99_ms: percentile(99.0),
        fairness: slowest / fastest.max(1e-9),
        busy_retries: runs.iter().map(|r| r.busy_retries).sum(),
        parity_ok: runs.iter().all(|r| r.parity_ok),
    }
}

/// The timing-driven vs wirelength-only flow comparison inside
/// [`StaPerf`]: both costs run the full DCS flow on the same deep-logic
/// multi-mode problem (`mm_gen::deeplogic`, whose wirelength and delay
/// optima diverge), same seed, same fixed channel width.
#[derive(Debug, Clone)]
pub struct TimingFlowPerf {
    /// Modes merged.
    pub modes: usize,
    /// LUTs of the largest mode.
    pub luts: usize,
    /// The timing-cost blend measured (`timing:<alpha>`).
    pub alpha: f64,
    /// The fixed channel width both runs route at.
    pub channel_width: usize,
    /// Worst per-mode routed critical path, wirelength-only cost.
    pub baseline_critical_path: f64,
    /// Worst per-mode routed critical path, `timing:<alpha>` cost.
    pub timing_critical_path: f64,
    /// timing / baseline critical path (< 1 is an improvement).
    pub critical_path_ratio: f64,
    /// Total routed wires across modes, wirelength-only cost.
    pub baseline_wires: usize,
    /// Total routed wires across modes, `timing:<alpha>` cost.
    pub timing_wires: usize,
    /// timing / baseline wires (the wirelength price of the delay win).
    pub wires_ratio: f64,
    /// The timing-driven run beat the baseline's critical path.
    pub improved: bool,
}

impl TimingFlowPerf {
    fn json(&self) -> mm_engine::json::Value {
        ObjBuilder::new()
            .field("modes", self.modes)
            .field("luts", self.luts)
            .field("alpha", self.alpha)
            .field("channel_width", self.channel_width)
            .field("baseline_critical_path", self.baseline_critical_path)
            .field("timing_critical_path", self.timing_critical_path)
            .field("critical_path_ratio", round2(self.critical_path_ratio))
            .field("baseline_wires", self.baseline_wires)
            .field("timing_wires", self.timing_wires)
            .field("wires_ratio", round2(self.wires_ratio))
            .field("improved", self.improved)
            .build()
    }
}

/// The timing subsystem benchmark report.
#[derive(Debug, Clone)]
pub struct StaPerf {
    /// The timing-driven vs wirelength-only flow comparison.
    pub flow: TimingFlowPerf,
}

impl StaPerf {
    /// The `BENCH_sta.json` payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        ObjBuilder::new()
            .field("bench", "sta")
            .field("flow", self.flow.json())
            .build()
            .to_json()
    }

    /// Every gate this report violates (see the module docs).
    #[must_use]
    pub fn check(&self, _config: &PerfConfig) -> Vec<String> {
        let tf = &self.flow;
        let mut g = Gates::default();
        g.require(
            tf.improved,
            format!(
                "flow.improved: timing-driven critical path {} vs the baseline's {}",
                tf.timing_critical_path, tf.baseline_critical_path
            ),
        );
        g.require(
            tf.timing_critical_path < tf.baseline_critical_path,
            "flow.timing_critical_path: inconsistent with the improved gate",
        );
        g.require(
            round2(tf.wires_ratio) > 0.0,
            "flow.wires_ratio: the wirelength price is not reported",
        );
        g.finish(&self.to_json())
    }
}

/// Runs the timing benchmark: the timing-driven DCS flow vs the
/// wirelength-only baseline on a deep-logic multi-mode problem.
///
/// # Panics
///
/// Panics if the seeded workload fails to route or analyze — a
/// benchmark that cannot run must fail loudly.
#[must_use]
pub fn sta_perf(config: &PerfConfig) -> StaPerf {
    let suite = mm_gen::deeplogic_suite(4);
    let mode_count = if config.smoke { 2 } else { 3 };
    let circuits: Vec<LutCircuit> = suite.into_iter().take(mode_count).collect();
    let luts = circuits
        .iter()
        .map(LutCircuit::lut_count)
        .max()
        .unwrap_or(0);
    let width = 14usize;
    let alpha = 0.6f64;
    let mut options = FlowOptions::default()
        .with_fixed_width(width)
        .with_seed(0x57ee);
    options.placer.inner_num = if config.smoke { 0.5 } else { 1.0 };

    let input = mm_flow::MultiModeInput::new(circuits).expect("suite circuits are valid");
    let baseline = mm_flow::DcsFlow::new(options)
        .run(&input)
        .expect("baseline flow routes");
    let timing = mm_flow::DcsFlow::new(options)
        .with_cost(CostKind::Timing { alpha })
        .run(&input)
        .expect("timing flow routes");
    let worst = |r: &mm_flow::DcsResult| -> f64 {
        r.critical_paths(input.circuits())
            .expect("routed circuits analyze")
            .into_iter()
            .fold(0.0f64, f64::max)
    };
    let total_wires = |r: &mm_flow::DcsResult| -> usize {
        (0..input.mode_count()).map(|m| r.wires_in_mode(m)).sum()
    };
    let baseline_critical_path = worst(&baseline);
    let timing_critical_path = worst(&timing);
    let baseline_wires = total_wires(&baseline);
    let timing_wires = total_wires(&timing);

    StaPerf {
        flow: TimingFlowPerf {
            modes: input.mode_count(),
            luts,
            alpha,
            channel_width: width,
            baseline_critical_path,
            timing_critical_path,
            critical_path_ratio: timing_critical_path / baseline_critical_path.max(1e-9),
            baseline_wires,
            timing_wires,
            wires_ratio: timing_wires as f64 / (baseline_wires as f64).max(1e-9),
            improved: timing_critical_path < baseline_critical_path,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serve smoke arms the process-global fault registry for its
    /// chaos phase; every test that touches a stage cache serializes on
    /// this lock so injected cache faults cannot leak across tests.
    static FAULT_SENSITIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    const SMOKE: PerfConfig = PerfConfig {
        smoke: true,
        reps: 1,
        threads: 0,
    };

    /// The gate on `field` has teeth: `check` does not name it on the
    /// measured report, and does once `break_field` corrupts a copy.
    fn assert_gate_bites<R: Clone>(
        report: &R,
        check: impl Fn(&R) -> Vec<String>,
        field: &str,
        break_field: impl FnOnce(&mut R),
    ) {
        let names =
            |failures: &[String]| failures.iter().any(|f| f.starts_with(&format!("{field}:")));
        let before = check(report);
        assert!(
            !names(&before),
            "{field} fails before it is broken: {before:?}"
        );
        let mut broken = report.clone();
        break_field(&mut broken);
        let after = check(&broken);
        assert!(names(&after), "breaking {field} went unnoticed: {after:?}");
    }

    #[test]
    fn router_perf_smoke_reports_plausible_numbers() {
        let perf = router_perf(&SMOKE);
        assert!(perf.routed, "workload must route");
        assert!(perf.parity_ok, "optimized must match the reference");
        assert!(perf.baseline_ms > 0.0 && perf.optimized_ms > 0.0);
        let legs: Vec<(&str, usize)> = perf
            .width_search
            .iter()
            .map(|ws| (ws.leg, ws.min_width))
            .collect();
        assert_eq!(
            legs,
            [("wirelength", 7), ("edge", 8)],
            "the smoke pair's minimum widths"
        );
        for ws in &perf.width_search {
            assert!(ws.failed_probes >= 1, "the smoke search has a failed probe");
            assert!(
                ws.failed_probe_iterations < ws.max_iterations * ws.failed_probes,
                "no failed probe stopped before the cap: {ws:?}"
            );
        }
        let json = perf.to_json();
        assert!(json.contains("\"speedup\""), "{json}");
        assert!(json.contains("\"failed_probe_iterations\""), "{json}");
        assert!(
            mm_engine::json::parse(&json).is_ok(),
            "report must be valid JSON"
        );
        let check = |r: &RouterPerf| r.check(&SMOKE);
        assert_gate_bites(&perf, check, "width_search[wirelength].min_width", |r| {
            r.width_search[0].min_width = 8;
        });
        assert_gate_bites(&perf, check, "width_search[edge].min_width", |r| {
            r.width_search[1].min_width += 1;
        });
        assert_gate_bites(
            &perf,
            check,
            "width_search[edge].failed_probe_iterations",
            |r| {
                let ws = &mut r.width_search[1];
                ws.failed_probe_iterations = ws.max_iterations * ws.failed_probes;
            },
        );
        assert_gate_bites(&perf, check, "high_fanout[fanout 64].parity_ok", |r| {
            r.high_fanout[1].parity_ok = false;
        });
        // The minimum width is pinned for the smoke pair only.
        let mut full_width = perf.clone();
        full_width.width_search[0].min_width = 9;
        full_width.width_search[1].min_width = 14;
        let full = PerfConfig {
            smoke: false,
            ..SMOKE
        };
        assert!(!full_width
            .check(&full)
            .iter()
            .any(|f| f.contains("].min_width:")));
    }

    #[test]
    fn placer_perf_smoke_reports_plausible_numbers() {
        let perf = placer_perf(&SMOKE);
        assert!(perf.parity_ok(), "optimized must match the naive model");
        assert!(perf.hybrid.moves > 0, "the annealer must attempt moves");
        assert!(perf.hybrid.baseline_ms > 0.0 && perf.hybrid.optimized_ms > 0.0);
        assert!(perf.wirelength.moves > 0);
        let json = perf.to_json();
        assert!(json.contains("\"optimized_moves_per_sec\""), "{json}");
        assert!(json.contains("\"wirelength\""), "{json}");
        assert!(
            mm_engine::json::parse(&json).is_ok(),
            "report must be valid JSON"
        );
        let check = |r: &PlacePerf| r.check(&SMOKE);
        assert_gate_bites(&perf, check, "hybrid.parity_ok", |r| {
            r.hybrid.parity_ok = false;
        });
        assert_gate_bites(&perf, check, "wirelength.parity_ok", |r| {
            r.wirelength.parity_ok = false;
        });
    }

    #[test]
    fn serve_perf_smoke_roundtrips_over_a_real_socket() {
        let _lock = FAULT_SENSITIVE.lock().unwrap_or_else(|e| e.into_inner());
        let perf = serve_perf(&SMOKE);
        assert!(perf.parity_ok, "socket stream == direct engine bytes");
        assert_eq!(perf.jobs, 4);
        assert!(perf.cold_wall_ms > 0.0 && perf.warm_wall_ms > 0.0);
        assert!(perf.warm_jobs_per_sec > 0.0);
        let chaos = perf.chaos.failures();
        assert!(
            chaos.is_empty(),
            "chaos storm must survive with zero lost/duplicated records, \
             SLO shedding p0 before p9 and a clean recovery: {chaos:?} {:?}",
            perf.chaos
        );
        assert!(perf.chaos.faults_fired > 0, "the storm must actually fault");
        assert!(
            mm_engine::json::parse(&perf.to_json()).is_ok(),
            "report must be valid JSON"
        );
        let check = |r: &ServePerf| r.check(&SMOKE);
        assert_gate_bites(&perf, check, "chaos.records_lost", |r| {
            r.chaos.records_lost = 1;
        });
        assert_gate_bites(&perf, check, "contention.parity_ok", |r| {
            r.contention.parity_ok = false;
        });
        assert_gate_bites(&perf, check, "parity_ok", |r| r.parity_ok = false);
    }

    #[test]
    fn sta_perf_smoke_wins_on_delay_and_keeps_parity() {
        let perf = sta_perf(&SMOKE);
        assert!(
            perf.flow.improved,
            "timing-driven cp {} must beat baseline cp {}",
            perf.flow.timing_critical_path, perf.flow.baseline_critical_path
        );
        assert!(perf.flow.baseline_wires > 0 && perf.flow.timing_wires > 0);
        let json = perf.to_json();
        assert!(json.contains("\"critical_path_ratio\""), "{json}");
        assert!(
            mm_engine::json::parse(&json).is_ok(),
            "report must be valid JSON"
        );
        let check = |r: &StaPerf| r.check(&SMOKE);
        assert_gate_bites(&perf, check, "flow.improved", |r| {
            r.flow.improved = false;
        });
    }

    #[test]
    fn flow_perf_smoke_exercises_cache_and_pair_sharing() {
        let _lock = FAULT_SENSITIVE.lock().unwrap_or_else(|e| e.into_inner());
        let perf = flow_perf(&SMOKE);
        assert_eq!(perf.warm_stages_recomputed, 0, "warm run fully cached");
        assert_eq!(perf.warm_results_from_cache, perf.jobs);
        assert_eq!(
            perf.pair_placement_hits_from_plain_jobs, 2,
            "pair shares mdr + dcs-wl legs with plain jobs"
        );
        // The multi-mode sub-benchmark: warm transparency and the N = 2
        // parity gate.
        assert_eq!(perf.nmodes.modes, 3);
        assert!(perf.nmodes.cold_stages_recomputed > 0);
        assert_eq!(
            perf.nmodes.warm_stages_recomputed, 0,
            "3-mode warm run fully cached"
        );
        assert!(perf.nmodes.parity_ok, "run_combined_n(N=2) == run_pair");
        // The stage-graph replay sweep: a router-only change must leave
        // every placement node warm and reproduce cacheless bytes.
        let sg = &perf.stagegraph;
        assert!(sg.cold_stage_nodes > 0, "cold run reported no stage nodes");
        assert_eq!(
            sg.replay_upstream_recomputed, 0,
            "router-only replay recomputed a placement node"
        );
        assert!(
            sg.replay_placement_hits > 0,
            "replay never hit a cached placement"
        );
        assert!(
            sg.replay_summaries_recomputed > 0,
            "changed router options must miss the summary nodes"
        );
        assert!(sg.parity_ok, "replay bytes != cacheless run");
        let json = perf.to_json();
        assert!(json.contains("\"nmodes\""), "{json}");
        assert!(json.contains("\"stagegraph\""), "{json}");
        assert!(mm_engine::json::parse(&json).is_ok());
        let check = |r: &FlowPerf| r.check(&SMOKE);
        assert_gate_bites(&perf, check, "stagegraph.replay_upstream_recomputed", |r| {
            r.stagegraph.replay_upstream_recomputed = 1;
        });
        assert_gate_bites(&perf, check, "nmodes.parity_ok", |r| {
            r.nmodes.parity_ok = false;
        });
    }
}
