//! The outside-in trace: re-executes a job through the public call of
//! every layer crate, in flow order, recording one span per call.
//!
//! The re-derivation mirrors the flows the engine runs (`DcsFlow`,
//! `MdrFlow` and the combined comparison) call for call, so its result
//! must equal the engine's record byte for byte; [`rederive`] returns the
//! rebuilt record line and the caller compares. Spans are kept in memory
//! per job and aggregated into per-layer self times when the run ends.

use mm_arch::{Architecture, RoutingGraph};
use mm_bitstream::{Config, ConfigModel, ParamConfig, RewriteCost};
use mm_boolexpr::ModeSet;
use mm_engine::{DcsSummary, FlowKind, Job, JobCacheInfo, JobOutcome, JobResult, MdrSummary};
use mm_flow::{FlowError, MultiModeInput, PairMetrics, TunableCircuit, WidthChoice};
use mm_netlist::LutCircuit;
use mm_place::{CostKind, MultiPlacement, Placement, PlacerOptions};
use mm_route::{RouteNet, Router, RouterOptions, Routing};
use std::time::{Duration, Instant};

/// The layer a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The job itself (its self time is the untraced gap between calls).
    Job,
    /// `mm_place` annealing.
    Place,
    /// `verify_placement` / `verify_routing`.
    Verify,
    /// `mm_flow` tunable-circuit extraction.
    Tunable,
    /// `mm_route::min_channel_width` and its probes.
    Width,
    /// `mm_arch::RoutingGraph::build` outside the width search.
    Rrg,
    /// `mm_route` routing at the final width.
    Route,
    /// `mm_bitstream` configuration extraction and costs.
    Config,
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The public call (or `job` / `probe`).
    pub name: &'static str,
    /// Layer charged with its self time.
    pub layer: Layer,
    /// Index of the job in the workload's job list.
    pub job: usize,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Start, relative to the trace origin.
    pub start: Duration,
    /// End, relative to the trace origin.
    pub end: Duration,
}

/// Counts recorded at the same call boundaries as the spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// `place_combined` / `place_single` calls.
    pub place_calls: u64,
    /// Annealing moves (`PlaceStats::moves`).
    pub place_moves: u64,
    /// `min_channel_width` calls.
    pub width_searches: u64,
    /// Width probes (one per call of the search's net closure).
    pub probes: u64,
    /// Probes below the returned minimum width (they failed to route).
    pub probes_failed: u64,
    /// Wall time of the failed probes.
    pub failed_probe_s: f64,
    /// Routing-resource graphs built (probes included).
    pub rrg_builds: u64,
    /// Build time of the graphs the width search built, re-timed after
    /// the job at the same widths (the search does not expose them).
    pub probe_rrg_s: f64,
    /// `Router::route` calls outside the width search.
    pub route_calls: u64,
    /// PathFinder iterations of those calls.
    pub route_iterations: u64,
    /// Width-growth retries after a failed route at the chosen width.
    pub route_retries: u64,
}

impl Counters {
    /// Adds another job's counters.
    pub fn add(&mut self, o: &Counters) {
        self.place_calls += o.place_calls;
        self.place_moves += o.place_moves;
        self.width_searches += o.width_searches;
        self.probes += o.probes;
        self.probes_failed += o.probes_failed;
        self.failed_probe_s += o.failed_probe_s;
        self.rrg_builds += o.rrg_builds;
        self.probe_rrg_s += o.probe_rrg_s;
        self.route_calls += o.route_calls;
        self.route_iterations += o.route_iterations;
        self.route_retries += o.route_retries;
    }
}

/// The spans and counters of one re-derived job.
#[derive(Debug)]
pub struct JobTrace {
    job: usize,
    origin: Instant,
    /// Recorded spans; index 0 is the job span.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// Counts at the same boundaries.
    pub counters: Counters,
    /// CPU seconds of the job span, on the re-deriving thread.
    pub cpu: f64,
    probe_archs: Vec<Architecture>,
}

impl JobTrace {
    fn new(job: usize, origin: Instant) -> Self {
        Self {
            job,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: Counters::default(),
            cpu: 0.0,
            probe_archs: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, layer: Layer) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            layer,
            job: self.job,
            parent: self.stack.last().copied(),
            start: now,
            end: now,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
        self.stack.pop();
    }

    /// Runs `f` inside a span.
    fn call<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, layer);
        let out = f();
        self.close(id);
        out
    }

    /// When the job span started and ended.
    #[must_use]
    pub fn window(&self) -> (Instant, Instant) {
        self.spans.first().map_or((self.origin, self.origin), |s| {
            (self.origin + s.start, self.origin + s.end)
        })
    }

    /// Wall time of the job span.
    #[must_use]
    pub fn wall(&self) -> Duration {
        self.spans
            .first()
            .map_or(Duration::ZERO, |s| s.end - s.start)
    }

    /// `min_channel_width` with every probe recorded as a child span.
    fn width_search(
        &mut self,
        arch: &Architecture,
        router: &RouterOptions,
        max_width: usize,
        nets: impl FnMut(&RoutingGraph) -> Vec<RouteNet>,
    ) -> Option<usize> {
        let id = self.open("min_channel_width", Layer::Width);
        let log = search_width(arch, router, max_width, nets);
        for probe in &log.probes {
            self.spans.push(Span {
                name: "probe",
                layer: Layer::Width,
                job: self.job,
                parent: Some(id),
                start: probe.start - self.origin,
                end: probe.end - self.origin,
            });
            if probe.failed {
                self.counters.probes_failed += 1;
                self.counters.failed_probe_s += (probe.end - probe.start).as_secs_f64();
            }
            self.probe_archs.push(arch.with_channel_width(probe.width));
        }
        self.counters.width_searches += 1;
        self.counters.probes += log.probes.len() as u64;
        self.counters.rrg_builds += log.probes.len() as u64;
        self.close(id);
        log.min_width
    }

    fn build_rrg(&mut self, arch: &Architecture) -> RoutingGraph {
        self.counters.rrg_builds += 1;
        self.call("RoutingGraph::build", Layer::Rrg, || {
            RoutingGraph::build(arch)
        })
    }

    fn route(&mut self, router: &mut Router<'_>, nets: &[RouteNet]) -> Routing {
        let routing = self.call("Router::route", Layer::Route, || router.route(nets));
        self.counters.route_calls += 1;
        self.counters.route_iterations += routing.iterations as u64;
        routing
    }

    fn verify_placement(
        &mut self,
        circuits: &[LutCircuit],
        base: &Architecture,
        p: &MultiPlacement,
    ) -> Result<(), FlowError> {
        self.call("verify_placement", Layer::Verify, || {
            mm_place::verify_placement(circuits, base, p)
        })
        .map_err(FlowError::Input)
    }

    fn verify_routing(
        &mut self,
        rrg: &RoutingGraph,
        nets: &[RouteNet],
        routing: &Routing,
        modes: usize,
    ) -> Result<(), FlowError> {
        self.call("verify_routing", Layer::Verify, || {
            mm_route::verify_routing(rrg, nets, routing, modes)
        })
        .map_err(FlowError::Internal)
    }

    fn place_combined(
        &mut self,
        circuits: &[LutCircuit],
        base: &Architecture,
        placer: &PlacerOptions,
    ) -> Result<MultiPlacement, FlowError> {
        let (p, stats) = self.call("place_combined", Layer::Place, || {
            mm_place::place_combined(circuits, base, placer)
        })?;
        self.counters.place_calls += 1;
        self.counters.place_moves += stats.moves as u64;
        Ok(p)
    }

    /// Per-mode MDR annealing with the flows' derived seeds.
    fn place_modes(
        &mut self,
        circuits: &[LutCircuit],
        base: &Architecture,
        placer: &PlacerOptions,
    ) -> Result<Vec<Placement>, FlowError> {
        let mut out = Vec::with_capacity(circuits.len());
        for (m, circuit) in circuits.iter().enumerate() {
            let opts = PlacerOptions {
                cost: CostKind::WireLength,
                seed: placer.seed ^ (m as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ..*placer
            };
            let (p, stats) = self.call("place_single", Layer::Place, || {
                mm_place::place_single(circuit, base, &opts)
            })?;
            self.counters.place_calls += 1;
            self.counters.place_moves += stats.moves as u64;
            out.push(p);
        }
        Ok(out)
    }

    fn tunable(
        &mut self,
        circuits: &[LutCircuit],
        placement: &MultiPlacement,
        base: &Architecture,
    ) -> Result<TunableCircuit, FlowError> {
        let tunable = self.call("TunableCircuit::from_placement", Layer::Tunable, || {
            TunableCircuit::from_placement(circuits, placement, base)
        })?;
        self.call("verify_projection", Layer::Tunable, || {
            tunable.verify_projection(circuits, placement)
        })
        .map_err(FlowError::Internal)?;
        Ok(tunable)
    }

    /// Re-times, outside the job span, the graphs the width searches
    /// built (the search builds them internally).
    fn retime_probe_graphs(&mut self) {
        for arch in std::mem::take(&mut self.probe_archs) {
            let t = Instant::now();
            std::hint::black_box(RoutingGraph::build(&arch));
            self.counters.probe_rrg_s += t.elapsed().as_secs_f64();
        }
    }
}

/// One probe of a width search.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// The probed channel width.
    pub width: usize,
    /// When the search handed this width's graph to the net closure.
    pub start: Instant,
    /// When the next probe started, or the search returned.
    pub end: Instant,
    /// Whether the width is below the returned minimum — the probe's
    /// route failed.
    pub failed: bool,
}

/// What one `min_channel_width` call did, seen from outside.
#[derive(Debug, Clone)]
pub struct ProbeLog {
    /// The returned minimum width (`None` if even the cap failed).
    pub min_width: Option<usize>,
    /// Probes in call order.
    pub probes: Vec<Probe>,
}

/// Calls `mm_route::min_channel_width`, wrapping its net closure: the
/// search calls the closure once per probe, right after that width's
/// graph is built, so each call marks one probe. A probe failed iff its
/// width is below the returned minimum (every width below it failed,
/// every width at or above it that was probed routed).
pub fn search_width(
    arch: &Architecture,
    router: &RouterOptions,
    max_width: usize,
    mut nets: impl FnMut(&RoutingGraph) -> Vec<RouteNet>,
) -> ProbeLog {
    let mut starts: Vec<(Instant, usize)> = Vec::new();
    let found = mm_route::min_channel_width(arch, router, max_width, |rrg| {
        starts.push((Instant::now(), rrg.arch().channel_width));
        nets(rrg)
    });
    let end = Instant::now();
    let min_width = found.map(|f| f.min_width);
    let probes = starts
        .iter()
        .enumerate()
        .map(|(i, &(start, width))| Probe {
            width,
            start,
            end: starts.get(i + 1).map_or(end, |next| next.0),
            failed: min_width.is_none_or(|m| width < m),
        })
        .collect();
    ProbeLog { min_width, probes }
}

fn unroutable(max_width: usize, context: &str) -> FlowError {
    FlowError::Unroutable {
        max_width,
        context: context.to_string(),
    }
}

fn unreachable_error(context: String, routing: &Routing, nets: &[RouteNet]) -> FlowError {
    FlowError::UnreachableSinks {
        context,
        nets: routing
            .unreachable_nets(nets)
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
    }
}

/// A routed DCS leg: what the summaries read off it.
struct DcsLeg {
    arch: Architecture,
    cost: RewriteCost,
    mdr_cost: RewriteCost,
    param: ParamConfig,
    wires: Vec<usize>,
}

/// Width resolution plus mode-aware routing of a tunable circuit with
/// growth retries (`resolve_width` + `route_with_growth`), then the
/// configuration model, routing verification and parameterized
/// configuration.
fn dcs_leg(
    t: &mut JobTrace,
    job: &Job,
    input: &MultiModeInput,
    base: &Architecture,
    tunable: &TunableCircuit,
    context: &str,
) -> Result<DcsLeg, FlowError> {
    let options = &job.options;
    let router = RouterOptions {
        mode_count: input.mode_count(),
        ..options.router
    };
    let width = match options.width {
        WidthChoice::Fixed(w) => w,
        WidthChoice::Relaxed => {
            let min = t
                .width_search(base, &router, options.max_width, |rrg| {
                    tunable.route_nets(rrg)
                })
                .ok_or_else(|| unroutable(options.max_width, context))?;
            mm_route::relaxed_width(min)
        }
    };
    let mut grow = 0usize;
    let (arch, rrg, nets, routing) = loop {
        let w = (width + grow).min(options.max_width);
        let arch = base.with_channel_width(w);
        let rrg = t.build_rrg(&arch);
        let nets = t.call("TunableCircuit::route_nets", Layer::Tunable, || {
            tunable.route_nets(&rrg)
        });
        let mut engine = t.call("Router::new", Layer::Route, || Router::new(&rrg, router));
        let routing = t.route(&mut engine, &nets);
        if routing.success {
            break (arch, rrg, nets, routing);
        }
        if routing.unrouted_sinks > 0 {
            return Err(unreachable_error(
                format!("{context} at final width"),
                &routing,
                &nets,
            ));
        }
        if w >= options.max_width {
            return Err(unroutable(options.max_width, context));
        }
        t.counters.route_retries += 1;
        grow = if grow == 0 { 1 } else { grow * 2 };
    };
    let model = t.call("ConfigModel::new", Layer::Config, || {
        ConfigModel::new(&arch, &rrg)
    });
    t.verify_routing(&rrg, &nets, &routing, input.mode_count())?;
    let param = t.call("ParamConfig::from_routing", Layer::Config, || {
        ParamConfig::from_routing(&routing, input.space())
    });
    let wires = t.call("Routing::wires_in_mode", Layer::Route, || {
        (0..input.mode_count())
            .map(|m| routing.wires_in_mode(&rrg, m))
            .collect()
    });
    let (cost, mdr_cost) = t.call("ConfigModel::costs", Layer::Config, || {
        (model.dcs_cost(&param), model.mdr_cost())
    });
    Ok(DcsLeg {
        arch,
        cost,
        mdr_cost,
        param,
        wires,
    })
}

/// A routed MDR leg.
struct MdrLeg {
    arch: Architecture,
    model: ConfigModel,
    configs: Vec<Config>,
    wires: Vec<usize>,
}

/// The MDR routing stage: the shared width (max of per-mode minima,
/// relaxed) and every mode routed at it, growing jointly by ⌈w/8⌉. The
/// plain MDR flow fails fast on unreachable sinks; the combined flow's
/// MDR leg does not (`fail_fast`).
fn mdr_leg(
    t: &mut JobTrace,
    job: &Job,
    input: &MultiModeInput,
    base: &Architecture,
    placements: &[Placement],
    fail_fast: bool,
) -> Result<MdrLeg, FlowError> {
    let options = &job.options;
    let router = RouterOptions {
        mode_count: 1,
        ..options.router
    };
    let mut width = match options.width {
        WidthChoice::Fixed(w) => w,
        WidthChoice::Relaxed => {
            let mut w = 0usize;
            for (m, circuit) in input.circuits().iter().enumerate() {
                let placement = &placements[m];
                let min = t
                    .width_search(base, &router, options.max_width, |rrg| {
                        mm_route::nets_for_circuit(circuit, rrg, ModeSet::single(0), |b| {
                            placement.site_of(b)
                        })
                    })
                    .ok_or_else(|| unroutable(options.max_width, &format!("MDR mode {m}")))?;
                w = w.max(min);
            }
            mm_route::relaxed_width(w)
        }
    };
    loop {
        let arch = base.with_channel_width(width);
        let rrg = t.build_rrg(&arch);
        let mut engine = t.call("Router::new", Layer::Route, || Router::new(&rrg, router));
        let mut configs = Vec::with_capacity(input.mode_count());
        let mut wires = Vec::with_capacity(input.mode_count());
        let mut ok = true;
        for (m, circuit) in input.circuits().iter().enumerate() {
            let placement = &placements[m];
            let nets = t.call("nets_for_circuit", Layer::Route, || {
                mm_route::nets_for_circuit(circuit, &rrg, ModeSet::single(0), |b| {
                    placement.site_of(b)
                })
            });
            let routing = t.route(&mut engine, &nets);
            if !routing.success {
                if fail_fast && routing.unrouted_sinks > 0 {
                    return Err(unreachable_error(format!("MDR mode {m}"), &routing, &nets));
                }
                ok = false;
                break;
            }
            t.verify_routing(&rrg, &nets, &routing, 1)?;
            configs.push(t.call("Config::from_routing", Layer::Config, || {
                Config::from_routing(&routing)
            }));
            wires.push(t.call("Routing::total_wires", Layer::Route, || {
                routing.total_wires(&rrg)
            }));
        }
        if ok {
            let model = t.call("ConfigModel::new", Layer::Config, || {
                ConfigModel::new(&arch, &rrg)
            });
            return Ok(MdrLeg {
                arch,
                model,
                configs,
                wires,
            });
        }
        if width >= options.max_width {
            return Err(unroutable(options.max_width, "MDR at final width"));
        }
        t.counters.route_retries += 1;
        width = (width + width.div_ceil(8)).min(options.max_width);
    }
}

/// The MDR diff cost averaged over ordered mode pairs.
fn average_diff(t: &mut JobTrace, leg: &MdrLeg) -> RewriteCost {
    t.call("ConfigModel::diff_cost", Layer::Config, || {
        let m = leg.configs.len();
        let mut total = 0usize;
        let mut pairs = 0usize;
        for a in 0..m {
            for b in 0..m {
                if a != b {
                    total += leg
                        .model
                        .diff_cost(&leg.configs[a], &leg.configs[b])
                        .routing_bits;
                    pairs += 1;
                }
            }
        }
        RewriteCost {
            lut_bits: leg.model.lut_bits,
            routing_bits: total.checked_div(pairs).unwrap_or_default(),
        }
    })
}

fn rederive_dcs(
    t: &mut JobTrace,
    job: &Job,
    input: &MultiModeInput,
    cost: CostKind,
) -> Result<JobOutcome, FlowError> {
    if matches!(cost, CostKind::Timing { .. }) {
        return Err(FlowError::Input(
            "the trace does not re-derive timing-driven jobs".into(),
        ));
    }
    let base = job.options.base_arch(input);
    let placer = PlacerOptions {
        cost,
        ..job.options.placer
    };
    let placement = t.place_combined(input.circuits(), &base, &placer)?;
    t.verify_placement(input.circuits(), &base, &placement)?;
    let tunable = t.tunable(input.circuits(), &placement, &base)?;
    let leg = dcs_leg(t, job, input, &base, &tunable, "tunable circuit")?;
    let stats = t.call("TunableCircuit::stats", Layer::Tunable, || tunable.stats());
    Ok(JobOutcome::Dcs(DcsSummary {
        grid: leg.arch.grid,
        channel_width: leg.arch.channel_width,
        modes: input.mode_count(),
        param_bits: leg.param.parameterized_bits(),
        static_on_bits: leg.param.static_on_bits(),
        dcs_cost: leg.cost,
        mdr_cost: leg.mdr_cost,
        wires: leg.wires,
        critical_paths: None,
        tunable: stats,
    }))
}

fn rederive_mdr(
    t: &mut JobTrace,
    job: &Job,
    input: &MultiModeInput,
) -> Result<JobOutcome, FlowError> {
    let base = job.options.base_arch(input);
    let placements = t.place_modes(input.circuits(), &base, &job.options.placer)?;
    let wrapped = MultiPlacement { modes: placements };
    t.verify_placement(input.circuits(), &base, &wrapped)?;
    let leg = mdr_leg(t, job, input, &base, &wrapped.modes, true)?;
    let avg_diff_cost = average_diff(t, &leg);
    Ok(JobOutcome::Mdr(MdrSummary {
        grid: leg.arch.grid,
        channel_width: leg.arch.channel_width,
        modes: input.mode_count(),
        mdr_cost: leg.model.mdr_cost(),
        avg_diff_cost,
        wires: leg.wires,
    }))
}

fn rederive_pair(
    t: &mut JobTrace,
    job: &Job,
    input: &MultiModeInput,
) -> Result<JobOutcome, FlowError> {
    let circuits = input.circuits();
    let base = job.options.base_arch(input);
    let placer = job.options.placer;
    let mdr = t.place_modes(circuits, &base, &placer)?;
    let edge = t.place_combined(
        circuits,
        &base,
        &PlacerOptions {
            cost: CostKind::EdgeMatching,
            ..placer
        },
    )?;
    let wl = t.place_combined(
        circuits,
        &base,
        &PlacerOptions {
            cost: CostKind::WireLength,
            ..placer
        },
    )?;
    let mdr_wrapped = MultiPlacement { modes: mdr };
    t.verify_placement(circuits, &base, &mdr_wrapped)?;
    t.verify_placement(circuits, &base, &edge)?;
    t.verify_placement(circuits, &base, &wl)?;
    let edge_tunable = t.tunable(circuits, &edge, &base)?;
    let wl_tunable = t.tunable(circuits, &wl, &base)?;

    let mdr_leg = mdr_leg(t, job, input, &base, &mdr_wrapped.modes, false)?;
    let edge_leg = dcs_leg(t, job, input, &base, &edge_tunable, "tunable (edge)")?;
    let wl_leg = dcs_leg(t, job, input, &base, &wl_tunable, "tunable (wl)")?;
    let diff = average_diff(t, &mdr_leg);
    let mean = |w: &[usize]| w.iter().sum::<usize>() as f64 / w.len().max(1) as f64;
    let tunable_stats = t.call("TunableCircuit::stats", Layer::Tunable, || {
        wl_tunable.stats()
    });
    Ok(JobOutcome::Pair(PairMetrics {
        name: job.name.clone(),
        grid: base.grid,
        width_mdr: mdr_leg.arch.channel_width,
        width_edge: edge_leg.arch.channel_width,
        width_wirelength: wl_leg.arch.channel_width,
        mdr: mdr_leg.model.mdr_cost(),
        diff,
        dcs_edge: edge_leg.cost,
        dcs_wirelength: wl_leg.cost,
        wires_mdr: mean(&mdr_leg.wires),
        wires_edge: mean(&edge_leg.wires),
        wires_wirelength: mean(&wl_leg.wires),
        tunable_stats,
        mode_luts: circuits.iter().map(LutCircuit::lut_count).collect(),
    }))
}

/// Re-executes `job` (index `index` of its workload) through the layer
/// calls, in flow order, and returns its trace with the rebuilt result
/// record line — byte-identical to the engine's record when the
/// re-derivation is faithful.
#[must_use]
pub fn rederive(job: &Job, index: usize, origin: Instant) -> (JobTrace, String) {
    let mut t = JobTrace::new(index, origin);
    let cpu = crate::cpu::thread();
    let root = t.open("job", Layer::Job);
    let outcome = MultiModeInput::new(job.circuits.clone()).and_then(|input| match job.flow {
        FlowKind::Dcs(cost) => rederive_dcs(&mut t, job, &input, cost),
        FlowKind::Mdr => rederive_mdr(&mut t, job, &input),
        FlowKind::Pair => rederive_pair(&mut t, job, &input),
    });
    t.close(root);
    t.cpu = crate::cpu::thread() - cpu;
    t.retime_probe_graphs();
    let line = JobResult {
        name: job.name.clone(),
        flow: job.flow,
        outcome: outcome.map_err(|e| mm_engine::JobError::from_flow(&e)),
        cache: JobCacheInfo::default(),
        duration: Duration::ZERO,
        stages: Vec::new(),
    }
    .to_json_line();
    (t, line)
}

/// Per-layer self times over a set of job traces.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Σ job wall.
    pub job_wall: f64,
    /// Σ self time per layer, in [`LAYERS`] order.
    pub busy: [f64; LAYERS.len()],
    /// Counters summed over the jobs.
    pub counters: Counters,
}

/// Layers with a self-time slot in [`LayerTimes::busy`].
pub const LAYERS: [Layer; 7] = [
    Layer::Place,
    Layer::Verify,
    Layer::Tunable,
    Layer::Width,
    Layer::Rrg,
    Layer::Route,
    Layer::Config,
];

impl LayerTimes {
    /// Aggregates job traces: a span's self time is its duration minus
    /// the part its child spans cover.
    #[must_use]
    pub fn from_traces(traces: &[JobTrace]) -> Self {
        let mut out = Self::default();
        for trace in traces {
            out.job_wall += trace.wall().as_secs_f64();
            let mut child = vec![0.0f64; trace.spans.len()];
            for span in &trace.spans {
                if let Some(p) = span.parent {
                    child[p] += (span.end - span.start).as_secs_f64();
                }
            }
            for (i, span) in trace.spans.iter().enumerate() {
                let own = ((span.end - span.start).as_secs_f64() - child[i]).max(0.0);
                if let Some(slot) = LAYERS.iter().position(|l| *l == span.layer) {
                    out.busy[slot] += own;
                }
            }
            out.counters.add(&trace.counters);
        }
        out
    }

    /// Self time of `layer`.
    #[must_use]
    pub fn busy(&self, layer: Layer) -> f64 {
        LAYERS
            .iter()
            .position(|l| *l == layer)
            .map_or(0.0, |i| self.busy[i])
    }

    /// Σ layer self time ÷ Σ job wall.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.job_wall > 0.0 {
            self.busy.iter().sum::<f64>() / self.job_wall
        } else {
            0.0
        }
    }
}
