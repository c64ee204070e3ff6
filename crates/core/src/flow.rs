//! The MDR and DCS tool flows (paper Fig. 2).
//!
//! * [`MdrFlow`] — Modular Dynamic Reconfiguration: every mode is placed
//!   and routed *separately* in the same reconfigurable region; switching
//!   rewrites the whole region.
//! * [`DcsFlow`] — the paper's flow: the modes are merged by combined
//!   placement into a tunable circuit, routed once by the mode-aware
//!   router, and emitted as a parameterized configuration.
//!
//! Both flows size the fabric the same way the paper does: array area and
//! channel width 20% above the minimum needed (§IV-B). Each routes its
//! *leg* — the net lists that share one channel width: the tunable
//! circuit for DCS, one list per mode for MDR — through one routine,
//! which resolves the width, retries a congested leg +1, +2, +4, …
//! tracks wider and names the failing list in its errors alike in both
//! flows. The results keep the leg's width searches (`width_searches`).

use crate::{FlowError, TunableCircuit};
use mm_arch::{Architecture, RoutingGraph};
use mm_bitstream::{Config, ConfigModel, ParamConfig, RewriteCost};
use mm_boolexpr::{ModeSet, ModeSpace};
use mm_netlist::LutCircuit;
use mm_place::{place_combined, CostKind, MultiPlacement, Placement, PlacerOptions};
use mm_route::{
    min_channel_width, nets_for_circuit, relaxed_width, verify_routing, MinWidthResult, RouteNet,
    Router, RouterOptions, Routing,
};

/// A validated multi-mode problem: the per-mode LUT circuits.
#[derive(Debug, Clone)]
pub struct MultiModeInput {
    circuits: Vec<LutCircuit>,
    space: ModeSpace,
}

impl MultiModeInput {
    /// Wraps the mode circuits, checking they are non-empty, agree on the
    /// LUT width and are individually valid.
    ///
    /// # Errors
    ///
    /// Fails on empty input, mismatched k, or invalid circuits.
    pub fn new(circuits: Vec<LutCircuit>) -> Result<Self, FlowError> {
        if circuits.is_empty() {
            return Err(FlowError::Input("at least one mode required".into()));
        }
        let k = circuits[0].k();
        for c in &circuits {
            if c.k() != k {
                return Err(FlowError::Input(format!(
                    "mode '{}' uses {}-LUTs, expected {k}",
                    c.name(),
                    c.k()
                )));
            }
            c.validate()
                .map_err(|e| FlowError::Input(format!("mode '{}': {e}", c.name())))?;
        }
        let space = ModeSpace::new(circuits.len());
        Ok(Self { circuits, space })
    }

    /// The mode circuits.
    #[must_use]
    pub fn circuits(&self) -> &[LutCircuit] {
        &self.circuits
    }

    /// Number of modes.
    #[must_use]
    pub fn mode_count(&self) -> usize {
        self.circuits.len()
    }

    /// The mode space.
    #[must_use]
    pub fn space(&self) -> ModeSpace {
        self.space
    }

    /// The LUT width.
    #[must_use]
    pub fn k(&self) -> usize {
        self.circuits[0].k()
    }

    /// Logic blocks of the largest mode — what sizes the region.
    #[must_use]
    pub fn max_luts(&self) -> usize {
        self.circuits
            .iter()
            .map(LutCircuit::lut_count)
            .max()
            .unwrap_or(0)
    }

    /// IO pads of the largest mode.
    #[must_use]
    pub fn max_pads(&self) -> usize {
        self.circuits
            .iter()
            .map(|c| c.block_count() - c.lut_count())
            .max()
            .unwrap_or(0)
    }

    /// The reconfigurable region (paper: array area 20% above minimum),
    /// for IO locations of two pads each.
    #[must_use]
    pub fn region(&self) -> usize {
        Architecture::relaxed_grid_for(self.max_luts(), self.max_pads(), 2)
    }
}

/// How the channel width is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthChoice {
    /// Search the minimum width ([`min_channel_width`]), then add 20%
    /// (paper §IV-B).
    Relaxed,
    /// Use a fixed width (fast runs, experiments with pinned fabrics).
    Fixed(usize),
}

/// Options shared by both flows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowOptions {
    /// Placer configuration (cost kind is overridden by [`DcsFlow`]).
    pub placer: PlacerOptions,
    /// Router configuration (mode count is set by the flows).
    pub router: RouterOptions,
    /// Channel-width policy.
    pub width: WidthChoice,
    /// Upper bound for the width search, and the widest channel any
    /// flow routes at.
    pub max_width: usize,
    /// Worker threads for parallel sections *inside* one flow run: the
    /// per-mode MDR placements, and each wave of ready stage-plan nodes
    /// (a combined plan's three placement legs, then its three summary
    /// legs). It is [`crate::pool::run_ordered`]'s thread count: `0` =
    /// one thread per independent task, `1` = strictly serial.
    /// Results are byte-identical at any setting (every task is
    /// independently seeded), so this deliberately does **not**
    /// participate in [`FlowOptions::fingerprint`] — serial and parallel
    /// runs share cache entries.
    pub intra_parallelism: usize,
}

impl Default for FlowOptions {
    fn default() -> Self {
        Self {
            placer: PlacerOptions::default(),
            router: RouterOptions::default(),
            width: WidthChoice::Relaxed,
            max_width: 96,
            intra_parallelism: 0,
        }
    }
}

impl WidthChoice {
    /// A stable fingerprint of the width policy, used by the batch
    /// engine's stage cache keys. The relaxed policy's carries the width
    /// search's version: a search that probes other widths can return
    /// another minimum where routability is not monotone in width.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        match self {
            WidthChoice::Relaxed => "relaxed-v2".to_string(),
            WidthChoice::Fixed(w) => format!("fixed({w})"),
        }
    }
}

impl FlowOptions {
    /// A stable fingerprint of every option that affects flow results
    /// (floats by bit pattern), used by the batch engine's stage cache
    /// keys.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!(
            "flow-v2;{};{};width={};maxw={}",
            self.placer.fingerprint(),
            self.router.fingerprint(),
            self.width.fingerprint(),
            self.max_width,
        )
    }

    /// The base architecture (before width resolution) for an input:
    /// Wilton switch boxes and the Betz/Rose connection-block
    /// flexibilities Fc,in = 0.4 and Fc,out = 0.25 (the fully connected
    /// blocks of `Architecture::new` are unrealistic for
    /// configuration-bit accounting).
    #[must_use]
    pub fn base_arch(&self, input: &MultiModeInput) -> Architecture {
        Architecture::new(input.k(), input.region(), 8)
            .with_fc(0.4, 0.25)
            .with_switch_pattern(mm_arch::SwitchPattern::Wilton)
    }

    /// Returns a copy with a fixed channel width.
    #[must_use]
    pub fn with_fixed_width(mut self, w: usize) -> Self {
        self.width = WidthChoice::Fixed(w);
        self
    }

    /// Returns a copy with a different placer seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.placer.seed = seed;
        self
    }
}

/// Per-sink routing criticalities for a net list, produced fresh for
/// each routing-resource graph (node ids change with channel width).
type CritFn<'a> = &'a dyn Fn(&RoutingGraph, &[RouteNet]) -> Vec<Vec<f64>>;

/// Owned form of [`CritFn`], as built by `estimated_criticality_fn`.
type BoxedCritFn<'a> = Box<dyn Fn(&RoutingGraph, &[RouteNet]) -> Vec<Vec<f64>> + 'a>;

/// What [`route_leg`] returns: the final architecture and graph, one
/// routing per net list and the width searches (none at a fixed width).
type RoutedLeg = (
    Architecture,
    RoutingGraph,
    Vec<Routing>,
    Vec<MinWidthResult>,
);

/// Routes one leg: the net lists `nets(i, rrg)`, one per entry of
/// `contexts`, that share a channel width — the tunable circuit for DCS,
/// one list per mode for MDR.
///
/// The width is the fixed one, or [`relaxed_width`] of the largest
/// [`min_channel_width`] over the lists (a congestion-only search; a
/// list whose search fails is `Unroutable` with its context). Each
/// attempted width routes the lists in order on one [`Router`] (`route`
/// resets its congestion state on entry and HPWL-seeds each net's
/// bounding box from the placement geometry), timing-driven with `crit`:
/// the closure is re-evaluated against the attempt's graph and nets so
/// criticalities always key the right RR nodes. The first list that fails
/// ends the attempt. An unreachable sink fails the leg at once
/// (`UnreachableSinks`: every width of the fabric family replicates the
/// same connectivity); on congestion the whole leg retries +1, +2, +4, …
/// tracks wider up to `max_width`, since convergence is not strictly
/// monotone in width under an iteration cap. Both final-width failures
/// carry the context "`<list's context>` at final width". Every routing
/// of the attempt that succeeded is verified.
fn route_leg(
    base: &Architecture,
    options: &FlowOptions,
    router: &RouterOptions,
    contexts: &[String],
    crit: Option<CritFn<'_>>,
    nets: impl Fn(usize, &RoutingGraph) -> Vec<RouteNet>,
) -> Result<RoutedLeg, FlowError> {
    let max_width = options.max_width;
    let unroutable = |context: String| FlowError::Unroutable { max_width, context };
    let (width, searches) = match options.width {
        WidthChoice::Fixed(w) => (w, Vec::new()),
        WidthChoice::Relaxed => {
            let searches = contexts
                .iter()
                .enumerate()
                .map(|(i, context)| {
                    min_channel_width(base, router, max_width, |rrg| nets(i, rrg))
                        .ok_or_else(|| unroutable(context.clone()))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let min = searches.iter().map(|s| s.min_width).max().unwrap_or(0);
            (relaxed_width(min), searches)
        }
    };
    let mut grow = 0usize;
    'grow: loop {
        let w = (width + grow).min(max_width);
        let arch = base.with_channel_width(w);
        let rrg = RoutingGraph::build(&arch);
        let mut engine = Router::new(&rrg, *router);
        let mut routed = Vec::with_capacity(contexts.len());
        for (i, context) in contexts.iter().enumerate() {
            let list = nets(i, &rrg);
            let routing = match crit {
                Some(f) => engine.route_with_criticality(&list, &f(&rrg, &list)),
                None => engine.route(&list),
            };
            if !routing.success {
                let context = format!("{context} at final width");
                if routing.unrouted_sinks > 0 {
                    let nets = routing.unreachable_nets(&list);
                    let nets = nets.iter().map(|s| (*s).to_string()).collect();
                    return Err(FlowError::UnreachableSinks { context, nets });
                }
                if w >= max_width {
                    return Err(unroutable(context));
                }
                grow = if grow == 0 { 1 } else { grow * 2 };
                continue 'grow;
            }
            routed.push((list, routing));
        }
        // Frees the router's scratch arena before verification builds
        // its own usage map.
        drop(engine);
        for (list, routing) in &routed {
            verify_routing(&rrg, list, routing, router.mode_count).map_err(FlowError::Internal)?;
        }
        let routings = routed.into_iter().map(|(_, routing)| routing).collect();
        return Ok((arch, rrg, routings, searches));
    }
}

/// Result of the MDR flow.
#[derive(Debug)]
pub struct MdrResult {
    /// The sized architecture (shared region).
    pub arch: Architecture,
    /// The routing-resource graph at the final width.
    pub rrg: RoutingGraph,
    /// Configuration memory model.
    pub model: ConfigModel,
    /// Per-mode placements.
    pub placements: Vec<Placement>,
    /// Per-mode routings.
    pub routings: Vec<Routing>,
    /// Per-mode full configurations.
    pub configs: Vec<Config>,
    /// The relaxed width's searches, one per mode in mode order, each
    /// with its probes; empty at a fixed width.
    pub width_searches: Vec<MinWidthResult>,
}

impl MdrResult {
    /// The MDR reconfiguration cost: the full region.
    #[must_use]
    pub fn mdr_cost(&self) -> RewriteCost {
        self.model.mdr_cost()
    }

    /// The diff cost between two modes' configurations.
    #[must_use]
    pub fn diff_cost(&self, a: usize, b: usize) -> RewriteCost {
        self.model.diff_cost(&self.configs[a], &self.configs[b])
    }

    /// The diff cost averaged over all ordered mode pairs.
    #[must_use]
    pub fn average_diff_cost(&self) -> RewriteCost {
        let m = self.configs.len();
        if m < 2 {
            return RewriteCost {
                lut_bits: self.model.lut_bits,
                routing_bits: 0,
            };
        }
        let mut total = 0usize;
        let mut pairs = 0usize;
        for a in 0..m {
            for b in 0..m {
                if a != b {
                    total += self.diff_cost(a, b).routing_bits;
                    pairs += 1;
                }
            }
        }
        RewriteCost {
            lut_bits: self.model.lut_bits,
            routing_bits: total / pairs,
        }
    }

    /// Wires used by mode `mode` when active.
    #[must_use]
    pub fn wires_in_mode(&self, mode: usize) -> usize {
        self.routings[mode].total_wires(&self.rrg)
    }

    /// Mean wires per mode.
    #[must_use]
    pub fn mean_wires(&self) -> f64 {
        let total: usize = (0..self.routings.len())
            .map(|m| self.wires_in_mode(m))
            .sum();
        total as f64 / self.routings.len() as f64
    }

    /// Per-mode routed critical-path delays of every mode in its
    /// standalone implementation (STA over the actual wire segments of
    /// that mode's routing). `circuits` must be the mode circuits the
    /// flow ran on.
    ///
    /// # Errors
    ///
    /// Fails if a mode's connections are not covered by its routing or
    /// a circuit is combinationally cyclic.
    pub fn critical_paths(&self, circuits: &[LutCircuit]) -> Result<Vec<f64>, FlowError> {
        circuits
            .iter()
            .zip(&self.placements)
            .zip(&self.routings)
            .map(|((c, p), routing)| {
                // `nets_for_circuit` is a pure function of the circuit,
                // placement and graph: exactly the net list that was routed.
                let nets = nets_for_circuit(c, &self.rrg, ModeSet::single(0), |b| p.site_of(b));
                mm_sta::analyze_routed(c, |b| p.site_of(b), &self.rrg, &nets, routing, 0)
                    .map(|a| a.critical_path)
                    .map_err(|e| FlowError::Internal(format!("mode '{}' STA: {e}", c.name())))
            })
            .collect()
    }
}

/// The Modular Dynamic Reconfiguration baseline flow: each mode placed
/// and routed on its own, all modes at one channel width.
#[derive(Debug, Clone, Copy)]
pub struct MdrFlow {
    options: FlowOptions,
}

impl MdrFlow {
    /// Creates the flow with the given options.
    #[must_use]
    pub fn new(options: FlowOptions) -> Self {
        Self { options }
    }

    /// The flow options.
    #[must_use]
    pub fn options(&self) -> &FlowOptions {
        &self.options
    }

    /// Runs MDR: places and routes every mode separately on the shared
    /// region.
    ///
    /// # Errors
    ///
    /// Fails if a mode cannot be placed or routed.
    pub fn run(&self, input: &MultiModeInput) -> Result<MdrResult, FlowError> {
        let placements = self.place(input)?;
        self.run_with_placements(input, placements)
    }

    /// Stage 1 of MDR: conventional single-circuit annealing of every
    /// mode on the shared region. The modes are independent (each gets a
    /// derived seed), so they anneal concurrently on the thread pool —
    /// serially with [`FlowOptions::intra_parallelism`] `== 1`, with
    /// byte-identical results either way.
    ///
    /// This is the expensive, seed-determined stage; the batch engine
    /// caches its output by content address.
    ///
    /// # Errors
    ///
    /// Fails if a mode cannot be placed.
    pub fn place(&self, input: &MultiModeInput) -> Result<Vec<Placement>, FlowError> {
        let base = self.options.base_arch(input);
        let placer = PlacerOptions {
            cost: CostKind::WireLength,
            ..self.options.placer
        };
        crate::pool::run_ordered(
            (0..input.mode_count()).collect::<Vec<usize>>(),
            self.options.intra_parallelism,
            |_, m| {
                let opts = PlacerOptions {
                    seed: placer.seed ^ (m as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    ..placer
                };
                mm_place::place_single(&input.circuits()[m], &base, &opts)
                    .map(|(p, _)| p)
                    .map_err(FlowError::from)
            },
            |_, _| {},
        )
        .into_iter()
        .collect()
    }

    /// Stage 2 of MDR: width resolution, per-mode routing and
    /// configuration extraction on top of existing placements. Every mode
    /// routes at one shared width, the relaxed width of the largest
    /// per-mode minimum, and a congested mode widens them all together.
    ///
    /// # Errors
    ///
    /// Fails if the placements do not fit the input or a mode cannot be
    /// routed: mode m's failed width search is `Unroutable` with context
    /// "MDR mode m", a failure at the final width `UnreachableSinks` or
    /// `Unroutable` with context "MDR mode m at final width".
    pub fn run_with_placements(
        &self,
        input: &MultiModeInput,
        placements: Vec<Placement>,
    ) -> Result<MdrResult, FlowError> {
        let base = self.options.base_arch(input);
        let router = RouterOptions {
            mode_count: 1,
            ..self.options.router
        };
        if placements.len() != input.mode_count() {
            return Err(FlowError::Input(format!(
                "{} placements for {} modes",
                placements.len(),
                input.mode_count()
            )));
        }
        // Wrap (not clone) the placements for verification, then take
        // them back.
        let wrapped = MultiPlacement { modes: placements };
        mm_place::verify_placement(input.circuits(), &base, &wrapped).map_err(FlowError::Input)?;
        let placements = wrapped.modes;

        let contexts: Vec<String> = (0..input.mode_count())
            .map(|m| format!("MDR mode {m}"))
            .collect();
        let (arch, rrg, routings, width_searches) =
            route_leg(&base, &self.options, &router, &contexts, None, |m, rrg| {
                let placement = &placements[m];
                nets_for_circuit(&input.circuits()[m], rrg, ModeSet::single(0), |b| {
                    placement.site_of(b)
                })
            })?;
        let configs = routings.iter().map(Config::from_routing).collect();
        let model = ConfigModel::new(&arch, &rrg);

        Ok(MdrResult {
            arch,
            rrg,
            model,
            placements,
            routings,
            configs,
            width_searches,
        })
    }
}

/// Result of the DCS multi-mode flow.
#[derive(Debug)]
pub struct DcsResult {
    /// The sized architecture.
    pub arch: Architecture,
    /// The routing-resource graph at the final width.
    pub rrg: RoutingGraph,
    /// Configuration memory model.
    pub model: ConfigModel,
    /// The combined placement.
    pub placement: MultiPlacement,
    /// The merged tunable circuit.
    pub tunable: TunableCircuit,
    /// The mode-aware routing of the tunable circuit.
    pub routing: Routing,
    /// The parameterized configuration.
    pub param: ParamConfig,
    /// The relaxed width's search of the tunable circuit, with its
    /// probes; empty at a fixed width.
    pub width_searches: Vec<MinWidthResult>,
}

impl DcsResult {
    /// Parameterized routing bits — what the reconfiguration manager
    /// rewrites on a mode switch (besides the LUT bits).
    #[must_use]
    pub fn parameterized_routing_bits(&self) -> usize {
        self.param.parameterized_bits()
    }

    /// The DCS reconfiguration cost.
    #[must_use]
    pub fn dcs_cost(&self) -> RewriteCost {
        self.model.dcs_cost(&self.param)
    }

    /// The MDR cost on the *same* fabric (for speed-up ratios).
    #[must_use]
    pub fn mdr_cost(&self) -> RewriteCost {
        self.model.mdr_cost()
    }

    /// Wires used by mode `mode` when active.
    #[must_use]
    pub fn wires_in_mode(&self, mode: usize) -> usize {
        self.routing.wires_in_mode(&self.rrg, mode)
    }

    /// Mean wires per mode.
    #[must_use]
    pub fn mean_wires(&self) -> f64 {
        let m = self.tunable.space().mode_count();
        let total: usize = (0..m).map(|i| self.wires_in_mode(i)).sum();
        total as f64 / m as f64
    }

    /// Per-mode routed critical-path delays (STA over the actual wire
    /// segments of this result's routing). `circuits` must be the mode
    /// circuits the flow ran on.
    ///
    /// # Errors
    ///
    /// Fails if a mode's connections are not covered by the routing or
    /// a circuit is combinationally cyclic.
    pub fn critical_paths(&self, circuits: &[LutCircuit]) -> Result<Vec<f64>, FlowError> {
        // `route_nets` is a pure function of the tunable circuit and the
        // graph, so this rebuilds exactly the net list that was routed.
        let nets = self.tunable.route_nets(&self.rrg);
        circuits
            .iter()
            .enumerate()
            .map(|(m, c)| {
                let p = &self.placement.modes[m];
                mm_sta::analyze_routed(c, |b| p.site_of(b), &self.rrg, &nets, &self.routing, m)
                    .map(|a| a.critical_path)
                    .map_err(|e| FlowError::Internal(format!("mode '{}' STA: {e}", c.name())))
            })
            .collect()
    }
}

/// Builds the per-sink routing-criticality closure for a timing-driven
/// DCS run: per-mode STA under placement-estimated (Manhattan) delays,
/// collapsed onto RR source/sink node pairs by max over modes.
///
/// Criticalities are computed eagerly (so STA errors surface here); the
/// returned closure only re-keys them onto whichever graph a width
/// attempt builds. Connections the net list does not carry (none today)
/// would default to 0.0 — plain congestion routing, never a panic.
fn estimated_criticality_fn<'a>(
    circuits: &'a [LutCircuit],
    placement: &'a MultiPlacement,
) -> Result<BoxedCritFn<'a>, FlowError> {
    let manhattan = |a: mm_arch::Site, b: mm_arch::Site| -> f64 {
        f64::from(u32::from(a.x.abs_diff(b.x)) + u32::from(a.y.abs_diff(b.y)))
    };
    let mut mode_crits: Vec<Vec<f64>> = Vec::with_capacity(circuits.len());
    for (m, c) in circuits.iter().enumerate() {
        let p = &placement.modes[m];
        let analysis = mm_sta::analyze_estimated(c, |s, d| manhattan(p.site_of(s), p.site_of(d)))
            .map_err(|e| FlowError::Internal(format!("mode '{}' STA: {e}", c.name())))?;
        mode_crits.push(analysis.criticalities());
    }
    Ok(Box::new(move |rrg, nets| {
        let mut by_pair: std::collections::HashMap<(mm_arch::RrNodeId, mm_arch::RrNodeId), f64> =
            std::collections::HashMap::new();
        for (m, c) in circuits.iter().enumerate() {
            let p = &placement.modes[m];
            for (ci, (src, dst)) in c.connections().into_iter().enumerate() {
                let key = (rrg.source_at(p.site_of(src)), rrg.sink_at(p.site_of(dst)));
                let slot = by_pair.entry(key).or_insert(0.0);
                if mode_crits[m][ci] > *slot {
                    *slot = mode_crits[m][ci];
                }
            }
        }
        nets.iter()
            .map(|net| {
                net.sinks
                    .iter()
                    .map(|s| by_pair.get(&(net.source, s.node)).copied().unwrap_or(0.0))
                    .collect()
            })
            .collect()
    }))
}

/// The paper's flow: merge by combined placement, then Dynamic Circuit
/// Specialization.
#[derive(Debug, Clone, Copy)]
pub struct DcsFlow {
    options: FlowOptions,
    cost: CostKind,
}

impl DcsFlow {
    /// Creates the flow with the paper's default wire-length-optimised
    /// combined placement.
    #[must_use]
    pub fn new(options: FlowOptions) -> Self {
        Self {
            options,
            cost: CostKind::WireLength,
        }
    }

    /// Selects the combined-placement cost function (wire length vs edge
    /// matching).
    #[must_use]
    pub fn with_cost(mut self, cost: CostKind) -> Self {
        self.cost = cost;
        self
    }

    /// The flow options.
    #[must_use]
    pub fn options(&self) -> &FlowOptions {
        &self.options
    }

    /// The combined-placement cost function.
    #[must_use]
    pub fn cost(&self) -> CostKind {
        self.cost
    }

    /// Runs the flow: combined placement → tunable circuit → mode-aware
    /// routing → parameterized configuration.
    ///
    /// # Errors
    ///
    /// Fails on placement/routing failure or verification errors.
    pub fn run(&self, input: &MultiModeInput) -> Result<DcsResult, FlowError> {
        let placement = self.place(input)?;
        self.run_with_placement(input, placement)
    }

    /// Stage 1 of DCS: the combined placement of all modes (paper
    /// §III-A/B).
    ///
    /// This is the expensive, seed-determined stage; the batch engine
    /// caches its output by content address.
    ///
    /// # Errors
    ///
    /// Fails if the modes cannot be placed.
    pub fn place(&self, input: &MultiModeInput) -> Result<MultiPlacement, FlowError> {
        let base = self.options.base_arch(input);
        let placer = PlacerOptions {
            cost: self.cost,
            ..self.options.placer
        };
        let (placement, _) = place_combined(input.circuits(), &base, &placer)?;
        Ok(placement)
    }

    /// Stage 2 of DCS: tunable-circuit extraction, mode-aware routing and
    /// parameterized-configuration derivation on top of an existing
    /// combined placement.
    ///
    /// # Errors
    ///
    /// Fails if the placement does not fit the input, or on
    /// routing/verification failure: a failed width search is
    /// `Unroutable` with context "tunable circuit", a failure at the
    /// final width `UnreachableSinks` or `Unroutable` with context
    /// "tunable circuit at final width".
    pub fn run_with_placement(
        &self,
        input: &MultiModeInput,
        placement: MultiPlacement,
    ) -> Result<DcsResult, FlowError> {
        let base = self.options.base_arch(input);
        let router = RouterOptions {
            mode_count: input.mode_count(),
            ..self.options.router
        };
        mm_place::verify_placement(input.circuits(), &base, &placement)
            .map_err(FlowError::Input)?;

        let tunable = TunableCircuit::from_placement(input.circuits(), &placement, &base)?;
        tunable
            .verify_projection(input.circuits(), &placement)
            .map_err(FlowError::Internal)?;

        // Timing-driven runs estimate per-connection criticality from the
        // placement (Manhattan distances) and blend it into the router's
        // wire costs; the width search itself stays congestion-only so
        // fabrics are sized identically across cost kinds.
        let crit_fn = if matches!(self.cost, CostKind::Timing { .. }) {
            Some(estimated_criticality_fn(input.circuits(), &placement)?)
        } else {
            None
        };

        let (arch, rrg, mut routings, width_searches) = route_leg(
            &base,
            &self.options,
            &router,
            &["tunable circuit".to_string()],
            crit_fn.as_deref(),
            |_, rrg| tunable.route_nets(rrg),
        )?;
        // Ends the criticality closure's borrow of `placement` (the box
        // has drop glue) before the result takes ownership.
        drop(crit_fn);
        let routing = routings.pop().expect("one routing per net list");
        let model = ConfigModel::new(&arch, &rrg);
        let param = ParamConfig::from_routing(&routing, input.space());

        Ok(DcsResult {
            arch,
            rrg,
            model,
            placement,
            tunable,
            routing,
            param,
            width_searches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_bitstream::speedup;
    use mm_netlist::TruthTable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A deterministic random circuit (mirrors the placer's test helper).
    fn random_circuit(name: &str, n_inputs: usize, n_luts: usize, seed: u64) -> LutCircuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = LutCircuit::new(name, 4);
        let mut drivers: Vec<mm_netlist::BlockId> = (0..n_inputs)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        for j in 0..n_luts {
            let fanin = rng.gen_range(2..=4.min(drivers.len()));
            let mut ins = Vec::new();
            while ins.len() < fanin {
                let d = drivers[rng.gen_range(0..drivers.len())];
                if !ins.contains(&d) {
                    ins.push(d);
                }
            }
            let tt = TruthTable::from_bits(ins.len(), rng.gen());
            let id = c
                .add_lut(format!("n{j}"), ins, tt, rng.gen_bool(0.2))
                .unwrap();
            drivers.push(id);
        }
        for t in 0..3 {
            let d = drivers[drivers.len() - 1 - t];
            c.add_output(format!("o{t}"), d).unwrap();
        }
        c
    }

    fn small_input() -> MultiModeInput {
        MultiModeInput::new(vec![
            random_circuit("m0", 6, 20, 11),
            random_circuit("m1", 6, 22, 12),
        ])
        .unwrap()
    }

    #[test]
    fn input_validation() {
        assert!(MultiModeInput::new(vec![]).is_err());
        let a = random_circuit("a", 4, 5, 1);
        let mut b = LutCircuit::new("b", 5);
        let i = b.add_input("i").unwrap();
        b.add_output("o", i).unwrap();
        assert!(
            MultiModeInput::new(vec![a.clone(), b]).is_err(),
            "k mismatch"
        );
        let ok = MultiModeInput::new(vec![a]).unwrap();
        assert_eq!(ok.mode_count(), 1);
    }

    #[test]
    fn region_sizing_follows_biggest_mode() {
        let input = small_input();
        assert_eq!(input.max_luts(), 22);
        // ceil(sqrt(22 * 1.2)) = 6.
        assert_eq!(input.region(), 6);
    }

    #[test]
    fn mdr_flow_end_to_end() {
        let input = small_input();
        let result = MdrFlow::new(FlowOptions::default()).run(&input).unwrap();
        assert_eq!(result.placements.len(), 2);
        assert_eq!(result.routings.len(), 2);
        let mdr = result.mdr_cost();
        assert!(mdr.routing_bits > mdr.lut_bits, "routing dominates");
        // The diff cost is strictly smaller than the full region.
        let diff = result.diff_cost(0, 1);
        assert!(diff.routing_bits < mdr.routing_bits);
        assert!(result.mean_wires() > 0.0);
        // One width search per mode; the leg did not grow, so the
        // largest minimum relaxes to the final width.
        assert_eq!(result.width_searches.len(), 2);
        let min = result.width_searches.iter().map(|s| s.min_width).max();
        assert_eq!(min.map(relaxed_width), Some(result.arch.channel_width));
    }

    #[test]
    fn dcs_flow_end_to_end_and_beats_mdr() {
        let input = small_input();
        let mdr = MdrFlow::new(FlowOptions::default()).run(&input).unwrap();
        let dcs = DcsFlow::new(FlowOptions::default()).run(&input).unwrap();
        assert!(dcs.routing.success);
        let s = speedup(&mdr.mdr_cost(), &dcs.dcs_cost());
        assert!(s > 1.0, "DCS must beat full-region rewrites, got {s:.2}");
        // Structure sanity.
        let stats = dcs.tunable.stats();
        assert_eq!(stats.modes, 2);
        assert!(stats.tunable_luts >= input.max_luts());
        assert!(dcs.parameterized_routing_bits() > 0);
        // One width search, of the tunable circuit.
        let [search] = &dcs.width_searches[..] else {
            panic!("{:?}", dcs.width_searches);
        };
        assert_eq!(relaxed_width(search.min_width), dcs.arch.channel_width);
    }

    #[test]
    fn fixed_width_skips_search() {
        let input = small_input();
        let options = FlowOptions::default().with_fixed_width(12);
        let dcs = DcsFlow::new(options).run(&input).unwrap();
        assert_eq!(dcs.arch.channel_width, 12);
    }

    #[test]
    fn edge_matching_cost_flows_too() {
        let input = small_input();
        let options = FlowOptions::default();
        let dcs = DcsFlow::new(options)
            .with_cost(CostKind::EdgeMatching)
            .run(&input)
            .unwrap();
        assert!(dcs.routing.success);
        assert!(dcs.tunable.merged_connection_count() > 0);
    }

    #[test]
    fn staged_run_equals_monolithic_run() {
        let input = small_input();
        let options = FlowOptions::default().with_fixed_width(12);
        let flow = DcsFlow::new(options);
        let placement = flow.place(&input).unwrap();
        let staged = flow.run_with_placement(&input, placement).unwrap();
        let whole = flow.run(&input).unwrap();
        assert_eq!(
            staged.param.parameterized_bits(),
            whole.param.parameterized_bits()
        );
        assert_eq!(staged.arch.channel_width, whole.arch.channel_width);
        assert_eq!(
            staged.routing.total_wires(&staged.rrg),
            whole.routing.total_wires(&whole.rrg)
        );
        assert!(
            staged.width_searches.is_empty(),
            "a fixed width searches nothing"
        );

        let mdr_flow = MdrFlow::new(options);
        let placements = mdr_flow.place(&input).unwrap();
        let staged = mdr_flow.run_with_placements(&input, placements).unwrap();
        let whole = mdr_flow.run(&input).unwrap();
        assert_eq!(staged.mdr_cost(), whole.mdr_cost());
        assert_eq!(staged.diff_cost(0, 1), whole.diff_cost(0, 1));
        assert!(
            staged.width_searches.is_empty(),
            "a fixed width searches nothing"
        );
    }

    #[test]
    fn a_fixed_width_below_the_need_grows_on_the_ladder() {
        // Both flows retry a congested leg +1, +2, +4, … tracks wider:
        // DCS from 2 tries 2, 3, 4 and lands on 6, skipping the 5 that
        // routes from 3 and from 4.
        let input = small_input();
        let width = |w| FlowOptions::default().with_fixed_width(w);
        for (fixed, grown) in [(2, 6), (3, 5), (4, 5)] {
            let dcs = DcsFlow::new(width(fixed)).run(&input).unwrap();
            assert_eq!(dcs.arch.channel_width, grown, "DCS from {fixed}");
        }
        let mdr = MdrFlow::new(width(2)).run(&input).unwrap();
        assert_eq!(mdr.arch.channel_width, 3, "MDR from 2");
    }

    #[test]
    fn fixed_width_above_max_width_is_capped_in_every_flow() {
        // A pinned width above the cap routes at the cap in MDR as it
        // does in DCS: both route through `route_leg`, which clamps it.
        let input = small_input();
        let options = FlowOptions {
            max_width: 10,
            ..FlowOptions::default().with_fixed_width(12)
        };
        let mdr = MdrFlow::new(options).run(&input).unwrap();
        let dcs = DcsFlow::new(options).run(&input).unwrap();
        assert_eq!(mdr.arch.channel_width, 10);
        assert_eq!(dcs.arch.channel_width, 10);
    }

    #[test]
    fn routed_critical_paths_are_plausible() {
        let input = MultiModeInput::new(vec![
            random_circuit("m0", 5, 18, 61),
            random_circuit("m1", 5, 20, 62),
        ])
        .unwrap();
        let mut options = FlowOptions::default();
        options.placer.inner_num = 1.0;
        let mdr = MdrFlow::new(options).run(&input).unwrap();
        let dcs = DcsFlow::new(options).run(&input).unwrap();

        let mdr_paths = mdr.critical_paths(input.circuits()).unwrap();
        let dcs_paths = dcs.critical_paths(input.circuits()).unwrap();
        for (mode, (tm, td)) in mdr_paths.iter().zip(&dcs_paths).enumerate() {
            assert!(*tm >= mm_sta::LUT_DELAY, "mode {mode}: {tm}");
            assert!(*td >= mm_sta::LUT_DELAY, "mode {mode}: {td}");
            // The merged implementation pays a bounded latency penalty —
            // the timing analogue of the paper's bounded wire overhead.
            assert!(*td <= tm * 3.0, "mode {mode}: DCS {td} vs MDR {tm}");
        }
    }

    #[test]
    fn combinational_depth_contributes() {
        // A 3-LUT chain must have critical path ≥ 3 LUT delays.
        let mut c = LutCircuit::new("chain", 4);
        let a = c.add_input("a").unwrap();
        let g1 = c
            .add_lut("g1", vec![a], TruthTable::var(1, 0), false)
            .unwrap();
        let g2 = c
            .add_lut("g2", vec![g1], TruthTable::var(1, 0), false)
            .unwrap();
        let g3 = c
            .add_lut("g3", vec![g2], TruthTable::var(1, 0), false)
            .unwrap();
        c.add_output("y", g3).unwrap();
        let input = MultiModeInput::new(vec![c]).unwrap();
        let mut options = FlowOptions::default();
        options.placer.inner_num = 1.0;
        let mdr = MdrFlow::new(options).run(&input).unwrap();
        let t = mdr.critical_paths(input.circuits()).unwrap()[0];
        assert!(t >= 3.0 * mm_sta::LUT_DELAY);
    }

    #[test]
    fn stale_placement_rejected() {
        let input = small_input();
        let other = MultiModeInput::new(vec![
            random_circuit("m0", 6, 24, 77),
            random_circuit("m1", 6, 25, 78),
        ])
        .unwrap();
        let options = FlowOptions::default().with_fixed_width(12);
        let flow = DcsFlow::new(options);
        // A placement computed for different circuits must not silently
        // produce a result (this is the cache-poisoning guard).
        let placement = flow.place(&other).unwrap();
        let err = flow.run_with_placement(&input, placement);
        assert!(err.is_err());
        // The same guard on the MDR side: per-mode placements of other
        // circuits are rejected before routing.
        let mdr = MdrFlow::new(options);
        let placements = mdr.place(&other).unwrap();
        let err = mdr.run_with_placements(&input, placements).unwrap_err();
        assert!(matches!(err, FlowError::Input(_)), "{err}");
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let a = FlowOptions::default();
        assert_eq!(a.fingerprint(), FlowOptions::default().fingerprint());
        let b = FlowOptions::default().with_seed(1);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = FlowOptions::default().with_fixed_width(9);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = FlowOptions::default();
        d.router.bbox_margin = 5;
        assert_ne!(a.fingerprint(), d.fingerprint());
        let mut e = FlowOptions::default();
        e.placer.inner_num = 2.0;
        assert_ne!(a.fingerprint(), e.fingerprint());
    }

    #[test]
    fn unreachable_sinks_fail_fast() {
        // A "sink" that is really a SOURCE node has no incoming edges, so
        // no channel width can reach it: the route stage must surface the
        // structured error instead of burning width-growth retries.
        let arch = Architecture::new(4, 3, 4);
        let options = FlowOptions {
            max_width: 64,
            ..FlowOptions::default().with_fixed_width(4)
        };
        let calls = std::cell::Cell::new(0);
        let err = route_leg(
            &arch,
            &options,
            &RouterOptions::default(),
            &["growth test".to_string()],
            None,
            |_, rrg| {
                calls.set(calls.get() + 1);
                vec![RouteNet {
                    name: "stuck".into(),
                    source: rrg.logic_source(mm_arch::Site::new(1, 1, 0)),
                    sinks: vec![mm_route::RouteSink {
                        node: rrg.logic_source(mm_arch::Site::new(3, 3, 0)),
                        activation: ModeSet::of(&[0]),
                    }],
                }]
            },
        )
        .unwrap_err();
        match err {
            FlowError::UnreachableSinks { context, nets } => {
                assert_eq!(context, "growth test at final width");
                assert_eq!(nets, vec!["stuck".to_string()]);
            }
            other => panic!("expected UnreachableSinks, got {other}"),
        }
        assert_eq!(calls.get(), 1, "one attempt, no growth");
    }

    #[test]
    fn unroutable_reported() {
        // Both flows name the failing list: its search at the relaxed
        // width, "… at final width" when a pinned width cannot grow.
        let input = small_input();
        let options = FlowOptions {
            max_width: 1,
            router: RouterOptions {
                max_iterations: 3,
                ..RouterOptions::default()
            },
            ..FlowOptions::default()
        };
        for (options, suffix) in [
            (options, ""),
            (options.with_fixed_width(1), " at final width"),
        ] {
            let dcs = DcsFlow::new(options).run(&input).map(|_| ());
            let mdr = MdrFlow::new(options).run(&input).map(|_| ());
            for (err, list) in [(dcs, "tunable circuit"), (mdr, "MDR mode 0")] {
                match err.unwrap_err() {
                    FlowError::Unroutable { max_width, context } => {
                        assert_eq!(max_width, 1);
                        assert_eq!(context, format!("{list}{suffix}"));
                    }
                    other => panic!("expected Unroutable, got {other}"),
                }
            }
        }
    }
}
