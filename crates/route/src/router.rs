//! Mode-aware PathFinder negotiated-congestion routing.
//!
//! The core is the classic PathFinder/VPR algorithm: route every net with
//! an A*-guided Dijkstra over the routing-resource graph, allow resource
//! overuse, then iterate with growing present-congestion penalties and
//! accumulated history costs until the solution is feasible — or until a
//! stop rule gives a hopeless route up early: a warm-up verdict after the
//! reroute-all iterations, or a routability predictor in the style of the
//! VTR 8 router that finds the overuse stuck high.
//!
//! The multi-mode twist (TRoute, Vansteenkiste et al. [5]) is that every
//! connection carries an *activation function* — the set of modes in which
//! it must be realised — and occupancy is tracked **per mode**: two
//! connections may share a wire when their activation sets are disjoint,
//! because they are never active at the same time. With a single mode this
//! degenerates to standard PathFinder, which is how the MDR baseline is
//! routed.
//!
//! # Hot-path engineering
//!
//! [`Router`] is built for repeated rip-up-and-reroute over the same RRG
//! and keeps every piece of search state in a persistent, generation-
//! stamped scratch arena:
//!
//! * the A* heap, path buffer and sink-order buffer are reused across
//!   nets and across [`Router::route`] calls;
//! * each node's search state is one stamped record (distance, stamp,
//!   predecessor, switch), and heap entries order by the bits of their
//!   cost, which is exact because every edge costs ≥ 0;
//! * a neighbour already reached at no more than the popped entry's cost
//!   is skipped before it is priced, the history factor of every node's
//!   cost is cached, and the sharing and criticality branches are decided
//!   once per search;
//! * `tree_pos` (RRG node → route-tree index) is a stamped `Vec<u32>`
//!   instead of a per-net hash map;
//! * overuse/history accounting walks only the nodes *touched* since the
//!   previous evaluation instead of scanning the whole graph;
//! * every net search is confined to a VPR-style bounding box around the
//!   net's terminals ([`RouterOptions::bbox_margin`]) that grows — first
//!   on unreachable sinks, then on persistent congestion — until it
//!   covers the fabric, so pruning never costs routability.
//!
//! The naive, allocation-per-net formulation of the same algorithm lives
//! in [`crate::reference`]; the two are kept byte-identical by the
//! differential property tests in `tests/parity.rs`.

use mm_arch::{RoutingGraph, RrKind, RrNodeId, SwitchId};
use mm_boolexpr::{ModeSet, ModeSpace};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One sink of a [`RouteNet`]: a `SINK` node plus the modes in which the
/// connection must exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteSink {
    /// Target `SINK` node.
    pub node: RrNodeId,
    /// Activation function of the connection.
    pub activation: ModeSet,
}

/// A net to route: one source, any number of activation-annotated sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteNet {
    /// Net name (diagnostics only).
    pub name: String,
    /// The `SOURCE` node of the driver site.
    pub source: RrNodeId,
    /// Sinks with activations.
    pub sinks: Vec<RouteSink>,
}

/// Options of the router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterOptions {
    /// Maximum rip-up-and-reroute iterations before giving up.
    pub max_iterations: usize,
    /// Number of modes (1 for conventional single-circuit routing).
    pub mode_count: usize,
    /// Reconfiguration-aware cost shaping (TRoute-style): discount applied
    /// to an edge whose switch would become *less* parameterized by this
    /// connection (e.g. a mode-0 wire reused by the complementary mode-1
    /// connection turns static). 0 disables sharing-seeking.
    pub share_discount: f64,
    /// Penalty applied to an edge whose switch would become parameterized
    /// (a freshly used mode-exclusive switch).
    pub param_penalty: f64,
    /// Margin (in grid units) added around a net's terminal extent to
    /// form its expansion bounding box; a net's initial margin is
    /// `max(bbox_margin, hpwl / 4)`, where `hpwl` is the half-perimeter
    /// of its terminal extent, so large nets (whose detours scale with
    /// their span) start with proportionally more slack. The box grows
    /// automatically when a sink is unreachable inside it or when the net
    /// stays congested, so routability is never lost to pruning.
    /// `usize::MAX` disables bounding boxes (full-fabric exploration).
    pub bbox_margin: usize,
    /// Incremental rip-up: congested nets keep the subtrees that avoid
    /// every overused node and re-route only the sinks they lost, instead
    /// of being torn down wholesale each iteration.
    pub incremental: bool,
    /// Fanout threshold for rectilinear-Steiner net decomposition: a net
    /// with at least this many sinks is routed segment by segment along a
    /// Hanan-grid Steiner topology ([`Router`] builds the topology with a
    /// Prim-style nearest-terminal sweep), each segment confined to a
    /// small local bounding box instead of the whole-net box — the
    /// sink-by-sink searches of a fanout-100 broadcast net stop scaling
    /// with the net's full extent. `0` (the default) disables Steiner
    /// decomposition entirely, keeping every routing byte-identical to
    /// the sink-by-sink router.
    pub steiner_fanout: usize,
}

impl Default for RouterOptions {
    fn default() -> Self {
        Self {
            max_iterations: 40,
            mode_count: 1,
            share_discount: 0.35,
            param_penalty: 0.2,
            bbox_margin: 3,
            incremental: true,
            steiner_fanout: 0,
        }
    }
}

impl RouterOptions {
    /// Options for a multi-mode (tunable-circuit) routing problem.
    #[must_use]
    pub fn for_modes(mode_count: usize) -> Self {
        Self {
            mode_count,
            ..Self::default()
        }
    }

    /// Returns a copy with bounding-box pruning disabled (full-fabric
    /// search, the pre-optimization behaviour).
    #[must_use]
    pub fn without_bbox(mut self) -> Self {
        self.bbox_margin = usize::MAX;
        self
    }

    /// Returns a copy with incremental rip-up disabled (every congested
    /// net is fully torn down and re-routed — the pre-optimization
    /// behaviour).
    #[must_use]
    pub fn with_full_reroute(mut self) -> Self {
        self.incremental = false;
        self
    }

    /// Returns a copy with Steiner decomposition enabled for nets of at
    /// least `fanout` sinks (see [`RouterOptions::steiner_fanout`]).
    #[must_use]
    pub fn with_steiner(mut self, fanout: usize) -> Self {
        self.steiner_fanout = fanout;
        self
    }

    /// A stable fingerprint of every option that affects the produced
    /// routing (floats by bit pattern), used by the batch engine's stage
    /// cache keys.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!(
            "router-v8;it={};m={};sd={:016x};pp={:016x};bb={};inc={};sf={}",
            self.max_iterations,
            self.mode_count,
            self.share_discount.to_bits(),
            self.param_penalty.to_bits(),
            self.bbox_margin,
            u8::from(self.incremental),
            self.steiner_fanout,
        )
    }
}

// The PathFinder schedule, shared with `crate::reference`. These are
// constants, not options: every flow routes with VPR's one schedule.

/// Present-congestion factor of the first iteration: low, so early
/// iterations overuse freely and discover short paths.
pub(crate) const PRES_FAC_FIRST: f64 = 0.5;
/// Present-congestion growth per iteration: after every rip-up pass the
/// present factor is multiplied by this, so congestion pressure ramps
/// geometrically until the solution is feasible.
pub(crate) const PRES_FAC_MULT: f64 = 1.8;
/// History cost added per unit of overuse per iteration — the long-term
/// memory of the negotiation.
pub(crate) const HISTORY_COST: f64 = 1.0;
/// A* aggressiveness: the weight of the distance-to-target estimate
/// (VPR's 1.2; 1.0 is admissible for unit-cost wires).
pub(crate) const ASTAR_FAC: f64 = 1.2;
/// Divisor of the HPWL seeding of initial bounding boxes (see
/// [`initial_margin`]).
pub(crate) const HPWL_MARGIN_DIV: usize = 4;

/// Warm-up iterations of every route: during them every net is rerouted
/// even without congestion, which lets the sharing-aware cost converge
/// before the router goes incremental.
pub const REROUTE_ALL_ITERS: usize = 3;

/// Upper clamp on per-sink routing criticalities: even the most critical
/// connection keeps a sliver of congestion sensitivity, so negotiation
/// can still price it off an overused wire.
pub const MAX_ROUTE_CRIT: f64 = 0.99;

/// One node of a routed net's route tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteTreeNode {
    /// The RRG node.
    pub node: RrNodeId,
    /// Index of the parent tree node (`None` for the source).
    pub parent: Option<u32>,
    /// The switch on the edge from the parent (`None` for the source and
    /// for hard-wired edges).
    pub switch: Option<SwitchId>,
    /// Modes in which this node carries the net — the OR of the
    /// activations of all sinks below it.
    pub activation: ModeSet,
}

/// The routed tree of one net.
#[derive(Debug, Clone, Default)]
pub struct NetRoute {
    /// Tree nodes; index 0 is the source, parents precede children.
    pub tree: Vec<RouteTreeNode>,
    /// For each sink (in [`RouteNet::sinks`] order) the index of its tree
    /// node.
    pub sink_pos: Vec<u32>,
}

impl NetRoute {
    /// Number of wire-segment nodes in the tree that are active in `mode`.
    #[must_use]
    pub fn wires_in_mode(&self, rrg: &RoutingGraph, mode: usize) -> usize {
        self.tree
            .iter()
            .filter(|t| {
                t.activation.contains(mode)
                    && matches!(rrg.node(t.node).kind, RrKind::ChanX | RrKind::ChanY)
            })
            .count()
    }

    /// Number of wire-segment nodes on the path from the source to sink
    /// `sink_index` — the unit-delay routed length of that connection.
    ///
    /// # Panics
    ///
    /// Panics if `sink_index` is out of range.
    #[must_use]
    pub fn wires_to_sink(&self, rrg: &RoutingGraph, sink_index: usize) -> usize {
        let mut wires = 0usize;
        let mut cur = Some(self.sink_pos[sink_index]);
        while let Some(p) = cur {
            let t = &self.tree[p as usize];
            if matches!(rrg.node(t.node).kind, RrKind::ChanX | RrKind::ChanY) {
                wires += 1;
            }
            cur = t.parent;
        }
        wires
    }

    /// Number of wire-segment nodes in the tree (any mode).
    #[must_use]
    pub fn wire_count(&self, rrg: &RoutingGraph) -> usize {
        self.tree
            .iter()
            .filter(|t| matches!(rrg.node(t.node).kind, RrKind::ChanX | RrKind::ChanY))
            .count()
    }
}

/// Result of a routing run.
#[derive(Debug, Clone)]
pub struct Routing {
    /// One route per net, in input order.
    pub nets: Vec<NetRoute>,
    /// Iterations executed. A failed routing may report fewer than
    /// [`RouterOptions::max_iterations`]: the router stops early on a
    /// sink with no path at all, when no net needed rerouting, and on
    /// either of two stop rules over [`Routing::overuse`]:
    ///
    /// * the warm-up verdict: after the [`REROUTE_ALL_ITERS`] reroute-all
    ///   iterations, the last one's overused-node count is at least the
    ///   first one's and at least 2 per net;
    /// * the routability predictor: over the last 8 iterations the
    ///   smallest overused-node count so far fell by less than 5 % while
    ///   still at least 6 % of the first iteration's.
    ///
    /// Both rules are heuristics, exact on the paper's corpus but not in
    /// general. Over every width probe and final route of the 30 paper
    /// pairings run as pair jobs, neither stops a route that would have
    /// converged (the route crate's corpus replay test checks this). On
    /// small random problems they can: of the 13,885 routes of the route
    /// parity suites' generators that converge with no stop rule (seeds
    /// 0–5999, widths 2–4 and 1–4, plain and criticality-weighted), the
    /// predictor stops 39 and the two rules together 43.
    pub iterations: usize,
    /// Overused-node count after each iteration (`overuse[i]` belongs to
    /// iteration `i + 1`), ending in 0 on success. An iteration that left
    /// a sink with no path ends the route before it is counted.
    pub overuse: Vec<usize>,
    /// Whether the final solution is overuse-free and complete.
    pub success: bool,
    /// Number of overused nodes at the end (0 on success).
    pub overused_nodes: usize,
    /// Sinks for which no path exists at all (0 on success).
    pub unrouted_sinks: usize,
}

impl Routing {
    /// Total wire segments used by all nets (wires shared across modes
    /// count once).
    #[must_use]
    pub fn total_wires(&self, rrg: &RoutingGraph) -> usize {
        self.nets.iter().map(|n| n.wire_count(rrg)).sum()
    }

    /// Wire segments used in `mode` — the per-mode wire usage of the
    /// paper's Fig. 7.
    #[must_use]
    pub fn wires_in_mode(&self, rrg: &RoutingGraph, mode: usize) -> usize {
        self.nets.iter().map(|n| n.wires_in_mode(rrg, mode)).sum()
    }

    /// Names of the nets with at least one sink no path reached
    /// ([`Routing::unrouted_sinks`] counts them) — what a flow reports
    /// when it fails the route stage on hard unreachability instead of
    /// retrying at wider channels.
    #[must_use]
    pub fn unreachable_nets<'n>(&self, nets: &'n [RouteNet]) -> Vec<&'n str> {
        nets.iter()
            .zip(&self.nets)
            .filter(|(net, route)| {
                net.sinks.iter().zip(&route.sink_pos).any(|(sink, &pos)| {
                    route
                        .tree
                        .get(pos as usize)
                        .is_none_or(|t| t.node != sink.node)
                })
            })
            .map(|(net, _)| net.name.as_str())
            .collect()
    }
}

/// Per-(node, mode) usage counts.
pub(crate) struct Occupancy {
    pub(crate) counts: Vec<u16>,
    pub(crate) modes: usize,
}

impl Occupancy {
    pub(crate) fn new(nodes: usize, modes: usize) -> Self {
        Self {
            counts: vec![0; nodes * modes],
            modes,
        }
    }

    pub(crate) fn add(&mut self, node: usize, act: ModeSet) {
        for m in act.iter() {
            self.counts[node * self.modes + m] += 1;
        }
    }

    pub(crate) fn remove(&mut self, node: usize, act: ModeSet) {
        for m in act.iter() {
            let c = &mut self.counts[node * self.modes + m];
            debug_assert!(*c > 0, "occupancy underflow");
            *c -= 1;
        }
    }

    /// Maximum usage over the modes of `act`.
    pub(crate) fn max_in(&self, node: usize, act: ModeSet) -> u16 {
        act.iter()
            .map(|m| self.counts[node * self.modes + m])
            .max()
            .unwrap_or(0)
    }

    /// Maximum usage over all modes.
    pub(crate) fn max_all(&self, node: usize) -> u16 {
        (0..self.modes)
            .map(|m| self.counts[node * self.modes + m])
            .max()
            .unwrap_or(0)
    }
}

/// Min-heap entry of the A* search, ordered by the bit pattern of its
/// estimated total cost: every cost is finite and ≥ 0, where an f64's
/// bits order like its value. Equal costs pop the larger node first,
/// as the reference's f64-ordered entry does.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    /// Bits of the estimated total cost (g + h).
    f: u64,
    /// Cost to come.
    g: f64,
    node: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we need the smallest f.
        other
            .f
            .cmp(&self.f)
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A node's A* record of one search, valid while `gen` matches the
/// router's search generation.
#[derive(Debug, Clone, Copy)]
struct Visit {
    /// Best cost-to-come found so far.
    dist: f64,
    gen: u32,
    /// Predecessor on that path (the node itself for a seed).
    prev: u32,
    /// The switch on the edge from `prev`.
    switch: Option<SwitchId>,
}

/// A net's expansion bounding box (inclusive, grid coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BBox {
    pub(crate) x0: u16,
    pub(crate) y0: u16,
    pub(crate) x1: u16,
    pub(crate) y1: u16,
}

impl BBox {
    #[inline]
    pub(crate) fn contains(&self, x: u16, y: u16) -> bool {
        x >= self.x0 && x <= self.x1 && y >= self.y0 && y <= self.y1
    }

    /// Whether the box already spans the whole fabric — growing it
    /// further cannot help.
    pub(crate) fn covers_fabric(&self, max_x: u16, max_y: u16) -> bool {
        self.x0 == 0 && self.y0 == 0 && self.x1 >= max_x && self.y1 >= max_y
    }
}

/// The bounding box of a net's terminals, expanded by `margin` and
/// clamped to the fabric extent.
pub(crate) fn net_bbox(
    rrg: &RoutingGraph,
    net: &RouteNet,
    margin: usize,
    max_x: u16,
    max_y: u16,
) -> BBox {
    let src = rrg.node(net.source);
    let (mut x0, mut y0, mut x1, mut y1) = (src.x, src.y, src.x, src.y);
    for s in &net.sinks {
        let n = rrg.node(s.node);
        x0 = x0.min(n.x);
        y0 = y0.min(n.y);
        x1 = x1.max(n.x);
        y1 = y1.max(n.y);
    }
    // Clamp the margin to the fabric extent before converting to u16 so
    // `usize::MAX` (pruning disabled) cannot overflow. `max(max_x, max_y)`
    // always fits u16 and is enough for the box to span the whole fabric
    // from any terminal, so `covers_fabric` stays reachable and the
    // grow-until-covered loop always terminates.
    let m = margin.min(usize::from(max_x.max(max_y))) as u16;
    BBox {
        x0: x0.saturating_sub(m),
        y0: y0.saturating_sub(m),
        x1: x1.saturating_add(m).min(max_x),
        y1: y1.saturating_add(m).min(max_y),
    }
}

/// Grows a bounding-box margin (on unreachable sinks or persistent
/// congestion). Doubling-plus-one reaches full-fabric in O(log n) steps;
/// the result is capped at `extent` (the fabric's `max(max_x, max_y)`),
/// beyond which a wider margin cannot change any clamped box — growth on
/// an unroutable sink terminates at the cap instead of "growing" a
/// saturated `usize::MAX` forever.
pub(crate) fn grow_margin(margin: usize, extent: usize) -> usize {
    margin.saturating_mul(2).saturating_add(1).min(extent)
}

/// The fabric extent `max(max_x, max_y)` of an RRG — the margin value at
/// which every expansion bounding box covers the whole fabric.
pub(crate) fn fabric_extent(rrg: &RoutingGraph) -> usize {
    let (mut max_x, mut max_y) = (0u16, 0u16);
    for i in 0..rrg.node_count() {
        let node = rrg.node(RrNodeId::from_index(i as u32));
        max_x = max_x.max(node.x);
        max_y = max_y.max(node.y);
    }
    usize::from(max_x.max(max_y))
}

/// The half-perimeter (HPWL) of a net's terminal extent in grid units.
pub(crate) fn net_hpwl(rrg: &RoutingGraph, net: &RouteNet) -> usize {
    let src = rrg.node(net.source);
    let (mut x0, mut y0, mut x1, mut y1) = (src.x, src.y, src.x, src.y);
    for s in &net.sinks {
        let n = rrg.node(s.node);
        x0 = x0.min(n.x);
        y0 = y0.min(n.y);
        x1 = x1.max(n.x);
        y1 = y1.max(n.y);
    }
    usize::from(x1 - x0) + usize::from(y1 - y0)
}

/// The initial bounding-box margin of one net under `options`: the fixed
/// [`RouterOptions::bbox_margin`], widened to `hpwl / HPWL_MARGIN_DIV`
/// for nets whose placement extent calls for more slack. The result is
/// clamped to `extent` (the fabric's `max(max_x, max_y)`) up front — a
/// `usize::MAX` margin otherwise seeds a box far beyond the fabric and
/// [`grow_margin`]'s doubling burns growth steps on boxes `net_bbox`
/// re-clamps every call.
pub(crate) fn initial_margin(
    rrg: &RoutingGraph,
    net: &RouteNet,
    options: &RouterOptions,
    extent: usize,
) -> usize {
    options
        .bbox_margin
        .max(net_hpwl(rrg, net) / HPWL_MARGIN_DIV)
        .min(extent)
}

/// The number of extra iterations nets get to negotiate congestion inside
/// their initial bounding boxes before the boxes start growing.
pub(crate) const BBOX_CONGESTION_GRACE: usize = 2;

/// Iterations the routability predictor looks back over.
const STALL_WINDOW: usize = 8;
/// Percent by which the best overuse must fall over [`STALL_WINDOW`]
/// iterations to count as progress.
const STALL_MIN_GAIN_PCT: usize = 5;
/// Percent of the first iteration's overuse at or above which a stalled
/// route is given up; below it the route keeps negotiating. Converging
/// routes of the paper's pairings stall at most at 2.15 %, a 2.8x margin
/// under this gate.
const STALL_GATE_PCT: usize = 6;

/// The routability predictor: whether negotiation is stuck, so the route
/// can stop before `max_iterations` (which the rule does not look at).
///
/// `overuse[i]` is the overused-node count of iteration `i + 1` and
/// `overuse.len()` the iteration just finished. The route is given up
/// once, over the last [`STALL_WINDOW`] iterations, its best (smallest so
/// far) overuse fell by less than [`STALL_MIN_GAIN_PCT`] percent while
/// still at least [`STALL_GATE_PCT`] percent of the first iteration's.
///
/// Converging routes plateau too, but on the regexp/fir/mcnc suites only
/// in a low-overuse tail (at most 2.15 % of their first overuse,
/// regexp3+regexp4's wire-length route at width 9), which the gate keeps
/// running: some converge as late as iteration 40. A near miss that
/// stalls above the gate is given up, such as a width search's w*-1
/// probe whose best is 12 % of its first overuse before it diverges; one
/// whose best overuse sinks under the gate runs to the cap.
pub(crate) fn congestion_stalled(overuse: &[usize]) -> bool {
    stalled_best(overuse).is_some_and(|now| now * 100 >= overuse[0] * STALL_GATE_PCT)
}

/// The best overuse so far, if it fell by less than [`STALL_MIN_GAIN_PCT`]
/// percent over the last [`STALL_WINDOW`] iterations: the predictor's
/// window-and-gain condition, before its gate.
fn stalled_best(overuse: &[usize]) -> Option<usize> {
    let n = overuse.len();
    if n <= STALL_WINDOW {
        return None;
    }
    let best = |span: &[usize]| span.iter().copied().min().unwrap_or(usize::MAX);
    let then = best(&overuse[..n - STALL_WINDOW]);
    let now = then.min(best(&overuse[n - STALL_WINDOW..]));
    (now * 100 > then * (100 - STALL_MIN_GAIN_PCT)).then_some(now)
}

/// Overused nodes per net at or above which the warm-up verdict gives a
/// route up ([`warmup_stalled`]).
const WARMUP_FLOOR_PER_NET: usize = 2;

/// The warm-up verdict: whether a route is hopeless once its
/// [`REROUTE_ALL_ITERS`] reroute-all iterations are done, so it can stop
/// before the predictor's window fills.
///
/// `overuse` is as in [`congestion_stalled`] and `nets` the number of
/// nets routed. The rule fires only at iteration [`REROUTE_ALL_ITERS`],
/// when that iteration's overuse is at least the first iteration's (the
/// warm-up made no progress) and at least [`WARMUP_FLOOR_PER_NET`] per
/// net. Hopeless probes of the paper's pairings end their warm-up at 3.8
/// to 4.9 overused nodes per net. The floor keeps small congested
/// problems running: without it, a random route of the parity suite's
/// criticality proptest whose overuse went 2, 2, 2 over 5 nets, then 0 at
/// iteration 4, is given up.
pub(crate) fn warmup_stalled(overuse: &[usize], nets: usize) -> bool {
    let [first, .., last] = overuse else {
        return false;
    };
    overuse.len() == REROUTE_ALL_ITERS && last >= first && *last >= WARMUP_FLOOR_PER_NET * nets
}

/// One connection of a rectilinear Steiner decomposition: the sink to
/// route next and the tree-side attach coordinates that (together with
/// the sink) span its local search box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SteinerSeg {
    /// Index into [`RouteNet::sinks`].
    pub(crate) sink: u32,
    /// Attach-point x (a terminal already in the tree or a Hanan corner).
    pub(crate) ax: u16,
    /// Attach-point y.
    pub(crate) ay: u16,
}

/// Builds the rectilinear Steiner topology of a high-fanout net: a
/// Prim-style nearest-terminal sweep over the sink coordinates, with the
/// Hanan-grid corners of every accepted connection added as future attach
/// candidates. Returns one segment per sink in connection order; ties are
/// broken by (sink index, candidate index), so the topology is fully
/// deterministic. Shared by [`Router`] and [`crate::reference`] so both
/// route the exact same segments — the Steiner parity proptests rely on
/// that.
pub(crate) fn steiner_segments(rrg: &RoutingGraph, net: &RouteNet) -> Vec<SteinerSeg> {
    let src = rrg.node(net.source);
    // Attach candidates: terminals already connected plus Hanan corners.
    let mut cands: Vec<(u16, u16)> = vec![(src.x, src.y)];
    let mut remaining: Vec<u32> = (0..net.sinks.len() as u32).collect();
    let mut segs = Vec::with_capacity(net.sinks.len());
    while !remaining.is_empty() {
        // (distance, sink index, candidate index) — lexicographic min.
        let mut best: Option<(u32, u32, usize)> = None;
        let mut best_at = 0usize;
        for (ri, &si) in remaining.iter().enumerate() {
            let s = rrg.node(net.sinks[si as usize].node);
            for (ci, &(cx, cy)) in cands.iter().enumerate() {
                let d = u32::from(cx.abs_diff(s.x)) + u32::from(cy.abs_diff(s.y));
                let key = (d, si, ci);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                    best_at = ri;
                }
            }
        }
        let (_, si, ci) = best.expect("remaining is non-empty");
        let (cx, cy) = cands[ci];
        let s = rrg.node(net.sinks[si as usize].node);
        segs.push(SteinerSeg {
            sink: si,
            ax: cx,
            ay: cy,
        });
        // The sink itself and the two Hanan corners of the connection
        // become attach candidates for the remaining sinks.
        for p in [(s.x, s.y), (cx, s.y), (s.x, cy)] {
            if !cands.contains(&p) {
                cands.push(p);
            }
        }
        remaining.remove(best_at);
    }
    segs
}

/// The local expansion bounding box of one Steiner segment: the extent of
/// the sink and its attach point, expanded by `margin` and clamped to the
/// fabric — the Steiner-mode counterpart of [`net_bbox`].
pub(crate) fn steiner_bbox(
    rrg: &RoutingGraph,
    sink: RrNodeId,
    ax: u16,
    ay: u16,
    margin: usize,
    max_x: u16,
    max_y: u16,
) -> BBox {
    let s = rrg.node(sink);
    let m = margin.min(usize::from(max_x.max(max_y))) as u16;
    BBox {
        x0: s.x.min(ax).saturating_sub(m),
        y0: s.y.min(ay).saturating_sub(m),
        x1: s.x.max(ax).saturating_add(m).min(max_x),
        y1: s.y.max(ay).saturating_add(m).min(max_y),
    }
}

/// The coordinates of the routed-tree node nearest (Manhattan) to the
/// segment's topological attach point. The Steiner sweep picks attach
/// points on the Hanan grid of the *terminals*, but the tree that
/// actually got routed need not pass through that corner — anchoring the
/// segment box here guarantees the local search starts with at least one
/// seed instead of failing empty and regrowing. Ties keep the earliest
/// tree node (strict `<`), so the anchor is deterministic. Shared by
/// [`Router`] and [`crate::reference`].
pub(crate) fn nearest_tree_point(
    rrg: &RoutingGraph,
    tree: &[RouteTreeNode],
    ax: u16,
    ay: u16,
) -> (u16, u16) {
    let mut best = u32::MAX;
    let (mut bx, mut by) = (ax, ay);
    for t in tree {
        let n = rrg.node(t.node);
        let d = u32::from(n.x.abs_diff(ax)) + u32::from(n.y.abs_diff(ay));
        if d < best {
            best = d;
            bx = n.x;
            by = n.y;
        }
    }
    (bx, by)
}

/// The mode-aware PathFinder router.
///
/// Holds a persistent scratch arena (heap storage, stamped visit state,
/// path/order buffers) that is reused across nets, iterations and
/// [`Router::route`] calls — steady-state routing performs no per-net
/// heap allocations (see [`Router::scratch_footprint`]).
pub struct Router<'a> {
    rrg: &'a RoutingGraph,
    options: RouterOptions,
    space: ModeSpace,
    occ: Occupancy,
    /// Per-(switch, mode) usage counts for the sharing-aware cost.
    switch_use: Occupancy,
    /// Per-switch activation (the OR of modes with non-zero use),
    /// maintained incrementally so the per-edge sharing cost is O(1)
    /// instead of a scan over the mode counts.
    switch_act: Vec<ModeSet>,
    history: Vec<f32>,
    /// Per-node `base_cost · (1 + history)`, the history-dependent factor
    /// of [`Router::node_cost`], rewritten wherever `history` changes.
    base_hist: Vec<f64>,
    pres_fac: f64,
    /// Fabric extent for bounding-box clamping.
    max_x: u16,
    max_y: u16,
    /// For every `IPIN` node, the index of the `SINK` it feeds
    /// (`u32::MAX` elsewhere) — precomputed so the search's IPIN pruning
    /// is one array read instead of an edge-list lookup.
    ipin_sink: Vec<u32>,
    // ---- scratch arena (generation-stamped, reused across nets) ----
    /// Per-node A* records: cost-to-come, stamp and predecessor side by
    /// side, so a relaxation reads and writes one record.
    visit: Vec<Visit>,
    generation: u32,
    /// Reused A* heap storage.
    heap: BinaryHeap<HeapEntry>,
    /// Reused back-walk path buffer (node, switch-from-previous).
    path: Vec<(u32, Option<SwitchId>)>,
    /// Reused farthest-first sink-order buffer.
    order: Vec<u32>,
    /// RRG node → tree index of the net being routed, stamped by
    /// `tree_gen` — the allocation-free replacement of the per-net
    /// `HashMap`.
    tree_pos: Vec<u32>,
    tree_gen: Vec<u32>,
    tree_generation: u32,
    /// Nodes whose occupancy changed since the last overuse evaluation,
    /// deduplicated by `touch_gen` stamps — overuse/history accounting
    /// walks this list instead of the whole graph.
    touched: Vec<u32>,
    touch_gen: Vec<u32>,
    touch_generation: u32,
    /// Per-net bounding-box margins of the current `route()` call.
    net_margin: Vec<usize>,
    /// Per-net Steiner topology of the current `route()` call, computed
    /// lazily on first use (empty = not yet computed). The topology
    /// depends only on the static terminal geometry, so rip-up/reroute
    /// iterations reuse it instead of re-running the Prim sweep.
    steiner_cache: Vec<Vec<SteinerSeg>>,
    /// Per-net base margin of the Steiner segment boxes. Starts at
    /// [`RouterOptions::bbox_margin`] — NOT the HPWL-seeded net margin,
    /// which scales with the whole net's extent and would make every
    /// "local" segment box cover most of the fabric on exactly the
    /// broadcast nets the decomposition targets — and grows only under
    /// congestion, in step with `net_margin`.
    steiner_margin: Vec<usize>,
    // ---- timing-driven cost shaping (empty unless requested) ----
    /// Flattened per-sink criticalities of the current
    /// [`Router::route_with_criticality`] call (clamped to
    /// `0..=MAX_ROUTE_CRIT`); empty for plain congestion-driven routing.
    crit_dat: Vec<f64>,
    /// Per-net start offsets into `crit_dat` (`nets.len() + 1` entries).
    crit_idx: Vec<u32>,
    /// Criticality of the sink currently being searched (0.0 keeps the
    /// cost expression bit-identical to the congestion-only router).
    sink_crit: f64,
    // ---- incremental rip-up scratch (per congested net, reused) ----
    /// Tree nodes with an overused node on their root path (self
    /// included).
    blocked: Vec<bool>,
    /// Tree nodes on the root path of a surviving sink.
    keep: Vec<bool>,
    /// Recomputed activation of kept nodes: OR of surviving sinks below.
    keep_act: Vec<ModeSet>,
    /// Old tree index → pruned tree index for kept nodes.
    remap: Vec<u32>,
    /// Sink indices torn down by the prune (to be re-routed).
    lost: Vec<u32>,
    /// Per-sink lost flag of the net being pruned.
    sink_lost: Vec<bool>,
    /// Pruned-tree build buffer, swapped with the net's tree.
    tree_buf: Vec<RouteTreeNode>,
}

impl<'a> Router<'a> {
    /// Creates a router over an RRG.
    ///
    /// # Panics
    ///
    /// Panics if `options.mode_count` is 0, or if the sharing options
    /// could price an edge below 0 (`share_discount` above 1 or
    /// `param_penalty` below -1): the search relies on costs ≥ 0.
    #[must_use]
    pub fn new(rrg: &'a RoutingGraph, options: RouterOptions) -> Self {
        assert!(options.mode_count >= 1, "mode_count must be positive");
        assert!(
            options.share_discount <= 1.0 && options.param_penalty >= -1.0,
            "share_discount must be at most 1 and param_penalty at least -1"
        );
        let n = rrg.node_count();
        let (mut max_x, mut max_y) = (0u16, 0u16);
        let mut ipin_sink = vec![u32::MAX; n];
        for (i, sink) in ipin_sink.iter_mut().enumerate() {
            let id = RrNodeId::from_index(i as u32);
            let node = rrg.node(id);
            max_x = max_x.max(node.x);
            max_y = max_y.max(node.y);
            if node.kind == RrKind::Ipin {
                if let Some(edge) = rrg.edges(id).first() {
                    *sink = edge.to.index() as u32;
                }
            }
        }
        Self {
            rrg,
            space: ModeSpace::new(options.mode_count),
            occ: Occupancy::new(n, options.mode_count),
            switch_use: Occupancy::new(rrg.switch_count(), options.mode_count),
            switch_act: vec![ModeSet::EMPTY; rrg.switch_count()],
            history: vec![0.0; n],
            base_hist: vec![0.0; n],
            pres_fac: PRES_FAC_FIRST,
            max_x,
            max_y,
            ipin_sink,
            visit: vec![
                Visit {
                    dist: 0.0,
                    gen: 0,
                    prev: 0,
                    switch: None,
                };
                n
            ],
            generation: 0,
            heap: BinaryHeap::new(),
            path: Vec::new(),
            order: Vec::new(),
            tree_pos: vec![0; n],
            tree_gen: vec![0; n],
            tree_generation: 0,
            touched: Vec::new(),
            touch_gen: vec![0; n],
            touch_generation: 1,
            net_margin: Vec::new(),
            steiner_cache: Vec::new(),
            steiner_margin: Vec::new(),
            crit_dat: Vec::new(),
            crit_idx: Vec::new(),
            sink_crit: 0.0,
            blocked: Vec::new(),
            keep: Vec::new(),
            keep_act: Vec::new(),
            remap: Vec::new(),
            lost: Vec::new(),
            sink_lost: Vec::new(),
            tree_buf: Vec::new(),
            options,
        }
    }

    /// Total capacity (in elements) of the reusable scratch buffers whose
    /// size depends on routing activity. Steady-state re-routing of the
    /// same nets must leave this unchanged — the zero-allocation
    /// regression tests assert exactly that.
    #[must_use]
    pub fn scratch_footprint(&self) -> usize {
        self.heap.capacity()
            + self.path.capacity()
            + self.order.capacity()
            + self.touched.capacity()
            + self.net_margin.capacity()
            + self.blocked.capacity()
            + self.keep.capacity()
            + self.keep_act.capacity()
            + self.remap.capacity()
            + self.lost.capacity()
            + self.sink_lost.capacity()
            + self.tree_buf.capacity()
    }

    fn base_cost(kind: RrKind) -> f64 {
        match kind {
            RrKind::ChanX | RrKind::ChanY => 1.0,
            RrKind::Ipin => 0.95,
            RrKind::Sink => 0.0,
            RrKind::Opin | RrKind::Source => 1.0,
        }
    }

    /// Unit-delay model of a node traversal: one delay unit per wire
    /// segment, zero for pins — the same model `mm-sta` analyzes routed
    /// paths with (`NetRoute::wires_to_sink`).
    fn wire_delay(kind: RrKind) -> f64 {
        match kind {
            RrKind::ChanX | RrKind::ChanY => 1.0,
            RrKind::Ipin | RrKind::Sink | RrKind::Opin | RrKind::Source => 0.0,
        }
    }

    /// Criticality of one sink under the current routing call (0.0 when
    /// routing is purely congestion-driven).
    #[inline]
    fn sink_criticality(&self, net_index: usize, sink_index: usize) -> f64 {
        if self.crit_idx.is_empty() {
            return 0.0;
        }
        self.crit_dat[self.crit_idx[net_index] as usize + sink_index]
    }

    /// Node cost given the node's (already fetched) RRG record:
    /// `base_cost · (1 + history) · pres`, the first product read from
    /// `base_hist`.
    fn node_cost(&self, node: u32, rr: &mm_arch::RrNode, act: ModeSet) -> f64 {
        let occ_eff = f64::from(self.occ.max_in(node as usize, act));
        let over = (occ_eff + 1.0 - f64::from(rr.capacity)).max(0.0);
        let pres = 1.0 + self.pres_fac * over;
        self.base_hist[node as usize] * pres
    }

    /// Rewrites `base_hist[node]` from the node's current history.
    fn refresh_base_hist(&mut self, node: usize) {
        let kind = self.rrg.node(RrNodeId::from_index(node as u32)).kind;
        self.base_hist[node] = Self::base_cost(kind) * (1.0 + f64::from(self.history[node]));
    }

    /// The modes in which `switch` currently carries signal — O(1) from
    /// the incrementally maintained activation table.
    #[inline]
    fn switch_activation(&self, switch: SwitchId) -> ModeSet {
        self.switch_act[switch.index()]
    }

    /// Claims `switch` in the modes of `act`, keeping the activation
    /// table in sync with the counts.
    fn switch_claim(&mut self, switch: SwitchId, act: ModeSet) {
        self.switch_use.add(switch.index(), act);
        let mut cur = self.switch_act[switch.index()];
        for m in act.iter() {
            cur.insert(m);
        }
        self.switch_act[switch.index()] = cur;
    }

    /// Releases `switch` in the modes of `act`; modes whose count drops
    /// to zero leave the activation set.
    fn switch_release(&mut self, switch: SwitchId, act: ModeSet) {
        self.switch_use.remove(switch.index(), act);
        let base = switch.index() * self.switch_use.modes;
        let mut cur = self.switch_act[switch.index()];
        for m in act.iter() {
            if self.switch_use.counts[base + m] == 0 {
                cur.remove(m);
            }
        }
        self.switch_act[switch.index()] = cur;
    }

    /// Whether edges are priced by [`Router::share_factor`]: with one mode
    /// or neither a discount nor a penalty, the factor is 1.0 everywhere.
    fn shares(&self) -> bool {
        self.options.mode_count > 1
            && (self.options.share_discount != 0.0 || self.options.param_penalty != 0.0)
    }

    /// Reconfiguration-aware edge factor, when [`Router::shares`]: cheaper
    /// when the traversal makes the switch bit *less* parameterized
    /// (sharing across disjoint modes), dearer when it freshly
    /// parameterizes it.
    fn share_factor(&self, switch: Option<SwitchId>, act: ModeSet) -> f64 {
        let Some(s) = switch else { return 1.0 };
        let current = self.switch_activation(s);
        let after = current | act;
        let before_param = current.is_parameterized(self.space);
        let after_param = after.is_parameterized(self.space);
        if after_param && !before_param && current.is_never() {
            1.0 + self.options.param_penalty
        } else if before_param && !after_param {
            1.0 - self.options.share_discount
        } else if before_param && act.is_subset(current) {
            // Re-using an already-parameterized switch in covered modes
            // costs nothing extra — mildly encourage convergence.
            1.0 - self.options.share_discount * 0.5
        } else {
            1.0
        }
    }

    /// A* distance estimate to the (pre-fetched) target coordinates.
    #[inline]
    fn heuristic_to(&self, rr: &mm_arch::RrNode, tx: i32, ty: i32) -> f64 {
        let dx = (i32::from(rr.x) - tx).unsigned_abs();
        let dy = (i32::from(rr.y) - ty).unsigned_abs();
        ASTAR_FAC * f64::from(dx + dy)
    }

    /// The fabric extent `max(max_x, max_y)` — the margin cap of
    /// [`grow_margin`] and [`initial_margin`].
    #[inline]
    fn extent(&self) -> usize {
        usize::from(self.max_x.max(self.max_y))
    }

    /// Marks a node's occupancy as changed since the last overuse
    /// evaluation (deduplicated by stamp).
    #[inline]
    fn touch(&mut self, node: usize) {
        if self.touch_gen[node] != self.touch_generation {
            self.touch_gen[node] = self.touch_generation;
            self.touched.push(node as u32);
        }
    }

    /// Routes all nets; returns the final routing (check
    /// [`Routing::success`]).
    ///
    /// Each net's initial bounding-box margin is HPWL-seeded from the
    /// placement geometry it carries (see [`RouterOptions::bbox_margin`]).
    /// Congestion state (occupancy, history, present-congestion factor)
    /// is reset on entry, so repeated calls on one router are idempotent
    /// and reuse the scratch arena instead of reallocating it.
    pub fn route(&mut self, nets: &[RouteNet]) -> Routing {
        self.crit_dat.clear();
        self.crit_idx.clear();
        self.route_prepared(nets)
    }

    /// [`Router::route`] with per-connection timing criticalities
    /// (`crit[net][sink]` in `0..=1`, e.g. from `mm-sta`): each sink's
    /// search blends the congestion cost with the wire delay,
    /// `(1 - c) · congestion + c · delay`, so near-critical connections
    /// prefer short paths while slack-rich ones keep yielding wires to
    /// congestion negotiation. Criticalities are clamped to
    /// `0..=MAX_ROUTE_CRIT` so congestion pressure never fully vanishes;
    /// a sink at criticality 0.0 is routed with the exact
    /// (bit-identical) congestion-only cost.
    ///
    /// # Panics
    ///
    /// Panics if the criticality table's shape does not match `nets` or
    /// contains a non-finite value.
    pub fn route_with_criticality(&mut self, nets: &[RouteNet], crit: &[Vec<f64>]) -> Routing {
        assert_eq!(crit.len(), nets.len(), "one criticality row per net");
        self.crit_dat.clear();
        self.crit_idx.clear();
        self.crit_idx.push(0);
        for (net, row) in nets.iter().zip(crit) {
            assert_eq!(
                row.len(),
                net.sinks.len(),
                "one criticality per sink of net '{}'",
                net.name
            );
            for &c in row {
                assert!(c.is_finite(), "criticality must be finite");
                self.crit_dat.push(c.clamp(0.0, MAX_ROUTE_CRIT));
            }
            self.crit_idx.push(self.crit_dat.len() as u32);
        }
        self.route_prepared(nets)
    }

    /// The rip-up-and-reroute loop over `nets`, with the criticality
    /// table of this call already in place.
    fn route_prepared(&mut self, nets: &[RouteNet]) -> Routing {
        self.occ.counts.fill(0);
        self.switch_use.counts.fill(0);
        self.switch_act.fill(ModeSet::EMPTY);
        self.history.fill(0.0);
        for node in 0..self.base_hist.len() {
            self.refresh_base_hist(node);
        }
        self.pres_fac = PRES_FAC_FIRST;
        self.net_margin.clear();
        let extent = self.extent();
        for net in nets {
            self.net_margin
                .push(initial_margin(self.rrg, net, &self.options, extent));
        }
        self.steiner_cache.clear();
        self.steiner_cache.resize(nets.len(), Vec::new());
        self.steiner_margin.clear();
        self.steiner_margin
            .resize(nets.len(), self.options.bbox_margin.min(self.extent()));
        let mut overuse = Vec::new();
        let mut routes: Vec<NetRoute> = vec![NetRoute::default(); nets.len()];
        let mut iterations = 0;
        let mut success = false;
        let mut overused_nodes = 0;
        let mut unrouted = 0usize;

        for iter in 0..self.options.max_iterations {
            iterations = iter + 1;
            let mut rerouted_any = false;
            for (i, net) in nets.iter().enumerate() {
                let warmup = iter < REROUTE_ALL_ITERS;
                let congested = !warmup && self.route_is_congested(&routes[i]);
                if !warmup && !congested {
                    continue;
                }
                // A net that stays congested after a short grace period
                // gets a wider box: detours the negotiation needs may lie
                // outside the terminal extent.
                if congested && iter >= REROUTE_ALL_ITERS + BBOX_CONGESTION_GRACE {
                    self.net_margin[i] = grow_margin(self.net_margin[i], self.extent());
                    self.steiner_margin[i] = grow_margin(self.steiner_margin[i], self.extent());
                }
                rerouted_any = true;
                let mut route = std::mem::take(&mut routes[i]);
                if warmup || !self.options.incremental {
                    self.rip_up(&route);
                    self.route_net(net, i, &mut route);
                } else {
                    self.reroute_incremental(net, i, &mut route);
                }
                routes[i] = route;
            }

            // Any sink that has no path at all makes the fabric
            // unroutable regardless of congestion negotiation.
            unrouted = nets
                .iter()
                .zip(&routes)
                .map(|(net, route)| {
                    net.sinks
                        .iter()
                        .zip(&route.sink_pos)
                        .filter(|(sink, &pos)| {
                            route
                                .tree
                                .get(pos as usize)
                                .is_none_or(|t| t.node != sink.node)
                        })
                        .count()
                })
                .sum();
            if unrouted > 0 {
                break; // hard unreachability: iterating cannot help
            }

            // Evaluate overuse and update history — only nodes whose
            // occupancy changed since the last evaluation can be (or have
            // stopped being) overused: congested nets are always ripped
            // up and re-claimed, which touches every node involved.
            overused_nodes = 0;
            let touched = std::mem::take(&mut self.touched);
            for &node in &touched {
                let node = node as usize;
                let cap = self.rrg.node(RrNodeId::from_index(node as u32)).capacity;
                let max = self.occ.max_all(node);
                if max > cap {
                    overused_nodes += 1;
                    self.history[node] += (HISTORY_COST * f64::from(max - cap)) as f32;
                    self.refresh_base_hist(node);
                }
            }
            self.touched = touched;
            self.touched.clear();
            self.touch_generation = self.touch_generation.wrapping_add(1);
            overuse.push(overused_nodes);
            if overused_nodes == 0 {
                success = true;
                break;
            }
            if !rerouted_any {
                // Nothing changed but overuse persists — cannot improve.
                break;
            }
            if congestion_stalled(&overuse) || warmup_stalled(&overuse, nets.len()) {
                break; // stuck high: predicted to fail
            }
            self.pres_fac *= PRES_FAC_MULT;
        }

        Routing {
            nets: routes,
            iterations,
            overuse,
            success: success && unrouted == 0,
            overused_nodes,
            unrouted_sinks: unrouted,
        }
    }

    fn route_is_congested(&self, route: &NetRoute) -> bool {
        route.tree.iter().any(|t| {
            let cap = self.rrg.node(t.node).capacity;
            self.occ.max_all(t.node.index()) > cap
        })
    }

    fn rip_up(&mut self, route: &NetRoute) {
        for i in 0..route.tree.len() {
            let t = route.tree[i];
            self.occ.remove(t.node.index(), t.activation);
            self.touch(t.node.index());
            if let Some(s) = t.switch {
                self.switch_release(s, t.activation);
            }
        }
    }

    /// Looks up an RRG node in the current net's route tree.
    #[inline]
    fn tree_index(&self, node: u32) -> Option<u32> {
        (self.tree_gen[node as usize] == self.tree_generation).then(|| self.tree_pos[node as usize])
    }

    #[inline]
    fn set_tree_index(&mut self, node: u32, index: u32) {
        self.tree_pos[node as usize] = index;
        self.tree_gen[node as usize] = self.tree_generation;
    }

    /// Routes one net from scratch into `route` (whose buffers are
    /// reused), claiming occupancy for its tree.
    fn route_net(&mut self, net: &RouteNet, net_index: usize, route: &mut NetRoute) {
        route.tree.clear();
        route.sink_pos.clear();
        route.sink_pos.resize(net.sinks.len(), 0);
        self.tree_generation = self.tree_generation.wrapping_add(1);

        let net_act: ModeSet = net
            .sinks
            .iter()
            .fold(ModeSet::EMPTY, |a, s| a | s.activation);
        route.tree.push(RouteTreeNode {
            node: net.source,
            parent: None,
            switch: None,
            activation: net_act,
        });
        self.set_tree_index(net.source.index() as u32, 0);
        self.occ.add(net.source.index(), net_act);
        self.touch(net.source.index());

        if self.options.steiner_fanout > 0 && net.sinks.len() >= self.options.steiner_fanout {
            // High-fanout net: Steiner decomposition into short segments
            // with local search boxes.
            self.route_steiner(net, net_index, route);
            return;
        }

        // Route all sinks farthest-first (better tree quality).
        self.order.clear();
        self.order.extend(0..net.sinks.len() as u32);
        self.sort_sink_order(net);
        self.route_sinks(net, net_index, route);
    }

    /// Routes one high-fanout net along its rectilinear Steiner topology:
    /// every segment is an A* search seeded from the whole current tree
    /// but confined to a small box around (sink, attach point), grown on
    /// failure like the sink-by-sink path. Stitching is the ordinary tree
    /// claim, so activation ORs and `sink_pos` mapping are exactly those
    /// of the sink-by-sink router.
    fn route_steiner(&mut self, net: &RouteNet, net_index: usize, route: &mut NetRoute) {
        let rrg = self.rrg;
        let extent = self.extent();
        if self.steiner_cache[net_index].is_empty() {
            self.steiner_cache[net_index] = steiner_segments(rrg, net);
        }
        let segs = std::mem::take(&mut self.steiner_cache[net_index]);
        for seg in &segs {
            let si = seg.sink as usize;
            let sink = net.sinks[si];
            self.sink_crit = self.sink_criticality(net_index, si);
            if let Some(pos) = self.tree_index(sink.node.index() as u32) {
                self.extend_activation(&mut route.tree, pos, sink.activation);
                route.sink_pos[si] = pos;
                continue;
            }
            // Anchor the local box at the tree node nearest the
            // topological attach point: the routed tree need not pass
            // through the Hanan corner itself, and a box with no tree
            // seed inside can only fail-and-regrow. Ties keep the
            // earliest tree node (strict `<`), so the anchor is
            // deterministic.
            let (ax, ay) = nearest_tree_point(rrg, &route.tree, seg.ax, seg.ay);
            // Local growth only: a hard segment widens its own box
            // without widening every later segment of the net.
            let mut margin = self.steiner_margin[net_index];
            let found = loop {
                let bbox = steiner_bbox(rrg, sink.node, ax, ay, margin, self.max_x, self.max_y);
                if self.search(&route.tree, sink.node, sink.activation, bbox) {
                    break true;
                }
                if bbox.covers_fabric(self.max_x, self.max_y) {
                    break false;
                }
                margin = grow_margin(margin, extent);
            };
            if found {
                self.claim_path(route, si, sink.activation);
            } else {
                route.sink_pos[si] = 0;
            }
        }
        self.steiner_cache[net_index] = segs;
    }

    /// Sorts `self.order` (sink indices of `net`) farthest-first from the
    /// source. The index tie break reproduces a stable sort without its
    /// temporary buffer.
    fn sort_sink_order(&mut self, net: &RouteNet) {
        let rrg = self.rrg;
        let src = rrg.node(net.source);
        self.order.sort_unstable_by_key(|&i| {
            let s = rrg.node(net.sinks[i as usize].node);
            let d = (i32::from(s.x) - i32::from(src.x)).abs()
                + (i32::from(s.y) - i32::from(src.y)).abs();
            (std::cmp::Reverse(d), i)
        });
    }

    /// Incrementally re-routes a congested net: subtrees that pass
    /// through an overused node are torn down (and only those), the
    /// surviving tree keeps its claims with activations renarrowed to the
    /// surviving sinks, and the lost sinks are re-routed from the kept
    /// tree.
    fn reroute_incremental(&mut self, net: &RouteNet, net_index: usize, route: &mut NetRoute) {
        // Overuse is judged with this net's occupancy still claimed —
        // exactly the condition `route_is_congested` saw.
        let tree_len = route.tree.len();
        self.blocked.clear();
        self.blocked.resize(tree_len, false);
        for (idx, t) in route.tree.iter().enumerate() {
            let over = self.occ.max_all(t.node.index()) > self.rrg.node(t.node).capacity;
            let parent_blocked = t.parent.is_some_and(|p| self.blocked[p as usize]);
            self.blocked[idx] = over || parent_blocked;
        }

        // Classify sinks and mark the kept paths with their recomputed
        // activations (OR of the surviving sinks through each node).
        self.keep.clear();
        self.keep.resize(tree_len, false);
        self.keep_act.clear();
        self.keep_act.resize(tree_len, ModeSet::EMPTY);
        self.lost.clear();
        self.sink_lost.clear();
        self.sink_lost.resize(net.sinks.len(), false);
        self.keep[0] = true;
        let root_blocked = self.blocked[0];
        for (si, sink) in net.sinks.iter().enumerate() {
            let pos = route.sink_pos[si];
            if root_blocked || self.blocked[pos as usize] {
                self.lost.push(si as u32);
                self.sink_lost[si] = true;
                continue;
            }
            let mut cur = Some(pos);
            while let Some(p) = cur {
                self.keep[p as usize] = true;
                self.keep_act[p as usize] |= sink.activation;
                cur = route.tree[p as usize].parent;
            }
        }
        if self.lost.is_empty() {
            // Every tree node lies on some sink's path, so a congested
            // net always loses a sink; defensive fallback to a full
            // reroute if that invariant ever breaks.
            self.rip_up(route);
            self.route_net(net, net_index, route);
            return;
        }

        // Release the whole old tree, then rebuild and re-claim only the
        // kept part (same node order, remapped parents, renarrowed
        // activations; the root keeps the full net activation, exactly
        // as a from-scratch route starts).
        self.rip_up(route);
        let net_act: ModeSet = net
            .sinks
            .iter()
            .fold(ModeSet::EMPTY, |a, s| a | s.activation);
        self.tree_generation = self.tree_generation.wrapping_add(1);
        self.remap.clear();
        self.remap.resize(tree_len, 0);
        let mut tree_buf = std::mem::take(&mut self.tree_buf);
        tree_buf.clear();
        for idx in 0..tree_len {
            if !self.keep[idx] {
                continue;
            }
            let t = route.tree[idx];
            let new_index = tree_buf.len() as u32;
            self.remap[idx] = new_index;
            let activation = if idx == 0 {
                net_act
            } else {
                self.keep_act[idx]
            };
            tree_buf.push(RouteTreeNode {
                node: t.node,
                // The parent of a kept node is on the same surviving
                // path, hence kept and already remapped.
                parent: t.parent.map(|p| self.remap[p as usize]),
                switch: t.switch,
                activation,
            });
            self.occ.add(t.node.index(), activation);
            self.touch(t.node.index());
            if let Some(s) = t.switch {
                self.switch_claim(s, activation);
            }
            self.set_tree_index(t.node.index() as u32, new_index);
        }
        std::mem::swap(&mut route.tree, &mut tree_buf);
        self.tree_buf = tree_buf;
        for si in 0..net.sinks.len() {
            if !self.sink_lost[si] {
                route.sink_pos[si] = self.remap[route.sink_pos[si] as usize];
            }
        }

        // Re-route only the lost sinks, farthest-first like a full route.
        self.order.clear();
        self.order.extend_from_slice(&self.lost);
        self.sort_sink_order(net);
        self.route_sinks(net, net_index, route);
    }

    /// Routes the sinks listed in `self.order` into the net's existing
    /// tree, growing the net's bounding box as needed.
    fn route_sinks(&mut self, net: &RouteNet, net_index: usize, route: &mut NetRoute) {
        let rrg = self.rrg;
        let order = std::mem::take(&mut self.order);
        for &si in &order {
            let si = si as usize;
            let sink = net.sinks[si];
            self.sink_crit = self.sink_criticality(net_index, si);
            if let Some(pos) = self.tree_index(sink.node.index() as u32) {
                // Already reached (e.g. shared sink); just extend activation.
                self.extend_activation(&mut route.tree, pos, sink.activation);
                route.sink_pos[si] = pos;
                continue;
            }
            // Search inside the net's bounding box, growing it until the
            // sink is reached or the box covers the whole fabric.
            let found = loop {
                let bbox = net_bbox(rrg, net, self.net_margin[net_index], self.max_x, self.max_y);
                if self.search(&route.tree, sink.node, sink.activation, bbox) {
                    break true;
                }
                if bbox.covers_fabric(self.max_x, self.max_y) {
                    break false;
                }
                self.net_margin[net_index] = grow_margin(self.net_margin[net_index], self.extent());
            };
            if found {
                self.claim_path(route, si, sink.activation);
            } else {
                // Unreachable sink: leave it unrouted; the caller sees
                // failure through the congestion/overuse check (the
                // net is marked congested by pointing the sink at the
                // source, which keeps indices valid).
                route.sink_pos[si] = 0;
            }
        }
        self.order = order;
    }

    /// Claims the search result in `self.path` (running from a tree node
    /// to sink `si`'s node) into the net's tree: occupancy, switch and
    /// tree-index bookkeeping plus the join's activation widening.
    fn claim_path(&mut self, route: &mut NetRoute, si: usize, act: ModeSet) {
        // Take the path so tree mutation can borrow `self`.
        let path = std::mem::take(&mut self.path);
        let join = self
            .tree_index(path[0].0)
            .expect("search starts at a tree node");
        self.extend_activation(&mut route.tree, join, act);
        let mut parent = join;
        for &(node, switch) in &path[1..] {
            let idx = route.tree.len() as u32;
            route.tree.push(RouteTreeNode {
                node: RrNodeId::from_index(node),
                parent: Some(parent),
                switch,
                activation: act,
            });
            self.occ.add(node as usize, act);
            self.touch(node as usize);
            if let Some(s) = switch {
                self.switch_claim(s, act);
            }
            self.set_tree_index(node, idx);
            parent = idx;
        }
        route.sink_pos[si] = parent;
        self.path = path;
    }

    /// Widens the activation of `pos` and all its ancestors by `act`.
    fn extend_activation(&mut self, tree: &mut [RouteTreeNode], pos: u32, act: ModeSet) {
        let mut cur = Some(pos);
        while let Some(p) = cur {
            let t = &mut tree[p as usize];
            let delta = act & t.activation.complement(self.space);
            if delta.is_never() {
                break; // invariant: ancestors already carry a superset
            }
            t.activation |= delta;
            let node = t.node.index();
            let switch = t.switch;
            cur = t.parent;
            self.occ.add(node, delta);
            self.touch(node);
            if let Some(s) = switch {
                self.switch_claim(s, delta);
            }
        }
    }

    /// A*-guided Dijkstra from the current tree to `target`, confined to
    /// `bbox`. On success, fills `self.path` with the path as
    /// (node, switch-from-previous) starting at a tree node.
    ///
    /// The sharing and criticality branches of the edge cost are decided
    /// once here, not per edge: each combination runs its own copy of
    /// [`Router::expand`].
    fn search(
        &mut self,
        tree: &[RouteTreeNode],
        target: RrNodeId,
        act: ModeSet,
        bbox: BBox,
    ) -> bool {
        self.generation = self.generation.wrapping_add(1);
        let generation = self.generation;
        let rrg = self.rrg;
        let target_rr = rrg.node(target);
        let (tx, ty) = (i32::from(target_rr.x), i32::from(target_rr.y));
        self.heap.clear();

        for t in tree {
            let node = t.node.index() as u32;
            let rr = rrg.node(t.node);
            if !bbox.contains(rr.x, rr.y) {
                continue; // a congestion detour left the box; not a seed
            }
            self.visit[node as usize] = Visit {
                dist: 0.0,
                gen: generation,
                prev: node,
                switch: None,
            };
            let f = self.heuristic_to(rr, tx, ty);
            self.heap.push(HeapEntry {
                f: f.to_bits(),
                g: 0.0,
                node,
            });
        }

        let target_idx = target.index() as u32;
        let found = match (self.shares(), self.sink_crit > 0.0) {
            (false, false) => self.expand::<false, false>(target_idx, act, bbox),
            (true, false) => self.expand::<true, false>(target_idx, act, bbox),
            (false, true) => self.expand::<false, true>(target_idx, act, bbox),
            (true, true) => self.expand::<true, true>(target_idx, act, bbox),
        };
        if !found {
            return false;
        }

        // Walk back to a tree node (dist 0 and part of the seed set).
        self.path.clear();
        let mut cur = target_idx;
        loop {
            let Visit { prev, switch, .. } = self.visit[cur as usize];
            self.path.push((cur, switch));
            if prev == cur {
                break; // reached a seed (tree) node
            }
            cur = prev;
        }
        self.path.reverse();
        true
    }

    /// The A* loop of [`Router::search`] over the seeded heap: whether
    /// `target` was reached. `SHARE` prices edges with
    /// [`Router::share_factor`] (otherwise the factor is 1.0); `TIMED`
    /// blends in the sink's criticality.
    fn expand<const SHARE: bool, const TIMED: bool>(
        &mut self,
        target_idx: u32,
        act: ModeSet,
        bbox: BBox,
    ) -> bool {
        let generation = self.generation;
        let rrg = self.rrg;
        let target_rr = rrg.node(RrNodeId::from_index(target_idx));
        let (tx, ty) = (i32::from(target_rr.x), i32::from(target_rr.y));
        let c = self.sink_crit;
        while let Some(entry) = self.heap.pop() {
            let u = entry.node;
            if entry.g > self.visit[u as usize].dist + 1e-12 {
                continue; // stale
            }
            if u == target_idx {
                return true;
            }
            for e in rrg.edges(RrNodeId::from_index(u)) {
                let v = e.to.index() as u32;
                let to = rrg.node(e.to);
                // Never expand through foreign sinks or sources; prune
                // IPINs that do not lead to the target (one read from the
                // precomputed table), and anything outside the net's
                // bounding box.
                match to.kind {
                    RrKind::Sink if v != target_idx => continue,
                    RrKind::Source => continue,
                    RrKind::Ipin if self.ipin_sink[v as usize] != target_idx => continue,
                    _ => {}
                }
                if !bbox.contains(to.x, to.y) {
                    continue;
                }
                // Steps cost ≥ 0, so a node already reached at no more
                // than this entry's cost cannot improve: skip it unpriced.
                let seen = self.visit[v as usize];
                if seen.gen == generation && seen.dist <= entry.g + 1e-12 {
                    continue;
                }
                let share = if SHARE {
                    self.share_factor(e.switch, act)
                } else {
                    1.0
                };
                // Timing-driven blend: a critical sink trades congestion
                // cost for wire delay. A sink at criticality 0.0 takes the
                // congestion-only expression, bit for bit (the parity
                // tests rely on that).
                let g = if TIMED {
                    entry.g
                        + (1.0 - c) * self.node_cost(v, to, act) * share
                        + c * Self::wire_delay(to.kind)
                } else {
                    entry.g + self.node_cost(v, to, act) * share
                };
                if seen.gen != generation || g + 1e-12 < seen.dist {
                    self.visit[v as usize] = Visit {
                        dist: g,
                        gen: generation,
                        prev: u,
                        switch: e.switch,
                    };
                    let f = g + self.heuristic_to(to, tx, ty);
                    self.heap.push(HeapEntry {
                        f: f.to_bits(),
                        g,
                        node: v,
                    });
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_arch::Architecture;

    fn arch_rrg(n: usize, w: usize) -> RoutingGraph {
        RoutingGraph::build(&Architecture::new(4, n, w))
    }

    fn verify_tree(rrg: &RoutingGraph, net: &RouteNet, route: &NetRoute, space: ModeSpace) {
        assert!(!route.tree.is_empty());
        assert_eq!(route.tree[0].node, net.source);
        assert_eq!(route.tree[0].parent, None);
        for (i, t) in route.tree.iter().enumerate().skip(1) {
            let p = t.parent.expect("non-root has parent") as usize;
            assert!(p < i, "parents precede children");
            let edge_ok = rrg
                .edges(route.tree[p].node)
                .iter()
                .any(|e| e.to == t.node && e.switch == t.switch);
            assert!(edge_ok, "tree edge must exist in the RRG");
            // Activation invariant: child ⊆ parent.
            assert!(
                t.activation.is_subset(route.tree[p].activation),
                "activation must not grow downwards"
            );
            let _ = space;
        }
        for (si, sink) in net.sinks.iter().enumerate() {
            let pos = route.sink_pos[si] as usize;
            assert_eq!(route.tree[pos].node, sink.node, "sink {si} reached");
            assert!(sink.activation.is_subset(route.tree[pos].activation));
        }
    }

    fn site(x: u16, y: u16, sub: u8) -> mm_arch::Site {
        mm_arch::Site::new(x, y, sub)
    }

    #[test]
    fn single_net_routes() {
        let rrg = arch_rrg(4, 4);
        let all = ModeSet::of(&[0]);
        let net = RouteNet {
            name: "n".into(),
            source: rrg.logic_source(site(1, 1, 0)),
            sinks: vec![RouteSink {
                node: rrg.logic_sink(site(4, 4, 0)),
                activation: all,
            }],
        };
        let mut router = Router::new(&rrg, RouterOptions::default());
        let routing = router.route(std::slice::from_ref(&net));
        assert!(routing.success);
        verify_tree(&rrg, &net, &routing.nets[0], ModeSpace::new(1));
        // Manhattan distance 6 → at least 6 wire segments.
        assert!(routing.nets[0].wire_count(&rrg) >= 6);
    }

    #[test]
    fn multi_sink_tree_shares_trunk() {
        let rrg = arch_rrg(5, 4);
        let all = ModeSet::of(&[0]);
        let net = RouteNet {
            name: "n".into(),
            source: rrg.logic_source(site(1, 3, 0)),
            sinks: vec![
                RouteSink {
                    node: rrg.logic_sink(site(5, 3, 0)),
                    activation: all,
                },
                RouteSink {
                    node: rrg.logic_sink(site(5, 2, 0)),
                    activation: all,
                },
            ],
        };
        let mut router = Router::new(&rrg, RouterOptions::default());
        let routing = router.route(std::slice::from_ref(&net));
        assert!(routing.success);
        verify_tree(&rrg, &net, &routing.nets[0], ModeSpace::new(1));
        // A shared trunk should use fewer wires than two independent
        // routes (4 + 5 = 9 minimum independent).
        assert!(routing.nets[0].wire_count(&rrg) < 11);
    }

    #[test]
    fn io_to_logic_routes() {
        let rrg = arch_rrg(3, 4);
        let all = ModeSet::of(&[0]);
        let net = RouteNet {
            name: "pad".into(),
            source: rrg.io_source(site(0, 2, 1)),
            sinks: vec![RouteSink {
                node: rrg.logic_sink(site(2, 2, 0)),
                activation: all,
            }],
        };
        let mut router = Router::new(&rrg, RouterOptions::default());
        let routing = router.route(std::slice::from_ref(&net));
        assert!(routing.success);
    }

    #[test]
    fn congestion_resolved_by_negotiation() {
        // Many nets crossing the same column on a narrow fabric; the
        // router must spread them over tracks.
        let rrg = arch_rrg(4, 3);
        let all = ModeSet::of(&[0]);
        let mut nets = Vec::new();
        for y in 1..=4u16 {
            nets.push(RouteNet {
                name: format!("h{y}"),
                source: rrg.logic_source(site(1, y, 0)),
                sinks: vec![RouteSink {
                    node: rrg.logic_sink(site(4, y, 0)),
                    activation: all,
                }],
            });
        }
        let mut router = Router::new(&rrg, RouterOptions::default());
        let routing = router.route(&nets);
        assert!(routing.success, "4 rows on W=3 must route");
        for (net, route) in nets.iter().zip(&routing.nets) {
            verify_tree(&rrg, net, route, ModeSpace::new(1));
        }
    }

    #[test]
    fn disjoint_modes_share_wires() {
        // Two mode-exclusive nets with identical endpoints on a fabric of
        // width 1: only possible if they share wires across modes.
        let rrg = arch_rrg(3, 1);
        let m0 = ModeSet::of(&[0]);
        let m1 = ModeSet::of(&[1]);
        let nets = vec![
            RouteNet {
                name: "a".into(),
                source: rrg.logic_source(site(1, 2, 0)),
                sinks: vec![RouteSink {
                    node: rrg.logic_sink(site(3, 2, 0)),
                    activation: m0,
                }],
            },
            RouteNet {
                name: "b".into(),
                source: rrg.logic_source(site(1, 1, 0)),
                sinks: vec![RouteSink {
                    node: rrg.logic_sink(site(3, 2, 0)),
                    activation: m1,
                }],
            },
        ];
        let mut router = Router::new(&rrg, RouterOptions::for_modes(2));
        let routing = router.route(&nets);
        assert!(
            routing.success,
            "mode-disjoint nets must share the single track"
        );
        // Same-mode version must fail on width-1 fabric only if they truly
        // collide; sanity: both in mode 0 targeting the same sink site
        // needs 2 IPINs — capacity allows that, but the sink sits on
        // shared wires... keep the positive assertion only.
    }

    #[test]
    fn same_mode_conflict_fails_on_width_one() {
        // Two *same-mode* nets from stacked sources to far targets sharing
        // one vertical corridor of width 1 cannot both route.
        let rrg = arch_rrg(2, 1);
        let m0 = ModeSet::of(&[0]);
        let nets = vec![
            RouteNet {
                name: "a".into(),
                source: rrg.logic_source(site(1, 1, 0)),
                sinks: vec![RouteSink {
                    node: rrg.logic_sink(site(2, 2, 0)),
                    activation: m0,
                }],
            },
            RouteNet {
                name: "b".into(),
                source: rrg.logic_source(site(1, 2, 0)),
                sinks: vec![RouteSink {
                    node: rrg.logic_sink(site(2, 1, 0)),
                    activation: m0,
                }],
            },
        ];
        let options = RouterOptions {
            max_iterations: 12,
            ..RouterOptions::default()
        };
        let mut router = Router::new(&rrg, options);
        let routing = router.route(&nets);
        // With W=1 and crossing diagonals, congestion may or may not be
        // resolvable depending on fabric details; accept either outcome
        // but require a definite answer.
        assert!(routing.iterations >= 1);
        if !routing.success {
            assert!(routing.overused_nodes > 0);
        }
    }

    #[test]
    fn activation_union_at_shared_sink() {
        // One net whose two sinks include the same SINK node in different
        // modes — activation on the shared path must be the union.
        let rrg = arch_rrg(3, 2);
        let m0 = ModeSet::of(&[0]);
        let m1 = ModeSet::of(&[1]);
        let sink = rrg.logic_sink(site(3, 3, 0));
        let net = RouteNet {
            name: "u".into(),
            source: rrg.logic_source(site(1, 1, 0)),
            sinks: vec![
                RouteSink {
                    node: sink,
                    activation: m0,
                },
                RouteSink {
                    node: sink,
                    activation: m1,
                },
            ],
        };
        let mut router = Router::new(&rrg, RouterOptions::for_modes(2));
        let routing = router.route(std::slice::from_ref(&net));
        assert!(routing.success);
        let route = &routing.nets[0];
        let p0 = route.sink_pos[0];
        let p1 = route.sink_pos[1];
        assert_eq!(p0, p1, "same sink node shares the tree position");
        assert_eq!(route.tree[p0 as usize].activation, m0 | m1);
        // Root carries the union too.
        assert_eq!(route.tree[0].activation, m0 | m1);
    }

    #[test]
    fn per_mode_wirelength_counts() {
        let rrg = arch_rrg(4, 4);
        let m0 = ModeSet::of(&[0]);
        let m1 = ModeSet::of(&[1]);
        let net = RouteNet {
            name: "n".into(),
            source: rrg.logic_source(site(1, 1, 0)),
            sinks: vec![
                RouteSink {
                    node: rrg.logic_sink(site(4, 1, 0)),
                    activation: m0,
                },
                RouteSink {
                    node: rrg.logic_sink(site(1, 4, 0)),
                    activation: m1,
                },
            ],
        };
        let mut router = Router::new(&rrg, RouterOptions::for_modes(2));
        let routing = router.route(std::slice::from_ref(&net));
        assert!(routing.success);
        let w0 = routing.wires_in_mode(&rrg, 0);
        let w1 = routing.wires_in_mode(&rrg, 1);
        let total = routing.total_wires(&rrg);
        assert!(w0 >= 3 && w1 >= 3);
        // The two branches are mode-exclusive: total = w0 + w1 unless a
        // trunk is shared (then total < w0 + w1).
        assert!(total <= w0 + w1);
        assert!(total >= w0.max(w1));
    }

    #[test]
    fn deterministic_routing() {
        let rrg = arch_rrg(4, 3);
        let all = ModeSet::of(&[0]);
        let nets: Vec<RouteNet> = (1..=3u16)
            .map(|y| RouteNet {
                name: format!("n{y}"),
                source: rrg.logic_source(site(1, y, 0)),
                sinks: vec![RouteSink {
                    node: rrg.logic_sink(site(4, 5 - y, 0)),
                    activation: all,
                }],
            })
            .collect();
        let r1 = Router::new(&rrg, RouterOptions::default()).route(&nets);
        let r2 = Router::new(&rrg, RouterOptions::default()).route(&nets);
        assert_eq!(r1.iterations, r2.iterations);
        for (a, b) in r1.nets.iter().zip(&r2.nets) {
            assert_eq!(a.tree.len(), b.tree.len());
            for (x, y) in a.tree.iter().zip(&b.tree) {
                assert_eq!(x.node, y.node);
            }
        }
    }

    #[test]
    fn bbox_growth_reaches_full_fabric() {
        let extent = 1_000_000usize;
        let mut m = 0usize;
        let mut steps = 0;
        while m < extent {
            m = grow_margin(m, extent);
            steps += 1;
        }
        assert!(steps <= 21, "doubling reaches any fabric quickly");
        // The cap turns the former usize::MAX saturation point into a
        // fixed point at the fabric extent: growth on an unroutable sink
        // terminates instead of "growing" a saturated margin forever.
        assert_eq!(grow_margin(extent, extent), extent, "fixed point at cap");
        assert_eq!(grow_margin(usize::MAX, extent), extent, "clamped");
    }

    #[test]
    fn initial_margin_clamped_to_fabric_extent() {
        // With pruning disabled (`usize::MAX`) a corner-to-corner net's
        // seeded margin would exceed the extent — the clamp caps it up
        // front so `grow_margin` never burns steps on boxes `net_bbox`
        // re-clamps anyway.
        let rrg = arch_rrg(6, 2);
        let all = ModeSet::of(&[0]);
        let corner = RouteNet {
            name: "corner".into(),
            source: rrg.logic_source(site(1, 1, 0)),
            sinks: vec![RouteSink {
                node: rrg.logic_sink(site(6, 6, 0)),
                activation: all,
            }],
        };
        let extent = fabric_extent(&rrg);
        let options = RouterOptions {
            bbox_margin: usize::MAX,
            ..RouterOptions::default()
        };
        let m = initial_margin(&rrg, &corner, &options, extent);
        assert_eq!(m, extent, "margin clamped to the fabric extent");
        // `route` seeds its margins through the same clamp, and the
        // clamped margin still routes the corner-to-corner net.
        let routing = Router::new(&rrg, options).route(&[corner]);
        assert!(routing.success, "clamped margin keeps routability");
    }

    #[test]
    fn steiner_topology_is_deterministic_and_complete() {
        let rrg = arch_rrg(8, 2);
        let all = ModeSet::of(&[0]);
        let net = RouteNet {
            name: "bcast".into(),
            source: rrg.logic_source(site(4, 4, 0)),
            sinks: (1..=8u16)
                .map(|x| RouteSink {
                    node: rrg.logic_sink(site(x, if x % 2 == 0 { 1 } else { 8 }, 0)),
                    activation: all,
                })
                .collect(),
        };
        let segs = steiner_segments(&rrg, &net);
        assert_eq!(segs.len(), net.sinks.len(), "one segment per sink");
        let mut sinks: Vec<u32> = segs.iter().map(|s| s.sink).collect();
        sinks.sort_unstable();
        assert_eq!(sinks, (0..8).collect::<Vec<u32>>(), "every sink covered");
        assert_eq!(segs, steiner_segments(&rrg, &net), "deterministic");
        // The first connection attaches at the source.
        assert_eq!((segs[0].ax, segs[0].ay), (4, 4));
    }

    #[test]
    fn steiner_mode_routes_high_fanout_net() {
        let rrg = arch_rrg(7, 6);
        let all = ModeSet::of(&[0]);
        let sinks: Vec<RouteSink> = (0..12)
            .map(|i| RouteSink {
                node: rrg.logic_sink(site(1 + (i % 7) as u16, 1 + (i / 2) as u16, 0)),
                activation: all,
            })
            .filter({
                let src = rrg.logic_sink(site(4, 4, 0));
                move |s| s.node != src
            })
            .collect();
        let net = RouteNet {
            name: "bcast".into(),
            source: rrg.logic_source(site(4, 4, 0)),
            sinks,
        };
        let plain = Router::new(&rrg, RouterOptions::default()).route(std::slice::from_ref(&net));
        assert!(plain.success);
        let steiner_opts = RouterOptions::default().with_steiner(4);
        let steiner = Router::new(&rrg, steiner_opts).route(std::slice::from_ref(&net));
        assert!(steiner.success, "Steiner mode keeps routability");
        verify_tree(&rrg, &net, &steiner.nets[0], ModeSpace::new(1));
        // Below the threshold the gate stays closed: byte-identical.
        let gated = RouterOptions::default().with_steiner(net.sinks.len() + 1);
        let off = Router::new(&rrg, gated).route(std::slice::from_ref(&net));
        assert_eq!(off.iterations, plain.iterations);
        assert_eq!(off.nets[0].tree, plain.nets[0].tree);
        assert_eq!(off.nets[0].sink_pos, plain.nets[0].sink_pos);
    }

    #[test]
    fn unreachable_nets_reported_by_name() {
        let rrg = arch_rrg(4, 2);
        let all = ModeSet::of(&[0]);
        let ok = RouteNet {
            name: "ok".into(),
            source: rrg.logic_source(site(1, 1, 0)),
            sinks: vec![RouteSink {
                node: rrg.logic_sink(site(3, 3, 0)),
                activation: all,
            }],
        };
        let routing = Router::new(&rrg, RouterOptions::default()).route(std::slice::from_ref(&ok));
        assert!(routing.success);
        assert!(routing
            .unreachable_nets(std::slice::from_ref(&ok))
            .is_empty());
    }

    #[test]
    fn bbox_contains_and_covers() {
        let rrg = arch_rrg(4, 2);
        let all = ModeSet::of(&[0]);
        let net = RouteNet {
            name: "n".into(),
            source: rrg.logic_source(site(2, 2, 0)),
            sinks: vec![RouteSink {
                node: rrg.logic_sink(site(3, 3, 0)),
                activation: all,
            }],
        };
        let tight = net_bbox(&rrg, &net, 0, 10, 10);
        assert!(tight.contains(2, 2) && tight.contains(3, 3));
        assert!(!tight.contains(0, 0) && !tight.contains(5, 3));
        assert!(!tight.covers_fabric(10, 10));
        let full = net_bbox(&rrg, &net, usize::MAX, 10, 10);
        assert!(full.covers_fabric(10, 10), "MAX margin disables pruning");
    }

    #[test]
    fn scratch_arena_is_stable_across_route_calls() {
        // The acceptance check for "zero per-net allocations in steady
        // state": re-routing the same nets with a reused router must not
        // grow any scratch buffer, and must produce identical results.
        let rrg = arch_rrg(6, 3);
        let all = ModeSet::of(&[0]);
        let nets: Vec<RouteNet> = (1..=5u16)
            .map(|y| RouteNet {
                name: format!("n{y}"),
                source: rrg.logic_source(site(1, y, 0)),
                sinks: vec![RouteSink {
                    node: rrg.logic_sink(site(6, 6 - y, 0)),
                    activation: all,
                }],
            })
            .collect();
        let mut fresh = Router::new(&rrg, RouterOptions::default());
        let expected = fresh.route(&nets);

        let mut router = Router::new(&rrg, RouterOptions::default());
        let _warmup = router.route(&nets);
        let footprint = router.scratch_footprint();
        assert!(footprint > 0, "scratch buffers are in use");
        for _ in 0..3 {
            let again = router.route(&nets);
            assert_eq!(router.scratch_footprint(), footprint, "no scratch growth");
            // route() resets congestion state: repeated calls are
            // idempotent down to the exact trees.
            assert_eq!(again.iterations, expected.iterations);
            for (a, b) in again.nets.iter().zip(&expected.nets) {
                assert_eq!(a.tree, b.tree);
                assert_eq!(a.sink_pos, b.sink_pos);
            }
        }
    }

    /// The iteration at which the routability predictor stops a route
    /// whose iterations leave these overused-node counts, if it does.
    fn stall_iteration(series: &[usize]) -> Option<usize> {
        (1..=series.len()).find(|&n| congestion_stalled(&series[..n]))
    }

    #[test]
    fn predictor_never_stops_late_converging_routes() {
        // Overuse series of logged suite routes at effort 1 that reach
        // zero overuse only at the iteration after the last entry.
        let fir5_mdr_w5 = [
            313, 229, 102, 39, 23, 20, 24, 21, 17, 16, 15, 17, 12, 11, 7, 9, 13, 15, 12, 14, 6, 8,
            11, 9, 7, 9, 6, 6, 5, 5, 2, 1, 1, 1, 1, 2, 1, 1, 1,
        ];
        let fir4_mdr_w4 = [
            251, 181, 84, 34, 24, 14, 13, 11, 6, 8, 5, 5, 5, 7, 7, 8, 4, 8, 4, 4, 3, 6, 4, 4, 1, 3,
            2, 2, 2, 3, 3, 1, 1, 1, 1, 1, 2, 2,
        ];
        let regexp34_dcs_w9 = [
            697, 717, 592, 330, 177, 133, 135, 110, 73, 68, 81, 87, 48, 59, 89, 83, 100, 83, 51,
            52, 36, 36, 24, 26, 15, 19, 23, 32, 16, 23, 22, 24, 37, 27, 18, 6,
        ];
        for series in [&fir5_mdr_w5[..], &fir4_mdr_w4, &regexp34_dcs_w9] {
            assert_eq!(stall_iteration(series), None, "{series:?}");
        }
    }

    #[test]
    fn predictor_gives_up_near_misses_that_stall_above_the_gate() {
        // The w*-1 probes of regexp0+regexp1's two DCS legs, as a router
        // without the predictor logs them over 40 iterations. Each best
        // overuse sinks to 12-13 % of the first, then the route diverges:
        // wire-length at width 8, best 85 of 691 at iteration 7;
        // edge-matching at width 13, best 149 of 1156 at iteration 6.
        // Both stay above the 6 % gate and stop once the window passes.
        let regexp01_dcs_w8 = [
            691, 703, 555, 308, 140, 104, 85, 89, 90, 87, 105, 99, 112, 161, 186, 195, 244, 192,
            245, 189, 211, 183, 164, 188, 170, 196, 167, 187, 212, 236, 215, 214, 196, 229, 185,
            167, 171, 223, 227, 257,
        ];
        assert_eq!(stall_iteration(&regexp01_dcs_w8), Some(15));
        let regexp01_edge_w13 = [
            1156, 1190, 991, 606, 325, 149, 154, 179, 205, 207, 217, 253, 257, 275, 258, 251, 236,
            228, 257, 252, 257, 288, 381, 388, 408, 473, 409, 419, 390, 357, 375, 376, 396, 427,
            356, 410, 387, 408, 384, 412,
        ];
        assert_eq!(stall_iteration(&regexp01_edge_w13), Some(14));
    }

    #[test]
    fn predictor_stops_stalled_failures_at_the_pinned_iteration() {
        // regexp0+regexp1 DCS at width 4: flat from the start.
        let regexp01_dcs_w4 = [1005, 1060, 1043, 995, 1048, 1044, 1073, 1037, 1041];
        assert_eq!(stall_iteration(&regexp01_dcs_w4), Some(9));
        // regexp1+regexp2 DCS at width 8: improves for 7 iterations, then
        // its best (201) stays within 5 % of iteration 6's (206).
        let regexp12_dcs_w8 = [
            737, 729, 573, 375, 297, 206, 201, 273, 215, 281, 321, 241, 234, 225,
        ];
        assert_eq!(stall_iteration(&regexp12_dcs_w8), Some(14));
    }

    #[test]
    fn predictor_needs_a_full_window() {
        assert!(!congestion_stalled(&[]));
        assert!(!congestion_stalled(&[100; STALL_WINDOW]));
        assert!(congestion_stalled(&[100; STALL_WINDOW + 1]));
    }

    /// The iteration at which the warm-up verdict stops a route of `nets`
    /// nets whose iterations leave these overused-node counts, if it does.
    fn verdict_iteration(series: &[usize], nets: usize) -> Option<usize> {
        (1..=series.len()).find(|&n| warmup_stalled(&series[..n], nets))
    }

    #[test]
    fn verdict_stops_hopeless_warmups_at_iteration_3() {
        // The w=4 probes of the five DCS wire-length jobs of the
        // benchmark's paper_relaxed workload, with their net counts:
        // 3.8 to 4.9 overused nodes per net, and no progress.
        let probes: [(&[usize], usize); 5] = [
            (&[1005, 1060, 1043], 268), // regexp0+regexp1
            (&[1065, 1128, 1146], 233), // regexp0+regexp4
            (&[1059, 1162, 1179], 270), // regexp1+regexp2
            (&[1101, 1244, 1183], 315), // fir_lp8+fir_hp8
            (&[1550, 1696, 1640], 398), // alu24+intc32
        ];
        for (series, nets) in probes {
            assert_eq!(
                verdict_iteration(series, nets),
                Some(REROUTE_ALL_ITERS),
                "{series:?} over {nets} nets"
            );
        }
    }

    #[test]
    fn verdict_keeps_converging_and_late_failing_routes_running() {
        // The predictor's pinned series: three that converge, two that
        // fail at width 8 after the warm-up made headway.
        let pinned: [(&[usize], usize); 5] = [
            (&[313, 229, 102, 39], 353),  // fir5_mdr_w5
            (&[251, 181, 84, 34], 277),   // fir4_mdr_w4
            (&[697, 717, 592, 330], 246), // regexp34_dcs_w9
            (&[691, 703, 555, 308], 268), // regexp01_dcs_w8
            (&[737, 729, 573, 375], 270), // regexp12_dcs_w8
        ];
        for (series, nets) in pinned {
            assert_eq!(verdict_iteration(series, nets), None, "{series:?}");
        }
        // A route of the criticality proptest (seed 715016): no headway
        // over the warm-up, then routed at iteration 4. Only the floor of
        // 2 overused nodes per net keeps it running.
        let small = [2, 2, 2, 0];
        assert_eq!(verdict_iteration(&small, 5), None);
        assert_eq!(verdict_iteration(&small, 1), Some(REROUTE_ALL_ITERS));
    }

    #[test]
    fn verdict_fires_only_at_the_end_of_the_warmup() {
        assert!(!warmup_stalled(&[], 1));
        assert!(!warmup_stalled(&[100, 100], 1));
        assert!(warmup_stalled(&[100, 100, 100], 1));
        assert!(!warmup_stalled(&[100, 100, 99], 1), "progress");
        assert!(
            !warmup_stalled(&[100, 100, 100, 100], 1),
            "past the warm-up"
        );
    }

    /// The committed overuse corpus: one route a line, `<job> <leg>
    /// <probe|audit|final> <width> <nets> <overuse…>`, generated by
    /// `crates/core/tests/overuse_corpus.rs`.
    const CORPUS: &str = include_str!("../tests/data/overuse_corpus.txt");

    #[test]
    fn stop_rules_never_stop_a_converging_route_of_the_corpus() {
        let max_iterations = RouterOptions::default().max_iterations;
        let (mut probes, mut audits, mut finals, mut converged) = (0, 0, 0, 0);
        let (mut verdicts, mut predicted, mut capped) = (0, 0, 0);
        // The highest stall level of a converging route: its best overuse
        // over its first, wherever the predictor's window-and-gain
        // condition holds (`now / first`), with the line it comes from.
        let mut tail = (0, 1, "");
        for line in CORPUS.lines().filter(|l| !l.starts_with('#')) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let nets: usize = fields[4].parse().unwrap();
            let series: Vec<usize> = fields[5..].iter().map(|f| f.parse().unwrap()).collect();
            let stop =
                |n: usize| congestion_stalled(&series[..n]) || warmup_stalled(&series[..n], nets);
            match fields[2] {
                "probe" => probes += 1,
                "audit" => audits += 1,
                "final" => finals += 1,
                tag => panic!("unknown tag {tag}: {line}"),
            }
            if series.last() == Some(&0) {
                // The router checks the rules after every iteration that
                // left overuse; none may fire before the route converges.
                converged += 1;
                let early = (1..series.len()).find(|&n| stop(n));
                assert_eq!(early, None, "a rule stops a converging route: {line}");
                for n in 1..series.len() {
                    let Some(now) = stalled_best(&series[..n]) else {
                        continue;
                    };
                    if now * tail.1 > tail.0 * series[0] {
                        tail = (now, series[0], line);
                    }
                }
            } else {
                // A failed route ended at the first iteration where a rule
                // fired, or at the cap if none did: a line the current
                // rules would have stopped earlier is stale.
                let first = (1..=series.len()).find(|&n| stop(n));
                if first.is_none() {
                    assert_eq!(series.len(), max_iterations, "{line}");
                    capped += 1;
                } else {
                    assert_eq!(first, Some(series.len()), "{line}");
                    if warmup_stalled(&series, nets) {
                        verdicts += 1;
                    } else {
                        predicted += 1;
                    }
                }
            }
        }
        // A width the search probed is a `probe`, any other width it
        // audits an `audit`.
        assert_eq!(
            (probes + audits + finals, finals),
            (1125, 120),
            "30 jobs, 4 final routes each"
        );
        assert_eq!((probes, audits), (503, 502));
        assert_eq!(converged, 662);
        assert_eq!((verdicts, predicted, capped), (110, 270, 83));
        // The gate sits well above every converging route's stall level:
        // the highest is at most 40 % of it.
        assert!(
            100 * tail.0 * 100 <= 40 * STALL_GATE_PCT * tail.1,
            "{} of {} stalls too close to the gate: {}",
            tail.0,
            tail.1,
            tail.2
        );
    }

    #[test]
    fn fingerprint_tracks_bbox_margin() {
        let a = RouterOptions::default();
        let b = RouterOptions {
            bbox_margin: 5,
            ..RouterOptions::default()
        };
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(a.fingerprint().starts_with("router-v8"));
        assert_eq!(
            RouterOptions::default().without_bbox().bbox_margin,
            usize::MAX
        );
    }

    #[test]
    #[should_panic(expected = "share_discount must be at most 1")]
    fn sharing_options_that_price_edges_below_zero_are_refused() {
        let rrg = arch_rrg(3, 2);
        let options = RouterOptions {
            share_discount: 1.5,
            ..RouterOptions::for_modes(2)
        };
        let _ = Router::new(&rrg, options);
    }

    #[test]
    fn fingerprint_tracks_steiner() {
        let a = RouterOptions::default();
        assert_eq!(a.steiner_fanout, 0, "Steiner mode is off by default");
        let b = RouterOptions::default().with_steiner(64);
        assert_eq!(b.steiner_fanout, 64);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_incremental() {
        let a = RouterOptions::default();
        assert!(a.incremental, "incremental rip-up is the default");
        let b = RouterOptions::default().with_full_reroute();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn hpwl_seeding_widens_long_nets_only() {
        let rrg = arch_rrg(9, 2);
        let all = ModeSet::of(&[0]);
        let short = RouteNet {
            name: "short".into(),
            source: rrg.logic_source(site(4, 4, 0)),
            sinks: vec![RouteSink {
                node: rrg.logic_sink(site(5, 4, 0)),
                activation: all,
            }],
        };
        let long = RouteNet {
            name: "long".into(),
            source: rrg.logic_source(site(1, 1, 0)),
            sinks: vec![RouteSink {
                node: rrg.logic_sink(site(9, 9, 0)),
                activation: all,
            }],
        };
        let options = RouterOptions::default();
        let extent = fabric_extent(&rrg);
        let nets = [short, long];
        let margins: Vec<usize> = nets
            .iter()
            .map(|net| initial_margin(&rrg, net, &options, extent))
            .collect();
        assert_eq!(margins[0], options.bbox_margin, "short nets keep the floor");
        assert_eq!(margins[1], 16 / HPWL_MARGIN_DIV, "hpwl 16 scaled");
        assert!(margins[1] > margins[0]);
        // `route` starts every net from exactly these margins.
        let mut router = Router::new(&rrg, options);
        assert!(router.route(&nets).success);
        assert_eq!(router.net_margin, margins);
    }
}
