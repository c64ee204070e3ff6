//! Naive reference formulation of the mode-aware PathFinder router.
//!
//! This module implements *exactly* the algorithm of [`crate::Router`]
//! with the straightforward data structures the optimized router
//! replaced: a fresh `BinaryHeap` of f64-ordered entries and `HashMap`s
//! per search that prices every edge it scans, a per-net `HashMap` for
//! tree positions, and a full `node_count()` scan for the overuse/history
//! update. It exists for two reasons:
//!
//! * **differential testing** — the property tests in `tests/parity.rs`
//!   assert the optimized router produces byte-identical [`Routing`]
//!   results (same trees, same iteration count), so every data-structure
//!   optimization is provably semantics-preserving; the incremental
//!   rip-up, HPWL-seeded bounding boxes, the high-fanout Steiner
//!   decomposition and both early stops (the warm-up verdict and the
//!   routability predictor) are mirrored here so parity covers them too;
//! * **benchmarking** — `mmflow bench` measures the optimized hot path
//!   against this baseline (`BENCH_router.json`; run it with
//!   [`RouterOptions::without_bbox`] and
//!   [`RouterOptions::with_full_reroute`] for the pre-optimization
//!   behaviour).
//!
//! It is deliberately slow; never use it from a flow.

use crate::router::{
    congestion_stalled, fabric_extent, grow_margin, initial_margin, nearest_tree_point, net_bbox,
    steiner_bbox, steiner_segments, warmup_stalled, BBox, Occupancy, ASTAR_FAC,
    BBOX_CONGESTION_GRACE, HISTORY_COST, PRES_FAC_FIRST, PRES_FAC_MULT, REROUTE_ALL_ITERS,
};
use crate::{NetRoute, RouteNet, RouteTreeNode, RouterOptions, Routing};
use mm_arch::{RoutingGraph, RrKind, RrNodeId, SwitchId};
use mm_boolexpr::{ModeSet, ModeSpace};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Min-heap entry for the A* search, ordered by its f64 cost (ties pop
/// the larger node first).
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    /// Estimated total cost (g + h).
    f: f64,
    /// Cost to come.
    g: f64,
    node: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we need the smallest f.
        other
            .f
            .partial_cmp(&self.f)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Routes `nets` with the naive reference implementation, with initial
/// bounding-box margins HPWL-seeded exactly as [`crate::Router::route`]
/// seeds them.
///
/// # Panics
///
/// Panics if `options.mode_count` is 0.
#[must_use]
pub fn route_reference(rrg: &RoutingGraph, options: RouterOptions, nets: &[RouteNet]) -> Routing {
    let extent = fabric_extent(rrg);
    let margins: Vec<usize> = nets
        .iter()
        .map(|net| initial_margin(rrg, net, &options, extent))
        .collect();
    ReferenceRouter::new(rrg, options).route(nets, margins)
}

struct ReferenceRouter<'a> {
    rrg: &'a RoutingGraph,
    options: RouterOptions,
    space: ModeSpace,
    occ: Occupancy,
    switch_use: Occupancy,
    history: Vec<f32>,
    pres_fac: f64,
    max_x: u16,
    max_y: u16,
}

impl<'a> ReferenceRouter<'a> {
    fn new(rrg: &'a RoutingGraph, options: RouterOptions) -> Self {
        assert!(options.mode_count >= 1, "mode_count must be positive");
        let n = rrg.node_count();
        let (mut max_x, mut max_y) = (0u16, 0u16);
        for i in 0..n {
            let node = rrg.node(RrNodeId::from_index(i as u32));
            max_x = max_x.max(node.x);
            max_y = max_y.max(node.y);
        }
        Self {
            rrg,
            space: ModeSpace::new(options.mode_count),
            occ: Occupancy::new(n, options.mode_count),
            switch_use: Occupancy::new(rrg.switch_count(), options.mode_count),
            history: vec![0.0; n],
            pres_fac: PRES_FAC_FIRST,
            max_x,
            max_y,
            options,
        }
    }

    fn base_cost(&self, kind: RrKind) -> f64 {
        match kind {
            RrKind::ChanX | RrKind::ChanY => 1.0,
            RrKind::Ipin => 0.95,
            RrKind::Sink => 0.0,
            RrKind::Opin | RrKind::Source => 1.0,
        }
    }

    fn node_cost(&self, node: u32, act: ModeSet) -> f64 {
        let rr = self.rrg.node(RrNodeId::from_index(node));
        let occ_eff = f64::from(self.occ.max_in(node as usize, act));
        let over = (occ_eff + 1.0 - f64::from(rr.capacity)).max(0.0);
        let pres = 1.0 + self.pres_fac * over;
        self.base_cost(rr.kind) * (1.0 + f64::from(self.history[node as usize])) * pres
    }

    fn switch_activation(&self, switch: SwitchId) -> ModeSet {
        let mut act = ModeSet::EMPTY;
        for m in 0..self.options.mode_count {
            if self.switch_use.counts[switch.index() * self.switch_use.modes + m] > 0 {
                act.insert(m);
            }
        }
        act
    }

    fn share_factor(&self, switch: Option<SwitchId>, act: ModeSet) -> f64 {
        if self.options.mode_count == 1
            || (self.options.share_discount == 0.0 && self.options.param_penalty == 0.0)
        {
            return 1.0;
        }
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
            1.0 - self.options.share_discount * 0.5
        } else {
            1.0
        }
    }

    fn heuristic(&self, node: u32, target: u32) -> f64 {
        let a = self.rrg.node(RrNodeId::from_index(node));
        let b = self.rrg.node(RrNodeId::from_index(target));
        let dx = (i32::from(a.x) - i32::from(b.x)).unsigned_abs();
        let dy = (i32::from(a.y) - i32::from(b.y)).unsigned_abs();
        ASTAR_FAC * f64::from(dx + dy)
    }

    /// The fabric extent `max(max_x, max_y)` — the margin cap.
    fn extent(&self) -> usize {
        usize::from(self.max_x.max(self.max_y))
    }

    fn route(&mut self, nets: &[RouteNet], mut net_margin: Vec<usize>) -> Routing {
        // Steiner segment boxes start from the flat `bbox_margin`, not
        // the HPWL-seeded net margin (which scales with the whole net's
        // extent), and widen only under congestion — the exact mirror of
        // the optimized router's `steiner_margin`.
        let mut steiner_margin = vec![self.options.bbox_margin.min(self.extent()); nets.len()];
        let mut overuse: Vec<usize> = Vec::new();
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
                if congested && iter >= REROUTE_ALL_ITERS + BBOX_CONGESTION_GRACE {
                    net_margin[i] = grow_margin(net_margin[i], self.extent());
                    steiner_margin[i] = grow_margin(steiner_margin[i], self.extent());
                }
                rerouted_any = true;
                if warmup || !self.options.incremental {
                    self.rip_up(&routes[i]);
                    routes[i] = self.route_net(net, &mut net_margin[i], steiner_margin[i]);
                } else {
                    let mut route = std::mem::take(&mut routes[i]);
                    self.reroute_incremental(
                        net,
                        &mut route,
                        &mut net_margin[i],
                        steiner_margin[i],
                    );
                    routes[i] = route;
                }
            }

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
                break;
            }

            // The naive full scan the optimized router's touched-node
            // accounting replaces.
            overused_nodes = 0;
            for node in 0..self.rrg.node_count() {
                let cap = self.rrg.node(RrNodeId::from_index(node as u32)).capacity;
                let max = self.occ.max_all(node);
                if max > cap {
                    overused_nodes += 1;
                    self.history[node] += (HISTORY_COST * f64::from(max - cap)) as f32;
                }
            }
            overuse.push(overused_nodes);
            if overused_nodes == 0 {
                success = true;
                break;
            }
            if !rerouted_any {
                break;
            }
            if congestion_stalled(&overuse) || warmup_stalled(&overuse, nets.len()) {
                break;
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
        for t in &route.tree {
            self.occ.remove(t.node.index(), t.activation);
            if let Some(s) = t.switch {
                self.switch_use.remove(s.index(), t.activation);
            }
        }
    }

    /// Farthest-first sink order over `sinks` (indices into the net's
    /// sink list). Equal-distance sinks order by ascending sink index via
    /// the explicit `(Reverse(distance), index)` key — the exact key the
    /// optimized router sorts by — rather than leaning on stable-sort
    /// artefacts, so the order is pinned independently of the sort
    /// algorithm or platform.
    fn order_sinks(&self, net: &RouteNet, mut sinks: Vec<usize>) -> Vec<usize> {
        let src = self.rrg.node(net.source);
        sinks.sort_unstable_by_key(|&i| {
            let s = self.rrg.node(net.sinks[i].node);
            let d = (i32::from(s.x) - i32::from(src.x)).abs()
                + (i32::from(s.y) - i32::from(src.y)).abs();
            (std::cmp::Reverse(d), i)
        });
        sinks
    }

    fn route_net(&mut self, net: &RouteNet, margin: &mut usize, steiner_margin: usize) -> NetRoute {
        let mut tree: Vec<RouteTreeNode> = Vec::with_capacity(net.sinks.len() * 8);
        let mut tree_pos: HashMap<u32, u32> = HashMap::new();

        let net_act: ModeSet = net
            .sinks
            .iter()
            .fold(ModeSet::EMPTY, |a, s| a | s.activation);
        tree.push(RouteTreeNode {
            node: net.source,
            parent: None,
            switch: None,
            activation: net_act,
        });
        tree_pos.insert(net.source.index() as u32, 0);
        self.occ.add(net.source.index(), net_act);

        let mut sink_pos = vec![0u32; net.sinks.len()];
        if self.options.steiner_fanout > 0 && net.sinks.len() >= self.options.steiner_fanout {
            self.route_steiner(net, &mut tree, &mut tree_pos, &mut sink_pos, steiner_margin);
            return NetRoute { tree, sink_pos };
        }
        let order = self.order_sinks(net, (0..net.sinks.len()).collect());
        self.route_sinks(net, &mut tree, &mut tree_pos, &mut sink_pos, &order, margin);
        NetRoute { tree, sink_pos }
    }

    /// The naive mirror of the optimized router's Steiner mode: the same
    /// shared [`steiner_segments`] topology routed segment by segment
    /// inside [`steiner_bbox`] boxes, with per-segment local growth.
    fn route_steiner(
        &mut self,
        net: &RouteNet,
        tree: &mut Vec<RouteTreeNode>,
        tree_pos: &mut HashMap<u32, u32>,
        sink_pos: &mut [u32],
        margin_base: usize,
    ) {
        for seg in steiner_segments(self.rrg, net) {
            let si = seg.sink as usize;
            let sink = net.sinks[si];
            if let Some(&pos) = tree_pos.get(&(sink.node.index() as u32)) {
                self.extend_activation(tree, pos, sink.activation);
                sink_pos[si] = pos;
                continue;
            }
            // Same deterministic anchor as the optimized router: the
            // tree node nearest the topological attach point.
            let (ax, ay) = nearest_tree_point(self.rrg, tree, seg.ax, seg.ay);
            let mut margin = margin_base;
            let path = loop {
                let bbox =
                    steiner_bbox(self.rrg, sink.node, ax, ay, margin, self.max_x, self.max_y);
                match self.search(tree, sink.node, sink.activation, bbox) {
                    Some(path) => break Some(path),
                    None if bbox.covers_fabric(self.max_x, self.max_y) => break None,
                    None => margin = grow_margin(margin, self.extent()),
                }
            };
            match path {
                Some(path) => {
                    self.claim_path(tree, tree_pos, sink_pos, si, sink.activation, &path);
                }
                None => sink_pos[si] = 0,
            }
        }
    }

    /// Claims a search result (tree node first, sink last) into the net's
    /// tree — the naive mirror of the optimized router's `claim_path`.
    fn claim_path(
        &mut self,
        tree: &mut Vec<RouteTreeNode>,
        tree_pos: &mut HashMap<u32, u32>,
        sink_pos: &mut [u32],
        si: usize,
        act: ModeSet,
        path: &[(u32, Option<SwitchId>)],
    ) {
        let join = tree_pos[&path[0].0];
        self.extend_activation(tree, join, act);
        let mut parent = join;
        for &(node, switch) in &path[1..] {
            let idx = tree.len() as u32;
            tree.push(RouteTreeNode {
                node: RrNodeId::from_index(node),
                parent: Some(parent),
                switch,
                activation: act,
            });
            self.occ.add(node as usize, act);
            if let Some(s) = switch {
                self.switch_use.add(s.index(), act);
            }
            tree_pos.insert(node, idx);
            parent = idx;
        }
        sink_pos[si] = parent;
    }

    /// The incremental rip-up mirror of
    /// [`crate::Router`]'s congested-net handling: prune subtrees through
    /// overused nodes, keep (and re-claim) the rest with renarrowed
    /// activations, then re-route only the lost sinks.
    fn reroute_incremental(
        &mut self,
        net: &RouteNet,
        route: &mut NetRoute,
        margin: &mut usize,
        steiner_margin: usize,
    ) {
        let tree_len = route.tree.len();
        let mut blocked = vec![false; tree_len];
        for idx in 0..tree_len {
            let t = route.tree[idx];
            let over = self.occ.max_all(t.node.index()) > self.rrg.node(t.node).capacity;
            let parent_blocked = t.parent.is_some_and(|p| blocked[p as usize]);
            blocked[idx] = over || parent_blocked;
        }

        let mut keep = vec![false; tree_len];
        let mut keep_act = vec![ModeSet::EMPTY; tree_len];
        let mut lost: Vec<usize> = Vec::new();
        let mut sink_lost = vec![false; net.sinks.len()];
        keep[0] = true;
        let root_blocked = blocked[0];
        for (si, sink) in net.sinks.iter().enumerate() {
            let pos = route.sink_pos[si];
            if root_blocked || blocked[pos as usize] {
                lost.push(si);
                sink_lost[si] = true;
                continue;
            }
            let mut cur = Some(pos);
            while let Some(p) = cur {
                keep[p as usize] = true;
                keep_act[p as usize] |= sink.activation;
                cur = route.tree[p as usize].parent;
            }
        }
        if lost.is_empty() {
            self.rip_up(route);
            *route = self.route_net(net, margin, steiner_margin);
            return;
        }

        self.rip_up(route);
        let net_act: ModeSet = net
            .sinks
            .iter()
            .fold(ModeSet::EMPTY, |a, s| a | s.activation);
        let mut remap = vec![0u32; tree_len];
        let mut new_tree: Vec<RouteTreeNode> = Vec::with_capacity(tree_len);
        let mut tree_pos: HashMap<u32, u32> = HashMap::new();
        for idx in 0..tree_len {
            if !keep[idx] {
                continue;
            }
            let t = route.tree[idx];
            let new_index = new_tree.len() as u32;
            remap[idx] = new_index;
            let activation = if idx == 0 { net_act } else { keep_act[idx] };
            new_tree.push(RouteTreeNode {
                node: t.node,
                parent: t.parent.map(|p| remap[p as usize]),
                switch: t.switch,
                activation,
            });
            self.occ.add(t.node.index(), activation);
            if let Some(s) = t.switch {
                self.switch_use.add(s.index(), activation);
            }
            tree_pos.insert(t.node.index() as u32, new_index);
        }
        route.tree = new_tree;
        for si in 0..net.sinks.len() {
            if !sink_lost[si] {
                route.sink_pos[si] = remap[route.sink_pos[si] as usize];
            }
        }

        let order = self.order_sinks(net, lost);
        let mut sink_pos = std::mem::take(&mut route.sink_pos);
        self.route_sinks(
            net,
            &mut route.tree,
            &mut tree_pos,
            &mut sink_pos,
            &order,
            margin,
        );
        route.sink_pos = sink_pos;
    }

    /// Routes the sinks listed in `order` into the net's existing tree.
    fn route_sinks(
        &mut self,
        net: &RouteNet,
        tree: &mut Vec<RouteTreeNode>,
        tree_pos: &mut HashMap<u32, u32>,
        sink_pos: &mut [u32],
        order: &[usize],
        margin: &mut usize,
    ) {
        for &si in order {
            let sink = net.sinks[si];
            if let Some(&pos) = tree_pos.get(&(sink.node.index() as u32)) {
                self.extend_activation(tree, pos, sink.activation);
                sink_pos[si] = pos;
                continue;
            }
            let path = loop {
                let bbox = net_bbox(self.rrg, net, *margin, self.max_x, self.max_y);
                match self.search(tree, sink.node, sink.activation, bbox) {
                    Some(path) => break Some(path),
                    None if bbox.covers_fabric(self.max_x, self.max_y) => break None,
                    None => *margin = grow_margin(*margin, self.extent()),
                }
            };
            match path {
                Some(path) => {
                    self.claim_path(tree, tree_pos, sink_pos, si, sink.activation, &path);
                }
                None => {
                    sink_pos[si] = 0;
                }
            }
        }
    }

    fn extend_activation(&mut self, tree: &mut [RouteTreeNode], pos: u32, act: ModeSet) {
        let mut cur = Some(pos);
        while let Some(p) = cur {
            let t = &mut tree[p as usize];
            let delta = act & t.activation.complement(self.space);
            if delta.is_never() {
                break;
            }
            t.activation |= delta;
            self.occ.add(t.node.index(), delta);
            if let Some(s) = t.switch {
                self.switch_use.add(s.index(), delta);
            }
            cur = t.parent;
        }
    }

    /// A*-guided Dijkstra with fresh allocations per search: a new heap
    /// and hash-map visit state every time.
    #[allow(clippy::type_complexity)]
    fn search(
        &mut self,
        tree: &[RouteTreeNode],
        target: RrNodeId,
        act: ModeSet,
        bbox: BBox,
    ) -> Option<Vec<(u32, Option<SwitchId>)>> {
        let target_idx = target.index() as u32;
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        let mut dist: HashMap<u32, f64> = HashMap::new();
        let mut prev: HashMap<u32, (u32, Option<SwitchId>)> = HashMap::new();

        for t in tree {
            let node = t.node.index() as u32;
            let rr = self.rrg.node(t.node);
            if !bbox.contains(rr.x, rr.y) {
                continue;
            }
            dist.insert(node, 0.0);
            prev.insert(node, (node, None));
            heap.push(HeapEntry {
                f: self.heuristic(node, target_idx),
                g: 0.0,
                node,
            });
        }

        let mut found = false;
        while let Some(entry) = heap.pop() {
            let u = entry.node;
            if entry.g > dist[&u] + 1e-12 {
                continue; // stale
            }
            if u == target_idx {
                found = true;
                break;
            }
            for e in self.rrg.edges(RrNodeId::from_index(u)) {
                let v = e.to.index() as u32;
                let to = self.rrg.node(e.to);
                match to.kind {
                    RrKind::Sink if v != target_idx => continue,
                    RrKind::Source => continue,
                    RrKind::Ipin => {
                        let leads = self
                            .rrg
                            .edges(e.to)
                            .first()
                            .is_some_and(|se| se.to.index() as u32 == target_idx);
                        if !leads {
                            continue;
                        }
                    }
                    _ => {}
                }
                if !bbox.contains(to.x, to.y) {
                    continue;
                }
                let g = entry.g + self.node_cost(v, act) * self.share_factor(e.switch(), act);
                let better = match dist.get(&v) {
                    None => true,
                    Some(&d) => g + 1e-12 < d,
                };
                if better {
                    dist.insert(v, g);
                    prev.insert(v, (u, e.switch()));
                    heap.push(HeapEntry {
                        f: g + self.heuristic(v, target_idx),
                        g,
                        node: v,
                    });
                }
            }
        }
        if !found {
            return None;
        }

        let mut path = vec![];
        let mut cur = target_idx;
        loop {
            let (p, sw) = prev[&cur];
            path.push((cur, sw));
            if p == cur {
                break;
            }
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}
