//! The routing-resource graph (RRG).
//!
//! As in VPR, the routing fabric is "a standard representation of the
//! routing infrastructure called the routing resource graph" (paper
//! §IV-B): a directed graph whose nodes are pins and wire segments and
//! whose edges are programmable switches. Every programmable switch owns
//! one configuration bit; the multi-mode flow later expresses those bits
//! as Boolean functions of the mode bits.
//!
//! Topology produced here:
//!
//! * one `SOURCE → OPIN` and `IPIN → SINK` pair per block pin group (these
//!   edges are hard-wired, not configurable);
//! * logic-block output pins drive `Fc_out · W` tracks in each of the four
//!   adjacent channels through buffered switches (one bit each);
//! * logic-block input pin `i` listens on side `i mod 4` of the block and
//!   is fed from `Fc_in · W` tracks through one-hot input-mux bits;
//! * the `k` LUT input pins are logically equivalent, so they converge on
//!   a single `SINK` of capacity `k`;
//! * IO pads connect to their single adjacent channel;
//! * switch blocks use the disjoint (planar) pattern with Fs = 3: track
//!   `t` connects to track `t` of the other sides through bidirectional
//!   pass-transistor switches — one bit shared by both directions.

use crate::{Architecture, Site};
use std::fmt;

/// Identifier of a node in the routing-resource graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RrNodeId(u32);

impl RrNodeId {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a dense index. Ids are dense: `node_ids()`
    /// yields exactly `0..node_count`, so `from_index(i).index() == i`.
    /// Using an index `>= node_count` of the graph it is used with will
    /// panic on first access.
    #[must_use]
    pub fn from_index(index: u32) -> Self {
        Self(index)
    }
}

impl fmt::Display for RrNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rr{}", self.0)
    }
}

/// Identifier of a programmable switch (= one routing configuration bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(u32);

impl SwitchId {
    /// The raw index of the configuration bit.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The role of an RRG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrKind {
    /// Net source inside a block.
    Source,
    /// Block output pin.
    Opin,
    /// Block input pin.
    Ipin,
    /// Net sink inside a block (capacity = number of equivalent pins).
    Sink,
    /// Horizontal wire segment (`track` in the channel north of row `y`).
    ChanX,
    /// Vertical wire segment (`track` in the channel east of column `x`).
    ChanY,
}

/// One routing-resource node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RrNode {
    /// Node role.
    pub kind: RrKind,
    /// Representative x coordinate (for distance estimates).
    pub x: u16,
    /// Representative y coordinate.
    pub y: u16,
    /// Track index for channel nodes, subsite for IO pin nodes, pin index
    /// for logic IPINs; 0 otherwise.
    pub aux: u16,
    /// How many distinct nets may legally use the node.
    pub capacity: u16,
}

/// A directed edge of the RRG (12 bytes): its target, its switch and the
/// target's coordinates, so a search can box-test and estimate an edge
/// without loading the target's [`RrNode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RrEdge {
    /// Target node.
    pub to: RrNodeId,
    /// The switch's configuration bit, or `HARD_WIRED`.
    switch: u32,
    /// The target's x coordinate ([`RrNode::x`] of `to`).
    pub x: u16,
    /// The target's y coordinate ([`RrNode::y`] of `to`).
    pub y: u16,
}

impl RrEdge {
    /// The `switch` of a hard-wired edge: no switch has this index.
    const HARD_WIRED: u32 = u32::MAX;

    fn new(to: RrNodeId, switch: Option<SwitchId>, target: &RrNode) -> Self {
        Self {
            to,
            switch: switch.map_or(Self::HARD_WIRED, |s| s.0),
            x: target.x,
            y: target.y,
        }
    }

    /// The configuration bit that turns the switch on, or `None` for
    /// hard-wired connections (`SOURCE→OPIN`, `IPIN→SINK`).
    #[inline]
    #[must_use]
    pub fn switch(&self) -> Option<SwitchId> {
        (self.switch != Self::HARD_WIRED).then_some(SwitchId(self.switch))
    }
}

/// The routing-resource graph of an [`Architecture`].
///
/// # Example
///
/// ```
/// use mm_arch::{Architecture, RoutingGraph};
///
/// let arch = Architecture::new(4, 4, 6);
/// let rrg = RoutingGraph::build(&arch);
/// assert!(rrg.node_count() > 0);
/// // Every routing bit belongs to exactly one switch.
/// assert!(rrg.switch_count() > 100);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingGraph {
    arch: Architecture,
    nodes: Vec<RrNode>,
    edge_start: Vec<u32>,
    edges: Vec<RrEdge>,
    switch_count: u32,
    wire_count: usize,
}

/// Incremental builder state.
struct Builder {
    nodes: Vec<RrNode>,
    /// Per node, its out-edges as (target, switch) in insertion order.
    adj: Vec<Vec<(RrNodeId, Option<SwitchId>)>>,
    next_switch: u32,
}

impl Builder {
    fn add_node(&mut self, node: RrNode) -> RrNodeId {
        let id = RrNodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.adj.push(Vec::new());
        id
    }

    fn hard_edge(&mut self, from: RrNodeId, to: RrNodeId) {
        self.adj[from.index()].push((to, None));
    }

    fn switched_edge(&mut self, from: RrNodeId, to: RrNodeId) -> SwitchId {
        let s = SwitchId(self.next_switch);
        self.next_switch += 1;
        self.adj[from.index()].push((to, Some(s)));
        s
    }

    /// Bidirectional pass-transistor: two directed edges, one shared bit.
    fn bidi_edge(&mut self, a: RrNodeId, b: RrNodeId) {
        let s = SwitchId(self.next_switch);
        self.next_switch += 1;
        self.adj[a.index()].push((b, Some(s)));
        self.adj[b.index()].push((a, Some(s)));
    }
}

impl RoutingGraph {
    /// Builds the RRG for an architecture.
    ///
    /// # Panics
    ///
    /// Panics if the architecture is degenerate (zero-sized grid).
    #[must_use]
    pub fn build(arch: &Architecture) -> Self {
        Self::freeze(arch, Self::topology(arch))
    }

    /// Creates every node and edge of the fabric.
    fn topology(arch: &Architecture) -> Builder {
        let n = arch.grid;
        let w = arch.channel_width;
        assert!(n >= 1 && w >= 1);
        let mut b = Builder {
            nodes: Vec::new(),
            adj: Vec::new(),
            next_switch: 0,
        };

        // ---- wire nodes ---------------------------------------------------
        // chanx(x, y): x in 1..=n, y in 0..=n. chany(x, y): x in 0..=n,
        // y in 1..=n. Stored in a dense id map computed up front.
        let chanx_id = |x: usize, y: usize, t: usize| -> usize {
            debug_assert!((1..=n).contains(&x) && y <= n && t < w);
            ((y * n) + (x - 1)) * w + t
        };
        let chanx_total = n * (n + 1) * w;
        let chany_id =
            |x: usize, y: usize, t: usize| -> usize { ((x * n) + (y - 1)) * w + t + chanx_total };

        for y in 0..=n {
            for x in 1..=n {
                for t in 0..w {
                    let id = b.add_node(RrNode {
                        kind: RrKind::ChanX,
                        x: x as u16,
                        y: y as u16,
                        aux: t as u16,
                        capacity: 1,
                    });
                    debug_assert_eq!(id.index(), chanx_id(x, y, t));
                }
            }
        }
        for x in 0..=n {
            for y in 1..=n {
                for t in 0..w {
                    let id = b.add_node(RrNode {
                        kind: RrKind::ChanY,
                        x: x as u16,
                        y: y as u16,
                        aux: t as u16,
                        capacity: 1,
                    });
                    debug_assert_eq!(id.index(), chany_id(x, y, t));
                }
            }
        }
        let wire = |idx: usize| RrNodeId(idx as u32);

        // Track selections for connection blocks: a *contiguous* run of
        // tracks, staggered by position so that different pins do not all
        // crowd the same tracks. Contiguity matters: the Wilton pattern
        // changes the track parity on every turn, so a pin reachable only
        // on a single-parity track set could become unreachable. At least
        // two consecutive tracks guarantee both parities.
        let pick_tracks = |frac: f64, stagger: usize| -> Vec<usize> {
            let count = ((frac * w as f64).round() as usize).clamp(2.min(w), w);
            (0..count).map(|i| (stagger + i) % w).collect()
        };

        // ---- logic blocks ---------------------------------------------------
        let mut clb_source = vec![RrNodeId(0); n * n];
        let mut clb_sink = vec![RrNodeId(0); n * n];
        let clb_idx = |x: usize, y: usize| (y - 1) * n + (x - 1);
        for y in 1..=n {
            for x in 1..=n {
                let source = b.add_node(RrNode {
                    kind: RrKind::Source,
                    x: x as u16,
                    y: y as u16,
                    aux: 0,
                    capacity: 1,
                });
                let opin = b.add_node(RrNode {
                    kind: RrKind::Opin,
                    x: x as u16,
                    y: y as u16,
                    aux: 0,
                    capacity: 1,
                });
                b.hard_edge(source, opin);
                let sink = b.add_node(RrNode {
                    kind: RrKind::Sink,
                    x: x as u16,
                    y: y as u16,
                    aux: 0,
                    capacity: arch.k as u16,
                });
                clb_source[clb_idx(x, y)] = source;
                clb_sink[clb_idx(x, y)] = sink;

                // Output pin → all four adjacent channels.
                let stagger = x * 7 + y * 13;
                for t in pick_tracks(arch.fc_out, stagger) {
                    b.switched_edge(opin, wire(chanx_id(x, y - 1, t)));
                    b.switched_edge(opin, wire(chanx_id(x, y, t)));
                    b.switched_edge(opin, wire(chany_id(x - 1, y, t)));
                    b.switched_edge(opin, wire(chany_id(x, y, t)));
                }

                // Input pins, one per side: 0 south, 1 east, 2 north,
                // 3 west, cycling if k > 4.
                for pin in 0..arch.k {
                    let ipin = b.add_node(RrNode {
                        kind: RrKind::Ipin,
                        x: x as u16,
                        y: y as u16,
                        aux: pin as u16,
                        capacity: 1,
                    });
                    b.hard_edge(ipin, sink);
                    let stagger = x * 11 + y * 17 + pin * 3;
                    for t in pick_tracks(arch.fc_in, stagger) {
                        let w_id = match pin % 4 {
                            0 => chanx_id(x, y - 1, t),
                            1 => chany_id(x, y, t),
                            2 => chanx_id(x, y, t),
                            _ => chany_id(x - 1, y, t),
                        };
                        b.switched_edge(wire(w_id), ipin);
                    }
                }
            }
        }

        // ---- IO pads ---------------------------------------------------------
        // Sides: bottom (x,0) → chanx(x,0); top (x,n+1) → chanx(x,n);
        // left (0,y) → chany(0,y); right (n+1,y) → chany(n,y).
        let cap = arch.io_capacity;
        let mut io_source: Vec<RrNodeId> = Vec::with_capacity(4 * n * cap);
        let mut io_sink: Vec<RrNodeId> = Vec::with_capacity(4 * n * cap);
        // Index helper mirrors `Architecture::io_sites` order:
        // bottom, top, left, right, positions 1..=n, then subsites.
        let mut io_positions: Vec<(usize, usize)> = Vec::new();
        io_positions.extend((1..=n).map(|x| (x, 0)));
        io_positions.extend((1..=n).map(|x| (x, n + 1)));
        io_positions.extend((1..=n).map(|y| (0, y)));
        io_positions.extend((1..=n).map(|y| (n + 1, y)));
        for &(x, y) in &io_positions {
            let channel: Vec<usize> = (0..w)
                .map(|t| {
                    if y == 0 {
                        chanx_id(x, 0, t)
                    } else if y == n + 1 {
                        chanx_id(x, n, t)
                    } else if x == 0 {
                        chany_id(0, y, t)
                    } else {
                        chany_id(n, y, t)
                    }
                })
                .collect();
            for sub in 0..cap {
                let source = b.add_node(RrNode {
                    kind: RrKind::Source,
                    x: x as u16,
                    y: y as u16,
                    aux: sub as u16,
                    capacity: 1,
                });
                let opin = b.add_node(RrNode {
                    kind: RrKind::Opin,
                    x: x as u16,
                    y: y as u16,
                    aux: sub as u16,
                    capacity: 1,
                });
                b.hard_edge(source, opin);
                let ipin = b.add_node(RrNode {
                    kind: RrKind::Ipin,
                    x: x as u16,
                    y: y as u16,
                    aux: sub as u16,
                    capacity: 1,
                });
                let sink = b.add_node(RrNode {
                    kind: RrKind::Sink,
                    x: x as u16,
                    y: y as u16,
                    aux: sub as u16,
                    capacity: 1,
                });
                b.hard_edge(ipin, sink);
                let stagger = x * 5 + y * 3 + sub * 7;
                for i in pick_tracks(arch.fc_out, stagger) {
                    b.switched_edge(opin, wire(channel[i]));
                }
                for i in pick_tracks(arch.fc_in, stagger + 1) {
                    b.switched_edge(wire(channel[i]), ipin);
                }
                io_source.push(source);
                io_sink.push(sink);
            }
        }

        // ---- switch blocks ---------------------------------------------------
        // Side order: 0 west, 1 east, 2 south, 3 north. Straight pairs
        // (W–E, S–N) always keep the track; in the Wilton pattern turn
        // pairs rotate the track by ±1 so routes can migrate between
        // tracks (essential for routability at fractional Fc).
        let turn_shift = |i: usize, j: usize| -> isize {
            match arch.switch_pattern {
                crate::SwitchPattern::Disjoint => 0,
                crate::SwitchPattern::Wilton => match (i, j) {
                    (0, 1) | (2, 3) => 0,  // straight
                    (0, 2) | (1, 3) => 1,  // W–S, E–N: +1
                    (0, 3) | (1, 2) => -1, // W–N, E–S: −1
                    _ => unreachable!("i < j side pairs"),
                },
            }
        };
        for y in 0..=n {
            for x in 0..=n {
                for t in 0..w {
                    let side_wire = |side: usize, track: usize| -> Option<RrNodeId> {
                        match side {
                            0 => (x >= 1).then(|| wire(chanx_id(x, y, track))),
                            1 => (x < n).then(|| wire(chanx_id(x + 1, y, track))),
                            2 => (y >= 1).then(|| wire(chany_id(x, y, track))),
                            _ => (y < n).then(|| wire(chany_id(x, y + 1, track))),
                        }
                    };
                    for i in 0..4 {
                        for j in (i + 1)..4 {
                            let shift = turn_shift(i, j);
                            let tj = (t as isize + shift).rem_euclid(w as isize) as usize;
                            if let (Some(a), Some(bb)) = (side_wire(i, t), side_wire(j, tj)) {
                                b.bidi_edge(a, bb);
                            }
                        }
                    }
                }
            }
        }

        b
    }

    /// Freezes the builder's adjacency lists to CSR, each edge carrying
    /// its target's coordinates.
    fn freeze(arch: &Architecture, b: Builder) -> Self {
        assert!(
            b.next_switch < RrEdge::HARD_WIRED,
            "switch ids must stay below the hard-wired sentinel"
        );
        let mut edge_start = Vec::with_capacity(b.nodes.len() + 1);
        let mut edges = Vec::with_capacity(b.adj.iter().map(Vec::len).sum());
        edge_start.push(0u32);
        for adj in &b.adj {
            edges.extend(
                adj.iter()
                    .map(|&(to, switch)| RrEdge::new(to, switch, &b.nodes[to.index()])),
            );
            edge_start.push(edges.len() as u32);
        }

        Self {
            arch: *arch,
            nodes: b.nodes,
            edge_start,
            edges,
            switch_count: b.next_switch,
            wire_count: 2 * arch.grid * (arch.grid + 1) * arch.channel_width,
        }
    }

    /// The architecture this graph was built for.
    #[must_use]
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of wire-segment nodes (`ChanX` + `ChanY`).
    #[must_use]
    pub fn wire_count(&self) -> usize {
        self.wire_count
    }

    /// Number of programmable switches — the routing configuration bits of
    /// the fabric.
    #[must_use]
    pub fn switch_count(&self) -> usize {
        self.switch_count as usize
    }

    /// The node table entry.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    #[must_use]
    pub fn node(&self, id: RrNodeId) -> &RrNode {
        &self.nodes[id.index()]
    }

    /// Outgoing edges of a node.
    #[inline]
    #[must_use]
    pub fn edges(&self, id: RrNodeId) -> &[RrEdge] {
        let s = self.edge_start[id.index()] as usize;
        let e = self.edge_start[id.index() + 1] as usize;
        &self.edges[s..e]
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = RrNodeId> {
        (0..self.nodes.len() as u32).map(RrNodeId)
    }

    fn wire_base(&self) -> (usize, usize) {
        let n = self.arch.grid;
        let w = self.arch.channel_width;
        let chanx_total = n * (n + 1) * w;
        (chanx_total, 2 * chanx_total)
    }

    fn clb_node_base(&self) -> usize {
        self.wire_base().1
    }

    /// Nodes per logic block: source, opin, sink, k ipins.
    fn clb_stride(&self) -> usize {
        3 + self.arch.k
    }

    /// The `SOURCE` node of the logic block at `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is not a logic site.
    #[must_use]
    pub fn logic_source(&self, site: Site) -> RrNodeId {
        let idx = self.clb_linear(site);
        RrNodeId((self.clb_node_base() + idx * self.clb_stride()) as u32)
    }

    /// The `SINK` node of the logic block at `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is not a logic site.
    #[must_use]
    pub fn logic_sink(&self, site: Site) -> RrNodeId {
        let idx = self.clb_linear(site);
        RrNodeId((self.clb_node_base() + idx * self.clb_stride() + 2) as u32)
    }

    fn clb_linear(&self, site: Site) -> usize {
        let n = self.arch.grid;
        let (x, y) = (site.x as usize, site.y as usize);
        assert!(
            (1..=n).contains(&x) && (1..=n).contains(&y) && site.sub == 0,
            "{site} is not a logic site"
        );
        (y - 1) * n + (x - 1)
    }

    fn io_node_base(&self) -> usize {
        self.clb_node_base() + self.arch.grid * self.arch.grid * self.clb_stride()
    }

    /// Nodes per IO pad: source, opin, ipin, sink.
    fn io_stride(&self) -> usize {
        4
    }

    fn io_linear(&self, site: Site) -> usize {
        let n = self.arch.grid;
        let cap = self.arch.io_capacity;
        let (x, y, sub) = (site.x as usize, site.y as usize, site.sub as usize);
        assert!(sub < cap, "{site} subsite out of range");
        // Order matches the builder: bottom, top, left, right.
        let position = if y == 0 && (1..=n).contains(&x) {
            x - 1
        } else if y == n + 1 && (1..=n).contains(&x) {
            n + (x - 1)
        } else if x == 0 && (1..=n).contains(&y) {
            2 * n + (y - 1)
        } else if x == n + 1 && (1..=n).contains(&y) {
            3 * n + (y - 1)
        } else {
            panic!("{site} is not an IO site");
        };
        position * cap + sub
    }

    /// The `SOURCE` node of the IO pad at `site` (for input pads).
    ///
    /// # Panics
    ///
    /// Panics if `site` is not an IO site.
    #[must_use]
    pub fn io_source(&self, site: Site) -> RrNodeId {
        let idx = self.io_linear(site);
        RrNodeId((self.io_node_base() + idx * self.io_stride()) as u32)
    }

    /// The `SINK` node of the IO pad at `site` (for output pads).
    ///
    /// # Panics
    ///
    /// Panics if `site` is not an IO site.
    #[must_use]
    pub fn io_sink(&self, site: Site) -> RrNodeId {
        let idx = self.io_linear(site);
        RrNodeId((self.io_node_base() + idx * self.io_stride() + 3) as u32)
    }

    /// The `SOURCE` node for the block placed on `site`, dispatching on the
    /// site kind.
    ///
    /// # Panics
    ///
    /// Panics if `site` is invalid for this architecture.
    #[must_use]
    pub fn source_at(&self, site: Site) -> RrNodeId {
        match self.arch.site_kind(site) {
            Some(crate::SiteKind::Logic) => self.logic_source(site),
            Some(crate::SiteKind::Io) => self.io_source(site),
            None => panic!("{site} is not a placeable site"),
        }
    }

    /// The `SINK` node for the block placed on `site`, dispatching on the
    /// site kind.
    ///
    /// # Panics
    ///
    /// Panics if `site` is invalid for this architecture.
    #[must_use]
    pub fn sink_at(&self, site: Site) -> RrNodeId {
        match self.arch.site_kind(site) {
            Some(crate::SiteKind::Logic) => self.logic_sink(site),
            Some(crate::SiteKind::Io) => self.io_sink(site),
            None => panic!("{site} is not a placeable site"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Architecture, RoutingGraph) {
        let arch = Architecture::new(4, 3, 4);
        let rrg = RoutingGraph::build(&arch);
        (arch, rrg)
    }

    #[test]
    fn node_lookup_consistency() {
        let (arch, rrg) = small();
        for site in arch.logic_sites() {
            let s = rrg.logic_source(site);
            let k = rrg.logic_sink(site);
            assert_eq!(rrg.node(s).kind, RrKind::Source, "{site}");
            assert_eq!(rrg.node(k).kind, RrKind::Sink, "{site}");
            assert_eq!(rrg.node(s).x, site.x);
            assert_eq!(rrg.node(s).y, site.y);
            assert_eq!(rrg.node(k).capacity as usize, arch.k);
            assert_eq!(rrg.source_at(site), s);
            assert_eq!(rrg.sink_at(site), k);
        }
        for site in arch.io_sites() {
            let s = rrg.io_source(site);
            let k = rrg.io_sink(site);
            assert_eq!(rrg.node(s).kind, RrKind::Source, "{site}");
            assert_eq!(rrg.node(k).kind, RrKind::Sink, "{site}");
            assert_eq!(rrg.node(s).x, site.x, "{site}");
            assert_eq!(rrg.node(s).y, site.y, "{site}");
            assert_eq!(rrg.node(s).aux, u16::from(site.sub), "{site}");
        }
    }

    #[test]
    fn source_reaches_opin_and_wires() {
        let (arch, rrg) = small();
        let site = arch.logic_sites().next().unwrap();
        let source = rrg.logic_source(site);
        let opin_edges = rrg.edges(source);
        assert_eq!(opin_edges.len(), 1);
        assert!(opin_edges[0].switch().is_none(), "source→opin hard-wired");
        let opin = opin_edges[0].to;
        assert_eq!(rrg.node(opin).kind, RrKind::Opin);
        // fc_out = 1.0 → 4 channels × W switched edges.
        let wires = rrg.edges(opin);
        assert_eq!(wires.len(), 4 * arch.channel_width);
        for e in wires {
            assert!(e.switch().is_some());
            assert!(matches!(rrg.node(e.to).kind, RrKind::ChanX | RrKind::ChanY));
        }
    }

    #[test]
    fn ipins_feed_sink() {
        let (arch, rrg) = small();
        let site = Site::new(2, 2, 0);
        let sink = rrg.logic_sink(site);
        // Count IPINs that feed this sink.
        let mut feeders = 0;
        for id in rrg.node_ids() {
            if rrg.node(id).kind == RrKind::Ipin && rrg.edges(id).iter().any(|e| e.to == sink) {
                feeders += 1;
                assert_eq!(rrg.node(id).x, 2);
            }
        }
        assert_eq!(feeders, arch.k);
    }

    #[test]
    fn switch_block_degree_disjoint() {
        // In the disjoint pattern every wire connects to at most 3 other
        // wires per endpoint (Fs = 3), i.e. ≤ 6 wire neighbours total for
        // a unit segment with two endpoints.
        let (_, rrg) = small();
        for id in rrg.node_ids() {
            if matches!(rrg.node(id).kind, RrKind::ChanX | RrKind::ChanY) {
                let wire_neighbours = rrg
                    .edges(id)
                    .iter()
                    .filter(|e| matches!(rrg.node(e.to).kind, RrKind::ChanX | RrKind::ChanY))
                    .count();
                assert!(wire_neighbours <= 6, "{id} has {wire_neighbours}");
            }
        }
    }

    #[test]
    fn bidirectional_switches_share_bits() {
        let (_, rrg) = small();
        // Collect wire→wire edges and check that each switch id appears on
        // exactly two directed edges (the two directions).
        let mut uses: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for id in rrg.node_ids() {
            if matches!(rrg.node(id).kind, RrKind::ChanX | RrKind::ChanY) {
                for e in rrg.edges(id) {
                    if matches!(rrg.node(e.to).kind, RrKind::ChanX | RrKind::ChanY) {
                        *uses
                            .entry(e.switch().expect("wire-wire is switched").index())
                            .or_default() += 1;
                    }
                }
            }
        }
        assert!(!uses.is_empty());
        for (s, count) in uses {
            assert_eq!(count, 2, "switch {s} used {count} times");
        }
    }

    #[test]
    fn switch_count_matches_enumeration() {
        let (_, rrg) = small();
        let mut max_seen = 0usize;
        let mut distinct: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for id in rrg.node_ids() {
            for e in rrg.edges(id) {
                if let Some(s) = e.switch() {
                    distinct.insert(s.index());
                    max_seen = max_seen.max(s.index());
                }
            }
        }
        assert_eq!(distinct.len(), rrg.switch_count());
        assert_eq!(max_seen + 1, rrg.switch_count());
    }

    /// The 64 architectures the edge invariants are checked on: both
    /// switch patterns, four Fc settings and eight grid/width shapes.
    fn invariant_archs() -> Vec<Architecture> {
        let fcs = [None, Some((0.4, 0.25)), Some((1.0, 1.0)), Some((0.1, 0.1))];
        let shapes = [
            (1, 1),
            (2, 32),
            (3, 5),
            (5, 8),
            (8, 2),
            (12, 13),
            (16, 4),
            (20, 9),
        ];
        let mut archs = Vec::new();
        for pattern in [crate::SwitchPattern::Wilton, crate::SwitchPattern::Disjoint] {
            for fc in fcs {
                for (grid, width) in shapes {
                    let mut arch = Architecture::new(4, grid, width).with_switch_pattern(pattern);
                    if let Some((fc_in, fc_out)) = fc {
                        arch = arch.with_fc(fc_in, fc_out);
                    }
                    archs.push(arch);
                }
            }
        }
        archs
    }

    #[test]
    fn no_node_has_two_edges_to_the_same_node() {
        // The router stores a path's predecessors only and takes each
        // switch from the one edge between two consecutive nodes.
        let archs = invariant_archs();
        assert_eq!(archs.len(), 64);
        for arch in archs {
            let rrg = RoutingGraph::build(&arch);
            let mut targets = Vec::new();
            for id in rrg.node_ids() {
                targets.clear();
                targets.extend(rrg.edges(id).iter().map(|e| e.to));
                targets.sort_unstable();
                let before = targets.len();
                targets.dedup();
                assert_eq!(targets.len(), before, "{id} has parallel edges ({arch:?})");
            }
        }
    }

    #[test]
    fn edges_carry_their_targets_coordinates_and_the_builders_switch() {
        assert_eq!(std::mem::size_of::<RrEdge>(), 12);
        for arch in invariant_archs() {
            let built = RoutingGraph::topology(&arch);
            let rrg = RoutingGraph::build(&arch);
            for id in rrg.node_ids() {
                let edges = rrg.edges(id);
                assert_eq!(edges.len(), built.adj[id.index()].len(), "{id} ({arch:?})");
                for (e, &(to, switch)) in edges.iter().zip(&built.adj[id.index()]) {
                    let target = rrg.node(e.to);
                    assert_eq!((e.to, e.switch()), (to, switch), "{id} ({arch:?})");
                    assert_eq!((e.x, e.y), (target.x, target.y), "{id} ({arch:?})");
                }
                // The router's gate words leave SOURCE nodes out: no
                // edge enters one.
                assert!(
                    edges.iter().all(|e| rrg.node(e.to).kind != RrKind::Source),
                    "{id} ({arch:?})"
                );
            }
        }
    }

    #[test]
    fn routing_dominates_lut_bits() {
        // The paper's premise: "the configuration memory consists mostly
        // of routing bits".
        let arch = Architecture::new(4, 10, 10);
        let rrg = RoutingGraph::build(&arch);
        assert!(rrg.switch_count() > 4 * arch.total_lut_bits());
    }

    #[test]
    fn fractional_fc() {
        let arch = Architecture::new(4, 3, 8).with_fc(0.5, 0.25);
        let rrg = RoutingGraph::build(&arch);
        let site = Site::new(2, 2, 0);
        let source = rrg.logic_source(site);
        let opin = rrg.edges(source)[0].to;
        assert_eq!(rrg.edges(opin).len(), 4 * 2); // 0.25 × 8 per channel
    }

    #[test]
    #[should_panic(expected = "not a logic site")]
    fn logic_lookup_rejects_io() {
        let (_, rrg) = small();
        let _ = rrg.logic_source(Site::new(0, 1, 0));
    }

    #[test]
    #[should_panic(expected = "not an IO site")]
    fn io_lookup_rejects_logic() {
        let (_, rrg) = small();
        let _ = rrg.io_source(Site::new(1, 1, 0));
    }
}
