//! Static timing analysis for the multi-mode tool flow.
//!
//! A levelized arrival/required-time analysis over the unit-delay model
//! of the reproduction (each wire segment costs 1, each LUT costs
//! [`LUT_DELAY`]), producing per-connection slack and a normalized
//! criticality in `0..=1` that the placer and router consume for
//! timing-driven optimization.
//!
//! Every caller asks for one full analysis of one circuit, so
//! [`analyze`] recomputes everything on every call: one forward sweep
//! over the combinational LUTs in topological order, one backward sweep
//! in reverse, then slack and criticality per connection.
//!
//! # Timing model
//!
//! * Startpoints (arrival `0.0`): input pads and registered-LUT outputs.
//! * A combinational LUT's arrival is the max over its fanin connections
//!   of `arrival(src) + delay(conn)`, plus [`LUT_DELAY`].
//! * Endpoints: registered-LUT inputs (the fold plus [`LUT_DELAY`] for
//!   the capturing LUT) and output pads (`arrival(src) + delay`).
//! * The critical path `T` is the max over all combinational arrivals
//!   and endpoint arrivals.
//! * `slack(conn)` measures how much the connection's delay could grow
//!   without growing `T`; `criticality = 1 - slack / T` clamped to
//!   `0..=1` (or `0.0` when `T = 0`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mm_arch::{RoutingGraph, RrNodeId, Site};
use mm_netlist::{BlockId, BlockKind, LutCircuit};
use mm_route::{RouteNet, Routing};
use std::collections::HashMap;
use std::fmt;

/// Delay of one LUT in the unit-delay model (a LUT traversal costs a
/// couple of wire segments' worth of time).
pub const LUT_DELAY: f64 = 2.0;

/// Errors produced by timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum StaError {
    /// The circuit's combinational part contains a cycle (the payload
    /// names a block on it).
    Cycle(String),
    /// The delay vector does not have one entry per connection.
    DelayCount {
        /// Connections in the circuit.
        expected: usize,
        /// Delays supplied.
        got: usize,
    },
    /// A delay is not a finite non-negative number.
    InvalidDelay {
        /// Index into the connection list.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A routed connection has no delay in the delay map — the routing
    /// does not cover the connection (or the lookup is mis-keyed).
    /// Silently treating it as zero would underestimate the critical
    /// path, so this is a hard error.
    MissingDelay {
        /// Driver block name.
        source: String,
        /// Consumer block name.
        sink: String,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Cycle(name) => write!(f, "combinational cycle through '{name}'"),
            Self::DelayCount { expected, got } => {
                write!(f, "expected {expected} connection delays, got {got}")
            }
            Self::InvalidDelay { index, value } => {
                write!(f, "connection {index} has invalid delay {value}")
            }
            Self::MissingDelay { source, sink } => {
                write!(f, "no routed delay for connection {source} -> {sink}")
            }
        }
    }
}

impl std::error::Error for StaError {}

/// Timing of one connection (driver → consumer pin pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectionTiming {
    /// Driver block.
    pub source: BlockId,
    /// Consumer block.
    pub sink: BlockId,
    /// Connection delay (routed wire count, estimate, or unit).
    pub delay: f64,
    /// Signal arrival time at the consumer's input.
    pub arrival: f64,
    /// Slack: how much `delay` could grow without growing the critical
    /// path (negative never occurs under a consistent analysis).
    pub slack: f64,
    /// Normalized criticality in `0..=1` (1 = on the critical path).
    pub criticality: f64,
}

/// Result of a full timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingAnalysis {
    /// Length of the longest registered-to-registered (or pad-to-pad)
    /// path in delay units.
    pub critical_path: f64,
    /// Per-connection timing, in [`LutCircuit::connections`] order.
    pub connections: Vec<ConnectionTiming>,
}

impl TimingAnalysis {
    /// Criticalities in [`LutCircuit::connections`] order.
    #[must_use]
    pub fn criticalities(&self) -> Vec<f64> {
        self.connections.iter().map(|c| c.criticality).collect()
    }
}

/// Runs a full analysis of `circuit` under `delays` (one entry per
/// [`LutCircuit::connections`] element, in order).
///
/// # Errors
///
/// [`StaError::DelayCount`] on a length mismatch,
/// [`StaError::InvalidDelay`] for non-finite or negative delays, and
/// [`StaError::Cycle`] if the combinational part of the circuit is
/// cyclic.
pub fn analyze(circuit: &LutCircuit, delays: &[f64]) -> Result<TimingAnalysis, StaError> {
    let conns = circuit.connections();
    if delays.len() != conns.len() {
        return Err(StaError::DelayCount {
            expected: conns.len(),
            got: delays.len(),
        });
    }
    // `-0.0` is refused too: its sign would leak into max/min folds,
    // where IEEE leaves the result underspecified.
    for (i, &d) in delays.iter().enumerate() {
        if !d.is_finite() || d.is_sign_negative() {
            return Err(StaError::InvalidDelay { index: i, value: d });
        }
    }
    let order = circuit
        .comb_topo_order()
        .map_err(|e| StaError::Cycle(e.to_string()))?;

    // Fanin/fanout connection indices per block, in connection order.
    let mut fanin: HashMap<BlockId, Vec<usize>> = HashMap::new();
    let mut fanout: HashMap<BlockId, Vec<usize>> = HashMap::new();
    for (ci, &(src, dst)) in conns.iter().enumerate() {
        fanout.entry(src).or_default().push(ci);
        fanin.entry(dst).or_default().push(ci);
    }
    // Forward: arrivals of combinational LUTs (everything else is a
    // startpoint at 0.0).
    let mut arr: HashMap<BlockId, f64> = HashMap::new();
    let arrival_of =
        |arr: &HashMap<BlockId, f64>, id: BlockId| arr.get(&id).copied().unwrap_or(0.0);
    let input_fold = |arr: &HashMap<BlockId, f64>, id: BlockId| {
        let mut a = 0.0f64;
        if let Some(list) = fanin.get(&id) {
            for &ci in list {
                a = a.max(arrival_of(arr, conns[ci].0) + delays[ci]);
            }
        }
        a
    };
    for &b in &order {
        let a = input_fold(&arr, b) + LUT_DELAY;
        arr.insert(b, a);
    }

    // Critical path: max over combinational arrivals and endpoint
    // arrivals, scanning blocks in ascending id order.
    let mut t = 0.0f64;
    for id in circuit.block_ids() {
        match circuit.block(id).kind() {
            BlockKind::Lut {
                registered: false, ..
            } => t = t.max(arrival_of(&arr, id)),
            BlockKind::Lut {
                registered: true, ..
            } => t = t.max(input_fold(&arr, id) + LUT_DELAY),
            BlockKind::OutputPad { .. } => t = t.max(input_fold(&arr, id)),
            BlockKind::InputPad => {}
        }
    }

    // Backward: required time at each combinational LUT's output.
    let mut req: HashMap<BlockId, f64> = HashMap::new();
    let edge_req = |req: &HashMap<BlockId, f64>, dst: BlockId| match circuit.block(dst).kind() {
        BlockKind::Lut {
            registered: false, ..
        } => req[&dst] - LUT_DELAY,
        BlockKind::Lut {
            registered: true, ..
        } => t - LUT_DELAY,
        _ => t,
    };
    for &b in order.iter().rev() {
        let mut r = t;
        if let Some(list) = fanout.get(&b) {
            for &ci in list {
                r = r.min(edge_req(&req, conns[ci].1) - delays[ci]);
            }
        }
        req.insert(b, r);
    }

    // Per-connection slack and criticality.
    let connections = conns
        .iter()
        .enumerate()
        .map(|(ci, &(source, sink))| {
            let arrival = arrival_of(&arr, source) + delays[ci];
            let slack = edge_req(&req, sink) - arrival;
            let criticality = if t > 0.0 {
                (1.0 - slack / t).clamp(0.0, 1.0)
            } else {
                0.0
            };
            ConnectionTiming {
                source,
                sink,
                delay: delays[ci],
                arrival,
                slack,
                criticality,
            }
        })
        .collect();

    Ok(TimingAnalysis {
        critical_path: t,
        connections,
    })
}

/// Extracts per-connection routed delays for `mode` from a routing:
/// `(source SOURCE node, sink SINK node) → wire segments on the path`.
#[must_use]
pub fn routed_delay_map(
    rrg: &RoutingGraph,
    nets: &[RouteNet],
    routing: &Routing,
    mode: usize,
) -> HashMap<(RrNodeId, RrNodeId), f64> {
    let mut map = HashMap::new();
    for (net, route) in nets.iter().zip(&routing.nets) {
        for (si, sink) in net.sinks.iter().enumerate() {
            if sink.activation.contains(mode) {
                map.insert((net.source, sink.node), route.wires_to_sink(rrg, si) as f64);
            }
        }
    }
    map
}

/// Resolves each circuit connection to its routed delay, strictly: a
/// connection absent from `map` is an error, never a silent `0.0`.
///
/// `site_of` maps blocks to their placed sites.
///
/// # Errors
///
/// [`StaError::MissingDelay`] for any connection without a routed delay.
pub fn routed_connection_delays(
    circuit: &LutCircuit,
    mut site_of: impl FnMut(BlockId) -> Site,
    rrg: &RoutingGraph,
    map: &HashMap<(RrNodeId, RrNodeId), f64>,
) -> Result<Vec<f64>, StaError> {
    circuit
        .connections()
        .into_iter()
        .map(|(src, dst)| {
            let key = (rrg.source_at(site_of(src)), rrg.sink_at(site_of(dst)));
            map.get(&key)
                .copied()
                .ok_or_else(|| StaError::MissingDelay {
                    source: circuit.block(src).name().to_string(),
                    sink: circuit.block(dst).name().to_string(),
                })
        })
        .collect()
}

/// Analyzes one placed-and-routed circuit in `mode`.
///
/// # Errors
///
/// [`StaError::MissingDelay`] if the routing does not cover every
/// connection in `mode`; otherwise see [`analyze`].
pub fn analyze_routed(
    circuit: &LutCircuit,
    site_of: impl FnMut(BlockId) -> Site,
    rrg: &RoutingGraph,
    nets: &[RouteNet],
    routing: &Routing,
    mode: usize,
) -> Result<TimingAnalysis, StaError> {
    let map = routed_delay_map(rrg, nets, routing, mode);
    let delays = routed_connection_delays(circuit, site_of, rrg, &map)?;
    analyze(circuit, &delays)
}

/// Placement-independent criticalities under a unit wire delay per
/// connection — the topological criticality the annealer weights its
/// timing cost with (pure function of the circuit, so content-addressed
/// caching of placements keyed on circuit hashes stays sound).
///
/// # Errors
///
/// [`StaError::Cycle`] for a combinationally cyclic circuit.
pub fn unit_criticalities(circuit: &LutCircuit) -> Result<Vec<f64>, StaError> {
    let delays = vec![1.0; circuit.connections().len()];
    Ok(analyze(circuit, &delays)?.criticalities())
}

/// Analyzes a circuit under estimated (pre-routing) connection delays
/// supplied by `dist` — typically a placement's Manhattan distances.
///
/// # Errors
///
/// See [`analyze`].
pub fn analyze_estimated(
    circuit: &LutCircuit,
    mut dist: impl FnMut(BlockId, BlockId) -> f64,
) -> Result<TimingAnalysis, StaError> {
    let delays: Vec<f64> = circuit
        .connections()
        .into_iter()
        .map(|(s, d)| dist(s, d))
        .collect();
    analyze(circuit, &delays)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_netlist::TruthTable;

    /// in → g1 → g2 → g3 → out, all combinational.
    fn chain() -> LutCircuit {
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
        c
    }

    #[test]
    fn chain_critical_path_counts_levels() {
        let c = chain();
        let delays = vec![1.0; c.connections().len()];
        let a = analyze(&c, &delays).unwrap();
        // 4 connections of delay 1 plus 3 LUT traversals.
        assert_eq!(a.critical_path, 4.0 + 3.0 * LUT_DELAY);
        // Every connection lies on the single path: criticality 1.
        for conn in &a.connections {
            assert_eq!(conn.criticality, 1.0, "{conn:?}");
            assert_eq!(conn.slack, 0.0, "{conn:?}");
        }
    }

    #[test]
    fn registered_lut_cuts_the_path() {
        let mut c = LutCircuit::new("cut", 4);
        let a = c.add_input("a").unwrap();
        let g1 = c
            .add_lut("g1", vec![a], TruthTable::var(1, 0), false)
            .unwrap();
        let r = c
            .add_lut("r", vec![g1], TruthTable::var(1, 0), true)
            .unwrap();
        let g2 = c
            .add_lut("g2", vec![r], TruthTable::var(1, 0), false)
            .unwrap();
        c.add_output("y", g2).unwrap();
        let delays = vec![1.0; c.connections().len()];
        let an = analyze(&c, &delays).unwrap();
        // Longest stage: a→g1→r capture = 1 + 2 + 1 + 2 = 6.
        assert_eq!(an.critical_path, 6.0);
    }

    #[test]
    fn off_path_connection_has_slack() {
        let mut c = LutCircuit::new("slack", 4);
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g1 = c
            .add_lut("g1", vec![a], TruthTable::var(1, 0), false)
            .unwrap();
        let g2 = c
            .add_lut("g2", vec![g1, b], TruthTable::var(2, 0), false)
            .unwrap();
        c.add_output("y", g2).unwrap();
        // a→g1 long, b→g2 short: b's connection is slack.
        let conns = c.connections();
        let delays: Vec<f64> = conns
            .iter()
            .map(|&(s, _)| if s == a { 5.0 } else { 1.0 })
            .collect();
        let an = analyze(&c, &delays).unwrap();
        let b_conn = an
            .connections
            .iter()
            .find(|ct| ct.source == b)
            .expect("b drives g2");
        assert!(b_conn.slack > 0.0);
        assert!(b_conn.criticality < 1.0);
        let a_conn = an.connections.iter().find(|ct| ct.source == a).unwrap();
        assert_eq!(a_conn.criticality, 1.0);
    }

    #[test]
    fn delay_vector_length_is_checked() {
        let c = chain();
        assert!(matches!(
            analyze(&c, &[1.0]),
            Err(StaError::DelayCount { .. })
        ));
    }

    #[test]
    fn invalid_delays_are_rejected() {
        let c = chain();
        let n = c.connections().len();
        for bad in [f64::NAN, f64::INFINITY, -1.0, -0.0] {
            let mut delays = vec![1.0; n];
            delays[0] = bad;
            assert!(
                matches!(analyze(&c, &delays), Err(StaError::InvalidDelay { .. })),
                "{bad} accepted"
            );
        }
    }

    #[test]
    fn missing_routed_delay_is_an_error() {
        use mm_arch::Architecture;
        let c = chain();
        let arch = Architecture::new(4, 3, 4);
        let rrg = RoutingGraph::build(&arch);
        let map = HashMap::new();
        let err = routed_connection_delays(&c, |_| Site::new(1, 1, 0), &rrg, &map).unwrap_err();
        assert!(matches!(err, StaError::MissingDelay { .. }));
    }

    #[test]
    fn unit_criticalities_are_normalized() {
        let crits = unit_criticalities(&chain()).unwrap();
        assert!(!crits.is_empty());
        for c in crits {
            assert!((0.0..=1.0).contains(&c));
        }
    }
}
