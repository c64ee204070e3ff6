//! Building routable nets from placed circuits and validating routings.

use crate::{NetRoute, RouteNet, RouteSink, Routing};
use mm_arch::{RoutingGraph, RrKind, Site};
use mm_boolexpr::ModeSet;
use mm_netlist::{BlockId, LutCircuit};
use std::collections::HashMap;

/// Builds the route nets of one placed circuit.
///
/// Every driver block (input pad or LUT) with at least one consumer yields
/// one net from the `SOURCE` at its site to the `SINK` of every distinct
/// consumer site; all sinks carry `activation` (for an MDR mode routed in
/// isolation this is the mode's singleton set, or "always" for a static
/// circuit).
///
/// `site_of` maps each block to its placed site.
pub fn nets_for_circuit(
    circuit: &LutCircuit,
    rrg: &RoutingGraph,
    activation: ModeSet,
    mut site_of: impl FnMut(BlockId) -> Site,
) -> Vec<RouteNet> {
    // Distinct consumer blocks per driver.
    let mut sinks_of: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    for (src, dst) in circuit.connections() {
        sinks_of.entry(src).or_default().push(dst);
    }
    let mut nets = Vec::new();
    for id in circuit.block_ids() {
        let Some(consumers) = sinks_of.get(&id) else {
            continue;
        };
        let source_site = site_of(id);
        let source = rrg.source_at(source_site);
        // Deduplicate consumer *sites* (a CLB sink node accepts the net
        // once even if the LUT reads it on several pins — and pin
        // duplication is already collapsed at the connection level).
        let mut sink_nodes: Vec<RouteSink> = Vec::with_capacity(consumers.len());
        for &c in consumers {
            let node = rrg.sink_at(site_of(c));
            if !sink_nodes.iter().any(|s| s.node == node) {
                sink_nodes.push(RouteSink { node, activation });
            }
        }
        nets.push(RouteNet {
            name: circuit.block(id).name().to_string(),
            source,
            sinks: sink_nodes,
        });
    }
    nets
}

/// Structurally verifies a routing against its nets:
///
/// * tree shape (source root, parents precede children, edges exist in
///   the RRG with the recorded switch);
/// * activation monotonicity (child ⊆ parent);
/// * every sink reached with a sufficient activation;
/// * per-(node, mode) capacity respected across all nets;
/// * the routing's own unreachable-sink accounting is consistent (a
///   successful routing must not report unreachable nets).
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn verify_routing(
    rrg: &RoutingGraph,
    nets: &[RouteNet],
    routing: &Routing,
    mode_count: usize,
) -> Result<(), String> {
    if nets.len() != routing.nets.len() {
        return Err(format!(
            "routing has {} nets, expected {}",
            routing.nets.len(),
            nets.len()
        ));
    }
    let unreachable = routing.unreachable_nets(nets);
    if !unreachable.is_empty() {
        return Err(format!(
            "unreachable sinks on nets [{}]",
            unreachable.join(", ")
        ));
    }
    let mut usage: HashMap<(usize, usize), u16> = HashMap::new();
    for (net, route) in nets.iter().zip(&routing.nets) {
        verify_tree(rrg, net, route)?;
        for t in &route.tree {
            for m in t.activation.iter() {
                if m >= mode_count {
                    return Err(format!(
                        "net '{}': node {} active in out-of-range mode {m}",
                        net.name, t.node
                    ));
                }
                *usage.entry((t.node.index(), m)).or_default() += 1;
            }
        }
    }
    for ((node, mode), used) in usage {
        let id = mm_arch::RrNodeId::from_index(node as u32);
        let cap = rrg.node(id).capacity;
        if used > cap {
            return Err(format!(
                "node {id} overused in mode {mode}: {used} > capacity {cap}"
            ));
        }
    }
    Ok(())
}

fn verify_tree(rrg: &RoutingGraph, net: &RouteNet, route: &NetRoute) -> Result<(), String> {
    if route.tree.is_empty() {
        return Err(format!("net '{}': empty tree", net.name));
    }
    if route.tree[0].node != net.source || route.tree[0].parent.is_some() {
        return Err(format!("net '{}': tree root is not the source", net.name));
    }
    for (i, t) in route.tree.iter().enumerate().skip(1) {
        let Some(p) = t.parent else {
            return Err(format!("net '{}': non-root node without parent", net.name));
        };
        if p as usize >= i {
            return Err(format!("net '{}': parent does not precede child", net.name));
        }
        let parent = &route.tree[p as usize];
        let edge_ok = rrg
            .edges(parent.node)
            .iter()
            .any(|e| e.to == t.node && e.switch() == t.switch);
        if !edge_ok {
            return Err(format!(
                "net '{}': tree edge {} → {} missing in RRG",
                net.name, parent.node, t.node
            ));
        }
        if !t.activation.is_subset(parent.activation) {
            return Err(format!(
                "net '{}': activation grows downwards at {}",
                net.name, t.node
            ));
        }
    }
    if route.sink_pos.len() != net.sinks.len() {
        return Err(format!("net '{}': sink count mismatch", net.name));
    }
    for (si, sink) in net.sinks.iter().enumerate() {
        let pos = route.sink_pos[si] as usize;
        if pos >= route.tree.len() || route.tree[pos].node != sink.node {
            return Err(format!("net '{}': sink {si} not reached", net.name));
        }
        if !sink.activation.is_subset(route.tree[pos].activation) {
            return Err(format!(
                "net '{}': sink {si} activation not covered",
                net.name
            ));
        }
        if rrg.node(sink.node).kind != RrKind::Sink {
            return Err(format!("net '{}': sink {si} is not a SINK node", net.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Router, RouterOptions};
    use mm_arch::Architecture;
    use mm_netlist::TruthTable;

    /// A placed two-LUT chain on a 3×3 array.
    fn placed_chain() -> (LutCircuit, HashMap<BlockId, Site>) {
        let mut c = LutCircuit::new("chain", 4);
        let a = c.add_input("a").unwrap();
        let g1 = c
            .add_lut("g1", vec![a], TruthTable::var(1, 0), false)
            .unwrap();
        let g2 = c
            .add_lut("g2", vec![g1, a], TruthTable::var(2, 0), false)
            .unwrap();
        let y = c.add_output("y", g2).unwrap();
        let mut sites = HashMap::new();
        sites.insert(a, Site::new(0, 2, 0));
        sites.insert(g1, Site::new(1, 2, 0));
        sites.insert(g2, Site::new(3, 2, 0));
        sites.insert(y, Site::new(4, 2, 1));
        (c, sites)
    }

    #[test]
    fn nets_built_per_driver() {
        let arch = Architecture::new(4, 3, 4);
        let rrg = RoutingGraph::build(&arch);
        let (c, sites) = placed_chain();
        let nets = nets_for_circuit(&c, &rrg, ModeSet::of(&[0]), |b| sites[&b]);
        // Drivers with consumers: a (→g1, →g2), g1 (→g2), g2 (→y).
        assert_eq!(nets.len(), 3);
        let a_net = nets.iter().find(|n| n.name == "a").unwrap();
        assert_eq!(a_net.sinks.len(), 2);
    }

    #[test]
    fn route_and_verify_chain() {
        let arch = Architecture::new(4, 3, 4);
        let rrg = RoutingGraph::build(&arch);
        let (c, sites) = placed_chain();
        let nets = nets_for_circuit(&c, &rrg, ModeSet::of(&[0]), |b| sites[&b]);
        let mut router = Router::new(&rrg, RouterOptions::default());
        let routing = router.route(&nets);
        assert!(routing.success);
        verify_routing(&rrg, &nets, &routing, 1).unwrap();
    }

    #[test]
    fn verify_rejects_corrupted_tree() {
        let arch = Architecture::new(4, 3, 4);
        let rrg = RoutingGraph::build(&arch);
        let (c, sites) = placed_chain();
        let nets = nets_for_circuit(&c, &rrg, ModeSet::of(&[0]), |b| sites[&b]);
        let mut router = Router::new(&rrg, RouterOptions::default());
        let mut routing = router.route(&nets);
        // Corrupt: break a parent link.
        if routing.nets[0].tree.len() > 2 {
            routing.nets[0].tree[2].parent = Some(2);
            assert!(verify_routing(&rrg, &nets, &routing, 1).is_err());
        }
    }

    #[test]
    fn verify_rejects_out_of_range_mode() {
        let arch = Architecture::new(4, 3, 4);
        let rrg = RoutingGraph::build(&arch);
        let (c, sites) = placed_chain();
        let nets = nets_for_circuit(&c, &rrg, ModeSet::of(&[1]), |b| sites[&b]);
        let mut router = Router::new(&rrg, RouterOptions::for_modes(2));
        let routing = router.route(&nets);
        assert!(routing.success);
        // Verifying with mode_count = 1 must flag mode 1.
        assert!(verify_routing(&rrg, &nets, &routing, 1).is_err());
        verify_routing(&rrg, &nets, &routing, 2).unwrap();
    }

    #[test]
    fn duplicate_consumer_sites_deduplicated() {
        let arch = Architecture::new(4, 3, 4);
        let rrg = RoutingGraph::build(&arch);
        let mut c = LutCircuit::new("dup", 4);
        let a = c.add_input("a").unwrap();
        let g1 = c
            .add_lut("g1", vec![a], TruthTable::var(1, 0), false)
            .unwrap();
        let g2 = c
            .add_lut("g2", vec![a, g1], TruthTable::var(2, 1), false)
            .unwrap();
        c.add_output("y", g2).unwrap();
        let mut sites = HashMap::new();
        sites.insert(a, Site::new(0, 1, 0));
        sites.insert(g1, Site::new(1, 1, 0));
        sites.insert(g2, Site::new(2, 1, 0));
        sites.insert(c.find("y").unwrap(), Site::new(3, 0, 0));
        let nets = nets_for_circuit(&c, &rrg, ModeSet::of(&[0]), |b| sites[&b]);
        let a_net = nets.iter().find(|n| n.name == "a").unwrap();
        assert_eq!(a_net.sinks.len(), 2, "g1 and g2 are distinct sites");
    }
}
