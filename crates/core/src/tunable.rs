//! Tunable circuits — the merge of per-mode LUT circuits (paper §III).
//!
//! "Merging of several LUT circuits into a Tunable circuit consists of two
//! steps: 1) determine which LUTs will be implemented using the same
//! Tunable LUT; 2) the annotation of the connections with the appropriate
//! activation function."
//!
//! Step 1 is decided by the *combined placement* (`mm-place`): LUTs placed
//! on the same physical site share a tunable LUT. This module performs the
//! extraction: it derives the tunable LUTs (with their parameterized
//! truth-table bits, Fig. 4) and the tunable connections (with their
//! activation functions, Fig. 3) from the placed mode circuits.

use crate::FlowError;
use mm_arch::{Site, SiteKind};
use mm_boolexpr::{ModeSet, ModeSpace};
use mm_netlist::{BlockId, BlockKind, LutCircuit, TruthTable};
use mm_place::MultiPlacement;
use mm_route::{RouteNet, RouteSink};
use std::collections::HashMap;

/// One physical site of the merged circuit with its per-mode occupants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TunableSite {
    /// The physical location.
    pub site: Site,
    /// The block implemented here in each mode (`None` = unused in that
    /// mode).
    pub occupants: Vec<Option<BlockId>>,
    /// Whether this is a logic site (tunable LUT) or an IO site.
    pub is_logic: bool,
}

/// A tunable connection: a source site, a sink site and the activation
/// function telling in which modes the connection must be realised
/// (Fig. 3: merged connections get the OR of the mode products).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunableConnection {
    /// Driving site.
    pub source: Site,
    /// Consuming site.
    pub sink: Site,
    /// Modes in which the connection exists.
    pub activation: ModeSet,
}

/// The parameterized configuration of one tunable LUT (Fig. 4): each of
/// the `2^k` truth-table cells and the flip-flop select bit expressed as a
/// Boolean function of the mode bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TunableLutBits {
    /// Truth-table cells; `truth[j]` is the function of cell `j`.
    pub truth: Vec<ModeSet>,
    /// The sequential-output select bit.
    pub ff_select: ModeSet,
}

impl TunableLutBits {
    /// Number of parameterized cells (functions that are not constant).
    #[must_use]
    pub fn parameterized_bits(&self, space: ModeSpace) -> usize {
        self.truth
            .iter()
            .chain(std::iter::once(&self.ff_select))
            .filter(|f| f.is_parameterized(space))
            .count()
    }
}

/// The merged multi-mode circuit: tunable LUTs on physical sites,
/// connected by activation-annotated tunable connections.
#[derive(Debug, Clone)]
pub struct TunableCircuit {
    space: ModeSpace,
    k: usize,
    sites: Vec<TunableSite>,
    site_index: HashMap<Site, usize>,
    connections: Vec<TunableConnection>,
}

impl TunableCircuit {
    /// Extracts the tunable circuit from a combined placement: "Given a
    /// placement of all the mode circuits on the reconfigurable region, a
    /// Tunable circuit can easily be extracted. The LUTs positioned on the
    /// same physical LUT will be implemented using the same Tunable LUT."
    ///
    /// # Errors
    ///
    /// Fails if circuits/placement disagree or the placement is incomplete.
    pub fn from_placement(
        circuits: &[LutCircuit],
        placement: &MultiPlacement,
        arch: &mm_arch::Architecture,
    ) -> Result<Self, FlowError> {
        if circuits.is_empty() {
            return Err(FlowError::Input("no mode circuits".into()));
        }
        if placement.mode_count() != circuits.len() {
            return Err(FlowError::Input(format!(
                "placement has {} modes, circuits {}",
                placement.mode_count(),
                circuits.len()
            )));
        }
        let space = ModeSpace::new(circuits.len());
        let k = circuits[0].k();
        if circuits.iter().any(|c| c.k() != k) {
            return Err(FlowError::Input("mode circuits disagree on k".into()));
        }

        let mut sites: Vec<TunableSite> = Vec::new();
        let mut site_index: HashMap<Site, usize> = HashMap::new();
        for (m, circuit) in circuits.iter().enumerate() {
            for id in circuit.block_ids() {
                let site = placement.modes[m]
                    .try_site_of(id)
                    .ok_or_else(|| FlowError::Input(format!("unplaced block {id}")))?;
                let is_logic = match arch.site_kind(site) {
                    Some(SiteKind::Logic) => true,
                    Some(SiteKind::Io) => false,
                    None => {
                        return Err(FlowError::Input(format!("illegal site {site}")));
                    }
                };
                let idx = *site_index.entry(site).or_insert_with(|| {
                    sites.push(TunableSite {
                        site,
                        occupants: vec![None; circuits.len()],
                        is_logic,
                    });
                    sites.len() - 1
                });
                if sites[idx].occupants[m].is_some() {
                    return Err(FlowError::Input(format!(
                        "two mode-{m} blocks on site {site}"
                    )));
                }
                sites[idx].occupants[m] = Some(id);
            }
        }

        // Connections with merged activation functions.
        let mut conn_map: HashMap<(Site, Site), ModeSet> = HashMap::new();
        for (m, circuit) in circuits.iter().enumerate() {
            let product = space.product(m);
            for (src, dst) in circuit.connections() {
                let key = (
                    placement.modes[m].site_of(src),
                    placement.modes[m].site_of(dst),
                );
                *conn_map.entry(key).or_insert(ModeSet::EMPTY) |= product;
            }
        }
        let mut connections: Vec<TunableConnection> = conn_map
            .into_iter()
            .map(|((source, sink), activation)| TunableConnection {
                source,
                sink,
                activation,
            })
            .collect();
        connections.sort_by_key(|c| (c.source, c.sink));

        Ok(Self {
            space,
            k,
            sites,
            site_index,
            connections,
        })
    }

    /// The mode space.
    #[must_use]
    pub fn space(&self) -> ModeSpace {
        self.space
    }

    /// LUT width of the architecture.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The occupied sites.
    #[must_use]
    pub fn sites(&self) -> &[TunableSite] {
        &self.sites
    }

    /// The tunable connections, sorted by (source, sink).
    #[must_use]
    pub fn connections(&self) -> &[TunableConnection] {
        &self.connections
    }

    /// Number of tunable LUTs (occupied logic sites).
    #[must_use]
    pub fn tunable_lut_count(&self) -> usize {
        self.sites.iter().filter(|s| s.is_logic).count()
    }

    /// Number of connections realised in *every* mode (activation ≡ 1) —
    /// the connections edge matching tries to maximise.
    #[must_use]
    pub fn merged_connection_count(&self) -> usize {
        self.connections
            .iter()
            .filter(|c| c.activation.is_always(self.space))
            .count()
    }

    /// The tunable site at `site`, if occupied.
    #[must_use]
    pub fn site(&self, site: Site) -> Option<&TunableSite> {
        self.site_index.get(&site).map(|&i| &self.sites[i])
    }

    /// Generates the parameterized truth-table bits of the tunable LUT at
    /// `site` (Fig. 4): "The bits of a LUT are first multiplied (AND) with
    /// the Boolean product of the mode circuit the LUT belongs to. The
    /// corresponding bits of the different LUTs are then added (OR)".
    ///
    /// Occupant LUTs narrower than k are extended with don't-care inputs.
    /// Returns `None` for IO or unoccupied sites.
    #[must_use]
    pub fn tunable_lut_bits(&self, circuits: &[LutCircuit], site: Site) -> Option<TunableLutBits> {
        let ts = self.site(site)?;
        if !ts.is_logic {
            return None;
        }
        let entries = 1usize << self.k;
        let mut truth = vec![ModeSet::EMPTY; entries];
        let mut ff_select = ModeSet::EMPTY;
        for (m, occ) in ts.occupants.iter().enumerate() {
            let Some(id) = occ else { continue };
            let product = self.space.product(m);
            if let BlockKind::Lut {
                truth: t,
                registered,
                ..
            } = circuits[m].block(*id).kind()
            {
                let extended: TruthTable = t.extend_to(self.k);
                for (j, slot) in truth.iter_mut().enumerate() {
                    if extended.eval_index(j) {
                        *slot |= product;
                    }
                }
                if *registered {
                    ff_select |= product;
                }
            }
        }
        Some(TunableLutBits { truth, ff_select })
    }

    /// Evaluating the tunable bits for `mode` must reproduce the occupant
    /// LUT of that mode — the correctness property of Fig. 4. Returns the
    /// specialised truth table (constant-0 for modes without occupant).
    #[must_use]
    pub fn specialized_truth(
        &self,
        circuits: &[LutCircuit],
        site: Site,
        mode: usize,
    ) -> Option<TruthTable> {
        let bits = self.tunable_lut_bits(circuits, site)?;
        let mut t = TruthTable::const0(self.k);
        for (j, f) in bits.truth.iter().enumerate() {
            t.set(j, f.eval(mode));
        }
        Some(t)
    }

    /// Total parameterized LUT configuration cells over all tunable LUTs —
    /// the refined accounting of §IV-C.1 ("our results would even improve
    /// if we would count only the LUT bits that have a different value for
    /// the different modes").
    #[must_use]
    pub fn parameterized_lut_bits(&self, circuits: &[LutCircuit]) -> usize {
        self.sites
            .iter()
            .filter(|s| s.is_logic)
            .filter_map(|s| self.tunable_lut_bits(circuits, s.site))
            .map(|bits| bits.parameterized_bits(self.space))
            .sum()
    }

    /// Builds the router nets of the tunable circuit: one net per driving
    /// site, with activation-annotated sinks.
    #[must_use]
    pub fn route_nets(&self, rrg: &mm_arch::RoutingGraph) -> Vec<RouteNet> {
        let mut by_source: HashMap<Site, Vec<(Site, ModeSet)>> = HashMap::new();
        for c in &self.connections {
            by_source
                .entry(c.source)
                .or_default()
                .push((c.sink, c.activation));
        }
        let mut sources: Vec<Site> = by_source.keys().copied().collect();
        sources.sort_unstable();
        sources
            .into_iter()
            .map(|src| {
                let mut sinks = by_source.remove(&src).expect("key exists");
                sinks.sort_unstable_by_key(|&(s, _)| s);
                RouteNet {
                    name: format!("t{src}"),
                    source: rrg.source_at(src),
                    sinks: sinks
                        .into_iter()
                        .map(|(site, activation)| RouteSink {
                            node: rrg.sink_at(site),
                            activation,
                        })
                        .collect(),
                }
            })
            .collect()
    }

    /// The connections active in `mode` — the projection that must equal
    /// the placed mode circuit's connections.
    pub fn mode_connections(&self, mode: usize) -> impl Iterator<Item = &TunableConnection> {
        self.connections
            .iter()
            .filter(move |c| c.activation.contains(mode))
    }

    /// Verifies that projecting the tunable circuit on every mode yields
    /// exactly the placed connections of that mode circuit.
    ///
    /// # Errors
    ///
    /// Returns a description of the first discrepancy.
    pub fn verify_projection(
        &self,
        circuits: &[LutCircuit],
        placement: &MultiPlacement,
    ) -> Result<(), String> {
        for (m, circuit) in circuits.iter().enumerate() {
            let mut expected: Vec<(Site, Site)> = circuit
                .connections()
                .into_iter()
                .map(|(a, b)| (placement.modes[m].site_of(a), placement.modes[m].site_of(b)))
                .collect();
            expected.sort_unstable();
            expected.dedup();
            let mut got: Vec<(Site, Site)> = self
                .mode_connections(m)
                .map(|c| (c.source, c.sink))
                .collect();
            got.sort_unstable();
            if expected != got {
                return Err(format!(
                    "mode {m}: projection has {} connections, circuit has {}",
                    got.len(),
                    expected.len()
                ));
            }
        }
        Ok(())
    }

    /// Summary statistics.
    #[must_use]
    pub fn stats(&self) -> TunableStats {
        TunableStats {
            modes: self.space.mode_count(),
            tunable_luts: self.tunable_lut_count(),
            io_sites: self.sites.len() - self.tunable_lut_count(),
            connections: self.connections.len(),
            merged_connections: self.merged_connection_count(),
        }
    }
}

/// Summary statistics of a [`TunableCircuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunableStats {
    /// Number of modes merged.
    pub modes: usize,
    /// Occupied logic sites.
    pub tunable_luts: usize,
    /// Occupied IO sites.
    pub io_sites: usize,
    /// Distinct tunable connections.
    pub connections: usize,
    /// Connections active in every mode.
    pub merged_connections: usize,
}

impl std::fmt::Display for TunableStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} modes, {} tunable LUTs, {} IO sites, {} connections ({} merged)",
            self.modes, self.tunable_luts, self.io_sites, self.connections, self.merged_connections
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_arch::Architecture;
    use mm_place::Placement;

    fn chain(name: &str) -> LutCircuit {
        let mut c = LutCircuit::new(name, 4);
        let a = c.add_input("a").unwrap();
        let g1 = c
            .add_lut("g1", vec![a], TruthTable::var(1, 0), false)
            .unwrap();
        let g2 = c
            .add_lut("g2", vec![g1], !TruthTable::var(1, 0), true)
            .unwrap();
        c.add_output("y", g2).unwrap();
        c
    }

    fn hand_placed_pair(overlap: bool) -> (Vec<LutCircuit>, MultiPlacement, Architecture) {
        let arch = Architecture::new(4, 3, 4);
        let (a, b) = (chain("a"), chain("b"));
        let mut p0 = Placement::new(a.block_count());
        p0.assign(a.find("a").unwrap(), Site::new(0, 1, 0));
        p0.assign(a.find("g1").unwrap(), Site::new(1, 1, 0));
        p0.assign(a.find("g2").unwrap(), Site::new(2, 1, 0));
        p0.assign(a.find("y").unwrap(), Site::new(4, 1, 0));
        let mut p1 = Placement::new(b.block_count());
        if overlap {
            // Identical sites: everything merges.
            p1.assign(b.find("a").unwrap(), Site::new(0, 1, 0));
            p1.assign(b.find("g1").unwrap(), Site::new(1, 1, 0));
            p1.assign(b.find("g2").unwrap(), Site::new(2, 1, 0));
            p1.assign(b.find("y").unwrap(), Site::new(4, 1, 0));
        } else {
            p1.assign(b.find("a").unwrap(), Site::new(0, 2, 0));
            p1.assign(b.find("g1").unwrap(), Site::new(1, 2, 0));
            p1.assign(b.find("g2").unwrap(), Site::new(2, 2, 0));
            p1.assign(b.find("y").unwrap(), Site::new(4, 2, 0));
        }
        (
            vec![a, b],
            MultiPlacement {
                modes: vec![p0, p1],
            },
            arch,
        )
    }

    #[test]
    fn overlapping_placement_merges_everything() {
        let (circuits, placement, arch) = hand_placed_pair(true);
        let t = TunableCircuit::from_placement(&circuits, &placement, &arch).unwrap();
        let stats = t.stats();
        assert_eq!(stats.tunable_luts, 2);
        assert_eq!(stats.connections, 3);
        assert_eq!(stats.merged_connections, 3, "all activations ≡ 1");
        t.verify_projection(&circuits, &placement).unwrap();
    }

    #[test]
    fn disjoint_placement_merges_nothing() {
        let (circuits, placement, arch) = hand_placed_pair(false);
        let t = TunableCircuit::from_placement(&circuits, &placement, &arch).unwrap();
        let stats = t.stats();
        assert_eq!(stats.tunable_luts, 4);
        assert_eq!(stats.connections, 6);
        assert_eq!(stats.merged_connections, 0);
        t.verify_projection(&circuits, &placement).unwrap();
    }

    #[test]
    fn tunable_lut_bits_follow_fig4() {
        // Mode 0 has buffer (var), mode 1 has inverter at the same site
        // after overlapping placement of g1? g1 functions differ per mode
        // only at g2's site; check g2: mode0 = NOT(x) registered, mode1 =
        // NOT(x) registered — same. Instead check g1 (var) vs g1 (var):
        // identical → bits static. Then craft differing occupants.
        let (circuits, placement, arch) = hand_placed_pair(true);
        let t = TunableCircuit::from_placement(&circuits, &placement, &arch).unwrap();
        let space = t.space();

        let bits = t
            .tunable_lut_bits(&circuits, Site::new(1, 1, 0))
            .expect("logic site");
        // Identical occupant functions: no parameterized cells.
        assert_eq!(bits.parameterized_bits(space), 0);
        // Specialisation reproduces each mode's (extended) truth table.
        for m in 0..2 {
            let spec = t
                .specialized_truth(&circuits, Site::new(1, 1, 0), m)
                .unwrap();
            assert_eq!(spec, TruthTable::var(1, 0).extend_to(4));
        }
        // g2 carries the FF in both modes: ff_select ≡ 1.
        let bits2 = t
            .tunable_lut_bits(&circuits, Site::new(2, 1, 0))
            .expect("logic site");
        assert!(bits2.ff_select.is_always(space));
    }

    #[test]
    fn differing_occupants_are_parameterized() {
        // Craft: mode0 buffer, mode1 inverter on the same site.
        let arch = Architecture::new(4, 2, 4);
        let mut a = LutCircuit::new("a", 4);
        let ia = a.add_input("i").unwrap();
        let ga = a
            .add_lut("g", vec![ia], TruthTable::var(1, 0), false)
            .unwrap();
        a.add_output("y", ga).unwrap();
        let mut b = LutCircuit::new("b", 4);
        let ib = b.add_input("i").unwrap();
        let gb = b
            .add_lut("g", vec![ib], !TruthTable::var(1, 0), true)
            .unwrap();
        b.add_output("y", gb).unwrap();

        let mut p0 = Placement::new(a.block_count());
        p0.assign(ia, Site::new(0, 1, 0));
        p0.assign(ga, Site::new(1, 1, 0));
        p0.assign(a.find("y").unwrap(), Site::new(3, 1, 0));
        let mut p1 = Placement::new(b.block_count());
        p1.assign(ib, Site::new(0, 1, 0));
        p1.assign(gb, Site::new(1, 1, 0));
        p1.assign(b.find("y").unwrap(), Site::new(3, 1, 0));

        let circuits = vec![a, b];
        let placement = MultiPlacement {
            modes: vec![p0, p1],
        };
        let t = TunableCircuit::from_placement(&circuits, &placement, &arch).unwrap();
        let site = Site::new(1, 1, 0);
        let bits = t.tunable_lut_bits(&circuits, site).unwrap();
        let space = t.space();
        // Buffer vs inverter: every truth cell flips between modes, and
        // the FF select differs too.
        assert!(bits.truth.iter().all(|f| f.is_parameterized(space)));
        assert!(bits.ff_select.is_parameterized(space));
        assert_eq!(
            bits.parameterized_bits(space),
            (1 << 4) + 1,
            "all 17 logic-block bits are parameterized"
        );
        // Specialisations match the mode functions.
        assert_eq!(
            t.specialized_truth(&circuits, site, 0).unwrap(),
            TruthTable::var(1, 0).extend_to(4)
        );
        assert_eq!(
            t.specialized_truth(&circuits, site, 1).unwrap(),
            (!TruthTable::var(1, 0)).extend_to(4)
        );
    }

    #[test]
    fn route_nets_group_by_source() {
        let (circuits, placement, arch) = hand_placed_pair(false);
        let t = TunableCircuit::from_placement(&circuits, &placement, &arch).unwrap();
        let rrg = mm_arch::RoutingGraph::build(&arch);
        let nets = t.route_nets(&rrg);
        // Six drivers (a, g1, g2 per mode), each with one sink.
        assert_eq!(nets.len(), 6);
        for net in &nets {
            assert_eq!(net.sinks.len(), 1);
        }
        // Overlapped: three nets with merged activations.
        let (circuits, placement, arch) = hand_placed_pair(true);
        let t = TunableCircuit::from_placement(&circuits, &placement, &arch).unwrap();
        let nets = t.route_nets(&rrg);
        assert_eq!(nets.len(), 3);
        for net in &nets {
            assert!(net.sinks[0].activation.is_always(t.space()));
        }
    }

    #[test]
    fn rejects_inconsistent_input() {
        let (circuits, placement, arch) = hand_placed_pair(true);
        // Wrong mode count.
        let bad = MultiPlacement {
            modes: vec![placement.modes[0].clone()],
        };
        assert!(TunableCircuit::from_placement(&circuits, &bad, &arch).is_err());
        assert!(TunableCircuit::from_placement(&[], &placement, &arch).is_err());
    }
}
