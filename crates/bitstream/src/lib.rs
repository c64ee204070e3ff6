//! FPGA configuration-memory model and reconfiguration-cost metrics.
//!
//! The paper measures reconfiguration time as "the number of bits that
//! needs to be rewritten in the configuration memory" (§IV-C.1). This
//! crate models that memory and derives the three costs compared in
//! Figs. 5 and 6:
//!
//! * **MDR** — Modular Dynamic Reconfiguration rewrites the *complete*
//!   reconfigurable region: all LUT bits plus all routing bits.
//! * **Diff** — still writes all LUT bits, but counts only the routing
//!   cells whose value differs between the modes' configurations
//!   (the paper's `RegExp-Diff` bar).
//! * **DCS** — the multi-mode flow rewrites all LUT bits plus only the
//!   *parameterized* routing bits: switches whose Boolean function of the
//!   mode bits is not constant.
//!
//! A full per-mode configuration is a set of enabled switches
//! ([`Config`]); a parameterized configuration maps switches to mode-set
//! functions ([`ParamConfig`]). Both are derived from routings produced by
//! `mm-route`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mm_arch::{Architecture, RoutingGraph, SwitchId};
use mm_boolexpr::{ModeSet, ModeSpace};
use mm_route::Routing;
use std::collections::BTreeMap;
use std::fmt;

/// Bit-count summary of one reconfiguration scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RewriteCost {
    /// LUT configuration cells rewritten.
    pub lut_bits: usize,
    /// Routing configuration cells rewritten.
    pub routing_bits: usize,
}

impl RewriteCost {
    /// Total bits rewritten.
    #[must_use]
    pub fn total(&self) -> usize {
        self.lut_bits + self.routing_bits
    }

    /// Fraction of the rewrite spent on routing cells (Fig. 6's stacking).
    #[must_use]
    pub fn routing_share(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.routing_bits as f64 / self.total() as f64
        }
    }
}

impl fmt::Display for RewriteCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bits ({} LUT + {} routing)",
            self.total(),
            self.lut_bits,
            self.routing_bits
        )
    }
}

/// The configuration memory of the reconfigurable region.
///
/// In the experiments "the reconfigurable region comprises the complete
/// FPGA", so the model is derived from the whole architecture: every
/// logic block carries `2^k + 1` cells, every programmable switch one
/// cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigModel {
    /// Total LUT cells of the region.
    pub lut_bits: usize,
    /// Total routing cells (programmable switches) of the region.
    pub routing_bits: usize,
}

impl ConfigModel {
    /// Builds the memory model of an architecture / RRG pair.
    #[must_use]
    pub fn new(arch: &Architecture, rrg: &RoutingGraph) -> Self {
        Self {
            lut_bits: arch.total_lut_bits(),
            routing_bits: rrg.switch_count(),
        }
    }

    /// The MDR rewrite cost: the complete region (paper: "the
    /// reconfiguration time is the time needed to write the complete
    /// reconfigurable area").
    #[must_use]
    pub fn mdr_cost(&self) -> RewriteCost {
        RewriteCost {
            lut_bits: self.lut_bits,
            routing_bits: self.routing_bits,
        }
    }

    /// The Diff rewrite cost between two full configurations: all LUT
    /// bits, plus only the routing cells that differ.
    #[must_use]
    pub fn diff_cost(&self, a: &Config, b: &Config) -> RewriteCost {
        RewriteCost {
            lut_bits: self.lut_bits,
            routing_bits: a.differing_switches(b),
        }
    }

    /// The DCS rewrite cost of a parameterized configuration: all LUT
    /// bits plus the parameterized routing bits ("we do however count only
    /// the bits in the routing that are parameterized").
    #[must_use]
    pub fn dcs_cost(&self, param: &ParamConfig) -> RewriteCost {
        RewriteCost {
            lut_bits: self.lut_bits,
            routing_bits: param.parameterized_bits(),
        }
    }
}

/// A full (per-mode) routing configuration: the set of switches that are
/// on; every other routing cell is 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    on: Vec<SwitchId>, // sorted, deduplicated
}

impl Config {
    /// Extracts the configuration from a single-mode routing.
    #[must_use]
    pub fn from_routing(routing: &Routing) -> Self {
        let mut on: Vec<SwitchId> = routing
            .nets
            .iter()
            .flat_map(|n| n.tree.iter().filter_map(|t| t.switch))
            .collect();
        on.sort_unstable();
        on.dedup();
        Self { on }
    }

    /// Builds a configuration from an explicit switch set (tests,
    /// synthetic configurations).
    #[must_use]
    pub fn from_switches(mut on: Vec<SwitchId>) -> Self {
        on.sort_unstable();
        on.dedup();
        Self { on }
    }

    /// Number of switches that are on.
    #[must_use]
    pub fn on_count(&self) -> usize {
        self.on.len()
    }

    /// Whether a switch is on.
    #[must_use]
    pub fn is_on(&self, switch: SwitchId) -> bool {
        self.on.binary_search(&switch).is_ok()
    }

    /// The switches that are on, sorted.
    #[must_use]
    pub fn switches(&self) -> &[SwitchId] {
        &self.on
    }

    /// Number of routing cells whose value differs from `other` — the
    /// cells a diff-based reconfiguration manager would rewrite.
    #[must_use]
    pub fn differing_switches(&self, other: &Config) -> usize {
        // Symmetric difference of two sorted sets.
        let (mut i, mut j, mut diff) = (0usize, 0usize, 0usize);
        while i < self.on.len() || j < other.on.len() {
            match (self.on.get(i), other.on.get(j)) {
                (Some(&a), Some(&b)) if a == b => {
                    i += 1;
                    j += 1;
                }
                (Some(&a), Some(&b)) if a < b => {
                    diff += 1;
                    i += 1;
                }
                (Some(_), Some(_)) => {
                    diff += 1;
                    j += 1;
                }
                (Some(_), None) => {
                    diff += 1;
                    i += 1;
                }
                (None, Some(_)) => {
                    diff += 1;
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        diff
    }
}

/// A parameterized configuration: every used switch mapped to the Boolean
/// function of the mode bits that drives its cell.
///
/// Switches absent from the map are constant 0; a switch mapped to the
/// full mode set is constant 1; everything else is *parameterized* and
/// must be rewritten on a mode change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamConfig {
    space: ModeSpace,
    switch_fn: BTreeMap<SwitchId, ModeSet>,
}

impl ParamConfig {
    /// Extracts the parameterized configuration from a multi-mode routing:
    /// each switch's function is the OR of the activation functions of all
    /// connections routed through it.
    #[must_use]
    pub fn from_routing(routing: &Routing, space: ModeSpace) -> Self {
        let mut switch_fn: BTreeMap<SwitchId, ModeSet> = BTreeMap::new();
        for net in &routing.nets {
            for t in &net.tree {
                if let Some(s) = t.switch {
                    *switch_fn.entry(s).or_insert(ModeSet::EMPTY) |= t.activation;
                }
            }
        }
        Self { space, switch_fn }
    }

    /// The mode space of the configuration.
    #[must_use]
    pub fn space(&self) -> ModeSpace {
        self.space
    }

    /// The Boolean function of a switch (constant 0 if unused).
    #[must_use]
    pub fn function(&self, switch: SwitchId) -> ModeSet {
        self.switch_fn
            .get(&switch)
            .copied()
            .unwrap_or(ModeSet::EMPTY)
    }

    /// Number of used switches (function not constant 0).
    #[must_use]
    pub fn used_switches(&self) -> usize {
        self.switch_fn.len()
    }

    /// Number of *parameterized* routing bits: functions that are neither
    /// constant 0 nor constant 1.
    #[must_use]
    pub fn parameterized_bits(&self) -> usize {
        self.switch_fn
            .values()
            .filter(|f| f.is_parameterized(self.space))
            .count()
    }

    /// Number of static-1 routing bits (always-on switches, typically the
    /// merged tunable connections).
    #[must_use]
    pub fn static_on_bits(&self) -> usize {
        self.switch_fn
            .values()
            .filter(|f| f.is_always(self.space))
            .count()
    }

    /// The full configuration obtained by evaluating every function for
    /// `mode` — what the reconfiguration manager writes when switching.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is outside the mode space.
    #[must_use]
    pub fn specialize(&self, mode: usize) -> Config {
        assert!(mode < self.space.mode_count(), "mode out of range");
        Config::from_switches(
            self.switch_fn
                .iter()
                .filter(|&(_, f)| f.contains(mode))
                .map(|(&s, _)| s)
                .collect(),
        )
    }

    /// Iterates over the parameterized bits with their minimised Boolean
    /// expressions over the mode bits — the paper's
    /// `…, m1·m0, m0, 1, 0, …` view of the configuration.
    pub fn parameterized_expressions(
        &self,
    ) -> impl Iterator<Item = (SwitchId, mm_boolexpr::Expr)> + '_ {
        self.switch_fn
            .iter()
            .filter(|&(_, f)| f.is_parameterized(self.space))
            .map(|(&s, f)| (s, f.to_expr(self.space)))
    }
}

/// Convenience: the reconfiguration speed-up of DCS over MDR, as plotted
/// in Fig. 5 (`MDR bits / DCS bits`).
#[must_use]
pub fn speedup(mdr: &RewriteCost, dcs: &RewriteCost) -> f64 {
    if dcs.total() == 0 {
        f64::INFINITY
    } else {
        mdr.total() as f64 / dcs.total() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_arch::Site;
    use mm_route::{RouteNet, RouteSink, Router, RouterOptions};

    /// SwitchId has no public constructor by design; harvest real ids from
    /// a small RRG.
    fn switches() -> Vec<SwitchId> {
        let arch = Architecture::new(4, 2, 2);
        let rrg = RoutingGraph::build(&arch);
        let mut ids: Vec<SwitchId> = Vec::new();
        for n in rrg.node_ids() {
            for e in rrg.edges(n) {
                if let Some(s) = e.switch() {
                    ids.push(s);
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    #[test]
    fn config_diffing() {
        let s = switches();
        let a = Config::from_switches(vec![s[0], s[1], s[2]]);
        let b = Config::from_switches(vec![s[1], s[3]]);
        assert_eq!(a.differing_switches(&b), 3); // s0, s2, s3
        assert_eq!(a.differing_switches(&a), 0);
        assert_eq!(b.differing_switches(&a), 3);
        assert!(a.is_on(s[0]));
        assert!(!b.is_on(s[0]));
        assert_eq!(a.on_count(), 3);
    }

    #[test]
    fn config_dedups() {
        let s = switches();
        let a = Config::from_switches(vec![s[1], s[0], s[1]]);
        assert_eq!(a.on_count(), 2);
        assert_eq!(a.switches(), &[s[0], s[1]]);
    }

    #[test]
    fn rewrite_cost_arithmetic() {
        let c = RewriteCost {
            lut_bits: 100,
            routing_bits: 400,
        };
        assert_eq!(c.total(), 500);
        assert!((c.routing_share() - 0.8).abs() < 1e-12);
        assert_eq!(c.to_string(), "500 bits (100 LUT + 400 routing)");
    }

    #[test]
    fn speedup_ratio() {
        let mdr = RewriteCost {
            lut_bits: 100,
            routing_bits: 900,
        };
        let dcs = RewriteCost {
            lut_bits: 100,
            routing_bits: 100,
        };
        assert!((speedup(&mdr, &dcs) - 5.0).abs() < 1e-12);
        assert!(speedup(
            &mdr,
            &RewriteCost {
                lut_bits: 0,
                routing_bits: 0
            }
        )
        .is_infinite());
    }

    /// Routes a two-mode pair of nets and checks the parameterized
    /// configuration classification.
    #[test]
    fn param_config_from_routing() {
        let arch = Architecture::new(4, 4, 4);
        let rrg = RoutingGraph::build(&arch);
        let space = ModeSpace::new(2);
        let both = space.all();
        let m1 = ModeSet::of(&[1]);
        let nets = vec![
            // A merged connection present in both modes: static-1 bits.
            RouteNet {
                name: "shared".into(),
                source: rrg.logic_source(Site::new(1, 1, 0)),
                sinks: vec![RouteSink {
                    node: rrg.logic_sink(Site::new(2, 1, 0)),
                    activation: both,
                }],
            },
            // A mode-1-only connection: parameterized bits.
            RouteNet {
                name: "only1".into(),
                source: rrg.logic_source(Site::new(1, 3, 0)),
                sinks: vec![RouteSink {
                    node: rrg.logic_sink(Site::new(3, 3, 0)),
                    activation: m1,
                }],
            },
        ];
        let mut router = Router::new(&rrg, RouterOptions::for_modes(2));
        let routing = router.route(&nets);
        assert!(routing.success);
        let param = ParamConfig::from_routing(&routing, space);
        assert!(param.static_on_bits() > 0, "shared connection is static");
        assert!(
            param.parameterized_bits() > 0,
            "mode-1 net is parameterized"
        );
        assert_eq!(
            param.used_switches(),
            param.static_on_bits() + param.parameterized_bits(),
            "every used switch is static-1 or parameterized (none constant-0)"
        );

        // Specialisation: mode 0 turns on exactly the static bits.
        let c0 = param.specialize(0);
        assert_eq!(c0.on_count(), param.static_on_bits());
        let c1 = param.specialize(1);
        assert_eq!(c1.on_count(), param.used_switches());
        // The diff between the two specialisations is exactly the
        // parameterized bits.
        assert_eq!(c0.differing_switches(&c1), param.parameterized_bits());

        // Expressions of parameterized bits reference mode bit 0.
        for (_, expr) in param.parameterized_expressions() {
            assert_eq!(expr.to_string(), "m0");
        }
    }

    #[test]
    fn dcs_cheaper_than_mdr_on_shared_routing() {
        let arch = Architecture::new(4, 4, 4);
        let rrg = RoutingGraph::build(&arch);
        let model = ConfigModel::new(&arch, &rrg);
        let space = ModeSpace::new(2);
        let both = space.all();
        let nets = vec![RouteNet {
            name: "shared".into(),
            source: rrg.logic_source(Site::new(1, 1, 0)),
            sinks: vec![RouteSink {
                node: rrg.logic_sink(Site::new(4, 4, 0)),
                activation: both,
            }],
        }];
        let mut router = Router::new(&rrg, RouterOptions::for_modes(2));
        let routing = router.route(&nets);
        let param = ParamConfig::from_routing(&routing, space);
        let dcs = model.dcs_cost(&param);
        let mdr = model.mdr_cost();
        assert_eq!(
            dcs.routing_bits, 0,
            "fully shared routing: nothing to rewrite"
        );
        assert!(speedup(&mdr, &dcs) > 1.0);
    }

    #[test]
    fn model_counts_follow_architecture() {
        let arch = Architecture::new(4, 6, 8);
        let rrg = RoutingGraph::build(&arch);
        let model = ConfigModel::new(&arch, &rrg);
        assert_eq!(model.lut_bits, 36 * 17);
        assert_eq!(model.routing_bits, rrg.switch_count());
        let mdr = model.mdr_cost();
        assert_eq!(mdr.total(), model.lut_bits + model.routing_bits);
    }

    #[test]
    fn diff_cost_uses_lut_bits_plus_difference() {
        let arch = Architecture::new(4, 2, 2);
        let rrg = RoutingGraph::build(&arch);
        let model = ConfigModel::new(&arch, &rrg);
        let s = switches();
        let a = Config::from_switches(vec![s[0], s[1]]);
        let b = Config::from_switches(vec![s[0], s[2]]);
        let cost = model.diff_cost(&a, &b);
        assert_eq!(cost.lut_bits, model.lut_bits);
        assert_eq!(cost.routing_bits, 2);
    }
}

/// Frame-granular reconfiguration accounting — the paper's future-work
/// model (§IV-C.1): "In current FPGAs, the reconfiguration granularity is
/// a collection of bits called a frame. … By reconfiguring only these
/// frames we can further reduce reconfiguration time. … we expect the
/// speed up of routing reconfiguration time to be roughly between 4× and
/// 20×."
///
/// Switch ids are assigned tile-by-tile during RRG construction, so
/// consecutive ids are physically local — grouping consecutive ids into
/// frames approximates the column-major frame layout of real devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameModel {
    /// Routing configuration cells per frame.
    pub frame_bits: usize,
    /// Total routing cells of the region.
    pub routing_bits: usize,
}

impl FrameModel {
    /// Creates a frame model over a region's routing cells.
    ///
    /// # Panics
    ///
    /// Panics if `frame_bits` is zero.
    #[must_use]
    pub fn new(routing_bits: usize, frame_bits: usize) -> Self {
        assert!(frame_bits > 0, "frames must hold at least one bit");
        Self {
            frame_bits,
            routing_bits,
        }
    }

    /// Total routing frames of the region — what MDR rewrites.
    #[must_use]
    pub fn total_frames(&self) -> usize {
        self.routing_bits.div_ceil(self.frame_bits)
    }

    /// Frames containing at least one *parameterized* bit — what a
    /// frame-granular DCS reconfiguration manager rewrites on a mode
    /// switch.
    #[must_use]
    pub fn frames_touched(&self, param: &ParamConfig) -> usize {
        let mut frames: Vec<usize> = param
            .parameterized_expressions()
            .map(|(s, _)| s.index() / self.frame_bits)
            .collect();
        frames.sort_unstable();
        frames.dedup();
        frames.len()
    }

    /// Frames containing at least one bit that differs between two full
    /// configurations (a frame-granular diff manager).
    #[must_use]
    pub fn frames_differing(&self, a: &Config, b: &Config) -> usize {
        let mut frames: Vec<usize> = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        let (sa, sb) = (a.switches(), b.switches());
        while i < sa.len() || j < sb.len() {
            let next = match (sa.get(i), sb.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    continue;
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(_), Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!(),
            };
            frames.push(next.index() / self.frame_bits);
        }
        frames.sort_unstable();
        frames.dedup();
        frames.len()
    }

    /// Routing-frame speed-up of frame-granular DCS over MDR — the number
    /// the paper predicts lands "roughly between 4× and 20×".
    #[must_use]
    pub fn frame_speedup(&self, param: &ParamConfig) -> f64 {
        let touched = self.frames_touched(param);
        if touched == 0 {
            f64::INFINITY
        } else {
            self.total_frames() as f64 / touched as f64
        }
    }
}

#[cfg(test)]
mod frame_tests {
    use super::*;
    use mm_arch::{Architecture, RoutingGraph, Site};
    use mm_boolexpr::{ModeSet, ModeSpace};
    use mm_route::{RouteNet, RouteSink, Router, RouterOptions};

    #[test]
    fn total_frames_rounds_up() {
        let m = FrameModel::new(100, 32);
        assert_eq!(m.total_frames(), 4);
        assert_eq!(FrameModel::new(96, 32).total_frames(), 3);
    }

    #[test]
    fn touched_frames_bound_by_param_bits() {
        let arch = Architecture::new(4, 4, 4);
        let rrg = RoutingGraph::build(&arch);
        let space = ModeSpace::new(2);
        let nets = vec![RouteNet {
            name: "m1only".into(),
            source: rrg.logic_source(Site::new(1, 1, 0)),
            sinks: vec![RouteSink {
                node: rrg.logic_sink(Site::new(3, 3, 0)),
                activation: ModeSet::of(&[1]),
            }],
        }];
        let mut router = Router::new(&rrg, RouterOptions::for_modes(2));
        let routing = router.route(&nets);
        assert!(routing.success);
        let param = ParamConfig::from_routing(&routing, space);
        let frames = FrameModel::new(rrg.switch_count(), 16);
        let touched = frames.frames_touched(&param);
        assert!(touched >= 1);
        assert!(touched <= param.parameterized_bits());
        assert!(frames.frame_speedup(&param) > 1.0);
        // Locality: parameterized bits of one connection concentrate in
        // few frames relative to the whole fabric.
        assert!(touched * 4 < frames.total_frames());
    }

    #[test]
    fn differing_frames_match_manual_count() {
        let arch = Architecture::new(4, 2, 2);
        let rrg = RoutingGraph::build(&arch);
        let mut ids: Vec<SwitchId> = Vec::new();
        for n in rrg.node_ids() {
            for e in rrg.edges(n) {
                if let Some(s) = e.switch() {
                    ids.push(s);
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        let a = Config::from_switches(vec![ids[0], ids[40]]);
        let b = Config::from_switches(vec![ids[0], ids[41]]);
        let frames = FrameModel::new(rrg.switch_count(), 8);
        // ids[40] and ids[41] differ; same or adjacent frame.
        let d = frames.frames_differing(&a, &b);
        assert!((1..=2).contains(&d), "differing frames {d}");
        assert_eq!(frames.frames_differing(&a, &a), 0);
    }
}
