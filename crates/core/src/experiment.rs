//! The paper's experiment driver (§IV): for each multi-mode circuit, run
//! MDR and both DCS variants on the *same* fabric and collect the metrics
//! behind Table I and Figures 5–7.
//!
//! The comparison is defined for **any mode count** N ≥ 1, not just the
//! paper's pairs: every stage iterates the modes of the input, the MDR
//! leg anneals and routes one single-mode implementation per mode, and
//! the diff cost averages over all ordered mode pairs. The historical
//! `*_pair` names survive as thin wrappers around the N-ary entry points.
//!
//! Fabric sizing follows the paper per implementation: the array is sized
//! for the biggest mode (+20% area, shared by all flows — the
//! reconfigurable region is one physical resource), while each flow's
//! channel width is its own minimum +20% (MDR's width is the maximum over
//! its modes). Reconfiguration costs are therefore measured on the fabric
//! each tool flow would actually provision, exactly as a per-flow VPR run
//! would report them.
//!
//! There is no orchestration here: [`run_combined_n`] compiles the
//! comparison to the [`crate::stage::combined_plan`] DAG and executes it
//! uncached. Its three legs are the stages plain `mdr`, `dcs-edge` and
//! `dcs` jobs run ([`crate::MdrFlow`] and [`crate::DcsFlow`] on their
//! placements), and the root only folds their summaries into
//! [`CombinedMetrics`]. With [`crate::FlowOptions::intra_parallelism`]
//! `== 1` everything runs serially and the results are byte-identical.
//! [`run_pair`] (N = 2 callers) delegates to the same plan, so its output
//! is byte-identical by construction — and pinned by the parity property
//! tests.

use crate::{FlowError, FlowOptions, MultiModeInput};
use mm_bitstream::{speedup, RewriteCost};
use mm_netlist::LutCircuit;

/// All per-problem measurements used by the figures, for any mode count.
///
/// The `*_pair` flows produce the same struct (they are N = 2 instances
/// of the combined comparison); the historical [`PairMetrics`] name is an
/// alias.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedMetrics {
    /// Human-readable id, e.g. `regexp0+regexp3`.
    pub name: String,
    /// Array side length (shared region).
    pub grid: usize,
    /// MDR channel width (max over modes, +20%).
    pub width_mdr: usize,
    /// Channel width of the edge-matched tunable circuit (+20%).
    pub width_edge: usize,
    /// Channel width of the wire-length tunable circuit (+20%).
    pub width_wirelength: usize,
    /// Reconfiguration cost of MDR (full region).
    pub mdr: RewriteCost,
    /// Diff-based rewrite (all LUT bits + differing routing cells),
    /// averaged over ordered mode pairs.
    pub diff: RewriteCost,
    /// DCS with edge-matching combined placement.
    pub dcs_edge: RewriteCost,
    /// DCS with wire-length combined placement.
    pub dcs_wirelength: RewriteCost,
    /// Mean wires per active mode under MDR.
    pub wires_mdr: f64,
    /// Mean wires per active mode under DCS edge matching.
    pub wires_edge: f64,
    /// Mean wires per active mode under DCS wire-length.
    pub wires_wirelength: f64,
    /// Tunable-circuit statistics (wire-length variant).
    pub tunable_stats: crate::TunableStats,
    /// Logic blocks of each mode (area bookkeeping).
    pub mode_luts: Vec<usize>,
}

/// Historical name of [`CombinedMetrics`], kept for API stability.
pub type PairMetrics = CombinedMetrics;

impl CombinedMetrics {
    /// Fig. 5: reconfiguration speed-up of DCS (edge matching) over MDR.
    #[must_use]
    pub fn speedup_edge(&self) -> f64 {
        speedup(&self.mdr, &self.dcs_edge)
    }

    /// Fig. 5: reconfiguration speed-up of DCS (wire length) over MDR.
    #[must_use]
    pub fn speedup_wirelength(&self) -> f64 {
        speedup(&self.mdr, &self.dcs_wirelength)
    }

    /// Fig. 7: per-mode wire usage of DCS edge matching relative to MDR.
    #[must_use]
    pub fn wire_ratio_edge(&self) -> f64 {
        self.wires_edge / self.wires_mdr
    }

    /// Fig. 7: per-mode wire usage of DCS wire-length relative to MDR.
    #[must_use]
    pub fn wire_ratio_wirelength(&self) -> f64 {
        self.wires_wirelength / self.wires_mdr
    }

    /// §IV-C area: the multi-mode region (largest mode, +20%) relative to
    /// implementing all modes statically side by side.
    #[must_use]
    pub fn area_vs_static(&self) -> f64 {
        let max = *self.mode_luts.iter().max().expect("at least one mode") as f64;
        let sum: usize = self.mode_luts.iter().sum();
        max / sum as f64
    }
}

/// Runs the full comparison for one N-mode problem, straight from the
/// mode circuits: input validation, then a compile-and-execute of the
/// [`crate::stage::combined_plan`] stage graph (three annealing legs,
/// the summary stage routed on each, and the fold that joins them).
///
/// This is the N-ary primary entry point; [`run_pair`] delegates here,
/// so a 2-element slice produces output byte-identical to the historical
/// pair flow — and both are byte-identical to the pre-stage-graph
/// hand-wired drivers (pinned by the engine's golden-bytes suite).
///
/// # Errors
///
/// Fails on invalid inputs or if any flow leg cannot place or route.
pub fn run_combined_n(
    circuits: &[LutCircuit],
    options: &FlowOptions,
    name: impl Into<String>,
) -> Result<CombinedMetrics, FlowError> {
    let input = MultiModeInput::new(circuits.to_vec())?;
    run_pair(&input, options, name)
}

/// Runs the full comparison for one multi-mode circuit (any mode count —
/// the name is historical): compiles the combined stage graph and
/// executes it uncached.
///
/// # Errors
///
/// Fails if any flow cannot place or route.
pub fn run_pair(
    input: &MultiModeInput,
    options: &FlowOptions,
    name: impl Into<String>,
) -> Result<CombinedMetrics, FlowError> {
    let plan = crate::stage::combined_plan(input.clone(), *options);
    let run = plan.execute(&crate::stage::NoHooks, options.intra_parallelism);
    match run.artifact? {
        crate::stage::Artifact::Combined(mut metrics) => {
            metrics.name = name.into();
            Ok(metrics)
        }
        other => Err(FlowError::Internal(format!(
            "combined plan resolved to a {:?} artifact",
            other.kind()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_netlist::{LutCircuit, TruthTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
                .add_lut(format!("n{j}"), ins, tt, rng.gen_bool(0.15))
                .unwrap();
            drivers.push(id);
        }
        for t in 0..3 {
            let d = drivers[drivers.len() - 1 - t];
            c.add_output(format!("o{t}"), d).unwrap();
        }
        c
    }

    #[test]
    fn pair_experiment_produces_consistent_metrics() {
        let input = MultiModeInput::new(vec![
            random_circuit("m0", 6, 18, 31),
            random_circuit("m1", 6, 20, 32),
        ])
        .unwrap();
        let metrics = run_pair(&input, &FlowOptions::default(), "toy").unwrap();

        // Fig. 5 structure: MDR ≥ Diff ≥ DCS in routing bits is the
        // expected ordering on typical circuits; at minimum DCS < MDR.
        assert!(metrics.speedup_wirelength() > 1.0);
        assert!(metrics.speedup_edge() > 1.0);
        assert!(metrics.diff.routing_bits < metrics.mdr.routing_bits);
        // LUT bits identical in every scenario (always rewritten).
        assert_eq!(metrics.mdr.lut_bits, metrics.dcs_edge.lut_bits);
        assert_eq!(metrics.mdr.lut_bits, metrics.diff.lut_bits);
        // Wire accounting present and plausible.
        assert!(metrics.wires_mdr > 0.0);
        assert!(metrics.wire_ratio_wirelength() > 0.5);
        // Two similar-size modes: region ≈ half the static area.
        let area = metrics.area_vs_static();
        assert!(area > 0.4 && area < 0.7, "area ratio {area}");
    }

    #[test]
    fn pair_experiment_respects_fixed_width() {
        let input = MultiModeInput::new(vec![
            random_circuit("m0", 5, 12, 41),
            random_circuit("m1", 5, 12, 42),
        ])
        .unwrap();
        let options = FlowOptions::default().with_fixed_width(14);
        let metrics = run_pair(&input, &options, "fixed").unwrap();
        assert_eq!(metrics.width_mdr, 14);
        assert_eq!(metrics.width_edge, 14);
        assert_eq!(metrics.width_wirelength, 14);
    }

    #[test]
    fn parallel_pair_is_byte_identical_to_serial() {
        let input = MultiModeInput::new(vec![
            random_circuit("m0", 5, 14, 51),
            random_circuit("m1", 5, 15, 52),
        ])
        .unwrap();
        let serial_options = FlowOptions {
            intra_parallelism: 1,
            ..FlowOptions::default()
        };
        let parallel_options = FlowOptions {
            intra_parallelism: 0,
            ..FlowOptions::default()
        };
        let serial = run_pair(&input, &serial_options, "p").unwrap();
        let parallel = run_pair(&input, &parallel_options, "p").unwrap();
        assert_eq!(
            serial, parallel,
            "intra-job parallelism must not change results"
        );
    }

    #[test]
    fn combined_n_equals_pair_wrapper_for_two_modes() {
        let circuits = vec![
            random_circuit("m0", 5, 12, 91),
            random_circuit("m1", 5, 13, 92),
        ];
        let input = MultiModeInput::new(circuits.clone()).unwrap();
        let options = FlowOptions::default().with_fixed_width(14);
        let pair = run_pair(&input, &options, "n2").unwrap();
        let combined = run_combined_n(&circuits, &options, "n2").unwrap();
        assert_eq!(pair, combined, "run_pair is a thin run_combined_n wrapper");
    }

    #[test]
    fn three_mode_combined_comparison_runs() {
        let circuits = vec![
            random_circuit("m0", 5, 10, 101),
            random_circuit("m1", 5, 11, 102),
            random_circuit("m2", 5, 12, 103),
        ];
        let options = FlowOptions::default().with_fixed_width(14);
        let metrics = run_combined_n(&circuits, &options, "n3").unwrap();
        assert_eq!(metrics.mode_luts.len(), 3);
        assert_eq!(metrics.tunable_stats.modes, 3);
        assert!(metrics.wires_mdr > 0.0);
        assert!(metrics.mdr.routing_bits > 0);
        // The diff cost averages over the 6 ordered mode pairs and must
        // stay below rewriting the whole region.
        assert!(metrics.diff.routing_bits < metrics.mdr.routing_bits);
        // Three similar-size modes: region ≈ a third of the static area.
        let area = metrics.area_vs_static();
        assert!(area > 0.25 && area < 0.55, "area ratio {area}");
    }
}
