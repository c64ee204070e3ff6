//! The multi-mode tool flow — the paper's primary contribution.
//!
//! "In this paper we present a new, fully automated flow that exploits
//! similarities between the modes and uses Dynamic Circuit Specialization
//! to reduce reconfiguration time."
//!
//! The flow (paper Fig. 2b) merges per-mode LUT circuits into one
//! [`TunableCircuit`] via combined placement (`mm-place`), routes it with
//! a mode-aware connection router (`mm-route`) and derives a parameterized
//! configuration (`mm-bitstream`) in which only a small number of routing
//! bits depend on the mode.
//!
//! * [`MultiModeInput`] — the validated per-mode circuits.
//! * [`MdrFlow`] — the Modular Dynamic Reconfiguration baseline.
//! * [`DcsFlow`] — the paper's flow (wire-length or edge-matching
//!   combined placement).
//! * [`run_combined_n`] — the full experimental comparison on a shared
//!   fabric for **any mode count**, producing the measurements behind
//!   Figures 5–7; [`run_pair`] is its historical N = 2-era wrapper
//!   (byte-identical output by construction). Both execute
//!   [`stage::combined_plan`], which runs the MDR and DCS summary stages
//!   of the plain flows side by side and folds their results.
//!
//! # Example
//!
//! ```no_run
//! use mm_flow::{DcsFlow, FlowOptions, MultiModeInput};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let modes = mm_gen::regexp_suite(4);
//! let input = MultiModeInput::new(vec![modes[0].clone(), modes[1].clone()])?;
//! let result = DcsFlow::new(FlowOptions::default()).run(&input)?;
//! println!(
//!     "parameterized routing bits: {} (of {})",
//!     result.parameterized_routing_bits(),
//!     result.model.routing_bits
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod experiment;
mod flow;
pub mod pool;
pub mod report;
pub mod stage;
mod tunable;

pub use error::FlowError;
pub use experiment::{run_combined_n, run_pair, CombinedMetrics, PairMetrics};
pub use flow::{DcsFlow, DcsResult, FlowOptions, MdrFlow, MdrResult, MultiModeInput, WidthChoice};
pub use report::Stats;
pub use stage::{DcsSummary, MdrSummary};
pub use tunable::{TunableCircuit, TunableConnection, TunableLutBits, TunableSite, TunableStats};

// The batch engine fans jobs out across threads; every type that crosses
// a job boundary must be `Send + Sync`. Assert it at compile time so a
// future `Rc`/`RefCell` regression fails here, with a readable error,
// rather than deep inside the engine.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MultiModeInput>();
    assert_send_sync::<FlowOptions>();
    assert_send_sync::<DcsFlow>();
    assert_send_sync::<MdrFlow>();
    assert_send_sync::<DcsResult>();
    assert_send_sync::<MdrResult>();
    assert_send_sync::<CombinedMetrics>();
    assert_send_sync::<TunableCircuit>();
    assert_send_sync::<FlowError>();
    assert_send_sync::<stage::Artifact>();
    assert_send_sync::<stage::StagePlan>();
    assert_send_sync::<stage::StageTiming>();
};
