//! End-to-end benchmark of the multi-mode flow.
//!
//! Three workloads exercise the system the way its users do — the paper's
//! relaxed-width DCS jobs and the fixed-width pair flow through the
//! in-process batch engine, and a warm `mmflow serve` daemon under an
//! open-loop request mix — and a separate traced run re-executes the same
//! inputs through the public calls of every layer crate to break the
//! time down per layer. See `perfbench/README.md` for the metric map.

pub mod batch;
pub mod cpu;
pub mod report;
pub mod serve;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workload;
