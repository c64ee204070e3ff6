//! # mm-engine — parallel batch execution with stage caching
//!
//! The paper's flow solves one multi-mode problem at a time; real
//! evaluation workloads (the Fig. 5–7 sweeps, design-space exploration,
//! CI suites) run dozens to thousands of independent problems. This
//! crate turns the flow into a batch system:
//!
//! * **[`Job`]** — one multi-mode problem + flow kind + options; batches
//!   come from JSON spec files, directories of BLIF mode groups, or the
//!   generated suites ([`load_spec`]); [`FlowOverrides`] reads the flow
//!   options a spec, a serve request or a command line may override.
//! * **[`Engine`]** — fans jobs out across a thread pool;
//!   results stream in job order and are byte-identical to a sequential
//!   run under the same seeds.
//! * **Stage cache** — a content-addressed on-disk store ([`StageCache`])
//!   keyed by SHA-256 of (mode BLIFs, architecture, options, stage), so
//!   re-runs and shared sub-stages (same mode group + placement seed)
//!   are loaded instead of recomputed. Corrupted entries degrade to
//!   recomputation, never to wrong results.
//!
//! # Example
//!
//! ```no_run
//! use mm_engine::{load_spec, Engine, EngineOptions};
//! use mm_flow::FlowOptions;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let batch = load_spec("suite:regexp", &FlowOptions::default(), 4)?;
//! let engine = Engine::new(EngineOptions {
//!     threads: 0, // one per CPU
//!     cache_dir: Some(".mmcache".into()),
//!     ..Default::default()
//! })?;
//! let report = engine.run_streamed(batch.jobs, |r| println!("{}", r.to_json_line()));
//! eprintln!("{}", report.summary_json());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
pub mod faultpoint;
pub mod hash;
mod job;
pub mod json;
pub mod protocol;

pub use cache::{CacheStats, GcSummary, StageCache};
pub use engine::{BatchReport, Engine, EngineOptions, EngineStats};
pub use job::{
    load_spec, multi_placement_from, placements_from, placements_value, read_blif, suite_jobs_n,
    BatchSpec, DcsSummary, FlowKind, FlowOverrides, Job, JobCacheInfo, JobError, JobOutcome,
    JobResult, MdrSummary, SpecSource,
};

// Everything crossing a worker-thread boundary must be Send + Sync.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Job>();
    assert_send_sync::<JobResult>();
    assert_send_sync::<Engine>();
    assert_send_sync::<StageCache>();
};
