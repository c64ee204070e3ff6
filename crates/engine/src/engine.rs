//! The batch engine: a generic stage-plan executor with fan-out,
//! caching, streaming and summary.
//!
//! # Execution model
//!
//! [`Engine::run_streamed`] fans the jobs of a batch out across the
//! thread pool ([`mm_flow::pool`]) and emits every [`JobResult`] —
//! in job order, through a reorder buffer — as soon as it and all its
//! predecessors are done. Each job is independent and seeded, so:
//!
//! * with `threads == 1` the batch runs strictly sequentially;
//! * with any thread count the emitted result records are **byte
//!   identical** to the sequential run (verified by the integration
//!   tests — this is the engine's determinism contract).
//!
//! Each job [compiles](Job::compile) to a typed
//! [`StagePlan`](mm_flow::stage::StagePlan) — annealing legs feeding
//! summary stages, joined by a combine root for `pair` — and runs
//! through the plan executor, which schedules ready nodes onto the pool
//! (within the job's intra-parallelism budget) and records per-node
//! wall clock and cache outcome. There is no per-flavor execution code
//! here: `dcs`, `mdr` and `pair`/`combined` differ only in the plan
//! they compile to.
//!
//! # Stage caching
//!
//! With a cache configured, the engine's [`PlanHooks`] key every node by
//! SHA-256 over its structural fingerprint — stage name, stage params,
//! the canonical input BLIFs and the fingerprints of its dependencies,
//! composed recursively. Two namespaces fall out of the artifact kind:
//!
//! * `result` — summaries and combine roots. A root hit skips the whole
//!   plan; a hit on a `pair` job's leg summary skips that leg's
//!   placement and routing.
//! * `placement` — the expensive annealing legs. A hit skips annealing
//!   and re-runs only routing/extraction. Placement fingerprints
//!   exclude router options, so jobs differing only in routing
//!   configuration share annealing work.
//!
//! Because the placement and summary nodes of a `pair` job carry **the
//! same** fingerprints as plain `mdr`/`dcs-edge`/`dcs` jobs on the same
//! mode list (labels are display only), placements and route results
//! flow freely between combined jobs and plain jobs in either direction
//! — sharing is structural, not special-cased. Failures are never
//! cached.

use crate::cache::{CacheStats, StageCache};
use crate::hash::Sha256;
use crate::job::{
    multi_placement_from, placements_from, placements_value, Job, JobCacheInfo, JobError,
    JobOutcome, JobResult,
};
use crate::json::ObjBuilder;
use mm_flow::pool;
use mm_flow::stage::{
    Artifact, ArtifactKind, CacheOutcome, Lookup, PlanHooks, PlanNode, StageTiming,
};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Stage-cache root; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// In-memory result memo capacity in entries (`0` disables it). The
    /// memo keeps the most recent `result`-stage values keyed by the
    /// same content-addressed key as the disk cache, so a long-running
    /// service re-serving identical legs skips the file read *and* the
    /// JSON text parse on every warm hit. Purely an acceleration layer:
    /// records are byte-identical with the memo on or off.
    pub result_memo: usize,
}

/// Aggregated execution counters of one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs executed.
    pub jobs: usize,
    /// Jobs that produced a result.
    pub ok: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Jobs whose final result came from the cache.
    pub results_from_cache: usize,
    /// Jobs whose placement stage came from the cache.
    pub placements_from_cache: usize,
    /// Flow stages actually executed across the batch (0 on a fully warm
    /// cache — the "zero recomputation" acceptance check).
    pub stages_recomputed: usize,
    /// Plan nodes served from the cache across the batch — placements
    /// *and* summary roots (the node-level dual of `stages_recomputed`).
    pub stages_from_cache: usize,
    /// Wall clock summed over every resolved plan node in the batch —
    /// the stage-level serial estimate (cache lookups included).
    pub stage_time: Duration,
    /// On-disk cache entries that failed validation during the batch and
    /// were quarantined (then transparently recomputed). Nonzero means
    /// the store was corrupted — and that the corruption never reached a
    /// record.
    pub quarantined: usize,
}

impl EngineStats {
    /// Aggregates the counters from finished results — every number in
    /// the summary is derived from the per-job [`JobCacheInfo`] records,
    /// so batch-level and per-job accounting can never disagree.
    /// (`quarantined` is store-level, not per-job: the caller fills it
    /// from the batch's [`CacheStats`] delta.)
    #[must_use]
    pub fn from_results(results: &[JobResult]) -> Self {
        let ok = results.iter().filter(|r| r.outcome.is_ok()).count();
        let stage_timings = results.iter().flat_map(|r| &r.stages);
        Self {
            jobs: results.len(),
            ok,
            failed: results.len() - ok,
            results_from_cache: results.iter().filter(|r| r.cache.result_hit).count(),
            placements_from_cache: results.iter().filter(|r| r.cache.placement_hit).count(),
            stages_recomputed: results.iter().map(|r| r.cache.stages_recomputed).sum(),
            stages_from_cache: stage_timings
                .clone()
                .filter(|s| s.cache == CacheOutcome::Hit)
                .count(),
            stage_time: stage_timings.map(|s| s.duration).sum(),
            quarantined: 0,
        }
    }
}

/// The outcome of one batch.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job results, in job order.
    pub results: Vec<JobResult>,
    /// Aggregated counters.
    pub stats: EngineStats,
    /// Low-level cache counters (zeroes when caching is disabled).
    pub cache: CacheStats,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
}

impl BatchReport {
    /// Sum of per-job execution times — what a strictly serial run would
    /// have cost (directly comparable to `wall` for the parallel
    /// speed-up).
    #[must_use]
    pub fn serial_estimate(&self) -> Duration {
        self.results.iter().map(|r| r.duration).sum()
    }

    /// The aggregated summary as one JSON line (this *does* contain
    /// timings and cache counters, unlike the per-job records).
    #[must_use]
    pub fn summary_json(&self) -> String {
        self.summary_value().to_json()
    }

    /// The summary as a JSON value — what the serve protocol embeds in
    /// its trailer frame.
    #[must_use]
    pub fn summary_value(&self) -> crate::json::Value {
        let serial = self.serial_estimate();
        let speedup = if self.wall.as_secs_f64() > 0.0 {
            serial.as_secs_f64() / self.wall.as_secs_f64()
        } else {
            1.0
        };
        ObjBuilder::new()
            .field("jobs", self.stats.jobs)
            .field("ok", self.stats.ok)
            .field("failed", self.stats.failed)
            .field("threads", self.threads)
            .field("wall_ms", self.wall.as_millis() as u64)
            .field("serial_estimate_ms", serial.as_millis() as u64)
            .field("stage_time_ms", self.stats.stage_time.as_millis() as u64)
            .field("parallel_speedup", (speedup * 100.0).round() / 100.0)
            .field(
                "cache",
                ObjBuilder::new()
                    .field("results_from_cache", self.stats.results_from_cache)
                    .field("placements_from_cache", self.stats.placements_from_cache)
                    .field("stages_recomputed", self.stats.stages_recomputed)
                    .field("stages_from_cache", self.stats.stages_from_cache)
                    .field("hits", self.cache.hits)
                    .field("misses", self.cache.misses)
                    .field("writes", self.cache.writes)
                    .field("quarantined", self.cache.corrupt)
                    .build(),
            )
            .build()
    }
}

/// The batch-execution engine.
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    cache: Option<StageCache>,
    memo: Option<std::sync::Mutex<ResultMemo>>,
}

/// The in-memory `result`-stage memo: a bounded map from content
/// key to the exact [`crate::json::Value`] the disk cache would
/// round-trip. Entries are what [`JobOutcome::to_value`] wrote, and
/// hits re-parse through [`JobOutcome::from_value`] with the *current*
/// job's name — the same semantics as a disk hit, minus I/O.
#[derive(Debug)]
struct ResultMemo {
    entries: std::collections::HashMap<String, crate::json::Value>,
    capacity: usize,
}

impl ResultMemo {
    fn get(&self, key: &str) -> Option<&crate::json::Value> {
        self.entries.get(key)
    }

    fn put(&mut self, key: &str, value: crate::json::Value) {
        // Generation eviction: a full memo is wiped wholesale. Warm
        // steady-state working sets far below the capacity never evict,
        // and the bound holds without per-entry recency bookkeeping.
        if self.entries.len() >= self.capacity && !self.entries.contains_key(key) {
            self.entries.clear();
        }
        self.entries.insert(key.to_string(), value);
    }
}

impl Engine {
    /// Creates an engine (opening the cache directory if configured).
    ///
    /// # Errors
    ///
    /// Fails if the cache root cannot be created.
    pub fn new(options: EngineOptions) -> std::io::Result<Self> {
        let threads = if options.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            options.threads
        };
        let cache = options.cache_dir.map(StageCache::open).transpose()?;
        let memo = (options.result_memo > 0).then(|| {
            std::sync::Mutex::new(ResultMemo {
                entries: std::collections::HashMap::new(),
                capacity: options.result_memo,
            })
        });
        Ok(Self {
            threads,
            cache,
            memo,
        })
    }

    /// The resolved worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The stage cache, if enabled.
    #[must_use]
    pub fn cache(&self) -> Option<&StageCache> {
        self.cache.as_ref()
    }

    /// Runs a batch, discarding the stream.
    #[must_use]
    pub fn run(&self, jobs: Vec<Job>) -> BatchReport {
        self.run_streamed(jobs, |_| {})
    }

    /// Runs a batch, invoking `sink` with every result **in job order**
    /// as soon as it (and all its predecessors) completed.
    #[must_use]
    pub fn run_streamed(&self, jobs: Vec<Job>, sink: impl FnMut(&JobResult) + Send) -> BatchReport {
        self.run_streamed_cancellable(jobs, None, sink)
    }

    /// [`Engine::run_streamed`] with a cancellation flag: once `cancel`
    /// is set (typically from the sink, e.g. on a broken output pipe),
    /// jobs that have not started yet fail fast with a "cancelled"
    /// error instead of running their flows. In-flight jobs finish.
    #[must_use]
    pub fn run_streamed_cancellable(
        &self,
        mut jobs: Vec<Job>,
        cancel: Option<&std::sync::atomic::AtomicBool>,
        mut sink: impl FnMut(&JobResult) + Send,
    ) -> BatchReport {
        let t0 = Instant::now();
        let n = jobs.len();
        // Budget intra-job parallelism instead of letting it multiply
        // with the job fan-out: jobs in "auto" mode (0) share the worker
        // count — a lone job may use every worker for its internal
        // stages, a full batch pins each job to one thread. Explicit
        // per-job settings are respected, and results are identical at
        // any setting (the flows' intra tasks are independently seeded).
        let concurrent = self.threads.min(n.max(1)).max(1);
        let intra_budget = (self.threads / concurrent).max(1);
        for job in &mut jobs {
            if job.options.intra_parallelism == 0 {
                job.options.intra_parallelism = intra_budget;
            }
        }
        let cache_before = self
            .cache
            .as_ref()
            .map(StageCache::stats)
            .unwrap_or_default();
        let results = pool::run_ordered(
            jobs,
            self.threads,
            |_, job| self.execute(&job, cancel),
            |_, result| sink(result),
        );
        let wall = t0.elapsed();

        let mut stats = EngineStats::from_results(&results);
        debug_assert_eq!(stats.jobs, n);
        // Per-batch counters: a long-lived engine runs many batches
        // against one cumulative StageCache.
        let cache = self
            .cache
            .as_ref()
            .map(|c| c.stats().since(cache_before))
            .unwrap_or_default();
        stats.quarantined = cache.corrupt as usize;
        BatchReport {
            results,
            stats,
            cache,
            wall,
            threads: self.threads,
        }
    }

    /// Runs one job outside any batch — the entry point a long-running
    /// service uses to multiplex jobs from many connections onto one
    /// shared worker pool while keeping the engine's cache semantics.
    ///
    /// A failing job returns a [`JobResult`] with a structured
    /// [`JobError`] outcome; this never panics on infeasible inputs.
    #[must_use]
    pub fn execute_job(&self, job: &Job) -> JobResult {
        self.execute(job, None)
    }

    fn execute(&self, job: &Job, cancel: Option<&std::sync::atomic::AtomicBool>) -> JobResult {
        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            return JobResult::failed(
                job.name.clone(),
                job.flow,
                JobError::engine("cancelled before execution"),
                Duration::ZERO,
            );
        }
        let t0 = Instant::now();
        let mut info = JobCacheInfo::default();
        let (outcome, stages) = self.run_flow(job, &mut info);
        JobResult {
            name: job.name.clone(),
            flow: job.flow,
            outcome,
            cache: info,
            duration: t0.elapsed(),
            stages,
        }
    }

    /// Compiles the job to its stage plan and runs it through the plan
    /// executor; every flow flavour takes this one path. The per-job
    /// cache provenance is derived from the executor's per-node
    /// telemetry, so batch counters and stage timings can never
    /// disagree.
    fn run_flow(
        &self,
        job: &Job,
        info: &mut JobCacheInfo,
    ) -> (Result<JobOutcome, JobError>, Vec<StageTiming>) {
        let plan = match job.compile() {
            Ok(plan) => plan,
            Err(e) => return (Err(JobError::from_flow(&e)), Vec::new()),
        };
        let hooks = EngineHooks {
            cache: self.cache.as_ref(),
            memo: self.memo.as_ref(),
            job,
        };
        let run = plan.execute(&hooks, job.options.intra_parallelism);
        for stage in &run.stages {
            match stage.cache {
                CacheOutcome::Hit if stage.kind.is_placement() => {
                    info.placement_hit = true;
                    info.placement_hits += 1;
                }
                // A summary hit below the root (a `pair` job's leg) only
                // spares that leg; a root hit is handled below.
                CacheOutcome::Hit => {}
                CacheOutcome::Miss | CacheOutcome::Uncached => info.stages_recomputed += 1,
            }
        }
        // A root hit seals the whole plan: the executor demands nothing
        // below it, so the root is the only node it resolves.
        info.result_hit =
            matches!(run.stages.as_slice(), [root] if root.cache == CacheOutcome::Hit);
        let outcome = match run.artifact {
            Ok(Artifact::Dcs(s)) => Ok(JobOutcome::Dcs(s)),
            Ok(Artifact::Mdr(s)) => Ok(JobOutcome::Mdr(s)),
            Ok(Artifact::Combined(mut m)) => {
                // Plans are nameless (names would poison fingerprint
                // sharing); the engine restores the job's name here.
                m.name = job.name.clone();
                Ok(JobOutcome::Pair(m))
            }
            Ok(other) => Err(JobError::engine(format!(
                "plan resolved to a {:?} artifact instead of a summary",
                other.kind()
            ))),
            Err(e) => Err(JobError::from_flow(&e)),
        };
        (outcome, run.stages)
    }
}

/// The engine's cache integration with the plan executor: nodes are
/// keyed by SHA-256 over their structural fingerprint, placements and
/// summaries land in separate namespaces, and summary values are
/// additionally memoized in memory (a disk hit back-fills the memo).
struct EngineHooks<'a> {
    cache: Option<&'a StageCache>,
    memo: Option<&'a std::sync::Mutex<ResultMemo>>,
    job: &'a Job,
}

impl EngineHooks<'_> {
    /// The on-disk key of one node: the structural fingerprint, hashed
    /// (fingerprints are readable but unbounded; keys must be file
    /// names).
    fn key(node: &PlanNode) -> String {
        let mut h = Sha256::new();
        h.field(b"mm-engine-v2");
        h.field(node.fingerprint().as_bytes());
        h.finish_hex()
    }

    fn namespace(kind: ArtifactKind) -> &'static str {
        if kind.is_placement() {
            "placement"
        } else {
            "result"
        }
    }

    /// Decodes a cached value into the artifact kind the node declares;
    /// `None` (shape mismatch, wrong kind) is treated as a miss by the
    /// caller.
    fn decode(&self, kind: ArtifactKind, v: &crate::json::Value) -> Option<Artifact> {
        match kind {
            ArtifactKind::MdrPlacements => {
                placements_from(&self.job.circuits, v).map(|p| Artifact::MdrPlacements(Arc::new(p)))
            }
            ArtifactKind::CombinedPlacement => multi_placement_from(&self.job.circuits, v)
                .map(|p| Artifact::CombinedPlacement(Arc::new(p))),
            summary => {
                let artifact = match JobOutcome::from_value(v, &self.job.name)? {
                    JobOutcome::Dcs(s) => Artifact::Dcs(s),
                    JobOutcome::Mdr(s) => Artifact::Mdr(s),
                    JobOutcome::Pair(m) => Artifact::Combined(m),
                };
                (artifact.kind() == summary).then_some(artifact)
            }
        }
    }

    fn encode(&self, artifact: &Artifact) -> crate::json::Value {
        match artifact {
            Artifact::MdrPlacements(p) => placements_value(&self.job.circuits, p),
            Artifact::CombinedPlacement(p) => placements_value(&self.job.circuits, &p.modes),
            Artifact::Dcs(s) => JobOutcome::Dcs(s.clone()).to_value(),
            Artifact::Mdr(s) => JobOutcome::Mdr(s.clone()).to_value(),
            Artifact::Combined(m) => JobOutcome::Pair(m.clone()).to_value(),
        }
    }
}

impl PlanHooks for EngineHooks<'_> {
    fn lookup(&self, node: &PlanNode) -> Lookup {
        let kind = node.output_kind();
        let cacheable_in_memo = !kind.is_placement() && self.memo.is_some();
        if self.cache.is_none() && !cacheable_in_memo {
            return Lookup::Uncached;
        }
        let key = Self::key(node);
        // Fastest first: the in-memory memo (summaries only), then the
        // disk cache.
        if cacheable_in_memo {
            let memo = self.memo.expect("checked").lock().expect("memo lock");
            if let Some(artifact) = memo.get(&key).and_then(|v| self.decode(kind, v)) {
                return Lookup::Hit(artifact);
            }
        }
        if let Some(cache) = self.cache {
            if let Some(v) = cache.get(Self::namespace(kind), &key) {
                if let Some(artifact) = self.decode(kind, &v) {
                    if cacheable_in_memo {
                        if let Some(memo) = self.memo {
                            memo.lock().expect("memo lock").put(&key, v);
                        }
                    }
                    return Lookup::Hit(artifact);
                }
            }
        }
        Lookup::Miss
    }

    fn store(&self, node: &PlanNode, artifact: &Artifact) {
        let kind = node.output_kind();
        if self.cache.is_none() && (kind.is_placement() || self.memo.is_none()) {
            return;
        }
        let key = Self::key(node);
        let value = self.encode(artifact);
        if let Some(cache) = self.cache {
            cache.put(Self::namespace(kind), &key, &value);
        }
        if !kind.is_placement() {
            if let Some(memo) = self.memo {
                memo.lock().expect("memo lock").put(&key, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_resolution() {
        let e = Engine::new(EngineOptions {
            threads: 3,
            cache_dir: None,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(e.threads(), 3);
        let auto = Engine::new(EngineOptions::default()).unwrap();
        assert!(auto.threads() >= 1);
        assert!(auto.cache().is_none());
    }
}
