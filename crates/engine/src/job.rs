//! The batch job model: what to run, and what came out.
//!
//! A [`Job`] is one multi-mode problem (an ordered set of mode circuits)
//! plus the flow to run on it ([`FlowKind`]) and its [`FlowOptions`].
//! Jobs come from three sources, all handled by [`load_spec`]:
//!
//! * a JSON spec file (`{"defaults": …, "jobs": [{"modes": [...]}, …]}`
//!   — each job's `"modes"` array is the mode list, any length),
//! * a directory whose subdirectories each hold one BLIF mode group,
//! * a generated suite (`suite:regexp`, `suite:fir`, `suite:mcnc`,
//!   `suite:deeplogic`, `suite:broadcast`), optionally with a mode count
//!   per problem (`suite:regexp:3`).
//!
//! A [`JobResult`] serializes to one deterministic JSON line: the record
//! is purely semantic (no timings, no cache provenance), so a cached
//! re-run emits byte-identical lines — cache transparency is part of the
//! engine's contract. Timings and cache counters live in the summary.

use crate::json::{self, ObjBuilder, Value};
use mm_bitstream::RewriteCost;
use mm_flow::stage::{StagePlan, StageTiming};
use mm_flow::{FlowOptions, MultiModeInput, PairMetrics, TunableStats, WidthChoice};
use mm_netlist::{blif, LutCircuit};
use mm_place::{CostKind, MultiPlacement, Placement};
use std::ops::RangeInclusive;
use std::path::Path;
use std::time::Duration;

// The numeric run summaries moved into the stage module with the
// stage-graph refactor (the summarizing stages produce them); re-export
// them here so `mm_engine::{DcsSummary, MdrSummary}` stays a stable path.
pub use mm_flow::stage::{DcsSummary, MdrSummary};

/// Which flow a job runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowKind {
    /// The paper's DCS flow with the given combined-placement cost.
    Dcs(CostKind),
    /// The MDR baseline.
    Mdr,
    /// The full experimental comparison (`run_combined_n`): MDR + both
    /// DCS variants on the same fabric, for any mode count. The name is
    /// historical (the record/cache identity stays `pair` so existing
    /// streams and caches remain byte-stable); specs may spell it
    /// `pair` or `combined`.
    Pair,
}

impl FlowKind {
    /// Short stable name, used in result records and cache keys.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            FlowKind::Dcs(CostKind::WireLength) => "dcs".to_string(),
            FlowKind::Dcs(CostKind::EdgeMatching) => "dcs-edge".to_string(),
            FlowKind::Dcs(CostKind::Hybrid { .. }) => "dcs-hybrid".to_string(),
            FlowKind::Dcs(CostKind::Timing { .. }) => "dcs-timing".to_string(),
            FlowKind::Mdr => "mdr".to_string(),
            FlowKind::Pair => "pair".to_string(),
        }
    }

    /// Cache-key fingerprint (includes hybrid weights exactly).
    #[must_use]
    pub fn fingerprint(&self) -> String {
        match self {
            FlowKind::Dcs(cost) => format!("dcs({})", cost.fingerprint()),
            FlowKind::Mdr => "mdr".to_string(),
            FlowKind::Pair => "pair".to_string(),
        }
    }

    /// Parses `dcs` / `mdr` / `pair` (alias `combined`), with `dcs` cost
    /// selectors `wl` / `edge` / `hybrid:<lambda>` / `timing:<alpha>` as
    /// in the `mmflow` CLI.
    ///
    /// # Errors
    ///
    /// Fails with a description on unknown kinds, on hybrid weights
    /// that are not finite non-negative numbers — NaN and infinities
    /// would poison cost comparisons *and* the stage-cache keys their
    /// bit patterns fingerprint into — and on timing alphas outside
    /// `0..=1` (the cost is a convex wirelength/delay blend).
    pub fn parse(kind: &str, cost: Option<&str>) -> Result<Self, String> {
        let cost_kind = match cost {
            None | Some("wl") => CostKind::WireLength,
            Some("edge") => CostKind::EdgeMatching,
            Some(other) => {
                if let Some(l) = other.strip_prefix("hybrid:") {
                    let alpha: f64 = l.parse().map_err(|_| format!("bad hybrid weight '{l}'"))?;
                    // `is_sign_negative` also rejects -0.0: it is
                    // semantically identical to 0.0 but its bit pattern
                    // would fingerprint into a different cache key.
                    if !alpha.is_finite() || alpha.is_sign_negative() {
                        return Err(format!(
                            "hybrid weight '{l}' must be a finite non-negative number"
                        ));
                    }
                    CostKind::Hybrid {
                        wl_weight: 1.0,
                        edge_weight: alpha,
                    }
                } else if let Some(a) = other.strip_prefix("timing:") {
                    let alpha: f64 = a.parse().map_err(|_| format!("bad timing alpha '{a}'"))?;
                    if !alpha.is_finite() || alpha.is_sign_negative() || alpha > 1.0 {
                        return Err(format!("timing alpha '{a}' must be in 0..=1"));
                    }
                    CostKind::Timing { alpha }
                } else {
                    return Err(format!("unknown cost '{other}'"));
                }
            }
        };
        match kind {
            "dcs" => Ok(FlowKind::Dcs(cost_kind)),
            "mdr" => Ok(FlowKind::Mdr),
            // `combined` is the N-mode-era spelling; identity (records,
            // cache keys) deliberately stays `pair` either way.
            "pair" | "combined" => Ok(FlowKind::Pair),
            other => Err(format!("unknown flow '{other}' (dcs|mdr|pair|combined)")),
        }
    }
}

/// One batch job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Human-readable id, unique within a batch.
    pub name: String,
    /// The mode circuits, in mode order.
    pub circuits: Vec<LutCircuit>,
    /// Which flow to run.
    pub flow: FlowKind,
    /// Flow options (seed, width policy, efforts).
    pub options: FlowOptions,
}

impl Job {
    /// Compiles the job to its typed stage plan: a placement leg feeding
    /// the summarizing stage for [`FlowKind::Dcs`] / [`FlowKind::Mdr`],
    /// or, for [`FlowKind::Pair`], the plain `mdr`, `dcs-edge` and `dcs`
    /// plans side by side, joined by the combine stage.
    ///
    /// # Errors
    ///
    /// Fails with [`mm_flow::FlowError::Input`] when the mode circuits
    /// do not form a valid multi-mode input (plans only exist for
    /// validated inputs).
    pub fn compile(&self) -> Result<StagePlan, mm_flow::FlowError> {
        let input = MultiModeInput::new(self.circuits.clone())?;
        Ok(match self.flow {
            FlowKind::Dcs(cost) => mm_flow::stage::dcs_plan(input, self.options, cost),
            FlowKind::Mdr => mm_flow::stage::mdr_plan(input, self.options),
            FlowKind::Pair => mm_flow::stage::combined_plan(input, self.options),
        })
    }

    /// A content-addressed fingerprint: SHA-256 over the compiled plan's
    /// root fingerprint — the same structural identity the engine's
    /// stage cache keys derive from — folded to 64 bits. The job *name*
    /// is deliberately excluded, so identical legs submitted under
    /// different names (or by different clients) hash identically.
    ///
    /// Jobs whose circuits fail input validation (and therefore cannot
    /// compile to a plan) fall back to hashing the raw ingredients —
    /// flow kind, option fingerprint, canonical BLIFs — so fingerprinting
    /// never panics on a job that will merely error at execution.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::hash::Sha256::new();
        match self.compile() {
            Ok(plan) => h.field(plan.root_fingerprint().as_bytes()),
            Err(_) => {
                h.field(self.flow.fingerprint().as_bytes());
                h.field(self.options.fingerprint().as_bytes());
                for circuit in &self.circuits {
                    h.field(blif::to_blif(circuit).as_bytes());
                }
            }
        }
        let digest = h.finish();
        u64::from_le_bytes(digest[..8].try_into().expect("SHA-256 yields 32 bytes"))
    }
}

/// What a finished job produced.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// A DCS summary.
    Dcs(DcsSummary),
    /// An MDR summary.
    Mdr(MdrSummary),
    /// The full pairwise comparison metrics.
    Pair(PairMetrics),
}

/// Cache provenance of one job (reported in the summary, not in the
/// result record).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCacheInfo {
    /// The plan root came from the cache, so nothing was recomputed. A
    /// `pair` job whose leg summaries hit but whose root missed is not a
    /// result hit.
    pub result_hit: bool,
    /// At least one placement stage came from the cache.
    pub placement_hit: bool,
    /// Placement stages served from the cache (a `pair` job has three
    /// annealing legs and can hit 0–3 of them; plain jobs have one).
    /// Legs whose summary hit are never demanded, so they count here
    /// neither as hits nor as recomputed stages.
    pub placement_hits: usize,
    /// Flow stages actually executed (0 on a full hit).
    pub stages_recomputed: usize,
}

/// A structured per-job failure: which stage failed and why.
///
/// One failing job yields exactly one `"status":"error"` record in the
/// JSONL stream (and an error frame over the serve protocol) — never a
/// process abort, and never a missing record for the other jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// The stage that failed: `input`, `place`, `route`, `verify`,
    /// `engine` (scheduling/cancellation) or `timeout` (watchdog).
    pub stage: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl JobError {
    /// An input-validation failure.
    #[must_use]
    pub fn input(message: impl Into<String>) -> Self {
        Self {
            stage: "input",
            message: message.into(),
        }
    }

    /// An engine-level failure (cancellation, lost stage, …).
    #[must_use]
    pub fn engine(message: impl Into<String>) -> Self {
        Self {
            stage: "engine",
            message: message.into(),
        }
    }

    /// A deadline overrun: the scheduler's watchdog declared the job
    /// stuck and produced this record on its behalf.
    #[must_use]
    pub fn timeout(message: impl Into<String>) -> Self {
        Self {
            stage: "timeout",
            message: message.into(),
        }
    }

    /// Maps a flow error onto the stage that raised it.
    #[must_use]
    pub fn from_flow(e: &mm_flow::FlowError) -> Self {
        let stage = match e {
            mm_flow::FlowError::Input(_) => "input",
            mm_flow::FlowError::Place(_) => "place",
            mm_flow::FlowError::Unroutable { .. } | mm_flow::FlowError::UnreachableSinks { .. } => {
                "route"
            }
            mm_flow::FlowError::Internal(_) => "verify",
        };
        Self {
            stage,
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.stage, self.message)
    }
}

impl std::error::Error for JobError {}

/// One job's result.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's name.
    pub name: String,
    /// The flow that ran.
    pub flow: FlowKind,
    /// Outcome, or the structured failure of the stage that broke.
    pub outcome: Result<JobOutcome, JobError>,
    /// Cache provenance.
    pub cache: JobCacheInfo,
    /// Wall-clock execution time of this job (on whatever worker ran it).
    pub duration: Duration,
    /// Per-stage telemetry from the plan executor: name, wall clock and
    /// cache outcome of every stage node the run touched. Empty for jobs
    /// that failed before compiling to a plan. Never serialized into the
    /// default record — only [`JobResult::to_json_line_with_stages`]
    /// (the `--emit-stage-times` path) renders it.
    pub stages: Vec<StageTiming>,
}

impl JobResult {
    /// The record of a job that ended in `error` without running its
    /// plan (cancelled, timed out, panicked): no cache provenance and no
    /// stage telemetry.
    #[must_use]
    pub fn failed(name: String, flow: FlowKind, error: JobError, duration: Duration) -> Self {
        Self {
            name,
            flow,
            outcome: Err(error),
            cache: JobCacheInfo::default(),
            duration,
            stages: Vec::new(),
        }
    }

    fn record(&self) -> ObjBuilder {
        let b = ObjBuilder::new()
            .field("name", self.name.as_str())
            .field("flow", self.flow.name());
        match &self.outcome {
            Ok(outcome) => b.field("status", "ok").field("metrics", outcome.to_value()),
            Err(e) => b
                .field("status", "error")
                .field("stage", e.stage)
                .field("error", e.message.as_str()),
        }
    }

    /// The deterministic JSONL record: semantic content only, no timings
    /// or cache provenance, so records are byte-identical across serial,
    /// parallel and cached executions.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        self.record().build().to_json()
    }

    /// The default record with a trailing `stages` array appended — one
    /// `{"name", "ms", "cache"}` object per executed stage node. This is
    /// the opt-in `--emit-stage-times` rendering; timings make it
    /// non-deterministic by construction, so it never feeds caches or
    /// golden comparisons.
    #[must_use]
    pub fn to_json_line_with_stages(&self) -> String {
        let stages = Value::Arr(
            self.stages
                .iter()
                .map(|s| {
                    ObjBuilder::new()
                        .field("name", s.name.as_str())
                        .field(
                            "ms",
                            usize::try_from(s.duration.as_millis()).unwrap_or(usize::MAX),
                        )
                        .field("cache", s.cache.as_str())
                        .build()
                })
                .collect(),
        );
        self.record().field("stages", stages).build().to_json()
    }
}

// ---------------------------------------------------------------- to_value

fn cost_value(c: &RewriteCost) -> Value {
    ObjBuilder::new()
        .field("lut_bits", c.lut_bits)
        .field("routing_bits", c.routing_bits)
        .build()
}

fn cost_from(v: &Value) -> Option<RewriteCost> {
    Some(RewriteCost {
        lut_bits: v.get("lut_bits")?.as_usize()?,
        routing_bits: v.get("routing_bits")?.as_usize()?,
    })
}

fn usizes_from(v: &Value) -> Option<Vec<usize>> {
    v.as_arr()?.iter().map(Value::as_usize).collect()
}

fn f64s_from(v: &Value) -> Option<Vec<f64>> {
    v.as_arr()?.iter().map(Value::as_f64).collect()
}

fn tunable_value(t: &TunableStats) -> Value {
    ObjBuilder::new()
        .field("modes", t.modes)
        .field("tunable_luts", t.tunable_luts)
        .field("io_sites", t.io_sites)
        .field("connections", t.connections)
        .field("merged_connections", t.merged_connections)
        .build()
}

fn tunable_from(v: &Value) -> Option<TunableStats> {
    Some(TunableStats {
        modes: v.get("modes")?.as_usize()?,
        tunable_luts: v.get("tunable_luts")?.as_usize()?,
        io_sites: v.get("io_sites")?.as_usize()?,
        connections: v.get("connections")?.as_usize()?,
        merged_connections: v.get("merged_connections")?.as_usize()?,
    })
}

impl JobOutcome {
    /// Serializes for result records and the cache.
    #[must_use]
    pub fn to_value(&self) -> Value {
        match self {
            JobOutcome::Dcs(s) => {
                let mut b = ObjBuilder::new()
                    .field("kind", "dcs")
                    .field("grid", s.grid)
                    .field("channel_width", s.channel_width)
                    .field("modes", s.modes)
                    .field("param_bits", s.param_bits)
                    .field("static_on_bits", s.static_on_bits)
                    .field("dcs_cost", cost_value(&s.dcs_cost))
                    .field("mdr_cost", cost_value(&s.mdr_cost))
                    .field("speedup", mm_bitstream::speedup(&s.mdr_cost, &s.dcs_cost))
                    .field("wires", s.wires.clone());
                // Emitted only for timing-cost jobs: default records must
                // stay byte-identical to pre-timing builds.
                if let Some(cp) = &s.critical_paths {
                    b = b.field("critical_paths", cp.clone());
                }
                b.field("tunable", tunable_value(&s.tunable)).build()
            }
            JobOutcome::Mdr(s) => ObjBuilder::new()
                .field("kind", "mdr")
                .field("grid", s.grid)
                .field("channel_width", s.channel_width)
                .field("modes", s.modes)
                .field("mdr_cost", cost_value(&s.mdr_cost))
                .field("avg_diff_cost", cost_value(&s.avg_diff_cost))
                .field("wires", s.wires.clone())
                .build(),
            JobOutcome::Pair(m) => ObjBuilder::new()
                .field("kind", "pair")
                .field("grid", m.grid)
                .field("width_mdr", m.width_mdr)
                .field("width_edge", m.width_edge)
                .field("width_wirelength", m.width_wirelength)
                .field("mdr", cost_value(&m.mdr))
                .field("diff", cost_value(&m.diff))
                .field("dcs_edge", cost_value(&m.dcs_edge))
                .field("dcs_wirelength", cost_value(&m.dcs_wirelength))
                .field("speedup_edge", m.speedup_edge())
                .field("speedup_wirelength", m.speedup_wirelength())
                .field("wires_mdr", m.wires_mdr)
                .field("wires_edge", m.wires_edge)
                .field("wires_wirelength", m.wires_wirelength)
                .field("tunable", tunable_value(&m.tunable_stats))
                .field("mode_luts", m.mode_luts.clone())
                .build(),
        }
    }

    /// Deserializes a cached outcome; `name` rebuilds the pair id.
    #[must_use]
    pub fn from_value(v: &Value, name: &str) -> Option<Self> {
        match v.get("kind")?.as_str()? {
            "dcs" => Some(JobOutcome::Dcs(DcsSummary {
                grid: v.get("grid")?.as_usize()?,
                channel_width: v.get("channel_width")?.as_usize()?,
                modes: v.get("modes")?.as_usize()?,
                param_bits: v.get("param_bits")?.as_usize()?,
                static_on_bits: v.get("static_on_bits")?.as_usize()?,
                dcs_cost: cost_from(v.get("dcs_cost")?)?,
                mdr_cost: cost_from(v.get("mdr_cost")?)?,
                wires: usizes_from(v.get("wires")?)?,
                critical_paths: match v.get("critical_paths") {
                    Some(cp) => Some(f64s_from(cp)?),
                    None => None,
                },
                tunable: tunable_from(v.get("tunable")?)?,
            })),
            "mdr" => Some(JobOutcome::Mdr(MdrSummary {
                grid: v.get("grid")?.as_usize()?,
                channel_width: v.get("channel_width")?.as_usize()?,
                modes: v.get("modes")?.as_usize()?,
                mdr_cost: cost_from(v.get("mdr_cost")?)?,
                avg_diff_cost: cost_from(v.get("avg_diff_cost")?)?,
                wires: usizes_from(v.get("wires")?)?,
            })),
            "pair" => Some(JobOutcome::Pair(PairMetrics {
                name: name.to_string(),
                grid: v.get("grid")?.as_usize()?,
                width_mdr: v.get("width_mdr")?.as_usize()?,
                width_edge: v.get("width_edge")?.as_usize()?,
                width_wirelength: v.get("width_wirelength")?.as_usize()?,
                mdr: cost_from(v.get("mdr")?)?,
                diff: cost_from(v.get("diff")?)?,
                dcs_edge: cost_from(v.get("dcs_edge")?)?,
                dcs_wirelength: cost_from(v.get("dcs_wirelength")?)?,
                wires_mdr: v.get("wires_mdr")?.as_f64()?,
                wires_edge: v.get("wires_edge")?.as_f64()?,
                wires_wirelength: v.get("wires_wirelength")?.as_f64()?,
                tunable_stats: tunable_from(v.get("tunable")?)?,
                mode_luts: usizes_from(v.get("mode_luts")?)?,
            })),
            _ => None,
        }
    }
}

// --------------------------------------------------- placement serialization

/// Serializes one mode's placement, aligned with the circuit's
/// `block_ids()` order.
fn placement_value(circuit: &LutCircuit, placement: &Placement) -> Value {
    Value::Arr(
        circuit
            .block_ids()
            .map(|id| {
                let site = placement.site_of(id);
                Value::Arr(vec![
                    Value::from(usize::from(site.x)),
                    Value::from(usize::from(site.y)),
                    Value::from(usize::from(site.sub)),
                ])
            })
            .collect(),
    )
}

fn placement_from(circuit: &LutCircuit, v: &Value) -> Option<Placement> {
    let sites = v.as_arr()?;
    if sites.len() != circuit.block_count() {
        return None;
    }
    let mut p = Placement::new(circuit.block_count());
    for (id, site) in circuit.block_ids().zip(sites) {
        let parts = site.as_arr()?;
        let [x, y, sub] = parts else { return None };
        p.assign(
            id,
            mm_arch_site(x.as_usize()?, y.as_usize()?, sub.as_usize()?)?,
        );
    }
    Some(p)
}

fn mm_arch_site(x: usize, y: usize, sub: usize) -> Option<mm_arch::Site> {
    Some(mm_arch::Site::new(
        u16::try_from(x).ok()?,
        u16::try_from(y).ok()?,
        u8::try_from(sub).ok()?,
    ))
}

/// Serializes the per-mode placements of a job (DCS combined placement
/// or MDR independent placements — both are one `Placement` per mode).
#[must_use]
pub fn placements_value(circuits: &[LutCircuit], modes: &[Placement]) -> Value {
    Value::Arr(
        circuits
            .iter()
            .zip(modes)
            .map(|(c, p)| placement_value(c, p))
            .collect(),
    )
}

/// Deserializes per-mode placements; `None` on any shape mismatch (the
/// caller treats that as a cache miss).
#[must_use]
pub fn placements_from(circuits: &[LutCircuit], v: &Value) -> Option<Vec<Placement>> {
    let modes = v.as_arr()?;
    if modes.len() != circuits.len() {
        return None;
    }
    circuits
        .iter()
        .zip(modes)
        .map(|(c, pv)| placement_from(c, pv))
        .collect()
}

/// Deserializes a combined placement.
#[must_use]
pub fn multi_placement_from(circuits: &[LutCircuit], v: &Value) -> Option<MultiPlacement> {
    placements_from(circuits, v).map(|modes| MultiPlacement { modes })
}

// ------------------------------------------------------------ spec loading

/// Where a batch came from, for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecSource {
    /// A JSON spec file.
    File,
    /// A directory of BLIF mode groups.
    Directory,
    /// A generated suite.
    Suite,
}

/// A parsed batch: jobs plus provenance.
#[derive(Debug)]
pub struct BatchSpec {
    /// The jobs, in declaration order.
    pub jobs: Vec<Job>,
    /// Where they came from.
    pub source: SpecSource,
}

/// Loads a batch from `spec`:
///
/// * `suite:<regexp|fir|mcnc|deeplogic|broadcast>[:<modes>]` — the
///   paper's multi-mode
///   combinations of a generated suite; the optional `:<modes>` suffix
///   selects the mode count per problem (default 2 — the paper's
///   pairings);
/// * a directory — every subdirectory holding `.blif` files becomes one
///   job (modes in filename order, any count);
/// * anything else — a JSON spec file (see the module docs; each job's
///   `"modes"` array carries the mode list, any length).
///
/// `base` supplies the flow options jobs inherit; spec files can set
/// the [`FlowOverrides`], `flow` and `cost` per job or in `"defaults"`
/// (whose overrides are checked once, before any job). `k` is
/// the LUT width used to parse directory BLIFs and to map generated
/// suites (spec files may override it with their own `"k"`).
///
/// # Errors
///
/// Fails with a description of the first malformed entry, and on a `k`
/// the spec cannot use (2..=6 to map a suite, 1..=`MAX_LUT_INPUTS` to
/// parse BLIF files) before any circuit is generated or parsed.
pub fn load_spec(spec: &str, base: &FlowOptions, k: usize) -> Result<BatchSpec, String> {
    load_spec_with_modes(spec, base, k, None)
}

/// [`load_spec`] with an external mode-count override for generated
/// suites, which [`crate::protocol::BatchRequest::jobs`] resolves a
/// request's `modes` (`--modes N`) through. An explicit
/// `suite:<name>:<modes>` suffix wins over `modes`; a `modes` override
/// on a non-suite spec is an error (files and directories already carry
/// their own mode lists).
///
/// # Errors
///
/// As [`load_spec`]; also fails on a `modes` override of a non-suite
/// spec.
pub(crate) fn load_spec_with_modes(
    spec: &str,
    base: &FlowOptions,
    k: usize,
    modes: Option<usize>,
) -> Result<BatchSpec, String> {
    if let Some(suite) = spec.strip_prefix("suite:") {
        let (name, inline) = match suite.split_once(':') {
            Some((name, m)) => {
                let m: usize = m
                    .parse()
                    .map_err(|_| format!("bad suite mode count '{m}' in '{spec}'"))?;
                (name, Some(m))
            }
            None => (suite, None),
        };
        return Ok(BatchSpec {
            jobs: suite_jobs_n(name, base, k, inline.or(modes).unwrap_or(2))?,
            source: SpecSource::Suite,
        });
    }
    if modes.is_some() {
        return Err(format!(
            "a mode count applies only to generated suites (suite:<name>); \
             '{spec}' carries its own mode lists"
        ));
    }
    let path = Path::new(spec);
    if path.is_dir() {
        check_k(k, BLIF_K, "BLIF mode files")?;
        return Ok(BatchSpec {
            jobs: directory_jobs(path, base, k)?,
            source: SpecSource::Directory,
        });
    }
    let text = read_input_file(path)?;
    Ok(BatchSpec {
        jobs: spec_file_jobs(&text, path, base, k)?,
        source: SpecSource::File,
    })
}

/// The largest spec or BLIF file read: far above any real one, and a
/// bound on what one path can make the process allocate.
const MAX_INPUT_FILE: u64 = 16 << 20;

/// Reads a spec or BLIF file as text. Only a regular file of at most
/// [`MAX_INPUT_FILE`] bytes is read, so a FIFO, a device such as
/// `/dev/zero` or a huge file is an error naming the path instead of a
/// read that blocks or exhausts memory; a file that grows past the cap
/// while it is read is caught too.
fn read_input_file(path: &Path) -> Result<String, String> {
    use std::io::Read;
    let named = |what: String| format!("{}: {what}", path.display());
    let too_large = || named(format!("larger than the {MAX_INPUT_FILE}-byte cap"));
    // Checked before opening: opening a FIFO blocks until a writer
    // appears.
    let meta = std::fs::metadata(path).map_err(|e| named(e.to_string()))?;
    if !meta.is_file() {
        return Err(named("not a regular file".to_string()));
    }
    if meta.len() > MAX_INPUT_FILE {
        return Err(too_large());
    }
    let mut text = String::new();
    std::fs::File::open(path)
        .and_then(|file| file.take(MAX_INPUT_FILE + 1).read_to_string(&mut text))
        .map_err(|e| named(e.to_string()))?;
    if text.len() as u64 > MAX_INPUT_FILE {
        return Err(too_large());
    }
    Ok(text)
}

/// Reads and parses one BLIF mode file at LUT width `k`. Only a regular
/// file of at most 16 MiB is read.
///
/// # Errors
///
/// Fails on a `k` outside 1..=`MAX_LUT_INPUTS`, and, naming the path,
/// when the file is not a regular file, is over the cap, or cannot be
/// read or parsed.
pub fn read_blif(path: &Path, k: usize) -> Result<LutCircuit, String> {
    check_k(k, BLIF_K, "BLIF mode files")?;
    blif::from_blif(&read_input_file(path)?, k).map_err(|e| format!("{}: {e}", path.display()))
}

/// The LUT widths generated suites can be mapped to
/// (`mm_synth::MapOptions::for_k` panics outside them).
const SUITE_K: RangeInclusive<usize> = 2..=6;

/// The LUT widths BLIF mode files can be parsed at
/// ([`LutCircuit::new`] panics outside them).
const BLIF_K: RangeInclusive<usize> = 1..=mm_netlist::MAX_LUT_INPUTS;

/// Fails unless `k` lies in `range`, the widths `what` accepts.
fn check_k(k: usize, range: RangeInclusive<usize>, what: &str) -> Result<(), String> {
    if range.contains(&k) {
        Ok(())
    } else {
        Err(format!(
            "k must be in {}..={} for {what}, got {k}",
            range.start(),
            range.end()
        ))
    }
}

/// The `modes`-ary combinations of one generated suite as jobs (named
/// `<a>+<b>+…`), mapped to `k`-LUTs, with `base` options and the DCS
/// wire-length flow; `modes == 2` gives the paper's pairings.
///
/// RegExp and MCNC enumerate every ascending combination of `modes`
/// circuits out of the five; FIR interleaves the low-pass and high-pass
/// families ([`mm_gen::Suite::tuples`]).
///
/// # Errors
///
/// Fails on unknown suite names, on mode counts the suite cannot
/// supply, and (before generating anything) on a `k` outside 2..=6.
pub fn suite_jobs_n(
    suite: &str,
    base: &FlowOptions,
    k: usize,
    modes: usize,
) -> Result<Vec<Job>, String> {
    if modes < 2 {
        return Err(format!(
            "suite '{suite}' needs at least 2 modes per problem, got {modes}"
        ));
    }
    check_k(k, SUITE_K, "generated suites")?;
    let generated = mm_gen::Suite::from_name(suite)?;
    let (circuits, tuples) = (generated.circuits(k), generated.tuples(modes));
    if tuples.is_empty() || tuples[0].len() != modes {
        return Err(format!(
            "suite '{suite}' has only {} circuits — cannot form {modes}-mode problems",
            circuits.len()
        ));
    }
    Ok(tuples
        .into_iter()
        .map(|tuple| Job {
            name: tuple
                .iter()
                .map(|&i| circuits[i].name().to_string())
                .collect::<Vec<_>>()
                .join("+"),
            circuits: tuple.iter().map(|&i| circuits[i].clone()).collect(),
            flow: FlowKind::Dcs(CostKind::WireLength),
            options: *base,
        })
        .collect())
}

fn directory_jobs(dir: &Path, base: &FlowOptions, k: usize) -> Result<Vec<Job>, String> {
    let mut groups: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.is_dir())
        .collect();
    groups.sort();
    if groups.is_empty() {
        return Err(format!(
            "{}: no subdirectories (each job is one directory of mode .blif files)",
            dir.display()
        ));
    }
    let mut jobs = Vec::new();
    for group in groups {
        let mut modes: Vec<std::path::PathBuf> = std::fs::read_dir(&group)
            .map_err(|e| format!("{}: {e}", group.display()))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "blif"))
            .collect();
        modes.sort();
        if modes.is_empty() {
            continue;
        }
        let name = group
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "job".to_string());
        jobs.push(Job {
            name,
            circuits: read_modes(&modes, k)?,
            flow: FlowKind::Dcs(CostKind::WireLength),
            options: *base,
        });
    }
    if jobs.is_empty() {
        return Err(format!("{}: no BLIF mode groups found", dir.display()));
    }
    Ok(jobs)
}

fn read_modes(paths: &[std::path::PathBuf], k: usize) -> Result<Vec<LutCircuit>, String> {
    paths.iter().map(|p| read_blif(p, k)).collect()
}

fn spec_file_jobs(
    text: &str,
    path: &Path,
    base: &FlowOptions,
    default_k: usize,
) -> Result<Vec<Job>, String> {
    let doc = json::parse(text).map_err(|e| format!("{}: {e}", path.display()))?;
    let k = doc
        .get("k")
        .map(|v| v.as_usize().ok_or("\"k\" must be a non-negative integer"))
        .transpose()?
        .unwrap_or(default_k);
    check_k(k, BLIF_K, "BLIF mode files").map_err(|e| format!("{}: {e}", path.display()))?;
    // The defaults are checked once, before any job, even where every
    // job overrides them.
    let defaults = doc.get("defaults");
    let base = defaults
        .map_or(Ok(FlowOverrides::default()), FlowOverrides::from_json)
        .map_err(|e| format!("{} defaults: {e}", path.display()))?
        .apply(base);
    let jobs_value = doc
        .get("jobs")
        .and_then(Value::as_arr)
        .ok_or("spec needs a \"jobs\" array")?;
    let spec_dir = path.parent().unwrap_or(Path::new("."));

    let mut jobs = Vec::with_capacity(jobs_value.len());
    for (index, jv) in jobs_value.iter().enumerate() {
        let job = parse_job(jv, index, defaults, spec_dir, &base, k)
            .map_err(|e| format!("{} job {index}: {e}", path.display()))?;
        jobs.push(job);
    }
    if jobs.is_empty() {
        return Err(format!("{}: empty \"jobs\" array", path.display()));
    }
    Ok(jobs)
}

fn lookup<'v>(jv: &'v Value, defaults: Option<&'v Value>, key: &str) -> Option<&'v Value> {
    jv.get(key).or_else(|| defaults.and_then(|d| d.get(key)))
}

/// The widest channel read from input: about ten times the default
/// `max_width` of 96. A job's routing graphs, and its memory, grow
/// linearly with the width, so an unbounded width could exhaust the
/// daemon's memory (and above 65,535 tracks the routing graph's 16-bit
/// track index would wrap).
pub(crate) const MAX_CHANNEL_WIDTH: usize = 1024;

/// Checks a channel width read from input, naming its `field`. A fabric
/// needs at least one track, so 0 is an error here, at the input
/// boundary, instead of a panic inside the flow.
fn channel_width(field: &str, width: usize) -> Result<usize, String> {
    if width == 0 {
        return Err(format!("{field} must be a positive channel width, got 0"));
    }
    if width > MAX_CHANNEL_WIDTH {
        return Err(format!(
            "{field} must be a channel width of at most {MAX_CHANNEL_WIDTH}, got {width}"
        ));
    }
    Ok(width)
}

/// Checks a router iteration cap read from input. At 0 no route runs a
/// single iteration, and the job would fail later, in the route stage,
/// as unroutable.
fn iteration_cap(field: &str, iterations: usize) -> Result<usize, String> {
    if iterations == 0 {
        return Err(format!("{field} must be a positive iteration cap, got 0"));
    }
    Ok(iterations)
}

/// The largest annealing effort read from input: ten times VPR's default
/// `inner_num` of 10. The annealer makes effort · blocks^(4/3) moves per
/// temperature, so an unbounded effort never finishes.
const MAX_EFFORT: f64 = 100.0;

/// Checks an annealing effort (the placer's `inner_num`) read from
/// input: it must be finite, above 0 and at most [`MAX_EFFORT`].
fn annealing_effort(field: &str, effort: f64) -> Result<f64, String> {
    if effort.is_finite() && effort > 0.0 && effort <= MAX_EFFORT {
        Ok(effort)
    } else {
        Err(format!(
            "{field} must be an annealing effort above 0 and at most {MAX_EFFORT}, got {effort}"
        ))
    }
}

/// The flow options a batch may override: from a spec file's
/// `"defaults"` or one of its jobs, from a serve batch request, or from
/// the `mmflow` command line. Each value is checked where it is read,
/// by the same code for every source, so every entry point accepts and
/// refuses the same values; `None` keeps the base option.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlowOverrides {
    /// Placer seed (`"seed"`, `--seed`): a JSON integer below 2^53, or a
    /// decimal or `0x…` string (as a flag's text is).
    pub seed: Option<u64>,
    /// Fixed channel width (`"width"`, `--width`), in 1..=1024.
    pub width: Option<usize>,
    /// Annealing effort, VPR's `inner_num` (`"effort"`, `--effort`),
    /// above 0 and at most 100.
    pub effort: Option<f64>,
    /// Router iteration cap (`"max_iterations"`, `--max-iterations`), at
    /// least 1.
    pub max_iterations: Option<usize>,
    /// Width-search cap (`"max_width"`, `--max-width`), in 1..=1024.
    pub max_width: Option<usize>,
    /// Steiner-tree fanout threshold (`"steiner_fanout"`,
    /// `--steiner-fanout`; 0 disables the decomposition).
    pub steiner_fanout: Option<usize>,
}

/// Each override's JSON member and command-line flag, in the order they
/// are read and written.
const OVERRIDES: [(&str, &str); 6] = [
    ("seed", "--seed"),
    ("width", "--width"),
    ("effort", "--effort"),
    ("max_iterations", "--max-iterations"),
    ("max_width", "--max-width"),
    ("steiner_fanout", "--steiner-fanout"),
];

/// Reads a seed: a JSON integer below 2^53, or a decimal or `0x…`
/// string. JSON numbers round-trip exactly only up to 2^53, so larger
/// seeds must be strings, and a requested seed is never silently
/// rounded to a neighbour.
fn read_seed(field: &str, value: &Value) -> Result<u64, String> {
    if let Some(seed) = value.as_u64() {
        return Ok(seed);
    }
    let text = value
        .as_str()
        .ok_or_else(|| format!("{field} must be an integer below 2^53 or a decimal/0x string"))?;
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
    .map_err(|_| format!("{field} must be a decimal or 0x seed below 2^64, got '{text}'"))
}

impl FlowOverrides {
    /// Reads the overrides a JSON object carries (a spec file's
    /// `"defaults"` or job, or a serve batch request); other members are
    /// left to the caller.
    ///
    /// # Errors
    ///
    /// Fails, naming the member, on a value of the wrong type or out of
    /// range.
    pub fn from_json(object: &Value) -> Result<Self, String> {
        let mut overrides = Self::default();
        for (key, _) in OVERRIDES {
            if let Some(value) = object.get(key) {
                overrides.set(key, &format!("\"{key}\""), value)?;
            }
        }
        Ok(overrides)
    }

    /// Whether `flag` sets an override: `--` and the member's name with
    /// `-` for `_` (`--max-width`).
    #[must_use]
    pub fn is_flag(flag: &str) -> bool {
        OVERRIDES.iter().any(|&(_, f)| f == flag)
    }

    /// Reads override flag `flag` with its `value`, as
    /// [`FlowOverrides::from_json`] reads the member of that name: the
    /// text stands for the JSON number it spells, or else for a string,
    /// and a seed is always a string.
    ///
    /// # Errors
    ///
    /// Fails, naming the flag, where [`FlowOverrides::from_json`] fails,
    /// and on a flag that sets no override.
    pub fn read_flag(&mut self, flag: &str, value: &str) -> Result<(), String> {
        let (key, _) = OVERRIDES
            .into_iter()
            .find(|&(_, f)| f == flag)
            .ok_or_else(|| format!("{flag} sets no flow option"))?;
        let value = match value.parse() {
            Ok(number) if key != "seed" => Value::Num(number),
            _ => Value::from(value),
        };
        self.set(key, flag, &value)
    }

    fn set(&mut self, key: &str, field: &str, value: &Value) -> Result<(), String> {
        let count = || {
            value
                .as_usize()
                .ok_or_else(|| format!("{field} must be a non-negative integer"))
        };
        match key {
            "seed" => self.seed = Some(read_seed(field, value)?),
            "width" => self.width = Some(channel_width(field, count()?)?),
            "effort" => {
                let effort = value
                    .as_f64()
                    .ok_or_else(|| format!("{field} must be a number"))?;
                self.effort = Some(annealing_effort(field, effort)?);
            }
            "max_iterations" => self.max_iterations = Some(iteration_cap(field, count()?)?),
            "max_width" => self.max_width = Some(channel_width(field, count()?)?),
            "steiner_fanout" => self.steiner_fanout = Some(count()?),
            other => unreachable!("'{other}' is not a flow override"),
        }
        Ok(())
    }

    /// Appends the set overrides to a request line's object, in the order
    /// [`FlowOverrides::from_json`] reads them. A seed from 2^53 goes as
    /// a decimal string, which no JSON number round-trip can round.
    #[must_use]
    pub fn write(&self, mut o: ObjBuilder) -> ObjBuilder {
        let seed = self.seed.map(|seed| {
            if seed < 1 << 53 {
                Value::from(seed)
            } else {
                Value::from(seed.to_string())
            }
        });
        let values = [
            seed,
            self.width.map(Value::from),
            self.effort.map(Value::from),
            self.max_iterations.map(Value::from),
            self.max_width.map(Value::from),
            self.steiner_fanout.map(Value::from),
        ];
        for ((key, _), value) in OVERRIDES.into_iter().zip(values) {
            if let Some(value) = value {
                o = o.field(key, value);
            }
        }
        o
    }

    /// `base` with the set overrides applied.
    #[must_use]
    pub fn apply(&self, base: &FlowOptions) -> FlowOptions {
        let mut o = *base;
        o.placer.seed = self.seed.unwrap_or(o.placer.seed);
        o.width = self.width.map_or(o.width, WidthChoice::Fixed);
        o.placer.inner_num = self.effort.unwrap_or(o.placer.inner_num);
        o.router.max_iterations = self.max_iterations.unwrap_or(o.router.max_iterations);
        o.max_width = self.max_width.unwrap_or(o.max_width);
        o.router.steiner_fanout = self.steiner_fanout.unwrap_or(o.router.steiner_fanout);
        o
    }
}

/// One spec-file job: `base` already carries the spec's `"defaults"`
/// overrides, which `defaults` supplies `flow` and `cost` from.
fn parse_job(
    jv: &Value,
    index: usize,
    defaults: Option<&Value>,
    spec_dir: &Path,
    base: &FlowOptions,
    k: usize,
) -> Result<Job, String> {
    let modes = jv
        .get("modes")
        .and_then(Value::as_arr)
        .ok_or("needs a \"modes\" array of BLIF paths")?;
    let paths: Vec<std::path::PathBuf> = modes
        .iter()
        .map(|m| {
            m.as_str()
                .map(|s| spec_dir.join(s))
                .ok_or_else(|| "mode paths must be strings".to_string())
        })
        .collect::<Result<_, _>>()?;
    let circuits = read_modes(&paths, k)?;

    let name = jv
        .get("name")
        .and_then(Value::as_str)
        .map(ToString::to_string)
        .unwrap_or_else(|| format!("job{index}"));

    let flow_name = lookup(jv, defaults, "flow")
        .map(|v| v.as_str().ok_or("\"flow\" must be a string"))
        .transpose()?
        .unwrap_or("dcs");
    let cost = lookup(jv, defaults, "cost")
        .map(|v| v.as_str().ok_or("\"cost\" must be a string"))
        .transpose()?;
    let flow = FlowKind::parse(flow_name, cost)?;
    Ok(Job {
        name,
        circuits,
        flow,
        options: FlowOverrides::from_json(jv)?.apply(base),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_flow::stage::CacheOutcome;
    use mm_netlist::TruthTable;

    fn tiny(name: &str) -> LutCircuit {
        let mut c = LutCircuit::new(name, 4);
        let a = c.add_input("a").unwrap();
        let g = c
            .add_lut("g", vec![a], TruthTable::var(1, 0), false)
            .unwrap();
        c.add_output("y", g).unwrap();
        c
    }

    #[test]
    fn job_fingerprints_are_content_addressed() {
        let job = |name: &str, circuit: &str, flow: FlowKind| Job {
            name: name.to_string(),
            circuits: vec![tiny(circuit)],
            flow,
            options: FlowOptions::default(),
        };
        let base = job("a", "m0", FlowKind::Mdr);
        // Same content under a different name ⇒ the same fingerprint.
        assert_eq!(
            base.fingerprint(),
            job("b", "m0", FlowKind::Mdr).fingerprint()
        );
        // Different circuits, flow kind or options ⇒ different keys.
        assert_ne!(
            base.fingerprint(),
            job("a", "m1", FlowKind::Mdr).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            job("a", "m0", FlowKind::Pair).fingerprint()
        );
        let mut tweaked = base.clone();
        tweaked.options.placer.seed ^= 1;
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
    }

    #[test]
    fn flow_kind_parsing() {
        assert_eq!(
            FlowKind::parse("dcs", None).unwrap(),
            FlowKind::Dcs(CostKind::WireLength)
        );
        assert_eq!(
            FlowKind::parse("dcs", Some("edge")).unwrap(),
            FlowKind::Dcs(CostKind::EdgeMatching)
        );
        assert!(matches!(
            FlowKind::parse("dcs", Some("hybrid:1.5")).unwrap(),
            FlowKind::Dcs(CostKind::Hybrid { .. })
        ));
        assert!(matches!(
            FlowKind::parse("dcs", Some("timing:0.5")).unwrap(),
            FlowKind::Dcs(CostKind::Timing { .. })
        ));
        assert_eq!(
            FlowKind::parse("dcs", Some("timing:0.5")).unwrap().name(),
            "dcs-timing"
        );
        assert_eq!(FlowKind::parse("mdr", None).unwrap(), FlowKind::Mdr);
        assert_eq!(FlowKind::parse("pair", None).unwrap(), FlowKind::Pair);
        assert!(FlowKind::parse("zzz", None).is_err());
        assert!(FlowKind::parse("dcs", Some("banana")).is_err());
    }

    #[test]
    fn hybrid_weights_must_be_finite_and_non_negative() {
        for bad in [
            "hybrid:NaN",
            "hybrid:nan",
            "hybrid:-1",
            "hybrid:-0.5",
            "hybrid:-0",
        ] {
            let err = FlowKind::parse("dcs", Some(bad)).unwrap_err();
            assert!(err.contains("finite non-negative"), "{bad}: {err}");
        }
        for bad in ["hybrid:inf", "hybrid:-inf", "hybrid:infinity"] {
            assert!(FlowKind::parse("dcs", Some(bad)).is_err(), "{bad}");
        }
        assert!(FlowKind::parse("dcs", Some("hybrid:")).is_err());
        assert!(FlowKind::parse("dcs", Some("hybrid:two")).is_err());
        // Zero and ordinary values stay accepted (zero degrades to pure
        // wire length but fingerprints deterministically).
        assert!(FlowKind::parse("dcs", Some("hybrid:0")).is_ok());
        assert!(FlowKind::parse("dcs", Some("hybrid:2.5")).is_ok());
    }

    #[test]
    fn timing_alpha_must_be_a_unit_interval_number() {
        for bad in [
            "timing:NaN",
            "timing:-0.1",
            "timing:-0",
            "timing:1.5",
            "timing:inf",
            "timing:",
            "timing:half",
        ] {
            assert!(FlowKind::parse("dcs", Some(bad)).is_err(), "{bad}");
        }
        assert_eq!(
            FlowKind::parse("dcs", Some("timing:0")).unwrap(),
            FlowKind::Dcs(CostKind::Timing { alpha: 0.0 })
        );
        assert_eq!(
            FlowKind::parse("dcs", Some("timing:1")).unwrap(),
            FlowKind::Dcs(CostKind::Timing { alpha: 1.0 })
        );
    }

    #[test]
    fn outcome_roundtrips_through_value() {
        let dcs = JobOutcome::Dcs(DcsSummary {
            grid: 6,
            channel_width: 12,
            modes: 2,
            param_bits: 31,
            static_on_bits: 200,
            dcs_cost: RewriteCost {
                lut_bits: 576,
                routing_bits: 31,
            },
            mdr_cost: RewriteCost {
                lut_bits: 576,
                routing_bits: 4000,
            },
            wires: vec![120, 130],
            critical_paths: None,
            tunable: TunableStats {
                modes: 2,
                tunable_luts: 22,
                io_sites: 9,
                connections: 70,
                merged_connections: 12,
            },
        });
        let back = JobOutcome::from_value(&dcs.to_value(), "x").unwrap();
        assert_eq!(back, dcs);

        // Timing jobs carry per-mode critical paths; the field must
        // round-trip (and stay absent from the serialized default above).
        assert!(!dcs.to_value().to_json().contains("critical_paths"));
        let timed = match &dcs {
            JobOutcome::Dcs(s) => JobOutcome::Dcs(DcsSummary {
                critical_paths: Some(vec![10.0, 12.5]),
                ..s.clone()
            }),
            _ => unreachable!(),
        };
        let back = JobOutcome::from_value(&timed.to_value(), "x").unwrap();
        assert_eq!(back, timed);

        let pair = JobOutcome::Pair(PairMetrics {
            name: "p".into(),
            grid: 6,
            width_mdr: 10,
            width_edge: 12,
            width_wirelength: 11,
            mdr: RewriteCost {
                lut_bits: 576,
                routing_bits: 4000,
            },
            diff: RewriteCost {
                lut_bits: 576,
                routing_bits: 900,
            },
            dcs_edge: RewriteCost {
                lut_bits: 576,
                routing_bits: 60,
            },
            dcs_wirelength: RewriteCost {
                lut_bits: 576,
                routing_bits: 40,
            },
            wires_mdr: 120.5,
            wires_edge: 150.25,
            wires_wirelength: 140.75,
            tunable_stats: TunableStats {
                modes: 2,
                tunable_luts: 22,
                io_sites: 9,
                connections: 70,
                merged_connections: 12,
            },
            mode_luts: vec![20, 22],
        });
        let back = JobOutcome::from_value(&pair.to_value(), "p").unwrap();
        match (&back, &pair) {
            (JobOutcome::Pair(a), JobOutcome::Pair(b)) => {
                assert_eq!(a.name, b.name);
                assert_eq!(a.mdr, b.mdr);
                assert_eq!(a.wires_edge, b.wires_edge);
                assert_eq!(a.tunable_stats, b.tunable_stats);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn placements_roundtrip_and_reject_mismatch() {
        let circuits = vec![tiny("a"), tiny("b")];
        let arch = mm_arch::Architecture::new(4, 3, 4);
        let sites: Vec<mm_arch::Site> = arch.logic_sites().collect();
        let ios: Vec<mm_arch::Site> = arch.io_sites().collect();
        let mut modes = Vec::new();
        for c in &circuits {
            let mut p = Placement::new(c.block_count());
            let mut li = 0;
            let mut ii = 0;
            for id in c.block_ids() {
                if c.block(id).is_lut() {
                    p.assign(id, sites[li]);
                    li += 1;
                } else {
                    p.assign(id, ios[ii]);
                    ii += 1;
                }
            }
            modes.push(p);
        }
        let v = placements_value(&circuits, &modes);
        let back = placements_from(&circuits, &v).unwrap();
        for (c, (orig, rt)) in circuits.iter().zip(modes.iter().zip(&back)) {
            for id in c.block_ids() {
                assert_eq!(orig.site_of(id), rt.site_of(id));
            }
        }
        // A different circuit shape must be rejected, not misapplied.
        let other = vec![tiny("a")];
        assert!(placements_from(&other, &v).is_none());
        assert!(multi_placement_from(&circuits, &Value::Null).is_none());
    }

    #[test]
    fn spec_file_parses_with_defaults_and_overrides() {
        let dir = std::env::temp_dir().join(format!("mm_engine_spec_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["a", "b"] {
            std::fs::write(dir.join(format!("{name}.blif")), blif::to_blif(&tiny(name))).unwrap();
        }
        let spec_path = dir.join("suite.json");
        std::fs::write(
            &spec_path,
            r#"{
              "k": 4,
              "defaults": {"flow": "dcs", "seed": 11, "width": 8, "max_width": 24},
              "jobs": [
                {"name": "first", "modes": ["a.blif", "b.blif"]},
                {"modes": ["b.blif", "a.blif"], "flow": "mdr", "seed": 99},
                {"modes": ["a.blif"], "cost": "edge"}
              ]
            }"#,
        )
        .unwrap();
        let batch = load_spec(spec_path.to_str().unwrap(), &FlowOptions::default(), 4).unwrap();
        assert_eq!(batch.source, SpecSource::File);
        assert_eq!(batch.jobs.len(), 3);
        assert_eq!(batch.jobs[0].name, "first");
        assert_eq!(batch.jobs[0].options.placer.seed, 11);
        assert_eq!(batch.jobs[0].options.width, WidthChoice::Fixed(8));
        assert_eq!(batch.jobs[0].options.max_width, 24);
        assert_eq!(batch.jobs[1].name, "job1");
        assert_eq!(batch.jobs[1].flow, FlowKind::Mdr);
        assert_eq!(batch.jobs[1].options.placer.seed, 99);
        assert_eq!(batch.jobs[2].flow, FlowKind::Dcs(CostKind::EdgeMatching));
        // The file's own "k" replaces the caller's, and is range-checked
        // before any BLIF is parsed.
        assert!(load_spec(spec_path.to_str().unwrap(), &FlowOptions::default(), 9).is_ok());
        let bad = dir.join("bad_k.json");
        std::fs::write(&bad, r#"{"k": 9, "jobs": [{"modes": ["a.blif"]}]}"#).unwrap();
        let err = load_spec(bad.to_str().unwrap(), &FlowOptions::default(), 4).unwrap_err();
        assert!(err.contains("k must be in 1..=6"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn directory_spec_discovers_mode_groups() {
        let dir = std::env::temp_dir().join(format!("mm_engine_dir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for group in ["g1", "g0"] {
            std::fs::create_dir_all(dir.join(group)).unwrap();
            for name in ["m0", "m1"] {
                std::fs::write(
                    dir.join(group).join(format!("{name}.blif")),
                    blif::to_blif(&tiny(name)),
                )
                .unwrap();
            }
        }
        // A stray non-BLIF file and an empty dir are ignored.
        std::fs::write(dir.join("g0").join("notes.txt"), "x").unwrap();
        std::fs::create_dir_all(dir.join("empty")).unwrap();

        let batch = load_spec(dir.to_str().unwrap(), &FlowOptions::default(), 4).unwrap();
        assert_eq!(batch.source, SpecSource::Directory);
        let names: Vec<&str> = batch.jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, vec!["g0", "g1"], "sorted, deterministic");
        assert_eq!(batch.jobs[0].circuits.len(), 2);
        for k in [0, 7] {
            let err = load_spec(dir.to_str().unwrap(), &FlowOptions::default(), k).unwrap_err();
            assert!(err.contains("k must be in 1..=6"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(load_spec("suite:nope", &FlowOptions::default(), 4).is_err());
        assert!(load_spec("/nonexistent/spec.json", &FlowOptions::default(), 4).is_err());
    }

    #[test]
    fn spec_and_blif_files_must_be_bounded_regular_files() {
        let err = load_spec("/dev/null", &FlowOptions::default(), 4).unwrap_err();
        assert!(
            err.contains("/dev/null") && err.contains("not a regular file"),
            "{err}"
        );
        let dir = std::env::temp_dir().join(format!("mm_engine_cap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("g0")).unwrap();
        // Sparse: one byte over the cap costs no disk.
        let huge = dir.join("g0").join("m0.blif");
        std::fs::File::create(&huge)
            .unwrap()
            .set_len(MAX_INPUT_FILE + 1)
            .unwrap();
        let cap = MAX_INPUT_FILE.to_string();
        let err = read_blif(&huge, 4).unwrap_err();
        assert!(err.contains("m0.blif") && err.contains(&cap), "{err}");
        let err = load_spec(dir.to_str().unwrap(), &FlowOptions::default(), 4).unwrap_err();
        assert!(err.contains(&cap), "{err}");
        let err = load_spec(huge.to_str().unwrap(), &FlowOptions::default(), 4).unwrap_err();
        assert!(err.contains(&cap), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_channel_widths_are_refused_naming_the_field() {
        let dir = std::env::temp_dir().join(format!("mm_engine_w0_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.blif"), blif::to_blif(&tiny("a"))).unwrap();
        let zero = "must be a positive channel width";
        let over = "must be a channel width of at most 1024, got 1025";
        for (file, spec, field, expected) in [
            (
                "w.json",
                r#"{"jobs": [{"modes": ["a.blif"], "width": 0}]}"#,
                "\"width\"",
                zero,
            ),
            (
                "mw.json",
                r#"{"jobs": [{"modes": ["a.blif"], "max_width": 0}]}"#,
                "\"max_width\"",
                zero,
            ),
            (
                "dw.json",
                r#"{"defaults": {"width": 0}, "jobs": [{"modes": ["a.blif"]}]}"#,
                "\"width\"",
                zero,
            ),
            (
                "dmw.json",
                r#"{"defaults": {"max_width": 0}, "jobs": [{"modes": ["a.blif"]}]}"#,
                "\"max_width\"",
                zero,
            ),
            (
                "wc.json",
                r#"{"jobs": [{"modes": ["a.blif"], "width": 1025}]}"#,
                "\"width\"",
                over,
            ),
            (
                "dmwc.json",
                r#"{"defaults": {"max_width": 1025}, "jobs": [{"modes": ["a.blif"]}]}"#,
                "\"max_width\"",
                over,
            ),
            (
                "i.json",
                r#"{"jobs": [{"modes": ["a.blif"], "max_iterations": 0}]}"#,
                "\"max_iterations\"",
                "must be a positive iteration cap, got 0",
            ),
            // The defaults are checked before any job, even one that
            // overrides them (and whose mode file is missing).
            (
                "dwj.json",
                r#"{"defaults": {"width": 0}, "jobs": [{"modes": ["absent.blif"], "width": 8}]}"#,
                "defaults: \"width\"",
                zero,
            ),
        ] {
            let path = dir.join(file);
            std::fs::write(&path, spec).unwrap();
            let err = load_spec(path.to_str().unwrap(), &FlowOptions::default(), 4).unwrap_err();
            assert!(
                err.contains(&format!("{field} {expected}")),
                "{file}: {err}"
            );
        }
        let path = dir.join("cap.json");
        std::fs::write(
            &path,
            r#"{"jobs": [{"modes": ["a.blif"], "width": 1024, "max_width": 1024, "max_iterations": 1}]}"#,
        )
        .unwrap();
        let spec = load_spec(path.to_str().unwrap(), &FlowOptions::default(), 4).unwrap();
        let options = spec.jobs[0].options;
        assert_eq!(options.width, WidthChoice::Fixed(MAX_CHANNEL_WIDTH));
        assert_eq!(options.max_width, MAX_CHANNEL_WIDTH);
        assert_eq!(options.router.max_iterations, 1);
        assert_eq!(channel_width("--width", 1), Ok(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_efforts_are_refused_naming_the_field() {
        let dir = std::env::temp_dir().join(format!("mm-effort-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("a.blif"),
            ".model a\n.inputs x\n.outputs y\n.names x y\n1 1\n.end\n",
        )
        .unwrap();
        for (file, spec) in [
            (
                "zero.json",
                r#"{"jobs": [{"modes": ["a.blif"], "effort": 0}]}"#,
            ),
            (
                "neg.json",
                r#"{"jobs": [{"modes": ["a.blif"], "effort": -5}]}"#,
            ),
            (
                "huge.json",
                r#"{"jobs": [{"modes": ["a.blif"], "effort": 1e308}]}"#,
            ),
            (
                "dhuge.json",
                r#"{"defaults": {"effort": 100.5}, "jobs": [{"modes": ["a.blif"]}]}"#,
            ),
        ] {
            let path = dir.join(file);
            std::fs::write(&path, spec).unwrap();
            let err = load_spec(path.to_str().unwrap(), &FlowOptions::default(), 4).unwrap_err();
            assert!(
                err.contains("\"effort\" must be an annealing effort above 0 and at most 100"),
                "{file}: {err}"
            );
        }
        let path = dir.join("max.json");
        std::fs::write(
            &path,
            r#"{"defaults": {"effort": 100}, "jobs": [{"modes": ["a.blif"]}]}"#,
        )
        .unwrap();
        let batch = load_spec(path.to_str().unwrap(), &FlowOptions::default(), 4).unwrap();
        assert_eq!(batch.jobs[0].options.placer.inner_num, 100.0);
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -1.0,
            100.01,
        ] {
            assert!(annealing_effort("--effort", bad).is_err(), "{bad}");
        }
        assert_eq!(annealing_effort("--effort", 0.05), Ok(0.05));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_entry_point_reads_overrides_alike() {
        use crate::protocol::Request;
        let dir = std::env::temp_dir().join(format!("mm_engine_overrides_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.blif"), blif::to_blif(&tiny("a"))).unwrap();
        let spec = dir.join("spec.json");
        let spec_name = spec.display().to_string();
        let from_spec = |text: String| {
            std::fs::write(&spec, text).unwrap();
            load_spec(&spec_name, &FlowOptions::default(), 4).map(|b| b.jobs[0].options)
        };
        let integer = "must be a non-negative integer";
        let width_over = "must be a channel width of at most 1024, got 1025";
        // (member, its JSON value, the flag's text for the same value,
        // the refusal after the field's name or None to accept).
        for (key, json, text, refusal) in [
            ("seed", "7", "7", None),
            ("seed", r#""0x5eed1""#, "0x5eed1", None),
            (
                "seed",
                r#""banana""#,
                "banana",
                Some("must be a decimal or 0x seed below 2^64, got 'banana'"),
            ),
            (
                "seed",
                r#""18446744073709551616""#,
                "18446744073709551616",
                Some("must be a decimal or 0x seed below 2^64, got '18446744073709551616'"),
            ),
            ("width", "12", "12", None),
            ("width", r#""twelve""#, "twelve", Some(integer)),
            ("width", "12.5", "12.5", Some(integer)),
            (
                "width",
                "0",
                "0",
                Some("must be a positive channel width, got 0"),
            ),
            ("width", "1025", "1025", Some(width_over)),
            ("effort", "2.5", "2.5", None),
            ("effort", r#""high""#, "high", Some("must be a number")),
            (
                "effort",
                "100.5",
                "100.5",
                Some("must be an annealing effort above 0 and at most 100, got 100.5"),
            ),
            ("max_iterations", "17", "17", None),
            ("max_iterations", r#""x""#, "x", Some(integer)),
            (
                "max_iterations",
                "0",
                "0",
                Some("must be a positive iteration cap, got 0"),
            ),
            ("max_width", "33", "33", None),
            ("max_width", "[33]", "[33]", Some(integer)),
            ("max_width", "1025", "1025", Some(width_over)),
            ("steiner_fanout", "64", "64", None),
            ("steiner_fanout", "null", "null", Some(integer)),
            ("steiner_fanout", "-1", "-1", Some(integer)),
            // Past 2^53 a JSON number may be a rounded neighbour.
            (
                "steiner_fanout",
                "9007199254740993",
                "9007199254740993",
                Some(integer),
            ),
        ] {
            let flag = format!("--{}", key.replace('_', "-"));
            assert!(FlowOverrides::is_flag(&flag), "{flag}");
            let member = format!(r#""{key}": {json}"#);
            let default = from_spec(format!(
                r#"{{"defaults": {{{member}}}, "jobs": [{{"modes": ["a.blif"]}}]}}"#
            ));
            let job = from_spec(format!(
                r#"{{"jobs": [{{"modes": ["a.blif"], {member}}}]}}"#
            ));
            let request = match Request::parse(&format!(r#"{{"cmd":"batch","spec":"s",{member}}}"#))
            {
                Ok(Request::Batch(b)) => Ok(b.overrides.apply(&FlowOptions::default())),
                Ok(other) => panic!("{other:?}"),
                Err(e) => Err(e),
            };
            let mut overrides = FlowOverrides::default();
            let cli = overrides
                .read_flag(&flag, text)
                .map(|()| overrides.apply(&FlowOptions::default()));
            match refusal {
                None => {
                    let options = cli.unwrap();
                    assert_ne!(options, FlowOptions::default(), "{key} {json}");
                    for (source, read) in [("default", default), ("job", job), ("request", request)]
                    {
                        assert_eq!(read, Ok(options), "{key} {json} as a {source}");
                    }
                }
                Some(refusal) => {
                    let field = format!(r#""{key}" {refusal}"#);
                    assert_eq!(default, Err(format!("{spec_name} defaults: {field}")));
                    assert_eq!(job, Err(format!("{spec_name} job 0: {field}")));
                    assert_eq!(request, Err(field));
                    assert_eq!(cli, Err(format!("{flag} {refusal}")));
                }
            }
        }
        let mut overrides = FlowOverrides::default();
        assert!(!FlowOverrides::is_flag("--jobs"));
        assert!(overrides.read_flag("--jobs", "1").is_err());
        assert_eq!(overrides, FlowOverrides::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn suite_mode_counts_are_validated() {
        let base = FlowOptions::default();
        // Malformed or infeasible counts fail before any circuit is
        // generated (the checks precede suite synthesis).
        assert!(load_spec("suite:regexp:x", &base, 4).is_err());
        let err = load_spec("suite:regexp:1", &base, 4).unwrap_err();
        assert!(err.contains("at least 2 modes"), "{err}");
        assert!(load_spec_with_modes("suite:nope", &base, 4, Some(3)).is_err());
        // So does a LUT width the suite mapper cannot use.
        for k in [1, 7] {
            let err = load_spec("suite:regexp", &base, k).unwrap_err();
            assert!(err.contains("k must be in 2..=6"), "{err}");
        }
        // A mode-count override only applies to generated suites.
        let err = load_spec_with_modes("/nonexistent/spec.json", &base, 4, Some(3)).unwrap_err();
        assert!(err.contains("generated suites"), "{err}");
    }

    #[test]
    fn combined_flow_alias_parses_and_keeps_pair_identity() {
        assert_eq!(FlowKind::parse("combined", None).unwrap(), FlowKind::Pair);
        assert_eq!(FlowKind::parse("combined", None).unwrap().name(), "pair");
        assert_eq!(
            FlowKind::parse("combined", None).unwrap().fingerprint(),
            FlowKind::parse("pair", None).unwrap().fingerprint(),
            "both spellings share cache entries"
        );
    }

    #[test]
    fn seed_precision_is_protected() {
        let parse_seed = |v: &Value| {
            let object = ObjBuilder::new().field("seed", v.clone()).build();
            FlowOverrides::from_json(&object).map(|o| o.seed.expect("a seed"))
        };
        assert_eq!(parse_seed(&Value::Num(7.0)).unwrap(), 7);
        assert_eq!(
            parse_seed(&Value::Num(9_007_199_254_740_991.0)).unwrap(),
            (1 << 53) - 1
        );
        // From 2^53 a JSON number may already be a rounded neighbour
        // (2^53 + 1 parses to exactly 2^53): reject.
        assert!(parse_seed(&Value::Num(9_007_199_254_740_992.0)).is_err());
        assert!(parse_seed(&Value::Num(1.8446744073709552e19)).is_err());
        // Full 64-bit seeds go through strings.
        assert_eq!(
            parse_seed(&Value::Str("18446744073709551615".into())).unwrap(),
            u64::MAX
        );
        assert_eq!(
            parse_seed(&Value::Str("0xdeadbeef".into())).unwrap(),
            0xdead_beef
        );
        assert!(parse_seed(&Value::Str("banana".into())).is_err());
        assert!(parse_seed(&Value::Bool(true)).is_err());
    }

    #[test]
    fn result_line_shapes() {
        let ok = JobResult {
            name: "j".into(),
            flow: FlowKind::Mdr,
            outcome: Ok(JobOutcome::Mdr(MdrSummary {
                grid: 5,
                channel_width: 8,
                modes: 2,
                mdr_cost: RewriteCost {
                    lut_bits: 400,
                    routing_bits: 3000,
                },
                avg_diff_cost: RewriteCost {
                    lut_bits: 400,
                    routing_bits: 700,
                },
                wires: vec![90, 95],
            })),
            cache: JobCacheInfo::default(),
            duration: Duration::from_millis(5),
            stages: vec![StageTiming {
                name: "place-mdr".into(),
                kind: mm_flow::stage::ArtifactKind::MdrPlacements,
                cache: CacheOutcome::Miss,
                duration: Duration::from_millis(12),
            }],
        };
        let line = ok.to_json_line();
        assert!(
            line.starts_with(r#"{"name":"j","flow":"mdr","status":"ok""#),
            "{line}"
        );
        assert!(!line.contains("duration"), "no timing in records");
        assert!(
            !line.contains("stages"),
            "stage telemetry never leaks into default records: {line}"
        );

        // The opt-in rendering is the default record plus a trailing
        // stages array.
        let with_stages = ok.to_json_line_with_stages();
        assert!(
            with_stages.starts_with(&line[..line.len() - 1]),
            "{with_stages}"
        );
        assert!(
            with_stages.ends_with(r#","stages":[{"name":"place-mdr","ms":12,"cache":"miss"}]}"#),
            "{with_stages}"
        );

        let err = JobResult {
            name: "j".into(),
            flow: FlowKind::Pair,
            outcome: Err(JobError {
                stage: "route",
                message: "boom".into(),
            }),
            cache: JobCacheInfo::default(),
            duration: Duration::ZERO,
            stages: Vec::new(),
        };
        assert_eq!(
            err.to_json_line(),
            r#"{"name":"j","flow":"pair","status":"error","stage":"route","error":"boom"}"#
        );
        assert_eq!(
            err.to_json_line_with_stages(),
            r#"{"name":"j","flow":"pair","status":"error","stage":"route","error":"boom","stages":[]}"#,
            "error records still carry an (empty) stages array when asked"
        );
    }
}
