//! The typed stage graph: every flow as one DAG of cacheable stages.
//!
//! The paper's combined implementation is a pipeline — synthesize, merge,
//! place, route, tune per mode — but the flows in this crate historically
//! encoded that pipeline as hand-wired monolithic functions. This module
//! makes the decomposition first-class:
//!
//! * a [`Stage`] is one unit of work with a name, stable parameters and a
//!   typed output (an [`Artifact`] variant, declared via [`ArtifactKind`]);
//! * a [`StagePlan`] is a DAG of stages over one [`MultiModeInput`],
//!   assembled with [`PlanBuilder`] and executed with
//!   [`StagePlan::execute`];
//! * [`dcs_plan`], [`mdr_plan`] and [`combined_plan`] compile the three
//!   flow flavors to plans — annealing legs fan out into route/tune
//!   summary stages; the combined plan runs the plain plans' legs side by
//!   side and folds their three summaries in one routing-free stage.
//!
//! # Fingerprints and cache sharing
//!
//! Every node carries a **structural fingerprint**: a length-prefixed
//! composition of the stage name, the stage parameters, the input
//! fingerprint (the canonical BLIF of every mode) and the fingerprints of
//! its dependencies. Two nodes with equal fingerprints compute the same
//! artifact, so a cache keyed by node fingerprint shares work across
//! plans automatically. In particular the placement *and* summary nodes
//! of a combined plan fingerprint **identically** to those of the plain
//! `mdr`, `dcs-edge` and `dcs` plans on the same mode list, so pair and
//! plain jobs share annealing and route results in both directions —
//! just the general case of the rule. Display labels
//! ([`PlanNode::label`]) are deliberately excluded from fingerprints.
//!
//! Caching itself stays outside this crate: the executor consults a
//! [`PlanHooks`] implementation per node ([`Lookup::Hit`] short-circuits
//! the node *and everything only it demanded*), and offers every computed
//! artifact back via [`PlanHooks::store`]. [`NoHooks`] runs a plan
//! uncached.
//!
//! # Execution, determinism and telemetry
//!
//! [`StagePlan::execute`] resolves the DAG demand-driven from the root:
//! a cache hit on a node means its dependencies are never even looked
//! up. The remaining nodes run bottom-up in ready waves on the thread
//! [`pool`]; every stage is independently seeded, so the artifact is
//! byte-identical at any parallelism. Each resolved node records
//! wall-clock time and its cache outcome in a [`StageTiming`], returned
//! alongside the artifact in [`PlanRun`].

use crate::flow::{DcsFlow, FlowOptions, MdrFlow, MultiModeInput};
use crate::pool;
use crate::{CombinedMetrics, FlowError, TunableStats};
use mm_bitstream::RewriteCost;
use mm_netlist::blif;
use mm_place::{CostKind, MultiPlacement, Placement, PlacerOptions};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ------------------------------------------------------------- summaries

/// Numeric summary of one DCS run (everything a batch reports).
#[derive(Debug, Clone, PartialEq)]
pub struct DcsSummary {
    /// Array side length.
    pub grid: usize,
    /// Final channel width.
    pub channel_width: usize,
    /// Mode count.
    pub modes: usize,
    /// Parameterized routing bits (the paper's headline per-switch cost).
    pub param_bits: usize,
    /// Statically-on routing bits.
    pub static_on_bits: usize,
    /// DCS rewrite cost.
    pub dcs_cost: RewriteCost,
    /// MDR rewrite cost on the same fabric.
    pub mdr_cost: RewriteCost,
    /// Wires used per mode.
    pub wires: Vec<usize>,
    /// Per-mode critical-path delays from routed STA, populated only
    /// when the run asked for the timing cost (`None` otherwise so
    /// default result records stay byte-identical).
    pub critical_paths: Option<Vec<f64>>,
    /// Tunable-circuit statistics.
    pub tunable: TunableStats,
}

/// Numeric summary of one MDR run.
#[derive(Debug, Clone, PartialEq)]
pub struct MdrSummary {
    /// Array side length.
    pub grid: usize,
    /// Final channel width.
    pub channel_width: usize,
    /// Mode count.
    pub modes: usize,
    /// Full-region rewrite cost.
    pub mdr_cost: RewriteCost,
    /// Diff-based rewrite cost, averaged over ordered mode pairs.
    pub avg_diff_cost: RewriteCost,
    /// Wires used per mode.
    pub wires: Vec<usize>,
}

// -------------------------------------------------------------- artifacts

/// A typed value flowing along a plan edge.
///
/// Placement artifacts are `Arc`-shared: a hit or computed placement is
/// handed to every consumer without copying the site tables.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// Per-mode MDR placements (one independent annealing per mode).
    MdrPlacements(Arc<Vec<Placement>>),
    /// A combined placement of all modes.
    CombinedPlacement(Arc<MultiPlacement>),
    /// A finished DCS summary.
    Dcs(DcsSummary),
    /// A finished MDR summary.
    Mdr(MdrSummary),
    /// The finished combined comparison (`name` left empty — the plan
    /// does not know job names; callers fill it in).
    Combined(CombinedMetrics),
}

impl Artifact {
    /// The kind tag of this artifact.
    #[must_use]
    pub fn kind(&self) -> ArtifactKind {
        match self {
            Artifact::MdrPlacements(_) => ArtifactKind::MdrPlacements,
            Artifact::CombinedPlacement(_) => ArtifactKind::CombinedPlacement,
            Artifact::Dcs(_) => ArtifactKind::Dcs,
            Artifact::Mdr(_) => ArtifactKind::Mdr,
            Artifact::Combined(_) => ArtifactKind::Combined,
        }
    }
}

/// The kind of artifact a stage declares it produces — what lets hooks
/// pick a cache namespace and codec per node without downcasting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Per-mode MDR placements.
    MdrPlacements,
    /// A combined placement.
    CombinedPlacement,
    /// A DCS summary.
    Dcs,
    /// An MDR summary.
    Mdr,
    /// Combined-comparison metrics.
    Combined,
}

impl ArtifactKind {
    /// Whether this kind is an annealing (placement) artifact rather
    /// than a finished summary.
    #[must_use]
    pub fn is_placement(self) -> bool {
        matches!(
            self,
            ArtifactKind::MdrPlacements | ArtifactKind::CombinedPlacement
        )
    }
}

// ------------------------------------------------------------------ trait

/// One unit of flow work: a named, parameterized transformation from
/// dependency artifacts (plus the shared input) to one output artifact.
///
/// `name()` and `params()` must together determine the computation given
/// the input and dependencies — they are composed into the node
/// fingerprint, so anything that changes the output must change one of
/// them (or an upstream fingerprint).
pub trait Stage: Send + Sync {
    /// Stable stage name (part of the fingerprint; also the default
    /// telemetry label).
    fn name(&self) -> &'static str;

    /// Stable parameter fingerprint (floats by bit pattern).
    fn params(&self) -> String;

    /// The artifact kind this stage produces.
    fn output_kind(&self) -> ArtifactKind;

    /// Runs the stage. `deps` holds the dependency artifacts in the
    /// order the node declared them.
    ///
    /// # Errors
    ///
    /// Propagates the underlying flow failure.
    fn run(&self, input: &MultiModeInput, deps: &[Artifact]) -> Result<Artifact, FlowError>;
}

// ------------------------------------------------------------------- plan

/// Index of a node within its [`StagePlan`].
pub type NodeId = usize;

/// One node of a compiled plan: a stage, its dependencies, a display
/// label and the composed structural fingerprint.
pub struct PlanNode {
    stage: Box<dyn Stage>,
    deps: Vec<NodeId>,
    label: String,
    fingerprint: String,
}

impl PlanNode {
    /// The display label (telemetry only — never part of the
    /// fingerprint, so differently-labelled nodes can share caches).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The dependency node ids, in declaration order.
    #[must_use]
    pub fn deps(&self) -> &[NodeId] {
        &self.deps
    }

    /// The composed structural fingerprint: stage name + params + input
    /// fingerprint + dependency fingerprints, all length-prefixed.
    #[must_use]
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The stage this node runs.
    #[must_use]
    pub fn stage(&self) -> &dyn Stage {
        self.stage.as_ref()
    }

    /// The artifact kind this node produces.
    #[must_use]
    pub fn output_kind(&self) -> ArtifactKind {
        self.stage.output_kind()
    }
}

impl fmt::Debug for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanNode")
            .field("label", &self.label)
            .field("stage", &self.stage.name())
            .field("deps", &self.deps)
            .finish_non_exhaustive()
    }
}

/// Appends `part` to `out` with a length prefix, so concatenated parts
/// can never alias across boundaries.
fn push_framed(out: &mut String, part: &str) {
    out.push_str(&part.len().to_string());
    out.push(':');
    out.push_str(part);
}

/// The input fingerprint: the canonical BLIF of every mode,
/// length-prefixed. The BLIF text captures the LUT width and the full
/// netlist, which (with the option fingerprints in stage params) is
/// everything the fabric and the flows derive from.
fn input_fingerprint(input: &MultiModeInput) -> String {
    let mut s = String::from("input-v1;");
    for circuit in input.circuits() {
        push_framed(&mut s, &blif::to_blif(circuit));
    }
    s
}

/// Assembles a [`StagePlan`] node by node. Dependencies must already be
/// in the builder, so plans are acyclic by construction.
#[derive(Default)]
pub struct PlanBuilder {
    nodes: Vec<(Box<dyn Stage>, Vec<NodeId>, String)>,
}

impl PlanBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id has not been added yet (which would
    /// make the plan cyclic or dangling).
    pub fn add(
        &mut self,
        stage: Box<dyn Stage>,
        deps: Vec<NodeId>,
        label: impl Into<String>,
    ) -> NodeId {
        let id = self.nodes.len();
        assert!(
            deps.iter().all(|&d| d < id),
            "plan dependencies must be added before their consumers"
        );
        self.nodes.push((stage, deps, label.into()));
        id
    }

    /// Seals the plan over `input`, with `root` as the demanded output
    /// node, computing every node's fingerprint.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a node of this builder or the builder is
    /// empty.
    #[must_use]
    pub fn build(self, input: MultiModeInput, root: NodeId) -> StagePlan {
        assert!(root < self.nodes.len(), "plan root must be a node");
        let input_fp = input_fingerprint(&input);
        let mut nodes: Vec<PlanNode> = Vec::with_capacity(self.nodes.len());
        for (stage, deps, label) in self.nodes {
            let mut fp = String::from("stage-v1;");
            push_framed(&mut fp, stage.name());
            push_framed(&mut fp, &stage.params());
            push_framed(&mut fp, &input_fp);
            for &d in &deps {
                push_framed(&mut fp, &nodes[d].fingerprint);
            }
            nodes.push(PlanNode {
                stage,
                deps,
                label,
                fingerprint: fp,
            });
        }
        StagePlan { input, nodes, root }
    }
}

/// A compiled flow: a DAG of stages over one input, with a designated
/// root whose artifact is the flow's result.
pub struct StagePlan {
    input: MultiModeInput,
    nodes: Vec<PlanNode>,
    root: NodeId,
}

impl fmt::Debug for StagePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StagePlan")
            .field("nodes", &self.nodes)
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}

// ------------------------------------------------------------------ hooks

/// What a [`PlanHooks::lookup`] found for a node.
// One Lookup exists per node execution and is consumed immediately, so
// the Hit payload's size never accumulates anywhere.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Lookup {
    /// A cached artifact; the node (and anything only it demanded) is
    /// skipped.
    Hit(Artifact),
    /// The node is cacheable but absent; it will run and be offered to
    /// [`PlanHooks::store`].
    Miss,
    /// The hooks do not cache this node; it runs without a store offer
    /// being meaningful (store is still called — hooks may ignore it).
    Uncached,
}

/// Cache integration points of the executor. Lookups and stores happen
/// on the calling thread, outside the worker pool.
pub trait PlanHooks {
    /// Consults the cache for one node (keyed however the hooks like —
    /// typically by hashing [`PlanNode::fingerprint`]).
    fn lookup(&self, node: &PlanNode) -> Lookup;

    /// Offers a freshly computed artifact for storage.
    fn store(&self, node: &PlanNode, artifact: &Artifact);
}

/// Hooks that cache nothing: every node reports [`Lookup::Uncached`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl PlanHooks for NoHooks {
    fn lookup(&self, _node: &PlanNode) -> Lookup {
        Lookup::Uncached
    }

    fn store(&self, _node: &PlanNode, _artifact: &Artifact) {}
}

// -------------------------------------------------------------- telemetry

/// How one node was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache.
    Hit,
    /// Cacheable but absent — computed (and offered for storage).
    Miss,
    /// Not cached by the hooks — computed.
    Uncached,
}

impl CacheOutcome {
    /// Stable lower-case name (`hit` / `miss` / `uncached`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Uncached => "uncached",
        }
    }
}

/// Wall-clock and cache telemetry of one resolved node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    /// The node's display label.
    pub name: String,
    /// The artifact kind the node produces.
    pub kind: ArtifactKind,
    /// How the node was resolved.
    pub cache: CacheOutcome,
    /// Lookup time plus (for computed nodes) execution time.
    pub duration: Duration,
}

/// The outcome of executing a plan: the root artifact (or the first
/// failure in dependency-then-declaration order) plus per-node telemetry
/// for every node that was resolved, in node-id order.
#[derive(Debug)]
pub struct PlanRun {
    /// The root artifact, or the failure that stopped the plan.
    pub artifact: Result<Artifact, FlowError>,
    /// Telemetry for resolved nodes (cache hits, computed nodes, and
    /// the failing node itself), in node-id order.
    pub stages: Vec<StageTiming>,
}

// --------------------------------------------------------------- executor

impl StagePlan {
    /// The shared input.
    #[must_use]
    pub fn input(&self) -> &MultiModeInput {
        &self.input
    }

    /// The nodes, in id order.
    #[must_use]
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// The root node id.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The root node's fingerprint — the identity of the whole plan
    /// (every upstream fingerprint composes into it).
    #[must_use]
    pub fn root_fingerprint(&self) -> &str {
        self.nodes[self.root].fingerprint()
    }

    /// Executes the plan: demand-driven cache resolution from the root,
    /// then bottom-up waves of ready nodes on the thread pool.
    ///
    /// `intra_parallelism` is each wave's thread count for
    /// [`pool::run_ordered`] (`0` = one thread per ready node, `1` =
    /// strictly serial); stages are independently seeded, so the
    /// artifact is identical at any setting. On failure, the reported
    /// error is the first failing node in node-id order of the earliest
    /// failing wave — matching a serial bottom-up run.
    #[must_use]
    pub fn execute(&self, hooks: &dyn PlanHooks, intra_parallelism: usize) -> PlanRun {
        let n = self.nodes.len();
        let mut artifacts: Vec<Option<Artifact>> = (0..n).map(|_| None).collect();
        let mut outcome: Vec<Option<CacheOutcome>> = vec![None; n];
        let mut duration: Vec<Duration> = vec![Duration::ZERO; n];
        let mut need = vec![false; n];

        // Demand pass: a hit seals a node, so its dependencies are never
        // demanded (a warm root skips the entire plan).
        let mut stack = vec![self.root];
        while let Some(i) = stack.pop() {
            if outcome[i].is_some() || need[i] {
                continue;
            }
            let t0 = Instant::now();
            let looked = hooks.lookup(&self.nodes[i]);
            duration[i] = t0.elapsed();
            match looked {
                // A hit of the wrong kind is a corrupt or aliased entry;
                // recompute rather than poison downstream stages.
                Lookup::Hit(a) if a.kind() == self.nodes[i].output_kind() => {
                    artifacts[i] = Some(a);
                    outcome[i] = Some(CacheOutcome::Hit);
                    continue;
                }
                Lookup::Hit(_) | Lookup::Miss => outcome[i] = Some(CacheOutcome::Miss),
                Lookup::Uncached => outcome[i] = Some(CacheOutcome::Uncached),
            }
            need[i] = true;
            stack.extend_from_slice(&self.nodes[i].deps);
        }

        // Bottom-up waves: every demanded node whose dependencies are
        // satisfied runs; the pool preserves node-id order within a
        // wave, so error priority matches a serial run. A failing wave
        // is still consumed whole — siblings that ran are timed (and,
        // before the first error, stored), exactly as the hand-wired
        // leg joins behaved.
        let failure = loop {
            let wave: Vec<NodeId> = (0..n)
                .filter(|&i| need[i] && self.nodes[i].deps.iter().all(|&d| artifacts[d].is_some()))
                .collect();
            if wave.is_empty() {
                break None;
            }
            let artifacts_ref = &artifacts;
            let results = pool::run_ordered(
                wave.clone(),
                intra_parallelism,
                |_, i| {
                    let t0 = Instant::now();
                    let deps: Vec<Artifact> = self.nodes[i]
                        .deps
                        .iter()
                        .map(|&d| artifacts_ref[d].clone().expect("dependency resolved"))
                        .collect();
                    let out = self.nodes[i].stage.run(&self.input, &deps);
                    (out, t0.elapsed())
                },
                |_, _| {},
            );
            let mut first_err = None;
            for (&i, (out, spent)) in wave.iter().zip(results) {
                need[i] = false;
                duration[i] += spent;
                match out {
                    Ok(a) if a.kind() == self.nodes[i].output_kind() => {
                        if first_err.is_none() {
                            hooks.store(&self.nodes[i], &a);
                        }
                        artifacts[i] = Some(a);
                    }
                    Ok(_) if first_err.is_none() => {
                        first_err = Some(FlowError::Internal(format!(
                            "stage '{}' produced an artifact of the wrong kind",
                            self.nodes[i].label
                        )));
                    }
                    Ok(_) => {}
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
            if first_err.is_some() {
                break first_err;
            }
        };

        let stages = (0..n)
            .filter(|&i| outcome[i].is_some() && (artifacts[i].is_some() || !need[i]))
            .map(|i| StageTiming {
                name: self.nodes[i].label.clone(),
                kind: self.nodes[i].output_kind(),
                cache: outcome[i].expect("resolved outcome"),
                duration: duration[i],
            })
            .collect();

        let artifact = match failure {
            Some(e) => Err(e),
            None => match artifacts[self.root].take() {
                Some(a) => Ok(a),
                // Unreachable for plans built by `PlanBuilder` (the DAG
                // is acyclic by construction), but a long-running service
                // must degrade to one failed job, never a panic.
                None => Err(FlowError::Internal(
                    "stage plan did not resolve its root".into(),
                )),
            },
        };
        PlanRun { artifact, stages }
    }
}

// ------------------------------------------------------------ flow stages

/// Per-mode MDR annealing (always wire-length cost, one derived seed per
/// mode).
struct PlaceMdr {
    options: FlowOptions,
}

impl Stage for PlaceMdr {
    fn name(&self) -> &'static str {
        "place-mdr"
    }

    fn params(&self) -> String {
        // `MdrFlow::place` always anneals with the wire-length cost, so
        // normalize the cost out of the fingerprint: MDR nodes differing
        // only in an (ignored) combined-placement cost share work. Router
        // options and width policy are deliberately excluded — plans
        // differing only in routing parameters share their annealing
        // nodes.
        PlacerOptions {
            cost: CostKind::WireLength,
            ..self.options.placer
        }
        .fingerprint()
    }

    fn output_kind(&self) -> ArtifactKind {
        ArtifactKind::MdrPlacements
    }

    fn run(&self, input: &MultiModeInput, _deps: &[Artifact]) -> Result<Artifact, FlowError> {
        let placements = MdrFlow::new(self.options).place(input)?;
        Ok(Artifact::MdrPlacements(Arc::new(placements)))
    }
}

/// Combined placement of all modes under one cost kind.
struct PlaceDcs {
    options: FlowOptions,
    cost: CostKind,
}

impl Stage for PlaceDcs {
    fn name(&self) -> &'static str {
        "place-dcs"
    }

    fn params(&self) -> String {
        PlacerOptions {
            cost: self.cost,
            ..self.options.placer
        }
        .fingerprint()
    }

    fn output_kind(&self) -> ArtifactKind {
        ArtifactKind::CombinedPlacement
    }

    fn run(&self, input: &MultiModeInput, _deps: &[Artifact]) -> Result<Artifact, FlowError> {
        let placement = DcsFlow::new(self.options)
            .with_cost(self.cost)
            .place(input)?;
        Ok(Artifact::CombinedPlacement(Arc::new(placement)))
    }
}

/// DCS routing, tuning and summary extraction on top of a combined
/// placement (routed STA only for the timing cost, so default summaries
/// stay byte-identical).
struct DcsSummarize {
    options: FlowOptions,
    cost: CostKind,
}

impl Stage for DcsSummarize {
    fn name(&self) -> &'static str {
        "dcs-summary"
    }

    fn params(&self) -> String {
        // The flow cost may differ from `options.placer.cost` (it is an
        // independent selector), so it joins the fingerprint explicitly.
        format!(
            "{};cost={}",
            self.options.fingerprint(),
            self.cost.fingerprint()
        )
    }

    fn output_kind(&self) -> ArtifactKind {
        ArtifactKind::Dcs
    }

    fn run(&self, input: &MultiModeInput, deps: &[Artifact]) -> Result<Artifact, FlowError> {
        let [Artifact::CombinedPlacement(placement)] = deps else {
            return Err(FlowError::Internal(
                "dcs-summary expects one combined placement".into(),
            ));
        };
        let flow = DcsFlow::new(self.options).with_cost(self.cost);
        let r = flow.run_with_placement(input, placement.as_ref().clone())?;
        let modes = input.mode_count();
        let critical_paths = if matches!(self.cost, CostKind::Timing { .. }) {
            Some(r.critical_paths(input.circuits())?)
        } else {
            None
        };
        Ok(Artifact::Dcs(DcsSummary {
            grid: r.arch.grid,
            channel_width: r.arch.channel_width,
            modes,
            param_bits: r.parameterized_routing_bits(),
            static_on_bits: r.param.static_on_bits(),
            dcs_cost: r.dcs_cost(),
            mdr_cost: r.mdr_cost(),
            wires: (0..modes).map(|m| r.wires_in_mode(m)).collect(),
            critical_paths,
            tunable: r.tunable.stats(),
        }))
    }
}

/// MDR routing and summary extraction on top of per-mode placements.
struct MdrSummarize {
    options: FlowOptions,
}

impl Stage for MdrSummarize {
    fn name(&self) -> &'static str {
        "mdr-summary"
    }

    fn params(&self) -> String {
        self.options.fingerprint()
    }

    fn output_kind(&self) -> ArtifactKind {
        ArtifactKind::Mdr
    }

    fn run(&self, input: &MultiModeInput, deps: &[Artifact]) -> Result<Artifact, FlowError> {
        let [Artifact::MdrPlacements(placements)] = deps else {
            return Err(FlowError::Internal(
                "mdr-summary expects one set of MDR placements".into(),
            ));
        };
        let r =
            MdrFlow::new(self.options).run_with_placements(input, placements.as_ref().clone())?;
        let modes = input.mode_count();
        Ok(Artifact::Mdr(MdrSummary {
            grid: r.arch.grid,
            channel_width: r.arch.channel_width,
            modes,
            mdr_cost: r.mdr_cost(),
            avg_diff_cost: r.average_diff_cost(),
            wires: (0..modes).map(|m| r.wires_in_mode(m)).collect(),
        }))
    }
}

/// The combined-comparison join: a routing-free fold of the three leg
/// summaries (MDR, DCS edge matching, DCS wire length), each routed on
/// its own fabric by the stage a plain job runs, plus the mode sizes.
struct Combine;

impl Stage for Combine {
    fn name(&self) -> &'static str {
        "combine"
    }

    fn params(&self) -> String {
        // Every option reaches the fold through its dependencies'
        // fingerprints; it has no parameters of its own.
        String::new()
    }

    fn output_kind(&self) -> ArtifactKind {
        ArtifactKind::Combined
    }

    fn run(&self, input: &MultiModeInput, deps: &[Artifact]) -> Result<Artifact, FlowError> {
        let [Artifact::Mdr(mdr), Artifact::Dcs(edge), Artifact::Dcs(wl)] = deps else {
            return Err(FlowError::Internal(
                "combine expects the MDR, DCS-edge and DCS-wl summaries".into(),
            ));
        };
        let mean = |w: &[usize]| w.iter().sum::<usize>() as f64 / w.len().max(1) as f64;
        Ok(Artifact::Combined(CombinedMetrics {
            name: String::new(),
            grid: mdr.grid,
            width_mdr: mdr.channel_width,
            width_edge: edge.channel_width,
            width_wirelength: wl.channel_width,
            mdr: mdr.mdr_cost,
            diff: mdr.avg_diff_cost,
            dcs_edge: edge.dcs_cost,
            dcs_wirelength: wl.dcs_cost,
            wires_mdr: mean(&mdr.wires),
            wires_edge: mean(&edge.wires),
            wires_wirelength: mean(&wl.wires),
            tunable_stats: wl.tunable,
            mode_luts: input.circuits().iter().map(|c| c.lut_count()).collect(),
        }))
    }
}

// ------------------------------------------------------- plan constructors

/// Compiles the DCS flow: one combined-placement node feeding one
/// route-and-summarize node.
#[must_use]
pub fn dcs_plan(input: MultiModeInput, options: FlowOptions, cost: CostKind) -> StagePlan {
    let mut b = PlanBuilder::new();
    let place = b.add(Box::new(PlaceDcs { options, cost }), vec![], "place-dcs");
    let root = b.add(
        Box::new(DcsSummarize { options, cost }),
        vec![place],
        "dcs-summary",
    );
    b.build(input, root)
}

/// Compiles the MDR baseline: one per-mode-annealing node feeding one
/// route-and-summarize node.
#[must_use]
pub fn mdr_plan(input: MultiModeInput, options: FlowOptions) -> StagePlan {
    let mut b = PlanBuilder::new();
    let place = b.add(Box::new(PlaceMdr { options }), vec![], "place-mdr");
    let root = b.add(
        Box::new(MdrSummarize { options }),
        vec![place],
        "mdr-summary",
    );
    b.build(input, root)
}

/// Compiles the full combined comparison to 7 nodes: the three
/// annealing legs feed the summary stages a plain `mdr`, `dcs-edge` and
/// `dcs` job runs on them, and the combine stage folds those summaries.
/// Every leg node fingerprints identically to its plain-plan twin, so
/// caches share placements *and* route results with plain jobs in both
/// directions.
#[must_use]
pub fn combined_plan(input: MultiModeInput, options: FlowOptions) -> StagePlan {
    let mut b = PlanBuilder::new();
    let place_mdr = b.add(Box::new(PlaceMdr { options }), vec![], "place-mdr");
    let place_edge = b.add(
        Box::new(PlaceDcs {
            options,
            cost: CostKind::EdgeMatching,
        }),
        vec![],
        "place-dcs-edge",
    );
    let place_wl = b.add(
        Box::new(PlaceDcs {
            options,
            cost: CostKind::WireLength,
        }),
        vec![],
        "place-dcs-wl",
    );
    let mdr = b.add(
        Box::new(MdrSummarize { options }),
        vec![place_mdr],
        "mdr-summary",
    );
    let edge = b.add(
        Box::new(DcsSummarize {
            options,
            cost: CostKind::EdgeMatching,
        }),
        vec![place_edge],
        "dcs-summary-edge",
    );
    let wl = b.add(
        Box::new(DcsSummarize {
            options,
            cost: CostKind::WireLength,
        }),
        vec![place_wl],
        "dcs-summary-wl",
    );
    let root = b.add(Box::new(Combine), vec![mdr, edge, wl], "combine");
    b.build(input, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_netlist::{LutCircuit, TruthTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Mutex;

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
                .add_lut(format!("n{j}"), ins, tt, rng.gen_bool(0.2))
                .unwrap();
            drivers.push(id);
        }
        for t in 0..3 {
            let d = drivers[drivers.len() - 1 - t];
            c.add_output(format!("o{t}"), d).unwrap();
        }
        c
    }

    fn small_input() -> MultiModeInput {
        MultiModeInput::new(vec![
            random_circuit("m0", 5, 12, 501),
            random_circuit("m1", 5, 13, 502),
        ])
        .unwrap()
    }

    fn quick() -> FlowOptions {
        let mut o = FlowOptions::default().with_fixed_width(12);
        o.placer.inner_num = 1.0;
        o.router.max_iterations = 30;
        o
    }

    #[test]
    fn combined_legs_share_fingerprints_with_plain_plans() {
        let options = quick();
        let combined = combined_plan(small_input(), options);
        let dcs_wl = dcs_plan(small_input(), options, CostKind::WireLength);
        let dcs_edge = dcs_plan(small_input(), options, CostKind::EdgeMatching);
        let mdr = mdr_plan(small_input(), options);
        let fp = |plan: &StagePlan, label: &str| {
            plan.nodes()
                .iter()
                .find(|n| n.label() == label)
                .unwrap()
                .fingerprint()
                .to_string()
        };
        // Labels differ, fingerprints agree: the pair↔plain sharing rule,
        // for the annealing legs and for the summaries routed on them.
        assert_eq!(fp(&combined, "place-mdr"), fp(&mdr, "place-mdr"));
        assert_eq!(fp(&combined, "place-dcs-wl"), fp(&dcs_wl, "place-dcs"));
        assert_eq!(fp(&combined, "place-dcs-edge"), fp(&dcs_edge, "place-dcs"));
        assert_eq!(fp(&combined, "mdr-summary"), mdr.root_fingerprint());
        assert_eq!(fp(&combined, "dcs-summary-wl"), dcs_wl.root_fingerprint());
        assert_eq!(
            fp(&combined, "dcs-summary-edge"),
            dcs_edge.root_fingerprint()
        );
        assert_eq!(combined.nodes().len(), 7);
        assert_ne!(
            fp(&combined, "place-dcs-wl"),
            fp(&combined, "place-dcs-edge")
        );
        // Roots separate the flavors.
        assert_ne!(combined.root_fingerprint(), dcs_wl.root_fingerprint());
        assert_ne!(mdr.root_fingerprint(), dcs_wl.root_fingerprint());
    }

    #[test]
    fn fingerprints_react_to_params_and_input() {
        let options = quick();
        let base = dcs_plan(small_input(), options, CostKind::WireLength);
        let mut routed = options;
        routed.router.max_iterations = 29;
        let rerouted = dcs_plan(small_input(), routed, CostKind::WireLength);
        // Placement nodes ignore router options; the summary does not.
        assert_eq!(
            base.nodes()[0].fingerprint(),
            rerouted.nodes()[0].fingerprint()
        );
        assert_ne!(base.root_fingerprint(), rerouted.root_fingerprint());

        let reseeded = dcs_plan(small_input(), options.with_seed(7), CostKind::WireLength);
        assert_ne!(
            base.nodes()[0].fingerprint(),
            reseeded.nodes()[0].fingerprint()
        );

        let other = MultiModeInput::new(vec![
            random_circuit("m0", 5, 12, 601),
            random_circuit("m1", 5, 13, 602),
        ])
        .unwrap();
        let moved = dcs_plan(other, options, CostKind::WireLength);
        assert_ne!(base.root_fingerprint(), moved.root_fingerprint());
    }

    #[test]
    fn dcs_plan_matches_direct_flow() {
        let options = quick();
        let run = dcs_plan(small_input(), options, CostKind::WireLength).execute(&NoHooks, 1);
        let Ok(Artifact::Dcs(summary)) = run.artifact else {
            panic!("expected a DCS summary");
        };
        let direct = DcsFlow::new(options).run(&small_input()).unwrap();
        assert_eq!(summary.channel_width, direct.arch.channel_width);
        assert_eq!(summary.param_bits, direct.parameterized_routing_bits());
        assert_eq!(summary.dcs_cost, direct.dcs_cost());
        assert_eq!(summary.critical_paths, None);
        assert_eq!(run.stages.len(), 2);
        assert!(run.stages.iter().all(|s| s.cache == CacheOutcome::Uncached));
    }

    /// Hooks that serve one pre-seeded node and log every store.
    struct SeededHooks {
        hit_label: String,
        artifact: Artifact,
        stored: Mutex<Vec<String>>,
    }

    impl PlanHooks for SeededHooks {
        fn lookup(&self, node: &PlanNode) -> Lookup {
            if node.label() == self.hit_label {
                Lookup::Hit(self.artifact.clone())
            } else {
                Lookup::Miss
            }
        }

        fn store(&self, node: &PlanNode, _artifact: &Artifact) {
            self.stored.lock().unwrap().push(node.label().to_string());
        }
    }

    #[test]
    fn root_hit_skips_every_dependency() {
        let options = quick();
        let plan = mdr_plan(small_input(), options);
        let direct = plan.execute(&NoHooks, 1);
        let Ok(root) = direct.artifact else {
            panic!("baseline run failed");
        };
        let hooks = SeededHooks {
            hit_label: "mdr-summary".into(),
            artifact: root,
            stored: Mutex::new(Vec::new()),
        };
        let run = plan.execute(&hooks, 1);
        assert!(matches!(run.artifact, Ok(Artifact::Mdr(_))));
        // Only the root was resolved; the placement was never demanded.
        assert_eq!(run.stages.len(), 1);
        assert_eq!(run.stages[0].cache, CacheOutcome::Hit);
        assert!(hooks.stored.lock().unwrap().is_empty());
    }

    #[test]
    fn placement_hit_skips_annealing_only() {
        let options = quick();
        let plan = dcs_plan(small_input(), options, CostKind::WireLength);
        let placement = DcsFlow::new(options).place(&small_input()).unwrap();
        let hooks = SeededHooks {
            hit_label: "place-dcs".into(),
            artifact: Artifact::CombinedPlacement(Arc::new(placement)),
            stored: Mutex::new(Vec::new()),
        };
        let run = plan.execute(&hooks, 1);
        let Ok(Artifact::Dcs(summary)) = run.artifact else {
            panic!("expected a DCS summary");
        };
        let direct = DcsFlow::new(options).run(&small_input()).unwrap();
        assert_eq!(summary.param_bits, direct.parameterized_routing_bits());
        assert_eq!(run.stages.len(), 2);
        assert_eq!(run.stages[0].cache, CacheOutcome::Hit);
        assert_eq!(run.stages[1].cache, CacheOutcome::Miss);
        // Only the summary was computed and offered for storage.
        assert_eq!(
            *hooks.stored.lock().unwrap(),
            vec!["dcs-summary".to_string()]
        );
    }

    #[test]
    fn wrong_kind_hit_is_recomputed_not_propagated() {
        let options = quick();
        let plan = mdr_plan(small_input(), options);
        let bogus = Artifact::CombinedPlacement(Arc::new(MultiPlacement { modes: Vec::new() }));
        let hooks = SeededHooks {
            hit_label: "place-mdr".into(),
            artifact: bogus,
            stored: Mutex::new(Vec::new()),
        };
        let run = plan.execute(&hooks, 1);
        assert!(run.artifact.is_ok(), "wrong-kind hit must fall back");
        assert!(run.stages.iter().all(|s| s.cache != CacheOutcome::Hit));
    }

    #[test]
    fn parallel_execution_is_deterministic() {
        let options = quick();
        let serial = combined_plan(small_input(), options).execute(&NoHooks, 1);
        let parallel = combined_plan(small_input(), options).execute(&NoHooks, 0);
        let (Ok(Artifact::Combined(a)), Ok(Artifact::Combined(b))) =
            (serial.artifact, parallel.artifact)
        else {
            panic!("both runs must succeed");
        };
        assert_eq!(a, b, "wave parallelism must not change the artifact");
    }

    #[test]
    fn failing_stage_reports_first_error_and_partial_telemetry() {
        let mut options = quick();
        options.max_width = 1;
        options.router.max_iterations = 2;
        let run = dcs_plan(small_input(), options, CostKind::WireLength).execute(&NoHooks, 1);
        let Err(e) = run.artifact else {
            panic!("width 1 must be unroutable");
        };
        assert!(matches!(e, FlowError::Unroutable { .. }), "{e}");
        // The placement succeeded, the summary failed — both resolved.
        assert_eq!(run.stages.len(), 2);
    }

    #[test]
    fn builder_rejects_dangling_deps() {
        let caught = std::panic::catch_unwind(|| {
            let mut b = PlanBuilder::new();
            b.add(Box::new(PlaceMdr { options: quick() }), vec![3], "dangling");
        });
        assert!(caught.is_err());
    }
}
