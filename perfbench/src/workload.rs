//! The workloads: which jobs each one runs, drawn from the seed alone,
//! and the checks and quality-of-result sums applied to their records.

use crate::stats::Rng;
use mm_engine::json::{self, Value};
use mm_engine::{FlowKind, Job};
use mm_flow::{FlowOptions, WidthChoice};
use mm_netlist::LutCircuit;
use mm_place::CostKind;

/// LUT width of every generated circuit.
pub const LUT_K: usize = 4;
/// Annealing effort (VPR `inner_num`) of every job.
pub const EFFORT: f64 = 1.0;
/// The pinned channel width of `fixed_width`: wide enough that every leg
/// of the drawn pairings routes on the first attempt.
pub const FIXED_WIDTH: usize = 32;
/// Worker threads of the in-process engine and of the serve daemon.
pub const WORKERS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DCS jobs on paper pairings at the paper's relaxed width.
    PaperRelaxed,
    /// Pair-flow jobs on paper pairings at a pinned channel width.
    FixedWidth,
    /// A warm `mmflow serve` daemon under an open-loop request mix.
    ServeWarm,
}

impl Workload {
    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_relaxed" => Some(Self::PaperRelaxed),
            "fixed_width" => Some(Self::FixedWidth),
            "serve_warm" => Some(Self::ServeWarm),
            _ => None,
        }
    }
}

/// A generated benchmark suite of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The five regular-expression engines.
    Regexp,
    /// The low-pass/high-pass FIR filter families.
    Fir,
    /// The five MCNC-class circuits.
    Mcnc,
}

impl Suite {
    /// The paper's multi-mode pairings of the suite, as indices into
    /// its circuits (the same pairings `suite:<name>` batches run).
    #[must_use]
    pub fn pairings(self) -> Vec<Vec<usize>> {
        match self {
            Suite::Regexp | Suite::Mcnc => mm_gen::all_tuples(mm_gen::SUITE_SIZE, 2),
            Suite::Fir => mm_gen::fir_mode_tuples(2),
        }
    }
}

/// `paper_relaxed`'s jobs: pairings of about the same cost (minimum
/// channel width 9–11 and 8–14 s per job at the flow's default placer
/// seed on a 2-CPU host) — regexp0+1, 0+4, 1+2, fir_lp8+fir_hp8 and
/// alu24+intc32. Other pairings take up to 44 s (plax+crc32p48).
const PAPER_RELAXED_JOBS: [(Suite, [usize; 2]); 5] = [
    (Suite::Regexp, [0, 1]),
    (Suite::Regexp, [0, 4]),
    (Suite::Regexp, [1, 2]),
    (Suite::Fir, [8, 18]),
    (Suite::Mcnc, [0, 4]),
];

/// One drawn job, before its circuits exist.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The suite the modes come from.
    pub suite: Suite,
    /// Mode indices into the suite.
    pub modes: Vec<usize>,
    /// The flow to run.
    pub flow: FlowKind,
    /// Placer seed.
    pub seed: u64,
    /// Channel-width policy.
    pub width: WidthChoice,
}

/// The generated paper suites a job list draws from.
#[derive(Debug, Default)]
pub struct Suites {
    regexp: Vec<LutCircuit>,
    fir: Vec<LutCircuit>,
    mcnc: Vec<LutCircuit>,
}

impl Suites {
    /// Generates and synthesises every suite the specs use.
    #[must_use]
    pub fn generate(specs: &[JobSpec]) -> Self {
        let uses = |s: Suite| specs.iter().any(|j| j.suite == s);
        Self {
            regexp: if uses(Suite::Regexp) {
                mm_gen::regexp_suite(LUT_K)
            } else {
                Vec::new()
            },
            fir: if uses(Suite::Fir) {
                mm_gen::fir_suite(LUT_K)
            } else {
                Vec::new()
            },
            mcnc: if uses(Suite::Mcnc) {
                mm_gen::mcnc_suite(LUT_K)
            } else {
                Vec::new()
            },
        }
    }

    fn circuits(&self, suite: Suite) -> &[LutCircuit] {
        match suite {
            Suite::Regexp => &self.regexp,
            Suite::Fir => &self.fir,
            Suite::Mcnc => &self.mcnc,
        }
    }

    /// LUTs over every generated circuit.
    #[must_use]
    pub fn luts(&self) -> usize {
        self.regexp
            .iter()
            .chain(&self.fir)
            .chain(&self.mcnc)
            .map(LutCircuit::lut_count)
            .sum()
    }
}

/// Flow options of a benchmark job: default flow with the workload's
/// effort, placer seed and width policy, one thread per job (what the
/// engine assigns every job of a batch wider than its worker count).
#[must_use]
pub fn job_options(seed: u64, width: WidthChoice) -> FlowOptions {
    let mut options = FlowOptions::default();
    options.placer.inner_num = EFFORT;
    options.placer.seed = seed;
    options.width = width;
    options.intra_parallelism = 1;
    options
}

/// `paper_relaxed`: 3 regexp, 1 fir and 1 mcnc DCS wire-length job at
/// the relaxed width and the flow's default placer seed; `seed` orders
/// them.
///
/// The jobs are fixed, so a seed changes no work: drawing pairings moved
/// the run's CPU time with the draw, and drawing placer seeds moves a
/// job's minimum width and with it the number of failed probes (22 %
/// between runs in the median job time). Five jobs rather than four, so
/// the median job is a regexp job (the fir job is faster, the mcnc job
/// slower) instead of an average across a suite boundary.
#[must_use]
pub fn paper_relaxed_specs(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, "paper_relaxed");
    let mut specs: Vec<JobSpec> = PAPER_RELAXED_JOBS
        .iter()
        .map(|&(suite, modes)| JobSpec {
            suite,
            modes: modes.to_vec(),
            flow: FlowKind::Dcs(CostKind::WireLength),
            seed: FlowOptions::default().placer.seed,
            width: WidthChoice::Relaxed,
        })
        .collect();
    rng.shuffle(&mut specs);
    specs
}

/// `fixed_width`'s draw: per suite, the pairings whose pair-flow job at
/// the pinned width and the default placer seed costs about the same CPU
/// time (regexp 1.3–1.7 s, fir 1.9–2.3 s, mcnc 3.2–3.8 s on a 2-vCPU
/// Xeon host; the others take up to 4.0 s), and how many are drawn. The
/// fir pool is drawn whole, so the median job, a fir job, is the same
/// job for every seed: drawing 7 of 8 moved it by up to 14 % with the
/// one left out (fir_lp7+fir_hp7, the cheapest, is now out of the pool).
/// The mcnc pool leaves out plax, whose pairings raised the peak RSS by
/// 10 %.
const FIXED_WIDTH_POOLS: [(Suite, &[[usize; 2]], usize); 3] = [
    (
        Suite::Regexp,
        &[
            [0, 1],
            [0, 2],
            [0, 3],
            [0, 4],
            [1, 2],
            [1, 3],
            [1, 4],
            [2, 4],
            [3, 4],
        ],
        3,
    ),
    (
        Suite::Fir,
        &[
            [0, 10],
            [1, 11],
            [2, 12],
            [3, 13],
            [4, 14],
            [8, 18],
            [9, 19],
        ],
        7,
    ),
    (Suite::Mcnc, &[[0, 2], [0, 4], [2, 3], [2, 4]], 2),
];

/// `fixed_width`: 3 regexp, 7 fir and 2 mcnc pair-flow jobs at the
/// pinned width and the flow's default placer seed; `seed` draws the
/// regexp and mcnc pairings (from [`FIXED_WIDTH_POOLS`]) and the order of
/// the regexp and fir jobs.
///
/// A drawn placer seed would move a job's CPU time by up to 40 %, and a
/// draw from all pairings by up to 60 %. The fir jobs sit in the middle
/// of the cost range and fill seven of the twelve slots, so the median
/// job is the middle fir job whatever the draw. The two mcnc jobs,
/// the largest, take slots 0 and 6, which the same worker runs (see
/// [`crate::batch::run_jobs`]): side by side they moved the peak RSS by
/// 10 % between seeds.
#[must_use]
pub fn fixed_width_specs(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, "fixed_width");
    let mut drawn = Vec::new();
    for (suite, pool, count) in FIXED_WIDTH_POOLS {
        let pool: Vec<[usize; 2]> = pool.to_vec();
        drawn.extend(rng.pick(&pool, count).into_iter().map(|modes| JobSpec {
            suite,
            modes: modes.to_vec(),
            flow: FlowKind::Pair,
            seed: FlowOptions::default().placer.seed,
            width: WidthChoice::Fixed(FIXED_WIDTH),
        }));
    }
    let (mut heavy, mut rest): (Vec<JobSpec>, Vec<JobSpec>) =
        drawn.into_iter().partition(|s| s.suite == Suite::Mcnc);
    rng.shuffle(&mut rest);
    let half = rest.len() / 2;
    let mut specs = vec![heavy.remove(0)];
    specs.extend(rest.drain(..half));
    specs.extend(heavy);
    specs.extend(rest);
    specs
}

/// Materialises job specs on generated suites. Jobs are named like the
/// `suite:<name>` batches name them (`regexp0+regexp3`).
#[must_use]
pub fn build_jobs(specs: &[JobSpec], suites: &Suites) -> Vec<Job> {
    specs
        .iter()
        .map(|spec| {
            let pool = suites.circuits(spec.suite);
            let circuits: Vec<LutCircuit> = spec.modes.iter().map(|&i| pool[i].clone()).collect();
            Job {
                name: circuits
                    .iter()
                    .map(|c| c.name().to_string())
                    .collect::<Vec<_>>()
                    .join("+"),
                circuits,
                flow: spec.flow,
                options: job_options(spec.seed, spec.width),
            }
        })
        .collect()
}

/// Quality-of-result sums over result records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Qor {
    /// Σ channel width over every leg of every record.
    pub width_sum: f64,
    /// Every `speedup*` field.
    pub speedups: Vec<f64>,
    /// Σ of every `wires*` field (arrays summed).
    pub wires_sum: f64,
}

impl Qor {
    /// Adds one `"status":"ok"` record line.
    ///
    /// # Errors
    ///
    /// Fails on a line that is not an ok result record.
    pub fn add_record(&mut self, line: &str) -> Result<(), String> {
        let record = json::parse(line).map_err(|e| format!("unparsable record: {e}"))?;
        let Some(Value::Obj(fields)) = record.get("metrics") else {
            return Err(format!("record without metrics: {line}"));
        };
        for (key, value) in fields {
            let number = || value.as_f64().ok_or(format!("non-numeric {key} in {line}"));
            if key == "channel_width" || key.starts_with("width_") {
                self.width_sum += number()?;
            } else if key.starts_with("speedup") {
                self.speedups.push(number()?);
            } else if key.starts_with("wires") {
                self.wires_sum += match value.as_arr() {
                    Some(items) => items.iter().filter_map(Value::as_f64).sum(),
                    None => number()?,
                };
            }
        }
        Ok(())
    }

    /// Geometric mean of the speed-ups.
    #[must_use]
    pub fn speedup_geomean(&self) -> f64 {
        crate::stats::geomean(&self.speedups)
    }
}

fn cost_total(v: &Value) -> Option<f64> {
    Some(v.get("lut_bits")?.as_f64()? + v.get("routing_bits")?.as_f64()?)
}

fn same(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(1.0)
}

/// Checks one result record for job `name`: it must be an ok record of
/// the expected flow whose derived fields agree with its costs — every
/// speed-up equals the MDR bits over the DCS bits, DCS and MDR rewrite
/// the same LUT bits, DCS parameterizes fewer routing bits than MDR
/// rewrites — and whose channel widths respect the width policy.
///
/// # Errors
///
/// Returns the first violation.
pub fn check_record(
    line: &str,
    name: &str,
    flow: FlowKind,
    width: WidthChoice,
) -> Result<(), String> {
    let r = json::parse(line).map_err(|e| format!("unparsable record: {e}"))?;
    let bad = |what: &str| Err(format!("{name}: {what}: {line}"));
    if r.get("name").and_then(Value::as_str) != Some(name) {
        return bad("wrong job name");
    }
    if r.get("flow").and_then(Value::as_str) != Some(flow.name().as_str()) {
        return bad("wrong flow");
    }
    if r.get("status").and_then(Value::as_str) != Some("ok") {
        return bad("job failed");
    }
    let m = r.get("metrics").ok_or("no metrics")?;
    let num = |k: &str| m.get(k).and_then(Value::as_f64);
    let (checks, widths): (Vec<(f64, f64, f64)>, Vec<f64>) =
        match m.get("kind").and_then(Value::as_str) {
            Some("dcs") => {
                let (mdr, dcs) = (
                    m.get("mdr_cost").and_then(cost_total),
                    m.get("dcs_cost").and_then(cost_total),
                );
                let (Some(mdr), Some(dcs), Some(s)) = (mdr, dcs, num("speedup")) else {
                    return bad("incomplete dcs metrics");
                };
                if m.get("dcs_cost")
                    .and_then(|c| c.get("routing_bits"))
                    .and_then(Value::as_f64)
                    != num("param_bits")
                {
                    return bad("dcs routing bits differ from param_bits");
                }
                (
                    vec![(s, mdr, dcs)],
                    vec![num("channel_width").unwrap_or(0.0)],
                )
            }
            Some("mdr") => (Vec::new(), vec![num("channel_width").unwrap_or(0.0)]),
            Some("pair") => {
                let mdr = m.get("mdr").and_then(cost_total);
                let edge = m.get("dcs_edge").and_then(cost_total);
                let wl = m.get("dcs_wirelength").and_then(cost_total);
                let (Some(mdr), Some(edge), Some(wl), Some(se), Some(sw)) = (
                    mdr,
                    edge,
                    wl,
                    num("speedup_edge"),
                    num("speedup_wirelength"),
                ) else {
                    return bad("incomplete pair metrics");
                };
                (
                    vec![(se, mdr, edge), (sw, mdr, wl)],
                    ["width_mdr", "width_edge", "width_wirelength"]
                        .iter()
                        .map(|k| num(k).unwrap_or(0.0))
                        .collect(),
                )
            }
            _ => return bad("unknown record kind"),
        };
    for (speedup, mdr, dcs) in checks {
        if !same(speedup, mdr / dcs) {
            return bad("speedup is not MDR bits over DCS bits");
        }
        if speedup <= 1.0 {
            return bad("DCS does not beat MDR");
        }
    }
    let min_width = match width {
        WidthChoice::Fixed(w) => w as f64,
        WidthChoice::Relaxed => 2.0,
    };
    if widths.iter().any(|&w| w < min_width) {
        return bad("channel width below the width policy");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_seeded() {
        assert_eq!(paper_relaxed_specs(3), paper_relaxed_specs(3));
        assert_eq!(fixed_width_specs(3), fixed_width_specs(3));
        let count = |suite| {
            paper_relaxed_specs(1)
                .iter()
                .filter(|s| s.suite == suite)
                .count()
        };
        assert_eq!(
            (count(Suite::Regexp), count(Suite::Fir), count(Suite::Mcnc)),
            (3, 1, 1)
        );
        let fixed = fixed_width_specs(1);
        assert_eq!(fixed.len(), 12);
        let mcnc: Vec<usize> = (0..12).filter(|&i| fixed[i].suite == Suite::Mcnc).collect();
        assert_eq!(mcnc, [0, 6]);
        let sorted = |specs: Vec<JobSpec>| {
            let mut modes: Vec<(u8, Vec<usize>)> = specs
                .into_iter()
                .map(|s| (s.suite as u8, s.modes))
                .collect();
            modes.sort();
            modes
        };
        // paper_relaxed: other seeds, other orders of the same jobs.
        assert_ne!(paper_relaxed_specs(1), paper_relaxed_specs(2));
        for s in 2..=10 {
            assert_eq!(
                sorted(paper_relaxed_specs(1)),
                sorted(paper_relaxed_specs(s))
            );
        }
        // fixed_width: other seeds draw other pairings.
        let sets: std::collections::BTreeSet<_> =
            (1..=10).map(|s| sorted(fixed_width_specs(s))).collect();
        assert!(sets.len() > 5);
    }

    #[test]
    fn jobs_are_paper_pairings() {
        let all = PAPER_RELAXED_JOBS
            .iter()
            .map(|&(suite, modes)| (suite, modes))
            .chain(
                FIXED_WIDTH_POOLS
                    .iter()
                    .flat_map(|&(suite, pool, _)| pool.iter().map(move |&modes| (suite, modes))),
            );
        for (suite, modes) in all {
            assert!(
                suite.pairings().contains(&modes.to_vec()),
                "{suite:?} {modes:?}"
            );
        }
    }

    #[test]
    fn qor_sums_every_leg() {
        let mut q = Qor::default();
        q.add_record(r#"{"name":"a","flow":"dcs","status":"ok","metrics":{"kind":"dcs","channel_width":12,"speedup":4.0,"wires":[10,20]}}"#)
            .unwrap();
        q.add_record(r#"{"name":"b","flow":"pair","status":"ok","metrics":{"kind":"pair","width_mdr":10,"width_edge":11,"width_wirelength":12,"speedup_edge":2.0,"speedup_wirelength":8.0,"wires_mdr":1.5,"wires_edge":2.5,"wires_wirelength":3.0}}"#)
            .unwrap();
        assert_eq!(q.width_sum, 45.0);
        assert_eq!(q.wires_sum, 37.0);
        assert!((q.speedup_geomean() - 4.0).abs() < 1e-12);
    }
}
