//! Shared experiment driver for the benchmark binaries.
//!
//! `experiments` regenerates the paper's evaluation in one pass (Table I,
//! Figures 5–7 and the §IV-C area statement), running every pair once
//! through the batch engine; `table1` prints Table I alone, and
//! `ablation` and `extensions` measure the extras. All binaries accept:
//!
//! * `--quick` — light annealing and a capped router effort (fast smoke
//!   run);
//! * `--set regexp|fir|mcnc` — restrict to one benchmark set;
//! * `--pairs N` — only the first N pairs per set.

#![forbid(unsafe_code)]

pub mod perf;

use mm_engine::{Engine, EngineOptions, FlowKind, Job, JobOutcome};
use mm_flow::{FlowOptions, PairMetrics, Stats};
use mm_netlist::LutCircuit;
use std::path::PathBuf;

/// The three benchmark sets of the paper (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchmarkSet {
    /// Regular-expression matching engines.
    RegExp,
    /// Adaptive filtering (low-pass + high-pass FIR pairs).
    Fir,
    /// General MCNC-class circuits.
    Mcnc,
}

impl BenchmarkSet {
    /// All three sets in paper order.
    pub const ALL: [BenchmarkSet; 3] =
        [BenchmarkSet::RegExp, BenchmarkSet::Fir, BenchmarkSet::Mcnc];

    /// Display name as used in the figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkSet::RegExp => "RegExp",
            BenchmarkSet::Fir => "FIR",
            BenchmarkSet::Mcnc => "MCNC",
        }
    }

    /// The generated suite behind the set.
    fn suite(self) -> mm_gen::Suite {
        match self {
            BenchmarkSet::RegExp => mm_gen::Suite::RegExp,
            BenchmarkSet::Fir => mm_gen::Suite::Fir,
            BenchmarkSet::Mcnc => mm_gen::Suite::Mcnc,
        }
    }

    /// The suite circuits (mapped to 4-LUTs).
    #[must_use]
    pub fn circuits(self) -> Vec<LutCircuit> {
        self.suite().circuits(4)
    }

    /// The multi-mode pairings of the suite (the paper's N = 2 case of
    /// [`BenchmarkSet::tuples`]).
    #[must_use]
    pub fn pairs(self) -> Vec<(usize, usize)> {
        self.tuples(2).into_iter().map(|t| (t[0], t[1])).collect()
    }

    /// The `modes`-ary combinations of the suite
    /// ([`mm_gen::Suite::tuples`]).
    ///
    /// # Panics
    ///
    /// Panics on mode counts the suite cannot supply (mirroring the
    /// engine's `suite_jobs_n` validation) — a bench binary silently
    /// iterating zero or differently-sized problems would report
    /// nothing wrong while measuring the wrong workload.
    #[must_use]
    pub fn tuples(self, modes: usize) -> Vec<Vec<usize>> {
        let tuples = self.suite().tuples(modes);
        assert!(
            modes >= 2 && tuples.first().is_some_and(|t| t.len() == modes),
            "suite {} cannot form {modes}-mode problems",
            self.name()
        );
        tuples
    }
}

/// Command-line configuration shared by the binaries.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Restrict to one set (`None` = all three).
    pub set: Option<BenchmarkSet>,
    /// Cap on pairs per set.
    pub max_pairs: usize,
    /// Flow options (quick vs paper-mode).
    pub options: FlowOptions,
    /// Whether `--quick` was given.
    pub quick: bool,
    /// Engine worker threads (`0` = one per CPU, `1` = serial).
    pub threads: usize,
    /// Stage-cache directory for the engine (`--cache DIR`).
    pub cache: Option<PathBuf>,
    /// Also run the suite strictly serially and print the measured
    /// wall-clock comparison (`--compare-serial`).
    pub compare_serial: bool,
}

impl RunConfig {
    /// Parses `std::env::args`-style arguments (without the binary name).
    ///
    /// # Panics
    ///
    /// Panics (with usage help) on unknown arguments.
    #[must_use]
    pub fn from_args(args: impl Iterator<Item = String>) -> Self {
        let mut config = Self {
            set: None,
            max_pairs: usize::MAX,
            options: paper_options(),
            quick: false,
            threads: 0,
            cache: None,
            compare_serial: false,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => {
                    config.quick = true;
                    config.options = quick_options();
                }
                "--threads" => {
                    config.threads = args
                        .next()
                        .expect("--threads needs a value")
                        .parse()
                        .expect("--threads needs a number");
                }
                "--cache" => {
                    config.cache = Some(args.next().expect("--cache needs a directory").into());
                }
                "--compare-serial" => config.compare_serial = true,
                "--set" => {
                    let v = args.next().expect("--set needs a value");
                    config.set = Some(match v.as_str() {
                        "regexp" => BenchmarkSet::RegExp,
                        "fir" => BenchmarkSet::Fir,
                        "mcnc" => BenchmarkSet::Mcnc,
                        other => panic!("unknown set '{other}' (regexp|fir|mcnc)"),
                    });
                }
                "--pairs" => {
                    config.max_pairs = args
                        .next()
                        .expect("--pairs needs a value")
                        .parse()
                        .expect("--pairs needs a number");
                }
                "--seed" => {
                    config.options.placer.seed = args
                        .next()
                        .expect("--seed needs a value")
                        .parse()
                        .expect("--seed needs a number");
                }
                other => {
                    panic!(
                        "unknown argument '{other}' (try --quick, --set, --pairs, --seed, \
                         --threads, --cache, --compare-serial)"
                    )
                }
            }
        }
        config
    }

    /// The sets this run covers.
    #[must_use]
    pub fn sets(&self) -> Vec<BenchmarkSet> {
        match self.set {
            Some(s) => vec![s],
            None => BenchmarkSet::ALL.to_vec(),
        }
    }

    /// Builds the batch engine this configuration asks for.
    ///
    /// # Panics
    ///
    /// Panics if the cache directory cannot be created.
    #[must_use]
    pub fn engine(&self) -> Engine {
        Engine::new(EngineOptions {
            threads: self.threads,
            cache_dir: self.cache.clone(),
            ..Default::default()
        })
        .expect("engine cache directory")
    }
}

/// Paper-mode options: relaxed (min+20%) widths, VPR-ish annealing effort.
#[must_use]
pub fn paper_options() -> FlowOptions {
    let mut options = FlowOptions::default();
    options.placer.inner_num = 5.0;
    options
}

/// Quick options: light annealing and a capped router effort — for smoke
/// runs and CI. Widths stay auto-sized (min + 20%), which is what keeps
/// every pair routable.
#[must_use]
pub fn quick_options() -> FlowOptions {
    let mut options = FlowOptions::default();
    options.placer.inner_num = 1.0;
    options.router.max_iterations = 30;
    options
}

/// The multi-mode pairings of a set as engine jobs (full `run_pair`
/// comparisons, named `<a>+<b>`).
#[must_use]
pub fn pair_jobs(set: BenchmarkSet, config: &RunConfig) -> Vec<Job> {
    let circuits = set.circuits();
    set.pairs()
        .into_iter()
        .take(config.max_pairs)
        .map(|(i, j)| Job {
            name: format!("{}+{}", circuits[i].name(), circuits[j].name()),
            circuits: vec![circuits[i].clone(), circuits[j].clone()],
            flow: FlowKind::Pair,
            options: config.options,
        })
        .collect()
}

/// Runs every pair of a set through the batch engine (parallel, cached)
/// and returns the metrics plus the engine's execution report (for
/// wall-clock and cache accounting), logging each pair's progress.
///
/// Failed pairs are reported and skipped: a pair can defeat one of the
/// flows (edge matching can produce unroutable congestion on dissimilar
/// circuits), and the rest of the set still runs.
#[must_use]
pub fn run_set_engine(
    set: BenchmarkSet,
    config: &RunConfig,
    engine: &Engine,
) -> (Vec<PairMetrics>, mm_engine::BatchReport) {
    let jobs = pair_jobs(set, config);
    let report = engine.run_streamed(jobs, |r| match &r.outcome {
        Ok(JobOutcome::Pair(m)) => {
            eprintln!(
                "  [{}] {}: speedup wl {:.2} edge {:.2}, wires wl {:.0}% edge {:.0}%",
                set.name(),
                r.name,
                m.speedup_wirelength(),
                m.speedup_edge(),
                100.0 * m.wire_ratio_wirelength(),
                100.0 * m.wire_ratio_edge(),
            );
        }
        Ok(_) => {}
        Err(e) => eprintln!("  [{}] {}: SKIPPED ({e})", set.name(), r.name),
    });
    let metrics = report
        .results
        .iter()
        .filter_map(|r| match &r.outcome {
            Ok(JobOutcome::Pair(m)) => Some(m.clone()),
            _ => None,
        })
        .collect();
    (metrics, report)
}

/// Fig. 5 row: speed-up statistics per set.
#[must_use]
pub fn fig5_row(set: BenchmarkSet, metrics: &[PairMetrics]) -> Vec<String> {
    let edge = Stats::of(
        &metrics
            .iter()
            .map(PairMetrics::speedup_edge)
            .collect::<Vec<_>>(),
    );
    let wl = Stats::of(
        &metrics
            .iter()
            .map(PairMetrics::speedup_wirelength)
            .collect::<Vec<_>>(),
    );
    vec![
        set.name().to_string(),
        "1.00x".to_string(),
        format!("{:.2}x [{:.2}..{:.2}]", edge.mean, edge.min, edge.max),
        format!("{:.2}x [{:.2}..{:.2}]", wl.mean, wl.min, wl.max),
    ]
}

/// Fig. 6 rows: LUT/routing contribution for MDR, Diff and DCS(-wl).
#[must_use]
pub fn fig6_rows(set: BenchmarkSet, metrics: &[PairMetrics]) -> Vec<Vec<String>> {
    let mean = |f: &dyn Fn(&PairMetrics) -> (usize, usize)| -> (f64, f64) {
        let n = metrics.len().max(1) as f64;
        let (l, r) = metrics
            .iter()
            .map(f)
            .fold((0usize, 0usize), |(al, ar), (l, r)| (al + l, ar + r));
        (l as f64 / n, r as f64 / n)
    };
    type BitsExtractor = Box<dyn Fn(&PairMetrics) -> (usize, usize)>;
    let scenarios: [(&str, BitsExtractor); 3] = [
        (
            "MDR",
            Box::new(|m: &PairMetrics| (m.mdr.lut_bits, m.mdr.routing_bits)),
        ),
        (
            "Diff",
            Box::new(|m: &PairMetrics| (m.diff.lut_bits, m.diff.routing_bits)),
        ),
        (
            "DCS",
            Box::new(|m: &PairMetrics| (m.dcs_wirelength.lut_bits, m.dcs_wirelength.routing_bits)),
        ),
    ];
    scenarios
        .iter()
        .map(|(label, f)| {
            let (l, r) = mean(&**f);
            let total = l + r;
            vec![
                format!("{}-{}", set.name(), label),
                format!("{l:.0}"),
                format!("{r:.0}"),
                format!("{:.1}%", 100.0 * l / total),
                format!("{:.1}%", 100.0 * r / total),
            ]
        })
        .collect()
}

/// Fig. 7 row: per-mode wire usage relative to MDR.
#[must_use]
pub fn fig7_row(set: BenchmarkSet, metrics: &[PairMetrics]) -> Vec<String> {
    let edge = Stats::of(
        &metrics
            .iter()
            .map(|m| 100.0 * m.wire_ratio_edge())
            .collect::<Vec<_>>(),
    );
    let wl = Stats::of(
        &metrics
            .iter()
            .map(|m| 100.0 * m.wire_ratio_wirelength())
            .collect::<Vec<_>>(),
    );
    vec![
        set.name().to_string(),
        "100%".to_string(),
        format!("{:.0}% [{:.0}..{:.0}]", edge.mean, edge.min, edge.max),
        format!("{:.0}% [{:.0}..{:.0}]", wl.mean, wl.min, wl.max),
    ]
}

/// Table I row: min/avg/max LUT counts of a suite.
#[must_use]
pub fn table1_row(set: BenchmarkSet) -> Vec<String> {
    let sizes: Vec<usize> = set.circuits().iter().map(LutCircuit::lut_count).collect();
    let stats = Stats::of_usize(&sizes);
    vec![
        set.name().to_string(),
        format!("{:.0}", stats.min),
        format!("{:.0}", stats.mean),
        format!("{:.0}", stats.max),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let c = RunConfig::from_args(
            [
                "--quick",
                "--set",
                "fir",
                "--pairs",
                "2",
                "--seed",
                "7",
                "--threads",
                "3",
                "--cache",
                "/tmp/c",
                "--compare-serial",
            ]
            .iter()
            .map(ToString::to_string),
        );
        assert!(c.quick);
        assert_eq!(c.set, Some(BenchmarkSet::Fir));
        assert_eq!(c.max_pairs, 2);
        assert_eq!(c.options.placer.seed, 7);
        assert_eq!(c.sets(), vec![BenchmarkSet::Fir]);
        assert_eq!(c.threads, 3);
        assert_eq!(c.cache, Some(std::path::PathBuf::from("/tmp/c")));
        assert!(c.compare_serial);
    }

    #[test]
    fn pair_jobs_cover_the_pairings() {
        let mut config = RunConfig::from_args(["--quick".to_string()].into_iter());
        config.max_pairs = 2;
        let jobs = pair_jobs(BenchmarkSet::RegExp, &config);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "regexp0+regexp1");
        assert_eq!(jobs[0].circuits.len(), 2);
        assert!(matches!(jobs[0].flow, FlowKind::Pair));
    }

    #[test]
    fn default_covers_all_sets() {
        let c = RunConfig::from_args(std::iter::empty());
        assert_eq!(c.sets().len(), 3);
        assert!(!c.quick);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn rejects_unknown_arguments() {
        let _ = RunConfig::from_args(["--bogus".to_string()].into_iter());
    }

    #[test]
    fn pairings_match_paper() {
        assert_eq!(BenchmarkSet::RegExp.pairs().len(), 10);
        assert_eq!(BenchmarkSet::Fir.pairs().len(), 10);
        assert_eq!(BenchmarkSet::Mcnc.pairs().len(), 10);
    }
}
