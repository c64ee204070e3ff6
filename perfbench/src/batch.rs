//! The batch workloads (`paper_relaxed`, `fixed_width`): jobs run through
//! the in-process `mm_engine::Engine` — the engine `mmflow batch` runs —
//! on a fixed number of worker threads, each job timed from outside.

use crate::report::{EndToEnd, Report, ServeLayers};
use crate::stats::{median, peak_rss_mb};
use crate::trace::{rederive, JobTrace, Layer, LayerTimes};
use crate::workload::{self, build_jobs, check_record, JobSpec, Qor, Suites, Workload, WORKERS};
use crate::{cpu, speed};
use mm_engine::{Engine, EngineOptions, Job};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// One executed job.
#[derive(Debug, Clone)]
pub struct Executed {
    /// Index into the job list.
    pub index: usize,
    /// When `Engine::execute_job` was called.
    pub start: Instant,
    /// Wall time around `Engine::execute_job`.
    pub wall: Duration,
    /// CPU seconds of the worker thread around `Engine::execute_job`
    /// (the engine runs a job's whole stage plan on the calling thread).
    pub cpu: f64,
    /// The CPU the worker thread is bound to.
    pub core: usize,
    /// The result record line.
    pub line: String,
}

/// What the set-up produced: the jobs and the engine that runs them.
pub struct Setup {
    /// The drawn job specs.
    pub specs: Vec<JobSpec>,
    /// The materialised jobs.
    pub jobs: Vec<Job>,
    /// The in-process engine (cache and memo off).
    pub engine: Engine,
    /// LUTs of the generated circuits.
    pub luts: usize,
}

/// Draws the workload's jobs, generates and synthesises their circuits
/// and builds the engine.
///
/// # Panics
///
/// Panics if the engine cannot be built without a cache (it cannot fail).
#[must_use]
pub fn setup(workload: Workload, seed: u64) -> Setup {
    let specs = match workload {
        Workload::PaperRelaxed => workload::paper_relaxed_specs(seed),
        Workload::FixedWidth => workload::fixed_width_specs(seed),
        Workload::ServeWarm => unreachable!("serve_warm is not a batch workload"),
    };
    let suites = Suites::generate(&specs);
    let jobs = build_jobs(&specs, &suites);
    let engine = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: None,
        result_memo: 0,
    })
    .expect("an engine without a cache always builds");
    Setup {
        specs,
        jobs,
        engine,
        luts: suites.luts(),
    }
}

/// Runs jobs on one thread per entry of `cores`, bound to that CPU,
/// until `budget` has passed and every job ran at least once: worker `w`
/// runs slots `w`, `w + workers`, … of the list, cycling. Which jobs
/// share a thread, and so a malloc arena, is fixed: taking the next job
/// from a shared queue moved the peak RSS of the same jobs by up to 14 %
/// between runs. Returns the executions in completion order.
pub fn run_jobs(engine: &Engine, jobs: &[Job], cores: &[usize], budget: Duration) -> Vec<Executed> {
    let workers = cores.len();
    let done = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (w, &core) in cores.iter().enumerate() {
            let done = &done;
            s.spawn(move || {
                cpu::pin(core);
                for i in (w..).step_by(workers) {
                    if i >= jobs.len() && t0.elapsed() >= budget {
                        break;
                    }
                    let job = &jobs[i % jobs.len()];
                    let (t, c) = (Instant::now(), cpu::thread());
                    let result = engine.execute_job(job);
                    let (wall, cpu) = (t.elapsed(), cpu::thread() - c);
                    done.lock()
                        .expect("no worker panics holding the lock")
                        .push(Executed {
                            index: i % jobs.len(),
                            start: t,
                            wall,
                            cpu,
                            core,
                            line: result.to_json_line(),
                        });
                }
            });
        }
    });
    done.into_inner().expect("workers joined")
}

/// Checks every execution and returns the first record of each job, the
/// failure count, the problems and the indices of the failed
/// executions: a record that fails [`check_record`], or a repeat whose
/// bytes differ from the job's first execution, is a failure.
fn check(
    setup: &Setup,
    executed: &[Executed],
) -> (Vec<Option<String>>, u64, Vec<String>, Vec<usize>) {
    let mut first: Vec<Option<String>> = vec![None; setup.jobs.len()];
    let mut failed = 0u64;
    let mut problems = Vec::new();
    let mut bad = Vec::new();
    for (i, e) in executed.iter().enumerate() {
        let job = &setup.jobs[e.index];
        let spec = &setup.specs[e.index];
        let verdict = match &first[e.index] {
            Some(line) if *line != e.line => {
                Err(format!("{}: repeat differs from first run", job.name))
            }
            Some(_) => Ok(()),
            None => {
                first[e.index] = Some(e.line.clone());
                check_record(&e.line, &job.name, job.flow, spec.width)
            }
        };
        if let Err(problem) = verdict {
            failed += 1;
            problems.push(problem);
            bad.push(i);
        }
    }
    (first, failed, problems, bad)
}

/// Share of a timed phase's process CPU time allowed outside the job
/// threads' own clocks and the speed probe (plus 0.05 s for starting the
/// workers). More means the engine ran job work on other threads, where
/// the per-job clocks do not see it, and fails the run.
const OUTSIDE_JOBS_BAND: f64 = 0.1;

/// One untraced run: set up (median of several), run the timed phase,
/// check every record and report the end-to-end metrics. Times are CPU
/// times at the reference host speed ([`crate::speed`]); the wall
/// figures go to standard error.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Report {
    let mut setup_cpu = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let (s, spent) = speed::bracket(|| {
            let c = cpu::process();
            let s = setup(workload, seed);
            (s, cpu::process() - c)
        });
        built = Some(s);
        setup_cpu.push(spent);
    }
    let setup = built.expect("at least one set-up");
    // `paper_relaxed` runs its five jobs once (they outlast any budget);
    // `fixed_width` keeps cycling through its list for `seconds`.
    let budget = match workload {
        Workload::FixedWidth => Duration::from_secs_f64(seconds),
        _ => Duration::ZERO,
    };
    let cores = speed::worker_cpus(WORKERS);
    let probe = speed::probe(&cores);
    let (t, c) = (Instant::now(), cpu::process());
    let executed = run_jobs(&setup.engine, &setup.jobs, &cores, budget);
    let (phase_wall, phase_cpu) = (t.elapsed().as_secs_f64(), cpu::process() - c);
    let samples = probe.finish();

    let (first, failed, mut problems, bad) = check(&setup, &executed);
    let jobs_cpu: f64 = executed.iter().map(|e| e.cpu).sum();
    if phase_cpu - samples.cpu_s() > jobs_cpu * (1.0 + OUTSIDE_JOBS_BAND) + 0.05 {
        problems.push(format!(
            "the timed phase used {phase_cpu:.2} CPU s, its job threads {jobs_cpu:.2}: \
             job work ran on threads the per-job CPU clocks do not see"
        ));
    }

    let mut qor = Qor::default();
    for line in first.iter().flatten() {
        // Checked records always parse; a failure was counted above.
        let _ = qor.add_record(line);
    }
    // Each job counts once, at the median of its executions, so repeats
    // refine its figure instead of weighting the job mix.
    let mut job_ok = vec![true; setup.jobs.len()];
    for &i in &bad {
        job_ok[executed[i].index] = false;
    }
    let per_job = cpu_by_job(&samples, &executed, setup.jobs.len());
    let ok_jobs = job_ok.iter().filter(|&&ok| ok).count();
    let attempted = executed.len() as u64;
    let walls: Vec<f64> = executed.iter().map(|e| e.wall.as_secs_f64()).collect();
    eprintln!(
        "perfbench: wall: {} jobs in {phase_wall:.2} s, job p50 {:.3} s; \
         CPU: {phase_cpu:.2} s ({:.0} % of {WORKERS} CPUs); kernel {:.3} ms",
        executed.len(),
        median(&walls),
        100.0 * phase_cpu / (phase_wall * WORKERS as f64),
        1e3 * samples.kernel_s(t, t + Duration::from_secs_f64(phase_wall))
    );
    eprintln!(
        "perfbench: job CPU s at the reference speed: {}",
        setup
            .jobs
            .iter()
            .zip(&per_job)
            .map(|(job, s)| format!("{} {s:.3}", job.name))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut report = Report::new(attempted, failed, problems);
    report.end_to_end(&EndToEnd {
        setup_s: median(&setup_cpu),
        jobs_per_cpu_s: ok_jobs as f64 / per_job.iter().sum::<f64>(),
        // The median job: five and twelve jobs are too few for a tail.
        // A job's own run time, not its place in the queue (every job of
        // a batch is due at once), without the steal.
        op_time_ms: 1e3 * median(&per_job),
        peak_rss_mb: peak_rss_mb(None).unwrap_or(f64::NAN),
        qor,
    });
    report
}

/// Each job's CPU seconds at the reference host speed (see
/// [`crate::speed`]): the median over its executions, each scaled by the
/// kernel samples taken on its CPU while it ran.
#[must_use]
pub fn cpu_by_job(samples: &speed::Samples, executed: &[Executed], jobs: usize) -> Vec<f64> {
    (0..jobs)
        .map(|j| {
            let runs: Vec<f64> = executed
                .iter()
                .filter(|e| e.index == j)
                .map(|e| {
                    let kernel = samples.kernel_on(e.core, e.start, e.start + e.wall);
                    speed::scale(e.cpu, kernel)
                })
                .collect();
            median(&runs)
        })
        .collect()
}

/// The traced run: every job once through the engine (untraced, timed
/// from outside), then once re-derived through the layer calls with
/// spans. A re-derived record that differs from the engine's, or a
/// re-derivation whose CPU time strays from the engine's by more than
/// [`OVERHEAD_BAND`], fails the run.
#[must_use]
pub fn run_traced(workload: Workload, seed: u64) -> Report {
    let gen_t = Instant::now();
    let setup = setup(workload, seed);
    let gen_s = gen_t.elapsed().as_secs_f64();

    let cores = speed::worker_cpus(WORKERS);
    let probe = speed::probe(&cores);
    let executed = run_jobs(&setup.engine, &setup.jobs, &cores, Duration::ZERO);
    let (first, mut failed, mut problems, _) = check(&setup, &executed);
    let (traces, mismatches) = rederive_checked(&setup.jobs, &first, WORKERS);
    let samples = probe.finish();
    failed += mismatches.len() as u64;
    problems.extend(mismatches);
    let untraced = cpu_by_job(&samples, &executed, setup.jobs.len());
    let (overhead, stray) = overhead(&untraced, &traces, &samples);
    problems.extend(stray);
    let times = LayerTimes::from_traces(&traces);

    let mut report = Report::new(executed.len() as u64, failed, problems);
    report.layers(gen_s, setup.luts, &times, overhead);
    report.engine_calls(&setup.jobs, &first);
    report.serve_layers(&ServeLayers::default());
    report
}

/// Largest share by which the re-derived jobs' CPU time may differ from
/// the same jobs' CPU time through the engine. The re-derivation repeats
/// the flow's calls, so a larger gap means the program now does other
/// work (a changed width search, say) and the layer figures describe a
/// stale copy of the flow.
pub const OVERHEAD_BAND: f64 = 0.25;
/// Smallest CPU time of the jobs through the engine that the guard
/// compares. Single jobs of a few seconds differed by up to 25 % between
/// the two passes (heap warm-up, co-running jobs), and on `serve_warm`'s
/// primed jobs, 0.3 s in all, the trace's own bookkeeping is 10–20 %.
const MIN_COMPARED_CPU_S: f64 = 5.0;

/// `trace.overhead` — Σ re-derived ÷ Σ engine CPU time, minus 1 — and a
/// problem if it lies outside [`OVERHEAD_BAND`] while the jobs take at
/// least [`MIN_COMPARED_CPU_S`] through the engine. `untraced[i]` is job
/// `i`'s CPU time through the engine at the reference host speed;
/// `samples` scale the re-derivations' CPU times to it.
#[must_use]
pub fn overhead(
    untraced: &[f64],
    traces: &[JobTrace],
    samples: &speed::Samples,
) -> (f64, Option<String>) {
    let traced: f64 = traces
        .iter()
        .map(|t| {
            let (from, to) = t.window();
            speed::scale(t.cpu, samples.kernel_s(from, to))
        })
        .sum();
    let engine: f64 = untraced.iter().sum();
    let r = traced / engine - 1.0;
    let problem = (engine >= MIN_COMPARED_CPU_S && r.abs() > OVERHEAD_BAND).then(|| {
        format!(
            "the jobs re-derived in {traced:.2} CPU s, {engine:.2} through the engine \
             ({:+.0} %): the trace no longer does the program's work",
            100.0 * r
        )
    });
    (r, problem)
}

/// The re-derivation guard: re-derives every job and returns the traces
/// plus one problem per job whose rebuilt record is not byte-identical to
/// `records[i]`, the engine's record of the same job.
#[must_use]
pub fn rederive_checked(
    jobs: &[Job],
    records: &[Option<String>],
    workers: usize,
) -> (Vec<JobTrace>, Vec<String>) {
    let mut problems = Vec::new();
    let traces = rederive_all(jobs, workers)
        .into_iter()
        .enumerate()
        .map(|(i, (trace, line))| {
            let record = records.get(i).and_then(Option::as_deref);
            if record != Some(line.as_str()) {
                problems.push(format!(
                    "{}: re-derived record differs from the engine's\n  engine:     {}\n  re-derived: {line}",
                    jobs[i].name,
                    record.unwrap_or("<none>")
                ));
            }
            trace
        })
        .collect();
    (traces, problems)
}

/// Re-derives every job on `workers` threads (each job once).
#[must_use]
pub fn rederive_all(jobs: &[Job], workers: usize) -> Vec<(JobTrace, String)> {
    let origin = Instant::now();
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<(JobTrace, String)>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers.min(jobs.len()).max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let traced = rederive(job, i, origin);
                out.lock().expect("no worker panics holding the lock")[i] = Some(traced);
            });
        }
    });
    out.into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|t| t.expect("every job re-derived"))
        .collect()
}

/// Share of job wall spent in `layer`.
#[must_use]
pub fn share(times: &LayerTimes, layer: Layer) -> f64 {
    if times.job_wall > 0.0 {
        times.busy(layer) / times.job_wall
    } else {
        0.0
    }
}
