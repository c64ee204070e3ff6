//! `mmflow` — the fully automated multi-mode tool flow from the command
//! line.
//!
//! ```text
//! mmflow merge a.blif b.blif [...]   run the DCS flow on BLIF mode circuits
//! mmflow mdr   a.blif b.blif [...]   run the MDR baseline
//! mmflow batch SPEC [...]            run a whole suite through mm-engine
//! mmflow pareto SPEC [...]           sweep the wirelength-vs-delay blend
//! mmflow serve --listen ADDR [...]   long-running batch service (mm-serve)
//! mmflow submit SPEC --connect ADDR  submit a batch to a running service
//! mmflow bench [--json]              measure the hot paths (BENCH_*.json)
//! mmflow cache gc [...]              evict old/oversized stage-cache entries
//! mmflow stats a.blif                print circuit statistics
//! mmflow gen   <SUITE> DIR           write a benchmark suite as BLIF files
//! ```

use mm_engine::protocol::BatchRequest;
use mm_engine::{Engine, EngineOptions, FlowKind, FlowOverrides};
use mm_flow::{DcsFlow, FlowOptions, MdrFlow, MultiModeInput};
use mm_netlist::{blif, LutCircuit};
use mm_place::CostKind;
use std::error::Error;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
mmflow — combined implementation of multi-mode circuits (DATE'13 flow)

USAGE:
  mmflow merge <MODE.blif>... [OPTIONS]   DCS flow: merge modes, report the
                                          parameterized configuration
  mmflow mdr   <MODE.blif>... [OPTIONS]   MDR baseline: separate configs
  mmflow batch <SPEC> [OPTIONS]           run a batch of multi-mode problems
                                          in parallel with stage caching;
                                          SPEC is a JSON spec file, a
                                          directory of BLIF mode groups, or
                                          suite:<NAME>[:<modes>] with NAME
                                          one of regexp|fir|mcnc|deeplogic|
                                          broadcast (modes per problem,
                                          default 2)
  mmflow pareto <SPEC> [OPTIONS]          run every problem of a batch once
                                          per timing-cost alpha and print a
                                          wirelength-vs-critical-path table;
                                          legs share the stage cache
  mmflow serve --listen <ADDR>            run the long-running batch service:
                                          one shared engine + stage cache,
                                          JSONL protocol over a Unix or TCP
                                          socket, graceful drain on shutdown
  mmflow submit <SPEC> --connect <ADDR>   submit a batch to a running service;
                                          result records stream to stdout
                                          byte-identical to `mmflow batch`
  mmflow bench [--json] [--smoke]         measure router/placer/flow/serve/
                                          sta hot paths: baseline vs
                                          optimized wall-clock, throughput,
                                          cache hit rates and the
                                          timing-driven critical-path win
  mmflow cache gc [--max-bytes N]         evict stage-cache entries, least
                [--max-age-days D]        recently used first, until under
                                          the limits
  mmflow stats <CIRCUIT.blif>...          circuit statistics
  mmflow gen <SUITE> <DIR>                write a benchmark suite as BLIF;
                                          SUITE is one of
                                          regexp|fir|mcnc|deeplogic|broadcast

MERGE/MDR OPTIONS:
  -k <N>           LUT input count (default 4)
  --cost <C>       combined-placement cost: wl | edge | hybrid:<lambda>
                   | timing:<alpha> (default wl); timing blends bounding-box
                   wirelength with criticality-weighted connection length
                   (alpha 0 = pure wirelength, 1 = pure delay) and records
                   per-mode critical paths
  --bits <N>       print the first N parameterized bit expressions

FLOW OPTIONS (batch, pareto, submit; merge and mdr take the first three;
spec files and serve requests take the same values as the members seed,
width, effort, max_iterations, max_width and steiner_fanout):
  --seed <S>       placer seed, decimal or 0x... (default 0x5eed)
  --width <W>      fixed channel width, 1..=1024 (default: min + 20%)
  --effort <E>     annealing effort (VPR inner_num), in (0, 100] (default 1)
  --max-iterations <N>
                   router iteration cap, at least 1 (default 40)
  --max-width <W>  width-search cap, 1..=1024 (default 96)
  --steiner-fanout <N>
                   route nets with N or more sinks along a rectilinear
                   Steiner topology (0 = off, the default)

BATCH OPTIONS:
  -k <N>           LUT width for directory BLIFs and generated suites
                   (default 4; spec files may set their own \"k\")
  --modes <N>      modes per problem for generated suites (default 2;
                   equivalent to the suite:<name>:<N> spelling)
  --jobs <N>       only run the first N jobs of the batch
  --out <FILE>     write JSONL results to FILE instead of stdout
  --threads <N>    worker threads (default: one per CPU; 1 = serial)
  --serial         shorthand for --threads 1
  --cache <DIR>    stage-cache directory (default .mmcache)
  --no-cache       disable the stage cache
  --emit-stage-times
                   append per-stage timings to every record as
                   stages: [{name, ms, cache}] (off by default so
                   record bytes stay reproducible)
  plus the FLOW OPTIONS

PARETO OPTIONS:
  --alphas <LIST>  comma-separated timing alphas to sweep
                   (default 0,0.25,0.5,0.75,1)
  plus the BATCH OPTIONS but --emit-stage-times; with --out, per-leg
  JSONL records (including per-mode critical_paths) are written to FILE

SERVE OPTIONS:
  --listen <ADDR>       unix:<path> or tcp:<host:port> (required)
  --threads <N>         worker threads, all taking jobs from one queue
                        (default: one per CPU)
  --queue-depth <N>     queued jobs the queue admits before batches
                        bounce with a busy frame (default 256, at least 1)
  --cache <DIR>         stage-cache directory (default .mmcache)
  --no-cache            disable the stage cache
  --max-connections <N> concurrent connections; excess clients get a
                        busy frame and are closed (default 8)
  --slo-ms <MS>         p95 batch-latency SLO, above 0; once the observed
                        p95 exceeds it, low-priority batches are shed
                        with a busy frame carrying the p95 (priority 9
                        is never shed; default: off)
  --deadline-ms <MS>    per-job execution deadline; a stuck job is
                        answered with a structured timeout record while
                        other workers keep serving (default 30000, 0 = off)
  --fault-spec <SPEC>   arm deterministic fault injection, e.g.
                        seed=7,worker_panic=0.1,conn_drop=0.05; points:
                        cache_read_io cache_write_partial worker_panic
                        job_stall conn_drop (bare name = always fire)

SUBMIT OPTIONS:
  --connect <ADDR>  the service address (required); connection attempts
                    time out after 10 s with a structured error
  --retries <N>     resubmit up to N times on busy frames or dropped
                    connections, with jittered exponential backoff;
                    records stream exactly once (default 0)
  -k, --modes, --jobs, --out, --emit-stage-times
                    as in BATCH OPTIONS (stage timings are appended by
                    the server)
  --priority <N>    scheduling priority 0..=9, higher runs first
                    (default 1)
  --shutdown        ask the server to drain and exit (after the batch,
                    or alone when no SPEC is given)
  plus the FLOW OPTIONS

BENCH OPTIONS:
  --json           write BENCH_router.json, BENCH_place.json,
                   BENCH_flow.json, BENCH_serve.json and BENCH_sta.json
  --out-dir <DIR>  where to write them (default .; required with
                   --smoke, so smoke numbers never replace the
                   committed full-run files)
  --suite <S>      run one workload: router|place|flow|serve|sta
                   (default all; serve includes the fault-injection
                   storm)
  --smoke          tiny CI-sized workload
  --reps <N>       timed repetitions per measurement
  --threads <N>    worker threads for the flow/serve workloads
                   (default: one per CPU); recorded in every report

CACHE GC OPTIONS:
  --cache <DIR>        stage-cache directory (default .mmcache)
  --max-bytes <N>      size budget; suffixes k/m/g accepted
  --max-age-days <D>   evict entries older than D days

Batch results stream to stdout as one JSON record per job, in job order,
byte-identical for serial, parallel and cached executions; the summary
(timings + cache counters) goes to stderr. Exits non-zero if a job fails.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if e.is::<Usage>() {
                eprintln!();
                eprintln!("{USAGE}");
            } else if !e.is::<OutputError>() {
                eprintln!("run 'mmflow help' for usage");
            }
            ExitCode::FAILURE
        }
    }
}

/// A command line of the wrong shape: a missing or unknown command, an
/// unknown option or an option without its value. `main` prints the
/// usage text after it; any other error gets a one-line pointer to
/// `mmflow help`, so its message stays on screen.
#[derive(Debug)]
struct Usage(String);

impl std::fmt::Display for Usage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for Usage {}

/// Writing a command's output failed: stdout was closed early (`mmflow
/// stats … | head -c 1`) or the `--out` file could not be written. The
/// command line was fine, so `main` prints the one message without the
/// usage pointer.
#[derive(Debug)]
struct OutputError(std::io::Error);

impl std::fmt::Display for OutputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "writing output: {}", self.0)
    }
}

impl Error for OutputError {}

/// `print!` that returns the write's error as an [`OutputError`] where
/// `print!` panics: every command's stdout goes through it or `outln!`.
macro_rules! out {
    ($($arg:tt)*) => {
        std::io::Write::write_fmt(&mut std::io::stdout(), format_args!($($arg)*))
            .map_err(OutputError)
    };
}

/// [`out!`] with a newline, as `println!`.
macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

struct CommonOptions {
    k: usize,
    cost: CostKind,
    flow: FlowOptions,
    show_bits: usize,
    files: Vec<String>,
}

fn parse_common(args: &[String]) -> Result<CommonOptions, Box<dyn Error>> {
    let mut options = CommonOptions {
        k: 4,
        cost: CostKind::WireLength,
        flow: FlowOptions::default(),
        show_bits: 0,
        files: Vec::new(),
    };
    let mut overrides = FlowOverrides::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-k" => options.k = next_parsed(&mut it, "-k")?,
            "--cost" => {
                let v = next_value(&mut it, "--cost")?;
                options.cost = parse_cost(v)?;
            }
            flag @ ("--width" | "--seed" | "--effort") => {
                overrides.read_flag(flag, next_value(&mut it, flag)?)?;
            }
            "--bits" => options.show_bits = next_parsed(&mut it, "--bits")?,
            other if other.starts_with('-') => {
                return Err(Usage(format!("unknown option '{other}'")).into());
            }
            file => options.files.push(file.to_string()),
        }
    }
    options.flow = overrides.apply(&options.flow);
    Ok(options)
}

fn next_value<'a>(
    it: &mut std::slice::Iter<'a, String>,
    flag: &str,
) -> Result<&'a String, Box<dyn Error>> {
    it.next()
        .ok_or_else(|| Usage(format!("{flag} needs a value")).into())
}

/// Reads and parses the value of `flag`, naming the flag and the value
/// when it does not parse.
fn next_parsed<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, Box<dyn Error>>
where
    T::Err: std::fmt::Display,
{
    Ok(parse_value(flag, next_value(it, flag)?)?)
}

/// Parses one value given to `flag`, naming both when it does not parse.
fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("{flag}: invalid value '{value}' ({e})"))
}

/// Reads the arguments `batch`, `pareto` and `submit` share — the spec,
/// `-k`, `--modes`, `--jobs`, the flow overrides and `--out` — into a
/// request, `None` without a spec, and the `--out` path. `own` reads the
/// command's other flags and says whether it took `flag`.
fn batch_args(
    command: &str,
    args: &[String],
    mut own: impl FnMut(&str, &mut std::slice::Iter<'_, String>) -> Result<bool, Box<dyn Error>>,
) -> Result<(Option<BatchRequest>, Option<String>), Box<dyn Error>> {
    let mut request = BatchRequest::new("");
    let mut spec = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-k" => request.k = next_parsed(&mut it, "-k")?,
            "--modes" => request.modes = Some(next_parsed(&mut it, "--modes")?),
            "--jobs" => request.max_jobs = Some(next_parsed(&mut it, "--jobs")?),
            "--out" => out = Some(next_value(&mut it, "--out")?.clone()),
            flag if FlowOverrides::is_flag(flag) => {
                request
                    .overrides
                    .read_flag(flag, next_value(&mut it, flag)?)?;
            }
            flag if own(flag, &mut it)? => {}
            other if other.starts_with('-') => {
                return Err(Usage(format!("unknown {command} option '{other}'")).into());
            }
            positional if spec.is_none() => spec = Some(positional.to_string()),
            extra => return Err(format!("unexpected argument '{extra}'").into()),
        }
    }
    Ok((spec.map(|spec| BatchRequest { spec, ..request }), out))
}

/// Reads the engine flags `batch` and `pareto` share; says whether
/// `flag` was one.
fn engine_flag(
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
    options: &mut EngineOptions,
) -> Result<bool, Box<dyn Error>> {
    match flag {
        "--threads" => options.threads = next_parsed(it, "--threads")?,
        "--serial" => options.threads = 1,
        "--cache" => options.cache_dir = Some(next_value(it, "--cache")?.into()),
        "--no-cache" => options.cache_dir = None,
        _ => return Ok(false),
    }
    Ok(true)
}

/// The engine options of `batch` and `pareto` before their flags: one
/// worker per CPU and the `.mmcache` stage cache.
fn default_engine_options() -> EngineOptions {
    EngineOptions {
        cache_dir: Some(".mmcache".into()),
        ..EngineOptions::default()
    }
}

/// Parses `--cost` values through the engine's validated parser, so the
/// CLI rejects the same NaN/negative/non-finite hybrid weights batch
/// specs do (those weights fingerprint into cache keys).
fn parse_cost(v: &str) -> Result<CostKind, Box<dyn Error>> {
    match FlowKind::parse("dcs", Some(v))? {
        FlowKind::Dcs(cost) => Ok(cost),
        _ => unreachable!("parsing the dcs flow yields a dcs kind"),
    }
}

fn load_circuits(files: &[String], k: usize) -> Result<Vec<LutCircuit>, Box<dyn Error>> {
    if files.is_empty() {
        return Err("no input files".into());
    }
    files
        .iter()
        .map(|f| mm_engine::read_blif(std::path::Path::new(f), k).map_err(Into::into))
        .collect()
}

fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let Some(command) = args.first() else {
        return Err(Usage("missing command".into()).into());
    };
    match command.as_str() {
        "merge" => cmd_merge(&args[1..]),
        "mdr" => cmd_mdr(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "pareto" => cmd_pareto(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "submit" => cmd_submit(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "cache" => cmd_cache(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "gen" => cmd_gen(&args[1..]),
        "help" | "--help" | "-h" => {
            outln!("{USAGE}")?;
            Ok(())
        }
        other => Err(Usage(format!("unknown command '{other}'")).into()),
    }
}

fn cmd_merge(args: &[String]) -> Result<(), Box<dyn Error>> {
    let options = parse_common(args)?;
    let circuits = load_circuits(&options.files, options.k)?;
    for (i, c) in circuits.iter().enumerate() {
        outln!("mode {i}: {} — {}", c.name(), c.stats())?;
    }
    let input = MultiModeInput::new(circuits)?;
    let result = DcsFlow::new(options.flow)
        .with_cost(options.cost)
        .run(&input)?;

    let stats = result.tunable.stats();
    outln!()?;
    outln!(
        "region:   {0}x{0} logic blocks, channel width {1}",
        result.arch.grid,
        result.arch.channel_width
    )?;
    outln!("tunable:  {stats}")?;
    let dcs = result.dcs_cost();
    let mdr = result.mdr_cost();
    outln!("MDR rewrite:  {mdr}")?;
    outln!("DCS rewrite:  {dcs}")?;
    outln!("speed-up:     {:.2}x", mm_bitstream::speedup(&mdr, &dcs))?;
    for m in 0..input.mode_count() {
        outln!("wires in mode {m}: {}", result.wires_in_mode(m))?;
    }
    if options.show_bits > 0 {
        outln!()?;
        outln!("parameterized routing bits (first {}):", options.show_bits)?;
        for (switch, expr) in result
            .param
            .parameterized_expressions()
            .take(options.show_bits)
        {
            outln!("  bit[{}] = {expr}", switch.index())?;
        }
    }
    Ok(())
}

fn cmd_mdr(args: &[String]) -> Result<(), Box<dyn Error>> {
    let options = parse_common(args)?;
    let circuits = load_circuits(&options.files, options.k)?;
    for (i, c) in circuits.iter().enumerate() {
        outln!("mode {i}: {} — {}", c.name(), c.stats())?;
    }
    let input = MultiModeInput::new(circuits)?;
    let result = MdrFlow::new(options.flow).run(&input)?;
    outln!()?;
    outln!(
        "region:   {0}x{0} logic blocks, channel width {1}",
        result.arch.grid,
        result.arch.channel_width
    )?;
    outln!("MDR rewrite:            {}", result.mdr_cost())?;
    outln!("diff rewrite (average): {}", result.average_diff_cost())?;
    for m in 0..input.mode_count() {
        outln!("wires in mode {m}: {}", result.wires_in_mode(m))?;
    }
    Ok(())
}

fn cmd_batch(args: &[String]) -> Result<(), Box<dyn Error>> {
    use std::io::Write;

    let mut engine_options = default_engine_options();
    let mut emit_stage_times = false;
    let (request, out_path) = batch_args("batch", args, |flag, it| {
        if flag == "--emit-stage-times" {
            emit_stage_times = true;
            return Ok(true);
        }
        engine_flag(flag, it, &mut engine_options)
    })?;
    let request = request.ok_or("batch needs a spec: a JSON file, a directory, or suite:<name>")?;

    let jobs = request.jobs()?;
    let job_count = jobs.len();
    eprintln!("batch: {} jobs from {}", job_count, request.spec);

    let engine = Engine::new(engine_options)?;
    let mut sink: Box<dyn Write + Send> = match &out_path {
        Some(path) => Box::new(std::io::BufWriter::new(std::fs::File::create(path)?)),
        None => Box::new(std::io::stdout()),
    };
    // A failed record write (disk full, broken pipe) must fail the run —
    // and cancel the jobs that have not started yet, instead of burning
    // hours computing results nobody can read.
    let cancelled = std::sync::atomic::AtomicBool::new(false);
    let mut write_error: Option<std::io::Error> = None;
    let report = engine.run_streamed_cancellable(jobs, Some(&cancelled), |r| {
        if write_error.is_none() {
            let record = if emit_stage_times {
                r.to_json_line_with_stages()
            } else {
                r.to_json_line()
            };
            if let Err(e) = writeln!(sink, "{record}") {
                write_error = Some(e);
                cancelled.store(true, std::sync::atomic::Ordering::Relaxed);
            }
        }
    });
    if let Some(e) = write_error {
        return Err(OutputError(e).into());
    }
    sink.flush().map_err(OutputError)?;

    eprintln!("{}", report.summary_json());
    eprintln!(
        "wall {:?} vs serial-estimate {:?} on {} threads ({} results, {} placements from cache)",
        report.wall,
        report.serial_estimate(),
        report.threads,
        report.stats.results_from_cache,
        report.stats.placements_from_cache,
    );
    if report.stats.failed > 0 {
        return Err(format!("{} of {} jobs failed", report.stats.failed, job_count).into());
    }
    Ok(())
}

fn cmd_pareto(args: &[String]) -> Result<(), Box<dyn Error>> {
    use mm_engine::{Job, JobOutcome};
    use std::io::Write;

    let mut alphas: Vec<f64> = vec![0.0, 0.25, 0.5, 0.75, 1.0];
    let mut engine_options = default_engine_options();
    let (request, out_path) = batch_args("pareto", args, |flag, it| {
        if flag == "--alphas" {
            alphas = next_value(it, "--alphas")?
                .split(',')
                .map(|alpha| parse_value("--alphas", alpha))
                .collect::<Result<_, _>>()?;
            return Ok(true);
        }
        engine_flag(flag, it, &mut engine_options)
    })?;
    let request =
        request.ok_or("pareto needs a spec: a JSON file, a directory, or suite:<name>")?;

    let problems = request.jobs()?;
    // Each problem sweeps the wirelength-vs-delay blend: one timing job
    // per alpha (alpha 0 anneals on pure wirelength but still reports
    // the routed critical path). Every leg is content-address-cached,
    // so re-sweeping with more alphas only runs the new legs.
    let mut jobs = Vec::with_capacity(problems.len() * alphas.len());
    for job in &problems {
        for &alpha in &alphas {
            let kind = FlowKind::parse("dcs", Some(&format!("timing:{alpha}")))?;
            jobs.push(Job {
                name: format!("{}@timing:{alpha}", job.name),
                circuits: job.circuits.clone(),
                flow: kind,
                options: job.options,
            });
        }
    }
    eprintln!(
        "pareto: {} problems x {} alphas = {} jobs from {}",
        problems.len(),
        alphas.len(),
        jobs.len(),
        request.spec
    );

    let engine = Engine::new(engine_options)?;
    let mut sink = out_path
        .map(|path| std::fs::File::create(path).map(std::io::BufWriter::new))
        .transpose()?;
    let mut write_error: Option<std::io::Error> = None;
    let report = engine.run_streamed(jobs, |r| {
        if let Some(sink) = sink.as_mut() {
            if write_error.is_none() {
                if let Err(e) = writeln!(sink, "{}", r.to_json_line()) {
                    write_error = Some(e);
                }
            }
        }
    });
    if let Some(e) = write_error {
        return Err(OutputError(e).into());
    }
    if let Some(mut sink) = sink {
        sink.flush().map_err(OutputError)?;
    }

    let mut rows = Vec::new();
    let mut failed = 0usize;
    for result in &report.results {
        match &result.outcome {
            Ok(JobOutcome::Dcs(s)) => {
                let cps = s.critical_paths.clone().unwrap_or_default();
                let worst = cps.iter().copied().fold(0.0f64, f64::max);
                let mean_wires = s.wires.iter().sum::<usize>() as f64 / s.wires.len().max(1) as f64;
                rows.push(vec![
                    result.name.clone(),
                    format!("{}", s.channel_width),
                    format!("{mean_wires:.1}"),
                    format!("{worst:.0}"),
                ]);
            }
            Ok(_) => {}
            Err(e) => {
                failed += 1;
                rows.push(vec![
                    result.name.clone(),
                    "-".into(),
                    "-".into(),
                    format!("failed: {}", e.message),
                ]);
            }
        }
    }
    out!(
        "{}",
        mm_flow::report::render_table(&["job", "width", "mean wires", "critical path"], &rows)
    )?;
    eprintln!("{}", report.summary_json());
    if failed > 0 {
        return Err(format!("{failed} of {} jobs failed", report.results.len()).into());
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), Box<dyn Error>> {
    use mm_serve::{Listen, ServeOptions, Server};

    let mut listen: Option<String> = None;
    let mut options = ServeOptions {
        threads: 0,
        cache_dir: Some(".mmcache".into()),
        max_connections: 8,
        ..ServeOptions::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => listen = Some(next_value(&mut it, "--listen")?.clone()),
            "--threads" => options.threads = next_parsed(&mut it, "--threads")?,
            "--queue-depth" => {
                options.queue_depth = next_parsed(&mut it, "--queue-depth")?;
            }
            "--cache" => options.cache_dir = Some(next_value(&mut it, "--cache")?.into()),
            "--no-cache" => options.cache_dir = None,
            "--max-connections" => {
                options.max_connections = next_parsed(&mut it, "--max-connections")?;
            }
            "--slo-ms" => options.slo_ms = Some(next_parsed(&mut it, "--slo-ms")?),
            "--deadline-ms" => options.deadline_ms = next_parsed(&mut it, "--deadline-ms")?,
            "--fault-spec" => {
                options.fault_spec = Some(next_value(&mut it, "--fault-spec")?.clone());
            }
            other => return Err(Usage(format!("unknown serve option '{other}'")).into()),
        }
    }
    let listen = listen.ok_or("serve needs --listen unix:<path> or tcp:<host:port>")?;
    let listen = Listen::parse(&listen)?;

    let server = Server::bind(&listen, &options)?;
    eprintln!(
        "serve: listening on {} ({} workers, queue depth {}, cache {}, {} connection slots)",
        server.listen_addr(),
        server.scheduler().threads(),
        options.queue_depth,
        options
            .cache_dir
            .as_ref()
            .map_or("disabled".to_string(), |d| d.display().to_string()),
        options.max_connections,
    );
    if let Some(slo) = options.slo_ms {
        eprintln!("serve: shedding low-priority batches above a {slo} ms p95 SLO");
    }
    if options.deadline_ms > 0 {
        eprintln!(
            "serve: {} ms per-job deadline watchdog",
            options.deadline_ms
        );
    }
    if let Some(spec) = &options.fault_spec {
        eprintln!("serve: FAULT INJECTION ARMED ({spec})");
    }
    eprintln!("serve: send {{\"cmd\":\"shutdown\"}} (mmflow submit --shutdown) to drain and exit");
    let report = server.run()?;
    eprintln!(
        "serve: drained — {} connections, {} batches, {} jobs \
         ({} connections and {} batches rejected busy, {} batches shed over SLO, \
         {} jobs purged, {} timed out, {} panicking executions retried)",
        report.connections,
        report.batches,
        report.jobs,
        report.rejected_connections,
        report.rejected_batches,
        report.shed_batches,
        report.purged_jobs,
        report.timed_out_jobs,
        report.panic_retries,
    );
    Ok(())
}

fn cmd_submit(args: &[String]) -> Result<(), Box<dyn Error>> {
    use mm_engine::protocol::{DEFAULT_PRIORITY, MAX_PRIORITY};
    use std::io::Write;

    let mut connect: Option<String> = None;
    let mut shutdown = false;
    let mut priority = DEFAULT_PRIORITY;
    let mut emit_stage_times = false;
    let mut retries = 0u32;
    let (request, out_path) = batch_args("submit", args, |flag, it| {
        match flag {
            "--connect" => connect = Some(next_value(it, "--connect")?.clone()),
            "--shutdown" => shutdown = true,
            "--retries" => retries = next_parsed(it, "--retries")?,
            "--priority" => {
                priority = next_parsed(it, "--priority")?;
                if priority > MAX_PRIORITY {
                    return Err(format!("--priority must be 0..={MAX_PRIORITY}").into());
                }
            }
            "--emit-stage-times" => emit_stage_times = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let connect = connect.ok_or("submit needs --connect unix:<path> or tcp:<host:port>")?;
    if request.is_none() && !shutdown {
        return Err("submit needs a SPEC (or --shutdown alone)".into());
    }

    let mut client = mm_serve::Client::connect(&mm_serve::Listen::parse(&connect)?)?;
    let mut failed_jobs = 0usize;

    if let Some(mut request) = request {
        request.priority = priority;
        request.emit_stage_times = emit_stage_times;

        let mut sink: Box<dyn Write> = match &out_path {
            Some(path) => Box::new(std::io::BufWriter::new(std::fs::File::create(path)?)),
            None => Box::new(std::io::stdout()),
        };
        // A failed record write stops the stream; it is told apart from
        // a connection error by being kept here.
        let mut write_error = None;
        let submitted = client.submit_with_retries(&request, retries, |record| {
            writeln!(sink, "{record}").map_err(|e| {
                let kind = e.kind();
                write_error = Some(e);
                kind.into()
            })
        });
        if let Some(e) = write_error {
            return Err(OutputError(e).into());
        }
        match submitted? {
            Ok(outcome) => {
                eprintln!("submit: {} jobs accepted", outcome.accepted);
                if outcome.retries > 0 {
                    eprintln!(
                        "submit: succeeded after {} retried submission(s)",
                        outcome.retries
                    );
                }
                if outcome.queued_ahead > 0 {
                    eprintln!("submit: {} jobs were queued ahead", outcome.queued_ahead);
                }
                eprintln!("{}", outcome.summary.to_json());
                failed_jobs = outcome.failed_jobs();
            }
            Err(rejection) => {
                return Err(format!("server rejected the batch: {rejection}").into());
            }
        }
        sink.flush().map_err(OutputError)?;
    }

    if shutdown {
        client.shutdown()?;
        eprintln!("submit: server is draining");
    }

    if failed_jobs > 0 {
        return Err(format!("{failed_jobs} jobs failed").into());
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), Box<dyn Error>> {
    use mm_bench::perf::{flow_perf, placer_perf, router_perf, serve_perf, sta_perf, PerfConfig};

    let mut json = false;
    let mut smoke = false;
    let mut suite = "all".to_string();
    let mut reps: Option<usize> = None;
    let mut threads = 0usize;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--smoke" => smoke = true,
            "--suite" => suite = next_value(&mut it, "--suite")?.clone(),
            "--reps" => reps = Some(next_parsed(&mut it, "--reps")?),
            "--threads" => threads = next_parsed(&mut it, "--threads")?,
            "--out-dir" => out_dir = Some(next_value(&mut it, "--out-dir")?.into()),
            other => return Err(Usage(format!("unknown bench option '{other}'")).into()),
        }
    }
    if smoke && json && out_dir.is_none() {
        let why = "the default . holds the committed full-run BENCH_*.json";
        return Err(format!("bench --smoke --json needs --out-dir DIR ({why})").into());
    }
    let out_dir = out_dir.unwrap_or_else(|| ".".into());
    let known = ["all", "router", "place", "flow", "serve", "sta"];
    if !known.contains(&suite.as_str()) {
        return Err(format!("unknown bench suite '{suite}' (one of {})", known.join("|")).into());
    }
    let runs = |name: &str| suite == "all" || suite == name;
    let mut config = PerfConfig::new(smoke);
    if let Some(r) = reps {
        config.reps = r;
    }
    config.threads = threads;

    let mut wrote = Vec::new();
    if json {
        std::fs::create_dir_all(&out_dir)?;
    }
    // A report's `check` is its whole gate: any violated gate fails the
    // run before that report's artefact is written.
    let mut emit =
        |name: &str, failures: Vec<String>, text: String| -> Result<(), Box<dyn Error>> {
            if !failures.is_empty() {
                return Err(format!("{name} not written: {}", failures.join("; ")).into());
            }
            if json {
                let path = out_dir.join(name);
                std::fs::write(&path, text + "\n")?;
                wrote.push(path.display().to_string());
            }
            Ok(())
        };

    if runs("router") {
        eprintln!(
            "bench: router workload ({}) ...",
            if smoke { "smoke" } else { "full" }
        );
        let router = router_perf(&config);
        eprintln!(
            "  router: baseline {:.2} ms, optimized {:.2} ms → {:.2}x \
             ({:.1} routes/s, parity {})",
            router.baseline_ms,
            router.optimized_ms,
            router.speedup,
            router.optimized_ops_per_sec,
            if router.parity_ok { "ok" } else { "FAILED" },
        );
        for hf in &router.high_fanout {
            eprintln!(
                "  router[fanout {}]: steiner off {:.2} ms, on {:.2} ms → {:.2}x \
                 (wirelength ratio {:.2}, parity {})",
                hf.fanout,
                hf.off_ms,
                hf.on_ms,
                hf.speedup,
                hf.wirelength_ratio,
                if hf.parity_ok { "ok" } else { "FAILED" },
            );
        }
        for ws in &router.width_search {
            eprintln!(
                "  router[width search {} {}]: min width {}, {} probes, {} failed in {} \
                 iterations (cap {} each), {:.0} ms",
                ws.pair,
                ws.leg,
                ws.min_width,
                ws.probes,
                ws.failed_probes,
                ws.failed_probe_iterations,
                ws.max_iterations,
                ws.wall_ms,
            );
        }
        emit("BENCH_router.json", router.check(&config), router.to_json())?;
    }
    if runs("place") {
        eprintln!("bench: placer workload ...");
        let place = placer_perf(&config);
        for run in [&place.hybrid, &place.wirelength] {
            eprintln!(
                "  placer[{}]: baseline {:.2} ms, optimized {:.2} ms → {:.2}x \
                 ({:.0} moves/s vs {:.0} moves/s, parity {})",
                run.cost,
                run.baseline_ms,
                run.optimized_ms,
                run.speedup,
                run.baseline_moves_per_sec,
                run.optimized_moves_per_sec,
                if run.parity_ok { "ok" } else { "FAILED" },
            );
        }
        emit("BENCH_place.json", place.check(&config), place.to_json())?;
    }
    if runs("flow") {
        eprintln!("bench: flow workload ...");
        let flow = flow_perf(&config);
        eprintln!(
            "  flow: cold {:.2} ms, warm {:.2} ms → {:.2}x; warm stages recomputed {}, \
             pair shared {} placement legs from plain jobs",
            flow.cold_wall_ms,
            flow.warm_wall_ms,
            flow.warm_speedup,
            flow.warm_stages_recomputed,
            flow.pair_placement_hits_from_plain_jobs,
        );
        eprintln!(
            "  flow[{}-mode]: cold {:.2} ms ({:.1} jobs/s), warm {:.2} ms → {:.2}x; \
             warm stages recomputed {}, N=2 parity {}",
            flow.nmodes.modes,
            flow.nmodes.cold_wall_ms,
            flow.nmodes.cold_jobs_per_sec,
            flow.nmodes.warm_wall_ms,
            flow.nmodes.warm_speedup,
            flow.nmodes.warm_stages_recomputed,
            if flow.nmodes.parity_ok {
                "ok"
            } else {
                "FAILED"
            },
        );
        let sg = &flow.stagegraph;
        eprintln!(
            "  flow[stagegraph]: cold {:.2} ms, router-only replay {:.2} ms → {:.2}x; \
             {} placement hits, {} upstream recomputed, replay parity {}",
            sg.cold_wall_ms,
            sg.replay_wall_ms,
            sg.replay_speedup,
            sg.replay_placement_hits,
            sg.replay_upstream_recomputed,
            if sg.parity_ok { "ok" } else { "FAILED" },
        );
        emit("BENCH_flow.json", flow.check(&config), flow.to_json())?;
    }
    if runs("serve") {
        eprintln!("bench: serve workload (real unix socket) ...");
        let serve = serve_perf(&config);
        eprintln!(
            "  serve: cold {:.2} ms ({:.1} jobs/s), warm {:.2} ms ({:.1} jobs/s) → {:.2}x; \
             stream parity {}",
            serve.cold_wall_ms,
            serve.cold_jobs_per_sec,
            serve.warm_wall_ms,
            serve.warm_jobs_per_sec,
            serve.warm_speedup,
            if serve.parity_ok { "ok" } else { "FAILED" },
        );
        let chaos = &serve.chaos;
        eprintln!(
            "  chaos: {} storm batches under '{}' — {} lost, {} duplicated, parity {}; \
             {} client retries, {} panic retries, {} quarantined, {} purged; \
             SLO shed p0 {} time(s), p9 {} (p95 {:.2} ms), recovered {}",
            chaos.storm_batches,
            chaos.fault_spec,
            chaos.records_lost,
            chaos.records_duplicated,
            if chaos.parity_ok { "ok" } else { "FAILED" },
            chaos.client_retries,
            chaos.panic_retries,
            chaos.quarantined,
            chaos.purged_jobs,
            chaos.shed_low_priority,
            chaos.shed_high_priority,
            chaos.slo_observed_p95_ms,
            if chaos.recovered_after_disarm {
                "ok"
            } else {
                "FAILED"
            },
        );
        emit("BENCH_serve.json", serve.check(&config), serve.to_json())?;
    }
    if runs("sta") {
        eprintln!("bench: sta workload ...");
        let sta = sta_perf(&config);
        eprintln!(
            "  sta[flow, {} modes]: critical path {:.0} → {:.0} ({:.2}x), \
             wires {} → {} ({:.2}x)",
            sta.flow.modes,
            sta.flow.baseline_critical_path,
            sta.flow.timing_critical_path,
            sta.flow.critical_path_ratio,
            sta.flow.baseline_wires,
            sta.flow.timing_wires,
            sta.flow.wires_ratio,
        );
        emit("BENCH_sta.json", sta.check(&config), sta.to_json())?;
    }
    if !wrote.is_empty() {
        eprintln!("wrote {}", wrote.join(", "));
    }
    Ok(())
}

/// Parses `--max-bytes` values: plain bytes, or with a k/m/g suffix.
fn parse_bytes(s: &str) -> Result<u64, Box<dyn Error>> {
    let (digits, mult) = match s.chars().last() {
        Some('k' | 'K') => (&s[..s.len() - 1], 1u64 << 10),
        Some('m' | 'M') => (&s[..s.len() - 1], 1 << 20),
        Some('g' | 'G') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("bad byte size '{s}' (e.g. 500m, 2g, 1048576)"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("byte size '{s}' overflows").into())
}

fn cmd_cache(args: &[String]) -> Result<(), Box<dyn Error>> {
    let Some(sub) = args.first() else {
        return Err(Usage("cache needs a subcommand: gc".into()).into());
    };
    if sub != "gc" {
        return Err(Usage(format!("unknown cache subcommand '{sub}' (gc)")).into());
    }
    let mut cache_dir = std::path::PathBuf::from(".mmcache");
    let mut max_bytes: Option<u64> = None;
    let mut max_age: Option<std::time::Duration> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache" => cache_dir = next_value(&mut it, "--cache")?.into(),
            "--max-bytes" => max_bytes = Some(parse_bytes(next_value(&mut it, "--max-bytes")?)?),
            "--max-age-days" => {
                let value = next_value(&mut it, "--max-age-days")?;
                let days: f64 = parse_value("--max-age-days", value)?;
                let age =
                    std::time::Duration::try_from_secs_f64(days * 86_400.0).map_err(|_| {
                        format!(
                            "--max-age-days must be a finite number of days >= 0, got '{value}'"
                        )
                    })?;
                max_age = Some(age);
            }
            other => return Err(Usage(format!("unknown cache gc option '{other}'")).into()),
        }
    }
    if !cache_dir.exists() {
        return Err(format!("cache directory '{}' does not exist", cache_dir.display()).into());
    }
    let cache = mm_engine::StageCache::open(&cache_dir)?;
    let summary = cache.gc(max_bytes, max_age)?;
    outln!(
        "cache gc: scanned {} entries ({} bytes), evicted {} ({} bytes), {} bytes remain",
        summary.scanned,
        summary.bytes_before,
        summary.evicted,
        summary.bytes_evicted,
        summary.bytes_after(),
    )?;
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), Box<dyn Error>> {
    let options = parse_common(args)?;
    for (file, c) in options
        .files
        .iter()
        .zip(load_circuits(&options.files, options.k)?)
    {
        outln!("{file}: {} — {}", c.name(), c.stats())?;
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), Box<dyn Error>> {
    let [suite, dir] = args else {
        return Err("usage: mmflow gen <regexp|fir|mcnc|deeplogic|broadcast> <DIR>".into());
    };
    let circuits = mm_gen::Suite::from_name(suite)?.circuits(4);
    std::fs::create_dir_all(dir)?;
    for c in &circuits {
        let path = Path::new(dir).join(format!("{}.blif", c.name()));
        std::fs::write(&path, blif::to_blif(c))?;
        outln!("wrote {} ({} LUTs)", path.display(), c.lut_count())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_flow::WidthChoice;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_options() {
        let o = parse_common(&strings(&[
            "a.blif", "-k", "5", "--cost", "edge", "--width", "12", "--seed", "9", "--bits", "4",
        ]))
        .unwrap();
        assert_eq!(o.k, 5);
        assert_eq!(o.cost, CostKind::EdgeMatching);
        assert_eq!(o.flow.width, WidthChoice::Fixed(12));
        assert_eq!(o.flow.placer.seed, 9);
        assert_eq!(o.show_bits, 4);
        assert_eq!(o.files, vec!["a.blif"]);
    }

    #[test]
    fn parses_hybrid_cost() {
        let o = parse_common(&strings(&["--cost", "hybrid:1.5"])).unwrap();
        match o.cost {
            CostKind::Hybrid { edge_weight, .. } => assert!((edge_weight - 1.5).abs() < 1e-12),
            other => panic!("expected hybrid, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_common(&strings(&["--cost", "banana"])).is_err());
        assert!(parse_common(&strings(&["--width"])).is_err());
        assert!(parse_common(&strings(&["--frobnicate"])).is_err());
        assert!(run(&strings(&["explode"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn gen_and_stats_roundtrip() {
        let dir = std::env::temp_dir().join("mmflow_test_gen");
        let _ = std::fs::remove_dir_all(&dir);
        // Generating all suites is slow; use stats on a hand-written file.
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("toy.blif");
        std::fs::write(
            &file,
            ".model toy\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n",
        )
        .unwrap();
        run(&strings(&["stats", file.to_str().unwrap()])).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
