//! The `serve_warm` workload: a `mmflow serve` child process with two
//! workers and a fresh on-disk cache, driven over two Unix-socket
//! connections by this process.
//!
//! Every request is an 8-job spec file over small generated 2-mode
//! circuits (dcs, mdr and pair jobs over the same mode groups, each job
//! with its own placer seed). Requests come in three classes whose shares
//! are exact in every block of ten:
//!
//! * `hit` (7/10) — an exact repeat of a primed spec, served from the
//!   daemon's result memo;
//! * `replay` (1/10) — a primed spec with a new router option
//!   (`steiner_fanout` above any fanout): placements are read from disk,
//!   routes recomputed and written;
//! * `cold` (2/10) — the same mode groups under new placer seeds:
//!   everything is computed and written.
//!
//! The reported tail, p95, lies 15 points above the hit/replay boundary
//! (p70) and the replay/cold one (p80), so it does not flip between
//! classes from run to run.
//!
//! A run's work is the same for every seed: the circuits, the primed
//! specs, the class sequence, the n-th replay and the n-th cold request
//! do not depend on it. The seed picks the primed spec each hit repeats.
//! Drawn placer seeds moved the daemon's CPU time per job by 7 % and the
//! tail by 13 % between seeds.
//!
//! The timed part is an open-loop phase at [`FIXED_RATE`]: each request
//! is timed from when it was due until its `summary` frame (`op_time_ms`
//! is their p95), and the daemon's CPU clock gives its cost per job
//! (`jobs_per_cpu_s`).
//! Afterwards every streamed record is compared byte for byte with the
//! in-process `Engine` record of the same job.

use crate::report::{EndToEnd, Report, ServeLayers};
use crate::stats::{median, peak_rss_mb, quantile, Rng};
use crate::workload::{Qor, WORKERS};
use crate::{cpu, speed};
use mm_engine::json::{self, ObjBuilder, Value};
use mm_engine::protocol::{classify, Frame, ServerLine};
use mm_engine::{load_spec, CacheStats, Engine, EngineOptions, Job, StageCache};
use mm_flow::FlowOptions;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Mode groups (2-mode circuit pairs); every spec covers all of them.
const GROUPS: usize = 4;
/// The flows of a spec's 8 jobs, one line per mode group.
const LAYOUT: [&[&str]; GROUPS] = [
    &["dcs", "mdr"],
    &["dcs", "mdr"],
    &["dcs", "mdr"],
    &["dcs", "pair"],
];
/// Primed specs a `hit` request repeats.
const HIT_SPECS: usize = 4;
/// LUTs and inputs of every generated mode circuit.
const CIRCUIT_LUTS: usize = 24;
const CIRCUIT_INPUTS: usize = 8;
/// Channel width of every serve job.
const WIDTH: usize = 12;
/// Connections the generator drives.
const CONNECTIONS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Offered rate (req/s): about a third of the closed-loop saturation on
/// two connections (~60 req/s on a 2-CPU host), so the daemon is busy
/// under half the time and a cold request rarely waits for a worker.
pub const FIXED_RATE: f64 = 20.0;
/// The reported latency tail: it lies 15 points from either class
/// boundary, and p99 would need 1000 requests for ten samples beyond it.
pub const TAIL: f64 = 0.95;
/// Fewest requests in a run: the fewest that leave ten samples beyond
/// [`TAIL`] (10 s at [`FIXED_RATE`]).
const MIN_REQUESTS: f64 = 200.0;
/// A socket read that blocks this long counts as a timed-out request.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Exact repeat of a primed spec.
    Hit,
    /// Primed spec with a new router option.
    Replay,
    /// Primed mode groups under new placer seeds.
    Cold,
}

/// The class sequence: blocks of ten, `C h h R h C h h h h` — seven hits,
/// one replay and two cold requests. Cold requests arrive five apart
/// (250 ms at [`FIXED_RATE`]; one takes 70–100 ms) and the replay midway
/// between them, so the heavy requests never queue behind each other:
/// the tail measures a cold request, not how a draw happened to bunch
/// them (a seeded replay slot moved it by 6–10 % between seeds).
#[must_use]
pub fn class_sequence(n: usize) -> Vec<Class> {
    use Class::{Cold, Hit, Replay};
    const BLOCK: [Class; 10] = [Cold, Hit, Hit, Replay, Hit, Cold, Hit, Hit, Hit, Hit];
    BLOCK.iter().copied().cycle().take(n).collect()
}

/// One job line of a spec: mode group, flow and placer seed.
#[derive(Debug, Clone, PartialEq)]
struct SpecJob {
    group: usize,
    flow: &'static str,
    seed: u64,
}

/// The work directory: circuits, spec files and the daemon's cache.
pub struct Workspace {
    /// Root of the work directory.
    pub dir: PathBuf,
    /// Spec files, relative to `dir`; indices `0..HIT_SPECS` are the
    /// primed `hit` specs.
    pub specs: Vec<String>,
    /// Class of every spec file.
    pub classes: Vec<Class>,
    hit_jobs: Vec<Vec<SpecJob>>,
    next_fanout: usize,
    cold_seeds: Rng,
    /// Time spent generating circuits and writing their BLIF files.
    pub gen_s: f64,
    /// LUTs over the generated circuits.
    pub luts: usize,
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

impl Workspace {
    /// Creates a fresh work directory with the circuits and the primed
    /// `hit` specs.
    ///
    /// # Errors
    ///
    /// Fails when a file cannot be written.
    pub fn create(root: &Path) -> Result<Self, String> {
        let dir = root.to_path_buf();
        let _ = std::fs::remove_dir_all(&dir);
        for sub in ["blif", "specs"] {
            std::fs::create_dir_all(dir.join(sub))
                .map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut rng = Rng::new(0, "serve_warm/circuits");
        let t = Instant::now();
        let mut luts = 0;
        for g in 0..GROUPS {
            for m in 0..2 {
                let name = format!("g{g}m{m}");
                let circuit = mm_gen::seeded_test_circuit(
                    &name,
                    CIRCUIT_INPUTS,
                    CIRCUIT_LUTS,
                    rng.next_u64(),
                );
                luts += circuit.lut_count();
                write(
                    &dir.join("blif").join(format!("{name}.blif")),
                    &mm_netlist::blif::to_blif(&circuit),
                )?;
            }
        }
        let gen_s = t.elapsed().as_secs_f64();
        let mut ws = Self {
            dir,
            specs: Vec::new(),
            classes: Vec::new(),
            hit_jobs: Vec::new(),
            next_fanout: 0,
            cold_seeds: Rng::new(0, "serve_warm/cold"),
            gen_s,
            luts,
        };
        let mut rng = Rng::new(0, "serve_warm/hit");
        for _ in 0..HIT_SPECS {
            // Every spec has the same shape, so requests of one class
            // cost about the same whatever spec they draw.
            let mut jobs = Vec::new();
            for (group, flows) in LAYOUT.iter().enumerate() {
                for &flow in *flows {
                    jobs.push(SpecJob {
                        group,
                        flow,
                        seed: rng.next_u64() >> 11,
                    });
                }
            }
            ws.add_spec(Class::Hit, &jobs, None)?;
            ws.hit_jobs.push(jobs);
        }
        Ok(ws)
    }

    fn add_spec(
        &mut self,
        class: Class,
        jobs: &[SpecJob],
        fanout: Option<usize>,
    ) -> Result<usize, String> {
        let index = self.specs.len();
        let name = match class {
            Class::Hit => format!("specs/hit{index}.json"),
            Class::Replay => format!("specs/replay{index}.json"),
            Class::Cold => format!("specs/cold{index}.json"),
        };
        let mut defaults = ObjBuilder::new()
            .field("width", WIDTH)
            .field("effort", crate::workload::EFFORT);
        if let Some(f) = fanout {
            defaults = defaults.field("steiner_fanout", f);
        }
        let jobs = Value::Arr(
            jobs.iter()
                .map(|j| {
                    ObjBuilder::new()
                        .field("name", format!("g{}-{}", j.group, j.flow))
                        .field(
                            "modes",
                            Value::Arr(
                                (0..2)
                                    .map(|m| Value::from(format!("../blif/g{}m{m}.blif", j.group)))
                                    .collect(),
                            ),
                        )
                        .field("flow", j.flow)
                        .field("seed", j.seed)
                        .build()
                })
                .collect(),
        );
        let spec = ObjBuilder::new()
            .field("k", crate::workload::LUT_K)
            .field("defaults", defaults.build())
            .field("jobs", jobs)
            .build();
        write(&self.dir.join(&name), &spec.to_json())?;
        self.specs.push(name);
        self.classes.push(class);
        Ok(index)
    }

    /// Writes the spec files of a request sequence and returns their
    /// indices: hits pick a primed spec with `rng`, replays copy the
    /// primed specs in turn with a new `steiner_fanout`, colds copy their
    /// shape with new placer seeds from a stream of their own.
    ///
    /// # Errors
    ///
    /// Fails when a file cannot be written.
    pub fn requests(&mut self, rng: &mut Rng, classes: &[Class]) -> Result<Vec<usize>, String> {
        classes
            .iter()
            .map(|&class| {
                match class {
                    Class::Hit => Ok(rng.below(HIT_SPECS)),
                    Class::Replay => {
                        // Above any fanout of these circuits: the option
                        // is new to the cache, the routes are not.
                        let jobs = self.hit_jobs[self.next_fanout % HIT_SPECS].clone();
                        self.next_fanout += 1;
                        let fanout = 1000 + self.next_fanout;
                        self.add_spec(Class::Replay, &jobs, Some(fanout))
                    }
                    Class::Cold => {
                        let mut jobs = self.hit_jobs[0].clone();
                        for j in &mut jobs {
                            j.seed = self.cold_seeds.next_u64() >> 11;
                        }
                        self.add_spec(Class::Cold, &jobs, None)
                    }
                }
            })
            .collect()
    }

    /// The request line for spec `index`.
    #[must_use]
    pub fn request_line(&self, index: usize) -> String {
        let mut line = ObjBuilder::new()
            .field("cmd", "batch")
            .field("spec", self.specs[index].as_str())
            .field("k", crate::workload::LUT_K)
            .build()
            .to_json();
        line.push('\n');
        line
    }

    /// Path of spec `index` as this process sees it.
    #[must_use]
    pub fn spec_path(&self, index: usize) -> PathBuf {
        self.dir.join(&self.specs[index])
    }
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// The `summary` frame arrived.
    Summary(Value),
    /// An `error` frame.
    Error(String),
    /// A `busy` frame.
    Busy,
    /// No complete answer within [`READ_TIMEOUT`].
    Timeout,
    /// The connection closed first.
    Closed,
}

/// One answered request, with client-side frame timestamps.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Spec index.
    pub spec: usize,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When it was written to the socket.
    pub sent: Instant,
    /// When the `accepted` frame arrived.
    pub accepted: Option<Instant>,
    /// When the first record arrived.
    pub first_record: Option<Instant>,
    /// When the answer completed.
    pub done: Instant,
    /// The streamed records.
    pub records: Vec<String>,
    /// How it ended.
    pub answer: Answer,
}

impl Exchange {
    /// Latency from due time to the end of the answer.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }
}

struct Frames {
    accepted: Option<Instant>,
    first_record: Option<Instant>,
    records: Vec<String>,
}

/// Reads one answer: frames and records up to the terminating
/// `summary`, `error` or `busy` frame.
fn read_answer(reader: &mut BufReader<UnixStream>) -> (Frames, Answer, Instant) {
    let mut frames = Frames {
        accepted: None,
        first_record: None,
        records: Vec::new(),
    };
    let mut line = String::new();
    loop {
        line.clear();
        let answer = match reader.read_line(&mut line) {
            Ok(0) => Answer::Closed,
            Err(_) => Answer::Timeout,
            Ok(_) => match classify(line.trim_end()) {
                Ok(ServerLine::Record(record)) => {
                    frames.first_record.get_or_insert_with(Instant::now);
                    frames.records.push(record.to_string());
                    continue;
                }
                Ok(ServerLine::Frame(Frame::Accepted { .. })) => {
                    frames.accepted = Some(Instant::now());
                    continue;
                }
                Ok(ServerLine::Frame(Frame::Summary { summary })) => Answer::Summary(summary),
                Ok(ServerLine::Frame(Frame::Error { message, .. })) => Answer::Error(message),
                Ok(ServerLine::Frame(Frame::Busy { .. })) => Answer::Busy,
                Ok(ServerLine::Frame(_)) => continue,
                Err(e) => Answer::Error(e),
            },
        };
        return (frames, answer, Instant::now());
    }
}

/// A client connection.
pub struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    /// Connects to the daemon's socket.
    ///
    /// # Errors
    ///
    /// Fails when the socket does not accept.
    pub fn connect(socket: &Path) -> std::io::Result<Self> {
        let writer = UnixStream::connect(socket)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    /// Sends one request and waits for its answer (closed loop).
    pub fn exchange(&mut self, spec: usize, line: &str) -> Exchange {
        let sent = Instant::now();
        if self.writer.write_all(line.as_bytes()).is_err() {
            return Exchange {
                spec,
                due: sent,
                sent,
                accepted: None,
                first_record: None,
                done: Instant::now(),
                records: Vec::new(),
                answer: Answer::Closed,
            };
        }
        let (frames, answer, done) = read_answer(&mut self.reader);
        Exchange {
            spec,
            due: sent,
            sent,
            accepted: frames.accepted,
            first_record: frames.first_record,
            done,
            records: frames.records,
            answer,
        }
    }

    /// Sends a liveness probe and waits for `pong`.
    fn ping(&mut self) -> bool {
        if self.writer.write_all(b"{\"cmd\":\"ping\"}\n").is_err() {
            return false;
        }
        let mut line = String::new();
        self.reader.read_line(&mut line).is_ok()
            && matches!(
                classify(line.trim_end()),
                Ok(ServerLine::Frame(Frame::Pong))
            )
    }
}

/// The `mmflow serve` child process.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `mmflow serve` in `dir` (two workers, cache in `dir/cache`)
    /// and waits until it answers `ping`.
    ///
    /// # Errors
    ///
    /// Fails when the binary cannot start or never answers.
    pub fn start(mmflow: &Path, dir: &Path) -> Result<Self, String> {
        let log = std::fs::File::create(dir.join("serve.log")).map_err(|e| e.to_string())?;
        let child = Command::new(mmflow)
            .args(["serve", "--listen", "unix:mm.sock", "--cache", "cache"])
            .args(["--threads", &WORKERS.to_string()])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("{}: {e}", mmflow.display()))?;
        let mut daemon = Self {
            child,
            socket: dir.join("mm.sock"),
        };
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(20) {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!(
                    "mmflow serve exited early ({status}); see {}",
                    dir.join("serve.log").display()
                ));
            }
            if let Ok(mut conn) = Conn::connect(&daemon.socket) {
                if conn.ping() {
                    return Ok(daemon);
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.kill();
        Err("mmflow serve did not answer ping within 20 s".into())
    }

    /// The daemon's socket.
    #[must_use]
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Peak RSS of the daemon so far.
    #[must_use]
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(Some(self.child.id()))
    }

    /// CPU seconds the daemon has used so far (`NaN` once it is gone).
    #[must_use]
    pub fn cpu_s(&self) -> f64 {
        cpu::of_process(self.child.id()).unwrap_or(f64::NAN)
    }

    /// Asks the daemon to drain and waits for it to exit (killing it
    /// after 20 s).
    pub fn stop(mut self) {
        if let Ok(mut conn) = Conn::connect(&self.socket) {
            let _ = conn.writer.write_all(b"{\"cmd\":\"shutdown\"}\n");
        }
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(20) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// Open loop: request `i` is due at `i / rate` seconds and goes out on
/// the connection with the fewest answers outstanding (pipelined behind
/// them). Also returns how late each send was.
fn open_loop(
    ws: &Workspace,
    socket: &Path,
    requests: &[usize],
    rate: f64,
) -> Result<(Vec<Exchange>, Vec<f64>), String> {
    let conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(socket).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let lines: Vec<String> = requests.iter().map(|&s| ws.request_line(s)).collect();
    let pending: Vec<Mutex<VecDeque<(usize, Instant, Instant)>>> = (0..CONNECTIONS)
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    let answers: Mutex<Vec<Option<Exchange>>> = Mutex::new(vec![None; requests.len()]);
    let sending = AtomicBool::new(true);
    let mut lag = Vec::with_capacity(requests.len());
    let (mut writers, readers): (Vec<UnixStream>, Vec<BufReader<UnixStream>>) =
        conns.into_iter().map(|c| (c.writer, c.reader)).unzip();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (c, mut reader) in readers.into_iter().enumerate() {
            let (pending, answers, sending) = (&pending[c], &answers, &sending);
            s.spawn(move || loop {
                if pending.lock().expect("lock").is_empty() {
                    if !sending.load(Ordering::Acquire) {
                        break;
                    }
                    // Nothing outstanding: no answer can be on its way.
                    std::thread::sleep(Duration::from_micros(200));
                    continue;
                }
                let (frames, answer, done) = read_answer(&mut reader);
                // The request is queued before it is written, so an
                // answer always finds its entry.
                let Some((i, due, sent)) = pending.lock().expect("lock").pop_front() else {
                    break;
                };
                let stop = !matches!(answer, Answer::Summary(_) | Answer::Error(_) | Answer::Busy);
                answers.lock().expect("lock")[i] = Some(Exchange {
                    spec: requests[i],
                    due,
                    sent,
                    accepted: frames.accepted,
                    first_record: frames.first_record,
                    done,
                    records: frames.records,
                    answer,
                });
                if stop {
                    break;
                }
            });
        }
        for (i, line) in lines.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            // The connection with the fewest answers outstanding.
            let c = (0..CONNECTIONS)
                .min_by_key(|&c| pending[c].lock().expect("lock").len())
                .expect("at least one connection");
            let sent = Instant::now();
            lag.push((sent - due).as_secs_f64() * 1e3);
            pending[c].lock().expect("lock").push_back((i, due, sent));
            if writers[c].write_all(line.as_bytes()).is_err() {
                break;
            }
        }
        sending.store(false, Ordering::Release);
        // Readers finish on their own: every request gets an answer or a
        // read timeout.
    });
    let answers = answers.into_inner().expect("threads joined");
    let now = Instant::now();
    let exchanges = answers
        .into_iter()
        .enumerate()
        .map(|(i, a)| {
            a.unwrap_or(Exchange {
                spec: requests[i],
                due: t0 + Duration::from_secs_f64(i as f64 / rate),
                sent: now,
                accepted: None,
                first_record: None,
                done: now,
                records: Vec::new(),
                answer: Answer::Timeout,
            })
        })
        .collect();
    Ok((exchanges, lag))
}

/// Reference records from an in-process engine with its own stage cache
/// and result memo, like the daemon's: the primed specs first, then every
/// request of `sequence` in order. Returns the records of every spec and
/// the stage cache's counters over `sequence`, which match what the
/// daemon did with the same requests.
pub fn references(
    ws: &Workspace,
    sequence: &[usize],
) -> Result<(BTreeMap<usize, Vec<String>>, CacheStats), String> {
    let _ = std::fs::remove_dir_all(ws.dir.join("refcache"));
    let engine = Engine::new(EngineOptions {
        threads: WORKERS,
        cache_dir: Some(ws.dir.join("refcache")),
        result_memo: 4096,
    })
    .map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    let run = |spec: usize| -> Result<Vec<String>, String> {
        Ok(engine
            .run(load(ws, spec)?)
            .results
            .iter()
            .map(|r| r.to_json_line())
            .collect())
    };
    for spec in 0..HIT_SPECS {
        out.insert(spec, run(spec)?);
    }
    let before = engine.cache().map(StageCache::stats).unwrap_or_default();
    for &spec in sequence {
        out.insert(spec, run(spec)?);
    }
    let stats = engine
        .cache()
        .map(StageCache::stats)
        .unwrap_or_default()
        .since(before);
    Ok((out, stats))
}

fn load(ws: &Workspace, spec: usize) -> Result<Vec<Job>, String> {
    let path = ws.spec_path(spec);
    let path = path.to_str().ok_or("non-UTF-8 work directory")?;
    Ok(load_spec(path, &FlowOptions::default(), crate::workload::LUT_K)?.jobs)
}

/// Failure accounting of one exchange: `None` if every record is an ok
/// record byte-identical to the reference, else why it failed. Each
/// request counts at most once.
#[must_use]
pub fn failure(e: &Exchange, reference: Option<&Vec<String>>) -> Option<String> {
    match &e.answer {
        Answer::Summary(_) => {}
        Answer::Error(m) => return Some(format!("error frame: {m}")),
        Answer::Busy => return Some("busy frame".into()),
        Answer::Timeout => return Some("timed out".into()),
        Answer::Closed => return Some("connection closed".into()),
    }
    if let Some(bad) = e.records.iter().find(|r| !r.contains("\"status\":\"ok\"")) {
        return Some(format!("error record: {bad}"));
    }
    match reference {
        Some(lines) if *lines == e.records => None,
        Some(_) => Some("records differ from the in-process engine".into()),
        None => Some("no reference".into()),
    }
}

/// Counts the failed requests of a phase; returns that count and the ok
/// jobs of every request (0 for a failed one).
pub fn account(
    phase: &[Exchange],
    refs: &BTreeMap<usize, Vec<String>>,
    problems: &mut Vec<String>,
) -> (u64, Vec<f64>) {
    let mut failed = 0;
    let mut ok_jobs = Vec::with_capacity(phase.len());
    for e in phase {
        match failure(e, refs.get(&e.spec)) {
            Some(why) => {
                failed += 1;
                ok_jobs.push(0.0);
                if problems.len() < 20 {
                    problems.push(format!("{}: {why}", e.spec));
                }
            }
            None => ok_jobs.push(e.records.len() as f64),
        }
    }
    (failed, ok_jobs)
}

/// Latencies of a phase, a failed or refused request counting as
/// missing any limit.
fn latencies(phase: &[Exchange]) -> Vec<f64> {
    phase
        .iter()
        .map(|e| {
            if matches!(e.answer, Answer::Summary(_)) {
                e.latency_ms()
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// What one set-up produced.
struct Setup {
    ws: Workspace,
    daemon: Daemon,
}

fn setup(mmflow: &Path, dir: &Path) -> Result<Setup, String> {
    let ws = Workspace::create(dir)?;
    let daemon = Daemon::start(mmflow, &ws.dir)?;
    let mut conn = Conn::connect(daemon.socket()).map_err(|e| e.to_string())?;
    for h in 0..HIT_SPECS {
        let e = conn.exchange(h, &ws.request_line(h));
        if !matches!(e.answer, Answer::Summary(_)) {
            return Err(format!("priming {} failed: {:?}", ws.specs[h], e.answer));
        }
    }
    Ok(Setup { ws, daemon })
}

/// Sums a `summary.cache` counter over exchanges.
fn summary_sum(phase: &[Exchange], key: &str) -> f64 {
    phase
        .iter()
        .filter_map(|e| match &e.answer {
            Answer::Summary(s) => s
                .get("cache")
                .and_then(|c| c.get(key))
                .and_then(Value::as_f64),
            _ => None,
        })
        .sum()
}

/// Runs `serve_warm`: the untraced run reports the end-to-end metrics,
/// the traced run (`trace`) the per-layer ones.
///
/// # Errors
///
/// Fails when the daemon cannot be started or the work directory
/// written.
pub fn run(mmflow: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mmflow = std::fs::canonicalize(mmflow).map_err(|e| format!("{mmflow}: {e}"))?;
    let root = PathBuf::from(".bench_work").join(format!("serve-{}", std::process::id()));
    let result = run_in(&mmflow, &root, seed, seconds, trace);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(
    mmflow: &Path,
    root: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let mut setup_cpu = Vec::new();
    let mut last = None;
    for _ in 0..if trace { 1 } else { SETUP_REPEATS } {
        if let Some(Setup { daemon, .. }) = last.take() {
            daemon.stop();
        }
        // Set-up CPU: this process writing the work directory and
        // priming, plus everything the new daemon has done.
        let (s, spent) = speed::bracket(|| {
            let c = cpu::process();
            let s = setup(mmflow, root);
            let daemon = s.as_ref().map_or(0.0, |s| s.daemon.cpu_s());
            (s, cpu::process() - c + daemon)
        });
        setup_cpu.push(spent);
        last = Some(s?);
    }
    let Setup { mut ws, daemon } = last.expect("at least one set-up");
    let socket = daemon.socket().to_path_buf();

    let n = (FIXED_RATE * seconds).round().max(MIN_REQUESTS) as usize;
    let requests = {
        let mut rng = Rng::new(seed, "serve_warm/requests");
        ws.requests(&mut rng, &class_sequence(n))?
    };
    if trace {
        return traced(&ws, daemon, &requests);
    }
    // The daemon's threads are not bound; its two workers share the
    // CPUs probed here.
    let probe = speed::probe(&speed::worker_cpus(WORKERS));
    let (t, c) = (Instant::now(), daemon.cpu_s());
    let (ex, _) = open_loop(&ws, &socket, &requests, FIXED_RATE)?;
    let (wall, daemon_cpu) = (t.elapsed().as_secs_f64(), daemon.cpu_s() - c);
    let kernel_s = probe.finish().kernel_s(t, Instant::now());
    let rss = daemon.peak_rss_mb();
    daemon.stop();

    let (refs, _) = references(&ws, &requests)?;
    let mut problems = Vec::new();
    let (failed, ok_jobs) = account(&ex, &refs, &mut problems);
    let attempted = ex.len() as u64;

    let mut qor = Qor::default();
    for h in 0..HIT_SPECS {
        for line in refs.get(&h).into_iter().flatten() {
            let _ = qor.add_record(line);
        }
    }
    let latencies = latencies(&ex);
    let ok_jobs: f64 = ok_jobs.iter().sum();
    eprintln!(
        "perfbench: wall: {} requests in {wall:.2} s, {ok_jobs} ok jobs, p95 {:.1} ms; \
         daemon CPU {daemon_cpu:.2} s; kernel {:.3} ms",
        ex.len(),
        quantile(&latencies, TAIL),
        1e3 * kernel_s
    );

    let mut report = Report::new(attempted, failed, problems);
    report.end_to_end(&EndToEnd {
        setup_s: median(&setup_cpu),
        jobs_per_cpu_s: ok_jobs / speed::scale(daemon_cpu, kernel_s),
        op_time_ms: speed::scale(quantile(&latencies, TAIL), kernel_s),
        peak_rss_mb: rss.unwrap_or(f64::NAN),
        qor,
    });
    Ok(report)
}

/// The traced run: the open-loop phase against the live daemon with
/// frame timestamps; then, in-process on the same requests, the spec,
/// cache and record calls, and the primed jobs re-derived through the
/// layer calls.
fn traced(ws: &Workspace, daemon: Daemon, requests: &[usize]) -> Result<Report, String> {
    let (ex, lag) = open_loop(ws, daemon.socket(), requests, FIXED_RATE)?;
    daemon.stop();
    // Every request again, in order, through an in-process engine with
    // its own cache: the references, and exact cache counters.
    let (refs, cache) = references(ws, requests)?;
    let mut problems = Vec::new();
    let (mut failed, _) = account(&ex, &refs, &mut problems);

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let accept: Vec<f64> = ex
        .iter()
        .filter_map(|e| e.accepted.map(|a| ms(a - e.sent)))
        .collect();
    let first: Vec<f64> = ex
        .iter()
        .filter_map(|e| e.first_record.map(|a| ms(a - e.sent)))
        .collect();
    let queue_peak = ex
        .iter()
        .filter_map(|e| match &e.answer {
            Answer::Summary(s) => s.get("shards").and_then(Value::as_arr).map(|shards| {
                shards
                    .iter()
                    .filter_map(|sh| sh.get("peak_queued").and_then(Value::as_f64))
                    .fold(0.0, f64::max)
            }),
            _ => None,
        })
        .fold(0.0, f64::max);
    let busy_frames = ex.iter().filter(|e| e.answer == Answer::Busy).count();

    let mut load_ms = Vec::new();
    for &spec in requests {
        let t = Instant::now();
        load(ws, spec)?;
        load_ms.push(ms(t.elapsed()));
    }
    let mut primed_jobs: Vec<Job> = (0..HIT_SPECS)
        .map(|h| load(ws, h))
        .collect::<Result<Vec<_>, _>>()?
        .concat();
    // One thread per job, as the daemon runs them, so the per-job CPU
    // clocks see all of a job's work.
    for job in &mut primed_jobs {
        job.options.intra_parallelism = 1;
    }
    let primed_records: Vec<Option<String>> = (0..HIT_SPECS)
        .flat_map(|h| refs.get(&h).cloned().unwrap_or_default())
        .map(Some)
        .collect();
    let (get_ms, put_ms) = time_cache(ws, &primed_jobs, &primed_records)?;

    let engine = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: None,
        result_memo: 0,
    })
    .map_err(|e| e.to_string())?;
    let cores = speed::worker_cpus(WORKERS);
    let probe = speed::probe(&cores);
    let executed = crate::batch::run_jobs(&engine, &primed_jobs, &cores, Duration::ZERO);
    let (traces, mismatches) =
        crate::batch::rederive_checked(&primed_jobs, &primed_records, WORKERS);
    let samples = probe.finish();
    failed += mismatches.len() as u64;
    problems.extend(mismatches);
    let untraced = crate::batch::cpu_by_job(&samples, &executed, primed_jobs.len());
    let (overhead, stray) = crate::batch::overhead(&untraced, &traces, &samples);
    problems.extend(stray);
    let times = crate::trace::LayerTimes::from_traces(&traces);

    let hit_latencies: Vec<f64> = ex
        .iter()
        .filter(|e| ws.classes[e.spec] == Class::Hit)
        .map(Exchange::latency_ms)
        .collect();

    let mut report = Report::new(ex.len() as u64, failed, problems);
    report.layers(ws.gen_s, ws.luts, &times, overhead);
    report.engine_calls(&primed_jobs, &primed_records);
    report.serve_layers(&ServeLayers {
        spec_load_ms: median(&load_ms),
        cache_hits: summary_sum(&ex, "stages_from_cache"),
        cache_misses: summary_sum(&ex, "stages_recomputed"),
        cache_writes: cache.writes as f64,
        cache_get_ms: get_ms,
        cache_put_ms: put_ms,
        hit_ms_p50: median(&hit_latencies),
        accept_ms_p50: median(&accept),
        first_record_ms_p50: median(&first),
        queue_peak,
        busy_frames: busy_frames as f64,
        gen_lag_ms_p99: quantile(&lag, 0.99),
    });
    Ok(report)
}

/// Times `StageCache::put` then `StageCache::get` in a private cache on
/// the payloads the primed jobs store: their placements and their result
/// metrics. Returns the median get and put times in ms.
fn time_cache(
    ws: &Workspace,
    jobs: &[Job],
    records: &[Option<String>],
) -> Result<(f64, f64), String> {
    let cache = StageCache::open(ws.dir.join("timecache")).map_err(|e| e.to_string())?;
    let mut payloads: Vec<Value> = records
        .iter()
        .flatten()
        .filter_map(|line| json::parse(line).ok()?.get("metrics").cloned())
        .collect();
    for job in jobs {
        let input =
            mm_flow::MultiModeInput::new(job.circuits.clone()).map_err(|e| e.to_string())?;
        let placement = mm_flow::DcsFlow::new(job.options)
            .place(&input)
            .map_err(|e| e.to_string())?;
        payloads.push(mm_engine::placements_value(&job.circuits, &placement.modes));
    }
    let mut put = Vec::new();
    let mut get = Vec::new();
    for (i, payload) in payloads.iter().enumerate() {
        let key = format!("{i:064x}");
        let t = Instant::now();
        cache.put("timing", &key, payload);
        put.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let back = cache.get("timing", &key);
        get.push(t.elapsed().as_secs_f64() * 1e3);
        if back.as_ref() != Some(payload) {
            return Err("the stage cache returned a different payload".into());
        }
    }
    Ok((median(&get), median(&put)))
}
