//! End-to-end chaos tests of the batch service under armed fault
//! points: workers killed mid-job, jobs stalled past their deadline,
//! and connections dropped mid-stream. In every scenario the server
//! must drain cleanly and the surviving records must be byte-identical
//! to a fault-free engine run.
//!
//! The fault-point registry is process-global, so this file is its own
//! test binary and every test serializes on [`FAULT_LOCK`], disarming
//! through a drop guard.

use mm_engine::protocol::{classify, Frame, Request, ServerLine};
use mm_engine::{faultpoint, load_spec, Engine, EngineOptions};
use mm_flow::{FlowOptions, WidthChoice};
use mm_netlist::blif;
use mm_serve::{Client, Listen, ServeOptions, Server, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Holds the process-wide fault lock for a test and disarms the
/// registry on the way out, panic or not.
struct FaultGuard<'a> {
    _guard: std::sync::MutexGuard<'a, ()>,
}

impl<'a> FaultGuard<'a> {
    fn take() -> Self {
        Self {
            _guard: FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

impl Drop for FaultGuard<'_> {
    fn drop(&mut self) {
        faultpoint::disarm();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mm_serve_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_spec_dir(root: &Path, groups: usize) -> PathBuf {
    let dir = root.join("jobs");
    for g in 0..groups {
        let group = dir.join(format!("g{g}"));
        std::fs::create_dir_all(&group).unwrap();
        for m in 0..2 {
            let c = mm_gen::seeded_test_circuit(
                &format!("m{m}"),
                5,
                8 + g,
                0x5eed_0000 + (g * 10 + m) as u64,
            );
            std::fs::write(group.join(format!("m{m}.blif")), blif::to_blif(&c)).unwrap();
        }
    }
    dir
}

fn test_request(spec: &str) -> mm_engine::protocol::BatchRequest {
    let mut b = mm_engine::protocol::BatchRequest::new(spec);
    b.overrides.width = Some(12);
    b.overrides.effort = Some(1.0);
    b.overrides.max_iterations = Some(30);
    b
}

/// The same overrides applied locally — reference records come from a
/// serial, cacheless, fault-free engine.
fn reference_records(spec: &str) -> Vec<String> {
    let mut o = FlowOptions {
        width: WidthChoice::Fixed(12),
        ..FlowOptions::default()
    };
    o.placer.inner_num = 1.0;
    o.router.max_iterations = 30;
    let jobs = load_spec(spec, &o, 4).unwrap().jobs;
    let engine = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: None,
        result_memo: 0,
    })
    .unwrap();
    engine
        .run(jobs)
        .results
        .iter()
        .map(mm_engine::JobResult::to_json_line)
        .collect()
}

struct RunningServer {
    handle: ServerHandle,
    socket: PathBuf,
    thread: std::thread::JoinHandle<std::io::Result<mm_serve::ServeReport>>,
}

impl RunningServer {
    fn start(root: &Path, options: ServeOptions) -> Self {
        let socket = root.join("mmflow.sock");
        let server = Server::bind(&Listen::Unix(socket.clone()), &options).unwrap();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Self {
            handle,
            socket,
            thread,
        }
    }

    fn listen(&self) -> Listen {
        Listen::Unix(self.socket.clone())
    }

    fn stop(self) -> mm_serve::ServeReport {
        self.handle.shutdown();
        self.thread.join().unwrap().unwrap()
    }
}

#[test]
fn worker_panics_mid_job_recover_to_reference_bytes() {
    let _fault = FaultGuard::take();
    let root = tmp_dir("panic");
    let spec = write_spec_dir(&root, 4);
    let spec = spec.to_string_lossy().into_owned();
    let reference = reference_records(&spec);

    let server = RunningServer::start(
        &root,
        ServeOptions {
            threads: 1,
            cache_dir: None,
            fault_spec: Some("seed=3,worker_panic=0.8".into()),
            ..ServeOptions::default()
        },
    );
    let mut client = Client::connect(&server.listen()).unwrap();
    let mut records = Vec::new();
    let outcome = client
        .submit(&test_request(&spec), |r| {
            records.push(r.to_string());
            Ok(())
        })
        .unwrap()
        .expect("batch admitted");
    assert_eq!(outcome.accepted, reference.len());
    assert_eq!(records, reference, "retried panics must not change bytes");

    drop(client);
    let report = server.stop();
    assert_eq!(report.jobs, reference.len() as u64);
    assert!(
        report.panic_retries > 0,
        "the armed fault must actually have killed at least one execution"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stuck_jobs_time_out_and_the_workers_survive() {
    let _fault = FaultGuard::take();
    let root = tmp_dir("stall");
    let spec = write_spec_dir(&root, 2);
    let spec = spec.to_string_lossy().into_owned();
    let reference = reference_records(&spec);

    let server = RunningServer::start(
        &root,
        ServeOptions {
            threads: 2,
            cache_dir: None,
            deadline_ms: 100,
            fault_spec: Some("seed=4,job_stall=1,stall_ms=1500".into()),
            ..ServeOptions::default()
        },
    );

    // Every job stalls 1.5 s against a 100 ms deadline: the watchdog
    // answers each with a structured timeout record.
    let mut stream = UnixStream::connect(&server.socket).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = Request::Batch(test_request(&spec)).to_json_line();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    let (records, _) = read_exchange(&mut reader);
    assert_eq!(records.len(), reference.len());
    for record in &records {
        assert!(
            record.contains("\"stage\":\"timeout\""),
            "expected a timeout record, got {record}"
        );
    }

    // Disarm and resubmit on the same connection: the workers survived
    // and now produce the reference bytes.
    faultpoint::disarm();
    stream.write_all(line.as_bytes()).unwrap();
    let (records, _) = read_exchange(&mut reader);
    assert_eq!(records, reference);

    drop((stream, reader));
    let report = server.stop();
    assert_eq!(report.timed_out_jobs, reference.len() as u64);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dropped_connections_are_purged_and_a_retrying_client_completes() {
    let _fault = FaultGuard::take();
    let root = tmp_dir("drop");
    let spec = write_spec_dir(&root, 4);
    let spec = spec.to_string_lossy().into_owned();
    let reference = reference_records(&spec);

    // Phase 1: every admission drops the connection mid-stream while
    // jobs are slowed enough that some are still queued at the drop —
    // the server must purge them and keep draining.
    let server = RunningServer::start(
        &root,
        ServeOptions {
            threads: 1,
            cache_dir: None,
            fault_spec: Some("seed=5,conn_drop=1,job_stall=1,stall_ms=300".into()),
            ..ServeOptions::default()
        },
    );
    let mut stream = UnixStream::connect(&server.socket).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = Request::Batch(test_request(&spec)).to_json_line();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    let mut streamed = 0usize;
    let mut saw_summary = false;
    let mut buf = String::new();
    loop {
        buf.clear();
        if reader.read_line(&mut buf).unwrap() == 0 {
            break; // the injected drop closed the connection
        }
        match classify(buf.trim_end()).unwrap() {
            ServerLine::Record(_) => streamed += 1,
            ServerLine::Frame(Frame::Summary { .. }) => saw_summary = true,
            ServerLine::Frame(_) => {}
        }
    }
    assert!(!saw_summary, "the batch must have been cut off mid-stream");
    assert!(
        streamed < reference.len(),
        "drop_at fires before the stream completes"
    );
    drop((stream, reader));

    // Phase 2: re-arm with an intermittent drop (no stall) and let the
    // retrying client ride through it to a byte-perfect batch.
    faultpoint::arm("seed=6,conn_drop=0.45").unwrap();
    let mut client = Client::connect(&server.listen()).unwrap();
    let mut records = Vec::new();
    let outcome = client
        .submit_with_retries(&test_request(&spec), 16, |r| {
            records.push(r.to_string());
            Ok(())
        })
        .unwrap()
        .expect("retrying client completes");
    assert_eq!(records, reference, "no lost or duplicated records");
    drop(client);

    faultpoint::disarm();
    let report = server.stop();
    assert!(
        report.purged_jobs > 0,
        "queued jobs of the dropped client must be purged and counted"
    );
    assert!(outcome.retries <= 16);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_drain_lets_the_batch_in_flight_finish_and_answers_what_follows() {
    let _fault = FaultGuard::take();
    let root = tmp_dir("drain");
    let spec = write_spec_dir(&root, 2);
    let spec = spec.to_string_lossy().into_owned();
    let reference = reference_records(&spec);

    // Every job stalls, so the batch is still streaming when the drain
    // begins.
    let server = RunningServer::start(
        &root,
        ServeOptions {
            threads: 1,
            cache_dir: None,
            fault_spec: Some("seed=7,job_stall=1,stall_ms=300".into()),
            ..ServeOptions::default()
        },
    );
    let mut stream = UnixStream::connect(&server.socket).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = Request::Batch(test_request(&spec)).to_json_line();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    let mut accepted = String::new();
    reader.read_line(&mut accepted).unwrap();
    assert!(accepted.contains("\"accepted\""), "{accepted}");

    let mut other = UnixStream::connect(&server.socket).unwrap();
    other.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
    let (_, frames) = read_exchange(&mut BufReader::new(other));
    assert_eq!(frames, vec![Frame::ShuttingDown]);

    // The batch streams on to its summary, and a line sent during the
    // drain still gets its answer before the connection closes.
    stream.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
    let (records, frames) = read_exchange(&mut reader);
    assert_eq!(records, reference);
    assert!(
        matches!(frames.as_slice(), [Frame::Summary { .. }]),
        "{frames:?}"
    );
    assert_eq!(read_exchange(&mut reader).1, vec![Frame::Pong]);
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "{rest}");

    let report = server.thread.join().unwrap().unwrap();
    assert_eq!(report.jobs, reference.len() as u64);
    assert_eq!(report.purged_jobs, 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// Reads server lines until (and including) a terminal frame.
fn read_exchange(reader: &mut BufReader<UnixStream>) -> (Vec<String>, Vec<Frame>) {
    let mut records = Vec::new();
    let mut frames = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).unwrap();
        assert!(n > 0, "server closed mid-exchange");
        match classify(line.trim_end()).unwrap() {
            ServerLine::Record(record) => records.push(record.to_string()),
            ServerLine::Frame(frame) => {
                let terminal = !matches!(frame, Frame::Accepted { .. } | Frame::Queued { .. });
                frames.push(frame);
                if terminal {
                    return (records, frames);
                }
            }
        }
    }
}
