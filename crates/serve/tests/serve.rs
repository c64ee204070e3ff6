//! In-process integration tests of the batch service: protocol frames,
//! record byte-identity with the engine, failure isolation, cache
//! sharing across connections, and graceful drain.

use mm_engine::protocol::{classify, Frame, Request, ServerLine};
use mm_engine::{load_spec, Engine, EngineOptions};
use mm_flow::{FlowOptions, WidthChoice};
use mm_netlist::{blif, LutCircuit};
use mm_serve::{Listen, ServeOptions, Server, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

/// The repo's shared seeded circuit shape (`mm_gen`), shrunk for
/// service tests.
fn small_circuit(name: &str, n_luts: usize, seed: u64) -> LutCircuit {
    mm_gen::seeded_test_circuit(name, 5, n_luts, seed)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mm_serve_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a directory-of-mode-groups spec and returns its path.
fn write_spec_dir(root: &Path, groups: usize) -> PathBuf {
    let dir = root.join("jobs");
    for g in 0..groups {
        let group = dir.join(format!("g{g}"));
        std::fs::create_dir_all(&group).unwrap();
        for m in 0..2 {
            let c = small_circuit(&format!("m{m}"), 8 + g, 0x5eed_0000 + (g * 10 + m) as u64);
            std::fs::write(group.join(format!("m{m}.blif")), blif::to_blif(&c)).unwrap();
        }
    }
    dir
}

/// The overrides every test batch uses (fast, deterministic).
fn test_request(spec: &str) -> mm_engine::protocol::BatchRequest {
    let mut b = mm_engine::protocol::BatchRequest::new(spec);
    b.overrides.width = Some(12);
    b.overrides.effort = Some(1.0);
    b.overrides.max_iterations = Some(30);
    b
}

/// The same overrides as [`test_request`], applied locally.
fn test_options() -> FlowOptions {
    let mut o = FlowOptions {
        width: WidthChoice::Fixed(12),
        ..FlowOptions::default()
    };
    o.placer.inner_num = 1.0;
    o.router.max_iterations = 30;
    o
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

    fn connect(&self) -> UnixStream {
        UnixStream::connect(&self.socket).unwrap()
    }

    fn stop(self) -> mm_serve::ServeReport {
        self.handle.shutdown();
        self.thread.join().unwrap().unwrap()
    }
}

fn send(stream: &mut UnixStream, request: &Request) {
    let mut line = request.to_json_line();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    stream.flush().unwrap();
}

/// Reads server lines until (and including) a terminal frame: summary,
/// error, pong or shutting_down.
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

#[test]
fn ping_error_recovery_and_shutdown_frames() {
    let root = tmp_dir("ping");
    let server = RunningServer::start(&root, ServeOptions::default());

    let mut stream = server.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    send(&mut stream, &Request::Ping);
    let (records, frames) = read_exchange(&mut reader);
    assert!(records.is_empty());
    assert_eq!(frames, vec![Frame::Pong]);

    // A malformed request yields one error frame — carrying the byte
    // offset of the offending line and a truncated echo of it — and
    // keeps the connection usable.
    stream.write_all(b"this is not json\n").unwrap();
    let (_, frames) = read_exchange(&mut reader);
    match &frames[0] {
        Frame::Error { offset, line, .. } => {
            let ping_len = Request::Ping.to_json_line().len() as u64 + 1;
            assert_eq!(*offset, Some(ping_len), "offset of the bad line");
            assert_eq!(line.as_deref(), Some("this is not json"));
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    send(&mut stream, &Request::Ping);
    let (_, frames) = read_exchange(&mut reader);
    assert_eq!(frames, vec![Frame::Pong]);

    // A protocol shutdown acknowledges, then the server drains.
    send(&mut stream, &Request::Shutdown);
    let (_, frames) = read_exchange(&mut reader);
    assert_eq!(frames, vec![Frame::ShuttingDown]);
    let report = server.stop();
    assert_eq!(report.connections, 1);
    assert!(!root.join("mmflow.sock").exists(), "socket path cleaned up");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn deeply_nested_request_is_an_error_frame_not_an_abort() {
    let root = tmp_dir("nested");
    let server = RunningServer::start(&root, ServeOptions::default());
    let mut stream = server.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // 200 KB of nesting, well under the request-line cap: a parser that
    // recursed once per level would overflow the daemon's stack.
    let mut line = String::from(r#"{"cmd":"batch","spec":"#);
    line.push_str(&"[".repeat(200_000));
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    let (records, frames) = read_exchange(&mut reader);
    assert!(records.is_empty());
    match frames.as_slice() {
        [Frame::Error { message, .. }] => {
            assert!(message.contains("nesting deeper than 128"), "{message}");
        }
        other => panic!("expected one error frame, got {other:?}"),
    }

    // The same daemon still answers.
    send(&mut stream, &Request::Ping);
    let (_, frames) = read_exchange(&mut reader);
    assert_eq!(frames, vec![Frame::Pong]);
    drop(reader);
    drop(stream);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn out_of_range_k_is_an_error_frame_on_every_connection() {
    let root = tmp_dir("bad_k");
    let server = RunningServer::start(&root, ServeOptions::default());
    // Timed reads: a daemon that lost its connection handlers fails the
    // test instead of hanging it.
    let open = || {
        let stream = server.connect();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    };
    // Each line on two connections held open side by side.
    let mut held = Vec::new();
    for (line, expected) in [
        (
            &b"{\"cmd\":\"batch\",\"spec\":\"suite:regexp\",\"k\":9}\n"[..],
            "k must be in 2..=6",
        ),
        (
            b"{\"cmd\":\"batch\",\"spec\":\"suite:regexp\",\"max_jobs\":1,\"width\":20000,\
              \"max_width\":20000,\"max_iterations\":1}\n",
            "\"width\" must be a channel width of at most 1024",
        ),
    ] {
        for _ in 0..2 {
            let (mut stream, mut reader) = open();
            stream.write_all(line).unwrap();
            let (records, frames) = read_exchange(&mut reader);
            assert!(records.is_empty());
            match frames.as_slice() {
                [Frame::Error { message, .. }] => {
                    assert!(message.contains(expected), "{message}");
                }
                other => panic!("expected one error frame, got {other:?}"),
            }
            held.push((stream, reader));
        }
    }

    let (mut stream, mut reader) = open();
    send(&mut stream, &Request::Ping);
    assert_eq!(read_exchange(&mut reader).1, vec![Frame::Pong]);
    send(&mut stream, &Request::Shutdown);
    assert_eq!(read_exchange(&mut reader).1, vec![Frame::ShuttingDown]);
    drop((stream, reader, held));
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn drain_closes_a_connection_its_client_holds_idle() {
    let root = tmp_dir("idle_drain");
    let server = RunningServer::start(&root, ServeOptions::default());
    let timeout = std::time::Duration::from_secs(10);

    // Client A pings, then holds its connection open without a word.
    let mut a = server.connect();
    a.set_read_timeout(Some(timeout)).unwrap();
    let mut a_reader = BufReader::new(a.try_clone().unwrap());
    send(&mut a, &Request::Ping);
    assert_eq!(read_exchange(&mut a_reader).1, vec![Frame::Pong]);

    // Client B asks for the drain.
    let mut b = server.connect();
    let mut b_reader = BufReader::new(b.try_clone().unwrap());
    send(&mut b, &Request::Shutdown);
    assert_eq!(read_exchange(&mut b_reader).1, vec![Frame::ShuttingDown]);

    // The drain closes A: its timed read ends in EOF, not a timeout.
    let mut line = String::new();
    let n = a_reader
        .read_line(&mut line)
        .expect("EOF within the read timeout");
    assert_eq!(n, 0, "{line}");

    // `run` returns without a handle shutdown.
    let start = std::time::Instant::now();
    while !server.thread.is_finished() {
        assert!(start.elapsed() < timeout, "Server::run did not return");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let report = server.thread.join().unwrap().unwrap();
    assert_eq!(report.connections, 2);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn batch_records_are_byte_identical_to_the_engine() {
    let root = tmp_dir("bytes");
    let spec = write_spec_dir(&root, 3);
    let spec_str = spec.to_str().unwrap();

    // Reference: the engine run `mmflow batch` would perform.
    let reference_engine = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: None,
        ..Default::default()
    })
    .unwrap();
    let batch = load_spec(spec_str, &test_options(), 4).unwrap();
    let expected: Vec<String> = reference_engine
        .run(batch.jobs)
        .results
        .iter()
        .map(mm_engine::JobResult::to_json_line)
        .collect();

    let server = RunningServer::start(
        &root,
        ServeOptions {
            threads: 2,
            cache_dir: None,
            max_connections: 4,
            ..ServeOptions::default()
        },
    );
    let mut stream = server.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    send(&mut stream, &Request::Batch(test_request(spec_str)));
    let (records, frames) = read_exchange(&mut reader);

    assert_eq!(frames[0], Frame::Accepted { jobs: 3 });
    assert_eq!(records, expected, "serve records == batch records");
    let Frame::Summary { summary } = &frames[1] else {
        panic!("expected summary, got {frames:?}");
    };
    assert_eq!(summary.get("jobs").and_then(|v| v.as_usize()), Some(3));
    assert_eq!(summary.get("ok").and_then(|v| v.as_usize()), Some(3));
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn one_infeasible_job_fails_alone_with_a_structured_record() {
    let root = tmp_dir("fail");
    let spec_dir = write_spec_dir(&root, 2);
    // A JSON spec: two good jobs plus one that cannot route (width cap
    // 1) — the batch must finish with exactly one error record.
    let spec_path = root.join("mixed.json");
    let blif = |g: usize, m: usize| format!("{}/g{g}/m{m}.blif", spec_dir.display());
    std::fs::write(
        &spec_path,
        format!(
            r#"{{
              "defaults": {{"width": 12, "effort": 1, "max_iterations": 30}},
              "jobs": [
                {{"name": "good0", "modes": ["{}", "{}"]}},
                {{"name": "doomed", "modes": ["{}", "{}"],
                  "width": 1, "max_width": 1, "max_iterations": 3}},
                {{"name": "good1", "modes": ["{}", "{}"]}}
              ]
            }}"#,
            blif(0, 0),
            blif(0, 1),
            blif(0, 0),
            blif(0, 1),
            blif(1, 0),
            blif(1, 1),
        ),
    )
    .unwrap();

    let server = RunningServer::start(&root, ServeOptions::default());
    let mut stream = server.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    send(
        &mut stream,
        &Request::Batch(mm_engine::protocol::BatchRequest::new(
            spec_path.to_str().unwrap(),
        )),
    );
    let (records, frames) = read_exchange(&mut reader);
    assert_eq!(records.len(), 3, "every job has a record: {records:?}");
    assert!(records[0].contains("\"name\":\"good0\"") && records[0].contains("\"status\":\"ok\""));
    assert!(
        records[1].contains("\"name\":\"doomed\"")
            && records[1].contains("\"status\":\"error\"")
            && records[1].contains("\"stage\":\"route\""),
        "{}",
        records[1]
    );
    assert!(records[2].contains("\"name\":\"good1\"") && records[2].contains("\"status\":\"ok\""));
    let Frame::Summary { summary } = &frames[1] else {
        panic!("expected summary, got {frames:?}");
    };
    assert_eq!(summary.get("failed").and_then(|v| v.as_usize()), Some(1));

    // A bad spec is an error frame, not a dropped connection.
    send(
        &mut stream,
        &Request::Batch(mm_engine::protocol::BatchRequest::new("suite:nope")),
    );
    let (records, frames) = read_exchange(&mut reader);
    assert!(records.is_empty());
    assert!(matches!(frames[0], Frame::Error { .. }));
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn connections_share_one_cache_and_stream_independently() {
    let root = tmp_dir("shared");
    let spec = write_spec_dir(&root, 2);
    let spec_str = spec.to_str().unwrap().to_string();
    let server = RunningServer::start(
        &root,
        ServeOptions {
            threads: 2,
            cache_dir: Some(root.join("cache")),
            max_connections: 4,
            ..ServeOptions::default()
        },
    );

    // Two clients submit the same batch concurrently; both must receive
    // complete, identical, in-order streams.
    let submit = |socket: PathBuf, spec: String| {
        std::thread::spawn(move || {
            let mut stream = UnixStream::connect(socket).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = Request::Batch(test_request(&spec)).to_json_line();
            line.push('\n');
            stream.write_all(line.as_bytes()).unwrap();
            read_exchange(&mut reader)
        })
    };
    let a = submit(server.socket.clone(), spec_str.clone());
    let b = submit(server.socket.clone(), spec_str.clone());
    let (records_a, _) = a.join().unwrap();
    let (records_b, _) = b.join().unwrap();
    assert_eq!(records_a.len(), 2);
    assert_eq!(records_a, records_b, "concurrent streams identical");

    // A third submission is fully warm: the shared cache answers.
    let mut stream = server.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    send(&mut stream, &Request::Batch(test_request(&spec_str)));
    let (records, frames) = read_exchange(&mut reader);
    assert_eq!(records, records_a, "cache transparency over the wire");
    let Frame::Summary { summary } = &frames[1] else {
        panic!("expected summary, got {frames:?}");
    };
    let cache = summary.get("cache").expect("summary carries cache block");
    assert_eq!(
        cache.get("results_from_cache").and_then(|v| v.as_usize()),
        Some(2),
        "{cache:?}"
    );
    assert_eq!(
        cache.get("stages_recomputed").and_then(|v| v.as_usize()),
        Some(0),
        "{cache:?}"
    );

    let report = server.stop();
    assert_eq!(report.batches, 3);
    assert_eq!(report.jobs, 6);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bind_refuses_options_that_would_misbehave() {
    let root = tmp_dir("badopts");
    let socket = root.join("mmflow.sock");
    let listen = Listen::Unix(socket.clone());
    let with = |set: fn(&mut ServeOptions)| {
        let mut options = ServeOptions::default();
        set(&mut options);
        options
    };
    let cases = [
        ("slo_ms", with(|o| o.slo_ms = Some(f64::NAN))),
        ("slo_ms", with(|o| o.slo_ms = Some(f64::INFINITY))),
        ("slo_ms", with(|o| o.slo_ms = Some(-5.0))),
        ("slo_ms", with(|o| o.slo_ms = Some(0.0))),
        ("queue_depth", with(|o| o.queue_depth = 0)),
        ("max_connections", with(|o| o.max_connections = 0)),
    ];
    for (option, options) in cases {
        let err = Server::bind(&listen, &options).expect_err(option);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().starts_with(option), "{option}: {err}");
        assert!(!socket.exists(), "refused before binding");
    }
    // A tiny positive SLO is a valid (if impatient) setting.
    let options = with(|o| o.slo_ms = Some(0.001));
    drop(Server::bind(&listen, &options).expect("a positive SLO binds"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn binding_over_a_live_server_is_refused() {
    let root = tmp_dir("bind2");
    let server = RunningServer::start(&root, ServeOptions::default());
    // The path answers, so a second bind must fail instead of stealing
    // the socket from the live server.
    let err = Server::bind(
        &Listen::Unix(server.socket.clone()),
        &ServeOptions::default(),
    )
    .expect_err("second bind refused");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    // The live server is unharmed.
    let mut stream = server.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    send(&mut stream, &Request::Ping);
    let (_, frames) = read_exchange(&mut reader);
    assert_eq!(frames, vec![Frame::Pong]);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn listen_addresses_parse() {
    assert_eq!(
        Listen::parse("unix:/tmp/x.sock").unwrap(),
        Listen::Unix("/tmp/x.sock".into())
    );
    assert_eq!(
        Listen::parse("/tmp/x.sock").unwrap(),
        Listen::Unix("/tmp/x.sock".into())
    );
    assert_eq!(
        Listen::parse("tcp:127.0.0.1:9000").unwrap(),
        Listen::Tcp("127.0.0.1:9000".into())
    );
    assert_eq!(
        Listen::parse("127.0.0.1:0").unwrap(),
        Listen::Tcp("127.0.0.1:0".into())
    );
    assert!(Listen::parse("mystery").is_err());
}

#[test]
fn tcp_transport_works_too() {
    let root = tmp_dir("tcp");
    let spec = write_spec_dir(&root, 1);
    let server =
        Server::bind(&Listen::Tcp("127.0.0.1:0".into()), &ServeOptions::default()).unwrap();
    let Listen::Tcp(addr) = server.listen_addr().clone() else {
        panic!("tcp bind reports tcp addr");
    };
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = Request::Batch(test_request(spec.to_str().unwrap())).to_json_line();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    // Reuse the unix read loop shape inline (TcpStream reader).
    let mut records = 0;
    let mut buf = String::new();
    loop {
        buf.clear();
        assert!(reader.read_line(&mut buf).unwrap() > 0);
        match classify(buf.trim_end()).unwrap() {
            ServerLine::Record(_) => records += 1,
            ServerLine::Frame(Frame::Summary { .. }) => break, // trailer ends the exchange
            ServerLine::Frame(_) => {}
        }
    }
    assert_eq!(records, 1);
    drop(stream);
    handle.shutdown();
    thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn over_capacity_connection_gets_a_busy_frame_not_a_stall() {
    let root = tmp_dir("busyconn");
    let server = RunningServer::start(
        &root,
        ServeOptions {
            max_connections: 1,
            ..ServeOptions::default()
        },
    );

    // Occupy the single slot (the ping proves the server registered us).
    let mut first = server.connect();
    let mut first_reader = BufReader::new(first.try_clone().unwrap());
    send(&mut first, &Request::Ping);
    let (_, frames) = read_exchange(&mut first_reader);
    assert_eq!(frames, vec![Frame::Pong]);

    // The excess connection is answered — one structured busy frame,
    // then a close — instead of waiting silently for a slot.
    let second = server.connect();
    let mut second_reader = BufReader::new(second);
    let mut line = String::new();
    assert!(second_reader.read_line(&mut line).unwrap() > 0);
    let ServerLine::Frame(Frame::Busy {
        scope,
        queued,
        capacity,
        ..
    }) = classify(line.trim_end()).unwrap()
    else {
        panic!("expected a busy frame, got {line:?}");
    };
    assert_eq!(scope, "connections");
    assert_eq!(capacity, 1);
    assert!(queued >= 1, "{queued}");
    line.clear();
    assert_eq!(second_reader.read_line(&mut line).unwrap(), 0, "then EOF");

    // The admitted connection is unaffected.
    send(&mut first, &Request::Ping);
    let (_, frames) = read_exchange(&mut first_reader);
    assert_eq!(frames, vec![Frame::Pong]);
    drop(first);
    drop(first_reader);
    let report = server.stop();
    assert_eq!(report.connections, 1);
    assert_eq!(report.rejected_connections, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn over_quota_batch_bounces_busy_and_the_connection_stays_usable() {
    let root = tmp_dir("busyjobs");
    let spec = write_spec_dir(&root, 3);
    let spec_str = spec.to_str().unwrap();
    let server = RunningServer::start(
        &root,
        ServeOptions {
            threads: 1,
            queue_depth: 2,
            cache_dir: None,
            ..ServeOptions::default()
        },
    );

    let mut stream = server.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Three jobs into a depth-2 queue: admission is batch-atomic, so
    // the whole batch bounces with a busy frame (nothing half-runs).
    send(&mut stream, &Request::Batch(test_request(spec_str)));
    let (records, frames) = read_exchange(&mut reader);
    assert!(records.is_empty());
    let Frame::Busy {
        scope, capacity, ..
    } = &frames[0]
    else {
        panic!("expected busy, got {frames:?}");
    };
    assert_eq!(scope, "jobs");
    assert_eq!(*capacity, 2);

    // A batch that fits is admitted on the very same connection.
    let mut request = test_request(spec_str);
    request.max_jobs = Some(2);
    request.priority = 3;
    send(&mut stream, &Request::Batch(request));
    let (records, frames) = read_exchange(&mut reader);
    assert_eq!(frames[0], Frame::Accepted { jobs: 2 });
    assert_eq!(records.len(), 2);
    assert!(matches!(frames.last(), Some(Frame::Summary { .. })));

    let report = server.stop();
    assert_eq!(report.rejected_batches, 1);
    assert_eq!(report.batches, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_disconnecting_client_has_its_queued_jobs_purged() {
    let root = tmp_dir("discon");
    let spec = write_spec_dir(&root, 4);
    let spec_str = spec.to_str().unwrap();
    let server = RunningServer::start(
        &root,
        ServeOptions {
            threads: 1,
            cache_dir: None,
            ..ServeOptions::default()
        },
    );

    // Submit four slow jobs to the single worker, then vanish without
    // reading a byte: the server must cancel, purge the queue, and not
    // burn the worker on results nobody will read.
    {
        let mut stream = server.connect();
        send(&mut stream, &Request::Batch(test_request(spec_str)));
        // dropped here: EOF mid-batch
    }

    // The server stays fully usable for the next client, and its
    // summary's queue stats show the purge (and an empty queue).
    let mut stream = server.connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut request = test_request(spec_str);
    request.max_jobs = Some(1);
    send(&mut stream, &Request::Batch(request));
    let (records, frames) = read_exchange(&mut reader);
    assert_eq!(records.len(), 1);
    let Frame::Summary { summary } = frames.last().unwrap() else {
        panic!("expected summary, got {frames:?}");
    };
    let shards = summary
        .get("shards")
        .and_then(|v| v.as_arr())
        .expect("summary carries the queue stats");
    assert_eq!(shards.len(), 1, "one queue: {summary:?}");
    let stat = |key: &str| shards[0].get(key).and_then(|v| v.as_usize());
    let purged = stat("purged").expect("purged count");
    let queued = stat("queued").expect("queued count");
    assert!(purged >= 1, "disconnect purged queued jobs: {summary:?}");
    assert_eq!(queued, 0, "no ghost jobs left queued: {summary:?}");

    drop(stream);
    drop(reader);
    let report = server.stop();
    assert_eq!(report.purged_jobs as usize, purged);
    assert!(
        (report.jobs as usize) + purged >= 5,
        "every admitted job either ran or was purged: {report:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_clients_all_get_reference_byte_streams() {
    let root = tmp_dir("storm");
    let spec = write_spec_dir(&root, 2);
    let spec_str = spec.to_str().unwrap().to_string();

    let reference_engine = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: None,
        ..Default::default()
    })
    .unwrap();
    let batch = load_spec(&spec_str, &test_options(), 4).unwrap();
    let expected: Vec<String> = reference_engine
        .run(batch.jobs)
        .results
        .iter()
        .map(mm_engine::JobResult::to_json_line)
        .collect();

    let server = RunningServer::start(
        &root,
        ServeOptions {
            threads: 2,
            cache_dir: Some(root.join("cache")),
            ..ServeOptions::default()
        },
    );

    // Four clients, two rounds each, all interleaving on the shared
    // scheduler: every stream must still be the reference bytes, in
    // order, per connection.
    let clients: Vec<_> = (0..4)
        .map(|i| {
            let socket = server.socket.clone();
            let spec = spec_str.clone();
            std::thread::spawn(move || {
                let mut stream = UnixStream::connect(socket).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut streams = Vec::new();
                for _ in 0..2 {
                    let mut request = test_request(&spec);
                    request.priority = 1 + (i % 3) as u8;
                    send_unix(&mut stream, &Request::Batch(request));
                    let (records, frames) = read_exchange(&mut reader);
                    assert!(matches!(frames.last(), Some(Frame::Summary { .. })));
                    streams.push(records);
                }
                streams
            })
        })
        .collect();
    for client in clients {
        for records in client.join().unwrap() {
            assert_eq!(records, expected, "contended stream == reference bytes");
        }
    }

    let report = server.stop();
    assert_eq!(report.batches, 8);
    assert_eq!(report.jobs, 16);
    assert_eq!(report.purged_jobs, 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// `send` for threads that own their stream (no helper borrow games).
fn send_unix(stream: &mut UnixStream, request: &Request) {
    let mut line = request.to_json_line();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    stream.flush().unwrap();
}
