//! End-to-end: a real `mmflow serve` process on a Unix socket, driven by
//! real `mmflow submit` / `mmflow batch` invocations of the same binary.
//!
//! The acceptance contract: submit's stdout is **byte-identical** to
//! batch's stdout on the same spec; an induced-failure job yields one
//! structured error record without disturbing the others; shutdown
//! drains the server cleanly.

use mm_netlist::{blif, LutCircuit};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn mmflow() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mmflow"))
}

/// The repo's shared seeded circuit shape (`mm_gen`).
fn small_circuit(name: &str, n_luts: usize, seed: u64) -> LutCircuit {
    mm_gen::seeded_test_circuit(name, 5, n_luts, seed)
}

fn write_spec_dir(root: &Path, groups: usize, modes: usize) -> PathBuf {
    let dir = root.join("jobs");
    for g in 0..groups {
        let group = dir.join(format!("g{g}"));
        std::fs::create_dir_all(&group).unwrap();
        for m in 0..modes {
            let c = small_circuit(&format!("m{m}"), 8 + g, 0xe2e_0000 + (g * 10 + m) as u64);
            std::fs::write(group.join(format!("m{m}.blif")), blif::to_blif(&c)).unwrap();
        }
    }
    dir
}

/// Kills the server on drop so a failing assertion never leaks a child.
struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn start_server(socket: &Path) -> ServerGuard {
    let child = mmflow()
        .args([
            "serve",
            "--listen",
            &format!("unix:{}", socket.display()),
            "--no-cache",
            "--threads",
            "2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mmflow serve");
    // The socket path appears once the listener is bound.
    let t0 = Instant::now();
    while !socket.exists() {
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "server did not bind {socket:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    ServerGuard(child)
}

fn run_ok(args: &[&str]) -> Output {
    let out = mmflow().args(args).output().expect("run mmflow");
    assert!(
        out.status.success(),
        "mmflow {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn serve_roundtrip_is_byte_identical_to_batch_and_drains_on_shutdown() {
    let root = std::env::temp_dir().join(format!("mmflow_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let spec = write_spec_dir(&root, 2, 2);
    let spec_str = spec.to_str().unwrap();
    let socket = root.join("mmflow.sock");

    // Reference bytes: the batch pipeline on the same spec.
    let batch = run_ok(&[
        "batch",
        spec_str,
        "--no-cache",
        "--width",
        "12",
        "--effort",
        "1",
    ]);
    assert_eq!(batch.stdout.iter().filter(|&&b| b == b'\n').count(), 2);

    let server = start_server(&socket);
    let connect = format!("unix:{}", socket.display());

    // Round 1: the suite through the socket.
    let submit = run_ok(&[
        "submit",
        spec_str,
        "--connect",
        &connect,
        "--width",
        "12",
        "--effort",
        "1",
    ]);
    assert_eq!(
        submit.stdout, batch.stdout,
        "serve stream must be byte-identical to batch output"
    );

    // Round 2: an induced-failure job among good ones — the batch
    // completes, exactly that job errors, and submit mirrors batch's
    // non-zero exit.
    let mixed = root.join("mixed.json");
    std::fs::write(
        &mixed,
        format!(
            r#"{{
              "defaults": {{"width": 12, "effort": 1}},
              "jobs": [
                {{"name": "good", "modes": ["{d}/g0/m0.blif", "{d}/g0/m1.blif"]}},
                {{"name": "doomed", "modes": ["{d}/g1/m0.blif", "{d}/g1/m1.blif"],
                  "width": 1, "max_width": 1, "max_iterations": 3}}
              ]
            }}"#,
            d = spec.display()
        ),
    )
    .unwrap();
    let batch_mixed = mmflow()
        .args(["batch", mixed.to_str().unwrap(), "--no-cache"])
        .output()
        .unwrap();
    assert!(!batch_mixed.status.success(), "failed job fails batch");
    let submit_mixed = mmflow()
        .args(["submit", mixed.to_str().unwrap(), "--connect", &connect])
        .output()
        .unwrap();
    assert!(!submit_mixed.status.success(), "failed job fails submit");
    assert_eq!(
        submit_mixed.stdout, batch_mixed.stdout,
        "error records stream byte-identically too"
    );
    let text = String::from_utf8(submit_mixed.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "every job has a record: {lines:?}");
    assert!(lines[0].contains(r#""name":"good""#) && lines[0].contains(r#""status":"ok""#));
    assert!(
        lines[1].contains(r#""name":"doomed""#)
            && lines[1].contains(r#""status":"error""#)
            && lines[1].contains(r#""stage":"route""#),
        "{}",
        lines[1]
    );

    // Round 3: drain. The server must exit on its own after --shutdown.
    run_ok(&["submit", "--connect", &connect, "--shutdown"]);
    let mut server = server;
    let t0 = Instant::now();
    loop {
        if let Some(status) = server.0.try_wait().unwrap() {
            assert!(status.success(), "server exits cleanly after drain");
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "server did not drain after shutdown"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(!socket.exists(), "socket path removed on exit");
    let _ = std::fs::remove_dir_all(&root);
}

/// The N-mode path over the real wire: a 3-mode spec batch streamed by
/// `mmflow serve` must be byte-identical to `mmflow batch` stdout, and
/// an induced-failure 3-mode job must yield exactly one structured
/// error record without disturbing its neighbours.
#[test]
fn serve_streams_three_mode_batches_byte_identical_to_batch() {
    let root = std::env::temp_dir().join(format!("mmflow_e2e_n3_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let spec = write_spec_dir(&root, 2, 3);
    let spec_str = spec.to_str().unwrap();
    let socket = root.join("mmflow-n3.sock");

    // Reference bytes: the batch pipeline on the same 3-mode spec.
    let batch = run_ok(&[
        "batch",
        spec_str,
        "--no-cache",
        "--width",
        "12",
        "--effort",
        "1",
    ]);
    assert_eq!(batch.stdout.iter().filter(|&&b| b == b'\n').count(), 2);

    let server = start_server(&socket);
    let connect = format!("unix:{}", socket.display());

    let submit = run_ok(&[
        "submit",
        spec_str,
        "--connect",
        &connect,
        "--width",
        "12",
        "--effort",
        "1",
    ]);
    assert_eq!(
        submit.stdout, batch.stdout,
        "3-mode serve stream must be byte-identical to batch output"
    );
    let text = String::from_utf8(submit.stdout).unwrap();
    for line in text.lines() {
        assert!(line.contains(r#""status":"ok""#), "{line}");
    }

    // An induced-failure 3-mode job (impossible width cap) among good
    // ones: the batch completes, exactly that job errors — structured,
    // with its failing stage — and serve mirrors batch byte-for-byte.
    let mixed = root.join("mixed-n3.json");
    std::fs::write(
        &mixed,
        format!(
            r#"{{
              "defaults": {{"width": 12, "effort": 1}},
              "jobs": [
                {{"name": "good", "flow": "combined",
                  "modes": ["{d}/g0/m0.blif", "{d}/g0/m1.blif", "{d}/g0/m2.blif"]}},
                {{"name": "doomed",
                  "modes": ["{d}/g1/m0.blif", "{d}/g1/m1.blif", "{d}/g1/m2.blif"],
                  "width": 1, "max_width": 1, "max_iterations": 3}}
              ]
            }}"#,
            d = spec.display()
        ),
    )
    .unwrap();
    let batch_mixed = mmflow()
        .args(["batch", mixed.to_str().unwrap(), "--no-cache"])
        .output()
        .unwrap();
    assert!(
        !batch_mixed.status.success(),
        "failed 3-mode job fails batch"
    );
    let submit_mixed = mmflow()
        .args(["submit", mixed.to_str().unwrap(), "--connect", &connect])
        .output()
        .unwrap();
    assert!(
        !submit_mixed.status.success(),
        "failed 3-mode job fails submit"
    );
    assert_eq!(
        submit_mixed.stdout, batch_mixed.stdout,
        "3-mode error records stream byte-identically too"
    );
    let text = String::from_utf8(submit_mixed.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "every job has a record: {lines:?}");
    assert!(
        lines[0].contains(r#""name":"good""#)
            && lines[0].contains(r#""flow":"pair""#)
            && lines[0].contains(r#""status":"ok""#),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains(r#""name":"doomed""#)
            && lines[1].contains(r#""status":"error""#)
            && lines[1].contains(r#""stage":"route""#),
        "{}",
        lines[1]
    );
    assert_eq!(
        text.matches(r#""status":"error""#).count(),
        1,
        "exactly one structured error record"
    );

    run_ok(&["submit", "--connect", &connect, "--shutdown"]);
    let mut server = server;
    let t0 = Instant::now();
    while server.0.try_wait().unwrap().is_none() {
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "server did not drain after shutdown"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_submits_stay_byte_identical_and_fair() {
    let root = std::env::temp_dir().join(format!("mmflow_e2e_storm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let spec = write_spec_dir(&root, 2, 2);
    let spec_str = spec.to_str().unwrap();
    let socket = root.join("mmflow.sock");

    let batch = run_ok(&[
        "batch",
        spec_str,
        "--no-cache",
        "--width",
        "12",
        "--effort",
        "1",
    ]);

    let server = start_server(&socket);
    let connect = format!("unix:{}", socket.display());

    // Four submit processes race on the same server; every stdout must
    // be the reference bytes, in order, whatever the interleaving on
    // the shared workers.
    let children: Vec<Child> = (0..4)
        .map(|i| {
            mmflow()
                .args([
                    "submit",
                    spec_str,
                    "--connect",
                    &connect,
                    "--width",
                    "12",
                    "--effort",
                    "1",
                    "--priority",
                    &format!("{}", 1 + i % 3),
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn mmflow submit")
        })
        .collect();
    for child in children {
        let out = child.wait_with_output().expect("submit output");
        assert!(out.status.success(), "concurrent submit failed");
        assert_eq!(
            out.stdout, batch.stdout,
            "contended stream must be byte-identical to batch output"
        );
    }

    run_ok(&["submit", "--connect", &connect, "--shutdown"]);
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}
