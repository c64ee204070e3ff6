//! Integration tests driving the `mmflow` binary end to end.

use std::path::PathBuf;
use std::process::Command;

fn mmflow() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mmflow"))
}

fn write_blif(dir: &std::path::Path, name: &str, body: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmflow_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const MODE_A: &str = "\
.model a
.inputs x y
.outputs f
.names x y n1
11 1
.names n1 f
1 1
.end
";

const MODE_B: &str = "\
.model b
.inputs x y
.outputs f
.names x y n1
00 1
.names n1 f
0 1
.end
";

#[test]
fn merge_command_reports_speedup() {
    let dir = tmpdir("merge");
    let a = write_blif(&dir, "a.blif", MODE_A);
    let b = write_blif(&dir, "b.blif", MODE_B);
    let out = mmflow()
        .args([
            "merge",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--width",
            "6",
            "--bits",
            "3",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("speed-up"), "{stdout}");
    assert!(stdout.contains("tunable"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mdr_command_reports_costs() {
    let dir = tmpdir("mdr");
    let a = write_blif(&dir, "a.blif", MODE_A);
    let b = write_blif(&dir, "b.blif", MODE_B);
    let out = mmflow()
        .args([
            "mdr",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--width",
            "6",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MDR rewrite"), "{stdout}");
    assert!(stdout.contains("diff rewrite"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_command_prints_counts() {
    let dir = tmpdir("stats");
    let a = write_blif(&dir, "a.blif", MODE_A);
    let out = mmflow()
        .args(["stats", a.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("LUTs"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_command_streams_jsonl_and_summary() {
    let dir = tmpdir("batch");
    // Two mode groups → two jobs.
    for group in ["g0", "g1"] {
        let gdir = dir.join(group);
        std::fs::create_dir_all(&gdir).unwrap();
        write_blif(&gdir, "a.blif", MODE_A);
        write_blif(&gdir, "b.blif", MODE_B);
    }
    let cache = dir.join("cache");
    let run = || {
        mmflow()
            .args([
                "batch",
                dir.to_str().unwrap(),
                "--width",
                "6",
                "--cache",
                cache.to_str().unwrap(),
            ])
            .output()
            .unwrap()
    };
    let cold = run();
    assert!(
        cold.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let stdout = String::from_utf8_lossy(&cold.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(
        lines[0].starts_with(r#"{"name":"g0","flow":"dcs","status":"ok""#),
        "{stdout}"
    );
    assert!(lines[1].contains(r#""name":"g1""#), "{stdout}");
    let stderr = String::from_utf8_lossy(&cold.stderr);
    assert!(stderr.contains("\"jobs\":2"), "{stderr}");

    // Warm re-run: byte-identical stdout, zero recomputation.
    let warm = run();
    assert!(warm.status.success());
    assert_eq!(warm.stdout, cold.stdout, "cache transparency");
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(stderr.contains("\"stages_recomputed\":0"), "{stderr}");
    assert!(stderr.contains("\"results_from_cache\":2"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_serial_equals_parallel() {
    let dir = tmpdir("batch_det");
    for group in ["p0", "p1", "p2"] {
        let gdir = dir.join(group);
        std::fs::create_dir_all(&gdir).unwrap();
        write_blif(&gdir, "a.blif", MODE_A);
        write_blif(&gdir, "b.blif", MODE_B);
    }
    let run = |threads: &str| {
        mmflow()
            .args([
                "batch",
                dir.to_str().unwrap(),
                "--width",
                "6",
                "--no-cache",
                "--threads",
                threads,
            ])
            .output()
            .unwrap()
    };
    let serial = run("1");
    let parallel = run("4");
    assert!(serial.status.success() && parallel.status.success());
    assert_eq!(serial.stdout, parallel.stdout, "byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_rejects_bad_specs() {
    let out = mmflow()
        .args(["batch", "suite:bogus", "--no-cache"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = mmflow().args(["batch"]).output().unwrap();
    assert!(!out.status.success());
    let out = mmflow()
        .args(["batch", "/nonexistent/spec.json", "--no-cache"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn batch_validates_suite_mode_counts() {
    // An infeasible suite mode count fails fast (before any circuit is
    // generated), in both spellings.
    let out = mmflow()
        .args(["batch", "suite:regexp:1", "--no-cache"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("at least 2 modes"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = mmflow()
        .args(["batch", "suite:regexp", "--modes", "1", "--no-cache"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // A mode-count override on a non-suite spec is rejected.
    let dir = tmpdir("modesdir");
    let out = mmflow()
        .args(["batch", dir.to_str().unwrap(), "--modes", "3", "--no-cache"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("generated suites"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_rejects_an_out_of_range_k_without_panicking() {
    let out = mmflow()
        .args(["batch", "suite:regexp", "-k", "9", "--no-cache"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("k must be in 2..=6"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn bad_usage_fails_with_help() {
    let out = mmflow().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "{stderr}");
    let out = mmflow().output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn input_errors_print_their_message_without_the_usage() {
    let dir = tmpdir("no_usage");
    let a = write_blif(&dir, "a.blif", MODE_A);
    let b = write_blif(&dir, "b.blif", MODE_B);
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    let listen = format!("unix:{}", dir.join("mm.sock").display());
    let serve = |option, value| vec!["serve", "--listen", &listen, "--no-cache", option, value];
    for (args, expected) in [
        (
            vec!["merge", a, b, "--effort", "inf"],
            "--effort must be an annealing effort",
        ),
        (
            vec!["merge", a, "/nonexistent/zz.blif"],
            "/nonexistent/zz.blif",
        ),
        // Serve options that would start a daemon that misbehaves.
        (
            serve("--slo-ms", "nan"),
            "slo_ms must be a finite latency above 0 ms",
        ),
        (
            serve("--queue-depth", "0"),
            "queue_depth must be at least 1",
        ),
    ] {
        let out = mmflow().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
        assert!(stderr.contains("run 'mmflow help' for usage"), "{stderr}");
        assert!(!stderr.contains("USAGE"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // A command line of the wrong shape still gets the usage text; the
    // serve scheduler has no worker groups to choose any more.
    for args in [
        vec!["merge", a, b, "--frob"],
        vec!["merge", a, b, "--effort"],
        serve("--workers", "2"),
    ] {
        let out = mmflow().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_missing_file() {
    let out = mmflow()
        .args(["merge", "/nonexistent/zz.blif"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn bench_smoke_writes_parseable_json_artefacts() {
    let dir = tmpdir("bench");
    let out = mmflow()
        .args(["bench", "--smoke", "--reps", "1", "--json"])
        .args(["--out-dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("router:"), "{stderr}");
    assert!(stderr.contains("parity ok"), "{stderr}");
    // `mmflow bench` exits non-zero on any violated gate of a report
    // (the timing ratios included), so success means every gate held.
    for artefact in [
        "BENCH_router.json",
        "BENCH_place.json",
        "BENCH_flow.json",
        "BENCH_serve.json",
        "BENCH_sta.json",
    ] {
        let text = std::fs::read_to_string(dir.join(artefact)).unwrap();
        assert!(
            mm_engine::json::parse(&text).is_ok(),
            "{artefact} must be valid JSON: {text}"
        );
        assert!(text.contains("\"bench\""), "{text}");
    }
    // The flow artefact carries the parity-gated multi-mode section.
    let flow = std::fs::read_to_string(dir.join("BENCH_flow.json")).unwrap();
    assert!(flow.contains("\"nmodes\""), "{flow}");
    assert!(flow.contains("\"parity_ok\":true"), "{flow}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_smoke_json_needs_an_out_dir() {
    // The default `.` is where the committed full-run BENCH_*.json live.
    let dir = tmpdir("bench_cwd");
    let out = mmflow()
        .args(["bench", "--suite", "sta", "--smoke", "--json"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("--out-dir"), "{stderr}");
    assert!(
        !dir.join("BENCH_sta.json").exists(),
        "smoke numbers written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_bad_inputs_without_panicking() {
    let dir = tmpdir("merge_bad");
    let a = write_blif(&dir, "a.blif", MODE_A);
    let b = write_blif(&dir, "b.blif", MODE_B);
    let wide = write_blif(
        &dir,
        "wide.blif",
        ".model w\n.inputs a b c d e f g\n.outputs y\n.names a b c d e f g y\n1111111 1\n.end\n",
    );
    let (a, b, wide) = (
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        wide.to_str().unwrap(),
    );
    for (args, expected) in [
        (
            vec!["merge", a, "/dev/null"],
            "/dev/null: not a regular file",
        ),
        (vec!["merge", a, b, "-k", "9"], "k must be in 1..=6"),
        (vec!["merge", a, wide], ".names with 7 inputs exceeds k = 4"),
    ] {
        let out = mmflow().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_channel_widths_exit_1_without_panicking() {
    let dir = tmpdir("width_zero");
    let a = write_blif(&dir, "a.blif", MODE_A);
    let b = write_blif(&dir, "b.blif", MODE_B);
    let group = dir.join("jobs").join("g0");
    std::fs::create_dir_all(&group).unwrap();
    std::fs::copy(&a, group.join("m0.blif")).unwrap();
    std::fs::copy(&b, group.join("m1.blif")).unwrap();
    let spec = |name: &str, defaults: &str| {
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!(r#"{{"defaults": {defaults}, "jobs": [{{"modes": ["a.blif", "b.blif"]}}]}}"#),
        )
        .unwrap();
        path.to_str().unwrap().to_string()
    };
    let zero_spec = spec("spec.json", r#"{"max_width": 0}"#);
    let wide_spec = spec("wide.json", r#"{"width": 1025}"#);
    let iter_spec = spec("iter.json", r#"{"max_iterations": 0}"#);
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    let jobs = dir.join("jobs");
    let jobs = jobs.to_str().unwrap();
    let socket = dir.join("absent.sock");
    let connect = format!("unix:{}", socket.display());
    let zero = "a positive channel width, got 0";
    let over = "a channel width of at most 1024, got 1025";
    for (args, expected) in [
        (
            vec!["merge", a, b, "--width", "0"],
            format!("--width must be {zero}"),
        ),
        (
            vec!["mdr", a, b, "--width", "0"],
            format!("--width must be {zero}"),
        ),
        (
            vec!["batch", jobs, "--no-cache", "--width", "0"],
            format!("--width must be {zero}"),
        ),
        (
            vec!["batch", &zero_spec, "--no-cache"],
            format!("\"max_width\" must be {zero}"),
        ),
        (
            vec!["pareto", jobs, "--no-cache", "--width", "0"],
            format!("--width must be {zero}"),
        ),
        (
            vec!["submit", jobs, "--connect", &connect, "--width", "0"],
            format!("--width must be {zero}"),
        ),
        (
            vec!["submit", jobs, "--connect", &connect, "--max-width", "0"],
            format!("--max-width must be {zero}"),
        ),
        (
            vec!["merge", a, b, "--width", "1025"],
            format!("--width must be {over}"),
        ),
        (
            vec!["batch", &wide_spec, "--no-cache"],
            format!("\"width\" must be {over}"),
        ),
        (
            vec!["submit", jobs, "--connect", &connect, "--max-width", "1025"],
            format!("--max-width must be {over}"),
        ),
        (
            vec!["batch", &iter_spec, "--no-cache"],
            "\"max_iterations\" must be a positive iteration cap, got 0".to_string(),
        ),
        (
            vec![
                "submit",
                jobs,
                "--connect",
                &connect,
                "--max-iterations",
                "0",
            ],
            "--max-iterations must be a positive iteration cap, got 0".to_string(),
        ),
    ] {
        let out = mmflow().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(&expected), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // The cap itself passes the checks: submit gets as far as connecting.
    let out = mmflow()
        .args([
            "submit",
            jobs,
            "--connect",
            &connect,
            "--width",
            "1024",
            "--max-width",
            "1024",
            "--max-iterations",
            "1",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("must be"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_command_reads_the_flow_flags_alike() {
    let dir = tmpdir("flow_flags");
    let a = write_blif(&dir, "a.blif", MODE_A);
    let b = write_blif(&dir, "b.blif", MODE_B);
    let group = dir.join("jobs").join("g0");
    std::fs::create_dir_all(&group).unwrap();
    std::fs::copy(&a, group.join("m0.blif")).unwrap();
    std::fs::copy(&b, group.join("m1.blif")).unwrap();
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    let jobs = dir.join("jobs");
    let jobs = jobs.to_str().unwrap();
    let connect = format!("unix:{}", dir.join("absent.sock").display());
    let integer = "must be a non-negative integer";
    for (flag, value, refusal) in [
        ("--width", "twelve", integer),
        (
            "--seed",
            "banana",
            "must be a decimal or 0x seed below 2^64, got 'banana'",
        ),
        ("--effort", "high", "must be a number"),
        (
            "--max-iterations",
            "0",
            "must be a positive iteration cap, got 0",
        ),
        ("--max-width", "-1", integer),
        ("--steiner-fanout", "1.5", integer),
    ] {
        let mut commands = vec![
            vec!["batch", jobs, "--no-cache"],
            vec!["pareto", jobs, "--no-cache"],
            vec!["submit", jobs, "--connect", &connect],
        ];
        if ["--width", "--seed", "--effort"].contains(&flag) {
            commands.extend([vec!["merge", a, b], vec!["mdr", a, b]]);
        }
        for mut args in commands {
            args.extend([flag, value]);
            let out = mmflow().args(&args).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(
                stderr.contains(&format!("error: {flag} {refusal}")),
                "{args:?}: {stderr}"
            );
        }
    }
    // A seed may be written in hex, as in spec files: 0x5eed is the
    // default seed.
    let default = mmflow().args(["merge", a, b]).output().unwrap();
    let hex = mmflow()
        .args(["merge", a, b, "--seed", "0x5eed"])
        .output()
        .unwrap();
    assert!(default.status.success());
    assert_eq!(hex.stdout, default.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_efforts_exit_1_without_panicking() {
    let dir = tmpdir("effort_bound");
    let a = write_blif(&dir, "a.blif", MODE_A);
    let b = write_blif(&dir, "b.blif", MODE_B);
    let group = dir.join("jobs").join("g0");
    std::fs::create_dir_all(&group).unwrap();
    std::fs::copy(&a, group.join("m0.blif")).unwrap();
    std::fs::copy(&b, group.join("m1.blif")).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(
        &spec,
        r#"{"defaults": {"effort": 1e308}, "jobs": [{"modes": ["a.blif", "b.blif"]}]}"#,
    )
    .unwrap();
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    let jobs = dir.join("jobs");
    let jobs = jobs.to_str().unwrap();
    let socket = dir.join("absent.sock");
    let connect = format!("unix:{}", socket.display());
    let mut cases = vec![(
        vec!["batch", spec.to_str().unwrap(), "--no-cache"],
        "\"effort\" must be",
    )];
    for effort in ["inf", "nan", "0", "-5", "1e308"] {
        cases.extend([
            (vec!["merge", a, b, "--effort", effort], "--effort must be"),
            (vec!["mdr", a, b, "--effort", effort], "--effort must be"),
            (
                vec!["batch", jobs, "--no-cache", "--effort", effort],
                "--effort must be",
            ),
            (
                vec!["pareto", jobs, "--no-cache", "--effort", effort],
                "--effort must be",
            ),
            (
                vec!["submit", jobs, "--connect", &connect, "--effort", effort],
                "--effort must be",
            ),
        ]);
    }
    for (args, expected) in cases {
        let start = std::time::Instant::now();
        let out = mmflow().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "{expected} an annealing effort above 0 and at most 100"
            )),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "{args:?} took {:?}",
            start.elapsed()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_gc_evicts_and_reports() {
    let dir = tmpdir("gc");
    let a = write_blif(&dir, "a.blif", MODE_A);
    let b = write_blif(&dir, "b.blif", MODE_B);
    let group = dir.join("jobs").join("g0");
    std::fs::create_dir_all(&group).unwrap();
    std::fs::copy(&a, group.join("m0.blif")).unwrap();
    std::fs::copy(&b, group.join("m1.blif")).unwrap();
    let cache = dir.join("cache");

    // Populate the cache through a batch run.
    let out = mmflow()
        .args(["batch", dir.join("jobs").to_str().unwrap()])
        .args(["--cache", cache.to_str().unwrap(), "--width", "6"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // GC with no limits keeps everything.
    let out = mmflow()
        .args(["cache", "gc", "--cache", cache.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("evicted 0"), "{stdout}");

    // A zero-byte budget evicts every entry.
    let out = mmflow()
        .args(["cache", "gc", "--cache", cache.to_str().unwrap()])
        .args(["--max-bytes", "0"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 bytes remain"), "{stdout}");

    // Unknown flags and missing directories fail loudly.
    let out = mmflow()
        .args(["cache", "gc", "--cache", "/nonexistent/nope"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = mmflow().args(["cache", "frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}
