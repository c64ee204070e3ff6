//! serve_warm's generator and failure accounting, against an in-process
//! `mm_serve::Server` on a Unix socket: a request naming a missing spec
//! file is one failed request, class shares are exact, and every input
//! follows from the seed.

use mm_perfbench::serve::{
    account, class_sequence, failure, references, Answer, Class, Conn, Workspace,
};
use mm_perfbench::stats::Rng;
use mm_serve::{Listen, ServeOptions, Server};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn batch_line(spec: &str) -> String {
    format!("{{\"cmd\":\"batch\",\"spec\":\"{spec}\",\"k\":4}}\n")
}

#[test]
fn a_missing_spec_file_is_one_failed_request() {
    let dir = temp_dir("missing");
    let socket = dir.join("mm.sock");
    let server = Server::bind(
        &Listen::Unix(socket.clone()),
        &ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    let mut conn = Conn::connect(&socket).unwrap();
    let missing = conn.exchange(
        0,
        &batch_line(&dir.join("no-such-spec.json").display().to_string()),
    );
    assert!(
        matches!(missing.answer, Answer::Error(_)),
        "{:?}",
        missing.answer
    );
    let mut problems = Vec::new();
    let (failed, ok_jobs) = account(
        std::slice::from_ref(&missing),
        &BTreeMap::new(),
        &mut problems,
    );
    assert_eq!(failed, 1);
    assert_eq!(ok_jobs, vec![0.0]);
    assert_eq!(problems.len(), 1, "{problems:?}");

    // The connection stays usable, and a real spec verifies clean.
    let ws = Workspace::create(&dir.join("ws")).unwrap();
    let ok = conn.exchange(0, &batch_line(&ws.spec_path(0).display().to_string()));
    let (refs, _) = references(&ws, &[0]).unwrap();
    assert_eq!(failure(&ok, refs.get(&0)), None);
    let (failed, ok_jobs) = account(&[missing, ok], &refs, &mut problems);
    assert_eq!(failed, 1);
    assert_eq!(ok_jobs, vec![0.0, 8.0]);

    handle.shutdown();
    thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn class_shares_are_exact_in_every_block_of_ten() {
    let classes = class_sequence(200);
    for block in classes.chunks(10) {
        let count = |c| block.iter().filter(|&&x| x == c).count();
        assert_eq!(
            (count(Class::Hit), count(Class::Replay), count(Class::Cold)),
            (7, 1, 2)
        );
    }
    // Cold requests come five apart, each followed by two hits.
    for (i, c) in classes.iter().enumerate() {
        assert_eq!(*c == Class::Cold, i % 5 == 0, "slot {i}");
        if *c == Class::Cold {
            assert_eq!(classes[i + 1..i + 3], [Class::Hit, Class::Hit]);
        }
    }
}

#[test]
fn requests_and_cache_counts_follow_from_the_seed() {
    let dir = temp_dir("seeded");
    let run = |name: &str, seed: u64| {
        let mut ws = Workspace::create(&dir.join(name)).unwrap();
        let mut rng = Rng::new(seed, "fixed");
        let requests = ws.requests(&mut rng, &class_sequence(20)).unwrap();
        let specs: Vec<String> = requests
            .iter()
            .map(|&r| std::fs::read_to_string(ws.spec_path(r)).unwrap())
            .collect();
        let (_, cache) = references(&ws, &requests).unwrap();
        (specs, cache)
    };
    let (a, cache_a) = run("a", 3);
    let (b, cache_b) = run("b", 3);
    let (c, _) = run("c", 4);
    assert_eq!(a, b);
    assert_eq!(cache_a, cache_b);
    assert!(cache_a.writes > 0 && cache_a.hits > 0, "{cache_a:?}");
    assert_ne!(a, c);
    let _ = std::fs::remove_dir_all(&dir);
}
