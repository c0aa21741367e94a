//! The `fannr` binary end to end: what it refuses — an option its
//! command does not take, a value that does not parse, an artifact built
//! for another graph — and that it refuses by exiting non-zero with a
//! message naming the cause, before it binds a port or serves anything.
//!
//! Each run is bounded: a command that should have refused but serves
//! instead is killed after [`TIMEOUT`] and fails its test.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

/// Run `fannr args…` to completion (or kill it after [`TIMEOUT`] and
/// fail), returning its output.
fn fannr(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fannr"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fannr");
    let started = Instant::now();
    while child.try_wait().expect("wait on fannr").is_none() {
        if started.elapsed() > TIMEOUT {
            child.kill().ok();
            child.wait().ok();
            panic!("`fannr {}` still running after {TIMEOUT:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("fannr output")
}

/// `fannr args…` must succeed.
fn ok(args: &[&str]) {
    let out = fannr(args);
    assert!(
        out.status.success(),
        "`fannr {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `fannr args…` must exit non-zero with `needle` in its stderr.
fn refused(args: &[&str], needle: &str) {
    let out = fannr(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "`fannr {}` succeeded; expected it to refuse",
        args.join(" ")
    );
    assert!(
        stderr.contains(needle),
        "`fannr {}`: stderr does not name `{needle}`: {stderr}",
        args.join(" ")
    );
}

/// A scratch directory unique to this process and `tag`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("fannr-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn copy(from: &str, to: &str) {
    std::fs::copy(Path::new(from), Path::new(to)).expect("copy artifact");
}

/// The batch window's flags are gone, and nothing stands in for them:
/// `serve` refuses them like any option it does not take.
#[test]
fn a_removed_flag_is_refused() {
    for flag in ["--batch-window-ms", "--batch-max"] {
        refused(
            &[
                "serve",
                "--nodes",
                "200",
                "--addr",
                "127.0.0.1:0",
                flag,
                "1",
            ],
            flag,
        );
    }
}

/// A misspelt option is an error naming it, not a silent default.
#[test]
fn a_typo_in_an_option_is_refused() {
    let s = Scratch::new("typo");
    let out = s.path("net.txt");
    refused(&["gen", "--nodse", "300", "--out", &out], "--nodse");
    assert!(!Path::new(&out).exists(), "nothing is written");
    ok(&["gen", "--nodes", "300", "--out", &out]);
}

/// A value that does not parse is an error naming its option, not the
/// option's default.
#[test]
fn an_unparsable_value_is_refused() {
    refused(
        &[
            "serve",
            "--nodes",
            "200",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "abc",
        ],
        "--workers",
    );
    let s = Scratch::new("value");
    refused(
        &["gen", "--nodes", "lots", "--out", &s.path("net.txt")],
        "--nodes",
    );
}

/// Seed 8's `labels.v2` beside seed 7's `graph.v2` (both 2028 nodes) is
/// refused by `serve --index`.
#[test]
fn serve_index_refuses_labels_built_for_another_graph() {
    let s = Scratch::new("labels");
    let (seven, eight) = (s.path("seven"), s.path("eight"));
    for (seed, out) in [("7", &seven), ("8", &eight)] {
        ok(&[
            "build-index",
            "--nodes",
            "2000",
            "--seed",
            seed,
            "--out",
            out,
        ]);
    }
    copy(&s.path("eight/labels.v2"), &s.path("seven/labels.v2"));
    refused(
        &["serve", "--index", &seven, "--addr", "127.0.0.1:0"],
        "labels.v2 was built for another graph",
    );
}

/// Seed 8's shard map is refused by every process of a seed 7
/// deployment: a shard on the synthetic graph, a shard on the index
/// directory, and the router.
#[test]
fn serve_and_route_refuse_a_shard_map_built_for_another_graph() {
    let s = Scratch::new("map");
    let (index, map) = (s.path("index"), s.path("map8"));
    ok(&[
        "build-index",
        "--nodes",
        "2000",
        "--seed",
        "7",
        "--out",
        &index,
    ]);
    ok(&[
        "partition",
        "--nodes",
        "2000",
        "--seed",
        "8",
        "--shards",
        "2",
        "--out",
        &map,
    ]);
    let graph7 = ["--nodes", "2000", "--seed", "7"];
    let shard = [
        "--shard-id",
        "0",
        "--shard-map",
        &map,
        "--addr",
        "127.0.0.1:0",
    ];
    refused(
        &[&["serve"], &graph7[..], &shard].concat(),
        "shard map was built for another graph",
    );
    refused(
        &[&["serve", "--index", &index], &shard[..]].concat(),
        "shard map was built for another graph",
    );
    let route = [
        "--shard-map",
        &map,
        "--shard-addrs",
        "127.0.0.1:9,127.0.0.1:10",
        "--addr",
        "127.0.0.1:0",
    ];
    refused(
        &[&["route"], &graph7[..], &route].concat(),
        "shard map was built for another graph",
    );
}
