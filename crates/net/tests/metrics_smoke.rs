//! Process-level smoke for the ops plane: a real `ccopt-server` binary
//! started with `--metrics-addr`, `--stats-interval-ms` and `--trace
//! PATH`, scraped over real HTTP and reconciled against client-observed
//! totals and against the served event record it wrote (the CI job
//! uploads the record as an artifact).
//!
//! What must hold:
//! * `/metrics` serves a parseable Prometheus exposition and `/healthz`
//!   answers `200 ok`;
//! * `ccopt_commits_total` in the exposition and `metrics.commits` in a
//!   `Stats` snapshot both equal the commits the client itself counted;
//! * the `--stats-interval-ms` stdout line appears and is
//!   machine-parseable;
//! * every line of the trace sink is schema-valid JSONL, the record ends
//!   its drain with `drain_done`, and its `commit` events equal the
//!   commits counted everywhere else.

use ccopt_client::Client;
use ccopt_engine::Op;
use ccopt_net::{parse_prometheus, sample};
use ccopt_trace::validate_jsonl_line;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const VARS: u32 = 8;
const TXNS: usize = 40;

struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
    metrics: String,
}

/// Start the binary with its trace sink at `trace`.
fn spawn_server(trace: &Path) -> ServerProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ccopt-server"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--cc",
            "strict-2PL",
            "--shards",
            "2",
            "--vars",
            "8",
            "--metrics-addr",
            "127.0.0.1:0",
            "--stats-interval-ms",
            "50",
        ])
        .arg("--trace")
        .arg(trace)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn ccopt-server");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read banner");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .trim()
        .to_string();
    line.clear();
    stdout.read_line(&mut line).expect("read metrics banner");
    let metrics = line
        .strip_prefix("metrics on ")
        .unwrap_or_else(|| panic!("unexpected metrics banner: {line:?}"))
        .trim()
        .to_string();
    ServerProc {
        child,
        stdout,
        addr,
        metrics,
    }
}

fn http_get(addr: &str, path: &str) -> (u32, String) {
    let mut s = TcpStream::connect(addr).expect("connect ops listener");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: ccopt\r\n\r\n").unwrap();
    let mut raw = String::new();
    let _ = s.read_to_string(&mut raw);
    let status: u32 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Poll `probe` until it passes or 2 s are up. `/metrics` and the
/// snapshot's `series` serve the sampler's last *published* tick (50 ms
/// here, driven by the engine loop), so a single look right after the
/// workload can still see the tick before its last commits.
fn eventually<T>(what: &str, mut probe: impl FnMut() -> Result<T, String>) -> T {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        match probe() {
            Ok(v) => return v,
            Err(seen) if Instant::now() >= deadline => panic!("{what}: {seen}"),
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

#[test]
fn served_binary_exposes_a_reconciling_ops_plane() {
    let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("metrics-smoke")
        .join("trace.jsonl");
    let mut server = spawn_server(&trace);

    // The workload: TXNS committed transactions the client counts.
    let mut client = Client::connect(&server.addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut committed = 0u64;
    for i in 0..TXNS {
        let h = client.begin().expect("begin");
        loop {
            match client
                .update(h, i as u32 % VARS, 1, i as i64)
                .expect("update")
            {
                Op::Done(_) => break,
                _ => continue,
            }
        }
        loop {
            match client.commit(h).expect("commit") {
                Op::Done(()) => {
                    committed += 1;
                    break;
                }
                Op::Wait => continue,
                Op::Restarted => break,
            }
        }
    }
    assert_eq!(committed, TXNS as u64, "serial workload commits everything");

    // Health and exposition over real HTTP.
    let (code, body) = http_get(&server.metrics, "/healthz");
    assert_eq!(code, 200, "healthy: {body}");
    let samples = eventually(
        "the exposition reconciles with client-observed commits",
        || {
            let (code, body) = http_get(&server.metrics, "/metrics");
            assert_eq!(code, 200);
            let samples = parse_prometheus(&body).expect("exposition parses");
            match sample(&samples, "ccopt_commits_total") {
                Some(n) if n == committed as f64 => Ok(samples),
                other => Err(format!("ccopt_commits_total = {other:?}, want {committed}")),
            }
        },
    );
    assert_eq!(sample(&samples, "ccopt_shard_up{shard=\"0\"}"), Some(1.0));
    assert_eq!(sample(&samples, "ccopt_shard_up{shard=\"1\"}"), Some(1.0));

    // The wire snapshot reconciles too, and its ledgers balance.
    let stats = eventually("the sampler populated the time-series", || {
        let stats = client.stats().expect("stats");
        if stats.series.is_empty() {
            return Err("series is empty".to_string());
        }
        Ok(stats)
    });
    assert_eq!(stats.metrics.commits as u64, committed);
    assert_eq!(
        stats.metrics.aborts_by_rule.iter().sum::<usize>(),
        stats.metrics.aborts
    );

    // Drain over the wire; the binary's stdout must contain at least one
    // machine-parseable sampler line before the drain summary.
    client.shutdown_server().expect("shutdown request");
    let status = server.child.wait().expect("server exits");
    assert!(status.success(), "clean exit after wire drain");
    let mut rest = String::new();
    server
        .stdout
        .read_to_string(&mut rest)
        .expect("drain output");
    let stats_line = rest
        .lines()
        .find(|l| l.starts_with("stats "))
        .unwrap_or_else(|| panic!("no sampler stats line in {rest:?}"));
    for field in stats_line.trim_start_matches("stats ").split_whitespace() {
        let (k, v) = field
            .split_once('=')
            .unwrap_or_else(|| panic!("unparseable stats field {field:?}"));
        assert!(!k.is_empty());
        v.parse::<u64>()
            .unwrap_or_else(|_| panic!("non-numeric stats value {field:?}"));
    }
    assert!(
        rest.lines().any(|l| l.starts_with("drained: ")),
        "drain summary printed: {rest:?}"
    );

    // The served event record: schema-valid, closed by the drain, and
    // one `commit` per committed transaction (each touches one variable,
    // so one shard).
    let record = std::fs::read_to_string(&trace).expect("the trace sink was written");
    let names: Vec<&str> = record
        .lines()
        .map(|line| {
            validate_jsonl_line(line).unwrap_or_else(|e| panic!("invalid event {line:?}: {e}"))
        })
        .collect();
    assert!(names.contains(&"drain_done"), "the record closes the drain");
    let commits = names.iter().filter(|&&n| n == "commit").count() as u64;
    assert_eq!(commits, committed, "sink commits == client commits");
    assert_eq!(
        Some(commits as f64),
        sample(&samples, "ccopt_commits_total"),
        "sink commits == ccopt_commits_total"
    );
}
