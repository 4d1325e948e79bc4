//! The ops plane's contract: observation never perturbs.
//!
//! * **Differential invisibility** — the same serial wire workload runs
//!   twice per mechanism, once on a server with the whole ops plane off
//!   (sampler disabled, no HTTP, untraced) and once with all of it on
//!   (fast sampler, `/metrics` scrapers, a `Stats`/`Health` poller, and
//!   the JSONL trace sink) — and every response the workload client
//!   sees, plus the final committed state, must be identical. The sink
//!   it wrote is schema-valid JSONL.
//! * **Snapshot ledgers balance** — `aborts_by_rule` sums to `aborts`,
//!   and the per-layer shed counters sum to the drain total.
//! * **`/healthz` tracks shard health** — an injected shard panic flips
//!   it to 503 `degraded` mid-run, and supervised recovery flips it
//!   back.

use ccopt_client::{Client, ClientError};
use ccopt_engine::{Op, MECHANISM_NAMES};
use ccopt_model::value::Value;
use ccopt_net::{parse_prometheus, sample, Server, ServerConfig};
use ccopt_trace::{validate_jsonl_line, TraceConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const VARS: usize = 24;
const TXNS: usize = 30;

#[derive(Clone, Copy, Debug)]
enum ProgOp {
    Read(u32),
    Write(u32, i64),
    Update(u32, i64, i64),
}

fn program(seed: u64) -> Vec<Vec<ProgOp>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..TXNS)
        .map(|_| {
            (0..rng.gen_range(1..=5usize))
                .map(|_| {
                    let var = rng.gen_range(0..VARS as u32);
                    match rng.gen_range(0..3u32) {
                        0 => ProgOp::Read(var),
                        1 => ProgOp::Write(var, rng.gen_range(-1000..1000)),
                        _ => ProgOp::Update(var, rng.gen_range(-5..5), rng.gen_range(-50..50)),
                    }
                })
                .collect()
        })
        .collect()
}

/// Run the workload and record **every** response the client observed,
/// in order — the trace the differential compares.
fn run_recorded(client: &mut Client, prog: &[Vec<ProgOp>]) -> Vec<String> {
    let mut log = Vec::new();
    for txn in prog {
        let h = client.begin().expect("begin");
        'attempt: loop {
            for op in txn {
                loop {
                    let r = match *op {
                        ProgOp::Read(v) => client.read(h, v),
                        ProgOp::Write(v, x) => client.write(h, v, Value::Int(x)),
                        ProgOp::Update(v, a, c) => client.update(h, v, a, c),
                    }
                    .expect("operation");
                    log.push(format!("{r:?}"));
                    match r {
                        Op::Done(_) => break,
                        Op::Wait => continue,
                        Op::Restarted => continue 'attempt,
                    }
                }
            }
            let c = client.commit(h).expect("commit");
            log.push(format!("{c:?}"));
            match c {
                Op::Done(()) => break,
                Op::Wait => continue,
                Op::Restarted => continue 'attempt,
            }
        }
    }
    // Final committed state rides at the end of the log.
    let h = client.begin().expect("begin reader");
    for v in 0..VARS as u32 {
        loop {
            match client.read(h, v).expect("read") {
                Op::Done(val) => {
                    log.push(format!("final {v} = {val:?}"));
                    break;
                }
                _ => continue,
            }
        }
    }
    client.abort(h).expect("abort reader");
    log
}

/// Minimal HTTP GET against the ops listener; returns (status, body).
/// Retries transient socket failures (the listener is single-threaded
/// and the test machine is running many servers at once).
fn http_get(addr: SocketAddr, path: &str) -> (u32, String) {
    let mut last = String::new();
    for _ in 0..5 {
        let raw = (|| -> std::io::Result<String> {
            let mut s = TcpStream::connect(addr)?;
            s.set_read_timeout(Some(Duration::from_secs(5)))?;
            write!(s, "GET {path} HTTP/1.1\r\nHost: ccopt\r\n\r\n")?;
            let mut raw = String::new();
            s.read_to_string(&mut raw)?;
            Ok(raw)
        })();
        match raw {
            Ok(raw) if raw.split_whitespace().nth(1).is_some() => {
                let status: u32 = raw
                    .split_whitespace()
                    .nth(1)
                    .and_then(|c| c.parse().ok())
                    .unwrap_or_else(|| panic!("no status line in {raw:?}"));
                let body = raw
                    .split_once("\r\n\r\n")
                    .map(|(_, b)| b.to_string())
                    .unwrap_or_default();
                return (status, body);
            }
            Ok(raw) => last = format!("empty response {raw:?}"),
            Err(e) => last = e.to_string(),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("GET {path} kept failing: {last}");
}

#[test]
fn ops_plane_is_differentially_invisible_for_all_mechanisms() {
    for (i, name) in MECHANISM_NAMES.iter().enumerate() {
        let prog = program(0x0B5E_7E11 + i as u64);

        // Ops plane fully off: no sampler, no HTTP, no trace.
        let off = Server::start(ServerConfig {
            cc: name.to_string(),
            num_vars: VARS,
            shards: 3,
            sample_interval: Duration::ZERO,
            ..ServerConfig::default()
        })
        .unwrap_or_else(|e| panic!("{name}: ops-off start: {e}"));
        let mut client = Client::connect(off.local_addr()).expect("connect");
        let baseline = run_recorded(&mut client, &prog);
        drop(client);
        off.shutdown().expect("drain ops-off");

        // Everything on: fast sampler, HTTP scrapers, a Stats/Health
        // poller, and every trace event written to the sink.
        let sink = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("ops-plane")
            .join(format!("{name}-{}.jsonl", std::process::id()));
        let on = Server::start(ServerConfig {
            cc: name.to_string(),
            num_vars: VARS,
            shards: 3,
            sample_interval: Duration::from_millis(5),
            metrics_addr: Some("127.0.0.1:0".to_string()),
            trace: Some(TraceConfig::to_sink(&sink)),
            ..ServerConfig::default()
        })
        .unwrap_or_else(|e| panic!("{name}: ops-on start: {e}"));
        let addr = on.local_addr();
        let ops_addr = on.metrics_addr().expect("ops listener bound");
        let stop = Arc::new(AtomicBool::new(false));

        let poll_thread = {
            let stop = Arc::clone(&stop);
            let name = name.to_string();
            std::thread::spawn(move || {
                let mut poller = Client::connect(addr).expect("connect poller");
                poller.set_timeout(Some(Duration::from_secs(5))).unwrap();
                while !stop.load(Ordering::SeqCst) {
                    let s = poller.stats().expect("stats");
                    assert_eq!(s.cc, name, "snapshot names the serving mechanism");
                    let _ = poller.health().expect("health");
                    let (code, body) = http_get(ops_addr, "/metrics");
                    assert_eq!(code, 200, "/metrics serves");
                    parse_prometheus(&body).expect("exposition parses");
                    std::thread::sleep(Duration::from_millis(3));
                }
            })
        };

        let mut client = Client::connect(addr).expect("connect");
        let observed = run_recorded(&mut client, &prog);
        drop(client);

        stop.store(true, Ordering::SeqCst);
        poll_thread.join().expect("poller thread");
        on.shutdown().expect("drain ops-on");

        let record = std::fs::read_to_string(&sink).expect("the trace sink was written");
        for line in record.lines() {
            validate_jsonl_line(line).unwrap_or_else(|e| panic!("{name}: {line:?}: {e}"));
        }
        assert!(
            record.lines().count() > 0,
            "{name}: the sink recorded events"
        );
        let _ = std::fs::remove_file(&sink);

        assert_eq!(
            baseline, observed,
            "{name}: ops plane perturbed the workload's responses"
        );
    }
}

#[test]
fn stats_snapshot_ledgers_balance() {
    // max_txns 1 forces deterministic txn-budget sheds; the sampler is
    // on so the series fills.
    let server = Server::start(ServerConfig {
        num_vars: 8,
        shards: 2,
        max_txns: 1,
        sample_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    let mut a = Client::connect(addr).expect("connect a");
    let mut b = Client::connect(addr).expect("connect b");
    a.set_timeout(Some(Duration::from_secs(5))).unwrap();
    b.set_timeout(Some(Duration::from_secs(5))).unwrap();

    let mut txn_sheds = 0u64;
    for i in 0..20i64 {
        let h = a.begin().expect("begin");
        assert!(matches!(
            a.write(h, (i % 8) as u32, Value::Int(i)).expect("write"),
            Op::Done(_)
        ));
        // The budget is exhausted: b's first request must shed at the txn
        // layer.
        let hb = b.begin().expect("begin");
        match b.read(hb, 0) {
            Err(ClientError::Shed) => txn_sheds += 1,
            other => panic!("expected a txn-budget shed, got {other:?}"),
        }
        assert!(matches!(a.commit(h).expect("commit"), Op::Done(())));
    }
    // Explicit aborts exercise the abort ledger too.
    for _ in 0..5 {
        let h = a.begin().expect("begin");
        a.abort(h).expect("abort");
    }
    std::thread::sleep(Duration::from_millis(30)); // let the sampler tick

    let stats = a.stats().expect("stats");
    assert!(stats.uptime_ms > 0);
    assert_eq!(stats.shards.len(), 2);
    assert_eq!(stats.cc, "strict-2PL");
    assert_eq!(stats.metrics.commits, 20);
    assert_eq!(
        stats.metrics.aborts_by_rule.iter().sum::<usize>(),
        stats.metrics.aborts,
        "every abort is attributed to exactly one rule"
    );
    assert_eq!(
        stats.metrics.batched_ops, 20,
        "the shard-message counters cross the wire: one data op per txn"
    );
    assert!(
        stats.metrics.shard_msgs >= 20,
        "each op travelled in a message of its own (one RTT per op)"
    );
    assert_eq!(
        stats.sheds_txns, txn_sheds,
        "txn-budget sheds land in their own layer"
    );
    assert_eq!(stats.sheds_pipeline, 0);
    assert_eq!(stats.sheds_queue, 0);
    assert_eq!(
        stats.sheds_total(),
        stats.sheds_pipeline + stats.sheds_queue + stats.sheds_txns
    );
    assert!(!stats.series.is_empty(), "the sampler filled the series");
    let series_commits: u64 = stats.series.iter().map(|p| p.commits).sum();
    assert!(
        series_commits <= stats.metrics.commits as u64,
        "window deltas never exceed the cumulative counter"
    );

    drop(a);
    drop(b);
    let drained = server.shutdown().expect("drain");
    assert_eq!(drained.sheds_txns, txn_sheds);
    assert_eq!(
        drained.sheds(),
        drained.sheds_pipeline + drained.sheds_queue + drained.sheds_txns
    );
}

#[test]
fn healthz_flips_degraded_on_shard_panic_and_recovers() {
    let server = Server::start(ServerConfig {
        num_vars: 8,
        shards: 2,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        sample_interval: Duration::from_millis(10),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let ops_addr = server.metrics_addr().expect("ops listener bound");

    // Healthy at rest, and the exposition agrees.
    let wait_status = |want: u32, what: &str| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (code, body) = http_get(ops_addr, "/healthz");
            if code == want {
                return body;
            }
            assert!(
                Instant::now() < deadline,
                "{what}: stuck at {code} ({body})"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    wait_status(200, "initially healthy");
    let (code, body) = http_get(ops_addr, "/metrics");
    assert_eq!(code, 200);
    let samples = parse_prometheus(&body).expect("exposition parses");
    assert_eq!(sample(&samples, "ccopt_shard_up{shard=\"0\"}"), Some(1.0));

    // Kill shard 0 mid-run: /healthz goes degraded within one engine
    // pass (the accept thread runs one every 5 ms), no scrape or sample
    // interval required.
    server.panic_shard(0);
    let body = wait_status(503, "after shard panic");
    assert!(body.contains("degraded"), "reason is named: {body}");

    // The next transactions touching the dead shard trigger supervised
    // recovery; /healthz flips back on its own.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let healthy = {
            let (code, _) = http_get(ops_addr, "/healthz");
            code == 200
        };
        if healthy {
            break;
        }
        assert!(Instant::now() < deadline, "shard never recovered");
        // Touch every variable so the dead shard is supervised.
        if let Ok(h) = client.begin() {
            for v in 0..8u32 {
                if client.read(h, v).is_err() {
                    break;
                }
            }
            let _ = client.abort(h);
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Recovery is visible in the snapshot too: a restart was counted.
    let stats = client.stats().expect("stats");
    assert!(
        stats.shards.iter().map(|s| s.restarts).sum::<u64>() >= 1,
        "the supervised restart shows up in per-shard stats"
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.restarts).sum::<u64>(),
        stats.metrics.shard_restarts as u64,
        "per-shard restarts sum to the engine's total"
    );
    server.shutdown().expect("drain");
}
