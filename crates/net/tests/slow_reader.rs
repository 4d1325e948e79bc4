//! The engine never waits on a client.
//!
//! Responses leave on the thread that made them: the engine frames them
//! into the connection's outbox and flushes it with one bounded write
//! per pass. These tests hold the other end of that bargain:
//!
//! * **A client that never reads stalls only itself.** It pipelines
//!   maximum-size batches and `Stats` requests until every buffer
//!   between it and the server is full. Meanwhile another connection's
//!   pings are all answered, p99 under 50 ms; the stalled connection's
//!   excess requests land in the pipeline column of the shed ledger and
//!   its reader stops reading (so its outbox stays bounded and the
//!   client's own sends back up); closing the socket aborts its
//!   transaction and ends its reader and drainer threads; and the server
//!   still drains cleanly.
//! * **One write routine, no interleaving.** A connection that
//!   subscribed *and* keeps issuing `Stats` requests under load has three
//!   threads producing frames for it (engine, pump, reader); every frame
//!   still decodes, `Stats` answers arrive in request order, and the
//!   drop-and-count contract of `ops_plane.rs` holds.

use ccopt_client::Client;
use ccopt_engine::{BatchOp, Op};
use ccopt_model::ids::VarId;
use ccopt_net::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, Server,
    ServerConfig, ServerStats, MAX_BATCH_OPS,
};
use ccopt_trace::validate_jsonl_line;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const VARS: usize = 64;

/// Both tests count the process's server threads, so they take turns.
static ONE_SERVER_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Live threads the server runs per connection (`ccopt-net-r<id>`
/// readers, pumps, drainers): every thread it names except its two
/// singletons, the accept thread and the ops HTTP listener. (The engine
/// has no thread: it runs on whichever of these holds it, and so do the
/// shards; a durable database's `ccopt-wal-sync` log syncers lie outside
/// the prefix.) `None` off Linux.
fn connection_threads() -> Option<usize> {
    const SINGLETONS: [&str; 2] = ["ccopt-net-accep", "ccopt-net-ops"];
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
            .filter(|name| name.starts_with("ccopt-net-") && !SINGLETONS.contains(&name.trim()))
            .count(),
    )
}

/// Poll until `done()` or the deadline; says whether it got there.
fn wait_until(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

#[test]
fn a_client_that_never_reads_stalls_only_itself() {
    let _turn = ONE_SERVER_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let cfg = ServerConfig {
        num_vars: VARS,
        shards: 2,
        ..ServerConfig::default()
    };
    let pipeline = cfg.pipeline;
    let server = Server::start(cfg).expect("server starts");
    let addr = server.local_addr();

    let mut pinger = Client::connect(addr).expect("connect pinger");
    pinger.set_timeout(Some(Duration::from_secs(5))).unwrap();
    pinger.ping().expect("first ping");
    let baseline = connection_threads();

    // The stalled client: one open transaction, then requests forever
    // and not a single read.
    let stalled = TcpStream::connect(addr).expect("connect stalled client");
    stalled.set_nodelay(true).unwrap();
    write_frame(&mut &stalled, &encode_request(1, &Request::Begin)).expect("send begin");
    let began = read_frame(&mut &stalled)
        .expect("read began")
        .expect("server answers begin");
    let txn = match decode_response(&began).expect("began decodes") {
        (1, Response::Began { txn }) => txn,
        other => panic!("unexpected answer to begin: {other:?}"),
    };
    let sent = Arc::new(AtomicU64::new(0));
    let writer = {
        let stream = stalled.try_clone().expect("clone stalled socket");
        let sent = Arc::clone(&sent);
        std::thread::spawn(move || {
            // One variable, so one shard: the batch is one shard
            // message, not a thousand.
            let ops = vec![BatchOp::Read(VarId(0)); MAX_BATCH_OPS];
            let batch = Request::Batch {
                txn,
                ops,
                commit: false,
            };
            let mut id = 1u64;
            loop {
                for k in 0..=pipeline {
                    id += 1;
                    let req = if k < pipeline {
                        &batch
                    } else {
                        &Request::Stats
                    };
                    if write_frame(&mut &stream, &encode_request(id, req)).is_err() {
                        return; // the test closed the socket
                    }
                    sent.fetch_add(1, Ordering::SeqCst);
                }
            }
        })
    };

    // Ping throughout: from the first request of the flood until its
    // sender has been stuck behind full buffers for a quarter second.
    let mut rtts: Vec<Duration> = Vec::new();
    let mut progress = (sent.load(Ordering::SeqCst), Instant::now());
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        let t = Instant::now();
        pinger.ping().expect("every ping is answered");
        rtts.push(t.elapsed());
        let now = sent.load(Ordering::SeqCst);
        if now != progress.0 {
            progress = (now, Instant::now());
        }
        let stuck = now > 0 && progress.1.elapsed() >= Duration::from_millis(250);
        if stuck && rtts.len() >= 2000 {
            break;
        }
        assert!(
            Instant::now() < give_up,
            "the flood never backed up: the server keeps reading from a peer that does not"
        );
    }
    rtts.sort();
    let p99 = rtts[rtts.len() * 99 / 100];
    assert!(
        p99 < Duration::from_millis(50),
        "ping p99 {p99:?} over {} pings beside a stalled connection",
        rtts.len()
    );

    // The ledger: the flood ran into the per-connection cap and nothing
    // else; its transaction is still open.
    let stats = pinger.stats().expect("stats");
    assert!(
        stats.sheds_pipeline > 0,
        "requests beyond `pipeline` are shed"
    );
    assert_eq!(stats.sheds_queue, 0, "the engine queue never filled");
    assert_eq!(stats.sheds_txns, 0);
    assert_eq!(stats.conns, 2);
    assert_eq!(stats.live_txns, 1);
    if let (Some(base), Some(now)) = (baseline, connection_threads()) {
        // Its reader, blocked delivering a `Shed` — itself the drainer,
        // or waiting on the one the engine started.
        assert!(
            now == base + 1 || now == base + 2,
            "the stalled connection holds a reader and at most one drainer: {now} vs {base}"
        );
    }

    // Closing the stalled socket ends everything it held.
    stalled
        .shutdown(Shutdown::Both)
        .expect("close stalled socket");
    writer.join().expect("flood thread");
    drop(stalled);
    let gone = wait_until(Duration::from_secs(5), || {
        let s = pinger.stats().expect("stats");
        s.conns == 1 && s.live_txns == 0
    });
    assert!(gone, "the dead connection's transaction was aborted");
    if let Some(base) = baseline {
        let back = wait_until(Duration::from_secs(5), || {
            connection_threads() == Some(base)
        });
        assert!(
            back,
            "reader and drainer exited: {:?} threads, baseline {base}",
            connection_threads()
        );
    }

    drop(pinger);
    let drained = server.shutdown().expect("clean drain");
    assert_eq!(drained.aborted_on_drain, 0);
    assert_eq!(drained.sheds_pipeline, drained.sheds());
}

#[test]
fn a_subscriber_that_also_asks_for_stats_decodes_every_frame() {
    let _turn = ONE_SERVER_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    const WINDOW: usize = 8;
    const ROUNDS: usize = 40;
    let server = Server::start(ServerConfig {
        num_vars: VARS,
        shards: 2,
        // A tiny ring behind the paced pump makes overflow certain.
        subscriber_ring: 8,
        sample_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    let mut sub = Client::connect(addr).expect("connect subscriber");
    sub.set_timeout(Some(Duration::from_secs(10))).unwrap();
    sub.subscribe().expect("subscribe");

    // Load: serial commits on another connection until the subscriber
    // has finished, so events flow the whole time.
    let stop = Arc::new(AtomicBool::new(false));
    let load = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect workload");
            client.set_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut commits = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let h = client.begin().expect("begin");
                let var = (commits % VARS as u64) as u32;
                assert!(matches!(
                    client.update(h, var, 1, 1).expect("update"),
                    Op::Done(_)
                ));
                assert!(matches!(client.commit(h).expect("commit"), Op::Done(())));
                commits += 1;
            }
            commits
        })
    };

    // The subscriber pipelines a window of `Stats` requests, lets the
    // ring overflow behind its back, then reads until the window is
    // answered: every frame must decode (a torn or interleaved frame
    // fails its CRC), and `Stats` answers come back in request order.
    let started = Instant::now();
    // At least `ROUNDS` windows, and on until the stream itself has
    // reported a drop.
    let (mut events, mut dropped_in_stream) = (0usize, 0u64);
    let mut rounds = 0;
    while rounds < ROUNDS || dropped_in_stream == 0 {
        rounds += 1;
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "{rounds} windows answered, yet no drop reported in-stream"
        );
        let mut want = std::collections::VecDeque::new();
        for _ in 0..WINDOW {
            want.push_back(sub.send(&Request::Stats).expect("send stats"));
        }
        std::thread::sleep(Duration::from_millis(5));
        while let Some(&next) = want.front() {
            match sub.recv().expect("every frame decodes") {
                (_, Response::Events { dropped, lines }) => {
                    for line in &lines {
                        validate_jsonl_line(line).expect("schema-valid event");
                    }
                    events += lines.len();
                    dropped_in_stream = dropped_in_stream.max(dropped);
                }
                (id, Response::Stats { stats }) => {
                    assert_eq!(id, next, "stats answers keep request order");
                    assert_eq!(stats.subscribers, 1);
                    want.pop_front();
                }
                other => panic!("unexpected frame on the subscription: {other:?}"),
            }
        }
    }
    stop.store(true, Ordering::SeqCst);
    let commits = load.join().expect("workload thread");
    assert!(commits > 0 && events > 0, "load ran and events streamed");

    // Drop-and-count: the tiny ring overflowed behind the subscriber's
    // back; the stream said so itself (above), and so does the engine.
    let stats = stats_past_events(&mut sub);
    assert!(
        stats.sub_dropped >= dropped_in_stream,
        "the engine counts every drop the stream reported"
    );
    assert_eq!(stats.sheds_total(), 0, "nothing was shed on the way");

    drop(sub);
    let drained = server.shutdown().expect("clean drain");
    assert_eq!(drained.commits, commits);
}

/// `Client::stats` on a subscribed connection: skip event frames until
/// the answer arrives.
fn stats_past_events(sub: &mut Client) -> ServerStats {
    let id = sub.send(&Request::Stats).expect("send stats");
    loop {
        match sub.recv().expect("every frame decodes") {
            (_, Response::Events { .. }) => {}
            (got, Response::Stats { stats }) if got == id => return *stats,
            other => panic!("unexpected frame on the subscription: {other:?}"),
        }
    }
}
