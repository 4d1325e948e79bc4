//! The engine never waits on a client.
//!
//! Responses leave on the thread that made them: the engine frames them
//! into the connection's outbox and flushes it with one bounded write
//! per pass. The test below holds the other end of that bargain:
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

use ccopt_client::Client;
use ccopt_engine::BatchOp;
use ccopt_model::ids::VarId;
use ccopt_net::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, Server,
    ServerConfig, MAX_BATCH_OPS,
};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const VARS: usize = 64;

/// Live threads the server runs per connection (`ccopt-net-r<id>`
/// readers, drainers): every thread it names except its two
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
    // Its first request, a zero-op batch, begins the transaction.
    let txn = 1;
    let begin = Request::Batch {
        txn,
        ops: vec![],
        commit: false,
    };
    write_frame(&mut &stalled, &encode_request(1, &begin)).expect("send begin");
    let began = read_frame(&mut &stalled)
        .expect("read began")
        .expect("server answers begin");
    let nothing = Response::Batch {
        results: vec![],
        commit: None,
    };
    assert_eq!(decode_response(&began), Ok((1, nothing)));
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
