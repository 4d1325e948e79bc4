//! The engine runs on whichever connection thread finds it free: racing
//! connections must still see every request answered exactly once, in
//! request order, with every commit counted once.
//!
//! * 16 connections × 200 rounds, started together; each round pipelines
//!   `ping`, `stats` and the first and only request of a fresh
//!   transaction, a `batch` with its commit piggybacked, before reading
//!   the three answers. Afterwards a read-all conserves the committed
//!   `+1`s, the engine's commit count equals the clients' and the
//!   request queue is empty.
//! * 1 000 connections each begin a transaction and drop mid-transaction:
//!   each exiting reader queues its own `Gone` and runs it when the
//!   engine is free. With no connection left, the sampler — run by the
//!   accept thread's poll — must publish no live transaction and no
//!   connection.

use ccopt_client::Client;
use ccopt_engine::{BatchOp, Op};
use ccopt_model::ids::VarId;
use ccopt_model::value::Value;
use ccopt_net::{
    parse_prometheus, sample, BatchCommit, BatchOutcome, Request, Response, Server, ServerConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const CONNS: u32 = 16;
const ROUNDS: u32 = 200;
/// Connection `c` adds 1 to `c` and to `CONNS + c`: no two connections
/// conflict, so every batch commits.
const VARS: u32 = 2 * CONNS;
const DROPPED: usize = 1000;

fn connect(addr: SocketAddr) -> Client {
    let mut c = Client::connect(addr).expect("connect");
    c.set_timeout(Some(Duration::from_secs(5))).unwrap();
    c
}

/// One connection's rounds; returns the transactions it committed.
fn race(addr: SocketAddr, c: u32, start: &Barrier) -> u64 {
    let mut client = connect(addr);
    let ops = [
        BatchOp::Affine {
            var: VarId(c),
            a: 1,
            c: 1,
        },
        BatchOp::Affine {
            var: VarId(CONNS + c),
            a: 1,
            c: 1,
        },
    ];
    start.wait();
    for round in 0..ROUNDS {
        let txn = client.begin().expect("begin").token();
        // The batch goes last: a pass answers `Ping` and `Stats` as it
        // meets them but a batch when its group is submitted, so a ping
        // pipelined behind a batch may overtake it (the protocol matches
        // answers by id). In this order, any split of the three across
        // passes answers them in request order.
        let sent = [
            client.send(&Request::Ping).expect("send ping"),
            client.send(&Request::Stats).expect("send stats"),
            client
                .send(&Request::Batch {
                    txn,
                    ops: ops.to_vec(),
                    commit: true,
                })
                .expect("send batch"),
        ];
        let mut answers = sent.iter().map(|&want| {
            let (id, resp) = client.recv().expect("every request is answered");
            assert_eq!(
                id, want,
                "connection {c} round {round}: answers in request order"
            );
            resp
        });
        assert!(matches!(answers.next(), Some(Response::Pong)));
        assert!(matches!(answers.next(), Some(Response::Stats { .. })));
        match answers.next() {
            Some(Response::Batch {
                results,
                commit: Some(BatchCommit::Committed),
            }) => {
                assert_eq!(results.len(), ops.len());
                assert!(results
                    .iter()
                    .all(|r| matches!(r, BatchOutcome::Done { .. })));
            }
            other => panic!("connection {c} round {round}: batch answered {other:?}"),
        }
    }
    // An abort begins and ends a fresh transaction; its answer is the
    // next frame, so nothing was answered twice.
    let txn = client.begin().expect("begin").token();
    let want = client.send(&Request::Abort { txn }).expect("send abort");
    let (id, resp) = client.recv().expect("abort answered");
    assert_eq!((id, resp), (want, Response::Aborted));
    u64::from(ROUNDS)
}

/// `GET path` on the ops listener: the response body.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect ops listener");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: ccopt\r\n\r\n").unwrap();
    let mut raw = String::new();
    let _ = s.read_to_string(&mut raw);
    raw.split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default()
}

#[test]
fn racing_connections_are_each_answered_once_in_order() {
    let started = Instant::now();
    let server = Server::start(ServerConfig {
        num_vars: VARS as usize,
        shards: 2,
        max_txns: 2 * DROPPED,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        sample_interval: Duration::from_millis(10),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    let start = Barrier::new(CONNS as usize);
    let mut commits: u64 = std::thread::scope(|s| {
        let racers: Vec<_> = (0..CONNS)
            .map(|c| {
                let start = &start;
                s.spawn(move || race(addr, c, start))
            })
            .collect();
        racers.into_iter().map(|r| r.join().expect("racer")).sum()
    });
    assert_eq!(commits, u64::from(CONNS * ROUNDS));

    // Every committed +1 is there, once.
    let mut client = connect(addr);
    let h = client.begin().expect("begin");
    let reads: Vec<BatchOp> = (0..VARS).map(|v| BatchOp::Read(VarId(v))).collect();
    let (values, commit) = client.batch(h, &reads, true).expect("read all");
    assert_eq!(commit, Some(Op::Done(())));
    commits += 1;
    let sum: i64 = values
        .iter()
        .map(|r| match r {
            Op::Done(Value::Int(x)) => *x,
            other => panic!("read-all answered {other:?}"),
        })
        .sum();
    assert_eq!(sum, 2 * i64::from(CONNS * ROUNDS), "the +1s are conserved");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.metrics.commits as u64, commits,
        "each commit counted once"
    );
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.live_txns, 0);
    drop(client);

    // Connections that vanish mid-transaction, a hundred at a time (the
    // listen backlog holds them until the accept thread's next turn).
    // Each begins its transaction with a zero-op batch.
    for _ in 0..DROPPED / 100 {
        let mut wave: Vec<Client> = (0..100).map(|_| connect(addr)).collect();
        for c in &mut wave {
            let txn = c.begin().expect("begin").token();
            let begin = Request::Batch {
                txn,
                ops: vec![],
                commit: false,
            };
            c.send(&begin).expect("send begin");
        }
        for c in &mut wave {
            assert!(matches!(
                c.recv().expect("began"),
                (_, Response::Batch { results, commit: None }) if results.is_empty()
            ));
        }
    }
    let ops = server.metrics_addr().expect("ops listener");
    let give_up = Instant::now() + Duration::from_secs(5);
    loop {
        let samples = parse_prometheus(&http_get(ops, "/metrics")).expect("exposition parses");
        let live = sample(&samples, "ccopt_live_txns");
        let conns = sample(&samples, "ccopt_connections");
        if (live, conns) == (Some(0.0), Some(0.0)) {
            break;
        }
        assert!(
            Instant::now() < give_up,
            "orphans left: {live:?} transactions, {conns:?} connections"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let drained = server.shutdown().expect("clean drain");
    assert_eq!(drained.commits, commits);
    assert_eq!(drained.sheds(), 0);
    assert_eq!(drained.aborted_on_drain, 0);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "took {:?}",
        started.elapsed()
    );
}
