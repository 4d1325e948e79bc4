//! Tier-1 smoke of the served round trip: an in-process [`Server`] over
//! two shards and two real TCP clients, one per client surface.
//!
//! * **sync surface** — `begin` (which sends nothing) + one `batch`
//!   with the commit piggybacked: one round trip per transaction;
//! * **pipelined surface** — 64 requests in flight on one connection
//!   (the default `pipeline` cap, exactly): all answered, in request
//!   order;
//! * every transaction moves value between two variables, so a final
//!   read-all must find the sum conserved, and the server's drain report
//!   must count exactly the commits the clients saw;
//! * a connection costs the server one thread (its reader): the engine
//!   runs on the reader that finds it free, and responses leave on the
//!   thread that ran it.
//!
//! `crates/net/tests/` holds the full suites (differential, frame fuzz,
//! ops plane, slow readers); this is the thin slice the Tier-1 command
//! runs.

use ccopt::engine::{BatchOp, Op};
use ccopt::model::ids::VarId;
use ccopt::model::value::Value;
use ccopt_client::Client;
use ccopt_net::{BatchCommit, BatchOutcome, Request, Response, Server, ServerConfig};
use std::time::{Duration, Instant};

const VARS: u32 = 16;
const SYNC_TXNS: u32 = 20;
const IN_FLIGHT: usize = 64;

/// Live threads the server runs per connection (`ccopt-net-r<id>`
/// readers, drainers): every thread it names except its two
/// singletons. (A durable database's `ccopt-wal-sync` log syncers, named
/// by the durability crate, lie outside the prefix.) `None` off Linux.
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

fn connect(server: &Server) -> Client {
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(5))).unwrap();
    c.ping().expect("ping");
    c
}

#[test]
fn served_round_trip_on_both_client_surfaces() {
    let started = Instant::now();
    let server = Server::start(ServerConfig {
        num_vars: VARS as usize,
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    assert_eq!(ServerConfig::default().pipeline, IN_FLIGHT);
    let mut commits = 0u64;

    // One reader thread per open connection, nothing else. (A ping has
    // been answered on each, so its reader is up.)
    let idle = connection_threads();
    let mut sync = connect(&server);
    let mut piped = connect(&server);
    if let (Some(idle), Some(now)) = (idle, connection_threads()) {
        assert_eq!(now, idle + 2, "one server thread per connection");
    }

    // Sync surface: the whole transaction in one frame, which begins it.
    for i in 0..SYNC_TXNS {
        let h = sync.begin().expect("begin");
        let (from, to) = (VarId(i % VARS), VarId((i + 5) % VARS));
        let amount = 1 + i as i64;
        let ops = [
            BatchOp::Affine {
                var: from,
                a: 1,
                c: -amount,
            },
            BatchOp::Affine {
                var: to,
                a: 1,
                c: amount,
            },
        ];
        let (results, commit) = sync.batch(h, &ops, true).expect("batch");
        assert!(results.iter().all(|r| matches!(r, Op::Done(_))));
        assert_eq!(commit, Some(Op::Done(())), "a lone client never waits");
        commits += 1;
    }

    // Pipelined surface: one transaction, 64 requests sent before the
    // first answer is read — 63 one-op batches, then the commit as a
    // zero-op batch.
    let txn = piped.begin().expect("begin").token();
    let one = |op: BatchOp| Request::Batch {
        txn,
        ops: vec![op],
        commit: false,
    };
    let mut sent = Vec::with_capacity(IN_FLIGHT);
    for i in 0..(IN_FLIGHT as u32 - 2) {
        let (var, c) = (VarId(i % VARS), if i % 2 == 0 { 7 } else { -7 });
        let req = one(BatchOp::Affine { var, a: 1, c });
        sent.push(piped.send(&req).expect("send update"));
    }
    sent.push(piped.send(&one(BatchOp::Read(VarId(0)))).expect("send"));
    let commit = Request::Batch {
        txn,
        ops: vec![],
        commit: true,
    };
    sent.push(piped.send(&commit).expect("send commit"));
    assert_eq!(sent.len(), IN_FLIGHT);
    for (k, &want) in sent.iter().enumerate() {
        let (id, resp) = piped.recv().expect("every request is answered");
        assert_eq!(id, want, "answers keep request order");
        match resp {
            Response::Batch {
                results,
                commit: None,
            } if k + 1 < IN_FLIGHT && matches!(results[..], [BatchOutcome::Done { .. }]) => {}
            Response::Batch {
                results,
                commit: Some(BatchCommit::Committed),
            } if k + 1 == IN_FLIGHT && results.is_empty() => commits += 1,
            other => panic!("request {k}: unexpected {other:?}"),
        }
    }

    // Conservation: every transaction moved value, none created any.
    let h = sync.begin().expect("begin reader");
    let reads: Vec<BatchOp> = (0..VARS).map(|v| BatchOp::Read(VarId(v))).collect();
    let (values, commit) = sync.batch(h, &reads, true).expect("read all");
    assert_eq!(commit, Some(Op::Done(())));
    commits += 1;
    let values: Vec<i64> = values
        .iter()
        .map(|r| match r {
            Op::Done(Value::Int(x)) => *x,
            other => panic!("read-all answered {other:?}"),
        })
        .collect();
    assert_eq!(values.len(), VARS as usize);
    assert!(values.iter().any(|&x| x != 0), "the writes landed");
    assert_eq!(values.iter().sum::<i64>(), 0, "value is conserved");

    drop(sync);
    drop(piped);
    let drained = server.shutdown().expect("clean drain");
    assert_eq!(drained.commits, commits, "the server counted what we saw");
    assert_eq!(drained.sheds(), 0);
    assert_eq!(drained.aborted_on_drain, 0);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "a smoke, not a soak"
    );
}
