//! A connection can only ever speak for its own transactions.
//!
//! Tokens are numbered by each client, one namespace per connection, so
//! two connections name their transactions with the same numbers. When
//! tokens were one server-wide sequence, a second connection could name
//! another's live transaction; before the ownership check its requests
//! executed inside the owner's transaction — and when both connections
//! pipelined the same token into one engine drain pass, the same engine
//! handle entered one `submit_group` call twice, leaking a
//! sub-transaction on the shard (locks held forever) and panicking the
//! engine thread once the first member's commit retired the slot: one
//! hostile client took the whole server down. Now the same number on
//! another connection is another transaction.

use ccopt_client::Client;
use ccopt_engine::{BatchOp, Op};
use ccopt_model::ids::VarId;
use ccopt_model::value::Value;
use ccopt_net::{BatchCommit, BatchOutcome, ErrCode, Request, Response, Server, ServerConfig};

/// The wire form of `update(var, a, c)`.
fn update(var: u32, a: i64, c: i64) -> BatchOp {
    BatchOp::Affine {
        var: VarId(var),
        a,
        c,
    }
}

/// Send `req` on `c` and return the answer.
fn ask(c: &mut Client, req: &Request) -> Response {
    let id = c.send(req).expect("send");
    let (got, resp) = c.recv().expect("recv");
    assert_eq!(got, id);
    resp
}

fn unknown_txn(resp: &Response) -> bool {
    matches!(
        resp,
        Response::Err {
            code: ErrCode::UnknownTxn,
            ..
        }
    )
}

/// A batch that ran `results` and, when asked to, its commit.
fn answered(results: Vec<BatchOutcome>, commit: Option<BatchCommit>) -> Response {
    Response::Batch { results, commit }
}

#[test]
fn a_token_number_names_a_transaction_of_its_own_connection_only() {
    let server = Server::start(ServerConfig {
        cc: "strict-2PL".to_string(),
        num_vars: 8,
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("server");
    let mut a = Client::connect(server.local_addr()).expect("connect a");
    let mut b = Client::connect(server.local_addr()).expect("connect b");

    // One request at a time: every request shape that names a
    // transaction. A holds x0; B's requests on the same number run in
    // B's own transaction, which waits for A's lock instead of seeing
    // A's write.
    let h = a.begin().expect("begin");
    let txn = h.token();
    assert_eq!(b.begin().expect("begin").token(), txn, "the same number");
    assert_eq!(
        a.write(h, 0, Value::Int(5)).expect("write"),
        Op::Done(Value::Int(0))
    );
    let batch = |ops: Vec<BatchOp>, commit| Request::Batch { txn, ops, commit };
    let wait = || answered(vec![BatchOutcome::Wait], None);
    for (req, want) in [
        (batch(vec![BatchOp::Read(VarId(0))], false), wait()),
        (
            batch(vec![BatchOp::Write(VarId(0), Value::Int(99))], false),
            wait(),
        ),
        (batch(vec![update(0, 2, 1)], false), wait()),
        (
            batch(vec![BatchOp::Write(VarId(0), Value::Int(99))], true),
            wait(),
        ),
        // B's transaction holds nothing, so its commit lands at once.
        (
            batch(vec![], true),
            answered(vec![], Some(BatchCommit::Committed)),
        ),
    ] {
        assert_eq!(ask(&mut b, &req), want, "{req:?} on B");
    }
    // B finished its transaction: the number is stale on B, live on A.
    assert!(unknown_txn(&ask(&mut b, &batch(vec![], true))));
    assert!(unknown_txn(&ask(&mut b, &Request::Abort { txn })));
    // The owner's transaction saw none of it, and still commits.
    assert_eq!(a.read(h, 0).expect("read"), Op::Done(Value::Int(5)));
    assert_eq!(a.commit(h).expect("commit"), Op::Done(()));

    // Pipelined: both connections race the same number at the engine, so
    // some rounds land both in one drain pass — once the crash scenario.
    // Each connection adds to a variable of its own.
    const ROUNDS: i64 = 50;
    for _ in 0..ROUNDS {
        let txn = a.begin().expect("begin").token();
        assert_eq!(b.begin().expect("begin").token(), txn);
        let reqs = |var| {
            [
                Request::Batch {
                    txn,
                    ops: vec![update(var, 1, 1)],
                    commit: false,
                },
                Request::Batch {
                    txn,
                    ops: vec![],
                    commit: true,
                },
            ]
        };
        let (ra, rb) = (reqs(1), reqs(2));
        for (qa, qb) in ra.iter().zip(&rb) {
            a.send(qa).expect("send a");
            b.send(qb).expect("send b");
        }
        for c in [&mut a, &mut b] {
            assert!(matches!(
                c.recv().expect("recv").1,
                Response::Batch { results, commit: None }
                    if matches!(results[..], [BatchOutcome::Done { .. }])
            ));
            assert_eq!(
                c.recv().expect("recv").1,
                answered(vec![], Some(BatchCommit::Committed))
            );
        }
    }

    // The server keeps serving, on both connections, with exactly each
    // connection's own effects.
    b.ping().expect("ping");
    let h = b.begin().expect("begin");
    assert_eq!(b.read(h, 0).expect("read"), Op::Done(Value::Int(5)));
    assert_eq!(b.read(h, 1).expect("read"), Op::Done(Value::Int(ROUNDS)));
    assert_eq!(b.read(h, 2).expect("read"), Op::Done(Value::Int(ROUNDS)));
    assert_eq!(b.commit(h).expect("commit"), Op::Done(()));
    let drained = server.shutdown().expect("shutdown");
    assert_eq!(drained.commits, 2 + 2 * ROUNDS as u64 + 1);
}
