//! A transaction token answers only to the connection that began it.
//!
//! Tokens are sequential, so any connection can *name* another's live
//! transaction. Before the ownership check, a second connection's
//! requests on a borrowed token executed inside the owner's transaction
//! — and when both connections pipelined the same token into one engine
//! drain pass, the same engine handle entered one `submit_group` call
//! twice, leaking a sub-transaction on the shard (locks held forever)
//! and panicking the engine thread once the first member's commit
//! retired the slot: one hostile client took the whole server down.

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

/// Send `req` on `c` and require an `UnknownTxn` refusal.
fn refused(c: &mut Client, req: &Request) {
    let id = c.send(req).expect("send");
    let (got, resp) = c.recv().expect("recv");
    assert_eq!(got, id);
    assert!(
        matches!(
            resp,
            Response::Err {
                code: ErrCode::UnknownTxn,
                ..
            }
        ),
        "{req:?} on a foreign token must answer UnknownTxn, got {resp:?}"
    );
}

#[test]
fn a_token_answers_only_to_the_connection_that_began_it() {
    let server = Server::start(ServerConfig {
        cc: "strict-2PL".to_string(),
        num_vars: 8,
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("server");
    let mut a = Client::connect(server.local_addr()).expect("connect a");
    let mut b = Client::connect(server.local_addr()).expect("connect b");

    // One request at a time: every opcode that names a transaction.
    let h = a.begin().expect("begin");
    let txn = h.token();
    assert_eq!(
        a.write(h, 0, Value::Int(5)).expect("write"),
        Op::Done(Value::Int(0))
    );
    let batch = |ops: Vec<BatchOp>, commit| Request::Batch { txn, ops, commit };
    for req in [
        batch(vec![BatchOp::Read(VarId(0))], false),
        batch(vec![BatchOp::Write(VarId(0), Value::Int(99))], false),
        batch(vec![update(0, 2, 1)], false),
        batch(vec![BatchOp::Write(VarId(0), Value::Int(99))], true),
        batch(vec![], true),
        Request::Abort { txn },
    ] {
        refused(&mut b, &req);
    }
    // The owner's transaction saw none of it, and still commits.
    assert_eq!(a.read(h, 0).expect("read"), Op::Done(Value::Int(5)));
    assert_eq!(a.commit(h).expect("commit"), Op::Done(()));

    // Pipelined: both connections race the same token at the engine, so
    // some rounds land both in one drain pass — the crash scenario.
    const ROUNDS: i64 = 50;
    for _ in 0..ROUNDS {
        let txn = a.begin().expect("begin").token();
        let reqs = [
            Request::Batch {
                txn,
                ops: vec![update(1, 1, 1)],
                commit: false,
            },
            Request::Batch {
                txn,
                ops: vec![],
                commit: true,
            },
        ];
        for req in &reqs {
            a.send(req).expect("send a");
            b.send(req).expect("send b");
        }
        assert!(matches!(
            a.recv().expect("recv a").1,
            Response::Batch { results, commit: None }
                if matches!(results[..], [BatchOutcome::Done { .. }])
        ));
        assert!(matches!(
            a.recv().expect("recv a").1,
            Response::Batch { results, commit: Some(BatchCommit::Committed) }
                if results.is_empty()
        ));
        for _ in &reqs {
            let (_, resp) = b.recv().expect("recv b");
            assert!(
                matches!(
                    resp,
                    Response::Err {
                        code: ErrCode::UnknownTxn,
                        ..
                    }
                ),
                "a raced foreign token must answer UnknownTxn, got {resp:?}"
            );
        }
    }

    // The server keeps serving, on both connections, with exactly the
    // owner's effects.
    b.ping().expect("ping");
    let h = b.begin().expect("begin");
    assert_eq!(b.read(h, 0).expect("read"), Op::Done(Value::Int(5)));
    assert_eq!(b.read(h, 1).expect("read"), Op::Done(Value::Int(ROUNDS)));
    assert_eq!(b.commit(h).expect("commit"), Op::Done(()));
    server.shutdown().expect("shutdown");
}
