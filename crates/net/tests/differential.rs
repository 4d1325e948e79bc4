//! The served-vs-in-process differential: a single-connection serial
//! client workload must leave **bit-identical** committed state to the
//! equivalent in-process [`SessionDb`] run, for all seven mechanisms.
//!
//! The same deterministic program (seeded transactions of reads, blind
//! writes, and affine updates) runs three times per mechanism — twice
//! through a wire [`Client`] against a sharded [`Server`] (one op per
//! call, then each transaction as one batch with its commit), once
//! directly against a `SessionDb` — and the final committed images are
//! compared value by value. This pins three things at once: the wire codec round-trips
//! values exactly, the server's update semantics are
//! [`affine_eval`](ccopt_engine::affine_eval) and nothing else, and the
//! sharded engine behind the server computes what the unsharded session
//! layer computes.

use ccopt_client::{Client, TxnHandle};
use ccopt_engine::{affine_eval, cc_by_name, BatchOp, Op, SessionDb, MECHANISM_NAMES};
use ccopt_model::ids::VarId;
use ccopt_model::state::GlobalState;
use ccopt_model::value::Value;
use ccopt_net::{Server, ServerConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const VARS: usize = 24;
const TXNS: usize = 40;

#[derive(Clone, Copy, Debug)]
enum ProgOp {
    Read(u32),
    Write(u32, i64),
    Update(u32, i64, i64),
}

/// The deterministic workload: `TXNS` transactions of 1..=6 operations.
fn program(seed: u64) -> Vec<Vec<ProgOp>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..TXNS)
        .map(|_| {
            (0..rng.gen_range(1..=6usize))
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

/// Run the workload over the wire; a serial client still honours the
/// full session contract (retry on `Wait`, replay on `Restarted`).
fn run_wire(client: &mut Client, prog: &[Vec<ProgOp>]) {
    for txn in prog {
        let h: TxnHandle = client.begin().expect("begin");
        'attempt: loop {
            for op in txn {
                loop {
                    let r = match *op {
                        ProgOp::Read(v) => client.read(h, v),
                        ProgOp::Write(v, x) => client.write(h, v, Value::Int(x)),
                        ProgOp::Update(v, a, c) => client.update(h, v, a, c),
                    }
                    .expect("operation");
                    match r {
                        Op::Done(_) => break,
                        Op::Wait => continue,
                        Op::Restarted => continue 'attempt,
                    }
                }
            }
            match client.commit(h).expect("commit") {
                Op::Done(()) => break,
                Op::Wait => continue,
                Op::Restarted => continue 'attempt,
            }
        }
    }
}

/// The same workload over the wire with each transaction as **one**
/// `Client::batch(ops, commit: true)`: resume from a trailing `Wait`,
/// replay everything after a `Restarted`, retry a waiting commit alone.
fn run_wire_batched(client: &mut Client, prog: &[Vec<ProgOp>]) {
    for txn in prog {
        let ops: Vec<BatchOp> = txn
            .iter()
            .map(|op| match *op {
                ProgOp::Read(v) => BatchOp::Read(VarId(v)),
                ProgOp::Write(v, x) => BatchOp::Write(VarId(v), Value::Int(x)),
                ProgOp::Update(v, a, c) => BatchOp::Affine {
                    var: VarId(v),
                    a,
                    c,
                },
            })
            .collect();
        let h = client.begin().expect("begin");
        let mut from = 0;
        loop {
            let (results, commit) = client.batch(h, &ops[from..], true).expect("batch");
            match (results.last(), commit) {
                (_, Some(Op::Done(()))) => break,
                (Some(Op::Restarted), None) | (_, Some(Op::Restarted)) => from = 0,
                (Some(Op::Wait), None) => from += results.len() - 1,
                (_, Some(Op::Wait)) => from = ops.len(),
                other => panic!("a batch answered {other:?}"),
            }
        }
    }
}

/// The same workload, in process.
fn run_session(db: &mut SessionDb, prog: &[Vec<ProgOp>]) {
    for txn in prog {
        let h = db.begin();
        'attempt: loop {
            for op in txn {
                loop {
                    let r = match *op {
                        ProgOp::Read(v) => db.read(h, VarId(v)),
                        ProgOp::Write(v, x) => db.write(h, VarId(v), Value::Int(x)),
                        ProgOp::Update(v, a, c) => {
                            db.update(h, VarId(v), move |old| affine_eval(a, c, old))
                        }
                    }
                    .expect("operation");
                    match r {
                        Op::Done(_) => break,
                        Op::Wait => continue,
                        Op::Restarted => continue 'attempt,
                    }
                }
            }
            match db.commit(h).expect("commit") {
                Op::Done(()) => {
                    db.retire(h).expect("retire");
                    break;
                }
                Op::Wait => continue,
                Op::Restarted => continue 'attempt,
            }
        }
    }
}

/// Read the server's committed state back over the wire (a read-only
/// transaction that aborts, leaving no trace).
fn wire_state(client: &mut Client) -> Vec<Value> {
    let h = client.begin().expect("begin reader");
    let mut out = Vec::with_capacity(VARS);
    'attempt: loop {
        out.clear();
        for v in 0..VARS as u32 {
            loop {
                match client.read(h, v).expect("read") {
                    Op::Done(val) => {
                        out.push(val);
                        break;
                    }
                    Op::Wait => continue,
                    Op::Restarted => continue 'attempt,
                }
            }
        }
        break;
    }
    client.abort(h).expect("abort reader");
    out
}

/// Run `prog` with `replay` against a fresh sharded server running
/// mechanism `name`, and read its committed state back.
fn served(name: &str, prog: &[Vec<ProgOp>], replay: fn(&mut Client, &[Vec<ProgOp>])) -> Vec<Value> {
    let server = Server::start(ServerConfig {
        cc: name.to_string(),
        num_vars: VARS,
        shards: 3,
        ..ServerConfig::default()
    })
    .unwrap_or_else(|e| panic!("{name}: server start: {e}"));
    let mut client = Client::connect(server.local_addr()).expect("connect");
    replay(&mut client, prog);
    let state = wire_state(&mut client);
    drop(client);
    let stats = server.shutdown().expect("drain");
    assert_eq!(stats.commits as usize, TXNS, "{name}: every txn committed");
    state
}

#[test]
fn serial_wire_workload_matches_in_process_session_for_all_mechanisms() {
    for (i, name) in MECHANISM_NAMES.iter().enumerate() {
        let prog = program(0xC0FFEE + i as u64);

        // In process, unsharded.
        let mut db = SessionDb::with_capacity(
            cc_by_name(name).expect("known mechanism"),
            GlobalState::from_ints(&[0; VARS]),
            4,
        );
        run_session(&mut db, &prog);
        let local = db.committed_globals();

        // Over the wire, through a sharded server: one op per call, and
        // each transaction as one batch with its commit.
        assert_eq!(
            served(name, &prog, run_wire),
            local.0,
            "{name}: served state diverged from the in-process session run"
        );
        assert_eq!(
            served(name, &prog, run_wire_batched),
            local.0,
            "{name}: batched served state diverged from the in-process session run"
        );
    }
}
