//! Sharded execution, end to end: hash-partitioned shards on worker
//! threads, single-shard fast-path commits, cross-shard two-phase
//! commits, a coordinator crash in the middle of one — and recovery
//! settling the in-doubt vote by consulting the coordinator shard's log.
//! Each transfer is one batch of plain-data operations that carries its
//! own commit.
//!
//! ```sh
//! cargo run --release --example sharded_sessions
//! ```

use ccopt::engine::shard::{BatchOp, GroupReq, ShardedDb};
use ccopt::engine::{CcKind, DurabilityMode, Op, SessionError};
use ccopt::model::ids::VarId;
use ccopt::model::state::GlobalState;
use ccopt::model::value::Value;

const CC: CcKind = CcKind::Strict2pl;

/// Move `amount` from `from` to `to` in one transaction, sent as one
/// batch carrying its commit; returns the commit's outcome.
fn transfer(
    db: &mut ShardedDb,
    from: VarId,
    to: VarId,
    amount: i64,
) -> Result<Op<()>, SessionError> {
    let add = |var, c| BatchOp::Affine { var, a: 1, c };
    let req = GroupReq {
        h: db.begin(),
        ops: vec![add(from, -amount), add(to, amount)],
        commit: true,
    };
    let resp = db.submit_group(vec![req]).pop().expect("one response");
    let ran = resp.results?;
    assert!(
        ran.iter().all(|r| matches!(r, Op::Done(_))),
        "uncontended accesses proceed"
    );
    resp.commit.expect("an all-done run attempts its commit")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = ccopt::engine::durability::scratch_path("example-sharded");
    let init = GlobalState::from_ints(&[100; 16]);

    // Four shards, each its own thread, lock table and write-ahead log.
    let mut db = ShardedDb::open(CC, init.clone(), &dir, DurabilityMode::Strict, 4, 8)?;
    let a = VarId(0);
    let b = (1..16)
        .map(VarId)
        .find(|&v| db.partition().shard_of(v) != db.partition().shard_of(a))
        .expect("two shards own variables");
    println!(
        "16 variables over 4 shards; moving 30 from v{} (shard {}) to v{} (shard {})",
        a.0,
        db.partition().shard_of(a),
        b.0,
        db.partition().shard_of(b)
    );

    // A cross-shard transfer: commits atomically through two-phase commit.
    assert_eq!(transfer(&mut db, a, b, 30)?, Op::Done(()));
    println!(
        "after the transfer: v{} = {:?}, v{} = {:?} (cross-shard commits: {})",
        a.0,
        db.globals().0[a.index()],
        b.0,
        db.globals().0[b.index()],
        db.gauges(0).cross_shard_commits
    );

    // Crash the coordinator right after both shards voted yes but before
    // the decision is logged: the prepares are durable, the outcome is
    // not — both shards recover in doubt and must agree to roll back.
    db.crash_after_2pc_actions(2);
    let _ = transfer(&mut db, a, b, 999)?; // in memory it "commits" — durably it cannot
    drop(db); // the crash

    let mut db = ShardedDb::open(CC, init.clone(), &dir, DurabilityMode::Strict, 4, 8)?;
    let info = db.recovery_info().expect("logs recovered");
    println!(
        "crash between prepare and decision: recovery rolled back {} in-doubt vote(s); \
         v{} = {:?}, v{} = {:?}",
        info.in_doubt_aborted,
        a.0,
        db.globals().0[a.index()],
        b.0,
        db.globals().0[b.index()]
    );
    assert_eq!(db.globals().0[a.index()], Value::Int(70));
    assert_eq!(db.globals().0[b.index()], Value::Int(130));

    // Crash after the coordinator's decision instead: the participant's
    // resolve record is lost, but consultation re-derives COMMIT.
    db.crash_after_2pc_actions(3);
    let _ = transfer(&mut db, a, b, 30)?;
    drop(db); // crash with the participant resolve still buffered

    let mut db = ShardedDb::open(CC, init, &dir, DurabilityMode::Strict, 4, 8)?;
    let info = db.recovery_info().expect("logs recovered");
    println!(
        "crash after the decision: recovery consult-committed {} in-doubt vote(s); \
         v{} = {:?}, v{} = {:?}",
        info.in_doubt_committed,
        a.0,
        db.globals().0[a.index()],
        b.0,
        db.globals().0[b.index()]
    );
    assert_eq!(db.globals().0[a.index()], Value::Int(40));
    assert_eq!(db.globals().0[b.index()], Value::Int(160));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
