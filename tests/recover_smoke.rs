//! Tier-1 smoke of the two recovery paths, through the engine's public
//! fault-injection surface only.
//!
//! * **Durable recover** — a coordinator crash
//!   ([`ShardedDb::crash_after_2pc_actions`]) at every boundary of one
//!   cross-shard two-phase commit over strict logs: reopening leaves
//!   both shards agreeing, committed exactly when the coordinator's
//!   resolve record became durable, with the single-shard commits before
//!   it intact and nothing left in doubt for a third open.
//! * **Fault recovery** — a shard worker panic
//!   ([`ShardedDb::panic_shard`]) in the middle of a stream: the
//!   survivor keeps committing, the supervisor restarts the dead shard
//!   once, and both the live state and a reopen equal the acknowledged
//!   commits, no more and no less.
//!
//! * **Ownership** — the database owns its mechanism (a `CcKind`), so it
//!   is `Send`: built on one thread, supervised on a second (the respawn
//!   builds the replacement shard's mechanism from the owned kind, there
//!   being no caller-side factory to borrow), dropped on a third.
//!
//! One single-version and one multi-version mechanism each.
//! `crates/engine/src/shard/tests.rs` and `crates/sim/tests/{sharded,
//! faults,durability}.rs` hold the full sweeps; this is the thin slice
//! the Tier-1 command runs.

use ccopt::engine::durability::scratch_path;
use ccopt::engine::{
    BatchOp, CcKind, DurabilityMode, GlobalTxn, GroupReq, Op, SessionError, ShardedDb,
};
use ccopt::model::ids::VarId;
use ccopt::model::state::GlobalState;
use ccopt::model::value::Value;
use std::path::Path;

const NUM_VARS: usize = 8;
const MECHANISMS: [CcKind; 2] = [CcKind::Strict2pl, CcKind::Mvto];

fn open(kind: CcKind, dir: &Path) -> ShardedDb {
    let init = GlobalState::from_ints(&[0; NUM_VARS]);
    ShardedDb::open(kind, init, dir, DurabilityMode::Strict, 2, 0).expect("open the shard logs")
}

/// One variable per shard.
fn split_pair(db: &ShardedDb) -> (VarId, VarId) {
    let on = |shard| {
        (0..NUM_VARS as u32)
            .map(VarId)
            .find(|&v| db.partition().shard_of(v) == shard)
            .expect("both shards own variables")
    };
    (on(0), on(1))
}

/// Supervised restarts so far, as `metrics()` reports them, checked
/// against the per-shard health rows they must sum to.
fn restarts(db: &ShardedDb) -> usize {
    let total = db.metrics().shard_restarts;
    let per_shard: u64 = db.shard_statuses().iter().map(|st| st.restarts).sum();
    assert_eq!(total as u64, per_shard, "per-shard rows sum to it");
    total
}

/// One data operation as a one-op request, the wire's per-operation
/// shape.
fn step(db: &mut ShardedDb, h: GlobalTxn, op: BatchOp) -> Result<Op<Value>, SessionError> {
    let req = GroupReq {
        h,
        ops: vec![op],
        commit: false,
    };
    let resp = db.submit_group(vec![req]).pop().expect("one response");
    Ok(resp.results?.pop().expect("a one-op run has one outcome"))
}

/// Add one to each of `vars` in one transaction. `Ok` once it committed
/// (and retired); `Err` when a crashed shard failed it — the handle is
/// aborted, nothing of it may survive.
fn bump(db: &mut ShardedDb, vars: &[VarId]) -> Result<(), SessionError> {
    let h = db.begin();
    let gave_up = |db: &mut ShardedDb, e| {
        db.abort(h).expect("a failed handle aborts");
        Err(e)
    };
    'attempt: loop {
        for &var in vars {
            loop {
                match step(db, h, BatchOp::Affine { var, a: 1, c: 1 }) {
                    Ok(Op::Done(_)) => break,
                    Ok(Op::Wait) => {}
                    Ok(Op::Restarted) => continue 'attempt,
                    Err(e) => return gave_up(db, e),
                }
            }
        }
        loop {
            match db.commit(h) {
                Ok(Op::Done(())) => {
                    db.retire(h).expect("committed handles retire");
                    return Ok(());
                }
                Ok(Op::Wait) => {}
                Ok(Op::Restarted) => continue 'attempt,
                Err(e) => return gave_up(db, e),
            }
        }
    }
}

fn ints(db: &mut ShardedDb) -> Vec<i64> {
    let state = db.globals();
    state.0.iter().map(|v| v.as_int().unwrap()).collect()
}

#[test]
fn coordinator_crash_at_every_2pc_boundary_recovers_all_or_nothing() {
    for kind in MECHANISMS {
        let name = kind.name();
        // One cross-shard commit over two shards is three durable
        // actions — prepare@0, prepare@1, resolve@coordinator. Budget `n`
        // kills every log before action `n`; budget 3 lets the protocol
        // finish but the un-synced drop still loses the participant's
        // buffered resolve, which recovery must re-derive as a commit.
        for budget in 0..=3u64 {
            let dir = scratch_path(&format!("recover-smoke-2pc-{name}-{budget}"));
            let _ = std::fs::remove_dir_all(&dir);
            let mut db = open(kind, &dir);
            let (a, b) = split_pair(&db);
            bump(&mut db, &[a]).unwrap();
            bump(&mut db, &[b]).unwrap();
            db.crash_after_2pc_actions(budget);
            // In memory the commit always succeeds; how much of it is
            // durable is what the budget caps.
            bump(&mut db, &[a, b]).unwrap();
            drop(db); // the crash

            let mut db = open(kind, &dir);
            let mut expect = vec![0i64; NUM_VARS];
            let both = if budget >= 3 { 2 } else { 1 };
            (expect[a.index()], expect[b.index()]) = (both, both);
            assert_eq!(ints(&mut db), expect, "{name}, budget {budget}");
            let info = db.recovery_info().expect("logs were recovered");
            assert_eq!(
                info.in_doubt_committed,
                u64::from(budget >= 3),
                "{name}, budget {budget}"
            );
            // The stream resumes, cross-shard included.
            bump(&mut db, &[a, b]).unwrap();
            db.sync().unwrap();
            drop(db);

            let mut db = open(kind, &dir);
            let info = db.recovery_info().expect("logs were recovered");
            assert_eq!(
                (info.in_doubt_committed, info.in_doubt_aborted),
                (0, 0),
                "{name}, budget {budget}: every vote was settled exactly once"
            );
            expect[a.index()] += 1;
            expect[b.index()] += 1;
            assert_eq!(ints(&mut db), expect, "{name}, budget {budget}");
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn shard_panic_mid_stream_is_supervised_and_recovers_the_committed_prefix() {
    for kind in MECHANISMS {
        let name = kind.name();
        let dir = scratch_path(&format!("recover-smoke-panic-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = open(kind, &dir);
        let (a, b) = split_pair(&db);
        let mut expect = vec![0i64; NUM_VARS];
        let mut failed = 0;
        for i in 0..12 {
            if i == 6 {
                db.panic_shard(1);
            }
            let vars: &[VarId] = match i % 3 {
                0 => &[a],
                1 => &[b],
                _ => &[a, b],
            };
            match bump(&mut db, vars) {
                Ok(()) => vars.iter().for_each(|v| expect[v.index()] += 1),
                // The first transaction to touch the dead shard finds it:
                // supervision fails that one and restarts the shard.
                Err(SessionError::ShardDown) => failed += 1,
                Err(e) => panic!("{name}: unexpected {e}"),
            }
        }
        assert_eq!(failed, 1, "{name}: one transaction met the dead shard");
        assert_eq!(restarts(&db), 1, "{name}");
        assert_eq!(db.metrics().commits, 11, "{name}: everyone else committed");
        assert_eq!(
            ints(&mut db),
            expect,
            "{name}: live state = acknowledged commits"
        );
        drop(db); // strict logs: every acknowledged commit is durable
        let mut db = open(kind, &dir);
        assert_eq!(
            ints(&mut db),
            expect,
            "{name}: reopen = acknowledged commits"
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn engine_moves_between_threads() {
    use std::thread;
    let dir = scratch_path("recover-smoke-moves");
    let _ = std::fs::remove_dir_all(&dir);
    let log_dir = dir.clone();

    // Thread A builds it, commits once, and leaves a cross-shard
    // transaction written but not committed.
    let built = move || {
        let mut db = open(CcKind::Strict2pl, &log_dir);
        let (a, b) = split_pair(&db);
        bump(&mut db, &[a, b]).unwrap();
        let h = db.begin();
        for var in [a, b] {
            let wrote = step(&mut db, h, BatchOp::Write(var, Value::Int(40)));
            assert_eq!(wrote, Ok(Op::Done(Value::Int(1))));
        }
        (db, h, a, b)
    };
    let (mut db, h, a, b) = thread::spawn(built).join().unwrap();

    // Thread B loses a shard: its next call supervises — the respawn is
    // built here, from the kind the database carries — failing the open
    // transaction; its successor commits on both shards.
    let supervised = move || {
        db.panic_shard(1);
        assert_eq!(db.commit(h), Err(SessionError::ShardDown));
        db.abort(h).unwrap();
        assert_eq!(restarts(&db), 1);
        bump(&mut db, &[a, b]).unwrap();
        db
    };
    let db = thread::spawn(supervised).join().unwrap();

    // Thread C drops it, which joins both shard workers and closes
    // their logs without a final sync.
    thread::spawn(move || drop(db)).join().unwrap();

    let mut db = open(CcKind::Strict2pl, &dir);
    let mut expect = vec![0i64; NUM_VARS];
    (expect[a.index()], expect[b.index()]) = (2, 2);
    assert_eq!(
        ints(&mut db),
        expect,
        "reopen = the two acknowledged commits"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
