//! Abort/wait attribution, mechanism by mechanism.
//!
//! Each test scripts a minimal two-transaction conflict against one of
//! the seven mechanisms and asserts the *exact* attribution — rule,
//! contended variable, opponent — through every surface at once: the
//! `Op` verdict, `Metrics::aborts_for`, the per-variable contention
//! table ([`SessionDb::contention`]), and the flight-recorder event the
//! decision emitted.

use ccopt_engine::cc::{Cc, MvtoCc, OccCc, SerialCc, SgtCc, SiCc, Strict2plCc, TimestampCc};
use ccopt_engine::trace::EventKind;
use ccopt_engine::{ConflictRule, Op, SessionDb, TraceConfig, TraceHub};
use ccopt_model::{GlobalState, Value, VarId};

fn v(i: u32) -> VarId {
    VarId(i)
}

fn int(i: i64) -> Value {
    Value::Int(i)
}

/// A traced database over `init` integers: the ring captures every
/// lifecycle event for the assertions below.
fn traced_db(cc: Cc, init: &[i64]) -> (SessionDb, TraceHub) {
    let hub = TraceHub::new(&TraceConfig::ring(256)).expect("ring-only hub");
    let mut db = SessionDb::new(cc, GlobalState::from_ints(init));
    db.set_tracer(hub.tracer(0));
    (db, hub)
}

/// The single `Abort` event in the trace (panics when there is none or
/// more than one), as `(txn, rule, var, opponent)`.
fn the_abort(hub: &TraceHub) -> (u64, ConflictRule, Option<u32>, Option<u64>) {
    let aborts: Vec<_> = hub
        .merged_events()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::Abort {
                txn,
                rule,
                var,
                opponent,
            } => Some((txn, rule, var, opponent)),
            _ => None,
        })
        .collect();
    assert_eq!(aborts.len(), 1, "expected exactly one abort: {aborts:?}");
    aborts[0]
}

/// All `Wait` events, as `(txn, rule, var, opponent)`.
fn waits(hub: &TraceHub) -> Vec<(u64, ConflictRule, Option<u32>, Option<u64>)> {
    hub.merged_events()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::Wait {
                txn,
                rule,
                var,
                opponent,
            } => Some((txn, rule, var, opponent)),
            _ => None,
        })
        .collect()
}

#[test]
fn serial_attributes_lock_wait_and_never_aborts() {
    let (mut db, hub) = traced_db(Cc::Serial(SerialCc::default()), &[0, 0]);
    let t1 = db.begin(); // gsn 0: takes the token at its first step
    let t2 = db.begin(); // gsn 1
    assert_eq!(db.write(t1, v(0), int(1)), Ok(Op::Done(int(0))));
    assert_eq!(db.read(t2, v(1)), Ok(Op::Wait));

    assert_eq!(db.metrics.waits, 1);
    assert_eq!(db.contention(v(1)), (1, 0));
    assert_eq!(db.metrics.aborts, 0);
    assert_eq!(
        waits(&hub),
        vec![(1, ConflictRule::LockWait, Some(1), Some(0))]
    );

    // The token transfers at commit: the waiter proceeds afterwards.
    assert_eq!(db.commit(t1), Ok(Op::Done(())));
    db.retire(t1).unwrap();
    assert_eq!(db.read(t2, v(1)), Ok(Op::Done(int(0))));
}

#[test]
fn two_pl_attributes_deadlock_victim_variable_and_opponent() {
    let (mut db, hub) = traced_db(Cc::Strict2pl(Strict2plCc::default()), &[0, 0]);
    let t1 = db.begin(); // gsn 0
    let t2 = db.begin(); // gsn 1
    assert_eq!(db.write(t1, v(0), int(1)), Ok(Op::Done(int(0))));
    assert_eq!(db.write(t2, v(1), int(1)), Ok(Op::Done(int(0))));
    // t1 queues behind t2 on var 1 ...
    assert_eq!(db.write(t1, v(1), int(2)), Ok(Op::Wait));
    // ... so t2's request for var 0 closes the cycle: t2 is the victim,
    // the contended variable is 0, the opponent is t1.
    assert_eq!(db.write(t2, v(0), int(2)), Ok(Op::Restarted));

    assert_eq!(db.metrics.aborts_for(ConflictRule::Deadlock), 1);
    assert_eq!(db.contention(v(0)), (0, 1)); // the deadlock variable
    assert_eq!(db.contention(v(1)), (1, 0)); // the lock-wait variable
    assert_eq!(
        waits(&hub),
        vec![(0, ConflictRule::LockWait, Some(1), Some(1))]
    );
    assert_eq!(
        the_abort(&hub),
        (1, ConflictRule::Deadlock, Some(0), Some(0))
    );
}

#[test]
fn sgt_attributes_the_cycle_closing_variable() {
    let (mut db, hub) = traced_db(Cc::Sgt(SgtCc::default()), &[0, 0]);
    let t1 = db.begin(); // gsn 0
    let t2 = db.begin(); // gsn 1
    assert_eq!(db.read(t1, v(0)), Ok(Op::Done(int(0)))); // edge source
    assert_eq!(db.write(t2, v(0), int(1)), Ok(Op::Done(int(0)))); // t1 -> t2
    assert_eq!(db.read(t2, v(1)), Ok(Op::Done(int(0))));
    // t1's write on var 1 would add t2 -> t1, closing the cycle.
    assert_eq!(db.write(t1, v(1), int(1)), Ok(Op::Restarted));

    assert_eq!(db.metrics.aborts_for(ConflictRule::SgtCycle), 1);
    assert_eq!(db.contention(v(1)), (0, 1));
    assert_eq!(
        the_abort(&hub),
        (0, ConflictRule::SgtCycle, Some(1), Some(1))
    );
}

#[test]
fn timestamp_attributes_late_reads_and_late_writes() {
    let (mut db, hub) = traced_db(Cc::Timestamp(TimestampCc::default()), &[0, 0]);
    // A younger writer commits var 0 first: the older reader is too late.
    let t1 = db.begin(); // gsn 0, ts 1
    let t2 = db.begin(); // gsn 1, ts 2
    assert_eq!(db.write(t2, v(0), int(1)), Ok(Op::Done(int(0))));
    assert_eq!(db.commit(t2), Ok(Op::Done(())));
    db.retire(t2).unwrap();
    assert_eq!(db.read(t1, v(0)), Ok(Op::Restarted));

    assert_eq!(db.metrics.aborts_for(ConflictRule::ReadTooLate), 1);
    assert_eq!(db.contention(v(0)), (0, 1));
    // The stamping writer already committed, so no opponent survives.
    assert_eq!(
        the_abort(&hub),
        (0, ConflictRule::ReadTooLate, Some(0), None)
    );

    // And the dual: a younger committed reader of var 1 dooms an older
    // writer (t1 restarted above, so a fresh pair scripts this).
    let t3 = db.begin();
    let t4 = db.begin();
    assert_eq!(db.read(t4, v(1)), Ok(Op::Done(int(0))));
    assert_eq!(db.commit(t4), Ok(Op::Done(())));
    db.retire(t4).unwrap();
    assert_eq!(db.write(t3, v(1), int(1)), Ok(Op::Restarted));
    assert_eq!(db.metrics.aborts_for(ConflictRule::WriteTooLate), 1);
    assert_eq!(db.contention(v(1)), (0, 1));
}

#[test]
fn occ_attributes_validation_to_the_intersecting_committer() {
    let (mut db, hub) = traced_db(Cc::Occ(OccCc::default()), &[0, 0]);
    let t1 = db.begin(); // gsn 0
    assert_eq!(db.read(t1, v(0)), Ok(Op::Done(int(0))));
    let t2 = db.begin(); // gsn 1
    assert_eq!(db.write(t2, v(0), int(1)), Ok(Op::Done(int(0))));
    assert_eq!(db.commit(t2), Ok(Op::Done(())));
    // Backward validation: t1's read set intersects t2's committed
    // write set on var 0.
    assert_eq!(db.commit(t1), Ok(Op::Restarted));

    assert_eq!(db.metrics.aborts_for(ConflictRule::OccValidation), 1);
    assert_eq!(db.contention(v(0)), (0, 1));
    assert_eq!(
        the_abort(&hub),
        (0, ConflictRule::OccValidation, Some(0), Some(1))
    );
}

#[test]
fn mvto_attributes_late_writes_and_pending_write_waits() {
    let (mut db, hub) = traced_db(Cc::Mvto(MvtoCc::default()), &[0, 0]);
    // A younger transaction commits a version of var 0; an older write
    // can no longer be installed below it.
    let t1 = db.begin(); // gsn 0, ts 1
    let t2 = db.begin(); // gsn 1, ts 2
    assert_eq!(db.write(t2, v(0), int(1)), Ok(Op::Done(int(0))));
    assert_eq!(db.commit(t2), Ok(Op::Done(())));
    assert_eq!(db.write(t1, v(0), int(2)), Ok(Op::Restarted));

    assert_eq!(db.metrics.aborts_for(ConflictRule::MvWriteTooLate), 1);
    assert_eq!(db.contention(v(0)), (0, 1));
    assert_eq!(
        the_abort(&hub),
        (0, ConflictRule::MvWriteTooLate, Some(0), Some(1))
    );

    // The commit dependency surfaces as a wait: a younger access of a
    // variable with an older pending (buffered) write blocks on it.
    let t3 = db.begin();
    let t4 = db.begin();
    assert_eq!(db.write(t3, v(1), int(1)), Ok(Op::Done(int(0))));
    assert_eq!(db.read(t4, v(1)), Ok(Op::Wait));
    let w = waits(&hub);
    let last = *w.last().expect("the pending-write wait was traced");
    assert_eq!(last.1, ConflictRule::MvPendingWait);
    assert_eq!(last.2, Some(1));
    assert_eq!(db.contention(v(1)).0, 1);
}

#[test]
fn si_attributes_first_updater_at_the_write_step() {
    let (mut db, hub) = traced_db(Cc::Si(SiCc::default()), &[0]);
    let t1 = db.begin(); // gsn 0, snapshot 0
    let t2 = db.begin(); // gsn 1, snapshot 0
    assert_eq!(db.write(t2, v(0), int(1)), Ok(Op::Done(int(0))));
    assert_eq!(db.commit(t2), Ok(Op::Done(())));
    // Var 0 gained a committed version after t1's snapshot: the write
    // step aborts early (first-updater-wins).
    assert_eq!(db.write(t1, v(0), int(2)), Ok(Op::Restarted));

    assert_eq!(db.metrics.aborts_for(ConflictRule::SiFirstUpdater), 1);
    assert_eq!(db.contention(v(0)), (0, 1));
    assert_eq!(
        the_abort(&hub),
        (0, ConflictRule::SiFirstUpdater, Some(0), Some(1))
    );
}

#[test]
fn si_attributes_first_committer_at_commit() {
    let (mut db, hub) = traced_db(Cc::Si(SiCc::default()), &[0]);
    let t1 = db.begin(); // gsn 0
    let t2 = db.begin(); // gsn 1
                         // Both buffer a write on var 0 (SI defers writes, so neither step
                         // conflicts yet); the second committer loses validation.
    assert_eq!(db.write(t1, v(0), int(1)), Ok(Op::Done(int(0))));
    assert_eq!(db.write(t2, v(0), int(2)), Ok(Op::Done(int(0))));
    assert_eq!(db.commit(t2), Ok(Op::Done(())));
    assert_eq!(db.commit(t1), Ok(Op::Restarted));

    assert_eq!(db.metrics.aborts_for(ConflictRule::SiFirstCommitter), 1);
    assert_eq!(db.contention(v(0)), (0, 1));
    assert_eq!(
        the_abort(&hub),
        (0, ConflictRule::SiFirstCommitter, Some(0), Some(1))
    );
}

#[test]
fn attribution_rows_sum_to_the_abort_counter() {
    // Drive a contended 2PL workload and check the ledger invariant the
    // sim reports rely on: per-rule rows account for every abort.
    let (mut db, _hub) = traced_db(Cc::Strict2pl(Strict2plCc::default()), &[0, 0, 0]);
    let mut handles = Vec::new();
    for _ in 0..3 {
        handles.push(db.begin());
    }
    for round in 0..20u32 {
        for (i, &h) in handles.iter().enumerate() {
            let var = v((round as usize + i) as u32 % 3);
            match db.write(h, var, int(round as i64)) {
                Ok(Op::Done(_)) | Ok(Op::Wait) | Ok(Op::Restarted) => {}
                Err(e) => panic!("unexpected session error: {e}"),
            }
        }
    }
    let attributed: usize = db.metrics.aborts_by_rule.iter().sum();
    assert_eq!(attributed, db.metrics.aborts);
}
