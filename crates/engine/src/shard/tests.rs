use super::*;
use crate::session::Op;
use ccopt_durability::{Fault, RetryPolicy, StorageFaults};
use ccopt_model::ids::VarId;
use BatchOp::{Affine, Read, Write};

/// Hooks only these tests need, kept off the production type.
impl ShardedDb {
    /// Set the transient-I/O retry policy on every shard's log.
    fn set_retry_policy(&mut self, retry: RetryPolicy) {
        gather(
            &self.workers,
            None,
            (0..self.workers.len()).map(|s| (s, move |db: &mut SessionDb| db.wal_set_retry(retry))),
        );
    }

    /// One data operation as a one-op request, the wire's per-operation
    /// shape: its single outcome, or what refused it.
    fn step(&mut self, h: GlobalTxn, op: BatchOp) -> Result<Op<Value>, SessionError> {
        let req = GroupReq {
            h,
            ops: vec![op],
            commit: false,
        };
        let resp = self
            .submit_group(vec![req])
            .pop()
            .expect("one request, one response");
        Ok(resp.results?.pop().expect("a one-op run has one outcome"))
    }
}

fn v(i: u32) -> VarId {
    VarId(i)
}

fn int(i: i64) -> Value {
    Value::Int(i)
}

/// Two global variables guaranteed to live on different shards.
fn split_pair(db: &ShardedDb) -> (VarId, VarId) {
    let a = v(0);
    let b = (1..db.partition().num_vars() as u32)
        .map(v)
        .find(|&x| db.partition().shard_of(x) != db.partition().shard_of(a))
        .expect("at least two shards own variables");
    (a, b)
}

/// Supervised restarts so far, as [`ShardedDb::metrics`] reports them,
/// checked against the per-shard health rows they must sum to.
fn restarts(db: &ShardedDb) -> usize {
    let total = db.metrics().shard_restarts;
    let per_shard: u64 = db.shard_statuses().iter().map(|st| st.restarts).sum();
    assert_eq!(total as u64, per_shard, "per-shard rows sum to it");
    total
}

/// A handle the supervisor failed answers `ShardDown` to every operation
/// (`var` is any variable) until the client aborts it, which retires it.
fn abort_failed(db: &mut ShardedDb, h: GlobalTxn, var: VarId) {
    assert_eq!(db.step(h, Read(var)), Err(SessionError::ShardDown));
    assert_eq!(db.abort(h), Ok(()));
    assert_eq!(db.step(h, Read(var)), Err(SessionError::Stale));
}

/// Drive one update-commit-retire transaction over `vars`.
fn bump(db: &mut ShardedDb, vars: &[VarId]) {
    let h = db.begin();
    let run = |db: &mut ShardedDb| {
        for &var in vars {
            let inc = Affine { var, a: 1, c: 1 };
            while !matches!(db.step(h, inc).unwrap(), Op::Done(_)) {}
        }
    };
    run(db);
    loop {
        match db.commit(h).unwrap() {
            Op::Done(()) => break,
            Op::Wait => {}
            Op::Restarted => run(db),
        }
    }
    db.retire(h).unwrap();
}

#[test]
fn partition_covers_every_variable_exactly_once() {
    for shards in [1usize, 2, 3, 8] {
        let p = Partition::new(37, shards);
        let mut seen = [false; 37];
        for s in 0..shards {
            for (i, &gv) in p.shard_vars(s).iter().enumerate() {
                assert_eq!(p.shard_of(gv), s);
                assert_eq!(p.local(gv).index(), i);
                assert!(!seen[gv.index()], "variable owned twice");
                seen[gv.index()] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "every variable must be owned");
    }
}

#[test]
fn single_and_cross_shard_lifecycle() {
    let mut db = ShardedDb::new(CcKind::Strict2pl, GlobalState::from_ints(&[10; 8]), 3);
    let (a, b) = split_pair(&db);
    // Cross-shard read-your-writes and 2PC commit.
    let h = db.begin();
    assert_eq!(
        db.step(h, Affine { var: a, a: 1, c: 1 }).unwrap(),
        Op::Done(int(10))
    );
    assert_eq!(db.step(h, Write(b, int(77))).unwrap(), Op::Done(int(10)));
    assert_eq!(db.step(h, Read(a)).unwrap(), Op::Done(int(11)));
    assert_eq!(db.commit(h).unwrap(), Op::Done(()));
    assert_eq!(db.step(h, Read(a)), Err(SessionError::AlreadyCommitted));
    db.retire(h).unwrap();
    assert_eq!(db.step(h, Read(a)), Err(SessionError::Stale));
    let g = db.globals();
    assert_eq!(g.0[a.index()], int(11));
    assert_eq!(g.0[b.index()], int(77));
    assert_eq!(db.gauges(0).cross_shard_commits, 1);
    assert!(db.decided.is_empty(), "no logs: no decision is recorded");
    // Single-shard transactions stay on the fast path.
    bump(&mut db, &[a]);
    assert_eq!(db.gauges(0).cross_shard_commits, 1);
    assert_eq!(db.metrics().commits, 2);
}

/// Each shard's slot count (a dead shard answers nothing).
fn slots_by_shard(db: &ShardedDb) -> Vec<usize> {
    let ask = |db: &mut SessionDb| db.num_slots();
    let replies = gather(&db.workers, None, (0..db.workers.len()).map(|s| (s, ask)));
    replies.into_iter().filter_map(|(_, r)| r.ok()).collect()
}

/// The gauges as the five per-figure readers `gauges` replaced computed
/// them, one walk over the shards per figure: the reference the one-walk
/// snapshot must match.
fn gauges_figure_by_figure(db: &ShardedDb, top: usize) -> ShardedGauges {
    let shards = || 0..db.workers.len();
    let hist = |db: &mut SessionDb| db.commit_latency_ticks().clone();
    let mut commit_latency_ticks = Histogram::new();
    for (_, h) in gather(&db.workers, None, shards().map(|s| (s, hist))) {
        if let Ok(h) = h {
            commit_latency_ticks.merge(&h);
        }
    }
    let rows = move |db: &mut SessionDb| db.top_contended(top);
    let mut top_contended: Vec<VarContention> =
        gather(&db.workers, None, shards().map(|s| (s, rows)))
            .into_iter()
            .flat_map(|(s, rows)| {
                let owned = db.partition.shard_vars(s);
                rows.unwrap_or_default().into_iter().map(|r| VarContention {
                    var: owned[r.var.index()],
                    ..r
                })
            })
            .collect();
    top_contended.sort_by_key(|r| (std::cmp::Reverse(r.total()), r.var.0));
    top_contended.truncate(top);
    ShardedGauges {
        num_slots: slots_by_shard(db).iter().sum(),
        commit_latency_ticks,
        top_contended,
        cross_shard_commits: db.cross_commits,
        last_recovery_replayed: db.last_recovery_replayed,
    }
}

#[test]
fn gauges_read_in_one_walk_what_the_per_figure_readers_read() {
    let mut db = ShardedDb::new(CcKind::Strict2pl, GlobalState::from_ints(&[0; 12]), 3);
    let (a, b) = split_pair(&db);
    for i in 0..12 {
        if i % 4 == 0 {
            bump(&mut db, &[a, b]); // cross-shard
        } else {
            bump(&mut db, &[v(i)]);
        }
    }
    // Lock waits for the contention table: variable `x` is waited on
    // `x + 1` times, so the ranking has no ties to break.
    for x in 0..6 {
        let holder = db.begin();
        let wrote = db.step(holder, Write(v(x), int(-1))).unwrap();
        assert!(matches!(wrote, Op::Done(_)));
        let waiter = db.begin();
        for _ in 0..=x {
            assert_eq!(db.step(waiter, Read(v(x))).unwrap(), Op::Wait);
        }
        assert_eq!(db.commit(holder).unwrap(), Op::Done(()));
        db.retire(holder).unwrap();
        assert_eq!(db.step(waiter, Read(v(x))).unwrap(), Op::Done(int(-1)));
        assert_eq!(db.commit(waiter).unwrap(), Op::Done(()));
        db.retire(waiter).unwrap();
    }
    let g = db.gauges(4);
    assert_eq!(g, gauges_figure_by_figure(&db, 4));
    assert_eq!(g.cross_shard_commits, 3);
    let ranked: Vec<(u32, usize)> = g.top_contended.iter().map(|r| (r.var.0, r.waits)).collect();
    assert_eq!(ranked, [(5, 6), (4, 5), (3, 4), (2, 3)]);
    // One sample per shard a commit landed on: 21 local, 3 cross x 2.
    assert_eq!(g.commit_latency_ticks.count(), 27);
    assert_eq!(g.last_recovery_replayed, None);
    // A supervised restart replaces shard 1 with a fresh `SessionDb`: its
    // slot count starts again, so the sum is no longer the peak.
    let before = slots_by_shard(&db);
    assert!(before[1] > 0);
    db.panic_shard(1);
    assert_eq!(db.check_shards(), 1);
    let g = db.gauges(4);
    assert_eq!(g, gauges_figure_by_figure(&db, 4));
    assert_eq!(
        g.last_recovery_replayed,
        Some(0),
        "a volatile shard respawns empty"
    );
    let after = slots_by_shard(&db);
    assert_eq!((after[0], after[1], after[2]), (before[0], 0, before[2]));
    assert!(g.num_slots < before.iter().sum());
}

#[test]
fn stale_handles_are_rejected() {
    let mut db = ShardedDb::new(CcKind::Strict2pl, GlobalState::from_ints(&[0; 4]), 2);
    let h = db.begin();
    let _ = db.step(h, Write(v(0), int(1))).unwrap();
    assert_eq!(db.commit(h).unwrap(), Op::Done(()));
    db.retire(h).unwrap();
    let h2 = db.begin(); // recycles the slot under a new epoch
    assert_ne!(h, h2);
    assert_eq!(db.step(h, Read(v(0))), Err(SessionError::Stale));
    assert_eq!(db.commit(h), Err(SessionError::Stale));
    db.abort(h2).unwrap();
}

#[test]
fn streams_recycle_slots_across_all_shards() {
    let mut db = ShardedDb::new(CcKind::Strict2pl, GlobalState::from_ints(&[0; 16]), 4);
    let before = db.metrics().snapshot();
    let (a, b) = split_pair(&db);
    for i in 0..60 {
        if i % 3 == 0 {
            bump(&mut db, &[a, b]); // cross-shard
        } else {
            bump(&mut db, &[v(i % 16)]);
        }
    }
    let d = db.metrics().diff(&before);
    assert_eq!((d.commits, d.retires), (60, 60));
    assert!(
        db.gauges(0).num_slots <= 2 * db.partition().shards(),
        "sequential streams must recycle shard slots (got {})",
        db.gauges(0).num_slots
    );
}

#[test]
fn a_handle_repeated_in_one_group_runs_after_the_packed_messages() {
    let inc = Affine {
        var: v(0),
        a: 1,
        c: 1,
    };
    let req = |h, commit| GroupReq {
        h,
        ops: vec![inc],
        commit,
    };
    let mut db = ShardedDb::new(CcKind::Strict2pl, GlobalState::from_ints(&[0; 4]), 1);
    // Committed by its first request: the repeat finds the handle dead.
    let h = db.begin();
    let resps = db.submit_group(vec![req(h, true), req(h, false)]);
    assert_eq!(resps[0].results, Ok(vec![Op::Done(int(0))]));
    assert_eq!(resps[0].commit, Some(Ok(Op::Done(()))));
    assert_eq!(resps[1].results, Err(SessionError::Stale));
    assert_eq!(resps[1].commit, None);
    // Committed by its repeat, which runs behind its own first request.
    let h = db.begin();
    let resps = db.submit_group(vec![req(h, false), req(h, true)]);
    assert_eq!(resps[0].results, Ok(vec![Op::Done(int(1))]));
    assert_eq!(resps[1].results, Ok(vec![Op::Done(int(2))]));
    assert_eq!(resps[1].commit, Some(Ok(Op::Done(()))));
    // The coordinator is whole: every slot is free again.
    assert_eq!(db.open_sessions(), 0);
    let h = db.begin();
    assert_eq!(db.step(h, Read(v(0))), Ok(Op::Done(int(3))));
    db.abort(h).unwrap();
    let m = db.metrics();
    assert_eq!((m.commits, m.aborts, m.waits), (2, 1, 0));
}

#[test]
fn cross_shard_deadlock_is_broken_by_the_restart_valve() {
    // Serial CC: each shard is one token. Two transactions take one
    // token each, then want the other: both Wait forever — no local
    // detector can see the cycle. The valve (client restart) breaks it.
    let mut db = ShardedDb::new(CcKind::Serial, GlobalState::from_ints(&[0; 8]), 2);
    let (a, b) = split_pair(&db);
    let t1 = db.begin();
    let t2 = db.begin();
    assert_eq!(db.step(t1, Write(a, int(1))).unwrap(), Op::Done(int(0)));
    assert_eq!(db.step(t2, Write(b, int(2))).unwrap(), Op::Done(int(0)));
    assert_eq!(db.step(t1, Write(b, int(3))).unwrap(), Op::Wait);
    assert_eq!(db.step(t2, Write(a, int(4))).unwrap(), Op::Wait);
    // Still deadlocked on retry.
    assert_eq!(db.step(t1, Write(b, int(3))).unwrap(), Op::Wait);
    db.restart(t2).unwrap(); // the valve fires
    assert_eq!(db.attempts(t2), Ok(2));
    // t1 now runs to completion, then t2's replay does.
    assert_eq!(db.step(t1, Write(b, int(3))).unwrap(), Op::Done(int(0)));
    assert_eq!(db.commit(t1).unwrap(), Op::Done(()));
    db.retire(t1).unwrap();
    assert_eq!(db.step(t2, Write(b, int(2))).unwrap(), Op::Done(int(3)));
    assert_eq!(db.step(t2, Write(a, int(4))).unwrap(), Op::Done(int(1)));
    assert_eq!(db.commit(t2).unwrap(), Op::Done(()));
    db.retire(t2).unwrap();
    let g = db.globals();
    assert_eq!((g.0[a.index()], g.0[b.index()]), (int(4), int(2)));
}

#[test]
fn global_timestamps_serialize_timestamp_mechanisms_across_shards() {
    // The T/O write-skew shape that per-shard local clocks would
    // admit: t1 reads a (shard A) and writes b (shard B); t2 reads b
    // and writes a. With one global stamp order, some late access
    // aborts — both can never commit on opposite per-shard orders.
    for kind in [CcKind::Timestamp, CcKind::Mvto] {
        let mut db = ShardedDb::new(kind, GlobalState::from_ints(&[0; 8]), 2);
        let (a, b) = split_pair(&db);
        let t1 = db.begin(); // gts 1
        let t2 = db.begin(); // gts 2
        assert_eq!(db.step(t1, Read(a)).unwrap(), Op::Done(int(0)));
        assert_eq!(db.step(t2, Read(b)).unwrap(), Op::Done(int(0)));
        // t2 (younger) writes a: fine. t1 (older) writing b after
        // t2... wait: t2 read b at stamp 2, t1 writes b at stamp 1 —
        // late, restarts.
        let r2 = db.step(t2, Write(a, int(9))).unwrap();
        assert!(matches!(r2, Op::Done(_) | Op::Wait), "got {r2:?}");
        assert_eq!(db.step(t1, Write(b, int(9))).unwrap(), Op::Restarted);
        db.abort(t1).unwrap();
        db.abort(t2).unwrap();
    }
}

#[test]
fn durable_cross_shard_commits_survive_crashes_at_every_2pc_boundary() {
    // One cross-shard transaction over 2 shards = 3 durable 2PC
    // actions: prepare@A, prepare@B, resolve@coordinator. Kill every
    // shard log before action n for every n; recovery must leave all
    // shards agreeing: committed iff the coordinator's resolve (action
    // 2) became durable. Budget 3 = no crash during 2PC, but the drop
    // without sync still loses the buffered participant resolve — the
    // in-doubt-consultation path that must *commit*.
    for budget in 0..=3u64 {
        let dir = ccopt_durability::scratch_path(&format!("shard-2pc-{budget}"));
        let committed_expected = budget >= 3;
        {
            let mut db = ShardedDb::open(
                CcKind::Strict2pl,
                GlobalState::from_ints(&[0; 8]),
                &dir,
                DurabilityMode::Strict,
                2,
                0,
            )
            .unwrap();
            let (a, b) = split_pair(&db);
            db.crash_after_2pc_actions(budget);
            let h = db.begin();
            assert_eq!(db.step(h, Write(a, int(5))).unwrap(), Op::Done(int(0)));
            assert_eq!(db.step(h, Write(b, int(6))).unwrap(), Op::Done(int(0)));
            // In-memory the commit always succeeds; durability of the
            // outcome is what the budget caps.
            assert_eq!(db.commit(h).unwrap(), Op::Done(()));
        } // crash (drop without sync)
        let mut db = ShardedDb::open(
            CcKind::Strict2pl,
            GlobalState::from_ints(&[0; 8]),
            &dir,
            DurabilityMode::Strict,
            2,
            0,
        )
        .unwrap();
        let (a, b) = split_pair(&db);
        let info = db.recovery_info().expect("logs were recovered");
        let g = db.globals();
        let pair = (g.0[a.index()], g.0[b.index()]);
        if committed_expected {
            assert_eq!(pair, (int(5), int(6)), "budget {budget}: must commit");
            assert_eq!(
                info.in_doubt_committed, 1,
                "budget {budget}: the participant was in doubt and must consult-commit"
            );
        } else {
            assert_eq!(pair, (int(0), int(0)), "budget {budget}: must abort");
            assert_eq!(info.in_doubt_committed, 0, "budget {budget}");
        }
        assert!(
            info.in_doubt_aborted + info.in_doubt_committed <= 2,
            "budget {budget}: at most one in-doubt vote per shard"
        );
        // The settlements were written back: a third open re-asks
        // nothing.
        drop(db);
        let db = ShardedDb::open(
            CcKind::Strict2pl,
            GlobalState::from_ints(&[0; 8]),
            &dir,
            DurabilityMode::Strict,
            2,
            0,
        )
        .unwrap();
        let info = db.recovery_info().unwrap();
        assert_eq!(
            (info.in_doubt_committed, info.in_doubt_aborted),
            (0, 0),
            "budget {budget}: settlements must be decided exactly once"
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn durable_sharded_stream_recovers_and_checkpoints() {
    let dir = ccopt_durability::scratch_path("shard-stream");
    {
        let mut db = ShardedDb::open(
            CcKind::Strict2pl,
            GlobalState::from_ints(&[0; 12]),
            &dir,
            DurabilityMode::Strict,
            3,
            0,
        )
        .unwrap();
        let (a, b) = split_pair(&db);
        for i in 0..12 {
            if i % 4 == 0 {
                bump(&mut db, &[a, b]);
            } else {
                bump(&mut db, &[v(i % 12)]);
            }
        }
        db.checkpoint().unwrap();
        bump(&mut db, &[a, b]); // one cross-shard commit on top
    } // crash
    let mut db = ShardedDb::open(
        CcKind::Strict2pl,
        GlobalState::from_ints(&[0; 12]),
        &dir,
        DurabilityMode::Strict,
        3,
        0,
    )
    .unwrap();
    let (a, b) = split_pair(&db);
    let g = db.globals();
    // a and b: 3 cross bumps + their single-shard bumps + 1 post-ckpt.
    let expect = {
        let mut e = vec![0i64; 12];
        for i in 0..12usize {
            if i % 4 == 0 {
                e[a.index()] += 1;
                e[b.index()] += 1;
            } else {
                e[i % 12] += 1;
            }
        }
        e[a.index()] += 1;
        e[b.index()] += 1;
        e
    };
    assert_eq!(g, GlobalState::from_ints(&expect));
    // The stream resumes cleanly on the recovered state.
    bump(&mut db, &[a, b]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_panic_at_every_2pc_boundary_is_supervised() {
    // One cross-shard transaction over 2 shards = 4 protocol jobs:
    // vote@coordinator, vote@participant, resolve@coordinator,
    // resolve@participant. Panic the worker at each boundary (n = 4
    // never fires — the healthy control): the process must survive,
    // the crashed shard must recover to the exact committed prefix,
    // both shards must serve afterwards, and a final reopen must find
    // nothing in doubt. Committed iff the coordinator's resolve fsync
    // (job 2) happened — the commit point.
    for kind in CcKind::ALL {
        // Debug form: "T/O" is not a file name.
        let name = format!("{kind:?}");
        for n in 0..=4u64 {
            let dir = ccopt_durability::scratch_path(&format!("shard-panic-{name}-{n}"));
            let _ = std::fs::remove_dir_all(&dir);
            let mut db = ShardedDb::open(
                kind,
                GlobalState::from_ints(&[0; 8]),
                &dir,
                DurabilityMode::Strict,
                2,
                0,
            )
            .unwrap();
            let (a, b) = split_pair(&db);
            db.panic_after_2pc_jobs(n);
            let h = db.begin();
            assert_eq!(db.step(h, Write(a, int(5))).unwrap(), Op::Done(int(0)));
            assert_eq!(db.step(h, Write(b, int(6))).unwrap(), Op::Done(int(0)));
            let committed = match db.commit(h) {
                Ok(Op::Done(())) => {
                    db.retire(h).unwrap();
                    true
                }
                Err(SessionError::ShardDown) => {
                    abort_failed(&mut db, h, a);
                    false
                }
                other => panic!("{name} n={n}: unexpected commit outcome {other:?}"),
            };
            assert_eq!(
                committed,
                n >= 3,
                "{name} n={n}: committed iff the commit point (job 2) was reached"
            );
            assert_eq!(
                restarts(&db),
                usize::from(n < 4),
                "{name} n={n}: one supervised restart per injected panic"
            );
            let mut expect = vec![0i64; 8];
            if committed {
                expect[a.index()] = 5;
                expect[b.index()] = 6;
            }
            assert_eq!(
                db.globals(),
                GlobalState::from_ints(&expect),
                "{name} n={n}: exact committed prefix after supervision"
            );
            // Both shards — survivor and restarted — keep serving.
            bump(&mut db, &[a]);
            bump(&mut db, &[b]);
            expect[a.index()] += 1;
            expect[b.index()] += 1;
            assert_eq!(db.globals(), GlobalState::from_ints(&expect));
            db.sync().unwrap();
            drop(db);
            // A clean reopen agrees and has nothing left in doubt:
            // the supervised settlement was made exactly once.
            let mut db = ShardedDb::open(
                kind,
                GlobalState::from_ints(&[0; 8]),
                &dir,
                DurabilityMode::Strict,
                2,
                0,
            )
            .unwrap();
            let info = db.recovery_info().expect("logs were recovered");
            assert_eq!(
                (info.in_doubt_committed, info.in_doubt_aborted),
                (0, 0),
                "{name} n={n}: supervision settled every prepare"
            );
            assert_eq!(db.globals(), GlobalState::from_ints(&expect));
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn volatile_shard_panic_loses_only_that_shard() {
    let mut db = ShardedDb::new(CcKind::Strict2pl, GlobalState::from_ints(&[0; 8]), 2);
    let (a, b) = split_pair(&db);
    bump(&mut db, &[a]);
    bump(&mut db, &[b]);
    let sb = db.partition().shard_of(b);
    // An in-flight transaction holding state on the doomed shard...
    let h = db.begin();
    assert_eq!(db.step(h, Write(b, int(9))).unwrap(), Op::Done(int(1)));
    db.panic_shard(sb);
    // ...is failed by the supervisor at the next touch...
    assert_eq!(db.step(h, Read(b)), Err(SessionError::ShardDown));
    abort_failed(&mut db, h, a);
    assert_eq!(restarts(&db), 1);
    // ...and the shard respawns over its initial projection (without
    // a log, its committed data is lost — the documented volatile
    // degradation) while the other shard keeps everything.
    let g = db.globals();
    assert_eq!((g.0[a.index()], g.0[b.index()]), (int(1), int(0)));
    // Both shards serve again, including cross-shard 2PC.
    bump(&mut db, &[a, b]);
    let g = db.globals();
    assert_eq!((g.0[a.index()], g.0[b.index()]), (int(2), int(1)));
}

/// Kill `var`'s idle shard, then submit a data operation there, and check
/// the fault contract: the caller gets `ShardDown`, the shard is
/// supervised exactly once, and the coordinator's trace names it.
fn crash_then_touch(db: &mut ShardedDb, h: GlobalTxn, var: VarId) {
    use ccopt_trace::EventKind;
    let sb = db.partition().shard_of(var) as u32;
    db.panic_shard(sb as usize);
    assert_eq!(db.shards_down(), 1, "crashed and not yet supervised");
    let r = db.step(h, Affine { var, a: 1, c: 1 });
    assert_eq!(r, Err(SessionError::ShardDown));
    assert_eq!(restarts(db), 1, "supervised once");
    let statuses = db.shard_statuses();
    assert!(statuses.iter().all(|st| st.alive && !st.down));
    assert_eq!(db.shards_down(), 0);
    assert_eq!(statuses[sb as usize].restarts, 1);
    let coordinator = db.partition().shards() as u32;
    let events = db.trace_hub().unwrap().merged_events();
    let count = |kind: EventKind| {
        let on_coord = events.iter().filter(|e| e.shard == coordinator);
        on_coord.filter(|e| e.kind == kind).count()
    };
    let down = count(EventKind::ShardDown { shard: sb });
    let up = count(EventKind::ShardUp { shard: sb });
    assert_eq!((down, up), (1, 1), "ShardDown/ShardUp name the shard");
}

#[test]
fn a_data_operation_on_a_crashed_shard_is_shard_down() {
    let mut db = ShardedDb::new(CcKind::Strict2pl, GlobalState::from_ints(&[0; 8]), 2);
    db.set_trace(&TraceConfig::ring(64)).unwrap();
    let (a, b) = split_pair(&db);
    bump(&mut db, &[a]);
    // The doomed transaction holds state on the surviving shard only:
    // its begin on `b`'s shard rides the message that finds it dead.
    let h = db.begin();
    assert_eq!(db.step(h, Write(a, int(7))).unwrap(), Op::Done(int(1)));
    crash_then_touch(&mut db, h, b);
    // This thread is alive, and so is the other shard: the survivor's
    // share of the transaction rolls back and both shards serve.
    db.abort(h).unwrap();
    bump(&mut db, &[a]);
    bump(&mut db, &[a, b]);
    let g = db.globals();
    assert_eq!((g.0[a.index()], g.0[b.index()]), (int(3), int(1)));
    assert_eq!(restarts(&db), 1);
}

#[test]
fn durable_shard_panic_recovers_the_exact_committed_prefix() {
    let dir = ccopt_durability::scratch_path("shard-inline-panic");
    let _ = std::fs::remove_dir_all(&dir);
    let init = GlobalState::from_ints(&[0; 8]);
    let mode = DurabilityMode::Strict;
    let mut db = ShardedDb::open(CcKind::Strict2pl, init.clone(), &dir, mode, 2, 0).unwrap();
    db.set_trace(&TraceConfig::ring(64)).unwrap();
    let (a, b) = split_pair(&db);
    for _ in 0..2 {
        bump(&mut db, &[a]);
    }
    for _ in 0..3 {
        bump(&mut db, &[b]);
    }
    // An uncommitted write on the doomed shard dies with it.
    let h = db.begin();
    assert_eq!(db.step(h, Write(b, int(99))).unwrap(), Op::Done(int(3)));
    crash_then_touch(&mut db, h, b);
    // The transaction had state on the shard: the supervisor failed it.
    abort_failed(&mut db, h, a);
    assert_eq!(db.gauges(0).last_recovery_replayed, Some(3));
    let g = db.globals();
    assert_eq!((g.0[a.index()], g.0[b.index()]), (int(2), int(3)));
    bump(&mut db, &[b]);
    drop(db);
    let mut db = ShardedDb::open(CcKind::Strict2pl, init, &dir, mode, 2, 0).unwrap();
    let g = db.globals();
    assert_eq!((g.0[a.index()], g.0[b.index()]), (int(2), int(4)));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unrecoverable_storage_marks_the_shard_down_and_the_rest_serve() {
    let dir = ccopt_durability::scratch_path("shard-perma-down");
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = ShardedDb::open(
        CcKind::Strict2pl,
        GlobalState::from_ints(&[0; 8]),
        &dir,
        DurabilityMode::Strict,
        2,
        0,
    )
    .unwrap();
    let (a, b) = split_pair(&db);
    bump(&mut db, &[a]);
    bump(&mut db, &[b]);
    let sb = db.partition().shard_of(b);
    db.panic_shard(sb);
    // Make the shard's log unreadable (a directory where the file
    // was): recovery cannot even open it.
    let p = ShardedDb::shard_path(&dir, sb);
    std::fs::remove_file(&p).unwrap();
    std::fs::create_dir(&p).unwrap();
    assert_eq!(db.check_shards(), 1);
    assert!(db.shard_statuses()[sb].down);
    assert_eq!(db.shards_down(), 1);
    assert_eq!(restarts(&db), 1, "marking a shard down counts as handled");
    // Operations routed there fail cleanly; the other shard serves.
    let h = db.begin();
    assert_eq!(db.step(h, Read(b)), Err(SessionError::ShardDown));
    db.abort(h).unwrap();
    bump(&mut db, &[a]);
    // Degraded reads: the down shard reports its initial projection.
    let g = db.globals();
    assert_eq!((g.0[a.index()], g.0[b.index()]), (int(2), int(0)));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_shard_io_faults_retry_and_surface_in_metrics() {
    let dir = ccopt_durability::scratch_path("shard-io-retry");
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = ShardedDb::open(
        CcKind::Strict2pl,
        GlobalState::from_ints(&[0; 8]),
        &dir,
        DurabilityMode::Strict,
        2,
        0,
    )
    .unwrap();
    let (a, b) = split_pair(&db);
    let sa = db.partition().shard_of(a);
    db.set_retry_policy(RetryPolicy::immediate(4));
    // The second fsync on a's shard (counting from installation)
    // fails transiently twice, then goes through under the retry
    // budget — invisibly to the committing transaction.
    db.set_shard_faults(
        sa,
        StorageFaults::new().fail_sync(1, Fault::Transient { times: 2 }),
    );
    let before = db.metrics().snapshot();
    bump(&mut db, &[a]);
    bump(&mut db, &[a]);
    bump(&mut db, &[b]);
    let d = db.metrics().diff(&before);
    assert_eq!(d.commits, 3);
    assert_eq!(d.io_retries, 2, "both transient failures were retried");
    assert_eq!(d.shard_restarts, 0);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sgt_commit_order_composes_across_shards() {
    // The mixed-transaction counterexample from docs/SHARDING.md: a
    // cross-shard pair with opposite-direction conflicts on two
    // shards cannot both commit under the commit-order gate.
    let mut db = ShardedDb::new(CcKind::Sgt, GlobalState::from_ints(&[0; 8]), 2);
    let (a, b) = split_pair(&db);
    let t1 = db.begin();
    let t2 = db.begin();
    // Shard A: t1 reads a, t2 overwrites it (edge t1 -> t2).
    assert_eq!(db.step(t1, Read(a)).unwrap(), Op::Done(int(0)));
    assert_eq!(db.step(t2, Write(a, int(1))).unwrap(), Op::Done(int(0)));
    // Shard B: t2 reads b, t1 overwrites it (edge t2 -> t1).
    assert_eq!(db.step(t2, Read(b)).unwrap(), Op::Done(int(0)));
    assert_eq!(db.step(t1, Write(b, int(2))).unwrap(), Op::Done(int(0)));
    // Each commit now waits on its live predecessor on one shard: a
    // cross-shard wait cycle — the valve restarts one and the other
    // completes.
    assert_eq!(db.commit(t1).unwrap(), Op::Wait);
    assert_eq!(db.commit(t2).unwrap(), Op::Wait);
    db.restart(t1).unwrap();
    assert_eq!(db.commit(t2).unwrap(), Op::Done(()));
    db.retire(t2).unwrap();
    // t1's replay commits after t2 — serializable order t1' after t2.
    assert_eq!(db.step(t1, Read(a)).unwrap(), Op::Done(int(1)));
    assert_eq!(db.step(t1, Write(b, int(2))).unwrap(), Op::Done(int(0)));
    assert_eq!(db.commit(t1).unwrap(), Op::Done(()));
    db.retire(t1).unwrap();
}

#[test]
fn scatter_collects_live_replies_and_supervises_the_dead_after_the_gather() {
    use ccopt_trace::EventKind;
    // The trace hub's global order stamp is the probe: each scattered job
    // emits one event on its shard, the supervisor stamps `ShardDown`
    // when it turns to the dead one.
    let mut db = ShardedDb::new(CcKind::Strict2pl, GlobalState::from_ints(&[0; 9]), 3);
    db.set_trace(&TraceConfig::ring(16)).unwrap();
    db.panic_shard(1); // the dead shard sits between the two live targets
    assert_eq!(restarts(&db), 0, "nothing touched the dead shard yet");
    let replies = db.scatter(
        None,
        (0..3).map(|s| {
            (s, move |db: &mut SessionDb| {
                db.begin();
                s
            })
        }),
    );
    assert_eq!(
        replies,
        vec![(0, Ok(0)), (1, Err(ccopt_par::WorkerError)), (2, Ok(2))],
        "both live replies are collected around the dead shard"
    );
    assert_eq!(restarts(&db), 1, "the dead shard is supervised once");
    let events = db.trace_hub().unwrap().merged_events();
    let stamp = |shard: u32, what: fn(&EventKind) -> bool| {
        let mut hits = events.iter().filter(|e| e.shard == shard && what(&e.kind));
        let hit = hits.next().expect("the event was emitted");
        assert!(hits.next().is_none(), "and only once");
        hit.gseq
    };
    let down = stamp(3, |k| matches!(k, EventKind::ShardDown { shard: 1 }));
    for s in [0, 2] {
        assert!(
            stamp(s, |k| matches!(k, EventKind::TxnBegin { .. })) < down,
            "supervision waited for the whole gather (shard {s}'s job ran first)"
        );
    }
    // The respawned worker answers the next scatter.
    let replies = db.scatter(
        None,
        (0..3).map(|s| (s, |db: &mut SessionDb| db.num_slots())),
    );
    assert!(replies.iter().all(|(_, r)| r.is_ok()), "got {replies:?}");
    assert_eq!(restarts(&db), 1);
}

/// The name of the thread running this code.
fn thread_name() -> Option<String> {
    std::thread::current().name().map(String::from)
}

#[test]
fn volatile_fan_out_runs_in_order_on_the_calling_thread() {
    thread_local!(static RAN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) });
    let mut db = ShardedDb::new(CcKind::Strict2pl, GlobalState::from_ints(&[0; 6]), 3);
    let here = thread_name();
    assert!(here.is_some(), "the test harness names its threads");
    // Without logs a `sync` round has no fsync to overlap: each probe
    // runs here, and counts on this thread's counter, in shard order.
    let probe = |_: &mut SessionDb| (thread_name(), RAN.with(|n| n.replace(n.get() + 1)));
    let replies = db.scatter_all(None, probe);
    let expect: Vec<_> = (0..3).map(|s| (s, Ok((here.clone(), s)))).collect();
    assert_eq!(replies, expect);
}

#[test]
fn overlapped_fan_out_runs_here_and_collects_every_deferred_fsync() {
    let dir = ccopt_durability::scratch_path("shard-overlapped-fan-out");
    let _ = std::fs::remove_dir_all(&dir);
    let init = GlobalState::from_ints(&[0; 12]);
    let mode = DurabilityMode::group(64);
    let mut db = ShardedDb::open(CcKind::Strict2pl, init, &dir, mode, 3, 0).unwrap();
    let here = thread_name();
    assert!(here.is_some(), "the test harness names its threads");
    // Every shard holds a group-commit batch that no fsync covered yet.
    let vars: Vec<VarId> = (0..3)
        .map(|s| {
            (0..12)
                .map(v)
                .find(|&x| db.partition().shard_of(x) == s)
                .unwrap()
        })
        .collect();
    for &x in &vars {
        bump(&mut db, &[x]);
    }
    let before = db.metrics().wal_syncs;
    // An overlapped `sync` round: every job runs here, in shard order;
    // shards 0 and 1 defer their fsyncs to their logs' syncer threads,
    // shard 2 syncs inline, and the round waits for and accounts every
    // deferred fsync before it returns.
    let named = |db: &mut SessionDb| (thread_name(), db.sync().is_ok());
    let keep: jobs::Overlap<_> = Some(|out, synced| {
        assert!(synced.is_ok());
        out
    });
    let replies = db.scatter_all(keep, named);
    let expect: Vec<_> = (0..3).map(|s| (s, Ok((here.clone(), true)))).collect();
    assert_eq!(replies, expect);
    assert_eq!(db.metrics().wal_syncs, before + 3, "one fsync per shard");
    // A lone job, even of an overlapping round, is the last: a call
    // that defers nothing.
    let name = |_: &mut SessionDb| thread_name();
    let keep: jobs::Overlap<_> = Some(|out, _| out);
    assert_eq!(db.scatter(keep, [(0, name)]), vec![(0, Ok(here))]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The threads an injected 2PC-boundary panic went off on, recorded by a
/// panic hook installed on first use on top of the previous hook (which
/// still prints).
fn bomb_threads() -> &'static std::sync::Mutex<Vec<Option<String>>> {
    static THREADS: std::sync::OnceLock<std::sync::Mutex<Vec<Option<String>>>> =
        std::sync::OnceLock::new();
    THREADS.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let bomb = "injected shard-worker panic at a 2PC boundary";
            if info.payload().downcast_ref::<&str>() == Some(&bomb) {
                bomb_threads().lock().unwrap().push(thread_name());
            }
            prev(info);
        }));
        std::sync::Mutex::new(Vec::new())
    })
}

#[test]
fn lone_fan_out_2pc_panic_unwinds_on_the_calling_thread() {
    let dir = ccopt_durability::scratch_path("shard-lone-2pc-panic");
    let _ = std::fs::remove_dir_all(&dir);
    let init = GlobalState::from_ints(&[0; 8]);
    let mode = DurabilityMode::Strict;
    let mut db = ShardedDb::open(CcKind::Strict2pl, init.clone(), &dir, mode, 2, 0).unwrap();
    let (a, b) = split_pair(&db);
    let here = thread_name();
    assert!(here.is_some(), "the test harness names its threads");
    bomb_threads();
    // At S = 2 the votes are jobs 0 and 1 (a fan-out of two), the
    // coordinator resolve is job 2 — a fan-out of one, on this thread.
    db.panic_after_2pc_jobs(2);
    let h = db.begin();
    assert_eq!(db.step(h, Write(a, int(5))).unwrap(), Op::Done(int(0)));
    assert_eq!(db.step(h, Write(b, int(6))).unwrap(), Op::Done(int(0)));
    assert_eq!(db.commit(h), Err(SessionError::ShardDown));
    assert!(
        bomb_threads().lock().unwrap().contains(&here),
        "the bomb went off on this thread, which survived it"
    );
    // The coordinator shard was supervised once; its log holds the
    // prepare but no resolve, so the transaction settled as aborted.
    assert_eq!(restarts(&db), 1);
    abort_failed(&mut db, h, a);
    assert_eq!(db.globals(), init);
    bump(&mut db, &[a, b]);
    db.sync().unwrap();
    drop(db);
    let mut db = ShardedDb::open(CcKind::Strict2pl, init, &dir, mode, 2, 0).unwrap();
    let info = db.recovery_info().expect("logs were recovered");
    assert_eq!((info.in_doubt_committed, info.in_doubt_aborted), (0, 0));
    let g = db.globals();
    assert_eq!((g.0[a.index()], g.0[b.index()]), (int(1), int(1)));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn volatile_2pc_fan_out_panic_unwinds_on_the_calling_thread() {
    let mut db = ShardedDb::new(CcKind::Strict2pl, GlobalState::from_ints(&[0; 8]), 2);
    let (a, b) = split_pair(&db);
    let here = thread_name();
    assert!(here.is_some(), "the test harness names its threads");
    bomb_threads();
    // Job 0 is shard 0's vote. Without logs the votes have no fsync to
    // overlap, so both run on this thread, in shard order.
    db.panic_after_2pc_jobs(0);
    let h = db.begin();
    assert_eq!(db.step(h, Write(a, int(5))).unwrap(), Op::Done(int(0)));
    assert_eq!(db.step(h, Write(b, int(6))).unwrap(), Op::Done(int(0)));
    assert_eq!(db.commit(h), Err(SessionError::ShardDown));
    assert!(
        bomb_threads().lock().unwrap().contains(&here),
        "the bomb went off on this thread, which survived it"
    );
    let restarted: Vec<u64> = db.shard_statuses().iter().map(|st| st.restarts).collect();
    assert_eq!(restarted, vec![1, 0], "shard 0 was supervised once");
    abort_failed(&mut db, h, a);
    // Shard 1's yes vote was revoked; it keeps serving, and the
    // respawned shard 0 serves again.
    bump(&mut db, &[b]);
    bump(&mut db, &[a, b]);
    let g = db.globals();
    assert_eq!((g.0[a.index()], g.0[b.index()]), (int(1), int(2)));
    assert_eq!(restarts(&db), 1);
}

#[test]
fn durable_vote_fan_out_runs_every_vote_on_the_calling_thread() {
    let dir = ccopt_durability::scratch_path("shard-durable-vote-overlap");
    let _ = std::fs::remove_dir_all(&dir);
    let init = GlobalState::from_ints(&[0; 8]);
    let mode = DurabilityMode::Strict;
    let mut db = ShardedDb::open(CcKind::Strict2pl, init.clone(), &dir, mode, 2, 0).unwrap();
    let (a, b) = split_pair(&db);
    let here = thread_name();
    assert!(here.is_some(), "the test harness names its threads");
    bomb_threads();
    bump(&mut db, &[a, b]);
    // Each vote forces an fsync. Job 0 (shard 0's vote) would hand its
    // fsync to its log's syncer thread, job 1 (the last vote) syncs
    // inline: both run here, and a panic in either kills only its shard.
    for job in [0, 1] {
        db.panic_after_2pc_jobs(job);
        let h = db.begin();
        assert_eq!(db.step(h, Write(a, int(5))).unwrap(), Op::Done(int(1)));
        assert_eq!(db.step(h, Write(b, int(6))).unwrap(), Op::Done(int(1)));
        assert_eq!(db.commit(h), Err(SessionError::ShardDown));
        let bombs = bomb_threads().lock().unwrap().clone();
        assert!(bombs.contains(&here), "job {job} went off on this thread");
        abort_failed(&mut db, h, a);
        let g = db.globals();
        assert_eq!(
            (g.0[a.index()], g.0[b.index()]),
            (int(1), int(1)),
            "job {job}"
        );
    }
    let restarted: Vec<u64> = db.shard_statuses().iter().map(|st| st.restarts).collect();
    assert_eq!(
        restarted,
        vec![1, 1],
        "each crashed shard was supervised once"
    );
    bump(&mut db, &[a, b]);
    db.sync().unwrap();
    drop(db);
    // Recovery is the exact committed prefix, with nothing in doubt.
    let mut db = ShardedDb::open(CcKind::Strict2pl, init, &dir, mode, 2, 0).unwrap();
    let info = db.recovery_info().expect("logs were recovered");
    assert_eq!((info.in_doubt_committed, info.in_doubt_aborted), (0, 0));
    let g = db.globals();
    assert_eq!((g.0[a.index()], g.0[b.index()]), (int(2), int(2)));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sync_flushes_every_live_shard_before_reporting_a_failing_one() {
    let dir = ccopt_durability::scratch_path("shard-sync-all");
    let _ = std::fs::remove_dir_all(&dir);
    let init = GlobalState::from_ints(&[0; 8]);
    let mode = DurabilityMode::group(64);
    let mut db = ShardedDb::open(CcKind::Strict2pl, init.clone(), &dir, mode, 2, 0).unwrap();
    let b = (0..8)
        .map(v)
        .find(|&x| db.partition().shard_of(x) == 1)
        .unwrap();
    // Shard 0's log fails its next fsync for good; shard 1 holds an
    // acknowledged commit that group mode has not flushed yet.
    db.set_shard_faults(0, StorageFaults::new().fail_sync(0, Fault::Permanent));
    bump(&mut db, &[b]);
    assert!(db.sync().is_err(), "shard 0's failure is reported");
    drop(db); // a crash right after the drain's sync
    let mut db = ShardedDb::open(CcKind::Strict2pl, init, &dir, mode, 2, 0).unwrap();
    assert_eq!(
        db.globals().0[b.index()],
        int(1),
        "shard 1 was synced although shard 0, asked first, failed"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
