//! No shard owns a thread: a [`ShardedDb`] holds its shards as plain
//! values and runs every shard job on the calling thread. The only
//! threads it leads to are its logs' syncer threads (`ccopt-wal-sync`),
//! at most one per log, started by the first fsync a durable round
//! defers and joined when the log drops. This binary holds one test, so
//! nothing else in the process can race the thread counts.

use ccopt_engine::durability::scratch_path;
use ccopt_engine::{BatchOp, CcKind, DurabilityMode, GroupReq, Op, ShardedDb};
use ccopt_model::ids::VarId;
use ccopt_model::state::GlobalState;
use std::time::{Duration, Instant};

/// Live threads of this process whose name starts with `prefix`. `None`
/// off Linux.
fn threads(prefix: &str) -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
            .filter(|name| name.starts_with(prefix))
            .count(),
    )
}

fn assert_threads(after: &str, shard: usize, syncers: usize) {
    let counts = (threads("ccopt-shard"), threads("ccopt-wal-sync"));
    assert_eq!(counts, (Some(shard), Some(syncers)), "after {after}");
}

/// Poll until `syncers` syncer threads are listed: a joined thread can
/// stay listed under `/proc/self/task` for a moment after its join.
fn assert_syncers_settle_at(after: &str, syncers: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads("ccopt-wal-sync") != Some(syncers) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_threads(after, 0, syncers);
}

/// Two variables on different shards.
fn split_pair(db: &ShardedDb) -> (BatchOp, BatchOp) {
    let a = VarId(0);
    let b = (1..db.partition().num_vars() as u32)
        .map(VarId)
        .find(|&x| db.partition().shard_of(x) != db.partition().shard_of(a))
        .expect("at least two shards own variables");
    let bump = |var| BatchOp::Affine { var, a: 1, c: 1 };
    (bump(a), bump(b))
}

/// One local and one cross-shard transaction, each committed in its
/// request.
fn mixed_stream(db: &mut ShardedDb) {
    let (a, b) = split_pair(db);
    for _ in 0..8 {
        let (local, cross) = (db.begin(), db.begin());
        let resps = db.submit_group(vec![
            GroupReq {
                h: local,
                ops: vec![a],
                commit: true,
            },
            GroupReq {
                h: cross,
                ops: vec![a, b],
                commit: true,
            },
        ]);
        for r in resps {
            assert_eq!(r.commit, Some(Ok(Op::Done(()))));
        }
    }
}

#[test]
fn shards_own_no_thread_and_each_log_at_most_one_syncer() {
    if threads("ccopt").is_none() {
        return;
    }
    let init = GlobalState::from_ints(&[0; 16]);
    let mut db = ShardedDb::new(CcKind::Strict2pl, init.clone(), 4);
    assert_threads("ShardedDb::new", 0, 0);
    mixed_stream(&mut db);
    assert_threads("a mixed local/cross submit_group stream", 0, 0);
    db.panic_shard(1);
    assert_eq!(db.check_shards(), 1);
    assert_threads("panic_shard + check_shards", 0, 0);
    drop(db);

    let dir = scratch_path("shard-threads-durable");
    let _ = std::fs::remove_dir_all(&dir);
    let mode = DurabilityMode::Strict;
    let mut db = ShardedDb::open(CcKind::Strict2pl, init, &dir, mode, 4, 0).unwrap();
    assert_threads("ShardedDb::open", 0, 0);
    // Each cross-shard vote round defers the first of its two fsyncs:
    // one log, the lower shard's, has started its syncer.
    mixed_stream(&mut db);
    assert_threads("a durable cross-shard commit", 0, 1);
    // A `sync` round defers every fsync but the last shard's.
    db.sync().unwrap();
    assert_threads("sync", 0, 3);
    // Compaction swaps each log's file; the syncers stay.
    db.checkpoint().unwrap();
    assert_threads("checkpoint", 0, 3);
    // A dead shard's log drops with its state, joining its syncer.
    db.panic_shard(0);
    assert_eq!(db.check_shards(), 1);
    assert_syncers_settle_at("panic_shard(0) + check_shards", 2);
    drop(db);
    assert_syncers_settle_at("drop", 0);
    let _ = std::fs::remove_dir_all(&dir);
}
