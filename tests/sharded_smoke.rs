//! Tier-1 smoke of the sharded engine: how requests are packaged on the
//! way in must be invisible in what the engine decides.
//!
//! One recorded workload — eight interleaved transactions over two
//! shards, half pinned to one shard, half spanning both — is replayed
//! as one-op requests (one `submit_group` call and one shard message
//! per operation, then a zero-op commit request: the wire's
//! per-operation shape) and as whole groups (every live transaction's
//! run with its commit piggybacked, one message per shard per round),
//! for all seven mechanisms. Both land on the one shard-job executor in
//! `shard/jobs.rs`; the commit vector, the final state and every decision
//! metric must come out equal. `crates/engine/tests/batched.rs` is the
//! full differential (three packagings × three shard counts); this is the
//! thin slice of it the Tier-1 command runs, plus one cross-shard
//! two-phase commit / abort round trip.

use ccopt::engine::{BatchOp, CcKind, GlobalTxn, GroupReq, Metrics, Op, SessionError, ShardedDb};
use ccopt::model::ids::VarId;
use ccopt::model::state::GlobalState;
use ccopt::model::value::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NUM_VARS: usize = 16;
const SHARDS: usize = 2;
const TXNS: usize = 8;
const ROUND_CAP: usize = 400;
/// Consecutive `Wait` answers before the driver fires
/// [`ShardedDb::restart`] — cross-shard wait cycles need the valve.
const WAIT_VALVE: u32 = 8;

/// A recorded program and the shard it is pinned to (`None`: it spans
/// both shards, so it commits through 2PC).
type Program = (Option<usize>, Vec<BatchOp>);

fn record_programs(db: &ShardedDb) -> Vec<Program> {
    let mut rng = SmallRng::seed_from_u64(0x5AAD_0002);
    let mut draw = |shard: usize| {
        let vars = db.partition().shard_vars(shard);
        let var = vars[rng.gen_range(0..vars.len())];
        match rng.gen_range(0..3u32) {
            0 => BatchOp::Read(var),
            1 => BatchOp::Write(var, Value::Int(rng.gen_range(0..100i64))),
            _ => BatchOp::Affine {
                var,
                a: rng.gen_range(1..=3i64),
                c: rng.gen_range(0..10i64),
            },
        }
    };
    (0..TXNS)
        .map(|i| {
            if i % 2 == 0 {
                let home = i / 2 % SHARDS;
                (Some(home), (0..3).map(|_| draw(home)).collect())
            } else {
                // Alternating shards: really cross-shard from op two on.
                (None, (0..4).map(|k| draw((i + k) % SHARDS)).collect())
            }
        })
        .collect()
}

/// What one request came to: its run's outcomes and its commit's, when
/// one was attempted.
type Answer = (Vec<Op<Value>>, Option<Op<()>>);

struct TxnState {
    h: GlobalTxn,
    cursor: usize,
    committed: bool,
    wait_streak: u32,
}

/// `submit_group`'s documented execution order over the live
/// transactions: the pinned ones grouped per shard in first-appearance
/// order, then the cross-shard ones in submission order. (A request's
/// footprint is its remaining ops plus the shards it already touched —
/// for these programs always the whole program's, so the class is
/// fixed.)
fn canonical_order(live: &[usize], programs: &[Program]) -> Vec<usize> {
    let mut shard_order: Vec<usize> = Vec::new();
    for &t in live {
        if let Some(s) = programs[t].0 {
            if !shard_order.contains(&s) {
                shard_order.push(s);
            }
        }
    }
    let pinned = shard_order.into_iter().flat_map(|s| {
        live.iter()
            .copied()
            .filter(move |&t| programs[t].0 == Some(s))
    });
    let cross = live.iter().copied().filter(|&t| programs[t].0.is_none());
    pinned.chain(cross).collect()
}

/// One request alone in its `submit_group` call.
fn request(
    db: &mut ShardedDb,
    h: GlobalTxn,
    ops: Vec<BatchOp>,
    commit: bool,
) -> Result<Answer, SessionError> {
    let req = GroupReq { h, ops, commit };
    let resp = db.submit_group(vec![req]).pop().expect("one response");
    Ok((resp.results?, resp.commit.transpose()?))
}

/// Fold one request's outcomes into the driver state (the same rules on
/// both paths: advance over `Done`s, replay after `Restarted`, valve
/// after too many `Wait`s).
fn settle(db: &mut ShardedDb, st: &mut TxnState, outs: &[Op<Value>], commit: Option<Op<()>>) {
    // Ops answered `Done` are behind us: a `Wait` resumes at the op (or
    // the commit) that waited.
    let done = outs.iter().filter(|r| matches!(r, Op::Done(_))).count();
    let last = commit.unwrap_or_else(|| {
        let r = outs
            .last()
            .expect("a request without ops attempts its commit");
        r.map_done(|_| ())
    });
    match last {
        Op::Done(()) => {
            st.cursor += done;
            st.wait_streak = 0;
            st.committed = commit.is_some();
        }
        Op::Restarted => {
            st.cursor = 0;
            st.wait_streak = 0;
        }
        Op::Wait => {
            st.cursor += done;
            st.wait_streak += 1;
            if st.wait_streak >= WAIT_VALVE {
                db.restart(st.h).expect("live handle");
                st.cursor = 0;
                st.wait_streak = 0;
            }
        }
    }
}

/// Replay the recorded workload per-op or grouped. Returns the commit
/// vector, the final state, the metrics and the cross-shard commit count.
fn replay(cc: CcKind, grouped: bool) -> (Vec<bool>, GlobalState, Metrics, usize) {
    let mut db = ShardedDb::new(cc, GlobalState::from_ints(&[7; NUM_VARS]), SHARDS);
    let programs = record_programs(&db);
    let mut states: Vec<TxnState> = programs
        .iter()
        .map(|_| TxnState {
            h: db.begin(),
            cursor: 0,
            committed: false,
            wait_streak: 0,
        })
        .collect();
    for _round in 0..ROUND_CAP {
        // Every live transaction asks for its remaining run and its
        // commit (which fires only when the whole run completes).
        let live: Vec<usize> = (0..TXNS).filter(|&t| !states[t].committed).collect();
        if live.is_empty() {
            break;
        }
        // One answer per live transaction.
        let mut answers: Vec<Answer> = vec![Default::default(); TXNS];
        if grouped {
            let reqs: Vec<GroupReq> = live
                .iter()
                .map(|&t| GroupReq {
                    h: states[t].h,
                    ops: programs[t].1[states[t].cursor..].to_vec(),
                    commit: true,
                })
                .collect();
            for (&t, resp) in live.iter().zip(db.submit_group(reqs)) {
                let commit = resp.commit.map(|c| c.expect("live handle"));
                answers[t] = (resp.results.expect("live handle"), commit);
            }
        } else {
            for t in canonical_order(&live, &programs) {
                let h = states[t].h;
                let mut outs = Vec::new();
                for &op in &programs[t].1[states[t].cursor..] {
                    let (run, _) = request(&mut db, h, vec![op], false).expect("live handle");
                    outs.extend(run);
                    if !matches!(outs.last(), Some(Op::Done(_))) {
                        break;
                    }
                }
                // The run stops at its first non-`Done` outcome; the
                // commit (and, when it lands, the retire) follows alone.
                let all_done = outs.iter().all(|r| matches!(r, Op::Done(_)));
                let commit = all_done.then(|| {
                    let (_, commit) = request(&mut db, h, Vec::new(), true).expect("live handle");
                    commit.expect("a zero-op run is all done, so it commits")
                });
                answers[t] = (outs, commit);
            }
        }
        // Settled after the round on both paths, so a valve restart lands
        // at the same point of the global operation sequence.
        for &t in &live {
            let (outs, commit) = &answers[t];
            settle(&mut db, &mut states[t], outs, *commit);
        }
    }
    let commits = states.iter().map(|st| st.committed).collect();
    for st in &states {
        if !st.committed {
            let _ = db.abort(st.h);
        }
    }
    let cross = db.gauges(0).cross_shard_commits;
    (commits, db.globals(), db.metrics(), cross)
}

/// The metrics both packagings must agree on: everything except the
/// messaging tallies (different by design) and multi-version GC timing
/// (a piggybacked commit's floor is computed at submission, which may
/// legally delay reclamation; no decision reads it).
fn decision_metrics(m: &Metrics) -> Metrics {
    Metrics {
        shard_msgs: 0,
        batched_ops: 0,
        versions_reclaimed: 0,
        max_chain_len: 0,
        ..*m
    }
}

#[test]
fn per_op_and_grouped_submission_decide_identically() {
    for kind in CcKind::ALL {
        let cc = kind.name();
        let (commits_a, state_a, m_a, cross_a) = replay(kind, false);
        let (commits_b, state_b, m_b, cross_b) = replay(kind, true);
        assert!(
            cross_a > 0 && commits_a.iter().any(|&c| c),
            "{cc}: the workload must commit across shards to mean anything"
        );
        assert_eq!(commits_a, commits_b, "{cc}: commit vector");
        assert_eq!(state_a, state_b, "{cc}: final state");
        assert_eq!(cross_a, cross_b, "{cc}: two-phase commits");
        assert_eq!(
            decision_metrics(&m_a),
            decision_metrics(&m_b),
            "{cc}: decision metrics"
        );
        assert!(
            m_b.shard_msgs < m_a.shard_msgs,
            "{cc}: grouping must save messages ({} vs {})",
            m_b.shard_msgs,
            m_a.shard_msgs
        );
    }
}

#[test]
fn cross_shard_two_phase_commit_and_abort_round_trip() {
    let mut db = ShardedDb::new(
        CcKind::Strict2pl,
        GlobalState::from_ints(&[0; NUM_VARS]),
        SHARDS,
    );
    let (a, b) = (
        db.partition().shard_vars(0)[0],
        db.partition().shard_vars(1)[0],
    );
    let read = |db: &mut ShardedDb, v: VarId| db.globals().0[v.index()];

    let write = |db: &mut ShardedDb, h, var, v| {
        let (run, _) = request(db, h, vec![BatchOp::Write(var, Value::Int(v))], false)?;
        Ok::<_, SessionError>(run)
    };

    let h = db.begin();
    assert_eq!(write(&mut db, h, a, 5), Ok(vec![Op::Done(Value::Int(0))]));
    assert_eq!(write(&mut db, h, b, 6), Ok(vec![Op::Done(Value::Int(0))]));
    assert_eq!(db.commit(h), Ok(Op::Done(())));
    db.retire(h).expect("committed");
    assert_eq!(db.gauges(0).cross_shard_commits, 1);
    assert_eq!(
        (read(&mut db, a), read(&mut db, b)),
        (Value::Int(5), Value::Int(6))
    );

    let h = db.begin();
    assert_eq!(write(&mut db, h, a, 50), Ok(vec![Op::Done(Value::Int(5))]));
    assert_eq!(write(&mut db, h, b, 60), Ok(vec![Op::Done(Value::Int(6))]));
    db.abort(h).expect("running");
    assert_eq!(db.gauges(0).cross_shard_commits, 1);
    assert_eq!(
        (read(&mut db, a), read(&mut db, b)),
        (Value::Int(5), Value::Int(6))
    );
    let m = db.metrics();
    assert_eq!((m.commits, m.aborts), (1, 1));
}
