//! Batched vs per-op submission: the bit-identical differential.
//!
//! Grouped submission ([`ShardedDb::submit_group`]) exists purely to
//! amortize coordinator→shard messages; it must change
//! NOTHING about what the engine decides. This suite replays one
//! recorded workload — the same transactions, the same operations, the
//! same deterministic schedule — through three packagings of the same
//! requests:
//!
//! * **per-op**: every operation is its own one-op `submit_group`
//!   request (one shard message each), and the commit a zero-op
//!   request after them — the wire's per-operation shape;
//! * **group of one**: each transaction's remaining run and its commit
//!   are their own `submit_group(vec![one])` call — the degenerate group
//!   the server sends for a lone interactive request;
//! * **group**: every live transaction's remaining run *and* its commit
//!   travel together in one `submit_group` call per scheduler round —
//!   the server engine's shape under load.
//!
//! and asserts the outcomes are **bit-identical** across all 7
//! mechanisms × shard counts {1, 2, 8}: per-transaction commit results,
//! final database state, and every metric that must agree (commits,
//! aborts by rule, waits, steps, retires, versions installed). Metrics
//! that measure the *messaging* itself (`shard_msgs`, `batched_ops`)
//! differ by design — that difference is the point, and the last test
//! pins the direction: group submission must use a small fraction of
//! the per-op path's messages.
//!
//! The one legal divergence: multi-version GC *timing* (`versions_
//! reclaimed`, `max_chain_len`), because a piggybacked commit's GC
//! floor is computed at submission (pessimistically low) — the design
//! note in docs/SHARDING.md spells out why no decision reads the floor.
//!
//! Why the schedule makes the comparison exact: the driver mirrors
//! `submit_group`'s documented canonical order (single-shard requests
//! grouped per shard in first-appearance order, cross-shard requests
//! trailing in submission order) and executes the per-op and
//! group-of-one paths in that same order, so all three perform the same
//! global operation sequence — and the engine's lazy restart-stamp rule
//! guarantees the same timestamps.

use ccopt_engine::{BatchOp, CcKind, GlobalTxn, GroupReq, Metrics, Op, ShardedDb};
use ccopt_model::{GlobalState, Value, VarId};

const NUM_VARS: usize = 16;
const TXNS: usize = 12;
const ROUND_CAP: usize = 500;
/// Consecutive `Wait` answers before the driver fires
/// [`ShardedDb::restart`] — the same valve every real driver has.
const WAIT_VALVE: u32 = 8;

/// Tiny deterministic RNG (SplitMix64) so the recorded workload is
/// identical in every run and path.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    PerOp,
    GroupOfOne,
    Group,
}

/// Record the workload: each transaction's program, fixed up front.
/// Half the transactions are pinned to a single shard (batched
/// submission's packed path), half roam the whole universe (the
/// cross-shard tail and 2PC).
fn record_programs(db: &mut ShardedDb, shards: usize, seed: u64) -> Vec<Vec<BatchOp>> {
    let mut rng = Rng(seed);
    let by_shard: Vec<Vec<u32>> = (0..shards)
        .map(|s| {
            (0..NUM_VARS as u32)
                .filter(|&v| db.partition().shard_of(VarId(v)) == s)
                .collect()
        })
        .collect();
    (0..TXNS)
        .map(|i| {
            let len = 2 + rng.below(4);
            let home: Option<&Vec<u32>> = if i % 2 == 0 {
                // Pinned to one shard (guaranteed non-empty: every
                // shard owns ≥ NUM_VARS/shards variables).
                Some(&by_shard[i / 2 % shards])
            } else {
                None
            };
            (0..len)
                .map(|_| {
                    let var = match home {
                        Some(vars) => VarId(vars[rng.below(vars.len())]),
                        None => VarId(rng.below(NUM_VARS) as u32),
                    };
                    match rng.below(3) {
                        0 => BatchOp::Read(var),
                        1 => BatchOp::Write(var, Value::Int(rng.below(100) as i64)),
                        _ => BatchOp::Affine {
                            var,
                            a: 1 + rng.below(3) as i64,
                            c: rng.below(10) as i64,
                        },
                    }
                })
                .collect()
        })
        .collect()
}

/// Per-transaction driver state, including the mirror of the engine's
/// shard footprint (`touched`) that the canonical-order computation
/// needs.
struct TxnState {
    h: GlobalTxn,
    cursor: usize,
    committed: bool,
    touched: Vec<usize>,
    wait_streak: u32,
}

impl TxnState {
    fn touch(&mut self, s: usize) {
        if !self.touched.contains(&s) {
            self.touched.push(s);
        }
    }
}

/// The driver's mirror of `submit_group`'s canonical execution order
/// over this round's requests (`(txn index, chunk)` pairs): requests
/// whose chunk *and* prior footprint sit on one shard group per shard
/// in first-appearance order; everything else trails in submission
/// order.
fn canonical_order(
    reqs: &[(usize, Vec<BatchOp>)],
    states: &[TxnState],
    db: &ShardedDb,
) -> Vec<usize> {
    let mut shard_order: Vec<usize> = Vec::new();
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); db.partition().shards()];
    let mut tail: Vec<usize> = Vec::new();
    for (k, (ti, chunk)) in reqs.iter().enumerate() {
        let mut set: Vec<usize> = Vec::new();
        for op in chunk {
            let s = db.partition().shard_of(op.var());
            if !set.contains(&s) {
                set.push(s);
            }
        }
        for &s in &states[*ti].touched {
            if !set.contains(&s) {
                set.push(s);
            }
        }
        match set.len() {
            1 => {
                let s = set[0];
                if groups[s].is_empty() {
                    shard_order.push(s);
                }
                groups[s].push(k);
            }
            _ => tail.push(k),
        }
    }
    let mut order = Vec::with_capacity(reqs.len());
    for s in shard_order {
        order.extend(groups[s].iter().copied());
    }
    order.extend(tail);
    order
}

/// Apply one settled request's outcomes to the driver state, mirroring
/// exactly what the engine did: advance the cursor over `Done`s, track
/// touched shards of attempted ops, reset on `Restarted`, and run the
/// wait valve.
fn settle(
    db: &mut ShardedDb,
    st: &mut TxnState,
    chunk: &[BatchOp],
    outs: &[Op<Value>],
    commit: Option<Op<()>>,
) {
    // Every attempted op engaged its shard (the begin rides the op's
    // message), including the trailing non-`Done` one.
    for op in &chunk[..outs.len()] {
        let s = db.partition().shard_of(op.var());
        st.touch(s);
    }
    match outs.last() {
        Some(Op::Restarted) => {
            st.cursor = 0;
            st.touched.clear();
            st.wait_streak = 0;
            return;
        }
        Some(Op::Wait) => {
            st.cursor += outs.len() - 1;
            st.wait_streak += 1;
            if st.wait_streak >= WAIT_VALVE {
                db.restart(st.h).expect("live handle");
                st.cursor = 0;
                st.touched.clear();
                st.wait_streak = 0;
            }
            return;
        }
        _ => {
            st.cursor += outs.len();
            st.wait_streak = 0;
        }
    }
    match commit {
        // A committed request was also retired, inside the engine.
        Some(Op::Done(())) => st.committed = true,
        Some(Op::Wait) => {
            st.wait_streak += 1;
            if st.wait_streak >= WAIT_VALVE {
                db.restart(st.h).expect("live handle");
                st.cursor = 0;
                st.touched.clear();
                st.wait_streak = 0;
            }
        }
        Some(Op::Restarted) => {
            st.cursor = 0;
            st.touched.clear();
            st.wait_streak = 0;
        }
        None => {}
    }
}

/// Replay the recorded programs through one submission path. Returns
/// (commits in driver order, final state, committed state, metrics).
fn replay(
    cc: CcKind,
    shards: usize,
    seed: u64,
    mode: Mode,
) -> (Vec<bool>, GlobalState, GlobalState, Metrics) {
    let init = GlobalState::from_ints(&[7; NUM_VARS]);
    let mut db = ShardedDb::new(cc, init, shards);
    let programs = record_programs(&mut db, shards, seed);
    let mut states: Vec<TxnState> = programs
        .iter()
        .map(|_| TxnState {
            h: db.begin(),
            cursor: 0,
            committed: false,
            touched: Vec::new(),
            wait_streak: 0,
        })
        .collect();
    for _round in 0..ROUND_CAP {
        // This round's requests: each live transaction's remaining
        // program, commit always requested (it only fires when the
        // whole run completes).
        let reqs: Vec<(usize, Vec<BatchOp>)> = states
            .iter()
            .enumerate()
            .filter(|(_, st)| !st.committed)
            .map(|(ti, st)| (ti, programs[ti][st.cursor..].to_vec()))
            .collect();
        if reqs.is_empty() {
            break;
        }
        match mode {
            Mode::Group => {
                let greqs: Vec<GroupReq> = reqs
                    .iter()
                    .map(|(ti, chunk)| GroupReq {
                        h: states[*ti].h,
                        ops: chunk.clone(),
                        commit: true,
                    })
                    .collect();
                let resps = db.submit_group(greqs);
                for ((ti, chunk), resp) in reqs.iter().zip(resps) {
                    let outs = resp.results.expect("live handle");
                    let commit = resp.commit.map(|c| c.expect("live handle"));
                    settle(&mut db, &mut states[*ti], chunk, &outs, commit);
                }
            }
            Mode::PerOp | Mode::GroupOfOne => {
                // Same global op order as the engine's group execution.
                for k in canonical_order(&reqs, &states, &db) {
                    let (ti, chunk) = &reqs[k];
                    let h = states[*ti].h;
                    let (outs, commit) = if mode == Mode::GroupOfOne {
                        request(&mut db, h, chunk.clone(), true)
                    } else {
                        let mut outs = Vec::new();
                        for op in chunk {
                            let r = one_op(&mut db, h, *op);
                            outs.push(r);
                            if !matches!(r, Op::Done(_)) {
                                break;
                            }
                        }
                        let all_done = outs.len() == chunk.len()
                            && outs.iter().all(|r| matches!(r, Op::Done(_)));
                        let commit = all_done.then(|| {
                            let (_, commit) = request(&mut db, h, Vec::new(), true);
                            commit.expect("a zero-op run is all done, so it commits")
                        });
                        (outs, commit)
                    };
                    settle(&mut db, &mut states[*ti], chunk, &outs, commit);
                }
            }
        }
    }
    // Under `serial` one straggler can still be live at the cap when
    // schedules livelock; every path hits the same cap the same way.
    let commits: Vec<bool> = states.iter().map(|st| st.committed).collect();
    for st in &states {
        if !st.committed {
            let _ = db.abort(st.h);
        }
    }
    let (g, c, m) = (db.globals(), db.committed_globals(), db.metrics());
    (commits, g, c, m)
}

/// One request alone in its `submit_group` call: its run's outcomes and
/// its commit's, when one was attempted.
fn request(
    db: &mut ShardedDb,
    h: GlobalTxn,
    ops: Vec<BatchOp>,
    commit: bool,
) -> (Vec<Op<Value>>, Option<Op<()>>) {
    let resp = db
        .submit_group(vec![GroupReq { h, ops, commit }])
        .pop()
        .expect("one request, one response");
    (
        resp.results.expect("live handle"),
        resp.commit.map(|c| c.expect("live handle")),
    )
}

/// One data operation as a one-op request.
fn one_op(db: &mut ShardedDb, h: GlobalTxn, op: BatchOp) -> Op<Value> {
    let (mut outs, _) = request(db, h, vec![op], false);
    outs.pop().expect("a one-op run has one outcome")
}

/// The metrics that must agree bit-for-bit between submission paths:
/// everything except the messaging tallies (different by design) and
/// multi-version GC timing (`versions_reclaimed`, `max_chain_len` —
/// the pessimistic group-commit floor legally delays reclamation).
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
fn batched_submission_is_bit_identical_for_every_mechanism() {
    for cc in CcKind::ALL {
        for shards in [1usize, 2, 8] {
            let seed = 0xD1FF_0000 + shards as u64;
            let (commits_a, g_a, c_a, m_a) = replay(cc, shards, seed, Mode::PerOp);
            let (commits_b, g_b, c_b, m_b) = replay(cc, shards, seed, Mode::GroupOfOne);
            let (commits_c, g_c, c_c, m_c) = replay(cc, shards, seed, Mode::Group);
            let ctx = format!("{} S={shards}", cc.name());
            assert!(
                commits_a.iter().filter(|&&c| c).count() > 0,
                "{ctx}: workload must commit something to be a meaningful differential"
            );
            assert_eq!(
                commits_a, commits_b,
                "{ctx}: per-op vs group-of-one commit outcomes"
            );
            assert_eq!(
                commits_a, commits_c,
                "{ctx}: per-op vs group commit outcomes"
            );
            assert_eq!(g_a, g_b, "{ctx}: per-op vs group-of-one final state");
            assert_eq!(g_a, g_c, "{ctx}: per-op vs group final state");
            assert_eq!(c_a, c_b, "{ctx}: per-op vs group-of-one committed state");
            assert_eq!(c_a, c_c, "{ctx}: per-op vs group committed state");
            assert_eq!(
                decision_metrics(&m_a),
                decision_metrics(&m_b),
                "{ctx}: per-op vs group-of-one decision metrics"
            );
            assert_eq!(
                decision_metrics(&m_a),
                decision_metrics(&m_c),
                "{ctx}: per-op vs group decision metrics"
            );
        }
    }
}

#[test]
fn group_submission_kills_the_messaging_tax() {
    for kind in [CcKind::Strict2pl, CcKind::Si] {
        let cc = kind.name();
        for shards in [1usize, 2] {
            let seed = 0xD1FF_0000 + shards as u64;
            let (_, _, _, per_op) = replay(kind, shards, seed, Mode::PerOp);
            let (_, _, _, group) = replay(kind, shards, seed, Mode::Group);
            // Same ops executed (proved bit-identical above), far fewer
            // messages: whole transactions — begin, run, commit, retire
            // — ride one message on the packed path.
            assert_eq!(per_op.batched_ops, group.batched_ops, "{cc} S={shards}");
            assert!(
                group.shard_msgs * 2 <= per_op.shard_msgs,
                "{cc} S={shards}: group used {} messages vs per-op {} — \
                 batching bought less than 2×",
                group.shard_msgs,
                per_op.shard_msgs
            );
        }
    }
    // The exact price list, on a conflict-free n-op single-shard
    // transaction: one-op requests pay one message per operation (the
    // lazy begin rides the first), a separate commit and retire one
    // each; a group carries the whole lifecycle in one.
    let mut db = ShardedDb::new(CcKind::Strict2pl, GlobalState::from_ints(&[7; NUM_VARS]), 2);
    let vars: Vec<VarId> = db.partition().shard_vars(0).to_vec();
    let n = vars.len();
    assert!(n >= 2, "shard 0 owns several of the {NUM_VARS} variables");
    let before = db.metrics().shard_msgs;
    let h = db.begin();
    for &var in &vars {
        let r = one_op(&mut db, h, BatchOp::Affine { var, a: 1, c: 1 });
        assert!(matches!(r, Op::Done(_)));
    }
    assert_eq!(db.commit(h), Ok(Op::Done(())));
    db.retire(h).expect("committed");
    assert_eq!(db.metrics().shard_msgs - before, n + 2, "per-op messages");
    let before = db.metrics().shard_msgs;
    let h = db.begin();
    let resp = db
        .submit_group(vec![GroupReq {
            h,
            ops: vars
                .iter()
                .map(|&var| BatchOp::Affine { var, a: 1, c: 1 })
                .collect(),
            commit: true,
        }])
        .pop()
        .expect("one request, one response");
    assert_eq!(resp.commit, Some(Ok(Op::Done(()))));
    assert_eq!(db.metrics().shard_msgs - before, 1, "grouped messages");
}
