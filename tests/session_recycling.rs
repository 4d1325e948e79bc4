//! Differential property: a transaction run in a **recycled** dense slot
//! behaves identically — operation outcomes, observed values, metric
//! deltas, final state — to the same transaction in a **fresh** database
//! that starts from the warmed-up state. Across all 7 mechanisms, which
//! covers both store kinds (single-version with undo logs, multi-version
//! with GC'd chains).
//!
//! The warm database first serves a concurrent batch of random sessions
//! (with restarts, client abandons, and retirements — so the probe's slot
//! really was occupied, dirtied and recycled, possibly several times);
//! the fresh database is constructed directly from the warm one's
//! committed state. Any leak of per-slot CC state, write-buffer content,
//! undo entries, or version bookkeeping across retirement shows up as a
//! divergence.

use ccopt::engine::session::{Op, SessionDb, Txn};
use ccopt::engine::{CcKind, Metrics};
use ccopt::model::ids::VarId;
use ccopt::model::state::GlobalState;
use ccopt::model::syntax::StepKind;
use ccopt::model::value::Value;
use ccopt::sim::open_sim::{submit_op, OpSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const VARS: usize = 4;

/// Draw a random program of the open-world [`OpSpec`] shape (the op
/// semantics — affine update, blind write, modular bound — live in one
/// place, `ccopt::sim::open_sim`, shared with the simulator).
fn gen_program(rng: &mut SmallRng, len: (usize, usize)) -> Vec<OpSpec> {
    let n = rng.gen_range(len.0..=len.1);
    (0..n)
        .map(|_| {
            let kind = match rng.gen_range(0..4u32) {
                0 => StepKind::Read,
                1 => StepKind::Write,
                _ => StepKind::Update,
            };
            OpSpec {
                var: VarId(rng.gen_range(0..VARS as u32)),
                kind,
                a: [1i64, 1, 2, -1][rng.gen_range(0..4usize)],
                c: rng.gen_range(-2i64..=2),
            }
        })
        .collect()
}

/// Drive a concurrent batch of sessions to completion: a round-robin sweep
/// with replay-on-restart, commit-and-retire at the end, a random fifth of
/// them abandoned mid-flight (client abort), and a stall valve mirroring
/// the engine's round-robin driver.
fn warmup(db: &mut SessionDb, rng: &mut SmallRng, sessions: usize) {
    struct Live {
        h: Txn,
        prog: Vec<OpSpec>,
        next: usize,
        /// Abandon (client-abort) after this many ops instead of committing.
        abandon_at: Option<usize>,
        done: bool,
    }
    let mut live: Vec<Live> = (0..sessions)
        .map(|_| {
            let prog = gen_program(rng, (2, 5));
            let abandon_at = if rng.gen_range(0..5u32) == 0 {
                Some(rng.gen_range(0..=prog.len()))
            } else {
                None
            };
            Live {
                h: db.begin(),
                prog,
                next: 0,
                abandon_at,
                done: false,
            }
        })
        .collect();
    // Phase 1: concurrent round-robin sweeps (restart ping-pong between
    // mechanisms like T/O can keep this phase from converging — that is a
    // scheduling artifact of the lockstep driver, handled by phase 2).
    for _sweep in 0..500 {
        let mut progressed = false;
        let mut all_done = true;
        for s in live.iter_mut() {
            if s.done {
                continue;
            }
            all_done = false;
            if s.abandon_at == Some(s.next) {
                db.abort(s.h).expect("live handle");
                s.done = true;
                progressed = true;
                continue;
            }
            if s.next == s.prog.len() {
                match db.commit(s.h).expect("live handle") {
                    Op::Done(()) => {
                        db.retire(s.h).expect("committed");
                        s.done = true;
                        progressed = true;
                    }
                    Op::Restarted => {
                        s.next = 0;
                        progressed = true;
                    }
                    Op::Wait => {}
                }
            } else {
                match submit_op(db, s.h, s.prog[s.next]) {
                    Op::Done(_) => {
                        s.next += 1;
                        progressed = true;
                    }
                    Op::Restarted => {
                        s.next = 0;
                        progressed = true;
                    }
                    Op::Wait => {}
                }
            }
        }
        if all_done {
            return;
        }
        if !progressed {
            // Everyone waited: restart the first waiter (the engine's
            // live-lock safety valve).
            let s = live.iter_mut().find(|s| !s.done).expect("not all done");
            db.restart(s.h).expect("live handle");
            s.next = 0;
        }
    }
    // Phase 2: serialize the stragglers. Restart every other unfinished
    // session (dropping its locks, stamps and pending writes), then drive
    // the chosen one solo to completion; repeat. Always converges.
    for i in 0..live.len() {
        if live[i].done {
            continue;
        }
        'one: for _attempt in 0..10_000 {
            for (k, other) in live.iter_mut().enumerate() {
                if k != i && !other.done {
                    db.restart(other.h).expect("live handle");
                    other.next = 0;
                }
            }
            let s = &mut live[i];
            if s.abandon_at == Some(s.next) {
                db.abort(s.h).expect("live handle");
                s.done = true;
                break 'one;
            }
            let outcome = if s.next == s.prog.len() {
                db.commit(s.h)
                    .expect("live handle")
                    .map_done(|()| Value::Int(0))
            } else {
                submit_op(db, s.h, s.prog[s.next])
            };
            match outcome {
                Op::Done(_) if s.next == s.prog.len() => {
                    db.retire(s.h).expect("committed");
                    s.done = true;
                    break 'one;
                }
                Op::Done(_) => s.next += 1,
                Op::Restarted => s.next = 0,
                Op::Wait => {}
            }
        }
        assert!(live[i].done, "serialized straggler did not converge");
    }
}

/// Execute the probe solo and record everything observable.
fn run_probe(db: &mut SessionDb, prog: &[OpSpec]) -> (Vec<Value>, GlobalState, Metrics, u32) {
    let before = db.metrics;
    let h = db.begin();
    let mut observed = Vec::with_capacity(prog.len());
    for &op in prog {
        match submit_op(db, h, op) {
            Op::Done(v) => observed.push(v),
            other => panic!("solo probe must execute directly, got {other:?}"),
        }
    }
    assert_eq!(db.commit(h), Ok(Op::Done(())));
    let attempts = db.attempts(h).expect("committed handle");
    db.retire(h).expect("committed handle");
    let after = db.metrics;
    let delta = Metrics {
        steps_executed: after.steps_executed - before.steps_executed,
        waits: after.waits - before.waits,
        aborts: after.aborts - before.aborts,
        commits: after.commits - before.commits,
        mv_write_aborts: after.mv_write_aborts - before.mv_write_aborts,
        versions_installed: after.versions_installed - before.versions_installed,
        // GC and chain gauges depend on the surrounding history, not the
        // probe's behavior: excluded from the differential. WAL counters
        // stay zero here (these databases run without durability).
        versions_reclaimed: 0,
        max_chain_len: 0,
        retires: after.retires - before.retires,
        ..Metrics::default()
    };
    (observed, db.globals(), delta, attempts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The differential: warm (recycled slots) vs fresh (virgin slots),
    /// same probe, identical behavior — exhaustively over all 7
    /// mechanisms per generated case.
    #[test]
    fn recycled_slot_is_indistinguishable_from_fresh(seed in 0u64..400) {
        for (cc_idx, kind) in CcKind::ALL.into_iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(cc_idx as u64));
        let init = GlobalState::from_ints(&[0; VARS]);

        // Warm database: concurrent batch, everything finished and retired.
        let mut warm = SessionDb::with_capacity(kind.build(), init, 5);
        warmup(&mut warm, &mut rng, 5);
        prop_assert_eq!(warm.open_sessions(), 0, "warmup must retire everything");
        prop_assert_eq!(warm.pending_retires(), 0, "quiescent retirement must drain");
        let warmed_state = warm.globals();
        let slots_before_probe = warm.num_slots();
        prop_assert!(slots_before_probe >= 1);

        // The probe program, run in a recycled slot of the warm database...
        let probe = gen_program(&mut rng, (3, 6));
        let (obs_w, fin_w, delta_w, attempts_w) = run_probe(&mut warm, &probe);
        prop_assert_eq!(
            warm.num_slots(),
            slots_before_probe,
            "the probe must recycle a retired slot, not grow the table"
        );

        // ... and in slot 0 of a fresh database starting from the same state.
        let mut fresh = SessionDb::new(kind.build(), warmed_state);
        let (obs_f, fin_f, delta_f, attempts_f) = run_probe(&mut fresh, &probe);

        prop_assert_eq!(&obs_w, &obs_f, "observed values diverged (cc {})", kind.name());
        prop_assert_eq!(&fin_w, &fin_f, "final state diverged (cc {})", kind.name());
        prop_assert_eq!(delta_w, delta_f, "metric deltas diverged (cc {})", kind.name());
        prop_assert_eq!(attempts_w, 1u32);
        prop_assert_eq!(attempts_f, 1u32);
        }
    }
}
