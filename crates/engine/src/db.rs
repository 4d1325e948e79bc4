//! The closed-world database driver: the paper's fixed transaction system,
//! executed step by step with commit, rollback and restart.
//!
//! Since the session redesign this type is a thin adapter over
//! [`SessionDb`]: it opens one session per transaction of the system up
//! front, holds each transaction's program state (program counter and
//! locals), and maps every [`step`](Database::step) onto the session
//! operations — [`SessionDb::apply`] for accesses, [`SessionDb::commit`]
//! at the last step. It never retires sessions (the closed world runs each
//! transaction exactly once and then inspects it), so dense ids stay
//! frozen exactly as the paper assumes. Shared accessors (`metrics`,
//! `globals`, `cc_name`, `live_versions`, ...) come from the session layer
//! through `Deref`.

use crate::metrics::Metrics;
use crate::session::{Op, SessionDb, SessionStatus, Txn};
use ccopt_model::ids::{StepId, TxnId};
use ccopt_model::state::GlobalState;
use ccopt_model::system::TransactionSystem;
use ccopt_model::value::Value;
use std::ops::Deref;

/// Program state of one closed-world transaction.
struct Prog {
    handle: Txn,
    next_step: u32,
    locals: Vec<Option<Value>>,
}

/// Outcome of attempting one step.
#[must_use = "a StepOutcome not inspected loses waits and aborts"]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// The step executed (and the transaction committed if it was the last).
    Executed {
        /// Did this step complete and commit the transaction?
        committed: bool,
    },
    /// The concurrency control said wait; nothing changed.
    Waited,
    /// The transaction aborted and was rolled back; it will restart.
    Aborted,
    /// The transaction is already committed.
    AlreadyCommitted,
}

/// An in-memory database executing one transaction system instance — the
/// closed-world adapter over the open-world [`SessionDb`].
pub struct Database {
    sys: TransactionSystem,
    format: Vec<u32>,
    session: SessionDb,
    progs: Vec<Prog>,
}

// Read-only deref: shared accessors (`metrics`, `globals`, `cc_name`,
// `live_versions`, ...) come straight from the session layer. Deliberately
// no `DerefMut` — mutating the session behind the adapter's back (aborting
// or restarting a session whose program state `progs` still tracks) would
// desynchronize the two.
impl Deref for Database {
    type Target = SessionDb;

    fn deref(&self) -> &SessionDb {
        &self.session
    }
}

impl Database {
    /// Create a database over `sys` starting from `init`, using `cc`.
    pub fn new(
        sys: TransactionSystem,
        cc: Box<dyn crate::cc::ConcurrencyControl>,
        init: GlobalState,
    ) -> Self {
        let format = sys.format();
        let mut session = SessionDb::with_capacity(cc, init, format.len());
        let progs = format
            .iter()
            .map(|&m| Prog {
                handle: session.begin(),
                next_step: 0,
                locals: vec![None; m as usize],
            })
            .collect();
        Database {
            sys,
            format,
            session,
            progs,
        }
    }

    /// Has every transaction committed?
    pub fn all_committed(&self) -> bool {
        self.progs
            .iter()
            .all(|p| self.session.status(p.handle) == SessionStatus::Committed)
    }

    /// Is transaction `t` committed?
    pub fn committed(&self, t: TxnId) -> bool {
        self.session.status(self.progs[t.index()].handle) == SessionStatus::Committed
    }

    /// Number of restart attempts of `t` so far (1 = first run).
    pub fn attempts(&self, t: TxnId) -> u32 {
        self.session
            .attempts(self.progs[t.index()].handle)
            .expect("closed-world handles are never retired")
    }

    /// Wait outcomes of `t` across its whole lifetime (all attempts).
    pub fn waits(&self, t: TxnId) -> u32 {
        self.session
            .waits(self.progs[t.index()].handle)
            .expect("closed-world handles are never retired")
    }

    /// Attempt the next step of transaction `t`.
    pub fn step(&mut self, t: TxnId) -> StepOutcome {
        let ti = t.index();
        let h = self.progs[ti].handle;
        if self.session.status(h) == SessionStatus::Committed {
            return StepOutcome::AlreadyCommitted;
        }
        let m = self.format[ti];
        let j = self.progs[ti].next_step;
        if j == m {
            // Every access ran but a previous commit request waited: only
            // the commit is outstanding.
            return self.try_commit(ti);
        }
        let step_id = StepId { txn: t, idx: j };
        let sx = self.sys.syntax.step(step_id);

        // Execute: t_ij <- x ; x <- rho(t_i1..t_ij). Only writes evaluate
        // the step function: a declared Read step's function is the
        // identity on its variable (checked in debug builds below), so
        // evaluating it would be wasted work on the read hot path.
        let interp = &self.sys.interp;
        let locals = &mut self.progs[ti].locals;
        let outcome = self.session.apply(h, sx.var, sx.kind, |observed| {
            locals[j as usize] = Some(observed);
            let args: Vec<Value> = locals[..=j as usize]
                .iter()
                .map(|v| v.expect("locals filled in order"))
                .collect();
            interp
                .apply(step_id, &args)
                .expect("engine systems use total interpretations")
        });
        match outcome.expect("closed-world handles are never retired") {
            Op::Wait => StepOutcome::Waited,
            Op::Restarted => {
                self.reset_prog(ti);
                StepOutcome::Aborted
            }
            Op::Done(observed) => {
                self.progs[ti].locals[j as usize] = Some(observed);
                #[cfg(debug_assertions)]
                if !sx.kind.writes() {
                    let args: Vec<Value> = self.progs[ti].locals[..=j as usize]
                        .iter()
                        .map(|v| v.expect("locals filled in order"))
                        .collect();
                    let evaluated = self
                        .sys
                        .interp
                        .apply(step_id, &args)
                        .expect("engine systems use total interpretations");
                    debug_assert!(
                        evaluated == observed,
                        "declared Read step {step_id:?} is not the identity on its variable"
                    );
                }
                self.progs[ti].next_step = j + 1;
                if j + 1 == m {
                    self.try_commit(ti)
                } else {
                    StepOutcome::Executed { committed: false }
                }
            }
        }
    }

    /// Request the commit of transaction slot `ti` from the session layer.
    fn try_commit(&mut self, ti: usize) -> StepOutcome {
        let h = self.progs[ti].handle;
        match self
            .session
            .commit(h)
            .expect("closed-world handles are never retired")
        {
            Op::Done(()) => StepOutcome::Executed { committed: true },
            Op::Wait => StepOutcome::Waited,
            Op::Restarted => {
                self.reset_prog(ti);
                StepOutcome::Aborted
            }
        }
    }

    /// Rewind the program after the session restarted the transaction.
    fn reset_prog(&mut self, ti: usize) {
        self.progs[ti].next_step = 0;
        self.progs[ti].locals.iter_mut().for_each(|l| *l = None);
    }

    /// Force-abort `t` (the round-robin live-lock safety valve): the
    /// session rolls it back and restarts it, and the program rewinds.
    fn abort(&mut self, t: TxnId) {
        let ti = t.index();
        self.session
            .restart(self.progs[ti].handle)
            .expect("closed-world handles are never retired");
        self.reset_prog(ti);
    }

    /// Drive the database with a round-robin policy biased by `order`:
    /// repeatedly walk `order`, attempting one step of each uncommitted
    /// transaction, until everything commits, and return the engine
    /// counters. Returns `None` if progress stalls for `max_rounds` full
    /// sweeps (should not happen with the provided CC mechanisms, which
    /// always abort someone on deadlock).
    pub fn run_round_robin(&mut self, order: &[TxnId], max_rounds: usize) -> Option<Metrics> {
        let mut rounds = 0;
        while !self.all_committed() {
            rounds += 1;
            if rounds > max_rounds {
                return None;
            }
            let mut progressed = false;
            for &t in order {
                if self.committed(t) {
                    continue;
                }
                match self.step(t) {
                    StepOutcome::Executed { .. } | StepOutcome::Aborted => progressed = true,
                    StepOutcome::Waited | StepOutcome::AlreadyCommitted => {}
                }
            }
            if !progressed {
                // Everyone waited: let the CC break the tie by aborting the
                // first waiter (live-lock safety valve; strict 2PL's cycle
                // detection normally prevents reaching here).
                if let Some(t) = (0..self.progs.len())
                    .map(|i| TxnId(i as u32))
                    .find(|&t| !self.committed(t))
                {
                    self.abort(t);
                }
            }
        }
        Some(self.metrics)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{CcKind, MvtoCc, SerialCc, SiCc, Strict2plCc};
    use ccopt_model::exec::Executor;
    use ccopt_model::ids::VarId;
    use ccopt_model::systems;
    use ccopt_schedule::schedule::permutations;

    // SI rides along in `CcKind::ALL` here because on these systems every
    // concurrent pair has overlapping write sets, where
    // first-committer-wins degenerates to serializable behavior; the
    // write-skew boundary it actually admits is pinned by
    // `tests/mv_anomalies.rs`.

    /// Every CC must produce a final state equal to SOME serial execution
    /// (state-level serializability), for every round-robin order.
    #[test]
    fn every_cc_is_state_serializable_on_fig3() {
        let sys = systems::fig3_pair();
        let init = sys.space.initial_states[0].clone();
        // Precompute serial outcomes.
        let ex = Executor::new(&sys);
        let ids: Vec<TxnId> = (0..sys.num_txns() as u32).map(TxnId).collect();
        let serial_states: Vec<GlobalState> = permutations(&ids)
            .into_iter()
            .map(|order| ex.run_concatenation(init.clone(), &order).unwrap())
            .collect();
        for order in permutations(&ids) {
            for kind in CcKind::ALL {
                let name = kind.name();
                let mut db = Database::new(sys.clone(), kind.build(), init.clone());
                let m = db
                    .run_round_robin(&order, 1000)
                    .unwrap_or_else(|| panic!("{name} stalled"));
                assert!(m.commits >= 2);
                let fin = db.globals();
                assert!(
                    serial_states.contains(&fin),
                    "{name} produced non-serializable state {fin} for order {order:?}"
                );
            }
        }
    }

    #[test]
    fn hotspot_increments_are_never_lost() {
        // n transactions x steps incrementing one variable: final value
        // must be exactly n*steps under every CC.
        let sys = systems::hotspot(3, 2);
        let init = GlobalState::from_ints(&[0]);
        let ids: Vec<TxnId> = (0..3u32).map(TxnId).collect();
        for kind in CcKind::ALL {
            let name = kind.name();
            let mut db = Database::new(sys.clone(), kind.build(), init.clone());
            db.run_round_robin(&ids, 1000)
                .unwrap_or_else(|| panic!("{name} stalled"));
            assert_eq!(
                db.globals().get(VarId(0)),
                Some(Value::Int(6)),
                "{name} lost updates"
            );
        }
    }

    #[test]
    fn strict_2pl_resolves_the_fig3_deadlock_by_abort() {
        let sys = systems::fig3_pair();
        let init = sys.space.initial_states[0].clone();
        let mut db = Database::new(sys, Box::new(Strict2plCc::default()), init);
        // Interleave so both take their first lock: T1 x, T2 y, then cross.
        let _ = db.step(TxnId(0)); // T1: x
        let _ = db.step(TxnId(1)); // T2: y
        let a = db.step(TxnId(0)); // T1 wants y -> wait
        assert_eq!(a, StepOutcome::Waited);
        let b = db.step(TxnId(1)); // T2 wants x -> deadlock -> abort
        assert_eq!(b, StepOutcome::Aborted);
        assert!(db.metrics.aborts >= 1);
        // Finish everything.
        db.run_round_robin(&[TxnId(0), TxnId(1)], 1000).unwrap();
        assert!(db.all_committed());
    }

    #[test]
    fn aborted_transaction_leaves_no_trace() {
        let sys = systems::fig3_pair();
        let init = sys.space.initial_states[0].clone();
        let mut db = Database::new(sys.clone(), Box::new(Strict2plCc::default()), init.clone());
        let _ = db.step(TxnId(0));
        let _ = db.step(TxnId(1));
        let _ = db.step(TxnId(0));
        let _ = db.step(TxnId(1)); // T2 aborts
                                   // T2's write to y must be rolled back: finish only T1 and compare
                                   // with T1 running alone.
        while !db.committed(TxnId(0)) {
            let _ = db.step(TxnId(0));
        }
        let ex = Executor::new(&sys);
        let solo = ex.run_transaction(init, TxnId(0)).unwrap();
        assert_eq!(db.globals(), solo.globals);
        assert!(db.attempts(TxnId(1)) >= 2);
    }

    #[test]
    fn banking_consistency_preserved_under_all_ccs() {
        let sys = systems::banking();
        let ids: Vec<TxnId> = (0..3u32).map(TxnId).collect();
        for init in sys.space.initial_states.clone() {
            for kind in CcKind::ALL {
                let name = kind.name();
                let mut db = Database::new(sys.clone(), kind.build(), init.clone());
                db.run_round_robin(&ids, 2000)
                    .unwrap_or_else(|| panic!("{name} stalled"));
                assert!(
                    sys.ic.is_consistent(&db.globals()),
                    "{name} broke the banking invariant from {init}"
                );
            }
        }
    }

    /// A reader/writer pair for snapshot tests: T1 reads x and y and writes
    /// their sum to z; T2 increments x then y.
    fn snapshot_pair() -> TransactionSystem {
        use ccopt_model::expr::Expr;
        use ccopt_model::ic::TrueIc;
        use ccopt_model::interp::ExprInterpretation;
        use ccopt_model::syntax::SyntaxBuilder;
        use ccopt_model::system::StateSpace;
        use std::sync::Arc;
        let syn = SyntaxBuilder::new()
            .vars(["x", "y", "z"])
            .txn("reader", |t| t.read("x").read("y").write("z"))
            .txn("writer", |t| t.update("x").update("y"))
            .build();
        let interp = ExprInterpretation::new(vec![
            vec![
                Expr::Local(0),
                Expr::Local(1),
                Expr::add(Expr::Local(0), Expr::Local(1)),
            ],
            vec![
                Expr::add(Expr::Local(0), Expr::Const(1)),
                Expr::add(Expr::Local(1), Expr::Const(1)),
            ],
        ]);
        TransactionSystem::new(
            "snapshot-pair",
            syn,
            Arc::new(interp),
            Arc::new(TrueIc),
            StateSpace::from_ints(&[&[10, 20, 0]]),
        )
    }

    #[test]
    fn mvto_snapshot_reads_see_begin_time_state() {
        // The writer commits *between* the reader's two reads; the reader
        // still observes the begin-time snapshot of both variables, never
        // waits, never aborts, and its committed sum pins the old values.
        let sys = snapshot_pair();
        let init = sys.space.initial_states[0].clone();
        let mut db = Database::new(sys, Box::new(MvtoCc::default()), init);
        let reader = TxnId(0);
        let writer = TxnId(1);
        assert_eq!(db.step(reader), StepOutcome::Executed { committed: false }); // r(x) = 10
        assert_eq!(db.step(writer), StepOutcome::Executed { committed: false }); // x += 1
        assert_eq!(db.step(writer), StepOutcome::Executed { committed: true }); // y += 1, commit
        assert_eq!(db.step(reader), StepOutcome::Executed { committed: false }); // r(y) = 20, not 21
        assert_eq!(db.step(reader), StepOutcome::Executed { committed: true }); // z <- 30
        let fin = db.globals();
        assert_eq!(fin, GlobalState::from_ints(&[11, 21, 30]));
        assert_eq!(db.attempts(reader), 1);
        assert_eq!(db.waits(reader), 0);
        assert_eq!(db.metrics.aborts, 0);
        assert_eq!(db.metrics.waits, 0);
    }

    #[test]
    fn single_version_mechanisms_cannot_run_that_interleaving_wait_free() {
        // The same interleaving under strict 2PL: the writer blocks on the
        // reader's lock — the contrast the multi-version store removes.
        let sys = snapshot_pair();
        let init = sys.space.initial_states[0].clone();
        let mut db = Database::new(sys, Box::new(Strict2plCc::default()), init);
        assert_eq!(
            db.step(TxnId(0)),
            StepOutcome::Executed { committed: false }
        );
        assert_eq!(db.step(TxnId(1)), StepOutcome::Waited);
        assert!(db.waits(TxnId(1)) > 0);
    }

    #[test]
    fn sgt_runs_disjoint_work_untouched_while_serial_waits() {
        use ccopt_model::expr::Expr;
        use ccopt_model::ic::TrueIc;
        use ccopt_model::interp::ExprInterpretation;
        use ccopt_model::syntax::SyntaxBuilder;
        use ccopt_model::system::StateSpace;
        use std::sync::Arc;
        let syn = SyntaxBuilder::new()
            .txn("T1", |t| t.update("x").update("x").update("x"))
            .txn("T2", |t| t.update("y").update("y").update("y"))
            .build();
        let bump = || (0..3).map(|j| Expr::add(Expr::Local(j), Expr::Const(1)));
        let interp = ExprInterpretation::new(vec![bump().collect(), bump().collect()]);
        let sys = TransactionSystem::new(
            "disjoint",
            syn,
            Arc::new(interp),
            Arc::new(TrueIc),
            StateSpace::from_ints(&[&[0, 0]]),
        );
        let ids = [TxnId(0), TxnId(1)];
        let run = |kind: CcKind| {
            let init = sys.space.initial_states[0].clone();
            let mut db = Database::new(sys.clone(), kind.build(), init);
            db.run_round_robin(&ids, 1000).expect("completes")
        };
        let sgt = run(CcKind::Sgt);
        assert_eq!((sgt.commits, sgt.waits, sgt.aborts), (2, 0, 0));
        assert!(run(CcKind::Serial).waits > 0, "the serial token blocks T2");
    }

    #[test]
    fn mv_gc_collapses_chains_after_quiescence() {
        let sys = systems::hotspot(4, 3);
        let ids: Vec<TxnId> = (0..4u32).map(TxnId).collect();
        let init = GlobalState::from_ints(&[0]);
        let mut db = Database::new(sys, Box::new(MvtoCc::default()), init);
        db.run_round_robin(&ids, 10_000).expect("completes");
        assert_eq!(db.globals().get(VarId(0)), Some(Value::Int(12)));
        // Every committed writer installed a version; with no snapshot left
        // alive the watermark reclaimed all history down to one version.
        assert_eq!(db.metrics.versions_installed, 4);
        assert_eq!(db.metrics.versions_reclaimed, 4);
        assert_eq!(db.live_versions(), Some(1));
        assert!(db.metrics.max_chain_len >= 2);
        // Single-version runs report no version store.
        let sys = systems::hotspot(2, 1);
        let db = Database::new(
            sys,
            Box::new(SerialCc::default()),
            GlobalState::from_ints(&[0]),
        );
        assert_eq!(db.live_versions(), None);
    }

    #[test]
    fn si_counts_write_write_aborts() {
        let sys = systems::hotspot(3, 2);
        let ids: Vec<TxnId> = (0..3u32).map(TxnId).collect();
        let mut db = Database::new(sys, Box::new(SiCc::default()), GlobalState::from_ints(&[0]));
        db.run_round_robin(&ids, 10_000).expect("completes");
        // First-committer-wins forces the concurrent updaters to retry; the
        // hotspot increments still all land.
        assert_eq!(db.globals().get(VarId(0)), Some(Value::Int(6)));
        assert!(db.metrics.mv_write_aborts > 0);
        assert!(db.metrics.mv_write_aborts <= db.metrics.aborts);
    }

    #[test]
    fn round_robin_reports_stall_with_tiny_budget() {
        let sys = systems::fig3_pair();
        let init = sys.space.initial_states[0].clone();
        let mut db = Database::new(sys, Box::new(SerialCc::default()), init);
        assert!(db.run_round_robin(&[TxnId(0), TxnId(1)], 0).is_none());
    }
}
