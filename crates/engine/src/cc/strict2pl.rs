//! Strict two-phase locking with shared and exclusive locks and
//! deadlock-victim abort.
//!
//! Every variable's lock is free, held exclusively (X) by one
//! transaction, or shared (S) by a number of readers, whose set is one
//! row of a bit matrix. A `Read` step takes or shares an S lock. A
//! `Write` or `Update` step takes X: it waits on an X holder or on any
//! *other* S holder, and a transaction that is the variable's sole reader
//! upgrades in place. Every lock is held to commit or abort (rigorous
//! 2PL), so the serialization order is the commit order.
//!
//! A writer blocked by several readers waits on exactly one of them, the
//! lowest-numbered reader other than itself, so the waits-for graph stays
//! functional and deadlock detection stays one chain walk. When that
//! reader finishes, its waiters' edges go and the writer's next ask names
//! the next reader. Detection stays complete: a blocker stops blocking
//! only by finishing, so in a deadlocked set every member waits only on
//! members of that set, the edges among them close a cycle, and the
//! request that would insert the closing edge is answered `Deadlock`. Two
//! readers of one variable that both upgrade are such a set.

use super::waits_for::WaitsFor;
use super::{CcConflict, CcDecision, ConcurrencyControl, ConflictRule, StepKind, TxnId, VarId};
use crate::dense::{ensure_index, BitMatrix};

/// One variable's lock.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
enum Lock {
    #[default]
    Free,
    /// Held by this many readers (at least one).
    Shared(u32),
    Exclusive(TxnId),
}

/// Strict 2PL: a shared lock per variable read, an exclusive one per
/// variable written, each acquired at first access and held to commit; a
/// lock request that would close a waits-for cycle aborts the requester.
#[derive(Default, Debug)]
pub struct Strict2plCc {
    /// Lock table: variable -> lock.
    locks: Vec<Lock>,
    /// The shared holders: row = variable, column = transaction.
    readers: BitMatrix,
    /// Current waits: waiter -> the one holder it waits on.
    waits: WaitsFor,
    /// Locks held per transaction, of either mode (insertion order; no
    /// duplicates, because a lock is appended only on first acquisition
    /// and an upgrade keeps its entry).
    held: Vec<Vec<VarId>>,
    /// Attribution of the last Wait/Abort.
    conflict: Option<CcConflict>,
}

impl ConcurrencyControl for Strict2plCc {
    fn prepare(&mut self, num_txns: usize, num_vars: usize) {
        if self.locks.len() < num_vars {
            self.locks.resize(num_vars, Lock::Free);
        }
        self.readers.reserve(num_vars, num_txns);
        self.waits.reserve(num_txns);
        ensure_index(&mut self.held, num_txns.saturating_sub(1));
    }

    fn begin(&mut self, t: TxnId, _tick: u64) {
        self.waits.unblock(t);
    }

    fn on_step(&mut self, t: TxnId, var: VarId, kind: StepKind) -> CcDecision {
        let v = var.index();
        if v >= self.locks.len() {
            self.grow_locks(v);
        }
        let blocker = match self.locks[v] {
            Lock::Exclusive(h) => (h != t).then_some(h),
            Lock::Free => {
                self.locks[v] = if kind == StepKind::Read {
                    self.readers.insert(v, t.index());
                    Lock::Shared(1)
                } else {
                    Lock::Exclusive(t)
                };
                self.hold(t, var);
                None
            }
            Lock::Shared(n) if kind == StepKind::Read => {
                if self.readers.insert(v, t.index()) {
                    self.locks[v] = Lock::Shared(n + 1);
                    self.hold(t, var);
                }
                None
            }
            Lock::Shared(n) => {
                let other = self.readers.first_other(v, t.index());
                if other.is_none() {
                    debug_assert!(n == 1 && self.readers.contains(v, t.index()));
                    self.readers.remove(v, t.index());
                    self.locks[v] = Lock::Exclusive(t);
                }
                other.map(|r| TxnId(r as u32))
            }
        };
        match blocker {
            None => {
                self.waits.unblock(t);
                CcDecision::Proceed
            }
            Some(h) => self.waits.wait(
                t,
                h,
                CcConflict::new(ConflictRule::LockWait, var, h),
                &mut self.conflict,
            ),
        }
    }

    fn on_commit(&mut self, _t: TxnId, _tick: u64) -> CcDecision {
        CcDecision::Proceed
    }

    fn after_commit(&mut self, t: TxnId) {
        self.release_all(t);
    }

    fn on_abort(&mut self, t: TxnId) {
        self.release_all(t);
    }

    fn name(&self) -> &str {
        "strict-2PL"
    }

    fn last_conflict(&self) -> Option<CcConflict> {
        self.conflict
    }
}

impl Strict2plCc {
    /// `t` took its first lock on `var`.
    fn hold(&mut self, t: TxnId, var: VarId) {
        ensure_index(&mut self.held, t.index());
        self.held[t.index()].push(var);
    }

    fn release_all(&mut self, t: TxnId) {
        if let Some(vars) = self.held.get_mut(t.index()) {
            for v in vars.drain(..) {
                let lock = &mut self.locks[v.index()];
                *lock = match *lock {
                    Lock::Shared(n) => {
                        self.readers.remove(v.index(), t.index());
                        if n == 1 {
                            Lock::Free
                        } else {
                            Lock::Shared(n - 1)
                        }
                    }
                    held => {
                        debug_assert_eq!(held, Lock::Exclusive(t));
                        Lock::Free
                    }
                };
            }
        }
        self.waits.finish(t);
    }

    /// Make variable `v` addressable. Out of line: after `prepare` the
    /// step path never grows.
    #[cold]
    #[inline(never)]
    fn grow_locks(&mut self, v: usize) {
        self.locks.resize(v + 1, Lock::Free);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::tests::{t, v};

    #[test]
    fn strict_2pl_detects_two_cycle() {
        let mut cc = Strict2plCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(
            cc.on_step(t(1), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_step(t(0), v(1), StepKind::Update), CcDecision::Wait);
        // T1 -> waits for T0's v0 while T0 waits for T1's v1: deadlock.
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Update), CcDecision::Abort);
        cc.on_abort(t(1));
        // After the victim aborts, T0 can take v1.
        assert_eq!(
            cc.on_step(t(0), v(1), StepKind::Update),
            CcDecision::Proceed
        );
    }

    #[test]
    fn strict_2pl_detects_long_wait_chains() {
        // A waits-for chain far past any small hop bound: t_i holds v_i and
        // waits for v_{i+1}; the last transaction closing the loop back to
        // v_0 must be picked as the deadlock victim.
        const N: u32 = 100;
        let mut cc = Strict2plCc::default();
        cc.prepare(N as usize + 1, N as usize + 1);
        for i in 0..=N {
            cc.begin(t(i), 0);
            assert_eq!(
                cc.on_step(t(i), v(i), StepKind::Update),
                CcDecision::Proceed
            );
        }
        for i in 0..N {
            assert_eq!(
                cc.on_step(t(i), v(i + 1), StepKind::Update),
                CcDecision::Wait,
                "txn {i} should block on txn {}",
                i + 1
            );
        }
        // t_N -> v_0 closes a 101-transaction cycle.
        assert_eq!(cc.on_step(t(N), v(0), StepKind::Update), CcDecision::Abort);
        cc.on_abort(t(N));
        // With the victim gone, t_{N-1} can take v_N.
        assert_eq!(
            cc.on_step(t(N - 1), v(N), StepKind::Update),
            CcDecision::Proceed
        );
    }

    #[test]
    fn strict_2pl_walk_survives_unrelated_wait_cycle() {
        // An existing wait chain among other transactions must neither hang
        // the walk nor produce a spurious deadlock verdict for a requester
        // outside it.
        let mut cc = Strict2plCc::default();
        for i in 0..4 {
            cc.begin(t(i), 0);
        }
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(
            cc.on_step(t(1), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_step(t(0), v(1), StepKind::Update), CcDecision::Wait);
        // t2 joins the queue on v0; the chain t2 -> t0 -> t1 has no cycle.
        assert_eq!(cc.on_step(t(2), v(0), StepKind::Update), CcDecision::Wait);
        // t3 on v1: chain t3 -> t1 is cycle-free too.
        assert_eq!(cc.on_step(t(3), v(1), StepKind::Update), CcDecision::Wait);
    }

    /// `(decision, attribution)` of one step; the attribution only for a
    /// non-Proceed answer.
    fn ask(
        cc: &mut Strict2plCc,
        i: u32,
        x: u32,
        kind: StepKind,
    ) -> (CcDecision, Option<CcConflict>) {
        let d = cc.on_step(t(i), v(x), kind);
        (
            d,
            (d != CcDecision::Proceed).then_some(cc.conflict).flatten(),
        )
    }

    fn lock_wait(x: u32, holder: u32) -> (CcDecision, Option<CcConflict>) {
        let c = CcConflict::new(ConflictRule::LockWait, v(x), t(holder));
        (CcDecision::Wait, Some(c))
    }

    const GO: (CcDecision, Option<CcConflict>) = (CcDecision::Proceed, None);

    #[test]
    fn two_readers_share_a_variable() {
        let mut cc = Strict2plCc::default();
        for i in 0..3 {
            cc.begin(t(i), 0);
        }
        assert_eq!(ask(&mut cc, 0, 0, StepKind::Read), GO);
        assert_eq!(ask(&mut cc, 1, 0, StepKind::Read), GO);
        // A repeated read takes nothing new.
        assert_eq!(ask(&mut cc, 0, 0, StepKind::Read), GO);
        assert_eq!(cc.locks[0], Lock::Shared(2));
        assert_eq!(cc.held[0], [v(0)]);
        // A third transaction's write waits; its read shares.
        assert_eq!(ask(&mut cc, 2, 0, StepKind::Write), lock_wait(0, 0));
        assert_eq!(ask(&mut cc, 2, 0, StepKind::Read), GO);
        assert_eq!(cc.locks[0], Lock::Shared(3));
    }

    #[test]
    fn a_writer_waits_on_the_lowest_numbered_other_reader() {
        let mut cc = Strict2plCc::default();
        for i in 0..5 {
            cc.begin(t(i), 0);
        }
        // Readers register out of slot order: 3, then 1, then 4.
        for i in [3, 1, 4] {
            assert_eq!(ask(&mut cc, i, 7, StepKind::Read), GO);
        }
        for _ in 0..3 {
            assert_eq!(ask(&mut cc, 0, 7, StepKind::Update), lock_wait(7, 1));
        }
        // A reader that upgrades skips itself.
        assert_eq!(ask(&mut cc, 1, 7, StepKind::Write), lock_wait(7, 3));
        // An X holder blocks readers and writers alike.
        assert_eq!(ask(&mut cc, 2, 8, StepKind::Write), GO);
        assert_eq!(ask(&mut cc, 4, 8, StepKind::Read), lock_wait(8, 2));
    }

    #[test]
    fn a_sole_reader_upgrades_in_place() {
        let mut cc = Strict2plCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(ask(&mut cc, 0, 0, StepKind::Read), GO);
        assert_eq!(ask(&mut cc, 0, 0, StepKind::Update), GO);
        assert_eq!(cc.locks[0], Lock::Exclusive(t(0)));
        assert!(!cc.readers.contains(0, 0));
        assert_eq!(cc.held[0], [v(0)], "an upgrade keeps its one entry");
        assert_eq!(ask(&mut cc, 1, 0, StepKind::Read), lock_wait(0, 0));
        cc.after_commit(t(0));
        assert_eq!(cc.locks[0], Lock::Free);
        assert_eq!(ask(&mut cc, 1, 0, StepKind::Read), GO);
    }

    #[test]
    fn two_upgrading_readers_deadlock() {
        let mut cc = Strict2plCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(ask(&mut cc, 0, 0, StepKind::Read), GO);
        assert_eq!(ask(&mut cc, 1, 0, StepKind::Read), GO);
        assert_eq!(ask(&mut cc, 0, 0, StepKind::Update), lock_wait(0, 1));
        let deadlock = CcConflict::new(ConflictRule::Deadlock, v(0), t(0));
        assert_eq!(
            ask(&mut cc, 1, 0, StepKind::Update),
            (CcDecision::Abort, Some(deadlock))
        );
        cc.on_abort(t(1));
        assert_eq!(cc.locks[0], Lock::Shared(1));
        assert_eq!(ask(&mut cc, 0, 0, StepKind::Update), GO);
        assert_eq!(cc.locks[0], Lock::Exclusive(t(0)));
    }

    #[test]
    fn a_read_after_the_own_write_proceeds() {
        let mut cc = Strict2plCc::default();
        cc.begin(t(0), 0);
        assert_eq!(ask(&mut cc, 0, 0, StepKind::Write), GO);
        assert_eq!(ask(&mut cc, 0, 0, StepKind::Read), GO);
        assert_eq!(ask(&mut cc, 0, 0, StepKind::Update), GO);
        assert_eq!(cc.locks[0], Lock::Exclusive(t(0)));
        assert!(!cc.readers.contains(0, 0));
        assert_eq!(cc.held[0], [v(0)]);
    }

    #[test]
    fn a_finished_reader_frees_its_waiters() {
        let mut cc = Strict2plCc::default();
        for i in 0..3 {
            cc.begin(t(i), 0);
        }
        assert_eq!(ask(&mut cc, 1, 0, StepKind::Read), GO);
        assert_eq!(ask(&mut cc, 2, 0, StepKind::Read), GO);
        assert_eq!(ask(&mut cc, 0, 0, StepKind::Write), lock_wait(0, 1));
        cc.after_commit(t(1));
        // The edge to the finished reader is gone; the next ask names the
        // reader that is left.
        assert_eq!(ask(&mut cc, 0, 0, StepKind::Write), lock_wait(0, 2));
        cc.on_abort(t(2));
        assert_eq!(cc.locks[0], Lock::Free);
        assert_eq!(ask(&mut cc, 0, 0, StepKind::Write), GO);
        assert_eq!(cc.locks[0], Lock::Exclusive(t(0)));
    }

    #[test]
    fn prepare_presizes_without_changing_behavior() {
        let mut a = Strict2plCc::default();
        let mut b = Strict2plCc::default();
        b.prepare(8, 8);
        let mut answers = Vec::new();
        for cc in [&mut a, &mut b] {
            for i in 0..4 {
                cc.begin(t(i), 0);
            }
            answers.push([
                ask(cc, 0, 0, StepKind::Update),
                ask(cc, 1, 0, StepKind::Update),
                ask(cc, 2, 5, StepKind::Read),
                ask(cc, 3, 5, StepKind::Read),
                ask(cc, 2, 5, StepKind::Update),
                ask(cc, 3, 5, StepKind::Update),
                ask(cc, 1, 7, StepKind::Read),
                ask(cc, 0, 7, StepKind::Write),
            ]);
        }
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[0][1], lock_wait(0, 0));
        assert_eq!(answers[0][4], lock_wait(5, 3));
        assert_eq!(answers[0][5].0, CcDecision::Abort);
        assert_eq!(answers[0][7], lock_wait(7, 1));
        // Within the announced dimensions nothing grew.
        assert_eq!((b.locks.len(), b.held.len()), (8, 8));
    }
}
