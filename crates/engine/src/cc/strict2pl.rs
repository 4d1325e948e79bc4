//! Strict two-phase locking with deadlock-victim abort.

use super::waits_for::WaitsFor;
use super::{CcConflict, CcDecision, ConcurrencyControl, ConflictRule, StepKind, TxnId, VarId};
use crate::dense::{ensure_index, SlotMap};

/// Strict 2PL: exclusive lock per variable acquired at first access, all
/// locks held to commit; a lock request that would close a waits-for cycle
/// aborts the requester.
#[derive(Default, Debug)]
pub struct Strict2plCc {
    /// Lock table: variable slot -> holder.
    locks: SlotMap<TxnId>,
    /// Current waits: waiter -> holder.
    waits: WaitsFor,
    /// Locks held per transaction (insertion order; no duplicates, because
    /// a lock is appended only on first acquisition).
    held: Vec<Vec<VarId>>,
    /// Attribution of the last Wait/Abort.
    conflict: Option<CcConflict>,
}

impl ConcurrencyControl for Strict2plCc {
    fn prepare(&mut self, num_txns: usize, num_vars: usize) {
        self.locks.reserve_slots(num_vars);
        self.waits.reserve(num_txns);
        ensure_index(&mut self.held, num_txns.saturating_sub(1));
    }

    fn begin(&mut self, t: TxnId, _tick: u64) {
        self.waits.unblock(t);
    }

    fn on_step(&mut self, t: TxnId, var: VarId, _kind: StepKind) -> CcDecision {
        match self.locks.get_copied(var.index()) {
            None => {
                self.locks.insert(var.index(), t);
                ensure_index(&mut self.held, t.index());
                self.held[t.index()].push(var);
                self.waits.unblock(t);
                CcDecision::Proceed
            }
            Some(h) if h == t => {
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
    fn release_all(&mut self, t: TxnId) {
        if let Some(vars) = self.held.get_mut(t.index()) {
            for v in vars.drain(..) {
                self.locks.remove(v.index());
            }
        }
        self.waits.finish(t);
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

    #[test]
    fn prepare_presizes_without_changing_behavior() {
        let mut a = Strict2plCc::default();
        let mut b = Strict2plCc::default();
        b.prepare(8, 8);
        for cc in [&mut a, &mut b] {
            cc.begin(t(0), 0);
            cc.begin(t(1), 0);
            assert_eq!(
                cc.on_step(t(0), v(0), StepKind::Update),
                CcDecision::Proceed
            );
            assert_eq!(cc.on_step(t(1), v(0), StepKind::Update), CcDecision::Wait);
        }
    }
}
