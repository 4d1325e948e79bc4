//! Optimistic concurrency control (backward validation).

use super::{CcConflict, CcDecision, ConcurrencyControl, ConflictRule, StepKind, TxnId, VarId};
use crate::dense::{ensure_index, DenseBitSet, SlotMap};
use std::collections::VecDeque;

/// OCC with backward validation: reads and writes always proceed (writes go
/// to a local buffer and reach the store in the commit-time write phase); at
/// commit the transaction validates against the write sets of transactions
/// that committed after it began.
///
/// Footprints are dense bitsets, so validation is a word-wise
/// intersection per committed writer instead of a set walk; the committed
/// list is pruned to entries some live transaction could still conflict
/// with, keeping long runs with many restarts bounded.
#[derive(Default, Debug)]
pub struct OccCc {
    /// Per-transaction start tick (live transactions only).
    start: SlotMap<u64>,
    /// Per-transaction read+write footprint.
    access: Vec<DenseBitSet>,
    /// Per-transaction write footprint.
    writes: Vec<DenseBitSet>,
    /// Commit log: (commit tick, committer slot, write footprint),
    /// oldest first. The slot attributes validation failures to their
    /// opponent (exact until the committer's slot recycles).
    committed: VecDeque<(u64, TxnId, DenseBitSet)>,
    /// Attribution of the last Abort.
    conflict: Option<CcConflict>,
}

impl OccCc {
    /// Drop committed entries no live transaction can conflict with: a
    /// validation only consults entries with `commit_tick > start`, starts
    /// are handed out monotonically, so everything at or before the oldest
    /// live start is dead weight.
    fn prune_committed(&mut self) {
        let oldest_live = self.start.iter().map(|(_, &s)| s).min();
        while let Some(&(tick, _, _)) = self.committed.front() {
            match oldest_live {
                Some(min) if tick > min => break,
                _ => {
                    self.committed.pop_front();
                }
            }
        }
    }
}

impl ConcurrencyControl for OccCc {
    fn prepare(&mut self, num_txns: usize, num_vars: usize) {
        self.start.reserve_slots(num_txns);
        if self.access.len() < num_txns {
            self.access
                .resize_with(num_txns, || DenseBitSet::with_capacity(num_vars));
        }
        if self.writes.len() < num_txns {
            self.writes
                .resize_with(num_txns, || DenseBitSet::with_capacity(num_vars));
        }
    }

    fn begin(&mut self, t: TxnId, tick: u64) {
        self.start.insert(t.index(), tick);
        ensure_index(&mut self.access, t.index());
        ensure_index(&mut self.writes, t.index());
        self.access[t.index()].clear();
        self.writes[t.index()].clear();
    }

    fn on_step(&mut self, t: TxnId, var: VarId, kind: StepKind) -> CcDecision {
        ensure_index(&mut self.access, t.index());
        self.access[t.index()].insert(var.index());
        if kind.writes() {
            ensure_index(&mut self.writes, t.index());
            self.writes[t.index()].insert(var.index());
        }
        CcDecision::Proceed
    }

    fn on_commit(&mut self, t: TxnId, tick: u64) -> CcDecision {
        let start = self.start.get_copied(t.index()).unwrap_or(0);
        ensure_index(&mut self.access, t.index());
        let accessed = &self.access[t.index()];
        for (commit_tick, committer, writes) in &self.committed {
            if *commit_tick > start && writes.intersects(accessed) {
                // Attribution (off the success path): the first variable
                // of the intersection and the committer that wrote it.
                let var = accessed
                    .ones()
                    .find(|&v| writes.contains(v))
                    .map(|v| VarId(v as u32));
                self.conflict = Some(CcConflict {
                    rule: ConflictRule::OccValidation,
                    var,
                    opponent: Some(*committer),
                });
                return CcDecision::Abort;
            }
        }
        ensure_index(&mut self.writes, t.index());
        self.committed
            .push_back((tick, t, self.writes[t.index()].clone()));
        CcDecision::Proceed
    }

    fn after_commit(&mut self, t: TxnId) {
        self.start.remove(t.index());
        if let Some(b) = self.access.get_mut(t.index()) {
            b.clear();
        }
        if let Some(b) = self.writes.get_mut(t.index()) {
            b.clear();
        }
        self.prune_committed();
    }

    fn on_abort(&mut self, t: TxnId) {
        // A commit's write set is logged by `on_commit`; what is left to
        // forget is the same either way.
        self.after_commit(t);
    }

    fn name(&self) -> &str {
        "OCC"
    }

    fn last_conflict(&self) -> Option<CcConflict> {
        self.conflict
    }

    fn defers_writes(&self) -> bool {
        true // the Kung-Robinson write phase happens at commit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::tests::{t, v};

    #[test]
    fn occ_validates_against_concurrent_writers() {
        let mut cc = OccCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Proceed);
        cc.after_commit(t(1));
        // T0 read v0 before T1's commit: backward validation fails.
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Abort);
        cc.on_abort(t(0));
        cc.begin(t(0), 2);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(0), 3), CcDecision::Proceed);
    }

    #[test]
    fn occ_disjoint_txns_commit() {
        let mut cc = OccCc::default();
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
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Proceed);
        cc.after_commit(t(1));
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Proceed);
    }

    #[test]
    fn occ_prunes_dead_commit_entries() {
        let mut cc = OccCc::default();
        // A sequence of disjoint committed transactions with no one live in
        // between leaves nothing to validate against.
        for round in 0..100u64 {
            cc.begin(t(0), round * 2);
            assert_eq!(
                cc.on_step(t(0), v(0), StepKind::Update),
                CcDecision::Proceed
            );
            assert_eq!(cc.on_commit(t(0), round * 2 + 1), CcDecision::Proceed);
            cc.after_commit(t(0));
        }
        assert!(
            cc.committed.is_empty(),
            "commit log should be pruned once no live txn can conflict"
        );
        // A long-lived reader keeps exactly the entries after its start.
        cc.begin(t(1), 200);
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Read), CcDecision::Proceed);
        for round in 0..10u64 {
            cc.begin(t(0), 201 + round * 2);
            assert_eq!(
                cc.on_step(t(0), v(1), StepKind::Update),
                CcDecision::Proceed
            );
            assert_eq!(cc.on_commit(t(0), 202 + round * 2), CcDecision::Proceed);
            cc.after_commit(t(0));
        }
        assert_eq!(cc.committed.len(), 10);
        assert_eq!(cc.on_commit(t(1), 300), CcDecision::Proceed);
        cc.after_commit(t(1));
        assert!(cc.committed.is_empty());
    }
}
