//! Timestamp ordering.

use super::waits_for::WaitsFor;
use super::{CcConflict, CcDecision, ConcurrencyControl, ConflictRule, StepKind, TxnId, VarId};
use crate::dense::{ensure_index, DenseBitSet, SlotMap};

/// Basic T/O: late conflicting accesses abort; restarts get fresh stamps.
/// Strict for recoverability: touching a variable whose last writer is
/// still live waits for that commit (wait cycles abort the requester).
#[derive(Default, Debug)]
pub struct TimestampCc {
    next: u64,
    /// Per-transaction stamp (live transactions only).
    stamp: SlotMap<u64>,
    /// Per-variable read/write stamps; 0 means "never accessed".
    read_stamp: Vec<u64>,
    write_stamp: Vec<u64>,
    live: DenseBitSet,
    /// Last uncommitted writer per variable.
    dirty: SlotMap<TxnId>,
    /// Per transaction: variables it wrote (for O(footprint) dirty cleanup;
    /// may contain duplicates).
    wrote: Vec<Vec<VarId>>,
    /// Step waits: waiter -> live writer.
    waits: WaitsFor,
    /// Attribution of the last Wait/Abort.
    conflict: Option<CcConflict>,
}

impl TimestampCc {
    fn clear_txn(&mut self, t: TxnId) {
        self.stamp.remove(t.index());
        self.live.remove(t.index());
        if let Some(vars) = self.wrote.get_mut(t.index()) {
            let vars = std::mem::take(vars);
            for &v in &vars {
                if self.dirty.get_copied(v.index()) == Some(t) {
                    self.dirty.remove(v.index());
                }
            }
        }
        self.waits.finish(t);
    }
}

impl ConcurrencyControl for TimestampCc {
    fn prepare(&mut self, num_txns: usize, num_vars: usize) {
        self.stamp.reserve_slots(num_txns);
        ensure_index(&mut self.read_stamp, num_vars.saturating_sub(1));
        ensure_index(&mut self.write_stamp, num_vars.saturating_sub(1));
        self.dirty.reserve_slots(num_vars);
        ensure_index(&mut self.wrote, num_txns.saturating_sub(1));
        self.waits.reserve(num_txns);
    }

    fn begin(&mut self, t: TxnId, _tick: u64) {
        self.next += 1;
        self.stamp.insert(t.index(), self.next);
        self.live.insert(t.index());
    }

    fn begin_at(&mut self, t: TxnId, _tick: u64, ts: u64) {
        // Externally assigned stamp (globally unique and monotone by the
        // caller's contract); keep the internal clock at or above it so a
        // later plain `begin` cannot hand out a duplicate.
        self.next = self.next.max(ts);
        self.stamp.insert(t.index(), ts);
        self.live.insert(t.index());
    }

    fn on_step(&mut self, t: TxnId, var: VarId, kind: StepKind) -> CcDecision {
        let ts = self
            .stamp
            .get_copied(t.index())
            .expect("on_step before begin");
        let rts = self.read_stamp.get(var.index()).copied().unwrap_or(0);
        let wts = self.write_stamp.get(var.index()).copied().unwrap_or(0);
        // The stamping opponent is the live dirty writer when there is
        // one; a committed stamper has left no identity behind.
        let stamper = self
            .dirty
            .get_copied(var.index())
            .filter(|w| *w != t && self.live.contains(w.index()));
        if kind.reads() && ts < wts {
            self.conflict = Some(CcConflict {
                rule: ConflictRule::ReadTooLate,
                var: Some(var),
                opponent: stamper,
            });
            return CcDecision::Abort;
        }
        if kind.writes() && (ts < rts || ts < wts) {
            self.conflict = Some(CcConflict {
                rule: ConflictRule::WriteTooLate,
                var: Some(var),
                opponent: stamper,
            });
            return CcDecision::Abort;
        }
        // Strictness: wait for a live writer's commit before touching the
        // value it produced.
        if let Some(w) = self.dirty.get_copied(var.index()) {
            if w != t && self.live.contains(w.index()) {
                return self.waits.wait(
                    t,
                    w,
                    CcConflict::new(ConflictRule::DirtyWait, var, w),
                    &mut self.conflict,
                );
            }
        }
        if kind.reads() {
            ensure_index(&mut self.read_stamp, var.index());
            self.read_stamp[var.index()] = rts.max(ts);
        }
        if kind.writes() {
            ensure_index(&mut self.write_stamp, var.index());
            self.write_stamp[var.index()] = wts.max(ts);
            self.dirty.insert(var.index(), t);
            ensure_index(&mut self.wrote, t.index());
            self.wrote[t.index()].push(var);
        }
        self.waits.unblock(t);
        CcDecision::Proceed
    }

    fn on_commit(&mut self, _t: TxnId, _tick: u64) -> CcDecision {
        CcDecision::Proceed
    }

    fn after_commit(&mut self, t: TxnId) {
        self.clear_txn(t);
    }

    fn on_abort(&mut self, t: TxnId) {
        // The variable stamps stay — standard T/O conservatism.
        self.clear_txn(t);
    }

    fn name(&self) -> &str {
        "T/O"
    }

    fn last_conflict(&self) -> Option<CcConflict> {
        self.conflict
    }

    fn resume(&mut self, ts_floor: u64) {
        // Not required for correctness (variable stamps do not survive a
        // crash), but keeps the transaction clock monotone across the
        // database's whole lifetime.
        self.next = self.next.max(ts_floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::tests::{t, v};

    #[test]
    fn timestamp_cc_aborts_latecomers() {
        let mut cc = TimestampCc::default();
        cc.begin(t(0), 0); // stamp 1
        cc.begin(t(1), 0); // stamp 2
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        // Older T0 now conflicts with younger T1's write: abort.
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Update), CcDecision::Abort);
        cc.on_abort(t(0));
        // Restart gets a fresh, younger stamp — but waits for the live
        // writer T1 (strictness), proceeding once T1 commits.
        cc.begin(t(0), 1); // stamp 3
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Update), CcDecision::Wait);
        assert_eq!(cc.on_commit(t(1), 2), CcDecision::Proceed);
        cc.after_commit(t(1));
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
    }

    #[test]
    fn timestamp_cc_allows_read_read() {
        let mut cc = TimestampCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
    }
}
