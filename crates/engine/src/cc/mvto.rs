//! Multi-version timestamp ordering.

use super::{CcConflict, CcDecision, ConcurrencyControl, ConflictRule, StepKind, TxnId, VarId};
use crate::dense::{ensure_index, SlotMap};

/// MVTO: every transaction reads the snapshot at its begin timestamp; a
/// write is admitted only while it can still be appended at the writer's
/// timestamp — if a newer committed version exists, or a younger
/// transaction already read the version the write would supersede, the
/// *writer* aborts (late writes abort).
///
/// Versions are installed at commit (deferred writes), so the chains hold
/// committed data only and the mechanism is cascade-free. The classical
/// commit dependency survives as a wait: an access of a variable some
/// *older* live transaction has a buffered (pending) write on waits for
/// that writer to resolve, instead of reading past it and dooming it. Wait
/// edges therefore always point from larger to smaller timestamps, so they
/// can never form a cycle — and a transaction that began before the
/// writers (every read-only transaction in a reader-then-writer workload)
/// never waits at all.
///
/// Bookkeeping is dense per-variable tables: the newest committed version
/// timestamp, the largest snapshot that read the variable, and the pending
/// writers. With appends validated against the committed timestamp, the
/// per-variable read stamp is exactly the classical per-version `rts` of
/// the version a late write would supersede.
#[derive(Default, Debug)]
pub struct MvtoCc {
    next: u64,
    /// Begin timestamp per live transaction.
    stamp: SlotMap<u64>,
    /// Per variable: largest snapshot timestamp that read it.
    max_rts: Vec<u64>,
    /// Per variable: timestamp of the newest committed version.
    latest_wts: Vec<u64>,
    /// Per variable: the slot that committed the newest version (opponent
    /// attribution for late writes; exact until the slot recycles).
    latest_writer: Vec<Option<TxnId>>,
    /// Per variable: live transactions with a buffered write on it (tiny:
    /// older pending writers make younger accessors wait).
    pending: Vec<Vec<(TxnId, u64)>>,
    /// Per transaction: variables it wrote (may contain duplicates).
    wrote: Vec<Vec<VarId>>,
    /// Attribution of the last Wait/Abort.
    conflict: Option<CcConflict>,
}

impl MvtoCc {
    /// Why a write on `var` can no longer be installed at timestamp `ts`
    /// (`None` = admissible): a newer committed version exists, or a
    /// younger reader already observed the version the write would
    /// supersede — the write arrives too late.
    fn write_conflict(&self, var: VarId, ts: u64) -> Option<CcConflict> {
        let lw = self.latest_wts.get(var.index()).copied().unwrap_or(0);
        let mr = self.max_rts.get(var.index()).copied().unwrap_or(0);
        if lw > ts {
            Some(CcConflict {
                rule: ConflictRule::MvWriteTooLate,
                var: Some(var),
                opponent: self.latest_writer.get(var.index()).copied().flatten(),
            })
        } else if mr > ts {
            // The younger reader's identity is not kept (only the max
            // snapshot stamp is).
            Some(CcConflict::var_only(ConflictRule::MvWriteTooLate, var))
        } else {
            None
        }
    }

    /// The pending (buffered, uncommitted) write on `var` by a live
    /// transaction older than `ts`, if any. Accessing past it would doom
    /// that writer, so the accessor waits for it to commit or abort.
    fn older_pending_writer(&self, var: VarId, t: TxnId, ts: u64) -> Option<TxnId> {
        self.pending
            .get(var.index())
            .and_then(|p| p.iter().find(|&&(u, uts)| u != t && uts < ts))
            .map(|&(u, _)| u)
    }

    fn drop_pending(&mut self, t: TxnId) {
        if let Some(vars) = self.wrote.get(t.index()) {
            for &v in vars {
                if let Some(p) = self.pending.get_mut(v.index()) {
                    p.retain(|&(u, _)| u != t);
                }
            }
        }
    }
}

impl ConcurrencyControl for MvtoCc {
    fn prepare(&mut self, num_txns: usize, num_vars: usize) {
        self.stamp.reserve_slots(num_txns);
        ensure_index(&mut self.max_rts, num_vars.saturating_sub(1));
        ensure_index(&mut self.latest_wts, num_vars.saturating_sub(1));
        ensure_index(&mut self.pending, num_vars.saturating_sub(1));
        ensure_index(&mut self.wrote, num_txns.saturating_sub(1));
    }

    fn begin(&mut self, t: TxnId, _tick: u64) {
        self.next += 1;
        self.stamp.insert(t.index(), self.next);
    }

    fn begin_at(&mut self, t: TxnId, _tick: u64, ts: u64) {
        // Snapshot *and* version timestamp come from the caller's global
        // clock: per-shard MVTO orders then all equal the global order.
        self.next = self.next.max(ts);
        self.stamp.insert(t.index(), ts);
    }

    fn on_step(&mut self, t: TxnId, var: VarId, kind: StepKind) -> CcDecision {
        let ts = self
            .stamp
            .get_copied(t.index())
            .expect("on_step before begin");
        if kind.writes() {
            if let Some(c) = self.write_conflict(var, ts) {
                self.conflict = Some(c);
                return CcDecision::Abort;
            }
        }
        if let Some(w) = self.older_pending_writer(var, t, ts) {
            self.conflict = Some(CcConflict::new(ConflictRule::MvPendingWait, var, w));
            return CcDecision::Wait;
        }
        // Every step observes its variable through the local `t_ij` the
        // engine fills — even a blind Write's local may be consumed by the
        // transaction's later steps — so every access registers as a read
        // at `ts`. (Skipping this for blind writes let an older writer
        // install a version behind an observation that was never recorded:
        // a non-serializable history.)
        ensure_index(&mut self.max_rts, var.index());
        self.max_rts[var.index()] = self.max_rts[var.index()].max(ts);
        if kind.writes() {
            ensure_index(&mut self.wrote, t.index());
            self.wrote[t.index()].push(var);
            ensure_index(&mut self.pending, var.index());
            let p = &mut self.pending[var.index()];
            if !p.iter().any(|&(u, _)| u == t) {
                p.push((t, ts));
            }
        }
        CcDecision::Proceed
    }

    fn on_commit(&mut self, t: TxnId, _tick: u64) -> CcDecision {
        // Revalidate the write set (defense in depth: with every access
        // registered as a read and younger accessors waiting on pending
        // writers, admissibility should not degrade between the write step
        // and commit). Read-only transactions have nothing to check and
        // always commit.
        let ts = self
            .stamp
            .get_copied(t.index())
            .expect("on_commit before begin");
        if let Some(vars) = self.wrote.get(t.index()) {
            if let Some(c) = vars.iter().find_map(|&v| self.write_conflict(v, ts)) {
                self.conflict = Some(c);
                return CcDecision::Abort;
            }
        }
        CcDecision::Proceed
    }

    fn after_commit(&mut self, t: TxnId) {
        self.drop_pending(t);
        let ts = self.stamp.remove(t.index()).expect("commit before begin");
        if let Some(vars) = self.wrote.get_mut(t.index()) {
            for v in vars.drain(..) {
                ensure_index(&mut self.latest_wts, v.index());
                self.latest_wts[v.index()] = ts;
                ensure_index(&mut self.latest_writer, v.index());
                self.latest_writer[v.index()] = Some(t);
            }
        }
    }

    fn on_abort(&mut self, t: TxnId) {
        self.drop_pending(t);
        self.stamp.remove(t.index());
        if let Some(vars) = self.wrote.get_mut(t.index()) {
            vars.clear();
        }
    }

    fn name(&self) -> &str {
        "MVTO"
    }

    fn last_conflict(&self) -> Option<CcConflict> {
        self.conflict
    }

    fn resume(&mut self, ts_floor: u64) {
        // Recovered chains hold versions up to `ts_floor`: stamps resume
        // above it so new snapshots see the whole recovered history and
        // new installs stay append-only.
        self.next = self.next.max(ts_floor);
    }

    fn defers_writes(&self) -> bool {
        true
    }

    fn multiversion(&self) -> bool {
        true
    }

    fn read_view(&self, t: TxnId) -> u64 {
        self.stamp.get_copied(t.index()).unwrap_or(0)
    }

    fn commit_view(&self, t: TxnId) -> u64 {
        self.stamp.get_copied(t.index()).unwrap_or(0)
    }

    fn gc_watermark(&self) -> u64 {
        // Oldest live snapshot; with no one live every chain may collapse
        // to its newest version — the next begin stamps at `next + 1`, so
        // that is the smallest snapshot any future reader can hold.
        self.stamp
            .iter()
            .map(|(_, &ts)| ts)
            .min()
            .unwrap_or(self.next + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::tests::{t, v};

    #[test]
    fn mvto_reads_never_block_or_abort() {
        let mut cc = MvtoCc::default();
        cc.begin(t(0), 0); // ts 1
        cc.begin(t(1), 0); // ts 2
                           // A younger writer commits a version of v0 at ts 2 ...
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Proceed);
        cc.after_commit(t(1));
        // ... and the older reader still proceeds: it reads its snapshot.
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Proceed);
        cc.after_commit(t(0));
    }

    #[test]
    fn mvto_aborts_late_writes() {
        let mut cc = MvtoCc::default();
        cc.begin(t(0), 0); // ts 1
        cc.begin(t(1), 0); // ts 2
                           // The younger transaction reads v0: max_rts(v0) = 2.
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Read), CcDecision::Proceed);
        // The older transaction's write would supersede the version t1
        // already read: late write, abort.
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Update), CcDecision::Abort);
        cc.on_abort(t(0));
        // Restart with a fresh, younger stamp: proceeds.
        cc.begin(t(0), 1); // ts 3
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Proceed);
    }

    #[test]
    fn mvto_blind_writes_count_as_observations() {
        // The engine fills every step's local from the store, so a blind
        // Write still observes its variable (later steps may consume that
        // local). An older writer must therefore not slip under a younger
        // blind write: it aborts like any other late write.
        let mut cc = MvtoCc::default();
        cc.begin(t(0), 0); // ts 1
        cc.begin(t(1), 0); // ts 2
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Write), CcDecision::Proceed);
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Write), CcDecision::Abort);
        cc.on_abort(t(0));
        // The younger writer is unaffected and commits its version.
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Proceed);
        cc.after_commit(t(1));
        // A restarted (now-youngest) writer proceeds past the new head.
        cc.begin(t(0), 1); // ts 3
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Write), CcDecision::Proceed);
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Proceed);
    }

    #[test]
    fn mvto_younger_access_waits_for_older_pending_writer() {
        let mut cc = MvtoCc::default();
        cc.begin(t(0), 0); // ts 1
        cc.begin(t(1), 0); // ts 2
                           // The older transaction has a buffered (pending) write on v0.
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        // Reading past it would doom the pending writer; the younger
        // transaction waits for the commit dependency instead.
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Read), CcDecision::Wait);
        assert_eq!(cc.on_commit(t(0), 1), CcDecision::Proceed);
        cc.after_commit(t(0));
        // Resolved: the read proceeds (and observes the ts-1 version).
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Read), CcDecision::Proceed);
        // An older reader never waits on a *younger* pending writer.
        cc.begin(t(2), 0); // ts 3
        assert_eq!(
            cc.on_step(t(2), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_step(t(1), v(1), StepKind::Read), CcDecision::Proceed);
    }

    #[test]
    fn mvto_watermark_tracks_oldest_live_snapshot() {
        let mut cc = MvtoCc::default();
        cc.begin(t(0), 0); // ts 1
        cc.begin(t(1), 0); // ts 2
        assert_eq!(cc.gc_watermark(), 1);
        assert_eq!(cc.on_commit(t(0), 1), CcDecision::Proceed);
        cc.after_commit(t(0));
        assert_eq!(cc.gc_watermark(), 2);
        assert_eq!(cc.on_commit(t(1), 2), CcDecision::Proceed);
        cc.after_commit(t(1));
        // Nobody live: the watermark moves past every handed-out stamp, so
        // every chain may collapse to its newest version.
        assert_eq!(cc.gc_watermark(), 3);
    }
}
