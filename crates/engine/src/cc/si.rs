//! Snapshot isolation.

use super::{CcConflict, CcDecision, ConcurrencyControl, ConflictRule, StepKind, TxnId, VarId};
use crate::dense::{ensure_index, SlotMap};

/// Snapshot isolation: reads observe the commit sequence number current at
/// begin, writes are buffered, and commit performs first-committer-wins
/// validation — if any written variable gained a committed version after
/// the snapshot, the transaction aborts. Reads are never validated, which
/// is exactly why SI admits write skew: it sits outside the serializable
/// family boundary that MVTO, 2PL and SGT stay inside.
///
/// A write step performs the same check against the snapshot early
/// (first-*updater*-wins), converting certain commit-time aborts into
/// cheaper step-time aborts without changing the admitted histories.
#[derive(Default, Debug)]
pub struct SiCc {
    /// Commit sequence number; also the newest readable snapshot.
    commit_seq: u64,
    /// Snapshot (begin) sequence number per live transaction.
    snap: SlotMap<u64>,
    /// Commit sequence number assigned by a successful validation.
    cts: SlotMap<u64>,
    /// Per variable: commit sequence of the newest committed version.
    latest_wts: Vec<u64>,
    /// Per variable: the slot that committed the newest version (opponent
    /// attribution for validation failures; exact until the slot
    /// recycles).
    latest_writer: Vec<Option<TxnId>>,
    /// Per transaction: variables it wrote (may contain duplicates).
    wrote: Vec<Vec<VarId>>,
    /// Attribution of the last Wait/Abort.
    conflict: Option<CcConflict>,
}

impl SiCc {
    fn overwritten_since(&self, var: VarId, snap: u64) -> bool {
        self.latest_wts.get(var.index()).copied().unwrap_or(0) > snap
    }

    fn loser_conflict(&self, rule: ConflictRule, var: VarId) -> CcConflict {
        CcConflict {
            rule,
            var: Some(var),
            opponent: self.latest_writer.get(var.index()).copied().flatten(),
        }
    }
}

impl ConcurrencyControl for SiCc {
    fn prepare(&mut self, num_txns: usize, num_vars: usize) {
        self.snap.reserve_slots(num_txns);
        self.cts.reserve_slots(num_txns);
        ensure_index(&mut self.latest_wts, num_vars.saturating_sub(1));
        ensure_index(&mut self.wrote, num_txns.saturating_sub(1));
    }

    fn begin(&mut self, t: TxnId, _tick: u64) {
        self.snap.insert(t.index(), self.commit_seq);
        self.cts.remove(t.index());
    }

    fn on_step(&mut self, t: TxnId, var: VarId, kind: StepKind) -> CcDecision {
        if kind.writes() {
            let snap = self
                .snap
                .get_copied(t.index())
                .expect("on_step before begin");
            if self.overwritten_since(var, snap) {
                self.conflict = Some(self.loser_conflict(ConflictRule::SiFirstUpdater, var));
                return CcDecision::Abort;
            }
            ensure_index(&mut self.wrote, t.index());
            self.wrote[t.index()].push(var);
        }
        CcDecision::Proceed
    }

    fn on_commit(&mut self, t: TxnId, _tick: u64) -> CcDecision {
        let snap = self
            .snap
            .get_copied(t.index())
            .expect("on_commit before begin");
        if let Some(vars) = self.wrote.get(t.index()) {
            if let Some(&v) = vars.iter().find(|&&v| self.overwritten_since(v, snap)) {
                // First committer already won.
                self.conflict = Some(self.loser_conflict(ConflictRule::SiFirstCommitter, v));
                return CcDecision::Abort;
            }
        }
        self.commit_seq += 1;
        self.cts.insert(t.index(), self.commit_seq);
        CcDecision::Proceed
    }

    fn after_commit(&mut self, t: TxnId) {
        let cts = self.cts.remove(t.index()).expect("commit before begin");
        self.snap.remove(t.index());
        if let Some(vars) = self.wrote.get_mut(t.index()) {
            for v in vars.drain(..) {
                ensure_index(&mut self.latest_wts, v.index());
                self.latest_wts[v.index()] = cts;
                ensure_index(&mut self.latest_writer, v.index());
                self.latest_writer[v.index()] = Some(t);
            }
        }
    }

    fn on_abort(&mut self, t: TxnId) {
        self.snap.remove(t.index());
        self.cts.remove(t.index());
        if let Some(vars) = self.wrote.get_mut(t.index()) {
            vars.clear();
        }
    }

    fn name(&self) -> &str {
        "SI"
    }

    fn last_conflict(&self) -> Option<CcConflict> {
        self.conflict
    }

    fn resume(&mut self, ts_floor: u64) {
        // The commit sequence resumes above every recovered version, so
        // fresh snapshots (taken at `commit_seq`) observe all of them and
        // fresh commits install strictly above the recovered chain heads.
        self.commit_seq = self.commit_seq.max(ts_floor);
    }

    fn defers_writes(&self) -> bool {
        true
    }

    fn multiversion(&self) -> bool {
        true
    }

    fn read_view(&self, t: TxnId) -> u64 {
        self.snap.get_copied(t.index()).unwrap_or(0)
    }

    fn commit_view(&self, t: TxnId) -> u64 {
        self.cts.get_copied(t.index()).unwrap_or(0)
    }

    fn gc_watermark(&self) -> u64 {
        self.snap
            .iter()
            .map(|(_, &s)| s)
            .min()
            .unwrap_or(self.commit_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::tests::{t, v};

    #[test]
    fn si_first_committer_wins_on_write_write_conflict() {
        let mut cc = SiCc::default();
        cc.begin(t(0), 0); // snapshot 0
        cc.begin(t(1), 0); // snapshot 0
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
        // First committer won; the concurrent writer must abort.
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Abort);
        cc.on_abort(t(0));
        // A restart sees the fresh snapshot and succeeds.
        cc.begin(t(0), 2);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(0), 3), CcDecision::Proceed);
    }

    #[test]
    fn si_aborts_stale_writers_early() {
        let mut cc = SiCc::default();
        cc.begin(t(0), 0); // snapshot 0
        cc.begin(t(1), 0);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Proceed);
        cc.after_commit(t(1));
        // First-updater-wins: the write step itself observes the conflict.
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Update), CcDecision::Abort);
    }

    #[test]
    fn si_disjoint_writers_and_readers_commit_freely() {
        let mut cc = SiCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        cc.begin(t(2), 0);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(
            cc.on_step(t(1), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        // The reader never conflicts with anyone under SI.
        assert_eq!(cc.on_step(t(2), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(cc.on_step(t(2), v(1), StepKind::Read), CcDecision::Proceed);
        for (i, tick) in [(0u32, 1u64), (1, 2), (2, 3)] {
            assert_eq!(cc.on_commit(t(i), tick), CcDecision::Proceed);
            cc.after_commit(t(i));
        }
        // Commit sequence advanced once per commit.
        assert_eq!(cc.gc_watermark(), 3);
    }
}
