//! Serialization-graph testing.

use super::waits_for::WaitsFor;
use super::{CcConflict, CcDecision, ConcurrencyControl, ConflictRule, StepKind, TxnId, VarId};
use crate::dense::{ensure_index, DenseBitSet, EpochBitSet, SlotMap};

/// SGT: maintain the conflict graph over live and committed transactions;
/// an access that would close a cycle aborts the requester. For
/// recoverability the engine-level SGT is *strict*: accessing a variable
/// whose last writer is still live makes the requester wait for the commit
/// (a wait cycle aborts the requester).
///
/// The conflict graph is an adjacency matrix of dense bitset rows. The
/// graph is acyclic by construction (cycle-closing accesses abort before
/// their edges are inserted), so the cycle test for a batch of new edges
/// `u -> t` reduces to one DFS: does `t` reach any such `u`?
#[derive(Default, Debug)]
pub struct SgtCc {
    /// Per variable: access log of (txn, kind), non-aborted entries only.
    log: Vec<Vec<(TxnId, StepKind)>>,
    /// Per transaction: variables whose log may mention it (for O(footprint)
    /// abort cleanup; may contain duplicates).
    touched: Vec<Vec<VarId>>,
    /// Adjacency rows: `out[u]` holds the successors of `u`.
    out: Vec<DenseBitSet>,
    /// In-degree per transaction, kept in lockstep with the `out` rows.
    /// Retirement reads it: a committed transaction acquires no new
    /// in-edges, so in-degree 0 means no future cycle can pass through it.
    in_deg: Vec<u32>,
    /// Live (uncommitted) transactions; cleared on both commit and abort.
    /// Retirement relies on finished transactions being absent here.
    live: DenseBitSet,
    /// Last uncommitted writer per variable.
    dirty: SlotMap<TxnId>,
    /// Step and commit waits: waiter -> live writer or predecessor.
    waits: WaitsFor,
    /// Scratch: sources of the edges a step would add (O(1) clear).
    sources: EpochBitSet,
    /// Scratch: the same sources as a dedup'd list, so the edge-insertion
    /// pass does not re-scan the access log.
    src_list: Vec<u32>,
    /// Scratch: DFS visited marks (O(1) clear).
    visited: EpochBitSet,
    /// Scratch: DFS stack.
    stack: Vec<u32>,
    /// Commit-order mode ([`ConcurrencyControl::enable_commit_order`]):
    /// commits wait for live direct predecessors, making the commit order
    /// a topological order of the conflict graph — what the sharded
    /// engine composes across shards.
    commit_ordered: bool,
    /// Attribution of the last Wait/Abort.
    conflict: Option<CcConflict>,
}

impl SgtCc {
    /// Does `start` reach any member of `self.sources` in the conflict
    /// graph? One DFS over the bitset adjacency rows, no allocation beyond
    /// the reusable stack.
    fn reaches_any_source(&mut self, start: usize) -> bool {
        let out = &self.out;
        let sources = &self.sources;
        let visited = &mut self.visited;
        let stack = &mut self.stack;
        visited.clear();
        stack.clear();
        stack.push(start as u32);
        visited.insert(start);
        while let Some(u) = stack.pop() {
            if sources.contains(u as usize) {
                return true;
            }
            if let Some(row) = out.get(u as usize) {
                for v in row.ones() {
                    if visited.insert(v) {
                        stack.push(v as u32);
                    }
                }
            }
        }
        false
    }
}

impl ConcurrencyControl for SgtCc {
    fn prepare(&mut self, num_txns: usize, num_vars: usize) {
        ensure_index(&mut self.log, num_vars.saturating_sub(1));
        ensure_index(&mut self.touched, num_txns.saturating_sub(1));
        if self.out.len() < num_txns {
            self.out
                .resize_with(num_txns, || DenseBitSet::with_capacity(num_txns));
        }
        ensure_index(&mut self.in_deg, num_txns.saturating_sub(1));
        self.dirty.reserve_slots(num_vars);
        self.waits.reserve(num_txns);
    }

    fn begin(&mut self, t: TxnId, _tick: u64) {
        self.live.insert(t.index());
    }

    fn on_step(&mut self, t: TxnId, var: VarId, kind: StepKind) -> CcDecision {
        // Strictness: the last writer must have committed before anyone
        // else touches the variable.
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
        // Edges this access would add: u -> t for every logged conflicting
        // access by u != t. The graph is acyclic, so the batch closes a
        // cycle iff t already reaches one of the sources u.
        ensure_index(&mut self.log, var.index());
        self.sources.clear();
        self.src_list.clear();
        for &(u, k) in &self.log[var.index()] {
            if u != t && k.conflicts_with(kind) && self.sources.insert(u.index()) {
                self.src_list.push(u.0);
            }
        }
        if !self.src_list.is_empty() {
            if self.reaches_any_source(t.index()) {
                self.conflict = Some(CcConflict::new(
                    ConflictRule::SgtCycle,
                    var,
                    TxnId(self.src_list[0]),
                ));
                return CcDecision::Abort;
            }
            ensure_index(&mut self.out, t.index());
            ensure_index(&mut self.in_deg, t.index());
            for i in 0..self.src_list.len() {
                let u = self.src_list[i] as usize;
                ensure_index(&mut self.out, u);
                if self.out[u].insert(t.index()) {
                    self.in_deg[t.index()] += 1;
                }
            }
        }
        self.log[var.index()].push((t, kind));
        ensure_index(&mut self.touched, t.index());
        self.touched[t.index()].push(var);
        if kind.writes() {
            self.dirty.insert(var.index(), t);
        }
        self.waits.unblock(t);
        CcDecision::Proceed
    }

    fn on_commit(&mut self, t: TxnId, _tick: u64) -> CcDecision {
        if self.commit_ordered {
            // A live direct predecessor would be serialized before t but
            // commit after it, so t's commit must wait for it. Committed
            // (unretired) predecessors already satisfy the order. The
            // wait joins the shared waits-for graph so a commit-wait
            // closing a cycle with strictness step-waits aborts instead
            // of hanging (cross-shard wait cycles are invisible here; the
            // sharded driver's restart valve breaks those).
            let pred = self.live.ones().find(|&u| {
                u != t.index() && self.out.get(u).is_some_and(|row| row.contains(t.index()))
            });
            if let Some(u) = pred {
                let holder = TxnId(u as u32);
                let why = CcConflict {
                    rule: ConflictRule::CommitOrderWait,
                    var: None,
                    opponent: Some(holder),
                };
                return self.waits.wait(t, holder, why, &mut self.conflict);
            }
            self.waits.unblock(t);
        }
        CcDecision::Proceed
    }

    fn enable_commit_order(&mut self) {
        self.commit_ordered = true;
    }

    fn after_commit(&mut self, t: TxnId) {
        self.live.remove(t.index());
        if let Some(vars) = self.touched.get(t.index()) {
            for &v in vars {
                if self.dirty.get_copied(v.index()) == Some(t) {
                    self.dirty.remove(v.index());
                }
            }
        }
        self.waits.finish(t);
    }

    fn on_abort(&mut self, t: TxnId) {
        self.live.remove(t.index());
        if let Some(vars) = self.touched.get_mut(t.index()) {
            let vars = std::mem::take(vars);
            for &v in &vars {
                if self.dirty.get_copied(v.index()) == Some(t) {
                    self.dirty.remove(v.index());
                }
                if let Some(log) = self.log.get_mut(v.index()) {
                    log.retain(|&(u, _)| u != t);
                }
            }
        }
        if let Some(row) = self.out.get_mut(t.index()) {
            for v in row.ones() {
                self.in_deg[v] -= 1;
            }
            row.clear();
        }
        for row in &mut self.out {
            row.remove(t.index());
        }
        if let Some(d) = self.in_deg.get_mut(t.index()) {
            *d = 0;
        }
        self.waits.finish(t);
    }

    fn name(&self) -> &str {
        "SGT"
    }

    fn last_conflict(&self) -> Option<CcConflict> {
        self.conflict
    }

    fn retire(&mut self, t: TxnId) -> bool {
        debug_assert!(!self.live.contains(t.index()), "retiring a live txn");
        // In-edges of a finished transaction are frozen (it makes no more
        // accesses), so in-degree 0 means no future cycle can pass through
        // it — only then is dropping it from the graph and the access logs
        // sound. Its remaining out-edges could only sit on a cycle through
        // itself, so they go too, possibly unblocking deferred retirements
        // downstream (the caller retries those).
        if self.in_deg.get(t.index()).copied().unwrap_or(0) != 0 {
            return false;
        }
        if let Some(vars) = self.touched.get_mut(t.index()) {
            let vars = std::mem::take(vars);
            for &v in &vars {
                if let Some(log) = self.log.get_mut(v.index()) {
                    log.retain(|&(u, _)| u != t);
                }
            }
        }
        if let Some(row) = self.out.get_mut(t.index()) {
            for v in row.ones() {
                self.in_deg[v] -= 1;
            }
            row.clear();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::tests::{t, v};

    #[test]
    fn sgt_cc_strictness_waits_and_deadlock_aborts() {
        let mut cc = SgtCc::default();
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
        // T0 touches v1 whose live writer is T1: strictness -> wait.
        assert_eq!(cc.on_step(t(0), v(1), StepKind::Update), CcDecision::Wait);
        // T1 touches v0 whose live writer is T0: wait cycle -> abort.
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Update), CcDecision::Abort);
        cc.on_abort(t(1));
        // With T1 gone, T0's retry proceeds (v1 is clean now).
        assert_eq!(
            cc.on_step(t(0), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(0), 1), CcDecision::Proceed);
        cc.after_commit(t(0));
        // A fresh T1 then runs serially after T0.
        cc.begin(t(1), 1);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
    }

    #[test]
    fn sgt_cc_aborts_on_conflict_cycle_with_committed_txn() {
        // Cycles through *committed* transactions cannot wait their way
        // out: they abort. T0 reads v0; T1 overwrites v0 (edge T0 -> T1)
        // and commits; T0's own later write of v0 would add T1 -> T0,
        // closing the cycle.
        let mut cc = SgtCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Proceed);
        cc.after_commit(t(1));
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Update), CcDecision::Abort);
    }

    #[test]
    fn sgt_retire_defers_until_no_in_edges() {
        let mut cc = SgtCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        // T0 reads v0, T1 overwrites it: edge T0 -> T1.
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Proceed);
        cc.after_commit(t(1));
        // T1 has an in-edge from the still-live T0: a cycle through T1 is
        // still possible (T1 -> T0 would close it), so its slot must not be
        // recycled yet.
        assert!(!cc.retire(t(1)));
        assert_eq!(
            cc.on_step(t(0), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Proceed);
        cc.after_commit(t(0));
        // T0 was never a successor: it retires immediately — and dropping
        // its out-edges unblocks T1's deferred retirement.
        assert!(cc.retire(t(0)));
        assert!(cc.retire(t(1)));
        // Both slots are clean for reuse: fresh transactions in the same
        // slots inherit no edges and no log entries.
        cc.begin(t(0), 3);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(0), 4), CcDecision::Proceed);
        cc.after_commit(t(0));
        assert!(cc.retire(t(0)));
    }

    #[test]
    fn sgt_abort_clears_in_degrees_for_immediate_retire() {
        let mut cc = SgtCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        // Aborting T1 removes it from the graph entirely; its slot is
        // immediately recyclable.
        cc.on_abort(t(1));
        assert!(cc.retire(t(1)));
        // T0 (still live, then committed with no in-edges) retires too.
        assert_eq!(cc.on_commit(t(0), 1), CcDecision::Proceed);
        cc.after_commit(t(0));
        assert!(cc.retire(t(0)));
    }

    #[test]
    fn sgt_commit_order_gate_waits_for_live_predecessors() {
        let mut cc = SgtCc::default();
        cc.enable_commit_order();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        // Edge t0 -> t1 (t0 read v0, t1 overwrote it).
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        // t1 must not commit before its live predecessor t0.
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Wait);
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Proceed);
        cc.after_commit(t(0));
        // Predecessor committed: the gate opens.
        assert_eq!(cc.on_commit(t(1), 3), CcDecision::Proceed);
        cc.after_commit(t(1));
        // Without the gate (default), the same shape commits immediately.
        let mut plain = SgtCc::default();
        plain.begin(t(0), 0);
        plain.begin(t(1), 0);
        assert_eq!(
            plain.on_step(t(0), v(0), StepKind::Read),
            CcDecision::Proceed
        );
        assert_eq!(
            plain.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(plain.on_commit(t(1), 1), CcDecision::Proceed);
    }

    #[test]
    fn sgt_commit_order_gate_aborts_wait_cycles() {
        // A commit-wait joining a strictness step-wait into a cycle must
        // abort rather than hang: t1 commit-waits on its live predecessor
        // t0, while t0 step-waits on t1's dirty write.
        let mut cc = SgtCc::default();
        cc.enable_commit_order();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(
            cc.on_step(t(1), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        // t1's commit waits on its live predecessor t0 (edge t0 -> t1).
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Wait);
        // t0 steps on v1 (dirty by the live t1): the strictness wait
        // t0 -> t1 would close a cycle with the commit-wait t1 -> t0, so
        // the requester aborts instead of hanging.
        assert_eq!(cc.on_step(t(0), v(1), StepKind::Read), CcDecision::Abort);
    }

    #[test]
    fn a_standing_commit_order_wait_answers_like_the_first() {
        // t0 -> t1 in the conflict graph; t1's commit waits on the live t0
        // and keeps waiting on the standing edge until t0 commits.
        let mut cc = SgtCc::default();
        cc.enable_commit_order();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        let first = Some(CcConflict {
            rule: ConflictRule::CommitOrderWait,
            var: None,
            opponent: Some(t(0)),
        });
        for _ in 0..100 {
            assert_eq!(cc.on_commit(t(1), 1), CcDecision::Wait);
            assert_eq!(cc.last_conflict(), first);
        }
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Proceed);
        cc.after_commit(t(0));
        assert_eq!(cc.on_commit(t(1), 3), CcDecision::Proceed);
    }
}
