//! How a global transaction ends: single-shard fast-path commits, the
//! two-phase commit of cross-shard transactions, and the abort and global
//! restart that roll one back everywhere.

use super::jobs::{gather, Replies};
use super::{GStatus, GlobalTxn, ShardedDb, SubState};
use crate::session::{Op, SessionDb, SessionError, Txn};
use ccopt_durability::WalError;

impl ShardedDb {
    // --------------------------------------------------------------- finish

    /// Commit the global transaction. Single-shard transactions commit
    /// entirely on their shard (the fast path, batched by that shard's
    /// group commit); cross-shard transactions run the two-phase protocol
    /// described in the [module docs](super). [`Op::Wait`] means retry the
    /// commit later — shards that already voted stay prepared, and only
    /// the outstanding votes re-run; [`Op::Restarted`] means some shard's
    /// validation failed and a fresh global attempt has begun.
    pub fn commit(&mut self, h: GlobalTxn) -> Result<Op<()>, SessionError> {
        let ti = self.running(h)?;
        let touched: Vec<usize> = self.slots[ti].touched.iter().map(|&s| s as usize).collect();
        match touched.len() {
            0 => {
                // A transaction that never touched data commits trivially.
                self.land(ti, false);
                Ok(Op::Done(()))
            }
            1 => self.commit_local(ti, touched[0]),
            _ => self.commit_cross(ti, touched),
        }
    }

    /// The two-phase commit of a cross-shard transaction.
    fn commit_cross(&mut self, ti: usize, mut shards: Vec<usize>) -> Result<Op<()>, SessionError> {
        shards.sort_unstable();
        let gtid = self.slots[ti].gts;
        let coord = shards[0] as u32;
        // Phase 1 — collect the outstanding votes (concurrency-control
        // validation + prepare record), here, in shard order. With logs,
        // each vote forces an fsync, so the votes overlap: every one but
        // the last hands its fsync to its log's syncer thread, and the
        // round waits for them once the last vote synced here.
        // Already-prepared shards (from a Wait-ed earlier attempt) keep
        // their vote. Each vote reserves its own restart timestamp (a
        // shard whose validation fails restarts its sub in place at that
        // stamp).
        let base = self.next_gts;
        let spare = move |i: usize| base + 1 + i as u64;
        let pending = shards.iter().filter_map(|&s| match self.slots[ti].subs[s] {
            SubState::Running(sub) => Some((s, sub)),
            _ => None,
        });
        let votes: Vec<_> = pending
            .enumerate()
            .map(|(i, (s, sub))| {
                let spare = spare(i);
                let vote = move |db: &mut SessionDb| {
                    db.set_restart_ts(spare);
                    db.prepare_commit(sub, gtid, coord).expect("sub is live")
                };
                (s, vote)
            })
            .collect();
        let fanout = votes.len();
        let outcomes = self.twopc_scatter(true, votes);
        // A shard that died during its vote never logged a resolve, so
        // the decision was never made: the scatter supervised each
        // crashed shard (which failed this transaction — it has state on
        // the dead shard); report the loss.
        if outcomes.iter().any(|(_, vote)| vote.is_err()) {
            return Err(SessionError::ShardDown);
        }
        let mut waited = false;
        let mut restarted: Option<(usize, u64)> = None;
        for (i, &(s, vote)) in outcomes.iter().enumerate() {
            match vote {
                Ok(Op::Done(())) => {
                    let SubState::Running(sub) = self.slots[ti].subs[s] else {
                        unreachable!("voting shards were running")
                    };
                    self.slots[ti].subs[s] = SubState::Prepared(sub);
                }
                Ok(Op::Wait) => waited = true,
                Ok(Op::Restarted) => restarted = restarted.or(Some((s, spare(i)))),
                Err(_) => unreachable!("crashed shards were handled above"),
            }
        }
        if let Some((keep, gts)) = restarted {
            // Some shard's validation failed and restarted its sub in
            // place: the global transaction aborts everywhere else
            // (prepared votes are revoked — the decision was never
            // logged) and continues as the kept shard's fresh attempt.
            // Spares may have been stamped by multiple restarting shards;
            // burn the whole batch to keep global timestamps unique.
            self.next_gts += fanout as u64;
            self.global_restart_keeping(ti, Some(keep), gts);
            return Ok(Op::Restarted);
        }
        if waited {
            self.waits += 1;
            return Ok(Op::Wait);
        }
        // Phase 2 — all shards voted yes. The coordinator shard's fsynced
        // resolve record is the commit point of the global transaction.
        let floor = self.min_active_gts(ti);
        let resolve = |sub: Txn, force_sync: bool| {
            move |db: &mut SessionDb| {
                db.set_gc_floor(floor);
                db.resolve_commit(sub, true, force_sync)
                    .expect("sub is prepared")
            }
        };
        let subs: Vec<(usize, Txn)> = shards
            .iter()
            .map(|&s| match self.slots[ti].subs[s] {
                SubState::Prepared(sub) => (s, sub),
                _ => unreachable!("every touched shard voted yes above"),
            })
            .collect();
        let point = self.twopc_scatter(true, [(subs[0].0, resolve(subs[0].1, true))]);
        if point[0].1.is_err() {
            // The coordinator worker died around the commit point:
            // whether the resolve record became durable is exactly what
            // its log knows. Supervision recovered the shard, merged its
            // durable decisions into `decided`, and settled this
            // transaction the same way post-crash recovery would —
            // committed iff the resolve survived, presumed abort
            // otherwise.
            return match self.slots[ti].status {
                GStatus::Committed => Ok(Op::Done(())),
                _ => Err(SessionError::ShardDown),
            };
        }
        // The fsynced resolve IS the commit point: record the decision
        // and the outcome *before* fanning out participant resolves — a
        // participant crash below must not un-commit the transaction (its
        // recovered in-doubt prepare settles as committed via `decided`;
        // without logs none ever does, and the table would only grow).
        if self.durable.is_some() {
            self.decided.insert(gtid, true);
        }
        self.land(ti, true);
        // Participants apply here, in shard order: their resolve records
        // stay buffered, so there is no fsync to overlap — if a crash
        // loses one, that shard recovers in-doubt and re-derives the
        // decision from the coordinator's log.
        let participants = subs[1..].iter().map(|&(s, sub)| (s, resolve(sub, false)));
        self.twopc_scatter(false, participants);
        Ok(Op::Done(()))
    }

    /// The one place a global transaction becomes committed at the
    /// coordinator (`cross`: through the two-phase protocol).
    pub(super) fn land(&mut self, ti: usize, cross: bool) {
        self.slots[ti].status = GStatus::Committed;
        self.commits += 1;
        self.cross_commits += usize::from(cross);
    }

    /// The single 2PC submit site: [`scatter`](Self::scatter) one protocol
    /// round's jobs — votes, the coordinator resolve, or participant
    /// resolves — under the fault-injection scripts, resolved for the
    /// whole round before any job runs ([`arm_round`](Self::arm_round)).
    /// `durable` marks a round of durable protocol actions (prepare and
    /// coordinator-resolve fsyncs); on a database with logs its jobs
    /// overlap their fsyncs ([`gather`]), and a deferred fsync's failure
    /// kills its shard, as the failed fsync inside the job would have.
    fn twopc_scatter<R, F>(
        &mut self,
        durable: bool,
        jobs: impl IntoIterator<Item = (usize, F)>,
    ) -> Replies<R>
    where
        F: FnOnce(&mut SessionDb) -> R,
    {
        let armed = self.arm_round(durable, jobs.into_iter().collect());
        let overlap = durable && self.durable.is_some();
        let replies = gather(&self.workers, overlap.then_some(fatal_log_failure), armed);
        self.supervise_dead(&replies);
        replies
    }

    /// Client-initiated abort: roll the global transaction back on every
    /// touched shard (revoking any prepared votes — legal, since the
    /// commit decision was never logged) and retire the slot.
    pub fn abort(&mut self, h: GlobalTxn) -> Result<(), SessionError> {
        let ti = self.slot_of(h)?;
        match self.slots[ti].status {
            GStatus::Running => self.rollback_subs(ti, None),
            // A failed transaction was already rolled back everywhere by
            // the supervisor; aborting the handle just retires the slot.
            GStatus::Failed => {}
            GStatus::Committed => return Err(SessionError::AlreadyCommitted),
            GStatus::Free => unreachable!("stale handles were rejected"),
        }
        self.aborts += 1;
        // An abort frees (retires) the slot, exactly as SessionDb counts.
        self.retires += 1;
        self.free_slot(ti);
        Ok(())
    }

    /// Force-abort the running global transaction everywhere and begin a
    /// fresh attempt on the same slot under a **new global timestamp**
    /// (the handle stays valid; the client replays). This is the restart
    /// valve drivers fire after too many consecutive waits — cross-shard
    /// wait cycles are invisible to every shard-local deadlock detector,
    /// so a timeout-style valve is the liveness backstop.
    pub fn restart(&mut self, h: GlobalTxn) -> Result<(), SessionError> {
        let ti = self.running(h)?;
        self.next_gts += 1;
        self.global_restart_keeping(ti, None, self.next_gts);
        Ok(())
    }

    /// Restart the global transaction at timestamp `gts`: roll back every
    /// sub-transaction *except* `keep` — a shard whose concurrency
    /// control already restarted its sub in place (the fresh attempt,
    /// stamped `gts`, carries over as the first touched shard of the new
    /// global attempt).
    pub(super) fn global_restart_keeping(&mut self, ti: usize, keep: Option<usize>, gts: u64) {
        self.rollback_subs(ti, keep);
        self.aborts += 1;
        let sl = &mut self.slots[ti];
        sl.gts = gts;
        sl.attempts += 1;
    }

    /// Roll back every sub-transaction of slot `ti` on its shard, except
    /// the shard `keep` (which stays touched and running). Rollbacks force
    /// no log write, so they run on this thread, in shard order.
    pub(super) fn rollback_subs(&mut self, ti: usize, keep: Option<usize>) {
        // Detach the subs first: the supervision a scatter runs for a dead
        // shard must not find this transaction's state there (the sub
        // died with its shard — nothing to roll back).
        let sl = &mut self.slots[ti];
        let mut subs: Vec<(usize, Txn, bool)> = Vec::new();
        for (s, state) in sl.subs.iter_mut().enumerate() {
            if Some(s) == keep {
                debug_assert!(matches!(state, SubState::Running(_)));
                continue;
            }
            match std::mem::replace(state, SubState::Absent) {
                SubState::Running(sub) => subs.push((s, sub, false)),
                SubState::Prepared(sub) => subs.push((s, sub, true)),
                SubState::Absent => {}
            }
        }
        sl.touched.clear();
        sl.touched.extend(keep.map(|s| s as u32));
        self.scatter(
            None,
            subs.into_iter().map(|(s, sub, prepared)| {
                let rollback = move |db: &mut SessionDb| {
                    if prepared {
                        db.resolve_commit(sub, false, false)
                            .expect("sub is prepared")
                    } else {
                        db.abort(sub).expect("sub is live")
                    }
                };
                (s, rollback)
            }),
        );
    }
}

/// The [`Overlap`](super::jobs::Overlap) merge of a 2PC round: like the
/// prepare or resolve that deferred it, a failed fsync panics the job's
/// shard ("Panics when the write-ahead log fails").
fn fatal_log_failure<R>(out: R, synced: Result<(), WalError>) -> R {
    if let Err(e) = synced {
        panic!("write-ahead log failed at a deferred fsync: {e}");
    }
    out
}
