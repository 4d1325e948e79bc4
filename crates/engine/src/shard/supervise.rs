//! Fault domains: supervising crashed shard workers — restart in place
//! from the shard's own log, settle the in-flight transactions that had
//! state there. `docs/FAULTS.md` has the full fault model.

use super::jobs::{gather, Replies};
use super::{shard_cc, GStatus, ShardedDb, SubState};
use crate::session::{SessionDb, SessionStatus};
use ccopt_durability::recovery;
use ccopt_par::Worker;
use ccopt_trace::{ConflictRule, EventKind};

/// One shard's liveness, as the supervisor sees it without touching the
/// shard's state ([`ShardedDb::shard_statuses`]): the fault domain's
/// liveness flag and the coordinator's own counters, so a health probe
/// costs the data plane nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardStatus {
    /// The worker is serving (its panic flag is clear). A crashed
    /// worker reports `false` until the next operation routed there
    /// triggers supervision, which restarts it in place.
    pub alive: bool,
    /// The shard is permanently down: its storage could not be recovered
    /// after a crash, and every operation routed there fails while the
    /// other shards keep serving.
    pub down: bool,
    /// Supervised restarts of this shard so far.
    pub restarts: u64,
}

impl ShardedDb {
    /// Detect and supervise crashed shard workers *now*; they are
    /// otherwise supervised lazily, at the next operation that touches
    /// them. Returns how many this call restarted or marked down.
    pub fn check_shards(&mut self) -> usize {
        let mut handled = 0;
        for s in 0..self.workers.len() {
            if !self.down[s] && !self.workers[s].is_alive() {
                self.supervise_crash(s);
                handled += 1;
            }
        }
        handled
    }

    /// Per-shard liveness: alive/down flags and supervised restart
    /// counts. Flag reads only — no shard job runs — so this is safe to
    /// call from a health probe at any rate.
    pub fn shard_statuses(&self) -> Vec<ShardStatus> {
        (0..self.workers.len())
            .map(|s| ShardStatus {
                alive: self.workers[s].is_alive(),
                down: self.down[s],
                restarts: self.restarts_by_shard[s] as u64,
            })
            .collect()
    }

    /// How many shards are not serving — down, or crashed and not yet
    /// supervised: the count of [`shard_statuses`](Self::shard_statuses)
    /// rows with `down || !alive`, read from the same flags without
    /// collecting them, so a per-pass health refresh allocates nothing.
    pub fn shards_down(&self) -> usize {
        (0..self.workers.len())
            .filter(|&s| self.down[s] || !self.workers[s].is_alive())
            .count()
    }

    /// Supervise every shard a [`gather`] found dead.
    pub(super) fn supervise_dead<R>(&mut self, replies: &Replies<R>) {
        for (s, reply) in replies {
            if reply.is_err() {
                self.supervise_crash(*s);
            }
        }
    }

    /// Supervise a crashed shard worker: restart the shard in place —
    /// recovering its write-ahead log when durable — then settle every
    /// global transaction that had state there, exactly as post-crash
    /// recovery settles in-doubt prepares: committed iff the commit point
    /// (the coordinator's fsynced resolve) is known to have survived,
    /// presumed abort otherwise. Serving on the other shards is never
    /// interrupted, and the process never aborts.
    fn supervise_crash(&mut self, s: usize) {
        if self.down[s] {
            return;
        }
        self.shard_restarts += 1;
        self.restarts_by_shard[s] += 1;
        // Dump the dead shard's flight recorder first: the hub holds the
        // ring, so it survives the worker — the respawn below mints the
        // replacement a fresh one.
        if let Some(hub) = &self.trace_hub {
            let _ = hub.dump_ring(s as u32);
        }
        let tick = self.next_gts;
        self.coord_tracer
            .emit(tick, EventKind::ShardDown { shard: s as u32 });
        let replayed = self.respawn_shard(s);
        if !self.down[s] {
            self.coord_tracer
                .emit(tick, EventKind::ShardUp { shard: s as u32 });
        }
        for ti in 0..self.slots.len() {
            if matches!(self.slots[ti].subs[s], SubState::Absent) {
                continue;
            }
            match self.slots[ti].status {
                // The outcome is decided (and, when durable, the shard's
                // share of it was just recovered from its log — an
                // in-doubt prepare settles as committed via `decided`);
                // only the now-dead sub handle goes away.
                GStatus::Committed => self.slots[ti].subs[s] = SubState::Absent,
                GStatus::Free | GStatus::Failed => {
                    self.slots[ti].subs[s] = SubState::Absent;
                }
                GStatus::Running => {
                    let gts = self.slots[ti].gts;
                    if self.decided.get(&gts) == Some(&true) {
                        // The commit point survived on the coordinator's
                        // durable log even though the in-memory protocol
                        // never finished: complete phase 2 on the
                        // surviving shards.
                        self.finish_decided_commit(ti, s);
                    } else {
                        self.fail_slot(ti, s);
                    }
                }
            }
        }
        self.last_recovery_replayed = Some(replayed);
    }

    /// Replace a crashed shard worker in place: over its recovered
    /// write-ahead log when durable (in-doubt prepares settle against the
    /// in-process decision table), over the initial projection otherwise
    /// — volatile shards have nothing to recover, a documented data loss. Unrecoverable storage marks the shard
    /// permanently down instead; the other shards keep serving either
    /// way. Returns the deterministic size of the recovery: committed
    /// sub-transactions replayed from the recovered log (0 when volatile
    /// or down).
    fn respawn_shard(&mut self, s: usize) -> u64 {
        // The dead worker's SessionDb — and the log file handle it owns —
        // was dropped in place when its job panicked, so recovery below
        // reopens a closed file.
        let proj = self.partition.project(&self.init, s);
        let cc = shard_cc(self.kind, self.workers.len());
        let mut db = if let Some((dir, mode)) = self.durable.clone() {
            let path = Self::shard_path(&dir, s);
            let rec = match recovery::recover(&path) {
                Ok(rec) => rec,
                Err(_) => {
                    self.down[s] = true;
                    return 0;
                }
            };
            if let Some(r) = &rec {
                // The shard may have coordinated 2PCs: its durable
                // decisions join the in-process table before the
                // consultation below (and for every later crash).
                for (&gtid, &commit) in &r.resolutions {
                    self.decided.insert(gtid, commit);
                }
                self.next_gts = self.next_gts.max(r.floor).max(r.max_gtid);
            }
            let decided = &self.decided;
            match SessionDb::from_recovered(
                cc,
                proj,
                &path,
                mode,
                self.expected_txns,
                rec,
                &mut |p| decided.get(&p.gtid).copied().unwrap_or(false),
            ) {
                Ok(db) => db,
                Err(_) => {
                    self.down[s] = true;
                    return 0;
                }
            }
        } else {
            SessionDb::with_capacity(cc, proj, self.expected_txns)
        };
        let replayed = db.recovery_info().map_or(0, |ri| ri.committed);
        if let Some(hub) = &self.trace_hub {
            db.set_tracer(hub.tracer(s as u32));
        }
        self.workers[s] = Worker::spawn(db);
        replayed
    }

    /// The crashed shard held state of a transaction whose commit point
    /// already survived (the coordinator's durable resolve): finish phase
    /// 2 on the surviving shards and record the committed outcome.
    fn finish_decided_commit(&mut self, ti: usize, crashed: usize) {
        let floor = self.min_active_gts(ti);
        self.slots[ti].subs[crashed] = SubState::Absent;
        let subs = self.slots[ti].subs.iter().enumerate();
        let resolves = subs.filter_map(|(s, &state)| {
            let SubState::Prepared(sub) = state else {
                return None;
            };
            let resolve = move |db: &mut SessionDb| {
                db.set_gc_floor(floor);
                db.resolve_commit(sub, true, false)
                    .expect("participant sub is prepared")
            };
            Some((s, resolve))
        });
        // Not supervised (this *is* the supervisor): a survivor that dies
        // here is found by its own next interaction.
        gather(&self.workers, None, resolves);
        self.land(ti, true);
    }

    /// Fail a running global transaction whose state on the crashed shard
    /// is gone: record the abort decision (an in-doubt prepare surfacing
    /// in any later recovery must settle the same way), roll back its
    /// sub-transactions on the surviving shards, and park the slot as
    /// [`GStatus::Failed`] — the client sees `SessionError::ShardDown` and
    /// aborts the handle.
    fn fail_slot(&mut self, ti: usize, crashed: usize) {
        self.failover_fails += 1;
        if self.coord_tracer.is_on() {
            let (gts, tick) = (self.slots[ti].gts, self.next_gts);
            self.coord_tracer.emit(
                tick,
                EventKind::Abort {
                    txn: gts,
                    rule: ConflictRule::ShardFailover,
                    var: None,
                    opponent: None,
                },
            );
        }
        if self.durable.is_some() && self.slots[ti].touched.len() > 1 {
            let gts = self.slots[ti].gts;
            self.decided.entry(gts).or_insert(false);
        }
        let subs = self.slots[ti].subs.iter().enumerate();
        let rollbacks = subs.filter_map(|(s, state)| {
            let sub = state.txn()?;
            // Defensive rollback: mid-crash, the shard's view of the
            // sub may legitimately differ from the coordinator's, so
            // the job re-checks instead of asserting.
            let rollback = move |db: &mut SessionDb| match db.status(sub) {
                SessionStatus::Running => {
                    let _ = db.abort(sub);
                }
                SessionStatus::Prepared => {
                    let _ = db.resolve_commit(sub, false, false);
                }
                _ => {}
            };
            (s != crashed).then_some((s, rollback))
        });
        gather(&self.workers, None, rollbacks);
        let sl = &mut self.slots[ti];
        sl.subs.fill(SubState::Absent);
        sl.touched.clear();
        sl.status = GStatus::Failed;
    }
}
