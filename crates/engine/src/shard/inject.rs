//! Fault injection (tests): the one struct holding the crash and panic
//! scripts, resolved once per round at the one 2PC submit site
//! (`ShardedDb::twopc_scatter`), plus the direct shard-kill and
//! storage-fault hooks. `docs/FAULTS.md` lists the whole surface.
//!
//! A script changes nothing about how a round runs: a durable vote round
//! still overlaps its fsyncs while one is armed. The script is resolved
//! for the whole round before any job starts, and each job carries its
//! own shard's part of it (`ShardedDb::arm_round`): "kill every log
//! before action `n`" runs on each shard *after* its job when that job
//! comes before the boundary, *before* it otherwise, and "panic job `n`"
//! replaces that job. Both land at the same point of every shard's work
//! by construction. Every job runs on the coordinator's thread, so a
//! scripted panic unwinds there, where it is caught at the shard's fault
//! boundary — the coordinator survives it.

use super::jobs::gather;
use super::ShardedDb;
use crate::session::SessionDb;
use ccopt_durability::StorageFaults;

/// The armed injection scripts and their progress counters.
#[derive(Default)]
pub(super) struct Inject {
    /// Durable 2PC actions (prepare fsyncs, coordinator resolve fsyncs)
    /// allowed before every shard log dies.
    crash_budget: Option<u64>,
    twopc_actions: u64,
    /// The budget ran out: every shard log has been killed.
    dead: bool,
    /// 2PC job index (votes, coordinator resolve, participant resolves,
    /// counted from arming) replaced with a panic.
    #[cfg(test)]
    panic_at_2pc_job: Option<u64>,
    #[cfg(test)]
    twopc_jobs: u64,
}

#[cfg(test)]
impl Inject {
    /// The position, in a round of `jobs` two-phase-commit jobs, of the
    /// one the scripted panic replaces, if it falls in this round; counts
    /// the round's jobs.
    fn bomb(&mut self, jobs: usize) -> Option<usize> {
        let n = self.panic_at_2pc_job?;
        let at = n.checked_sub(self.twopc_jobs).filter(|&k| k < jobs as u64);
        self.twopc_jobs += jobs as u64;
        at.map(|k| k as usize)
    }
}

/// Kill a shard's log: it silently drops every later record.
fn kill_log(db: &mut SessionDb) {
    db.wal_crash_after_records(0);
}

impl ShardedDb {
    /// Resolve the scripts for one round of two-phase-commit jobs, in job
    /// order, and arm each job with its own shard's part. `durable` jobs
    /// (votes, the coordinator resolve) count against the crash budget;
    /// when the budget runs out before job `k`, jobs before `k` kill
    /// their shard's log right after running, the rest right before. A
    /// shard with no job in the round has no position in it to keep: its
    /// log dies here, on this thread. The scripted panic replaces its job.
    pub(super) fn arm_round<R, F>(
        &mut self,
        durable: bool,
        jobs: Vec<(usize, F)>,
    ) -> impl Iterator<Item = (usize, impl FnOnce(&mut SessionDb) -> R)>
    where
        F: FnOnce(&mut SessionDb) -> R,
    {
        let (inject, mut kill_before) = (&mut self.inject, None);
        for i in 0..jobs.len() {
            if durable {
                let spent = inject
                    .crash_budget
                    .is_some_and(|n| inject.twopc_actions >= n);
                if spent && !inject.dead {
                    inject.dead = true;
                    kill_before = Some(i);
                }
                inject.twopc_actions += 1;
            }
        }
        // Only a test can script a panic (`panic_after_2pc_jobs`).
        #[cfg(test)]
        let bomb = inject.bomb(jobs.len());
        #[cfg(not(test))]
        let bomb: Option<usize> = None;
        if kill_before.is_some() {
            let idle = (0..self.workers.len()).filter(|&s| jobs.iter().all(|&(t, _)| t != s));
            gather(&self.workers, None, idle.map(|s| (s, kill_log)));
        }
        jobs.into_iter().enumerate().map(move |(i, (s, job))| {
            let kill_first = kill_before.map(|k| i >= k);
            let job = move |db: &mut SessionDb| {
                if kill_first == Some(true) {
                    kill_log(db);
                }
                if bomb == Some(i) {
                    // The worker dies AT this protocol boundary, in place
                    // of performing the action — the sharpest version of
                    // a shard failing mid-protocol.
                    panic!("injected shard-worker panic at a 2PC boundary");
                }
                let out = job(db);
                if kill_first == Some(false) {
                    kill_log(db);
                }
                out
            };
            (s, job)
        })
    }

    /// Fault injection (tests): let `n` two-phase-commit jobs (votes,
    /// coordinator resolve, participant resolves — in protocol order,
    /// shard order within a round) run **from this call on**, then hand
    /// over a panic in place of the next one, on the coordinator's thread
    /// like every job. The other jobs of its round still run, and a
    /// durable round still overlaps their fsyncs.
    #[cfg(test)]
    pub(crate) fn panic_after_2pc_jobs(&mut self, n: u64) {
        self.inject.panic_at_2pc_job = Some(n);
        self.inject.twopc_jobs = 0;
    }
}

/// The injection hooks tests and the fault simulator arm from outside
/// the crate: not part of the database's documented surface.
#[doc(hidden)]
impl ShardedDb {
    /// Crash injection (tests): allow `n` durable two-phase-commit
    /// actions **from this call on** — each participant's prepare fsync
    /// and each coordinator resolve fsync counts one, in shard order —
    /// then kill **every** shard log at that boundary, as a coordinator
    /// process crash would. The vote round keeps its overlap: each shard
    /// whose job comes before action `n` kills its log right after that
    /// job (its prepare written, its deferred fsync still collected), the
    /// others right before theirs.
    pub fn crash_after_2pc_actions(&mut self, n: u64) {
        self.inject.crash_budget = Some(n);
        self.inject.twopc_actions = 0;
    }

    /// Fault injection (tests): kill shard `s`'s worker now, exactly as a
    /// shard-local bug would — the bomb job panics under the shard's
    /// ownership token, which drops the shard state mid-flight (its log
    /// closes without a final flush: crash semantics) before this
    /// returns; supervision happens at the next touch, or via
    /// [`check_shards`](Self::check_shards).
    pub fn panic_shard(&mut self, s: usize) {
        let _ = self.workers[s].call(|_db: &mut SessionDb| panic!("injected shard-worker panic"));
    }

    /// Install a storage-fault script on shard `s`'s write-ahead log
    /// (no-op without durability); see [`StorageFaults`].
    pub fn set_shard_faults(&mut self, s: usize, faults: StorageFaults) {
        let _ = self.workers[s].call(move |db| db.wal_set_faults(faults));
    }
}
