//! Fault injection (tests): the one struct holding the crash and panic
//! scripts, consulted at the one 2PC submit site
//! (`ShardedDb::twopc_scatter`), plus the direct shard-kill and
//! storage-fault hooks. `docs/FAULTS.md` lists the whole surface.
//!
//! A script changes no thread assignment: a durable vote round stays
//! **concurrent** while one is armed. The coordinator hands a round's
//! jobs over in shard order and consults the script as each one is
//! handed over, so "kill every log before action `n`" and "panic job
//! `n`" land at a fixed position in every shard's FIFO mailbox — behind
//! the jobs handed over before the boundary, ahead of those after it —
//! whatever the threads' relative speed. Every job that runs on the
//! coordinator's thread (the last vote of a durable round, every job of
//! a volatile round, every resolve) unwinds its scripted panic there,
//! where it is caught at the shard's fault boundary — the coordinator
//! survives it.

use super::jobs::gather;
use super::ShardedDb;
use crate::session::SessionDb;
use ccopt_durability::StorageFaults;
use ccopt_par::Worker;

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
    panic_at_2pc_job: Option<u64>,
    twopc_jobs: u64,
}

impl Inject {
    /// Consulted once per two-phase-commit job, as it is handed over.
    /// `durable` jobs (votes, the coordinator resolve) count against the
    /// crash budget, and the job at the boundary first kills every shard
    /// log. Returns whether this job is the scripted panic.
    pub(super) fn consult(&mut self, durable: bool, workers: &[Worker<SessionDb>]) -> bool {
        if durable {
            if !self.dead && self.crash_budget.is_some_and(|n| self.twopc_actions >= n) {
                self.dead = true;
                let kill = |db: &mut SessionDb| db.wal_crash_after_records(0);
                gather(workers, false, (0..workers.len()).map(|s| (s, kill)));
            }
            self.twopc_actions += 1;
        }
        let Some(n) = self.panic_at_2pc_job else {
            return false;
        };
        self.twopc_jobs += 1;
        self.twopc_jobs - 1 == n
    }
}

impl ShardedDb {
    /// Crash injection (tests): allow `n` durable two-phase-commit
    /// actions **from this call on** — each participant's prepare fsync
    /// and each coordinator resolve fsync counts one, in shard order —
    /// then kill **every** shard log at that boundary, as a coordinator
    /// process crash would. The vote round keeps its threads: the kill is
    /// handed to every shard between the jobs of actions `n - 1` and `n`
    /// (behind a vote still queued there), so each shard runs it in
    /// exactly that position.
    pub fn crash_after_2pc_actions(&mut self, n: u64) {
        self.inject.crash_budget = Some(n);
        self.inject.twopc_actions = 0;
    }

    /// Fault injection (tests): let `n` two-phase-commit jobs (votes,
    /// coordinator resolve, participant resolves — in protocol order,
    /// shard order within a round) run **from this call on**, then hand
    /// over a panic in place of the next one. The other jobs of its round
    /// still run, on the threads they would have run on: a durable vote
    /// round's all-but-last on their shards, everything else on the
    /// coordinator's thread.
    pub fn panic_after_2pc_jobs(&mut self, n: u64) {
        self.inject.panic_at_2pc_job = Some(n);
        self.inject.twopc_jobs = 0;
    }

    /// Fault injection (tests): kill shard `s`'s worker now, exactly as a
    /// shard-local bug would — the bomb job panics under the shard's
    /// ownership token, which drops the shard state mid-flight (its log
    /// closes without a final flush: crash semantics). Returns once the
    /// worker is dead;
    /// supervision happens at the next touch, or via
    /// [`check_shards`](Self::check_shards).
    pub fn panic_shard(&mut self, s: usize) {
        let _ = self.workers[s].call(|_db: &mut SessionDb| panic!("injected shard-worker panic"));
        while self.workers[s].is_alive() {
            std::thread::yield_now();
        }
    }

    /// Install a storage-fault script on shard `s`'s write-ahead log
    /// (no-op without durability); see [`StorageFaults`].
    pub fn set_shard_faults(&mut self, s: usize, faults: StorageFaults) {
        let _ = self.workers[s].call(move |db| db.wal_set_faults(faults));
    }
}
