//! Execution counters.

use ccopt_trace::ConflictRule;

/// Counters collected by the engine and consumed by the simulator's
/// reports.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Metrics {
    /// Steps executed (including ones later rolled back).
    pub steps_executed: usize,
    /// Steps that had to wait at least once.
    pub waits: usize,
    /// Transaction aborts (each restart re-runs the transaction).
    pub aborts: usize,
    /// Transaction commits.
    pub commits: usize,
    /// Aborts of multi-version *writers* at validation: the write could no
    /// longer be installed at the transaction's timestamp — under MVTO
    /// because a newer committed version exists (write-write) or a younger
    /// snapshot already observed the superseded version (read-write);
    /// under SI always a first-committer-wins write-write loss. A subset
    /// of `aborts`; always 0 for single-version mechanisms.
    pub mv_write_aborts: usize,
    /// Versions installed into the multi-version store (0 outside MV runs).
    pub versions_installed: usize,
    /// Versions reclaimed by the GC watermark (0 outside MV runs).
    pub versions_reclaimed: usize,
    /// Longest version chain observed across the run (gauge; 0 outside MV
    /// runs).
    pub max_chain_len: usize,
    /// Sessions retired: finished transactions whose dense slot was handed
    /// back for recycling (the open-world lifecycle; always 0 under the
    /// closed-world driver, which never retires).
    pub retires: usize,
    /// Write-ahead-log records appended (0 when durability is off).
    pub wal_records: usize,
    /// Write-ahead-log `fsync`s issued; under group commit this grows by
    /// one per *batch*, not per commit (0 when durability is off).
    pub wal_syncs: usize,
    /// Bytes written to the write-ahead log (0 when durability is off).
    pub wal_bytes: usize,
    /// Crashed shard workers detected and restarted by the sharded
    /// supervisor (0 outside sharded runs).
    pub shard_restarts: usize,
    /// Write-ahead-log I/O attempts retried after a transient storage
    /// fault (0 when durability is off or the storage behaves).
    pub io_retries: usize,
    /// Shard messages on the operation lifecycle. Each is one job run
    /// under a shard's ownership token — a run of operations and
    /// single-shard commits (a lazy begin rides the first), or a retire —
    /// counted whichever thread runs it. Most run inline on the
    /// coordinator's thread, so this counts jobs, not thread hand-offs.
    /// Two-phase commit's votes and resolves are not counted. The
    /// messaging tax is `shard_msgs / batched_ops` messages per
    /// operation: 1.0+ on the per-op path, a small fraction under batched
    /// submission (0 outside sharded runs).
    pub shard_msgs: usize,
    /// Data operations carried by those `shard_msgs` messages (0 outside
    /// sharded runs).
    pub batched_ops: usize,
    /// `aborts` broken down by the conflict rule that fired, indexed by
    /// [`ConflictRule::index`]. Rows sum to `aborts`; aborts the mechanism
    /// did not attribute land under [`ConflictRule::Unattributed`] and
    /// client-requested rollbacks under [`ConflictRule::Client`].
    pub aborts_by_rule: [usize; ConflictRule::COUNT],
}

impl Metrics {
    /// Abort rate per commit (0 when nothing committed).
    pub fn abort_rate(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }

    /// Aborts attributed to `rule`.
    pub fn aborts_for(&self, rule: ConflictRule) -> usize {
        self.aborts_by_rule[rule.index()]
    }

    /// A copy of the current counters, for later [`Metrics::diff`]. The
    /// struct is `Copy`, so this is just a named, intention-revealing
    /// clone: tests snapshot before an operation and assert on the delta
    /// instead of on absolute counts that break whenever setup changes.
    pub fn snapshot(&self) -> Metrics {
        *self
    }

    /// The counters accumulated since `earlier` (elementwise saturating
    /// subtraction — a counter that somehow went backwards reads 0 rather
    /// than wrapping). Gauges are not differenced: `max_chain_len` keeps
    /// its current value.
    pub fn diff(&self, earlier: &Metrics) -> Metrics {
        let mut aborts_by_rule = [0usize; ConflictRule::COUNT];
        for (i, slot) in aborts_by_rule.iter_mut().enumerate() {
            *slot = self.aborts_by_rule[i].saturating_sub(earlier.aborts_by_rule[i]);
        }
        Metrics {
            steps_executed: self.steps_executed.saturating_sub(earlier.steps_executed),
            waits: self.waits.saturating_sub(earlier.waits),
            aborts: self.aborts.saturating_sub(earlier.aborts),
            commits: self.commits.saturating_sub(earlier.commits),
            mv_write_aborts: self.mv_write_aborts.saturating_sub(earlier.mv_write_aborts),
            versions_installed: self
                .versions_installed
                .saturating_sub(earlier.versions_installed),
            versions_reclaimed: self
                .versions_reclaimed
                .saturating_sub(earlier.versions_reclaimed),
            max_chain_len: self.max_chain_len,
            retires: self.retires.saturating_sub(earlier.retires),
            wal_records: self.wal_records.saturating_sub(earlier.wal_records),
            wal_syncs: self.wal_syncs.saturating_sub(earlier.wal_syncs),
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
            shard_restarts: self.shard_restarts.saturating_sub(earlier.shard_restarts),
            io_retries: self.io_retries.saturating_sub(earlier.io_retries),
            shard_msgs: self.shard_msgs.saturating_sub(earlier.shard_msgs),
            batched_ops: self.batched_ops.saturating_sub(earlier.batched_ops),
            aborts_by_rule,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let m = Metrics::default();
        assert_eq!(m.abort_rate(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let m = Metrics {
            aborts: 1,
            commits: 4,
            ..Metrics::default()
        };
        assert!((m.abort_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn diff_reports_the_delta_and_keeps_gauges() {
        let mut before = Metrics {
            steps_executed: 10,
            aborts: 2,
            commits: 5,
            max_chain_len: 3,
            ..Metrics::default()
        };
        before.aborts_by_rule[ConflictRule::Deadlock.index()] = 2;
        let mut after = before;
        after.steps_executed = 25;
        after.aborts = 3;
        after.commits = 11;
        after.max_chain_len = 4;
        after.aborts_by_rule[ConflictRule::Deadlock.index()] = 3;
        let d = after.diff(&before);
        assert_eq!(d.steps_executed, 15);
        assert_eq!(d.aborts, 1);
        assert_eq!(d.commits, 6);
        assert_eq!(d.max_chain_len, 4); // gauge: current value, not a delta
        assert_eq!(d.aborts_for(ConflictRule::Deadlock), 1);
        assert_eq!(d.aborts_for(ConflictRule::LockWait), 0);
        // A snapshot diffed against itself is all-zero counters.
        let z = after.diff(&after.snapshot());
        assert_eq!(z.commits, 0);
        assert_eq!(z.aborts_by_rule, [0; ConflictRule::COUNT]);
    }
}
