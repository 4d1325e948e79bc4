//! The append side of the redo-only log: durability modes, group commit,
//! checkpoint rewriting, and crash injection.
//!
//! Records are encoded into an in-memory `pending` buffer first (via the
//! reusable [`RecordEncoder`] scratch); the [`DurabilityMode`] decides
//! when the buffer reaches the file and is `fsync`ed:
//!
//! * [`Strict`](DurabilityMode::Strict) — every commit flushes and syncs
//!   before it is acknowledged; nothing acknowledged is ever lost.
//! * [`Group`](DurabilityMode::Group) — commits are acknowledged
//!   immediately and batched; the buffer flushes and syncs when
//!   `max_batch` commits are pending or the oldest pending commit is more
//!   than `max_delay_ticks` engine ticks old. One `fsync` amortizes over
//!   the whole batch, so throughput stays close to no-logging at a
//!   bounded loss window (at most one batch of acknowledged commits on a
//!   crash).
//! * [`None`](DurabilityMode::None) — no log at all (the engine does not
//!   construct a `Wal`).
//!
//! Begin and abort records ride in the buffer without ever forcing a
//! sync: they carry no durability obligation (redo-only logging), they
//! only document the stream and let recovery discard superseded
//! write-sets.
//!
//! A caller that forces several logs at once overlaps their fsyncs with
//! a deferred-sync window ([`Wal::defer_syncs`] … [`Wal::finish_syncs`]):
//! the fsync the window forces runs on the log's own syncer thread
//! (`ccopt-wal-sync`, started on first use and joined when the log
//! drops) while the caller writes the next log, and is waited for and
//! accounted for, faults and crash boundary included, at the window's
//! end. A log never deferred starts no thread.
//!
//! Crash injection (`crash_after_records` / `crash_after_syncs`) kills
//! the log at a configurable append or fsync boundary: once the boundary
//! is crossed, the `Wal` silently drops everything — exactly what a
//! process kill at that point leaves on disk. The crash-recovery
//! differential tests drive it.
//!
//! Storage-fault injection ([`Wal::set_faults`]) models the other axis:
//! the process lives but the storage misbehaves. Transient failures are
//! retried under the [`RetryPolicy`] (sound because the full record batch
//! stays in the user-space `pending` buffer until a flush round-trip
//! succeeds — every retry rewrites the whole batch, dodging the
//! fsync-retry trap where the kernel page cache silently drops the dirty
//! pages a failed fsync covered); permanent and torn failures poison the
//! log fail-stop (see [`crate::faults`]).

use crate::encoding::{encode_header, RecordEncoder, StoreKind};
use crate::faults::{
    io_error_is_transient, permanent_error, transient_error, FaultPoint, Fired, RetryPolicy,
    StorageFaults,
};
use crate::{StoreImage, WalError};
use ccopt_model::ids::VarId;
use ccopt_model::value::Value;
use ccopt_trace::Histogram;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A decoded log record (the read-side mirror of what the encoder
/// writes; produced by [`crate::recovery`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalRecord {
    /// A transaction attempt started.
    Begin {
        /// Global sequence number of the attempt (never recycled).
        gsn: u64,
    },
    /// The after-images of a committing transaction.
    WriteSet {
        /// The committing attempt.
        gsn: u64,
        /// Version timestamp the writes install at (0 on the
        /// single-version store).
        cts: u64,
        /// `(variable, after-image)` pairs in first-write order.
        writes: Vec<(VarId, Value)>,
    },
    /// The commit point: the transaction is durable iff this is intact.
    Commit {
        /// The committed attempt.
        gsn: u64,
    },
    /// The attempt aborted (its write-set, if logged, is void).
    Abort {
        /// The aborted attempt.
        gsn: u64,
    },
    /// A full store snapshot; replay restarts here.
    Checkpoint {
        /// Timestamp floor: every version in the image is at or below it,
        /// and recovery resumes the engine's clocks above it.
        floor: u64,
        /// The store snapshot.
        image: StoreImage,
    },
    /// Two-phase commit, phase 1: this shard voted yes on a cross-shard
    /// transaction and its write-set is durable, but the outcome is not
    /// decided here. Recovery parks it as **in-doubt** until a
    /// [`Resolve`](WalRecord::Resolve) record (or, after a crash, the
    /// coordinator shard's log) decides it.
    Prepare {
        /// Local attempt sequence number (the shard's WAL identity).
        gsn: u64,
        /// Global transaction id, shared by every shard's prepare record
        /// of the same cross-shard transaction.
        gtid: u64,
        /// Version timestamp the writes install at if committed (0 on the
        /// single-version store).
        cts: u64,
        /// Shard index whose log holds the authoritative commit decision.
        coord: u32,
        /// `(variable, after-image)` pairs in first-write order (local
        /// variable ids of this shard).
        writes: Vec<(VarId, Value)>,
    },
    /// Two-phase commit, phase 2: the decision for a prepared global
    /// transaction. On the coordinator shard this record is the commit
    /// point of the whole cross-shard transaction.
    Resolve {
        /// The decided global transaction.
        gtid: u64,
        /// `true` applies the parked prepare; `false` discards it.
        commit: bool,
    },
}

/// When commit records reach the disk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DurabilityMode {
    /// No logging.
    None,
    /// Group commit: acknowledge immediately, flush+sync every
    /// `max_batch` commits or when the oldest pending commit is
    /// `max_delay_ticks` engine ticks old.
    Group {
        /// Commits per shared fsync.
        max_batch: usize,
        /// Deadline (engine ticks) before a partial batch flushes anyway.
        max_delay_ticks: u64,
    },
    /// Flush+sync inside every commit, before it is acknowledged.
    Strict,
}

impl DurabilityMode {
    /// Group commit with a batch of `n` and a proportional deadline.
    pub fn group(n: usize) -> DurabilityMode {
        DurabilityMode::Group {
            max_batch: n.max(1),
            max_delay_ticks: 64 * n.max(1) as u64,
        }
    }
}

impl std::fmt::Display for DurabilityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityMode::None => write!(f, "none"),
            DurabilityMode::Group { max_batch, .. } => write!(f, "group({max_batch})"),
            DurabilityMode::Strict => write!(f, "strict"),
        }
    }
}

/// Append-side counters (exposed through the engine's metrics).
#[derive(Clone, Copy, Default, Debug)]
pub struct WalStats {
    /// Records appended (buffered or written).
    pub records: u64,
    /// `fsync`s issued.
    pub syncs: u64,
    /// Bytes written to the file.
    pub bytes: u64,
    /// I/O attempts retried after a transient failure.
    pub retries: u64,
}

/// Append-side latency and batching distributions. Always on (recording
/// is a few instructions). The two I/O histograms are wall-clock and so
/// vary run to run; the batch histogram counts commits per flushed group
/// and is fully deterministic under a deterministic driver.
#[derive(Clone, Debug, Default)]
pub struct WalHistograms {
    /// Nanoseconds per successful batch write to the file (the append
    /// syscall, excluding retries' backoff sleeps).
    pub append_nanos: Histogram,
    /// Nanoseconds per successful `fsync`.
    pub fsync_nanos: Histogram,
    /// Commit records per flushed batch: 1 under `Strict`, up to
    /// `max_batch` under group commit — the direct view of how well the
    /// group is amortizing its fsyncs.
    pub flush_batch_commits: Histogram,
}

/// The write-ahead log of one database.
pub struct Wal {
    path: PathBuf,
    /// Shared with the syncer thread, which fsyncs whichever file is the
    /// log when a sync is posted.
    file: Arc<File>,
    mode: DurabilityMode,
    enc: RecordEncoder,
    /// Framed records not yet written to the file.
    pending: Vec<u8>,
    /// Commit records in `pending`.
    pending_commits: usize,
    /// Tick of the oldest pending commit (deadline basis).
    oldest_pending_commit: u64,
    store_kind: StoreKind,
    num_vars: u32,
    /// Append-side counters.
    stats: WalStats,
    /// Append-side latency/batching distributions.
    hist: WalHistograms,
    /// Crash injection: die once this many records were appended.
    crash_after_records: Option<u64>,
    /// Crash injection: die once this many syncs completed.
    crash_after_syncs: Option<u64>,
    /// The log is dead (simulated kill): drop everything silently.
    dead: bool,
    /// Scripted storage faults (see [`crate::faults`]).
    faults: StorageFaults,
    /// Bounded retry for transient I/O failures.
    retry: RetryPolicy,
    /// Fail-stop: an unretryable or torn write left the on-disk suffix
    /// unknowable; every further operation errors.
    poisoned: bool,
    /// Inside a [`defer_syncs`](Wal::defer_syncs) window: the next fsync
    /// goes to the syncer thread.
    deferring: bool,
    /// An fsync was posted to the syncer and not yet collected.
    posted: bool,
    /// Started by the first deferred fsync; joined when the log drops.
    syncer: Option<Syncer>,
}

/// An fsync's outcome and its duration in nanoseconds.
type Synced = (std::io::Result<()>, u64);

fn timed_sync(file: &File) -> Synced {
    let t0 = Instant::now();
    let res = file.sync_data();
    (res, t0.elapsed().as_nanos() as u64)
}

/// A log's syncer thread: it runs each fsync posted to it and reports
/// the outcome, so the poster can go on writing another log meanwhile.
struct Syncer {
    /// `None` once dropping: closing the channel ends the thread.
    post: Option<Sender<Arc<File>>>,
    done: Receiver<Synced>,
    thread: Option<JoinHandle<()>>,
}

impl Syncer {
    fn start() -> std::io::Result<Syncer> {
        let (post, posted) = channel::<Arc<File>>();
        let (report, done) = channel();
        let thread = std::thread::Builder::new()
            .name("ccopt-wal-sync".into())
            .spawn(move || {
                for file in posted {
                    if report.send(timed_sync(&file)).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Syncer {
            post: Some(post),
            done,
            thread: Some(thread),
        })
    }
}

impl Drop for Syncer {
    fn drop(&mut self) {
        // The thread ends once its channel closes (after any fsync in
        // flight), so joining it releases its handle on the file.
        drop(self.post.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Wal {
    /// Create a fresh log at `path` (truncating anything there): header
    /// plus an initial checkpoint of `image`, synced.
    pub fn create(
        path: &Path,
        mode: DurabilityMode,
        floor: u64,
        image: &StoreImage,
    ) -> Result<Wal, WalError> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let mut wal = Wal::over(path, file, mode, image.kind(), image.num_vars() as u32);
        let header = encode_header(wal.store_kind, wal.num_vars);
        (&*wal.file).write_all(&header)?;
        wal.stats.bytes += header.len() as u64;
        wal.enc.checkpoint(floor, image);
        wal.enc.frame_into(&mut wal.pending);
        wal.stats.records += 1;
        wal.flush_sync()?;
        // The file's *existence* must survive a power failure too:
        // persist the directory entry.
        sync_parent_dir(&wal.path)?;
        Ok(wal)
    }

    /// Reopen an existing, already-recovered log for appending. The
    /// caller (recovery) has truncated the torn tail; appends go at the
    /// end of the valid prefix.
    pub fn append_to(
        path: &Path,
        mode: DurabilityMode,
        store_kind: StoreKind,
        num_vars: u32,
    ) -> Result<Wal, WalError> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Wal::over(path, file, mode, store_kind, num_vars))
    }

    /// A log over the opened `file` at `path`, with nothing pending,
    /// zeroed counters and no fault armed.
    fn over(
        path: &Path,
        file: File,
        mode: DurabilityMode,
        store_kind: StoreKind,
        num_vars: u32,
    ) -> Wal {
        Wal {
            path: path.to_path_buf(),
            file: Arc::new(file),
            mode,
            enc: RecordEncoder::new(),
            pending: Vec::new(),
            pending_commits: 0,
            oldest_pending_commit: 0,
            store_kind,
            num_vars,
            stats: WalStats::default(),
            hist: WalHistograms::default(),
            crash_after_records: None,
            crash_after_syncs: None,
            dead: false,
            faults: StorageFaults::default(),
            retry: RetryPolicy::default(),
            poisoned: false,
            deferring: false,
            posted: false,
            syncer: None,
        }
    }

    /// Append-side counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Append-side latency and batching distributions.
    pub fn histograms(&self) -> &WalHistograms {
        &self.hist
    }

    /// The policy this log flushes under.
    pub fn mode(&self) -> DurabilityMode {
        self.mode
    }

    /// Crash injection: the log dies (drops all further records and
    /// syncs) once `n` records have been appended — a simulated kill at
    /// that append boundary.
    pub fn crash_after_records(&mut self, n: u64) {
        self.crash_after_records = Some(n);
        self.check_crash();
    }

    /// Crash injection: the log dies once `n` fsyncs have completed — a
    /// simulated kill at that fsync boundary.
    pub fn crash_after_syncs(&mut self, n: u64) {
        self.crash_after_syncs = Some(n);
        self.check_crash();
    }

    /// Has a crash-injection boundary been crossed?
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Install a storage-fault script (replacing any previous one).
    pub fn set_faults(&mut self, faults: StorageFaults) {
        self.faults = faults;
    }

    /// Set the bounded retry policy for transient I/O failures.
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Has the log fail-stopped after an unretryable or torn write?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn check_crash(&mut self) {
        let records_hit = self
            .crash_after_records
            .is_some_and(|n| self.stats.records >= n);
        let syncs_hit = self
            .crash_after_syncs
            .is_some_and(|n| self.stats.syncs >= n);
        if records_hit || syncs_hit {
            // The process died: whatever was buffered never reaches disk.
            self.dead = true;
            self.pending.clear();
            self.pending_commits = 0;
        }
    }

    fn append_framed(&mut self) {
        if self.dead {
            return;
        }
        self.enc.frame_into(&mut self.pending);
        self.stats.records += 1;
        self.check_crash();
    }

    /// Log a transaction attempt start (buffered; never syncs).
    pub fn begin_txn(&mut self, gsn: u64) {
        self.enc.begin(gsn);
        self.append_framed();
    }

    /// Log an abort (buffered; never syncs — aborts carry no durability
    /// obligation under redo-only logging).
    pub fn abort_txn(&mut self, gsn: u64) {
        self.enc.abort(gsn);
        self.append_framed();
    }

    /// Start the commit group of `gsn`: opens the write-set record at
    /// version timestamp `cts` (0 on the single-version store).
    pub fn start_commit(&mut self, gsn: u64, cts: u64) {
        self.enc.start_writeset(gsn, cts);
    }

    /// Append one after-image to the open write-set.
    pub fn push_write(&mut self, var: VarId, value: Value) {
        self.enc.push_write(var, value);
    }

    /// Close the commit group: frames the write-set and the commit
    /// record, then flushes per the durability mode. Returns `true` when
    /// this commit paid an fsync (the group-commit batch leader or every
    /// commit under `Strict`).
    pub fn finish_commit(&mut self, gsn: u64, tick: u64) -> Result<bool, WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        self.append_framed(); // the write-set
        self.enc.commit(gsn);
        self.append_framed();
        if self.dead {
            return Ok(false);
        }
        if self.pending_commits == 0 {
            self.oldest_pending_commit = tick;
        }
        self.pending_commits += 1;
        let flush = match self.mode {
            DurabilityMode::Strict => true,
            DurabilityMode::Group {
                max_batch,
                max_delay_ticks,
            } => {
                self.pending_commits >= max_batch
                    || tick.saturating_sub(self.oldest_pending_commit) >= max_delay_ticks
            }
            DurabilityMode::None => false,
        };
        if flush {
            self.flush_sync()?;
        }
        Ok(flush)
    }

    /// Start the prepare record of `gsn` voting yes on global transaction
    /// `gtid` (2PC phase 1): opens the write-set at version timestamp
    /// `cts`, naming shard `coord` as the holder of the commit decision.
    /// Push the after-images with [`push_write`](Self::push_write), then
    /// [`finish_prepare`](Self::finish_prepare).
    pub fn start_prepare(&mut self, gsn: u64, gtid: u64, cts: u64, coord: u32) {
        self.enc.start_prepare(gsn, gtid, cts, coord);
    }

    /// Close and **force** the open prepare record: a yes-vote must be
    /// durable before the coordinator may decide, in every durability
    /// mode — otherwise a committed decision could survive a crash that
    /// lost a participant's write-set.
    pub fn finish_prepare(&mut self) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        self.append_framed();
        if self.dead {
            return Ok(());
        }
        self.flush_sync()
    }

    /// Append the decision for prepared global transaction `gtid` (2PC
    /// phase 2). With `force_sync` the record is flushed and fsynced
    /// before returning — the coordinator's commit point; participants
    /// leave it buffered (their recovery re-derives the decision from the
    /// coordinator's log if it is lost).
    pub fn resolve_txn(
        &mut self,
        gtid: u64,
        commit: bool,
        force_sync: bool,
    ) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        self.enc.resolve(gtid, commit);
        self.append_framed();
        if force_sync && !self.dead {
            self.flush_sync()?;
        }
        Ok(())
    }

    /// Flush the pending buffer to the file and sync it (graceful
    /// shutdown, or an explicit durability point). No-op when nothing is
    /// pending; silently dropped after a simulated crash. Transient I/O
    /// failures are retried under the [`RetryPolicy`]; an unretryable or
    /// torn failure poisons the log (fail-stop) and surfaces.
    pub fn flush_sync(&mut self) -> Result<(), WalError> {
        if self.dead {
            return Ok(());
        }
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        if !self.pending.is_empty() {
            self.hist
                .flush_batch_commits
                .record(self.pending_commits as u64);
            self.write_pending()?;
        }
        if self.deferring && !self.posted && self.post_sync() {
            return Ok(());
        }
        self.sync_file(None)?;
        self.check_crash();
        Ok(())
    }

    /// Open a deferred-sync window: the next fsync this log forces (a
    /// [`flush_sync`](Self::flush_sync), a prepare, a forced resolve)
    /// runs on the log's syncer thread, started on first use, and the
    /// call that forced it returns once its records are written.
    /// [`finish_syncs`](Self::finish_syncs) closes the window and waits
    /// for that fsync, so several logs' fsyncs can be in flight at once.
    /// Nothing written in the window counts as durable until then.
    pub fn defer_syncs(&mut self) {
        self.deferring = true;
    }

    /// Close the [`defer_syncs`](Self::defer_syncs) window: wait for the
    /// fsync posted in it, if any, and account for it exactly as for an
    /// inline one (scripted sync faults, retries, statistics, the
    /// `crash_after_syncs` boundary). Its failure surfaces here.
    pub fn finish_syncs(&mut self) -> Result<(), WalError> {
        self.deferring = false;
        if !std::mem::take(&mut self.posted) {
            return Ok(());
        }
        // No reply means the syncer thread is gone: sync here instead.
        let ran = self.syncer.as_ref().and_then(|s| s.done.recv().ok());
        self.sync_file(ran)?;
        self.check_crash();
        Ok(())
    }

    /// Hand the next fsync to the syncer thread. `false` when no syncer
    /// thread can be had (the system refused one): the caller syncs
    /// inline, losing only the overlap.
    fn post_sync(&mut self) -> bool {
        if self.syncer.is_none() {
            self.syncer = Syncer::start().ok();
        }
        let post = self.syncer.as_ref().and_then(|s| s.post.as_ref());
        self.posted = post.is_some_and(|p| p.send(Arc::clone(&self.file)).is_ok());
        self.posted
    }

    /// Sleep before retry `attempt` (linear backoff; no-op at zero).
    fn backoff(&self, attempt: u32) {
        let d = self.retry.backoff * attempt;
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }

    /// Write the whole pending buffer, retrying transient failures. The
    /// buffer is cleared only on success, so every retry rewrites the
    /// full batch — the reason retrying is sound (nothing relies on a
    /// kernel cache keeping dirty pages across a failed attempt). A torn
    /// or unretryable failure poisons the log.
    fn write_pending(&mut self) -> Result<(), WalError> {
        let mut attempt = 0u32;
        loop {
            let t0 = Instant::now();
            let res: std::io::Result<()> = match self.faults.fire(FaultPoint::Append) {
                Some(Fired::Transient) => Err(transient_error()),
                Some(Fired::Permanent) => Err(permanent_error()),
                Some(Fired::Torn) => {
                    // A short write: a prefix of the batch lands on disk
                    // and the bytes end mid-record. Recovery's checksum
                    // scan truncates this tail, so the durable prefix is
                    // exactly the previously-synced commits.
                    let cut = self.pending.len() / 2;
                    let _ = (&*self.file).write_all(&self.pending[..cut]);
                    self.stats.bytes += cut as u64;
                    self.poisoned = true;
                    return Err(WalError::Io(permanent_error()));
                }
                None => (&*self.file).write_all(&self.pending),
            };
            match res {
                Ok(()) => {
                    self.hist
                        .append_nanos
                        .record(t0.elapsed().as_nanos() as u64);
                    self.stats.bytes += self.pending.len() as u64;
                    self.pending.clear();
                    self.pending_commits = 0;
                    self.faults.advance(FaultPoint::Append);
                    return Ok(());
                }
                Err(e) if io_error_is_transient(&e) && attempt < self.retry.max_retries => {
                    attempt += 1;
                    self.stats.retries += 1;
                    self.backoff(attempt);
                }
                Err(e) => {
                    // An exhausted *transient* budget leaves the batch
                    // intact in `pending` (nothing acknowledged, nothing
                    // lost) — the caller may try again later. Unretryable
                    // failures fail-stop.
                    if !io_error_is_transient(&e) {
                        self.poisoned = true;
                    }
                    return Err(WalError::Io(e));
                }
            }
        }
    }

    /// Sync the live log file, retrying transient failures. `ran` is an
    /// fsync the syncer thread already ran, which stands in for the next
    /// real attempt. Nothing is acknowledged until this returns `Ok`, so
    /// a surfaced error never strands an acknowledged commit.
    fn sync_file(&mut self, mut ran: Option<Synced>) -> Result<(), WalError> {
        let mut attempt = 0u32;
        loop {
            let (res, nanos) = match self.faults.fire(FaultPoint::Sync) {
                Some(Fired::Transient) => (Err(transient_error()), 0),
                Some(Fired::Permanent | Fired::Torn) => (Err(permanent_error()), 0),
                None => ran.take().unwrap_or_else(|| timed_sync(&self.file)),
            };
            match res {
                Ok(()) => {
                    self.hist.fsync_nanos.record(nanos);
                    self.stats.syncs += 1;
                    self.faults.advance(FaultPoint::Sync);
                    return Ok(());
                }
                Err(e) if io_error_is_transient(&e) && attempt < self.retry.max_retries => {
                    attempt += 1;
                    self.stats.retries += 1;
                    self.backoff(attempt);
                }
                Err(e) => {
                    if !io_error_is_transient(&e) {
                        self.poisoned = true;
                    }
                    return Err(WalError::Io(e));
                }
            }
        }
    }

    /// Compact the log: write a fresh file holding only the header and a
    /// checkpoint of `image`, sync it, and atomically swap it over the
    /// old log. Pending records are discarded — their effects are inside
    /// the image, so everything acknowledged (even group-commit-buffered)
    /// is durable once the checkpoint lands.
    ///
    /// Failure atomicity: any failure before the rename returns (ENOSPC
    /// while writing the tmp file, the rename itself) scraps the tmp file
    /// and leaves the prior log — old checkpoint plus records, plus the
    /// still-pending buffer — untouched, readable, and appendable; the
    /// error surfaces without poisoning. Failures *after* the rename
    /// poison the log: the swap happened but its durability or the new
    /// append handle could not be established.
    pub fn rewrite_checkpoint(&mut self, floor: u64, image: &StoreImage) -> Result<(), WalError> {
        if self.dead {
            return Ok(());
        }
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        debug_assert_eq!(image.kind(), self.store_kind);
        debug_assert_eq!(image.num_vars() as u32, self.num_vars);
        let tmp = self.path.with_extension("tmp");
        if let Err(e) = self.write_checkpoint_tmp(&tmp, floor, image) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        if let Err(e) = self.rename_checkpoint(&tmp) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // Point of no return: the new file IS the log. Re-target the
        // append handle first — the old handle points at the renamed-over
        // (unlinked) inode, and nothing may be appended there once the
        // swap happened, or acknowledged commits would flow into a dead
        // file.
        match OpenOptions::new().append(true).open(&self.path) {
            Ok(f) => self.file = Arc::new(f),
            Err(e) => {
                self.poisoned = true;
                return Err(e.into());
            }
        }
        // A rename is durable only once the *directory entry* is synced;
        // without this, a power failure after the swap could resurface
        // the old log minus the pending records this checkpoint absorbed
        // — acknowledged commits lost beyond the documented window.
        if let Err(e) = sync_parent_dir(&self.path) {
            self.poisoned = true;
            return Err(e);
        }
        self.pending.clear();
        self.pending_commits = 0;
        self.check_crash();
        Ok(())
    }

    /// Write + sync the checkpoint's tmp file, retrying transient
    /// failures. Never poisons — until the rename, the prior log is the
    /// log.
    fn write_checkpoint_tmp(
        &mut self,
        tmp: &Path,
        floor: u64,
        image: &StoreImage,
    ) -> Result<(), WalError> {
        let header = encode_header(self.store_kind, self.num_vars);
        let mut framed = Vec::new();
        self.enc.checkpoint(floor, image);
        self.enc.frame_into(&mut framed);
        let mut attempt = 0u32;
        loop {
            let res: std::io::Result<()> = match self.faults.fire(FaultPoint::CheckpointWrite) {
                Some(Fired::Transient) => Err(transient_error()),
                Some(Fired::Permanent | Fired::Torn) => Err(permanent_error()),
                None => (|| {
                    let mut f = OpenOptions::new()
                        .create(true)
                        .write(true)
                        .truncate(true)
                        .open(tmp)?;
                    f.write_all(&header)?;
                    f.write_all(&framed)?;
                    f.sync_data()
                })(),
            };
            match res {
                Ok(()) => {
                    self.stats.bytes += (header.len() + framed.len()) as u64;
                    self.stats.records += 1;
                    self.stats.syncs += 1;
                    self.faults.advance(FaultPoint::CheckpointWrite);
                    return Ok(());
                }
                Err(e) if io_error_is_transient(&e) && attempt < self.retry.max_retries => {
                    attempt += 1;
                    self.stats.retries += 1;
                    self.backoff(attempt);
                }
                Err(e) => return Err(WalError::Io(e)),
            }
        }
    }

    /// Rename the synced tmp file over the live log, retrying transient
    /// failures. Never poisons — a failed rename leaves the prior log in
    /// place.
    fn rename_checkpoint(&mut self, tmp: &Path) -> Result<(), WalError> {
        let mut attempt = 0u32;
        loop {
            let res: std::io::Result<()> = match self.faults.fire(FaultPoint::CheckpointRename) {
                Some(Fired::Transient) => Err(transient_error()),
                Some(Fired::Permanent | Fired::Torn) => Err(permanent_error()),
                None => std::fs::rename(tmp, &self.path),
            };
            match res {
                Ok(()) => {
                    self.faults.advance(FaultPoint::CheckpointRename);
                    return Ok(());
                }
                Err(e) if io_error_is_transient(&e) && attempt < self.retry.max_retries => {
                    attempt += 1;
                    self.stats.retries += 1;
                    self.backoff(attempt);
                }
                Err(e) => return Err(WalError::Io(e)),
            }
        }
    }

    /// Current on-disk length of the valid log (observability for tests;
    /// includes the header).
    pub fn file_len(&self) -> Result<u64, WalError> {
        Ok(std::fs::metadata(&self.path)?.len())
    }
}

/// Fsync the directory holding `path`, persisting creations and renames
/// of the file itself (POSIX: data syncs make file *contents* durable,
/// only a directory sync makes the *entry* durable).
fn sync_parent_dir(path: &Path) -> Result<(), WalError> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        File::open(parent)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::recover;
    use crate::scratch_path;

    fn int(i: i64) -> Value {
        Value::Int(i)
    }

    fn single_image(vals: &[i64]) -> StoreImage {
        StoreImage::Single(vals.iter().map(|&i| int(i)).collect())
    }

    #[test]
    fn strict_mode_syncs_every_commit() {
        let path = scratch_path("wal-strict");
        let mut wal =
            Wal::create(&path, DurabilityMode::Strict, 0, &single_image(&[0, 0])).unwrap();
        let base_syncs = wal.stats().syncs;
        for gsn in 0..3u64 {
            wal.begin_txn(gsn);
            wal.start_commit(gsn, 0);
            wal.push_write(VarId(0), int(gsn as i64 + 1));
            assert!(wal.finish_commit(gsn, gsn).unwrap());
        }
        assert_eq!(wal.stats().syncs, base_syncs + 3);
        drop(wal); // crash: nothing pending, everything already durable
        let rec = recover(&path).unwrap().expect("log recovers");
        assert_eq!(rec.committed, 3);
        assert_eq!(
            rec.image.latest(),
            ccopt_model::state::GlobalState::from_ints(&[3, 0])
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_deferred_sync_is_accounted_when_finished_and_faults_as_an_inline_one() {
        let path = scratch_path("wal-deferred");
        let faults =
            StorageFaults::new().fail_sync(1, crate::faults::Fault::Transient { times: 1 });
        let mut wal =
            Wal::create(&path, DurabilityMode::Strict, 0, &single_image(&[0, 0])).unwrap();
        wal.set_faults(faults);
        wal.set_retry(RetryPolicy::immediate(1));
        let base = wal.stats();
        for gsn in 0..2u64 {
            wal.defer_syncs();
            wal.start_commit(gsn, 0);
            wal.push_write(VarId(0), int(gsn as i64 + 1));
            assert!(wal.finish_commit(gsn, gsn).unwrap());
            // Written, handed to the syncer, not yet counted.
            assert_eq!(wal.stats().syncs, base.syncs + gsn);
            // The second sync meets the scripted transient fault at the
            // wait, and is retried there.
            wal.finish_syncs().unwrap();
            assert_eq!(wal.stats().syncs, base.syncs + gsn + 1);
        }
        assert_eq!(wal.stats().retries, base.retries + 1);
        // Outside a window nothing is deferred; a window that forced no
        // fsync finishes at once.
        wal.start_commit(9, 0);
        wal.push_write(VarId(1), int(9));
        assert!(wal.finish_commit(9, 9).unwrap());
        assert_eq!(wal.stats().syncs, base.syncs + 3);
        wal.defer_syncs();
        wal.finish_syncs().unwrap();
        drop(wal);
        let rec = recover(&path).unwrap().expect("log recovers");
        assert_eq!(rec.committed, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_mode_batches_syncs_and_bounds_the_loss_window() {
        let path = scratch_path("wal-group");
        let mode = DurabilityMode::Group {
            max_batch: 4,
            max_delay_ticks: u64::MAX,
        };
        let mut wal = Wal::create(&path, mode, 0, &single_image(&[0])).unwrap();
        let base_syncs = wal.stats().syncs;
        let mut leaders = 0;
        for gsn in 0..10u64 {
            wal.begin_txn(gsn);
            wal.start_commit(gsn, 0);
            wal.push_write(VarId(0), int(gsn as i64 + 1));
            if wal.finish_commit(gsn, gsn).unwrap() {
                leaders += 1;
            }
        }
        // 10 commits, batch of 4: syncs after commits 4 and 8 only.
        assert_eq!(leaders, 2);
        assert_eq!(wal.stats().syncs, base_syncs + 2);
        drop(wal); // crash with 2 commits buffered
        let rec = recover(&path).unwrap().expect("log recovers");
        assert_eq!(rec.committed, 8, "the unsynced tail of the batch is lost");
        assert_eq!(
            rec.image.latest(),
            ccopt_model::state::GlobalState::from_ints(&[8])
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_deadline_flushes_a_partial_batch() {
        let path = scratch_path("wal-deadline");
        let mode = DurabilityMode::Group {
            max_batch: 100,
            max_delay_ticks: 5,
        };
        let mut wal = Wal::create(&path, mode, 0, &single_image(&[0])).unwrap();
        wal.start_commit(0, 0);
        wal.push_write(VarId(0), int(1));
        assert!(!wal.finish_commit(0, 10).unwrap());
        // Next commit arrives past the deadline: the batch flushes.
        wal.start_commit(1, 0);
        wal.push_write(VarId(0), int(2));
        assert!(wal.finish_commit(1, 16).unwrap());
        let rec = recover(&path).unwrap().expect("log recovers");
        assert_eq!(rec.committed, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn explicit_flush_makes_buffered_commits_durable() {
        let path = scratch_path("wal-flush");
        let mut wal =
            Wal::create(&path, DurabilityMode::group(64), 0, &single_image(&[0])).unwrap();
        wal.start_commit(0, 0);
        wal.push_write(VarId(0), int(7));
        assert!(!wal.finish_commit(0, 0).unwrap());
        wal.flush_sync().unwrap();
        drop(wal);
        let rec = recover(&path).unwrap().expect("log recovers");
        assert_eq!(rec.committed, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_rewrite_compacts_and_preserves_state() {
        let path = scratch_path("wal-ckpt");
        let mut wal = Wal::create(&path, DurabilityMode::Strict, 0, &single_image(&[0])).unwrap();
        for gsn in 0..20u64 {
            wal.start_commit(gsn, 0);
            wal.push_write(VarId(0), int(gsn as i64 + 1));
            wal.finish_commit(gsn, gsn).unwrap();
        }
        let before = wal.file_len().unwrap();
        wal.rewrite_checkpoint(0, &single_image(&[20])).unwrap();
        let after = wal.file_len().unwrap();
        assert!(
            after < before,
            "checkpoint must compact the log ({before} -> {after})"
        );
        // Post-checkpoint commits land on top of the image.
        wal.start_commit(100, 0);
        wal.push_write(VarId(0), int(99));
        wal.finish_commit(100, 100).unwrap();
        drop(wal);
        let rec = recover(&path).unwrap().expect("log recovers");
        assert_eq!(rec.committed, 1, "only post-checkpoint commits replay");
        assert_eq!(
            rec.image.latest(),
            ccopt_model::state::GlobalState::from_ints(&[99])
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_injection_kills_the_log_at_an_append_boundary() {
        let path = scratch_path("wal-crash");
        let mut wal = Wal::create(&path, DurabilityMode::Strict, 0, &single_image(&[0])).unwrap();
        // Records: 1 checkpoint + (writeset + commit) per commit. Die at
        // the 5th append: commit 1's records enter the buffer but the
        // process is gone before they are written — only commit 0 (synced
        // at append 3) survives.
        wal.crash_after_records(5);
        for gsn in 0..6u64 {
            wal.start_commit(gsn, 0);
            wal.push_write(VarId(0), int(gsn as i64 + 1));
            let _ = wal.finish_commit(gsn, gsn).unwrap();
        }
        assert!(wal.is_dead());
        drop(wal);
        let rec = recover(&path).unwrap().expect("log recovers");
        assert_eq!(
            rec.committed, 1,
            "the kill boundary caps the durable prefix"
        );
        assert_eq!(
            rec.image.latest(),
            ccopt_model::state::GlobalState::from_ints(&[1])
        );
        let _ = std::fs::remove_file(&path);
    }
}
