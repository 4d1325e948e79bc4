//! Open-world session layer: dynamic transactions over recycled dense slots.
//!
//! The closed-world [`crate::db::Database`] mirrors the paper's model — the
//! full transaction system is known up front, ids are frozen, and the run
//! ends when the last of them commits. This module is the arrival-driven
//! substrate underneath it: clients open transactions one at a time with
//! [`SessionDb::begin`], drive them operation by operation
//! ([`read`](SessionDb::read) / [`write`](SessionDb::write) /
//! [`update`](SessionDb::update)), and finish them with an explicit
//! [`commit`](SessionDb::commit) or [`abort`](SessionDb::abort) — over an
//! unbounded stream of transactions.
//!
//! The dense `TxnId` universe the concurrency-control tables are keyed by
//! stays *bounded* because finished transactions are **retired**: their
//! slot goes onto a free list and the next [`begin`](SessionDb::begin)
//! recycles it. Three pieces make that safe:
//!
//! * a [`retire`](crate::cc::ConcurrencyControl::retire) lifecycle hook —
//!   each mechanism confirms it has forgotten the slot (SGT defers until no
//!   future conflict cycle can pass through the committed transaction; the
//!   session keeps a deferred list and retries as others finish);
//! * epoch-guarded [`Txn`] handles — every slot carries an epoch stamp,
//!   bumped at retirement, so a stale handle held past retirement answers
//!   [`SessionError::Stale`] instead of touching the recycled slot;
//! * watermark-driven version GC — on the multi-version path, retiring
//!   snapshots advance the GC watermark, so version chains stay bounded no
//!   matter how long the stream runs.
//!
//! A concurrency-control **abort** does not kill the session: the slot is
//! rolled back and a fresh attempt begins immediately (same slot, new CC
//! context), and the operation reports [`Op::Restarted`] so the client
//! replays its program — exactly the restart dynamics of the closed-world
//! driver, which is now a thin adapter over this layer.
//!
//! # Durability
//!
//! [`SessionDb::open`] attaches a redo-only write-ahead log
//! ([`ccopt_durability`]): commits append the transaction's write-set
//! (after-images) plus a commit record, flushed per the
//! [`DurabilityMode`] — every commit under `Strict`, batched into a
//! shared fsync under `Group`. Because every mechanism here is strict (no
//! reads-from-uncommitted; uncommitted writes are private buffers or
//! undone before-images), the committed write-sets in commit order
//! reproduce committed state exactly, so nothing else ever needs to be
//! logged and concurrency-control decisions stay entirely log-free.
//! Reopening the same path recovers the committed prefix (scan, checksum,
//! truncate the torn tail, replay in commit order), re-primes the
//! mechanism's clocks above the recovered history
//! ([`ConcurrencyControl::resume`]) and resumes the open-world stream on
//! fresh recycled slots. [`SessionDb::checkpoint`] compacts the log to a
//! snapshot record.

use crate::cc::{Cc, CcConflict, CcDecision, ConcurrencyControl};
use crate::metrics::Metrics;
use crate::mvstore::MvStore;
use crate::storage::Storage;
use ccopt_durability::encoding::StoreKind;
use ccopt_durability::recovery::{InDoubt, Recovered};
use ccopt_durability::{recovery, DurabilityMode, StoreImage, Wal, WalError};
use ccopt_model::ids::{TxnId, VarId};
use ccopt_model::state::GlobalState;
use ccopt_model::syntax::StepKind;
use ccopt_model::value::Value;
use ccopt_trace::{ConflictRule, EventKind, Histogram, Tracer, Verdict};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// Write sets up to this size are looked up by scanning
/// [`WriteBuf::writes`] (a few cache lines); larger ones through
/// [`WriteBuf::index`].
const WRITE_SCAN_MAX: usize = 16;

/// Per-transaction write buffer (the deferred-write path of OCC, MVTO and
/// SI), sized by the write set and never by the variable universe. It
/// keeps first-write order: the order a commit installs and logs in.
#[derive(Clone, Debug, Default)]
struct WriteBuf {
    /// `(variable, newest buffered value)`, one entry per variable, in
    /// first-write order.
    writes: Vec<(VarId, Value)>,
    /// Variable to position in `writes`; filled only while the write set
    /// is larger than [`WRITE_SCAN_MAX`], so that a batch writing
    /// `MAX_BATCH_OPS` distinct variables stays linear.
    index: HashMap<VarId, usize>,
}

impl WriteBuf {
    #[inline]
    fn position(&self, var: VarId) -> Option<usize> {
        if self.writes.len() <= WRITE_SCAN_MAX {
            self.writes.iter().position(|&(v, _)| v == var)
        } else {
            self.index.get(&var).copied()
        }
    }

    #[inline]
    fn get(&self, var: VarId) -> Option<Value> {
        self.position(var).map(|at| self.writes[at].1)
    }

    #[inline]
    fn insert(&mut self, var: VarId, value: Value) {
        if let Some(at) = self.position(var) {
            self.writes[at].1 = value;
            return;
        }
        let at = self.writes.len();
        self.writes.push((var, value));
        if at == WRITE_SCAN_MAX {
            // Outgrew the scan: index everything buffered so far.
            let entries = self.writes.iter().enumerate();
            self.index.extend(entries.map(|(i, &(v, _))| (v, i)));
        } else if at > WRITE_SCAN_MAX {
            self.index.insert(var, at);
        }
    }

    fn clear(&mut self) {
        self.writes.clear();
        self.index.clear();
    }
}

/// The value store behind the engine: either the single-version store with
/// undo logs, or the multi-version store addressed by snapshot (chosen by
/// [`ConcurrencyControl::multiversion`] at construction).
enum Store {
    Single(Storage),
    Multi(MvStore),
}

/// Lifecycle of one dense slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// On the free list (or pending deferred retirement).
    Free,
    /// An uncommitted transaction occupies the slot.
    Running,
    /// Voted yes in a two-phase commit ([`SessionDb::prepare_commit`]):
    /// the write-set is durable and the concurrency-control decision is
    /// locked in, but the outcome awaits the coordinator
    /// ([`SessionDb::resolve_commit`]). No further operations run.
    Prepared,
    /// Committed but not yet retired.
    Committed,
}

/// Per-slot runtime state.
struct Slot {
    /// Bumped at retirement; handles carry the epoch they were issued at.
    epoch: u64,
    status: Status,
    /// Before-images of immediate writes (single-version mechanisms only).
    undo: Vec<(VarId, Value)>,
    /// Local write buffer, used when the CC defers writes (OCC, MVTO, SI).
    wbuf: WriteBuf,
    /// Attempts of the current occupant (1 = first run).
    attempts: u32,
    /// Wait outcomes of the current occupant (all attempts).
    waits: u32,
    /// Global sequence number of the current attempt — unlike the dense
    /// slot index, never recycled (the WAL's transaction identity).
    gsn: u64,
    /// Global transaction id of the in-flight two-phase commit (valid
    /// while [`Status::Prepared`]).
    gtid: u64,
    /// Commit timestamp locked in at prepare (valid while
    /// [`Status::Prepared`]; 0 on the single-version store).
    cts: u64,
    /// Engine tick the occupant's *first* attempt began at (commit
    /// latency measures the whole session, restarts included).
    begin_tick: u64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            epoch: 0,
            status: Status::Free,
            undo: Vec::new(),
            wbuf: WriteBuf::default(),
            attempts: 0,
            waits: 0,
            gsn: 0,
            gtid: 0,
            cts: 0,
            begin_tick: 0,
        }
    }
}

/// Epoch-guarded handle to one open transaction. Copyable; a copy held
/// past [`SessionDb::retire`] goes stale rather than aliasing whatever
/// transaction recycles the slot next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Txn {
    slot: u32,
    epoch: u64,
}

impl Txn {
    /// The dense id the concurrency control sees for this transaction.
    /// Only meaningful while the handle is live (not [`SessionError::Stale`]).
    pub fn id(&self) -> TxnId {
        TxnId(self.slot)
    }
}

/// Why a session call was rejected outright (as opposed to a concurrency
/// decision, which comes back as an [`Op`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionError {
    /// The slot behind the handle was retired (and possibly recycled by a
    /// newer transaction) after the handle was issued.
    Stale,
    /// The call needs a running transaction, but the session has already
    /// committed (commit is final; open a new session instead).
    AlreadyCommitted,
    /// [`SessionDb::retire`] needs a committed transaction; this one is
    /// still running (commit it first, or [`SessionDb::abort`] it — an
    /// abort retires the slot on its own).
    StillRunning,
    /// The transaction is prepared in a sharded two-phase commit: its
    /// fate belongs to the coordinator's resolve; no operation, commit
    /// or client abort may touch it meanwhile.
    Prepared,
    /// The shard that owned this transaction's state crashed (a worker
    /// panic — typically the fail-stop reaction to an unretryable log
    /// fault) and its in-flight work was failed by the supervisor while
    /// the shard recovers from its own log. The transaction's fate is
    /// decided: nothing uncommitted survives. Abort the handle and retry
    /// the whole transaction; surviving shards keep serving throughout.
    ShardDown,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Stale => write!(f, "stale handle: the slot was retired"),
            SessionError::AlreadyCommitted => write!(f, "the transaction already committed"),
            SessionError::StillRunning => write!(f, "the transaction is still running"),
            SessionError::Prepared => {
                write!(f, "the transaction is prepared: awaiting the 2PC decision")
            }
            SessionError::ShardDown => {
                write!(
                    f,
                    "the owning shard crashed; abort and retry the transaction"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// A two-phase-commit resolve named a transaction that is not prepared
/// ([`SessionDb::resolve_commit`]): an invariant of the sharded
/// coordinator broke. Crate-internal; no client can cause it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct NotPrepared;

/// Concurrency outcome of one session operation.
#[must_use = "an Op not inspected loses waits and restarts"]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op<T> {
    /// The operation executed; accesses carry the value observed.
    Done(T),
    /// The concurrency control said wait: nothing changed, retry the same
    /// call after other transactions make progress.
    Wait,
    /// The concurrency control aborted the transaction: its effects were
    /// rolled back and a fresh attempt has already begun on the same slot
    /// (the handle stays valid) — replay the program from the start.
    Restarted,
}

impl<T> Op<T> {
    /// Map the payload of [`Op::Done`], preserving `Wait` / `Restarted`.
    pub fn map_done<U>(self, f: impl FnOnce(T) -> U) -> Op<U> {
        match self {
            Op::Done(v) => Op::Done(f(v)),
            Op::Wait => Op::Wait,
            Op::Restarted => Op::Restarted,
        }
    }
}

/// Externally visible lifecycle state of a handle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionStatus {
    /// Uncommitted (possibly mid-restart).
    Running,
    /// Yes-voted in a two-phase commit; awaiting the coordinator.
    Prepared,
    /// Committed, slot not yet retired.
    Committed,
    /// The handle is stale: the slot was retired (abort or explicit
    /// retirement) and may already host a different transaction.
    Retired,
}

/// What crash recovery found when a database was [`open`](SessionDb::open)ed
/// over an existing log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecoveryInfo {
    /// Committed transactions replayed from the log (including in-doubt
    /// transactions the resolver decided to commit).
    pub committed: u64,
    /// Timestamp floor the engine's clocks resumed above.
    pub floor: u64,
    /// Bytes of torn log tail dropped (0 for a clean shutdown).
    pub truncated_bytes: u64,
    /// In-doubt prepared transactions the resolver committed (2PC
    /// participant recovery; see `docs/SHARDING.md`).
    pub in_doubt_committed: u64,
    /// In-doubt prepared transactions the resolver rolled back.
    pub in_doubt_aborted: u64,
}

/// One row of the per-variable contention table: how often the
/// concurrency control attributed a wait or an abort to the variable
/// (see [`SessionDb::top_contended`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VarContention {
    /// The contended variable.
    pub var: VarId,
    /// Wait decisions attributed to it.
    pub waits: usize,
    /// Aborts attributed to it.
    pub aborts: usize,
}

impl VarContention {
    /// Waits plus aborts (the contention ranking key).
    pub fn total(&self) -> usize {
        self.waits + self.aborts
    }
}

/// An in-memory database serving an open-ended stream of dynamic
/// transactions over a fixed variable universe.
///
/// Slots are recycled through a free list; the table only grows while more
/// sessions are simultaneously open than ever before, so the dense CC
/// tables stay sized to the *concurrency level*, not the stream length.
pub struct SessionDb {
    store: Store,
    cc: Cc,
    slots: Vec<Slot>,
    /// Slots ready for reuse.
    free: Vec<u32>,
    /// Retired slots the concurrency control could not forget yet (SGT
    /// keeps committed transactions with live predecessors); retried after
    /// every commit, abort and retirement.
    deferred: Vec<u32>,
    num_vars: usize,
    tick: u64,
    /// Last watermark the multi-version store was swept at (sweeps are
    /// skipped until the CC reports a larger one).
    gc_watermark: u64,
    /// External clamp on the GC watermark ([`set_gc_floor`]
    /// (Self::set_gc_floor)); `u64::MAX` when unmanaged.
    gc_floor: u64,
    /// Timestamp a concurrency-control restart begins the fresh attempt
    /// at ([`set_restart_ts`](Self::set_restart_ts)); consumed by the
    /// restart, `None` means the mechanism's own clock.
    restart_ts: Option<u64>,
    /// The redo-only write-ahead log (`None` when durability is off).
    wal: Option<Wal>,
    /// Next global transaction sequence number (the WAL identity).
    next_gsn: u64,
    /// Largest version timestamp committed so far (the checkpoint floor;
    /// 0 on the single-version store).
    max_cts: u64,
    /// What recovery found, when this database was opened over a log.
    recovery: Option<RecoveryInfo>,
    /// Lifecycle tracer; off by default, making every emission site a
    /// single branch ([`set_tracer`](Self::set_tracer)).
    tracer: Tracer,
    /// Per-variable wait counts, attributed by the concurrency control.
    waits_by_var: Vec<usize>,
    /// Per-variable abort counts, attributed by the concurrency control.
    aborts_by_var: Vec<usize>,
    /// Commit latency in engine ticks, session begin (first attempt) to
    /// commit decision. Tick-based: deterministic runs reproduce it
    /// bit-for-bit.
    commit_latency_ticks: Histogram,
    /// Counters (public for the simulators and the closed-world driver).
    pub metrics: Metrics,
}

impl SessionDb {
    /// Create a session database over the variables of `init`, using `cc`.
    pub fn new(cc: Cc, init: GlobalState) -> Self {
        Self::with_capacity(cc, init, 0)
    }

    /// Like [`new`](Self::new), pre-sizing the concurrency-control tables
    /// for `expected_txns` simultaneously open sessions (an optimization:
    /// the tables also grow on demand).
    pub fn with_capacity(cc: Cc, init: GlobalState, expected_txns: usize) -> Self {
        let multiversion = cc.multiversion();
        let store = if multiversion {
            Store::Multi(MvStore::new(init))
        } else {
            Store::Single(Storage::new(init))
        };
        Self::build(cc, store, expected_txns)
    }

    fn build(mut cc: Cc, store: Store, expected_txns: usize) -> Self {
        let num_vars = match &store {
            Store::Single(s) => s.len(),
            Store::Multi(mv) => mv.num_vars(),
        };
        cc.prepare(expected_txns, num_vars);
        // Hard contract, checked where it is cheap: a violation would
        // otherwise surface as a mid-run panic on the first write step.
        assert!(
            !cc.multiversion() || cc.defers_writes(),
            "multi-version mechanisms must defer writes: chains hold committed data only"
        );
        SessionDb {
            store,
            cc,
            slots: Vec::new(),
            free: Vec::new(),
            deferred: Vec::new(),
            num_vars,
            tick: 0,
            gc_watermark: 0,
            gc_floor: u64::MAX,
            restart_ts: None,
            wal: None,
            next_gsn: 0,
            max_cts: 0,
            recovery: None,
            tracer: Tracer::off(),
            waits_by_var: vec![0; num_vars],
            aborts_by_var: vec![0; num_vars],
            commit_latency_ticks: Histogram::new(),
            metrics: Metrics::default(),
        }
    }

    // ------------------------------------------------------------ durability

    /// Open a **durable** session database at `path`: if a write-ahead
    /// log exists there, recover the committed state it records (scan,
    /// validate checksums, truncate the torn tail, replay committed
    /// transactions in commit order) and resume the stream on it — `init`
    /// then only fixes the expected variable count; otherwise start fresh
    /// from `init` with a new log. Commits append the transaction's
    /// write-set and are flushed per `mode` ([`DurabilityMode::Strict`]:
    /// fsync inside every commit; [`DurabilityMode::Group`]: many commits
    /// share one fsync, trading a bounded loss window for throughput).
    ///
    /// With [`DurabilityMode::None`] this is exactly [`new`](Self::new):
    /// no file is touched and nothing is recovered.
    ///
    /// Dropping the database without [`sync`](Self::sync) (or a
    /// [`checkpoint`](Self::checkpoint)) is a simulated crash: under
    /// `Group` mode, acknowledged-but-unflushed commits are lost, exactly
    /// as a power failure would lose them.
    pub fn open(
        cc: Cc,
        init: GlobalState,
        path: impl AsRef<Path>,
        mode: DurabilityMode,
    ) -> Result<Self, WalError> {
        Self::open_with_capacity(cc, init, path, mode, 0)
    }

    /// [`open`](Self::open) with pre-sized concurrency-control tables
    /// (the durable analogue of [`with_capacity`](Self::with_capacity)).
    pub fn open_with_capacity(
        cc: Cc,
        init: GlobalState,
        path: impl AsRef<Path>,
        mode: DurabilityMode,
        expected_txns: usize,
    ) -> Result<Self, WalError> {
        if matches!(mode, DurabilityMode::None) {
            return Ok(Self::with_capacity(cc, init, expected_txns));
        }
        let path = path.as_ref();
        let recovered = recovery::recover(path)?;
        // Presumed abort: a plain single-shard open has no coordinator to
        // consult, and an undecided prepare by definition never
        // acknowledged — rolling it back is always consistent.
        Self::from_recovered(cc, init, path, mode, expected_txns, recovered, &mut |_| {
            false
        })
    }

    /// Build a durable database over an **already-recovered** log at
    /// `path` (`recovered` is [`recovery::recover`]'s output for that
    /// path; `None` starts a fresh log). `resolve` decides each in-doubt
    /// prepared transaction left by a crash between its 2PC prepare and
    /// resolve: `true` commits its write-set on top of the recovered
    /// state, `false` rolls it back. Decisions are appended to the log as
    /// resolve records (and synced), so the next recovery does not
    /// re-ask.
    ///
    /// The sharded engine recovers all shard logs first, then settles
    /// each shard's in-doubt transactions against the coordinator shard's
    /// recovered decisions — the consultation that makes cross-shard
    /// commits atomic across crashes (`docs/SHARDING.md`).
    pub(crate) fn from_recovered(
        mut cc: Cc,
        init: GlobalState,
        path: &Path,
        mode: DurabilityMode,
        expected_txns: usize,
        recovered: Option<Recovered>,
        resolve: &mut dyn FnMut(&InDoubt) -> bool,
    ) -> Result<Self, WalError> {
        let kind = if cc.multiversion() {
            StoreKind::Multi
        } else {
            StoreKind::Single
        };
        match recovered {
            Some(mut rec) => {
                if rec.store_kind != kind || rec.num_vars as usize != init.0.len() {
                    return Err(WalError::Mismatch {
                        expected: format!("{kind} store with {} variables", init.0.len()),
                        found: format!("{} store with {} variables", rec.store_kind, rec.num_vars),
                    });
                }
                // Settle the in-doubt prepares, in log order, before the
                // store is built: committed ones apply their durable
                // write-sets on top of the replayed image.
                let mut decisions: Vec<(u64, bool)> = Vec::new();
                let mut in_doubt_committed = 0u64;
                let mut in_doubt_aborted = 0u64;
                for p in std::mem::take(&mut rec.in_doubt) {
                    let commit = resolve(&p);
                    if commit {
                        if !recovery::apply_in_doubt(&mut rec.image, &p) {
                            return Err(WalError::Mismatch {
                                expected: "an applicable in-doubt write-set".into(),
                                found: format!(
                                    "gtid {} conflicts with the recovered image",
                                    p.gtid
                                ),
                            });
                        }
                        rec.committed += 1;
                        rec.floor = rec.floor.max(p.cts);
                        in_doubt_committed += 1;
                    } else {
                        in_doubt_aborted += 1;
                    }
                    decisions.push((p.gtid, commit));
                }
                let store = match rec.image {
                    StoreImage::Single(vals) => Store::Single(Storage::new(GlobalState(vals))),
                    StoreImage::Multi(chains) => Store::Multi(MvStore::from_image(chains)),
                };
                // Re-prime the mechanism's clocks above the recovered
                // history before any session begins.
                cc.resume(rec.floor);
                let mut db = Self::build(cc, store, expected_txns);
                db.max_cts = rec.floor;
                db.next_gsn = rec.max_gsn + 1;
                db.recovery = Some(RecoveryInfo {
                    committed: rec.committed,
                    floor: rec.floor,
                    truncated_bytes: rec.truncated_bytes,
                    in_doubt_committed,
                    in_doubt_aborted,
                });
                let mut wal = Wal::append_to(path, mode, rec.store_kind, rec.num_vars)?;
                // Write the settlements back so they are decided exactly
                // once: the next recovery replays them as ordinary
                // resolve records.
                for &(gtid, commit) in &decisions {
                    wal.resolve_txn(gtid, commit, false)?;
                }
                if !decisions.is_empty() {
                    wal.flush_sync()?;
                }
                db.wal = Some(wal);
                db.refresh_wal_metrics();
                Ok(db)
            }
            None => {
                let image = match kind {
                    StoreKind::Single => StoreImage::Single(init.0.clone()),
                    StoreKind::Multi => {
                        StoreImage::Multi(init.0.iter().map(|&v| vec![(0, v)]).collect())
                    }
                };
                let wal = Wal::create(path, mode, 0, &image)?;
                let mut db = Self::with_capacity(cc, init, expected_txns);
                db.wal = Some(wal);
                db.refresh_wal_metrics();
                Ok(db)
            }
        }
    }

    /// Compact the log to a single snapshot record of the current
    /// *committed* state (live transactions are excluded and redo on top
    /// after they commit). Also makes every acknowledged group-commit
    /// durable. No-op without durability.
    pub fn checkpoint(&mut self) -> Result<(), WalError> {
        if self.wal.is_none() {
            return Ok(());
        }
        // Compaction discards the log's records; a prepared (in-doubt)
        // vote must never be among them — discarding a durable yes-vote
        // could leave this shard unable to honor a commit decision the
        // coordinator already logged. The sharded coordinator only
        // checkpoints between two-phase commits, so this is a hard error,
        // not a debug assert.
        if self.slots.iter().any(|sl| sl.status == Status::Prepared) {
            return Err(WalError::Mismatch {
                expected: "no in-flight two-phase commit during checkpoint".into(),
                found: "a prepared transaction whose durable vote compaction would discard".into(),
            });
        }
        let image = self.store_image();
        let floor = self.max_cts;
        let wal = self.wal.as_mut().expect("checked above");
        wal.rewrite_checkpoint(floor, &image)?;
        self.refresh_wal_metrics();
        Ok(())
    }

    /// Flush and fsync every buffered log record (the graceful-shutdown
    /// durability point for [`DurabilityMode::Group`]). No-op without
    /// durability.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if let Some(wal) = &mut self.wal {
            wal.flush_sync()?;
            self.refresh_wal_metrics();
        }
        Ok(())
    }

    /// Let the next fsync the log forces run on the log's syncer thread
    /// ([`Wal::defer_syncs`]) until
    /// [`finish_log_syncs`](Self::finish_log_syncs), so the sharded
    /// coordinator can go on to another shard while it is in flight.
    /// No-op without durability.
    pub(crate) fn defer_log_syncs(&mut self) {
        if let Some(wal) = &mut self.wal {
            wal.defer_syncs();
        }
    }

    /// Wait for the fsync deferred since
    /// [`defer_log_syncs`](Self::defer_log_syncs), if any; only then is
    /// what it covers durable. Its failure surfaces here.
    pub(crate) fn finish_log_syncs(&mut self) -> Result<(), WalError> {
        if let Some(wal) = &mut self.wal {
            let synced = wal.finish_syncs();
            self.refresh_wal_metrics();
            synced?;
        }
        Ok(())
    }

    /// What crash recovery found, when this database was opened over an
    /// existing log.
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.recovery
    }

    /// Crash injection (tests): the log silently dies once `n` records
    /// have been appended — a simulated kill at that append boundary.
    pub fn wal_crash_after_records(&mut self, n: u64) {
        if let Some(wal) = &mut self.wal {
            wal.crash_after_records(n);
        }
    }

    /// Crash injection (tests): the log silently dies once `n` fsyncs
    /// have completed — a simulated kill at that fsync boundary.
    pub fn wal_crash_after_syncs(&mut self, n: u64) {
        if let Some(wal) = &mut self.wal {
            wal.crash_after_syncs(n);
        }
    }

    /// Fault injection: install a storage-fault script on the log (see
    /// [`ccopt_durability::StorageFaults`]). No-op without durability.
    pub(crate) fn wal_set_faults(&mut self, faults: ccopt_durability::StorageFaults) {
        if let Some(wal) = &mut self.wal {
            wal.set_faults(faults);
        }
    }

    /// Set the log's bounded retry policy for transient storage faults.
    /// No-op without durability.
    #[cfg(test)]
    pub(crate) fn wal_set_retry(&mut self, retry: ccopt_durability::RetryPolicy) {
        if let Some(wal) = &mut self.wal {
            wal.set_retry(retry);
        }
    }

    /// The committed state as a durable image (checkpoint payload).
    fn store_image(&self) -> StoreImage {
        match &self.store {
            Store::Single(_) => StoreImage::Single(self.committed_globals().0),
            Store::Multi(mv) => StoreImage::Multi(mv.image()),
        }
    }

    /// Mirror the log's counters into [`Metrics`].
    fn refresh_wal_metrics(&mut self) {
        if let Some(wal) = &self.wal {
            let s = wal.stats();
            self.metrics.wal_records = s.records as usize;
            self.metrics.wal_syncs = s.syncs as usize;
            self.metrics.wal_bytes = s.bytes as usize;
            self.metrics.io_retries = s.retries as usize;
        }
    }

    // ---------------------------------------------------------------- begin

    /// Open a new transaction: recycle a free dense slot (or grow the
    /// table), register the first attempt with the concurrency control and
    /// return the epoch-guarded handle.
    #[inline]
    pub fn begin(&mut self) -> Txn {
        self.begin_impl(None)
    }

    /// [`begin`](Self::begin) with an externally assigned transaction
    /// timestamp, forwarded to [`ConcurrencyControl::begin_at`]:
    /// timestamp-based mechanisms stamp the transaction `ts` instead of
    /// drawing from their internal clock. The sharded engine begins every
    /// global transaction with one global `ts` on each shard it touches,
    /// aligning the per-shard timestamp orders. `ts` values must be
    /// strictly increasing across calls and never reused.
    pub(crate) fn begin_with_ts(&mut self, ts: u64) -> Txn {
        self.begin_impl(Some(ts))
    }

    fn begin_impl(&mut self, ts: Option<u64>) -> Txn {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot::new());
                s
            }
        };
        let ti = slot as usize;
        debug_assert!(
            self.slots[ti].status == Status::Free,
            "free-list slot in use"
        );
        debug_assert!(self.slots[ti].undo.is_empty() && self.slots[ti].wbuf.writes.is_empty());
        let gsn = self.next_gsn;
        self.next_gsn += 1;
        let sl = &mut self.slots[ti];
        sl.status = Status::Running;
        sl.attempts = 1;
        sl.waits = 0;
        sl.gsn = gsn;
        sl.begin_tick = self.tick;
        self.tracer
            .emit(self.tick, EventKind::TxnBegin { txn: gsn });
        if let Some(wal) = &mut self.wal {
            // Buffered, never synced: begins carry no durability
            // obligation under redo-only logging.
            wal.begin_txn(gsn);
            self.refresh_wal_metrics();
        }
        match ts {
            None => self.cc.begin(TxnId(slot), self.tick),
            Some(ts) => self.cc.begin_at(TxnId(slot), self.tick, ts),
        }
        Txn {
            slot,
            epoch: self.slots[ti].epoch,
        }
    }

    // ----------------------------------------------------------- operations

    /// Observe `var` (a pure read).
    #[inline]
    pub fn read(&mut self, h: Txn, var: VarId) -> Result<Op<Value>, SessionError> {
        self.apply(h, var, StepKind::Read, |v| v)
    }

    /// Blind-write `value` to `var`; the observed old value rides along in
    /// [`Op::Done`] (the engine treats every access as an observation).
    pub fn write(&mut self, h: Txn, var: VarId, value: Value) -> Result<Op<Value>, SessionError> {
        self.apply(h, var, StepKind::Write, |_| value)
    }

    /// Read-modify-write `var` through `f`, atomically with respect to the
    /// concurrency control (one `Update` access).
    #[inline]
    pub fn update(
        &mut self,
        h: Txn,
        var: VarId,
        f: impl FnOnce(Value) -> Value,
    ) -> Result<Op<Value>, SessionError> {
        self.apply(h, var, StepKind::Update, f)
    }

    /// The general access primitive behind [`read`](Self::read) /
    /// [`write`](Self::write) / [`update`](Self::update): one step of
    /// declared `kind` on `var`. For writing kinds, `f` maps the observed
    /// value to the new one (drivers whose step functions consume earlier
    /// locals — like the closed-world adapter — capture them in `f`); for
    /// reads, `f` is ignored. Returns the observed value.
    ///
    /// Reads see the transaction's own buffered writes first when the
    /// mechanism defers writes; multi-version reads address the snapshot
    /// the CC assigned at begin.
    #[inline]
    pub fn apply(
        &mut self,
        h: Txn,
        var: VarId,
        kind: StepKind,
        f: impl FnOnce(Value) -> Value,
    ) -> Result<Op<Value>, SessionError> {
        let ti = self.running(h)?;
        let t = TxnId(h.slot);
        match self.cc.on_step(t, var, kind) {
            CcDecision::Wait => {
                debug_assert!(
                    self.cc.last_conflict().is_none_or(|c| c.var == Some(var)),
                    "a step wait is attributed to the step's variable"
                );
                self.note_wait(ti, Some(var));
                return Ok(Op::Wait);
            }
            CcDecision::Abort => {
                if kind.writes() && self.cc.multiversion() {
                    self.metrics.mv_write_aborts += 1;
                }
                self.note_cc_abort(ti);
                self.restart_slot(ti);
                return Ok(Op::Restarted);
            }
            CcDecision::Proceed => {}
        }
        let deferred = self.cc.defers_writes();
        let slot = &mut self.slots[ti];
        let read = match &self.store {
            Store::Multi(mv) => {
                let view = self.cc.read_view(t);
                slot.wbuf.get(var).unwrap_or_else(|| mv.read_at(var, view))
            }
            Store::Single(s) if deferred => slot.wbuf.get(var).unwrap_or_else(|| s.get(var)),
            Store::Single(s) => s.get(var),
        };
        if kind.writes() {
            let new_value = f(read);
            if deferred {
                slot.wbuf.insert(var, new_value);
            } else {
                let Store::Single(storage) = &mut self.store else {
                    unreachable!("multi-version mechanisms defer writes")
                };
                let prev = storage.set(var, new_value);
                slot.undo.push((var, prev));
            }
        }
        self.metrics.steps_executed += 1;
        self.tick += 1;
        let txn = self.slots[ti].gsn;
        let ev = if kind.writes() {
            EventKind::StepWrite { txn, var: var.0 }
        } else {
            EventKind::StepRead { txn, var: var.0 }
        };
        self.tracer.emit(self.tick, ev);
        Ok(Op::Done(read))
    }

    // --------------------------------------------------------------- finish
    //
    // A commit is three stages, each written once: **decide** (ask the
    // concurrency control), **log** (the write-set, under a commit or a
    // prepare record), **land** (install, publish, account). `commit` runs
    // all three; a two-phase commit parks between log and land.

    /// Ask the concurrency control to commit the transaction. On success
    /// the deferred write phase runs (buffered values reach the store; the
    /// multi-version store appends them as versions at the CC's commit
    /// timestamp) and retiring snapshots may trigger a version-GC sweep.
    /// [`Op::Wait`] means retry the commit later — executed operations
    /// stand; [`Op::Restarted`] means validation failed and a fresh attempt
    /// has begun.
    ///
    /// With durability on, the write-set (after-images) and a commit
    /// record are appended to the log before the commit is acknowledged,
    /// flushed per the [`DurabilityMode`].
    ///
    /// # Panics
    /// Panics when the write-ahead log fails at the I/O layer: an
    /// in-memory database that cannot reach its log can no longer honor
    /// the durability contract it was opened with.
    #[inline]
    pub fn commit(&mut self, h: Txn) -> Result<Op<()>, SessionError> {
        let ti = self.running(h)?;
        Ok(self.decide(ti).map_done(|cts| {
            self.log_write_set(ti, cts, None);
            self.land(ti, cts);
        }))
    }

    /// Two-phase commit, phase 1 (one shard's **vote**): run the
    /// concurrency control's commit decision and, on
    /// [`Op::Done`], lock the transaction into [`SessionStatus::Prepared`]
    /// — its write-set and commit timestamp are fixed (and, with
    /// durability on, forced to the log as a prepare record **before**
    /// returning, in every durability mode), but nothing reaches the
    /// store until [`resolve_commit`](Self::resolve_commit) delivers the
    /// coordinator's decision. `gtid` is the globally unique id of the
    /// cross-shard transaction; `coord` names the shard whose log holds
    /// the authoritative decision (in-doubt recovery consults it).
    ///
    /// [`Op::Wait`] and [`Op::Restarted`] mean exactly what they mean at
    /// [`commit`](Self::commit); a prepared transaction accepts no
    /// further operations ([`SessionError::Prepared`]).
    ///
    /// # Panics
    /// Panics when the write-ahead log fails at the I/O layer (same
    /// contract as [`commit`](Self::commit)).
    pub(crate) fn prepare_commit(
        &mut self,
        h: Txn,
        gtid: u64,
        coord: u32,
    ) -> Result<Op<()>, SessionError> {
        let ti = self.running(h)?;
        Ok(self.decide(ti).map_done(|cts| {
            self.log_write_set(ti, cts, Some((gtid, coord)));
            let slot = &mut self.slots[ti];
            slot.status = Status::Prepared;
            slot.gtid = gtid;
            slot.cts = cts;
            let (txn, vote) = (slot.gsn, true);
            self.tracer
                .emit(self.tick, EventKind::Prepare { txn, gtid, vote });
        }))
    }

    /// Two-phase commit, phase 2 (the coordinator's **decision**) for a
    /// [`prepare_commit`](Self::prepare_commit)ed transaction. With
    /// `commit`, the deferred write phase runs exactly as in
    /// [`commit`](Self::commit) (buffered values install at the prepared
    /// commit timestamp) and the transaction lands in
    /// [`SessionStatus::Committed`]; otherwise it rolls back and the slot
    /// retires, as a client abort would. The resolve record is appended
    /// to the log; with `force_sync` it is flushed and fsynced before
    /// returning — the coordinator shard's commit point. Participants
    /// leave it buffered: if a crash loses it, their recovery re-derives
    /// the decision from the coordinator's log.
    ///
    /// Only the sharded coordinator resolves, and only a sub-transaction
    /// it saw vote yes: a handle that is not prepared (stale, running or
    /// committed) is a coordinator bug, which debug builds assert and
    /// release builds answer with [`NotPrepared`], touching nothing.
    ///
    /// # Panics
    /// Panics when the write-ahead log fails at the I/O layer.
    pub(crate) fn resolve_commit(
        &mut self,
        h: Txn,
        commit: bool,
        force_sync: bool,
    ) -> Result<(), NotPrepared> {
        let ti = self.slot_of(h).ok();
        let ti = ti.filter(|&ti| self.slots[ti].status == Status::Prepared);
        debug_assert!(ti.is_some(), "a 2PC resolve names a prepared transaction");
        let ti = ti.ok_or(NotPrepared)?;
        let gtid = self.slots[ti].gtid;
        self.tracer
            .emit(self.tick, EventKind::Resolve { gtid, commit });
        if let Some(wal) = &mut self.wal {
            if let Err(e) = wal.resolve_txn(gtid, commit, force_sync) {
                panic!("write-ahead log failed at resolve: {e}");
            }
            self.refresh_wal_metrics();
        }
        if commit {
            self.land(ti, self.slots[ti].cts);
        } else {
            // The coordinator aborted the global transaction (some other
            // shard failed its vote, or the client gave up): the vote is
            // void. This shard only sees the decision, not its cause, so
            // the abort is attributed to the client; the coordinator's own
            // metrics carry the real reason (shed, failover) when it knows
            // one.
            self.abandon(ti);
        }
        Ok(())
    }

    /// Client-initiated abort: roll the running transaction back, notify
    /// the concurrency control, and retire the slot (every handle to this
    /// session goes stale).
    #[inline]
    pub fn abort(&mut self, h: Txn) -> Result<(), SessionError> {
        let ti = self.running(h)?;
        if let Some(wal) = &mut self.wal {
            // Informational only (redo-only logging durably records
            // nothing of an uncommitted transaction): buffered, unsynced.
            wal.abort_txn(self.slots[ti].gsn);
            self.refresh_wal_metrics();
        }
        self.abandon(ti);
        Ok(())
    }

    /// Force-abort the running transaction and immediately begin a fresh
    /// attempt on the same slot (the drivers' live-lock safety valve). The
    /// handle stays valid. Attributed like a client abort: the forced
    /// restart is a driver decision, not a concurrency-control rule.
    pub fn restart(&mut self, h: Txn) -> Result<(), SessionError> {
        let ti = self.running(h)?;
        self.note_client_abort(ti);
        self.restart_slot(ti);
        Ok(())
    }

    /// Retire a committed session: bump the slot epoch (stale-ing every
    /// handle) and hand the dense slot back for recycling — immediately,
    /// or deferred until the concurrency control can forget it.
    #[inline]
    pub fn retire(&mut self, h: Txn) -> Result<(), SessionError> {
        let ti = self.slot_of(h)?;
        match self.slots[ti].status {
            Status::Committed => {}
            Status::Running => return Err(SessionError::StillRunning),
            Status::Prepared => return Err(SessionError::Prepared),
            Status::Free => unreachable!("stale handles were rejected"),
        }
        self.retire_slot(ti);
        Ok(())
    }

    // ------------------------------------------------------------ accessors

    /// The concurrency control's name.
    pub fn cc_name(&self) -> &str {
        self.cc.name()
    }

    /// Current committed global state (the newest version of every
    /// variable when running multi-version).
    pub fn globals(&self) -> GlobalState {
        match &self.store {
            Store::Single(s) => s.snapshot(),
            Store::Multi(mv) => mv.snapshot_latest(),
        }
    }

    /// The committed state only: where [`globals`](Self::globals) on the
    /// single-version store may include in-place writes of still-running
    /// transactions, this rolls those back on a copy (their before-images
    /// restore independently because the mechanisms are strict — at most
    /// one uncommitted writer per variable). This is the state a
    /// checkpoint snapshots and a crash recovers to.
    pub fn committed_globals(&self) -> GlobalState {
        match &self.store {
            Store::Single(s) => s.committed_snapshot(
                self.slots
                    .iter()
                    .filter(|sl| matches!(sl.status, Status::Running | Status::Prepared))
                    .map(|sl| sl.undo.as_slice()),
            ),
            Store::Multi(mv) => mv.snapshot_latest(),
        }
    }

    /// Live version count of the multi-version store; `None` when running
    /// over the single-version store.
    pub fn live_versions(&self) -> Option<usize> {
        match &self.store {
            Store::Single(_) => None,
            Store::Multi(mv) => Some(mv.live_versions()),
        }
    }

    /// Lifecycle state of a handle ([`SessionStatus::Retired`] for stale
    /// ones).
    pub fn status(&self, h: Txn) -> SessionStatus {
        match self.slot_of(h) {
            Err(_) => SessionStatus::Retired,
            Ok(ti) => match self.slots[ti].status {
                Status::Running => SessionStatus::Running,
                Status::Prepared => SessionStatus::Prepared,
                Status::Committed => SessionStatus::Committed,
                Status::Free => unreachable!("stale handles were rejected"),
            },
        }
    }

    /// Snapshot timestamp the session's reads observe (meaningful for
    /// multi-version mechanisms; 0 otherwise). Under MVTO this is also the
    /// serialization position of the transaction — the open-world
    /// serializability checker samples it just before commit.
    pub fn read_view(&self, h: Txn) -> Result<u64, SessionError> {
        let ti = self.slot_of(h)?;
        Ok(self.cc.read_view(TxnId(ti as u32)))
    }

    /// Does the mechanism buffer writes until commit? (Mirrors
    /// [`ConcurrencyControl::defers_writes`]; the open-world checker needs
    /// it to place write conflicts at commit time.)
    pub fn defers_writes(&self) -> bool {
        self.cc.defers_writes()
    }

    /// Is the store multi-version? (Mirrors
    /// [`ConcurrencyControl::multiversion`].)
    pub fn multiversion(&self) -> bool {
        self.cc.multiversion()
    }

    /// Clamp the version-GC watermark from outside: no version visible at
    /// or after `floor` is collected, whatever the local mechanism
    /// reports. The sharded engine sets this to the oldest *global*
    /// transaction timestamp still active anywhere before each commit —
    /// a shard's own live set cannot see a global snapshot that has not
    /// reached it yet, and without the clamp its GC could collect
    /// versions that late-arriving snapshot still needs. `u64::MAX`
    /// removes the clamp (the default).
    pub(crate) fn set_gc_floor(&mut self, floor: u64) {
        self.gc_floor = floor;
    }

    /// Arm the timestamp the *next* concurrency-control restart begins
    /// its fresh attempt at (via [`ConcurrencyControl::begin_at`]). The
    /// sharded engine arms this before every forwarded call with a
    /// reserved global timestamp, so an in-place restart — which happens
    /// inside the shard, before the coordinator sees the outcome — still
    /// stamps the new attempt from the global clock. Unconsumed values
    /// are simply overwritten by the next call; plain sessions never arm
    /// it.
    pub(crate) fn set_restart_ts(&mut self, ts: u64) {
        self.restart_ts = Some(ts);
    }

    /// Restart attempts of the session so far (1 = first run).
    pub fn attempts(&self, h: Txn) -> Result<u32, SessionError> {
        Ok(self.slots[self.slot_of(h)?].attempts)
    }

    /// Wait outcomes of the session across its whole lifetime.
    pub fn waits(&self, h: Txn) -> Result<u32, SessionError> {
        Ok(self.slots[self.slot_of(h)?].waits)
    }

    /// Dense-table capacity: slots ever allocated. Grows only while more
    /// sessions are simultaneously open than ever before — the recycling
    /// invariant the open-world tests pin.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Retired slots the concurrency control has not forgotten yet.
    pub fn pending_retires(&self) -> usize {
        self.deferred.len()
    }

    /// Sessions currently open (running or committed-unretired).
    pub fn open_sessions(&self) -> usize {
        self.slots.len() - self.free.len() - self.deferred.len()
    }

    // -------------------------------------------------------- observability

    /// Attach a lifecycle tracer (minted by a
    /// [`TraceHub`](ccopt_trace::TraceHub)). The default tracer is off,
    /// and with it off every emission site is a single branch — no
    /// allocation, no I/O — so untraced runs are unchanged.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Commit latency (session begin, first attempt, to commit decision)
    /// in engine ticks, as a fixed-bucket histogram. Always on — recording
    /// is a few instructions — and tick-based, so deterministic runs
    /// reproduce the percentiles bit-for-bit.
    pub fn commit_latency_ticks(&self) -> &Histogram {
        &self.commit_latency_ticks
    }

    /// Contention counters attributed to `var` by the concurrency
    /// control: `(waits, aborts)`.
    pub fn contention(&self, var: VarId) -> (usize, usize) {
        (
            self.waits_by_var.get(var.index()).copied().unwrap_or(0),
            self.aborts_by_var.get(var.index()).copied().unwrap_or(0),
        )
    }

    /// The `n` most contended variables — ranked by attributed waits plus
    /// aborts, descending (ties broken by variable id, so the table is
    /// deterministic); variables with no contention are omitted.
    pub fn top_contended(&self, n: usize) -> Vec<VarContention> {
        let mut rows: Vec<VarContention> = (0..self.num_vars)
            .filter_map(|i| {
                let row = VarContention {
                    var: VarId(i as u32),
                    waits: self.waits_by_var[i],
                    aborts: self.aborts_by_var[i],
                };
                (row.total() > 0).then_some(row)
            })
            .collect();
        rows.sort_by_key(|r| (std::cmp::Reverse(r.total()), r.var.0));
        rows.truncate(n);
        rows
    }

    /// Book a concurrency-control Wait decision: counters, contention on
    /// the attributed `var` (a step wait's own variable; a commit wait's,
    /// when the mechanism named one) and, when tracing, the trace event,
    /// the only part that reads the attribution back here. The counters
    /// stay inline on the wait path; the emission is out of line.
    #[inline]
    fn note_wait(&mut self, ti: usize, var: Option<VarId>) {
        self.metrics.waits += 1;
        self.slots[ti].waits += 1;
        if let Some(slot) = var.and_then(|v| self.waits_by_var.get_mut(v.index())) {
            *slot += 1;
        }
        if self.tracer.is_on() {
            self.trace_decision(ti, self.cc.last_conflict(), CcDecision::Wait);
        }
    }

    /// Book a concurrency-control Abort decision (attribution and the
    /// trace event; the rollback itself is `restart_slot`, which the
    /// caller invokes next).
    fn note_cc_abort(&mut self, ti: usize) {
        let c = self.cc.last_conflict();
        let rule = c.map_or(ConflictRule::Unattributed, |c| c.rule);
        self.metrics.aborts_by_rule[rule.index()] += 1;
        if let Some(var) = c.and_then(|c| c.var) {
            if let Some(slot) = self.aborts_by_var.get_mut(var.index()) {
                *slot += 1;
            }
        }
        if self.tracer.is_on() {
            self.trace_decision(ti, c, CcDecision::Abort);
        }
    }

    /// Emit the trace event of a Wait or Abort `decision` attributed to
    /// `c`. The opponent's dense slot becomes its global sequence number
    /// (exact while the opponent's slot is un-recycled — always true at
    /// the moment of the decision). Only a traced run gets here.
    #[cold]
    #[inline(never)]
    fn trace_decision(&mut self, ti: usize, c: Option<CcConflict>, decision: CcDecision) {
        let (rule, var, opponent) = match c {
            None => (ConflictRule::Unattributed, None, None),
            Some(c) => (
                c.rule,
                c.var.map(|v| v.0),
                c.opponent
                    .and_then(|o| self.slots.get(o.index()).map(|sl| sl.gsn)),
            ),
        };
        let txn = self.slots[ti].gsn;
        let ev = match decision {
            CcDecision::Wait => EventKind::Wait {
                txn,
                rule,
                var,
                opponent,
            },
            _ => EventKind::Abort {
                txn,
                rule,
                var,
                opponent,
            },
        };
        self.tracer.emit(self.tick, ev);
    }

    // ------------------------------------------------------------ internals

    #[inline]
    fn slot_of(&self, h: Txn) -> Result<usize, SessionError> {
        match self.slots.get(h.slot as usize) {
            Some(sl) if sl.epoch == h.epoch => Ok(h.slot as usize),
            _ => Err(SessionError::Stale),
        }
    }

    #[inline]
    fn running(&self, h: Txn) -> Result<usize, SessionError> {
        let ti = self.slot_of(h)?;
        match self.slots[ti].status {
            Status::Running => Ok(ti),
            Status::Prepared => Err(SessionError::Prepared),
            Status::Committed => Err(SessionError::AlreadyCommitted),
            Status::Free => unreachable!("stale handles were rejected"),
        }
    }

    /// Commit stage 1 — **decide**: the one place the concurrency control
    /// is asked to commit. `Done` carries the commit timestamp (`cts` is
    /// meaningless, and unused, on the single-version path); an abort has
    /// already restarted the slot, a wait has been booked.
    fn decide(&mut self, ti: usize) -> Op<u64> {
        let t = TxnId(ti as u32);
        let decision = self.cc.on_commit(t, self.tick);
        let verdict = match decision {
            CcDecision::Proceed => Verdict::Proceed,
            CcDecision::Wait => Verdict::Wait,
            CcDecision::Abort => Verdict::Abort,
        };
        let txn = self.slots[ti].gsn;
        self.tracer
            .emit(self.tick, EventKind::CcDecision { txn, verdict });
        match decision {
            CcDecision::Proceed => Op::Done(self.cc.commit_view(t)),
            CcDecision::Abort => {
                if self.cc.multiversion() {
                    self.metrics.mv_write_aborts += 1;
                }
                self.note_cc_abort(ti);
                self.restart_slot(ti);
                Op::Restarted
            }
            CcDecision::Wait => {
                let var = self.cc.last_conflict().and_then(|c| c.var);
                self.note_wait(ti, var);
                Op::Wait
            }
        }
    }

    /// Commit stage 2 — **log**: one redo group holding the write-set's
    /// after-images, encoded into the log's reusable scratch buffer —
    /// under a commit record, or (`vote`: the global transaction id and
    /// its coordinator shard) under the prepare record of a durable
    /// yes-vote, which is always fsynced: a commit decision must never
    /// outlive a lost vote. No-op without durability.
    fn log_write_set(&mut self, ti: usize, cts: u64, vote: Option<(u64, u32)>) {
        let Some(wal) = &mut self.wal else {
            return;
        };
        let slot = &self.slots[ti];
        match vote {
            None => wal.start_commit(slot.gsn, cts),
            Some((gtid, coord)) => wal.start_prepare(slot.gsn, gtid, cts, coord),
        }
        // Deferred-write mechanisms: the buffer, in first-write order.
        for &(var, value) in &slot.wbuf.writes {
            wal.push_write(var, value);
        }
        // Immediate-write mechanisms carry no write buffer: their
        // committed after-images are the current stored values of the
        // variables in the undo log (strictness guarantees no other live
        // writer touched them).
        if let Store::Single(storage) = &self.store {
            for (i, &(var, _)) in slot.undo.iter().enumerate() {
                if slot.undo[..i].iter().any(|&(v, _)| v == var) {
                    continue; // first-write order, once per var
                }
                wal.push_write(var, storage.get(var));
            }
        }
        let (record, logged) = match vote {
            None => ("commit", wal.finish_commit(slot.gsn, self.tick).map(drop)),
            Some(_) => ("prepare", wal.finish_prepare()),
        };
        if let Err(e) = logged {
            panic!("write-ahead log failed at {record}: {e}");
        }
        self.refresh_wal_metrics();
    }

    /// Commit stage 3 — **land**: the write phase (buffered values reach
    /// the store in first-write order, on the multi-version store as
    /// versions at `cts`) and the one place a transaction becomes
    /// [`Status::Committed`].
    fn land(&mut self, ti: usize, cts: u64) {
        let slot = &mut self.slots[ti];
        match &mut self.store {
            Store::Single(storage) => {
                for &(var, value) in &slot.wbuf.writes {
                    storage.set(var, value);
                }
            }
            Store::Multi(mv) => {
                for &(var, value) in &slot.wbuf.writes {
                    mv.install(var, cts, value);
                    self.metrics.versions_installed += 1;
                    // The gauge samples per-chain peaks exactly: chains
                    // only ever grow at this install.
                    self.metrics.max_chain_len = self.metrics.max_chain_len.max(mv.chain_len(var));
                }
                self.max_cts = self.max_cts.max(cts);
            }
        }
        slot.wbuf.clear();
        slot.undo.clear();
        slot.status = Status::Committed;
        let (txn, begin_tick) = (slot.gsn, slot.begin_tick);
        self.cc.after_commit(TxnId(ti as u32));
        self.metrics.commits += 1;
        self.commit_latency_ticks.record(self.tick - begin_tick);
        self.tracer.emit(self.tick, EventKind::Commit { txn });
        self.sweep_versions();
        self.drain_deferred();
    }

    /// The client gave the transaction up (its own abort, or the
    /// coordinator's no): roll back and retire the slot.
    fn abandon(&mut self, ti: usize) {
        self.rollback(ti);
        self.note_client_abort(ti);
        self.retire_slot(ti);
    }

    /// Book a client-decided abort (the one place [`ConflictRule::Client`]
    /// is attributed and its trace event emitted).
    fn note_client_abort(&mut self, ti: usize) {
        self.metrics.aborts_by_rule[ConflictRule::Client.index()] += 1;
        self.tracer.emit(
            self.tick,
            EventKind::Abort {
                txn: self.slots[ti].gsn,
                rule: ConflictRule::Client,
                var: None,
                opponent: None,
            },
        );
    }

    /// A commit retired a snapshot: reclaim the versions no remaining
    /// snapshot can read, but only when the watermark actually advanced —
    /// with the same watermark nothing new is reclaimable (fresh installs
    /// all sit above it).
    fn sweep_versions(&mut self) {
        if let Store::Multi(mv) = &mut self.store {
            let watermark = self.cc.gc_watermark().min(self.gc_floor);
            if watermark > self.gc_watermark {
                self.metrics.versions_reclaimed += mv.gc(watermark);
                self.gc_watermark = watermark;
            }
        }
    }

    /// The one rollback, whoever decided the abort: undo the slot's
    /// effects on the store (deferred-write mechanisms have nothing to
    /// undo — their buffered writes are simply dropped), tell the
    /// concurrency control, and count the abort and its tick.
    fn rollback(&mut self, ti: usize) {
        // Cleared, not taken: the restarted attempt's writes reuse the
        // buffer.
        let undo = &mut self.slots[ti].undo;
        if let Store::Single(storage) = &mut self.store {
            storage.undo(undo);
        } else {
            debug_assert!(undo.is_empty(), "multi-version runs never log undo");
        }
        undo.clear();
        self.slots[ti].wbuf.clear();
        self.cc.on_abort(TxnId(ti as u32));
        self.metrics.aborts += 1;
        self.tick += 1;
    }

    /// Roll back and restart immediately with a fresh CC context on the
    /// same slot (a CC-initiated abort, or the drivers' restart valve).
    fn restart_slot(&mut self, ti: usize) {
        let t = TxnId(ti as u32);
        self.rollback(ti);
        self.slots[ti].attempts += 1;
        if let Some(wal) = &mut self.wal {
            // The restarted attempt is a fresh logical transaction.
            wal.abort_txn(self.slots[ti].gsn);
            let gsn = self.next_gsn;
            self.next_gsn += 1;
            self.slots[ti].gsn = gsn;
            wal.begin_txn(gsn);
            self.refresh_wal_metrics();
        }
        match self.restart_ts.take() {
            None => self.cc.begin(t, self.tick),
            Some(ts) => self.cc.begin_at(t, self.tick, ts),
        }
        let txn = self.slots[ti].gsn;
        self.tracer.emit(self.tick, EventKind::TxnBegin { txn });
        self.drain_deferred();
    }

    fn retire_slot(&mut self, ti: usize) {
        let txn = self.slots[ti].gsn;
        self.tracer.emit(self.tick, EventKind::Retire { txn });
        let sl = &mut self.slots[ti];
        sl.epoch += 1;
        sl.status = Status::Free;
        sl.undo.clear();
        sl.wbuf.clear();
        self.metrics.retires += 1;
        let s = ti as u32;
        if self.cc.retire(TxnId(s)) {
            self.free.push(s);
        } else {
            self.deferred.push(s);
        }
        self.drain_deferred();
    }

    /// Retry deferred retirements until a fixpoint: freeing one slot can
    /// drop the in-edges pinning another (SGT's cascade).
    fn drain_deferred(&mut self) {
        if self.deferred.is_empty() {
            return;
        }
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < self.deferred.len() {
                let s = self.deferred[i];
                if self.cc.retire(TxnId(s)) {
                    self.deferred.swap_remove(i);
                    self.free.push(s);
                    progressed = true;
                } else {
                    i += 1;
                }
            }
            if !progressed || self.deferred.is_empty() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{MvtoCc, SgtCc, SiCc, Strict2plCc, TimestampCc};

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn int(i: i64) -> Value {
        Value::Int(i)
    }

    fn inc(x: Value) -> Value {
        int(x.as_int().unwrap() + 1)
    }

    fn db_2pl(init: &[i64]) -> SessionDb {
        SessionDb::new(
            Cc::Strict2pl(Strict2plCc::default()),
            GlobalState::from_ints(init),
        )
    }

    /// Drive one read-increment-commit-retire transaction to completion.
    fn bump(db: &mut SessionDb, var: VarId) {
        let h = db.begin();
        loop {
            match db.update(h, var, inc).unwrap() {
                Op::Done(_) => break,
                Op::Wait | Op::Restarted => {}
            }
        }
        assert_eq!(db.commit(h), Ok(Op::Done(())));
        db.retire(h).unwrap();
    }

    #[test]
    fn session_lifecycle_roundtrip() {
        let mut db = db_2pl(&[10, 20]);
        let before = db.metrics.snapshot();
        let h = db.begin();
        assert_eq!(db.status(h), SessionStatus::Running);
        assert_eq!(db.read(h, v(0)), Ok(Op::Done(int(10))));
        assert_eq!(
            db.update(h, v(1), |x| int(x.as_int().unwrap() * 2)),
            Ok(Op::Done(int(20)))
        );
        assert_eq!(db.write(h, v(0), int(7)), Ok(Op::Done(int(10))));
        assert_eq!(db.commit(h), Ok(Op::Done(())));
        assert_eq!(db.status(h), SessionStatus::Committed);
        assert_eq!(db.commit(h), Err(SessionError::AlreadyCommitted));
        db.retire(h).unwrap();
        assert_eq!(db.globals(), GlobalState::from_ints(&[7, 40]));
        let d = db.metrics.diff(&before);
        assert_eq!((d.commits, d.retires), (1, 1));
    }

    #[test]
    fn stale_handles_cannot_touch_recycled_slots() {
        let mut db = db_2pl(&[0]);
        let old = db.begin();
        assert_eq!(db.write(old, v(0), int(1)), Ok(Op::Done(int(0))));
        assert_eq!(db.commit(old), Ok(Op::Done(())));
        db.retire(old).unwrap();
        // The next begin recycles slot 0 under a new epoch.
        let new = db.begin();
        assert_eq!(new.id(), old.id());
        assert_ne!(new, old);
        assert_eq!(db.num_slots(), 1);
        assert_eq!(db.status(old), SessionStatus::Retired);
        assert_eq!(db.read(old, v(0)), Err(SessionError::Stale));
        assert_eq!(db.commit(old), Err(SessionError::Stale));
        assert_eq!(db.retire(old), Err(SessionError::Stale));
        assert_eq!(db.attempts(old), Err(SessionError::Stale));
        // The live occupant is untouched by all of that.
        assert_eq!(db.status(new), SessionStatus::Running);
        assert_eq!(db.read(new, v(0)), Ok(Op::Done(int(1))));
    }

    #[test]
    fn retire_requires_commit_and_abort_retires() {
        let mut db = db_2pl(&[5]);
        let before = db.metrics.snapshot();
        let h = db.begin();
        assert_eq!(db.update(h, v(0), inc), Ok(Op::Done(int(5))));
        assert_eq!(db.retire(h), Err(SessionError::StillRunning));
        db.abort(h).unwrap();
        // The abort rolled the write back and retired the slot.
        assert_eq!(db.globals(), GlobalState::from_ints(&[5]));
        assert_eq!(db.status(h), SessionStatus::Retired);
        let d = db.metrics.diff(&before);
        assert_eq!((d.aborts, d.retires), (1, 1));
        assert_eq!(db.free.len(), 1);
    }

    #[test]
    fn cc_abort_restarts_in_place_and_client_replays() {
        // Classic 2PL deadlock through the session API: the victim's
        // operation reports Restarted and the replay succeeds.
        let mut db = db_2pl(&[0, 0]);
        let a = db.begin();
        let b = db.begin();
        assert_eq!(db.update(a, v(0), |x| x).unwrap(), Op::Done(int(0)));
        assert_eq!(db.update(b, v(1), |x| x).unwrap(), Op::Done(int(0)));
        assert_eq!(db.update(a, v(1), |x| x).unwrap(), Op::Wait);
        assert_eq!(db.update(b, v(0), |x| x).unwrap(), Op::Restarted);
        assert_eq!(db.status(b), SessionStatus::Running);
        assert_eq!(db.attempts(b), Ok(2));
        // A finishes; B's replay then runs clean.
        assert_eq!(db.update(a, v(1), |x| x).unwrap(), Op::Done(int(0)));
        assert_eq!(db.commit(a), Ok(Op::Done(())));
        db.retire(a).unwrap();
        assert_eq!(db.update(b, v(1), |x| x).unwrap(), Op::Done(int(0)));
        assert_eq!(db.update(b, v(0), |x| x).unwrap(), Op::Done(int(0)));
        assert_eq!(db.commit(b), Ok(Op::Done(())));
    }

    #[test]
    fn unbounded_stream_reuses_one_slot() {
        let mut db = db_2pl(&[0]);
        let before = db.metrics.snapshot();
        for _ in 0..100 {
            bump(&mut db, v(0));
        }
        assert_eq!(db.globals(), GlobalState::from_ints(&[100]));
        assert_eq!(db.num_slots(), 1, "sequential sessions must share a slot");
        let d = db.metrics.diff(&before);
        assert_eq!((d.commits, d.retires), (100, 100));
    }

    #[test]
    fn mv_stream_stays_gc_bounded() {
        for cc in [Cc::Mvto(MvtoCc::default()), Cc::Si(SiCc::default())] {
            let mut db = SessionDb::new(cc, GlobalState::from_ints(&[0, 0]));
            for i in 0..200 {
                bump(&mut db, v(i % 2));
            }
            assert_eq!(db.globals(), GlobalState::from_ints(&[100, 100]));
            assert_eq!(db.num_slots(), 1);
            assert!(
                db.live_versions().unwrap() <= 4,
                "chains must stay GC-bounded, got {:?}",
                db.live_versions()
            );
            assert!(db.metrics.versions_reclaimed >= 196);
        }
    }

    #[test]
    fn sgt_pins_retired_slots_until_predecessors_finish() {
        let mut db = SessionDb::new(Cc::Sgt(SgtCc::default()), GlobalState::from_ints(&[0, 1]));
        let reader = db.begin();
        let writer = db.begin();
        assert_eq!(db.read(reader, v(0)).unwrap(), Op::Done(int(0)));
        assert_eq!(db.write(writer, v(0), int(9)).unwrap(), Op::Done(int(0)));
        assert_eq!(db.commit(writer), Ok(Op::Done(())));
        // The writer's slot is pinned: the live reader precedes it in the
        // conflict graph, so a cycle through it is still possible.
        db.retire(writer).unwrap();
        assert_eq!(db.pending_retires(), 1);
        assert_eq!(db.free.len(), 0);
        // A new session must NOT reuse the pinned slot.
        let third = db.begin();
        assert_eq!(third.id().index(), 2);
        // Once the reader finishes, the deferred retirement drains.
        assert_eq!(db.commit(reader), Ok(Op::Done(())));
        db.retire(reader).unwrap();
        assert_eq!(db.pending_retires(), 0);
        assert_eq!(db.free.len(), 2);
        db.abort(third).unwrap();
    }

    #[test]
    fn durable_sessions_survive_a_crash() {
        // Strict mode: everything acknowledged is recovered after a drop
        // without shutdown (the simulated crash).
        let path = ccopt_durability::scratch_path("session-strict");
        {
            let mut db = SessionDb::open(
                Cc::Strict2pl(Strict2plCc::default()),
                GlobalState::from_ints(&[0, 0]),
                &path,
                DurabilityMode::Strict,
            )
            .unwrap();
            assert!(db.recovery_info().is_none(), "fresh log: nothing recovered");
            for i in 0..10 {
                bump(&mut db, v(i % 2));
            }
            assert!(db.metrics.wal_syncs >= 10);
            assert!(db.metrics.wal_records > 0 && db.metrics.wal_bytes > 0);
        } // crash
        let mut db = SessionDb::open(
            Cc::Strict2pl(Strict2plCc::default()),
            GlobalState::from_ints(&[0, 0]),
            &path,
            DurabilityMode::Strict,
        )
        .unwrap();
        let rec = db.recovery_info().expect("an existing log was recovered");
        assert_eq!(rec.committed, 10);
        assert_eq!(db.globals(), GlobalState::from_ints(&[5, 5]));
        // The recovered stream resumes on recycled slots.
        bump(&mut db, v(0));
        assert_eq!(db.globals(), GlobalState::from_ints(&[6, 5]));
        assert_eq!(db.num_slots(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_loses_at_most_the_open_batch() {
        let path = ccopt_durability::scratch_path("session-group");
        let mode = DurabilityMode::Group {
            max_batch: 4,
            max_delay_ticks: u64::MAX,
        };
        {
            let mut db = SessionDb::open(
                Cc::Strict2pl(Strict2plCc::default()),
                GlobalState::from_ints(&[0]),
                &path,
                mode,
            )
            .unwrap();
            let before = db.metrics.snapshot();
            for _ in 0..10 {
                bump(&mut db, v(0));
            }
            // 10 commits, batch of 4: two shared fsyncs, 8 commits
            // durable (log creation's own fsync is outside the delta).
            assert_eq!(db.metrics.diff(&before).wal_syncs, 2);
        } // crash with 2 acknowledged commits still buffered
        let db = SessionDb::open(
            Cc::Strict2pl(Strict2plCc::default()),
            GlobalState::from_ints(&[0]),
            &path,
            mode,
        )
        .unwrap();
        assert_eq!(db.recovery_info().unwrap().committed, 8);
        assert_eq!(db.globals(), GlobalState::from_ints(&[8]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_closes_the_group_commit_window() {
        let path = ccopt_durability::scratch_path("session-sync");
        {
            let mut db = SessionDb::open(
                Cc::Strict2pl(Strict2plCc::default()),
                GlobalState::from_ints(&[0]),
                &path,
                DurabilityMode::group(64),
            )
            .unwrap();
            for _ in 0..5 {
                bump(&mut db, v(0));
            }
            db.sync().unwrap(); // graceful shutdown
        }
        let db = SessionDb::open(
            Cc::Strict2pl(Strict2plCc::default()),
            GlobalState::from_ints(&[0]),
            &path,
            DurabilityMode::group(64),
        )
        .unwrap();
        assert_eq!(db.recovery_info().unwrap().committed, 5);
        assert_eq!(db.globals(), GlobalState::from_ints(&[5]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recovered_mv_streams_resume_above_the_recovered_history() {
        for cc in [(|| Cc::Mvto(MvtoCc::default())) as fn() -> Cc, || {
            Cc::Si(SiCc::default())
        }] {
            let path = ccopt_durability::scratch_path("session-mv");
            {
                let mut db = SessionDb::open(
                    cc(),
                    GlobalState::from_ints(&[0, 0]),
                    &path,
                    DurabilityMode::Strict,
                )
                .unwrap();
                for i in 0..20 {
                    bump(&mut db, v(i % 2));
                }
            }
            let mut db = SessionDb::open(
                cc(),
                GlobalState::from_ints(&[0, 0]),
                &path,
                DurabilityMode::Strict,
            )
            .unwrap();
            let rec = db.recovery_info().unwrap();
            assert_eq!(rec.committed, 20);
            assert!(rec.floor > 0, "MV recovery must report a timestamp floor");
            assert_eq!(db.globals(), GlobalState::from_ints(&[10, 10]));
            // Replay rebuilt the chains (checkpoint base + one version per
            // commit); the resumed clocks install above them and the first
            // post-recovery commits sweep them down via the GC watermark.
            assert!(db.live_versions().unwrap() >= 2);
            for i in 0..20 {
                bump(&mut db, v(i % 2));
            }
            assert_eq!(db.globals(), GlobalState::from_ints(&[20, 20]));
            assert_eq!(
                db.metrics.aborts,
                0,
                "{}: resumed stamps must not collide with recovered versions",
                db.cc_name()
            );
            assert!(db.live_versions().unwrap() <= 4, "GC must resume");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn checkpoint_compacts_and_recovers_identically() {
        let path = ccopt_durability::scratch_path("session-ckpt");
        {
            let mut db = SessionDb::open(
                Cc::Mvto(MvtoCc::default()),
                GlobalState::from_ints(&[0]),
                &path,
                DurabilityMode::Strict,
            )
            .unwrap();
            for _ in 0..50 {
                bump(&mut db, v(0));
            }
            let before = std::fs::metadata(&path).unwrap().len();
            db.checkpoint().unwrap();
            let after = std::fs::metadata(&path).unwrap().len();
            assert!(
                after < before,
                "checkpoint must compact ({before} -> {after})"
            );
            bump(&mut db, v(0)); // one commit on top of the checkpoint
        }
        let db = SessionDb::open(
            Cc::Mvto(MvtoCc::default()),
            GlobalState::from_ints(&[0]),
            &path,
            DurabilityMode::Strict,
        )
        .unwrap();
        let rec = db.recovery_info().unwrap();
        assert_eq!(rec.committed, 1, "only the post-checkpoint commit replays");
        assert_eq!(db.globals(), GlobalState::from_ints(&[51]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_excludes_uncommitted_writes_of_live_sessions() {
        let path = ccopt_durability::scratch_path("session-live");
        {
            let mut db = SessionDb::open(
                Cc::Strict2pl(Strict2plCc::default()),
                GlobalState::from_ints(&[7, 7]),
                &path,
                DurabilityMode::Strict,
            )
            .unwrap();
            let live = db.begin();
            // An immediate-write mechanism dirties storage in place ...
            assert_eq!(db.write(live, v(0), int(999)), Ok(Op::Done(int(7))));
            assert_eq!(db.globals(), GlobalState::from_ints(&[999, 7]));
            // ... but the committed view and the checkpoint exclude it.
            assert_eq!(db.committed_globals(), GlobalState::from_ints(&[7, 7]));
            db.checkpoint().unwrap();
        } // crash with the writer still running
        let db = SessionDb::open(
            Cc::Strict2pl(Strict2plCc::default()),
            GlobalState::from_ints(&[7, 7]),
            &path,
            DurabilityMode::Strict,
        )
        .unwrap();
        assert_eq!(db.globals(), GlobalState::from_ints(&[7, 7]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn durability_mode_none_is_plain_in_memory() {
        let path = ccopt_durability::scratch_path("session-none");
        let mut db = SessionDb::open(
            Cc::Strict2pl(Strict2plCc::default()),
            GlobalState::from_ints(&[0]),
            &path,
            DurabilityMode::None,
        )
        .unwrap();
        let before = db.metrics.snapshot();
        bump(&mut db, v(0));
        assert!(db.wal.is_none(), "None mode opens no log");
        assert_eq!(db.metrics.diff(&before).wal_records, 0);
        assert!(!path.exists(), "None mode must not touch the disk");
        db.checkpoint().unwrap(); // no-op
        db.sync().unwrap(); // no-op
    }

    #[test]
    fn reopening_with_the_wrong_shape_is_rejected() {
        let path = ccopt_durability::scratch_path("session-shape");
        {
            let mut db = SessionDb::open(
                Cc::Strict2pl(Strict2plCc::default()),
                GlobalState::from_ints(&[0, 0]),
                &path,
                DurabilityMode::Strict,
            )
            .unwrap();
            bump(&mut db, v(0));
        }
        // Wrong store kind.
        assert!(matches!(
            SessionDb::open(
                Cc::Mvto(MvtoCc::default()),
                GlobalState::from_ints(&[0, 0]),
                &path,
                DurabilityMode::Strict,
            ),
            Err(WalError::Mismatch { .. })
        ));
        // Wrong arity.
        assert!(matches!(
            SessionDb::open(
                Cc::Strict2pl(Strict2plCc::default()),
                GlobalState::from_ints(&[0, 0, 0]),
                &path,
                DurabilityMode::Strict,
            ),
            Err(WalError::Mismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn timestamp_sessions_get_monotone_fresh_stamps_across_recycling() {
        // A recycled slot's new occupant must look strictly younger to T/O
        // than every retired predecessor: the late-write abort rule keeps
        // holding with recycled ids.
        let mut db = SessionDb::new(
            Cc::Timestamp(TimestampCc::default()),
            GlobalState::from_ints(&[0]),
        );
        let before = db.metrics.snapshot();
        for _ in 0..10 {
            bump(&mut db, v(0));
        }
        let h = db.begin();
        assert_eq!(db.update(h, v(0), |x| x).unwrap(), Op::Done(int(10)));
        assert_eq!(db.commit(h), Ok(Op::Done(())));
        db.retire(h).unwrap();
        assert_eq!(db.metrics.diff(&before).aborts, 0);
    }

    /// The one-pipeline pin: committing a transaction in one step and
    /// committing it as a two-phase vote plus a coordinator yes run the
    /// same decide / log / land stages, so they must leave the same
    /// store, counters (the log's own aside: a vote and a resolve are two
    /// records where a commit is one), latency histogram, `Commit` trace
    /// events and recovered state — for every mechanism, which covers
    /// both store kinds.
    #[test]
    fn commit_and_vote_then_resolve_land_identically() {
        use ccopt_trace::{TraceConfig, TraceHub};
        for name in crate::cc::MECHANISM_NAMES {
            let run = |two_phase: bool| {
                let tag = format!("pipeline-{}-{two_phase}", name.replace('/', "-"));
                let path = ccopt_durability::scratch_path(&tag);
                let _ = std::fs::remove_file(&path);
                let open = || {
                    let cc = crate::cc::cc_by_name(name).expect("a known mechanism");
                    let init = GlobalState::from_ints(&[1, 2, 3, 4]);
                    SessionDb::open(cc, init, &path, DurabilityMode::Strict).unwrap()
                };
                let hub = TraceHub::new(&TraceConfig::ring(256)).unwrap();
                let mut db = open();
                db.set_tracer(hub.tracer(0));
                for round in 0..3u64 {
                    let h = db.begin();
                    // A read, a blind write, and one variable written
                    // twice (logged once, in first-write order).
                    assert!(matches!(db.read(h, v(3)).unwrap(), Op::Done(_)));
                    assert!(matches!(db.update(h, v(1), inc).unwrap(), Op::Done(_)));
                    assert!(matches!(db.write(h, v(0), int(7)).unwrap(), Op::Done(_)));
                    assert!(matches!(db.update(h, v(1), inc).unwrap(), Op::Done(_)));
                    if two_phase {
                        assert_eq!(db.prepare_commit(h, 40 + round, 0), Ok(Op::Done(())));
                        assert_eq!(db.status(h), SessionStatus::Prepared);
                        db.resolve_commit(h, true, true).unwrap();
                    } else {
                        assert_eq!(db.commit(h), Ok(Op::Done(())));
                    }
                    assert_eq!(db.status(h), SessionStatus::Committed);
                    db.retire(h).unwrap();
                }
                let commits: Vec<(u64, EventKind)> = hub
                    .merged_events()
                    .into_iter()
                    .filter(|e| matches!(e.kind, EventKind::Commit { .. }))
                    .map(|e| (e.tick, e.kind))
                    .collect();
                assert_eq!(commits.len(), 3, "{name}");
                let counters = Metrics {
                    wal_records: 0,
                    wal_syncs: 0,
                    wal_bytes: 0,
                    ..db.metrics
                };
                let landed = (
                    db.globals(),
                    db.committed_globals(),
                    db.live_versions(),
                    counters,
                    db.commit_latency_ticks().clone(),
                    commits,
                );
                drop(db); // crash: both forms were durable at their ack
                let recovered = open().globals();
                let _ = std::fs::remove_file(&path);
                (landed, recovered)
            };
            let (one_step, two_phase) = (run(false), run(true));
            assert_eq!(one_step, two_phase, "{name}");
            assert_eq!(one_step.0 .0, one_step.1, "{name}: recovery is exact");
        }
    }
}
