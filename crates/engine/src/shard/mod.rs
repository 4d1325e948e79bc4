//! Sharded execution: hash-partitioned shards with cross-shard two-phase
//! commit.
//!
//! [`ShardedDb`] splits the variable universe across `S` independent
//! [`SessionDb`] shards — each with its own concurrency-control instance,
//! store, and (optionally) write-ahead log — and holds every shard as a
//! plain value behind its own thread-free fault domain
//! ([`ccopt_par::Worker`]). Every shard job runs on the calling thread,
//! in order. Only fsyncs leave it: on a database with logs, every job
//! but the last of a prepare-vote or `sync` round hands the fsync it
//! forces to its log's syncer thread (`ccopt-wal-sync`, one per log,
//! started on first use), and the round waits for them before it
//! returns, so the shards force their logs concurrently. No shard owns a
//! thread. A transaction
//! whose footprint stays inside one shard runs entirely locally (the
//! common case a good partitioning maximizes); a cross-shard transaction
//! commits through a **two-phase commit**:
//!
//! 1. *Prepare*: every touched shard runs its ordinary concurrency-control
//!    commit decision (the crate-internal `SessionDb::prepare_commit`)
//!    and forces a prepare record — the write-set under the global
//!    transaction id — to its own log. With logs, the votes' fsyncs
//!    overlap on the logs' syncers.
//! 2. *Resolve*: once every shard voted yes, the **coordinator shard**
//!    (the lowest touched index) logs and fsyncs a resolve record — the
//!    atomic commit point — after which the remaining shards apply their
//!    write phases with buffered resolve records
//!    (`SessionDb::resolve_commit`).
//!
//! Crash recovery ([`ShardedDb::open`]) recovers every shard log, then
//! settles each shard's **in-doubt** transactions (prepared, no local
//! resolve) by consulting the coordinator shard's recovered decisions:
//! commit if and only if the coordinator's resolve record survived —
//! presumed abort otherwise. Settlements are written back, so they are
//! made exactly once. Every crash boundary therefore leaves all shards
//! agreeing on every transaction's fate; the differential tests kill the
//! coordinator at every protocol boundary to pin this.
//!
//! Cross-shard **serializability** (the full argument: `docs/SHARDING.md`)
//! rests on each shard's serialization order embedding into one global
//! order:
//!
//! * timestamp mechanisms (T/O, MVTO) stamp every global transaction with
//!   one coordinator-issued global timestamp on every shard it touches
//!   (`SessionDb::begin_with_ts`), so all per-shard timestamp orders
//!   equal the global timestamp order;
//! * commit-ordered mechanisms (serial, strict 2PL, OCC) serialize in
//!   commit order, which the single coordinator makes globally total;
//! * SGT is switched into commit-order mode
//!   ([`crate::cc::ConcurrencyControl::enable_commit_order`]): commits
//!   wait for live conflict predecessors, making each shard's commit
//!   order a topological order of its conflict graph;
//! * SI keeps per-shard snapshot isolation; a cross-shard read may span
//!   two shards' snapshot boundaries (SI is exempt from the
//!   serializability oracle either way).
//!
//! Waits can now cross shards where no local detector sees them (2PL lock
//! cycles spanning shards, the serial token, SGT commit-order gates), so
//! drivers must pair the session loop with a **wait-bound restart valve**:
//! after too many consecutive waits, [`ShardedDb::restart`] aborts the
//! global transaction everywhere and replays it — always safe, and the
//! standard timeout resolution for distributed deadlocks.
//!
//! ## Fault domains
//!
//! Each shard worker is a **fault domain** (`ccopt-par`): a panic in a
//! shard job — or in the wait for its deferred fsync — kills that shard, never the process or the caller, and drops its
//! [`SessionDb`] mid-flight — the write-ahead log closes without a final
//! flush, which is crash semantics. The coordinator **supervises**: any
//! interaction returning a worker error triggers an in-place restart of
//! the crashed shard — recover its log, settle its in-doubt prepares
//! against the in-process decision table (`decided`, the same
//! coordinator consultation recovery uses), fail every running global
//! transaction that had state there with [`SessionError::ShardDown`],
//! and *complete* any transaction whose commit point (the coordinator's
//! fsynced resolve) already survived. The other shards keep serving
//! throughout; unrecoverable storage degrades to a permanently
//! [down](ShardStatus::down) shard rather than an outage. Injected
//! storage faults ([`ShardedDb::set_shard_faults`]) exercise the logs'
//! retry-or-poison paths. `docs/FAULTS.md` has the full fault model.

mod inject;
mod jobs;
mod partition;
mod supervise;
#[cfg(test)]
mod tests;
mod twopc;

pub use jobs::{affine_eval, BatchOp, GroupReq, GroupResp};
pub use partition::Partition;
pub use supervise::ShardStatus;

use crate::cc::{Cc, CcKind, ConcurrencyControl};
use crate::metrics::Metrics;
use crate::session::{SessionDb, SessionError, Txn, VarContention};
use ccopt_durability::recovery::{self, Recovered};
use ccopt_durability::{DurabilityMode, WalError};
use ccopt_model::state::GlobalState;
use ccopt_model::value::Value;
use ccopt_par::Worker;
use ccopt_trace::{ConflictRule, Histogram, TraceConfig, TraceHub, Tracer};
use inject::Inject;
use jobs::gather;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One shard's concurrency control: a fresh instance of `kind`, in
/// commit-order mode whenever the database has more than one shard.
fn shard_cc(kind: CcKind, shards: usize) -> Cc {
    let mut cc = kind.build();
    if shards > 1 {
        cc.enable_commit_order();
    }
    cc
}

/// Epoch-guarded handle to one open **global** transaction (the sharded
/// analogue of [`Txn`]). Copyable; goes stale at retirement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GlobalTxn {
    slot: u32,
    epoch: u64,
}

/// Per-shard state of a global transaction.
#[derive(Clone, Copy, Debug)]
enum SubState {
    /// Not begun on this shard.
    Absent,
    /// An open sub-transaction (begun at the global timestamp).
    Running(Txn),
    /// Voted yes in the in-flight two-phase commit.
    Prepared(Txn),
}

impl SubState {
    /// The open sub-transaction on this shard, voted or not.
    fn txn(self) -> Option<Txn> {
        match self {
            SubState::Running(sub) | SubState::Prepared(sub) => Some(sub),
            SubState::Absent => None,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum GStatus {
    Free,
    Running,
    Committed,
    /// The owning shard of some in-flight state crashed: the supervisor
    /// rolled the transaction back everywhere and parked the slot. Every
    /// operation returns [`SessionError::ShardDown`] until the client
    /// aborts the handle (which retires the slot).
    Failed,
}

/// Coordinator-side slot of one global transaction.
struct GSlot {
    epoch: u64,
    status: GStatus,
    /// Global timestamp of the current attempt: the transaction's stamp
    /// on every shard, and the global transaction id of its 2PC.
    gts: u64,
    attempts: u32,
    /// Per-shard sub-transactions.
    subs: Vec<SubState>,
    /// Shards touched, in first-touch order.
    touched: Vec<u32>,
    /// The [`ShardedDb::submit_group`] call that last saw this slot's
    /// handle (a repeat within one call joins the sequential tail).
    group: u64,
}

impl GSlot {
    fn new(shards: usize) -> GSlot {
        GSlot {
            epoch: 0,
            status: GStatus::Free,
            gts: 0,
            attempts: 0,
            subs: vec![SubState::Absent; shards],
            touched: Vec::new(),
            group: 0,
        }
    }
}

/// What recovering all shard logs found ([`ShardedDb::open`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ShardedRecoveryInfo {
    /// Sub-transactions replayed across all shards (a cross-shard
    /// transaction counts once per shard it touched).
    pub sub_committed: u64,
    /// Largest timestamp floor over the shards; global timestamps resume
    /// above it.
    pub floor: u64,
    /// Torn-tail bytes dropped, summed over the shards.
    pub truncated_bytes: u64,
    /// In-doubt prepares settled as **committed** by consulting their
    /// coordinator shard's decision.
    pub in_doubt_committed: u64,
    /// In-doubt prepares rolled back (no durable coordinator decision:
    /// presumed abort).
    pub in_doubt_aborted: u64,
}

/// An in-memory database hash-partitioned across `S` shards, each an
/// independent [`SessionDb`], with single-shard fast-path commits and
/// two-phase cross-shard commits. See the [module docs](self).
///
/// The lifecycle mirrors [`SessionDb`] (begin / commit / abort / retire,
/// epoch-guarded handles, `Op`-shaped outcomes), but data operations take
/// one shape: plain-data [`BatchOp`]s through
/// [`submit_group`](Self::submit_group) — a single operation is a one-op
/// [`GroupReq`]. The database is driven by one coordinator at a time
/// (`&mut self`) on its own thread; the only parallelism is inside
/// durable vote and `sync` rounds, whose fsyncs overlap on the logs'
/// syncer threads.
pub struct ShardedDb {
    workers: Vec<Worker<SessionDb>>,
    partition: Partition,
    slots: Vec<GSlot>,
    free: Vec<u32>,
    /// Global timestamp authority: stamps, in issue order, every
    /// transaction attempt (also serving as the 2PC global id).
    next_gts: u64,
    multiversion: bool,
    defers: bool,
    recovery: Option<ShardedRecoveryInfo>,
    /// Coordinator-level counters (global outcomes; shard-level counters
    /// aggregate separately in [`metrics`](Self::metrics)).
    commits: usize,
    aborts: usize,
    waits: usize,
    retires: usize,
    cross_commits: usize,
    /// Fault-injection scripts (tests); inert unless armed.
    inject: Inject,
    // --- fault domains (supervision) ---
    /// The mechanism every shard runs, owned so the supervisor can build
    /// a replacement instance when it restarts a crashed shard in place —
    /// on whichever thread holds the database by then.
    kind: CcKind,
    /// The initial global state (a crashed volatile shard respawns from
    /// its projection; a durable one recovers over it).
    init: GlobalState,
    /// Log directory and mode when durable (`None` = volatile shards).
    durable: Option<(PathBuf, DurabilityMode)>,
    expected_txns: usize,
    /// Two-phase-commit outcomes known in this process (kept by durable
    /// databases only), by global transaction id: `true` the instant the
    /// coordinator's resolve fsync succeeds (the commit point), `false`
    /// when a transaction fails mid-protocol; seeded from every recovered
    /// log's resolutions. A crashed shard's in-doubt prepares settle
    /// against this table — the in-process form of the coordinator
    /// consultation — and a full [`checkpoint`](Self::checkpoint) clears
    /// it (resolution stability: compacted records are never consulted
    /// again).
    decided: HashMap<u64, bool>,
    /// Shards whose storage could not be recovered: permanently down,
    /// every operation routed there fails while the others keep serving.
    down: Vec<bool>,
    shard_restarts: usize,
    /// Supervised restarts broken down by shard (sums to
    /// `shard_restarts`), for per-shard health reporting.
    restarts_by_shard: Vec<usize>,
    /// Committed sub-transactions replayed by the most recent supervised
    /// restart — the deterministic size of that recovery.
    last_recovery_replayed: Option<u64>,
    // --- observability (trace plane) ---
    /// Shared tracing state when tracing is on ([`set_trace`](Self::
    /// set_trace)): the global order stamp, the JSONL sink, and the
    /// per-shard flight-recorder rings the supervisor dumps on a crash.
    trace_hub: Option<Arc<TraceHub>>,
    /// The supervisor's own tracer (emitting as shard id `S`, one past
    /// the data shards): `ShardDown` / `ShardUp` around supervised
    /// restarts and the coordinator-plane abort attributions
    /// (failover). Off unless tracing is on.
    coord_tracer: Tracer,
    /// Transactions failed by shard-crash supervision (their slot parked
    /// as [`GStatus::Failed`]); the coordinator's share of the abort
    /// attribution table.
    failover_fails: usize,
    /// Shard messages on the operation lifecycle, each one job under a
    /// shard's ownership token (a run and single-shard commits, lazy
    /// begins riding along, or a retire), counted whichever thread runs
    /// it; the numerator of the messaging tax.
    shard_msgs: usize,
    /// Data operations those messages carried; the denominator of the
    /// messaging tax.
    batched_ops: usize,
    /// [`submit_group`](Self::submit_group) calls so far: each call's
    /// stamp for spotting a handle repeated within it.
    groups: u64,
}

/// The point of owning the mechanism: the whole database, shards
/// included, moves between threads (the server's engine runs on whichever
/// thread holds it).
const _: () = {
    const fn assert_send<T: Send + 'static>() {}
    assert_send::<ShardedDb>()
};

impl ShardedDb {
    /// Create an in-memory sharded database over the variables of `init`,
    /// partitioned across `shards` shards, each running its own instance
    /// of `kind` (a [`CcKind`]; the `Into` exists for one legacy caller,
    /// see the conversion on [`CcKind`]).
    pub fn new(kind: impl Into<CcKind>, init: GlobalState, shards: usize) -> ShardedDb {
        Self::with_capacity(kind, init, shards, 0)
    }

    /// Like [`new`](Self::new), pre-sizing every shard's tables for
    /// `expected_txns` simultaneously open global transactions.
    pub fn with_capacity(
        kind: impl Into<CcKind>,
        init: GlobalState,
        shards: usize,
        expected_txns: usize,
    ) -> ShardedDb {
        let kind = kind.into();
        let partition = Partition::new(init.0.len(), shards);
        let workers = (0..shards)
            .map(|s| {
                let db = SessionDb::with_capacity(
                    shard_cc(kind, shards),
                    partition.project(&init, s),
                    expected_txns,
                );
                Worker::spawn(db)
            })
            .collect();
        Self::build(
            kind,
            workers,
            partition,
            init,
            None,
            expected_txns,
            HashMap::new(),
            0,
            None,
        )
    }

    /// Open a **durable** sharded database under directory `dir` (one
    /// write-ahead log per shard, `dir/shard-<i>.wal`): recover every
    /// shard log, settle in-doubt two-phase commits against their
    /// coordinator shard's recovered decisions (commit iff the
    /// coordinator's resolve record survived; presumed abort otherwise),
    /// write the settlements back, and resume the stream. Fresh logs are
    /// created where none exist. With [`DurabilityMode::None`] this is
    /// exactly [`new`](Self::new).
    pub fn open(
        kind: impl Into<CcKind>,
        init: GlobalState,
        dir: impl AsRef<Path>,
        mode: DurabilityMode,
        shards: usize,
        expected_txns: usize,
    ) -> Result<ShardedDb, WalError> {
        let kind = kind.into();
        if matches!(mode, DurabilityMode::None) {
            return Ok(Self::with_capacity(kind, init, shards, expected_txns));
        }
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let paths: Vec<PathBuf> = (0..shards).map(|s| Self::shard_path(dir, s)).collect();
        // Pass 1: recover every shard log (scan, validate, truncate) and
        // collect each shard's decision table for the consultations.
        let mut recovered: Vec<Option<Recovered>> = Vec::with_capacity(shards);
        for p in &paths {
            recovered.push(recovery::recover(p)?);
        }
        let decisions: Vec<HashMap<u64, bool>> = recovered
            .iter()
            .map(|r| {
                r.as_ref()
                    .map(|r| r.resolutions.clone())
                    .unwrap_or_default()
            })
            .collect();
        // Pass 2: build each shard over its recovered state, settling its
        // in-doubt prepares against the coordinator shard's decisions.
        let partition = Partition::new(init.0.len(), shards);
        let mut next_gts = 0u64;
        let mut info = ShardedRecoveryInfo::default();
        let mut any_recovered = false;
        let mut workers = Vec::with_capacity(shards);
        for (s, rec) in recovered.into_iter().enumerate() {
            if let Some(r) = &rec {
                any_recovered = true;
                next_gts = next_gts.max(r.floor).max(r.max_gtid);
            }
            let db = SessionDb::from_recovered(
                shard_cc(kind, shards),
                partition.project(&init, s),
                &paths[s],
                mode,
                expected_txns,
                rec,
                &mut |p| {
                    decisions
                        .get(p.coord as usize)
                        .and_then(|m| m.get(&p.gtid))
                        .copied()
                        .unwrap_or(false)
                },
            )?;
            if let Some(ri) = db.recovery_info() {
                info.sub_committed += ri.committed;
                info.floor = info.floor.max(ri.floor);
                info.truncated_bytes += ri.truncated_bytes;
                info.in_doubt_committed += ri.in_doubt_committed;
                info.in_doubt_aborted += ri.in_doubt_aborted;
            }
            workers.push(Worker::spawn(db));
        }
        // Every shard's durable decisions seed the in-process table the
        // supervisor consults when it recovers a crashed shard later.
        let mut decided = HashMap::new();
        for m in decisions {
            decided.extend(m);
        }
        Ok(Self::build(
            kind,
            workers,
            partition,
            init,
            Some((dir.to_path_buf(), mode)),
            expected_txns,
            decided,
            next_gts,
            any_recovered.then_some(info),
        ))
    }

    /// The per-shard log path convention of [`open`](Self::open).
    fn shard_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard}.wal"))
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        kind: CcKind,
        workers: Vec<Worker<SessionDb>>,
        partition: Partition,
        init: GlobalState,
        durable: Option<(PathBuf, DurabilityMode)>,
        expected_txns: usize,
        decided: HashMap<u64, bool>,
        next_gts: u64,
        recovery: Option<ShardedRecoveryInfo>,
    ) -> ShardedDb {
        let sample = kind.build();
        let (multiversion, defers) = (sample.multiversion(), sample.defers_writes());
        let shards = workers.len();
        ShardedDb {
            workers,
            partition,
            slots: Vec::new(),
            free: Vec::new(),
            next_gts,
            multiversion,
            defers,
            recovery,
            commits: 0,
            aborts: 0,
            waits: 0,
            retires: 0,
            cross_commits: 0,
            inject: Inject::default(),
            kind,
            init,
            durable,
            expected_txns,
            decided,
            down: vec![false; shards],
            shard_restarts: 0,
            restarts_by_shard: vec![0; shards],
            last_recovery_replayed: None,
            trace_hub: None,
            coord_tracer: Tracer::off(),
            failover_fails: 0,
            shard_msgs: 0,
            batched_ops: 0,
            groups: 0,
        }
    }

    // ---------------------------------------------------------------- begin

    /// Open a new global transaction: recycle a free coordinator slot,
    /// stamp the attempt with a fresh global timestamp, and return the
    /// epoch-guarded handle. Shards are engaged lazily, at the first
    /// operation that touches them.
    pub fn begin(&mut self) -> GlobalTxn {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(GSlot::new(self.workers.len()));
                s
            }
        };
        self.next_gts += 1;
        let gts = self.next_gts;
        let sl = &mut self.slots[slot as usize];
        debug_assert!(sl.status == GStatus::Free && sl.touched.is_empty());
        sl.status = GStatus::Running;
        sl.gts = gts;
        sl.attempts = 1;
        GlobalTxn {
            slot,
            epoch: sl.epoch,
        }
    }

    /// Retire a committed global transaction: retire every shard-local
    /// sub-transaction and hand the coordinator slot back for recycling
    /// (every handle goes stale).
    pub fn retire(&mut self, h: GlobalTxn) -> Result<(), SessionError> {
        let ti = self.slot_of(h)?;
        match self.slots[ti].status {
            GStatus::Committed => {}
            GStatus::Running => return Err(SessionError::StillRunning),
            GStatus::Failed => return Err(SessionError::ShardDown),
            GStatus::Free => unreachable!("stale handles were rejected"),
        }
        let subs = self.slots[ti].subs.iter().enumerate();
        let jobs: Vec<_> = subs
            .filter_map(|(s, state)| {
                let sub = state.txn()?;
                let retire = move |db: &mut SessionDb| db.retire(sub).expect("sub is committed");
                Some((s, retire))
            })
            .collect();
        let retired = self.scatter(None, jobs);
        self.shard_msgs += retired.iter().filter(|(_, r)| r.is_ok()).count();
        self.retires += 1;
        self.free_slot(ti);
        Ok(())
    }

    // ------------------------------------------------------------ accessors

    /// The concurrency control's name (every shard runs the same one).
    pub fn cc_name(&self) -> &str {
        self.kind.name()
    }

    /// How the variables are split: the shard count, each global
    /// variable's shard, and each shard's variables.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Is the store multi-version?
    pub fn multiversion(&self) -> bool {
        self.multiversion
    }

    /// Does the mechanism buffer writes until commit?
    pub fn defers_writes(&self) -> bool {
        self.defers
    }

    /// Current committed global state, gathered across the shards.
    pub fn globals(&mut self) -> GlobalState {
        self.global_state(|db| db.globals())
    }

    /// The committed state only (see [`SessionDb::committed_globals`]),
    /// gathered across the shards.
    pub fn committed_globals(&mut self) -> GlobalState {
        self.global_state(|db| db.committed_globals())
    }

    /// Aggregated execution counters: global outcomes (commits, aborts,
    /// waits, retires, restarts) from the coordinator — a
    /// cross-shard transaction counts once — and store-level counters
    /// summed over the shards (a dead or down shard contributes zeros).
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics {
            commits: self.commits,
            aborts: self.aborts,
            waits: self.waits,
            retires: self.retires,
            shard_restarts: self.shard_restarts,
            shard_msgs: self.shard_msgs,
            batched_ops: self.batched_ops,
            ..Metrics::default()
        };
        // Abort attribution: shard-level rows carry the concurrency-
        // control causes — every CC-triggered global restart stems from
        // one shard's in-place abort, which recorded the real rule;
        // collateral rollbacks on sibling shards are shard-level `Client`
        // rows and are excluded. The coordinator adds its own cause
        // (crash failovers), and whatever remains of the global abort
        // count — explicit client aborts, driver restart valves — reports
        // as `Client`, so the rows sum to `aborts`
        // (best-effort: a 2PC round where several shards restart at once
        // attributes each shard's cause, and a failover counts before its
        // handle is aborted, both absorbed by the saturating remainder).
        let client = ConflictRule::Client.index();
        for sm in self.ask(|db| db.metrics) {
            m.steps_executed += sm.steps_executed;
            m.mv_write_aborts += sm.mv_write_aborts;
            m.versions_installed += sm.versions_installed;
            m.versions_reclaimed += sm.versions_reclaimed;
            m.max_chain_len = m.max_chain_len.max(sm.max_chain_len);
            m.wal_records += sm.wal_records;
            m.wal_syncs += sm.wal_syncs;
            m.wal_bytes += sm.wal_bytes;
            m.io_retries += sm.io_retries;
            for (i, &n) in sm.aborts_by_rule.iter().enumerate() {
                if i != client {
                    m.aborts_by_rule[i] += n;
                }
            }
        }
        m.aborts_by_rule[ConflictRule::ShardFailover.index()] += self.failover_fails;
        let attributed: usize = m.aborts_by_rule.iter().sum();
        m.aborts_by_rule[client] = m.aborts.saturating_sub(attributed);
        m
    }

    /// Global transactions currently open (running or
    /// committed-unretired).
    pub fn open_sessions(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Live version count summed over the shards; `None` on
    /// single-version stores.
    pub fn live_versions(&self) -> Option<usize> {
        if !self.multiversion {
            return None;
        }
        Some(self.ask(|db| db.live_versions().unwrap_or(0)).sum())
    }

    /// The global timestamp of the transaction's current attempt — its
    /// stamp on every shard, its serialization position under the
    /// timestamp mechanisms, and its 2PC identity.
    pub fn read_view(&self, h: GlobalTxn) -> Result<u64, SessionError> {
        Ok(self.slots[self.slot_of(h)?].gts)
    }

    /// Restart attempts of the global transaction so far (1 = first run).
    pub fn attempts(&self, h: GlobalTxn) -> Result<u32, SessionError> {
        Ok(self.slots[self.slot_of(h)?].attempts)
    }

    /// What recovering the shard logs found, when this database was
    /// [`open`](Self::open)ed over existing logs.
    pub fn recovery_info(&self) -> Option<ShardedRecoveryInfo> {
        self.recovery
    }

    // ------------------------------------------------------------ durability

    /// Flush and fsync every shard's buffered log records (graceful
    /// shutdown; also makes every participant resolve record durable).
    /// Every live shard is synced — one shard's failing log must not
    /// leave another's acknowledged group-commit batch unflushed — and
    /// the first log error, in shard order, is reported.
    pub fn sync(&mut self) -> Result<(), WalError> {
        // With logs the shards' fsyncs overlap; a deferred fsync's
        // failure is its shard's answer. A shard that died before (or
        // while) syncing is restarted from its durable prefix by the
        // scatter; nothing buffered survives to sync.
        let overlap = self.durable.is_some().then_some(Result::and as _);
        let synced = self.scatter_all(overlap, |db| db.sync());
        synced.into_iter().filter_map(|(_, r)| r.ok()).collect()
    }

    /// Checkpoint every shard: first [`sync`](Self::sync) all shards —
    /// once every buffered participant resolve is durable, no shard will
    /// ever again consult another's decisions for the records a
    /// checkpoint discards (the **resolution stability rule**,
    /// `docs/SHARDING.md`) — then compact each shard's log. A failed
    /// checkpoint (e.g. an injected ENOSPC) leaves that shard's prior log
    /// fully intact; the first such error is reported once every live
    /// shard was asked. The compactions run one shard after another (each
    /// is a file write, two fsyncs and a rename, nothing a syncer can
    /// take over); only the `sync` before them overlaps.
    pub fn checkpoint(&mut self) -> Result<(), WalError> {
        self.sync()?;
        let compacted = self.scatter_all(None, |db| db.checkpoint());
        let all = compacted.iter().all(|(_, r)| r.is_ok());
        compacted
            .into_iter()
            .filter_map(|(_, r)| r.ok())
            .collect::<Result<(), WalError>>()?;
        if all {
            // Resolution stability: every resolve is durable everywhere
            // and every log is compacted past it — no later recovery can
            // consult a decision about the discarded records, so the
            // in-process table can shrink too.
            self.decided.clear();
        }
        Ok(())
    }

    // ------------------------------------------------------------ internals

    /// Ask every shard the same read-only question, in shard order, on
    /// this thread; a dead or down shard answers nothing (and, behind
    /// `&self`, is left for the next mutating call to supervise).
    fn ask<R>(&self, question: fn(&mut SessionDb) -> R) -> impl Iterator<Item = R> {
        let shards = 0..self.workers.len();
        gather(&self.workers, None, shards.map(|s| (s, question)))
            .into_iter()
            .filter_map(|(_, reply)| reply.ok())
    }

    /// [`scatter`](Self::scatter) the same log job (`sync`, `checkpoint`)
    /// to every shard (a permanently down shard's worker is dead: it
    /// answers `Err` and its supervision is a no-op).
    fn scatter_all<R>(
        &mut self,
        overlap: jobs::Overlap<R>,
        job: fn(&mut SessionDb) -> R,
    ) -> jobs::Replies<R> {
        let shards = 0..self.workers.len();
        self.scatter(overlap, shards.map(|s| (s, job)))
    }

    fn slot_of(&self, h: GlobalTxn) -> Result<usize, SessionError> {
        match self.slots.get(h.slot as usize) {
            Some(sl) if sl.epoch == h.epoch => Ok(h.slot as usize),
            _ => Err(SessionError::Stale),
        }
    }

    fn running(&self, h: GlobalTxn) -> Result<usize, SessionError> {
        let ti = self.slot_of(h)?;
        match self.slots[ti].status {
            GStatus::Running => Ok(ti),
            GStatus::Committed => Err(SessionError::AlreadyCommitted),
            GStatus::Failed => Err(SessionError::ShardDown),
            GStatus::Free => unreachable!("stale handles were rejected"),
        }
    }

    /// Whether a partially prepared two-phase commit is in flight (some
    /// shard voted yes, another's vote said wait).
    fn is_prepared(&self, ti: usize) -> bool {
        self.slots[ti]
            .subs
            .iter()
            .any(|s| matches!(s, SubState::Prepared(_)))
    }

    fn free_slot(&mut self, ti: usize) {
        let sl = &mut self.slots[ti];
        sl.epoch += 1;
        sl.status = GStatus::Free;
        for s in sl.subs.iter_mut() {
            *s = SubState::Absent;
        }
        sl.touched.clear();
        self.free.push(ti as u32);
    }

    /// Oldest global timestamp of any *other* active transaction — the
    /// shard GC floor: a snapshot that old may still arrive at any shard.
    fn min_active_gts(&self, committing: usize) -> u64 {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(i, sl)| i != committing && sl.status == GStatus::Running)
            .map(|(_, sl)| sl.gts)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Gather a per-shard state projection back into global variable
    /// order. A crashed shard is supervised (restarted from its log) and
    /// asked once more; a shard that is (or went) permanently down reads
    /// as its initial projection — the degraded-mode answer for
    /// unavailable data.
    fn global_state(&mut self, f: fn(&SessionDb) -> GlobalState) -> GlobalState {
        let mut locals: Vec<Option<GlobalState>> = vec![None; self.workers.len()];
        for _attempt in 0..2 {
            let missing: Vec<usize> = (0..locals.len())
                .filter(|&s| locals[s].is_none() && !self.down[s])
                .collect();
            let ask = move |db: &mut SessionDb| f(db);
            for (s, local) in self.scatter(None, missing.into_iter().map(|s| (s, ask))) {
                locals[s] = local.ok();
            }
        }
        let mut out = vec![Value::Int(0); self.partition.num_vars()];
        for (s, local) in locals.into_iter().enumerate() {
            let local = local.unwrap_or_else(|| self.partition.project(&self.init, s));
            for (i, &v) in self.partition.shard_vars(s).iter().enumerate() {
                out[v.index()] = local.0[i];
            }
        }
        GlobalState(out)
    }

    // -------------------------------------------------------- observability

    /// Turn on the trace plane for this database: build the shared
    /// [`TraceHub`] from `cfg` (opening the JSONL sink when configured),
    /// attach one tracer per shard worker, and keep a coordinator tracer
    /// (shard id `S`, one past the data shards) for supervisor events.
    /// Restarted shards get fresh tracers automatically. Call before
    /// driving transactions; without it the engine's emission sites stay
    /// single-branch no-ops.
    pub fn set_trace(&mut self, cfg: &TraceConfig) -> std::io::Result<()> {
        let hub = Arc::new(TraceHub::new(cfg)?);
        let live = (0..self.workers.len()).filter(|&s| !self.down[s]);
        let attach = live.map(|s| {
            let tracer = hub.tracer(s as u32);
            (s, move |db: &mut SessionDb| db.set_tracer(tracer))
        });
        gather(&self.workers, None, attach);
        self.coord_tracer = hub.tracer(self.workers.len() as u32);
        self.trace_hub = Some(hub);
        Ok(())
    }

    /// The shared tracing state, when [`set_trace`](Self::set_trace) was
    /// called: rings for flight-recorder dumps, merged-event snapshots,
    /// and the sink ([`TraceHub::flush`] it before reading the file).
    pub fn trace_hub(&self) -> Option<&Arc<TraceHub>> {
        self.trace_hub.as_ref()
    }

    /// The close-out gauges, read from every shard in one walk: a shard
    /// job per shard, so a health probe should read
    /// [`shard_statuses`](Self::shard_statuses) instead. A dead or down
    /// shard contributes nothing.
    pub fn gauges(&self, top: usize) -> ShardedGauges {
        // Each shard owns disjoint variables, so contention rows never
        // merge; asking each shard for its own top `top` keeps the union
        // a superset of the global top `top`.
        let read = move |db: &mut SessionDb| {
            let hist = db.commit_latency_ticks().clone();
            (db.num_slots(), hist, db.top_contended(top))
        };
        let mut g = ShardedGauges {
            cross_shard_commits: self.cross_commits,
            last_recovery_replayed: self.last_recovery_replayed,
            ..ShardedGauges::default()
        };
        let shards = 0..self.workers.len();
        for (s, reply) in gather(&self.workers, None, shards.map(|s| (s, read))) {
            let Ok((slots, hist, rows)) = reply else {
                continue;
            };
            g.num_slots += slots;
            g.commit_latency_ticks.merge(&hist);
            let owned = self.partition.shard_vars(s);
            let global = |r: VarContention| VarContention {
                var: owned[r.var.index()],
                ..r
            };
            g.top_contended.extend(rows.into_iter().map(global));
        }
        g.top_contended
            .sort_by_key(|r| (std::cmp::Reverse(r.total()), r.var.0));
        g.top_contended.truncate(top);
        g
    }
}

/// What [`ShardedDb::gauges`] reads from the shards in one walk: the
/// close-out figures of a run, and the ops plane's latency and
/// contention.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardedGauges {
    /// Dense-table capacity (slots ever allocated) summed over the
    /// shards' current incarnations. A shard never gives a slot back, but
    /// a supervised restart replaces the shard with a fresh
    /// [`SessionDb`] whose count starts again, so after a restart this
    /// is not the peak.
    pub num_slots: usize,
    /// Commit latency in engine ticks, merged over the shards (see
    /// [`SessionDb::commit_latency_ticks`]); tick-based, so deterministic
    /// runs reproduce it bit-for-bit.
    pub commit_latency_ticks: Histogram,
    /// The `top` most contended **global** variables: every shard's
    /// attribution table ([`SessionDb::top_contended`]) translated back
    /// to global ids and re-ranked (waits plus aborts descending, ties by
    /// variable id — deterministic).
    pub top_contended: Vec<VarContention>,
    /// Cross-shard transactions committed through the two-phase protocol.
    pub cross_shard_commits: usize,
    /// Committed sub-transactions replayed by the most recent supervised
    /// shard restart (0 for a volatile shard, which respawns empty;
    /// `None` before any restart) — the size of that recovery: a
    /// function of the log contents alone, so identical runs report it
    /// identically.
    pub last_recovery_replayed: Option<u64>,
}
