//! Sharded execution: hash-partitioned shards with cross-shard two-phase
//! commit.
//!
//! [`ShardedDb`] splits the variable universe across `S` independent
//! [`SessionDb`] shards — each with its own concurrency-control instance,
//! store, and (optionally) write-ahead log — and drives every shard from
//! its **own OS thread** through a mailbox ([`ccopt_par::Worker`]): the
//! first genuinely parallel execution path in the engine. A transaction
//! whose footprint stays inside one shard runs entirely locally (the
//! common case a good partitioning maximizes); a cross-shard transaction
//! commits through a **two-phase commit**:
//!
//! 1. *Prepare*: every touched shard runs its ordinary concurrency-control
//!    commit decision ([`SessionDb::prepare_commit`]) and forces a prepare
//!    record — the write-set under the global transaction id — to its own
//!    log. Votes fan out to the shard threads in parallel.
//! 2. *Resolve*: once every shard voted yes, the **coordinator shard**
//!    (the lowest touched index) logs and fsyncs a resolve record — the
//!    atomic commit point — after which the remaining shards apply their
//!    write phases with buffered resolve records ([`SessionDb::
//!    resolve_commit`]).
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
//!   ([`SessionDb::begin_with_ts`]), so all per-shard timestamp orders
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
//! Each shard worker is a **fault domain** (`ccopt-par`): a panic on a
//! shard thread kills that shard, never the process, and drops its
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
//! [down](ShardedDb::shard_is_down) shard rather than an outage. Bounded
//! shard mailboxes ([`ShardedDb::set_queue_capacity`]) shed load — the
//! transaction restarts instead of queueing unboundedly — and injected
//! storage faults ([`ShardedDb::set_shard_faults`]) exercise the logs'
//! retry-or-poison paths. `docs/FAULTS.md` has the full fault model.

use crate::cc::ConcurrencyControl;
use crate::metrics::Metrics;
use crate::session::{Op, SessionDb, SessionError, SessionStatus, Txn, VarContention};
use ccopt_durability::recovery::{self, Recovered};
use ccopt_durability::{DurabilityMode, RetryPolicy, StorageFaults, WalError, WalHistograms};
use ccopt_model::ids::VarId;
use ccopt_model::state::GlobalState;
use ccopt_model::syntax::StepKind;
use ccopt_model::value::Value;
use ccopt_par::{Reply, Worker, WorkerError};
use ccopt_trace::{ConflictRule, EventKind, Histogram, TraceConfig, TraceHub, Tracer};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-shard 2PC vote replies, tagged with their shard index (`Err` is a
/// shard whose worker died before answering).
type VoteReplies = Vec<(usize, Result<Reply<Op<()>>, WorkerError>)>;

/// Deterministic hash partitioning of the variable universe: global
/// variable ids to `(shard, local id)` and back.
///
/// The multiplicative hash decorrelates shard assignment from id
/// adjacency (range-correlated workloads would otherwise pile onto one
/// shard), and depends only on `(num_vars, shards)` — recovery rebuilds
/// the identical partition.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Global variable -> (shard, local index).
    map: Vec<(u32, u32)>,
    /// Per shard: the global ids it owns, in local-index order.
    owned: Vec<Vec<VarId>>,
}

impl Partition {
    /// Partition `num_vars` global variables across `shards` shards.
    pub fn new(num_vars: usize, shards: usize) -> Partition {
        assert!(shards > 0, "a sharded database needs at least one shard");
        let mut map = Vec::with_capacity(num_vars);
        let mut owned: Vec<Vec<VarId>> = vec![Vec::new(); shards];
        for v in 0..num_vars as u32 {
            let s = (((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % shards as u64) as u32;
            map.push((s, owned[s as usize].len() as u32));
            owned[s as usize].push(VarId(v));
        }
        Partition { map, owned }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.owned.len()
    }

    /// The shard owning global variable `v`.
    pub fn shard_of(&self, v: VarId) -> usize {
        self.map[v.index()].0 as usize
    }

    /// The shard-local id of global variable `v`.
    pub fn local(&self, v: VarId) -> VarId {
        VarId(self.map[v.index()].1)
    }

    /// Global ids owned by shard `s`, in local-index order.
    pub fn shard_vars(&self, s: usize) -> &[VarId] {
        &self.owned[s]
    }

    /// Project a global state onto shard `s`'s local variable order.
    fn project(&self, init: &GlobalState, s: usize) -> GlobalState {
        GlobalState(self.owned[s].iter().map(|&v| init.0[v.index()]).collect())
    }
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
    waits: u32,
    /// Per-shard sub-transactions.
    subs: Vec<SubState>,
    /// Shards touched, in first-touch order.
    touched: Vec<u32>,
}

impl GSlot {
    fn new(shards: usize) -> GSlot {
        GSlot {
            epoch: 0,
            status: GStatus::Free,
            gts: 0,
            attempts: 0,
            waits: 0,
            subs: vec![SubState::Absent; shards],
            touched: Vec::new(),
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

/// Wall-clock histograms of the cross-shard two-phase commit
/// ([`ShardedDb::twopc_histograms`]). Always on — recording is a few
/// instructions per protocol round — but wall-clock, so not reproduced
/// across runs (unlike the tick-based commit-latency histogram).
#[derive(Clone, Debug, Default)]
pub struct TwoPcHistograms {
    /// Phase-1 duration in nanoseconds per vote round: vote submission
    /// to the last vote collected (validation + forced prepare fsyncs).
    pub prepare_nanos: Histogram,
    /// Phase-2 duration in nanoseconds per **completed** resolve: the
    /// coordinator's resolve fsync through the last participant apply
    /// (rounds cut short by a shard crash are not recorded; the
    /// recovery histograms cover those).
    pub resolve_nanos: Histogram,
    /// Outstanding votes per phase-1 round — the prepare fan-out width
    /// (shards that stayed prepared across a `Wait`ed retry don't
    /// re-vote, so a retry's round is narrower).
    pub prepare_fanout: Histogram,
}

/// Cost of supervised shard restarts ([`ShardedDb::recovery_histograms`]):
/// one sample per restart handled by the fault supervisor.
#[derive(Clone, Debug, Default)]
pub struct RecoveryHistograms {
    /// Wall-clock nanoseconds per restart: worker teardown, log
    /// recovery (when durable), respawn, and in-flight settlement.
    pub nanos: Histogram,
    /// The deterministic size of each recovery: committed
    /// sub-transactions replayed from the recovered log (0 for a
    /// volatile shard, which respawns empty).
    pub replayed_commits: Histogram,
}

/// An in-memory database hash-partitioned across `S` shard threads, each
/// an independent [`SessionDb`], with single-shard fast-path commits and
/// two-phase cross-shard commits. See the [module docs](self).
///
/// The public API mirrors [`SessionDb`] (begin / per-operation access /
/// commit / abort / retire, epoch-guarded handles, `Op`-shaped outcomes)
/// and is driven by one coordinator at a time (`&mut self`); parallelism
/// lives *inside* calls, fanning work out to the shard threads.
pub struct ShardedDb<'a> {
    workers: Vec<Worker<SessionDb>>,
    partition: Partition,
    num_vars: usize,
    slots: Vec<GSlot>,
    free: Vec<u32>,
    /// Global timestamp authority: stamps, in issue order, every
    /// transaction attempt (also serving as the 2PC global id).
    next_gts: u64,
    cc_name: String,
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
    /// Crash injection: number of durable 2PC actions (prepare fsyncs,
    /// coordinator resolve fsyncs) allowed before every shard log dies.
    crash_budget: Option<u64>,
    twopc_actions: u64,
    dead: bool,
    // --- fault domains (supervision) ---
    /// The concurrency-control factory, kept so the supervisor can build
    /// a replacement instance when it restarts a crashed shard in place.
    make_cc: &'a dyn Fn() -> Box<dyn ConcurrencyControl>,
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
    /// Mailbox bound applied to every (re)spawned shard worker.
    queue_capacity: Option<usize>,
    shard_restarts: usize,
    /// Supervised restarts broken down by shard (sums to
    /// `shard_restarts`), for per-shard health reporting.
    restarts_by_shard: Vec<usize>,
    shed_aborts: usize,
    /// Fault injection: 2PC job index (votes, coordinator resolve,
    /// participant resolves, counted from arming) replaced with a panic.
    panic_at_2pc_job: Option<u64>,
    twopc_jobs: u64,
    /// Wall-clock duration of the most recent supervised shard restart.
    last_recovery: Option<Duration>,
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
    /// restarts and the coordinator-plane abort attributions (shed,
    /// failover). Off unless tracing is on.
    coord_tracer: Tracer,
    /// Two-phase-commit phase timings and fan-out widths (always on).
    twopc_hist: TwoPcHistograms,
    /// Supervised-restart cost (always on).
    recovery_hist: RecoveryHistograms,
    /// Transactions failed by shard-crash supervision (their slot parked
    /// as [`GStatus::Failed`]); the coordinator's share of the abort
    /// attribution table.
    failover_fails: usize,
    /// Coordinator→shard mailbox round-trips on the operation lifecycle
    /// (shard jobs — runs and single-shard commits, lazy begins riding
    /// along — and retires); the numerator of the messaging tax.
    shard_msgs: usize,
    /// Data operations those messages carried; the denominator of the
    /// messaging tax.
    batched_ops: usize,
}

impl<'a> ShardedDb<'a> {
    /// Create an in-memory sharded database over the variables of `init`,
    /// partitioned across `shards` shards, each running its own instance
    /// from `make_cc`.
    pub fn new(
        make_cc: &'a dyn Fn() -> Box<dyn ConcurrencyControl>,
        init: GlobalState,
        shards: usize,
    ) -> ShardedDb<'a> {
        Self::with_capacity(make_cc, init, shards, 0)
    }

    /// Like [`new`](Self::new), pre-sizing every shard's tables for
    /// `expected_txns` simultaneously open global transactions.
    pub fn with_capacity(
        make_cc: &'a dyn Fn() -> Box<dyn ConcurrencyControl>,
        init: GlobalState,
        shards: usize,
        expected_txns: usize,
    ) -> ShardedDb<'a> {
        let partition = Partition::new(init.0.len(), shards);
        let workers = (0..shards)
            .map(|s| {
                let mut cc = make_cc();
                if shards > 1 {
                    cc.enable_commit_order();
                }
                Worker::spawn(SessionDb::with_capacity(
                    cc,
                    partition.project(&init, s),
                    expected_txns,
                ))
            })
            .collect();
        Self::build(
            make_cc,
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
        make_cc: &'a dyn Fn() -> Box<dyn ConcurrencyControl>,
        init: GlobalState,
        dir: impl AsRef<Path>,
        mode: DurabilityMode,
        shards: usize,
        expected_txns: usize,
    ) -> Result<ShardedDb<'a>, WalError> {
        if matches!(mode, DurabilityMode::None) {
            return Ok(Self::with_capacity(make_cc, init, shards, expected_txns));
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
            let mut cc = make_cc();
            if shards > 1 {
                cc.enable_commit_order();
            }
            let db = SessionDb::from_recovered(
                cc,
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
            make_cc,
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
    pub fn shard_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard}.wal"))
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        make_cc: &'a dyn Fn() -> Box<dyn ConcurrencyControl>,
        workers: Vec<Worker<SessionDb>>,
        partition: Partition,
        init: GlobalState,
        durable: Option<(PathBuf, DurabilityMode)>,
        expected_txns: usize,
        decided: HashMap<u64, bool>,
        next_gts: u64,
        recovery: Option<ShardedRecoveryInfo>,
    ) -> ShardedDb<'a> {
        let sample = make_cc();
        let (cc_name, multiversion, defers) = (
            sample.name().to_string(),
            sample.multiversion(),
            sample.defers_writes(),
        );
        drop(sample);
        let shards = workers.len();
        ShardedDb {
            workers,
            partition,
            num_vars: init.0.len(),
            slots: Vec::new(),
            free: Vec::new(),
            next_gts,
            cc_name,
            multiversion,
            defers,
            recovery,
            commits: 0,
            aborts: 0,
            waits: 0,
            retires: 0,
            cross_commits: 0,
            crash_budget: None,
            twopc_actions: 0,
            dead: false,
            make_cc,
            init,
            durable,
            expected_txns,
            decided,
            down: vec![false; shards],
            queue_capacity: None,
            shard_restarts: 0,
            restarts_by_shard: vec![0; shards],
            shed_aborts: 0,
            panic_at_2pc_job: None,
            twopc_jobs: 0,
            last_recovery: None,
            last_recovery_replayed: None,
            trace_hub: None,
            coord_tracer: Tracer::off(),
            twopc_hist: TwoPcHistograms::default(),
            recovery_hist: RecoveryHistograms::default(),
            failover_fails: 0,
            shard_msgs: 0,
            batched_ops: 0,
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
        sl.waits = 0;
        GlobalTxn {
            slot,
            epoch: sl.epoch,
        }
    }

    // ----------------------------------------------------------- operations

    /// Observe global variable `var` (a pure read).
    pub fn read(&mut self, h: GlobalTxn, var: VarId) -> Result<Op<Value>, SessionError> {
        self.apply(h, var, StepKind::Read, |v| v)
    }

    /// Blind-write `value` to `var`; the observed old value rides along.
    pub fn write(
        &mut self,
        h: GlobalTxn,
        var: VarId,
        value: Value,
    ) -> Result<Op<Value>, SessionError> {
        self.apply(h, var, StepKind::Write, move |_| value)
    }

    /// Read-modify-write `var` through `f`, atomically with respect to
    /// the owning shard's concurrency control.
    pub fn update(
        &mut self,
        h: GlobalTxn,
        var: VarId,
        f: impl FnOnce(Value) -> Value + Send + 'static,
    ) -> Result<Op<Value>, SessionError> {
        self.apply(h, var, StepKind::Update, f)
    }

    /// The general access primitive: routes the step to the shard owning
    /// `var` (translating to its local id) and runs it on that shard's
    /// thread as a one-operation job of the shard-job executor — so the
    /// transaction's lazy begin on a shard it had not touched rides the
    /// same message. Semantics of the returned [`Op`] mirror
    /// [`SessionDb::apply`]; a shard-level restart restarts the **whole**
    /// global transaction (every shard's sub-transaction rolls back) and
    /// the client replays its program against a fresh global timestamp.
    pub fn apply(
        &mut self,
        h: GlobalTxn,
        var: VarId,
        kind: StepKind,
        f: impl FnOnce(Value) -> Value + Send + 'static,
    ) -> Result<Op<Value>, SessionError> {
        let ti = self.running(h)?;
        if self.is_prepared(ti) {
            // A partially prepared commit is in flight (some shard's vote
            // said wait): only the commit retry or an abort may proceed.
            return Err(SessionError::Prepared);
        }
        let si = self.partition.shard_of(var);
        let run = vec![(self.partition.local(var), RunOp::Call(kind, Box::new(f)))];
        let (mut results, _) = self.shard_job(si, self.job(ti, si, run, Finish::None))?;
        Ok(results.pop().expect("a one-operation run has one outcome"))
    }

    /// Submit a group of **independent transactions'** runs in as few
    /// mailbox messages as possible (the server's engine thread collects
    /// requests from many connections into one group per pass; a lone
    /// request is a group of one).
    ///
    /// Requests whose operations (and prior shard footprint) sit on a
    /// single shard are packed into **one message per shard**, carrying
    /// every such transaction's lazy begin and run — and, when
    /// [`commit`](GroupReq::commit) is set, its single-shard commit and
    /// retire too, so a whole k-op transaction costs one round trip
    /// instead of `k + 2`. Groups execute in first-appearance order of
    /// their shard; requests that span shards follow in submission
    /// order, one message per maximal same-shard run of their operations,
    /// then the ordinary [`commit`](Self::commit) (two-phase when the
    /// footprint spans shards).
    ///
    /// **Partial-batch contract**, per request: outcomes come back per
    /// operation, in submission order, and execution stops at the first
    /// non-[`Op::Done`] outcome — operations after it are **not
    /// attempted** (the results are short). A trailing [`Op::Wait`] means
    /// retry from that operation; a trailing [`Op::Restarted`] means the
    /// whole global transaction restarted and the client replays its
    /// program. The piggybacked commit is attempted only when every
    /// operation completed `Done` ([`GroupResp::commit`] is `None`
    /// otherwise). A committed request is also retired — its handle is
    /// dead on return. Each handle may appear at most once per group.
    ///
    /// **Equivalence contract** (proved by the batched differential
    /// suite): the outcomes are bit-identical to driving the same
    /// requests sequentially through the per-operation API in the
    /// canonical order above — both run on the one shard-job executor,
    /// which consumes restart timestamps *lazily inside the shard*,
    /// exactly the stamp sequence one message per operation issues. One
    /// intentional divergence: the GC floor of a piggybacked commit is
    /// computed at submission (pessimistically low), so multi-version
    /// reclamation *timing* may differ; no concurrency decision reads the
    /// floor, so outcomes and final state do not.
    pub fn submit_group(&mut self, reqs: Vec<GroupReq>) -> Vec<GroupResp> {
        let mut resps: Vec<GroupResp> = (0..reqs.len())
            .map(|_| GroupResp {
                results: Ok(Vec::new()),
                commit: None,
            })
            .collect();
        // Classify: pack single-shard requests per shard, keep the rest
        // (cross-shard footprints, trivial no-touch commits) for the
        // sequential tail. A refused request is in neither — its error
        // already sits in its response.
        let mut packed: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.workers.len()];
        let mut shard_order: Vec<usize> = Vec::new();
        let mut tail: Vec<usize> = Vec::new();
        for (k, req) in reqs.iter().enumerate() {
            let ti = match self.running(req.h) {
                Ok(ti) => ti,
                Err(e) => {
                    resps[k].results = Err(e);
                    continue;
                }
            };
            if self.is_prepared(ti) {
                if req.ops.is_empty() && req.commit {
                    // A cross-shard commit retry: the tail's generic
                    // commit path resumes the two-phase protocol.
                    tail.push(k);
                } else {
                    resps[k].results = Err(SessionError::Prepared);
                }
                continue;
            }
            // The request's whole footprint: shards its ops touch plus
            // shards already engaged by earlier operations.
            let mut footprint = req
                .ops
                .iter()
                .map(|op| self.partition.shard_of(op.var()))
                .chain(self.slots[ti].touched.iter().map(|&s| s as usize));
            match footprint.next() {
                Some(si) if footprint.all(|s| s == si) => {
                    if packed[si].is_empty() {
                        shard_order.push(si);
                    }
                    packed[si].push((k, ti));
                }
                // Cross-shard, or no ops and nothing touched: a trivial
                // commit (or a no-op), handled in the tail without any
                // message.
                _ => tail.push(k),
            }
        }
        // One message per shard, in first-appearance order.
        for si in shard_order {
            let members = std::mem::take(&mut packed[si]);
            let jobs = members
                .iter()
                .map(|&(k, ti)| {
                    let finish = if reqs[k].commit {
                        Finish::CommitRetire
                    } else {
                        Finish::None
                    };
                    self.job(ti, si, self.localize(&reqs[k].ops), finish)
                })
                .collect();
            for (&(k, _), settled) in members.iter().zip(self.shard_jobs(si, jobs)) {
                match settled {
                    Ok((results, commit)) => {
                        resps[k].results = Ok(results);
                        resps[k].commit = commit.map(Ok);
                    }
                    Err(e) => resps[k].results = Err(e),
                }
            }
        }
        // The sequential tail: cross-shard and trivial requests, in
        // submission order.
        for k in tail {
            let req = &reqs[k];
            // Pre-flighted again: a packed group above may have crashed a
            // shard this transaction had state on.
            let ran = self
                .running(req.h)
                .and_then(|ti| self.run_across(ti, &req.ops));
            let complete = matches!(&ran, Ok(rs) if rs.len() == req.ops.len()
                && rs.iter().all(|r| matches!(r, Op::Done(_))));
            resps[k].results = ran;
            if complete && req.commit {
                let c = self.commit(req.h);
                if let Ok(Op::Done(())) = c {
                    let _ = self.retire(req.h);
                }
                resps[k].commit = Some(c);
            }
        }
        resps
    }

    /// Run a cross-shard request's operations for slot `ti`: one job per
    /// maximal run of consecutive operations owned by the same shard, in
    /// program order, stopping at the first non-[`Op::Done`] outcome.
    fn run_across(&mut self, ti: usize, ops: &[BatchOp]) -> Result<Vec<Op<Value>>, SessionError> {
        let mut out = Vec::with_capacity(ops.len());
        while out.len() < ops.len() {
            let rest = &ops[out.len()..];
            let si = self.partition.shard_of(rest[0].var());
            let len = rest
                .iter()
                .take_while(|op| self.partition.shard_of(op.var()) == si)
                .count();
            let run = self.localize(&rest[..len]);
            let (results, _) = self.shard_job(si, self.job(ti, si, run, Finish::None))?;
            out.extend(results);
            if !matches!(out.last(), Some(Op::Done(_))) {
                break;
            }
        }
        Ok(out)
    }

    /// A same-shard run of operations, each under its shard-local id.
    fn localize(&self, ops: &[BatchOp]) -> Vec<(VarId, RunOp)> {
        ops.iter()
            .map(|op| (self.partition.local(op.var()), RunOp::Data(*op)))
            .collect()
    }

    /// Slot `ti`'s job on shard `si`. The caller has pre-flighted the
    /// transaction: running, with no vote outstanding.
    fn job(&self, ti: usize, si: usize, run: Vec<(VarId, RunOp)>, finish: Finish) -> Job {
        let sl = &self.slots[ti];
        Job {
            ti,
            sub: match sl.subs[si] {
                SubState::Running(sub) => Some(sub),
                SubState::Absent => None,
                SubState::Prepared(_) => unreachable!("prepared transactions are refused"),
            },
            gts: sl.gts,
            run,
            finish,
            floor: match finish {
                Finish::None => 0,
                Finish::Commit | Finish::CommitRetire => self.min_active_gts(ti),
            },
        }
    }

    /// One job, alone in its message.
    fn shard_job(&mut self, si: usize, job: Job) -> Settled {
        self.shard_jobs(si, vec![job])
            .pop()
            .expect("one job, one outcome")
    }

    /// The shard-job executor — the only code that runs data operations
    /// on a shard: one mailbox message carrying every job (lazy begin,
    /// run, optional commit + retire), executed back-to-back on shard
    /// `si`'s thread, each outcome [`adopt`](Self::adopt)ed into its
    /// coordinator slot. Outcomes come back in job order.
    fn shard_jobs(&mut self, si: usize, jobs: Vec<Job>) -> Vec<Settled> {
        if self.down[si] {
            // The owning shard is permanently down (unrecoverable
            // storage); the rest of the database keeps serving.
            return jobs.iter().map(|_| Err(SessionError::ShardDown)).collect();
        }
        if self.workers[si].is_full() {
            // Backpressure: the shard's bounded mailbox is at capacity.
            // Shed the whole message — every transaction in it restarts
            // under a fresh timestamp — instead of queueing unboundedly;
            // the clients replay after their usual backoff, by which time
            // the queue has drained.
            return jobs
                .iter()
                .map(|job| {
                    self.shed_aborts += 1;
                    if self.coord_tracer.is_on() {
                        let (gts, tick) = (self.slots[job.ti].gts, self.next_gts);
                        let owned = self.partition.shard_vars(si);
                        self.coord_tracer.emit(
                            tick,
                            EventKind::Abort {
                                txn: gts,
                                rule: ConflictRule::Shed,
                                var: job.run.first().map(|(lv, _)| owned[lv.index()].0),
                                opponent: None,
                            },
                        );
                    }
                    self.global_restart(job.ti);
                    Ok((vec![Op::Restarted], None))
                })
                .collect();
        }
        self.shard_msgs += 1;
        self.batched_ops += jobs.iter().map(|j| j.run.len()).sum::<usize>();
        let sent = jobs.len();
        // Restart stamps are consumed lazily, inside the shard, in
        // execution order: a shard-local restart happens in place, before
        // we see the outcome, so each job reserves (without consuming)
        // `cur + 1`, and `cur` advances only when a restart takes it.
        let base = self.next_gts;
        let outs = match self.workers[si].call(move |db| {
            let mut cur = base;
            let mut outs: Vec<JobOut> = Vec::with_capacity(jobs.len());
            for job in jobs {
                let sub = match job.sub {
                    Some(s) => s,
                    None => db.begin_with_ts(job.gts),
                };
                let mut results = Vec::with_capacity(job.run.len());
                let mut all_done = true;
                db.set_restart_ts(cur + 1);
                for (lv, op) in job.run {
                    let r = match op {
                        RunOp::Data(BatchOp::Read(_)) => db.apply(sub, lv, StepKind::Read, |v| v),
                        RunOp::Data(BatchOp::Write(_, val)) => {
                            db.apply(sub, lv, StepKind::Write, move |_| val)
                        }
                        RunOp::Data(BatchOp::Affine { a, c, .. }) => {
                            db.apply(sub, lv, StepKind::Update, move |v| affine_eval(a, c, v))
                        }
                        RunOp::Call(kind, f) => db.apply(sub, lv, kind, f),
                    }
                    .expect("sub is live");
                    results.push(r);
                    if !matches!(r, Op::Done(_)) {
                        all_done = false;
                        break;
                    }
                }
                let mut commit = None;
                let mut retired = false;
                if job.finish != Finish::None && all_done {
                    db.set_gc_floor(job.floor);
                    db.set_restart_ts(cur + 1);
                    let r = db.commit(sub).expect("sub is live");
                    if r == Op::Done(()) && job.finish == Finish::CommitRetire {
                        db.retire(sub).expect("sub is committed");
                        retired = true;
                    }
                    commit = Some(r);
                }
                // The run stops at its first non-`Done` outcome and the
                // commit follows an all-`Done` run, so at most one of
                // them restarted — consuming the reserved stamp.
                let restarted =
                    matches!(results.last(), Some(Op::Restarted)) || commit == Some(Op::Restarted);
                if restarted {
                    cur += 1;
                }
                outs.push(JobOut {
                    ti: job.ti,
                    sub,
                    results,
                    consumed: restarted.then_some(cur),
                    commit,
                    retired,
                });
            }
            outs
        }) {
            Ok(outs) => outs,
            Err(WorkerError) => {
                // The shard worker died running (or queued behind) this
                // message: supervise the crash — restart the shard from
                // its log, fail every transaction with state there — and
                // report the loss. A commit in the message was never
                // acknowledged; the recovered log decides it (as after
                // any crash, an unacknowledged commit may legitimately
                // have landed). A transaction whose begin was in the
                // message holds nothing on the crashed shard, but its
                // program needs the variable: either way the client sees
                // the standard crashed-shard error, aborts and re-runs.
                self.supervise_crash(si);
                return (0..sent).map(|_| Err(SessionError::ShardDown)).collect();
            }
        };
        outs.into_iter()
            .map(|out| Ok(self.adopt(si, out)))
            .collect()
    }

    /// Fold one job's outcome into its coordinator slot: install the
    /// sub-transaction the message began, count a wait, adopt a consumed
    /// restart stamp as the transaction's new global attempt, record the
    /// commit. (A run stops at its first non-`Done` outcome and commits
    /// only after an all-`Done` run, so at most one of these happened.)
    fn adopt(&mut self, si: usize, out: JobOut) -> Adopted {
        let ti = out.ti;
        if matches!(self.slots[ti].subs[si], SubState::Absent) {
            self.slots[ti].subs[si] = SubState::Running(out.sub);
            self.slots[ti].touched.push(si as u32);
        }
        if matches!(out.results.last(), Some(Op::Wait)) || out.commit == Some(Op::Wait) {
            self.slots[ti].waits += 1;
            self.waits += 1;
        }
        if let Some(stamp) = out.consumed {
            // The shard already restarted the sub in place at `stamp`.
            self.next_gts = self.next_gts.max(stamp);
            self.global_restart_keeping(ti, Some(si), stamp);
        }
        if out.commit == Some(Op::Done(())) {
            self.slots[ti].status = GStatus::Committed;
            self.commits += 1;
            if out.retired {
                self.retires += 1;
                self.free_slot(ti);
            }
        }
        (out.results, out.commit)
    }

    // --------------------------------------------------------------- finish

    /// Commit the global transaction. Single-shard transactions commit
    /// entirely on their shard (the fast path, batched by that shard's
    /// group commit); cross-shard transactions run the two-phase protocol
    /// described in the [module docs](self). [`Op::Wait`] means retry the
    /// commit later — shards that already voted stay prepared, and only
    /// the outstanding votes re-run; [`Op::Restarted`] means some shard's
    /// validation failed and a fresh global attempt has begun.
    pub fn commit(&mut self, h: GlobalTxn) -> Result<Op<()>, SessionError> {
        let ti = self.running(h)?;
        let touched: Vec<usize> = self.slots[ti].touched.iter().map(|&s| s as usize).collect();
        match touched.len() {
            0 => {
                // A transaction that never touched data commits trivially.
                self.slots[ti].status = GStatus::Committed;
                self.commits += 1;
                Ok(Op::Done(()))
            }
            1 => {
                // Single-shard transactions never prepare: a zero-op job
                // that commits.
                let job = self.job(ti, touched[0], Vec::new(), Finish::Commit);
                let (_, commit) = self.shard_job(touched[0], job)?;
                // No commit outcome: the shard's full mailbox shed the
                // job, which restarted the transaction.
                Ok(commit.unwrap_or(Op::Restarted))
            }
            _ => self.commit_cross(ti, touched),
        }
    }

    /// The two-phase commit of a cross-shard transaction.
    fn commit_cross(&mut self, ti: usize, mut shards: Vec<usize>) -> Result<Op<()>, SessionError> {
        shards.sort_unstable();
        let gtid = self.slots[ti].gts;
        let coord = shards[0] as u32;
        // Phase 1 — collect the outstanding votes. Already-prepared shards
        // (from a Wait-ed earlier attempt) keep their vote.
        let pending: Vec<(usize, Txn)> = shards
            .iter()
            .filter_map(|&s| match self.slots[ti].subs[s] {
                SubState::Running(sub) => Some((s, sub)),
                _ => None,
            })
            .collect();
        // Each vote reserves its own restart timestamp (a shard whose
        // validation fails restarts its sub in place at that stamp).
        let spares: Vec<u64> = (0..pending.len() as u64)
            .map(|i| self.next_gts + 1 + i)
            .collect();
        let sequential = self.crash_budget.is_some() || self.panic_at_2pc_job.is_some();
        let t_prepare = Instant::now();
        let outcomes: Vec<(usize, Result<Op<()>, WorkerError>)> = if sequential {
            // Crash and panic injection need deterministic action
            // boundaries: sequential votes.
            pending
                .iter()
                .zip(&spares)
                .map(|(&(s, sub), &spare)| {
                    self.before_2pc_action();
                    let r = self.twopc_call(s, move |db| {
                        db.set_restart_ts(spare);
                        db.prepare_commit(sub, gtid, coord).expect("sub is live")
                    });
                    (s, r)
                })
                .collect()
        } else {
            // The parallel path: every shard's vote (concurrency-control
            // validation + forced prepare fsync) runs concurrently on its
            // own thread.
            let replies: VoteReplies = pending
                .iter()
                .zip(&spares)
                .map(|(&(s, sub), &spare)| {
                    let reply = self.workers[s].submit(move |db| {
                        db.set_restart_ts(spare);
                        db.prepare_commit(sub, gtid, coord).expect("sub is live")
                    });
                    (s, reply)
                })
                .collect();
            replies
                .into_iter()
                .map(|(s, r)| (s, r.and_then(|rep| rep.wait())))
                .collect()
        };
        if !pending.is_empty() {
            self.twopc_hist.prepare_fanout.record(pending.len() as u64);
            self.twopc_hist
                .prepare_nanos
                .record(t_prepare.elapsed().as_nanos() as u64);
        }
        // A shard that died during its vote never logged a resolve, so
        // the decision was never made: supervise each crashed shard (the
        // supervision fails this transaction — it has state on the dead
        // shard) and report the loss.
        let mut crashed: Vec<usize> = outcomes
            .iter()
            .filter(|(_, r)| r.is_err())
            .map(|&(s, _)| s)
            .collect();
        if !crashed.is_empty() {
            crashed.sort_unstable();
            crashed.dedup();
            for s in crashed {
                self.supervise_crash(s);
            }
            return Err(SessionError::ShardDown);
        }
        let mut waited = false;
        let mut restarted: Option<(usize, u64)> = None;
        for (i, &(s, _)) in pending.iter().enumerate() {
            match outcomes[i].1 {
                Ok(Op::Done(())) => {
                    let SubState::Running(sub) = self.slots[ti].subs[s] else {
                        unreachable!("voting shards were running")
                    };
                    self.slots[ti].subs[s] = SubState::Prepared(sub);
                }
                Ok(Op::Wait) => waited = true,
                Ok(Op::Restarted) => {
                    if restarted.is_none() {
                        restarted = Some((s, spares[i]));
                    }
                }
                Err(WorkerError) => unreachable!("crashed shards were handled above"),
            }
        }
        if let Some((keep, gts)) = restarted {
            // Some shard's validation failed and restarted its sub in
            // place: the global transaction aborts everywhere else
            // (prepared votes are revoked — the decision was never
            // logged) and continues as the kept shard's fresh attempt.
            // Spares may have been stamped by multiple restarting shards;
            // burn the whole batch to keep global timestamps unique.
            self.next_gts += spares.len() as u64;
            self.global_restart_keeping(ti, Some(keep), gts);
            return Ok(Op::Restarted);
        }
        if waited {
            self.slots[ti].waits += 1;
            self.waits += 1;
            return Ok(Op::Wait);
        }
        // Phase 2 — all shards voted yes. The coordinator shard's fsynced
        // resolve record is the commit point of the global transaction.
        let floor = self.min_active_gts(ti);
        let SubState::Prepared(coord_sub) = self.slots[ti].subs[coord as usize] else {
            unreachable!("coordinator voted above")
        };
        let t_resolve = Instant::now();
        self.before_2pc_action();
        let resolve = self.twopc_call(coord as usize, move |db| {
            db.set_gc_floor(floor);
            db.resolve_commit(coord_sub, true, true)
                .expect("coordinator sub is prepared")
        });
        if resolve.is_err() {
            // The coordinator worker died around the commit point:
            // whether the resolve record became durable is exactly what
            // its log knows. Supervision recovers the shard, merges its
            // durable decisions into `decided`, and settles this
            // transaction the same way post-crash recovery would —
            // committed iff the resolve survived, presumed abort
            // otherwise.
            self.supervise_crash(coord as usize);
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
        self.slots[ti].status = GStatus::Committed;
        self.commits += 1;
        self.cross_commits += 1;
        // Participants apply in parallel; their resolve records stay
        // buffered — if a crash loses one, that shard recovers in-doubt
        // and re-derives the decision from the coordinator's log.
        let mut crashed: Vec<usize> = Vec::new();
        if sequential {
            for &s in &shards[1..] {
                let SubState::Prepared(sub) = self.slots[ti].subs[s] else {
                    unreachable!("participants voted above")
                };
                let r = self.twopc_call(s, move |db| {
                    db.set_gc_floor(floor);
                    db.resolve_commit(sub, true, false)
                        .expect("participant sub is prepared")
                });
                if r.is_err() {
                    crashed.push(s);
                }
            }
        } else {
            let replies: Vec<(usize, Result<Reply<()>, WorkerError>)> = shards[1..]
                .iter()
                .map(|&s| {
                    let SubState::Prepared(sub) = self.slots[ti].subs[s] else {
                        unreachable!("participants voted above")
                    };
                    let reply = self.workers[s].submit(move |db| {
                        db.set_gc_floor(floor);
                        db.resolve_commit(sub, true, false)
                            .expect("participant sub is prepared")
                    });
                    (s, reply)
                })
                .collect();
            for (s, r) in replies {
                if r.and_then(|rep| rep.wait()).is_err() {
                    crashed.push(s);
                }
            }
        }
        for s in crashed {
            self.supervise_crash(s);
        }
        self.twopc_hist
            .resolve_nanos
            .record(t_resolve.elapsed().as_nanos() as u64);
        Ok(Op::Done(()))
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
        self.global_restart(ti);
        Ok(())
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
        let mut crashed: Vec<usize> = Vec::new();
        let mut replies: Vec<(usize, Reply<()>)> = Vec::new();
        for s in 0..self.workers.len() {
            match self.slots[ti].subs[s] {
                SubState::Running(sub) | SubState::Prepared(sub) => {
                    match self.workers[s]
                        .submit(move |db| db.retire(sub).expect("sub is committed"))
                    {
                        Ok(r) => replies.push((s, r)),
                        Err(WorkerError) => crashed.push(s),
                    }
                }
                SubState::Absent => {}
            }
        }
        self.shard_msgs += replies.len();
        for (s, r) in replies {
            if r.wait().is_err() {
                crashed.push(s);
            }
        }
        for s in crashed {
            self.supervise_crash(s);
        }
        self.retires += 1;
        self.free_slot(ti);
        Ok(())
    }

    // ------------------------------------------------------------ accessors

    /// The concurrency control's name (every shard runs the same one).
    pub fn cc_name(&self) -> &str {
        &self.cc_name
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Number of global variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The shard owning global variable `v`.
    pub fn shard_of(&self, v: VarId) -> usize {
        self.partition.shard_of(v)
    }

    /// Global variable ids owned by shard `s`.
    pub fn shard_vars(&self, s: usize) -> &[VarId] {
        self.partition.shard_vars(s)
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
        self.gather(|db| db.globals())
    }

    /// The committed state only (see [`SessionDb::committed_globals`]),
    /// gathered across the shards.
    pub fn committed_globals(&mut self) -> GlobalState {
        self.gather(|db| db.committed_globals())
    }

    /// Aggregated execution counters: global outcomes (commits, aborts,
    /// waits, retires, restarts, sheds) from the coordinator — a
    /// cross-shard transaction counts once — and store-level counters
    /// summed over the shards (a dead or down shard contributes zeros).
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics {
            commits: self.commits,
            aborts: self.aborts,
            waits: self.waits,
            retires: self.retires,
            shard_restarts: self.shard_restarts,
            shed_aborts: self.shed_aborts,
            shard_msgs: self.shard_msgs,
            batched_ops: self.batched_ops,
            ..Metrics::default()
        };
        // Abort attribution: shard-level rows carry the concurrency-
        // control causes — every CC-triggered global restart stems from
        // one shard's in-place abort, which recorded the real rule;
        // collateral rollbacks on sibling shards are shard-level `Client`
        // rows and are excluded. The coordinator adds its own causes
        // (backpressure sheds, crash failovers), and whatever remains of
        // the global abort count — explicit client aborts, driver restart
        // valves — reports as `Client`, so the rows sum to `aborts`
        // (best-effort: a 2PC round where several shards restart at once
        // attributes each shard's cause, and a failover counts before its
        // handle is aborted, both absorbed by the saturating remainder).
        let client = ConflictRule::Client.index();
        for w in &self.workers {
            let sm = w.call(|db| db.metrics).unwrap_or_default();
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
        m.aborts_by_rule[ConflictRule::Shed.index()] += self.shed_aborts;
        m.aborts_by_rule[ConflictRule::ShardFailover.index()] += self.failover_fails;
        let attributed: usize = m.aborts_by_rule.iter().sum();
        m.aborts_by_rule[client] = m.aborts.saturating_sub(attributed);
        m
    }

    /// Cross-shard transactions committed through the two-phase protocol.
    pub fn cross_shard_commits(&self) -> usize {
        self.cross_commits
    }

    /// Dense-table capacity across all shards: slots ever allocated,
    /// summed (monotone — never shrinks — so the final value is the
    /// peak). The recycling claim is that it stays a small multiple of
    /// `terminals * shards` no matter the stream length.
    pub fn num_slots(&self) -> usize {
        self.workers
            .iter()
            .map(|w| w.call(|db| db.num_slots()).unwrap_or(0))
            .sum()
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
        Some(
            self.workers
                .iter()
                .map(|w| w.call(|db| db.live_versions().unwrap_or(0)).unwrap_or(0))
                .sum(),
        )
    }

    /// Lifecycle state of a handle. A failed transaction (its shard
    /// crashed) still reports `Running`: it is unfinished — every
    /// operation returns [`SessionError::ShardDown`] and only
    /// [`abort`](Self::abort) retires it (see
    /// [`is_failed`](Self::is_failed)).
    pub fn status(&self, h: GlobalTxn) -> SessionStatus {
        match self.slot_of(h) {
            Err(_) => SessionStatus::Retired,
            Ok(ti) => match self.slots[ti].status {
                GStatus::Running | GStatus::Failed => SessionStatus::Running,
                GStatus::Committed => SessionStatus::Committed,
                GStatus::Free => unreachable!("stale handles were rejected"),
            },
        }
    }

    /// Whether the transaction was failed by the supervisor (a shard it
    /// had in-flight state on crashed): abort the handle and re-run.
    pub fn is_failed(&self, h: GlobalTxn) -> bool {
        matches!(
            self.slot_of(h),
            Ok(ti) if self.slots[ti].status == GStatus::Failed
        )
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

    /// Wait outcomes of the global transaction across its lifetime.
    pub fn waits(&self, h: GlobalTxn) -> Result<u32, SessionError> {
        Ok(self.slots[self.slot_of(h)?].waits)
    }

    /// What recovering the shard logs found, when this database was
    /// [`open`](Self::open)ed over existing logs.
    pub fn recovery_info(&self) -> Option<ShardedRecoveryInfo> {
        self.recovery
    }

    // ------------------------------------------------------------ durability

    /// Flush and fsync every shard's buffered log records (graceful
    /// shutdown; also makes every participant resolve record durable).
    pub fn sync(&mut self) -> Result<(), WalError> {
        for s in 0..self.workers.len() {
            if self.down[s] {
                continue;
            }
            match self.workers[s].call(|db| db.sync()) {
                Ok(r) => r?,
                // A shard that died before (or while) syncing is
                // restarted from its durable prefix; nothing buffered
                // survives to sync.
                Err(WorkerError) => self.supervise_crash(s),
            }
        }
        Ok(())
    }

    /// Checkpoint every shard: first [`sync`](Self::sync) all shards —
    /// once every buffered participant resolve is durable, no shard will
    /// ever again consult another's decisions for the records a
    /// checkpoint discards (the **resolution stability rule**,
    /// `docs/SHARDING.md`) — then compact each shard's log.
    pub fn checkpoint(&mut self) -> Result<(), WalError> {
        self.sync()?;
        let mut all = true;
        for s in 0..self.workers.len() {
            if self.down[s] {
                all = false;
                continue;
            }
            match self.workers[s].call(|db| db.checkpoint()) {
                // A failed checkpoint (e.g. an injected ENOSPC) leaves
                // that shard's prior log fully intact; surface it.
                Ok(r) => r?,
                Err(WorkerError) => {
                    self.supervise_crash(s);
                    all = false;
                }
            }
        }
        if all {
            // Resolution stability: every resolve is durable everywhere
            // and every log is compacted past it — no later recovery can
            // consult a decision about the discarded records, so the
            // in-process table can shrink too.
            self.decided.clear();
        }
        Ok(())
    }

    /// Crash injection (tests): allow `n` durable two-phase-commit
    /// actions **from this call on** — each participant's prepare fsync
    /// and each coordinator resolve fsync counts one — then kill
    /// **every** shard log at that boundary, as a coordinator process
    /// crash would. Votes also run sequentially (in shard order) once
    /// armed, so the boundaries are deterministic.
    pub fn crash_after_2pc_actions(&mut self, n: u64) {
        self.crash_budget = Some(n);
        self.twopc_actions = 0;
    }

    /// Crash injection (tests): kill every shard log *now* (buffered
    /// records, including participant resolves, are lost).
    pub fn crash_now(&mut self) {
        self.kill_wals();
    }

    // ------------------------------------------------------------ internals

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

    /// Abort every sub-transaction (revoking prepared votes) and begin a
    /// fresh attempt under a new global timestamp.
    fn global_restart(&mut self, ti: usize) {
        self.next_gts += 1;
        let gts = self.next_gts;
        self.global_restart_keeping(ti, None, gts);
    }

    /// Restart the global transaction at timestamp `gts`: roll back every
    /// sub-transaction *except* `keep` — a shard whose concurrency
    /// control already restarted its sub in place (the fresh attempt,
    /// stamped `gts`, carries over as the first touched shard of the new
    /// global attempt).
    fn global_restart_keeping(&mut self, ti: usize, keep: Option<usize>, gts: u64) {
        self.rollback_subs(ti, keep);
        self.aborts += 1;
        let sl = &mut self.slots[ti];
        sl.gts = gts;
        sl.attempts += 1;
    }

    /// Roll back every sub-transaction of slot `ti` on its shard, except
    /// the shard `keep` (which stays touched and running). Rollbacks fan
    /// out to the shard threads and are collected before returning.
    fn rollback_subs(&mut self, ti: usize, keep: Option<usize>) {
        let mut crashed: Vec<usize> = Vec::new();
        let mut replies: Vec<(usize, Reply<()>)> = Vec::new();
        for s in 0..self.workers.len() {
            if Some(s) == keep {
                debug_assert!(matches!(self.slots[ti].subs[s], SubState::Running(_)));
                continue;
            }
            let submitted = match self.slots[ti].subs[s] {
                SubState::Running(sub) => {
                    Some(self.workers[s].submit(move |db| db.abort(sub).expect("sub is live")))
                }
                SubState::Prepared(sub) => Some(self.workers[s].submit(move |db| {
                    db.resolve_commit(sub, false, false)
                        .expect("sub is prepared")
                })),
                SubState::Absent => None,
            };
            match submitted {
                Some(Ok(r)) => replies.push((s, r)),
                // A dead shard's sub died with it (nothing to roll back
                // there); the shard itself is supervised below.
                Some(Err(WorkerError)) => crashed.push(s),
                None => {}
            }
            self.slots[ti].subs[s] = SubState::Absent;
        }
        for (s, r) in replies {
            if r.wait().is_err() {
                crashed.push(s);
            }
        }
        let sl = &mut self.slots[ti];
        sl.touched.clear();
        if let Some(s) = keep {
            sl.touched.push(s as u32);
        }
        for s in crashed {
            self.supervise_crash(s);
        }
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
    /// order. A crashed shard is supervised (restarted from its log)
    /// first; a permanently down shard reads as its initial projection —
    /// the degraded-mode answer for unavailable data.
    fn gather(&mut self, f: fn(&SessionDb) -> GlobalState) -> GlobalState {
        let mut out = vec![Value::Int(0); self.num_vars];
        for s in 0..self.workers.len() {
            let local = self.shard_state(s, f);
            for (i, &v) in self.partition.shard_vars(s).iter().enumerate() {
                out[v.index()] = local.0[i];
            }
        }
        GlobalState(out)
    }

    /// One shard's state projection, surviving a crashed worker: one
    /// supervised restart, then the initial projection if the shard is
    /// (or went) permanently down.
    fn shard_state(&mut self, s: usize, f: fn(&SessionDb) -> GlobalState) -> GlobalState {
        if !self.down[s] {
            if let Ok(local) = self.workers[s].call(move |db| f(db)) {
                return local;
            }
            self.supervise_crash(s);
            if !self.down[s] {
                if let Ok(local) = self.workers[s].call(move |db| f(db)) {
                    return local;
                }
            }
        }
        self.partition.project(&self.init, s)
    }

    /// Count one durable 2PC action against the crash budget, killing
    /// every shard log exactly at the boundary.
    fn before_2pc_action(&mut self) {
        if let Some(budget) = self.crash_budget {
            if !self.dead && self.twopc_actions >= budget {
                self.kill_wals();
            }
        }
        self.twopc_actions += 1;
    }

    fn kill_wals(&mut self) {
        self.dead = true;
        for w in &self.workers {
            let _ = w.call(|db| db.wal_crash_after_records(0));
        }
    }

    // --------------------------------------------------------- fault domains

    /// Whether shard `s` is permanently down: its storage could not be
    /// recovered after a crash, and every operation routed there returns
    /// [`SessionError::ShardDown`] while the other shards keep serving.
    pub fn shard_is_down(&self, s: usize) -> bool {
        self.down[s]
    }

    /// Crashed shard workers detected and restarted (or marked down) by
    /// the supervisor so far.
    pub fn shard_restarts(&self) -> usize {
        self.shard_restarts
    }

    /// Transactions shed because a shard's bounded mailbox was full.
    pub fn shed_aborts(&self) -> usize {
        self.shed_aborts
    }

    /// Wall-clock duration of the most recent supervised shard restart
    /// (log recovery included), when one has happened: the last sample
    /// fed into [`recovery_histograms`](Self::recovery_histograms). For
    /// a reproducible measure of the same restart, use
    /// [`last_recovery_replayed`](Self::last_recovery_replayed).
    pub fn last_recovery_time(&self) -> Option<Duration> {
        self.last_recovery
    }

    /// Committed sub-transactions replayed by the most recent supervised
    /// shard restart — the deterministic companion of
    /// [`last_recovery_time`](Self::last_recovery_time): a function of
    /// the log contents alone, so identical runs report it identically.
    pub fn last_recovery_replayed(&self) -> Option<u64> {
        self.last_recovery_replayed
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
        for s in 0..self.workers.len() {
            if self.down[s] {
                continue;
            }
            let tracer = hub.tracer(s as u32);
            let _ = self.workers[s].call(move |db| db.set_tracer(tracer));
        }
        self.coord_tracer = hub.tracer(self.workers.len() as u32);
        self.trace_hub = Some(hub);
        Ok(())
    }

    /// The shared tracing state, when [`set_trace`](Self::set_trace) was
    /// called: rings for flight-recorder dumps, merged-event snapshots,
    /// and the sink.
    pub fn trace_hub(&self) -> Option<&Arc<TraceHub>> {
        self.trace_hub.as_ref()
    }

    /// Flush the JSONL trace sink (no-op when tracing is off or
    /// sink-less). Call before reading the sink file.
    pub fn flush_trace(&self) {
        if let Some(hub) = &self.trace_hub {
            hub.flush();
        }
    }

    /// Two-phase-commit phase timings and fan-out widths (always on).
    pub fn twopc_histograms(&self) -> &TwoPcHistograms {
        &self.twopc_hist
    }

    /// Supervised-restart cost distributions (always on): one sample per
    /// restart the fault supervisor handled.
    pub fn recovery_histograms(&self) -> &RecoveryHistograms {
        &self.recovery_hist
    }

    /// Commit latency in engine ticks, merged over the shards (see
    /// [`SessionDb::commit_latency_ticks`]); tick-based, so deterministic
    /// runs reproduce it bit-for-bit. A dead or down shard contributes
    /// nothing.
    pub fn commit_latency_ticks(&self) -> Histogram {
        let mut h = Histogram::new();
        for w in &self.workers {
            if let Ok(sh) = w.call(|db| db.commit_latency_ticks().clone()) {
                h.merge(&sh);
            }
        }
        h
    }

    /// The write-ahead logs' append/fsync/group-flush distributions,
    /// merged over the shards; `None` without durability.
    pub fn wal_histograms(&self) -> Option<WalHistograms> {
        self.durable.as_ref()?;
        let mut out = WalHistograms::default();
        for w in &self.workers {
            if let Ok(Some(sh)) = w.call(|db| db.wal_histograms().cloned()) {
                out.append_nanos.merge(&sh.append_nanos);
                out.fsync_nanos.merge(&sh.fsync_nanos);
                out.flush_batch_commits.merge(&sh.flush_batch_commits);
            }
        }
        Some(out)
    }

    /// The `n` most contended **global** variables: every shard's
    /// attribution table ([`SessionDb::top_contended`]) translated back
    /// to global ids and re-ranked (waits plus aborts descending, ties by
    /// variable id — deterministic).
    pub fn top_contended(&self, n: usize) -> Vec<VarContention> {
        let mut rows: Vec<VarContention> = Vec::new();
        for (s, w) in self.workers.iter().enumerate() {
            // Each shard owns disjoint variables, so rows never merge;
            // asking each shard for its own top-n keeps the union a
            // superset of the global top-n.
            let local = w.call(move |db| db.top_contended(n)).unwrap_or_default();
            rows.extend(local.into_iter().map(|r| VarContention {
                var: self.partition.shard_vars(s)[r.var.index()],
                ..r
            }));
        }
        rows.sort_by_key(|r| (std::cmp::Reverse(r.total()), r.var.0));
        rows.truncate(n);
        rows
    }

    /// Bound every shard's mailbox at `cap` data-plane jobs: an operation
    /// arriving at a full shard is shed — the transaction restarts,
    /// [`shed_aborts`](Self::shed_aborts) counts it — instead of queueing
    /// unboundedly. Applies to restarted workers too.
    pub fn set_queue_capacity(&mut self, cap: usize) {
        self.queue_capacity = Some(cap);
        for w in &self.workers {
            w.set_capacity(cap);
        }
    }

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
    /// counts. Atomic reads only — no worker round-trips — so this is
    /// safe to call from a health probe at any rate.
    pub fn shard_statuses(&self) -> Vec<ShardStatus> {
        (0..self.workers.len())
            .map(|s| ShardStatus {
                alive: self.workers[s].is_alive(),
                down: self.down[s],
                restarts: self.restarts_by_shard[s] as u64,
            })
            .collect()
    }

    /// Fault injection (tests): kill shard `s`'s worker now, exactly as a
    /// shard-local bug would — the bomb job panics on the worker thread,
    /// which drops the shard state mid-flight (its log closes without a
    /// final flush: crash semantics). Returns once the worker is dead;
    /// supervision happens at the next touch, or via
    /// [`check_shards`](Self::check_shards).
    pub fn panic_shard(&mut self, s: usize) {
        let _ = self.workers[s].call(|_db: &mut SessionDb| panic!("injected shard-worker panic"));
        while self.workers[s].is_alive() {
            std::thread::yield_now();
        }
    }

    /// Fault injection (tests): let `n` two-phase-commit jobs (votes,
    /// coordinator resolve, participant resolves — in protocol order) run
    /// **from this call on**, then replace the next one with a panic on
    /// its worker. 2PC fan-out runs sequentially once armed, so boundary
    /// `n` is deterministic.
    pub fn panic_after_2pc_jobs(&mut self, n: u64) {
        self.panic_at_2pc_job = Some(n);
        self.twopc_jobs = 0;
    }

    /// Install a storage-fault script on shard `s`'s write-ahead log
    /// (no-op without durability); see [`StorageFaults`].
    pub fn set_shard_faults(&mut self, s: usize, faults: StorageFaults) {
        let _ = self.workers[s].call(move |db| db.wal_set_faults(faults));
    }

    /// Set the transient-I/O retry policy on every shard's log (no-op
    /// without durability).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        for w in &self.workers {
            let _ = w.call(move |db| db.wal_set_retry(retry));
        }
    }

    /// Test hook: block shard `s`'s worker on a gate until the returned
    /// sender transmits (or drops), so submissions pile up and the
    /// bounded-mailbox shed path can be exercised deterministically.
    pub fn stall_shard(&mut self, s: usize) -> std::sync::mpsc::Sender<()> {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let _ = self.workers[s].submit(move |_db| {
            let _ = rx.recv();
        });
        tx
    }

    /// Run one 2PC protocol job on shard `s`, injecting the scripted
    /// panic when armed ([`panic_after_2pc_jobs`](Self::panic_after_2pc_jobs)).
    fn twopc_call<R: Send + 'static>(
        &mut self,
        s: usize,
        f: impl FnOnce(&mut SessionDb) -> R + Send + 'static,
    ) -> Result<R, WorkerError> {
        if let Some(n) = self.panic_at_2pc_job {
            let j = self.twopc_jobs;
            self.twopc_jobs += 1;
            if j == n {
                // The worker dies AT this protocol boundary, before
                // performing the action — the sharpest version of a
                // shard failing mid-protocol.
                let _ = self.workers[s].call(|_db: &mut SessionDb| {
                    panic!("injected shard-worker panic at a 2PC boundary")
                });
                while self.workers[s].is_alive() {
                    std::thread::yield_now();
                }
                return Err(WorkerError);
            }
        }
        self.workers[s].call(f)
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
        let t0 = Instant::now();
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
        let elapsed = t0.elapsed();
        self.recovery_hist.nanos.record(elapsed.as_nanos() as u64);
        self.recovery_hist.replayed_commits.record(replayed);
        self.last_recovery = Some(elapsed);
        self.last_recovery_replayed = Some(replayed);
    }

    /// Tear down a crashed shard worker and start a replacement in place:
    /// over its recovered write-ahead log when durable (in-doubt prepares
    /// settle against the in-process decision table), over the initial
    /// projection otherwise — volatile shards have nothing to recover, a
    /// documented data loss. Unrecoverable storage marks the shard
    /// permanently down instead; the other shards keep serving either
    /// way. Returns the deterministic size of the recovery: committed
    /// sub-transactions replayed from the recovered log (0 when volatile
    /// or down).
    fn respawn_shard(&mut self, s: usize) -> u64 {
        // Join the dead worker first so its SessionDb — and the log file
        // handle it owns — is fully dropped before recovery reopens the
        // file.
        self.workers[s].shutdown();
        let durable = self.durable.clone();
        let proj = self.partition.project(&self.init, s);
        let mut db = if let Some((dir, mode)) = durable {
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
            let mut cc = (self.make_cc)();
            if self.workers.len() > 1 {
                cc.enable_commit_order();
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
            let mut cc = (self.make_cc)();
            if self.workers.len() > 1 {
                cc.enable_commit_order();
            }
            SessionDb::with_capacity(cc, proj, self.expected_txns)
        };
        let replayed = db.recovery_info().map_or(0, |ri| ri.committed);
        if let Some(hub) = &self.trace_hub {
            db.set_tracer(hub.tracer(s as u32));
        }
        let w = Worker::spawn(db);
        if let Some(cap) = self.queue_capacity {
            w.set_capacity(cap);
        }
        self.workers[s] = w;
        replayed
    }

    /// The crashed shard held state of a transaction whose commit point
    /// already survived (the coordinator's durable resolve): finish phase
    /// 2 on the surviving shards and record the committed outcome.
    fn finish_decided_commit(&mut self, ti: usize, crashed: usize) {
        let floor = self.min_active_gts(ti);
        let mut replies = Vec::new();
        for s in 0..self.workers.len() {
            if s == crashed {
                self.slots[ti].subs[s] = SubState::Absent;
                continue;
            }
            if let SubState::Prepared(sub) = self.slots[ti].subs[s] {
                if let Ok(r) = self.workers[s].submit(move |db| {
                    db.set_gc_floor(floor);
                    db.resolve_commit(sub, true, false)
                        .expect("participant sub is prepared")
                }) {
                    replies.push(r);
                }
            }
        }
        for r in replies {
            let _ = r.wait();
        }
        self.slots[ti].status = GStatus::Committed;
        self.commits += 1;
        self.cross_commits += 1;
    }

    /// Fail a running global transaction whose state on the crashed shard
    /// is gone: record the abort decision (an in-doubt prepare surfacing
    /// in any later recovery must settle the same way), roll back its
    /// sub-transactions on the surviving shards, and park the slot as
    /// [`GStatus::Failed`] — the client sees [`SessionError::ShardDown`]
    /// and aborts the handle.
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
        let mut replies = Vec::new();
        for s in 0..self.workers.len() {
            if s != crashed {
                // Defensive rollback: mid-crash, the shard's view of the
                // sub may legitimately differ from the coordinator's, so
                // the job re-checks instead of asserting.
                match self.slots[ti].subs[s] {
                    SubState::Running(sub) | SubState::Prepared(sub) => {
                        if let Ok(r) = self.workers[s].submit(move |db| match db.status(sub) {
                            SessionStatus::Running => {
                                let _ = db.abort(sub);
                            }
                            SessionStatus::Prepared => {
                                let _ = db.resolve_commit(sub, false, false);
                            }
                            _ => {}
                        }) {
                            replies.push(r);
                        }
                    }
                    SubState::Absent => {}
                }
            }
            self.slots[ti].subs[s] = SubState::Absent;
        }
        for r in replies {
            let _ = r.wait();
        }
        let sl = &mut self.slots[ti];
        sl.touched.clear();
        sl.status = GStatus::Failed;
    }
}

/// One shard's liveness, as the supervisor sees it without touching the
/// worker ([`ShardedDb::shard_statuses`]): atomic flag reads only, so a
/// health probe costs the data plane nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardStatus {
    /// The worker thread is running (its panic flag is clear). A crashed
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

/// One operation of a grouped submission ([`ShardedDb::submit_group`]).
///
/// This is the closed set of step shapes the wire protocol can express:
/// unlike [`ShardedDb::update`]'s arbitrary closure, an affine update is
/// plain data, so a whole run of operations moves to a shard worker in
/// one mailbox message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOp {
    /// Observe a variable.
    Read(VarId),
    /// Blind-write a value (the observed old value rides along).
    Write(VarId, Value),
    /// Read-modify-write `v ← a·v + c` ([`affine_eval`]).
    Affine {
        /// The updated variable.
        var: VarId,
        /// Multiplier.
        a: i64,
        /// Offset.
        c: i64,
    },
}

impl BatchOp {
    /// The variable the operation touches (what routes it to a shard).
    pub fn var(&self) -> VarId {
        match *self {
            BatchOp::Read(v) | BatchOp::Write(v, _) => v,
            BatchOp::Affine { var, .. } => var,
        }
    }
}

/// One transaction's contribution to a [`ShardedDb::submit_group`] call:
/// a run of operations (possibly empty) and, optionally, the
/// transaction's commit piggybacked on the same shard message.
#[derive(Clone, Debug)]
pub struct GroupReq {
    /// The transaction the run belongs to.
    pub h: GlobalTxn,
    /// The operations, in program order (may be empty for a commit-only
    /// request).
    pub ops: Vec<BatchOp>,
    /// Attempt to commit (and retire) after the run; honored only when
    /// every operation completes [`Op::Done`].
    pub commit: bool,
}

/// What one [`GroupReq`] came to.
#[derive(Clone, Debug)]
pub struct GroupResp {
    /// Per-operation outcomes under the partial-batch contract of
    /// [`ShardedDb::submit_group`]: in submission order, stopping at the
    /// first non-[`Op::Done`] outcome.
    pub results: Result<Vec<Op<Value>>, SessionError>,
    /// The commit outcome; `None` when no commit was requested or the
    /// run did not complete. On `Ok(Op::Done(()))` the transaction was
    /// also retired — the handle is dead.
    pub commit: Option<Result<Op<()>, SessionError>>,
}

/// One operation of a [`Job`]'s run.
enum RunOp {
    /// A wire-expressible step (plain data).
    Data(BatchOp),
    /// [`ShardedDb::apply`]'s arbitrary step closure, boxed so it travels
    /// in the same message shape.
    Call(StepKind, Box<dyn FnOnce(Value) -> Value + Send>),
}

/// What a [`Job`] does once its whole run completed [`Op::Done`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Finish {
    /// Nothing: the transaction stays open.
    None,
    /// Attempt the single-shard commit.
    Commit,
    /// Attempt the commit and, when it lands, retire the sub-transaction
    /// in the same message.
    CommitRetire,
}

/// One transaction's work inside one shard message
/// ([`ShardedDb::shard_jobs`]).
struct Job {
    /// The transaction's coordinator slot (echoed in the [`JobOut`]).
    ti: usize,
    /// The open sub-transaction; `None` when the transaction has not
    /// touched this shard yet — the begin (at `gts`) rides this message.
    sub: Option<Txn>,
    gts: u64,
    /// Operations with their shard-local variable ids, in program order.
    run: Vec<(VarId, RunOp)>,
    finish: Finish,
    /// The shard GC floor for the commit (read only when `finish`
    /// commits).
    floor: u64,
}

/// What one [`Job`] came to on its shard.
struct JobOut {
    ti: usize,
    sub: Txn,
    /// Per-operation outcomes, stopping at the first non-`Done`.
    results: Vec<Op<Value>>,
    /// Restart stamp consumed by this job (ops or commit).
    consumed: Option<u64>,
    commit: Option<Op<()>>,
    retired: bool,
}

/// A job's adopted outcome: per-operation results, and the commit's when one
/// was attempted. [`Settled`] is that, or what kept the job from running.
type Adopted = (Vec<Op<Value>>, Option<Op<()>>);
type Settled = Result<Adopted, SessionError>;

/// The affine update function of [`BatchOp::Affine`]: `a·v + c` over
/// wrapping `i64` arithmetic, reading booleans as 0/1 and symbolic terms
/// as 0 (total, so a malformed wire request can never panic a shard).
/// Public so wire clients can predict a served update's result exactly —
/// the served-vs-in-process differential test leans on this.
pub fn affine_eval(a: i64, c: i64, observed: Value) -> Value {
    let v = observed.as_int().unwrap_or(0);
    Value::Int(a.wrapping_mul(v).wrapping_add(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{MvtoCc, OccCc, SerialCc, SgtCc, SiCc, Strict2plCc, TimestampCc};
    use ccopt_durability::Fault;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn int(i: i64) -> Value {
        Value::Int(i)
    }

    fn cc_2pl() -> Box<dyn ConcurrencyControl> {
        Box::new(Strict2plCc::default())
    }

    /// Two global variables guaranteed to live on different shards.
    fn split_pair(db: &ShardedDb) -> (VarId, VarId) {
        let a = v(0);
        let b = (1..db.num_vars() as u32)
            .map(v)
            .find(|&x| db.shard_of(x) != db.shard_of(a))
            .expect("at least two shards own variables");
        (a, b)
    }

    /// Drive one update-commit-retire transaction over `vars`.
    fn bump(db: &mut ShardedDb, vars: &[VarId]) {
        let h = db.begin();
        for &var in vars {
            loop {
                match db.update(h, var, |x| int(x.as_int().unwrap() + 1)).unwrap() {
                    Op::Done(_) => break,
                    Op::Wait | Op::Restarted => {}
                }
            }
        }
        loop {
            match db.commit(h).unwrap() {
                Op::Done(()) => break,
                Op::Wait => {}
                Op::Restarted => {
                    for &var in vars {
                        loop {
                            match db.update(h, var, |x| int(x.as_int().unwrap() + 1)).unwrap() {
                                Op::Done(_) => break,
                                Op::Wait | Op::Restarted => {}
                            }
                        }
                    }
                }
            }
        }
        db.retire(h).unwrap();
    }

    #[test]
    fn partition_covers_every_variable_exactly_once() {
        for shards in [1usize, 2, 3, 8] {
            let p = Partition::new(37, shards);
            let mut seen = [false; 37];
            for s in 0..shards {
                for (i, &gv) in p.shard_vars(s).iter().enumerate() {
                    assert_eq!(p.shard_of(gv), s);
                    assert_eq!(p.local(gv).index(), i);
                    assert!(!seen[gv.index()], "variable owned twice");
                    seen[gv.index()] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "every variable must be owned");
        }
    }

    #[test]
    fn single_and_cross_shard_lifecycle() {
        let mut db = ShardedDb::new(&cc_2pl, GlobalState::from_ints(&[10; 8]), 3);
        let (a, b) = split_pair(&db);
        // Cross-shard read-your-writes and 2PC commit.
        let h = db.begin();
        assert_eq!(
            db.update(h, a, |x| int(x.as_int().unwrap() + 1)).unwrap(),
            Op::Done(int(10))
        );
        assert_eq!(db.write(h, b, int(77)).unwrap(), Op::Done(int(10)));
        assert_eq!(db.read(h, a).unwrap(), Op::Done(int(11)));
        assert_eq!(db.commit(h).unwrap(), Op::Done(()));
        assert_eq!(db.status(h), SessionStatus::Committed);
        db.retire(h).unwrap();
        assert_eq!(db.status(h), SessionStatus::Retired);
        let g = db.globals();
        assert_eq!(g.0[a.index()], int(11));
        assert_eq!(g.0[b.index()], int(77));
        assert_eq!(db.cross_shard_commits(), 1);
        assert!(db.decided.is_empty(), "no logs: no decision is recorded");
        // Single-shard transactions stay on the fast path.
        bump(&mut db, &[a]);
        assert_eq!(db.cross_shard_commits(), 1);
        assert_eq!(db.metrics().commits, 2);
    }

    #[test]
    fn stale_handles_are_rejected() {
        let mut db = ShardedDb::new(&cc_2pl, GlobalState::from_ints(&[0; 4]), 2);
        let h = db.begin();
        let _ = db.write(h, v(0), int(1)).unwrap();
        assert_eq!(db.commit(h).unwrap(), Op::Done(()));
        db.retire(h).unwrap();
        let h2 = db.begin(); // recycles the slot under a new epoch
        assert_ne!(h, h2);
        assert_eq!(db.read(h, v(0)), Err(SessionError::Stale));
        assert_eq!(db.commit(h), Err(SessionError::Stale));
        db.abort(h2).unwrap();
    }

    #[test]
    fn streams_recycle_slots_across_all_shards() {
        let mut db = ShardedDb::new(&cc_2pl, GlobalState::from_ints(&[0; 16]), 4);
        let before = db.metrics().snapshot();
        let (a, b) = split_pair(&db);
        for i in 0..60 {
            if i % 3 == 0 {
                bump(&mut db, &[a, b]); // cross-shard
            } else {
                bump(&mut db, &[v(i % 16)]);
            }
        }
        let d = db.metrics().diff(&before);
        assert_eq!((d.commits, d.retires), (60, 60));
        assert!(
            db.num_slots() <= 2 * db.shards(),
            "sequential streams must recycle shard slots (got {})",
            db.num_slots()
        );
    }

    #[test]
    fn cross_shard_deadlock_is_broken_by_the_restart_valve() {
        // Serial CC: each shard is one token. Two transactions take one
        // token each, then want the other: both Wait forever — no local
        // detector can see the cycle. The valve (client restart) breaks it.
        let mk = || Box::new(SerialCc::default()) as Box<dyn ConcurrencyControl>;
        let mut db = ShardedDb::new(&mk, GlobalState::from_ints(&[0; 8]), 2);
        let (a, b) = split_pair(&db);
        let t1 = db.begin();
        let t2 = db.begin();
        assert_eq!(db.write(t1, a, int(1)).unwrap(), Op::Done(int(0)));
        assert_eq!(db.write(t2, b, int(2)).unwrap(), Op::Done(int(0)));
        assert_eq!(db.write(t1, b, int(3)).unwrap(), Op::Wait);
        assert_eq!(db.write(t2, a, int(4)).unwrap(), Op::Wait);
        // Still deadlocked on retry.
        assert_eq!(db.write(t1, b, int(3)).unwrap(), Op::Wait);
        db.restart(t2).unwrap(); // the valve fires
        assert_eq!(db.attempts(t2), Ok(2));
        // t1 now runs to completion, then t2's replay does.
        assert_eq!(db.write(t1, b, int(3)).unwrap(), Op::Done(int(0)));
        assert_eq!(db.commit(t1).unwrap(), Op::Done(()));
        db.retire(t1).unwrap();
        assert_eq!(db.write(t2, b, int(2)).unwrap(), Op::Done(int(3)));
        assert_eq!(db.write(t2, a, int(4)).unwrap(), Op::Done(int(1)));
        assert_eq!(db.commit(t2).unwrap(), Op::Done(()));
        db.retire(t2).unwrap();
        let g = db.globals();
        assert_eq!((g.0[a.index()], g.0[b.index()]), (int(4), int(2)));
    }

    #[test]
    fn global_timestamps_serialize_timestamp_mechanisms_across_shards() {
        // The T/O write-skew shape that per-shard local clocks would
        // admit: t1 reads a (shard A) and writes b (shard B); t2 reads b
        // and writes a. With one global stamp order, some late access
        // aborts — both can never commit on opposite per-shard orders.
        for mk in [
            (|| Box::new(TimestampCc::default()) as Box<dyn ConcurrencyControl>)
                as fn() -> Box<dyn ConcurrencyControl>,
            || Box::new(MvtoCc::default()),
        ] {
            let mut db = ShardedDb::new(&mk, GlobalState::from_ints(&[0; 8]), 2);
            let (a, b) = split_pair(&db);
            let t1 = db.begin(); // gts 1
            let t2 = db.begin(); // gts 2
            assert_eq!(db.read(t1, a).unwrap(), Op::Done(int(0)));
            assert_eq!(db.read(t2, b).unwrap(), Op::Done(int(0)));
            // t2 (younger) writes a: fine. t1 (older) writing b after
            // t2... wait: t2 read b at stamp 2, t1 writes b at stamp 1 —
            // late, restarts.
            let r2 = db.write(t2, a, int(9)).unwrap();
            assert!(matches!(r2, Op::Done(_) | Op::Wait), "got {r2:?}");
            assert_eq!(db.write(t1, b, int(9)).unwrap(), Op::Restarted);
            db.abort(t1).unwrap();
            db.abort(t2).unwrap();
        }
    }

    #[test]
    fn durable_cross_shard_commits_survive_crashes_at_every_2pc_boundary() {
        // One cross-shard transaction over 2 shards = 3 durable 2PC
        // actions: prepare@A, prepare@B, resolve@coordinator. Kill every
        // shard log before action n for every n; recovery must leave all
        // shards agreeing: committed iff the coordinator's resolve (action
        // 2) became durable. Budget 3 = no crash during 2PC, but the drop
        // without sync still loses the buffered participant resolve — the
        // in-doubt-consultation path that must *commit*.
        for budget in 0..=3u64 {
            let dir = ccopt_durability::scratch_path(&format!("shard-2pc-{budget}"));
            let committed_expected = budget >= 3;
            {
                let mut db = ShardedDb::open(
                    &cc_2pl,
                    GlobalState::from_ints(&[0; 8]),
                    &dir,
                    DurabilityMode::Strict,
                    2,
                    0,
                )
                .unwrap();
                let (a, b) = split_pair(&db);
                db.crash_after_2pc_actions(budget);
                let h = db.begin();
                assert_eq!(db.write(h, a, int(5)).unwrap(), Op::Done(int(0)));
                assert_eq!(db.write(h, b, int(6)).unwrap(), Op::Done(int(0)));
                // In-memory the commit always succeeds; durability of the
                // outcome is what the budget caps.
                assert_eq!(db.commit(h).unwrap(), Op::Done(()));
            } // crash (drop without sync)
            let mut db = ShardedDb::open(
                &cc_2pl,
                GlobalState::from_ints(&[0; 8]),
                &dir,
                DurabilityMode::Strict,
                2,
                0,
            )
            .unwrap();
            let (a, b) = split_pair(&db);
            let info = db.recovery_info().expect("logs were recovered");
            let g = db.globals();
            let pair = (g.0[a.index()], g.0[b.index()]);
            if committed_expected {
                assert_eq!(pair, (int(5), int(6)), "budget {budget}: must commit");
                assert_eq!(
                    info.in_doubt_committed, 1,
                    "budget {budget}: the participant was in doubt and must consult-commit"
                );
            } else {
                assert_eq!(pair, (int(0), int(0)), "budget {budget}: must abort");
                assert_eq!(info.in_doubt_committed, 0, "budget {budget}");
            }
            assert!(
                info.in_doubt_aborted + info.in_doubt_committed <= 2,
                "budget {budget}: at most one in-doubt vote per shard"
            );
            // The settlements were written back: a third open re-asks
            // nothing.
            drop(db);
            let db = ShardedDb::open(
                &cc_2pl,
                GlobalState::from_ints(&[0; 8]),
                &dir,
                DurabilityMode::Strict,
                2,
                0,
            )
            .unwrap();
            let info = db.recovery_info().unwrap();
            assert_eq!(
                (info.in_doubt_committed, info.in_doubt_aborted),
                (0, 0),
                "budget {budget}: settlements must be decided exactly once"
            );
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn durable_sharded_stream_recovers_and_checkpoints() {
        let dir = ccopt_durability::scratch_path("shard-stream");
        {
            let mut db = ShardedDb::open(
                &cc_2pl,
                GlobalState::from_ints(&[0; 12]),
                &dir,
                DurabilityMode::Strict,
                3,
                0,
            )
            .unwrap();
            let (a, b) = split_pair(&db);
            for i in 0..12 {
                if i % 4 == 0 {
                    bump(&mut db, &[a, b]);
                } else {
                    bump(&mut db, &[v(i % 12)]);
                }
            }
            db.checkpoint().unwrap();
            bump(&mut db, &[a, b]); // one cross-shard commit on top
        } // crash
        let mut db = ShardedDb::open(
            &cc_2pl,
            GlobalState::from_ints(&[0; 12]),
            &dir,
            DurabilityMode::Strict,
            3,
            0,
        )
        .unwrap();
        let (a, b) = split_pair(&db);
        let g = db.globals();
        // a and b: 3 cross bumps + their single-shard bumps + 1 post-ckpt.
        let expect = {
            let mut e = vec![0i64; 12];
            for i in 0..12usize {
                if i % 4 == 0 {
                    e[a.index()] += 1;
                    e[b.index()] += 1;
                } else {
                    e[i % 12] += 1;
                }
            }
            e[a.index()] += 1;
            e[b.index()] += 1;
            e
        };
        assert_eq!(g, GlobalState::from_ints(&expect));
        // The stream resumes cleanly on the recovered state.
        bump(&mut db, &[a, b]);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One named mechanism factory of the fault-domain sweep.
    type Mechanism = (&'static str, fn() -> Box<dyn ConcurrencyControl>);

    /// All seven mechanisms, for the fault-domain sweep.
    fn all_mechanisms() -> [Mechanism; 7] {
        [
            ("serial", || Box::new(SerialCc::default())),
            ("2pl", || Box::new(Strict2plCc::default())),
            ("sgt", || Box::new(SgtCc::default())),
            ("to", || Box::new(TimestampCc::default())),
            ("occ", || Box::new(OccCc::default())),
            ("mvto", || Box::new(MvtoCc::default())),
            ("si", || Box::new(SiCc::default())),
        ]
    }

    #[test]
    fn shard_panic_at_every_2pc_boundary_is_supervised() {
        // One cross-shard transaction over 2 shards = 4 protocol jobs:
        // vote@coordinator, vote@participant, resolve@coordinator,
        // resolve@participant. Panic the worker at each boundary (n = 4
        // never fires — the healthy control): the process must survive,
        // the crashed shard must recover to the exact committed prefix,
        // both shards must serve afterwards, and a final reopen must find
        // nothing in doubt. Committed iff the coordinator's resolve fsync
        // (job 2) happened — the commit point.
        for (name, mk) in all_mechanisms() {
            for n in 0..=4u64 {
                let dir = ccopt_durability::scratch_path(&format!("shard-panic-{name}-{n}"));
                let _ = std::fs::remove_dir_all(&dir);
                let mut db = ShardedDb::open(
                    &mk,
                    GlobalState::from_ints(&[0; 8]),
                    &dir,
                    DurabilityMode::Strict,
                    2,
                    0,
                )
                .unwrap();
                let (a, b) = split_pair(&db);
                db.panic_after_2pc_jobs(n);
                let h = db.begin();
                assert_eq!(db.write(h, a, int(5)).unwrap(), Op::Done(int(0)));
                assert_eq!(db.write(h, b, int(6)).unwrap(), Op::Done(int(0)));
                let committed = match db.commit(h) {
                    Ok(Op::Done(())) => {
                        db.retire(h).unwrap();
                        true
                    }
                    Err(SessionError::ShardDown) => {
                        assert!(db.is_failed(h), "{name} n={n}: slot must be parked");
                        db.abort(h).unwrap();
                        false
                    }
                    other => panic!("{name} n={n}: unexpected commit outcome {other:?}"),
                };
                assert_eq!(
                    committed,
                    n >= 3,
                    "{name} n={n}: committed iff the commit point (job 2) was reached"
                );
                assert_eq!(
                    db.shard_restarts(),
                    usize::from(n < 4),
                    "{name} n={n}: one supervised restart per injected panic"
                );
                let mut expect = vec![0i64; 8];
                if committed {
                    expect[a.index()] = 5;
                    expect[b.index()] = 6;
                }
                assert_eq!(
                    db.globals(),
                    GlobalState::from_ints(&expect),
                    "{name} n={n}: exact committed prefix after supervision"
                );
                // Both shards — survivor and restarted — keep serving.
                bump(&mut db, &[a]);
                bump(&mut db, &[b]);
                expect[a.index()] += 1;
                expect[b.index()] += 1;
                assert_eq!(db.globals(), GlobalState::from_ints(&expect));
                db.sync().unwrap();
                drop(db);
                // A clean reopen agrees and has nothing left in doubt:
                // the supervised settlement was made exactly once.
                let mut db = ShardedDb::open(
                    &mk,
                    GlobalState::from_ints(&[0; 8]),
                    &dir,
                    DurabilityMode::Strict,
                    2,
                    0,
                )
                .unwrap();
                let info = db.recovery_info().expect("logs were recovered");
                assert_eq!(
                    (info.in_doubt_committed, info.in_doubt_aborted),
                    (0, 0),
                    "{name} n={n}: supervision settled every prepare"
                );
                assert_eq!(db.globals(), GlobalState::from_ints(&expect));
                drop(db);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn volatile_shard_panic_loses_only_that_shard() {
        let mut db = ShardedDb::new(&cc_2pl, GlobalState::from_ints(&[0; 8]), 2);
        let (a, b) = split_pair(&db);
        bump(&mut db, &[a]);
        bump(&mut db, &[b]);
        let sb = db.shard_of(b);
        // An in-flight transaction holding state on the doomed shard...
        let h = db.begin();
        assert_eq!(db.write(h, b, int(9)).unwrap(), Op::Done(int(1)));
        db.panic_shard(sb);
        // ...is failed by the supervisor at the next touch...
        assert_eq!(db.read(h, b), Err(SessionError::ShardDown));
        assert!(db.is_failed(h));
        assert_eq!(db.read(h, a), Err(SessionError::ShardDown));
        db.abort(h).unwrap();
        assert_eq!(db.shard_restarts(), 1);
        // ...and the shard respawns over its initial projection (without
        // a log, its committed data is lost — the documented volatile
        // degradation) while the other shard keeps everything.
        let g = db.globals();
        assert_eq!((g.0[a.index()], g.0[b.index()]), (int(1), int(0)));
        // Both shards serve again, including cross-shard 2PC.
        bump(&mut db, &[a, b]);
        let g = db.globals();
        assert_eq!((g.0[a.index()], g.0[b.index()]), (int(2), int(1)));
    }

    #[test]
    fn full_shard_mailboxes_shed_load() {
        let mut db = ShardedDb::new(&cc_2pl, GlobalState::from_ints(&[0; 8]), 2);
        let (a, b) = split_pair(&db);
        let sb = db.shard_of(b);
        db.set_queue_capacity(1);
        let gate = db.stall_shard(sb);
        let h = db.begin();
        assert_eq!(db.write(h, a, int(1)).unwrap(), Op::Done(int(0)));
        // The stalled shard's mailbox is at capacity: the operation is
        // shed — the transaction restarts — instead of queueing behind
        // the stall.
        assert_eq!(db.write(h, b, int(2)).unwrap(), Op::Restarted);
        assert_eq!(db.shed_aborts(), 1);
        // Lift the pressure (capacity back up, gate open): the replay
        // goes through once the stalled job drains.
        db.set_queue_capacity(64);
        gate.send(()).unwrap();
        loop {
            match db.write(h, b, int(2)).unwrap() {
                Op::Done(_) => break,
                Op::Wait | Op::Restarted => std::thread::yield_now(),
            }
        }
        assert_eq!(db.write(h, a, int(1)).unwrap(), Op::Done(int(0)));
        assert_eq!(db.commit(h).unwrap(), Op::Done(()));
        db.retire(h).unwrap();
        let m = db.metrics();
        assert_eq!(m.shed_aborts, 1);
        assert_eq!(m.shard_restarts, 0, "shedding is not a crash");
        assert_eq!(
            m.aborts_for(ConflictRule::Shed),
            1,
            "the shed abort is attributed"
        );
    }

    #[test]
    fn unrecoverable_storage_marks_the_shard_down_and_the_rest_serve() {
        let dir = ccopt_durability::scratch_path("shard-perma-down");
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = ShardedDb::open(
            &cc_2pl,
            GlobalState::from_ints(&[0; 8]),
            &dir,
            DurabilityMode::Strict,
            2,
            0,
        )
        .unwrap();
        let (a, b) = split_pair(&db);
        bump(&mut db, &[a]);
        bump(&mut db, &[b]);
        let sb = db.shard_of(b);
        db.panic_shard(sb);
        // Make the shard's log unreadable (a directory where the file
        // was): recovery cannot even open it.
        let p = ShardedDb::shard_path(&dir, sb);
        std::fs::remove_file(&p).unwrap();
        std::fs::create_dir(&p).unwrap();
        assert_eq!(db.check_shards(), 1);
        assert!(db.shard_is_down(sb));
        // Operations routed there fail cleanly; the other shard serves.
        let h = db.begin();
        assert_eq!(db.read(h, b), Err(SessionError::ShardDown));
        db.abort(h).unwrap();
        bump(&mut db, &[a]);
        // Degraded reads: the down shard reports its initial projection.
        let g = db.globals();
        assert_eq!((g.0[a.index()], g.0[b.index()]), (int(2), int(0)));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_shard_io_faults_retry_and_surface_in_metrics() {
        let dir = ccopt_durability::scratch_path("shard-io-retry");
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = ShardedDb::open(
            &cc_2pl,
            GlobalState::from_ints(&[0; 8]),
            &dir,
            DurabilityMode::Strict,
            2,
            0,
        )
        .unwrap();
        let (a, b) = split_pair(&db);
        let sa = db.shard_of(a);
        db.set_retry_policy(RetryPolicy::immediate(4));
        // The second fsync on a's shard (counting from installation)
        // fails transiently twice, then goes through under the retry
        // budget — invisibly to the committing transaction.
        db.set_shard_faults(
            sa,
            StorageFaults::new().fail_sync(1, Fault::Transient { times: 2 }),
        );
        let before = db.metrics().snapshot();
        bump(&mut db, &[a]);
        bump(&mut db, &[a]);
        bump(&mut db, &[b]);
        let d = db.metrics().diff(&before);
        assert_eq!(d.commits, 3);
        assert_eq!(d.io_retries, 2, "both transient failures were retried");
        assert_eq!(d.shard_restarts, 0);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sgt_commit_order_composes_across_shards() {
        // The mixed-transaction counterexample from docs/SHARDING.md: a
        // cross-shard pair with opposite-direction conflicts on two
        // shards cannot both commit under the commit-order gate.
        let mk = || Box::new(SgtCc::default()) as Box<dyn ConcurrencyControl>;
        let mut db = ShardedDb::new(&mk, GlobalState::from_ints(&[0; 8]), 2);
        let (a, b) = split_pair(&db);
        let t1 = db.begin();
        let t2 = db.begin();
        // Shard A: t1 reads a, t2 overwrites it (edge t1 -> t2).
        assert_eq!(db.read(t1, a).unwrap(), Op::Done(int(0)));
        assert_eq!(db.write(t2, a, int(1)).unwrap(), Op::Done(int(0)));
        // Shard B: t2 reads b, t1 overwrites it (edge t2 -> t1).
        assert_eq!(db.read(t2, b).unwrap(), Op::Done(int(0)));
        assert_eq!(db.write(t1, b, int(2)).unwrap(), Op::Done(int(0)));
        // Each commit now waits on its live predecessor on one shard: a
        // cross-shard wait cycle — the valve restarts one and the other
        // completes.
        assert_eq!(db.commit(t1).unwrap(), Op::Wait);
        assert_eq!(db.commit(t2).unwrap(), Op::Wait);
        db.restart(t1).unwrap();
        assert_eq!(db.commit(t2).unwrap(), Op::Done(()));
        db.retire(t2).unwrap();
        // t1's replay commits after t2 — serializable order t1' after t2.
        assert_eq!(db.read(t1, a).unwrap(), Op::Done(int(1)));
        assert_eq!(db.write(t1, b, int(2)).unwrap(), Op::Done(int(0)));
        assert_eq!(db.commit(t1).unwrap(), Op::Done(()));
        db.retire(t1).unwrap();
    }
}
