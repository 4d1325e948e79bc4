//! Open-world simulation: arrival-driven sessions over an unbounded
//! transaction stream.
//!
//! The paper's Section 6 environment — users at terminals executing
//! transactions — in the arrival-driven shape of a serving system: `K`
//! terminals each keep one dynamic session open at a time against a
//! [`SessionDb`], drawing a fresh random
//! transaction program on every arrival, driving it operation by operation
//! (waits poll, concurrency-control aborts restart the attempt in place),
//! and retiring the session after commit so its dense slot recycles into
//! the next arrival. The stream ends after
//! [`total_txns`](OpenSimConfig::total_txns) commits — many times the
//! dense-table capacity, which is exactly the point: slots, CC tables and
//! (on the multi-version path) version chains must stay bounded by the
//! *concurrency level*, never the stream length.
//!
//! Everything is deterministic in the seed: one event queue ordered by
//! `(time, terminal)`, one RNG drawn in event order.
//!
//! With [`check`](OpenSimConfig::check) set, the simulator records the
//! committed history and [`check_serializable`] replays it against a
//! serial order — the conflict-graph topological order for single-version
//! mechanisms (writes of deferred-write mechanisms placed at commit time),
//! the begin-timestamp order for MVTO. Snapshot isolation is exempt by
//! design (it admits write skew); callers skip the check for SI.
//! [`check_strict`] asserts the property durability rests on: every
//! committed history is strict, so redo-only logging suffices.
//!
//! [`simulate_open_durable`] runs the same stream against a
//! [`SessionDb::open`]ed database: commits append to the write-ahead log,
//! fsyncs charge [`sync_time`](OpenSimConfig::sync_time) to the
//! committing terminal (one per commit under `Strict`; one per *batch*
//! under group commit — the group-commit throughput claim), and an
//! optional crash point kills the log at a configurable append/fsync
//! boundary so tests can recover and diff against the in-memory committed
//! prefix ([`OpenSimResult::journal`]).

pub use crate::oracle::{check_serializable, check_strict};
use crate::stats::Summary;
use ccopt_engine::cc::CcKind;
use ccopt_engine::session::{Op, SessionDb, SessionError, Txn, VarContention};
use ccopt_engine::shard::affine_eval;
use ccopt_engine::{ConflictRule, DurabilityMode, Histogram, Metrics, TraceConfig, TraceHub};
use ccopt_model::ids::VarId;
use ccopt_model::state::GlobalState;
use ccopt_model::syntax::StepKind;
use ccopt_model::value::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::PathBuf;

/// Open-world simulation parameters (times in abstract milliseconds).
#[derive(Clone, Copy, Debug)]
pub struct OpenSimConfig {
    /// Concurrent sessions kept alive (terminals).
    pub terminals: usize,
    /// Stream length: the simulation ends after this many commits.
    pub total_txns: usize,
    /// Number of variables in the store.
    pub vars: usize,
    /// Inclusive range of operations per transaction.
    pub steps: (usize, usize),
    /// Fraction of operations that are pure reads.
    pub read_fraction: f64,
    /// Probability that an operation hits the hot variable 0.
    pub hot_fraction: f64,
    /// Cost of one scheduler decision (charged per attempt).
    pub scheduling_time: f64,
    /// Cost of executing one operation.
    pub exec_time: f64,
    /// Mean think time between a terminal's operations (exponential).
    pub think_time: f64,
    /// Poll interval while an operation is blocked.
    pub retry_interval: f64,
    /// Extra delay before a restarted attempt resubmits.
    pub restart_penalty: f64,
    /// Cost of one log fsync, charged to the committing terminal when its
    /// commit flushed the write-ahead log (durable runs only; group
    /// commit amortizes it over the batch).
    pub sync_time: f64,
    /// RNG seed.
    pub seed: u64,
    /// Safety valve: maximum events processed.
    pub max_events: usize,
    /// Record the committed history for [`check_serializable`].
    pub check: bool,
}

impl Default for OpenSimConfig {
    fn default() -> Self {
        OpenSimConfig {
            terminals: 8,
            total_txns: 256,
            vars: 16,
            steps: (2, 5),
            read_fraction: 0.5,
            hot_fraction: 0.2,
            scheduling_time: 0.1,
            exec_time: 1.0,
            think_time: 2.0,
            retry_interval: 0.5,
            restart_penalty: 1.0,
            sync_time: 8.0,
            seed: 42,
            max_events: 4_000_000,
            check: false,
        }
    }
}

/// One operation of a generated transaction program: an access of `var`
/// with an affine step function over the variable's own value.
#[derive(Clone, Copy, Debug)]
pub struct OpSpec {
    /// Variable accessed.
    pub var: VarId,
    /// Declared access kind.
    pub kind: StepKind,
    /// Multiplier of the affine update `v <- a*v + c` ([`affine_eval`]:
    /// wrapping, so chains of any length never overflow and replay
    /// exactly).
    pub a: i64,
    /// Offset; a blind `Write` stores `c` alone.
    pub c: i64,
}

impl OpSpec {
    /// The step function: the value written given the observed one
    /// (writing kinds; a `Read` leaves the variable unchanged).
    pub fn eval(&self, observed: i64) -> i64 {
        match self.kind {
            StepKind::Read => observed,
            StepKind::Write => self.c,
            StepKind::Update => affine_eval(self.a, self.c, Value::Int(observed))
                .as_int()
                .expect("an affine step yields an int"),
        }
    }
}

/// The committed execution record of one transaction: its operations with
/// the global sequence number each executed at, plus the ordering keys the
/// serializability replay needs.
#[derive(Clone, Debug)]
pub struct CommittedTxn {
    /// Executed operations of the committed attempt, in program order,
    /// each with the global sequence number of its execution.
    pub ops: Vec<(u64, OpSpec)>,
    /// Snapshot timestamp at commit (the MVTO serialization key; 0 for
    /// single-version mechanisms).
    pub view: u64,
    /// Global sequence number of the commit itself (deferred writes take
    /// effect here).
    pub commit_seq: u64,
}

/// Aggregated open-world simulation output.
#[derive(Clone, Debug)]
pub struct OpenSimResult {
    /// Concurrency control name.
    pub cc_name: String,
    /// Transactions committed (== the configured stream length unless the
    /// event budget ran out).
    pub committed: usize,
    /// Restarts (CC aborts) over the whole stream.
    pub aborts: usize,
    /// Wait outcomes over the whole stream.
    pub waits: usize,
    /// Sessions retired (slots recycled).
    pub retires: usize,
    /// Multi-version write-validation aborts (subset of `aborts`).
    pub mv_write_aborts: usize,
    /// Simulated clock at the end of the stream.
    pub clock: f64,
    /// Commits per unit of simulated time.
    pub throughput: f64,
    /// Per-transaction response times (arrival to commit).
    pub latency: Summary,
    /// Restarts per commit.
    pub abort_rate: f64,
    /// Dense-table capacity at the end of the run: slots ever allocated,
    /// summed over the shards' current incarnations on sharded runs. A
    /// table never shrinks, so without a supervised shard restart this
    /// is the peak; a restarted shard's count starts again, and then it
    /// is not. The recycling claim is `peak_slots << committed`.
    pub peak_slots: usize,
    /// Most sessions simultaneously open (running or commit-pending).
    pub peak_open_sessions: usize,
    /// Most live versions observed in the multi-version store (0 for
    /// single-version mechanisms); boundedness is the GC claim.
    pub peak_live_versions: usize,
    /// Versions reclaimed by the GC watermark over the stream.
    pub versions_reclaimed: usize,
    /// Committed state of the store after the wind-down (in-flight
    /// sessions aborted).
    pub final_state: GlobalState,
    /// Committed history, recorded when [`OpenSimConfig::check`] was set.
    pub history: Vec<CommittedTxn>,
    /// Whether the store is multi-version (routes the checker).
    pub multiversion: bool,
    /// Whether writes were deferred to commit (places write conflicts).
    pub defers_writes: bool,
    /// Write-ahead-log records appended (durable runs only).
    pub wal_records: usize,
    /// Write-ahead-log fsyncs issued (durable runs only; under group
    /// commit, far fewer than commits).
    pub wal_syncs: usize,
    /// Committed-prefix journal, recorded on durable runs with
    /// [`check`](OpenSimConfig::check): `journal[k]` is the committed
    /// state after exactly `k` commits — what a crash recovered at the
    /// `k`-commit boundary must rebuild.
    pub journal: Vec<GlobalState>,
    /// Crashed shard workers supervised and restarted in place (0
    /// outside sharded fault runs).
    pub shard_restarts: usize,
    /// Write-ahead-log I/O attempts retried after a transient storage
    /// fault (0 unless storage faults were injected).
    pub io_retries: usize,
    /// Committed (sub-)transactions replayed by the most recent recovery
    /// — the deterministic recovery size: startup log recovery on durable
    /// open-world runs, the last supervised shard restart on sharded
    /// fault runs (0 when nothing was recovered).
    pub recovery_replayed: u64,
    /// Commit latency p50 in engine ticks, from the always-on
    /// fixed-bucket histogram — tick-based, so deterministic runs
    /// reproduce it bit-for-bit (unlike the wall-ish `latency` summary).
    pub commit_lat_ticks_p50: u64,
    /// Commit latency p99 in engine ticks.
    pub commit_lat_ticks_p99: u64,
    /// The most contended variables, `(variable id, waits, aborts)`,
    /// ranked by waits plus aborts descending (at most
    /// [`TOP_CONTENDED`] rows; empty under no contention).
    pub top_contended: Vec<(u32, usize, usize)>,
    /// Abort attribution over the stream: `(conflict rule name, count)`
    /// for every rule with a non-zero count, in rule order.
    pub aborts_by_rule: Vec<(&'static str, usize)>,
}

/// Contention-table depth reported in [`OpenSimResult::top_contended`].
pub const TOP_CONTENDED: usize = 4;

/// Name the non-zero rows of an abort-attribution table — `(rule name,
/// count)`, in rule order — for reports.
pub fn named_abort_rules(table: &[usize; ConflictRule::COUNT]) -> Vec<(&'static str, usize)> {
    ConflictRule::ALL
        .iter()
        .zip(table)
        .filter(|(_, &n)| n > 0)
        .map(|(r, &n)| (r.name(), n))
        .collect()
}

/// Durability parameters of [`simulate_open_durable`].
#[derive(Clone, Debug)]
pub struct DurableConfig {
    /// Write-ahead-log path (created or recovered by [`SessionDb::open`]).
    pub path: PathBuf,
    /// Flush policy.
    pub mode: DurabilityMode,
    /// Crash injection: kill the log at this append boundary (records).
    pub crash_after_records: Option<u64>,
    /// Crash injection: kill the log at this fsync boundary.
    pub crash_after_syncs: Option<u64>,
    /// Record the committed-prefix [`journal`](OpenSimResult::journal)
    /// (one committed-state snapshot per commit). The crash-recovery
    /// differential tests need it; benchmarks leave it off so durable
    /// cells pay no per-commit snapshot cost the `none` baseline skips.
    pub record_journal: bool,
}

impl DurableConfig {
    /// A durable run at `path` under `mode`, with no crash injected and
    /// no journal recording (the benchmark shape).
    pub fn new(path: PathBuf, mode: DurabilityMode) -> Self {
        DurableConfig {
            path,
            mode,
            crash_after_records: None,
            crash_after_syncs: None,
            record_journal: false,
        }
    }

    /// Like [`new`](Self::new) but recording the committed-prefix
    /// journal (the crash-differential test shape).
    pub fn recording(path: PathBuf, mode: DurabilityMode) -> Self {
        DurableConfig {
            record_journal: true,
            ..Self::new(path, mode)
        }
    }
}

/// One terminal's next wake-up, ordered by `(time, terminal)` so the
/// event queue is deterministic in the seed.
#[derive(PartialEq)]
struct Event {
    time: f64,
    terminal: usize,
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("event times are finite")
            .then(self.terminal.cmp(&other.terminal))
    }
}

/// Exponential sample with the given mean (think times).
fn exp_sample(rng: &mut SmallRng, mean: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen_range(1e-12..1.0);
    -mean * u.ln()
}

/// One terminal of the open-world machine.
struct Terminal<H> {
    handle: Option<H>,
    prog: Vec<OpSpec>,
    next_op: usize,
    started_at: f64,
    /// Ops executed by the current attempt (cleared on restart).
    ops: Vec<(u64, OpSpec)>,
    /// Consecutive `Wait` answers of the current attempt (valve input).
    consec_waits: u32,
}

/// Jittered poll delay: lockstep polling livelocks under contention
/// (every waiter retries on the same cadence), so each retry draws from
/// `[0.5, 1.5) * retry_interval`.
fn retry_delay(rng: &mut SmallRng, cfg: &OpenSimConfig) -> f64 {
    cfg.retry_interval * rng.gen_range(0.5..1.5)
}

/// Jittered, attempt-scaled restart backoff. Timestamp ordering (and OCC
/// under a hotspot) can restart-storm forever when every victim resubmits
/// after the same constant penalty: each restart stamps the hot variables
/// younger and kills the next elder, in lockstep. Exponentialish backoff
/// with seeded jitter breaks the symmetry deterministically.
fn restart_delay(rng: &mut SmallRng, cfg: &OpenSimConfig, attempts: u32) -> f64 {
    let scale = (attempts.min(6) as f64).max(1.0);
    cfg.restart_penalty * scale * rng.gen_range(0.5..1.5)
}

/// Draw one transaction program.
pub(crate) fn gen_program(rng: &mut SmallRng, cfg: &OpenSimConfig) -> Vec<OpSpec> {
    let n = rng.gen_range(cfg.steps.0..=cfg.steps.1.max(cfg.steps.0));
    (0..n)
        .map(|_| {
            let var = if cfg.vars > 1 && rng.gen_range(0.0..1.0) < cfg.hot_fraction {
                0
            } else {
                rng.gen_range(0..cfg.vars)
            };
            gen_op(rng, cfg, VarId(var as u32))
        })
        .collect()
}

/// Draw one operation's kind and step function over the chosen `var`.
pub(crate) fn gen_op(rng: &mut SmallRng, cfg: &OpenSimConfig, var: VarId) -> OpSpec {
    let r: f64 = rng.gen_range(0.0..1.0);
    // Non-read ops are mostly read-modify-writes; a quarter are blind
    // writes (the paper's `Write` shape).
    let kind = if r < cfg.read_fraction {
        StepKind::Read
    } else if r < cfg.read_fraction + (1.0 - cfg.read_fraction) * 0.25 {
        StepKind::Write
    } else {
        StepKind::Update
    };
    let a = [1i64, 1, 2, -1][rng.gen_range(0..4usize)];
    let c = rng.gen_range(-2i64..=2);
    OpSpec { var, kind, a, c }
}

/// Submit one operation through the session API (also used by the
/// slot-recycling differential test, so the op semantics exist in exactly
/// one place).
pub fn submit_op(db: &mut SessionDb, h: Txn, op: OpSpec) -> Op<Value> {
    let r = match op.kind {
        StepKind::Read => db.read(h, op.var),
        StepKind::Write => db.write(h, op.var, Value::Int(op.eval(0))),
        StepKind::Update => db.update(h, op.var, |v| {
            Value::Int(op.eval(v.as_int().expect("open-world stores hold ints")))
        }),
    };
    r.expect("open-sim handles are live")
}

/// Run the open-world simulation for one mechanism (no durability).
pub fn simulate_open(kind: CcKind, cfg: &OpenSimConfig) -> OpenSimResult {
    simulate_open_impl(kind, cfg, None, None)
}

/// Run the open-world simulation with the trace plane on: lifecycle
/// events stream to the configured JSONL sink (flushed before returning)
/// and/or the flight-recorder ring. The traced run makes exactly the
/// same engine decisions as the untraced one — tracing observes, never
/// steers — which the tracing-off differential test pins the other way
/// around.
///
/// # Panics
/// Panics when the sink cannot be created (harness convention).
pub fn simulate_open_traced(
    kind: CcKind,
    cfg: &OpenSimConfig,
    dur: Option<&DurableConfig>,
    trace: &TraceConfig,
) -> OpenSimResult {
    simulate_open_impl(kind, cfg, dur, Some(trace))
}

/// Run the open-world simulation against a durable [`SessionDb::open`]:
/// an existing log at the path is recovered first (the stream resumes on
/// the recovered state), commits append to the log, and fsyncs charge
/// [`sync_time`](OpenSimConfig::sync_time) to the committing terminal.
/// The simulation ends like a crash — nothing is flushed on exit — so
/// under group commit the acknowledged tail inside the loss window is
/// intentionally not durable.
///
/// # Panics
/// Panics when the log cannot be opened or recovered (simulation harness
/// convention: configuration errors are bugs in the experiment).
pub fn simulate_open_durable(
    kind: CcKind,
    cfg: &OpenSimConfig,
    dur: &DurableConfig,
) -> OpenSimResult {
    simulate_open_impl(kind, cfg, Some(dur), None)
}

fn simulate_open_impl(
    kind: CcKind,
    cfg: &OpenSimConfig,
    dur: Option<&DurableConfig>,
    trace: Option<&TraceConfig>,
) -> OpenSimResult {
    let init = GlobalState::from_ints(&vec![0; cfg.vars]);
    let mut db = match dur {
        None => SessionDb::with_capacity(kind.build(), init, cfg.terminals),
        Some(d) => {
            SessionDb::open_with_capacity(kind.build(), init, &d.path, d.mode, cfg.terminals)
                .expect("open the durable session database")
        }
    };
    if let Some(n) = dur.and_then(|d| d.crash_after_records) {
        db.wal_crash_after_records(n);
    }
    if let Some(n) = dur.and_then(|d| d.crash_after_syncs) {
        db.wal_crash_after_syncs(n);
    }
    let hub = trace.map(|tc| TraceHub::new(tc).expect("open the trace sink"));
    if let Some(hub) = &hub {
        db.set_tracer(hub.tracer(0));
    }
    let result = run_stream(db, cfg, dur.is_some_and(|d| d.record_journal));
    if let Some(hub) = &hub {
        hub.flush().expect("flush the trace sink");
    }
    result
}

/// A commit that landed: what the machine records about it.
pub(crate) struct Committed {
    /// Snapshot timestamp the transaction held going into its commit (the
    /// MVTO serialization key).
    pub(crate) view: u64,
    /// The commit flushed the write-ahead log, so its terminal pays the
    /// fsync.
    pub(crate) flushed: bool,
}

/// What a driver hands back when the stream is over.
pub(crate) struct Closing {
    pub(crate) commit_latency_ticks: Histogram,
    pub(crate) top_contended: Vec<VarContention>,
    pub(crate) final_state: GlobalState,
    /// Slots ever allocated (see [`OpenSimResult::peak_slots`]).
    pub(crate) peak_slots: usize,
    pub(crate) recovery_replayed: u64,
}

/// The database under the open-world machine ([`run_stream`]): a
/// [`SessionDb`] here, a [`ShardedDb`](ccopt_engine::ShardedDb) in
/// [`crate::shard_sim`]. The machine owns time, the RNG, the terminals
/// and the recorded history; everything it asks of the database goes
/// through this trait. The defaulted methods are the sharded driver's
/// extras — an unsharded database has no cross-shard wait cycle to valve
/// and no fault plan to fire.
pub(crate) trait Driver {
    /// Handle to one open transaction.
    type Handle: Copy;

    /// Draw an arriving transaction's program (`cfg` is the open-world
    /// base configuration).
    fn gen_program(&self, rng: &mut SmallRng, cfg: &OpenSimConfig) -> Vec<OpSpec>;
    fn begin(&mut self) -> Self::Handle;
    /// Submit one operation. [`SessionError::ShardDown`] is a failed
    /// transaction — the machine aborts it and redrives the terminal;
    /// any other error is a driver bug.
    fn submit(&mut self, h: Self::Handle, op: OpSpec) -> Result<Op<Value>, SessionError>;
    /// Request the commit (errors as in [`submit`](Self::submit)); a
    /// commit that lands is also retired, so its slot recycles.
    fn commit(&mut self, h: Self::Handle) -> Result<Op<Committed>, SessionError>;
    fn abort(&mut self, h: Self::Handle) -> Result<(), SessionError>;
    /// Force-restart the transaction (the valve's action).
    fn restart(&mut self, h: Self::Handle) -> Result<(), SessionError>;
    /// Attempts of the live transaction so far (scales the backoff).
    fn attempts(&self, h: Self::Handle) -> u32;
    /// The wait valve: consecutive `Wait` answers after which the machine
    /// force-restarts a transaction; `None` = no valve.
    fn wait_bound(&self) -> Option<u32> {
        None
    }
    fn committed_globals(&mut self) -> GlobalState;
    /// Hook after the `committed`-th commit, before the next arrival is
    /// scheduled; `journal_head` is the committed state just journaled
    /// (when the journal is on).
    fn after_commit(&mut self, _committed: usize, _journal_head: Option<&GlobalState>) {}
    /// Boundedness gauge, sampled after every event.
    fn open_sessions(&self) -> usize;
    /// Boundedness gauge, sampled after every commit — the only step that
    /// installs versions (`None` on single-version stores).
    fn live_versions(&self) -> Option<usize>;
    fn metrics(&self) -> Metrics;
    /// The mechanism's `(name, multiversion, defers_writes)`.
    fn mechanism(&self) -> (String, bool, bool);
    /// Report the closing figures.
    fn close(self) -> Closing;
}

/// The unsharded driver is the [`SessionDb`] itself (same-named calls
/// below go to its inherent methods, spelled by path).
impl Driver for SessionDb {
    type Handle = Txn;

    fn gen_program(&self, rng: &mut SmallRng, cfg: &OpenSimConfig) -> Vec<OpSpec> {
        gen_program(rng, cfg)
    }

    fn begin(&mut self) -> Txn {
        SessionDb::begin(self)
    }

    fn submit(&mut self, h: Txn, op: OpSpec) -> Result<Op<Value>, SessionError> {
        Ok(submit_op(self, h, op))
    }

    fn commit(&mut self, h: Txn) -> Result<Op<Committed>, SessionError> {
        let view = self.read_view(h)?;
        let syncs_before = self.metrics.wal_syncs;
        let outcome = SessionDb::commit(self, h)?;
        let flushed = self.metrics.wal_syncs > syncs_before;
        Ok(outcome.map_done(|()| {
            self.retire(h).expect("committed handle");
            Committed { view, flushed }
        }))
    }

    fn abort(&mut self, h: Txn) -> Result<(), SessionError> {
        SessionDb::abort(self, h)
    }

    fn restart(&mut self, h: Txn) -> Result<(), SessionError> {
        SessionDb::restart(self, h)
    }

    fn attempts(&self, h: Txn) -> u32 {
        SessionDb::attempts(self, h).expect("live handle")
    }

    fn committed_globals(&mut self) -> GlobalState {
        SessionDb::committed_globals(self)
    }

    fn open_sessions(&self) -> usize {
        SessionDb::open_sessions(self)
    }

    fn live_versions(&self) -> Option<usize> {
        SessionDb::live_versions(self)
    }

    fn metrics(&self) -> Metrics {
        self.metrics
    }

    fn mechanism(&self) -> (String, bool, bool) {
        let name = self.cc_name().to_string();
        (name, self.multiversion(), self.defers_writes())
    }

    fn close(self) -> Closing {
        Closing {
            commit_latency_ticks: self.commit_latency_ticks().clone(),
            top_contended: self.top_contended(TOP_CONTENDED),
            final_state: self.globals(),
            peak_slots: self.num_slots(),
            recovery_replayed: self.recovery_info().map_or(0, |ri| ri.committed),
        }
    }
}

/// The open-world event machine, over any [`Driver`]: `K` terminals each
/// keep one transaction open at a time — arrive, run the program
/// operation by operation (waits poll on a jittered interval, restarts
/// replay after attempt-scaled backoff), commit, retire, think, arrive
/// again — until [`total_txns`](OpenSimConfig::total_txns) commits.
pub(crate) fn run_stream<D: Driver>(
    mut drv: D,
    cfg: &OpenSimConfig,
    record_journal: bool,
) -> OpenSimResult {
    let (cc_name, multiversion, defers_writes) = drv.mechanism();
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x09E2_5EED);
    let mut terminals: Vec<Terminal<D::Handle>> = (0..cfg.terminals)
        .map(|_| Terminal {
            handle: None,
            prog: Vec::new(),
            next_op: 0,
            started_at: 0.0,
            ops: Vec::new(),
            consec_waits: 0,
        })
        .collect();
    let mut queue: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    for terminal in 0..cfg.terminals {
        queue.push(Reverse(Event {
            time: exp_sample(&mut rng, cfg.think_time),
            terminal,
        }));
    }

    let mut clock = 0.0f64;
    let mut committed = 0usize;
    let mut seq = 0u64;
    let mut latencies: Vec<f64> = Vec::with_capacity(cfg.total_txns);
    let mut history: Vec<CommittedTxn> = Vec::new();
    // Committed-prefix journal for the crash-recovery differential:
    // journal[k] = committed state after k commits of *this* run.
    let mut journal: Vec<GlobalState> = Vec::new();
    if record_journal {
        journal.push(drv.committed_globals());
    }
    let (mut peak_open, mut peak_versions) = (0usize, 0usize);
    let mut events = 0usize;

    while let Some(Reverse(ev)) = queue.pop() {
        events += 1;
        if events > cfg.max_events {
            break;
        }
        clock = ev.time;
        let term = &mut terminals[ev.terminal];
        // One terminal turn, in the engine's own outcome shape: `Done`
        // carries when the terminal wakes next (`None` ends the stream),
        // `Wait` and `Restarted` are the operation's (or the commit's)
        // answer; `Err` is what failed the transaction.
        let mut turn = || -> Result<Op<Option<f64>>, SessionError> {
            if term.handle.is_none() {
                // Arrival: a fresh transaction program on a recycled slot.
                term.prog = drv.gen_program(&mut rng, cfg);
                term.handle = Some(drv.begin());
                term.next_op = 0;
                term.started_at = ev.time;
                term.ops.clear();
                term.consec_waits = 0;
            }
            let h = term.handle.expect("just ensured");
            if drv
                .wait_bound()
                .is_some_and(|bound| term.consec_waits >= bound)
            {
                // The distributed-deadlock valve: shard-local detectors
                // cannot see cross-shard wait cycles, so persistent
                // waiting falls back to a forced restart (safe for every
                // mechanism).
                drv.restart(h)?;
                return Ok(Op::Restarted);
            }
            if let Some(&op) = term.prog.get(term.next_op) {
                return Ok(drv.submit(h, op)?.map_done(|_| {
                    seq += 1;
                    if cfg.check {
                        term.ops.push((seq, op));
                    }
                    term.next_op += 1;
                    term.consec_waits = 0;
                    // The commit rides its own event right after the last
                    // operation's execution time; earlier operations pay
                    // execution + think.
                    let pause = if term.next_op == term.prog.len() {
                        cfg.exec_time
                    } else {
                        cfg.exec_time + exp_sample(&mut rng, cfg.think_time)
                    };
                    Some(ev.time + pause + cfg.scheduling_time)
                }));
            }
            // All operations ran: request the commit.
            Ok(drv.commit(h)?.map_done(|Committed { view, flushed }| {
                term.handle = None;
                committed += 1;
                // A commit that flushed the log pays the fsync; under
                // group commit only the batch leader does, which is the
                // whole throughput argument.
                let sync_cost = if flushed { cfg.sync_time } else { 0.0 };
                latencies.push(ev.time + cfg.exec_time + sync_cost - term.started_at);
                seq += 1;
                if cfg.check {
                    history.push(CommittedTxn {
                        ops: std::mem::take(&mut term.ops),
                        view,
                        commit_seq: seq,
                    });
                }
                if record_journal {
                    journal.push(drv.committed_globals());
                }
                peak_versions = peak_versions.max(drv.live_versions().unwrap_or(0));
                drv.after_commit(committed, journal.last());
                if committed >= cfg.total_txns {
                    return None;
                }
                // Next arrival after the commit's execution + think.
                let think = exp_sample(&mut rng, cfg.think_time);
                Some(ev.time + cfg.exec_time + sync_cost + think)
            }))
        };
        let next = match turn() {
            Ok(Op::Done(Some(at))) => at,
            Ok(Op::Done(None)) => break,
            Ok(Op::Wait) => {
                term.consec_waits += 1;
                ev.time + retry_delay(&mut rng, cfg)
            }
            Ok(Op::Restarted) => {
                // The attempt restarted in place: replay the program from
                // the top after the attempt-scaled backoff.
                term.next_op = 0;
                term.ops.clear();
                term.consec_waits = 0;
                let h = term.handle.expect("a restarted transaction stays open");
                ev.time + restart_delay(&mut rng, cfg, drv.attempts(h))
            }
            Err(SessionError::ShardDown) => {
                // A failed global transaction (its shard crashed
                // mid-flight or is down): abort it, back off on the
                // ordinary jittered restart delay, and let the terminal
                // redrive a fresh transaction — fault recovery is just
                // another restart to the open-world driver.
                if let Some(h) = term.handle.take() {
                    let _ = drv.abort(h);
                }
                term.ops.clear();
                ev.time + restart_delay(&mut rng, cfg, 2)
            }
            Err(e) => panic!("open-world driver: {e}"),
        };
        queue.push(Reverse(Event {
            time: next,
            terminal: ev.terminal,
        }));
        peak_open = peak_open.max(drv.open_sessions());
    }

    // Wind down: abort the in-flight sessions so the final state holds
    // committed effects only (and their slots retire cleanly). Their
    // client-aborts are bookkeeping, not contention — excluded from the
    // reported abort counts, and from the attribution snapshotted with
    // them.
    let pre = drv.metrics();
    let stream_aborts = pre.aborts;
    let aborts_by_rule = named_abort_rules(&pre.aborts_by_rule);
    for term in &mut terminals {
        if let Some(h) = term.handle.take() {
            drv.abort(h).expect("live handle");
        }
    }
    let m = drv.metrics();
    let end = drv.close();
    OpenSimResult {
        cc_name,
        committed,
        aborts: stream_aborts,
        waits: m.waits,
        retires: m.retires,
        mv_write_aborts: m.mv_write_aborts,
        clock,
        throughput: committed as f64 / clock.max(1e-9),
        latency: Summary::of(&latencies),
        abort_rate: if committed == 0 {
            0.0
        } else {
            stream_aborts as f64 / committed as f64
        },
        peak_slots: end.peak_slots,
        peak_open_sessions: peak_open,
        peak_live_versions: peak_versions,
        versions_reclaimed: m.versions_reclaimed,
        final_state: end.final_state,
        history,
        multiversion,
        defers_writes,
        wal_records: m.wal_records,
        wal_syncs: m.wal_syncs,
        journal,
        shard_restarts: m.shard_restarts,
        io_retries: m.io_retries,
        recovery_replayed: end.recovery_replayed,
        commit_lat_ticks_p50: end.commit_latency_ticks.quantile(0.5),
        commit_lat_ticks_p99: end.commit_latency_ticks.quantile(0.99),
        top_contended: end
            .top_contended
            .iter()
            .map(|r| (r.var.0, r.waits, r.aborts))
            .collect(),
        aborts_by_rule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> OpenSimConfig {
        OpenSimConfig {
            terminals: 4,
            total_txns: 60,
            vars: 6,
            seed,
            check: true,
            ..OpenSimConfig::default()
        }
    }

    #[test]
    fn stream_commits_exactly_and_slots_stay_bounded() {
        let cfg = quick(7);
        let r = simulate_open(CcKind::Strict2pl, &cfg);
        assert_eq!(r.committed, 60);
        assert_eq!(r.history.len(), 60);
        assert!(r.peak_slots <= cfg.terminals);
        assert!(r.retires >= r.committed);
        assert!(r.throughput > 0.0);
        assert_eq!(r.latency.n, 60);
    }

    #[test]
    fn deterministic_in_the_seed() {
        let cfg = quick(11);
        let a = simulate_open(CcKind::Occ, &cfg);
        let b = simulate_open(CcKind::Occ, &cfg);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.aborts, b.aborts);
        assert_eq!(a.waits, b.waits);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.final_state, b.final_state);
        assert!((a.throughput - b.throughput).abs() == 0.0);
    }

    #[test]
    fn committed_histories_replay_serializably() {
        for seed in [1u64, 2, 3] {
            let cfg = quick(seed);
            for kind in [CcKind::Strict2pl, CcKind::Sgt, CcKind::Occ, CcKind::Mvto] {
                let name = kind.name();
                let r = simulate_open(kind, &cfg);
                assert_eq!(r.committed, 60, "{name} seed {seed}");
                check_serializable(&r).unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            }
        }
    }

    #[test]
    fn si_runs_the_stream_but_is_exempt_from_the_oracle() {
        let cfg = quick(5);
        let r = simulate_open(CcKind::Si, &cfg);
        assert_eq!(r.committed, 60);
        assert!(r.multiversion);
        assert!(r.versions_reclaimed > 0, "SI GC must reclaim versions");
    }

    #[test]
    fn op_spec_eval_is_the_engines_affine_step() {
        let op = |kind, a, c| OpSpec {
            var: VarId(0),
            kind,
            a,
            c,
        };
        for observed in [-7i64, 0, 3] {
            for (a, c) in [(1, 2), (2, -2), (-1, 0)] {
                assert_eq!(op(StepKind::Read, a, c).eval(observed), observed);
                assert_eq!(op(StepKind::Write, a, c).eval(observed), c);
                let update = op(StepKind::Update, a, c).eval(observed);
                assert_eq!(Value::Int(update), affine_eval(a, c, Value::Int(observed)));
            }
        }
        // A doubling chain from near the top wraps, step for step with
        // the engine, where unchecked `*` would panic a debug build.
        let double = op(StepKind::Update, 2, 1);
        let mut v = i64::MAX - 3;
        for _ in 0..1000 {
            let next = double.eval(v);
            assert_eq!(Value::Int(next), affine_eval(2, 1, Value::Int(v)));
            v = next;
        }
    }
}
