//! Sharded open-world simulation: arrival-driven session streams over a
//! [`ShardedDb`], with a cross-shard-ratio workload axis.
//!
//! This module is the sharded *driver* of the one open-world event machine
//! in [`crate::open_sim`] — `K` terminals, jittered wait polling,
//! attempt-scaled restart backoff, deterministic in the seed — over a
//! hash-partitioned database (each shard a plain session database behind a
//! thread-free fault domain) instead of a single
//! [`SessionDb`](ccopt_engine::SessionDb). Each arrival draws either a
//! **single-shard** program (all operations inside one home shard — the
//! fast path a good partitioning maximizes) or, with probability
//! [`cross_ratio`](ShardSimConfig::cross_ratio), a **cross-shard** program
//! alternating between two shards, whose commit runs the two-phase
//! protocol.
//!
//! With one shard the driver draws programs from the unsharded generator
//! and the valve is off, so the `S = 1` cells of the sharded benchmark
//! grid reproduce the open-world grid bit for bit — the sharding layer
//! adds no distortion (pinned by `tests/sharded.rs` and asserted by the
//! throughput harness).
//!
//! Sharding introduces one liveness hazard no shard-local mechanism can
//! see: wait cycles *across* shards (2PL lock cycles spanning shards, the
//! serial token, SGT's commit-order gate). The driver therefore carries a
//! **wait-bound restart valve**: a transaction that answers `Wait` more
//! than 24 times in a row is force-restarted ([`ShardedDb::restart`]) —
//! the standard timeout resolution for distributed deadlock, always
//! safe, and off on `S = 1` (where shard-local detectors are complete).
//!
//! The committed history is recorded in global sequence order with global
//! commit points and global begin timestamps, so the ordinary
//! [`check_serializable`](crate::open_sim::check_serializable) oracle
//! applies unchanged to cross-shard histories: conflict-graph replay over
//! the union of all shards' conflicts for single-version mechanisms,
//! begin-timestamp replay for MVTO, SI exempt (`docs/SHARDING.md` gives
//! the argument for why all seven mechanisms pass it).
//!
//! A [`FaultPlan`] scripts faults into a run
//! ([`simulate_sharded_faulty`]): shard-worker panics and transient
//! storage faults fire at configured commit counts. The driver treats a
//! failed global transaction
//! ([`ShardDown`](ccopt_engine::SessionError::ShardDown)) like any other
//! loss: abort, back off on the existing jittered restart delay, and
//! redrive — so the stream still serves fully once the faults stop (the
//! liveness claim of `tests/faults.rs`). On durable runs with
//! the journal on, the simulation asserts after every supervised
//! recovery that the committed global state still equals the journal
//! head: a shard crash never loses or invents a committed transaction
//! (`docs/FAULTS.md`).

use crate::open_sim::{
    gen_op, gen_program, run_stream, Closing, Committed, Driver, OpSpec, OpenSimConfig,
    OpenSimResult, TOP_CONTENDED,
};
use ccopt_engine::cc::CcKind;
use ccopt_engine::durability::{Fault, StorageFaults};
use ccopt_engine::session::{Op, SessionError};
use ccopt_engine::shard::{BatchOp, GlobalTxn, GroupReq, ShardedDb, WAIT_VALVE};
use ccopt_engine::{DurabilityMode, Metrics, TraceConfig};
use ccopt_model::ids::VarId;
use ccopt_model::state::GlobalState;
use ccopt_model::syntax::StepKind;
use ccopt_model::value::Value;
use rand::rngs::SmallRng;
use rand::Rng;
use std::path::PathBuf;

/// Sharded simulation parameters: the open-world base plus the sharding
/// axes.
#[derive(Clone, Debug)]
pub struct ShardSimConfig {
    /// The open-world parameters (terminals, stream length, variable
    /// count, operation mix, timing costs, seed).
    pub base: OpenSimConfig,
    /// Number of shards the variable universe is hash-partitioned over.
    pub shards: usize,
    /// Probability that an arriving transaction spans two shards (its
    /// commit then runs the two-phase protocol). Ignored on `shards = 1`.
    pub cross_ratio: f64,
}

impl ShardSimConfig {
    /// A sharded configuration over `base` with `shards` shards and the
    /// given cross-shard ratio.
    pub fn new(base: OpenSimConfig, shards: usize, cross_ratio: f64) -> ShardSimConfig {
        ShardSimConfig {
            base,
            shards,
            cross_ratio,
        }
    }
}

/// Durability parameters of [`simulate_sharded_durable`].
#[derive(Clone, Debug)]
pub struct ShardDurableConfig {
    /// Directory holding one write-ahead log per shard.
    pub dir: PathBuf,
    /// Flush policy (cross-shard prepares and coordinator resolves force
    /// their own fsyncs in every mode).
    pub mode: DurabilityMode,
    /// Crash injection: kill every shard log after this many durable 2PC
    /// actions (see [`ShardedDb::crash_after_2pc_actions`]).
    pub crash_after_2pc_actions: Option<u64>,
    /// Record the committed-prefix journal (`journal[k]` = global
    /// committed state after `k` commits) for the crash differentials.
    pub record_journal: bool,
}

impl ShardDurableConfig {
    /// A durable run under `dir`/`mode`, no crash, no journal.
    pub fn new(dir: PathBuf, mode: DurabilityMode) -> ShardDurableConfig {
        ShardDurableConfig {
            dir,
            mode,
            crash_after_2pc_actions: None,
            record_journal: false,
        }
    }
}

/// Scripted faults for [`simulate_sharded_faulty`]: each entry fires once,
/// when the global committed count first reaches its threshold, so a plan
/// is deterministic in the seed like everything else in the simulator.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// `(after_commits, shard)`: panic the shard's worker — the
    /// supervisor restarts it in place (recovering its log on durable
    /// runs) and fails the global transactions that had state there.
    pub shard_panics: Vec<(usize, usize)>,
    /// `(after_commits, shard, times)`: script `times` transient fsync
    /// failures on the shard's write-ahead log (durable runs only; the
    /// log retries on bounded backoff and the run proceeds).
    pub transient_sync_faults: Vec<(usize, usize, u32)>,
}

impl FaultPlan {
    /// A plan panicking `shard` after `after_commits` commits.
    pub fn panic_at(after_commits: usize, shard: usize) -> FaultPlan {
        FaultPlan {
            shard_panics: vec![(after_commits, shard)],
            ..FaultPlan::default()
        }
    }
}

/// Draw one sharded transaction program: single-shard (all operations in
/// one home shard) or, with probability `cross_ratio`, alternating
/// between a home and an away shard so at least two shards are touched.
fn gen_sharded_program(
    rng: &mut SmallRng,
    scfg: &ShardSimConfig,
    shard_vars: &[Vec<VarId>],
    nonempty: &[usize],
) -> Vec<OpSpec> {
    let cfg = &scfg.base;
    let n = rng.gen_range(cfg.steps.0..=cfg.steps.1.max(cfg.steps.0));
    let cross = nonempty.len() >= 2 && rng.gen_range(0.0..1.0) < scfg.cross_ratio;
    let home = nonempty[rng.gen_range(0..nonempty.len())];
    let away = if cross {
        let mut s = nonempty[rng.gen_range(0..nonempty.len())];
        while s == home {
            s = nonempty[rng.gen_range(0..nonempty.len())];
        }
        s
    } else {
        home
    };
    (0..n)
        .map(|i| {
            // Odd operations of a cross transaction go to the away shard:
            // any program of two or more operations really spans both.
            let vars = &shard_vars[if cross && i % 2 == 1 { away } else { home }];
            let var = if vars.len() > 1 && rng.gen_range(0.0..1.0) < cfg.hot_fraction {
                vars[0]
            } else {
                vars[rng.gen_range(0..vars.len())]
            };
            gen_op(rng, cfg, var)
        })
        .collect()
}

/// Run the sharded open-world simulation for one mechanism (no
/// durability).
pub fn simulate_sharded(kind: CcKind, scfg: &ShardSimConfig) -> OpenSimResult {
    simulate_sharded_impl(kind, scfg, None, None, None)
}

/// Run the sharded simulation with the trace plane on
/// ([`ShardedDb::set_trace`]): every shard streams lifecycle events to
/// the shared JSONL sink (flushed before returning), keeps a
/// flight-recorder ring the supervisor dumps on a worker crash (under
/// [`dump_dir`](ccopt_engine::TraceConfig::dump_dir)), and the merged
/// trace is totally ordered by the hub's global stamp. Composes with a
/// [`FaultPlan`] and durability — the traced faulty run is exactly the
/// flight-recorder acceptance scenario.
///
/// # Panics
/// Panics when the logs or the trace sink cannot be created (harness
/// convention).
pub fn simulate_sharded_traced(
    kind: CcKind,
    scfg: &ShardSimConfig,
    dur: Option<&ShardDurableConfig>,
    plan: Option<&FaultPlan>,
    trace: &TraceConfig,
) -> OpenSimResult {
    simulate_sharded_impl(kind, scfg, dur, plan, Some(trace))
}

/// Run the sharded open-world simulation against a durable
/// [`ShardedDb::open`] (one write-ahead log per shard under
/// [`dir`](ShardDurableConfig::dir); existing logs are recovered first,
/// in-doubt 2PC transactions settled against their coordinator shard).
/// The simulation ends like a crash — nothing is flushed on exit.
///
/// # Panics
/// Panics when the logs cannot be opened or recovered (harness
/// convention: configuration errors are bugs in the experiment).
pub fn simulate_sharded_durable(
    kind: CcKind,
    scfg: &ShardSimConfig,
    dur: &ShardDurableConfig,
) -> OpenSimResult {
    simulate_sharded_impl(kind, scfg, Some(dur), None, None)
}

/// Run the sharded open-world simulation under a scripted [`FaultPlan`]
/// (optionally durable). Shard panics are supervised in place; failed
/// global transactions are aborted and redriven by the terminals on the
/// ordinary jittered restart backoff, so the stream serves fully once
/// the plan's faults have fired.
///
/// # Panics
/// Panics when the logs cannot be opened, or — on durable journal runs —
/// when a supervised recovery loses committed state (the committed-prefix
/// consistency assertion).
pub fn simulate_sharded_faulty(
    kind: CcKind,
    scfg: &ShardSimConfig,
    dur: Option<&ShardDurableConfig>,
    plan: &FaultPlan,
) -> OpenSimResult {
    simulate_sharded_impl(kind, scfg, dur, Some(plan), None)
}

fn simulate_sharded_impl(
    kind: CcKind,
    scfg: &ShardSimConfig,
    dur: Option<&ShardDurableConfig>,
    plan: Option<&FaultPlan>,
    trace: Option<&TraceConfig>,
) -> OpenSimResult {
    let cfg = &scfg.base;
    let init = GlobalState::from_ints(&vec![0; cfg.vars]);
    let mut db = match dur {
        None => ShardedDb::with_capacity(kind, init, scfg.shards, cfg.terminals),
        Some(d) => ShardedDb::open(kind, init, &d.dir, d.mode, scfg.shards, cfg.terminals)
            .expect("open the durable sharded database"),
    };
    if let Some(n) = dur.and_then(|d| d.crash_after_2pc_actions) {
        db.crash_after_2pc_actions(n);
    }
    if let Some(tc) = trace {
        db.set_trace(tc).expect("open the trace sink");
    }
    // Shard-local variable lists for the program generator, read from
    // the database's own partition (shards that own no variables are
    // never a home or away shard).
    let shard_vars: Vec<Vec<VarId>> = (0..scfg.shards)
        .map(|s| db.partition().shard_vars(s).to_vec())
        .collect();
    let nonempty = (0..scfg.shards)
        .filter(|&s| !shard_vars[s].is_empty())
        .collect();
    let driver = ShardedDriver {
        db,
        scfg,
        shard_vars,
        nonempty,
        // Pending scripted faults, drained as their commit thresholds pass.
        due_panics: plan.map(|p| p.shard_panics.clone()).unwrap_or_default(),
        due_io: plan
            .map(|p| p.transient_sync_faults.clone())
            .unwrap_or_default(),
    };
    run_stream(driver, cfg, dur.is_some_and(|d| d.record_journal))
}

/// The sharded driver: a [`ShardedDb`], the sharded program generator,
/// the wait valve, and the [`FaultPlan`] still to fire.
struct ShardedDriver<'c> {
    db: ShardedDb,
    scfg: &'c ShardSimConfig,
    shard_vars: Vec<Vec<VarId>>,
    nonempty: Vec<usize>,
    due_panics: Vec<(usize, usize)>,
    due_io: Vec<(usize, usize, u32)>,
}

impl Driver for ShardedDriver<'_> {
    type Handle = GlobalTxn;

    fn gen_program(&self, rng: &mut SmallRng, cfg: &OpenSimConfig) -> Vec<OpSpec> {
        if self.scfg.shards == 1 {
            // One shard: the unsharded generator, draw for draw.
            gen_program(rng, cfg)
        } else {
            gen_sharded_program(rng, self.scfg, &self.shard_vars, &self.nonempty)
        }
    }

    fn begin(&mut self) -> GlobalTxn {
        self.db.begin()
    }

    fn submit(&mut self, h: GlobalTxn, op: OpSpec) -> Result<Op<Value>, SessionError> {
        let op = match op.kind {
            StepKind::Read => BatchOp::Read(op.var),
            StepKind::Write => BatchOp::Write(op.var, Value::Int(op.c)),
            StepKind::Update => BatchOp::Affine {
                var: op.var,
                a: op.a,
                c: op.c,
            },
        };
        let req = GroupReq {
            h,
            ops: vec![op],
            commit: false,
        };
        let resp = self.db.submit_group(vec![req]).pop().expect("one response");
        Ok(resp.results?.pop().expect("a one-op run has one outcome"))
    }

    fn commit(&mut self, h: GlobalTxn) -> Result<Op<Committed>, SessionError> {
        let view = self.db.read_view(h)?;
        // Shard fsyncs stay off the terminal's simulated clock: the
        // sharded grid charges no sync time.
        Ok(self.db.commit(h)?.map_done(|()| {
            self.db.retire(h).expect("committed handle");
            Committed {
                view,
                flushed: false,
            }
        }))
    }

    fn abort(&mut self, h: GlobalTxn) -> Result<(), SessionError> {
        self.db.abort(h)
    }

    fn restart(&mut self, h: GlobalTxn) -> Result<(), SessionError> {
        self.db.restart(h)
    }

    fn attempts(&self, h: GlobalTxn) -> u32 {
        self.db.attempts(h).expect("live handle")
    }

    fn wait_bound(&self) -> Option<u32> {
        // Off on one shard, where shard-local detectors are complete.
        (self.scfg.shards > 1).then_some(WAIT_VALVE)
    }

    fn committed_globals(&mut self) -> GlobalState {
        self.db.committed_globals()
    }

    fn after_commit(&mut self, committed: usize, journal_head: Option<&GlobalState>) {
        // Fire the scripted faults whose commit thresholds just passed;
        // supervise crashes right away so the committed-prefix assertion
        // sees the recovered state (terminals discover their failed
        // transactions on their next operation).
        let db = &mut self.db;
        let mut panicked = false;
        self.due_panics.retain(|&(at, s)| {
            if committed < at {
                return true;
            }
            if !db.shard_statuses()[s].down {
                db.panic_shard(s);
            }
            panicked = true;
            false
        });
        self.due_io.retain(|&(at, s, times)| {
            if committed < at {
                return true;
            }
            db.set_shard_faults(
                s,
                StorageFaults::new().fail_sync(0, Fault::Transient { times }),
            );
            false
        });
        if panicked {
            db.check_shards();
            if let Some(head) = journal_head {
                // Committed-prefix consistency after every recovery: a
                // supervised restart must rebuild exactly the committed
                // state — no committed transaction lost, none invented.
                assert_eq!(
                    &db.committed_globals(),
                    head,
                    "sharded fault sim: supervised recovery lost committed state"
                );
            }
        }
    }

    fn open_sessions(&self) -> usize {
        self.db.open_sessions()
    }

    fn live_versions(&self) -> Option<usize> {
        self.db.live_versions()
    }

    fn metrics(&self) -> Metrics {
        self.db.metrics()
    }

    fn mechanism(&self) -> (String, bool, bool) {
        let name = self.db.cc_name().to_string();
        (name, self.db.multiversion(), self.db.defers_writes())
    }

    fn close(mut self) -> Closing {
        if let Some(hub) = self.db.trace_hub() {
            hub.flush().expect("flush the trace sink");
        }
        // `globals` supervises a shard found dead; the gauges read after
        // it, so they see what it restarted.
        let final_state = self.db.globals();
        let g = self.db.gauges(TOP_CONTENDED);
        Closing {
            commit_latency_ticks: g.commit_latency_ticks,
            top_contended: g.top_contended,
            final_state,
            peak_slots: g.num_slots,
            recovery_replayed: g.last_recovery_replayed.unwrap_or(0),
        }
    }
}
