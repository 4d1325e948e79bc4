//! # `ccopt-engine` — the database substrate
//!
//! The paper assumes "a database system time-shared among multiple users".
//! This crate is that substrate: an in-memory store executing the
//! transaction programs of `ccopt-model` under a pluggable concurrency
//! control, with real waits, aborts, rollback and restarts — the dynamics
//! the order-theoretic scheduler view abstracts away and the Section 6
//! simulator needs back.
//!
//! * `dense` (crate-internal) — dense index-keyed tables (bitsets,
//!   epoch-cleared sets, slot maps) backing the O(1) CC hot path;
//! * [`storage`] — the single-version value store with undo support;
//! * [`mvstore`] — the multi-version value store: per-variable version
//!   chains with watermark-driven garbage collection;
//! * [`cc`] — the [`ConcurrencyControl`] trait, [`Cc`] (the seven
//!   mechanisms as one enum, what the engine holds) and the
//!   implementations: global-token serial execution, strict 2PL (a
//!   request that would newly wait on a waiting holder restarts, so no
//!   deadlock cycle forms), SGT (abort on serialization-graph cycle),
//!   timestamp ordering (abort on late conflict), OCC with backward
//!   validation, MVTO (multi-version timestamp ordering: snapshot reads,
//!   late writes abort, accesses wait on older pending writers), and
//!   snapshot isolation (first-committer-wins write validation);
//! * [`session`] — the open-world session layer: dynamic transactions
//!   ([`SessionDb::begin`] / per-operation read/write/update / explicit
//!   commit/abort) over recycled dense slots with epoch-guarded handles
//!   and a retirement lifecycle, optionally durable
//!   ([`SessionDb::open`]): a redo-only write-ahead log with group
//!   commit, checkpoints and crash recovery (`ccopt-durability`);
//! * [`shard`] — sharded execution: [`ShardedDb`] hash-partitions the
//!   variable universe across independent [`SessionDb`] shards, each
//!   behind its own fault domain, with single-shard fast-path commits and
//!   two-phase cross-shard commits (prepare votes + coordinator resolve,
//!   in-doubt recovery by consulting the coordinator shard's log);
//! * [`db`] — the closed-world [`Database`]: the paper's fixed transaction
//!   system driven step by step (with a round-robin driver), now a thin
//!   adapter over the session layer;
//! * [`metrics`] — commit/abort/wait counters (with per-conflict-rule
//!   abort attribution) shared by the simulators.
//!
//! Observability rides on `ccopt-trace` (re-exported as [`trace`]):
//! every mechanism attributes its Wait/Abort decisions
//! ([`ConcurrencyControl::last_conflict`]; a step wait is attributed to
//! the step's own variable, so the session layer reads it back only for
//! aborts, commit waits and the trace), the session layer emits
//! lifecycle events through an optional [`trace::Tracer`]
//! ([`SessionDb::set_tracer`]) and keeps per-variable contention tables
//! ([`SessionDb::top_contended`]) plus tick-based latency histograms
//! ([`SessionDb::commit_latency_ticks`]), and the sharded supervisor
//! dumps per-shard flight-recorder rings when a worker dies
//! (`docs/OBSERVABILITY.md`).

#![deny(unreachable_pub)]

pub mod cc;
pub mod db;
mod dense;
pub mod metrics;
pub mod mvstore;
pub mod session;
pub mod shard;
pub mod storage;

pub use cc::{cc_by_name, Cc, CcConflict, CcDecision, CcKind, ConcurrencyControl, MECHANISM_NAMES};
pub use ccopt_durability as durability;
pub use ccopt_durability::{DurabilityMode, StoreImage, WalError};
pub use ccopt_trace as trace;
pub use ccopt_trace::{ConflictRule, Histogram, TraceConfig, TraceHub, Tracer};
pub use db::{Database, StepOutcome};
pub use metrics::Metrics;
pub use mvstore::MvStore;
pub use session::{Op, RecoveryInfo, SessionDb, SessionError, SessionStatus, Txn, VarContention};
pub use shard::{
    affine_eval, BatchOp, GlobalTxn, GroupReq, GroupResp, Partition, ShardStatus, ShardedDb,
    ShardedGauges, ShardedRecoveryInfo,
};
