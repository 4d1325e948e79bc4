//! # `ccopt-trace` — the zero-cost-when-off trace plane
//!
//! Kung & Papadimitriou's optimality theory is about what *information* a
//! scheduler exploits; this crate makes the engine's use of that
//! information observable. It carries no engine dependency — the engine,
//! durability, and simulation layers depend on it, not the other way
//! around — and four pieces cover the workspace:
//!
//! * [`event`] — structured lifecycle events
//!   ([`TraceEvent`]/[`EventKind`]) with per-shard sequence numbers and a
//!   global order stamp so merged cross-shard traces are totally ordered,
//!   plus the conflict-attribution vocabulary ([`ConflictRule`]): every
//!   CC rejection names the rule that fired, the contended variable, and
//!   the opponent transaction. Events encode to JSONL (hand-rolled — the
//!   build environment has no serde) and [`validate_jsonl_line`] checks a
//!   line against the event schema.
//! * [`hist`] — [`Histogram`]: fixed power-of-two buckets for latencies
//!   and phase timings. Recording is a few instructions and never
//!   allocates, so histograms stay on even when event tracing is off.
//! * [`recorder`] — [`FlightRecorder`]: a bounded ring buffer of the
//!   last-N events per shard, dumped (JSONL) by the fault supervisor on
//!   worker panic or unrecoverable storage, so every injected-fault test
//!   failure comes with its tail of history.
//! * [`tracer`] — [`Tracer`]: the per-shard emission handle threaded
//!   through the engine. Disabled it is a single `Option` check — no
//!   allocation, no locks, no syscalls — which is what keeps traced-off
//!   runs bit-identical to untraced ones. [`TraceHub`] (built from a
//!   [`TraceConfig`]) owns the shared pieces: the global sequence, the
//!   JSONL sink, and the per-shard rings.

pub mod event;
pub mod hist;
pub mod recorder;
pub mod tracer;

pub use event::{validate_jsonl_line, ConflictRule, EventKind, TraceEvent, Verdict};
pub use hist::Histogram;
pub use recorder::FlightRecorder;
pub use tracer::{TraceConfig, TraceHub, Tracer};
