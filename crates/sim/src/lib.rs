//! # `ccopt-sim` — the Section 6 environment, simulated
//!
//! "There are multiple users at various terminals executing transactions
//! which mainly involve local computations but occasionally have to access
//! or update data shared by many users. [...] From a user's viewpoint the
//! time for carrying out a transaction step is divided into the following
//! three parts: scheduling time, waiting time, execution time."
//!
//! One discrete-event machine simulates that environment, and one
//! request-level simulation sits beside it:
//!
//! * [`open_sim`] — the event machine, over the session API
//!   ([`ccopt_engine::SessionDb`]): terminals with exponential think
//!   times run an unbounded stream of dynamic transactions over recycled
//!   dense slots — scheduling and execution time per operation, jittered
//!   polling on waits, attempt-scaled backoff on restarts — reporting
//!   throughput, the latency distribution, waits, abort rate and the
//!   boundedness gauges (peak slots, peak live versions), with an optional
//!   serializability spot-check over the committed history.
//! * [`shard_sim`] — a second driver of the same machine, over a sharded
//!   database ([`ccopt_engine::ShardedDb`]): a cross-shard-ratio workload
//!   axis, two-phase cross-shard commits, a wait-bound restart valve for
//!   cross-shard deadlocks, and histories the ordinary serializability
//!   oracle checks unchanged. With one shard it reproduces [`open_sim`]
//!   bit for bit.
//! * [`order_sim`] — drives the *online schedulers* of `ccopt-schedulers`
//!   with uniformly random request histories, measuring exactly the
//!   quantities the paper ties to the fixpoint set `P`: the probability of
//!   a delay-free pass (`|P|/|H|`) and the discrete waiting totals.
//!
//! Plus [`workload`] (the long-readers transaction system), [`stats`]
//! (summaries) and [`report`] (aligned text tables for the experiment
//! harness).

pub mod open_sim;
mod oracle;
pub mod order_sim;
pub mod report;
pub mod shard_sim;
pub mod stats;
pub mod workload;

pub use open_sim::{
    check_serializable, check_strict, simulate_open, simulate_open_durable, DurableConfig,
    OpenSimConfig, OpenSimResult,
};
pub use order_sim::{delay_profile, DelayProfile};
pub use report::Table;
pub use shard_sim::{
    simulate_sharded, simulate_sharded_durable, ShardDurableConfig, ShardSimConfig,
};
pub use stats::Summary;
