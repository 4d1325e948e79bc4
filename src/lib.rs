//! # `ccopt` — An Optimality Theory of Concurrency Control for Databases
//!
//! Umbrella crate re-exporting the whole workspace. See the individual
//! crates for details:
//!
//! * [`model`] — the transaction-system model of Section 2;
//! * [`schedule`] — schedules, enumeration of `H`, the classes
//!   `serial ⊆ CSR ⊆ SR ⊆ WSR ⊆ C(T)`;
//! * [`core`] — information levels, fixpoint sets, optimal schedulers and
//!   the executable Theorems 1–4;
//! * [`locking`] — locking policies (2PL, 2PL′, tree locking) and the
//!   lock-respecting scheduler;
//! * [`geometry`] — the geometry of locking (Section 5.3);
//! * [`schedulers`] — practical online schedulers (2PL, SGT, timestamp
//!   ordering) and every engine mechanism as one through
//!   `EngineScheduler` (the suite's serial and OCC);
//! * [`engine`] — the in-memory database substrate;
//! * [`sim`] — the discrete-event simulator of the Section 6 environment.

pub use ccopt_core as core;
pub use ccopt_engine as engine;
pub use ccopt_geometry as geometry;
pub use ccopt_locking as locking;
pub use ccopt_model as model;
pub use ccopt_schedule as schedule;
pub use ccopt_schedulers as schedulers;
pub use ccopt_sim as sim;
