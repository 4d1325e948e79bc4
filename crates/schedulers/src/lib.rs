//! # `ccopt-schedulers` — practical online schedulers
//!
//! The paper's framework evaluates *any* concurrency control as a scheduler
//! `S : H → C(T)` with a fixpoint set `P`. This crate puts the classical
//! scheduler families behind [`OnlineScheduler`] so they can be ranked on
//! the paper's performance axis (`|P|/|H|`, experiment T2):
//!
//! * [`EngineScheduler`] — any of the engine's seven mechanisms
//!   (`ccopt-engine`'s `CcKind`) driven step by step: the code that serves
//!   traffic, under the paper's yardstick. The suite's serial and OCC
//!   entries are the engine's. Serial is the paper's introductory
//!   strawman, "delay all other user requests until the first user logs
//!   out" (fixpoints: the serial histories); OCC is backward validation
//!   with a deferred write phase (Kung & Robinson's later line of work),
//!   where a failed validation restarts the transaction.
//! * [`two_phase`] — 2PL entrusted to the lock-respecting scheduler
//!   (re-exported from `ccopt-locking`). Fixpoints: histories whose lock
//!   acquisitions never block.
//! * [`sgt`] — serialization-graph testing: grant unless the conflict graph
//!   would close a cycle. Fixpoints: exactly the conflict-serializable
//!   histories — the best any syntactic scheduler can do efficiently.
//! * [`timestamp`] — timestamp ordering: conflicts must occur in arrival-
//!   timestamp order.
//! * [`weak`] — the semantic (weak-serialization) scheduler: the Theorem 4
//!   optimum packaged as a practical scheduler.
//! * [`suite`] — one-call construction of the whole scheduler line-up for a
//!   system.
//!
//! ```
//! use ccopt_schedulers::suite::scheduler_suite;
//! use ccopt_core::fixpoint::fixpoint_ratio;
//! use ccopt_model::systems;
//!
//! let sys = systems::fig1();
//! for mut s in scheduler_suite(&sys) {
//!     let r = fixpoint_ratio(s.as_mut(), &sys.format());
//!     assert!((0.0..=1.0).contains(&r));
//! }
//! ```

mod engine;
pub mod sgt;
pub mod suite;
pub mod timestamp;
pub mod weak;

/// 2PL + LRS, packaged.
pub mod two_phase {
    use ccopt_locking::lrs::LrsScheduler;
    use ccopt_locking::policy::LockingPolicy;
    use ccopt_locking::two_phase::TwoPhasePolicy;
    use ccopt_model::system::TransactionSystem;

    /// Build the 2PL lock-manager scheduler for a system: transform the
    /// syntax with the [`TwoPhasePolicy`] and entrust the result to the
    /// lock-respecting scheduler.
    pub fn two_phase_scheduler(sys: &TransactionSystem) -> LrsScheduler {
        LrsScheduler::new(TwoPhasePolicy.transform(&sys.syntax))
    }
}

pub use ccopt_core::scheduler::OnlineScheduler;
pub use engine::EngineScheduler;
pub use sgt::SgtScheduler;
pub use timestamp::TimestampScheduler;
pub use weak::WeakScheduler;
