//! One-call construction of the scheduler line-up for a system.
//!
//! Experiment T2, the order-level simulator and the examples rank the same
//! schedulers over and over; this module builds them consistently.

use crate::engine::EngineScheduler;
use crate::sgt::SgtScheduler;
use crate::timestamp::TimestampScheduler;
use crate::two_phase::two_phase_scheduler;
use crate::weak::WeakScheduler;
use ccopt_core::scheduler::OnlineScheduler;
use ccopt_engine::CcKind;
use ccopt_model::system::TransactionSystem;

/// All practical schedulers for a system, coarsest information first:
/// serial, 2PL, T/O, OCC, SGT. Serial and OCC are the engine's own
/// mechanisms, run through [`EngineScheduler`].
///
/// The weak-serialization scheduler is *not* included by default because
/// building it enumerates `H` (exponential); add it explicitly via
/// [`with_weak`] for small formats.
pub fn scheduler_suite(sys: &TransactionSystem) -> Vec<Box<dyn OnlineScheduler>> {
    vec![
        Box::new(EngineScheduler::new(CcKind::Serial, sys.syntax.clone())),
        Box::new(two_phase_scheduler(sys)),
        Box::new(TimestampScheduler::new(sys.syntax.clone())),
        Box::new(EngineScheduler::new(CcKind::Occ, sys.syntax.clone())),
        Box::new(SgtScheduler::new(sys.syntax.clone())),
    ]
}

/// The suite plus the weak-serialization scheduler (small formats only).
pub fn with_weak(sys: &TransactionSystem) -> Vec<Box<dyn OnlineScheduler>> {
    let mut v = scheduler_suite(sys);
    v.push(Box::new(WeakScheduler::new(sys)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccopt_core::fixpoint::fixpoint_ratio;
    use ccopt_model::systems;

    #[test]
    fn suite_has_five_schedulers_in_information_order() {
        let sys = systems::fig3_pair();
        let suite = scheduler_suite(&sys);
        assert_eq!(suite.len(), 5);
        assert_eq!(suite[0].name(), "serial");
        assert_eq!(suite[4].name(), "SGT");
        for w in suite.windows(2) {
            assert!(w[1].info().refines(w[0].info()) || w[0].info() == w[1].info());
        }
    }

    #[test]
    fn serial_is_never_better_than_sgt() {
        for sys in [systems::fig1(), systems::fig3_pair(), systems::rw_pair(1)] {
            let mut suite = scheduler_suite(&sys);
            let serial_r = fixpoint_ratio(suite[0].as_mut(), &sys.format());
            let sgt_r = fixpoint_ratio(suite[4].as_mut(), &sys.format());
            assert!(
                serial_r <= sgt_r + 1e-12,
                "{}: serial {serial_r} > SGT {sgt_r}",
                sys.name
            );
        }
    }

    #[test]
    fn with_weak_adds_the_semantic_scheduler() {
        let sys = systems::fig1();
        let suite = with_weak(&sys);
        assert_eq!(suite.len(), 6);
        assert_eq!(suite[5].name(), "weak-serialization");
    }
}
