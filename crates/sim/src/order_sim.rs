//! Order-level simulation: random request histories through online
//! schedulers.
//!
//! This measures exactly what Section 6 derives from the fixpoint set:
//! "the probability that none of the transaction steps have to wait is
//! |P|/|H|" and "the richer P is the easier (and hence less waiting
//! required) to rearrange a history originally not in P into one in P".

use ccopt_core::scheduler::{run_scheduler, OnlineScheduler};
use ccopt_schedule::enumerate::sample_schedule;
use rand::Rng;

/// Aggregate delay behaviour of a scheduler under uniform random histories.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelayProfile {
    /// Histories sampled.
    pub samples: usize,
    /// Fraction passed without any delay (estimates `|P|/|H|`).
    pub fixpoint_rate: f64,
    /// Mean number of delayed requests per history.
    pub avg_delayed_requests: f64,
    /// Mean total wait (grant-position minus arrival-position, summed).
    pub avg_total_wait: f64,
}

/// Sample `samples` uniform histories of `format` and run them through the
/// scheduler.
pub fn delay_profile<R: Rng + ?Sized>(
    s: &mut dyn OnlineScheduler,
    format: &[u32],
    samples: usize,
    rng: &mut R,
) -> DelayProfile {
    let mut fix = 0usize;
    let mut delayed = 0usize;
    let mut wait = 0usize;
    for _ in 0..samples {
        let h = sample_schedule(format, rng);
        let run = run_scheduler(s, &h);
        if run.no_delays {
            fix += 1;
        }
        delayed += run.delayed_requests;
        wait += run.total_wait;
    }
    DelayProfile {
        samples,
        fixpoint_rate: fix as f64 / samples as f64,
        avg_delayed_requests: delayed as f64 / samples as f64,
        avg_total_wait: wait as f64 / samples as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccopt_engine::CcKind;
    use ccopt_model::system::TransactionSystem;
    use ccopt_model::systems;
    use ccopt_schedulers::suite::scheduler_suite;
    use ccopt_schedulers::EngineScheduler;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn serial(sys: &TransactionSystem) -> EngineScheduler {
        EngineScheduler::new(CcKind::Serial, sys.syntax.clone())
    }

    #[test]
    fn serial_profile_matches_exact_ratio() {
        let sys = systems::fig3_pair(); // format (2, 2)
        let mut rng = SmallRng::seed_from_u64(1);
        let p = delay_profile(&mut serial(&sys), &sys.format(), 4000, &mut rng);
        // Exact |P|/|H| = 2/6.
        assert!((p.fixpoint_rate - 1.0 / 3.0).abs() < 0.03, "{p:?}");
        assert!(p.avg_total_wait > 0.0);
    }

    #[test]
    fn richer_schedulers_wait_less() {
        let sys = systems::rw_pair(2);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut rates = Vec::new();
        for mut s in scheduler_suite(&sys) {
            let p = delay_profile(s.as_mut(), &sys.format(), 1500, &mut rng);
            rates.push((s.name().to_string(), p.fixpoint_rate, p.avg_total_wait));
        }
        let serial = &rates[0];
        let sgt = &rates[4];
        assert!(serial.1 < sgt.1, "serial {serial:?} vs SGT {sgt:?}");
        assert!(serial.2 > sgt.2, "waiting should shrink with information");
    }

    #[test]
    fn deterministic_under_seed() {
        let sys = systems::fig1(); // format (2, 1)
        let mut r1 = SmallRng::seed_from_u64(9);
        let mut r2 = SmallRng::seed_from_u64(9);
        assert_eq!(
            delay_profile(&mut serial(&sys), &sys.format(), 500, &mut r1),
            delay_profile(&mut serial(&sys), &sys.format(), 500, &mut r2)
        );
    }
}
