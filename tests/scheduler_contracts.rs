//! Contract tests every online scheduler must satisfy, randomized over
//! systems and histories.

use ccopt::core::scheduler::run_scheduler;
use ccopt::engine::CcKind;
use ccopt::model::random::{random_system, RandomConfig};
use ccopt::schedule::enumerate::sample_schedule;
use ccopt::schedule::graph::{is_csr, is_csr_deferred};
use ccopt::schedule::herbrand::HerbrandCtx;
use ccopt::schedule::sr::is_sr;
use ccopt::schedulers::suite::scheduler_suite;
use ccopt::schedulers::{EngineScheduler, OnlineScheduler};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn cfg() -> RandomConfig {
    RandomConfig {
        num_txns: 3,
        steps_per_txn: (1, 3),
        num_vars: 3,
        read_fraction: 0.2,
        hot_fraction: 0.1,
        num_check_states: 2,
        value_range: (-2, 2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every scheduler's output is a legal schedule (each step once, in
    /// program order), for random histories of random systems: the suite
    /// and the adapter over each of the engine's seven mechanisms.
    #[test]
    fn outputs_are_legal(seed in 0u64..500, hseed in 0u64..500) {
        let sys = random_system(&cfg(), seed);
        let format = sys.format();
        let mut rng = SmallRng::seed_from_u64(hseed);
        let h = sample_schedule(&format, &mut rng);
        let engines = CcKind::ALL.map(|k| {
            Box::new(EngineScheduler::new(k, sys.syntax.clone())) as Box<dyn OnlineScheduler>
        });
        for mut s in scheduler_suite(&sys).into_iter().chain(engines) {
            let run = run_scheduler(s.as_mut(), &h);
            prop_assert!(
                run.output.is_legal(&format),
                "{} emitted illegal output for {h}",
                s.name()
            );
        }
    }

    /// When a run needed no forced flush, syntactic schedulers stay inside
    /// CSR ⊆ SR — the correctness contract of delay-based operation. OCC's
    /// writes take effect in its commit-time write phase, so its outputs
    /// are conflict serializable with each write at its transaction's
    /// final step.
    #[test]
    fn unforced_outputs_are_serializable(seed in 0u64..300, hseed in 0u64..300) {
        let sys = random_system(&cfg(), seed);
        let format = sys.format();
        let ctx = HerbrandCtx::for_system(&sys);
        let mut rng = SmallRng::seed_from_u64(hseed);
        let h = sample_schedule(&format, &mut rng);
        for mut s in scheduler_suite(&sys) {
            if s.name() == "serial" {
                continue; // serial outputs are serial: checked below
            }
            let run = run_scheduler(s.as_mut(), &h);
            if run.forced == 0 {
                let serializable = if s.name() == "OCC" {
                    is_csr_deferred(&sys.syntax, &run.output)
                } else {
                    is_csr(&sys.syntax, &run.output) || is_sr(&ctx, &run.output)
                };
                prop_assert!(
                    serializable,
                    "{} unforced output {} is not serializable (input {h})",
                    s.name(),
                    run.output
                );
            }
        }
    }

    /// The serial scheduler always emits serial schedules.
    #[test]
    fn serial_scheduler_emits_serial(seed in 0u64..300, hseed in 0u64..300) {
        let sys = random_system(&cfg(), seed);
        let format = sys.format();
        let mut rng = SmallRng::seed_from_u64(hseed);
        let h = sample_schedule(&format, &mut rng);
        let mut suite = scheduler_suite(&sys);
        let run = run_scheduler(suite[0].as_mut(), &h);
        prop_assert!(run.output.is_serial());
        prop_assert_eq!(run.forced, 0);
    }

    /// Fixpoint runs reproduce the input exactly.
    #[test]
    fn fixpoints_pass_untouched(seed in 0u64..300) {
        let sys = random_system(&cfg(), seed);
        let format = sys.format();
        // Serial histories are fixpoints of everything in the suite.
        let serial = ccopt::schedule::schedule::Schedule::all_serials(&format)
            .into_iter()
            .next()
            .expect("non-empty");
        for mut s in scheduler_suite(&sys) {
            let run = run_scheduler(s.as_mut(), &serial);
            prop_assert!(run.no_delays, "{} delayed a serial history", s.name());
            prop_assert_eq!(&run.output, &serial);
        }
    }
}
