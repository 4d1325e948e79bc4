//! Fault-plan acceptance: scripted shard panics and storage faults
//! injected into live sharded streams. The claims, for every mechanism:
//! the stream still serves fully once the faults stop (liveness), the
//! merged history stays serializable, supervised recoveries preserve the
//! exact committed prefix (asserted inside the simulator after every
//! recovery), and the fault counters surface in the result.

use ccopt_engine::{CcKind, DurabilityMode};
use ccopt_sim::open_sim::{check_serializable, OpenSimConfig};
use ccopt_sim::shard_sim::{
    simulate_sharded_faulty, FaultPlan, ShardDurableConfig, ShardSimConfig,
};

fn base(seed: u64, total: usize) -> OpenSimConfig {
    OpenSimConfig {
        terminals: 4,
        total_txns: total,
        vars: 8,
        seed,
        check: true,
        ..OpenSimConfig::default()
    }
}

#[test]
fn shard_panics_mid_stream_recover_and_the_stream_serves_fully() {
    // Two scripted shard panics against durable logs: the supervisor
    // restarts each crashed shard in place from its write-ahead log
    // (committed-prefix equality asserted inside the simulator after
    // every recovery), the terminals redrive their failed transactions,
    // and the full stream commits and serializes.
    for kind in CcKind::ALL {
        let name = kind.name();
        let dir = ccopt_engine::durability::scratch_path(&format!(
            "sim-fault-panic-{}",
            name.replace('/', "_")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let scfg = ShardSimConfig::new(base(11, 60), 2, 0.4);
        let dur = ShardDurableConfig {
            record_journal: true,
            ..ShardDurableConfig::new(dir.clone(), DurabilityMode::Strict)
        };
        let plan = FaultPlan {
            shard_panics: vec![(15, 0), (35, 1)],
            ..FaultPlan::default()
        };
        let r = simulate_sharded_faulty(kind, &scfg, Some(&dur), &plan);
        assert_eq!(
            r.committed, 60,
            "{name}: the stream must serve fully once the faults stop"
        );
        assert!(
            r.shard_restarts >= 2,
            "{name}: both scripted panics must be supervised (saw {})",
            r.shard_restarts
        );
        if name != "SI" {
            check_serializable(&r).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn volatile_shard_panic_still_leaves_a_live_stream() {
    // Without logs a panic loses the shard's committed data (the
    // documented volatile degradation) so state checks don't apply —
    // but liveness must hold: the supervisor restarts the shard over
    // its initial projection and the stream keeps serving.
    for kind in CcKind::ALL {
        let name = kind.name();
        let scfg = ShardSimConfig::new(
            OpenSimConfig {
                check: false,
                ..base(7, 50)
            },
            2,
            0.3,
        );
        let r = simulate_sharded_faulty(kind, &scfg, None, &FaultPlan::panic_at(20, 1));
        assert_eq!(r.committed, 50, "{name}: liveness after a volatile panic");
        assert!(r.shard_restarts >= 1, "{name}");
    }
}

#[test]
fn transient_storage_faults_are_retried_through_and_counted() {
    // Scripted transient fsync failures on one shard's log: the bounded
    // retry loop absorbs them (no transaction lost, the run completes)
    // and the retries surface in the result.
    for kind in CcKind::ALL {
        let name = kind.name();
        let dir = ccopt_engine::durability::scratch_path(&format!(
            "sim-fault-io-{}",
            name.replace('/', "_")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let scfg = ShardSimConfig::new(base(3, 40), 2, 0.4);
        let dur = ShardDurableConfig::new(dir.clone(), DurabilityMode::Strict);
        let plan = FaultPlan {
            transient_sync_faults: vec![(10, 0, 2), (20, 1, 1)],
            ..FaultPlan::default()
        };
        let r = simulate_sharded_faulty(kind, &scfg, Some(&dur), &plan);
        assert_eq!(r.committed, 40, "{name}: transient faults must not stall");
        assert!(
            r.io_retries >= 3,
            "{name}: scripted transient faults must surface as retries (saw {})",
            r.io_retries
        );
        assert_eq!(r.shard_restarts, 0, "{name}: retries are not crashes");
        if name != "SI" {
            check_serializable(&r).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn panics_and_io_faults_composed_still_serve_and_serialize() {
    // The composed plan: a shard panic and transient storage faults on
    // the surviving shard — graceful degradation end to end on one run.
    for kind in CcKind::ALL {
        let name = kind.name();
        let dir = ccopt_engine::durability::scratch_path(&format!(
            "sim-fault-mixed-{}",
            name.replace('/', "_")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let scfg = ShardSimConfig::new(base(17, 50), 2, 0.35);
        let dur = ShardDurableConfig {
            record_journal: true,
            ..ShardDurableConfig::new(dir.clone(), DurabilityMode::Strict)
        };
        let plan = FaultPlan {
            shard_panics: vec![(25, 0)],
            transient_sync_faults: vec![(10, 1, 2)],
        };
        let r = simulate_sharded_faulty(kind, &scfg, Some(&dur), &plan);
        assert_eq!(r.committed, 50, "{name}: composed faults must not stall");
        assert!(r.shard_restarts >= 1, "{name}");
        if name != "SI" {
            check_serializable(&r).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
