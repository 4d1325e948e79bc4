//! Sharded open-world acceptance: cross-shard streams serve fully and
//! serialize for every mechanism, `S = 1` reproduces the unsharded
//! simulator exactly, and coordinator crashes at every two-phase-commit
//! boundary recover a consistent committed prefix with no in-doubt
//! transaction left unresolved.

use ccopt_engine::shard::ShardedDb;
use ccopt_engine::{CcKind, DurabilityMode};
use ccopt_model::state::GlobalState;
use ccopt_sim::open_sim::{check_serializable, simulate_open, OpenSimConfig};
use ccopt_sim::shard_sim::{
    simulate_sharded, simulate_sharded_durable, ShardDurableConfig, ShardSimConfig,
};

fn base(seed: u64, total: usize) -> OpenSimConfig {
    OpenSimConfig {
        terminals: 6,
        total_txns: total,
        vars: 12,
        seed,
        check: true,
        ..OpenSimConfig::default()
    }
}

#[test]
fn cross_shard_streams_serve_fully_and_serialize() {
    for seed in [1u64, 7] {
        for kind in CcKind::ALL {
            let name = kind.name();
            let scfg = ShardSimConfig::new(base(seed, 90), 3, 0.35);
            let r = simulate_sharded(kind, &scfg);
            assert_eq!(
                r.committed, 90,
                "{name} seed {seed}: the sharded stream must serve fully \
                 (waits/deadlocks must resolve via the valve)"
            );
            assert_eq!(r.history.len(), 90, "{name} seed {seed}");
            // The serializability oracle applies unchanged to the merged
            // cross-shard history (SI admits write skew by design).
            if name != "SI" {
                check_serializable(&r).unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            }
            // Boundedness: shard tables stay sized to the concurrency
            // level, not the stream length.
            assert!(
                r.peak_slots <= 4 * scfg.base.terminals * scfg.shards,
                "{name} seed {seed}: peak shard slots {} not bounded",
                r.peak_slots
            );
            assert!(r.retires >= r.committed, "{name} seed {seed}");
        }
    }
}

#[test]
fn one_shard_reproduces_the_open_world_simulator_exactly() {
    for kind in CcKind::ALL {
        let name = kind.name();
        let cfg = base(13, 80);
        let open = simulate_open(kind, &cfg);
        let sharded = simulate_sharded(kind, &ShardSimConfig::new(cfg, 1, 0.0));
        assert_eq!(sharded.committed, open.committed, "{name}");
        assert_eq!(sharded.aborts, open.aborts, "{name}");
        assert_eq!(sharded.waits, open.waits, "{name}");
        assert_eq!(sharded.retires, open.retires, "{name}");
        assert_eq!(sharded.mv_write_aborts, open.mv_write_aborts, "{name}");
        assert_eq!(sharded.final_state, open.final_state, "{name}");
        assert_eq!(sharded.latency, open.latency, "{name}");
        assert_eq!(sharded.peak_slots, open.peak_slots, "{name}");
        assert_eq!(
            sharded.peak_open_sessions, open.peak_open_sessions,
            "{name}"
        );
        assert_eq!(
            sharded.peak_live_versions, open.peak_live_versions,
            "{name}"
        );
        assert_eq!(
            sharded.versions_reclaimed, open.versions_reclaimed,
            "{name}"
        );
        assert!(
            (sharded.throughput - open.throughput).abs() == 0.0,
            "{name}: S=1 sharded throughput {} != open-world {}",
            sharded.throughput,
            open.throughput
        );
    }
}

#[test]
fn corrupted_cross_shard_history_fails_the_oracle() {
    // Negative control: the oracle has teeth on sharded histories too.
    let scfg = ShardSimConfig::new(base(3, 60), 3, 0.4);
    let mut r = simulate_sharded(CcKind::Strict2pl, &scfg);
    // Doctor the final state: replay can no longer reproduce it.
    let mut s = r.final_state.0.clone();
    s[0] = ccopt_model::value::Value::Int(123_456);
    r.final_state = GlobalState(s);
    assert!(check_serializable(&r).is_err());
}

#[test]
fn coordinator_crash_at_every_boundary_recovers_a_consistent_prefix() {
    // Strict mode + journal: every committed global state is durable at
    // its commit point except the cross-shard transaction in flight at
    // the crash, which must be all-or-nothing. Sweeping the 2PC action
    // budget kills the coordinator before/after each prepare and around
    // the decision point; the recovered state must equal some journal
    // prefix (no shard-mixed state), and a second recovery must find
    // nothing in doubt.
    for kind in CcKind::ALL {
        let name = kind.name();
        for budget in [0u64, 1, 2, 3, 4, 7, 10] {
            let dir = ccopt_engine::durability::scratch_path(&format!(
                "shard-sim-crash-{budget}-{}",
                name.replace('/', "_")
            ));
            let scfg = ShardSimConfig::new(
                OpenSimConfig {
                    terminals: 4,
                    total_txns: 40,
                    vars: 8,
                    seed: 5,
                    check: false,
                    ..OpenSimConfig::default()
                },
                2,
                0.5,
            );
            let dur = ShardDurableConfig {
                dir: dir.clone(),
                mode: DurabilityMode::Strict,
                crash_after_2pc_actions: Some(budget),
                record_journal: true,
            };
            let r = simulate_sharded_durable(kind, &scfg, &dur);
            assert_eq!(r.committed, 40, "{name} budget {budget}: sim serves fully");
            // Recover and diff against the committed-prefix journal.
            let mut db = ShardedDb::open(
                kind,
                GlobalState::from_ints(&[0; 8]),
                &dir,
                DurabilityMode::Strict,
                2,
                0,
            )
            .unwrap_or_else(|e| panic!("{name} budget {budget}: recovery failed: {e}"));
            let recovered = db.globals();
            let k = r
                .journal
                .iter()
                .position(|s| *s == recovered)
                .unwrap_or_else(|| {
                    panic!(
                        "{name} budget {budget}: recovered state matches no committed prefix \
                         (cross-shard atomicity violated): {recovered}"
                    )
                });
            assert!(k <= r.committed, "{name} budget {budget}");
            drop(db);
            // Nothing stays in doubt: the settlement was written back.
            let db = ShardedDb::open(
                kind,
                GlobalState::from_ints(&[0; 8]),
                &dir,
                DurabilityMode::Strict,
                2,
                0,
            )
            .unwrap();
            let info = db.recovery_info().expect("recovered");
            assert_eq!(
                (info.in_doubt_committed, info.in_doubt_aborted),
                (0, 0),
                "{name} budget {budget}: an in-doubt transaction was left unresolved"
            );
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn durable_sharded_stream_resumes_across_restarts() {
    // Two back-to-back durable runs against the same logs: the second
    // recovers the first's committed state and continues on top.
    let dir = ccopt_engine::durability::scratch_path("shard-sim-resume");
    let scfg = ShardSimConfig::new(
        OpenSimConfig {
            terminals: 4,
            total_txns: 30,
            vars: 10,
            seed: 11,
            ..OpenSimConfig::default()
        },
        2,
        0.3,
    );
    let dur = ShardDurableConfig::new(dir.clone(), DurabilityMode::Strict);
    let first = simulate_sharded_durable(CcKind::Mvto, &scfg, &dur);
    assert_eq!(first.committed, 30);
    let second = simulate_sharded_durable(CcKind::Mvto, &scfg, &dur);
    assert_eq!(second.committed, 30, "the resumed stream serves fully");
    let _ = std::fs::remove_dir_all(&dir);
}
