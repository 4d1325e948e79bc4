//! The sharded engine under the open-world oracles.
//!
//! `docs/SHARDING.md` argues that per-shard conflict-serializability
//! composes across shards: by global timestamps (T/O, MVTO), by one
//! global commit order (serial, strict 2PL, OCC), and by SGT's
//! commit-order gate. These tests hold the six serializable mechanisms to
//! that argument: each serves the `throughput` grid's uniform mix over
//! two shards, at two cross-shard ratios, and its committed history must
//! replay serially to the engine's final state (`check_serializable`) and
//! be strict (`check_strict`). Snapshot isolation admits write skew by
//! design and is exempt (`tests/mv_anomalies.rs`).
//!
//! With SGT's commit-order gate off, SGT at x = 0.2 commits a conflict
//! cycle and `check_serializable` fails. The stream is half the grid's
//! length so the six tests stay well under a second in a debug build.

use ccopt::engine::CcKind;
use ccopt::sim::{
    check_serializable, check_strict, simulate_sharded, OpenSimConfig, ShardSimConfig,
};

const SHARDS: usize = 2;
const CROSS_RATIOS: [f64; 2] = [0.2, 0.5];
const TXNS: usize = 320;

/// The `throughput` grid's `open_uniform` mix: 8 terminals over 32
/// variables, half reads, a 10 % hot set.
fn uniform() -> OpenSimConfig {
    OpenSimConfig {
        terminals: 8,
        total_txns: TXNS,
        vars: 32,
        read_fraction: 0.5,
        hot_fraction: 0.1,
        seed: 0xC0FFEE,
        check: true,
        ..OpenSimConfig::default()
    }
}

fn sharded_histories_are_serializable_and_strict(kind: CcKind) {
    let name = kind.name();
    for x in CROSS_RATIOS {
        let r = simulate_sharded(kind, &ShardSimConfig::new(uniform(), SHARDS, x));
        assert_eq!(
            r.committed, TXNS,
            "{name} (S={SHARDS}, x={x}): stream not served"
        );
        assert_eq!(r.history.len(), TXNS, "{name} (S={SHARDS}, x={x}): history");
        check_serializable(&r).unwrap_or_else(|e| panic!("{name} (S={SHARDS}, x={x}): {e}"));
        check_strict(&r).unwrap_or_else(|e| panic!("{name} (S={SHARDS}, x={x}): {e}"));
    }
}

#[test]
fn sharded_serial_is_serializable_and_strict() {
    sharded_histories_are_serializable_and_strict(CcKind::Serial);
}

#[test]
fn sharded_strict_2pl_is_serializable_and_strict() {
    sharded_histories_are_serializable_and_strict(CcKind::Strict2pl);
}

#[test]
fn sharded_timestamp_ordering_is_serializable_and_strict() {
    sharded_histories_are_serializable_and_strict(CcKind::Timestamp);
}

#[test]
fn sharded_occ_is_serializable_and_strict() {
    sharded_histories_are_serializable_and_strict(CcKind::Occ);
}

#[test]
fn sharded_sgt_is_serializable_and_strict() {
    sharded_histories_are_serializable_and_strict(CcKind::Sgt);
}

#[test]
fn sharded_mvto_is_serializable_and_strict() {
    sharded_histories_are_serializable_and_strict(CcKind::Mvto);
}
