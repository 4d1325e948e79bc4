//! The multi-version acceptance gap, pinned as a test: under the
//! `long_readers` workload (a few many-step read-only scans over a
//! write-heavy background), MVTO's snapshot reads complete every reader
//! with **zero** waits and **zero** aborts, while the single-version
//! mechanisms make the same readers on the same seeds either block behind
//! writer locks (2PL) or restart on late conflicts (T/O). Also pins the
//! version-store GC invariant: once the run quiesces, the watermark has
//! collapsed every chain back to one version.

use ccopt_engine::cc::{Cc, MvtoCc, Strict2plCc, TimestampCc};
use ccopt_engine::db::Database;
use ccopt_model::ids::TxnId;
use ccopt_sim::workload::long_readers_system;

const READERS: usize = 2;
const VARS: usize = 8;

/// Drive one instantiation for up to `max_rounds` sweeps; return the
/// database, whether it fully committed, and per-reader (attempts, waits).
/// 2PL and T/O may legitimately *fail to finish* here — long scans under
/// restart-immediately round-robin can thrash indefinitely — which is
/// itself part of the gap this file documents.
fn run(cc: Cc, seed: u64, max_rounds: usize) -> (Database, bool, Vec<(u32, u32)>) {
    let sys = long_readers_system(READERS, 10, 6, 4, VARS, seed);
    let init = sys.space.initial_states[0].clone();
    let ids: Vec<TxnId> = (0..sys.num_txns() as u32).map(TxnId).collect();
    let mut db = Database::new(sys, cc, init);
    let done = db.run_round_robin(&ids, max_rounds).is_some();
    let readers = (0..READERS as u32)
        .map(|r| (db.attempts(TxnId(r)), db.waits(TxnId(r))))
        .collect();
    (db, done, readers)
}

#[test]
fn mvto_readers_never_wait_or_abort_while_single_version_readers_do() {
    for seed in [1u64, 2, 3] {
        let (_, done, mvto) = run(Cc::Mvto(MvtoCc::default()), seed, 10_000);
        assert!(done, "MVTO must finish the whole workload (seed {seed})");
        for (r, &(attempts, waits)) in mvto.iter().enumerate() {
            assert_eq!(attempts, 1, "MVTO reader {r} restarted (seed {seed})");
            assert_eq!(waits, 0, "MVTO reader {r} waited (seed {seed})");
        }

        let (_, _, tpl) = run(Cc::Strict2pl(Strict2plCc::default()), seed, 1_000);
        let tpl_disturbed: u32 = tpl.iter().map(|&(a, w)| (a - 1) + w).sum();
        assert!(
            tpl_disturbed > 0,
            "2PL readers ran undisturbed on seed {seed}: {tpl:?}"
        );

        let (_, _, to) = run(Cc::Timestamp(TimestampCc::default()), seed, 1_000);
        let to_disturbed: u32 = to.iter().map(|&(a, w)| (a - 1) + w).sum();
        assert!(
            to_disturbed > 0,
            "T/O readers ran undisturbed on seed {seed}: {to:?}"
        );
    }
}

#[test]
fn gc_keeps_the_version_store_bounded() {
    for seed in [1u64, 2, 3] {
        let (db, done, _) = run(Cc::Mvto(MvtoCc::default()), seed, 10_000);
        assert!(done, "seed {seed}");
        // Writers installed versions throughout the run ...
        assert!(db.metrics.versions_installed > 0, "seed {seed}");
        assert!(db.metrics.max_chain_len >= 2, "seed {seed}");
        // ... and quiescence collapsed every chain to a single version.
        assert_eq!(db.live_versions(), Some(VARS), "seed {seed}");
        assert_eq!(
            db.metrics.versions_reclaimed, db.metrics.versions_installed,
            "seed {seed}: all superseded history must be reclaimed"
        );
    }
}
