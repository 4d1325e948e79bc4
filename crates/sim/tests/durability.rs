//! Crash-recovery acceptance: for all 7 mechanisms (covering both store
//! kinds), killing the write-ahead log at **any** record boundary and
//! recovering yields exactly the committed prefix — globals, version
//! chains and watermark floor — and a corrupted record is detected and
//! truncated, never replayed.
//!
//! The differential works because [`simulate_open_durable`] journals the
//! committed state after every commit: recovery at a boundary where `k`
//! commit records survived must rebuild `journal[k]`, byte for byte.

use ccopt_engine::durability::encoding::{frame_boundaries, HEADER_LEN};
use ccopt_engine::durability::{recover, scratch_path, StoreImage};
use ccopt_engine::{CcKind, DurabilityMode, SessionDb};
use ccopt_sim::open_sim::{simulate_open_durable, DurableConfig, OpenSimConfig, OpenSimResult};
use std::path::Path;

fn cfg(total_txns: usize, seed: u64) -> OpenSimConfig {
    OpenSimConfig {
        terminals: 4,
        total_txns,
        vars: 6,
        steps: (2, 4),
        read_fraction: 0.4,
        hot_fraction: 0.3,
        seed,
        check: true,
        ..OpenSimConfig::default()
    }
}

/// Run one durable stream under `Strict` (every commit on disk) and hand
/// back the result plus the raw log bytes.
fn durable_run(kind: CcKind, seed: u64) -> (OpenSimResult, Vec<u8>, std::path::PathBuf) {
    let name = kind.name();
    let path = scratch_path(&format!("sim-dur-{}", name.replace('/', "_")));
    let r = simulate_open_durable(
        kind,
        &cfg(30, seed),
        &DurableConfig::recording(path.clone(), DurabilityMode::Strict),
    );
    assert_eq!(r.committed, 30, "{name} must serve the whole stream");
    assert_eq!(r.journal.len(), 31, "{name}: journal indexes 0..=commits");
    let bytes = std::fs::read(&path).expect("the log exists");
    (r, bytes, path)
}

/// Recover a byte-prefix of a log and assert it equals the committed
/// prefix recorded in the journal. Returns the recovered commit count.
fn assert_prefix(name: &str, scratch: &Path, bytes: &[u8], r: &OpenSimResult) -> u64 {
    std::fs::write(scratch, bytes).unwrap();
    let rec = recover(scratch)
        .unwrap_or_else(|e| panic!("{name}: recovery must not fail: {e}"))
        .unwrap_or_else(|| panic!("{name}: the initial checkpoint was synced at open"));
    let k = rec.committed as usize;
    assert!(k <= 30, "{name}: recovered more commits than were made");
    assert_eq!(
        rec.image.latest(),
        r.journal[k],
        "{name}: recovery at this boundary is not the {k}-commit prefix"
    );
    if let StoreImage::Multi(chains) = &rec.image {
        // The chains were rebuilt by installing each committed write-set
        // at its logged commit timestamp: per chain strictly ascending,
        // never above the recovered floor, and one version per (commit,
        // distinct written variable) on top of the checkpoint base.
        let expected_installs: usize = r.history[..k]
            .iter()
            .map(|t| {
                let mut vars: Vec<u32> = t
                    .ops
                    .iter()
                    .filter(|(_, op)| op.kind.writes())
                    .map(|(_, op)| op.var.0)
                    .collect();
                vars.sort_unstable();
                vars.dedup();
                vars.len()
            })
            .sum();
        let live: usize = chains.iter().map(Vec::len).sum();
        assert_eq!(
            live,
            chains.len() + expected_installs,
            "{name}: replay must install exactly the committed prefix's versions"
        );
        for chain in chains {
            assert!(chain.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(
                chain.last().unwrap().0 <= rec.floor,
                "{name}: floor below a version"
            );
        }
    }
    rec.committed
}

#[test]
fn crash_at_every_record_boundary_recovers_the_committed_prefix() {
    for kind in CcKind::ALL {
        let name = kind.name();
        let (r, bytes, path) = durable_run(kind, 42);
        let scratch = scratch_path(&format!("sim-cut-{}", name.replace('/', "_")));
        let mut last_k = 0;
        let boundaries = frame_boundaries(&bytes[HEADER_LEN..]);
        assert!(
            boundaries.len() > 60,
            "{name}: the stream must produce a real log"
        );
        for &b in &boundaries {
            let k = assert_prefix(name, &scratch, &bytes[..HEADER_LEN + b], &r);
            assert!(
                k >= last_k,
                "{name}: commit count must grow with the prefix"
            );
            last_k = k;
        }
        assert_eq!(last_k, 30, "{name}: the full log recovers every commit");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&scratch);
    }
}

#[test]
fn torn_tails_mid_record_truncate_cleanly() {
    for kind in [CcKind::Strict2pl, CcKind::Mvto] {
        let name = kind.name();
        let (r, bytes, path) = durable_run(kind, 7);
        let scratch = scratch_path(&format!("sim-torn-{}", name.replace('/', "_")));
        let boundaries = frame_boundaries(&bytes[HEADER_LEN..]);
        // Cut mid-record: a few bytes past each of a sample of boundaries.
        for &b in boundaries.iter().step_by(7) {
            let cut = (HEADER_LEN + b + 3).min(bytes.len());
            assert_prefix(name, &scratch, &bytes[..cut], &r);
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&scratch);
    }
}

/// The negative control of the acceptance criteria: a corrupted record is
/// detected and truncated — never replayed, never a panic.
#[test]
fn corrupted_records_are_detected_and_never_replayed() {
    for kind in [CcKind::Strict2pl, CcKind::Mvto, CcKind::Si] {
        let name = kind.name();
        let (r, bytes, path) = durable_run(kind, 99);
        let scratch = scratch_path(&format!("sim-flip-{}", name.replace('/', "_")));
        let boundaries = frame_boundaries(&bytes[HEADER_LEN..]);
        // Flip one byte inside each of a sample of records (its first
        // payload byte sits 8 bytes past the previous boundary).
        for w in boundaries.windows(2).step_by(5) {
            let (start, end) = (HEADER_LEN + w[0], HEADER_LEN + w[1]);
            let mut bad = bytes.clone();
            bad[(start + 8).min(end - 1)] ^= 0x20;
            let k = assert_prefix(name, &scratch, &bad, &r) as usize;
            // Recovery stopped at (or before) the flipped record: no
            // commit record at or past it was replayed.
            let commits_before: usize = r
                .journal
                .len()
                .saturating_sub(1)
                .min(count_commits(&bytes[HEADER_LEN..HEADER_LEN + w[0]]));
            assert!(
                k <= commits_before,
                "{name}: a commit at/after the corrupt record was replayed ({k} > {commits_before})"
            );
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&scratch);
    }
}

/// Count intact commit records in a record stream (test oracle).
fn count_commits(mut records: &[u8]) -> usize {
    use ccopt_engine::durability::encoding::split_frame;
    use ccopt_engine::durability::recovery::decode_record;
    use ccopt_engine::durability::WalRecord;
    let mut n = 0;
    while let Some((payload, frame)) = split_frame(records) {
        if matches!(decode_record(payload), Some(WalRecord::Commit { .. })) {
            n += 1;
        }
        records = &records[frame..];
    }
    n
}

/// Kill the log at an append boundary *during* the stream (the
/// crash-injection mode of the simulator), then reopen and resume the
/// open-world stream on the recovered state.
#[test]
fn in_sim_crash_injection_recovers_and_resumes() {
    for kind in [CcKind::Strict2pl, CcKind::Timestamp, CcKind::Mvto] {
        let name = kind.name();
        for crash_at in [10u64, 40, 90] {
            let path = scratch_path(&format!("sim-kill-{}", name.replace('/', "_")));
            let r = simulate_open_durable(
                kind,
                &cfg(30, 5),
                &DurableConfig {
                    crash_after_records: Some(crash_at),
                    ..DurableConfig::recording(path.clone(), DurabilityMode::Strict)
                },
            );
            assert_eq!(
                r.committed, 30,
                "{name}: the in-memory stream still completes"
            );
            // Reopen: the recovered state is the committed prefix at the
            // kill boundary.
            let db = SessionDb::open(
                kind.build(),
                ccopt_model::state::GlobalState::from_ints(&[0; 6]),
                &path,
                DurabilityMode::Strict,
            )
            .unwrap_or_else(|e| panic!("{name}: reopen failed: {e}"));
            let info = db.recovery_info().expect("a log was recovered");
            let k = info.committed as usize;
            assert!(
                k < 30,
                "{name}: the kill at record {crash_at} must lose the tail"
            );
            assert_eq!(
                db.globals(),
                r.journal[k],
                "{name}: recovered state is not the committed prefix at the kill point"
            );
            drop(db);
            // Resume the stream on the recovered state: the second run
            // recovers, serves a fresh stream, and its journal starts
            // exactly where recovery left off.
            let r2 = simulate_open_durable(
                kind,
                &cfg(20, 6),
                &DurableConfig::recording(path.clone(), DurabilityMode::Strict),
            );
            assert_eq!(r2.committed, 20, "{name}: the resumed stream must complete");
            assert_eq!(
                r2.journal[0], r.journal[k],
                "{name}: the resumed stream must start from the recovered prefix"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Group commit: the crash loss window is bounded by one batch, and the
/// recovered state is still exactly a committed prefix.
#[test]
fn group_commit_crash_loses_at_most_one_batch() {
    for kind in [CcKind::Strict2pl, CcKind::Mvto] {
        let name = kind.name();
        let path = scratch_path(&format!("sim-group-{}", name.replace('/', "_")));
        let mode = DurabilityMode::Group {
            max_batch: 4,
            max_delay_ticks: u64::MAX,
        };
        // The run ends like a crash: acknowledged commits inside the open
        // batch are intentionally lost.
        let r = simulate_open_durable(
            kind,
            &cfg(30, 11),
            &DurableConfig::recording(path.clone(), mode),
        );
        assert_eq!(r.committed, 30);
        assert!(
            r.wal_syncs < 30 / 2,
            "{name}: group commit must issue far fewer fsyncs than commits ({})",
            r.wal_syncs
        );
        let rec = recover(&path).unwrap().expect("recovers");
        let k = rec.committed as usize;
        assert!(
            (30 - 4..=30).contains(&k),
            "{name}: loss window must be bounded by the batch (recovered {k}/30)"
        );
        assert_eq!(rec.image.latest(), r.journal[k], "{name}: prefix mismatch");
        let _ = std::fs::remove_file(&path);
    }
}

/// Recovered multi-version streams resume: version GC picks up at the
/// recovered watermark floor and collapses the replayed history.
#[test]
fn recovered_mv_streams_gc_the_replayed_history() {
    for kind in [CcKind::Mvto, CcKind::Si] {
        let name = kind.name();
        let path = scratch_path(&format!("sim-mvgc-{}", name.replace('/', "_")));
        let r = simulate_open_durable(
            kind,
            &cfg(30, 23),
            &DurableConfig::recording(path.clone(), DurabilityMode::Strict),
        );
        let r2 = simulate_open_durable(
            kind,
            &cfg(30, 24),
            &DurableConfig::recording(path.clone(), DurabilityMode::Strict),
        );
        assert_eq!(
            r2.journal[0], r.journal[30],
            "{name}: resumes from the prefix"
        );
        assert_eq!(r2.committed, 30, "{name}: the resumed stream completes");
        assert!(
            r2.versions_reclaimed > 0,
            "{name}: GC must reclaim the replayed history once the stream resumes"
        );
        assert!(
            r2.peak_live_versions <= 6 + 30 * 4 + 8,
            "{name}: chains stay bounded after recovery"
        );
        let _ = std::fs::remove_file(&path);
    }
}
