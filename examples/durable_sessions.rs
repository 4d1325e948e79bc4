//! Durable sessions: write-ahead logging, group commit, a simulated
//! crash, and recovery.
//!
//! ```text
//! cargo run --example durable_sessions
//! ```
//!
//! Opens a session database with a redo-only write-ahead log, runs a
//! stream of transactions, *crashes* (drops the database without
//! shutdown), reopens the same path, and verifies the recovered globals —
//! under `Strict` everything acknowledged survives; under group commit
//! the crash may cost at most the open batch, which is the deal group
//! commit offers in exchange for one fsync per batch instead of one per
//! commit.

use ccopt::engine::cc::{Cc, MvtoCc, Strict2plCc};
use ccopt::engine::durability::scratch_path;
use ccopt::engine::session::{Op, SessionDb};
use ccopt::engine::DurabilityMode;
use ccopt::model::ids::VarId;
use ccopt::model::state::GlobalState;
use ccopt::model::value::Value;
use std::error::Error;

/// Run `n` increment transactions through the session API.
fn run_stream(db: &mut SessionDb, n: u32) -> Result<(), Box<dyn Error>> {
    for i in 0..n {
        let h = db.begin();
        let var = VarId(i % 2);
        loop {
            match db.update(h, var, |v| Value::Int(v.as_int().unwrap() + 1))? {
                Op::Done(_) => break,
                Op::Wait | Op::Restarted => {}
            }
        }
        while db.commit(h)? != Op::Done(()) {}
        db.retire(h)?;
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let path = scratch_path("durable-sessions-example");
    let init = GlobalState::from_ints(&[0, 0]);

    println!("== strict durability: every commit fsynced ==");
    {
        let mut db = SessionDb::open(
            Cc::Strict2pl(Strict2plCc::default()),
            init.clone(),
            &path,
            DurabilityMode::Strict,
        )?;
        run_stream(&mut db, 50)?;
        println!(
            "50 commits -> {} log records, {} fsyncs, {} bytes; state {}",
            db.metrics.wal_records,
            db.metrics.wal_syncs,
            db.metrics.wal_bytes,
            db.globals()
        );
        // CRASH: drop without shutdown. Nothing is flushed on drop — a
        // durable database dying here is exactly a power failure.
    }
    let mut db = SessionDb::open(
        Cc::Strict2pl(Strict2plCc::default()),
        init.clone(),
        &path,
        DurabilityMode::Strict,
    )?;
    let rec = db.recovery_info().expect("an existing log was recovered");
    println!(
        "recovered {} committed txns (floor {}, torn bytes {}): state {}",
        rec.committed,
        rec.floor,
        rec.truncated_bytes,
        db.globals()
    );
    assert_eq!(db.globals(), GlobalState::from_ints(&[25, 25]));

    println!("\n== the stream resumes on the recovered state ==");
    run_stream(&mut db, 10)?;
    println!("10 more commits -> {}", db.globals());
    db.checkpoint()?; // compact the log to one snapshot record
    println!(
        "checkpointed; log is {} bytes on disk",
        std::fs::metadata(&path)?.len()
    );
    drop(db);
    std::fs::remove_file(&path)?;

    println!("\n== group commit: one fsync per batch, bounded loss window ==");
    let gpath = scratch_path("durable-sessions-group");
    {
        let mut db = SessionDb::open(
            Cc::Mvto(MvtoCc::default()),
            init.clone(),
            &gpath,
            DurabilityMode::group(8),
        )?;
        run_stream(&mut db, 50)?;
        println!(
            "50 commits under group(8) -> only {} fsyncs (strict paid 51)",
            db.metrics.wal_syncs
        );
        // CRASH with up to one batch of acknowledged commits buffered.
    }
    let db = SessionDb::open(
        Cc::Mvto(MvtoCc::default()),
        init,
        &gpath,
        DurabilityMode::group(8),
    )?;
    let rec = db.recovery_info().expect("recovered");
    let total: i64 = db.globals().iter().map(|(_, v)| v.as_int().unwrap()).sum();
    println!(
        "recovered {} of 50 commits: state {} (lost at most one batch: {} >= 42)",
        rec.committed,
        db.globals(),
        total
    );
    assert!(rec.committed >= 42 && rec.committed <= 50);
    assert_eq!(total, rec.committed as i64);
    drop(db);
    std::fs::remove_file(&gpath)?;
    Ok(())
}
