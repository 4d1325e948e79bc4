//! Open-world sessions: dynamic transactions over recycled dense slots.
//!
//! ```text
//! cargo run --example open_sessions
//! ```
//!
//! Walks the session lifecycle — `begin`, per-operation `read`/`write`/
//! `update`, explicit `commit`/`abort`, retirement — shows an epoch-guarded
//! handle going stale when its slot recycles, a 2PL deadlock surfacing as a
//! transparent in-place restart, and an MVTO session stream whose version
//! store stays GC-bounded while the transaction count runs far past the
//! dense-table capacity.
//!
//! Session errors implement `std::error::Error`, so the example threads
//! them with `?` instead of unwrapping.

use ccopt::engine::cc::{Cc, MvtoCc, Strict2plCc};
use ccopt::engine::session::{Op, SessionDb, SessionError, Txn};
use ccopt::model::ids::VarId;
use ccopt::model::state::GlobalState;
use ccopt::model::value::Value;
use std::error::Error;

fn transfer(
    db: &mut SessionDb,
    h: Txn,
    from: VarId,
    to: VarId,
    amount: i64,
) -> Result<Op<()>, SessionError> {
    // Replay-aware clients drive one operation at a time; a `Restarted`
    // at any point means the CC rolled us back and we start over.
    match db.update(h, from, |v| Value::Int(v.as_int().unwrap() - amount))? {
        Op::Done(_) => {}
        other => return Ok(other.map_done(|_| ())),
    }
    match db.update(h, to, |v| Value::Int(v.as_int().unwrap() + amount))? {
        Op::Done(_) => {}
        other => return Ok(other.map_done(|_| ())),
    }
    db.commit(h)
}

fn main() -> Result<(), Box<dyn Error>> {
    println!("== the session lifecycle (strict 2PL) ==");
    let mut db = SessionDb::new(
        Cc::Strict2pl(Strict2plCc::default()),
        GlobalState::from_ints(&[100, 50]),
    );
    let (a, b) = (VarId(0), VarId(1));

    let t1 = db.begin();
    println!("begin  -> slot {:?}", t1.id());
    assert_eq!(transfer(&mut db, t1, a, b, 30)?, Op::Done(()));
    db.retire(t1)?;
    println!("commit -> balances {} (slot retired)", db.globals());

    // The slot recycles under a fresh epoch; the old handle is dead.
    let t2 = db.begin();
    println!(
        "begin  -> slot {:?} recycled (table still {} slot(s))",
        t2.id(),
        db.num_slots()
    );
    assert_eq!(db.read(t1, a), Err(SessionError::Stale));
    println!("stale handle t1 -> {}", db.read(t1, a).unwrap_err());
    db.abort(t2)?;

    println!("\n== a deadlock becomes a transparent restart ==");
    let x = db.begin();
    let y = db.begin();
    let _ = db.update(x, a, |v| v)?;
    let _ = db.update(y, b, |v| v)?;
    assert_eq!(db.update(x, b, |v| v)?, Op::Wait);
    // y -> a would close the waits-for cycle: y is chosen as the victim
    // and restarts in place; its handle stays valid.
    assert_eq!(db.update(y, a, |v| v)?, Op::Restarted);
    println!(
        "victim restarted in place: attempts(y) = {}",
        db.attempts(y)?
    );
    for h in [x, y] {
        while transfer(&mut db, h, a, b, 1)? != Op::Done(()) {}
        db.retire(h)?;
    }
    println!("both eventually commit: {}", db.globals());

    println!("\n== an unbounded MVTO stream stays bounded ==");
    let mut db = SessionDb::new(Cc::Mvto(MvtoCc::default()), GlobalState::from_ints(&[0, 0]));
    for i in 0..1000u32 {
        let h = db.begin();
        let var = VarId(i % 2);
        let _ = db.update(h, var, |v| Value::Int(v.as_int().unwrap() + 1))?;
        assert_eq!(db.commit(h)?, Op::Done(()));
        db.retire(h)?;
    }
    println!(
        "1000 transactions through {} slot(s); {} versions installed, {} reclaimed, {} live",
        db.num_slots(),
        db.metrics.versions_installed,
        db.metrics.versions_reclaimed,
        db.live_versions().unwrap()
    );
    println!("final state {}", db.globals());
    Ok(())
}
