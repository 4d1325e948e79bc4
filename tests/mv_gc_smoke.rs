//! Tier-1 smoke of the multi-version path at database size: SI and MVTO
//! over 65 536 variables, 32 interleaved sessions, and one long reader
//! that pins its snapshot through the first half of the run.
//!
//! While the reader is open nothing it can see may be reclaimed and its
//! reads must not move; once it retires the history goes, and at
//! quiescence the store is back to one version per variable with every
//! installed version accounted for as reclaimed. Transfers conserve the
//! sum of all variables under both mechanisms (neither loses an update).

use ccopt::engine::cc::{Cc, MvtoCc, SiCc};
use ccopt::engine::session::{Op, SessionDb, Txn};
use ccopt::model::ids::VarId;
use ccopt::model::state::GlobalState;
use ccopt::model::value::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const VARS: usize = 65_536;
const SESSIONS: usize = 32;
/// Transactions per half of the run.
const HALF: usize = 1_500;
const INITIAL: i64 = 100;

/// A small set half of all transfers touch, so chains really grow.
fn hot(i: u32) -> VarId {
    VarId(i * 1021 + 7)
}
const HOT: u32 = 64;

#[derive(Clone, Copy)]
enum Step {
    Read(VarId),
    Add(VarId, i64),
}

/// A read-only scan (one in four) or a transfer between two variables.
fn program(rng: &mut SmallRng) -> Vec<Step> {
    let pick = |rng: &mut SmallRng| {
        if rng.gen_range(0..2u32) == 0 {
            hot(rng.gen_range(0..HOT))
        } else {
            VarId(rng.gen_range(0..VARS as u32))
        }
    };
    if rng.gen_range(0..4u32) == 0 {
        return (0..8).map(|_| Step::Read(pick(rng))).collect();
    }
    let from = pick(rng);
    let to = std::iter::repeat_with(|| pick(rng))
        .find(|&v| v != from)
        .expect("two variables exist");
    let amount = rng.gen_range(1..=9i64);
    vec![Step::Add(from, -amount), Step::Add(to, amount)]
}

fn int(v: Value) -> i64 {
    v.as_int().expect("integer store")
}

/// Run `txns` transactions to commit and retirement, at most [`SESSIONS`]
/// open at a time, one operation per session per sweep; a restarted
/// session replays its program, a waiting one retries next sweep.
fn run(db: &mut SessionDb, rng: &mut SmallRng, txns: usize) {
    struct Session {
        h: Txn,
        prog: Vec<Step>,
        next: usize,
    }
    let mut open: Vec<Session> = Vec::new();
    let (mut started, mut idle_sweeps) = (0, 0);
    while started < txns || !open.is_empty() {
        while open.len() < SESSIONS && started < txns {
            started += 1;
            open.push(Session {
                h: db.begin(),
                prog: program(rng),
                next: 0,
            });
        }
        let mut progressed = false;
        let mut i = 0;
        while i < open.len() {
            let s = &mut open[i];
            let op = match s.prog.get(s.next) {
                Some(&Step::Read(var)) => db.read(s.h, var).map(|op| op.map_done(|_| ())),
                Some(&Step::Add(var, d)) => db
                    .update(s.h, var, |v| Value::Int(int(v) + d))
                    .map(|op| op.map_done(|_| ())),
                None => db.commit(s.h),
            };
            match op.expect("live handle") {
                Op::Done(()) if s.next == s.prog.len() => {
                    db.retire(s.h).expect("committed");
                    open.swap_remove(i);
                    progressed = true;
                    continue;
                }
                Op::Done(()) => s.next += 1,
                Op::Restarted => s.next = 0,
                Op::Wait => {
                    i += 1;
                    continue;
                }
            }
            progressed = true;
            i += 1;
        }
        idle_sweeps = if progressed { 0 } else { idle_sweeps + 1 };
        assert!(idle_sweeps < 1_000, "{}: no session can move", db.cc_name());
    }
}

fn smoke(cc: Cc) {
    let mut db = SessionDb::with_capacity(cc, GlobalState::from_ints(&[INITIAL; VARS]), SESSIONS);
    let name = db.cc_name().to_string();
    let mut rng = SmallRng::seed_from_u64(0x6c_5eed);

    // The long reader takes the oldest snapshot and looks at the hot set.
    let reader = db.begin();
    let look = |db: &mut SessionDb| -> Vec<i64> {
        let seen = (0..HOT).map(|i| match db.read(reader, hot(i)) {
            Ok(Op::Done(v)) => int(v),
            other => panic!("{name}: the oldest reader was answered {other:?}"),
        });
        seen.collect()
    };
    assert_eq!(look(&mut db), [INITIAL; HOT as usize]);

    run(&mut db, &mut rng, HALF);
    let m = db.metrics;
    assert_eq!(m.commits, HALF, "{name}");
    assert!(m.versions_installed > HALF, "{name}: transfers installed");
    assert_eq!(
        m.versions_reclaimed, 0,
        "{name}: the reader pins all history"
    );
    assert_eq!(
        db.live_versions(),
        Some(VARS + m.versions_installed),
        "{name}"
    );
    assert_eq!(
        look(&mut db),
        [INITIAL; HOT as usize],
        "{name}: snapshot moved"
    );
    let newest = db.globals();
    assert!(
        (0..HOT).any(|i| newest.get(hot(i)) != Some(Value::Int(INITIAL))),
        "{name}: the hot set was written behind the reader"
    );

    // Release it half-way: the next watermark advance reclaims the lot.
    assert_eq!(db.commit(reader), Ok(Op::Done(())), "{name}");
    db.retire(reader).expect("committed");
    run(&mut db, &mut rng, HALF);

    let m = db.metrics;
    assert_eq!(m.commits, 2 * HALF + 1, "{name}");
    assert_eq!(db.open_sessions(), 0, "{name}");
    let sum: i64 = db.globals().0.iter().map(|&v| int(v)).sum();
    assert_eq!(sum, INITIAL * VARS as i64, "{name}: transfers conserve");
    let live = db.live_versions().expect("multi-version store");
    assert!(live <= VARS + 2 * SESSIONS, "{name}: {live} live versions");
    assert_eq!(m.versions_reclaimed, m.versions_installed, "{name}");
}

#[test]
fn si_reclaims_everything_once_snapshots_retire() {
    smoke(Cc::Si(SiCc::default()));
}

#[test]
fn mvto_reclaims_everything_once_snapshots_retire() {
    smoke(Cc::Mvto(MvtoCc::default()));
}
