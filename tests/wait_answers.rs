//! Pinned wait and abort answers, mechanism by mechanism.
//!
//! One seeded stream — 32 sessions served round-robin over a 16-variable
//! hot set, every session running a fixed number of short transactions —
//! is replayed on every `CcKind`, once untraced and once traced. Both runs
//! must land on the exact figures pinned below: the counters
//! (`waits`, `aborts_by_rule`, `steps_executed`, `commits`), the
//! contention table (`top_contended(8)`), the committed state, and a
//! digest of every traced `Wait` / `Abort` event (txn, rule, variable,
//! opponent).
//!
//! Most answers on this stream are repeated waits: a session that was
//! told `Wait` asks again on its next turn. The engine answers those
//! through cheaper paths than a first wait (a waits-for edge that already
//! stands is not walked again; an untraced step wait is booked against
//! its own variable without reading the attribution back). The pins say
//! those paths decide, attribute and count exactly what the full walk and
//! the read-back did. Run it on release builds too — the fast paths'
//! `debug_assert!`s vanish there:
//!
//! ```sh
//! cargo test --release -q --test wait_answers
//! ```

use ccopt::engine::trace::EventKind;
use ccopt::engine::{CcKind, ConflictRule, Metrics, Op, SessionDb, TraceConfig, TraceHub, Txn};
use ccopt::model::ids::VarId;
use ccopt::model::state::GlobalState;
use ccopt::model::syntax::StepKind;
use ccopt::model::value::Value;
use ConflictRule::{
    Deadlock, MvWriteTooLate, OccValidation, ReadTooLate, SgtCycle, SiFirstCommitter,
    SiFirstUpdater, WaitDepth, WriteTooLate,
};

const SESSIONS: usize = 32;
const VARS: usize = 16;
const TXNS_PER_SESSION: usize = 6;
const OPS_PER_TXN: usize = 4;
const SEED: u64 = 0x5EED_0037;
/// Most rounds a restarted session sits out (its attempt count, capped).
const BACKOFF_CAP: usize = 32;
/// Rounds after which the stream is declared stuck.
const MAX_ROUNDS: usize = 100_000;

/// SplitMix64: the stream's only source of randomness, kept here so the
/// pinned figures depend on nothing outside this file and the engine.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One transaction: `OPS_PER_TXN` accesses, mostly `+1` updates.
fn gen_txn(rng: &mut Mix) -> Vec<(VarId, StepKind)> {
    (0..OPS_PER_TXN)
        .map(|_| {
            let var = VarId(rng.below(VARS as u64) as u32);
            let kind = match rng.below(8) {
                0 | 1 => StepKind::Read,
                2 => StepKind::Write,
                _ => StepKind::Update,
            };
            (var, kind)
        })
        .collect()
}

fn step(db: &mut SessionDb, h: Txn, (var, kind): (VarId, StepKind)) -> Op<Value> {
    let f = |v: Value| match v {
        Value::Int(i) => Value::Int(i + 1),
        other => other,
    };
    let op = match kind {
        StepKind::Read => db.read(h, var),
        StepKind::Write => db.write(h, var, Value::Int(100 + i64::from(var.0))),
        StepKind::Update => db.update(h, var, f),
    };
    op.expect("live handle")
}

struct Session {
    txns: Vec<Vec<(VarId, StepKind)>>,
    /// Index of the running transaction in `txns`.
    cur: usize,
    /// Next op of the running transaction (`OPS_PER_TXN` = commit next).
    next: usize,
    h: Option<Txn>,
    /// Rounds left to sit out after a restart.
    backoff: usize,
}

/// Everything a run is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    metrics: Metrics,
    top: Vec<(u32, usize, usize)>,
    committed: Vec<i64>,
    /// `(number of Wait events, number of Abort events, digest)`; zeros
    /// on the untraced run.
    events: (usize, usize, u64),
}

/// Replay the stream on `kind`. Each round gives every unfinished session
/// one request (its next op, or its commit); `Restarted` replays the
/// transaction from its first op after sitting out as many rounds as it
/// has attempts (capped), which breaks restart ping-pong. A `Restarted`
/// answer is progress: the mechanism broke a conflict. A round in which
/// nobody progressed — every session waiting — restarts the first
/// unfinished session (the drivers' live-lock valve; no pinned stream
/// needs it).
fn run(kind: CcKind, traced: bool) -> Outcome {
    let mut rng = Mix(SEED);
    let mut sessions: Vec<Session> = (0..SESSIONS)
        .map(|_| Session {
            txns: (0..TXNS_PER_SESSION).map(|_| gen_txn(&mut rng)).collect(),
            cur: 0,
            next: 0,
            h: None,
            backoff: 0,
        })
        .collect();
    let mut db = SessionDb::new(kind.build(), GlobalState::from_ints(&[0; VARS]));
    let hub = traced.then(|| TraceHub::new(&TraceConfig::ring(1 << 20)).expect("ring-only hub"));
    if let Some(hub) = &hub {
        db.set_tracer(hub.tracer(0));
    }
    let mut rounds = 0;
    while sessions.iter().any(|s| s.cur < TXNS_PER_SESSION) {
        rounds += 1;
        assert!(
            rounds < MAX_ROUNDS,
            "{}: the stream did not finish",
            kind.name()
        );
        let mut progressed = false;
        for s in sessions.iter_mut().filter(|s| s.cur < TXNS_PER_SESSION) {
            if s.backoff > 0 {
                s.backoff -= 1;
                progressed = true;
                continue;
            }
            let h = *s.h.get_or_insert_with(|| db.begin());
            let answer = if s.next < OPS_PER_TXN {
                step(&mut db, h, s.txns[s.cur][s.next]).map_done(|_| ())
            } else {
                db.commit(h).expect("live handle")
            };
            match answer {
                Op::Done(()) if s.next == OPS_PER_TXN => {
                    db.retire(h).expect("committed handle");
                    s.h = None;
                    s.cur += 1;
                    s.next = 0;
                    progressed = true;
                }
                Op::Done(()) => {
                    s.next += 1;
                    progressed = true;
                }
                Op::Restarted => {
                    s.next = 0;
                    progressed = true;
                    let attempts = db.attempts(h).expect("live handle") as usize;
                    s.backoff = attempts.min(BACKOFF_CAP);
                }
                Op::Wait => {}
            }
        }
        if !progressed {
            let s = sessions
                .iter_mut()
                .find(|s| s.cur < TXNS_PER_SESSION)
                .expect("an unfinished session");
            db.restart(s.h.expect("a stuck session holds a handle"))
                .expect("live handle");
            s.next = 0;
        }
    }
    let committed = db
        .committed_globals()
        .0
        .iter()
        .map(|v| match v {
            Value::Int(i) => *i,
            other => panic!("non-integer committed value {other:?}"),
        })
        .collect();
    Outcome {
        metrics: db.metrics,
        top: db
            .top_contended(8)
            .iter()
            .map(|r| (r.var.0, r.waits, r.aborts))
            .collect(),
        committed,
        events: hub.map_or((0, 0, 0), |hub| digest(&hub)),
    }
}

/// FNV-1a over every `Wait` and `Abort` event, in trace order.
fn digest(hub: &TraceHub) -> (usize, usize, u64) {
    let (mut waits, mut aborts) = (0, 0);
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for e in hub.merged_events() {
        let (tag, txn, rule, var, opponent) = match e.kind {
            EventKind::Wait {
                txn,
                rule,
                var,
                opponent,
            } => {
                waits += 1;
                (1, txn, rule, var, opponent)
            }
            EventKind::Abort {
                txn,
                rule,
                var,
                opponent,
            } => {
                aborts += 1;
                (2, txn, rule, var, opponent)
            }
            _ => continue,
        };
        mix(tag);
        mix(txn);
        mix(rule.index() as u64);
        mix(var.map_or(u64::MAX, u64::from));
        mix(opponent.unwrap_or(u64::MAX));
    }
    (waits, aborts, h)
}

/// The pinned figures of one mechanism, captured from the engine that
/// walked every waits-for edge and read every attribution back.
struct Pin {
    kind: CcKind,
    waits: usize,
    /// Non-zero entries of `aborts_by_rule` (a `Client` abort would be
    /// the live-lock valve's restart).
    aborts: &'static [(ConflictRule, usize)],
    steps_executed: usize,
    /// `(var, waits, aborts)` rows of `top_contended(8)`.
    top: [(u32, usize, usize); 8],
    committed: [i64; VARS],
    /// `(Wait events, Abort events, digest)` of the traced run.
    events: (usize, usize, u64),
}

const PINS: [Pin; 7] = [
    Pin {
        kind: CcKind::Serial,
        waits: 21824,
        aborts: &[],
        steps_executed: 768,
        top: [
            (5, 2268, 0),
            (2, 2248, 0),
            (11, 1780, 0),
            (3, 1528, 0),
            (1, 1488, 0),
            (14, 1364, 0),
            (4, 1244, 0),
            (8, 1240, 0),
        ],
        committed: [
            102, 115, 104, 104, 121, 105, 107, 111, 111, 116, 112, 118, 112, 114, 115, 115,
        ],
        events: (21824, 0, 3305239033559716261),
    },
    Pin {
        kind: CcKind::Strict2pl,
        waits: 7294,
        aborts: &[(Deadlock, 211), (WaitDepth, 771)],
        steps_executed: 1820,
        top: [
            (6, 1421, 59),
            (5, 737, 81),
            (2, 675, 86),
            (11, 555, 133),
            (1, 553, 79),
            (3, 484, 86),
            (7, 403, 77),
            (14, 402, 67),
        ],
        committed: [
            102, 113, 102, 112, 117, 105, 107, 115, 108, 111, 112, 116, 114, 114, 124, 123,
        ],
        events: (7294, 982, 16104932832629947206),
    },
    Pin {
        kind: CcKind::Timestamp,
        waits: 880,
        aborts: &[(ReadTooLate, 536), (WriteTooLate, 159)],
        steps_executed: 1437,
        top: [
            (6, 219, 84),
            (1, 78, 92),
            (12, 95, 72),
            (4, 113, 32),
            (15, 59, 77),
            (11, 35, 66),
            (14, 44, 38),
            (7, 43, 32),
        ],
        committed: [
            104, 106, 104, 110, 108, 108, 120, 115, 113, 109, 113, 115, 124, 114, 120, 121,
        ],
        events: (880, 695, 2570337098491896338),
    },
    Pin {
        kind: CcKind::Occ,
        waits: 0,
        aborts: &[(OccValidation, 759)],
        steps_executed: 3804,
        top: [
            (5, 0, 122),
            (1, 0, 71),
            (6, 0, 70),
            (13, 0, 58),
            (14, 0, 56),
            (15, 0, 56),
            (7, 0, 44),
            (12, 0, 42),
        ],
        committed: [
            110, 104, 103, 108, 109, 106, 107, 107, 113, 109, 110, 115, 114, 114, 114, 135,
        ],
        events: (0, 759, 13162301903483667749),
    },
    Pin {
        kind: CcKind::Sgt,
        waits: 19310,
        aborts: &[(Deadlock, 402), (SgtCycle, 112)],
        steps_executed: 1792,
        top: [
            (2, 3326, 51),
            (12, 3005, 56),
            (6, 2167, 37),
            (15, 1506, 39),
            (10, 1203, 26),
            (1, 1173, 37),
            (5, 1044, 29),
            (11, 932, 34),
        ],
        committed: [
            105, 103, 103, 106, 113, 106, 109, 111, 108, 114, 114, 113, 114, 116, 115, 118,
        ],
        events: (19310, 514, 4968599914508275911),
    },
    Pin {
        kind: CcKind::Mvto,
        waits: 881,
        aborts: &[(MvWriteTooLate, 589)],
        steps_executed: 1338,
        top: [
            (6, 261, 87),
            (4, 126, 50),
            (1, 72, 53),
            (12, 75, 38),
            (11, 46, 37),
            (3, 27, 49),
            (15, 24, 48),
            (7, 35, 36),
        ],
        committed: [
            101, 102, 103, 105, 107, 111, 113, 108, 125, 111, 111, 116, 112, 127, 127, 121,
        ],
        events: (881, 589, 5250961279542397785),
    },
    Pin {
        kind: CcKind::Si,
        waits: 0,
        aborts: &[(SiFirstUpdater, 722), (SiFirstCommitter, 100)],
        steps_executed: 1872,
        top: [
            (6, 0, 118),
            (13, 0, 116),
            (4, 0, 80),
            (14, 0, 69),
            (1, 0, 62),
            (5, 0, 60),
            (11, 0, 51),
            (15, 0, 45),
        ],
        committed: [
            102, 108, 111, 110, 123, 105, 106, 117, 112, 114, 117, 120, 119, 117, 114, 118,
        ],
        events: (0, 822, 18202269053455472914),
    },
];

#[test]
fn every_mechanism_answers_the_pinned_waits_and_aborts() {
    for (pin, kind) in PINS.iter().zip(CcKind::ALL) {
        assert_eq!(pin.kind, kind, "pins are in `CcKind::ALL` order");
        let name = kind.name();
        let plain = run(kind, false);
        let traced = run(kind, true);
        let m = plain.metrics;
        assert_eq!(m.commits, SESSIONS * TXNS_PER_SESSION, "{name}: commits");
        assert_eq!(m.waits, pin.waits, "{name}: waits");
        let mut aborts = [0; ConflictRule::COUNT];
        for &(rule, n) in pin.aborts {
            aborts[rule.index()] = n;
        }
        assert_eq!(m.aborts_by_rule, aborts, "{name}: aborts_by_rule");
        assert_eq!(
            m.steps_executed, pin.steps_executed,
            "{name}: steps_executed"
        );
        assert_eq!(plain.top, pin.top, "{name}: top_contended(8)");
        assert_eq!(plain.committed, pin.committed, "{name}: committed state");
        assert_eq!(
            traced.events, pin.events,
            "{name}: traced Wait/Abort digest"
        );
        assert_eq!(
            Outcome {
                events: plain.events,
                ..traced
            },
            plain,
            "{name}: tracing moved a decision or a counter"
        );
    }
}
