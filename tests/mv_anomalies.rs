//! The family boundary the paper's information hierarchy predicts, pinned
//! as a regression test: **snapshot isolation admits write skew**, the
//! canonical non-serializable anomaly, while MVTO, strict 2PL and SGT all
//! refuse it on the very same interleaving.
//!
//! The system is the textbook skew pair over `x, y` with disjoint write
//! sets (so SI's first-committer-wins validation never fires):
//!
//! ```text
//! T1: r(x); w(y := x)        T2: r(y); w(x := y)
//! ```
//!
//! From `(x, y) = (0, 1)` the two serial executions produce `(0, 0)` and
//! `(1, 1)`. Run concurrently under SI, both transactions read the initial
//! snapshot and commit `(1, 0)` — a state no serial execution reaches.

use ccopt::engine::cc::{Cc, ConcurrencyControl, MvtoCc, SgtCc, SiCc, Strict2plCc};
use ccopt::engine::db::Database;
use ccopt::model::expr::Expr;
use ccopt::model::ic::TrueIc;
use ccopt::model::ids::TxnId;
use ccopt::model::interp::ExprInterpretation;
use ccopt::model::state::GlobalState;
use ccopt::model::syntax::SyntaxBuilder;
use ccopt::model::system::{StateSpace, TransactionSystem};
use std::sync::Arc;

fn skew_pair() -> TransactionSystem {
    let syntax = SyntaxBuilder::new()
        .vars(["x", "y"])
        .txn("T1", |t| t.read("x").write("y"))
        .txn("T2", |t| t.read("y").write("x"))
        .build();
    let interp = ExprInterpretation::new(vec![
        vec![Expr::Local(0), Expr::Local(0)], // t11 = x; y <- t11
        vec![Expr::Local(0), Expr::Local(0)], // t21 = y; x <- t21
    ]);
    interp.validate(&syntax).expect("skew interpretation");
    TransactionSystem::new(
        "write-skew",
        syntax,
        Arc::new(interp),
        Arc::new(TrueIc),
        StateSpace::from_ints(&[&[0, 1]]),
    )
}

fn serial_states() -> [GlobalState; 2] {
    [
        GlobalState::from_ints(&[0, 0]), // T1 then T2
        GlobalState::from_ints(&[1, 1]), // T2 then T1
    ]
}

/// Drive the crossing interleaving: both transactions read before either
/// writes. Returns the final state once everything committed.
fn run_crossed(cc: Cc) -> (GlobalState, usize) {
    let sys = skew_pair();
    let init = sys.space.initial_states[0].clone();
    let mut db = Database::new(sys, cc, init);
    // r(x) by T1, r(y) by T2, then the writes; aborted or waiting
    // transactions are driven to completion afterwards.
    let _ = db.step(TxnId(0));
    let _ = db.step(TxnId(1));
    let _ = db.step(TxnId(0));
    let _ = db.step(TxnId(1));
    db.run_round_robin(&[TxnId(0), TxnId(1)], 1000)
        .expect("completes");
    (db.globals(), db.metrics.aborts)
}

#[test]
fn snapshot_isolation_admits_write_skew() {
    let (fin, aborts) = run_crossed(Cc::Si(SiCc::default()));
    // Disjoint write sets: first-committer-wins passes both, no aborts.
    assert_eq!(aborts, 0, "SI must admit the skew without restarts");
    // Both read the (0, 1) snapshot: x <- old y = 1, y <- old x = 0.
    assert_eq!(
        fin,
        GlobalState::from_ints(&[1, 0]),
        "SI write skew: both transactions read the initial snapshot"
    );
    assert!(
        !serial_states().contains(&fin),
        "the skew state must not be reachable by any serial execution"
    );
}

#[test]
fn serializable_mechanisms_refuse_write_skew() {
    for cc in [
        Cc::Mvto(MvtoCc::default()),
        Cc::Strict2pl(Strict2plCc::default()),
        Cc::Sgt(SgtCc::default()),
    ] {
        let name = cc.name().to_string();
        let (fin, _) = run_crossed(cc);
        assert!(
            serial_states().contains(&fin),
            "{name} produced non-serial state {fin} on the skew interleaving"
        );
    }
}
