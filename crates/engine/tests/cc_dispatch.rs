//! The closed mechanism enum and the call shapes `benchmark/` drives it
//! through.
//!
//! `benchmark/` is its own cargo package and builds only in its own
//! smoke, so a change to the engine's mechanism API could break it while
//! every workspace test stays green. This suite spells out the three
//! shapes it uses — the per-layer ladder's `&mut dyn ConcurrencyControl`
//! through `as_mut()`, `SessionDb::with_capacity(cc_by_name(..)..)` and
//! `ShardedDb::with_capacity(&|| cc_by_name(..)..)` — for every
//! mechanism, and commits one transaction through each.

use ccopt_engine::{
    affine_eval, cc_by_name, BatchOp, Cc, CcDecision, CcKind, ConcurrencyControl, GroupReq, Op,
    SessionDb, ShardedDb,
};
use ccopt_model::ids::{TxnId, VarId};
use ccopt_model::state::GlobalState;
use ccopt_model::syntax::StepKind;

const VARS: usize = 4;

fn zeros() -> GlobalState {
    GlobalState::from_ints(&[0; VARS])
}

/// The ladder's shape: hooks driven directly through a trait object.
fn lone_txn_through_dyn(cc: &mut dyn ConcurrencyControl) -> Result<(), String> {
    cc.prepare(1, VARS);
    let t = TxnId(0);
    cc.begin(t, 0);
    for v in 0..VARS as u32 {
        if cc.on_step(t, VarId(v), StepKind::Update) != CcDecision::Proceed {
            return Err(format!("{}: a lone step was not let through", cc.name()));
        }
    }
    if cc.on_commit(t, 1) != CcDecision::Proceed {
        return Err(format!("{}: a lone commit was refused", cc.name()));
    }
    cc.after_commit(t);
    if !cc.retire(t) {
        return Err(format!("{}: a lone commit kept its slot", cc.name()));
    }
    Ok(())
}

#[test]
fn build_makes_the_matching_variant_and_names_round_trip() {
    for kind in CcKind::ALL {
        let cc = kind.build();
        let matches = matches!(
            (kind, &cc),
            (CcKind::Serial, Cc::Serial(_))
                | (CcKind::Strict2pl, Cc::Strict2pl(_))
                | (CcKind::Timestamp, Cc::Timestamp(_))
                | (CcKind::Occ, Cc::Occ(_))
                | (CcKind::Sgt, Cc::Sgt(_))
                | (CcKind::Mvto, Cc::Mvto(_))
                | (CcKind::Si, Cc::Si(_))
        );
        assert!(matches, "{kind:?} built {cc:?}");
        assert_eq!(cc.name(), kind.name());
        assert_eq!(CcKind::from_name(kind.name()), Some(kind));
    }
}

/// `Cc`'s impl forwards every hook, so no default body of the trait
/// answers in place of a mechanism's override: each query reads the
/// same through the enum as through the mechanism it wraps.
#[test]
fn the_enum_answers_every_query_as_its_mechanism() {
    let t = TxnId(0);
    let query = |cc: &dyn ConcurrencyControl| {
        let views = (cc.read_view(t), cc.commit_view(t), cc.gc_watermark());
        let kinds = (cc.defers_writes(), cc.multiversion(), cc.last_conflict());
        (cc.name().to_owned(), views, kinds)
    };
    for kind in CcKind::ALL {
        let mut cc = kind.build();
        cc.begin_at(t, 0, 7);
        let inner: &dyn ConcurrencyControl = match &cc {
            Cc::Serial(m) => m,
            Cc::Strict2pl(m) => m,
            Cc::Timestamp(m) => m,
            Cc::Occ(m) => m,
            Cc::Sgt(m) => m,
            Cc::Mvto(m) => m,
            Cc::Si(m) => m,
        };
        assert_eq!(query(&cc), query(inner), "{kind:?}");
    }
}

#[test]
fn the_ladders_dyn_shape_commits_a_lone_transaction() {
    for kind in CcKind::ALL {
        let mut cc = cc_by_name(kind.name()).expect("canonical mechanism name");
        lone_txn_through_dyn(cc.as_mut()).unwrap();
    }
}

#[test]
fn the_session_shape_commits_a_lone_transaction() {
    for kind in CcKind::ALL {
        let mut db =
            SessionDb::with_capacity(cc_by_name(kind.name()).expect("canonical name"), zeros(), 1);
        let h = db.begin();
        for v in 0..VARS as u32 {
            let r = db.update(h, VarId(v), |x| affine_eval(1, 1, x));
            assert!(matches!(r, Ok(Op::Done(_))), "{kind:?}: {r:?}");
        }
        assert_eq!(db.commit(h), Ok(Op::Done(())), "{kind:?}");
        db.retire(h).unwrap();
        assert_eq!(db.globals(), GlobalState::from_ints(&[1; VARS]), "{kind:?}");
    }
}

#[test]
fn the_sharded_factory_shape_commits_a_lone_transaction() {
    for kind in CcKind::ALL {
        let make_cc = || cc_by_name(kind.name()).expect("canonical name");
        assert_eq!(CcKind::from(&make_cc), kind);
        let mut db = ShardedDb::with_capacity(&make_cc, zeros(), 2, 1);
        let ops = (0..VARS as u32)
            .map(|v| BatchOp::Affine {
                var: VarId(v),
                a: 1,
                c: 1,
            })
            .collect();
        let h = db.begin();
        let resp = db.submit_group(vec![GroupReq {
            h,
            ops,
            commit: true,
        }]);
        assert!(
            matches!(resp[0].commit, Some(Ok(Op::Done(())))),
            "{kind:?}: {resp:?}"
        );
        assert_eq!(db.committed_globals(), GlobalState::from_ints(&[1; VARS]));
        assert_eq!(db.metrics().commits, 1, "{kind:?}");
    }
}
