//! The engine's mechanisms under the paper's yardstick: the fixpoint set
//! `P` of every `CcKind`, enumerated exactly through `EngineScheduler`,
//! against the schedule classes and the order-model schedulers.
//!
//! A history is *strict* when no step touches a variable whose last writer
//! is another, still-unfinished transaction — the engine's `DirtyWait`
//! rule, which the paper's schedulers do not have.

use ccopt::core::fixpoint::fixpoint_set;
use ccopt::engine::CcKind;
use ccopt::model::ids::TxnId;
use ccopt::model::random::{random_system, RandomConfig};
use ccopt::model::system::TransactionSystem;
use ccopt::model::systems;
use ccopt::schedule::enumerate::all_schedules;
use ccopt::schedule::graph::is_csr;
use ccopt::schedule::schedule::Schedule;
use ccopt::schedulers::two_phase::two_phase_scheduler;
use ccopt::schedulers::{EngineScheduler, TimestampScheduler};
use std::collections::BTreeSet;

type Set = BTreeSet<Schedule>;

fn engine_p(kind: CcKind, sys: &TransactionSystem) -> Set {
    let mut s = EngineScheduler::new(kind, sys.syntax.clone());
    fixpoint_set(&mut s, &sys.format())
}

fn is_strict(sys: &TransactionSystem, h: &Schedule) -> bool {
    let syntax = &sys.syntax;
    let mut left: Vec<usize> = syntax.transactions.iter().map(|t| t.steps.len()).collect();
    let mut last_writer: Vec<Option<TxnId>> = vec![None; syntax.num_vars()];
    for &s in h.steps() {
        let step = syntax.step(s);
        if let Some(w) = last_writer[step.var.index()] {
            if w != s.txn && left[w.index()] > 0 {
                return false;
            }
        }
        if step.kind.writes() {
            last_writer[step.var.index()] = Some(s.txn);
        }
        left[s.txn.index()] -= 1;
    }
    true
}

/// Does every step of the system write? Then the engine's strict 2PL
/// takes no shared lock, and its rule is the exclusive-only one the LRS
/// scheduler models.
fn read_free(sys: &TransactionSystem) -> bool {
    sys.syntax
        .transactions
        .iter()
        .all(|t| t.steps.iter().all(|s| s.kind.writes()))
}

/// Assert the theorems on one system; returns `(|CSR|, |CSR ∩ strict|,
/// |P(strict-2PL)|)`.
fn check_theorems(sys: &TransactionSystem) -> (usize, usize, usize) {
    let format = sys.format();
    let name = &sys.name;
    let csr: Set = all_schedules(&format)
        .into_iter()
        .filter(|h| is_csr(&sys.syntax, h))
        .collect();
    let strict = |set: &Set| -> Set { set.iter().filter(|h| is_strict(sys, h)).cloned().collect() };

    let serial = engine_p(CcKind::Serial, sys);
    let two_pl = engine_p(CcKind::Strict2pl, sys);
    let to = engine_p(CcKind::Timestamp, sys);
    let sgt = engine_p(CcKind::Sgt, sys);

    // Theorem 2's optimum at minimum information.
    let serials: Set = Schedule::all_serials(&format).into_iter().collect();
    assert_eq!(serial, serials, "{name}: P(serial) is not the serial set");
    for (kind, p) in [
        ("serial", &serial),
        ("strict-2PL", &two_pl),
        ("T/O", &to),
        ("SGT", &sgt),
    ] {
        assert!(p.is_subset(&csr), "{name}: P({kind}) leaves CSR");
    }
    let csr_strict = strict(&csr);
    assert_eq!(sgt, csr_strict, "{name}: P(SGT) != CSR ∩ strict");
    let order_to = fixpoint_set(&mut TimestampScheduler::new(sys.syntax.clone()), &format);
    assert_eq!(
        to,
        strict(&order_to),
        "{name}: P(T/O) != P(TimestampScheduler) ∩ strict"
    );
    assert!(
        two_pl.is_subset(&csr_strict),
        "{name}: P(strict-2PL) ⊄ CSR ∩ strict"
    );
    // Readers share a lock in the engine, not in the LRS scheduler, so
    // the inclusion is a theorem only where nothing is read.
    if read_free(sys) {
        let lrs = fixpoint_set(&mut two_phase_scheduler(sys), &format);
        assert!(two_pl.is_subset(&lrs), "{name}: P(strict-2PL) ⊄ P(LRS 2PL)");
    }
    (csr.len(), csr_strict.len(), two_pl.len())
}

#[test]
fn t2_systems_pin_every_mechanism() {
    let systems = [
        systems::fig1(),
        systems::fig3_pair(),
        systems::rw_pair(1),
        systems::rw_pair(2),
        systems::hotspot(2, 2),
    ];
    // |P| per mechanism in `CcKind::ALL` order, one column per system.
    let want: [[usize; 5]; 7] = [
        [2, 2, 2, 2, 2],  // serial
        [2, 2, 4, 11, 2], // strict-2PL
        [2, 2, 3, 7, 2],  // T/O
        [2, 2, 2, 2, 2],  // OCC
        [2, 2, 4, 11, 2], // SGT
        [2, 2, 3, 7, 2],  // MVTO
        [2, 2, 2, 2, 2],  // SI
    ];
    let want_csr = [2, 2, 6, 20, 2];
    let want_csr_strict = [2, 2, 4, 11, 2];
    for (i, sys) in systems.iter().enumerate() {
        let (csr, csr_strict, _) = check_theorems(sys);
        assert_eq!(
            (csr, csr_strict),
            (want_csr[i], want_csr_strict[i]),
            "{}",
            sys.name
        );
        for (k, kind) in CcKind::ALL.into_iter().enumerate() {
            assert_eq!(
                engine_p(kind, sys).len(),
                want[k][i],
                "|P({})| on {} (column {i})",
                kind.name(),
                sys.name
            );
        }
    }
}

/// Check the theorems on 25 random systems; returns Σ|P(strict-2PL)|.
fn sweep(read_fraction: f64) -> usize {
    let cfg = RandomConfig {
        num_txns: 3,
        steps_per_txn: (1, 3),
        num_vars: 3,
        read_fraction,
        hot_fraction: 0.2,
        num_check_states: 2,
        value_range: (-2, 2),
    };
    (0..25)
        .map(|seed| check_theorems(&random_system(&cfg, seed)).2)
        .sum()
}

#[test]
fn theorems_hold_on_random_write_only_systems() {
    assert_eq!(sweep(0.0), 775, "Σ|P(strict-2PL)|");
}

#[test]
fn theorems_hold_on_random_write_mostly_systems() {
    assert_eq!(sweep(0.25), 490, "Σ|P(strict-2PL)|");
}

#[test]
fn theorems_hold_on_random_mixed_systems() {
    assert_eq!(sweep(0.5), 664, "Σ|P(strict-2PL)|");
}

#[test]
fn theorems_hold_on_random_read_mostly_systems() {
    assert_eq!(sweep(0.8), 1591, "Σ|P(strict-2PL)|");
}
