//! Seeded random transaction-system generation.
//!
//! Used by the property tests ("serial ⊆ CSR ⊆ SR ⊆ WSR ⊆ C on random small
//! systems", engine serializability) and the adversary families in
//! `ccopt-core`.

use crate::expr::{Cond, Expr};
use crate::ic::TrueIc;
use crate::interp::ExprInterpretation;
use crate::syntax::{StepKind, StepSyntax, Syntax, TransactionSyntax};
use crate::system::{StateSpace, TransactionSystem};
use crate::value::Value;
use crate::GlobalState;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Configuration for random system generation.
#[derive(Clone, Debug)]
pub struct RandomConfig {
    /// Number of transactions `n`.
    pub num_txns: usize,
    /// Inclusive range of steps per transaction.
    pub steps_per_txn: (usize, usize),
    /// Number of global variables.
    pub num_vars: usize,
    /// Probability that a step is a pure read (vs update). Writes are
    /// produced with the same probability; the rest are updates.
    pub read_fraction: f64,
    /// Hotspot skew: with this probability a step accesses variable 0.
    pub hot_fraction: f64,
    /// Number of random initial check states.
    pub num_check_states: usize,
    /// Range of initial values.
    pub value_range: (i64, i64),
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            num_txns: 2,
            steps_per_txn: (1, 3),
            num_vars: 2,
            read_fraction: 0.0,
            hot_fraction: 0.0,
            num_check_states: 3,
            value_range: (-4, 4),
        }
    }
}

/// Generate a random transaction system with affine step functions
/// (`a * t_j + b` with small coefficients) and the trivial IC.
///
/// Deterministic in `seed`.
pub fn random_system(cfg: &RandomConfig, seed: u64) -> TransactionSystem {
    let mut rng = SmallRng::seed_from_u64(seed);
    let vars: Vec<String> = (0..cfg.num_vars).map(|i| format!("v{i}")).collect();

    let mut transactions = Vec::with_capacity(cfg.num_txns);
    let mut exprs: Vec<Vec<Expr>> = Vec::with_capacity(cfg.num_txns);
    for i in 0..cfg.num_txns {
        let len = rng.gen_range(cfg.steps_per_txn.0..=cfg.steps_per_txn.1.max(cfg.steps_per_txn.0));
        let mut steps = Vec::with_capacity(len);
        let mut es = Vec::with_capacity(len);
        for j in 0..len {
            let var = if cfg.num_vars > 1 && rng.gen_bool(cfg.hot_fraction) {
                0
            } else {
                rng.gen_range(0..cfg.num_vars)
            };
            let roll: f64 = rng.gen();
            let kind = if roll < cfg.read_fraction {
                StepKind::Read
            } else if roll < 2.0 * cfg.read_fraction {
                StepKind::Write
            } else {
                StepKind::Update
            };
            steps.push(StepSyntax {
                var: crate::ids::VarId(var as u32),
                kind,
            });
            es.push(random_affine(&mut rng, j, kind));
        }
        transactions.push(TransactionSyntax {
            name: format!("T{}", i + 1),
            steps,
        });
        exprs.push(es);
    }

    let syntax = Syntax { vars, transactions };
    let interp = ExprInterpretation::new(exprs);
    debug_assert!(interp.validate(&syntax).is_ok());

    let mut states = Vec::with_capacity(cfg.num_check_states);
    for _ in 0..cfg.num_check_states {
        let g = GlobalState::new(
            (0..cfg.num_vars)
                .map(|_| Value::Int(rng.gen_range(cfg.value_range.0..=cfg.value_range.1)))
                .collect(),
        );
        states.push(g);
    }

    TransactionSystem::new(
        &format!("random-{seed}"),
        syntax,
        Arc::new(interp),
        Arc::new(TrueIc),
        StateSpace::new(states),
    )
}

/// Random affine step function; reads are the identity on the just-read
/// local, writes ignore it.
fn random_affine(rng: &mut SmallRng, j: usize, kind: StepKind) -> Expr {
    match kind {
        StepKind::Read => Expr::Local(j),
        StepKind::Write => {
            // Blind write of a constant, or of an earlier local when present.
            if j > 0 && rng.gen_bool(0.5) {
                let k = rng.gen_range(0..j);
                Expr::add(Expr::Local(k), Expr::Const(rng.gen_range(-2..=2)))
            } else {
                Expr::Const(rng.gen_range(-3..=3))
            }
        }
        StepKind::Update => {
            let a = *[1i64, 1, 1, 2, -1, 3]
                .get(rng.gen_range(0..6usize))
                .expect("non-empty");
            let b = rng.gen_range(-2..=2);
            Expr::add(Expr::mul(Expr::Const(a), Expr::Local(j)), Expr::Const(b))
        }
    }
}

/// A library of tiny expressions used by adversary enumerations in
/// `ccopt-core`: all step functions the Theorem 2 proof draws from
/// (identity, ±1, doubling, constants, and combinations of earlier locals).
pub fn small_step_functions(j: usize) -> Vec<Expr> {
    let mut out = vec![
        Expr::Local(j),                            // identity (read)
        Expr::add(Expr::Local(j), Expr::Const(1)), // x + 1
        Expr::sub(Expr::Local(j), Expr::Const(1)), // x - 1
        Expr::mul(Expr::Const(2), Expr::Local(j)), // 2x
        Expr::Const(0),                            // blind write 0
        Expr::Const(1),                            // blind write 1
    ];
    if j > 0 {
        out.push(Expr::Local(j - 1)); // copy previous local
        out.push(Expr::add(Expr::Local(j - 1), Expr::Local(j)));
    }
    out
}

/// Small integrity-constraint library for adversary enumerations: over
/// variable `v0`, the constraints the paper's proofs use.
pub fn small_ics() -> Vec<Cond> {
    use crate::ids::VarId;
    let x = || Expr::Var(VarId(0));
    vec![
        Cond::Bool(true),
        Cond::Eq(x(), Expr::Const(0)),
        Cond::Ge(x(), Expr::Const(0)),
        Cond::Lt(x(), Expr::Const(2)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;

    #[test]
    fn generation_is_deterministic_in_seed() {
        let cfg = RandomConfig::default();
        let a = random_system(&cfg, 42);
        let b = random_system(&cfg, 42);
        assert_eq!(a.syntax, b.syntax);
        assert_eq!(a.space, b.space);
        let c = random_system(&cfg, 43);
        // Extremely likely to differ somewhere; check the weakest claim that
        // is still deterministic: same config bounds.
        assert_eq!(c.num_txns(), cfg.num_txns);
    }

    #[test]
    fn generated_systems_execute() {
        let cfg = RandomConfig {
            num_txns: 3,
            steps_per_txn: (1, 3),
            num_vars: 2,
            read_fraction: 0.2,
            hot_fraction: 0.3,
            num_check_states: 2,
            value_range: (-2, 2),
        };
        for seed in 0..20 {
            let sys = random_system(&cfg, seed);
            let ex = Executor::new(&sys);
            // Trivial IC: the basic assumption always holds.
            ex.verify_basic_assumption().unwrap();
            // Run some serial order to exercise evaluation.
            for init in &sys.space.initial_states {
                let order: Vec<crate::ids::TxnId> = (0..sys.num_txns())
                    .map(|i| crate::ids::TxnId(i as u32))
                    .collect();
                ex.run_concatenation(init.clone(), &order).unwrap();
            }
        }
    }

    #[test]
    fn format_respects_bounds() {
        let cfg = RandomConfig {
            num_txns: 4,
            steps_per_txn: (2, 2),
            ..RandomConfig::default()
        };
        let sys = random_system(&cfg, 7);
        assert_eq!(sys.format(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn step_function_library_is_usable() {
        for j in 0..3 {
            for e in small_step_functions(j) {
                assert!(e.max_local().unwrap_or(0) <= j);
            }
        }
        assert!(!small_ics().is_empty());
    }

    #[test]
    fn read_fraction_one_yields_reads_and_writes_only() {
        let cfg = RandomConfig {
            read_fraction: 0.5,
            num_txns: 2,
            steps_per_txn: (4, 4),
            ..RandomConfig::default()
        };
        let sys = random_system(&cfg, 11);
        // All kinds valid; reads use identity semantics so executing works.
        Executor::new(&sys).verify_basic_assumption().unwrap();
    }

    #[test]
    fn fractions_shape_the_steps() {
        let base = RandomConfig {
            num_txns: 4,
            steps_per_txn: (4, 4),
            num_vars: 8,
            ..RandomConfig::default()
        };
        let steps = |cfg: &RandomConfig| -> Vec<StepSyntax> {
            let sys = random_system(cfg, 3);
            let all = sys.syntax.transactions.iter().flat_map(|t| &t.steps);
            all.copied().collect()
        };
        let hot = steps(&RandomConfig {
            hot_fraction: 1.0,
            ..base.clone()
        });
        assert!(
            hot.iter().all(|s| s.var.0 == 0),
            "every step hits the hot variable"
        );
        let reads = steps(&RandomConfig {
            read_fraction: 0.45,
            ..base
        });
        assert!(reads.iter().any(|s| s.kind == StepKind::Read));
    }
}
