//! The long-readers transaction system: the workload where the
//! multi-version vs. single-version gap is widest.

use ccopt_model::expr::Expr;
use ccopt_model::ic::TrueIc;
use ccopt_model::interp::ExprInterpretation;
use ccopt_model::syntax::SyntaxBuilder;
use ccopt_model::system::{StateSpace, TransactionSystem};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// `readers` many-step read-only transactions scanning the variables over
/// a write-heavy background of `writers` short updaters. The readers come
/// first (transaction ids `0..readers`), so multi-version mechanisms give
/// them the oldest snapshots: MVTO readers finish with zero waits and zero
/// aborts while 2PL blocks them behind writer locks and T/O aborts them on
/// late conflicts.
///
/// Each reader strides `read_steps` reads across the `vars` variables
/// (full coverage when `read_steps >= vars`); each writer draws a seeded
/// random `write_steps`-sized footprint of affine updates.
pub fn long_readers_system(
    readers: usize,
    read_steps: usize,
    writers: usize,
    write_steps: usize,
    vars: usize,
    seed: u64,
) -> TransactionSystem {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = SyntaxBuilder::new().vars((0..vars).map(|i| format!("v{i}")));
    let mut exprs: Vec<Vec<Expr>> = Vec::with_capacity(readers + writers);
    for r in 0..readers {
        b = b.txn(&format!("R{}", r + 1), |mut t| {
            for j in 0..read_steps {
                // Stride the scan so every reader covers the whole set.
                t = t.read(&format!("v{}", (r + j) % vars));
            }
            t
        });
        exprs.push((0..read_steps).map(Expr::Local).collect());
    }
    for w in 0..writers {
        let footprint: Vec<usize> = (0..write_steps).map(|_| rng.gen_range(0..vars)).collect();
        b = b.txn(&format!("W{}", w + 1), |mut t| {
            for &v in &footprint {
                t = t.update(&format!("v{v}"));
            }
            t
        });
        exprs.push(
            (0..write_steps)
                .map(|j| {
                    let a = [1i64, 1, 2, -1][rng.gen_range(0..4usize)];
                    let c = rng.gen_range(-2..=2);
                    Expr::add(Expr::mul(Expr::Const(a), Expr::Local(j)), Expr::Const(c))
                })
                .collect(),
        );
    }
    let syntax = b.build();
    let interp = ExprInterpretation::new(exprs);
    debug_assert!(interp.validate(&syntax).is_ok());
    let init: Vec<i64> = vec![0; vars];
    TransactionSystem::new(
        &format!("long-readers-{seed}"),
        syntax,
        Arc::new(interp),
        Arc::new(TrueIc),
        StateSpace::from_ints(&[&init]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_readers_shape_is_readers_then_writers() {
        let sys = long_readers_system(2, 6, 3, 2, 4, 9);
        assert_eq!(sys.num_txns(), 5);
        // Readers first: ids 0..2 are pure reads covering the variable set.
        for t in &sys.syntax.transactions[..2] {
            assert!(t
                .steps
                .iter()
                .all(|s| s.kind == ccopt_model::syntax::StepKind::Read));
            assert_eq!(t.accessed_vars().len(), 4);
        }
        // Writers after: pure updates.
        for t in &sys.syntax.transactions[2..] {
            assert!(t
                .steps
                .iter()
                .all(|s| s.kind == ccopt_model::syntax::StepKind::Update));
        }
        // Deterministic in the seed.
        assert_eq!(long_readers_system(2, 6, 3, 2, 4, 9).syntax, sys.syntax);
        // Executable.
        ccopt_model::exec::Executor::new(&sys)
            .verify_basic_assumption()
            .unwrap();
    }
}
