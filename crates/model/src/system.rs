//! The full transaction system: syntax + interpretation + integrity
//! constraints, plus the finite state space used for correctness checking.

use crate::ic::{IntegrityConstraint, TrueIc};
use crate::ids::Format;
use crate::interp::{HerbrandInterpretation, Interpretation};
use crate::state::GlobalState;
use crate::syntax::Syntax;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A finite set of initial global states over which correctness is decided.
///
/// The paper's domains are enumerable and possibly infinite; deciding
/// "maps every consistent state to a consistent state" is then undecidable
/// in general. We follow the standard reproduction tactic: correctness is
/// checked over a finite, explicitly supplied set of consistent initial
/// states (all the paper's examples have natural finite check sets).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StateSpace {
    /// The initial states to check from; each should be consistent.
    pub initial_states: Vec<GlobalState>,
}

impl StateSpace {
    /// Build from explicit states.
    pub fn new(initial_states: Vec<GlobalState>) -> Self {
        StateSpace { initial_states }
    }

    /// Build from integer tuples.
    pub fn from_ints(tuples: &[&[i64]]) -> Self {
        StateSpace {
            initial_states: tuples.iter().map(|t| GlobalState::from_ints(t)).collect(),
        }
    }

    /// Enumerate the full grid `range^num_vars`, keeping states accepted by
    /// `ic`. Suitable for small domains only.
    pub fn enumerate_grid(
        num_vars: usize,
        range: std::ops::RangeInclusive<i64>,
        ic: &dyn IntegrityConstraint,
    ) -> Self {
        let values: Vec<i64> = range.collect();
        let mut states = Vec::new();
        let mut cursor = vec![0usize; num_vars];
        'outer: loop {
            let g = GlobalState::new(cursor.iter().map(|&i| Value::Int(values[i])).collect());
            if ic.is_consistent(&g) {
                states.push(g);
            }
            // Odometer increment.
            for slot in cursor.iter_mut() {
                *slot += 1;
                if *slot < values.len() {
                    continue 'outer;
                }
                *slot = 0;
            }
            break;
        }
        if num_vars == 0 {
            states.clear();
        }
        StateSpace {
            initial_states: states,
        }
    }

    /// Number of initial states.
    pub fn len(&self) -> usize {
        self.initial_states.len()
    }

    /// True when there are no check states.
    pub fn is_empty(&self) -> bool {
        self.initial_states.is_empty()
    }
}

/// A complete transaction system: the paper's `(syntax, semantics, IC)`
/// triple together with the finite check space.
#[derive(Clone)]
pub struct TransactionSystem {
    /// The syntax (complete syntactic information).
    pub syntax: Syntax,
    /// Interpretation of the function symbols.
    pub interp: Arc<dyn Interpretation>,
    /// Integrity constraints.
    pub ic: Arc<dyn IntegrityConstraint>,
    /// Consistent initial states used to decide correctness.
    pub space: StateSpace,
    /// Display name.
    pub name: String,
}

impl TransactionSystem {
    /// Assemble a system. Panics when syntax validation fails.
    pub fn new(
        name: &str,
        syntax: Syntax,
        interp: Arc<dyn Interpretation>,
        ic: Arc<dyn IntegrityConstraint>,
        space: StateSpace,
    ) -> Self {
        if let Err(e) = syntax.validate() {
            panic!("invalid transaction system {name}: {e}");
        }
        TransactionSystem {
            syntax,
            interp,
            ic,
            space,
            name: name.to_string(),
        }
    }

    /// The format `(m_1, ..., m_n)`.
    pub fn format(&self) -> Format {
        self.syntax.format()
    }

    /// Number of transactions.
    pub fn num_txns(&self) -> usize {
        self.syntax.num_txns()
    }

    /// Replace the semantics with the canonical Herbrand interpretation and
    /// the trivial IC, keeping the syntax — this is "the same syntax, free
    /// semantics" companion system used throughout Section 4.2.
    pub fn herbrandized(&self) -> (TransactionSystem, Arc<HerbrandInterpretation>) {
        let h = Arc::new(HerbrandInterpretation::for_syntax(&self.syntax));
        let sys = TransactionSystem {
            syntax: self.syntax.clone(),
            interp: h.clone(),
            ic: Arc::new(TrueIc),
            space: StateSpace::default(),
            name: format!("{}+herbrand", self.name),
        };
        (sys, h)
    }

    /// A copy of this system with a different integrity constraint
    /// (information-level experiments vary IC while fixing the rest).
    pub fn with_ic(&self, ic: Arc<dyn IntegrityConstraint>, space: StateSpace) -> Self {
        TransactionSystem {
            syntax: self.syntax.clone(),
            interp: Arc::clone(&self.interp),
            ic,
            space,
            name: self.name.clone(),
        }
    }

    /// A copy with a different interpretation.
    pub fn with_interp(&self, interp: Arc<dyn Interpretation>) -> Self {
        TransactionSystem {
            syntax: self.syntax.clone(),
            interp,
            ic: Arc::clone(&self.ic),
            space: self.space.clone(),
            name: self.name.clone(),
        }
    }
}

impl fmt::Debug for TransactionSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransactionSystem")
            .field("name", &self.name)
            .field("format", &self.format())
            .field("interp", &self.interp.name())
            .field("ic", &self.ic.describe())
            .field("check_states", &self.space.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Cond, Expr};
    use crate::ic::CondIc;
    use crate::ids::VarId;
    use crate::interp::ExprInterpretation;
    use crate::syntax::SyntaxBuilder;

    fn tiny() -> TransactionSystem {
        let syntax = SyntaxBuilder::new().txn("T1", |t| t.update("x")).build();
        let interp = ExprInterpretation::new(vec![vec![Expr::add(Expr::Local(0), Expr::Const(1))]]);
        interp.validate(&syntax).unwrap();
        TransactionSystem::new(
            "tiny",
            syntax,
            Arc::new(interp),
            Arc::new(TrueIc),
            StateSpace::from_ints(&[&[0]]),
        )
    }

    #[test]
    fn system_accessors() {
        let s = tiny();
        assert_eq!(s.format(), vec![1]);
        assert_eq!(s.num_txns(), 1);
        assert_eq!(s.space.len(), 1);
    }

    #[test]
    fn herbrandized_shares_syntax() {
        let s = tiny();
        let (h, interp) = s.herbrandized();
        assert_eq!(h.syntax, s.syntax);
        assert_eq!(h.interp.name(), "herbrand");
        // The returned handle is the same interpretation object.
        let t = interp.init_term(VarId(0));
        assert_eq!(interp.arena().lock().unwrap().render(t, None), "x00");
    }

    #[test]
    fn with_ic_swaps_constraint() {
        let s = tiny();
        let s2 = s.with_ic(
            Arc::new(CondIc(Cond::Ge(Expr::Var(VarId(0)), Expr::Const(0)))),
            StateSpace::from_ints(&[&[1], &[2]]),
        );
        assert_eq!(s2.space.len(), 2);
        assert!(s2.ic.describe().contains(">="));
    }

    #[test]
    fn grid_enumeration_respects_ic() {
        let ic = CondIc(Cond::Eq(Expr::Var(VarId(0)), Expr::Var(VarId(1))));
        let space = StateSpace::enumerate_grid(2, 0..=2, &ic);
        // Diagonal of a 3x3 grid.
        assert_eq!(space.len(), 3);
        for s in &space.initial_states {
            assert_eq!(s.get(VarId(0)), s.get(VarId(1)));
        }
    }

    #[test]
    fn grid_enumeration_zero_vars_is_empty() {
        let space = StateSpace::enumerate_grid(0, 0..=1, &TrueIc);
        assert!(space.is_empty());
    }

    #[test]
    fn debug_format_mentions_name_and_format() {
        let s = tiny();
        let d = format!("{s:?}");
        assert!(d.contains("tiny"));
        assert!(d.contains("expr"));
    }
}
