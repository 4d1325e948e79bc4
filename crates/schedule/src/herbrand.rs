//! Symbolic execution of schedules under Herbrand semantics.
//!
//! Section 4.2: "one can supplement this syntax with canonical semantics
//! called Herbrand semantics [...] the Herbrand interpretation captures all
//! the history of the values of all global variables."
//!
//! [`HerbrandCtx`] owns the herbrandized copy of a system plus the shared
//! term arena, and memoizes the `n!` serial outcomes so that `SR(T)`
//! membership is a hash lookup after one symbolic run.

use crate::schedule::{permutations, Schedule};
use ccopt_model::exec::Executor;
use ccopt_model::ids::{StepId, TxnId, VarId};
use ccopt_model::interp::HerbrandInterpretation;
use ccopt_model::state::GlobalState;
use ccopt_model::syntax::Syntax;
use ccopt_model::system::TransactionSystem;
use ccopt_model::term::{TermArena, TermId};
use ccopt_model::value::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Context for Herbrand-semantics runs over one syntax.
pub struct HerbrandCtx {
    sys: TransactionSystem,
    interp: Arc<HerbrandInterpretation>,
    /// Final term vectors of each serial order, memoized.
    serial_outcomes: Vec<(Vec<TxnId>, Vec<TermId>)>,
}

impl HerbrandCtx {
    /// Build a context from a syntax (semantics are discarded — Herbrand
    /// semantics depend on syntax alone).
    pub fn new(syntax: &Syntax) -> Self {
        let interp = Arc::new(HerbrandInterpretation::for_syntax(syntax));
        let sys = TransactionSystem::new(
            "herbrand-ctx",
            syntax.clone(),
            interp.clone(),
            Arc::new(ccopt_model::ic::TrueIc),
            ccopt_model::system::StateSpace::default(),
        );
        let mut ctx = HerbrandCtx {
            sys,
            interp,
            serial_outcomes: Vec::new(),
        };
        ctx.serial_outcomes = ctx.compute_serial_outcomes();
        ctx
    }

    /// Build a context for a full system's syntax.
    pub fn for_system(sys: &TransactionSystem) -> Self {
        Self::new(&sys.syntax)
    }

    /// The syntax under execution.
    pub fn syntax(&self) -> &Syntax {
        &self.sys.syntax
    }

    /// The shared term arena (for rendering).
    pub fn arena(&self) -> Arc<Mutex<TermArena>> {
        self.interp.arena()
    }

    /// Initial symbolic global state: every variable holds its `Init` term.
    pub fn initial_globals(&self) -> GlobalState {
        let n = self.sys.syntax.num_vars();
        GlobalState::new(
            (0..n as u32)
                .map(|v| Value::Term(self.interp.init_term(VarId(v))))
                .collect(),
        )
    }

    /// Run a step sequence symbolically; returns the final term of every
    /// global variable.
    ///
    /// # Panics
    /// Panics when the sequence is not executable (out of program order).
    pub fn run(&self, steps: &[StepId]) -> Vec<TermId> {
        let ex = Executor::new(&self.sys);
        let st = ex
            .run_sequence(self.initial_globals(), steps)
            .expect("herbrand execution of a legal schedule cannot fail");
        st.globals
            .iter()
            .map(|(_, v)| v.as_term().expect("herbrand run yields terms"))
            .collect()
    }

    /// Final terms of a whole schedule.
    pub fn run_schedule(&self, h: &Schedule) -> Vec<TermId> {
        self.run(h.steps())
    }

    /// Final terms of a *concatenation* of whole-transaction executions
    /// (repetitions and omissions allowed): each occurrence runs from fresh
    /// locals, carrying the symbolic globals forward.
    pub fn run_concat(&self, order: &[TxnId]) -> Vec<TermId> {
        let ex = Executor::new(&self.sys);
        let g = ex
            .run_concatenation(self.initial_globals(), order)
            .expect("herbrand concatenation cannot fail");
        g.iter()
            .map(|(_, v)| v.as_term().expect("herbrand run yields terms"))
            .collect()
    }

    /// The memoized serial outcomes: `(transaction order, final terms)` for
    /// each of the `n!` serial schedules.
    pub fn serial_outcomes(&self) -> &[(Vec<TxnId>, Vec<TermId>)] {
        &self.serial_outcomes
    }

    fn compute_serial_outcomes(&self) -> Vec<(Vec<TxnId>, Vec<TermId>)> {
        let format = self.sys.format();
        let ids: Vec<TxnId> = (0..format.len() as u32).map(TxnId).collect();
        permutations(&ids)
            .into_iter()
            .map(|order| {
                let s = Schedule::serial(&format, &order);
                let terms = self.run(s.steps());
                (order, terms)
            })
            .collect()
    }

    /// Does `h` produce the same final Herbrand state as some serial
    /// schedule? If so, return the witnessing transaction order.
    pub fn serial_witness(&self, h: &Schedule) -> Option<Vec<TxnId>> {
        let terms = self.run_schedule(h);
        self.serial_outcomes
            .iter()
            .find(|(_, t)| *t == terms)
            .map(|(o, _)| o.clone())
    }

    /// Render the final state of a run as `var = term` lines.
    pub fn render_final(&self, terms: &[TermId]) -> String {
        let arena = self.interp.arena();
        let arena = arena.lock().unwrap();
        let names = &self.sys.syntax.vars;
        terms
            .iter()
            .enumerate()
            .map(|(i, &t)| format!("{} = {}", names[i], arena.render(t, Some(names))))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Group all schedules of the format by their final Herbrand state;
    /// returns `final-terms -> schedules`. Only for small formats.
    pub fn equivalence_classes(&self, schedules: &[Schedule]) -> HashMap<Vec<TermId>, Vec<usize>> {
        let mut map: HashMap<Vec<TermId>, Vec<usize>> = HashMap::new();
        for (i, h) in schedules.iter().enumerate() {
            map.entry(self.run_schedule(h)).or_default().push(i);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::all_schedules;
    use ccopt_model::systems;

    fn sid(t: u32, j: u32) -> StepId {
        StepId::new(t, j)
    }

    #[test]
    fn fig1_history_differs_from_both_serials() {
        // The exact claim of Section 4.3: h = (T11, T21, T12) yields
        // f12(f11(x), f21(f11(x))) — wait, under the full-args model:
        // h's x-term is f12(x0, f21(f11(x0))) which differs from both
        // serial terms f12(..) o f21 and f21 o f12.
        let sys = systems::fig1();
        let ctx = HerbrandCtx::for_system(&sys);
        let h = Schedule::new_unchecked(vec![sid(0, 0), sid(1, 0), sid(0, 1)]);
        assert!(ctx.serial_witness(&h).is_none());
        // Both serial schedules trivially match themselves.
        for (order, _) in ctx.serial_outcomes() {
            let s = Schedule::serial(&sys.format(), order);
            assert_eq!(ctx.serial_witness(&s), Some(order.clone()));
        }
    }

    #[test]
    fn serial_outcomes_are_distinct_for_fig1() {
        let sys = systems::fig1();
        let ctx = HerbrandCtx::for_system(&sys);
        let outcomes = ctx.serial_outcomes();
        assert_eq!(outcomes.len(), 2);
        assert_ne!(outcomes[0].1, outcomes[1].1);
    }

    #[test]
    fn herbrand_distinguishes_all_interleavings_on_one_variable() {
        // On fig1's format (2,1) there are 3 schedules; each has a distinct
        // final term (single variable, all steps update it).
        let sys = systems::fig1();
        let ctx = HerbrandCtx::for_system(&sys);
        let all = all_schedules(&sys.format());
        assert_eq!(all.len(), 3);
        let classes = ctx.equivalence_classes(&all);
        assert_eq!(classes.len(), 3);
    }

    #[test]
    fn disjoint_transactions_all_equivalent() {
        // Two transactions on different variables: every schedule has the
        // same final terms.
        use ccopt_model::syntax::SyntaxBuilder;
        let syn = SyntaxBuilder::new()
            .txn("T1", |t| t.update("x").update("x"))
            .txn("T2", |t| t.update("y"))
            .build();
        let ctx = HerbrandCtx::new(&syn);
        let all = all_schedules(&syn.format());
        assert_eq!(all.len(), 3);
        let classes = ctx.equivalence_classes(&all);
        assert_eq!(classes.len(), 1);
    }

    #[test]
    fn render_final_is_readable() {
        let sys = systems::fig1();
        let ctx = HerbrandCtx::for_system(&sys);
        let h = Schedule::new_unchecked(vec![sid(0, 0), sid(1, 0), sid(0, 1)]);
        let terms = ctx.run_schedule(&h);
        let rendered = ctx.render_final(&terms);
        assert!(rendered.starts_with("x = f12("));
        assert!(rendered.contains("f21"));
    }

    #[test]
    fn run_is_deterministic() {
        let sys = systems::banking();
        let ctx = HerbrandCtx::for_system(&sys);
        let s = Schedule::serial(&sys.format(), &[TxnId(2), TxnId(0), TxnId(1)]);
        assert_eq!(ctx.run_schedule(&s), ctx.run_schedule(&s));
    }
}
