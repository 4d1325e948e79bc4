//! Interpretations of the function symbols `f_ij`.
//!
//! Section 2: "the semantics of T: associated with the function symbol
//! `f_ij` at each step `T_ij` is a function
//! `ρ_ij : Π_{1≤k≤j} D(x_ik) → D(x_ij)` which is the interpretation of
//! `f_ij`."
//!
//! Three interpretation families are provided:
//!
//! * [`FnInterpretation`] — arbitrary Rust closures, for hand-written
//!   examples;
//! * [`ExprInterpretation`] — step functions given as [`Expr`] programs:
//!   comparable, printable and enumerable (used by the adversary machinery);
//! * [`HerbrandInterpretation`] — the canonical free interpretation of
//!   Section 4.2, building formal terms in a shared [`TermArena`].

use crate::expr::{Env, Expr};
use crate::ids::{StepId, TxnId};
use crate::syntax::{StepKind, Syntax};
use crate::term::{TermArena, TermId};
use crate::value::Value;
use std::fmt;
use std::sync::{Arc, Mutex};

/// An interpretation assigns meaning `ρ_ij` to every function symbol.
///
/// `args` holds the values of the declared locals `t_i1 .. t_ij`
/// (so `args.len() == j`, and `args[j-1]` is the value just read from
/// `x_ij`). The return value is stored into `x_ij`.
pub trait Interpretation: Send + Sync {
    /// Apply `ρ_ij` for step `T_ij` (`site`) to the declared locals.
    fn apply(&self, site: StepId, args: &[Value]) -> Result<Value, crate::ModelError>;

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "interpretation"
    }
}

/// Interpretation given by one Rust closure per step.
pub struct FnInterpretation {
    name: String,
    // funcs[i][j] computes ρ_{i,j+1}.
    #[allow(clippy::type_complexity)]
    funcs: Vec<Vec<Arc<dyn Fn(&[Value]) -> Value + Send + Sync>>>,
}

impl FnInterpretation {
    /// Start building a closure interpretation with the given name.
    pub fn builder(name: &str) -> FnInterpretationBuilder {
        FnInterpretationBuilder {
            name: name.to_string(),
            funcs: Vec::new(),
        }
    }
}

/// Builder for [`FnInterpretation`]; add transactions then steps in order.
pub struct FnInterpretationBuilder {
    name: String,
    #[allow(clippy::type_complexity)]
    funcs: Vec<Vec<Arc<dyn Fn(&[Value]) -> Value + Send + Sync>>>,
}

impl FnInterpretationBuilder {
    /// Begin the next transaction.
    pub fn txn(mut self) -> Self {
        self.funcs.push(Vec::new());
        self
    }

    /// Add the next step function of the current transaction.
    ///
    /// # Panics
    /// Panics if called before any [`txn`](Self::txn).
    pub fn step(mut self, f: impl Fn(&[Value]) -> Value + Send + Sync + 'static) -> Self {
        self.funcs
            .last_mut()
            .expect("call txn() before step()")
            .push(Arc::new(f));
        self
    }

    /// Finish the interpretation.
    pub fn build(self) -> FnInterpretation {
        FnInterpretation {
            name: self.name,
            funcs: self.funcs,
        }
    }
}

impl Interpretation for FnInterpretation {
    fn apply(&self, site: StepId, args: &[Value]) -> Result<Value, crate::ModelError> {
        let f = self
            .funcs
            .get(site.txn.index())
            .and_then(|t| t.get(site.idx as usize))
            .ok_or(crate::ModelError::UnknownStep(site))?;
        Ok(f(args))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for FnInterpretation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FnInterpretation({})", self.name)
    }
}

/// Interpretation where every `ρ_ij` is an [`Expr`] over the declared locals.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExprInterpretation {
    /// `exprs[i][j]` is the body of `ρ_{i,j+1}`.
    pub exprs: Vec<Vec<Expr>>,
}

impl ExprInterpretation {
    /// Build from per-transaction expression lists.
    pub fn new(exprs: Vec<Vec<Expr>>) -> Self {
        ExprInterpretation { exprs }
    }

    /// The expression of step `site`, if present.
    pub fn expr(&self, site: StepId) -> Option<&Expr> {
        self.exprs
            .get(site.txn.index())
            .and_then(|t| t.get(site.idx as usize))
    }

    /// Validate against a syntax: one expression per step; step `j` only
    /// reads locals `t_1..t_j`; and the declared step kinds hold — a
    /// [`StepKind::Read`] expression is the identity on `t_j`, and a
    /// [`StepKind::Write`] expression does not reference its own read
    /// `t_j`. The engine relies on the kind contract (reads leave storage
    /// untouched, writes install independent values), so violating it
    /// would silently diverge from the executor semantics.
    pub fn validate(&self, syntax: &Syntax) -> Result<(), String> {
        if self.exprs.len() != syntax.num_txns() {
            return Err(format!(
                "{} transactions in interpretation, {} in syntax",
                self.exprs.len(),
                syntax.num_txns()
            ));
        }
        for (i, (es, t)) in self.exprs.iter().zip(&syntax.transactions).enumerate() {
            if es.len() != t.steps.len() {
                return Err(format!(
                    "T{} has {} steps but {} expressions",
                    i + 1,
                    t.steps.len(),
                    es.len()
                ));
            }
            for (j, (e, s)) in es.iter().zip(&t.steps).enumerate() {
                if let Some(k) = e.max_local() {
                    if k > j {
                        return Err(format!(
                            "expression of T{},{} reads undeclared local t{}",
                            i + 1,
                            j + 1,
                            k + 1
                        ));
                    }
                    if s.kind == StepKind::Write && k == j {
                        return Err(format!(
                            "expression of T{},{} is declared Write but depends on its own read t{}",
                            i + 1,
                            j + 1,
                            j + 1
                        ));
                    }
                }
                if s.kind == StepKind::Read && *e != Expr::Local(j) {
                    return Err(format!(
                        "expression of T{},{} is declared Read but is not the identity t{}",
                        i + 1,
                        j + 1,
                        j + 1
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Interpretation for ExprInterpretation {
    fn apply(&self, site: StepId, args: &[Value]) -> Result<Value, crate::ModelError> {
        let e = self
            .expr(site)
            .ok_or(crate::ModelError::UnknownStep(site))?;
        e.eval(Env::locals(args))
            .map(Value::Int)
            .map_err(|source| crate::ModelError::Eval { step: site, source })
    }

    fn name(&self) -> &str {
        "expr"
    }
}

/// The canonical free (Herbrand) interpretation of Section 4.2.
///
/// Every application builds the formal term `f_ij(a_1, ..., a_j)` in a
/// shared hash-consing arena. Step kinds refine the paper's two remarks:
/// a declared [`StepKind::Read`] returns `t_ij` unchanged (identity), and a
/// declared [`StepKind::Write`] applies `f_ij` to `t_i1..t_i,j-1` only
/// (independent of `t_ij`). [`StepKind::Update`] — the paper's base model —
/// applies `f_ij` to all declared locals.
pub struct HerbrandInterpretation {
    arena: Arc<Mutex<TermArena>>,
    kinds: Vec<Vec<StepKind>>,
}

impl HerbrandInterpretation {
    /// Create a Herbrand interpretation for the given syntax with a fresh
    /// arena.
    pub fn for_syntax(syntax: &Syntax) -> Self {
        HerbrandInterpretation {
            arena: Arc::new(Mutex::new(TermArena::new())),
            kinds: syntax
                .transactions
                .iter()
                .map(|t| t.steps.iter().map(|s| s.kind).collect())
                .collect(),
        }
    }

    /// Handle to the shared term arena (for rendering and initial terms).
    pub fn arena(&self) -> Arc<Mutex<TermArena>> {
        Arc::clone(&self.arena)
    }

    /// Intern the initial term of variable `v`.
    pub fn init_term(&self, v: crate::ids::VarId) -> TermId {
        self.arena.lock().unwrap().init(v)
    }

    fn kind(&self, site: StepId) -> StepKind {
        self.kinds
            .get(site.txn.index())
            .and_then(|t| t.get(site.idx as usize))
            .copied()
            .unwrap_or(StepKind::Update)
    }
}

impl Interpretation for HerbrandInterpretation {
    fn apply(&self, site: StepId, args: &[Value]) -> Result<Value, crate::ModelError> {
        let terms: Option<Vec<TermId>> = args.iter().map(|v| v.as_term()).collect();
        let terms = terms.ok_or(crate::ModelError::Eval {
            step: site,
            source: crate::expr::EvalError::SymbolicValue,
        })?;
        match self.kind(site) {
            StepKind::Read => {
                // Identity on t_ij: the variable is unchanged.
                Ok(Value::Term(
                    *terms.last().ok_or(crate::ModelError::UnknownStep(site))?,
                ))
            }
            StepKind::Write => {
                // Independent of t_ij: drop the just-read local.
                let upto = terms.len().saturating_sub(1);
                Ok(Value::Term(
                    self.arena.lock().unwrap().app(site, &terms[..upto]),
                ))
            }
            StepKind::Update => Ok(Value::Term(self.arena.lock().unwrap().app(site, &terms))),
        }
    }

    fn name(&self) -> &str {
        "herbrand"
    }
}

impl fmt::Debug for HerbrandInterpretation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HerbrandInterpretation")
    }
}

/// Convenience: interpretation names used in displays.
pub fn describe(interp: &dyn Interpretation) -> String {
    interp.name().to_string()
}

/// A helper wrapper making any interpretation usable for a *renamed* system:
/// sites pass through unchanged (renaming variables does not change the
/// function symbols), so the same interpretation object is reused.
pub struct SharedInterpretation(pub Arc<dyn Interpretation>);

impl Interpretation for SharedInterpretation {
    fn apply(&self, site: StepId, args: &[Value]) -> Result<Value, crate::ModelError> {
        self.0.apply(site, args)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Identify a step site for error messages.
pub fn site_label(txn: TxnId, idx: u32) -> String {
    StepId { txn, idx }.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VarId;
    use crate::syntax::SyntaxBuilder;

    #[test]
    fn fn_interpretation_applies_per_step() {
        let interp = FnInterpretation::builder("inc-dec")
            .txn()
            .step(|args| Value::Int(args[0].as_int().unwrap() + 1))
            .step(|args| Value::Int(args[1].as_int().unwrap() - 1))
            .build();
        let v = interp.apply(StepId::new(0, 0), &[Value::Int(5)]).unwrap();
        assert_eq!(v, Value::Int(6));
        let v = interp
            .apply(StepId::new(0, 1), &[Value::Int(5), Value::Int(9)])
            .unwrap();
        assert_eq!(v, Value::Int(8));
        assert!(interp.apply(StepId::new(3, 0), &[]).is_err());
    }

    #[test]
    fn expr_interpretation_validates_locals() {
        let syn = SyntaxBuilder::new()
            .txn("T1", |t| t.update("x").update("y"))
            .build();
        let good = ExprInterpretation::new(vec![vec![
            Expr::Local(0),
            Expr::add(Expr::Local(0), Expr::Local(1)),
        ]]);
        assert!(good.validate(&syn).is_ok());
        let bad = ExprInterpretation::new(vec![vec![Expr::Local(1), Expr::Local(0)]]);
        assert!(bad.validate(&syn).is_err());
        let wrong_arity = ExprInterpretation::new(vec![vec![Expr::Local(0)]]);
        assert!(wrong_arity.validate(&syn).is_err());
    }

    #[test]
    fn validate_enforces_declared_step_kinds() {
        let syn = SyntaxBuilder::new()
            .txn("T1", |t| t.read("x").write("y"))
            .build();
        let good = ExprInterpretation::new(vec![vec![Expr::Local(0), Expr::Local(0)]]);
        assert!(good.validate(&syn).is_ok());
        // A declared Read whose expression is not the identity observes
        // nothing it may observe — and would silently diverge from the
        // engine, which leaves storage untouched for reads.
        let fake_read = ExprInterpretation::new(vec![vec![
            Expr::add(Expr::Local(0), Expr::Const(1)),
            Expr::Local(0),
        ]]);
        assert!(fake_read.validate(&syn).is_err());
        // A declared Write that depends on its own read t_j is really an
        // update: under blind-write scheduling (MVTO/SI install order) it
        // could commit non-serializable states.
        let fake_write = ExprInterpretation::new(vec![vec![Expr::Local(0), Expr::Local(1)]]);
        assert!(fake_write.validate(&syn).is_err());
    }

    #[test]
    fn herbrand_update_builds_full_application() {
        let syn = SyntaxBuilder::new()
            .txn("T1", |t| t.update("x").update("x"))
            .build();
        let h = HerbrandInterpretation::for_syntax(&syn);
        let x0 = h.init_term(VarId(0));
        let v1 = h
            .apply(StepId::new(0, 0), &[Value::Term(x0)])
            .unwrap()
            .as_term()
            .unwrap();
        let v2 = h
            .apply(StepId::new(0, 1), &[Value::Term(x0), Value::Term(v1)])
            .unwrap()
            .as_term()
            .unwrap();
        let arena = h.arena();
        let arena = arena.lock().unwrap();
        assert_eq!(arena.render(v2, None), "f12(x00, f11(x00))");
    }

    #[test]
    fn herbrand_read_is_identity() {
        let syn = SyntaxBuilder::new().txn("T1", |t| t.read("x")).build();
        let h = HerbrandInterpretation::for_syntax(&syn);
        let x0 = h.init_term(VarId(0));
        let v = h.apply(StepId::new(0, 0), &[Value::Term(x0)]).unwrap();
        assert_eq!(v, Value::Term(x0));
    }

    #[test]
    fn herbrand_write_ignores_own_read() {
        let syn = SyntaxBuilder::new()
            .txn("T1", |t| t.read("y").write("x"))
            .build();
        let h = HerbrandInterpretation::for_syntax(&syn);
        let y0 = h.init_term(VarId(0));
        let x0 = h.init_term(VarId(1));
        // Step 2 (write x) receives [t1=y0, t2=x0] and must not embed x0.
        let v = h
            .apply(StepId::new(0, 1), &[Value::Term(y0), Value::Term(x0)])
            .unwrap()
            .as_term()
            .unwrap();
        let arena = h.arena();
        let arena = arena.lock().unwrap();
        assert_eq!(arena.render(v, None), "f12(x00)");
    }

    #[test]
    fn herbrand_rejects_concrete_values() {
        let syn = SyntaxBuilder::new().txn("T1", |t| t.update("x")).build();
        let h = HerbrandInterpretation::for_syntax(&syn);
        assert!(h.apply(StepId::new(0, 0), &[Value::Int(3)]).is_err());
    }

    #[test]
    fn deterministic_interning_across_applies() {
        let syn = SyntaxBuilder::new()
            .txn("T1", |t| t.update("x"))
            .txn("T2", |t| t.update("x"))
            .build();
        let h = HerbrandInterpretation::for_syntax(&syn);
        let x0 = h.init_term(VarId(0));
        let a = h.apply(StepId::new(0, 0), &[Value::Term(x0)]).unwrap();
        let b = h.apply(StepId::new(0, 0), &[Value::Term(x0)]).unwrap();
        assert_eq!(a, b);
    }
}
