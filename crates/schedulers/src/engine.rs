//! The engine's concurrency-control mechanisms as order-model schedulers.
//!
//! [`EngineScheduler`] drives one [`CcKind`] of `ccopt-engine` — the code
//! that serves traffic — through the [`OnlineScheduler`] protocol, so its
//! fixpoint set `P` comes from the same enumeration as every other
//! scheduler's. Each request is one engine step: the mechanism answers
//! Proceed (granted now), Wait (parked, re-offered in arrival order after
//! every grant or abort) or Abort. An aborted transaction is the order
//! model's restart image: its remaining steps are flushed at end of input
//! and counted in [`forced_flushes`](OnlineScheduler::forced_flushes).
//!
//! Measured against the order-model schedulers (`docs/ARCHITECTURE.md`,
//! "Where the halves meet"): serial and OCC have the fixpoint sets of the
//! paper's strawman and of backward validation, while T/O and SGT differ
//! from [`TimestampScheduler`](crate::TimestampScheduler) and
//! [`SgtScheduler`](crate::SgtScheduler) exactly by strictness.

use ccopt_core::info::InfoLevel;
use ccopt_core::scheduler::OnlineScheduler;
use ccopt_engine::{CcDecision, CcKind, ConcurrencyControl};
use ccopt_model::ids::StepId;
use ccopt_model::syntax::Syntax;

/// What offering a step to the mechanism did.
enum Offer {
    Granted,
    /// The mechanism said Wait, or the step cannot be offered yet: it is
    /// out of program order, or its transaction is doomed.
    Parked,
    Aborted,
}

/// One engine mechanism behind the online-scheduler protocol.
pub struct EngineScheduler {
    kind: CcKind,
    syntax: Syntax,
    cc: Box<dyn ConcurrencyControl>,
    /// Monotone clock handed to `begin` and `on_commit`.
    tick: u64,
    /// Per transaction: steps granted so far.
    granted: Vec<u32>,
    begun: Vec<bool>,
    /// Per transaction: aborted, so its remaining steps wait for `finish`.
    doomed: Vec<bool>,
    /// Requests not yet granted, in arrival order.
    parked: Vec<StepId>,
    forced: usize,
}

impl EngineScheduler {
    /// Build for a mechanism and a system's syntax.
    pub fn new(kind: CcKind, syntax: Syntax) -> Self {
        let mut s = EngineScheduler {
            kind,
            syntax,
            cc: kind.build(),
            tick: 0,
            granted: Vec::new(),
            begun: Vec::new(),
            doomed: Vec::new(),
            parked: Vec::new(),
            forced: 0,
        };
        s.reset();
        s
    }

    fn try_grant(&mut self, step: StepId) -> Offer {
        let (t, ti) = (step.txn, step.txn.index());
        if step.idx != self.granted[ti] || self.doomed[ti] {
            return Offer::Parked;
        }
        if !self.begun[ti] {
            self.begun[ti] = true;
            self.tick += 1;
            self.cc.begin(t, self.tick);
        }
        let syn = self.syntax.step(step);
        let last = step.idx as usize + 1 == self.syntax.transactions[ti].steps.len();
        let decision = match self.cc.on_step(t, syn.var, syn.kind) {
            CcDecision::Proceed if last => {
                self.tick += 1;
                match self.cc.on_commit(t, self.tick) {
                    CcDecision::Proceed => {
                        self.cc.after_commit(t);
                        CcDecision::Proceed
                    }
                    CcDecision::Wait => unreachable!("commit order is never enabled"),
                    CcDecision::Abort => CcDecision::Abort,
                }
            }
            d => d,
        };
        match decision {
            CcDecision::Proceed => {
                self.granted[ti] += 1;
                Offer::Granted
            }
            CcDecision::Wait => Offer::Parked,
            CcDecision::Abort => {
                self.cc.on_abort(t);
                self.doomed[ti] = true;
                Offer::Aborted
            }
        }
    }

    /// Re-offer the parked steps in arrival order until nothing moves.
    fn retry_parked(&mut self, out: &mut Vec<StepId>) {
        loop {
            let mut moved = false;
            let mut k = 0;
            while k < self.parked.len() {
                match self.try_grant(self.parked[k]) {
                    Offer::Granted => {
                        out.push(self.parked.remove(k));
                        moved = true;
                    }
                    Offer::Aborted => {
                        moved = true;
                        k += 1;
                    }
                    Offer::Parked => k += 1,
                }
            }
            if !moved {
                return;
            }
        }
    }
}

impl OnlineScheduler for EngineScheduler {
    fn reset(&mut self) {
        let n = self.syntax.num_txns();
        self.cc = self.kind.build();
        self.cc.prepare(n, self.syntax.num_vars());
        self.tick = 0;
        self.granted = vec![0; n];
        self.begun = vec![false; n];
        self.doomed = vec![false; n];
        self.parked.clear();
        self.forced = 0;
    }

    fn on_request(&mut self, step: StepId) -> Vec<StepId> {
        let mut out = Vec::new();
        if self.parked.iter().any(|p| p.txn == step.txn) {
            self.parked.push(step);
            return out;
        }
        match self.try_grant(step) {
            Offer::Granted => out.push(step),
            Offer::Parked => {
                self.parked.push(step);
                return out;
            }
            Offer::Aborted => self.parked.push(step),
        }
        self.retry_parked(&mut out);
        out
    }

    fn finish(&mut self) -> Vec<StepId> {
        let leftovers = std::mem::take(&mut self.parked);
        self.forced += leftovers.len();
        leftovers
    }

    fn name(&self) -> &str {
        self.kind.name()
    }

    fn info(&self) -> InfoLevel {
        match self.kind {
            CcKind::Serial => InfoLevel::FormatOnly,
            _ => InfoLevel::Syntactic,
        }
    }

    fn forced_flushes(&self) -> usize {
        self.forced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccopt_core::fixpoint::{fixpoint_ratio, fixpoint_set};
    use ccopt_core::scheduler::run_scheduler;
    use ccopt_model::syntax::SyntaxBuilder;
    use ccopt_model::systems;
    use ccopt_schedule::enumerate::{all_schedules, count_schedules, for_each_schedule};
    use ccopt_schedule::schedule::Schedule;

    fn sid(t: u32, j: u32) -> StepId {
        StepId::new(t, j)
    }

    /// The serial mechanism over a format (it reads nothing else): every
    /// step updates one variable.
    fn serial(format: &[u32]) -> EngineScheduler {
        let mut b = SyntaxBuilder::new();
        for (i, &m) in format.iter().enumerate() {
            b = b.txn(&format!("T{}", i + 1), |mut t| {
                for _ in 0..m {
                    t = t.update("x");
                }
                t
            });
        }
        EngineScheduler::new(CcKind::Serial, b.build())
    }

    fn occ(syntax: Syntax) -> EngineScheduler {
        EngineScheduler::new(CcKind::Occ, syntax)
    }

    #[test]
    fn fixpoints_are_exactly_the_serial_histories() {
        let format = [2, 2];
        let p = fixpoint_set(&mut serial(&format), &format);
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(Schedule::is_serial));
    }

    #[test]
    fn outputs_are_always_serial_and_legal() {
        let format = [2, 1, 2];
        let mut s = serial(&format);
        for_each_schedule(&format, |h| {
            let run = run_scheduler(&mut s, h);
            assert!(run.output.is_serial(), "not serial for {h}: {}", run.output);
            assert!(run.output.is_legal(&format));
            true
        });
    }

    #[test]
    fn ratio_matches_closed_form() {
        // For format (m1, m2): |serial| = 2, |H| = C(m1+m2, m1).
        let format = [3, 2];
        let r = fixpoint_ratio(&mut serial(&format), &format);
        assert!((r - 2.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn floor_is_granted_in_arrival_order() {
        let mut s = serial(&[1, 1, 1]);
        assert_eq!(s.on_request(sid(2, 0)), vec![sid(2, 0)]);
        // T3 finished (single step); next arrival gets the floor at once.
        assert_eq!(s.on_request(sid(0, 0)), vec![sid(0, 0)]);
        assert_eq!(s.on_request(sid(1, 0)), vec![sid(1, 0)]);
        assert!(s.finish().is_empty());
    }

    #[test]
    fn queued_transactions_run_in_first_arrival_order() {
        let mut s = serial(&[2, 2]);
        assert_eq!(s.on_request(sid(0, 0)), vec![sid(0, 0)]);
        assert_eq!(s.on_request(sid(1, 0)), vec![]);
        assert_eq!(s.on_request(sid(1, 1)), vec![]);
        // T1 commits and hands on the token; T2's two queued steps follow
        // in order.
        assert_eq!(
            s.on_request(sid(0, 1)),
            vec![sid(0, 1), sid(1, 0), sid(1, 1)]
        );
    }

    #[test]
    fn serial_histories_validate() {
        let sys = systems::fig3_pair();
        let mut s = occ(sys.syntax.clone());
        for serial in Schedule::all_serials(&sys.format()) {
            let run = run_scheduler(&mut s, &serial);
            assert!(run.no_delays, "serial {serial} failed OCC validation");
        }
    }

    #[test]
    fn interleaved_writer_fails_validation() {
        // fig3_pair, history (T1:x, T2:y, T2:x, T1:y): T2 commits during
        // T1's lifetime having written x, which T1 accessed, so T1's
        // validation at its final step fails and the step is flushed as a
        // restart.
        let sys = systems::fig3_pair();
        let mut s = occ(sys.syntax.clone());
        assert_eq!(s.on_request(sid(0, 0)), vec![sid(0, 0)]); // T1 x
        assert_eq!(s.on_request(sid(1, 0)), vec![sid(1, 0)]); // T2 y
        assert_eq!(s.on_request(sid(1, 1)), vec![sid(1, 1)]); // T2 x + commit
        assert!(s.on_request(sid(0, 1)).is_empty()); // T1 y + commit: fails
        assert_eq!(s.finish(), vec![sid(0, 1)]);
        assert_eq!(s.forced_flushes(), 1);
    }

    #[test]
    fn outputs_are_legal() {
        let sys = systems::fig3_pair();
        let mut s = occ(sys.syntax.clone());
        for h in all_schedules(&sys.format()) {
            let run = run_scheduler(&mut s, &h);
            assert!(run.output.is_legal(&sys.format()));
        }
    }

    #[test]
    fn disjoint_transactions_never_fail_validation() {
        let syn = SyntaxBuilder::new()
            .txn("T1", |t| t.update("x").update("x"))
            .txn("T2", |t| t.update("y").update("y"))
            .build();
        let p = fixpoint_set(&mut occ(syn.clone()), &syn.format());
        assert_eq!(p.len() as u128, count_schedules(&syn.format()));
    }

    #[test]
    fn an_abort_moves_the_waiters_at_once() {
        // fig3_pair under strict 2PL: T1 holds x and waits for y; T2 holds
        // y and asks for x, closing a waits-for cycle. T2 aborts and
        // releases y, so T1's parked step goes through on the same request.
        let sys = systems::fig3_pair();
        let mut s = EngineScheduler::new(CcKind::Strict2pl, sys.syntax.clone());
        assert_eq!(s.on_request(sid(0, 0)), vec![sid(0, 0)]);
        assert_eq!(s.on_request(sid(1, 0)), vec![sid(1, 0)]);
        assert!(s.on_request(sid(0, 1)).is_empty());
        assert_eq!(s.on_request(sid(1, 1)), vec![sid(0, 1)]);
        assert_eq!(s.finish(), vec![sid(1, 1)]);
        assert_eq!(s.forced_flushes(), 1);
    }
}
