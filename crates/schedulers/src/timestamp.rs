//! Timestamp ordering (T/O).
//!
//! Each transaction is stamped on the arrival of its first step; a step on
//! variable `x` may be granted only when its transaction's stamp is at
//! least the stamp of every transaction that has already touched `x`
//! conflictingly. Out-of-order requests wait until the owner transactions
//! complete; at end-of-input the stragglers replay in arrival order
//! (abort/restart in a real system — the run counts as delayed either way).
//!
//! The engine's T/O ([`EngineScheduler`](crate::EngineScheduler) over
//! `CcKind::Timestamp`) also waits on a live writer's uncommitted data
//! (strictness), so `P(engine T/O) = P(this) ∩ strict`
//! (`tests/engine_fixpoints.rs`). This scheduler is the paper's non-strict
//! rung.

use ccopt_core::info::InfoLevel;
use ccopt_core::scheduler::OnlineScheduler;
use ccopt_model::ids::{StepId, TxnId};
use ccopt_model::syntax::Syntax;

/// The timestamp-ordering scheduler.
#[derive(Clone, Debug)]
pub struct TimestampScheduler {
    syntax: Syntax,
    /// Arrival stamp per transaction (assigned at first request).
    stamp: Vec<Option<u64>>,
    next_stamp: u64,
    /// Largest stamp of a *reader* per variable.
    read_stamp: Vec<u64>,
    /// Largest stamp of a *writer* per variable.
    write_stamp: Vec<u64>,
    /// Steps granted per transaction (for program order).
    granted_count: Vec<u32>,
    parked: Vec<StepId>,
    forced: usize,
}

impl TimestampScheduler {
    /// Build for a syntax.
    pub fn new(syntax: Syntax) -> Self {
        let n = syntax.num_txns();
        let v = syntax.num_vars();
        TimestampScheduler {
            syntax,
            stamp: vec![None; n],
            next_stamp: 1,
            read_stamp: vec![0; v],
            write_stamp: vec![0; v],
            granted_count: vec![0; n],
            parked: Vec::new(),
            forced: 0,
        }
    }

    fn stamp_of(&mut self, t: TxnId) -> u64 {
        if let Some(s) = self.stamp[t.index()] {
            return s;
        }
        let s = self.next_stamp;
        self.next_stamp += 1;
        self.stamp[t.index()] = Some(s);
        s
    }

    fn in_program_order(&self, step: StepId) -> bool {
        self.granted_count[step.txn.index()] == step.idx
    }

    fn try_grant(&mut self, step: StepId) -> bool {
        if !self.in_program_order(step) {
            return false;
        }
        let ts = self.stamp_of(step.txn);
        let sx = self.syntax.step(step);
        let v = sx.var.index();
        // A read must not precede a later writer; a write must not precede
        // a later reader or writer.
        let read_ok = !sx.kind.reads() || ts >= self.write_stamp[v];
        let write_ok = !sx.kind.writes() || (ts >= self.read_stamp[v] && ts >= self.write_stamp[v]);
        if !(read_ok && write_ok) {
            return false;
        }
        if sx.kind.reads() {
            self.read_stamp[v] = self.read_stamp[v].max(ts);
        }
        if sx.kind.writes() {
            self.write_stamp[v] = self.write_stamp[v].max(ts);
        }
        self.granted_count[step.txn.index()] += 1;
        true
    }

    fn retry_parked(&mut self) -> Vec<StepId> {
        let mut out = Vec::new();
        loop {
            let mut progressed = false;
            let mut k = 0;
            while k < self.parked.len() {
                let cand = self.parked[k];
                if self.try_grant(cand) {
                    self.parked.remove(k);
                    out.push(cand);
                    progressed = true;
                } else {
                    k += 1;
                }
            }
            if !progressed {
                return out;
            }
        }
    }
}

impl OnlineScheduler for TimestampScheduler {
    fn reset(&mut self) {
        self.stamp.iter_mut().for_each(|s| *s = None);
        self.next_stamp = 1;
        self.read_stamp.iter_mut().for_each(|s| *s = 0);
        self.write_stamp.iter_mut().for_each(|s| *s = 0);
        self.granted_count.iter_mut().for_each(|c| *c = 0);
        self.parked.clear();
        self.forced = 0;
    }

    fn on_request(&mut self, step: StepId) -> Vec<StepId> {
        // Stamp at first contact, even if the step then parks.
        self.stamp_of(step.txn);
        let mut out = Vec::new();
        if self.parked.iter().any(|p| p.txn == step.txn) {
            self.parked.push(step);
        } else if self.try_grant(step) {
            out.push(step);
        } else {
            self.parked.push(step);
        }
        out.extend(self.retry_parked());
        out
    }

    fn finish(&mut self) -> Vec<StepId> {
        let mut out = self.retry_parked();
        // Anything still parked lost a timestamp race: replay in arrival
        // order (restart semantics, reported via `forced_flushes`).
        self.forced += self.parked.len();
        for &s in &self.parked {
            self.granted_count[s.txn.index()] += 1;
        }
        out.append(&mut self.parked);
        out
    }

    fn name(&self) -> &str {
        "T/O"
    }

    fn info(&self) -> InfoLevel {
        InfoLevel::Syntactic
    }

    fn forced_flushes(&self) -> usize {
        self.forced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccopt_core::fixpoint::fixpoint_set;
    use ccopt_core::scheduler::run_scheduler;
    use ccopt_model::systems;
    use ccopt_schedule::enumerate::all_schedules;
    use ccopt_schedule::graph::is_csr;
    use ccopt_schedule::schedule::Schedule;

    #[test]
    fn serial_histories_are_fixpoints() {
        let sys = systems::fig3_pair();
        let mut s = TimestampScheduler::new(sys.syntax.clone());
        for serial in Schedule::all_serials(&sys.format()) {
            let run = run_scheduler(&mut s, &serial);
            assert!(run.no_delays, "serial {serial} delayed by T/O");
        }
    }

    #[test]
    fn fixpoints_are_a_subset_of_csr() {
        for sys in [systems::fig1(), systems::fig3_pair(), systems::rw_pair(1)] {
            let mut s = TimestampScheduler::new(sys.syntax.clone());
            let p = fixpoint_set(&mut s, &sys.format());
            for h in &p {
                assert!(is_csr(&sys.syntax, h), "T/O fixpoint {h} not CSR");
            }
        }
    }

    #[test]
    fn out_of_stamp_conflict_is_delayed() {
        use ccopt_model::ids::StepId;
        // fig3_pair: T1 arrives first (stamp 1) but T2 touches y first?
        // Feed: T2,1 (y; stamp T2 = 1), T1,1 (x; stamp T1 = 2),
        // T1,2 (y): T1 stamp 2 >= wts(y) = 1 — granted.
        // Then T2,2 (x): T2 stamp 1 < wts(x) = 2 — delayed.
        let sys = systems::fig3_pair();
        let mut s = TimestampScheduler::new(sys.syntax.clone());
        s.reset();
        assert_eq!(s.on_request(StepId::new(1, 0)), vec![StepId::new(1, 0)]);
        assert_eq!(s.on_request(StepId::new(0, 0)), vec![StepId::new(0, 0)]);
        assert_eq!(s.on_request(StepId::new(0, 1)), vec![StepId::new(0, 1)]);
        assert_eq!(s.on_request(StepId::new(1, 1)), vec![]);
        assert_eq!(s.finish(), vec![StepId::new(1, 1)]);
    }

    #[test]
    fn read_read_is_not_ordered() {
        use ccopt_model::ids::StepId;
        use ccopt_model::syntax::SyntaxBuilder;
        let syn = SyntaxBuilder::new()
            .txn("T1", |t| t.read("x"))
            .txn("T2", |t| t.read("x"))
            .build();
        let mut s = TimestampScheduler::new(syn);
        s.reset();
        // Later-stamped reader first, earlier-stamped reader second: both
        // granted (reads do not conflict).
        assert!(!s.on_request(StepId::new(1, 0)).is_empty());
        assert!(!s.on_request(StepId::new(0, 0)).is_empty());
    }

    #[test]
    fn outputs_are_legal() {
        let sys = systems::fig3_pair();
        let mut s = TimestampScheduler::new(sys.syntax.clone());
        for h in all_schedules(&sys.format()) {
            let run = run_scheduler(&mut s, &h);
            assert!(run.output.is_legal(&sys.format()));
        }
    }
}
