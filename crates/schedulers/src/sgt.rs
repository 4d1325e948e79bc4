//! Serialization-graph testing (SGT).
//!
//! The paper (Section 5.3) observes that "most sophisticated serialization
//! principles require that the scheduler remembers which transaction read
//! data first from which, and thus they cannot be implemented by locks
//! alone". SGT is that sophisticated principle: maintain the conflict graph
//! of granted steps and grant a request iff it keeps the graph acyclic.
//! Its fixpoint set is exactly CSR — the efficiently-decidable core of the
//! Theorem 3 optimum `SR(T)`.
//!
//! The engine's SGT ([`EngineScheduler`](crate::EngineScheduler) over
//! `CcKind::Sgt`) also waits on a live writer's uncommitted data
//! (strictness), so `P(engine SGT) = P(this) ∩ strict = CSR ∩ strict`
//! (`tests/engine_fixpoints.rs`). This scheduler is the paper's non-strict
//! rung and T2's CSR frontier.

use ccopt_core::info::InfoLevel;
use ccopt_core::scheduler::OnlineScheduler;
use ccopt_model::ids::StepId;
use ccopt_model::syntax::Syntax;

/// The SGT scheduler.
#[derive(Clone, Debug)]
pub struct SgtScheduler {
    syntax: Syntax,
    /// Granted steps in order.
    granted: Vec<StepId>,
    /// Parked requests in arrival order.
    parked: Vec<StepId>,
    forced: usize,
}

impl SgtScheduler {
    /// Build for a system's syntax (SGT needs the conflict relation, i.e.
    /// complete syntactic information).
    pub fn new(syntax: Syntax) -> Self {
        SgtScheduler {
            syntax,
            granted: Vec::new(),
            parked: Vec::new(),
            forced: 0,
        }
    }

    /// Would granting `step` now keep the serialization graph acyclic?
    fn grant_is_safe(&self, step: StepId) -> bool {
        let n = self.syntax.num_txns();
        let mut edges = vec![false; n * n];
        let mut all: Vec<StepId> = self.granted.clone();
        all.push(step);
        for (p, &a) in all.iter().enumerate() {
            for &b in &all[p + 1..] {
                if self.syntax.conflict(a, b) {
                    edges[a.txn.index() * n + b.txn.index()] = true;
                }
            }
        }
        acyclic(&edges, n)
    }

    /// Program order: a step may only be granted when all earlier steps of
    /// its transaction have been granted.
    fn in_program_order(&self, step: StepId) -> bool {
        let done = self.granted.iter().filter(|s| s.txn == step.txn).count() as u32;
        done == step.idx
    }

    fn try_grant(&mut self, step: StepId) -> bool {
        if self.in_program_order(step) && self.grant_is_safe(step) {
            self.granted.push(step);
            true
        } else {
            false
        }
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

fn acyclic(edges: &[bool], n: usize) -> bool {
    // Kahn's algorithm.
    let mut indeg = vec![0usize; n];
    for i in 0..n {
        for (k, d) in indeg.iter_mut().enumerate() {
            if edges[i * n + k] {
                *d += 1;
            }
        }
    }
    let mut removed = vec![false; n];
    for _ in 0..n {
        let Some(next) = (0..n).find(|&k| !removed[k] && indeg[k] == 0) else {
            return false;
        };
        removed[next] = true;
        for (m, d) in indeg.iter_mut().enumerate() {
            if edges[next * n + m] {
                *d -= 1;
            }
        }
    }
    true
}

impl OnlineScheduler for SgtScheduler {
    fn reset(&mut self) {
        self.granted.clear();
        self.parked.clear();
        self.forced = 0;
    }

    fn on_request(&mut self, step: StepId) -> Vec<StepId> {
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
        if !self.parked.is_empty() {
            // The remaining parked steps cannot be granted without a cycle
            // — the aborted-and-restarted transactions replay their steps
            // in arrival order (the run already counts as delayed, and
            // `forced_flushes` reports the restart).
            self.forced += self.parked.len();
            out.append(&mut self.parked);
            for &s in &out {
                if !self.granted.contains(&s) {
                    self.granted.push(s);
                }
            }
        }
        out
    }

    fn name(&self) -> &str {
        "SGT"
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

    #[test]
    fn fixpoint_set_is_exactly_csr() {
        for sys in [systems::fig1(), systems::fig3_pair(), systems::rw_pair(1)] {
            let mut s = SgtScheduler::new(sys.syntax.clone());
            let p = fixpoint_set(&mut s, &sys.format());
            let csr: std::collections::BTreeSet<_> = all_schedules(&sys.format())
                .into_iter()
                .filter(|h| is_csr(&sys.syntax, h))
                .collect();
            assert_eq!(p, csr, "mismatch on {}", sys.name);
        }
    }

    #[test]
    fn outputs_are_legal_for_every_history() {
        let sys = systems::fig3_pair();
        let mut s = SgtScheduler::new(sys.syntax.clone());
        for h in all_schedules(&sys.format()) {
            let run = run_scheduler(&mut s, &h);
            assert!(run.output.is_legal(&sys.format()), "illegal for {h}");
        }
    }

    #[test]
    fn sgt_strictly_beats_2pl_on_rw_pair() {
        // SGT's fixpoint set (CSR) strictly contains 2PL's (lock-compatible
        // histories) on workloads with private variables.
        let sys = systems::rw_pair(2);
        let mut sgt = SgtScheduler::new(sys.syntax.clone());
        let mut tpl = crate::two_phase::two_phase_scheduler(&sys);
        let p_sgt = fixpoint_set(&mut sgt, &sys.format());
        let p_tpl = fixpoint_set(&mut tpl, &sys.format());
        assert!(p_tpl.is_subset(&p_sgt));
        assert!(
            p_tpl.len() < p_sgt.len(),
            "expected strict: 2PL {} vs SGT {}",
            p_tpl.len(),
            p_sgt.len()
        );
    }

    #[test]
    fn parked_cycle_is_flushed_at_finish() {
        use ccopt_model::ids::StepId;
        let sys = systems::fig3_pair();
        let mut s = SgtScheduler::new(sys.syntax.clone());
        s.reset();
        // Build the cycle: T1:x, T2:y granted; T1:y forms edge T2->T1
        // (grantable), then T2:x would close the cycle.
        assert!(!s.on_request(StepId::new(0, 0)).is_empty());
        assert!(!s.on_request(StepId::new(1, 0)).is_empty());
        assert!(!s.on_request(StepId::new(0, 1)).is_empty());
        assert!(s.on_request(StepId::new(1, 1)).is_empty()); // parked
        let tail = s.finish();
        assert_eq!(tail, vec![StepId::new(1, 1)]);
    }
}
