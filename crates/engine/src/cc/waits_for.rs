//! The waits-for graph the blocking mechanisms (strict 2PL, SGT, T/O) share.

use super::{CcConflict, CcDecision, ConflictRule, TxnId};
use crate::dense::SlotMap;

/// The waits-for graph of a blocking mechanism: `edges[w]` is the one
/// transaction `w` waits on. An edge goes in only when it closes no
/// cycle, so the graph stays acyclic and every walk ends at a transaction
/// that waits on nobody: SGT and T/O insert through [`wait`](Self::wait),
/// after a walk proved it; strict 2PL through
/// [`wait_on_running`](Self::wait_on_running), only onto a holder that
/// waits on nobody, which no walk from it can leave.
#[derive(Default, Debug)]
pub(super) struct WaitsFor {
    edges: SlotMap<TxnId>,
}

impl WaitsFor {
    pub(super) fn reserve(&mut self, num_txns: usize) {
        self.edges.reserve_slots(num_txns);
    }

    /// `waiter` must wait on `holder` for the reason `why`. Answers
    /// [`Wait`](CcDecision::Wait) and records `why`, or, when the edge
    /// would close a cycle, drops the waiter's edge, records `why` as a
    /// [`Deadlock`](ConflictRule::Deadlock) and answers
    /// [`Abort`](CcDecision::Abort). An edge that already stands answers
    /// at once: the acyclic graph holds it, so the walk would find no
    /// cycle again.
    pub(super) fn wait(
        &mut self,
        waiter: TxnId,
        holder: TxnId,
        why: CcConflict,
        conflict: &mut Option<CcConflict>,
    ) -> CcDecision {
        if self.edges.get_copied(waiter.index()) == Some(holder) {
            debug_assert!(
                !self.reaches(holder, waiter),
                "a standing waits-for edge closes a cycle"
            );
        } else if self.reaches(holder, waiter) {
            self.edges.remove(waiter.index());
            *conflict = Some(CcConflict {
                rule: ConflictRule::Deadlock,
                ..why
            });
            return CcDecision::Abort;
        } else {
            self.edges.insert(waiter.index(), holder);
        }
        *conflict = Some(why);
        CcDecision::Wait
    }

    /// Like [`wait`](Self::wait), but a fresh edge goes in only when
    /// `holder` waits on nobody. When `holder` itself waits, the waiter's
    /// edge is dropped and the answer is [`Abort`](CcDecision::Abort),
    /// attributed [`Deadlock`](ConflictRule::Deadlock) when the edge would
    /// close a cycle and [`WaitDepth`](ConflictRule::WaitDepth)
    /// otherwise. A standing edge answers `Wait` whatever its holder
    /// does now. The chain walk runs only to attribute a refusal.
    pub(super) fn wait_on_running(
        &mut self,
        waiter: TxnId,
        holder: TxnId,
        why: CcConflict,
        conflict: &mut Option<CcConflict>,
    ) -> CcDecision {
        if self.edges.get_copied(waiter.index()) == Some(holder) {
            debug_assert!(
                !self.reaches(holder, waiter),
                "a standing waits-for edge closes a cycle"
            );
        } else if self.edges.get(holder.index()).is_some() {
            self.edges.remove(waiter.index());
            let rule = if self.reaches(holder, waiter) {
                ConflictRule::Deadlock
            } else {
                ConflictRule::WaitDepth
            };
            *conflict = Some(CcConflict { rule, ..why });
            return CcDecision::Abort;
        } else {
            self.edges.insert(waiter.index(), holder);
        }
        *conflict = Some(why);
        CcDecision::Wait
    }

    /// `t` waits on nobody (it proceeded, or is finishing).
    pub(super) fn unblock(&mut self, t: TxnId) {
        self.edges.remove(t.index());
    }

    /// `t` finished: it waits on nobody and nobody waits on it (its
    /// waiters retry and re-insert their edges). The second half is one
    /// branch-free pass over every slot: about two thirds of a hot
    /// workload's sessions wait on some holder, so a per-slot branch on
    /// "is it `t`?" would mispredict.
    pub(super) fn finish(&mut self, t: TxnId) {
        self.edges.remove(t.index());
        self.edges.remove_value(t);
    }

    /// Does the chain from `from` reach `to`? Each transaction waits on at
    /// most one other, so this is a functional-graph walk. An acyclic
    /// chain visits at most every slot once; the hop bound only keeps a
    /// broken invariant from spinning (it answers "no", as a walk into a
    /// cycle that misses `to` would).
    fn reaches(&self, from: TxnId, to: TxnId) -> bool {
        let mut cur = from;
        for _ in 0..=self.edges.capacity() {
            if cur == to {
                return true;
            }
            match self.edges.get_copied(cur.index()) {
                Some(next) => cur = next,
                None => return false,
            }
        }
        debug_assert!(false, "the waits-for graph has a cycle");
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::tests::{t, v};
    use crate::cc::{Cc, CcKind, ConcurrencyControl, StepKind};

    /// Three transactions hold `v0`, `v1`, `v2`. A wait asked again
    /// stands on the same edge and answers the same attribution; a
    /// standing edge answers only for its own holder; a request that
    /// closes a cycle through a standing edge still aborts as the deadlock
    /// victim; once a holder is gone, its waiter proceeds. All begin at
    /// one stamp: T/O's waits otherwise point from younger to older and
    /// never close a cycle, and the shared stamp (which the `begin_at`
    /// contract rules out) is what lets its walk reach the abort.
    fn standing_wait_answers_like_the_first(mut cc: Cc, rule: ConflictRule) {
        let name = cc.name().to_owned();
        let step = |cc: &mut Cc, i: u32, x: u32| {
            let d = cc.on_step(t(i), v(x), StepKind::Update);
            (
                d,
                (d != CcDecision::Proceed)
                    .then(|| cc.last_conflict())
                    .flatten(),
            )
        };
        for i in 0..3 {
            cc.begin_at(t(i), 0, 7);
            assert_eq!(step(&mut cc, i, i), (CcDecision::Proceed, None), "{name}");
        }
        let wait = |x, holder| {
            (
                CcDecision::Wait,
                Some(CcConflict::new(rule, v(x), t(holder))),
            )
        };
        let deadlock = |x, holder| {
            let c = CcConflict::new(ConflictRule::Deadlock, v(x), t(holder));
            (CcDecision::Abort, Some(c))
        };
        if rule == ConflictRule::LockWait {
            // Strict 2PL restarts a fresh wait on a waiting holder, so t2
            // queues on t1 before t1 starts to wait on t0. Asked again,
            // t2's standing edge still waits although t1 now waits too.
            assert_eq!(step(&mut cc, 2, 1), wait(1, 1), "{name}");
            for _ in 0..100 {
                assert_eq!(step(&mut cc, 1, 0), wait(0, 0), "{name}");
                assert_eq!(step(&mut cc, 2, 1), wait(1, 1), "{name}");
            }
        } else {
            for _ in 0..100 {
                assert_eq!(step(&mut cc, 1, 0), wait(0, 0), "{name}");
            }
            assert_eq!(step(&mut cc, 2, 1), wait(1, 1), "{name}");
        }
        // t1's standing edge points at t0, not at v2's holder t2, which
        // waits on t1: the walk runs and finds the cycle.
        assert_eq!(step(&mut cc, 1, 2), deadlock(2, 2), "{name}");
        cc.on_abort(t(1));
        assert_eq!(step(&mut cc, 2, 1), (CcDecision::Proceed, None), "{name}");
        for _ in 0..100 {
            assert_eq!(step(&mut cc, 0, 2), wait(2, 2), "{name}");
        }
        // t2's request for v0 closes t2 -> t0 -> t2 through the standing
        // edge.
        assert_eq!(step(&mut cc, 2, 0), deadlock(0, 0), "{name}");
        cc.on_abort(t(2));
        assert_eq!(step(&mut cc, 0, 2), (CcDecision::Proceed, None), "{name}");
    }

    #[test]
    fn a_standing_wait_answers_like_the_first_under_2pl_sgt_and_to() {
        standing_wait_answers_like_the_first(CcKind::Strict2pl.build(), ConflictRule::LockWait);
        standing_wait_answers_like_the_first(CcKind::Sgt.build(), ConflictRule::DirtyWait);
        standing_wait_answers_like_the_first(CcKind::Timestamp.build(), ConflictRule::DirtyWait);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a standing waits-for edge closes a cycle")]
    fn a_standing_edge_on_a_cycle_trips_the_debug_check() {
        // Forge a cycle no walk would have admitted: the fast path must
        // notice that the walk it skips would have reached the waiter.
        let mut w = WaitsFor::default();
        w.edges.insert(0, t(1));
        w.edges.insert(1, t(0));
        let why = CcConflict::new(ConflictRule::LockWait, v(0), t(1));
        let _ = w.wait(t(0), t(1), why, &mut None);
    }

    /// Replays a seeded stream of `wait` / `wait_on_running` / `unblock` /
    /// `finish` on `n` slots against a plain `Vec<Option<u32>>` waits-for
    /// graph. After every call the answer, the recorded conflict and every edge must
    /// match, and the graph must stay acyclic.
    fn waits_for_matches_the_model(n: u32, seed: u64, calls: usize) {
        let mut state = seed;
        let mut next = move |bound: u32| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % u64::from(bound)) as u32
        };
        let model_reaches = |m: &[Option<u32>], from: u32, to: u32| {
            let mut cur = Some(from);
            while let Some(c) = cur {
                if c == to {
                    return true;
                }
                cur = m[c as usize];
            }
            false
        };
        let mut w = WaitsFor::default();
        w.reserve(n as usize);
        let mut model: Vec<Option<u32>> = vec![None; n as usize];
        let (mut waits, mut aborts, mut depth_refusals) = (0, 0, 0);
        for call in 0..calls {
            let a = next(n);
            match next(8) {
                // Mostly waits, as on a hot set: on average 62 % of the
                // 32 slots and 65 % of the 256 wait on someone.
                0..=5 => {
                    let h = (a + 1 + next(n - 1)) % n;
                    let why = CcConflict::new(ConflictRule::LockWait, v(next(16)), t(h));
                    let mut got = None;
                    // Half the waits go through strict 2PL's depth rule.
                    let on_running = next(2) == 0;
                    let answer = if on_running {
                        w.wait_on_running(t(a), t(h), why, &mut got)
                    } else {
                        w.wait(t(a), t(h), why, &mut got)
                    };
                    let (want, rule) = if model[a as usize] == Some(h) {
                        (CcDecision::Wait, ConflictRule::LockWait)
                    } else if on_running && model[h as usize].is_some() {
                        model[a as usize] = None;
                        let rule = if model_reaches(&model, h, a) {
                            ConflictRule::Deadlock
                        } else {
                            ConflictRule::WaitDepth
                        };
                        (CcDecision::Abort, rule)
                    } else if model_reaches(&model, h, a) {
                        model[a as usize] = None;
                        (CcDecision::Abort, ConflictRule::Deadlock)
                    } else {
                        model[a as usize] = Some(h);
                        (CcDecision::Wait, ConflictRule::LockWait)
                    };
                    assert_eq!(answer, want, "call {call}: wait({a}, {h})");
                    assert_eq!(got, Some(CcConflict { rule, ..why }), "call {call}");
                    match (answer, rule) {
                        (CcDecision::Abort, ConflictRule::WaitDepth) => depth_refusals += 1,
                        (CcDecision::Abort, _) => aborts += 1,
                        _ => waits += 1,
                    }
                }
                6 => {
                    w.unblock(t(a));
                    model[a as usize] = None;
                }
                _ => {
                    w.finish(t(a));
                    model[a as usize] = None;
                    for e in &mut model {
                        if *e == Some(a) {
                            *e = None;
                        }
                    }
                }
            }
            let edges: Vec<Option<u32>> = (0..n as usize)
                .map(|i| w.edges.get_copied(i).map(|h| h.0))
                .collect();
            assert_eq!(edges, model, "call {call}");
            for i in 0..n {
                // An acyclic functional graph: every chain ends within n
                // hops at a slot that waits on nobody.
                let mut cur = model[i as usize];
                let mut hops = 0;
                while let Some(c) = cur {
                    hops += 1;
                    assert!(hops <= n, "call {call}: a cycle through slot {i}");
                    cur = model[c as usize];
                }
            }
        }
        // The stream exercised every answer.
        assert!(
            waits > calls / 4 && aborts > 0 && depth_refusals > 0,
            "{waits} waits, {aborts} deadlocks, {depth_refusals} depth refusals"
        );
    }

    #[test]
    fn waits_for_matches_an_option_graph_model() {
        waits_for_matches_the_model(32, 0x5eed_0032, 20_000);
        // The served shard's `max_txns`.
        waits_for_matches_the_model(256, 0x5eed_0256, 20_000);
    }
}
