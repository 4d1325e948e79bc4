//! Serial: one global token.

use super::{CcConflict, CcDecision, ConcurrencyControl, ConflictRule, StepKind, TxnId, VarId};

/// The introduction's strawman: a single global token; only the holder may
/// execute, everyone else waits.
#[derive(Default, Debug)]
pub struct SerialCc {
    holder: Option<TxnId>,
    conflict: Option<CcConflict>,
}

impl ConcurrencyControl for SerialCc {
    fn begin(&mut self, _t: TxnId, _tick: u64) {}

    fn on_step(&mut self, t: TxnId, var: VarId, _kind: StepKind) -> CcDecision {
        match self.holder {
            None => {
                self.holder = Some(t);
                CcDecision::Proceed
            }
            Some(h) if h == t => CcDecision::Proceed,
            Some(h) => {
                self.conflict = Some(CcConflict::new(ConflictRule::LockWait, var, h));
                CcDecision::Wait
            }
        }
    }

    fn on_commit(&mut self, _t: TxnId, _tick: u64) -> CcDecision {
        CcDecision::Proceed
    }

    fn after_commit(&mut self, t: TxnId) {
        if self.holder == Some(t) {
            self.holder = None;
        }
    }

    fn on_abort(&mut self, t: TxnId) {
        self.after_commit(t);
    }

    fn name(&self) -> &str {
        "serial"
    }

    fn last_conflict(&self) -> Option<CcConflict> {
        self.conflict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::tests::{t, v};

    #[test]
    fn serial_cc_gives_token_to_one_txn() {
        let mut cc = SerialCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_step(t(1), v(1), StepKind::Update), CcDecision::Wait);
        assert_eq!(cc.on_commit(t(0), 1), CcDecision::Proceed);
        cc.after_commit(t(0));
        assert_eq!(
            cc.on_step(t(1), v(1), StepKind::Update),
            CcDecision::Proceed
        );
    }
}
