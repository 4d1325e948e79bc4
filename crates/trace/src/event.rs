//! Lifecycle events, conflict attribution, and the JSONL wire form.
//!
//! Identities are engine-level: `txn` fields carry the attempt's **global
//! sequence number** (never recycled, so a trace is unambiguous across
//! slot reuse), `var` fields carry the dense variable index, `gtid` the
//! cross-shard transaction id. A [`TraceEvent`] wraps an [`EventKind`]
//! with its ordering coordinates: `(shard, seq)` positions it in its
//! shard's stream (gap detection), `gseq` positions it in the merged
//! cross-shard stream (sort by `gseq` and the result is totally ordered).

/// Which concurrency-control rule fired on a rejection (wait or abort).
///
/// The vocabulary spans all seven mechanisms plus the sharded layer's
/// non-CC aborts, so per-reason counters can live in one fixed array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConflictRule {
    /// 2PL: the requested lock conflicts with a holder; the requester
    /// queues.
    LockWait,
    /// 2PL: granting the wait would close a waits-for cycle; the
    /// requester is the victim.
    Deadlock,
    /// SGT: admitting the step would close a serialization-graph cycle.
    SgtCycle,
    /// Strictness: the step touches an uncommitted write and waits for
    /// the writer's outcome (SGT reads/overwrites, T/O dirty access).
    DirtyWait,
    /// SGT commit-order mode: a transaction may not commit before its
    /// graph predecessors (the sharded 2PC gate).
    CommitOrderWait,
    /// T/O: the read arrived below a committed writer's timestamp.
    ReadTooLate,
    /// T/O: the write arrived below a committed reader's or writer's
    /// timestamp.
    WriteTooLate,
    /// OCC: backward validation found the read set intersecting a
    /// committed transaction's write set.
    OccValidation,
    /// MVTO: the write can no longer be installed at the transaction's
    /// timestamp (a newer version exists or a younger snapshot read the
    /// superseded one).
    MvWriteTooLate,
    /// MVTO: the access waits on an older transaction's pending write.
    MvPendingWait,
    /// SI: the step would overwrite a version committed since the
    /// transaction's snapshot (first-updater-wins).
    SiFirstUpdater,
    /// SI: commit-time validation lost first-committer-wins.
    SiFirstCommitter,
    /// 2PL: the lock holder itself waits, so a fresh wait would queue
    /// behind a blocked transaction; the requester restarts instead.
    WaitDepth,
    /// The transaction was failed by shard-crash supervision (its shard
    /// died mid-flight and the slot could not be resumed).
    ShardFailover,
    /// An explicit client abort (no conflict; kept so every abort has a
    /// reason).
    Client,
    /// The mechanism did not attribute the rejection (a third-party
    /// `ConcurrencyControl` without `last_conflict` support; never
    /// produced by the in-tree mechanisms).
    Unattributed,
}

impl ConflictRule {
    /// Number of rules (the length of per-reason counter arrays).
    pub const COUNT: usize = 16;

    /// All rules, in `index` order.
    pub const ALL: [ConflictRule; ConflictRule::COUNT] = [
        ConflictRule::LockWait,
        ConflictRule::Deadlock,
        ConflictRule::SgtCycle,
        ConflictRule::DirtyWait,
        ConflictRule::CommitOrderWait,
        ConflictRule::ReadTooLate,
        ConflictRule::WriteTooLate,
        ConflictRule::OccValidation,
        ConflictRule::MvWriteTooLate,
        ConflictRule::MvPendingWait,
        ConflictRule::SiFirstUpdater,
        ConflictRule::SiFirstCommitter,
        ConflictRule::WaitDepth,
        ConflictRule::ShardFailover,
        ConflictRule::Client,
        ConflictRule::Unattributed,
    ];

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        ConflictRule::ALL
            .iter()
            .position(|&r| r == self)
            .expect("every rule is listed")
    }

    /// Stable wire name (snake_case, used in JSONL).
    pub fn name(self) -> &'static str {
        match self {
            ConflictRule::LockWait => "lock_wait",
            ConflictRule::Deadlock => "deadlock",
            ConflictRule::SgtCycle => "sgt_cycle",
            ConflictRule::DirtyWait => "dirty_wait",
            ConflictRule::CommitOrderWait => "commit_order_wait",
            ConflictRule::ReadTooLate => "read_too_late",
            ConflictRule::WriteTooLate => "write_too_late",
            ConflictRule::OccValidation => "occ_validation",
            ConflictRule::MvWriteTooLate => "mv_write_too_late",
            ConflictRule::MvPendingWait => "mv_pending_wait",
            ConflictRule::SiFirstUpdater => "si_first_updater",
            ConflictRule::SiFirstCommitter => "si_first_committer",
            ConflictRule::WaitDepth => "wait_depth",
            ConflictRule::ShardFailover => "shard_failover",
            ConflictRule::Client => "client",
            ConflictRule::Unattributed => "unattributed",
        }
    }
}

impl std::fmt::Display for ConflictRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The summary of a CC decision (the verdict dimension of
/// [`EventKind::CcDecision`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The step (or commit) was admitted.
    Proceed,
    /// The requester must wait.
    Wait,
    /// The requester must abort and restart.
    Abort,
}

impl Verdict {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Proceed => "proceed",
            Verdict::Wait => "wait",
            Verdict::Abort => "abort",
        }
    }
}

/// What happened (the payload of a [`TraceEvent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A transaction attempt started (`txn` is its fresh gsn).
    TxnBegin {
        /// The attempt.
        txn: u64,
    },
    /// A read step executed.
    StepRead {
        /// The reading attempt.
        txn: u64,
        /// The variable read.
        var: u32,
    },
    /// A write (or update) step executed.
    StepWrite {
        /// The writing attempt.
        txn: u64,
        /// The variable written.
        var: u32,
    },
    /// The concurrency control ruled on a step or commit request.
    CcDecision {
        /// The requesting attempt.
        txn: u64,
        /// The ruling.
        verdict: Verdict,
    },
    /// The attempt blocked (attribution of a `Wait` verdict).
    Wait {
        /// The blocked attempt.
        txn: u64,
        /// The rule that forced the wait.
        rule: ConflictRule,
        /// The contended variable, when the rule names one (commit-order
        /// waits do not).
        var: Option<u32>,
        /// The opponent attempt holding it (gsn), when known.
        opponent: Option<u64>,
    },
    /// The attempt aborted (attribution of an `Abort` verdict).
    Abort {
        /// The aborted attempt.
        txn: u64,
        /// The rule that fired.
        rule: ConflictRule,
        /// The contended variable, when the rule names one.
        var: Option<u32>,
        /// The opponent attempt (gsn), when known.
        opponent: Option<u64>,
    },
    /// 2PC phase 1: this shard voted on a cross-shard transaction.
    Prepare {
        /// The local attempt.
        txn: u64,
        /// The global transaction.
        gtid: u64,
        /// `true` = yes-vote (write-set durable), `false` = no.
        vote: bool,
    },
    /// 2PC phase 2: the decision for a prepared global transaction.
    Resolve {
        /// The decided global transaction.
        gtid: u64,
        /// `true` commits the parked prepare, `false` discards it.
        commit: bool,
    },
    /// The attempt committed.
    Commit {
        /// The committed attempt.
        txn: u64,
    },
    /// The session retired (its dense slot was handed back).
    Retire {
        /// The retired attempt.
        txn: u64,
    },
    /// A shard worker died (panic or unrecoverable storage).
    ShardDown {
        /// The dead shard.
        shard: u32,
    },
    /// A shard worker was recovered and respawned in place.
    ShardUp {
        /// The recovered shard.
        shard: u32,
    },
    /// The server accepted a client connection (network plane).
    ConnAccept {
        /// The server-assigned connection id.
        conn: u64,
    },
    /// A client connection closed (EOF, I/O error, or drain).
    ConnClose {
        /// The closed connection.
        conn: u64,
    },
    /// Admission control refused a request on a connection (the request
    /// was answered with a load-shed response, not queued).
    RequestShed {
        /// The shed connection.
        conn: u64,
    },
    /// Graceful drain began: no new transactions are admitted.
    DrainStart,
    /// Graceful drain finished: in-flight work settled, logs synced.
    DrainDone,
}

impl EventKind {
    /// Stable wire name of the event type.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TxnBegin { .. } => "txn_begin",
            EventKind::StepRead { .. } => "step_read",
            EventKind::StepWrite { .. } => "step_write",
            EventKind::CcDecision { .. } => "cc_decision",
            EventKind::Wait { .. } => "wait",
            EventKind::Abort { .. } => "abort",
            EventKind::Prepare { .. } => "prepare",
            EventKind::Resolve { .. } => "resolve",
            EventKind::Commit { .. } => "commit",
            EventKind::Retire { .. } => "retire",
            EventKind::ShardDown { .. } => "shard_down",
            EventKind::ShardUp { .. } => "shard_up",
            EventKind::ConnAccept { .. } => "conn_accept",
            EventKind::ConnClose { .. } => "conn_close",
            EventKind::RequestShed { .. } => "request_shed",
            EventKind::DrainStart => "drain_start",
            EventKind::DrainDone => "drain_done",
        }
    }
}

/// One traced occurrence: an [`EventKind`] plus its ordering coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global order stamp: sorting a merged multi-shard trace by `gseq`
    /// yields a total order consistent with every per-shard stream.
    pub gseq: u64,
    /// The emitting shard (0 on unsharded databases).
    pub shard: u32,
    /// Position in the emitting shard's stream (1-based, gap-free while
    /// the shard lives — a jump marks events lost to a crash).
    pub seq: u64,
    /// Engine tick at emission (simulated time; deterministic).
    pub tick: u64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Encode as one JSONL line (no trailing newline). All values are
    /// numbers or fixed enum names, so no string escaping is needed.
    pub fn to_jsonl(&self) -> String {
        let mut s = format!(
            "{{\"gseq\":{},\"shard\":{},\"seq\":{},\"tick\":{},\"event\":\"{}\"",
            self.gseq,
            self.shard,
            self.seq,
            self.tick,
            self.kind.name()
        );
        match self.kind {
            EventKind::TxnBegin { txn } | EventKind::Commit { txn } | EventKind::Retire { txn } => {
                s.push_str(&format!(",\"txn\":{txn}"));
            }
            EventKind::StepRead { txn, var } | EventKind::StepWrite { txn, var } => {
                s.push_str(&format!(",\"txn\":{txn},\"var\":{var}"));
            }
            EventKind::CcDecision { txn, verdict } => {
                s.push_str(&format!(
                    ",\"txn\":{txn},\"verdict\":\"{}\"",
                    verdict.name()
                ));
            }
            EventKind::Wait {
                txn,
                rule,
                var,
                opponent,
            }
            | EventKind::Abort {
                txn,
                rule,
                var,
                opponent,
            } => {
                s.push_str(&format!(",\"txn\":{txn},\"rule\":\"{rule}\""));
                if let Some(v) = var {
                    s.push_str(&format!(",\"var\":{v}"));
                }
                if let Some(o) = opponent {
                    s.push_str(&format!(",\"opponent\":{o}"));
                }
            }
            EventKind::Prepare { txn, gtid, vote } => {
                s.push_str(&format!(",\"txn\":{txn},\"gtid\":{gtid},\"vote\":{vote}"));
            }
            EventKind::Resolve { gtid, commit } => {
                s.push_str(&format!(",\"gtid\":{gtid},\"commit\":{commit}"));
            }
            EventKind::ShardDown { shard } | EventKind::ShardUp { shard } => {
                s.push_str(&format!(",\"down_shard\":{shard}"));
            }
            EventKind::ConnAccept { conn }
            | EventKind::ConnClose { conn }
            | EventKind::RequestShed { conn } => {
                s.push_str(&format!(",\"conn\":{conn}"));
            }
            EventKind::DrainStart | EventKind::DrainDone => {}
        }
        s.push('}');
        s
    }
}

/// Validate one JSONL line against the event schema: well-formed flat
/// object, the ordering coordinates present and numeric, a known event
/// name, and the event's required fields present with the right shape.
/// Returns the event name on success.
pub fn validate_jsonl_line(line: &str) -> Result<&'static str, String> {
    let line = line.trim();
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line:?}"))?;
    // Flat object, values are numbers / booleans / escape-free strings:
    // splitting on ',' is exact.
    let mut fields: Vec<(String, String)> = Vec::new();
    for pair in inner.split(',') {
        let (k, v) = pair
            .split_once(':')
            .ok_or_else(|| format!("field without ':': {pair:?}"))?;
        let k = k
            .trim()
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted key: {k:?}"))?;
        fields.push((k.to_string(), v.trim().to_string()));
    }
    let get = |k: &str| fields.iter().find(|(f, _)| f == k).map(|(_, v)| v.as_str());
    let num = |k: &str| -> Result<u64, String> {
        get(k)
            .ok_or_else(|| format!("missing field {k:?}"))?
            .parse::<u64>()
            .map_err(|_| format!("field {k:?} is not a u64"))
    };
    let boolean = |k: &str| -> Result<bool, String> {
        match get(k) {
            Some("true") => Ok(true),
            Some("false") => Ok(false),
            Some(v) => Err(format!("field {k:?} is not a bool: {v:?}")),
            None => Err(format!("missing field {k:?}")),
        }
    };
    let string = |k: &str| -> Result<&str, String> {
        get(k)
            .ok_or_else(|| format!("missing field {k:?}"))?
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("field {k:?} is not a string"))
    };
    num("gseq")?;
    num("shard")?;
    num("seq")?;
    num("tick")?;
    let event = string("event")?;
    let known = [
        "txn_begin",
        "step_read",
        "step_write",
        "cc_decision",
        "wait",
        "abort",
        "prepare",
        "resolve",
        "commit",
        "retire",
        "shard_down",
        "shard_up",
        "conn_accept",
        "conn_close",
        "request_shed",
        "drain_start",
        "drain_done",
    ];
    let event: &'static str = known
        .iter()
        .find(|&&e| e == event)
        .copied()
        .ok_or_else(|| format!("unknown event {event:?}"))?;
    match event {
        "txn_begin" | "commit" | "retire" => {
            num("txn")?;
        }
        "step_read" | "step_write" => {
            num("txn")?;
            num("var")?;
        }
        "cc_decision" => {
            num("txn")?;
            let v = string("verdict")?;
            if !["proceed", "wait", "abort"].contains(&v) {
                return Err(format!("unknown verdict {v:?}"));
            }
        }
        "wait" | "abort" => {
            num("txn")?;
            let rule = string("rule")?;
            if !ConflictRule::ALL.iter().any(|r| r.name() == rule) {
                return Err(format!("unknown rule {rule:?}"));
            }
            if get("var").is_some() {
                num("var")?;
            }
            if get("opponent").is_some() {
                num("opponent")?;
            }
        }
        "prepare" => {
            num("txn")?;
            num("gtid")?;
            boolean("vote")?;
        }
        "resolve" => {
            num("gtid")?;
            boolean("commit")?;
        }
        "shard_down" | "shard_up" => {
            num("down_shard")?;
        }
        "conn_accept" | "conn_close" | "request_shed" => {
            num("conn")?;
        }
        "drain_start" | "drain_done" => {}
        _ => unreachable!(),
    }
    Ok(event)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind) -> TraceEvent {
        TraceEvent {
            gseq: 7,
            shard: 1,
            seq: 3,
            tick: 42,
            kind,
        }
    }

    #[test]
    fn every_kind_round_trips_through_the_validator() {
        let kinds = [
            EventKind::TxnBegin { txn: 1 },
            EventKind::StepRead { txn: 1, var: 2 },
            EventKind::StepWrite { txn: 1, var: 2 },
            EventKind::CcDecision {
                txn: 1,
                verdict: Verdict::Wait,
            },
            EventKind::Wait {
                txn: 1,
                rule: ConflictRule::LockWait,
                var: Some(2),
                opponent: Some(9),
            },
            EventKind::Wait {
                txn: 1,
                rule: ConflictRule::CommitOrderWait,
                var: None,
                opponent: None,
            },
            EventKind::Abort {
                txn: 1,
                rule: ConflictRule::Deadlock,
                var: Some(2),
                opponent: Some(9),
            },
            EventKind::Abort {
                txn: 1,
                rule: ConflictRule::Client,
                var: None,
                opponent: None,
            },
            EventKind::Prepare {
                txn: 1,
                gtid: 5,
                vote: true,
            },
            EventKind::Resolve {
                gtid: 5,
                commit: false,
            },
            EventKind::Commit { txn: 1 },
            EventKind::Retire { txn: 1 },
            EventKind::ShardDown { shard: 3 },
            EventKind::ShardUp { shard: 3 },
            EventKind::ConnAccept { conn: 11 },
            EventKind::ConnClose { conn: 11 },
            EventKind::RequestShed { conn: 11 },
            EventKind::DrainStart,
            EventKind::DrainDone,
        ];
        for kind in kinds {
            let line = ev(kind).to_jsonl();
            let name = validate_jsonl_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(name, kind.name());
        }
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_jsonl_line("not json").is_err());
        assert!(validate_jsonl_line("{\"gseq\":1}").is_err());
        assert!(validate_jsonl_line(
            "{\"gseq\":1,\"shard\":0,\"seq\":1,\"tick\":0,\"event\":\"nope\"}"
        )
        .is_err());
        // An abort without a rule is missing its attribution.
        assert!(validate_jsonl_line(
            "{\"gseq\":1,\"shard\":0,\"seq\":1,\"tick\":0,\"event\":\"abort\",\"txn\":1}"
        )
        .is_err());
    }

    #[test]
    fn a_wait_depth_abort_names_its_rule_on_the_wire() {
        let line = ev(EventKind::Abort {
            txn: 4,
            rule: ConflictRule::WaitDepth,
            var: Some(2),
            opponent: Some(9),
        })
        .to_jsonl();
        assert!(line.contains(",\"rule\":\"wait_depth\""), "{line}");
        assert_eq!(validate_jsonl_line(&line), Ok("abort"));
    }

    #[test]
    fn rule_indices_are_dense_and_stable() {
        for (i, r) in ConflictRule::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        assert_eq!(ConflictRule::ALL.len(), ConflictRule::COUNT);
    }
}
