//! The open-world oracles: black-box checks over a recorded committed
//! history ([`OpenSimResult::history`]), independent of which driver —
//! unsharded or sharded — produced it.

use crate::open_sim::{CommittedTxn, OpenSimResult};
use ccopt_model::state::GlobalState;
use ccopt_model::syntax::StepKind;
use std::cmp::Reverse;

/// Replay the committed history against a serial order and compare final
/// states — the open-world serializability spot-check.
///
/// Single-version mechanisms: build the conflict graph over the committed
/// operations (reads conflict at their execution sequence; the writes of
/// deferred-write mechanisms take effect at the commit sequence, matching
/// when they reached storage), topologically sort it, and replay the
/// transactions serially in that order. Multi-version (MVTO): replay in
/// begin-timestamp order — MVTO's serialization theorem. A conflict cycle
/// or a final-state mismatch is reported as `Err`.
///
/// Snapshot isolation admits write skew by design; callers exempt it.
pub fn check_serializable(r: &OpenSimResult) -> Result<(), String> {
    let order: Vec<usize> = if r.multiversion {
        let mut idx: Vec<usize> = (0..r.history.len()).collect();
        idx.sort_by_key(|&i| (r.history[i].view, r.history[i].commit_seq));
        idx
    } else {
        topo_order(&r.history, r.defers_writes)?
    };
    let mut state = vec![0i64; r.final_state.len()];
    for &i in &order {
        for &(_, op) in &r.history[i].ops {
            if op.kind.writes() {
                let slot = &mut state[op.var.index()];
                *slot = op.eval(*slot);
            }
        }
    }
    let replayed = GlobalState::from_ints(&state);
    if replayed == r.final_state {
        Ok(())
    } else {
        Err(format!(
            "{}: serial replay of {} committed txns diverges: replay {replayed} vs engine {}",
            r.cc_name,
            r.history.len(),
            r.final_state
        ))
    }
}

/// Assert the committed history is **strict** — the property redo-only
/// logging rests on: no transaction observes another's uncommitted write,
/// and writes are installed only under their writer's control, undone
/// before anyone else can see them on abort. Strict committed histories
/// are reproducible from committed write-sets in commit order, so a redo
/// log needs nothing else.
///
/// * Deferred-write mechanisms (OCC, MVTO, SI) are strict by
///   construction: buffered writes reach the store only in the commit
///   write phase, so the store never holds uncommitted data at all — the
///   checker verifies the structural invariant that every operation
///   executed before its transaction's commit point and trusts deferral
///   for the rest.
/// * Immediate-write mechanisms (serial, 2PL, SGT, T/O) install writes
///   mid-transaction; the checker sweeps each variable's committed
///   accesses in global execution order and rejects any access that lands
///   inside another transaction's write-to-commit window.
pub fn check_strict(r: &OpenSimResult) -> Result<(), String> {
    for (i, t) in r.history.iter().enumerate() {
        for &(s, _) in &t.ops {
            if s >= t.commit_seq {
                return Err(format!(
                    "{}: txn {i} executed an op at seq {s} at/after its commit {}",
                    r.cc_name, t.commit_seq
                ));
            }
        }
    }
    if r.defers_writes {
        return Ok(()); // buffered writes: the store holds committed data only
    }
    // Per variable: every access in (write_seq, writer_commit_seq) of a
    // different transaction is a strictness violation.
    let mut by_var: std::collections::BTreeMap<u32, Vec<(u64, usize, bool, u64)>> =
        std::collections::BTreeMap::new();
    for (i, t) in r.history.iter().enumerate() {
        for &(s, op) in &t.ops {
            by_var
                .entry(op.var.0)
                .or_default()
                .push((s, i, op.kind.writes(), t.commit_seq));
        }
    }
    for (var, accs) in &mut by_var {
        accs.sort_unstable();
        // The open dirty window: (owner, commit_seq of the owner).
        let mut dirty: Option<(usize, u64)> = None;
        for &(s, i, writes, commit_seq) in accs.iter() {
            if let Some((owner, until)) = dirty {
                if s >= until {
                    dirty = None;
                } else if i != owner {
                    return Err(format!(
                        "{}: txn {i} touched v{var} at seq {s}, inside txn {owner}'s \
                         uncommitted write window (ends at {until})",
                        r.cc_name
                    ));
                }
            }
            if writes {
                dirty = Some((i, commit_seq));
            }
        }
    }
    Ok(())
}

/// Conflict-graph topological order of a single-version committed history
/// (`Err` when the conflict graph has a cycle — a serializability
/// violation on its own).
fn topo_order(history: &[CommittedTxn], defers_writes: bool) -> Result<Vec<usize>, String> {
    let n = history.len();
    // Flatten to (effect sequence, txn, var, kind): the point each access
    // became visible to others. Reads observe at execution; the writes of
    // a deferred-write mechanism reach storage only in the commit-time
    // write phase, so their effect sequence is the commit's.
    let mut accesses: Vec<(u64, usize, u32, StepKind)> = Vec::new();
    for (i, t) in history.iter().enumerate() {
        for &(s, op) in &t.ops {
            let eff = if defers_writes && op.kind.writes() {
                t.commit_seq
            } else {
                s
            };
            accesses.push((eff, i, op.var.0, op.kind));
        }
    }
    accesses.sort_unstable_by_key(|&(s, i, _, _)| (s, i));
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut in_deg: Vec<usize> = vec![0; n];
    // Per variable, every conflicting ordered pair adds an edge.
    let mut by_var: std::collections::BTreeMap<u32, Vec<(u64, usize, StepKind)>> =
        std::collections::BTreeMap::new();
    for &(s, i, v, k) in &accesses {
        by_var.entry(v).or_default().push((s, i, k));
    }
    for accs in by_var.values() {
        for (x, &(_, i, ki)) in accs.iter().enumerate() {
            for &(_, j, kj) in &accs[x + 1..] {
                if i != j && ki.conflicts_with(kj) && !out[i].contains(&j) {
                    out[i].push(j);
                    in_deg[j] += 1;
                }
            }
        }
    }
    // Kahn, smallest index first for determinism.
    let mut ready: std::collections::BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&i| in_deg[i] == 0).map(Reverse).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(i)) = ready.pop() {
        order.push(i);
        for &j in &out[i] {
            in_deg[j] -= 1;
            if in_deg[j] == 0 {
                ready.push(Reverse(j));
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        Err(format!(
            "conflict cycle among {} committed transactions",
            n - order.len()
        ))
    }
}
