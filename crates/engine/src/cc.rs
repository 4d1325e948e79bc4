//! Pluggable concurrency control for the engine.
//!
//! Each implementation answers three questions: may this step run now, may
//! this transaction commit, and what happens on abort. The five classical
//! mechanisms are provided, with real abort/rollback/restart dynamics.
//! `ccopt-schedulers`' `EngineScheduler` runs each one as an order-model
//! scheduler. Measured there, serial and OCC have exactly the fixpoint
//! sets of the paper's strawman and of backward validation; SGT and T/O
//! have those of the order-model SGT and T/O intersected with strictness;
//! strict 2PL's is a subset of the lock-respecting 2PL's.
//!
//! All bookkeeping is kept in dense, index-keyed tables (`dense.rs`):
//! `TxnId` and `VarId` are dense `u32` indices, so lock tables, stamps,
//! footprints and waits-for edges are flat `Vec` slots with O(1) access
//! instead of O(log n) tree walks. [`ConcurrencyControl::prepare`] pre-sizes
//! every table for a known `(num_txns, num_vars)`; without it the tables
//! grow on demand, so bare `Default` construction keeps working.

use crate::dense::{ensure_index, DenseBitSet, EpochBitSet, SlotMap};
use ccopt_model::ids::{TxnId, VarId};
use ccopt_model::syntax::StepKind;
pub use ccopt_trace::ConflictRule;
use std::collections::VecDeque;

/// Decision for a step or commit request.
#[must_use = "a CC decision not acted on silently drops waits and aborts"]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CcDecision {
    /// Execute now.
    Proceed,
    /// Block; retry after other transactions make progress.
    Wait,
    /// Abort the requesting transaction (rollback and restart).
    Abort,
}

/// Attribution of a non-[`Proceed`](CcDecision::Proceed) decision: which
/// rule fired, over which variable, against whom. Recorded by every
/// mechanism on its Wait/Abort paths (never on the Proceed hot path) and
/// read back through [`ConcurrencyControl::last_conflict`] by the session
/// layer for every abort and commit wait, and for a step wait only when
/// it traces: a step wait's variable is the step's own (the contract on
/// `last_conflict`), so the contention table needs no read-back.
///
/// `opponent` is the opponent's dense slot at decision time. For live
/// opponents (lock holders, dirty writers, pending writers) the slot
/// resolves exactly; for already-committed opponents (OCC backward
/// validation, SI first-committer) it resolves to the attempt currently
/// occupying the slot — exact until the opponent's session retires and
/// the slot recycles, best-effort after.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CcConflict {
    /// The rule that fired.
    pub rule: ConflictRule,
    /// The contended variable, when the rule names one.
    pub var: Option<VarId>,
    /// The opponent transaction's dense slot, when known.
    pub opponent: Option<TxnId>,
}

impl CcConflict {
    fn new(rule: ConflictRule, var: VarId, opponent: TxnId) -> CcConflict {
        CcConflict {
            rule,
            var: Some(var),
            opponent: Some(opponent),
        }
    }

    fn var_only(rule: ConflictRule, var: VarId) -> CcConflict {
        CcConflict {
            rule,
            var: Some(var),
            opponent: None,
        }
    }
}

/// A concurrency-control mechanism.
///
/// `Send` is a supertrait so a boxed mechanism can move between threads
/// with its database: a `ShardedDb` moves whole, with one `SessionDb` —
/// and therefore one mechanism — behind each shard's
/// [`ccopt-par` `Worker`](ccopt_par::Worker); every implementation is
/// plain owned data, so this costs nothing.
pub trait ConcurrencyControl: Send {
    /// Announce the table dimensions before the first `begin`: at most
    /// `num_txns` concurrent transactions (dense ids `0..num_txns`) over
    /// `num_vars` variables. Implementations pre-size their dense tables so
    /// the decision path never allocates; every mechanism also grows on
    /// demand, so calling this is an optimization, not an obligation.
    fn prepare(&mut self, num_txns: usize, num_vars: usize) {
        let _ = (num_txns, num_vars);
    }

    /// A transaction (re)starts; `tick` is a monotone engine clock.
    fn begin(&mut self, t: TxnId, tick: u64);

    /// Like [`begin`](Self::begin), but with an externally assigned
    /// transaction timestamp. Timestamp-based mechanisms (T/O, MVTO) use
    /// `ts` verbatim as the transaction's stamp instead of drawing from
    /// their internal clock; everyone else ignores it. The sharded engine
    /// hands every global transaction one globally unique, monotone `ts`
    /// and begins it with that stamp on *every* shard it touches, so the
    /// per-shard timestamp orders all agree with the single global order
    /// — the timestamp half of the cross-shard serializability argument
    /// (`docs/SHARDING.md`). Callers must hand out strictly increasing,
    /// never-reused `ts` values.
    fn begin_at(&mut self, t: TxnId, tick: u64, ts: u64) {
        let _ = ts;
        self.begin(t, tick);
    }

    /// Require commits to respect conflict order: once enabled, a
    /// transaction with a live (uncommitted) direct predecessor in the
    /// conflict order must not commit before it —
    /// [`on_commit`](Self::on_commit) answers [`CcDecision::Wait`]
    /// instead. Mechanisms
    /// whose serialization order already *is* their commit order (locks
    /// held to commit, backward validation) or an externally consistent
    /// timestamp order ([`begin_at`](Self::begin_at)) need nothing and
    /// keep the default no-op; SGT overrides it, because its serialization
    /// order is otherwise an arbitrary topological order that different
    /// shards may pick inconsistently. Enabled by the sharded engine on
    /// every shard (`docs/SHARDING.md`); never used single-shard.
    fn enable_commit_order(&mut self) {}

    /// A transaction wants to execute a step on `var`.
    fn on_step(&mut self, t: TxnId, var: VarId, kind: StepKind) -> CcDecision;

    /// A transaction wants to commit.
    fn on_commit(&mut self, t: TxnId, tick: u64) -> CcDecision;

    /// Cleanup after a successful commit.
    fn after_commit(&mut self, t: TxnId);

    /// Cleanup after an abort (locks released, footprints dropped).
    fn on_abort(&mut self, t: TxnId);

    /// Name for reports.
    fn name(&self) -> &str;

    /// Attribution of the most recent [`Wait`](CcDecision::Wait) or
    /// [`Abort`](CcDecision::Abort) this mechanism returned: the rule that
    /// fired, the contended variable, the opponent. Valid immediately
    /// after the non-Proceed decision (the value is not cleared on later
    /// Proceeds, so read it right away). The default returns `None`;
    /// every in-tree mechanism overrides it.
    ///
    /// A `Wait` from [`on_step`](Self::on_step) is attributed to the
    /// step's own variable: the session layer books it there without
    /// calling this (it does for the trace, and asserts the contract in
    /// debug builds). Aborts and commit waits may name any variable, or
    /// none.
    fn last_conflict(&self) -> Option<CcConflict> {
        None
    }

    /// When true, the engine buffers the transaction's writes locally and
    /// applies them to storage only at commit (OCC's write phase). When
    /// false, writes go to storage immediately and aborts restore
    /// before-images.
    fn defers_writes(&self) -> bool {
        false
    }

    /// When true, the engine routes reads through the multi-version store
    /// ([`crate::mvstore::MvStore`]) at [`read_view`](Self::read_view) and
    /// installs commits as new versions at
    /// [`commit_view`](Self::commit_view) instead of overwriting in place.
    /// Multi-version mechanisms must also defer writes (versions only ever
    /// hold committed data).
    fn multiversion(&self) -> bool {
        false
    }

    /// Snapshot timestamp the reads of `t` observe (multi-version
    /// mechanisms only).
    fn read_view(&self, t: TxnId) -> u64 {
        let _ = t;
        0
    }

    /// Version timestamp the buffered writes of `t` are installed at; valid
    /// once `on_commit` returned [`CcDecision::Proceed`] (multi-version
    /// mechanisms only).
    fn commit_view(&self, t: TxnId) -> u64 {
        let _ = t;
        0
    }

    /// Oldest snapshot any live transaction may still read. Versions not
    /// visible at or after this point are garbage
    /// ([`crate::mvstore::MvStore::gc`]).
    fn gc_watermark(&self) -> u64 {
        u64::MAX
    }

    /// Crash recovery replayed a log whose versions and commits reach up
    /// to timestamp `ts_floor`: advance every internal clock so that all
    /// future snapshots and commit timestamps are strictly greater.
    /// Called once, before the first `begin` of a recovered database.
    /// Mechanisms whose clocks restart harmlessly (every table is empty
    /// after a crash) keep the default no-op; the timestamp-based ones
    /// override it so recovered version chains stay append-only and new
    /// snapshots observe the whole recovered history.
    fn resume(&mut self, ts_floor: u64) {
        let _ = ts_floor;
    }

    /// The dense slot of `t` is being retired so a *different, future*
    /// transaction can recycle it (the open-world session lifecycle;
    /// [`after_commit`](Self::after_commit) or [`on_abort`](Self::on_abort)
    /// has already run). Returns `true` when the mechanism has forgotten
    /// every trace of `t` and the slot may be reused immediately; `false`
    /// defers the retirement — the caller must retry later, after other
    /// transactions finish. The default covers every mechanism whose
    /// per-transaction state is already cleared at commit/abort; SGT
    /// overrides it because committed transactions stay in its conflict
    /// graph until no future cycle can pass through them.
    fn retire(&mut self, t: TxnId) -> bool {
        let _ = t;
        true
    }
}

/// The waits-for graph of a blocking mechanism: `edges[w]` is the one
/// transaction `w` waits on. An edge goes in only after a walk proved it
/// closes no cycle, so the graph stays acyclic and every walk ends at a
/// transaction that waits on nobody.
#[derive(Default, Debug)]
struct WaitsFor {
    edges: SlotMap<TxnId>,
}

impl WaitsFor {
    fn reserve(&mut self, num_txns: usize) {
        self.edges.reserve_slots(num_txns);
    }

    /// `waiter` must wait on `holder` for the reason `why`. Answers
    /// [`Wait`](CcDecision::Wait) and records `why`, or, when the edge
    /// would close a cycle, drops the waiter's edge, records `why` as a
    /// [`Deadlock`](ConflictRule::Deadlock) and answers
    /// [`Abort`](CcDecision::Abort). An edge that already stands answers
    /// at once: the acyclic graph holds it, so the walk would find no
    /// cycle again.
    fn wait(
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

    /// `t` waits on nobody (it proceeded, or is finishing).
    fn unblock(&mut self, t: TxnId) {
        self.edges.remove(t.index());
    }

    /// `t` finished: it waits on nobody and nobody waits on it (its
    /// waiters retry and re-insert their edges). The second half is one
    /// branch-free pass over every slot: about two thirds of a hot
    /// workload's sessions wait on some holder, so a per-slot branch on
    /// "is it `t`?" would mispredict.
    fn finish(&mut self, t: TxnId) {
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

// --------------------------------------------------------------------------
// Serial: one global token.
// --------------------------------------------------------------------------

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
        if self.holder == Some(t) {
            self.holder = None;
        }
    }

    fn name(&self) -> &str {
        "serial"
    }

    fn last_conflict(&self) -> Option<CcConflict> {
        self.conflict
    }
}

// --------------------------------------------------------------------------
// Strict two-phase locking with deadlock-victim abort.
// --------------------------------------------------------------------------

/// Strict 2PL: exclusive lock per variable acquired at first access, all
/// locks held to commit; a lock request that would close a waits-for cycle
/// aborts the requester.
#[derive(Default, Debug)]
pub struct Strict2plCc {
    /// Lock table: variable slot -> holder.
    locks: SlotMap<TxnId>,
    /// Current waits: waiter -> holder.
    waits: WaitsFor,
    /// Locks held per transaction (insertion order; no duplicates, because
    /// a lock is appended only on first acquisition).
    held: Vec<Vec<VarId>>,
    /// Attribution of the last Wait/Abort.
    conflict: Option<CcConflict>,
}

impl ConcurrencyControl for Strict2plCc {
    fn prepare(&mut self, num_txns: usize, num_vars: usize) {
        self.locks.reserve_slots(num_vars);
        self.waits.reserve(num_txns);
        ensure_index(&mut self.held, num_txns.saturating_sub(1));
    }

    fn begin(&mut self, t: TxnId, _tick: u64) {
        self.waits.unblock(t);
    }

    fn on_step(&mut self, t: TxnId, var: VarId, _kind: StepKind) -> CcDecision {
        match self.locks.get_copied(var.index()) {
            None => {
                self.locks.insert(var.index(), t);
                ensure_index(&mut self.held, t.index());
                self.held[t.index()].push(var);
                self.waits.unblock(t);
                CcDecision::Proceed
            }
            Some(h) if h == t => {
                self.waits.unblock(t);
                CcDecision::Proceed
            }
            Some(h) => self.waits.wait(
                t,
                h,
                CcConflict::new(ConflictRule::LockWait, var, h),
                &mut self.conflict,
            ),
        }
    }

    fn on_commit(&mut self, _t: TxnId, _tick: u64) -> CcDecision {
        CcDecision::Proceed
    }

    fn after_commit(&mut self, t: TxnId) {
        self.release_all(t);
    }

    fn on_abort(&mut self, t: TxnId) {
        self.release_all(t);
    }

    fn name(&self) -> &str {
        "strict-2PL"
    }

    fn last_conflict(&self) -> Option<CcConflict> {
        self.conflict
    }
}

impl Strict2plCc {
    fn release_all(&mut self, t: TxnId) {
        if let Some(vars) = self.held.get_mut(t.index()) {
            for v in vars.drain(..) {
                self.locks.remove(v.index());
            }
        }
        self.waits.finish(t);
    }
}

// --------------------------------------------------------------------------
// Serialization-graph testing.
// --------------------------------------------------------------------------

/// SGT: maintain the conflict graph over live and committed transactions;
/// an access that would close a cycle aborts the requester. For
/// recoverability the engine-level SGT is *strict*: accessing a variable
/// whose last writer is still live makes the requester wait for the commit
/// (a wait cycle aborts the requester).
///
/// The conflict graph is an adjacency matrix of dense bitset rows. The
/// graph is acyclic by construction (cycle-closing accesses abort before
/// their edges are inserted), so the cycle test for a batch of new edges
/// `u -> t` reduces to one DFS: does `t` reach any such `u`?
#[derive(Default, Debug)]
pub struct SgtCc {
    /// Per variable: access log of (txn, kind), non-aborted entries only.
    log: Vec<Vec<(TxnId, StepKind)>>,
    /// Per transaction: variables whose log may mention it (for O(footprint)
    /// abort cleanup; may contain duplicates).
    touched: Vec<Vec<VarId>>,
    /// Adjacency rows: `out[u]` holds the successors of `u`.
    out: Vec<DenseBitSet>,
    /// In-degree per transaction, kept in lockstep with the `out` rows.
    /// Retirement reads it: a committed transaction acquires no new
    /// in-edges, so in-degree 0 means no future cycle can pass through it.
    in_deg: Vec<u32>,
    /// Live (uncommitted) transactions; cleared on both commit and abort.
    /// Retirement relies on finished transactions being absent here.
    live: DenseBitSet,
    /// Last uncommitted writer per variable.
    dirty: SlotMap<TxnId>,
    /// Step and commit waits: waiter -> live writer or predecessor.
    waits: WaitsFor,
    /// Scratch: sources of the edges a step would add (O(1) clear).
    sources: EpochBitSet,
    /// Scratch: the same sources as a dedup'd list, so the edge-insertion
    /// pass does not re-scan the access log.
    src_list: Vec<u32>,
    /// Scratch: DFS visited marks (O(1) clear).
    visited: EpochBitSet,
    /// Scratch: DFS stack.
    stack: Vec<u32>,
    /// Commit-order mode ([`ConcurrencyControl::enable_commit_order`]):
    /// commits wait for live direct predecessors, making the commit order
    /// a topological order of the conflict graph — what the sharded
    /// engine composes across shards.
    commit_ordered: bool,
    /// Attribution of the last Wait/Abort.
    conflict: Option<CcConflict>,
}

impl SgtCc {
    /// Does `start` reach any member of `self.sources` in the conflict
    /// graph? One DFS over the bitset adjacency rows, no allocation beyond
    /// the reusable stack.
    fn reaches_any_source(&mut self, start: usize) -> bool {
        let out = &self.out;
        let sources = &self.sources;
        let visited = &mut self.visited;
        let stack = &mut self.stack;
        visited.clear();
        stack.clear();
        stack.push(start as u32);
        visited.insert(start);
        while let Some(u) = stack.pop() {
            if sources.contains(u as usize) {
                return true;
            }
            if let Some(row) = out.get(u as usize) {
                for v in row.ones() {
                    if visited.insert(v) {
                        stack.push(v as u32);
                    }
                }
            }
        }
        false
    }
}

impl ConcurrencyControl for SgtCc {
    fn prepare(&mut self, num_txns: usize, num_vars: usize) {
        ensure_index(&mut self.log, num_vars.saturating_sub(1));
        ensure_index(&mut self.touched, num_txns.saturating_sub(1));
        if self.out.len() < num_txns {
            self.out
                .resize_with(num_txns, || DenseBitSet::with_capacity(num_txns));
        }
        ensure_index(&mut self.in_deg, num_txns.saturating_sub(1));
        self.dirty.reserve_slots(num_vars);
        self.waits.reserve(num_txns);
    }

    fn begin(&mut self, t: TxnId, _tick: u64) {
        self.live.insert(t.index());
    }

    fn on_step(&mut self, t: TxnId, var: VarId, kind: StepKind) -> CcDecision {
        // Strictness: the last writer must have committed before anyone
        // else touches the variable.
        if let Some(w) = self.dirty.get_copied(var.index()) {
            if w != t && self.live.contains(w.index()) {
                return self.waits.wait(
                    t,
                    w,
                    CcConflict::new(ConflictRule::DirtyWait, var, w),
                    &mut self.conflict,
                );
            }
        }
        // Edges this access would add: u -> t for every logged conflicting
        // access by u != t. The graph is acyclic, so the batch closes a
        // cycle iff t already reaches one of the sources u.
        ensure_index(&mut self.log, var.index());
        self.sources.clear();
        self.src_list.clear();
        for &(u, k) in &self.log[var.index()] {
            if u != t && k.conflicts_with(kind) && self.sources.insert(u.index()) {
                self.src_list.push(u.0);
            }
        }
        if !self.src_list.is_empty() {
            if self.reaches_any_source(t.index()) {
                self.conflict = Some(CcConflict::new(
                    ConflictRule::SgtCycle,
                    var,
                    TxnId(self.src_list[0]),
                ));
                return CcDecision::Abort;
            }
            ensure_index(&mut self.out, t.index());
            ensure_index(&mut self.in_deg, t.index());
            for i in 0..self.src_list.len() {
                let u = self.src_list[i] as usize;
                ensure_index(&mut self.out, u);
                if self.out[u].insert(t.index()) {
                    self.in_deg[t.index()] += 1;
                }
            }
        }
        self.log[var.index()].push((t, kind));
        ensure_index(&mut self.touched, t.index());
        self.touched[t.index()].push(var);
        if kind.writes() {
            self.dirty.insert(var.index(), t);
        }
        self.waits.unblock(t);
        CcDecision::Proceed
    }

    fn on_commit(&mut self, t: TxnId, _tick: u64) -> CcDecision {
        if self.commit_ordered {
            // A live direct predecessor would be serialized before t but
            // commit after it, so t's commit must wait for it. Committed
            // (unretired) predecessors already satisfy the order. The
            // wait joins the shared waits-for graph so a commit-wait
            // closing a cycle with strictness step-waits aborts instead
            // of hanging (cross-shard wait cycles are invisible here; the
            // sharded driver's restart valve breaks those).
            let pred = self.live.ones().find(|&u| {
                u != t.index() && self.out.get(u).is_some_and(|row| row.contains(t.index()))
            });
            if let Some(u) = pred {
                let holder = TxnId(u as u32);
                let why = CcConflict {
                    rule: ConflictRule::CommitOrderWait,
                    var: None,
                    opponent: Some(holder),
                };
                return self.waits.wait(t, holder, why, &mut self.conflict);
            }
            self.waits.unblock(t);
        }
        CcDecision::Proceed
    }

    fn enable_commit_order(&mut self) {
        self.commit_ordered = true;
    }

    fn after_commit(&mut self, t: TxnId) {
        self.live.remove(t.index());
        if let Some(vars) = self.touched.get(t.index()) {
            for &v in vars {
                if self.dirty.get_copied(v.index()) == Some(t) {
                    self.dirty.remove(v.index());
                }
            }
        }
        self.waits.finish(t);
    }

    fn on_abort(&mut self, t: TxnId) {
        self.live.remove(t.index());
        if let Some(vars) = self.touched.get_mut(t.index()) {
            let vars = std::mem::take(vars);
            for &v in &vars {
                if self.dirty.get_copied(v.index()) == Some(t) {
                    self.dirty.remove(v.index());
                }
                if let Some(log) = self.log.get_mut(v.index()) {
                    log.retain(|&(u, _)| u != t);
                }
            }
        }
        if let Some(row) = self.out.get_mut(t.index()) {
            for v in row.ones() {
                self.in_deg[v] -= 1;
            }
            row.clear();
        }
        for row in &mut self.out {
            row.remove(t.index());
        }
        if let Some(d) = self.in_deg.get_mut(t.index()) {
            *d = 0;
        }
        self.waits.finish(t);
    }

    fn name(&self) -> &str {
        "SGT"
    }

    fn last_conflict(&self) -> Option<CcConflict> {
        self.conflict
    }

    fn retire(&mut self, t: TxnId) -> bool {
        debug_assert!(!self.live.contains(t.index()), "retiring a live txn");
        // In-edges of a finished transaction are frozen (it makes no more
        // accesses), so in-degree 0 means no future cycle can pass through
        // it — only then is dropping it from the graph and the access logs
        // sound. Its remaining out-edges could only sit on a cycle through
        // itself, so they go too, possibly unblocking deferred retirements
        // downstream (the caller retries those).
        if self.in_deg.get(t.index()).copied().unwrap_or(0) != 0 {
            return false;
        }
        if let Some(vars) = self.touched.get_mut(t.index()) {
            let vars = std::mem::take(vars);
            for &v in &vars {
                if let Some(log) = self.log.get_mut(v.index()) {
                    log.retain(|&(u, _)| u != t);
                }
            }
        }
        if let Some(row) = self.out.get_mut(t.index()) {
            for v in row.ones() {
                self.in_deg[v] -= 1;
            }
            row.clear();
        }
        true
    }
}

// --------------------------------------------------------------------------
// Timestamp ordering.
// --------------------------------------------------------------------------

/// Basic T/O: late conflicting accesses abort; restarts get fresh stamps.
/// Strict for recoverability: touching a variable whose last writer is
/// still live waits for that commit (wait cycles abort the requester).
#[derive(Default, Debug)]
pub struct TimestampCc {
    next: u64,
    /// Per-transaction stamp (live transactions only).
    stamp: SlotMap<u64>,
    /// Per-variable read/write stamps; 0 means "never accessed".
    read_stamp: Vec<u64>,
    write_stamp: Vec<u64>,
    live: DenseBitSet,
    /// Last uncommitted writer per variable.
    dirty: SlotMap<TxnId>,
    /// Per transaction: variables it wrote (for O(footprint) dirty cleanup;
    /// may contain duplicates).
    wrote: Vec<Vec<VarId>>,
    /// Step waits: waiter -> live writer.
    waits: WaitsFor,
    /// Attribution of the last Wait/Abort.
    conflict: Option<CcConflict>,
}

impl TimestampCc {
    fn clear_txn(&mut self, t: TxnId) {
        self.stamp.remove(t.index());
        self.live.remove(t.index());
        if let Some(vars) = self.wrote.get_mut(t.index()) {
            let vars = std::mem::take(vars);
            for &v in &vars {
                if self.dirty.get_copied(v.index()) == Some(t) {
                    self.dirty.remove(v.index());
                }
            }
        }
        self.waits.finish(t);
    }
}

impl ConcurrencyControl for TimestampCc {
    fn prepare(&mut self, num_txns: usize, num_vars: usize) {
        self.stamp.reserve_slots(num_txns);
        ensure_index(&mut self.read_stamp, num_vars.saturating_sub(1));
        ensure_index(&mut self.write_stamp, num_vars.saturating_sub(1));
        self.dirty.reserve_slots(num_vars);
        ensure_index(&mut self.wrote, num_txns.saturating_sub(1));
        self.waits.reserve(num_txns);
    }

    fn begin(&mut self, t: TxnId, _tick: u64) {
        self.next += 1;
        self.stamp.insert(t.index(), self.next);
        self.live.insert(t.index());
    }

    fn begin_at(&mut self, t: TxnId, _tick: u64, ts: u64) {
        // Externally assigned stamp (globally unique and monotone by the
        // caller's contract); keep the internal clock at or above it so a
        // later plain `begin` cannot hand out a duplicate.
        self.next = self.next.max(ts);
        self.stamp.insert(t.index(), ts);
        self.live.insert(t.index());
    }

    fn on_step(&mut self, t: TxnId, var: VarId, kind: StepKind) -> CcDecision {
        let ts = self
            .stamp
            .get_copied(t.index())
            .expect("on_step before begin");
        let rts = self.read_stamp.get(var.index()).copied().unwrap_or(0);
        let wts = self.write_stamp.get(var.index()).copied().unwrap_or(0);
        // The stamping opponent is the live dirty writer when there is
        // one; a committed stamper has left no identity behind.
        let stamper = self
            .dirty
            .get_copied(var.index())
            .filter(|w| *w != t && self.live.contains(w.index()));
        if kind.reads() && ts < wts {
            self.conflict = Some(CcConflict {
                rule: ConflictRule::ReadTooLate,
                var: Some(var),
                opponent: stamper,
            });
            return CcDecision::Abort;
        }
        if kind.writes() && (ts < rts || ts < wts) {
            self.conflict = Some(CcConflict {
                rule: ConflictRule::WriteTooLate,
                var: Some(var),
                opponent: stamper,
            });
            return CcDecision::Abort;
        }
        // Strictness: wait for a live writer's commit before touching the
        // value it produced.
        if let Some(w) = self.dirty.get_copied(var.index()) {
            if w != t && self.live.contains(w.index()) {
                return self.waits.wait(
                    t,
                    w,
                    CcConflict::new(ConflictRule::DirtyWait, var, w),
                    &mut self.conflict,
                );
            }
        }
        if kind.reads() {
            ensure_index(&mut self.read_stamp, var.index());
            self.read_stamp[var.index()] = rts.max(ts);
        }
        if kind.writes() {
            ensure_index(&mut self.write_stamp, var.index());
            self.write_stamp[var.index()] = wts.max(ts);
            self.dirty.insert(var.index(), t);
            ensure_index(&mut self.wrote, t.index());
            self.wrote[t.index()].push(var);
        }
        self.waits.unblock(t);
        CcDecision::Proceed
    }

    fn on_commit(&mut self, _t: TxnId, _tick: u64) -> CcDecision {
        CcDecision::Proceed
    }

    fn after_commit(&mut self, t: TxnId) {
        self.clear_txn(t);
    }

    fn on_abort(&mut self, t: TxnId) {
        // The variable stamps stay — standard T/O conservatism.
        self.clear_txn(t);
    }

    fn name(&self) -> &str {
        "T/O"
    }

    fn last_conflict(&self) -> Option<CcConflict> {
        self.conflict
    }

    fn resume(&mut self, ts_floor: u64) {
        // Not required for correctness (variable stamps do not survive a
        // crash), but keeps the transaction clock monotone across the
        // database's whole lifetime.
        self.next = self.next.max(ts_floor);
    }
}

// --------------------------------------------------------------------------
// Optimistic concurrency control.
// --------------------------------------------------------------------------

/// OCC with backward validation: reads and writes always proceed (writes go
/// to a local buffer and reach the store in the commit-time write phase); at
/// commit the transaction validates against the write sets of transactions
/// that committed after it began.
///
/// Footprints are dense bitsets, so validation is a word-wise
/// intersection per committed writer instead of a set walk; the committed
/// list is pruned to entries some live transaction could still conflict
/// with, keeping long runs with many restarts bounded.
#[derive(Default, Debug)]
pub struct OccCc {
    /// Per-transaction start tick (live transactions only).
    start: SlotMap<u64>,
    /// Per-transaction read+write footprint.
    access: Vec<DenseBitSet>,
    /// Per-transaction write footprint.
    writes: Vec<DenseBitSet>,
    /// Commit log: (commit tick, committer slot, write footprint),
    /// oldest first. The slot attributes validation failures to their
    /// opponent (exact until the committer's slot recycles).
    committed: VecDeque<(u64, TxnId, DenseBitSet)>,
    /// Attribution of the last Abort.
    conflict: Option<CcConflict>,
}

impl OccCc {
    /// Drop committed entries no live transaction can conflict with: a
    /// validation only consults entries with `commit_tick > start`, starts
    /// are handed out monotonically, so everything at or before the oldest
    /// live start is dead weight.
    fn prune_committed(&mut self) {
        let oldest_live = self.start.iter().map(|(_, &s)| s).min();
        while let Some(&(tick, _, _)) = self.committed.front() {
            match oldest_live {
                Some(min) if tick > min => break,
                _ => {
                    self.committed.pop_front();
                }
            }
        }
    }
}

impl ConcurrencyControl for OccCc {
    fn prepare(&mut self, num_txns: usize, num_vars: usize) {
        self.start.reserve_slots(num_txns);
        if self.access.len() < num_txns {
            self.access
                .resize_with(num_txns, || DenseBitSet::with_capacity(num_vars));
        }
        if self.writes.len() < num_txns {
            self.writes
                .resize_with(num_txns, || DenseBitSet::with_capacity(num_vars));
        }
    }

    fn begin(&mut self, t: TxnId, tick: u64) {
        self.start.insert(t.index(), tick);
        ensure_index(&mut self.access, t.index());
        ensure_index(&mut self.writes, t.index());
        self.access[t.index()].clear();
        self.writes[t.index()].clear();
    }

    fn on_step(&mut self, t: TxnId, var: VarId, kind: StepKind) -> CcDecision {
        ensure_index(&mut self.access, t.index());
        self.access[t.index()].insert(var.index());
        if kind.writes() {
            ensure_index(&mut self.writes, t.index());
            self.writes[t.index()].insert(var.index());
        }
        CcDecision::Proceed
    }

    fn on_commit(&mut self, t: TxnId, tick: u64) -> CcDecision {
        let start = self.start.get_copied(t.index()).unwrap_or(0);
        ensure_index(&mut self.access, t.index());
        let accessed = &self.access[t.index()];
        for (commit_tick, committer, writes) in &self.committed {
            if *commit_tick > start && writes.intersects(accessed) {
                // Attribution (off the success path): the first variable
                // of the intersection and the committer that wrote it.
                let var = accessed
                    .ones()
                    .find(|&v| writes.contains(v))
                    .map(|v| VarId(v as u32));
                self.conflict = Some(CcConflict {
                    rule: ConflictRule::OccValidation,
                    var,
                    opponent: Some(*committer),
                });
                return CcDecision::Abort;
            }
        }
        ensure_index(&mut self.writes, t.index());
        self.committed
            .push_back((tick, t, self.writes[t.index()].clone()));
        CcDecision::Proceed
    }

    fn after_commit(&mut self, t: TxnId) {
        self.start.remove(t.index());
        if let Some(b) = self.access.get_mut(t.index()) {
            b.clear();
        }
        if let Some(b) = self.writes.get_mut(t.index()) {
            b.clear();
        }
        self.prune_committed();
    }

    fn on_abort(&mut self, t: TxnId) {
        self.start.remove(t.index());
        if let Some(b) = self.access.get_mut(t.index()) {
            b.clear();
        }
        if let Some(b) = self.writes.get_mut(t.index()) {
            b.clear();
        }
        self.prune_committed();
    }

    fn name(&self) -> &str {
        "OCC"
    }

    fn last_conflict(&self) -> Option<CcConflict> {
        self.conflict
    }

    fn defers_writes(&self) -> bool {
        true // the Kung-Robinson write phase happens at commit
    }
}

// --------------------------------------------------------------------------
// Multi-version timestamp ordering.
// --------------------------------------------------------------------------

/// MVTO: every transaction reads the snapshot at its begin timestamp; a
/// write is admitted only while it can still be appended at the writer's
/// timestamp — if a newer committed version exists, or a younger
/// transaction already read the version the write would supersede, the
/// *writer* aborts (late writes abort).
///
/// Versions are installed at commit (deferred writes), so the chains hold
/// committed data only and the mechanism is cascade-free. The classical
/// commit dependency survives as a wait: an access of a variable some
/// *older* live transaction has a buffered (pending) write on waits for
/// that writer to resolve, instead of reading past it and dooming it. Wait
/// edges therefore always point from larger to smaller timestamps, so they
/// can never form a cycle — and a transaction that began before the
/// writers (every read-only transaction in a reader-then-writer workload)
/// never waits at all.
///
/// Bookkeeping is dense per-variable tables: the newest committed version
/// timestamp, the largest snapshot that read the variable, and the pending
/// writers. With appends validated against the committed timestamp, the
/// per-variable read stamp is exactly the classical per-version `rts` of
/// the version a late write would supersede.
#[derive(Default, Debug)]
pub struct MvtoCc {
    next: u64,
    /// Begin timestamp per live transaction.
    stamp: SlotMap<u64>,
    /// Per variable: largest snapshot timestamp that read it.
    max_rts: Vec<u64>,
    /// Per variable: timestamp of the newest committed version.
    latest_wts: Vec<u64>,
    /// Per variable: the slot that committed the newest version (opponent
    /// attribution for late writes; exact until the slot recycles).
    latest_writer: Vec<Option<TxnId>>,
    /// Per variable: live transactions with a buffered write on it (tiny:
    /// older pending writers make younger accessors wait).
    pending: Vec<Vec<(TxnId, u64)>>,
    /// Per transaction: variables it wrote (may contain duplicates).
    wrote: Vec<Vec<VarId>>,
    /// Attribution of the last Wait/Abort.
    conflict: Option<CcConflict>,
}

impl MvtoCc {
    /// Why a write on `var` can no longer be installed at timestamp `ts`
    /// (`None` = admissible): a newer committed version exists, or a
    /// younger reader already observed the version the write would
    /// supersede — the write arrives too late.
    fn write_conflict(&self, var: VarId, ts: u64) -> Option<CcConflict> {
        let lw = self.latest_wts.get(var.index()).copied().unwrap_or(0);
        let mr = self.max_rts.get(var.index()).copied().unwrap_or(0);
        if lw > ts {
            Some(CcConflict {
                rule: ConflictRule::MvWriteTooLate,
                var: Some(var),
                opponent: self.latest_writer.get(var.index()).copied().flatten(),
            })
        } else if mr > ts {
            // The younger reader's identity is not kept (only the max
            // snapshot stamp is).
            Some(CcConflict::var_only(ConflictRule::MvWriteTooLate, var))
        } else {
            None
        }
    }

    /// The pending (buffered, uncommitted) write on `var` by a live
    /// transaction older than `ts`, if any. Accessing past it would doom
    /// that writer, so the accessor waits for it to commit or abort.
    fn older_pending_writer(&self, var: VarId, t: TxnId, ts: u64) -> Option<TxnId> {
        self.pending
            .get(var.index())
            .and_then(|p| p.iter().find(|&&(u, uts)| u != t && uts < ts))
            .map(|&(u, _)| u)
    }

    fn drop_pending(&mut self, t: TxnId) {
        if let Some(vars) = self.wrote.get(t.index()) {
            for &v in vars {
                if let Some(p) = self.pending.get_mut(v.index()) {
                    p.retain(|&(u, _)| u != t);
                }
            }
        }
    }
}

impl ConcurrencyControl for MvtoCc {
    fn prepare(&mut self, num_txns: usize, num_vars: usize) {
        self.stamp.reserve_slots(num_txns);
        ensure_index(&mut self.max_rts, num_vars.saturating_sub(1));
        ensure_index(&mut self.latest_wts, num_vars.saturating_sub(1));
        ensure_index(&mut self.pending, num_vars.saturating_sub(1));
        ensure_index(&mut self.wrote, num_txns.saturating_sub(1));
    }

    fn begin(&mut self, t: TxnId, _tick: u64) {
        self.next += 1;
        self.stamp.insert(t.index(), self.next);
    }

    fn begin_at(&mut self, t: TxnId, _tick: u64, ts: u64) {
        // Snapshot *and* version timestamp come from the caller's global
        // clock: per-shard MVTO orders then all equal the global order.
        self.next = self.next.max(ts);
        self.stamp.insert(t.index(), ts);
    }

    fn on_step(&mut self, t: TxnId, var: VarId, kind: StepKind) -> CcDecision {
        let ts = self
            .stamp
            .get_copied(t.index())
            .expect("on_step before begin");
        if kind.writes() {
            if let Some(c) = self.write_conflict(var, ts) {
                self.conflict = Some(c);
                return CcDecision::Abort;
            }
        }
        if let Some(w) = self.older_pending_writer(var, t, ts) {
            self.conflict = Some(CcConflict::new(ConflictRule::MvPendingWait, var, w));
            return CcDecision::Wait;
        }
        // Every step observes its variable through the local `t_ij` the
        // engine fills — even a blind Write's local may be consumed by the
        // transaction's later steps — so every access registers as a read
        // at `ts`. (Skipping this for blind writes let an older writer
        // install a version behind an observation that was never recorded:
        // a non-serializable history.)
        ensure_index(&mut self.max_rts, var.index());
        self.max_rts[var.index()] = self.max_rts[var.index()].max(ts);
        if kind.writes() {
            ensure_index(&mut self.wrote, t.index());
            self.wrote[t.index()].push(var);
            ensure_index(&mut self.pending, var.index());
            let p = &mut self.pending[var.index()];
            if !p.iter().any(|&(u, _)| u == t) {
                p.push((t, ts));
            }
        }
        CcDecision::Proceed
    }

    fn on_commit(&mut self, t: TxnId, _tick: u64) -> CcDecision {
        // Revalidate the write set (defense in depth: with every access
        // registered as a read and younger accessors waiting on pending
        // writers, admissibility should not degrade between the write step
        // and commit). Read-only transactions have nothing to check and
        // always commit.
        let ts = self
            .stamp
            .get_copied(t.index())
            .expect("on_commit before begin");
        if let Some(vars) = self.wrote.get(t.index()) {
            if let Some(c) = vars.iter().find_map(|&v| self.write_conflict(v, ts)) {
                self.conflict = Some(c);
                return CcDecision::Abort;
            }
        }
        CcDecision::Proceed
    }

    fn after_commit(&mut self, t: TxnId) {
        self.drop_pending(t);
        let ts = self.stamp.remove(t.index()).expect("commit before begin");
        if let Some(vars) = self.wrote.get_mut(t.index()) {
            for v in vars.drain(..) {
                ensure_index(&mut self.latest_wts, v.index());
                self.latest_wts[v.index()] = ts;
                ensure_index(&mut self.latest_writer, v.index());
                self.latest_writer[v.index()] = Some(t);
            }
        }
    }

    fn on_abort(&mut self, t: TxnId) {
        self.drop_pending(t);
        self.stamp.remove(t.index());
        if let Some(vars) = self.wrote.get_mut(t.index()) {
            vars.clear();
        }
    }

    fn name(&self) -> &str {
        "MVTO"
    }

    fn last_conflict(&self) -> Option<CcConflict> {
        self.conflict
    }

    fn resume(&mut self, ts_floor: u64) {
        // Recovered chains hold versions up to `ts_floor`: stamps resume
        // above it so new snapshots see the whole recovered history and
        // new installs stay append-only.
        self.next = self.next.max(ts_floor);
    }

    fn defers_writes(&self) -> bool {
        true
    }

    fn multiversion(&self) -> bool {
        true
    }

    fn read_view(&self, t: TxnId) -> u64 {
        self.stamp.get_copied(t.index()).unwrap_or(0)
    }

    fn commit_view(&self, t: TxnId) -> u64 {
        self.stamp.get_copied(t.index()).unwrap_or(0)
    }

    fn gc_watermark(&self) -> u64 {
        // Oldest live snapshot; with no one live every chain may collapse
        // to its newest version — the next begin stamps at `next + 1`, so
        // that is the smallest snapshot any future reader can hold.
        self.stamp
            .iter()
            .map(|(_, &ts)| ts)
            .min()
            .unwrap_or(self.next + 1)
    }
}

// --------------------------------------------------------------------------
// Snapshot isolation.
// --------------------------------------------------------------------------

/// Snapshot isolation: reads observe the commit sequence number current at
/// begin, writes are buffered, and commit performs first-committer-wins
/// validation — if any written variable gained a committed version after
/// the snapshot, the transaction aborts. Reads are never validated, which
/// is exactly why SI admits write skew: it sits outside the serializable
/// family boundary that MVTO, 2PL and SGT stay inside.
///
/// A write step performs the same check against the snapshot early
/// (first-*updater*-wins), converting certain commit-time aborts into
/// cheaper step-time aborts without changing the admitted histories.
#[derive(Default, Debug)]
pub struct SiCc {
    /// Commit sequence number; also the newest readable snapshot.
    commit_seq: u64,
    /// Snapshot (begin) sequence number per live transaction.
    snap: SlotMap<u64>,
    /// Commit sequence number assigned by a successful validation.
    cts: SlotMap<u64>,
    /// Per variable: commit sequence of the newest committed version.
    latest_wts: Vec<u64>,
    /// Per variable: the slot that committed the newest version (opponent
    /// attribution for validation failures; exact until the slot
    /// recycles).
    latest_writer: Vec<Option<TxnId>>,
    /// Per transaction: variables it wrote (may contain duplicates).
    wrote: Vec<Vec<VarId>>,
    /// Attribution of the last Wait/Abort.
    conflict: Option<CcConflict>,
}

impl SiCc {
    fn overwritten_since(&self, var: VarId, snap: u64) -> bool {
        self.latest_wts.get(var.index()).copied().unwrap_or(0) > snap
    }

    fn loser_conflict(&self, rule: ConflictRule, var: VarId) -> CcConflict {
        CcConflict {
            rule,
            var: Some(var),
            opponent: self.latest_writer.get(var.index()).copied().flatten(),
        }
    }
}

impl ConcurrencyControl for SiCc {
    fn prepare(&mut self, num_txns: usize, num_vars: usize) {
        self.snap.reserve_slots(num_txns);
        self.cts.reserve_slots(num_txns);
        ensure_index(&mut self.latest_wts, num_vars.saturating_sub(1));
        ensure_index(&mut self.wrote, num_txns.saturating_sub(1));
    }

    fn begin(&mut self, t: TxnId, _tick: u64) {
        self.snap.insert(t.index(), self.commit_seq);
        self.cts.remove(t.index());
    }

    fn on_step(&mut self, t: TxnId, var: VarId, kind: StepKind) -> CcDecision {
        if kind.writes() {
            let snap = self
                .snap
                .get_copied(t.index())
                .expect("on_step before begin");
            if self.overwritten_since(var, snap) {
                self.conflict = Some(self.loser_conflict(ConflictRule::SiFirstUpdater, var));
                return CcDecision::Abort;
            }
            ensure_index(&mut self.wrote, t.index());
            self.wrote[t.index()].push(var);
        }
        CcDecision::Proceed
    }

    fn on_commit(&mut self, t: TxnId, _tick: u64) -> CcDecision {
        let snap = self
            .snap
            .get_copied(t.index())
            .expect("on_commit before begin");
        if let Some(vars) = self.wrote.get(t.index()) {
            if let Some(&v) = vars.iter().find(|&&v| self.overwritten_since(v, snap)) {
                // First committer already won.
                self.conflict = Some(self.loser_conflict(ConflictRule::SiFirstCommitter, v));
                return CcDecision::Abort;
            }
        }
        self.commit_seq += 1;
        self.cts.insert(t.index(), self.commit_seq);
        CcDecision::Proceed
    }

    fn after_commit(&mut self, t: TxnId) {
        let cts = self.cts.remove(t.index()).expect("commit before begin");
        self.snap.remove(t.index());
        if let Some(vars) = self.wrote.get_mut(t.index()) {
            for v in vars.drain(..) {
                ensure_index(&mut self.latest_wts, v.index());
                self.latest_wts[v.index()] = cts;
                ensure_index(&mut self.latest_writer, v.index());
                self.latest_writer[v.index()] = Some(t);
            }
        }
    }

    fn on_abort(&mut self, t: TxnId) {
        self.snap.remove(t.index());
        self.cts.remove(t.index());
        if let Some(vars) = self.wrote.get_mut(t.index()) {
            vars.clear();
        }
    }

    fn name(&self) -> &str {
        "SI"
    }

    fn last_conflict(&self) -> Option<CcConflict> {
        self.conflict
    }

    fn resume(&mut self, ts_floor: u64) {
        // The commit sequence resumes above every recovered version, so
        // fresh snapshots (taken at `commit_seq`) observe all of them and
        // fresh commits install strictly above the recovered chain heads.
        self.commit_seq = self.commit_seq.max(ts_floor);
    }

    fn defers_writes(&self) -> bool {
        true
    }

    fn multiversion(&self) -> bool {
        true
    }

    fn read_view(&self, t: TxnId) -> u64 {
        self.snap.get_copied(t.index()).unwrap_or(0)
    }

    fn commit_view(&self, t: TxnId) -> u64 {
        self.cts.get_copied(t.index()).unwrap_or(0)
    }

    fn gc_watermark(&self) -> u64 {
        self.snap
            .iter()
            .map(|(_, &s)| s)
            .min()
            .unwrap_or(self.commit_seq)
    }
}

/// The canonical mechanism names, in the order every bench and report
/// uses: the five single-version mechanisms plus the multi-version
/// family.
pub const MECHANISM_NAMES: [&str; 7] = ["serial", "strict-2PL", "T/O", "OCC", "SGT", "MVTO", "SI"];

/// One of the seven mechanisms, as a value: the single way code names
/// "which concurrency control" — copied into a
/// [`ShardedDb`](crate::ShardedDb), parsed from the server's `--cc`
/// flag, iterated by every grid. [`build`](Self::build) is the only
/// place the seven constructors are listed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CcKind {
    /// [`SerialCc`].
    Serial,
    /// [`Strict2plCc`].
    Strict2pl,
    /// [`TimestampCc`].
    Timestamp,
    /// [`OccCc`].
    Occ,
    /// [`SgtCc`].
    Sgt,
    /// [`MvtoCc`].
    Mvto,
    /// [`SiCc`].
    Si,
}

impl CcKind {
    /// Every mechanism, in [`MECHANISM_NAMES`] order.
    pub const ALL: [CcKind; 7] = [
        CcKind::Serial,
        CcKind::Strict2pl,
        CcKind::Timestamp,
        CcKind::Occ,
        CcKind::Sgt,
        CcKind::Mvto,
        CcKind::Si,
    ];

    /// The canonical name: what the built instance's
    /// [`name`](ConcurrencyControl::name) returns.
    pub const fn name(self) -> &'static str {
        MECHANISM_NAMES[self as usize]
    }

    /// The mechanism with canonical name `name`; `None` for unknown names.
    pub fn from_name(name: &str) -> Option<CcKind> {
        CcKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// A fresh default-configured instance.
    pub fn build(self) -> Box<dyn ConcurrencyControl> {
        match self {
            CcKind::Serial => Box::new(SerialCc::default()),
            CcKind::Strict2pl => Box::new(Strict2plCc::default()),
            CcKind::Timestamp => Box::new(TimestampCc::default()),
            CcKind::Occ => Box::new(OccCc::default()),
            CcKind::Sgt => Box::new(SgtCc::default()),
            CcKind::Mvto => Box::new(MvtoCc::default()),
            CcKind::Si => Box::new(SiCc::default()),
        }
    }
}

/// Compatibility conversion for the one caller that still hands
/// [`ShardedDb`](crate::ShardedDb) a reference to a factory closure
/// (`benchmark/src/ladder.rs`, which a non-benchmark PR may not edit): the
/// closure is called once and the instance's name resolved to its kind.
/// Nothing inside the workspace uses it; the next benchmark PR deletes
/// that call and this impl with it.
///
/// # Panics
/// When the closure builds something whose name is not one of
/// [`MECHANISM_NAMES`].
impl<F: Fn() -> Box<dyn ConcurrencyControl> + ?Sized> From<&F> for CcKind {
    fn from(factory: &F) -> CcKind {
        let cc = factory();
        CcKind::from_name(cc.name())
            .unwrap_or_else(|| panic!("{:?} is not one of the seven mechanisms", cc.name()))
    }
}

/// Construct a fresh default-configured mechanism by its canonical name
/// (one of [`MECHANISM_NAMES`]). `None` for unknown names. This is the
/// lookup the served system's `--cc` flag resolves through, so a server
/// and an in-process run of the same name get identical mechanisms.
pub fn cc_by_name(name: &str) -> Option<Box<dyn ConcurrencyControl>> {
    CcKind::from_name(name).map(CcKind::build)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxnId {
        TxnId(i)
    }

    fn v(i: u32) -> VarId {
        VarId(i)
    }

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

    #[test]
    fn strict_2pl_detects_two_cycle() {
        let mut cc = Strict2plCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(
            cc.on_step(t(1), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_step(t(0), v(1), StepKind::Update), CcDecision::Wait);
        // T1 -> waits for T0's v0 while T0 waits for T1's v1: deadlock.
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Update), CcDecision::Abort);
        cc.on_abort(t(1));
        // After the victim aborts, T0 can take v1.
        assert_eq!(
            cc.on_step(t(0), v(1), StepKind::Update),
            CcDecision::Proceed
        );
    }

    #[test]
    fn strict_2pl_detects_long_wait_chains() {
        // A waits-for chain far past any small hop bound: t_i holds v_i and
        // waits for v_{i+1}; the last transaction closing the loop back to
        // v_0 must be picked as the deadlock victim.
        const N: u32 = 100;
        let mut cc = Strict2plCc::default();
        cc.prepare(N as usize + 1, N as usize + 1);
        for i in 0..=N {
            cc.begin(t(i), 0);
            assert_eq!(
                cc.on_step(t(i), v(i), StepKind::Update),
                CcDecision::Proceed
            );
        }
        for i in 0..N {
            assert_eq!(
                cc.on_step(t(i), v(i + 1), StepKind::Update),
                CcDecision::Wait,
                "txn {i} should block on txn {}",
                i + 1
            );
        }
        // t_N -> v_0 closes a 101-transaction cycle.
        assert_eq!(cc.on_step(t(N), v(0), StepKind::Update), CcDecision::Abort);
        cc.on_abort(t(N));
        // With the victim gone, t_{N-1} can take v_N.
        assert_eq!(
            cc.on_step(t(N - 1), v(N), StepKind::Update),
            CcDecision::Proceed
        );
    }

    #[test]
    fn strict_2pl_walk_survives_unrelated_wait_cycle() {
        // An existing wait chain among other transactions must neither hang
        // the walk nor produce a spurious deadlock verdict for a requester
        // outside it.
        let mut cc = Strict2plCc::default();
        for i in 0..4 {
            cc.begin(t(i), 0);
        }
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(
            cc.on_step(t(1), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_step(t(0), v(1), StepKind::Update), CcDecision::Wait);
        // t2 joins the queue on v0; the chain t2 -> t0 -> t1 has no cycle.
        assert_eq!(cc.on_step(t(2), v(0), StepKind::Update), CcDecision::Wait);
        // t3 on v1: chain t3 -> t1 is cycle-free too.
        assert_eq!(cc.on_step(t(3), v(1), StepKind::Update), CcDecision::Wait);
    }

    #[test]
    fn sgt_cc_strictness_waits_and_deadlock_aborts() {
        let mut cc = SgtCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(
            cc.on_step(t(1), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        // T0 touches v1 whose live writer is T1: strictness -> wait.
        assert_eq!(cc.on_step(t(0), v(1), StepKind::Update), CcDecision::Wait);
        // T1 touches v0 whose live writer is T0: wait cycle -> abort.
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Update), CcDecision::Abort);
        cc.on_abort(t(1));
        // With T1 gone, T0's retry proceeds (v1 is clean now).
        assert_eq!(
            cc.on_step(t(0), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(0), 1), CcDecision::Proceed);
        cc.after_commit(t(0));
        // A fresh T1 then runs serially after T0.
        cc.begin(t(1), 1);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
    }

    #[test]
    fn sgt_cc_aborts_on_conflict_cycle_with_committed_txn() {
        // Cycles through *committed* transactions cannot wait their way
        // out: they abort. T0 reads v0; T1 overwrites v0 (edge T0 -> T1)
        // and commits; T0's own later write of v0 would add T1 -> T0,
        // closing the cycle.
        let mut cc = SgtCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Proceed);
        cc.after_commit(t(1));
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Update), CcDecision::Abort);
    }

    #[test]
    fn timestamp_cc_aborts_latecomers() {
        let mut cc = TimestampCc::default();
        cc.begin(t(0), 0); // stamp 1
        cc.begin(t(1), 0); // stamp 2
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        // Older T0 now conflicts with younger T1's write: abort.
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Update), CcDecision::Abort);
        cc.on_abort(t(0));
        // Restart gets a fresh, younger stamp — but waits for the live
        // writer T1 (strictness), proceeding once T1 commits.
        cc.begin(t(0), 1); // stamp 3
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Update), CcDecision::Wait);
        assert_eq!(cc.on_commit(t(1), 2), CcDecision::Proceed);
        cc.after_commit(t(1));
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
    }

    #[test]
    fn timestamp_cc_allows_read_read() {
        let mut cc = TimestampCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
    }

    #[test]
    fn occ_validates_against_concurrent_writers() {
        let mut cc = OccCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Proceed);
        cc.after_commit(t(1));
        // T0 read v0 before T1's commit: backward validation fails.
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Abort);
        cc.on_abort(t(0));
        cc.begin(t(0), 2);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(0), 3), CcDecision::Proceed);
    }

    #[test]
    fn occ_disjoint_txns_commit() {
        let mut cc = OccCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(
            cc.on_step(t(1), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Proceed);
        cc.after_commit(t(1));
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Proceed);
    }

    #[test]
    fn occ_prunes_dead_commit_entries() {
        let mut cc = OccCc::default();
        // A sequence of disjoint committed transactions with no one live in
        // between leaves nothing to validate against.
        for round in 0..100u64 {
            cc.begin(t(0), round * 2);
            assert_eq!(
                cc.on_step(t(0), v(0), StepKind::Update),
                CcDecision::Proceed
            );
            assert_eq!(cc.on_commit(t(0), round * 2 + 1), CcDecision::Proceed);
            cc.after_commit(t(0));
        }
        assert!(
            cc.committed.is_empty(),
            "commit log should be pruned once no live txn can conflict"
        );
        // A long-lived reader keeps exactly the entries after its start.
        cc.begin(t(1), 200);
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Read), CcDecision::Proceed);
        for round in 0..10u64 {
            cc.begin(t(0), 201 + round * 2);
            assert_eq!(
                cc.on_step(t(0), v(1), StepKind::Update),
                CcDecision::Proceed
            );
            assert_eq!(cc.on_commit(t(0), 202 + round * 2), CcDecision::Proceed);
            cc.after_commit(t(0));
        }
        assert_eq!(cc.committed.len(), 10);
        assert_eq!(cc.on_commit(t(1), 300), CcDecision::Proceed);
        cc.after_commit(t(1));
        assert!(cc.committed.is_empty());
    }

    #[test]
    fn mvto_reads_never_block_or_abort() {
        let mut cc = MvtoCc::default();
        cc.begin(t(0), 0); // ts 1
        cc.begin(t(1), 0); // ts 2
                           // A younger writer commits a version of v0 at ts 2 ...
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Proceed);
        cc.after_commit(t(1));
        // ... and the older reader still proceeds: it reads its snapshot.
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Proceed);
        cc.after_commit(t(0));
    }

    #[test]
    fn mvto_aborts_late_writes() {
        let mut cc = MvtoCc::default();
        cc.begin(t(0), 0); // ts 1
        cc.begin(t(1), 0); // ts 2
                           // The younger transaction reads v0: max_rts(v0) = 2.
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Read), CcDecision::Proceed);
        // The older transaction's write would supersede the version t1
        // already read: late write, abort.
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Update), CcDecision::Abort);
        cc.on_abort(t(0));
        // Restart with a fresh, younger stamp: proceeds.
        cc.begin(t(0), 1); // ts 3
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Proceed);
    }

    #[test]
    fn mvto_blind_writes_count_as_observations() {
        // The engine fills every step's local from the store, so a blind
        // Write still observes its variable (later steps may consume that
        // local). An older writer must therefore not slip under a younger
        // blind write: it aborts like any other late write.
        let mut cc = MvtoCc::default();
        cc.begin(t(0), 0); // ts 1
        cc.begin(t(1), 0); // ts 2
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Write), CcDecision::Proceed);
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Write), CcDecision::Abort);
        cc.on_abort(t(0));
        // The younger writer is unaffected and commits its version.
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Proceed);
        cc.after_commit(t(1));
        // A restarted (now-youngest) writer proceeds past the new head.
        cc.begin(t(0), 1); // ts 3
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Write), CcDecision::Proceed);
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Proceed);
    }

    #[test]
    fn mvto_younger_access_waits_for_older_pending_writer() {
        let mut cc = MvtoCc::default();
        cc.begin(t(0), 0); // ts 1
        cc.begin(t(1), 0); // ts 2
                           // The older transaction has a buffered (pending) write on v0.
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        // Reading past it would doom the pending writer; the younger
        // transaction waits for the commit dependency instead.
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Read), CcDecision::Wait);
        assert_eq!(cc.on_commit(t(0), 1), CcDecision::Proceed);
        cc.after_commit(t(0));
        // Resolved: the read proceeds (and observes the ts-1 version).
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Read), CcDecision::Proceed);
        // An older reader never waits on a *younger* pending writer.
        cc.begin(t(2), 0); // ts 3
        assert_eq!(
            cc.on_step(t(2), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_step(t(1), v(1), StepKind::Read), CcDecision::Proceed);
    }

    #[test]
    fn mvto_watermark_tracks_oldest_live_snapshot() {
        let mut cc = MvtoCc::default();
        cc.begin(t(0), 0); // ts 1
        cc.begin(t(1), 0); // ts 2
        assert_eq!(cc.gc_watermark(), 1);
        assert_eq!(cc.on_commit(t(0), 1), CcDecision::Proceed);
        cc.after_commit(t(0));
        assert_eq!(cc.gc_watermark(), 2);
        assert_eq!(cc.on_commit(t(1), 2), CcDecision::Proceed);
        cc.after_commit(t(1));
        // Nobody live: the watermark moves past every handed-out stamp, so
        // every chain may collapse to its newest version.
        assert_eq!(cc.gc_watermark(), 3);
    }

    #[test]
    fn si_first_committer_wins_on_write_write_conflict() {
        let mut cc = SiCc::default();
        cc.begin(t(0), 0); // snapshot 0
        cc.begin(t(1), 0); // snapshot 0
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Proceed);
        cc.after_commit(t(1));
        // First committer won; the concurrent writer must abort.
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Abort);
        cc.on_abort(t(0));
        // A restart sees the fresh snapshot and succeeds.
        cc.begin(t(0), 2);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(0), 3), CcDecision::Proceed);
    }

    #[test]
    fn si_aborts_stale_writers_early() {
        let mut cc = SiCc::default();
        cc.begin(t(0), 0); // snapshot 0
        cc.begin(t(1), 0);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Proceed);
        cc.after_commit(t(1));
        // First-updater-wins: the write step itself observes the conflict.
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Update), CcDecision::Abort);
    }

    #[test]
    fn si_disjoint_writers_and_readers_commit_freely() {
        let mut cc = SiCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        cc.begin(t(2), 0);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(
            cc.on_step(t(1), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        // The reader never conflicts with anyone under SI.
        assert_eq!(cc.on_step(t(2), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(cc.on_step(t(2), v(1), StepKind::Read), CcDecision::Proceed);
        for (i, tick) in [(0u32, 1u64), (1, 2), (2, 3)] {
            assert_eq!(cc.on_commit(t(i), tick), CcDecision::Proceed);
            cc.after_commit(t(i));
        }
        // Commit sequence advanced once per commit.
        assert_eq!(cc.gc_watermark(), 3);
    }

    #[test]
    fn mv_mechanisms_declare_their_storage_contract() {
        for cc in [
            Box::new(MvtoCc::default()) as Box<dyn ConcurrencyControl>,
            Box::new(SiCc::default()),
        ] {
            assert!(cc.multiversion());
            assert!(cc.defers_writes(), "{} must defer writes", cc.name());
        }
        assert!(!SgtCc::default().multiversion());
        assert_eq!(SgtCc::default().gc_watermark(), u64::MAX);
    }

    #[test]
    fn sgt_retire_defers_until_no_in_edges() {
        let mut cc = SgtCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        // T0 reads v0, T1 overwrites it: edge T0 -> T1.
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Proceed);
        cc.after_commit(t(1));
        // T1 has an in-edge from the still-live T0: a cycle through T1 is
        // still possible (T1 -> T0 would close it), so its slot must not be
        // recycled yet.
        assert!(!cc.retire(t(1)));
        assert_eq!(
            cc.on_step(t(0), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Proceed);
        cc.after_commit(t(0));
        // T0 was never a successor: it retires immediately — and dropping
        // its out-edges unblocks T1's deferred retirement.
        assert!(cc.retire(t(0)));
        assert!(cc.retire(t(1)));
        // Both slots are clean for reuse: fresh transactions in the same
        // slots inherit no edges and no log entries.
        cc.begin(t(0), 3);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(cc.on_commit(t(0), 4), CcDecision::Proceed);
        cc.after_commit(t(0));
        assert!(cc.retire(t(0)));
    }

    #[test]
    fn sgt_abort_clears_in_degrees_for_immediate_retire() {
        let mut cc = SgtCc::default();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        // Aborting T1 removes it from the graph entirely; its slot is
        // immediately recyclable.
        cc.on_abort(t(1));
        assert!(cc.retire(t(1)));
        // T0 (still live, then committed with no in-edges) retires too.
        assert_eq!(cc.on_commit(t(0), 1), CcDecision::Proceed);
        cc.after_commit(t(0));
        assert!(cc.retire(t(0)));
    }

    #[test]
    fn retire_defaults_to_immediate_for_slot_local_mechanisms() {
        // Every mechanism but SGT, which defers (pinned above).
        for kind in CcKind::ALL.into_iter().filter(|&k| k != CcKind::Sgt) {
            let mut cc = kind.build();
            cc.begin(t(0), 0);
            assert_eq!(
                cc.on_step(t(0), v(0), StepKind::Update),
                CcDecision::Proceed
            );
            assert_eq!(cc.on_commit(t(0), 1), CcDecision::Proceed);
            cc.after_commit(t(0));
            assert!(cc.retire(t(0)), "{} must free the slot", cc.name());
        }
    }

    #[test]
    fn begin_at_pins_external_stamps() {
        // T/O with externally assigned stamps orders by those stamps, not
        // by begin order: t0 begins later but carries the older stamp.
        let mut cc = TimestampCc::default();
        cc.begin_at(t(1), 0, 20);
        cc.begin_at(t(0), 0, 10);
        assert_eq!(cc.on_step(t(1), v(0), StepKind::Read), CcDecision::Proceed);
        // Stamp 10 writing past read-stamp 20 is late: abort.
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Update), CcDecision::Abort);
        cc.on_abort(t(0));
        // A plain begin after begin_at(20) must stamp above 20.
        cc.begin(t(0), 1);
        assert_eq!(
            cc.on_step(t(0), v(0), StepKind::Update),
            CcDecision::Proceed
        );

        let mut mv = MvtoCc::default();
        mv.begin_at(t(0), 0, 7);
        assert_eq!(mv.read_view(t(0)), 7);
        assert_eq!(mv.commit_view(t(0)), 7);
        mv.begin_at(t(1), 0, 9);
        // The younger snapshot reads v0; the older stamp's write is late.
        assert_eq!(mv.on_step(t(1), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(mv.on_step(t(0), v(0), StepKind::Update), CcDecision::Abort);
    }

    #[test]
    fn sgt_commit_order_gate_waits_for_live_predecessors() {
        let mut cc = SgtCc::default();
        cc.enable_commit_order();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        // Edge t0 -> t1 (t0 read v0, t1 overwrote it).
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        // t1 must not commit before its live predecessor t0.
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Wait);
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Proceed);
        cc.after_commit(t(0));
        // Predecessor committed: the gate opens.
        assert_eq!(cc.on_commit(t(1), 3), CcDecision::Proceed);
        cc.after_commit(t(1));
        // Without the gate (default), the same shape commits immediately.
        let mut plain = SgtCc::default();
        plain.begin(t(0), 0);
        plain.begin(t(1), 0);
        assert_eq!(
            plain.on_step(t(0), v(0), StepKind::Read),
            CcDecision::Proceed
        );
        assert_eq!(
            plain.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(plain.on_commit(t(1), 1), CcDecision::Proceed);
    }

    #[test]
    fn sgt_commit_order_gate_aborts_wait_cycles() {
        // A commit-wait joining a strictness step-wait into a cycle must
        // abort rather than hang: t1 commit-waits on its live predecessor
        // t0, while t0 step-waits on t1's dirty write.
        let mut cc = SgtCc::default();
        cc.enable_commit_order();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        assert_eq!(
            cc.on_step(t(1), v(1), StepKind::Update),
            CcDecision::Proceed
        );
        // t1's commit waits on its live predecessor t0 (edge t0 -> t1).
        assert_eq!(cc.on_commit(t(1), 1), CcDecision::Wait);
        // t0 steps on v1 (dirty by the live t1): the strictness wait
        // t0 -> t1 would close a cycle with the commit-wait t1 -> t0, so
        // the requester aborts instead of hanging.
        assert_eq!(cc.on_step(t(0), v(1), StepKind::Read), CcDecision::Abort);
    }

    #[test]
    fn prepare_presizes_without_changing_behavior() {
        let mut a = Strict2plCc::default();
        let mut b = Strict2plCc::default();
        b.prepare(8, 8);
        for cc in [&mut a, &mut b] {
            cc.begin(t(0), 0);
            cc.begin(t(1), 0);
            assert_eq!(
                cc.on_step(t(0), v(0), StepKind::Update),
                CcDecision::Proceed
            );
            assert_eq!(cc.on_step(t(1), v(0), StepKind::Update), CcDecision::Wait);
        }
    }

    /// Three transactions hold `v0`, `v1`, `v2`. A wait asked again
    /// stands on the same edge and answers the same attribution; a
    /// standing edge answers only for its own holder; a request that
    /// closes a cycle through a standing edge still aborts as the deadlock
    /// victim; once a holder is gone, its waiter proceeds. All begin at
    /// one stamp: T/O's waits otherwise point from younger to older and
    /// never close a cycle, and the shared stamp (which the `begin_at`
    /// contract rules out) is what lets its walk reach the abort.
    fn standing_wait_answers_like_the_first(
        mut cc: Box<dyn ConcurrencyControl>,
        rule: ConflictRule,
    ) {
        let name = cc.name().to_owned();
        let step = |cc: &mut Box<dyn ConcurrencyControl>, i: u32, x: u32| {
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
        for _ in 0..100 {
            assert_eq!(step(&mut cc, 1, 0), wait(0, 0), "{name}");
        }
        assert_eq!(step(&mut cc, 2, 1), wait(1, 1), "{name}");
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
    fn a_standing_commit_order_wait_answers_like_the_first() {
        // t0 -> t1 in the conflict graph; t1's commit waits on the live t0
        // and keeps waiting on the standing edge until t0 commits.
        let mut cc = SgtCc::default();
        cc.enable_commit_order();
        cc.begin(t(0), 0);
        cc.begin(t(1), 0);
        assert_eq!(cc.on_step(t(0), v(0), StepKind::Read), CcDecision::Proceed);
        assert_eq!(
            cc.on_step(t(1), v(0), StepKind::Update),
            CcDecision::Proceed
        );
        let first = Some(CcConflict {
            rule: ConflictRule::CommitOrderWait,
            var: None,
            opponent: Some(t(0)),
        });
        for _ in 0..100 {
            assert_eq!(cc.on_commit(t(1), 1), CcDecision::Wait);
            assert_eq!(cc.last_conflict(), first);
        }
        assert_eq!(cc.on_commit(t(0), 2), CcDecision::Proceed);
        cc.after_commit(t(0));
        assert_eq!(cc.on_commit(t(1), 3), CcDecision::Proceed);
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

    /// Replays a seeded stream of `wait` / `unblock` / `finish` on `n`
    /// slots against a plain `Vec<Option<u32>>` waits-for graph. After
    /// every call the answer, the recorded conflict and every edge must
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
        let (mut waits, mut aborts) = (0, 0);
        for call in 0..calls {
            let a = next(n);
            match next(8) {
                // Mostly waits, as on a hot set: on average 62 % of the
                // 32 slots and 65 % of the 256 wait on someone.
                0..=5 => {
                    let h = (a + 1 + next(n - 1)) % n;
                    let why = CcConflict::new(ConflictRule::LockWait, v(next(16)), t(h));
                    let mut got = None;
                    let answer = w.wait(t(a), t(h), why, &mut got);
                    let (want, rule) = if model[a as usize] == Some(h) {
                        (CcDecision::Wait, ConflictRule::LockWait)
                    } else if model_reaches(&model, h, a) {
                        model[a as usize] = None;
                        (CcDecision::Abort, ConflictRule::Deadlock)
                    } else {
                        model[a as usize] = Some(h);
                        (CcDecision::Wait, ConflictRule::LockWait)
                    };
                    assert_eq!(answer, want, "call {call}: wait({a}, {h})");
                    assert_eq!(got, Some(CcConflict { rule, ..why }), "call {call}");
                    match answer {
                        CcDecision::Abort => aborts += 1,
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
        // The stream exercised both answers.
        assert!(
            waits > calls / 4 && aborts > 0,
            "{waits} waits, {aborts} aborts"
        );
    }

    #[test]
    fn waits_for_matches_an_option_graph_model() {
        waits_for_matches_the_model(32, 0x5eed_0032, 20_000);
        // The served shard's `max_txns`.
        waits_for_matches_the_model(256, 0x5eed_0256, 20_000);
    }

    #[test]
    fn cc_kind_names_parses_and_builds_all_seven() {
        assert_eq!(CcKind::ALL.map(CcKind::name), MECHANISM_NAMES);
        for k in CcKind::ALL {
            assert_eq!(CcKind::from_name(k.name()), Some(k));
            assert_eq!(k.build().name(), k.name());
            // The compatibility conversion.
            let factory = move || k.build();
            assert_eq!(CcKind::from(&factory), k);
        }
        assert_eq!(CcKind::from_name("2pl"), None);
        assert!(cc_by_name("2pl").is_none());
    }
}
