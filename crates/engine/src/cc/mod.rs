//! Pluggable concurrency control for the engine.
//!
//! Each implementation answers three questions: may this step run now, may
//! this transaction commit, and what happens on abort. Seven mechanisms
//! are provided — the five classical single-version ones plus MVTO and
//! SI — with real abort/rollback/restart dynamics.
//! `ccopt-schedulers`' `EngineScheduler` runs each one as an order-model
//! scheduler. Measured there, serial and OCC have exactly the fixpoint
//! sets of the paper's strawman and of backward validation; SGT and T/O
//! have those of the order-model SGT and T/O intersected with strictness;
//! strict 2PL's (shared read locks, exclusive write locks) is a subset of
//! CSR ∩ strict, and of the lock-respecting 2PL's where every step
//! writes.
//!
//! [`ConcurrencyControl`] is the hook contract every mechanism implements;
//! [`Cc`] is the closed set of the seven, one enum variant each, and what
//! the engine holds: every hook is one `match`, so a mechanism's hooks
//! inline into the session layer instead of crossing a vtable. Each
//! mechanism lives in its own module (`serial`, `strict2pl`, `timestamp`,
//! `occ`, `sgt`, `mvto`, `si`); the blocking ones share the waits-for
//! graph in `waits_for`.
//!
//! All bookkeeping is kept in dense, index-keyed tables (`dense.rs`):
//! `TxnId` and `VarId` are dense `u32` indices, so lock tables, stamps,
//! footprints and waits-for edges are flat `Vec` slots with O(1) access
//! instead of O(log n) tree walks. [`ConcurrencyControl::prepare`] pre-sizes
//! every table for a known `(num_txns, num_vars)`; without it the tables
//! grow on demand, so bare `Default` construction keeps working.

mod mvto;
mod occ;
mod serial;
mod sgt;
mod si;
mod strict2pl;
mod timestamp;
mod waits_for;

use ccopt_model::ids::{TxnId, VarId};
use ccopt_model::syntax::StepKind;
pub use ccopt_trace::ConflictRule;
pub use {mvto::MvtoCc, occ::OccCc, serial::SerialCc, sgt::SgtCc, si::SiCc};
pub use {strict2pl::Strict2plCc, timestamp::TimestampCc};

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
/// The engine calls the hooks through [`Cc`], which implements this
/// trait by forwarding to its variant; the trait is also the shape a
/// caller may drive a mechanism through as `&mut dyn
/// ConcurrencyControl`. `Send` is a supertrait so a mechanism moves
/// between threads with its database: a `ShardedDb` moves whole, with
/// one `SessionDb` — and therefore one mechanism — behind each shard's
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
    pub fn build(self) -> Cc {
        match self {
            CcKind::Serial => Cc::Serial(SerialCc::default()),
            CcKind::Strict2pl => Cc::Strict2pl(Strict2plCc::default()),
            CcKind::Timestamp => Cc::Timestamp(TimestampCc::default()),
            CcKind::Occ => Cc::Occ(OccCc::default()),
            CcKind::Sgt => Cc::Sgt(SgtCc::default()),
            CcKind::Mvto => Cc::Mvto(MvtoCc::default()),
            CcKind::Si => Cc::Si(SiCc::default()),
        }
    }
}

/// One mechanism instance: the seven as one closed enum, which is what
/// the engine holds ([`SessionDb`](crate::SessionDb),
/// [`Database`](crate::Database), every shard of a
/// [`ShardedDb`](crate::ShardedDb)). Its [`ConcurrencyControl`] impl
/// forwards every hook through one `match`, so the call is static and
/// the mechanism's hook can inline into its caller. Built by
/// [`CcKind::build`]; a variant can also be constructed around a
/// configured mechanism.
#[derive(Debug)]
pub enum Cc {
    /// Serial: one global token.
    Serial(SerialCc),
    /// Strict two-phase locking.
    Strict2pl(Strict2plCc),
    /// Basic timestamp ordering.
    Timestamp(TimestampCc),
    /// Optimistic, backward validation.
    Occ(OccCc),
    /// Serialization-graph testing.
    Sgt(SgtCc),
    /// Multi-version timestamp ordering.
    Mvto(MvtoCc),
    /// Snapshot isolation.
    Si(SiCc),
}

/// Writes `impl ConcurrencyControl for Cc`: each listed hook becomes one
/// `#[inline]` `match` that calls the same hook on the variant's
/// mechanism. Every hook of the trait is listed, so no default body
/// answers for a mechanism that overrides it. (Receivers are spelled as
/// explicit types, `self: &mut Self` or `self: &Self`, so that one
/// pattern matches both.)
macro_rules! forward_to_variant {
    ($(fn $hook:ident(self: $recv:ty $(, $arg:ident: $ty:ty)*) $(-> $ret:ty)?;)*) => {
        impl ConcurrencyControl for Cc {
            $(#[inline]
            fn $hook(self: $recv $(, $arg: $ty)*) $(-> $ret)? {
                match self {
                    Cc::Serial(cc) => cc.$hook($($arg),*),
                    Cc::Strict2pl(cc) => cc.$hook($($arg),*),
                    Cc::Timestamp(cc) => cc.$hook($($arg),*),
                    Cc::Occ(cc) => cc.$hook($($arg),*),
                    Cc::Sgt(cc) => cc.$hook($($arg),*),
                    Cc::Mvto(cc) => cc.$hook($($arg),*),
                    Cc::Si(cc) => cc.$hook($($arg),*),
                }
            })*
        }
    };
}

forward_to_variant! {
    fn prepare(self: &mut Self, num_txns: usize, num_vars: usize);
    fn begin(self: &mut Self, t: TxnId, tick: u64);
    fn begin_at(self: &mut Self, t: TxnId, tick: u64, ts: u64);
    fn enable_commit_order(self: &mut Self);
    fn on_step(self: &mut Self, t: TxnId, var: VarId, kind: StepKind) -> CcDecision;
    fn on_commit(self: &mut Self, t: TxnId, tick: u64) -> CcDecision;
    fn after_commit(self: &mut Self, t: TxnId);
    fn on_abort(self: &mut Self, t: TxnId);
    fn name(self: &Self) -> &str;
    fn last_conflict(self: &Self) -> Option<CcConflict>;
    fn defers_writes(self: &Self) -> bool;
    fn multiversion(self: &Self) -> bool;
    fn read_view(self: &Self, t: TxnId) -> u64;
    fn commit_view(self: &Self, t: TxnId) -> u64;
    fn gc_watermark(self: &Self) -> u64;
    fn resume(self: &mut Self, ts_floor: u64);
    fn retire(self: &mut Self, t: TxnId) -> bool;
}

/// Compatibility shim for `benchmark/src/ladder.rs`, which drives a
/// mechanism's hooks through `&mut dyn ConcurrencyControl` as
/// `cc_by_name(..).expect(..).as_mut()` (the call shape of the boxed
/// mechanism this enum replaced). Nothing inside the workspace uses it;
/// the next change to the benchmark drops that call and this impl with
/// it.
impl AsMut<dyn ConcurrencyControl> for Cc {
    fn as_mut(&mut self) -> &mut (dyn ConcurrencyControl + 'static) {
        self
    }
}

/// Compatibility shim for the one caller that still hands
/// [`ShardedDb`](crate::ShardedDb) a reference to a factory closure
/// (`benchmark/src/ladder.rs`, which changes only together with the
/// benchmark): the closure is called once and the instance's name
/// resolved to its kind. Nothing inside the workspace uses it; the next
/// change to the benchmark deletes that call and this impl with it.
impl<F: Fn() -> Cc + ?Sized> From<&F> for CcKind {
    fn from(factory: &F) -> CcKind {
        CcKind::from_name(factory().name()).expect("every Cc has a canonical name")
    }
}

/// Construct a fresh default-configured mechanism by its canonical name
/// (one of [`MECHANISM_NAMES`]). `None` for unknown names. This is the
/// lookup the served system's `--cc` flag resolves through, so a server
/// and an in-process run of the same name get identical mechanisms.
pub fn cc_by_name(name: &str) -> Option<Cc> {
    CcKind::from_name(name).map(CcKind::build)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn t(i: u32) -> TxnId {
        TxnId(i)
    }

    pub(super) fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn mv_mechanisms_declare_their_storage_contract() {
        for cc in [Cc::Mvto(MvtoCc::default()), Cc::Si(SiCc::default())] {
            assert!(cc.multiversion());
            assert!(cc.defers_writes(), "{} must defer writes", cc.name());
        }
        assert!(!SgtCc::default().multiversion());
        assert_eq!(SgtCc::default().gc_watermark(), u64::MAX);
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
