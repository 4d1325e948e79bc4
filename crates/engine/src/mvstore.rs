//! Multi-version value store: an inline newest version per variable, a
//! worklist of the variables that hold history, and watermark-driven
//! garbage collection that visits only that worklist.
//!
//! Where [`crate::storage::Storage`] holds one value per variable and
//! repairs aborts with undo logs, `MvStore` keeps a *chain* of committed
//! versions per variable, each stamped with the timestamp its writer
//! installed it at. Readers address a snapshot: `read_at(v, ts)` returns
//! the newest version of `v` whose stamp is `<= ts`, so a transaction
//! reading at a fixed snapshot never observes — and never blocks on —
//! concurrent writers. Writers buffer privately (the engine's deferred
//! write path) and install whole version sets atomically at commit, so the
//! chains only ever contain committed data and installs per chain are
//! append-only in timestamp order.
//!
//! Layout. Almost every variable holds exactly one version almost all of
//! the time, so a chain is split in two: its newest version — the *head* —
//! lives inline in one flat `Vec<Version>` dense-indexed by [`VarId`] like
//! the rest of the engine's tables (`dense.rs`), and the versions
//! behind the head exist only for the variables on the **worklist**. The
//! invariant every method maintains:
//!
//! > a variable is on the worklist iff it holds more than one version.
//!
//! A variable enters at the `install` that pushes its old head into
//! history and leaves in the `gc` that reclaims the last of that history.
//! A read at a current snapshot is therefore one load of the head, and no
//! cost of `install`, `read_at` or `gc` depends on the number of variables.
//!
//! Garbage collection is driven by a *watermark*: the oldest snapshot any
//! live transaction may still read (supplied by the concurrency control
//! via [`gc_watermark`](crate::cc::ConcurrencyControl::gc_watermark)).
//! For each chain, every version older than the newest one visible at the
//! watermark is unreachable by any current or future snapshot and is
//! reclaimed. Single-version chains have nothing to reclaim at any
//! watermark, so `gc` walks the worklist and nothing else: its cost is
//! proportional to the history held, never to the size of the database.

use ccopt_model::ids::VarId;
use ccopt_model::state::GlobalState;
use ccopt_model::value::Value;

/// One committed version of a variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Version {
    /// Timestamp the writing transaction installed the version at (its
    /// begin timestamp under MVTO, its commit sequence number under SI).
    pub wts: u64,
    /// The committed value.
    pub value: Value,
}

/// `MvStore::slot` entry of a variable that is not on the worklist.
const OFF_LIST: u32 = u32::MAX;

/// The history of one multi-version variable: a worklist entry.
#[derive(Clone, Debug)]
struct History {
    var: VarId,
    /// The versions behind the head, ascending by `wts`; never empty
    /// while the entry is on the worklist.
    older: Vec<Version>,
}

/// The multi-version store. Install and reclaim accounting lives with the
/// caller ([`crate::metrics::Metrics`]); the store itself only holds the
/// versions and counts the live ones.
#[derive(Clone, Debug)]
pub struct MvStore {
    /// Newest committed version of every variable (the initial state at
    /// timestamp 0 until something installs over it).
    heads: Vec<Version>,
    /// Per variable: its position in `worklist`, or [`OFF_LIST`].
    slot: Vec<u32>,
    /// Exactly the variables holding more than one version.
    worklist: Vec<History>,
    /// Emptied `History::older` buffers, reused by the next variable to
    /// enter the worklist: the steady install → gc cycle never allocates.
    spare: Vec<Vec<Version>>,
    /// Versions held across all variables.
    live: usize,
}

impl MvStore {
    /// Initialize from a global state: one timestamp-0 version per variable.
    pub fn new(init: GlobalState) -> Self {
        let heads: Vec<Version> = init
            .0
            .into_iter()
            .map(|value| Version { wts: 0, value })
            .collect();
        MvStore {
            slot: vec![OFF_LIST; heads.len()],
            live: heads.len(),
            heads,
            worklist: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.heads.len()
    }

    /// Rebuild a store from a durable image: per-variable `(wts, value)`
    /// chains in ascending order (crash recovery's replay output). Chains
    /// longer than one version land on the worklist, so the first sweep
    /// after recovery reclaims them like any other history.
    ///
    /// # Panics
    /// Panics when a chain is empty or out of order — a recovered image
    /// is validated record by record, so this indicates a caller bug.
    pub fn from_image(chains: Vec<Vec<(u64, Value)>>) -> Self {
        let mut store = MvStore {
            heads: Vec::with_capacity(chains.len()),
            slot: vec![OFF_LIST; chains.len()],
            worklist: Vec::new(),
            spare: Vec::new(),
            live: 0,
        };
        for (i, chain) in chains.into_iter().enumerate() {
            assert!(
                chain.windows(2).all(|w| w[0].0 < w[1].0),
                "image chains must ascend strictly by wts"
            );
            let mut older: Vec<Version> = chain
                .into_iter()
                .map(|(wts, value)| Version { wts, value })
                .collect();
            store.live += older.len();
            store
                .heads
                .push(older.pop().expect("image chains must be non-empty"));
            if !older.is_empty() {
                store.slot[i] = store.worklist.len() as u32;
                store.worklist.push(History {
                    var: VarId(i as u32),
                    older,
                });
            }
        }
        store
    }

    /// The versions behind the head of `v` (empty off the worklist).
    fn older(&self, v: VarId) -> &[Version] {
        match self.slot[v.index()] {
            OFF_LIST => &[],
            at => &self.worklist[at as usize].older,
        }
    }

    /// Export the chains as a durable image (the checkpoint payload):
    /// per-variable `(wts, value)` lists, ascending.
    pub fn image(&self) -> Vec<Vec<(u64, Value)>> {
        (0..self.heads.len())
            .map(|i| {
                self.older(VarId(i as u32))
                    .iter()
                    .chain(std::iter::once(&self.heads[i]))
                    .map(|v| (v.wts, v.value))
                    .collect()
            })
            .collect()
    }

    /// Read variable `v` at snapshot `ts`: the newest version with
    /// `wts <= ts`. Snapshots overwhelmingly address the head, which is
    /// one load; an older snapshot scans the history from its newest end.
    ///
    /// # Panics
    /// Panics when `v` is out of range (syntax validation prevents this).
    #[inline]
    pub fn read_at(&self, v: VarId, ts: u64) -> Value {
        let head = self.heads[v.index()];
        if head.wts <= ts {
            return head.value;
        }
        let older = self.older(v);
        debug_assert!(
            older.first().is_some_and(|f| f.wts <= ts),
            "snapshot {ts} predates the GC watermark for {v}"
        );
        older
            .iter()
            .rev()
            .find(|ver| ver.wts <= ts)
            .or(older.first())
            .unwrap_or(&head)
            .value
    }

    /// Timestamp of the newest committed version of `v`.
    pub fn latest_wts(&self, v: VarId) -> u64 {
        self.heads[v.index()].wts
    }

    /// Install a committed version of `v` at `wts`. Chains are append-only:
    /// the concurrency control must have validated that no newer version
    /// exists (late writers abort instead of inserting mid-chain). The
    /// superseded head moves into the variable's history, entering the
    /// worklist if it was the only version.
    pub fn install(&mut self, v: VarId, wts: u64, value: Value) {
        let head = &mut self.heads[v.index()];
        debug_assert!(
            head.wts < wts,
            "install at {wts} behind the chain head of {v}"
        );
        let superseded = std::mem::replace(head, Version { wts, value });
        let slot = &mut self.slot[v.index()];
        if *slot == OFF_LIST {
            *slot = self.worklist.len() as u32;
            self.worklist.push(History {
                var: v,
                older: self.spare.pop().unwrap_or_default(),
            });
        }
        self.worklist[*slot as usize].older.push(superseded);
        self.live += 1;
    }

    /// Reclaim versions unreachable from any snapshot `>= watermark`: per
    /// chain, everything older than the newest version with
    /// `wts <= watermark`. Returns the number reclaimed by this call.
    /// Visits the worklist only; a variable whose head is visible at the
    /// watermark loses its whole history and leaves the worklist.
    pub fn gc(&mut self, watermark: u64) -> usize {
        let mut reclaimed = 0;
        // Newest entry first: a departing entry is then replaced by one
        // already visited (or by none, when everything departs).
        for at in (0..self.worklist.len()).rev() {
            let entry = &mut self.worklist[at];
            if self.heads[entry.var.index()].wts > watermark {
                // Some snapshot may still read behind the head: keep the
                // newest version visible at the watermark and all after it.
                let visible = entry.older.iter().rposition(|ver| ver.wts <= watermark);
                reclaimed += entry.older.drain(..visible.unwrap_or(0)).count();
                continue;
            }
            let mut gone = self.worklist.swap_remove(at);
            self.slot[gone.var.index()] = OFF_LIST;
            if let Some(moved) = self.worklist.get(at) {
                self.slot[moved.var.index()] = at as u32;
            }
            reclaimed += gone.older.len();
            gone.older.clear();
            self.spare.push(gone.older);
        }
        self.live -= reclaimed;
        reclaimed
    }

    /// Total live versions across all chains.
    pub fn live_versions(&self) -> usize {
        self.live
    }

    /// Current chain length of one variable.
    pub fn chain_len(&self, v: VarId) -> usize {
        1 + self.older(v).len()
    }

    /// The newest committed value of every variable (the state a snapshot
    /// taken "now" would observe).
    pub fn snapshot_latest(&self) -> GlobalState {
        GlobalState(self.heads.iter().map(|head| head.value).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn store() -> MvStore {
        MvStore::new(GlobalState::from_ints(&[10, 20]))
    }

    #[test]
    fn reads_address_snapshots() {
        let mut s = store();
        s.install(v(0), 3, Value::Int(11));
        s.install(v(0), 7, Value::Int(12));
        assert_eq!(s.read_at(v(0), 0), Value::Int(10));
        assert_eq!(s.read_at(v(0), 3), Value::Int(11));
        assert_eq!(s.read_at(v(0), 6), Value::Int(11));
        assert_eq!(s.read_at(v(0), 100), Value::Int(12));
        // The untouched variable answers its initial value at any snapshot.
        assert_eq!(s.read_at(v(1), 5), Value::Int(20));
        assert_eq!(s.latest_wts(v(0)), 7);
        assert_eq!(s.latest_wts(v(1)), 0);
        assert_eq!(s.chain_len(v(0)), 3);
    }

    #[test]
    fn snapshot_latest_tracks_chain_heads() {
        let mut s = store();
        s.install(v(1), 2, Value::Int(21));
        assert_eq!(s.snapshot_latest(), GlobalState::from_ints(&[10, 21]));
    }

    #[test]
    fn gc_keeps_the_watermark_visible_version() {
        let mut s = store();
        s.install(v(0), 3, Value::Int(11));
        s.install(v(0), 7, Value::Int(12));
        // A live snapshot at 5 still needs the wts=3 version, not wts=0.
        assert_eq!(s.gc(5), 1);
        assert_eq!(s.read_at(v(0), 5), Value::Int(11));
        assert_eq!(s.read_at(v(0), 9), Value::Int(12));
        // Watermark past everything: chains collapse to one version each.
        s.gc(u64::MAX);
        assert_eq!(s.live_versions(), 2);
        assert_eq!(s.snapshot_latest(), GlobalState::from_ints(&[12, 20]));
    }

    #[test]
    fn sustained_load_stays_bounded_under_gc() {
        // The watermark chases the installer: the chain never grows past
        // two versions no matter how many are installed.
        let mut s = MvStore::new(GlobalState::from_ints(&[0]));
        let mut reclaimed = 0;
        for i in 1..=10_000u64 {
            s.install(v(0), i, Value::Int(i as i64));
            assert_eq!(s.chain_len(v(0)), 2, "chain grew at step {i}");
            reclaimed += s.gc(i);
            assert_eq!(s.chain_len(v(0)), 1);
        }
        assert_eq!(reclaimed, 10_000); // history plus the initial version
        assert_eq!(s.read_at(v(0), 10_000), Value::Int(10_000));
    }

    #[test]
    fn lagging_watermark_retains_history_until_released() {
        // A long-lived snapshot pins its version; once the watermark
        // advances past it, the history is reclaimed in one sweep.
        let mut s = MvStore::new(GlobalState::from_ints(&[0]));
        for i in 1..=100u64 {
            s.install(v(0), i, Value::Int(i as i64));
            s.gc(1); // reader pinned at snapshot 1
        }
        assert_eq!(s.chain_len(v(0)), 100); // wts=1 plus 2..=100
        assert_eq!(s.read_at(v(0), 1), Value::Int(1));
        let reclaimed = s.gc(200);
        assert_eq!(reclaimed, 99);
        assert_eq!(s.live_versions(), 1);
    }

    #[test]
    fn recovered_history_is_on_the_worklist() {
        // A multi-version chain loaded from an image is reclaimed by the
        // next sweep exactly like one built by installs.
        let image = vec![
            vec![(0, Value::Int(1))],
            vec![(2, Value::Int(5)), (4, Value::Int(6)), (9, Value::Int(7))],
        ];
        let mut s = MvStore::from_image(image.clone());
        assert_eq!(s.image(), image);
        assert_eq!((s.live_versions(), s.chain_len(v(1))), (4, 3));
        assert_eq!(s.read_at(v(1), 4), Value::Int(6));
        assert_eq!(s.gc(5), 1);
        assert_eq!(s.gc(u64::MAX), 1);
        assert_eq!((s.live_versions(), s.chain_len(v(1))), (2, 1));
        assert_eq!(s.gc(u64::MAX), 0);
    }

    /// The layout `MvStore` replaced, kept as its executable
    /// specification: one heap chain per variable, and a sweep that visits
    /// every chain on every call.
    struct FullSweepStore {
        chains: Vec<Vec<Version>>,
    }

    impl FullSweepStore {
        fn from_image(image: Vec<Vec<(u64, Value)>>) -> Self {
            let versions = |chain: Vec<(u64, Value)>| {
                let stamped = chain.into_iter().map(|(wts, value)| Version { wts, value });
                stamped.collect()
            };
            FullSweepStore {
                chains: image.into_iter().map(versions).collect(),
            }
        }

        fn image(&self) -> Vec<Vec<(u64, Value)>> {
            let pairs = |c: &Vec<Version>| c.iter().map(|v| (v.wts, v.value)).collect();
            self.chains.iter().map(pairs).collect()
        }

        fn read_at(&self, v: VarId, ts: u64) -> Value {
            let chain = &self.chains[v.index()];
            let visible = chain.iter().rev().find(|ver| ver.wts <= ts);
            visible.unwrap_or(&chain[0]).value
        }

        fn install(&mut self, v: VarId, wts: u64, value: Value) {
            self.chains[v.index()].push(Version { wts, value });
        }

        fn gc(&mut self, watermark: u64) -> usize {
            let mut reclaimed = 0;
            for chain in &mut self.chains {
                let visible = chain.iter().rposition(|ver| ver.wts <= watermark);
                reclaimed += chain.drain(..visible.unwrap_or(0)).count();
            }
            reclaimed
        }
    }

    /// SplitMix64, as in `tests/batched.rs`: the sequences repeat exactly.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn worklist_store_matches_the_full_sweep_model() {
        for seed in 0..64u64 {
            let mut rng = Rng(seed);
            let vars = 1 + rng.below(12) as u32;
            let init: Vec<i64> = (0..vars).map(i64::from).collect();
            let mut store = MvStore::new(GlobalState::from_ints(&init));
            let mut model = FullSweepStore::from_image(store.image());
            // `clock`: the newest stamp installed. `floor`: the oldest
            // snapshot still readable, i.e. the largest watermark swept
            // at (a watermark past the clock collapses chains to versions
            // stamped `<= clock`).
            let (mut clock, mut floor) = (0u64, 0u64);
            for step in 0..400 {
                let at = format!("seed {seed} step {step}");
                match rng.below(10) {
                    0..=4 => {
                        // Stamps ascend globally, with gaps; several
                        // variables may share one (a commit's write set).
                        clock += rng.below(3);
                        let var = v(rng.below(vars as u64) as u32);
                        if store.latest_wts(var) < clock {
                            let value = Value::Int(rng.below(1000) as i64);
                            store.install(var, clock, value);
                            model.install(var, clock, value);
                        }
                    }
                    5..=7 => {
                        let watermark = match rng.below(8) {
                            0 => u64::MAX,
                            1 | 2 => clock + rng.below(4), // jumps ahead
                            _ => rng.below(clock + 1),     // lags, or repeats
                        };
                        assert_eq!(store.gc(watermark), model.gc(watermark), "{at}");
                        floor = floor.max(watermark.min(clock));
                    }
                    8 => {
                        // Checkpoint and recover, history included.
                        store = MvStore::from_image(store.image());
                    }
                    _ => {
                        for var in (0..vars).map(v) {
                            for ts in (floor..=clock + 1).chain([u64::MAX]) {
                                assert_eq!(
                                    store.read_at(var, ts),
                                    model.read_at(var, ts),
                                    "{at}: {var} at snapshot {ts}"
                                );
                            }
                        }
                    }
                }
                assert_eq!(store.image(), model.image(), "{at}");
                let lens = model.chains.iter().map(Vec::len);
                assert_eq!(store.live_versions(), lens.clone().sum::<usize>(), "{at}");
                assert!(
                    lens.eq((0..vars).map(|i| store.chain_len(v(i)))),
                    "{at}: chain lengths"
                );
            }
            // Every snapshot retires: all history goes, in both stores.
            assert_eq!(store.gc(u64::MAX), model.gc(u64::MAX), "seed {seed}");
            assert_eq!(store.live_versions(), vars as usize, "seed {seed}");
        }
    }
}
