//! Deterministic hash partitioning of the variable universe.

use ccopt_model::ids::VarId;
use ccopt_model::state::GlobalState;

/// Deterministic hash partitioning of the variable universe: global
/// variable ids to `(shard, local id)` and back.
///
/// The multiplicative hash decorrelates shard assignment from id
/// adjacency (range-correlated workloads would otherwise pile onto one
/// shard), and depends only on `(num_vars, shards)` — recovery rebuilds
/// the identical partition.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Global variable -> (shard, local index).
    map: Vec<(u32, u32)>,
    /// Per shard: the global ids it owns, in local-index order.
    owned: Vec<Vec<VarId>>,
}

impl Partition {
    /// Partition `num_vars` global variables across `shards` shards.
    pub fn new(num_vars: usize, shards: usize) -> Partition {
        assert!(shards > 0, "a sharded database needs at least one shard");
        let mut map = Vec::with_capacity(num_vars);
        let mut owned: Vec<Vec<VarId>> = vec![Vec::new(); shards];
        for v in 0..num_vars as u32 {
            let s = (((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % shards as u64) as u32;
            map.push((s, owned[s as usize].len() as u32));
            owned[s as usize].push(VarId(v));
        }
        Partition { map, owned }
    }

    /// Number of global variables.
    pub fn num_vars(&self) -> usize {
        self.map.len()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.owned.len()
    }

    /// The shard owning global variable `v`.
    pub fn shard_of(&self, v: VarId) -> usize {
        self.map[v.index()].0 as usize
    }

    /// The shard-local id of global variable `v`.
    pub fn local(&self, v: VarId) -> VarId {
        VarId(self.map[v.index()].1)
    }

    /// Global ids owned by shard `s`, in local-index order.
    pub fn shard_vars(&self, s: usize) -> &[VarId] {
        &self.owned[s]
    }

    /// Project a global state onto shard `s`'s local variable order.
    pub(super) fn project(&self, init: &GlobalState, s: usize) -> GlobalState {
        GlobalState(self.owned[s].iter().map(|&v| init.0[v.index()]).collect())
    }
}
