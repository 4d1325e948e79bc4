//! Dense, index-keyed bookkeeping structures for the hot CC path.
//!
//! `TxnId` and `VarId` are dense `u32` indices, so every table a
//! concurrency-control mechanism keeps — locks, stamps, footprints,
//! waits-for edges — can be a flat `Vec` slot per id instead of a
//! `BTreeMap` node per entry. This module provides the three shapes the
//! mechanisms need:
//!
//! * [`DenseBitSet`] — a fixed-capacity bitset over `u64` blocks
//!   (set-membership footprints, adjacency rows, visited marks);
//! * [`EpochBitSet`] — a bitset whose `clear` is O(1) by bumping an epoch
//!   stamp instead of zeroing words (per-transaction scratch that resets on
//!   every `begin`/`abort`);
//! * [`SlotMap<T>`] — a plain `Vec<T>` with grow-on-demand indexing, in
//!   which one reserved value (`u32::MAX` for a `TxnId`, `u64::MAX` for a
//!   stamp) marks an empty slot: lock tables, waits-for edges,
//!   dirty-writer tables and stamp maps. A `TxnId` slot is 4 B, not the
//!   8 B of an `Option<TxnId>`, and clearing every slot that holds one
//!   value is a branch-free pass.
//!
//! All structures grow on demand so the mechanisms keep working without a
//! [`prepare`](crate::cc::ConcurrencyControl::prepare) call (unit tests
//! construct them bare); `prepare` pre-sizes them so the hot path never
//! reallocates.

/// Grow a per-index `Vec` of default values so that index `i` is
/// addressable. The grow-on-demand companion of the dense tables below:
/// mechanisms use it wherever a plain `Vec<T>` stands in for a map keyed by
/// `TxnId`/`VarId`.
#[inline]
pub(crate) fn ensure_index<T: Default>(v: &mut Vec<T>, i: usize) {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
}

/// A fixed-capacity bitset over `u64` blocks, growing on demand.
#[derive(Clone, Debug, Default)]
pub(crate) struct DenseBitSet {
    blocks: Vec<u64>,
}

impl DenseBitSet {
    /// A bitset pre-sized for indices `< n`.
    pub(crate) fn with_capacity(n: usize) -> Self {
        DenseBitSet {
            blocks: vec![0; n.div_ceil(64)],
        }
    }

    /// Reserve room for index `i`.
    #[inline]
    fn grow_for(&mut self, i: usize) {
        let need = i / 64 + 1;
        if self.blocks.len() < need {
            self.blocks.resize(need, 0);
        }
    }

    /// Set bit `i`; returns true when the bit was newly set.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        self.grow_for(i);
        let (b, m) = (i / 64, 1u64 << (i % 64));
        let was = self.blocks[b] & m != 0;
        self.blocks[b] |= m;
        !was
    }

    /// Clear bit `i`.
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        if let Some(b) = self.blocks.get_mut(i / 64) {
            *b &= !(1u64 << (i % 64));
        }
    }

    /// Is bit `i` set?
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.blocks
            .get(i / 64)
            .is_some_and(|b| b & (1u64 << (i % 64)) != 0)
    }

    /// Clear every bit (O(blocks); for O(1) clearing use [`EpochBitSet`]).
    pub(crate) fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// Do the two sets share any member? O(blocks), no allocation.
    pub(crate) fn intersects(&self, other: &DenseBitSet) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .any(|(a, b)| a & b != 0)
    }

    /// Iterate set bits in increasing order.
    pub(crate) fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            let mut rest = block;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let tz = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(bi * 64 + tz)
            })
        })
    }
}

/// A bitset with O(1) bulk clear: each slot stores the epoch at which it
/// was last set, and `clear` bumps the current epoch. The backing stamp
/// array is zeroed only on the (effectively unreachable) epoch wraparound.
#[derive(Clone, Debug, Default)]
pub(crate) struct EpochBitSet {
    stamps: Vec<u32>,
    epoch: u32,
}

impl EpochBitSet {
    #[inline]
    fn grow_for(&mut self, i: usize) {
        if self.stamps.len() <= i {
            self.stamps.resize(i + 1, 0);
        }
        if self.epoch == 0 {
            self.epoch = 1;
        }
    }

    /// Set member `i`; returns true when newly set this epoch.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        self.grow_for(i);
        let was = self.stamps[i] == self.epoch;
        self.stamps[i] = self.epoch;
        !was
    }

    /// Is `i` a member this epoch?
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.epoch != 0 && self.stamps.get(i).copied() == Some(self.epoch)
    }

    /// Drop every member in O(1) (epoch bump).
    #[inline]
    pub(crate) fn clear(&mut self) {
        let (next, overflow) = self.epoch.overflowing_add(1);
        if overflow {
            self.stamps.fill(0);
            self.epoch = 1;
        } else {
            self.epoch = next;
        }
    }
}

/// A bit matrix over `u64` words, growing on demand: row `r` is
/// `words[r * stride..][..stride]`, column `c` is bit `c % 64` of the
/// row's word `c / 64`. Strict 2PL's reader sets: one row per variable,
/// one column per transaction. A `prepare`d matrix is one zeroed
/// allocation, so setting and clearing bits never allocates.
#[derive(Clone, Debug, Default)]
pub(crate) struct BitMatrix {
    words: Vec<u64>,
    /// Words per row.
    stride: usize,
}

impl BitMatrix {
    /// Pre-size for rows `< rows` and columns `< cols` (never shrinks).
    /// A wider column range re-lays every row at the new stride.
    pub(crate) fn reserve(&mut self, rows: usize, cols: usize) {
        let stride = self.stride.max(cols.div_ceil(64));
        let rows = rows.max(self.rows());
        if stride != self.stride {
            let mut words = vec![0; rows * stride];
            if self.stride > 0 {
                for (r, row) in self.words.chunks_exact(self.stride).enumerate() {
                    words[r * stride..][..self.stride].copy_from_slice(row);
                }
            }
            self.words = words;
            self.stride = stride;
        } else if self.words.len() < rows * stride {
            self.words.resize(rows * stride, 0);
        }
    }

    fn rows(&self) -> usize {
        self.words.len().checked_div(self.stride).unwrap_or(0)
    }

    /// Set bit `(row, col)`; returns true when the bit was newly set.
    #[inline]
    pub(crate) fn insert(&mut self, row: usize, col: usize) -> bool {
        if col / 64 >= self.stride || (row + 1) * self.stride > self.words.len() {
            self.grow_for(row, col);
        }
        let w = &mut self.words[row * self.stride + col / 64];
        let m = 1u64 << (col % 64);
        let was = *w & m != 0;
        *w |= m;
        !was
    }

    /// Clear bit `(row, col)`.
    #[inline]
    pub(crate) fn remove(&mut self, row: usize, col: usize) {
        if col / 64 < self.stride {
            if let Some(w) = self.words.get_mut(row * self.stride + col / 64) {
                *w &= !(1u64 << (col % 64));
            }
        }
    }

    /// Is bit `(row, col)` set?
    #[inline]
    pub(crate) fn contains(&self, row: usize, col: usize) -> bool {
        col / 64 < self.stride
            && self
                .words
                .get(row * self.stride + col / 64)
                .is_some_and(|w| w & (1u64 << (col % 64)) != 0)
    }

    /// The lowest set column of `row` other than `col`.
    #[inline]
    pub(crate) fn first_other(&self, row: usize, col: usize) -> Option<usize> {
        let words = self.words.get(row * self.stride..(row + 1) * self.stride)?;
        words.iter().enumerate().find_map(|(i, &w)| {
            let w = if i == col / 64 {
                w & !(1u64 << (col % 64))
            } else {
                w
            };
            (w != 0).then(|| i * 64 + w.trailing_zeros() as usize)
        })
    }

    /// Make `(row, col)` addressable. Out of line, as
    /// [`SlotMap::grow_for`]: after `prepare` the hot path never grows.
    #[cold]
    #[inline(never)]
    fn grow_for(&mut self, row: usize, col: usize) {
        self.reserve(row + 1, col + 1);
    }
}

mod reserved {
    /// A slot value with one bit pattern set aside to mean "empty", so a
    /// [`SlotMap`](super::SlotMap) slot needs no `Option` tag. Sealed: the
    /// trait is nameable only in this module, and the types below are the
    /// only ones a `SlotMap` holds.
    pub(crate) trait Reserved: Copy + PartialEq {
        /// The value an empty slot holds; never stored as an entry.
        const EMPTY: Self;
    }

    impl Reserved for ccopt_model::ids::TxnId {
        const EMPTY: Self = ccopt_model::ids::TxnId(u32::MAX);
    }

    impl Reserved for u64 {
        const EMPTY: Self = u64::MAX;
    }
}

use reserved::Reserved;

/// A `Vec<T>` keyed by dense index, growing on demand, in which the
/// reserved value `T::EMPTY` marks an empty slot — the dense replacement
/// for `BTreeMap<Id, T>` point lookups. With no `Option` tag a `TxnId`
/// slot is 4 B, and [`remove_value`](Self::remove_value) is one
/// unconditional store per slot.
#[derive(Clone, Debug)]
pub(crate) struct SlotMap<T> {
    slots: Vec<T>,
}

impl<T> Default for SlotMap<T> {
    fn default() -> Self {
        SlotMap { slots: Vec::new() }
    }
}

impl<T: Reserved> SlotMap<T> {
    /// Pre-size for indices `< n` (no-op when already large enough).
    pub(crate) fn reserve_slots(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, T::EMPTY);
        }
    }

    /// Value at `i`, if set.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.slots.get(i).filter(|v| **v != T::EMPTY)
    }

    /// Copy of the value at `i`, if set.
    #[inline]
    pub(crate) fn get_copied(&self, i: usize) -> Option<T> {
        self.get(i).copied()
    }

    /// Set slot `i`, returning the previous value. `value` must not be
    /// the reserved `T::EMPTY`.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize, value: T) -> Option<T> {
        debug_assert!(
            value != T::EMPTY,
            "SlotMap::insert of the reserved empty value"
        );
        if self.slots.len() <= i {
            self.grow_for(i);
        }
        Self::occupied(std::mem::replace(&mut self.slots[i], value))
    }

    /// Clear slot `i`, returning the previous value.
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) -> Option<T> {
        let slot = self.slots.get_mut(i)?;
        Self::occupied(std::mem::replace(slot, T::EMPTY))
    }

    /// Clear every slot that holds `v`. One pass that stores to every
    /// slot whatever it holds, so the loop has no branch and vectorises.
    pub(crate) fn remove_value(&mut self, v: T) {
        for s in &mut self.slots {
            *s = if *s == v { T::EMPTY } else { *s };
        }
    }

    /// Iterate over set slots as `(index, &value)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != T::EMPTY)
    }

    /// Number of addressable slots (not the number of set entries).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Make index `i` addressable. Out of line: after `prepare` the hot
    /// path never grows, and a resize inlined into every `insert` kept
    /// the waits-for answer from being inlined into the mechanisms' step
    /// functions (about 4 ns more per wait answer in `microbench`).
    #[cold]
    #[inline(never)]
    fn grow_for(&mut self, i: usize) {
        self.slots.resize(i + 1, T::EMPTY);
    }

    #[inline]
    fn occupied(v: T) -> Option<T> {
        (v != T::EMPTY).then_some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_index_grows_to_fit() {
        let mut v: Vec<u64> = Vec::new();
        ensure_index(&mut v, 3);
        assert_eq!(v, vec![0, 0, 0, 0]);
        v[3] = 9;
        ensure_index(&mut v, 1); // never shrinks or overwrites
        assert_eq!(v[3], 9);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn bitset_round_trip() {
        let mut s = DenseBitSet::with_capacity(10);
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(200)); // grows on demand
        assert!(s.contains(3) && s.contains(200) && !s.contains(4));
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![3, 200]);
        assert_eq!(s.ones().count(), 2);
        s.remove(3);
        assert!(!s.contains(3));
        s.clear();
        assert_eq!(s.ones().next(), None);
    }

    #[test]
    fn bitset_intersections() {
        let mut a = DenseBitSet::default();
        let mut b = DenseBitSet::default();
        a.insert(5);
        a.insert(100);
        b.insert(6);
        assert!(!a.intersects(&b));
        b.insert(100);
        assert!(a.intersects(&b));
        // Different block counts are handled (zip stops at the shorter).
        let mut c = DenseBitSet::default();
        c.insert(5);
        assert!(a.intersects(&c));
    }

    #[test]
    fn epoch_set_clears_in_constant_time() {
        let mut s = EpochBitSet::default();
        assert!(s.insert(1));
        assert!(s.contains(1));
        s.clear();
        assert!(!s.contains(1));
        assert!(s.insert(1));
        // Grow-on-demand past the initial capacity.
        assert!(s.insert(77));
        assert!(s.contains(77));
    }

    #[test]
    fn epoch_wraparound_resets_stamps() {
        let mut s = EpochBitSet {
            epoch: u32::MAX,
            ..EpochBitSet::default()
        };
        s.insert(0);
        assert!(s.contains(0));
        s.clear(); // wraps: stamps zeroed, epoch restarts at 1
        assert!(!s.contains(0));
        s.insert(1);
        assert!(s.contains(1) && !s.contains(0));
    }

    #[test]
    fn bit_matrix_round_trip_and_restride() {
        let mut m = BitMatrix::default();
        assert_eq!(m.first_other(0, 0), None);
        assert!(!m.contains(3, 5));
        m.remove(3, 5); // absent rows and columns are empty
        assert!(m.insert(3, 5));
        assert!(!m.insert(3, 5));
        assert!(m.insert(3, 9));
        assert!(m.insert(0, 1));
        assert_eq!(m.first_other(3, 5), Some(9));
        assert_eq!(m.first_other(3, 9), Some(5));
        assert_eq!(m.first_other(3, 0), Some(5));
        assert_eq!(m.first_other(2, 0), None);
        // A column past the stride re-lays every row.
        assert!(m.insert(1, 130));
        assert!(m.contains(3, 5) && m.contains(3, 9) && m.contains(0, 1));
        assert!(m.contains(1, 130) && !m.contains(1, 2) && !m.contains(3, 130));
        assert_eq!(m.first_other(1, 0), Some(130));
        assert_eq!(m.first_other(1, 130), None);
        m.remove(3, 5);
        assert_eq!(m.first_other(3, 9), None);
        assert_eq!(m.first_other(3, 0), Some(9));
        // Reserving keeps every bit and only grows.
        let before = m.clone();
        m.reserve(1, 1);
        assert_eq!(
            (m.words.len(), m.stride),
            (before.words.len(), before.stride)
        );
        m.reserve(100, 256);
        assert_eq!(m.stride, 4);
        assert!(m.contains(3, 9) && m.contains(1, 130) && m.contains(0, 1));
        assert!(m.insert(99, 255));
        assert_eq!(m.words.len(), 400, "a reserved matrix does not grow");
    }

    #[test]
    fn slot_map_round_trip() {
        let mut m: SlotMap<u64> = SlotMap::default();
        m.reserve_slots(2);
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.insert(9, 90), None); // grows
        assert_eq!(m.insert(5, 11), None);
        assert_eq!(m.get_copied(1), Some(11));
        assert_eq!(m.get(4), None);
        assert_eq!(m.get(40), None);
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![(1, &11), (5, &11), (9, &90)]
        );
        m.remove_value(11);
        assert_eq!(m.get(1), None);
        assert_eq!(m.get(5), None);
        assert_eq!(m.remove(9), Some(90));
        assert_eq!(m.remove(9), None);
        assert_eq!(m.remove(40), None);
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.capacity(), 10);
    }

    /// `remove_value` against a `Vec<Option<T>>` reference at every length
    /// 0..=70, so every vector tail the compiler may split the pass into
    /// is covered. Slots hold one of `vals` or nothing, in a pattern that
    /// varies with the length.
    fn remove_value_matches_option_reference<T: Reserved + std::fmt::Debug>(vals: [T; 3]) {
        for len in 0..=70usize {
            for target in vals {
                let mut m = SlotMap::default();
                let mut reference: Vec<Option<T>> = vec![None; len];
                for (i, r) in reference.iter_mut().enumerate() {
                    // 0 leaves the slot empty; 1..=3 pick a value.
                    match (i * 7 + len * 3) % 4 {
                        0 => {}
                        k => {
                            *r = Some(vals[k - 1]);
                            m.insert(i, vals[k - 1]);
                        }
                    }
                }
                m.reserve_slots(len);
                m.remove_value(target);
                for r in &mut reference {
                    if *r == Some(target) {
                        *r = None;
                    }
                }
                assert_eq!(m.capacity(), len);
                let got: Vec<Option<T>> = (0..len).map(|i| m.get_copied(i)).collect();
                assert_eq!(got, reference, "len {len}, removing {target:?}");
                let set: Vec<(usize, T)> = m.iter().map(|(i, &v)| (i, v)).collect();
                let want: Vec<(usize, T)> = reference
                    .iter()
                    .enumerate()
                    .filter_map(|(i, r)| r.map(|v| (i, v)))
                    .collect();
                assert_eq!(set, want, "len {len}, removing {target:?}");
            }
        }
    }

    #[test]
    fn remove_value_matches_an_option_reference_for_txn_ids() {
        use ccopt_model::ids::TxnId;
        remove_value_matches_option_reference([TxnId(0), TxnId(7), TxnId(u32::MAX - 1)]);
    }

    #[test]
    fn remove_value_matches_an_option_reference_for_stamps() {
        remove_value_matches_option_reference([0u64, 42, u64::MAX - 1]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SlotMap::insert of the reserved empty value")]
    fn inserting_the_reserved_value_trips_the_debug_check() {
        let mut m: SlotMap<u64> = SlotMap::default();
        m.insert(0, u64::MAX);
    }
}
