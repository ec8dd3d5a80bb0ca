//! Sorted singly-linked integer list.
//!
//! The classic STM stress structure: `contains`/`insert`/`remove` walk the
//! list from the head, so transactions have read sets proportional to the
//! list length — the workload where invisible reads' validation cost and
//! visible reads' per-read RMW cost pull hardest in opposite directions.

use std::sync::Arc;

use partstm_core::{
    Access, Arena, ArenaView, Handle, Migratable, MigratableCollection, PVar, PVarFields,
    Partition, PrivateGuard, Quiescent, Read, Tx, TxResult,
};

use crate::intset::IntSet;

/// List node: key + next link, both bound to the list's partition at
/// allocation. All fields transactional (recycled nodes must only change
/// under orec protection; see `partstm_core::arena`).
pub struct Node {
    key: PVar<u64>,
    next: PVar<Option<Handle<Node>>>,
}

impl PVarFields for Node {
    fn for_each_pvar(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        f(&self.key);
        f(&self.next);
    }
}

/// Sorted transactional linked list over a partition.
pub struct TLinkedList {
    part: Arc<Partition>,
    arena: Arena<Node>,
    head: PVar<Option<Handle<Node>>>,
}

fn node_make(part: &Arc<Partition>) -> Node {
    Node {
        key: part.tvar(0),
        next: part.tvar(None),
    }
}

impl TLinkedList {
    /// Empty list guarded by `part`.
    pub fn new(part: Arc<Partition>) -> Self {
        TLinkedList {
            arena: Arena::new_bound(&part, node_make),
            head: part.tvar(None),
            part,
        }
    }

    /// Empty list with room for `cap` nodes pre-allocated.
    pub fn with_capacity(part: Arc<Partition>, cap: usize) -> Self {
        TLinkedList {
            arena: Arena::with_capacity_bound(&part, cap, node_make),
            head: part.tvar(None),
            part,
        }
    }

    /// Walks to the first node with `node.key >= key`; returns
    /// `(prev, cur)` handles.
    #[allow(clippy::type_complexity)]
    fn locate<'e, R: Read<'e>>(
        &'e self,
        r: &mut R,
        key: u64,
    ) -> TxResult<(Option<Handle<Node>>, Option<Handle<Node>>)> {
        let mut prev: Option<Handle<Node>> = None;
        let mut cur = r.read(&self.head)?;
        while let Some(h) = cur {
            let node = self.arena.get(h);
            let k = r.read(&node.key)?;
            if k >= key {
                break;
            }
            prev = Some(h);
            cur = r.read(&node.next)?;
        }
        Ok((prev, cur))
    }

    /// Returns whether `key` is in the list, through any [`Read`].
    pub fn contains<'e, R: Read<'e>>(&'e self, r: &mut R, key: u64) -> TxResult<bool> {
        let (_, cur) = self.locate(r, key)?;
        match cur {
            Some(h) => Ok(r.read(&self.arena.get(h).key)? == key),
            None => Ok(false),
        }
    }

    /// Calls `f` on every key in ascending order, through any [`Read`].
    pub fn for_each<'e, R: Read<'e>>(&'e self, r: &mut R, mut f: impl FnMut(u64)) -> TxResult<()> {
        let mut cur = r.read(&self.head)?;
        while let Some(h) = cur {
            let node = self.arena.get(h);
            f(r.read(&node.key)?);
            cur = r.read(&node.next)?;
        }
        Ok(())
    }

    fn link_after<'e, A: Access<'e>>(
        &'e self,
        a: &mut A,
        prev: Option<Handle<Node>>,
        new: Handle<Node>,
    ) -> TxResult<()> {
        match prev {
            Some(p) => a.write(&self.arena.get(p).next, Some(new)),
            None => a.write(&self.head, Some(new)),
        }
    }

    /// [`IntSet::insert`] over any [`Access`].
    fn insert_with<'e, A: Access<'e>>(&'e self, a: &mut A, key: u64) -> TxResult<bool> {
        let (prev, cur) = self.locate(a, key)?;
        if let Some(h) = cur {
            if a.read(&self.arena.get(h).key)? == key {
                return Ok(false);
            }
        }
        let new = a.alloc(&self.arena)?;
        let node = self.arena.get(new);
        a.write(&node.key, key)?;
        a.write(&node.next, cur)?;
        self.link_after(a, prev, new)?;
        Ok(true)
    }
}

impl MigratableCollection for TLinkedList {
    fn node_arena(&self) -> Option<&dyn ArenaView> {
        Some(&self.arena)
    }

    fn for_each_root(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        f(&self.head);
    }
}

impl IntSet for TLinkedList {
    fn contains<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<bool> {
        TLinkedList::contains(self, tx, key)
    }

    fn insert<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<bool> {
        self.insert_with(tx, key)
    }

    fn bulk_insert(&self, guard: &PrivateGuard, key: u64) -> bool {
        self.insert_with(&mut guard.access(), key)
            .expect("guard access never aborts")
    }

    fn remove<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<bool> {
        let (prev, cur) = self.locate(tx, key)?;
        let Some(h) = cur else { return Ok(false) };
        let node = self.arena.get(h);
        if tx.read(&node.key)? != key {
            return Ok(false);
        }
        let next = tx.read(&node.next)?;
        match prev {
            Some(p) => tx.write(&self.arena.get(p).next, next)?,
            None => tx.write(&self.head, next)?,
        }
        self.arena.free(tx, h);
        Ok(true)
    }

    fn partition(&self) -> &Arc<Partition> {
        &self.part
    }

    fn snapshot_keys(&self) -> Vec<u64> {
        let mut out = Vec::new();
        Quiescent::run(|q| self.for_each(q, |k| out.push(k)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intset::testing;
    use partstm_core::{PartitionConfig, ReadMode, Stm};

    impl testing::ReadContains for TLinkedList {
        fn contains_via<'e, R: Read<'e>>(&'e self, r: &mut R, key: u64) -> TxResult<bool> {
            self.contains(r, key)
        }
    }

    fn fresh(stm: &Stm) -> TLinkedList {
        TLinkedList::new(stm.new_partition(PartitionConfig::named("list")))
    }

    #[test]
    fn empty_list_behaviour() {
        let stm = Stm::new();
        let l = fresh(&stm);
        let ctx = stm.register_thread();
        assert!(!ctx.run(|tx| l.contains(tx, 5)));
        assert!(!ctx.run(|tx| l.remove(tx, 5)));
        assert!(l.snapshot_keys().is_empty());
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let stm = Stm::new();
        let l = fresh(&stm);
        let ctx = stm.register_thread();
        for k in [5u64, 1, 9, 3, 7, 0, 2] {
            assert!(ctx.run(|tx| l.insert(tx, k)));
        }
        assert!(!ctx.run(|tx| l.insert(tx, 3)), "duplicate rejected");
        assert_eq!(l.snapshot_keys(), vec![0, 1, 2, 3, 5, 7, 9]);
    }

    #[test]
    fn remove_head_middle_tail() {
        let stm = Stm::new();
        let l = fresh(&stm);
        let ctx = stm.register_thread();
        for k in 0..6u64 {
            ctx.run(|tx| l.insert(tx, k));
        }
        assert!(ctx.run(|tx| l.remove(tx, 0)), "head");
        assert!(ctx.run(|tx| l.remove(tx, 3)), "middle");
        assert!(ctx.run(|tx| l.remove(tx, 5)), "tail");
        assert_eq!(l.snapshot_keys(), vec![1, 2, 4]);
    }

    #[test]
    fn node_recycling_reuses_slots() {
        let stm = Stm::new();
        let l = fresh(&stm);
        let ctx = stm.register_thread();
        for round in 0..50u64 {
            ctx.run(|tx| l.insert(tx, round % 4));
            ctx.run(|tx| l.remove(tx, round % 4));
        }
        assert!(l.snapshot_keys().is_empty());
        assert!(
            l.arena.live() <= 2,
            "slots must recycle, live={}",
            l.arena.live()
        );
    }

    #[test]
    fn sequential_model_conformance() {
        let stm = Stm::new();
        let l = fresh(&stm);
        testing::check_sequential_model(&stm, &l);
    }

    #[test]
    fn bulk_insert_matches_transactional() {
        let stm = Stm::new();
        let l = fresh(&stm);
        testing::check_bulk_matches_transactional(&stm, &l);
    }

    #[test]
    fn concurrent_disjoint_ranges() {
        let stm = Stm::new();
        let l = fresh(&stm);
        testing::check_concurrent_disjoint(&stm, &l);
    }

    #[test]
    fn concurrent_contended_invariants() {
        let stm = Stm::new();
        let l = fresh(&stm);
        testing::check_concurrent_contended(&stm, &l);
    }

    #[test]
    fn concurrent_contended_visible_reads() {
        let stm = Stm::new();
        let l = TLinkedList::new(
            stm.new_partition(PartitionConfig::named("vis").read_mode(ReadMode::Visible)),
        );
        testing::check_concurrent_contended(&stm, &l);
    }
}
