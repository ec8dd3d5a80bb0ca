//! Transactional skip list.
//!
//! Probabilistic balanced set with O(log n) expected search paths — much
//! shorter read sets than the linked list, making it the "middle ground"
//! microbenchmark between list and tree. Node levels are derived
//! deterministically from a hash of the key (geometric, p = 1/2), which
//! keeps runs reproducible without per-structure RNG state.

use std::sync::Arc;

use partstm_core::{
    Access, Arena, ArenaView, Handle, Migratable, MigratableCollection, PVar, PVarFields,
    Partition, PrivateGuard, Quiescent, Read, Tx, TxResult,
};

use crate::intset::IntSet;

/// Maximum tower height (supports ~2^16 elements comfortably).
pub const MAX_LEVEL: usize = 16;

/// Skip-list node: key, tower height and forward links, all bound to the
/// list's partition at allocation.
pub struct Node {
    key: PVar<u64>,
    /// Height of this node's tower (1..=MAX_LEVEL). Transactional so
    /// recycled nodes stay under orec protection.
    level: PVar<u64>,
    /// Forward links; only `next[..level]` are meaningful. Every walk
    /// reads `next[i]` only of a node it reached through a level-`i` (or
    /// higher) link, or of a node whose `level` it read, so a recycled
    /// slot's stale upper links are never followed.
    next: [PVar<Option<Handle<Node>>>; MAX_LEVEL],
}

/// Deterministic tower height for a key (geometric distribution).
fn level_for(key: u64) -> usize {
    let h = key
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(31)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    ((h.trailing_zeros() as usize) + 1).min(MAX_LEVEL)
}

/// Transactional skip list over a partition.
pub struct TSkipList {
    part: Arc<Partition>,
    arena: Arena<Node>,
    heads: [PVar<Option<Handle<Node>>>; MAX_LEVEL],
}

impl PVarFields for Node {
    fn for_each_pvar(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        f(&self.key);
        f(&self.level);
        for n in &self.next {
            f(n);
        }
    }
}

fn node_make(part: &Arc<Partition>) -> Node {
    Node {
        key: part.tvar(0),
        level: part.tvar(0),
        next: core::array::from_fn(|_| part.tvar(None)),
    }
}

impl TSkipList {
    /// Empty skip list guarded by `part`.
    pub fn new(part: Arc<Partition>) -> Self {
        TSkipList {
            arena: Arena::new_bound(&part, node_make),
            heads: core::array::from_fn(|_| part.tvar(None)),
            part,
        }
    }

    /// Empty skip list with pre-allocated node capacity.
    pub fn with_capacity(part: Arc<Partition>, cap: usize) -> Self {
        TSkipList {
            arena: Arena::with_capacity_bound(&part, cap, node_make),
            heads: core::array::from_fn(|_| part.tvar(None)),
            part,
        }
    }

    /// Forward link at `lvl` from `from` (None = the head tower).
    fn next_of<'e, R: Read<'e>>(
        &'e self,
        r: &mut R,
        from: Option<Handle<Node>>,
        lvl: usize,
    ) -> TxResult<Option<Handle<Node>>> {
        match from {
            Some(h) => r.read(&self.arena.get(h).next[lvl]),
            None => r.read(&self.heads[lvl]),
        }
    }

    fn set_next<'e, A: Access<'e>>(
        &'e self,
        a: &mut A,
        from: Option<Handle<Node>>,
        lvl: usize,
        to: Option<Handle<Node>>,
    ) -> TxResult<()> {
        match from {
            Some(h) => a.write(&self.arena.get(h).next[lvl], to),
            None => a.write(&self.heads[lvl], to),
        }
    }

    /// Finds the predecessors of `key` at every level and the candidate
    /// node at level 0.
    #[allow(clippy::type_complexity)]
    fn locate<'e, R: Read<'e>>(
        &'e self,
        r: &mut R,
        key: u64,
    ) -> TxResult<([Option<Handle<Node>>; MAX_LEVEL], Option<Handle<Node>>)> {
        let mut preds: [Option<Handle<Node>>; MAX_LEVEL] = [None; MAX_LEVEL];
        let mut pred: Option<Handle<Node>> = None;
        for lvl in (0..MAX_LEVEL).rev() {
            let mut cur = self.next_of(r, pred, lvl)?;
            while let Some(h) = cur {
                let k = r.read(&self.arena.get(h).key)?;
                if k >= key {
                    break;
                }
                pred = Some(h);
                cur = self.next_of(r, pred, lvl)?;
            }
            preds[lvl] = pred;
        }
        let candidate = self.next_of(r, preds[0], 0)?;
        Ok((preds, candidate))
    }

    /// Returns whether `key` is in the list, through any [`Read`].
    pub fn contains<'e, R: Read<'e>>(&'e self, r: &mut R, key: u64) -> TxResult<bool> {
        let (_, cand) = self.locate(r, key)?;
        match cand {
            Some(h) => Ok(r.read(&self.arena.get(h).key)? == key),
            None => Ok(false),
        }
    }

    /// Calls `f` on every key in ascending order, through any [`Read`].
    pub fn for_each<'e, R: Read<'e>>(&'e self, r: &mut R, mut f: impl FnMut(u64)) -> TxResult<()> {
        let mut cur = r.read(&self.heads[0])?;
        while let Some(h) = cur {
            let node = self.arena.get(h);
            f(r.read(&node.key)?);
            cur = r.read(&node.next[0])?;
        }
        Ok(())
    }

    /// [`IntSet::insert`] over any [`Access`].
    fn insert_with<'e, A: Access<'e>>(&'e self, a: &mut A, key: u64) -> TxResult<bool> {
        let (preds, cand) = self.locate(a, key)?;
        if let Some(h) = cand {
            if a.read(&self.arena.get(h).key)? == key {
                return Ok(false);
            }
        }
        let lvl = level_for(key);
        let new = a.alloc(&self.arena)?;
        let node = self.arena.get(new);
        a.write(&node.key, key)?;
        a.write(&node.level, lvl as u64)?;
        for (i, &pred) in preds.iter().enumerate().take(lvl) {
            let succ = self.next_of(a, pred, i)?;
            a.write(&node.next[i], succ)?;
            self.set_next(a, pred, i, Some(new))?;
        }
        Ok(true)
    }
}

impl MigratableCollection for TSkipList {
    fn node_arena(&self) -> Option<&dyn ArenaView> {
        Some(&self.arena)
    }

    fn for_each_root(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        self.heads.iter().for_each(|h| f(h));
    }
}

impl IntSet for TSkipList {
    fn contains<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<bool> {
        TSkipList::contains(self, tx, key)
    }

    fn insert<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<bool> {
        self.insert_with(tx, key)
    }

    fn bulk_insert(&self, guard: &PrivateGuard, key: u64) -> bool {
        self.insert_with(&mut guard.access(), key)
            .expect("guard access never aborts")
    }

    fn remove<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<bool> {
        let (preds, cand) = self.locate(tx, key)?;
        let Some(h) = cand else { return Ok(false) };
        let node = self.arena.get(h);
        if tx.read(&node.key)? != key {
            return Ok(false);
        }
        let lvl = tx.read(&node.level)? as usize;
        for (i, &pred) in preds.iter().enumerate().take(lvl) {
            // The predecessor at level i links to us iff our tower reaches
            // level i (locate's preds are the strict predecessors of key).
            let succ = tx.read(&node.next[i])?;
            let linked = self.next_of(tx, pred, i)?;
            if linked == Some(h) {
                self.set_next(tx, pred, i, succ)?;
            }
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
    use partstm_core::{AcquireMode, PartitionConfig, Stm};

    impl testing::ReadContains for TSkipList {
        fn contains_via<'e, R: Read<'e>>(&'e self, r: &mut R, key: u64) -> TxResult<bool> {
            self.contains(r, key)
        }
    }

    fn fresh(stm: &Stm) -> TSkipList {
        TSkipList::new(stm.new_partition(PartitionConfig::named("skip")))
    }

    #[test]
    fn level_distribution_is_geometricish() {
        let mut counts = [0usize; MAX_LEVEL + 1];
        for k in 0..100_000u64 {
            counts[level_for(k)] += 1;
        }
        assert!(counts[1] > 40_000, "about half should be level 1");
        assert!(counts[2] > 20_000 && counts[2] < 30_000);
        assert_eq!(counts[0], 0);
    }

    #[test]
    fn basic_ops_and_order() {
        let stm = Stm::new();
        let sl = fresh(&stm);
        let ctx = stm.register_thread();
        for k in [42u64, 7, 99, 1, 55, 23] {
            assert!(ctx.run(|tx| sl.insert(tx, k)));
        }
        assert!(!ctx.run(|tx| sl.insert(tx, 55)));
        assert!(ctx.run(|tx| sl.contains(tx, 23)));
        assert!(!ctx.run(|tx| sl.contains(tx, 24)));
        assert!(ctx.run(|tx| sl.remove(tx, 42)));
        assert!(!ctx.run(|tx| sl.remove(tx, 42)));
        assert_eq!(sl.snapshot_keys(), vec![1, 7, 23, 55, 99]);
    }

    #[test]
    fn tall_towers_unlink_fully() {
        let stm = Stm::new();
        let sl = fresh(&stm);
        let ctx = stm.register_thread();
        // Find a key with a tall tower to exercise multi-level unlink.
        let tall = (0..10_000u64).max_by_key(|&k| level_for(k)).unwrap();
        assert!(level_for(tall) >= 8);
        for k in 0..200u64 {
            ctx.run(|tx| sl.insert(tx, k));
        }
        ctx.run(|tx| sl.insert(tx, tall + 20_000));
        assert!(ctx.run(|tx| sl.remove(tx, tall + 20_000)));
        // All levels of the head tower must no longer reach the removed key.
        let q = &mut Quiescent;
        for lvl in 0..MAX_LEVEL {
            let mut cur = sl.next_of(q, None, lvl).unwrap();
            while let Some(h) = cur {
                assert_ne!(q.read(&sl.arena.get(h).key), Ok(tall + 20_000));
                cur = sl.next_of(q, Some(h), lvl).unwrap();
            }
        }
    }

    #[test]
    fn short_key_in_a_tall_nodes_slot_is_linked_only_at_its_levels() {
        let stm = Stm::new();
        let sl = fresh(&stm);
        let ctx = stm.register_thread();
        let tall = (10_000..20_000u64).max_by_key(|&k| level_for(k)).unwrap();
        let short = (20_000..30_000u64).find(|&k| level_for(k) == 1).unwrap();
        assert!(level_for(tall) >= 8);
        let mut model: Vec<u64> = (0..300u64).collect();
        for &k in &model {
            ctx.run(|tx| sl.insert(tx, k));
        }
        let q = &mut Quiescent;
        let slot_of = |key: u64| {
            let mut cur = sl.next_of(&mut Quiescent, None, 0).unwrap();
            while let Some(h) = cur {
                if Quiescent.read(&sl.arena.get(h).key) == Ok(key) {
                    return h;
                }
                cur = sl.next_of(&mut Quiescent, Some(h), 0).unwrap();
            }
            panic!("{key} is not linked at level 0");
        };
        assert!(ctx.run(|tx| sl.insert(tx, tall)));
        let freed = slot_of(tall);
        assert!(ctx.run(|tx| sl.remove(tx, tall)));
        assert!(ctx.run(|tx| sl.insert(tx, short)));
        assert_eq!(slot_of(short), freed, "the short key reuses the slot");
        model.push(short);
        for lvl in 0..MAX_LEVEL {
            let want: Vec<u64> = model
                .iter()
                .copied()
                .filter(|&k| level_for(k) > lvl)
                .collect();
            let mut got = Vec::new();
            let mut cur = sl.next_of(q, None, lvl).unwrap();
            while let Some(h) = cur {
                got.push(q.read(&sl.arena.get(h).key).unwrap());
                cur = sl.next_of(q, Some(h), lvl).unwrap();
            }
            assert_eq!(got, want, "level {lvl}");
        }
        for k in (0..400u64).chain([tall, short]) {
            let want = model.contains(&k);
            assert_eq!(ctx.run(|tx| sl.contains(tx, k)), want, "{k}");
        }
    }

    #[test]
    fn sequential_model_conformance() {
        let stm = Stm::new();
        let sl = fresh(&stm);
        testing::check_sequential_model(&stm, &sl);
    }

    #[test]
    fn bulk_insert_matches_transactional() {
        let stm = Stm::new();
        let sl = fresh(&stm);
        testing::check_bulk_matches_transactional(&stm, &sl);
    }

    #[test]
    fn concurrent_disjoint_ranges() {
        let stm = Stm::new();
        let sl = fresh(&stm);
        testing::check_concurrent_disjoint(&stm, &sl);
    }

    #[test]
    fn concurrent_contended_invariants() {
        let stm = Stm::new();
        let sl = fresh(&stm);
        testing::check_concurrent_contended(&stm, &sl);
    }

    #[test]
    fn concurrent_contended_commit_time_locking() {
        let stm = Stm::new();
        let sl = TSkipList::new(
            stm.new_partition(PartitionConfig::named("ctl").acquire(AcquireMode::Commit)),
        );
        testing::check_concurrent_contended(&stm, &sl);
    }
}
