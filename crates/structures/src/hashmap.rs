//! Transactional chained hash map (`u64 -> u64`) and set.
//!
//! Fixed power-of-two bucket array with per-bucket chains: short
//! transactions touching one bucket — the low-conflict, small-read-set
//! microbenchmark (and the dedup structure genome needs). The bucket count
//! is fixed at construction (no rehashing), matching the benchmark usage in
//! the paper's era; size accordingly.

use std::sync::Arc;

use partstm_core::{
    Access, Arena, ArenaView, Handle, Migratable, MigratableCollection, PVar, PVarFields,
    Partition, PrivateGuard, Quiescent, Read, Tx, TxResult,
};

use crate::intset::IntSet;

/// Chain node, bound to the map's partition at allocation.
pub struct Node {
    key: PVar<u64>,
    val: PVar<u64>,
    next: PVar<Option<Handle<Node>>>,
}

impl PVarFields for Node {
    fn for_each_pvar(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        f(&self.key);
        f(&self.val);
        f(&self.next);
    }
}

/// Transactional hash map over a partition.
pub struct THashMap {
    part: Arc<Partition>,
    arena: Arena<Node>,
    buckets: Box<[PVar<Option<Handle<Node>>>]>,
    mask: u64,
}

fn mix(key: u64) -> u64 {
    let mut k = key.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    k ^= k >> 33;
    k = k.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    k ^ (k >> 33)
}

impl THashMap {
    /// Map with `buckets` chains (rounded up to a power of two).
    pub fn new(part: Arc<Partition>, buckets: usize) -> Self {
        let n = buckets.next_power_of_two().max(1);
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || part.tvar(None));
        THashMap {
            arena: Arena::new_bound(&part, |p| Node {
                key: p.tvar(0),
                val: p.tvar(0),
                next: p.tvar(None),
            }),
            buckets: v.into_boxed_slice(),
            mask: (n - 1) as u64,
            part,
        }
    }

    /// The node arena backing this map: live-slot enumeration and
    /// slot-subset migration
    /// ([`Arena::slots_of`](partstm_core::Arena::slots_of)) for callers
    /// that move parts of the map rather than the whole structure.
    pub fn arena(&self) -> &Arena<Node> {
        &self.arena
    }

    #[inline]
    fn bucket(&self, key: u64) -> &PVar<Option<Handle<Node>>> {
        &self.buckets[(mix(key) & self.mask) as usize]
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Looks up `key`, through any [`Read`].
    pub fn get<'e, R: Read<'e>>(&'e self, r: &mut R, key: u64) -> TxResult<Option<u64>> {
        let mut cur = r.read(self.bucket(key))?;
        while let Some(h) = cur {
            let node = self.arena.get(h);
            if r.read(&node.key)? == key {
                return Ok(Some(r.read(&node.val)?));
            }
            cur = r.read(&node.next)?;
        }
        Ok(None)
    }

    /// Inserts or updates; returns the previous value if present.
    pub fn put<'e, A: Access<'e>>(
        &'e self,
        a: &mut A,
        key: u64,
        val: u64,
    ) -> TxResult<Option<u64>> {
        let bucket = self.bucket(key);
        let head = a.read(bucket)?;
        let mut cur = head;
        while let Some(h) = cur {
            let node = self.arena.get(h);
            if a.read(&node.key)? == key {
                let old = a.read(&node.val)?;
                a.write(&node.val, val)?;
                return Ok(Some(old));
            }
            cur = a.read(&node.next)?;
        }
        let new = a.alloc(&self.arena)?;
        let node = self.arena.get(new);
        a.write(&node.key, key)?;
        a.write(&node.val, val)?;
        a.write(&node.next, head)?;
        a.write(bucket, Some(new))?;
        Ok(None)
    }

    /// Inserts only if absent; returns `true` if inserted. (The one-shot
    /// "claim" operation genome's dedup phase uses.)
    pub fn put_if_absent<'e, A: Access<'e>>(
        &'e self,
        a: &mut A,
        key: u64,
        val: u64,
    ) -> TxResult<bool> {
        if self.get(a, key)?.is_some() {
            return Ok(false);
        }
        let bucket = self.bucket(key);
        let head = a.read(bucket)?;
        let new = a.alloc(&self.arena)?;
        let node = self.arena.get(new);
        a.write(&node.key, key)?;
        a.write(&node.val, val)?;
        a.write(&node.next, head)?;
        a.write(bucket, Some(new))?;
        Ok(true)
    }

    /// Removes `key`; returns its value if present.
    pub fn delete<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<Option<u64>> {
        let bucket = self.bucket(key);
        let mut prev: Option<Handle<Node>> = None;
        let mut cur = tx.read(bucket)?;
        while let Some(h) = cur {
            let node = self.arena.get(h);
            if tx.read(&node.key)? == key {
                let val = tx.read(&node.val)?;
                let next = tx.read(&node.next)?;
                match prev {
                    Some(p) => tx.write(&self.arena.get(p).next, next)?,
                    None => tx.write(bucket, next)?,
                }
                self.arena.free(tx, h);
                return Ok(Some(val));
            }
            prev = Some(h);
            cur = tx.read(&node.next)?;
        }
        Ok(None)
    }

    /// Calls `f` on every `(key, value)` pair in bucket-chain order, through
    /// any [`Read`]. Under a guard's [`access`](PrivateGuard::access), a map
    /// torn across partitions panics at its first foreign slot.
    pub fn for_each<'e, R: Read<'e>>(
        &'e self,
        r: &mut R,
        mut f: impl FnMut(u64, u64),
    ) -> TxResult<()> {
        for b in self.buckets.iter() {
            let mut cur = r.read(b)?;
            while let Some(h) = cur {
                let n = self.arena.get(h);
                f(r.read(&n.key)?, r.read(&n.val)?);
                cur = r.read(&n.next)?;
            }
        }
        Ok(())
    }

    /// Non-transactional `(key, value)` snapshot, sorted by key
    /// (quiescent only).
    pub fn snapshot_pairs(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        Quiescent::run(|q| self.for_each(q, |k, v| out.push((k, v))));
        out.sort_unstable();
        out
    }

    /// The partition guarding this map.
    pub fn partition(&self) -> &Arc<Partition> {
        &self.part
    }
}

impl MigratableCollection for THashMap {
    fn node_arena(&self) -> Option<&dyn ArenaView> {
        Some(&self.arena)
    }

    fn for_each_root(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        self.buckets.iter().for_each(|b| f(b));
    }
}

/// Transactional hash set: a [`THashMap`] with unit values.
pub struct THashSet {
    map: THashMap,
}

impl THashSet {
    /// Set with `buckets` chains.
    pub fn new(part: Arc<Partition>, buckets: usize) -> Self {
        THashSet {
            map: THashMap::new(part, buckets),
        }
    }
}

impl MigratableCollection for THashSet {
    fn node_arena(&self) -> Option<&dyn ArenaView> {
        self.map.node_arena()
    }

    fn for_each_root(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        self.map.for_each_root(f);
    }
}

impl IntSet for THashSet {
    fn contains<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<bool> {
        Ok(self.map.get(tx, key)?.is_some())
    }

    fn insert<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<bool> {
        self.map.put_if_absent(tx, key, 1)
    }

    fn bulk_insert(&self, guard: &PrivateGuard, key: u64) -> bool {
        self.map
            .put_if_absent(&mut guard.access(), key, 1)
            .expect("guard access never aborts")
    }

    fn remove<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<bool> {
        Ok(self.map.delete(tx, key)?.is_some())
    }

    fn partition(&self) -> &Arc<Partition> {
        self.map.partition()
    }

    fn snapshot_keys(&self) -> Vec<u64> {
        self.map
            .snapshot_pairs()
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intset::testing;
    use partstm_core::{PartitionConfig, Stm};

    impl testing::ReadContains for THashSet {
        fn contains_via<'e, R: Read<'e>>(&'e self, r: &mut R, key: u64) -> TxResult<bool> {
            Ok(self.map.get(r, key)?.is_some())
        }
    }

    #[test]
    fn map_put_get_delete() {
        let stm = Stm::new();
        let m = THashMap::new(stm.new_partition(PartitionConfig::named("map")), 16);
        let ctx = stm.register_thread();
        assert_eq!(ctx.run(|tx| m.put(tx, 1, 10)), None);
        assert_eq!(ctx.run(|tx| m.put(tx, 1, 20)), Some(10));
        assert_eq!(ctx.run(|tx| m.get(tx, 1)), Some(20));
        assert!(ctx.run(|tx| m.put_if_absent(tx, 2, 5)));
        assert!(!ctx.run(|tx| m.put_if_absent(tx, 2, 6)));
        assert_eq!(ctx.run(|tx| m.delete(tx, 1)), Some(20));
        assert_eq!(ctx.run(|tx| m.delete(tx, 1)), None);
        assert_eq!(m.snapshot_pairs(), vec![(2, 5)]);
    }

    #[test]
    fn chains_handle_collisions() {
        let stm = Stm::new();
        // Single bucket: everything collides.
        let m = THashMap::new(stm.new_partition(PartitionConfig::named("one")), 1);
        assert_eq!(m.bucket_count(), 1);
        let ctx = stm.register_thread();
        for k in 0..32u64 {
            assert_eq!(ctx.run(|tx| m.put(tx, k, k * 3)), None);
        }
        for k in 0..32u64 {
            assert_eq!(ctx.run(|tx| m.get(tx, k)), Some(k * 3));
        }
        // Delete middle-of-chain entries.
        for k in (0..32u64).step_by(3) {
            assert_eq!(ctx.run(|tx| m.delete(tx, k)), Some(k * 3));
        }
        let remaining = m.snapshot_pairs().len();
        assert_eq!(remaining, 32 - 11);
    }

    #[test]
    fn set_sequential_model() {
        let stm = Stm::new();
        let s = THashSet::new(stm.new_partition(PartitionConfig::named("set")), 64);
        testing::check_sequential_model(&stm, &s);
    }

    #[test]
    fn set_concurrent_disjoint() {
        let stm = Stm::new();
        let s = THashSet::new(stm.new_partition(PartitionConfig::named("set")), 64);
        testing::check_concurrent_disjoint(&stm, &s);
    }

    #[test]
    fn set_concurrent_contended() {
        let stm = Stm::new();
        let s = THashSet::new(stm.new_partition(PartitionConfig::named("set")), 4);
        testing::check_concurrent_contended(&stm, &s);
    }

    #[test]
    fn set_bulk_insert_matches_transactional() {
        let stm = Stm::new();
        let s = THashSet::new(stm.new_partition(PartitionConfig::named("set")), 16);
        testing::check_bulk_matches_transactional(&stm, &s);
    }

    #[test]
    fn map_ops_match_a_model_through_both_access_impls() {
        let stm = Stm::new();
        let tx_side = THashMap::new(stm.new_partition(PartitionConfig::named("tx")), 8);
        let held = THashMap::new(stm.new_partition(PartitionConfig::named("held")), 8);
        let ctx = stm.register_thread();
        let mut model = std::collections::BTreeMap::new();
        {
            let guard = stm.privatize(held.partition()).expect("privatize");
            let mut state = 0xfeed_face_cafe_beefu64;
            for i in 0..500u64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let key = state % 96;
                assert_eq!(
                    testing::via_both!(ctx, &tx_side, guard, &held, |m, a| m.put(a, key, i)),
                    model.insert(key, i),
                    "put({key})"
                );
                let probe = (state >> 32) % 128;
                assert_eq!(
                    testing::via_both!(ctx, &tx_side, guard, &held, |m, a| m.get(a, probe)),
                    model.get(&probe).copied(),
                    "get({probe})"
                );
            }
            let mut seen = Vec::new();
            held.for_each(&mut guard.access(), |k, v| seen.push((k, v)))
                .expect("guard access never aborts");
            seen.sort_unstable();
            assert_eq!(
                seen,
                model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
            );
        }
        // Guard dropped → republished; transactional service resumes.
        assert_eq!(ctx.run(|tx| held.get(tx, 7)), model.get(&7).copied());
        assert_eq!(ctx.run(|tx| held.put(tx, 200, 1)), None);
        model.insert(200, 1);
        let pairs: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(held.snapshot_pairs(), pairs);
        assert_eq!(ctx.run(|tx| tx_side.put(tx, 200, 1)), None);
        assert_eq!(tx_side.snapshot_pairs(), pairs);
    }
}
