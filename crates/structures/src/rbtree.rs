//! Transactional red-black tree (map `u64 -> u64`).
//!
//! A port of the STAMP-style red-black tree to the partitioned STM: CLRS
//! insertion/deletion with parent pointers, `None` playing the role of the
//! nil sentinel. Because `None` carries no parent pointer, the delete fixup
//! threads the fixup node's parent (`xp`) explicitly instead of writing a
//! shared sentinel (which would be a contention hotspot and a correctness
//! hazard under concurrency).
//!
//! Rebalancing makes update transactions write bursts of nodes near the
//! root — the workload where conflict-detection granularity and read
//! visibility interact most visibly (paper §1's red-black tree example).

use std::sync::Arc;

use partstm_core::{
    Access, Arena, ArenaView, Handle, Migratable, MigratableCollection, PVar, PVarFields,
    Partition, PrivateGuard, Quiescent, Read, Tx, TxResult,
};

use crate::intset::IntSet;

type H = Option<Handle<Node>>;

/// Tree node. All fields transactional, bound to the tree's partition at
/// allocation.
pub struct Node {
    key: PVar<u64>,
    val: PVar<u64>,
    left: PVar<H>,
    right: PVar<H>,
    parent: PVar<H>,
    red: PVar<bool>,
}

impl PVarFields for Node {
    fn for_each_pvar(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        f(&self.key);
        f(&self.val);
        f(&self.left);
        f(&self.right);
        f(&self.parent);
        f(&self.red);
    }
}

/// Transactional red-black tree over a partition.
pub struct TRbTree {
    part: Arc<Partition>,
    arena: Arena<Node>,
    root: PVar<H>,
}

macro_rules! field {
    ($get:ident, $set:ident, $field:ident, $t:ty) => {
        fn $get<'e, R: Read<'e>>(&'e self, r: &mut R, h: Handle<Node>) -> TxResult<$t> {
            r.read(&self.arena.get(h).$field)
        }
        fn $set<'e, A: Access<'e>>(&'e self, a: &mut A, h: Handle<Node>, v: $t) -> TxResult<()> {
            a.write(&self.arena.get(h).$field, v)
        }
    };
}

fn node_make(part: &Arc<Partition>) -> Node {
    Node {
        key: part.tvar(0),
        val: part.tvar(0),
        left: part.tvar(None),
        right: part.tvar(None),
        parent: part.tvar(None),
        red: part.tvar(false),
    }
}

impl TRbTree {
    /// Empty tree guarded by `part`.
    pub fn new(part: Arc<Partition>) -> Self {
        TRbTree {
            arena: Arena::new_bound(&part, node_make),
            root: part.tvar(None),
            part,
        }
    }

    /// Empty tree with pre-allocated node capacity.
    pub fn with_capacity(part: Arc<Partition>, cap: usize) -> Self {
        TRbTree {
            arena: Arena::with_capacity_bound(&part, cap, node_make),
            root: part.tvar(None),
            part,
        }
    }

    field!(left, set_left, left, H);
    field!(right, set_right, right, H);
    field!(parent, set_parent, parent, H);
    field!(key_of, set_key, key, u64);
    field!(val_of, set_val, val, u64);

    fn is_red<'e, R: Read<'e>>(&'e self, r: &mut R, h: H) -> TxResult<bool> {
        match h {
            Some(n) => r.read(&self.arena.get(n).red),
            None => Ok(false), // nil is black
        }
    }

    fn set_red<'e, A: Access<'e>>(&'e self, a: &mut A, h: Handle<Node>, red: bool) -> TxResult<()> {
        a.write(&self.arena.get(h).red, red)
    }

    fn root_of<'e, R: Read<'e>>(&'e self, r: &mut R) -> TxResult<H> {
        r.read(&self.root)
    }

    /// Replaces `old`'s slot in its parent (or the root) with `new`.
    fn replace_child<'e, A: Access<'e>>(
        &'e self,
        a: &mut A,
        parent: H,
        old: Handle<Node>,
        new: H,
    ) -> TxResult<()> {
        match parent {
            None => a.write(&self.root, new),
            Some(p) => {
                if self.left(a, p)? == Some(old) {
                    self.set_left(a, p, new)
                } else {
                    self.set_right(a, p, new)
                }
            }
        }
    }

    fn rotate_left<'e, A: Access<'e>>(&'e self, a: &mut A, x: Handle<Node>) -> TxResult<()> {
        let y = self.right(a, x)?.expect("rotate_left without right child");
        let yl = self.left(a, y)?;
        self.set_right(a, x, yl)?;
        if let Some(n) = yl {
            self.set_parent(a, n, Some(x))?;
        }
        let xp = self.parent(a, x)?;
        self.set_parent(a, y, xp)?;
        self.replace_child(a, xp, x, Some(y))?;
        self.set_left(a, y, Some(x))?;
        self.set_parent(a, x, Some(y))?;
        Ok(())
    }

    fn rotate_right<'e, A: Access<'e>>(&'e self, a: &mut A, x: Handle<Node>) -> TxResult<()> {
        let y = self.left(a, x)?.expect("rotate_right without left child");
        let yr = self.right(a, y)?;
        self.set_left(a, x, yr)?;
        if let Some(n) = yr {
            self.set_parent(a, n, Some(x))?;
        }
        let xp = self.parent(a, x)?;
        self.set_parent(a, y, xp)?;
        self.replace_child(a, xp, x, Some(y))?;
        self.set_right(a, y, Some(x))?;
        self.set_parent(a, x, Some(y))?;
        Ok(())
    }

    /// Looks up `key`, through any [`Read`].
    pub fn get<'e, R: Read<'e>>(&'e self, r: &mut R, key: u64) -> TxResult<Option<u64>> {
        let mut cur = self.root_of(r)?;
        while let Some(h) = cur {
            let k = self.key_of(r, h)?;
            cur = match key.cmp(&k) {
                core::cmp::Ordering::Less => self.left(r, h)?,
                core::cmp::Ordering::Greater => self.right(r, h)?,
                core::cmp::Ordering::Equal => return Ok(Some(self.val_of(r, h)?)),
            };
        }
        Ok(None)
    }

    /// Inserts or updates; returns the previous value if the key existed.
    pub fn put<'e, A: Access<'e>>(
        &'e self,
        a: &mut A,
        key: u64,
        val: u64,
    ) -> TxResult<Option<u64>> {
        let mut parent: H = None;
        let mut cur = self.root_of(a)?;
        let mut went_left = false;
        while let Some(h) = cur {
            let k = self.key_of(a, h)?;
            match key.cmp(&k) {
                core::cmp::Ordering::Less => {
                    parent = Some(h);
                    went_left = true;
                    cur = self.left(a, h)?;
                }
                core::cmp::Ordering::Greater => {
                    parent = Some(h);
                    went_left = false;
                    cur = self.right(a, h)?;
                }
                core::cmp::Ordering::Equal => {
                    let old = self.val_of(a, h)?;
                    self.set_val(a, h, val)?;
                    return Ok(Some(old));
                }
            }
        }
        let z = a.alloc(&self.arena)?;
        {
            let node = self.arena.get(z);
            a.write(&node.key, key)?;
            a.write(&node.val, val)?;
            a.write(&node.left, None)?;
            a.write(&node.right, None)?;
            a.write(&node.parent, parent)?;
            a.write(&node.red, true)?;
        }
        match parent {
            None => a.write(&self.root, Some(z))?,
            Some(p) => {
                if went_left {
                    self.set_left(a, p, Some(z))?;
                } else {
                    self.set_right(a, p, Some(z))?;
                }
            }
        }
        self.insert_fixup(a, z)?;
        Ok(None)
    }

    fn insert_fixup<'e, A: Access<'e>>(&'e self, a: &mut A, mut z: Handle<Node>) -> TxResult<()> {
        loop {
            let p = match self.parent(a, z)? {
                Some(p) if self.is_red(a, Some(p))? => p,
                _ => break,
            };
            // A red parent cannot be the root, so the grandparent exists.
            let g = self.parent(a, p)?.expect("red parent must have a parent");
            if Some(p) == self.left(a, g)? {
                let u = self.right(a, g)?;
                if self.is_red(a, u)? {
                    self.set_red(a, p, false)?;
                    self.set_red(a, u.unwrap(), false)?;
                    self.set_red(a, g, true)?;
                    z = g;
                } else {
                    if Some(z) == self.right(a, p)? {
                        z = p;
                        self.rotate_left(a, z)?;
                    }
                    let p2 = self.parent(a, z)?.expect("fixup parent");
                    let g2 = self.parent(a, p2)?.expect("fixup grandparent");
                    self.set_red(a, p2, false)?;
                    self.set_red(a, g2, true)?;
                    self.rotate_right(a, g2)?;
                }
            } else {
                let u = self.left(a, g)?;
                if self.is_red(a, u)? {
                    self.set_red(a, p, false)?;
                    self.set_red(a, u.unwrap(), false)?;
                    self.set_red(a, g, true)?;
                    z = g;
                } else {
                    if Some(z) == self.left(a, p)? {
                        z = p;
                        self.rotate_right(a, z)?;
                    }
                    let p2 = self.parent(a, z)?.expect("fixup parent");
                    let g2 = self.parent(a, p2)?.expect("fixup grandparent");
                    self.set_red(a, p2, false)?;
                    self.set_red(a, g2, true)?;
                    self.rotate_left(a, g2)?;
                }
            }
        }
        // Blacken a red root only: a write would acquire the root's orec,
        // on which every concurrent insert would then conflict.
        if let Some(r) = self.root_of(a)? {
            if self.is_red(a, Some(r))? {
                self.set_red(a, r, false)?;
            }
        }
        Ok(())
    }

    /// Removes `key`; returns its value if present.
    pub fn delete<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<Option<u64>> {
        // Find z.
        let mut cur = self.root_of(tx)?;
        let z = loop {
            let Some(h) = cur else { return Ok(None) };
            let k = self.key_of(tx, h)?;
            match key.cmp(&k) {
                core::cmp::Ordering::Less => cur = self.left(tx, h)?,
                core::cmp::Ordering::Greater => cur = self.right(tx, h)?,
                core::cmp::Ordering::Equal => break h,
            }
        };
        let old_val = self.val_of(tx, z)?;

        // y: the node physically removed (z, or its in-order successor).
        let y = if self.left(tx, z)?.is_none() || self.right(tx, z)?.is_none() {
            z
        } else {
            let mut m = self.right(tx, z)?.expect("checked non-none");
            while let Some(l) = self.left(tx, m)? {
                m = l;
            }
            m
        };
        let x = match self.left(tx, y)? {
            some @ Some(_) => some,
            None => self.right(tx, y)?,
        };
        let xp = self.parent(tx, y)?;
        if let Some(xn) = x {
            self.set_parent(tx, xn, xp)?;
        }
        self.replace_child(tx, xp, y, x)?;
        let y_was_red = self.is_red(tx, Some(y))?;
        if y != z {
            // Relocate y's payload into z (CLRS data transplant).
            let yk = self.key_of(tx, y)?;
            let yv = self.val_of(tx, y)?;
            self.set_key(tx, z, yk)?;
            self.set_val(tx, z, yv)?;
        }
        if !y_was_red {
            self.delete_fixup(tx, x, xp)?;
        }
        self.arena.free(tx, y);
        Ok(Some(old_val))
    }

    /// CLRS RB-DELETE-FIXUP with `x` possibly nil; its parent is threaded
    /// explicitly as `xp`.
    fn delete_fixup<'e>(&'e self, tx: &mut Tx<'e, '_>, mut x: H, mut xp: H) -> TxResult<()> {
        loop {
            if x == self.root_of(tx)? || self.is_red(tx, x)? {
                break;
            }
            let p = match xp {
                Some(p) => p,
                None => break, // x is root
            };
            if x == self.left(tx, p)? {
                let mut w = self.right(tx, p)?.expect("sibling exists for doubly-black");
                if self.is_red(tx, Some(w))? {
                    self.set_red(tx, w, false)?;
                    self.set_red(tx, p, true)?;
                    self.rotate_left(tx, p)?;
                    w = self.right(tx, p)?.expect("sibling after rotation");
                }
                let wl = self.left(tx, w)?;
                let wr = self.right(tx, w)?;
                if !self.is_red(tx, wl)? && !self.is_red(tx, wr)? {
                    self.set_red(tx, w, true)?;
                    x = Some(p);
                    xp = self.parent(tx, p)?;
                } else {
                    if !self.is_red(tx, wr)? {
                        if let Some(wln) = wl {
                            self.set_red(tx, wln, false)?;
                        }
                        self.set_red(tx, w, true)?;
                        self.rotate_right(tx, w)?;
                        w = self.right(tx, p)?.expect("sibling after rotation");
                    }
                    let p_red = self.is_red(tx, Some(p))?;
                    self.set_red(tx, w, p_red)?;
                    self.set_red(tx, p, false)?;
                    if let Some(wrn) = self.right(tx, w)? {
                        self.set_red(tx, wrn, false)?;
                    }
                    self.rotate_left(tx, p)?;
                    break;
                }
            } else {
                let mut w = self.left(tx, p)?.expect("sibling exists for doubly-black");
                if self.is_red(tx, Some(w))? {
                    self.set_red(tx, w, false)?;
                    self.set_red(tx, p, true)?;
                    self.rotate_right(tx, p)?;
                    w = self.left(tx, p)?.expect("sibling after rotation");
                }
                let wl = self.left(tx, w)?;
                let wr = self.right(tx, w)?;
                if !self.is_red(tx, wl)? && !self.is_red(tx, wr)? {
                    self.set_red(tx, w, true)?;
                    x = Some(p);
                    xp = self.parent(tx, p)?;
                } else {
                    if !self.is_red(tx, wl)? {
                        if let Some(wrn) = wr {
                            self.set_red(tx, wrn, false)?;
                        }
                        self.set_red(tx, w, true)?;
                        self.rotate_left(tx, w)?;
                        w = self.left(tx, p)?.expect("sibling after rotation");
                    }
                    let p_red = self.is_red(tx, Some(p))?;
                    self.set_red(tx, w, p_red)?;
                    self.set_red(tx, p, false)?;
                    if let Some(wln) = self.left(tx, w)? {
                        self.set_red(tx, wln, false)?;
                    }
                    self.rotate_right(tx, p)?;
                    break;
                }
            }
        }
        // The loop also exits on a black root `x`, which needs no write.
        if let Some(xn) = x {
            if self.is_red(tx, x)? {
                self.set_red(tx, xn, false)?;
            }
        }
        Ok(())
    }

    /// Calls `f` on every `(key, value)` pair in key order, through any [`Read`].
    pub fn for_each<'e, R: Read<'e>>(
        &'e self,
        r: &mut R,
        mut f: impl FnMut(u64, u64),
    ) -> TxResult<()> {
        let mut stack = Vec::new();
        let mut cur = self.root_of(r)?;
        loop {
            while let Some(h) = cur {
                stack.push(h);
                cur = self.left(r, h)?;
            }
            let Some(h) = stack.pop() else { break };
            f(self.key_of(r, h)?, self.val_of(r, h)?);
            cur = self.right(r, h)?;
        }
        Ok(())
    }

    /// Non-transactional in-order `(key, value)` snapshot (quiescent only).
    pub fn snapshot_pairs(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        Quiescent::run(|q| self.for_each(q, |k, v| out.push((k, v))));
        out
    }

    /// Verifies all red-black invariants through any [`Read`]: BST order,
    /// parent-pointer consistency, no red-red edge, equal black heights,
    /// black root. Returns the black height, or the first violation.
    pub fn invariants<'e, R: Read<'e>>(&'e self, r: &mut R) -> TxResult<Result<usize, String>> {
        fn walk<'e, R: Read<'e>>(
            tree: &'e TRbTree,
            r: &mut R,
            h: H,
            parent: H,
            lo: Option<u64>,
            hi: Option<u64>,
        ) -> TxResult<Result<usize, String>> {
            let Some(n) = h else { return Ok(Ok(1)) }; // nil is black
            let k = tree.key_of(r, n)?;
            if lo.is_some_and(|lo| k <= lo) || hi.is_some_and(|hi| k >= hi) {
                return Ok(Err(format!("BST violation: {k} outside ({lo:?}, {hi:?})")));
            }
            if tree.parent(r, n)? != parent {
                return Ok(Err(format!("parent pointer of {k} inconsistent")));
            }
            let red = tree.is_red(r, h)?;
            let (left, right) = (tree.left(r, n)?, tree.right(r, n)?);
            if red && (tree.is_red(r, left)? || tree.is_red(r, right)?) {
                return Ok(Err(format!("red-red edge at {k}")));
            }
            let bl = walk(tree, r, left, h, lo, Some(k))?;
            Ok(match (bl, walk(tree, r, right, h, Some(k), hi)?) {
                (Ok(bl), Ok(br)) if bl == br => Ok(bl + usize::from(!red)),
                (Ok(bl), Ok(br)) => Err(format!("black height mismatch at {k}: {bl} vs {br}")),
                (Err(e), _) | (_, Err(e)) => Err(e),
            })
        }
        let root = self.root_of(r)?;
        if self.is_red(r, root)? {
            return Ok(Err("red root".into()));
        }
        walk(self, r, root, None, None, None)
    }

    /// [`TRbTree::invariants`] with plain loads (quiescent only).
    pub fn check_invariants(&self) -> Result<usize, String> {
        Quiescent::run(|q| self.invariants(q))
    }

    /// The partition guarding this tree.
    pub fn partition(&self) -> &Arc<Partition> {
        &self.part
    }
}

impl MigratableCollection for TRbTree {
    fn node_arena(&self) -> Option<&dyn ArenaView> {
        Some(&self.arena)
    }

    fn for_each_root(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        f(&self.root);
    }
}

impl IntSet for TRbTree {
    fn contains<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<bool> {
        Ok(self.get(tx, key)?.is_some())
    }

    fn insert<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<bool> {
        Ok(self.put(tx, key, key)?.is_none())
    }

    fn bulk_insert(&self, guard: &PrivateGuard, key: u64) -> bool {
        self.put(&mut guard.access(), key, key)
            .expect("guard access never aborts")
            .is_none()
    }

    fn remove<'e>(&'e self, tx: &mut Tx<'e, '_>, key: u64) -> TxResult<bool> {
        Ok(self.delete(tx, key)?.is_some())
    }

    fn partition(&self) -> &Arc<Partition> {
        &self.part
    }

    fn snapshot_keys(&self) -> Vec<u64> {
        self.snapshot_pairs().into_iter().map(|(k, _)| k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intset::testing;
    use partstm_core::{PartitionConfig, Stm};

    impl testing::ReadContains for TRbTree {
        fn contains_via<'e, R: Read<'e>>(&'e self, r: &mut R, key: u64) -> TxResult<bool> {
            Ok(self.get(r, key)?.is_some())
        }
    }

    fn fresh(stm: &Stm) -> TRbTree {
        TRbTree::new(stm.new_partition(PartitionConfig::named("rbtree")))
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let stm = Stm::new();
        let t = fresh(&stm);
        let ctx = stm.register_thread();
        assert_eq!(ctx.run(|tx| t.put(tx, 10, 100)), None);
        assert_eq!(ctx.run(|tx| t.put(tx, 10, 200)), Some(100));
        assert_eq!(ctx.run(|tx| t.get(tx, 10)), Some(200));
        assert_eq!(ctx.run(|tx| t.get(tx, 11)), None);
        assert_eq!(ctx.run(|tx| t.delete(tx, 10)), Some(200));
        assert_eq!(ctx.run(|tx| t.delete(tx, 10)), None);
        t.check_invariants().unwrap();
    }

    /// `0..n` ascending (`order` 0), descending (1) or shuffled (2).
    fn insert_order(order: usize, n: u64) -> Vec<u64> {
        match order {
            0 => (0..n).collect(),
            1 => (0..n).rev().collect(),
            _ => {
                let mut v: Vec<u64> = (0..n).collect();
                // Deterministic shuffle.
                let mut s = 0xdead_beefu64;
                for i in (1..v.len()).rev() {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    v.swap(i, (s % (i as u64 + 1)) as usize);
                }
                v
            }
        }
    }

    #[test]
    fn insert_below_a_black_root_writes_only_what_changes() {
        let stm = Stm::new();
        let t = fresh(&stm);
        let ctx = stm.register_thread();
        ctx.run(|tx| t.put(tx, 10, 1));
        let before = t.partition().stats().writes;
        ctx.run(|tx| t.put(tx, 20, 2));
        // Six fields of the new node and the root's `right`; the root stays
        // black, so its colour is not written (nor its orec acquired).
        assert_eq!(t.partition().stats().writes - before, 7);
        t.check_invariants().unwrap();
    }

    #[test]
    fn ascending_descending_and_random_inserts_stay_balanced() {
        for order in 0..3 {
            let stm = Stm::new();
            let t = fresh(&stm);
            let ctx = stm.register_thread();
            let n = 512u64;
            for k in insert_order(order, n) {
                ctx.run(|tx| t.put(tx, k, k * 2));
            }
            let bh = t.check_invariants().unwrap();
            // Black height of a balanced 512-node tree is small.
            assert!(bh <= 10, "black height {bh} too large (order {order})");
            let pairs = t.snapshot_pairs();
            assert_eq!(pairs.len(), n as usize);
            assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn put_get_match_a_model_through_both_access_impls() {
        for order in 0..3 {
            let stm = Stm::new();
            let tx_side = fresh(&stm);
            let held = fresh(&stm);
            let ctx = stm.register_thread();
            let guard = stm.privatize(held.partition()).expect("privatize");
            let mut model = std::collections::BTreeMap::new();
            for (i, k) in insert_order(order, 256).into_iter().enumerate() {
                // Every fourth step re-puts an existing key (update path).
                let k = if i % 4 == 3 { k / 2 } else { k };
                assert_eq!(
                    testing::via_both!(ctx, &tx_side, guard, &held, |t, a| t.put(a, k, i as u64)),
                    model.insert(k, i as u64),
                    "put({k}), order {order}"
                );
                held.check_invariants()
                    .unwrap_or_else(|e| panic!("guard-side put({k}), order {order}: {e}"));
                let probe = (k * 7) % 300;
                assert_eq!(
                    testing::via_both!(ctx, &tx_side, guard, &held, |t, a| t.get(a, probe)),
                    model.get(&probe).copied(),
                    "get({probe}), order {order}"
                );
            }
            guard.republish();
            tx_side.check_invariants().unwrap();
            let pairs: Vec<(u64, u64)> = model.into_iter().collect();
            assert_eq!(tx_side.snapshot_pairs(), pairs);
            assert_eq!(held.snapshot_pairs(), pairs);
            // Back in transactional service on the guard-built tree.
            let (k, v) = pairs[pairs.len() / 2];
            assert_eq!(ctx.run(|tx| held.delete(tx, k)), Some(v));
            held.check_invariants().unwrap();
        }
    }

    #[test]
    fn deletions_preserve_invariants_at_every_step() {
        let stm = Stm::new();
        let t = fresh(&stm);
        let ctx = stm.register_thread();
        let n = 128u64;
        for k in 0..n {
            ctx.run(|tx| t.put(tx, k, k));
        }
        // Delete in an adversarial order: every third, then the rest.
        let mut order: Vec<u64> = (0..n).step_by(3).collect();
        order.extend((0..n).filter(|k| k % 3 != 0));
        for (i, &k) in order.iter().enumerate() {
            assert_eq!(ctx.run(|tx| t.delete(tx, k)), Some(k), "step {i}");
            t.check_invariants()
                .unwrap_or_else(|e| panic!("after deleting {k} (step {i}): {e}"));
        }
        assert!(t.snapshot_pairs().is_empty());
        assert_eq!(t.live_nodes(), 0, "all nodes recycled");
    }

    #[test]
    fn mixed_workload_invariants() {
        let stm = Stm::new();
        let t = fresh(&stm);
        let ctx = stm.register_thread();
        let mut s = 42u64;
        let mut model = std::collections::BTreeMap::new();
        for i in 0..3000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let k = s % 200;
            if s & 1 == 0 {
                let expect = model.insert(k, i as u64);
                assert_eq!(ctx.run(|tx| t.put(tx, k, i as u64)), expect);
            } else {
                let expect = model.remove(&k);
                assert_eq!(ctx.run(|tx| t.delete(tx, k)), expect);
            }
            if i % 250 == 0 {
                t.check_invariants().unwrap();
            }
        }
        t.check_invariants().unwrap();
        let pairs: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(t.snapshot_pairs(), pairs);
    }

    #[test]
    fn sequential_model_conformance() {
        let stm = Stm::new();
        let t = fresh(&stm);
        testing::check_sequential_model(&stm, &t);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_insert_matches_transactional() {
        let stm = Stm::new();
        let t = fresh(&stm);
        testing::check_bulk_matches_transactional(&stm, &t);
        t.check_invariants().unwrap();
    }

    #[test]
    fn concurrent_disjoint_ranges() {
        let stm = Stm::new();
        let t = fresh(&stm);
        testing::check_concurrent_disjoint(&stm, &t);
        t.check_invariants().unwrap();
    }

    #[test]
    fn concurrent_contended_invariants() {
        let stm = Stm::new();
        let t = fresh(&stm);
        testing::check_concurrent_contended(&stm, &t);
        t.check_invariants().unwrap();
    }
}
