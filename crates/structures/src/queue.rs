//! Transactional FIFO queue (linked, two-ended).
//!
//! Needed by the intruder benchmark (packet and decoded-flow queues) and a
//! useful substrate on its own. Head and tail pointers are the natural
//! contention hotspots, which makes a queue partition the textbook
//! candidate for coarse conflict detection under load.

use std::sync::Arc;

use partstm_core::{
    Access, Arena, ArenaView, Handle, Migratable, MigratableCollection, PVar, PVarFields,
    Partition, Quiescent, Read, Tx, TxResult, TxWord,
};

/// Queue node: one value word plus the next link, bound to the queue's
/// partition at allocation.
pub struct Node {
    val: PVar<u64>,
    next: PVar<Option<Handle<Node>>>,
}

impl PVarFields for Node {
    fn for_each_pvar(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        f(&self.val);
        f(&self.next);
    }
}

/// Transactional FIFO queue of word-packable values.
pub struct TQueue<T: TxWord> {
    part: Arc<Partition>,
    arena: Arena<Node>,
    head: PVar<Option<Handle<Node>>>,
    tail: PVar<Option<Handle<Node>>>,
    len: PVar<u64>,
    _m: core::marker::PhantomData<T>,
}

fn node_make(part: &Arc<Partition>) -> Node {
    Node {
        val: part.tvar(0),
        next: part.tvar(None),
    }
}

impl<T: TxWord> TQueue<T> {
    /// Empty queue guarded by `part`.
    pub fn new(part: Arc<Partition>) -> Self {
        Self::with_capacity(part, 0)
    }

    /// Empty queue with pre-allocated node capacity.
    pub fn with_capacity(part: Arc<Partition>, cap: usize) -> Self {
        TQueue {
            arena: Arena::with_capacity_bound(&part, cap, node_make),
            head: part.tvar(None),
            tail: part.tvar(None),
            len: part.tvar(0),
            part,
            _m: core::marker::PhantomData,
        }
    }

    /// Appends a value at the tail.
    pub fn push_back<'e, A: Access<'e>>(&'e self, a: &mut A, value: T) -> TxResult<()> {
        let h = a.alloc(&self.arena)?;
        let n = self.arena.get(h);
        a.write(&n.val, value.to_word())?;
        a.write(&n.next, None)?;
        match a.read(&self.tail)? {
            Some(t) => a.write(&self.arena.get(t).next, Some(h))?,
            None => a.write(&self.head, Some(h))?,
        }
        a.write(&self.tail, Some(h))?;
        let l = a.read(&self.len)?;
        a.write(&self.len, l + 1)
    }

    /// Removes and returns the head value, or `None` if empty.
    pub fn pop_front<'e>(&'e self, tx: &mut Tx<'e, '_>) -> TxResult<Option<T>> {
        let Some(h) = tx.read(&self.head)? else {
            return Ok(None);
        };
        let n = self.arena.get(h);
        let val = tx.read(&n.val)?;
        let next = tx.read(&n.next)?;
        tx.write(&self.head, next)?;
        if next.is_none() {
            tx.write(&self.tail, None)?;
        }
        let l = tx.read(&self.len)?;
        tx.write(&self.len, l - 1)?;
        self.arena.free(tx, h);
        Ok(Some(T::from_word(val)))
    }

    /// Current length, through any [`Read`].
    pub fn len_tx<'e, R: Read<'e>>(&'e self, r: &mut R) -> TxResult<u64> {
        r.read(&self.len)
    }

    /// Whether the queue is empty, through any [`Read`].
    pub fn is_empty_tx<'e, R: Read<'e>>(&'e self, r: &mut R) -> TxResult<bool> {
        Ok(r.read(&self.head)?.is_none())
    }

    /// The partition guarding this queue.
    pub fn partition(&self) -> &Arc<Partition> {
        &self.part
    }

    /// Calls `f` on every value front to back, through any [`Read`].
    pub fn for_each<'e, R: Read<'e>>(&'e self, r: &mut R, mut f: impl FnMut(T)) -> TxResult<()> {
        let mut cur = r.read(&self.head)?;
        while let Some(h) = cur {
            let n = self.arena.get(h);
            f(T::from_word(r.read(&n.val)?));
            cur = r.read(&n.next)?;
        }
        Ok(())
    }

    /// Non-transactional front-to-back snapshot (quiescent only).
    pub fn snapshot(&self) -> Vec<T> {
        let mut out = Vec::new();
        Quiescent::run(|q| self.for_each(q, |v| out.push(v)));
        out
    }
}

impl<T: TxWord + Send + Sync> MigratableCollection for TQueue<T> {
    fn node_arena(&self) -> Option<&dyn ArenaView> {
        Some(&self.arena)
    }

    fn for_each_root(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        f(&self.head);
        f(&self.tail);
        f(&self.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intset::testing;
    use partstm_core::{PartitionConfig, Stm};

    fn fresh(stm: &Stm) -> TQueue<u64> {
        TQueue::new(stm.new_partition(PartitionConfig::named("q")))
    }

    #[test]
    fn fifo_order() {
        let stm = Stm::new();
        let q = fresh(&stm);
        let ctx = stm.register_thread();
        for i in 0..10u64 {
            ctx.run(|tx| q.push_back(tx, i));
        }
        assert_eq!(q.snapshot(), (0..10).collect::<Vec<_>>());
        for i in 0..10u64 {
            assert_eq!(ctx.run(|tx| q.pop_front(tx)), Some(i));
        }
        assert_eq!(ctx.run(|tx| q.pop_front(tx)), None);
        assert!(ctx.run(|tx| q.is_empty_tx(tx)));
    }

    #[test]
    fn interleaved_push_pop_keeps_len() {
        let stm = Stm::new();
        let q = fresh(&stm);
        let ctx = stm.register_thread();
        ctx.run(|tx| q.push_back(tx, 1));
        ctx.run(|tx| q.push_back(tx, 2));
        assert_eq!(ctx.run(|tx| q.pop_front(tx)), Some(1));
        ctx.run(|tx| q.push_back(tx, 3));
        assert_eq!(ctx.run(|tx| q.len_tx(tx)), 2);
        assert_eq!(ctx.run(|tx| q.pop_front(tx)), Some(2));
        assert_eq!(ctx.run(|tx| q.pop_front(tx)), Some(3));
        assert_eq!(ctx.run(|tx| q.len_tx(tx)), 0);
    }

    #[test]
    fn nodes_recycle() {
        let stm = Stm::new();
        let q = fresh(&stm);
        let ctx = stm.register_thread();
        for round in 0..100u64 {
            ctx.run(|tx| q.push_back(tx, round));
            ctx.run(|tx| q.pop_front(tx).map(|_| ()));
        }
        assert!(q.arena.live() <= 1, "live={}", q.arena.live());
    }

    #[test]
    fn push_back_through_both_access_impls_then_transactional_pop() {
        let stm = Stm::new();
        let tx_side = fresh(&stm);
        let held = fresh(&stm);
        let ctx = stm.register_thread();
        {
            let guard = stm.privatize(held.partition()).expect("privatize");
            for i in 0..50u64 {
                testing::via_both!(ctx, &tx_side, guard, &held, |q, a| q.push_back(a, i));
            }
        }
        for q in [&tx_side, &held] {
            assert_eq!(q.snapshot(), (0..50).collect::<Vec<_>>());
            assert_eq!(ctx.run(|tx| q.len_tx(tx)), 50);
            assert_eq!(ctx.snapshot_read(|r| q.len_tx(r)), 50);
            for i in 0..50u64 {
                assert_eq!(ctx.run(|tx| q.pop_front(tx)), Some(i));
            }
            assert_eq!(ctx.run(|tx| q.pop_front(tx)), None);
        }
    }

    #[test]
    fn concurrent_producers_consumers_conserve_items() {
        use core::sync::atomic::{AtomicU64, Ordering};
        let stm = Stm::new();
        let q = fresh(&stm);
        let produced = AtomicU64::new(0);
        let consumed = AtomicU64::new(0);
        let sum_in = AtomicU64::new(0);
        let sum_out = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let ctx = stm.register_thread();
                let (q, produced, sum_in) = (&q, &produced, &sum_in);
                s.spawn(move || {
                    for i in 0..2000u64 {
                        let v = t * 10_000 + i;
                        ctx.run(|tx| q.push_back(tx, v));
                        produced.fetch_add(1, Ordering::Relaxed);
                        sum_in.fetch_add(v, Ordering::Relaxed);
                    }
                });
            }
            for _ in 0..3 {
                let ctx = stm.register_thread();
                let (q, produced, consumed, sum_out) = (&q, &produced, &consumed, &sum_out);
                s.spawn(move || loop {
                    match ctx.run(|tx| q.pop_front(tx)) {
                        Some(v) => {
                            consumed.fetch_add(1, Ordering::Relaxed);
                            sum_out.fetch_add(v, Ordering::Relaxed);
                        }
                        None => {
                            if produced.load(Ordering::Relaxed) == 6000
                                && consumed.load(Ordering::Relaxed) == 6000
                            {
                                break;
                            }
                            std::thread::yield_now();
                            if consumed.load(Ordering::Relaxed) == produced.load(Ordering::Relaxed)
                                && produced.load(Ordering::Relaxed) == 6000
                            {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(produced.load(Ordering::Relaxed), 6000);
        assert_eq!(consumed.load(Ordering::Relaxed), 6000);
        assert_eq!(
            sum_in.load(Ordering::Relaxed),
            sum_out.load(Ordering::Relaxed),
            "every pushed value popped exactly once"
        );
        assert!(q.snapshot().is_empty());
    }
}
