//! Partition-bound transactional variables, and the one way to touch them.
//!
//! A [`PVar<T>`] is one transactional 64-bit word (see [`crate::word`])
//! that carries its owning partition: the association the paper's compiler
//! pass (Tanger + the data-structure analysis) computes per access site is
//! instead established *once, at allocation*, by
//! [`Partition::tvar`](crate::Partition::tvar). Access sites then name
//! only the variable — `tx.read(&var)` — and the engine routes the access
//! through the partition the variable is bound to, which makes
//! mis-partitioned accesses unrepresentable (see the soundness contract in
//! the crate docs). The backing store is an `AtomicU64`, so
//! non-transactional code can never observe a torn value; consistency of
//! *groups* of words is what the STM protocol provides.
//!
//! There is one access tier. Code that reads and writes `PVar`s is written
//! once over [`Access`], implemented by an in-flight transaction
//! ([`Tx`](crate::Tx)) and by the exclusive holder of a privatized
//! partition ([`PrivateGuard::access`](crate::PrivateGuard::access)); code
//! that only reads is written once over its read half, [`Read`], which
//! [`ReadTx`](crate::ReadTx) and [`Quiescent`] implement too.
//!
//! ## Rebinding (runtime repartitioning)
//!
//! The binding is *stable but not immutable*: the runtime repartitioner
//! ([`crate::Stm::migrate`]) may move a variable to a different partition
//! — but only inside the quiesce window of the repartition protocol, while
//! every involved partition carries the switching flag and no transaction
//! is in flight on any of them. Outside that protocol the binding never
//! changes, which is what lets the engine cache one partition view per
//! attempt (see the `txn` module docs). The binding cell itself is a
//! [`PVarBinding`]: an atomic pointer that owns one reference to its
//! partition. A racing reader can at worst observe the *previous* binding
//! — a case the engine detects and converts into an ordinary switching
//! abort.
//!
//! ## What keeps a loaded pointer alive
//!
//! A partition lives while something owns it: a binding, a user handle,
//! the repartition that just unbound it. A pointer loaded from a binding
//! owns nothing, so [`crate::Stm::migrate`] keeps what a rebind hands back
//! until two covers have passed:
//!
//! * **the drain**, for readers inside an attempt (the engine's partition
//!   views): the repartition's grace period waits out every attempt that
//!   could have loaded the old pointer (`quiesce::drain`);
//! * **the pin**, for every other reader ([`PVarBinding::partition_id`],
//!   [`PVar::partition`], the arena's home readers, the repartition's own
//!   enumeration): a stateless process-wide `RwLock<()>`, read-held across
//!   the load and the dereference or count increment. The repartition
//!   takes its write side once, after the grace period.

use core::marker::PhantomData;
use core::mem::ManuallyDrop;
use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use crate::arena::{Arena, Handle};
use crate::error::TxResult;
use crate::partition::{Partition, PartitionId};
use crate::word::TxWord;

/// The reader pin of the module docs. Holds no data: only its lock state
/// orders binding readers outside an attempt against the repartition that
/// drops what it unbound.
static PIN: RwLock<()> = RwLock::new(());

/// The pin's write side: returns once every reader that loaded a binding
/// before the call has let go of the pointer.
pub(crate) fn wait_for_pinned_readers() {
    drop(PIN.write().unwrap_or_else(PoisonError::into_inner));
}

/// The atomic partition binding inside every [`PVar`].
///
/// Opaque on purpose: user code can *inspect* the binding (its partition
/// id) but only the repartition protocol in this crate can change it.
pub struct PVarBinding {
    /// Owns one strong reference to the bound partition
    /// (`Arc::into_raw`); swapped only under the repartition quiesce.
    ptr: AtomicPtr<Partition>,
}

impl PVarBinding {
    pub(crate) fn new(part: Arc<Partition>) -> Self {
        PVarBinding {
            ptr: AtomicPtr::new(Arc::into_raw(part) as *mut Partition),
        }
    }

    /// Current binding as a raw pointer (SeqCst: the engine's soundness
    /// argument orders this load against switching-flag loads).
    #[inline(always)]
    pub(crate) fn load(&self) -> *const Partition {
        self.ptr.load(Ordering::SeqCst)
    }

    /// Current binding as a reference, for callers inside an attempt
    /// (covered by the drain, module docs). This is what lets the engine's
    /// partition views borrow instead of counting a reference.
    #[inline(always)]
    pub(crate) fn load_ref(&self) -> &Partition {
        // SAFETY: the caller is inside an attempt, and a repartition that
        // unbinds this pointer waits the attempt out before it drops its
        // reference (the drain).
        unsafe { &*self.load() }
    }

    /// Clones out the bound partition under the reader pin: the one way
    /// to reach a binding's partition outside an attempt.
    pub(crate) fn partition_arc(&self) -> Arc<Partition> {
        let _pin = PIN.read().unwrap_or_else(PoisonError::into_inner);
        Self::arc_of(self.load())
    }

    /// Manufactures an owning handle for a partition loaded from a
    /// binding, inside an attempt or under the pin.
    pub(crate) fn arc_of(p: *const Partition) -> Arc<Partition> {
        // SAFETY: every binding pointer came from `Arc::into_raw`, and the
        // caller's cover (the drain or the pin) keeps its strong count >= 1
        // until we are done; `ManuallyDrop` leaves that count as found.
        let borrowed = ManuallyDrop::new(unsafe { Arc::from_raw(p) });
        Arc::clone(&borrowed)
    }

    /// Id of the bound partition. Racy by nature during a repartition (it
    /// may return the pre-migration partition for an instant); transactions
    /// never rely on it — the engine revalidates the binding itself.
    pub fn partition_id(&self) -> PartitionId {
        self.partition_arc().id()
    }

    /// Rebinds to `dst` and hands back the previous owning reference,
    /// which the caller keeps until both covers have passed (module docs).
    ///
    /// # Protocol
    ///
    /// Must only be called by the repartition protocol, inside the quiesce
    /// window in which both the old and the new partition carry the
    /// switching flag and no transaction is in flight on either.
    #[must_use]
    pub(crate) fn rebind(&self, dst: &Arc<Partition>) -> Arc<Partition> {
        let new = Arc::into_raw(Arc::clone(dst)) as *mut Partition;
        let old = self.ptr.swap(new, Ordering::SeqCst);
        // SAFETY: `old` was this binding's owning reference (installed by
        // `new` or a previous `rebind`).
        unsafe { Arc::from_raw(old) }
    }
}

impl Drop for PVarBinding {
    fn drop(&mut self) {
        // SAFETY: dropping the binding's owning reference; exclusive
        // access, so no concurrent `load` can observe this pointer.
        drop(unsafe { Arc::from_raw(*self.ptr.get_mut()) });
    }
}

impl core::fmt::Debug for PVarBinding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("PVarBinding")
            .field(&self.partition_id())
            .finish()
    }
}

/// A transactional variable whose binding the repartitioner may move.
///
/// Implemented by [`PVar`]; object-safe so heterogeneously typed variables
/// can be collected into one migration batch
/// ([`crate::Stm::migrate_pvars`] takes `&[&dyn Migratable]`). The trait
/// exposes no way to *change* a binding — rebinding happens only inside
/// the repartition protocol.
pub trait Migratable: Send + Sync {
    /// The variable's binding cell.
    fn pvar_binding(&self) -> &PVarBinding;

    /// Address of the underlying transactional word — the key the sampled
    /// access profiler buckets by (see
    /// [`profiler::bucket_of`](crate::profiler::bucket_of)), letting a
    /// directory map profiler hot-bucket reports back to concrete
    /// variables.
    fn var_addr(&self) -> usize;
}

/// A node type made of partition-bound variables, with its fields
/// enumerable for migration.
///
/// Implemented by arena node types (and by [`PVar`] itself) so the
/// repartitioner can walk a structure's storage and rebind every field:
/// [`Arena::new_bound`](crate::Arena::new_bound) requires it, and the
/// arena-level migration surface
/// ([`MigrationSource`](crate::repartition::MigrationSource)) is built on
/// it. The visitor receives each field as a [`Migratable`], which exposes
/// the binding cell and the word address — everything a migration
/// directory or the repartition protocol needs, and nothing that would let
/// user code rebind outside the protocol.
pub trait PVarFields: Send + Sync {
    /// Visits every partition-bound field of this node.
    fn for_each_pvar(&self, f: &mut dyn FnMut(&dyn Migratable));
}

impl<T: TxWord + Send + Sync> PVarFields for PVar<T> {
    fn for_each_pvar(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        f(self);
    }
}

/// A transactional variable bound to the partition that guards it.
///
/// Created with [`Partition::tvar`](crate::Partition::tvar) (or
/// [`PVar::new`]); the binding is established at allocation — exactly the
/// invariant the compile-time partitioning analysis computes, here enforced
/// by construction — and changes only when the runtime repartitioner
/// migrates the variable (see the module docs).
pub struct PVar<T> {
    pub(crate) binding: PVarBinding,
    pub(crate) cell: AtomicU64,
    _m: PhantomData<T>,
}

impl<T: TxWord> PVar<T> {
    /// Creates a variable bound to `part` with an initial value.
    pub fn new(part: Arc<Partition>, value: T) -> Self {
        PVar {
            binding: PVarBinding::new(part),
            cell: AtomicU64::new(value.to_word()),
            _m: PhantomData,
        }
    }

    /// The partition this variable is currently bound to.
    #[inline]
    pub fn partition(&self) -> Arc<Partition> {
        self.binding.partition_arc()
    }

    /// Id of the owning partition (racy during a repartition; see
    /// [`PVarBinding::partition_id`]).
    #[inline]
    pub fn partition_id(&self) -> PartitionId {
        self.binding.partition_id()
    }

    /// The variable's binding cell (for migration batches).
    #[inline]
    pub fn binding(&self) -> &PVarBinding {
        &self.binding
    }

    /// Non-transactional read. Safe at any time (single atomic load) but
    /// sees only one word: use it for initialization, teardown, or
    /// statistics — never to derive multi-word invariants.
    #[inline]
    pub fn load_direct(&self) -> T {
        T::from_word(self.cell.load(Ordering::Acquire))
    }

    /// Non-transactional write. Only safe while no transaction may access
    /// the variable (setup/teardown): it bypasses ownership records, so a
    /// concurrent transaction would not detect the change.
    #[inline]
    pub fn store_direct(&self, value: T) {
        self.cell.store(value.to_word(), Ordering::Release);
    }
}

/// The read half of [`Access`], so a read-only algorithm (a lookup, a
/// walk, an invariant check) is written once, generic over `R: Read<'e>`:
/// implemented by [`Tx`](crate::Tx), [`ReadTx`](crate::ReadTx) (snapshot
/// reads, never a data-conflict abort), the privatization guard and
/// [`Quiescent`]. `'e` is the lifetime every read variable must outlive.
/// An `Err` is an abort like any other: propagate it with `?`.
pub trait Read<'e> {
    /// Reads `var`.
    fn read<T: TxWord>(&mut self, var: &'e PVar<T>) -> TxResult<T>;
}

/// The one way to touch a [`PVar`]: [`Read`] it, write it, allocate the
/// arena node it lives in.
///
/// Implemented by [`Tx`](crate::Tx) (the STM protocol) and by
/// [`PrivateGuard::access`](crate::PrivateGuard::access) (plain loads and
/// stores, each checked against the held partition), so an algorithm over
/// partition-bound words is written once, generic over `A: Access<'e>`,
/// and runs unchanged inside a transaction or under a privatization hold.
pub trait Access<'e>: Read<'e> {
    /// Writes `var`.
    fn write<T: TxWord>(&mut self, var: &'e PVar<T>, value: T) -> TxResult<()>;

    /// Allocates a slot of `arena`. The node's fields hold whatever the
    /// previous user left: initialize them through `self` before
    /// publishing a handle to it.
    fn alloc<N: Send + Sync + 'static>(&mut self, arena: &'e Arena<N>) -> TxResult<Handle<N>>;
}

/// The quiescent [`Read`]: one plain load per word. Consistent only while
/// nothing commits to what it reads (setup, teardown, after joining every
/// writer); under commits, read through a snapshot instead.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quiescent;

impl Quiescent {
    /// Runs the read-only `op` with plain loads, which never abort.
    pub fn run<T>(op: impl FnOnce(&mut Quiescent) -> TxResult<T>) -> T {
        op(&mut Quiescent).expect("a quiescent read never aborts")
    }
}

impl<'e> Read<'e> for Quiescent {
    #[inline]
    fn read<T: TxWord>(&mut self, var: &'e PVar<T>) -> TxResult<T> {
        Ok(var.load_direct())
    }
}

impl<T: TxWord + Send + Sync> Migratable for PVar<T> {
    fn pvar_binding(&self) -> &PVarBinding {
        &self.binding
    }

    fn var_addr(&self) -> usize {
        // The cell's address is the conflict-detection key.
        &self.cell as *const AtomicU64 as usize
    }
}

impl<T: TxWord + core::fmt::Debug> core::fmt::Debug for PVar<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PVar")
            .field("partition", &self.partition_id())
            .field("value", &self.load_direct())
            .finish()
    }
}

impl Partition {
    /// Creates a [`PVar`] bound to this partition.
    ///
    /// This is the allocation-time equivalent of the paper's compile-time
    /// variable→partition assignment: bind once here, then access with the
    /// partition-free [`Tx::read`](crate::Tx::read) /
    /// [`Tx::write`](crate::Tx::write) / [`Tx::modify`](crate::Tx::modify).
    pub fn tvar<T: TxWord>(self: &Arc<Self>, value: T) -> PVar<T> {
        PVar::new(Arc::clone(self), value)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::PartitionConfig;
    use crate::stm::Stm;

    #[test]
    fn pvar_carries_its_partition() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::named("bound"));
        let x = p.tvar(9u64);
        assert_eq!(x.partition_id(), p.id());
        assert!(std::sync::Arc::ptr_eq(&x.partition(), &p));
        assert_eq!(x.load_direct(), 9);
        x.store_direct(11);
        assert_eq!(x.load_direct(), 11);
        assert!(format!("{x:?}").contains("PVar"));
    }

    #[test]
    fn pvar_is_one_word_plus_its_binding() {
        use super::PVar;
        assert_eq!(core::mem::size_of::<PVar<u64>>(), 16);
        assert_eq!(core::mem::size_of::<PVar<bool>>(), 16);
    }

    #[test]
    fn negative_values_survive() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        assert_eq!(p.tvar(-7i64).load_direct(), -7);
    }

    #[test]
    fn rebind_hands_back_the_old_reference() {
        use std::sync::Arc;
        let stm = Stm::new();
        let a = stm.new_partition(PartitionConfig::named("a"));
        let b = stm.new_partition(PartitionConfig::named("b"));
        let x = a.tvar(1u64);
        assert_eq!(x.partition_id(), a.id());
        assert_eq!(
            Arc::strong_count(&a),
            2,
            "the test's handle and the binding's"
        );
        let old = x.binding.rebind(&b);
        assert!(Arc::ptr_eq(&old, &a));
        assert_eq!(x.partition_id(), b.id());
        assert!(Arc::ptr_eq(&x.partition(), &b));
        assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (2, 2));
        drop(old);
        assert_eq!(
            Arc::strong_count(&a),
            1,
            "nothing else pins the old partition"
        );
        drop(x);
        assert_eq!(Arc::strong_count(&b), 1);
    }
}
