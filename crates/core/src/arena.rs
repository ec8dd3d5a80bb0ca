//! Transactional object arena.
//!
//! Linked data structures (lists, trees) need stable node storage plus
//! transactional allocation: a node allocated inside a transaction must be
//! reclaimed if the transaction aborts, and a node freed inside a
//! transaction must only become reusable once the transaction commits
//! (TinySTM's `stm_malloc`/`stm_free` semantics). The [`Arena`] provides
//! both, with `u32` [`Handle`]s that pack into [`crate::PVar`] words so
//! nodes can reference each other transactionally.
//!
//! Storage is a chunk directory: chunk *c* holds `BASE << c` slots and is
//! installed at most once with a CAS, so `get` is lock-free and handles stay
//! valid for the arena's lifetime (chunks never move or shrink).
//!
//! ## Recycling and opacity
//!
//! A freed slot may still be *read* by concurrent transactions holding stale
//! handles. That is safe: node fields are only ever mutated through
//! transactional stores, so any post-recycling change bumps the covering
//! ownership record's version and the stale reader's validation fails.
//! Corollary: initialize recycled nodes with transactional writes (as
//! [`Arena::alloc`] documents), never with [`crate::PVar::store_direct`].
//!
//! The subtler hazard is on the *allocating* side: a transaction whose
//! snapshot predates a slot's free still sees that slot as a live node
//! elsewhere in the structure — handing it out would make the transaction's
//! "fresh" node alias a reachable node of its own (perfectly consistent)
//! snapshot, corrupting its view with no validation failure anywhere.
//! Every freed slot is therefore tagged with the commit timestamp of its
//! free, and [`Arena::alloc`] forces the allocating transaction to extend
//! its snapshot past that tag (revalidating its read set) before the slot
//! is reused — the LSA-flavoured equivalent of TinySTM's quiescence-based
//! `stm_malloc` reclamation.
//!
//! ## Home binding and live migration
//!
//! Every arena carries a *home binding*: an atomic partition handle (the
//! same [`PVarBinding`] cell a [`crate::PVar`] uses) that the slot factory
//! reads at every chunk installation, so every slot's fields bind to the
//! arena's current home.
//! The repartition protocol ([`crate::repartition`]) can then move the
//! whole arena — home binding first, then every installed slot's fields —
//! or a slot subset ([`Arena::slots_of`]) to a different partition while
//! transactions run.
//!
//! Why that is safe, given that `alloc`/`free` may race the migration:
//!
//! * **Free list.** Entries are `(index, clock tag)` pairs — they name no
//!   partition, so rebinding never invalidates them. Pops and pushes are
//!   mutex-arbitrated against each other; the migration walk never touches
//!   the list (it walks chunk storage directly).
//! * **In-flight transactional `alloc`/`free`.** A transaction that began
//!   before the migration's epoch bump is drained by the quiesce before
//!   any binding moves; one that began after aborts at its first touch of
//!   an involved partition — and a popped-but-unpublished slot is returned
//!   to the free list by that abort's rollback, tag intact. A slot handed
//!   out *after* the flags clear initializes through the rebound fields
//!   and lands in the destination like any other access.
//! * **Chunk installation.** A racing [`Arena::alloc`] may install a fresh
//!   chunk *while* the migration rebinds the arena (the transaction only
//!   aborts at its first partition touch, which comes after allocation).
//!   The installer therefore re-reads the home binding after publishing
//!   the chunk and rebinds the new slots itself if the home moved
//!   mid-install; both the install CAS and the migration walk's chunk
//!   loads are `SeqCst`, so at least one side always observes the other
//!   (plain store-buffering argument). Fresh slots are unreachable — no
//!   handle to them exists yet — so this off-protocol rebind cannot race
//!   any transactional access.
//! * **Retired homes.** A rebound home, like any rebound `PVar`, is kept
//!   alive until the drain and the pin cover every reader (`pvar` module
//!   docs; the home readers here take the pin), so a stale reader at worst
//!   observes the previous partition — which the engine converts into an
//!   ordinary switching abort (see `Tx::view_of_binding`).

use core::marker::PhantomData;
use core::num::NonZeroU32;
use core::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::partition::{Partition, PartitionId};
use crate::pvar::{Migratable, PVarBinding, PVarFields};
use crate::repartition::{ArenaView, MigratableCollection, MigrationSource};
use crate::txn::Tx;
use crate::word::TxWord;

/// log2 of the first chunk's slot count.
const BASE_SHIFT: u32 = 10;
/// Slots in chunk 0.
const BASE: u32 = 1 << BASE_SHIFT;
/// Maximum number of chunks (caps capacity at ~4 billion slots).
const NUM_CHUNKS: usize = 22;

/// Typed index of an arena slot. One word, non-null (so
/// `Option<Handle<N>>` also packs into a transactional word).
pub struct Handle<N> {
    raw: NonZeroU32,
    _m: PhantomData<fn() -> N>,
}

impl<N> Handle<N> {
    #[inline(always)]
    fn from_index(i: u32) -> Self {
        // Index 0 maps to raw 1; arena capacity < u32::MAX keeps this safe.
        Handle {
            raw: NonZeroU32::new(i + 1).expect("arena index overflow"),
            _m: PhantomData,
        }
    }

    #[inline(always)]
    fn index(self) -> u32 {
        self.raw.get() - 1
    }

    /// Raw non-zero representation (stable across the arena's lifetime).
    #[inline(always)]
    pub fn raw(self) -> u32 {
        self.raw.get()
    }
}

impl<N> Clone for Handle<N> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<N> Copy for Handle<N> {}
impl<N> PartialEq for Handle<N> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<N> Eq for Handle<N> {}
impl<N> core::hash::Hash for Handle<N> {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}
impl<N> core::fmt::Debug for Handle<N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Handle({})", self.raw)
    }
}

impl<N: 'static> TxWord for Handle<N> {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self.raw.get() as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        Handle {
            raw: NonZeroU32::new(w as u32).expect("null word decoded as Handle"),
            _m: PhantomData,
        }
    }
}

impl<N: 'static> TxWord for Option<Handle<N>> {
    #[inline(always)]
    fn to_word(self) -> u64 {
        match self {
            Some(h) => h.raw.get() as u64,
            None => 0,
        }
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        NonZeroU32::new(w as u32).map(|raw| Handle {
            raw,
            _m: PhantomData,
        })
    }
}

/// Maps an absolute slot index to its (chunk, offset) pair.
#[inline(always)]
fn locate(i: u32) -> (usize, usize) {
    let j = (i >> BASE_SHIFT) + 1;
    let c = 31 - j.leading_zeros();
    let chunk_start = ((1u32 << c) - 1) << BASE_SHIFT;
    (c as usize, (i - chunk_start) as usize)
}

/// Slot count of chunk `c`.
#[inline(always)]
fn chunk_capacity(c: usize) -> usize {
    (BASE as usize) << c
}

/// Partition-aware slot constructor.
type Make<N> = Box<dyn Fn(&Arc<Partition>) -> N + Send + Sync>;

/// Chunked, append-only slab of `N` values with transactional alloc/free.
/// Slots are initialized by a partition-aware factory ([`Arena::new_bound`])
/// against the arena's *home* partition, which makes the arena migratable
/// as a unit. See the module docs.
pub struct Arena<N> {
    chunks: [AtomicPtr<N>; NUM_CHUNKS],
    next: AtomicU32,
    // Free list behind a mutex: recycling is off the read hot path, and an
    // intrusive lock-free stack would need per-slot link words. Each entry
    // carries the global-clock timestamp of the commit that freed it (the
    // reuse barrier described in the module docs).
    free: Mutex<Vec<(u32, u64)>>,
    /// Where new slots bind: re-read at every chunk installation, so chunks
    /// installed after a migration bind to the new home.
    home: PVarBinding,
    make: Make<N>,
    /// Type-erased per-slot rebind, captured where `N: PVarFields` is known
    /// so `ensure_chunk` needs no extra bound (see the module docs on chunk
    /// installations racing a migration).
    rebind_slot: fn(&N, &Arc<Partition>),
}

// SAFETY: the arena owns the chunk allocations (raw pointers) and hands out
// only shared references to slots; `N` must itself be shareable/sendable for
// that to be sound.
unsafe impl<N: Send + Sync> Send for Arena<N> {}
// SAFETY: as for `Send`: shared access hands out only `&N`.
unsafe impl<N: Send + Sync> Sync for Arena<N> {}

impl<N: 'static> Arena<N> {
    fn preinstall(&self, cap: usize) {
        let mut covered = 0usize;
        let mut c = 0;
        while covered < cap && c < NUM_CHUNKS {
            self.ensure_chunk(c);
            covered += chunk_capacity(c);
            c += 1;
        }
    }

    fn ensure_chunk(&self, c: usize) {
        if !self.chunks[c].load(Ordering::SeqCst).is_null() {
            return;
        }
        // Build the chunk against the home partition observed *now* and
        // re-check after publishing (module docs: chunk installs racing a
        // migration).
        let part = self.home.partition_arc();
        let mut v: Vec<N> = Vec::with_capacity(chunk_capacity(c));
        v.resize_with(chunk_capacity(c), || (self.make)(&part));
        let boxed: Box<[N]> = v.into_boxed_slice();
        let ptr = Box::into_raw(boxed) as *mut N;
        if self.chunks[c]
            .compare_exchange(
                core::ptr::null_mut(),
                ptr,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
        {
            // Lost the install race; reconstitute and drop our chunk.
            // SAFETY: `ptr` came from `Box::into_raw` above and was never
            // published.
            unsafe {
                drop(Box::from_raw(core::ptr::slice_from_raw_parts_mut(
                    ptr,
                    chunk_capacity(c),
                )));
            }
            return;
        }
        let now = self.home.partition_arc();
        if !Arc::ptr_eq(&now, &part) {
            // A migration moved the home while we were building: our
            // slots are bound to the retired home. They are unreachable
            // (no handle to them exists yet), so rebinding them here,
            // outside the protocol's quiesce window, races no
            // transactional access. Nor can it race a *later*
            // migration's phase-3 walk into overwriting a newer
            // binding with `now`: migrations touching this arena share
            // its home partition and therefore serialize on the
            // switching flags, and any migration whose epoch bump
            // follows this attempt's begin waits in quiesce for the
            // whole attempt — including this loop — before walking.
            // The one migration that can overlap us (bump before our
            // begin) is exactly the one whose destination `now` is.
            // SAFETY: `ptr` was just published by us with this capacity
            // and chunks are never freed before the arena drops.
            let slots = unsafe { core::slice::from_raw_parts(ptr as *const N, chunk_capacity(c)) };
            for n in slots {
                (self.rebind_slot)(n, &now);
            }
        }
    }

    /// Allocates a slot outside of any transaction. Only safe while no
    /// transactions run concurrently (setup/teardown/tests): it ignores the
    /// snapshot reuse barrier that [`Arena::alloc`] enforces. The slot
    /// contents are whatever the previous user left (or the factory's value
    /// for a fresh slot).
    pub fn alloc_raw(&self) -> Handle<N> {
        if let Some((i, _tag)) = self.free.lock().pop() {
            return Handle::from_index(i);
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(
            (i as usize) < chunk_capacity(NUM_CHUNKS) * 2,
            "arena exhausted"
        );
        let (c, _) = locate(i);
        self.ensure_chunk(c);
        Handle::from_index(i)
    }

    /// Returns a slot to the free list outside of any transaction (setup/
    /// teardown only; no reuse barrier).
    pub fn free_raw(&self, h: Handle<N>) {
        self.free.lock().push((h.index(), 0));
    }

    /// Allocates a slot inside a transaction. If the transaction aborts the
    /// slot is reclaimed automatically.
    ///
    /// A recycled slot may have been freed *after* this transaction's
    /// snapshot; the allocation then extends the snapshot past the free
    /// (revalidating all reads) so the slot cannot alias a node that is
    /// still live in this transaction's view. The `Err` case is an abort
    /// like any other — propagate it with `?`.
    ///
    /// Initialize the node's fields with *transactional* writes before
    /// publishing a handle to it (see the module docs on recycling).
    pub fn alloc<'e>(&'e self, tx: &mut Tx<'e, '_>) -> crate::error::TxResult<Handle<N>>
    where
        N: Send + Sync + 'static,
    {
        let popped = self.free.lock().pop();
        let (h, tag) = match popped {
            Some((i, tag)) => (Handle::from_index(i), tag),
            None => {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                assert!(
                    (i as usize) < chunk_capacity(NUM_CHUNKS) * 2,
                    "arena exhausted"
                );
                let (c, _) = locate(i);
                self.ensure_chunk(c);
                (Handle::from_index(i), 0)
            }
        };
        if let Err(abort) = tx.ensure_snapshot_at_least(tag) {
            // Could not extend past the slot's free: put it back untouched
            // (with its original tag) and abort this attempt.
            self.free.lock().push((h.index(), tag));
            return Err(abort);
        }
        tx.log_alloc(
            self as *const Arena<N> as *const (),
            h.raw(),
            tag,
            reclaim_into::<N>,
        );
        Ok(h)
    }

    /// Frees a slot inside a transaction. The slot becomes reusable only
    /// when the transaction commits; on abort the free is forgotten.
    pub fn free<'e>(&'e self, tx: &mut Tx<'e, '_>, h: Handle<N>)
    where
        N: Send + Sync + 'static,
    {
        tx.log_free(
            self as *const Arena<N> as *const (),
            h.raw(),
            reclaim_into::<N>,
        );
    }

    /// Shared access to a slot. Lock-free.
    #[inline]
    pub fn get(&self, h: Handle<N>) -> &N {
        let (c, off) = locate(h.index());
        let ptr = self.chunks[c].load(Ordering::Acquire);
        debug_assert!(!ptr.is_null(), "handle into uninstalled chunk");
        // SAFETY: handles are only minted by `alloc*`, which installs the
        // chunk (Release) before returning; chunks are never freed or moved
        // until the arena drops, and `&self` keeps the arena alive.
        unsafe { &*ptr.wrapping_add(off) }
    }

    /// Number of slots handed out and never freed (approximate under
    /// concurrency; exact when quiescent).
    pub fn live(&self) -> usize {
        self.next.load(Ordering::Relaxed) as usize - self.free.lock().len()
    }

    /// The home partition (where new slots bind). Racy during a
    /// migration, like [`PVar::partition`](crate::PVar::partition).
    pub fn partition(&self) -> Arc<Partition> {
        self.home.partition_arc()
    }

    /// Id of the home partition (see [`Arena::partition`]).
    pub fn partition_id(&self) -> PartitionId {
        self.home.partition_id()
    }

    /// Handles of every currently live slot (handed out and not freed),
    /// in index order. Approximate under concurrency — a racing alloc or
    /// free can be missed or double-seen — and exact when quiescent; the
    /// migration directories use it for bucket accounting, where drift
    /// only perturbs a heuristic.
    pub fn live_handles(&self) -> Vec<Handle<N>> {
        let mut freed: Vec<u32> = self.free.lock().iter().map(|&(i, _)| i).collect();
        freed.sort_unstable();
        // A racing alloc bumps `next` *before* it installs the covering
        // chunk, so cap the walk at the installed-chunk prefix — a handle
        // into an uninstalled chunk must never be minted here (its `get`
        // would dereference a null chunk pointer).
        let next = self.next.load(Ordering::Acquire).min(self.installed_cap());
        (0..next)
            .filter(|i| freed.binary_search(i).is_err())
            .map(Handle::from_index)
            .collect()
    }

    /// Total slot count covered by the leading run of installed chunks.
    /// Chunks install in index order (allocation indices are sequential),
    /// so stopping at the first null is exact; even if a gap could form,
    /// undercounting only makes the live-slot walk more conservative.
    fn installed_cap(&self) -> u32 {
        let mut cap = 0usize;
        for c in 0..NUM_CHUNKS {
            if self.chunks[c].load(Ordering::SeqCst).is_null() {
                break;
            }
            cap += chunk_capacity(c);
        }
        cap.min(u32::MAX as usize) as u32
    }

    /// Visits every live slot (see [`Arena::live_handles`] for the
    /// concurrency caveat).
    pub fn for_each_live_slot(&self, mut f: impl FnMut(Handle<N>, &N)) {
        for h in self.live_handles() {
            f(h, self.get(h));
        }
    }

    /// Visits every slot of every installed chunk — live, freed, and
    /// never-handed-out alike (all are factory-initialized at chunk
    /// installation). This is the migration walk: freed and virgin slots
    /// must move too, or a recycled slot would come back bound to the old
    /// partition.
    fn for_each_installed_slot(&self, f: &mut dyn FnMut(&N)) {
        for c in 0..NUM_CHUNKS {
            // SeqCst pairs with the install CAS (module docs: chunk
            // installs racing a migration).
            let ptr = self.chunks[c].load(Ordering::SeqCst);
            if ptr.is_null() {
                continue;
            }
            // SAFETY: installed via `Box::into_raw` with this capacity;
            // chunks are never freed or moved until the arena drops.
            let slots = unsafe { core::slice::from_raw_parts(ptr as *const N, chunk_capacity(c)) };
            for n in slots {
                f(n);
            }
        }
    }
}

impl<N: PVarFields + 'static> Arena<N> {
    /// Creates an arena whose slots are initialized by `make` against the
    /// arena's current home partition (initially `part`). The arena as a
    /// whole is migratable — the repartition protocol can rebind the home
    /// and every slot to a different partition live (see
    /// [`crate::repartition`] and the module docs).
    pub fn new_bound(
        part: &Arc<Partition>,
        make: impl Fn(&Arc<Partition>) -> N + Send + Sync + 'static,
    ) -> Self {
        Arena {
            chunks: Default::default(),
            next: AtomicU32::new(0),
            free: Mutex::new(Vec::new()),
            home: PVarBinding::new(Arc::clone(part)),
            make: Box::new(make),
            rebind_slot: rebind_node::<N>,
        }
    }

    /// [`Arena::new_bound`] plus pre-installed chunks covering at least
    /// `cap` slots.
    pub fn with_capacity_bound(
        part: &Arc<Partition>,
        cap: usize,
        make: impl Fn(&Arc<Partition>) -> N + Send + Sync + 'static,
    ) -> Self {
        let a = Self::new_bound(part, make);
        a.preinstall(cap);
        a
    }

    /// A migration surface over a subset of this arena's slots, for
    /// [`Stm::migrate`](crate::Stm::migrate): only the named
    /// slots' fields move; the home binding (and every other slot) stays.
    pub fn slots_of<'a>(&'a self, handles: &'a [Handle<N>]) -> ArenaSlots<'a, N> {
        ArenaSlots {
            arena: self,
            raw: handles.iter().map(|h| h.raw()).collect(),
        }
    }
}

/// Per-slot rebind helper, monomorphized where `N: PVarFields` is known
/// and stored as a plain `fn` in the arena.
fn rebind_node<N: PVarFields>(n: &N, dst: &Arc<Partition>) {
    // The installer still owns the home the slots leave.
    n.for_each_pvar(&mut |m| drop(m.pvar_binding().rebind(dst)));
}

impl<N: PVarFields + 'static> ArenaView for Arena<N> {
    fn home(&self) -> &PVarBinding {
        &self.home
    }

    fn live_slots(&self) -> usize {
        self.live()
    }

    fn for_each_installed_field(&self, f: &mut dyn FnMut(&dyn Migratable)) {
        self.for_each_installed_slot(&mut |n| n.for_each_pvar(f));
    }

    fn for_each_live_field(&self, f: &mut dyn FnMut(u32, &dyn Migratable)) {
        self.for_each_live_slot(|h, n| n.for_each_pvar(&mut |m| f(h.raw(), m)));
    }

    fn for_each_slot_field(&self, raw: &[u32], f: &mut dyn FnMut(&dyn Migratable)) {
        // Tokens are `Handle::raw` (index + 1). Cap at the installed-chunk
        // prefix like `live_handles`: a stale token must never reach into
        // an uninstalled chunk. Freed-and-recycled slots are fine — their
        // fields are factory-initialized, and rebinding them is sound.
        let cap = self.installed_cap();
        for &r in raw {
            if let Some(i) = r.checked_sub(1).filter(|&i| i < cap) {
                self.get(Handle::from_index(i)).for_each_pvar(f);
            }
        }
    }
}

/// An arena is a collection with no roots.
impl<N: PVarFields + 'static> MigratableCollection for Arena<N> {
    fn node_arena(&self) -> Option<&dyn ArenaView> {
        Some(self)
    }

    fn for_each_root(&self, _: &mut dyn FnMut(&dyn Migratable)) {}
}

/// A borrowed slot subset of an [`Arena`], usable as a
/// [`MigrationSource`]: migrating it rebinds the named slots' fields only,
/// through the same tear walk a migration directory's slot sets take.
/// The arena's home (and all other slots) keep their binding, so a
/// structure can be *torn across partitions* deliberately — every access
/// routes each field through its own binding, which keeps that sound.
pub struct ArenaSlots<'a, N> {
    arena: &'a Arena<N>,
    raw: Vec<u32>,
}

impl<N: PVarFields + 'static> MigrationSource for ArenaSlots<'_, N> {
    fn for_each_binding(&self, f: &mut dyn FnMut(&PVarBinding)) {
        self.arena.for_each_slot_binding(&self.raw, f);
    }
}

impl<N> Drop for Arena<N> {
    fn drop(&mut self) {
        for c in 0..NUM_CHUNKS {
            let ptr = *self.chunks[c].get_mut();
            if !ptr.is_null() {
                // SAFETY: installed via Box::into_raw with this capacity;
                // exclusive access in Drop.
                unsafe {
                    drop(Box::from_raw(core::ptr::slice_from_raw_parts_mut(
                        ptr,
                        chunk_capacity(c),
                    )));
                }
            }
        }
    }
}

/// Type-erased "push this raw handle onto the free list with a reuse tag"
/// used by the transaction's alloc/free logs. The tag is the global-clock
/// time after which reuse is safe (commit time for frees; the slot's
/// original tag for rolled-back allocations).
///
/// # Safety
///
/// `arena` must point to a live `Arena<N>` of the matching `N` and `raw`
/// must be a raw handle minted by it.
pub(crate) unsafe fn reclaim_into<N>(arena: *const (), raw: u32, tag: u64) {
    // SAFETY: the caller's contract above.
    let arena = unsafe { &*(arena as *const Arena<N>) };
    arena.free.lock().push((raw - 1, tag));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionConfig;
    use crate::pvar::PVar;
    use crate::stm::Stm;

    fn word_arena(cap: usize) -> Arena<PVar<u64>> {
        let p = Stm::new().new_partition(PartitionConfig::named("words"));
        Arena::with_capacity_bound(&p, cap, |p| p.tvar(0))
    }

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(BASE - 1), (0, (BASE - 1) as usize));
        assert_eq!(locate(BASE), (1, 0));
        assert_eq!(locate(3 * BASE - 1), (1, (2 * BASE - 1) as usize));
        assert_eq!(locate(3 * BASE), (2, 0));
        // Exhaustive consistency: absolute index reconstructs.
        for i in (0..100_000u32).step_by(37) {
            let (c, off) = locate(i);
            let start = ((1u32 << c) - 1) << BASE_SHIFT;
            assert_eq!(start as usize + off, i as usize);
            assert!(off < chunk_capacity(c));
        }
    }

    #[test]
    fn alloc_get_free_recycles() {
        let a = word_arena(0);
        let h1 = a.alloc_raw();
        a.get(h1).store_direct(7);
        assert_eq!(a.get(h1).load_direct(), 7);
        a.free_raw(h1);
        let h2 = a.alloc_raw();
        assert_eq!(h1, h2, "freed slot is recycled LIFO");
        assert_eq!(a.live(), 1);
    }

    #[test]
    fn handles_pack_into_words() {
        let h: Handle<u32> = Handle::from_index(41);
        assert_eq!(h.to_word(), 42);
        assert_eq!(Handle::<u32>::from_word(42), h);
        assert_eq!(Option::<Handle<u32>>::from_word(0), None);
        assert_eq!(Some(h).to_word(), 42);
        assert_eq!(Option::<Handle<u32>>::from_word(42), Some(h));
        assert_eq!(None::<Handle<u32>>.to_word(), 0);
    }

    #[test]
    fn with_capacity_preinstalls() {
        let a = word_arena(5000);
        // 1024 + 2048 + 4096 covers 5000.
        assert!(!a.chunks[0].load(Ordering::Relaxed).is_null());
        assert!(!a.chunks[1].load(Ordering::Relaxed).is_null());
        assert!(!a.chunks[2].load(Ordering::Relaxed).is_null());
        assert!(a.chunks[3].load(Ordering::Relaxed).is_null());
    }

    #[test]
    fn concurrent_alloc_yields_distinct_handles() {
        // Enough allocations to race the install CAS of chunks 0 and 1;
        // Miri runs each slowly.
        const PER_THREAD: usize = if cfg!(miri) { 200 } else { 2000 };
        let a = word_arena(0);
        let mut all: Vec<u32> = std::thread::scope(|s| {
            let joins: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        (0..PER_THREAD)
                            .map(|_| a.alloc_raw().raw())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            joins.into_iter().flat_map(|j| j.join().unwrap()).collect()
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8 * PER_THREAD);
    }

    #[test]
    fn cross_chunk_allocation_works() {
        let a = word_arena(0);
        let mut handles = Vec::new();
        for _ in 0..(BASE as usize * 3 + 10) {
            handles.push(a.alloc_raw());
        }
        // Touch one slot in each chunk.
        let _ = a.get(handles[0]);
        let _ = a.get(handles[BASE as usize]);
        let _ = a.get(handles[3 * BASE as usize + 5]);
    }

    mod bound {
        use super::super::*;
        use crate::config::PartitionConfig;
        use crate::pvar::PVar;
        use crate::stm::Stm;

        struct Pair {
            a: PVar<u64>,
            b: PVar<u64>,
        }

        impl PVarFields for Pair {
            fn for_each_pvar(&self, f: &mut dyn FnMut(&dyn crate::pvar::Migratable)) {
                f(&self.a);
                f(&self.b);
            }
        }

        fn pair_arena(part: &Arc<Partition>) -> Arena<Pair> {
            Arena::new_bound(part, |p| Pair {
                a: p.tvar(0),
                b: p.tvar(0),
            })
        }

        #[test]
        fn bound_arena_slots_bind_to_home() {
            let stm = Stm::new();
            let p = stm.new_partition(PartitionConfig::named("home"));
            let a = pair_arena(&p);
            assert_eq!(a.partition_id(), p.id());
            assert!(Arc::ptr_eq(&a.partition(), &p));
            let h = a.alloc_raw();
            assert_eq!(a.get(h).a.partition_id(), p.id());
            assert_eq!(a.get(h).b.partition_id(), p.id());
        }

        #[test]
        fn live_handles_tracks_alloc_and_free() {
            let stm = Stm::new();
            let p = stm.new_partition(PartitionConfig::named("h"));
            let a = pair_arena(&p);
            let h1 = a.alloc_raw();
            let h2 = a.alloc_raw();
            let h3 = a.alloc_raw();
            a.free_raw(h2);
            let live = a.live_handles();
            assert_eq!(live, vec![h1, h3]);
            let mut seen = 0;
            a.for_each_live_slot(|h, _| {
                assert_ne!(h, h2);
                seen += 1;
            });
            assert_eq!(seen, 2);
        }

        #[test]
        fn chunks_installed_after_migration_bind_to_destination() {
            let stm = Stm::new();
            let src = stm.new_partition(PartitionConfig::named("src"));
            let dst = stm.new_partition(PartitionConfig::named("dst"));
            let a = pair_arena(&src);
            let h = a.alloc_raw();
            assert_eq!(
                stm.migrate(&a, &dst, &[]),
                crate::stm::SwitchOutcome::Switched
            );
            assert_eq!(a.partition_id(), dst.id());
            assert_eq!(a.get(h).a.partition_id(), dst.id());
            // Exhaust chunk 0 so the next alloc installs a fresh chunk:
            // its factory must read the *migrated* home.
            while a.next.load(Ordering::Relaxed) < BASE {
                let _ = a.alloc_raw();
            }
            let h2 = a.alloc_raw();
            assert_eq!(a.get(h2).a.partition_id(), dst.id());
            assert_eq!(a.get(h2).b.partition_id(), dst.id());
        }

        #[test]
        fn slot_subset_migration_moves_only_named_slots() {
            let stm = Stm::new();
            let src = stm.new_partition(PartitionConfig::named("src"));
            let dst = stm.new_partition(PartitionConfig::named("dst"));
            let a = pair_arena(&src);
            let h1 = a.alloc_raw();
            let h2 = a.alloc_raw();
            let subset = [h1];
            assert_eq!(
                stm.migrate(&a.slots_of(&subset), &dst, &[]),
                crate::stm::SwitchOutcome::Switched
            );
            assert_eq!(a.get(h1).a.partition_id(), dst.id());
            assert_eq!(a.get(h1).b.partition_id(), dst.id());
            assert_eq!(a.get(h2).a.partition_id(), src.id(), "unnamed slot stays");
            assert_eq!(a.partition_id(), src.id(), "home stays");
            // A later whole-collection migration collects the strayed
            // slot's partition into the involved set and heals the split.
            assert_eq!(
                stm.migrate(&a, &src, &[]),
                crate::stm::SwitchOutcome::Switched
            );
            assert_eq!(a.get(h1).a.partition_id(), src.id());
        }

        #[test]
        fn live_handles_never_reach_into_uninstalled_chunks() {
            let stm = Stm::new();
            let p = stm.new_partition(PartitionConfig::named("race"));
            let a = pair_arena(&p);
            let _h = a.alloc_raw();
            // Simulate racing allocators that bumped `next` past the
            // installed chunk but have not installed the next chunk yet
            // (alloc publishes the index before ensure_chunk runs).
            a.next.store(BASE * 2, Ordering::Relaxed);
            let live = a.live_handles();
            assert_eq!(live.len(), BASE as usize, "capped at installed slots");
            // Every returned handle must be safely dereferencable.
            for h in live {
                let _ = a.get(h);
            }
            let mut walked = 0;
            a.for_each_live_slot(|_, _| walked += 1);
            assert_eq!(walked, BASE as usize);
        }

        #[test]
        fn slot_walk_skips_stale_tokens() {
            let stm = Stm::new();
            let p = stm.new_partition(PartitionConfig::named("stale"));
            let a = pair_arena(&p);
            let _ = a.alloc_raw(); // installs chunk 0 only
            let fields = |i: u32| {
                let n = a.get(Handle::from_index(i));
                [n.a.binding(), n.b.binding()].map(|b| b as *const PVarBinding)
            };
            let mut seen = Vec::new();
            a.for_each_slot_binding(&[0, 1, BASE, BASE + 1, u32::MAX], &mut |b| {
                seen.push(b as *const PVarBinding)
            });
            let want: Vec<_> = fields(0).into_iter().chain(fields(BASE - 1)).collect();
            assert_eq!(seen, want, "token 0 and tokens past chunk 0 are skipped");
        }

        #[test]
        fn collection_introspection_counts_live_fields() {
            let stm = Stm::new();
            let p = stm.new_partition(PartitionConfig::named("c"));
            let a = pair_arena(&p);
            let _h1 = a.alloc_raw();
            let _h2 = a.alloc_raw();
            assert_eq!(MigratableCollection::live_nodes(&a), 2);
            let mut addrs = 0;
            a.for_each_live_addr(&mut |_| addrs += 1);
            assert_eq!(addrs, 4, "two live slots x two fields");
            assert!(Arc::ptr_eq(&a.home_partition(), &p));
        }
    }
}
