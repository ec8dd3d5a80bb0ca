//! The migration directory: mapping profiler reports back to variables
//! and structures.
//!
//! The profiler reports hot spots as `(partition, address bucket)` pairs;
//! executing a split needs the concrete things bound there — flat
//! [`PVar`](partstm_core::PVar) handles and/or whole arena-backed
//! structures ([`MigratableCollection`]). The runtime deliberately does
//! not track which variables live in a partition (that would put a
//! registry write on the allocation path), so the application registers
//! what it wants the repartitioner to be able to move — typically at
//! allocation time, next to `Partition::tvar`, and each structure through
//! [`StaticDirectory::register_collection`].
//!
//! Buckets the profiler flags but no registered variable or structure
//! maps to are *controller misses*: the analyzer sees heat the directory
//! cannot act on. The directory reports those through
//! [`partstm_core::rtlog`] so misconfigured registration is observable
//! instead of silently degrading the loop — rate-limited to one message
//! per [`MISS_REPORT_INTERVAL`] per directory (with a suppressed-count
//! fold), so an aliasing storm that makes the controller retry every
//! window cannot flood the log.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use partstm_core::profiler::bucket_of;
use partstm_core::{
    rtlog, Migratable, MigratableCollection, MigrationSource, PVarBinding, PartitionId,
    PROFILE_BUCKETS,
};

/// Bucket-coverage set: one flag per profile bucket. A fixed array beats
/// accumulating one `u16` per registered *address* (a big structure
/// contributes thousands) and sorting them to answer 256 membership
/// questions.
type Covered = [bool; PROFILE_BUCKETS as usize];

/// What a directory hands the controller for one migration: flat variable
/// handles plus whole collections. Usable directly as the
/// [`MigrationSource`] of [`Stm::migrate`](partstm_core::Stm::migrate).
#[derive(Default)]
pub(crate) struct MoverSet {
    /// Flat registered variables to rebind.
    pub(crate) vars: Vec<Arc<dyn Migratable>>,
    /// Whole collections (arena + roots) to rebind.
    pub(crate) collections: Vec<Arc<dyn MigratableCollection>>,
}

impl MoverSet {
    /// True when there is nothing to move.
    pub(crate) fn is_empty(&self) -> bool {
        self.vars.is_empty() && self.collections.is_empty()
    }

    /// Flat vars plus live nodes of every collection (the `moved` count
    /// reported in controller events).
    pub(crate) fn moved_count(&self) -> usize {
        self.vars.len()
            + self
                .collections
                .iter()
                .map(|c| c.live_nodes())
                .sum::<usize>()
    }
}

impl MigrationSource for MoverSet {
    fn for_each_binding(&self, f: &mut dyn FnMut(&PVarBinding)) {
        // Collections first: each visits its arena home before its slots
        // (the ordering contract of `MigrationSource`).
        for c in &self.collections {
            c.for_each_binding(f);
        }
        for v in &self.vars {
            f(v.pvar_binding());
        }
    }
}

/// One slot subset torn (or tearable) out of a collection: the collection
/// handle plus the raw slot tokens to move. Usable directly as the
/// [`MigrationSource`] of [`Stm::migrate`](partstm_core::Stm::migrate) —
/// the collection's tear walk moves only the named slots' fields; its home
/// binding and roots stay put.
#[derive(Clone)]
pub(crate) struct TearSet {
    /// The collection the slots belong to.
    pub(crate) coll: Arc<dyn MigratableCollection>,
    /// Raw slot tokens (sorted, deduplicated) to move.
    pub(crate) raw: Vec<u32>,
    /// The collection's live-node count when the set was assembled (for
    /// "subset, not the whole structure" accounting in reports).
    pub(crate) total_live: usize,
}

impl MigrationSource for TearSet {
    fn for_each_binding(&self, f: &mut dyn FnMut(&PVarBinding)) {
        self.coll.for_each_slot_binding(&self.raw, f);
    }
}

/// Several [`TearSet`]s (one per collection) as a single migration source,
/// so one quiesce window moves every collection's celebrity slots at once.
pub(crate) struct TearMovers<'a>(pub(crate) &'a [TearSet]);

impl MigrationSource for TearMovers<'_> {
    fn for_each_binding(&self, f: &mut dyn FnMut(&PVarBinding)) {
        for s in self.0 {
            s.for_each_binding(f);
        }
    }
}

/// Floor between unmapped-bucket warnings per directory: at a controller
/// cadence of tens of milliseconds, one warning every few dozen windows
/// instead of one per retried action (suppressed repeats are counted and
/// folded into the next message — see [`rtlog::Limiter`]).
pub const MISS_REPORT_INTERVAL: Duration = Duration::from_secs(1);

/// Over-representation factor for collection selection: a collection is
/// considered hot when its live fields land in the requested buckets at
/// least this many times more often than a uniform address spray would.
const HOT_OVERREP: f64 = 2.0;

/// Cached bucket index of the flat-variable registry: per-bucket candidate
/// var indices (into the registry vec, which only grows) plus the
/// registered bucket-coverage set. Invalidated by registration, reused
/// across controller windows — collection cost drops from O(registered
/// vars) per window to O(requested buckets' candidates).
struct BucketIndex {
    by_bucket: Vec<Vec<u32>>,
    covered: Covered,
}

/// Cached reverse map of one registered collection: live-field count per
/// profile bucket (`hist`, torn slots excluded), total counted fields,
/// and the raw slot tokens with a field in each bucket. Rebuilt lazily
/// after registration or a tear/heal invalidates it, reused across
/// controller windows: the per-window cost drops from O(live fields) per
/// collection to O(requested buckets).
struct RevMap {
    hist: [u32; PROFILE_BUCKETS as usize],
    total: usize,
    by_bucket: Vec<Vec<u32>>,
}

/// One registered collection with its tear state and reverse-map cache.
struct CollEntry {
    coll: Arc<dyn MigratableCollection>,
    /// Raw slot tokens currently torn out (sorted). Excluded from the
    /// reverse map so their buckets are no longer attributed here — a
    /// stale attribution would re-propose tearing already-torn slots.
    torn: Vec<u32>,
    rev: Option<RevMap>,
}

impl CollEntry {
    /// The cached reverse map, rebuilt first if registration or a
    /// tear/heal invalidated it.
    fn rev(&mut self, rebuilds: &AtomicU64) -> &RevMap {
        if self.rev.is_none() {
            rebuilds.fetch_add(1, Ordering::Relaxed);
            self.rev = Some(self.build_rev());
        }
        self.rev.as_ref().expect("just built")
    }

    /// Heat is attributed to live arena slots, by token; a collection
    /// without an arena has only its roots to count, and nothing to tear.
    fn build_rev(&self) -> RevMap {
        let mut hist = [0u32; PROFILE_BUCKETS as usize];
        let mut total = 0usize;
        let mut by_bucket: Vec<Vec<u32>> = vec![Vec::new(); PROFILE_BUCKETS as usize];
        let mut count = |addr: usize, raw: Option<u32>| {
            let b = bucket_of(addr) as usize;
            hist[b] += 1;
            total += 1;
            by_bucket[b].extend(raw);
        };
        match self.coll.node_arena() {
            Some(a) => a.for_each_live_field(&mut |raw, m| {
                if self.torn.binary_search(&raw).is_err() {
                    count(m.var_addr(), Some(raw));
                }
            }),
            None => self.coll.for_each_root(&mut |m| count(m.var_addr(), None)),
        }
        // One token per bucket per slot: a slot with two fields in the
        // same bucket is still one candidate.
        for v in &mut by_bucket {
            v.sort_unstable();
            v.dedup();
        }
        RevMap {
            hist,
            total,
            by_bucket,
        }
    }
}

/// The migration directory: the registry the controller maps profiler
/// reports back to movers with. It holds flat variables
/// ([`register`](StaticDirectory::register)) and collections
/// ([`register_collection`](StaticDirectory::register_collection)), and
/// answers the controller one question per action kind: what
/// to split (`collect`), what to merge (`collect_all`) and which slots to
/// tear (`collect_tears`).
///
/// ## Flat variables
///
/// Registration is cheap (amortized push under a write lock); collection
/// consults a cached bucket index (the private `BucketIndex`) that
/// registration invalidates, and re-reads only the requested buckets'
/// candidates' bindings.
///
/// ## Bucket-to-structure mapping
///
/// A large structure's fields spray across *all* 256 profile buckets, so
/// "has an address in a hot bucket" selects everything. What separates
/// the structure the workload is hammering from an innocent bystander is
/// *over-representation*: the share of the structure's live fields inside
/// the hot buckets, compared against the share of bucket space the hot
/// set covers (`|buckets| / 256`). The hammered structure's addresses
/// concentrate there; a bystander's match it only proportionally.
/// Collections at least 2× over-represented (`HOT_OVERREP`) are selected
/// and migrated *whole* (arena home, every slot, roots) — an arena-level
/// split.
///
/// ## Per-slot attribution (tears)
///
/// Every arena-backed collection also keeps a reverse map from profile
/// buckets to live slot tokens, so `collect_tears` can name the
/// *individual slots* whose fields land in the hot buckets — the celebrity
/// keys — instead of the whole structure. A tear is sound for any arena:
/// every field routes through its own binding, so slots torn away from
/// their home-bound roots stay reachable (the tear walk on
/// [`MigratableCollection`]). Torn slots are evicted from the reverse map
/// (`mark_torn`) until a heal brings them home.
pub struct StaticDirectory {
    vars: RwLock<Vec<Arc<dyn Migratable>>>,
    index: RwLock<Option<BucketIndex>>,
    collections: RwLock<Vec<CollEntry>>,
    /// Builds of the var bucket index and of any collection's reverse map:
    /// registration and tear/heal invalidate, collection windows reuse
    /// (the caching tests pin this).
    index_rebuilds: AtomicU64,
    rev_rebuilds: AtomicU64,
    miss_limiter: rtlog::Limiter,
}

impl Default for StaticDirectory {
    fn default() -> Self {
        StaticDirectory {
            vars: RwLock::default(),
            index: RwLock::new(None),
            collections: RwLock::default(),
            index_rebuilds: AtomicU64::new(0),
            rev_rebuilds: AtomicU64::new(0),
            miss_limiter: rtlog::Limiter::new(MISS_REPORT_INTERVAL),
        }
    }
}

impl StaticDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one variable.
    pub fn register(&self, var: Arc<dyn Migratable>) {
        self.vars.write().push(var);
        *self.index.write() = None;
    }

    /// Registers a batch of variables.
    pub fn register_all<I: IntoIterator<Item = Arc<dyn Migratable>>>(&self, vars: I) {
        self.vars.write().extend(vars);
        *self.index.write() = None;
    }

    /// Registers one collection: a structure, or a bare arena.
    pub fn register_collection(&self, c: Arc<dyn MigratableCollection>) {
        self.collections.write().push(CollEntry {
            coll: c,
            torn: Vec::new(),
            rev: None,
        });
    }

    /// Number of registered variables.
    pub fn len(&self) -> usize {
        self.vars.read().len()
    }

    /// True when no variable is registered.
    pub fn is_empty(&self) -> bool {
        self.vars.read().is_empty()
    }

    /// Movers currently bound (collections: homed) at `part` whose profile
    /// buckets intersect `buckets` (sorted): the flat variables hashing
    /// there, plus the collections over-represented there. Requested
    /// buckets that map to nothing registered are reported through
    /// `rtlog` as controller misses.
    pub(crate) fn collect(&self, part: PartitionId, buckets: &[u16]) -> MoverSet {
        // The coverage set spans every registered var and every collection
        // homed at `part`, not just what is selected: the unmapped-bucket
        // report is a registration diagnostic, and addresses don't change
        // bucket when they migrate.
        let mut covered: Covered = [false; PROFILE_BUCKETS as usize];
        let mut collections = Vec::new();
        for e in self.collections.write().iter_mut() {
            if e.coll.home_partition().id() != part {
                continue;
            }
            let rev = e.rev(&self.rev_rebuilds);
            if rev.total == 0 {
                continue;
            }
            for (c, &n) in covered.iter_mut().zip(rev.hist.iter()) {
                *c |= n > 0;
            }
            let hits: usize = buckets.iter().map(|&b| rev.hist[b as usize] as usize).sum();
            let share = hits as f64 / rev.total as f64;
            let uniform = buckets.len() as f64 / f64::from(PROFILE_BUCKETS);
            if share >= uniform * HOT_OVERREP {
                collections.push(Arc::clone(&e.coll));
            }
        }
        let vars = self.collect_vars(part, buckets, &mut covered);
        let unmapped = buckets.iter().filter(|&&b| !covered[b as usize]).count();
        if unmapped > 0 {
            self.miss_limiter.warn(&format!(
                "StaticDirectory: {unmapped} of {} hot buckets in partition {} map to \
                 nothing registered; the controller cannot act on them",
                buckets.len(),
                part.0
            ));
        }
        MoverSet { vars, collections }
    }

    /// Flat vars currently bound to `part` whose profile bucket is in
    /// `buckets`, via the cached [`BucketIndex`] (rebuilt here if
    /// registration invalidated it) — only the requested buckets'
    /// candidates are touched, and only their *bindings* are re-read.
    /// `covered` is OR-merged with the index's coverage set.
    fn collect_vars(
        &self,
        part: PartitionId,
        buckets: &[u16],
        covered: &mut Covered,
    ) -> Vec<Arc<dyn Migratable>> {
        // Lock order vars -> index, same as the (non-nested) registration
        // path. Indices stay valid across the lock because the registry
        // vec only ever grows.
        let vars = self.vars.read();
        let mut slot = self.index.write();
        let idx = slot.get_or_insert_with(|| {
            self.index_rebuilds.fetch_add(1, Ordering::Relaxed);
            let mut by_bucket: Vec<Vec<u32>> = vec![Vec::new(); PROFILE_BUCKETS as usize];
            let mut cov: Covered = [false; PROFILE_BUCKETS as usize];
            for (i, v) in vars.iter().enumerate() {
                let b = bucket_of(v.var_addr()) as usize;
                by_bucket[b].push(i as u32);
                cov[b] = true;
            }
            BucketIndex {
                by_bucket,
                covered: cov,
            }
        });
        for (c, cached) in covered.iter_mut().zip(idx.covered.iter()) {
            *c |= cached;
        }
        let mut out = Vec::new();
        for &b in buckets {
            for &i in &idx.by_bucket[b as usize] {
                let v = &vars[i as usize];
                if v.pvar_binding().partition_id() == part {
                    out.push(Arc::clone(v));
                }
            }
        }
        out
    }

    /// All registered movers currently bound (collections: homed) at
    /// `part`.
    pub(crate) fn collect_all(&self, part: PartitionId) -> MoverSet {
        MoverSet {
            vars: self
                .vars
                .read()
                .iter()
                .filter(|v| v.pvar_binding().partition_id() == part)
                .map(Arc::clone)
                .collect(),
            collections: self
                .collections
                .read()
                .iter()
                .filter(|e| e.coll.home_partition().id() == part)
                .map(|e| Arc::clone(&e.coll))
                .collect(),
        }
    }

    /// Slot subsets of arena-backed collections homed at `part` whose fields
    /// land in `buckets` (sorted) — the celebrity keys. A collection only
    /// yields a set when the subset is *small*: at most `max_fraction` of
    /// its live nodes (a hot set spanning the whole structure is a split,
    /// not a tear). Already-torn slots are excluded.
    pub(crate) fn collect_tears(
        &self,
        part: PartitionId,
        buckets: &[u16],
        max_fraction: f64,
    ) -> Vec<TearSet> {
        let mut out = Vec::new();
        for e in self.collections.write().iter_mut() {
            if e.coll.home_partition().id() != part {
                continue;
            }
            let bb = &e.rev(&self.rev_rebuilds).by_bucket;
            let mut raw: Vec<u32> = buckets
                .iter()
                .flat_map(|&b| bb[b as usize].iter().copied())
                .collect();
            raw.sort_unstable();
            raw.dedup();
            let live = e.coll.live_nodes();
            // Celebrity criterion: a hot subset spanning more than
            // `max_fraction` of the structure is not a tear — moving it
            // slot-by-slot would cost more than the whole-structure split
            // the caller falls back to.
            if raw.is_empty() || (raw.len() as f64) > max_fraction * live as f64 {
                continue;
            }
            out.push(TearSet {
                coll: Arc::clone(&e.coll),
                raw,
                total_live: live,
            });
        }
        out
    }

    /// Records that `set`'s slots were torn out: their buckets must no
    /// longer be attributed to the origin collection, and they must not be
    /// proposed for tearing again until healed.
    pub(crate) fn mark_torn(&self, set: &TearSet) {
        self.with_torn(set, |torn| {
            torn.extend_from_slice(&set.raw);
            torn.sort_unstable();
            torn.dedup();
        });
    }

    /// Reverses [`StaticDirectory::mark_torn`] after a heal re-merged the
    /// slots into their origin.
    pub(crate) fn unmark_torn(&self, set: &TearSet) {
        self.with_torn(set, |torn| {
            torn.retain(|r| set.raw.binary_search(r).is_err());
        });
    }

    /// Applies `f` to the torn list of `set`'s collection and invalidates
    /// that collection's reverse map.
    fn with_torn(&self, set: &TearSet, f: impl FnOnce(&mut Vec<u32>)) {
        let mut colls = self.collections.write();
        if let Some(e) = colls.iter_mut().find(|e| Arc::ptr_eq(&e.coll, &set.coll)) {
            f(&mut e.torn);
            e.rev = None;
        }
    }
}

impl core::fmt::Debug for StaticDirectory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StaticDirectory")
            .field("vars", &self.len())
            .field("collections", &self.collections.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partstm_core::{Arena, ArenaView, PVar, PVarFields, PartitionConfig, Stm, SwitchOutcome};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn directory_filters_by_binding_and_bucket() {
        let stm = Stm::new();
        let a = stm.new_partition(PartitionConfig::named("a"));
        let b = stm.new_partition(PartitionConfig::named("b"));
        let dir = StaticDirectory::new();
        let xs: Vec<Arc<partstm_core::PVar<u64>>> =
            (0..32).map(|i| Arc::new(a.tvar(i as u64))).collect();
        let y = Arc::new(b.tvar(7u64));
        for x in &xs {
            dir.register(Arc::clone(x) as Arc<dyn Migratable>);
        }
        dir.register(Arc::clone(&y) as Arc<dyn Migratable>);
        assert_eq!(dir.len(), 33);
        assert!(!dir.is_empty());

        assert_eq!(dir.collect_all(a.id()).vars.len(), 32);
        assert_eq!(dir.collect_all(b.id()).vars.len(), 1);

        // Bucket filtering returns exactly the vars hashing there.
        let mut buckets: Vec<u16> = xs
            .iter()
            .take(4)
            .map(|x| bucket_of(Migratable::var_addr(&**x)))
            .collect();
        buckets.sort_unstable();
        buckets.dedup();
        let got = dir.collect(a.id(), &buckets);
        assert!(
            got.vars.len() >= 4,
            "at least the four seeds: {}",
            got.vars.len()
        );
        for v in &got.vars {
            assert!(buckets.binary_search(&bucket_of(v.var_addr())).is_ok());
        }
    }

    /// Buckets nothing is registered under are reported through rtlog.
    #[test]
    fn unmapped_buckets_are_reported() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let me = std::thread::current().id();
        partstm_core::rtlog::set_handler(Some(Box::new(move |m| {
            // `warn` runs on the caller's thread: counting only our own
            // keeps concurrently running tests out of the tally.
            if std::thread::current().id() == me
                && m.contains("hot buckets")
                && m.contains("nothing registered")
            {
                h.fetch_add(1, Ordering::Relaxed);
            }
        })));

        let stm = Stm::new();
        let a = stm.new_partition(PartitionConfig::named("a"));
        let x = Arc::new(a.tvar(1u64));
        let sdir = StaticDirectory::new();
        sdir.register(Arc::clone(&x) as Arc<dyn Migratable>);
        // Ask for the var's own bucket plus one that cannot be covered by
        // a single registered address.
        let own = bucket_of(Migratable::var_addr(&*x));
        let missing = if own == 0 { 1 } else { own - 1 };
        let mut buckets = vec![own, missing];
        buckets.sort_unstable();
        let got = sdir.collect(a.id(), &buckets);
        assert_eq!(got.vars.len(), 1);
        assert_eq!(hits.load(Ordering::Relaxed), 1, "one rtlog miss report");

        // Fully mapped requests stay silent.
        let got = sdir.collect(a.id(), &[own]);
        assert_eq!(got.vars.len(), 1);
        assert_eq!(hits.load(Ordering::Relaxed), 1, "no new report");

        // With a collection registered beside the var, its live fields'
        // buckets count as covered too; what neither covers is reported
        // the same way.
        let arena = Arc::new(Arena::new_bound(&a, |p| p.tvar(0u64)));
        let _ = arena.alloc_raw();
        let mut arena_buckets = Vec::new();
        arena.for_each_live_addr(&mut |addr| arena_buckets.push(bucket_of(addr)));
        let missing = (0..PROFILE_BUCKETS)
            .find(|b| *b != own && !arena_buckets.contains(b))
            .unwrap();
        let mut mixed = vec![own, missing];
        mixed.extend(&arena_buckets);
        mixed.sort_unstable();
        mixed.dedup();
        let cdir = StaticDirectory::new();
        cdir.register(Arc::clone(&x) as Arc<dyn Migratable>);
        cdir.register_collection(Arc::clone(&arena) as Arc<dyn MigratableCollection>);
        let got = cdir.collect(a.id(), &mixed);
        assert_eq!((got.vars.len(), got.collections.len()), (1, 1));
        assert_eq!(hits.load(Ordering::Relaxed), 2, "one report, one miss");
        let _ = cdir.collect(a.id(), &[own]);
        let _ = cdir.collect(a.id(), &arena_buckets);
        assert_eq!(
            hits.load(Ordering::Relaxed),
            2,
            "covered buckets are no miss"
        );

        // Miss reports are rate-limited per directory: back-to-back
        // misses inside the window fold into the first emission instead
        // of flooding the log (one per window, not one per retry).
        let sdir2 = StaticDirectory::new();
        sdir2.register(Arc::clone(&x) as Arc<dyn Migratable>);
        let _ = sdir2.collect(a.id(), &buckets);
        assert_eq!(hits.load(Ordering::Relaxed), 3, "fresh limiter emits");
        let _ = sdir2.collect(a.id(), &buckets);
        let _ = sdir2.collect(a.id(), &buckets);
        assert_eq!(
            hits.load(Ordering::Relaxed),
            3,
            "repeats inside the window are suppressed"
        );

        partstm_core::rtlog::set_handler(None);
    }

    /// Over-representation selects the structure the buckets concentrate
    /// in and leaves proportional bystanders alone.
    #[test]
    fn directory_selects_overrepresented_collections() {
        struct Probe {
            arena: Arena<PVar<u64>>,
        }
        impl Probe {
            fn new(part: &Arc<partstm_core::Partition>, n: usize) -> Arc<Self> {
                let arena = Arena::new_bound(part, |p| p.tvar(0u64));
                for _ in 0..n {
                    let _ = arena.alloc_raw();
                }
                Arc::new(Probe { arena })
            }
        }
        impl MigratableCollection for Probe {
            fn node_arena(&self) -> Option<&dyn ArenaView> {
                Some(&self.arena)
            }
            fn for_each_root(&self, _: &mut dyn FnMut(&dyn Migratable)) {}
        }

        let stm = Stm::new();
        let part = stm.new_partition(PartitionConfig::named("mixed"));
        let small = Probe::new(&part, 24);
        let big = Probe::new(&part, 4096);
        let dir = StaticDirectory::new();
        dir.register_collection(Arc::clone(&small) as Arc<dyn MigratableCollection>);
        dir.register_collection(Arc::clone(&big) as Arc<dyn MigratableCollection>);
        assert_eq!(dir.collections.read().len(), 2);

        // Hot buckets := exactly the small structure's buckets. The small
        // structure is 100% inside them; the big one only proportionally.
        let mut buckets: Vec<u16> = Vec::new();
        small.for_each_live_addr(&mut |a| buckets.push(bucket_of(a)));
        buckets.sort_unstable();
        buckets.dedup();
        // Every requested bucket is covered by the small structure, so no
        // unmapped-bucket warning fires (keeps this test off the global
        // rtlog sink, which `unmapped_buckets_are_reported` owns).
        let got = dir.collect(part.id(), &buckets);
        assert_eq!(got.collections.len(), 1, "only the hot structure");
        assert_eq!(got.collections[0].live_nodes(), small.live_nodes());
        assert!(!got.is_empty());
        assert_eq!(got.moved_count(), 24);

        // collect_all returns both.
        assert_eq!(dir.collect_all(part.id()).collections.len(), 2);
    }

    /// Satellite of the hot-key PR: collection windows must reuse the
    /// cached bucket index / reverse map instead of rebuilding them from
    /// the full registry every tick; registration invalidates.
    #[test]
    fn indexes_are_cached_across_collect_windows() {
        let stm = Stm::new();
        let part = stm.new_partition(PartitionConfig::named("p"));

        // Flat registry: the bucket index survives repeated collects.
        let sdir = StaticDirectory::new();
        let vars: Vec<Arc<PVar<u64>>> = (0..16).map(|i| Arc::new(part.tvar(i))).collect();
        for v in &vars {
            sdir.register(Arc::clone(v) as Arc<dyn Migratable>);
        }
        assert_eq!(
            sdir.index_rebuilds.load(Ordering::Relaxed),
            0,
            "built lazily"
        );
        let b0 = bucket_of(Migratable::var_addr(&*vars[0]));
        let before = {
            let _ = sdir.collect(part.id(), &[b0]);
            sdir.index_rebuilds.load(Ordering::Relaxed)
        };
        let _ = sdir.collect(part.id(), &[b0]);
        let _ = sdir.collect(part.id(), &[b0]);
        assert_eq!(
            sdir.index_rebuilds.load(Ordering::Relaxed),
            before,
            "windows reuse the index"
        );
        sdir.register(Arc::new(part.tvar(99u64)) as Arc<dyn Migratable>);
        let _ = sdir.collect(part.id(), &[b0]);
        assert_eq!(
            sdir.index_rebuilds.load(Ordering::Relaxed),
            before + 1,
            "registration rebuilds"
        );

        // Collection registry, in the same directory: the reverse map
        // survives repeated collects and is shared between `collect` and
        // `collect_tears`; it leaves the var index alone.
        let arena = Arc::new(Arena::new_bound(&part, |p| p.tvar(0u64)));
        for _ in 0..32 {
            let _ = arena.alloc_raw();
        }
        sdir.register_collection(Arc::clone(&arena) as Arc<dyn MigratableCollection>);
        let mut buckets = Vec::new();
        arena.for_each_live_slot(|_, n| {
            n.for_each_pvar(&mut |m| buckets.push(bucket_of(m.var_addr())))
        });
        buckets.sort_unstable();
        buckets.dedup();
        let _ = sdir.collect(part.id(), &buckets);
        assert_eq!(sdir.rev_rebuilds.load(Ordering::Relaxed), 1);
        let _ = sdir.collect(part.id(), &buckets);
        let tears = sdir.collect_tears(part.id(), &buckets, 1.0);
        assert_eq!(
            sdir.rev_rebuilds.load(Ordering::Relaxed),
            1,
            "windows and tears share the map"
        );
        assert_eq!(
            sdir.index_rebuilds.load(Ordering::Relaxed),
            before + 1,
            "var index untouched"
        );
        sdir.mark_torn(&tears[0]);
        let _ = sdir.collect(part.id(), &buckets);
        assert_eq!(
            sdir.rev_rebuilds.load(Ordering::Relaxed),
            2,
            "a tear forces a rebuild"
        );
        let _ = sdir.collect_tears(part.id(), &buckets, 1.0);
        assert_eq!(sdir.rev_rebuilds.load(Ordering::Relaxed), 2);
    }

    /// Satellite of the hot-key PR: tearing slots out must evict them from
    /// the origin's reverse map (or the controller would re-propose
    /// tearing already-torn slots forever); healing restores them.
    #[test]
    fn torn_slots_are_evicted_until_healed() {
        let stm = Stm::new();
        let part = stm.new_partition(PartitionConfig::named("p"));
        let arena = Arc::new(Arena::new_bound(&part, |p| p.tvar(0u64)));
        for _ in 0..64 {
            let _ = arena.alloc_raw();
        }
        let dir = StaticDirectory::new();
        dir.register_collection(Arc::clone(&arena) as Arc<dyn MigratableCollection>);

        // Hot buckets := the buckets of the first four live slots.
        let mut hot: Vec<u16> = Vec::new();
        let mut seen = 0;
        arena.for_each_live_slot(|_, n| {
            if seen < 4 {
                n.for_each_pvar(&mut |m| hot.push(bucket_of(m.var_addr())));
                seen += 1;
            }
        });
        hot.sort_unstable();
        hot.dedup();

        let sets = dir.collect_tears(part.id(), &hot, 0.5);
        assert_eq!(sets.len(), 1);
        let set = &sets[0];
        assert!(set.raw.len() >= 4, "at least the four seeds: {:?}", set.raw);
        assert!(set.raw.len() <= 32, "a subset, not the structure");
        assert_eq!(set.total_live, 64);
        // The concentrated subset also over-represents the collection for
        // a whole-structure split before the tear...
        assert_eq!(dir.collect(part.id(), &hot).collections.len(), 1);

        dir.mark_torn(set);
        assert!(
            dir.collect_tears(part.id(), &hot, 0.5).is_empty(),
            "torn slots are not re-proposed"
        );
        // ...and after the tear the heat attribution is gone too.
        assert_eq!(dir.collect(part.id(), &hot).collections.len(), 0);

        dir.unmark_torn(set);
        let again = dir.collect_tears(part.id(), &hot, 0.5);
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].raw, set.raw, "heal restores attribution");
    }

    /// Flat vars and a collection in one directory and one partition:
    /// `collect` returns both, and one `Stm::migrate` of the `MoverSet`
    /// moves the collection (home, slots, roots) and the vars in a single
    /// window, visiting the collection first.
    #[test]
    fn one_migration_moves_vars_and_a_collection_together() {
        use partstm_structures::THashMap;
        let stm = Stm::new();
        let src = stm.new_partition(PartitionConfig::named("src"));
        let dst = stm.new_partition(PartitionConfig::named("dst"));
        let map = Arc::new(THashMap::new(Arc::clone(&src), 4));
        let ctx = stm.register_thread();
        for k in 0..8 {
            ctx.run(|tx| map.put(tx, k, 100).map(|_| ()));
        }
        let vars: Vec<Arc<PVar<u64>>> = (0..4).map(|i| Arc::new(src.tvar(i))).collect();
        let dir = StaticDirectory::new();
        dir.register_collection(Arc::clone(&map) as Arc<dyn MigratableCollection>);
        dir.register_all(vars.iter().map(|v| Arc::clone(v) as Arc<dyn Migratable>));

        let mut buckets: Vec<u16> = vars.iter().map(|v| bucket_of(v.var_addr())).collect();
        map.arena()
            .for_each_live_addr(&mut |a| buckets.push(bucket_of(a)));
        buckets.sort_unstable();
        buckets.dedup();
        let movers = dir.collect(src.id(), &buckets);
        assert_eq!(movers.vars.len(), 4);
        assert_eq!(movers.collections.len(), 1);
        assert_eq!(movers.moved_count(), 4 + 8);

        // Enumeration order: every collection binding (arena home first,
        // then slots, then roots), then every var.
        let ptr = |b: &PVarBinding| b as *const PVarBinding;
        let mut order = Vec::new();
        movers.for_each_binding(&mut |b| order.push(ptr(b)));
        let mut coll = Vec::new();
        map.for_each_binding(&mut |b| coll.push(ptr(b)));
        let (first, rest) = order.split_at(coll.len());
        assert_eq!(first, coll, "the collection comes first");
        let mut rest = rest.to_vec();
        let mut flat: Vec<_> = vars.iter().map(|v| ptr(v.binding())).collect();
        rest.sort_unstable();
        flat.sort_unstable();
        assert_eq!(rest, flat, "then the vars");

        let (gs, gd) = (src.generation(), dst.generation());
        assert_eq!(stm.migrate(&movers, &dst, &[&src]), SwitchOutcome::Switched);
        assert_eq!(src.generation(), gs + 1, "one window on the source");
        assert_eq!(dst.generation(), gd + 1, "one window on the destination");
        assert_eq!(map.partition_of(), dst.id(), "arena home moved");
        let mut strays = 0;
        map.for_each_binding(&mut |b| strays += usize::from(b.partition_id() != dst.id()));
        assert_eq!(strays, 0, "every slot and root moved");
        assert!(vars.iter().all(|v| v.partition_id() == dst.id()));
        let sum: u64 = map.snapshot_pairs().iter().map(|(_, v)| v).sum();
        assert_eq!(sum, 800, "contents survive the move");
        assert_eq!(ctx.run(|tx| map.get(tx, 3)), Some(100));
    }

    /// Any arena-backed structure tears, not only a hash map: hot writes on
    /// a few keys of a red-black tree name exactly those keys' slots, and
    /// tearing them out and healing them back leaves the tree intact.
    #[test]
    fn a_tree_tears_and_heals() {
        use partstm_core::AccessProfiler;
        use partstm_structures::TRbTree;
        const KEYS: u64 = 64;
        let stm = Stm::new();
        let part = stm.new_partition(PartitionConfig::named("tree"));
        let tree = Arc::new(TRbTree::new(Arc::clone(&part)));
        let ctx = stm.register_thread();
        for k in 0..KEYS {
            ctx.run(|tx| tree.put(tx, k, k).map(|_| ()));
        }
        let dir = StaticDirectory::new();
        dir.register_collection(Arc::clone(&tree) as Arc<dyn MigratableCollection>);

        // The slots with a live field in each bucket.
        let mut owners: Vec<Vec<u32>> = vec![Vec::new(); PROFILE_BUCKETS as usize];
        let nodes = tree.node_arena().expect("a tree has a node arena");
        nodes.for_each_live_field(&mut |raw, m| owners[bucket_of(m.var_addr()) as usize].push(raw));
        owners.iter_mut().for_each(Vec::dedup);

        // Drive hot writes, one key at a time, and keep three keys whose
        // written bucket no other slot shares: those buckets name exactly
        // the hot keys' slots.
        let profiler = Arc::new(AccessProfiler::new(1, 64));
        stm.set_profiler(Arc::clone(&profiler));
        let (mut buckets, mut slots) = (Vec::new(), Vec::new());
        for k in 0..KEYS {
            ctx.run(|tx| tree.put(tx, k, k + 1).map(|_| ()));
            let written: Vec<u16> = profiler
                .drain()
                .iter()
                .flat_map(|s| &s.touched)
                .flat_map(|t| &t.buckets)
                .filter(|b| b.writes > 0)
                .map(|b| b.bucket)
                .collect();
            if let [b] = written[..] {
                if let [raw] = owners[b as usize][..] {
                    buckets.push(b);
                    slots.push(raw);
                }
            }
            if slots.len() == 3 {
                break;
            }
        }
        stm.clear_profiler();
        assert_eq!(slots.len(), 3, "three uncontested hot keys");
        buckets.sort_unstable();
        slots.sort_unstable();

        let sets = dir.collect_tears(part.id(), &buckets, 0.5);
        assert_eq!(sets.len(), 1, "one set, for the tree");
        assert_eq!(sets[0].raw, slots, "exactly the hot keys' slots");

        let pairs = tree.snapshot_pairs();
        let height = tree.check_invariants();
        let torn = stm.new_partition(PartitionConfig::named("torn"));
        dir.mark_torn(&sets[0]);
        assert_eq!(
            stm.migrate(&sets[0], &torn, &[&part]),
            SwitchOutcome::Switched
        );
        let mut moved = 0;
        sets[0].for_each_binding(&mut |b| moved += usize::from(b.partition_id() == torn.id()));
        assert_eq!(moved, 3 * 6, "three slots, six fields each");
        assert_eq!(tree.partition_of(), part.id(), "home stays on a tear");
        assert_eq!(ctx.run(|tx| tree.get(tx, 0)), Some(1), "torn tree reads");
        assert_eq!(
            stm.migrate(&sets[0], &part, &[&torn]),
            SwitchOutcome::Switched
        );
        dir.unmark_torn(&sets[0]);

        assert_eq!(tree.snapshot_pairs(), pairs);
        assert_eq!(tree.check_invariants(), height);
        assert_eq!(tree.partition_of(), part.id());
    }
}
