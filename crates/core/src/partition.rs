//! Partitions: the unit of concurrency-control specialization.
//!
//! A partition owns its own ownership-record table and its own (atomically
//! switchable) configuration word, so the STM performs conflict detection
//! *separately per partition* and the tuner adjusts each partition
//! independently — the core mechanism of the paper.

use core::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::config::{self, DynConfig, Granularity, PartitionConfig};
use crate::orec::{Orec, RingSlot};
use crate::stats::{PartitionStats, StatCounters};

/// Identifier of a partition within one [`crate::Stm`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionId(pub u32);

/// Multiplicative hash constant (Fibonacci hashing) for address mixing.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// State consumed by the tuner between evaluations.
#[derive(Debug)]
pub(crate) struct TuneState {
    pub(crate) last: StatCounters,
    pub(crate) last_at: Instant,
}

/// The orec-table allocations a partition owns: exactly one table and
/// its version ring. A live resize swaps both and hands the old pair back
/// to the resize window, which frees it once the window has closed
/// ([`Partition::install_table`]); the memory a partition holds is its
/// current capacity, however often it was resized.
#[derive(Debug)]
struct TableHold {
    current: Box<[Orec]>,
    /// Version-ring allocation for `current` (`current.len() × ring
    /// depth` slots, flat).
    ring: Box<[RingSlot]>,
}

/// One record evicted (or diverted) from an orec's version ring into the
/// partition's overflow list because a pinned snapshot reader may still
/// need it. Same semantics as [`RingSlot`]; the list is mutex-guarded.
#[derive(Debug, Clone, Copy)]
struct OverflowRecord {
    addr: usize,
    val: u64,
    to: u64,
}

/// The overflow list plus its amortized-prune watermark.
#[derive(Debug, Default)]
struct Overflow {
    records: Vec<OverflowRecord>,
    /// Next length at which a prune pass runs (doubling watermark keeps
    /// pruning O(1) amortized per push).
    prune_at: usize,
}

/// A data partition with private STM metadata. Created via
/// [`crate::Stm::new_partition`]; shared as `Arc<Partition>`.
#[derive(Debug)]
pub struct Partition {
    pub(crate) id: PartitionId,
    pub(crate) stm_id: u64,
    name: String,
    /// Current dynamic configuration word (see [`crate::config`]).
    pub(crate) config: CachePadded<AtomicU64>,
    /// Hot-path view of the orec table: base pointer + index mask
    /// (`len - 1`, table size is a power of two). Swapped only by
    /// [`Partition::install_table`] inside the resize protocol's
    /// flag→quiesce window; the engine snapshots both once per attempt in
    /// its partition view (sound for the same reason the config decode is
    /// — see the `txn` module docs).
    table: AtomicPtr<Orec>,
    mask: AtomicUsize,
    /// Hot-path view of the version rings: flat base pointer
    /// (`orec_count × ring_depth` slots; orec *i* owns slots
    /// `i*depth..(i+1)*depth`). Swapped only inside the same
    /// flag→quiesce windows as `table`/`mask`.
    ring: AtomicPtr<RingSlot>,
    /// Slots per orec ring, fixed at creation.
    ring_depth: usize,
    /// Ring records that could not be recycled in place because a pinned
    /// snapshot reader may still need the victim (see
    /// [`crate::snapshot`]); consulted by readers on a ring miss.
    overflow: Mutex<Overflow>,
    /// `overflow.records.len()` mirror, so the read path can skip the
    /// mutex when the list is empty (the overwhelmingly common case).
    overflow_len: AtomicUsize,
    /// Owning allocations behind `table` and `ring`.
    tables: Mutex<TableHold>,
    /// [`crate::telemetry::now_micros`] timestamp at which the current
    /// privatization window began, or 0 when the partition is not
    /// privately held. Stamped/cleared by [`crate::privatize`]; feeds the
    /// leaked-guard hold-age alarm.
    pub(crate) privatized_at_micros: AtomicU64,
    pub(crate) stats: PartitionStats,
    /// Whether the runtime tuner may reconfigure this partition.
    pub(crate) tunable: bool,
    /// Commits credited, one stride at a time, toward the tuner's next
    /// window; a full window is claimed by subtracting it ([`crate::tuner`],
    /// "Cadence").
    pub(crate) tune_gate: CachePadded<AtomicU64>,
    pub(crate) tune_state: Mutex<TuneState>,
}

/// Allocates an orec table of `n` entries, every record stamped with
/// `version` and no readers.
fn alloc_table(n: usize, version: u64) -> Box<[Orec]> {
    let word = crate::orec::make_version(version);
    let mut orecs = Vec::with_capacity(n);
    orecs.resize_with(n, || {
        let o = Orec::default();
        o.lock.store(word, Ordering::Relaxed);
        o
    });
    orecs.into_boxed_slice()
}

/// Allocates a flat, empty version-ring array for `n` orecs of `depth`
/// slots each.
fn alloc_ring(n: usize, depth: usize) -> Box<[RingSlot]> {
    let mut slots = Vec::with_capacity(n * depth);
    slots.resize_with(n * depth, RingSlot::default);
    slots.into_boxed_slice()
}

/// Maps a word address to an orec index under granularity `g` for a table
/// with index mask `mask`. Shared by the engine's cached-view hot path and
/// the partition's own control-plane [`Partition::orec_for`].
#[inline(always)]
pub(crate) fn orec_index(mask: usize, addr: usize, g: Granularity) -> usize {
    let key = match g {
        Granularity::Word => addr >> 3,
        Granularity::Stripe { shift } => addr >> shift,
        Granularity::PartitionLock => return 0,
    };
    (((key as u64).wrapping_mul(MIX)) >> 32) as usize & mask
}

impl Partition {
    pub(crate) fn new(id: PartitionId, stm_id: u64, cfg: &PartitionConfig) -> Arc<Self> {
        let n = cfg.orec_count.next_power_of_two().max(1);
        let depth = cfg
            .ring_depth
            .clamp(config::MIN_RING_DEPTH, config::MAX_RING_DEPTH);
        let current = alloc_table(n, 0);
        let table = AtomicPtr::new(current.as_ptr() as *mut Orec);
        let ring = alloc_ring(n, depth);
        let ring_ptr = AtomicPtr::new(ring.as_ptr() as *mut RingSlot);
        Arc::new(Partition {
            id,
            stm_id,
            name: if cfg.name.is_empty() {
                format!("partition-{}", id.0)
            } else {
                cfg.name.clone()
            },
            config: CachePadded::new(AtomicU64::new(config::encode(DynConfig::from(cfg), 0))),
            table,
            mask: AtomicUsize::new(n - 1),
            ring: ring_ptr,
            ring_depth: depth,
            overflow: Mutex::new(Overflow::default()),
            overflow_len: AtomicUsize::new(0),
            tables: Mutex::new(TableHold { current, ring }),
            privatized_at_micros: AtomicU64::new(0),
            stats: PartitionStats::default(),
            tunable: cfg.tune,
            tune_gate: CachePadded::new(AtomicU64::new(0)),
            tune_state: Mutex::new(TuneState {
                last: StatCounters::default(),
                last_at: Instant::now(),
            }),
        })
    }

    /// Partition id.
    #[inline]
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// Partition name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of ownership records in the table. No longer fixed at
    /// construction: a live [`crate::Stm::resize_orecs`] may change it.
    pub fn orec_count(&self) -> usize {
        self.mask.load(Ordering::Acquire) + 1
    }

    /// Version-ring depth: committed-version records each orec retains for
    /// the snapshot read path (see [`crate::snapshot`]). Fixed at creation
    /// by [`PartitionConfig::ring`].
    pub fn ring_depth(&self) -> usize {
        self.ring_depth
    }

    /// Records currently parked on the overflow list — ring evictions
    /// diverted because a pinned snapshot reader might still need them.
    /// Exposed as telemetry: a persistently large overflow means the ring
    /// depth is too small for the read-pin pattern.
    pub fn overflow_len(&self) -> usize {
        self.overflow_len.load(Ordering::Acquire)
    }

    /// Hot-path snapshot of the version rings: `(base pointer, depth)`.
    /// Same validity contract as [`Partition::table_view`]: meaningful only
    /// after observing the config word with the switching flag clear in the
    /// same attempt, because ring swaps happen strictly inside
    /// flag→quiesce windows, and dereferenceable only until that attempt
    /// ends (a resize frees the old ring once its window has closed).
    #[inline(always)]
    pub(crate) fn ring_view(&self) -> (*const RingSlot, usize) {
        (self.ring.load(Ordering::Acquire), self.ring_depth)
    }

    /// Parks a version record on the overflow list because the would-be
    /// ring victim is still protected by `floor` (a pinned reader may need
    /// it). Prunes records with `to <= floor` at a doubling watermark, so
    /// pruning is O(1) amortized per push and the list length stays
    /// proportional to the records actually protected.
    pub(crate) fn overflow_push(&self, addr: usize, val: u64, to: u64, floor: u64) {
        let mut ovf = self.overflow.lock();
        if ovf.records.len() >= ovf.prune_at {
            ovf.records.retain(|r| r.to > floor);
            ovf.prune_at = (ovf.records.len() * 2).max(64);
        }
        ovf.records.push(OverflowRecord { addr, val, to });
        self.overflow_len
            .store(ovf.records.len(), Ordering::Release);
    }

    /// Overflow half of the snapshot history lookup: among records for
    /// `addr` with close stamp strictly greater than `t`, returns the one
    /// with the smallest stamp as `(val, to)`. Callers merge this with the
    /// ring scan by taking the overall-smallest stamp.
    pub(crate) fn overflow_best(&self, addr: usize, t: u64) -> Option<(u64, u64)> {
        let ovf = self.overflow.lock();
        ovf.records
            .iter()
            .filter(|r| r.addr == addr && r.to > t)
            .min_by_key(|r| r.to)
            .map(|r| (r.val, r.to))
    }

    /// Whether the runtime tuner may reconfigure this partition.
    pub fn is_tunable(&self) -> bool {
        self.tunable
    }

    /// Snapshot of the partition's cumulative statistics.
    pub fn stats(&self) -> StatCounters {
        self.stats.snapshot()
    }

    /// Current dynamic configuration (decoded; racy by nature — a switch
    /// may follow immediately).
    pub fn current_config(&self) -> DynConfig {
        config::decode(self.config.load(Ordering::SeqCst))
    }

    /// Raw config word (SeqCst: part of the switch protocol).
    #[inline(always)]
    pub(crate) fn config_word(&self) -> u64 {
        self.config.load(Ordering::SeqCst)
    }

    /// Generation counter of the current configuration.
    pub fn generation(&self) -> u32 {
        config::generation(self.config.load(Ordering::SeqCst))
    }

    /// Whether this partition is currently privatized — held by a
    /// [`crate::PrivateGuard`] for non-transactional bulk access. Racy by
    /// nature (the guard may republish immediately after the load);
    /// intended for telemetry and for controllers that should not propose
    /// actions against a privately held partition.
    pub fn is_privatized(&self) -> bool {
        config::is_privatized(self.config.load(Ordering::SeqCst))
    }

    /// How long the current privatization window has been open, or `None`
    /// when the partition is not privately held. Racy by nature (the
    /// guard may republish concurrently); intended for the leaked-guard
    /// hold-age alarm (see [`crate::privatize::check_hold_alarm`]) and
    /// reports.
    pub fn privatized_for(&self) -> Option<std::time::Duration> {
        let at = self.privatized_at_micros.load(Ordering::Acquire);
        if at == 0 || !self.is_privatized() {
            return None;
        }
        let now = crate::telemetry::now_micros();
        Some(std::time::Duration::from_micros(now.saturating_sub(at)))
    }

    /// Encounter locks currently held in this partition's table by thread
    /// slot `owner`. Racy diagnostic (same contract as
    /// [`Partition::debug_scan`]); used by the quiesce hard-deadline path
    /// to attribute held locks to a stuck slot.
    pub(crate) fn held_locks_of(&self, owner: usize) -> usize {
        let hold = self.tables.lock();
        hold.current
            .iter()
            .filter(|o| {
                let l = o.lock.load(Ordering::SeqCst);
                crate::orec::is_locked(l) && crate::orec::owner_of(l) == owner
            })
            .count()
    }

    /// Hot-path snapshot of the orec table: `(base pointer, index mask)`.
    ///
    /// Only meaningful after observing this partition's config word with
    /// the switching flag *clear* in the same attempt (the engine does this
    /// at view creation): the resize protocol swaps the table strictly
    /// inside a flag→quiesce window, so an attempt that got past the flag
    /// check cannot interleave with a swap and the two loads are mutually
    /// consistent.
    ///
    /// The pointer is dereferenceable only while no resize can complete
    /// on this partition: inside the attempt that loaded it (a resize's
    /// drain waits that attempt out before freeing the old table), under
    /// the `tables` mutex, or on a single thread. See
    /// [`Partition::install_table`] for the full list of consumers.
    #[inline(always)]
    pub(crate) fn table_view(&self) -> (*const Orec, usize) {
        (
            self.table.load(Ordering::Acquire),
            self.mask.load(Ordering::Acquire),
        )
    }

    /// Maps a word address to its ownership record under granularity `g`.
    ///
    /// Test convenience; the engine resolves orecs through the per-attempt
    /// cached [`Partition::table_view`] instead. The returned reference
    /// is valid until the next [`Partition::install_table`], which frees
    /// the table it points into.
    #[cfg(test)]
    #[inline(always)]
    pub(crate) fn orec_for(&self, addr: usize, g: Granularity) -> &Orec {
        let (table, mask) = self.table_view();
        // SAFETY: `table` points at the `mask + 1` orecs of
        // `self.tables.current`; tests call this on one thread, with no
        // resize between the lookup and the last use of the reference.
        unsafe { &*table.add(orec_index(mask, addr, g)) }
    }

    /// Resets every ownership record to `version` with no readers.
    ///
    /// Called by the configuration-switch protocol *after* quiescence and
    /// *before* installing the new config word: a granularity change remaps
    /// addresses onto orecs whose stored versions are stale for their new
    /// coverage, so every orec is stamped with the current clock — any
    /// transaction with an older snapshot is then forced to extend (and
    /// revalidate) or abort on first contact.
    ///
    /// Safety of the protocol (not memory safety): during the window in
    /// which this runs, no transaction holds locks, reader bits or read-set
    /// entries on this partition — old-config transactions were drained by
    /// the quiesce and new transactions abort on the switching flag before
    /// touching any orec.
    pub(crate) fn reset_orecs(&self, version: u64) {
        use core::sync::atomic::Ordering;
        let word = crate::orec::make_version(version);
        let hold = self.tables.lock();
        for o in hold.current.iter() {
            debug_assert!(
                !crate::orec::is_locked(o.lock.load(Ordering::SeqCst)),
                "orec locked during a partition switch"
            );
            o.lock.store(word, Ordering::SeqCst);
            o.readers.store(0, Ordering::SeqCst);
        }
        // Version history is invalidated along with the orec stamps: after
        // a granularity change or migration the (addr → record) association
        // is stale. Discarding it is safe for snapshot readers — see the
        // migration argument in the `snapshot` module docs (readers that
        // pinned before this window were drained by the quiesce; readers
        // that pin after it get T ≥ the reset clock, which upper-bounds
        // every discarded record's close stamp).
        // The orecs' ring cursors stay where they are: round-robin from any
        // slot of an empty ring still fills it in stamp order.
        for s in hold.ring.iter() {
            s.clear();
        }
        drop(hold);
        let mut ovf = self.overflow.lock();
        ovf.records.clear();
        ovf.prune_at = 0;
        self.overflow_len.store(0, Ordering::Release);
    }

    /// Replaces the orec table with a fresh one of `count` entries (a
    /// power of two), every record stamped with `version`, and its version
    /// ring with a fresh empty one; hands the old `(table, ring)` pair
    /// back. The capacity half of [`crate::Stm::resize_orecs`].
    ///
    /// # Protocol
    ///
    /// Must only be called inside the resize protocol's window: this
    /// partition's switching flag set *and* quiescence reached, so no
    /// transaction holds orec pointers, locks, reader bits or read-set
    /// entries against the old table, and none will look at the table
    /// until the flag clears (which the caller does strictly afterwards).
    ///
    /// # Freeing the old pair
    ///
    /// The caller drops the returned pair once the window has closed (the
    /// quiesce module docs, "What a closed window frees"). Nothing can
    /// still dereference it then, because every consumer of
    /// [`Partition::table_view`] / [`Partition::ring_view`] is one of:
    ///
    /// - **an attempt** — `Tx`'s and `ReadTx`'s view creation, which load
    ///   both pointers only after observing the switching flag clear. An
    ///   attempt that loaded the old pair began before the window's epoch
    ///   bump, so the drain waited until it left (every orec and ring
    ///   access of an attempt, its rollback's unlocks and reader-bit
    ///   clears included, precedes the release store that leaves it); an
    ///   attempt that begins after the bump sees the flag and restarts
    ///   without touching the table, or, after the close, loads the new
    ///   pair;
    /// - **a holder of the `tables` mutex** — `debug_scan`,
    ///   `held_locks_of` and `reset_orecs` reach the table through
    ///   [`TableHold`], never through a pointer loaded earlier, and this
    ///   swap runs under the same mutex;
    /// - **a single-threaded test**, which resizes only between uses.
    ///
    /// Contended and timed-out windows never call this, so they have
    /// nothing to free.
    #[must_use = "the retired pair is freed by dropping it once the window has closed"]
    pub(crate) fn install_table(
        &self,
        count: usize,
        version: u64,
    ) -> (Box<[Orec]>, Box<[RingSlot]>) {
        debug_assert!(count.is_power_of_two());
        let new = alloc_table(count, version);
        let mut hold = self.tables.lock();
        debug_assert!(
            !hold.current.iter().any(|o| {
                crate::orec::is_locked(o.lock.load(core::sync::atomic::Ordering::SeqCst))
            }),
            "orec locked during a table resize"
        );
        self.table
            .store(new.as_ptr() as *mut Orec, Ordering::Release);
        self.mask.store(count - 1, Ordering::Release);
        let old = std::mem::replace(&mut hold.current, new);
        // The rings are indexed by orec, so a table resize needs a fresh
        // (empty) ring array of the new size. Discarded history is safe
        // for readers by the same argument as in `reset_orecs`.
        let new_ring = alloc_ring(count, self.ring_depth);
        self.ring
            .store(new_ring.as_ptr() as *mut RingSlot, Ordering::Release);
        let old_ring = std::mem::replace(&mut hold.ring, new_ring);
        drop(hold);
        let mut ovf = self.overflow.lock();
        ovf.records.clear();
        ovf.prune_at = 0;
        self.overflow_len.store(0, Ordering::Release);
        drop(ovf);
        self.stats.orec_resizes(1);
        (old, old_ring)
    }

    /// Diagnostic scan of the orec table: `(locked_count, owner_slots,
    /// max_unlocked_version)`. Racy by nature; intended for debugging and
    /// health checks, not for synchronization.
    pub fn debug_scan(&self) -> (usize, Vec<usize>, u64) {
        use core::sync::atomic::Ordering;
        let mut locked = 0;
        let mut owners = Vec::new();
        let mut max_version = 0;
        let hold = self.tables.lock();
        for o in hold.current.iter() {
            let l = o.lock.load(Ordering::SeqCst);
            if crate::orec::is_locked(l) {
                locked += 1;
                owners.push(crate::orec::owner_of(l));
            } else {
                max_version = max_version.max(crate::orec::version_of(l));
            }
        }
        owners.sort_unstable();
        owners.dedup();
        (locked, owners, max_version)
    }

    /// Resets the tuner's observation window for this partition: the next
    /// tuning evaluation starts from a fresh statistics snapshot and a
    /// full commit window. Called after structural actions (orec-table
    /// resize, repartition) so the tuner judges the *new* shape on its own
    /// statistics instead of deltas that straddle the change — the
    /// tuner/controller cooperation half of the resize design.
    pub(crate) fn reset_tuning_window(&self) {
        let mut st = self.tune_state.lock();
        st.last = self.stats.snapshot();
        st.last_at = Instant::now();
        drop(st);
        self.tune_gate.store(0, Ordering::Relaxed);
        crate::telemetry::control_event(
            crate::telemetry::EventKind::TunerWindowReset,
            self.id.0 as u64,
            0,
            0,
        );
    }

    /// First orec of the current table, for tests asserting table identity
    /// across (rolled-back) resizes.
    #[cfg(test)]
    pub(crate) fn table_ptr(&self) -> *const Orec {
        self.table.load(Ordering::Acquire)
    }

    /// Lengths of the one table and the one ring this partition owns,
    /// checked against the published registers: tests assert that a
    /// resize leaves nothing else behind.
    #[cfg(test)]
    pub(crate) fn held_allocations(&self) -> (usize, usize) {
        let hold = self.tables.lock();
        assert_eq!(hold.current.as_ptr(), self.table_ptr());
        assert_eq!(hold.current.len(), self.orec_count());
        assert_eq!(hold.ring.as_ptr(), self.ring_view().0);
        (hold.current.len(), hold.ring.len())
    }

    /// Test hook: forcibly sets or clears this partition's switching flag,
    /// simulating a concurrent switch holding the partition. While the
    /// flag is set, transactions touching the partition abort-and-retry
    /// and switches/repartitions involving it report
    /// [`Contended`](crate::SwitchOutcome::Contended).
    ///
    /// For failure-injection tests only — never call this in production
    /// code (clearing a flag a real switch owns would corrupt the
    /// protocol).
    #[doc(hidden)]
    pub fn debug_force_switch_flag(&self, on: bool) {
        let old = self.config.load(Ordering::SeqCst);
        let new = if on {
            old | config::SWITCHING_BIT
        } else {
            old & !config::SWITCHING_BIT
        };
        self.config.store(new, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReadMode;

    fn part(cfg: PartitionConfig) -> Arc<Partition> {
        Partition::new(PartitionId(3), 7, &cfg)
    }

    #[test]
    fn table_size_rounds_to_power_of_two() {
        let p = part(PartitionConfig::default().orecs(1000));
        assert_eq!(p.orec_count(), 1024);
        let p = part(PartitionConfig::default().orecs(1));
        assert_eq!(p.orec_count(), 1);
    }

    #[test]
    fn default_name_includes_id() {
        let p = part(PartitionConfig::default());
        assert_eq!(p.name(), "partition-3");
        let p = part(PartitionConfig::named("tree"));
        assert_eq!(p.name(), "tree");
    }

    #[test]
    fn partition_lock_granularity_uses_single_orec() {
        let p = part(PartitionConfig::default().orecs(64));
        let a = p.orec_for(0x1000, Granularity::PartitionLock) as *const Orec;
        let b = p.orec_for(0xDEAD_BEE8, Granularity::PartitionLock) as *const Orec;
        assert_eq!(a, b);
        assert_eq!(a, p.table_ptr());
    }

    /// Every orec of the current table is unlocked and carries `version`.
    fn assert_all_stamped(p: &Partition, version: u64) {
        let hold = p.tables.lock();
        for o in hold.current.iter() {
            assert_eq!(
                o.lock.load(Ordering::SeqCst),
                crate::orec::make_version(version)
            );
        }
    }

    #[test]
    fn install_table_swaps_capacity_and_returns_the_old_pair() {
        let p = part(PartitionConfig::default().orecs(64).ring(4));
        assert_eq!(p.orec_count(), 64);
        assert_eq!(p.stats().orec_resizes, 0);
        let old = p.table_ptr();
        let (old_ring, depth) = p.ring_view();
        let (table, ring) = p.install_table(512, 7);
        assert_eq!(p.orec_count(), 512);
        assert_eq!(p.held_allocations(), (512, 512 * depth));
        assert_eq!(p.stats().orec_resizes, 1);
        assert_ne!(p.table_ptr(), old, "fresh table");
        assert_ne!(p.ring_view().0, old_ring, "fresh ring");
        assert_all_stamped(&p, 7);
        // The caller now owns the old pair, whole; dropping it frees it
        // and leaves the partition untouched.
        assert_eq!((table.as_ptr(), table.len()), (old, 64));
        assert_eq!((ring.as_ptr(), ring.len()), (old_ring, 64 * depth));
        drop((table, ring));
        assert_all_stamped(&p, 7);
        // Shrink works too.
        let (table, ring) = p.install_table(8, 9);
        assert_eq!((table.len(), ring.len()), (512, 512 * depth));
        assert_eq!(p.orec_count(), 8);
        assert_eq!(p.held_allocations(), (8, 8 * depth));
        assert_eq!(p.stats().orec_resizes, 2);
        assert_all_stamped(&p, 9);
    }

    #[test]
    fn reset_tuning_window_clears_gate_and_resnapshots() {
        let p = part(PartitionConfig::default().tunable());
        p.tune_gate.store(99, Ordering::Relaxed);
        p.stats.commits(0, 5);
        p.reset_tuning_window();
        assert_eq!(p.tune_gate.load(Ordering::Relaxed), 0);
        assert_eq!(p.tune_state.lock().last.commits, 5, "fresh snapshot");
    }

    #[test]
    fn word_granularity_separates_neighbouring_words() {
        let p = part(PartitionConfig::default().orecs(1 << 12));
        let base = 0x7f00_0000_0000usize;
        let mut distinct = std::collections::HashSet::new();
        for i in 0..64 {
            distinct.insert(p.orec_for(base + i * 8, Granularity::Word) as *const Orec as usize);
        }
        // With 4096 orecs and 64 distinct words, expect little aliasing.
        assert!(
            distinct.len() > 48,
            "only {} distinct orecs",
            distinct.len()
        );
    }

    #[test]
    fn stripe_granularity_groups_within_stripe() {
        let p = part(PartitionConfig::default().orecs(1 << 12));
        let g = Granularity::Stripe { shift: 8 }; // 256-byte stripes
        let base = 0x5000_0000usize; // 256-aligned
        let o0 = p.orec_for(base, g) as *const Orec;
        for off in (0..256).step_by(8) {
            assert_eq!(p.orec_for(base + off, g) as *const Orec, o0);
        }
        // Neighbouring stripes usually map elsewhere.
        let o1 = p.orec_for(base + 256, g) as *const Orec;
        assert_ne!(o0, o1);
    }

    #[test]
    fn ring_depth_clamped_and_sized_with_table() {
        let p = part(PartitionConfig::default().orecs(64).ring(0));
        assert_eq!(p.ring_depth(), config::MIN_RING_DEPTH, "clamped up");
        let p = part(PartitionConfig::default().orecs(64).ring(1 << 20));
        assert_eq!(p.ring_depth(), config::MAX_RING_DEPTH, "clamped down");
        let p = part(PartitionConfig::default().orecs(64).ring(8));
        assert_eq!(p.ring_depth(), 8);
        let (ptr, depth) = p.ring_view();
        assert!(!ptr.is_null());
        assert_eq!(depth, 8);
    }

    #[test]
    fn resize_clears_rings_and_overflow() {
        let p = part(PartitionConfig::default().orecs(16).ring(2));
        p.overflow_push(0x40, 9, 3, 0);
        assert_eq!(p.overflow_len(), 1);
        assert_eq!(p.overflow_best(0x40, 2), Some((9, 3)));
        assert_eq!(p.overflow_best(0x40, 3), None, "to must exceed t");
        assert_eq!(p.overflow_best(0x48, 2), None, "address mismatch");
        drop(p.install_table(32, 7));
        assert_eq!(p.overflow_len(), 0);
        assert_eq!(p.overflow_best(0x40, 2), None);
        assert_eq!(p.ring_depth(), 2, "a resize keeps the depth");
        let (ptr, depth) = p.ring_view();
        assert_eq!(depth, 2);
        for i in 0..32 * depth {
            // SAFETY: fresh ring of 32 × 2 slots, alive as long as `p`.
            assert_eq!(unsafe { &*ptr.add(i) }.load().2, 0);
        }
    }

    #[test]
    fn overflow_prunes_below_floor_at_watermark() {
        let p = part(PartitionConfig::default().orecs(1));
        // Fill past the first watermark (64) with stale records, floor 100.
        for i in 0..70 {
            p.overflow_push(8 * i, 1, 10, 100);
        }
        // The prune pass at len == 64 dropped everything stale; the list
        // can never grow proportionally to dead records.
        assert!(p.overflow_len() < 70, "prune ran: {}", p.overflow_len());
        // Protected records (to > floor) survive pruning.
        for i in 0..70 {
            p.overflow_push(8 * i, 2, 200, 100);
        }
        assert!(p.overflow_len() >= 70);
        assert_eq!(p.overflow_best(0, 150), Some((2, 200)));
    }

    #[test]
    fn reset_orecs_clears_history() {
        let p = part(PartitionConfig::default().orecs(4).ring(2));
        let (ptr, _) = p.ring_view();
        // SAFETY: ring has 4 × 2 slots, alive as long as `p`.
        unsafe { &*ptr }.publish(0x10, 77, 9);
        p.overflow_push(0x10, 78, 10, 0);
        p.reset_orecs(42);
        // SAFETY: same ring (reset clears in place, no swap).
        assert_eq!(unsafe { &*ptr }.load().2, 0);
        assert_eq!(p.overflow_len(), 0);
    }

    #[test]
    fn config_roundtrip_through_partition() {
        let p = part(
            PartitionConfig::default()
                .read_mode(ReadMode::Visible)
                .tunable(),
        );
        assert_eq!(p.current_config().read_mode, ReadMode::Visible);
        assert!(p.is_tunable());
        assert_eq!(p.generation(), 0);
    }
}
