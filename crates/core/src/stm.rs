//! The STM runtime: thread registration, partition creation and the
//! single-partition control-plane operations (configuration switch, orec
//! resize) — each one mutation under a quiesce window
//! (`quiesce.rs`).

use core::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crossbeam_utils::CachePadded;
use parking_lot::{Mutex, RwLock};

use crate::clock::GlobalClock;
use crate::config::{self, DynConfig, PartitionConfig};
use crate::partition::{Partition, PartitionId};
use crate::profiler::AccessProfiler;
use crate::quiesce::QuiesceWindow;
use crate::telemetry::EventKind;
use crate::tuner::TuningPolicy;
use crate::txn::TxScratch;

/// Upper bound on registered threads (reader bitmaps are 64 bits wide).
pub const MAX_THREADS: usize = 64;

/// Default for how long a configuration switch or repartition may wait for
/// quiescence before the runtime assumes a stuck transaction and gives up
/// (a healthy workload quiesces in microseconds). Giving up rolls the
/// operation back and reports [`SwitchOutcome::TimedOut`] — in every build
/// profile; a timeout never panics. Override per runtime with
/// [`StmBuilder::quiesce_timeout`].
pub(crate) const QUIESCE_TIMEOUT: Duration = Duration::from_secs(10);

/// Result of [`Stm::switch_partition`], [`Stm::resize_orecs`] and of the
/// repartition entry points ([`Stm::migrate`], [`Stm::migrate_pvars`]):
/// how the operation's quiesce window ended.
/// Only [`Switched`](SwitchOutcome::Switched) changes anything; the other
/// three leave every involved partition — config word, generation, orec
/// table, version ring, bindings — exactly as found.
///
/// Marked `#[must_use]`: a dropped outcome silently ignores a rolled-back
/// or contended switch — callers must at least decide that they don't care
/// (`let _ = ...`).
#[must_use = "a switch may be rolled back (Contended/TimedOut); check or explicitly ignore the outcome"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchOutcome {
    /// The change was installed (generation bumped on every involved
    /// partition).
    Switched,
    /// The requested state equals the current one; nothing was flagged.
    Unchanged,
    /// Another control-plane operation (switch, resize, repartition,
    /// privatization) owns an involved partition; retryable.
    Contended,
    /// Quiescence was not reached within the timeout: the operation was
    /// rolled back and may be retried. A transaction is likely stuck or
    /// extremely long-running; the event is logged (rate-limited) through
    /// [`rtlog`](crate::rtlog). Never a panic, in any build profile.
    TimedOut,
}

impl SwitchOutcome {
    /// `true` iff the new configuration was installed.
    #[inline]
    pub fn switched(self) -> bool {
        matches!(self, SwitchOutcome::Switched)
    }
}

/// Per-thread slot, visible to all threads (for kills and quiescence).
#[derive(Debug, Default)]
pub(crate) struct ThreadSlot {
    /// Attempt sequence: even = outside any transaction, odd = inside.
    pub(crate) seq: AtomicU64,
    /// Value of the global switch epoch when the current attempt began.
    pub(crate) start_epoch: AtomicU64,
    /// Serial number of the thread's current transaction attempt.
    pub(crate) serial: AtomicU64,
    /// Kill request: the serial of the attempt that should abort (0 = none).
    pub(crate) kill: AtomicU64,
    /// Snapshot timestamp pinned by an in-flight read-only transaction on
    /// this thread (`u64::MAX` = none pinned). Published *before* the
    /// snapshot's clock read so the eviction floor never overtakes a
    /// concurrent pin — see the hazard argument in [`crate::snapshot`].
    pub(crate) ro_snap: AtomicU64,
    /// Whether the slot is currently assigned to a live thread.
    pub(crate) registered: AtomicBool,
}

impl ThreadSlot {
    /// Announces an attempt (update or snapshot): turns `seq` odd, then
    /// publishes the switch epoch the attempt began under. The `SeqCst`
    /// RMW is the attempt's one store→load fence against the quiesce
    /// window's drain (`quiesce.rs`); `start_epoch` only needs release (the
    /// argument is in the `txn` module docs, "One full fence per
    /// attempt").
    #[inline(always)]
    pub(crate) fn enter_attempt(&self, switch_epoch: &AtomicU64) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        debug_assert!(seq.is_multiple_of(2), "begin from inside a transaction");
        self.start_epoch
            .store(switch_epoch.load(Ordering::SeqCst), Ordering::Release);
    }

    /// Returns `seq` to even. Only the slot's owner writes `seq`, so a
    /// release store of "my odd value + 1" suffices: a quiescer that
    /// acquires the even value sees everything the attempt did, and one
    /// that still sees the odd value merely keeps waiting.
    #[inline(always)]
    pub(crate) fn leave_attempt(&self) {
        self.seq
            .store(self.seq.load(Ordering::Relaxed) + 1, Ordering::Release);
    }
}

pub(crate) struct StmInner {
    pub(crate) id: u64,
    pub(crate) clock: GlobalClock,
    pub(crate) slots: Box<[CachePadded<ThreadSlot>]>,
    free_slots: Mutex<Vec<usize>>,
    /// Bumped at the start of every configuration switch.
    pub(crate) switch_epoch: CachePadded<AtomicU64>,
    /// Every partition in creation order: a partition lives while something
    /// owns it (`pvar` module docs), and `new_partition` prunes dead ones.
    pub(crate) partitions: Mutex<Vec<Weak<Partition>>>,
    next_partition: AtomicU32,
    pub(crate) tuner: RwLock<Option<Arc<dyn TuningPolicy>>>,
    /// The installed policy's `window()`, read once at install and
    /// readable with one relaxed load on the commit path (0 = no tuner).
    /// Written under the `tuner` write lock, so it pairs with the policy;
    /// it publishes nothing (the policy itself is read under the lock).
    pub(crate) tune_window: CachePadded<AtomicU64>,
    /// How long switches/repartitions wait for quiescence before rolling
    /// back (see [`StmBuilder::quiesce_timeout`]).
    pub(crate) quiesce_timeout: Duration,
    /// Soft rescue deadline inside a quiesce drain: past this, the drain
    /// raises the kill flags of the blocking slots (see
    /// [`StmBuilder::kill_after`] and the drain in `quiesce.rs`). At or
    /// above `quiesce_timeout`, rescue is disabled.
    pub(crate) kill_after: Duration,
    /// Installed access profiler (see [`crate::profiler`]).
    pub(crate) profiler: RwLock<Option<Arc<AccessProfiler>>>,
    /// Sampling period copy, readable with one relaxed load on the
    /// transaction begin path (0 = profiling off).
    pub(crate) profile_period: CachePadded<AtomicU64>,
    /// Cached lower bound on every pinned snapshot timestamp: a ring
    /// victim with close stamp `to <= ro_floor` can be recycled without
    /// consulting the overflow list. Conservative by construction (capped
    /// at the clock value read *before* the slot scan), so a stale cache
    /// only diverts more records to overflow, never discards a needed one.
    /// Recomputed on demand by [`StmInner::ro_floor_recompute`].
    pub(crate) ro_floor: CachePadded<AtomicU64>,
}

impl StmInner {
    /// Recomputes and caches the snapshot eviction floor: the minimum over
    /// every registered thread's pinned snapshot timestamp, capped at the
    /// clock value read *before* the scan.
    ///
    /// The cap is what makes the cache sound with no pinned readers: a pin
    /// established after the scan re-reads the clock *after* publishing
    /// itself (see [`crate::snapshot`]), so its timestamp is at least the
    /// clock at publish time; any record such a reader could need closes at
    /// a stamp strictly greater than its timestamp ≥ clock-at-scan ≥ the
    /// returned floor, and therefore fails the `to <= floor` recycling test.
    pub(crate) fn ro_floor_recompute(&self) -> u64 {
        let cap = self.clock.now();
        let mut floor = cap;
        for slot in self.slots.iter() {
            if !slot.registered.load(Ordering::SeqCst) {
                continue;
            }
            floor = floor.min(slot.ro_snap.load(Ordering::SeqCst));
        }
        self.ro_floor.store(floor, Ordering::SeqCst);
        floor
    }
}

impl core::fmt::Debug for StmInner {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StmInner")
            .field("id", &self.id)
            .field("slots", &self.slots.len())
            .finish_non_exhaustive()
    }
}

static STM_IDS: AtomicU64 = AtomicU64::new(1);

/// Builder for [`Stm`].
#[derive(Debug, Clone)]
pub struct StmBuilder {
    max_threads: usize,
    quiesce_timeout: Duration,
    kill_after: Option<Duration>,
}

impl Default for StmBuilder {
    fn default() -> Self {
        StmBuilder {
            max_threads: MAX_THREADS,
            quiesce_timeout: QUIESCE_TIMEOUT,
            kill_after: None,
        }
    }
}

impl StmBuilder {
    /// Maximum number of concurrently registered threads (1..=64; reader
    /// bitmaps are 64 bits wide).
    pub fn max_threads(mut self, n: usize) -> Self {
        assert!(
            (1..=MAX_THREADS).contains(&n),
            "max_threads must be in 1..={MAX_THREADS}"
        );
        self.max_threads = n;
        self
    }

    /// How long a configuration switch or repartition may wait for every
    /// in-flight transaction to finish before rolling the operation back
    /// as [`SwitchOutcome::TimedOut`] (default 10 s). A healthy workload
    /// quiesces in microseconds; lower values make control-plane failure
    /// tests practical, higher ones tolerate extremely long transactions.
    pub fn quiesce_timeout(mut self, timeout: Duration) -> Self {
        self.quiesce_timeout = timeout;
        self
    }

    /// Soft rescue deadline inside a quiesce drain (default: a quarter of
    /// the quiesce timeout). A drain that has waited this long raises the
    /// kill flag of every transaction still blocking it; cooperative
    /// transactions (anything actually executing STM operations) observe
    /// the flag at their next read/write/validate/backoff boundary,
    /// abort through the ordinary lock-releasing abort path, and retry —
    /// unblocking the control plane long before the hard deadline. A
    /// genuinely unresponsive thread (descheduled, dead, or parked in
    /// user code) never polls its flag, so the hard
    /// [`quiesce_timeout`](StmBuilder::quiesce_timeout) still applies and
    /// produces a structured stuck-slot diagnostic. Set this at or above
    /// the quiesce timeout to disable kill rescue entirely.
    pub fn kill_after(mut self, deadline: Duration) -> Self {
        self.kill_after = Some(deadline);
        self
    }

    /// Builds the runtime.
    pub fn build(self) -> Stm {
        let mut slots = Vec::with_capacity(self.max_threads);
        slots.resize_with(self.max_threads, || CachePadded::new(ThreadSlot::default()));
        Stm {
            inner: Arc::new(StmInner {
                id: STM_IDS.fetch_add(1, Ordering::Relaxed),
                clock: GlobalClock::new(),
                slots: slots.into_boxed_slice(),
                free_slots: Mutex::new((0..self.max_threads).rev().collect()),
                switch_epoch: CachePadded::new(AtomicU64::new(0)),
                partitions: Mutex::new(Vec::new()),
                next_partition: AtomicU32::new(0),
                tuner: RwLock::new(None),
                tune_window: CachePadded::new(AtomicU64::new(0)),
                quiesce_timeout: self.quiesce_timeout,
                kill_after: self.kill_after.unwrap_or(self.quiesce_timeout / 4),
                profiler: RwLock::new(None),
                profile_period: CachePadded::new(AtomicU64::new(0)),
                ro_floor: CachePadded::new(AtomicU64::new(0)),
            }),
        }
    }
}

/// The partitioned STM runtime. Cheap to clone (an `Arc`).
#[derive(Debug, Clone)]
pub struct Stm {
    pub(crate) inner: Arc<StmInner>,
}

impl Stm {
    /// Runtime with default settings.
    pub fn new() -> Self {
        StmBuilder::default().build()
    }

    /// Builder for custom settings.
    pub fn builder() -> StmBuilder {
        StmBuilder::default()
    }

    /// Creates a new partition with the given configuration.
    pub fn new_partition(&self, cfg: PartitionConfig) -> Arc<Partition> {
        let id = PartitionId(self.inner.next_partition.fetch_add(1, Ordering::Relaxed));
        let p = Partition::new(id, self.inner.id, &cfg);
        let mut parts = self.inner.partitions.lock();
        // A dead entry's `Weak` still holds the partition's allocation.
        parts.retain(|w| w.strong_count() > 0);
        parts.push(Arc::downgrade(&p));
        p
    }

    /// Creates one partition per configuration, in order. The building
    /// block for materializing a computed partitioning plan (see the
    /// `MaterializePlan` glue in `partstm-analysis`).
    pub fn new_partitions<I>(&self, cfgs: I) -> Vec<Arc<Partition>>
    where
        I: IntoIterator<Item = PartitionConfig>,
    {
        cfgs.into_iter().map(|c| self.new_partition(c)).collect()
    }

    /// Every live partition, in creation order (for reports).
    pub fn partitions(&self) -> Vec<Arc<Partition>> {
        let parts = self.inner.partitions.lock();
        parts.iter().filter_map(Weak::upgrade).collect()
    }

    /// Current global clock value.
    pub fn clock_now(&self) -> u64 {
        self.inner.clock.now()
    }

    /// Installs (or replaces) the runtime tuning policy. Partitions created
    /// with [`PartitionConfig::tunable`] will be evaluated about every
    /// `policy.window()` commits. The window is read once, here; with `T`
    /// threads committing, an evaluation fires at most `T × (stride − 1)`
    /// commits late (stride = `min(64, window)`, see [`crate::tuner`]).
    pub fn set_tuner(&self, policy: Arc<dyn TuningPolicy>) {
        let window = policy.window().max(1);
        let mut tuner = self.inner.tuner.write();
        *tuner = Some(policy);
        self.inner.tune_window.store(window, Ordering::SeqCst);
    }

    /// Removes the tuning policy; commits stop evaluating at once.
    pub fn clear_tuner(&self) {
        let mut tuner = self.inner.tuner.write();
        self.inner.tune_window.store(0, Ordering::SeqCst);
        *tuner = None;
    }

    /// Installs (or replaces) the sampled access profiler. One in
    /// `profiler.period()` transactions per thread records which
    /// partitions and address buckets it touched (see [`crate::profiler`]);
    /// the other transactions pay one relaxed load at begin.
    pub fn set_profiler(&self, profiler: Arc<AccessProfiler>) {
        let period = profiler.period();
        *self.inner.profiler.write() = Some(profiler);
        self.inner.profile_period.store(period, Ordering::SeqCst);
    }

    /// Stops profiling (in-flight sampled attempts may still record).
    pub fn clear_profiler(&self) {
        self.inner.profile_period.store(0, Ordering::SeqCst);
        *self.inner.profiler.write() = None;
    }

    /// The installed profiler, if any.
    pub fn profiler(&self) -> Option<Arc<AccessProfiler>> {
        self.inner.profiler.read().clone()
    }

    /// Registers the calling thread, reserving a slot. The handle is the
    /// entry point for running transactions ([`ThreadCtx::run`]). Dropping
    /// it frees the slot.
    ///
    /// # Panics
    ///
    /// If more than `max_threads` threads are registered simultaneously.
    /// Callers that would rather back off than crash (thread pools sized
    /// independently of the STM) should use [`Stm::try_register_thread`].
    pub fn register_thread(&self) -> ThreadCtx {
        self.try_register_thread()
            .expect("all STM thread slots in use; raise max_threads")
    }

    /// Registers the calling thread if a slot is free, `None` otherwise.
    ///
    /// The non-panicking twin of [`Stm::register_thread`]: a thread-pool
    /// worker that loses the race for the last slot can park, shed load, or
    /// retry with backoff instead of killing the process.
    pub fn try_register_thread(&self) -> Option<ThreadCtx> {
        let slot = self.inner.free_slots.lock().pop()?;
        // No snapshot pinned: MAX keeps a recycled slot (whose `Default`
        // left 0 here) from dragging the snapshot eviction floor to zero.
        self.inner.slots[slot]
            .ro_snap
            .store(u64::MAX, Ordering::SeqCst);
        self.inner.slots[slot]
            .registered
            .store(true, Ordering::Release);
        Some(ThreadCtx {
            stm: self.clone(),
            slot,
            scratch: core::cell::RefCell::new(TxScratch::new(slot as u64)),
        })
    }

    /// Switches a partition to a new dynamic configuration, guaranteeing
    /// that at no instant do two transactions run the partition under
    /// different configurations. The mutation of its quiesce window (the
    /// protocol and its contract are stated once, in `quiesce.rs`, "The
    /// quiesce window"): stamp every orec with the current clock — a
    /// remapped orec may otherwise carry a version that is stale for its
    /// new coverage, letting an old-snapshot reader accept a value
    /// committed after its read version — then publish `new` under
    /// generation+1.
    ///
    /// Returns the [`SwitchOutcome`]; everything but
    /// [`Switched`](SwitchOutcome::Switched) leaves the partition exactly
    /// as found, so a stuck transaction degrades tuning instead of
    /// killing the process.
    ///
    /// Must not be called from inside a transaction (the engine invokes it
    /// only between transactions; external callers run it from ordinary
    /// code).
    pub fn switch_partition(&self, partition: &Partition, new: DynConfig) -> SwitchOutcome {
        self.inner.switch_partition(partition, new)
    }

    /// Resizes a partition's orec table in place to `new_count` records
    /// (clamped to [`MIN_ORECS`](crate::config::MIN_ORECS)..=
    /// [`MAX_ORECS`](crate::config::MAX_ORECS), rounded up to a power of
    /// two), changing its conflict-detection granularity *live*: more
    /// orecs mean fewer unrelated addresses aliasing onto the same record
    /// (fewer false conflicts), fewer orecs mean a leaner table.
    ///
    /// Runs one quiesce window like [`Stm::switch_partition`]; the
    /// mutation installs a fresh table stamped with the current clock
    /// (rather than rehashing old versions, which is impossible — the
    /// mapping is lossy), forcing old-snapshot readers to
    /// extend-or-abort on first contact exactly as a granularity switch
    /// does. The old table and ring are freed once the window has closed,
    /// outside the stall (no attempt can still hold them: the quiesce
    /// module docs, "What a closed window frees"). The partition's tuning
    /// window is reset so an installed
    /// [`TuningPolicy`] evaluates the resized table on post-resize
    /// statistics instead of a straddling delta.
    ///
    /// Returns the [`SwitchOutcome`] —
    /// [`Unchanged`](SwitchOutcome::Unchanged) when the table already has
    /// the effective size; anything but
    /// [`Switched`](SwitchOutcome::Switched) leaves table, versions and
    /// generation exactly as found.
    ///
    /// Must not be called from inside a transaction.
    pub fn resize_orecs(&self, partition: &Partition, new_count: usize) -> SwitchOutcome {
        let n = new_count
            .clamp(config::MIN_ORECS, config::MAX_ORECS)
            .next_power_of_two();
        self.inner.reconfigure(
            EventKind::OrecResize,
            n as u64,
            partition,
            None,
            || partition.orec_count() == n,
            |now| {
                let retired = partition.install_table(n, now);
                partition.reset_tuning_window();
                retired
            },
        )
    }
}

impl StmInner {
    /// [`Stm::switch_partition`], also the post-commit tuning hook's entry
    /// point (which only has the `StmInner`).
    pub(crate) fn switch_partition(&self, partition: &Partition, new: DynConfig) -> SwitchOutcome {
        self.reconfigure(
            EventKind::ConfigSwitch,
            0,
            partition,
            Some(new),
            || config::decode(partition.config_word()) == new,
            |now| partition.reset_orecs(now),
        )
    }

    /// The single-partition quiesce window behind switch and resize,
    /// reported as one `kind` event with payload `arg`.
    /// `done` is the operation's no-op test, run before flagging and
    /// again under the flag (where it can no longer race an interleaved
    /// window); `mutate` is its change, handed the clock value to stamp
    /// with, and returns what it unlinked, which is dropped only once the
    /// window has closed; `new` is the configuration to publish, if it
    /// changes.
    fn reconfigure<R>(
        &self,
        kind: EventKind,
        arg: u64,
        partition: &Partition,
        new: Option<DynConfig>,
        done: impl Fn() -> bool,
        mutate: impl FnOnce(u64) -> R,
    ) -> SwitchOutcome {
        assert_eq!(
            partition.stm_id, self.id,
            "partition belongs to a different Stm"
        );
        let mut w = QuiesceWindow::new(kind, partition.id, arg, [(partition, 0)]);
        if done() {
            return w.finish(SwitchOutcome::Unchanged);
        }
        if let Err(out) = w.open(config::SWITCHING_BIT) {
            return out;
        }
        if done() {
            return w.finish(SwitchOutcome::Unchanged);
        }
        if let Err(out) = w.quiesce(self) {
            return out;
        }
        let now = self.clock.now();
        let mut retired = None;
        let out = w.commit(now, new, || retired = Some(mutate(now)));
        // The flags are clear: freeing here never lengthens the stall, and
        // the drain already waited out every attempt that could reach
        // what the mutation unlinked.
        drop(retired);
        out
    }
}

impl Default for Stm {
    fn default() -> Self {
        Self::new()
    }
}

/// A registered thread's handle into the runtime. Not `Sync`: one per
/// thread. Movable across threads (`Send`) while no transaction is active.
#[derive(Debug)]
pub struct ThreadCtx {
    pub(crate) stm: Stm,
    pub(crate) slot: usize,
    pub(crate) scratch: core::cell::RefCell<TxScratch>,
}

// SAFETY: `TxScratch` contains raw pointers into partition tables and
// arenas, but they are only dereferenced between `begin` and the end of the
// same attempt, which cannot span a move of the `ThreadCtx` (moving requires
// ownership, which `run` holds by borrow for the whole attempt).
unsafe impl Send for ThreadCtx {}

impl ThreadCtx {
    /// The runtime this thread is registered with.
    pub fn stm(&self) -> &Stm {
        &self.stm
    }

    /// The thread's slot index (for diagnostics).
    pub fn slot(&self) -> usize {
        self.slot
    }
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        self.stm.inner.slots[self.slot]
            .registered
            .store(false, Ordering::Release);
        self.stm.inner.free_slots.lock().push(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReadMode;

    #[test]
    fn builder_enforces_thread_bounds() {
        let stm = Stm::builder().max_threads(2).build();
        let a = stm.register_thread();
        let b = stm.register_thread();
        assert_ne!(a.slot(), b.slot());
        drop(a);
        let c = stm.register_thread();
        drop(b);
        drop(c);
        // Slots are recycled.
        let d = stm.register_thread();
        assert!(d.slot() < 2);
    }

    #[test]
    #[should_panic(expected = "max_threads")]
    fn builder_rejects_oversized_thread_count() {
        let _ = Stm::builder().max_threads(65);
    }

    #[test]
    #[should_panic(expected = "slots in use")]
    fn registration_beyond_capacity_panics() {
        let stm = Stm::builder().max_threads(1).build();
        let _a = stm.register_thread();
        let _b = stm.register_thread();
    }

    #[test]
    fn partition_ids_are_sequential() {
        let stm = Stm::new();
        let a = stm.new_partition(PartitionConfig::default());
        let b = stm.new_partition(PartitionConfig::default());
        assert_eq!(a.id(), PartitionId(0));
        assert_eq!(b.id(), PartitionId(1));
        assert_eq!(stm.partitions().len(), 2);
    }

    #[test]
    fn switch_partition_updates_config_and_generation() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        assert_eq!(p.current_config().read_mode, ReadMode::Invisible);
        let mut cfg = p.current_config();
        cfg.read_mode = ReadMode::Visible;
        assert!(stm.switch_partition(&p, cfg).switched());
        assert_eq!(p.current_config().read_mode, ReadMode::Visible);
        assert_eq!(p.generation(), 1);
        // Switching to the identical config is a no-op.
        assert_eq!(stm.switch_partition(&p, cfg), SwitchOutcome::Unchanged);
        assert_eq!(p.generation(), 1);
    }

    #[test]
    fn resize_orecs_swaps_table_and_bumps_generation() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default().orecs(256));
        assert_eq!(p.orec_count(), 256);
        assert!(stm.resize_orecs(&p, 4096).switched());
        assert_eq!(p.orec_count(), 4096);
        assert_eq!(p.generation(), 1);
        assert_eq!(p.stats().orec_resizes, 1);
        // Same size: no-op, no generation bump.
        assert_eq!(stm.resize_orecs(&p, 4096), SwitchOutcome::Unchanged);
        assert_eq!(p.generation(), 1);
        // Rounded up to a power of two; shrink works.
        assert!(stm.resize_orecs(&p, 100).switched());
        assert_eq!(p.orec_count(), 128);
        assert_eq!(p.generation(), 2);
    }

    #[test]
    fn resize_orecs_clamps_to_bounds() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        assert!(stm.resize_orecs(&p, 1).switched());
        assert_eq!(p.orec_count(), crate::config::MIN_ORECS);
        assert!(stm.resize_orecs(&p, usize::MAX).switched());
        assert_eq!(p.orec_count(), crate::config::MAX_ORECS);
    }

    #[test]
    fn resize_orecs_preserves_data_under_load() {
        // Values live in PVars, not orecs: a resize must not disturb
        // committed state or lose updates racing the quiesce. Each resize
        // also frees the table and ring it replaces, so updaters and a
        // snapshot reader hammer the partition while 200 resizes run: an
        // attempt still holding a freed pointer would read garbage (and
        // fail an assertion below) or trip AddressSanitizer.
        const ACCOUNTS: u64 = 8;
        const START: u64 = 100;
        const RESIZES: usize = 200;
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default().orecs(64));
        let accounts: Vec<_> = (0..ACCOUNTS).map(|_| p.tvar(START)).collect();
        let updates = p.tvar(0u64);
        let stop = AtomicBool::new(false);
        let committed = AtomicU64::new(0);
        let scans = AtomicU64::new(0);
        let inexact_sums = AtomicU64::new(0);
        let mut switched = 0;
        let mut stalled = false;
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let ctx = stm.register_thread();
                let (accounts, updates, stop, committed) = (&accounts, &updates, &stop, &committed);
                s.spawn(move || {
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        let from = &accounts[(i % ACCOUNTS) as usize];
                        let to = &accounts[((i * 5 + 3) % ACCOUNTS) as usize];
                        ctx.run(|tx| {
                            let v = tx.read(from)?;
                            if v > 0 {
                                tx.write(from, v - 1)?;
                                tx.modify(to, |w| w + 1)?;
                            }
                            tx.modify(updates, |n| n + 1).map(|_| ())
                        });
                        committed.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                });
            }
            let ctx = stm.register_thread();
            let (accounts, stop, scans, inexact_sums) = (&accounts, &stop, &scans, &inexact_sums);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let sum = ctx.snapshot_read(|tx| {
                        let mut sum = 0;
                        for a in accounts {
                            sum += tx.read(a)?;
                        }
                        Ok(sum)
                    });
                    // Counted, not asserted: a panic here would stall the
                    // resize loop until its deadline.
                    if sum != ACCOUNTS * START {
                        inexact_sums.fetch_add(1, Ordering::Relaxed);
                    }
                    scans.fetch_add(1, Ordering::Relaxed);
                }
            });
            let progress = || {
                (
                    committed.load(Ordering::Relaxed),
                    scans.load(Ordering::Relaxed),
                )
            };
            // A worker that died (a failed engine assertion) stops making
            // progress; give up then rather than hang the suite.
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            'resizes: for i in 0..RESIZES {
                // Each resize waits for a commit and a scan since the last
                // one, so every pair it frees was in use while installed.
                let (c, r) = progress();
                while progress().0 == c || progress().1 == r {
                    if std::time::Instant::now() > deadline {
                        stalled = true;
                        break 'resizes;
                    }
                    std::thread::yield_now();
                }
                let n = if i % 2 == 0 { 1024 } else { 64 };
                switched += stm.resize_orecs(&p, n).switched() as u64;
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert!(!stalled, "updaters or reader stopped making progress");
        assert_eq!(
            updates.load_direct(),
            committed.load(Ordering::Relaxed),
            "no update lost across resizes"
        );
        assert_eq!(
            inexact_sums.load(Ordering::Relaxed),
            0,
            "every snapshot sum exact"
        );
        let total: u64 = accounts.iter().map(|a| a.load_direct()).sum();
        assert_eq!(total, ACCOUNTS * START);
        assert!(switched > 0, "at least one resize executed");
        assert_eq!(p.stats().orec_resizes, switched);
        // One table and one ring, of the current size: nothing parked.
        let n = p.orec_count();
        assert_eq!(p.held_allocations(), (n, n * p.ring_depth()));
    }

    #[test]
    #[should_panic(expected = "different Stm")]
    fn cross_stm_resize_is_rejected() {
        let stm1 = Stm::new();
        let stm2 = Stm::new();
        let p = stm1.new_partition(PartitionConfig::default());
        let _ = stm2.resize_orecs(&p, 512);
    }

    #[test]
    fn try_register_thread_backs_off_instead_of_panicking() {
        let stm = Stm::builder().max_threads(2).build();
        let a = stm.try_register_thread().expect("slot 1");
        let b = stm.try_register_thread().expect("slot 2");
        assert!(stm.try_register_thread().is_none(), "pool exhausted");
        drop(a);
        let c = stm.try_register_thread().expect("slot recycled");
        drop(b);
        drop(c);
    }

    #[test]
    fn new_partitions_creates_in_order() {
        let stm = Stm::new();
        let parts = stm.new_partitions([
            PartitionConfig::named("a"),
            PartitionConfig::named("b"),
            PartitionConfig::named("c"),
        ]);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].name(), "a");
        assert_eq!(parts[2].name(), "c");
        assert!(parts[0].id() < parts[1].id() && parts[1].id() < parts[2].id());
    }

    #[test]
    #[should_panic(expected = "different Stm")]
    fn cross_stm_switch_is_rejected() {
        let stm1 = Stm::new();
        let stm2 = Stm::new();
        let p = stm1.new_partition(PartitionConfig::default());
        let cfg = p.current_config();
        let _ = stm2.switch_partition(&p, cfg);
    }

    #[test]
    fn ro_floor_is_capped_by_the_clock_and_tracks_pins() {
        let stm = Stm::new();
        // No registered threads: the floor equals the clock, never MAX.
        stm.inner.clock.advance();
        stm.inner.clock.advance();
        assert_eq!(stm.inner.ro_floor_recompute(), 2);
        // An idle registered thread (ro_snap = MAX) does not lower it.
        let ctx = stm.register_thread();
        assert_eq!(stm.inner.ro_floor_recompute(), 2);
        // A pinned snapshot drags the floor down to its timestamp.
        stm.inner.slots[ctx.slot()]
            .ro_snap
            .store(1, Ordering::SeqCst);
        assert_eq!(stm.inner.ro_floor_recompute(), 1);
        stm.inner.slots[ctx.slot()]
            .ro_snap
            .store(u64::MAX, Ordering::SeqCst);
        assert_eq!(stm.inner.ro_floor_recompute(), 2);
    }

    #[test]
    fn switch_waits_for_idle_threads_only() {
        // A registered but idle thread must not block the switch.
        let stm = Stm::new();
        let _ctx = stm.register_thread();
        let p = stm.new_partition(PartitionConfig::default());
        let mut cfg = p.current_config();
        cfg.read_mode = ReadMode::Visible;
        assert!(stm.switch_partition(&p, cfg).switched());
    }
}
