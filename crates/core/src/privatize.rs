//! Safe privatization: a raw-memory-speed escape hatch over the quiesce
//! protocol.
//!
//! Bulk phases — initial loads, snapshots/backups, compaction, analytics
//! scans — pay full STM overhead (orec acquisition, read-set validation,
//! version-ring publication) for zero benefit: they want the *whole*
//! partition, exclusively, for a bounded stretch. The partitioned design
//! already owns the machinery to grant exactly that. [`Stm::privatize`]
//! opens and drains a quiesce window, leaves it open — the partition's
//! switching flag stays *installed* for the duration of the hold — and
//! hands back a [`PrivateGuard`] holding it: a witness that the calling
//! thread owns the partition outright and may read and write its cells
//! at plain-memory speed ([`PrivateGuard::read`] /
//! [`PrivateGuard::write`], or any [`Access`]-generic structure
//! operation through [`PrivateGuard::access`]). Dropping the guard — or
//! calling [`PrivateGuard::republish`] — returns the partition to
//! transactional service under generation+1.
//!
//! ## Why the hold is safe
//!
//! The protocol is the configuration switch's quiesce window with the
//! close deferred to republish (after Khyzha et al., *Safe Privatization
//! in Transactional Memory* — our quiesce plays the role of their
//! privatization barrier). Phases 1 and 2 are the window's own, stated
//! once in `quiesce.rs` ("The quiesce window"); what privatization adds:
//!
//! 1. **Flag.** [`PRIVATIZED_BIT`] goes in alongside the switching bit.
//!    Privatization, configuration switches, orec resizes and
//!    repartitions all contend on the *same* switching bit,
//!    so any two of them targeting this partition serialize by
//!    construction; the extra bit only classifies the hold (separate
//!    collision counters, controller back-off). Contention reports
//!    [`PrivatizeError::Contended`].
//! 2. **Quiesce.** A drain that hits its deadline reports
//!    [`PrivatizeError::TimedOut`]; like contention it leaves the
//!    partition *exactly* as found. Attempts that begin once the flag is
//!    in observe it at first touch and abort ([`crate::txn`]'s
//!    view-creation check; snapshot read-only transactions run the same
//!    check, see [`crate::snapshot`]).
//! 3. **Hold.** From quiescence until republish, no transaction holds (or
//!    can acquire) locks, reader bits, read-set entries or pinned
//!    snapshots against this partition: in-flight attempts were drained,
//!    new ones abort on the flag. The guard's owner is therefore the only
//!    code touching the partition's cells, and plain `load_direct` /
//!    `store_direct` accesses are data-race-free without any orec
//!    traffic. The guard is a plain value — not `Clone` — so exactly one
//!    owner exists, and it keeps the partition's `Arc` alive.
//! 4. **Republish.** The window's mutate-and-close: advance the global
//!    clock and stamp every orec with the *new* time, clearing the
//!    version rings and the overflow list in place
//!    (`Partition::reset_orecs`); the window then publishes generation+1,
//!    clearing both flags. Ordering matters: the stamps are published
//!    *before* the flag clears, so the first transactional read of any privately-written cell finds an orec
//!    version strictly greater than any read version issued before the
//!    window and is forced to extend — and the extension's validation
//!    happens against cells the private phase has fully finished writing.
//!    Long-running transactions that never touched this partition may
//!    continue across the hold; they are ordered after the private phase
//!    by exactly that forced extension on first contact.
//!
//! Snapshot readers get the same treatment as in a granularity switch or
//! migration (the "windows discard history" argument in
//! [`crate::snapshot`]): readers pinned before the window were drained by
//! the quiesce; readers that pin after republish obtain a timestamp at
//! least the advanced clock, which upper-bounds the close stamp of every
//! discarded record, so the truncated rings can never have held a version
//! such a reader needs.
//!
//! ## What the guard permits
//!
//! Anything that stays inside the privatized partition, checked *per
//! variable*: [`PrivateGuard::read`] / [`PrivateGuard::write`] assert that
//! the variable is bound to the held partition, so a structure torn
//! across partitions by a partial migration panics at the first foreign
//! cell instead of racing the transactions that still own it (the
//! per-location data-race-freedom Khyzha et al. require of mixed
//! transactional/privatized access). Arena allocation asserts the
//! arena's home ([`Arena::alloc_raw`](crate::Arena::alloc_raw)'s "no
//! transactions run" contract is exactly what the hold establishes for
//! this partition). [`PrivateGuard::access`] packages the three as an
//! [`Access`], which is how every structure operation of
//! `partstm-structures` runs under a hold. Freeing slots under the guard
//! is deliberately *not* offered: allocation-only keeps the reuse-barrier
//! argument in [`crate::arena`] trivially satisfied.
//!
//! A privatization hold should be short (it starves writers of the
//! partition into abort-and-retry). Holds longer than
//! [`HOLD_WARN_THRESHOLD`] are reported at republish through a rate-
//! limited [`rtlog`] warning, as are quiesce-timeout rollbacks.

use std::sync::Arc;
use std::time::{Duration, Instant};

use core::sync::atomic::Ordering;

use crate::arena::{Arena, Handle};
use crate::config;
use crate::error::TxResult;
use crate::partition::Partition;
use crate::pvar::{Access, PVar, Read};
use crate::quiesce::{QuiesceWindow, WARN_INTERVAL};
use crate::repartition::MigrationSource;
use crate::rtlog;
use crate::stm::Stm;
use crate::telemetry::{self, EventKind};
use crate::word::TxWord;

pub use crate::config::PRIVATIZED_BIT;

/// Holds longer than this are reported (rate-limited) at republish: a
/// privatized partition starves its writers into abort-and-retry, so a
/// long hold is an operational smell even when it is correct.
pub const HOLD_WARN_THRESHOLD: Duration = Duration::from_secs(1);

static HOLD_WARN: rtlog::Limiter = rtlog::Limiter::new(WARN_INTERVAL);
static ALARM_WARN: rtlog::Limiter = rtlog::Limiter::new(WARN_INTERVAL);

/// Age at which a *live* hold trips [`check_hold_alarm`], µs. Unlike
/// [`HOLD_WARN_THRESHOLD`] (reported at republish, i.e. after the fact),
/// this fires while the guard is still held — the leaked-guard detector.
static HOLD_ALARM_MICROS: core::sync::atomic::AtomicU64 =
    core::sync::atomic::AtomicU64::new(1_000_000);

/// Sets the hold-age alarm threshold (default 1 s): a privatization hold
/// observed (by [`check_hold_alarm`]) older than this is reported as a
/// likely leaked [`PrivateGuard`]. Sub-microsecond values clamp to 1 µs.
pub fn set_hold_alarm_threshold(threshold: Duration) {
    let us = (threshold.as_micros() as u64).max(1);
    HOLD_ALARM_MICROS.store(us, Ordering::Relaxed);
}

/// Current hold-age alarm threshold (see [`set_hold_alarm_threshold`]).
pub fn hold_alarm_threshold() -> Duration {
    Duration::from_micros(HOLD_ALARM_MICROS.load(Ordering::Relaxed))
}

/// Leaked-guard detector: reports (rate-limited, and counted in the
/// partition's `privatize_hold_alarms` stat) when `part` has been
/// privately held longer than [`hold_alarm_threshold`]. Returns whether
/// the alarm tripped. Cheap when the partition is not privatized (two
/// atomic loads); intended to be called periodically from control-plane
/// code — the repartition controller checks it every time a proposal is
/// skipped because its target partition is privately held.
pub fn check_hold_alarm(part: &Partition) -> bool {
    let Some(held) = part.privatized_for() else {
        return false;
    };
    let threshold = hold_alarm_threshold();
    if held < threshold {
        return false;
    }
    part.stats.privatize_hold_alarms(1);
    ALARM_WARN.warn(&format!(
        "partition '{}' has been privatized for {held:?} \
         (alarm threshold {threshold:?}): a PrivateGuard looks leaked or \
         wedged; transactional writers are starving",
        part.name()
    ));
    true
}

/// Why a [`Stm::privatize`] attempt did not produce a guard. Both cases
/// leave the partition exactly as found and are retryable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivatizeError {
    /// Another control-plane operation (switch, resize, repartition or
    /// privatization) owns the partition's switching flag.
    Contended,
    /// Quiescence was not reached within the runtime's quiesce timeout:
    /// the privatization was rolled back (never a panic, in any build
    /// profile).
    TimedOut,
}

impl core::fmt::Display for PrivatizeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PrivatizeError::Contended => write!(f, "partition owned by a concurrent switch"),
            PrivatizeError::TimedOut => write!(f, "quiescence not reached before timeout"),
        }
    }
}

impl std::error::Error for PrivatizeError {}

/// Exclusive, non-transactional ownership of one privatized partition.
///
/// Obtained from [`Stm::privatize`]; see the [module docs](self) for the
/// safety argument. While the guard lives, every transactional attempt
/// touching the partition aborts-and-backs-off and every other
/// control-plane operation on it reports contention. Dropping the guard
/// republishes the partition ([`PrivateGuard::republish`] does the same
/// with an explicit name for call sites that want the intent visible).
#[derive(Debug)]
pub struct PrivateGuard {
    stm: Stm,
    /// Also inside `window`; kept beside it so the guard's per-cell
    /// binding checks read a plain field.
    part: Arc<Partition>,
    /// The drained, still-flagged window over `part`; dropping the guard
    /// commits it.
    window: QuiesceWindow<Arc<Partition>>,
    /// When the hold began (for the hold-duration warning).
    start: Instant,
}

impl PrivateGuard {
    /// The privatized partition.
    #[inline]
    pub fn partition(&self) -> &Arc<Partition> {
        &self.part
    }

    /// Whether `part` is the partition this guard privatizes.
    #[inline]
    pub fn covers(&self, part: &Arc<Partition>) -> bool {
        Arc::ptr_eq(&self.part, part)
    }

    /// Whether *every* binding a [`MigrationSource`] enumerates points at
    /// the privatized partition — i.e. the whole structure is inside the
    /// hold. `O(fields)`; for once-per-scan checks — per-cell accesses
    /// through the guard are checked individually.
    pub fn covers_source(&self, src: &dyn MigrationSource) -> bool {
        let want = Arc::as_ptr(&self.part);
        let mut all = true;
        src.for_each_binding(&mut |b| all &= core::ptr::eq(b.load(), want));
        all
    }

    /// Non-transactional read of a variable bound to the privatized
    /// partition: one plain load, no orec traffic.
    ///
    /// # Panics
    ///
    /// If `var` is not bound to the privatized partition — reading a
    /// foreign cell outside its concurrency control would be a data race.
    #[inline]
    pub fn read<T: TxWord>(&self, var: &PVar<T>) -> T {
        assert!(
            core::ptr::eq(var.binding().load(), Arc::as_ptr(&self.part)),
            "variable is not bound to the privatized partition"
        );
        var.load_direct()
    }

    /// Non-transactional write to a variable bound to the privatized
    /// partition: one plain store, no orec traffic, no undo log.
    ///
    /// # Panics
    ///
    /// If `var` is not bound to the privatized partition.
    #[inline]
    pub fn write<T: TxWord>(&self, var: &PVar<T>, value: T) {
        assert!(
            core::ptr::eq(var.binding().load(), Arc::as_ptr(&self.part)),
            "variable is not bound to the privatized partition"
        );
        var.store_direct(value);
    }

    /// This guard as an [`Access`], so any structure operation written
    /// over `A: Access` or `R: Read` runs under the hold with plain loads and stores:
    /// `map.put(&mut guard.access(), k, v)`. Never aborts; panics where
    /// [`PrivateGuard::read`] would, and on allocating from an arena whose
    /// home is not the held partition.
    #[inline]
    pub fn access(&self) -> impl Access<'_> + '_ {
        self
    }

    /// How long this guard has held the partition.
    pub fn held_for(&self) -> Duration {
        self.start.elapsed()
    }

    /// Returns the partition to transactional service under generation+1.
    ///
    /// Equivalent to dropping the guard; provided so call sites can make
    /// the hand-back explicit. See the [module docs](self) for the
    /// republish ordering argument.
    pub fn republish(self) {}
}

impl<'e> Read<'e> for &'e PrivateGuard {
    #[inline]
    fn read<T: TxWord>(&mut self, var: &'e PVar<T>) -> TxResult<T> {
        Ok(PrivateGuard::read(self, var))
    }
}

impl<'e> Access<'e> for &'e PrivateGuard {
    #[inline]
    fn write<T: TxWord>(&mut self, var: &'e PVar<T>, value: T) -> TxResult<()> {
        PrivateGuard::write(self, var, value);
        Ok(())
    }

    fn alloc<N: Send + Sync + 'static>(&mut self, arena: &'e Arena<N>) -> TxResult<Handle<N>> {
        assert!(
            self.covers(&arena.partition()),
            "arena's home partition is not the privatized one"
        );
        Ok(arena.alloc_raw())
    }
}

impl Drop for PrivateGuard {
    fn drop(&mut self) {
        let part = &self.part;
        let held = self.start.elapsed();
        if held > HOLD_WARN_THRESHOLD {
            HOLD_WARN.warn(&format!(
                "partition '{}' was privatized for {held:?} \
                 (> {HOLD_WARN_THRESHOLD:?}); transactional writers were \
                 starved into retry for the duration",
                part.name()
            ));
        }
        // Advance the clock so the reset stamp is *strictly* greater than
        // every read version issued before the window: the first
        // transactional contact with any orec of this partition is then
        // forced to extend (revalidate) past the private phase.
        let stamp = self.stm.inner.clock.advance();
        let _ = self.window.commit(stamp, None, || {
            part.reset_orecs(stamp);
            // Tuning deltas must not straddle the hold (the stats saw an
            // abort storm at the flag plus total silence during the hold).
            part.reset_tuning_window();
        });
        part.privatized_at_micros.store(0, Ordering::Release);
        part.stats.republishes(1);
        if telemetry::enabled() {
            let held_us = held.as_micros() as u64;
            telemetry::global().privatize_hold_us.record(held_us);
            telemetry::control_event(EventKind::Republish, part.id().0 as u64, held_us, 0);
        }
    }
}

impl Stm {
    /// Privatizes `partition`: opens and drains a quiesce window and
    /// returns a [`PrivateGuard`] holding it, granting exclusive,
    /// non-transactional access to
    /// the partition's cells at plain-memory speed. While the guard
    /// lives, transactional attempts touching the partition abort and
    /// back off (counted as `privatized_collisions`), and every other
    /// control-plane operation on it — switch, resize, repartition,
    /// another privatize — reports contention. Dropping or
    /// [`republish`](PrivateGuard::republish)ing the guard re-admits
    /// transactions under generation+1.
    ///
    /// Intended for bulk phases where STM overhead is pure waste: initial
    /// loads, compaction, snapshots, analytics scans (every structure
    /// operation of the structure crate runs under
    /// [`PrivateGuard::access`]).
    /// See the [module docs](crate::privatize) for the safety argument.
    ///
    /// Returns [`PrivatizeError::Contended`] without waiting when another
    /// control-plane operation owns the partition, and
    /// [`PrivatizeError::TimedOut`] when quiescence cannot be reached — in
    /// both cases the partition is exactly as found.
    ///
    /// Must not be called from inside a transaction (it would deadlock
    /// the quiesce against the caller's own attempt).
    ///
    /// # Panics
    ///
    /// If `partition` belongs to a different [`Stm`].
    pub fn privatize(&self, partition: &Arc<Partition>) -> Result<PrivateGuard, PrivatizeError> {
        assert_eq!(
            partition.stm_id, self.inner.id,
            "partition belongs to a different Stm"
        );
        let held = [(Arc::clone(partition), 0)];
        let mut w = QuiesceWindow::new(EventKind::Privatize, partition.id(), 0, held);
        w.open(config::SWITCHING_BIT | config::PRIVATIZED_BIT)
            .map_err(|_| PrivatizeError::Contended)?;
        w.quiesce(&self.inner).map_err(|_| {
            partition.stats.privatize_rollbacks(1);
            PrivatizeError::TimedOut
        })?;
        w.hold();
        partition.stats.privatizations(1);
        partition
            .privatized_at_micros
            .store(telemetry::now_micros().max(1), Ordering::Release);
        Ok(PrivateGuard {
            stm: self.clone(),
            part: Arc::clone(partition),
            window: w,
            start: Instant::now(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionConfig;

    #[test]
    fn privatize_sets_both_flags_and_republish_bumps_generation() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::named("bulk"));
        assert_eq!(p.generation(), 0);
        let g = stm.privatize(&p).expect("uncontended");
        assert!(p.is_privatized());
        let w = p.config.load(Ordering::SeqCst);
        assert!(config::is_switching(w), "exclusion rides the switching bit");
        assert!(config::is_privatized(w));
        g.republish();
        assert!(!p.is_privatized());
        assert!(!config::is_switching(p.config.load(Ordering::SeqCst)));
        assert_eq!(p.generation(), 1);
        let s = p.stats();
        assert_eq!(s.privatizations, 1);
        assert_eq!(s.republishes, 1);
        assert_eq!(s.privatize_rollbacks, 0);
    }

    #[test]
    fn drop_republishes_too() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        {
            let _g = stm.privatize(&p).expect("uncontended");
            assert!(p.is_privatized());
        }
        assert!(!p.is_privatized());
        assert_eq!(p.generation(), 1);
        assert_eq!(p.stats().republishes, 1);
    }

    #[test]
    fn guard_reads_and_writes_cells_directly() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let x = p.tvar(5u64);
        let g = stm.privatize(&p).expect("uncontended");
        assert_eq!(g.read(&x), 5);
        g.write(&x, 77);
        assert_eq!(g.read(&x), 77);
        assert!(g.covers(&p));
        assert!(g.held_for() < Duration::from_secs(60));
        g.republish();
        // The private write is visible transactionally after republish.
        let ctx = stm.register_thread();
        assert_eq!(ctx.run(|tx| tx.read(&x)), 77);
    }

    #[test]
    #[should_panic(expected = "not bound to the privatized partition")]
    fn guard_rejects_foreign_variables() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::named("mine"));
        let q = stm.new_partition(PartitionConfig::named("other"));
        let y = q.tvar(1u64);
        let g = stm.privatize(&p).expect("uncontended");
        let _ = g.read(&y);
    }

    #[test]
    fn access_is_the_checked_read_write_plus_home_arena_alloc() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::named("mine"));
        let q = stm.new_partition(PartitionConfig::named("other"));
        let mine: Arena<PVar<u64>> = Arena::new_bound(&p, |part| part.tvar(0));
        let foreign: Arena<PVar<u64>> = Arena::new_bound(&q, |part| part.tvar(0));
        let g = stm.privatize(&p).expect("uncontended");
        let mut a = g.access();
        let h = a.alloc(&mine).expect("guard access never aborts");
        a.write(mine.get(h), 9).expect("guard access never aborts");
        assert_eq!(a.read(mine.get(h)), Ok(9));
        let foreign_alloc = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = g.access().alloc(&foreign);
        }));
        assert!(foreign_alloc.is_err(), "foreign arena must be rejected");
        assert_eq!(foreign.live(), 0);
    }

    #[test]
    fn privatize_contends_with_a_held_switch_and_vice_versa() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        p.debug_force_switch_flag(true);
        assert_eq!(
            stm.privatize(&p).unwrap_err(),
            PrivatizeError::Contended,
            "foreign flag blocks privatization"
        );
        p.debug_force_switch_flag(false);
        let g = stm.privatize(&p).expect("uncontended");
        // Every other control-plane operation contends with the hold.
        let mut cfg = p.current_config();
        cfg.read_mode = crate::config::ReadMode::Visible;
        assert_eq!(
            stm.switch_partition(&p, cfg),
            crate::SwitchOutcome::Contended
        );
        assert_eq!(
            stm.resize_orecs(&p, 4 * p.orec_count()),
            crate::SwitchOutcome::Contended
        );
        assert_eq!(
            stm.privatize(&p).unwrap_err(),
            PrivatizeError::Contended,
            "privatization is exclusive with itself"
        );
        g.republish();
        assert!(stm.switch_partition(&p, cfg).switched(), "hold released");
    }

    #[test]
    fn transactions_collide_and_retry_across_a_hold() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let x = std::sync::Arc::new(p.tvar(0u64));
        let g = stm.privatize(&p).expect("uncontended");
        g.write(&x, 100);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let x2 = std::sync::Arc::clone(&x);
            let stm2 = stm.clone();
            let stop = &stop;
            s.spawn(move || {
                let ctx = stm2.register_thread();
                // Blocks (aborting internally) until the hold is released.
                ctx.run(|tx| tx.modify(&x2, |v| v + 1).map(|_| ()));
                stop.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(30));
            assert!(
                !stop.load(std::sync::atomic::Ordering::SeqCst),
                "writer must not commit while the hold is live"
            );
            g.republish();
        });
        assert_eq!(x.load_direct(), 101, "writer saw the private store");
        assert!(p.stats().privatized_collisions > 0, "collisions classified");
        assert!(p.stats().aborts_switching > 0);
    }

    #[test]
    fn republish_resets_orecs_to_an_advanced_stamp() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default().orecs(8));
        let before = stm.clock_now();
        let g = stm.privatize(&p).expect("uncontended");
        g.republish();
        assert!(stm.clock_now() > before, "republish advances the clock");
        let (locked, _, maxv) = p.debug_scan();
        assert_eq!(locked, 0);
        assert!(maxv > before, "orecs stamped with the advanced time");
    }

    #[test]
    fn hold_alarm_trips_on_old_live_holds_only() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::named("leaky"));
        assert!(!check_hold_alarm(&p), "not privatized: quiet");
        assert!(p.privatized_for().is_none());
        let g = stm.privatize(&p).expect("uncontended");
        assert!(p.privatized_for().is_some());
        assert!(!check_hold_alarm(&p), "fresh hold under the threshold");
        // The threshold is process-global; restore it after the test.
        set_hold_alarm_threshold(Duration::from_micros(1));
        assert_eq!(hold_alarm_threshold(), Duration::from_micros(1));
        std::thread::sleep(Duration::from_millis(2));
        assert!(check_hold_alarm(&p), "old live hold trips the alarm");
        assert!(p.stats().privatize_hold_alarms >= 1);
        set_hold_alarm_threshold(Duration::from_secs(1));
        g.republish();
        assert!(p.privatized_for().is_none(), "republish clears the stamp");
        assert!(!check_hold_alarm(&p));
    }

    #[test]
    #[should_panic(expected = "different Stm")]
    fn cross_stm_privatize_is_rejected() {
        let stm1 = Stm::new();
        let stm2 = Stm::new();
        let p = stm1.new_partition(PartitionConfig::default());
        let _ = stm2.privatize(&p);
    }
}
