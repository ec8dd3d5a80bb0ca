//! Per-partition statistics: the library's only counters.
//!
//! Every monotone count the runtime keeps is a [`StatCounters`] field of
//! the partition it concerns, defined once in `for_each_stat!`, read
//! through [`Partition::stats`](crate::Partition::stats) and exported by
//! [`telemetry::prometheus_text`](crate::telemetry::prometheus_text). All
//! of them count whether telemetry is on or off.
//!
//! The runtime tuner's decisions are driven entirely by these counters, so
//! collection must be cheap: threads accumulate into per-transaction local
//! counters and flush once per transaction into the shard of their own
//! thread slot.
//!
//! ## Single-writer shards
//!
//! There is one cache-padded shard per thread slot ([`MAX_THREADS`] of
//! them, 16 KiB per partition, inline in the partition). A shard is
//! written only by the thread that currently owns the slot, so a bump is a
//! relaxed load plus a relaxed store — no locked instruction, and no line
//! another worker writes. Slot hand-over is ordered by registration
//! (`ThreadCtx::drop` pushes the slot under the free-list mutex,
//! `try_register_thread` pops it under the same mutex), so the next owner
//! continues from the previous owner's last store and totals stay exact.
//! [`PartitionStats::snapshot`] sums the shards; a concurrent snapshot sees
//! each counter at some recent value, which is all the monotone counters
//! promise.
//!
//! The control plane has no slot: quiesce windows, orec resizes,
//! `privatize`, `republish` and the hold-age alarm run on whatever thread
//! calls them, concurrently with every slot's owner. Their counters live
//! in a separate control shard that keeps the atomic read-modify-write,
//! and their bump functions take no slot.

use core::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

use crate::stm::MAX_THREADS;

/// Applies a macro to the statistics counter fields, in two groups: `slot`
/// counters are bumped by transaction threads into their own slot's shard,
/// `control` counters by control-plane code that owns no slot. Single
/// source of truth for the field list.
macro_rules! for_each_stat {
    ($mac:ident) => {
        $mac!(
            slot {
                /// Transaction attempts that touched the partition.
                starts,
                /// Committed transactions that touched the partition.
                commits,
                /// Commits that performed no write in this partition.
                ro_commits,
                /// Commits that wrote this partition.
                update_commits,
                /// Aborts caused by a write-locked orec in this partition.
                aborts_wlock,
                /// Aborts caused by writer-vs-visible-reader arbitration.
                aborts_rlock,
                /// Aborts caused by failed validation / snapshot extension.
                aborts_validation,
                /// Aborts caused by a remote kill.
                aborts_killed,
                /// Aborts caused by an in-progress configuration switch.
                aborts_switching,
                /// Aborts requested by user code.
                aborts_user,
                /// Transactional reads served from this partition.
                reads,
                /// Transactional writes into this partition.
                writes,
                /// Successful snapshot extensions attributed to this partition.
                extensions,
                /// Reader kills issued by writers in this partition.
                kills_issued,
                /// Conflict aborts whose orec acquisition hint named the touched address (true data conflicts; see `orec::Orec::hint`).
                conflicts_true,
                /// Conflict aborts whose hint named a different address (orec aliasing, i.e. false conflicts — the resize signal).
                conflicts_aliased,
                /// Snapshot (read-only fast path) transactions committed against this partition.
                snapshot_commits,
                /// Snapshot transaction restarts (switch collision or user retry — never a data conflict; see `crate::snapshot`).
                snapshot_restarts,
                /// Reads served to snapshot transactions from this partition.
                snapshot_reads,
                /// Snapshot reads that were served from a version-ring/overflow record rather than the live cell.
                snapshot_history_reads,
                /// Committed-version records diverted to the overflow list because the ring victim was still reader-protected.
                ring_overflow_pushes,
                /// Transactional attempts that aborted against a *privatized* (not merely switching) partition.
                privatized_collisions
            }
            control {
                /// Completed privatizations of this partition (flag→quiesce window won and a `PrivateGuard` was handed out).
                privatizations,
                /// Privatization attempts rolled back because quiescence timed out (config word restored exactly).
                privatize_rollbacks,
                /// Republish events: a `PrivateGuard` returned the partition to transactional service under gen+1.
                republishes,
                /// Hold-age alarms: windows in which a `PrivateGuard` on this partition was observed held past the configured threshold (see `crate::privatize::set_hold_alarm_threshold`).
                privatize_hold_alarms,
                /// Completed in-place orec-table resizes (see `crate::Stm::resize_orecs`).
                orec_resizes,
                /// Quiesce drains run by control-plane windows whose subject is this partition, successful or not.
                quiesce_windows,
                /// Those drains that hit the hard deadline and rolled their window back.
                quiesce_timeouts,
                /// Thread slots whose kill flag such a drain raised at its soft deadline (the kill-based rescue).
                kill_rescue_kills,
                /// Slots still blocking such a drain at its hard deadline; each also produced a `StuckSlot` diagnostic.
                stuck_slots
            }
        );
    };
}

macro_rules! define_counters {
    (
        slot { $(#[$sdoc:meta] $s:ident),+ $(,)? }
        control { $(#[$cdoc:meta] $c:ident),+ $(,)? }
    ) => {
        /// Plain (non-atomic) snapshot of the partition counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatCounters {
            $(#[$sdoc] pub $s: u64,)+
            $(#[$cdoc] pub $c: u64,)+
        }

        impl StatCounters {
            /// Element-wise difference `self - earlier` (saturating).
            pub fn delta(&self, earlier: &StatCounters) -> StatCounters {
                StatCounters {
                    $($s: self.$s.saturating_sub(earlier.$s),)+
                    $($c: self.$c.saturating_sub(earlier.$c),)+
                }
            }

            /// Element-wise sum.
            pub fn add(&self, other: &StatCounters) -> StatCounters {
                StatCounters {
                    $($s: self.$s.wrapping_add(other.$s),)+
                    $($c: self.$c.wrapping_add(other.$c),)+
                }
            }

            /// Every counter as `(field name, value)`, in declaration
            /// order: the one list exporters walk.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($s), self.$s),)+ $((stringify!($c), self.$c),)+].into_iter()
            }

            /// Total aborts of all causes.
            pub fn aborts(&self) -> u64 {
                self.aborts_wlock
                    + self.aborts_rlock
                    + self.aborts_validation
                    + self.aborts_killed
                    + self.aborts_switching
                    + self.aborts_user
            }

            /// Share of classified conflicts that were *aliased* (false)
            /// conflicts: `conflicts_aliased / (conflicts_aliased +
            /// conflicts_true)`, or 0 when nothing was classified. The
            /// aliasing-pressure signal behind orec-table resizing.
            pub fn aliased_share(&self) -> f64 {
                let classified = self.conflicts_aliased + self.conflicts_true;
                if classified == 0 {
                    0.0
                } else {
                    self.conflicts_aliased as f64 / classified as f64
                }
            }
        }

        /// One thread slot's counters; written only by the slot's owner.
        #[derive(Default)]
        struct SlotShard {
            $($s: AtomicU64,)+
        }

        /// The control plane's counters; written by any thread, with RMWs.
        #[derive(Default)]
        struct ControlShard {
            $($c: AtomicU64,)+
        }

        impl PartitionStats {
            $(
                #[$sdoc]
                ///
                /// Single-writer: only the thread that owns `slot` may call
                /// this (module docs).
                #[inline]
                pub(crate) fn $s(&self, slot: usize, n: u64) {
                    if n != 0 {
                        let c = &self.slots[slot].$s;
                        c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
                    }
                }
            )+

            $(
                #[$cdoc]
                #[inline]
                pub(crate) fn $c(&self, n: u64) {
                    self.control.$c.fetch_add(n, Ordering::Relaxed);
                }
            )+

            /// Sums all shards into a consistent-enough snapshot (counters
            /// are monotonically increasing; tuning tolerates slight skew).
            pub fn snapshot(&self) -> StatCounters {
                let mut acc = StatCounters {
                    $($c: self.control.$c.load(Ordering::Relaxed),)+
                    ..StatCounters::default()
                };
                for shard in self.slots.iter() {
                    $(acc.$s = acc.$s.wrapping_add(shard.$s.load(Ordering::Relaxed));)+
                }
                acc
            }
        }
    };
}

/// Per-slot sharded statistics for one partition (module docs).
pub struct PartitionStats {
    slots: [CachePadded<SlotShard>; MAX_THREADS],
    control: ControlShard,
}

for_each_stat!(define_counters);

impl PartitionStats {
    /// The transactional (non-snapshot) commits `slot`'s owners have made
    /// in this partition: `commits − snapshot_commits` of the slot's own
    /// shard, two relaxed loads of lines only this thread writes. Exact
    /// when read by the slot's owner, and it grows by exactly one per
    /// `ThreadCtx::run` commit — the cadence the tuner hook gates on.
    #[inline]
    pub(crate) fn own_commits(&self, slot: usize) -> u64 {
        let s = &self.slots[slot];
        s.commits
            .load(Ordering::Relaxed)
            .wrapping_sub(s.snapshot_commits.load(Ordering::Relaxed))
    }
}

impl Default for PartitionStats {
    fn default() -> Self {
        PartitionStats {
            slots: core::array::from_fn(|_| CachePadded::default()),
            control: ControlShard::default(),
        }
    }
}

impl core::fmt::Debug for PartitionStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("PartitionStats")
            .field(&self.snapshot())
            .finish()
    }
}

/// Per-transaction, per-partition local counters, flushed once at
/// transaction end.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalStats {
    /// Reads performed in the partition during this attempt.
    pub reads: u32,
    /// Writes performed in the partition during this attempt.
    pub writes: u32,
    /// Successful snapshot extensions triggered by this partition.
    pub extensions: u32,
    /// Kills this transaction issued against readers of this partition.
    pub kills: u32,
    /// Conflicts classified true (hint matched the touched address).
    pub conflicts_true: u32,
    /// Conflicts classified aliased (hint named a different address).
    pub conflicts_aliased: u32,
    /// Ring evictions diverted to the overflow list during this attempt's
    /// commit (reader-protected victims).
    pub ring_overflows: u32,
}

impl LocalStats {
    /// Flush into the partition aggregate, as the owner of `slot`.
    pub(crate) fn flush(&self, stats: &PartitionStats, slot: usize) {
        stats.reads(slot, self.reads as u64);
        stats.writes(slot, self.writes as u64);
        stats.extensions(slot, self.extensions as u64);
        stats.kills_issued(slot, self.kills as u64);
        stats.conflicts_true(slot, self.conflicts_true as u64);
        stats.conflicts_aliased(slot, self.conflicts_aliased as u64);
        stats.ring_overflow_pushes(slot, self.ring_overflows as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumps_land_in_snapshot_across_shards() {
        let s = PartitionStats::default();
        for slot in 0..MAX_THREADS {
            s.commits(slot, 1);
            s.reads(slot, 10);
        }
        s.republishes(3);
        let snap = s.snapshot();
        assert_eq!(snap.commits, MAX_THREADS as u64);
        assert_eq!(snap.reads, 10 * MAX_THREADS as u64);
        assert_eq!(snap.republishes, 3);
        assert_eq!(snap.aborts(), 0);
    }

    #[test]
    fn slot_shards_stay_within_the_documented_footprint() {
        assert!(core::mem::size_of::<PartitionStats>() <= 16 * 1024 + 128);
        assert_eq!(
            core::mem::size_of::<CachePadded<SlotShard>>() * MAX_THREADS,
            16 * 1024
        );
    }

    #[test]
    fn zero_bump_is_free_and_correct() {
        let s = PartitionStats::default();
        s.writes(0, 0);
        assert_eq!(s.snapshot().writes, 0);
    }

    #[test]
    fn delta_and_aborts() {
        let a = StatCounters {
            commits: 10,
            aborts_wlock: 3,
            aborts_validation: 2,
            ..Default::default()
        };
        let b = StatCounters {
            commits: 4,
            aborts_wlock: 1,
            ..Default::default()
        };
        let d = a.delta(&b);
        assert_eq!(d.commits, 6);
        assert_eq!(d.aborts_wlock, 2);
        assert_eq!(d.aborts(), 4);
        // Saturating: never underflows even with skewed shard reads.
        let u = b.delta(&a);
        assert_eq!(u.commits, 0);
    }

    #[test]
    fn local_stats_flush() {
        let s = PartitionStats::default();
        let l = LocalStats {
            reads: 5,
            writes: 2,
            extensions: 1,
            kills: 3,
            conflicts_true: 4,
            conflicts_aliased: 6,
            ring_overflows: 7,
        };
        l.flush(&s, 9);
        let snap = s.snapshot();
        assert_eq!(snap.reads, 5);
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.extensions, 1);
        assert_eq!(snap.kills_issued, 3);
        assert_eq!(snap.conflicts_true, 4);
        assert_eq!(snap.conflicts_aliased, 6);
        assert_eq!(snap.ring_overflow_pushes, 7);
        assert!((snap.aliased_share() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn aliased_share_handles_zero_classified() {
        assert_eq!(StatCounters::default().aliased_share(), 0.0);
        let only_true = StatCounters {
            conflicts_true: 7,
            ..Default::default()
        };
        assert_eq!(only_true.aliased_share(), 0.0);
        let only_aliased = StatCounters {
            conflicts_aliased: 7,
            ..Default::default()
        };
        assert_eq!(only_aliased.aliased_share(), 1.0);
    }

    #[test]
    fn concurrent_bumps_do_not_lose_counts() {
        // One writer per slot (the single-writer contract), all of them
        // racing control-plane bumps and a snapshotting reader. Miri's
        // race detector needs few iterations and runs each slowly.
        const ITERS: u64 = if cfg!(miri) { 100 } else { 10_000 };
        let s = PartitionStats::default();
        std::thread::scope(|sc| {
            for t in 0..8 {
                let s = &s;
                sc.spawn(move || {
                    for _ in 0..ITERS {
                        s.commits(t, 1);
                        s.privatizations(1);
                    }
                });
            }
            let s = &s;
            sc.spawn(move || {
                let mut last = 0;
                for _ in 0..100 {
                    let now = s.snapshot().commits;
                    assert!(now >= last, "counters are monotone");
                    last = now;
                }
            });
        });
        let snap = s.snapshot();
        assert_eq!(snap.commits, 8 * ITERS);
        assert_eq!(snap.privatizations, 8 * ITERS);
    }
}
