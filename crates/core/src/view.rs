//! The partition view: what a partition hands an attempt at first touch.
//!
//! The transactional path ([`crate::txn`]) and the snapshot path
//! ([`crate::snapshot`]) open a partition the same way: an attempt's first
//! touch of a partition calls [`View::open`], which loads the config word
//! once (`SeqCst`), gives up if the switching flag is set, and otherwise
//! snapshots the decoded [`DynConfig`] with its generation, the orec table
//! (base, mask) and the version ring (base, depth). Every later access of
//! the attempt to that partition resolves to the view and never re-reads
//! the config word or the registers: [`View::orec`] maps an address to its
//! orec, [`View::ring_of`] maps an orec to its ring slots.
//!
//! Each path wraps the view with its own per-attempt counters and keeps its
//! own lookup (MRU, then a stamped index for `Tx` or a linear scan for
//! `ReadTx`) and its own binding recheck, because the two account a failure
//! differently: `Tx` aborts and backs off, `ReadTx` restarts.
//!
//! ## One config decode per attempt
//!
//! Caching the view for the whole attempt is sound because the
//! quiesce-based switch protocol ([`crate::Stm::switch_partition`];
//! resize, migrate and privatize run the identical window) guarantees that
//! no attempt spans a configuration switch or a table resize:
//!
//! 1. the switcher sets the partition's *switching* flag **before** bumping
//!    the global switch epoch, so any attempt that begins after the bump
//!    observes the flag at first touch — the loads involved are `SeqCst`,
//!    ordered after the attempt's one fence (`txn` module docs, "One full
//!    fence per attempt") — and gives up without caching anything;
//! 2. the switcher waits for every attempt begun **before** the bump (odd
//!    `seq`, older `start_epoch`) to finish before it resets or swaps the
//!    orec table and ring and installs the new config word.
//!
//! Hence a view opened with the flag clear is, for the rest of the attempt,
//! what a per-access decode would produce. Both commit paths check this in
//! debug builds with [`View::assert_generation`].
//!
//! ## The invariants behind the unsafe code
//!
//! A view never touches its partition's `Arc` strong count, a line every
//! thread of the partition would otherwise RMW twice per attempt; it keeps
//! raw pointers only because the views live in per-thread scratch state
//! that outlives the attempt, and both paths empty their view tables when
//! the attempt's handle drops. Every `unsafe` block below rests on:
//!
//! * **Alive.** The partition, its orec table and its ring stay allocated
//!   until the attempt's `seq` returns to even. The partition pointer was
//!   loaded from a binding inside the attempt, and a repartition drops what
//!   it unbound only after a grace period that waits the attempt out (`pvar`
//!   module docs, "What keeps a loaded pointer alive"); a resize frees the
//!   table and ring it replaced only after its window has closed (quiesce
//!   module docs, "What a closed window frees"). Checked under ASan by
//!   `tests/partition_lifetime.rs` and
//!   `tests/snapshot_read.rs::snapshot_reads_survive_orec_and_ring_resizes`.
//! * **Sized.** `table` holds `mask + 1` orecs and `ring` holds
//!   `(mask + 1) * ring_depth` slots, orec *i* owning slots
//!   `i * ring_depth..(i + 1) * ring_depth`. [`View::open`] reads both
//!   pairs after observing the flag clear, and `Partition::install_table`
//!   swaps them only inside a flagged window the attempt does not straddle.
//!   Checked by `view::tests::orec_maps_like_orec_for` and
//!   `view::tests::ring_of_is_the_orecs_depth_long_slice`.

use crate::config::{self, DynConfig};
use crate::orec::{Orec, RingSlot};
use crate::partition::{orec_index, Partition};

/// What a partition hands an attempt at first touch (module docs).
pub(crate) struct View {
    /// The partition, borrowed for the attempt; also the lookup key.
    part: *const Partition,
    pub(crate) cfg: DynConfig,
    /// Orec-table base and index mask (`orec_count - 1`).
    table: *const Orec,
    mask: usize,
    /// Version-ring base and per-orec depth (at most `MAX_RING_DEPTH`; a
    /// `u32` shares a word with `generation`).
    ring: *const RingSlot,
    ring_depth: u32,
    /// Generation of the decoded config word.
    pub(crate) generation: u32,
}

impl View {
    /// First touch of `part` by an attempt of the `Stm` `stm_id` on `slot`.
    /// `None` when the partition is mid-switch or privatized: the attempt
    /// gives up without caching anything, and `starts`, `aborts_switching`
    /// and (for a privatization hold) `privatized_collisions` are already
    /// counted against `part`.
    ///
    /// # Panics
    ///
    /// Panics if `part` belongs to another `Stm`.
    #[inline(always)]
    pub(crate) fn open(part: &Partition, stm_id: u64, slot: usize) -> Option<View> {
        assert_eq!(part.stm_id, stm_id, "partition belongs to a different Stm");
        let word = part.config_word();
        if config::is_switching(word) {
            // A privatization hold is a switching flag plus the privatized
            // classification bit: the same give-up path, counted separately
            // so operators can tell bulk-operation collisions from tuning
            // churn.
            if config::is_privatized(word) {
                part.stats.privatized_collisions(slot, 1);
            }
            part.stats.aborts_switching(slot, 1);
            part.stats.starts(slot, 1);
            return None;
        }
        let (table, mask) = part.table_view();
        let (ring, depth) = part.ring_view();
        Some(View {
            part,
            cfg: config::decode(word),
            table,
            mask,
            ring,
            ring_depth: depth as u32,
            generation: config::generation(word),
        })
    }

    /// The partition this view was opened on.
    #[inline(always)]
    pub(crate) fn part(&self) -> &Partition {
        // SAFETY: Alive (module docs; `tests/partition_lifetime.rs`).
        unsafe { &*self.part }
    }

    /// Whether this view was opened on `part` (the lookups' key test).
    #[inline(always)]
    pub(crate) fn is(&self, part: *const Partition) -> bool {
        core::ptr::eq(self.part, part)
    }

    /// The orec covering the word at `addr`.
    #[inline(always)]
    pub(crate) fn orec(&self, addr: usize) -> &Orec {
        // SAFETY: Sized, as the index is masked to `<= mask`, and Alive
        // (module docs; `view::tests::orec_maps_like_orec_for`).
        unsafe {
            &*self
                .table
                .wrapping_add(orec_index(self.mask, addr, self.cfg.granularity))
        }
    }

    /// The `ring_depth` ring slots of `orec`.
    ///
    /// # Safety
    ///
    /// `orec` was returned by [`View::orec`] of this view, so its index is
    /// at most `mask` (checked in debug builds only: the publish and lookup
    /// paths pay no bounds check).
    #[inline(always)]
    pub(crate) unsafe fn ring_of(&self, orec: &Orec) -> &[RingSlot] {
        let idx =
            (orec as *const Orec as usize - self.table as usize) / core::mem::size_of::<Orec>();
        debug_assert!(idx <= self.mask, "orec outside the view's table");
        let depth = self.ring_depth as usize;
        // SAFETY: Sized, as `idx <= mask` (the caller's contract), and
        // Alive (module docs; `view::tests::ring_of_is_the_orecs_depth_long_slice`).
        unsafe { core::slice::from_raw_parts(self.ring.wrapping_add(idx * depth), depth) }
    }

    /// Whether `orec` points into this view's table (abort attribution).
    pub(crate) fn owns(&self, orec: *const Orec) -> bool {
        let lo = self.table as usize;
        let hi = lo + (self.mask + 1) * core::mem::size_of::<Orec>();
        (lo..hi).contains(&(orec as usize))
    }

    /// Debug tripwire for "One config decode per attempt" (module docs):
    /// the partition's generation has not moved past this view's.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_generation(&self) {
        assert_eq!(
            config::generation(self.part().config_word()),
            self.generation,
            "partition config switched mid-attempt (quiesce protocol violated)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Granularity, PartitionConfig};
    use crate::stm::Stm;

    #[test]
    fn flagged_partition_opens_no_view() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let slot = stm.register_thread().slot();
        p.debug_force_switch_flag(true);
        assert!(View::open(&p, stm.inner.id, slot).is_none());
        let s = p.stats();
        assert_eq!((s.starts, s.aborts_switching), (1, 1));
        assert_eq!(s.privatized_collisions, 0);
        p.debug_force_switch_flag(false);
        let v = View::open(&p, stm.inner.id, slot).expect("flag clear");
        assert_eq!(v.generation, p.generation());
        assert_eq!(p.stats().starts, 1, "opening a view starts nothing");
    }

    #[test]
    fn privatized_partition_opens_no_view() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default());
        let slot = stm.register_thread().slot();
        let guard = stm.privatize(&p).expect("no contention");
        assert!(View::open(&p, stm.inner.id, slot).is_none());
        drop(guard);
        let s = p.stats();
        assert_eq!(
            (s.starts, s.aborts_switching, s.privatized_collisions),
            (1, 1, 1)
        );
    }

    #[test]
    #[should_panic(expected = "partition belongs to a different Stm")]
    fn foreign_partition_panics() {
        let (stm, other) = (Stm::new(), Stm::new());
        let p = stm.new_partition(PartitionConfig::default());
        let _ = View::open(&p, other.inner.id, 0);
    }

    #[test]
    fn orec_maps_like_orec_for() {
        for g in [
            Granularity::Word,
            Granularity::Stripe { shift: 6 },
            Granularity::PartitionLock,
        ] {
            let stm = Stm::new();
            let p = stm.new_partition(PartitionConfig::default().orecs(64).granularity(g));
            let vars: Vec<_> = (0..32u64).map(|v| p.tvar(v)).collect();
            let addrs: Vec<usize> = vars.iter().map(|x| x.cell.as_ptr() as usize).collect();
            let slot = stm.register_thread().slot();
            {
                // This view points into the table the resize frees.
                let v = View::open(&p, stm.inner.id, slot).expect("flag clear");
                for &a in &addrs {
                    assert!(core::ptr::eq(v.orec(a), p.orec_for(a, g)), "{g:?}");
                }
            }
            let out = stm.resize_orecs(&p, 512);
            assert_eq!(out, crate::SwitchOutcome::Switched);
            assert_eq!(p.orec_count(), 512);
            let v = View::open(&p, stm.inner.id, slot).expect("window closed");
            for &a in &addrs {
                assert!(core::ptr::eq(v.orec(a), p.orec_for(a, g)), "{g:?} resized");
                assert!(v.owns(v.orec(a)));
            }
        }
    }

    #[test]
    fn ring_of_is_the_orecs_depth_long_slice() {
        let stm = Stm::new();
        let p = stm.new_partition(PartitionConfig::default().orecs(8).ring(4));
        let slot = stm.register_thread().slot();
        let v = View::open(&p, stm.inner.id, slot).expect("flag clear");
        let (ring, depth) = p.ring_view();
        assert_eq!((v.mask, v.ring_depth, depth), (7, 4, 4));
        for idx in [0, v.mask] {
            let orec = v.table.wrapping_add(idx);
            // SAFETY: `idx <= mask`, in the view's live table.
            let orec = unsafe { &*orec };
            // SAFETY: `orec` is in the view's table, as `View::orec` returns.
            let slots = unsafe { v.ring_of(orec) };
            assert_eq!(slots.len(), depth);
            assert!(core::ptr::eq(
                slots.as_ptr(),
                ring.wrapping_add(idx * depth)
            ));
        }
    }
}
