//! Runtime repartitioning: structural mutation of the partition map.
//!
//! The configuration-switch protocol (see [`Stm::switch_partition`])
//! changes *how* one partition detects conflicts. The one entry point
//! here, [`Stm::migrate`], changes *what the partitions are*: it rebinds
//! everything a [`MigrationSource`] enumerates to a destination partition.
//! Split and merge are not separate operations: a split is
//! [`Stm::new_partition`] followed by a migration out of the split
//! partition, a merge is a migration that names the dissolved partition as
//! a participant — which is how the online repartitioner (crate
//! `partstm-repart`) executes both. [`Stm::migrate_pvars`] is the same
//! call over a flat slice of [`PVar`](crate::PVar)s.
//!
//! ## Protocol
//!
//! A repartition is one quiesce window (the protocol and what each
//! [`SwitchOutcome`] leaves behind are stated once, in `quiesce.rs`, "The
//! quiesce window") over the *set* of involved partitions: the
//! destination plus every source a migrating variable is currently bound
//! to. Its parts of the window:
//!
//! * **Re-check under the flags** — every binding must still point into
//!   the flagged set; one that a concurrent repartition moved elsewhere
//!   between the first enumeration and the flags reports
//!   [`SwitchOutcome::Contended`].
//! * **Mutation** — rebind the variables to the destination and stamp
//!   every involved partition's orec table with the current clock (a
//!   migrated variable maps onto destination orecs whose stored versions
//!   are stale for their new coverage); the window then publishes every
//!   involved partition under generation+1.
//!
//! ## Why rebinding is sound
//!
//! Bindings only change inside the mutation, strictly before the flags
//! clear.
//! A transaction that loaded a binding just before the rebind and touches
//! the stale partition *after* the flags cleared is the one hazardous
//! interleaving; the engine closes it by re-loading the binding after
//! first-touch view creation and aborting on mismatch (see
//! `Tx::view_of_binding` in `txn.rs`). Every other interleaving either
//! observes a switching flag (abort) or is ordered by the quiesce itself.
//!
//! ## Migration sources: flat batches, arenas, collections
//!
//! The protocol is agnostic to *what* enumerates the bindings it moves:
//! everything funnels through [`MigrationSource`], whose one method visits
//! each binding cell. A flat `&[&dyn Migratable]` batch is one source; a
//! partition-bound [`Arena`](crate::Arena) is another (home binding plus
//! every installed slot's fields); an arena slot subset
//! ([`Arena::slots_of`](crate::Arena::slots_of)) is a third; and a
//! structure (list, tree, map) is its arena plus its root variables.
//! [`MigratableCollection`] layers the introspection a migration
//! *directory* needs on top — home partition, live-field addresses for
//! profiler-bucket accounting — so the online repartitioner can map a
//! "bucket 17 of partition 3 is hot" report back to a whole structure and
//! move it with one [`Stm::migrate`] call. See the arena module docs for
//! why the free list and racing `alloc`/`free` survive all this.

use std::sync::Arc;

use crate::config;
use crate::partition::Partition;
use crate::pvar::{Migratable, PVarBinding};
use crate::quiesce::QuiesceWindow;
use crate::stm::{Stm, SwitchOutcome};
use crate::telemetry::EventKind;

/// Source of binding cells for one repartition: the protocol flags the
/// partitions these bindings currently point at, quiesces, and rebinds
/// every visited cell to the destination.
///
/// Implementations only *enumerate* — the cells' mutators are private to
/// this crate, so a `MigrationSource` cannot rebind anything outside the
/// protocol. Implementations that own an arena must visit the arena's
/// home binding **before** its slot fields (delegate to the arena's own
/// [`MigrationSource`] impl): the chunk-installation re-check in
/// `arena.rs` relies on that order.
pub trait MigrationSource {
    /// Visits every binding cell this source moves.
    fn for_each_binding(&self, f: &mut dyn FnMut(&PVarBinding));
}

/// A migratable collection: an arena-backed structure (or an arena
/// itself) that a migration directory can register, account against
/// profiler buckets, and move as a unit.
///
/// Implemented by every structure in `partstm-structures` and by
/// [`Arena`](crate::Arena) directly (for arenas without separate roots).
pub trait MigratableCollection: MigrationSource + Send + Sync {
    /// The partition newly allocated nodes bind to — the collection's
    /// current home. Racy during a migration, like
    /// [`PVar::partition`](crate::PVar::partition).
    fn home_partition(&self) -> Arc<Partition>;

    /// Visits the word address of every *live* partition-bound field
    /// (roots and live arena slots), for profiler-bucket accounting (see
    /// [`profiler::bucket_of`](crate::profiler::bucket_of)). Approximate
    /// under concurrency.
    fn for_each_live_addr(&self, f: &mut dyn FnMut(usize));

    /// Number of live nodes (approximate under concurrency).
    fn live_nodes(&self) -> usize;
}

/// A collection that can be *torn*: its live slots are individually
/// addressable (by the arena's raw handle word), so a directory can
/// attribute profiler heat to slot subsets and migrate just the hot
/// slots — celebrity keys — without moving the whole structure.
///
/// The raw handle values are opaque tokens minted by
/// [`for_each_live_slot_addr`](TearableCollection::for_each_live_slot_addr)
/// and consumed by
/// [`for_each_slot_binding`](TearableCollection::for_each_slot_binding);
/// callers never interpret them. Both views are approximate under
/// concurrency (slots may be freed and reused between the two calls),
/// which is sound: visiting a freed slot's bindings just rebinds
/// factory-initialized fields.
pub trait TearableCollection: MigratableCollection {
    /// Visits `(raw_handle, field_addr)` for every partition-bound field
    /// of every live slot. A slot with several fields is visited once per
    /// field, under the same raw handle.
    fn for_each_live_slot_addr(&self, f: &mut dyn FnMut(u32, usize));

    /// Visits every binding cell of the slots named by `raw` (tokens from
    /// [`for_each_live_slot_addr`](TearableCollection::for_each_live_slot_addr)).
    /// Unknown / stale tokens are skipped. Deliberately does *not* visit
    /// the collection's home binding or roots: tearing moves slots, not
    /// the structure.
    fn for_each_slot_binding(&self, raw: &[u32], f: &mut dyn FnMut(&PVarBinding));
}

/// Registration half of a migration directory: anything that accepts
/// [`MigratableCollection`] handles for later bucket-to-structure mapping.
///
/// Implemented by `partstm-repart`'s `StaticDirectory`; declared here so
/// data-structure crates can expose `attach_directory` without depending
/// on the controller crate.
pub trait CollectionRegistry {
    /// Registers one collection.
    fn register_collection(&self, c: Arc<dyn MigratableCollection>);

    /// Registers a tearable collection. Directories that track per-slot
    /// heat override this to retain the tearable view; the default just
    /// registers the whole-collection view.
    fn register_tearable(&self, c: Arc<dyn TearableCollection>) {
        self.register_collection(c);
    }
}

/// Adapter: a flat batch of variables as a [`MigrationSource`].
struct VarsSource<'a>(&'a [&'a dyn Migratable]);

impl MigrationSource for VarsSource<'_> {
    fn for_each_binding(&self, f: &mut dyn FnMut(&PVarBinding)) {
        for v in self.0 {
            f(v.pvar_binding());
        }
    }
}

impl Stm {
    /// Atomically rebinds everything a [`MigrationSource`] enumerates —
    /// flat variables, a whole arena, an arena slot subset
    /// ([`Arena::slots_of`](crate::Arena::slots_of)), a structure, or any
    /// combination — to partition `dst`, in one repartition window (see
    /// the [module docs](crate::repartition)).
    ///
    /// `from` names partitions that take part in the window (flag,
    /// quiesce, generation+1) even when nothing `src` enumerates is
    /// currently bound to them. A split is
    /// [`new_partition`](Stm::new_partition) followed by
    /// `migrate(src, &dst, &[src_part])`; a merge is
    /// `migrate(src, &dst, &[merged_away])`, which marks the dissolved
    /// partition's switch history even when it held nothing.
    ///
    /// Bindings already in `dst` are tolerated (refreshed). Returns
    /// [`SwitchOutcome::Unchanged`] without quiescing when every binding
    /// already points at `dst` and `from` names nothing else. On
    /// [`Contended`](SwitchOutcome::Contended) /
    /// [`TimedOut`](SwitchOutcome::TimedOut) nothing moved; a fresh
    /// destination stays empty and the same call may be retried.
    ///
    /// Must not be called from inside a transaction.
    ///
    /// # Panics
    ///
    /// If `dst`, a partition in `from` or any enumerated binding's current
    /// partition belongs to a different [`Stm`].
    pub fn migrate(
        &self,
        src: &dyn MigrationSource,
        dst: &Arc<Partition>,
        from: &[&Arc<Partition>],
    ) -> SwitchOutcome {
        let inner = &*self.inner;
        // Dedup on insertion: a whole-arena source enumerates thousands of
        // bindings that resolve to a handful of partitions, so membership in
        // the (tiny) involved set is cheaper than collecting one Arc clone per
        // field and deduplicating afterwards.
        let mut involved: Vec<Arc<Partition>> = Vec::with_capacity(from.len() + 2);
        let mut involve = |p: Arc<Partition>| {
            assert_eq!(p.stm_id, inner.id, "partition belongs to a different Stm");
            if !involved.iter().any(|q| Arc::ptr_eq(q, &p)) {
                involved.push(p);
            }
        };
        involve(Arc::clone(dst));
        from.iter().for_each(|p| involve(Arc::clone(p)));
        let mut all_in_dst = true;
        src.for_each_binding(&mut |b| {
            let p = b.partition_arc();
            all_in_dst &= Arc::ptr_eq(&p, dst);
            involve(p);
        });
        let parts: Vec<(&Partition, u64)> = involved.iter().map(|p| (&**p, 0)).collect();
        let mut w = QuiesceWindow::new(EventKind::Repartition, dst.id(), 0, parts);
        if all_in_dst && involved.len() == 1 {
            return w.finish(SwitchOutcome::Unchanged);
        }
        if let Err(out) = w.open(config::SWITCHING_BIT) {
            return out;
        }

        // Re-validate every binding now that the flags are held: a concurrent
        // repartition may have moved a variable *between our initial binding
        // read and our flag acquisition*, to a partition outside the flagged
        // set — proceeding would rebind a variable whose current partition
        // never quiesced. Once every binding is confirmed inside the flagged
        // set this cannot recur: any later rebind of these variables needs the
        // switching flag of their current partition, which we hold. (A bound
        // arena can *grow* new slots concurrently, but those bind to its home,
        // which is in the flagged set — and the arena's own chunk-install
        // re-check covers slots built against a pre-rebind home.)
        let mut escaped = false;
        src.for_each_binding(&mut |b| {
            let p = b.load();
            escaped |= !involved.iter().any(|q| Arc::as_ptr(q) == p);
        });
        if escaped {
            return w.finish(SwitchOutcome::Contended);
        }
        if let Err(out) = w.quiesce(inner) {
            return out;
        }

        let now = inner.clock.now();
        let mut moved = 0u64;
        let out = w.commit(now, None, || {
            src.for_each_binding(&mut |b| {
                b.rebind(dst);
                moved += 1;
            });
            for p in &involved {
                p.reset_orecs(now);
                // Restart the tuner's observation window: post-repartition
                // deltas must not straddle the structural change (a freshly
                // split hot partition otherwise inherits a half-window of cold
                // history — the tuner/controller cooperation contract, see
                // `Partition::reset_tuning_window`).
                p.reset_tuning_window();
            }
        });
        w.arg = moved;
        out
    }

    /// [`Stm::migrate`] of a flat batch of variables, with no extra
    /// participants.
    pub fn migrate_pvars(&self, vars: &[&dyn Migratable], dst: &Arc<Partition>) -> SwitchOutcome {
        self.migrate(&VarsSource(vars), dst, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionConfig;
    use crate::pvar::PVar;
    use crate::stm::Stm;
    use core::sync::atomic::Ordering;

    fn as_dyn<T: crate::word::TxWord + Send + Sync>(v: &PVar<T>) -> &dyn Migratable {
        v
    }

    #[test]
    fn migrate_rebinds_and_bumps_generations() {
        let stm = Stm::new();
        let a = stm.new_partition(PartitionConfig::named("a"));
        let b = stm.new_partition(PartitionConfig::named("b"));
        let x = a.tvar(1u64);
        let y = a.tvar(2u64);
        let ga = a.generation();
        let gb = b.generation();
        assert_eq!(
            stm.migrate_pvars(&[as_dyn(&x), as_dyn(&y)], &b),
            SwitchOutcome::Switched
        );
        assert_eq!(x.partition_id(), b.id());
        assert_eq!(y.partition_id(), b.id());
        assert_eq!(a.generation(), ga + 1, "source generation bumps");
        assert_eq!(b.generation(), gb + 1, "destination generation bumps");
        // Values survive the move and stay transactional.
        let ctx = stm.register_thread();
        assert_eq!(ctx.run(|tx| tx.modify(&x, |v| v + 10)), 11);
        assert_eq!(ctx.run(|tx| tx.read(&y)), 2);
    }

    #[test]
    fn migrate_to_current_partition_is_unchanged() {
        let stm = Stm::new();
        let a = stm.new_partition(PartitionConfig::named("a"));
        let x = a.tvar(1u64);
        let g = a.generation();
        assert_eq!(
            stm.migrate_pvars(&[as_dyn(&x)], &a),
            SwitchOutcome::Unchanged
        );
        assert_eq!(a.generation(), g, "no-op must not quiesce or bump");
    }

    #[test]
    fn split_moves_the_chosen_vars_only() {
        let stm = Stm::new();
        let src = stm.new_partition(PartitionConfig::named("src"));
        let hot = src.tvar(7u64);
        let cold = src.tvar(8u64);
        let dst = stm.new_partition(PartitionConfig::named("hot"));
        let outcome = stm.migrate(&VarsSource(&[as_dyn(&hot)]), &dst, &[&src]);
        assert_eq!(outcome, SwitchOutcome::Switched);
        assert_eq!(hot.partition_id(), dst.id());
        assert_eq!(cold.partition_id(), src.id());
        assert_eq!(dst.name(), "hot");
        // Cross-partition transaction over the split pair stays atomic.
        let ctx = stm.register_thread();
        let sum = ctx.run(|tx| {
            let h = tx.read(&hot)?;
            let c = tx.read(&cold)?;
            Ok(h + c)
        });
        assert_eq!(sum, 15);
    }

    #[test]
    fn merge_brings_vars_home_and_marks_empty_sources() {
        let stm = Stm::new();
        let a = stm.new_partition(PartitionConfig::named("a"));
        let b = stm.new_partition(PartitionConfig::named("b"));
        let c = stm.new_partition(PartitionConfig::named("c"));
        let x = b.tvar(1i64);
        let gc = c.generation();
        assert_eq!(
            stm.migrate(&VarsSource(&[as_dyn(&x)]), &a, &[&b, &c]),
            SwitchOutcome::Switched
        );
        assert_eq!(x.partition_id(), a.id());
        assert_eq!(c.generation(), gc + 1, "empty source still participates");
    }

    #[test]
    fn contended_repartition_rolls_flags_back() {
        let stm = Stm::new();
        let a = stm.new_partition(PartitionConfig::named("a"));
        let b = stm.new_partition(PartitionConfig::named("b"));
        let x = a.tvar(1u64);
        // Simulate a concurrent switch holding b's flag.
        let old = b.config.load(Ordering::SeqCst);
        b.config
            .store(old | config::SWITCHING_BIT, Ordering::SeqCst);
        assert_eq!(
            stm.migrate_pvars(&[as_dyn(&x)], &b),
            SwitchOutcome::Contended
        );
        // a's flag must have been rolled back.
        assert!(!config::is_switching(a.config.load(Ordering::SeqCst)));
        assert_eq!(x.partition_id(), a.id(), "binding untouched");
        b.config.store(old, Ordering::SeqCst);
        assert_eq!(
            stm.migrate_pvars(&[as_dyn(&x)], &b),
            SwitchOutcome::Switched
        );
    }

    #[test]
    #[should_panic(expected = "different Stm")]
    fn cross_stm_migration_is_rejected() {
        let stm1 = Stm::new();
        let stm2 = Stm::new();
        let a = stm1.new_partition(PartitionConfig::named("a"));
        let b = stm2.new_partition(PartitionConfig::named("b"));
        let x = a.tvar(1u64);
        let _ = stm2.migrate_pvars(&[&x as &dyn Migratable], &b);
    }
}
