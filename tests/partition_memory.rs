//! Memory returns: a dissolved partition is freed once the repartition
//! that unbound it has finished, so split/merge churn holds the heap and
//! the partition registry flat, and every control action's round trip
//! gives back what its first half took. Live heap bytes are counted by a
//! global allocator private to this test binary; the binary holds one
//! test, so nothing else allocates beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

use partstm::core::{
    Arena, Handle, Migratable, PVar, Partition, PartitionConfig, Stm, SwitchOutcome,
};

/// Counts live heap bytes, then defers to the system allocator.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// side effect that never influences the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

const KB: isize = 1024;

/// Runs `round` once to warm every lazily grown buffer, then again, and
/// asserts the second run returned live bytes to where it started.
fn round_trip(what: &str, mut round: impl FnMut()) {
    round();
    let before = live();
    round();
    let after = live();
    assert!(
        (after - before).abs() <= 16 * KB,
        "{what}: live bytes {before} -> {after} ({:+} B) across one round trip",
        after - before
    );
}

#[test]
fn dissolved_partitions_free_their_memory() {
    let stm = Stm::new();
    let home = stm.new_partition(PartitionConfig::named("home"));
    // A bystander, so the registry holds two partitions between cycles.
    let bystander = stm.new_partition(PartitionConfig::named("bystander"));
    let _b = bystander.tvar(0u64);
    let vars: Vec<PVar<u64>> = (0..64).map(|i| home.tvar(i)).collect();
    let dyn_vars: Vec<&dyn Migratable> = vars.iter().map(|v| v as &dyn Migratable).collect();
    let src = &dyn_vars[..];

    // Split the 64 variables out into a fresh default partition, merge
    // them back home, drop the handle.
    let split_merge = || {
        let hot = stm.new_partition(PartitionConfig::default());
        assert_eq!(stm.migrate(src, &hot, &[&home]), SwitchOutcome::Switched);
        assert_eq!(stm.migrate(src, &home, &[&hot]), SwitchOutcome::Switched);
    };
    let mut at_500 = 0;
    for cycle in 1..=2_000 {
        split_merge();
        assert_eq!(stm.partitions().len(), 2, "cycle {cycle}: registry grew");
        if cycle == 500 {
            at_500 = live();
        }
    }
    let at_2000 = live();
    assert!(
        at_2000 - at_500 <= 64 * KB,
        "live bytes grew {} B from cycle 500 to 2,000",
        at_2000 - at_500
    );
    assert!(vars.iter().all(|v| v.partition_id() == home.id()));

    round_trip("split -> merge", split_merge);

    // Tear a slot subset out of an arena and heal it home.
    let arena: Arena<PVar<u64>> = Arena::with_capacity_bound(&home, 256, |p| p.tvar(0));
    let slots: Vec<Handle<PVar<u64>>> = (0..64).map(|_| arena.alloc_raw()).collect();
    let torn_slots = &slots[..16];
    round_trip("tear -> heal", || {
        let torn = stm.new_partition(PartitionConfig::named("torn"));
        let subset = arena.slots_of(torn_slots);
        assert_eq!(
            stm.migrate(&subset, &torn, &[&home]),
            SwitchOutcome::Switched
        );
        assert_eq!(arena.get(torn_slots[0]).partition_id(), torn.id());
        assert_eq!(
            stm.migrate(&subset, &home, &[&torn]),
            SwitchOutcome::Switched
        );
    });
    assert_eq!(arena.get(torn_slots[0]).partition_id(), home.id());

    let orecs = home.orec_count();
    round_trip("resize up -> down", || {
        assert_eq!(stm.resize_orecs(&home, orecs * 4), SwitchOutcome::Switched);
        assert_eq!(stm.resize_orecs(&home, orecs), SwitchOutcome::Switched);
    });

    round_trip("privatize -> republish", || {
        let guard = stm.privatize(&home).expect("privatize");
        guard.republish();
    });

    let names: Vec<String> = stm
        .partitions()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    assert_eq!(names, ["home", "bystander"]);
    let dead: Arc<Partition> = stm.new_partition(PartitionConfig::named("dropped"));
    drop(dead);
    assert_eq!(
        stm.partitions().len(),
        2,
        "an unowned partition is not listed"
    );
}
