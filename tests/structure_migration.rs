//! Structure-aware live migration end-to-end: arena-backed structures
//! (linked list, rb-tree, skip list, hash set, queue) keep their contents
//! and invariants while a storm thread splits them into fresh partitions
//! and migrates them back home, all under concurrent mutation — the
//! collection-level analogue of the flat-PVar storm in `repartition.rs`.
//!
//! One-core note: mutator transactions stretch their conflict window
//! across a reschedule every few ops (the established pattern from
//! `tuning_convergence.rs`), so the storms genuinely overlap in-flight
//! transactions instead of slotting between them.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use partstm::core::{
    MigratableCollection, PartitionConfig, PrivateGuard, Stm, SwitchOutcome, TxResult,
};
use partstm::structures::{IntSet, THashMap, THashSet, TLinkedList, TQueue, TRbTree, TSkipList};

mod common;
use common::assert_all_bindings_in;

/// Contended op mix on a tiny key range under a split/migrate-home storm:
/// the set's size must equal the net successful inserts, the snapshot must
/// be sorted/unique/in-range, and after the last migration home every
/// binding must be back in the home partition.
fn storm_intset<S>(make: impl FnOnce(Arc<partstm::core::Partition>) -> S, what: &str)
where
    S: IntSet + MigratableCollection + 'static,
{
    const KEYS: u64 = 16;
    let stm = Stm::new();
    let home = stm.new_partition(PartitionConfig::named("home"));
    let set = Arc::new(make(Arc::clone(&home)));
    let net = AtomicI64::new(0);
    let stop = AtomicBool::new(false);
    let storms = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for t in 0..3u64 {
            let ctx = stm.register_thread();
            let (set, stop, net) = (&set, &stop, &net);
            s.spawn(move || {
                let mut state = 0x9e37_79b9 ^ (t + 1);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let key = state % KEYS;
                    i += 1;
                    let stretch = i.is_multiple_of(7);
                    if (state >> 17) & 1 == 0 {
                        let ok = ctx.run(|tx| {
                            let r = set.insert(tx, key)?;
                            if stretch {
                                // Hold the conflict window across a
                                // reschedule (one-core contention).
                                std::thread::yield_now();
                            }
                            Ok(r)
                        });
                        if ok {
                            net.fetch_add(1, Ordering::Relaxed);
                        }
                    } else if ctx.run(|tx| set.remove(tx, key)) {
                        net.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // Storm thread: split the whole collection out, then migrate it
        // home — repeat until enough full cycles landed.
        {
            let stm2 = stm.clone();
            let (set, home, stop, storms) = (&set, &home, &stop, &storms);
            s.spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(8);
                let mut seq = 0;
                while !stop.load(Ordering::Relaxed) {
                    seq += 1;
                    let side = stm2.new_partition(PartitionConfig::named(format!("side{seq}")));
                    let o1 = stm2.migrate(&**set, &side, &[&set.home_partition()]);
                    let o2 = stm2.migrate(&**set, home, &[]);
                    if o1 == SwitchOutcome::Switched && o2 == SwitchOutcome::Switched {
                        storms.fetch_add(1, Ordering::Relaxed);
                    }
                    if storms.load(Ordering::Relaxed) >= 12 || Instant::now() > deadline {
                        stop.store(true, Ordering::Relaxed);
                    }
                    // Let the mutators accumulate real traffic between
                    // cycles, so migrations land on busy structures.
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
    });

    assert!(
        storms.load(Ordering::Relaxed) > 0,
        "{what}: no split+migrate-home cycle completed"
    );
    let keys = set.snapshot_keys();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(keys, sorted, "{what}: snapshot must be sorted and unique");
    assert!(keys.iter().all(|&k| k < KEYS), "{what}: key out of range");
    assert_eq!(
        keys.len() as i64,
        net.load(Ordering::Relaxed),
        "{what}: size must equal net successful inserts"
    );
    assert_all_bindings_in(&*set, home.id(), what);
}

#[test]
fn linkedlist_conserves_under_migration_storm() {
    storm_intset(TLinkedList::new, "linked list");
}

#[test]
fn rbtree_conserves_under_migration_storm() {
    storm_intset(TRbTree::new, "rb-tree");
}

#[test]
fn skiplist_conserves_under_migration_storm() {
    storm_intset(TSkipList::new, "skip list");
}

#[test]
fn hashset_conserves_under_migration_storm() {
    storm_intset(|p| THashSet::new(p, 8), "hash set");
}

/// Producer/consumer queue under the storm: every pushed value is popped
/// exactly once (conserved sums), FIFO per producer is preserved by the
/// queue itself, and the queue ends fully migrated home.
#[test]
fn queue_conserves_items_under_migration_storm() {
    let stm = Stm::new();
    let home = stm.new_partition(PartitionConfig::named("home"));
    let q: Arc<TQueue<u64>> = Arc::new(TQueue::new(Arc::clone(&home)));
    let stop = AtomicBool::new(false);
    let storms = AtomicUsize::new(0);
    let pushed = AtomicI64::new(0);
    let popped = AtomicI64::new(0);
    let sum_in = AtomicI64::new(0);
    let sum_out = AtomicI64::new(0);

    std::thread::scope(|s| {
        // One producer, one consumer, one storm.
        {
            let ctx = stm.register_thread();
            let (q, stop, pushed, sum_in) = (&q, &stop, &pushed, &sum_in);
            s.spawn(move || {
                let mut v = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    ctx.run(|tx| {
                        q.push_back(tx, v)?;
                        if v.is_multiple_of(5) {
                            std::thread::yield_now();
                        }
                        Ok(())
                    });
                    pushed.fetch_add(1, Ordering::Relaxed);
                    sum_in.fetch_add(v as i64, Ordering::Relaxed);
                    v += 1;
                }
            });
        }
        {
            let ctx = stm.register_thread();
            let (q, stop, popped, sum_out) = (&q, &stop, &popped, &sum_out);
            s.spawn(move || loop {
                match ctx.run(|tx| q.pop_front(tx)) {
                    Some(v) => {
                        popped.fetch_add(1, Ordering::Relaxed);
                        sum_out.fetch_add(v as i64, Ordering::Relaxed);
                    }
                    None => {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
        {
            let stm2 = stm.clone();
            let (q, home, stop, storms) = (&q, &home, &stop, &storms);
            s.spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(8);
                let mut seq = 0;
                while !stop.load(Ordering::Relaxed) {
                    seq += 1;
                    let side = stm2.new_partition(PartitionConfig::named(format!("qside{seq}")));
                    let o1 = stm2.migrate(&**q, &side, &[&q.home_partition()]);
                    let o2 = stm2.migrate(&**q, home, &[]);
                    if o1 == SwitchOutcome::Switched && o2 == SwitchOutcome::Switched {
                        storms.fetch_add(1, Ordering::Relaxed);
                    }
                    if storms.load(Ordering::Relaxed) >= 12 || Instant::now() > deadline {
                        stop.store(true, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
    });

    assert!(storms.load(Ordering::Relaxed) > 0, "no storm cycle");
    // Drain the leftovers single-threaded.
    let ctx = stm.register_thread();
    while let Some(v) = ctx.run(|tx| q.pop_front(tx)) {
        popped.fetch_add(1, Ordering::Relaxed);
        sum_out.fetch_add(v as i64, Ordering::Relaxed);
    }
    assert_eq!(
        pushed.load(Ordering::Relaxed),
        popped.load(Ordering::Relaxed),
        "every pushed item popped exactly once"
    );
    assert_eq!(
        sum_in.load(Ordering::Relaxed),
        sum_out.load(Ordering::Relaxed),
        "value sums conserved"
    );
    assert_all_bindings_in(&*q, home.id(), "queue");
}

/// Slot-subset migration mid-traffic: half of a hash map's live nodes move
/// to a sibling partition while writers keep transferring between keys —
/// the map is deliberately torn across two partitions and must still be
/// linearizable (conserved sum), then heal completely on the way home.
#[test]
fn hashmap_slot_subset_migration_conserves_sum() {
    const KEYS: u64 = 32;
    const INITIAL: u64 = 1_000;
    let stm = Stm::new();
    let home = stm.new_partition(PartitionConfig::named("home"));
    let side = stm.new_partition(PartitionConfig::named("side"));
    let map = Arc::new(THashMap::new(Arc::clone(&home), 16));
    {
        let ctx = stm.register_thread();
        for k in 0..KEYS {
            ctx.run(|tx| map.put(tx, k, INITIAL).map(|_| ()));
        }
    }
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        for t in 0..2u64 {
            let ctx = stm.register_thread();
            let (map, stop) = (&map, &stop);
            s.spawn(move || {
                let mut r = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                while !stop.load(Ordering::Relaxed) {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    let from = r % KEYS;
                    let to = (r >> 8) % KEYS;
                    let amt = r % 90;
                    ctx.run(|tx| -> TxResult<()> {
                        let f = map.get(tx, from)?.unwrap_or(0);
                        map.put(tx, from, f.wrapping_sub(amt))?;
                        if r % 5 == 0 {
                            std::thread::yield_now();
                        }
                        let t2 = map.get(tx, to)?.unwrap_or(0);
                        map.put(tx, to, t2.wrapping_add(amt))?;
                        Ok(())
                    });
                }
            });
        }
        {
            let stm2 = stm.clone();
            let (map, home, side, stop) = (&map, &home, &side, &stop);
            s.spawn(move || {
                for round in 0..12usize {
                    // Tear: move a rotating half of the live nodes out.
                    let live = map.arena().live_handles();
                    let subset: Vec<_> = live.iter().copied().skip(round % 2).step_by(2).collect();
                    if !subset.is_empty() {
                        let _ = stm2.migrate(&map.arena().slots_of(&subset), side, &[]);
                    }
                    std::thread::sleep(Duration::from_millis(3));
                    // Heal: whole-collection migration home collects the
                    // torn slots' partition into the involved set.
                    let _ = stm2.migrate(&**map, home, &[]);
                    std::thread::sleep(Duration::from_millis(3));
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });

    let total: u64 = map
        .snapshot_pairs()
        .into_iter()
        .fold(0u64, |acc, (_, v)| acc.wrapping_add(v));
    assert_eq!(total, KEYS.wrapping_mul(INITIAL), "sum conserved");
    // Heal once more from a quiescent state (the storm's last word may
    // have been a tear).
    let _ = stm.migrate(&*map, &home, &[]);
    assert_all_bindings_in(&*map, home.id(), "hash map");
    assert_eq!(map.partition_of(), home.id());
}

/// Access to a *torn* collection under a privatization hold is checked per
/// variable: the guard holds `home`, the torn slots are bound to `torn`,
/// where transactions may still be running against them. Any operation
/// whose chain walk crosses a torn slot must panic at that slot — in
/// every build profile — instead of reading or writing it with plain
/// loads and stores; operations that stay on home-bound cells work; and
/// the unwinding guard still republishes the partition.
#[test]
fn guard_access_to_a_torn_map_panics_at_the_foreign_slot_and_republishes() {
    let stm = Stm::new();
    let home = stm.new_partition(PartitionConfig::named("home"));
    let torn = stm.new_partition(PartitionConfig::named("torn"));
    // One bucket: a single chain, newest key first, so key 0 is the tail.
    let map = THashMap::new(Arc::clone(&home), 1);
    let ctx = stm.register_thread();
    for k in 0..8u64 {
        ctx.run(|tx| map.put(tx, k, k * 10).map(|_| ()));
    }
    // Tear the middle of the chain out (what a controller `Tear` does).
    let live = map.arena().live_handles();
    assert_eq!(
        stm.migrate(&map.arena().slots_of(&live[2..6]), &torn, &[]),
        SwitchOutcome::Switched
    );
    assert_eq!(map.partition_of(), home.id(), "home binding stays");

    type GuardOp<'a> = &'a dyn Fn(&PrivateGuard);
    let under_guard = |op: GuardOp<'_>| {
        let generation = home.generation();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let guard = stm.privatize(&home).expect("uncontended");
            op(&guard);
        }));
        // The guard was dropped by the unwind (or the normal return):
        // either way the partition is back in transactional service.
        assert!(!home.is_privatized(), "hold released");
        assert_eq!(home.generation(), generation + 1, "republished");
        // `assert!` with a literal message panics with a `&'static str`.
        panic.map_err(|p| p.downcast_ref::<&str>().copied().unwrap_or("non-str panic"))
    };

    // Key 7 is the chain head, a home-bound slot: no torn cell on the way.
    assert_eq!(
        under_guard(&|g| assert_eq!(map.get(&mut g.access(), 7), Ok(Some(70)))),
        Ok(())
    );
    // Key 0 is the tail: the walk crosses the torn slots.
    let ops: [(&str, GuardOp<'_>); 3] = [
        ("get", &|g| {
            let _ = map.get(&mut g.access(), 0);
        }),
        ("put", &|g| {
            let _ = map.put(&mut g.access(), 0, 1);
        }),
        ("bulk_for_each", &|g| map.bulk_for_each(g, |_, _| {})),
    ];
    for (what, op) in ops {
        let result = under_guard(op);
        let msg = result.expect_err(what);
        assert!(
            msg.contains("not bound to the privatized partition"),
            "{what}: unexpected panic message {msg:?}"
        );
    }
    // Nothing was written, and transactions see the map intact.
    assert_eq!(ctx.run(|tx| map.get(tx, 0)), Some(0));
    assert_eq!(map.snapshot_pairs().len(), 8);
    // Healed, the same operations run under the guard.
    assert_eq!(stm.migrate(&map, &home, &[]), SwitchOutcome::Switched);
    assert_eq!(
        under_guard(&|g| assert_eq!(map.put(&mut g.access(), 0, 1), Ok(Some(0)))),
        Ok(())
    );
    assert_eq!(ctx.run(|tx| map.get(tx, 0)), Some(1));
}
