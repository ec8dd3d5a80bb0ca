//! Failure injection: user panics, user-requested retries and pathological
//! closures must never leak locks, reader bits or arena slots — and a
//! failed *arena migration* or *privatization* (contention or quiesce
//! timeout) must leave the free list and every slot binding exactly as it
//! found them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use partstm::core::{
    fault, Abort, Arena, FaultPlan, FaultSite, Granularity, Handle, MigratableCollection,
    MigrationSource, PVar, PVarBinding, Partition, PartitionConfig, PrivatizeError, ReadMode, Stm,
    SwitchOutcome,
};
use partstm::structures::{Bank, THashMap};

/// Serializes the tests that install a process-global fault plan (the
/// plans are additionally scoped to their own `Stm` via
/// [`FaultPlan::for_stm`], so the *other* tests in this binary are immune
/// either way).
static FAULT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Panics mid-transaction on several threads while others run normally;
/// afterwards the partition must be fully unlocked and consistent.
#[test]
fn panics_under_concurrency_leak_nothing() {
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("p").granularity(Granularity::PartitionLock));
    let x = Arc::new(p.tvar(0u64));
    std::thread::scope(|s| {
        // Panicking threads: write then blow up (lock held at panic).
        for t in 0..3u64 {
            let ctx = stm.register_thread();
            let x = x.clone();
            s.spawn(move || {
                for i in 0..50 {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        ctx.run(|tx| {
                            let v = x.read(tx)?;
                            x.write(tx, v + 1)?;
                            if i % 2 == 0 {
                                panic!("injected failure {t}/{i}");
                            }
                            Ok(())
                        })
                    }));
                    if i % 2 == 0 {
                        assert!(r.is_err(), "panic must propagate");
                    }
                }
            });
        }
        // Normal workers keep making progress throughout.
        for _ in 0..3 {
            let ctx = stm.register_thread();
            let x = x.clone();
            s.spawn(move || {
                for _ in 0..500 {
                    ctx.run(|tx| tx.modify(&x, |v| v + 1).map(|_| ()));
                }
            });
        }
    });
    // Partition must be fully unlocked.
    let (locked, owners, _) = p.debug_scan();
    assert_eq!(locked, 0, "leaked locks owned by {owners:?}");
    // The panicking threads committed only their odd iterations (25 each).
    assert_eq!(x.load_direct(), 3 * 25 + 3 * 500);
}

/// Panics while holding visible-reader bits: the bits must be cleared so
/// writers are never blocked forever.
#[test]
fn panic_clears_visible_reader_bits() {
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("v").read_mode(ReadMode::Visible));
    let x = Arc::new(p.tvar(7u64));
    let ctx = stm.register_thread();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ctx.run(|tx| {
            let _ = x.read(tx)?; // sets our reader bit
            panic!("reader dies");
            #[allow(unreachable_code)]
            Ok(())
        })
    }));
    assert!(r.is_err());
    let (_, _, _) = p.debug_scan();
    // A writer must succeed immediately (no stale reader bit to wait on).
    let ctx2 = stm.register_thread();
    let done = ctx2.run(|tx| {
        x.write(tx, 8)?;
        Ok(true)
    });
    assert!(done);
    assert_eq!(x.load_direct(), 8);
}

/// Abort::retry storms with transactional allocations: no slot may leak
/// even when every attempt but the last aborts.
#[test]
fn retry_storms_do_not_leak_arena_slots() {
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("a"));
    let arena: Arc<Arena<PVar<u64>>> = Arc::new(Arena::new_bound(&p, |p| p.tvar(0)));
    let total_commits = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let ctx = stm.register_thread();
            let (arena, total_commits) = (arena.clone(), total_commits.clone());
            s.spawn(move || {
                let mut kept: Vec<Handle<PVar<u64>>> = Vec::new();
                for i in 0..500u64 {
                    let mut attempts = 0;
                    let h = ctx.run(|tx| {
                        attempts += 1;
                        let h = arena.alloc(tx)?;
                        tx.write(arena.get(h), t * 1000 + i)?;
                        if attempts < 3 {
                            return Err(Abort::retry());
                        }
                        Ok(h)
                    });
                    kept.push(h);
                    total_commits.fetch_add(1, Ordering::Relaxed);
                }
                // Free half of them again.
                for h in kept.drain(..).step_by(2) {
                    ctx.run(|tx| {
                        arena.free(tx, h);
                        Ok(())
                    });
                }
            });
        }
    });
    assert_eq!(total_commits.load(Ordering::Relaxed), 2000);
    // 2000 allocations committed, 1000 freed: exactly 1000 live.
    assert_eq!(arena.live(), 1000, "aborted attempts must not leak slots");
}

mod common;
use common::assert_all_bindings_in;
#[path = "common/control_ops.rs"]
mod control_ops;
use control_ops::ControlOp;

/// A contended arena migration (destination mid-switch) must roll back
/// without touching a single binding, the home, or the free list; the
/// retry after the contention clears must succeed completely.
#[test]
fn contended_arena_migration_rolls_back_bindings_and_freelist() {
    let stm = Stm::new();
    let a = stm.new_partition(PartitionConfig::named("a"));
    let b = stm.new_partition(PartitionConfig::named("b"));
    let map = THashMap::new(Arc::clone(&a), 8);
    let ctx = stm.register_thread();
    for k in 0..32u64 {
        ctx.run(|tx| map.put(tx, k, k * 10).map(|_| ()));
    }
    // Free a few slots so the free list has entries to preserve.
    for k in (0..32u64).step_by(4) {
        ctx.run(|tx| map.delete(tx, k).map(|_| ()));
    }
    let live_before = map.live_nodes();
    let (ga, gb) = (a.generation(), b.generation());

    // Simulate a concurrent switch holding b's flag.
    b.debug_force_switch_flag(true);
    assert_eq!(stm.migrate(&map, &b, &[]), SwitchOutcome::Contended);
    assert_eq!(map.partition_of(), a.id(), "home untouched");
    assert_all_bindings_in(&map, a.id(), "map");
    assert_eq!(a.generation(), ga, "no generation bump on rollback");
    assert_eq!(b.generation(), gb);
    assert_eq!(map.live_nodes(), live_before, "free list untouched");

    // Source-side contention behaves the same.
    a.debug_force_switch_flag(true);
    b.debug_force_switch_flag(false);
    assert_eq!(stm.migrate(&map, &b, &[]), SwitchOutcome::Contended);
    assert_all_bindings_in(&map, a.id(), "map");
    a.debug_force_switch_flag(false);

    // Once clear, the same migration succeeds and the map still works:
    // recycled slots (from the free list the rollback preserved) come
    // back bound to the destination.
    assert_eq!(stm.migrate(&map, &b, &[]), SwitchOutcome::Switched);
    assert_all_bindings_in(&map, b.id(), "map");
    for k in (0..32u64).step_by(4) {
        assert!(ctx.run(|tx| map.put_if_absent(tx, k, k * 10)));
    }
    assert_eq!(map.live_nodes(), 32);
    for k in 0..32u64 {
        assert_eq!(ctx.run(|tx| map.get(tx, k)), Some(k * 10));
    }
}

/// Everything an integration test can see of a partition's control-plane
/// state: configuration, generation, orec table, hold.
fn control_state(p: &Partition) -> impl PartialEq + std::fmt::Debug {
    (
        p.current_config(),
        p.generation(),
        (p.orec_count(), p.stats().orec_resizes),
        p.is_privatized(),
    )
}

/// A quiesce timeout (a straggler transaction refuses to finish within the
/// configured window) during *any* of the four control-plane operations
/// reports `TimedOut` — in debug and release alike — and rolls the
/// operation back: configuration, generation, table and every binding
/// exactly as found, free list consistent. The straggler commits
/// exactly once, as if nothing had happened, and the same operation
/// succeeds once it is gone.
#[test]
fn quiesce_timeout_rolls_back_every_control_operation() {
    for op in ControlOp::ALL {
        let stm = Stm::builder()
            .quiesce_timeout(Duration::from_millis(100))
            .build();
        let a = stm.new_partition(PartitionConfig::named("a").orecs(64));
        let b = stm.new_partition(PartitionConfig::named("b"));
        let map = Arc::new(THashMap::new(Arc::clone(&a), 8));
        {
            let ctx = stm.register_thread();
            for k in 0..16u64 {
                ctx.run(|tx| map.put(tx, k, 7).map(|_| ()));
            }
        }
        let in_txn = Arc::new(AtomicBool::new(false));
        let live_before = map.live_nodes();
        let (state_a, state_b) = (control_state(&a), control_state(&b));

        std::thread::scope(|s| {
            // The straggler: holds one update transaction open well past
            // the quiesce timeout (sleeping inside a transaction — never
            // do this in real code; that is the point).
            {
                let ctx = stm.register_thread();
                let (map, in_txn) = (Arc::clone(&map), Arc::clone(&in_txn));
                s.spawn(move || {
                    let mut slept = false;
                    ctx.run(|tx| {
                        let v = map.get(tx, 3)?.expect("seeded");
                        if !slept {
                            slept = true;
                            in_txn.store(true, Ordering::Release);
                            std::thread::sleep(Duration::from_millis(400));
                        }
                        map.put(tx, 3, v + 1).map(|_| ())
                    });
                });
            }
            while !in_txn.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            assert_eq!(
                op.run(&stm, &a, &b, &*map),
                SwitchOutcome::TimedOut,
                "{op:?}"
            );
            assert_eq!(control_state(&a), state_a, "{op:?}: a exactly as found");
            assert_eq!(control_state(&b), state_b, "{op:?}: b exactly as found");
            assert_eq!(map.partition_of(), a.id(), "{op:?}: home untouched");
            assert_all_bindings_in(&*map, a.id(), "map");
            assert_eq!(map.live_nodes(), live_before, "{op:?}: free list untouched");
            let st = a.stats();
            let rollbacks = u64::from(matches!(op, ControlOp::Privatize));
            assert_eq!(st.privatize_rollbacks, rollbacks, "{op:?}: classified");
            assert_eq!((st.privatizations, st.republishes), (0, 0), "{op:?}");
            // Counted on the window's subject (a migration's is its
            // destination) with telemetry off: one drain, timed out, its
            // kill ignored by the sleeping straggler, which then stuck.
            assert!(!partstm::core::telemetry::enabled());
            let subject = if op == ControlOp::Migrate { &b } else { &a };
            let st = subject.stats();
            assert_eq!((st.quiesce_windows, st.quiesce_timeouts), (1, 1), "{op:?}");
            assert_eq!((st.kill_rescue_kills, st.stuck_slots), (1, 1), "{op:?}");
        });

        // The straggler's transaction committed exactly once despite the
        // rolled-back operation racing it.
        let ctx = stm.register_thread();
        assert_eq!(ctx.run(|tx| map.get(tx, 3)), Some(8), "{op:?}: exact");

        // Straggler gone: the same operation now succeeds, and the map is
        // fully functional afterwards.
        assert_eq!(
            op.run(&stm, &a, &b, &*map),
            SwitchOutcome::Switched,
            "{op:?}"
        );
        assert_eq!(a.generation(), 1, "{op:?}: the retry closed its window");
        match op {
            ControlOp::Switch => assert_eq!(a.current_config().read_mode, ReadMode::Visible),
            ControlOp::ResizeOrecs => assert_eq!(a.orec_count(), 128),
            ControlOp::Migrate => assert_all_bindings_in(&*map, b.id(), "map"),
            ControlOp::Privatize => assert_eq!(a.stats().republishes, 1),
        }
        for k in 0..16u64 {
            let want = if k == 3 { 8 } else { 7 };
            assert_eq!(ctx.run(|tx| map.get(tx, k)), Some(want), "{op:?}");
        }
    }
}

/// A [`MigrationSource`] that enumerates `inner` faithfully except on
/// call number `panic_on`, where it visits half the bindings and dies —
/// user code blowing up inside a repartition window.
struct PanickingSource<'a> {
    inner: &'a Bank,
    calls: std::cell::Cell<usize>,
    panic_on: usize,
}

impl MigrationSource for PanickingSource<'_> {
    fn for_each_binding(&self, f: &mut dyn FnMut(&PVarBinding)) {
        let call = self.calls.get() + 1;
        self.calls.set(call);
        let mut left = if call == self.panic_on {
            self.inner.len() / 2
        } else {
            usize::MAX
        };
        self.inner.for_each_binding(&mut |b| {
            assert!(left > 0, "source dies on enumeration {call}");
            left -= 1;
            f(b);
        });
    }
}

/// A source that panics while every involved partition's switching flag
/// is held — on its 2nd enumeration (the re-validation under the flags)
/// or part-way through its 3rd (the rebind pass) — must not wedge the
/// partitions: the window's drop hook un-flags them. Before the mutation
/// started that is a rollback (bindings and generations exactly as
/// found); part-way through it is a conservative close (every involved
/// partition re-stamped and published under generation+1, each binding
/// wherever the pass left it). Either way a healthy migration of the same
/// variables then succeeds, transactions over them commit, and the sum
/// is conserved.
#[test]
fn panicking_migration_source_does_not_wedge_the_partitions() {
    const ACCOUNTS: usize = 16;
    for panic_on in [2, 3] {
        let stm = Stm::new();
        let a = stm.new_partition(PartitionConfig::named("a"));
        let b = stm.new_partition(PartitionConfig::named("b"));
        let bank = Bank::new(Arc::clone(&a), ACCOUNTS, 100);
        let ctx = stm.register_thread();
        ctx.run(|tx| bank.transfer(tx, 0, 1, 30));
        let (ga, gb) = (a.generation(), b.generation());

        let src = PanickingSource {
            inner: &bank,
            calls: std::cell::Cell::new(0),
            panic_on,
        };
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| stm.migrate(&src, &b, &[])));
        assert!(r.is_err(), "the source's panic propagates");
        assert_eq!(src.calls.get(), panic_on);

        if panic_on == 2 {
            assert_all_bindings_in(&bank, a.id(), "bank");
            assert_eq!((a.generation(), b.generation()), (ga, gb), "rolled back");
        } else {
            assert_eq!(
                (a.generation(), b.generation()),
                (ga + 1, gb + 1),
                "closed conservatively"
            );
        }
        // Torn or not, every account stays transactional and no flag is
        // left behind: a transfer across the tear commits at once…
        ctx.run(|tx| bank.transfer(tx, 0, ACCOUNTS - 1, 5));
        // …and so does the healthy migration of the same variables.
        assert_eq!(stm.migrate(&bank, &b, &[]), SwitchOutcome::Switched);
        assert_all_bindings_in(&bank, b.id(), "bank");
        ctx.run(|tx| bank.transfer(tx, 1, 2, 7));
        assert_eq!(ctx.run(|tx| bank.total(tx)), ACCOUNTS as i64 * 100);
        assert_eq!(bank.total_direct(), ACCOUNTS as i64 * 100, "sum conserved");
    }
}

/// Transactional allocate/free racing a flagged (mid-switch) partition:
/// every attempt aborts on the switching flag until it clears, and no
/// abort may leak or corrupt a free-list slot — afterwards the live count
/// is exact and the contents match.
#[test]
fn alloc_free_racing_flagged_window_keeps_freelist_consistent() {
    let stm = Stm::new();
    let a = stm.new_partition(PartitionConfig::named("a"));
    let map = Arc::new(THashMap::new(Arc::clone(&a), 8));
    {
        let ctx = stm.register_thread();
        // Seed, then delete, so the free list has recyclable slots that
        // aborting allocations must hand back correctly.
        for k in 100..116u64 {
            ctx.run(|tx| map.put(tx, k, 1).map(|_| ()));
        }
        for k in 100..116u64 {
            ctx.run(|tx| map.delete(tx, k).map(|_| ()));
        }
    }
    assert_eq!(map.live_nodes(), 0);

    a.debug_force_switch_flag(true);
    let started = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let ctx = stm.register_thread();
            let (map, started) = (Arc::clone(&map), Arc::clone(&started));
            s.spawn(move || {
                started.store(true, Ordering::Release);
                // Each op allocates (insert) or frees (delete); while the
                // flag is held every attempt aborts and rolls its
                // allocation back.
                for k in 0..24u64 {
                    ctx.run(|tx| map.put(tx, k, k).map(|_| ()));
                    if k % 3 == 0 {
                        ctx.run(|tx| map.delete(tx, k).map(|_| ()));
                    }
                }
            });
        }
        while !started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // Keep the window flagged while the worker burns attempts into it.
        std::thread::sleep(Duration::from_millis(60));
        a.debug_force_switch_flag(false);
    });

    let st = a.stats();
    assert!(
        st.aborts_switching > 0,
        "the flagged window must have rejected at least one attempt"
    );
    // 24 inserts, 8 deletes: exactly 16 live nodes, recycled slots and
    // all — and every key readable.
    assert_eq!(map.live_nodes(), 16, "free list consistent after the storm");
    let ctx = stm.register_thread();
    for k in 0..24u64 {
        let expect = if k % 3 == 0 { None } else { Some(k) };
        assert_eq!(ctx.run(|tx| map.get(tx, k)), expect);
    }
}

/// A contended orec resize (partition mid-switch) must report
/// `Contended` without touching the table, its versions, the generation
/// or any in-flight state — and succeed once the flag clears.
#[test]
fn contended_resize_rolls_back_table_exactly() {
    let stm = Stm::new();
    let a = stm.new_partition(PartitionConfig::named("a").orecs(64));
    let x = Arc::new(a.tvar(5u64));
    let ctx = stm.register_thread();
    // Commit a few updates so orec versions are non-trivial.
    for _ in 0..10 {
        ctx.run(|tx| tx.modify(&x, |v| v + 1).map(|_| ()));
    }
    let count = a.orec_count();
    let generation = a.generation();
    let (locked, _, maxv) = a.debug_scan();
    assert_eq!(locked, 0);

    a.debug_force_switch_flag(true);
    assert_eq!(stm.resize_orecs(&a, 4096), SwitchOutcome::Contended);
    a.debug_force_switch_flag(false);

    assert_eq!(a.orec_count(), count, "table size untouched");
    assert_eq!(a.generation(), generation, "no generation bump on rollback");
    assert_eq!(a.stats().orec_resizes, 0, "no resize recorded");
    let (locked2, _, maxv2) = a.debug_scan();
    assert_eq!((locked2, maxv2), (locked, maxv), "orec versions untouched");
    // Transactions keep running against the old table.
    assert_eq!(ctx.run(|tx| tx.modify(&x, |v| v + 1)), 16);

    // Once clear, the same resize succeeds.
    assert!(stm.resize_orecs(&a, 4096).switched());
    assert_eq!(a.orec_count(), 4096);
    assert_eq!(a.generation(), generation + 1);
    assert_eq!(ctx.run(|tx| tx.read(&x)), 16, "data survives the resize");
}

/// A contended privatization (partition already mid-switch) reports
/// `Contended` without touching the config word, generation, orec table,
/// versions or any binding — and succeeds once the flag clears, with the
/// guard's private writes becoming transactional truth at republish.
#[test]
fn contended_privatize_rolls_back_exactly() {
    let stm = Stm::new();
    let a = stm.new_partition(PartitionConfig::named("a").orecs(64));
    let map = THashMap::new(Arc::clone(&a), 8);
    let ctx = stm.register_thread();
    for k in 0..16u64 {
        ctx.run(|tx| map.put(tx, k, k).map(|_| ()));
    }
    let generation = a.generation();
    let count = a.orec_count();
    let (locked, _, maxv) = a.debug_scan();
    assert_eq!(locked, 0);

    a.debug_force_switch_flag(true);
    assert_eq!(stm.privatize(&a).unwrap_err(), PrivatizeError::Contended);
    a.debug_force_switch_flag(false);

    assert!(
        !a.is_privatized(),
        "failed attempt leaves no privatized bit"
    );
    assert_eq!(a.generation(), generation, "no generation bump on rollback");
    assert_eq!(a.orec_count(), count, "table untouched");
    let (locked2, _, maxv2) = a.debug_scan();
    assert_eq!((locked2, maxv2), (locked, maxv), "orec versions untouched");
    assert_all_bindings_in(&map, a.id(), "map");
    assert_eq!(a.stats().privatizations, 0, "nothing counted as a hold");
    // Transactions keep running against the rolled-back partition.
    assert_eq!(ctx.run(|tx| map.get(tx, 3)), Some(3));

    // Once clear, privatization succeeds; a guard-gated write is
    // transactional truth after republish.
    let g = stm.privatize(&a).expect("uncontended");
    map.put(&mut g.access(), 99, 990)
        .expect("guard access never aborts");
    g.republish();
    assert_eq!(a.generation(), generation + 1);
    assert_eq!(ctx.run(|tx| map.get(tx, 99)), Some(990));
}

/// Privatize/republish cycles racing orec-resize storms, whole-collection
/// migrations and live transfer traffic: every control-plane pair
/// serializes on the switching bit (`Contended` bounces are allowed and
/// retried), no combination corrupts a binding, and the bank's conserved
/// sum survives the whole mêlée.
#[test]
fn privatize_vs_repartition_storm_conserves_sum() {
    const ACCOUNTS: usize = 32;
    let stm = Stm::new();
    let a = stm.new_partition(PartitionConfig::named("a").orecs(64));
    let b = stm.new_partition(PartitionConfig::named("b").orecs(64));
    let bank = Bank::new(Arc::clone(&a), ACCOUNTS, 100);
    let stop = AtomicBool::new(false);
    let privatized = AtomicU64::new(0);
    let migrated = AtomicU64::new(0);
    let resized = AtomicU64::new(0);

    std::thread::scope(|s| {
        // Transfer traffic for the whole storm.
        for t in 0..2u64 {
            let ctx = stm.register_thread();
            let (bank, stop) = (&bank, &stop);
            s.spawn(move || {
                let mut r = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                while !stop.load(Ordering::Relaxed) {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    let from = (r % ACCOUNTS as u64) as usize;
                    let to = ((r >> 8) % ACCOUNTS as u64) as usize;
                    ctx.run(|tx| bank.transfer(tx, from, to, (r % 30) as i64));
                }
            });
        }
        let mut storms = Vec::new();
        // Orec-resize storm on the original home.
        {
            let (stm, a, resized) = (&stm, &a, &resized);
            storms.push(s.spawn(move || {
                for i in 0..40 {
                    let size = if i % 2 == 0 { 256 } else { 64 };
                    if stm.resize_orecs(a, size).switched() {
                        resized.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }));
        }
        // Migration storm: bounce the bank between the two partitions.
        {
            let (stm, bank, a, b, migrated) = (&stm, &bank, &a, &b, &migrated);
            storms.push(s.spawn(move || {
                for i in 0..20 {
                    let dst = if i % 2 == 0 { b } else { a };
                    if stm.migrate(bank, dst, &[]).switched() {
                        migrated.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }));
        }
        // Privatization storm: grab whichever partition the bank calls
        // home, compact it (sum-preserving), republish.
        {
            let (stm, bank, privatized) = (&stm, &bank, &privatized);
            storms.push(s.spawn(move || {
                for _ in 0..30 {
                    let home = bank.home_partition();
                    match stm.privatize(&home) {
                        Ok(g) => {
                            // The hold pins the home: a migration of the
                            // bank contends until republish, so `covers`
                            // is stable for the guard's lifetime. It can
                            // still be false when a migration completed
                            // between reading `home` and flagging it — in
                            // which case the hold owns an empty partition
                            // and the compaction is skipped.
                            if g.covers(&bank.home_partition()) {
                                let total = bank.bulk_total(&g);
                                let n = ACCOUNTS as i64;
                                let (each, rem) = (total / n, total % n);
                                bank.bulk_load(&g, |i| each + i64::from((i as i64) < rem));
                            }
                            g.republish();
                            privatized.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(PrivatizeError::Contended) => std::thread::yield_now(),
                        Err(e) => panic!("privatize: {e}"),
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }));
        }
        for h in storms {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(
        bank.total_direct(),
        ACCOUNTS as i64 * 100,
        "sum conserved through the storm"
    );
    assert!(privatized.load(Ordering::Relaxed) > 0, "some holds landed");
    assert!(resized.load(Ordering::Relaxed) > 0, "some resizes landed");
    assert!(
        migrated.load(Ordering::Relaxed) > 0,
        "some migrations landed"
    );
    // All bindings agree on wherever the last migration left the bank.
    assert_all_bindings_in(&bank, bank.partition_of(), "bank");
}

/// The kill-based quiesce rescue: a worker wedges *inside* a transaction
/// while holding encounter locks (via the deterministic fault plan — the
/// stall polls its kill flag, modelling a transaction stuck in engine
/// wait loops, not a descheduled thread). A migration's quiesce must
/// cross its soft deadline, kill the wedged attempt, and complete —
/// instead of burning the full 10 s hard deadline and rolling back. The
/// killed worker retries cleanly: locks released, sum conserved.
#[test]
fn kill_rescue_unwedges_quiesce_within_soft_deadline() {
    const ACCOUNTS: usize = 16;
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let soft = Duration::from_millis(250);
    let stm = Stm::builder()
        .quiesce_timeout(Duration::from_secs(10))
        .kill_after(soft)
        .build();
    let a = stm.new_partition(PartitionConfig::named("a"));
    let b = stm.new_partition(PartitionConfig::named("b"));
    let bank = Bank::new(Arc::clone(&a), ACCOUNTS, 100);
    // Exactly one stall, far longer than the soft deadline and far
    // shorter than the hard one times nothing — only the kill can clear
    // it before the 30 s budget.
    let plan = fault::install(
        FaultPlan::new(0x0FEE_1BAD)
            .for_stm(&stm)
            .stall_holding_locks(1000, Duration::from_secs(30))
            .limit(FaultSite::StallHoldingLocks, 1)
            // Every drain also starts late: the rescue's deadlines hold
            // with the quiesce window widened.
            .quiesce_delay(1000, Duration::from_millis(2)),
    );
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        {
            let ctx = stm.register_thread();
            let (bank, stop) = (&bank, &stop);
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    i += 1;
                    let from = (i % ACCOUNTS as u64) as usize;
                    let to = ((i * 7 + 3) % ACCOUNTS as u64) as usize;
                    ctx.run(|tx| bank.transfer(tx, from, to, 5));
                }
            });
        }
        // Wait until the worker is wedged holding a lock.
        while plan.injected(FaultSite::StallHoldingLocks) == 0 {
            std::thread::yield_now();
        }
        let t0 = std::time::Instant::now();
        let outcome = stm.migrate(&bank, &b, &[]);
        let elapsed = t0.elapsed();
        stop.store(true, Ordering::Release);
        assert_eq!(outcome, SwitchOutcome::Switched, "rescue must unwedge");
        // Well past the soft deadline (the kill had to fire) but nowhere
        // near the 10 s hard deadline: the rescue resolved it, not the
        // timeout.
        assert!(
            elapsed >= soft,
            "quiesce finished in {elapsed:?} — nothing was ever wedged?"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "rescue too slow: {elapsed:?}"
        );
    });
    fault::clear();
    assert!(
        plan.injected(FaultSite::QuiesceDelay) >= 1,
        "the migration's drain must have crossed the delay site"
    );
    let killed: u64 = stm
        .partitions()
        .iter()
        .map(|p| p.stats().aborts_killed)
        .sum();
    assert!(killed >= 1, "the wedged attempt must die as Killed");
    let st = b.stats();
    assert!(
        st.kill_rescue_kills >= 1,
        "counted on the migration's subject"
    );
    assert_eq!(
        (st.quiesce_timeouts, st.stuck_slots),
        (0, 0),
        "rescued in time"
    );
    // The killed attempt leaked nothing and its retry preserved the sum.
    for p in stm.partitions() {
        let (locked, owners, _) = p.debug_scan();
        assert_eq!(locked, 0, "{}: leaked locks owned by {owners:?}", p.name());
    }
    assert_eq!(bank.total_direct(), ACCOUNTS as i64 * 100, "sum conserved");
    assert_all_bindings_in(&bank, b.id(), "bank");
    // The control plane is healthy again: the next action needs no rescue.
    assert_eq!(stm.migrate(&bank, &a, &[]), SwitchOutcome::Switched);
    let ctx = stm.register_thread();
    ctx.run(|tx| bank.transfer(tx, 0, 1, 1));
    assert_eq!(bank.total_direct(), ACCOUNTS as i64 * 100);
}

/// Deterministic mid-transaction panics (the `MidTxPanic` fault site) on
/// a live workload: every injected death unwinds through the `Drop`
/// rollback, leaking no locks and committing nothing.
#[test]
fn injected_mid_tx_panics_leak_nothing() {
    let _serial = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("p"));
    let x = Arc::new(p.tvar(0u64));
    let plan = fault::install(FaultPlan::new(3).for_stm(&stm).mid_tx_panic(400));
    let ctx = stm.register_thread();
    let mut committed = 0u64;
    for _ in 0..100 {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.run(|tx| tx.modify(&x, |v| v + 1).map(|_| ()))
        }));
        if r.is_ok() {
            committed += 1;
        }
    }
    fault::clear();
    assert!(
        plan.injected(FaultSite::MidTxPanic) > 0,
        "the plan must have fired at 400‰"
    );
    assert!(committed > 0, "some attempts must dodge the plan");
    let (locked, owners, _) = p.debug_scan();
    assert_eq!(locked, 0, "leaked locks owned by {owners:?}");
    assert_eq!(
        x.load_direct(),
        committed,
        "killed attempts published nothing"
    );
}

/// A closure that reads, then decides to retry until a condition appears
/// (user-level polling): progress and correct final state.
#[test]
fn user_retry_until_condition() {
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("c"));
    let flag = Arc::new(p.tvar(false));
    let value = Arc::new(p.tvar(0u64));
    std::thread::scope(|s| {
        let ctx = stm.register_thread();
        let (flag1, value1) = (flag.clone(), value.clone());
        let waiter = s.spawn(move || {
            ctx.run(|tx| {
                if !flag1.read(tx)? {
                    return Err(Abort::retry()); // backoff + retry
                }
                value1.read(tx)
            })
        });
        let ctx2 = stm.register_thread();
        let (flag2, value2) = (flag.clone(), value.clone());
        s.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            ctx2.run(|tx| {
                value2.write(tx, 99)?;
                flag2.write(tx, true)?;
                Ok(())
            });
        });
        assert_eq!(
            waiter.join().unwrap(),
            99,
            "waiter sees both writes atomically"
        );
    });
}
