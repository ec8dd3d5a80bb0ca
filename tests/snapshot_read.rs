//! The multi-version snapshot read tier under fire: read-only
//! transactions must never abort on a data conflict and must always
//! observe a consistent snapshot (the conserved-sum probe), no matter
//! what the writers *or the control plane* — orec resizes, partition
//! splits and migrations — are doing around them.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use partstm::core::{Migratable, PVar, PartitionConfig, Stm, SwitchOutcome};
use partstm::structures::{THashMap, TRbTree};

const ACCOUNTS: usize = 16;
const INITIAL: i64 = 1_000;
const EXPECT: i64 = ACCOUNTS as i64 * INITIAL;

fn bank(part: &Arc<partstm::core::Partition>) -> Vec<Arc<PVar<i64>>> {
    (0..ACCOUNTS)
        .map(|_| Arc::new(part.tvar(INITIAL)))
        .collect()
}

/// Spawns `n` transfer threads inside `scope`; they run until `stop`.
fn spawn_writers<'s>(
    scope: &'s std::thread::Scope<'s, '_>,
    stm: &'s Stm,
    accounts: &'s [Arc<PVar<i64>>],
    stop: &'s AtomicBool,
    n: usize,
) {
    for t in 0..n {
        let ctx = stm.register_thread();
        scope.spawn(move || {
            let mut r = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            while !stop.load(Ordering::Relaxed) {
                r ^= r << 13;
                r ^= r >> 7;
                r ^= r << 17;
                let from = (r % ACCOUNTS as u64) as usize;
                let to = ((r >> 8) % ACCOUNTS as u64) as usize;
                let amt = (r % 90) as i64;
                ctx.run(|tx| {
                    let f = tx.read(&accounts[from])?;
                    tx.write(&accounts[from], f - amt)?;
                    let v = tx.read(&accounts[to])?;
                    tx.write(&accounts[to], v + amt)?;
                    Ok(())
                });
            }
        });
    }
}

/// Data conflicts alone never abort a snapshot reader: with no control
/// plane running, every closure invocation completes — attempts equals
/// successes exactly — while each observed sum is consistent. Returns the
/// partition's statistics for storm-specific assertions.
fn abort_free_storm(cfg: PartitionConfig, millis: u64) -> partstm::core::StatCounters {
    let stm = Stm::new();
    let part = stm.new_partition(cfg);
    let accounts = bank(&part);
    let stop = AtomicBool::new(false);
    let attempts = AtomicU64::new(0);
    let successes = AtomicU64::new(0);
    std::thread::scope(|s| {
        spawn_writers(s, &stm, &accounts, &stop, 3);
        for _ in 0..2 {
            let ctx = stm.register_thread();
            let (accounts, stop, attempts, successes) = (&accounts, &stop, &attempts, &successes);
            s.spawn(move || {
                let mut tries = 0u64;
                let mut done = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let sum = ctx.snapshot_read(|tx| {
                        tries += 1;
                        let mut sum = 0i64;
                        for a in accounts {
                            sum += tx.read(a)?;
                        }
                        Ok(sum)
                    });
                    done += 1;
                    if sum != EXPECT {
                        stop.store(true, Ordering::Relaxed);
                        panic!("inconsistent snapshot: {sum} != {EXPECT}");
                    }
                }
                attempts.fetch_add(tries, Ordering::Relaxed);
                successes.fetch_add(done, Ordering::Relaxed);
            });
        }
        std::thread::sleep(Duration::from_millis(millis));
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(
        attempts.load(Ordering::Relaxed),
        successes.load(Ordering::Relaxed),
        "a snapshot reader aborted on a pure data conflict"
    );
    assert!(successes.load(Ordering::Relaxed) > 0);
    let s = part.stats();
    assert!(s.snapshot_commits > 0, "snapshot commits must be counted");
    assert_eq!(s.snapshot_restarts, 0, "no control plane ran");
    let total: i64 = accounts.iter().map(|a| a.load_direct()).sum();
    assert_eq!(total, EXPECT);
    s
}

#[test]
fn snapshot_reads_are_consistent_and_abort_free_under_write_storm() {
    abort_free_storm(PartitionConfig::named("storm").ring(4), 1200);
}

/// The same storm with rings so small that every publish wraps the ring
/// or diverts to the overflow list: sixteen accounts on eight orecs at
/// depth 1 (the cursor never moves) and depth 3 (it wraps on a
/// non-power-of-two), with readers pinning the floor throughout.
#[test]
fn snapshot_reads_are_abort_free_when_every_publish_wraps_or_diverts() {
    for depth in [1, 3] {
        let s = abort_free_storm(PartitionConfig::named("tiny").orecs(8).ring(depth), 700);
        assert!(
            s.ring_overflow_pushes > 0,
            "depth {depth}: pinned readers must have forced diverts"
        );
        assert!(
            s.snapshot_history_reads > 0,
            "depth {depth}: history served reads"
        );
    }
}

/// Orec-table resizes race the readers, each swapping in a fresh version
/// ring sized to the new table: a reader that catches a quiesce window
/// restarts (that is the designed response), but every sum it *returns*
/// is still consistent.
#[test]
fn snapshot_reads_survive_orec_and_ring_resizes() {
    let stm = Stm::new();
    let part = stm.new_partition(PartitionConfig::named("resizy").orecs(64).ring(2));
    let accounts = bank(&part);
    let stop = AtomicBool::new(false);
    let switches = AtomicUsize::new(0);
    std::thread::scope(|s| {
        spawn_writers(s, &stm, &accounts, &stop, 2);
        for _ in 0..2 {
            let ctx = stm.register_thread();
            let (accounts, stop) = (&accounts, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let sum = ctx.snapshot_read(|tx| {
                        let mut sum = 0i64;
                        for a in accounts {
                            sum += tx.read(a)?;
                        }
                        Ok(sum)
                    });
                    if sum != EXPECT {
                        stop.store(true, Ordering::Relaxed);
                        panic!("inconsistent snapshot: {sum} != {EXPECT}");
                    }
                }
            });
        }
        // Control plane: alternate table sizes as fast as the quiesce
        // protocol allows, deadline-bounded.
        {
            let stm2 = stm.clone();
            let (part, stop, switches) = (Arc::clone(&part), &stop, &switches);
            s.spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(4);
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let o = stm2.resize_orecs(&part, if i.is_multiple_of(2) { 256 } else { 64 });
                    i += 1;
                    if o == SwitchOutcome::Switched {
                        switches.fetch_add(1, Ordering::Relaxed);
                    }
                    if switches.load(Ordering::Relaxed) >= 20 || Instant::now() > deadline {
                        stop.store(true, Ordering::Relaxed);
                    }
                    std::thread::yield_now();
                }
            });
        }
    });
    assert!(
        switches.load(Ordering::Relaxed) > 0,
        "the storm must have resized at least once"
    );
    let total: i64 = accounts.iter().map(|a| a.load_direct()).sum();
    assert_eq!(total, EXPECT);
}

/// Split/migrate/merge storms rebind accounts between partitions while
/// snapshot readers sum across all of them in one pinned snapshot: the
/// sum must stay conserved even when a read lands mid-migration (the
/// binding recheck turns that into a restart, never a wrong value).
#[test]
fn snapshot_reads_span_partitions_across_split_and_migrate_storms() {
    let stm = Stm::new();
    let home = stm.new_partition(PartitionConfig::named("home").ring(4));
    let accounts = bank(&home);
    let stop = AtomicBool::new(false);
    let storms = AtomicUsize::new(0);
    std::thread::scope(|s| {
        spawn_writers(s, &stm, &accounts, &stop, 2);
        for _ in 0..2 {
            let ctx = stm.register_thread();
            let (accounts, stop) = (&accounts, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let sum = ctx.snapshot_read(|tx| {
                        let mut sum = 0i64;
                        for a in accounts {
                            sum += tx.read(a)?;
                        }
                        Ok(sum)
                    });
                    if sum != EXPECT {
                        stop.store(true, Ordering::Relaxed);
                        panic!("inconsistent snapshot: {sum} != {EXPECT}");
                    }
                }
            });
        }
        {
            let stm2 = stm.clone();
            let (accounts, home, stop, storms) = (&accounts, Arc::clone(&home), &stop, &storms);
            s.spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(4);
                while !stop.load(Ordering::Relaxed) {
                    let evens: Vec<&dyn Migratable> = accounts
                        .iter()
                        .step_by(2)
                        .map(|a| &**a as &dyn Migratable)
                        .collect();
                    let all: Vec<&dyn Migratable> =
                        accounts.iter().map(|a| &**a as &dyn Migratable).collect();
                    let side = stm2.new_partition(PartitionConfig::named("side").ring(2));
                    let o1 = stm2.migrate(&evens[..], &side, &[&home]);
                    let o2 = stm2.migrate(&all[..], &home, &[&side]);
                    if o1 == SwitchOutcome::Switched && o2 == SwitchOutcome::Switched {
                        storms.fetch_add(1, Ordering::Relaxed);
                    }
                    if storms.load(Ordering::Relaxed) >= 10 || Instant::now() > deadline {
                        stop.store(true, Ordering::Relaxed);
                    }
                    std::thread::yield_now();
                }
            });
        }
    });
    assert!(
        storms.load(Ordering::Relaxed) > 0,
        "the storm must have split and merged at least once"
    );
    let total: i64 = accounts.iter().map(|a| a.load_direct()).sum();
    assert_eq!(total, EXPECT);
}

/// Failure injection: a reader that has already materialized a view of
/// one partition then straddles a quiesce window on a *second* partition
/// restarts the whole attempt (a snapshot must not mix generations) and
/// succeeds once the window clears.
#[test]
fn snapshot_reader_straddling_a_quiesce_window_restarts_cleanly() {
    let stm = Stm::new();
    let pa = stm.new_partition(PartitionConfig::named("a"));
    let pb = stm.new_partition(PartitionConfig::named("b"));
    let x = pa.tvar(7i64);
    let y = pb.tvar(35i64);
    let ctx = stm.register_thread();
    let mut straddles = 0u32;
    let sum = ctx.snapshot_read(|tx| {
        let vx = tx.read(&x)?;
        if straddles == 0 {
            // Inject the switch flag *after* partition `a` is already in
            // the attempt's view set: the next read straddles the window.
            pb.debug_force_switch_flag(true);
        }
        match tx.read(&y) {
            Ok(vy) => Ok(vx + vy),
            Err(e) => {
                straddles += 1;
                pb.debug_force_switch_flag(false);
                Err(e)
            }
        }
    });
    assert_eq!(sum, 42);
    assert_eq!(straddles, 1, "exactly one attempt must straddle the window");
    let sb = pb.stats();
    assert_eq!(sb.aborts_switching, 1);
    assert_eq!(sb.snapshot_restarts, 1);
    // The partition read *before* the injected window is uncharged.
    assert_eq!(pa.stats().snapshot_restarts, 0);
}

/// A structure's own read-only walks run unchanged on a snapshot, and
/// every snapshot is consistent while updaters commit: 3,000 red-black
/// invariant checks of a tree under concurrent inserts and removes, and as
/// many sums over a map whose updaters only move value between entries.
#[test]
fn structure_walks_hold_their_invariants_in_every_snapshot_under_updates() {
    const KEYS: u64 = 64;
    const TOTAL: u64 = KEYS * 1_000;
    let stm = Stm::new();
    let tree = TRbTree::new(stm.new_partition(PartitionConfig::named("tree")));
    let map = THashMap::new(stm.new_partition(PartitionConfig::named("map")), 16);
    let ctx = stm.register_thread();
    for k in 0..KEYS {
        ctx.run(|tx| map.put(tx, k, 1_000).map(|_| ()));
    }
    let stop = AtomicBool::new(false);
    let commits = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let ctx = stm.register_thread();
            let (tree, map, stop, commits) = (&tree, &map, &stop, &commits);
            s.spawn(move || {
                let mut r = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                while !stop.load(Ordering::Relaxed) {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    let key = r % KEYS;
                    if (r >> 32) & 1 == 0 {
                        ctx.run(|tx| tree.put(tx, key, key).map(|_| ()));
                    } else {
                        ctx.run(|tx| tree.delete(tx, key).map(|_| ()));
                    }
                    let (from, to, amt) = (r % KEYS, (r >> 8) % KEYS, (r >> 16) % 50);
                    ctx.run(|tx| {
                        let f = map.get(tx, from)?.expect("every key is present");
                        map.put(tx, from, f.wrapping_sub(amt))?;
                        let v = map.get(tx, to)?.expect("every key is present");
                        map.put(tx, to, v.wrapping_add(amt))?;
                        Ok(())
                    });
                    commits.fetch_add(2, Ordering::Relaxed);
                }
            });
        }
        let ctx = stm.register_thread();
        let (tree, map, stop, commits) = (&tree, &map, &stop, &commits);
        s.spawn(move || {
            let start = commits.load(Ordering::Relaxed);
            for i in 0..3_000 {
                let checked = ctx.snapshot_read(|r| tree.invariants(r));
                assert!(checked.is_ok(), "snapshot {i}: {checked:?}");
                let sum = ctx.snapshot_read(|r| {
                    let mut sum = 0u64;
                    map.for_each(r, |_, v| sum = sum.wrapping_add(v))?;
                    Ok(sum)
                });
                assert_eq!(sum, TOTAL, "snapshot {i}: map sum");
            }
            let during = commits.load(Ordering::Relaxed) - start;
            stop.store(true, Ordering::Relaxed);
            assert!(during > 0, "the updaters must commit while the checks run");
        });
    });
    tree.check_invariants().unwrap();
    let sum = map
        .snapshot_pairs()
        .iter()
        .fold(0u64, |s, &(_, v)| s.wrapping_add(v));
    assert_eq!(sum, TOTAL);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Against random transfer histories, ring depths and a live orec
    /// resize at a random point, a quiescent snapshot agrees with direct
    /// reads on every single account and every mid-history snapshot sum
    /// is conserved.
    #[test]
    fn snapshot_sums_match_direct_reads_under_random_histories(
        depth in 1usize..=8,
        ops in proptest::collection::vec((0..ACCOUNTS, 0..ACCOUNTS, 0..100i64), 1..60),
        resize_at in 0usize..60,
    ) {
        let stm = Stm::new();
        let part = stm.new_partition(PartitionConfig::named("hist").ring(depth));
        let accounts = bank(&part);
        let ctx = stm.register_thread();
        for (i, (from, to, amt)) in ops.iter().enumerate() {
            if i == resize_at {
                // A live resize mid-history discards the rings; it must
                // not lose records a *future* snapshot needs (it cannot:
                // discarded history predates any post-change pin). The
                // resize may time out under contention; either outcome is
                // a valid test case.
                let _ = stm.resize_orecs(&part, part.orec_count() * 2);
            }
            ctx.run(|tx| {
                let f = tx.read(&accounts[*from])?;
                tx.write(&accounts[*from], f - amt)?;
                let v = tx.read(&accounts[*to])?;
                tx.write(&accounts[*to], v + amt)?;
                Ok(())
            });
            let sum = ctx.snapshot_read(|tx| {
                let mut sum = 0i64;
                for a in &accounts {
                    sum += tx.read(a)?;
                }
                Ok(sum)
            });
            prop_assert_eq!(sum, EXPECT, "snapshot sum diverged at op {}", i);
        }
        for (i, a) in accounts.iter().enumerate() {
            let direct = a.load_direct();
            let snap = ctx.snapshot_read(|tx| tx.read(a));
            prop_assert_eq!(snap, direct, "quiescent snapshot diverged on account {}", i);
        }
    }
}
