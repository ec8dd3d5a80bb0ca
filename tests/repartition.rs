//! Runtime repartitioning end-to-end: the conserved-sum invariant under a
//! continuous split/merge/migration storm (the structural analogue of the
//! configuration switch-storm test in `pvar_bound_api.rs`), plus profiler
//! integration through real transactions.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use partstm::core::profiler::bucket_of;
use partstm::core::{AccessProfiler, Migratable, PVar, PartitionConfig, Stm, SwitchOutcome};

/// Bank transfers while a background thread repeatedly splits the account
/// partition, migrates the rest after it, and merges everything back home.
/// Every partition view cached by an in-flight attempt must stay coherent
/// with the repartition protocol, and every binding load must resolve to a
/// partition whose orec table actually guards the variable — or a transfer
/// runs half under one partition and half under another and loses money.
#[test]
fn bank_conserves_total_under_split_merge_migration_storm() {
    const N: usize = 32;
    let stm = Stm::new();
    let home = stm.new_partition(PartitionConfig::named("home"));
    let accounts: Vec<Arc<PVar<i64>>> = (0..N).map(|_| Arc::new(home.tvar(1_000))).collect();
    let expect = N as i64 * 1_000;
    let stop = Arc::new(AtomicBool::new(false));
    let storms = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        // Transfer threads on the bound API.
        for t in 0..3usize {
            let ctx = stm.register_thread();
            let (accounts, stop) = (&accounts, Arc::clone(&stop));
            s.spawn(move || {
                let mut r = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                while !stop.load(Ordering::Relaxed) {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    let from = (r % N as u64) as usize;
                    let to = ((r >> 8) % N as u64) as usize;
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
        // Reader thread asserts the invariant mid-flight. `stop` is set
        // before the panic so the other loops wind down and the failure
        // surfaces instead of deadlocking the scope.
        {
            let ctx = stm.register_thread();
            let (accounts, stop) = (&accounts, Arc::clone(&stop));
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let total = ctx.run(|tx| {
                        let mut sum = 0i64;
                        for a in accounts.iter() {
                            sum += tx.read(a)?;
                        }
                        Ok(sum)
                    });
                    if total != expect {
                        stop.store(true, Ordering::Relaxed);
                        panic!("sum not conserved mid-flight: {total} != {expect}");
                    }
                }
            });
        }
        // Storm thread: split half the accounts out, migrate the other
        // half after them, merge everything back into `home` — repeat.
        {
            let stm2 = stm.clone();
            let home = Arc::clone(&home);
            let (accounts, stop, storms) = (&accounts, Arc::clone(&stop), Arc::clone(&storms));
            s.spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !stop.load(Ordering::Relaxed) {
                    let evens: Vec<&dyn Migratable> = accounts
                        .iter()
                        .step_by(2)
                        .map(|a| &**a as &dyn Migratable)
                        .collect();
                    let odds: Vec<&dyn Migratable> = accounts
                        .iter()
                        .skip(1)
                        .step_by(2)
                        .map(|a| &**a as &dyn Migratable)
                        .collect();
                    let all: Vec<&dyn Migratable> =
                        accounts.iter().map(|a| &**a as &dyn Migratable).collect();
                    let side = stm2.new_partition(PartitionConfig::named("side"));
                    let o1 = stm2.migrate(&evens[..], &side, &[&home]);
                    let o2 = stm2.migrate_pvars(&odds, &side);
                    let o3 = stm2.migrate(&all[..], &home, &[&side]);
                    if o1 == SwitchOutcome::Switched
                        && o2 == SwitchOutcome::Switched
                        && o3 == SwitchOutcome::Switched
                    {
                        storms.fetch_add(1, Ordering::Relaxed);
                    }
                    if storms.load(Ordering::Relaxed) >= 12 || Instant::now() > deadline {
                        stop.store(true, Ordering::Relaxed);
                    }
                    std::thread::yield_now();
                }
            });
        }
    });

    let total: i64 = accounts.iter().map(|a| a.load_direct()).sum();
    assert_eq!(total, expect, "sum conserved after the storm");
    assert!(
        storms.load(Ordering::Relaxed) > 0,
        "the storm must have completed at least one split/migrate/merge cycle"
    );
    for a in &accounts {
        assert_eq!(a.partition_id(), home.id(), "all accounts merged home");
    }
}

/// Orec-table resizes racing splits/migrates/merges on the *same*
/// partitions, under live transfer traffic: the switching-flag CAS
/// serializes the structural actions (losers observe `Contended` and roll
/// back cleanly), and no interleaving may lose money or strand a stale
/// table. The structural analogue of the resize-storm proptest, with real
/// concurrency between the control-plane actors themselves.
#[test]
fn resize_racing_split_and_migrate_conserves_total() {
    const N: usize = 48;
    let stm = Stm::new();
    let home = stm.new_partition(PartitionConfig::named("home").orecs(64));
    let accounts: Vec<Arc<PVar<i64>>> = (0..N).map(|_| Arc::new(home.tvar(1_000))).collect();
    let expect = N as i64 * 1_000;
    let stop = Arc::new(AtomicBool::new(false));
    let resizes_done = Arc::new(AtomicUsize::new(0));
    let storms_done = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        // Transfer traffic on the bound API.
        for t in 0..2usize {
            let ctx = stm.register_thread();
            let (accounts, stop) = (&accounts, Arc::clone(&stop));
            s.spawn(move || {
                let mut r = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                while !stop.load(Ordering::Relaxed) {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    let from = (r % N as u64) as usize;
                    let to = ((r >> 8) % N as u64) as usize;
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
        // Split/migrate/merge storm on `home` (as in the storm test).
        {
            let stm2 = stm.clone();
            let home = Arc::clone(&home);
            let (accounts, stop, storms_done) =
                (&accounts, Arc::clone(&stop), Arc::clone(&storms_done));
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let evens: Vec<&dyn Migratable> = accounts
                        .iter()
                        .step_by(2)
                        .map(|a| &**a as &dyn Migratable)
                        .collect();
                    let all: Vec<&dyn Migratable> =
                        accounts.iter().map(|a| &**a as &dyn Migratable).collect();
                    let side = stm2.new_partition(PartitionConfig::named("side"));
                    let o1 = stm2.migrate(&evens[..], &side, &[&home]);
                    let o2 = stm2.migrate(&all[..], &home, &[&side]);
                    if o1 == SwitchOutcome::Switched && o2 == SwitchOutcome::Switched {
                        storms_done.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::yield_now();
                }
            });
        }
        // Resize storm on the same `home` partition: many attempts lose
        // the flag race against the splitter (`Contended`) — they must
        // roll back without a trace; winners swap the table live.
        {
            let stm3 = stm.clone();
            let home = Arc::clone(&home);
            let (stop, resizes_done) = (Arc::clone(&stop), Arc::clone(&resizes_done));
            s.spawn(move || {
                let ladder = [32usize, 256, 1024];
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    if stm3.resize_orecs(&home, ladder[i % ladder.len()]) == SwitchOutcome::Switched
                    {
                        resizes_done.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::yield_now();
                }
            });
        }
        // Let the three actors collide for a while, then wind down.
        let deadline = Instant::now() + Duration::from_secs(8);
        while Instant::now() < deadline
            && (resizes_done.load(Ordering::Relaxed) < 6 || storms_done.load(Ordering::Relaxed) < 3)
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
    });

    let total: i64 = accounts.iter().map(|a| a.load_direct()).sum();
    assert_eq!(total, expect, "sum conserved under resize/split races");
    assert!(
        resizes_done.load(Ordering::Relaxed) > 0,
        "at least one resize must have won its race"
    );
    assert!(
        storms_done.load(Ordering::Relaxed) > 0,
        "at least one split+merge cycle must have completed"
    );
    assert_eq!(
        home.stats().orec_resizes,
        resizes_done.load(Ordering::Relaxed) as u64
    );
}

/// Migration mid-traffic moves variables without losing updates even when
/// the destination keeps absorbing writes immediately after the switch.
#[test]
fn migration_during_writes_keeps_counter_exact() {
    let stm = Stm::new();
    let a = stm.new_partition(PartitionConfig::named("a"));
    let b = stm.new_partition(PartitionConfig::named("b"));
    let x = Arc::new(a.tvar(0u64));
    let iters = 4_000u64;
    let threads = 3u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let ctx = stm.register_thread();
            let x = Arc::clone(&x);
            s.spawn(move || {
                for i in 0..iters {
                    ctx.run(|tx| tx.modify(&x, |v| v + 1).map(|_| ()));
                    if t == 0 && i % 512 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        }
        // Bounce the variable between partitions while counters run.
        let stm2 = stm.clone();
        let (a2, b2, x2) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&x));
        s.spawn(move || {
            for i in 0..40 {
                let dst = if i % 2 == 0 { &b2 } else { &a2 };
                let _ = stm2.migrate_pvars(&[&*x2 as &dyn Migratable], dst);
                std::thread::yield_now();
            }
        });
    });
    assert_eq!(x.load_direct(), threads * iters, "no update lost");
}

/// The sampled profiler reports real partition/bucket touches for real
/// transactions, and uninstalling stops the flow.
#[test]
fn profiler_reports_touches_of_real_transactions() {
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("p"));
    let q = stm.new_partition(PartitionConfig::named("q"));
    let x = p.tvar(0u64);
    let y = q.tvar(0u64);
    let prof = Arc::new(AccessProfiler::new(1, 1024)); // sample everything
    stm.set_profiler(Arc::clone(&prof));
    let ctx = stm.register_thread();
    for _ in 0..10 {
        ctx.run(|tx| {
            tx.modify(&x, |v| v + 1)?;
            let _ = tx.read(&y)?;
            Ok(())
        });
    }
    let samples = prof.drain();
    assert_eq!(samples.len(), 10, "period 1 samples every commit");
    let s = &samples[0];
    assert!(s.spans_partitions(), "both partitions touched");
    let tp = s
        .touched
        .iter()
        .find(|t| t.partition == p.id())
        .expect("partition p recorded");
    assert!(tp.writes >= 1 && tp.reads >= 1, "modify = read + write");
    assert_eq!(
        tp.buckets[0].bucket,
        bucket_of(Migratable::var_addr(&x)),
        "bucket matches the directory-side hash"
    );
    let tq = s
        .touched
        .iter()
        .find(|t| t.partition == q.id())
        .expect("partition q recorded");
    assert_eq!(tq.writes, 0, "y only read");

    stm.clear_profiler();
    ctx.run(|tx| tx.modify(&x, |v| v + 1).map(|_| ()));
    assert!(
        prof.drain().is_empty(),
        "uninstalled profiler receives nothing"
    );
}
