//! Cross-crate atomicity and opacity tests: the invariants that make an
//! STM an STM, exercised across partitions and configurations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use partstm::core::{
    AcquireMode, CmPolicy, Granularity, PartitionConfig, ReadMode, ReaderArb, Stm,
};
use partstm::structures::Bank;

/// Bank conservation under every combination of read mode, acquire mode,
/// granularity and CM policy.
#[test]
fn bank_conservation_under_all_configurations() {
    for read_mode in [ReadMode::Invisible, ReadMode::Visible] {
        for acquire in [AcquireMode::Encounter, AcquireMode::Commit] {
            for granularity in [
                Granularity::Word,
                Granularity::Stripe { shift: 6 },
                Granularity::PartitionLock,
            ] {
                for cm in [CmPolicy::SuicideBackoff, CmPolicy::DelayThenAbort] {
                    let stm = Stm::new();
                    let cfg = PartitionConfig::named("bank")
                        .read_mode(read_mode)
                        .acquire(acquire)
                        .granularity(granularity)
                        .cm(cm);
                    let bank = Bank::new(stm.new_partition(cfg), 8, 500);
                    std::thread::scope(|s| {
                        for t in 0..4usize {
                            let ctx = stm.register_thread();
                            let bank = &bank;
                            s.spawn(move || {
                                let mut r = (t as u64 + 1).wrapping_mul(0x9E37_79B9);
                                for _ in 0..500 {
                                    r ^= r << 13;
                                    r ^= r >> 7;
                                    r ^= r << 17;
                                    ctx.run(|tx| {
                                        bank.transfer(
                                            tx,
                                            (r % 8) as usize,
                                            ((r >> 8) % 8) as usize,
                                            (r % 40) as i64,
                                        )
                                    });
                                }
                            });
                        }
                    });
                    assert_eq!(
                        bank.total_direct(),
                        4000,
                        "lost money under {read_mode:?}/{acquire:?}/{granularity:?}/{cm:?}"
                    );
                }
            }
        }
    }
}

/// Opacity of read-only audits under every granularity and read mode:
/// two transfer threads move money while an auditor sums the whole bank
/// in a read-only `run`. Every audit must see the conserved total, inside
/// every attempt that reaches the end of its sum and in the committed
/// result, not only once the transfers are over.
#[test]
fn read_only_audits_see_the_conserved_total_under_all_configurations() {
    const ACCOUNTS: usize = 16;
    const TOTAL: i64 = ACCOUNTS as i64 * 100;
    for read_mode in [ReadMode::Invisible, ReadMode::Visible] {
        for granularity in [
            Granularity::Word,
            Granularity::Stripe { shift: 6 },
            Granularity::PartitionLock,
        ] {
            let stm = Stm::new();
            let cfg = PartitionConfig::named("bank")
                .read_mode(read_mode)
                .granularity(granularity);
            let bank = Bank::new(stm.new_partition(cfg), ACCOUNTS, 100);
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                for t in 0..2u64 {
                    let ctx = stm.register_thread();
                    let (bank, stop) = (&bank, &stop);
                    s.spawn(move || {
                        let mut r = (t + 1).wrapping_mul(0x9E37_79B9);
                        while !stop.load(Ordering::Relaxed) {
                            r ^= r << 13;
                            r ^= r >> 7;
                            r ^= r << 17;
                            let (from, to) = (r as usize % ACCOUNTS, (r >> 8) as usize % ACCOUNTS);
                            ctx.run(|tx| bank.transfer(tx, from, to, (r % 40) as i64));
                        }
                    });
                }
                // Stops the transfers when the audits end, and also when an
                // audit panics, so a failure fails the test instead of
                // hanging it.
                struct StopOnDrop<'a>(&'a AtomicBool);
                impl Drop for StopOnDrop<'_> {
                    fn drop(&mut self) {
                        self.0.store(true, Ordering::Relaxed);
                    }
                }
                let _stop = StopOnDrop(&stop);
                let ctx = stm.register_thread();
                for audit in 0..400 {
                    let seen = ctx.run(|tx| {
                        let total = bank.total(tx)?;
                        assert_eq!(
                            total,
                            TOTAL,
                            "audit {audit} attempt {} saw a torn bank under \
                             {read_mode:?}/{granularity:?}",
                            tx.attempts()
                        );
                        Ok(total)
                    });
                    assert_eq!(
                        seen, TOTAL,
                        "audit {audit} under {read_mode:?}/{granularity:?}"
                    );
                }
            });
            assert_eq!(bank.total_direct(), TOTAL);
        }
    }
}

/// Reader-wins arbitration also preserves atomicity.
#[test]
fn bank_conservation_reader_wins() {
    let stm = Stm::new();
    let cfg = PartitionConfig::named("bank")
        .read_mode(ReadMode::Visible)
        .reader_arb(ReaderArb::ReaderWins);
    let bank = Bank::new(stm.new_partition(cfg), 4, 100);
    std::thread::scope(|s| {
        for t in 0..4usize {
            let ctx = stm.register_thread();
            let bank = &bank;
            s.spawn(move || {
                for i in 0..800u64 {
                    let from = ((i + t as u64) % 4) as usize;
                    ctx.run(|tx| bank.transfer(tx, from, (from + 1) % 4, 3));
                }
            });
        }
    });
    assert_eq!(bank.total_direct(), 400);
}

/// Opacity probe: maintain `y == 2 * x` under writers; concurrent readers
/// must never observe anything else — even transiently inside a
/// transaction attempt (zombie reads would break the arithmetic here).
#[test]
fn opacity_linked_invariant() {
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("pair"));
    let x = Arc::new(p.tvar(1u64));
    let y = Arc::new(p.tvar(2u64));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for _ in 0..2 {
            let ctx = stm.register_thread();
            let (x, y, stop) = (x.clone(), y.clone(), stop.clone());
            s.spawn(move || {
                let mut v = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    v = v.wrapping_mul(31).wrapping_add(7) % 100_000;
                    ctx.run(|tx| {
                        tx.write(&x, v)?;
                        tx.write(&y, v * 2)?;
                        Ok(())
                    });
                }
            });
        }
        for _ in 0..2 {
            let ctx = stm.register_thread();
            let (x, y) = (x.clone(), y.clone());
            let stop = stop.clone();
            s.spawn(move || {
                for _ in 0..20_000 {
                    let (vx, vy) = ctx.run(|tx| {
                        let vx = tx.read(&x)?;
                        let vy = tx.read(&y)?;
                        // The invariant must hold *inside* the transaction
                        // too: with opacity no attempt ever sees a mixed
                        // snapshot that survives to this point.
                        assert_eq!(vy, vx * 2, "zombie snapshot observed");
                        Ok((vx, vy))
                    });
                    assert_eq!(vy, vx * 2);
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });
}

/// Cross-partition atomicity: invariant spans two partitions with
/// different configurations.
#[test]
fn cross_partition_invariant_mixed_configs() {
    let stm = Stm::new();
    let pa = stm.new_partition(PartitionConfig::named("a").read_mode(ReadMode::Visible));
    let pb = stm.new_partition(PartitionConfig::named("b").granularity(Granularity::PartitionLock));
    let x = Arc::new(pa.tvar(500i64));
    let y = Arc::new(pb.tvar(500i64));
    std::thread::scope(|s| {
        for t in 0..4usize {
            let ctx = stm.register_thread();
            let (x, y) = (x.clone(), y.clone());
            s.spawn(move || {
                let mut r = (t as u64 + 1).wrapping_mul(0x51_7C_C1);
                for _ in 0..1000 {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    let amt = (r % 20) as i64;
                    ctx.run(|tx| {
                        let vx = tx.read(&x)?;
                        let vy = tx.read(&y)?;
                        tx.write(&x, vx - amt)?;
                        tx.write(&y, vy + amt)?;
                        Ok(())
                    });
                }
            });
        }
        let ctx = stm.register_thread();
        let (x, y) = (x.clone(), y.clone());
        s.spawn(move || {
            for _ in 0..2000 {
                let sum = ctx.run(|tx| Ok(tx.read(&x)? + tx.read(&y)?));
                assert_eq!(sum, 1000);
            }
        });
    });
    assert_eq!(x.load_direct() + y.load_direct(), 1000);
}

/// Reconfiguration under fire: switching a partition's configuration while
/// writers hammer it must not lose a single update.
#[test]
fn config_switches_during_load_lose_nothing() {
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("hot"));
    let counter = Arc::new(p.tvar(0u64));
    let iters = 3000u64;
    std::thread::scope(|s| {
        for _ in 0..4 {
            let ctx = stm.register_thread();
            let counter = counter.clone();
            s.spawn(move || {
                for _ in 0..iters {
                    ctx.run(|tx| tx.modify(&counter, |v| v + 1).map(|_| ()));
                }
            });
        }
        let stm2 = stm.clone();
        let p2 = p.clone();
        s.spawn(move || {
            let configs = [
                (ReadMode::Visible, Granularity::Word),
                (ReadMode::Invisible, Granularity::PartitionLock),
                (ReadMode::Visible, Granularity::PartitionLock),
                (ReadMode::Invisible, Granularity::Word),
            ];
            for i in 0..40 {
                let mut cfg = p2.current_config();
                let (rm, g) = configs[i % 4];
                cfg.read_mode = rm;
                cfg.granularity = g;
                let _ = stm2.switch_partition(&p2, cfg);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
    });
    assert_eq!(counter.load_direct(), 4 * iters);
    assert!(p.generation() >= 4, "switches happened");
}
