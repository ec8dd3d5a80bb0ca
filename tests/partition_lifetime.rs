//! Partition lifetime storm: a partition is merged away and its variables
//! split back into a fresh one, 500 times, every handle dropped each
//! cycle, while two workers keep committing, aborting and snapshot-reading
//! through the bindings. Each dissolved partition is freed as soon as the
//! repartition that unbound it returns, so any engine access that outlives
//! the attempt covering it, or any binding read outside one that skips the
//! pin, is a use-after-free — which the address-sanitizer build reports.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use partstm::core::{Abort, Migratable, PVar, PartitionConfig, Stm, SwitchOutcome};

const ACCOUNTS: usize = 16;
const INITIAL: i64 = 100;
const CYCLES: usize = 500;

#[test]
fn merge_and_resplit_storm_frees_partitions_under_load() {
    let stm = Stm::new();
    let home = stm.new_partition(PartitionConfig::named("home"));
    let first = stm.new_partition(PartitionConfig::named("cycle"));
    let accounts: Vec<PVar<i64>> = (0..ACCOUNTS).map(|_| first.tvar(INITIAL)).collect();
    drop(first);
    let expect = ACCOUNTS as i64 * INITIAL;
    let stop = AtomicBool::new(false);
    let work = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..2u64 {
            let ctx = stm.register_thread();
            let (accounts, stop, work) = (&accounts, &stop, &work);
            s.spawn(move || {
                let mut r = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                while !stop.load(Ordering::Relaxed) {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    let (from, to) = ((r % 16) as usize, ((r >> 8) % 16) as usize);
                    ctx.run(|tx| {
                        let f = tx.read(&accounts[from])?;
                        tx.write(&accounts[from], f - 1)?;
                        tx.modify(&accounts[to], |v| v + 1).map(|_| ())
                    });
                    // An attempt that aborts after touching a partition,
                    // then commits read-only.
                    let mut aborted = false;
                    ctx.run(|tx| {
                        let v = tx.read(&accounts[to])?;
                        if !std::mem::replace(&mut aborted, true) {
                            return Err(Abort::retry());
                        }
                        Ok(v)
                    });
                    let sum = ctx.snapshot_read(|rtx| {
                        accounts
                            .iter()
                            .try_fold(0i64, |acc, a| Ok(acc + rtx.read(a)?))
                    });
                    assert_eq!(sum, expect, "snapshot saw a torn transfer");
                    work.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        let dyn_accounts: Vec<&dyn Migratable> =
            accounts.iter().map(|a| a as &dyn Migratable).collect();
        let src = &dyn_accounts[..];
        let deadline = Instant::now() + Duration::from_secs(120);
        let retry = |call: &dyn Fn() -> SwitchOutcome| {
            while call() != SwitchOutcome::Switched {
                assert!(Instant::now() < deadline, "repartition never succeeded");
                std::thread::yield_now();
            }
        };
        for cycle in 0..CYCLES {
            // Merge the cycle partition away (only the bindings own it)…
            let cycling = accounts[0].partition();
            retry(&|| stm.migrate(src, &home, &[&cycling]));
            drop(cycling);
            // …and split the variables back out into a fresh one.
            let fresh = stm.new_partition(PartitionConfig::named("cycle"));
            retry(&|| stm.migrate(src, &fresh, &[&home]));
            drop(fresh);
            // Let the workers touch the new partition before it dies.
            let seen = work.load(Ordering::Relaxed);
            while work.load(Ordering::Relaxed) == seen && cycle % 16 == 0 {
                assert!(Instant::now() < deadline, "workers stalled");
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    let total: i64 = accounts.iter().map(|a| a.load_direct()).sum();
    assert_eq!(total, expect, "sum not conserved");
    assert_eq!(
        stm.partitions().len(),
        2,
        "home plus the last cycle partition"
    );
    assert!(work.load(Ordering::Relaxed) > 0);
}
