//! Hot-key tear/heal idempotence: a storm of repeated skew phase flips
//! tears the *same* celebrity keys out of a hash map and heals them back,
//! over and over, under concurrent mutation. Exercises the full slot-subset
//! repartition lifecycle (`Proposal::Tear` → torn partition →
//! `Proposal::Heal` → re-merge home) rather than the single round the
//! crate-level e2e test covers, and checks the three leak-shaped
//! invariants: conserved sums, a live partition registry bounded by the
//! origin plus one torn partition (healed ones die), and every heal
//! returning the torn slots to the map's home partition.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use partstm::core::{MigratableCollection, PartitionConfig, Stm};
use partstm::repart::{ControllerConfig, RepartEvent, RepartitionController, StaticDirectory};
use partstm::structures::THashMap;

const KEYS: u64 = 4096;
const CELEBS: u64 = 3;
const INITIAL: u64 = 100;
/// Full tear→heal rounds the storm must complete.
const CYCLES: usize = 2;

#[test]
fn repeated_zipf_flips_tear_and_heal_idempotently() {
    let stm = Stm::new();
    let part = stm.new_partition(PartitionConfig::named("table").orecs(256));
    let map = Arc::new(THashMap::new(Arc::clone(&part), KEYS as usize));
    {
        let ctx = stm.register_thread();
        for k in 0..KEYS {
            ctx.run(|tx| map.put(tx, k, INITIAL).map(|_| ()));
        }
    }
    let dir = Arc::new(StaticDirectory::new());
    dir.register_collection(Arc::clone(&map) as Arc<dyn MigratableCollection>);
    let mut cfg = ControllerConfig::responsive();
    cfg.online.split_abort_rate = 0.02;
    cfg.online.split_hot_share = 0.30;
    let controller = RepartitionController::new(&stm, dir, cfg);

    let stop = Arc::new(AtomicBool::new(false));
    let skew = Arc::new(AtomicBool::new(true));
    let mut tears = 0usize;
    let mut heals = 0usize;
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let ctx = stm.register_thread();
            let (map, stop, skew) = (Arc::clone(&map), Arc::clone(&stop), Arc::clone(&skew));
            s.spawn(move || {
                let mut r = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                while !stop.load(Ordering::Relaxed) {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    if skew.load(Ordering::Relaxed) {
                        // Zipf-head phase: transfers among the same three
                        // celebrity keys every cycle, holding the
                        // encounter lock across a reschedule so the skew
                        // is visible as contention on a one-core box.
                        let (from, to) = (r % CELEBS, (r >> 8) % CELEBS);
                        let amt = r % 50;
                        ctx.run(|tx| {
                            let f = map.get(tx, from)?.unwrap_or(0);
                            map.put(tx, from, f.wrapping_sub(amt))?;
                            std::thread::sleep(Duration::from_micros(50));
                            let v = map.get(tx, to)?.unwrap_or(0);
                            map.put(tx, to, v.wrapping_add(amt))?;
                            Ok(())
                        });
                    } else {
                        // Calm phase: uniform transfers — the mutation
                        // keeps running while the heal happens, and its
                        // write load lands almost entirely on the
                        // origin's slots so the torn subset's write share
                        // decays below the heal gate.
                        let (from, to) = (r % KEYS, (r >> 8) % KEYS);
                        let amt = r % 50;
                        ctx.run(|tx| {
                            let f = map.get(tx, from)?.unwrap_or(0);
                            map.put(tx, from, f.wrapping_sub(amt))?;
                            let v = map.get(tx, to)?.unwrap_or(0);
                            map.put(tx, to, v.wrapping_add(amt))?;
                            Ok(())
                        });
                    }
                }
            });
        }
        // Drive the controller from here and flip the phase on each
        // tear/heal edge: skew until it tears, calm until it heals, repeat.
        let checker = stm.register_thread();
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
            controller.step();
            let events = controller.events();
            let t = events
                .iter()
                .filter(|e| matches!(e, RepartEvent::Tear { .. }))
                .count();
            let h = events
                .iter()
                .filter(|e| matches!(e, RepartEvent::Heal { .. }))
                .count();
            if t > tears {
                tears = t;
                skew.store(false, Ordering::Relaxed);
            }
            if h > heals {
                heals = h;
                // Mid-storm conservation check after every heal, while
                // the workers keep mutating.
                let total = checker.run(|tx| {
                    let mut sum = 0u64;
                    for k in 0..KEYS {
                        sum = sum.wrapping_add(map.get(tx, k)?.unwrap_or(0));
                    }
                    Ok(sum)
                });
                assert_eq!(total, KEYS * INITIAL, "sum not conserved after heal #{h}");
                if heals >= CYCLES {
                    break;
                }
                skew.store(true, Ordering::Relaxed);
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    let events = controller.events();
    assert!(
        tears >= CYCLES && heals >= CYCLES,
        "storm finished only {tears} tears / {heals} heals: {events:?}"
    );
    // Every tear moved a slot subset, never the whole structure; every heal
    // returned it to the map's home partition.
    for e in &events {
        match e {
            RepartEvent::Tear {
                moved, total_live, ..
            } => {
                assert!(*moved > 0 && *moved < *total_live / 2, "{e:?}");
            }
            RepartEvent::Heal { dst, moved, .. } => {
                assert_eq!(*dst, part.id(), "heal must re-merge home: {e:?}");
                assert!(*moved > 0, "{e:?}");
            }
            _ => {}
        }
    }
    assert_eq!(map.partition_of(), part.id(), "map home never moves");
    // Partition accounting: repeated tears of one origin accrete into one
    // torn partition, a healed one dies with its last binding, and so does
    // a fresh destination a failed attempt left empty — so however many
    // tear/heal rounds ran, the live registry is the origin plus at most
    // one torn partition.
    let names: Vec<String> = stm
        .partitions()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    assert!(
        names.len() <= 2 && names[0] == "table",
        "registry grew past the origin plus one torn partition: {names:?} after {tears} tears"
    );

    let ctx = stm.register_thread();
    let total = ctx.run(|tx| {
        let mut sum = 0u64;
        for k in 0..KEYS {
            sum = sum.wrapping_add(map.get(tx, k)?.unwrap_or(0));
        }
        Ok(sum)
    });
    assert_eq!(total, KEYS * INITIAL, "sum not conserved after the storm");
}
