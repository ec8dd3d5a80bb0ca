//! Exactness of the per-slot statistics shards (see `partstm_core::stats`).
//!
//! A shard has a single writer — the thread that owns the slot — and bumps
//! it with a plain load + store, so nothing here may lose a count: not
//! more registered threads than the old eight shared shards, not a slot
//! handed from one OS thread to the next, not the control plane counting
//! its own events while slot 0's owner is committing.
//!
//! Every expected total is counted by the test's own closures (one local
//! counter per thread, summed after the join), so the assertions hold
//! under any interleaving and any number of real conflict aborts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use partstm_core::privatize::{check_hold_alarm, set_hold_alarm_threshold};
use partstm_core::{Abort, PartitionConfig, Stm};

/// What one worker's closures did, counted where it happened.
#[derive(Default, Clone, Copy)]
struct Oracle {
    attempts: u64,
    commits: u64,
    reads: u64,
    writes: u64,
    user_aborts: u64,
    snapshot_commits: u64,
    snapshot_reads: u64,
}

/// Raises a stop flag when dropped, so a failed assertion on the
/// coordinating thread ends the helper loops instead of hanging the scope
/// join on them.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[test]
fn twelve_slots_of_mixed_commits_and_forced_aborts_total_exactly() {
    const THREADS: usize = 12;
    const OPS: u64 = 20_000;
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("counted"));
    // Two hot words every worker transfers between (real conflicts), plus
    // four private words per worker.
    let hot = [p.tvar(1_000_000u64), p.tvar(1_000_000u64)];
    let private: Vec<_> = (0..THREADS * 4).map(|_| p.tvar(0u64)).collect();
    let start = Barrier::new(THREADS);

    let oracles: Vec<Oracle> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ctx = stm.register_thread();
                let (hot, start) = (&hot, &start);
                let mine = &private[t * 4..t * 4 + 4];
                s.spawn(move || {
                    let mut o = Oracle::default();
                    start.wait();
                    for k in 0..OPS {
                        match k % 4 {
                            0 => ctx.run(|tx| {
                                o.attempts += 1;
                                o.reads += 1;
                                let a = tx.read(&hot[0])?;
                                o.reads += 1;
                                let b = tx.read(&hot[1])?;
                                o.writes += 1;
                                tx.write(&hot[0], a - 1)?;
                                o.writes += 1;
                                tx.write(&hot[1], b + 1)
                            }),
                            1 => ctx.run(|tx| {
                                o.attempts += 1;
                                for v in &mine[..3] {
                                    o.reads += 1;
                                    tx.read(v)?;
                                }
                                Ok(())
                            }),
                            2 => {
                                let mut first = true;
                                ctx.run(|tx| {
                                    o.attempts += 1;
                                    o.reads += 1;
                                    let v = tx.read(&mine[3])?;
                                    o.writes += 1;
                                    tx.write(&mine[3], v + 1)?;
                                    if first {
                                        first = false;
                                        o.user_aborts += 1;
                                        return Err(Abort::retry());
                                    }
                                    Ok(())
                                })
                            }
                            _ => {
                                ctx.snapshot_read(|tx| {
                                    o.attempts += 1;
                                    let sum = tx.read(&hot[0])? + tx.read(&hot[1])?;
                                    assert_eq!(sum, 2_000_000, "snapshot saw a torn transfer");
                                    Ok(())
                                });
                                o.snapshot_commits += 1;
                                o.snapshot_reads += 2;
                                o.reads += 2;
                            }
                        }
                        o.commits += 1;
                    }
                    o
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let sum = |f: fn(&Oracle) -> u64| oracles.iter().map(f).sum::<u64>();
    let st = p.stats();
    assert_eq!(st.commits, THREADS as u64 * OPS);
    assert_eq!(st.commits, sum(|o| o.commits));
    assert_eq!(st.starts, sum(|o| o.attempts));
    assert_eq!(st.reads, sum(|o| o.reads));
    assert_eq!(st.writes, sum(|o| o.writes));
    assert_eq!(st.aborts(), st.starts - st.commits);
    assert_eq!(st.aborts_user, sum(|o| o.user_aborts));
    assert_eq!(st.snapshot_commits, sum(|o| o.snapshot_commits));
    assert_eq!(st.snapshot_reads, sum(|o| o.snapshot_reads));
    assert_eq!(st.update_commits + st.ro_commits, st.commits);
    assert_eq!(st.update_commits, THREADS as u64 * OPS / 2);
    assert_eq!(hot[0].load_direct() + hot[1].load_direct(), 2_000_000);
}

#[test]
fn a_slot_handed_between_os_threads_keeps_totals_exact_and_monotone() {
    const ROUNDS: u64 = 16;
    const OPS: u64 = 500;
    let stm = Stm::builder().max_threads(2).build();
    let p = stm.new_partition(PartitionConfig::named("handed-over"));
    let x = p.tvar(0u64);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // A snapshotting observer: the summed counter never goes backwards
        // while the slot changes hands underneath it.
        let observer = s.spawn(|| {
            let mut last = 0;
            while !done.load(Ordering::Acquire) {
                let now = p.stats().commits;
                assert!(now >= last, "commits went backwards: {last} -> {now}");
                last = now;
            }
        });
        let finish = RaiseOnDrop(&done);
        let mut slot = None;
        for round in 0..ROUNDS {
            // A fresh OS thread per round; the free list is a stack, so
            // each one inherits the slot the previous one just dropped.
            let got = std::thread::scope(|inner| {
                inner
                    .spawn(|| {
                        let ctx = stm.register_thread();
                        for _ in 0..OPS {
                            ctx.run(|tx| tx.modify(&x, |v| v + 1).map(|_| ()));
                        }
                        ctx.slot()
                    })
                    .join()
                    .unwrap()
            });
            assert_eq!(*slot.get_or_insert(got), got, "slot was not recycled");
            let st = p.stats();
            assert_eq!(st.commits, (round + 1) * OPS);
            assert_eq!(st.starts, st.commits);
            assert_eq!(st.writes, st.commits);
        }
        drop(finish);
        observer.join().unwrap();
    });
    assert_eq!(x.load_direct(), ROUNDS * OPS);
}

#[test]
fn control_plane_counters_stay_exact_while_slot_zero_commits() {
    const CYCLES: u64 = 300;
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("held"));
    let x = p.tvar(0u64);
    let stop = AtomicBool::new(false);
    // Any live hold trips the alarm, so every check below counts.
    set_hold_alarm_threshold(Duration::from_micros(1));
    let commits = std::thread::scope(|s| {
        let ctx = stm.register_thread();
        assert_eq!(ctx.slot(), 0, "the first registration owns slot 0");
        let (x, stop) = (&x, &stop);
        let worker = s.spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Acquire) {
                ctx.run(|tx| tx.modify(x, |v| v + 1).map(|_| ()));
                n += 1;
            }
            n
        });
        // The control plane: this thread owns no slot.
        let finish = RaiseOnDrop(stop);
        for _ in 0..CYCLES {
            let guard = stm.privatize(&p).expect("nothing else owns the flag");
            std::thread::sleep(Duration::from_micros(20));
            assert!(check_hold_alarm(&p), "a 20 µs hold is past the 1 µs alarm");
            guard.republish();
        }
        drop(finish);
        worker.join().unwrap()
    });
    let st = p.stats();
    assert_eq!(st.privatizations, CYCLES);
    assert_eq!(st.republishes, CYCLES);
    assert_eq!(st.privatize_hold_alarms, CYCLES);
    assert_eq!(st.privatize_rollbacks, 0);
    assert_eq!(st.quiesce_windows, CYCLES, "one drain per privatize");
    assert_eq!(st.quiesce_timeouts, 0);
    assert_eq!(
        st.commits, commits,
        "slot 0 lost commits to the control plane"
    );
    assert_eq!(st.writes, commits);
    assert_eq!(st.starts - st.commits, st.aborts());
    assert_eq!(st.aborts(), st.aborts_switching, "only holds abort it");
    assert_eq!(x.load_direct(), commits);
}
