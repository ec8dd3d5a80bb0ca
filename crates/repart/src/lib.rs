//! # partstm-repart — online repartitioning
//!
//! The dynamic half of the paper's loop: static analysis seeds the
//! partitioning (`partstm-analysis`), the runtime observes real access
//! behaviour (`partstm_core::profiler`), and *this crate* re-partitions
//! while the program runs — splitting conflict hot spots out of
//! overloaded partitions, merging cold co-accessed partitions back, and
//! migrating the affected [`PVar`](partstm_core::PVar)s and structures
//! live over the quiesce-based repartition protocol
//! ([`Stm::migrate`](partstm_core::Stm::migrate)).
//!
//! ## The loop
//!
//! ```text
//!  transactions ──▶ sampled AccessProfiler (partstm-core)
//!                      │ TxSamples: (partition, bucket) touches
//!                      ▼
//!                 OnlineAnalyzer (partstm-analysis::online)
//!                      │ affinity/conflict graph → Split/Merge proposals
//!                      ▼
//!                 RepartitionController::step (this crate)
//!                      │ windows, scores vs abort/commit stats,
//!                      │ hysteresis + cooldown
//!                      ▼
//!                 StaticDirectory maps hot buckets back to
//!                      │ variables, collections and slot subsets
//!                      ▼
//!                 Stm::migrate(source, dst, from)
//!                        flag → quiesce → rebind PVars → gen+1
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use partstm_core::{Migratable, PartitionConfig, Stm};
//! use partstm_repart::{ControllerConfig, RepartitionController, StaticDirectory};
//!
//! let stm = Stm::new();
//! let accounts = stm.new_partition(PartitionConfig::named("accounts"));
//! let dir = Arc::new(StaticDirectory::new());
//! let vars: Vec<Arc<partstm_core::PVar<i64>>> =
//!     (0..64).map(|_| Arc::new(accounts.tvar(0i64))).collect();
//! for v in &vars {
//!     dir.register(Arc::clone(v) as Arc<dyn Migratable>);
//! }
//! // The caller drives the loop: one evaluation window per `step`.
//! let controller = RepartitionController::new(&stm, dir, ControllerConfig::responsive());
//! controller.step();
//! assert_eq!(controller.windows(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod controller;
mod directory;

pub use controller::{ControllerConfig, RepartEvent, RepartitionController};
pub use directory::{MoverSet, StaticDirectory, TearMovers, TearSet};
pub use partstm_analysis::online::ActionKind;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread::Scope;
    use std::time::{Duration, Instant};

    use partstm_core::fault::{self, FaultPlan, FaultSite};
    use partstm_core::{Migratable, PVar, PartitionConfig, Stm, SwitchOutcome};

    /// A registry-backed bank whose accounts the controller may migrate.
    struct MovableBank {
        accounts: Vec<Arc<PVar<i64>>>,
    }

    impl MovableBank {
        fn new(stm: &Stm, n: usize, initial: i64) -> (Self, Arc<StaticDirectory>) {
            let part = stm.new_partition(PartitionConfig::named("accounts"));
            let dir = Arc::new(StaticDirectory::new());
            let accounts: Vec<Arc<PVar<i64>>> =
                (0..n).map(|_| Arc::new(part.tvar(initial))).collect();
            for a in &accounts {
                dir.register(Arc::clone(a) as Arc<dyn Migratable>);
            }
            (MovableBank { accounts }, dir)
        }

        fn total_direct(&self) -> i64 {
            self.accounts.iter().map(|a| a.load_direct()).sum()
        }
    }

    /// Stops the traffic when dropped, so an assertion failing while the
    /// workers run fails the test instead of hanging the scope's join.
    struct StopOnDrop<'a>(&'a AtomicBool);

    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    /// One synchronous controller window: 50 ms, stretched (up to 2 s)
    /// until the traffic has committed another 512 transactions. The
    /// fixtures below yield inside transactions, so when the rest of the
    /// suite saturates the cores a 50 ms window can shrink to a few dozen
    /// commits — too few samples to re-propose, which resets the
    /// hysteresis streak.
    fn step_window(stm: &Stm, controller: &RepartitionController) {
        let commits = || -> u64 { stm.partitions().iter().map(|p| p.stats().commits).sum() };
        let floor = commits() + 512;
        std::thread::sleep(Duration::from_millis(50));
        let stretch = Instant::now() + Duration::from_secs(2);
        while commits() < floor && Instant::now() < stretch {
            std::thread::sleep(Duration::from_millis(5));
        }
        controller.step();
    }

    /// Drives windows until `done` holds (true) or 20 s pass (false).
    fn step_until(
        stm: &Stm,
        controller: &RepartitionController,
        mut done: impl FnMut(&RepartitionController) -> bool,
    ) -> bool {
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            step_window(stm, controller);
            if done(controller) {
                return true;
            }
        }
        false
    }

    /// Aliasing-bound traffic: two threads of uniform transfers holding
    /// their encounter locks across a reschedule (on a 64-orec table the
    /// stranded lock aliases with ~everything), plus one thread of uniform
    /// read-only scans aborting on those locks — pure aliasing pressure.
    fn spawn_aliasing_traffic<'scope, 'env>(
        s: &'scope Scope<'scope, 'env>,
        stm: &Stm,
        accounts: &'env [Arc<PVar<i64>>],
        stop: &'env AtomicBool,
    ) {
        let n = accounts.len() as u64;
        for t in 0..2u64 {
            let ctx = stm.register_thread();
            s.spawn(move || {
                let mut r = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                while !stop.load(Ordering::Relaxed) {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    let from = (r % n) as usize;
                    let to = ((r >> 8) % n) as usize;
                    let amt = (r % 90) as i64;
                    ctx.run(|tx| {
                        let f = tx.read(&accounts[from])?;
                        tx.write(&accounts[from], f - amt)?;
                        std::thread::yield_now();
                        let v = tx.read(&accounts[to])?;
                        tx.write(&accounts[to], v + amt)?;
                        Ok(())
                    });
                }
            });
        }
        let ctx = stm.register_thread();
        s.spawn(move || {
            let mut x = 7u64;
            while !stop.load(Ordering::Relaxed) {
                ctx.run(|tx| {
                    let mut sum = 0i64;
                    for _ in 0..32 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        sum += tx.read(&accounts[((x >> 16) % n) as usize])?;
                    }
                    Ok(sum)
                });
            }
        });
    }

    /// Hot-cluster traffic: three threads of transfers, 85% of them inside
    /// the first `HOT` accounts; a yield inside the hot transactions
    /// stretches the conflict window across a reschedule so contention
    /// shows even on one core.
    fn spawn_hot_cluster_traffic<'scope, 'env>(
        s: &'scope Scope<'scope, 'env>,
        stm: &Stm,
        accounts: &'env [Arc<PVar<i64>>],
        stop: &'env AtomicBool,
    ) {
        const HOT: u64 = 4;
        let n = accounts.len() as u64;
        for t in 0..3u64 {
            let ctx = stm.register_thread();
            s.spawn(move || {
                let mut r = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                while !stop.load(Ordering::Relaxed) {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    let hot = r % 100 < 85;
                    let span = if hot { HOT } else { n };
                    let (from, to) = ((r % span) as usize, ((r >> 8) % span) as usize);
                    let amt = (r % 90) as i64;
                    ctx.run(|tx| {
                        let f = tx.read(&accounts[from])?;
                        tx.write(&accounts[from], f - amt)?;
                        if hot {
                            std::thread::yield_now();
                        }
                        let t = tx.read(&accounts[to])?;
                        tx.write(&accounts[to], t + amt)?;
                        Ok(())
                    });
                }
            });
        }
    }

    /// End-to-end: uniform traffic over a big footprint guarded by a tiny
    /// orec table aborts mostly on *aliased* conflicts; the controller
    /// must execute a live orec-table resize (not a split — there is no
    /// hot set) and the bank's total must be conserved across it.
    #[test]
    fn controller_resizes_an_aliasing_bound_partition() {
        const ACCOUNTS: usize = 4096;
        let stm = Stm::new();
        let part = stm.new_partition(PartitionConfig::named("aliased").orecs(64));
        let accounts: Vec<Arc<PVar<i64>>> =
            (0..ACCOUNTS).map(|_| Arc::new(part.tvar(100))).collect();
        let expect = ACCOUNTS as i64 * 100;
        // Nothing registered: resizes act on the partition directly, no
        // directory movers needed (and no split could execute anyway).
        let dir = Arc::new(StaticDirectory::new());
        let controller = RepartitionController::new(&stm, dir, ControllerConfig::responsive());
        let from_orecs = part.orec_count();

        let stop = AtomicBool::new(false);
        let resized = std::thread::scope(|s| {
            let _stop = StopOnDrop(&stop);
            spawn_aliasing_traffic(s, &stm, &accounts, &stop);
            step_until(&stm, &controller, RepartitionController::has_resize)
        });

        assert!(
            resized,
            "controller never resized: {:?}",
            controller.events()
        );
        let events = controller.events();
        let (from, to, aliased_share) = events
            .iter()
            .find_map(|e| match e {
                RepartEvent::Resize {
                    from,
                    to,
                    aliased_share,
                    ..
                } => Some((*from, *to, *aliased_share)),
                _ => None,
            })
            .unwrap();
        assert_eq!(from, from_orecs, "resized from the initial table");
        assert!(
            to > from,
            "aliasing pressure grows the table: {from} -> {to}"
        );
        assert_eq!(part.orec_count(), to, "table size matches the event");
        assert!(part.stats().orec_resizes >= 1);
        assert!(
            aliased_share >= 0.5,
            "conflicts were dominated by aliasing ({aliased_share})"
        );
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, RepartEvent::Split { .. })),
            "diffuse workload must not split: {events:?}"
        );
        let total: i64 = accounts.iter().map(|a| a.load_direct()).sum();
        assert_eq!(total, expect, "conserved sum across the live resize");
    }

    /// End-to-end: a hot cluster hammered by writers makes the controller
    /// split the account partition, conserving the bank's total.
    #[test]
    fn controller_splits_a_hot_cluster() {
        const ACCOUNTS: usize = 512;
        let stm = Stm::new();
        let (bank, dir) = MovableBank::new(&stm, ACCOUNTS, 100);
        let expect = ACCOUNTS as i64 * 100;
        let controller = RepartitionController::new(&stm, dir, ControllerConfig::responsive());

        let stop = AtomicBool::new(false);
        let split = std::thread::scope(|s| {
            let _stop = StopOnDrop(&stop);
            spawn_hot_cluster_traffic(s, &stm, &bank.accounts, &stop);
            step_until(&stm, &controller, RepartitionController::has_split)
        });

        assert!(split, "controller never split: {:?}", controller.events());
        let events = controller.events();
        let (moved, dst) = events
            .iter()
            .find_map(|e| match e {
                RepartEvent::Split { moved, dst, .. } => Some((*moved, *dst)),
                _ => None,
            })
            .unwrap();
        assert!(moved > 0, "split must migrate variables");
        assert!(
            bank.accounts.iter().any(|a| a.partition_id() == dst),
            "some account must live in the new partition"
        );
        assert_eq!(bank.total_direct(), expect, "conserved sum");
        assert!(
            stm.partitions().len() > 1,
            "split created a partition: {:?}",
            stm.partitions().len()
        );
    }

    /// End-to-end merge, and the hysteresis rule it must respect: three
    /// cold partitions touched together by every transaction make the
    /// analyzer propose folding the least-committed one into *each* of the
    /// other two — two proposals sharing one streak key per window. The
    /// streak still advances once per window, so nothing happens in the
    /// first proposing window and exactly one merge lands in the second;
    /// the dissolved partition then stops counting against
    /// `max_partitions`. Single-threaded: every window is deterministic.
    #[test]
    fn controller_merges_cold_coaccessed_partitions() {
        use partstm_core::telemetry::{self, codes, EventKind};
        const COLD: usize = 8;
        const ACCOUNTS: usize = 512;
        let stm = Stm::new();
        let cold_a = stm.new_partition(PartitionConfig::named("cold-a"));
        let (bank, dir) = MovableBank::new(&stm, ACCOUNTS, 100);
        let cold_c = stm.new_partition(PartitionConfig::named("cold-c"));
        let cold_vars = |p: &Arc<partstm_core::Partition>| -> Vec<Arc<PVar<i64>>> {
            let vars: Vec<_> = (0..COLD).map(|_| Arc::new(p.tvar(100))).collect();
            dir.register_all(vars.iter().map(|v| Arc::clone(v) as Arc<dyn Migratable>));
            vars
        };
        let (a, c) = (cold_vars(&cold_a), cold_vars(&cold_c));
        let total = || -> i64 {
            let cold = a.iter().chain(&c).map(|v| v.load_direct()).sum::<i64>();
            bank.total_direct() + cold
        };
        let expect = total();
        let cfg = ControllerConfig {
            sample_period: 1,
            hysteresis: 2,
            max_partitions: 3, // all three in service: no room for a split
            ..ControllerConfig::responsive()
        };
        let controller = RepartitionController::new(&stm, Arc::clone(&dir), cfg);
        telemetry::set_enabled(true);
        telemetry::set_tx_sample_period(0); // control-plane events only
        let t0 = telemetry::now_micros();

        // One window of traffic: every transaction spans all three
        // partitions; the bank and `cold-c` see a little extra on their
        // own, so `cold-a` is the least-committed of every pair.
        let ctx = stm.register_thread();
        let window = || {
            for i in 0..64 {
                ctx.run(|tx| {
                    tx.modify(&a[i % COLD], |v| v - 2)?;
                    tx.modify(&bank.accounts[i % ACCOUNTS], |v| v + 1)?;
                    tx.modify(&c[i % COLD], |v| v + 1).map(|_| ())
                });
                if i % 4 == 0 {
                    ctx.run(|tx| tx.modify(&bank.accounts[i], |v| v).map(|_| ()));
                    ctx.run(|tx| tx.modify(&c[i % COLD], |v| v).map(|_| ()));
                }
            }
            controller.step();
        };
        // `(subject, streak or moved, outcome or score)` of every merge
        // event of `kind` recorded so far.
        let merge_events = |kind: EventKind| -> Vec<(u64, u64, u64)> {
            telemetry::global()
                .recorder
                .snapshot()
                .iter()
                .filter(|e| e.micros >= t0 && e.kind == kind)
                .filter(|e| e.b & 0xFF == codes::ACTION_MERGE)
                .map(|e| (e.a, e.b >> 8, e.c))
                .collect()
        };
        let merge_proposals = || merge_events(EventKind::CtrlProposal);

        window();
        let first = merge_proposals();
        let from_a =
            |ps: &[(u64, u64, u64)]| ps.iter().filter(|p| p.0 == cold_a.id().0 as u64).count();
        assert_eq!(from_a(&first), 2, "cold-a toward each neighbour: {first:?}");
        assert!(
            first.iter().all(|p| p.1 == 1),
            "one window, streak 1: {first:?}"
        );
        assert!(
            controller.events().is_empty(),
            "acted in the first proposing window: {:?}",
            controller.events()
        );

        window();
        let second = &merge_proposals()[first.len()..];
        assert!(second.iter().all(|p| p.1 == 2), "second window: {second:?}");
        let events = controller.events();
        let [RepartEvent::Merge {
            src, dst, moved, ..
        }] = events[..]
        else {
            panic!("exactly one merge in the second window: {events:?}");
        };
        assert_eq!(src, cold_a.id(), "the least-committed partition dissolves");
        assert_eq!(moved, COLD, "every registered variable of it moved");
        assert!(a.iter().all(|v| v.partition_id() == dst));
        let mirrored = merge_events(EventKind::CtrlAction);
        assert_eq!(
            mirrored,
            [(src.0 as u64, COLD as u64, codes::OUTCOME_SWITCHED)]
        );
        window();
        assert_eq!(total(), expect, "conserved sum across the merge");

        // Three partitions are registered and `max_partitions` is three,
        // but `cold-a` is dead: a hot cluster in the bank can still be
        // split out into a fourth.
        let stop = AtomicBool::new(false);
        let split = std::thread::scope(|s| {
            let _stop = StopOnDrop(&stop);
            spawn_hot_cluster_traffic(s, &stm, &bank.accounts, &stop);
            step_until(&stm, &controller, RepartitionController::has_split)
        });
        assert!(
            split,
            "dead partition still counted: {:?}",
            controller.events()
        );
        assert_eq!(stm.partitions().len(), 4);
        assert_eq!(total(), expect, "conserved sum across merge + split");
    }

    /// The circuit breaker through the real `step()` path, fed by the
    /// `CtrlActionFail` fault site, for an action that runs in an executor
    /// (the hot cluster's split) and one that runs in `step` itself (the
    /// aliasing-bound partition's resize): approved actions fail as
    /// quiesce timeouts until the breaker opens, nothing is attempted
    /// while it is open, and once the faults are cleared it closes and the
    /// action lands. (The hot cluster is proposed as a tear, which for flat
    /// variables executes as a whole-structure split; a failure injected
    /// before execution carries the proposal's name.) One test, inputs in
    /// sequence: the plan is process-global.
    #[test]
    fn breaker_opens_on_injected_timeouts_and_recovers_through_step() {
        for action in [ActionKind::Tear, ActionKind::Resize] {
            // The streak survives the open windows: the action lands in
            // the very window that closes the breaker, not a fresh
            // hysteresis run later. The one scheduler-sensitive claim
            // here — a window in which the traffic happened not to
            // conflict re-proposes nothing and resets the streak (about
            // one run in a hundred on a saturated machine) — so a miss is
            // re-run; a skip path that dropped the streak would miss
            // every time.
            assert!(
                (0..3).any(|_| breaker_scenario(action)),
                "{action}: never landed in the window that closed the breaker"
            );
        }
    }

    /// One open → close cycle of `action`'s breaker, every step of it
    /// asserted; returns whether the action landed in the closing window.
    fn breaker_scenario(action: ActionKind) -> bool {
        let mut cfg = ControllerConfig {
            hysteresis: 3,
            breaker_windows: 6,
            ..ControllerConfig::responsive()
        };
        if action == ActionKind::Resize {
            // On a saturated host the writers are descheduled for most of
            // a window, and the handful of write samples left can look
            // like a hot set: a split proposal (which pre-empts the
            // resize, and with nothing registered can only fail). This
            // input is the *resize's* breaker.
            cfg.online.split_abort_rate = f64::INFINITY;
        }
        let threshold = crate::controller::BREAKER_THRESHOLD as usize;
        let stm = Stm::new();
        let (accounts, dir) = if action == ActionKind::Tear {
            let (bank, dir) = MovableBank::new(&stm, 512, 100);
            (bank.accounts, dir)
        } else {
            let part = stm.new_partition(PartitionConfig::named("aliased").orecs(64));
            let accounts = (0..4096).map(|_| Arc::new(part.tvar(100))).collect();
            (accounts, Arc::new(StaticDirectory::new()))
        };
        let expect = accounts.len() as i64 * 100;
        let controller = RepartitionController::new(&stm, dir, cfg);
        let plan = fault::install(FaultPlan::new(0xB4EA).for_stm(&stm).ctrl_action_fail(1000));
        let landed = |e: &RepartEvent| match action {
            ActionKind::Tear => matches!(e, RepartEvent::Split { .. }),
            _ => matches!(e, RepartEvent::Resize { .. }),
        };

        let stop = AtomicBool::new(false);
        let (close_window, landed_window) = std::thread::scope(|s| {
            let _stop = StopOnDrop(&stop);
            if action == ActionKind::Tear {
                spawn_hot_cluster_traffic(s, &stm, &accounts, &stop);
            } else {
                spawn_aliasing_traffic(s, &stm, &accounts, &stop);
            }
            let opened = step_until(&stm, &controller, |c| {
                matches!(c.events().last(), Some(RepartEvent::BreakerOpen { .. }))
            });
            assert!(opened, "{action}: never opened: {:?}", controller.events());
            // Open: the proposal keeps recurring but is skipped before
            // the fault site, so nothing fails and nothing is logged.
            let logged = controller.events().len();
            for _ in 0..3 {
                step_window(&stm, &controller);
            }
            assert_eq!(
                controller.events().len(),
                logged,
                "{action}: acted while open"
            );
            assert_eq!(plan.injected(FaultSite::CtrlActionFail), threshold as u64);
            fault::clear();
            let mut close_window = None;
            let done = step_until(&stm, &controller, |c| {
                let events = c.events();
                if events.len() > logged {
                    close_window.get_or_insert(c.windows());
                }
                events.iter().any(landed)
            });
            assert!(done, "{action}: never recovered: {:?}", controller.events());
            (close_window.unwrap(), controller.windows())
        });

        let events = controller.events();
        assert_eq!(events.len(), threshold + 3, "{action}: {events:?}");
        for e in &events[..threshold] {
            assert!(
                matches!(e, RepartEvent::Failed { action: a, outcome: SwitchOutcome::TimedOut, .. } if *a == action),
                "{action}: {events:?}"
            );
        }
        assert!(
            matches!(events[threshold], RepartEvent::BreakerOpen { consecutive, .. } if consecutive as usize == threshold),
            "{action}: {events:?}"
        );
        assert!(
            matches!(events[threshold + 1], RepartEvent::BreakerClose { .. }),
            "{action}: {events:?}"
        );
        assert!(landed(&events[threshold + 2]), "{action}: {events:?}");
        let total: i64 = accounts.iter().map(|a| a.load_direct()).sum();
        assert_eq!(total, expect, "{action}: conserved sum");
        for p in stm.partitions() {
            let (locked, owners, _) = p.debug_scan();
            assert_eq!(locked, 0, "{}: leaked locks owned by {owners:?}", p.name());
        }
        landed_window == close_window
    }

    /// End-to-end arena-level split: two hash maps share one partition, a
    /// hot-key workload hammers the small one while scans walk the big
    /// one; the controller must map the profiler's hot buckets back to
    /// the *structure* (over-representation) and migrate the whole
    /// collection — arena home, nodes, bucket roots — into a fresh
    /// partition, conserving the maps' contents.
    #[test]
    fn controller_splits_a_hot_collection() {
        use partstm_structures::THashMap;
        const HOT_KEYS: u64 = 16;
        const COLD_KEYS: u64 = 2048;
        let stm = Stm::new();
        let part = stm.new_partition(PartitionConfig::named("mixed").orecs(256));
        let hot = Arc::new(THashMap::new(Arc::clone(&part), HOT_KEYS as usize));
        let cold = Arc::new(THashMap::new(Arc::clone(&part), 512));
        {
            let ctx = stm.register_thread();
            for k in 0..HOT_KEYS {
                ctx.run(|tx| hot.put(tx, k, 100).map(|_| ()));
            }
            for k in 0..COLD_KEYS {
                ctx.run(|tx| cold.put(tx, k, 100).map(|_| ()));
            }
        }
        let dir = Arc::new(StaticDirectory::new());
        hot.attach_directory(&*dir);
        cold.attach_directory(&*dir);
        let mut cfg = ControllerConfig::responsive();
        cfg.online.split_abort_rate = 0.02;
        cfg.online.split_hot_share = 0.30;
        let controller = RepartitionController::new(&stm, dir, cfg);

        let stop = Arc::new(AtomicBool::new(false));
        let mut split = false;
        std::thread::scope(|s| {
            // Hot hammer: transfers between hot keys, holding the
            // encounter lock across a reschedule (one-core contention).
            for t in 0..2u64 {
                let ctx = stm.register_thread();
                let (hot, stop) = (Arc::clone(&hot), Arc::clone(&stop));
                s.spawn(move || {
                    let mut r = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    while !stop.load(Ordering::Relaxed) {
                        r ^= r << 13;
                        r ^= r >> 7;
                        r ^= r << 17;
                        let (from, to) = (r % HOT_KEYS, (r >> 8) % HOT_KEYS);
                        let amt = r % 50;
                        ctx.run(|tx| {
                            let f = hot.get(tx, from)?.unwrap_or(0);
                            hot.put(tx, from, f.wrapping_sub(amt))?;
                            std::thread::sleep(Duration::from_micros(50));
                            let v = hot.get(tx, to)?.unwrap_or(0);
                            hot.put(tx, to, v.wrapping_add(amt))?;
                            Ok(())
                        });
                    }
                });
            }
            // Cold scans aborting against stranded hot locks (the false
            // sharing the split removes).
            {
                let ctx = stm.register_thread();
                let (cold, stop) = (Arc::clone(&cold), Arc::clone(&stop));
                s.spawn(move || {
                    let mut x = 7u64;
                    while !stop.load(Ordering::Relaxed) {
                        ctx.run(|tx| {
                            let mut sum = 0u64;
                            for _ in 0..32 {
                                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                                sum = sum.wrapping_add(
                                    cold.get(tx, (x >> 16) % COLD_KEYS)?.unwrap_or(0),
                                );
                            }
                            Ok(sum)
                        });
                    }
                });
            }
            let deadline = Instant::now() + Duration::from_secs(20);
            while Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(50));
                controller.step();
                if controller.has_split() {
                    split = true;
                    break;
                }
            }
            stop.store(true, Ordering::Relaxed);
        });

        assert!(split, "controller never split: {:?}", controller.events());
        let events = controller.events();
        let (dst, collections) = events
            .iter()
            .find_map(|e| match e {
                RepartEvent::Split {
                    dst, collections, ..
                } => Some((*dst, *collections)),
                _ => None,
            })
            .unwrap();
        assert!(collections >= 1, "split must carry a whole collection");
        assert_eq!(
            hot.partition_of(),
            dst,
            "hot map lives in the new partition"
        );
        assert_eq!(cold.partition_of(), part.id(), "cold map stays home");
        let total: u64 = hot
            .snapshot_pairs()
            .into_iter()
            .chain(cold.snapshot_pairs())
            .fold(0u64, |acc, (_, v)| acc.wrapping_add(v));
        assert_eq!(total, (HOT_KEYS + COLD_KEYS) * 100, "contents conserved");
    }

    /// End-to-end celebrity-key lifecycle: a skewed hammer on three keys
    /// of one big map makes the controller *tear* just the hot slot
    /// subset out — the map's home binding and the other thousands of
    /// slots stay put — and when the skew passes, the torn partition's
    /// load collapses and the controller *heals* the slots back into the
    /// origin, retiring the torn partition. Contents conserved
    /// throughout.
    #[test]
    fn controller_tears_and_heals_celebrity_keys() {
        use partstm_structures::THashMap;
        const KEYS: u64 = 4096;
        const CELEBS: u64 = 3;
        let stm = Stm::new();
        let part = stm.new_partition(PartitionConfig::named("table").orecs(256));
        let map = Arc::new(THashMap::new(Arc::clone(&part), KEYS as usize));
        {
            let ctx = stm.register_thread();
            for k in 0..KEYS {
                ctx.run(|tx| map.put(tx, k, 100).map(|_| ()));
            }
        }
        let dir = Arc::new(StaticDirectory::new());
        map.attach_directory(&*dir);
        let mut cfg = ControllerConfig::responsive();
        cfg.online.split_abort_rate = 0.02;
        cfg.online.split_hot_share = 0.30;
        let controller = RepartitionController::new(&stm, dir, cfg);

        let stop = Arc::new(AtomicBool::new(false));
        let skew = Arc::new(AtomicBool::new(true));
        let mut torn = false;
        let mut healed = false;
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
                            // Celebrity transfer holding its encounter
                            // lock across a reschedule (one-core
                            // contention).
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
                            // The skew has passed: uniform read-only
                            // scans, almost all of them against the
                            // origin's slots.
                            let mut x = r;
                            ctx.run(|tx| {
                                let mut sum = 0u64;
                                for _ in 0..16 {
                                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                                    sum = sum
                                        .wrapping_add(map.get(tx, (x >> 16) % KEYS)?.unwrap_or(0));
                                }
                                Ok(sum)
                            });
                        }
                    }
                });
            }
            // Generous deadline: the harness runs the suite's tests in
            // parallel on this one-core box, so the contention signal can
            // take a while to accumulate when neighbours steal the core.
            let deadline = Instant::now() + Duration::from_secs(60);
            while Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(50));
                controller.step();
                if !torn && controller.has_tear() {
                    torn = true;
                    skew.store(false, Ordering::Relaxed);
                }
                if torn && controller.has_heal() {
                    healed = true;
                    break;
                }
            }
            stop.store(true, Ordering::Relaxed);
        });

        assert!(torn, "controller never tore: {:?}", controller.events());
        assert!(healed, "controller never healed: {:?}", controller.events());
        let events = controller.events();
        let (tear_dst, moved, total_live) = events
            .iter()
            .find_map(|e| match e {
                RepartEvent::Tear {
                    dst,
                    moved,
                    total_live,
                    ..
                } => Some((*dst, *moved, *total_live)),
                _ => None,
            })
            .unwrap();
        assert!(moved > 0, "tear must migrate slots");
        assert!(
            moved < total_live / 2,
            "tear moves a slot subset, not the structure ({moved}/{total_live})"
        );
        assert_eq!(map.partition_of(), part.id(), "map home never moves");
        let (heal_src, heal_dst, heal_moved) = events
            .iter()
            .find_map(|e| match e {
                RepartEvent::Heal {
                    src, dst, moved, ..
                } => Some((*src, *dst, *moved)),
                _ => None,
            })
            .unwrap();
        assert_eq!(heal_src, tear_dst, "heal dissolves the torn partition");
        assert_eq!(heal_dst, part.id(), "slots go home to the origin");
        assert!(heal_moved >= moved, "heal returns every torn slot");
        let total = map
            .snapshot_pairs()
            .into_iter()
            .fold(0u64, |acc, (_, v)| acc.wrapping_add(v));
        assert_eq!(total, KEYS * 100, "contents conserved across tear + heal");
    }
}
