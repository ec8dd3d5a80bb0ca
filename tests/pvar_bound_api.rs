//! The `PVar` access API and the per-attempt partition-view cache: a
//! switch-storm stress test on the conserved-sum invariant, a property
//! test of multi-partition transactions against a sequential model, and
//! view-cache diagnostics.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use partstm::core::{
    AcquireMode, Granularity, PVar, PartitionConfig, ReadMode, Stm, SwitchOutcome,
};
use partstm::structures::Bank;

/// Bank transfers under a continuous stream of configuration switches: the
/// partition view cached at first touch of each attempt must stay coherent
/// with the quiesce protocol, or a transfer could run half under one
/// granularity and half under another and lose money.
#[test]
fn bank_conserves_total_under_config_switch_storm() {
    let stm = Stm::new();
    let bank = Arc::new(Bank::new(
        stm.new_partition(PartitionConfig::named("switchy")),
        16,
        1_000,
    ));
    let expect = 16_000i64;
    let stop = Arc::new(AtomicBool::new(false));
    let switches = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        // Transfer threads on the bound API.
        for t in 0..4usize {
            let ctx = stm.register_thread();
            let (bank, stop) = (Arc::clone(&bank), Arc::clone(&stop));
            s.spawn(move || {
                let mut r = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                while !stop.load(Ordering::Relaxed) {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    let from = (r % 16) as usize;
                    let to = ((r >> 8) % 16) as usize;
                    ctx.run(|tx| bank.transfer(tx, from, to, (r % 90) as i64));
                }
            });
        }
        // Reader thread asserts the invariant mid-flight until the
        // switcher calls the run over. `stop` is set *before* the
        // assertion can panic, so a conservation failure fails the test
        // instead of deadlocking the other loops.
        {
            let ctx = stm.register_thread();
            let (bank, stop) = (Arc::clone(&bank), Arc::clone(&stop));
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let total = ctx.run(|tx| bank.total(tx));
                    if total != expect {
                        stop.store(true, Ordering::Relaxed);
                        panic!("sum not conserved: {total} != {expect}");
                    }
                }
            });
        }
        // Switcher cycles through disparate configurations as fast as the
        // quiesce protocol allows, and ends the run once enough switches
        // have landed (deadline-bounded so a stuck protocol cannot hang
        // the test).
        {
            let stm2 = stm.clone();
            let (bank, stop, switches) =
                (Arc::clone(&bank), Arc::clone(&stop), Arc::clone(&switches));
            s.spawn(move || {
                let configs = [
                    (ReadMode::Visible, AcquireMode::Encounter, Granularity::Word),
                    (
                        ReadMode::Invisible,
                        AcquireMode::Commit,
                        Granularity::PartitionLock,
                    ),
                    (
                        ReadMode::Visible,
                        AcquireMode::Commit,
                        Granularity::Stripe { shift: 6 },
                    ),
                    (
                        ReadMode::Invisible,
                        AcquireMode::Encounter,
                        Granularity::Word,
                    ),
                ];
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let part = bank.partition();
                    let mut cfg = part.current_config();
                    let (rm, aq, g) = configs[i % configs.len()];
                    i += 1;
                    cfg.read_mode = rm;
                    cfg.acquire = aq;
                    cfg.granularity = g;
                    if stm2.switch_partition(part, cfg) == SwitchOutcome::Switched {
                        switches.fetch_add(1, Ordering::Relaxed);
                    }
                    if switches.load(Ordering::Relaxed) >= 20
                        || std::time::Instant::now() > deadline
                    {
                        stop.store(true, Ordering::Relaxed);
                    }
                    std::thread::yield_now();
                }
            });
        }
    });
    assert_eq!(bank.total_direct(), expect);
    assert!(
        switches.load(Ordering::Relaxed) > 0,
        "the storm must have switched at least once"
    );
}

#[derive(Debug, Clone, Copy)]
enum VarOp {
    Write(u8, u64),
    Read(u8),
    Add(u8, u64),
}

fn var_op() -> impl Strategy<Value = VarOp> {
    (0..3u8, 0..8u8, 0..1_000u64).prop_map(|(kind, i, v)| match kind {
        0 => VarOp::Write(i, v),
        1 => VarOp::Read(i),
        _ => VarOp::Add(i, v),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same op sequence over 8 variables — split across two
    /// partitions (one invisible-read, one visible-read) and grouped into
    /// transactions of three ops — produces the read results and final
    /// states of a plain sequential model.
    #[test]
    fn pvar_api_matches_sequential_model(ops in proptest::collection::vec(var_op(), 1..120)) {
        let stm = Stm::new();
        let p0 = stm.new_partition(PartitionConfig::named("p0"));
        let p1 = stm.new_partition(PartitionConfig::named("p1").read_mode(ReadMode::Visible));
        let vars: Vec<PVar<u64>> = (0..8)
            .map(|i: usize| {
                if i.is_multiple_of(2) {
                    p0.tvar(0u64)
                } else {
                    p1.tvar(0u64)
                }
            })
            .collect();
        let mut model = [0u64; 8];

        let ctx = stm.register_thread();
        for chunk in ops.chunks(3) {
            let out = ctx.run(|tx| {
                let mut reads = Vec::new();
                for op in chunk {
                    match *op {
                        VarOp::Write(i, v) => tx.write(&vars[i as usize], v)?,
                        VarOp::Read(i) => reads.push(tx.read(&vars[i as usize])?),
                        VarOp::Add(i, v) => {
                            reads.push(tx.modify(&vars[i as usize], |x| x.wrapping_add(v))?)
                        }
                    }
                }
                Ok(reads)
            });
            let mut expect = Vec::new();
            for op in chunk {
                match *op {
                    VarOp::Write(i, v) => model[i as usize] = v,
                    VarOp::Read(i) => expect.push(model[i as usize]),
                    VarOp::Add(i, v) => {
                        model[i as usize] = model[i as usize].wrapping_add(v);
                        expect.push(model[i as usize]);
                    }
                }
            }
            prop_assert_eq!(out, expect, "diverged from the model inside a transaction");
        }
        for i in 0..8 {
            prop_assert_eq!(vars[i].load_direct(), model[i], "final state var {}", i);
        }
    }
}

/// The cached generation is stable across an attempt and matches the
/// partition's generation (no switch can interleave, per the quiesce
/// protocol).
#[test]
fn cached_generation_is_stable_within_an_attempt() {
    let stm = Stm::new();
    let p = stm.new_partition(PartitionConfig::named("g"));
    let x = p.tvar(3u64);
    // Bump the generation once before measuring.
    let mut cfg = p.current_config();
    cfg.read_mode = ReadMode::Visible;
    assert!(stm.switch_partition(&p, cfg).switched());
    let ctx = stm.register_thread();
    ctx.run(|tx| {
        assert_eq!(tx.cached_generation(&p), None, "untouched partition");
        let _ = tx.read(&x)?;
        let g0 = tx.cached_generation(&p).expect("touched now");
        assert_eq!(g0, p.generation());
        for _ in 0..10 {
            let _ = tx.read(&x)?;
            assert_eq!(
                tx.cached_generation(&p),
                Some(g0),
                "view must not re-decode"
            );
        }
        Ok(())
    });
}

/// The engine's debug-only generation tripwire, as a storm that also runs
/// in `--release`: no attempt may span a structural window.
///
/// Workers loop one- and two-variable transactions and, as the last thing
/// each attempt does, compare the generation its view cached at first
/// touch with the partition's generation *now*. While the attempt is in
/// flight a window may have raised its flag, but it cannot have closed
/// (generation + 1) — it is waiting for this attempt to leave. A switcher
/// issues `switch_partition`, `resize_orecs` and `migrate_pvars`
/// back-to-back, with nothing in between, so every attempt begins inside
/// or right next to a window. This exercises exactly the orderings the
/// fence diet relaxed: `seq` leaves with a release store, `start_epoch` is
/// a release store, and the quiesce's only fence on the attempt's side is
/// the `seq` RMW (see "One full fence per attempt" in the `txn` docs).
#[test]
fn no_attempt_spans_a_window_under_a_back_to_back_control_storm() {
    const ACCOUNTS: usize = 16;
    const ROUNDS: usize = 1000;
    let stm = Stm::new();
    let a = stm.new_partition(PartitionConfig::named("storm-a").orecs(64));
    let b = stm.new_partition(PartitionConfig::named("storm-b").orecs(64));
    let vars: Vec<PVar<i64>> = (0..ACCOUNTS).map(|_| a.tvar(1_000)).collect();
    let expect = ACCOUNTS as i64 * 1_000;
    let stop = AtomicBool::new(false);
    let span_violations = AtomicUsize::new(0);
    let torn_sums = AtomicUsize::new(0);
    let windows = AtomicUsize::new(0);

    // The tripwire: every partition this attempt touched still carries the
    // generation the view cached.
    let check = |tx: &partstm::core::Tx<'_, '_>| {
        for p in [&a, &b] {
            if tx.cached_generation(p).is_some_and(|g| g != p.generation()) {
                span_violations.fetch_add(1, Ordering::Relaxed);
            }
        }
    };

    std::thread::scope(|s| {
        for t in 0..2usize {
            let ctx = stm.register_thread();
            let (vars, stop, check) = (&vars, &stop, &check);
            s.spawn(move || {
                let mut r = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                while !stop.load(Ordering::Relaxed) {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    let from = (r % ACCOUNTS as u64) as usize;
                    let to = ((r >> 8) % ACCOUNTS as u64) as usize;
                    if r & (1 << 20) == 0 {
                        // One in 64 of these lingers between first touch
                        // and the check for about as long as a window
                        // takes, so a drain that failed to wait for it
                        // would close the window underneath it.
                        let linger = r & (63 << 24) == 0;
                        ctx.run(|tx| {
                            tx.read(&vars[from])?;
                            if linger {
                                for _ in 0..20_000 {
                                    std::hint::spin_loop();
                                }
                            }
                            check(tx);
                            Ok(())
                        });
                    } else if from != to {
                        ctx.run(|tx| {
                            tx.modify(&vars[from], |v| v - 7)?;
                            tx.modify(&vars[to], |v| v + 7)?;
                            check(tx);
                            Ok(())
                        });
                    }
                }
            });
        }
        // Auditor: the conserved sum, through both read paths.
        {
            let ctx = stm.register_thread();
            let (vars, stop, check, torn_sums) = (&vars, &stop, &check, &torn_sums);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let validated = ctx.run(|tx| {
                        let mut sum = 0;
                        for v in vars {
                            sum += tx.read(v)?;
                        }
                        check(tx);
                        Ok(sum)
                    });
                    let snapshot = ctx.snapshot_read(|tx| {
                        let mut sum = 0;
                        for v in vars {
                            sum += tx.read(v)?;
                        }
                        Ok(sum)
                    });
                    if validated != expect || snapshot != expect {
                        torn_sums.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // Switcher (this thread): three different windows per round, no
        // pause between them; the variables change home every round.
        let all: Vec<&dyn partstm::core::Migratable> = vars.iter().map(|v| v as _).collect();
        let (mut home, mut away) = (&a, &b);
        for _ in 0..ROUNDS {
            let mut cfg = home.current_config();
            cfg.read_mode = match cfg.read_mode {
                ReadMode::Invisible => ReadMode::Visible,
                ReadMode::Visible => ReadMode::Invisible,
            };
            let orecs = if home.orec_count() == 64 { 1024 } else { 64 };
            let outcomes = [
                stm.switch_partition(home, cfg),
                stm.resize_orecs(home, orecs),
                stm.migrate_pvars(&all, away),
            ];
            // Nothing else owns these partitions and every transaction is
            // short: no window may be contended or time out.
            if outcomes.iter().all(|o| o.switched()) {
                windows.fetch_add(outcomes.len(), Ordering::Relaxed);
            }
            std::mem::swap(&mut home, &mut away);
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(
        span_violations.load(Ordering::Relaxed),
        0,
        "an attempt observed a generation change mid-flight"
    );
    assert_eq!(torn_sums.load(Ordering::Relaxed), 0, "sum not conserved");
    assert_eq!(
        windows.load(Ordering::Relaxed),
        3 * ROUNDS,
        "a window failed"
    );
    let total: i64 = vars.iter().map(|v| v.load_direct()).sum();
    assert_eq!(total, expect);
    for p in [&a, &b] {
        let (locked, owners, _) = p.debug_scan();
        assert_eq!(locked, 0, "{}: leaked locks owned by {owners:?}", p.name());
    }
    // ROUNDS is even: the variables are back home.
    for v in &vars {
        assert_eq!(v.partition_id(), a.id());
    }
}
