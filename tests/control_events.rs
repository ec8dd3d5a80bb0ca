//! The control plane's telemetry contract: each of the four operations
//! that run a quiesce window — configuration switch, orec resize,
//! repartition, privatize — emits exactly one event of its kind
//! per call, carrying the call's outcome and a truthful argument, plus a
//! `QuiesceBegin`/`QuiesceEnd` pair iff a drain ran and one `Republish`
//! per guard.
//!
//! The second test reads the same recording the way a human does: a
//! controller is driven to one split, and the proposals, the action, the
//! rendered timeline and the Prometheus text must agree with what the
//! controller reports.
//!
//! Its own binary, tests serialized on [`RECORDER`]: the flight recorder
//! is process-global, so nothing else may record while the expectations
//! below are compared against its tail.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use partstm::core::telemetry::{self, codes, Event, EventKind};
use partstm::core::{
    rtlog, Migratable, MigrationSource, PVar, Partition, PartitionConfig, Stm, SwitchOutcome,
};
use partstm::repart::{ControllerConfig, RepartEvent, RepartitionController, StaticDirectory};
use partstm::structures::Bank;

#[path = "common/control_ops.rs"]
mod control_ops;
use control_ops::ControlOp;

/// Held by each test for its whole body (see the module docs).
static RECORDER: Mutex<()> = Mutex::new(());

struct Rig {
    stm: Stm,
    a: Arc<Partition>,
    b: Arc<Partition>,
    bank: Bank,
}

impl Rig {
    fn new() -> Rig {
        let stm = Stm::builder()
            .quiesce_timeout(Duration::from_millis(40))
            .build();
        let a = stm.new_partition(PartitionConfig::named("a").orecs(64));
        let b = stm.new_partition(PartitionConfig::named("b"));
        let bank = Bank::new(Arc::clone(&a), 6, 100);
        Rig { stm, a, b, bank }
    }

    fn run(&self, op: ControlOp) -> SwitchOutcome {
        op.run(&self.stm, &self.a, &self.b, &self.bank)
    }

    /// The event `op` must emit for `outcome`: `(kind, partition, outcome
    /// code, argument)`. A resize reports the *effective* value (100
    /// rounds up to 128); a repartition reports the bindings it actually
    /// rebound.
    fn event(&self, op: ControlOp, outcome: SwitchOutcome) -> (EventKind, u64, u64, u64) {
        let code = match outcome {
            SwitchOutcome::Switched => codes::OUTCOME_SWITCHED,
            SwitchOutcome::Unchanged => codes::OUTCOME_UNCHANGED,
            SwitchOutcome::Contended => codes::OUTCOME_CONTENDED,
            SwitchOutcome::TimedOut => codes::OUTCOME_TIMED_OUT,
        };
        let a = u64::from(self.a.id().0);
        match op {
            ControlOp::Switch => (EventKind::ConfigSwitch, a, code, 0),
            ControlOp::ResizeOrecs => (EventKind::OrecResize, a, code, 128),
            ControlOp::Migrate => {
                let mut moved = 0;
                if outcome == SwitchOutcome::Switched {
                    self.bank.for_each_binding(&mut |_| moved += 1);
                }
                let b = u64::from(self.b.id().0);
                (EventKind::Repartition, b, code, moved)
            }
            ControlOp::Privatize => (EventKind::Privatize, a, code, 0),
        }
    }
}

/// Runs `f` and returns what the control plane recorded meanwhile, with
/// the measured durations (`QuiesceEnd.b`, `Republish.b`) zeroed and the
/// events this contract does not cover (tuner-window resets, stuck-slot
/// and kill-rescue diagnostics) dropped.
fn recorded<R>(f: impl FnOnce() -> R) -> (R, Vec<(EventKind, u64, u64, u64)>) {
    let recorder = &telemetry::global().recorder;
    let before = recorder.snapshot().len();
    let r = f();
    let events = recorder.snapshot()[before..]
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::QuiesceEnd | EventKind::Republish => Some((e.kind, e.a, 0, e.c)),
            EventKind::QuiesceBegin
            | EventKind::ConfigSwitch
            | EventKind::OrecResize
            | EventKind::Repartition
            | EventKind::Privatize => Some((e.kind, e.a, e.b, e.c)),
            _ => None,
        })
        .collect();
    (r, events)
}

#[test]
fn each_operation_emits_one_event_with_its_outcome() {
    let _serial = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    telemetry::set_tx_sample_period(0); // control-plane events only
    rtlog::set_quiet(true); // the provoked timeouts would log

    for op in ControlOp::ALL {
        let rig = Rig::new();
        let subject = rig.event(op, SwitchOutcome::Switched).1;
        let drain = |ok: u64| {
            [
                (EventKind::QuiesceBegin, subject, 0, 0),
                (EventKind::QuiesceEnd, subject, 0, ok),
            ]
        };

        // Contended: a foreign flag on the partition flagged *last* (the
        // migration takes `a` first and must give it back). No drain.
        let foreign = if op == ControlOp::Migrate {
            &rig.b
        } else {
            &rig.a
        };
        foreign.debug_force_switch_flag(true);
        let (out, events) = recorded(|| rig.run(op));
        foreign.debug_force_switch_flag(false);
        assert_eq!(out, SwitchOutcome::Contended, "{op:?}");
        assert_eq!(events, [rig.event(op, out)], "{op:?} contended");

        // TimedOut: a straggler sits inside a transaction for the whole
        // call. The drain ran and failed.
        let (in_txn, release) = (AtomicBool::new(false), AtomicBool::new(false));
        let (out, events) = std::thread::scope(|s| {
            let ctx = rig.stm.register_thread();
            let (rig, in_txn, release) = (&rig, &in_txn, &release);
            s.spawn(move || {
                ctx.run(|tx| {
                    let v = rig.bank.balance(tx, 0)?;
                    in_txn.store(true, Ordering::Release);
                    while !release.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(v)
                });
            });
            while !in_txn.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let r = recorded(|| rig.run(op));
            release.store(true, Ordering::Release);
            r
        });
        assert_eq!(out, SwitchOutcome::TimedOut, "{op:?}");
        let [begin, end] = drain(0);
        assert_eq!(events, [begin, end, rig.event(op, out)], "{op:?} timed out");

        // Switched: the drain ran and succeeded; a privatization's guard
        // additionally reports its republish.
        let (out, events) = recorded(|| rig.run(op));
        assert_eq!(out, SwitchOutcome::Switched, "{op:?}");
        let [begin, end] = drain(1);
        let mut want = vec![begin, end, rig.event(op, out)];
        if op == ControlOp::Privatize {
            want.push((EventKind::Republish, subject, 0, 0));
        }
        assert_eq!(events, want, "{op:?} switched");

        // Unchanged: the same request again. Nothing flagged, no drain.
        // (A privatization is never a no-op.)
        if op != ControlOp::Privatize {
            let (out, events) = recorded(|| rig.run(op));
            assert_eq!(out, SwitchOutcome::Unchanged, "{op:?}");
            assert_eq!(events, [rig.event(op, out)], "{op:?} unchanged");
        }
    }
}

/// The `CtrlAction` payload `(a, b, c)` a controller event must have been
/// mirrored as: subject partition, action code with the moved count (a
/// resize: the new table size) above the low byte, outcome code. Breaker
/// transitions are `CtrlBreaker` events, not actions.
fn ctrl_action_of(e: &RepartEvent) -> Option<(u64, u64, u64)> {
    let done = |part: &partstm::core::PartitionId, action: u64, moved: usize| {
        Some((
            u64::from(part.0),
            action | (moved as u64) << 8,
            codes::OUTCOME_SWITCHED,
        ))
    };
    match e {
        RepartEvent::Split { src, moved, .. } => done(src, codes::ACTION_SPLIT, *moved),
        RepartEvent::Merge { src, moved, .. } => done(src, codes::ACTION_MERGE, *moved),
        RepartEvent::Resize { partition, to, .. } => done(partition, codes::ACTION_RESIZE, *to),
        RepartEvent::Tear { src, moved, .. } => done(src, codes::ACTION_TEAR, *moved),
        RepartEvent::Heal { src, moved, .. } => done(src, codes::ACTION_HEAL, *moved),
        RepartEvent::Failed {
            action,
            src,
            outcome,
        } => {
            let action = (0..=codes::ACTION_HEAL)
                .find(|c| codes::action_name(*c) == action.name())
                .expect("a known action name");
            Some((u64::from(src.0), action, telemetry::outcome_code(*outcome)))
        }
        RepartEvent::BreakerOpen { .. } | RepartEvent::BreakerClose { .. } => None,
    }
}

/// Control-plane events of `kind` recorded since `t0`, oldest first.
fn control_since(t0: u64, kind: EventKind) -> Vec<Event> {
    let mut events = telemetry::global().recorder.snapshot();
    events.retain(|e| e.micros >= t0 && e.kind == kind);
    events
}

#[test]
fn controller_run_reads_back_through_timeline_and_prometheus() {
    const ACCOUNTS: usize = 512;
    const HOT: u64 = 4;
    let _serial = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    telemetry::set_tx_sample_period(0); // control-plane events only

    let stm = Stm::new();
    let part = stm.new_partition(PartitionConfig::named("accounts"));
    let accounts: Vec<Arc<PVar<i64>>> = (0..ACCOUNTS).map(|_| Arc::new(part.tvar(100))).collect();
    let dir = Arc::new(StaticDirectory::new());
    dir.register_all(
        accounts
            .iter()
            .map(|a| Arc::clone(a) as Arc<dyn Migratable>),
    );
    let cfg = ControllerConfig::responsive();
    let hysteresis = u64::from(cfg.hysteresis);
    let controller = RepartitionController::new(&stm, dir, cfg);
    let t0 = telemetry::now_micros();

    // Writers hammer a hot cluster (a yield inside the hot transactions
    // stretches the conflict window across a reschedule) until the
    // controller, stepped window by window, splits it out. Every window's
    // proposals are checked as they appear: one event per scored
    // proposal, carrying the streak the hysteresis rule defines.
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let ctx = stm.register_thread();
            let (accounts, stop) = (&accounts, &stop);
            s.spawn(move || {
                let mut r = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                while !stop.load(Ordering::Relaxed) {
                    r ^= r << 13;
                    r ^= r >> 7;
                    r ^= r << 17;
                    let hot = r % 100 < 85;
                    let span = if hot { HOT } else { ACCOUNTS as u64 };
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
        // (action code, partition) -> streak after the previous window.
        let mut streaks: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let (mut seen, mut acted) = (0, 0);
        let deadline = Instant::now() + Duration::from_secs(20);
        while !controller.has_split() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
            controller.step();
            let proposals = control_since(t0, EventKind::CtrlProposal);
            let mut window = BTreeMap::new();
            for e in &proposals[seen..] {
                let key = (e.b & 0xFF, e.a);
                let streak = streaks.get(&key).copied().unwrap_or(0) + 1;
                assert_eq!(e.b >> 8, streak, "{}", telemetry::render_event(e));
                assert!(
                    window.insert(key, streak).is_none(),
                    "proposal recorded twice in one window: {}",
                    telemetry::render_event(e)
                );
            }
            seen = proposals.len();
            // A proposal absent from a window starts over; so does every
            // proposal once an action ran (or failed).
            streaks = window;
            let events = controller
                .events()
                .iter()
                .filter_map(ctrl_action_of)
                .count();
            if events > acted {
                assert!(
                    streaks.values().any(|streak| *streak >= hysteresis),
                    "acted without an approved proposal: {streaks:?}"
                );
                streaks.clear();
                acted = events;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let events = controller.stop();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, RepartEvent::Split { .. })),
        "controller never split: {events:?}"
    );

    // Exactly one CtrlAction per executed or failed action, in order.
    let actions: Vec<_> = control_since(t0, EventKind::CtrlAction)
        .iter()
        .map(|e| (e.a, e.b, e.c))
        .collect();
    let want: Vec<_> = events.iter().filter_map(ctrl_action_of).collect();
    assert_eq!(actions, want, "{events:?}");

    // The timeline a human reads: every control-plane event renders, and
    // the split reads as one.
    let timeline: Vec<String> = telemetry::global()
        .recorder
        .snapshot()
        .iter()
        .filter(|e| e.micros >= t0 && e.kind.is_control_plane())
        .map(telemetry::render_event)
        .collect();
    assert!(timeline.iter().all(|line| !line.trim().is_empty()));
    let (_, b, _) = want.last().expect("the split");
    let split = format!("split p{} -> switched (moved={})", part.id().0, b >> 8);
    assert!(
        timeline
            .iter()
            .any(|l| l.starts_with("ctrl-action") && l.ends_with(&split)),
        "{timeline:#?}"
    );

    // The Prometheus text: `# TYPE` comments, one per family, and
    // `name[{key="value",…}] value` samples only, each series once,
    // bucket series cumulative, and the split's quiesce window counted by
    // the histogram and by its subject's counter.
    let text = telemetry::prometheus_text(&stm);
    let legal = |name: &str| {
        name.strip_prefix("partstm_").is_some_and(|n| {
            !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        })
    };
    let mut families = BTreeSet::new();
    let mut samples: BTreeMap<(&str, Labels), u64> = BTreeMap::new();
    let mut bucket: Option<(&str, u64, u64)> = None; // series, bound, cumulative count
    for line in text.lines() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (name, ty) = decl.split_once(' ').expect(line);
            assert!(
                legal(name) && matches!(ty, "counter" | "histogram"),
                "{line}"
            );
            assert!(families.insert(name), "family declared twice: {line}");
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect(line);
        let value: u64 = value.parse().expect(line);
        let (name, labels) = parse_series(series);
        assert!(legal(name), "{line}");
        if let [(key, le)] = &labels[..] {
            if key == "le" {
                assert!(name.ends_with("_bucket"), "{line}");
                let bound = if le == "+Inf" {
                    u64::MAX
                } else {
                    le.parse().expect(line)
                };
                if let Some((prev, prev_bound, prev_value)) = bucket {
                    assert!(
                        prev != name || (bound > prev_bound && value >= prev_value),
                        "{line}"
                    );
                }
                bucket = Some((name, bound, value));
            }
        }
        assert!(
            samples.insert((name, labels), value).is_none(),
            "series repeated: {line}"
        );
    }
    let inf = vec![("le".to_owned(), "+Inf".to_owned())];
    let quiesced = samples[&("partstm_quiesce_us_count", vec![])];
    assert!(quiesced >= 1, "{text}");
    assert_eq!(
        samples[&("partstm_quiesce_us_bucket", inf)],
        quiesced,
        "{text}"
    );

    // Every counter, once per partition, as the partition reports it (the
    // run is over: nothing moves them any more).
    let labels = |p: &Partition| {
        vec![
            ("partition".to_owned(), p.id().0.to_string()),
            ("name".to_owned(), p.name().to_owned()),
        ]
    };
    for p in stm.partitions() {
        for (field, v) in p.stats().fields() {
            let family = format!("partstm_{field}");
            assert_eq!(
                samples.get(&(family.as_str(), labels(&p))),
                Some(&v),
                "{family} of {}",
                p.name()
            );
        }
    }
    let subject = events
        .iter()
        .find_map(|e| match e {
            RepartEvent::Split { dst, .. } => Some(*dst),
            _ => None,
        })
        .expect("the split");
    let subject = stm
        .partitions()
        .into_iter()
        .find(|p| p.id() == subject)
        .expect("the split's partition");
    assert!(samples[&("partstm_quiesce_windows", labels(&subject))] >= 1);
}

/// A label set as parsed: `(key, unescaped value)` pairs in order.
type Labels = Vec<(String, String)>;

/// Splits a sample's series into its metric name and label set, undoing
/// the value escapes (`\\`, `\"`, `\n`).
fn parse_series(series: &str) -> (&str, Labels) {
    let Some((name, rest)) = series.split_once('{') else {
        return (series, Vec::new());
    };
    let mut rest = rest.strip_suffix('}').expect(series);
    let mut labels = Vec::new();
    while !rest.is_empty() {
        let (key, quoted) = rest.split_once("=\"").expect(series);
        let (mut value, mut chars) = (String::new(), quoted.char_indices());
        let end = loop {
            match chars.next().expect(series) {
                (i, '"') => break i,
                (_, '\\') => value.push(match chars.next().expect(series).1 {
                    'n' => '\n',
                    c => c,
                }),
                (_, c) => value.push(c),
            }
        };
        labels.push((key.to_owned(), value));
        rest = &quoted[end + 1..];
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    (name, labels)
}
