//! The control plane's telemetry contract: each of the five operations
//! that run a quiesce window — configuration switch, orec resize, ring
//! depth, repartition, privatize — emits exactly one event of its kind
//! per call, carrying the call's outcome and a truthful argument, plus a
//! `QuiesceBegin`/`QuiesceEnd` pair iff a drain ran and one `Republish`
//! per guard.
//!
//! One `#[test]` in its own binary: the flight recorder is process-global,
//! so nothing else may record while the expectations below are compared
//! against its tail.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use partstm::core::config::MAX_RING_DEPTH;
use partstm::core::telemetry::{self, codes, EventKind};
use partstm::core::{rtlog, MigrationSource, Partition, PartitionConfig, Stm, SwitchOutcome};
use partstm::structures::Bank;

#[path = "common/control_ops.rs"]
mod control_ops;
use control_ops::ControlOp;

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
        let a = stm.new_partition(PartitionConfig::named("a").orecs(64).ring(4));
        let b = stm.new_partition(PartitionConfig::named("b"));
        let bank = Bank::new(Arc::clone(&a), 6, 100);
        Rig { stm, a, b, bank }
    }

    fn run(&self, op: ControlOp) -> SwitchOutcome {
        op.run(&self.stm, &self.a, &self.b, &self.bank)
    }

    /// The event `op` must emit for `outcome`: `(kind, partition, outcome
    /// code, argument)`. Resize and depth report the *effective* value
    /// (100 rounds up to 128, `usize::MAX` clamps); a repartition reports
    /// the bindings it actually rebound.
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
            ControlOp::RingDepth => (EventKind::RingDepth, a, code, MAX_RING_DEPTH as u64),
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
            | EventKind::RingDepth
            | EventKind::Repartition
            | EventKind::Privatize => Some((e.kind, e.a, e.b, e.c)),
            _ => None,
        })
        .collect();
    (r, events)
}

#[test]
fn each_operation_emits_one_event_with_its_outcome() {
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
