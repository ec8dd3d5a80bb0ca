//! The flight recorder: bounded, lock-free event rings.
//!
//! An [`EventRing`] is a power-of-two array of seqlocked slots plus a
//! monotone head counter. Recording claims a position with one relaxed
//! `fetch_add` and writes the slot under a per-slot sequence word (odd =
//! write in progress); old entries are silently overwritten, so the ring
//! always holds the *newest* `capacity` events. Snapshots never block
//! producers: a reader that observes a slot mid-write (odd sequence, or a
//! sequence that moved while reading) discards that slot.
//!
//! The [`FlightRecorder`] arranges rings the way the runtime produces
//! events: one *lane* per thread slot for the (sampled) transaction
//! lifecycle — single producer, zero contention — plus one shared
//! *control ring* for the rare control-plane events (quiesce windows,
//! splits, resizes, controller decisions), where claim collisions are
//! possible in principle but negligible at control-plane rates, and torn
//! slots are dropped by readers either way. This is a diagnostic
//! instrument: completeness is traded for never stalling the runtime.

use core::sync::atomic::{fence, AtomicU64, Ordering};

use crate::codes;

/// What an [`Event`] describes. Payload word meanings (`a`, `b`, `c`) are
/// per-variant; unused words are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum EventKind {
    /// Empty slot marker; never recorded explicitly.
    None = 0,
    /// A flag→quiesce window started draining. `a` = partition id.
    QuiesceBegin = 1,
    /// A quiesce window resolved. `a` = partition id, `b` = drain
    /// duration in µs, `c` = 1 if quiescence was reached, 0 on timeout.
    QuiesceEnd = 2,
    /// A configuration switch finished. `a` = partition id, `b` =
    /// `codes::OUTCOME_*`.
    ConfigSwitch = 3,
    /// An in-place orec-table resize finished. `a` = partition id, `b` =
    /// `codes::OUTCOME_*`, `c` = requested orec count.
    OrecResize = 4,
    /// A repartition (split/merge/migrate) finished. `a` = destination
    /// partition id, `b` = `codes::OUTCOME_*`, `c` = variables moved.
    Repartition = 6,
    /// A privatization attempt finished. `a` = partition id, `b` =
    /// `codes::OUTCOME_*`.
    Privatize = 7,
    /// A privatized partition was republished. `a` = partition id, `b` =
    /// hold duration in µs.
    Republish = 8,
    /// A partition's tuning window was reset after a structural action.
    /// `a` = partition id.
    TunerWindowReset = 9,
    /// The repartition controller scored a proposal. `a` = subject
    /// partition id, `b` = `codes::ACTION_*` in the low byte and the
    /// hysteresis streak (approvals so far) in the next byte, `c` = the
    /// proposal score as `f64` bits.
    CtrlProposal = 10,
    /// The controller executed (or failed to execute) an action. `a` =
    /// subject partition id, `b` = `codes::ACTION_*` in the low byte and
    /// the variables moved in the upper bits, `c` = `codes::OUTCOME_*`.
    CtrlAction = 11,
    /// Sampled transaction attempt began. `a` = thread lane, `b` = serial.
    TxBegin = 12,
    /// Sampled transaction passed commit-time validation. `a` = thread
    /// lane, `b` = read-set length.
    TxValidate = 13,
    /// Sampled transaction committed. `a` = thread lane, `b` = latency
    /// from begin in ns, `c` = read-set length.
    TxCommit = 14,
    /// Sampled transaction attempt aborted. `a` = thread lane, `b` =
    /// `codes::ABORT_*`, `c` = failed attempts so far.
    TxAbort = 15,
    /// A quiesce window hit its hard deadline with a slot still inside a
    /// pre-epoch transaction. `a` = partition id, `b` = stuck thread
    /// slot, `c` = encounter locks the slot held at scan time.
    StuckSlot = 16,
    /// A quiesce window crossed its soft deadline and raised kill flags
    /// against the blocking slots. `a` = partition id, `b` = slots
    /// killed, `c` = µs since the window began draining.
    KillRescue = 17,
    /// The repartition controller's per-partition circuit breaker changed
    /// state. `a` = partition id, `b` = 1 on open / 0 on close, `c` =
    /// consecutive quiesce-timeout failures at the transition.
    CtrlBreaker = 18,
}

impl EventKind {
    /// Decodes a stored kind word; unknown values collapse to `None`.
    pub fn from_u16(v: u16) -> EventKind {
        match v {
            1 => EventKind::QuiesceBegin,
            2 => EventKind::QuiesceEnd,
            3 => EventKind::ConfigSwitch,
            4 => EventKind::OrecResize,
            6 => EventKind::Repartition,
            7 => EventKind::Privatize,
            8 => EventKind::Republish,
            9 => EventKind::TunerWindowReset,
            10 => EventKind::CtrlProposal,
            11 => EventKind::CtrlAction,
            12 => EventKind::TxBegin,
            13 => EventKind::TxValidate,
            14 => EventKind::TxCommit,
            15 => EventKind::TxAbort,
            16 => EventKind::StuckSlot,
            17 => EventKind::KillRescue,
            18 => EventKind::CtrlBreaker,
            _ => EventKind::None,
        }
    }

    /// Whether this is a control-plane event (as opposed to a sampled
    /// transaction lifecycle event). Timelines typically show only these
    /// and summarize the rest.
    pub fn is_control_plane(self) -> bool {
        !matches!(
            self,
            EventKind::TxBegin | EventKind::TxValidate | EventKind::TxCommit | EventKind::TxAbort
        ) && self != EventKind::None
    }
}

/// One timestamped flight-recorder entry. `Copy` by design: slots hold it
/// as bare atomics, payload semantics live in [`EventKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the process observation epoch
    /// ([`crate::now_micros`]).
    pub micros: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (see [`EventKind`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
}

impl Event {
    /// An event stamped with the current time.
    pub fn now(kind: EventKind, a: u64, b: u64, c: u64) -> Event {
        Event {
            micros: crate::now_micros(),
            kind,
            a,
            b,
            c,
        }
    }

    /// An event with an explicit timestamp (tests, replay).
    pub fn at(micros: u64, kind: EventKind, a: u64, b: u64, c: u64) -> Event {
        Event {
            micros,
            kind,
            a,
            b,
            c,
        }
    }
}

/// Renders an event as one human-readable timeline line (no timestamp —
/// the timeline printer owns time formatting).
pub fn render_event(e: &Event) -> String {
    match e.kind {
        EventKind::None => "(empty)".into(),
        EventKind::QuiesceBegin => format!("quiesce-begin    p{}", e.a),
        EventKind::QuiesceEnd => format!(
            "quiesce-end      p{} after {}us ({})",
            e.a,
            e.b,
            if e.c == 1 { "quiesced" } else { "timed out" }
        ),
        EventKind::ConfigSwitch => {
            format!("config-switch    p{} -> {}", e.a, codes::outcome_name(e.b))
        }
        EventKind::OrecResize => format!(
            "orec-resize      p{} -> {} (orecs={})",
            e.a,
            codes::outcome_name(e.b),
            e.c
        ),
        EventKind::Repartition => format!(
            "repartition      -> p{} {} (moved={})",
            e.a,
            codes::outcome_name(e.b),
            e.c
        ),
        EventKind::Privatize => {
            format!("privatize        p{} -> {}", e.a, codes::outcome_name(e.b))
        }
        EventKind::Republish => format!("republish        p{} (held {}us)", e.a, e.b),
        EventKind::TunerWindowReset => format!("tuner-reset      p{}", e.a),
        EventKind::CtrlProposal => format!(
            "ctrl-proposal    {} p{} score={:.3} streak={}",
            codes::action_name(e.b & 0xFF),
            e.a,
            f64::from_bits(e.c),
            (e.b >> 8) & 0xFF
        ),
        EventKind::CtrlAction => format!(
            "ctrl-action      {} p{} -> {} (moved={})",
            codes::action_name(e.b & 0xFF),
            e.a,
            codes::outcome_name(e.c),
            e.b >> 8
        ),
        EventKind::TxBegin => format!("tx-begin         lane{} serial={}", e.a, e.b),
        EventKind::TxValidate => format!("tx-validate      lane{} reads={}", e.a, e.b),
        EventKind::TxCommit => format!("tx-commit        lane{} {}ns reads={}", e.a, e.b, e.c),
        EventKind::TxAbort => format!(
            "tx-abort         lane{} {} (attempt {})",
            e.a,
            codes::abort_name(e.b),
            e.c
        ),
        EventKind::StuckSlot => {
            format!("stuck-slot       p{} slot{} (held locks={})", e.a, e.b, e.c)
        }
        EventKind::KillRescue => format!(
            "kill-rescue      p{} killed {} slot(s) after {}us",
            e.a, e.b, e.c
        ),
        EventKind::CtrlBreaker => format!(
            "ctrl-breaker     p{} {} (consecutive timeouts={})",
            e.a,
            if e.b == 1 { "OPEN" } else { "closed" },
            e.c
        ),
    }
}

/// One seqlocked slot: odd `seq` means a write is in progress.
#[derive(Debug, Default)]
struct Slot {
    seq: AtomicU64,
    micros: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
}

/// A bounded lock-free ring of [`Event`]s that overwrites its oldest
/// entries. See the module docs for the producer/reader protocol.
#[derive(Debug)]
pub struct EventRing {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl EventRing {
    /// Creates a ring holding the newest `capacity` events (rounded up to
    /// a power of two, minimum 2).
    pub fn new(capacity: usize) -> EventRing {
        let n = capacity.next_power_of_two().max(2);
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, Slot::default);
        EventRing {
            head: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records an event, overwriting the oldest entry once full.
    pub fn record(&self, ev: Event) {
        let i = self.head.fetch_add(1, Ordering::Relaxed) as usize;
        let slot = &self.slots[i & (self.slots.len() - 1)];
        // Enter the write: odd sequence tells readers to discard. AcqRel
        // keeps the payload stores below from floating above the marker.
        slot.seq.fetch_add(1, Ordering::AcqRel);
        slot.micros.store(ev.micros, Ordering::Relaxed);
        slot.kind.store(ev.kind as u64, Ordering::Relaxed);
        slot.a.store(ev.a, Ordering::Relaxed);
        slot.b.store(ev.b, Ordering::Relaxed);
        slot.c.store(ev.c, Ordering::Relaxed);
        // Exit: even again; Release publishes the payload with it.
        slot.seq.fetch_add(1, Ordering::Release);
    }

    /// Best-effort snapshot of the current contents, unordered. Slots
    /// observed mid-write are skipped; producers are never blocked.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s0 = slot.seq.load(Ordering::Acquire);
            if s0 % 2 != 0 {
                continue;
            }
            let ev = Event {
                micros: slot.micros.load(Ordering::Relaxed),
                kind: EventKind::from_u16(slot.kind.load(Ordering::Relaxed) as u16),
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
                c: slot.c.load(Ordering::Relaxed),
            };
            // The fence orders the payload loads above before the
            // re-check: an unchanged sequence proves no writer touched
            // the slot while we read it.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s0 || ev.kind == EventKind::None {
                continue;
            }
            out.push(ev);
        }
        out
    }
}

/// Default number of per-thread lanes.
pub(crate) const DEFAULT_LANES: usize = 64;
/// Default per-lane capacity (events).
pub(crate) const DEFAULT_LANE_CAP: usize = 128;
/// Default control-ring capacity (events).
pub(crate) const DEFAULT_CONTROL_CAP: usize = 1024;

/// The process flight recorder: per-thread lanes for sampled transaction
/// lifecycle events plus a shared control ring for control-plane events.
/// With the default shape (64 lanes × 128 events + 1024 control events)
/// it costs ~440 KiB, allocated once.
#[derive(Debug)]
pub struct FlightRecorder {
    lanes: Box<[EventRing]>,
    control: EventRing,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_LANES, DEFAULT_LANE_CAP, DEFAULT_CONTROL_CAP)
    }
}

impl FlightRecorder {
    /// Creates a recorder with `lanes` per-thread rings of `lane_cap`
    /// events each and a control ring of `control_cap` events.
    pub fn new(lanes: usize, lane_cap: usize, control_cap: usize) -> FlightRecorder {
        let mut v = Vec::with_capacity(lanes.max(1));
        v.resize_with(lanes.max(1), || EventRing::new(lane_cap));
        FlightRecorder {
            lanes: v.into_boxed_slice(),
            control: EventRing::new(control_cap),
        }
    }

    /// Records a thread-local event on `lane` (callers pass their thread
    /// slot index; lanes wrap, so any index is valid).
    #[inline]
    pub fn record(&self, lane: usize, ev: Event) {
        self.lanes[lane % self.lanes.len()].record(ev);
    }

    /// Records a control-plane event on the shared control ring.
    #[inline]
    pub fn record_control(&self, ev: Event) {
        self.control.record(ev);
    }

    /// Total events ever recorded across all rings.
    pub fn recorded(&self) -> u64 {
        self.lanes.iter().map(EventRing::recorded).sum::<u64>() + self.control.recorded()
    }

    /// Merged best-effort snapshot of every ring, sorted by timestamp.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = self.control.snapshot();
        for lane in self.lanes.iter() {
            out.extend(lane.snapshot());
        }
        out.sort_by_key(|e| e.micros);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite coverage: wraparound keeps exactly the newest events.
    #[test]
    fn wraparound_keeps_newest_events() {
        let ring = EventRing::new(8);
        for i in 0..100u64 {
            ring.record(Event::at(i, EventKind::TxCommit, i, 0, 0));
        }
        assert_eq!(ring.recorded(), 100);
        let mut snap = ring.snapshot();
        snap.sort_by_key(|e| e.micros);
        assert_eq!(snap.len(), 8);
        let got: Vec<u64> = snap.iter().map(|e| e.a).collect();
        assert_eq!(got, (92..100).collect::<Vec<u64>>());
    }

    #[test]
    fn capacity_rounds_up_and_empty_ring_snapshots_empty() {
        let ring = EventRing::new(5);
        assert_eq!(ring.capacity(), 8);
        assert!(ring.snapshot().is_empty(), "None slots are skipped");
    }

    #[test]
    fn concurrent_producers_never_tear_payloads() {
        // Each producer writes events whose three payload words encode the
        // same value; a torn slot would decode inconsistently.
        let ring = std::sync::Arc::new(EventRing::new(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = std::sync::Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        let v = t * 1_000_000 + i;
                        ring.record(Event::at(v, EventKind::TxCommit, v, v ^ !0, v << 1));
                    }
                });
            }
        });
        for e in ring.snapshot() {
            assert_eq!(e.b, e.a ^ !0, "torn slot survived the seqlock");
            assert_eq!(e.c, e.a << 1, "torn slot survived the seqlock");
        }
    }

    #[test]
    fn recorder_merges_lanes_and_control_sorted() {
        let r = FlightRecorder::new(2, 4, 4);
        r.record(0, Event::at(30, EventKind::TxCommit, 0, 0, 0));
        r.record(1, Event::at(10, EventKind::TxAbort, 1, 0, 0));
        r.record_control(Event::at(20, EventKind::QuiesceBegin, 7, 0, 0));
        let snap = r.snapshot();
        let stamps: Vec<u64> = snap.iter().map(|e| e.micros).collect();
        assert_eq!(stamps, vec![10, 20, 30]);
        assert_eq!(r.recorded(), 3);
        assert!(snap[1].kind.is_control_plane());
        assert!(!snap[0].kind.is_control_plane());
    }

    #[test]
    fn render_is_stable_for_every_kind() {
        let score = 1.5f64.to_bits();
        let cases = [
            (EventKind::QuiesceEnd, 3, 42, 1, "quiesce-end"),
            (EventKind::ConfigSwitch, 1, 0, 0, "switched"),
            (EventKind::CtrlProposal, 2, 2 << 8, score, "score=1.500"),
            (EventKind::CtrlAction, 2, 17 << 8, 0, "moved=17"),
            (
                EventKind::TxAbort,
                0,
                crate::codes::ABORT_VALIDATION,
                2,
                "validation",
            ),
            (EventKind::StuckSlot, 4, 9, 3, "held locks=3"),
            (EventKind::KillRescue, 4, 2, 150, "killed 2 slot(s)"),
            (EventKind::CtrlBreaker, 6, 1, 3, "OPEN"),
        ];
        for (kind, a, b, c, needle) in cases {
            let line = render_event(&Event::at(5, kind, a, b, c));
            assert!(line.contains(needle), "{line:?} lacks {needle:?}");
        }
    }
}
