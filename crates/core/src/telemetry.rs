//! The runtime's telemetry singleton: one process-wide flight recorder
//! plus the six histograms the engine records into, and the one exporter,
//! [`prometheus_text`], which renders an [`Stm`]'s per-partition counters
//! (the [`StatCounters`] fields, counted whether telemetry is on or off)
//! beside those histograms.
//!
//! Telemetry is always compiled in and toggled at runtime
//! ([`set_enabled`]); disabled, the hot path pays exactly one relaxed
//! load and a predictable branch per transaction begin. Enabled,
//! transaction lifecycle recording is still 1-in-N sampled
//! ([`set_tx_sample_period`], default every 64th transaction per thread)
//! so the `Instant` reads and ring writes stay off the common path, while
//! control-plane events (quiesce windows, splits, resizes,
//! privatize/republish, controller decisions) are recorded
//! unconditionally — they are rare by construction.
//!
//! The building blocks live in the dependency-free `partstm-obs` crate,
//! re-exported here so downstream crates (the repartition controller, the
//! bench harness) reach everything through `partstm_core::telemetry`
//! without a new dependency edge.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

pub use partstm_obs::{
    codes, now_micros, render_event, Event, EventKind, EventRing, FlightRecorder, HistSnapshot,
    Histogram,
};

use crate::stats::StatCounters;
use crate::stm::Stm;

/// The process flight recorder and the engine's histograms.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// The process flight recorder (per-thread lanes + control ring).
    pub recorder: FlightRecorder,
    /// Sampled begin→commit latency of committed transactions, ns.
    pub commit_latency_ns: Histogram,
    /// Sampled abort-to-retry contention-manager backoff, ns.
    pub backoff_ns: Histogram,
    /// Flag→quiesce drain duration of every structural window, µs.
    pub quiesce_us: Histogram,
    /// Sampled commit-time validation pass length (read-set entries).
    pub validate_len: Histogram,
    /// Version-ring slots scanned per snapshot history lookup.
    pub snapshot_scan_depth: Histogram,
    /// Privatize→republish hold duration, µs.
    pub privatize_hold_us: Histogram,
}

impl Telemetry {
    /// Every histogram beside its exported name, in export order: the one
    /// place those names live.
    pub fn histograms(&self) -> [(&'static str, &Histogram); 6] {
        [
            ("commit_latency_ns", &self.commit_latency_ns),
            ("backoff_ns", &self.backoff_ns),
            ("quiesce_us", &self.quiesce_us),
            ("validate_len", &self.validate_len),
            ("snapshot_scan_depth", &self.snapshot_scan_depth),
            ("privatize_hold_us", &self.privatize_hold_us),
        ]
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static TX_SAMPLE_PERIOD: AtomicU64 = AtomicU64::new(64);

/// The process-wide telemetry instance (created on first use).
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::default)
}

/// Renders `stm`'s counters and the process-wide histograms in Prometheus
/// text exposition format: for every [`StatCounters`] field one `counter`
/// family with one series per partition, labelled
/// `{partition="<id>",name="<name>"}`; then the histograms of
/// [`Telemetry::histograms`], unlabelled.
pub fn prometheus_text(stm: &Stm) -> String {
    let parts = stm.partitions();
    let ids: Vec<String> = parts.iter().map(|p| p.id().0.to_string()).collect();
    let values: Vec<Vec<u64>> = parts
        .iter()
        .map(|p| p.stats().fields().map(|(_, v)| v).collect())
        .collect();
    let mut out = String::new();
    for (i, (name, _)) in StatCounters::default().fields().enumerate() {
        let series = parts
            .iter()
            .zip(&ids)
            .zip(&values)
            .map(|((p, id), v)| ([("partition", id.as_str()), ("name", p.name())], v[i]));
        partstm_obs::write_counter(&mut out, name, series);
    }
    for (name, h) in global().histograms() {
        partstm_obs::write_hist(&mut out, name, &h.snapshot());
    }
    out
}

/// Turns recording on or off process-wide. Off (the default), every
/// instrumentation site short-circuits on one relaxed load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is on.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the transaction-lifecycle sampling period: every `period`-th
/// transaction per thread records its begin/validate/commit/abort events
/// and latency histograms. 0 disables lifecycle sampling entirely
/// (control-plane recording is unaffected).
pub fn set_tx_sample_period(period: u64) {
    TX_SAMPLE_PERIOD.store(period, Ordering::Relaxed);
}

/// Current lifecycle sampling period (see [`set_tx_sample_period`]).
#[inline(always)]
pub fn tx_sample_period() -> u64 {
    TX_SAMPLE_PERIOD.load(Ordering::Relaxed)
}

/// Maps a [`SwitchOutcome`](crate::stm::SwitchOutcome) to its event
/// payload code (see [`codes`]).
pub fn outcome_code(o: crate::stm::SwitchOutcome) -> u64 {
    match o {
        crate::stm::SwitchOutcome::Switched => codes::OUTCOME_SWITCHED,
        crate::stm::SwitchOutcome::Unchanged => codes::OUTCOME_UNCHANGED,
        crate::stm::SwitchOutcome::Contended => codes::OUTCOME_CONTENDED,
        crate::stm::SwitchOutcome::TimedOut => codes::OUTCOME_TIMED_OUT,
    }
}

/// Records a control-plane event on the shared control ring, if enabled.
/// Public so sibling crates (e.g. the repartition controller) can emit
/// their decisions into the same timeline.
#[inline]
pub fn control_event(kind: EventKind, a: u64, b: u64, c: u64) {
    if enabled() {
        global().recorder.record_control(Event::now(kind, a, b, c));
    }
}

/// Records a per-thread lifecycle event on `lane`, if enabled. Callers
/// are expected to have made the sampling decision already.
#[inline]
pub(crate) fn lane_event(lane: usize, kind: EventKind, a: u64, b: u64, c: u64) {
    if enabled() {
        global().recorder.record(lane, Event::now(kind, a, b, c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_no_op() {
        // Other tests may have toggled the global flag; force a known
        // state, record, and restore.
        let was = enabled();
        set_enabled(false);
        let before = global().recorder.recorded();
        control_event(EventKind::QuiesceBegin, 1, 0, 0);
        assert_eq!(global().recorder.recorded(), before);
        set_enabled(true);
        control_event(EventKind::QuiesceBegin, 1, 0, 0);
        assert_eq!(global().recorder.recorded(), before + 1);
        set_enabled(was);
    }

    #[test]
    fn prometheus_text_exports_every_counter_per_partition() {
        use crate::config::PartitionConfig;
        let stm = Stm::new();
        let a = stm.new_partition(PartitionConfig::named("a\"b\\c"));
        let b = stm.new_partition(PartitionConfig::named("plain"));
        let (x, y) = (a.tvar(0u64), b.tvar(0u64));
        let ctx = stm.register_thread();
        for _ in 0..3 {
            ctx.run(|tx| {
                tx.modify(&x, |v| v + 1)?;
                tx.modify(&y, |v| v + 2).map(|_| ())
            });
        }
        ctx.run(|tx| tx.read(&y).map(|_| ()));
        assert!(stm.resize_orecs(&b, 4096).switched());

        let text = prometheus_text(&stm);
        for (name, _) in StatCounters::default().fields() {
            let m = format!("partstm_{name}");
            let decl = format!("# TYPE {m} counter\n");
            assert_eq!(text.matches(&decl).count(), 1, "{text}");
            // Partition names are user input: `"` and `\` are escaped.
            for (p, label) in [(&a, "a\\\"b\\\\c"), (&b, "plain")] {
                let (_, want) = p.stats().fields().find(|(n, _)| *n == name).unwrap();
                let series = format!("{m}{{partition=\"{}\",name=\"{label}\"}} ", p.id().0);
                let lines: Vec<&str> = text.lines().filter(|l| l.starts_with(&series)).collect();
                assert_eq!(lines, [format!("{series}{want}")], "{text}");
            }
        }
        assert_eq!(a.stats().commits, 3);
        assert_eq!(b.stats().orec_resizes, 1);
        for (name, _) in global().histograms() {
            assert!(text.contains(&format!("# TYPE partstm_{name} histogram\n")));
        }
    }
}
