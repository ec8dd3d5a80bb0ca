//! What the five workloads share: run configuration and length scaling,
//! set-up timing, the replay check, and turning logs and counters into
//! named metrics.

use std::time::Instant;

use partstm_core::{StatCounters, Stm};

use crate::harness::{CtlKind, CtlOutcome, CtlRec, Kind, Plan, Variant, VariantLog, TRACE_EVERY};
use crate::metrics::Values;
use crate::ops::Model;
use crate::stats::{
    median, percentile, pooled_percentile, second_best, window_kops, window_percentiles,
};
use crate::trace::{self, ctl_percentile_us};

/// Operations per worker tape (replayed cyclically).
pub const TAPE_LEN: usize = 1 << 18;
/// Operations of the single-thread replay against the reference model.
pub const REPLAY_OPS: usize = 10_000;
/// Build-and-prefill cycles `setup_s` is the median of.
pub const SETUP_CYCLES: usize = 9;
/// Seconds of building one set-up cycle times.
pub const SETUP_CYCLE_SECS: f64 = 0.05;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: &'static str,
    pub seed: u64,
    /// Measured seconds, split among the workload's variants.
    pub seconds: f64,
    /// Measured seconds at `--scale 1`.
    pub default_seconds: f64,
    /// `min(nproc, 4)`.
    pub threads: usize,
    pub trace: bool,
}

impl RunCfg {
    /// The common factor every length of the workload is scaled by.
    pub fn scale(&self) -> f64 {
        self.seconds / self.default_seconds
    }

    /// Window length: one second at `--scale 1`.
    pub fn window(&self) -> f64 {
        self.scale()
    }

    /// A warm-up-only segment of `secs` seconds at `--scale 1`.
    pub fn warmup_plan(&self, secs: f64) -> Plan {
        Plan {
            warmup: (secs * self.scale()).max(0.05),
            window: self.window(),
            windows: 0,
            traced: false,
        }
    }

    pub fn plan(&self, windows: usize, traced: bool) -> Plan {
        Plan {
            warmup: 0.0,
            window: self.window(),
            windows,
            traced,
        }
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle violations, in words. Empty on a correct run.
    pub violations: Vec<String>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
    /// The per-window series behind the end-to-end metrics, for the
    /// `--out` file.
    pub windows: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// Records the verdict of an end-of-run oracle.
    pub fn oracle(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            self.violations.push(format!("{what}: {e}"));
        }
    }

    pub fn count(&mut self, log: &VariantLog) {
        self.attempted += log.attempted;
        self.failed += log.failed;
        if log.failed > 0 {
            self.violations.push(format!(
                "{} operations contradicted their oracle",
                log.failed
            ));
        }
    }
}

/// `Ok` when `cond` holds, otherwise the violation `what` describes.
pub fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// Times `build` — allocation, prefill and the registration of `threads`
/// threads — over [`SETUP_CYCLES`] cycles and returns the median seconds
/// per build and the last instance built. A cycle repeats the build until
/// it has timed [`SETUP_CYCLE_SECS`] of building (a bank builds in well
/// under a millisecond; one build would time the allocator's mood).
pub fn time_setup<T>(threads: usize, build: impl Fn() -> (Stm, T)) -> (f64, T) {
    let timed = || {
        let t0 = Instant::now();
        let (stm, inst) = build();
        let ctxs: Vec<_> = (0..threads).map(|_| stm.register_thread()).collect();
        let secs = t0.elapsed().as_secs_f64();
        drop(ctxs);
        (secs, inst)
    };
    // The first build sizes the cycles and is not counted.
    let (first, mut last) = timed();
    let reps = (SETUP_CYCLE_SECS / first.max(1e-6))
        .ceil()
        .clamp(1.0, 1000.0) as usize;
    let mut per_build = Vec::with_capacity(SETUP_CYCLES);
    for _ in 0..SETUP_CYCLES {
        let mut total = 0.0;
        for _ in 0..reps {
            drop(last);
            let (secs, inst) = timed();
            total += secs;
            last = inst;
        }
        per_build.push(total / reps as f64);
    }
    (median(&per_build), last)
}

/// Replays `ops` on one thread through `variant` and through `model`:
/// every operation must return what the model returns.
pub fn replay_check<V, M>(variant: &V, model: &mut M, ops: &[V::Op]) -> Result<(), String>
where
    V: Variant,
    M: Model<Op = V::Op>,
    V::Op: std::fmt::Debug,
{
    let mut w = variant.worker();
    for (i, op) in ops.iter().enumerate() {
        let got = variant.exec(&mut w, op, &mut crate::harness::NoRec);
        let want = model.apply(op);
        if got != want {
            return Err(format!(
                "replay op {i} {op:?}: got {got:?}, model says {want:?}"
            ));
        }
    }
    variant.retire(w);
    Ok(())
}

/// Sum of the cumulative counters of every partition of `stm`.
pub fn counters(stm: &Stm) -> StatCounters {
    stm.partitions()
        .iter()
        .fold(StatCounters::default(), |acc, p| acc.add(&p.stats()))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Group C: `StatCounters` deltas over the measured interval.
pub fn counter_metrics(d: &StatCounters, out: &mut Values) {
    let aborts = d.aborts();
    out.set(
        "txn.attempts_per_commit",
        ratio(d.commits + aborts, d.commits),
    );
    out.set("txn.abort_ratio", ratio(aborts, d.commits + aborts));
    out.set("txn.aborts_wlock_share", ratio(d.aborts_wlock, aborts));
    out.set("txn.aborts_rlock_share", ratio(d.aborts_rlock, aborts));
    out.set(
        "txn.aborts_validation_share",
        ratio(d.aborts_validation, aborts),
    );
    out.set(
        "txn.aborts_switching_share",
        ratio(d.aborts_switching, aborts),
    );
    out.set("txn.aborts_killed_share", ratio(d.aborts_killed, aborts));
    out.set(
        "txn.extensions_per_kcommit",
        1e3 * ratio(d.extensions, d.commits),
    );
    out.set("orec.aliased_share", d.aliased_share());
    out.set(
        "snapshot.history_read_share",
        ratio(d.snapshot_history_reads, d.snapshot_reads),
    );
    out.set(
        "snapshot.restarts_per_kcommit",
        1e3 * ratio(d.snapshot_restarts, d.snapshot_commits),
    );
    out.set(
        "snapshot.ring_overflow_per_kcommit",
        1e3 * ratio(d.ring_overflow_pushes, d.update_commits),
    );
    out.set(
        "privatize.collisions_per_action",
        ratio(d.privatized_collisions, d.privatizations),
    );
}

/// Throughput in thousands of operations per second: that of the
/// second-best window (see [`second_best`]).
pub fn kops(log: &VariantLog) -> f64 {
    second_best(&window_kops(&log.window_ops, log.window_secs), true)
}

/// The window series of a variant, for the human-readable report.
pub fn series(name: &str, log: &VariantLog) -> String {
    let kops: Vec<String> = window_kops(&log.window_ops, log.window_secs)
        .iter()
        .map(|k| format!("{k:.0}"))
        .collect();
    format!("{name} windows (kops/s): {}", kops.join(" "))
}

/// The throughput and latency metrics of the main variant: each is the
/// second-best window's value (see [`second_best`]). (The p99s are listed
/// under `per_layer`: they do not repeat within a bound, see README.md.)
pub fn end_to_end_metrics(log: &VariantLog, out: &mut Outcome) {
    out.values.set("commit_kops", kops(log));
    out.windows
        .push(("commit_kops", window_kops(&log.window_ops, log.window_secs)));
    for (kind, metrics) in [
        (
            None,
            &[
                ("op_p50_us", 50.0),
                ("op_p95_us", 95.0),
                ("op_p99_us", 99.0),
            ][..],
        ),
        (
            Some(Kind::Scan),
            &[("scan_p50_us", 50.0), ("scan_p99_us", 99.0)],
        ),
        (
            Some(Kind::Update),
            &[("update_p50_us", 50.0), ("update_p99_us", 99.0)],
        ),
    ] {
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); log.window_ops.len()];
        for s in &log.samples {
            if kind.is_none_or(|k| k == s.kind) {
                groups[s.window as usize].push(s.ns);
            }
        }
        for &(name, p) in metrics {
            let per_window: Vec<f64> = window_percentiles(&mut groups, p)
                .iter()
                .map(|ns| ns / 1e3)
                .collect();
            // A run too short for per-window percentiles pools its samples.
            let value = if per_window.len() * 2 >= groups.len().max(1) {
                second_best(&per_window, false)
            } else {
                pooled_percentile(&groups, p) / 1e3
            };
            out.values.set(name, value);
            out.windows.push((name, per_window));
        }
    }
}

/// Counts control calls that did not complete as failed operations.
pub fn count_ctl(ctl: &[CtlRec], out: &mut Outcome) {
    out.attempted += ctl.len() as u64;
    let bad = ctl.iter().filter(|c| c.outcome != CtlOutcome::Done).count();
    if bad > 0 {
        out.failed += bad as u64;
        out.violations.push(format!(
            "{bad} control-plane calls were contended or timed out"
        ));
    }
}

/// Group S: what the spans of a traced main-variant pass say.
/// `untraced_kops` is the throughput of the same variant's end-to-end
/// pass: the difference is the tracing overhead.
pub fn span_metrics(traced: &VariantLog, untraced_kops: f64, threads: usize, out: &mut Outcome) {
    let st = trace::analyse(&traced.spans, &traced.ctl);
    let v = &mut out.values;
    v.set(
        "txn.wasted_time_share",
        ratio(st.wasted_attempt_ns, st.op_ns),
    );
    v.set(
        "txn.outside_closure_p50_ns",
        percentile(&st.outside_closure, 50.0),
    );
    v.set("cm.retry_gap_p50_ns", percentile(&st.retry_gaps, 50.0));
    v.set("cm.retry_gap_p99_ns", percentile(&st.retry_gaps, 99.0));
    let inside = percentile(&st.caused_ops, 99.0);
    let outside = percentile(&st.free_ops, 99.0);
    v.set(
        "stm.fg_stall_ratio",
        if inside > 0.0 && outside > 0.0 {
            inside / outside
        } else {
            0.0
        },
    );
    let traced_kops = kops(traced);
    v.set(
        "trace.overhead_share",
        if untraced_kops > 0.0 {
            1.0 - traced_kops / untraced_kops
        } else {
            0.0
        },
    );

    let ctl = &traced.ctl;
    let whole = |c: &CtlRec| c.dur_ns;
    v.set(
        "stm.switch_p50_us",
        ctl_percentile_us(ctl, Some(CtlKind::SwitchConfig), whole, 50.0),
    );
    v.set(
        "stm.switch_p99_us",
        ctl_percentile_us(ctl, Some(CtlKind::SwitchConfig), whole, 99.0),
    );
    v.set(
        "stm.resize_orecs_p50_us",
        ctl_percentile_us(ctl, Some(CtlKind::ResizeOrecs), whole, 50.0),
    );
    v.set(
        "repartition.migrate_p50_us",
        ctl_percentile_us(ctl, Some(CtlKind::Migrate), whole, 50.0),
    );
    v.set(
        "repartition.migrate_p99_us",
        ctl_percentile_us(ctl, Some(CtlKind::Migrate), whole, 99.0),
    );
    let (moved, migrate_ns) = ctl
        .iter()
        .filter(|c| c.kind == CtlKind::Migrate)
        .fold((0u64, 0u64), |(m, ns), c| {
            (m + c.moved as u64, ns + c.dur_ns)
        });
    v.set(
        "repartition.moved_vars_per_ms",
        if migrate_ns == 0 {
            0.0
        } else {
            moved as f64 / (migrate_ns as f64 / 1e6)
        },
    );
    v.set(
        "privatize.acquire_p50_us",
        ctl_percentile_us(ctl, Some(CtlKind::Privatize), |c| c.acquire_ns, 50.0),
    );
    v.set(
        "privatize.republish_p50_us",
        ctl_percentile_us(ctl, Some(CtlKind::Privatize), |c| c.republish_ns, 50.0),
    );
    let actions: Vec<&CtlRec> = ctl
        .iter()
        .filter(|c| c.kind != CtlKind::ControllerStep)
        .collect();
    let share = |o: CtlOutcome| {
        ratio(
            actions.iter().filter(|c| c.outcome == o).count() as u64,
            actions.len() as u64,
        )
    };
    v.set("ctl.contended_share", share(CtlOutcome::Contended));
    v.set("ctl.timed_out_share", share(CtlOutcome::TimedOut));
    v.set(
        "controller.step_p50_us",
        ctl_percentile_us(ctl, Some(CtlKind::ControllerStep), whole, 50.0),
    );
    v.set(
        "controller.step_p99_us",
        ctl_percentile_us(ctl, Some(CtlKind::ControllerStep), whole, 99.0),
    );
    let step_ns: u64 = ctl
        .iter()
        .filter(|c| c.kind == CtlKind::ControllerStep)
        .map(|c| c.dur_ns)
        .sum();
    v.set(
        "controller.busy_share",
        if traced.measured_secs > 0.0 {
            step_ns as f64 / 1e9 / traced.measured_secs
        } else {
            0.0
        },
    );

    // The stacked table: where the time of the sampled operations went.
    let per_op = |ns: u64| ns as f64 / st.ops.max(1) as f64;
    let untraced_op_ns = if untraced_kops > 0.0 {
        threads as f64 / (untraced_kops * 1e3) * 1e9
    } else {
        0.0
    };
    out.notes.push(format!(
        "traced pass: {} sampled ops (1 in {TRACE_EVERY}), {} control spans, mean op {:.0} ns \
         (untraced mean op {:.0} ns)",
        st.ops,
        ctl.len(),
        per_op(st.op_ns),
        untraced_op_ns
    ));
    for (row, ns) in [
        (
            "begin + commit (op self time less retry gaps)",
            st.begin_commit_ns,
        ),
        ("committed attempt (closure)", st.committed_attempt_ns),
        ("aborted attempts (closure, wasted)", st.wasted_attempt_ns),
        ("retry gaps (rollback + backoff + begin)", st.retry_gap_ns),
    ] {
        out.notes.push(format!(
            "  {row:<48} {:>9.1} ns/op {:>6.1}%",
            per_op(ns),
            100.0 * ratio(ns, st.op_ns)
        ));
    }
    out.notes.push(format!(
        "  stacked rows account for {:.1}% of the traced op time",
        100.0 * st.stack_coverage()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Sample;

    #[test]
    fn scaling_keeps_the_window_count() {
        let cfg = RunCfg {
            workload: "bank-uniform",
            seed: 1,
            seconds: 12.0,
            default_seconds: 24.0,
            threads: 2,
            trace: false,
        };
        assert_eq!(cfg.scale(), 0.5);
        let p = cfg.plan(12, false);
        assert_eq!((p.window, p.windows, p.warmup), (0.5, 12, 0.0));
        let w = cfg.warmup_plan(3.0);
        assert_eq!((w.warmup, w.windows), (1.5, 0));
    }

    #[test]
    fn counter_ratios_handle_idle_partitions() {
        let mut v = Values::default();
        counter_metrics(&StatCounters::default(), &mut v);
        assert_eq!(v.get("txn.abort_ratio"), 0.0);
        let d = StatCounters {
            commits: 900,
            update_commits: 500,
            aborts_wlock: 75,
            aborts_validation: 25,
            extensions: 9,
            conflicts_true: 1,
            conflicts_aliased: 3,
            ..Default::default()
        };
        counter_metrics(&d, &mut v);
        assert_eq!(v.get("txn.abort_ratio"), 0.1);
        assert_eq!(v.get("txn.aborts_wlock_share"), 0.75);
        assert_eq!(v.get("txn.extensions_per_kcommit"), 10.0);
        assert_eq!(v.get("orec.aliased_share"), 0.75);
        assert!((v.get("txn.attempts_per_commit") - 1000.0 / 900.0).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_metrics_split_by_kind() {
        let mut log = VariantLog {
            window_secs: 0.5,
            window_ops: vec![1000, 3000, 2000],
            ..Default::default()
        };
        for w in 0..3u16 {
            for i in 1..=40u32 {
                log.samples.push(Sample {
                    window: w,
                    kind: if i % 2 == 0 { Kind::Scan } else { Kind::Update },
                    ns: i * 1000 * (w as u32 + 1),
                });
            }
        }
        let mut out = Outcome::default();
        end_to_end_metrics(&log, &mut out);
        let v = &out.values;
        assert_eq!(out.windows[0], ("commit_kops", vec![2.0, 6.0, 4.0]));
        // The second-best window: second-highest throughput, and of the
        // window medians 20, 40, 60 µs the second-lowest.
        assert_eq!(v.get("commit_kops"), 4.0);
        assert_eq!(v.get("op_p50_us"), 40.0);
        assert_eq!(v.get("scan_p50_us"), 40.0);
        assert_eq!(v.get("update_p50_us"), 38.0);
    }

    #[test]
    fn outcome_counts_oracles_and_failed_control_calls() {
        let mut out = Outcome::default();
        out.oracle("conserved", Ok(()));
        assert!(out.correct());
        let bad = CtlRec {
            kind: CtlKind::Migrate,
            outcome: CtlOutcome::Contended,
            start_ns: 0,
            dur_ns: 1,
            moved: 0,
            acquire_ns: 0,
            republish_ns: 0,
        };
        count_ctl(&[bad], &mut out);
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert!(!out.correct());
        out.oracle("sizes", Err("off by one".into()));
        assert_eq!(out.violations.len(), 2);
    }
}
