//! The closed-loop driver every workload runs on.
//!
//! `threads` workers and *no other running thread*: the spawning thread
//! sleeps in the scope join, windows are cut by the workers themselves
//! from the timestamps of their latency samples, and control-plane work is
//! issued inline by worker 0 from [`Variant::tick`] at those same sample
//! points. An extra ticker thread on a full machine would measure the
//! scheduler, not the STM.
//!
//! Each worker replays an op tape generated before timing. One operation
//! in [`Plan::every`] is timed with `Instant` (call → committed return,
//! retries included); the rest run back to back with no clock read.

use std::sync::Barrier;
use std::time::Instant;

use partstm_core::{ReadTx, ThreadCtx, Tx, TxResult};

use crate::trace::{Span, SpanKind};

/// Latency sampling period of an end-to-end run.
pub const SAMPLE_EVERY: usize = 32;
/// Span sampling period of a traced run (one op in 8 records its spans:
/// buffers stay bounded at millions of operations per second).
pub const TRACE_EVERY: usize = 8;

/// The two operation kinds every workload has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The workload's read-only operation.
    Scan = 0,
    /// The workload's writing operation.
    Update = 1,
}

/// Result of one executed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Done {
    pub kind: Kind,
    /// `false` when the result contradicts the operation's oracle.
    pub ok: bool,
    /// What the operation returned (a sum, or 1/0 for a set operation):
    /// compared against the reference model in the replay check.
    pub value: i64,
}

/// Receives the attempt boundaries of a transaction. The untraced
/// implementation compiles to nothing.
pub trait Rec {
    fn attempt_begin(&mut self);
    fn attempt_end(&mut self);
}

pub struct NoRec;

impl Rec for NoRec {
    #[inline(always)]
    fn attempt_begin(&mut self) {}
    #[inline(always)]
    fn attempt_end(&mut self) {}
}

/// Records one span per attempt (closure entry → closure exit).
pub struct SpanRec<'a> {
    epoch: Instant,
    spans: &'a mut Vec<Span>,
    op: u32,
    entered: u64,
}

impl Rec for SpanRec<'_> {
    #[inline]
    fn attempt_begin(&mut self) {
        self.entered = self.epoch.elapsed().as_nanos() as u64;
    }
    #[inline]
    fn attempt_end(&mut self) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            start_ns: self.entered,
            dur_ns: (now - self.entered) as u32,
            kind: SpanKind::Attempt,
            arg: 0,
            op: self.op,
        });
    }
}

/// `ThreadCtx::run` with the attempt boundaries reported to `rec`.
#[inline(always)]
pub fn run_tx<'e, T, R: Rec>(
    ctx: &'e ThreadCtx,
    rec: &mut R,
    mut body: impl for<'s> FnMut(&mut Tx<'e, 's>) -> TxResult<T>,
) -> T {
    ctx.run(|tx| {
        rec.attempt_begin();
        let r = body(tx);
        rec.attempt_end();
        r
    })
}

/// `ThreadCtx::snapshot_read` with the attempt boundaries reported.
#[inline(always)]
pub fn snapshot_tx<'e, T, R: Rec>(
    ctx: &'e ThreadCtx,
    rec: &mut R,
    mut body: impl for<'s> FnMut(&mut ReadTx<'e, 's>) -> TxResult<T>,
) -> T {
    ctx.snapshot_read(|tx| {
        rec.attempt_begin();
        let r = body(tx);
        rec.attempt_end();
        r
    })
}

/// What a control-plane call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlKind {
    SwitchConfig,
    ResizeOrecs,
    Migrate,
    Privatize,
    ControllerStep,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlOutcome {
    Done,
    Contended,
    TimedOut,
}

/// One timed control-plane call, issued inline by worker 0.
#[derive(Debug, Clone, Copy)]
pub struct CtlRec {
    pub kind: CtlKind,
    pub outcome: CtlOutcome,
    /// When the call began: nanoseconds on the clock [`Variant::tick`] is
    /// handed, which [`drive`] rebases to the start of the measurement.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Variables rebound (migrations); events the step appended to the
    /// controller's log (controller steps); 0 otherwise.
    pub moved: u32,
    /// For [`CtlKind::Privatize`]: the acquire and republish parts of
    /// `dur_ns` (the rest is the guarded bulk read).
    pub acquire_ns: u64,
    pub republish_ns: u64,
}

/// One configuration of a workload's data (partitioned, single-table,
/// global lock, ...) that can execute the workload's op tape.
pub trait Variant: Sync {
    type Op: Copy + Send + Sync;
    /// Per-thread state: the registered `ThreadCtx`, tallies, the control
    /// schedule of worker 0.
    type Worker;

    /// Called on the worker's own thread.
    fn worker(&self) -> Self::Worker;

    fn exec<R: Rec>(&self, w: &mut Self::Worker, op: &Self::Op, rec: &mut R) -> Done;

    /// Called by worker 0 after each of its sampled operations, between
    /// transactions. `t` is seconds since measurement began (negative
    /// during warm-up); a call it times is logged with its start on the
    /// `epoch` clock.
    fn tick(&self, _w: &mut Self::Worker, _t: f64, _epoch: Instant, _log: &mut Vec<CtlRec>) {}

    /// Folds a finished worker's tallies into the variant.
    fn retire(&self, _w: Self::Worker) {}
}

/// The op tapes of one workload: one per worker, and optionally a second
/// set the workers switch to `shift_at` seconds into the measurement.
pub struct Tapes<Op> {
    pub pre: Vec<Vec<Op>>,
    pub post: Option<(f64, Vec<Vec<Op>>)>,
}

impl<Op> Tapes<Op> {
    pub fn plain(pre: Vec<Vec<Op>>) -> Self {
        Tapes { pre, post: None }
    }
}

/// Timing of one segment.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: f64,
    pub window: f64,
    pub windows: usize,
    /// `false`: an end-to-end run, latency sampled 1 in [`SAMPLE_EVERY`].
    /// `true`: spans are recorded too, 1 in [`TRACE_EVERY`] operations.
    pub traced: bool,
}

impl Plan {
    fn every(&self) -> usize {
        if self.traced {
            TRACE_EVERY
        } else {
            SAMPLE_EVERY
        }
    }
}

/// One latency sample: the window it fell in, the op kind, nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub window: u16,
    pub kind: Kind,
    pub ns: u32,
}

#[derive(Debug, Default)]
pub struct ThreadLog {
    /// Operations completed per measurement window.
    pub window_ops: Vec<u64>,
    pub samples: Vec<Sample>,
    /// Every executed operation, warm-up included (the end-of-run oracles
    /// cover warm-up operations too).
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

/// What one segment produced.
#[derive(Debug, Default)]
pub struct SegmentLog {
    pub window_secs: f64,
    pub threads: Vec<ThreadLog>,
    pub ctl: Vec<CtlRec>,
}

/// Runs one segment: `threads` workers replay their tapes through
/// `variant` for `plan.warmup + plan.windows × plan.window` seconds.
/// `cursors` carries each worker's tape position from segment to segment.
pub fn drive<V: Variant>(
    variant: &V,
    tapes: &Tapes<V::Op>,
    cursors: &mut [usize],
    plan: Plan,
) -> SegmentLog {
    let threads = cursors.len();
    assert!(tapes.pre.len() >= threads, "one tape per worker");
    let barrier = Barrier::new(threads);
    let mut out = SegmentLog {
        window_secs: plan.window,
        ..Default::default()
    };
    let results: Vec<(ThreadLog, Vec<CtlRec>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = cursors
            .iter()
            .enumerate()
            .map(|(tid, &cursor)| {
                let barrier = &barrier;
                s.spawn(move || worker_loop(variant, tapes, tid, cursor, plan, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    for (tid, (log, ctl, cursor)) in results.into_iter().enumerate() {
        cursors[tid] = cursor;
        out.threads.push(log);
        out.ctl.extend(ctl);
    }
    out
}

fn worker_loop<V: Variant>(
    variant: &V,
    tapes: &Tapes<V::Op>,
    tid: usize,
    mut cursor: usize,
    plan: Plan,
    barrier: &Barrier,
) -> (ThreadLog, Vec<CtlRec>, usize) {
    let every = plan.every();
    let mut w = variant.worker();
    let mut log = ThreadLog {
        window_ops: vec![0; plan.windows],
        ..Default::default()
    };
    // Sized before timing so no push reallocates inside a window (an
    // upper estimate: 4 M ops/s per worker).
    let secs = plan.warmup + plan.window * plan.windows as f64;
    let est = (secs * 4e6 / every as f64) as usize + 1024;
    log.samples.reserve(est);
    if plan.traced {
        log.spans.reserve(3 * est);
    }
    let mut ctl = Vec::with_capacity(4096);
    let mut tape: &[V::Op] = &tapes.pre[tid];
    let mut shift_ns = tapes.post.as_ref().map(|(at, _)| (*at * 1e9) as i64);
    cursor %= tape.len();
    let warmup_ns = (plan.warmup * 1e9) as i64;
    let window_ns = (plan.window * 1e9) as i64;
    let mut sampled_ops = 0u32;

    barrier.wait();
    // Every worker takes its own epoch right after the barrier; they
    // agree to within the barrier's wake-up skew (microseconds against
    // windows of hundreds of milliseconds).
    let epoch = Instant::now();
    'run: loop {
        for _ in 1..every {
            let done = variant.exec(&mut w, &tape[cursor], &mut NoRec);
            cursor += 1;
            if cursor == tape.len() {
                cursor = 0;
            }
            log.failed += !done.ok as u64;
        }
        let op = &tape[cursor];
        cursor += 1;
        if cursor == tape.len() {
            cursor = 0;
        }
        let t0 = epoch.elapsed().as_nanos() as u64;
        let first_attempt = log.spans.len();
        let done = if plan.traced {
            let mut rec = SpanRec {
                epoch,
                spans: &mut log.spans,
                op: sampled_ops,
                entered: 0,
            };
            variant.exec(&mut w, op, &mut rec)
        } else {
            variant.exec(&mut w, op, &mut NoRec)
        };
        let t1 = epoch.elapsed().as_nanos() as u64;
        log.failed += !done.ok as u64;
        log.attempted += every as u64;
        let dur = (t1 - t0).min(u32::MAX as u64) as u32;
        // Position on the measurement clock (negative during warm-up).
        let t = t1 as i64 - warmup_ns;
        if t >= 0 {
            let window = (t / window_ns) as usize;
            if window >= plan.windows {
                // The op that crossed the finish line is not recorded.
                log.spans.truncate(first_attempt);
                break 'run;
            }
            log.window_ops[window] += every as u64;
            log.samples.push(Sample {
                window: window as u16,
                kind: done.kind,
                ns: dur,
            });
            if plan.traced {
                log.spans.push(Span {
                    start_ns: t0,
                    dur_ns: dur,
                    kind: match done.kind {
                        Kind::Scan => SpanKind::ScanOp,
                        Kind::Update => SpanKind::UpdateOp,
                    },
                    arg: (log.spans.len() - first_attempt) as u32,
                    op: sampled_ops,
                });
                sampled_ops += 1;
            }
        } else {
            // Warm-up operations leave no spans.
            log.spans.truncate(first_attempt);
        }
        if tid == 0 {
            variant.tick(&mut w, t as f64 / 1e9, epoch, &mut ctl);
        }
        if let Some(at) = shift_ns {
            if t >= at {
                tape = &tapes.post.as_ref().expect("shift implies a post tape").1[tid];
                cursor %= tape.len();
                shift_ns = None;
            }
        }
    }
    variant.retire(w);
    // Rebase to the measurement clock; control calls made during warm-up
    // are not part of the measurement.
    let warm = warmup_ns as u64;
    ctl.retain(|c: &CtlRec| c.start_ns >= warm);
    for c in &mut ctl {
        c.start_ns -= warm;
    }
    for s in &mut log.spans {
        s.start_ns = s.start_ns.saturating_sub(warm);
    }
    (log, ctl, cursor)
}

/// All segments one variant ran, concatenated window after window.
#[derive(Debug, Default)]
pub struct VariantLog {
    pub window_secs: f64,
    /// Operations per window, summed over workers.
    pub window_ops: Vec<u64>,
    /// Latency samples; `window` indexes `window_ops`.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub ctl: Vec<CtlRec>,
    /// Per worker (traced runs): spans in recording order. Span times of
    /// later segments are offset so they follow the earlier ones.
    pub spans: Vec<Vec<Span>>,
    pub measured_secs: f64,
}

impl VariantLog {
    pub fn absorb(&mut self, seg: SegmentLog) {
        let base = self.window_ops.len();
        let windows = seg.threads.first().map_or(0, |t| t.window_ops.len());
        let seg_secs = seg.window_secs * windows as f64;
        // Later segments are laid end to end on the span clock.
        let offset = (self.measured_secs * 1e9) as u64;
        self.window_secs = seg.window_secs;
        self.window_ops.resize(base + windows, 0);
        if self.spans.len() < seg.threads.len() {
            self.spans.resize_with(seg.threads.len(), Vec::new);
        }
        for (tid, t) in seg.threads.into_iter().enumerate() {
            for (w, n) in t.window_ops.iter().enumerate() {
                self.window_ops[base + w] += n;
            }
            self.samples.extend(t.samples.into_iter().map(|s| Sample {
                window: s.window + base as u16,
                ..s
            }));
            self.attempted += t.attempted;
            self.failed += t.failed;
            self.spans[tid].extend(t.spans.into_iter().map(|s| Span {
                start_ns: s.start_ns + offset,
                ..s
            }));
        }
        self.ctl.extend(seg.ctl.into_iter().map(|c| CtlRec {
            start_ns: c.start_ns + offset,
            ..c
        }));
        self.measured_secs += seg_secs;
    }

    /// The last `n` windows as a log of their own (throughput and latency
    /// samples; spans and control calls stay with the whole run).
    pub fn tail(&self, n: usize) -> VariantLog {
        let skip = self.window_ops.len().saturating_sub(n);
        VariantLog {
            window_secs: self.window_secs,
            window_ops: self.window_ops[skip..].to_vec(),
            samples: self
                .samples
                .iter()
                .filter(|s| s.window as usize >= skip)
                .map(|s| Sample {
                    window: s.window - skip as u16,
                    ..*s
                })
                .collect(),
            measured_secs: self.window_secs * (self.window_ops.len() - skip) as f64,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A variant that counts: every op adds its value to a shared sum.
    struct Counter {
        sum: AtomicU64,
        ticks: AtomicU64,
    }

    impl Variant for Counter {
        type Op = u64;
        type Worker = u64;
        fn worker(&self) -> u64 {
            0
        }
        fn exec<R: Rec>(&self, w: &mut u64, op: &u64, rec: &mut R) -> Done {
            rec.attempt_begin();
            *w += *op;
            rec.attempt_end();
            Done {
                kind: if op.is_multiple_of(2) {
                    Kind::Scan
                } else {
                    Kind::Update
                },
                ok: *op != 13,
                value: *op as i64,
            }
        }
        fn tick(&self, _w: &mut u64, t: f64, epoch: Instant, log: &mut Vec<CtlRec>) {
            self.ticks.fetch_add(1, Ordering::Relaxed);
            if log.is_empty() && t >= 0.0 {
                log.push(CtlRec {
                    kind: CtlKind::ControllerStep,
                    outcome: CtlOutcome::Done,
                    start_ns: epoch.elapsed().as_nanos() as u64,
                    dur_ns: 1,
                    moved: 0,
                    acquire_ns: 0,
                    republish_ns: 0,
                });
            }
        }
        fn retire(&self, w: u64) {
            self.sum.fetch_add(w, Ordering::Relaxed);
        }
    }

    fn plan(traced: bool) -> Plan {
        Plan {
            warmup: 0.02,
            window: 0.02,
            windows: 3,
            traced,
        }
    }

    #[test]
    fn drive_counts_windows_samples_and_failures() {
        let v = Counter {
            sum: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
        };
        let tapes = Tapes::plain(vec![vec![1, 2, 3], vec![13]]);
        let mut cursors = [0usize; 2];
        let seg = drive(&v, &tapes, &mut cursors, plan(false));
        assert_eq!(seg.threads.len(), 2);
        for t in &seg.threads {
            assert_eq!(t.window_ops.len(), 3);
            assert!(t.window_ops.iter().sum::<u64>() > 0);
            assert_eq!(t.attempted % SAMPLE_EVERY as u64, 0);
            assert_eq!(
                t.samples.len() as u64 * SAMPLE_EVERY as u64,
                t.window_ops.iter().sum::<u64>()
            );
            assert!(t.spans.is_empty());
        }
        // Worker 1's every op fails its oracle; worker 0's never do.
        assert_eq!(seg.threads[0].failed, 0);
        assert!(seg.threads[1].failed >= seg.threads[1].attempted);
        assert!(v.ticks.load(Ordering::Relaxed) > 0);
        assert_eq!(seg.ctl.len(), 1, "only worker 0 ticks");
        assert!(v.sum.load(Ordering::Relaxed) > 0, "workers were retired");
        assert!(cursors[0] < 3 && cursors[1] == 0);
    }

    #[test]
    fn traced_segments_record_op_and_attempt_spans_and_concatenate() {
        let v = Counter {
            sum: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
        };
        let tapes = Tapes::plain(vec![vec![2, 4]]);
        let mut cursors = [0usize; 1];
        let mut all = VariantLog::default();
        for _ in 0..2 {
            all.absorb(drive(&v, &tapes, &mut cursors, plan(true)));
        }
        assert_eq!(all.window_ops.len(), 6);
        assert!((all.measured_secs - 0.12).abs() < 1e-9);
        let spans = &all.spans[0];
        let ops = spans.iter().filter(|s| s.kind == SpanKind::ScanOp).count();
        let attempts = spans.iter().filter(|s| s.kind == SpanKind::Attempt).count();
        assert!(ops > 0);
        assert_eq!(ops, attempts, "one attempt per op, warm-up spans dropped");
        assert_eq!(ops, all.samples.len());
        // The second segment's spans follow the first's on the clock.
        assert!(spans.last().is_some_and(|s| s.start_ns >= 60_000_000));
        assert!(all.samples.iter().any(|s| s.window >= 3));
    }

    #[test]
    fn tail_keeps_the_last_windows_and_their_samples() {
        let log = VariantLog {
            window_secs: 0.5,
            window_ops: vec![10, 20, 30, 40],
            samples: (0..4u16)
                .map(|window| Sample {
                    window,
                    kind: Kind::Scan,
                    ns: window as u32,
                })
                .collect(),
            ..Default::default()
        };
        let t = log.tail(2);
        assert_eq!(t.window_ops, [30, 40]);
        assert_eq!(t.measured_secs, 1.0);
        let samples: Vec<(u16, u32)> = t.samples.iter().map(|s| (s.window, s.ns)).collect();
        assert_eq!(samples, [(0, 2), (1, 3)]);
        assert_eq!(log.tail(9).window_ops.len(), 4);
    }

    #[test]
    fn tapes_shift_on_the_measurement_clock() {
        let v = Counter {
            sum: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
        };
        // Pre-shift ops are scans, post-shift ops are updates. The shift
        // is due after one of four windows; by the last one it has
        // happened even if the worker lost two windows to the scheduler.
        let tapes = Tapes {
            pre: vec![vec![2]],
            post: Some((0.02, vec![vec![1]])),
        };
        let plan = Plan {
            windows: 4,
            ..plan(false)
        };
        let seg = drive(&v, &tapes, &mut [0], plan);
        let s = &seg.threads[0].samples;
        assert!(s.iter().all(|x| x.window != 3 || x.kind == Kind::Update));
    }
}
