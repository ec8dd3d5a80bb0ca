//! Spans of the traced run: recording format, self-time arithmetic, the
//! per-layer statistics derived from them, and the Chrome trace-event
//! writer.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! the library (one per sampled operation, one child per attempt, one per
//! control-plane call); spans inside the engine are a later issue.

use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::harness::{CtlKind, CtlOutcome, CtlRec};
use crate::stats::percentile;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Closure entry → closure exit of one attempt; child of the op span
    /// with the same `op` id recorded after it.
    Attempt,
    ScanOp,
    UpdateOp,
}

/// One recorded span. Per worker, an op's attempt spans precede its op
/// span in recording order.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start_ns: u64,
    pub dur_ns: u32,
    pub kind: SpanKind,
    /// Op spans: number of attempts.
    pub arg: u32,
    /// Per-worker id of the operation the span belongs to.
    pub op: u32,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns as u64
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap each other or stick out of the
/// parent; only their union inside the parent counts.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = ps;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (pe - ps).saturating_sub(covered)
}

/// Where the time of the sampled operations went, and the latency
/// distributions the per-layer metrics quote.
#[derive(Debug, Default)]
pub struct SpanStats {
    pub ops: u64,
    pub op_ns: u64,
    /// Op self time outside any retry gap: begin of the first attempt plus
    /// commit of the last.
    pub begin_commit_ns: u64,
    /// The attempt that committed.
    pub committed_attempt_ns: u64,
    /// Attempts that aborted.
    pub wasted_attempt_ns: u64,
    /// Closure exit → next closure entry: rollback + backoff + begin.
    pub retry_gap_ns: u64,
    /// Per op: self time of the op span (op minus its attempt spans).
    pub outside_closure: Vec<u32>,
    pub retry_gaps: Vec<u32>,
    /// Durations of the ops that overlapped a control-plane span (their
    /// cause), and of those that did not.
    pub caused_ops: Vec<u32>,
    pub free_ops: Vec<u32>,
}

impl SpanStats {
    /// Share of the summed op time the four stacked rows account for.
    pub fn stack_coverage(&self) -> f64 {
        if self.op_ns == 0 {
            return 0.0;
        }
        (self.begin_commit_ns
            + self.committed_attempt_ns
            + self.wasted_attempt_ns
            + self.retry_gap_ns) as f64
            / self.op_ns as f64
    }
}

/// Index of the control span that overlaps `[start, end)`, if any.
/// `ctl` is sorted by start and its spans do not overlap (one issuer).
pub fn cause_of(ctl: &[CtlRec], start: u64, end: u64) -> Option<usize> {
    let i = ctl.partition_point(|c| c.start_ns < end);
    let c = ctl.get(i.checked_sub(1)?)?;
    (c.start_ns + c.dur_ns > start).then_some(i - 1)
}

pub fn analyse(spans: &[Vec<Span>], ctl: &[CtlRec]) -> SpanStats {
    let mut st = SpanStats::default();
    let mut attempts: Vec<(u64, u64)> = Vec::new();
    for worker in spans {
        attempts.clear();
        for s in worker {
            if s.kind == SpanKind::Attempt {
                attempts.push((s.start_ns, s.end_ns()));
                continue;
            }
            let op = (s.start_ns, s.end_ns());
            let outside = self_time(op, &attempts);
            let mut gaps = 0u64;
            for pair in attempts.windows(2) {
                let gap = pair[1].0.saturating_sub(pair[0].1);
                gaps += gap;
                st.retry_gaps.push(gap.min(u32::MAX as u64) as u32);
            }
            if let Some((last, wasted)) = attempts.split_last() {
                st.committed_attempt_ns += last.1 - last.0;
                st.wasted_attempt_ns += wasted.iter().map(|a| a.1 - a.0).sum::<u64>();
            }
            st.ops += 1;
            st.op_ns += s.dur_ns as u64;
            st.retry_gap_ns += gaps;
            st.begin_commit_ns += outside.saturating_sub(gaps);
            st.outside_closure.push(outside.min(u32::MAX as u64) as u32);
            match cause_of(ctl, op.0, op.1) {
                Some(_) => st.caused_ops.push(s.dur_ns),
                None => st.free_ops.push(s.dur_ns),
            }
            attempts.clear();
        }
    }
    st.outside_closure.sort_unstable();
    st.retry_gaps.sort_unstable();
    st.caused_ops.sort_unstable();
    st.free_ops.sort_unstable();
    st
}

/// p-th percentile of control calls of `kind`, in microseconds, over the
/// part of each call `part` selects.
pub fn ctl_percentile_us(
    ctl: &[CtlRec],
    kind: Option<CtlKind>,
    part: impl Fn(&CtlRec) -> u64,
    p: f64,
) -> f64 {
    let mut ns: Vec<u32> = ctl
        .iter()
        .filter(|c| kind.is_none_or(|k| c.kind == k))
        .map(|c| part(c).min(u32::MAX as u64) as u32)
        .collect();
    ns.sort_unstable();
    percentile(&ns, p) / 1e3
}

/// Spans written per worker: enough to read the timeline, small enough
/// for a trace viewer to load.
const FILE_SPANS_PER_WORKER: usize = 100_000;

/// Writes Chrome trace-event JSON (`chrome://tracing`, Perfetto).
pub fn write_chrome(
    path: &Path,
    workload: &str,
    spans: &[Vec<Span>],
    ctl: &[CtlRec],
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{workload}\"}}}}"
    )?;
    let us = |ns: u64| ns as f64 / 1e3;
    for (i, c) in ctl.iter().enumerate() {
        let (name, cat) = match c.kind {
            CtlKind::SwitchConfig => ("switch_partition", "ctl"),
            CtlKind::ResizeOrecs => ("resize_orecs", "ctl"),
            CtlKind::Migrate => ("migrate_pvars", "ctl"),
            CtlKind::Privatize => ("privatize+republish", "ctl"),
            CtlKind::ControllerStep => ("controller.step", "controller"),
        };
        let outcome = match c.outcome {
            CtlOutcome::Done => "done",
            CtlOutcome::Contended => "contended",
            CtlOutcome::TimedOut => "timed_out",
        };
        write!(
            out,
            ",\n{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":0,\"args\":{{\"id\":\"c{i}\",\"outcome\":\"{outcome}\",\"moved\":{}}}}}",
            us(c.start_ns),
            us(c.dur_ns),
            c.moved
        )?;
    }
    for (tid, worker) in spans.iter().enumerate() {
        for s in worker.iter().take(FILE_SPANS_PER_WORKER) {
            let id = format!("t{tid}.{}", s.op);
            match s.kind {
                SpanKind::Attempt => write!(
                    out,
                    ",\n{{\"name\":\"attempt\",\"cat\":\"attempt\",\"ph\":\"X\",\"ts\":{},\
                     \"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{{\"op\":\"{id}\"}}}}",
                    us(s.start_ns),
                    us(s.dur_ns as u64)
                )?,
                SpanKind::ScanOp | SpanKind::UpdateOp => {
                    let name = if s.kind == SpanKind::ScanOp {
                        "scan"
                    } else {
                        "update"
                    };
                    let cause = match cause_of(ctl, s.start_ns, s.end_ns()) {
                        Some(i) => format!(",\"cause\":\"c{i}\""),
                        None => String::new(),
                    };
                    write!(
                        out,
                        ",\n{{\"name\":\"{name}\",\"cat\":\"op\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                         \"pid\":1,\"tid\":{tid},\"args\":{{\"id\":\"{id}\",\"attempts\":{}{cause}}}}}",
                        us(s.start_ns),
                        us(s.dur_ns as u64),
                        s.arg
                    )?;
                }
            }
        }
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use partstm_analysis::json::Json;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all of it.
        assert_eq!(self_time((100, 200), &[]), 100);
        // Two disjoint children.
        assert_eq!(self_time((100, 200), &[(110, 120), (150, 180)]), 60);
        // Overlapping children count once; order does not matter.
        assert_eq!(self_time((100, 200), &[(150, 180), (110, 160)]), 30);
        // A child sticking out is clipped; one outside is ignored.
        assert_eq!(
            self_time((100, 200), &[(50, 120), (190, 400), (300, 310)]),
            70
        );
        // Fully covered.
        assert_eq!(self_time((100, 200), &[(0, 500)]), 0);
    }

    fn span(kind: SpanKind, start: u64, dur: u32, op: u32) -> Span {
        Span {
            start_ns: start,
            dur_ns: dur,
            kind,
            arg: 0,
            op,
        }
    }

    fn ctl(start: u64, dur: u64) -> CtlRec {
        CtlRec {
            kind: CtlKind::Migrate,
            outcome: CtlOutcome::Done,
            start_ns: start,
            dur_ns: dur,
            moved: 256,
            acquire_ns: 0,
            republish_ns: 0,
        }
    }

    #[test]
    fn analyse_stacks_begin_commit_attempts_and_gaps() {
        // Op 0: 1000..2000, one attempt 1100..1800 → outside 300.
        // Op 1: 3000..5000, attempts 3100..3500 (aborted) and 4000..4800
        //       → gap 500, outside 800 of which 300 begin+commit.
        let worker = vec![
            span(SpanKind::Attempt, 1100, 700, 0),
            span(SpanKind::UpdateOp, 1000, 1000, 0),
            span(SpanKind::Attempt, 3100, 400, 1),
            span(SpanKind::Attempt, 4000, 800, 1),
            span(SpanKind::ScanOp, 3000, 2000, 1),
        ];
        let st = analyse(&[worker], &[ctl(4900, 1000)]);
        assert_eq!(st.ops, 2);
        assert_eq!(st.op_ns, 3000);
        assert_eq!(st.committed_attempt_ns, 700 + 800);
        assert_eq!(st.wasted_attempt_ns, 400);
        assert_eq!(st.retry_gap_ns, 500);
        assert_eq!(st.begin_commit_ns, 300 + 300);
        assert_eq!(st.outside_closure, vec![300, 800]);
        assert_eq!(st.retry_gaps, vec![500]);
        assert!((st.stack_coverage() - 1.0).abs() < 1e-12);
        // Op 1 overlaps the control span, op 0 does not.
        assert_eq!((st.caused_ops, st.free_ops), (vec![2000], vec![1000]));
    }

    #[test]
    fn cause_lookup_finds_only_overlapping_control_spans() {
        let c = [ctl(100, 50), ctl(300, 50)];
        assert_eq!(cause_of(&c, 0, 100), None);
        assert_eq!(cause_of(&c, 0, 101), Some(0));
        assert_eq!(cause_of(&c, 149, 160), Some(0));
        assert_eq!(cause_of(&c, 150, 300), None);
        assert_eq!(cause_of(&c, 320, 330), Some(1));
        assert_eq!(cause_of(&[], 0, 10), None);
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/unit-test");
        let path = dir.join("trace-test.json");
        let worker = vec![
            span(SpanKind::Attempt, 1100, 700, 0),
            span(SpanKind::UpdateOp, 1000, 1000, 0),
        ];
        write_chrome(&path, "unit", &[worker], &[ctl(1500, 100)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4, "metadata + control + attempt + op");
        let op = &events[3];
        assert_eq!(op.get("name").and_then(Json::as_str), Some("update"));
        let args = op.get("args").unwrap();
        assert_eq!(args.get("cause").and_then(Json::as_str), Some("c0"));
        assert_eq!(args.get("id").and_then(Json::as_str), Some("t0.0"));
    }
}
