//! Prometheus text-exposition writers (format version 0.0.4).
//!
//! [`write_counter`] renders one `counter` family with labelled series;
//! [`write_hist`] renders a [`HistSnapshot`] as a native Prometheus
//! `histogram` with cumulative `_bucket{le=...}` series at the
//! power-of-two bucket boundaries (empty buckets are elided except the
//! mandatory `+Inf`), plus `_sum` and `_count`. Metric names are prefixed
//! `partstm_` and sanitized to `[a-zA-Z0-9_]`.

use std::fmt::Write as _;

use crate::hist::{bucket_bound, HistSnapshot};

/// Prometheus-legal metric name: `partstm_` + sanitized `name`.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("partstm_");
    for ch in name.chars() {
        out.push(if ch.is_ascii_alphanumeric() || ch == '_' {
            ch
        } else {
            '_'
        });
    }
    out
}

/// Appends one `counter` family to `out`: its `# TYPE` line, then one
/// `name{key="value",…} count` sample per series. Label values are
/// escaped (`\`, `"` and newline), so they may carry user input; keys
/// must already be legal label names.
pub fn write_counter<'a, L>(
    out: &mut String,
    name: &str,
    series: impl IntoIterator<Item = (L, u64)>,
) where
    L: IntoIterator<Item = (&'a str, &'a str)>,
{
    let m = metric_name(name);
    let _ = writeln!(out, "# TYPE {m} counter");
    for (labels, value) in series {
        out.push_str(&m);
        let mut sep = '{';
        for (key, v) in labels {
            let _ = write!(out, "{sep}{key}=\"");
            for ch in v.chars() {
                match ch {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    ch => out.push(ch),
                }
            }
            out.push('"');
            sep = ',';
        }
        if sep == ',' {
            out.push('}');
        }
        let _ = writeln!(out, " {value}");
    }
}

/// Appends the histogram `h` to `out` as the family `name`.
pub fn write_hist(out: &mut String, name: &str, h: &HistSnapshot) {
    let m = metric_name(name);
    let _ = writeln!(out, "# TYPE {m} histogram");
    let mut cum = 0u64;
    for (i, b) in h.buckets.iter().enumerate() {
        cum += b;
        if *b == 0 {
            continue;
        }
        let bound = bucket_bound(i);
        if bound == u64::MAX {
            continue; // folded into +Inf below
        }
        let _ = writeln!(out, "{m}_bucket{{le=\"{bound}\"}} {cum}");
    }
    let _ = writeln!(out, "{m}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{m}_sum {}", h.sum);
    let _ = writeln!(out, "{m}_count {}", h.count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn renders_counters_and_cumulative_buckets() {
        let mut text = String::new();
        write_counter(
            &mut text,
            "quiesce.windows",
            [
                ([("partition", "0"), ("name", "a\"b\\c\nd")], 3),
                ([("partition", "1"), ("name", "plain")], 0),
            ],
        );
        let h = Histogram::new();
        h.record(0); // bucket 0, le="0"
        h.record(5); // bucket 3, le="7"
        h.record(5);
        h.record(u64::MAX); // top bucket, only in +Inf
        write_hist(&mut text, "commit_latency_ns", &h.snapshot());
        assert!(text.starts_with("# TYPE partstm_quiesce_windows counter\n"));
        // Label values escaped: quote, backslash, newline.
        assert!(
            text.contains("partstm_quiesce_windows{partition=\"0\",name=\"a\\\"b\\\\c\\nd\"} 3\n")
        );
        assert!(text.contains("partstm_quiesce_windows{partition=\"1\",name=\"plain\"} 0\n"));
        assert!(text.contains("# TYPE partstm_commit_latency_ns histogram"));
        assert!(text.contains("partstm_commit_latency_ns_bucket{le=\"0\"} 1"));
        // Cumulative: the le="7" bucket includes the zero below it.
        assert!(text.contains("partstm_commit_latency_ns_bucket{le=\"7\"} 3"));
        assert!(text.contains("partstm_commit_latency_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("partstm_commit_latency_ns_count 4"));
        // Dots sanitized, prefix applied, no raw names leak.
        assert!(!text.contains("quiesce.windows"));
    }
}
