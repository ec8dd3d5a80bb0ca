//! The partstm yardstick. See README.md for the workloads, the metrics
//! and how to read them.

mod baseline;
mod cli;
mod harness;
mod host;
mod measure;
mod metrics;
mod ops;
mod probes;
mod report;
mod rng;
mod stats;
mod trace;
mod variants;
mod workloads;

use std::io::Write;

use cli::{Command, Opts};
use measure::RunCfg;

/// Runs one workload in this process and prints the contract's result
/// object as the last line of standard output.
fn run_one(name: &'static str, opts: &Opts) -> Result<i32, String> {
    let w = metrics::workload(name).expect("the CLI checked the name");
    let cfg = RunCfg {
        workload: w.name,
        seed: opts.seed,
        seconds: opts.seconds_for(w),
        default_seconds: w.default_seconds,
        threads: host::worker_threads(),
        trace: opts.trace,
    };
    let mut out = workloads::run(&cfg);
    if cfg.trace {
        probes::run(&mut out.values);
    }
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    out.values.set("failed_share", share);
    report::print_outcome(&cfg, &out);
    if let Some(path) = &opts.out {
        report::write_single(path, &cfg, &out)?;
    }
    println!("{}", report::result_line(&out, cfg.trace));
    Ok(if out.correct() { 0 } else { 1 })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("benchmark: {e}\n\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let code = match command {
        Command::Manifest => {
            // `manifest | head` closes the pipe early; that is not an error.
            let _ = writeln!(
                std::io::stdout(),
                "{}",
                metrics::manifest().to_string_pretty()
            );
            Ok(0)
        }
        Command::Run(Some(name), opts) => run_one(name, &opts),
        Command::Run(None, opts) => report::run_all(&opts),
        Command::Selfcheck(opts) => report::selfcheck(&opts),
        Command::Compare(a, b) => report::compare(&a, &b),
        Command::Spread(files, out) => report::spread(&files, out.as_deref()),
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
    use partstm_analysis::json::Json;

    /// Every workload at `--scale 0.05`, traced: all oracles hold and every
    /// named metric is present and finite in the result line.
    #[test]
    fn smoke_run_reports_every_metric_of_every_workload() {
        let mut probes = metrics::Values::default();
        probes::run(&mut probes);
        for w in WORKLOADS {
            let cfg = RunCfg {
                workload: w.name,
                seed: 7,
                seconds: w.default_seconds * 0.05,
                default_seconds: w.default_seconds,
                threads: host::worker_threads(),
                trace: true,
            };
            let out = workloads::run(&cfg);
            assert!(out.correct(), "{}: {:?}", w.name, out.violations);
            assert!(out.attempted > 1000, "{} ran {} ops", w.name, out.attempted);
            for d in END_TO_END {
                let v = out.values.get(d.name);
                assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name, d.name);
            }
            for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
                let line = report::result_line(&out, trace);
                let doc = Json::parse(&line).expect("the result line is JSON");
                let metrics = doc.get("metrics").expect("metrics");
                for d in defs {
                    let entry = metrics.get(d.name).unwrap_or_else(|| panic!("{}", d.name));
                    assert!(matches!(entry.get("value"), Some(Json::Num(n)) if n.is_finite()));
                    assert_eq!(entry.get("unit").and_then(Json::as_str), Some(d.unit));
                }
            }
            let trace = report::out_dir().join(format!("trace-{}.json", w.name));
            let text = std::fs::read_to_string(&trace).expect("the traced pass wrote its spans");
            let events = Json::parse(&text).expect("the trace is JSON");
            assert!(events
                .get("traceEvents")
                .and_then(Json::as_arr)
                .is_some_and(|e| e.len() > 100));
        }
        // The probes fill group P. (Those derived by difference are
        // finite — `Values::set` checks — but may be lost in the noise of
        // a debug build.)
        for name in [
            "txn.begin_commit_ns",
            "snapshot.begin_commit_ns",
            "privatize.guard_rw_ns",
            "structures.bank_transfer_ns",
            "structures.hashset_op_ns",
            "structures.rbtree_op_ns",
            "structures.skiplist_op_ns",
            "structures.list_op_ns",
            "analysis.observe_ns",
            "analysis.proposals_us",
            "tuning.evaluate_ns",
        ] {
            assert!(probes.get(name) > 0.0, "{name} = {}", probes.get(name));
        }
    }
}
