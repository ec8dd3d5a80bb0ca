//! Output: the human-readable tables, the contract's result line, the
//! `--out` JSON, and the commands built on it (`run all`, `selfcheck`,
//! `compare`).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use partstm_analysis::json::Json;

use crate::cli::Opts;
use crate::harness::VariantLog;
use crate::host;
use crate::measure::{Outcome, RunCfg};
use crate::metrics::{Better, MetricDef, Values, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartile_spread};
use crate::trace;

/// Where traces and intermediate results go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the traced pass's spans as `out/trace-<workload>.json`.
pub fn write_trace(cfg: &RunCfg, log: &VariantLog, out: &mut Outcome) {
    let path = out_dir().join(format!("trace-{}.json", cfg.workload));
    match trace::write_chrome(&path, cfg.workload, &log.spans, &log.ctl) {
        Ok(()) => out
            .notes
            .push(format!("trace written to {}", path.display())),
        Err(e) => out
            .violations
            .push(format!("cannot write {}: {e}", path.display())),
    }
}

fn table(title: &str, defs: &[MetricDef], values: &Values) {
    println!("{title}");
    for d in defs {
        println!("  {:<40} {:>16.4} {}", d.name, values.get(d.name), d.unit);
    }
}

/// Prints one workload's metrics by name, with units.
pub fn print_outcome(cfg: &RunCfg, out: &Outcome) {
    println!(
        "== {} — seed {}, {} s measured, {} threads{}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.threads,
        if cfg.trace { ", traced" } else { "" }
    );
    table("end-to-end", END_TO_END, &out.values);
    if cfg.trace {
        table("per-layer", PER_LAYER, &out.values);
    } else {
        // The end-to-end numbers without a bound (listed under per_layer
        // in BENCHMARK.json), where the workload has them.
        for d in PER_LAYER.iter().filter(|d| d.layer().is_none()) {
            let v = out.values.get(d.name);
            if v != 0.0 {
                println!("  {:<40} {:>16.4} {}", d.name, v, d.unit);
            }
        }
    }
    for n in &out.notes {
        println!("  {n}");
    }
    println!(
        "  attempted {} failed {} failed_share {}",
        out.attempted,
        out.failed,
        out.values.get("failed_share")
    );
    for v in &out.violations {
        println!("  VIOLATION: {v}");
    }
}

/// The contract's result object: with `--trace 0` every end-to-end
/// metric, with `--trace 1` every per-layer metric.
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct())),
        ("attempted".into(), Json::Num(out.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), out.values.to_json(defs)),
    ])
    .to_string_compact()
}

/// One workload's entry of the `--out` file.
fn workload_json(cfg: &RunCfg, out: &Outcome) -> Json {
    let windows = out
        .windows
        .iter()
        .map(|(name, series)| {
            let series = series.iter().map(|v| Json::Num(*v)).collect();
            (name.to_string(), Json::Arr(series))
        })
        .collect();
    Json::Obj(vec![
        ("seconds".into(), Json::Num(cfg.seconds)),
        ("correct".into(), Json::Bool(out.correct())),
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("end_to_end".into(), out.values.to_json(END_TO_END)),
        // An untraced run fills the counters and the end-to-end numbers
        // without a bound; the probes and span metrics read 0.
        ("per_layer".into(), out.values.to_json(PER_LAYER)),
        ("traced".into(), Json::Bool(cfg.trace)),
        ("windows".into(), Json::Obj(windows)),
    ])
}

fn results_doc(seed: u64, workloads: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Num(1.0)),
        ("host".into(), host::host_block(seed)),
        ("workloads".into(), Json::Obj(workloads)),
    ])
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_string_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes a single run's `--out` file.
pub fn write_single(path: &Path, cfg: &RunCfg, out: &Outcome) -> Result<(), String> {
    let doc = results_doc(
        cfg.seed,
        vec![(cfg.workload.to_string(), workload_json(cfg, out))],
    );
    write_json(path, &doc)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs every workload in its own child process (so `rss_mb` is per
/// workload) and returns the combined results document and whether all
/// were correct.
fn run_children(opts: &Opts, tag: &str) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut entries = Vec::new();
    let mut all_correct = true;
    for w in WORKLOADS {
        let file = out_dir().join(format!("result-{tag}-{}.json", w.name));
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds_for(w).to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&file)
            .status()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        all_correct &= status.success();
        let doc = read_json(&file)?;
        let entry = doc
            .get("workloads")
            .and_then(|ws| ws.get(w.name))
            .ok_or_else(|| format!("{}: no entry for {}", file.display(), w.name))?;
        entries.push((w.name.to_string(), entry.clone()));
    }
    Ok((results_doc(opts.seed, entries), all_correct))
}

fn num(j: &Json) -> Option<f64> {
    match j {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

fn value_of(doc: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    num(doc
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .get("value")?)
}

fn summary(doc: &Json, traced: bool) {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let header = |title: &str| {
        print!("{title:<36}");
        for n in &names {
            print!(" {n:>13}");
        }
        println!();
    };
    let rows = |section: &str, defs: &[MetricDef]| {
        for d in defs {
            print!("{:<28} {:<7}", d.name, d.unit);
            for n in &names {
                match value_of(doc, n, section, d.name) {
                    Some(v) => print!(" {v:>13.4}"),
                    None => print!(" {:>13}", "-"),
                }
            }
            println!();
        }
    };
    println!();
    header("end-to-end");
    rows("end_to_end", END_TO_END);
    header(if traced {
        "per-layer"
    } else {
        "end-to-end, no bound"
    });
    let specific: Vec<MetricDef> = PER_LAYER
        .iter()
        .filter(|d| traced || d.layer().is_none())
        .copied()
        .collect();
    rows("per_layer", &specific);
}

/// `run all`: every workload, a summary table, the optional `--out` file.
/// Returns the process exit code.
pub fn run_all(opts: &Opts) -> Result<i32, String> {
    let (doc, all_correct) = run_children(opts, "run")?;
    summary(&doc, opts.trace);
    if let Some(path) = &opts.out {
        write_json(path, &doc)?;
        println!("results written to {}", path.display());
    }
    if !all_correct {
        println!("FAILED: at least one workload reported an oracle violation");
    }
    Ok(if all_correct { 0 } else { 1 })
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The spread recorded over ten repeat runs at the seed commit, per
/// workload and end-to-end metric (`spreads.json`, see README.md).
fn recorded_spread(workload: &str, metric: &str) -> Option<f64> {
    static SPREADS: OnceLock<Option<Json>> = OnceLock::new();
    let doc = SPREADS.get_or_init(|| Json::parse(include_str!("../spreads.json")).ok());
    num(doc.as_ref()?.get(workload)?.get(metric)?)
}

/// Judges `b` against `a` under the bounds. A change inside the bound is
/// `unresolved`, not `unchanged`, when the recorded run-to-run spread of
/// the metric is wider than the bound.
pub fn verdict(def: &MetricDef, workload: &str, a: f64, b: f64) -> &'static str {
    let w = worsening(def, a, b);
    if w > def.bound {
        "WORSE"
    } else if recorded_spread(workload, def.name).is_some_and(|s| s > def.bound) {
        "unresolved"
    } else if -w > def.bound {
        "better"
    } else {
        "unchanged"
    }
}

/// Prints metric × workload rows for two result documents; returns how
/// many are worse than the bound allows. `symmetric`: the two are runs of
/// one build, so a gap counts in whichever direction it points.
fn compare_docs(a: &Json, b: &Json, symmetric: bool) -> usize {
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut worse = 0;
    for w in WORKLOADS {
        for d in END_TO_END {
            let (Some(mut va), Some(mut vb)) = (
                value_of(a, w.name, "end_to_end", d.name),
                value_of(b, w.name, "end_to_end", d.name),
            ) else {
                continue;
            };
            if symmetric && worsening(d, va, vb) < 0.0 {
                (va, vb) = (vb, va);
            }
            let v = verdict(d, w.name, va, vb);
            worse += (v == "WORSE") as usize;
            println!(
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {v}",
                w.name,
                d.name,
                va,
                vb,
                100.0 * worsening(d, va, vb),
                100.0 * d.bound
            );
        }
    }
    worse
}

fn threads_of(doc: &Json) -> Option<f64> {
    num(doc.get("host")?.get("threads")?)
}

/// `compare A.json B.json`: exit code 1 when a metric got worse by more
/// than its bound.
pub fn compare(a: &Path, b: &Path) -> Result<i32, String> {
    let (da, db) = (read_json(a)?, read_json(b)?);
    if threads_of(&da) != threads_of(&db) {
        return Err("the two files were measured with different thread counts; \
                    comparisons are like-for-like only"
            .into());
    }
    let worse = compare_docs(&da, &db, false);
    println!("{worse} metric x workload pairs are worse than their bound allows");
    Ok((worse > 0) as i32)
}

/// `spread FILES...`: for every workload and end-to-end metric, the
/// median over the files and the distance between the first and third
/// quartile as a share of it — what a bound has to be read against.
/// `--out` writes the spreads in the form of `spreads.json`.
pub fn spread(files: &[PathBuf], out: Option<&Path>) -> Result<i32, String> {
    let docs: Vec<Json> = files
        .iter()
        .map(|f| read_json(f))
        .collect::<Result<_, _>>()?;
    println!(
        "{:<14} {:<16} {:>14} {:>8} {:>7}  over {} files",
        "workload",
        "metric",
        "median",
        "spread",
        "bound",
        docs.len()
    );
    let mut over = 0;
    let mut recorded = Vec::new();
    for w in WORKLOADS {
        let mut row = Vec::new();
        for d in END_TO_END {
            let values: Vec<f64> = docs
                .iter()
                .filter_map(|doc| value_of(doc, w.name, "end_to_end", d.name))
                .collect();
            if values.len() < 2 {
                continue;
            }
            let s = quartile_spread(&values);
            // setup_s is judged on its medians only.
            let wide = s > d.bound && d.name != "setup_s";
            over += wide as usize;
            println!(
                "{:<14} {:<16} {:>14.4} {:>7.2}% {:>6.0}%{}",
                w.name,
                d.name,
                median(&values),
                100.0 * s,
                100.0 * d.bound,
                if wide { "  WIDER THAN THE BOUND" } else { "" }
            );
            row.push((d.name.to_string(), Json::Num((s * 1e4).round() / 1e4)));
        }
        recorded.push((w.name.to_string(), Json::Obj(row)));
    }
    if let Some(path) = out {
        write_json(path, &Json::Obj(recorded))?;
    }
    println!("{over} metric x workload pairs spread wider than their bound");
    Ok((over > 0) as i32)
}

/// `selfcheck`: the end-to-end pass twice on the same build; every metric
/// × workload must agree within the benchmark's own bounds.
pub fn selfcheck(opts: &Opts) -> Result<i32, String> {
    let opts = Opts {
        trace: false,
        ..opts.clone()
    };
    let (a, ok_a) = run_children(&opts, "self-a")?;
    let (b, ok_b) = run_children(&opts, "self-b")?;
    println!();
    // Each row lists the better value first, so "worse by" is the gap.
    let worse = compare_docs(&a, &b, true);
    println!("selfcheck: {worse} metric x workload pairs disagree by more than their bound");
    Ok((worse > 0 || !ok_a || !ok_b) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 1000,
            ..Default::default()
        };
        out.values.set("commit_kops", 1234.5678);
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let line = result_line(&out, trace);
            assert!(!line.contains('\n'));
            let Json::Obj(members) = Json::parse(&line).unwrap() else {
                panic!()
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Json::Obj(metrics) = &members[3].1 else {
                panic!()
            };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(names, want);
        }
        assert!(result_line(&out, false)
            .contains(r#""commit_kops":{"value":1234.5678,"unit":"kops/s"}"#));
        out.failed = 1;
        assert!(result_line(&out, false)
            .starts_with(r#"{"correct":false,"attempted":1000,"failed":1,"#));
    }

    #[test]
    fn worsening_respects_the_direction() {
        assert!((worsening(def("commit_kops"), 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(def("op_p95_us"), 10.0, 12.0) - 0.20).abs() < 1e-12);
        assert!(worsening(def("op_p95_us"), 10.0, 9.0) < 0.0);
        assert_eq!(worsening(def("rss_mb"), 0.0, 5.0), 0.0);
    }

    #[test]
    fn verdicts_apply_the_bound() {
        // commit_kops: bound 25%, higher is better.
        let d = def("commit_kops");
        assert_eq!(verdict(d, "no-such-workload", 100.0, 74.0), "WORSE");
        assert_eq!(verdict(d, "no-such-workload", 100.0, 90.0), "unchanged");
        assert_eq!(verdict(d, "no-such-workload", 100.0, 130.0), "better");
        // A metric whose recorded spread exceeds its bound cannot be
        // called unchanged.
        let wide = WORKLOADS.iter().flat_map(|w| {
            END_TO_END
                .iter()
                .filter(move |d| recorded_spread(w.name, d.name).is_some_and(|s| s > d.bound))
                .map(move |d| (w.name, d))
        });
        for (w, d) in wide {
            assert_eq!(verdict(d, w, 100.0, 100.0), "unresolved", "{w} {}", d.name);
        }
    }

    #[test]
    fn recorded_spreads_cover_every_pair() {
        for w in WORKLOADS {
            for d in END_TO_END {
                assert!(
                    recorded_spread(w.name, d.name).is_some(),
                    "spreads.json lacks {} x {}",
                    w.name,
                    d.name
                );
            }
        }
    }
}
