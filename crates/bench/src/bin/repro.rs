//! `repro` — regenerates every figure and table of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro <experiment>.. [--secs S] [--threads 1,2,4,...] [--quick] [--json [file]]
//!                      [--prom [file]]
//! experiments: f2 f3 f4 t1 t2 f5 f6 f7 f8 a1 a2 a3 repart hotkey orecs readpath
//!              privatize chaos report all
//! ```
//!
//! Several experiments may be named in one invocation (`repro repart
//! orecs --json`); their scenarios land in one JSON document.
//!
//! Each experiment prints the table/series the corresponding paper artifact
//! reports (see DESIGN.md §4 for the reconstruction rationale and
//! EXPERIMENTS.md for measured-vs-expected). `repart` runs the two
//! phase-shift workloads that exercise the online repartitioner end to end
//! — flat variables, then arena-backed structures whose recovery requires
//! an arena-level split — and `--json` writes per-scenario metrics to
//! `BENCH_repro.json` for cross-commit tracking.
//!
//! The whole binary runs with engine telemetry enabled
//! ([`partstm_core::telemetry`]): `--json` additionally emits a
//! `telemetry` scenario with p50/p99 per engine histogram, `--prom`
//! writes a Prometheus text-exposition snapshot at exit, and the
//! `report` experiment prints the flight-recorder timeline of a
//! controller phase-shift run, correlating control-plane actions against
//! per-window throughput.

use std::sync::Arc;
use std::time::Instant;

use partstm_bench::chaos::{run_chaos, ChaosConfig};
use partstm_bench::hetero::{self, HeteroApp, HeteroMode};
use partstm_bench::hotkey::{run_hotkey, HotkeyConfig, HotkeyReport};
use partstm_bench::json_out::BenchRecorder;
use partstm_bench::orec_pressure::{run_orec_pressure, OrecPressureConfig};
use partstm_bench::phase_shift::{
    run_phase_shift, run_struct_shift, PhaseShiftConfig, PhaseShiftReport,
};
use partstm_bench::privatize::{run_privatize, PrivatizeConfig};
use partstm_bench::readpath::{run_readpath, ReadpathConfig, ReadpathReport};
use partstm_bench::{
    config_label, drive, drive_timeseries, intset_op, kops, partition_with, prefill, snapshot_all,
    static_configs, thread_sweep,
};
use partstm_core::telemetry;
use partstm_core::{DynConfig, Granularity, PartitionConfig, ReadMode, ReaderArb, Stm};
use partstm_stamp::genome::{self, GenomeConfig, GenomeParts};
use partstm_stamp::intruder::{self, IntruderConfig, IntruderParts};
use partstm_stamp::kmeans::{self, KmeansConfig};
use partstm_stamp::vacation::{self, Manager, ManagerParts, VacationConfig, VacationStats};
use partstm_stamp::SplitMix64;
use partstm_structures::{IntSet, THashSet, TLinkedList, TRbTree, TSkipList};
use partstm_tuning::{ThresholdPolicy, Thresholds};

struct Opts {
    secs: f64,
    threads: Vec<usize>,
    /// Write machine-readable results here at exit (`--json [file]`).
    json: Option<String>,
    /// Write a Prometheus text-exposition snapshot here at exit
    /// (`--prom [file]`).
    prom: Option<String>,
    rec: BenchRecorder,
}

/// Prints the usage line and exits with status 2 (the response to an
/// empty or malformed command line).
fn usage() -> ! {
    eprintln!(
        "usage: repro <f2|f3|f4|t1|t2|f5|f6|f7|f8|a1|a2|a3|repart|hotkey|orecs|readpath|\
         privatize|chaos|report|all>.. \
         [--secs S] [--threads ..] [--quick] [--json [file]] [--prom [file]]"
    );
    std::process::exit(2);
}

/// Parses the flags; `None` when one is unknown, lacks its value, or
/// carries a value that does not parse or is out of range (`--secs` must
/// be positive and finite, thread counts 1..=64 — the runtime's slot
/// limit).
fn parse_opts(args: &[String]) -> Option<Opts> {
    let mut secs: f64 = 0.5;
    let mut threads = thread_sweep(usize::MAX);
    let mut json = None;
    let mut prom = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--secs" => {
                secs = args.get(i + 1)?.parse().ok()?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return None;
                }
                i += 2;
            }
            "--threads" => {
                threads = args
                    .get(i + 1)?
                    .split(',')
                    .map(|t| t.parse().ok().filter(|n| (1..=64).contains(n)))
                    .collect::<Option<_>>()?;
                i += 2;
            }
            "--quick" => {
                secs = 0.2;
                threads = vec![1, 2, 4];
                i += 1;
            }
            "--json" => {
                // Optional explicit path: `--json out.json`.
                if args.get(i + 1).is_some_and(|a| a.ends_with(".json")) {
                    json = Some(args[i + 1].clone());
                    i += 2;
                } else {
                    json = Some("BENCH_repro.json".to_string());
                    i += 1;
                }
            }
            "--prom" => {
                // Optional explicit path: `--prom out.prom`.
                if args.get(i + 1).is_some_and(|a| !a.starts_with("--")) {
                    prom = Some(args[i + 1].clone());
                    i += 2;
                } else {
                    prom = Some("telemetry.prom".to_string());
                    i += 1;
                }
            }
            _ => return None,
        }
    }
    Some(Opts {
        secs,
        threads,
        json,
        prom,
        rec: BenchRecorder::new(),
    })
}

/// A tuner with windows small enough for short harness runs.
fn harness_tuner() -> Arc<ThresholdPolicy> {
    Arc::new(ThresholdPolicy::with_thresholds(Thresholds {
        window: 1024,
        min_commits: 128,
        ..Thresholds::default()
    }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Experiments are every leading non-flag argument, so one invocation
    // can record several into a single JSON document
    // (`repro repart orecs --json`).
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (cmds, flags) = args.split_at(split);
    if cmds.is_empty() {
        usage();
    }
    let opts = parse_opts(flags).unwrap_or_else(|| usage());
    // The harness is the consumer the observability layer exists for:
    // record everything (histograms, flight recorder, sampled lifecycle).
    telemetry::set_enabled(true);
    let t0 = Instant::now();
    for cmd in cmds {
        match cmd.as_str() {
            "f2" => f2(&opts),
            "f3" => f3(&opts),
            "f4" => f4(&opts),
            "t1" => t1(&opts),
            "t2" => t2(&opts),
            "f5" => f5(&opts),
            "f6" => f6(&opts),
            "f7" => f7(&opts),
            "f8" => f8(&opts),
            "a1" => a1(&opts),
            "a2" => a2(&opts),
            "a3" => a3(&opts),
            "repart" => repart(&opts),
            "hotkey" => hotkey(&opts),
            "orecs" => orecs(&opts),
            "readpath" => readpath(&opts),
            "privatize" => privatize(&opts),
            "chaos" => chaos(&opts),
            "report" => report(&opts),
            "all" => {
                f2(&opts);
                f3(&opts);
                f4(&opts);
                t1(&opts);
                t2(&opts);
                f5(&opts);
                f6(&opts);
                f7(&opts);
                f8(&opts);
                a1(&opts);
                a2(&opts);
                a3(&opts);
                repart(&opts);
                hotkey(&opts);
                orecs(&opts);
                readpath(&opts);
                privatize(&opts);
                chaos(&opts);
            }
            other => {
                eprintln!("unknown experiment {other}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &opts.json {
        record_telemetry_scenario(&opts.rec);
        opts.rec
            .write(path)
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("[repro] wrote {} scenarios to {path}", opts.rec.len());
    }
    if let Some(path) = &opts.prom {
        let text = telemetry::prometheus_text(&telemetry::global().registry.snapshot());
        std::fs::write(path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("[repro] wrote Prometheus snapshot to {path}");
    }
    eprintln!("[repro] total wall time {:.1}s", t0.elapsed().as_secs_f64());
}

/// Folds the run's engine histograms into the JSON document as one
/// `telemetry` scenario: `<hist>_p50` / `<hist>_p99` / `<hist>_count` per
/// registered histogram (commit latency, quiesce duration, …), aggregated
/// over every experiment the invocation ran.
fn record_telemetry_scenario(rec: &BenchRecorder) {
    let snap = telemetry::global().registry.snapshot();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for (name, h) in &snap.hists {
        metrics.push((format!("{name}_p50"), h.p50()));
        metrics.push((format!("{name}_p99"), h.p99()));
        metrics.push((format!("{name}_count"), h.count as f64));
    }
    let borrowed: Vec<(&str, f64)> = metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    rec.record("telemetry", &borrowed);
}

enum Structure {
    List,
    Skip,
    Tree,
}

fn make_set(
    structure: &Structure,
    part: Arc<partstm_core::Partition>,
    range: u64,
) -> Box<dyn IntSet> {
    match structure {
        Structure::List => Box::new(TLinkedList::with_capacity(part, range as usize)),
        Structure::Skip => Box::new(TSkipList::with_capacity(part, range as usize)),
        Structure::Tree => Box::new(TRbTree::with_capacity(part, range as usize)),
    }
}

// ---------------------------------------------------------------- F2

/// F2: no one-size-fits-all — throughput vs threads for each static config
/// on three intset workloads.
fn f2(opts: &Opts) {
    println!(
        "\n=== F2: intset microbenchmarks, throughput (Kops/s) vs threads per static config ==="
    );
    let workloads: [(&str, Structure, u64, u64); 3] = [
        ("linked-list r=512 u=20%", Structure::List, 512, 20),
        ("skip-list r=4096 u=20%", Structure::Skip, 4096, 20),
        ("rb-tree r=16384 u=50%", Structure::Tree, 16384, 50),
    ];
    let configs = static_configs();
    for (wname, structure, range, upd) in workloads {
        println!("\n-- {wname}");
        print!("{:>8}", "threads");
        for (label, _) in &configs {
            print!("{label:>12}");
        }
        println!();
        for &t in &opts.threads {
            print!("{t:>8}");
            for (_, cfg) in &configs {
                let stm = Stm::new();
                let part = partition_with(&stm, "set", *cfg, false);
                let set = make_set(&structure, Arc::clone(&part), range);
                prefill(&stm, set.as_ref(), range);
                let m = drive(&stm, t, opts.secs, &|ctx, _i, rng| {
                    intset_op(set.as_ref(), ctx, rng, range, upd);
                });
                let s = part.stats();
                opts.rec.record(
                    format!("f2/{wname}/{}/t{t}", config_label(cfg)),
                    &[
                        ("kops", m.ops_per_sec / 1000.0),
                        (
                            "abort_rate",
                            s.aborts() as f64 / (s.commits + s.aborts()).max(1) as f64,
                        ),
                    ],
                );
                print!("{:>12}", kops(m.ops_per_sec));
            }
            println!();
        }
    }
}

// ---------------------------------------------------------------- F3

/// F3: heterogeneous application — per-partition tuning vs global statics.
fn f3(opts: &Opts) {
    println!("\n=== F3: heterogeneous app (list 50%u + rb-tree 5%u + hash 20%u), Kops/s ===");
    let configs = static_configs();
    // Oracle probe: best static config per structure, measured standalone
    // at the largest thread count.
    let probe_threads = *opts.threads.last().unwrap_or(&4);
    let probe_secs = (opts.secs * 0.5).max(0.15);
    let mut best: [DynConfig; 3] = [configs[0].1; 3];
    for (si, (range, upd)) in [
        (hetero::LIST_RANGE, hetero::LIST_UPD),
        (hetero::TREE_RANGE, hetero::TREE_UPD),
        (hetero::HASH_RANGE, hetero::HASH_UPD),
    ]
    .iter()
    .enumerate()
    {
        let mut best_tput = 0.0;
        for (_, cfg) in &configs {
            let stm = Stm::new();
            let part = partition_with(&stm, "probe", *cfg, false);
            let set: Box<dyn IntSet> = match si {
                0 => Box::new(TLinkedList::with_capacity(part, *range as usize)),
                1 => Box::new(TRbTree::with_capacity(part, *range as usize)),
                _ => Box::new(THashSet::new(part, *range as usize / 4)),
            };
            prefill(&stm, set.as_ref(), *range);
            let m = drive(&stm, probe_threads, probe_secs, &|ctx, _i, rng| {
                intset_op(set.as_ref(), ctx, rng, *range, *upd);
            });
            if m.ops_per_sec > best_tput {
                best_tput = m.ops_per_sec;
                best[si] = *cfg;
            }
        }
    }
    println!(
        "oracle per-structure statics: list={} tree={} hash={}",
        config_label(&best[0]),
        config_label(&best[1]),
        config_label(&best[2])
    );

    type AppCtor = Box<dyn Fn(&Stm) -> HeteroApp>;
    let mut modes: Vec<(String, AppCtor)> = Vec::new();
    for (label, cfg) in &configs {
        let c = *cfg;
        modes.push((
            format!("global {label}"),
            Box::new(move |stm: &Stm| HeteroApp::new(stm, HeteroMode::Single(c))),
        ));
    }
    modes.push((
        "per-part static".to_string(),
        Box::new(move |stm: &Stm| HeteroApp::new(stm, HeteroMode::PerPartition(best))),
    ));
    modes.push((
        "per-part adaptive".to_string(),
        Box::new(|stm: &Stm| {
            stm.set_tuner(harness_tuner());
            HeteroApp::new(stm, HeteroMode::Adaptive)
        }),
    ));

    print!("{:>20}", "mode");
    for &t in &opts.threads {
        print!("{t:>10}");
    }
    println!();
    for (label, make) in &modes {
        print!("{label:>20}");
        for &t in &opts.threads {
            let stm = Stm::new();
            let app = make(&stm);
            app.prefill(&stm);
            let m = drive(&stm, t, opts.secs, &|ctx, _i, rng| app.op(ctx, rng));
            print!("{:>10}", kops(m.ops_per_sec));
        }
        println!();
    }
}

// ---------------------------------------------------------------- F4

/// F4: dynamic phases — adaptive tracks an update-rate flip.
fn f4(opts: &Opts) {
    let threads = (*opts.threads.last().unwrap_or(&8)).min(8);
    let total = 6.0f64;
    let window = 0.2f64;
    let phase = 1.5f64; // seconds per phase
    println!(
        "\n=== F4: phase-changing rb-tree (r=2048, update 2% <-> 60% every {phase}s), {threads} threads, Kops per {window}s window ==="
    );
    let range = 2048u64;
    let run = |mode: &str| -> (Vec<u64>, u32) {
        let stm = Stm::new();
        let cfg = match mode {
            "inv/word" => Some(static_configs()[0].1),
            "vis/word" => Some(static_configs()[1].1),
            _ => None,
        };
        let part = match cfg {
            Some(c) => partition_with(&stm, "tree", c, false),
            None => {
                stm.set_tuner(harness_tuner());
                partition_with(
                    &stm,
                    "tree",
                    DynConfig::from(&PartitionConfig::default()),
                    true,
                )
            }
        };
        let tree = TRbTree::with_capacity(Arc::clone(&part), range as usize);
        prefill(&stm, &tree, range);
        let series = drive_timeseries(&stm, threads, total, window, &|ctx, _t, rng, el| {
            let p = (el.as_secs_f64() / phase) as u64;
            let upd = if p.is_multiple_of(2) { 2 } else { 60 };
            intset_op(&tree, ctx, rng, range, upd);
        });
        (series, part.generation())
    };
    let (inv, _) = run("inv/word");
    let (vis, _) = run("vis/word");
    let (ada, switches) = run("adaptive");
    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>10}",
        "window", "t(s)", "inv/word", "vis/word", "adaptive"
    );
    for i in 0..inv.len().min(vis.len()).min(ada.len()) {
        let phase_mark = if (((i as f64 + 0.5) * window / phase) as u64).is_multiple_of(2) {
            "lo"
        } else {
            "HI"
        };
        println!(
            "{:>6}{:>2} {:>6.1} {:>10} {:>10} {:>10}",
            i,
            phase_mark,
            (i as f64 + 1.0) * window,
            kops(inv[i] as f64 / window),
            kops(vis[i] as f64 / window),
            kops(ada[i] as f64 / window),
        );
    }
    println!("adaptive config switches: {switches}");
}

// ---------------------------------------------------------------- T1

/// T1: partition census (static analysis) + per-partition runtime profile.
fn t1(opts: &Opts) {
    println!("\n=== T1: partition census (compile-time analysis) ===");
    for model in [
        hetero::partition_plan(),
        vacation::partition_plan(),
        kmeans_plan(),
        genome_plan(),
        intruder::partition_plan(),
    ] {
        let census = partstm_analysis::census(&model).expect("models are valid");
        println!("\n{}", census.to_table());
    }

    println!(
        "=== T1b: per-partition runtime profile (vacation-high, {} threads, {:.1}s) ===",
        opts.threads.last().unwrap_or(&4),
        opts.secs.max(1.0)
    );
    let stm = Stm::new();
    let manager = Manager::new(ManagerParts::partitioned(&stm, false));
    let cfg = VacationConfig::high(4096);
    let ctx = stm.register_thread();
    vacation::populate(&ctx, &manager, &cfg);
    drop(ctx);
    let base = snapshot_all(&stm);
    let threads = *opts.threads.last().unwrap_or(&4);
    drive(&stm, threads, opts.secs.max(1.0), &|ctx, t, rng| {
        let mut stats = VacationStats::default();
        let mut local = SplitMix64::new(rng.next() ^ t as u64);
        vacation::run_one_task(ctx, &manager, &cfg, &mut local, &mut stats);
    });
    println!(
        "{:>22} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "partition", "commits", "share%", "upd-frac", "abort%", "reads/tx"
    );
    let reports = partstm_bench::partition_reports(&stm, &base);
    let total: u64 = reports.iter().map(|r| r.stats.commits).sum();
    for r in &reports {
        let s = &r.stats;
        let aborts = s.aborts();
        opts.rec.record(
            format!("t1b/vacation-high/{}", r.name),
            &[
                ("commits", s.commits as f64),
                (
                    "abort_rate",
                    aborts as f64 / (s.commits + aborts).max(1) as f64,
                ),
            ],
        );
        println!(
            "{:>22} {:>10} {:>10.1} {:>10.2} {:>10.1} {:>10.1}",
            r.name,
            s.commits,
            100.0 * s.commits as f64 / total.max(1) as f64,
            s.update_commits as f64 / s.commits.max(1) as f64,
            100.0 * aborts as f64 / (s.commits + aborts).max(1) as f64,
            s.reads as f64 / s.commits.max(1) as f64,
        );
    }
    manager
        .check_invariants()
        .expect("vacation invariants hold");
}

fn kmeans_plan() -> partstm_analysis::ProgramModel {
    use partstm_analysis::{AccessKind, ModelBuilder};
    let mut b = ModelBuilder::new("kmeans");
    let acc = b.alloc("cluster_accumulators", "ClusterAcc");
    b.access("accumulate_point", AccessKind::ReadWrite, &[acc]);
    b.build().unwrap()
}

fn genome_plan() -> partstm_analysis::ProgramModel {
    use partstm_analysis::{AccessKind, ModelBuilder};
    let mut b = ModelBuilder::new("genome");
    let segs = b.alloc("segment_set_nodes", "HashNode");
    let starts = b.alloc("prefix_map_nodes", "HashNode");
    let links = b.alloc("chain_nodes", "SegNode");
    b.access("dedup_insert", AccessKind::ReadWrite, &[segs]);
    b.access("starts_insert", AccessKind::ReadWrite, &[starts]);
    b.access("starts_consume", AccessKind::ReadWrite, &[starts]);
    b.access("link_claim", AccessKind::ReadWrite, &[links]);
    b.build().unwrap()
}

// ---------------------------------------------------------------- T2

/// T2: overhead of partition tracking and tuning.
fn t2(opts: &Opts) {
    println!("\n=== T2: partition-tracking and tuning overhead (hetero app, Kops/s) ===");
    let threads_hi = *opts.threads.last().unwrap_or(&4);
    let base_cfg = DynConfig::from(&PartitionConfig::default());
    let modes: [(&str, u8); 3] = [
        ("base (1 partition)", 0),
        ("partitioned (3)", 1),
        ("partitioned+tuning", 2),
    ];
    println!(
        "{:>22} {:>10} {:>10} {:>12} {:>12}",
        "mode", "1 thr", "n thr", "vs base(1)", "vs base(n)"
    );
    let mut base1 = 0.0;
    let mut basen = 0.0;
    for (label, mode) in modes {
        let run = |threads: usize| -> f64 {
            let stm = Stm::new();
            let app = match mode {
                0 => HeteroApp::new(&stm, HeteroMode::Single(base_cfg)),
                1 => HeteroApp::new(&stm, HeteroMode::PerPartition([base_cfg; 3])),
                _ => {
                    stm.set_tuner(harness_tuner());
                    HeteroApp::new(&stm, HeteroMode::Adaptive)
                }
            };
            app.prefill(&stm);
            drive(&stm, threads, opts.secs, &|ctx, _t, rng| app.op(ctx, rng)).ops_per_sec
        };
        let m1 = run(1);
        let mn = run(threads_hi);
        if mode == 0 {
            base1 = m1;
            basen = mn;
        }
        println!(
            "{:>22} {:>10} {:>10} {:>11.1}% {:>11.1}%",
            label,
            kops(m1),
            kops(mn),
            100.0 * m1 / base1,
            100.0 * mn / basen,
        );
    }
}

// ---------------------------------------------------------------- F5

/// F5: vacation — task throughput vs threads, base vs partitioned vs tuned.
fn f5(opts: &Opts) {
    for (variant, mk_cfg) in [
        ("low", VacationConfig::low as fn(u64) -> VacationConfig),
        ("high", VacationConfig::high as fn(u64) -> VacationConfig),
    ] {
        println!("\n=== F5: vacation-{variant} (tasks/s, r=4096) ===");
        let cfg = mk_cfg(4096);
        print!("{:>22}", "mode");
        for &t in &opts.threads {
            print!("{t:>10}");
        }
        println!();
        for mode in ["single", "partitioned", "part+tuned"] {
            print!("{mode:>22}");
            for &t in &opts.threads {
                let stm = Stm::new();
                let parts = match mode {
                    "single" => ManagerParts::single(&stm, false),
                    "partitioned" => ManagerParts::partitioned(&stm, false),
                    _ => {
                        stm.set_tuner(harness_tuner());
                        ManagerParts::partitioned(&stm, true)
                    }
                };
                let manager = Manager::new(parts);
                let ctx = stm.register_thread();
                vacation::populate(&ctx, &manager, &cfg);
                drop(ctx);
                let m = drive(&stm, t, opts.secs, &|ctx, tid, rng| {
                    let mut stats = VacationStats::default();
                    let mut local = SplitMix64::new(rng.next() ^ (tid as u64) << 32);
                    vacation::run_one_task(ctx, &manager, &cfg, &mut local, &mut stats);
                });
                manager
                    .check_invariants()
                    .expect("invariants hold after run");
                print!("{:>10}", kops(m.ops_per_sec));
            }
            println!();
        }
    }
}

// ---------------------------------------------------------------- F6

/// F6: kmeans — wall time / speedup vs threads, low and high contention.
fn f6(opts: &Opts) {
    for (variant, cfg) in [
        ("low (K=40)", KmeansConfig::low(20_000)),
        ("high (K=4)", KmeansConfig::high(20_000)),
    ] {
        println!(
            "\n=== F6: kmeans-{variant}, n={} d={} (seconds, speedup) ===",
            cfg.points, cfg.dims
        );
        let points = kmeans::generate_points(&cfg);
        println!(
            "{:>14} {:>10} {:>10} {:>10}",
            "mode", "threads", "time(s)", "speedup"
        );
        for mode in ["default", "tuned"] {
            let mut t1 = 0.0f64;
            for &t in &opts.threads {
                let stm = Stm::new();
                if mode == "tuned" {
                    stm.set_tuner(harness_tuner());
                }
                let state = kmeans::make_state(&stm, &cfg, mode == "tuned");
                let start = Instant::now();
                let res = kmeans::run_kmeans(&stm, &state, &cfg, &points, t);
                let dt = start.elapsed().as_secs_f64();
                if t == opts.threads[0] {
                    t1 = dt;
                }
                println!(
                    "{:>14} {:>10} {:>10.3} {:>10.2} (iters={})",
                    mode,
                    t,
                    dt,
                    t1 / dt,
                    res.iterations
                );
            }
        }
    }
}

// ---------------------------------------------------------------- F7

/// F7: genome — wall time vs threads, single vs partitioned vs tuned.
fn f7(opts: &Opts) {
    let cfg = GenomeConfig::scaled(16_384);
    println!(
        "\n=== F7: genome g={} s={} (seconds; phase split) ===",
        cfg.gene_length, cfg.segment_length
    );
    let gene = genome::generate_gene(&cfg);
    let segs = genome::shred(&cfg, &gene);
    println!("segments={} (coverage+extras)", segs.len());
    println!(
        "{:>14} {:>10} {:>10} {:>10}",
        "mode", "threads", "time(s)", "speedup"
    );
    for mode in ["single", "partitioned", "part+tuned"] {
        let mut t1 = 0.0f64;
        for &t in &opts.threads {
            let stm = Stm::new();
            let parts = match mode {
                "single" => GenomeParts::single(&stm, false),
                "partitioned" => GenomeParts::partitioned(&stm, false),
                _ => {
                    stm.set_tuner(harness_tuner());
                    GenomeParts::partitioned(&stm, true)
                }
            };
            let start = Instant::now();
            let res = genome::run_genome(&stm, &parts, &cfg, &segs, t);
            let dt = start.elapsed().as_secs_f64();
            assert_eq!(res.gene, gene, "genome must reconstruct correctly");
            if t == opts.threads[0] {
                t1 = dt;
            }
            println!("{mode:>14} {t:>10} {dt:>10.3} {:>10.2}", t1 / dt);
        }
    }
}

// ---------------------------------------------------------------- F8

/// F8: intruder — pipeline wall time vs threads across partitioning modes.
fn f8(opts: &Opts) {
    let cfg = IntruderConfig::scaled(20_000);
    let (packets, attacks) = intruder::generate_stream(&cfg);
    println!(
        "\n=== F8: intruder flows={} packets={} attacks={} (seconds, speedup) ===",
        cfg.flows,
        packets.len(),
        attacks
    );
    println!(
        "{:>14} {:>10} {:>10} {:>10}",
        "mode", "threads", "time(s)", "speedup"
    );
    for mode in ["single", "partitioned", "part+tuned"] {
        let mut t1 = 0.0f64;
        for &t in &opts.threads {
            let stm = Stm::new();
            let parts = match mode {
                "single" => IntruderParts::single(&stm, false),
                "partitioned" => IntruderParts::partitioned(&stm, false),
                _ => {
                    stm.set_tuner(harness_tuner());
                    IntruderParts::partitioned(&stm, true)
                }
            };
            let pipeline = intruder::Intruder::new(&stm, parts, &packets);
            let start = Instant::now();
            let res = intruder::run_intruder(&stm, &pipeline, &packets, cfg.flows, t);
            let dt = start.elapsed().as_secs_f64();
            assert_eq!(res.attacks, attacks as u64, "all attacks detected");
            assert_eq!(res.flows, cfg.flows as u64);
            if t == opts.threads[0] {
                t1 = dt;
            }
            println!("{mode:>14} {t:>10} {dt:>10.3} {:>10.2}", t1 / dt);
        }
    }
}

// ---------------------------------------------------------------- A1

/// A1 (ablation): conflict-detection granularity sweep.
fn a1(opts: &Opts) {
    let threads = *opts.threads.last().unwrap_or(&4);
    println!("\n=== A1: granularity sweep (hash set r=1024 u=50%, {threads} threads, Kops/s) ===");
    let range = 1024u64;
    let base = DynConfig::from(&PartitionConfig::default());
    let mut grans: Vec<(String, Granularity)> = vec![("word".into(), Granularity::Word)];
    for shift in [4u8, 6, 8, 10, 12] {
        grans.push((format!("stripe 2^{shift}B"), Granularity::Stripe { shift }));
    }
    grans.push(("partition-lock".into(), Granularity::PartitionLock));
    println!("{:>16} {:>10} {:>10}", "granularity", "Kops/s", "abort%");
    for (label, g) in grans {
        let stm = Stm::new();
        let mut cfg = base;
        cfg.granularity = g;
        let part = partition_with(&stm, "hash", cfg, false);
        let set = THashSet::new(Arc::clone(&part), range as usize / 4);
        prefill(&stm, &set, range);
        let m = drive(&stm, threads, opts.secs, &|ctx, _t, rng| {
            intset_op(&set, ctx, rng, range, 50);
        });
        let s = part.stats();
        let ar = 100.0 * s.aborts() as f64 / (s.commits + s.aborts()).max(1) as f64;
        println!("{label:>16} {:>10} {ar:>10.2}", kops(m.ops_per_sec));
    }

    println!("\n-- orec table size sweep (word granularity)");
    println!("{:>16} {:>10} {:>10}", "orecs", "Kops/s", "abort%");
    for orecs in [64usize, 256, 1024, 4096, 16384] {
        let stm = Stm::new();
        let part = stm.new_partition(PartitionConfig::named("hash").orecs(orecs));
        let set = THashSet::new(Arc::clone(&part), range as usize / 4);
        prefill(&stm, &set, range);
        let m = drive(&stm, threads, opts.secs, &|ctx, _t, rng| {
            intset_op(&set, ctx, rng, range, 50);
        });
        let s = part.stats();
        let ar = 100.0 * s.aborts() as f64 / (s.commits + s.aborts()).max(1) as f64;
        println!("{orecs:>16} {:>10} {ar:>10.2}", kops(m.ops_per_sec));
    }
}

// ---------------------------------------------------------------- A2

/// A2 (ablation): hysteresis and window size vs oscillation.
fn a2(opts: &Opts) {
    let threads = (*opts.threads.last().unwrap_or(&8)).min(8);
    println!("\n=== A2: tuner hysteresis ablation (F4 workload, {threads} threads) ===");
    let range = 2048u64;
    let total = 5.0f64;
    let phase = 1.25f64;
    println!("{:>12} {:>10} {:>10}", "hysteresis", "Kops/s", "switches");
    for hysteresis in [1u32, 2, 4, 8] {
        let stm = Stm::new();
        stm.set_tuner(Arc::new(ThresholdPolicy::with_thresholds(Thresholds {
            window: 1024,
            min_commits: 128,
            hysteresis,
            ..Thresholds::default()
        })));
        let part = partition_with(
            &stm,
            "tree",
            DynConfig::from(&PartitionConfig::default()),
            true,
        );
        let tree = TRbTree::with_capacity(Arc::clone(&part), range as usize);
        prefill(&stm, &tree, range);
        let series = drive_timeseries(&stm, threads, total, 0.25, &|ctx, _t, rng, el| {
            let p = (el.as_secs_f64() / phase) as u64;
            let upd = if p.is_multiple_of(2) { 2 } else { 60 };
            intset_op(&tree, ctx, rng, range, upd);
        });
        let tput = series.iter().sum::<u64>() as f64 / total;
        println!(
            "{hysteresis:>12} {:>10} {:>10}",
            kops(tput),
            part.generation()
        );
    }
    let _ = opts;
}

// ---------------------------------------------------------------- A3

/// A3 (ablation): reader/writer arbitration under visible reads.
fn a3(opts: &Opts) {
    println!("\n=== A3: visible-read arbitration (linked list r=512 u=50%, Kops/s) ===");
    let range = 512u64;
    print!("{:>18}", "arbitration");
    for &t in &opts.threads {
        print!("{t:>10}");
    }
    println!("   (kills, rlock-aborts at max threads)");
    for (label, arb) in [
        ("writer-wins-kill", ReaderArb::WriterWinsKill),
        ("reader-wins", ReaderArb::ReaderWins),
    ] {
        print!("{label:>18}");
        let mut last_stats = None;
        for &t in &opts.threads {
            let stm = Stm::new();
            let mut cfg = DynConfig::from(&PartitionConfig::default());
            cfg.read_mode = ReadMode::Visible;
            cfg.reader_arb = arb;
            let part = partition_with(&stm, "list", cfg, false);
            let list = TLinkedList::with_capacity(Arc::clone(&part), range as usize);
            prefill(&stm, &list, range);
            let m = drive(&stm, t, opts.secs, &|ctx, _i, rng| {
                intset_op(&list, ctx, rng, range, 50);
            });
            print!("{:>10}", kops(m.ops_per_sec));
            last_stats = Some(part.stats());
        }
        let s = last_stats.unwrap();
        println!("   ({}, {})", s.kills_issued, s.aborts_rlock);
    }
}

// ---------------------------------------------------------------- REPART

/// Phase-shift scenarios: uniform traffic flips to a hot cluster mid-run;
/// the online repartitioner must split the hot data out and win back the
/// lost throughput (acceptance: >= 20% of the loss recovered). Runs the
/// flat-variable scenario and the structure-backed one (two hash maps in
/// one partition; recovery requires an arena-level split).
fn repart(opts: &Opts) {
    let threads = (*opts.threads.last().unwrap_or(&4)).clamp(2, 8);
    // Floor of 5s: the recovery tail needs a few clean windows after the
    // controller's split to measure, even in --quick mode.
    let total = (opts.secs * 12.0).clamp(5.0, 12.0);
    let with = PhaseShiftConfig::standard(threads, total);
    println!(
        "\n=== REPART: phase-shift bank ({} accounts, {}% scans; {}% of transfers hit \
         {} hot accounts after t={:.1}s), {threads} threads, {total:.1}s ===",
        with.accounts,
        with.scan_pct,
        with.hot_pct,
        with.hot,
        total * with.shift_frac
    );
    let without = with.clone().without_controller();
    let stat = run_phase_shift(&without);
    let ctrl = run_phase_shift(&with);
    report_repart(opts, &with, &stat, &ctrl, "repart");

    println!(
        "\n=== REPART-STRUCT: same shift against arena-backed hash maps \
         (cold map {} keys scanned, hot map {} keys hammered; recovery \
         needs an arena-level split) ===",
        with.accounts - with.hot,
        with.hot
    );
    let with_s = PhaseShiftConfig::struct_standard(threads, total);
    let stat_s = run_struct_shift(&with_s.clone().without_controller());
    let ctrl_s = run_struct_shift(&with_s);
    report_repart(opts, &with_s, &stat_s, &ctrl_s, "repart_struct");
}

// ---------------------------------------------------------------- HOTKEY

/// Hot-key (celebrity) scenario: a Zipf-like skew on a few keys of one
/// 64Ki-entry hash map mid-run. The whole map IS the working set, so a
/// whole-structure split cannot help; the controller must *tear* just the
/// hot slot subset into its own partition, and *heal* it back once the
/// skew passes. Tracks tear latency, post-tear recovery and the heal.
fn hotkey(opts: &Opts) {
    let threads = (*opts.threads.last().unwrap_or(&4)).clamp(2, 8);
    // Floor of 6s: each third (uniform / skew / calm) needs enough
    // controller windows for the tear and then the heal to land, even in
    // --quick mode.
    let total = (opts.secs * 12.0).clamp(6.0, 12.0);
    let with = HotkeyConfig::standard(threads, total);
    println!(
        "\n=== HOTKEY: celebrity-key tear/heal ({} keys, {}% scans; {}% of skew-phase \
         transfers hit {} celebrity keys in t=[{:.1}s,{:.1}s)), {threads} threads, \
         {total:.1}s ===",
        with.keys,
        with.scan_pct,
        with.hot_pct,
        with.celebs,
        total / 3.0,
        total * 2.0 / 3.0,
    );
    let stat = run_hotkey(&with.clone().without_controller());
    let ctrl = run_hotkey(&with);

    println!(
        "{:>8} {:>6} {:>12} {:>12}   marker",
        "window", "t(s)", "static", "hotkey"
    );
    let window = with.window_secs;
    for i in 0..ctrl.window_ops.len().min(stat.window_ops.len()) {
        let mut marker = String::new();
        if i == ctrl.skew_window {
            marker.push_str("<< skew on");
        }
        if i == ctrl.calm_window {
            marker.push_str("<< skew off");
        }
        if ctrl.tear_window == Some(i) {
            marker.push_str(" << TEAR");
        }
        if ctrl.heal_window == Some(i) {
            marker.push_str(" << HEAL");
        }
        println!(
            "{i:>8} {:>6.2} {:>12} {:>12}   {marker}",
            (i as f64 + 1.0) * window,
            kops(stat.window_ops[i] as f64 / window),
            kops(ctrl.window_ops[i] as f64 / window),
        );
    }
    let line = |label: &str, r: &HotkeyReport| {
        println!(
            "{label:>10}: pre {} Kops/s | dip {} | tail {} | recovery {:>5.1}% | \
             abort {:>4.1}% | partitions {}",
            kops(r.baseline),
            kops(r.dip),
            kops(r.recovered),
            100.0 * r.recovery,
            100.0 * r.abort_rate,
            r.partitions
        );
    };
    line("static", &stat);
    line("hotkey", &ctrl);
    for e in &ctrl.events {
        println!("controller event: {e:?}");
    }
    match (ctrl.tear_window, ctrl.tear_latency_s) {
        (Some(w), Some(lat)) => println!(
            "controller tore {} of {} slots at window {w} ({lat:.2}s after skew onset); \
             heal: {}; recovery criterion (>=10%): {}",
            ctrl.torn_moved,
            ctrl.torn_total_live,
            match ctrl.heal_window {
                Some(h) => format!("window {h}"),
                None => "never".to_string(),
            },
            if ctrl.recovery >= 0.10 {
                "MET"
            } else {
                "missed"
            }
        ),
        _ => println!("controller never tore"),
    }
    assert!(stat.conserved && ctrl.conserved, "conserved-sum violated");

    opts.rec.record(
        "hotkey/static",
        &[
            ("baseline_kops", stat.baseline / 1000.0),
            ("dip_kops", stat.dip / 1000.0),
            ("tail_kops", stat.recovered / 1000.0),
            ("recovery", stat.recovery),
            ("abort_rate", stat.abort_rate),
            ("partitions", stat.partitions as f64),
        ],
    );
    opts.rec.record(
        "hotkey/controller",
        &[
            ("baseline_kops", ctrl.baseline / 1000.0),
            ("dip_kops", ctrl.dip / 1000.0),
            ("tail_kops", ctrl.recovered / 1000.0),
            // The bench-trend floor: percent of the skew-phase loss won
            // back after the tear.
            ("hotkey_recovery_pct", 100.0 * ctrl.recovery),
            (
                "tear_window",
                ctrl.tear_window.map(|w| w as f64).unwrap_or(-1.0),
            ),
            (
                "heal_window",
                ctrl.heal_window.map(|w| w as f64).unwrap_or(-1.0),
            ),
            ("tear_latency_s", ctrl.tear_latency_s.unwrap_or(-1.0)),
            ("torn_moved", ctrl.torn_moved as f64),
            ("torn_total_live", ctrl.torn_total_live as f64),
            ("abort_rate", ctrl.abort_rate),
            ("partitions", ctrl.partitions as f64),
            ("conserved", if ctrl.conserved { 1.0 } else { 0.0 }),
        ],
    );
}

// ---------------------------------------------------------------- REPORT

/// Flight-recorder timeline: runs the controller phase-shift workload once
/// and renders the control-plane events the engine recorded (quiesce
/// windows, controller proposals with scores and streaks, executed
/// actions with outcomes) against the per-window throughput, followed by
/// the sampled transaction-lifecycle summary. The human-readable answer
/// to "what did the controller do, when, and why".
fn report(opts: &Opts) {
    let threads = (*opts.threads.last().unwrap_or(&4)).clamp(2, 8);
    let total = (opts.secs * 12.0).clamp(5.0, 10.0);
    let cfg = PhaseShiftConfig::standard(threads, total);
    println!(
        "\n=== REPORT: flight-recorder timeline of a controller phase-shift run \
         ({threads} threads, {total:.1}s) ==="
    );
    let t_run0 = telemetry::now_micros();
    let ctrl = run_phase_shift(&cfg);

    let window = cfg.window_secs;
    println!("\nper-window throughput:");
    println!("{:>8} {:>6} {:>12}   marker", "window", "t(s)", "Kops/s");
    for (i, ops) in ctrl.window_ops.iter().enumerate() {
        let mut marker = String::new();
        if i == ctrl.shift_window {
            marker.push_str("<< phase shift");
        }
        if ctrl.split_window == Some(i) {
            marker.push_str(" << SPLIT");
        }
        println!(
            "{i:>8} {:>6.2} {:>12}   {marker}",
            (i as f64 + 1.0) * window,
            kops(*ops as f64 / window),
        );
    }

    let events = telemetry::global().recorder.snapshot();
    println!("\ncontrol-plane timeline (+t from run start, w = throughput window above):");
    let mut shown = 0usize;
    for e in events.iter().filter(|e| e.kind.is_control_plane()) {
        // Events recorded by an earlier experiment in the same invocation
        // belong to that experiment's run, not this timeline.
        if e.micros < t_run0 {
            continue;
        }
        let dt = (e.micros - t_run0) as f64 / 1e6;
        let w = (dt / window) as usize;
        println!("  +{dt:>8.3}s  w{w:<3} {}", telemetry::render_event(e));
        shown += 1;
    }
    if shown == 0 {
        println!("  (no control-plane events recorded)");
    }

    let (mut begins, mut validates, mut commits, mut aborts) = (0u64, 0u64, 0u64, 0u64);
    for e in &events {
        match e.kind {
            telemetry::EventKind::TxBegin => begins += 1,
            telemetry::EventKind::TxValidate => validates += 1,
            telemetry::EventKind::TxCommit => commits += 1,
            telemetry::EventKind::TxAbort => aborts += 1,
            _ => {}
        }
    }
    println!(
        "\nsampled tx lifecycle events still in the ring: {begins} begin, \
         {validates} validate, {commits} commit, {aborts} abort \
         (1-in-{} sampled; per-lane rings keep only the newest events)",
        telemetry::tx_sample_period(),
    );
    let snap = telemetry::global().registry.snapshot();
    if let Some(h) = snap.hist("commit_latency_ns") {
        println!(
            "commit latency: p50 {:.0}ns p99 {:.0}ns over {} sampled commits",
            h.p50(),
            h.p99(),
            h.count
        );
    }
    if let Some(h) = snap.hist("quiesce_us") {
        println!(
            "quiesce windows: p50 {:.0}us p99 {:.0}us over {} windows",
            h.p50(),
            h.p99(),
            h.count
        );
    }

    opts.rec.record(
        "report",
        &[
            ("control_events", shown as f64),
            ("recovery", ctrl.recovery),
            ("tail_kops", ctrl.recovered / 1000.0),
        ],
    );
}

// ---------------------------------------------------------------- ORECS

/// Orec-pressure scenario: a large uniform footprint guarded by a tiny
/// orec table aborts mostly on *aliased* (false) conflicts; the controller
/// must execute at least one live in-place table resize and win back
/// throughput vs the static baseline — without migrating any data.
fn orecs(opts: &Opts) {
    let threads = (*opts.threads.last().unwrap_or(&4)).clamp(2, 8);
    // Floor of 5s: the settled tail after the (possibly repeated) resizes
    // needs a few clean windows to measure, even in --quick mode.
    let total = (opts.secs * 12.0).clamp(5.0, 12.0);
    let with = OrecPressureConfig::standard(threads, total);
    println!(
        "\n=== ORECS: aliasing pressure ({} accounts on a {}-orec table, \
         {}% scans of {}), {threads} threads, {total:.1}s ===",
        with.accounts, with.orecs, with.scan_pct, with.scan_len
    );
    let stat = run_orec_pressure(&with.clone().without_controller());
    let ctrl = run_orec_pressure(&with);

    println!(
        "{:>8} {:>6} {:>12} {:>12}   marker",
        "window", "t(s)", "static", "resize"
    );
    let window = with.window_secs;
    for i in 0..ctrl.window_ops.len().min(stat.window_ops.len()) {
        let marker = if ctrl.resize_window == Some(i) {
            "<< RESIZE"
        } else {
            ""
        };
        println!(
            "{i:>8} {:>6.2} {:>12} {:>12}   {marker}",
            (i as f64 + 1.0) * window,
            kops(stat.window_ops[i] as f64 / window),
            kops(ctrl.window_ops[i] as f64 / window),
        );
    }
    println!(
        "{:>10}: mean {} Kops/s | abort {:>4.1}% | aliased {:>4.1}% | orecs {} (static)",
        "static",
        kops(stat.tail),
        100.0 * stat.abort_rate,
        100.0 * stat.aliased_share,
        stat.orecs_final,
    );
    println!(
        "{:>10}: pre {} Kops/s | tail {} | abort {:>4.1}% | aliased {:>4.1}% | \
         orecs {} -> {} ({} resizes)",
        "resize",
        kops(ctrl.pre),
        kops(ctrl.tail),
        100.0 * ctrl.abort_rate,
        100.0 * ctrl.aliased_share,
        ctrl.orecs_before,
        ctrl.orecs_final,
        ctrl.resizes,
    );
    for e in &ctrl.events {
        println!("controller event: {e:?}");
    }
    let gain_vs_static = ctrl.tail / stat.tail.max(1.0);
    match ctrl.resize_window {
        Some(w) => println!(
            "controller resized at window {w}; settled tail {:.2}x the \
             static baseline (criterion >= 1.10): {}",
            gain_vs_static,
            if gain_vs_static >= 1.10 {
                "MET"
            } else {
                "missed"
            }
        ),
        None => println!("controller never resized"),
    }
    assert!(stat.conserved && ctrl.conserved, "conserved-sum violated");

    for (name, r) in [("orecs/static", &stat), ("orecs/controller", &ctrl)] {
        opts.rec.record(
            name,
            &[
                ("pre_kops", r.pre / 1000.0),
                ("tail_kops", r.tail / 1000.0),
                ("abort_rate", r.abort_rate),
                ("aliased_share", r.aliased_share),
                ("orecs_before", r.orecs_before as f64),
                ("orecs_final", r.orecs_final as f64),
                ("resizes", r.resizes as f64),
                (
                    "resize_window",
                    r.resize_window.map(|w| w as f64).unwrap_or(-1.0),
                ),
                ("gain_vs_static", r.tail / stat.tail.max(1.0)),
            ],
        );
    }
}

// ---------------------------------------------------------------- READPATH

/// Read-path scenario: a 95/5 read-dominated bank on a commit-time
/// partition, run once through the multi-version snapshot tier and once
/// through the regular validating tier with identical traffic. The
/// snapshot side must report **zero** read-transaction aborts
/// (acceptance criterion), and both sides report read-txn throughput
/// and tail latency separately from the writer side.
fn readpath(opts: &Opts) {
    let threads = (*opts.threads.last().unwrap_or(&4)).clamp(2, 8);
    let total = (opts.secs * 8.0).clamp(2.0, 6.0);
    let cfg = ReadpathConfig::standard(threads, total);
    println!(
        "\n=== READPATH: 95/5 read-dominated bank ({} accounts, scans of {}, \
         ring depth {}), {threads} threads, {total:.1}s per mode ===",
        cfg.accounts, cfg.scan_len, cfg.ring_depth
    );
    let snap = run_readpath(&cfg);
    let val = run_readpath(&cfg.clone().validating());

    println!(
        "{:>12} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "mode", "read K/s", "write K/s", "p50(us)", "p99(us)", "aborts", "restarts", "hist%"
    );
    let line = |label: &str, r: &ReadpathReport| {
        println!(
            "{label:>12} {:>10.1} {:>10.1} {:>9.1} {:>9.1} {:>9} {:>9} {:>7.2}",
            r.read_kops,
            r.write_kops,
            r.read_p50_us,
            r.read_p99_us,
            r.ro_aborts,
            r.ro_restarts,
            100.0 * r.hist_share,
        );
    };
    line("snapshot", &snap);
    line("validating", &val);
    println!(
        "snapshot: {} history reads, {} ring-overflow pushes; \
         zero-abort criterion: {}",
        snap.hist_reads,
        snap.overflow_pushes,
        if snap.ro_aborts == 0 { "MET" } else { "MISSED" }
    );
    assert!(snap.conserved && val.conserved, "conserved-sum violated");
    assert_eq!(
        snap.ro_aborts, 0,
        "snapshot read-only transactions must never abort"
    );

    for (name, r) in [("readpath/snapshot", &snap), ("readpath/validating", &val)] {
        opts.rec.record(
            name,
            &[
                ("read_kops", r.read_kops),
                ("write_kops", r.write_kops),
                ("read_p50_us", r.read_p50_us),
                ("read_p99_us", r.read_p99_us),
                ("ro_aborts", r.ro_aborts as f64),
                ("ro_restarts", r.ro_restarts as f64),
                ("hist_share", r.hist_share),
                ("overflow_pushes", r.overflow_pushes as f64),
            ],
        );
    }
}

// ---------------------------------------------------------------- PRIVATIZE

/// PRIVATIZE: the bulk-operation escape hatch — load race (transactional
/// vs guard-gated initialization of the same bank) and the mixed phase
/// (serve → privatize → compact → republish → recover under traffic).
fn privatize(opts: &Opts) {
    let threads = (*opts.threads.last().unwrap_or(&4)).clamp(2, 8);
    let total = (opts.secs * 4.0).clamp(1.0, 4.0);
    let cfg = PrivatizeConfig::standard(threads, total);
    println!(
        "\n=== PRIVATIZE: bulk escape hatch ({} load accounts; mixed phase \
         {} accounts, {threads} threads, {total:.1}s) ===",
        cfg.load_accounts, cfg.serve_accounts
    );
    let r = run_privatize(&cfg);
    println!("{:>14} {:>12} {:>12}", "load mode", "secs", "accounts K/s");
    println!(
        "{:>14} {:>12.4} {:>12.1}",
        "transactional", r.txn_load_secs, r.txn_load_kops
    );
    println!(
        "{:>14} {:>12.4} {:>12.1}",
        "bulk (guard)", r.bulk_load_secs, r.bulk_load_kops
    );
    println!(
        "bulk speedup: {:.1}x; speedup criterion (>=10x): {}",
        r.bulk_speedup,
        if r.bulk_speedup >= 10.0 {
            "MET"
        } else {
            "MISSED"
        }
    );
    let s = &r.stats;
    println!(
        "mixed phase: serve {:.1} Kops/s | hold {:.0}us | recover {:.1} Kops/s | \
         collisions {} | conserved: {}",
        r.serve_kops,
        r.hold_us,
        r.recover_kops,
        s.privatized_collisions,
        if r.conserved { "yes" } else { "NO" }
    );
    assert!(r.conserved, "conserved-sum violated across the hold");

    // The privatization counters land next to the abort classification so
    // cross-commit tooling can correlate collision aborts with holds.
    opts.rec.record(
        "privatize/bulk",
        &[
            ("bulk_speedup", r.bulk_speedup),
            ("txn_load_kops", r.txn_load_kops),
            ("bulk_load_kops", r.bulk_load_kops),
            ("serve_kops", r.serve_kops),
            ("recover_kops", r.recover_kops),
            ("hold_us", r.hold_us),
            ("privatizations", s.privatizations as f64),
            ("privatize_rollbacks", s.privatize_rollbacks as f64),
            ("republishes", s.republishes as f64),
            ("privatized_collisions", s.privatized_collisions as f64),
            ("aborts_switching", s.aborts_switching as f64),
            ("aborts_wlock", s.aborts_wlock as f64),
            ("aborts_validation", s.aborts_validation as f64),
        ],
    );
}

// ---------------------------------------------------------------- CHAOS

/// CHAOS: stuck-transaction remediation under deterministic fault
/// injection — quiesce success with only the hard deadline vs with the
/// kill-based rescue armed, then the controller's circuit breaker under
/// injected control-action failures. See [`partstm_bench::chaos`].
fn chaos(opts: &Opts) {
    let threads = (*opts.threads.last().unwrap_or(&4)).clamp(2, 8);
    let cfg = ChaosConfig::standard(threads, opts.secs);
    println!(
        "\n=== CHAOS: seeded fault injection ({} control actions per phase; stalls of \
         {:?} at {}‰ vs a {:?} hard / {:?} soft deadline), {threads} threads ===",
        cfg.actions, cfg.stall, cfg.stall_permille, cfg.quiesce_timeout, cfg.kill_after
    );
    let t_run0 = telemetry::now_micros();
    let r = run_chaos(&cfg);
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "phase", "actions", "success%", "mean(ms)", "max(ms)", "kills", "stuck"
    );
    let line = |label: &str, p: &partstm_bench::chaos::QuiescePhase, pct: f64| {
        println!(
            "{label:>14} {:>10} {pct:>9.1}% {:>10.1} {:>10.1} {:>8} {:>8}",
            p.attempts, p.mean_ms, p.max_ms, p.killed, p.stuck_slots
        );
    };
    line("deadline-only", &r.deadline, r.deadline_success_pct());
    line("kill-rescue", &r.rescue, r.rescue_success_pct());
    println!(
        "breaker: {} failed action(s) -> {} open(s), {} close(s); split after faults \
         cleared: {}",
        r.breaker.failed_actions,
        r.breaker.opens,
        r.breaker.closes,
        if r.breaker.split_after_clear {
            "yes"
        } else {
            "NO"
        }
    );
    for e in &r.breaker.events {
        println!("controller event: {e:?}");
    }
    // The remediation slice of the flight-recorder timeline: every
    // stuck-slot diagnosis, kill rescue and breaker transition this run
    // recorded (the newest still in the ring), in order.
    println!("remediation timeline (+t from chaos start):");
    let mut shown = 0usize;
    for e in telemetry::global().recorder.snapshot().iter().filter(|e| {
        e.micros >= t_run0
            && matches!(
                e.kind,
                telemetry::EventKind::StuckSlot
                    | telemetry::EventKind::KillRescue
                    | telemetry::EventKind::CtrlBreaker
            )
    }) {
        let dt = (e.micros - t_run0) as f64 / 1e6;
        println!("  +{dt:>8.3}s  {}", telemetry::render_event(e));
        shown += 1;
    }
    if shown == 0 {
        println!("  (no remediation events recorded)");
    }
    println!(
        "rescue criterion (>=95% quiesce success): {}",
        if r.rescue_success_pct() >= 95.0 {
            "MET"
        } else {
            "MISSED"
        }
    );
    assert!(
        r.deadline.conserved && r.rescue.conserved && r.breaker.conserved,
        "conserved-sum violated"
    );
    let leaked = r.deadline.leaked_locks + r.rescue.leaked_locks + r.breaker.leaked_locks;
    assert_eq!(leaked, 0, "locks leaked across the chaos phases");

    opts.rec.record(
        "chaos",
        &[
            ("chaos_quiesce_success_pct", r.rescue_success_pct()),
            ("chaos_deadline_success_pct", r.deadline_success_pct()),
            ("kill_rescues", r.rescue.killed as f64),
            ("stuck_slots", r.deadline.stuck_slots as f64),
            ("rescue_mean_ms", r.rescue.mean_ms),
            ("rescue_max_ms", r.rescue.max_ms),
            ("breaker_opens", r.breaker.opens as f64),
            ("breaker_closes", r.breaker.closes as f64),
            (
                "split_after_clear",
                if r.breaker.split_after_clear {
                    1.0
                } else {
                    0.0
                },
            ),
            ("failed_actions", r.breaker.failed_actions as f64),
            ("leaked_locks", leaked as f64),
        ],
    );
}

/// Prints one scenario's window table + summary and records its metrics.
fn report_repart(
    opts: &Opts,
    with: &PhaseShiftConfig,
    stat: &PhaseShiftReport,
    ctrl: &PhaseShiftReport,
    tag: &str,
) {
    println!(
        "{:>8} {:>6} {:>12} {:>12}   marker",
        "window", "t(s)", "static", "repart"
    );
    let window = with.window_secs;
    for i in 0..ctrl.window_ops.len().min(stat.window_ops.len()) {
        let mut marker = String::new();
        if i == ctrl.shift_window {
            marker.push_str("<< phase shift");
        }
        if ctrl.split_window == Some(i) {
            marker.push_str(" << SPLIT");
        }
        println!(
            "{i:>8} {:>6.2} {:>12} {:>12}   {marker}",
            (i as f64 + 1.0) * window,
            kops(stat.window_ops[i] as f64 / window),
            kops(ctrl.window_ops[i] as f64 / window),
        );
    }
    let line = |label: &str, r: &PhaseShiftReport| {
        println!(
            "{label:>10}: pre {} Kops/s | dip {} | tail {} | recovery {:>5.1}% | \
             abort {:>4.1}% | partitions {}",
            kops(r.baseline),
            kops(r.dip),
            kops(r.recovered),
            100.0 * r.recovery,
            100.0 * r.abort_rate,
            r.partitions
        );
    };
    line("static", stat);
    line("repart", ctrl);
    for e in &ctrl.events {
        println!("controller event: {e:?}");
    }
    // Splits that carried whole collections (arena + roots) — the
    // arena-level migrations the structure scenario must exhibit.
    let arena_splits = ctrl
        .events
        .iter()
        .filter(
            |e| matches!(e, partstm_repart::RepartEvent::Split { collections, .. } if *collections > 0),
        )
        .count();
    match ctrl.split_window {
        Some(w) => println!(
            "controller split at window {w} ({arena_splits} arena-level); \
             recovery criterion (>=20%): {}",
            if ctrl.recovery >= 0.20 {
                "MET"
            } else {
                "missed"
            }
        ),
        None => println!("controller never split"),
    }
    assert!(stat.conserved && ctrl.conserved, "conserved-sum violated");

    for (name, r) in [
        (format!("{tag}/static"), stat),
        (format!("{tag}/controller"), ctrl),
    ] {
        let r_arena_splits = r
            .events
            .iter()
            .filter(
                |e| matches!(e, partstm_repart::RepartEvent::Split { collections, .. } if *collections > 0),
            )
            .count();
        opts.rec.record(
            name,
            &[
                ("baseline_kops", r.baseline / 1000.0),
                ("dip_kops", r.dip / 1000.0),
                ("tail_kops", r.recovered / 1000.0),
                ("recovery", r.recovery),
                ("abort_rate", r.abort_rate),
                ("partitions", r.partitions as f64),
                (
                    "split_window",
                    r.split_window.map(|w| w as f64).unwrap_or(-1.0),
                ),
                ("arena_splits", r_arena_splits as f64),
            ],
        );
    }
}
