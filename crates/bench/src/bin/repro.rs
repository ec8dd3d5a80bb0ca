//! `repro` — regenerates every figure and table of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro <experiment>.. [--secs S] [--threads 1,2,4,...] [--quick]
//! experiments: f2 f3 f4 t1 t2 f5 f6 f7 f8 a1 a2 a3 all
//! ```
//!
//! Several experiments may be named in one invocation (`repro f2 a1
//! --quick`). Each prints the table/series the corresponding paper
//! artifact reports. Everything the library grew beyond the paper
//! (repartitioning, snapshot reads, privatization, fault handling) is
//! measured by the yardstick in `benchmark/`, not here.

use std::sync::Arc;
use std::time::Instant;

use partstm_bench::hetero::{self, HeteroApp, HeteroMode};
use partstm_bench::{
    config_label, drive, drive_timeseries, intset_op, kops, partition_with, prefill, snapshot_all,
    static_configs, thread_sweep,
};
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
}

/// A command-line name and the experiment it runs.
type Experiment = (&'static str, fn(&Opts));

/// The paper's figures and tables, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 12] = [
    ("f2", f2),
    ("f3", f3),
    ("f4", f4),
    ("t1", t1),
    ("t2", t2),
    ("f5", f5),
    ("f6", f6),
    ("f7", f7),
    ("f8", f8),
    ("a1", a1),
    ("a2", a2),
    ("a3", a3),
];

/// Prints the usage line and exits with status 2 (the response to an
/// empty or malformed command line).
fn usage() -> ! {
    eprintln!(
        "usage: repro <f2|f3|f4|t1|t2|f5|f6|f7|f8|a1|a2|a3|all>.. \
         [--secs S] [--threads ..] [--quick]"
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
            _ => return None,
        }
    }
    Some(Opts { secs, threads })
}

/// The experiments one command-line name selects; `None` when it names
/// none.
fn select(name: &str) -> Option<&'static [Experiment]> {
    if name == "all" {
        return Some(&EXPERIMENTS);
    }
    let i = EXPERIMENTS.iter().position(|(n, _)| *n == name)?;
    Some(&EXPERIMENTS[i..=i])
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
    // Experiments are every leading non-flag argument (`repro f2 a1 --quick`).
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (cmds, flags) = args.split_at(split);
    if cmds.is_empty() {
        usage();
    }
    let opts = parse_opts(flags).unwrap_or_else(|| usage());
    // Resolve every name before running any: a typo must not cost a sweep.
    let selected: Vec<_> = cmds
        .iter()
        .map(|cmd| select(cmd).unwrap_or_else(|| usage()))
        .collect();
    let t0 = Instant::now();
    for (_, run) in selected.into_iter().flatten() {
        run(&opts);
    }
    eprintln!("[repro] total wall time {:.1}s", t0.elapsed().as_secs_f64());
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
                let set = make_set(&structure, part, range);
                prefill(&stm, set.as_ref(), range);
                let m = drive(&stm, t, opts.secs, &|ctx, _i, rng| {
                    intset_op(set.as_ref(), ctx, rng, range, upd);
                });
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
